//! The metric catalogue and the result line every run ends with.

use std::collections::BTreeMap;

use harness::ExperimentId;

/// End-to-end metrics (tracing off): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("wall_par_s", "s"),
    ("sim_req_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Span kinds the traced run records, one `obs.spans.<kind>` metric each.
pub const SPAN_KINDS: [&str; 9] = [
    "setup",
    "build",
    "pass",
    "experiment",
    "cell",
    "merge",
    "executor",
    "micro",
    "twin",
];

/// Per-layer metrics that are not per experiment or per span kind.
const LAYER_FIXED: [(&str, &str); 43] = [
    ("harness.grid.cell_ms_max", "ms"),
    ("harness.grid.merge_ms", "ms"),
    ("harness.executor.idle_frac", "frac"),
    ("platforms.build_us", "us"),
    ("platforms.builds", "count"),
    ("simcore.rng.zipf_ns.n16", "ns"),
    ("simcore.rng.zipf_ns.n2000", "ns"),
    ("simcore.rng.zipf_ns.n100000", "ns"),
    ("simcore.rng.exponential_ns", "ns"),
    ("simcore.rng.zipf_calls", "count"),
    ("simcore.simulation.event_ns", "ns"),
    ("simcore.event_queue.event_ns", "ns"),
    ("simcore.sharded_cores.event_ns.l1", "ns"),
    ("simcore.sharded_cores.event_ns.l8", "ns"),
    ("simcore.core.pushes", "count"),
    ("simcore.core.pops", "count"),
    ("simcore.core.slot_drains", "count"),
    ("simcore.core.cascades", "count"),
    ("simcore.core.spill_promotions", "count"),
    ("simcore.completion_timer.op_ns", "ns"),
    ("workloads.slot_pool.offer_ns", "ns"),
    ("workloads.slot_pool.finish_ns", "ns"),
    ("workloads.loadgen.ns_per_req", "ns"),
    ("workloads.tenancy.ns_per_req", "ns"),
    ("workloads.pipeline.ns_per_req", "ns"),
    ("workloads.cluster.ns_per_req", "ns"),
    ("workloads.failover.ns_per_req", "ns"),
    ("workloads.ycsb.us_per_op", "us"),
    ("workloads.oltp.ms_per_trial", "ms"),
    ("workloads.issued", "count"),
    ("workloads.completed", "count"),
    ("workloads.dropped", "count"),
    ("workloads.pipeline.cache_hit_ratio", "frac"),
    ("workloads.cluster.handoffs", "count"),
    ("kvstore.store.get_ns", "ns"),
    ("kvstore.store.set_ns", "ns"),
    ("kvstore.evictions", "count"),
    ("relstore.txn_us", "us"),
    ("relstore.lock_waits", "count"),
    ("obs.overhead_frac", "frac"),
    ("attr.explained_frac", "frac"),
    ("attr.residual_s", "s"),
    ("check.findings_not_holding", "count"),
];

/// The fig. 16 attribution share: the part of fig. 16's cell time its
/// Zipf draws explain.
pub const FIG16_ZIPF_FRAC: (&str, &str) = ("attr.fig16_memcached.zipf_frac", "frac");

/// Every per-layer metric (tracing on), name and unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = ExperimentId::all()
        .iter()
        .map(|e| (format!("cell_s.{}", e.slug()), "s"))
        .collect();
    out.extend(LAYER_FIXED.iter().map(|(n, u)| (n.to_string(), *u)));
    out.push((FIG16_ZIPF_FRAC.0.to_string(), FIG16_ZIPF_FRAC.1));
    out.extend(
        SPAN_KINDS
            .iter()
            .map(|k| (format!("obs.spans.{k}"), "count")),
    );
    out
}

/// The outcome of one run: the correctness verdict, the attempt counts
/// and the measured metrics.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether every output was correct.
    pub correct: bool,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells failed.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
}

impl Report {
    /// Records one metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// The result line: the metrics of `catalogue`, in its order.
    ///
    /// # Errors
    ///
    /// Names the first catalogue metric the run did not measure, or that
    /// measured a non-finite value.
    pub fn json<N: AsRef<str>>(&self, catalogue: &[(N, &str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let name = name.as_ref();
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name: a letter or digit first, then
    /// at most 63 more of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn metric_names_use_only_the_allowed_characters() {
        let names: Vec<String> = END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _)| n))
            .collect();
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "metric names repeat");
        assert!(per_layer().len() <= 128);
        for bad in ["", ".x", "a b", "cell_s.fig/16", "é"] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn the_catalogue_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        // `(name, unit)` of every metric entry; workloads have no unit.
        let listed: Vec<(&str, &str)> = spec
            .split("{\"name\": \"")
            .skip(1)
            .filter_map(|entry| {
                let name = entry.split('"').next()?;
                let unit = entry.split("\"unit\": \"").nth(1)?.split('"').next()?;
                Some((name, unit))
            })
            .collect();
        let mut ours: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        ours.extend(per_layer());
        let ours: Vec<(&str, &str)> = ours.iter().map(|(n, u)| (n.as_str(), *u)).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            correct: true,
            attempted: 4,
            failed: 0,
            ..Report::default()
        };
        r.set("a", 1.5);
        assert_eq!(
            r.json(&[("a", "s")]).unwrap(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        assert!(r.json(&[("b", "s")]).is_err());
        r.set("a", f64::NAN);
        assert!(r.json(&[("a", "s")]).is_err());
    }
}
