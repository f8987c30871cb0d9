//! The two kinds of run: the timed run (tracing off, end-to-end metrics)
//! and the traced run (spans on, per-layer metrics and attribution).

use std::time::{Duration, Instant};

use harness::ExperimentId;
use workloads::{ClusterBenchmark, LoadBackend, OltpBenchmark};

use crate::check::{self, Passes};
use crate::metrics::{Report, FIG16_ZIPF_FRAC, SPAN_KINDS};
use crate::micro::{self, Micro};
use crate::passes::{self, SerialPass, Tally};
use crate::stamp::{nproc, Stamp};
use crate::trace::Tracer;
use crate::workload::{family, Plan, Workload, SWEEP_FAMILIES};
use crate::{median, median_secs, peak_rss_mb, reset_peak_rss, sum_of_minima, Args};

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Calls `round` for `seconds`: at least once, and not again once the
/// longest round so far would end past the deadline, so a run measures
/// for about `seconds` and never overshoots by a whole round.
fn rounds(seconds: f64, mut round: impl FnMut()) {
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    loop {
        let t = Instant::now();
        round();
        longest = longest.max(t.elapsed());
        if (start.elapsed() + longest).as_secs_f64() > seconds {
            break;
        }
    }
}

/// The text a run prints before its result line, and the report.
#[derive(Debug)]
pub struct Output {
    /// Human-readable lines: provenance, digests, tables.
    pub lines: Vec<String>,
    /// The measured report.
    pub report: Report,
    /// The run's provenance.
    pub stamp: Stamp,
    /// The traced run's span recorder (`None` for a timed run).
    pub tracer: Option<Tracer>,
}

fn judge(plan: &Plan, passes: &Passes, seed: u64, report: &mut Report) -> Vec<String> {
    let judgement = check::judge(plan, passes, seed);
    let verdicts = &judgement.verdicts;
    let (attempted, failed) = check::count(plan, verdicts, passes.len());
    report.attempted = attempted;
    report.failed = failed;
    report.correct = failed == 0;
    let mut whole = 0xcbf2_9ce4_8422_2325u64;
    let mut lines: Vec<String> = plan
        .experiments
        .iter()
        .zip(verdicts)
        .enumerate()
        .map(|(i, (x, v))| {
            let digest = passes.digests[0][i].unwrap_or(0);
            whole = (whole ^ digest).wrapping_mul(0x0000_0100_0000_01b3);
            format!(
                "digest {} {digest:016x} {}",
                x.id.slug(),
                v.as_deref().unwrap_or("ok")
            )
        })
        .collect();
    for (i, id) in &judgement.uncounted {
        lines.push(format!(
            "note: {id} does not hold on {} at seed {seed} (findings count only at the golden seeds)",
            plan.experiments[*i].id.slug()
        ));
    }
    report.set(
        "check.findings_not_holding",
        judgement.uncounted.len() as f64,
    );
    lines.push(format!(
        "digest {} {whole:016x} ({} passes, {attempted} cells attempted, {failed} failed)",
        plan.workload.name(),
        passes.len()
    ));
    lines
}

/// The timed run: `SETUPS` set-ups, then rounds of one serial and one
/// parallel pass for `args.seconds`.
pub fn timed(args: &Args, started: Instant) -> Output {
    let mut off = Tracer::new(false);
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut setup = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        setup = Some(passes::set_up(args.workload, args.seed, &mut off));
        // The first set-up counts from process start.
        setup_times.push(if k == 0 {
            started.elapsed()
        } else {
            t.elapsed()
        });
    }
    let plan = setup.expect("at least one set-up");
    let workers = nproc();

    let (mut serial_walls, mut parallel_walls) = (Vec::new(), Vec::new());
    let mut figures = Passes::default();
    // Per pass: each cell's seconds then the merge seconds (serial), and
    // each experiment's executor seconds (parallel).
    let (mut serial_items, mut parallel_items) = (Vec::new(), Vec::new());
    let mut tally = None;
    let mut round_peaks = Vec::new();
    rounds(args.seconds, || {
        // Each round's own peak: which allocator arenas the worker
        // threads end up holding varies from run to run, and a process-wide
        // peak would keep the rare rounds where it comes out high. Where
        // the reset is refused, a round reads the process peak so far.
        let _ = reset_peak_rss();
        let s = passes::serial(&plan, &mut off);
        serial_walls.push(s.wall);
        let mut items: Vec<f64> = s
            .cell_times
            .iter()
            .flatten()
            .map(Duration::as_secs_f64)
            .collect();
        items.push(s.merge.as_secs_f64());
        serial_items.push(items);
        tally.get_or_insert(s.tally);
        figures.push(s.figures);
        let p = passes::parallel(&plan, workers, &mut off);
        parallel_walls.push(p.wall);
        parallel_items.push(p.walls.iter().map(Duration::as_secs_f64).collect());
        figures.push(p.figures);
        round_peaks.push(peak_rss_mb());
    });
    let tally = tally.expect("at least one serial pass");

    let mut report = Report::default();
    let mut lines = judge(&plan, &figures, args.seed, &mut report);
    // Pass times are estimated as sums of per-cell (serial) and
    // per-experiment (parallel) minima across the passes.
    let wall_s = sum_of_minima(&serial_items);
    report.set("wall_s", wall_s);
    report.set("wall_par_s", sum_of_minima(&parallel_items));
    report.set("sim_req_per_s", tally.requests() as f64 / wall_s);
    report.set("setup_s", median_secs(&setup_times));
    report.set("peak_rss_mb", median(&round_peaks));
    let fmt = |v: &[Duration]| {
        v.iter()
            .map(|d| format!("{:.4}", d.as_secs_f64()))
            .collect::<Vec<_>>()
            .join(" ")
    };
    lines.push(format!("pass walls, serial: {}", fmt(&serial_walls)));
    lines.push(format!("pass walls, parallel: {}", fmt(&parallel_walls)));
    lines.push(format!("samples setup_s: {}", fmt(&setup_times)));
    lines.push(format!(
        "samples peak_rss_mb: {}",
        round_peaks
            .iter()
            .map(|m| format!("{m:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    lines.push(format!(
        "simulated requests per serial pass: {}",
        tally.requests()
    ));
    Output {
        lines,
        report,
        stamp: Stamp::collect(args.workload.name(), args.seed, plan.config.quick, workers),
        tracer: None,
    }
}

/// Event-core counters and arrivals of one traced twin point.
#[derive(Debug, Default, Clone, Copy)]
struct Twin {
    pushes: u64,
    pops: u64,
    slot_drains: u64,
    cascades: u64,
    spill_promotions: u64,
    arrivals: u64,
}

/// Every value of `"key": <integer>` in a JSON text.
fn json_u64s(text: &str, key: &str) -> Vec<u64> {
    let pat = format!("\"{key}\": ");
    text.match_indices(&pat)
        .filter_map(|(at, _)| {
            let rest = &text[at + pat.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .collect()
}

/// Runs the simulator's own traced twin of one representative point per
/// open-loop family (`harness::obs::traced_run`) and reads the event-core
/// counters and arrivals off its timeline.
fn twins(workload: Workload, seed: u64, tracer: &mut Tracer) -> Vec<(&'static str, Twin)> {
    if workload != Workload::OpenLoop {
        return Vec::new();
    }
    ["loadgen", "tenancy", "pipeline"]
        .into_iter()
        .filter_map(|fam| {
            let art = tracer.span(
                "twin",
                || fam.into(),
                |_| harness::obs::traced_run(fam, true, seed),
            );
            let timeline = art.ok()?.timeline;
            let one = |k: &str| json_u64s(&timeline, k).first().copied().unwrap_or(0);
            Some((
                fam,
                Twin {
                    pushes: one("pushes"),
                    pops: one("pops"),
                    slot_drains: one("slot_drains"),
                    cascades: one("cascades"),
                    spill_promotions: one("spill_promotions"),
                    arrivals: json_u64s(&timeline, "arrivals").iter().sum(),
                },
            ))
        })
        .collect()
}

/// One row of the implied-time table: a layer operation, how often the
/// workload performs it per pass, and its microbenched cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The layer operation.
    pub layer: &'static str,
    /// Operations per pass.
    pub count: f64,
    /// Median nanoseconds per operation.
    pub ns: f64,
}

impl Row {
    /// The host time the operations imply, in seconds.
    pub fn implied_s(&self) -> f64 {
        self.count * self.ns / 1e9
    }
}

/// Expected Zipf draws of one pass's cluster arrivals: only the hot-set
/// share of arrivals draws a Zipf rank.
fn cluster_zipf_calls(tally: &Tally) -> f64 {
    let hot = |b: ClusterBenchmark| b.hot_fraction;
    tally.issued("cluster") as f64 * hot(ClusterBenchmark::quick(LoadBackend::Memcached))
        + tally.issued("failover") as f64
            * hot(ClusterBenchmark::failover_quick(LoadBackend::Memcached))
}

/// The layer operations of one pass of `plan`, counted from its config
/// and its cells' outputs, priced by the microbenches.
fn attribution(plan: &Plan, tally: &Tally, micro: &Micro, twins: &[(&str, Twin)]) -> Vec<Row> {
    let cells_of =
        |id: ExperimentId| plan.index_of(id).map_or(0, |i| plan.experiments[i].cells()) as f64;
    let ycsb_ops = tally.issued("ycsb") as f64;
    let ycsb_loads =
        cells_of(ExperimentId::Fig16Memcached) * workloads::YcsbBenchmark::quick().records as f64;
    let oltp = OltpBenchmark::quick();
    let txns = cells_of(ExperimentId::Fig17Mysql)
        * (oltp.thread_counts.len() * oltp.sampled_transactions) as f64;
    // Events per request of each open-loop family, from its traced twin.
    let events: f64 = twins
        .iter()
        .map(|(fam, t)| tally.issued(fam) as f64 * t.pops as f64 / t.arrivals.max(1) as f64)
        .sum();
    let open = |f: fn(&passes::Requests) -> u64| -> f64 {
        ["loadgen", "tenancy", "pipeline"]
            .iter()
            .filter_map(|fam| tally.families.get(fam))
            .map(|r| f(r) as f64)
            .sum()
    };
    let zipf = cluster_zipf_calls(tally);
    let rows = [
        ("platforms.build", plan.cells() as f64, "platforms.build_ns"),
        (
            "simcore.rng.zipf.n2000",
            ycsb_ops,
            "simcore.rng.zipf_ns.n2000",
        ),
        ("simcore.rng.zipf.n16", zipf, "simcore.rng.zipf_ns.n16"),
        ("kvstore.store.get", ycsb_ops / 2.0, "kvstore.store.get_ns"),
        (
            "kvstore.store.set",
            ycsb_loads + ycsb_ops / 2.0,
            "kvstore.store.set_ns",
        ),
        ("relstore.txn", txns, "relstore.txn_ns"),
        (
            "simcore.simulation.event",
            events,
            "simcore.simulation.event_ns",
        ),
        (
            "workloads.slot_pool.offer",
            open(|r| r.issued),
            "workloads.slot_pool.offer_ns",
        ),
        (
            "workloads.slot_pool.finish",
            open(|r| r.completed),
            "workloads.slot_pool.finish_ns",
        ),
        (
            "simcore.completion_timer.op",
            open(|r| r.completed),
            "simcore.completion_timer.op_ns",
        ),
        (
            "simcore.sharded_cores.event",
            tally.cluster_events as f64,
            "simcore.sharded_cores.event_ns.l1",
        ),
    ];
    rows.into_iter()
        .filter(|(_, count, _)| *count > 0.0)
        .map(|(layer, count, bench)| Row {
            layer,
            count,
            ns: micro.ns(bench),
        })
        .collect()
}

/// `num / den × scale`, or 0 when there is nothing to divide by (a
/// family the workload does not run).
fn ratio(num: f64, den: f64, scale: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den * scale
    }
}

/// The traced run: one traced set-up, then rounds of an untraced and a
/// traced serial pass for `args.seconds`, one traced parallel
/// pass, the layer microbenches and the traced twins.
pub fn traced(args: &Args) -> Output {
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    let plan = passes::set_up(args.workload, args.seed, &mut tracer);
    let workers = nproc();

    let (mut untraced, mut traced): (Vec<Duration>, Vec<SerialPass>) = (Vec::new(), Vec::new());
    let mut figures = Passes::default();
    rounds(args.seconds, || {
        let u = passes::serial(&plan, &mut off);
        untraced.push(u.wall);
        figures.push(u.figures);
        let mut t = passes::serial(&plan, &mut tracer);
        figures.push(std::mem::take(&mut t.figures));
        traced.push(t);
    });
    let par = passes::parallel(&plan, workers, &mut tracer);
    figures.push(par.figures.clone());
    let micro = micro::run_all(args.seed, &mut tracer);
    let twins = twins(args.workload, args.seed, &mut tracer);

    let mut report = Report::default();
    let mut lines = judge(&plan, &figures, args.seed, &mut report);
    let tally = &traced[0].tally;

    // harness: per-experiment cell time (median over traced passes).
    let mut cell_s = vec![0.0; plan.experiments.len()];
    for (i, slot) in cell_s.iter_mut().enumerate() {
        let per_pass: Vec<f64> = traced
            .iter()
            .map(|p| p.cell_times[i].iter().map(Duration::as_secs_f64).sum())
            .collect();
        *slot = median(&per_pass);
    }
    for e in ExperimentId::all() {
        let v = plan.index_of(*e).map_or(0.0, |i| cell_s[i]);
        report.set(format!("cell_s.{}", e.slug()), v);
    }
    let cell_max = traced[0]
        .cell_times
        .iter()
        .flatten()
        .max()
        .copied()
        .unwrap_or_default();
    report.set("harness.grid.cell_ms_max", cell_max.as_secs_f64() * 1e3);
    let merges: Vec<Duration> = traced.iter().map(|p| p.merge).collect();
    report.set("harness.grid.merge_ms", median_secs(&merges) * 1e3);
    report.set("harness.executor.idle_frac", par.idle_frac());

    // Microbenched per-operation costs.
    for (name, s) in &micro.results {
        match *name {
            "platforms.build_ns" => report.set("platforms.build_us", s.median_ns / 1e3),
            "relstore.txn_ns" => report.set("relstore.txn_us", s.median_ns / 1e3),
            _ => report.set(*name, s.median_ns),
        }
    }
    report.set("platforms.builds", plan.cells() as f64);
    report.set("relstore.lock_waits", micro.lock_waits as f64);

    // Counts from the cells' outputs.
    report.set(
        "simcore.rng.zipf_calls",
        tally.issued("ycsb") as f64 + cluster_zipf_calls(tally),
    );
    let sum_twins = |f: fn(&Twin) -> u64| twins.iter().map(|(_, t)| f(t)).sum::<u64>() as f64;
    let cluster = plan.workload == Workload::Cluster;
    let events = tally.cluster_events as f64;
    report.set(
        "simcore.core.pushes",
        if cluster {
            events
        } else {
            sum_twins(|t| t.pushes)
        },
    );
    report.set(
        "simcore.core.pops",
        if cluster {
            events
        } else {
            sum_twins(|t| t.pops)
        },
    );
    report.set("simcore.core.slot_drains", sum_twins(|t| t.slot_drains));
    report.set("simcore.core.cascades", sum_twins(|t| t.cascades));
    report.set(
        "simcore.core.spill_promotions",
        sum_twins(|t| t.spill_promotions),
    );
    let family_cell_s = |fam: &str| -> f64 {
        plan.experiments
            .iter()
            .zip(&cell_s)
            .filter(|(x, _)| family(x.id) == Some(fam))
            .map(|(_, s)| s)
            .sum()
    };
    for fam in SWEEP_FAMILIES {
        let v = ratio(family_cell_s(fam), tally.issued(fam) as f64, 1e9);
        report.set(format!("workloads.{fam}.ns_per_req"), v);
    }
    let ycsb = tally.issued("ycsb") as f64;
    report.set(
        "workloads.ycsb.us_per_op",
        ratio(family_cell_s("ycsb"), ycsb, 1e6),
    );
    let oltp_cells = plan
        .index_of(ExperimentId::Fig17Mysql)
        .map_or(0, |i| plan.experiments[i].cells());
    report.set(
        "workloads.oltp.ms_per_trial",
        ratio(family_cell_s("oltp"), oltp_cells as f64, 1e3),
    );
    let total =
        |f: fn(&passes::Requests) -> u64| tally.families.values().map(f).sum::<u64>() as f64;
    report.set("workloads.issued", total(|r| r.issued));
    report.set("workloads.completed", total(|r| r.completed));
    report.set("workloads.dropped", total(|r| r.dropped));
    report.set(
        "workloads.pipeline.cache_hit_ratio",
        ratio(tally.cache_hit_weight, tally.issued("pipeline") as f64, 1.0),
    );
    report.set("workloads.cluster.handoffs", tally.handoffs as f64);
    report.set("kvstore.evictions", tally.store_evictions as f64);

    // obs: tracing overhead on the same pass, and the span census.
    let traced_walls: Vec<Duration> = traced.iter().map(|p| p.wall).collect();
    report.set(
        "obs.overhead_frac",
        median_secs(&traced_walls) / median_secs(&untraced) - 1.0,
    );
    let counts = tracer.counts_by_kind();
    for kind in SPAN_KINDS {
        report.set(
            format!("obs.spans.{kind}"),
            counts.get(kind).copied().unwrap_or(0) as f64,
        );
    }

    // Attribution of the measured cell time.
    let rows = attribution(&plan, tally, &micro, &twins);
    let measured: f64 = cell_s.iter().sum();
    let explained: f64 = rows.iter().map(Row::implied_s).sum();
    report.set("attr.explained_frac", explained / measured);
    report.set("attr.residual_s", measured - explained);
    // Only fig. 16 draws Zipf ranks over 2000 records.
    let fig16_s = plan
        .index_of(ExperimentId::Fig16Memcached)
        .map_or(0.0, |i| cell_s[i]);
    let fig16_zipf = rows
        .iter()
        .find(|r| r.layer == "simcore.rng.zipf.n2000")
        .map_or(0.0, Row::implied_s);
    let fig16 = ratio(fig16_zipf, fig16_s, 1.0);
    report.set(FIG16_ZIPF_FRAC.0, fig16);

    lines.push(format!(
        "implied time per serial pass, {} (measured cell time {measured:.4} s):",
        plan.workload.name()
    ));
    lines.push(format!(
        "  {:<30} {:>14} {:>12} {:>11} {:>8}",
        "layer", "count", "ns/op", "implied s", "share"
    ));
    for r in &rows {
        lines.push(format!(
            "  {:<30} {:>14.0} {:>12.1} {:>11.4} {:>7.1}%",
            r.layer,
            r.count,
            r.ns,
            r.implied_s(),
            100.0 * r.implied_s() / measured
        ));
    }
    lines.push(format!(
        "  {:<30} {:>14} {:>12} {:>11.4} {:>7.1}%",
        "residual (unexplained)",
        "",
        "",
        measured - explained,
        100.0 * (measured - explained) / measured
    ));
    if fig16_s > 0.0 {
        lines.push(format!(
            "  fig16_memcached: zipf explains {:.1}% of its {fig16_s:.4} s",
            100.0 * fig16
        ));
    }
    for (name, s) in &micro.results {
        lines.push(format!(
            "micro {name}: median {:.2} ns/op (p10 {:.2}, p90 {:.2}, {} samples)",
            s.median_ns, s.p10_ns, s.p90_ns, s.samples
        ));
    }
    Output {
        lines,
        report,
        stamp: Stamp::collect(args.workload.name(), args.seed, plan.config.quick, workers),
        tracer: Some(tracer),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_run_at_least_once_and_stop_before_the_deadline() {
        let mut n = 0;
        rounds(0.0, || n += 1);
        assert_eq!(n, 1);
        let start = Instant::now();
        rounds(0.05, || std::thread::sleep(Duration::from_millis(20)));
        assert!(start.elapsed() < Duration::from_millis(70));
    }

    #[test]
    fn json_integers_are_read_by_key() {
        let text = "{\"core\": {\"pushes\": 12, \"pops\": 3}, \"a\": [{\"arrivals\": 4}, {\"arrivals\": 5}]}";
        assert_eq!(json_u64s(text, "pushes"), vec![12]);
        assert_eq!(json_u64s(text, "arrivals"), vec![4, 5]);
        assert!(json_u64s(text, "cascades").is_empty());
    }
}
