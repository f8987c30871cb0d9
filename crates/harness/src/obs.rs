//! Traced bench runs: the glue between the deterministic recorder in
//! [`simcore::obs`] and the bench binaries' `--trace` flag.
//!
//! [`traced_run`] drives one representative sweep point of the selected
//! workload with a span recorder attached and returns both export
//! artifacts: the Chrome trace-event JSON (`TRACE_<target>.json`, for
//! `chrome://tracing` / Perfetto) and the windowed-metrics timeline
//! (`BENCH_trace.json`, schema `isolation-bench/obs/v1`). Everything is
//! derived from the root seed — the recorder's sampling seed included —
//! so the artifacts are byte-identical across runs, executor worker
//! counts and cluster core-lane counts.

use platforms::PlatformId;
use simcore::error::SimError;
use simcore::obs::{ObsConfig, Recorder};
use simcore::rng;
use workloads::cluster::{ClusterBenchmark, ClusterSetting};
use workloads::loadgen::LoadgenBenchmark;
use workloads::pipeline::{PipelineBenchmark, PipelineSetting, BASELINE_HIT_RATE};
use workloads::tenancy::TenancyBenchmark;
use workloads::{LoadBackend, SlotPolicy};

/// Span sample rate of the bench binaries' traced runs: high enough
/// that every span kind shows up in a quick sweep, low enough that the
/// ring retains the whole window without overwrites.
pub const TRACE_SAMPLE_RATE: f64 = 0.25;

/// The artifacts of one traced sweep point.
#[derive(Debug, Clone)]
pub struct TraceArtifacts {
    /// Chrome trace-event JSON (load in `chrome://tracing` / Perfetto).
    pub chrome: String,
    /// Timeline artifact (schema `isolation-bench/obs/v1`).
    pub timeline: String,
    /// Spans accepted by the recorder, overwritten ones included.
    pub spans_accepted: u64,
}

/// Builds the recorder a traced `target` run uses: sampling seed derived
/// statelessly from the root seed and target label, at
/// [`TRACE_SAMPLE_RATE`].
///
/// # Errors
///
/// Never fails for the constants used here; propagates
/// [`SimError::InvalidConfig`] defensively.
pub fn recorder_for(target: &str, seed: u64) -> Result<Recorder, SimError> {
    Recorder::try_new(ObsConfig::new(
        rng::derive_seed(seed, "obs", target, 0),
        TRACE_SAMPLE_RATE,
    ))
}

/// Runs one traced quick-or-full sweep point of `target` (`"pipeline"`,
/// `"cluster"`, `"tenancy"` or `"loadgen"`) on the Docker platform model
/// and exports both artifacts.
///
/// The pipeline target traces the depth-4 baseline chain (admission
/// wait, per-stage in/out phases, cache hits and misses, short-circuits,
/// slot service); the cluster target traces the 16-shard
/// rebalance-under-churn point (per-shard routing, hand-offs at the
/// reshard boundary, admission and service); the tenancy target traces
/// the victim/bursty-aggressor co-location under DRR at an 0.8
/// aggressor fraction (one lane per tenant); the loadgen target traces
/// the open-loop sweep's 0.8-fraction point. Cluster timelines carry no
/// event-core counter block: those counters are wheel-topology-local and
/// would break byte-identity across core-lane counts.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for an unknown target or a
/// degenerate benchmark configuration.
pub fn traced_run(target: &str, quick: bool, seed: u64) -> Result<TraceArtifacts, SimError> {
    let platform = PlatformId::Docker.build();
    let mut run_rng = rng::derive(seed, "trace", target, 0);
    let recorder = recorder_for(target, seed)?;
    let recorder = match target {
        "pipeline" => {
            let bench = if quick {
                PipelineBenchmark::quick(LoadBackend::Memcached)
            } else {
                PipelineBenchmark::new(LoadBackend::Memcached)
            };
            let setting = PipelineSetting::new(4, BASELINE_HIT_RATE);
            bench
                .run_setting(&platform, &setting, &mut run_rng, Some(recorder))?
                .1
        }
        "cluster" => {
            let bench = if quick {
                ClusterBenchmark::quick(LoadBackend::Memcached)
            } else {
                ClusterBenchmark::new(LoadBackend::Memcached)
            };
            let setting = ClusterSetting::rebalance(16);
            bench
                .run_setting(&platform, &setting, &mut run_rng, Some(recorder))?
                .1
        }
        "tenancy" => {
            let bench = if quick {
                TenancyBenchmark::quick(LoadBackend::Memcached)
            } else {
                TenancyBenchmark::new(LoadBackend::Memcached)
            };
            let mut aggressor = bench.aggressor.clone();
            aggressor.offered_fraction = 0.8;
            let tenants = [bench.victim.clone(), aggressor];
            bench
                .run_colocated(
                    &platform,
                    &tenants,
                    SlotPolicy::WeightedDrr,
                    &mut run_rng,
                    Some(recorder),
                )?
                .1
        }
        "loadgen" => {
            let bench = if quick {
                LoadgenBenchmark::quick(LoadBackend::Memcached)
            } else {
                LoadgenBenchmark::new(LoadBackend::Memcached)
            };
            bench
                .run_point(&platform, 0.8, &mut run_rng, Some(recorder))?
                .1
        }
        other => {
            return Err(SimError::InvalidConfig(format!(
                "no traced run for target {other:?} (expected \"pipeline\", \"cluster\", \"tenancy\" or \"loadgen\")"
            )))
        }
    };
    let recorder = recorder.expect("a traced run returns its recorder");
    Ok(TraceArtifacts {
        chrome: recorder.chrome_trace_json(target),
        timeline: recorder.timeline_json(target, seed),
        spans_accepted: recorder.spans_accepted(),
    })
}

/// The written-to-disk outcome of one bench binary's `--trace` pass.
#[derive(Debug, Clone)]
pub struct TraceEmit {
    /// Path of the Chrome trace-event artifact (`TRACE_<target>.json`).
    pub chrome_path: String,
    /// Path of the timeline artifact (`BENCH_trace_<target>.json`).
    pub timeline_path: String,
    /// Spans accepted by the recorder, overwritten ones included.
    pub spans_accepted: u64,
    /// A non-finite token found in the timeline, if any — the caller
    /// turns this into a bench failure.
    pub non_finite: Option<&'static str>,
}

/// The shared `--trace` pass of the bench binaries: runs the traced
/// sweep point of `target` and writes `TRACE_<target>.json` (Chrome
/// trace events) and `BENCH_trace_<target>.json` (the windowed-metrics
/// timeline) into the working directory.
///
/// # Panics
///
/// Panics if the traced run fails or either artifact cannot be written —
/// a bench binary asked to trace must not silently skip it.
pub fn emit_trace_artifacts(target: &str, quick: bool, seed: u64) -> TraceEmit {
    let trace = traced_run(target, quick, seed)
        .unwrap_or_else(|e| panic!("traced {target} run failed: {e:?}"));
    let chrome_path = format!("TRACE_{target}.json");
    let timeline_path = format!("BENCH_trace_{target}.json");
    std::fs::write(&chrome_path, &trace.chrome)
        .unwrap_or_else(|e| panic!("cannot write {chrome_path}: {e}"));
    std::fs::write(&timeline_path, &trace.timeline)
        .unwrap_or_else(|e| panic!("cannot write {timeline_path}: {e}"));
    TraceEmit {
        chrome_path,
        timeline_path,
        spans_accepted: trace.spans_accepted,
        non_finite: crate::report::find_non_finite(&trace.timeline),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_runs_are_reproducible_and_cover_every_target() {
        for target in ["pipeline", "cluster", "tenancy", "loadgen"] {
            let a = traced_run(target, true, 2021).unwrap();
            let b = traced_run(target, true, 2021).unwrap();
            assert_eq!(a.chrome, b.chrome, "{target}");
            assert_eq!(a.timeline, b.timeline, "{target}");
            assert!(a.spans_accepted > 0, "{target}");
            assert!(a
                .timeline
                .contains("\"schema\": \"isolation-bench/obs/v1\""));
            assert!(a.chrome.contains("\"traceEvents\""));
        }
    }

    #[test]
    fn unknown_targets_are_rejected() {
        assert!(traced_run("no-such", true, 1).is_err());
    }
}
