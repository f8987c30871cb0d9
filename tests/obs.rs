//! The observability layer's facade-level guarantees: trace artifacts
//! are a pure function of the root seed — byte-identical across runs,
//! executor worker counts, and cluster core-lane counts — and a
//! zero-rate recorder records nothing at all.

use isolation_bench::harness::obs::{recorder_for, traced_run};
use isolation_bench::prelude::*;
use isolation_bench::simcore::obs::{ObsConfig, Recorder, Span};
use isolation_bench::simcore::rng;
use isolation_bench::workloads::cluster::{ClusterBenchmark, ClusterSetting};
use isolation_bench::workloads::loadgen::LoadgenBenchmark;
use isolation_bench::workloads::LoadBackend;

const SEED: u64 = 2021;

fn small() -> RunConfig {
    RunConfig {
        seed: SEED,
        runs: 2,
        startups: 24,
        quick: true,
    }
}

#[test]
fn trace_artifacts_are_byte_identical_across_executor_worker_counts() {
    // The recorder draws nothing from ambient state: running the figure
    // grid through the executor at any worker count leaves the traced
    // artifacts (and the figures themselves) byte-identical.
    let reference = traced_run("pipeline", true, SEED).unwrap();
    let serial = Executor::new(RunPlan::new(small()).with_shard("boot").with_workers(1)).run();
    for workers in [2, 8] {
        let run = Executor::new(
            RunPlan::new(small())
                .with_shard("boot")
                .with_workers(workers),
        )
        .run();
        assert_eq!(run.figures, serial.figures, "workers={workers}");
        let traced = traced_run("pipeline", true, SEED).unwrap();
        assert_eq!(traced.chrome, reference.chrome, "workers={workers}");
        assert_eq!(traced.timeline, reference.timeline, "workers={workers}");
    }
    assert!(reference.spans_accepted > 0);
}

#[test]
fn cluster_trace_is_byte_identical_across_core_lane_counts() {
    let platform = PlatformId::Docker.build();
    let setting = ClusterSetting::rebalance(16);
    let mut artifacts = Vec::new();
    for cores in [1_usize, 2, 4, 8] {
        let mut bench = ClusterBenchmark::quick(LoadBackend::Memcached);
        bench.shard_cores = cores;
        let mut run_rng = rng::derive(SEED, "trace", "cluster", 0);
        let recorder = recorder_for("cluster", SEED).unwrap();
        let (point, obs) = bench
            .run_setting(&platform, &setting, &mut run_rng, Some(recorder))
            .unwrap();
        let obs = obs.expect("the recorder threads through the run");
        artifacts.push((
            point,
            obs.chrome_trace_json("cluster"),
            obs.timeline_json("cluster", SEED),
        ));
    }
    let (reference_point, reference_chrome, reference_timeline) = &artifacts[0];
    for (i, (point, chrome, timeline)) in artifacts.iter().enumerate().skip(1) {
        let cores = [1, 2, 4, 8][i];
        assert_eq!(point, reference_point, "cores={cores}");
        assert_eq!(chrome, reference_chrome, "cores={cores}");
        assert_eq!(timeline, reference_timeline, "cores={cores}");
    }
    assert!(reference_chrome.contains("\"route\""));
    assert!(reference_timeline.contains("isolation-bench/obs/v1"));
}

#[test]
fn the_sampled_span_set_is_identical_across_runs() {
    let spans = |seed: u64| -> Vec<Span> {
        let platform = PlatformId::Docker.build();
        let bench = LoadgenBenchmark::quick(LoadBackend::Memcached);
        let mut run_rng = SimRng::seed_from(seed);
        let recorder = Recorder::try_new(ObsConfig::new(
            rng::derive_seed(seed, "obs", "loadgen", 0),
            0.25,
        ))
        .unwrap();
        let (_, obs) = bench
            .run_point(&platform, 0.8, &mut run_rng, Some(recorder))
            .unwrap();
        obs.expect("the recorder threads through the run").spans()
    };
    let first = spans(SEED);
    assert!(!first.is_empty());
    assert_eq!(first, spans(SEED), "same seed, same sampled span set");
    assert_ne!(first, spans(SEED + 1), "the sample is seed-derived");
}

#[test]
fn a_zero_sample_rate_run_records_no_spans() {
    let platform = PlatformId::Docker.build();
    let bench = LoadgenBenchmark::quick(LoadBackend::Memcached);
    let recorder = Recorder::try_new(ObsConfig::new(SEED, 0.0)).unwrap();
    let mut traced_rng = SimRng::seed_from(SEED);
    let (traced_point, obs) = bench
        .run_point(&platform, 0.8, &mut traced_rng, Some(recorder))
        .unwrap();
    let obs = obs.expect("the recorder threads through the run");
    assert_eq!(obs.spans_accepted(), 0);
    assert!(obs.spans().is_empty());
    assert!(!obs.chrome_trace_json("loadgen").contains("slot-service"));
    // Tracing at rate zero is still observation only.
    let mut plain_rng = SimRng::seed_from(SEED);
    let (plain_point, _) = bench
        .run_point(&platform, 0.8, &mut plain_rng, None)
        .unwrap();
    assert_eq!(traced_point, plain_point);
}
