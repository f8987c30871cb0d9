//! Acceptance tests of the middleware-pipeline subsystem: the merged
//! figures' shape, the depth-monotone latency response, short-circuit
//! behaviour under a swept rejection rate, the full-hit-cache reduction
//! to a constant-cost chain, and bit-identical results across executor
//! worker counts.

mod common;

use std::sync::OnceLock;

use isolation_bench::harness::grid;
use isolation_bench::harness::Series;
use isolation_bench::prelude::*;
use isolation_bench::workloads::pipeline::BASELINE_HIT_RATE;
use isolation_bench::workloads::{LoadBackend, PipelineBenchmark, PipelineSetting};

fn cfg() -> RunConfig {
    RunConfig::quick(2021)
}

const EXPERIMENTS: [ExperimentId; 2] =
    [ExperimentId::PipelineMemcached, ExperimentId::PipelineMysql];

/// Labels of the warm-cache depth sweep, in ascending depth order.
const DEPTH_LABELS: [&str; 5] = ["d1 h0.90", "d2 h0.90", "d4 h0.90", "d6 h0.90", "d8 h0.90"];

/// The serial reference figures, computed once: they are a pure function
/// of the fixed seed, every test in this file reads them, and each must
/// match its golden digest.
fn pipeline_figures() -> &'static Vec<FigureData> {
    static FIGURES: OnceLock<Vec<FigureData>> = OnceLock::new();
    FIGURES.get_or_init(|| {
        EXPERIMENTS
            .iter()
            .map(|e| {
                let fig = figures::run(*e, &cfg());
                common::assert_golden(&fig);
                fig
            })
            .collect()
    })
}

fn platforms_of(fig: &FigureData) -> Vec<String> {
    grid::platforms_of(fig, grid::PIPELINE_STAGE_TAX)
}

fn series<'f>(fig: &'f FigureData, platform: &str, metric: &str) -> &'f Series {
    fig.series_named(&format!("{platform} {metric}"))
        .unwrap_or_else(|| panic!("{:?} lacks {platform} {metric}", fig.experiment))
}

#[test]
fn pipeline_figures_are_bit_identical_for_1_2_and_8_workers() {
    let serial = pipeline_figures();
    let serial_csv: Vec<String> = serial.iter().map(report::to_csv).collect();
    for workers in [1, 2, 8] {
        let run = Executor::new(
            RunPlan::new(cfg())
                .with_shard("pipeline")
                .with_workers(workers),
        )
        .run();
        assert_eq!(&run.figures, serial, "workers={workers}");
        let csv: Vec<String> = run.figures.iter().map(report::to_csv).collect();
        assert_eq!(
            csv, serial_csv,
            "workers={workers} must render identical bytes"
        );
    }
}

#[test]
fn sweeps_cover_every_platform_metric_and_the_storm_point() {
    for fig in pipeline_figures() {
        let platforms = platforms_of(fig);
        assert!(
            platforms.len() >= 3,
            "{:?} covers only {platforms:?}",
            fig.experiment
        );
        assert_eq!(
            fig.series.len(),
            platforms.len() * grid::PIPELINE_METRICS.len()
        );
        for platform in &platforms {
            for metric in grid::PIPELINE_METRICS {
                let s = series(fig, platform, metric);
                assert!(
                    s.points.len() >= 8,
                    "{:?}/{platform} {metric} sweeps only {} points",
                    fig.experiment,
                    s.points.len()
                );
                for label in DEPTH_LABELS {
                    assert!(
                        s.points.iter().any(|p| p.x == label),
                        "{:?}/{platform} {metric} lacks the {label} point",
                        fig.experiment
                    );
                }
                assert!(
                    s.points.iter().any(|p| p.x == "d4 miss-storm"),
                    "{:?}/{platform} {metric} lacks the miss-storm point",
                    fig.experiment
                );
                for p in &s.points {
                    assert!(p.mean.is_finite());
                }
            }
        }
    }
}

#[test]
fn latency_is_monotone_in_chain_depth() {
    // Deeper chains cannot be cheaper at the median: p50 grows along the
    // warm-cache depth sweep, with a small plateau tolerance for
    // queueing noise. The p99 tail is deliberately exempt — a deep chain
    // sums more independent stage costs, which *tightens* the relative
    // tail and can pull absolute p99 down on high-variance platforms —
    // but it must stay above the point's own median everywhere.
    for fig in pipeline_figures() {
        for platform in platforms_of(fig) {
            {
                let s = series(fig, &platform, grid::PIPELINE_P50);
                let depth_means: Vec<f64> = DEPTH_LABELS
                    .iter()
                    .map(|label| {
                        s.mean_of(label)
                            .unwrap_or_else(|| panic!("p50 lacks {label}"))
                    })
                    .collect();
                let mut last = 0.0f64;
                for (label, mean) in DEPTH_LABELS.iter().zip(&depth_means) {
                    assert!(
                        *mean >= last * 0.95,
                        "{:?}/{platform} p50 regresses at {label}: {mean} after {last}",
                        fig.experiment
                    );
                    last = last.max(*mean);
                }
                assert!(
                    depth_means[DEPTH_LABELS.len() - 1] > depth_means[0],
                    "{:?}/{platform} p50 never grows with depth",
                    fig.experiment
                );
            }
            let p50 = series(fig, &platform, grid::PIPELINE_P50);
            let p99 = series(fig, &platform, grid::PIPELINE_P99);
            for (a, b) in p50.points.iter().zip(&p99.points) {
                assert!(
                    b.mean >= a.mean,
                    "{:?}/{platform} p99 {} undercuts p50 {} at {}",
                    fig.experiment,
                    b.mean,
                    a.mean,
                    a.x
                );
            }
            // The stage tax is strictly monotone in depth: it is the
            // chain cost itself, not a queueing-noisy percentile.
            let tax = series(fig, &platform, grid::PIPELINE_STAGE_TAX);
            let taxes: Vec<f64> = DEPTH_LABELS
                .iter()
                .map(|label| tax.mean_of(label).unwrap())
                .collect();
            for pair in taxes.windows(2) {
                assert!(
                    pair[1] > pair[0],
                    "{:?}/{platform} stage tax must grow strictly with depth: {taxes:?}",
                    fig.experiment
                );
            }
        }
    }
}

#[test]
fn fractions_are_probabilities_and_the_storm_runs_cold() {
    for fig in pipeline_figures() {
        for platform in platforms_of(fig) {
            for metric in [
                grid::PIPELINE_SHORT_CIRCUIT,
                grid::PIPELINE_CACHE_HIT,
                grid::PIPELINE_DROP_RATE,
            ] {
                for point in &series(fig, &platform, metric).points {
                    assert!(
                        (0.0..=1.0).contains(&point.mean),
                        "{:?}/{platform} {metric} = {} is not a fraction",
                        fig.experiment,
                        point.mean
                    );
                }
            }
            let hits = series(fig, &platform, grid::PIPELINE_CACHE_HIT);
            assert!(
                hits.mean_of("d4 miss-storm").unwrap() < 0.01,
                "{:?}/{platform}: the miss storm must run a cold cache",
                fig.experiment
            );
            assert!(
                hits.mean_of("d4 h0.90").unwrap() > 0.5,
                "{:?}/{platform}: the warm point must mostly hit",
                fig.experiment
            );
        }
    }
}

#[test]
fn short_circuit_fraction_is_monotone_in_the_configured_rate() {
    // Common random numbers couple the rejection draws across runs: the
    // requests rejected at a lower rate are a subset of those rejected at
    // a higher one, so the measured fraction is monotone in the
    // configured rate — not merely in expectation.
    let platform = PlatformId::Docker.build();
    let mut last = -1.0f64;
    for rate in [0.0, 0.05, 0.15, 0.3] {
        let bench = PipelineBenchmark {
            clients: 64,
            requests_per_point: 800,
            runs: 1,
            auth_reject_rate: rate,
            sweep: vec![PipelineSetting::new(3, BASELINE_HIT_RATE)],
            ..PipelineBenchmark::quick(LoadBackend::Memcached)
        };
        let point = &bench
            .run_trial(&platform, &mut SimRng::seed_from(2021))
            .unwrap()[0];
        assert!((0.0..=1.0).contains(&point.short_circuit_fraction));
        assert!(
            point.short_circuit_fraction >= last,
            "fraction {} at rate {rate} undercuts {last}",
            point.short_circuit_fraction
        );
        if rate == 0.0 {
            assert_eq!(point.short_circuit_fraction, 0.0);
        }
        last = point.short_circuit_fraction;
    }
    assert!(
        last > 0.2,
        "a 30% rejection rate must visibly short-circuit"
    );
}

#[test]
fn a_full_hit_cache_reduces_to_a_depth_equivalent_constant_cost_chain() {
    // Sim-level reduction: an auth cache that always hits is
    // indistinguishable from one whose miss penalty equals its hit cost
    // (at any hit rate) — with warmup disabled both charge exactly the
    // hit cost on every access, so every timing and throughput figure
    // matches bit for bit, at every depth of the sweep.
    let base = PipelineBenchmark {
        clients: 64,
        requests_per_point: 800,
        runs: 1,
        cache_warm_after: 0,
        sweep: vec![
            PipelineSetting::new(1, 1.0),
            PipelineSetting::new(4, 1.0),
            PipelineSetting::new(8, 1.0),
        ],
        ..PipelineBenchmark::quick(LoadBackend::Memcached)
    };
    let full_hit = base.clone();
    let flat_cost = PipelineBenchmark {
        // Any hit rate: hit and miss now charge the same latency.
        cache_miss_frac: base.cache_hit_frac,
        sweep: base
            .sweep
            .iter()
            .map(|s| PipelineSetting::new(s.depth, BASELINE_HIT_RATE))
            .collect(),
        ..base
    };
    let platform = PlatformId::Native.build();
    let a = full_hit
        .run_trial(&platform, &mut SimRng::seed_from(2021))
        .unwrap();
    let b = flat_cost
        .run_trial(&platform, &mut SimRng::seed_from(2021))
        .unwrap();
    for (p, q) in a.iter().zip(&b) {
        assert_eq!(p.depth, q.depth);
        assert_eq!(p.offered_per_sec, q.offered_per_sec, "d{}", p.depth);
        assert_eq!(p.achieved_per_sec, q.achieved_per_sec, "d{}", p.depth);
        assert_eq!(p.p50_us, q.p50_us, "d{}", p.depth);
        assert_eq!(p.p95_us, q.p95_us, "d{}", p.depth);
        assert_eq!(p.p99_us, q.p99_us, "d{}", p.depth);
        assert_eq!(p.mean_us, q.mean_us, "d{}", p.depth);
        assert_eq!(p.stage_tax_us, q.stage_tax_us, "d{}", p.depth);
        assert_eq!(p.completed, q.completed, "d{}", p.depth);
        assert_eq!(p.dropped, q.dropped, "d{}", p.depth);
        assert_eq!(p.cache_hit_fraction, 1.0, "a full-hit cache never misses");
    }
}
