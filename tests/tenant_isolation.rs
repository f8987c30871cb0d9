//! Acceptance tests of the multi-tenant co-location subsystem: the merged
//! figures' shape, the victim's monotone latency response to aggressor
//! load, the weighted-vs-FIFO isolation guarantee, and bit-identical
//! results across executor worker counts.

mod common;

use std::sync::OnceLock;

use isolation_bench::harness::grid;
use isolation_bench::harness::Series;
use isolation_bench::prelude::*;

fn cfg() -> RunConfig {
    RunConfig::quick(2021)
}

const EXPERIMENTS: [ExperimentId; 2] = [
    ExperimentId::TenantIsolationMemcached,
    ExperimentId::TenantIsolationMysql,
];

/// The serial reference figures, computed once: they are a pure function
/// of the fixed seed, every test in this file reads them, and each must
/// match its golden digest.
fn tenant_figures() -> &'static Vec<FigureData> {
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
    grid::platforms_of(fig, grid::TENANT_VICTIM_P99)
}

fn series<'f>(fig: &'f FigureData, platform: &str, metric: &str) -> &'f Series {
    fig.series_named(&format!("{platform} {metric}"))
        .unwrap_or_else(|| panic!("{:?} lacks {platform} {metric}", fig.experiment))
}

#[test]
fn tenant_figures_are_bit_identical_for_1_2_and_8_workers() {
    let serial = tenant_figures();
    let serial_csv: Vec<String> = serial.iter().map(report::to_csv).collect();
    for workers in [1, 2, 8] {
        let run = Executor::new(
            RunPlan::new(cfg())
                .with_shard("tenant_")
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
fn sweeps_cover_every_platform_metric_and_reach_overload() {
    for fig in tenant_figures() {
        let platforms = platforms_of(fig);
        assert!(
            platforms.len() >= 3,
            "{:?} covers only {platforms:?}",
            fig.experiment
        );
        assert_eq!(
            fig.series.len(),
            platforms.len() * grid::TENANT_METRICS.len()
        );
        for platform in &platforms {
            for metric in grid::TENANT_METRICS {
                let s = series(fig, platform, metric);
                assert!(
                    s.points.len() >= 5,
                    "{:?}/{platform} {metric} sweeps only {} points",
                    fig.experiment,
                    s.points.len()
                );
                assert!(
                    s.points.last().unwrap().x_value > 1.0,
                    "the aggressor sweep must reach overload"
                );
                for p in &s.points {
                    assert!(p.mean.is_finite());
                }
            }
        }
    }
}

#[test]
fn victim_latency_is_monotone_in_aggressor_load() {
    // The victim's tail rises with aggressor load and then plateaus once
    // the weighted scheduler caps its exposure; the tolerance absorbs the
    // sub-percent coupling noise of the plateau region.
    for fig in tenant_figures() {
        for platform in platforms_of(fig) {
            for metric in [grid::TENANT_VICTIM_P99, grid::TENANT_VICTIM_FIFO_P99] {
                let s = series(fig, &platform, metric);
                let mut last = 0.0f64;
                for point in &s.points {
                    assert!(
                        point.mean >= last * 0.95,
                        "{:?}/{platform} {metric} regresses at aggressor {}: {} after {last}",
                        fig.experiment,
                        point.x,
                        point.mean
                    );
                    last = last.max(point.mean);
                }
                let first = s.points.first().unwrap().mean;
                let top = s.points.last().unwrap().mean;
                assert!(
                    top > first,
                    "{:?}/{platform} {metric} never inflates ({first} -> {top})",
                    fig.experiment
                );
            }
        }
    }
}

#[test]
fn weighted_slots_never_isolate_worse_than_fifo_sharing() {
    // The acceptance criterion: on every platform, at every sweep point,
    // the victim's p99 inflation over its solo baseline under the weighted
    // scheduler stays at or below its inflation under unweighted FIFO.
    for fig in tenant_figures() {
        for platform in platforms_of(fig) {
            let p99 = series(fig, &platform, grid::TENANT_VICTIM_P99);
            let fifo = series(fig, &platform, grid::TENANT_VICTIM_FIFO_P99);
            let solo = series(fig, &platform, grid::TENANT_VICTIM_SOLO_P99);
            for i in 0..p99.points.len() {
                let baseline = solo.points[i].mean;
                assert!(baseline > 0.0);
                let weighted = p99.points[i].mean / baseline;
                let unweighted = fifo.points[i].mean / baseline;
                assert!(
                    weighted <= unweighted,
                    "{:?}/{platform} at aggressor {}: weighted inflation {weighted:.3} \
                     exceeds FIFO inflation {unweighted:.3}",
                    fig.experiment,
                    p99.points[i].x
                );
            }
            // At overload the weighted scheduler must be strictly better,
            // not merely tied.
            let top_weighted = p99.points.last().unwrap().mean;
            let top_fifo = fifo.points.last().unwrap().mean;
            assert!(
                top_weighted < top_fifo,
                "{:?}/{platform}: weighted {top_weighted} vs fifo {top_fifo} at overload",
                fig.experiment
            );
        }
    }
}

#[test]
fn rates_are_fractions_and_the_isolation_index_is_anchored() {
    for fig in tenant_figures() {
        for platform in platforms_of(fig) {
            for metric in [
                grid::TENANT_VICTIM_DROP_RATE,
                grid::TENANT_VICTIM_SLO_VIOLATION,
                grid::TENANT_AGGRESSOR_DROP_RATE,
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
            for point in &series(fig, &platform, grid::TENANT_ISOLATION_INDEX).points {
                assert!(
                    point.mean >= 0.99,
                    "{:?}/{platform}: co-located p99 cannot beat the solo baseline ({})",
                    fig.experiment,
                    point.mean
                );
            }
            // The bounded queue sheds the aggressor's overload: monotone
            // drop rate, strictly positive at the top of the sweep.
            let drops = series(fig, &platform, grid::TENANT_AGGRESSOR_DROP_RATE);
            let mut last = 0.0f64;
            for point in &drops.points {
                assert!(
                    point.mean >= last - 1e-9,
                    "{:?}/{platform} aggressor drop rate regresses at {}",
                    fig.experiment,
                    point.x
                );
                last = point.mean;
            }
            assert!(
                drops.points.last().unwrap().mean > 0.0,
                "{:?}/{platform}: no drops at overload",
                fig.experiment
            );
        }
    }
}
