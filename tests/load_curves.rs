//! Acceptance tests of the open-loop load-curve subsystem: the sweep's
//! shape, the percentile ordering and saturation behaviour of the merged
//! figures, and bit-identical results across executor worker counts.

mod common;

use std::sync::OnceLock;

use isolation_bench::prelude::*;

fn cfg() -> RunConfig {
    RunConfig::quick(2021)
}

/// The serial reference figures, computed once: they are a pure function
/// of the fixed seed, every test in this file reads them, and each must
/// match its golden digest.
fn load_figures() -> &'static Vec<FigureData> {
    static FIGURES: OnceLock<Vec<FigureData>> = OnceLock::new();
    FIGURES.get_or_init(|| {
        [ExperimentId::LoadMemcached, ExperimentId::LoadMysql]
            .iter()
            .map(|e| {
                let fig = figures::run(*e, &cfg());
                common::assert_golden(&fig);
                fig
            })
            .collect()
    })
}

#[test]
fn load_curves_are_bit_identical_for_1_2_and_8_workers() {
    let serial = load_figures();
    let serial_csv: Vec<String> = serial.iter().map(report::to_csv).collect();
    for workers in [1, 2, 8] {
        let run = Executor::new(
            RunPlan::new(cfg())
                .with_shard("load_")
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
fn load_sweeps_cover_enough_points_and_platforms() {
    for fig in load_figures() {
        let platforms: Vec<&str> = fig
            .series
            .iter()
            .filter_map(|s| s.label.strip_suffix(" p50 (us)"))
            .collect();
        assert!(
            platforms.len() >= 3,
            "{:?} covers only {platforms:?}",
            fig.experiment
        );
        for series in &fig.series {
            assert!(
                series.points.len() >= 5,
                "{:?}/{} sweeps only {} offered-load points",
                fig.experiment,
                series.label,
                series.points.len()
            );
        }
    }
}

#[test]
fn percentiles_are_ordered_at_every_offered_load() {
    for fig in load_figures() {
        let platforms: Vec<String> = fig
            .series
            .iter()
            .filter_map(|s| s.label.strip_suffix(" p50 (us)"))
            .map(str::to_string)
            .collect();
        for platform in &platforms {
            let series = |metric: &str| fig.series_named(&format!("{platform} {metric}")).unwrap();
            let p50 = series("p50 (us)");
            let p95 = series("p95 (us)");
            let p99 = series("p99 (us)");
            for i in 0..p50.points.len() {
                let (a, b, c) = (p50.points[i].mean, p95.points[i].mean, p99.points[i].mean);
                assert!(
                    a <= b && b <= c,
                    "{:?}/{platform} at {}: p50 {a} p95 {b} p99 {c}",
                    fig.experiment,
                    p50.points[i].x
                );
                assert!(a.is_finite() && c.is_finite());
                assert!(a > 0.0);
            }
        }
    }
}

#[test]
fn latency_is_non_decreasing_toward_saturation() {
    for fig in load_figures() {
        for series in fig
            .series
            .iter()
            .filter(|s| s.label.ends_with("p99 (us)") || s.label.ends_with("p50 (us)"))
        {
            let mut last = 0.0f64;
            for point in &series.points {
                assert!(
                    point.mean >= last,
                    "{:?}/{} not monotone at offered fraction {}: {} < {last}",
                    fig.experiment,
                    series.label,
                    point.x,
                    point.mean
                );
                last = point.mean;
            }
            // The curve must actually inflate, not just stay flat.
            let first = series.points.first().unwrap().mean;
            assert!(
                last > first,
                "{:?}/{} never inflates ({first} -> {last})",
                fig.experiment,
                series.label
            );
        }
    }
}

#[test]
fn achieved_throughput_tracks_offered_load_below_saturation() {
    for fig in load_figures() {
        for series in fig
            .series
            .iter()
            .filter(|s| s.label.ends_with("achieved (req/s)"))
        {
            let mut last = 0.0f64;
            for point in &series.points {
                assert!(
                    point.mean > last,
                    "{:?}/{} achieved throughput must grow with offered load",
                    fig.experiment,
                    series.label
                );
                last = point.mean;
            }
        }
    }
}
