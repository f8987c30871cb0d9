//! The repository benchmark of the isolation-platform simulator.
//!
//! It drives the simulator only through public functions: the grid runs
//! through `harness::grid::run_cell` (the serial closed loop) and
//! `harness::Executor` (the parallel pass), and each layer is timed from
//! outside by its own microbench. A run with tracing off measures the
//! end-to-end metrics; a run with tracing on records host-time spans
//! around every layer call and reports the per-layer metrics, including
//! an attribution of the measured cell time to the layers.

pub mod check;
pub mod digest;
pub mod metrics;
pub mod micro;
pub mod passes;
pub mod run;
pub mod stamp;
pub mod trace;
pub mod workload;

use std::time::Duration;

use workload::Workload;

/// The median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The median of durations, in seconds.
pub fn median_secs(values: &[Duration]) -> f64 {
    median(&values.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// Σ over items of each item's fastest time across passes: `passes[k][j]`
/// is item `j`'s time in pass `k`, in seconds. Host contention on a shared
/// machine only ever adds time, and it comes and goes over seconds, so
/// each item's minimum is its time in the quietest moment of the run; the
/// sum is the pass time with the contention taken out. A per-item median
/// keeps whatever contention held for half the passes.
///
/// # Panics
///
/// Panics when there are no passes or they hold different item counts.
pub fn sum_of_minima(passes: &[Vec<f64>]) -> f64 {
    let items = passes[0].len();
    assert!(passes.iter().all(|p| p.len() == items), "ragged passes");
    (0..items)
        .map(|j| passes.iter().map(|p| p[j]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// How long the measurement loop runs.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`;
/// the seed defaults to 2021, the duration to 10 s, tracing to off.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: Workload::Paper,
        seed: 2021,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds >= 0.0 && parsed.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required (paper, open_loop or cluster)")?;
    Ok(parsed)
}

/// Peak resident memory of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's peak resident memory (VmHWM) to its current
/// resident memory, so that `peak_rss_mb` then reads the peak since now.
///
/// # Errors
///
/// Fails where the kernel does not let the process write its
/// `clear_refs`.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_full_command_line_parses() {
        let a = parse_args(&args(&[
            "--workload",
            "cluster",
            "--seed",
            "9",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::Cluster);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 20.0, true));
        assert_eq!(
            parse_args(&args(&["--workload", "paper"])).unwrap().seed,
            2021
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "paper", "--trace", "2"],
            &["--workload", "paper", "--seconds"],
            &["--workload", "paper", "--bogus", "1"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn sum_of_minima_takes_each_item_at_its_fastest() {
        let passes = vec![vec![1.0, 2.5], vec![1.3, 9.0], vec![1.2, 2.0]];
        assert!((sum_of_minima(&passes) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
