//! The provenance stamp every output carries.

use std::process::Command;

use crate::trace::escape;

/// Where and how a run was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    /// CPUs available to the process.
    pub nproc: usize,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `none` outside a git checkout.
    pub git_rev: String,
    /// The workload.
    pub workload: &'static str,
    /// The workload seed.
    pub seed: u64,
    /// The run configuration's mode.
    pub mode: &'static str,
    /// Workers of the parallel pass (the serial pass uses 1).
    pub workers: usize,
}

/// The first line of a command's standard output, or `none`. The child
/// is waited for before this returns.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "none".into())
}

/// The number of CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Stamp {
    /// Collects the stamp of a run.
    pub fn collect(workload: &'static str, seed: u64, quick: bool, workers: usize) -> Stamp {
        Stamp {
            nproc: nproc(),
            rustc: first_line(
                &std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()),
                &["-V"],
            ),
            git_rev: first_line("git", &["rev-parse", "HEAD"]),
            workload,
            seed,
            mode: if quick { "quick" } else { "paper" },
            workers,
        }
    }

    /// One human-readable line.
    pub fn line(&self) -> String {
        format!(
            "provenance: nproc={} rustc=\"{}\" git={} workload={} seed={} mode={} workers=1/{}",
            self.nproc, self.rustc, self.git_rev, self.workload, self.seed, self.mode, self.workers
        )
    }

    /// A JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \"workload\": \"{}\", \
             \"seed\": {}, \"mode\": \"{}\", \"workers_serial\": 1, \"workers_parallel\": {}}}",
            self.nproc,
            escape(&self.rustc),
            escape(&self.git_rev),
            self.workload,
            self.seed,
            self.mode,
            self.workers
        )
    }
}
