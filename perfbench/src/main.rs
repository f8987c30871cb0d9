//! `perfbench --workload <paper|open_loop|cluster> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the provenance stamp, each experiment's figure digest and (for
//! the traced run) the implied-time table, then, as its last line, one
//! JSON object with the correctness verdict, the attempt counts and the
//! metrics. A traced run also writes its spans to
//! `perfbench/out/trace-<workload>-<seed>.json`.

use std::process::ExitCode;
use std::time::Instant;

use perfbench::metrics::{per_layer, END_TO_END};
use perfbench::{parse_args, run};

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--golden") {
        return golden(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = if args.trace {
        run::traced(&args)
    } else {
        run::timed(&args, started)
    };
    println!("{}", out.stamp.line());
    for line in &out.lines {
        println!("{line}");
    }
    if let Some(tracer) = &out.tracer {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(&out.stamp.json())));
        match written {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let line = if args.trace {
        out.report.json(&per_layer())
    } else {
        out.report.json(&END_TO_END)
    };
    match line {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `perfbench --golden <seed>...`: prints the golden-table lines of every
/// experiment at each seed (quick mode), for `golden/digests.txt`.
fn golden(seeds: &[String]) -> ExitCode {
    for seed in seeds {
        let Ok(seed) = seed.parse() else {
            eprintln!("perfbench: bad seed {seed:?}");
            return ExitCode::from(2);
        };
        let report =
            harness::Executor::new(harness::RunPlan::new(harness::RunConfig::quick(seed))).run();
        print!("{}", perfbench::digest::golden_lines(seed, &report.figures));
    }
    ExitCode::SUCCESS
}
