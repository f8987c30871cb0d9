//! Set-up and the timed passes over a plan: the serial closed loop over
//! `harness::grid::run_cell`, and the parallel pass through
//! `harness::Executor`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use harness::grid::{self, CellOutput};
use harness::{Executor, FigureData, RunPlan};
use workloads::YcsbBenchmark;

use crate::trace::Tracer;
use crate::workload::{family, Plan, Workload};

/// Request counts of one family, summed over its returned sweep points.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Requests {
    /// Requests issued: completed + dropped (+ short-circuited).
    pub issued: u64,
    /// Requests that completed, short-circuited ones included.
    pub completed: u64,
    /// Requests dropped at admission.
    pub dropped: u64,
}

/// What a pass's cell outputs say about the simulated work.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    /// Requests per family (`loadgen`, ..., `failover`, and `ycsb`).
    pub families: BTreeMap<&'static str, Requests>,
    /// Events processed by the cluster cores (`ClusterPoint::events`).
    pub cluster_events: u64,
    /// Sloppy-quorum hand-offs of the cluster points.
    pub handoffs: u64,
    /// Cache evictions reported by the cluster points.
    pub store_evictions: u64,
    /// Σ pipeline auth-cache hit fraction × issued, for the weighted ratio.
    pub cache_hit_weight: f64,
}

impl Tally {
    /// Simulated requests of the pass: every sweep request issued plus
    /// the YCSB operations the fig. 16 config issues.
    pub fn requests(&self) -> u64 {
        self.families.values().map(|r| r.issued).sum()
    }

    /// Issued requests of one family.
    pub fn issued(&self, family: &str) -> u64 {
        self.families.get(family).map_or(0, |r| r.issued)
    }

    fn add(&mut self, family: &'static str, completed: u64, dropped: u64) {
        let r = self.families.entry(family).or_default();
        r.issued += completed + dropped;
        r.completed += completed;
        r.dropped += dropped;
    }

    fn record(&mut self, family: &'static str, output: &CellOutput, ycsb_ops: u64) {
        match output {
            CellOutput::Load(points) => {
                for p in points {
                    self.add(family, p.completed, p.dropped);
                }
            }
            CellOutput::Tenant(points) => {
                for p in points {
                    for t in [&p.victim, &p.aggressor] {
                        self.add(family, t.completed, t.dropped);
                    }
                }
            }
            CellOutput::Pipeline(points) => {
                for p in points {
                    let responded = p.completed + p.short_circuited;
                    self.add(family, responded, p.dropped);
                    self.cache_hit_weight += p.cache_hit_fraction * (responded + p.dropped) as f64;
                }
            }
            CellOutput::Cluster(points) => {
                for p in points {
                    self.add(family, p.completed, p.dropped);
                    self.cluster_events += p.events;
                    self.handoffs += p.failover_handoffs;
                    self.store_evictions += p.store_evictions;
                }
            }
            CellOutput::Scalars(_) if family == "ycsb" => self.add(family, ycsb_ops, 0),
            _ => {}
        }
    }
}

/// The YCSB operations one quick-mode fig. 16 cell issues.
pub fn ycsb_ops() -> u64 {
    YcsbBenchmark::quick().operations as u64
}

/// Everything a run does before its first timed cell: builds the plan,
/// builds every cell's platform model, and runs each experiment's first
/// cell once untimed so lazy one-time work is paid here.
pub fn set_up(workload: Workload, seed: u64, tracer: &mut Tracer) -> Plan {
    tracer.span(
        "setup",
        || workload.name().into(),
        |t| {
            let plan = Plan::new(workload, seed);
            t.span(
                "build",
                || "cell platforms".into(),
                |_| {
                    for x in &plan.experiments {
                        for entry in &x.entries {
                            for _ in 0..x.trials {
                                black_box(entry.platform.build());
                            }
                        }
                    }
                },
            );
            for x in &plan.experiments {
                t.span(
                    "cell",
                    || format!("warm-up {}", x.id.slug()),
                    |_| {
                        // A panicking cell is counted by the timed passes.
                        let _ = catch_unwind(|| {
                            black_box(grid::run_cell(x.id, &x.entries[0], 0, &plan.config))
                        });
                    },
                );
            }
            plan
        },
    )
}

/// The outcome of one serial pass.
#[derive(Debug)]
pub struct SerialPass {
    /// Figures in plan order; `None` where a cell panicked.
    pub figures: Vec<Option<FigureData>>,
    /// Per experiment, the time of each cell.
    pub cell_times: Vec<Vec<Duration>>,
    /// Time spent in `grid::merge`.
    pub merge: Duration,
    /// Elapsed time of the whole pass.
    pub wall: Duration,
    /// Counts from the cells' outputs.
    pub tally: Tally,
}

/// Runs every cell of `plan` back to back on the calling thread, then
/// merges each experiment's figure, as a 1-worker executor would.
pub fn serial(plan: &Plan, tracer: &mut Tracer) -> SerialPass {
    let start = Instant::now();
    let ops = ycsb_ops();
    let mut tally = Tally::default();
    let mut merge = Duration::ZERO;
    let mut figures = Vec::with_capacity(plan.experiments.len());
    let mut cell_times = Vec::with_capacity(plan.experiments.len());
    tracer.span(
        "pass",
        || format!("serial {}", plan.workload.name()),
        |t| {
            for x in &plan.experiments {
                let fam = family(x.id);
                let mut times = Vec::with_capacity(x.cells());
                let mut panicked = false;
                let outputs: Vec<Vec<CellOutput>> = t.span(
                    "experiment",
                    || x.id.slug().into(),
                    |t| {
                        x.entries
                            .iter()
                            .map(|entry| {
                                (0..x.trials)
                                    .map(|trial| {
                                        let cell_start = Instant::now();
                                        let out = t.span(
                                            "cell",
                                            || format!("{} {} #{trial}", x.id.slug(), entry.label),
                                            |_| {
                                                catch_unwind(AssertUnwindSafe(|| {
                                                    grid::run_cell(x.id, entry, trial, &plan.config)
                                                }))
                                            },
                                        );
                                        times.push(cell_start.elapsed());
                                        out.unwrap_or_else(|_| {
                                            panicked = true;
                                            CellOutput::Skip
                                        })
                                    })
                                    .collect()
                            })
                            .collect()
                    },
                );
                if let Some(fam) = fam {
                    for out in outputs.iter().flatten() {
                        tally.record(fam, out, ops);
                    }
                }
                let merge_start = Instant::now();
                let fig = if panicked {
                    None
                } else {
                    t.span(
                        "merge",
                        || x.id.slug().into(),
                        |_| catch_unwind(AssertUnwindSafe(|| grid::merge(x.id, &outputs))).ok(),
                    )
                };
                merge += merge_start.elapsed();
                figures.push(fig);
                cell_times.push(times);
            }
        },
    );
    SerialPass {
        figures,
        cell_times,
        merge,
        wall: start.elapsed(),
        tally,
    }
}

/// The outcome of one parallel pass.
#[derive(Debug)]
pub struct ParallelPass {
    /// Figures in plan order; `None` where the executor panicked.
    pub figures: Vec<Option<FigureData>>,
    /// Elapsed time of each experiment's executor run, in plan order.
    pub walls: Vec<Duration>,
    /// Elapsed time of the whole pass.
    pub wall: Duration,
    /// Σ cell time across workers, from the executor reports.
    pub cell_time: Duration,
    /// The executor's merge time.
    pub merge: Duration,
    /// Worker threads per executor run.
    pub workers: usize,
}

impl ParallelPass {
    /// The share of worker time not spent in cells:
    /// 1 − Σ cell time ÷ (workers × wall).
    pub fn idle_frac(&self) -> f64 {
        1.0 - self.cell_time.as_secs_f64() / (self.workers as f64 * self.wall.as_secs_f64())
    }
}

/// Runs the plan through `harness::Executor` with `workers` threads, one
/// executor run per experiment (its slug is the shard filter).
pub fn parallel(plan: &Plan, workers: usize, tracer: &mut Tracer) -> ParallelPass {
    let start = Instant::now();
    let mut figures = Vec::with_capacity(plan.experiments.len());
    let mut walls = Vec::with_capacity(plan.experiments.len());
    let mut cell_time = Duration::ZERO;
    let mut merge = Duration::ZERO;
    tracer.span(
        "pass",
        || format!("parallel {}", plan.workload.name()),
        |t| {
            for x in &plan.experiments {
                let run_start = Instant::now();
                let run = t.span(
                    "executor",
                    || x.id.slug().into(),
                    |_| {
                        catch_unwind(|| {
                            Executor::new(
                                RunPlan::new(plan.config)
                                    .with_shard(x.id.slug())
                                    .with_workers(workers),
                            )
                            .run()
                        })
                    },
                );
                walls.push(run_start.elapsed());
                figures.push(run.ok().and_then(|report| {
                    cell_time += report.total_cell_time();
                    merge += report.merge;
                    report.figure(x.id).cloned()
                }));
            }
        },
    );
    ParallelPass {
        figures,
        walls,
        wall: start.elapsed(),
        cell_time,
        merge,
        workers,
    }
}
