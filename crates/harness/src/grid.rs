//! The canonical experiment grid.
//!
//! Every figure of the evaluation decomposes into independent
//! `(experiment, platform entry, trial)` **cells**. Each cell derives its
//! own random stream statelessly via [`simcore::rng::derive`] from the
//! root seed, runs one trial of one platform's workload, and returns a
//! [`CellOutput`]. [`merge`] folds the per-cell outputs back into the
//! figure's series **in canonical order** (entry order × trial order), so
//! the resulting [`FigureData`] is bit-identical no matter how the cells
//! were scheduled — serially, sharded, or across any number of workers.
//!
//! [`crate::figures::run`] is the serial walk over this grid;
//! [`crate::executor::Executor`] fans the same cells out across threads.

use memsim::bandwidth::CopyMethod;
use platforms::subsystems::startup::StartupVariant;
use platforms::{Platform, PlatformId};
use simcore::rng;
use simcore::stats::{Cdf, RunningStats};
use simcore::SimRng;

use hap::HapSuite;
use workloads::bench::WorkloadBenchmark;
use workloads::cluster::{ClusterBenchmark, ClusterPoint};
use workloads::loadgen::{LoadBackend, LoadPoint, LoadgenBenchmark};
use workloads::pipeline::{PipelineBenchmark, PipelinePoint};
use workloads::tenancy::{ColocationPoint, TenancyBenchmark};
use workloads::{
    FfmpegBenchmark, FioBenchmark, IperfBenchmark, NetperfBenchmark, OltpBenchmark,
    StreamBenchmark, SysbenchCpuBenchmark, TinymembenchBenchmark, YcsbBenchmark,
};

use crate::config::RunConfig;
use crate::experiment::{DataPoint, ExperimentId, FigureData, Series};

/// One platform entry of an experiment's grid: a column of a bar figure,
/// one sweep series, or one boot-CDF series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The platform this entry runs on.
    pub platform: PlatformId,
    /// The start-up variant (only meaningful for the boot experiments).
    pub variant: StartupVariant,
    /// The entry's unique label within the experiment — the figure legend
    /// name, and the `platform` component of the cell's seed derivation.
    pub label: &'static str,
}

impl Entry {
    fn bar(platform: PlatformId) -> Entry {
        Entry {
            platform,
            variant: StartupVariant::Default,
            label: platform.label(),
        }
    }
}

/// The boot-CDF entry tables (Figs. 13–15), in figure-legend order.
const BOOT_CONTAINERS: &[(PlatformId, StartupVariant, &str)] = &[
    (PlatformId::Docker, StartupVariant::Default, "docker"),
    (PlatformId::Docker, StartupVariant::OciDirect, "runc (oci)"),
    (PlatformId::GvisorPtrace, StartupVariant::Default, "gvisor"),
    (
        PlatformId::GvisorPtrace,
        StartupVariant::OciDirect,
        "runsc (oci)",
    ),
    (PlatformId::Kata, StartupVariant::Default, "kata"),
    (PlatformId::Kata, StartupVariant::OciDirect, "kata (oci)"),
    (PlatformId::Lxc, StartupVariant::Default, "lxc"),
];

const BOOT_HYPERVISORS: &[(PlatformId, StartupVariant, &str)] = &[
    (
        PlatformId::CloudHypervisor,
        StartupVariant::Default,
        "cloud-hypervisor",
    ),
    (PlatformId::Qemu, StartupVariant::Default, "qemu"),
    (PlatformId::QemuQboot, StartupVariant::Default, "qemu-qboot"),
    (
        PlatformId::QemuMicrovm,
        StartupVariant::Default,
        "qemu-microvm",
    ),
    (
        PlatformId::Firecracker,
        StartupVariant::Default,
        "firecracker",
    ),
];

const BOOT_OSV: &[(PlatformId, StartupVariant, &str)] = &[
    (
        PlatformId::OsvFirecracker,
        StartupVariant::Default,
        "osv-fc (e2e)",
    ),
    (
        PlatformId::OsvFirecracker,
        StartupVariant::StdoutMethod,
        "osv-fc (stdout)",
    ),
    (
        PlatformId::OsvQemu,
        StartupVariant::Default,
        "osv-qemu (e2e)",
    ),
    (
        PlatformId::OsvQemu,
        StartupVariant::StdoutMethod,
        "osv-qemu (stdout)",
    ),
];

/// The platform set of the open-loop load-curve, multi-tenant
/// co-location, middleware-pipeline and sharded-cluster experiments: one
/// representative per family (baseline, container, hypervisor, microVM,
/// secure container ×2), in figure-legend order.
const LOAD_PLATFORMS: &[PlatformId] = &[
    PlatformId::Native,
    PlatformId::Docker,
    PlatformId::Qemu,
    PlatformId::Firecracker,
    PlatformId::Kata,
    PlatformId::GvisorPtrace,
];

fn boot_entries(table: &'static [(PlatformId, StartupVariant, &'static str)]) -> Vec<Entry> {
    table
        .iter()
        .map(|(platform, variant, label)| Entry {
            platform: *platform,
            variant: *variant,
            label,
        })
        .collect()
}

/// The canonical platform entries of one experiment, in figure order.
pub fn entries(experiment: ExperimentId) -> Vec<Entry> {
    use ExperimentId::*;
    match experiment {
        Fig10FioLatency => PlatformId::paper_set()
            .iter()
            .chain([PlatformId::KataVirtioFs].iter())
            .map(|id| Entry::bar(*id))
            .collect(),
        Fig13BootContainers => boot_entries(BOOT_CONTAINERS),
        Fig14BootHypervisors => boot_entries(BOOT_HYPERVISORS),
        Fig15BootOsv => boot_entries(BOOT_OSV),
        LoadMemcached
        | LoadMysql
        | TenantIsolationMemcached
        | TenantIsolationMysql
        | PipelineMemcached
        | PipelineMysql
        | ClusterMemcached
        | ClusterMysql
        | ClusterFailoverMemcached
        | ClusterFailoverMysql => LOAD_PLATFORMS.iter().map(|id| Entry::bar(*id)).collect(),
        _ => PlatformId::paper_set()
            .iter()
            .map(|id| Entry::bar(*id))
            .collect(),
    }
}

/// The natural trial count of one experiment under the given
/// configuration: the paper's repetition count for the repeated figures,
/// the startup count for the boot CDFs, one for the deterministic HAP
/// metric.
pub fn trials(experiment: ExperimentId, cfg: &RunConfig) -> usize {
    use ExperimentId::*;
    let natural = match experiment {
        // The figure reports the max/p90 over at least 5 runs.
        Fig11Iperf | Fig12Netperf => cfg.runs.max(5),
        Fig13BootContainers | Fig14BootHypervisors | Fig15BootOsv => cfg.startups,
        Fig16Memcached => ycsb_bench(cfg).runs,
        Fig17Mysql => oltp_bench(cfg).runs,
        Fig18Hap => 1,
        LoadMemcached | LoadMysql => load_bench(experiment, cfg).runs,
        TenantIsolationMemcached | TenantIsolationMysql => tenant_bench(experiment, cfg).runs,
        PipelineMemcached | PipelineMysql => pipeline_bench(experiment, cfg).runs,
        ClusterMemcached | ClusterMysql => cluster_bench(experiment, cfg).runs,
        ClusterFailoverMemcached | ClusterFailoverMysql => failover_bench(experiment, cfg).runs,
        _ => cfg.runs,
    };
    // A zero-run/zero-startup config still produces one trial per cell so
    // merging never sees an empty grid.
    natural.max(1)
}

/// One x position of a sweep cell's output.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// X-axis label.
    pub x: String,
    /// Numeric x value (buffer bytes, thread count).
    pub x_value: f64,
    /// The sampled metric at this x.
    pub value: f64,
}

/// The measurement one cell contributes to its figure.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutput {
    /// One sample per figure series (the bar figures; most experiments
    /// contribute to one series, fio throughput and tinymembench copy
    /// bandwidth to two).
    Scalars(Vec<f64>),
    /// One sample per x position (the Fig. 6 buffer sweep and the Fig. 17
    /// thread sweep).
    Sweep(Vec<SweepPoint>),
    /// One boot time in milliseconds (the CDF figures).
    Boot(f64),
    /// The deterministic HAP metrics of one platform.
    Hap {
        /// Distinct host kernel functions invoked.
        distinct: f64,
        /// EPSS-weighted attack-surface score.
        weighted: f64,
    },
    /// One open-loop load sweep (one [`LoadPoint`] per offered-load
    /// fraction) of the load-curve experiments.
    Load(Vec<LoadPoint>),
    /// One multi-tenant co-location sweep (one [`ColocationPoint`] per
    /// aggressor offered-load fraction) of the tenant-isolation
    /// experiments.
    Tenant(Vec<ColocationPoint>),
    /// One middleware-pipeline sweep (one [`PipelinePoint`] per
    /// depth/hit-rate setting) of the pipeline experiments.
    Pipeline(Vec<PipelinePoint>),
    /// One sharded-cluster sweep (one [`ClusterPoint`] per
    /// shard-count/skew/routing setting) of the cluster experiments.
    Cluster(Vec<ClusterPoint>),
    /// The platform is excluded from this experiment.
    Skip,
}

fn fio_bench(cfg: &RunConfig) -> FioBenchmark {
    let mut bench = FioBenchmark::new(1);
    if cfg.quick {
        bench.guest_memory_bytes = 2 << 30;
    }
    bench
}

fn ycsb_bench(cfg: &RunConfig) -> YcsbBenchmark {
    if cfg.quick {
        YcsbBenchmark::quick()
    } else {
        YcsbBenchmark::default()
    }
}

fn oltp_bench(cfg: &RunConfig) -> OltpBenchmark {
    if cfg.quick {
        OltpBenchmark::quick()
    } else {
        OltpBenchmark::default()
    }
}

fn load_bench(experiment: ExperimentId, cfg: &RunConfig) -> LoadgenBenchmark {
    let backend = match experiment {
        ExperimentId::LoadMysql => LoadBackend::Mysql,
        _ => LoadBackend::Memcached,
    };
    if cfg.quick {
        LoadgenBenchmark::quick(backend)
    } else {
        LoadgenBenchmark::new(backend)
    }
}

fn tenant_bench(experiment: ExperimentId, cfg: &RunConfig) -> TenancyBenchmark {
    let backend = match experiment {
        ExperimentId::TenantIsolationMysql => LoadBackend::Mysql,
        _ => LoadBackend::Memcached,
    };
    if cfg.quick {
        TenancyBenchmark::quick(backend)
    } else {
        TenancyBenchmark::new(backend)
    }
}

fn pipeline_bench(experiment: ExperimentId, cfg: &RunConfig) -> PipelineBenchmark {
    let backend = match experiment {
        ExperimentId::PipelineMysql => LoadBackend::Mysql,
        _ => LoadBackend::Memcached,
    };
    if cfg.quick {
        PipelineBenchmark::quick(backend)
    } else {
        PipelineBenchmark::new(backend)
    }
}

fn cluster_bench(experiment: ExperimentId, cfg: &RunConfig) -> ClusterBenchmark {
    let backend = match experiment {
        ExperimentId::ClusterMysql => LoadBackend::Mysql,
        _ => LoadBackend::Memcached,
    };
    if cfg.quick {
        ClusterBenchmark::quick(backend)
    } else {
        ClusterBenchmark::new(backend)
    }
}

fn failover_bench(experiment: ExperimentId, cfg: &RunConfig) -> ClusterBenchmark {
    let backend = match experiment {
        ExperimentId::ClusterFailoverMysql => LoadBackend::Mysql,
        _ => LoadBackend::Memcached,
    };
    if cfg.quick {
        ClusterBenchmark::failover_quick(backend)
    } else {
        ClusterBenchmark::failover(backend)
    }
}

/// Runs one sweep-workload trial through the unified
/// [`WorkloadBenchmark`] surface — the single dispatch point of the
/// load-curve, tenancy, pipeline and cluster cells. A new sweep workload
/// reaches the grid by implementing the trait and wrapping its points in
/// a [`CellOutput`] variant here.
fn run_sweep_trial<B: WorkloadBenchmark>(
    bench: &B,
    platform: &Platform,
    rng: &mut SimRng,
) -> Vec<B::Point> {
    bench
        .run_trial(platform, rng)
        .expect("paper platforms derate to valid sweep configurations")
}

/// Runs one cell: one trial of one platform entry of one experiment.
///
/// The cell's random stream is derived statelessly from
/// `(cfg.seed, experiment, entry label, trial)`, so the output depends
/// only on those four values — never on scheduling.
pub fn run_cell(
    experiment: ExperimentId,
    entry: &Entry,
    trial: usize,
    cfg: &RunConfig,
) -> CellOutput {
    let platform = entry.platform.build();
    let mut rng = rng::derive(cfg.seed, experiment.slug(), entry.label, trial as u64);
    use ExperimentId::*;
    match experiment {
        Fig05Ffmpeg => {
            let stats = FfmpegBenchmark::new(1).run_summary_ms(&platform, &mut rng);
            CellOutput::Scalars(vec![stats.mean()])
        }
        SysbenchPrime => {
            let stats = SysbenchCpuBenchmark::new(1).run_events_per_sec(&platform, &mut rng);
            CellOutput::Scalars(vec![stats.mean()])
        }
        Fig06MemLatency => {
            let points = TinymembenchBenchmark::new(1).run_latency(&platform, &mut rng);
            CellOutput::Sweep(
                points
                    .into_iter()
                    .map(|p| SweepPoint {
                        x: format!("2^{}", (p.buffer_bytes as f64).log2() as u32),
                        x_value: p.buffer_bytes as f64,
                        value: p.latency_ns.mean(),
                    })
                    .collect(),
            )
        }
        Fig07MemBandwidth => {
            let bench = TinymembenchBenchmark::new(1);
            let regular = bench.run_bandwidth(&platform, CopyMethod::Regular, &mut rng);
            let sse2 = bench.run_bandwidth(&platform, CopyMethod::Sse2, &mut rng);
            CellOutput::Scalars(vec![regular.mean(), sse2.mean()])
        }
        Fig08Stream => {
            let stats = StreamBenchmark::new(1).run(&platform, &mut rng);
            CellOutput::Scalars(vec![stats.mean()])
        }
        Fig09FioThroughput => match fio_bench(cfg).run_throughput(&platform, &mut rng) {
            Some(out) => CellOutput::Scalars(vec![out.read_mib_s.mean(), out.write_mib_s.mean()]),
            None => CellOutput::Skip,
        },
        Fig10FioLatency => match fio_bench(cfg).run_randread_latency(&platform, &mut rng) {
            Some(stats) => CellOutput::Scalars(vec![stats.mean()]),
            None => CellOutput::Skip,
        },
        Fig11Iperf => {
            let stats = IperfBenchmark::new(1).run(&platform, &mut rng);
            CellOutput::Scalars(vec![stats.mean()])
        }
        Fig12Netperf => {
            let stats = NetperfBenchmark::new(1).run_p90_us(&platform, &mut rng);
            CellOutput::Scalars(vec![stats.mean()])
        }
        Fig13BootContainers | Fig14BootHypervisors | Fig15BootOsv => CellOutput::Boot(
            platform
                .startup()
                .sample(entry.variant, &mut rng)
                .as_millis_f64(),
        ),
        Fig16Memcached => {
            let mut bench = ycsb_bench(cfg);
            bench.runs = 1;
            CellOutput::Scalars(vec![bench.run_trial(&platform, &mut rng)])
        }
        Fig17Mysql => {
            let mut bench = oltp_bench(cfg);
            bench.runs = 1;
            CellOutput::Sweep(
                bench
                    .run_trial(&platform, &mut rng)
                    .into_iter()
                    .map(|(threads, tps)| SweepPoint {
                        x: format!("{}", threads as f64),
                        x_value: threads as f64,
                        value: tps,
                    })
                    .collect(),
            )
        }
        Fig18Hap => {
            let suite = if cfg.quick {
                HapSuite::quick()
            } else {
                HapSuite::default()
            };
            let profile = suite.profile(&platform);
            CellOutput::Hap {
                distinct: profile.distinct_functions as f64,
                weighted: profile.weighted_score,
            }
        }
        LoadMemcached | LoadMysql => CellOutput::Load(run_sweep_trial(
            &load_bench(experiment, cfg),
            &platform,
            &mut rng,
        )),
        TenantIsolationMemcached | TenantIsolationMysql => CellOutput::Tenant(run_sweep_trial(
            &tenant_bench(experiment, cfg),
            &platform,
            &mut rng,
        )),
        PipelineMemcached | PipelineMysql => CellOutput::Pipeline(run_sweep_trial(
            &pipeline_bench(experiment, cfg),
            &platform,
            &mut rng,
        )),
        ClusterMemcached | ClusterMysql => CellOutput::Cluster(run_sweep_trial(
            &cluster_bench(experiment, cfg),
            &platform,
            &mut rng,
        )),
        ClusterFailoverMemcached | ClusterFailoverMysql => CellOutput::Cluster(run_sweep_trial(
            &failover_bench(experiment, cfg),
            &platform,
            &mut rng,
        )),
    }
}

/// The figure series labels of the bar and HAP experiments, in series
/// order (sweeps and boot CDFs name their series after the entries).
fn series_labels(experiment: ExperimentId) -> &'static [&'static str] {
    use ExperimentId::*;
    match experiment {
        Fig05Ffmpeg => &["re-encode time (ms)"],
        SysbenchPrime => &["events/s"],
        Fig07MemBandwidth => &["regular copy (MiB/s)", "sse2 copy (MiB/s)"],
        Fig08Stream => &["copy bandwidth (MiB/s)"],
        Fig09FioThroughput => &["read (MiB/s)", "write (MiB/s)"],
        Fig10FioLatency => &["randread latency (us)"],
        Fig11Iperf => &["throughput (Gbit/s)"],
        Fig12Netperf => &["p90 latency (us)"],
        Fig16Memcached => &["throughput (ops/s)"],
        Fig18Hap => &["distinct host kernel functions", "EPSS-weighted score"],
        _ => &[],
    }
}

/// The CDF percentiles the boot figures report.
const BOOT_PERCENTILES: [f64; 6] = [10.0, 25.0, 50.0, 75.0, 90.0, 99.0];

/// Merges the outputs of every cell of one experiment — indexed
/// `outputs[entry][trial]` in canonical order — into the figure data.
///
/// Merging is a pure fold over the canonically ordered outputs, so two
/// runs that produced the same cells yield byte-identical figures
/// regardless of the order the cells actually completed in.
pub fn merge(experiment: ExperimentId, outputs: &[Vec<CellOutput>]) -> FigureData {
    use ExperimentId::*;
    match experiment {
        Fig06MemLatency | Fig17Mysql => merge_sweep(experiment, outputs),
        Fig13BootContainers | Fig14BootHypervisors | Fig15BootOsv => {
            merge_boot(experiment, outputs)
        }
        Fig18Hap => merge_hap(experiment, outputs),
        LoadMemcached | LoadMysql => merge_points(
            experiment,
            outputs,
            |o| match o {
                CellOutput::Load(points) => Some(points.as_slice()),
                _ => None,
            },
            &LOAD_METRICS,
            load_metric,
            |_, p| fraction_x(p.offered_fraction),
        ),
        TenantIsolationMemcached | TenantIsolationMysql => merge_points(
            experiment,
            outputs,
            |o| match o {
                CellOutput::Tenant(points) => Some(points.as_slice()),
                _ => None,
            },
            &TENANT_METRICS,
            tenant_metric,
            |_, p| fraction_x(p.aggressor_fraction),
        ),
        PipelineMemcached | PipelineMysql => merge_points(
            experiment,
            outputs,
            |o| match o {
                CellOutput::Pipeline(points) => Some(points.as_slice()),
                _ => None,
            },
            &PIPELINE_METRICS,
            pipeline_metric,
            |xi, p| (p.label.clone(), xi as f64),
        ),
        ClusterMemcached | ClusterMysql => merge_points(
            experiment,
            outputs,
            cluster_points,
            &CLUSTER_METRICS,
            cluster_metric,
            |xi, p| (p.label.clone(), xi as f64),
        ),
        ClusterFailoverMemcached | ClusterFailoverMysql => merge_points(
            experiment,
            outputs,
            cluster_points,
            &FAILOVER_METRICS,
            failover_metric,
            |xi, p| (p.label.clone(), xi as f64),
        ),
        // Fig. 11 reports the maximum over the runs, everything else the mean.
        Fig11Iperf => merge_bars(experiment, outputs, true),
        _ => merge_bars(experiment, outputs, false),
    }
}

/// Series-label suffix of the load figures' median sojourn time.
pub const LOAD_P50: &str = "p50 (us)";
/// Series-label suffix of the load figures' 95th-percentile sojourn time.
pub const LOAD_P95: &str = "p95 (us)";
/// Series-label suffix of the load figures' 99th-percentile sojourn time.
pub const LOAD_P99: &str = "p99 (us)";
/// Series-label suffix of the load figures' achieved throughput.
pub const LOAD_ACHIEVED: &str = "achieved (req/s)";

/// The per-platform metric series of one load-curve figure, in series
/// order: the sojourn-time percentiles plus the achieved throughput.
/// Every series is labelled `"<platform> <metric>"`; [`crate::findings`]
/// and [`crate::report`] look series up through these constants.
pub const LOAD_METRICS: [&str; 4] = [LOAD_P50, LOAD_P95, LOAD_P99, LOAD_ACHIEVED];

fn load_metric(point: &LoadPoint, metric: &str) -> f64 {
    match metric {
        LOAD_P50 => point.p50_us,
        LOAD_P95 => point.p95_us,
        LOAD_P99 => point.p99_us,
        LOAD_ACHIEVED => point.achieved_per_sec,
        other => unreachable!("unknown load metric {other}"),
    }
}

/// Merges the per-trial sweeps of one per-metric sweep experiment (load,
/// tenancy, pipeline or cluster): for every entry and metric, one
/// `"<platform> <metric>"` series whose points are the trial mean and
/// standard deviation of `metric_of` at each sweep index, placed at
/// `x_of(index, first trial's point)`. `sweep` extracts the experiment's
/// points from a cell output.
fn merge_points<P>(
    experiment: ExperimentId,
    outputs: &[Vec<CellOutput>],
    sweep: fn(&CellOutput) -> Option<&[P]>,
    metrics: &[&str],
    metric_of: fn(&P, &str) -> f64,
    x_of: fn(usize, &P) -> (String, f64),
) -> FigureData {
    let mut fig = FigureData::new(experiment);
    for (entry, trials) in entries(experiment).iter().zip(outputs) {
        let sweeps: Vec<&[P]> = trials
            .iter()
            .map(|output| {
                sweep(output).unwrap_or_else(|| {
                    unreachable!("{experiment:?} produced {output:?}, expected its sweep points")
                })
            })
            .collect();
        let first = sweeps.first().expect("every entry runs at least one trial");
        for metric in metrics {
            let mut series = Series::new(&format!("{} {metric}", entry.label));
            for (xi, sample) in first.iter().enumerate() {
                let stats: RunningStats = sweeps
                    .iter()
                    .map(|points| metric_of(&points[xi], metric))
                    .collect();
                let (x, x_value) = x_of(xi, sample);
                series.points.push(DataPoint {
                    x,
                    x_value,
                    mean: stats.mean(),
                    std_dev: stats.std_dev(),
                });
            }
            fig.series.push(series);
        }
    }
    fig
}

/// The x of a point swept over a load fraction: two-decimal label and the
/// fraction itself.
fn fraction_x(fraction: f64) -> (String, f64) {
    (format!("{fraction:.2}"), fraction)
}

fn cluster_points(output: &CellOutput) -> Option<&[ClusterPoint]> {
    match output {
        CellOutput::Cluster(points) => Some(points),
        _ => None,
    }
}

/// The per-platform metric series of one tenant-isolation figure, in
/// series order: the victim's percentiles, throughput, drop/SLO behaviour
/// and isolation diagnostics (solo baseline, FIFO comparison, isolation
/// index), then the aggressor's percentiles, throughput and drop rate.
/// Every series is labelled `"<platform> <metric>"`; [`crate::findings`]
/// and [`crate::report`] look series up through these constants.
pub const TENANT_METRICS: [&str; 14] = [
    TENANT_VICTIM_P50,
    TENANT_VICTIM_P95,
    TENANT_VICTIM_P99,
    TENANT_VICTIM_ACHIEVED,
    TENANT_VICTIM_DROP_RATE,
    TENANT_VICTIM_SLO_VIOLATION,
    TENANT_VICTIM_SOLO_P99,
    TENANT_VICTIM_FIFO_P99,
    TENANT_ISOLATION_INDEX,
    TENANT_AGGRESSOR_P50,
    TENANT_AGGRESSOR_P95,
    TENANT_AGGRESSOR_P99,
    TENANT_AGGRESSOR_ACHIEVED,
    TENANT_AGGRESSOR_DROP_RATE,
];

/// Victim median sojourn time under the weighted scheduler.
pub const TENANT_VICTIM_P50: &str = "victim p50 (us)";
/// Victim 95th-percentile sojourn time under the weighted scheduler.
pub const TENANT_VICTIM_P95: &str = "victim p95 (us)";
/// Victim 99th-percentile sojourn time under the weighted scheduler.
pub const TENANT_VICTIM_P99: &str = "victim p99 (us)";
/// Victim achieved throughput under the weighted scheduler.
pub const TENANT_VICTIM_ACHIEVED: &str = "victim achieved (req/s)";
/// Victim drop rate (dropped / issued) under the weighted scheduler.
pub const TENANT_VICTIM_DROP_RATE: &str = "victim drop rate";
/// Fraction of victim completions slower than its p99 SLO target.
pub const TENANT_VICTIM_SLO_VIOLATION: &str = "victim slo violation";
/// Victim p99 running alone on the platform (same streams).
pub const TENANT_VICTIM_SOLO_P99: &str = "victim solo p99 (us)";
/// Victim p99 under unweighted global-FIFO sharing (same streams).
pub const TENANT_VICTIM_FIFO_P99: &str = "victim fifo p99 (us)";
/// Isolation index: co-located (weighted) victim p99 / solo victim p99.
pub const TENANT_ISOLATION_INDEX: &str = "victim isolation index";
/// Aggressor median sojourn time under the weighted scheduler.
pub const TENANT_AGGRESSOR_P50: &str = "aggressor p50 (us)";
/// Aggressor 95th-percentile sojourn time under the weighted scheduler.
pub const TENANT_AGGRESSOR_P95: &str = "aggressor p95 (us)";
/// Aggressor 99th-percentile sojourn time under the weighted scheduler.
pub const TENANT_AGGRESSOR_P99: &str = "aggressor p99 (us)";
/// Aggressor achieved throughput under the weighted scheduler.
pub const TENANT_AGGRESSOR_ACHIEVED: &str = "aggressor achieved (req/s)";
/// Aggressor drop rate (dropped / issued) under the weighted scheduler.
pub const TENANT_AGGRESSOR_DROP_RATE: &str = "aggressor drop rate";

/// The per-platform metric series of one middleware-pipeline figure, in
/// series order: sojourn percentiles, the per-request middleware tax,
/// and the short-circuit / cache-hit / drop fractions. Every series is
/// labelled `"<platform> <metric>"`; [`crate::findings`] and
/// [`crate::report`] look series up through these constants.
pub const PIPELINE_METRICS: [&str; 6] = [
    PIPELINE_P50,
    PIPELINE_P99,
    PIPELINE_STAGE_TAX,
    PIPELINE_SHORT_CIRCUIT,
    PIPELINE_CACHE_HIT,
    PIPELINE_DROP_RATE,
];

/// Pipeline median sojourn time (queueing + chain + backend).
pub const PIPELINE_P50: &str = "p50 (us)";
/// Pipeline 99th-percentile sojourn time.
pub const PIPELINE_P99: &str = "p99 (us)";
/// Mean middleware cost charged per response (the per-stage latency tax
/// summed over the entered stages).
pub const PIPELINE_STAGE_TAX: &str = "stage tax (us)";
/// Fraction of responses short-circuited by a middleware stage.
pub const PIPELINE_SHORT_CIRCUIT: &str = "short-circuit fraction";
/// Auth-cache hit fraction over the point's accesses.
pub const PIPELINE_CACHE_HIT: &str = "cache hit fraction";
/// Dropped fraction of all issued requests.
pub const PIPELINE_DROP_RATE: &str = "drop fraction";

fn pipeline_metric(point: &PipelinePoint, metric: &str) -> f64 {
    match metric {
        PIPELINE_P50 => point.p50_us,
        PIPELINE_P99 => point.p99_us,
        PIPELINE_STAGE_TAX => point.stage_tax_us,
        PIPELINE_SHORT_CIRCUIT => point.short_circuit_fraction,
        PIPELINE_CACHE_HIT => point.cache_hit_fraction,
        PIPELINE_DROP_RATE => point.drop_fraction,
        other => unreachable!("unknown pipeline metric {other}"),
    }
}

/// The per-platform metric series of one sharded-cluster figure, in
/// series order: cluster-wide sojourn percentiles, the hottest shard's
/// tail, the steady-phase load imbalance, and the achieved/drop
/// behaviour. Every series is labelled `"<platform> <metric>"`;
/// [`crate::findings`] and [`crate::report`] look series up through
/// these constants.
pub const CLUSTER_METRICS: [&str; 6] = [
    CLUSTER_P50,
    CLUSTER_P99,
    CLUSTER_HOT_P99,
    CLUSTER_IMBALANCE,
    CLUSTER_ACHIEVED,
    CLUSTER_DROP_RATE,
];

/// Cluster-wide median sojourn time across all shards.
pub const CLUSTER_P50: &str = "p50 (us)";
/// Cluster-wide 99th-percentile sojourn time across all shards.
pub const CLUSTER_P99: &str = "p99 (us)";
/// 99th-percentile sojourn time on the hottest shard (by arrivals).
pub const CLUSTER_HOT_P99: &str = "hot shard p99 (us)";
/// Steady-phase load imbalance: hottest shard arrivals over the
/// per-shard mean (1.0 = perfectly balanced).
pub const CLUSTER_IMBALANCE: &str = "imbalance";
/// Completed cluster throughput.
pub const CLUSTER_ACHIEVED: &str = "achieved (req/s)";
/// Dropped fraction of all issued requests.
pub const CLUSTER_DROP_RATE: &str = "drop fraction";

fn cluster_metric(point: &ClusterPoint, metric: &str) -> f64 {
    match metric {
        CLUSTER_P50 => point.p50_us,
        CLUSTER_P99 => point.p99_us,
        CLUSTER_HOT_P99 => point.hot_p99_us,
        CLUSTER_IMBALANCE => point.imbalance,
        CLUSTER_ACHIEVED => point.achieved_per_sec,
        CLUSTER_DROP_RATE => point.drop_fraction,
        other => unreachable!("unknown cluster metric {other}"),
    }
}

/// The per-platform metric series of one replication/failover figure, in
/// series order: cluster-wide sojourn percentiles, the scatter-gather
/// tail, the drop behaviour, the sloppy-quorum hand-off count and the
/// failure-phase drop rates. Every series is labelled
/// `"<platform> <metric>"`; [`crate::findings`] and [`crate::report`]
/// look series up through these constants.
pub const FAILOVER_METRICS: [&str; 9] = [
    CLUSTER_P50,
    CLUSTER_P99,
    FAILOVER_SCATTER_P99,
    CLUSTER_DROP_RATE,
    FAILOVER_HANDOFFS,
    FAILOVER_FAIL_AT,
    FAILOVER_PRE_DROP,
    FAILOVER_WINDOW_DROP,
    FAILOVER_POST_DROP,
];

/// 99th-percentile sojourn of the scatter-gather class (max over its K
/// partial queries).
pub const FAILOVER_SCATTER_P99: &str = "scatter p99 (us)";
/// Sub-requests the sloppy quorum handed off around a dead shard.
pub const FAILOVER_HANDOFFS: &str = "hand-offs";
/// Virtual-time instant of the shard kill (µs into the window); `-1` for
/// settings with no fault injected.
pub const FAILOVER_FAIL_AT: &str = "fail at (us)";
/// Drop rate over requests resolved before the failure instant.
pub const FAILOVER_PRE_DROP: &str = "pre-fail drop rate";
/// Drop rate over requests resolved inside the failure window.
pub const FAILOVER_WINDOW_DROP: &str = "fail-window drop rate";
/// Drop rate over requests resolved after the recovery instant.
pub const FAILOVER_POST_DROP: &str = "post-recover drop rate";

fn failover_metric(point: &ClusterPoint, metric: &str) -> f64 {
    match metric {
        CLUSTER_P50 => point.p50_us,
        CLUSTER_P99 => point.p99_us,
        FAILOVER_SCATTER_P99 => point.scatter_p99_us,
        CLUSTER_DROP_RATE => point.drop_fraction,
        FAILOVER_HANDOFFS => point.failover_handoffs as f64,
        FAILOVER_FAIL_AT => point.fail_at_us,
        FAILOVER_PRE_DROP => point.pre_fail_drop_rate,
        FAILOVER_WINDOW_DROP => point.fail_window_drop_rate,
        FAILOVER_POST_DROP => point.post_recover_drop_rate,
        other => unreachable!("unknown failover metric {other}"),
    }
}

/// The platform labels of a merged per-metric sweep figure (load,
/// tenancy, pipeline or cluster), recovered in canonical entry order by
/// stripping one of the figure's metric suffixes (e.g. [`LOAD_P50`],
/// [`TENANT_VICTIM_P99`], [`PIPELINE_STAGE_TAX`], [`CLUSTER_P99`]) from
/// its `"<platform> <metric>"` series labels. Any metric the figure
/// carries recovers the same list; callers conventionally pass the
/// figure family's first headline metric.
pub fn platforms_of(fig: &FigureData, metric: &str) -> Vec<String> {
    let suffix = format!(" {metric}");
    fig.series
        .iter()
        .filter_map(|s| s.label.strip_suffix(suffix.as_str()))
        .map(str::to_string)
        .collect()
}

fn tenant_metric(point: &ColocationPoint, metric: &str) -> f64 {
    match metric {
        TENANT_VICTIM_P50 => point.victim.p50_us,
        TENANT_VICTIM_P95 => point.victim.p95_us,
        TENANT_VICTIM_P99 => point.victim.p99_us,
        TENANT_VICTIM_ACHIEVED => point.victim.achieved_per_sec,
        TENANT_VICTIM_DROP_RATE => point.victim.drop_rate,
        TENANT_VICTIM_SLO_VIOLATION => point.victim.slo_violation,
        TENANT_VICTIM_SOLO_P99 => point.victim_solo_p99_us,
        TENANT_VICTIM_FIFO_P99 => point.victim_fifo_p99_us,
        TENANT_ISOLATION_INDEX => point.isolation_index,
        TENANT_AGGRESSOR_P50 => point.aggressor.p50_us,
        TENANT_AGGRESSOR_P95 => point.aggressor.p95_us,
        TENANT_AGGRESSOR_P99 => point.aggressor.p99_us,
        TENANT_AGGRESSOR_ACHIEVED => point.aggressor.achieved_per_sec,
        TENANT_AGGRESSOR_DROP_RATE => point.aggressor.drop_rate,
        other => unreachable!("unknown tenant metric {other}"),
    }
}

fn merge_bars(
    experiment: ExperimentId,
    outputs: &[Vec<CellOutput>],
    headline_max: bool,
) -> FigureData {
    let labels = series_labels(experiment);
    let mut fig = FigureData::new(experiment);
    let mut series: Vec<Series> = labels.iter().map(|l| Series::new(l)).collect();
    for (entry, trials) in entries(experiment).iter().zip(outputs) {
        let mut stats = vec![RunningStats::new(); labels.len()];
        let mut ran = false;
        for output in trials {
            match output {
                CellOutput::Scalars(values) => {
                    ran = true;
                    for (s, value) in stats.iter_mut().zip(values) {
                        s.record(*value);
                    }
                }
                CellOutput::Skip => {}
                other => unreachable!("{experiment:?} produced {other:?}, expected scalars"),
            }
        }
        if !ran {
            // Excluded platform (fio on Firecracker/OSv/gVisor): no point.
            continue;
        }
        for (s, stat) in series.iter_mut().zip(&stats) {
            let value = if headline_max {
                stat.max().unwrap_or(0.0)
            } else {
                stat.mean()
            };
            s.points
                .push(DataPoint::categorical(entry.label, value, stat.std_dev()));
        }
    }
    fig.series = series;
    fig
}

fn merge_sweep(experiment: ExperimentId, outputs: &[Vec<CellOutput>]) -> FigureData {
    let mut fig = FigureData::new(experiment);
    for (entry, trials) in entries(experiment).iter().zip(outputs) {
        let mut series = Series::new(entry.label);
        let first = match trials.first() {
            Some(CellOutput::Sweep(points)) => points,
            other => unreachable!("{experiment:?} produced {other:?}, expected a sweep"),
        };
        for (xi, sp) in first.iter().enumerate() {
            let mut stats = RunningStats::new();
            for output in trials {
                match output {
                    CellOutput::Sweep(points) => stats.record(points[xi].value),
                    other => unreachable!("{experiment:?} produced {other:?}, expected a sweep"),
                }
            }
            series.points.push(DataPoint {
                x: sp.x.clone(),
                x_value: sp.x_value,
                mean: stats.mean(),
                std_dev: stats.std_dev(),
            });
        }
        fig.series.push(series);
    }
    fig
}

fn merge_boot(experiment: ExperimentId, outputs: &[Vec<CellOutput>]) -> FigureData {
    let mut fig = FigureData::new(experiment);
    for (entry, trials) in entries(experiment).iter().zip(outputs) {
        let samples: Vec<f64> = trials
            .iter()
            .map(|output| match output {
                CellOutput::Boot(ms) => *ms,
                other => unreachable!("{experiment:?} produced {other:?}, expected a boot time"),
            })
            .collect();
        let cdf = Cdf::from_samples(samples).expect("boot entries always produce samples");
        let mut series = Series::new(entry.label);
        for pct in BOOT_PERCENTILES {
            series
                .points
                .push(DataPoint::numeric(pct, cdf.percentile(pct), 0.0));
        }
        fig.series.push(series);
    }
    fig
}

fn merge_hap(experiment: ExperimentId, outputs: &[Vec<CellOutput>]) -> FigureData {
    let mut fig = FigureData::new(experiment);
    let labels = series_labels(experiment);
    let mut distinct_series = Series::new(labels[0]);
    let mut weighted_series = Series::new(labels[1]);
    for (entry, trials) in entries(experiment).iter().zip(outputs) {
        match trials.first() {
            Some(CellOutput::Hap { distinct, weighted }) => {
                distinct_series
                    .points
                    .push(DataPoint::categorical(entry.label, *distinct, 0.0));
                weighted_series
                    .points
                    .push(DataPoint::categorical(entry.label, *weighted, 0.0));
            }
            other => unreachable!("{experiment:?} produced {other:?}, expected a HAP profile"),
        }
    }
    fig.series.push(distinct_series);
    fig.series.push(weighted_series);
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RunConfig {
        RunConfig::quick(7)
    }

    #[test]
    fn every_experiment_has_entries_and_trials() {
        for experiment in ExperimentId::all() {
            assert!(!entries(*experiment).is_empty(), "{experiment:?}");
            assert!(trials(*experiment, &cfg()) >= 1, "{experiment:?}");
        }
    }

    #[test]
    fn entry_labels_are_unique_within_each_experiment() {
        for experiment in ExperimentId::all() {
            let labels: std::collections::BTreeSet<_> = entries(*experiment)
                .iter()
                .map(|entry| entry.label)
                .collect();
            assert_eq!(
                labels.len(),
                entries(*experiment).len(),
                "{experiment:?} has duplicate entry labels"
            );
        }
    }

    #[test]
    fn cells_are_deterministic_and_trial_independent() {
        let experiment = ExperimentId::Fig08Stream;
        let entry = entries(experiment)[0];
        let a = run_cell(experiment, &entry, 3, &cfg());
        let b = run_cell(experiment, &entry, 3, &cfg());
        assert_eq!(a, b);
        let c = run_cell(experiment, &entry, 4, &cfg());
        assert_ne!(a, c, "different trials must sample different streams");
    }

    #[test]
    fn excluded_platforms_skip_their_fio_cells() {
        let experiment = ExperimentId::Fig09FioThroughput;
        let firecracker = entries(experiment)
            .into_iter()
            .find(|entry| entry.platform == PlatformId::Firecracker)
            .unwrap();
        assert_eq!(
            run_cell(experiment, &firecracker, 0, &cfg()),
            CellOutput::Skip
        );
    }

    #[test]
    fn load_experiments_cover_multiple_platform_families() {
        for experiment in [ExperimentId::LoadMemcached, ExperimentId::LoadMysql] {
            let entries = entries(experiment);
            assert!(entries.len() >= 3, "{experiment:?} needs >= 3 platforms");
            let families: std::collections::BTreeSet<_> = entries
                .iter()
                .map(|entry| entry.platform.family())
                .collect();
            assert!(families.len() >= 3, "{experiment:?} families {families:?}");
        }
    }

    #[test]
    fn load_cells_produce_full_sweeps_and_merge_per_metric_series() {
        let experiment = ExperimentId::LoadMemcached;
        let grid_entries = entries(experiment);
        let outputs: Vec<Vec<CellOutput>> = grid_entries
            .iter()
            .map(|entry| vec![run_cell(experiment, entry, 0, &cfg())])
            .collect();
        let sweep_len = match &outputs[0][0] {
            CellOutput::Load(points) => {
                assert!(points.len() >= 5, "load sweep needs >= 5 offered points");
                points.len()
            }
            other => panic!("expected a load sweep, got {other:?}"),
        };
        let fig = merge(experiment, &outputs);
        assert_eq!(fig.series.len(), grid_entries.len() * LOAD_METRICS.len());
        for series in &fig.series {
            assert_eq!(series.points.len(), sweep_len);
        }
        for entry in &grid_entries {
            for metric in LOAD_METRICS {
                assert!(
                    fig.series_named(&format!("{} {metric}", entry.label))
                        .is_some(),
                    "missing series for {} {metric}",
                    entry.label
                );
            }
        }
    }

    #[test]
    fn tenant_cells_produce_full_sweeps_and_merge_per_metric_series() {
        let experiment = ExperimentId::TenantIsolationMemcached;
        let grid_entries = entries(experiment);
        assert!(grid_entries.len() >= 3);
        let entry = &grid_entries[0];
        let outputs = [vec![run_cell(experiment, entry, 0, &cfg())]];
        let sweep_len = match &outputs[0][0] {
            CellOutput::Tenant(points) => {
                assert!(
                    points.len() >= 5,
                    "tenant sweep needs >= 5 aggressor points"
                );
                assert!(
                    points.last().unwrap().aggressor_fraction > 1.0,
                    "the aggressor sweep must reach overload"
                );
                points.len()
            }
            other => panic!("expected a tenant sweep, got {other:?}"),
        };
        let fig = merge(experiment, &outputs[..1]);
        assert_eq!(fig.series.len(), TENANT_METRICS.len());
        for metric in TENANT_METRICS {
            let series = fig
                .series_named(&format!("{} {metric}", entry.label))
                .unwrap_or_else(|| panic!("missing series for {} {metric}", entry.label));
            assert_eq!(series.points.len(), sweep_len);
        }
    }

    #[test]
    fn pipeline_cells_produce_full_sweeps_and_merge_per_metric_series() {
        let experiment = ExperimentId::PipelineMemcached;
        let grid_entries = entries(experiment);
        assert!(grid_entries.len() >= 3);
        let entry = &grid_entries[0];
        let outputs = [vec![run_cell(experiment, entry, 0, &cfg())]];
        let sweep_len = match &outputs[0][0] {
            CellOutput::Pipeline(points) => {
                assert!(
                    points.len() >= 8,
                    "pipeline sweep needs the depth and hit-rate axes"
                );
                assert!(
                    points.iter().any(|p| p.depth == 8),
                    "the depth sweep must reach 8 stages"
                );
                assert!(
                    points.iter().any(|p| p.planned_hit_rate > p.hit_rate + 0.5),
                    "the sweep must include the cache-miss-storm point"
                );
                points.len()
            }
            other => panic!("expected a pipeline sweep, got {other:?}"),
        };
        let fig = merge(experiment, &outputs[..1]);
        assert_eq!(fig.series.len(), PIPELINE_METRICS.len());
        for metric in PIPELINE_METRICS {
            let series = fig
                .series_named(&format!("{} {metric}", entry.label))
                .unwrap_or_else(|| panic!("missing series for {} {metric}", entry.label));
            assert_eq!(series.points.len(), sweep_len);
        }
        assert_eq!(
            platforms_of(&fig, PIPELINE_STAGE_TAX),
            vec![entry.label.to_string()]
        );
    }

    #[test]
    fn cluster_cells_produce_full_sweeps_and_merge_per_metric_series() {
        let experiment = ExperimentId::ClusterMemcached;
        let grid_entries = entries(experiment);
        assert!(grid_entries.len() >= 3);
        let entry = &grid_entries[0];
        let outputs = [vec![run_cell(experiment, entry, 0, &cfg())]];
        let sweep_len = match &outputs[0][0] {
            CellOutput::Cluster(points) => {
                assert!(
                    points.len() >= 8,
                    "cluster sweep needs the shard-count and skew axes"
                );
                assert!(
                    points.iter().any(|p| p.shards == 256),
                    "the shard sweep must reach 256 shards"
                );
                assert!(
                    points.iter().any(|p| p.rebalanced),
                    "the sweep must include the resharding point"
                );
                points.len()
            }
            other => panic!("expected a cluster sweep, got {other:?}"),
        };
        let fig = merge(experiment, &outputs[..1]);
        assert_eq!(fig.series.len(), CLUSTER_METRICS.len());
        for metric in CLUSTER_METRICS {
            let series = fig
                .series_named(&format!("{} {metric}", entry.label))
                .unwrap_or_else(|| panic!("missing series for {} {metric}", entry.label));
            assert_eq!(series.points.len(), sweep_len);
        }
        assert_eq!(
            platforms_of(&fig, CLUSTER_HOT_P99),
            vec![entry.label.to_string()]
        );
    }

    #[test]
    fn failover_cells_produce_full_sweeps_and_merge_per_metric_series() {
        let experiment = ExperimentId::ClusterFailoverMemcached;
        let grid_entries = entries(experiment);
        assert!(grid_entries.len() >= 3);
        let entry = &grid_entries[0];
        let outputs = [vec![run_cell(experiment, entry, 0, &cfg())]];
        let sweep_len = match &outputs[0][0] {
            CellOutput::Cluster(points) => {
                assert!(
                    points.iter().any(|p| p.replicas == 3),
                    "the sweep must reach R=3 replication"
                );
                assert!(
                    points.iter().any(|p| p.fanout == 16),
                    "the scatter axis must reach K=16"
                );
                assert!(
                    points
                        .iter()
                        .any(|p| p.failed_shard >= 0 && p.recover_at_us > 0.0),
                    "the sweep must include a kill-then-recover point"
                );
                points.len()
            }
            other => panic!("expected a cluster sweep, got {other:?}"),
        };
        let fig = merge(experiment, &outputs[..1]);
        assert_eq!(fig.series.len(), FAILOVER_METRICS.len());
        for metric in FAILOVER_METRICS {
            let series = fig
                .series_named(&format!("{} {metric}", entry.label))
                .unwrap_or_else(|| panic!("missing series for {} {metric}", entry.label));
            assert_eq!(series.points.len(), sweep_len);
        }
        assert_eq!(
            platforms_of(&fig, FAILOVER_SCATTER_P99),
            vec![entry.label.to_string()]
        );
    }

    #[test]
    fn merge_preserves_canonical_entry_order() {
        let experiment = ExperimentId::Fig05Ffmpeg;
        let grid_entries = entries(experiment);
        let outputs: Vec<Vec<CellOutput>> = grid_entries
            .iter()
            .map(|entry| {
                (0..2)
                    .map(|trial| run_cell(experiment, entry, trial, &cfg()))
                    .collect()
            })
            .collect();
        let fig = merge(experiment, &outputs);
        let xs: Vec<&str> = fig.series[0].points.iter().map(|p| p.x.as_str()).collect();
        let expected: Vec<&str> = grid_entries.iter().map(|entry| entry.label).collect();
        assert_eq!(xs, expected);
    }
}
