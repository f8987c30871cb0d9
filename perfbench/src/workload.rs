//! The benchmark's workloads and the plan one run of a workload executes.

use harness::grid::{self, Entry};
use harness::{ExperimentId, RunConfig};

/// One benchmark workload: a fixed set of experiments, every cell of
/// which runs in quick mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 15 experiments (Figs. 5–18 and Sec. 3.1).
    Paper,
    /// The open-loop load, tenant-isolation and pipeline sweeps.
    OpenLoop,
    /// The sharded-cluster and failover sweeps. It runs by hand;
    /// `BENCHMARK.json` leaves it out so that its two workloads get runs
    /// long enough to be steady on a shared host.
    Cluster,
}

impl Workload {
    /// Every workload the command accepts; `BENCHMARK.json` lists the
    /// first two.
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::OpenLoop, Workload::Cluster];

    /// The workload named on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::OpenLoop => "open_loop",
            Workload::Cluster => "cluster",
        }
    }

    /// Whether the workload runs `experiment`.
    pub fn includes(self, experiment: ExperimentId) -> bool {
        use ExperimentId::*;
        match self {
            Workload::Paper => matches!(
                experiment,
                Fig05Ffmpeg
                    | SysbenchPrime
                    | Fig06MemLatency
                    | Fig07MemBandwidth
                    | Fig08Stream
                    | Fig09FioThroughput
                    | Fig10FioLatency
                    | Fig11Iperf
                    | Fig12Netperf
                    | Fig13BootContainers
                    | Fig14BootHypervisors
                    | Fig15BootOsv
                    | Fig16Memcached
                    | Fig17Mysql
                    | Fig18Hap
            ),
            Workload::OpenLoop => matches!(
                experiment,
                LoadMemcached
                    | LoadMysql
                    | TenantIsolationMemcached
                    | TenantIsolationMysql
                    | PipelineMemcached
                    | PipelineMysql
            ),
            Workload::Cluster => matches!(
                experiment,
                ClusterMemcached | ClusterMysql | ClusterFailoverMemcached | ClusterFailoverMysql
            ),
        }
    }

    /// The workload's experiments, in paper order.
    pub fn experiments(self) -> Vec<ExperimentId> {
        ExperimentId::all()
            .iter()
            .copied()
            .filter(|e| self.includes(*e))
            .collect()
    }
}

/// The request family an experiment's cells belong to, for the
/// per-request layer metrics.
pub fn family(experiment: ExperimentId) -> Option<&'static str> {
    use ExperimentId::*;
    Some(match experiment {
        Fig16Memcached => "ycsb",
        Fig17Mysql => "oltp",
        LoadMemcached | LoadMysql => "loadgen",
        TenantIsolationMemcached | TenantIsolationMysql => "tenancy",
        PipelineMemcached | PipelineMysql => "pipeline",
        ClusterMemcached | ClusterMysql => "cluster",
        ClusterFailoverMemcached | ClusterFailoverMysql => "failover",
        _ => return None,
    })
}

/// The open-loop request families, whose cells return per-point counts.
pub const SWEEP_FAMILIES: [&str; 5] = ["loadgen", "tenancy", "pipeline", "cluster", "failover"];

/// One experiment of a plan: its platform entries and trial count.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Which experiment.
    pub id: ExperimentId,
    /// Its platform entries, in figure order.
    pub entries: Vec<Entry>,
    /// Trials per entry.
    pub trials: usize,
}

impl Experiment {
    /// The experiment's cell count.
    pub fn cells(&self) -> usize {
        self.entries.len() * self.trials
    }
}

/// What one run of a workload executes: the quick-mode configuration at
/// the run's seed and every cell of the workload's experiments.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The configuration every cell receives.
    pub config: RunConfig,
    /// The experiments, in paper order.
    pub experiments: Vec<Experiment>,
}

impl Plan {
    /// Builds the plan of `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let config = RunConfig::quick(seed);
        let experiments = workload
            .experiments()
            .into_iter()
            .map(|id| Experiment {
                id,
                entries: grid::entries(id),
                trials: grid::trials(id, &config),
            })
            .collect();
        Plan {
            workload,
            config,
            experiments,
        }
    }

    /// Total cells of one pass over the plan.
    pub fn cells(&self) -> usize {
        self.experiments.iter().map(Experiment::cells).sum()
    }

    /// The plan index of `id`, if the plan runs it.
    pub fn index_of(&self, id: ExperimentId) -> Option<usize> {
        self.experiments.iter().position(|x| x.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::RunPlan;

    #[test]
    fn every_experiment_belongs_to_exactly_one_workload() {
        for e in ExperimentId::all() {
            let owners = Workload::ALL.iter().filter(|w| w.includes(*e)).count();
            assert_eq!(owners, 1, "{}", e.slug());
        }
        assert_eq!(Workload::Paper.experiments().len(), 15);
    }

    #[test]
    fn a_slug_as_shard_filter_selects_only_that_experiment() {
        for e in ExperimentId::all() {
            let selected = RunPlan::new(RunConfig::quick(1))
                .with_shard(e.slug())
                .experiments();
            assert_eq!(selected, vec![*e]);
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn plan_cell_counts_are_96_open_loop_and_72_cluster() {
        assert_eq!(Plan::new(Workload::OpenLoop, 2021).cells(), 96);
        assert_eq!(Plan::new(Workload::Cluster, 2021).cells(), 72);
    }
}
