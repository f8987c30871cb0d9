//! Staged middleware pipeline model (beyond the paper).
//!
//! Every other experiment charges a request one opaque service time, but
//! production gateway traffic traverses an ordered middleware chain —
//! authentication, session lookup, transforms, routing — where each stage
//! taxes the request on the way **in**, may tax the response on the way
//! **out**, may consult a cache (session store hit vs miss), and may
//! short-circuit the request entirely (an auth rejection or redirect
//! never reaches the backend). This module models exactly that: a
//! [`MiddlewareChain`] of [`Stage`]s, carried as data by the one request
//! class of the crate's open-loop request engine — the engine the
//! [`crate::loadgen`] sweeps run on — so stage costs compose with bounded
//! admission, service slots and platform derating unchanged.
//!
//! The request lifecycle: a Poisson arrival is admitted (or dropped) by
//! the bounded queue exactly as in `loadgen`; on dispatch the engine
//! traverses the chain — every stage charges its in-phase cost, a cached
//! stage charges its hit or miss latency against a warmable hit rate, and
//! a stage may short-circuit, in which case the backend service time is
//! skipped and only the out-phases of the stages already entered run on
//! the response path. The slot is occupied for the full composed time,
//! so middleware cost feeds back into queueing exactly like backend cost.
//!
//! Determinism contract: per-stage cost/cache/short-circuit draws come
//! from per-stage streams that are consumed identically for **every**
//! dispatched request regardless of upstream outcomes, and the
//! arrival/service streams reuse the `loadgen` labels. Two consequences
//! the test battery pins down: sweep points are coupled by common random
//! numbers (monotone curves by coupling, not just in expectation), and a
//! zero-stage chain replays the plain [`crate::loadgen`] sweep **bit for
//! bit**.

use platforms::Platform;
use simcore::error::SimError;
use simcore::obs::Recorder;
use simcore::stats::Cdf;
use simcore::{Nanos, SimRng};

use crate::engine::{self, Arrivals, Class, Pool};
use crate::loadgen::MISC_STREAM;
use crate::slots::{backend_profile, validated_fraction, SlotPolicy};
pub use crate::slots::{LoadBackend, ServiceProfile};

/// Label of the middleware-stage stream, split from the cell stream only
/// when some sweep point has a non-empty chain — a zero-depth sweep must
/// consume the cell stream exactly like [`crate::loadgen`] does.
const STAGE_STREAM: &str = "stages";

fn validated_sigma(what: &str, sigma: f64) -> Result<f64, SimError> {
    if !sigma.is_finite() || sigma < 0.0 {
        return Err(SimError::InvalidConfig(format!(
            "{what} must be finite and non-negative, got {sigma}"
        )));
    }
    Ok(sigma)
}

fn validated_us(what: &str, us: f64) -> Result<Nanos, SimError> {
    validated_sigma(what, us).map(Nanos::from_micros_f64)
}

/// One phase cost: a mean latency plus the log-normal sigma of the
/// per-request distribution around it (0 = deterministic, mean-preserving
/// otherwise — the same shape [`ServiceProfile`] uses for backend time).
#[derive(Debug, Clone, Copy, PartialEq)]
struct StageCost {
    mean: Nanos,
    sigma: f64,
}

impl StageCost {
    fn try_from_us(what: &str, mean_us: f64, sigma: f64) -> Result<Self, SimError> {
        Ok(StageCost {
            mean: validated_us(&format!("{what} cost"), mean_us)?,
            sigma: validated_sigma(&format!("{what} sigma"), sigma)?,
        })
    }

    /// Samples one phase latency. The draw count depends only on the
    /// configuration (zero for a deterministic cost, one normal pair
    /// otherwise), never on outcomes — the stream-alignment contract.
    fn sample(&self, rng: &mut SimRng) -> Nanos {
        if self.sigma <= 0.0 || self.mean == Nanos::ZERO {
            return self.mean;
        }
        let mean = self.mean.as_secs_f64();
        // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2) = mean.
        let sampled = rng.log_normal(mean.ln() - self.sigma * self.sigma / 2.0, self.sigma);
        Nanos::from_secs_f64(sampled)
    }
}

/// A warmable stage cache (e.g. a session store): hits and misses charge
/// different latencies, and the hit rate ramps linearly from cold (0) to
/// the configured target over the first `warm_after` accesses.
#[derive(Debug, Clone, PartialEq)]
struct StageCache {
    hit_cost: Nanos,
    miss_cost: Nanos,
    hit_rate: f64,
    warm_after: u64,
    accesses: u64,
}

impl StageCache {
    fn effective_hit_rate(&self) -> f64 {
        if self.warm_after == 0 {
            return self.hit_rate;
        }
        self.hit_rate * (self.accesses as f64 / self.warm_after as f64).min(1.0)
    }
}

/// One middleware stage: a mandatory in-phase cost, an optional out-phase
/// (response path) cost, an optional cache consulted during the in-phase,
/// and an optional short-circuit probability (auth rejection, redirect)
/// that skips the backend and every downstream stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Stage name, for debugging and study output.
    pub name: String,
    in_cost: StageCost,
    out_cost: Option<StageCost>,
    short_circuit: f64,
    cache: Option<StageCache>,
}

impl Stage {
    /// A stage charging `in_us` microseconds (log-normal `sigma` around
    /// that mean; 0 = deterministic) on the request path.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a non-finite or negative
    /// cost or sigma — mirroring [`ServiceProfile::try_new`], degenerate
    /// stage models fail loudly instead of saturating silently.
    pub fn try_new(name: &str, in_us: f64, sigma: f64) -> Result<Self, SimError> {
        Ok(Stage {
            name: name.to_string(),
            in_cost: StageCost::try_from_us("stage in-phase", in_us, sigma)?,
            out_cost: None,
            short_circuit: 0.0,
            cache: None,
        })
    }

    /// Adds a response-path (out-phase) cost to the stage.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a non-finite or negative
    /// cost or sigma.
    pub fn with_out_phase(mut self, out_us: f64, sigma: f64) -> Result<Self, SimError> {
        self.out_cost = Some(StageCost::try_from_us("stage out-phase", out_us, sigma)?);
        Ok(self)
    }

    /// Adds a per-request short-circuit probability: with rate `rate` the
    /// stage terminates the request (the backend and all downstream
    /// stages are skipped; the response still pays the out-phases of the
    /// stages already entered, this one included).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] unless `rate` is a probability
    /// in `[0, 1]`.
    pub fn with_short_circuit(mut self, rate: f64) -> Result<Self, SimError> {
        self.short_circuit = validated_fraction("stage short-circuit rate", rate)?;
        Ok(self)
    }

    /// Adds a warmable cache to the stage's in-phase: an access hits with
    /// the (warmup-ramped) `hit_rate` and charges `hit_us`, otherwise it
    /// charges the `miss_us` penalty. `warm_after` is the access count
    /// over which the hit rate ramps from cold to the target (0 =
    /// pre-warmed).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for non-finite/negative costs
    /// or a `hit_rate` outside `[0, 1]`.
    pub fn with_cache(
        mut self,
        hit_us: f64,
        miss_us: f64,
        hit_rate: f64,
        warm_after: u64,
    ) -> Result<Self, SimError> {
        self.cache = Some(StageCache {
            hit_cost: validated_us("cache hit cost", hit_us)?,
            miss_cost: validated_us("cache miss cost", miss_us)?,
            hit_rate: validated_fraction("cache hit rate", hit_rate)?,
            warm_after,
            accesses: 0,
        });
        Ok(self)
    }

    /// Mean per-request cost of the stage (in + expected cache + out),
    /// using the cache's warm target hit rate.
    fn expected_cost_secs(&self) -> f64 {
        let mut total = self.in_cost.mean.as_secs_f64();
        if let Some(out) = &self.out_cost {
            total += out.mean.as_secs_f64();
        }
        if let Some(cache) = &self.cache {
            total += cache.hit_rate * cache.hit_cost.as_secs_f64()
                + (1.0 - cache.hit_rate) * cache.miss_cost.as_secs_f64();
        }
        total
    }
}

/// The outcome of traversing the chain for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traversal {
    /// Total middleware cost actually charged: in-phases and cache
    /// accesses of every entered stage plus the out-phases of the entered
    /// stages on the response path.
    pub stage_cost: Nanos,
    /// Number of stages the request entered.
    pub stages_traversed: usize,
    /// Index of the stage that short-circuited the request, if any.
    pub short_circuit: Option<usize>,
    /// Cache hits among the entered stages.
    pub cache_hits: u32,
    /// Cache misses among the entered stages.
    pub cache_misses: u32,
}

/// Per-stage detail handed to a [`MiddlewareChain::traverse_with`]
/// observer for every stage the request entered, in chain order — the
/// seam the trace recorder reconstructs per-stage spans from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageVisit {
    /// Index of the stage in the chain.
    pub stage: usize,
    /// In-phase cost charged to the request.
    pub in_cost: Nanos,
    /// Cache access outcome (`Some(true)` = hit), if the stage has one.
    pub cache_hit: Option<bool>,
    /// Cache latency charged (hit or miss cost).
    pub cache_cost: Nanos,
    /// Whether this stage short-circuited the request.
    pub short_circuited: bool,
    /// Out-phase (response path) cost charged.
    pub out_cost: Nanos,
}

/// An ordered chain of middleware stages, traversed in-phase first to
/// last on the request path and out-phase on the response path.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MiddlewareChain {
    stages: Vec<Stage>,
}

impl MiddlewareChain {
    /// A chain of the given stages, traversed in order.
    pub fn new(stages: Vec<Stage>) -> Self {
        MiddlewareChain { stages }
    }

    /// The zero-stage chain: requests pass straight to the backend.
    pub fn empty() -> Self {
        MiddlewareChain::default()
    }

    /// Number of stages in the chain.
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Mean per-request chain cost at the caches' warm target hit rates,
    /// ignoring warmup and short-circuits — the planning figure the sweep
    /// uses to normalize offered load to chain-inclusive capacity.
    pub fn expected_cost(&self) -> Nanos {
        Nanos::from_secs_f64(self.stages.iter().map(Stage::expected_cost_secs).sum())
    }

    /// Traverses the chain for one request, drawing from one stream per
    /// stage (`stage_rngs[i]` belongs to stage `i`).
    ///
    /// Every stage consumes its full draw complement even downstream of a
    /// short-circuit, so the per-stage streams stay aligned request by
    /// request whatever the outcomes — the common-random-numbers coupling
    /// the monotonicity tests rely on. Only entered stages charge costs,
    /// advance their cache warmup, or count hits and misses.
    pub fn traverse(&mut self, stage_rngs: &mut [SimRng]) -> Traversal {
        self.traverse_with(stage_rngs, |_| {})
    }

    /// [`MiddlewareChain::traverse`] with an observer that receives one
    /// [`StageVisit`] per *entered* stage, in chain order.
    ///
    /// The observer is called after the stage's draws, so it cannot
    /// change the draw order: `traverse` itself delegates here with a
    /// no-op observer, which is what makes the traced and untraced
    /// paths provably identical.
    pub fn traverse_with(
        &mut self,
        stage_rngs: &mut [SimRng],
        mut visit: impl FnMut(StageVisit),
    ) -> Traversal {
        debug_assert_eq!(
            stage_rngs.len(),
            self.stages.len(),
            "one stage stream per stage"
        );
        let mut cut = None;
        let mut cost = Nanos::ZERO;
        let mut traversed = 0usize;
        let (mut hits, mut misses) = (0u32, 0u32);
        for (i, (stage, rng)) in self
            .stages
            .iter_mut()
            .zip(stage_rngs.iter_mut())
            .enumerate()
        {
            let entered = cut.is_none();
            let in_cost = stage.in_cost.sample(rng);
            let mut cache_cost = Nanos::ZERO;
            let mut cache_hit = None;
            if let Some(cache) = &mut stage.cache {
                let draw = rng.uniform01();
                if entered {
                    let hit = draw < cache.effective_hit_rate();
                    cache.accesses += 1;
                    cache_hit = Some(hit);
                    if hit {
                        hits += 1;
                        cache_cost = cache.hit_cost;
                    } else {
                        misses += 1;
                        cache_cost = cache.miss_cost;
                    }
                }
            }
            let fired = stage.short_circuit > 0.0 && rng.chance(stage.short_circuit);
            let out_cost = stage
                .out_cost
                .as_ref()
                .map(|c| c.sample(rng))
                .unwrap_or(Nanos::ZERO);
            if entered {
                traversed += 1;
                cost += in_cost + cache_cost + out_cost;
                if fired {
                    cut = Some(i);
                }
                visit(StageVisit {
                    stage: i,
                    in_cost,
                    cache_hit,
                    cache_cost,
                    short_circuited: fired,
                    out_cost,
                });
            }
        }
        Traversal {
            stage_cost: cost,
            stages_traversed: traversed,
            short_circuit: cut,
            cache_hits: hits,
            cache_misses: misses,
        }
    }

    /// Registers one trace lane per stage, `s<i>:<name>` in chain order,
    /// so repeated stage kinds stay distinguishable.
    pub(crate) fn stage_lanes(&self, obs: &mut Recorder) -> Vec<u32> {
        self.stages
            .iter()
            .enumerate()
            .map(|(i, s)| obs.lane(&format!("s{i}:{}", s.name)))
            .collect()
    }
}

/// One point of the pipeline sweep: a chain depth, the auth cache's
/// actual hit rate, and the hit rate the operator *planned* for when
/// provisioning the offered load. The two differ only at the
/// cache-miss-storm point, where traffic planned against a warm cache
/// meets a cold one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineSetting {
    /// Number of middleware stages in front of the backend.
    pub depth: usize,
    /// Actual auth-cache hit rate the chain runs with.
    pub hit_rate: f64,
    /// Hit rate the offered load was provisioned against.
    pub planned_hit_rate: f64,
}

impl PipelineSetting {
    /// A point whose offered load is provisioned against the actual hit
    /// rate (the normal case).
    pub fn new(depth: usize, hit_rate: f64) -> Self {
        PipelineSetting::storm(depth, hit_rate, hit_rate)
    }

    /// A cache-miss-storm point: the chain runs at `hit_rate` but the
    /// offered load was provisioned for `planned_hit_rate`.
    pub fn storm(depth: usize, hit_rate: f64, planned_hit_rate: f64) -> Self {
        PipelineSetting {
            depth,
            hit_rate,
            planned_hit_rate,
        }
    }

    /// The categorical label of the point in figures and reports.
    pub fn label(&self) -> String {
        if (self.planned_hit_rate - self.hit_rate).abs() > 1e-9 {
            format!("d{} miss-storm", self.depth)
        } else {
            format!("d{} h{:.2}", self.depth, self.hit_rate)
        }
    }
    /// The default sweep: chain depth 1–8 at the baseline hit rate, an
    /// auth-cache hit-rate sweep at depth 4, and the cache-miss-storm
    /// point (cold cache, traffic provisioned for the warm one).
    pub fn default_sweep() -> Vec<PipelineSetting> {
        vec![
            PipelineSetting::new(1, BASELINE_HIT_RATE),
            PipelineSetting::new(2, BASELINE_HIT_RATE),
            PipelineSetting::new(4, BASELINE_HIT_RATE),
            PipelineSetting::new(6, BASELINE_HIT_RATE),
            PipelineSetting::new(8, BASELINE_HIT_RATE),
            PipelineSetting::new(4, 1.0),
            PipelineSetting::new(4, 0.75),
            PipelineSetting::new(4, 0.5),
            PipelineSetting::storm(4, 0.0, BASELINE_HIT_RATE),
        ]
    }
}

/// Auth-cache hit rate of the depth sweep and planning basis of the
/// miss-storm point.
pub const BASELINE_HIT_RATE: f64 = 0.9;

/// Names of the non-auth middleware stages, in chain order.
const STAGE_KINDS: [&str; 7] = [
    "session",
    "transform",
    "cors",
    "route",
    "rate-limit",
    "audit",
    "compress",
];

/// Configuration of one middleware-pipeline sweep over chain depth and
/// auth-cache hit rate.
///
/// Stage costs are expressed as fractions of the platform's derated mean
/// backend service time, so the middleware tax scales with the platform
/// exactly like the paper's syscall-path overheads do: a chain that costs
/// 20% of a native request costs 20% of a (much larger) gVisor request.
#[derive(Debug, Clone)]
pub struct PipelineBenchmark {
    /// Which backend terminates the chain.
    pub backend: LoadBackend,
    /// Open-loop client population (connection attribution only).
    pub clients: usize,
    /// Requests offered per sweep point.
    pub requests_per_point: usize,
    /// The depth/hit-rate sweep, one [`PipelineSetting`] per point.
    pub sweep: Vec<PipelineSetting>,
    /// Offered load as a fraction of the chain-inclusive saturation
    /// capacity at the point's *planned* hit rate.
    pub offered_fraction: f64,
    /// Bounded admission queue depth in front of the service slots.
    pub queue_capacity: usize,
    /// Number of parallel service slots.
    pub servers: usize,
    /// Measurement repetitions (trials) per sweep point.
    pub runs: usize,
    /// Execute one real backend operation per this many admitted requests.
    pub op_sample_every: u64,
    /// In-phase cost of every stage, as a fraction of the backend mean.
    pub stage_in_frac: f64,
    /// Out-phase cost of every non-auth stage, as a fraction of the
    /// backend mean (0 disables the out-phase).
    pub stage_out_frac: f64,
    /// Auth-cache hit latency as a fraction of the backend mean.
    pub cache_hit_frac: f64,
    /// Auth-cache miss penalty as a fraction of the backend mean.
    pub cache_miss_frac: f64,
    /// Short-circuit (rejection) probability of the auth stage.
    pub auth_reject_rate: f64,
    /// Accesses over which the auth cache warms from cold to its target
    /// hit rate (0 = pre-warmed).
    pub cache_warm_after: u64,
    /// Log-normal sigma of per-request stage costs (0 = deterministic).
    pub stage_sigma: f64,
}

impl PipelineBenchmark {
    /// The full-scale configuration for a backend.
    pub fn new(backend: LoadBackend) -> Self {
        PipelineBenchmark {
            backend,
            clients: 10_000,
            requests_per_point: 20_000,
            sweep: PipelineSetting::default_sweep(),
            offered_fraction: 0.7,
            queue_capacity: 8_192,
            servers: 16,
            runs: 5,
            op_sample_every: 4,
            stage_in_frac: 0.12,
            stage_out_frac: 0.05,
            cache_hit_frac: 0.05,
            cache_miss_frac: 1.2,
            auth_reject_rate: 0.03,
            cache_warm_after: 256,
            stage_sigma: 0.2,
        }
    }

    /// A scaled-down configuration for unit tests and quick runs.
    pub fn quick(backend: LoadBackend) -> Self {
        PipelineBenchmark {
            clients: 256,
            requests_per_point: 2_500,
            runs: 3,
            ..PipelineBenchmark::new(backend)
        }
    }

    /// The platform's backend service profile under this configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a degenerate profile — an
    /// empty slot pool, or a platform derate that collapses the service
    /// time to zero.
    pub fn service_profile(&self, platform: &Platform) -> Result<ServiceProfile, SimError> {
        backend_profile(self.backend, platform, self.servers)
    }

    /// Builds the middleware chain for one sweep point: an `auth` stage
    /// with the warmable session cache and the rejection short-circuit,
    /// followed by `depth - 1` transform-style stages with in- and
    /// out-phase costs. Depth 0 yields the empty chain.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any configured cost
    /// fraction, sigma or rate is degenerate (non-finite, negative, or a
    /// rate outside `[0, 1]`).
    pub fn chain_for(
        &self,
        profile: &ServiceProfile,
        depth: usize,
        hit_rate: f64,
    ) -> Result<MiddlewareChain, SimError> {
        let svc_us = profile.service_time.as_micros_f64();
        let mut stages = Vec::with_capacity(depth);
        for i in 0..depth {
            let stage = if i == 0 {
                Stage::try_new("auth", self.stage_in_frac * svc_us, self.stage_sigma)?
                    .with_cache(
                        self.cache_hit_frac * svc_us,
                        self.cache_miss_frac * svc_us,
                        hit_rate,
                        self.cache_warm_after,
                    )?
                    .with_short_circuit(self.auth_reject_rate)?
            } else {
                let name = STAGE_KINDS[(i - 1) % STAGE_KINDS.len()];
                let stage = Stage::try_new(name, self.stage_in_frac * svc_us, self.stage_sigma)?;
                if self.stage_out_frac > 0.0 {
                    stage.with_out_phase(self.stage_out_frac * svc_us, self.stage_sigma)?
                } else {
                    stage
                }
            };
            stages.push(stage);
        }
        Ok(MiddlewareChain::new(stages))
    }

    /// Runs the whole depth/hit-rate sweep once and returns one
    /// [`PipelinePoint`] per configured setting.
    ///
    /// This is the unit the parallel executor shards on. The arrival and
    /// service streams are common random numbers across the sweep points
    /// (the `loadgen` discipline), and the per-stage streams are derived
    /// so that two depths share the streams of their common stage prefix.
    ///
    /// # Errors
    ///
    /// Propagates the degenerate-profile error of
    /// [`PipelineBenchmark::service_profile`] and the degenerate-chain
    /// error of [`PipelineBenchmark::chain_for`], and rejects a
    /// configuration with no requests per point.
    pub fn run_trial(
        &self,
        platform: &Platform,
        rng: &mut SimRng,
    ) -> Result<Vec<PipelinePoint>, SimError> {
        let profile = self.service_profile(platform)?;
        // Common random numbers: every sweep point replays the same
        // unit-rate arrival gaps and the same backend service sequence.
        let arrival = rng.split("arrivals");
        let service = rng.split("service");
        // The stage stream only exists when some point has a non-empty
        // chain: splitting advances the parent stream, and a zero-depth
        // sweep must consume the cell stream exactly like `loadgen`.
        let stage_root = self
            .sweep
            .iter()
            .any(|s| s.depth > 0)
            .then(|| rng.split(STAGE_STREAM));
        self.sweep
            .iter()
            .map(|setting| {
                self.run_with_streams(
                    &profile,
                    setting,
                    arrival.clone(),
                    service.clone(),
                    stage_root.clone(),
                    rng,
                    None,
                )
                .map(|(point, _)| point)
            })
            .collect()
    }

    /// Runs one sweep setting, with an optional trace [`Recorder`]
    /// attached.
    ///
    /// The recorder comes back loaded with the admission and per-stage
    /// span timeline of the sampled requests, the windowed pool/stage
    /// time-series, and the event-core counter profile. Tracing is
    /// observation only — the recorder consumes no random draws, so the
    /// point equals the same setting inside an untraced
    /// [`PipelineBenchmark::run_trial`] of the same streams.
    ///
    /// # Errors
    ///
    /// Propagates the degenerate-profile and degenerate-chain errors of
    /// [`PipelineBenchmark::service_profile`] and
    /// [`PipelineBenchmark::chain_for`], and rejects a configuration with
    /// no requests per point.
    pub fn run_setting(
        &self,
        platform: &Platform,
        setting: &PipelineSetting,
        rng: &mut SimRng,
        recorder: Option<Recorder>,
    ) -> Result<(PipelinePoint, Option<Recorder>), SimError> {
        let profile = self.service_profile(platform)?;
        let arrival = rng.split("arrivals");
        let service = rng.split("service");
        let stage_root = (setting.depth > 0).then(|| rng.split(STAGE_STREAM));
        self.run_with_streams(
            &profile, setting, arrival, service, stage_root, rng, recorder,
        )
    }

    /// Runs one sweep point. `misc_rng` is the cell stream the
    /// timing-irrelevant draws are split from, one split per point — the
    /// same discipline as the `loadgen` sweep.
    #[allow(clippy::too_many_arguments)]
    fn run_with_streams(
        &self,
        profile: &ServiceProfile,
        setting: &PipelineSetting,
        arrival_rng: SimRng,
        service_rng: SimRng,
        stage_root: Option<SimRng>,
        misc_rng: &mut SimRng,
        obs: Option<Recorder>,
    ) -> Result<(PipelinePoint, Option<Recorder>), SimError> {
        let chain = self.chain_for(profile, setting.depth, setting.hit_rate)?;
        let planned = self.chain_for(profile, setting.depth, setting.planned_hit_rate)?;
        // Chain-inclusive capacity at the planned hit rate: the sweep
        // holds utilization constant across depths, so the miss-storm
        // point (planned warm, actually cold) lands above saturation.
        let per_request = profile.service_time + planned.expected_cost();
        let capacity_per_sec = profile.servers as f64 / per_request.as_secs_f64();
        let offered_per_sec = capacity_per_sec * self.offered_fraction.max(0.0);
        // One stream per stage, derived in stage order: depths d and d+1
        // share the streams of stages 0..d, coupling the depth sweep.
        let stage_rngs: Vec<SimRng> = match stage_root {
            Some(mut root) => (0..chain.depth())
                .map(|i| root.split(&format!("s{i}")))
                .collect(),
            None => Vec::new(),
        };
        let class = Class {
            lane: "pool".into(),
            arrivals: Arrivals::counted(arrival_rng, self.requests_per_point, offered_per_sec),
            profile: *profile,
            service_rng,
            chain,
            stage_rngs,
            backend: self.backend,
            clients: self.clients,
            weight: 1,
            queue_capacity: self.queue_capacity,
        };
        let pool = Pool {
            servers: profile.servers,
            policy: SlotPolicy::FifoArrival,
            op_sample_every: self.op_sample_every,
            probes: true,
        };
        let mut run = engine::run(&pool, vec![class], misc_rng.split(MISC_STREAM), obs)?;
        let class = run.classes.remove(0);
        let l = class.ledger;
        let responded = l.completed + l.short_circuited;
        let cdf = Cdf::from_samples(class.sojourns_us)
            .expect("a validated sweep point responds to at least one request");
        let duration = run.end.as_secs_f64().max(f64::MIN_POSITIVE);
        let denom = responded.max(1) as f64;
        let accesses = (class.cache_hits + class.cache_misses).max(1) as f64;
        let point = PipelinePoint {
            label: setting.label(),
            depth: setting.depth,
            hit_rate: setting.hit_rate,
            planned_hit_rate: setting.planned_hit_rate,
            offered_per_sec,
            achieved_per_sec: l.completed as f64 / duration,
            p50_us: cdf.percentile(50.0),
            p95_us: cdf.percentile(95.0),
            p99_us: cdf.percentile(99.0),
            mean_us: cdf.mean(),
            stage_tax_us: class.stage_cost_ns as f64 / denom / 1e3,
            mean_depth: class.stages_entered as f64 / denom,
            short_circuit_fraction: l.short_circuited as f64 / denom,
            cache_hit_fraction: class.cache_hits as f64 / accesses,
            completed: l.completed,
            short_circuited: l.short_circuited,
            dropped: l.dropped,
            drop_fraction: l.dropped as f64 / l.issued.max(1) as f64,
            peak_in_flight: run.peak_in_flight,
            mean_in_flight: run.mean_in_flight,
            min_slack_us: if class.min_slack_ns == i128::MAX {
                0.0
            } else {
                class.min_slack_ns as f64 / 1e3
            },
        };
        Ok((point, run.obs))
    }
}

/// One measured point of the pipeline sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelinePoint {
    /// Categorical sweep label (e.g. `d4 h0.90`, `d4 miss-storm`).
    pub label: String,
    /// Chain depth of the point.
    pub depth: usize,
    /// Actual auth-cache hit rate.
    pub hit_rate: f64,
    /// Hit rate the offered load was provisioned against.
    pub planned_hit_rate: f64,
    /// Offered load in requests per second.
    pub offered_per_sec: f64,
    /// Backend-served (not short-circuited) throughput in requests/sec.
    pub achieved_per_sec: f64,
    /// Median sojourn time (queueing + chain + service) in microseconds.
    pub p50_us: f64,
    /// 95th-percentile sojourn time in microseconds.
    pub p95_us: f64,
    /// 99th-percentile sojourn time in microseconds.
    pub p99_us: f64,
    /// Mean sojourn time in microseconds.
    pub mean_us: f64,
    /// Mean middleware cost actually charged per response (the per-stage
    /// latency tax summed over the entered stages), in microseconds.
    pub stage_tax_us: f64,
    /// Mean number of stages entered per response.
    pub mean_depth: f64,
    /// Fraction of responses that were short-circuited by a stage.
    pub short_circuit_fraction: f64,
    /// Auth-cache hit fraction over the point's accesses (warmup
    /// included).
    pub cache_hit_fraction: f64,
    /// Requests served by the backend.
    pub completed: u64,
    /// Requests short-circuited by a middleware stage.
    pub short_circuited: u64,
    /// Requests dropped by the bounded admission queue.
    pub dropped: u64,
    /// Dropped fraction of all issued requests.
    pub drop_fraction: f64,
    /// Peak number of in-flight requests (in service + queued).
    pub peak_in_flight: usize,
    /// Time-averaged in-flight depth from fixed-cadence probes.
    pub mean_in_flight: f64,
    /// Minimum over all responses of sojourn minus charged middleware
    /// cost, in microseconds — non-negative by construction (a request
    /// can never respond faster than the stages it traversed), the floor
    /// the latency-bound property test pins down.
    pub min_slack_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::LoadgenBenchmark;
    use platforms::PlatformId;
    use simcore::obs::SpanKind;

    fn tiny(backend: LoadBackend) -> PipelineBenchmark {
        PipelineBenchmark {
            clients: 64,
            requests_per_point: 600,
            runs: 1,
            ..PipelineBenchmark::quick(backend)
        }
    }

    #[test]
    fn percentiles_are_ordered_and_trials_deterministic_per_seed() {
        let bench = tiny(LoadBackend::Memcached);
        let platform = PlatformId::Docker.build();
        let a = bench
            .run_trial(&platform, &mut SimRng::seed_from(91))
            .unwrap();
        assert_eq!(a.len(), bench.sweep.len());
        for p in &a {
            assert!(
                p.p50_us <= p.p95_us && p.p95_us <= p.p99_us,
                "percentiles out of order at {}: {p:?}",
                p.label
            );
            assert!(p.p50_us > 0.0);
            assert!(p.completed > 0);
            assert!(p.min_slack_us >= 0.0, "{}: {p:?}", p.label);
        }
        let b = bench
            .run_trial(&platform, &mut SimRng::seed_from(91))
            .unwrap();
        assert_eq!(a, b);
        let c = bench
            .run_trial(&platform, &mut SimRng::seed_from(92))
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn deeper_chains_charge_a_larger_stage_tax_and_higher_latency() {
        let mut bench = tiny(LoadBackend::Memcached);
        bench.sweep = vec![
            PipelineSetting::new(1, BASELINE_HIT_RATE),
            PipelineSetting::new(4, BASELINE_HIT_RATE),
            PipelineSetting::new(8, BASELINE_HIT_RATE),
        ];
        let points = bench
            .run_trial(&PlatformId::Native.build(), &mut SimRng::seed_from(93))
            .unwrap();
        for pair in points.windows(2) {
            assert!(
                pair[1].stage_tax_us > pair[0].stage_tax_us,
                "stage tax must grow with depth: {pair:?}"
            );
            assert!(
                pair[1].p50_us > pair[0].p50_us,
                "p50 must grow with depth: {pair:?}"
            );
            assert!(pair[1].mean_depth > pair[0].mean_depth);
        }
    }

    #[test]
    fn requests_are_conserved_under_short_circuits_and_drops() {
        let mut bench = tiny(LoadBackend::Memcached);
        bench.auth_reject_rate = 0.3;
        bench.queue_capacity = 4;
        bench.offered_fraction = 2.0; // force drops at the bounded queue
        bench.sweep = vec![PipelineSetting::new(3, 0.8)];
        let p = &bench
            .run_trial(&PlatformId::Qemu.build(), &mut SimRng::seed_from(94))
            .unwrap()[0];
        assert_eq!(
            p.completed + p.short_circuited + p.dropped,
            bench.requests_per_point as u64
        );
        assert!(p.short_circuited > 0, "30% rejection must short-circuit");
        assert!(p.dropped > 0, "2x overload must hit the admission bound");
        assert!(p.short_circuit_fraction > 0.2 && p.short_circuit_fraction < 0.4);
    }

    #[test]
    fn a_cold_cache_warms_toward_its_target_hit_rate() {
        let mut warm = tiny(LoadBackend::Memcached);
        warm.cache_warm_after = 0;
        warm.sweep = vec![PipelineSetting::new(2, 0.9)];
        let mut cold = warm.clone();
        cold.cache_warm_after = 5_000; // warms over ~8x the request count
        let platform = PlatformId::Native.build();
        let hot = warm
            .run_trial(&platform, &mut SimRng::seed_from(95))
            .unwrap()[0]
            .cache_hit_fraction;
        let ramp = cold
            .run_trial(&platform, &mut SimRng::seed_from(95))
            .unwrap()[0]
            .cache_hit_fraction;
        assert!(
            (hot - 0.9).abs() < 0.05,
            "pre-warmed cache must hit near its target, got {hot}"
        );
        assert!(
            ramp < hot * 0.5,
            "a slowly warming cache must hit far less, got {ramp} vs {hot}"
        );
    }

    #[test]
    fn a_full_hit_cache_equals_the_cacheless_constant_cost_chain() {
        // Chain-level equivalence: a stage whose cache always hits is the
        // same stage with the hit cost folded into its in-phase cost.
        let cached = Stage::try_new("auth", 10.0, 0.0)
            .unwrap()
            .with_cache(5.0, 500.0, 1.0, 0)
            .unwrap();
        let folded = Stage::try_new("auth", 15.0, 0.0).unwrap();
        let tail = Stage::try_new("transform", 12.0, 0.0)
            .unwrap()
            .with_out_phase(4.0, 0.0)
            .unwrap();
        let mut a = MiddlewareChain::new(vec![cached, tail.clone()]);
        let mut b = MiddlewareChain::new(vec![folded, tail]);
        let mut root = SimRng::seed_from(96);
        let mut rngs_a: Vec<SimRng> = (0..2).map(|i| root.split(&format!("a{i}"))).collect();
        let mut rngs_b: Vec<SimRng> = (0..2).map(|i| root.split(&format!("b{i}"))).collect();
        for _ in 0..200 {
            let ta = a.traverse(&mut rngs_a);
            let tb = b.traverse(&mut rngs_b);
            assert_eq!(ta.stage_cost, tb.stage_cost);
            assert_eq!(ta.stages_traversed, tb.stages_traversed);
        }
    }

    #[test]
    fn zero_stage_chain_matches_the_plain_loadgen_path_bit_for_bit() {
        // The degenerate-config regression contract: a depth-0 pipeline
        // must replay the plain SlotPool load sweep exactly — identical
        // streams, identical event schedule, identical measurements.
        for backend in [LoadBackend::Memcached, LoadBackend::Mysql] {
            let pipeline = PipelineBenchmark {
                sweep: vec![PipelineSetting::new(0, BASELINE_HIT_RATE)],
                offered_fraction: 0.8,
                ..tiny(backend)
            };
            let loadgen = LoadgenBenchmark {
                clients: 64,
                requests_per_point: 600,
                runs: 1,
                load_points: vec![0.8],
                ..LoadgenBenchmark::quick(backend)
            };
            for platform in [PlatformId::Native, PlatformId::GvisorPtrace] {
                let platform = platform.build();
                let p = &pipeline
                    .run_trial(&platform, &mut SimRng::seed_from(97))
                    .unwrap()[0];
                let l = &loadgen
                    .run_trial(&platform, &mut SimRng::seed_from(97))
                    .unwrap()[0];
                assert_eq!(p.offered_per_sec, l.offered_per_sec);
                assert_eq!(p.achieved_per_sec, l.achieved_per_sec);
                assert_eq!(p.p50_us, l.p50_us);
                assert_eq!(p.p95_us, l.p95_us);
                assert_eq!(p.p99_us, l.p99_us);
                assert_eq!(p.mean_us, l.mean_us);
                assert_eq!(p.completed, l.completed);
                assert_eq!(p.dropped, l.dropped);
                assert_eq!(p.peak_in_flight, l.peak_in_flight);
                assert_eq!(p.mean_in_flight, l.mean_in_flight);
                assert_eq!(p.stage_tax_us, 0.0);
                assert_eq!(p.short_circuited, 0);
            }
        }
    }

    #[test]
    fn zero_cost_single_stage_chain_matches_the_loadgen_timings_bit_for_bit() {
        // A single stage with all-zero costs, no short-circuit and a
        // free cache consumes no timing-relevant draws: every latency
        // and throughput figure must equal the plain loadgen path's.
        let pipeline = PipelineBenchmark {
            sweep: vec![PipelineSetting::new(1, BASELINE_HIT_RATE)],
            offered_fraction: 0.8,
            stage_in_frac: 0.0,
            stage_out_frac: 0.0,
            cache_hit_frac: 0.0,
            cache_miss_frac: 0.0,
            auth_reject_rate: 0.0,
            ..tiny(LoadBackend::Memcached)
        };
        let loadgen = LoadgenBenchmark {
            clients: 64,
            requests_per_point: 600,
            runs: 1,
            load_points: vec![0.8],
            ..LoadgenBenchmark::quick(LoadBackend::Memcached)
        };
        let platform = PlatformId::Docker.build();
        let p = &pipeline
            .run_trial(&platform, &mut SimRng::seed_from(98))
            .unwrap()[0];
        let l = &loadgen
            .run_trial(&platform, &mut SimRng::seed_from(98))
            .unwrap()[0];
        assert_eq!(p.offered_per_sec, l.offered_per_sec);
        assert_eq!(p.achieved_per_sec, l.achieved_per_sec);
        assert_eq!(p.p50_us, l.p50_us);
        assert_eq!(p.p95_us, l.p95_us);
        assert_eq!(p.p99_us, l.p99_us);
        assert_eq!(p.mean_us, l.mean_us);
        assert_eq!(p.completed, l.completed);
        assert_eq!(p.dropped, l.dropped);
        assert_eq!(p.peak_in_flight, l.peak_in_flight);
        assert_eq!(p.mean_in_flight, l.mean_in_flight);
        assert_eq!(p.mean_depth, 1.0, "every request enters the free stage");
    }

    #[test]
    fn tracing_is_observation_only_and_reconstructs_stage_spans() {
        use simcore::obs::ObsConfig;
        let mut bench = tiny(LoadBackend::Memcached);
        bench.auth_reject_rate = 0.1;
        let setting = PipelineSetting::new(3, 0.8);
        bench.sweep = vec![setting];
        let platform = PlatformId::Native.build();
        let plain = &bench
            .run_trial(&platform, &mut SimRng::seed_from(101))
            .unwrap()[0];
        let recorder = Recorder::try_new(ObsConfig::new(5, 1.0)).unwrap();
        let (traced, recorder) = bench
            .run_setting(
                &platform,
                &setting,
                &mut SimRng::seed_from(101),
                Some(recorder),
            )
            .unwrap();
        let recorder = recorder.expect("the recorder threads through the run");
        assert_eq!(*plain, traced, "the recorder must not perturb the run");
        let spans = recorder.spans();
        let has = |k: SpanKind| spans.iter().any(|s| s.kind == k);
        assert!(has(SpanKind::AdmissionWait) && has(SpanKind::SlotService));
        assert!(has(SpanKind::StageIn) && has(SpanKind::StageOut));
        assert!(has(SpanKind::CacheHit) && has(SpanKind::CacheMiss));
        assert!(has(SpanKind::ShortCircuit), "10% rejection must appear");
        // The stage lanes carry the cache series; the pool lane carries
        // admission and service.
        let timeline = recorder.timeline_json("pipeline", 101);
        assert!(timeline.contains("\"lane\": \"pool\""));
        assert!(timeline.contains("\"lane\": \"s0:auth\""));
        assert!(timeline.contains("\"lane\": \"s1:session\""));
    }

    #[test]
    fn degenerate_stage_models_fail_loudly() {
        assert!(Stage::try_new("auth", f64::NAN, 0.2).is_err());
        assert!(Stage::try_new("auth", -1.0, 0.2).is_err());
        assert!(Stage::try_new("auth", f64::INFINITY, 0.2).is_err());
        assert!(Stage::try_new("auth", 10.0, -0.1).is_err());
        assert!(Stage::try_new("auth", 10.0, f64::NAN).is_err());
        let stage = || Stage::try_new("auth", 10.0, 0.2).unwrap();
        assert!(stage().with_out_phase(f64::NEG_INFINITY, 0.0).is_err());
        assert!(stage().with_out_phase(5.0, -1.0).is_err());
        assert!(stage().with_short_circuit(1.5).is_err());
        assert!(stage().with_short_circuit(-0.1).is_err());
        assert!(stage().with_short_circuit(f64::NAN).is_err());
        assert!(stage().with_cache(-5.0, 50.0, 0.9, 0).is_err());
        assert!(stage().with_cache(5.0, f64::NAN, 0.9, 0).is_err());
        assert!(stage().with_cache(5.0, 50.0, 1.1, 0).is_err());
        // A degenerate benchmark configuration surfaces through run_trial.
        let bench = PipelineBenchmark {
            stage_in_frac: f64::NAN,
            ..tiny(LoadBackend::Memcached)
        };
        assert!(bench
            .run_trial(&PlatformId::Native.build(), &mut SimRng::seed_from(99))
            .is_err());
        let empty_pool = PipelineBenchmark {
            servers: 0,
            ..tiny(LoadBackend::Memcached)
        };
        assert!(empty_pool
            .run_trial(&PlatformId::Native.build(), &mut SimRng::seed_from(99))
            .is_err());
    }

    #[test]
    fn a_point_with_no_requests_is_a_loud_configuration_error() {
        let bench = PipelineBenchmark {
            requests_per_point: 0,
            ..tiny(LoadBackend::Memcached)
        };
        let err = bench
            .run_trial(&PlatformId::Native.build(), &mut SimRng::seed_from(102))
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn the_miss_storm_overloads_the_planned_capacity() {
        let mut bench = tiny(LoadBackend::Memcached);
        bench.sweep = vec![
            PipelineSetting::new(4, BASELINE_HIT_RATE),
            PipelineSetting::storm(4, 0.0, BASELINE_HIT_RATE),
        ];
        let points = bench
            .run_trial(&PlatformId::Native.build(), &mut SimRng::seed_from(100))
            .unwrap();
        let (warm, storm) = (&points[0], &points[1]);
        assert_eq!(
            warm.offered_per_sec, storm.offered_per_sec,
            "the storm runs at the load planned for the warm cache"
        );
        assert!(
            storm.p99_us > warm.p99_us * 1.5,
            "a cold cache under warm-planned load must blow up the tail: \
             {} vs {}",
            storm.p99_us,
            warm.p99_us
        );
        assert!(storm.cache_hit_fraction < 0.01);
    }
}
