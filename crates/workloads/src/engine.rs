//! The one open-loop request engine of the load, pipeline and tenancy
//! sweeps.
//!
//! [`crate::loadgen`], [`crate::pipeline`] and [`crate::tenancy`] are
//! three configurations of this engine, not three simulators. A run is a
//! list of request **classes** sharing one derated [`SlotPool`]; each
//! class carries its arrival source, its [`ServiceProfile`] and service
//! stream, a middleware chain traversed at dispatch (empty for plain
//! requests), its sampled [`BackendState`], its bounded queue and DRR
//! weight, and the name of its trace lane:
//!
//! * loadgen is one class with an empty chain and in-flight probes;
//! * pipeline is one class whose [`MiddlewareChain`] is traversed at
//!   dispatch, plus probes;
//! * tenancy is one class per tenant under [`SlotPolicy::WeightedDrr`] or
//!   [`SlotPolicy::FifoArrival`], with no chain and no probes.
//!
//! The run is a loop over a typed [`EventQueue`] of [`Ev`]s. Arrivals are
//! pushed in chunks, so the pending-event count stays bounded whatever
//! the request count. In-service requests wait in one [`CompletionTimer`]
//! whose coalesced wakes drain a whole timing-wheel slot per clock
//! advance. Each arrival draws, in order: its connection index (the
//! client population's attribution draw, kept so no stream moves), the
//! sampled backend operation, then on dispatch its service time and its
//! chain traversal. Every class keeps one issued / completed /
//! short-circuited / dropped [`Ledger`], checked once per run in release
//! builds too.

use simcore::error::SimError;
use simcore::obs::{Recorder, SpanKind};
use simcore::resource::CompletionTimer;
use simcore::stats::RunningStats;
use simcore::{EventQueue, Nanos, SimRng};

use crate::pipeline::{MiddlewareChain, StageVisit};
use crate::slots::{
    Admission, BackendState, ClassConfig, LoadBackend, ServiceProfile, SlotPolicy, SlotPool,
    StoreSnapshot,
};
use crate::tenancy::ArrivalGen;

/// In-flight probes per probed run, spread evenly over the expected
/// arrival window.
const PROBES: u32 = 64;

/// Arrivals a count-bounded source pushes per generate event (the
/// cluster tier's batched source uses the same chunk).
pub(crate) const ARRIVAL_CHUNK: u64 = 512;

/// The arrival source of one class. The two kinds round differently —
/// offsets summed in [`Nanos`] versus a clock kept in `f64` seconds — so
/// they stay two sources rather than one parameterized one.
pub(crate) enum Arrivals {
    /// Exactly `requests` Poisson arrivals at `rate` per second, `remaining`
    /// of them not yet pushed: chunks of [`ARRIVAL_CHUNK`] unit-rate gaps,
    /// scaled by the rate and summed in [`Nanos`] from the generating
    /// event's timestamp.
    Counted {
        rng: SimRng,
        rate: f64,
        requests: u64,
        remaining: u64,
    },
    /// An [`ArrivalGen`] sample path until its `f64`-seconds clock passes
    /// the window, pushed in chunks of 256.
    Windowed {
        gen: ArrivalGen,
        clock_secs: f64,
        window_secs: f64,
    },
}

impl Arrivals {
    /// `requests` Poisson arrivals at `rate` per second (floored at 1/s).
    pub(crate) fn counted(rng: SimRng, requests: usize, rate: f64) -> Self {
        Arrivals::Counted {
            rng,
            rate: rate.max(1.0),
            requests: requests as u64,
            remaining: requests as u64,
        }
    }

    /// The arrivals of `gen` within the first `window_secs` seconds.
    pub(crate) fn windowed(gen: ArrivalGen, window_secs: f64) -> Self {
        Arrivals::Windowed {
            gen,
            clock_secs: 0.0,
            window_secs,
        }
    }

    /// The span the source is expected to cover, the probes' cadence basis.
    fn expected_window(&self) -> Nanos {
        match self {
            Arrivals::Counted { rate, requests, .. } => {
                Nanos::from_secs_f64(*requests as f64 / rate)
            }
            Arrivals::Windowed { window_secs, .. } => Nanos::from_secs_f64(*window_secs),
        }
    }

    /// The generate event of `class` at `now`: pushes the next chunk of
    /// arrivals, then — while the source is open — the next generate
    /// event at the chunk's last arrival (after it, FIFO among equal
    /// timestamps).
    fn generate(&mut self, class: u32, now: Nanos, queue: &mut EventQueue<Ev>) {
        match self {
            Arrivals::Counted {
                rng,
                rate,
                remaining,
                ..
            } => {
                let n = (*remaining).min(ARRIVAL_CHUNK);
                *remaining -= n;
                let mut offset = Nanos::ZERO;
                for _ in 0..n {
                    // Unit-rate gaps scaled by the offered rate: the same
                    // stream compresses uniformly as load grows.
                    offset += Nanos::from_secs_f64(rng.exponential(1.0) / *rate);
                    queue.push(now + offset, Ev::Arrive(class));
                }
                if *remaining > 0 {
                    queue.push(now + offset, Ev::Generate(class));
                }
            }
            Arrivals::Windowed {
                gen,
                clock_secs,
                window_secs,
            } => {
                let mut at = now;
                for _ in 0..256 {
                    *clock_secs += gen.next_gap();
                    if *clock_secs > *window_secs {
                        return;
                    }
                    at = Nanos::from_secs_f64(*clock_secs);
                    queue.push(at, Ev::Arrive(class));
                }
                queue.push(at, Ev::Generate(class));
            }
        }
    }
}

/// One request class: everything the engine needs to drive it.
pub(crate) struct Class {
    /// Trace lane name; chain stages get `s<i>:<stage>` lanes after it.
    pub(crate) lane: String,
    pub(crate) arrivals: Arrivals,
    pub(crate) profile: ServiceProfile,
    pub(crate) service_rng: SimRng,
    /// Traversed at every dispatch; one stream per stage in `stage_rngs`.
    pub(crate) chain: MiddlewareChain,
    pub(crate) stage_rngs: Vec<SimRng>,
    pub(crate) backend: LoadBackend,
    /// Connection population the arrivals are attributed over.
    pub(crate) clients: usize,
    pub(crate) weight: u64,
    pub(crate) queue_capacity: usize,
}

/// The pool the classes share.
pub(crate) struct Pool {
    pub(crate) servers: usize,
    pub(crate) policy: SlotPolicy,
    /// Execute one real backend operation per this many admissions.
    pub(crate) op_sample_every: u64,
    /// Probe the in-flight population across the first class's expected
    /// arrival window.
    pub(crate) probes: bool,
}

/// Where every request of one class ended up.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ledger {
    pub(crate) issued: u64,
    /// Served by the backend.
    pub(crate) completed: u64,
    /// Answered by a middleware stage without reaching the backend.
    pub(crate) short_circuited: u64,
    /// Turned away by the full admission queue.
    pub(crate) dropped: u64,
}

/// The measured outcome of one class.
#[derive(Default)]
pub(crate) struct ClassOutcome {
    pub(crate) ledger: Ledger,
    /// Sojourn time of every response (completed or short-circuited).
    pub(crate) sojourns_us: Vec<f64>,
    /// Middleware cost charged, summed over the responses.
    pub(crate) stage_cost_ns: u128,
    /// Stages entered, summed over the responses.
    pub(crate) stages_entered: u64,
    pub(crate) cache_hits: u64,
    pub(crate) cache_misses: u64,
    /// Minimum over the responses of sojourn minus middleware cost
    /// (`i128::MAX` when nothing responded).
    pub(crate) min_slack_ns: i128,
    pub(crate) store: StoreSnapshot,
}

/// The outcome of one run.
pub(crate) struct Outcome {
    /// One per class, in input order.
    pub(crate) classes: Vec<ClassOutcome>,
    /// Timestamp of the last event.
    pub(crate) end: Nanos,
    /// Peak in-flight population (in service + queued) after an arrival.
    pub(crate) peak_in_flight: usize,
    /// Time-averaged in-flight population from the probes (0 unprobed).
    pub(crate) mean_in_flight: f64,
    /// The recorder passed in, loaded with the run's trace.
    pub(crate) obs: Option<Recorder>,
}

/// The engine's typed events.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Push the next arrival chunk of a class.
    Generate(u32),
    /// One arrival of a class.
    Arrive(u32),
    /// A completion-timer wake.
    Drain,
    /// An in-flight probe with this many probes left, itself included.
    Probe(u32),
}

/// A request queued or in service.
#[derive(Debug, Clone, Copy)]
struct Req {
    /// Arrival index across all classes, the trace-sampling identity.
    id: u64,
    arrived: Nanos,
    class: u32,
    stage_cost: Nanos,
    cut: bool,
}

struct ClassRt {
    class: Class,
    backend: BackendState,
    lane: u32,
    stage_lanes: Vec<u32>,
    out: ClassOutcome,
}

struct Engine {
    classes: Vec<ClassRt>,
    pool: SlotPool<Req>,
    misc_rng: SimRng,
    op_sample_every: u64,
    admitted: u64,
    next_request: u64,
    completions: CompletionTimer<Req>,
    drain_buf: Vec<(Nanos, Req)>,
    dispatch_buf: Vec<(usize, Nanos, Req)>,
    probe_period: Nanos,
    in_flight: RunningStats,
    peak_in_flight: usize,
    /// `None` is the zero-cost untraced path.
    obs: Option<Recorder>,
    visits: Vec<StageVisit>,
}

/// Runs `classes` through one shared `pool` until every arrival source is
/// exhausted and every admitted request has responded. `misc_rng` feeds
/// the timing-irrelevant draws: connection attribution and sampled
/// backend operations.
///
/// Tracing is observation only: `obs` consumes no random draws, so the
/// outcome is the same with or without it.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for a count-bounded source with no
/// requests, or a pool [`SlotPool::new`] rejects.
///
/// # Panics
///
/// Panics if a class's [`Ledger`] does not balance at the end of the run
/// — a leaked request is an engine bug, caught in release builds too.
pub(crate) fn run(
    pool: &Pool,
    classes: Vec<Class>,
    misc_rng: SimRng,
    mut obs: Option<Recorder>,
) -> Result<Outcome, SimError> {
    if classes
        .iter()
        .any(|c| matches!(c.arrivals, Arrivals::Counted { requests: 0, .. }))
    {
        return Err(SimError::InvalidConfig(
            "an open-loop sweep point needs at least one request".into(),
        ));
    }
    let slots = SlotPool::new(
        pool.servers,
        pool.policy,
        classes
            .iter()
            .map(|c| ClassConfig {
                weight: c.weight,
                queue_capacity: c.queue_capacity,
                mean_cost: c.profile.service_time + c.chain.expected_cost(),
            })
            .collect(),
    )?;
    let probe_period = classes[0].arrivals.expected_window() / u64::from(PROBES);
    let classes = classes
        .into_iter()
        .map(|class| {
            let (lane, stage_lanes) = match obs.as_mut() {
                Some(o) => (o.lane(&class.lane), class.chain.stage_lanes(o)),
                None => (0, Vec::new()),
            };
            ClassRt {
                backend: BackendState::build(class.backend),
                lane,
                stage_lanes,
                out: ClassOutcome {
                    min_slack_ns: i128::MAX,
                    ..ClassOutcome::default()
                },
                class,
            }
        })
        .collect::<Vec<_>>();
    let mut queue = EventQueue::new();
    for class in 0..classes.len() {
        queue.push(Nanos::ZERO, Ev::Generate(class as u32));
    }
    if pool.probes {
        queue.push(probe_period, Ev::Probe(PROBES));
    }
    let mut engine = Engine {
        classes,
        pool: slots,
        misc_rng,
        op_sample_every: pool.op_sample_every.max(1),
        admitted: 0,
        next_request: 0,
        completions: CompletionTimer::new(),
        drain_buf: Vec::new(),
        dispatch_buf: Vec::new(),
        probe_period,
        in_flight: RunningStats::new(),
        peak_in_flight: 0,
        obs,
        visits: Vec::new(),
    };
    let mut end = Nanos::ZERO;
    while let Some((now, ev)) = queue.pop() {
        end = now;
        match ev {
            Ev::Generate(c) => {
                let arrivals = &mut engine.classes[c as usize].class.arrivals;
                arrivals.generate(c, now, &mut queue);
            }
            Ev::Arrive(c) => engine.arrive(c, now, &mut queue),
            Ev::Drain => engine.drain(now, &mut queue),
            Ev::Probe(left) => {
                engine.in_flight.record(engine.pool.in_flight() as f64);
                if left > 1 {
                    queue.push(now + engine.probe_period, Ev::Probe(left - 1));
                }
            }
        }
    }
    if let Some(obs) = engine.obs.as_mut() {
        obs.set_core_counters(queue.counters().merged(engine.completions.counters()));
    }
    Ok(engine.finish(end))
}

impl Engine {
    /// One arrival: attribute it to a connection, then dispatch, queue or
    /// drop it at the pool, running the sampled backend operation for
    /// every admitted request.
    fn arrive(&mut self, c: u32, now: Nanos, queue: &mut EventQueue<Ev>) {
        let class = &mut self.classes[c as usize];
        // The connection draw keeps the misc stream's draw sequence; only
        // the ledger is kept per class, so the index itself is unused.
        let _connection = self.misc_rng.index(class.class.clients.max(1));
        class.out.ledger.issued += 1;
        let lane = class.lane;
        let req = Req {
            id: self.next_request,
            arrived: now,
            class: c,
            stage_cost: Nanos::ZERO,
            cut: false,
        };
        self.next_request += 1;
        let admission = self.pool.offer(c as usize, now, req);
        match admission {
            Admission::Dispatched => {
                self.admit(c);
                self.dispatch(now, req, queue);
            }
            Admission::Queued => self.admit(c),
            Admission::Dropped => self.classes[c as usize].out.ledger.dropped += 1,
        }
        self.peak_in_flight = self.peak_in_flight.max(self.pool.in_flight());
        if let Some(obs) = self.obs.as_mut() {
            // Window counts are additive, so their order against the
            // dispatch spans is immaterial.
            obs.count_arrival(lane, now);
            if admission == Admission::Dropped {
                obs.count_drop(lane, now);
            }
            obs.gauge(lane, now, self.pool.queued(c as usize), self.pool.busy());
        }
    }

    fn admit(&mut self, c: u32) {
        self.admitted += 1;
        if self.admitted % self.op_sample_every == 0 {
            self.classes[c as usize].backend.execute(&mut self.misc_rng);
        }
    }

    /// Dispatch: sample the backend service time (even for requests a
    /// stage will short-circuit, keeping the service stream aligned),
    /// traverse the chain, and register the completion of the composed
    /// slot occupancy with the batched timer.
    fn dispatch(&mut self, now: Nanos, mut req: Req, queue: &mut EventQueue<Ev>) {
        let rt = &mut self.classes[req.class as usize];
        let spec = &mut rt.class;
        let backend = spec.profile.sample_service_time(&mut spec.service_rng);
        let visits = &mut self.visits;
        visits.clear();
        let t = spec
            .chain
            .traverse_with(&mut spec.stage_rngs, |v| visits.push(v));
        req.stage_cost = t.stage_cost;
        req.cut = t.short_circuit.is_some();
        if let Some(obs) = self.obs.as_mut() {
            record_dispatch(obs, rt, &self.visits, now, &req, backend);
        }
        let out = &mut rt.out;
        out.stage_cost_ns += u128::from(t.stage_cost.as_nanos());
        out.stages_entered += t.stages_traversed as u64;
        out.cache_hits += u64::from(t.cache_hits);
        out.cache_misses += u64::from(t.cache_misses);
        let service = if req.cut {
            t.stage_cost
        } else {
            t.stage_cost + backend
        };
        let service = service.max(Nanos::from_nanos(1));
        if let Some(wake) = self.completions.schedule(now + service, req) {
            queue.push(wake, Ev::Drain);
        }
    }

    /// One completion wake: drains every completion due in this wheel
    /// slot, records their sojourns, folds the batch into the pool, and
    /// dispatches the requests the freed slots pulled from the queues.
    fn drain(&mut self, now: Nanos, queue: &mut EventQueue<Ev>) {
        let mut due = std::mem::take(&mut self.drain_buf);
        if let Some(wake) = self.completions.wake(now, &mut due) {
            queue.push(wake, Ev::Drain);
        }
        for &(at, req) in &due {
            debug_assert_eq!(at, now, "completions drain exactly at their tick");
            let class = &mut self.classes[req.class as usize];
            let out = &mut class.out;
            let sojourn = now - req.arrived;
            out.sojourns_us.push(sojourn.as_micros_f64());
            let slack = i128::from(sojourn.as_nanos()) - i128::from(req.stage_cost.as_nanos());
            out.min_slack_ns = out.min_slack_ns.min(slack);
            if req.cut {
                out.ledger.short_circuited += 1;
            } else {
                out.ledger.completed += 1;
            }
            if let Some(obs) = self.obs.as_mut() {
                obs.count_completion(class.lane, now);
            }
        }
        let mut dispatched = std::mem::take(&mut self.dispatch_buf);
        self.pool.finish_batch(
            due.iter().map(|&(_, req)| req.class as usize),
            &mut dispatched,
        );
        due.clear();
        self.drain_buf = due;
        for (_, _, next) in dispatched.drain(..) {
            self.dispatch(now, next, queue);
        }
        self.dispatch_buf = dispatched;
    }

    /// Checks every class's ledger and folds the run into its outcome.
    fn finish(self, end: Nanos) -> Outcome {
        let classes = self
            .classes
            .into_iter()
            .enumerate()
            .map(|(i, rt)| {
                let l = rt.out.ledger;
                assert_eq!(
                    l.issued,
                    l.completed + l.short_circuited + l.dropped,
                    "class {i} leaked requests: {l:?}"
                );
                assert_eq!(self.pool.counters(i).dropped, l.dropped, "class {i}");
                if let Arrivals::Counted { requests, .. } = rt.class.arrivals {
                    assert_eq!(l.issued, requests, "class {i} under-issued: {l:?}");
                }
                ClassOutcome {
                    store: rt.backend.store_stats(),
                    ..rt.out
                }
            })
            .collect();
        Outcome {
            classes,
            end,
            peak_in_flight: self.peak_in_flight,
            mean_in_flight: self.in_flight.mean(),
            obs: self.obs,
        }
    }
}

/// Folds one dispatch into the recorder: per-stage cache counts for every
/// request, and for sampled requests the spans the slot occupancy tiles
/// into — admission wait, the in-phases in chain order (cache access
/// inside), the backend service unless short-circuited, then the
/// out-phases in reverse order.
fn record_dispatch(
    obs: &mut Recorder,
    class: &ClassRt,
    visits: &[StageVisit],
    now: Nanos,
    req: &Req,
    backend: Nanos,
) {
    for v in visits {
        if let Some(hit) = v.cache_hit {
            obs.count_cache(class.stage_lanes[v.stage], now, hit);
        }
    }
    let (id, pool) = (req.id, class.lane);
    if !obs.sampled(id) {
        return;
    }
    obs.span(SpanKind::AdmissionWait, id, pool, req.arrived, now);
    let mut cursor = now;
    for v in visits {
        let lane = class.stage_lanes[v.stage];
        let in_end = cursor + v.in_cost + v.cache_cost;
        obs.span(SpanKind::StageIn, id, lane, cursor, in_end);
        if let Some(hit) = v.cache_hit {
            let kind = if hit {
                SpanKind::CacheHit
            } else {
                SpanKind::CacheMiss
            };
            obs.instant(kind, id, lane, cursor + v.in_cost);
        }
        if v.short_circuited {
            obs.instant(SpanKind::ShortCircuit, id, lane, in_end);
        }
        cursor = in_end;
    }
    if !req.cut {
        obs.span(SpanKind::SlotService, id, pool, cursor, cursor + backend);
        cursor += backend;
    }
    for v in visits.iter().rev().filter(|v| v.out_cost > Nanos::ZERO) {
        let end = cursor + v.out_cost;
        obs.span(
            SpanKind::StageOut,
            id,
            class.stage_lanes[v.stage],
            cursor,
            end,
        );
        cursor = end;
    }
}

#[cfg(test)]
mod tests {
    use platforms::PlatformId;
    use simcore::SimRng;

    use crate::loadgen::LoadgenBenchmark;
    use crate::pipeline::{PipelineBenchmark, PipelineSetting};
    use crate::slots::{LoadBackend, SlotPolicy};
    use crate::tenancy::TenancyBenchmark;

    #[test]
    fn every_class_ledger_balances_under_drops_short_circuits_and_three_tenants() {
        // `run` asserts each class's ledger at the end of every run, in
        // release builds too; these runs drive every outcome through it.
        let platform = PlatformId::Native.build();
        let overload = LoadgenBenchmark {
            clients: 64,
            requests_per_point: 600,
            queue_capacity: 4,
            load_points: vec![3.0],
            runs: 1,
            ..LoadgenBenchmark::quick(LoadBackend::Memcached)
        };
        let p = &overload
            .run_trial(&platform, &mut SimRng::seed_from(61))
            .unwrap()[0];
        assert!(p.dropped > 0, "3x overload must drop");
        assert_eq!(p.completed + p.dropped, 600);

        let rejecting = PipelineBenchmark {
            clients: 64,
            requests_per_point: 600,
            runs: 1,
            auth_reject_rate: 0.3,
            sweep: vec![PipelineSetting::new(3, 0.8)],
            ..PipelineBenchmark::quick(LoadBackend::Mysql)
        };
        let p = &rejecting
            .run_trial(&platform, &mut SimRng::seed_from(62))
            .unwrap()[0];
        assert!(p.short_circuited > 0, "30% rejection must short-circuit");
        assert_eq!(p.completed + p.short_circuited + p.dropped, 600);

        let tenancy = TenancyBenchmark {
            victim_requests: 400,
            ..TenancyBenchmark::quick(LoadBackend::Memcached)
        };
        let mut batch = tenancy.aggressor.clone();
        batch.name = "batch".into();
        batch.offered_fraction = 0.2;
        let tenants = [tenancy.victim.clone(), tenancy.aggressor.clone(), batch];
        let (points, _) = tenancy
            .run_colocated(
                &platform,
                &tenants,
                SlotPolicy::WeightedDrr,
                &mut SimRng::seed_from(63),
                None,
            )
            .unwrap();
        assert_eq!(points.len(), 3);
        for t in &points {
            assert!(t.issued > 0);
            assert_eq!(t.issued, t.completed + t.dropped);
        }
    }
}
