//! Layer microbenches, driven from outside through each layer's public
//! API: one warm-up, then repeated timed samples, reported as the median
//! cost per operation.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use kvstore::{Store, StoreConfig};
use platforms::PlatformId;
use relstore::{Database, Row, StoreError};
use simcore::resource::CompletionTimer;
use simcore::{EventQueue, Nanos, ShardedCores, SimRng, Simulation};
use workloads::{Admission, ClassConfig, SlotPolicy, SlotPool};

use crate::trace::Tracer;

/// Per-operation cost of one microbench, over its samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sampled {
    /// Median nanoseconds per operation.
    pub median_ns: f64,
    /// 10th-percentile nanoseconds per operation.
    pub p10_ns: f64,
    /// 90th-percentile nanoseconds per operation.
    pub p90_ns: f64,
    /// Timed samples taken.
    pub samples: usize,
}

/// Runs `body` once untimed, then `samples` timed times; each call does
/// `ops` operations.
pub fn sample(samples: usize, ops: u64, mut body: impl FnMut()) -> Sampled {
    body();
    sampled(
        (0..samples)
            .map(|_| {
                let start = Instant::now();
                body();
                start.elapsed().as_nanos() as f64 / ops as f64
            })
            .collect(),
    )
}

/// Summarises per-operation costs, one per timed sample.
fn sampled(mut per_op: Vec<f64>) -> Sampled {
    per_op.sort_by(f64::total_cmp);
    let at = |q: f64| per_op[((per_op.len() - 1) as f64 * q).round() as usize];
    Sampled {
        median_ns: crate::median(&per_op),
        p10_ns: at(0.1),
        p90_ns: at(0.9),
        samples: per_op.len(),
    }
}

/// The microbench results of one run, by metric-style name.
#[derive(Debug, Default)]
pub struct Micro {
    /// `(name, cost)` in measurement order.
    pub results: Vec<(&'static str, Sampled)>,
    /// Lock-contention events seen by the relstore transaction bench.
    pub lock_waits: u64,
}

impl Micro {
    /// The median cost per operation of `name`, in nanoseconds.
    pub fn ns(&self, name: &str) -> f64 {
        self.results
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.median_ns)
            .unwrap_or_else(|| panic!("no microbench {name}"))
    }
}

/// Events per event-core sample.
const EVENTS: usize = 20_000;

/// Runs every layer microbench; the inputs derive from `seed`.
pub fn run_all(seed: u64, tracer: &mut Tracer) -> Micro {
    let mut m = Micro::default();
    let mut rng = SimRng::seed_from(seed);
    let results = &mut m.results;
    let mut bench = |name: &'static str, tracer: &mut Tracer, f: &mut dyn FnMut() -> Sampled| {
        let s = tracer.span("micro", || name.into(), |_| f());
        results.push((name, s));
    };

    for (name, n, calls, samples) in [
        ("simcore.rng.zipf_ns.n16", 16, 20_000, 9),
        ("simcore.rng.zipf_ns.n2000", 2_000, 200, 9),
        ("simcore.rng.zipf_ns.n100000", 100_000, 2, 5),
    ] {
        let mut r = rng.split(name);
        bench(name, tracer, &mut || {
            sample(samples, calls, || {
                for _ in 0..calls {
                    black_box(r.zipf(n, 0.99));
                }
            })
        });
    }
    let mut r = rng.split("exponential");
    bench("simcore.rng.exponential_ns", tracer, &mut || {
        sample(9, 50_000, || {
            for _ in 0..50_000 {
                black_box(r.exponential(1.0));
            }
        })
    });

    // One shared set of event timestamps within a 10 ms virtual window.
    let times: Vec<Nanos> = (0..EVENTS)
        .map(|_| Nanos::from_nanos(rng.index(10_000_000) as u64))
        .collect();
    bench("simcore.simulation.event_ns", tracer, &mut || {
        sample(9, EVENTS as u64, || {
            let mut sim: Simulation<u64> = Simulation::new();
            for (i, at) in times.iter().enumerate() {
                sim.schedule_at(*at, move |_, sum: &mut u64| *sum += i as u64);
            }
            let mut sum = 0;
            sim.run(&mut sum);
            black_box(sum);
        })
    });
    bench("simcore.event_queue.event_ns", tracer, &mut || {
        sample(9, EVENTS as u64, || {
            let mut q = EventQueue::new();
            for (i, at) in times.iter().enumerate() {
                q.push(*at, i as u64);
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
        })
    });
    for (name, lanes) in [
        ("simcore.sharded_cores.event_ns.l1", 1),
        ("simcore.sharded_cores.event_ns.l8", 8),
    ] {
        bench(name, tracer, &mut || {
            sample(9, EVENTS as u64, || {
                let mut cores = ShardedCores::new(lanes);
                for (i, at) in times.iter().enumerate() {
                    cores.push(i % lanes, *at, i as u64);
                }
                while let Some(e) = cores.pop() {
                    black_box(e);
                }
            })
        });
    }
    let mut sorted = times.clone();
    sorted.sort();
    bench("simcore.completion_timer.op_ns", tracer, &mut || {
        sample(9, EVENTS as u64, || {
            let mut timer = CompletionTimer::new();
            for (i, at) in times.iter().enumerate() {
                black_box(timer.schedule(*at, i as u64));
            }
            let mut due = Vec::with_capacity(EVENTS);
            for now in &sorted {
                black_box(timer.wake(*now, &mut due));
            }
            black_box(due.len());
        })
    });

    let (offer, finish) = tracer.span("micro", || "workloads.slot_pool".into(), |_| slot_pool());
    let (get, set) = tracer.span("micro", || "kvstore.store".into(), |_| kv_store(&mut rng));
    let (txn, lock_waits) = tracer.span(
        "micro",
        || "relstore.txn".into(),
        |_| relstore_txn(&mut rng),
    );
    m.results.extend([
        ("workloads.slot_pool.offer_ns", offer),
        ("workloads.slot_pool.finish_ns", finish),
        ("kvstore.store.get_ns", get),
        ("kvstore.store.set_ns", set),
        ("relstore.txn_ns", txn),
    ]);
    m.lock_waits = lock_waits;

    let ids = PlatformId::all();
    let build = tracer.span(
        "build",
        || "platforms.build".into(),
        |_| {
            sample(9, 20 * ids.len() as u64, || {
                for _ in 0..20 {
                    for id in ids {
                        black_box(id.build());
                    }
                }
            })
        },
    );
    m.results.push(("platforms.build_ns", build));
    m
}

/// Offer and finish costs of a 4-slot, 2-class weighted pool that queues
/// everything it cannot dispatch.
fn slot_pool() -> (Sampled, Sampled) {
    const N: usize = 20_000;
    let class = ClassConfig {
        weight: 1,
        queue_capacity: N,
        mean_cost: Nanos::from_micros(10),
    };
    let fresh = || SlotPool::new(4, SlotPolicy::WeightedDrr, vec![class; 2]).expect("valid pool");
    let offer = sample(9, N as u64, || {
        let mut pool = fresh();
        for i in 0..N {
            black_box(pool.offer(i % 2, Nanos::from_nanos(i as u64), i));
        }
    });
    let mut finish_ns = Vec::new();
    for _ in 0..10 {
        let mut pool = fresh();
        let mut in_service = VecDeque::new();
        for i in 0..N {
            if pool.offer(i % 2, Nanos::from_nanos(i as u64), i) == Admission::Dispatched {
                in_service.push_back(i % 2);
            }
        }
        let start = Instant::now();
        while let Some(class) = in_service.pop_front() {
            if let Some((next, _, _)) = pool.finish(class) {
                in_service.push_back(next);
            }
        }
        finish_ns.push(start.elapsed().as_nanos() as f64 / N as f64);
    }
    // The first round is the warm-up.
    finish_ns.remove(0);
    let finish = sampled(finish_ns);
    (offer, finish)
}

/// Get and set costs on a store loaded like the quick YCSB config
/// (2000 records of 1000 bytes).
fn kv_store(rng: &mut SimRng) -> (Sampled, Sampled) {
    const RECORDS: usize = 2_000;
    const OPS: usize = 20_000;
    let key = |i: usize| format!("user{i:08}").into_bytes();
    let store = Store::new(StoreConfig::default());
    for i in 0..RECORDS {
        store.set(&key(i), vec![b'x'; 1_000]);
    }
    let keys: Vec<Vec<u8>> = (0..OPS).map(|_| key(rng.index(RECORDS))).collect();
    let get = sample(9, OPS as u64, || {
        for k in &keys {
            black_box(store.get(k));
        }
    });
    let set = sample(9, OPS as u64, || {
        for k in &keys {
            black_box(store.set(k, vec![b'y'; 1_000]));
        }
    });
    (get, set)
}

/// The sysbench-shaped transaction of the OLTP model (select, update,
/// delete-then-insert against one table, with rows pre-locked by
/// "foreign" writers as at 50 threads), and the lock waits it meets.
fn relstore_txn(rng: &mut SimRng) -> (Sampled, u64) {
    const ROWS: u64 = 2_000;
    const TXNS: usize = 300;
    const FOREIGN: usize = 50 / 8;
    let db = Database::new();
    let tables = db.populate_sysbench(1, ROWS);
    let table = &tables[0];
    let mut next_id = ROWS + 1;
    let txn = sample(9, TXNS as u64, || {
        for _ in 0..TXNS {
            let foreign: Vec<u64> = (0..FOREIGN)
                .map(|_| 1 + rng.index(ROWS as usize) as u64)
                .filter(|id| table.locks().try_lock(*id))
                .collect();
            let mut txn = db.begin();
            let target = 1 + rng.index(ROWS as usize) as u64;
            let outcome: Result<(), StoreError> = (|| {
                let _ = txn.select(table, target)?;
                txn.update(table, target, rng.index(1_000) as u64)?;
                let victim = 1 + rng.index(ROWS as usize) as u64;
                match txn.delete(table, victim) {
                    Ok(_) => txn.insert(table, Row::new(victim, 1, "reinserted".into()))?,
                    Err(StoreError::RowNotFound(_)) => {
                        txn.insert(table, Row::new(next_id, 1, "fresh".into()))?;
                        next_id += 1;
                    }
                    Err(e) => return Err(e),
                }
                Ok(())
            })();
            match outcome {
                Ok(()) => txn.commit(),
                Err(_) => txn.rollback(),
            }
            table.locks().unlock_all(&foreign);
        }
    });
    (txn, table.locks().contention_events())
}
