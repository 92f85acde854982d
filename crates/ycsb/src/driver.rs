//! Closed-loop and open-loop benchmark drivers.
//!
//! * **Closed loop** ([`run_closed_loop`]): each worker issues the next
//!   request as soon as the previous one completes — the throughput
//!   methodology of Figures 8 and 10.
//! * **Open loop** ([`run_open_loop`]): each worker issues requests on a
//!   fixed schedule (a target request frequency); latency is measured
//!   from the *scheduled* arrival time, so queueing delay is included.
//!   This is Figure 9's methodology ("we limit the frequency of each
//!   worker submitting their requests and analyze the latency").
//!
//! Both drivers run against any [`PersistentIndex`], use a deterministic
//! per-thread RNG seed, and report per-operation-class latency
//! [`Histogram`]s plus aggregate throughput.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use index_common::{AnyKey, Key, KeyBuf, OpError, PersistentIndex, Value, WriteOp};
use nvm::SplitMix64;

use crate::hist::Histogram;
use crate::keygen::KeyShape;
use crate::workload::{OpKind, WorkloadSpec};

/// Arrival-process shape for the open-loop driver.
///
/// Open-loop latency is only meaningful relative to an arrival schedule;
/// this picks the schedule. `Fixed` is the paper's Figure-9 methodology
/// (one request every `1/rate` seconds). `Poisson` draws exponential
/// inter-arrival gaps with the same mean rate, producing the bursty
/// arrivals that group commit is designed to absorb: bursts deepen the
/// combining queue (bigger epochs, fewer fences), while lulls let the
/// flush deadline bound tail latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrivals {
    /// Evenly spaced arrivals: one request per `1/rate` interval.
    Fixed,
    /// Memoryless (Poisson-process) arrivals: exponential inter-arrival
    /// gaps with mean `1/rate`, drawn from the worker's deterministic RNG.
    Poisson,
}

/// Result of a driver run.
#[derive(Debug)]
pub struct LoopResult {
    /// Operations completed (all classes).
    pub ops: u64,
    /// Wall-clock time of the measurement.
    pub elapsed: Duration,
    /// Read (find) latencies, nanoseconds.
    pub read_lat: Histogram,
    /// Update latencies, nanoseconds.
    pub update_lat: Histogram,
    /// Latencies of all other operation classes.
    pub other_lat: Histogram,
    /// Operations that hit [`OpError::PoolExhausted`]. These *are* counted
    /// in `ops` — the worker records the failure and continues with the
    /// next sampled operation, so an exhausted shard degrades throughput
    /// honestly instead of skewing the operation mix (the alternative —
    /// resampling until a non-failing op comes up — would silently turn an
    /// insert-heavy workload read-heavy as the pool fills).
    pub pool_exhausted: u64,
    /// Queue wait, nanoseconds: how long each request sat past its
    /// scheduled arrival before the worker actually started issuing it.
    /// Always empty for closed-loop runs (there is no schedule to be late
    /// against); for open-loop runs this isolates the queueing component
    /// of the scheduled-arrival latency.
    pub queue_wait: Histogram,
}

impl LoopResult {
    /// Aggregate throughput in operations per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            0.0
        } else {
            self.ops as f64 / self.elapsed.as_secs_f64()
        }
    }
}

struct WorkerOut {
    ops: u64,
    pool_exhausted: u64,
    read: Histogram,
    update: Histogram,
    other: Histogram,
    queue_wait: Histogram,
}

impl WorkerOut {
    fn new() -> WorkerOut {
        WorkerOut {
            ops: 0,
            pool_exhausted: 0,
            read: Histogram::new(),
            update: Histogram::new(),
            other: Histogram::new(),
            queue_wait: Histogram::new(),
        }
    }

    /// Counts one completed op of class `kind` that took `lat` ns.
    fn record(&mut self, kind: OpKind, lat: u64) {
        self.ops += 1;
        match kind {
            OpKind::Read => self.read.record(lat),
            OpKind::Update => self.update.record(lat),
            _ => self.other.record(lat),
        }
    }
}

/// How a worker spells the ids it samples: as `u64` keys, or rendered
/// through a [`KeyShape`] as byte strings.
#[derive(Clone, Copy)]
enum Keys {
    U64,
    Bytes(KeyShape),
}

impl Keys {
    /// The key `id` names; a rendered byte key lives in `buf`.
    fn of(self, id: u64, buf: &mut KeyBuf) -> AnyKey<'_> {
        match self {
            Keys::U64 => AnyKey::U64(id),
            Keys::Bytes(shape) => {
                *buf = shape.render(id);
                AnyKey::Bytes(buf.as_slice())
            }
        }
    }
}

/// A worker's scan output buffers, one per key spelling.
#[derive(Default)]
struct ScanBufs {
    u64: Vec<(Key, Value)>,
    bytes: Vec<(KeyBuf, Value)>,
}

/// Issues one operation on the key `id` names under `keys`.
/// Conditional-write failures (`AlreadyExists`, `NotFound`) are expected
/// workload noise and swallowed; resource exhaustion is reported so the
/// worker can record it (see [`LoopResult::pool_exhausted`]).
/// `UnsupportedKey` is impossible (every [`KeyShape`] renders ≤ 64 bytes).
fn execute(
    tree: &dyn PersistentIndex,
    kind: OpKind,
    keys: Keys,
    id: u64,
    scan_len: usize,
    scans: &mut ScanBufs,
    fresh: &AtomicU64,
) -> Result<(), OpError> {
    let mut buf = KeyBuf::MIN;
    let key = keys.of(id, &mut buf);
    let r = match kind {
        OpKind::Read => {
            std::hint::black_box(tree.get(key));
            Ok(())
        }
        OpKind::Update => tree.apply(key, id ^ 0x5555, WriteOp::Upsert),
        OpKind::Insert => {
            let f = fresh.fetch_add(1, Ordering::Relaxed);
            let mut fbuf = KeyBuf::MIN;
            tree.apply(keys.of(f, &mut fbuf), f, WriteOp::Upsert)
        }
        OpKind::Remove => tree.apply(key, 0, WriteOp::Remove),
        OpKind::Scan => {
            let n = scan_len.max(1);
            std::hint::black_box(match key {
                AnyKey::U64(k) => tree.scan_n(k, n, &mut scans.u64),
                AnyKey::Bytes(b) => tree.scan_k(b, n, &mut scans.bytes),
            });
            Ok(())
        }
    };
    match r {
        Err(OpError::PoolExhausted) => Err(OpError::PoolExhausted),
        _ => Ok(()),
    }
}

/// Closed-loop driver over **byte-string keys**: samples ids from the
/// spec's distribution exactly like [`run_closed_loop`], but renders each
/// through `shape` and issues byte-key operations. Same methodology,
/// same determinism contract, directly comparable throughput numbers.
pub fn run_closed_loop_k(
    tree: &Arc<dyn PersistentIndex>,
    spec: &WorkloadSpec,
    shape: KeyShape,
    threads: usize,
    duration: Duration,
    seed: u64,
) -> LoopResult {
    closed_loop(tree, spec, Keys::Bytes(shape), threads, duration, seed)
}

/// Runs `threads` closed-loop workers for `duration`. Deterministic up to
/// thread scheduling for a given `seed`.
pub fn run_closed_loop(
    tree: &Arc<dyn PersistentIndex>,
    spec: &WorkloadSpec,
    threads: usize,
    duration: Duration,
    seed: u64,
) -> LoopResult {
    closed_loop(tree, spec, Keys::U64, threads, duration, seed)
}

fn closed_loop(
    tree: &Arc<dyn PersistentIndex>,
    spec: &WorkloadSpec,
    keys: Keys,
    threads: usize,
    duration: Duration,
    seed: u64,
) -> LoopResult {
    assert!(threads > 0);
    let keygen = spec.build_keygen();
    let fresh = AtomicU64::new(spec.dist.n() + 1);
    let start = Instant::now();
    let deadline = start + duration;

    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let keygen = keygen.clone();
                let fresh = &fresh;
                let tree = Arc::clone(tree);
                scope.spawn(move || {
                    let tree = &*tree;
                    let mut rng = SplitMix64::new(seed ^ (tid as u64 + 1).wrapping_mul(0x9E3779B9));
                    let mut out = WorkerOut::new();
                    let mut scans = ScanBufs::default();
                    loop {
                        let t0 = Instant::now();
                        if t0 >= deadline {
                            break;
                        }
                        let kind = spec.mix.sample(&mut rng);
                        let id = keygen.next_key(&mut rng);
                        if execute(tree, kind, keys, id, spec.scan_len, &mut scans, fresh).is_err() {
                            out.pool_exhausted += 1;
                        }
                        out.record(kind, t0.elapsed().as_nanos() as u64);
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });

    merge(outs, start.elapsed())
}

/// Runs `threads` open-loop workers for `duration`, each issuing
/// `rate_per_worker` requests per second on a fixed schedule. Latency is
/// measured from the scheduled arrival, so it includes queueing delay
/// when the system cannot keep up. Equivalent to
/// [`run_open_loop_arrivals`] with [`Arrivals::Fixed`].
pub fn run_open_loop(
    tree: &Arc<dyn PersistentIndex>,
    spec: &WorkloadSpec,
    threads: usize,
    rate_per_worker: f64,
    duration: Duration,
    seed: u64,
) -> LoopResult {
    run_open_loop_arrivals(tree, spec, threads, rate_per_worker, Arrivals::Fixed, duration, seed)
}

/// Open-loop driver with a selectable arrival process (see [`Arrivals`]).
/// Each worker issues `rate_per_worker` requests per second on average;
/// per-op latency is measured from the *scheduled* arrival (queueing
/// delay included) and the queueing component alone is additionally
/// recorded in [`LoopResult::queue_wait`].
pub fn run_open_loop_arrivals(
    tree: &Arc<dyn PersistentIndex>,
    spec: &WorkloadSpec,
    threads: usize,
    rate_per_worker: f64,
    arrivals: Arrivals,
    duration: Duration,
    seed: u64,
) -> LoopResult {
    assert!(threads > 0 && rate_per_worker > 0.0);
    let keygen = spec.build_keygen();
    let fresh = AtomicU64::new(spec.dist.n() + 1);
    let interval = Duration::from_secs_f64(1.0 / rate_per_worker);
    let start = Instant::now();
    let deadline = start + duration;

    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let keygen = keygen.clone();
                let fresh = &fresh;
                let tree = Arc::clone(tree);
                scope.spawn(move || {
                    let tree = &*tree;
                    let mut rng = SplitMix64::new(seed ^ (tid as u64 + 1).wrapping_mul(0x517C_C1B7));
                    let mut out = WorkerOut::new();
                    let mut scans = ScanBufs::default();
                    // Desynchronise workers' schedules.
                    let mut scheduled = start + interval.mul_f64(tid as f64 / threads as f64);
                    loop {
                        if scheduled >= deadline {
                            break;
                        }
                        // Wait for the scheduled arrival (sleep coarsely,
                        // then spin the last stretch).
                        loop {
                            let now = Instant::now();
                            if now >= scheduled {
                                break;
                            }
                            let left = scheduled - now;
                            if left > Duration::from_micros(200) {
                                std::thread::sleep(left - Duration::from_micros(100));
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                        let issue = Instant::now();
                        out.queue_wait.record((issue - scheduled).as_nanos() as u64);
                        let kind = spec.mix.sample(&mut rng);
                        let key = keygen.next_key(&mut rng);
                        if execute(tree, kind, Keys::U64, key, spec.scan_len, &mut scans, fresh).is_err() {
                            out.pool_exhausted += 1;
                        }
                        out.record(kind, (Instant::now() - scheduled).as_nanos() as u64);
                        scheduled += match arrivals {
                            Arrivals::Fixed => interval,
                            Arrivals::Poisson => {
                                // Exponential gap with mean `interval`:
                                // -ln(1-u)/rate, u ∈ [0,1). Clamp the tail
                                // at 20× the mean so one extreme draw can't
                                // idle a worker for the rest of the run.
                                let u = rng.next_f64();
                                let gap = -(1.0 - u).ln();
                                interval.mul_f64(gap.clamp(0.0, 20.0))
                            }
                        };
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });

    merge(outs, start.elapsed())
}

fn merge(outs: Vec<WorkerOut>, elapsed: Duration) -> LoopResult {
    let mut res = LoopResult {
        ops: 0,
        elapsed,
        read_lat: Histogram::new(),
        update_lat: Histogram::new(),
        other_lat: Histogram::new(),
        pool_exhausted: 0,
        queue_wait: Histogram::new(),
    };
    for o in outs {
        res.ops += o.ops;
        res.pool_exhausted += o.pool_exhausted;
        res.read_lat.merge(&o.read);
        res.update_lat.merge(&o.update);
        res.other_lat.merge(&o.other);
        res.queue_wait.merge(&o.queue_wait);
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keygen::KeyDist;
    use index_common::testing::MemIndex;

    /// A reference index holding the ids `1..=n`.
    fn loaded(n: u64) -> Arc<dyn PersistentIndex> {
        let idx = MemIndex::new();
        idx.load_sorted(&(1..=n).map(|k| (k, k)).collect::<Vec<_>>()).unwrap();
        Arc::new(idx)
    }

    #[test]
    fn closed_loop_reports_work() {
        let idx = loaded(1_000);
        let spec = WorkloadSpec::ycsb_a(KeyDist::Uniform { n: 1_000 });
        let r = run_closed_loop(&idx, &spec, 2, Duration::from_millis(100), 42);
        assert!(r.ops > 100, "ops={}", r.ops);
        assert!(r.throughput() > 1_000.0);
        assert!(r.read_lat.count() > 0);
        assert!(r.update_lat.count() > 0);
        assert_eq!(r.other_lat.count(), 0, "YCSB-A has only reads/updates");
        assert_eq!(r.ops, r.read_lat.count() + r.update_lat.count());
        assert_eq!(r.pool_exhausted, 0);
    }

    #[test]
    fn open_loop_respects_schedule_roughly() {
        let idx = loaded(100);
        let spec = WorkloadSpec::ycsb_c(KeyDist::Uniform { n: 100 });
        // 2 workers × 500 req/s × 0.3 s ≈ 300 ops.
        let r = run_open_loop(&idx, &spec, 2, 500.0, Duration::from_millis(300), 7);
        assert!(
            (200..=400).contains(&(r.ops as i64)),
            "open loop issued {} ops",
            r.ops
        );
        // An unloaded in-memory map must answer far faster than the
        // inter-arrival time.
        assert!(r.read_lat.quantile(0.5) < 1_000_000, "{:?}", r.read_lat);
    }

    #[test]
    fn poisson_arrivals_hit_the_mean_rate_and_record_queue_wait() {
        let idx = loaded(100);
        let spec = WorkloadSpec::ycsb_c(KeyDist::Uniform { n: 100 });
        // 2 workers × 500 req/s × 0.3 s ≈ 300 ops on average; the Poisson
        // process has the same mean, so a generous band still holds.
        let r = run_open_loop_arrivals(
            &idx,
            &spec,
            2,
            500.0,
            Arrivals::Poisson,
            Duration::from_millis(300),
            7,
        );
        assert!(
            (120..=520).contains(&(r.ops as i64)),
            "poisson open loop issued {} ops",
            r.ops
        );
        // Every issued op records its queue wait, and an unloaded map
        // keeps the median wait tiny.
        assert_eq!(r.queue_wait.count(), r.ops);
        assert!(r.queue_wait.quantile(0.5) < 1_000_000, "{:?}", r.queue_wait);
    }

    #[test]
    fn closed_loop_has_no_queue_wait_samples() {
        let idx = loaded(100);
        let spec = WorkloadSpec::ycsb_c(KeyDist::Uniform { n: 100 });
        let r = run_closed_loop(&idx, &spec, 1, Duration::from_millis(50), 9);
        assert_eq!(r.queue_wait.count(), 0);
    }

    #[test]
    fn scan_mix_exercises_scan_path() {
        let idx = loaded(1_000);
        let spec = WorkloadSpec {
            mix: crate::Mix {
                read: 0,
                update: 0,
                insert: 0,
                remove: 0,
                scan: 1,
            },
            dist: KeyDist::Uniform { n: 1_000 },
            scan_len: 10,
        };
        let r = run_closed_loop(&idx, &spec, 1, Duration::from_millis(50), 1);
        assert!(r.other_lat.count() > 0);
    }

    #[test]
    fn deterministic_op_counts_are_stable_under_same_seed() {
        // Not a strict determinism test (time-based), but the same seed
        // must at least produce the same *kinds* of activity.
        let idx = loaded(100);
        let spec = WorkloadSpec::read_intensive(KeyDist::Zipfian { n: 100, theta: 0.8 });
        let r = run_closed_loop(&idx, &spec, 1, Duration::from_millis(50), 3);
        let reads = r.read_lat.count() as f64;
        let updates = r.update_lat.count() as f64;
        assert!(reads > updates * 4.0, "90/10 mix skew lost: {reads}/{updates}");
    }
}
