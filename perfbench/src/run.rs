//! One benchmark run: set up the deployed stack, warm it up, time fixed
//! rounds of closed-loop ops, check every result, crash, recover, check
//! again, and report.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use htm::HtmStatsSnapshot;
use index_common::{
    CommitStats, GroupCommit, GroupCommitConfig, Key, OpError, PersistentIndex, RecoverableIndex,
    ShardedIndex, Value,
};
use nvm::{PmemConfig, PoolSet};
use obs::{Histogram, Json, Phase};
use rntree::{RnConfig, RnTree};

use crate::cpu;
use crate::metrics::{self, median, percentile, quantile, ratio};
use crate::shim::{op_span, Layer, Shim, LAYERS};
use crate::workload::{
    key_of, value_of, writer_of, Inputs, Op, OpClass, Spec, SCAN_LEN, SHARDS, WRITE_LATENCY_NS,
};

/// The deployed stack, as a library user builds it.
type Bare = GroupCommit<ShardedIndex<Arc<RnTree>>>;
/// The same stack over the same trees, with a shim under every layer.
type Traced = Shim<GroupCommit<Shim<ShardedIndex<Shim<Arc<RnTree>>>>>>;

/// Ops a client takes from the shared cursor at a time.
const CHUNK: usize = 64;

/// The result of one run.
pub struct Outcome {
    /// No op failed and every post-window check passed.
    pub correct: bool,
    /// Ops issued (warm-up and timed).
    pub attempted: u64,
    /// Failed ops plus failed post-window checks.
    pub failed: u64,
    /// Every catalogue metric of the run's kind, in catalogue order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// What a drifting run needs to be explained without a rerun.
    pub provenance: Json,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_json(&self) -> Json {
        let mut m = Json::obj();
        for (name, value, unit) in &self.metrics {
            let mut v = Json::obj();
            v.set("value", Json::F64(*value));
            v.set("unit", Json::Str((*unit).to_string()));
            m.set(name, v);
        }
        let mut o = Json::obj();
        o.set("correct", Json::Bool(self.correct));
        o.set("attempted", Json::U64(self.attempted));
        o.set("failed", Json::U64(self.failed));
        o.set("metrics", m);
        o
    }
}

/// What the checks share across clients.
struct Ctx {
    keys: u64,
    /// Every key in `1..=hi` is acknowledged present.
    hi: AtomicU64,
}

/// One client's memory of its own acknowledged writes.
#[derive(Default)]
struct Client {
    /// Last value this client wrote per key (0 = never wrote it).
    last: Vec<Value>,
}

/// One timed op's span, compacted.
#[derive(Clone, Copy)]
struct SpanRec {
    class: OpClass,
    outer: u32,
    client: u32,
    layers: [u32; LAYERS],
}

/// Per-op latencies in ns, by class (indexed like `OpClass::ALL`).
type Latencies = [Vec<u32>; 4];

/// What one round's clients recorded (or one client, before merging).
#[derive(Default)]
struct Round {
    /// Which rotation of the client placement ran the round.
    placement: usize,
    wall: Duration,
    /// CPU time the clients' threads got, summed.
    cpu: Duration,
    lat: Latencies,
    spans: Vec<SpanRec>,
    failed: u64,
}

impl Round {
    fn ops(&self) -> usize {
        self.lat.iter().map(Vec::len).sum()
    }

    fn kops(&self) -> f64 {
        self.ops() as f64 / self.wall.as_secs_f64() / 1e3
    }
}

enum Res {
    Wrote(Result<(), OpError>),
    Found(Option<Value>),
    Scanned,
}

fn exec<I: PersistentIndex>(index: &I, op: Op, idx: usize, buf: &mut Vec<(Key, Value)>) -> Res {
    let (key, v) = (op.key(), value_of(op.key(), Some(idx)));
    match op.class {
        OpClass::Read => Res::Found(index.find(key)),
        OpClass::Update => Res::Wrote(index.update(key, v)),
        OpClass::Insert => Res::Wrote(index.insert(key, v)),
        OpClass::Scan => {
            index.scan_n(key, SCAN_LEN, buf);
            Res::Scanned
        }
    }
}

impl Ctx {
    /// Whether `v` is a value `key` may hold: loaded, or written to `key`
    /// by some op of the stream.
    fn plausible(&self, ops: &[Op], key: Key, v: Value) -> bool {
        key_of(v) == key
            && match writer_of(v) {
                None => key <= self.keys,
                Some(w) => ops
                    .get(w)
                    .is_some_and(|o| o.key() == key && o.class.is_write()),
            }
    }

    /// Checks one op's result; records acknowledged writes.
    fn check(
        &self,
        ops: &[Op],
        idx: usize,
        res: Res,
        buf: &[(Key, Value)],
        me: &mut Client,
    ) -> bool {
        let op = ops[idx];
        match res {
            Res::Wrote(r) => {
                if r.is_err() {
                    return false;
                }
                me.last[op.key as usize] = value_of(op.key(), Some(idx));
                if op.class == OpClass::Insert {
                    self.hi.fetch_max(op.key(), Ordering::Release);
                }
                true
            }
            Res::Found(v) => v.is_some_and(|v| self.plausible(ops, op.key(), v)),
            Res::Scanned => {
                // The key set is exactly 1..=hi, so a scan must return the
                // next SCAN_LEN consecutive keys (fewer only at the end).
                let hi = self.hi.load(Ordering::Acquire);
                let want = (hi + 1).saturating_sub(op.key()).min(SCAN_LEN as u64) as usize;
                buf.len() == want
                    && buf
                        .iter()
                        .enumerate()
                        .all(|(i, &(k, v))| k == op.key() + i as u64 && self.plausible(ops, k, v))
            }
        }
    }
}

fn client_loop<I: PersistentIndex>(
    index: &I,
    ops: &[Op],
    end: usize,
    cursor: &AtomicUsize,
    ctx: &Ctx,
    me: &mut Client,
    trace: bool,
) -> Round {
    let mut out = Round::default();
    let mut buf = Vec::with_capacity(SCAN_LEN);
    let cpu0 = cpu::thread_time();
    loop {
        let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
        if start >= end {
            out.cpu = cpu::thread_time()
                .zip(cpu0)
                .map_or(Duration::ZERO, |(t1, t0)| t1 - t0);
            return out;
        }
        for idx in start..(start + CHUNK).min(end) {
            let op = ops[idx];
            let (res, ns) = if trace {
                let (res, span) = op_span(|| exec(index, op, idx, &mut buf));
                out.spans.push(SpanRec {
                    class: op.class,
                    outer: clamp_u32(span.outer_ns),
                    client: clamp_u32(span.client_ns),
                    layers: span.self_ns.map(clamp_u32),
                });
                (res, span.outer_ns)
            } else {
                let t0 = Instant::now();
                let res = exec(index, op, idx, &mut buf);
                (res, t0.elapsed().as_nanos() as u64)
            };
            out.lat[op.class as usize].push(clamp_u32(ns));
            if !ctx.check(ops, idx, res, &buf, me) {
                out.failed += 1;
            }
        }
    }
}

fn clamp_u32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// Runs `ops[range]` through `index` on every client, closed-loop, the
/// clients taking chunks from one shared cursor so they finish together.
/// Client `i` runs on `cpus[i % cpus.len()]` (unplaced if `cpus` is
/// empty).
fn drive<I: PersistentIndex>(
    index: &I,
    ops: &[Op],
    range: Range<usize>,
    ctx: &Ctx,
    clients: &mut [Client],
    trace: bool,
    cpus: &[usize],
) -> Round {
    let cursor = AtomicUsize::new(range.start);
    let t0 = Instant::now();
    let outs: Vec<Round> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, me)| {
                let cursor = &cursor;
                s.spawn(move || {
                    if !cpus.is_empty() {
                        cpu::pin(cpus[i % cpus.len()]);
                    }
                    client_loop(index, ops, range.end, cursor, ctx, me, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut round = Round {
        wall: t0.elapsed(),
        ..Round::default()
    };
    for o in outs {
        round.cpu += o.cpu;
        for (all, mine) in round.lat.iter_mut().zip(o.lat) {
            all.extend(mine);
        }
        round.spans.extend(o.spans);
        round.failed += o.failed;
    }
    round
}

/// Counter totals over the trees and pools, in one flat record so a
/// window's delta is a field-wise subtraction.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    persists: u64,
    lines: u64,
    htm: HtmStatsSnapshot,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    cache_invalidations: u64,
    descent_restarts: u64,
    splits: u64,
    compactions: u64,
    retries: u64,
}

impl Counters {
    fn read(pools: &PoolSet, trees: &[Arc<RnTree>]) -> Counters {
        let nvm = pools.stats_snapshot();
        let mut c = Counters {
            persists: nvm.persists,
            lines: nvm.lines_flushed,
            ..Counters::default()
        };
        for t in trees {
            let h = t.htm_stats();
            c.htm.attempts += h.attempts;
            c.htm.aborts_conflict += h.aborts_conflict;
            c.htm.aborts_capacity += h.aborts_capacity;
            c.htm.fallbacks += h.fallbacks;
            let cache = t.cache_stats().unwrap_or_default();
            c.cache_hits += cache.hits;
            c.cache_misses += cache.misses;
            c.cache_evictions += cache.evictions;
            c.cache_invalidations += cache.invalidations;
            c.descent_restarts += t.descent_stats().restarts;
            let rn = t.rn_stats();
            c.splits += rn.splits;
            c.compactions += rn.compactions;
            c.retries += rn.retries;
        }
        c
    }

    /// Adds the window `before..after` to `self`.
    fn add_window(&mut self, before: &Counters, after: &Counters) {
        self.persists += after.persists - before.persists;
        self.lines += after.lines - before.lines;
        self.htm.attempts += after.htm.attempts - before.htm.attempts;
        self.htm.aborts_conflict += after.htm.aborts_conflict - before.htm.aborts_conflict;
        self.htm.aborts_capacity += after.htm.aborts_capacity - before.htm.aborts_capacity;
        self.htm.fallbacks += after.htm.fallbacks - before.htm.fallbacks;
        self.cache_hits += after.cache_hits - before.cache_hits;
        self.cache_misses += after.cache_misses - before.cache_misses;
        self.cache_evictions += after.cache_evictions - before.cache_evictions;
        self.cache_invalidations += after.cache_invalidations - before.cache_invalidations;
        self.descent_restarts += after.descent_restarts - before.descent_restarts;
        self.splits += after.splits - before.splits;
        self.compactions += after.compactions - before.compactions;
        self.retries += after.retries - before.retries;
    }
}

/// Pools plus trees, freshly bulk-loaded.
struct Deployed {
    pools: PoolSet,
    trees: Vec<Arc<RnTree>>,
}

fn tree_config(spec: &Spec) -> RnConfig {
    RnConfig {
        cache_frames: spec.cache_frames,
        ..RnConfig::default()
    }
    .carve_cache_frames(SHARDS)
}

fn combine_config() -> GroupCommitConfig {
    GroupCommitConfig {
        shards: SHARDS,
        ..GroupCommitConfig::default()
    }
}

/// Creates the pools and trees and bulk-loads them: `setup_s`.
fn set_up(spec: &Spec, load: &[(Key, Value)]) -> (Deployed, f64) {
    let t0 = Instant::now();
    let pools = PoolSet::new(
        PmemConfig {
            size: spec.pool_bytes,
            write_latency_ns: WRITE_LATENCY_NS,
            shadow: true,
        },
        SHARDS,
    );
    let cfg = tree_config(spec);
    let trees: Vec<Arc<RnTree>> = pools
        .iter()
        .map(|p| Arc::new(<RnTree as RecoverableIndex>::create(Arc::clone(p), cfg)))
        .collect();
    ShardedIndex::from_shards(trees.clone())
        .load_sorted(load)
        .expect("the pool holds the bulk load");
    (Deployed { pools, trees }, t0.elapsed().as_secs_f64())
}

/// Median time of one simulated 140 ns persist stall in this process
/// (`nvm` calibrates its spin once per process, so this moves between
/// runs and with it every write time).
fn persist_stall_ns() -> f64 {
    const REPS: u32 = 2_000;
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..REPS {
                nvm::busy_wait_ns(WRITE_LATENCY_NS);
            }
            t0.elapsed().as_nanos() as f64 / f64::from(REPS)
        })
        .collect();
    median(&samples)
}

/// Reads the whole index and checks it against what the clients
/// acknowledged: keys exactly `1..=hi`, each holding its loaded value or
/// the last value some client wrote to it. Returns the pairs and the
/// number of failed checks.
fn check_state<I: PersistentIndex>(
    index: &I,
    ctx: &Ctx,
    clients: &[Client],
) -> (Vec<(Key, Value)>, u64) {
    let hi = ctx.hi.load(Ordering::Acquire);
    let mut all = Vec::new();
    index.scan_n(1, hi as usize + 1, &mut all);
    let mut failed = (all.len() as u64).abs_diff(hi) + u64::from(index.stats().entries != hi);
    for (i, &(k, v)) in all.iter().enumerate() {
        let ok = k == i as u64 + 1 && {
            let mut written = clients
                .iter()
                .filter_map(|c| c.last.get(k as usize).copied().filter(|&w| w != 0));
            let mut any = false;
            let hit = written.any(|w| {
                any = true;
                w == v
            });
            hit || (!any && v == value_of(k, None))
        };
        failed += u64::from(!ok);
    }
    (all, failed)
}

fn check_invariants<'a>(trees: impl Iterator<Item = &'a RnTree>) -> u64 {
    trees
        .map(|t| match t.verify_invariants() {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench: invariant violated: {e}");
                1
            }
        })
        .sum()
}

/// Everything a run measured, over all its deployments.
struct Tally {
    setup_s: Vec<f64>,
    recover_s: Vec<f64>,
    shard_max_s: Vec<f64>,
    bare: Vec<Round>,
    traced: Vec<Round>,
    /// Counter deltas over the traced rounds.
    counters: Counters,
    /// Combining counters of the traced stacks.
    commit: CommitStats,
    /// Combine wait histogram of the traced stacks.
    wait: Histogram,
    /// Phase-timer histograms (indexed like `Phase::ALL`), recorded only
    /// during traced rounds.
    phases: Vec<Histogram>,
    /// Leaf count before and after each deployment's timed window.
    leaves: Vec<(u64, u64)>,
    attempted: u64,
    failed: u64,
}

/// Runs `spec` once: `spec.deployments` fresh deployments, each set up,
/// warmed up, timed for its share of `seconds`, checked, crashed and
/// recovered. Untraced runs report the end-to-end catalogue; traced runs
/// alternate untraced and traced rounds and report the per-layer
/// catalogue.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let cpus = cpu::allowed();
    let mut t = Tally {
        setup_s: Vec::new(),
        recover_s: Vec::new(),
        shard_max_s: Vec::new(),
        bare: Vec::new(),
        traced: Vec::new(),
        counters: Counters::default(),
        commit: CommitStats::default(),
        wait: Histogram::new(),
        phases: Phase::ALL.iter().map(|_| Histogram::new()).collect(),
        leaves: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    for d in 0..spec.deployments {
        let inputs = Inputs::new(spec, seed, d as u64);
        let share = seconds / spec.deployments as f64;
        deployment(spec, inputs, share, trace, &cpus, &mut t);
    }
    let stall_ns = persist_stall_ns();

    // Per client placement, the upper quartile of round throughput; then
    // ops over time across placements, which differ in speed. The host
    // takes the vCPU away for milliseconds at a time (clients got 66-91%
    // of their rounds' wall time on the reference host), which only ever
    // slows a round: the upper quartile is a round the host mostly left
    // alone, with a quarter of the rounds still faster.
    let tput = |rounds: &[Round]| {
        let places = cpus.len().max(1);
        let secs_per_kop: f64 = (0..places)
            .map(|p| {
                let kops: Vec<f64> = rounds
                    .iter()
                    .filter(|r| r.placement == p)
                    .map(Round::kops)
                    .collect();
                1.0 / quantile(&kops, 0.75)
            })
            .sum();
        places as f64 / secs_per_kop
    };
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    if trace {
        per_layer_values(&mut values, &t);
        values.insert("nvm.persist_stall_ns".into(), stall_ns);
        // Lower quartiles of the crash/recover cycles, for the same reason
        // as throughput's upper quartile: host interference only ever
        // adds time (one run's cycles took anywhere from 9 to 48 ms).
        values.insert("recovery.recover_s".into(), quantile(&t.recover_s, 0.25));
        values.insert(
            "recovery.shard_max_s".into(),
            quantile(&t.shard_max_s, 0.25),
        );
        let (b, tr) = (tput(&t.bare), tput(&t.traced));
        values.insert("trace.overhead_pct".into(), (b - tr) / b * 100.0);
    } else {
        let read_class = if spec.mix[0] > 0 {
            OpClass::Read
        } else {
            OpClass::Scan
        };
        let mut read_lat: Vec<u32> = t
            .bare
            .iter()
            .flat_map(|r| r.lat[read_class as usize].iter().copied())
            .collect();
        values.insert("throughput_kops".into(), tput(&t.bare));
        values.insert("read_p50_us".into(), percentile(&mut read_lat, 0.50) / 1e3);
        values.insert("read_p99_us".into(), percentile(&mut read_lat, 0.99) / 1e3);
        values.insert("setup_s".into(), median(&t.setup_s));
    }
    let catalogue = if trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let metrics = catalogue
        .into_iter()
        .map(|(name, unit)| {
            let v = *values
                .get(&name)
                .unwrap_or_else(|| panic!("metric {name} not computed"));
            (name, v, unit)
        })
        .collect();

    let mut counts = Json::obj();
    for c in OpClass::ALL {
        let n: usize = t
            .bare
            .iter()
            .chain(&t.traced)
            .map(|r| r.lat[c as usize].len())
            .sum();
        counts.set(c.name(), Json::U64(n as u64));
    }
    let nums = |v: &mut dyn Iterator<Item = f64>| Json::Arr(v.map(Json::F64).collect());
    let ints = |v: &mut dyn Iterator<Item = u64>| Json::Arr(v.map(Json::U64).collect());
    let mut prov = Json::obj();
    prov.set("workload", Json::Str(spec.workload.name().into()));
    prov.set("seed", Json::U64(seed));
    prov.set("trace", Json::Bool(trace));
    prov.set(
        "nproc",
        Json::U64(std::thread::available_parallelism().map_or(1, |p| p.get()) as u64),
    );
    prov.set("cpus", ints(&mut cpus.iter().map(|&c| c as u64)));
    prov.set("clients", Json::U64(spec.clients as u64));
    prov.set("keys", Json::U64(spec.keys));
    prov.set("deployments", Json::U64(spec.deployments as u64));
    prov.set("warmup_ops", Json::U64(spec.warmup_ops as u64));
    prov.set("round_ops", Json::U64(spec.round_ops as u64));
    prov.set("rounds_untraced", Json::U64(t.bare.len() as u64));
    prov.set("rounds_traced", Json::U64(t.traced.len() as u64));
    prov.set("timed_ops", counts);
    prov.set("persist_stall_ns", Json::F64(stall_ns));
    prov.set("leaves_before", ints(&mut t.leaves.iter().map(|l| l.0)));
    prov.set("leaves_after", ints(&mut t.leaves.iter().map(|l| l.1)));
    prov.set(
        "round_kops_untraced",
        nums(&mut t.bare.iter().map(Round::kops)),
    );
    // The share of the timed rounds' wall time the clients were on a CPU
    // (0 if the platform cannot tell); low values mean host preemption.
    let rounds = t.bare.iter().chain(&t.traced);
    let (cpu_s, wall_s) = rounds.fold((0.0, 0.0), |(c, w), r| {
        (
            c + r.cpu.as_secs_f64(),
            w + r.wall.as_secs_f64() * spec.clients as f64,
        )
    });
    prov.set("client_cpu_share", Json::F64(cpu_s / wall_s));
    prov.set("setup_s", nums(&mut t.setup_s.iter().copied()));
    prov.set("recover_s", nums(&mut t.recover_s.iter().copied()));

    Outcome {
        correct: t.failed == 0,
        attempted: t.attempted,
        failed: t.failed,
        metrics,
        provenance: prov,
    }
}

/// One deployment: set up (timed), warm up, timed rounds, checks, then
/// crash/recover cycles; everything lands in `t`.
fn deployment(
    spec: &Spec,
    mut inputs: Inputs,
    seconds: f64,
    trace: bool,
    cpus: &[usize],
    t: &mut Tally,
) {
    let load = inputs.load_pairs();
    let (Deployed { pools, trees }, setup_s) = set_up(spec, &load);
    t.setup_s.push(setup_s);
    drop(load);

    let bare: Bare = GroupCommit::new(ShardedIndex::from_shards(trees.clone()), combine_config());
    let traced: Traced = Shim::new(
        Layer::Combine,
        GroupCommit::new(
            Shim::new(
                Layer::Sharded,
                ShardedIndex::from_shards(
                    trees
                        .iter()
                        .map(|t| Shim::new(Layer::RnTree, Arc::clone(t)))
                        .collect(),
                ),
            ),
            combine_config(),
        ),
    );

    let ctx = Ctx {
        keys: spec.keys,
        hi: AtomicU64::new(spec.keys),
    };
    let writes = spec.mix[1] + spec.mix[2] > 0;
    let mut clients: Vec<Client> = (0..spec.clients).map(|_| Client::default()).collect();
    let prepare = |inputs: &mut Inputs, n: usize, clients: &mut [Client]| {
        let r = inputs.extend(n);
        if writes {
            for c in clients.iter_mut() {
                c.last.resize(inputs.max_key() as usize + 1, 0);
            }
        }
        r
    };

    // Warm-up with the workload's own mix, untimed but checked.
    let warm = prepare(&mut inputs, spec.warmup_ops, &mut clients);
    t.failed += drive(&bare, inputs.ops(), warm, &ctx, &mut clients, false, &[]).failed;
    let leaves_before = bare.stats().leaves;

    // Timed rounds of a fixed op count each, until `seconds` are spent.
    // Rounds run in cycles that give every round kind (untraced, traced)
    // every client placement once, so drift and vCPU speed hit all kinds
    // alike and every deployment weighs every vCPU equally.
    let kinds = if trace { 2 } else { 1 };
    let cycle = kinds * cpus.len().max(1);
    let mut timed = Duration::ZERO;
    let mut r = 0;
    while r < spec.min_rounds
        || r % cycle != 0
        || (timed.as_secs_f64() < seconds && r < spec.max_rounds)
    {
        let range = prepare(&mut inputs, spec.round_ops, &mut clients);
        let traced_round = r % kinds == 1;
        let shift = (r / kinds) % cpus.len().max(1);
        let placed: Vec<usize> = cpus
            .iter()
            .cycle()
            .skip(shift)
            .take(cpus.len())
            .copied()
            .collect();
        let ops = inputs.ops();
        let mut round = if traced_round {
            trees
                .iter()
                .for_each(|t| t.phase_timers().set_enabled(true));
            let before = Counters::read(&pools, &trees);
            let round = drive(&traced, ops, range, &ctx, &mut clients, true, &placed);
            t.counters
                .add_window(&before, &Counters::read(&pools, &trees));
            trees
                .iter()
                .for_each(|t| t.phase_timers().set_enabled(false));
            round
        } else {
            drive(&bare, ops, range, &ctx, &mut clients, false, &placed)
        };
        round.placement = shift;
        t.failed += round.failed;
        timed += round.wall;
        if traced_round {
            t.traced.push(round)
        } else {
            t.bare.push(round)
        }
        r += 1;
    }
    t.leaves.push((leaves_before, bare.stats().leaves));
    t.attempted += inputs.ops().len() as u64;

    // Post-window checks: the visible state, then crash and recover.
    let (snapshot, f) = check_state(&bare, &ctx, &clients);
    t.failed += f + check_invariants(trees.iter().map(|t| &**t));
    let c = traced.inner().commit_stats();
    t.commit.epochs += c.epochs;
    t.commit.ops_coalesced += c.ops_coalesced;
    t.commit.ops_solo += c.ops_solo;
    t.commit.ops_reclaimed += c.ops_reclaimed;
    t.wait.merge(&traced.inner().wait_histogram());
    for (h, &p) in t.phases.iter_mut().zip(Phase::ALL.iter()) {
        trees
            .iter()
            .for_each(|tree| h.merge(&tree.phase_timers().snapshot(p)));
    }
    drop((bare, traced, trees));
    let handles = pools.handles();
    for _ in 0..spec.recoveries.max(1) {
        // The crash itself is the simulator's power-failure model (a copy
        // of every pool's durable image over its arena), not restart work
        // a deployed system does, so it stays outside `recover_s`.
        pools.simulate_crash();
        let t0 = Instant::now();
        let (rec, shard_times) = ShardedIndex::<RnTree>::recover_timed(&handles, tree_config(spec));
        t.recover_s.push(t0.elapsed().as_secs_f64());
        t.shard_max_s
            .push(shard_times.iter().max().map_or(0.0, Duration::as_secs_f64));
        let mut all = Vec::new();
        rec.scan_n(1, snapshot.len() + 1, &mut all);
        t.failed += (all.len() as u64).abs_diff(snapshot.len() as u64)
            + all.iter().zip(&snapshot).filter(|(a, b)| a != b).count() as u64
            + check_invariants((0..SHARDS).map(|i| rec.shard(i)));
    }
}

/// Fills the per-layer catalogue from the traced rounds.
fn per_layer_values(values: &mut BTreeMap<String, f64>, t: &Tally) {
    let spans: Vec<SpanRec> = t
        .traced
        .iter()
        .flat_map(|r| r.spans.iter().copied())
        .collect();
    let n = spans.len() as u64;
    let write_ops = spans.iter().filter(|s| s.class.is_write()).count() as u64;
    let (c, commit, wait, phases) = (&t.counters, &t.commit, &t.wait, &t.phases);
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    let per_op = |x: u64| ratio(x, n);
    let per_kop = |x: u64| ratio(x, n) * 1e3;

    let mut combine_self: Vec<u32> = spans
        .iter()
        .filter(|s| s.class.is_write())
        .map(|s| s.layers[Layer::Combine as usize])
        .collect();
    put(
        "combine.self_us_p50",
        percentile(&mut combine_self, 0.50) / 1e3,
    );
    put(
        "combine.self_us_p99",
        percentile(&mut combine_self, 0.99) / 1e3,
    );
    put("combine.wait_p50_us", wait.quantile(0.50) as f64 / 1e3);
    put("combine.wait_p99_us", wait.quantile(0.99) as f64 / 1e3);
    put(
        "combine.coalesced_share",
        ratio(commit.ops_coalesced, write_ops),
    );
    put("combine.solo_share", ratio(commit.ops_solo, write_ops));
    put(
        "combine.ops_per_epoch",
        ratio(commit.ops_coalesced, commit.epochs),
    );
    put("combine.epochs_per_kop", per_kop(commit.epochs));
    put(
        "combine.reclaimed_per_mop",
        ratio(commit.ops_reclaimed, write_ops) * 1e6,
    );

    put("cache.hits_per_op", per_op(c.cache_hits));
    put("cache.misses_per_op", per_op(c.cache_misses));
    put("cache.evictions_per_op", per_op(c.cache_evictions));
    put(
        "cache.invalidations_per_kop",
        per_kop(c.cache_invalidations),
    );
    put("descent.restarts_per_kop", per_kop(c.descent_restarts));

    put("htm.attempts_per_op", per_op(c.htm.attempts));
    put(
        "htm.conflict_aborts_per_kop",
        per_kop(c.htm.aborts_conflict),
    );
    put(
        "htm.capacity_aborts_per_kop",
        per_kop(c.htm.aborts_capacity),
    );
    put("htm.fallbacks_per_kop", per_kop(c.htm.fallbacks));

    let phase = |p: Phase| phases[p as usize].quantile(0.50) as f64;
    put("rntree.descent_ns_p50", phase(Phase::Descent));
    put("rntree.leaf_cs_ns_p50", phase(Phase::LeafCs));
    put("rntree.log_flush_ns_p50", phase(Phase::LogFlush));
    put("rntree.slot_persist_ns_p50", phase(Phase::SlotPersist));
    put("rntree.splits_per_kop", per_kop(c.splits));
    put("rntree.compactions_per_kop", per_kop(c.compactions));
    put("rntree.retries_per_kop", per_kop(c.retries));

    put("nvm.persists_per_op", per_op(c.persists));
    put("nvm.lines_per_op", per_op(c.lines));

    // Per class: the outer span and each layer's self time; the medians
    // of the parts should add up to the median of the whole.
    let mut worst_gap: f64 = 0.0;
    for class in OpClass::ALL {
        let of_class: Vec<&SpanRec> = spans.iter().filter(|s| s.class == class).collect();
        let col = |f: &dyn Fn(&SpanRec) -> u32| -> f64 {
            let mut v: Vec<u32> = of_class.iter().map(|s| f(s)).collect();
            percentile(&mut v, 0.50)
        };
        let outer = col(&|s| s.outer);
        let parts = col(&|s| s.client)
            + col(&|s| s.layers[Layer::Combine as usize])
            + col(&|s| s.layers[Layer::Sharded as usize])
            + col(&|s| s.layers[Layer::RnTree as usize]);
        let sharded = col(&|s| s.layers[Layer::Sharded as usize]);
        let rntree = col(&|s| s.layers[Layer::RnTree as usize]);
        let mut outer_all: Vec<u32> = of_class.iter().map(|s| s.outer).collect();
        let p99 = percentile(&mut outer_all, 0.99);
        if outer > 0.0 {
            let gap = (outer - parts) / outer * 100.0;
            if gap.abs() > worst_gap.abs() {
                worst_gap = gap;
            }
        }
        put(&format!("sharded.self_ns_p50.{}", class.name()), sharded);
        put(&format!("rntree.op_us_p50.{}", class.name()), rntree / 1e3);
        put(&format!("span.us_p50.{}", class.name()), outer / 1e3);
        put(&format!("span.us_p99.{}", class.name()), p99 / 1e3);
    }
    put("trace.unattributed_pct", worst_gap);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_reject_wrong_results() {
        let op = |key, class| Op { key, class };
        let ops = [
            op(5, OpClass::Update),
            op(5, OpClass::Read),
            op(3, OpClass::Scan),
        ];
        let ctx = Ctx {
            keys: 10,
            hi: AtomicU64::new(10),
        };
        let mut me = Client { last: vec![0; 11] };
        let mut read = |v: Option<Value>| ctx.check(&ops, 1, Res::Found(v), &[], &mut me);
        assert!(read(Some(value_of(5, None))), "the loaded value");
        assert!(read(Some(value_of(5, Some(0)))), "a value op 0 wrote");
        assert!(!read(Some(value_of(6, None))), "another key's value");
        assert!(!read(Some(value_of(5, Some(1)))), "op 1 is a read");
        assert!(!read(Some(value_of(5, Some(9)))), "no op 9");
        assert!(!read(None), "a loaded key went missing");

        assert!(!ctx.check(&ops, 0, Res::Wrote(Err(OpError::NotFound)), &[], &mut me));
        assert!(ctx.check(&ops, 0, Res::Wrote(Ok(())), &[], &mut me));
        assert_eq!(
            me.last[5],
            value_of(5, Some(0)),
            "acknowledged writes are remembered"
        );

        let scan: Vec<(Key, Value)> = (3..=10).map(|k| (k, value_of(k, None))).collect();
        let mut scanned = |buf: &[(Key, Value)]| ctx.check(&ops, 2, Res::Scanned, buf, &mut me);
        assert!(scanned(&scan), "every key from the start to the end");
        assert!(!scanned(&scan[..7]), "short");
        assert!(!scanned(&scan[1..]), "skips the start key");
        let mut gap = scan.clone();
        gap.remove(3);
        assert!(!scanned(&gap), "skips a key");
    }
}
