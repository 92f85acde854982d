//! Flat-combining group commit over the batched persist pipeline.
//!
//! PR 3 proved the batch economics of this design: a sorted batch
//! reaching [`RnTree::insert_batch`]-style per-leaf runs costs ~0.23
//! persists/key where independent point writes cost ~2. But only callers
//! that *already hold* a batch get that price — N concurrent writer
//! threads each issuing point writes still pay the full per-op fence
//! bill. [`GroupCommit`] closes that gap without changing any caller's
//! API: writer threads publish their point writes into per-shard
//! cache-line-padded submission slots, one dynamically elected **leader**
//! per shard drains every published op into one epoch, sorts it, executes
//! it through the inner index's [`PersistentIndex::write_batch`] (the
//! PR-3 run executor, now covering all four write classes), and
//! distributes each op's result back through its slot. Reads bypass the
//! queue entirely.
//!
//! ## Slot protocol
//!
//! Each shard owns [`SLOTS_PER_SHARD`] padded slots. A slot is a tiny
//! state machine driven by one `AtomicU64`:
//!
//! ```text
//! FREE ──CAS (publisher)──▶ SETUP ──store op fields, Release──▶ PUBLISHED
//! PUBLISHED ──CAS (leader)──▶ CLAIMED ──execute──▶ DONE+code (Release)
//! PUBLISHED ──CAS (publisher, waited > max_wait)──▶ FREE   (reclaim)
//! DONE+code ──load Acquire, store FREE (publisher)──▶ FREE
//! ```
//!
//! Op fields (key/value/class) are plain relaxed atomics: the publisher's
//! `Release` store of `PUBLISHED` and the leader's `Acquire` CAS to
//! `CLAIMED` order them, and the result code rides in the state word
//! itself (`DONE_BASE + OpError` code), so delivery needs no second
//! synchronised field.
//!
//! ## Leader election and handoff
//!
//! There is no dedicated combiner thread. After publishing, a writer
//! spins on its own slot and — whenever its op is still `PUBLISHED` and
//! the shard's leader flag is free — elects *itself* leader with one CAS.
//! The leader gathers, accumulates, and executes **one** epoch, then
//! steps down (looping "until the shard is empty" would turn the leader
//! into a serial servicer whose own ops never publish — see [`drain`'s
//! doc][GroupCommit]). Because every waiting publisher is also a
//! candidate, leadership hands off automatically when the current leader
//! finishes and exits (even when its thread terminates): the next
//! spinning writer wins the CAS. No thread registration, so thread exit
//! leaks nothing.
//!
//! ## Epoch formation
//!
//! A leader that drains faster than writers publish executes nothing but
//! singleton epochs — flat combining degenerates to per-op execution
//! with extra steps, and no persists coalesce. Two mechanisms build real
//! groups without taxing the common op:
//!
//! * **Periodic election patience.** Every `PATIENT_EVERY`-th
//!   publication on a shard raises the shard's advisory `gathering`
//!   flag and holds back for a few yield cycles before volunteering as
//!   leader. Concurrent peers get scheduled, publish, and — deferring
//!   their own elections to the flag (boundedly: a stalled gatherer
//!   delays them by a few extra yields, never blocks them) — pile up;
//!   when the patient candidate finally elects itself, its gather
//!   claims the whole pile as one epoch. Patience is periodic, not
//!   universal: an always-patient shard pays a scheduler round-trip
//!   per op (ruinous when cores are scarce), while a bounded share of
//!   patient ops coalesces the bulk of the persist traffic and leaves
//!   the rest on the fast self-election path. Solo writers lose almost
//!   nothing — with no runnable peers the yields return immediately.
//! * **Accumulation window.** Once a gather holds a *group* (two or
//!   more ops), the leader keeps claiming arrivals for a bounded window
//!   ([`GroupCommitConfig::accumulate`], clamped to half the flush
//!   deadline) before executing, so publishes racing the gather still
//!   ride the epoch. Singleton gathers skip the window — a solo writer
//!   never pays it.
//!
//! The residual grouping latency is the deliberate group-commit trade,
//! and why the scaling bench reports (without asserting) the 1-thread
//! point.
//!
//! ## Bounded latency (proof sketch)
//!
//! A published op waits at most `max_wait` before one of three things is
//! guaranteed to have happened: (1) a leader claimed it — the leader is
//! live (it just CASed), epochs are capped at `max_epoch` ops, and the
//! accumulation window is bounded (and clamped below `max_wait`), so the
//! result arrives within one bounded epoch execution; (2) the publisher
//! won the leader CAS and drains itself; (3) the publisher reclaims the
//! still-`PUBLISHED` slot with a CAS and executes the op directly on the
//! inner index. The reclaim CAS and the leader's claim CAS race on the
//! same word, so exactly one wins — the op is never executed twice and
//! never lost. Backpressure is `OpError`-typed end to end: a shard whose
//! slots are all busy degrades to direct execution (no livelock, no
//! queue growth), and `PoolExhausted` from the run executor flows back
//! through the slot like any other per-op result.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use obs::{AtomicHistogram, ObsSource, Section, Timeline};

use crate::{shard_of, Key, KeyBuf, KeyRef, OpError, PersistentIndex, TreeStats, Value, WriteOp};

/// Submission slots per shard. Bounds one epoch's gather scan and the
/// number of writers a shard can park; beyond it writers degrade to
/// direct execution (counted, never blocked).
pub const SLOTS_PER_SHARD: usize = 64;

// Slot states. Result codes ride above DONE_BASE.
const FREE: u64 = 0;
const SETUP: u64 = 1;
const PUBLISHED: u64 = 2;
const CLAIMED: u64 = 3;
/// The leader panicked mid-epoch (a simulated crash in tests): the op was
/// claimed but its fate is unknown. The publisher re-raises the panic so
/// every epoch participant observes the crash, exactly as a real process
/// crash would take all of them down.
const POISONED: u64 = 4;
const DONE_BASE: u64 = 8;

/// Encodes a per-op outcome into a `DONE` state word.
fn done_code(r: &Result<(), OpError>) -> u64 {
    DONE_BASE
        + match r {
            Ok(()) => 0,
            Err(OpError::AlreadyExists) => 1,
            Err(OpError::NotFound) => 2,
            Err(OpError::PoolExhausted) => 3,
            Err(OpError::UnsupportedKey) => 4,
        }
}

/// Decodes a `DONE` state word back into the op outcome.
fn decode_done(state: u64) -> Result<(), OpError> {
    match state - DONE_BASE {
        0 => Ok(()),
        1 => Err(OpError::AlreadyExists),
        2 => Err(OpError::NotFound),
        3 => Err(OpError::PoolExhausted),
        _ => Err(OpError::UnsupportedKey),
    }
}

fn op_code(op: WriteOp) -> u64 {
    match op {
        WriteOp::Insert => 0,
        WriteOp::Update => 1,
        WriteOp::Upsert => 2,
        WriteOp::Remove => 3,
    }
}

fn decode_op(code: u64) -> WriteOp {
    match code {
        0 => WriteOp::Insert,
        1 => WriteOp::Update,
        2 => WriteOp::Upsert,
        _ => WriteOp::Remove,
    }
}

/// One cache-line-padded submission slot. All fields are plain atomics:
/// the state word's Release/Acquire transitions order the op fields, so
/// the protocol is safe Rust with no `UnsafeCell`.
#[repr(align(64))]
struct Slot {
    state: AtomicU64,
    key: AtomicU64,
    value: AtomicU64,
    op: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            state: AtomicU64::new(FREE),
            key: AtomicU64::new(0),
            value: AtomicU64::new(0),
            op: AtomicU64::new(0),
        }
    }
}

/// Per-shard combining state: the slot block, the leader flag, and a
/// round-robin ticket spreading publishers across the slot array.
struct Shard {
    slots: Vec<Slot>,
    /// Leader flag: 0 = free, 1 = a leader is draining. Padded into its
    /// own line by the surrounding `Slot` alignment.
    leader: AtomicU64,
    /// Slot-scan start ticket (reduces CAS collisions between publishers).
    ticket: AtomicU64,
    /// Grouping flag: 1 while a patient candidate is collecting a pile.
    /// Other publishers defer their self-election (bounded — see
    /// `DEFER_SPINS`) so the pile isn't stolen one rider at a time by
    /// instant electors.
    gathering: AtomicU64,
    /// Size of the last executed epoch — the occupancy signal behind the
    /// adaptive gather cadence (see `PATIENT_EVERY`): small piles mean
    /// few concurrent writers, so phases run less often and the solo
    /// path carries the traffic.
    last_epoch: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            slots: (0..SLOTS_PER_SHARD).map(|_| Slot::new()).collect(),
            leader: AtomicU64::new(0),
            ticket: AtomicU64::new(0),
            gathering: AtomicU64::new(0),
            last_epoch: AtomicU64::new(0),
        }
    }
}

/// Every N-th publication per shard is a *patient* election candidate
/// (see the patience comment in [`GroupCommit`]'s `write`): it yields a
/// few scheduler turns before volunteering, giving concurrent peers time
/// to publish ops that then coalesce into its epoch. This is the cadence
/// while piles are paying (`last_epoch >= PILE_WORTH`); shards whose
/// last pile was smaller gather `BACKOFF` times less often — a phase
/// costs a handful of scheduler round-trips, and a pile of one or two
/// ops doesn't amortise enough persist traffic to buy that back.
const PATIENT_EVERY: usize = 16;
/// Pile size at which a gather phase pays for its scheduler round-trips.
/// A pile of k ops touching L distinct leaves costs ≈ 2L + journal
/// persists, so the batch only beats k direct ops (~2k persists) when
/// k clearly exceeds L — and under a skewed-but-wide key distribution
/// (Zipfian θ 0.99 over a 200 K working set) a pile of 4 typically
/// spans nearly 4 leaves while a pile of 8 revisits its hot leaves.
/// Below this width the phase's round-trips buy nothing, so the shard
/// backs off to the slow cadence and the solo path carries the load.
const PILE_WORTH: u64 = 6;
/// Cadence divisor while piles are below `PILE_WORTH`.
const BACKOFF: usize = 4;
/// Spin count after which a patient candidate stops waiting and elects
/// itself regardless of pile growth (the yield cadence is one
/// `yield_now` per 64 spins, so this is a few scheduler turns).
const PATIENT_SPINS: u32 = 192;
/// Spin count after which a publisher stops deferring to an active
/// gatherer and elects itself anyway — the bound that keeps the
/// `gathering` flag advisory: a stalled or vanished gatherer delays
/// peers by a few yields, never blocks them.
const DEFER_SPINS: u32 = 384;

/// Tuning knobs for [`GroupCommit`].
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitConfig {
    /// Number of combining shards. Routing uses [`shard_of`], the same
    /// SplitMix64 partition as [`crate::ShardedIndex`] — give both layers
    /// the same count and every epoch lands wholly inside one tree shard,
    /// so epochs execute in parallel across shards without cross-shard
    /// partitioning work.
    pub shards: usize,
    /// Epoch size cap: a leader stops gathering at this many ops, which
    /// bounds epoch execution time and therefore every waiter's delay
    /// behind a live leader. Clamped to [`SLOTS_PER_SHARD`].
    pub max_epoch: usize,
    /// Flush deadline: the longest a published op may sit unclaimed
    /// before its publisher reclaims it and executes directly. This is
    /// the latency cap the p99 gate in `repro group-scale` checks against.
    pub max_wait: Duration,
    /// Epoch accumulation window — the "group" in group commit. Once a
    /// gather holds at least one op, the leader keeps claiming arrivals
    /// for up to this long (or until `max_epoch`) before executing. A
    /// leader that drains faster than writers publish would otherwise
    /// execute nothing but singleton epochs and coalesce no persists;
    /// the window trades that much latency on every epoch for multi-op
    /// epochs whenever writers are actually concurrent. Zero disables
    /// it. Keep it well under `max_wait`, or publishers start reclaiming
    /// ops a lingering leader was about to claim.
    pub accumulate: Duration,
}

impl Default for GroupCommitConfig {
    fn default() -> GroupCommitConfig {
        GroupCommitConfig {
            shards: 1,
            max_epoch: SLOTS_PER_SHARD,
            max_wait: Duration::from_micros(500),
            accumulate: Duration::from_micros(2),
        }
    }
}

/// Cumulative counters of the combining layer, snapshotted by
/// [`GroupCommit::commit_stats`] and exported via the `commit` obs
/// section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Epochs executed (leader drains that carried at least one op).
    pub epochs: u64,
    /// Successful leader elections (CAS acquisitions of a shard's flag).
    pub leader_elections: u64,
    /// Ops that were coalesced into an epoch.
    pub ops_coalesced: u64,
    /// Ops executed directly because every slot in the shard was busy.
    pub ops_direct_full: u64,
    /// Ops that ran solo: no leader, no gather phase, and no pile to
    /// join, so the op skipped the slot protocol entirely and executed
    /// at direct-path cost (the combining layer's common case between
    /// gather phases).
    pub ops_solo: u64,
    /// Ops reclaimed by their publisher after `max_wait` and executed
    /// directly (stalled-leader escape hatch).
    pub ops_reclaimed: u64,
    /// Epochs cut short by the `max_epoch` cap.
    pub epochs_capped: u64,
}

/// Flat-combining group-commit front-end over any [`PersistentIndex`]
/// (module docs: slot protocol, leader election, latency bound).
///
/// Point writes (`insert`/`update`/`upsert`/`remove`) are published into
/// per-shard slots and executed in coalesced epochs through the inner
/// index's [`PersistentIndex::write_batch`]. Reads, scans, and the
/// already-batched entry points (`load_sorted`, `insert_batch`,
/// `write_batch`) bypass the queue and hit the inner index directly, as
/// do the byte-key `*_k` methods (coalescing targets the u64 point-write
/// hot path; byte-key workloads keep their existing paths).
pub struct GroupCommit<T> {
    inner: T,
    cfg: GroupCommitConfig,
    shards: Vec<Shard>,
    // -- metrics (lock-free; exported via the `commit` obs section) --
    epochs: AtomicU64,
    leader_elections: AtomicU64,
    ops_coalesced: AtomicU64,
    ops_direct_full: AtomicU64,
    ops_solo: AtomicU64,
    ops_reclaimed: AtomicU64,
    epochs_capped: AtomicU64,
    epoch_size: AtomicHistogram,
    epoch_wait_ns: AtomicHistogram,
    queue_depth: AtomicHistogram,
    timeline: Timeline,
    epoch_start: Instant,
    last_tick_ms: AtomicU64,
    /// Set when a leader panicked mid-epoch (a simulated crash in the
    /// persist-trap tests). Like mutex poisoning: the inner index may be
    /// left holding leaf locks, so every subsequent combined write panics
    /// immediately instead of deadlocking on them — exactly the "whole
    /// process dies" semantics a real crash would have.
    crashed: AtomicBool,
    /// Test hook run by a publisher after its crash check and right
    /// before its leader CAS: the window in which a solo-path crash can
    /// land unseen, which `drain`'s own crash re-check must catch.
    #[cfg(test)]
    before_election: Option<Box<dyn Fn() + Send + Sync>>,
}

/// Timeline tick granularity for the queue-depth series.
const TICK_MS: u64 = 100;

impl<T: PersistentIndex> GroupCommit<T> {
    /// Wraps `inner` with a combining front-end.
    pub fn new(inner: T, cfg: GroupCommitConfig) -> GroupCommit<T> {
        let cfg = GroupCommitConfig {
            shards: cfg.shards.max(1),
            max_epoch: cfg.max_epoch.clamp(1, SLOTS_PER_SHARD),
            max_wait: cfg.max_wait,
            // A window at or above the flush deadline would make every
            // lingering leader race its own publishers' reclaims. And on
            // a single-CPU host the window is pure waste: spinning the
            // only core can't admit riders, it just delays the epoch.
            accumulate: if std::thread::available_parallelism().is_ok_and(|n| n.get() <= 1) {
                Duration::ZERO
            } else {
                cfg.accumulate.min(cfg.max_wait / 2)
            },
        };
        GroupCommit {
            shards: (0..cfg.shards).map(|_| Shard::new()).collect(),
            inner,
            cfg,
            epochs: AtomicU64::new(0),
            leader_elections: AtomicU64::new(0),
            ops_coalesced: AtomicU64::new(0),
            ops_direct_full: AtomicU64::new(0),
            ops_solo: AtomicU64::new(0),
            ops_reclaimed: AtomicU64::new(0),
            epochs_capped: AtomicU64::new(0),
            epoch_size: AtomicHistogram::new(),
            epoch_wait_ns: AtomicHistogram::new(),
            queue_depth: AtomicHistogram::new(),
            timeline: Timeline::new(256),
            epoch_start: Instant::now(),
            last_tick_ms: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            #[cfg(test)]
            before_election: None,
        }
    }

    /// Panics if an earlier epoch crashed (see the `crashed` field).
    fn check_crashed(&self) {
        if self.crashed.load(Ordering::Acquire) {
            panic!("group commit poisoned by an earlier epoch crash");
        }
    }

    /// The wrapped index.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The active configuration (post-clamping).
    pub fn config(&self) -> &GroupCommitConfig {
        &self.cfg
    }

    /// Cumulative combining counters.
    pub fn commit_stats(&self) -> CommitStats {
        CommitStats {
            epochs: self.epochs.load(Ordering::Relaxed),
            leader_elections: self.leader_elections.load(Ordering::Relaxed),
            ops_coalesced: self.ops_coalesced.load(Ordering::Relaxed),
            ops_direct_full: self.ops_direct_full.load(Ordering::Relaxed),
            ops_solo: self.ops_solo.load(Ordering::Relaxed),
            ops_reclaimed: self.ops_reclaimed.load(Ordering::Relaxed),
            epochs_capped: self.epochs_capped.load(Ordering::Relaxed),
        }
    }

    /// Distribution of per-op queue wait (publish → result), nanoseconds.
    pub fn wait_histogram(&self) -> obs::Histogram {
        self.epoch_wait_ns.snapshot()
    }

    /// Distribution of epoch sizes (ops per executed epoch).
    pub fn epoch_histogram(&self) -> obs::Histogram {
        self.epoch_size.snapshot()
    }

    /// The queue-depth-over-time series as JSON (windowed p50/p99 of the
    /// per-epoch drained depth, 100 ms windows).
    pub fn depth_timeline_json(&self) -> obs::Json {
        self.timeline.series_json()
    }

    /// Executes one op directly on the inner index (bypass paths). A
    /// panic here (a simulated crash in the persist-trap tests) poisons
    /// the whole layer before re-raising, exactly like a crash inside a
    /// draining epoch: the inner index may be left holding leaf locks,
    /// and every writer — queued or direct — must stop touching it.
    fn apply_direct(&self, key: Key, value: Value, op: WriteOp) -> Result<(), OpError> {
        self.check_crashed(); // the entry check may predate the crash
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match op {
            WriteOp::Insert => self.inner.insert(key, value),
            WriteOp::Update => self.inner.update(key, value),
            WriteOp::Upsert => self.inner.upsert(key, value),
            WriteOp::Remove => self.inner.remove(key),
        })) {
            Ok(r) => r,
            Err(cause) => {
                self.crashed.store(true, Ordering::Release);
                std::panic::resume_unwind(cause);
            }
        }
    }

    /// Publishes one write into its shard's slot block and waits for the
    /// coalesced result — becoming leader itself whenever the shard has
    /// none. This is the whole writer-side protocol.
    fn write(&self, key: Key, value: Value, op: WriteOp) -> Result<(), OpError> {
        self.check_crashed();
        let si = shard_of(key, self.shards.len());
        let sh = &self.shards[si];
        let start = sh.ticket.fetch_add(1, Ordering::Relaxed) as usize;
        // Every `every`-th ticket is a *patient* gather candidate (see
        // the election-patience comment below); it raises the shard's
        // `gathering` flag before publishing so peers arriving during
        // its window join the pile instead of running solo. The cadence
        // adapts to measured occupancy: piles below `PILE_WORTH` mean
        // the phase tax outweighs the persist savings, so phases thin
        // out until concurrency returns.
        let every = if sh.last_epoch.load(Ordering::Relaxed) >= PILE_WORTH {
            PATIENT_EVERY
        } else {
            PATIENT_EVERY * BACKOFF
        };
        let gatherer = start.is_multiple_of(every)
            && sh
                .gathering
                .compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok();
        // Solo bypass: with no gather phase collecting and this op not a
        // gather candidate itself, there is nobody to coalesce with —
        // publishing would only buy a slot round-trip whose epoch holds
        // one op. Instead, take the shard's leader flag directly and run
        // as an implicit singleton epoch: no slot, no scan, no batch
        // allocation, just the op at per-op cost plus two atomics. The
        // flag matters — every write into the inner index must run under
        // some shard's executor flag so a simulated crash mid-op can
        // never strand a leaf lock that a *concurrent* direct writer is
        // already spinning on (the poison protocol can only interrupt
        // writers that are parked in slots or not yet executing). If the
        // flag is taken a leader is draining; publish and ride its epoch.
        // The gathering check is racy by design: a phase starting a
        // moment later simply misses this op — lost coalescing
        // opportunity, never lost correctness.
        if !gatherer
            && sh.gathering.load(Ordering::Relaxed) == 0
            && sh
                .leader
                .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            self.ops_solo.fetch_add(1, Ordering::Relaxed);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.apply_direct(key, value, op)
            }));
            sh.leader.store(0, Ordering::Release);
            match r {
                Ok(r) => return r,
                // `apply_direct` already poisoned the layer; release the
                // flag (done above) and propagate the crash.
                Err(cause) => std::panic::resume_unwind(cause),
            }
        }
        // Acquire a slot: one bounded scan from a rotating start. A full
        // block means SLOTS_PER_SHARD writers are already parked here —
        // degrade to direct execution rather than block (backpressure
        // without livelock; the op still pays at most the per-op price).
        let mut slot = None;
        for i in 0..SLOTS_PER_SHARD {
            let s = &sh.slots[(start + i) % SLOTS_PER_SHARD];
            if s.state.load(Ordering::Relaxed) == FREE
                && s.state
                    .compare_exchange(FREE, SETUP, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                slot = Some(s);
                break;
            }
        }
        let Some(slot) = slot else {
            if gatherer {
                sh.gathering.store(0, Ordering::Relaxed);
            }
            self.ops_direct_full.fetch_add(1, Ordering::Relaxed);
            return self.apply_direct(key, value, op);
        };
        slot.key.store(key, Ordering::Relaxed);
        slot.value.store(value, Ordering::Relaxed);
        slot.op.store(op_code(op), Ordering::Relaxed);
        let published_at = Instant::now();
        slot.state.store(PUBLISHED, Ordering::Release);

        // Election patience: a gatherer that volunteers on its first
        // loop iteration becomes its own combiner every time — on a
        // single CPU each thread then services itself for a whole
        // quantum and nothing ever coalesces, no matter how many writer
        // threads exist. So the gatherer holds back for a few yield
        // cycles while peers get scheduled and publish into its pile
        // (the solo bypass above routes them here whenever the
        // `gathering` flag is up), then gathers the whole pile into one
        // epoch. Patience is periodic rather than universal on purpose —
        // an always-patient shard pays a scheduler round-trip per op
        // (ruinous when cores are scarce), while periodic grouping
        // coalesces the bulk of the persist traffic and leaves most ops
        // on the solo path. Solo writers lose almost nothing: with no
        // runnable peers the gatherer's yields return immediately.
        //
        // Staged patience: the gatherer probes the shard at each yield
        // boundary and considers its pile complete as soon as it stops
        // growing (two consecutive probes agreeing, with at least one
        // rider aboard) — `PATIENT_SPINS` caps the wait either way.
        // Ordinary publications skip all of this and may elect at once.
        let mut patience_done = !gatherer;
        let mut last_pending = 0usize;

        let clear_gather = || {
            if gatherer {
                sh.gathering.store(0, Ordering::Relaxed);
            }
        };

        let mut spins = 0u32;
        loop {
            let st = slot.state.load(Ordering::Acquire);
            if st < DONE_BASE && st != POISONED && self.crashed.load(Ordering::Acquire) {
                // A leader crashed in some other epoch. If our op is still
                // unclaimed, withdraw it; either way, propagate the crash
                // rather than touch an index whose locks may be stranded.
                let _ = slot.state.compare_exchange(
                    PUBLISHED,
                    FREE,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
                clear_gather();
                panic!("group commit poisoned by an earlier epoch crash");
            }
            if st >= DONE_BASE {
                slot.state.store(FREE, Ordering::Release);
                clear_gather();
                self.epoch_wait_ns.record(published_at.elapsed().as_nanos() as u64);
                return decode_done(st);
            }
            if st == POISONED {
                // The leader crashed while executing our epoch. Release
                // the slot and propagate the crash: the op's fate is
                // whatever the storage layer made durable (atomically
                // present or absent, per the run executor's contract).
                slot.state.store(FREE, Ordering::Release);
                clear_gather();
                panic!("group-commit epoch crashed during execution");
            }
            if st == PUBLISHED {
                // No result yet and the op is unclaimed: volunteer — once
                // this candidate's own patience is spent, and deferring
                // (boundedly) to an active gatherer building a pile.
                let defer = !gatherer
                    && spins < DEFER_SPINS
                    && sh.gathering.load(Ordering::Relaxed) != 0;
                #[cfg(test)]
                if let (true, Some(hook)) = (patience_done && !defer, &self.before_election) {
                    hook();
                }
                if patience_done
                    && !defer
                    && sh
                        .leader
                        .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
                {
                    self.leader_elections.fetch_add(1, Ordering::Relaxed);
                    self.drain(si);
                    sh.leader.store(0, Ordering::Release);
                    // The pile (if this was the gatherer) is executed and
                    // distributed; stop deferring peers immediately.
                    clear_gather();
                    continue; // own op was drained (or reclaim-raced); re-check
                }
                // A leader exists but hasn't claimed us within the flush
                // deadline (descheduled, or several capped epochs ahead of
                // us): reclaim the slot and execute directly. The CAS
                // races the leader's claim; exactly one side wins.
                if published_at.elapsed() > self.cfg.max_wait
                    && slot
                        .state
                        .compare_exchange(PUBLISHED, FREE, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                {
                    self.ops_reclaimed.fetch_add(1, Ordering::Relaxed);
                    clear_gather();
                    self.epoch_wait_ns.record(published_at.elapsed().as_nanos() as u64);
                    return self.apply_direct(key, value, op);
                }
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                if !patience_done {
                    let pending = sh
                        .slots
                        .iter()
                        .filter(|s| s.state.load(Ordering::Relaxed) == PUBLISHED)
                        .count();
                    if (pending >= 2 && pending == last_pending) || spins >= PATIENT_SPINS {
                        patience_done = true;
                    }
                    last_pending = pending;
                }
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// One claim pass over a shard's slot block: CASes every `PUBLISHED`
    /// slot to `CLAIMED` and appends its op to the epoch, stopping at
    /// `max_epoch`. Returns whether anything new was claimed.
    fn claim_pass(
        &self,
        sh: &Shard,
        batch: &mut Vec<(Key, Value, WriteOp)>,
        owners: &mut Vec<usize>,
    ) -> bool {
        let mut found_new = false;
        for (i, s) in sh.slots.iter().enumerate() {
            if batch.len() >= self.cfg.max_epoch {
                break;
            }
            if s.state.load(Ordering::Relaxed) == PUBLISHED
                && s.state
                    .compare_exchange(PUBLISHED, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                batch.push((
                    s.key.load(Ordering::Relaxed),
                    s.value.load(Ordering::Relaxed),
                    decode_op(s.op.load(Ordering::Relaxed)),
                ));
                owners.push(i);
                found_new = true;
            }
        }
        found_new
    }

    /// Leader body: gather, accumulate, and execute **one** epoch from
    /// shard `si`. Runs with the shard's leader flag held.
    ///
    /// One epoch per election, deliberately. A leader that loops "until
    /// the shard is empty" turns into a serial servicer — its own next
    /// ops never publish while it leads, so at two threads the only
    /// other writer's op is always a singleton epoch and nothing ever
    /// coalesces. Bounded multi-wave phases (leader cedes a few turns,
    /// re-claims, repeats) were measured too: on a scarce-core host
    /// every slot-served op costs its publisher a scheduler round-trip,
    /// so raising the coalesced fraction past one thread-wide wave per
    /// phase lowered throughput at every thread count even as it
    /// improved persists/op. Stepping down after each epoch puts the
    /// leader back into the writer population; the next election
    /// happens after every participant has had a chance to republish,
    /// which is exactly the moment a gather can catch them all in one
    /// epoch.
    fn drain(&self, si: usize) {
        let sh = &self.shards[si];
        // A writer that crashed on the solo path (or an earlier leader)
        // sets `crashed` before releasing the flag this election just
        // acquired, so the crash is visible here. Its leaf lock may be
        // stranded: executing would spin on it forever. Step down and let
        // the publisher loop propagate the crash instead.
        if self.crashed.load(Ordering::Acquire) {
            return;
        }
        // Gather one epoch: claim every published slot, re-scanning
        // while new ops keep arriving, up to the epoch cap.
        let mut batch: Vec<(Key, Value, WriteOp)> = Vec::new();
        let mut owners: Vec<usize> = Vec::new();
        loop {
            let found_new = self.claim_pass(sh, &mut batch, &mut owners);
            if batch.len() >= self.cfg.max_epoch {
                break;
            }
            if !found_new {
                break;
            }
            // Something arrived during the scan: one more pass picks
            // up stragglers publishing right now, growing the epoch.
        }
        if batch.is_empty() {
            return; // nothing published; step down
        }
        // Accumulation window: once a *group* is in hand, hold execution
        // briefly so peers whose next ops are mid-publish can still join
        // this epoch (module docs). Claimed ops can't be reclaimed — the
        // publisher's escape CAS expects `PUBLISHED` — so the window
        // delays riders, never loses them. Singleton gathers skip it: a
        // solo writer would pay the window on every op for nothing.
        if batch.len() > 1 && !self.cfg.accumulate.is_zero() && batch.len() < self.cfg.max_epoch
        {
            let t0 = Instant::now();
            while batch.len() < self.cfg.max_epoch && t0.elapsed() < self.cfg.accumulate {
                self.claim_pass(sh, &mut batch, &mut owners);
                std::hint::spin_loop();
            }
        }
        if batch.len() >= self.cfg.max_epoch {
            self.epochs_capped.fetch_add(1, Ordering::Relaxed);
        }

        // Execute: pre-sort stably by key carrying each element's slot
        // index, so results (aligned with the sorted batch) map back
        // to their owners. `write_batch`'s own stable sort is then the
        // identity permutation. Gather order defines submission order
        // for in-epoch duplicates: the first-gathered op wins.
        let mut order: Vec<usize> = (0..batch.len()).collect();
        order.sort_by_key(|&j| batch[j].0);
        let mut sorted: Vec<(Key, Value, WriteOp)> = order.iter().map(|&j| batch[j]).collect();
        let results = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if sorted.len() == 1 {
                // Singleton epoch: a one-op batch gains nothing from the
                // batched pipeline's per-leaf grouping, so dispatch it
                // through the inner index's single-op entry point — same
                // atomicity and persist count, a fraction of the setup.
                // Singletons are the combining layer's common case (every
                // op published between gather phases), so this is the
                // difference between a ~2× and a ~1.2× solo-writer tax.
                let (k, v, op) = sorted[0];
                vec![match op {
                    WriteOp::Insert => self.inner.insert(k, v),
                    WriteOp::Update => self.inner.update(k, v),
                    WriteOp::Upsert => self.inner.upsert(k, v),
                    WriteOp::Remove => self.inner.remove(k),
                }]
            } else {
                self.inner.write_batch(&mut sorted)
            }
        })) {
            Ok(r) => r,
            Err(cause) => {
                // Simulated crash (persist trap) inside the epoch:
                // poison the whole structure first (new and waiting
                // writers must not touch locks the unwinding executor
                // may have stranded), then every claimed slot (so the
                // epoch's publishers crash instead of spinning on
                // CLAIMED forever), release leadership, and re-raise.
                self.crashed.store(true, Ordering::Release);
                for &o in &owners {
                    sh.slots[o].state.store(POISONED, Ordering::Release);
                }
                sh.leader.store(0, Ordering::Release);
                std::panic::resume_unwind(cause);
            }
        };
        debug_assert_eq!(results.len(), sorted.len());
        for (j, res) in results.iter().enumerate() {
            sh.slots[owners[order[j]]]
                .state
                .store(done_code(res), Ordering::Release);
        }

        // Epoch bookkeeping.
        let n = batch.len() as u64;
        sh.last_epoch.store(n, Ordering::Relaxed);
        self.epochs.fetch_add(1, Ordering::Relaxed);
        self.ops_coalesced.fetch_add(n, Ordering::Relaxed);
        self.epoch_size.record(n);
        self.queue_depth.record(n);
        let t_ms = self.epoch_start.elapsed().as_millis() as u64;
        let last = self.last_tick_ms.load(Ordering::Relaxed);
        if t_ms.saturating_sub(last) >= TICK_MS
            && self
                .last_tick_ms
                .compare_exchange(last, t_ms, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.timeline.tick(
                t_ms,
                &self.queue_depth.snapshot(),
                self.ops_coalesced.load(Ordering::Relaxed),
            );
        }
    }
}

impl<T: PersistentIndex> PersistentIndex for GroupCommit<T> {
    fn insert(&self, key: Key, value: Value) -> Result<(), OpError> {
        self.write(key, value, WriteOp::Insert)
    }
    fn update(&self, key: Key, value: Value) -> Result<(), OpError> {
        self.write(key, value, WriteOp::Update)
    }
    fn upsert(&self, key: Key, value: Value) -> Result<(), OpError> {
        self.write(key, value, WriteOp::Upsert)
    }
    fn remove(&self, key: Key) -> Result<(), OpError> {
        self.write(key, 0, WriteOp::Remove)
    }
    fn find(&self, key: Key) -> Option<Value> {
        self.inner.find(key) // reads bypass the queue
    }
    fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        self.inner.scan_n(start, n, out)
    }
    fn load_sorted(&self, pairs: &[(Key, Value)]) -> Result<(), OpError> {
        self.inner.load_sorted(pairs) // already batched: pass through
    }
    fn insert_batch(&self, batch: &mut [(Key, Value)]) -> Vec<Result<(), OpError>> {
        self.inner.insert_batch(batch)
    }
    fn write_batch(&self, batch: &mut [(Key, Value, WriteOp)]) -> Vec<Result<(), OpError>> {
        self.inner.write_batch(batch)
    }
    fn supports_var_keys(&self) -> bool {
        self.inner.supports_var_keys()
    }
    fn insert_k(&self, key: KeyRef<'_>, value: Value) -> Result<(), OpError> {
        self.inner.insert_k(key, value)
    }
    fn update_k(&self, key: KeyRef<'_>, value: Value) -> Result<(), OpError> {
        self.inner.update_k(key, value)
    }
    fn upsert_k(&self, key: KeyRef<'_>, value: Value) -> Result<(), OpError> {
        self.inner.upsert_k(key, value)
    }
    fn remove_k(&self, key: KeyRef<'_>) -> Result<(), OpError> {
        self.inner.remove_k(key)
    }
    fn find_k(&self, key: KeyRef<'_>) -> Option<Value> {
        self.inner.find_k(key)
    }
    fn scan_k(&self, start: KeyRef<'_>, n: usize, out: &mut Vec<(KeyBuf, Value)>) -> usize {
        self.inner.scan_k(start, n, out)
    }
    fn load_sorted_k(&self, pairs: &[(KeyBuf, Value)]) -> Result<(), OpError> {
        self.inner.load_sorted_k(pairs)
    }
    fn insert_batch_k(&self, batch: &mut [(KeyBuf, Value)]) -> Vec<Result<(), OpError>> {
        self.inner.insert_batch_k(batch)
    }
    fn name(&self) -> &'static str {
        "GroupCommit"
    }
    fn supports_concurrency(&self) -> bool {
        true
    }
    fn stats(&self) -> TreeStats {
        self.inner.stats()
    }
    fn htm_abort_ratio(&self) -> Option<f64> {
        self.inner.htm_abort_ratio()
    }
}

impl<T: PersistentIndex> ObsSource for GroupCommit<T> {
    /// A `commit` counter section (epochs, elections, coalesced/direct/
    /// reclaimed ops) and a `commit_hist` section with the epoch-size,
    /// queue-wait and queue-depth distributions. The queue-depth-over-
    /// time series is exposed separately via
    /// [`GroupCommit::depth_timeline_json`] (timelines are rendered by
    /// benches, not the registry — same split as PR 9's `trace-scale`).
    fn obs_sections(&self) -> Vec<(String, Section)> {
        let s = self.commit_stats();
        vec![
            (
                "commit".to_string(),
                Section::Counters(vec![
                    ("epochs".into(), s.epochs),
                    ("leader_elections".into(), s.leader_elections),
                    ("ops_coalesced".into(), s.ops_coalesced),
                    ("ops_direct_full".into(), s.ops_direct_full),
                    ("ops_solo".into(), s.ops_solo),
                    ("ops_reclaimed".into(), s.ops_reclaimed),
                    ("epochs_capped".into(), s.epochs_capped),
                ]),
            ),
            (
                "commit_hist".to_string(),
                Section::Latencies(vec![
                    ("epoch_size".into(), self.epoch_size.snapshot()),
                    ("epoch_wait_ns".into(), self.epoch_wait_ns.snapshot()),
                    ("queue_depth".into(), self.queue_depth.snapshot()),
                ]),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex};

    /// A map-backed inner index that also counts write_batch calls, so
    /// the tests can see coalescing happen.
    struct MapIndex {
        map: Mutex<BTreeMap<Key, Value>>,
        batches: AtomicU64,
        batched_ops: AtomicU64,
    }

    impl MapIndex {
        fn new() -> MapIndex {
            MapIndex {
                map: Mutex::new(BTreeMap::new()),
                batches: AtomicU64::new(0),
                batched_ops: AtomicU64::new(0),
            }
        }
    }

    impl PersistentIndex for MapIndex {
        fn insert(&self, key: Key, value: Value) -> Result<(), OpError> {
            let mut m = self.map.lock().unwrap();
            if m.contains_key(&key) {
                return Err(OpError::AlreadyExists);
            }
            m.insert(key, value);
            Ok(())
        }
        fn update(&self, key: Key, value: Value) -> Result<(), OpError> {
            let mut m = self.map.lock().unwrap();
            m.get_mut(&key).map(|v| *v = value).ok_or(OpError::NotFound)
        }
        fn upsert(&self, key: Key, value: Value) -> Result<(), OpError> {
            self.map.lock().unwrap().insert(key, value);
            Ok(())
        }
        fn remove(&self, key: Key) -> Result<(), OpError> {
            self.map.lock().unwrap().remove(&key).map(|_| ()).ok_or(OpError::NotFound)
        }
        fn find(&self, key: Key) -> Option<Value> {
            self.map.lock().unwrap().get(&key).copied()
        }
        fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
            out.clear();
            out.extend(self.map.lock().unwrap().range(start..).take(n).map(|(k, v)| (*k, *v)));
            out.len()
        }
        fn write_batch(&self, batch: &mut [(Key, Value, WriteOp)]) -> Vec<Result<(), OpError>> {
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.batched_ops.fetch_add(batch.len() as u64, Ordering::Relaxed);
            batch.sort_by_key(|p| p.0);
            batch
                .iter()
                .map(|&(k, v, op)| match op {
                    WriteOp::Insert => self.insert(k, v),
                    WriteOp::Update => self.update(k, v),
                    WriteOp::Upsert => self.upsert(k, v),
                    WriteOp::Remove => self.remove(k),
                })
                .collect()
        }
        fn name(&self) -> &'static str {
            "Map"
        }
        fn stats(&self) -> TreeStats {
            TreeStats {
                entries: self.map.lock().unwrap().len() as u64,
                ..TreeStats::default()
            }
        }
    }

    #[test]
    fn single_thread_ops_complete_via_self_election() {
        let gc = GroupCommit::new(MapIndex::new(), GroupCommitConfig::default());
        for k in 0..100u64 {
            gc.insert(k, k * 10).unwrap();
        }
        assert_eq!(gc.insert(5, 0), Err(OpError::AlreadyExists));
        gc.update(7, 77).unwrap();
        assert_eq!(gc.update(1000, 0), Err(OpError::NotFound));
        gc.remove(3).unwrap();
        assert_eq!(gc.remove(3), Err(OpError::NotFound));
        assert_eq!(gc.find(7), Some(77));
        assert_eq!(gc.find(3), None);
        let s = gc.commit_stats();
        // Every op is accounted for exactly once: coalesced into an
        // epoch, run solo (no combining opportunity), or on one of the
        // two escape hatches.
        assert_eq!(s.ops_coalesced + s.ops_direct_full + s.ops_solo + s.ops_reclaimed, 105);
        assert!(s.epochs > 0 && s.leader_elections > 0);
        // A lone writer's epochs are all singletons, and a singleton
        // epoch dispatches through the inner's single-op entry point —
        // the batched pipeline must never see a one-op batch.
        assert_eq!(gc.inner().batched_ops.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn concurrent_writers_coalesce_and_match_an_oracle() {
        let gc = Arc::new(GroupCommit::new(
            MapIndex::new(),
            GroupCommitConfig { shards: 2, ..GroupCommitConfig::default() },
        ));
        const THREADS: u64 = 8;
        const PER: u64 = 500;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let gc = Arc::clone(&gc);
                s.spawn(move || {
                    for i in 0..PER {
                        let k = t * PER + i;
                        gc.insert(k, k).unwrap();
                        if i % 3 == 0 {
                            gc.upsert(k, k + 1).unwrap();
                        }
                        if i % 5 == 0 {
                            gc.remove(k).unwrap();
                        }
                    }
                });
            }
        });
        let mut expect = BTreeMap::new();
        for t in 0..THREADS {
            for i in 0..PER {
                let k = t * PER + i;
                expect.insert(k, k);
                if i % 3 == 0 {
                    expect.insert(k, k + 1);
                }
                if i % 5 == 0 {
                    expect.remove(&k);
                }
            }
        }
        for (&k, &v) in &expect {
            assert_eq!(gc.find(k), Some(v), "key {k}");
        }
        assert_eq!(gc.stats().entries, expect.len() as u64);
        let s = gc.commit_stats();
        assert!(s.epochs > 0);
        // Multi-op epoch formation is timing-dependent here (a fast inner
        // lets each writer self-elect before its peers publish); the
        // gated test below pins coalescing deterministically.
    }

    /// MapIndex whose `write_batch` blocks while the gate is closed, so a
    /// test can hold a leader mid-epoch while other writers publish.
    /// With `crash_at_gate` set, the op blocked at the gate panics when
    /// the gate opens instead — a simulated crash that, in a real index,
    /// would strand the leaf lock it held.
    struct GatedIndex {
        inner: MapIndex,
        gate_open: std::sync::atomic::AtomicBool,
        executing: std::sync::atomic::AtomicBool,
        crash_at_gate: std::sync::atomic::AtomicBool,
        crashed: std::sync::atomic::AtomicBool,
        /// Executor entries after the simulated crash: each one would spin
        /// forever on the stranded lock.
        entries_after_crash: AtomicU64,
    }

    impl GatedIndex {
        fn new() -> GatedIndex {
            GatedIndex {
                inner: MapIndex::new(),
                gate_open: std::sync::atomic::AtomicBool::new(false),
                executing: std::sync::atomic::AtomicBool::new(false),
                crash_at_gate: std::sync::atomic::AtomicBool::new(false),
                crashed: std::sync::atomic::AtomicBool::new(false),
                entries_after_crash: AtomicU64::new(0),
            }
        }

        /// Announce an executor entry and block until the gate opens —
        /// shared by `write_batch` and `insert`, because a singleton
        /// epoch dispatches through the single-op entry point.
        fn wait_at_gate(&self) {
            if self.crashed.load(Ordering::Acquire) {
                self.entries_after_crash.fetch_add(1, Ordering::Relaxed);
            }
            self.executing.store(true, Ordering::Release);
            while !self.gate_open.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            if self.crash_at_gate.load(Ordering::Acquire) {
                self.crashed.store(true, Ordering::Release);
                panic!("simulated crash inside the inner index");
            }
        }
    }

    impl PersistentIndex for GatedIndex {
        fn insert(&self, key: Key, value: Value) -> Result<(), OpError> {
            self.wait_at_gate();
            self.inner.insert(key, value)
        }
        fn update(&self, key: Key, value: Value) -> Result<(), OpError> {
            self.inner.update(key, value)
        }
        fn upsert(&self, key: Key, value: Value) -> Result<(), OpError> {
            self.inner.upsert(key, value)
        }
        fn remove(&self, key: Key) -> Result<(), OpError> {
            self.inner.remove(key)
        }
        fn find(&self, key: Key) -> Option<Value> {
            self.inner.find(key)
        }
        fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
            self.inner.scan_n(start, n, out)
        }
        fn write_batch(&self, batch: &mut [(Key, Value, WriteOp)]) -> Vec<Result<(), OpError>> {
            self.wait_at_gate();
            self.inner.write_batch(batch)
        }
        fn name(&self) -> &'static str {
            "Gated"
        }
        fn stats(&self) -> TreeStats {
            self.inner.stats()
        }
    }

    /// Deterministic coalescing: writer 0 self-elects and blocks inside
    /// the gated executor; three more writers publish meanwhile (they
    /// cannot lead — the flag is held — and cannot reclaim — `max_wait`
    /// is huge). When the gate opens, the still-leader's next gather pass
    /// MUST pick all three up as one multi-op epoch.
    #[test]
    fn blocked_leader_coalesces_waiting_writers_into_one_epoch() {
        let gc = Arc::new(GroupCommit::new(GatedIndex::new(), GroupCommitConfig {
            max_wait: Duration::from_secs(600),
            ..GroupCommitConfig::default()
        }));
        std::thread::scope(|s| {
            let leader = {
                let gc = Arc::clone(&gc);
                s.spawn(move || gc.insert(0, 0))
            };
            // Wait until writer 0 is leader and inside the executor.
            while !gc.inner().executing.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let waiters: Vec<_> = (1..=3u64)
                .map(|k| {
                    let gc = Arc::clone(&gc);
                    s.spawn(move || gc.insert(k, k * 10))
                })
                .collect();
            // Let all three publish: they only ever spin on their slots
            // (leader flag held, reclaim disabled), so once spawned the
            // publish store is microseconds away; give it real time.
            std::thread::sleep(Duration::from_millis(100));
            gc.inner().gate_open.store(true, Ordering::Release);
            leader.join().unwrap().unwrap();
            for w in waiters {
                w.join().unwrap().unwrap();
            }
        });
        for k in 1..=3u64 {
            assert_eq!(gc.find(k), Some(k * 10));
        }
        let s = gc.commit_stats();
        assert_eq!(s.ops_coalesced, 4, "{s:?}");
        assert!(
            gc.epoch_histogram().max() >= 3,
            "blocked leader failed to coalesce the waiting writers: {s:?}"
        );
    }

    /// Regression test for the crash re-check in `drain`. Writer A runs
    /// solo and blocks inside the inner index; writer B publishes (A holds
    /// the leader flag) and is parked by the hook right before its
    /// election, after its own crash check passed. A then crashes, which
    /// poisons the layer and releases the flag, and B wins the election.
    /// B must step down — without executing anything on the inner index
    /// whose lock A stranded — and propagate the crash.
    #[test]
    fn leader_elected_after_a_solo_crash_steps_down() {
        use std::sync::atomic::AtomicBool;
        let b_at_election = Arc::new(AtomicBool::new(false));
        let a_crashed = Arc::new(AtomicBool::new(false));
        let mut gc = GroupCommit::new(GatedIndex::new(), GroupCommitConfig {
            max_wait: Duration::from_secs(600),
            ..GroupCommitConfig::default()
        });
        // Ticket 0 is a gather candidate, never solo: spend it while the
        // gate is open, then close the gate for writer A.
        gc.inner().gate_open.store(true, Ordering::Release);
        gc.insert(0, 0).unwrap();
        gc.inner().gate_open.store(false, Ordering::Release);
        gc.inner().executing.store(false, Ordering::Release);
        let (at, crashed) = (Arc::clone(&b_at_election), Arc::clone(&a_crashed));
        gc.before_election = Some(Box::new(move || {
            at.store(true, Ordering::Release);
            while !crashed.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }));
        let gc = Arc::new(gc);
        std::thread::scope(|s| {
            let a = {
                let gc = Arc::clone(&gc);
                s.spawn(move || gc.insert(1, 10))
            };
            while !gc.inner().executing.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            assert_eq!(gc.commit_stats().ops_solo, 1, "writer A must be on the solo path");
            let b = {
                let gc = Arc::clone(&gc);
                s.spawn(move || gc.insert(2, 20))
            };
            while !b_at_election.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            gc.inner().crash_at_gate.store(true, Ordering::Release);
            gc.inner().gate_open.store(true, Ordering::Release);
            assert!(a.join().is_err(), "writer A must crash");
            a_crashed.store(true, Ordering::Release);
            let err = b.join().expect_err("writer B must propagate the crash");
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("poisoned"), "writer B panicked with {msg:?}");
        });
        assert_eq!(gc.inner().entries_after_crash.load(Ordering::Relaxed), 0);
        assert_eq!(gc.commit_stats().leader_elections, 2, "B must have won an election");
        assert_eq!(gc.shards[0].leader.load(Ordering::Acquire), 0, "B must step down");
    }

    #[test]
    fn obs_sections_export_commit_counters() {
        let gc = GroupCommit::new(MapIndex::new(), GroupCommitConfig::default());
        gc.insert(1, 1).unwrap();
        let sections = gc.obs_sections();
        let names: Vec<&str> = sections.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["commit", "commit_hist"]);
        let Section::Counters(items) = &sections[0].1 else { panic!("counters") };
        assert!(items.iter().any(|(n, v)| n == "ops_coalesced" && *v == 1));
        assert!(items.iter().any(|(n, v)| n == "leader_elections" && *v >= 1));
    }
}
