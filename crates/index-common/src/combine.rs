//! Flat-combining group commit over the batched persist pipeline.
//!
//! PR 3 proved the batch economics of this design: a sorted batch
//! reaching RNTree's per-leaf write runs costs ~0.23
//! persists/key where independent point writes cost ~2. But only callers
//! that *already hold* a batch get that price — N concurrent writer
//! threads each issuing point writes still pay the full per-op fence
//! bill. [`GroupCommit`] closes that gap without changing any caller's
//! API: when a shard has more writers in flight than CPUs, writer threads
//! publish their point writes into per-shard cache-line-padded submission
//! slots, one dynamically elected **leader** per shard drains every
//! published op into one epoch, sorts it, executes it through the inner
//! index's [`PersistentIndex::write_batch`] (the PR-3 run executor, now
//! covering all four write classes), and distributes each op's result
//! back through its slot. Reads bypass the queue entirely.
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
//! ## When to combine
//!
//! Combining trades parallelism for coalescing: a leader executes its
//! peers' ops one epoch at a time on one thread. While a shard has idle
//! CPUs that trade loses — writers on different leaves run in parallel
//! under the inner index's own per-leaf locking, and funnelling them
//! through one executor serializes them. So each shard counts the
//! writers currently inside a write. A writer that finds fewer than
//! `available_parallelism` others in flight executes its op directly, in
//! parallel, with no flag and no slot (`ops_solo`). Only a writer on an
//! oversubscribed shard — more writers in flight than CPUs, so some of
//! them are descheduled mid-op anyway — publishes into a slot. Such a
//! shard has no idle CPU to spin on, so waiting publishers yield on every
//! iteration.
//!
//! ## Leader election and handoff
//!
//! There is no dedicated combiner thread and no patience step. A
//! publisher whose op is still `PUBLISHED` elects *itself* leader with
//! one CAS on the shard's leader flag whenever the flag is free. The
//! leader claims whatever is already published in one pass over the
//! slot block — it never waits for absent peers (flat combining after
//! Hendler, Incze, Shavit and Tzafrir, SPAA 2010) — executes that **one**
//! epoch, and steps down (looping "until the shard is empty" would turn
//! the leader into a serial servicer whose own ops never publish — see
//! `drain`). Because every waiting publisher is also a candidate,
//! leadership hands off automatically when the current leader finishes
//! and exits (even when its thread terminates): the next waiting writer
//! wins the CAS. No thread registration, so thread exit leaks nothing.
//! Publishers that arrive while a leader executes pile up in the slots
//! and ride the next epoch together; singleton epochs dispatch through
//! the inner index's single-op methods.
//!
//! ## Crash liveness
//!
//! A simulated crash (a persist-trap panic) kills one thread wherever it
//! stood, so a leaf lock, split bit, journal slot or undecided log entry
//! it held stays held.
//! The pool owns the liveness of that state: the trap marks the pool
//! dead before it panics, and every wait on pool-resident state panics
//! on a dead pool instead of spinning forever
//! ([`nvm::PmemPool::check_alive`]). Direct writers therefore need no
//! exclusivity against a crash. Every inner-index call here runs under
//! `catch_unwind`; a panic raises the layer's `crashed` flag, which makes
//! every later write and every parked publisher panic too — the "whole
//! process dies" semantics of a real crash.
//!
//! ## Bounded latency (proof sketch)
//!
//! A published op waits at most `max_wait` before one of three things is
//! guaranteed to have happened: (1) a leader claimed it — the leader is
//! live (it just CASed) and epochs are capped at `max_epoch` ops, so the
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

use obs::{AtomicHistogram, ObsSource, Section};

use crate::{AnyKey, Key, KeyBuf, KeyRef, OpError, PersistentIndex, TreeStats, Value, WriteOp};

/// A key's combining shard among `shards`: the SplitMix64 finalizer
/// (Steele et al.), whose every output bit depends on every input bit, so
/// sequential keys spread evenly whatever the shard count's factors.
#[inline]
fn shard_of(key: Key, shards: usize) -> usize {
    let mut x = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

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

/// Per-shard combining state: the slot block, the leader flag, a
/// round-robin ticket spreading publishers across the slot array, and the
/// in-flight writer count that decides direct or combined.
struct Shard {
    slots: Vec<Slot>,
    /// Leader flag: 0 = free, 1 = a leader is draining.
    leader: AtomicU64,
    /// Slot-scan start ticket (reduces CAS collisions between publishers).
    ticket: AtomicU64,
    /// Writers currently inside `write` on this shard (see [`Occupant`]).
    writers: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            slots: (0..SLOTS_PER_SHARD).map(|_| Slot::new()).collect(),
            leader: AtomicU64::new(0),
            ticket: AtomicU64::new(0),
            writers: AtomicU64::new(0),
        }
    }
}

/// Releases one writer's registration in its shard's in-flight count, on
/// return and on unwind alike.
struct Occupant<'a>(&'a AtomicU64);

impl Drop for Occupant<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Tuning knobs for [`GroupCommit`].
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitConfig {
    /// Number of combining shards. A key's combining shard is a
    /// SplitMix64 hash of it, which spreads adjacent hot keys over the
    /// shards; it is independent of how an inner [`crate::ShardedIndex`]
    /// partitions keys, so an epoch may span its tree shards, and the
    /// inner `write_batch` partitions it.
    pub shards: usize,
    /// Epoch size cap: a leader stops gathering at this many ops, which
    /// bounds epoch execution time and therefore every waiter's delay
    /// behind a live leader. Clamped to [`SLOTS_PER_SHARD`].
    pub max_epoch: usize,
    /// Flush deadline: the longest a published op may sit unclaimed
    /// before its publisher reclaims it and executes directly. This is
    /// the latency cap the p99 gate in `repro group-scale` checks against.
    pub max_wait: Duration,
}

impl Default for GroupCommitConfig {
    fn default() -> GroupCommitConfig {
        GroupCommitConfig {
            shards: 1,
            max_epoch: SLOTS_PER_SHARD,
            max_wait: Duration::from_micros(500),
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
    /// Ops executed directly by their own writer, in parallel with other
    /// writers, because fewer than `available_parallelism` other writers
    /// were in flight on the shard: no slot, no leader, no epoch.
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
/// Point writes on u64 keys execute directly while their shard has a CPU
/// to spare; on an oversubscribed shard they are published into per-shard
/// slots and executed in coalesced epochs through the inner index's
/// [`PersistentIndex::write_batch`]. Point writes on byte keys always
/// execute directly (the slots hold u64 keys), under the same crash
/// check. Reads, scans, and the already-batched entry points
/// (`load_sorted`, `write_batch`) bypass the queue and hit the inner index
/// directly.
pub struct GroupCommit<T> {
    inner: T,
    cfg: GroupCommitConfig,
    shards: Vec<Shard>,
    /// `available_parallelism`: a writer that finds this many others in
    /// flight on its shard publishes instead of executing directly.
    cpus: u64,
    // -- metrics (lock-free; exported via the `commit` obs section) --
    epochs: AtomicU64,
    leader_elections: AtomicU64,
    ops_coalesced: AtomicU64,
    ops_direct_full: AtomicU64,
    /// Striped: every uncontended write bumps it (the others count only
    /// when combining engages).
    ops_solo: obs::Counter,
    ops_reclaimed: AtomicU64,
    epochs_capped: AtomicU64,
    epoch_size: AtomicHistogram,
    epoch_wait_ns: AtomicHistogram,
    queue_depth: AtomicHistogram,
    /// Set when any inner-index call panicked (a simulated crash in the
    /// persist-trap tests). Like mutex poisoning: the inner index may be
    /// left holding leaf locks, so every subsequent write panics
    /// immediately instead of touching it — exactly the "whole process
    /// dies" semantics a real crash would have.
    crashed: AtomicBool,
    /// Test hook run by a publisher after its crash check and right
    /// before its leader CAS: the window in which a direct writer's crash
    /// can land unseen, which `drain`'s own crash re-check must catch.
    #[cfg(test)]
    before_election: Option<Box<dyn Fn() + Send + Sync>>,
}

impl<T: PersistentIndex> GroupCommit<T> {
    /// Wraps `inner` with a combining front-end.
    pub fn new(inner: T, cfg: GroupCommitConfig) -> GroupCommit<T> {
        let cfg = GroupCommitConfig {
            shards: cfg.shards.max(1),
            max_epoch: cfg.max_epoch.clamp(1, SLOTS_PER_SHARD),
            max_wait: cfg.max_wait,
        };
        GroupCommit {
            shards: (0..cfg.shards).map(|_| Shard::new()).collect(),
            inner,
            cfg,
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            epochs: AtomicU64::new(0),
            leader_elections: AtomicU64::new(0),
            ops_coalesced: AtomicU64::new(0),
            ops_direct_full: AtomicU64::new(0),
            ops_solo: obs::Counter::new(),
            ops_reclaimed: AtomicU64::new(0),
            epochs_capped: AtomicU64::new(0),
            epoch_size: AtomicHistogram::new(),
            epoch_wait_ns: AtomicHistogram::new(),
            queue_depth: AtomicHistogram::new(),
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
            ops_solo: self.ops_solo.get(),
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

    /// Runs `f` directly on the inner index, behind the poison guard
    /// every non-queued write shares (point writes on the direct,
    /// full-slots and byte-key paths, batches, bulk loads). A poisoned
    /// layer panics before touching the index; a panic inside `f` (a
    /// simulated crash in the persist-trap tests) poisons the whole layer
    /// before re-raising, exactly like a crash inside a draining epoch:
    /// the inner index may be left holding leaf locks, and every writer —
    /// queued or direct — must stop touching it.
    fn guarded<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.check_crashed(); // the caller's entry check may predate the crash
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&self.inner))) {
            Ok(r) => r,
            Err(cause) => {
                self.crashed.store(true, Ordering::Release);
                std::panic::resume_unwind(cause);
            }
        }
    }

    /// Executes one point write directly on the inner index (see
    /// [`GroupCommit::guarded`]).
    fn apply_direct(&self, key: AnyKey<'_>, value: Value, op: WriteOp) -> Result<(), OpError> {
        self.guarded(|t| t.apply(key, value, op))
    }

    /// Executes one write directly while the shard has a CPU to spare;
    /// otherwise publishes it into the shard's slot block and waits for
    /// the coalesced result — becoming leader itself whenever the shard
    /// has none. This is the whole writer-side protocol.
    fn write(&self, key: Key, value: Value, op: WriteOp) -> Result<(), OpError> {
        self.check_crashed();
        let si = shard_of(key, self.shards.len());
        let sh = &self.shards[si];
        let others = sh.writers.fetch_add(1, Ordering::Relaxed);
        let _occupant = Occupant(&sh.writers);
        if others < self.cpus {
            // Every other writer in flight can hold a CPU of its own:
            // execute in parallel, exactly as without this layer.
            self.ops_solo.add(1);
            return self.apply_direct(AnyKey::U64(key), value, op);
        }
        // Acquire a slot: one bounded scan from a rotating start. A full
        // block means SLOTS_PER_SHARD writers are already parked here —
        // degrade to direct execution rather than block (backpressure
        // without livelock; the op still pays at most the per-op price).
        let start = sh.ticket.fetch_add(1, Ordering::Relaxed) as usize;
        let Some(slot) = (0..SLOTS_PER_SHARD)
            .map(|i| &sh.slots[(start + i) % SLOTS_PER_SHARD])
            .find(|s| {
                s.state.load(Ordering::Relaxed) == FREE
                    && s.state
                        .compare_exchange(FREE, SETUP, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
            })
        else {
            self.ops_direct_full.fetch_add(1, Ordering::Relaxed);
            return self.apply_direct(AnyKey::U64(key), value, op);
        };
        slot.key.store(key, Ordering::Relaxed);
        slot.value.store(value, Ordering::Relaxed);
        slot.op.store(op_code(op), Ordering::Relaxed);
        let published_at = Instant::now();
        slot.state.store(PUBLISHED, Ordering::Release);

        loop {
            let st = slot.state.load(Ordering::Acquire);
            if st < DONE_BASE && st != POISONED && self.crashed.load(Ordering::Acquire) {
                // A writer crashed elsewhere. If our op is still
                // unclaimed, withdraw it; either way, propagate the crash
                // rather than touch an index whose locks may be stranded.
                let _ = slot.state.compare_exchange(
                    PUBLISHED,
                    FREE,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
                panic!("group commit poisoned by an earlier epoch crash");
            }
            if st >= DONE_BASE {
                slot.state.store(FREE, Ordering::Release);
                self.epoch_wait_ns.record(published_at.elapsed().as_nanos() as u64);
                return decode_done(st);
            }
            if st == POISONED {
                // The leader crashed while executing our epoch. Release
                // the slot and propagate the crash: the op's fate is
                // whatever the storage layer made durable (atomically
                // present or absent, per the run executor's contract).
                slot.state.store(FREE, Ordering::Release);
                panic!("group-commit epoch crashed during execution");
            }
            if st == PUBLISHED {
                // No result yet and the op is unclaimed: volunteer.
                #[cfg(test)]
                if let Some(hook) = &self.before_election {
                    hook();
                }
                if sh
                    .leader
                    .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    self.leader_elections.fetch_add(1, Ordering::Relaxed);
                    self.drain(si);
                    sh.leader.store(0, Ordering::Release);
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
                    self.epoch_wait_ns.record(published_at.elapsed().as_nanos() as u64);
                    return self.apply_direct(AnyKey::U64(key), value, op);
                }
            }
            // The shard is oversubscribed: a CPU spent spinning here is
            // one the leader (or a direct writer) does not get.
            std::thread::yield_now();
        }
    }

    /// Leader body: claim and execute **one** epoch from shard `si`. Runs
    /// with the shard's leader flag held.
    ///
    /// The epoch is whatever is published right now, taken in one claim
    /// pass: there is no accumulation window, so a leader never waits for
    /// peers that may not come. One epoch per election, deliberately. A
    /// leader that loops "until the shard is empty" turns into a serial
    /// servicer — its own next ops never publish while it leads, so
    /// nothing but singleton epochs ever form behind it. Stepping down
    /// after each epoch puts the leader back into the writer population;
    /// ops published while it executed pile up and ride the next epoch
    /// together.
    fn drain(&self, si: usize) {
        let sh = &self.shards[si];
        // A writer that crashed on the direct path (or an earlier leader)
        // may have set `crashed` after this publisher's last check. Its
        // leaf lock may be stranded: step down and let the publisher loop
        // propagate the crash instead of executing into the wreck.
        if self.crashed.load(Ordering::Acquire) {
            return;
        }
        let mut batch: Vec<(Key, Value, WriteOp)> = Vec::new();
        let mut owners: Vec<usize> = Vec::new();
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
            }
        }
        if batch.is_empty() {
            return; // nothing published; step down
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
                let (k, v, op) = sorted[0];
                vec![self.inner.apply(AnyKey::U64(k), v, op)]
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
        self.epochs.fetch_add(1, Ordering::Relaxed);
        self.ops_coalesced.fetch_add(n, Ordering::Relaxed);
        self.epoch_size.record(n);
        self.queue_depth.record(n);
    }
}

impl<T: PersistentIndex> PersistentIndex for GroupCommit<T> {
    fn apply(&self, key: AnyKey<'_>, value: Value, op: WriteOp) -> Result<(), OpError> {
        match key {
            AnyKey::U64(k) => self.write(k, value, op),
            AnyKey::Bytes(_) => self.apply_direct(key, value, op),
        }
    }
    fn get(&self, key: AnyKey<'_>) -> Option<Value> {
        self.inner.get(key) // reads bypass the queue
    }
    fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        self.inner.scan_n(start, n, out)
    }
    fn scan_k(&self, start: KeyRef<'_>, n: usize, out: &mut Vec<(KeyBuf, Value)>) -> usize {
        self.inner.scan_k(start, n, out)
    }
    // Already batched: bypass the queue, but not the poison guard.
    fn load_sorted(&self, pairs: &[(Key, Value)]) -> Result<(), OpError> {
        self.guarded(|t| t.load_sorted(pairs))
    }
    fn load_sorted_k(&self, pairs: &[(KeyBuf, Value)]) -> Result<(), OpError> {
        self.guarded(|t| t.load_sorted_k(pairs))
    }
    fn write_batch(&self, batch: &mut [(Key, Value, WriteOp)]) -> Vec<Result<(), OpError>> {
        self.guarded(|t| t.write_batch(batch))
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
    /// queue-wait and queue-depth distributions.
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
    use crate::testing::MemIndex;
    use crate::{KeyCodec, U64Key};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 5, 8] {
            for key in 0..1000u64 {
                let s = shard_of(key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(key, shards), "routing must be deterministic");
            }
        }
    }

    #[test]
    fn shard_of_spreads_sequential_keys() {
        let mut counts = [0usize; 4];
        for key in 0..4000u64 {
            counts[shard_of(key, 4)] += 1;
        }
        for &c in &counts {
            // Perfectly uniform would be 1000 per shard; accept ±25%.
            assert!((750..=1250).contains(&c), "skewed shard histogram: {counts:?}");
        }
    }

    /// The reference index, counting the ops that reach it through
    /// `write_batch`, so the tests can see coalescing happen.
    #[derive(Default)]
    struct CountingIndex {
        mem: MemIndex,
        batched_ops: AtomicU64,
    }

    impl PersistentIndex for CountingIndex {
        fn apply(&self, key: AnyKey<'_>, value: Value, op: WriteOp) -> Result<(), OpError> {
            self.mem.apply(key, value, op)
        }
        fn get(&self, key: AnyKey<'_>) -> Option<Value> {
            self.mem.get(key)
        }
        fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
            self.mem.scan_n(start, n, out)
        }
        fn write_batch(&self, batch: &mut [(Key, Value, WriteOp)]) -> Vec<Result<(), OpError>> {
            self.batched_ops.fetch_add(batch.len() as u64, Ordering::Relaxed);
            self.mem.write_batch(batch)
        }
        fn name(&self) -> &'static str {
            "Counting"
        }
        fn stats(&self) -> TreeStats {
            self.mem.stats()
        }
    }

    #[test]
    fn single_thread_ops_complete_on_the_direct_path() {
        let gc = GroupCommit::new(CountingIndex::default(), GroupCommitConfig::default());
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
        // A lone writer never finds the shard oversubscribed (every host
        // has at least one CPU): every op runs directly, none publishes,
        // and the batched pipeline never sees an op.
        let s = gc.commit_stats();
        assert_eq!(s, CommitStats { ops_solo: 105, ..CommitStats::default() });
        assert_eq!(gc.inner().batched_ops.load(Ordering::Relaxed), 0);
        assert_eq!(gc.shards[0].writers.load(Ordering::Relaxed), 0, "occupancy leaked");
    }

    #[test]
    fn concurrent_writers_coalesce_and_match_an_oracle() {
        let gc = Arc::new(GroupCommit::new(
            CountingIndex::default(),
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
        let mut writes = 0;
        for t in 0..THREADS {
            for i in 0..PER {
                let k = t * PER + i;
                expect.insert(k, k);
                writes += 1;
                if i % 3 == 0 {
                    expect.insert(k, k + 1);
                    writes += 1;
                }
                if i % 5 == 0 {
                    expect.remove(&k);
                    writes += 1;
                }
            }
        }
        for (&k, &v) in &expect {
            assert_eq!(gc.find(k), Some(v), "key {k}");
        }
        assert_eq!(gc.stats().entries, expect.len() as u64);
        // Every write is accounted for exactly once. How many of them
        // publish depends on how many writers the host runs at once; the
        // gated tests below pin publication and coalescing
        // deterministically.
        let s = gc.commit_stats();
        assert_eq!(s.ops_coalesced + s.ops_direct_full + s.ops_solo + s.ops_reclaimed, writes);
        assert!(gc.shards.iter().all(|sh| sh.writers.load(Ordering::Relaxed) == 0));
    }

    /// MemIndex whose inserts and `write_batch` block while the
    /// gate is closed, so a test can park writers inside the inner index:
    /// parking `cpus` direct writers there oversubscribes the shard and
    /// forces every further writer to publish, on any host. With
    /// `crash_at_gate` set, every op blocked at the gate panics when the
    /// gate opens instead — a simulated crash that, in a real index, would
    /// strand the leaf lock it held.
    struct GatedIndex {
        mem: MemIndex,
        gate_open: AtomicBool,
        /// Executor entries that reached the gate so far.
        entered: AtomicU64,
        crash_at_gate: AtomicBool,
        crashed: AtomicBool,
        /// Executor entries after the simulated crash: each one would spin
        /// forever on the stranded lock.
        entries_after_crash: AtomicU64,
    }

    impl GatedIndex {
        fn new() -> GatedIndex {
            GatedIndex {
                mem: MemIndex::new(),
                gate_open: AtomicBool::new(false),
                entered: AtomicU64::new(0),
                crash_at_gate: AtomicBool::new(false),
                crashed: AtomicBool::new(false),
                entries_after_crash: AtomicU64::new(0),
            }
        }

        /// Announce an executor entry and block until the gate opens —
        /// shared by `write_batch` and `apply`, because direct writes and
        /// singleton epochs dispatch through the single-op entry point.
        fn wait_at_gate(&self) {
            if self.crashed.load(Ordering::Acquire) {
                self.entries_after_crash.fetch_add(1, Ordering::Relaxed);
            }
            self.entered.fetch_add(1, Ordering::Release);
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
        fn apply(&self, key: AnyKey<'_>, value: Value, op: WriteOp) -> Result<(), OpError> {
            if op == WriteOp::Insert {
                self.wait_at_gate();
            }
            self.mem.apply(key, value, op)
        }
        fn get(&self, key: AnyKey<'_>) -> Option<Value> {
            self.mem.get(key)
        }
        fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
            self.mem.scan_n(start, n, out)
        }
        fn write_batch(&self, batch: &mut [(Key, Value, WriteOp)]) -> Vec<Result<(), OpError>> {
            self.wait_at_gate();
            self.mem.write_batch(batch)
        }
        fn name(&self) -> &'static str {
            "Gated"
        }
        fn stats(&self) -> TreeStats {
            self.mem.stats()
        }
    }

    /// A gated layer whose reclaim path stays closed for the test's life.
    fn gated() -> GroupCommit<GatedIndex> {
        GroupCommit::new(GatedIndex::new(), GroupCommitConfig {
            max_wait: Duration::from_secs(600),
            ..GroupCommitConfig::default()
        })
    }

    /// Spawns one direct writer per CPU (keys `base..`) and waits until
    /// all of them are parked at the gate: from then on the shard is
    /// oversubscribed and every new writer publishes.
    fn park_direct_writers<'s>(
        s: &'s std::thread::Scope<'s, '_>,
        gc: &Arc<GroupCommit<GatedIndex>>,
        base: u64,
    ) -> Vec<std::thread::ScopedJoinHandle<'s, Result<(), OpError>>> {
        let handles = (0..gc.cpus)
            .map(|i| {
                let gc = Arc::clone(gc);
                s.spawn(move || gc.insert(base + i, base + i))
            })
            .collect();
        wait_until(|| gc.inner().entered.load(Ordering::Acquire) == gc.cpus);
        assert_eq!(gc.commit_stats().ops_solo, gc.cpus, "the parked writers must run directly");
        handles
    }

    fn wait_until(cond: impl Fn() -> bool) {
        while !cond() {
            std::thread::yield_now();
        }
    }

    fn published(gc: &GroupCommit<GatedIndex>) -> usize {
        gc.shards[0].slots.iter().filter(|s| s.state.load(Ordering::Acquire) == PUBLISHED).count()
    }

    /// Deterministic coalescing: with one direct writer parked per CPU,
    /// writer L publishes, elects itself, and blocks inside the gated
    /// executor with its singleton epoch; three more writers publish
    /// meanwhile (they cannot lead — the flag is held — and cannot
    /// reclaim — `max_wait` is huge). When the gate opens, whichever of
    /// them wins the next election MUST claim all three as one epoch.
    #[test]
    fn blocked_leader_coalesces_waiting_writers_into_one_epoch() {
        let gc = Arc::new(gated());
        std::thread::scope(|s| {
            let direct = park_direct_writers(s, &gc, 1_000);
            let leader = {
                let gc = Arc::clone(&gc);
                s.spawn(move || gc.insert(0, 0))
            };
            // L is leader once its singleton reaches the gate.
            wait_until(|| gc.inner().entered.load(Ordering::Acquire) == gc.cpus + 1);
            assert_eq!(gc.commit_stats().leader_elections, 1);
            let waiters: Vec<_> = (1..=3u64)
                .map(|k| {
                    let gc = Arc::clone(&gc);
                    s.spawn(move || gc.insert(k, k * 10))
                })
                .collect();
            wait_until(|| published(&gc) == 3);
            gc.inner().gate_open.store(true, Ordering::Release);
            leader.join().unwrap().unwrap();
            for w in waiters.into_iter().chain(direct) {
                w.join().unwrap().unwrap();
            }
        });
        for k in 1..=3u64 {
            assert_eq!(gc.find(k), Some(k * 10));
        }
        let s = gc.commit_stats();
        assert_eq!(s.ops_coalesced, 4, "{s:?}");
        assert_eq!(s.ops_solo, gc.cpus, "{s:?}");
        assert_eq!(
            gc.epoch_histogram().max(),
            3,
            "the waiting writers must ride one epoch behind the blocked leader: {s:?}"
        );
    }

    /// Regression test for the crash re-check in `drain`. The parked
    /// direct writers (the "A" side) block inside the inner index; writer
    /// B publishes and is parked by the hook right before its election,
    /// after its own crash check passed. The direct writers then crash,
    /// which poisons the layer, and B wins the free leader flag. B must
    /// step down — without executing anything on the inner index whose
    /// locks the crash stranded — and propagate the crash.
    #[test]
    fn leader_elected_after_a_solo_crash_steps_down() {
        let b_at_election = Arc::new(AtomicBool::new(false));
        let a_crashed = Arc::new(AtomicBool::new(false));
        let mut gc = gated();
        let (at, crashed) = (Arc::clone(&b_at_election), Arc::clone(&a_crashed));
        gc.before_election = Some(Box::new(move || {
            at.store(true, Ordering::Release);
            while !crashed.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }));
        let gc = Arc::new(gc);
        std::thread::scope(|s| {
            let direct = park_direct_writers(s, &gc, 1_000);
            let b = {
                let gc = Arc::clone(&gc);
                s.spawn(move || gc.insert(2, 20))
            };
            wait_until(|| b_at_election.load(Ordering::Acquire));
            gc.inner().crash_at_gate.store(true, Ordering::Release);
            gc.inner().gate_open.store(true, Ordering::Release);
            for a in direct {
                assert!(a.join().is_err(), "every parked direct writer must crash");
            }
            assert!(gc.crashed.load(Ordering::Acquire), "a direct crash must poison the layer");
            a_crashed.store(true, Ordering::Release);
            let err = b.join().expect_err("writer B must propagate the crash");
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("poisoned"), "writer B panicked with {msg:?}");
        });
        // Once poisoned, byte-key, batch and bulk-load writes panic
        // exactly as a u64 write does, without reaching the inner index.
        let panic_of = |write: &dyn Fn() -> Result<(), OpError>| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(write))
                .expect_err("a poisoned layer must refuse every write");
            err.downcast_ref::<&str>().copied().unwrap_or_default().to_string()
        };
        let key = U64Key::encode(3);
        let u64_panic = panic_of(&|| gc.insert(3, 30));
        assert!(u64_panic.contains("poisoned"), "{u64_panic:?}");
        assert_eq!(panic_of(&|| gc.insert_k(key.as_slice(), 30)), u64_panic);
        assert_eq!(panic_of(&|| gc.insert_batch(&mut [(4, 40)]).remove(0)), u64_panic);
        assert_eq!(panic_of(&|| gc.load_sorted(&[(5, 50)])), u64_panic);
        assert_eq!(gc.inner().entries_after_crash.load(Ordering::Relaxed), 0);
        assert_eq!(gc.commit_stats().leader_elections, 1, "B must have won an election");
        assert_eq!(gc.shards[0].leader.load(Ordering::Acquire), 0, "B must step down");
        assert_eq!(published(&gc), 0, "B must withdraw its op");
    }

    /// One published op behind the parked direct writers: the exported
    /// counters must show it coalesced by one elected leader, next to the
    /// direct writers' solo ops.
    #[test]
    fn obs_sections_export_commit_counters() {
        let gc = Arc::new(gated());
        std::thread::scope(|s| {
            let direct = park_direct_writers(s, &gc, 1_000);
            let published = {
                let gc = Arc::clone(&gc);
                s.spawn(move || gc.insert(1, 1))
            };
            wait_until(|| gc.inner().entered.load(Ordering::Acquire) == gc.cpus + 1);
            gc.inner().gate_open.store(true, Ordering::Release);
            for w in direct.into_iter().chain([published]) {
                w.join().unwrap().unwrap();
            }
        });
        let sections = gc.obs_sections();
        let names: Vec<&str> = sections.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["commit", "commit_hist"]);
        let Section::Counters(items) = &sections[0].1 else { panic!("counters") };
        let counter = |name: &str| items.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        assert_eq!(counter("ops_solo"), Some(gc.cpus));
        assert_eq!(counter("ops_coalesced"), Some(1));
        assert_eq!(counter("leader_elections"), Some(1));
        assert_eq!(counter("epochs"), Some(1));
    }
}
