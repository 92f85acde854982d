//! The RNTree itself: modify/find/scan operations (paper Algorithms 1–4),
//! split and compaction, and the concurrency protocol.
//!
//! ## Protocol summary (and one strengthening over the paper's pseudocode)
//!
//! A modify operation (Algorithm 1) is: traverse → lock-free log-entry
//! allocation (CAS on `nlogs`) → write KV → **flush KV outside any lock** →
//! take the leaf spin lock → `htmLeafUpdate` (slot array, in a transaction)
//! → flush slot line → `htmLeafCopySlot` (dual-slot) → `plogs++` → maybe
//! split → unlock.
//!
//! The paper's Algorithm 1 splits as soon as `plogs == capacity-1`. We add
//! the guard `nlogs == plogs` — *split only when every allocated log entry
//! has been decided*. Without it, a slow writer that allocated an entry and
//! is still writing its KV bytes could race the split's compaction of the
//! KV area. With it, splits run on a quiescent log area, which also makes
//! allocated entries never stale: no split can complete between a
//! writer's allocation and its decision, so writers need no epoch
//! re-validation — only the fence-key coverage check. Deferred splits are
//! picked up by whichever writer decides the last in-flight entry (or by
//! the allocation-failure path when the log area is exhausted).
//!
//! Every allocated entry is eventually *decided* exactly once under the
//! lock — applied, rejected by a conditional write, rejected by a full slot
//! array, or abandoned by the fence check — and `plogs` counts decisions,
//! so the split trigger cannot starve.
//!
//! This protocol exists once. Every operation below is generic over a
//! [`LeafFormat`] (`format.rs`) — the fixed u64 leaf or the var-key leaf —
//! and compiled once per format; the `PersistentIndex` methods pick the
//! format from `RnConfig::varlen_leaves`.

use std::borrow::Borrow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use htm::HtmStatsSnapshot;
use index_common::{
    leaf_ref, AnyKey, InnerIndex, Key, KeyBuf, KeyCodec, KeyRef, OpError, PersistentIndex,
    TreeStats, U64Key, Value, WriteOp, MAX_KEY_LEN,
};
use nvm::{BlockAllocator, PmemPool, RootTable, UndoJournal};
use obs::{EventKind, HeatSketch, ObsSource, Phase, PhaseTimers, Section};

use crate::fingerprint::FpTable;
use crate::format::{init_from_pairs, sorted_pairs, LeafFormat, U64Format};
use crate::layout::{LEAF_CAPACITY, MAX_LIVE};
use crate::leaf::{Leaf, WhichSlot};
use crate::slots::SlotBuf;
use crate::varleaf::VarFormat;

/// Pool magic identifying an RNTree layout.
pub(crate) const MAGIC: u64 = 0x524E_5452_4545_0001;

/// Root-table slot assignments.
pub(crate) mod roots {
    /// Offset of the leftmost leaf (recovery entry point, §5.4).
    pub const LEFTMOST: usize = 0;
    /// Layout magic.
    pub const MAGIC: usize = 1;
    /// Number of split-journal slots.
    pub const JOURNAL_SLOTS: usize = 2;
    /// First byte of the leaf block region.
    pub const LEAF_REGION: usize = 3;
    /// Clean-shutdown flag (1 after `close`).
    pub const CLEAN: usize = 4;
    /// Leaf layout selector: 1 = variable-length-key leaves (4096-byte
    /// blocks), 0 = fixed u64 leaves. Written at create, checked on every
    /// open — the two layouts are not interchangeable on one pool.
    pub const VARLEN: usize = 5;
    /// Reserved, always 0 in a pool this build formats. Older builds
    /// recorded a leaf-layout policy here: 1 and 2 meant leaves that may
    /// hold hash-directory slot lines, which this build cannot read, so
    /// an open refuses any non-zero word
    /// ([`crate::ConfigError::LegacyLeafLayout`]) instead of misreading
    /// the pool.
    pub const LEAF_POLICY: usize = 6;
}

/// RNTree construction options.
#[derive(Debug, Clone, Copy)]
pub struct RnConfig {
    /// Enable the dual slot array (§4.4). On: readers snapshot the
    /// transient slot array and the leaf version changes only on splits.
    /// Off: readers snapshot the persistent slot array seqlock-style and
    /// the version changes on every modification (the paper's plain
    /// "RNTree" variant in §6.3).
    pub dual_slot: bool,
    /// Use sequential (non-transactional) tree traversal. Only valid for
    /// single-threaded phases; the paper's single-thread benchmarks use it
    /// for every tree equally.
    pub seq_traversal: bool,
    /// Split-journal slots (≥ the number of concurrent writer threads).
    pub journal_slots: usize,
    /// Frame budget of the DRAM page cache over the inner index (each
    /// frame caches one inner node, 512 B of payload). With a cache
    /// attached, the concurrent descent walks version-validated cached
    /// frames and enters the HTM machinery only at the leaf. The cache
    /// admits nodes into free frames and never evicts: once a frame set
    /// is full, its other nodes are read in place under the index's
    /// optimistic gate, so an index larger than the budget costs no
    /// frame churn. `0` disables the cache and restores the
    /// all-transactional descent (the before side of `repro
    /// cache-scale`). The cache is transient DRAM: crashes ignore it and
    /// recovery starts cold.
    pub cache_frames: usize,
    /// Store variable-length byte-comparable keys natively: leaves become
    /// 4096-byte heap-slotted nodes (slot entries carry a 4-byte key head
    /// plus a heap offset/length, keys prefix-truncated against the leaf's
    /// low fence — see `layout::varlen`), the inner index compares interned
    /// byte separators, and the `*_k` byte-key API is served without a
    /// codec round-trip. Off (the default) keeps the paper's fixed u64
    /// layout bit-for-bit: every existing pool, persist count and perf
    /// characteristic is untouched, and `*_k` calls route through the
    /// [`index_common::U64Key`] codec. The flag is recorded in the pool's
    /// root table; create and open must agree.
    pub varlen_leaves: bool,
}

impl Default for RnConfig {
    fn default() -> Self {
        RnConfig {
            dual_slot: true,
            seq_traversal: false,
            journal_slots: 64,
            cache_frames: 1024,
            varlen_leaves: false,
        }
    }
}

impl RnConfig {
    /// Divides this config's page-cache frame budget across `shards`
    /// co-resident trees (the way `nvm::PoolSet` carves pool capacity),
    /// flooring at one minimal set per shard so no shard ends up
    /// accidentally uncached. A zero budget stays zero: disabling the
    /// cache disables it for every shard.
    pub fn carve_cache_frames(&self, shards: usize) -> RnConfig {
        assert!(shards > 0, "carving across zero shards");
        let mut cfg = *self;
        if cfg.cache_frames > 0 {
            cfg.cache_frames = (self.cache_frames / shards).max(nvm::CACHE_WAYS);
        }
        cfg
    }
}

/// Operation counters (splits, compactions, retries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RnStats {
    /// Leaf splits performed.
    pub splits: u64,
    /// In-place leaf compactions performed.
    pub compactions: u64,
    /// Operation-level retries (stale route, post-split rerun, …).
    pub retries: u64,
    /// Log entries wasted by failed conditionals / abandoned ops.
    pub wasted_entries: u64,
}

/// The RNTree (see crate docs). Construct with [`RnTree::create`],
/// [`RnTree::recover`] or [`RnTree::reopen_clean`].
pub struct RnTree {
    pub(crate) pool: Arc<PmemPool>,
    pub(crate) alloc: BlockAllocator,
    pub(crate) index: InnerIndex,
    /// The split undo journal (paper §5.2.1: "we first log the whole
    /// leaf node in ... undo logs"): whole-leaf pre-images, one slot per
    /// concurrent splitter, images the size of the config's leaf block.
    pub(crate) journal: UndoJournal,
    pub(crate) cfg: RnConfig,
    pub(crate) fps: FpTable,
    pub(crate) leftmost: u64,
    pub(crate) splits: AtomicU64,
    pub(crate) compactions: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) wasted: AtomicU64,
    pub(crate) pool_exhausted: AtomicBool,
    /// Leaf-level head ties: searches in a variable-length leaf that had to
    /// fall back from the 4-byte key head to a full byte compare. Always 0
    /// in u64 mode (obs "keys" section).
    pub(crate) leaf_head_ties: obs::Counter,
    /// Phase-breakdown timers (obs). Off by default; the modify path pays
    /// one relaxed load per op until [`RnTree::phase_timers`] enables them.
    pub(crate) timers: PhaseTimers,
    /// Structural heat attribution (obs): which *leaves* draw HTM
    /// aborts/fallbacks and splits. Fixed-capacity top-K sketches, fed
    /// only on the already-slow paths (abort deltas, splits) — never on
    /// a clean op.
    pub(crate) heat: LeafHeat,
}

/// Per-leaf heat sketches; see [`RnTree::leaf_heat`]. Keys are leaf pool
/// offsets throughout.
#[derive(Debug, Default)]
pub struct LeafHeat {
    /// HTM aborts + fallback acquisitions attributed to the leaf whose
    /// slot line the section edited (writes) or snapshotted (reads).
    pub conflicts: HeatSketch,
    /// Splits, keyed by the left (splitting) leaf.
    pub splits: HeatSketch,
}

/// Decision taken for an allocated log entry under the leaf lock.
pub(crate) enum Decision {
    /// Slot array updated; carries the new slot image for the tslot copy.
    Applied(SlotBuf),
    /// Conditional insert: key already present.
    Exists,
    /// Conditional update: key absent.
    Missing,
    /// Slot array already holds `MAX_LIVE` entries; retry after the split.
    Overfull,
}

/// What kind of write a modify operation is.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteMode {
    /// Fail on duplicate key.
    InsertStrict,
    /// Fail on missing key.
    UpdateStrict,
    /// Insert-or-update.
    Upsert,
}

impl RnTree {
    // ---------------------------------------------------------------- plumbing

    /// The underlying pool.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// HTM counters of this tree's sections.
    pub fn htm_stats(&self) -> HtmStatsSnapshot {
        self.index.htm().snapshot()
    }

    /// Operation counters.
    pub fn rn_stats(&self) -> RnStats {
        RnStats {
            splits: self.splits.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            wasted_entries: self.wasted.load(Ordering::Relaxed),
        }
    }

    /// True if a split could not allocate a leaf block (the tree still
    /// works, but stops splitting; size the pool generously).
    pub fn saw_pool_exhaustion(&self) -> bool {
        self.pool_exhausted.load(Ordering::Relaxed)
    }

    /// The phase-breakdown timers (descent / leaf critical section /
    /// log flush / slot persist). Disabled by default; call
    /// `phase_timers().set_enabled(true)` to start sampling.
    pub fn phase_timers(&self) -> &PhaseTimers {
        &self.timers
    }

    /// Page-cache counter snapshot, `None` when `cache_frames == 0`.
    pub fn cache_stats(&self) -> Option<nvm::CacheStats> {
        self.index.page_cache().map(|c| c.stats())
    }

    /// The per-leaf heat sketches (conflict and split attribution).
    pub fn leaf_heat(&self) -> &LeafHeat {
        &self.heat
    }

    /// Diagnostic: the pool offset of the leaf currently covering `key`
    /// (racy under concurrent splits — meant for correlating heat-table
    /// keys with planted workloads, not for navigation).
    pub fn leaf_of(&self, key: Key) -> u64 {
        self.descend::<U64Format>(&key).off()
    }

    /// Restart taxonomy of the cached optimistic descent (zeros when the
    /// cache is disabled — the descent then never leaves the TM).
    pub fn descent_stats(&self) -> index_common::DescentStats {
        self.index.descent_stats()
    }

    fn leaf(&self, off: u64) -> Leaf<'_> {
        Leaf::at(&self.pool, off)
    }

    fn descend<F: LeafFormat>(&self, key: &F::Key) -> Leaf<'_> {
        self.leaf(F::descend(&self.index, key, self.cfg.seq_traversal))
    }

    pub(crate) fn read_slot_kind(&self) -> WhichSlot {
        if self.cfg.dual_slot {
            WhichSlot::Transient
        } else {
            WhichSlot::Persistent
        }
    }

    /// Readers of the single-slot variant must wait out the lock bit
    /// (seqlock); dual-slot readers only wait out splits (§4.4).
    pub(crate) fn reader_waits_lock(&self) -> bool {
        !self.cfg.dual_slot
    }

    // ---------------------------------------------------------------- modify

    /// Algorithm 1 over any leaf format: the one modify path.
    fn modify<F: LeafFormat>(&self, key: &F::Key, value: Value, mode: WriteMode) -> Result<(), OpError> {
        // Consecutive full-leaf retries; see `starved` for how this turns a
        // hopeless retry loop (full leaf + exhausted pool) into an error.
        let mut starved = 0u32;
        loop {
            // Phase breakdown (obs): one relaxed load when disabled; on a
            // sampled op, one timestamp per phase boundary.
            let mut clock = self.timers.clock();
            let leaf = self.descend::<F>(key);
            clock.lap(&self.timers, Phase::Descent);

            let Some(entry) = leaf.alloc_entry() else {
                // Log area exhausted: help the split along (Algorithm 1
                // line 5 re-traverses "hoping the split completes"; the
                // nlogs==plogs guard means someone must actually run it).
                self.help_split::<F>(leaf);
                if self.starved(&mut starved) {
                    return Err(OpError::PoolExhausted);
                }
                self.note_retry();
                continue;
            };

            // Warm the lines the locked phase will touch (slot arrays, the
            // live records a search may compare, the fingerprint stripe)
            // while the persist below spins out the media latency.
            F::prefetch(leaf, entry);
            self.fps.prefetch_stripe(leaf.off());

            // Steps 2–3 of §4.2: write and flush the record with no lock
            // held. Parallel writers flush concurrently. The fingerprint is
            // a plain DRAM store (no persist) recorded before the entry can
            // be published through the slot array.
            let Some(extent) = F::write_record(leaf, entry, key, value) else {
                // No room for the record: decide the entry wasted under the
                // lock. The failed reservation implies heap pressure, so
                // the decision triggers the split.
                leaf.lock();
                self.decide::<F>(leaf, 1);
                leaf.unlock(false);
                self.wasted.fetch_add(1, Ordering::Relaxed);
                if self.starved(&mut starved) {
                    return Err(OpError::PoolExhausted);
                }
                self.note_retry();
                continue;
            };
            self.fps.set(leaf.off(), entry, F::fp(key));
            // Persistent instruction #1. Where the record is one line,
            // §4.2's flush/work overlap applies literally: issue the CLWB
            // now and let the lock acquisition and slot search run while
            // the line drains to media; the fence (the drain below) only
            // spins out whatever latency is left. The entry is exclusively
            // ours and never rewritten before the fence, so the durable
            // value is well-defined (see `PmemPool::flush_async`).
            let kv_flush = if F::OVERLAP_FLUSH {
                let (at, len) = extent.as_ref()[0];
                Some(self.pool.flush_async(at, len))
            } else {
                clock.mark();
                self.pool.persist_many(extent.as_ref());
                clock.lap(&self.timers, Phase::LogFlush);
                None
            };

            // The critical-section span wraps lock→unlock inclusive of the
            // nested drain/slot-persist spans; the report subtracts them.
            let mut cs = clock.fork();
            leaf.lock();

            // Coverage check: a split between traversal and lock may have
            // shrunk this leaf's range. The entry itself cannot be stale
            // (no split completes while it is undecided), so it is simply
            // wasted and counted as decided.
            if F::above(key, &F::high_fence(leaf)) {
                if let Some(h) = kv_flush {
                    self.pool.drain(h);
                }
                self.decide::<F>(leaf, 1);
                leaf.unlock(false);
                self.wasted.fetch_add(1, Ordering::Relaxed);
                self.note_retry();
                continue;
            }

            // htmLeafUpdate: the slot line is edited inside a hardware
            // transaction; conditional-write checks ride along for free.
            // Heat attribution: the thread-local abort/fallback counters
            // are read before and after the slot-line sections; any delta
            // happened while this op held *this* leaf, so the leaf gets
            // the blame. Free on the no-abort path (two TLS reads).
            let sm = obs::section_mark();
            let decision = self.update_pslot(leaf, |slot| self.edit::<F>(leaf, slot, key, entry, mode));

            // The fence for persistent instruction #1: the record must be
            // durable before the slot line can be (publication order). On
            // the reject paths this is where the wasted entry's flush is
            // accounted, exactly like a synchronous persist.
            if let Some(h) = kv_flush {
                clock.mark();
                self.pool.drain(h);
                clock.lap(&self.timers, Phase::LogFlush);
            }

            let applied = if let Decision::Applied(slot) = &decision {
                // Persistent instruction #2: the slot line. Atomic thanks
                // to the line-granular flush; both its old and new states
                // are consistent (§4.1).
                clock.mark();
                leaf.persist_pslot();
                clock.lap(&self.timers, Phase::SlotPersist);
                self.publish(leaf, slot);
                true
            } else {
                self.wasted.fetch_add(1, Ordering::Relaxed);
                false
            };

            let d = sm.since();
            if d.aborts + d.fallbacks > 0 {
                self.heat.conflicts.record(leaf.off(), d.aborts + d.fallbacks);
            }

            let did_split = self.decide::<F>(leaf, 1);
            // Single-slot variant: version bump per modification (§5.2.2);
            // the split already bumped if it ran.
            leaf.unlock(!self.cfg.dual_slot && applied && !did_split);
            cs.lap(&self.timers, Phase::LeafCs);

            match decision {
                Decision::Applied(_) => return Ok(()),
                Decision::Exists => return Err(OpError::AlreadyExists),
                Decision::Missing => return Err(OpError::NotFound),
                Decision::Overfull => {
                    if self.starved(&mut starved) {
                        return Err(OpError::PoolExhausted);
                    }
                    self.note_retry();
                    continue;
                }
            }
        }
    }

    /// `htmLeafUpdate` (paper Table 2): runs `edit` on the persistent slot
    /// line inside one hardware transaction, making the 64-byte line the
    /// atomic write unit (§4.1), and writes an `Applied` image back in the
    /// same transaction.
    ///
    /// In single-threaded (`seq_traversal`) mode the line is edited with
    /// plain stores instead: the simulator's software TM costs hundreds of
    /// nanoseconds where real RTM costs tens, so single-thread benchmarks
    /// model the section as near-free stores. Crash atomicity is
    /// unaffected in the simulation — the line reaches the durable image
    /// only through the (atomic, line-granular) flush that follows — so
    /// sequential mode must not be combined with eviction-injection crash
    /// tests, which is exactly the real-HTM hazard the transactional path
    /// exists to prevent.
    fn update_pslot(&self, leaf: Leaf<'_>, edit: impl Fn(&mut SlotBuf) -> Decision) -> Decision {
        if self.cfg.seq_traversal {
            let mut slot = leaf.read_slot_seq(WhichSlot::Persistent);
            let d = edit(&mut slot);
            if let Decision::Applied(s) = &d {
                leaf.write_slot_seq(WhichSlot::Persistent, s);
            }
            d
        } else {
            htm::atomic(self.index.htm(), |txn| {
                let mut slot = leaf.read_slot_in(txn, WhichSlot::Persistent)?;
                let d = edit(&mut slot);
                if let Decision::Applied(s) = &d {
                    leaf.write_slot_in(txn, WhichSlot::Persistent, s)?;
                }
                Ok(d)
            })
        }
    }

    /// Writes a whole slot line — transactionally even under the lock:
    /// readers snapshot the line optimistically and must never observe a
    /// torn one (plain stores in `seq_traversal` mode).
    fn write_slot(&self, leaf: Leaf<'_>, which: WhichSlot, slot: &SlotBuf) {
        if self.cfg.seq_traversal {
            leaf.write_slot_seq(which, slot);
        } else {
            htm::atomic(self.index.htm(), |txn| leaf.write_slot_in(txn, which, slot));
        }
    }

    /// `htmLeafCopySlot`: with the dual slot array, publish the new line to
    /// readers only now, after its persist — readers can never return
    /// un-persisted data (§4.4).
    fn publish(&self, leaf: Leaf<'_>, slot: &SlotBuf) {
        if self.cfg.dual_slot {
            self.write_slot(leaf, WhichSlot::Transient, slot);
        }
    }

    /// The slot-line edit of a modify. The fingerprint probe answers the
    /// hit/miss question (no key reads on a miss); the sorted insertion
    /// position is only computed when an insert actually happens. Strict
    /// inserts skip the probe: they need the binary search for the
    /// insertion point anyway, and its duplicate check rides along for
    /// free (§3.3).
    fn edit<F: LeafFormat>(
        &self,
        leaf: Leaf<'_>,
        slot: &mut SlotBuf,
        key: &F::Key,
        entry: usize,
        mode: WriteMode,
    ) -> Decision {
        let probe = mode != WriteMode::InsertStrict;
        match self.locate::<F>(leaf, slot, key, probe) {
            Ok(pos) => {
                if mode == WriteMode::InsertStrict {
                    return Decision::Exists;
                }
                slot.set_entry(pos, entry);
            }
            Err(pos) => {
                if mode == WriteMode::UpdateStrict {
                    return Decision::Missing;
                }
                if slot.len() == MAX_LIVE {
                    return Decision::Overfull;
                }
                self.insert_at::<F>(leaf, slot, key, pos, entry);
            }
        }
        Decision::Applied(*slot)
    }

    /// Write-path locate: `Ok(pos)` when `key` is present, else `Err`
    /// carrying its sorted insertion position when already known. With
    /// `probe`, hit/miss comes from the fingerprint table and the
    /// position is left to [`Self::insert_at`].
    #[inline]
    fn locate<F: LeafFormat>(
        &self,
        leaf: Leaf<'_>,
        slot: &SlotBuf,
        key: &F::Key,
        probe: bool,
    ) -> Result<usize, Option<usize>> {
        if probe {
            self.fps.probe::<F>(leaf, slot, key, &self.leaf_head_ties).ok_or(None)
        } else {
            F::search(leaf, slot, key, &self.leaf_head_ties).map_err(Some)
        }
    }

    /// Adds an absent key's entry at its sorted position (searched for
    /// when `pos` is unknown); the caller has checked the image is not
    /// full.
    fn insert_at<F: LeafFormat>(
        &self,
        leaf: Leaf<'_>,
        slot: &mut SlotBuf,
        key: &F::Key,
        pos: Option<usize>,
        entry: usize,
    ) {
        let pos = pos.unwrap_or_else(|| match F::search(leaf, slot, key, &self.leaf_head_ties) {
            Ok(p) | Err(p) => p,
        });
        slot.insert_at(pos, entry);
    }

    // ---------------------------------------------------------------- split

    /// Counts `n` decided log entries and runs the (possibly deferred)
    /// split when they consumed the log area (or the format reports heap
    /// pressure) and the log is quiescent. Lock must be held. Returns true
    /// if a split/compaction ran.
    fn decide<F: LeafFormat>(&self, leaf: Leaf<'_>, n: u64) -> bool {
        let plogs = leaf.plogs() + n;
        leaf.set_plogs(plogs);
        if plogs < (LEAF_CAPACITY - 1) as u64 && !F::heap_low(leaf) {
            return false;
        }
        // Freeze allocation first (splitting bit and allocation counter
        // share one atomic word), then check quiescence: after the freeze,
        // `nlogs` cannot move, so the check cannot race a late allocation.
        leaf.set_split();
        if leaf.nlogs() == plogs {
            self.split_or_compact::<F>(leaf);
            true
        } else {
            // In-flight entries remain; their owners will re-trigger.
            leaf.unset_split_nobump();
            false
        }
    }

    /// Allocation-failure path: take the lock and split if the leaf is
    /// consumed *and* quiescent; otherwise just back off (in-flight
    /// writers will decide their entries and trigger the split).
    fn help_split<F: LeafFormat>(&self, leaf: Leaf<'_>) {
        leaf.lock();
        let nlogs = leaf.nlogs();
        let quiescent = nlogs == leaf.plogs();
        if (nlogs >= LEAF_CAPACITY as u64 || F::heap_low(leaf)) && quiescent {
            leaf.set_split();
            // The freeze cannot race new allocations (the counter is full
            // anyway), so the re-check under the frozen word is exact.
            if leaf.nlogs() == leaf.plogs() {
                self.split_or_compact::<F>(leaf);
            } else {
                leaf.unset_split_nobump();
            }
        }
        leaf.unlock(false);
        if !quiescent {
            // The caller retries until other writers decide their entries.
            // An entry whose owner died in a persist trap is never decided:
            // die with the pool instead of retrying forever.
            self.pool.check_alive();
        }
        std::thread::yield_now();
    }

    pub(crate) fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Full-leaf retry accounting. Returns true when retrying cannot ever
    /// succeed: a split has already failed for lack of blocks, no block has
    /// been freed since, and the condition has held for several consecutive
    /// retries (giving any deferred compaction or in-flight split every
    /// chance to drain the leaf first). Without this, an insert into a full
    /// leaf of an exhausted pool would retry forever.
    pub(crate) fn starved(&self, count: &mut u32) -> bool {
        *count += 1;
        *count >= 4 && self.pool_exhausted.load(Ordering::Relaxed) && !self.alloc.has_free()
    }

    /// Splits (or, when mostly obsolete, compacts) the leaf. Caller holds
    /// the lock, has set the splitting bit (freezing allocation), and has
    /// verified `nlogs == plogs` (quiescent log area). Clears the
    /// splitting bit (with a version bump) before returning.
    fn split_or_compact<F: LeafFormat>(&self, leaf: Leaf<'_>) {
        debug_assert_eq!(leaf.nlogs(), leaf.plogs());
        let jslot = self.journal.acquire(&self.pool);
        // Undo-log the whole node (Algorithm 3 line 2).
        self.journal.log(&self.pool, jslot, leaf.off());

        // Gather the live pairs in key order and rewrite them densely.
        let pairs = sorted_pairs::<F>(leaf);
        let live = pairs.len();
        let (low, high) = (F::low_fence(leaf), F::high_fence(leaf));

        if live < LEAF_CAPACITY / 2 {
            // Mostly obsolete entries (update/remove churn): recycle the
            // log area by compacting in place under the same fences
            // (§5.2.3's special-purpose split), journal-protected like a
            // real split.
            let img = self.rewrite::<F>(leaf, &pairs, &low, &high);
            self.install_slots(leaf, &img);
            leaf.persist_block(F::BLOCK);
            leaf.set_nlogs(live as u64);
            leaf.set_plogs(live as u64);
            self.journal.clear(&self.pool, jslot);
            self.compactions.fetch_add(1, Ordering::Relaxed);
            self.pool.events().record(EventKind::Compaction, leaf.off(), live as u64);
            leaf.unset_split_bump();
            return;
        }

        let Some(right_off) = self.alloc.alloc() else {
            // Cannot grow: leave the leaf untouched (it still works, just
            // re-triggers). Surfaced via `saw_pool_exhaustion`.
            self.pool_exhausted.store(true, Ordering::Relaxed);
            self.pool.events().record(EventKind::PoolExhausted, leaf.off(), self.pool.len());
            self.journal.clear(&self.pool, jslot);
            leaf.unset_split_bump();
            return;
        };

        // Algorithm 3: divide the pairs; left keeps the lower half with
        // separator = its new maximum key — a real stored key, so both
        // halves' fences stay real keys.
        let mid = live / 2;
        debug_assert!(mid >= 1);
        let sep = pairs[mid - 1].0;

        // Build and persist the new right sibling first (it is private
        // until linked; a crash before the link leaks only the block,
        // which allocator rebuild reclaims).
        let right = self.leaf(right_off);
        init_from_pairs::<F>(right, &pairs[mid..], &sep, &high, leaf.next());
        self.set_fps::<F>(right, &pairs[mid..]);

        // Rewrite the left half in place, then link and persist. A crash
        // anywhere in here is undone by the journal image.
        let img = self.rewrite::<F>(leaf, &pairs[..mid], &low, &F::fence_at(sep));
        self.install_slots(leaf, &img);
        leaf.set_next(right_off);
        leaf.persist_block(F::BLOCK);
        leaf.set_nlogs(mid as u64);
        leaf.set_plogs(mid as u64);
        self.journal.clear(&self.pool, jslot);

        // htmTreeUpdate — before clearing the splitting bit, so readers
        // spin until the volatile index routes the moved keys (this
        // closes the lost-key window between Algorithm 3's lines 15/16).
        F::route_split(&self.index, &sep, leaf_ref(right_off));
        self.splits.fetch_add(1, Ordering::Relaxed);
        self.heat.splits.record(leaf.off(), 1);
        self.pool.events().record(EventKind::Split, leaf.off(), right_off);
        leaf.unset_split_bump();
    }

    /// Dense rewrite of a private or split-frozen leaf: records at entries
    /// `0..n` under `(low, high]` and their fingerprints. Returns the
    /// slot-line image (the identity array) for the caller to install.
    fn rewrite<F: LeafFormat>(
        &self,
        leaf: Leaf<'_>,
        pairs: &[(F::Owned, Value)],
        low: &F::Owned,
        high: &F::Fence,
    ) -> SlotBuf {
        F::write_pairs(leaf, pairs, low, high);
        self.set_fps::<F>(leaf, pairs);
        SlotBuf::identity(pairs.len())
    }

    /// Fingerprints for pairs stored densely at entries `0..n`.
    fn set_fps<F: LeafFormat>(&self, leaf: Leaf<'_>, pairs: &[(F::Owned, Value)]) {
        for (i, (k, _)) in pairs.iter().enumerate() {
            self.fps.set(leaf.off(), i, F::fp(k.borrow()));
        }
    }

    /// Installs a rewritten image in both slot lines in one transaction.
    fn install_slots(&self, leaf: Leaf<'_>, img: &SlotBuf) {
        htm::atomic(self.index.htm(), |txn| {
            leaf.write_slot_in(txn, WhichSlot::Persistent, img)?;
            leaf.write_slot_in(txn, WhichSlot::Transient, img)
        });
    }

    // ---------------------------------------------------------------- read

    /// `htmLeafSnapshot`: one `htm::snapshot` of the slot line,
    /// with the sequential-mode fast path (see `update_pslot` for the
    /// rationale).
    fn snapshot_slot(&self, leaf: Leaf<'_>, kind: WhichSlot) -> SlotBuf {
        if self.cfg.seq_traversal {
            leaf.read_slot_seq(kind)
        } else {
            // Reads aborting against a locked/contended leaf are the
            // paper's headline pathology: attribute them like writes.
            let sm = obs::section_mark();
            let slot = SlotBuf::from_words(htm::snapshot(self.index.htm(), leaf.slot_words(kind)));
            let d = sm.since();
            if d.aborts + d.fallbacks > 0 {
                self.heat.conflicts.record(leaf.off(), d.aborts + d.fallbacks);
            }
            slot
        }
    }

    /// Algorithm 4 over any leaf format.
    fn find_impl<F: LeafFormat>(&self, key: &F::Key) -> Option<Value> {
        loop {
            let leaf = self.descend::<F>(key);
            // Overlap the slot-array and fingerprint-stripe misses with the
            // header load that `stable_version` is about to issue.
            F::prefetch(leaf, 0);
            self.fps.prefetch_stripe(leaf.off());
            // Algorithm 4: stable version before, snapshot, validate after.
            let v1 = leaf.stable_version(self.reader_waits_lock());
            if F::above(key, &F::high_fence(leaf)) {
                self.note_retry();
                continue; // stale route (split won the race); re-traverse
            }
            // htmLeafSnapshot: only the slot line is read transactionally;
            // the search stays outside the HTM section to keep the read set
            // (and abort probability) small (§5.2.2). The search is a DRAM
            // fingerprint probe that touches at most a handful of keys;
            // validity of whatever it reads is established by the version
            // re-check below.
            let slot = self.snapshot_slot(leaf, self.read_slot_kind());
            let result = self
                .fps
                .probe::<F>(leaf, &slot, key, &self.leaf_head_ties)
                .map(|pos| F::read_value(leaf, slot.entry(pos)));
            if leaf.stable_version(self.reader_waits_lock()) != v1 {
                self.note_retry();
                continue;
            }
            return result;
        }
    }

    /// Range scan over any leaf format: up to `n` pairs from `start` on.
    fn scan_impl<F: LeafFormat>(&self, start: F::Owned, n: usize, out: &mut Vec<(F::Owned, Value)>) -> usize {
        out.clear();
        if n == 0 {
            return 0;
        }
        let mut cursor = start;
        'traverse: loop {
            let mut leaf_off = F::descend(&self.index, cursor.borrow(), self.cfg.seq_traversal);
            loop {
                let leaf = self.leaf(leaf_off);
                let v1 = leaf.stable_version(self.reader_waits_lock());
                let fence = F::high_fence(leaf);
                if F::above(cursor.borrow(), &fence) {
                    self.note_retry();
                    continue 'traverse;
                }
                let next = leaf.next();
                let slot = self.snapshot_slot(leaf, self.read_slot_kind());
                // The leaf's pairs are appended straight into `out` and
                // cut back to `mark` if the version re-check fails, so a
                // scan through a reused `out` never allocates.
                let mark = out.len();
                let from = match F::search(leaf, &slot, cursor.borrow(), &self.leaf_head_ties) {
                    Ok(p) | Err(p) => p,
                };
                let to = slot.len().min(from + (n - mark));
                for pos in from..to {
                    let e = slot.entry(pos);
                    out.push((F::read_key(leaf, e), F::read_value(leaf, e)));
                }
                if leaf.stable_version(self.reader_waits_lock()) != v1 {
                    self.note_retry();
                    out.truncate(mark);
                    continue 'traverse;
                }
                if out.len() == n || next == 0 {
                    return out.len();
                }
                // Resume past this leaf's inclusive upper bound.
                let Some(succ) = F::successor(&fence) else {
                    return out.len();
                };
                cursor = succ;
                leaf_off = next;
            }
        }
    }

    // ---------------------------------------------------------------- remove

    fn remove_impl<F: LeafFormat>(&self, key: &F::Key) -> Result<(), OpError> {
        loop {
            let leaf = self.descend::<F>(key);
            // Overlap the slot-array and fingerprint-stripe misses with the
            // lock RMW on the (also likely cold) header line.
            F::prefetch(leaf, 0);
            self.fps.prefetch_stripe(leaf.off());
            leaf.lock();
            if F::above(key, &F::high_fence(leaf)) {
                leaf.unlock(false);
                self.note_retry();
                continue;
            }
            // Remove only edits the slot array (§5.2.3): one persistent
            // instruction.
            let decision = self.update_pslot(leaf, |slot| {
                match self.fps.probe::<F>(leaf, slot, key, &self.leaf_head_ties) {
                    None => Decision::Missing,
                    Some(pos) => {
                        slot.remove_at(pos);
                        Decision::Applied(*slot)
                    }
                }
            });
            let Decision::Applied(slot) = decision else {
                leaf.unlock(false);
                return Err(OpError::NotFound);
            };
            leaf.persist_pslot();
            self.publish(leaf, &slot);
            leaf.unlock(!self.cfg.dual_slot);
            return Ok(());
        }
    }

    // ---------------------------------------------------------------- batch

    /// Bulk-loads `pairs` into an **empty** tree, building full leaves
    /// directly instead of replaying per-key inserts (DESIGN.md §5d).
    ///
    /// The input need not be sorted or unique: it is sorted here (stably)
    /// and deduplicated with the *last* occurrence of a key winning —
    /// upsert semantics, matching what replaying the pairs through
    /// `upsert` would produce.
    ///
    /// Persistence cost is 2 persistent instructions per **leaf** — one
    /// coalesced [`nvm::PmemPool::persist_many`] over the header line and
    /// the written records, then the slot-array line, in the same
    /// record-before-slot publication order as the per-op path — plus a
    /// constant 3 for the undo journal, instead of 2 per *key*.
    ///
    /// Crash safety: the pre-image of the (empty) head leaf is undo-logged
    /// before anything is rewritten, and leaves are built right-to-left so
    /// every persisted `next` pointer targets an already-durable sibling.
    /// A crash anywhere mid-load therefore recovers to the empty tree (the
    /// journal rollback cuts the chain at the head, and the allocator
    /// rebuild reclaims the unreachable part-built leaves): the load is
    /// all-or-nothing.
    ///
    /// # Errors
    /// [`OpError::PoolExhausted`] if the pool cannot hold the leaves; the
    /// tree is unchanged in that case.
    ///
    /// # Panics
    /// Panics if the tree is not empty. Quiescent phases only (warm-up,
    /// initial fill): the caller must guarantee no concurrent operations.
    pub fn load_sorted(&self, pairs: &[(Key, Value)]) -> Result<(), OpError> {
        if self.cfg.varlen_leaves {
            let kp: Vec<(KeyBuf, Value)> = pairs.iter().map(|&(k, v)| (U64Key::encode(k), v)).collect();
            return self.bulk_load::<VarFormat>(&kp);
        }
        self.bulk_load::<U64Format>(pairs)
    }

    fn bulk_load<F: LeafFormat>(&self, pairs: &[(F::Owned, Value)]) -> Result<(), OpError> {
        let head = self.leaf(self.leftmost);
        assert!(
            head.read_slot_seq(WhichSlot::Persistent).is_empty() && head.next() == 0,
            "load_sorted requires an empty tree"
        );
        if pairs.is_empty() {
            return Ok(());
        }
        let mut sorted: Vec<(F::Owned, Value)> = pairs.to_vec();
        sorted.sort_by_key(|p| p.0); // stable: equal keys keep input order
        sorted.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 = later.1; // last occurrence wins (upsert)
                true
            } else {
                false
            }
        });
        let mut chunks: Vec<&[(F::Owned, Value)]> = Vec::new();
        let mut rest = &sorted[..];
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(F::chunk_len(rest));
            chunks.push(chunk);
            rest = tail;
        }
        let mut blocks: Vec<u64> = Vec::with_capacity(chunks.len());
        blocks.push(self.leftmost);
        for _ in 1..chunks.len() {
            match self.alloc.alloc() {
                Some(b) => blocks.push(b),
                None => {
                    for &b in &blocks[1..] {
                        self.alloc.free(b);
                    }
                    self.pool_exhausted.store(true, Ordering::Relaxed);
                    self.pool.events().record(EventKind::PoolExhausted, self.leftmost, self.pool.len());
                    return Err(OpError::PoolExhausted);
                }
            }
        }
        // Undo-log the head before touching anything: the rollback image is
        // the empty leaf, so replaying the journal after a mid-load crash
        // restores an empty (chain-cut) tree.
        let jslot = self.journal.acquire(&self.pool);
        self.journal.log(&self.pool, jslot, self.leftmost);
        let max_of = |c: &[(F::Owned, Value)]| c.last().expect("chunks are non-empty").0;
        for i in (0..chunks.len()).rev() {
            // Chunk boundaries double as fences: chunk `i`'s low fence is
            // chunk `i-1`'s maximum key.
            let last = i == chunks.len() - 1;
            let low = if i == 0 { F::MIN } else { max_of(chunks[i - 1]) };
            let high = if last { F::TOP } else { F::fence_at(max_of(chunks[i])) };
            let next = if last { 0 } else { blocks[i + 1] };
            self.init_leaf_batched::<F>(self.leaf(blocks[i]), chunks[i], &low, &high, next);
        }
        self.journal.clear(&self.pool, jslot);
        let routes: Vec<(F::Owned, u64)> =
            chunks.iter().zip(&blocks).map(|(c, &b)| (max_of(c), leaf_ref(b))).collect();
        F::bulk_build(&self.index, &routes);
        Ok(())
    }

    /// Formats `leaf` with `pairs` stored densely in key order using
    /// exactly two persistent instructions: one coalesced flush of the
    /// header line + written records, then the slot-array line. The leaf
    /// must be private to the caller (bulk load under the quiescence
    /// contract).
    fn init_leaf_batched<F: LeafFormat>(
        &self,
        leaf: Leaf<'_>,
        pairs: &[(F::Owned, Value)],
        low: &F::Owned,
        high: &F::Fence,
        next: u64,
    ) {
        debug_assert!(!pairs.is_empty() && pairs.len() <= MAX_LIVE);
        leaf.reset_lockver();
        let slot = self.rewrite::<F>(leaf, pairs, low, high);
        leaf.set_nlogs(pairs.len() as u64);
        leaf.set_plogs(pairs.len() as u64);
        leaf.set_next(next);
        // Persistent instruction #1: one CLWB batch + one fence covering
        // the header line and every written record.
        F::persist_image(leaf, pairs.len());
        leaf.write_slot_seq(WhichSlot::Persistent, &slot);
        leaf.write_slot_seq(WhichSlot::Transient, &slot);
        // Persistent instruction #2: the slot line, published only after
        // the records it references are durable.
        leaf.persist_pslot();
    }

    /// Batched mixed-class write ([`PersistentIndex::write_batch`]
    /// semantics), amortising traversal, locking, and persists across
    /// *runs* of keys that land in the same leaf (DESIGN.md §5d). The
    /// batch is sorted stably in place and walked in same-leaf runs: one
    /// leaf lock, one coalesced record persist (when any op wrote a
    /// record), one slot-line persist per touched leaf, whatever mix of
    /// inserts, updates, upserts and removes the run carries. So a run of
    /// `r` fresh inserts costs 2 persistent instructions instead of `2r`
    /// ([`PersistentIndex::insert_batch`] is this method with every
    /// element an insert). Elements sharing a key compose in submission
    /// order against the in-register slot image, so an insert+remove pair
    /// in one batch leaves the key absent and both report `Ok`, and of two
    /// strict inserts the first wins.
    ///
    /// A run containing **only** removes writes no records and commits
    /// with a *single* persistent instruction (the slot-line persist):
    /// `r` coalesced removes on one leaf cost 1 persist where the per-op
    /// path costs `r`. When a run overflows its leaf, the applied prefix
    /// commits, the leaf splits through the normal journal-protected path,
    /// and the remainder re-traverses.
    ///
    /// Durability contract (DESIGN.md §5d): each run commits atomically at
    /// its slot-line persist, runs commit in sorted-key order, and every
    /// reported key is durable when the call returns. A crash mid-batch
    /// recovers to a run-granular prefix of the sorted batch.
    pub fn write_batch(&self, batch: &mut [(Key, Value, WriteOp)]) -> Vec<Result<(), OpError>> {
        if self.cfg.varlen_leaves {
            // Sort the caller's slice as the contract promises; the
            // encoding preserves order, so results align index-for-index.
            batch.sort_by_key(|p| p.0);
            let mut kb: Vec<(KeyBuf, Value, WriteOp)> =
                batch.iter().map(|&(k, v, op)| (U64Key::encode(k), v, op)).collect();
            return self.run_batch::<VarFormat>(&mut kb);
        }
        self.run_batch::<U64Format>(batch)
    }

    fn run_batch<F: LeafFormat>(&self, batch: &mut [(F::Owned, Value, WriteOp)]) -> Vec<Result<(), OpError>> {
        batch.sort_by_key(|p| p.0);
        let mut results: Vec<Result<(), OpError>> = vec![Ok(()); batch.len()];
        let mut i = 0usize;
        let mut starved = 0u32;
        while i < batch.len() {
            let key = batch[i].0;
            let leaf = self.descend::<F>(key.borrow());
            F::prefetch(leaf, 0);
            self.fps.prefetch_stripe(leaf.off());
            leaf.lock();
            let fence = F::high_fence(leaf);
            if F::above(key.borrow(), &fence) {
                leaf.unlock(false);
                self.note_retry();
                continue; // stale route (split won the race); re-traverse
            }
            // Run formation: the maximal prefix of remaining keys covered
            // by this leaf's range. The traversal put `key` here, so every
            // following key up to the fence belongs here too.
            let run_len = batch[i..].partition_point(|p| !F::above(p.0.borrow(), &fence));
            let consumed = self.apply_run::<F>(leaf, &batch[i..i + run_len], &mut results[i..i + run_len]);
            if consumed > 0 {
                starved = 0;
                i += consumed;
                continue;
            }
            // No progress: the leaf is full. Help the (possibly deferred or
            // allocation-starved) split along, and fail the key instead of
            // spinning forever when the pool is exhausted — exactly the
            // per-op `modify` policy.
            self.help_split::<F>(leaf);
            if self.starved(&mut starved) {
                results[i] = Err(OpError::PoolExhausted);
                i += 1;
                starved = 0;
            }
            self.note_retry();
        }
        results
    }

    /// Applies one run of sorted mixed-class ops to `leaf` under its
    /// (already held) lock; unlocks before returning. Returns the number
    /// of elements consumed (applied or rejected by their conditional);
    /// on overflow the remainder is left for the caller to retry after
    /// the split this run triggers.
    fn apply_run<F: LeafFormat>(
        &self,
        leaf: Leaf<'_>,
        run: &[(F::Owned, Value, WriteOp)],
        results: &mut [Result<(), OpError>],
    ) -> usize {
        // Whatever fence metadata record writes read is stable under the
        // lock.
        let mut slot = leaf.read_slot_seq(WhichSlot::Persistent);
        let mut dirty: Vec<(u64, u64)> = Vec::with_capacity(run.len());
        let mut decided = 0u64;
        let mut consumed = 0usize;
        let mut changed = false;
        for (ri, &(k, v, op)) in run.iter().enumerate() {
            let key: &F::Key = k.borrow();
            // Locate `k` in the in-register image. Edits land in that image
            // before the next element is examined, so elements sharing a
            // key compose in submission (stable-sort) order.
            let spot = self.locate::<F>(leaf, &slot, key, false);
            match (op, spot) {
                (WriteOp::Remove, Ok(pos)) => {
                    // Slot-image-only edit: no log entry, no record. A run
                    // of removes shares the single slot-line persist below.
                    slot.remove_at(pos);
                    changed = true;
                }
                (WriteOp::Remove | WriteOp::Update, Err(_)) => results[ri] = Err(OpError::NotFound),
                // Present in the leaf (or earlier in this run): strict
                // insert rejects without consuming a log entry.
                (WriteOp::Insert, Ok(_)) => results[ri] = Err(OpError::AlreadyExists),
                (WriteOp::Insert | WriteOp::Upsert, Err(_)) if slot.len() == MAX_LIVE => {
                    // Slot array full. Deliberately waste one log entry:
                    // `plogs` counts decisions and decisions drive the
                    // split trigger, exactly like the per-op Overfull path
                    // — without this a full leaf whose log area still has
                    // room would never split.
                    if leaf.alloc_entry().is_some() {
                        decided += 1;
                        self.wasted.fetch_add(1, Ordering::Relaxed);
                    }
                    break;
                }
                (_, spot) => {
                    // A fresh log entry: an overwrite of a present key (the
                    // per-op `modify` shape; the old entry becomes garbage)
                    // or a fresh insert.
                    let Some(entry) = leaf.alloc_entry() else {
                        break; // log area exhausted; split, then retry
                    };
                    decided += 1;
                    let Some(extent) = F::write_record(leaf, entry, key, v) else {
                        // No room for the record: the entry is decided
                        // wasted, and the heap-pressure trigger below runs
                        // the split.
                        self.wasted.fetch_add(1, Ordering::Relaxed);
                        break;
                    };
                    self.fps.set(leaf.off(), entry, F::fp(key));
                    dirty.extend_from_slice(extent.as_ref());
                    match spot {
                        Ok(pos) => slot.set_entry(pos, entry),
                        Err(pos) => self.insert_at::<F>(leaf, &mut slot, key, pos, entry),
                    }
                    changed = true;
                }
            }
            consumed += 1;
        }
        if changed {
            // Persistent instruction #1 for the whole run: the written
            // records, coalesced (records sharing a line flush once),
            // durable strictly before the slot line below (publication
            // order). A pure-remove run writes no records and skips
            // straight to the slot persist — one persistent instruction.
            if !dirty.is_empty() {
                self.pool.persist_many(&dirty);
            }
            // One slot-array edit for the whole run.
            self.write_slot(leaf, WhichSlot::Persistent, &slot);
            // Persistent instruction #2: the run commits here, atomically.
            leaf.persist_pslot();
            self.publish(leaf, &slot);
        }
        // Count the run's decisions in one step and run the (possibly
        // deferred) split — the same trigger and quiescence check as the
        // per-op path.
        let did_split = decided > 0 && self.decide::<F>(leaf, decided);
        leaf.unlock(!self.cfg.dual_slot && changed && !did_split);
        consumed
    }

    // ---------------------------------------------------------------- checks

    /// Walks the whole tree and checks every structural invariant; returns
    /// a description of the first violation. Quiescent phases only.
    pub fn verify_invariants(&self) -> Result<(), String> {
        if self.cfg.varlen_leaves {
            self.verify::<VarFormat>()
        } else {
            self.verify::<U64Format>()
        }
    }

    fn verify<F: LeafFormat>(&self) -> Result<(), String> {
        let mut off = self.leftmost;
        let mut last_key: Option<F::Owned> = None;
        let mut prev_fence: Option<F::Fence> = None;
        while off != 0 {
            let leaf = self.leaf(off);
            let slot = leaf.read_slot_seq(WhichSlot::Persistent);
            if slot.len() > MAX_LIVE {
                return Err(format!("leaf {off}: slot count {} > {MAX_LIVE}", slot.len()));
            }
            F::check_leaf(leaf, &mut prev_fence, !slot.is_empty())?;
            let high = F::high_fence(leaf);
            let mut seen = [false; LEAF_CAPACITY];
            for pos in 0..slot.len() {
                let e = slot.entry(pos);
                if e >= LEAF_CAPACITY {
                    return Err(format!("leaf {off}: slot entry {e} out of range"));
                }
                if seen[e] {
                    return Err(format!("leaf {off}: duplicate slot entry {e}"));
                }
                seen[e] = true;
                if e as u64 >= leaf.nlogs() {
                    return Err(format!(
                        "leaf {off}: slot references unallocated entry {e} (nlogs={})",
                        leaf.nlogs()
                    ));
                }
                let k = F::read_key(leaf, e);
                if let Some(prev) = last_key {
                    if k <= prev {
                        return Err(format!("leaf {off}: key {k:?} not > previous {prev:?}"));
                    }
                }
                F::check_key(leaf, &k, &high)?;
                last_key = Some(k);
                // A probe may never produce a false negative for a live key
                // (fingerprint collisions only cost extra compares).
                if self.fps.probe::<F>(leaf, &slot, k.borrow(), &self.leaf_head_ties) != Some(pos) {
                    return Err(format!("leaf {off}: probe misses live key {k:?}"));
                }
                // The volatile index must route this key here.
                let routed = F::descend(&self.index, k.borrow(), true);
                if routed != off {
                    return Err(format!("index routes key {k:?} to {routed}, expected {off}"));
                }
            }
            if self.cfg.dual_slot && leaf.read_slot_seq(WhichSlot::Transient) != slot {
                return Err(format!("leaf {off}: transient slot diverges from persistent"));
            }
            off = leaf.next();
        }
        Ok(())
    }

    /// One point write on a resolved leaf format.
    fn write_op<F: LeafFormat>(&self, key: &F::Key, value: Value, op: WriteOp) -> Result<(), OpError> {
        match op {
            WriteOp::Insert => self.modify::<F>(key, value, WriteMode::InsertStrict),
            WriteOp::Update => self.modify::<F>(key, value, WriteMode::UpdateStrict),
            WriteOp::Upsert => self.modify::<F>(key, value, WriteMode::Upsert),
            WriteOp::Remove => self.remove_impl::<F>(key),
        }
    }

    /// Byte-key batched strict insert ([`PersistentIndex::insert_batch`]
    /// semantics: sorted in place, per-key outcomes, first duplicate
    /// wins). On a var-leaf tree it runs the batched run executor; a u64
    /// tree applies the keys one by one.
    pub fn insert_batch_k(&self, batch: &mut [(KeyBuf, Value)]) -> Vec<Result<(), OpError>> {
        batch.sort_by_key(|p| p.0);
        if !self.cfg.varlen_leaves {
            return batch.iter().map(|(k, v)| self.insert_k(k.as_slice(), *v)).collect();
        }
        // The sort above is stable and so is `run_batch`'s, so the
        // results align with `batch` index-for-index.
        let mut ops: Vec<(KeyBuf, Value, WriteOp)> = batch.iter().map(|&(k, v)| (k, v, WriteOp::Insert)).collect();
        self.run_batch::<VarFormat>(&mut ops)
    }
}

impl PersistentIndex for RnTree {
    /// Resolves the key kind against the leaf layout once. A var tree
    /// serves a u64 key through its order-preserving 8-byte encoding
    /// ([`U64Key`]), so u64 order and byte order agree and scans return
    /// the same sequences; a u64 tree serves only 8-byte byte keys.
    fn apply(&self, key: AnyKey<'_>, value: Value, op: WriteOp) -> Result<(), OpError> {
        match (key, self.cfg.varlen_leaves) {
            (AnyKey::U64(k), false) => self.write_op::<U64Format>(&k, value, op),
            (AnyKey::U64(k), true) => self.write_op::<VarFormat>(U64Key::encode(k).as_slice(), value, op),
            (AnyKey::Bytes(b), false) => {
                self.write_op::<U64Format>(&U64Key::decode(b).ok_or(OpError::UnsupportedKey)?, value, op)
            }
            (AnyKey::Bytes(b), true) if b.len() <= MAX_KEY_LEN => self.write_op::<VarFormat>(b, value, op),
            (AnyKey::Bytes(_), true) => Err(OpError::UnsupportedKey),
        }
    }

    fn get(&self, key: AnyKey<'_>) -> Option<Value> {
        match (key, self.cfg.varlen_leaves) {
            (AnyKey::U64(k), false) => self.find_impl::<U64Format>(&k),
            (AnyKey::U64(k), true) => self.find_impl::<VarFormat>(U64Key::encode(k).as_slice()),
            (AnyKey::Bytes(b), false) => self.find_impl::<U64Format>(&U64Key::decode(b)?),
            (AnyKey::Bytes(b), true) if b.len() <= MAX_KEY_LEN => self.find_impl::<VarFormat>(b),
            (AnyKey::Bytes(_), true) => None,
        }
    }

    fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        if self.cfg.varlen_leaves {
            // Non-8-byte keys (possible in a mixed tree) are skipped: they
            // have no u64 spelling. A u64 workload never stores any.
            out.clear();
            let mut tmp: Vec<(KeyBuf, Value)> = Vec::new();
            self.scan_impl::<VarFormat>(U64Key::encode(start), n, &mut tmp);
            out.extend(tmp.iter().filter_map(|(k, v)| Some((U64Key::decode(k.as_slice())?, *v))));
            return out.len();
        }
        self.scan_impl::<U64Format>(start, n, out)
    }

    fn load_sorted(&self, pairs: &[(Key, Value)]) -> Result<(), OpError> {
        RnTree::load_sorted(self, pairs)
    }

    fn write_batch(&self, batch: &mut [(Key, Value, WriteOp)]) -> Vec<Result<(), OpError>> {
        RnTree::write_batch(self, batch)
    }

    fn scan_k(&self, start: KeyRef<'_>, n: usize, out: &mut Vec<(KeyBuf, Value)>) -> usize {
        if self.cfg.varlen_leaves {
            // Clamp over-long start keys: for any storable key `k` (≤ 64 B),
            // `k ≥ start ⟺ k ≥ successor(start[..64])` — `start` is longer
            // than its own 64-byte prefix, so nothing storable sits between.
            let cursor = if start.len() > MAX_KEY_LEN {
                match KeyBuf::from_slice(&start[..MAX_KEY_LEN]).successor() {
                    Some(s) => s,
                    None => {
                        out.clear();
                        return 0;
                    }
                }
            } else {
                KeyBuf::from_slice(start)
            };
            return self.scan_impl::<VarFormat>(cursor, n, out);
        }
        out.clear();
        // The u64-backed round-up of the trait default.
        let Some(from) = U64Key::ceil(start) else { return 0 };
        let mut tmp = Vec::new();
        self.scan_impl::<U64Format>(from, n, &mut tmp);
        out.extend(tmp.into_iter().map(|(k, v)| (U64Key::encode(k), v)));
        out.len()
    }

    fn load_sorted_k(&self, pairs: &[(KeyBuf, Value)]) -> Result<(), OpError> {
        if self.cfg.varlen_leaves {
            return self.bulk_load::<VarFormat>(pairs);
        }
        // 8-byte-only index: decode the whole batch up front (failing
        // cleanly on an unrepresentable key) and take the bulk-load path
        // instead of the trait default's per-key upserts.
        let mut kp: Vec<(Key, Value)> = Vec::with_capacity(pairs.len());
        for (k, v) in pairs {
            kp.push((U64Key::decode(k.as_slice()).ok_or(OpError::UnsupportedKey)?, *v));
        }
        self.bulk_load::<U64Format>(&kp)
    }

    fn name(&self) -> &'static str {
        if self.cfg.varlen_leaves {
            "RNTree+VK"
        } else if self.cfg.dual_slot {
            "RNTree+DS"
        } else {
            "RNTree"
        }
    }

    fn supports_concurrency(&self) -> bool {
        true
    }

    fn htm_abort_ratio(&self) -> Option<f64> {
        Some(self.htm_stats().abort_ratio())
    }

    fn stats(&self) -> TreeStats {
        let mut leaves = 0u64;
        let mut entries = 0u64;
        let mut off = self.leftmost;
        while off != 0 {
            let leaf = self.leaf(off);
            leaves += 1;
            entries += leaf.read_slot_seq(WhichSlot::Persistent).len() as u64;
            off = leaf.next();
        }
        TreeStats {
            leaves,
            entries,
            splits: self.splits.load(Ordering::Relaxed),
            pool_exhausted: self.saw_pool_exhaustion(),
        }
    }
}

impl std::fmt::Debug for RnTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RnTree")
            .field("variant", &self.name())
            .field("stats", &self.rn_stats())
            .finish()
    }
}

impl ObsSource for RnTree {
    /// Sections: `tree` (structure + op counters), `pmem`
    /// (persistence-instruction counters), `htm` (abort taxonomy and
    /// fallback count), `htm_retries` (the retries-to-commit distribution plus
    /// the adaptive policy's effective-retry-budget distribution),
    /// `phases` (the modify-path breakdown, present only while the timers
    /// are enabled), `cache` (page-cache hit/miss/fill/invalidation counters plus
    /// the optimistic-descent restart taxonomy, present only with a cache
    /// attached), `keys` (head-tie fallback counters, present only in
    /// byte-keyed mode), and `events` (the pool's crash-forensics ring)
    /// with `events_meta` (recorded/dropped totals — a non-zero
    /// `events_dropped` means the dump is a suffix of the timeline).
    ///
    /// Heat attribution adds `heat.leaf_conflicts` (HTM aborts +
    /// fallbacks per leaf), `heat.leaf_splits`, `heat.cache_sets`
    /// (failed frame validations per cache set, with a cache
    /// attached), and `heat_meta` (each sketch's decayed error budget —
    /// how much count mass fell off the top-K tables).
    fn obs_sections(&self) -> Vec<(String, Section)> {
        let mut tree = self.stats().counters();
        let rn = self.rn_stats();
        tree.push(("compactions".into(), rn.compactions));
        tree.push(("retries".into(), rn.retries));
        tree.push(("wasted_entries".into(), rn.wasted_entries));

        let htm = self.htm_stats();
        let mut out = vec![
            ("tree".to_string(), Section::Counters(tree)),
            ("pmem".to_string(), Section::Counters(self.pool.stats().snapshot().counters())),
            ("htm".to_string(), Section::Counters(htm.counters())),
            (
                "htm_retries".to_string(),
                Section::Latencies(vec![(
                    "retries_to_commit".to_string(),
                    self.index.htm().retries_to_commit(),
                )]),
            ),
        ];
        if self.timers.is_enabled() {
            let phases = Phase::ALL
                .iter()
                .map(|&p| (p.name().to_string(), self.timers.snapshot(p)))
                .collect();
            out.push(("phases".to_string(), Section::Latencies(phases)));
        }
        if let Some(cs) = self.cache_stats() {
            let ds = self.descent_stats();
            out.push((
                "cache".to_string(),
                Section::Counters(vec![
                    ("hits".into(), cs.hits),
                    ("misses".into(), cs.misses),
                    ("fills".into(), cs.fills),
                    ("invalidations".into(), cs.invalidations),
                    ("read_restarts".into(), cs.read_restarts),
                    ("descent_restarts".into(), ds.restarts),
                    ("descent_tm_fallbacks".into(), ds.tm_fallbacks),
                ]),
            ));
        }
        if self.index.is_byte_keyed() {
            // How often the 4-byte key heads failed to decide a compare and
            // the search fell back to full key bytes — the cost model of
            // the head optimisation (DESIGN.md §5h).
            out.push((
                "keys".to_string(),
                Section::Counters(vec![
                    ("head_tie_fallbacks_inner".into(), self.index.head_tie_fallbacks()),
                    (
                        "head_tie_fallbacks_leaf".into(),
                        self.leaf_head_ties.get(),
                    ),
                ]),
            ));
        }
        let ring = self.pool.events();
        out.push(("events".to_string(), Section::Events(ring.dump())));
        out.push((
            "events_meta".to_string(),
            Section::Counters(vec![
                ("events_recorded".into(), ring.recorded()),
                ("events_dropped".into(), ring.dropped()),
            ]),
        ));

        // Structural heat: top-K tables, hottest first.
        const HEAT_TOP_K: usize = 16;
        out.push((
            "heat.leaf_conflicts".to_string(),
            Section::Heat(self.heat.conflicts.top_k(HEAT_TOP_K)),
        ));
        out.push((
            "heat.leaf_splits".to_string(),
            Section::Heat(self.heat.splits.top_k(HEAT_TOP_K)),
        ));
        let mut heat_meta = vec![
            ("leaf_conflicts_decayed".into(), self.heat.conflicts.decayed()),
            ("leaf_splits_decayed".into(), self.heat.splits.decayed()),
        ];
        if let Some(cache) = self.index.page_cache() {
            out.push((
                "heat.cache_sets".to_string(),
                Section::Heat(cache.set_heat().top_k(HEAT_TOP_K)),
            ));
            heat_meta.push(("cache_sets_decayed".into(), cache.set_heat().decayed()));
        }
        out.push(("heat_meta".to_string(), Section::Counters(heat_meta)));
        out
    }
}

// Construction / recovery live in recovery.rs; shared helpers are here so
// both files stay readable.
impl RnTree {
    /// The leaf block size this config's layout uses.
    pub(crate) fn leaf_block(cfg: &RnConfig) -> u64 {
        if cfg.varlen_leaves {
            VarFormat::BLOCK
        } else {
            U64Format::BLOCK
        }
    }

    /// Layout bookkeeping shared by create/recover paths. The journal
    /// images and the leaf region are both sized by the config's leaf
    /// block, so the two layouts never mix on one pool.
    pub(crate) fn leaf_region_start(cfg: &RnConfig) -> u64 {
        RootTable::END + UndoJournal::region_bytes(cfg.journal_slots, Self::leaf_block(cfg))
    }

    pub(crate) fn make_parts(pool: &Arc<PmemPool>, cfg: &RnConfig) -> (BlockAllocator, UndoJournal) {
        let block = Self::leaf_block(cfg);
        let leaf_region = Self::leaf_region_start(cfg);
        assert!(
            leaf_region + block <= pool.len(),
            "pool too small for journal + one leaf"
        );
        let alloc = BlockAllocator::new(leaf_region, pool.len(), block);
        let journal = UndoJournal::new(RootTable::END, cfg.journal_slots, block);
        (alloc, journal)
    }
}

#[cfg(test)]
mod tests {
    //! Crash liveness: a persist trap kills one thread wherever it stood,
    //! and whatever pool state it held stays held. A thread already
    //! waiting on that state must die with the pool instead of spinning
    //! forever (`PmemPool::check_alive`).

    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    use index_common::PersistentIndex;
    use nvm::PmemConfig;

    use super::*;

    fn tree(journal_slots: usize) -> RnTree {
        let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 22)));
        RnTree::create(pool, RnConfig { journal_slots, ..RnConfig::default() })
    }

    /// Runs writer B, waits until `b_blocked` says B reached the wait on
    /// what writer A (this thread) holds, then traps A at its next
    /// persist. B must panic with the pool-crashed message.
    fn b_dies_with_the_pool<R: Send>(tree: &RnTree, b: impl FnOnce() -> R + Send, b_blocked: impl Fn() -> bool) {
        std::thread::scope(|s| {
            let b = s.spawn(b);
            while !b_blocked() {
                std::thread::yield_now();
            }
            // Let B settle into its spin (it dies either way: a wait
            // entered after the trap sees the mark on its first miss).
            std::thread::sleep(Duration::from_millis(20));
            tree.pool.arm_persist_trap(1);
            let a = catch_unwind(AssertUnwindSafe(|| tree.pool.persist(tree.leftmost, 64)));
            assert!(a.is_err(), "writer A must be trapped");
            let err = b.join().err().expect("writer B must die with the pool");
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("pmem pool crashed"), "writer B panicked with {msg:?}");
        });
    }

    #[test]
    fn writer_spinning_on_a_stranded_leaf_lock_dies_with_the_pool() {
        let t = tree(4);
        let leaf = t.leaf(t.leftmost);
        leaf.lock();
        // B allocates its log entry before it reaches the lock.
        b_dies_with_the_pool(&t, || t.insert(5, 50), || leaf.nlogs() > 0);
    }

    #[test]
    fn reader_spinning_on_a_stranded_split_bit_dies_with_the_pool() {
        let t = tree(4);
        t.insert(5, 50).unwrap();
        let leaf = t.leaf(t.leftmost);
        leaf.lock();
        leaf.set_split();
        b_dies_with_the_pool(&t, || t.find(5), || true);
    }

    #[test]
    fn splitter_waiting_for_a_stranded_journal_slot_dies_with_the_pool() {
        let t = tree(1);
        let _held = t.journal.acquire(&t.pool);
        let leaf = t.leaf(t.leftmost);
        // B fills the leftmost leaf; its split then waits for the only
        // journal slot. Deciding the entry that fills the leaf is what
        // triggers that split.
        let fill = || {
            for k in 1..=LEAF_CAPACITY as u64 {
                t.insert(k, k).unwrap();
            }
        };
        b_dies_with_the_pool(&t, fill, || leaf.plogs() >= (LEAF_CAPACITY - 1) as u64);
    }

    #[test]
    fn writer_waiting_on_a_stranded_log_entry_dies_with_the_pool() {
        // A var-leaf writer persists its record before it takes the leaf
        // lock, so a trap there strands an allocated entry that is never
        // decided. Writer A's entry is that one: once B fills the leaf, the
        // leaf can never split and B's insert retries until the pool dies.
        let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 22)));
        let t = RnTree::create(pool, RnConfig { varlen_leaves: true, ..RnConfig::default() });
        let leaf = t.leaf(t.leftmost);
        leaf.alloc_entry().expect("a fresh leaf has free entries");
        let fill = || {
            for k in 1..=LEAF_CAPACITY as u64 {
                t.insert_k(&k.to_be_bytes(), k).unwrap();
            }
        };
        b_dies_with_the_pool(&t, fill, || leaf.nlogs() >= LEAF_CAPACITY as u64);
    }
}
