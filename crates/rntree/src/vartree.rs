//! Variable-length-key operation paths (`RnConfig::varlen_leaves`).
//!
//! Every function here mirrors its u64 counterpart in `tree.rs` — same
//! protocol, same persist schedule, same split/quiescence discipline —
//! over the [`crate::varleaf::VarLeaf`] layout:
//!
//! * Persistent instruction #1 of a modify is **one coalesced
//!   [`nvm::PmemPool::persist_many`]** covering the freshly written heap
//!   record and its directory word (one fence, lines deduplicated), where
//!   the u64 path flushes its 16-byte KV entry. Persistent instruction #2
//!   is the slot-array line, unchanged. The Table 1 persist counts per
//!   operation are identical to the u64 layout.
//! * The var path always uses the synchronous coalesced flush —
//!   `RnConfig::async_flush` is a u64-path knob; a record can span
//!   several lines, and `persist_many`'s single fence is already the
//!   batched equivalent.
//! * The prefix/fence metadata a writer needs is read *after* its log
//!   entry allocation succeeds: an undecided entry blocks split/compaction
//!   completion (the `nlogs == plogs` quiescence guard), and only those
//!   rewrite the metadata, so what the writer reads cannot change until
//!   its entry is decided. An out-of-range key is caught by the fence
//!   check under the lock and wastes the entry, exactly like the u64
//!   path.
//! * Splits trigger on log-area consumption **or heap pressure**: when
//!   the free heap drops below one worst-case record
//!   ([`crate::layout::varlen::VAR_SPLIT_RESERVE`]), the next decided
//!   entry splits the leaf even though the slot array still has room. A
//!   failed heap reservation always ends in a decided (wasted) entry, so
//!   the trigger cannot starve.

use std::sync::atomic::Ordering;

use index_common::{key_head, KeyBuf, OpError, Value, MAX_KEY_LEN};
use obs::{EventKind, Phase};

use crate::fingerprint::fp_hash_bytes;
use crate::layout::varlen::{
    dir_off, round8, vfield, VAR_LEAF_CAPACITY, VAR_MAX_LIVE, VAR_SPLIT_RESERVE,
};
use crate::leaf::WhichSlot;
use crate::slots::SlotBuf;
use crate::tree::{Decision, RnTree, WriteMode};
use crate::varleaf::VarLeaf;

/// A `KeyBuf` strictly greater than every storable key: recovery's route
/// for the rightmost (+∞-fenced) leaf. Every split separator is a real
/// stored key, hence `<` this by at least its final byte.
pub(crate) const KEY_TOP: [u8; MAX_KEY_LEN] = [0xFF; MAX_KEY_LEN];

impl RnTree {
    fn vtraverse(&self, key: &[u8]) -> u64 {
        if self.cfg.seq_traversal {
            self.index.traverse_seq_k(key)
        } else {
            self.index.traverse_cached_k(key)
        }
    }

    /// `htmLeafSnapshot` over a var leaf (same dual-slot selection).
    fn vsnapshot_slot(&self, leaf: &VarLeaf<'_>, kind: WhichSlot) -> SlotBuf {
        if self.cfg.seq_traversal {
            leaf.read_slot_seq(kind)
        } else {
            self.index.domain().atomic(|txn| leaf.read_slot_in(txn, kind))
        }
    }

    /// Fingerprint-guided point lookup over a var leaf: probe bytes first,
    /// reconstructed-key confirmation only on fingerprint hits.
    fn vprobe(&self, leaf: &VarLeaf<'_>, slot: &SlotBuf, key: &[u8]) -> Option<usize> {
        let mut pbuf = [0u8; MAX_KEY_LEN];
        let p = leaf.prefix_into(&mut pbuf);
        let qhead = key_head(key);
        self.fps.probe_with(leaf.off(), slot, fp_hash_bytes(key), |e| {
            leaf.key_matches(key, qhead, &pbuf[..p], e, &self.leaf_head_ties)
        })
    }

    fn vlookup_pos(&self, leaf: &VarLeaf<'_>, slot: &SlotBuf, key: &[u8]) -> Option<usize> {
        if self.cfg.fingerprints {
            self.vprobe(leaf, slot, key)
        } else {
            leaf.search_k(slot, key, &self.leaf_head_ties).ok()
        }
    }

    // ---------------------------------------------------------------- modify

    pub(crate) fn vmodify(&self, key: &[u8], value: Value, mode: WriteMode) -> Result<(), OpError> {
        if key.len() > MAX_KEY_LEN {
            return Err(OpError::UnsupportedKey);
        }
        let mut starved = 0u32;
        loop {
            let mut clock = self.timers.clock();
            let leaf = VarLeaf::at(&self.pool, self.vtraverse(key));
            clock.lap(&self.timers, Phase::Descent);

            let Some(entry) = leaf.alloc_entry() else {
                // Log area exhausted or a split is running: help it along.
                self.vhelp_split(leaf);
                if self.starved(&mut starved) {
                    return Err(OpError::PoolExhausted);
                }
                self.note_retry();
                continue;
            };

            if self.cfg.leaf_prefetch {
                leaf.prefetch_hot();
                self.fps.prefetch_stripe(leaf.off());
            }

            // The allocated (undecided) entry freezes the fence metadata —
            // see module docs — so this prefix read is stable until we
            // decide the entry. If a pre-allocation split moved `key` out
            // of range, the fence check under the lock wastes the entry
            // before the suffix below could ever be published.
            let mut pbuf = [0u8; MAX_KEY_LEN];
            let p = leaf.prefix_into(&mut pbuf);
            let suffix = key.get(p..).unwrap_or(&[]);
            let rec_len = 8 + round8(suffix.len() as u64);

            let Some(rec_abs) = leaf.reserve_heap(rec_len) else {
                // Heap full: decide the entry wasted under the lock. The
                // failed reservation implies free heap < one worst-case
                // record, so the decision triggers the split.
                leaf.lock();
                self.vdecide_and_maybe_split(leaf);
                leaf.unlock(false);
                self.wasted.fetch_add(1, Ordering::Relaxed);
                if self.starved(&mut starved) {
                    return Err(OpError::PoolExhausted);
                }
                self.note_retry();
                continue;
            };

            // Write record + directory word with no lock held, then make
            // both durable with ONE coalesced flush: persistent
            // instruction #1 (the u64 path's KV flush).
            leaf.write_record(rec_abs, value, suffix);
            leaf.set_dir_word(entry, key_head(key), rec_abs - leaf.off(), suffix.len());
            if self.cfg.fingerprints {
                self.fps.set(leaf.off(), entry, fp_hash_bytes(key));
            }
            clock.mark();
            self.pool
                .persist_many(&[(rec_abs, rec_len), (leaf.off() + dir_off(entry), 8)]);
            clock.lap(&self.timers, Phase::LogFlush);

            let mut cs = clock.fork();
            leaf.lock();

            // Coverage check (split between traversal and lock).
            if leaf.key_above_fence(key) {
                self.vdecide_and_maybe_split(leaf);
                leaf.unlock(false);
                self.wasted.fetch_add(1, Ordering::Relaxed);
                self.note_retry();
                continue;
            }

            // htmLeafUpdate: slot-array edit inside a transaction (plain
            // stores in single-threaded mode, as in the u64 path).
            let decision = if self.cfg.seq_traversal {
                let mut slot = leaf.read_slot_seq(WhichSlot::Persistent);
                match self.vedit_slot(&leaf, &mut slot, key, entry, mode) {
                    Decision::Applied(s) => {
                        leaf.write_slot_seq(WhichSlot::Persistent, &s);
                        Decision::Applied(s)
                    }
                    other => other,
                }
            } else {
                self.index.domain().atomic(|txn| {
                    let mut slot = leaf.read_slot_in(txn, WhichSlot::Persistent)?;
                    match self.vedit_slot(&leaf, &mut slot, key, entry, mode) {
                        Decision::Applied(s) => {
                            leaf.write_slot_in(txn, WhichSlot::Persistent, &s)?;
                            Ok(Decision::Applied(s))
                        }
                        other => Ok(other),
                    }
                })
            };

            let applied = if let Decision::Applied(slot) = &decision {
                // Persistent instruction #2: the slot line.
                clock.mark();
                leaf.persist_pslot();
                clock.lap(&self.timers, Phase::SlotPersist);
                if self.cfg.dual_slot {
                    let slot = *slot;
                    if self.cfg.seq_traversal {
                        leaf.write_slot_seq(WhichSlot::Transient, &slot);
                    } else {
                        self.index
                            .domain()
                            .atomic(|txn| leaf.write_slot_in(txn, WhichSlot::Transient, &slot));
                    }
                }
                true
            } else {
                self.wasted.fetch_add(1, Ordering::Relaxed);
                false
            };

            let did_split = self.vdecide_and_maybe_split(leaf);
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

    /// The var-leaf slot edit: fingerprint probe for non-strict-insert
    /// modes, head-first binary search otherwise (its duplicate check
    /// rides along for free, exactly like the u64 `edit_slot`).
    fn vedit_slot(
        &self,
        leaf: &VarLeaf<'_>,
        slot: &mut SlotBuf,
        key: &[u8],
        entry: usize,
        mode: WriteMode,
    ) -> Decision {
        let found: Result<usize, Option<usize>> =
            if self.cfg.fingerprints && mode != WriteMode::InsertStrict {
                self.vprobe(leaf, slot, key).ok_or(None)
            } else {
                leaf.search_k(slot, key, &self.leaf_head_ties).map_err(Some)
            };
        match found {
            Ok(pos) => {
                if mode == WriteMode::InsertStrict {
                    return Decision::Exists;
                }
                slot.set_entry(pos, entry);
            }
            Err(ins_pos) => {
                if mode == WriteMode::UpdateStrict {
                    return Decision::Missing;
                }
                if slot.len() == VAR_MAX_LIVE {
                    return Decision::Overfull;
                }
                let pos = ins_pos.unwrap_or_else(|| {
                    match leaf.search_k(slot, key, &self.leaf_head_ties) {
                        Ok(p) | Err(p) => p,
                    }
                });
                slot.insert_at(pos, entry);
            }
        }
        Decision::Applied(*slot)
    }

    /// Counts one decided log entry and runs the (possibly deferred) split
    /// when the log area is consumed — or the heap is nearly full — and
    /// the log is quiescent. Lock must be held. Returns true if a
    /// split/compaction ran.
    fn vdecide_and_maybe_split(&self, leaf: VarLeaf<'_>) -> bool {
        let plogs = leaf.plogs() + 1;
        leaf.set_plogs(plogs);
        if plogs < (VAR_LEAF_CAPACITY - 1) as u64 && leaf.heap_free() >= VAR_SPLIT_RESERVE {
            return false;
        }
        leaf.set_split();
        if leaf.nlogs() == plogs {
            self.vsplit_or_compact(leaf);
            true
        } else {
            leaf.unset_split_nobump();
            false
        }
    }

    /// Allocation-failure path: split if the leaf is consumed (log area
    /// *or* heap) and quiescent; otherwise back off.
    fn vhelp_split(&self, leaf: VarLeaf<'_>) {
        leaf.lock();
        let nlogs = leaf.nlogs();
        let consumed = nlogs >= VAR_LEAF_CAPACITY as u64 || leaf.heap_free() < VAR_SPLIT_RESERVE;
        if consumed && nlogs == leaf.plogs() {
            leaf.set_split();
            if leaf.nlogs() == leaf.plogs() {
                self.vsplit_or_compact(leaf);
            } else {
                leaf.unset_split_nobump();
            }
        }
        leaf.unlock(false);
        std::thread::yield_now();
    }

    // ---------------------------------------------------------------- split

    /// Splits (or compacts) a var leaf. Same contract as the u64
    /// `split_or_compact`: lock held, splitting bit set, `nlogs == plogs`.
    ///
    /// The journaled image is the whole 4096-byte block, so heap, fences
    /// and directory roll back together. Post-split fit is guaranteed by
    /// construction: each half holds at most 32 records of at most
    /// [`crate::layout::varlen::VAR_REC_MAX`] bytes (2304 B) plus at most
    /// [`crate::layout::varlen::VAR_FENCE_RESERVE`] fence bytes — under
    /// the 3392-byte heap. Prefixes only grow across a split (each half's
    /// fence pair brackets a subrange), so re-truncated suffixes never
    /// grow either.
    fn vsplit_or_compact(&self, leaf: VarLeaf<'_>) {
        debug_assert_eq!(leaf.nlogs(), leaf.plogs());
        let jslot = self.journal.acquire();
        self.journal.log(&self.pool, jslot, leaf.off());

        let slot = leaf.read_slot_seq(WhichSlot::Persistent);
        let pairs = leaf.collect_pairs(&slot);
        let live = pairs.len();
        let lf = leaf.low_fence();
        let hf = leaf.high_fence();

        if live < VAR_LEAF_CAPACITY / 2 {
            // Mostly obsolete entries or heap churn: compact in place under
            // the same fences (records re-truncate to the same suffixes;
            // the dense rewrite reclaims dead records' heap space).
            leaf.rewrite_records(&pairs, lf.as_slice(), hf.as_ref().map(|h| h.as_slice()));
            if self.cfg.fingerprints {
                for (i, (k, _)) in pairs.iter().enumerate() {
                    self.fps.set(leaf.off(), i, fp_hash_bytes(k.as_slice()));
                }
            }
            let id = SlotBuf::identity(live);
            self.index.domain().atomic(|txn| {
                leaf.write_slot_in(txn, WhichSlot::Persistent, &id)?;
                leaf.write_slot_in(txn, WhichSlot::Transient, &id)
            });
            leaf.persist_all();
            leaf.set_nlogs(live as u64);
            leaf.set_plogs(live as u64);
            self.journal.clear(&self.pool, jslot);
            self.compactions.fetch_add(1, Ordering::Relaxed);
            self.pool.events().record(EventKind::Compaction, leaf.off(), live as u64);
            leaf.unset_split_bump();
            return;
        }

        let Some(right_off) = self.alloc.alloc() else {
            self.pool_exhausted.store(true, Ordering::Relaxed);
            self.pool.events().record(EventKind::PoolExhausted, leaf.off(), self.pool.len());
            self.journal.clear(&self.pool, jslot);
            leaf.unset_split_bump();
            return;
        };

        // Divide; the separator is the left half's new maximum key — a
        // real stored key, so both fence pairs stay real keys and the
        // prefix lemma keeps holding on both sides.
        let mid = live / 2;
        debug_assert!(mid >= 1);
        let sep = pairs[mid - 1].0;
        let right = VarLeaf::at(&self.pool, right_off);

        // Build and persist the private right sibling first.
        right.init_from_pairs(&pairs[mid..], sep.as_slice(), hf.as_ref().map(|h| h.as_slice()), leaf.next());
        if self.cfg.fingerprints {
            for (i, (k, _)) in pairs[mid..].iter().enumerate() {
                self.fps.set(right_off, i, fp_hash_bytes(k.as_slice()));
            }
        }

        // Rewrite the left half in place (journal-protected): new fences
        // (low unchanged, high = sep), re-truncated records, fresh
        // directory.
        leaf.rewrite_records(&pairs[..mid], lf.as_slice(), Some(sep.as_slice()));
        if self.cfg.fingerprints {
            for (i, (k, _)) in pairs[..mid].iter().enumerate() {
                self.fps.set(leaf.off(), i, fp_hash_bytes(k.as_slice()));
            }
        }
        let id = SlotBuf::identity(mid);
        self.index.domain().atomic(|txn| {
            leaf.write_slot_in(txn, WhichSlot::Persistent, &id)?;
            leaf.write_slot_in(txn, WhichSlot::Transient, &id)
        });
        leaf.set_next(right_off);
        leaf.persist_all();
        leaf.set_nlogs(mid as u64);
        leaf.set_plogs(mid as u64);
        self.journal.clear(&self.pool, jslot);

        // Route the moved keys before readers may run again.
        self.index.tree_update_k(sep.as_slice(), index_common::leaf_ref(right_off));
        self.splits.fetch_add(1, Ordering::Relaxed);
        self.pool.events().record(EventKind::Split, leaf.off(), right_off);
        leaf.unset_split_bump();
    }

    // ---------------------------------------------------------------- read

    pub(crate) fn vfind(&self, key: &[u8]) -> Option<Value> {
        if key.len() > MAX_KEY_LEN {
            return None;
        }
        loop {
            let leaf = VarLeaf::at(&self.pool, self.vtraverse(key));
            if self.cfg.leaf_prefetch {
                leaf.prefetch_hot();
                self.fps.prefetch_stripe(leaf.off());
            }
            let v1 = leaf.stable_version(self.reader_waits_lock());
            if leaf.key_above_fence(key) {
                self.note_retry();
                continue;
            }
            let kind = self.read_slot_kind();
            let slot = self.vsnapshot_slot(&leaf, kind);
            let result = self
                .vlookup_pos(&leaf, &slot, key)
                .map(|pos| leaf.read_value_entry(slot.entry(pos)));
            if leaf.stable_version(self.reader_waits_lock()) != v1 {
                self.note_retry();
                continue;
            }
            return result;
        }
    }

    pub(crate) fn vscan(&self, start: &[u8], n: usize, out: &mut Vec<(KeyBuf, Value)>) -> usize {
        out.clear();
        if n == 0 {
            return 0;
        }
        // Clamp over-long start keys: for any storable key `k` (≤ 64 B),
        // `k ≥ start ⟺ k ≥ successor(start[..64])` — `start` is longer
        // than its own 64-byte prefix, so nothing storable sits between.
        let mut cursor = if start.len() > MAX_KEY_LEN {
            match KeyBuf::from_slice(&start[..MAX_KEY_LEN]).successor() {
                Some(s) => s,
                None => return 0,
            }
        } else {
            KeyBuf::from_slice(start)
        };
        'traverse: loop {
            let mut leaf_off = self.vtraverse(cursor.as_slice());
            loop {
                let leaf = VarLeaf::at(&self.pool, leaf_off);
                let v1 = leaf.stable_version(self.reader_waits_lock());
                if leaf.key_above_fence(cursor.as_slice()) {
                    self.note_retry();
                    continue 'traverse;
                }
                let hf = leaf.high_fence();
                let next = leaf.next();
                let kind = self.read_slot_kind();
                let slot = self.vsnapshot_slot(&leaf, kind);
                let from = match leaf.search_k(&slot, cursor.as_slice(), &self.leaf_head_ties) {
                    Ok(p) | Err(p) => p,
                };
                // Append in place, cut back on a failed re-check (as
                // `scan_impl` does for u64 leaves).
                let mark = out.len();
                let to = slot.len().min(from + (n - mark));
                for pos in from..to {
                    let e = slot.entry(pos);
                    out.push((leaf.key_of_entry(e), leaf.read_value_entry(e)));
                }
                if leaf.stable_version(self.reader_waits_lock()) != v1 {
                    self.note_retry();
                    out.truncate(mark);
                    continue 'traverse;
                }
                if out.len() == n {
                    return n;
                }
                let Some(hf) = hf else {
                    return out.len(); // rightmost (+∞) leaf
                };
                if next == 0 {
                    return out.len();
                }
                // Advance past this leaf's inclusive upper bound.
                let Some(succ) = hf.successor() else {
                    return out.len(); // fence is the maximum storable key
                };
                cursor = succ;
                leaf_off = next;
            }
        }
    }

    // ---------------------------------------------------------------- remove

    pub(crate) fn vremove(&self, key: &[u8]) -> Result<(), OpError> {
        if key.len() > MAX_KEY_LEN {
            return Err(OpError::UnsupportedKey);
        }
        loop {
            let leaf = VarLeaf::at(&self.pool, self.vtraverse(key));
            if self.cfg.leaf_prefetch {
                leaf.prefetch_hot();
                self.fps.prefetch_stripe(leaf.off());
            }
            leaf.lock();
            if leaf.key_above_fence(key) {
                leaf.unlock(false);
                self.note_retry();
                continue;
            }
            // Remove edits only the slot array: one persistent instruction.
            let removed = if self.cfg.seq_traversal {
                let mut slot = leaf.read_slot_seq(WhichSlot::Persistent);
                match self.vlookup_pos(&leaf, &slot, key) {
                    None => None,
                    Some(pos) => {
                        slot.remove_at(pos);
                        leaf.write_slot_seq(WhichSlot::Persistent, &slot);
                        Some(slot)
                    }
                }
            } else {
                self.index.domain().atomic(|txn| {
                    let mut slot = leaf.read_slot_in(txn, WhichSlot::Persistent)?;
                    match self.vlookup_pos(&leaf, &slot, key) {
                        None => Ok(None),
                        Some(pos) => {
                            slot.remove_at(pos);
                            leaf.write_slot_in(txn, WhichSlot::Persistent, &slot)?;
                            Ok(Some(slot))
                        }
                    }
                })
            };
            return match removed {
                None => {
                    leaf.unlock(false);
                    Err(OpError::NotFound)
                }
                Some(slot) => {
                    leaf.persist_pslot();
                    if self.cfg.dual_slot {
                        if self.cfg.seq_traversal {
                            leaf.write_slot_seq(WhichSlot::Transient, &slot);
                        } else {
                            self.index
                                .domain()
                                .atomic(|txn| leaf.write_slot_in(txn, WhichSlot::Transient, &slot));
                        }
                    }
                    leaf.unlock(!self.cfg.dual_slot);
                    Ok(())
                }
            };
        }
    }

    // ---------------------------------------------------------------- batch

    /// Bulk-loads `pairs` into an empty var tree (the byte-key
    /// [`RnTree::load_sorted`]): sorted + deduplicated (last wins), then
    /// built right-to-left as full leaves at 2 persistent instructions per
    /// leaf. Chunk boundaries double as fences — chunk `i`'s low fence is
    /// chunk `i-1`'s maximum key — so prefix truncation applies from the
    /// first lookup on.
    pub(crate) fn vload_sorted(&self, pairs: &[(KeyBuf, Value)]) -> Result<(), OpError> {
        let head = VarLeaf::at(&self.pool, self.leftmost);
        assert!(
            head.read_slot_seq(WhichSlot::Persistent).is_empty() && head.next() == 0,
            "load_sorted requires an empty tree"
        );
        if pairs.is_empty() {
            return Ok(());
        }
        let mut sorted: Vec<(KeyBuf, Value)> = pairs.to_vec();
        sorted.sort_by_key(|p| p.0); // stable
        sorted.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 = later.1; // last occurrence wins (upsert)
                true
            } else {
                false
            }
        });
        // Greedy chunking under both budgets: slot count, and heap bytes
        // computed conservatively with *full* key lengths (suffixes can
        // only be shorter) plus the worst-case fence reserve.
        let heap_budget = crate::layout::varlen::VAR_HEAP_CAP - crate::layout::varlen::VAR_FENCE_RESERVE;
        let mut chunks: Vec<&[(KeyBuf, Value)]> = Vec::new();
        let mut at = 0usize;
        while at < sorted.len() {
            let mut end = at;
            let mut heap = 0u64;
            while end < sorted.len() && end - at < VAR_MAX_LIVE {
                let rec = 8 + round8(sorted[end].0.len() as u64);
                if heap + rec > heap_budget {
                    break;
                }
                heap += rec;
                end += 1;
            }
            debug_assert!(end > at, "one record always fits an empty heap");
            chunks.push(&sorted[at..end]);
            at = end;
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
        // Undo-log the (empty) head, then build right-to-left so every
        // persisted `next` targets a durable sibling: all-or-nothing.
        let jslot = self.journal.acquire();
        self.journal.log(&self.pool, jslot, self.leftmost);
        for i in (0..chunks.len()).rev() {
            let last = i == chunks.len() - 1;
            let lf = if i == 0 { KeyBuf::MIN } else { chunks[i - 1].last().expect("chunks are non-empty").0 };
            let hf = chunks[i].last().expect("chunks are non-empty").0;
            let hf = if last { None } else { Some(hf) };
            let next = if last { 0 } else { blocks[i + 1] };
            self.vinit_leaf_batched(VarLeaf::at(&self.pool, blocks[i]), chunks[i], &lf, hf.as_ref(), next);
        }
        self.journal.clear(&self.pool, jslot);
        let routes: Vec<(KeyBuf, u64)> = chunks
            .iter()
            .zip(&blocks)
            .map(|(c, &b)| (c.last().expect("chunks are non-empty").0, index_common::leaf_ref(b)))
            .collect();
        self.index.bulk_build_k(&routes);
        Ok(())
    }

    /// Formats a var leaf with `chunk` using exactly two persistent
    /// instructions: one coalesced flush of the header line + directory
    /// words + used heap (fences and records), then the slot-array line.
    fn vinit_leaf_batched(
        &self,
        leaf: VarLeaf<'_>,
        chunk: &[(KeyBuf, Value)],
        lf: &KeyBuf,
        hf: Option<&KeyBuf>,
        next: u64,
    ) {
        debug_assert!(!chunk.is_empty() && chunk.len() <= VAR_MAX_LIVE);
        leaf.reset_lockver();
        leaf.rewrite_records(chunk, lf.as_slice(), hf.map(|h| h.as_slice()));
        if self.cfg.fingerprints {
            for (i, (k, _)) in chunk.iter().enumerate() {
                self.fps.set(leaf.off(), i, fp_hash_bytes(k.as_slice()));
            }
        }
        leaf.set_nlogs(chunk.len() as u64);
        leaf.set_plogs(chunk.len() as u64);
        leaf.set_next(next);
        // Persistent instruction #1: one CLWB batch + one fence covering
        // the header line, the dirtied directory words, and the used heap.
        self.pool.persist_many(&[
            (leaf.off() + vfield::LOCKVER, 64),
            (leaf.off() + vfield::DIR, chunk.len() as u64 * 8),
            (leaf.off() + vfield::HEAP, leaf.heap_used()),
        ]);
        let slot = SlotBuf::identity(chunk.len());
        leaf.write_slot_seq(WhichSlot::Persistent, &slot);
        leaf.write_slot_seq(WhichSlot::Transient, &slot);
        // Persistent instruction #2: publish after the records are durable.
        leaf.persist_pslot();
    }

    /// Byte-key [`RnTree::insert_batch`]: strict-insert per key, runs
    /// amortised per leaf at 2 persistent instructions per touched leaf.
    pub(crate) fn vinsert_batch(&self, batch: &mut [(KeyBuf, Value)]) -> Vec<Result<(), OpError>> {
        batch.sort_by_key(|p| p.0); // stable: first duplicate wins
        let mut results: Vec<Result<(), OpError>> = vec![Ok(()); batch.len()];
        let mut i = 0usize;
        let mut starved = 0u32;
        while i < batch.len() {
            let key = batch[i].0;
            let leaf = VarLeaf::at(&self.pool, self.vtraverse(key.as_slice()));
            if self.cfg.leaf_prefetch {
                leaf.prefetch_hot();
                self.fps.prefetch_stripe(leaf.off());
            }
            leaf.lock();
            if leaf.key_above_fence(key.as_slice()) {
                leaf.unlock(false);
                self.note_retry();
                continue;
            }
            // Run formation: the maximal prefix of remaining keys covered
            // by this leaf's range (everything ≤ its high fence).
            let hf = leaf.high_fence();
            let run_len = batch[i..].partition_point(|p| match &hf {
                None => true,
                Some(h) => p.0.as_slice() <= h.as_slice(),
            });
            let consumed = self.vapply_run(leaf, &batch[i..i + run_len], &mut results[i..i + run_len]);
            if consumed > 0 {
                starved = 0;
                i += consumed;
                continue;
            }
            self.vhelp_split(leaf);
            if self.starved(&mut starved) {
                results[i] = Err(OpError::PoolExhausted);
                i += 1;
                starved = 0;
            }
            self.note_retry();
        }
        results
    }

    /// Applies one run of sorted keys to a var leaf under its (held) lock;
    /// unlocks before returning. Returns the number of keys consumed.
    fn vapply_run(
        &self,
        leaf: VarLeaf<'_>,
        run: &[(KeyBuf, Value)],
        results: &mut [Result<(), OpError>],
    ) -> usize {
        let mut slot = leaf.read_slot_seq(WhichSlot::Persistent);
        // The prefix is stable for the whole run: metadata changes only
        // inside split/compaction, and we hold the lock.
        let mut pbuf = [0u8; MAX_KEY_LEN];
        let p = leaf.prefix_into(&mut pbuf);
        let mut dirty: Vec<(u64, u64)> = Vec::with_capacity(2 * run.len());
        let mut decided = 0u64;
        let mut consumed = 0usize;
        let mut changed = false;
        for (ri, (k, v)) in run.iter().enumerate() {
            let key = k.as_slice();
            match leaf.search_k(&slot, key, &self.leaf_head_ties) {
                Ok(_) => {
                    results[ri] = Err(OpError::AlreadyExists);
                    consumed += 1;
                }
                Err(pos) => {
                    if slot.len() == VAR_MAX_LIVE {
                        // Waste one entry so `plogs` drives the split,
                        // exactly like the u64 run path.
                        if leaf.alloc_entry().is_some() {
                            decided += 1;
                            self.wasted.fetch_add(1, Ordering::Relaxed);
                        }
                        break;
                    }
                    let Some(entry) = leaf.alloc_entry() else {
                        break; // log area exhausted; split, then retry
                    };
                    let suffix = key.get(p..).unwrap_or(&[]);
                    let rec_len = 8 + round8(suffix.len() as u64);
                    let Some(rec_abs) = leaf.reserve_heap(rec_len) else {
                        // Heap full: the entry is decided wasted; the
                        // heap-pressure trigger below runs the split.
                        decided += 1;
                        self.wasted.fetch_add(1, Ordering::Relaxed);
                        break;
                    };
                    decided += 1;
                    leaf.write_record(rec_abs, *v, suffix);
                    leaf.set_dir_word(entry, key_head(key), rec_abs - leaf.off(), suffix.len());
                    if self.cfg.fingerprints {
                        self.fps.set(leaf.off(), entry, fp_hash_bytes(key));
                    }
                    dirty.push((rec_abs, rec_len));
                    dirty.push((leaf.off() + dir_off(entry), 8));
                    slot.insert_at(pos, entry);
                    changed = true;
                    consumed += 1;
                }
            }
        }
        if changed {
            // Persistent instruction #1 for the whole run: records +
            // directory words, coalesced into one fence.
            self.pool.persist_many(&dirty);
            if self.cfg.seq_traversal {
                leaf.write_slot_seq(WhichSlot::Persistent, &slot);
            } else {
                self.index
                    .domain()
                    .atomic(|txn| leaf.write_slot_in(txn, WhichSlot::Persistent, &slot));
            }
            // Persistent instruction #2: the run commits here.
            leaf.persist_pslot();
            if self.cfg.dual_slot {
                if self.cfg.seq_traversal {
                    leaf.write_slot_seq(WhichSlot::Transient, &slot);
                } else {
                    self.index
                        .domain()
                        .atomic(|txn| leaf.write_slot_in(txn, WhichSlot::Transient, &slot));
                }
            }
        }
        let mut did_split = false;
        if decided > 0 {
            let plogs = leaf.plogs() + decided;
            leaf.set_plogs(plogs);
            if plogs >= (VAR_LEAF_CAPACITY - 1) as u64 || leaf.heap_free() < VAR_SPLIT_RESERVE {
                leaf.set_split();
                if leaf.nlogs() == plogs {
                    self.vsplit_or_compact(leaf);
                    did_split = true;
                } else {
                    leaf.unset_split_nobump();
                }
            }
        }
        leaf.unlock(!self.cfg.dual_slot && changed && !did_split);
        consumed
    }

    // ---------------------------------------------------------------- checks

    /// Structural invariants of the var-leaf chain (quiescent phases only;
    /// the byte-key counterpart of [`RnTree::verify_invariants`]).
    pub(crate) fn vverify_invariants(&self) -> Result<(), String> {
        let mut off = self.leftmost;
        let mut last_key: Option<KeyBuf> = None;
        let mut prev_hf: Option<KeyBuf> = Some(KeyBuf::MIN); // next leaf's expected low fence
        while off != 0 {
            let leaf = VarLeaf::at(&self.pool, off);
            // Var leaves never morph: the hash directory encodes u64
            // fingerprint buckets and the adaptive policy is rejected at
            // config validation, so any non-sorted tag here is corruption.
            if leaf.layout() != crate::layout::LAYOUT_SORTED {
                return Err(format!("var leaf {off}: layout tag {} != sorted", leaf.layout()));
            }
            let slot = leaf.read_slot_seq(WhichSlot::Persistent);
            if slot.len() > VAR_MAX_LIVE {
                return Err(format!("leaf {off}: slot count {} > {VAR_MAX_LIVE}", slot.len()));
            }
            let lf = leaf.low_fence();
            let hf = leaf.high_fence();
            match &prev_hf {
                Some(expect) => {
                    if lf != *expect {
                        return Err(format!(
                            "leaf {off}: low fence {lf:?} != predecessor's high fence {expect:?}"
                        ));
                    }
                }
                None => return Err(format!("leaf {off}: follows a +∞-fenced leaf")),
            }
            let want_p = hf
                .as_ref()
                .map_or(0, |h| index_common::lcp(lf.as_slice(), h.as_slice()));
            if leaf.prefix_len() != want_p {
                return Err(format!(
                    "leaf {off}: prefix_len {} != lcp(fences) {want_p}",
                    leaf.prefix_len()
                ));
            }
            let mut seen = [false; VAR_LEAF_CAPACITY];
            for pos in 0..slot.len() {
                let e = slot.entry(pos);
                if e >= VAR_LEAF_CAPACITY {
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
                let k = leaf.key_of_entry(e);
                if let Some(prev) = &last_key {
                    if k <= *prev {
                        return Err(format!("leaf {off}: key {k:?} not > previous {prev:?}"));
                    }
                }
                // Range is (lf, hf], except the leftmost leaf's empty low
                // fence also admits the empty key (nothing sorts below it,
                // and p = lcp("", hf) = 0 so truncation stays sound).
                if k.as_slice() < lf.as_slice() || (k == lf && !lf.is_empty()) {
                    return Err(format!("leaf {off}: key {k:?} not above low fence {lf:?}"));
                }
                if let Some(h) = &hf {
                    if k.as_slice() > h.as_slice() {
                        return Err(format!("leaf {off}: key {k:?} above high fence {h:?}"));
                    }
                }
                if self.cfg.fingerprints && self.vprobe(&leaf, &slot, k.as_slice()) != Some(pos) {
                    return Err(format!("leaf {off}: fingerprint probe misses live key {k:?}"));
                }
                let routed = self.index.traverse_seq_k(k.as_slice());
                if routed != off {
                    return Err(format!("index routes key {k:?} to {routed}, expected {off}"));
                }
                last_key = Some(k);
            }
            if self.cfg.dual_slot {
                let t = leaf.read_slot_seq(WhichSlot::Transient);
                if t != slot {
                    return Err(format!("leaf {off}: transient slot diverges from persistent"));
                }
            }
            let next = leaf.next();
            if next == 0 && hf.is_some() {
                return Err(format!("last leaf {off} has a finite high fence {hf:?}"));
            }
            if next != 0 && hf.is_none() {
                return Err(format!("leaf {off}: +∞ fence but a successor exists"));
            }
            prev_hf = hf;
            off = next;
        }
        Ok(())
    }
}
