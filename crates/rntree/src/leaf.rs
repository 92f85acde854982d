//! Typed accessor over a persistent leaf block.
//!
//! `Leaf` is a copyable `(pool, offset)` handle exposing the layout of
//! [`crate::layout`] with the right access discipline per field:
//!
//! * `lockver` — plain atomics + CAS (the spin lock / version protocol of
//!   paper Figure 2; never transactional in RNTree).
//! * `nlogs` — lock-free CAS allocation (paper Algorithm 2).
//! * `plogs`, `next`, `fence` — plain atomic loads/stores under the leaf
//!   lock or during recovery.
//! * slot arrays — transactional words (`htmLeafUpdate`,
//!   `htmLeafCopySlot`, `htmLeafSnapshot` of paper Table 2), plus
//!   sequential access for recovery.
//! * KV log entries — plain atomic word access: each entry has exactly one
//!   writer before it is published via the slot array, and splits that
//!   rewrite entries are fenced off by the version protocol.

use htm::{TmWord, TxResult, Txn};
use nvm::PmemPool;

use crate::layout::{field, kv_off, LEAF_BLOCK, LEAF_CAPACITY};
use crate::slots::SlotBuf;
use crate::version::LeafVersion;

/// Which of the two slot arrays to access (the dual-slot design, §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WhichSlot {
    /// The crash-consistent slot array (flushed to NVM).
    Persistent,
    /// The reader-facing transient copy (semantically DRAM).
    Transient,
}

impl WhichSlot {
    fn base(self) -> u64 {
        match self {
            WhichSlot::Persistent => field::PSLOT,
            WhichSlot::Transient => field::TSLOT,
        }
    }
}

/// A handle to one persistent leaf node.
#[derive(Clone, Copy)]
pub(crate) struct Leaf<'p> {
    pool: &'p PmemPool,
    off: u64,
}

impl<'p> Leaf<'p> {
    pub(crate) fn at(pool: &'p PmemPool, off: u64) -> Self {
        debug_assert!(off.is_multiple_of(64) && off + LEAF_BLOCK <= pool.len());
        Leaf { pool, off }
    }

    pub(crate) fn off(&self) -> u64 {
        self.off
    }

    /// The pool this leaf lives in.
    pub(crate) fn pool(&self) -> &'p PmemPool {
        self.pool
    }

    // ---- lock / version protocol (Figure 2) ------------------------------

    fn lockver(&self) -> &std::sync::atomic::AtomicU64 {
        self.pool.atomic_u64(self.off + field::LOCKVER)
    }

    /// Acquires the leaf spin lock. Panics instead of spinning forever if
    /// the pool dies meanwhile: the holder may be a thread a persist trap
    /// killed ([`PmemPool::check_alive`]).
    pub(crate) fn lock(&self) {
        use std::sync::atomic::Ordering;
        loop {
            let cur = self.lockver().load(Ordering::Acquire);
            if !LeafVersion::locked(cur)
                && self
                    .lockver()
                    .compare_exchange_weak(cur, cur | LeafVersion::LOCK, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                return;
            }
            self.pool.check_alive();
            std::hint::spin_loop();
        }
    }

    /// Releases the leaf lock; bumps the version counter when `bump` (the
    /// single-slot variant bumps on every modification, §5.2.2).
    ///
    /// RMW, not a plain store: concurrent allocators CAS the same word.
    pub(crate) fn unlock(&self, bump: bool) {
        use std::sync::atomic::Ordering;
        self.lockver()
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                debug_assert!(LeafVersion::locked(cur), "unlocking an unlocked leaf");
                let next = cur & !LeafVersion::LOCK;
                Some(if bump { LeafVersion::bump(next) } else { next })
            })
            .expect("fetch_update with Some never fails");
    }

    /// Sets the splitting bit (lock must be held). After this RMW commits,
    /// every allocation attempt observes the bit and fails: the log area
    /// is frozen (see `version.rs` module docs).
    pub(crate) fn set_split(&self) {
        use std::sync::atomic::Ordering;
        let prev = self.lockver().fetch_or(LeafVersion::SPLIT, Ordering::AcqRel);
        debug_assert!(LeafVersion::locked(prev));
    }

    /// Clears the splitting bit without a version bump (split deferred:
    /// in-flight log entries still undecided).
    pub(crate) fn unset_split_nobump(&self) {
        use std::sync::atomic::Ordering;
        let prev = self.lockver().fetch_and(!LeafVersion::SPLIT, Ordering::AcqRel);
        debug_assert!(LeafVersion::splitting(prev));
    }

    /// Clears the splitting bit and bumps the version (split finished).
    pub(crate) fn unset_split_bump(&self) {
        use std::sync::atomic::Ordering;
        self.lockver()
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                debug_assert!(LeafVersion::splitting(cur));
                Some(LeafVersion::bump(cur & !LeafVersion::SPLIT))
            })
            .expect("fetch_update with Some never fails");
    }

    /// `stableVersion` (paper §5.1): spins until the leaf is not splitting
    /// — and, when `wait_lock` (the single-slot variant), until it is not
    /// locked — then returns the version counter. Like [`Leaf::lock`], the
    /// spin panics if the pool dies: a split bit a crashed thread set is
    /// never cleared.
    pub(crate) fn stable_version(&self, wait_lock: bool) -> u64 {
        use std::sync::atomic::Ordering;
        loop {
            let cur = self.lockver().load(Ordering::Acquire);
            let busy = LeafVersion::splitting(cur) || (wait_lock && LeafVersion::locked(cur));
            if !busy {
                return LeafVersion::version(cur);
            }
            self.pool.check_alive();
            std::hint::spin_loop();
        }
    }

    /// Clears the whole lock/version word (recovery).
    pub(crate) fn reset_lockver(&self) {
        self.lockver().store(0, std::sync::atomic::Ordering::Relaxed);
    }

    // ---- scalar header fields -------------------------------------------

    /// Allocation counter (packed in the lock/version word).
    pub(crate) fn nlogs(&self) -> u64 {
        LeafVersion::nlogs(self.lockver().load(std::sync::atomic::Ordering::Acquire))
    }

    /// Rewrites the allocation counter (lock held with allocations frozen
    /// by the splitting bit, or quiescent recovery).
    pub(crate) fn set_nlogs(&self, v: u64) {
        use std::sync::atomic::Ordering;
        self.lockver()
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                Some(LeafVersion::with_nlogs(cur, v))
            })
            .expect("fetch_update with Some never fails");
    }

    pub(crate) fn plogs(&self) -> u64 {
        self.pool.load_u64(self.off + field::PLOGS)
    }

    pub(crate) fn set_plogs(&self, v: u64) {
        self.pool.store_u64(self.off + field::PLOGS, v);
    }

    pub(crate) fn next(&self) -> u64 {
        self.pool.load_u64_acquire(self.off + field::NEXT)
    }

    pub(crate) fn set_next(&self, v: u64) {
        self.pool.store_u64_release(self.off + field::NEXT, v);
    }

    pub(crate) fn fence(&self) -> u64 {
        self.pool.load_u64_acquire(self.off + field::FENCE)
    }

    pub(crate) fn set_fence(&self, v: u64) {
        self.pool.store_u64_release(self.off + field::FENCE, v);
    }

    // ---- log-entry allocation (Algorithm 2) ------------------------------

    /// Lock-free log-entry allocation: CAS-bumps the `nlogs` field of the
    /// lock/version word; `None` when the log area is exhausted or a
    /// split/compaction is in progress (the caller re-traverses, hoping
    /// the split completes — paper Algorithm 1 line 5).
    ///
    /// Because the counter shares its word with the splitting bit, a
    /// successful CAS proves no split was running at that instant, and a
    /// split that starts afterwards will observe the incremented counter
    /// in its quiescence check.
    pub(crate) fn alloc_entry(&self) -> Option<usize> {
        use std::sync::atomic::Ordering;
        let word = self.lockver();
        let mut cur = word.load(Ordering::Acquire);
        loop {
            if LeafVersion::splitting(cur) {
                return None;
            }
            let n = LeafVersion::nlogs(cur);
            if n >= LEAF_CAPACITY as u64 {
                return None;
            }
            match word.compare_exchange_weak(
                cur,
                cur + LeafVersion::NLOGS_ONE,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(n as usize),
                Err(seen) => cur = seen,
            }
        }
    }

    // ---- KV log entries ---------------------------------------------------

    pub(crate) fn read_key(&self, entry: usize) -> u64 {
        debug_assert!(entry < LEAF_CAPACITY);
        self.pool.load_u64(self.off + kv_off(entry))
    }

    pub(crate) fn read_value(&self, entry: usize) -> u64 {
        debug_assert!(entry < LEAF_CAPACITY);
        self.pool.load_u64(self.off + kv_off(entry) + 8)
    }

    pub(crate) fn write_kv(&self, entry: usize, key: u64, value: u64) {
        debug_assert!(entry < LEAF_CAPACITY);
        self.pool.store_u64(self.off + kv_off(entry), key);
        self.pool.store_u64(self.off + kv_off(entry) + 8, value);
    }

    // ---- slot arrays -------------------------------------------------------

    fn slot_word(&self, which: WhichSlot, i: usize) -> &'p TmWord {
        debug_assert!(i < 8);
        TmWord::from_atomic(self.pool.atomic_u64(self.off + which.base() + (i as u64) * 8))
    }

    /// The eight words of one slot line, for `htm::snapshot`
    /// (`htmLeafSnapshot`).
    pub(crate) fn slot_words(&self, which: WhichSlot) -> [&'p TmWord; 8] {
        std::array::from_fn(|i| self.slot_word(which, i))
    }

    /// Transactional slot-array read, inside a write section.
    pub(crate) fn read_slot_in<'t>(&self, txn: &mut Txn<'t>, which: WhichSlot) -> TxResult<SlotBuf>
    where
        'p: 't,
    {
        let mut words = [0u64; 8];
        for (i, w) in words.iter_mut().enumerate() {
            *w = txn.read(self.slot_word(which, i))?;
        }
        Ok(SlotBuf::from_words(words))
    }

    /// Transactional slot-array write (`htmLeafUpdate` tail).
    pub(crate) fn write_slot_in<'t>(&self, txn: &mut Txn<'t>, which: WhichSlot, slot: &SlotBuf) -> TxResult<()>
    where
        'p: 't,
    {
        for (i, w) in slot.to_words().into_iter().enumerate() {
            txn.write(self.slot_word(which, i), w)?;
        }
        Ok(())
    }

    /// Sequential slot read (recovery / verification / under-lock phases).
    pub(crate) fn read_slot_seq(&self, which: WhichSlot) -> SlotBuf {
        let words = std::array::from_fn(|i| self.slot_word(which, i).load_seq());
        SlotBuf::from_words(words)
    }

    /// Sequential slot write (initialisation / recovery only).
    pub(crate) fn write_slot_seq(&self, which: WhichSlot, slot: &SlotBuf) {
        for (i, w) in slot.to_words().into_iter().enumerate() {
            self.slot_word(which, i).store_seq(w);
        }
    }

    /// Persistent instruction #2 of a modify operation: flush the
    /// persistent slot array line.
    pub(crate) fn persist_pslot(&self) {
        debug_assert!(!htm::in_transaction(), "flush inside an HTM transaction");
        self.pool.persist(self.off + field::PSLOT, 64);
    }

    /// Persists the header line (`next`, `fence`, counters).
    pub(crate) fn persist_header(&self) {
        self.pool.persist(self.off + field::LOCKVER, 64);
    }

    /// Persists the first `len` bytes of the block: the whole node for a
    /// split or compaction tail (`len` is the format's block size).
    pub(crate) fn persist_block(&self, len: u64) {
        self.pool.persist(self.off, len);
    }

    // ---- prefetch ----------------------------------------------------------

    /// Prefetch hints for the lines an operation on this leaf is about to
    /// touch: the header (lock/version word), both slot-array lines, and —
    /// when `entries > 0` — the KV lines holding log entries `0..entries`.
    /// Issued as early as the addresses are known so the misses overlap the
    /// persist spin / lock acquisition instead of serializing behind them.
    /// Semantically free: hints only.
    pub(crate) fn prefetch_hot(&self, entries: usize) {
        self.pool.prefetch(self.off + field::LOCKVER, 8);
        self.pool.prefetch(self.off + field::PSLOT, 128);
        if entries > 0 {
            let end = kv_off(entries.min(LEAF_CAPACITY) - 1) + 16;
            self.pool.prefetch(self.off + field::KV, end - field::KV);
        }
    }

    // ---- search ------------------------------------------------------------

    /// Binary search for `key` among the live entries of `slot`.
    /// `Ok(pos)` = found at sorted position `pos`; `Err(pos)` = not found,
    /// would insert at `pos`. Key loads are plain atomic reads: entries
    /// referenced by a slot array are immutable until a split, and every
    /// caller revalidates with the version protocol.
    pub(crate) fn search(&self, slot: &SlotBuf, key: u64) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0usize, slot.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            let k = self.read_key(slot.entry(mid));
            match k.cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    // ---- initialisation ------------------------------------------------------

    /// Formats this block as an empty leaf and persists it.
    pub(crate) fn init_empty(&self, fence: u64, next: u64) {
        self.reset_lockver();
        self.set_plogs(0);
        self.set_next(next);
        self.set_fence(fence);
        self.write_slot_seq(WhichSlot::Persistent, &SlotBuf::new());
        self.write_slot_seq(WhichSlot::Transient, &SlotBuf::new());
        self.pool.persist(self.off, field::TSLOT); // header + pslot lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{init_from_pairs, sorted_pairs, U64Format};
    use nvm::PmemConfig;

    fn pool() -> PmemPool {
        PmemPool::new(PmemConfig::for_testing(1 << 16))
    }

    #[test]
    fn lock_protocol_roundtrip() {
        let p = pool();
        let l = Leaf::at(&p, 1024);
        l.init_empty(u64::MAX, 0);
        l.lock();
        assert!(LeafVersion::locked(p.load_u64(1024)));
        l.unlock(true);
        assert_eq!(LeafVersion::version(p.load_u64(1024)), 1);
        assert_eq!(l.stable_version(true), 1);
    }

    #[test]
    fn split_bit_blocks_stable_version_until_cleared() {
        let p = pool();
        let l = Leaf::at(&p, 1024);
        l.init_empty(u64::MAX, 0);
        l.lock();
        l.set_split();
        // stable_version would spin; just verify the raw state.
        assert!(LeafVersion::splitting(p.load_u64(1024)));
        l.unset_split_bump();
        l.unlock(false);
        assert_eq!(l.stable_version(false), 1);
    }

    #[test]
    fn alloc_entry_is_exhaustible_and_unique() {
        let p = pool();
        let l = Leaf::at(&p, 1024);
        l.init_empty(u64::MAX, 0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..LEAF_CAPACITY {
            assert!(seen.insert(l.alloc_entry().unwrap()));
        }
        assert_eq!(l.alloc_entry(), None);
    }

    #[test]
    fn kv_roundtrip_and_persist() {
        let p = pool();
        let l = Leaf::at(&p, 1024);
        l.init_empty(u64::MAX, 0);
        l.write_kv(3, 77, 770);
        p.persist(1024 + kv_off(3), 16);
        p.simulate_crash();
        assert_eq!(l.read_key(3), 77);
        assert_eq!(l.read_value(3), 770);
    }

    #[test]
    fn slot_seq_roundtrip_and_search() {
        let p = pool();
        let l = Leaf::at(&p, 1024);
        l.init_empty(u64::MAX, 0);
        // keys 10,20,30 at entries 2,0,1
        l.write_kv(2, 10, 1);
        l.write_kv(0, 20, 2);
        l.write_kv(1, 30, 3);
        let mut s = SlotBuf::new();
        s.insert_at(0, 2);
        s.insert_at(1, 0);
        s.insert_at(2, 1);
        l.write_slot_seq(WhichSlot::Persistent, &s);
        let r = l.read_slot_seq(WhichSlot::Persistent);
        assert_eq!(r, s);
        assert_eq!(l.search(&r, 20), Ok(1));
        assert_eq!(l.search(&r, 15), Err(1));
        assert_eq!(l.search(&r, 35), Err(3));
        assert_eq!(l.search(&r, 5), Err(0));
        assert_eq!(sorted_pairs::<U64Format>(l), vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn transactional_slot_update_is_atomic_and_persistable() {
        let p = pool();
        let l = Leaf::at(&p, 1024);
        l.init_empty(u64::MAX, 0);
        let stats = htm::HtmStats::default();
        htm::atomic(&stats, |txn| {
            let mut s = l.read_slot_in(txn, WhichSlot::Persistent)?;
            s.insert_at(0, 7);
            l.write_slot_in(txn, WhichSlot::Persistent, &s)
        });
        // Committed but not flushed: a crash loses it.
        p.simulate_crash();
        assert_eq!(l.read_slot_seq(WhichSlot::Persistent).len(), 0);
        // Again, with the flush.
        htm::atomic(&stats, |txn| {
            let mut s = l.read_slot_in(txn, WhichSlot::Persistent)?;
            s.insert_at(0, 7);
            l.write_slot_in(txn, WhichSlot::Persistent, &s)
        });
        l.persist_pslot();
        p.simulate_crash();
        assert_eq!(l.read_slot_seq(WhichSlot::Persistent).len(), 1);
    }

    #[test]
    fn init_from_pairs_builds_sorted_identity_leaf() {
        let p = pool();
        let l = Leaf::at(&p, 2048);
        let pairs: Vec<(u64, u64)> = (0..10).map(|i| (i * 5 + 5, i)).collect();
        init_from_pairs::<U64Format>(l, &pairs, &0, &999, 4096);
        let s = l.read_slot_seq(WhichSlot::Persistent);
        assert_eq!(s.len(), 10);
        assert_eq!(sorted_pairs::<U64Format>(l), pairs);
        assert_eq!(l.fence(), 999);
        assert_eq!(l.next(), 4096);
        assert_eq!(l.nlogs(), 10);
        // Fully durable.
        p.simulate_crash();
        let s = l.read_slot_seq(WhichSlot::Persistent);
        assert_eq!(s.len(), pairs.len());
        assert_eq!(sorted_pairs::<U64Format>(l), pairs);
    }
}
