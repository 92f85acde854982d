//! FPTree (Oukid et al., SIGMOD'16), the paper's only concurrent
//! comparison system (§6 item 3).
//!
//! Leaf design: **unsorted** slots tracked by a 64-bit occupancy bitmap,
//! plus one-byte key **fingerprints** that cut failed key comparisons
//! during the linear scan. Modify operations cost **three persistent
//! instructions** (entry, fingerprint line, bitmap); `remove` costs one
//! (bitmap only). Because log slots are reused, FPTree *must* behave
//! conditionally — it cannot tolerate two live logs with one key (§6).
//!
//! Concurrency is the paper's *selective concurrency*: traversal runs in a
//! hardware transaction which also **acquires the whole-leaf lock**
//! transactionally; all persistent work — flushes included — then happens
//! under that lock. `find` runs fully inside a transaction and issues an
//! explicit abort (retrying from the root) whenever it observes a locked
//! leaf. These two choices are precisely what the RNTree paper blames for
//! FPTree's collapse under skew (§3.4, §6.3.1): hot leaves stay locked
//! across NVM flush latency, and every lock acquisition knocks down all
//! concurrent finds on that leaf.
//!
//! Emulation note: the software TM versions only words accessed through
//! it, so `find` transactions **re-read the leaf lock word after reading
//! leaf content** — a seqlock-style validation that stands in for real
//! HTM's cache-line conflict tracking of the content lines themselves.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use htm::TmWord;
use index_common::{leaf_ref, Key, OpError, PersistentIndex, TreeStats, Value};
use nvm::PmemPool;

use crate::common::{fingerprint, Substrate};

const MAGIC: u64 = 0x4650_5452_4545_0001; // "FPTREE"

const CAPACITY: usize = 64;
/// header line + fingerprint line + 64 × 16 B entries.
const BLOCK: u64 = 64 + 64 + (CAPACITY as u64) * 16;

const F_LOCK: u64 = 0;
const F_BITMAP: u64 = 8;
const F_NEXT: u64 = 16;
const F_FENCE: u64 = 24;
const F_FP: u64 = 64;
const F_KV: u64 = 128;

/// Explicit-abort code for "leaf is locked, retry from root".
const ABORT_LOCKED: u32 = 0x1F;

/// The FPTree baseline (see module docs). Safe for concurrent use.
pub struct FpTree {
    s: Substrate,
}

#[derive(Clone, Copy)]
struct FpLeaf<'p> {
    pool: &'p PmemPool,
    off: u64,
}

impl<'p> FpLeaf<'p> {
    fn at(pool: &'p PmemPool, off: u64) -> Self {
        FpLeaf { pool, off }
    }

    fn word(&self, field: u64) -> &'p TmWord {
        TmWord::from_atomic(self.pool.atomic_u64(self.off + field))
    }

    fn bitmap(&self) -> u64 {
        self.pool.load_u64(self.off + F_BITMAP)
    }

    /// Publishes a new bitmap conflict-visibly and persists it (one
    /// persistent instruction — FPTree's metadata commit point).
    fn publish_bitmap_persist(&self, bm: u64) {
        self.word(F_BITMAP).store_nontx(bm);
        self.pool.persist(self.off + F_BITMAP, 8);
    }

    fn next(&self) -> u64 {
        self.pool.load_u64(self.off + F_NEXT)
    }

    fn fence(&self) -> u64 {
        self.pool.load_u64(self.off + F_FENCE)
    }

    fn fp_byte(&self, i: usize) -> u8 {
        let w = self.pool.load_u64(self.off + F_FP + (i as u64 / 8) * 8);
        w.to_le_bytes()[i % 8]
    }

    fn set_fp_byte(&self, i: usize, b: u8) {
        let woff = self.off + F_FP + (i as u64 / 8) * 8;
        let mut bytes = self.pool.load_u64(woff).to_le_bytes();
        bytes[i % 8] = b;
        self.pool.store_u64(woff, u64::from_le_bytes(bytes));
    }

    fn persist_fp_line(&self) {
        self.pool.persist(self.off + F_FP, 64);
    }

    fn kv_off(&self, i: usize) -> u64 {
        self.off + F_KV + (i as u64) * 16
    }

    fn read_key(&self, i: usize) -> Key {
        self.pool.load_u64(self.kv_off(i))
    }

    fn read_value(&self, i: usize) -> Value {
        self.pool.load_u64(self.kv_off(i) + 8)
    }

    fn write_kv_persist(&self, i: usize, k: Key, v: Value) {
        self.pool.store_u64(self.kv_off(i), k);
        self.pool.store_u64(self.kv_off(i) + 8, v);
        self.pool.persist(self.kv_off(i), 16);
    }

    /// Linear fingerprint probe under the leaf lock (writer side).
    fn locate(&self, key: Key) -> Option<usize> {
        let bm = self.bitmap();
        let fp = fingerprint(key);
        (0..CAPACITY).find(|&i| bm & (1 << i) != 0 && self.fp_byte(i) == fp && self.read_key(i) == key)
    }

    fn live_pairs_sorted(&self) -> Vec<(Key, Value)> {
        let bm = self.bitmap();
        let mut pairs: Vec<(Key, Value)> = (0..CAPACITY)
            .filter(|i| bm & (1 << i) != 0)
            .map(|i| (self.read_key(i), self.read_value(i)))
            .collect();
        pairs.sort_unstable_by_key(|p| p.0);
        pairs
    }

    fn init_from_pairs(&self, pairs: &[(Key, Value)], fence: u64, next: u64) {
        for (i, &(k, v)) in pairs.iter().enumerate() {
            self.pool.store_u64(self.kv_off(i), k);
            self.pool.store_u64(self.kv_off(i) + 8, v);
            self.set_fp_byte(i, fingerprint(k));
        }
        let bm = if pairs.len() == 64 {
            u64::MAX
        } else {
            (1u64 << pairs.len()) - 1
        };
        self.pool.store_u64(self.off + F_LOCK, 0);
        self.pool.store_u64(self.off + F_BITMAP, bm);
        self.pool.store_u64(self.off + F_NEXT, next);
        self.pool.store_u64(self.off + F_FENCE, fence);
        self.pool.persist(self.off, BLOCK);
    }
}

impl FpTree {
    /// Creates an FPTree. `seq_traversal` selects the single-threaded
    /// benchmark path (no transactions, no locks).
    pub fn create(pool: Arc<PmemPool>, seq_traversal: bool) -> FpTree {
        let s = Substrate::create(pool, BLOCK, MAGIC, seq_traversal);
        FpLeaf::at(&s.pool, s.leftmost).init_from_pairs(&[], u64::MAX, 0);
        FpTree { s }
    }

    /// Recovers an FPTree from a crashed pool. FPTree leaves are fully
    /// persistent (bitmap, fingerprints and KV entries are flushed per
    /// operation; splits are undo-journaled), so recovery is journal replay
    /// plus a chain scan; the only per-leaf scratch is the lock word, which
    /// is cleared — a crashed holder's lock must not outlive it.
    pub fn recover(pool: Arc<PmemPool>, seq_traversal: bool) -> FpTree {
        let s = Substrate::reopen(pool, BLOCK, MAGIC, seq_traversal, |pool, off| {
            pool.store_u64(off + F_LOCK, 0);
            let leaf = FpLeaf::at(pool, off);
            (leaf.live_pairs_sorted().last().map(|p| p.0), leaf.next())
        });
        FpTree { s }
    }

    fn leaf(&self, off: u64) -> FpLeaf<'_> {
        FpLeaf::at(&self.s.pool, off)
    }

    /// Selective concurrency, writer side: one transaction that traverses
    /// *and* acquires the whole-leaf lock. Returns the locked leaf.
    fn traverse_and_lock(&self, key: Key) -> u64 {
        if self.s.seq {
            return self.s.traverse(key);
        }
        self.s.index.domain().atomic(|txn| {
            let off = self.s.index.traverse_in(txn, key)?;
            let lw = FpLeaf::at(&self.s.pool, off).word(F_LOCK);
            let lv = txn.read(lw)?;
            if lv & 1 == 1 {
                return Err(txn.abort(ABORT_LOCKED));
            }
            txn.write(lw, lv | 1)?;
            Ok(off)
        })
    }

    fn unlock(&self, leaf: FpLeaf<'_>) {
        if self.s.seq {
            return;
        }
        let lv = leaf.word(F_LOCK).load_direct();
        debug_assert_eq!(lv & 1, 1);
        leaf.word(F_LOCK).store_nontx(lv & !1);
    }

    fn modify(&self, key: Key, value: Value, mode: Mode) -> Result<(), OpError> {
        loop {
            let leaf = self.leaf(self.traverse_and_lock(key));
            let existing = leaf.locate(key);
            match (mode, existing) {
                (Mode::Insert, Some(_)) => {
                    self.unlock(leaf);
                    return Err(OpError::AlreadyExists);
                }
                (Mode::Update, None) => {
                    self.unlock(leaf);
                    return Err(OpError::NotFound);
                }
                _ => {}
            }
            let bm = leaf.bitmap();
            let free = (!bm).trailing_zeros() as usize;
            if free >= CAPACITY {
                self.split(leaf);
                self.unlock(leaf);
                continue;
            }
            // The three persistent instructions, all inside the critical
            // section (FPTree's decoupled design, §3.4).
            leaf.write_kv_persist(free, key, value);
            leaf.set_fp_byte(free, fingerprint(key));
            leaf.persist_fp_line();
            let new_bm = match existing {
                // Out-of-place update: one atomic bitmap word swaps the
                // old slot out and the new one in.
                Some(old) => (bm & !(1 << old)) | (1 << free),
                None => bm | (1 << free),
            };
            leaf.publish_bitmap_persist(new_bm);
            self.unlock(leaf);
            return Ok(());
        }
    }

    /// Split under the (held) leaf lock.
    fn split(&self, leaf: FpLeaf<'_>) {
        let pairs = leaf.live_pairs_sorted();
        let live = pairs.len();
        let jslot = self.s.journal.acquire(&self.s.pool);
        self.s.journal.log(&self.s.pool, jslot, leaf.off);

        debug_assert!(live > 1, "split of a near-empty FPTree leaf");
        let right_off = self.s.alloc.alloc().expect("FPTree pool exhausted");
        let right = FpLeaf::at(&self.s.pool, right_off);
        let mid = live / 2;
        let sep = pairs[mid - 1].0;
        right.init_from_pairs(&pairs[mid..], leaf.fence(), leaf.next());

        // Rewrite the left half in place (readers are fenced out by the
        // lock-word protocol; the journal covers crashes).
        for (i, &(k, v)) in pairs[..mid].iter().enumerate() {
            self.s.pool.store_u64(leaf.kv_off(i), k);
            self.s.pool.store_u64(leaf.kv_off(i) + 8, v);
            leaf.set_fp_byte(i, fingerprint(k));
        }
        self.s.pool.store_u64(leaf.off + F_FENCE, sep);
        if self.s.seq {
            self.s.pool.store_u64(leaf.off + F_NEXT, right_off);
            self.s.pool.store_u64(leaf.off + F_BITMAP, (1u64 << mid) - 1);
        } else {
            leaf.word(F_NEXT).store_nontx(right_off);
            leaf.word(F_BITMAP).store_nontx((1u64 << mid) - 1);
        }
        self.s.pool.persist(leaf.off, BLOCK);
        self.s.journal.clear(&self.s.pool, jslot);
        self.s.index.tree_update(sep, leaf_ref(right_off));
        self.s.splits.fetch_add(1, Ordering::Relaxed);
    }

    /// Structural check for tests (quiescent).
    pub fn verify_invariants(&self) -> Result<(), String> {
        let mut off = self.s.leftmost;
        let mut last: Option<Key> = None;
        while off != 0 {
            let leaf = self.leaf(off);
            if self.s.pool.load_u64(leaf.off + F_LOCK) & 1 == 1 {
                return Err(format!("leaf {off} left locked"));
            }
            for &(k, _) in leaf.live_pairs_sorted().iter() {
                if let Some(prev) = last {
                    if k <= prev {
                        return Err(format!("leaf {off}: key {k} ≤ previous {prev}"));
                    }
                }
                if k > leaf.fence() {
                    return Err(format!("leaf {off}: key {k} above fence"));
                }
                if leaf.fp_byte(leaf.locate(k).unwrap()) != fingerprint(k) {
                    return Err(format!("leaf {off}: fingerprint mismatch for {k}"));
                }
                last = Some(k);
            }
            off = leaf.next();
        }
        Ok(())
    }

    /// HTM counters (explicit aborts ≈ finds knocked down by leaf locks).
    pub fn htm_stats(&self) -> htm::HtmStatsSnapshot {
        self.s.index.domain().stats().snapshot()
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Insert,
    Update,
    Upsert,
}

impl PersistentIndex for FpTree {
    fn insert(&self, key: Key, value: Value) -> Result<(), OpError> {
        self.modify(key, value, Mode::Insert)
    }

    fn update(&self, key: Key, value: Value) -> Result<(), OpError> {
        self.modify(key, value, Mode::Update)
    }

    fn upsert(&self, key: Key, value: Value) -> Result<(), OpError> {
        self.modify(key, value, Mode::Upsert)
    }

    fn remove(&self, key: Key) -> Result<(), OpError> {
        let leaf = self.leaf(self.traverse_and_lock(key));
        let res = match leaf.locate(key) {
            None => Err(OpError::NotFound),
            Some(i) => {
                // One persistent instruction: clear the bitmap bit.
                leaf.publish_bitmap_persist(leaf.bitmap() & !(1 << i));
                Ok(())
            }
        };
        self.unlock(leaf);
        res
    }

    fn find(&self, key: Key) -> Option<Value> {
        if self.s.seq {
            let leaf = self.leaf(self.s.traverse(key));
            return leaf.locate(key).map(|i| leaf.read_value(i));
        }
        let fp = fingerprint(key);
        self.s.index.domain().atomic(|txn| {
            let off = self.s.index.traverse_in(txn, key)?;
            let leaf = FpLeaf::at(&self.s.pool, off);
            let lw = leaf.word(F_LOCK);
            if txn.read(lw)? & 1 == 1 {
                // Paper §6.3.1: find "will always abort the transaction and
                // traverse from the root again if the leaf is locked".
                return Err(txn.abort(ABORT_LOCKED));
            }
            let bm = txn.read(leaf.word(F_BITMAP))?;
            let mut result = None;
            for i in 0..CAPACITY {
                if bm & (1 << i) != 0 && leaf.fp_byte(i) == fp && leaf.read_key(i) == key {
                    result = Some(leaf.read_value(i));
                    break;
                }
            }
            // Seqlock-style close: if a writer locked the leaf after our
            // first lock read, this re-read conflicts and aborts us.
            let _ = txn.read(lw)?;
            Ok(result)
        })
    }

    fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        out.clear();
        if n == 0 {
            return 0;
        }
        let mut off = if self.s.seq {
            self.s.traverse(start)
        } else {
            self.s.index.traverse_tm(start)
        };
        while off != 0 {
            let leaf = self.leaf(off);
            // Snapshot the leaf (transactionally when concurrent), then
            // sort — the unsorted-leaf tax of Figure 6.
            let (pairs, next) = if self.s.seq {
                (leaf.live_pairs_sorted(), leaf.next())
            } else {
                self.s.index.domain().atomic(|txn| {
                    let lw = leaf.word(F_LOCK);
                    if txn.read(lw)? & 1 == 1 {
                        return Err(txn.abort(ABORT_LOCKED));
                    }
                    let bm = txn.read(leaf.word(F_BITMAP))?;
                    let mut pairs: Vec<(Key, Value)> = (0..CAPACITY)
                        .filter(|i| bm & (1 << i) != 0)
                        .map(|i| (leaf.read_key(i), leaf.read_value(i)))
                        .collect();
                    let next = txn.read(leaf.word(F_NEXT))?;
                    let _ = txn.read(lw)?;
                    pairs.sort_unstable_by_key(|p| p.0);
                    Ok((pairs, next))
                })
            };
            for (k, v) in pairs {
                if k < start {
                    continue;
                }
                out.push((k, v));
                if out.len() == n {
                    return n;
                }
            }
            off = next;
        }
        out.len()
    }

    fn name(&self) -> &'static str {
        "FPTree"
    }

    fn supports_concurrency(&self) -> bool {
        !self.s.seq
    }

    fn htm_abort_ratio(&self) -> Option<f64> {
        Some(self.htm_stats().abort_ratio())
    }

    fn stats(&self) -> TreeStats {
        let mut leaves = 0;
        let mut entries = 0;
        let mut off = self.s.leftmost;
        while off != 0 {
            let leaf = self.leaf(off);
            leaves += 1;
            entries += leaf.bitmap().count_ones() as u64;
            off = leaf.next();
        }
        TreeStats {
            leaves,
            entries,
            splits: self.s.splits.load(Ordering::Relaxed),
            ..TreeStats::default()
        }
    }
}

impl obs::ObsSource for FpTree {
    /// The shared baseline sections plus FPTree's HTM abort taxonomy
    /// and retries-to-commit distribution (it is the only baseline with
    /// an HTM domain of its own).
    fn obs_sections(&self) -> Vec<(String, obs::Section)> {
        let mut out = crate::common::substrate_sections(self, &self.s);
        out.push(("htm".to_string(), obs::Section::Counters(self.htm_stats().counters())));
        out.push((
            "htm_retries".to_string(),
            obs::Section::Latencies(vec![(
                "retries_to_commit".to_string(),
                self.s.index.domain().stats().retries_to_commit(),
            )]),
        ));
        out
    }
}

impl index_common::RecoverableIndex for FpTree {
    /// `seq_traversal`: single-threaded benchmark mode.
    type Config = bool;

    fn create(pool: Arc<PmemPool>, seq_traversal: bool) -> Self {
        FpTree::create(pool, seq_traversal)
    }

    fn recover(pool: Arc<PmemPool>, seq_traversal: bool) -> Self {
        FpTree::recover(pool, seq_traversal)
    }
}

impl std::fmt::Debug for FpTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FpTree").field("seq", &self.s.seq).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::PmemConfig;

    fn tree() -> FpTree {
        let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 24)));
        FpTree::create(pool, false)
    }

    #[test]
    fn roundtrip_with_splits() {
        let t = tree();
        for k in (1..=500u64).rev() {
            t.insert(k, k * 3).unwrap();
        }
        for k in 1..=500u64 {
            assert_eq!(t.find(k), Some(k * 3), "key {k}");
        }
        assert_eq!(t.find(0), None);
        assert!(t.stats().splits > 0);
        t.verify_invariants().unwrap();
    }

    #[test]
    fn conditional_is_inherent() {
        let t = tree();
        t.insert(5, 1).unwrap();
        assert_eq!(t.insert(5, 2), Err(OpError::AlreadyExists));
        assert_eq!(t.update(6, 1), Err(OpError::NotFound));
        t.update(5, 9).unwrap();
        assert_eq!(t.find(5), Some(9));
        assert_eq!(t.remove(6), Err(OpError::NotFound));
        t.remove(5).unwrap();
        assert_eq!(t.find(5), None);
    }

    #[test]
    fn insert_costs_three_persists_remove_one() {
        let t = tree();
        for k in 1..=10u64 {
            t.insert(k, k).unwrap();
        }
        let before = t.s.pool.stats().snapshot();
        t.insert(100, 1).unwrap();
        let d = t.s.pool.stats().snapshot().since(&before);
        assert_eq!(d.persists, 3, "FPTree insert = entry + fp + bitmap");
        let before = t.s.pool.stats().snapshot();
        t.remove(100).unwrap();
        let d = t.s.pool.stats().snapshot().since(&before);
        assert_eq!(d.persists, 1, "FPTree remove = bitmap only");
    }

    #[test]
    fn update_reuses_slots() {
        let t = tree();
        for k in 1..=4u64 {
            t.insert(k, 0).unwrap();
        }
        // Far more updates than capacity: slots must recycle without split.
        for round in 1..=100u64 {
            for k in 1..=4u64 {
                t.update(k, round).unwrap();
            }
        }
        for k in 1..=4u64 {
            assert_eq!(t.find(k), Some(100));
        }
        assert_eq!(t.stats().splits, 0, "updates must reuse freed slots");
        t.verify_invariants().unwrap();
    }

    #[test]
    fn concurrent_mixed_workload_is_linearizable_enough() {
        let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 26)));
        let t = Arc::new(FpTree::create(pool, false));
        let threads = 4;
        let per = 2_000u64;
        let mut handles = Vec::new();
        for tid in 0..threads {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    let k = tid * per + i + 1;
                    t.insert(k, k).unwrap();
                    if i % 2 == 0 {
                        t.update(k, k + 1).unwrap();
                    }
                    if i % 3 == 0 {
                        assert!(t.find(k).is_some());
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for tid in 0..threads {
            for i in 0..per {
                let k = tid * per + i + 1;
                let want = if i % 2 == 0 { k + 1 } else { k };
                assert_eq!(t.find(k), Some(want), "key {k}");
            }
        }
        t.verify_invariants().unwrap();
        // Locked-leaf aborts should have occurred under contention.
        let s = t.htm_stats();
        assert!(s.commits > 0);
    }

    #[test]
    fn scan_sorts_each_leaf() {
        let t = tree();
        for k in [9u64, 3, 7, 1, 5, 8, 2, 6, 4, 10] {
            t.insert(k * 10, k).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(t.scan_n(25, 4, &mut out), 4);
        assert_eq!(out.iter().map(|p| p.0).collect::<Vec<_>>(), vec![30, 40, 50, 60]);
    }

    #[test]
    fn seq_mode_matches_concurrent_mode() {
        let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 24)));
        let t = FpTree::create(pool, true);
        for k in 1..=300u64 {
            t.insert(k, k).unwrap();
        }
        for k in 1..=300u64 {
            assert_eq!(t.find(k), Some(k));
        }
        let mut out = Vec::new();
        assert_eq!(t.scan_n(100, 50, &mut out), 50);
        t.verify_invariants().unwrap();
    }
}
