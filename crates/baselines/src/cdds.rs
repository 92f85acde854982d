//! CDDS B-Tree (Venkataraman et al., FAST'11) — the Table 1 row with
//! `L*` persistent writes per modification.
//!
//! CDDS keeps leaf entries **sorted in place**, so an insertion shifts on
//! average half the node and every shifted slot must be persisted in
//! order: the write-amplification problem (§3.2) that motivates both the
//! append-only camp and RNTree's slot array. We implement exactly that
//! cost model — per-shift persistence over a sorted array — rather than
//! the full multi-version machinery (version ranges per entry), which the
//! paper's evaluation also leaves aside (CDDS appears only in Table 1).
//! Consequently, mid-shift crash atomicity is out of scope here; splits
//! remain journal-protected like every other tree.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use index_common::{leaf_ref, Key, OpError, PersistentIndex, TreeStats, Value};
use nvm::PmemPool;

use crate::common::Substrate;

const MAGIC: u64 = 0x4344_4453_5452_0001; // "CDDSTR"

const CAPACITY: usize = 64;
/// header line + 64 × 16 B sorted entries.
const BLOCK: u64 = 64 + (CAPACITY as u64) * 16;

const F_COUNT: u64 = 0;
const F_NEXT: u64 = 8;
const F_FENCE: u64 = 16;
const F_KV: u64 = 64;

/// The CDDS B-Tree baseline (see module docs). Not safe for concurrent
/// mutation.
pub struct CddsTree {
    s: Substrate,
}

struct CdLeaf<'p> {
    pool: &'p PmemPool,
    off: u64,
}

impl<'p> CdLeaf<'p> {
    fn at(pool: &'p PmemPool, off: u64) -> Self {
        CdLeaf { pool, off }
    }

    fn count(&self) -> usize {
        self.pool.load_u64(self.off + F_COUNT) as usize
    }

    fn set_count_persist(&self, n: usize) {
        self.pool.store_u64(self.off + F_COUNT, n as u64);
        self.pool.persist(self.off + F_COUNT, 8);
    }

    fn next(&self) -> u64 {
        self.pool.load_u64(self.off + F_NEXT)
    }

    fn fence(&self) -> u64 {
        self.pool.load_u64(self.off + F_FENCE)
    }

    fn kv_off(&self, i: usize) -> u64 {
        self.off + F_KV + (i as u64) * 16
    }

    fn key(&self, i: usize) -> Key {
        self.pool.load_u64(self.kv_off(i))
    }

    fn value(&self, i: usize) -> Value {
        self.pool.load_u64(self.kv_off(i) + 8)
    }

    fn write_entry_persist(&self, i: usize, k: Key, v: Value) {
        self.pool.store_u64(self.kv_off(i), k);
        self.pool.store_u64(self.kv_off(i) + 8, v);
        self.pool.persist(self.kv_off(i), 16);
    }

    fn search(&self, key: Key) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0usize, self.count());
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.key(mid).cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    fn pairs(&self) -> Vec<(Key, Value)> {
        (0..self.count()).map(|i| (self.key(i), self.value(i))).collect()
    }

    fn init_from_pairs(&self, pairs: &[(Key, Value)], fence: u64, next: u64) {
        for (i, &(k, v)) in pairs.iter().enumerate() {
            self.pool.store_u64(self.kv_off(i), k);
            self.pool.store_u64(self.kv_off(i) + 8, v);
        }
        self.pool.store_u64(self.off + F_COUNT, pairs.len() as u64);
        self.pool.store_u64(self.off + F_NEXT, next);
        self.pool.store_u64(self.off + F_FENCE, fence);
        self.pool.persist(self.off, BLOCK);
    }
}

impl CddsTree {
    /// Creates a CDDS B-Tree.
    pub fn create(pool: Arc<PmemPool>, seq_traversal: bool) -> CddsTree {
        let s = Substrate::create(pool, BLOCK, MAGIC, seq_traversal);
        CdLeaf::at(&s.pool, s.leftmost).init_from_pairs(&[], u64::MAX, 0);
        CddsTree { s }
    }

    /// Recovers a CDDS B-Tree from a crashed pool: journal replay (splits)
    /// plus a chain scan. Leaves are sorted arrays with a persisted count
    /// and no volatile scratch, so the per-leaf work is reading the last
    /// entry's key.
    pub fn recover(pool: Arc<PmemPool>, seq_traversal: bool) -> CddsTree {
        let s = Substrate::reopen(pool, BLOCK, MAGIC, seq_traversal, |pool, off| {
            let leaf = CdLeaf::at(pool, off);
            let n = leaf.count();
            ((n > 0).then(|| leaf.key(n - 1)), leaf.next())
        });
        CddsTree { s }
    }

    fn leaf(&self, off: u64) -> CdLeaf<'_> {
        CdLeaf::at(&self.s.pool, off)
    }

    fn insert_at(&self, leaf: &CdLeaf<'_>, pos: usize, key: Key, value: Value) {
        let n = leaf.count();
        // Shift right, persisting every moved entry in order — the
        // write-amplified cost this baseline exists to demonstrate.
        for i in (pos..n).rev() {
            let (k, v) = (leaf.key(i), leaf.value(i));
            leaf.write_entry_persist(i + 1, k, v);
        }
        leaf.write_entry_persist(pos, key, value);
        leaf.set_count_persist(n + 1);
    }

    fn split(&self, leaf: &CdLeaf<'_>) {
        let pairs = leaf.pairs();
        let live = pairs.len();
        let jslot = self.s.journal.acquire(&self.s.pool);
        self.s.journal.log(&self.s.pool, jslot, leaf.off);
        let right_off = self.s.alloc.alloc().expect("CDDS pool exhausted");
        let right = CdLeaf::at(&self.s.pool, right_off);
        let mid = live / 2;
        let sep = pairs[mid - 1].0;
        right.init_from_pairs(&pairs[mid..], leaf.fence(), leaf.next());
        leaf.init_from_pairs(&pairs[..mid], sep, right_off);
        self.s.journal.clear(&self.s.pool, jslot);
        self.s.index.tree_update(sep, leaf_ref(right_off));
        self.s.splits.fetch_add(1, Ordering::Relaxed);
    }

    /// Structural check for tests.
    pub fn verify_invariants(&self) -> Result<(), String> {
        let mut off = self.s.leftmost;
        let mut last: Option<Key> = None;
        while off != 0 {
            let leaf = self.leaf(off);
            for &(k, _) in leaf.pairs().iter() {
                if let Some(prev) = last {
                    if k <= prev {
                        return Err(format!("leaf {off}: key {k} ≤ previous {prev}"));
                    }
                }
                if k > leaf.fence() {
                    return Err(format!("leaf {off}: key {k} above fence"));
                }
                last = Some(k);
            }
            off = leaf.next();
        }
        Ok(())
    }
}

impl PersistentIndex for CddsTree {
    fn insert(&self, key: Key, value: Value) -> Result<(), OpError> {
        loop {
            let leaf = self.leaf(self.s.traverse(key));
            match leaf.search(key) {
                Ok(_) => return Err(OpError::AlreadyExists),
                Err(pos) => {
                    if leaf.count() == CAPACITY {
                        self.split(&leaf);
                        continue;
                    }
                    self.insert_at(&leaf, pos, key, value);
                    return Ok(());
                }
            }
        }
    }

    fn update(&self, key: Key, value: Value) -> Result<(), OpError> {
        let leaf = self.leaf(self.s.traverse(key));
        match leaf.search(key) {
            Err(_) => Err(OpError::NotFound),
            Ok(pos) => {
                leaf.write_entry_persist(pos, key, value);
                Ok(())
            }
        }
    }

    fn upsert(&self, key: Key, value: Value) -> Result<(), OpError> {
        match self.update(key, value) {
            Err(OpError::NotFound) => self.insert(key, value),
            r => r,
        }
    }

    fn remove(&self, key: Key) -> Result<(), OpError> {
        let leaf = self.leaf(self.s.traverse(key));
        match leaf.search(key) {
            Err(_) => Err(OpError::NotFound),
            Ok(pos) => {
                let n = leaf.count();
                // Shift left with per-entry persistence.
                for i in pos..n - 1 {
                    let (k, v) = (leaf.key(i + 1), leaf.value(i + 1));
                    leaf.write_entry_persist(i, k, v);
                }
                leaf.set_count_persist(n - 1);
                Ok(())
            }
        }
    }

    fn find(&self, key: Key) -> Option<Value> {
        let leaf = self.leaf(self.s.traverse(key));
        leaf.search(key).ok().map(|pos| leaf.value(pos))
    }

    fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        out.clear();
        if n == 0 {
            return 0;
        }
        let mut off = self.s.traverse(start);
        while off != 0 {
            let leaf = self.leaf(off);
            let from = match leaf.search(start) {
                Ok(p) | Err(p) => p,
            };
            for i in from..leaf.count() {
                out.push((leaf.key(i), leaf.value(i)));
                if out.len() == n {
                    return n;
                }
            }
            off = leaf.next();
        }
        out.len()
    }

    fn name(&self) -> &'static str {
        "CDDS"
    }

    fn stats(&self) -> TreeStats {
        let mut leaves = 0;
        let mut entries = 0;
        let mut off = self.s.leftmost;
        while off != 0 {
            let leaf = self.leaf(off);
            leaves += 1;
            entries += leaf.count() as u64;
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

impl obs::ObsSource for CddsTree {
    /// The shared baseline sections (`tree`, `pmem`, `events`).
    fn obs_sections(&self) -> Vec<(String, obs::Section)> {
        crate::common::substrate_sections(self, &self.s)
    }
}

impl index_common::RecoverableIndex for CddsTree {
    /// `seq_traversal`: single-threaded benchmark mode.
    type Config = bool;

    fn create(pool: Arc<PmemPool>, seq_traversal: bool) -> Self {
        CddsTree::create(pool, seq_traversal)
    }

    fn recover(pool: Arc<PmemPool>, seq_traversal: bool) -> Self {
        CddsTree::recover(pool, seq_traversal)
    }
}

impl std::fmt::Debug for CddsTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CddsTree").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::PmemConfig;

    fn tree() -> CddsTree {
        let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 24)));
        CddsTree::create(pool, false)
    }

    #[test]
    fn sorted_roundtrip_with_splits() {
        let t = tree();
        for k in (1..=400u64).rev() {
            t.insert(k, k).unwrap();
        }
        for k in 1..=400u64 {
            assert_eq!(t.find(k), Some(k));
        }
        assert!(t.stats().splits > 0);
        t.verify_invariants().unwrap();
    }

    #[test]
    fn conditional_semantics() {
        let t = tree();
        t.insert(5, 1).unwrap();
        assert_eq!(t.insert(5, 2), Err(OpError::AlreadyExists));
        assert_eq!(t.update(6, 1), Err(OpError::NotFound));
        t.update(5, 9).unwrap();
        assert_eq!(t.find(5), Some(9));
        t.remove(5).unwrap();
        assert_eq!(t.remove(5), Err(OpError::NotFound));
    }

    #[test]
    fn insert_persists_scale_with_shift_distance() {
        let t = tree();
        // Fill one leaf with keys 10..10*n; inserting key 5 (front) shifts
        // everything; inserting at the back shifts nothing.
        for k in 1..=20u64 {
            t.insert(k * 10, k).unwrap();
        }
        let before = t.s.pool.stats().snapshot();
        t.insert(5, 0).unwrap(); // front: 20 shifts + entry + count
        let front = t.s.pool.stats().snapshot().since(&before).persists;
        let before = t.s.pool.stats().snapshot();
        t.insert(1000, 0).unwrap(); // back: entry + count only
        let back = t.s.pool.stats().snapshot().since(&before).persists;
        assert_eq!(back, 2);
        assert_eq!(front, 22, "front insert must persist every shifted slot");
    }

    #[test]
    fn update_is_cheap_in_place() {
        let t = tree();
        t.insert(1, 1).unwrap();
        let before = t.s.pool.stats().snapshot();
        t.update(1, 2).unwrap();
        assert_eq!(t.s.pool.stats().snapshot().since(&before).persists, 1);
    }

    #[test]
    fn scan_is_naturally_sorted() {
        let t = tree();
        for k in [50u64, 10, 40, 20, 30] {
            t.insert(k, k).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(t.scan_n(15, 3, &mut out), 3);
        assert_eq!(out.iter().map(|p| p.0).collect::<Vec<_>>(), vec![20, 30, 40]);
    }

    #[test]
    fn remove_shifts_and_keeps_order() {
        let t = tree();
        for k in 1..=100u64 {
            t.insert(k, k).unwrap();
        }
        for k in (1..=100u64).step_by(3) {
            t.remove(k).unwrap();
        }
        for k in 1..=100u64 {
            assert_eq!(t.find(k), ((k - 1) % 3 != 0).then_some(k));
        }
        t.verify_invariants().unwrap();
    }
}
