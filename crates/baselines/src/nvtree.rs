//! NVTree (Yang et al., FAST'15), as re-implemented for the RNTree
//! evaluation (§6 item 1).
//!
//! Leaf design: **append-only, unsorted**. Every modify appends a log
//! entry (insert or delete flavour) and bumps the persistent `nElement`
//! counter — exactly **two persistent instructions**, the fewest possible
//! for a sorted-or-not leaf. The price:
//!
//! * `find` scans the log area (back to front, so the newest entry for a
//!   key wins — this is the paper's optimised update that appends a single
//!   insert log instead of a delete+insert pair);
//! * range queries must **sort every visited leaf** (Figure 6's 4.2× gap);
//! * conditional writes must scan for key existence first (Figure 5's
//!   ~19% overhead), switchable via [`NvTree::new_conditional`].
//!
//! Per the paper we drop NVTree's original static internal-node array in
//! favour of the shared volatile index. Single-threaded, like the
//! original.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use index_common::{leaf_ref, Key, OpError, PersistentIndex, TreeStats, Value};
use nvm::PmemPool;

use crate::common::Substrate;

const MAGIC: u64 = 0x4E56_5452_4545_0001; // "NVTREE"

/// Log entries per leaf.
const CAPACITY: usize = 64;
/// Leaf block: one header line + 64 × 32 B log entries.
const BLOCK: u64 = 64 + (CAPACITY as u64) * 32;

const F_NELEMS: u64 = 0;
const F_NEXT: u64 = 8;
const F_FENCE: u64 = 16;
const F_LOGS: u64 = 64;

const FLAG_INSERT: u64 = 1;
const FLAG_DELETE: u64 = 2;

#[inline]
fn log_off(i: usize) -> u64 {
    F_LOGS + (i as u64) * 32
}

/// The NVTree baseline. See module docs. Not safe for concurrent mutation.
pub struct NvTree {
    s: Substrate,
    conditional: bool,
}

struct NvLeaf<'p> {
    pool: &'p PmemPool,
    off: u64,
}

impl<'p> NvLeaf<'p> {
    fn at(pool: &'p PmemPool, off: u64) -> Self {
        NvLeaf { pool, off }
    }

    fn nelems(&self) -> u64 {
        self.pool.load_u64(self.off + F_NELEMS)
    }

    fn set_nelems_persist(&self, v: u64) {
        self.pool.store_u64(self.off + F_NELEMS, v);
        self.pool.persist(self.off + F_NELEMS, 8);
    }

    fn next(&self) -> u64 {
        self.pool.load_u64(self.off + F_NEXT)
    }

    fn set_next(&self, v: u64) {
        self.pool.store_u64(self.off + F_NEXT, v);
    }

    fn fence(&self) -> u64 {
        self.pool.load_u64(self.off + F_FENCE)
    }

    fn set_fence(&self, v: u64) {
        self.pool.store_u64(self.off + F_FENCE, v);
    }

    fn entry(&self, i: usize) -> (u64, Key, Value) {
        let base = self.off + log_off(i);
        (
            self.pool.load_u64(base),
            self.pool.load_u64(base + 8),
            self.pool.load_u64(base + 16),
        )
    }

    fn write_entry(&self, i: usize, flag: u64, key: Key, value: Value) {
        let base = self.off + log_off(i);
        self.pool.store_u64(base, flag);
        self.pool.store_u64(base + 8, key);
        self.pool.store_u64(base + 16, value);
    }

    fn persist_entry(&self, i: usize) {
        self.pool.persist(self.off + log_off(i), 32);
    }

    /// Back-to-front scan: newest verdict for `key` within `n` entries.
    fn lookup(&self, key: Key, n: u64) -> Option<Option<Value>> {
        for i in (0..n as usize).rev() {
            let (flag, k, v) = self.entry(i);
            if k == key {
                return Some((flag == FLAG_INSERT).then_some(v));
            }
        }
        None
    }

    /// Live pairs in key order: collect, sort (the paper uses the C++
    /// standard sort here), and deduplicate keeping the newest log entry.
    fn live_pairs(&self) -> Vec<(Key, Value)> {
        let n = self.nelems() as usize;
        let mut logs: Vec<(Key, usize, u64, Value)> = (0..n)
            .map(|i| {
                let (flag, k, v) = self.entry(i);
                (k, i, flag, v)
            })
            .collect();
        logs.sort_unstable_by_key(|&(k, i, _, _)| (k, std::cmp::Reverse(i)));
        let mut out = Vec::with_capacity(logs.len());
        let mut last_key = None;
        for (k, _, flag, v) in logs {
            if last_key == Some(k) {
                continue; // older log for the same key
            }
            last_key = Some(k);
            if flag == FLAG_INSERT {
                out.push((k, v));
            }
        }
        out
    }

    fn init_from_pairs(&self, pairs: &[(Key, Value)], fence: u64, next: u64) {
        for (i, &(k, v)) in pairs.iter().enumerate() {
            self.write_entry(i, FLAG_INSERT, k, v);
        }
        self.pool.store_u64(self.off + F_NELEMS, pairs.len() as u64);
        self.set_next(next);
        self.set_fence(fence);
        self.pool.persist(self.off, BLOCK);
    }
}

impl NvTree {
    /// Creates an NVTree without conditional-write support (the original
    /// behaviour: `insert` acts as upsert, `remove` appends blindly).
    pub fn create(pool: Arc<PmemPool>, seq_traversal: bool) -> NvTree {
        Self::build(pool, seq_traversal, false)
    }

    /// Creates an NVTree with conditional writes (Figure 5's variant):
    /// every modify first scans the leaf for key existence.
    pub fn new_conditional(pool: Arc<PmemPool>, seq_traversal: bool) -> NvTree {
        Self::build(pool, seq_traversal, true)
    }

    fn build(pool: Arc<PmemPool>, seq: bool, conditional: bool) -> NvTree {
        let s = Substrate::create(pool, BLOCK, MAGIC, seq);
        NvLeaf::at(&s.pool, s.leftmost).init_from_pairs(&[], u64::MAX, 0);
        NvTree { s, conditional }
    }

    /// Recovers an NVTree from a crashed pool. The append-only log leaves
    /// persist `nelems` with every appended entry and splits are
    /// undo-journaled, so recovery is journal replay plus a chain scan —
    /// the log-structured entries need no scratch reset at all (obsolete
    /// log records are skipped by `live_pairs`, exactly as during normal
    /// reads).
    pub fn recover(pool: Arc<PmemPool>, seq_traversal: bool, conditional: bool) -> NvTree {
        let s = Substrate::reopen(pool, BLOCK, MAGIC, seq_traversal, |pool, off| {
            let leaf = NvLeaf::at(pool, off);
            (leaf.live_pairs().last().map(|p| p.0), leaf.next())
        });
        NvTree { s, conditional }
    }

    /// Whether conditional-write mode is on.
    pub fn is_conditional(&self) -> bool {
        self.conditional
    }

    fn append(&self, key: Key, value: Value, flag: u64, mode: Mode) -> Result<(), OpError> {
        loop {
            let leaf = NvLeaf::at(&self.s.pool, self.s.traverse(key));
            let n = leaf.nelems();

            if self.conditional {
                // Figure 5's overhead: scan all logs to check existence.
                let live = leaf.lookup(key, n).flatten().is_some();
                match mode {
                    Mode::Insert if live => return Err(OpError::AlreadyExists),
                    Mode::Update if !live => return Err(OpError::NotFound),
                    Mode::Remove if !live => return Err(OpError::NotFound),
                    _ => {}
                }
            }

            if n as usize == CAPACITY {
                self.split(&leaf);
                continue;
            }

            // The two persistent instructions: the entry, then the counter.
            leaf.write_entry(n as usize, flag, key, value);
            leaf.persist_entry(n as usize);
            leaf.set_nelems_persist(n + 1);
            return Ok(());
        }
    }

    /// Split (or compact) a full leaf: gather live pairs, then rewrite.
    fn split(&self, leaf: &NvLeaf<'_>) {
        let pairs = leaf.live_pairs();
        let live = pairs.len();
        let jslot = self.s.journal.acquire(&self.s.pool);
        self.s.journal.log(&self.s.pool, jslot, leaf.off);

        if live < CAPACITY / 2 {
            // Mostly obsolete: compact in place.
            leaf.init_from_pairs(&pairs, leaf.fence(), leaf.next());
            self.s.journal.clear(&self.s.pool, jslot);
            self.s.compactions.fetch_add(1, Ordering::Relaxed);
            return;
        }

        let right_off = self.s.alloc.alloc().expect("NVTree pool exhausted");
        let right = NvLeaf::at(&self.s.pool, right_off);
        let mid = live / 2;
        let sep = pairs[mid - 1].0;
        right.init_from_pairs(&pairs[mid..], leaf.fence(), leaf.next());
        // Rewrite the left half in place (journal-protected).
        let left_fence = sep;
        leaf.init_from_pairs(&pairs[..mid], left_fence, right_off);
        self.s.journal.clear(&self.s.pool, jslot);
        self.s.index.tree_update(sep, leaf_ref(right_off));
        self.s.splits.fetch_add(1, Ordering::Relaxed);
    }

    /// Walks the chain checking structural invariants (tests).
    pub fn verify_invariants(&self) -> Result<(), String> {
        let mut off = self.s.leftmost;
        let mut last: Option<Key> = None;
        while off != 0 {
            let leaf = NvLeaf::at(&self.s.pool, off);
            let pairs = leaf.live_pairs();
            for &(k, _) in &pairs {
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

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Insert,
    Update,
    Upsert,
    Remove,
}

impl PersistentIndex for NvTree {
    fn insert(&self, key: Key, value: Value) -> Result<(), OpError> {
        self.append(key, value, FLAG_INSERT, Mode::Insert)
    }

    fn update(&self, key: Key, value: Value) -> Result<(), OpError> {
        self.append(key, value, FLAG_INSERT, Mode::Update)
    }

    fn upsert(&self, key: Key, value: Value) -> Result<(), OpError> {
        self.append(key, value, FLAG_INSERT, Mode::Upsert)
    }

    fn remove(&self, key: Key) -> Result<(), OpError> {
        self.append(key, 0, FLAG_DELETE, Mode::Remove)
    }

    fn find(&self, key: Key) -> Option<Value> {
        let leaf = NvLeaf::at(&self.s.pool, self.s.traverse(key));
        leaf.lookup(key, leaf.nelems()).flatten()
    }

    fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        out.clear();
        if n == 0 {
            return 0;
        }
        let mut off = self.s.traverse(start);
        while off != 0 {
            let leaf = NvLeaf::at(&self.s.pool, off);
            // The unsorted-leaf tax: sort each visited leaf (§5.2.4 — the
            // paper uses the C++ standard sort; live_pairs sorts via BTree).
            for (k, v) in leaf.live_pairs() {
                if k < start {
                    continue;
                }
                out.push((k, v));
                if out.len() == n {
                    return n;
                }
            }
            off = leaf.next();
        }
        out.len()
    }

    fn name(&self) -> &'static str {
        if self.conditional {
            "NVTree(cond)"
        } else {
            "NVTree"
        }
    }

    fn stats(&self) -> TreeStats {
        let mut leaves = 0;
        let mut entries = 0;
        let mut off = self.s.leftmost;
        while off != 0 {
            let leaf = NvLeaf::at(&self.s.pool, off);
            leaves += 1;
            entries += leaf.live_pairs().len() as u64;
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

impl obs::ObsSource for NvTree {
    /// The shared baseline sections (`tree`, `pmem`, `events`).
    fn obs_sections(&self) -> Vec<(String, obs::Section)> {
        crate::common::substrate_sections(self, &self.s)
    }
}

impl index_common::RecoverableIndex for NvTree {
    /// `(seq_traversal, conditional)`: single-threaded benchmark mode and
    /// conditional-write support (Figure 5's variant).
    type Config = (bool, bool);

    fn create(pool: Arc<PmemPool>, (seq, conditional): (bool, bool)) -> Self {
        if conditional {
            NvTree::new_conditional(pool, seq)
        } else {
            NvTree::create(pool, seq)
        }
    }

    fn recover(pool: Arc<PmemPool>, (seq, conditional): (bool, bool)) -> Self {
        NvTree::recover(pool, seq, conditional)
    }
}

// SAFETY in the trivial sense: the type contains only Sync parts. Mutating
// concurrently is a documented contract violation (single-threaded tree).
unsafe impl Sync for NvTree {}

impl std::fmt::Debug for NvTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvTree")
            .field("conditional", &self.conditional)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::PmemConfig;

    fn tree() -> NvTree {
        let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 24)));
        NvTree::create(pool, false)
    }

    fn cond_tree() -> NvTree {
        let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 24)));
        NvTree::new_conditional(pool, false)
    }

    #[test]
    fn insert_find_roundtrip_with_splits() {
        let t = tree();
        for k in (1..=500u64).rev() {
            t.insert(k, k * 2).unwrap();
        }
        for k in 1..=500u64 {
            assert_eq!(t.find(k), Some(k * 2));
        }
        assert_eq!(t.find(0), None);
        assert!(t.stats().splits > 0);
        t.verify_invariants().unwrap();
    }

    #[test]
    fn newest_log_wins() {
        let t = tree();
        t.insert(7, 1).unwrap();
        t.upsert(7, 2).unwrap();
        t.upsert(7, 3).unwrap();
        assert_eq!(t.find(7), Some(3));
        t.remove(7).unwrap();
        assert_eq!(t.find(7), None);
        t.upsert(7, 4).unwrap();
        assert_eq!(t.find(7), Some(4));
    }

    #[test]
    fn nonconditional_insert_acts_as_upsert() {
        let t = tree();
        t.insert(5, 1).unwrap();
        t.insert(5, 2).unwrap(); // no duplicate check
        assert_eq!(t.find(5), Some(2));
        // Blind remove of a missing key is accepted.
        t.remove(99).unwrap();
        assert_eq!(t.find(99), None);
    }

    #[test]
    fn conditional_mode_enforces_semantics() {
        let t = cond_tree();
        t.insert(5, 1).unwrap();
        assert_eq!(t.insert(5, 2), Err(OpError::AlreadyExists));
        assert_eq!(t.update(6, 1), Err(OpError::NotFound));
        assert_eq!(t.remove(6), Err(OpError::NotFound));
        t.update(5, 9).unwrap();
        assert_eq!(t.find(5), Some(9));
        t.remove(5).unwrap();
        assert_eq!(t.find(5), None);
    }

    #[test]
    fn exactly_two_persists_per_insert() {
        let t = tree();
        // Warm below capacity so no split runs during the measured insert.
        for k in 1..=10u64 {
            t.insert(k, k).unwrap();
        }
        let before = t.s.pool.stats().snapshot();
        t.insert(100, 100).unwrap();
        let d = t.s.pool.stats().snapshot().since(&before);
        assert_eq!(d.persists, 2, "NVTree insert must cost 2 persists");
    }

    #[test]
    fn update_churn_compacts() {
        let t = tree();
        for k in 1..=8u64 {
            t.insert(k, 0).unwrap();
        }
        for round in 1..=50u64 {
            for k in 1..=8u64 {
                t.upsert(k, round).unwrap();
            }
        }
        for k in 1..=8u64 {
            assert_eq!(t.find(k), Some(50));
        }
        assert!(t.s.compactions.load(Ordering::Relaxed) > 0);
        t.verify_invariants().unwrap();
    }

    #[test]
    fn scan_sorts_unsorted_leaves() {
        let t = tree();
        // Insert in shuffled order.
        let mut keys: Vec<u64> = (1..=200).map(|i| i * 3).collect();
        keys.reverse();
        for k in keys {
            t.insert(k, k).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(t.scan_n(10, 20, &mut out), 20);
        let ks: Vec<u64> = out.iter().map(|p| p.0).collect();
        let mut sorted = ks.clone();
        sorted.sort_unstable();
        assert_eq!(ks, sorted);
        assert_eq!(ks[0], 12);
    }

    #[test]
    fn deleted_keys_stay_deleted_across_split() {
        let t = tree();
        for k in 1..=100u64 {
            t.insert(k, k).unwrap();
        }
        for k in (1..=100u64).step_by(2) {
            t.remove(k).unwrap();
        }
        // Force splits by more inserts.
        for k in 101..=300u64 {
            t.insert(k, k).unwrap();
        }
        for k in (1..=100u64).step_by(2) {
            assert_eq!(t.find(k), None, "key {k} resurrected");
        }
        t.verify_invariants().unwrap();
    }
}
