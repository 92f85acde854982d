//! wB+Tree (Chen & Jin, VLDB'15), in the two sizes the RNTree paper
//! evaluates (§6 item 2).
//!
//! Like RNTree, wB+Tree keeps leaves sorted through an indirection slot
//! array over append-only logs. Unlike RNTree it has no HTM, so the
//! atomic-write size is 8 bytes:
//!
//! * **Full variant** (`WbVariant::Full`): a 64-byte slot array cannot be
//!   updated atomically, so a *valid bit* brackets every slot update —
//!   **four persistent instructions** per modify (entry, valid←0, slots,
//!   valid←1). After a crash with the bit clear, the slot array would be
//!   rebuilt from the logs.
//! * **SO variant** (`WbVariant::SmallSlot`): the entire slot array is one
//!   8-byte word (count + 7 indices), updated and flushed atomically —
//!   back to **two persistent instructions**, but leaves hold at most 7
//!   entries, so the tree is deep and splits constantly (the paper's
//!   Figure 4 shows it losing to everything on insert).
//!
//! Single-threaded, as in the paper (Table 1: Concurrency ×).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use index_common::{leaf_ref, Key, OpError, PersistentIndex, TreeStats, Value};
use nvm::PmemPool;
use rntree::SlotBuf;

use crate::common::Substrate;

const MAGIC_FULL: u64 = 0x5742_5452_4545_0001; // "WBTREE"
const MAGIC_SO: u64 = 0x5742_5452_4545_0002;

/// Which wB+Tree flavour to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WbVariant {
    /// 64-byte slot array guarded by the valid bit (4 persists/modify).
    Full,
    /// 8-byte slot array, 7-entry leaves (2 persists/modify).
    SmallSlot,
}

impl WbVariant {
    fn capacity(self) -> usize {
        match self {
            WbVariant::Full => 64,
            WbVariant::SmallSlot => 8,
        }
    }

    fn max_live(self) -> usize {
        match self {
            WbVariant::Full => 63,
            WbVariant::SmallSlot => 7,
        }
    }

    fn block(self) -> u64 {
        match self {
            // header line + slot line + 64 × 16 B entries
            WbVariant::Full => 64 + 64 + 64 * 16,
            // header line (slot word inside) + 8 × 16 B entries
            WbVariant::SmallSlot => 64 + 8 * 16,
        }
    }

    fn magic(self) -> u64 {
        match self {
            WbVariant::Full => MAGIC_FULL,
            WbVariant::SmallSlot => MAGIC_SO,
        }
    }
}

// Header fields (both variants).
const F_VALID: u64 = 0; // Full: valid bit. SmallSlot: the packed slot word.
const F_NLOGS: u64 = 8;
const F_NEXT: u64 = 16;
const F_FENCE: u64 = 24;
const F_SLOT: u64 = 64; // Full only
fn f_logs(v: WbVariant) -> u64 {
    match v {
        WbVariant::Full => 128,
        WbVariant::SmallSlot => 64,
    }
}

/// The wB+Tree baseline (see module docs). Not safe for concurrent
/// mutation.
pub struct WbTree {
    s: Substrate,
    v: WbVariant,
}

/// Decoded slot state, abstracting over the two encodings.
#[derive(Clone)]
struct Slots {
    order: Vec<u8>,
}

impl Slots {
    fn len(&self) -> usize {
        self.order.len()
    }
}

struct WbLeaf<'p> {
    pool: &'p PmemPool,
    off: u64,
    v: WbVariant,
}

impl<'p> WbLeaf<'p> {
    fn at(pool: &'p PmemPool, off: u64, v: WbVariant) -> Self {
        WbLeaf { pool, off, v }
    }

    fn nlogs(&self) -> u64 {
        self.pool.load_u64(self.off + F_NLOGS)
    }

    fn set_nlogs(&self, n: u64) {
        self.pool.store_u64(self.off + F_NLOGS, n);
    }

    fn next(&self) -> u64 {
        self.pool.load_u64(self.off + F_NEXT)
    }

    fn fence(&self) -> u64 {
        self.pool.load_u64(self.off + F_FENCE)
    }

    fn kv_off(&self, i: usize) -> u64 {
        self.off + f_logs(self.v) + (i as u64) * 16
    }

    fn read_key(&self, i: usize) -> Key {
        self.pool.load_u64(self.kv_off(i))
    }

    fn read_value(&self, i: usize) -> Value {
        self.pool.load_u64(self.kv_off(i) + 8)
    }

    fn write_kv_persist(&self, i: usize, k: Key, val: Value) {
        self.pool.store_u64(self.kv_off(i), k);
        self.pool.store_u64(self.kv_off(i) + 8, val);
        self.pool.persist(self.kv_off(i), 16);
    }

    fn read_slots(&self) -> Slots {
        match self.v {
            WbVariant::Full => {
                let words: [u64; 8] =
                    std::array::from_fn(|i| self.pool.load_u64(self.off + F_SLOT + (i as u64) * 8));
                let buf = SlotBuf::from_words(words);
                Slots {
                    order: (0..buf.len()).map(|p| buf.entry(p) as u8).collect(),
                }
            }
            WbVariant::SmallSlot => {
                let w = self.pool.load_u64(self.off + F_VALID).to_le_bytes();
                let n = (w[0] as usize).min(7);
                Slots {
                    order: w[1..1 + n].to_vec(),
                }
            }
        }
    }

    /// Writes the slot state with the variant's persistence protocol and
    /// returns the number of persistent instructions issued.
    fn write_slots_persist(&self, slots: &Slots) {
        match self.v {
            WbVariant::Full => {
                // The valid-bit dance: 3 persists (plus the entry = 4).
                self.pool.store_u64(self.off + F_VALID, 0);
                self.pool.persist(self.off + F_VALID, 8);
                let mut buf = SlotBuf::new();
                for (p, &e) in slots.order.iter().enumerate() {
                    buf.insert_at(p, e as usize);
                }
                for (i, w) in buf.to_words().into_iter().enumerate() {
                    self.pool.store_u64(self.off + F_SLOT + (i as u64) * 8, w);
                }
                self.pool.persist(self.off + F_SLOT, 64);
                self.pool.store_u64(self.off + F_VALID, 1);
                self.pool.persist(self.off + F_VALID, 8);
            }
            WbVariant::SmallSlot => {
                // One atomic 8-byte store + 1 persist.
                let mut w = [0u8; 8];
                w[0] = slots.order.len() as u8;
                w[1..1 + slots.order.len()].copy_from_slice(&slots.order);
                self.pool.store_u64(self.off + F_VALID, u64::from_le_bytes(w));
                self.pool.persist(self.off + F_VALID, 8);
            }
        }
    }

    fn search(&self, slots: &Slots, key: Key) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0usize, slots.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            let k = self.read_key(slots.order[mid] as usize);
            match k.cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    fn pairs(&self, slots: &Slots) -> Vec<(Key, Value)> {
        slots
            .order
            .iter()
            .map(|&e| (self.read_key(e as usize), self.read_value(e as usize)))
            .collect()
    }

    fn init_from_pairs(&self, pairs: &[(Key, Value)], fence: u64, next: u64) {
        debug_assert!(pairs.len() <= self.v.max_live());
        for (i, &(k, val)) in pairs.iter().enumerate() {
            self.pool.store_u64(self.kv_off(i), k);
            self.pool.store_u64(self.kv_off(i) + 8, val);
        }
        let slots = Slots {
            order: (0..pairs.len() as u8).collect(),
        };
        match self.v {
            WbVariant::Full => {
                let mut buf = SlotBuf::new();
                for (p, &e) in slots.order.iter().enumerate() {
                    buf.insert_at(p, e as usize);
                }
                for (i, w) in buf.to_words().into_iter().enumerate() {
                    self.pool.store_u64(self.off + F_SLOT + (i as u64) * 8, w);
                }
                self.pool.store_u64(self.off + F_VALID, 1);
            }
            WbVariant::SmallSlot => {
                let mut w = [0u8; 8];
                w[0] = slots.order.len() as u8;
                w[1..1 + slots.order.len()].copy_from_slice(&slots.order);
                self.pool.store_u64(self.off + F_VALID, u64::from_le_bytes(w));
            }
        }
        self.set_nlogs(pairs.len() as u64);
        self.pool.store_u64(self.off + F_NEXT, next);
        self.pool.store_u64(self.off + F_FENCE, fence);
        self.pool.persist(self.off, self.v.block());
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Insert,
    Update,
    Upsert,
}

impl WbTree {
    /// Creates a wB+Tree of the given variant.
    pub fn create(pool: Arc<PmemPool>, variant: WbVariant, seq_traversal: bool) -> WbTree {
        let s = Substrate::create(pool, variant.block(), variant.magic(), seq_traversal);
        WbLeaf::at(&s.pool, s.leftmost, variant).init_from_pairs(&[], u64::MAX, 0);
        WbTree { s, v: variant }
    }

    /// Recovers a wB+Tree from a crashed pool: journal replay (splits) plus
    /// a chain scan. Per-leaf scratch reset: in the `Full` variant the
    /// slot-array line is exactly one cache line, so its flush is atomic —
    /// at a crash the persisted slot words are entirely pre- or post-op,
    /// both consistent — and a durable `valid == 0` only means the
    /// in-flight op was not acknowledged; recovery re-validates the words
    /// as found. `nlogs` is recomputed as max referenced KV slot + 1 so
    /// unpublished (unacknowledged) entries become reusable.
    pub fn recover(pool: Arc<PmemPool>, variant: WbVariant, seq_traversal: bool) -> WbTree {
        let s = Substrate::reopen(pool, variant.block(), variant.magic(), seq_traversal, |pool, off| {
            let leaf = WbLeaf::at(pool, off, variant);
            if variant == WbVariant::Full {
                pool.store_u64(off + F_VALID, 1);
                pool.persist(off + F_VALID, 8);
            }
            let slots = leaf.read_slots();
            let nlogs = slots.order.iter().map(|&e| e as u64 + 1).max().unwrap_or(0);
            leaf.set_nlogs(nlogs);
            pool.persist(off + F_NLOGS, 8);
            (leaf.pairs(&slots).last().map(|p| p.0), leaf.next())
        });
        WbTree { s, v: variant }
    }

    /// The variant this tree was built as.
    pub fn variant(&self) -> WbVariant {
        self.v
    }

    fn leaf(&self, off: u64) -> WbLeaf<'_> {
        WbLeaf::at(&self.s.pool, off, self.v)
    }

    fn modify(&self, key: Key, value: Value, mode: Mode) -> Result<(), OpError> {
        loop {
            let leaf = self.leaf(self.s.traverse(key));
            let mut slots = leaf.read_slots();
            let found = leaf.search(&slots, key);
            match (mode, &found) {
                (Mode::Insert, Ok(_)) => return Err(OpError::AlreadyExists),
                (Mode::Update, Err(_)) => return Err(OpError::NotFound),
                _ => {}
            }
            let nlogs = leaf.nlogs() as usize;
            let need_new_live = found.is_err();
            if nlogs == self.v.capacity() || (need_new_live && slots.len() == self.v.max_live()) {
                self.split(&leaf, &slots);
                continue;
            }
            // Persist #1: the log entry.
            leaf.write_kv_persist(nlogs, key, value);
            leaf.set_nlogs(nlogs as u64 + 1);
            match found {
                Ok(pos) => slots.order[pos] = nlogs as u8,
                Err(pos) => slots.order.insert(pos, nlogs as u8),
            }
            // Persists #2..: the slot protocol (3 for Full, 1 for SO).
            leaf.write_slots_persist(&slots);
            return Ok(());
        }
    }

    fn split(&self, leaf: &WbLeaf<'_>, slots: &Slots) {
        let pairs = leaf.pairs(slots);
        let live = pairs.len();
        let jslot = self.s.journal.acquire(&self.s.pool);
        self.s.journal.log(&self.s.pool, jslot, leaf.off);

        if live < self.v.max_live() / 2 + 1 && live < self.v.capacity() / 2 {
            leaf.init_from_pairs(&pairs, leaf.fence(), leaf.next());
            self.s.journal.clear(&self.s.pool, jslot);
            self.s.compactions.fetch_add(1, Ordering::Relaxed);
            return;
        }

        let right_off = self.s.alloc.alloc().expect("wB+Tree pool exhausted");
        let right = WbLeaf::at(&self.s.pool, right_off, self.v);
        let mid = live / 2;
        let sep = pairs[mid - 1].0;
        right.init_from_pairs(&pairs[mid..], leaf.fence(), leaf.next());
        leaf.init_from_pairs(&pairs[..mid], sep, right_off);
        self.s.journal.clear(&self.s.pool, jslot);
        self.s.index.tree_update(sep, leaf_ref(right_off));
        self.s.splits.fetch_add(1, Ordering::Relaxed);
    }

    /// Structural invariant check for tests.
    pub fn verify_invariants(&self) -> Result<(), String> {
        let mut off = self.s.leftmost;
        let mut last: Option<Key> = None;
        while off != 0 {
            let leaf = self.leaf(off);
            let slots = leaf.read_slots();
            for &(k, _) in leaf.pairs(&slots).iter() {
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

impl PersistentIndex for WbTree {
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
        let leaf = self.leaf(self.s.traverse(key));
        let mut slots = leaf.read_slots();
        match leaf.search(&slots, key) {
            Err(_) => Err(OpError::NotFound),
            Ok(pos) => {
                slots.order.remove(pos);
                leaf.write_slots_persist(&slots);
                Ok(())
            }
        }
    }

    fn find(&self, key: Key) -> Option<Value> {
        let leaf = self.leaf(self.s.traverse(key));
        let slots = leaf.read_slots();
        leaf.search(&slots, key)
            .ok()
            .map(|pos| leaf.read_value(slots.order[pos] as usize))
    }

    fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        out.clear();
        if n == 0 {
            return 0;
        }
        let mut off = self.s.traverse(start);
        while off != 0 {
            let leaf = self.leaf(off);
            let slots = leaf.read_slots();
            let from = match leaf.search(&slots, start) {
                Ok(p) | Err(p) => p,
            };
            for pos in from..slots.len() {
                let e = slots.order[pos] as usize;
                out.push((leaf.read_key(e), leaf.read_value(e)));
                if out.len() == n {
                    return n;
                }
            }
            off = leaf.next();
        }
        out.len()
    }

    fn name(&self) -> &'static str {
        match self.v {
            WbVariant::Full => "wB+Tree",
            WbVariant::SmallSlot => "wB+Tree-SO",
        }
    }

    fn stats(&self) -> TreeStats {
        let mut leaves = 0;
        let mut entries = 0;
        let mut off = self.s.leftmost;
        while off != 0 {
            let leaf = self.leaf(off);
            leaves += 1;
            entries += leaf.read_slots().len() as u64;
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

impl obs::ObsSource for WbTree {
    /// The shared baseline sections (`tree`, `pmem`, `events`).
    fn obs_sections(&self) -> Vec<(String, obs::Section)> {
        crate::common::substrate_sections(self, &self.s)
    }
}

impl index_common::RecoverableIndex for WbTree {
    /// `(variant, seq_traversal)`.
    type Config = (WbVariant, bool);

    fn create(pool: Arc<PmemPool>, (variant, seq): (WbVariant, bool)) -> Self {
        WbTree::create(pool, variant, seq)
    }

    fn recover(pool: Arc<PmemPool>, (variant, seq): (WbVariant, bool)) -> Self {
        WbTree::recover(pool, variant, seq)
    }
}

impl std::fmt::Debug for WbTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WbTree").field("variant", &self.v).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::PmemConfig;

    fn tree(v: WbVariant) -> WbTree {
        let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 24)));
        WbTree::create(pool, v, false)
    }

    #[test]
    fn both_variants_basic_roundtrip() {
        for v in [WbVariant::Full, WbVariant::SmallSlot] {
            let t = tree(v);
            for k in (1..=300u64).rev() {
                t.insert(k, k * 2).unwrap();
            }
            for k in 1..=300u64 {
                assert_eq!(t.find(k), Some(k * 2), "{v:?} key {k}");
            }
            assert_eq!(t.find(0), None);
            assert!(t.stats().splits > 0);
            t.verify_invariants().unwrap();
        }
    }

    #[test]
    fn conditional_semantics() {
        for v in [WbVariant::Full, WbVariant::SmallSlot] {
            let t = tree(v);
            t.insert(5, 1).unwrap();
            assert_eq!(t.insert(5, 2), Err(OpError::AlreadyExists));
            assert_eq!(t.update(6, 1), Err(OpError::NotFound));
            t.update(5, 9).unwrap();
            assert_eq!(t.find(5), Some(9));
            assert_eq!(t.remove(8), Err(OpError::NotFound));
            t.remove(5).unwrap();
            assert_eq!(t.find(5), None);
        }
    }

    #[test]
    fn full_variant_costs_four_persists_per_insert() {
        let t = tree(WbVariant::Full);
        for k in 1..=10u64 {
            t.insert(k, k).unwrap();
        }
        let before = t.s.pool.stats().snapshot();
        t.insert(100, 1).unwrap();
        let d = t.s.pool.stats().snapshot().since(&before);
        assert_eq!(d.persists, 4, "wB+Tree insert = entry + valid0 + slots + valid1");
    }

    #[test]
    fn so_variant_costs_two_persists_per_insert() {
        let t = tree(WbVariant::SmallSlot);
        for k in 1..=5u64 {
            t.insert(k, k).unwrap();
        }
        let before = t.s.pool.stats().snapshot();
        t.insert(100, 1).unwrap();
        let d = t.s.pool.stats().snapshot().since(&before);
        assert_eq!(d.persists, 2, "wB+Tree-SO insert = entry + slot word");
    }

    #[test]
    fn so_variant_splits_often() {
        let t = tree(WbVariant::SmallSlot);
        for k in 1..=100u64 {
            t.insert(k, k).unwrap();
        }
        let full = tree(WbVariant::Full);
        for k in 1..=100u64 {
            full.insert(k, k).unwrap();
        }
        assert!(
            t.stats().splits > 4 * full.stats().splits,
            "SO: {} vs Full: {}",
            t.stats().splits,
            full.stats().splits
        );
    }

    #[test]
    fn update_churn_recycles_log_area() {
        for v in [WbVariant::Full, WbVariant::SmallSlot] {
            let t = tree(v);
            for k in 1..=3u64 {
                t.insert(k, 0).unwrap();
            }
            for round in 1..=80u64 {
                for k in 1..=3u64 {
                    t.update(k, round).unwrap();
                }
            }
            for k in 1..=3u64 {
                assert_eq!(t.find(k), Some(80), "{v:?}");
            }
            t.verify_invariants().unwrap();
        }
    }

    #[test]
    fn scan_is_sorted_without_sorting() {
        let t = tree(WbVariant::Full);
        for k in [5u64, 1, 9, 3, 7, 2, 8, 4, 6, 10] {
            t.insert(k * 10, k).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(t.scan_n(15, 5, &mut out), 5);
        assert_eq!(out.iter().map(|p| p.0).collect::<Vec<_>>(), vec![20, 30, 40, 50, 60]);
    }
}
