//! DRAM-side key fingerprints for the transient leaf view.
//!
//! One byte per KV log entry, FPTree-style (Oukid et al., SIGMOD'16): a
//! point lookup probes the fingerprint array first and touches a key only
//! on a fingerprint hit, replacing the binary search's ~log₂(63) dependent,
//! branch-mispredicting NVM key reads with a short predictable scan over
//! one or two DRAM cache lines plus (almost always) a single key compare.
//!
//! The table is part of the *transient* leaf view, like the transient slot
//! array of §4.4: it lives outside the pool, the persistence layout is
//! unchanged, and recovery rebuilds it from the persistent slot arrays. The
//! Table 1 persist counts (insert/update 2, remove 1) are untouched —
//! fingerprint writes are plain DRAM stores.
//!
//! Concurrency: `fps[e]` is written by the single owner of log entry `e`
//! *before* the entry is published through the slot-array HTM commit (a
//! release), and readers load it only after snapshotting the slot array (an
//! acquire), so a published entry's fingerprint is always visible. Entry
//! reuse (split/compaction) rewrites fingerprints under the leaf lock with
//! the splitting bit set; the reader version protocol already discards any
//! snapshot that overlaps such a phase. A torn read is therefore impossible
//! for a validated snapshot, and a *stale* fingerprint can only be probed
//! for an unreferenced entry, which no validated slot array points at.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::format::LeafFormat;
use crate::layout::LEAF_CAPACITY;
use crate::leaf::Leaf;
use crate::slots::SlotBuf;

/// One-byte key fingerprint: top byte of a Fibonacci hash, so nearby keys
/// still spread over the full byte range.
#[inline]
pub(crate) fn fp_hash(key: u64) -> u8 {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
}

/// Byte-string fingerprint (variable-length keys): FNV-1a over the bytes,
/// then the same Fibonacci fold down to the top byte. Deliberately *not*
/// `fp_hash(key_head(k))`: string workloads share 4-byte heads heavily,
/// and the fingerprint's whole job is to disambiguate beyond the head.
#[inline]
pub(crate) fn fp_hash_bytes(key: &[u8]) -> u8 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
}

/// Per-tree fingerprint table: `LEAF_CAPACITY` bytes for every leaf block
/// in the pool's leaf region, indexed by block offset.
pub(crate) struct FpTable {
    /// First byte of the leaf region (block offsets are relative to this).
    base: u64,
    /// Leaf block stride (`LEAF_BLOCK` or `VAR_LEAF_BLOCK`).
    block: u64,
    bytes: Box<[AtomicU8]>,
}

impl FpTable {
    /// Table covering `block`-sized leaf blocks in `[base, pool_len)`.
    pub(crate) fn new(base: u64, pool_len: u64, block: u64) -> FpTable {
        let blocks = ((pool_len - base) / block) as usize;
        let mut v = Vec::with_capacity(blocks * LEAF_CAPACITY);
        v.resize_with(blocks * LEAF_CAPACITY, || AtomicU8::new(0));
        FpTable {
            base,
            block,
            bytes: v.into_boxed_slice(),
        }
    }

    #[inline]
    fn idx(&self, leaf_off: u64, entry: usize) -> usize {
        debug_assert!(leaf_off >= self.base && entry < LEAF_CAPACITY);
        debug_assert_eq!((leaf_off - self.base) % self.block, 0);
        ((leaf_off - self.base) / self.block) as usize * LEAF_CAPACITY + entry
    }

    /// Records the fingerprint of the key now stored in `entry`. Called by
    /// the entry's owner before the entry is published via the slot array.
    #[inline]
    pub(crate) fn set(&self, leaf_off: u64, entry: usize, fp: u8) {
        // Ordering: Relaxed. Publication order is carried by the slot-array
        // commit (Release) that follows; see the module docs.
        self.bytes[self.idx(leaf_off, entry)].store(fp, Ordering::Relaxed);
    }

    /// Point lookup: sorted position of the live entry holding `key`, or
    /// `None`. Probes fingerprints first; keys are only read on a hit
    /// (fingerprint equality has no false negatives for a validated
    /// snapshot, so a miss needs zero key reads).
    #[inline]
    pub(crate) fn probe<F: LeafFormat>(
        &self,
        leaf: Leaf<'_>,
        slot: &SlotBuf,
        key: &F::Key,
        ties: &obs::Counter,
    ) -> Option<usize> {
        let want = F::fp(key);
        let base = self.idx(leaf.off(), 0);
        let fps: &[AtomicU8; LEAF_CAPACITY] = self.bytes[base..base + LEAF_CAPACITY]
            .try_into()
            .expect("leaf fingerprint stripe");
        for pos in 0..slot.len() {
            let e = slot.entry(pos);
            // Masked index: entries are < LEAF_CAPACITY by leaf invariant,
            // and the fixed-size array + mask lets the scan run without a
            // bounds-check branch per probe.
            if fps[e & (LEAF_CAPACITY - 1)].load(Ordering::Relaxed) == want && F::key_eq(leaf, e, key, ties) {
                return Some(pos);
            }
        }
        None
    }

    /// Prefetch hint for this leaf's fingerprint stripe (one cache line).
    /// The table is sized in whole-stripe units, so the stripe is
    /// contiguous; at bench scale it is too large to stay cached, making
    /// the probe's first byte load a miss worth overlapping.
    #[inline]
    pub(crate) fn prefetch_stripe(&self, leaf_off: u64) {
        #[cfg(target_arch = "x86_64")]
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let p = self.bytes.as_ptr().add(self.idx(leaf_off, 0)) as *const i8;
            _mm_prefetch::<_MM_HINT_T0>(p);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = leaf_off;
    }

    /// Re-derives the fingerprints of the given live entries (recovery
    /// path: the table is transient and starts zeroed).
    pub(crate) fn rebuild_leaf<F: LeafFormat>(&self, leaf: Leaf<'_>, entries: impl Iterator<Item = usize>) {
        for e in entries {
            self.set(leaf.off(), e, F::fp(std::borrow::Borrow::borrow(&F::read_key(leaf, e))));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::U64Format;
    use crate::layout::LEAF_BLOCK;
    use nvm::{PmemConfig, PmemPool};

    #[test]
    fn fp_hash_spreads_dense_keys() {
        let mut seen = std::collections::HashSet::new();
        for k in 0..256u64 {
            seen.insert(fp_hash(k));
        }
        // A good byte hash of 256 consecutive keys hits most buckets.
        assert!(seen.len() > 150, "only {} distinct fingerprints", seen.len());
    }

    #[test]
    fn probe_finds_exactly_the_live_position() {
        let pool = PmemPool::new(PmemConfig::for_testing(1 << 16));
        let leaf = Leaf::at(&pool, 0);
        leaf.init_empty(u64::MAX, 0);
        // keys 10,20,30 at entries 2,0,1 (same shape as the leaf tests).
        leaf.write_kv(2, 10, 1);
        leaf.write_kv(0, 20, 2);
        leaf.write_kv(1, 30, 3);
        let mut slot = SlotBuf::new();
        slot.insert_at(0, 2);
        slot.insert_at(1, 0);
        slot.insert_at(2, 1);
        let t = FpTable::new(0, 1 << 16, LEAF_BLOCK);
        let ties = obs::Counter::new();
        t.rebuild_leaf::<U64Format>(leaf, slot.iter());
        assert_eq!(t.probe::<U64Format>(leaf, &slot, &10, &ties), Some(0));
        assert_eq!(t.probe::<U64Format>(leaf, &slot, &20, &ties), Some(1));
        assert_eq!(t.probe::<U64Format>(leaf, &slot, &30, &ties), Some(2));
        assert_eq!(t.probe::<U64Format>(leaf, &slot, &15, &ties), None);
        assert_eq!(t.probe::<U64Format>(leaf, &slot, &0, &ties), None);
    }

    #[test]
    fn probe_survives_fingerprint_collisions() {
        // Force every fingerprint byte to collide: probe must fall through
        // to key compares and still answer exactly.
        let pool = PmemPool::new(PmemConfig::for_testing(1 << 16));
        let leaf = Leaf::at(&pool, 0);
        leaf.init_empty(u64::MAX, 0);
        let mut slot = SlotBuf::new();
        for (i, k) in [5u64, 7, 9].iter().enumerate() {
            leaf.write_kv(i, *k, k * 10);
            slot.insert_at(i, i);
        }
        let t = FpTable::new(0, 1 << 16, LEAF_BLOCK);
        let ties = obs::Counter::new();
        let clash = fp_hash(7);
        for e in 0..3 {
            t.set(0, e, clash);
        }
        assert_eq!(t.probe::<U64Format>(leaf, &slot, &7, &ties), Some(1));
        assert_eq!(t.probe::<U64Format>(leaf, &slot, &6, &ties), None);
    }

    #[test]
    fn fp_hash_bytes_disambiguates_shared_heads() {
        // Keys sharing a 4-byte head must still spread over the byte
        // range — the head is exactly what the fingerprint must beat.
        let mut seen = std::collections::HashSet::new();
        for i in 0..256 {
            seen.insert(fp_hash_bytes(format!("user00000000{i:03}").as_bytes()));
        }
        assert!(seen.len() > 150, "only {} distinct fingerprints", seen.len());
        assert_eq!(fp_hash_bytes(b""), fp_hash_bytes(b""));
        assert_ne!(fp_hash_bytes(b"a"), fp_hash_bytes(b"b"));
    }
}
