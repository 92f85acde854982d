//! [`HashDir`]: the hash-organized encoding of the 64-byte slot line.
//!
//! A leaf tagged [`crate::layout::LAYOUT_HASH`] keeps the exact same block
//! layout as the sorted leaf — header line, persistent + transient slot
//! lines, KV log — but reinterprets the slot line as an open-addressing
//! directory instead of a sorted array:
//!
//! ```text
//! byte 0        live-entry count (same position/meaning as SlotBuf)
//! bytes 1..=63  63 buckets; 0 = empty, v = log entry index v-1
//! ```
//!
//! A key's *home bucket* is its one-byte fingerprint (`fp_hash`) modulo 63;
//! collisions probe linearly with wraparound. Because the directory has
//! exactly [`MAX_LIVE`] buckets and a leaf holds at most [`MAX_LIVE`] live
//! entries, an insert below capacity always finds an empty bucket and every
//! probe terminates within 63 steps. Deletion backward-shifts the chain
//! (Knuth 6.4 Algorithm R), so the invariant "a lookup may stop at the
//! first empty bucket" holds without tombstones.
//!
//! Point ops are O(1) expected instead of O(log n) binary search; the
//! price is that no sorted order is maintained — scans and splits gather
//! the occupied buckets and sort on demand. Crucially the directory is
//! still one cache line read/written through the same eight transactional
//! words as [`SlotBuf`], so the lock/version/HTM protocol and the persist
//! counts (insert/update 2, remove 1, find 0) carry over verbatim.

use crate::layout::MAX_LIVE;
use crate::slots::SlotBuf;

/// Number of buckets in the directory (63: one line minus the count byte).
pub const N_BUCKETS: usize = MAX_LIVE;

/// A decoded hash directory: count byte + 63 open-addressing buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashDir(pub [u8; 64]);

/// A successful directory probe: where the match sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// Bucket index holding the match (needed by remove's backward shift).
    pub bucket: usize,
    /// KV log entry index of the matching record.
    pub entry: usize,
}

impl Default for HashDir {
    fn default() -> Self {
        HashDir([0u8; 64])
    }
}

impl HashDir {
    /// Empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reinterprets a slot-line image as a hash directory (the line was
    /// read through the same eight transactional words either way; only
    /// the leaf's layout tag says which decoding is meaningful).
    #[inline]
    pub fn from_slot(s: SlotBuf) -> Self {
        HashDir(s.0)
    }

    /// Re-encodes for write-back through the [`SlotBuf`] word path.
    #[inline]
    pub fn to_slot(&self) -> SlotBuf {
        SlotBuf(self.0)
    }

    /// Number of live entries (== number of occupied buckets).
    #[inline]
    pub fn len(&self) -> usize {
        self.0[0] as usize
    }

    /// True when no entry is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Home bucket for a key with fingerprint `fp`.
    #[inline]
    pub fn home(fp: u8) -> usize {
        fp as usize % N_BUCKETS
    }

    /// Log entry stored in bucket `b`, or `None` if the bucket is empty.
    #[inline]
    pub fn bucket(&self, b: usize) -> Option<usize> {
        debug_assert!(b < N_BUCKETS);
        match self.0[1 + b] {
            0 => None,
            v => Some(v as usize - 1),
        }
    }

    #[inline]
    fn set_bucket(&mut self, b: usize, entry: Option<usize>) {
        debug_assert!(b < N_BUCKETS);
        self.0[1 + b] = match entry {
            None => 0,
            Some(e) => {
                debug_assert!(e < crate::layout::LEAF_CAPACITY);
                e as u8 + 1
            }
        };
    }

    /// Probes for a key with fingerprint `fp`, confirming candidate
    /// entries through `matches` (typically a fingerprint-table filter
    /// plus a KV key compare). Returns the hit and adds the number of
    /// buckets inspected to `steps` (the probe-length signal exported via
    /// the `leaf` obs section).
    #[inline]
    pub fn find(
        &self,
        fp: u8,
        mut matches: impl FnMut(usize) -> bool,
        steps: &mut u32,
    ) -> Option<Probe> {
        let mut b = Self::home(fp);
        for _ in 0..N_BUCKETS {
            *steps += 1;
            match self.bucket(b) {
                None => return None,
                Some(entry) => {
                    if matches(entry) {
                        return Some(Probe { bucket: b, entry });
                    }
                }
            }
            b = (b + 1) % N_BUCKETS;
        }
        // Directory completely full and no match anywhere on the cycle.
        None
    }

    /// Inserts a new entry for a key with fingerprint `fp` (caller has
    /// already established the key is absent). Returns `false` when the
    /// directory is full — the caller splits, exactly like a sorted-slot
    /// overflow.
    #[inline]
    pub fn insert(&mut self, fp: u8, entry: usize) -> bool {
        let n = self.len();
        if n >= MAX_LIVE {
            return false;
        }
        let mut b = Self::home(fp);
        // n < MAX_LIVE occupied buckets out of N_BUCKETS == MAX_LIVE
        // guarantees an empty one on the probe cycle.
        while self.bucket(b).is_some() {
            b = (b + 1) % N_BUCKETS;
        }
        self.set_bucket(b, Some(entry));
        self.0[0] = (n + 1) as u8;
        true
    }

    /// Redirects bucket `b` (a `Probe::bucket` found by [`Self::find`])
    /// at a new log entry (update in place: the key keeps its bucket, the
    /// data moves to a fresh log entry — the hash twin of
    /// `SlotBuf::set_entry`).
    #[inline]
    pub fn redirect(&mut self, b: usize, entry: usize) {
        self.set_bucket(b, Some(entry));
    }

    /// Removes the entry in bucket `b` and backward-shifts the collision
    /// chain so probes may keep stopping at the first empty bucket.
    /// `home_of` maps a log entry to its home bucket (the caller rehashes
    /// the stored key or consults the fingerprint table).
    pub fn remove_at(&mut self, b: usize, mut home_of: impl FnMut(usize) -> usize) {
        debug_assert!(self.bucket(b).is_some());
        let mut hole = b;
        self.set_bucket(hole, None);
        let mut j = (hole + 1) % N_BUCKETS;
        while let Some(e) = self.bucket(j) {
            // Entry `e` probed from home(e) forward to j; it may fill the
            // hole iff the hole lies on that path, i.e. cyclically in
            // [home, j).
            let h = home_of(e);
            let on_path = if h <= j {
                h <= hole && hole < j
            } else {
                h <= hole || hole < j
            };
            if on_path {
                self.set_bucket(hole, Some(e));
                self.set_bucket(j, None);
                hole = j;
            }
            j = (j + 1) % N_BUCKETS;
            if j == b {
                break; // full cycle (directory was completely full)
            }
        }
        self.0[0] = (self.len() - 1) as u8;
    }

    /// Iterates the live log-entry indices in bucket order (NOT key
    /// order — scans, splits, and morphs sort by key after gathering).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..N_BUCKETS).filter_map(move |b| self.bucket(b))
    }

    /// Builds a directory over densely-rewritten entries `0..n` with the
    /// given per-entry fingerprints (used by morph, split, and bulk load
    /// after a key-ordered rewrite).
    pub fn build(fps: &[u8]) -> Self {
        assert!(fps.len() <= MAX_LIVE);
        let mut d = HashDir::new();
        for (e, &fp) in fps.iter().enumerate() {
            let ok = d.insert(fp, e);
            debug_assert!(ok);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fp_hash;

    fn dir_of(keys: &[u64]) -> (HashDir, Vec<u64>) {
        // Entry e holds keys[e].
        let mut d = HashDir::new();
        for (e, &k) in keys.iter().enumerate() {
            assert!(d.insert(fp_hash(k), e));
        }
        (d, keys.to_vec())
    }

    fn lookup(d: &HashDir, keys: &[u64], k: u64) -> Option<usize> {
        let mut steps = 0;
        d.find(fp_hash(k), |e| keys[e] == k, &mut steps).map(|p| p.entry)
    }

    #[test]
    fn insert_find_roundtrip() {
        let keys: Vec<u64> = (0..40).map(|i| i * 977 + 13).collect();
        let (d, ks) = dir_of(&keys);
        assert_eq!(d.len(), 40);
        for (e, &k) in keys.iter().enumerate() {
            assert_eq!(lookup(&d, &ks, k), Some(e), "key {k}");
        }
        for k in [1u64, 2, 999_999] {
            assert_eq!(lookup(&d, &ks, k), None);
        }
    }

    #[test]
    fn full_directory_still_answers() {
        let keys: Vec<u64> = (0..MAX_LIVE as u64).map(|i| i * 31 + 7).collect();
        let (mut d, ks) = dir_of(&keys);
        assert_eq!(d.len(), MAX_LIVE);
        assert!(!d.insert(fp_hash(12345), 63), "full dir must refuse");
        for (e, &k) in keys.iter().enumerate() {
            assert_eq!(lookup(&d, &ks, k), Some(e));
        }
        // Misses on a full directory walk the whole cycle but terminate.
        assert_eq!(lookup(&d, &ks, 123_456_789), None);
    }

    #[test]
    fn remove_backward_shift_preserves_probes() {
        // Remove every other key and re-verify all survivors after each
        // removal — this is exactly the case tombstone-free deletion gets
        // wrong if the cyclic range check is off.
        let keys: Vec<u64> = (0..50).map(|i| i * 7919 + 3).collect();
        let (mut d, ks) = dir_of(&keys);
        let mut live: Vec<usize> = (0..keys.len()).collect();
        for victim in (0..keys.len()).step_by(2) {
            let mut steps = 0;
            let p = d
                .find(fp_hash(keys[victim]), |e| ks[e] == keys[victim], &mut steps)
                .expect("victim present");
            d.remove_at(p.bucket, |e| HashDir::home(fp_hash(ks[e])));
            live.retain(|&e| e != victim);
            for &e in &live {
                assert_eq!(lookup(&d, &ks, keys[e]), Some(e), "after removing {victim}");
            }
            assert_eq!(lookup(&d, &ks, keys[victim]), None);
        }
        assert_eq!(d.len(), live.len());
    }

    #[test]
    fn update_redirects_bucket() {
        let keys = [100u64, 200, 300];
        let (mut d, mut ks) = dir_of(&keys);
        let mut steps = 0;
        let p = d.find(fp_hash(200), |e| ks[e] == 200, &mut steps).unwrap();
        // Data for key 200 moves to fresh log entry 7.
        ks.resize(8, 0);
        ks[7] = 200;
        d.redirect(p.bucket, 7);
        assert_eq!(lookup(&d, &ks, 200), Some(7));
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn build_matches_incremental_inserts() {
        let keys: Vec<u64> = (0..MAX_LIVE as u64).map(|i| i.wrapping_mul(0x9E3779B9)).collect();
        let fps: Vec<u8> = keys.iter().map(|&k| fp_hash(k)).collect();
        let d = HashDir::build(&fps);
        assert_eq!(d.len(), MAX_LIVE);
        for (e, &k) in keys.iter().enumerate() {
            assert_eq!(lookup(&d, &keys, k), Some(e));
        }
        let mut entries: Vec<usize> = d.iter().collect();
        entries.sort_unstable();
        assert_eq!(entries, (0..MAX_LIVE).collect::<Vec<_>>());
    }

    #[test]
    fn slot_line_roundtrip() {
        let keys = [9u64, 8, 7, 6];
        let (d, ks) = dir_of(&keys);
        let d2 = HashDir::from_slot(d.to_slot());
        assert_eq!(d, d2);
        assert_eq!(lookup(&d2, &ks, 7), Some(2));
        // Count byte occupies the same position as SlotBuf's, so generic
        // "is this leaf empty" checks work without tag dispatch.
        assert_eq!(d.to_slot().len(), 4);
    }

    #[test]
    fn adversarial_same_home_chain() {
        // All keys share one home bucket: worst-case linear chain. Insert,
        // verify, then delete from the middle of the chain.
        let mut d = HashDir::new();
        let mut ks = vec![0u64; 10];
        let mut picked = Vec::new();
        let mut k = 0u64;
        while picked.len() < 10 {
            if HashDir::home(fp_hash(k)) == 5 {
                let e = picked.len();
                ks[e] = k;
                assert!(d.insert(fp_hash(k), e));
                picked.push(k);
            }
            k += 1;
        }
        for (e, &key) in picked.iter().enumerate() {
            assert_eq!(lookup(&d, &ks, key), Some(e));
        }
        let victim = picked[4];
        let mut steps = 0;
        let p = d.find(fp_hash(victim), |e| ks[e] == victim, &mut steps).unwrap();
        assert!(steps >= 5, "chained probe must walk the chain");
        d.remove_at(p.bucket, |e| HashDir::home(fp_hash(ks[e])));
        for (e, &key) in picked.iter().enumerate() {
            if key == victim {
                assert_eq!(lookup(&d, &ks, key), None);
            } else {
                assert_eq!(lookup(&d, &ks, key), Some(e));
            }
        }
    }
}
