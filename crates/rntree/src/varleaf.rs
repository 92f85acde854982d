//! The variable-length-key leaf (`RnConfig::varlen_leaves`; layout in
//! [`crate::layout::varlen`]): the [`VarLeaf`] accessor and the
//! [`VarFormat`] impl of [`LeafFormat`].
//!
//! `VarLeaf` wraps [`Leaf`] — the lock/version word, log-entry
//! allocation, `plogs`, `next` and the dual slot arrays all sit at the
//! same offsets in both block families, so every shared protocol method
//! is reached through `Deref` — and adds the var-specific pieces: the
//! fence/prefix metadata word, the packed record directory, and the
//! in-leaf key heap.
//!
//! ## The prefix-truncation lemma
//!
//! A leaf covers the key range `(low_fence, high_fence]`. Let
//! `p = lcp(low_fence, high_fence)`. Every key `k` with
//! `low_fence < k ≤ high_fence` starts with that common prefix: if `k`
//! differed from it at byte `i < p`, then `k` would compare against both
//! fences identically at byte `i` (they agree there), contradicting
//! `low < k ≤ high`; and `k` cannot be a *proper* prefix of the common
//! prefix, because such a string sorts ≤ `low_fence`. Hence storing only
//! `k[p..]` is lossless: reconstruction is `low_fence[..p] ++ suffix`.
//! (For the leftmost leaf `low_fence` is empty and for the rightmost
//! `high_fence` is +∞, so `p = 0` there and no truncation happens.)
//!
//! ## Concurrency discipline for the heap
//!
//! Heap space is reserved with a lock-free bump (`reserve_heap`) *after*
//! the entry's `nlogs` CAS succeeded — and a successful allocation blocks
//! splits until the entry is decided (the quiescence guard), so the
//! reserved region, the prefix length, and the fence bytes are all stable
//! until the owner publishes or wastes the entry. All heap access is by
//! 8-byte **atomic words** (records and fences are 8-aligned and
//! zero-padded), so optimistic readers racing a split's rewrite read
//! well-defined (possibly torn) values that the leaf version re-check
//! then discards — exactly the u64 leaf's `read_key` discipline.
//!
//! ## What the shared protocol does differently for var leaves
//!
//! [`VarFormat`] runs the same modify/find/scan/batch/split/recovery path
//! as the u64 leaf, with the same persist schedule and split/quiescence
//! discipline. Three invariants are its own:
//!
//! * Persistent instruction #1 of a modify is **one coalesced
//!   [`nvm::PmemPool::persist_many`]** covering the freshly written heap
//!   record and its directory word (one fence, lines deduplicated), issued
//!   before the leaf lock, where the u64 leaf overlaps its one-line KV
//!   flush with the locked phase. A record can span several lines, and
//!   `persist_many`'s single fence is already the batched equivalent.
//!   Persistent instruction #2 is the slot-array line, unchanged, so the
//!   Table 1 persist counts per operation are identical to the u64 leaf.
//! * The prefix/fence metadata a writer needs is read *after* its log
//!   entry allocation succeeds ([`LeafFormat::write_record`]): an
//!   undecided entry blocks split/compaction completion (the
//!   `nlogs == plogs` quiescence guard), and only those rewrite the
//!   metadata, so what the writer reads cannot change until its entry is
//!   decided. An out-of-range key is caught by the fence check under the
//!   lock and wastes the entry, exactly like the u64 path.
//! * Splits trigger on log-area consumption **or heap pressure**
//!   ([`LeafFormat::heap_low`]): when the free heap drops below one
//!   worst-case record ([`VAR_SPLIT_RESERVE`]), the next decided entry
//!   splits the leaf even though the slot array still has room. A failed
//!   heap reservation always ends in a decided (wasted) entry, so the
//!   trigger cannot starve.
//!
//! Splits journal the whole 4096-byte block, so heap, fences and
//! directory roll back together. Post-split fit holds by construction:
//! each half holds at most 32 records of at most
//! [`crate::layout::varlen::VAR_REC_MAX`] bytes plus at most
//! [`crate::layout::varlen::VAR_FENCE_RESERVE`] fence bytes, under the
//! heap capacity. The separator is a real stored key, so both fence pairs
//! stay real keys and prefixes only grow across a split: re-truncated
//! suffixes never grow either.

use std::cmp::Ordering as CmpOrdering;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

use index_common::{key_head, InnerIndex, KeyBuf, Value, MAX_KEY_LEN};
use nvm::PmemPool;

use crate::fingerprint::fp_hash_bytes;
use crate::format::LeafFormat;
use crate::layout::varlen::{
    dir_off, round8, vfield, HF_INF, VAR_FENCE_RESERVE, VAR_HEAP_CAP, VAR_LEAF_BLOCK, VAR_LEAF_CAPACITY,
    VAR_MAX_LIVE, VAR_SPLIT_RESERVE,
};
use crate::leaf::{Leaf, WhichSlot};
use crate::slots::SlotBuf;

/// A `KeyBuf` strictly greater than every storable key: recovery's route
/// for the rightmost (+∞-fenced) leaf. Every split separator is a real
/// stored key, hence `<` this by at least its final byte.
const KEY_TOP: [u8; MAX_KEY_LEN] = [0xFF; MAX_KEY_LEN];

/// A handle to one variable-length-key leaf node.
#[derive(Clone, Copy)]
pub(crate) struct VarLeaf<'p>(Leaf<'p>);

impl<'p> Deref for VarLeaf<'p> {
    type Target = Leaf<'p>;

    fn deref(&self) -> &Leaf<'p> {
        &self.0
    }
}

impl<'p> VarLeaf<'p> {
    pub(crate) fn at(pool: &'p PmemPool, off: u64) -> Self {
        debug_assert!(off + VAR_LEAF_BLOCK <= pool.len());
        VarLeaf(Leaf::at(pool, off))
    }

    /// The var view of a leaf handle.
    pub(crate) fn of(leaf: Leaf<'p>) -> Self {
        debug_assert!(leaf.off() + VAR_LEAF_BLOCK <= leaf.pool().len());
        VarLeaf(leaf)
    }

    // ---- fence / prefix metadata ------------------------------------------

    fn meta(&self) -> u64 {
        self.pool().load_u64_acquire(self.off() + vfield::META)
    }

    fn set_meta(&self, prefix_len: usize, lf_len: usize, hf_len: u16) {
        debug_assert!(prefix_len <= MAX_KEY_LEN && lf_len <= MAX_KEY_LEN);
        let w = (prefix_len as u64) | ((lf_len as u64) << 16) | ((hf_len as u64) << 32);
        self.pool().store_u64_release(self.off() + vfield::META, w);
    }

    /// Shared-prefix length of this leaf's key range.
    pub(crate) fn prefix_len(&self) -> usize {
        (self.meta() & 0xFFFF) as usize
    }

    fn lf_len(&self) -> usize {
        ((self.meta() >> 16) & 0xFFFF) as usize
    }

    /// Raw `hf_len` field; [`HF_INF`] encodes the +∞ fence.
    fn hf_len_raw(&self) -> u16 {
        ((self.meta() >> 32) & 0xFFFF) as u16
    }

    /// Heap-relative offset where records start (past the fence bytes).
    fn fence_bytes(&self) -> u64 {
        let hf = self.hf_len_raw();
        let hf_bytes = if hf == HF_INF { 0 } else { hf as u64 };
        round8(self.lf_len() as u64) + round8(hf_bytes)
    }

    /// The exclusive lower bound of this leaf's range.
    pub(crate) fn low_fence(&self) -> KeyBuf {
        let mut buf = [0u8; MAX_KEY_LEN];
        let n = self.lf_len();
        self.load_heap_bytes(self.off() + vfield::HEAP, n, &mut buf);
        KeyBuf::from_slice(&buf[..n])
    }

    /// The inclusive upper bound; `None` is the rightmost leaf's +∞.
    pub(crate) fn high_fence(&self) -> Option<KeyBuf> {
        let raw = self.hf_len_raw();
        if raw == HF_INF {
            return None;
        }
        let mut buf = [0u8; MAX_KEY_LEN];
        let n = raw as usize;
        let at = self.off() + vfield::HEAP + round8(self.lf_len() as u64);
        self.load_heap_bytes(at, n, &mut buf);
        Some(KeyBuf::from_slice(&buf[..n]))
    }

    /// Copies the shared prefix into `buf`, returning its length.
    pub(crate) fn prefix_into(&self, buf: &mut [u8; MAX_KEY_LEN]) -> usize {
        let p = self.prefix_len();
        self.load_heap_bytes(self.off() + vfield::HEAP, p, buf);
        p
    }

    // ---- heap -------------------------------------------------------------

    fn heap_used_word(&self) -> &AtomicU64 {
        self.pool().atomic_u64(self.off() + vfield::HEAP_USED)
    }

    pub(crate) fn heap_used(&self) -> u64 {
        self.heap_used_word().load(Ordering::Acquire)
    }

    pub(crate) fn set_heap_used(&self, v: u64) {
        self.heap_used_word().store(v, Ordering::Release);
    }

    /// Free heap bytes (split-trigger input).
    pub(crate) fn heap_free(&self) -> u64 {
        VAR_HEAP_CAP - self.heap_used().min(VAR_HEAP_CAP)
    }

    /// Lock-free heap reservation of `bytes` (8-aligned). Returns the
    /// **pool-absolute** offset of the reserved region, or `None` when the
    /// heap cannot hold it (the caller wastes the entry and triggers a
    /// split). Call only while owning an undecided log entry, which is
    /// what fences off concurrent heap rewrites (see module docs).
    pub(crate) fn reserve_heap(&self, bytes: u64) -> Option<u64> {
        debug_assert!(bytes.is_multiple_of(8));
        self.heap_used_word()
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |used| {
                (used + bytes <= VAR_HEAP_CAP).then_some(used + bytes)
            })
            .ok()
            .map(|old| self.off() + vfield::HEAP + old)
    }

    /// Word-atomic byte store into the heap: `at` must be 8-aligned; the
    /// tail of the last word is zero-padded. The region must be exclusively
    /// owned (a fresh reservation or a split-frozen rewrite).
    fn store_heap_bytes(&self, at: u64, bytes: &[u8]) {
        debug_assert!(at.is_multiple_of(8));
        let mut i = 0;
        while i < bytes.len() {
            let take = (bytes.len() - i).min(8);
            let mut w = [0u8; 8];
            w[..take].copy_from_slice(&bytes[i..i + take]);
            self.pool().store_u64(at + i as u64, u64::from_le_bytes(w));
            i += 8;
        }
    }

    /// Word-atomic byte load from the heap into `buf[..len]`.
    fn load_heap_bytes(&self, at: u64, len: usize, buf: &mut [u8; MAX_KEY_LEN]) {
        debug_assert!(at.is_multiple_of(8) && len <= MAX_KEY_LEN);
        let mut i = 0;
        while i < len {
            let w = self.pool().load_u64(at + i as u64).to_le_bytes();
            let take = (len - i).min(8);
            buf[i..i + take].copy_from_slice(&w[..take]);
            i += 8;
        }
    }

    // ---- record directory --------------------------------------------------

    pub(crate) fn dir_word(&self, entry: usize) -> u64 {
        debug_assert!(entry < VAR_LEAF_CAPACITY);
        self.pool().load_u64(self.off() + dir_off(entry))
    }

    /// Packs and stores the directory word for `entry`. Single-writer
    /// before publication, exactly like the u64 leaf's `write_kv`.
    pub(crate) fn set_dir_word(&self, entry: usize, head: u32, rec_rel: u64, suffix_len: usize) {
        debug_assert!(entry < VAR_LEAF_CAPACITY && rec_rel < VAR_LEAF_BLOCK && suffix_len <= MAX_KEY_LEN);
        let w = ((head as u64) << 32) | (rec_rel << 16) | suffix_len as u64;
        self.pool().store_u64(self.off() + dir_off(entry), w);
    }

    /// Decodes a directory word into (head, block-relative record offset,
    /// stored suffix length).
    pub(crate) fn decode_dir(w: u64) -> (u32, u64, usize) {
        ((w >> 32) as u32, (w >> 16) & 0xFFFF, (w & 0xFFFF) as usize)
    }

    // ---- records ------------------------------------------------------------

    /// Writes one record (`[value][suffix]`) at the reserved absolute
    /// offset `rec_abs`.
    pub(crate) fn write_record(&self, rec_abs: u64, value: u64, suffix: &[u8]) {
        self.pool().store_u64(rec_abs, value);
        self.store_heap_bytes(rec_abs + 8, suffix);
    }

    /// Value of the record behind `entry`.
    pub(crate) fn read_value_entry(&self, entry: usize) -> u64 {
        let (_, rec_rel, _) = Self::decode_dir(self.dir_word(entry));
        self.pool().load_u64(self.off() + rec_rel)
    }

    /// Reconstructs the full key of `entry`: shared prefix + heap suffix.
    pub(crate) fn key_of_entry(&self, entry: usize) -> KeyBuf {
        let (_, rec_rel, klen) = Self::decode_dir(self.dir_word(entry));
        let mut buf = [0u8; MAX_KEY_LEN];
        let p = self.prefix_into(&mut buf);
        let mut sfx = [0u8; MAX_KEY_LEN];
        self.load_heap_bytes(self.off() + rec_rel + 8, klen.min(MAX_KEY_LEN - p), &mut sfx);
        let n = p + klen.min(MAX_KEY_LEN - p);
        buf[p..n].copy_from_slice(&sfx[..klen.min(MAX_KEY_LEN - p)]);
        KeyBuf::from_slice(&buf[..n])
    }

    /// Compares a full query key against the stored key of `entry`,
    /// heads first (one directory-word read; heap bytes only on a tie).
    /// Returns the ordering of `key` relative to the stored key, and
    /// whether the comparison had to fall through to heap bytes.
    pub(crate) fn cmp_key_entry(&self, key: &[u8], qhead: u32, prefix: &[u8], entry: usize) -> (CmpOrdering, bool) {
        let w = self.dir_word(entry);
        let (ehead, rec_rel, klen) = Self::decode_dir(w);
        match qhead.cmp(&ehead) {
            CmpOrdering::Equal => {
                let mut sfx = [0u8; MAX_KEY_LEN];
                let n = klen.min(MAX_KEY_LEN);
                self.load_heap_bytes(self.off() + rec_rel + 8, n, &mut sfx);
                (cmp_concat(key, prefix, &sfx[..n]), true)
            }
            o => (o, false),
        }
    }

    /// Binary search for `key` among the live entries of `slot`, 4-byte
    /// heads first. `ties` counts probes that had to read heap bytes.
    pub(crate) fn search_k(&self, slot: &SlotBuf, key: &[u8], ties: &obs::Counter) -> Result<usize, usize> {
        let mut pbuf = [0u8; MAX_KEY_LEN];
        let p = self.prefix_into(&mut pbuf);
        let qhead = key_head(key);
        let mut tie_count = 0u64;
        let (mut lo, mut hi) = (0usize, slot.len());
        let mut found = None;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let (ord, tied) = self.cmp_key_entry(key, qhead, &pbuf[..p], slot.entry(mid));
            tie_count += tied as u64;
            match ord {
                CmpOrdering::Less => hi = mid,
                CmpOrdering::Greater => lo = mid + 1,
                CmpOrdering::Equal => {
                    found = Some(mid);
                    break;
                }
            }
        }
        if tie_count > 0 {
            ties.add(tie_count);
        }
        match found {
            Some(pos) => Ok(pos),
            None => Err(lo),
        }
    }

    /// Exact-match check of `key` against `entry` (fingerprint-probe
    /// confirmation; counts a head-tie when heap bytes were read).
    pub(crate) fn key_matches(&self, key: &[u8], qhead: u32, prefix: &[u8], entry: usize, ties: &obs::Counter) -> bool {
        let (ord, tied) = self.cmp_key_entry(key, qhead, prefix, entry);
        if tied {
            ties.add(1);
        }
        ord == CmpOrdering::Equal
    }

    // ---- prefetch ------------------------------------------------------------

    /// Prefetch hints for the header, both slot lines, and the directory.
    pub(crate) fn prefetch_hot(&self) {
        self.pool().prefetch(self.off() + vfield::LOCKVER, 8);
        self.pool().prefetch(self.off() + vfield::PSLOT, 128);
        self.pool().prefetch(self.off() + vfield::DIR, vfield::HEAP - vfield::DIR);
    }

    // ---- initialisation --------------------------------------------------------

    /// Formats this block as an empty var leaf and persists the header +
    /// fence + slot lines.
    pub(crate) fn init_empty(&self, lf: &[u8], hf: Option<&[u8]>, next: u64) {
        self.reset_lockver();
        self.set_plogs(0);
        self.set_next(next);
        self.write_fences_and_meta(lf, hf);
        self.write_slot_seq(WhichSlot::Persistent, &SlotBuf::new());
        self.write_slot_seq(WhichSlot::Transient, &SlotBuf::new());
        self.persist_block(VAR_LEAF_BLOCK);
    }

    /// Writes the fence bytes + meta word and resets `heap_used` to the
    /// fence region. Caller must own the leaf exclusively (init, or a
    /// split/compaction with the splitting bit set).
    fn write_fences_and_meta(&self, lf: &[u8], hf: Option<&[u8]>) {
        debug_assert!(lf.len() <= MAX_KEY_LEN && hf.is_none_or(|h| h.len() <= MAX_KEY_LEN));
        let p = hf.map_or(0, |h| index_common::lcp(lf, h));
        self.store_heap_bytes(self.off() + vfield::HEAP, lf);
        if let Some(h) = hf {
            self.store_heap_bytes(self.off() + vfield::HEAP + round8(lf.len() as u64), h);
        }
        self.set_meta(p, lf.len(), hf.map_or(HF_INF, |h| h.len() as u16));
        self.set_heap_used(round8(lf.len() as u64) + hf.map_or(0, |h| round8(h.len() as u64)));
    }

    /// Rewrites this leaf's heap with `pairs` stored densely in key order
    /// under fresh fences, setting directory words for entries `0..n`.
    /// Slot arrays, counters and persists are the caller's job (they
    /// differ between split, compaction and batched load). The leaf must
    /// be private to the caller or split-frozen.
    ///
    /// # Panics
    /// Panics if the records do not fit the heap — callers guarantee fit
    /// by the split size argument (≤ 32 worst-case records + fences).
    pub(crate) fn rewrite_records(&self, pairs: &[(KeyBuf, u64)], lf: &[u8], hf: Option<&[u8]>) {
        debug_assert!(pairs.len() <= VAR_MAX_LIVE);
        self.write_fences_and_meta(lf, hf);
        let p = self.prefix_len();
        let mut used = self.fence_bytes();
        for (i, (k, v)) in pairs.iter().enumerate() {
            let key = k.as_slice();
            debug_assert!(key.len() >= p && key[..p] == lf[..p]);
            let suffix = key.get(p..).unwrap_or(&[]);
            let rec_len = 8 + round8(suffix.len() as u64);
            assert!(used + rec_len <= VAR_HEAP_CAP, "var-leaf rewrite overflows heap");
            let rec_abs = self.off() + vfield::HEAP + used;
            self.write_record(rec_abs, *v, suffix);
            self.set_dir_word(i, key_head(key), rec_abs - self.off(), suffix.len());
            used += rec_len;
        }
        self.set_heap_used(used);
    }
}

/// Lexicographic comparison of `q` against the concatenation `a ++ b`
/// without materialising it.
pub(crate) fn cmp_concat(q: &[u8], a: &[u8], b: &[u8]) -> CmpOrdering {
    let n = q.len().min(a.len());
    let c = q[..n].cmp(&a[..n]);
    if c != CmpOrdering::Equal {
        return c;
    }
    if q.len() < a.len() {
        return CmpOrdering::Less; // q is a proper prefix of a
    }
    q[a.len()..].cmp(b)
}

/// The variable-length-key encoding: prefix-truncated records in an
/// in-leaf heap behind a directory of 8-byte words, fenced by a low and
/// a high key (see module docs for the invariants it keeps).
pub(crate) struct VarFormat;

impl LeafFormat for VarFormat {
    type Key = [u8];
    type Owned = KeyBuf;
    /// `None` is the rightmost leaf's +∞.
    type Fence = Option<KeyBuf>;
    type Extent = [(u64, u64); 2];

    const BLOCK: u64 = VAR_LEAF_BLOCK;
    const MIN: KeyBuf = KeyBuf::MIN;
    const TOP: Option<KeyBuf> = None;
    const OVERLAP_FLUSH: bool = false;

    fn new_index(root: u64) -> InnerIndex {
        InnerIndex::new_bytes(root)
    }

    fn descend(index: &InnerIndex, key: &[u8], seq: bool) -> u64 {
        if seq {
            index.traverse_seq_k(key)
        } else {
            index.traverse_cached_k(key)
        }
    }

    fn route_split(index: &InnerIndex, sep: &KeyBuf, child: u64) {
        index.tree_update_k(sep.as_slice(), child);
    }

    fn bulk_build(index: &InnerIndex, routes: &[(KeyBuf, u64)]) {
        index.bulk_build_k(routes);
    }

    fn high_fence(leaf: Leaf<'_>) -> Option<KeyBuf> {
        VarLeaf::of(leaf).high_fence()
    }

    fn low_fence(leaf: Leaf<'_>) -> KeyBuf {
        VarLeaf::of(leaf).low_fence()
    }

    fn above(key: &[u8], fence: &Option<KeyBuf>) -> bool {
        fence.as_ref().is_some_and(|h| key > h.as_slice())
    }

    fn fence_at(key: KeyBuf) -> Option<KeyBuf> {
        Some(key)
    }

    fn successor(fence: &Option<KeyBuf>) -> Option<KeyBuf> {
        fence.as_ref()?.successor()
    }

    fn fp(key: &[u8]) -> u8 {
        fp_hash_bytes(key)
    }

    fn read_key(leaf: Leaf<'_>, e: usize) -> KeyBuf {
        VarLeaf::of(leaf).key_of_entry(e)
    }

    fn read_value(leaf: Leaf<'_>, e: usize) -> Value {
        VarLeaf::of(leaf).read_value_entry(e)
    }

    fn key_eq(leaf: Leaf<'_>, e: usize, key: &[u8], ties: &obs::Counter) -> bool {
        let v = VarLeaf::of(leaf);
        let qhead = key_head(key);
        if VarLeaf::decode_dir(v.dir_word(e)).0 != qhead {
            return false; // heads differ: no heap bytes needed
        }
        let mut pbuf = [0u8; MAX_KEY_LEN];
        let p = v.prefix_into(&mut pbuf);
        v.key_matches(key, qhead, &pbuf[..p], e, ties)
    }

    fn search(leaf: Leaf<'_>, slot: &SlotBuf, key: &[u8], ties: &obs::Counter) -> Result<usize, usize> {
        VarLeaf::of(leaf).search_k(slot, key, ties)
    }

    fn write_record(leaf: Leaf<'_>, e: usize, key: &[u8], value: Value) -> Option<[(u64, u64); 2]> {
        let v = VarLeaf::of(leaf);
        // Read only now, with entry `e` allocated and undecided: the
        // prefix cannot change until `e` is decided (module docs).
        let mut pbuf = [0u8; MAX_KEY_LEN];
        let p = v.prefix_into(&mut pbuf);
        let suffix = key.get(p..).unwrap_or(&[]);
        let rec_len = 8 + round8(suffix.len() as u64);
        let rec_abs = v.reserve_heap(rec_len)?;
        v.write_record(rec_abs, value, suffix);
        v.set_dir_word(e, key_head(key), rec_abs - leaf.off(), suffix.len());
        Some([(rec_abs, rec_len), (leaf.off() + dir_off(e), 8)])
    }

    fn heap_low(leaf: Leaf<'_>) -> bool {
        VarLeaf::of(leaf).heap_free() < VAR_SPLIT_RESERVE
    }

    fn prefetch(leaf: Leaf<'_>, _entries: usize) {
        VarLeaf::of(leaf).prefetch_hot();
    }

    fn write_pairs(leaf: Leaf<'_>, pairs: &[(KeyBuf, Value)], low: &KeyBuf, high: &Option<KeyBuf>) {
        VarLeaf::of(leaf).rewrite_records(pairs, low.as_slice(), high.as_ref().map(|h| h.as_slice()));
    }

    fn persist_image(leaf: Leaf<'_>, n: usize) {
        // One CLWB batch + one fence: the header line, the dirtied
        // directory words, and the used heap (fences and records).
        let off = leaf.off();
        leaf.pool().persist_many(&[
            (off + vfield::LOCKVER, 64),
            (off + vfield::DIR, n as u64 * 8),
            (off + vfield::HEAP, VarLeaf::of(leaf).heap_used()),
        ]);
    }

    fn chunk_len(rest: &[(KeyBuf, Value)]) -> usize {
        // Greedy under both budgets: slot count, and heap bytes computed
        // conservatively with *full* key lengths (suffixes can only be
        // shorter) plus the worst-case fence reserve.
        let mut heap = 0u64;
        let mut n = 0usize;
        while n < rest.len() && n < VAR_MAX_LIVE {
            let rec = 8 + round8(rest[n].0.len() as u64);
            if heap + rec > VAR_HEAP_CAP - VAR_FENCE_RESERVE {
                break;
            }
            heap += rec;
            n += 1;
        }
        debug_assert!(n > 0, "one record always fits an empty heap");
        n
    }

    fn recover_scratch(leaf: Leaf<'_>, slot: &SlotBuf) {
        // Heap reservations are plain counter bumps, so after a crash the
        // durable `heap_used` may still count reservations whose records
        // never published. The high-water mark of the *referenced*
        // records, floored at the fence region, reclaims all of them.
        let v = VarLeaf::of(leaf);
        let mut used = v.fence_bytes();
        for e in slot.iter() {
            let (_, rec_rel, suffix_len) = VarLeaf::decode_dir(v.dir_word(e));
            used = used.max(rec_rel - vfield::HEAP + 8 + round8(suffix_len as u64));
        }
        v.set_heap_used(used);
    }

    fn route(leaf: Leaf<'_>, _max_key: impl FnOnce() -> Option<KeyBuf>) -> Option<KeyBuf> {
        // Routed by the high fence, empty leaves included: keys are
        // prefix-truncated against the leaf's own fences, so a lookup must
        // land on exactly the leaf whose range covers it. The rightmost
        // leaf routes under the maximum representable key.
        Some(VarLeaf::of(leaf).high_fence().unwrap_or(KeyBuf::from_slice(&KEY_TOP)))
    }

    fn check_leaf(leaf: Leaf<'_>, prev: &mut Option<Option<KeyBuf>>, _live: bool) -> Result<(), String> {
        let off = leaf.off();
        let v = VarLeaf::of(leaf);
        let (lf, hf) = (v.low_fence(), v.high_fence());
        match prev {
            None if !lf.is_empty() => return Err(format!("leftmost leaf {off}: low fence {lf:?} not empty")),
            Some(None) => return Err(format!("leaf {off}: follows a +∞-fenced leaf")),
            Some(Some(expect)) if lf != *expect => {
                return Err(format!("leaf {off}: low fence {lf:?} != predecessor's high fence {expect:?}"));
            }
            _ => {}
        }
        let want_p = hf.as_ref().map_or(0, |h| index_common::lcp(lf.as_slice(), h.as_slice()));
        if v.prefix_len() != want_p {
            return Err(format!("leaf {off}: prefix_len {} != lcp(fences) {want_p}", v.prefix_len()));
        }
        match (leaf.next(), &hf) {
            (0, Some(_)) => return Err(format!("last leaf {off} has a finite high fence {hf:?}")),
            (n, None) if n != 0 => return Err(format!("leaf {off}: +∞ fence but a successor exists")),
            _ => {}
        }
        *prev = Some(hf);
        Ok(())
    }

    fn check_key(leaf: Leaf<'_>, k: &KeyBuf, high: &Option<KeyBuf>) -> Result<(), String> {
        let off = leaf.off();
        let lf = VarLeaf::of(leaf).low_fence();
        // Range is (lf, hf], except the leftmost leaf's empty low fence
        // also admits the empty key (nothing sorts below it, and
        // p = lcp("", hf) = 0 so truncation stays sound).
        if *k < lf || (*k == lf && !lf.is_empty()) {
            return Err(format!("leaf {off}: key {k:?} not above low fence {lf:?}"));
        }
        if let Some(h) = high {
            if k > h {
                return Err(format!("leaf {off}: key {k:?} above high fence {h:?}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{init_from_pairs, sorted_pairs};
    use nvm::PmemConfig;

    fn pool() -> PmemPool {
        PmemPool::new(PmemConfig::for_testing(1 << 16))
    }

    #[test]
    fn cmp_concat_is_lexicographic() {
        use CmpOrdering::*;
        assert_eq!(cmp_concat(b"abc", b"ab", b"c"), Equal);
        assert_eq!(cmp_concat(b"abb", b"ab", b"c"), Less);
        assert_eq!(cmp_concat(b"abd", b"ab", b"c"), Greater);
        assert_eq!(cmp_concat(b"a", b"ab", b"c"), Less);
        assert_eq!(cmp_concat(b"abcd", b"ab", b"c"), Greater);
        assert_eq!(cmp_concat(b"", b"", b""), Equal);
        assert_eq!(cmp_concat(b"x", b"", b""), Greater);
    }

    #[test]
    fn fences_and_meta_roundtrip() {
        let p = pool();
        let l = VarLeaf::at(&p, 0);
        l.init_empty(b"apple", Some(b"apricot"), 77);
        assert_eq!(l.low_fence().as_slice(), b"apple");
        assert_eq!(l.high_fence().unwrap().as_slice(), b"apricot");
        assert_eq!(l.prefix_len(), 2); // "ap"
        assert_eq!(l.next(), 77);
        assert!(VarFormat::above(b"apz", &l.high_fence()));
        assert!(!VarFormat::above(b"apricot", &l.high_fence()));
        // +∞ fence
        let r = VarLeaf::at(&p, 4096);
        r.init_empty(b"", None, 0);
        assert_eq!(r.high_fence(), None);
        assert_eq!(r.prefix_len(), 0);
        assert!(!VarFormat::above(&[0xFF; 64], &r.high_fence()));
    }

    #[test]
    fn records_reconstruct_and_search() {
        let p = pool();
        let l = VarLeaf::at(&p, 0);
        l.init_empty(b"app", Some(b"apz"), 0);
        let ties = obs::Counter::new();
        // In-range keys share prefix "ap".
        let keys: [&[u8]; 4] = [b"apple", b"apples", b"apricot", b"apt"];
        let mut slot = SlotBuf::new();
        for (i, k) in keys.iter().enumerate() {
            let e = l.alloc_entry().unwrap();
            let suffix = &k[l.prefix_len()..];
            let rec = l.reserve_heap(8 + round8(suffix.len() as u64)).unwrap();
            l.write_record(rec, 100 + i as u64, suffix);
            l.set_dir_word(e, key_head(k), rec - l.off(), suffix.len());
            slot.insert_at(i, e);
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(l.key_of_entry(slot.entry(i)).as_slice(), *k);
            assert_eq!(l.search_k(&slot, k, &ties), Ok(i), "key {k:?}");
            assert_eq!(l.read_value_entry(slot.entry(i)), 100 + i as u64);
        }
        assert_eq!(l.search_k(&slot, b"apportion", &ties), Err(2));
        assert_eq!(l.search_k(&slot, b"aq", &ties), Err(4));
        assert_eq!(l.search_k(&slot, b"aa", &ties), Err(0));
        // "apple" vs "apples" and "apt" share 4-byte heads → ties counted.
        assert!(ties.get() > 0);
    }

    #[test]
    fn rewrite_records_retruncates_against_new_fences() {
        let p = pool();
        let l = VarLeaf::at(&p, 0);
        l.init_empty(b"", None, 0);
        let pairs: Vec<(KeyBuf, u64)> = [&b"key:0001"[..], b"key:0002", b"key:0003"]
            .iter()
            .enumerate()
            .map(|(i, k)| (KeyBuf::from_slice(k), i as u64))
            .collect();
        l.rewrite_records(&pairs, b"key:0000", Some(b"key:0003"));
        assert_eq!(l.prefix_len(), 7); // "key:000"
        for (i, (k, v)) in pairs.iter().enumerate() {
            assert_eq!(l.key_of_entry(i), *k);
            assert_eq!(l.read_value_entry(i), *v);
        }
        // Suffixes are 1 byte → records are 16 bytes each.
        assert_eq!(l.heap_used(), round8(8) + round8(8) + 3 * 16);
    }

    #[test]
    fn reserve_heap_exhausts_exactly() {
        let p = pool();
        let l = VarLeaf::at(&p, 0);
        l.init_empty(b"", None, 0);
        let mut total = 0u64;
        while l.reserve_heap(72).is_some() {
            total += 72;
        }
        assert!(total <= VAR_HEAP_CAP && total + 72 > VAR_HEAP_CAP);
        assert!(l.heap_free() < 72);
    }

    #[test]
    fn init_from_pairs_is_durable() {
        let p = pool();
        let l = VarLeaf::at(&p, 4096);
        let pairs: Vec<(KeyBuf, u64)> = (0..10)
            .map(|i| (KeyBuf::from_slice(format!("user{i:04}").as_bytes()), i))
            .collect();
        let (lf, hf) = (KeyBuf::from_slice(b"user0000"), Some(KeyBuf::from_slice(b"user0009")));
        init_from_pairs::<VarFormat>(*l, &pairs, &lf, &hf, 8192);
        p.simulate_crash();
        let slot = l.read_slot_seq(WhichSlot::Persistent);
        assert_eq!(slot.len(), 10);
        assert_eq!(sorted_pairs::<VarFormat>(*l), pairs);
        assert_eq!(l.next(), 8192);
        assert_eq!(l.nlogs(), 10);
    }
}
