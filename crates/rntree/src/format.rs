//! [`LeafFormat`]: everything that differs between leaf record encodings.
//!
//! RNTree runs one per-leaf protocol (paper §4): lock-free log-entry
//! allocation → record write and flush (persist #1) → leaf lock → fence
//! check → HTM edit of the 64-byte slot line → slot-line persist (#2) →
//! transient-slot publish → decide the entry, splitting only on a
//! quiescent log. The lock/version word, the allocation counter, `plogs`,
//! `next` and both slot lines sit at the same offsets in every leaf block
//! (const-asserted in `layout.rs`), so [`Leaf`] serves that protocol for
//! every encoding.
//!
//! What differs is how a log entry holds its key and value, and how a
//! leaf stores its key range. That is this trait: the key type and its
//! fence check, key reads and searches over a slot image, writing a
//! record and naming what persist #1 must cover, the split trigger,
//! dense rewrites for splits and bulk loads, and the DRAM rebuild at
//! recovery. `tree.rs` and `recovery.rs` run one generic path over it,
//! compiled once per format: [`U64Format`] here (the paper's fixed
//! 16-byte entries) and [`crate::varleaf::VarFormat`] (variable-length
//! keys). Both keep the slot line a sorted array.

use std::borrow::Borrow;
use std::fmt::Debug;

use index_common::{InnerIndex, Key, Value};

use crate::fingerprint::fp_hash;
use crate::layout::{field, kv_off, LEAF_BLOCK, MAX_LIVE};
use crate::leaf::{Leaf, WhichSlot};
use crate::slots::SlotBuf;

/// One leaf record encoding (see module docs). Implemented by zero-sized
/// marker types; every method takes the shared [`Leaf`] handle.
pub(crate) trait LeafFormat {
    /// Borrowed key form.
    type Key: ?Sized + Ord + Debug;
    /// Owned key: scan cursors, split separators, batch elements.
    type Owned: Copy + Ord + Debug + Borrow<Self::Key>;
    /// A leaf's stored inclusive upper bound.
    type Fence: Clone + Debug;
    /// The byte ranges persist #1 of one record must cover.
    type Extent: AsRef<[(u64, u64)]>;

    /// Leaf block size in bytes.
    const BLOCK: u64;
    /// The least key: the leftmost leaf's exclusive lower bound.
    const MIN: Self::Owned;
    /// The rightmost leaf's +∞ fence.
    const TOP: Self::Fence;
    /// Persist #1 of a modify is one line issued as an asynchronous CLWB
    /// before the leaf lock and drained just before the slot-line persist
    /// (§4.2's flush/work overlap). Otherwise the record is made durable
    /// at once with one coalesced `persist_many`.
    const OVERLAP_FLUSH: bool;

    /// A fresh inner index over this format's separators.
    fn new_index(root: u64) -> InnerIndex;
    /// Descends to the leaf covering `key` (sequentially in `seq` mode).
    fn descend(index: &InnerIndex, key: &Self::Key, seq: bool) -> u64;
    /// Routes keys above `sep` to the new right sibling `child`.
    fn route_split(index: &InnerIndex, sep: &Self::Owned, child: u64);
    /// Rebuilds the inner levels from `(route key, leaf ref)` pairs.
    fn bulk_build(index: &InnerIndex, routes: &[(Self::Owned, u64)]);

    /// The leaf's inclusive upper bound.
    fn high_fence(leaf: Leaf<'_>) -> Self::Fence;
    /// The leaf's exclusive lower bound (`MIN` where it is not stored).
    fn low_fence(leaf: Leaf<'_>) -> Self::Owned;
    /// True when `key` lies above the fence: a stale route.
    fn above(key: &Self::Key, fence: &Self::Fence) -> bool;
    /// The fence of a leaf whose maximum key is `key`.
    fn fence_at(key: Self::Owned) -> Self::Fence;
    /// The least key above `fence`, where a scan resumes; `None` past the
    /// last representable key.
    fn successor(fence: &Self::Fence) -> Option<Self::Owned>;

    /// One-byte fingerprint of a key (the DRAM probe filter).
    fn fp(key: &Self::Key) -> u8;
    /// The full key stored in log entry `e`.
    fn read_key(leaf: Leaf<'_>, e: usize) -> Self::Owned;
    /// The value stored in log entry `e`.
    fn read_value(leaf: Leaf<'_>, e: usize) -> Value;
    /// Whether entry `e` holds `key`. `ties` counts compares that had to
    /// read key bytes beyond a cheaper head (byte keys only).
    fn key_eq(leaf: Leaf<'_>, e: usize, key: &Self::Key, ties: &obs::Counter) -> bool;
    /// Binary search over a sorted slot image: `Ok(pos)` when found,
    /// `Err(pos)` where `key` would be inserted.
    fn search(leaf: Leaf<'_>, slot: &SlotBuf, key: &Self::Key, ties: &obs::Counter) -> Result<usize, usize>;

    /// Writes `key`/`value` into the freshly allocated entry `e` and names
    /// the ranges persist #1 must cover; `None` when the leaf has no room
    /// for the record (the caller wastes the entry). Runs with no lock
    /// held, after the allocation: an undecided entry blocks every
    /// rewrite of the leaf, so whatever fence metadata this reads is
    /// stable until the entry is decided.
    fn write_record(leaf: Leaf<'_>, e: usize, key: &Self::Key, value: Value) -> Option<Self::Extent>;
    /// Split trigger beyond log-area consumption.
    fn heap_low(_leaf: Leaf<'_>) -> bool {
        false
    }
    /// Prefetch hints for what an op on this leaf is about to touch
    /// (log entries `0..entries` where the encoding keeps them inline).
    fn prefetch(leaf: Leaf<'_>, entries: usize);

    /// Rewrites the leaf's records densely in key order at entries
    /// `0..pairs.len()` under the range `(low, high]`. The leaf must be
    /// private to the caller or split-frozen; slot lines, counters and
    /// persists are the caller's job.
    fn write_pairs(leaf: Leaf<'_>, pairs: &[(Self::Owned, Value)], low: &Self::Owned, high: &Self::Fence);
    /// Persist #1 of a bulk-built leaf: one coalesced flush of the header
    /// line and the `n` records `write_pairs` just wrote.
    fn persist_image(leaf: Leaf<'_>, n: usize);
    /// How many of the sorted `rest` the next bulk-loaded leaf takes.
    fn chunk_len(rest: &[(Self::Owned, Value)]) -> usize;

    /// Recovery: resets scratch state beyond the shared counters.
    fn recover_scratch(_leaf: Leaf<'_>, _slot: &SlotBuf) {}
    /// Recovery: the key the rebuilt index routes this leaf under, or
    /// `None` to leave the leaf out. `max_key` yields its largest live key.
    fn route(leaf: Leaf<'_>, max_key: impl FnOnce() -> Option<Self::Owned>) -> Option<Self::Owned>;

    /// Verification: the leaf's range metadata against its predecessor's.
    /// `prev` carries state along the chain (starts `None`); `live` is
    /// false for an empty leaf.
    fn check_leaf(leaf: Leaf<'_>, prev: &mut Option<Self::Fence>, live: bool) -> Result<(), String>;
    /// Verification: live key `k` lies in the leaf's range.
    fn check_key(leaf: Leaf<'_>, k: &Self::Owned, high: &Self::Fence) -> Result<(), String>;
}

/// Live `(key, value)` pairs of the leaf in key order. Lock held or
/// quiescent.
pub(crate) fn sorted_pairs<F: LeafFormat>(leaf: Leaf<'_>) -> Vec<(F::Owned, Value)> {
    let slot = leaf.read_slot_seq(WhichSlot::Persistent);
    slot.iter().map(|e| (F::read_key(leaf, e), F::read_value(leaf, e))).collect()
}

/// Formats a private block with `pairs` under `(low, high]` and persists
/// the whole node (the right half of a split). The caller sets the
/// fingerprints.
pub(crate) fn init_from_pairs<F: LeafFormat>(
    leaf: Leaf<'_>,
    pairs: &[(F::Owned, Value)],
    low: &F::Owned,
    high: &F::Fence,
    next: u64,
) {
    debug_assert!(pairs.len() <= MAX_LIVE);
    leaf.reset_lockver();
    F::write_pairs(leaf, pairs, low, high);
    let slot = SlotBuf::identity(pairs.len());
    leaf.write_slot_seq(WhichSlot::Persistent, &slot);
    leaf.write_slot_seq(WhichSlot::Transient, &slot);
    leaf.set_nlogs(pairs.len() as u64);
    leaf.set_plogs(pairs.len() as u64);
    leaf.set_next(next);
    leaf.persist_block(F::BLOCK);
}

/// The paper's fixed leaf: 16-byte `(u64 key, u64 value)` log entries
/// and a single u64 fence.
pub(crate) struct U64Format;

impl LeafFormat for U64Format {
    type Key = Key;
    type Owned = Key;
    type Fence = Key;
    type Extent = [(u64, u64); 1];

    const BLOCK: u64 = LEAF_BLOCK;
    const MIN: Key = 0;
    const TOP: Key = u64::MAX;
    // A KV entry never straddles a line and its owner never rewrites it
    // before the fence, so the flush can overlap the locked phase.
    const OVERLAP_FLUSH: bool = true;

    fn new_index(root: u64) -> InnerIndex {
        InnerIndex::new(root)
    }

    #[inline]
    fn descend(index: &InnerIndex, key: &Key, seq: bool) -> u64 {
        if seq {
            index.traverse_seq(*key)
        } else {
            // Cached optimistic descent when a page cache is attached;
            // identical to traverse_tm otherwise.
            index.traverse_cached(*key)
        }
    }

    fn route_split(index: &InnerIndex, sep: &Key, child: u64) {
        index.tree_update(*sep, child);
    }

    fn bulk_build(index: &InnerIndex, routes: &[(Key, u64)]) {
        index.bulk_build(routes);
    }

    #[inline]
    fn high_fence(leaf: Leaf<'_>) -> Key {
        leaf.fence()
    }

    fn low_fence(_leaf: Leaf<'_>) -> Key {
        0
    }

    #[inline]
    fn above(key: &Key, fence: &Key) -> bool {
        key > fence
    }

    fn fence_at(key: Key) -> Key {
        key
    }

    #[inline]
    fn successor(fence: &Key) -> Option<Key> {
        fence.checked_add(1)
    }

    #[inline]
    fn fp(key: &Key) -> u8 {
        fp_hash(*key)
    }

    #[inline]
    fn read_key(leaf: Leaf<'_>, e: usize) -> Key {
        leaf.read_key(e)
    }

    #[inline]
    fn read_value(leaf: Leaf<'_>, e: usize) -> Value {
        leaf.read_value(e)
    }

    #[inline]
    fn key_eq(leaf: Leaf<'_>, e: usize, key: &Key, _ties: &obs::Counter) -> bool {
        leaf.read_key(e) == *key
    }

    #[inline]
    fn search(leaf: Leaf<'_>, slot: &SlotBuf, key: &Key, _ties: &obs::Counter) -> Result<usize, usize> {
        leaf.search(slot, *key)
    }

    #[inline]
    fn write_record(leaf: Leaf<'_>, e: usize, key: &Key, value: Value) -> Option<[(u64, u64); 1]> {
        leaf.write_kv(e, *key, value);
        Some([(leaf.off() + kv_off(e), 16)])
    }

    #[inline]
    fn prefetch(leaf: Leaf<'_>, entries: usize) {
        leaf.prefetch_hot(entries);
    }

    fn write_pairs(leaf: Leaf<'_>, pairs: &[(Key, Value)], _low: &Key, high: &Key) {
        for (i, &(k, v)) in pairs.iter().enumerate() {
            leaf.write_kv(i, k, v);
        }
        leaf.set_fence(*high);
    }

    fn persist_image(leaf: Leaf<'_>, n: usize) {
        leaf.pool().persist_many(&[
            (leaf.off() + field::LOCKVER, 64),
            (leaf.off() + field::KV, n as u64 * 16),
        ]);
    }

    fn chunk_len(rest: &[(Key, Value)]) -> usize {
        rest.len().min(MAX_LIVE)
    }

    fn route(_leaf: Leaf<'_>, max_key: impl FnOnce() -> Option<Key>) -> Option<Key> {
        // Empty leaves stay out of the index: nothing routes to them, and
        // a neighbour may later absorb their range.
        max_key()
    }

    fn check_leaf(leaf: Leaf<'_>, prev: &mut Option<Key>, live: bool) -> Result<(), String> {
        let (off, fence) = (leaf.off(), leaf.fence());
        // Fence monotonicity holds across non-empty leaves. Empty leaves
        // keep stale fences: recovery excludes them from the volatile
        // index, so a neighbour can later absorb (part of) their old
        // range and split with a smaller fence — harmless, because
        // nothing ever routes to an index-excluded leaf.
        if live {
            if let Some(p) = *prev {
                if fence < p {
                    return Err(format!("leaf {off}: fence {fence} < predecessor {p}"));
                }
            }
            *prev = Some(fence);
        }
        if leaf.next() == 0 && fence != u64::MAX {
            return Err(format!("last leaf {off} has fence {fence} != MAX"));
        }
        Ok(())
    }

    fn check_key(leaf: Leaf<'_>, k: &Key, high: &Key) -> Result<(), String> {
        if k > high {
            return Err(format!("leaf {}: key {k} above fence {high}", leaf.off()));
        }
        Ok(())
    }
}
