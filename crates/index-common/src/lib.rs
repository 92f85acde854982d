//! # index-common — shared machinery for every persistent tree
//!
//! The paper's evaluation levels the playing field: *"The structures for all
//! the internal nodes are the same in all implementations. The only
//! difference is the design of the leaf node."* (§6). This crate is that
//! shared layer:
//!
//! * [`Key`] / [`Value`] — the 8-byte key-value model every tree stores.
//! * [`KeyBuf`] / [`KeyRef`] / [`KeyCodec`] — the byte-comparable
//!   variable-length key layer over it: typed keys map into lexicographic
//!   byte strings through an order-preserving codec ([`U64Key`] for the
//!   8-byte model), and every point operation takes either spelling
//!   through [`AnyKey`].
//! * [`InnerIndex`] — the volatile (DRAM) internal-node tree mapping keys to
//!   leaf-node offsets in persistent memory. It offers the two HTM functions
//!   of the paper's Table 2 that concern internal nodes —
//!   `htmTreeTraverse` ([`InnerIndex::traverse_tm`]) and `htmTreeUpdate`
//!   ([`InnerIndex::tree_update`]) — plus a sequential traversal for
//!   single-threaded phases and a bottom-up bulk build for recovery.
//! * [`PersistentIndex`] — the operation interface shared by RNTree and all
//!   baselines, including conditional-write semantics (§3.3).
//!
//! Internal nodes live in DRAM on purpose (paper §4): rebalancing them needs
//! no persistence, HTM sections over them never flush, and recovery
//! reconstructs them from the leaf chain.

#![deny(missing_docs)]

mod combine;
mod inner;
mod instrument;
mod key;
mod sharded;
mod traits;

#[doc(hidden)]
pub mod testing;

pub use combine::{CommitStats, GroupCommit, GroupCommitConfig, SLOTS_PER_SHARD};
pub use inner::{DescentStats, InnerIndex, INNER_FANOUT};
pub use instrument::Instrumented;
pub use key::{key_head, lcp, AnyKey, KeyBuf, KeyCodec, KeyRef, U64Key, MAX_KEY_LEN};
pub use sharded::ShardedIndex;
pub use traits::{OpError, PersistentIndex, RecoverableIndex, TreeStats, WriteOp};

/// Key type: 64-bit, as in the paper's YCSB-style evaluation.
pub type Key = u64;

/// Value type: 64-bit (a payload word or a pointer to out-of-line data).
pub type Value = u64;

/// Tag bit marking a child reference as a persistent-leaf offset rather
/// than a DRAM inner-node pointer.
const LEAF_TAG: u64 = 1 << 63;

/// Encodes a persistent leaf offset as a child reference.
#[inline]
pub fn leaf_ref(off: u64) -> u64 {
    debug_assert_eq!(off & LEAF_TAG, 0, "leaf offset too large");
    off | LEAF_TAG
}

/// True if a child reference points at a persistent leaf.
#[inline]
pub fn is_leaf_ref(r: u64) -> bool {
    r & LEAF_TAG != 0
}

/// Extracts the leaf offset from a leaf child reference.
#[inline]
pub fn leaf_off(r: u64) -> u64 {
    debug_assert!(is_leaf_ref(r));
    r & !LEAF_TAG
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_ref_roundtrip() {
        let r = leaf_ref(4096);
        assert!(is_leaf_ref(r));
        assert_eq!(leaf_off(r), 4096);
        assert!(!is_leaf_ref(4096));
    }
}
