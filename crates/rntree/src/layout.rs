//! Persistent leaf-node layout (paper Figure 1, extended with the dual
//! slot array and a fence key).
//!
//! Each leaf is one fixed 1280-byte block (20 cache lines):
//!
//! ```text
//! line 0   header: lockver | nlogs | plogs | next | fence | (reserved)
//! line 1   persistent slot array  (count byte + 63 entry indices)
//! line 2   transient slot array   (semantically DRAM; rebuilt on recovery)
//! line 3+  64 KV log entries × 16 B (key u64, value u64), line-aligned
//! ```
//!
//! Crash-consistent state is exactly: the slot array line and the KV
//! entries it references, plus `next` and `fence` (which only change inside
//! the journaled split). `lockver`, `nlogs`, `plogs` and the transient slot
//! array are scratch that recovery recomputes (paper §5.4).

/// Log entries per leaf (paper's best-performing leaf size, §6.2).
pub const LEAF_CAPACITY: usize = 64;

/// Maximum live (slot-array-referenced) entries: the slot array has one
/// count byte, leaving 63 index bytes.
pub const MAX_LIVE: usize = 63;

/// Leaf block size in bytes (multiple of the cache line): one header line,
/// two slot-array lines, and 16 lines of KV log entries.
pub const LEAF_BLOCK: u64 = 1216;

/// Byte offsets of leaf fields within the block.
pub mod field {
    /// Combined lock/splitting/version word (paper Figure 2).
    pub const LOCKVER: u64 = 0;
    // (Offset 8 is reserved; the allocation counter lives inside the
    // lock/version word — see `version.rs` for why.)
    /// Number of log entries whose fate was decided under the leaf lock.
    pub const PLOGS: u64 = 16;
    /// Pool offset of the next leaf (0 = none).
    pub const NEXT: u64 = 24;
    /// Inclusive upper bound of this leaf's key range (`u64::MAX` for the
    /// rightmost leaf). Only changes inside the journaled split.
    pub const FENCE: u64 = 32;
    /// Reserved header word, at the *same* offset in the u64 and var
    /// layouts. Older builds kept a per-leaf slot-line layout tag here (a
    /// sorted array or a hash directory); this build writes and reads
    /// nothing at this offset, and refuses pools whose leaves may carry a
    /// non-zero tag (see `tree::roots::LEAF_POLICY`).
    pub const LAYOUT: u64 = 40;
    /// Persistent slot array (one cache line).
    pub const PSLOT: u64 = 64;
    /// Transient slot array (one cache line; dual-slot design).
    pub const TSLOT: u64 = 128;
    /// First KV log entry.
    pub const KV: u64 = 192;
}

/// Byte offset of log entry `i`'s key within the leaf block.
#[inline]
pub const fn kv_off(i: usize) -> u64 {
    field::KV + (i as u64) * 16
}

/// Layout of the **variable-length-key** leaf (`RnConfig::varlen_leaves`).
///
/// Each leaf is one fixed 4096-byte block (64 cache lines):
///
/// ```text
/// line 0      header: lockver | heap_used | plogs | next | meta
/// line 1      persistent slot array  (identical protocol to the u64 leaf)
/// line 2      transient slot array
/// lines 3–10  record directory: 64 × 8-byte words
///             word = key head (u32, bits 63..32)
///                  | record offset within the block (u16, bits 31..16)
///                  | stored suffix length (u16, bits 15..0)
/// lines 11+   key/value heap: low fence bytes, high fence bytes, then
///             8-aligned records [value u64][key suffix, zero-padded to 8]
/// ```
///
/// Keys are stored **prefix-truncated** against the leaf's fences: with
/// `p = lcp(low_fence, high_fence)` every in-range key starts with that
/// common prefix (see `varleaf.rs` for the lemma), so only `key[p..]` goes
/// to the heap and reconstruction is `low_fence[..p] ++ suffix`. The
/// 4-byte key *head* in the directory word is over the **full** key, so
/// searches compare heads first and touch heap bytes only on head ties.
///
/// Crash-consistent state is exactly the same shape as the u64 leaf: the
/// slot-array line plus the records (and directory words) it references,
/// plus `next` and the `meta`/fence region (which change only inside the
/// journaled split). `lockver`, `heap_used`, `plogs` and the transient
/// slot array are scratch that recovery recomputes.
pub mod varlen {
    /// Var-leaf block size in bytes (64 cache lines).
    pub const VAR_LEAF_BLOCK: u64 = 4096;

    /// Log entries (directory words) per var leaf — same count as the u64
    /// leaf, so the slot-array protocol carries over unchanged.
    pub const VAR_LEAF_CAPACITY: usize = super::LEAF_CAPACITY;

    /// Maximum live entries (the slot array has 63 index bytes).
    pub const VAR_MAX_LIVE: usize = super::MAX_LIVE;

    /// Byte offsets of var-leaf fields within the block. `LOCKVER`,
    /// `PLOGS`, `NEXT`, `LAYOUT`, `PSLOT` and `TSLOT` sit at the *same*
    /// offsets as the u64 layout on purpose: the lock/version/slot
    /// protocol of `leaf.rs` serves both.
    pub mod vfield {
        /// Combined lock/splitting/version/nlogs word (shared protocol).
        pub const LOCKVER: u64 = 0;
        /// Heap bytes consumed (fences + records), from `HEAP`. Scratch:
        /// recovery recomputes it from the slot-referenced records.
        pub const HEAP_USED: u64 = 8;
        /// Decided log entries (shared protocol).
        pub const PLOGS: u64 = 16;
        /// Pool offset of the next leaf (0 = none).
        pub const NEXT: u64 = 24;
        /// Packed fence metadata: `prefix_len` (bits 15..0), `lf_len`
        /// (bits 31..16), `hf_len` (bits 47..32, `0xFFFF` = +∞ fence).
        /// Changes only inside the journaled split.
        pub const META: u64 = 32;
        /// Reserved header word, at the same offset as the u64 leaf's
        /// (see [`crate::layout::field::LAYOUT`]).
        pub const LAYOUT: u64 = 40;
        /// Persistent slot array (one cache line).
        pub const PSLOT: u64 = 64;
        /// Transient slot array (one cache line).
        pub const TSLOT: u64 = 128;
        /// Record directory: 64 packed words.
        pub const DIR: u64 = 192;
        /// First heap byte.
        pub const HEAP: u64 = 704;
    }

    /// Heap capacity in bytes.
    pub const VAR_HEAP_CAP: u64 = VAR_LEAF_BLOCK - vfield::HEAP;

    /// `hf_len` sentinel for the rightmost leaf's +∞ fence.
    pub const HF_INF: u16 = 0xFFFF;

    /// Worst-case heap cost of one record: value word + a 64-byte suffix.
    pub const VAR_REC_MAX: u64 = 8 + index_common::MAX_KEY_LEN as u64;

    /// Worst-case heap cost of the two fences after a split (each a real
    /// key of at most 64 bytes, stored 8-aligned).
    pub const VAR_FENCE_RESERVE: u64 = 2 * index_common::MAX_KEY_LEN as u64;

    /// Split trigger: when the free heap falls below one worst-case
    /// record, the next decided entry splits the leaf even though the
    /// slot array still has room.
    pub const VAR_SPLIT_RESERVE: u64 = VAR_REC_MAX;

    /// Rounds a byte count up to the 8-byte heap granule.
    #[inline]
    pub const fn round8(n: u64) -> u64 {
        (n + 7) & !7
    }

    /// Byte offset of directory word `i` within the leaf block.
    #[inline]
    pub const fn dir_off(i: usize) -> u64 {
        vfield::DIR + (i as u64) * 8
    }

    // One `leaf.rs` lock/version/slot protocol serves both block families
    // (`format.rs`); that is only sound while the shared words sit at the
    // same offsets in both layouts.
    const _: () = {
        assert!(vfield::LOCKVER == super::field::LOCKVER);
        assert!(vfield::PLOGS == super::field::PLOGS);
        assert!(vfield::NEXT == super::field::NEXT);
        assert!(vfield::LAYOUT == super::field::LAYOUT);
        assert!(vfield::PSLOT == super::field::PSLOT);
        assert!(vfield::TSLOT == super::field::TSLOT);
        // A split's halves always fit the heap: at most 32 worst-case
        // records plus the two post-split fences.
        assert!(32 * VAR_REC_MAX + VAR_FENCE_RESERVE <= VAR_HEAP_CAP);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_line_aligned_and_fits() {
        assert_eq!(LEAF_BLOCK % 64, 0);
        assert_eq!(field::PSLOT % 64, 0);
        assert_eq!(field::TSLOT % 64, 0);
        assert_eq!(field::KV % 64, 0);
        assert_eq!(kv_off(LEAF_CAPACITY - 1) + 16, LEAF_BLOCK);
    }

    #[test]
    fn layout_tag_lives_in_header_line() {
        // The reserved word that once held the layout tag stays in the
        // header line, clear of every named header field, in both leaf
        // families.
        const { assert!(field::LAYOUT < 64) };
        const { assert!(field::LAYOUT >= field::FENCE + 8) };
        const { assert!(varlen::vfield::LAYOUT >= varlen::vfield::META + 8) };
    }

    #[test]
    fn kv_entries_never_straddle_lines() {
        for i in 0..LEAF_CAPACITY {
            let start = kv_off(i);
            assert_eq!(start / 64, (start + 15) / 64, "entry {i} straddles");
        }
    }

    #[test]
    fn var_layout_shares_protocol_offsets_and_fits() {
        // The var leaf reuses `leaf.rs`'s lock/version/slot machinery
        // verbatim; that is only sound while the shared words sit at the
        // same offsets in both layouts.
        assert_eq!(varlen::vfield::LOCKVER, field::LOCKVER);
        assert_eq!(varlen::vfield::PLOGS, field::PLOGS);
        assert_eq!(varlen::vfield::NEXT, field::NEXT);
        assert_eq!(varlen::vfield::LAYOUT, field::LAYOUT);
        assert_eq!(varlen::vfield::PSLOT, field::PSLOT);
        assert_eq!(varlen::vfield::TSLOT, field::TSLOT);
        assert_eq!(varlen::VAR_LEAF_BLOCK % 64, 0);
        assert_eq!(varlen::vfield::DIR % 64, 0);
        assert_eq!(varlen::vfield::HEAP % 64, 0);
        assert_eq!(varlen::dir_off(varlen::VAR_LEAF_CAPACITY), varlen::vfield::HEAP);
    }
}
