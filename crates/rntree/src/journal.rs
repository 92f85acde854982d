//! The split undo journal (paper §5.2.1: *"we first log the whole leaf
//! node in a pre-defined thread-local storage (undo logs)"*) — RNTree's
//! instantiation of [`nvm::UndoJournal`] at the leaf block size.

use nvm::{PmemPool, UndoJournal};

use crate::layout::LEAF_BLOCK;

/// The RNTree split-undo journal: whole-leaf pre-images, one slot per
/// concurrent splitter.
pub struct SplitJournal {
    inner: UndoJournal,
}

impl SplitJournal {
    /// Creates the runtime handle for a journal region (leaf-block-sized
    /// images). Call [`SplitJournal::format`] once at pool creation.
    pub fn new(region: u64, slots: usize) -> Self {
        Self::new_sized(region, slots, LEAF_BLOCK)
    }

    /// As [`SplitJournal::new`], but with an explicit image size — the
    /// variable-length leaf layout journals 4096-byte nodes.
    pub fn new_sized(region: u64, slots: usize, image: u64) -> Self {
        SplitJournal {
            inner: UndoJournal::new(region, slots, image),
        }
    }

    /// Total bytes the journal occupies for `slots` entries.
    pub fn region_bytes(slots: usize) -> u64 {
        UndoJournal::region_bytes(slots, LEAF_BLOCK)
    }

    /// As [`SplitJournal::region_bytes`] with an explicit image size.
    pub fn region_bytes_sized(slots: usize, image: u64) -> u64 {
        UndoJournal::region_bytes(slots, image)
    }

    /// Formats (invalidates) every slot; pool creation only.
    pub fn format(&self, pool: &PmemPool) {
        self.inner.format(pool);
    }

    /// Acquires a free slot, blocking while all are in use (bounded by the
    /// number of concurrent splits). Panics if `pool` dies meanwhile.
    pub fn acquire(&self, pool: &PmemPool) -> usize {
        self.inner.acquire(pool)
    }

    /// Writes and persists the undo image of the leaf at `leaf_off`, then
    /// marks the slot valid.
    pub fn log(&self, pool: &PmemPool, slot: usize, leaf_off: u64) {
        self.inner.log(pool, slot, leaf_off);
    }

    /// Invalidates the slot and returns it to the free list.
    pub fn clear(&self, pool: &PmemPool, slot: usize) {
        self.inner.clear(pool, slot);
    }

    /// Recovery: restores every valid slot's leaf image. Returns restored
    /// leaf offsets.
    pub fn recover(&self, pool: &PmemPool) -> Vec<u64> {
        self.inner.recover(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::PmemConfig;

    #[test]
    fn leaf_image_roundtrip_through_crash() {
        let pool = PmemPool::new(PmemConfig::for_testing(1 << 18));
        let j = SplitJournal::new(64, 2);
        j.format(&pool);
        let leaf = 0x8000u64;
        for w in 0..(LEAF_BLOCK / 8) {
            pool.store_u64(leaf + w * 8, w);
        }
        pool.persist(leaf, LEAF_BLOCK);
        let s = j.acquire(&pool);
        j.log(&pool, s, leaf);
        pool.store_u64(leaf, 0xBAD);
        pool.persist(leaf, 8);
        pool.simulate_crash();
        assert_eq!(j.recover(&pool), vec![leaf]);
        assert_eq!(pool.load_u64(leaf), 0);
        assert_eq!(pool.load_u64(leaf + 8), 1);
    }
}
