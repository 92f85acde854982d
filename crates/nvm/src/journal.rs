//! A generic undo journal for whole-block rewrites.
//!
//! NVM tree structures rewrite multi-line regions (leaf splits, in-place
//! compactions) that cannot be made atomic by ordering alone. The standard
//! fix — used by RNTree (§5.2.1 "log the whole leaf node … undo logs") and
//! FPTree's µLog — is an undo image: persist a copy of the victim block,
//! mark it valid, rewrite freely, invalidate. Crash recovery restores every
//! valid image, rolling any half-done rewrite back to its pre-image.
//!
//! The journal occupies a fixed pool region of `slots` entries, each one
//! header line plus a block image. Slot acquisition is an in-DRAM free
//! list guarded by a mutex + condvar (bounded by concurrent rewriters).
//! The wait is timed so that it notices a dead pool: a thread killed by a
//! persist trap mid-rewrite never returns its slot.
//!
//! Write ordering is the classic undo discipline: image (persisted), then
//! header-valid (persisted); invalidation persists the header again.
//! Restoration is idempotent.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::{PmemPool, CACHE_LINE};

const VALID: u64 = 0x4A4E_4C56_414C_4944; // "JNLVALID"-ish magic

/// How often a blocked [`UndoJournal::acquire`] re-checks pool liveness.
/// A release still wakes the waiter at once through the condvar.
const LIVENESS_POLL: Duration = Duration::from_millis(1);

/// A persistent undo journal for fixed-size block images.
pub struct UndoJournal {
    region: u64,
    slots: usize,
    block: u64,
    free: Mutex<Vec<usize>>,
    available: Condvar,
}

impl UndoJournal {
    /// Creates the runtime handle for a journal region starting at `region`
    /// with `slots` entries of `block`-byte images. The region is plain
    /// pool space; call [`UndoJournal::format`] once at pool creation.
    ///
    /// # Panics
    /// Panics if `slots == 0` or `block` is not a positive multiple of 64.
    pub fn new(region: u64, slots: usize, block: u64) -> Self {
        assert!(slots > 0, "journal needs at least one slot");
        assert!(block > 0 && block.is_multiple_of(CACHE_LINE as u64), "block must be line-aligned");
        assert_eq!(region % CACHE_LINE as u64, 0, "region must be line-aligned");
        UndoJournal {
            region,
            slots,
            block,
            free: Mutex::new((0..slots).collect()),
            available: Condvar::new(),
        }
    }

    /// Total bytes a journal with `slots` entries of `block`-byte images
    /// occupies.
    pub fn region_bytes(slots: usize, block: u64) -> u64 {
        slots as u64 * (CACHE_LINE as u64 + block)
    }

    /// Start offset of the region.
    pub fn region(&self) -> u64 {
        self.region
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    fn header_off(&self, slot: usize) -> u64 {
        self.region + slot as u64 * (CACHE_LINE as u64 + self.block)
    }

    fn image_off(&self, slot: usize) -> u64 {
        self.header_off(slot) + CACHE_LINE as u64
    }

    /// Formats (invalidates) every slot; pool creation only.
    pub fn format(&self, pool: &PmemPool) {
        for s in 0..self.slots {
            pool.store_u64(self.header_off(s), 0);
            pool.store_u64(self.header_off(s) + 8, 0);
            pool.persist(self.header_off(s), 16);
        }
    }

    /// Acquires a free slot, blocking while all are in use.
    ///
    /// # Panics
    /// Panics if `pool` is marked dead while this call waits (see
    /// [`PmemPool::check_alive`]): the slot it waits for may belong to a
    /// thread that a persist trap killed.
    pub fn acquire(&self, pool: &PmemPool) -> usize {
        let mut free = self.free.lock().unwrap();
        loop {
            if let Some(s) = free.pop() {
                return s;
            }
            if pool.is_dead() {
                // Unlock first: a panic under the guard would poison the
                // free list for every other thread.
                drop(free);
                pool.check_alive();
                free = self.free.lock().unwrap();
                continue;
            }
            free = self.available.wait_timeout(free, LIVENESS_POLL).unwrap().0;
        }
    }

    /// Writes and persists the undo image of the block at `block_off`, then
    /// marks the slot valid (persisted). The image is captured with atomic
    /// word loads, so concurrent atomic writers elsewhere in the block
    /// cannot cause data races.
    pub fn log(&self, pool: &PmemPool, slot: usize, block_off: u64) {
        debug_assert!(slot < self.slots);
        let img = self.image_off(slot);
        for w in 0..(self.block / 8) {
            let v = pool.load_u64(block_off + w * 8);
            pool.store_u64(img + w * 8, v);
        }
        pool.persist(img, self.block);
        pool.store_u64(self.header_off(slot), VALID);
        pool.store_u64(self.header_off(slot) + 8, block_off);
        pool.persist(self.header_off(slot), 16);
    }

    /// Invalidates the slot (persisted) and returns it to the free list.
    pub fn clear(&self, pool: &PmemPool, slot: usize) {
        debug_assert!(slot < self.slots);
        pool.store_u64(self.header_off(slot), 0);
        pool.persist(self.header_off(slot), 16);
        self.free.lock().unwrap().push(slot);
        self.available.notify_one();
    }

    /// Recovery: restores every valid slot's image (persisted) and
    /// invalidates the slot. Returns the restored block offsets.
    pub fn recover(&self, pool: &PmemPool) -> Vec<u64> {
        let mut restored = Vec::new();
        for s in 0..self.slots {
            if pool.load_u64(self.header_off(s)) != VALID {
                continue;
            }
            let block_off = pool.load_u64(self.header_off(s) + 8);
            let img = self.image_off(s);
            for w in 0..(self.block / 8) {
                let v = pool.load_u64(img + w * 8);
                pool.store_u64(block_off + w * 8, v);
            }
            pool.persist(block_off, self.block);
            pool.store_u64(self.header_off(s), 0);
            pool.persist(self.header_off(s), 16);
            restored.push(block_off);
        }
        restored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PmemConfig;

    const BLOCK: u64 = 256;

    fn setup() -> (PmemPool, UndoJournal) {
        let pool = PmemPool::new(PmemConfig::for_testing(1 << 18));
        let j = UndoJournal::new(64, 4, BLOCK);
        j.format(&pool);
        (pool, j)
    }

    #[test]
    fn log_and_restore_roundtrip() {
        let (pool, j) = setup();
        let blk = 0x8000u64;
        for w in 0..(BLOCK / 8) {
            pool.store_u64(blk + w * 8, w + 1);
        }
        pool.persist(blk, BLOCK);
        let s = j.acquire(&pool);
        j.log(&pool, s, blk);
        for w in 0..(BLOCK / 8) {
            pool.store_u64(blk + w * 8, 0xDEAD);
        }
        pool.persist(blk, BLOCK);
        pool.simulate_crash();
        assert_eq!(j.recover(&pool), vec![blk]);
        for w in 0..(BLOCK / 8) {
            assert_eq!(pool.load_u64(blk + w * 8), w + 1);
        }
        assert!(j.recover(&pool).is_empty(), "recovery must be idempotent");
    }

    #[test]
    fn cleared_slot_is_not_restored() {
        let (pool, j) = setup();
        let blk = 0x8000u64;
        pool.store_u64(blk, 42);
        pool.persist(blk, 8);
        let s = j.acquire(&pool);
        j.log(&pool, s, blk);
        j.clear(&pool, s);
        pool.store_u64(blk, 43);
        pool.persist(blk, 8);
        pool.simulate_crash();
        assert!(j.recover(&pool).is_empty());
        assert_eq!(pool.load_u64(blk), 43);
    }

    #[test]
    fn acquire_blocks_until_clear() {
        use std::sync::Arc;
        let (pool, j) = setup();
        let pool = Arc::new(pool);
        let j = Arc::new(j);
        let mut held: Vec<usize> = (0..4).map(|_| j.acquire(&pool)).collect();
        let j2 = Arc::clone(&j);
        let p2 = Arc::clone(&pool);
        let waiter = std::thread::spawn(move || {
            let s = j2.acquire(&p2);
            j2.clear(&p2, s);
            s
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        j.clear(&pool, held.pop().unwrap());
        assert!(waiter.join().unwrap() < 4);
        for s in held {
            j.clear(&pool, s);
        }
    }

    #[test]
    fn blocked_acquire_panics_when_the_pool_dies() {
        use std::sync::Arc;
        let (pool, j) = setup();
        let pool = Arc::new(pool);
        let j = Arc::new(j);
        // Every slot is held, as by rewriters a crash killed mid-rewrite.
        let _held: Vec<usize> = (0..4).map(|_| j.acquire(&pool)).collect();
        let (j2, p2) = (Arc::clone(&j), Arc::clone(&pool));
        let waiter = std::thread::spawn(move || j2.acquire(&p2));
        std::thread::sleep(std::time::Duration::from_millis(20));
        pool.arm_persist_trap(1);
        let trapped =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.persist(0, 8)));
        assert!(trapped.is_err());
        let err = waiter.join().expect_err("the waiter must die with the pool");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("pmem pool crashed"), "{msg:?}");
        // The free list is not poisoned: the survivors can still use it.
        pool.simulate_crash();
        j.clear(&pool, 0);
        assert_eq!(j.acquire(&pool), 0);
    }

    #[test]
    fn region_bytes_matches_layout() {
        assert_eq!(UndoJournal::region_bytes(4, BLOCK), 4 * (64 + BLOCK));
    }
}
