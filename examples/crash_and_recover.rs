//! Crash-consistency walk-through: what survives a power failure, why,
//! and how the two recovery paths differ (paper §5.4, Figure 7).
//!
//! Demonstrates:
//! 1. acknowledged operations surviving an abrupt crash,
//! 2. un-flushed state vanishing (the cache/NVM split of the simulator),
//! 3. uncontrolled cache evictions being harmless (write ordering),
//! 4. the split undo journal rolling back a torn split image,
//! 5. reconstruction (clean shutdown) vs crash recovery timings.
//!
//! ```text
//! cargo run -p system-tests --release --example crash_and_recover
//! ```

use std::sync::Arc;
use std::time::Instant;

use index_common::PersistentIndex;
use nvm::{PmemConfig, PmemPool, RootTable, UndoJournal};
use rntree::{RnConfig, RnTree, LEAF_BLOCK};

fn main() {
    let cfg = RnConfig::default();

    // --- 1+2: acknowledged ops survive; unflushed arena state does not.
    let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(64 << 20)));
    let tree = RnTree::create(Arc::clone(&pool), cfg);
    for k in 1..=10_000u64 {
        tree.insert(k, k * 3).unwrap();
    }
    // Scribble directly on the arena *without* persisting: this models
    // dirty cache lines that never reached the NVM.
    pool.store_u64(RootTable::END + 512, 0xDEAD_DEAD);
    drop(tree);
    pool.simulate_crash();
    let tree = RnTree::recover(Arc::clone(&pool), cfg);
    let mut ok = 0;
    for k in 1..=10_000u64 {
        if tree.find(k) == Some(k * 3) {
            ok += 1;
        }
    }
    println!("after crash: {ok}/10000 acknowledged inserts survived");
    assert_eq!(ok, 10_000);
    tree.verify_invariants().unwrap();

    // --- 3: random cache evictions between operations are harmless —
    // the write ordering (entry before slot line) holds under any
    // eviction schedule.
    for k in 10_001..=12_000u64 {
        tree.insert(k, k).unwrap();
        if k % 7 == 0 {
            pool.evict_random_lines(4);
        }
    }
    drop(tree);
    pool.simulate_crash();
    let tree = RnTree::recover(Arc::clone(&pool), cfg);
    for k in 10_001..=12_000u64 {
        assert_eq!(tree.find(k), Some(k), "evicted-era key {k} lost");
    }
    println!("eviction storm: all 2000 keys intact after crash");

    // --- 4: the split undo journal. Simulate a crash in the middle of a
    // split by hand: journal a leaf image, corrupt the leaf as a split
    // would mid-rewrite, crash, and let recovery restore it.
    let journal = UndoJournal::new(64, cfg.journal_slots, LEAF_BLOCK);
    let leftmost = tree.leftmost();
    let slot = journal.acquire(&pool);
    journal.log(&pool, slot, leftmost);
    for w in 0..16u64 {
        pool.store_u64(leftmost + 192 + w * 8, 0xBAD0_BAD0); // torn KV area
    }
    pool.persist(leftmost, LEAF_BLOCK);
    drop(tree);
    pool.simulate_crash();
    let t0 = Instant::now();
    let tree = RnTree::recover(Arc::clone(&pool), cfg);
    let crash_time = t0.elapsed();
    tree.verify_invariants().unwrap();
    assert_eq!(tree.find(1), Some(3), "journal failed to undo the torn split");
    println!("torn split rolled back by the undo journal ({crash_time:?})");

    // --- 5: reconstruction vs crash recovery timing.
    tree.close();
    drop(tree);
    let t0 = Instant::now();
    let tree = RnTree::reopen_clean(Arc::clone(&pool), cfg);
    let reconstruction = t0.elapsed();
    println!(
        "reconstruction {reconstruction:?} vs crash recovery {crash_time:?} ({:.1}× slower) — paper Figure 7 reports ≈1.6×",
        crash_time.as_secs_f64() / reconstruction.as_secs_f64().max(1e-9)
    );
    println!("final tree: {:?}", tree.stats());
}
