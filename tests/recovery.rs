//! Recovery-path integration tests: reconstruction vs crash recovery,
//! journal rollback of torn splits, allocator rebuild, and recovery
//! idempotence (paper §5.4).

use std::sync::Arc;

use index_common::PersistentIndex;
use nvm::{PmemConfig, PmemPool, UndoJournal};
use rntree::{RnConfig, RnTree, LEAF_BLOCK};

fn cfg() -> RnConfig {
    RnConfig {
        journal_slots: 4,
        ..RnConfig::default()
    }
}

fn pool() -> Arc<PmemPool> {
    Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 24)))
}

#[test]
fn reconstruction_equals_crash_recovery_result() {
    // Whatever the path, the recovered trees must serve identically.
    let p1 = pool();
    let p2 = pool();
    for p in [&p1, &p2] {
        let tree = RnTree::create(Arc::clone(p), cfg());
        for k in 1..=3_000u64 {
            tree.insert(k, k * 5).unwrap();
        }
        for k in (1..=3_000u64).step_by(5) {
            tree.remove(k).unwrap();
        }
        tree.close();
        drop(tree);
    }
    let clean = RnTree::reopen_clean(Arc::clone(&p1), cfg());
    p2.simulate_crash();
    let crashed = RnTree::recover(Arc::clone(&p2), cfg());
    for k in 1..=3_000u64 {
        assert_eq!(clean.find(k), crashed.find(k), "divergence at key {k}");
    }
    clean.verify_invariants().unwrap();
    crashed.verify_invariants().unwrap();
}

#[test]
fn torn_split_rolls_back_through_journal() {
    let p = pool();
    let tree = RnTree::create(Arc::clone(&p), cfg());
    for k in 1..=2_000u64 {
        tree.insert(k, k).unwrap();
    }
    let victim = tree.leftmost();
    drop(tree);

    // Forge a crash in the middle of a split: journal the pre-image, then
    // shred the leaf's KV area and slot line (persisted, as a partially
    // executed split rewrite would be).
    let journal = UndoJournal::new(64, 4, LEAF_BLOCK);
    let slot = journal.acquire(&p);
    journal.log(&p, slot, victim);
    for w in 0..(LEAF_BLOCK / 8) {
        p.store_u64(victim + w * 8, 0xDEAD_0000 + w);
    }
    p.persist(victim, LEAF_BLOCK);
    p.simulate_crash();

    let tree = RnTree::recover(Arc::clone(&p), cfg());
    tree.verify_invariants().unwrap();
    for k in 1..=2_000u64 {
        assert_eq!(tree.find(k), Some(k), "key {k} lost to torn split");
    }
}

#[test]
fn allocator_rebuild_reuses_orphaned_blocks() {
    let p = pool();
    let tree = RnTree::create(Arc::clone(&p), cfg());
    for k in 1..=2_000u64 {
        tree.insert(k, k).unwrap();
    }
    let leaves_before = tree.stats().leaves;
    drop(tree);
    p.simulate_crash();
    let tree = RnTree::recover(Arc::clone(&p), cfg());
    assert_eq!(tree.stats().leaves, leaves_before);
    // The tree keeps growing after recovery — allocator must have sound
    // state (no double allocation of live leaves).
    for k in 2_001..=6_000u64 {
        tree.insert(k, k).unwrap();
    }
    for k in 1..=6_000u64 {
        assert_eq!(tree.find(k), Some(k));
    }
    tree.verify_invariants().unwrap();
}

#[test]
fn recovery_is_idempotent() {
    let p = pool();
    let tree = RnTree::create(Arc::clone(&p), cfg());
    for k in 1..=1_500u64 {
        tree.insert(k, k).unwrap();
    }
    drop(tree);
    p.simulate_crash();
    // Recover, crash again *without* doing anything, recover again.
    let tree = RnTree::recover(Arc::clone(&p), cfg());
    drop(tree);
    p.simulate_crash();
    let tree = RnTree::recover(Arc::clone(&p), cfg());
    for k in 1..=1_500u64 {
        assert_eq!(tree.find(k), Some(k));
    }
    tree.verify_invariants().unwrap();
}

#[test]
fn empty_leaves_from_removals_survive_recovery() {
    let p = pool();
    let tree = RnTree::create(Arc::clone(&p), cfg());
    for k in 1..=1_000u64 {
        tree.insert(k, k).unwrap();
    }
    // Drain a middle band entirely: some leaves end up empty.
    for k in 200..=600u64 {
        tree.remove(k).unwrap();
    }
    drop(tree);
    p.simulate_crash();
    let tree = RnTree::recover(Arc::clone(&p), cfg());
    tree.verify_invariants().unwrap();
    for k in 1..=1_000u64 {
        let expect = if (200..=600).contains(&k) { None } else { Some(k) };
        assert_eq!(tree.find(k), expect, "key {k}");
    }
    // Keys in the drained band can be reinserted.
    for k in 200..=600u64 {
        tree.insert(k, k + 1).unwrap();
    }
    tree.verify_invariants().unwrap();
}

#[test]
fn scan_after_recovery_matches_prefix_order() {
    let p = pool();
    let tree = RnTree::create(Arc::clone(&p), cfg());
    for k in (1..=4_000u64).rev() {
        tree.insert(k, k).unwrap();
    }
    drop(tree);
    p.simulate_crash();
    let tree = RnTree::recover(Arc::clone(&p), cfg());
    let mut out = Vec::new();
    assert_eq!(tree.scan_n(1_000, 500, &mut out), 500);
    for (i, &(k, v)) in out.iter().enumerate() {
        assert_eq!(k, 1_000 + i as u64);
        assert_eq!(v, k);
    }
}

#[test]
#[should_panic(expected = "not an RNTree")]
fn recover_rejects_foreign_pool() {
    let p = pool();
    let _ = RnTree::recover(p, cfg());
}

#[test]
#[should_panic(expected = "journal_slots mismatch")]
fn recover_rejects_mismatched_journal_geometry() {
    let p = pool();
    let tree = RnTree::create(Arc::clone(&p), cfg());
    drop(tree);
    p.simulate_crash();
    let wrong = RnConfig {
        journal_slots: 8,
        ..RnConfig::default()
    };
    let _ = RnTree::recover(p, wrong);
}

#[test]
fn close_is_usable_after_more_writes() {
    // close() then continue writing, then crash: the clean flag must not
    // make stale headers trusted.
    let p = pool();
    let tree = RnTree::create(Arc::clone(&p), cfg());
    for k in 1..=500u64 {
        tree.insert(k, k).unwrap();
    }
    tree.close();
    for k in 501..=900u64 {
        tree.insert(k, k).unwrap();
    }
    drop(tree);
    p.simulate_crash();
    // The clean flag was persisted before the extra writes, so
    // reopen_clean would be wrong here — the implementation clears the
    // flag on open; after a crash the flag state reflects close() only.
    // Crash recovery must still produce the full acknowledged state.
    let tree = RnTree::recover(Arc::clone(&p), cfg());
    for k in 1..=900u64 {
        assert_eq!(tree.find(k), Some(k), "key {k}");
    }
    tree.verify_invariants().unwrap();
}
