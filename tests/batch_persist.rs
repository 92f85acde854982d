//! Batched-write durability regression tests.
//!
//! Pins down the persist accounting the PR3 pipeline promises:
//!
//! * `load_sorted` issues exactly **2 persistent instructions per leaf**
//!   (header+KV batch, then the slot line) plus a constant 3 for the undo
//!   journal (pre-image + header on log, header on clear) — independent of
//!   key count within a leaf.
//! * `insert_batch` issues exactly **2 persistent instructions per
//!   touched leaf** when no split fires: one coalesced KV batch and one
//!   slot-line persist per same-leaf run, however many keys the run holds.
//! * Crashing at *every* persist boundary inside a batch leaves the tree
//!   recoverable with a run-granular **prefix of the sorted batch**
//!   applied and every pre-batch key intact.
//! * Crashing at every persist boundary inside `load_sorted` recovers to
//!   an **empty** tree (all-or-nothing: the journaled head-leaf pre-image
//!   rolls the whole load back).
//!
//! The crash sweeps run over both leaf encodings — u64 leaves and
//! variable-length leaves — through the same u64 API, which routes var
//! trees into their byte-key batch paths.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use index_common::PersistentIndex;
use nvm::{PmemConfig, PmemPool};
use rntree::{RnConfig, RnTree};

/// Keys per leaf built by the bulk loader (layout MAX_LIVE).
const LEAF_FILL: u64 = 63;

fn persists(pool: &PmemPool) -> u64 {
    pool.stats().snapshot().persists
}

fn seq_pairs(lo: u64, hi: u64) -> Vec<(u64, u64)> {
    (lo..=hi).map(|k| (k, k * 10 + 1)).collect()
}

/// One config per leaf encoding: u64 keys, var keys.
fn every_encoding() -> [RnConfig; 2] {
    [RnConfig::default(), RnConfig { varlen_leaves: true, ..RnConfig::default() }]
}

#[test]
fn load_sorted_is_two_persists_per_leaf_plus_journal() {
    for dual in [true, false] {
        for keys in [1u64, 62, 63, 64, 200, 1000] {
            let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 23)));
            let cfg = RnConfig {
                dual_slot: dual,
                journal_slots: 2,
                ..RnConfig::default()
            };
            let tree = RnTree::create(Arc::clone(&pool), cfg);
            let pairs = seq_pairs(1, keys);
            let leaves = keys.div_ceil(LEAF_FILL);

            let before = persists(&pool);
            tree.load_sorted(&pairs).unwrap();
            let spent = persists(&pool) - before;
            assert_eq!(
                spent,
                2 * leaves + 3,
                "load_sorted({keys} keys, dual={dual}): want 2*{leaves}+3 persists"
            );
            assert_eq!(tree.stats().leaves, leaves, "{keys} keys (dual={dual})");
            assert_eq!(tree.stats().entries, keys, "{keys} keys (dual={dual})");
            for &(k, v) in &pairs {
                assert_eq!(tree.find(k), Some(v), "key {k} (dual={dual})");
            }
            tree.verify_invariants().unwrap();
        }
    }
}

#[test]
fn load_sorted_of_nothing_persists_nothing() {
    let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 22)));
    let tree = RnTree::create(Arc::clone(&pool), RnConfig::default());
    let before = persists(&pool);
    tree.load_sorted(&[]).unwrap();
    assert_eq!(persists(&pool) - before, 0);
    assert_eq!(tree.stats().entries, 0);
}

#[test]
fn insert_batch_is_two_persists_per_touched_leaf() {
    for dual in [true, false] {
        let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 22)));
        let cfg = RnConfig {
            dual_slot: dual,
            journal_slots: 2,
            ..RnConfig::default()
        };
        let tree = RnTree::create(Arc::clone(&pool), cfg);

        // One leaf, one run: 50 keys for 2 persists total.
        let mut batch: Vec<(u64, u64)> = (1..=50u64).map(|k| (k * 10, k)).collect();
        let before = persists(&pool);
        assert!(tree.insert_batch(&mut batch).into_iter().all(|r| r.is_ok()));
        assert_eq!(persists(&pool) - before, 2, "single-run batch (dual={dual})");

        // Refill the leaf's log quota via a split: 13 more spaced keys push
        // plogs to the trigger, leaving two half-full leaves with fresh
        // log budgets.
        for k in 51..=63u64 {
            tree.insert(k * 10, k).unwrap();
        }
        let splits = tree.stats().splits;
        assert_eq!(splits, 1, "the 63rd decision must have split (dual={dual})");

        // A batch spanning both leaves: exactly 2 runs -> 4 persists, and
        // no further split (both leaves have ample log entries left).
        let mut batch = vec![(15u64, 1), (25, 2), (35, 3), (405, 4), (415, 5), (625, 6)];
        let before = persists(&pool);
        assert!(tree.insert_batch(&mut batch).into_iter().all(|r| r.is_ok()));
        assert_eq!(persists(&pool) - before, 4, "two-leaf batch (dual={dual})");
        assert_eq!(tree.stats().splits, splits, "no split expected (dual={dual})");

        // All-duplicate batch: nothing changed, nothing persisted.
        let mut batch = vec![(15u64, 9), (405, 9)];
        let before = persists(&pool);
        assert!(tree.insert_batch(&mut batch).into_iter().all(|r| r.is_err()));
        assert_eq!(persists(&pool) - before, 0, "all-dup batch (dual={dual})");
        tree.verify_invariants().unwrap();
    }
}

/// Crashing at every persist inside an `insert_batch` must recover to all
/// pre-batch keys plus a prefix of the sorted batch (runs commit in sorted
/// key order, each atomically at its slot-line persist).
#[test]
fn crash_mid_insert_batch_recovers_a_sorted_prefix() {
    let old_keys: Vec<(u64, u64)> = seq_pairs(1, 100);
    // Fresh keys interleaved over the whole range: several runs, and the
    // 63-entry log quota forces at least one split along the way.
    let batch_template: Vec<(u64, u64)> = (1..=80u64).map(|k| (k * 13 + 1000, k)).collect();
    let mut sorted_batch = batch_template.clone();
    sorted_batch.sort_by_key(|p| p.0);

    for cfg in every_encoding() {
        let tag = format!("varlen={}", cfg.varlen_leaves);
        // How many persists does the whole batch take, uninterrupted?
        let total = {
            let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 23)));
            let tree = RnTree::create(Arc::clone(&pool), cfg);
            tree.load_sorted(&old_keys).unwrap();
            let before = persists(&pool);
            let mut batch = batch_template.clone();
            assert!(tree.insert_batch(&mut batch).into_iter().all(|r| r.is_ok()), "{tag}");
            persists(&pool) - before
        };
        assert!(total >= 4, "want a multi-persist batch, got {total} ({tag})");

        for nth in 1..=total {
            let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 23)));
            let tree = RnTree::create(Arc::clone(&pool), cfg);
            tree.load_sorted(&old_keys).unwrap();

            pool.arm_persist_trap(nth);
            let mut batch = batch_template.clone();
            let crashed = catch_unwind(AssertUnwindSafe(|| {
                let _ = tree.insert_batch(&mut batch);
            }))
            .is_err();
            pool.disarm_persist_trap();
            assert!(crashed, "trap {nth}/{total} must fire mid-batch ({tag})");
            drop(tree);
            pool.simulate_crash();

            let tree = RnTree::recover(Arc::clone(&pool), cfg);
            tree.verify_invariants()
                .unwrap_or_else(|e| panic!("trap {nth} ({tag}): {e}"));
            for &(k, v) in &old_keys {
                assert_eq!(tree.find(k), Some(v), "trap {nth} ({tag}): pre-batch key {k} lost");
            }
            // Batch keys present after recovery must be a prefix of the
            // sorted batch: once one is missing, all later ones must be
            // missing too.
            let mut missing_seen = false;
            let mut applied = 0u64;
            for &(k, v) in &sorted_batch {
                match tree.find(k) {
                    Some(got) => {
                        assert!(
                            !missing_seen,
                            "trap {nth} ({tag}): key {k} present after an earlier batch key was lost"
                        );
                        assert_eq!(got, v, "trap {nth} ({tag}): key {k} has a torn value");
                        applied += 1;
                    }
                    None => missing_seen = true,
                }
            }
            assert_eq!(
                tree.stats().entries,
                old_keys.len() as u64 + applied,
                "trap {nth} ({tag}): recovered entry count"
            );
        }
    }
}

/// Crashing at every persist inside `load_sorted` must recover to an empty
/// tree: the journaled head-leaf pre-image makes the load all-or-nothing.
#[test]
fn crash_mid_load_sorted_recovers_empty() {
    let pairs = seq_pairs(1, 150); // 3 leaves -> 2*3+3 = 9 persists
    for cfg in every_encoding() {
        let tag = format!("varlen={}", cfg.varlen_leaves);
        let total = {
            let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 23)));
            let tree = RnTree::create(Arc::clone(&pool), cfg);
            let before = persists(&pool);
            tree.load_sorted(&pairs).unwrap();
            persists(&pool) - before
        };
        assert_eq!(total, 9, "3-leaf load must take 2*3+3 persists ({tag})");

        for nth in 1..=total {
            let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 23)));
            let tree = RnTree::create(Arc::clone(&pool), cfg);

            pool.arm_persist_trap(nth);
            let crashed = catch_unwind(AssertUnwindSafe(|| {
                let _ = tree.load_sorted(&pairs);
            }))
            .is_err();
            pool.disarm_persist_trap();
            assert!(crashed, "trap {nth}/{total} must fire mid-load ({tag})");
            drop(tree);
            pool.simulate_crash();

            let tree = RnTree::recover(Arc::clone(&pool), cfg);
            tree.verify_invariants()
                .unwrap_or_else(|e| panic!("trap {nth} ({tag}): {e}"));
            assert_eq!(tree.stats().entries, 0, "trap {nth} ({tag}): load must be all-or-nothing");
            for &(k, _) in &pairs {
                assert_eq!(tree.find(k), None, "trap {nth} ({tag}): key {k} leaked");
            }
            // The rolled-back tree must still be fully usable — including
            // the blocks the aborted load had claimed, which recovery
            // reclaims.
            tree.load_sorted(&pairs).unwrap();
            for &(k, v) in &pairs {
                assert_eq!(tree.find(k), Some(v), "trap {nth} ({tag}): post-recovery reload");
            }
            tree.verify_invariants().unwrap();
        }
    }
}

/// The batch path and the per-op path must agree on what ends up durable:
/// build the same key set both ways, crash, and compare recovered contents.
#[test]
fn batched_and_per_op_trees_recover_identically() {
    let keys: Vec<(u64, u64)> = (1..=400u64).map(|k| (k * 7, k)).collect();

    let recover_set = |cfg: RnConfig, batched: bool| -> BTreeSet<(u64, u64)> {
        let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 23)));
        let tree = RnTree::create(Arc::clone(&pool), cfg);
        if batched {
            let mut batch = keys.clone();
            assert!(tree.insert_batch(&mut batch).into_iter().all(|r| r.is_ok()));
        } else {
            for &(k, v) in &keys {
                tree.insert(k, v).unwrap();
            }
        }
        drop(tree);
        pool.simulate_crash();
        let tree = RnTree::recover(Arc::clone(&pool), cfg);
        tree.verify_invariants().unwrap();
        let mut out = Vec::new();
        tree.scan_n(0, keys.len() + 10, &mut out);
        out.into_iter().collect()
    };

    for cfg in every_encoding() {
        let batched = recover_set(cfg, true);
        assert_eq!(batched.len(), keys.len(), "varlen={}", cfg.varlen_leaves);
        assert_eq!(batched, recover_set(cfg, false), "varlen={}", cfg.varlen_leaves);
    }
}
