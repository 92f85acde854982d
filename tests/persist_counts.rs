//! Table 1 regression tests: RNTree's modify operations must keep their
//! exact persistent-instruction counts — insert 2, update 2, remove 1,
//! find 0 — in both slot variants, and with the DRAM page cache enabled
//! or disabled. The fingerprint table and the page cache are DRAM-only
//! and the overlapped KV flush still ends in exactly one fence, so all of
//! them must be invisible to the persist counters; these tests pin that
//! down op-by-op (the Table 1 experiment only reports batch minima).
//!
//! Also covers the transient-rebuild rule: after a crash or a clean
//! reopen, the fingerprint table must be re-derived from the persistent
//! slot arrays (checked via `verify_invariants`, whose probe check fails
//! on any live key the table cannot find).

use std::sync::Arc;

use index_common::PersistentIndex;
use nvm::{PmemConfig, PmemPool};
use rntree::{RnConfig, RnTree};

fn persists(pool: &PmemPool) -> u64 {
    pool.stats().snapshot().persists
}

#[test]
fn modify_persist_counts_are_exact_in_every_variant() {
    for dual in [true, false] {
        for cache_frames in [0usize, 64] {
            let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 22)));
            let cfg = RnConfig {
                dual_slot: dual,
                journal_slots: 2,
                cache_frames,
                ..RnConfig::default()
            };
            let tree = RnTree::create(Arc::clone(&pool), cfg);
            let tag = format!("dual={dual} cache={cache_frames}");

            // 20 inserts + 10 updates + 5 removes allocate 30 log entries
            // in one 63-entry leaf: no split/compaction can fire, so every
            // op must show its exact steady-state cost.
            for k in 1..=20u64 {
                let before = persists(&pool);
                tree.insert(k, k * 3).unwrap();
                assert_eq!(persists(&pool) - before, 2, "insert {k} ({tag})");
            }
            for k in 1..=10u64 {
                let before = persists(&pool);
                tree.update(k, k * 3 + 1).unwrap();
                assert_eq!(persists(&pool) - before, 2, "update {k} ({tag})");
            }
            for k in 16..=20u64 {
                let before = persists(&pool);
                tree.remove(k).unwrap();
                assert_eq!(persists(&pool) - before, 1, "remove {k} ({tag})");
            }
            let before = persists(&pool);
            assert_eq!(tree.find(5), Some(16));
            assert_eq!(tree.find(12), Some(36));
            assert_eq!(tree.find(18), None);
            assert_eq!(persists(&pool) - before, 0, "find persisted ({tag})");
            tree.verify_invariants().unwrap();
        }
    }
}

/// Whole-stream version of the cache dimension above: a split-heavy
/// insert stream (plenty of fills, refused admissions, and invalidations
/// on the cached side) must cost exactly the same persists with and without
/// the DRAM page cache, including the finds that fault it in.
#[test]
fn cache_churn_adds_zero_persists_across_a_split_heavy_stream() {
    let totals: Vec<u64> = [0usize, 8]
        .into_iter()
        .map(|cache_frames| {
            let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 22)));
            let cfg = RnConfig {
                journal_slots: 2,
                cache_frames,
                ..RnConfig::default()
            };
            let tree = RnTree::create(Arc::clone(&pool), cfg);
            let base = persists(&pool);
            // 30 k ascending keys build ~1 k leaves and a two-level inner
            // index of well over 8 nodes, so the 8-frame cache fills up
            // and serves the rest of its misses without a fill.
            for k in 1..=30_000u64 {
                tree.insert(k, k).unwrap();
                if k % 5 == 0 {
                    assert_eq!(tree.find(k / 2 + 1), Some(k / 2 + 1));
                }
            }
            if cache_frames > 0 {
                let s = tree.cache_stats().unwrap();
                assert!(
                    s.fills > 0 && s.invalidations > 0 && s.misses > s.fills,
                    "stream did not churn the cache: {s:?}"
                );
            }
            persists(&pool) - base
        })
        .collect();
    assert_eq!(totals[0], totals[1], "cache changed persist totals: {totals:?}");
}

#[test]
fn failed_conditionals_do_not_touch_the_slot_line() {
    let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 22)));
    let cfg = RnConfig {
        journal_slots: 2,
        ..RnConfig::default()
    };
    let tree = RnTree::create(Arc::clone(&pool), cfg);
    tree.insert(1, 1).unwrap();
    // A rejected conditional has already flushed its log entry (1 persist)
    // but must not flush the slot line; a missed remove persists nothing.
    let before = persists(&pool);
    assert!(tree.insert(1, 2).is_err());
    assert_eq!(persists(&pool) - before, 1, "duplicate insert");
    let before = persists(&pool);
    assert!(tree.update(9, 9).is_err());
    assert_eq!(persists(&pool) - before, 1, "missing update");
    let before = persists(&pool);
    assert!(tree.remove(9).is_err());
    assert_eq!(persists(&pool) - before, 0, "missing remove");
}

#[test]
fn fingerprints_are_rebuilt_by_crash_recovery() {
    let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 22)));
    let cfg = RnConfig {
        journal_slots: 4,
        ..RnConfig::default()
    };
    let tree = RnTree::create(Arc::clone(&pool), cfg);
    for k in 1..=500u64 {
        tree.insert(k, k * 7).unwrap();
    }
    assert!(tree.rn_stats().splits > 0, "want a multi-leaf tree");
    drop(tree);
    pool.simulate_crash();

    let tree = RnTree::recover(Arc::clone(&pool), cfg);
    // verify_invariants probes the fingerprint table for every live key;
    // a non-rebuilt (zeroed) table would fail it for almost all of them.
    tree.verify_invariants().unwrap();
    for k in 1..=500u64 {
        assert_eq!(tree.find(k), Some(k * 7), "key {k}");
    }
    // The probe hit paths (update, remove) must work on recovered state.
    for k in 1..=100u64 {
        tree.update(k, k).unwrap();
        assert_eq!(tree.find(k), Some(k));
    }
    for k in 101..=150u64 {
        tree.remove(k).unwrap();
        assert_eq!(tree.find(k), None);
    }
    tree.verify_invariants().unwrap();
}

#[test]
fn fingerprints_are_rebuilt_by_clean_reopen() {
    let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 22)));
    let cfg = RnConfig {
        journal_slots: 4,
        ..RnConfig::default()
    };
    let tree = RnTree::create(Arc::clone(&pool), cfg);
    for k in 1..=300u64 {
        tree.insert(k, k + 9).unwrap();
    }
    tree.close();
    drop(tree);
    pool.simulate_crash();

    let tree = RnTree::reopen_clean(Arc::clone(&pool), cfg);
    tree.verify_invariants().unwrap();
    for k in 1..=300u64 {
        assert_eq!(tree.find(k), Some(k + 9));
    }
    for k in 1..=50u64 {
        tree.update(k, k).unwrap();
    }
    tree.verify_invariants().unwrap();
}

/// Var-key (byte-key) twin of the exact-count matrix: the heap-slotted
/// leaf coalesces its record + directory-word flush into ONE
/// `persist_many`, so every `*_k` modify op must cost exactly what the
/// u64 op costs — insert 2, update 2, remove 1, find 0 — across the
/// slot-variant and page-cache dimensions.
#[test]
fn varlen_modify_persist_counts_are_exact_in_every_variant() {
    for dual in [true, false] {
        for cache_frames in [0usize, 64] {
            let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 22)));
            let cfg = RnConfig {
                varlen_leaves: true,
                dual_slot: dual,
                journal_slots: 2,
                cache_frames,
                ..RnConfig::default()
            };
            let tree = RnTree::create(Arc::clone(&pool), cfg);
            let tag = format!("varlen dual={dual} cache={cache_frames}");
            let key = |k: u64| format!("user/{k:04}").into_bytes();

            // 20 inserts + 10 updates + 5 removes allocate 30 log
            // entries and ~480 heap bytes in one leaf: no split or
            // compaction can fire, so every op shows its exact cost.
            for k in 1..=20u64 {
                let before = persists(&pool);
                tree.insert_k(&key(k), k * 3).unwrap();
                assert_eq!(persists(&pool) - before, 2, "insert_k {k} ({tag})");
            }
            for k in 1..=10u64 {
                let before = persists(&pool);
                tree.update_k(&key(k), k * 3 + 1).unwrap();
                assert_eq!(persists(&pool) - before, 2, "update_k {k} ({tag})");
            }
            for k in 16..=20u64 {
                let before = persists(&pool);
                tree.remove_k(&key(k)).unwrap();
                assert_eq!(persists(&pool) - before, 1, "remove_k {k} ({tag})");
            }
            let before = persists(&pool);
            assert_eq!(tree.find_k(&key(5)), Some(16));
            assert_eq!(tree.find_k(&key(12)), Some(36));
            assert_eq!(tree.find_k(&key(18)), None);
            assert_eq!(persists(&pool) - before, 0, "find_k persisted ({tag})");
            tree.verify_invariants().unwrap();
        }
    }
}

/// Var-key failed conditionals mirror the u64 contract: a rejected
/// insert/update has already flushed its record (1 persist) but must not
/// touch the slot line; a missed remove persists nothing.
#[test]
fn varlen_failed_conditionals_do_not_touch_the_slot_line() {
    let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 22)));
    let cfg = RnConfig {
        varlen_leaves: true,
        journal_slots: 2,
        ..RnConfig::default()
    };
    let tree = RnTree::create(Arc::clone(&pool), cfg);
    tree.insert_k(b"alpha", 1).unwrap();
    let before = persists(&pool);
    assert!(tree.insert_k(b"alpha", 2).is_err());
    assert_eq!(persists(&pool) - before, 1, "duplicate insert_k");
    let before = persists(&pool);
    assert!(tree.update_k(b"omega", 9).is_err());
    assert_eq!(persists(&pool) - before, 1, "missing update_k");
    let before = persists(&pool);
    assert!(tree.remove_k(b"omega").is_err());
    assert_eq!(persists(&pool) - before, 0, "missing remove_k");
}

/// Mixed-class batch runs (`write_batch`) keep the coalesced contract in
/// both leaf encodings (u64, variable-length) and both slot variants:
///
/// * a **pure-remove run** edits only the slot image — no log entries, no
///   dirty KV lines — so it costs exactly **1 persist per touched leaf**;
/// * a **mixed run** (inserts/updates riding with removes) flushes its
///   coalesced KV lines (1) plus the slot publish (1) — **2 per leaf**,
///   the same as an all-insert run, i.e. removes ride along for free;
/// * a run of removes that all **miss** changes nothing and persists
///   nothing.
#[test]
fn write_batch_remove_runs_cost_one_persist_per_leaf() {
    use index_common::WriteOp;
    for varlen_leaves in [false, true] {
        for dual in [true, false] {
            let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 22)));
            let cfg = RnConfig {
                varlen_leaves,
                dual_slot: dual,
                journal_slots: 2,
                ..RnConfig::default()
            };
            let tree = RnTree::create(Arc::clone(&pool), cfg);
            let tag = format!("varlen={varlen_leaves} dual={dual}");
            // Seed one leaf well below capacity so no split can fire.
            for k in 1..=30u64 {
                tree.insert(k, k * 2).unwrap();
            }

            // Pure-remove run: 10 removes, one leaf, one persist.
            let mut rm: Vec<(u64, u64, WriteOp)> =
                (1..=10).map(|k| (k, 0, WriteOp::Remove)).collect();
            let before = persists(&pool);
            assert!(tree.write_batch(&mut rm).into_iter().all(|r| r.is_ok()), "{tag}");
            assert_eq!(persists(&pool) - before, 1, "pure-remove run ({tag})");

            // All-miss remove run: nothing changed, nothing persisted.
            let mut miss: Vec<(u64, u64, WriteOp)> =
                (100..=110).map(|k| (k, 0, WriteOp::Remove)).collect();
            let before = persists(&pool);
            assert!(tree.write_batch(&mut miss).into_iter().all(|r| r.is_err()), "{tag}");
            assert_eq!(persists(&pool) - before, 0, "all-miss remove run ({tag})");

            // Mixed run on the same leaf: fresh inserts + more removes +
            // an update — the removes ride the insert run's 2 persists.
            let mut mixed: Vec<(u64, u64, WriteOp)> = vec![
                (31, 31, WriteOp::Insert),
                (11, 0, WriteOp::Remove),
                (32, 32, WriteOp::Insert),
                (12, 0, WriteOp::Remove),
                (13, 130, WriteOp::Update),
                (33, 33, WriteOp::Upsert),
            ];
            let before = persists(&pool);
            assert!(tree.write_batch(&mut mixed).into_iter().all(|r| r.is_ok()), "{tag}");
            assert_eq!(persists(&pool) - before, 2, "mixed run ({tag})");

            // Final state reflects every class.
            for k in 1..=12u64 {
                assert_eq!(tree.find(k), None, "removed {k} ({tag})");
            }
            assert_eq!(tree.find(13), Some(130), "{tag}");
            for k in [31u64, 32, 33] {
                assert_eq!(tree.find(k), Some(k), "{tag}");
            }
            tree.verify_invariants().unwrap();
        }
    }
}

/// Var-key batch paths keep the amortised contract: `load_sorted_k` is
/// 2 persists per built leaf plus the constant 3 journal persists, and
/// `insert_batch_k` is 2 persists per touched leaf regardless of how
/// many keys land in the leaf.
#[test]
fn varlen_batch_paths_keep_two_persists_per_leaf() {
    for dual in [true, false] {
        // Bulk load: 8-byte keys are slot-bound (heap budget admits far
        // more than 63 such records), so leaves = ceil(n/63) as for u64.
        for keys in [1u64, 63, 64, 200] {
            let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 23)));
            let cfg = RnConfig {
                varlen_leaves: true,
                dual_slot: dual,
                journal_slots: 2,
                ..RnConfig::default()
            };
            let tree = RnTree::create(Arc::clone(&pool), cfg);
            let pairs: Vec<_> = (1..=keys)
                .map(|k| (index_common::KeyBuf::from_slice(&(k * 7).to_be_bytes()), k))
                .collect();
            let leaves = keys.div_ceil(63);
            let before = persists(&pool);
            tree.load_sorted_k(&pairs).unwrap();
            assert_eq!(
                persists(&pool) - before,
                2 * leaves + 3,
                "load_sorted_k({keys}, dual={dual})"
            );
            assert_eq!(tree.stats().leaves, leaves);
            assert_eq!(tree.stats().entries, keys);
            for (k, v) in &pairs {
                assert_eq!(tree.find_k(k.as_slice()), Some(*v), "key {k:?}");
            }
            tree.verify_invariants().unwrap();
        }

        // Single-leaf batch: 40 fresh keys, one coalesced record flush +
        // one slot publish.
        let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 22)));
        let cfg = RnConfig {
            varlen_leaves: true,
            dual_slot: dual,
            journal_slots: 2,
            ..RnConfig::default()
        };
        let tree = RnTree::create(Arc::clone(&pool), cfg);
        let mut batch: Vec<_> = (1..=40u64)
            .map(|k| (index_common::KeyBuf::from_slice(format!("k{k:03}").as_bytes()), k))
            .collect();
        let before = persists(&pool);
        assert!(tree.insert_batch_k(&mut batch).into_iter().all(|r| r.is_ok()));
        assert_eq!(persists(&pool) - before, 2, "single-leaf batch (dual={dual})");

        // All-duplicate batch: nothing changed, nothing persisted.
        let mut dups: Vec<_> = (1..=5u64)
            .map(|k| (index_common::KeyBuf::from_slice(format!("k{k:03}").as_bytes()), 99))
            .collect();
        let before = persists(&pool);
        assert!(tree.insert_batch_k(&mut dups).into_iter().all(|r| r.is_err()));
        assert_eq!(persists(&pool) - before, 0, "all-dup batch (dual={dual})");
        tree.verify_invariants().unwrap();
    }
}
