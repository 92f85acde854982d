//! Batched-write correctness: `insert_batch` and `load_sorted` against a
//! `BTreeMap` oracle.
//!
//! Covers the contract corners the unit tests can't reach in one place:
//! duplicate keys *within* one batch (first pre-sort occurrence wins, the
//! rest report `AlreadyExists`), batches colliding with existing keys,
//! split-forcing runs much longer than one leaf, every slot/traversal
//! config variant, and `ShardedIndex` batches spanning shard boundaries
//! with the shard-major result alignment.

use std::collections::BTreeMap;
use std::sync::Arc;

use index_common::{KeyCodec, OpError, PersistentIndex, ShardedIndex, U64Key};
use nvm::{PmemConfig, PmemPool, PoolSet, SplitMix64};
use rntree::{RnConfig, RnTree};

/// What `insert_batch` must report and leave behind: replay the stable
/// sort + first-wins rule on the oracle, returning the expected per-slot
/// results aligned with the sorted batch.
#[allow(clippy::type_complexity)]
fn oracle_apply(
    model: &mut BTreeMap<u64, u64>,
    batch: &[(u64, u64)],
) -> (Vec<(u64, u64)>, Vec<Result<(), OpError>>) {
    let mut sorted = batch.to_vec();
    sorted.sort_by_key(|p| p.0);
    let results = sorted
        .iter()
        .map(|&(k, v)| {
            if let std::collections::btree_map::Entry::Vacant(e) = model.entry(k) {
                e.insert(v);
                Ok(())
            } else {
                Err(OpError::AlreadyExists)
            }
        })
        .collect();
    (sorted, results)
}

fn assert_matches_model(tree: &dyn PersistentIndex, model: &BTreeMap<u64, u64>, tag: &str) {
    let mut out = Vec::new();
    tree.scan_n(0, model.len() + 100, &mut out);
    let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(out, want, "{tag}: full scan");
    assert_eq!(tree.stats().entries, model.len() as u64, "{tag}: entries");
}

#[test]
fn randomized_insert_batch_matches_oracle_in_every_variant() {
    for dual in [true, false] {
        for seq in [true, false] {
            let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 24)));
            let cfg = RnConfig {
                dual_slot: dual,
                seq_traversal: seq,
                ..RnConfig::default()
            };
            let tree = RnTree::create(Arc::clone(&pool), cfg);
            let tag = format!("dual={dual} seq={seq}");
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut rng = SplitMix64::new(0xBA7C4 ^ (dual as u64) << 1 ^ seq as u64);

            for round in 0..40u64 {
                let len = 1 + rng.next_below(300) as usize;
                let batch: Vec<(u64, u64)> =
                    (0..len).map(|_| (rng.next_below(1_500) + 1, rng.next_u64())).collect();
                let (want_batch, want_results) = oracle_apply(&mut model, &batch);

                let mut got_batch = batch.clone();
                let got_results = tree.insert_batch(&mut got_batch);
                assert_eq!(got_batch, want_batch, "{tag} round {round}: sorted batch");
                assert_eq!(got_results, want_results, "{tag} round {round}: results");

                // Stir the pot between batches: removes free slots mid-leaf,
                // upserts overwrite values the next batch must then reject.
                for _ in 0..10 {
                    let k = rng.next_below(1_500) + 1;
                    match rng.next_below(3) {
                        0 => {
                            let r = tree.remove(k);
                            assert_eq!(r.is_ok(), model.remove(&k).is_some(), "{tag} rm {k}");
                        }
                        1 => {
                            tree.upsert(k, round).unwrap();
                            model.insert(k, round);
                        }
                        _ => {
                            assert_eq!(tree.find(k), model.get(&k).copied(), "{tag} find {k}");
                        }
                    }
                }
            }
            assert_matches_model(&tree, &model, &tag);
            tree.verify_invariants().unwrap();
        }
    }
}

#[test]
fn one_batch_can_split_an_empty_tree_many_times() {
    let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 23)));
    let tree = RnTree::create(Arc::clone(&pool), RnConfig::default());
    // One run covering the whole (empty, fence = MAX) tree: the batch path
    // must repeatedly fill a leaf, split it under the same protocol as the
    // per-op path, and resume the run on the new sibling.
    let mut batch: Vec<(u64, u64)> = (1..=2_000u64).map(|k| (k, k + 7)).collect();
    assert!(tree.insert_batch(&mut batch).into_iter().all(|r| r.is_ok()));
    assert!(tree.stats().splits >= 30, "got {} splits", tree.stats().splits);
    for k in 1..=2_000u64 {
        assert_eq!(tree.find(k), Some(k + 7), "key {k}");
    }
    tree.verify_invariants().unwrap();

    // The same giant run again: every key must now be rejected, unchanged.
    let mut again: Vec<(u64, u64)> = (1..=2_000u64).map(|k| (k, 0)).collect();
    assert!(tree
        .insert_batch(&mut again)
        .into_iter()
        .all(|r| r == Err(OpError::AlreadyExists)));
    assert_eq!(tree.find(555), Some(562));
}

#[test]
fn duplicate_keys_within_one_batch_first_wins() {
    let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 22)));
    let tree = RnTree::create(Arc::clone(&pool), RnConfig::default());
    // Key 5 three times, key 9 twice — stable sort keeps pre-sort order
    // among equal keys, so value 100 and 300 must win.
    let mut batch = vec![(5u64, 100u64), (9, 300), (5, 101), (1, 7), (5, 102), (9, 301)];
    let results = tree.insert_batch(&mut batch);
    assert_eq!(
        batch,
        vec![(1, 7), (5, 100), (5, 101), (5, 102), (9, 300), (9, 301)],
        "sorted batch order"
    );
    assert_eq!(
        results,
        vec![
            Ok(()),
            Ok(()),
            Err(OpError::AlreadyExists),
            Err(OpError::AlreadyExists),
            Ok(()),
            Err(OpError::AlreadyExists),
        ]
    );
    assert_eq!(tree.find(5), Some(100));
    assert_eq!(tree.find(9), Some(300));
    assert_eq!(tree.stats().entries, 3);
}

#[test]
fn load_sorted_matches_upsert_replay_oracle() {
    let mut rng = SplitMix64::new(0x10AD);
    for trial in 0..6 {
        let len = [0usize, 1, 63, 64, 500, 3_000][trial];
        // Unsorted input with duplicates: last occurrence must win.
        let pairs: Vec<(u64, u64)> =
            (0..len).map(|_| (rng.next_below(2_000) + 1, rng.next_u64())).collect();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for &(k, v) in &pairs {
            model.insert(k, v);
        }

        let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 23)));
        let tree = RnTree::create(Arc::clone(&pool), RnConfig::default());
        tree.load_sorted(&pairs).unwrap();
        assert_matches_model(&tree, &model, &format!("load_sorted len={len}"));
        tree.verify_invariants().unwrap();

        // The loaded tree must keep behaving: conditional ops see the
        // loaded keys exactly like individually-inserted ones.
        if let Some((&k, &v)) = model.iter().next() {
            assert_eq!(tree.insert(k, 0), Err(OpError::AlreadyExists));
            assert_eq!(tree.find(k), Some(v));
            tree.remove(k).unwrap();
            assert_eq!(tree.find(k), None);
        }
    }
}

#[test]
fn sharded_insert_batch_spans_shards_and_matches_oracle() {
    for shards in [1usize, 3, 4] {
        let set = PoolSet::new(PmemConfig::for_testing(shards << 22), shards);
        // Even splits over the keys below 6,000.
        let splits = (1..shards as u64).map(|i| U64Key::encode(i * 6_000 / shards as u64)).collect();
        let idx = ShardedIndex::<RnTree>::create(&set.handles(), RnConfig::default()).with_splits(splits);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = SplitMix64::new(0x5AD ^ shards as u64);

        for round in 0..20u64 {
            // Dense sequential spans, some across a split, plus random
            // repeats for duplicate coverage.
            let base = rng.next_below(5_000);
            let mut batch: Vec<(u64, u64)> =
                (0..200u64).map(|i| (base + i, round * 1_000 + i)).collect();
            for _ in 0..20 {
                batch.push((rng.next_below(6_000), rng.next_u64()));
            }

            let before: Vec<(u64, u64)> = batch.clone();
            let results = idx.insert_batch(&mut batch);
            assert_eq!(results.len(), before.len(), "shards={shards} round {round}");

            // Results align with the post-call (shard-major) batch order;
            // within that order each key's first occurrence wins. Walk the
            // pairs in returned order against the oracle.
            for (i, (&(k, v), r)) in batch.iter().zip(&results).enumerate() {
                match r {
                    Ok(()) => {
                        assert!(
                            !model.contains_key(&k),
                            "shards={shards} round {round} slot {i}: Ok on existing key {k}"
                        );
                        model.insert(k, v);
                    }
                    Err(OpError::AlreadyExists) => assert!(
                        model.contains_key(&k),
                        "shards={shards} round {round} slot {i}: dup-reject on absent key {k}"
                    ),
                    Err(e) => panic!("shards={shards} round {round}: unexpected {e}"),
                }
            }
            // The call must only permute the caller's pairs, never alter them.
            let mut a = before;
            let mut b = batch.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "shards={shards} round {round}: batch contents changed");
        }

        assert_matches_model(&idx, &model, &format!("shards={shards}"));
        for i in 0..idx.shard_count() {
            idx.shard(i).verify_invariants().unwrap_or_else(|e| panic!("shard {i}: {e}"));
            assert!(idx.shard(i).stats().entries > 0, "shards={shards}: shard {i} got no key");
        }
    }
}

#[test]
fn sharded_load_sorted_partitions_and_matches_oracle() {
    for shards in [1usize, 4] {
        let set = PoolSet::new(PmemConfig::for_testing(shards << 22), shards);
        let idx = ShardedIndex::<RnTree>::create(&set.handles(), RnConfig::default());
        // Duplicates included: last occurrence wins across the whole input,
        // which the order-preserving partition must keep per shard.
        let mut pairs: Vec<(u64, u64)> = (1..=4_000u64).map(|k| (k, k)).collect();
        pairs.extend((1..=500u64).map(|k| (k * 8, k)));
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for &(k, v) in &pairs {
            model.insert(k, v);
        }

        idx.load_sorted(&pairs).unwrap();
        assert_matches_model(&idx, &model, &format!("sharded load, {shards} shards"));
        for i in 0..idx.shard_count() {
            idx.shard(i).verify_invariants().unwrap_or_else(|e| panic!("shard {i}: {e}"));
            assert!(idx.shard(i).stats().entries > 0, "{shards} shards: shard {i} got no key");
        }
    }
}
