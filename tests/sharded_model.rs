//! Cross-shard model test: a `ShardedIndex<RnTree>` over a real `PoolSet`
//! must behave exactly like one `BTreeMap` — point ops and, crucially,
//! `scan_n`, whose output must be globally key-ordered even though every
//! shard only sees a hash-scattered subset of the keys.
//!
//! The scan cases are chosen to stress the cross-shard merge:
//! * starts landing mid-shard (an arbitrary present/absent key),
//! * spans crossing every shard many times (hash routing interleaves
//!   neighbouring keys across shards by design),
//! * requests longer than the whole data set,
//! * scans racing an inserter that splits leaves under them, including
//!   scans over skewed shards that need several rounds to fill,
//! * a sharded index whose shards are themselves sharded (the merge's
//!   per-thread staging buffers are reentered on the same thread).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

use index_common::{shard_of, KeyCodec, OpError, PersistentIndex, ShardedIndex, U64Key};
use nvm::{PmemConfig, PoolSet, SplitMix64};
use rntree::{RnConfig, RnTree};

fn fresh(shards: usize) -> (PoolSet, ShardedIndex<RnTree>) {
    let set = PoolSet::new(PmemConfig::for_testing(shards << 22), shards);
    let idx = ShardedIndex::<RnTree>::create(&set.handles(), RnConfig::default());
    (set, idx)
}

fn assert_scans_match(idx: &impl PersistentIndex, model: &BTreeMap<u64, u64>, starts: &[u64]) {
    let mut out = Vec::new();
    for &start in starts {
        for n in [0usize, 1, 3, 17, 256, model.len() + 1000] {
            let got = idx.scan_n(start, n, &mut out);
            let want: Vec<(u64, u64)> =
                model.range(start..).take(n).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, want.len(), "scan_n({start}, {n}) count");
            assert_eq!(out, want, "scan_n({start}, {n}) contents");
        }
    }
}

#[test]
fn randomized_ops_match_btreemap_oracle() {
    for shards in [1usize, 3, 4] {
        let (_set, idx) = fresh(shards);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = SplitMix64::new(0xA11CE ^ shards as u64);

        for step in 0..6_000u64 {
            let key = rng.next_below(2_000) * 7 + 1;
            match rng.next_below(10) {
                0..=4 => {
                    let v = step;
                    assert_eq!(idx.upsert(key, v), Ok(()));
                    model.insert(key, v);
                }
                5..=6 => {
                    let r = idx.insert(key, step);
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(key) {
                        assert_eq!(r, Ok(()));
                        e.insert(step);
                    } else {
                        assert_eq!(r, Err(OpError::AlreadyExists), "insert dup {key}");
                    }
                }
                7..=8 => {
                    let r = idx.remove(key);
                    if model.remove(&key).is_some() {
                        assert_eq!(r, Ok(()), "remove present {key}");
                    } else {
                        assert_eq!(r, Err(OpError::NotFound), "remove absent {key}");
                    }
                }
                _ => {
                    assert_eq!(idx.find(key), model.get(&key).copied(), "find {key}");
                }
            }
        }

        assert_eq!(idx.stats().entries, model.len() as u64, "{shards} shards");

        // Starts: below all keys, a present key, mid-range absent keys
        // (land mid-shard after hashing), the max key, above all keys.
        let mut starts = vec![0u64, 1, 5_000, 9_999, u64::MAX];
        starts.extend(model.keys().copied().take(3));
        if let Some((&max, _)) = model.iter().next_back() {
            starts.push(max);
            starts.push(max + 1);
        }
        assert_scans_match(&idx, &model, &starts);
    }
}

#[test]
fn scan_interleaves_all_shards() {
    // Dense sequential keys: hashing scatters neighbours across shards, so
    // any correct 100-long scan must interleave pairs from every shard.
    let shards = 4;
    let (_set, idx) = fresh(shards);
    let mut model = BTreeMap::new();
    for k in 1..=2_000u64 {
        idx.insert(k, k * 2).unwrap();
        model.insert(k, k * 2);
    }
    let mut out = Vec::new();
    assert_eq!(idx.scan_n(500, 100, &mut out), 100);
    let touched: std::collections::BTreeSet<usize> =
        out.iter().map(|&(k, _)| index_common::shard_of(k, shards)).collect();
    assert_eq!(touched.len(), shards, "a dense scan must cross every shard");
    assert_scans_match(&idx, &model, &[0, 1, 499, 500, 1_999, 2_000, 2_001]);
}

#[test]
fn per_shard_trees_stay_internally_consistent() {
    let (_set, idx) = fresh(3);
    let mut rng = SplitMix64::new(7);
    for _ in 0..3_000 {
        let k = rng.next_below(10_000);
        let _ = idx.upsert(k, k);
    }
    for _ in 0..1_000 {
        let k = rng.next_below(10_000);
        let _ = idx.remove(k);
    }
    for i in 0..idx.shard_count() {
        idx.shard(i).verify_invariants().unwrap_or_else(|e| panic!("shard {i}: {e}"));
        // Every key in shard i must actually hash home to shard i.
        let mut out = Vec::new();
        idx.shard(i).scan_n(0, usize::MAX >> 1, &mut out);
        for (k, _) in out {
            assert_eq!(index_common::shard_of(k, 3), i, "key {k} on wrong shard {i}");
        }
    }
}

/// Bulk-loads the even keys `loaded` (sorted, never removed), then one
/// thread inserts every odd key below `2 * LOADED` in ascending order
/// (splitting leaves) while two threads scan `n` pairs just behind its
/// insertion front, where the leaves are changing. Each scan must be
/// strictly ascending, pair every key with its value, skip no loaded key
/// inside its range, and return `n` pairs whenever the loaded keys alone
/// provide that many.
fn race_scans_against_splits(shards: usize, loaded: &[u64], n: usize) -> (PoolSet, ShardedIndex<RnTree>) {
    const LOADED: u64 = 4_000;
    let value = |k: u64| k * 3 + 1;
    let (set, idx) = fresh(shards);
    let load: Vec<(u64, u64)> = loaded.iter().map(|&k| (k, value(k))).collect();
    idx.load_sorted(&load).unwrap();
    let loaded_below = |k: u64| loaded.partition_point(|&l| l < k);
    let done = AtomicBool::new(false);
    let front = AtomicU64::new(0); // a start hint only: publishes no data
    let go = Barrier::new(3);
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let (idx, done, front, go) = (&idx, &done, &front, &go);
            s.spawn(move || {
                go.wait();
                let mut rng = SplitMix64::new(0x5CA7 + t + shards as u64);
                let mut out = Vec::new();
                let mut scans = 0u32;
                while !done.load(Ordering::Acquire) || scans < 200 {
                    let start = front.load(Ordering::Relaxed).saturating_sub(rng.next_below(80));
                    let got = idx.scan_n(start, n, &mut out);
                    assert_eq!(got, out.len());
                    if loaded.len() - loaded_below(start) >= n {
                        assert_eq!(got, n, "short scan from {start}");
                    }
                    for w in out.windows(2) {
                        assert!(w[0].0 < w[1].0, "scan from {start} not strictly ascending");
                    }
                    for &(k, v) in &out {
                        assert!(k >= start);
                        assert_eq!(v, value(k), "key {k} carries another key's value");
                    }
                    if let (Some(&(lo, _)), Some(&(hi, _))) = (out.first(), out.last()) {
                        let seen = out.iter().filter(|p| loaded.binary_search(&p.0).is_ok()).count();
                        let want = loaded_below(hi + 1) - loaded_below(lo);
                        assert_eq!(seen, want, "scan from {start} skipped a loaded key");
                    }
                    scans += 1;
                }
            });
        }
        go.wait();
        for i in 0..LOADED {
            let k = 2 * i + 1;
            idx.insert(k, value(k)).unwrap();
            front.store(k, Ordering::Relaxed);
        }
        done.store(true, Ordering::Release);
    });
    for i in 0..shards {
        idx.shard(i).verify_invariants().unwrap_or_else(|e| panic!("shard {i}: {e}"));
    }
    (set, idx)
}

#[test]
fn scans_stay_exact_while_an_inserter_splits_leaves() {
    let evens: Vec<u64> = (1..=4_000).map(|i| 2 * i).collect();
    for shards in [2usize, 3] {
        race_scans_against_splits(shards, &evens, 50);
    }
}

#[test]
fn refilled_scans_stay_exact_while_an_inserter_splits_leaves() {
    // Over 4 shards a 50-pair scan asks each for 13 + 8 = 21 pairs. Only
    // shard 0 holds loaded keys, so ahead of the insertion front it is
    // the one full shard, and its 21st key bounds a round that comes up
    // short: the scan must resume after that bound, round after round,
    // while the leaves split under it.
    const SHARDS: usize = 4;
    let skewed: Vec<u64> = (1..=4_000).map(|i| 2 * i).filter(|&k| shard_of(k, SHARDS) == 0).collect();
    let (_set, idx) = race_scans_against_splits(SHARDS, &skewed, 50);
    assert!(idx.scan_refills() > 0, "no scan needed a second round");
}

#[test]
fn nested_sharded_index_scans_match_oracle() {
    // A shard that is itself sharded reenters the merge on the same
    // thread: the inner scan must not see (or clobber) the outer staging.
    let set = PoolSet::new(PmemConfig::for_testing(6 << 22), 6);
    let pools = set.handles();
    let inner = |range: std::ops::Range<usize>| {
        ShardedIndex::from_shards(
            pools[range].iter().map(|p| RnTree::create(p.clone(), RnConfig::default())).collect(),
        )
    };
    let idx = ShardedIndex::from_shards(vec![inner(0..3), inner(3..6)]);
    let mut model = BTreeMap::new();
    let mut rng = SplitMix64::new(0xE57);
    for step in 0..4_000u64 {
        let k = rng.next_below(20_000);
        idx.upsert(k, step).unwrap();
        model.insert(k, step);
    }
    let mut starts = vec![0u64, 1, 9_999, 19_999, 20_000];
    starts.extend(model.keys().copied().step_by(397));
    assert_scans_match(&idx, &model, &starts);

    let mut out = Vec::new();
    for &start in &starts {
        let got = idx.scan_k(U64Key::encode(start).as_slice(), 40, &mut out);
        let want: Vec<_> =
            model.range(start..).take(40).map(|(&k, &v)| (U64Key::encode(k), v)).collect();
        assert_eq!(got, want.len());
        assert_eq!(out, want, "scan_k from {start}");
    }
}
