//! Cross-shard model test: a `ShardedIndex<RnTree>` over a real `PoolSet`
//! must behave exactly like one `BTreeMap` — point ops and, crucially,
//! `scan_n`, whose output must be globally key-ordered even though every
//! shard only holds its own key range.
//!
//! The scan cases are chosen to stress the boundary between shards:
//! * starts landing mid-shard (an arbitrary present/absent key),
//! * dense spans crossing every split boundary,
//! * requests longer than the whole data set,
//! * scans racing an inserter that splits leaves under them, including
//!   scans that start just below a split and must continue into the
//!   next shard,
//! * a sharded index whose shards are themselves sharded (the per-thread
//!   `run` buffer is reentered on the same thread).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

use index_common::{AnyKey, KeyBuf, KeyCodec, OpError, PersistentIndex, ShardedIndex, U64Key};
use nvm::{PmemConfig, PoolSet, SplitMix64};
use rntree::{RnConfig, RnTree};

/// The u64 keys `keys` as split keys.
fn splits(keys: &[u64]) -> Vec<KeyBuf> {
    keys.iter().map(|&k| U64Key::encode(k)).collect()
}

/// An empty set over fresh pools, split at `split_keys` (none: the first
/// bulk load picks the splits).
fn fresh(shards: usize, split_keys: &[u64]) -> (PoolSet, ShardedIndex<RnTree>) {
    let set = PoolSet::new(PmemConfig::for_testing(shards << 22), shards);
    let idx = ShardedIndex::<RnTree>::create(&set.handles(), RnConfig::default());
    (set, if split_keys.is_empty() { idx } else { idx.with_splits(splits(split_keys)) })
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
        let even: Vec<u64> = (1..shards as u64).map(|i| i * 14_000 / shards as u64).collect();
        let (_set, idx) = fresh(shards, &even);
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
        for i in 0..shards {
            assert!(idx.shard(i).stats().entries > 0, "{shards} shards: shard {i} got no key");
        }

        // Starts: below all keys, a present key, mid-range absent keys
        // (some just below a split), the max key, above all keys.
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
    // Dense sequential keys over splits 30 keys apart: a correct 100-long
    // scan from 500 crosses every split and concatenates every shard's run.
    let shards = 4;
    let (_set, idx) = fresh(shards, &[520, 550, 580]);
    let mut model = BTreeMap::new();
    for k in 1..=2_000u64 {
        idx.insert(k, k * 2).unwrap();
        model.insert(k, k * 2);
    }
    let mut out = Vec::new();
    assert_eq!(idx.scan_n(500, 100, &mut out), 100);
    let touched: std::collections::BTreeSet<usize> = out.iter().map(|&(k, _)| idx.home(AnyKey::U64(k))).collect();
    assert_eq!(touched.len(), shards, "a dense scan must cross every shard");
    assert_eq!(out, (500..600).map(|k| (k, k * 2)).collect::<Vec<_>>());
    assert_scans_match(&idx, &model, &[0, 1, 499, 500, 519, 520, 549, 579, 580, 1_999, 2_000, 2_001]);
}

#[test]
fn per_shard_trees_stay_internally_consistent() {
    let (_set, idx) = fresh(3, &[3_333, 6_666]);
    let mut rng = SplitMix64::new(7);
    for _ in 0..3_000 {
        let k = rng.next_below(10_000);
        let _ = idx.upsert(k, k);
    }
    for _ in 0..1_000 {
        let k = rng.next_below(10_000);
        let _ = idx.remove(k);
    }
    let bounds = [0, 3_333, 6_666, u64::MAX];
    for i in 0..idx.shard_count() {
        idx.shard(i).verify_invariants().unwrap_or_else(|e| panic!("shard {i}: {e}"));
        // Every key in shard i must lie in shard i's range.
        let mut out = Vec::new();
        idx.shard(i).scan_n(0, usize::MAX >> 1, &mut out);
        assert!(!out.is_empty(), "shard {i} got no key");
        for (k, _) in out {
            assert!((bounds[i]..bounds[i + 1]).contains(&k), "key {k} on wrong shard {i}");
        }
    }
}

/// Bulk-loads the even keys `loaded` (sorted, never removed) into an
/// empty set, which picks equal-count splits, then one thread inserts
/// every odd key below `2 * LOADED` in ascending order (splitting leaves)
/// while two threads scan `n` pairs. A scan starts just behind the
/// insertion front, where the leaves are changing, or with
/// `below_splits` just below a split, so that its home shard runs out
/// and it continues into the next. Each scan must be strictly ascending,
/// pair every key with its value, skip no loaded key inside its range,
/// and return `n` pairs whenever the loaded keys alone provide that many.
/// Returns the set and the number of scans that crossed a split.
fn race_scans_against_splits(
    shards: usize,
    loaded: &[u64],
    n: usize,
    below_splits: bool,
) -> (PoolSet, ShardedIndex<RnTree>, usize) {
    const LOADED: u64 = 4_000;
    let value = |k: u64| k * 3 + 1;
    let (set, idx) = fresh(shards, &[]);
    let load: Vec<(u64, u64)> = loaded.iter().map(|&k| (k, value(k))).collect();
    idx.load_sorted(&load).unwrap();
    let split_keys: Vec<u64> = idx.splits().iter().map(|s| U64Key::decode(s.as_slice()).unwrap()).collect();
    assert_eq!(split_keys.len(), shards - 1);
    let loaded_below = |k: u64| loaded.partition_point(|&l| l < k);
    let crossed = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let front = AtomicU64::new(0); // a start hint only: publishes no data
    let go = Barrier::new(3);
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let (idx, done, front, go, split_keys, crossed) = (&idx, &done, &front, &go, &split_keys, &crossed);
            s.spawn(move || {
                go.wait();
                let mut rng = SplitMix64::new(0x5CA7 + t + shards as u64);
                let mut out = Vec::new();
                let mut scans = 0u32;
                while !done.load(Ordering::Acquire) || scans < 200 {
                    let start = if below_splits {
                        split_keys[rng.next_below(split_keys.len() as u64) as usize] - 1 - rng.next_below(24)
                    } else {
                        front.load(Ordering::Relaxed).saturating_sub(rng.next_below(80))
                    };
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
                        let (from, to) = (idx.home(AnyKey::U64(lo)), idx.home(AnyKey::U64(hi)));
                        crossed.fetch_add(u64::from(from != to), Ordering::Relaxed);
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
    let crossed = crossed.into_inner() as usize;
    (set, idx, crossed)
}

#[test]
fn scans_stay_exact_while_an_inserter_splits_leaves() {
    let evens: Vec<u64> = (1..=4_000).map(|i| 2 * i).collect();
    for shards in [2usize, 3] {
        race_scans_against_splits(shards, &evens, 50, false);
    }
}

#[test]
fn refilled_scans_stay_exact_while_an_inserter_splits_leaves() {
    // Over 4 shards the loaded evens split at 2002, 4002 and 6002. Every
    // scan starts at most 24 keys below a split, so its home shard holds
    // fewer than 50 pairs from there and the scan refills `out` from the
    // next shard, while the inserter splits the leaves on both sides.
    const SHARDS: usize = 4;
    let evens: Vec<u64> = (1..=4_000).map(|i| 2 * i).collect();
    let (_set, idx, crossed) = race_scans_against_splits(SHARDS, &evens, 50, true);
    assert_eq!(idx.splits(), splits(&[2_002, 4_002, 6_002]));
    assert!(crossed >= 400, "only {crossed} scans crossed a split");
}

#[test]
fn nested_sharded_index_scans_match_oracle() {
    // A shard that is itself sharded reenters the scan on the same
    // thread: the inner scan must not see (or clobber) the outer `run`
    // buffer.
    let set = PoolSet::new(PmemConfig::for_testing(6 << 22), 6);
    let pools = set.handles();
    let inner = |range: std::ops::Range<usize>, lo: u64| {
        ShardedIndex::from_shards(
            pools[range].iter().map(|p| RnTree::create(p.clone(), RnConfig::default())).collect(),
        )
        .with_splits(splits(&[lo + 3_333, lo + 6_666]))
    };
    let idx = ShardedIndex::from_shards(vec![inner(0..3, 0), inner(3..6, 10_000)]).with_splits(splits(&[10_000]));
    let mut model = BTreeMap::new();
    let mut rng = SplitMix64::new(0xE57);
    for step in 0..4_000u64 {
        let k = rng.next_below(20_000);
        idx.upsert(k, step).unwrap();
        model.insert(k, step);
    }
    for (i, inner) in [idx.shard(0), idx.shard(1)].into_iter().enumerate() {
        for j in 0..3 {
            assert!(inner.shard(j).stats().entries > 0, "inner shard {i}.{j} got no key");
        }
    }
    // Starts just below the inner and outer splits cross shards of both.
    let mut starts = vec![0u64, 1, 3_320, 6_650, 9_990, 9_999, 13_320, 16_650, 19_999, 20_000];
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
