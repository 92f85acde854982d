//! DRAM page-cache model tests (PR 6): the version-validated cached
//! descent must be invisible to callers — same answers as the
//! all-transactional descent and as a `BTreeMap` oracle — under the
//! conditions most likely to expose a stale-routing bug: concurrent
//! split-forcing inserts, a starvation-level frame budget whose full
//! sets refuse admission (those steps are served by direct
//! gate-validated reads), and invalidation storms where every structural change rips
//! frames out from under active readers.
//!
//! The safety argument these tests probe (DESIGN.md §5g): a cached
//! frame is only ever a *validated snapshot* of an inner node, so the
//! worst a reader can get is a consistent past routing decision; the
//! leaf operation re-checks its fence key and retries, so a stale route
//! costs a restart, never a wrong answer.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use index_common::PersistentIndex;
use nvm::{PmemConfig, PmemPool};
use rntree::{RnConfig, RnTree};

fn tree_with_frames(frames: usize, pool_bytes: usize) -> (Arc<PmemPool>, Arc<RnTree>) {
    let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(pool_bytes)));
    let cfg = RnConfig {
        cache_frames: frames,
        ..RnConfig::default()
    };
    let tree = Arc::new(RnTree::create(Arc::clone(&pool), cfg));
    (pool, tree)
}

/// Cached (tiny frame budget, maximal admission/invalidation churn) and
/// uncached trees fed the same split-forcing stream must agree with each
/// other and with a `BTreeMap` oracle, while reader threads hammer the
/// already-acknowledged prefix mid-stream.
#[test]
fn cached_and_uncached_trees_match_btreemap_under_concurrent_splits() {
    const N: u64 = 6_000;
    let (_pc, cached) = tree_with_frames(8, 1 << 24);
    let (_pu, uncached) = tree_with_frames(0, 1 << 24);

    let acked = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|r| {
            let cached = Arc::clone(&cached);
            let acked = Arc::clone(&acked);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ r;
                let mut checked = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let hi = acked.load(Ordering::Acquire);
                    if hi == 0 {
                        std::thread::yield_now();
                        continue;
                    }
                    // xorshift over the acknowledged prefix: every key in
                    // it must be present with its exact value, no matter
                    // how many splits/invalidations are in flight.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % hi + 1;
                    assert_eq!(cached.find(k * 3), Some(k * 7), "mid-stream key {k}");
                    checked += 1;
                }
                checked
            })
        })
        .collect();

    let mut oracle = BTreeMap::new();
    for k in 1..=N {
        cached.insert(k * 3, k * 7).unwrap();
        uncached.insert(k * 3, k * 7).unwrap();
        oracle.insert(k * 3, k * 7);
        acked.store(k, Ordering::Release);
        if k % 64 == 0 {
            std::thread::yield_now();
        }
    }
    stop.store(true, Ordering::Relaxed);
    let checked: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(checked > 0, "readers never ran");

    // Full-range agreement: cached scan == uncached scan == oracle.
    let mut got_c = Vec::new();
    cached.scan_n(0, usize::MAX >> 1, &mut got_c);
    let mut got_u = Vec::new();
    uncached.scan_n(0, usize::MAX >> 1, &mut got_u);
    let want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(got_c, want, "cached tree diverged from oracle");
    assert_eq!(got_u, want, "uncached tree diverged from oracle");
    for (&k, &v) in &oracle {
        assert_eq!(cached.find(k), Some(v));
    }
    cached.verify_invariants().unwrap();
    uncached.verify_invariants().unwrap();

    // The tiny budget must actually have churned: splits invalidated
    // their touched nodes, which were re-admitted, and misses on full
    // sets were served without a fill. Nothing is ever evicted.
    let s = cached.cache_stats().expect("cache attached");
    assert!(s.fills > 0, "no fills: {s:?}");
    assert!(s.invalidations > 0, "splits never invalidated: {s:?}");
    assert!(s.misses > s.fills, "every miss was admitted: {s:?}");
    assert_eq!(s.evictions, 0, "a resident frame was replaced: {s:?}");
    assert!(uncached.cache_stats().is_none(), "frames=0 must disable the cache");
}

/// A starvation-level budget (one 4-frame set for an index of dozens of
/// inner nodes) must degrade to direct gate-validated reads, never to
/// wrong answers or livelock. The set fills once and then admits
/// nothing: the read sweeps below add no fill.
#[test]
fn eviction_under_pressure_keeps_every_answer_exact() {
    let (_p, tree) = tree_with_frames(4, 1 << 24);
    const N: u64 = 8_000;
    for k in 1..=N {
        tree.insert(k, k ^ 0xABCD).unwrap();
    }
    let loaded = tree.cache_stats().unwrap();
    // Sweep the whole key space twice: the working set (dozens of inner
    // nodes) dwarfs 4 frames, so most steps miss and read in place.
    for _ in 0..2 {
        for k in 1..=N {
            assert_eq!(tree.find(k), Some(k ^ 0xABCD), "key {k}");
        }
    }
    let s = tree.cache_stats().unwrap().delta(&loaded);
    assert!(s.misses >= N, "pressure never missed: {s:?}");
    assert!(s.hits > 0, "the admitted frames never served: {s:?}");
    assert_eq!((s.evictions, s.invalidations), (0, 0), "{s:?}");
    assert!(s.fills <= 4, "a read-only sweep filled more than the set holds: {s:?}");
    // Degradation is the miss path doing its job, not an error path:
    // descent restarts stay bounded (no livelock under pure reads).
    let d = tree.descent_stats();
    assert_eq!(d.tm_fallbacks, 0, "read-only pressure must not exhaust restarts: {d:?}");
    tree.verify_invariants().unwrap();
}

/// Readers racing a split storm: every structural change invalidates the
/// frames it touched while readers hold optimistic snapshots of them.
/// A reader that routed through a just-invalidated frame must restart or
/// land on a leaf whose fence check redirects it — never observe a torn
/// node or miss a pre-inserted key.
#[test]
fn invalidation_storm_never_loses_a_stable_key() {
    let (_p, tree) = tree_with_frames(16, 1 << 24);
    // Stable residents, spaced so the storm splits their leaves too.
    const STABLE: u64 = 500;
    for k in 1..=STABLE {
        tree.insert(k * 1_000, k).unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let tree = Arc::clone(&tree);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rounds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for k in 1..=STABLE {
                        assert_eq!(tree.find(k * 1_000), Some(k), "stable key {k}");
                    }
                    rounds += 1;
                }
                rounds
            })
        })
        .collect();
    // The storm: dense inserts *between* the stable keys, splitting every
    // leaf and churning the inner index (and thus the cache) throughout.
    for k in 1..=STABLE {
        for j in 1..=8u64 {
            tree.insert(k * 1_000 + j, j).unwrap();
        }
        if k % 16 == 0 {
            std::thread::yield_now();
        }
    }
    stop.store(true, Ordering::Relaxed);
    for h in readers {
        h.join().unwrap();
    }
    let s = tree.cache_stats().unwrap();
    assert!(s.invalidations > 0, "storm never invalidated: {s:?}");
    tree.verify_invariants().unwrap();
}

/// The sharded substrate carves one budget across shards like PoolSet
/// carves capacity: equal shares, floored at one set's worth of ways so
/// a shard never gets a degenerate cache, and zero (disabled) stays zero.
#[test]
fn carve_cache_frames_splits_the_budget_across_shards() {
    let base = RnConfig {
        cache_frames: 1024,
        ..RnConfig::default()
    };
    assert_eq!(base.carve_cache_frames(1).cache_frames, 1024);
    assert_eq!(base.carve_cache_frames(4).cache_frames, 256);
    assert_eq!(base.carve_cache_frames(3).cache_frames, 341);
    // A budget smaller than the shard count still gives every shard a
    // usable (one-set) cache rather than rounding to zero frames.
    let tiny = RnConfig {
        cache_frames: 6,
        ..RnConfig::default()
    };
    assert_eq!(tiny.carve_cache_frames(4).cache_frames, nvm::CACHE_WAYS);
    // Disabled stays disabled: carving must not resurrect a cache the
    // caller turned off.
    let off = RnConfig {
        cache_frames: 0,
        ..RnConfig::default()
    };
    assert_eq!(off.carve_cache_frames(8).cache_frames, 0);
    // Everything else must carve through untouched.
    assert_eq!(base.carve_cache_frames(4).journal_slots, base.journal_slots);
}
