//! Sharded crash consistency: arm the persist trap in **exactly one**
//! shard of a `PoolSet`, crash the whole set mid-modify, recover all
//! shards in parallel, and verify against a `BTreeMap` oracle that
//!
//! * shards that were *not* trapped recover every acknowledged key exactly
//!   (their regions are independent — a neighbour's crash point must not
//!   perturb them), and
//! * the trapped shard is atomic for its single in-flight operation: the
//!   key holds either its pre- or post-op value, never a torn state.
//!
//! This is the sharded analogue of `crash_points.rs`, plus the new claim
//! that matters here: per-shard fault isolation across the composite.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;

use index_common::{AnyKey, KeyCodec, PersistentIndex, ShardedIndex, U64Key};
use nvm::{PmemConfig, PoolSet, SplitMix64};
use rntree::{RnConfig, RnTree};

const SHARDS: usize = 3;

/// An empty set whose shards split the script's keys `3..=720` evenly.
fn create(set: &PoolSet, cfg: RnConfig) -> ShardedIndex<RnTree> {
    ShardedIndex::<RnTree>::create(&set.handles(), cfg).with_splits(vec![U64Key::encode(243), U64Key::encode(483)])
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, u64),
    Upsert(u64, u64),
    Remove(u64),
}

impl Op {
    fn key(self) -> u64 {
        match self {
            Op::Insert(k, _) | Op::Upsert(k, _) | Op::Remove(k) => k,
        }
    }
}

/// Deterministic mixed script; dense enough that every shard splits leaves
/// and churns its journal.
fn script() -> Vec<Op> {
    let mut ops = Vec::new();
    let mut rng = SplitMix64::new(0x5EED);
    for k in 1..=240u64 {
        ops.push(Op::Insert(k * 3, k));
    }
    for _ in 0..200 {
        let k = (rng.next_below(240) + 1) * 3;
        ops.push(Op::Upsert(k, rng.next_below(1 << 20)));
    }
    for _ in 0..80 {
        let k = (rng.next_below(240) + 1) * 3;
        ops.push(Op::Remove(k));
    }
    ops
}

/// Applies ops, maintaining the acknowledged-state oracle; returns the
/// in-flight op if the persist trap fires.
fn apply(idx: &ShardedIndex<RnTree>, ops: &[Op], model: &mut BTreeMap<u64, u64>) -> Option<Op> {
    for &op in ops {
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| match op {
            Op::Insert(k, v) => idx.insert(k, v).map(|_| Some(v)),
            Op::Upsert(k, v) => idx.upsert(k, v).map(|_| Some(v)),
            Op::Remove(k) => idx.remove(k).map(|_| None),
        }));
        match r {
            Ok(Ok(Some(v))) => {
                model.insert(op.key(), v);
            }
            Ok(Ok(None)) => {
                model.remove(&op.key());
            }
            Ok(Err(_)) => {}
            Err(_) => return Some(op),
        }
    }
    None
}

#[test]
fn single_shard_trap_leaves_other_shards_untouched() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let ops = script();
    let cfg = RnConfig { journal_slots: 2, ..RnConfig::default() };

    for target in 0..SHARDS {
        // A spread of crash points inside the target shard's persist
        // stream: early (first leaf writes), mid (splits/journal), late.
        for trap_at in [1u64, 5, 23, 60, 121, 240] {
            let set = PoolSet::new(PmemConfig::for_testing(SHARDS << 22), SHARDS);
            let idx = create(&set, cfg);
            set.shard(target).arm_persist_trap(trap_at);

            let mut model = BTreeMap::new();
            let in_flight = apply(&idx, &ops, &mut model);
            set.shard(target).disarm_persist_trap();

            // The trap must have fired inside an op homed on `target`.
            let in_flight = in_flight.unwrap_or_else(|| {
                panic!("trap {trap_at}@shard{target} never fired — script too small")
            });
            assert_eq!(
                idx.home(AnyKey::U64(in_flight.key())),
                target,
                "trap fired on an op homed elsewhere"
            );

            drop(idx);
            set.simulate_crash();

            let idx = ShardedIndex::<RnTree>::recover(&set.handles(), cfg);
            for i in 0..SHARDS {
                idx.shard(i)
                    .verify_invariants()
                    .unwrap_or_else(|e| panic!("trap {trap_at}@shard{target}: shard {i}: {e}"));
            }

            // Every acknowledged key — on any shard — is exact; only the
            // trapped shard's single in-flight key may be pre- or post-op.
            for (k, v) in &model {
                if *k == in_flight.key() {
                    continue;
                }
                assert_eq!(
                    idx.find(*k),
                    Some(*v),
                    "trap {trap_at}@shard{target}: acked key {k} (shard {}) wrong",
                    idx.home(AnyKey::U64(*k))
                );
            }
            let k = in_flight.key();
            let old_v = model.get(&k).copied();
            let new_v = match in_flight {
                Op::Insert(_, v) | Op::Upsert(_, v) => Some(v),
                Op::Remove(_) => None,
            };
            let found = idx.find(k);
            assert!(
                found == old_v || found == new_v,
                "trap {trap_at}@shard{target}: in-flight key {k} torn: {found:?} (old {old_v:?} new {new_v:?})"
            );

            // No phantoms anywhere in the composite.
            let mut out = Vec::new();
            idx.scan_n(0, usize::MAX >> 1, &mut out);
            for (k2, _) in out {
                assert!(
                    model.contains_key(&k2) || k2 == k,
                    "trap {trap_at}@shard{target}: phantom key {k2}"
                );
            }

            // The recovered composite keeps serving writes on every shard
            // that holds keys: a probe just above a shard's first key stays
            // in its range, and no script key is `3m + 1`.
            for i in 0..SHARDS {
                let mut first = Vec::new();
                if idx.shard(i).scan_n(0, 1, &mut first) == 1 {
                    let probe = first[0].0 + 1;
                    assert_eq!(idx.home(AnyKey::U64(probe)), i, "trap {trap_at}@shard{target}");
                    idx.upsert(probe, probe).unwrap_or_else(|e| {
                        panic!("trap {trap_at}@shard{target}: post-recovery write to shard {i}: {e}")
                    });
                }
            }
        }
    }

    std::panic::set_hook(default_hook);
}

#[test]
fn quiescent_poolset_crash_recovers_everything() {
    // No trap: crash the whole set between operations; every acknowledged
    // key must survive parallel recovery bit-exact.
    let cfg = RnConfig::default();
    let set = PoolSet::new(PmemConfig::for_testing(SHARDS << 22), SHARDS);
    let idx = create(&set, cfg);
    let mut model = BTreeMap::new();
    assert!(apply(&idx, &script(), &mut model).is_none());
    drop(idx);
    set.simulate_crash();

    let (idx, times) = ShardedIndex::<RnTree>::recover_timed(&set.handles(), cfg);
    assert_eq!(times.len(), SHARDS);
    assert_eq!(idx.stats().entries, model.len() as u64);
    assert_eq!(idx.entry_skew().0.iter().filter(|&&e| e > 0).count(), SHARDS, "every shard kept keys");
    for (k, v) in &model {
        assert_eq!(idx.find(*k), Some(*v), "key {k}");
    }
}
