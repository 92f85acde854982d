//! Variable-length-key model tests: an `RnTree` with `varlen_leaves` must
//! behave exactly like a `BTreeMap<Vec<u8>, u64>` under byte-comparable
//! ordering — point ops, ordered scans across leaf boundaries, and both
//! split triggers (slot-count exhaustion with short keys, heap pressure
//! with long ones). Keys are generated shared-prefix-heavy (URL-style) so
//! the 4-byte key heads collide constantly and the suffix-compare and
//! prefix-truncation paths are exercised, not just the head fast path.
//!
//! Also covered: the empty key (smallest possible key, lives on the
//! leftmost leaf whose low fence is itself empty), 64-byte keys at the
//! codec limit, over-long keys (must be rejected, never stored), hash
//! routing across a `ShardedIndex`, quiescent reopen/recover equivalence,
//! and a crash-at-every-persist-point sweep in the style of
//! `crash_points.rs` but over byte keys.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use index_common::{KeyBuf, OpError, PersistentIndex, ShardedIndex, MAX_KEY_LEN};
use nvm::{PmemConfig, PmemPool, PoolSet, SplitMix64};
use rntree::{RnConfig, RnTree};

fn var_cfg() -> RnConfig {
    RnConfig {
        varlen_leaves: true,
        journal_slots: 2,
        ..RnConfig::default()
    }
}

/// Shared prefixes of assorted lengths (including empty and near-limit)
/// so generated keys collide on long common prefixes and on 4-byte heads.
fn prefixes() -> Vec<Vec<u8>> {
    vec![
        b"".to_vec(),
        b"a".to_vec(),
        b"https://example.com/users/".to_vec(),
        b"https://example.com/users/0000/".to_vec(),
        b"https://example.com/items/".to_vec(),
        b"com.example.app.session.".to_vec(),
        vec![0xFF; 24],
        vec![0x00; 40],
    ]
}

/// Random key: shared prefix + suffix of random length over a *small*
/// alphabet (more duplicate prefixes → more head ties and lcp work).
fn gen_key(rng: &mut SplitMix64, prefixes: &[Vec<u8>]) -> Vec<u8> {
    let mut k = prefixes[rng.next_below(prefixes.len() as u64) as usize].clone();
    let max_suffix = (MAX_KEY_LEN - k.len()) as u64;
    let slen = rng.next_below(max_suffix + 1);
    for _ in 0..slen {
        k.push(b'a' + rng.next_below(4) as u8);
    }
    k
}

fn assert_full_scan_matches(
    idx: &dyn PersistentIndex,
    oracle: &BTreeMap<Vec<u8>, u64>,
    tag: &str,
) {
    let mut out = Vec::new();
    idx.scan_k(b"", usize::MAX >> 1, &mut out);
    assert_eq!(out.len(), oracle.len(), "{tag}: scan size");
    for ((k, v), (ok, ov)) in out.iter().zip(oracle.iter()) {
        assert_eq!(k.as_slice(), &ok[..], "{tag}: scan key order");
        assert_eq!(v, ov, "{tag}: scan value");
    }
}

#[test]
fn point_ops_match_byte_key_oracle() {
    let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 24)));
    let tree = RnTree::create(Arc::clone(&pool), var_cfg());
    let mut oracle: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    let mut rng = SplitMix64::new(0x5EED_0007);

    // The empty key is legal: it is the global minimum and lives on the
    // leftmost leaf, whose low fence is itself the empty string.
    tree.insert_k(b"", 42).unwrap();
    oracle.insert(Vec::new(), 42);
    assert_eq!(tree.find_k(b""), Some(42));

    let prefixes = prefixes();
    let mut keys: Vec<Vec<u8>> = (0..400).map(|_| gen_key(&mut rng, &prefixes)).collect();
    keys.push(vec![0xFF; MAX_KEY_LEN]); // the largest storable key
    keys.push(Vec::new());
    keys.sort();
    keys.dedup();

    for _ in 0..8_000 {
        let k = &keys[rng.next_below(keys.len() as u64) as usize];
        let v = rng.next_u64() >> 1;
        match rng.next_below(10) {
            0..=1 => {
                let r = tree.insert_k(k, v);
                if oracle.contains_key(k) {
                    assert_eq!(r, Err(OpError::AlreadyExists), "insert dup {k:?}");
                } else {
                    r.unwrap();
                    oracle.insert(k.clone(), v);
                }
            }
            2..=3 => {
                tree.upsert_k(k, v).unwrap();
                oracle.insert(k.clone(), v);
            }
            4 => {
                let r = tree.update_k(k, v);
                if oracle.contains_key(k) {
                    r.unwrap();
                    oracle.insert(k.clone(), v);
                } else {
                    assert_eq!(r, Err(OpError::NotFound), "update missing {k:?}");
                }
            }
            5..=6 => {
                let r = tree.remove_k(k);
                if oracle.remove(k).is_some() {
                    r.unwrap();
                } else {
                    assert_eq!(r, Err(OpError::NotFound), "remove missing {k:?}");
                }
            }
            _ => {
                assert_eq!(tree.find_k(k), oracle.get(k).copied(), "find {k:?}");
            }
        }
    }

    tree.verify_invariants().unwrap();
    assert_full_scan_matches(&tree, &oracle, "point ops");

    // Over-long keys are rejected on writes and unfindable on reads —
    // they can never have been stored.
    let long = vec![b'z'; MAX_KEY_LEN + 1];
    assert_eq!(tree.insert_k(&long, 1), Err(OpError::UnsupportedKey));
    assert_eq!(tree.upsert_k(&long, 1), Err(OpError::UnsupportedKey));
    assert_eq!(tree.update_k(&long, 1), Err(OpError::UnsupportedKey));
    assert_eq!(tree.remove_k(&long), Err(OpError::UnsupportedKey));
    assert_eq!(tree.find_k(&long), None);
}

#[test]
fn scans_stay_ordered_across_leaf_boundaries() {
    let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 24)));
    let tree = RnTree::create(Arc::clone(&pool), var_cfg());
    let mut oracle: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    let mut rng = SplitMix64::new(0x5CA_0815);

    // Enough keys for dozens of leaves, so every interesting scan crosses
    // several leaf (and fence/prefix) boundaries.
    let prefixes = prefixes();
    for i in 0..3_000u64 {
        let k = gen_key(&mut rng, &prefixes);
        tree.upsert_k(&k, i).unwrap();
        oracle.insert(k, i);
    }
    tree.verify_invariants().unwrap();

    let mut starts: Vec<Vec<u8>> = Vec::new();
    starts.push(Vec::new()); // from the very beginning
    starts.push(vec![0xFF; MAX_KEY_LEN]); // from the very end
    starts.push(vec![b'q'; MAX_KEY_LEN + 7]); // over-long start: clamped
    for _ in 0..24 {
        // Present keys (inclusive start) and absent perturbations.
        let k = oracle.keys().nth(rng.next_below(oracle.len() as u64) as usize).unwrap();
        starts.push(k.clone());
        let mut absent = k.clone();
        absent.push(0x01);
        starts.push(absent);
    }

    let mut out = Vec::new();
    for start in &starts {
        for n in [0usize, 1, 5, 63, 64, 65, 500, oracle.len() + 10] {
            let got = tree.scan_k(start, n, &mut out);
            let want: Vec<(Vec<u8>, u64)> = oracle
                .range(start.clone()..)
                .take(n)
                .map(|(k, &v)| (k.clone(), v))
                .collect();
            assert_eq!(got, want.len(), "scan_k({start:?}, {n}) count");
            assert_eq!(out.len(), want.len());
            for ((k, v), (wk, wv)) in out.iter().zip(want.iter()) {
                assert_eq!(k.as_slice(), &wk[..], "scan_k({start:?}, {n}) key");
                assert_eq!(v, wv, "scan_k({start:?}, {n}) value");
            }
        }
    }
}

/// Heap-pressure splits: max-length keys with no shared prefix make each
/// record cost the worst case, so leaves split on heap exhaustion long
/// before the slot array fills. Short dense keys split on slot count.
/// Both streams must agree with the oracle and survive reopen + recover.
#[test]
fn both_split_triggers_match_oracle_and_reopen() {
    for long_keys in [true, false] {
        let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 24)));
        let cfg = var_cfg();
        let tree = RnTree::create(Arc::clone(&pool), cfg);
        let mut oracle: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        let mut rng = SplitMix64::new(0xB1607 + long_keys as u64);

        for i in 0..1_500u64 {
            let k = if long_keys {
                // 56–64 random bytes over the full alphabet: lcp ≈ 0, so
                // the stored suffix is nearly the whole key.
                let len = 56 + rng.next_below(9) as usize;
                (0..len).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>()
            } else {
                // Short dense keys: tiny records, splits come from the
                // 63-entry slot array.
                let mut k = vec![b'k'];
                k.extend_from_slice(&(rng.next_below(100_000) * 7).to_be_bytes()[3..]);
                k
            };
            tree.upsert_k(&k, i).unwrap();
            oracle.insert(k, i);
        }
        let tag = if long_keys { "heap splits" } else { "slot splits" };
        assert!(
            tree.stats().leaves > 20,
            "{tag}: stream did not force splits ({} leaves)",
            tree.stats().leaves
        );
        tree.verify_invariants().unwrap();
        assert_full_scan_matches(&tree, &oracle, tag);

        // Quiescent clean reopen preserves everything.
        tree.close();
        drop(tree);
        let tree = RnTree::reopen_clean(Arc::clone(&pool), cfg);
        tree.verify_invariants().unwrap();
        assert_full_scan_matches(&tree, &oracle, &format!("{tag} reopened"));

        // Full crash recovery (transients discarded, routes rebuilt from
        // fences) preserves everything too, and stays writable.
        drop(tree);
        pool.simulate_crash();
        let tree = RnTree::recover(Arc::clone(&pool), cfg);
        tree.verify_invariants().unwrap();
        assert_full_scan_matches(&tree, &oracle, &format!("{tag} recovered"));
        tree.insert_k(b"post-recovery", 1).unwrap();
    }
}

#[test]
fn sharded_byte_key_routing_matches_oracle() {
    for shards in [1usize, 4] {
        let set = PoolSet::new(PmemConfig::for_testing(shards << 23), shards);
        // Splits between the key prefixes: "", zeros and "a" | com and
        // items | users | 0xFF.
        let splits = [&b"b"[..], b"https://example.com/users/", b"\xF0"].map(KeyBuf::from_slice);
        let idx = ShardedIndex::<RnTree>::create(&set.handles(), var_cfg()).with_splits(splits[..shards - 1].to_vec());
        let mut oracle: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        let mut rng = SplitMix64::new(0x54A2D ^ shards as u64);

        let prefixes = prefixes();
        for step in 0..4_000u64 {
            let k = gen_key(&mut rng, &prefixes);
            match rng.next_below(10) {
                0..=5 => {
                    idx.upsert_k(&k, step).unwrap();
                    oracle.insert(k, step);
                }
                6..=7 => {
                    let r = idx.remove_k(&k);
                    assert_eq!(r.is_ok(), oracle.remove(&k).is_some(), "remove {k:?}");
                }
                _ => {
                    assert_eq!(idx.find_k(&k), oracle.get(&k).copied(), "find {k:?}");
                }
            }
        }

        // Scans concatenated across the splits must come back globally
        // byte-ordered, and every shard must hold keys.
        assert_full_scan_matches(&idx, &oracle, &format!("sharded x{shards}"));
        for i in 0..shards {
            assert!(idx.shard(i).stats().entries > 0, "sharded x{shards}: shard {i} got no key");
        }
        let mut out = Vec::new();
        for _ in 0..8 {
            let start = gen_key(&mut rng, &prefixes);
            let got = idx.scan_k(&start, 100, &mut out);
            let want: Vec<(Vec<u8>, u64)> = oracle
                .range(start.clone()..)
                .take(100)
                .map(|(k, &v)| (k.clone(), v))
                .collect();
            assert_eq!(got, want.len(), "sharded scan_k({start:?}) count");
            for ((k, v), (wk, wv)) in out.iter().zip(want.iter()) {
                assert_eq!(k.as_slice(), &wk[..]);
                assert_eq!(v, wv);
            }
        }
    }
}

/// Byte-key bulk paths agree with the incremental ones: `load_sorted_k`
/// builds the same tree a per-key upsert loop would, and
/// `insert_batch_k` reports per-key conditional results that match the
/// oracle.
#[test]
fn bulk_paths_match_oracle() {
    let mut rng = SplitMix64::new(0xB01C);
    let prefixes = prefixes();
    let mut pairs: Vec<(KeyBuf, u64)> = Vec::new();
    let mut oracle: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for i in 0..2_000u64 {
        let k = gen_key(&mut rng, &prefixes);
        if oracle.insert(k.clone(), i).is_none() {
            pairs.push((KeyBuf::from_slice(&k), i));
        } else {
            // Duplicate key: keep the later value, like upsert would.
            if let Some(p) = pairs.iter_mut().find(|p| p.0.as_slice() == &k[..]) {
                p.1 = i;
            }
        }
    }
    pairs.sort_by_key(|p| p.0);

    let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 24)));
    let tree = RnTree::create(Arc::clone(&pool), var_cfg());
    tree.load_sorted_k(&pairs).unwrap();
    tree.verify_invariants().unwrap();
    assert_full_scan_matches(&tree, &oracle, "load_sorted_k");

    // A batch mixing fresh keys with duplicates of loaded ones: strict
    // insert semantics per key.
    let mut batch: Vec<(KeyBuf, u64)> = Vec::new();
    let mut expect_dup = Vec::new();
    for i in 0..300u64 {
        let k = gen_key(&mut rng, &prefixes);
        expect_dup.push(oracle.contains_key(&k));
        if !oracle.contains_key(&k) {
            oracle.insert(k.clone(), 1_000_000 + i);
        }
        batch.push((KeyBuf::from_slice(&k), 1_000_000 + i));
    }
    // The batch is sorted in place, so pair results back up by key.
    let results = tree.insert_batch_k(&mut batch);
    assert_eq!(results.len(), batch.len());
    for ((k, _), r) in batch.iter().zip(results.iter()) {
        let dup = r == &Err(OpError::AlreadyExists);
        // A key may repeat inside the batch itself; the oracle kept the
        // first fresh value, so just check dup-vs-fresh consistency.
        assert!(
            r.is_ok() || dup,
            "insert_batch_k({:?}) unexpected error {r:?}",
            k.as_slice()
        );
    }
    tree.verify_invariants().unwrap();
    // Every oracle key is present with a plausible value (batch-internal
    // duplicates make exact values order-dependent; presence is not).
    for k in oracle.keys() {
        assert!(tree.find_k(k).is_some(), "missing {k:?} after batch");
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, u64),
    Upsert(Vec<u8>, u64),
    Remove(Vec<u8>),
}

impl Op {
    fn key(&self) -> &[u8] {
        match self {
            Op::Insert(k, _) | Op::Upsert(k, _) | Op::Remove(k) => k,
        }
    }
}

/// Deterministic byte-key op sequence with enough long keys to force
/// heap-pressure splits (journal-covered windows) alongside plain
/// insert/update/remove churn.
fn script() -> Vec<Op> {
    let mut rng = SplitMix64::new(0xC4A54);
    let prefixes = prefixes();
    let mut ops = Vec::new();
    let keys: Vec<Vec<u8>> = (0..120).map(|_| gen_key(&mut rng, &prefixes)).collect();
    for (i, k) in keys.iter().enumerate() {
        ops.push(Op::Insert(k.clone(), i as u64));
    }
    for (i, k) in keys.iter().enumerate().step_by(2) {
        ops.push(Op::Upsert(k.clone(), i as u64 + 1_000));
    }
    for k in keys.iter().step_by(4) {
        ops.push(Op::Remove(k.clone()));
    }
    // A burst of worst-case records to drive heap splits mid-script.
    for i in 0..60u64 {
        let len = 60 + (i % 5) as usize;
        let k: Vec<u8> = (0..len).map(|j| (i as u8).wrapping_mul(31).wrapping_add(j as u8)).collect();
        ops.push(Op::Insert(k, 5_000 + i));
    }
    ops
}

fn apply(tree: &RnTree, ops: &[Op], model: &mut BTreeMap<Vec<u8>, u64>) -> Option<Op> {
    for op in ops {
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| match op {
            Op::Insert(k, v) => tree.insert_k(k, *v).map(|_| (k, Some(*v))),
            Op::Upsert(k, v) => tree.upsert_k(k, *v).map(|_| (k, Some(*v))),
            Op::Remove(k) => tree.remove_k(k).map(|_| (k, None)),
        }));
        match r {
            Ok(Ok((k, Some(v)))) => {
                model.insert(k.clone(), v);
            }
            Ok(Ok((k, None))) => {
                model.remove(k);
            }
            Ok(Err(_)) => { /* conditional rejection: no state change */ }
            Err(_) => return Some(op.clone()),
        }
    }
    None
}

#[test]
fn every_persist_crash_point_recovers_byte_keys() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let ops = script();
    let cfg = var_cfg();

    // Count the script's total persists on an untrapped run.
    let total = {
        let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 23)));
        let tree = RnTree::create(Arc::clone(&pool), cfg);
        let base = pool.stats().snapshot().persists;
        let mut model = BTreeMap::new();
        assert!(apply(&tree, &ops, &mut model).is_none());
        pool.stats().snapshot().persists - base
    };
    assert!(total > 300, "script too small: {total} persists");

    // Step coprime with the 2-persist op pattern so every intra-op
    // position is hit; always include the first and last few points.
    let mut points: Vec<u64> = (1..=total).step_by(5).collect();
    points.extend(total.saturating_sub(4)..=total);
    points.sort_unstable();
    points.dedup();

    for &trap_at in &points {
        let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 23)));
        let tree = RnTree::create(Arc::clone(&pool), cfg);
        pool.arm_persist_trap(trap_at);
        let mut model = BTreeMap::new();
        let in_flight = apply(&tree, &ops, &mut model);
        pool.disarm_persist_trap();
        drop(tree);
        pool.simulate_crash();

        let tree = RnTree::recover(Arc::clone(&pool), cfg);
        tree.verify_invariants()
            .unwrap_or_else(|e| panic!("trap@{trap_at}: invariants: {e}"));

        let in_flight_key = in_flight.as_ref().map(|op| op.key().to_vec());
        for (k, v) in &model {
            if Some(k) == in_flight_key.as_ref() {
                continue;
            }
            assert_eq!(
                tree.find_k(k),
                Some(*v),
                "trap@{trap_at}: acked key {k:?} wrong after crash"
            );
        }
        if let Some(op) = &in_flight {
            let (k, new_v) = match op {
                Op::Insert(k, v) | Op::Upsert(k, v) => (k, Some(*v)),
                Op::Remove(k) => (k, None),
            };
            let old_v = model.get(k).copied();
            let found = tree.find_k(k);
            assert!(
                found == old_v || found == new_v,
                "trap@{trap_at}: in-flight op on {k:?} left torn state {found:?}"
            );
        }

        // No phantoms beyond model ∪ in-flight.
        let mut out = Vec::new();
        tree.scan_k(b"", usize::MAX >> 1, &mut out);
        for (k, _) in out {
            assert!(
                model.contains_key(k.as_slice()) || Some(k.as_slice()) == in_flight_key.as_deref(),
                "trap@{trap_at}: phantom key {:?}",
                k.as_slice()
            );
        }

        // The recovered tree keeps working.
        tree.insert_k(b"post-recovery-probe", 1)
            .unwrap_or_else(|e| panic!("trap@{trap_at}: post-recovery insert: {e}"));
    }

    std::panic::set_hook(default_hook);
}
