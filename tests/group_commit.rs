//! Group-commit system tests: the flat-combining layer over the real
//! tree stack must be transparent to callers (same results as direct
//! execution, first duplicate wins inside an epoch), crash-consistent at
//! every persist point of a draining epoch, and live across leader
//! thread exits (leadership is re-elected, never leaked).

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use index_common::{GroupCommit, GroupCommitConfig, KeyCodec, OpError, PersistentIndex, ShardedIndex, U64Key};
use nvm::{PmemConfig, PmemPool, PoolSet};
use rntree::{RnConfig, RnTree};

/// Two more writers than `shards` have CPUs between them: a write runs
/// directly while its shard has fewer than `available_parallelism` other
/// writers in flight, so only a count past the CPU count makes writers
/// publish and epochs form.
fn writers_past_cpus(shards: u64) -> u64 {
    shards * std::thread::available_parallelism().map_or(1, |n| n.get() as u64) + 2
}

/// At least eight concurrent writers over `GroupCommit<ShardedIndex<RnTree>>`
/// (two combining shards over two tree shards) must end in exactly
/// the state a `BTreeMap` oracle predicts, and contended same-key strict
/// inserts must resolve to exactly one winner whose value is the one
/// stored — the in-epoch first-dup-wins contract as callers see it. The
/// writers outnumber the CPUs of both shards and persists are slow, so
/// writers are descheduled mid-op, shards are oversubscribed and epochs
/// form on any host.
#[test]
fn eight_writers_match_oracle_and_contended_inserts_have_one_winner() {
    const SHARDS: usize = 2;
    const PER: u64 = 300;
    const CONTENDED: u64 = 32;
    let threads = writers_past_cpus(SHARDS as u64).max(8);

    let set = PoolSet::new(
        PmemConfig {
            write_latency_ns: 20_000,
            ..PmemConfig::for_testing(SHARDS << 22)
        },
        SHARDS,
    );
    // The tree shards split the writers' key ranges in half.
    let split = U64Key::encode(1_000_000 + threads / 2 * PER);
    let inner = ShardedIndex::<RnTree>::create(&set.handles(), RnConfig::default()).with_splits(vec![split]);
    let gc = Arc::new(GroupCommit::new(
        inner,
        GroupCommitConfig {
            shards: SHARDS,
            ..GroupCommitConfig::default()
        },
    ));

    // contended_wins[j] = (winner count, winning thread's value).
    let contended_wins: Vec<(AtomicU64, AtomicU64)> =
        (0..CONTENDED).map(|_| (AtomicU64::new(0), AtomicU64::new(0))).collect();

    std::thread::scope(|s| {
        for t in 0..threads {
            let gc = Arc::clone(&gc);
            let contended_wins = &contended_wins;
            s.spawn(move || {
                // Disjoint range: insert all, upsert every 3rd, remove
                // every 5th — mirrors the oracle below.
                for i in 0..PER {
                    let k = 1_000_000 + t * PER + i;
                    gc.insert(k, k).unwrap();
                    if i % 3 == 0 {
                        gc.upsert(k, k + 1).unwrap();
                    }
                    if i % 5 == 0 {
                        gc.remove(k).unwrap();
                    }
                }
                // Contended strict inserts: all threads race for
                // the same 32 keys with thread-specific values.
                for j in 0..CONTENDED {
                    match gc.insert(500 + j, 77_000 + t) {
                        Ok(()) => {
                            contended_wins[j as usize].0.fetch_add(1, Ordering::Relaxed);
                            contended_wins[j as usize].1.store(77_000 + t, Ordering::Relaxed);
                        }
                        Err(OpError::AlreadyExists) => {}
                        Err(e) => panic!("contended insert: {e:?}"),
                    }
                }
            });
        }
    });

    // Disjoint-range oracle.
    let mut expect = BTreeMap::new();
    for t in 0..threads {
        for i in 0..PER {
            let k = 1_000_000 + t * PER + i;
            expect.insert(k, k);
            if i % 3 == 0 {
                expect.insert(k, k + 1);
            }
            if i % 5 == 0 {
                expect.remove(&k);
            }
        }
    }
    for (&k, &v) in &expect {
        assert_eq!(gc.find(k), Some(v), "key {k}");
    }

    // Exactly one winner per contended key, and the stored value is the
    // winner's — the caller that saw Ok is the caller whose write took.
    for (j, (wins, val)) in contended_wins.iter().enumerate() {
        assert_eq!(wins.load(Ordering::Relaxed), 1, "contended key {j}");
        assert_eq!(
            gc.find(500 + j as u64),
            Some(val.load(Ordering::Relaxed)),
            "contended key {j} holds the loser's value"
        );
    }

    // Every op is accounted for exactly once, none hit the backpressure
    // fallback at this thread count, and the oversubscribed shards formed
    // epochs. Epoch *size* is timing-dependent, so multi-op coalescing is
    // pinned deterministically by the gated-executor unit tests in
    // `index-common::combine`, not here.
    let s = gc.commit_stats();
    let writes = threads * (PER + PER.div_ceil(3) + PER.div_ceil(5) + CONTENDED);
    assert_eq!(s.ops_coalesced + s.ops_solo + s.ops_reclaimed, writes, "{s:?}");
    assert_eq!(s.ops_direct_full, 0, "{s:?}");
    assert!(s.epochs > 0 && s.ops_coalesced + s.ops_reclaimed > 0, "{s:?}");
    for i in 0..SHARDS {
        gc.inner().shard(i).verify_invariants().unwrap();
    }
}

/// Crash-at-every-persist-point sweep through draining epochs: waves of
/// `available_parallelism + 2` barrier-synced writers each issue one op,
/// so the shard is oversubscribed and epochs regularly carry several ops
/// next to direct writers running in parallel. The persist trap fires at
/// the N-th persistent instruction — inside whatever epoch or direct op
/// is executing then. The poisoned-epoch protocol and the pool's dead
/// mark turn that into a panic on every writer that still has an op
/// outstanding or waits on a lock the crash stranded (never a deadlock).
/// After recovery, every acknowledged op must be durable and each
/// crashed writer's single in-flight op atomically present or absent.
/// `max_wait` is set far above the test runtime so the reclaim path
/// stays closed.
#[test]
fn crash_sweep_through_draining_epochs_preserves_acked_ops() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let threads = writers_past_cpus(1);
    const WAVES: u64 = 25;

    for trap_at in (1..=75u64).step_by(2) {
        // Millisecond persists keep each writer inside `write` longer
        // than a scheduler time slice, so the surplus writers get
        // descheduled mid-op and the running ones publish.
        let pool = Arc::new(PmemPool::new(PmemConfig {
            write_latency_ns: 1_000_000,
            ..PmemConfig::for_testing(1 << 22)
        }));
        let cfg = RnConfig {
            journal_slots: 2,
            ..RnConfig::default()
        };
        let tree = RnTree::create(Arc::clone(&pool), cfg);
        let gc = Arc::new(GroupCommit::new(
            tree,
            GroupCommitConfig {
                max_wait: Duration::from_secs(600),
                ..GroupCommitConfig::default()
            },
        ));
        let mut acked: Vec<u64> = Vec::new();
        let in_flight = Mutex::new(Vec::new());

        pool.arm_persist_trap(trap_at);
        'waves: for wave in 0..WAVES {
            let barrier = Barrier::new(threads as usize);
            let wave_acked: Vec<u64> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let gc = Arc::clone(&gc);
                        let (barrier, in_flight) = (&barrier, &in_flight);
                        s.spawn(move || {
                            let k = wave * threads + t + 1;
                            barrier.wait();
                            match std::panic::catch_unwind(AssertUnwindSafe(|| {
                                gc.insert(k, k * 7)
                            })) {
                                Ok(Ok(())) => Some(k),
                                Ok(Err(e)) => panic!("fresh insert failed: {e:?}"),
                                Err(_) => {
                                    // Crash: this op (claimed into the
                                    // crashed epoch, or withdrawn by the
                                    // poison check) is the thread's one
                                    // in-flight op.
                                    in_flight.lock().unwrap().push(k);
                                    None
                                }
                            }
                        })
                    })
                    .collect();
                handles.into_iter().filter_map(|h| h.join().unwrap()).collect()
            });
            let crashed = wave_acked.len() < threads as usize;
            acked.extend(wave_acked);
            if crashed {
                break 'waves;
            }
        }
        pool.disarm_persist_trap();
        drop(gc);
        pool.simulate_crash();

        let tree = RnTree::recover(Arc::clone(&pool), cfg);
        tree.verify_invariants()
            .unwrap_or_else(|e| panic!("trap@{trap_at}: invariants: {e}"));
        for &k in &acked {
            assert_eq!(tree.find(k), Some(k * 7), "trap@{trap_at}: acked key {k} lost");
        }
        for &k in in_flight.lock().unwrap().iter() {
            let got = tree.find(k);
            assert!(
                got.is_none() || got == Some(k * 7),
                "trap@{trap_at}: in-flight key {k} torn: {got:?}"
            );
        }
    }

    std::panic::set_hook(default_hook);
}

/// Leadership must survive leader-thread exit: a leader is whichever
/// writer wins the per-shard CAS while its own op waits, and the flag is
/// released before `write` returns, so a wave of writer threads can
/// fully exit and the next wave elects fresh leaders. Three waves of
/// `available_parallelism + 2` threads each (enough to oversubscribe the
/// shard, so writers publish) must all make progress and each wave must
/// elect at least one leader.
#[test]
fn leader_handoff_survives_thread_exit() {
    let threads = writers_past_cpus(1);
    // Slow persists keep every writer inside `write` for milliseconds, so
    // the OS must time-slice the surplus writers mid-op and the shard
    // sees more writers in flight than CPUs on any host.
    let pool = Arc::new(PmemPool::new(PmemConfig {
        write_latency_ns: 50_000,
        ..PmemConfig::for_testing(1 << 23)
    }));
    let tree = RnTree::create(Arc::clone(&pool), RnConfig::default());
    let gc = Arc::new(GroupCommit::new(tree, GroupCommitConfig::default()));

    let mut elections_after_wave = Vec::new();
    for wave in 0..3u64 {
        std::thread::scope(|s| {
            for t in 0..threads {
                let gc = Arc::clone(&gc);
                s.spawn(move || {
                    for i in 0..50u64 {
                        let k = wave * 1_000_000 + t * 1_000 + i + 1;
                        gc.insert(k, k).unwrap();
                    }
                });
            }
        });
        // All writer threads (including every elected leader) have now
        // exited.
        elections_after_wave.push(gc.commit_stats().leader_elections);
    }

    for wave in 0..3u64 {
        for t in 0..threads {
            for i in 0..50u64 {
                let k = wave * 1_000_000 + t * 1_000 + i + 1;
                assert_eq!(gc.find(k), Some(k), "key {k}");
            }
        }
    }
    // Each wave drained its own ops, so each wave elected at least one
    // leader — elections strictly increase across waves.
    assert!(elections_after_wave[0] >= 1, "{elections_after_wave:?}");
    assert!(
        elections_after_wave[1] > elections_after_wave[0]
            && elections_after_wave[2] > elections_after_wave[1],
        "no fresh elections after leader threads exited: {elections_after_wave:?}"
    );
    gc.inner().verify_invariants().unwrap();
}

/// Deterministic duplicate race: two barrier-synced threads strict-insert
/// the same key with different values, many rounds. Every round must end
/// with exactly one `Ok` and the stored value must be the Ok-winner's —
/// whether the two ops landed in one epoch (first-dup-wins in the run
/// executor) or in separate epochs (second sees `AlreadyExists`).
#[test]
fn duplicate_insert_race_always_has_exactly_one_winner() {
    let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 22)));
    let tree = RnTree::create(Arc::clone(&pool), RnConfig::default());
    let gc = Arc::new(GroupCommit::new(tree, GroupCommitConfig::default()));

    for round in 0..200u64 {
        let key = 42;
        let barrier = Barrier::new(2);
        let results: Vec<Result<(), OpError>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2u64)
                .map(|t| {
                    let gc = Arc::clone(&gc);
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        gc.insert(key, round * 10 + t)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let winners: Vec<u64> = (0..2u64).filter(|&t| results[t as usize].is_ok()).collect();
        assert_eq!(winners.len(), 1, "round {round}: {results:?}");
        assert_eq!(
            gc.find(key),
            Some(round * 10 + winners[0]),
            "round {round}: stored value is not the Ok-winner's"
        );
        for (t, r) in results.iter().enumerate() {
            if t as u64 != winners[0] {
                assert_eq!(*r, Err(OpError::AlreadyExists), "round {round}");
            }
        }
        gc.remove(key).unwrap();
    }
}
