//! Stress tests for the HTM fallback path.
//!
//! A mixed optimistic + forced-fallback workload over paired words stays
//! atomic against a sequential replay oracle while concurrent snapshot
//! readers observe the pair invariant, and the abort-taxonomy counters
//! account for every section exactly once. Fallbacks counted into two
//! `HtmStats` that take two words in opposite orders finish instead of
//! deadlocking.
//!
//! Forced fallbacks use one trick: the body calls `flush_attempt`, which
//! aborts the optimistic attempt, and `htm::atomic` runs the body
//! again under the process-wide fallback lock, where flushing is legal.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use htm::{HtmStats, TmWord};

const THREADS: usize = 8;

/// One cache line holding one word, so pairs never share a line.
#[repr(align(64))]
#[derive(Default)]
struct Line {
    w: TmWord,
}

/// Tiny deterministic PRNG so writers and the replay oracle generate the
/// same op stream.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Mixed optimistic and forced-fallback updates over lockstep pairs
/// (`w[k]`, `w[k+32]`), racing snapshot readers: the final state matches
/// a sequential replay oracle and every transactional read of a pair is
/// equal — whichever path each op ended up on.
#[test]
fn mixed_transactional_and_fallback_updates_stay_atomic() {
    const PAIRS: usize = 32;
    const OPS: usize = 400;
    const READERS: usize = 2;
    let pool: Vec<Line> = (0..2 * PAIRS).map(|_| Line::default()).collect();

    let stats = HtmStats::default();
    let done = AtomicBool::new(false);
    let pair_reads = AtomicU64::new(0);
    let forced_ops = AtomicU64::new(0);

    thread::scope(|s| {
        let mut writers = Vec::new();
        for t in 0..THREADS {
            let (stats, pool, forced_ops) = (&stats, &pool, &forced_ops);
            writers.push(s.spawn(move || {
                let mut rng = 0x9E37_79B9 ^ (t as u64 + 1);
                for step in 0..OPS {
                    let k = (xorshift(&mut rng) % PAIRS as u64) as usize;
                    let delta = xorshift(&mut rng) % 9 + 1;
                    let forced = step % 3 == 0;
                    if forced {
                        forced_ops.fetch_add(1, Ordering::Relaxed);
                    }
                    let (lo, hi) = (&pool[k].w, &pool[k + PAIRS].w);
                    htm::atomic(stats, |txn| {
                        let a = txn.read(lo)?;
                        let b = txn.read(hi)?;
                        assert_eq!(a, b, "pair invariant broken inside a transaction");
                        if forced {
                            txn.flush_attempt()?;
                        }
                        txn.write(lo, a + delta)?;
                        txn.write(hi, b + delta)
                    });
                }
            }));
        }
        for r in 0..READERS {
            let (stats, pool, done, pair_reads) = (&stats, &pool, &done, &pair_reads);
            s.spawn(move || {
                let mut k = r;
                while !done.load(Ordering::Relaxed) {
                    let (lo, hi) = (&pool[k % PAIRS].w, &pool[k % PAIRS + PAIRS].w);
                    let (a, b) = htm::atomic(stats, |txn| Ok((txn.read(lo)?, txn.read(hi)?)));
                    assert_eq!(a, b, "snapshot reader saw a torn pair");
                    pair_reads.fetch_add(1, Ordering::Relaxed);
                    k += 1;
                }
            });
        }
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
    });

    // Sequential replay oracle: increments commute, so the final state is
    // the per-pair sum of every thread's deltas, in any interleaving.
    let mut oracle: std::collections::BTreeMap<usize, u64> = std::collections::BTreeMap::new();
    for t in 0..THREADS {
        let mut rng = 0x9E37_79B9 ^ (t as u64 + 1);
        for _ in 0..OPS {
            let k = (xorshift(&mut rng) % PAIRS as u64) as usize;
            let delta = xorshift(&mut rng) % 9 + 1;
            *oracle.entry(k).or_default() += delta;
            *oracle.entry(k + PAIRS).or_default() += delta;
        }
    }
    for (i, l) in pool.iter().enumerate() {
        let want = oracle.get(&i).copied().unwrap_or(0);
        assert_eq!(l.w.load_direct(), want, "word {i} diverged from oracle");
    }

    assert!(pair_reads.load(Ordering::Relaxed) > 0, "readers never ran");
    let snap = stats.snapshot();
    // Forced ops reach the fallback, and real conflicts only add to it.
    assert!(snap.fallbacks >= forced_ops.load(Ordering::Relaxed));
    assert!(snap.commits > 0, "no section committed optimistically");
    assert_eq!(
        snap.commits + snap.fallbacks,
        (THREADS * OPS + pair_reads.load(Ordering::Relaxed) as usize) as u64,
        "every section ends in exactly one optimistic commit or one fallback"
    );
}

/// Two fallbacks in two "domains" take words `a` and `b` in opposite
/// orders. The domains are two stats scopes: each thread counts its
/// section into an `HtmStats` of its own, as two trees do. Thread 1's
/// fallback writes `a`, waits up to 500 ms for thread 2's fallback to
/// write `b`, then writes `b`; thread 2 starts once `a` is written and
/// writes `b`, then `a`. A fallback holds each word's
/// version-lock entry until its body ends, so with a fallback lock per
/// scope each thread would wait forever for the entry the other holds.
/// The lock is process-wide, so thread 2 cannot enter its body until
/// thread 1 is done. A watchdog fails the test instead of hanging it.
#[test]
fn fallbacks_in_two_domains_taking_words_in_opposite_orders_finish() {
    #[derive(Default)]
    struct Shared {
        a: Line,
        b: Line,
        a_written: AtomicBool,
        b_written: AtomicBool,
        /// Whether thread 1 saw thread 2's write of `b` inside its body.
        overlapped: AtomicBool,
    }
    let shared = Arc::new(Shared::default());
    let (done, finished) = mpsc::channel();

    let (sh, tx) = (Arc::clone(&shared), done.clone());
    let first = thread::spawn(move || {
        let stats = HtmStats::default();
        htm::atomic(&stats, |txn| {
            txn.flush_attempt()?;
            txn.write(&sh.a.w, 1)?;
            sh.a_written.store(true, Ordering::Release);
            let deadline = Instant::now() + Duration::from_millis(500);
            while !sh.b_written.load(Ordering::Acquire) && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(1));
            }
            sh.overlapped
                .store(sh.b_written.load(Ordering::Acquire), Ordering::Relaxed);
            txn.write(&sh.b.w, 1)
        });
        tx.send(stats.snapshot().fallbacks).unwrap();
    });
    let (sh, tx) = (Arc::clone(&shared), done);
    let second = thread::spawn(move || {
        while !sh.a_written.load(Ordering::Acquire) {
            thread::yield_now();
        }
        let stats = HtmStats::default();
        htm::atomic(&stats, |txn| {
            txn.flush_attempt()?;
            txn.write(&sh.b.w, 2)?;
            sh.b_written.store(true, Ordering::Release);
            txn.write(&sh.a.w, 2)
        });
        tx.send(stats.snapshot().fallbacks).unwrap();
    });

    for _ in 0..2 {
        let fallbacks = finished
            .recv_timeout(Duration::from_secs(10))
            .expect("fallbacks in two domains deadlocked (no finish within 10 s)");
        assert_eq!(fallbacks, 1, "each body runs once, on the fallback");
    }
    // Both threads have finished, so joining cannot hang.
    first.join().unwrap();
    second.join().unwrap();
    assert!(
        !shared.overlapped.load(Ordering::Relaxed),
        "thread 2's fallback ran while thread 1's was in its body"
    );
    assert_eq!((shared.a.w.load_direct(), shared.b.w.load_direct()), (2, 2));
}
