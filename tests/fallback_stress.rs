//! Stress test for the HTM fallback path.
//!
//! A mixed optimistic + forced-fallback workload over paired words stays
//! atomic against a sequential replay oracle while concurrent snapshot
//! readers observe the pair invariant, and the abort-taxonomy counters
//! account for every section exactly once.
//!
//! Forced fallbacks use one trick: the optimistic attempt returns a
//! fabricated [`AbortCode::Conflict`]; once the retry budget is
//! exhausted, `HtmDomain::atomic` runs the body under the domain's
//! fallback lock.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;

use htm::{Abort, AbortCode, HtmDomain, RetryPolicy, TmWord, TxnOptions};

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

    let domain = HtmDomain::with_options(
        TxnOptions::default(),
        RetryPolicy { max_retries: 2 },
    );
    let done = AtomicBool::new(false);
    let pair_reads = AtomicU64::new(0);
    let forced_ops = AtomicU64::new(0);

    thread::scope(|s| {
        let mut writers = Vec::new();
        for t in 0..THREADS {
            let (domain, pool, forced_ops) = (&domain, &pool, &forced_ops);
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
                    domain.atomic(|txn| {
                        let a = txn.read(lo)?;
                        let b = txn.read(hi)?;
                        assert_eq!(a, b, "pair invariant broken inside a transaction");
                        if forced && !txn.is_fallback() {
                            return Err(Abort {
                                code: AbortCode::Conflict,
                            });
                        }
                        txn.write(lo, a + delta)?;
                        txn.write(hi, b + delta)
                    });
                }
            }));
        }
        for r in 0..READERS {
            let (domain, pool, done, pair_reads) = (&domain, &pool, &done, &pair_reads);
            s.spawn(move || {
                let mut k = r;
                while !done.load(Ordering::Relaxed) {
                    let (lo, hi) = (&pool[k % PAIRS].w, &pool[k % PAIRS + PAIRS].w);
                    let (a, b) = domain.atomic(|txn| Ok((txn.read(lo)?, txn.read(hi)?)));
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
    let snap = domain.stats().snapshot();
    // Forced ops reach the fallback, and real conflicts only add to it.
    assert!(snap.fallbacks >= forced_ops.load(Ordering::Relaxed));
    assert_eq!(
        snap.commits + snap.fallbacks,
        (THREADS * OPS + pair_reads.load(Ordering::Relaxed) as usize) as u64,
        "every section ends in exactly one optimistic commit or one fallback"
    );
}
