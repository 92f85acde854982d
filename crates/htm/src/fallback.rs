//! The fallback lock for the lock-elision pattern: one lock for the
//! whole process, [`crate::global::FALLBACK`], beside the clock and the
//! version-lock table.
//!
//! Real RTM code cannot retry forever: after a few aborts it acquires a
//! fallback mutex and runs the critical section non-transactionally. For
//! that to be safe, every hardware transaction *subscribes* to the mutex —
//! reads its state inside the transaction — so acquiring it aborts them.
//! A fallback run (*G*) takes the lock with [`acquire`], runs the body
//! irrevocably with its writes landing in place, and holds the
//! version-lock entry of every word it reads or writes until the body
//! ends.
//!
//! # Why one lock per process
//!
//! The entries a fallback holds live in the process-wide lock table, and
//! a fallback waits for each entry without a bound (it cannot abort). So
//! fallbacks must exclude each other wherever their entries can meet,
//! which is everywhere: with one lock per [`crate::HtmDomain`], two
//! domains' fallbacks that take two entries in opposite orders wait for
//! each other forever. One lock also matches the hardware path the paper
//! describes, a single global fallback lock. The cost is that a fallback
//! in one domain pauses optimistic begins and aborts writing commits in
//! every domain; the trees reach the fallback only on capacity, flush and
//! exhausted-retry aborts, which is rare.
//!
//! # Subscription safety argument
//!
//! Let *O* be an optimistic transaction and *G* a fallback run.
//!
//! **Subscription is two-point.** At *begin*, *O* samples `rv` and then
//! loads the global word, re-sampling until it is observed free: a
//! publish at version v ≤ rv happened before the clock reached `rv`;
//! clock bumps form a release sequence, so reading `rv ≥ v`
//! synchronizes-with that publisher's bump, whose word acquisition
//! precedes it — the post-`rv` word load must still see it odd. So `rv`
//! never falls inside a write window of *G*. If *O* commits writes, it
//! checks once more, *after its write locks are held*, that the global
//! word is free (even). Lazy subscription is a known soundness trap on
//! real RTM: a hardware transaction can act on a torn read long before
//! reaching `XEND`. This STM cannot produce that zombie:
//!
//! **Lemma (opacity).** Every optimistic read is sandwich-validated
//! against the start snapshot `rv`, and *G*'s write set is published
//! **`rv`-indivisibly**: every word *G* writes keeps its entry locked
//! until the body ends, all entries release at one fresh commit version,
//! and the begin-time subscription above pins every `rv` outside *G*'s
//! window. So an in-flight *O* either reads pre-*G* values, reads the
//! whole published set, or aborts at the offending read — it can never
//! observe *G*'s writes torn, not even across several words.
//!
//! **O vs G.** The hazard left is the reverse direction: *G*'s reads are
//! never validated, so an *O* that commits writes **into *G*'s window**
//! would hand *G* a stale snapshot. Case split on *G*'s window vs *O*'s
//! commit, using two facts: *O* holds its write-set lock entries from
//! phase 1 through apply, and *G*'s reads spin out held lock entries
//! word by word:
//!
//! * *G* in flight at *O*'s commit check → the global word is odd → *O*
//!   aborts. This case is a store-buffering shape (*O* stores lock
//!   entries then loads the global word; *G* CASes the global word then
//!   loads lock entries before its first data access), so both sides
//!   carry a **`SeqCst` fence** — *O* between phase-1 acquisition and the
//!   check, *G* in [`acquire`] between acquisition and the body —
//!   guaranteeing at least one side observes the other's store on
//!   non-TSO hardware too.
//! * *G* ended before *O*'s read validation → *G*'s release bumped
//!   versions, so any read overlap aborts *O*; pure write-into-*G*-reads
//!   overlap serialises *G* before *O*.
//! * *G*'s window falls between *O*'s validation and its check → *G*
//!   cannot have read any *O*-written word (those lock entries were
//!   already held; *G* would still be spinning), so *O* → *G* is a
//!   consistent order: *G* read only words *O* left untouched.
//! * *G* began after *O*'s check → *G*'s reads of *O*-written words spin
//!   until *O*'s release and see the fully applied state: *O* → *G*.
//!
//! A read-only *O* commits nothing and perturbs no window, so the only
//! obligation is its own snapshot, which the opacity lemma covers. It
//! therefore skips the commit-time check entirely; with `rv` sampled
//! mid-window it could commit a torn slice of an atomic fallback section.
//!
//! **G vs G.** The global lock excludes them, in every domain of the
//! process.
//!
//! **G vs non-transactional stores.** `TmWord::store_nontx` and
//! `cas_nontx` take only the word's version-lock entry, never the global
//! word, so the lock does not exclude them from *G*'s read window. *G*
//! cannot retry, so it holds the entry of every word it reads or writes
//! until the body ends (two-phase locking): a non-transactional store
//! spins until then, and a read stays current for the whole body.
//! Holding cannot deadlock — no other fallback runs, optimistic
//! committers bound their spin and abort, and a non-transactional store
//! holds one entry and never waits while holding it.
//!
//! State encoding: even = free, odd = held; the value increases on every
//! transition, so it doubles as an acquisition counter.

use std::sync::atomic::Ordering;

use crate::global::FALLBACK;

/// Bounded spin iterations before yielding to the OS while waiting on the
/// fallback word. Oversubscribed thread counts (threads > cores, the
/// common CI case) would otherwise livelock-degrade on pure `spin_loop`.
const SPIN_LIMIT: u32 = 64;

/// True while some thread holds the fallback lock.
#[inline]
pub(crate) fn is_held() -> bool {
    FALLBACK.load_direct() % 2 == 1
}

/// Acquires the fallback lock (bounded spin, then `yield_now`). Returns a
/// guard that releases on drop (panic-safe: a poisoned fallback would
/// otherwise wedge every transaction in the process forever).
pub(crate) fn acquire() -> FallbackGuard {
    let mut spins = 0u32;
    loop {
        let cur = FALLBACK.load_direct();
        if cur.is_multiple_of(2) && FALLBACK.cas_nontx(cur, cur + 1).is_ok() {
            // Ordering: SeqCst fence between acquiring the fallback word
            // and the fallback's first data access. Pairs with the fence
            // in optimistic commit (between its phase-1 lock stores and
            // its fallback-word load): the two sides form a
            // store-buffering pattern, and without a total order both
            // could read stale — the committer seeing this word free
            // while this fallback sees the commit's word locks free and
            // reads pre-commit data. x86's locked RMWs mask this; on
            // weaker architectures the fence is required. See the proof
            // in the module docs.
            std::sync::atomic::fence(Ordering::SeqCst);
            return FallbackGuard(());
        }
        spins += 1;
        if spins >= SPIN_LIMIT {
            spins = 0;
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// RAII guard for the fallback lock.
pub(crate) struct FallbackGuard(());

impl Drop for FallbackGuard {
    fn drop(&mut self) {
        let cur = FALLBACK.load_direct();
        debug_assert_eq!(cur % 2, 1, "releasing a free fallback lock");
        FALLBACK.store_nontx(cur + 1);
    }
}

#[cfg(test)]
mod tests {
    //! The lock is process-wide, so other tests of this crate take it
    //! concurrently: a release shows as the word moving past the value
    //! its holder saw, never as the lock reading free.
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn acquire_release_counts_transitions() {
        let before = FALLBACK.load_direct();
        let held = {
            let _g = acquire();
            assert!(is_held());
            FALLBACK.load_direct()
        };
        assert_eq!(held % 2, 1, "a held lock reads odd");
        assert!(held > before, "acquisition must advance the word");
        assert!(FALLBACK.load_direct() > held, "release must advance the word");
    }

    #[test]
    fn guard_releases_on_panic() {
        let held = Arc::new(AtomicU64::new(0));
        let held2 = Arc::clone(&held);
        let res = std::thread::spawn(move || {
            let _g = acquire();
            held2.store(FALLBACK.load_direct(), Ordering::Relaxed);
            panic!("boom");
        })
        .join();
        assert!(res.is_err());
        let held = held.load(Ordering::Relaxed);
        assert_eq!(held % 2, 1);
        // Only the holder moves an odd word on, so the panicking thread
        // released it while unwinding.
        assert!(FALLBACK.load_direct() > held, "lock must be released by unwinding");
    }

    #[test]
    fn mutual_exclusion() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let _g = acquire();
                    // Non-atomic-looking RMW under the lock.
                    let v = c.load(Ordering::Relaxed);
                    c.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 2000);
    }
}
