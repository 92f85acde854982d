//! The section runners: [`atomic`], the retry loop + fallback path (the
//! lock-elision pattern), and [`snapshot`], the double collect behind
//! RNTree's slot-line reads. Both count into the caller's [`HtmStats`];
//! everything else they touch is process-wide.
//!
//! `htm::atomic(&stats, |txn| …)` is the equivalent of the canonical RTM
//! idiom:
//!
//! ```text
//! retry:
//!   if (_xbegin() == _XBEGIN_STARTED) {
//!       if (fallback_lock_held) _xabort();   // subscription
//!       ... body ...
//!       _xend();
//!   } else {
//!       if (should_retry) goto retry;
//!       pthread_mutex_lock(&fallback); ... body ...; unlock;
//!   }
//! ```
//!
//! The fallback takes the process-wide fallback lock — one for every
//! caller, like the clock and the version-lock table — and runs the body
//! irrevocably: writes land in place, and every word read or written
//! keeps its version-lock entry held until the body ends (see
//! [`crate::fallback`] for the safety argument and for why one lock per
//! process is the only deadlock-free choice).
//!
//! The retry policy is fixed, the same for every section:
//! * **Conflict** aborts retry with exponential backoff; after more than
//!   [`RETRY_BASE`] of them the section takes the fallback.
//! * **Capacity** and **flush-in-txn** aborts go to the fallback
//!   immediately — retrying cannot help a transaction that is too big or
//!   that must flush.
//! * **Explicit** aborts always retry optimistically (after backoff) and
//!   never escalate: the program aborted on purpose (e.g. FPTree's `find`
//!   seeing a locked leaf) and wants a fresh optimistic run. The body is
//!   re-executed from the top, so it re-reads whatever state it aborted
//!   on.

use std::cell::Cell;

use crate::fallback;
use crate::global;
use crate::stats::HtmStats;
use crate::txn::{AbortCode, Txn};
use crate::word::TmWord;
use crate::TxResult;

/// Optimistic retries of conflict aborts before falling back.
const RETRY_BASE: u32 = 16;

std::thread_local! {
    static IN_ATOMIC: Cell<bool> = const { Cell::new(false) };
}

/// Runs `body` atomically, retrying and falling back as real RTM code
/// does, and counts the section into `stats`. The closure may run
/// **multiple times**; side effects other than transactional writes must
/// be idempotent or confined to the final successful run (all algorithms
/// in this repository satisfy this).
///
/// # Panics
/// Panics on nested `atomic` calls from the same thread (real RTM would
/// flat-nest; our algorithms never nest, so we forbid it loudly).
pub fn atomic<'t, R>(stats: &HtmStats, mut body: impl FnMut(&mut Txn<'t>) -> TxResult<R>) -> R {
    IN_ATOMIC.with(|f| {
        assert!(!f.get(), "nested htm::atomic on one thread");
        f.set(true);
    });
    let _reset = ResetOnDrop;
    let mut conflicts = 0u32;
    // Aborts of any cause suffered so far by this logical section; feeds
    // the retries-to-commit histogram on success.
    let mut retries = 0u64;
    loop {
        // The lock-elision prologue (wait out a fallback holder) lives
        // inside `Txn::optimistic`: the begin-time subscription must
        // re-sample `rv` after each observation of the global word, or an
        // irrevocable window could open between a wait here and the rv
        // sample.
        stats.attempts.add(1);
        crate::set_in_transaction(true);
        // Commit-time fallback subscription: a writing txn checks the
        // fallback word for freedom during commit, after its write locks
        // are held — the optimistic hot path pays no per-read fallback
        // loads at all (see the proof in `crate::fallback`).
        let mut txn = Txn::optimistic();
        let result = body(&mut txn);
        crate::set_in_transaction(false);
        let abort = match result {
            Ok(r) => match txn.commit() {
                Ok(()) => {
                    stats.commits.add(1);
                    stats.retries.record(retries);
                    return r;
                }
                Err(a) => a,
            },
            Err(a) => a,
        };

        retries += 1;
        obs::bump_section_aborts();
        let take_fallback = match abort.code {
            AbortCode::Conflict => {
                stats.aborts_conflict.add(1);
                conflicts += 1;
                conflicts > RETRY_BASE
            }
            AbortCode::Capacity => {
                stats.aborts_capacity.add(1);
                true
            }
            AbortCode::FlushInTxn => {
                stats.aborts_flush.add(1);
                true
            }
            AbortCode::Explicit(_) => {
                stats.aborts_explicit.add(1);
                false
            }
        };

        if take_fallback {
            match run_fallback(stats, &mut body) {
                Some(r) => {
                    stats.retries.record(retries);
                    return r;
                }
                // Explicit abort under the lock: resume optimistically.
                None => conflicts = 0,
            }
        }
        backoff(conflicts);
    }
}

/// The fallback: the process-wide lock, irrevocable body. `None` means
/// the body aborted explicitly and the caller should resume
/// optimistically.
fn run_fallback<'t, R>(stats: &HtmStats, body: &mut impl FnMut(&mut Txn<'t>) -> TxResult<R>) -> Option<R> {
    let guard = fallback::acquire();
    stats.fallbacks.add(1);
    obs::bump_section_fallbacks();
    let mut txn = Txn::irrevocable();
    let result = body(&mut txn);
    drop(txn); // releases the word locks the body held
    drop(guard);
    match result {
        Ok(r) => Some(r),
        Err(a) => {
            // Only explicit aborts are possible irrevocably
            // (reads/writes/flushes cannot fail).
            debug_assert!(matches!(a.code, AbortCode::Explicit(_)));
            stats.aborts_explicit.add(1);
            None
        }
    }
}

/// Reads `words` as one atomic snapshot, counted into `stats`: a
/// read-only section over a fixed handful of words, the emulation of
/// RNTree's `htmLeafSnapshot` (a reader copying one slot line inside a
/// tiny hardware transaction). It costs a double collect of the words'
/// version-lock entries instead of an [`atomic`] section: no [`Txn`],
/// read set, ticket or begin-time subscription.
///
/// One try loads every word's entry (it must be unlocked), then every
/// value, then every entry again (it must be unchanged) — the
/// sandwich of [`Txn::read`], applied to all N words at once. A try
/// counts one attempt and ends in one commit or one conflict abort
/// (also reported to [`obs::section_mark`]). After a failed try the
/// snapshot waits, with backoff that yields after a few spins, until
/// the entry that failed is unlocked, so a writer is met once per
/// encounter and a long fallback holder is waited out. Snapshots add
/// nothing to the retries-to-commit histogram.
///
/// **Why a successful try is atomic.** Every writer of a [`TmWord`]
/// holds the word's entry locked while it stores, and releases it at
/// a fresh clock value, greater than any version the entry held
/// before: optimistic commit phase 3, a fallback body (its entries
/// stay held until the body ends) and `store_nontx`/`cas_nontx`. Only
/// a writer that stored nothing restores the old version. So if word
/// i's entry read the same unlocked version v before and after its
/// value load, no store to word i happened between the two entry
/// loads, and the value loaded is the word's value throughout that
/// interval (the Acquire entry load that saw v synchronizes-with the
/// release that published it). Every first load precedes every
/// second load, so all N intervals contain the instant between the
/// two collects, and the N values coexisted at that instant. A
/// fallback that has stored into any of the words holds that entry
/// until its body ends, so the collect fails rather than seeing part
/// of the fallback's writes; no begin-time subscription is needed.
///
/// # Panics
/// Panics inside an [`atomic`] section on the same thread:
/// the values would sit outside the section's read set, and a
/// fallback body would wait forever on the entries it holds itself.
pub fn snapshot<const N: usize>(stats: &HtmStats, words: [&TmWord; N]) -> [u64; N] {
    IN_ATOMIC.with(|f| assert!(!f.get(), "nested htm::snapshot inside htm::atomic"));
    let idx = words.map(TmWord::lock_idx);
    loop {
        stats.attempts.add(1);
        let failed = match double_collect(words, &idx) {
            Ok(vals) => {
                stats.commits.add(1);
                return vals;
            }
            Err(failed) => failed,
        };
        stats.aborts_conflict.add(1);
        obs::bump_section_aborts();
        // Wait out the writer before the next try: retrying while it
        // still holds the entry would only fail again.
        let mut waits = 0u32;
        while global::is_locked(global::lock_load(failed)) {
            waits += 1;
            backoff(waits);
        }
    }
}

/// One try of [`snapshot`]: the values of `words` if every
/// entry `idx` read unlocked and unchanged around the value loads, else
/// the entry that failed.
#[inline]
fn double_collect<const N: usize>(words: [&TmWord; N], idx: &[usize; N]) -> Result<[u64; N], usize> {
    let mut before = [0u64; N];
    for (b, &i) in before.iter_mut().zip(idx) {
        *b = global::lock_load(i);
        if global::is_locked(*b) {
            return Err(i);
        }
    }
    let vals = words.map(TmWord::load_direct);
    // Ordering: the value loads are Acquire, so the second collect cannot
    // be satisfied before them (the same argument as `Txn::read`).
    for (&b, &i) in before.iter().zip(idx) {
        if global::lock_load(i) != b {
            return Err(i);
        }
    }
    Ok(vals)
}

struct ResetOnDrop;

impl Drop for ResetOnDrop {
    fn drop(&mut self) {
        IN_ATOMIC.with(|f| f.set(false));
        crate::set_in_transaction(false);
    }
}

/// Exponential spin backoff, capped; yields to the OS at high counts so
/// single-core machines make progress.
fn backoff(attempt: u32) {
    if attempt > 4 {
        std::thread::yield_now();
        return;
    }
    let spins = 1u32 << attempt;
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    //! The fallback lock is process-wide, so a fallback in any other test
    //! of this crate can abort a writing commit here. Counts that such a
    //! conflict could move are checked as exact accounting, not as
    //! `>=`.
    use super::*;
    use crate::txn::tests::over_capacity;
    use std::sync::Arc;

    #[test]
    fn atomic_swap_is_atomic() {
        let d = HtmStats::default();
        let a = TmWord::new(1);
        let b = TmWord::new(2);
        atomic(&d, |t| {
            let x = t.read(&a)?;
            let y = t.read(&b)?;
            t.write(&a, y)?;
            t.write(&b, x)?;
            Ok(())
        });
        assert_eq!((a.load_direct(), b.load_direct()), (2, 1));
        let s = d.snapshot();
        // One section: an optimistic commit, or a fallback after a streak
        // of conflict aborts; every other attempt was a conflict abort.
        assert_eq!(s.commits + s.fallbacks, 1);
        assert_eq!(s.attempts, s.commits + s.aborts_conflict);
    }

    #[test]
    fn concurrent_increments_never_lose_updates() {
        let d = Arc::new(HtmStats::default());
        let w = Arc::new(TmWord::new(0));
        let threads = 4;
        let per = 2_000u64;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let d = Arc::clone(&d);
            let w = Arc::clone(&w);
            handles.push(std::thread::spawn(move || {
                for _ in 0..per {
                    atomic(&d, |t| {
                        let v = t.read(&w)?;
                        t.write(&w, v + 1)
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(w.load_direct(), threads * per);
    }

    #[test]
    fn capacity_abort_falls_back_and_still_completes() {
        let d = HtmStats::default();
        let words = over_capacity();
        atomic(&d, |t| {
            for w in &words {
                t.write(&w.0, 1)?;
            }
            Ok(())
        });
        for w in &words {
            assert_eq!(w.0.load_direct(), 1);
        }
        // Buffered writes cannot conflict, so the one optimistic attempt
        // ends in the capacity abort.
        let s = d.snapshot();
        assert_eq!(s.fallbacks, 1, "an oversized txn goes straight to the fallback");
        assert_eq!((s.attempts, s.aborts_capacity, s.commits), (1, 1, 0));
    }

    #[test]
    fn explicit_abort_retries_optimistically() {
        let d = HtmStats::default();
        let w = TmWord::new(0);
        let mut tries = 0;
        let r = atomic(&d, |t| {
            tries += 1;
            if tries < 3 {
                return Err(t.abort(7));
            }
            t.read(&w)
        });
        assert_eq!(r, 0);
        assert_eq!(tries, 3);
        let s = d.snapshot();
        assert_eq!(s.aborts_explicit, 2);
        assert_eq!(s.fallbacks, 0, "explicit aborts must not fall back");
    }

    #[test]
    fn flush_in_txn_goes_to_fallback_where_flushing_is_legal() {
        let d = HtmStats::default();
        let flushed = atomic(&d, |t| {
            t.flush_attempt()?; // aborts the optimistic attempt
            Ok(t.is_fallback())
        });
        assert!(flushed, "flushing body must complete irrevocably");
        assert_eq!(d.snapshot().aborts_flush, 1);
    }

    #[test]
    #[should_panic(expected = "nested")]
    fn nesting_panics() {
        let d = HtmStats::default();
        let w = TmWord::new(0);
        atomic(&d, |_| {
            atomic(&d, |t| t.read(&w));
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "nested htm::snapshot")]
    fn snapshot_inside_atomic_panics() {
        let d = HtmStats::default();
        let w = TmWord::new(0);
        atomic(&d, |_| {
            snapshot(&d, [&w]);
            Ok(())
        });
    }

    #[test]
    fn clean_snapshot_counts_one_attempt_and_one_commit() {
        let d = HtmStats::default();
        let words: Vec<TmWord> = (0..8).map(|i| TmWord::new(10 + i)).collect();
        let vals = snapshot(&d, std::array::from_fn::<_, 8, _>(|i| &words[i]));
        assert_eq!(vals, std::array::from_fn(|i| 10 + i as u64));
        let s = d.snapshot();
        // Another test's commit can hold an entry these words share;
        // each such collect is one more attempt and one conflict abort.
        assert_eq!(s.commits, 1);
        assert_eq!(s.attempts, 1 + s.aborts_conflict);
        assert_eq!((s.aborts_capacity, s.aborts_explicit, s.aborts_flush, s.fallbacks), (0, 0, 0, 0));
        assert_eq!(d.retries_to_commit().count(), 0, "snapshots record no retries");
    }

    /// Takes `w`'s lock-table entry as a committing writer would and
    /// returns its index; release it with `global::lock_release`.
    fn hold_entry(w: &TmWord) -> usize {
        let idx = w.lock_idx();
        let owner = global::next_ticket();
        loop {
            let cur = global::lock_load(idx);
            if !global::is_locked(cur) && global::lock_try_acquire(idx, cur, owner) {
                return idx;
            }
            std::hint::spin_loop();
        }
    }

    #[test]
    fn conflict_budget_is_the_same_for_every_section() {
        // A section reading a word whose entry another thread holds
        // conflict-aborts on every optimistic attempt, so it spends the
        // whole retry budget and then takes the fallback, whose read
        // waits for the entry. Two such storms back to back on one thread
        // must cost the same: no state carries over from one section to
        // the next.
        let w = TmWord::new(1);
        let storm = || {
            let idx = hold_entry(&w);
            let d = HtmStats::default();
            std::thread::scope(|s| {
                s.spawn(|| {
                    while d.fallbacks.get() == 0 {
                        std::thread::yield_now();
                    }
                    global::lock_release(idx, global::clock_bump());
                });
                assert_eq!(atomic(&d, |t| t.read(&w)), 1);
            });
            d.snapshot()
        };
        let first = storm();
        let second = storm();
        for s in [first, second] {
            assert_eq!(s.aborts_conflict, RETRY_BASE as u64 + 1);
            assert_eq!(s.attempts, RETRY_BASE as u64 + 1);
            assert_eq!((s.commits, s.fallbacks), (0, 1));
        }
        assert_eq!(first, second);
    }

    #[test]
    fn snapshot_meeting_a_held_entry_counts_conflict_aborts() {
        // The test holds the word's entry as a committing writer would,
        // stores a new value under it and releases it once the reader
        // has failed a collect: the reader must wait the holder out
        // without retrying, see the new value, and its section mark must
        // see every failed collect.
        let w = TmWord::new(1);
        let idx = hold_entry(&w);
        let d = HtmStats::default();
        let (val, delta) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mark = obs::section_mark();
                let [v] = snapshot(&d, [&w]);
                (v, mark.since())
            });
            while d.snapshot().aborts_conflict == 0 {
                std::thread::yield_now();
            }
            for _ in 0..100 {
                std::thread::yield_now();
            }
            let while_held = d.snapshot().aborts_conflict;
            w.0.store(2, std::sync::atomic::Ordering::Release);
            global::lock_release(idx, global::clock_bump());
            let (val, delta) = reader.join().unwrap();
            assert_eq!(while_held, 1, "a held entry costs one abort, not one per retry");
            (val, delta)
        });
        assert_eq!(val, 2, "the snapshot must see the store made under the entry");
        let s = d.snapshot();
        assert!(s.aborts_conflict >= 1);
        assert_eq!(s.commits, 1);
        assert_eq!(s.attempts, s.commits + s.aborts_conflict);
        assert_eq!(delta.aborts, s.aborts_conflict, "section marks see every failed collect");
        assert_eq!(delta.fallbacks, 0);
    }

    #[test]
    fn in_transaction_flag_tracks_optimistic_body() {
        let d = HtmStats::default();
        assert!(!crate::in_transaction());
        atomic(&d, |t| {
            if !t.is_fallback() {
                assert!(crate::in_transaction());
            }
            Ok(())
        });
        assert!(!crate::in_transaction());
    }

    #[test]
    fn read_only_snapshots_never_tear_across_fallbacks() {
        // Writers force every op onto the fallback (a flush aborts the
        // optimistic attempt) and increment (a, b) in lockstep;
        // read-only sections — which skip the commit-time subscription
        // check entirely — must still never observe a != b. The fallback
        // writes in place, so this pins the begin-time subscription and
        // the fallback's held entries releasing at one version.
        let d = Arc::new(HtmStats::default());
        let a = Arc::new(TmWord::new(0));
        let b = Arc::new(TmWord::new(0));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let (d, a, b, stop) = (
                Arc::clone(&d),
                Arc::clone(&a),
                Arc::clone(&b),
                Arc::clone(&stop),
            );
            handles.push(std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    atomic(&d, |t| {
                        t.flush_attempt()?;
                        let x = t.read(&a)?;
                        let y = t.read(&b)?;
                        t.write(&a, x + 1)?;
                        t.write(&b, y + 1)
                    });
                }
            }));
        }
        let (dr, ar, br) = (Arc::clone(&d), Arc::clone(&a), Arc::clone(&b));
        // The reader runs until it has done its reads *and* a writer has
        // reached the fallback: under load it could otherwise finish
        // before any fallback happened and the test would prove nothing.
        let reader = std::thread::spawn(move || {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            let mut reads = 0u32;
            while reads < 5_000 || dr.snapshot().fallbacks == 0 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "no writer reached the fallback within 60 s \
                     ({reads} reads done)"
                );
                let (x, y) = atomic(&dr, |t| {
                    let x = t.read(&ar)?;
                    let y = t.read(&br)?;
                    Ok((x, y))
                });
                assert_eq!(x, y, "read-only commit saw a torn fallback publish");
                reads += 1;
            }
        });
        reader.join().unwrap();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load_direct(), b.load_direct());
        let s = d.snapshot();
        assert!(s.fallbacks > 0, "the fallback must actually have been exercised");
        assert!(s.commits > 0, "the readers must have committed optimistically");
    }

    #[test]
    fn optimistic_begin_subscribes_to_the_irrevocable_window() {
        // A fallback publishes in place, word by word — so optimistic
        // begin must
        // not take an rv from inside its window. The writer holds the
        // window open (a published, b not yet) while the reader begins;
        // the begin-time subscription forces the reader to wait the
        // window out and see (1, 1). Without it the reader's rv covers
        // a's publish but not b's, and it commits the torn (1, 0).
        let d = Arc::new(HtmStats::default());
        let a = Arc::new(TmWord::new(0));
        let b = Arc::new(TmWord::new(0));
        let stage = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let (dw, aw, bw, sw) = (
            Arc::clone(&d),
            Arc::clone(&a),
            Arc::clone(&b),
            Arc::clone(&stage),
        );
        let writer = std::thread::spawn(move || {
            atomic(&dw, |t| {
                t.flush_attempt()?; // aborts optimistic ⇒ fallback
                t.write(&aw, 1)?;
                sw.store(1, std::sync::atomic::Ordering::Release);
                // Hold the window open long enough for the reader to try
                // to begin inside it.
                std::thread::sleep(std::time::Duration::from_millis(40));
                t.write(&bw, 1)?;
                Ok(())
            });
        });
        while stage.load(std::sync::atomic::Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        let (x, y) = atomic(&d, |t| {
            let x = t.read(&a)?;
            let y = t.read(&b)?;
            Ok((x, y))
        });
        writer.join().unwrap();
        assert_eq!(
            (x, y),
            (1, 1),
            "begin must wait out the fallback's write window, not sample rv inside it"
        );
    }

    #[test]
    fn fallback_serialises_against_optimistic_txns() {
        // Two writers increment (a, b) in lockstep, one always on the
        // fallback (a flush aborts its optimistic attempt) and one
        // optimistically; a reader must never observe a != b. The reader
        // has stats of its own: the fallback lock is process-wide, so
        // the writers' stats count only writer sections, and the reader
        // runs until both paths have completed some.
        let d = Arc::new(HtmStats::default());
        let a = Arc::new(TmWord::new(0));
        let b = Arc::new(TmWord::new(0));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let mut handles = Vec::new();
        for forced in [true, false] {
            let (d, a, b, stop) = (
                Arc::clone(&d),
                Arc::clone(&a),
                Arc::clone(&b),
                Arc::clone(&stop),
            );
            handles.push(std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    atomic(&d, |t| {
                        if forced {
                            t.flush_attempt()?;
                        }
                        let x = t.read(&a)?;
                        t.write(&a, x + 1)?;
                        let y = t.read(&b)?;
                        t.write(&b, y + 1)
                    });
                }
            }));
        }
        let reader = HtmStats::default();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let mut reads = 0u32;
        loop {
            let s = d.snapshot();
            if reads >= 3_000 && s.fallbacks > 0 && s.commits > 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "writers did not use both paths within 60 s: {s:?}"
            );
            let (x, y) = atomic(&reader, |t| {
                let x = t.read(&a)?;
                let y = t.read(&b)?;
                Ok((x, y))
            });
            assert_eq!(x, y, "torn increment observed");
            reads += 1;
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load_direct(), b.load_direct());
    }
}
