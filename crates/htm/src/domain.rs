//! [`HtmDomain`]: the retry loop + fallback path (the lock-elision
//! pattern).
//!
//! `domain.atomic(|txn| …)` is the equivalent of the canonical RTM idiom:
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
//! The fallback takes the domain's global [`FallbackLock`] and runs the
//! body irrevocably: writes land in place, and every word read or written
//! keeps its version-lock entry held until the body ends (see
//! [`crate::fallback`] for the safety argument).
//!
//! The retry policy mirrors production RTM code and **adapts** per thread:
//! * **Conflict** aborts retry with exponential backoff up to an
//!   *effective* retry budget, then take a fallback. The budget starts at
//!   [`RetryPolicy::max_retries`] and is shrunk by a per-thread
//!   consecutive-conflict streak (sustained contention ⇒ fall back
//!   sooner, with longer backoff); a conflict-free commit decays the
//!   streak. The budget in force at each conflict is recorded in
//!   [`crate::HtmStats::retry_budget`].
//! * **Capacity** and **flush-in-txn** aborts go to the fallback
//!   immediately — retrying cannot help a transaction that is too big or
//!   that must flush. Capacity aborts additionally teach the policy a
//!   per-call-site "go straight to fallback" hint (with a credit budget,
//!   so the site is re-probed optimistically now and then).
//! * **Explicit** aborts always retry optimistically (after backoff) and
//!   never escalate: the program aborted on purpose (e.g. FPTree's `find`
//!   seeing a locked leaf) and wants a fresh optimistic run. The body is
//!   re-executed from the top, so it re-reads whatever state it aborted
//!   on.

use std::cell::{Cell, RefCell};

use crate::fallback::FallbackLock;
use crate::stats::HtmStats;
use crate::txn::{AbortCode, Txn, TxnOptions};
use crate::TxResult;

/// How many times to retry conflict aborts before taking a fallback.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Base optimistic retries of conflict aborts before falling back; a
    /// per-thread conflict streak shrinks it (module docs). `0` takes the
    /// fallback at the first conflict.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 16 }
    }
}

/// Credits granted to a learned capacity-abort site: the next `HINT_CREDITS`
/// sections from that call site skip the doomed optimistic attempt, then the
/// hint expires and the site is probed optimistically again (workloads
/// change; a permanently learned hint could never un-learn).
const HINT_CREDITS: u32 = 32;

/// Ceiling on the consecutive-conflict streak (bounds both the budget
/// shrink — `max_retries >> (streak/2)`, clamped — and the backoff boost).
const STREAK_CAP: u32 = 12;

/// Per-thread adaptive-policy state, fed by the abort taxonomy.
struct AdaptState {
    /// Consecutive conflict-abort streak (decayed on conflict-free commit).
    streak: u32,
    /// Learned capacity-abort call sites: (site address, remaining credits).
    sites: Vec<(usize, u32)>,
}

std::thread_local! {
    static IN_ATOMIC: Cell<bool> = const { Cell::new(false) };
    static ADAPT: RefCell<AdaptState> = const {
        RefCell::new(AdaptState {
            streak: 0,
            sites: Vec::new(),
        })
    };
}

/// Effective conflict-retry budget under a streak: halve the base every two
/// streak steps, floored at `min(base, 1)` (a non-zero base always retries
/// at least once; a zero base never retries).
#[inline]
fn effective_budget(base: u32, streak: u32) -> u32 {
    (base >> (streak / 2).min(5)).max(base.min(1))
}

fn adapt_streak() -> u32 {
    ADAPT.with(|a| a.borrow().streak)
}

fn adapt_streak_bump() {
    ADAPT.with(|a| {
        let mut a = a.borrow_mut();
        a.streak = (a.streak + 1).min(STREAK_CAP);
    });
}

fn adapt_streak_decay() {
    ADAPT.with(|a| {
        let mut a = a.borrow_mut();
        a.streak = a.streak.saturating_sub(1);
    });
}

/// Records a capacity abort at `site`, (re)arming its fallback hint.
fn adapt_learn_site(site: usize) {
    ADAPT.with(|a| {
        let mut a = a.borrow_mut();
        if let Some(e) = a.sites.iter_mut().find(|e| e.0 == site) {
            e.1 = HINT_CREDITS;
        } else {
            a.sites.push((site, HINT_CREDITS));
        }
    });
}

/// Consumes one hint credit for `site` if armed; `true` means "skip the
/// optimistic attempt, go straight to the fallback".
fn adapt_take_site(site: usize) -> bool {
    ADAPT.with(|a| {
        let mut a = a.borrow_mut();
        if let Some(pos) = a.sites.iter().position(|e| e.0 == site) {
            let e = &mut a.sites[pos];
            e.1 -= 1;
            if e.1 == 0 {
                a.sites.swap_remove(pos);
            }
            true
        } else {
            false
        }
    })
}

/// An HTM execution domain: fallback lock + stats + capacity model.
///
/// Each concurrent data structure owns one domain, mirroring a per-structure
/// fallback mutex (a process-global one would serialise unrelated trees).
#[derive(Debug)]
pub struct HtmDomain {
    fallback: FallbackLock,
    stats: HtmStats,
    opts: TxnOptions,
    policy: RetryPolicy,
}

impl Default for HtmDomain {
    fn default() -> Self {
        HtmDomain {
            fallback: FallbackLock::new(),
            stats: HtmStats::default(),
            opts: TxnOptions::default(),
            policy: RetryPolicy::default(),
        }
    }
}

impl HtmDomain {
    /// Domain with default capacity (512-line L1 budget) and retry policy.
    pub fn new() -> Self {
        HtmDomain::default()
    }

    /// Domain with explicit capacity model and retry policy (used by the
    /// capacity-sensitivity ablation).
    pub fn with_options(opts: TxnOptions, policy: RetryPolicy) -> Self {
        HtmDomain {
            opts,
            policy,
            ..HtmDomain::default()
        }
    }

    /// Execution counters.
    pub fn stats(&self) -> &HtmStats {
        &self.stats
    }

    /// The domain's fallback lock (exposed for tests/diagnostics).
    pub fn fallback_lock(&self) -> &FallbackLock {
        &self.fallback
    }

    /// Runs `body` atomically, retrying and falling back as real RTM code
    /// does. The closure may run **multiple times**; side effects other than
    /// transactional writes must be idempotent or confined to the final
    /// successful run (all algorithms in this repository satisfy this).
    ///
    /// # Panics
    /// Panics on nested `atomic` calls from the same thread (real RTM would
    /// flat-nest; our algorithms never nest, so we forbid it loudly).
    #[track_caller]
    pub fn atomic<'t, R>(&'t self, mut body: impl FnMut(&mut Txn<'t>) -> TxResult<R>) -> R {
        IN_ATOMIC.with(|f| {
            assert!(!f.get(), "nested HtmDomain::atomic on one thread");
            f.set(true);
        });
        let _reset = ResetOnDrop;
        let site = std::panic::Location::caller() as *const _ as usize;
        let mut conflicts = 0u32;
        // Aborts of any cause suffered so far by this logical section;
        // feeds the retries-to-commit histogram on success.
        let mut retries = 0u64;

        // Learned capacity hint: this call site has recently proven too big
        // for the capacity model, so skip the doomed optimistic attempt.
        if adapt_take_site(site) {
            if let Some(r) = self.run_fallback(&mut body) {
                self.stats.retries.record(retries);
                return r;
            }
            // Explicit abort under the lock: resume optimistically.
        }

        loop {
            // The lock-elision prologue (wait out a fallback holder) lives
            // inside `Txn::optimistic`: the begin-time subscription must
            // re-sample `rv` after each observation of the global word, or
            // an irrevocable window could open between a wait here and the
            // rv sample.
            self.stats.attempts.add(1);
            crate::set_in_transaction(true);
            // Commit-time fallback subscription: a writing txn checks the
            // fallback word for freedom during commit, after its write locks
            // are held — the optimistic hot path pays no per-read fallback
            // loads at all (see the proof in `crate::fallback`).
            let mut txn = Txn::optimistic(self.opts, Some(&self.fallback.word));
            let result = body(&mut txn);
            crate::set_in_transaction(false);
            let abort = match result {
                Ok(r) => match txn.commit() {
                    Ok(()) => {
                        self.stats.commits.add(1);
                        self.stats.retries.record(retries);
                        if conflicts == 0 {
                            adapt_streak_decay();
                        }
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
                    self.stats.aborts_conflict.add(1);
                    conflicts += 1;
                    let budget = effective_budget(self.policy.max_retries, adapt_streak());
                    adapt_streak_bump();
                    self.stats.retry_budget.record(budget as u64);
                    conflicts > budget
                }
                AbortCode::Capacity => {
                    self.stats.aborts_capacity.add(1);
                    adapt_learn_site(site);
                    true
                }
                AbortCode::FlushInTxn => {
                    self.stats.aborts_flush.add(1);
                    true
                }
                AbortCode::Explicit(_) => {
                    self.stats.aborts_explicit.add(1);
                    false
                }
            };

            if take_fallback {
                match self.run_fallback(&mut body) {
                    Some(r) => {
                        self.stats.retries.record(retries);
                        return r;
                    }
                    // Explicit abort under the lock: resume optimistically.
                    None => conflicts = 0,
                }
            }
            backoff(conflicts, adapt_streak());
        }
    }

    /// The fallback: global lock, irrevocable body. `None` means the body
    /// aborted explicitly and the caller should resume optimistically.
    fn run_fallback<'t, R>(
        &'t self,
        body: &mut impl FnMut(&mut Txn<'t>) -> TxResult<R>,
    ) -> Option<R> {
        let guard = self.fallback.acquire();
        self.stats.fallbacks.add(1);
        obs::bump_section_fallbacks();
        let mut txn = Txn::irrevocable(self.opts);
        let result = body(&mut txn);
        drop(txn); // releases the word locks the body held
        drop(guard);
        match result {
            Ok(r) => Some(r),
            Err(a) => {
                // Only explicit aborts are possible irrevocably
                // (reads/writes/flushes cannot fail).
                debug_assert!(matches!(a.code, AbortCode::Explicit(_)));
                self.stats.aborts_explicit.add(1);
                None
            }
        }
    }

    /// Convenience wrapper for read-only bodies that cannot themselves fail:
    /// plain closure, no `?` plumbing.
    #[track_caller]
    pub fn atomic_infallible<'t, R>(&'t self, mut body: impl FnMut(&mut Txn<'t>) -> R) -> R {
        self.atomic(|txn| Ok(body(txn)))
    }

    /// Runs `body` atomically for a section known in advance to exceed the
    /// capacity model (e.g. a whole-node rewrite touching both slot lines
    /// and every KV line). Goes straight to the fallback —
    /// real RTM would burn an optimistic attempt only to take a guaranteed
    /// capacity abort, and the learned-capacity hint would merely rediscover
    /// that per call site. Explicit aborts from `body` retry under the lock.
    ///
    /// # Panics
    /// Panics on nested atomic sections, like [`HtmDomain::atomic`].
    #[track_caller]
    pub fn atomic_capacity<'t, R>(&'t self, mut body: impl FnMut(&mut Txn<'t>) -> TxResult<R>) -> R {
        IN_ATOMIC.with(|f| {
            assert!(!f.get(), "nested HtmDomain::atomic on one thread");
            f.set(true);
        });
        let _reset = ResetOnDrop;
        let mut retries = 0u64;
        loop {
            if let Some(r) = self.run_fallback(&mut body) {
                self.stats.retries.record(retries);
                return r;
            }
            // Explicit abort under the lock: the body asked to be re-run
            // (e.g. a precondition it re-checks each attempt failed).
            retries += 1;
            backoff(retries as u32, 0);
        }
    }
}

struct ResetOnDrop;

impl Drop for ResetOnDrop {
    fn drop(&mut self) {
        IN_ATOMIC.with(|f| f.set(false));
        crate::set_in_transaction(false);
    }
}

/// Exponential spin backoff, capped; yields to the OS at high counts so
/// single-core machines make progress. The per-thread conflict streak
/// lengthens backoff (contended sections should stand off harder).
fn backoff(attempt: u32, streak: u32) {
    let a = attempt + streak / 2;
    if a > 4 {
        std::thread::yield_now();
        return;
    }
    let spins = 1u32 << a.min(10);
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::Abort;
    use crate::word::TmWord;
    use std::sync::Arc;

    #[test]
    fn atomic_swap_is_atomic() {
        let d = HtmDomain::new();
        let a = TmWord::new(1);
        let b = TmWord::new(2);
        d.atomic(|t| {
            let x = t.read(&a)?;
            let y = t.read(&b)?;
            t.write(&a, y)?;
            t.write(&b, x)?;
            Ok(())
        });
        assert_eq!((a.load_direct(), b.load_direct()), (2, 1));
        assert_eq!(d.stats().snapshot().commits, 1);
    }

    #[test]
    fn concurrent_increments_never_lose_updates() {
        let d = Arc::new(HtmDomain::new());
        let w = Arc::new(TmWord::new(0));
        let threads = 4;
        let per = 2_000u64;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let d = Arc::clone(&d);
            let w = Arc::clone(&w);
            handles.push(std::thread::spawn(move || {
                for _ in 0..per {
                    d.atomic(|t| {
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
        let d = HtmDomain::with_options(
            TxnOptions {
                read_cap_lines: 2,
                write_cap_lines: 2,
            },
            RetryPolicy::default(),
        );
        let words: Vec<TmWord> = (0..64).map(|_| TmWord::new(0)).collect();
        d.atomic(|t| {
            for w in &words {
                t.write(w, 1)?;
            }
            Ok(())
        });
        for w in &words {
            assert_eq!(w.load_direct(), 1);
        }
        let s = d.stats().snapshot();
        assert_eq!(s.fallbacks, 1, "an oversized txn goes straight to the fallback");
        assert!(s.aborts_capacity >= 1);
    }

    #[test]
    fn capacity_hint_skips_doomed_optimistic_attempts() {
        let d = HtmDomain::with_options(
            TxnOptions {
                read_cap_lines: 2,
                write_cap_lines: 2,
            },
            RetryPolicy::default(),
        );
        let words: Vec<TmWord> = (0..64).map(|_| TmWord::new(0)).collect();
        let rounds = 10u64;
        for _ in 0..rounds {
            // One call site, looped: the first round capacity-aborts and
            // arms the hint; later rounds must go straight to the
            // fallback without burning an optimistic attempt.
            d.atomic(|t| {
                for w in &words {
                    let v = t.read(w)?;
                    t.write(w, v + 1)?;
                }
                Ok(())
            });
        }
        for w in &words {
            assert_eq!(w.load_direct(), rounds);
        }
        let s = d.stats().snapshot();
        assert_eq!(s.fallbacks, rounds, "every round must fall back");
        assert_eq!(
            s.aborts_capacity, 1,
            "only the unhinted first round pays the capacity abort"
        );
        assert_eq!(s.attempts, 1, "hinted rounds skip the optimistic attempt");
    }

    #[test]
    fn explicit_abort_retries_optimistically() {
        let d = HtmDomain::new();
        let w = TmWord::new(0);
        let mut tries = 0;
        let r = d.atomic(|t| {
            tries += 1;
            if tries < 3 {
                return Err(t.abort(7));
            }
            t.read(&w)
        });
        assert_eq!(r, 0);
        assert_eq!(tries, 3);
        let s = d.stats().snapshot();
        assert_eq!(s.aborts_explicit, 2);
        assert_eq!(s.fallbacks, 0, "explicit aborts must not fall back");
    }

    #[test]
    fn flush_in_txn_goes_to_fallback_where_flushing_is_legal() {
        let d = HtmDomain::new();
        let flushed = d.atomic(|t| {
            t.flush_attempt()?; // aborts the optimistic attempt
            Ok(t.is_fallback())
        });
        assert!(flushed, "flushing body must complete irrevocably");
        assert_eq!(d.stats().snapshot().aborts_flush, 1);
    }

    #[test]
    fn adaptive_streak_shrinks_the_budget_and_recovers() {
        assert_eq!(effective_budget(16, 0), 16);
        assert_eq!(effective_budget(16, 2), 8);
        assert_eq!(effective_budget(16, 4), 4);
        assert_eq!(effective_budget(16, STREAK_CAP), 1);
        assert_eq!(effective_budget(1, STREAK_CAP), 1, "floor is 1");
        assert_eq!(effective_budget(0, 0), 0, "a zero base never retries");
        // End-to-end: sustained conflicts must leave a mass at shrunk
        // budgets in the retry_budget histogram.
        let d = HtmDomain::new();
        let w = TmWord::new(0);
        let mut aborts = 0u32;
        d.atomic(|t| {
            let v = t.read(&w)?;
            if !t.is_fallback() && aborts < 40 {
                aborts += 1;
                return Err(Abort::CONFLICT);
            }
            t.write(&w, v + 1)?;
            Ok(())
        });
        let h = d.stats().retry_budget();
        assert!(h.count() > 0, "conflict aborts must record the budget");
        assert!(
            h.min() < RetryPolicy::default().max_retries as u64,
            "a 40-conflict streak must shrink the effective budget"
        );
    }

    #[test]
    fn zero_retry_budget_falls_back_at_the_first_conflict() {
        let d = HtmDomain::with_options(TxnOptions::default(), RetryPolicy { max_retries: 0 });
        let w = TmWord::new(0);
        let mut runs = Vec::new();
        d.atomic(|t| {
            runs.push(t.is_fallback());
            let v = t.read(&w)?;
            if runs.len() == 1 {
                return Err(Abort::CONFLICT);
            }
            t.write(&w, v + 1)
        });
        assert_eq!(runs, [false, true], "max_retries 0 must not retry optimistically");
        assert_eq!(w.load_direct(), 1);
        assert_eq!(d.stats().snapshot().fallbacks, 1);
    }

    #[test]
    #[should_panic(expected = "nested")]
    fn nesting_panics() {
        let d = HtmDomain::new();
        let w = TmWord::new(0);
        d.atomic(|_| {
            d.atomic(|t| t.read(&w));
            Ok(())
        });
    }

    #[test]
    fn in_transaction_flag_tracks_optimistic_body() {
        let d = HtmDomain::new();
        assert!(!crate::in_transaction());
        d.atomic(|t| {
            if !t.is_fallback() {
                assert!(crate::in_transaction());
            }
            Ok(())
        });
        assert!(!crate::in_transaction());
    }

    #[test]
    fn read_only_snapshots_never_tear_across_fallbacks() {
        // Writers force every op onto the fallback (one fabricated
        // conflict, zero retry budget) and increment (a, b) in lockstep;
        // read-only sections — which skip the commit-time subscription
        // check entirely — must still never observe a != b. The fallback
        // writes in place, so this pins the begin-time subscription and
        // the fallback's held entries releasing at one version.
        let d = Arc::new(HtmDomain::with_options(
            TxnOptions::default(),
            RetryPolicy { max_retries: 0 },
        ));
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
                    let mut forced = false;
                    d.atomic(|t| {
                        let x = t.read(&a)?;
                        let y = t.read(&b)?;
                        if !t.is_fallback() && !forced {
                            forced = true;
                            return Err(Abort::CONFLICT);
                        }
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
            while reads < 5_000 || dr.stats().snapshot().fallbacks == 0 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "no writer reached the fallback within 60 s \
                     ({reads} reads done)"
                );
                let (x, y) = dr.atomic(|t| {
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
        assert!(
            d.stats().snapshot().fallbacks > 0,
            "the fallback must actually have been exercised"
        );
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
        let d = Arc::new(HtmDomain::new());
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
            dw.atomic(|t| {
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
        let (x, y) = d.atomic(|t| {
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
        // A writer loops transactionally incrementing (a, b) in lockstep
        // while another thread forces fallback executions; readers must
        // never observe a != b.
        let d = Arc::new(HtmDomain::with_options(
            TxnOptions {
                read_cap_lines: 3,
                write_cap_lines: 3,
            },
            RetryPolicy { max_retries: 2 },
        ));
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
                    d.atomic(|t| {
                        let x = t.read(&a)?;
                        t.write(&a, x + 1)?;
                        let y = t.read(&b)?;
                        t.write(&b, y + 1)
                    });
                }
            }));
        }
        let (dr, ar, br) = (Arc::clone(&d), Arc::clone(&a), Arc::clone(&b));
        let reader = std::thread::spawn(move || {
            for _ in 0..3_000 {
                let (x, y) = dr.atomic(|t| {
                    let x = t.read(&ar)?;
                    let y = t.read(&br)?;
                    Ok((x, y))
                });
                assert_eq!(x, y, "torn increment observed");
            }
        });
        reader.join().unwrap();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load_direct(), b.load_direct());
    }
}
