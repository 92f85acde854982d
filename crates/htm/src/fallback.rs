//! Fallback locking for the lock-elision pattern: one global last-resort
//! lock plus an address-striped table of fine-grained fallback locks.
//!
//! Real RTM code cannot retry forever: after a few aborts it acquires a
//! fallback mutex and runs the critical section non-transactionally. For
//! that to be safe, every hardware transaction *subscribes* to the mutex —
//! reads its state inside the transaction — so acquiring it aborts them.
//!
//! A single domain-wide mutex makes that safety cheap but brutal: one
//! capacity-prone writer taking the fallback serialises *every* in-flight
//! transaction in the domain, even ones touching unrelated data. This
//! module therefore provides two tiers:
//!
//! * **Tier 1 — [`StripeTable`]**: [`STRIPES`] fallback locks, each an
//!   independently subscribable [`TmWord`], indexed by a hash of the cache
//!   line. A conflict-driven fallback acquires only the stripes covering
//!   the footprint its optimistic attempts actually observed, so fallbacks
//!   on disjoint stripes run in parallel with each other *and* with
//!   optimistic transactions whose footprints miss those stripes.
//! * **Tier 2 — [`FallbackLock`]**: the global lock, kept as the escalation
//!   tier for bodies whose footprint cannot be predicted (capacity/flush
//!   aborts, or a tier-1 run that touched a line outside its predicted
//!   stripe set). Tier 2 additionally acquires **all** stripes, so the two
//!   tiers exclude each other through the stripe words alone.
//!
//! # Two-tier subscription safety argument
//!
//! Let *O* be an optimistic transaction, *S* a tier-1 (striped) fallback,
//! and *G* a tier-2 (global) fallback (*F* for either fallback kind).
//!
//! **Subscription is two-point.** At *begin*, *O* samples `rv` and then
//! loads the **global word**, re-sampling until it is observed free:
//! since tier-2 publishes are in-place stores with no single commit
//! version, this is what guarantees `rv` never falls *inside* an
//! irrevocable write window (a publish at version v ≤ rv happened before
//! the clock reached `rv`; clock bumps form a release sequence, so
//! reading `rv ≥ v` synchronizes-with that publisher's bump, whose
//! word-acquisition precedes it — the post-`rv` word load must still see
//! it odd). During the body, *O* merely ORs the covering stripe of each
//! new cache line ([`stripe_of_line`]) into a footprint bitmask — no
//! loads, no read-set entries — and, if it commits writes, checks once
//! *after its write locks are held* that the global word and every
//! footprint stripe are free (even). Lazy stripe subscription is a known
//! soundness trap on real RTM: a hardware transaction can act on a torn
//! read long before reaching `XEND`. This STM cannot produce that zombie:
//!
//! **Lemma (opacity).** Every optimistic read is sandwich-validated
//! against the start snapshot `rv`, and every fallback write set is
//! published **`rv`-indivisibly**: tier 1 buffers its writes and commits
//! them under the word version-locks at a *single* commit version `wv`
//! (entries locked across the whole apply, all released at `wv`, exactly
//! like an optimistic commit), and tier 2's in-place publishes are
//! fenced off from every `rv` by the begin-time global-word subscription
//! above. So an in-flight *O* either reads pre-*F* values,
//! reads the whole published set, or aborts at the offending read — it
//! can never *observe* a fallback's writes torn, not even across the
//! multiple words of one fallback's write set.
//!
//! The one hazard left is the reverse direction: *F*'s reads are never
//! validated against transactional committers (see below for
//! non-transactional stores), so an *O* that commits writes **into
//! *F*'s window** would
//! hand *F* a stale snapshot. *F*'s reads are confined to its held
//! stripes (tier 1 re-checks coverage on every access and escalates with
//! nothing published on a miss — its writes are buffered until the whole
//! body proves in-bounds; tier 2 holds everything), so it suffices that
//! *O* never commits writes into a held footprint-overlapping stripe.
//! Case split on *F*'s window vs *O*'s commit, using two facts: *O*
//! holds its write-set lock entries from phase 1 through apply, and both
//! fallback reads *and* `store_nontx` spin out held lock entries
//! word-by-word:
//!
//! * *F* in flight at *O*'s commit check → a shared stripe (or the
//!   global word) is odd → *O* aborts. This case is a store-buffering
//!   shape (*O* stores lock entries then loads fallback words; *F* CASes
//!   a fallback word then loads lock entries before its first data
//!   access), so both sides carry a **`SeqCst` fence** — *O* between
//!   phase-1 acquisition and the check, *F* in [`acquire_word`] between
//!   acquisition and the body — guaranteeing at least one side observes
//!   the other's store on non-TSO hardware too.
//! * *F* ended before *O*'s read validation → *F*'s publishes bumped
//!   versions, so any read overlap aborts *O*; pure write-into-*F*-reads
//!   overlap serialises *F* before *O*.
//! * *F*'s window falls between *O*'s validation and its check → *F*
//!   cannot have read any *O*-written word (those lock entries were
//!   already held; *F* would still be spinning), so *O* → *F* is a
//!   consistent order: *F* read only words *O* left untouched.
//! * *F* began after *O*'s check → *F*'s reads of *O*-written words spin
//!   until *O*'s release and see the fully applied state: *O* → *F*.
//!
//! A read-only *O* commits nothing and perturbs no window, so the only
//! obligation is its own snapshot — and the opacity lemma now covers it
//! **across** a fallback's write set, not just per word: tier 1's
//! single-`wv` publish makes the set indivisible under sandwich
//! validation, and the begin-time global-word subscription pins `rv`
//! outside every tier-2 window. It therefore skips the commit-time
//! check entirely; without those two mechanisms (per-word tier-1
//! publish versions, or `rv` sampled mid-tier-2-window) it could commit
//! a torn slice of an atomic fallback section.
//!
//! **O vs G.** The same argument with "all stripes + the global word" as
//! the footprint.
//!
//! **S vs S.** Footprint-overlapping fallbacks share a stripe and exclude
//! each other on it; disjoint ones commute because each buffers its
//! writes and touches only lines it holds stripes for. All acquirers take
//! stripes in ascending index order, and tier 2 orders the global word
//! before every stripe, so the total lock order `global < stripe 0 < … <
//! stripe 63` rules out deadlock.
//!
//! **F vs non-transactional stores.** `TmWord::store_nontx` and
//! `cas_nontx` take only the word's version-lock entry, never a stripe
//! or the global word, so nothing above excludes them from *F*'s read
//! window. Tier 1 therefore records the version of every word it reads
//! and validates the set at commit after locking its write set (the
//! optimistic phase 2); a changed word fails the commit with nothing
//! published, and the run escalates to tier 2. Tier 2 cannot retry, so
//! it holds the entry of every word it reads or writes until the body
//! ends (two-phase locking): a non-transactional store spins until then.
//! Holding cannot deadlock — under tier 2 no other fallback runs,
//! optimistic committers bound their spin and abort, and a
//! non-transactional store holds one entry and never waits while
//! holding it.
//!
//! State encoding (both tiers): even = free, odd = held; the value
//! increases on every transition, so it doubles as an acquisition counter.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::word::TmWord;

/// Number of fine-grained fallback stripes per domain.
///
/// 64 keeps the per-transaction stripe set a single `u64` bitmask (so
/// footprint capture stays allocation-free) while making accidental
/// stripe sharing between two random leaves ~1.6% per line pair.
pub const STRIPES: usize = 64;

/// Bounded spin iterations before yielding to the OS while waiting on a
/// fallback word. Oversubscribed thread counts (threads > cores, the
/// common CI case) would otherwise livelock-degrade on pure `spin_loop`.
const SPIN_LIMIT: u32 = 64;

/// Stripe index covering a cache line (`addr >> 6`).
///
/// Fibonacci hash of the line number, top bits: uniformly distributed,
/// and line-granular so the stripes a transaction subscribes to are
/// exactly the stripes a fallback with the same footprint acquires.
/// Hashed in `u64` so 32-bit targets compile (the multiplier does not
/// fit in a 32-bit `usize`) and the mixing quality argument holds.
#[inline]
pub(crate) fn stripe_of_line(line: usize) -> usize {
    (((line as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize) & (STRIPES - 1)
}

/// Stripe index covering a word (diagnostic; used by stress tests and the
/// contention benchmark to construct stripe-disjoint / stripe-colliding
/// working sets deterministically).
#[inline]
pub fn stripe_of(w: &TmWord) -> usize {
    stripe_of_line(w.addr() >> 6)
}

/// Acquires an even/odd fallback word with bounded spin, yielding to the
/// OS past [`SPIN_LIMIT`]. If `contended` is given, it is bumped once at
/// the first attempt that finds the word held (or loses the CAS) — i.e.
/// *when* the contention happens, so observers can detect an in-progress
/// contended acquisition, not just a completed one.
#[inline]
fn acquire_word(word: &TmWord, contended: Option<&AtomicU64>) {
    let mut counted = false;
    let mut spins = 0u32;
    loop {
        let cur = word.load_direct();
        if cur.is_multiple_of(2) && word.cas_nontx(cur, cur + 1).is_ok() {
            // Ordering: SeqCst fence between acquiring the fallback word
            // and the fallback's first data access. Pairs with the fence
            // in optimistic commit (between its phase-1 lock stores and
            // its fallback-word loads): the two sides form a
            // store-buffering pattern, and without a total order both
            // could read stale — the committer seeing this word free
            // while this fallback sees the commit's word locks free and
            // reads pre-commit data. x86's locked RMWs mask this; on
            // weaker architectures the fence is required. See the proof
            // in the module docs.
            std::sync::atomic::fence(Ordering::SeqCst);
            return;
        }
        if !counted {
            counted = true;
            if let Some(c) = contended {
                c.fetch_add(1, Ordering::Relaxed);
            }
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

/// Releases an even/odd fallback word.
#[inline]
fn release_word(word: &TmWord) {
    let cur = word.load_direct();
    debug_assert_eq!(cur % 2, 1, "releasing a free fallback word");
    word.store_nontx(cur + 1);
}

/// The global (per-domain, tier-2) fallback mutex with transaction
/// subscription.
#[derive(Debug, Default)]
pub struct FallbackLock {
    pub(crate) word: TmWord,
}

impl FallbackLock {
    /// Creates a free lock.
    pub fn new() -> Self {
        FallbackLock {
            word: TmWord::new(0),
        }
    }

    /// True while some thread holds the fallback lock.
    #[inline]
    pub fn is_held(&self) -> bool {
        self.word.load_direct() % 2 == 1
    }

    /// Acquires the lock (bounded spin, then `yield_now`). Returns a guard
    /// that releases on drop (panic-safe: a poisoned fallback would
    /// otherwise wedge every transaction in the domain forever).
    pub fn acquire(&self) -> FallbackGuard<'_> {
        acquire_word(&self.word, None);
        FallbackGuard { lock: self }
    }

    /// Waits until the lock is observed free, like the
    /// `while (lock_is_held) pause;` loop in real elision code. Bounded
    /// spin, then `yield_now`. This is a plain pre-start wait, **not** a
    /// subscription — the software TM's begin-time subscription (which
    /// must re-sample `rv` after each observation of this word) lives in
    /// `Txn::optimistic`; only the native-RTM elision path, where the
    /// in-transaction `is_held` read is the real subscription, uses this.
    #[inline]
    pub fn wait_until_free(&self) {
        let mut spins = 0u32;
        while self.is_held() {
            spins += 1;
            if spins >= SPIN_LIMIT {
                spins = 0;
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// RAII guard for [`FallbackLock`].
pub struct FallbackGuard<'l> {
    lock: &'l FallbackLock,
}

impl Drop for FallbackGuard<'_> {
    fn drop(&mut self) {
        release_word(&self.lock.word);
    }
}

/// One stripe, padded to its own cache line so stripe acquisitions by
/// different threads never false-share (and so a transaction's data lines
/// can never alias a stripe word's line in the capacity model).
#[repr(align(64))]
#[derive(Debug, Default)]
struct StripeWord(TmWord);

/// Tier-1 fallback: [`STRIPES`] independently subscribable fallback locks.
#[derive(Debug)]
pub struct StripeTable {
    stripes: [StripeWord; STRIPES],
}

impl Default for StripeTable {
    fn default() -> Self {
        StripeTable {
            stripes: std::array::from_fn(|_| StripeWord::default()),
        }
    }
}

impl StripeTable {
    /// Creates a table of free stripes.
    pub fn new() -> Self {
        StripeTable::default()
    }

    /// The subscription word of stripe `i`.
    #[inline]
    pub(crate) fn word(&self, i: usize) -> &TmWord {
        &self.stripes[i & (STRIPES - 1)].0
    }

    /// True while stripe `i` is held by some fallback.
    #[inline]
    pub fn is_held(&self, i: usize) -> bool {
        self.word(i).load_direct() % 2 == 1
    }

    /// Acquires every stripe whose bit is set in `mask`, in ascending
    /// index order (deadlock freedom: all acquirers use this order, and
    /// tier 2 orders the global word first). `conflicts` is bumped once
    /// per stripe whose acquisition was contended — the stripe-conflict
    /// counter exported through [`crate::HtmStats`].
    pub(crate) fn acquire_mask<'t>(
        &'t self,
        mask: u64,
        conflicts: &AtomicU64,
    ) -> StripeGuard<'t> {
        let mut rest = mask;
        let mut held = 0u64;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            acquire_word(self.word(i), Some(conflicts));
            held |= 1u64 << i;
            rest &= rest - 1;
        }
        StripeGuard { table: self, held }
    }

    /// Acquires **all** stripes (the tier-2 escalation path; caller must
    /// already hold the global [`FallbackLock`], which fixes the lock
    /// order `global < stripe 0 < … < stripe 63`).
    pub(crate) fn acquire_all<'t>(&'t self, conflicts: &AtomicU64) -> StripeGuard<'t> {
        self.acquire_mask(u64::MAX, conflicts)
    }
}

/// RAII guard over a set of held stripes. Releases on drop (panic-safe).
pub struct StripeGuard<'t> {
    table: &'t StripeTable,
    held: u64,
}

impl Drop for StripeGuard<'_> {
    fn drop(&mut self) {
        let mut rest = self.held;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            release_word(self.table.word(i));
            rest &= rest - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn acquire_release_counts_transitions() {
        let l = FallbackLock::new();
        assert!(!l.is_held());
        {
            let _g = l.acquire();
            assert!(l.is_held());
        }
        assert!(!l.is_held());
        assert_eq!(l.word.load_direct(), 2);
    }

    #[test]
    fn guard_releases_on_panic() {
        let l = Arc::new(FallbackLock::new());
        let l2 = Arc::clone(&l);
        let res = std::thread::spawn(move || {
            let _g = l2.acquire();
            panic!("boom");
        })
        .join();
        assert!(res.is_err());
        assert!(!l.is_held(), "lock must be released by unwinding");
    }

    #[test]
    fn mutual_exclusion() {
        let l = Arc::new(FallbackLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = Arc::clone(&l);
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let _g = l.acquire();
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

    #[test]
    fn stripe_mask_acquires_exactly_the_set_bits() {
        let t = StripeTable::new();
        let conflicts = AtomicU64::new(0);
        let mask = (1u64 << 3) | (1u64 << 17) | (1u64 << 63);
        {
            let _g = t.acquire_mask(mask, &conflicts);
            assert!(t.is_held(3) && t.is_held(17) && t.is_held(63));
            assert!(!t.is_held(0) && !t.is_held(16) && !t.is_held(62));
        }
        for i in 0..STRIPES {
            assert!(!t.is_held(i), "stripe {i} leaked");
        }
        assert_eq!(conflicts.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn contended_stripe_counts_a_conflict() {
        let t = Arc::new(StripeTable::new());
        let conflicts = Arc::new(AtomicU64::new(0));
        let (t2, c2) = (Arc::clone(&t), Arc::clone(&conflicts));
        let hold = Arc::new(AtomicU64::new(0));
        let h2 = Arc::clone(&hold);
        let th = std::thread::spawn(move || {
            let _g = t2.acquire_mask(1 << 5, &c2);
            h2.store(1, Ordering::Release);
            while h2.load(Ordering::Acquire) != 2 {
                std::thread::yield_now();
            }
        });
        while hold.load(Ordering::Acquire) != 1 {
            std::thread::yield_now();
        }
        // Racing acquisition of the same stripe must record a conflict —
        // at contention time, while the waiter is still blocked: release
        // the holder only after the counter moves.
        let c3 = Arc::clone(&conflicts);
        let t3 = Arc::clone(&t);
        let waiter = std::thread::spawn(move || {
            let _g = t3.acquire_mask(1 << 5, &c3);
        });
        while conflicts.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        hold.store(2, Ordering::Release);
        th.join().unwrap();
        waiter.join().unwrap();
        assert!(conflicts.load(Ordering::Relaxed) >= 1);
        assert!(!t.is_held(5));
    }

    #[test]
    fn disjoint_stripe_sets_do_not_block_each_other() {
        let t = StripeTable::new();
        let conflicts = AtomicU64::new(0);
        let _a = t.acquire_mask(0x0F, &conflicts);
        // Must return immediately: no shared bits with the held set.
        let _b = t.acquire_mask(0xF0, &conflicts);
        assert_eq!(conflicts.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn stripe_of_is_line_granular_and_in_range() {
        let words: Vec<TmWord> = (0..512).map(TmWord::new).collect();
        for w in &words {
            assert!(stripe_of(w) < STRIPES);
        }
        // Words on the same cache line map to the same stripe.
        for pair in words.chunks(2) {
            if pair.len() == 2 && pair[0].addr() >> 6 == pair[1].addr() >> 6 {
                assert_eq!(stripe_of(&pair[0]), stripe_of(&pair[1]));
            }
        }
    }
}
