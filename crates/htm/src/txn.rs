//! The transaction object: TL2 read/write sets, per-read validation,
//! capacity accounting, and two-phase commit.
//!
//! See the crate docs for the mapping from RTM semantics to this STM. The
//! algorithm is classic TL2 (Dice, Shalev, Shavit 2006) specialised to
//! 64-bit words:
//!
//! * `begin`: sample the global clock into the read version `rv`, then
//!   subscribe to the tier-2 (global) fallback word: re-sample until the
//!   word is observed free *after* `rv` was taken, so no optimistic
//!   section can start with an `rv` from inside an irrevocable fallback's
//!   write window (whose in-place publishes have no single commit
//!   timestamp).
//! * `read w`: validate that `w`'s version lock is free and its version is
//!   at most `rv`, sandwiching the value load between two lock loads.
//! * `write w`: buffer the value in the write set (invisible until commit —
//!   this is the property that models RTM's cache-buffered stores).
//! * `commit`: lock the write set (sorted, bounded spin), take a commit
//!   timestamp, re-validate the read set, apply the buffered stores, and
//!   release the locks at the new version. Read-only transactions commit
//!   for free: every read was already validated against `rv`.
//!
//! The read and write sets are [`crate::smallset`] small sets: stack-resident
//! up to 16 entries, spilling into a per-thread scratch arena, so the hot
//! path performs **zero heap allocations**. A 64-bit bloom summary of the
//! write set lets `read` prove read-own-write misses with one AND instead of
//! a linear scan.
//!
//! Optimistic transactions additionally track their **stripe footprint**
//! ([`crate::fallback::StripeTable`]) as a plain bitmask — one OR per new
//! cache line, no loads — and subscribe to the fallback locks **at commit
//! time**: after the write locks are held, commit checks that the global
//! fallback word and every footprint stripe are free. Commit-time ("lazy")
//! subscription is famously unsound on real RTM, where a zombie
//! transaction can act on a torn read long before it reaches `XEND`; here
//! every read is sandwich-validated against `rv`, so a transaction can
//! never observe fallback writes torn — the only race left is committing
//! *into* an in-flight fallback's read window, which is exactly what the
//! commit-time check closes. See the proof in [`crate::fallback`],
//! including the `SeqCst` fence that orders the phase-1 lock stores
//! before the subscription loads (a store-buffering pattern on non-TSO
//! hardware otherwise).
//!
//! Fallback execution comes in two shapes:
//!
//! * **Striped** (tier 1): runs under a subset of stripe locks. Writes are
//!   buffered like optimistic ones and every access re-checks that its
//!   line's stripe is actually held; a miss marks the transaction *escaped*
//!   and aborts it with nothing published, letting the domain escalate to
//!   tier 2. Commit publishes the buffered writes **atomically at one
//!   commit version**: it locks the write set's version-lock entries
//!   (sorted, spin-until-held — a fallback never gives up on a lock),
//!   bumps the clock once, applies, and releases every entry at that
//!   single `wv`. This is the property that keeps read-only optimistic
//!   commits check-free: a striped fallback's write set is indivisible
//!   under the ordinary TL2 sandwich validation, exactly like an
//!   optimistic commit's. Its reads are validated at commit too, against
//!   non-transactional stores (`store_nontx` / `cas_nontx`), which no
//!   stripe excludes.
//! * **Irrevocable** (tier 2, under the global fallback lock + all
//!   stripes): every word read or written has its version-lock entry
//!   held until the body ends (two-phase locking, so non-transactional
//!   stores cannot interleave), and writes land in place at once;
//!   mutual exclusion is total. In-place writes are visible before the
//!   body ends, which is why optimistic `begin` subscribes to the global
//!   word (above).

use std::cell::Cell;
use std::marker::PhantomData;

use crate::fallback::{self, StripeTable};
use crate::global;
use crate::smallset::{SmallLineSet, SmallPairSet};
use crate::word::TmWord;
use crate::TxResult;

/// Why a transaction aborted. Mirrors the RTM abort-status causes that the
/// algorithms in this repository care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCode {
    /// Another thread wrote (or is committing a write to) data in this
    /// transaction's read or write set.
    Conflict,
    /// The transaction's footprint exceeded the L1-cache budget.
    Capacity,
    /// The program requested an abort (`XABORT imm8`); the payload is the
    /// program-supplied code.
    Explicit(u32),
    /// A cache-line flush was attempted inside the transaction; real RTM
    /// always aborts on `CLWB`/`CLFLUSH`.
    FlushInTxn,
}

/// An abort token. Returned as the `Err` of transactional operations so the
/// `?` operator unwinds the transaction body naturally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abort {
    /// The abort cause.
    pub code: AbortCode,
}

impl Abort {
    pub(crate) const CONFLICT: Abort = Abort {
        code: AbortCode::Conflict,
    };
    pub(crate) const CAPACITY: Abort = Abort {
        code: AbortCode::Capacity,
    };

    /// Constructs an explicit (program-requested) abort.
    pub fn explicit(code: u32) -> Abort {
        Abort {
            code: AbortCode::Explicit(code),
        }
    }
}

/// Per-transaction tunables: the capacity model.
#[derive(Debug, Clone, Copy)]
pub struct TxnOptions {
    /// Maximum distinct cache lines readable in one transaction.
    /// Default 512 (= 32 KiB L1, the paper's machine).
    pub read_cap_lines: usize,
    /// Maximum distinct cache lines writable in one transaction.
    pub write_cap_lines: usize,
}

impl Default for TxnOptions {
    fn default() -> Self {
        TxnOptions {
            read_cap_lines: 512,
            write_cap_lines: 512,
        }
    }
}

/// Bounded spin iterations when acquiring a write-set lock at commit.
const COMMIT_LOCK_SPINS: u32 = 128;

/// Bounded spin iterations before yielding while a must-succeed wait spins
/// (begin-time subscription, striped-publish lock acquisition).
const WAIT_SPIN_LIMIT: u32 = 64;

/// Bloom bit for a word address in the 64-bit write-set summary.
///
/// Top 6 bits of a Fibonacci hash of the word index: uniformly distributed,
/// and word-granular so adjacent words get independent bits. Hashed in
/// `u64` so 32-bit targets compile (and mix through all 64 bits).
#[inline]
fn bloom_bit(addr: usize) -> u64 {
    1u64 << (((addr as u64) >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

struct OptState {
    rv: u64,
    owner: u64,
    /// (lock index, observed version), deduplicated by index.
    read_set: SmallPairSet,
    /// (word address, buffered value), deduplicated by address. Addresses
    /// are `&'t TmWord` borrows erased to `usize`; `Txn<'t>` carries the
    /// lifetime so they stay valid through commit.
    write_set: SmallPairSet,
    /// Bloom summary of write-set addresses: a clear bit proves the address
    /// is absent, so `read` skips the read-own-write scan entirely.
    write_filter: u64,
    /// Distinct cache lines read / written (capacity model).
    read_lines: SmallLineSet,
    write_lines: SmallLineSet,
    /// Bitmask of fallback stripes covering the lines touched — the
    /// transaction's footprint as the striped fallback sees it. Maintained
    /// with one OR per new cache line; checked for freedom at commit.
    stripes: u64,
}

struct StripedState {
    /// Bitmask of stripes the domain acquired for this fallback run; every
    /// access re-checks membership (coverage) before touching memory.
    covered: u64,
    /// Set when an access missed `covered` (or a flush was attempted):
    /// the run must escalate to the global tier. Nothing was published —
    /// striped writes are buffered until commit.
    escaped: Cell<bool>,
    /// Buffered writes + bloom summary, exactly as in optimistic mode.
    write_set: SmallPairSet,
    write_filter: u64,
    /// `(lock index, version observed)` of every word read, validated at
    /// commit: the held stripes exclude fallbacks and transactional
    /// committers, but not non-transactional stores (`store_nontx` /
    /// `cas_nontx`), which take only the word's version lock.
    read_set: SmallPairSet,
}

/// Tier-2 state: every version-lock entry the irrevocable body touched,
/// held until the body ends (two-phase locking). The global lock and all
/// stripes exclude every transactional writer; holding the entries also
/// excludes non-transactional stores, so a read stays current until the
/// body is done with it. Dropping the state — at commit, on an explicit
/// abort, or while a crashing body unwinds — releases every entry.
struct IrrevocableState {
    owner: u64,
    /// `(lock index, pre-lock version)` of every held entry.
    held: SmallPairSet,
    /// Whether the body wrote: the held entries then release at one
    /// fresh commit version instead of the versions they had.
    wrote: bool,
}

impl IrrevocableState {
    /// Acquires entry `idx` unless this transaction already holds it.
    /// Spins out its current holder: an optimistic committer (bounded,
    /// it aborts) or a non-transactional store (one word, never waits
    /// while holding) — no other fallback can run, so this cannot
    /// deadlock.
    fn hold(&mut self, idx: usize) {
        let mine = global::LOCKED | self.owner;
        let mut spins = 0u32;
        loop {
            let cur = global::lock_load(idx);
            if cur == mine {
                return;
            }
            if !global::is_locked(cur) && global::lock_try_acquire(idx, cur, self.owner) {
                self.held.push((idx, cur));
                return;
            }
            spins += 1;
            if spins >= WAIT_SPIN_LIMIT {
                spins = 0;
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

impl Drop for IrrevocableState {
    fn drop(&mut self) {
        if self.wrote {
            let wv = global::clock_bump();
            for &(idx, _) in self.held.as_slice() {
                global::lock_release(idx, wv);
            }
        } else {
            release_all(self.held.as_slice());
        }
    }
}

// The size gap between the variants is the design: `OptState` keeps its
// read/write small-sets inline precisely so optimistic transactions never
// heap-allocate, and `Txn` only ever lives on the stack of `atomic`.
#[allow(clippy::large_enum_variant)]
enum Mode {
    Optimistic(OptState),
    Striped(StripedState),
    Irrevocable(IrrevocableState),
}

/// A running transaction. Obtained from [`crate::HtmDomain::atomic`].
pub struct Txn<'t> {
    mode: Mode,
    opts: TxnOptions,
    /// Stripe table whose footprint stripes commit checks for freedom
    /// (`None` only in unit tests).
    tbl: Option<&'t StripeTable>,
    /// The domain's global fallback word; commit checks it for freedom
    /// alongside the stripes (`None` only in unit tests).
    global: Option<&'t TmWord>,
    /// Write-set addresses borrow `'t` words; see [`OptState::write_set`].
    _words: PhantomData<&'t TmWord>,
}

impl<'t> Txn<'t> {
    pub(crate) fn optimistic(
        opts: TxnOptions,
        tbl: Option<&'t StripeTable>,
        global: Option<&'t TmWord>,
    ) -> Self {
        // Begin-time tier-2 subscription: take `rv`, *then* observe the
        // global fallback word free; if an irrevocable fallback is (or
        // might still be) in its write window, re-sample. Order matters —
        // an irrevocable publish at version v <= rv happened before the
        // clock reached rv, and the publisher acquired the word before
        // publishing, so a post-rv load of the word still sees it odd
        // (clock bumps form a release sequence; reading rv >= v
        // synchronizes-with the publisher's bump). Hence a free word
        // observed *after* sampling rv proves no irrevocable write with
        // version <= rv can still be mid-window: read-only sections can
        // never commit a torn slice of a tier-2 write set. (Tier-1
        // striped fallbacks need no begin check — they publish at a
        // single wv under the word version-locks, see `commit`.)
        let rv = {
            let mut spins = 0u32;
            loop {
                let rv = global::clock_read();
                match global {
                    Some(g) if g.load_direct() % 2 == 1 => {
                        spins += 1;
                        if spins >= WAIT_SPIN_LIMIT {
                            spins = 0;
                            std::thread::yield_now();
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                    _ => break rv,
                }
            }
        };
        Txn {
            mode: Mode::Optimistic(OptState {
                rv,
                owner: global::next_ticket(),
                read_set: SmallPairSet::new(),
                write_set: SmallPairSet::new(),
                write_filter: 0,
                read_lines: SmallLineSet::new(),
                write_lines: SmallLineSet::new(),
                stripes: 0,
            }),
            opts,
            tbl,
            global,
            _words: PhantomData,
        }
    }

    pub(crate) fn striped(opts: TxnOptions, covered: u64) -> Self {
        Txn {
            mode: Mode::Striped(StripedState {
                covered,
                escaped: Cell::new(false),
                write_set: SmallPairSet::new(),
                write_filter: 0,
                read_set: SmallPairSet::new(),
            }),
            opts,
            tbl: None,
            global: None,
            _words: PhantomData,
        }
    }

    pub(crate) fn irrevocable(opts: TxnOptions) -> Self {
        Txn {
            mode: Mode::Irrevocable(IrrevocableState {
                owner: global::next_ticket(),
                held: SmallPairSet::new(),
                wrote: false,
            }),
            opts,
            tbl: None,
            global: None,
            _words: PhantomData,
        }
    }

    /// True on the global fallback-lock (irrevocable) path.
    pub fn is_irrevocable(&self) -> bool {
        matches!(self.mode, Mode::Irrevocable(_))
    }

    /// True on either fallback path (striped tier or global irrevocable
    /// tier) — i.e. the body is running under a lock, not optimistically.
    pub fn is_fallback(&self) -> bool {
        matches!(self.mode, Mode::Striped(_) | Mode::Irrevocable(_))
    }

    /// Bitmask of fallback stripes covering this (optimistic)
    /// transaction's touched lines — its footprint as the striped
    /// fallback sees it.
    pub(crate) fn stripe_mask(&self) -> u64 {
        match &self.mode {
            Mode::Optimistic(st) => st.stripes,
            _ => 0,
        }
    }

    /// True when a striped fallback run touched a line outside its covered
    /// stripes (or attempted a flush) and must escalate to the global tier.
    pub(crate) fn escaped(&self) -> bool {
        match &self.mode {
            Mode::Striped(st) => st.escaped.get(),
            _ => false,
        }
    }

    /// Transactionally reads a word.
    pub fn read(&mut self, w: &'t TmWord) -> TxResult<u64> {
        let opts = self.opts;
        match &mut self.mode {
            Mode::Irrevocable(st) => {
                // Holding the entry waits out any committing optimistic
                // writer (no torn multi-word commit) and keeps the word
                // current until the body ends.
                st.hold(w.lock_idx());
                Ok(w.load_direct())
            }
            Mode::Striped(st) => {
                let addr = w.addr();
                if st.write_filter & bloom_bit(addr) != 0 {
                    if let Some(v) = st.write_set.get(addr) {
                        return Ok(v);
                    }
                }
                // Coverage: the line's stripe must be held; a miss means
                // the footprint prediction was wrong — escalate with
                // nothing published (writes are still buffered).
                if st.covered & (1u64 << fallback::stripe_of_line(addr >> 6)) == 0 {
                    st.escaped.set(true);
                    return Err(Abort::CONFLICT);
                }
                // Holding the stripe excludes fallbacks, not an optimistic
                // writer that validated before our stripe acquisition and
                // is now applying: wait out its commit locks, then sandwich
                // the load and record the version for commit to validate.
                let idx = w.lock_idx();
                loop {
                    let l1 = global::lock_load(idx);
                    if global::is_locked(l1) {
                        std::hint::spin_loop();
                        continue;
                    }
                    let v = w.load_direct();
                    if global::lock_load(idx) != l1 {
                        continue;
                    }
                    match st.read_set.get(idx) {
                        Some(seen) if seen != l1 => {
                            // A non-transactional store changed a word
                            // already read: the snapshot is torn.
                            st.escaped.set(true);
                            return Err(Abort::CONFLICT);
                        }
                        Some(_) => {}
                        None => st.read_set.push((idx, l1)),
                    }
                    return Ok(v);
                }
            }
            Mode::Optimistic(st) => {
                let addr = w.addr();
                // Read-own-write: the bloom summary proves absence with one
                // AND; only a set bit (possible hit) pays the linear scan.
                if st.write_filter & bloom_bit(addr) != 0 {
                    if let Some(v) = st.write_set.get(addr) {
                        return Ok(v);
                    }
                }
                let idx = w.lock_idx();
                let l1 = global::lock_load(idx);
                if global::is_locked(l1) {
                    return Err(Abort::CONFLICT);
                }
                let v = w.load_direct();
                let l2 = global::lock_load(idx);
                if l1 != l2 || l1 > st.rv {
                    return Err(Abort::CONFLICT);
                }
                match st.read_set.get(idx) {
                    Some(observed) if observed != l1 => return Err(Abort::CONFLICT),
                    Some(_) => {}
                    None => st.read_set.push((idx, l1)),
                }
                let line = addr >> 6;
                if !st.read_lines.contains(line) {
                    if st.read_lines.len() >= opts.read_cap_lines {
                        return Err(Abort::CAPACITY);
                    }
                    st.stripes |= 1u64 << fallback::stripe_of_line(line);
                    st.read_lines.push(line);
                }
                Ok(v)
            }
        }
    }

    /// Transactionally writes a word. The store is buffered until commit in
    /// optimistic and striped modes; conflict-visible immediately in
    /// irrevocable mode.
    pub fn write(&mut self, w: &'t TmWord, val: u64) -> TxResult<()> {
        let opts = self.opts;
        match &mut self.mode {
            Mode::Irrevocable(st) => {
                st.hold(w.lock_idx());
                // Ordering: Release — pairs with Acquire in `load_direct`,
                // as in `store_nontx`; the entry republishes the store to
                // version-validating readers when the body ends.
                w.0.store(val, std::sync::atomic::Ordering::Release);
                st.wrote = true;
                Ok(())
            }
            Mode::Striped(st) => {
                let addr = w.addr();
                if st.covered & (1u64 << fallback::stripe_of_line(addr >> 6)) == 0 {
                    st.escaped.set(true);
                    return Err(Abort::CONFLICT);
                }
                let bit = bloom_bit(addr);
                if st.write_filter & bit != 0 {
                    if let Some(slot) = st.write_set.get_mut(addr) {
                        *slot = val;
                        return Ok(());
                    }
                }
                st.write_set.push((addr, val));
                st.write_filter |= bit;
                Ok(())
            }
            Mode::Optimistic(st) => {
                let addr = w.addr();
                let bit = bloom_bit(addr);
                if st.write_filter & bit != 0 {
                    if let Some(slot) = st.write_set.get_mut(addr) {
                        *slot = val;
                        return Ok(());
                    }
                }
                let line = addr >> 6;
                if !st.write_lines.contains(line) {
                    if st.write_lines.len() >= opts.write_cap_lines {
                        return Err(Abort::CAPACITY);
                    }
                    st.stripes |= 1u64 << fallback::stripe_of_line(line);
                    st.write_lines.push(line);
                }
                st.write_set.push((addr, val));
                st.write_filter |= bit;
                Ok(())
            }
        }
    }

    /// Read-modify-write convenience: `w = f(w)`, returning the old value.
    pub fn update(&mut self, w: &'t TmWord, f: impl FnOnce(u64) -> u64) -> TxResult<u64> {
        let old = self.read(w)?;
        self.write(w, f(old))?;
        Ok(old)
    }

    /// Program-requested abort (`XABORT`).
    pub fn abort(&self, code: u32) -> Abort {
        Abort::explicit(code)
    }

    /// Models issuing a cache-line flush inside the transaction: aborts in
    /// optimistic mode (as `CLWB` aborts real RTM), escalates a striped
    /// fallback (its writes are still buffered, so an in-place flush would
    /// persist stale data), and succeeds on the irrevocable global path
    /// (where real code flushes under the lock).
    pub fn flush_attempt(&self) -> TxResult<()> {
        match &self.mode {
            Mode::Optimistic(_) => Err(Abort {
                code: AbortCode::FlushInTxn,
            }),
            Mode::Striped(st) => {
                st.escaped.set(true);
                Err(Abort {
                    code: AbortCode::FlushInTxn,
                })
            }
            Mode::Irrevocable(_) => Ok(()),
        }
    }

    /// Number of buffered writes (diagnostic).
    pub fn write_set_len(&self) -> usize {
        match &self.mode {
            Mode::Optimistic(st) => st.write_set.len(),
            Mode::Striped(st) => st.write_set.len(),
            Mode::Irrevocable(_) => 0,
        }
    }

    /// Two-phase commit. Consumes the transaction.
    pub(crate) fn commit(self) -> TxResult<()> {
        let (tbl, global) = (self.tbl, self.global);
        let mut st = match self.mode {
            // Dropping the state releases the held entries.
            Mode::Irrevocable(_) => return Ok(()),
            Mode::Striped(mut st) => {
                debug_assert!(!st.escaped.get(), "escaped striped txn must not commit");
                // The held stripes exclude every conflicting fallback and
                // abort every footprint-overlapping optimistic committer;
                // only a non-transactional store can have changed a word
                // read, which the read-set validation below catches (the
                // domain then escalates to tier 2, nothing published). The
                // buffered writes must publish **atomically at one commit
                // version**.
                // Per-word `store_nontx` would give each word its own
                // version: a read-only optimistic txn sampling rv between
                // two of those bumps would pass sandwich validation on the
                // already-published words *and* on the still-old ones,
                // committing a torn slice of this supposedly atomic write
                // set. So reuse the optimistic phase-1/phase-3 machinery:
                // lock every entry (sorted ascending, same order as
                // optimistic commits and other striped publishes — no
                // deadlock; optimistic committers bound their spin and
                // abort, so spinning here until held cannot wedge), bump
                // the clock once, apply, release everything at that wv.
                // Readers then see the set indivisible: entries locked
                // during apply, all versions equal to wv after.
                let ws = st.write_set.as_mut_slice();
                ws.sort_unstable_by_key(|&(addr, _)| global::lock_index(addr));
                let owner = global::next_ticket();
                let ws = st.write_set.as_slice();
                let mut acquired = SmallPairSet::new();
                for i in 0..ws.len() {
                    let idx = global::lock_index(ws[i].0);
                    if i > 0 && global::lock_index(ws[i - 1].0) == idx {
                        continue; // duplicate entry (adjacent after sort)
                    }
                    let mut spins = 0u32;
                    loop {
                        let cur = global::lock_load(idx);
                        if !global::is_locked(cur)
                            && global::lock_try_acquire(idx, cur, owner)
                        {
                            acquired.push((idx, cur));
                            break;
                        }
                        spins += 1;
                        if spins >= WAIT_SPIN_LIMIT {
                            spins = 0;
                            std::thread::yield_now();
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                }
                if !read_set_current(&st.read_set, &acquired) {
                    release_all(acquired.as_slice());
                    return Err(Abort::CONFLICT);
                }
                let wv = global::clock_bump();
                for &(addr, v) in ws {
                    // SAFETY: every address was inserted from a `&'t
                    // TmWord` borrow in `write`, and `'t` outlives this
                    // `Txn`, so the word's storage is still live.
                    let w = unsafe { &*(addr as *const TmWord) };
                    // Ordering: Release — pairs with the Acquire loads in
                    // `TmWord::load_direct` / `global::lock_load`, exactly
                    // as in the optimistic phase 3 below.
                    w.0.store(v, std::sync::atomic::Ordering::Release);
                }
                for &(idx, _) in acquired.as_slice() {
                    global::lock_release(idx, wv);
                }
                return Ok(());
            }
            Mode::Optimistic(st) => st,
        };
        if st.write_set.is_empty() {
            // Read-only: every read was validated against rv when it
            // happened, so the snapshot is already consistent. This stays
            // sound against fallbacks without any stripe/global check
            // because both fallback tiers publish rv-indivisibly: tier 1
            // at a single commit version under the word locks (above),
            // tier 2 behind the begin-time global-word subscription that
            // guarantees rv predates any still-open irrevocable window.
            return Ok(());
        }

        // Phase 1: lock the write set in sorted lock-index order. Sorting
        // the set in place (entries are address-keyed; their order is free
        // to change once buffered) keeps commit allocation-free.
        let ws = st.write_set.as_mut_slice();
        ws.sort_unstable_by_key(|&(addr, _)| global::lock_index(addr));
        let mut acquired = SmallPairSet::new(); // (lock index, pre-lock version)
        let ws = st.write_set.as_slice();
        for i in 0..ws.len() {
            let idx = global::lock_index(ws[i].0);
            if i > 0 && global::lock_index(ws[i - 1].0) == idx {
                continue; // duplicate lock index (adjacent after the sort)
            }
            let mut spins = COMMIT_LOCK_SPINS;
            loop {
                let cur = global::lock_load(idx);
                if !global::is_locked(cur) && global::lock_try_acquire(idx, cur, st.owner) {
                    acquired.push((idx, cur));
                    break;
                }
                spins -= 1;
                if spins == 0 {
                    release_all(acquired.as_slice());
                    return Err(Abort::CONFLICT);
                }
                std::hint::spin_loop();
            }
        }

        // Phase 2: commit timestamp, then read-set validation.
        let wv = global::clock_bump();
        if !read_set_current(&st.read_set, &acquired) {
            release_all(acquired.as_slice());
            return Err(Abort::CONFLICT);
        }

        // Commit-time fallback subscription: with the write locks held,
        // the global fallback word and every footprint stripe must be
        // free (even). A fallback in flight right now may have read words
        // this transaction is about to overwrite — and fallback reads are
        // never validated, so committing into its window would hand it a
        // stale snapshot. A fallback that starts *after* this check
        // cannot race it either: its reads wait out this commit's write
        // locks word by word, so it observes the fully applied state.
        // (See the interleaving proof in `crate::fallback`.)
        //
        // Ordering: SeqCst fence. The check is the classic store-buffering
        // shape — this committer stores lock-table entries then loads the
        // fallback words, while a fallback CASes a fallback word then loads
        // lock-table entries before its first data access. With only
        // Acquire/Release both sides may read stale ("both see free") on
        // non-TSO hardware, letting this commit land inside the fallback's
        // read window. This fence pairs with the one in
        // `fallback::acquire_word` (after a successful acquisition): in
        // any execution at least one side observes the other's store.
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
        let mut held = global.map(|g| g.load_direct() % 2 == 1).unwrap_or(false);
        if let Some(tbl) = tbl {
            let mut mask = st.stripes;
            while !held && mask != 0 {
                let s = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                held = tbl.word(s).load_direct() % 2 == 1;
            }
        }
        if held {
            release_all(acquired.as_slice());
            return Err(Abort::CONFLICT);
        }

        // Phase 3: apply buffered stores, then release at the new version.
        for &(addr, v) in st.write_set.as_slice() {
            // SAFETY: every address was inserted from a `&'t TmWord` borrow
            // in `write`, and `'t` outlives this `Txn` (commit consumes it
            // within `'t`), so the word's `AtomicU64` storage is still live.
            let w = unsafe { &*(addr as *const TmWord) };
            // Ordering: Release. Pairs with the Acquire loads in
            // `TmWord::load_direct` / `global::lock_load`: any thread that
            // observes this value — directly, or via the version published
            // by the `lock_release` below — also observes every write
            // sequenced before it in this transaction.
            w.0.store(v, std::sync::atomic::Ordering::Release);
        }
        for &(idx, _) in acquired.as_slice() {
            global::lock_release(idx, wv);
        }
        Ok(())
    }
}

/// Whether every `(lock index, version)` read is still current: entries
/// this commit holds (`acquired`) must have had the observed version when
/// locked, every other entry must still carry it (and be unlocked).
fn read_set_current(read_set: &SmallPairSet, acquired: &SmallPairSet) -> bool {
    read_set.as_slice().iter().all(|&(idx, observed)| match acquired.get(idx) {
        Some(prev) => prev == observed,
        None => global::lock_load(idx) == observed,
    })
}

/// Restores pre-lock versions after a failed commit.
fn release_all(acquired: &[(usize, u64)]) {
    for &(idx, prev) in acquired {
        global::lock_release(idx, prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffered_write_is_invisible_until_commit() {
        let w = TmWord::new(1);
        let mut txn = Txn::optimistic(TxnOptions::default(), None, None);
        txn.write(&w, 2).unwrap();
        assert_eq!(w.load_direct(), 1, "store must stay buffered");
        assert_eq!(txn.read(&w).unwrap(), 2, "read-own-write");
        txn.commit().unwrap();
        assert_eq!(w.load_direct(), 2);
    }

    #[test]
    fn dropped_txn_discards_writes() {
        let w = TmWord::new(1);
        {
            let mut txn = Txn::optimistic(TxnOptions::default(), None, None);
            txn.write(&w, 99).unwrap();
        }
        assert_eq!(w.load_direct(), 1);
    }

    #[test]
    fn read_capacity_abort() {
        let words: Vec<TmWord> = (0..100).map(TmWord::new).collect();
        let opts = TxnOptions {
            read_cap_lines: 4,
            write_cap_lines: 4,
        };
        let mut txn = Txn::optimistic(opts, None, None);
        let mut aborted = None;
        for w in &words {
            if let Err(a) = txn.read(w) {
                aborted = Some(a);
                break;
            }
        }
        // 100 contiguous words = 800 B ≥ 13 lines, far past the 4-line cap.
        assert_eq!(aborted.map(|a| a.code), Some(AbortCode::Capacity));
    }

    #[test]
    fn write_capacity_abort() {
        let words: Vec<TmWord> = (0..100).map(TmWord::new).collect();
        let opts = TxnOptions {
            read_cap_lines: 512,
            write_cap_lines: 2,
        };
        let mut txn = Txn::optimistic(opts, None, None);
        let mut aborted = None;
        for w in &words {
            if let Err(a) = txn.write(w, 0) {
                aborted = Some(a);
                break;
            }
        }
        assert_eq!(aborted.map(|a| a.code), Some(AbortCode::Capacity));
    }

    #[test]
    fn nontx_store_conflicts_reader() {
        let w = TmWord::new(0);
        let mut txn = Txn::optimistic(TxnOptions::default(), None, None);
        let _ = txn.read(&w).unwrap();
        w.store_nontx(1); // concurrent plain store, conflict-visible
        // Reading again must observe a version bump and abort.
        let r = txn.read(&w);
        assert_eq!(r, Err(Abort::CONFLICT));
    }

    #[test]
    fn writer_validation_catches_interleaved_commit() {
        let a = TmWord::new(0);
        let b = TmWord::new(0);
        let mut t1 = Txn::optimistic(TxnOptions::default(), None, None);
        let va = t1.read(&a).unwrap();
        t1.write(&b, va + 1).unwrap();
        // Another thread commits a write to `a` in between.
        a.store_nontx(7);
        assert_eq!(t1.commit(), Err(Abort::CONFLICT));
        assert_eq!(b.load_direct(), 0, "aborted txn must not publish");
    }

    #[test]
    fn flush_attempt_aborts_optimistic_only() {
        let t = Txn::optimistic(TxnOptions::default(), None, None);
        assert_eq!(
            t.flush_attempt().unwrap_err().code,
            AbortCode::FlushInTxn
        );
        let t = Txn::irrevocable(TxnOptions::default());
        assert!(t.flush_attempt().is_ok());
    }

    #[test]
    fn irrevocable_rw_is_immediate() {
        let w = TmWord::new(3);
        let mut t = Txn::irrevocable(TxnOptions::default());
        assert_eq!(t.read(&w).unwrap(), 3);
        t.write(&w, 4).unwrap();
        assert_eq!(w.load_direct(), 4, "irrevocable writes publish at once");
        t.commit().unwrap();
    }

    #[test]
    fn explicit_abort_carries_code() {
        let t = Txn::optimistic(TxnOptions::default(), None, None);
        assert_eq!(t.abort(0xAB).code, AbortCode::Explicit(0xAB));
    }

    #[test]
    fn read_only_commit_is_free_and_consistent() {
        let a = TmWord::new(10);
        let b = TmWord::new(20);
        let mut t = Txn::optimistic(TxnOptions::default(), None, None);
        let x = t.read(&a).unwrap();
        let y = t.read(&b).unwrap();
        assert_eq!(x + y, 30);
        t.commit().unwrap();
    }

    #[test]
    fn large_write_set_spills_and_commits() {
        // Drive the write set far past INLINE_CAP so commit exercises the
        // spilled path: sorted multi-lock acquisition, validation, apply.
        let words: Vec<TmWord> = (0..200).map(TmWord::new).collect();
        let mut txn = Txn::optimistic(TxnOptions::default(), None, None);
        for (i, w) in words.iter().enumerate() {
            let v = txn.read(w).unwrap();
            txn.write(w, v + i as u64 + 1).unwrap();
        }
        assert_eq!(txn.write_set_len(), 200);
        txn.commit().unwrap();
        for (i, w) in words.iter().enumerate() {
            assert_eq!(w.load_direct(), 2 * i as u64 + 1);
        }
    }

    #[test]
    fn bloom_lets_reads_see_own_writes_in_spilled_sets() {
        let words: Vec<TmWord> = (0..64).map(|_| TmWord::new(0)).collect();
        let mut txn = Txn::optimistic(TxnOptions::default(), None, None);
        for (i, w) in words.iter().enumerate() {
            txn.write(w, i as u64).unwrap();
        }
        // Every buffered value must be readable back (no bloom false
        // negatives) and overwrites must dedup, not duplicate.
        for (i, w) in words.iter().enumerate() {
            assert_eq!(txn.read(w).unwrap(), i as u64);
            txn.write(w, i as u64 + 100).unwrap();
        }
        assert_eq!(txn.write_set_len(), 64, "overwrite must not re-push");
        txn.commit().unwrap();
        for (i, w) in words.iter().enumerate() {
            assert_eq!(w.load_direct(), i as u64 + 100);
        }
    }

    #[test]
    fn footprint_mask_tracks_touched_stripes() {
        let tbl = StripeTable::new();
        let words: Vec<TmWord> = (0..64).map(TmWord::new).collect();
        let mut txn = Txn::optimistic(TxnOptions::default(), Some(&tbl), None);
        for w in &words {
            let _ = txn.read(w).unwrap();
        }
        let mask = txn.stripe_mask();
        assert_ne!(mask, 0, "reads must record their covering stripes");
        // The mask is exactly the set of stripes covering the touched lines.
        let mut expect = 0u64;
        for w in &words {
            expect |= 1u64 << fallback::stripe_of(w);
        }
        assert_eq!(mask, expect);
        txn.commit().unwrap();
    }

    #[test]
    fn commit_aborts_while_footprint_stripe_is_held() {
        let tbl = StripeTable::new();
        let w = TmWord::new(5);
        let mut txn = Txn::optimistic(TxnOptions::default(), Some(&tbl), None);
        assert_eq!(txn.read(&w).unwrap(), 5);
        txn.write(&w, 6).unwrap();
        // A fallback holds the covering stripe while this commit runs: the
        // commit-time subscription must abort it — the fallback's
        // unvalidated reads may include `w`, so committing into its window
        // would hand it a stale snapshot.
        let conflicts = std::sync::atomic::AtomicU64::new(0);
        let g = tbl.acquire_mask(1u64 << fallback::stripe_of(&w), &conflicts);
        assert_eq!(txn.commit(), Err(Abort::CONFLICT));
        assert_eq!(w.load_direct(), 5, "aborted commit must not publish");
        drop(g);
        // Once the stripe is free again, the same update goes through.
        let mut txn = Txn::optimistic(TxnOptions::default(), Some(&tbl), None);
        let v = txn.read(&w).unwrap();
        txn.write(&w, v + 1).unwrap();
        txn.commit().unwrap();
        assert_eq!(w.load_direct(), 6);
    }

    #[test]
    fn commit_aborts_while_global_fallback_word_is_held() {
        let lock = crate::fallback::FallbackLock::new();
        let w = TmWord::new(1);
        let mut txn = Txn::optimistic(TxnOptions::default(), None, Some(&lock.word));
        txn.write(&w, 2).unwrap();
        let g = lock.acquire();
        assert_eq!(txn.commit(), Err(Abort::CONFLICT));
        assert_eq!(w.load_direct(), 1);
        drop(g);
        let mut txn = Txn::optimistic(TxnOptions::default(), None, Some(&lock.word));
        txn.write(&w, 2).unwrap();
        txn.commit().unwrap();
        assert_eq!(w.load_direct(), 2);
    }

    #[test]
    fn completed_fallback_does_not_abort_later_commits() {
        // A stripe acquired AND released before commit leaves no lasting
        // mark: lazy subscription only cares about fallbacks in flight at
        // commit time (a completed fallback serialises before this txn via
        // its published versions, which read validation checks).
        let tbl = StripeTable::new();
        let w = TmWord::new(5);
        let mut txn = Txn::optimistic(TxnOptions::default(), Some(&tbl), None);
        assert_eq!(txn.read(&w).unwrap(), 5);
        txn.write(&w, 6).unwrap();
        let conflicts = std::sync::atomic::AtomicU64::new(0);
        drop(tbl.acquire_mask(1u64 << fallback::stripe_of(&w), &conflicts));
        txn.commit().unwrap();
        assert_eq!(w.load_direct(), 6);
    }

    #[test]
    fn striped_buffers_writes_and_publishes_on_commit() {
        let w = TmWord::new(1);
        let covered = 1u64 << fallback::stripe_of(&w);
        let mut txn = Txn::striped(TxnOptions::default(), covered);
        assert!(txn.is_fallback() && !txn.is_irrevocable());
        assert_eq!(txn.read(&w).unwrap(), 1);
        txn.write(&w, 2).unwrap();
        assert_eq!(w.load_direct(), 1, "striped writes stay buffered");
        assert_eq!(txn.read(&w).unwrap(), 2, "read-own-write");
        assert!(!txn.escaped());
        txn.commit().unwrap();
        assert_eq!(w.load_direct(), 2);
    }

    #[test]
    fn striped_commit_fails_when_a_nontx_store_hit_its_read_set() {
        // No stripe excludes a non-transactional store: the read-modify-
        // write below would lose its increment if commit did not validate.
        let w = TmWord::new(1);
        let mut txn = Txn::striped(TxnOptions::default(), u64::MAX);
        let v = txn.read(&w).unwrap();
        w.fetch_add_nontx(1);
        txn.write(&w, v + 1).unwrap();
        assert_eq!(txn.commit().unwrap_err().code, AbortCode::Conflict);
        assert_eq!(w.load_direct(), 2, "a failed striped commit publishes nothing");
        assert!(!global::is_locked(global::lock_load(w.lock_idx())), "entries released");
    }

    #[test]
    fn irrevocable_holds_its_words_until_the_body_ends() {
        // A held entry is what makes `store_nontx` / `cas_nontx` wait, so
        // a read must keep the word's entry locked until the txn drops.
        let w = TmWord::new(1);
        let idx = w.lock_idx();
        let mut txn = Txn::irrevocable(TxnOptions::default());
        let v = txn.read(&w).unwrap();
        assert!(global::is_locked(global::lock_load(idx)), "a read must hold the entry");
        txn.write(&w, v + 1).unwrap();
        assert_eq!(w.load_direct(), 2, "irrevocable writes land in place");
        drop(txn);
        assert!(!global::is_locked(global::lock_load(idx)), "dropping releases the entry");
    }

    #[test]
    fn striped_publish_releases_all_entries_at_one_version() {
        // The torn-read-only-snapshot fix: a striped fallback's write set
        // must publish at a single commit version, or a read-only txn
        // whose rv lands between two per-word publishes passes sandwich
        // validation on a torn slice. Retry a few times because unrelated
        // concurrent tests can bump a hash-shared lock entry between the
        // two observation loads.
        for _ in 0..3 {
            let words: Vec<TmWord> = (0..2).map(|_| TmWord::new(0)).collect();
            let (a, b) = (&words[0], &words[1]);
            let mut txn = Txn::striped(TxnOptions::default(), u64::MAX);
            txn.write(a, 1).unwrap();
            txn.write(b, 2).unwrap();
            txn.commit().unwrap();
            assert_eq!((a.load_direct(), b.load_direct()), (1, 2));
            let (ia, ib) = (a.lock_idx(), b.lock_idx());
            if ia == ib || global::lock_load(ia) == global::lock_load(ib) {
                return; // one entry (vacuous) or one version observed
            }
        }
        panic!("striped commit must release its write set at one wv");
    }

    #[test]
    fn striped_coverage_miss_escapes_without_publishing() {
        let a = TmWord::new(0);
        let b = TmWord::new(0);
        let sa = 1u64 << fallback::stripe_of(&a);
        let sb = 1u64 << fallback::stripe_of(&b);
        if sa == sb {
            // `a` and `b` are separate heap locals; same-stripe collisions
            // are possible (1/64) — the disjoint case is what we test.
            return;
        }
        let mut txn = Txn::striped(TxnOptions::default(), sa);
        txn.write(&a, 1).unwrap();
        assert_eq!(txn.read(&b), Err(Abort::CONFLICT), "uncovered line");
        assert!(txn.escaped());
        drop(txn);
        assert_eq!(a.load_direct(), 0, "escaped run must publish nothing");
    }

    #[test]
    fn striped_flush_escapes() {
        let w = TmWord::new(0);
        let txn = Txn::striped(TxnOptions::default(), u64::MAX);
        assert_eq!(
            txn.flush_attempt().unwrap_err().code,
            AbortCode::FlushInTxn
        );
        assert!(txn.escaped());
        let _ = w;
    }
}
