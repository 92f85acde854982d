//! The transaction object: TL2 read/write sets, per-read validation,
//! capacity accounting, and two-phase commit.
//!
//! See the crate docs for the mapping from RTM semantics to this STM. The
//! algorithm is classic TL2 (Dice, Shalev, Shavit 2006) specialised to
//! 64-bit words:
//!
//! * `begin`: sample the global clock into the read version `rv`, then
//!   subscribe to the process-wide fallback word: re-sample until the word is
//!   observed free *after* `rv` was taken, so no optimistic section can
//!   start with an `rv` from inside an irrevocable fallback's write
//!   window.
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
//! Optimistic transactions subscribe to the fallback lock a second time
//! **at commit**: after the write locks are held, commit checks that the
//! fallback word is free. Commit-time ("lazy") subscription is famously
//! unsound on real RTM, where a zombie transaction can act on a torn read
//! long before it reaches `XEND`; here every read is sandwich-validated
//! against `rv`, so a transaction can never observe fallback writes torn —
//! the only race left is committing *into* an in-flight fallback's read
//! window, which is exactly what the commit-time check closes. See the
//! proof in [`crate::fallback`], including the `SeqCst` fence that orders
//! the phase-1 lock stores before the subscription load (a
//! store-buffering pattern on non-TSO hardware otherwise).
//!
//! The fallback runs **irrevocably** under the process-wide fallback lock:
//! every word read or written has its version-lock entry held until the
//! body ends (two-phase locking, so non-transactional stores cannot
//! interleave), and writes land in place at once; mutual exclusion is
//! total. In-place writes are visible before the body ends, which is why
//! optimistic `begin` subscribes to the fallback word (above).

use std::marker::PhantomData;

use crate::fallback;
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

/// The capacity model: distinct cache lines one transaction may read, and
/// separately write, before it aborts with [`AbortCode::Capacity`]. 512
/// lines are the 32 KiB L1 of the paper's machine.
pub(crate) const CAP_LINES: usize = 512;

/// Bounded spin iterations when acquiring a write-set lock at commit.
const COMMIT_LOCK_SPINS: u32 = 128;

/// Bounded spin iterations before yielding while a must-succeed wait spins
/// (begin-time subscription, irrevocable entry acquisition).
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
}

/// Fallback state: every version-lock entry the irrevocable body touched,
/// held until the body ends (two-phase locking). The fallback lock
/// excludes every transactional writer; holding the entries also
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
    /// while holding) — no other fallback can run anywhere in the
    /// process (the fallback lock is process-wide, like this table), so
    /// this cannot deadlock.
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
    Irrevocable(IrrevocableState),
}

/// A running transaction. Obtained from [`crate::atomic`].
pub struct Txn<'t> {
    mode: Mode,
    /// Write-set addresses borrow `'t` words; see [`OptState::write_set`].
    _words: PhantomData<&'t TmWord>,
}

impl<'t> Txn<'t> {
    pub(crate) fn optimistic() -> Self {
        // Begin-time subscription: take `rv`, *then* observe the fallback
        // word free; if an irrevocable fallback is (or might still be) in
        // its write window, re-sample. Order matters —
        // an irrevocable publish at version v <= rv happened before the
        // clock reached rv, and the publisher acquired the word before
        // publishing, so a post-rv load of the word still sees it odd
        // (clock bumps form a release sequence; reading rv >= v
        // synchronizes-with the publisher's bump). Hence a free word
        // observed *after* sampling rv proves no irrevocable write with
        // version <= rv can still be mid-window: read-only sections can
        // never commit a torn slice of a fallback's write set.
        let rv = {
            let mut spins = 0u32;
            loop {
                let rv = global::clock_read();
                if !fallback::is_held() {
                    break rv;
                }
                spins += 1;
                if spins >= WAIT_SPIN_LIMIT {
                    spins = 0;
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
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
            }),
            _words: PhantomData,
        }
    }

    pub(crate) fn irrevocable() -> Self {
        Txn {
            mode: Mode::Irrevocable(IrrevocableState {
                owner: global::next_ticket(),
                held: SmallPairSet::new(),
                wrote: false,
            }),
            _words: PhantomData,
        }
    }

    /// True on the fallback path: the body runs irrevocably under the
    /// fallback lock, not optimistically.
    pub fn is_fallback(&self) -> bool {
        matches!(self.mode, Mode::Irrevocable(_))
    }

    /// Transactionally reads a word.
    pub fn read(&mut self, w: &'t TmWord) -> TxResult<u64> {
        match &mut self.mode {
            Mode::Irrevocable(st) => {
                // Holding the entry waits out any committing optimistic
                // writer (no torn multi-word commit) and keeps the word
                // current until the body ends.
                st.hold(w.lock_idx());
                Ok(w.load_direct())
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
                    if st.read_lines.len() >= CAP_LINES {
                        return Err(Abort::CAPACITY);
                    }
                    st.read_lines.push(line);
                }
                Ok(v)
            }
        }
    }

    /// Transactionally writes a word. The store is buffered until commit in
    /// optimistic mode; conflict-visible immediately in irrevocable mode.
    pub fn write(&mut self, w: &'t TmWord, val: u64) -> TxResult<()> {
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
                    if st.write_lines.len() >= CAP_LINES {
                        return Err(Abort::CAPACITY);
                    }
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
    /// optimistic mode (as `CLWB` aborts real RTM) and succeeds on the
    /// irrevocable fallback path (where real code flushes under the lock).
    pub fn flush_attempt(&self) -> TxResult<()> {
        match &self.mode {
            Mode::Optimistic(_) => Err(Abort {
                code: AbortCode::FlushInTxn,
            }),
            Mode::Irrevocable(_) => Ok(()),
        }
    }

    /// Number of buffered writes.
    #[cfg(test)]
    pub(crate) fn write_set_len(&self) -> usize {
        match &self.mode {
            Mode::Optimistic(st) => st.write_set.len(),
            Mode::Irrevocable(_) => 0,
        }
    }

    /// Two-phase commit. Consumes the transaction.
    pub(crate) fn commit(self) -> TxResult<()> {
        let mut st = match self.mode {
            // Dropping the state releases the held entries.
            Mode::Irrevocable(_) => return Ok(()),
            Mode::Optimistic(st) => st,
        };
        if st.write_set.is_empty() {
            // Read-only: every read was validated against rv when it
            // happened, so the snapshot is already consistent. This stays
            // sound against fallbacks without a fallback-word check because
            // a fallback publishes rv-indivisibly: its entries stay held
            // until the body ends, and the begin-time subscription
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
        // the fallback word must be free (even). A fallback in flight right
        // now may have read words this transaction is about to overwrite —
        // and fallback reads are never validated, so committing into its
        // window would hand it a stale snapshot. A fallback that starts *after* this check
        // cannot race it either: its reads wait out this commit's write
        // locks word by word, so it observes the fully applied state.
        // (See the interleaving proof in `crate::fallback`.)
        //
        // Ordering: SeqCst fence. The check is the classic store-buffering
        // shape — this committer stores lock-table entries then loads the
        // fallback word, while a fallback CASes the fallback word then loads
        // lock-table entries before its first data access. With only
        // Acquire/Release both sides may read stale ("both see free") on
        // non-TSO hardware, letting this commit land inside the fallback's
        // read window. This fence pairs with the one in
        // `fallback::acquire` (after a successful acquisition): in
        // any execution at least one side observes the other's store.
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
        if fallback::is_held() {
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
pub(crate) mod tests {
    //! The fallback lock is process-wide, so another test's fallback in
    //! flight aborts a writing commit here; [`commit_past_fallbacks`]
    //! retries exactly those aborts.
    use super::*;

    /// One word per cache line, so `CAP_LINES + 1` of them overflow the
    /// capacity model.
    #[repr(align(64))]
    #[derive(Default)]
    pub(crate) struct Line(pub(crate) TmWord);

    pub(crate) fn over_capacity() -> Vec<Line> {
        (0..=CAP_LINES).map(|_| Line::default()).collect()
    }

    /// Commits the transaction `run` builds, building it again while the
    /// commit aborts. Each abort must be a conflict that a fallback in
    /// flight explains: the fallback word was held when sampled just
    /// before the commit, or it has moved since.
    fn commit_past_fallbacks<'t>(mut run: impl FnMut() -> Txn<'t>) {
        loop {
            let txn = run();
            let seen = global::FALLBACK.load_direct();
            match txn.commit() {
                Ok(()) => return,
                Err(a) => {
                    assert_eq!(a, Abort::CONFLICT);
                    assert!(
                        seen % 2 == 1 || global::FALLBACK.load_direct() != seen,
                        "a commit aborted with no fallback in flight"
                    );
                }
            }
        }
    }

    #[test]
    fn buffered_write_is_invisible_until_commit() {
        let w = TmWord::new(1);
        commit_past_fallbacks(|| {
            let mut txn = Txn::optimistic();
            txn.write(&w, 2).unwrap();
            assert_eq!(w.load_direct(), 1, "store must stay buffered");
            assert_eq!(txn.read(&w).unwrap(), 2, "read-own-write");
            txn
        });
        assert_eq!(w.load_direct(), 2);
    }

    #[test]
    fn dropped_txn_discards_writes() {
        let w = TmWord::new(1);
        {
            let mut txn = Txn::optimistic();
            txn.write(&w, 99).unwrap();
        }
        assert_eq!(w.load_direct(), 1);
    }

    #[test]
    fn read_capacity_abort() {
        let lines = over_capacity();
        let (reads, abort) = loop {
            let mut txn = Txn::optimistic();
            let mut reads = 0;
            let abort = lines.iter().find_map(|l| match txn.read(&l.0) {
                Ok(_) => {
                    reads += 1;
                    None
                }
                Err(a) => Some(a.code),
            });
            // A conflict is another test's commit on a shared lock-table
            // entry; only the capacity model is under test.
            if abort != Some(AbortCode::Conflict) {
                break (reads, abort);
            }
        };
        assert_eq!(abort, Some(AbortCode::Capacity));
        assert_eq!(reads, CAP_LINES, "the cap admits exactly CAP_LINES lines");
    }

    #[test]
    fn write_capacity_abort() {
        let lines = over_capacity();
        let mut txn = Txn::optimistic();
        let mut writes = 0;
        let abort = lines.iter().find_map(|l| match txn.write(&l.0, 0) {
            Ok(()) => {
                writes += 1;
                None
            }
            Err(a) => Some(a.code),
        });
        assert_eq!(abort, Some(AbortCode::Capacity));
        assert_eq!(writes, CAP_LINES, "the cap admits exactly CAP_LINES lines");
    }

    #[test]
    fn nontx_store_conflicts_reader() {
        let w = TmWord::new(0);
        let mut txn = Txn::optimistic();
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
        let mut t1 = Txn::optimistic();
        let va = t1.read(&a).unwrap();
        t1.write(&b, va + 1).unwrap();
        // Another thread commits a write to `a` in between.
        a.store_nontx(7);
        assert_eq!(t1.commit(), Err(Abort::CONFLICT));
        assert_eq!(b.load_direct(), 0, "aborted txn must not publish");
    }

    #[test]
    fn flush_attempt_aborts_optimistic_only() {
        let t = Txn::optimistic();
        assert_eq!(
            t.flush_attempt().unwrap_err().code,
            AbortCode::FlushInTxn
        );
        let t = Txn::irrevocable();
        assert!(t.flush_attempt().is_ok());
    }

    #[test]
    fn irrevocable_rw_is_immediate() {
        let w = TmWord::new(3);
        let mut t = Txn::irrevocable();
        assert_eq!(t.read(&w).unwrap(), 3);
        t.write(&w, 4).unwrap();
        assert_eq!(w.load_direct(), 4, "irrevocable writes publish at once");
        t.commit().unwrap();
    }

    #[test]
    fn explicit_abort_carries_code() {
        let t = Txn::optimistic();
        assert_eq!(t.abort(0xAB).code, AbortCode::Explicit(0xAB));
    }

    #[test]
    fn read_only_commit_is_free_and_consistent() {
        let a = TmWord::new(10);
        let b = TmWord::new(20);
        let mut t = Txn::optimistic();
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
        commit_past_fallbacks(|| {
            let mut txn = Txn::optimistic();
            for (i, w) in words.iter().enumerate() {
                let v = txn.read(w).unwrap();
                txn.write(w, v + i as u64 + 1).unwrap();
            }
            assert_eq!(txn.write_set_len(), 200);
            txn
        });
        for (i, w) in words.iter().enumerate() {
            assert_eq!(w.load_direct(), 2 * i as u64 + 1);
        }
    }

    #[test]
    fn bloom_lets_reads_see_own_writes_in_spilled_sets() {
        let words: Vec<TmWord> = (0..64).map(|_| TmWord::new(0)).collect();
        commit_past_fallbacks(|| {
            let mut txn = Txn::optimistic();
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
            txn
        });
        for (i, w) in words.iter().enumerate() {
            assert_eq!(w.load_direct(), i as u64 + 100);
        }
    }

    #[test]
    fn commit_aborts_while_global_fallback_word_is_held() {
        let w = TmWord::new(1);
        let mut txn = Txn::optimistic();
        txn.write(&w, 2).unwrap();
        let g = fallback::acquire();
        assert_eq!(txn.commit(), Err(Abort::CONFLICT));
        assert_eq!(w.load_direct(), 1);
        drop(g);
        commit_past_fallbacks(|| {
            let mut txn = Txn::optimistic();
            txn.write(&w, 2).unwrap();
            txn
        });
        assert_eq!(w.load_direct(), 2);
    }

    #[test]
    fn completed_fallback_does_not_abort_later_commits() {
        // A fallback lock acquired AND released before commit leaves no
        // lasting mark: lazy subscription only cares about fallbacks in
        // flight at commit time (a completed fallback serialises before
        // this txn via its published versions, which read validation
        // checks). The helper samples the word after this release, so
        // only a later fallback can excuse an abort.
        let w = TmWord::new(5);
        commit_past_fallbacks(|| {
            let mut txn = Txn::optimistic();
            let v = txn.read(&w).unwrap();
            assert_eq!(v, 5);
            txn.write(&w, v + 1).unwrap();
            drop(fallback::acquire());
            txn
        });
        assert_eq!(w.load_direct(), 6);
    }

    #[test]
    fn irrevocable_holds_its_words_until_the_body_ends() {
        // A held entry is what makes `store_nontx` / `cas_nontx` wait, so
        // a read must keep the word's entry locked until the txn drops.
        let w = TmWord::new(1);
        let idx = w.lock_idx();
        let mut txn = Txn::irrevocable();
        let v = txn.read(&w).unwrap();
        assert!(global::is_locked(global::lock_load(idx)), "a read must hold the entry");
        txn.write(&w, v + 1).unwrap();
        assert_eq!(w.load_direct(), 2, "irrevocable writes land in place");
        drop(txn);
        assert!(!global::is_locked(global::lock_load(idx)), "dropping releases the entry");
    }
}
