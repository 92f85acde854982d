//! Global STM metadata: the version clock, the striped version-lock
//! table and the fallback lock word.
//!
//! Like the hardware it emulates, the STM is a process-global facility: any
//! [`crate::TmWord`] anywhere in memory is covered, whichever caller's
//! [`crate::HtmStats`] count the section. The fallback lock is process-wide
//! for the same reason: a fallback holds lock-table entries until its body
//! ends, so two fallbacks running at once could each wait on an entry the
//! other holds (see [`crate::fallback`]). Each word hashes to one
//! entry of a fixed table of *versioned write-locks* (TL2). An entry is
//! either
//!
//! * **unlocked** — the value is the commit timestamp (version) of the last
//!   transaction that wrote any word hashing to this entry, or
//! * **locked** — bit 63 is set and the low bits carry the owner's commit
//!   ticket, while the pre-lock version is remembered by the owner.
//!
//! False sharing of one entry by several words only ever causes spurious
//! aborts, never incorrect execution.
//!
//! ## Owner tickets
//!
//! A ticket is only an identity: an irrevocable owner recognises the
//! entries it already holds by comparing them with `LOCKED | ticket`. No
//! protocol step orders tickets, so they need not come from one shared
//! counter per call. Each thread keeps a private range of unissued
//! tickets and refills it from [`TICKETS`], the block source, one block
//! of [`TICKET_BLOCK`] tickets at a time. A section therefore writes no
//! shared cache line to name itself; the thread touches `TICKETS` once
//! per 2^16 tickets. Blocks are disjoint, so every call still gets a
//! ticket no other call gets.
//!
//! ## Memory orderings
//!
//! The table and clock use the minimal Acquire/Release scheme rather than
//! blanket `SeqCst`; each call site below carries its own safety argument.
//! The global shape of the proof is the standard TL2 one, built from two
//! release→acquire edges:
//!
//! 1. **Publication.** A committer stores its values (`Release`) and then
//!    `lock_release`s each entry at the commit version (`Release`). A reader
//!    whose `lock_load` (`Acquire`) observes an entry value ≥ that version
//!    synchronizes-with the release, so all of the commit's stores are
//!    visible to it.
//! 2. **Exclusion.** `lock_try_acquire` uses an `Acquire` CAS, so a new
//!    owner sees everything the previous owner published before releasing.
//!
//! No site needs a total order over *unrelated* locations (the only thing
//! `SeqCst` would add): every correctness argument in `txn.rs` is per-entry
//! — the double lock-load sandwich, version comparison against `rv`, and
//! commit-time re-validation are all about one entry's modification order,
//! which plain coherence already totally orders.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::word::TmWord;

/// log2 of the lock-table size.
const LOCK_TABLE_BITS: usize = 16;
/// Number of versioned-lock entries.
pub(crate) const LOCK_TABLE_SIZE: usize = 1 << LOCK_TABLE_BITS;

/// Bit 63 marks an entry as locked.
pub(crate) const LOCKED: u64 = 1 << 63;

static CLOCK: AtomicU64 = AtomicU64::new(0);

/// The fallback lock word: even = free, odd = held. Only
/// [`crate::fallback`] changes it.
pub(crate) static FALLBACK: TmWord = TmWord::new(0);

/// The block source for owner tickets: the first ticket of the next
/// unissued block (never zero). See the module docs.
static TICKETS: AtomicU64 = AtomicU64::new(1);

/// Tickets a thread takes from [`TICKETS`] at a time.
const TICKET_BLOCK: u64 = 1 << 16;

thread_local! {
    /// This thread's unissued tickets, `next..end` (empty at start).
    static TICKET_RANGE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct LockTable {
    entries: Box<[AtomicU64]>,
}

impl LockTable {
    fn new() -> Self {
        let mut v = Vec::with_capacity(LOCK_TABLE_SIZE);
        v.resize_with(LOCK_TABLE_SIZE, || AtomicU64::new(0));
        LockTable {
            entries: v.into_boxed_slice(),
        }
    }
}

fn table() -> &'static LockTable {
    use std::sync::OnceLock;
    static TABLE: OnceLock<LockTable> = OnceLock::new();
    TABLE.get_or_init(LockTable::new)
}

/// Maps a word address to its lock-table index.
#[inline]
pub(crate) fn lock_index(addr: usize) -> usize {
    // Fibonacci hashing of the word address (drop the 3 alignment bits).
    // Hashed in u64 so 32-bit targets compile (the multiplier does not
    // fit in a 32-bit usize).
    let h = ((addr as u64) >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> (64 - LOCK_TABLE_BITS)) as usize
}

/// Loads lock entry `idx`.
#[inline]
pub(crate) fn lock_load(idx: usize) -> u64 {
    // Ordering: Acquire. Pairs with the Release in `lock_release`: a reader
    // that observes an *unlocked* entry at version v synchronizes-with the
    // commit that released it, making all of that commit's value stores
    // visible before the reader's subsequent value load. (The l1/l2
    // sandwich in `Txn::read` additionally relies on read-read coherence of
    // this one entry, which holds at any ordering.)
    table().entries[idx].load(Ordering::Acquire)
}

/// Tries to swing lock entry `idx` from the (unlocked) value `cur` to the
/// locked state with `owner`. Returns true on success.
#[inline]
pub(crate) fn lock_try_acquire(idx: usize, cur: u64, owner: u64) -> bool {
    debug_assert_eq!(cur & LOCKED, 0);
    // Ordering: Acquire on success — the new owner synchronizes-with the
    // previous owner's Release in `lock_release`, so it observes every store
    // published under the previous ownership before touching the data. No
    // Release is needed: acquisition publishes nothing (the buffered values
    // are still private), and the *subsequent* `lock_release` carries the
    // Release for everything done while holding the lock. Failure is
    // Relaxed: the caller only retries or aborts on the returned bool.
    table().entries[idx]
        .compare_exchange(cur, LOCKED | owner, Ordering::Acquire, Ordering::Relaxed)
        .is_ok()
}

/// Sets lock entry `idx` to the unlocked `version`. Only the lock owner may
/// call this.
#[inline]
pub(crate) fn lock_release(idx: usize, version: u64) {
    debug_assert_eq!(version & LOCKED, 0);
    // Ordering: Release. This is the publication edge: it orders every
    // value store the owner performed (commit phase 3, or a non-tx store)
    // before the entry becoming visibly unlocked, pairing with the Acquire
    // loads in `lock_load` and `lock_try_acquire`.
    table().entries[idx].store(version, Ordering::Release);
}

/// Current value of the global version clock.
#[inline]
pub(crate) fn clock_read() -> u64 {
    // Ordering: Acquire. Pairs with the AcqRel bump below: sampling rv ≥ t
    // synchronizes-with the commit that produced t, so any entry version
    // ≤ rv that a read later validates refers to data whose stores are
    // already visible (lock_release's Release then re-confirms per entry).
    CLOCK.load(Ordering::Acquire)
}

/// Advances the global clock and returns the new (commit) timestamp.
#[inline]
pub(crate) fn clock_bump() -> u64 {
    // Ordering: AcqRel. Release so a thread that reads the bumped value
    // inherits this committer's history (see `clock_read`); Acquire so the
    // committer's later `lock_release(wv)` cannot be ordered before the
    // timestamp exists — no entry may carry a version the clock has not yet
    // reached, which is what makes `l1 > rv` a sound staleness test.
    CLOCK.fetch_add(1, Ordering::AcqRel) + 1
}

/// Issues a fresh non-zero owner ticket (low 63 bits) from the calling
/// thread's block, refilling the block from [`TICKETS`] when it runs out.
#[inline]
pub(crate) fn next_ticket() -> u64 {
    TICKET_RANGE.with(|range| {
        let (mut next, mut end) = range.get();
        if next == end {
            // Ordering: Relaxed. Only the atomicity of the add matters:
            // it hands each caller a block no other caller gets.
            next = TICKETS.fetch_add(TICKET_BLOCK, Ordering::Relaxed);
            end = next + TICKET_BLOCK;
        }
        range.set((next + 1, end));
        next & !LOCKED
    })
}

/// True if the entry value encodes a locked state.
#[inline]
pub(crate) fn is_locked(entry: u64) -> bool {
    entry & LOCKED != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = clock_bump();
        let b = clock_bump();
        assert!(b > a);
        assert!(clock_read() >= b);
    }

    #[test]
    fn lock_roundtrip() {
        // Use a high, likely-unshared index to avoid cross-test interference.
        let idx = LOCK_TABLE_SIZE - 7;
        let before = lock_load(idx);
        if is_locked(before) {
            return; // another test holds it; nothing to check here
        }
        let owner = next_ticket();
        assert!(lock_try_acquire(idx, before, owner));
        assert!(is_locked(lock_load(idx)));
        // Second acquisition with stale expectation must fail.
        assert!(!lock_try_acquire(idx, before, next_ticket()));
        let v = clock_bump();
        lock_release(idx, v);
        assert_eq!(lock_load(idx), v);
    }

    #[test]
    fn lock_index_is_stable_and_in_range() {
        let w = 0xdead_beef_usize & !7;
        let a = lock_index(w);
        assert_eq!(a, lock_index(w));
        assert!(a < LOCK_TABLE_SIZE);
        // Words 8 bytes apart should usually hash differently.
        assert_ne!(lock_index(w), lock_index(w + 8));
    }

    #[test]
    fn tickets_are_unique_and_unlocked_shaped() {
        let a = next_ticket();
        let b = next_ticket();
        assert_ne!(a, b);
        assert_eq!(a & LOCKED, 0);
    }

    #[test]
    fn tickets_stay_distinct_across_block_refills_on_many_threads() {
        // Each thread draws three blocks' worth after a common start, so
        // the threads refill their ranges from `TICKETS` concurrently.
        let per_thread = 3 * TICKET_BLOCK as usize;
        let start = std::sync::Barrier::new(4);
        let drawn: Vec<Vec<u64>> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..per_thread).map(|_| next_ticket()).collect()
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let mut all: Vec<u64> = drawn.into_iter().flatten().collect();
        assert_eq!(all.len(), 4 * per_thread);
        assert!(all.iter().all(|&t| t != 0 && t & LOCKED == 0));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4 * per_thread, "a ticket was issued twice");
    }
}
