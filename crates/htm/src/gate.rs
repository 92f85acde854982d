//! Writer-presence gate for optimistic non-transactional reads.
//!
//! The DRAM page cache (nvm `cache` module) serves inner-node reads
//! without entering the software TM at all: a reader copies the node's
//! words with plain `Acquire` loads and must then decide whether a
//! structure-modifying transaction could have been concurrently rewriting
//! those words. [`OptimisticGate`] answers that question with a seqlock
//! over *writer presence* rather than over the data itself:
//!
//! * every structure modification (inner insert/split, child swap,
//!   bulk build) brackets its STM transaction with
//!   [`writer_enter`](OptimisticGate::writer_enter) /
//!   [`writer_exit`](OptimisticGate::writer_exit);
//! * a reader calls [`begin_read`](OptimisticGate::begin_read) *before*
//!   touching any word, obtaining a generation token only when no writer
//!   is inside, and [`validate`](OptimisticGate::validate) *after* its
//!   last load; success means the whole read window was writer-free.
//!
//! ## Why validation is sound
//!
//! All four counters operations use `SeqCst`, so they occupy one total
//! order `S`. Suppose a reader's data load observed a store made by some
//! writer `W`. The STM commits its buffered stores (and `store_nontx`
//! publishes) with `Release` ordering and the reader loads with
//! `Acquire`, so observing the store means `W.writer_enter()`'s
//! `active += 1` happens-before the reader's *subsequent*
//! `validate` loads. `validate` loads `active` and then `gen`:
//!
//! * if `W` has not yet run `writer_exit`, the `active` load sees a
//!   non-zero count and validation fails;
//! * if `W` has run `writer_exit`, its `gen += 1` precedes its
//!   `active -= 1` in `S`, and the reader's `active` load (which must
//!   come after the decrement in `S` to read zero) therefore also sees
//!   the incremented `gen` — which differs from the token captured by
//!   `begin_read` *before* the reader observed `W` at all, because
//!   `begin_read` required `active == 0` and `S` places it either
//!   before `W.writer_enter` (then `W`'s `gen += 1` is after the token
//!   was read) or after `W.writer_exit` (then the reader could not have
//!   raced `W`'s stores in the first place — they were already
//!   fully published when the token was taken, which is a valid,
//!   non-torn read).
//!
//! Either way, a read window overlapping any writer's store window is
//! rejected. A window that validates saw a writer-free interval, i.e. a
//! consistent snapshot. The gate says nothing about *which* snapshot —
//! callers must tolerate bounded staleness (the tree handles this with
//! fence-key rechecks at the leaf).
//!
//! The gate is intentionally coarse (one per index): writers are rare
//! (structure modifications only, not leaf upserts), so readers almost
//! always validate, and the two `SeqCst` loads are far cheaper than an
//! STM read-set validation.

use std::sync::atomic::{AtomicU64, Ordering};

/// Seqlock over writer presence; see module docs for the protocol.
#[derive(Debug, Default)]
pub struct OptimisticGate {
    /// Number of structure-modifying writers currently inside.
    active: AtomicU64,
    /// Completed-writer generation counter.
    gen: AtomicU64,
}

impl OptimisticGate {
    /// New gate with no writer inside.
    pub const fn new() -> OptimisticGate {
        OptimisticGate {
            active: AtomicU64::new(0),
            gen: AtomicU64::new(0),
        }
    }

    /// Marks a structure-modifying writer as inside. Pair with
    /// [`writer_exit`](OptimisticGate::writer_exit); the bracket must
    /// enclose every store (including STM commit) of the modification.
    #[inline]
    pub fn writer_enter(&self) {
        self.active.fetch_add(1, Ordering::SeqCst);
    }

    /// Marks the writer as done: bumps the generation *before* dropping
    /// the active count, so a reader that sees `active == 0` after this
    /// writer necessarily sees the new generation too.
    #[inline]
    pub fn writer_exit(&self) {
        self.gen.fetch_add(1, Ordering::SeqCst);
        self.active.fetch_sub(1, Ordering::SeqCst);
    }

    /// Opens an optimistic read window. Returns a token to pass to
    /// [`validate`](OptimisticGate::validate), or `None` if a writer is
    /// currently inside (the caller should fall back or retry).
    #[inline]
    pub fn begin_read(&self) -> Option<u64> {
        let token = self.gen.load(Ordering::SeqCst);
        if self.active.load(Ordering::SeqCst) == 0 {
            Some(token)
        } else {
            None
        }
    }

    /// Closes the read window: `true` iff no writer overlapped it, i.e.
    /// every load since `begin_read` saw a consistent snapshot.
    #[inline]
    pub fn validate(&self, token: u64) -> bool {
        // Order matters: check presence first, then the generation. A
        // writer that retired between our loads bumps `gen` before
        // dropping `active`, so reading `active == 0` guarantees we also
        // read its incremented `gen`.
        if self.active.load(Ordering::SeqCst) != 0 {
            return false;
        }
        self.gen.load(Ordering::SeqCst) == token
    }

    /// Number of completed writer sections.
    #[cfg(test)]
    pub(crate) fn generation(&self) -> u64 {
        self.gen.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn quiescent_reads_validate() {
        let g = OptimisticGate::new();
        let t = g.begin_read().unwrap();
        assert!(g.validate(t));
        assert!(g.validate(t), "tokens stay valid while no writer runs");
    }

    #[test]
    fn active_writer_blocks_begin_and_validate() {
        let g = OptimisticGate::new();
        let t = g.begin_read().unwrap();
        g.writer_enter();
        assert!(g.begin_read().is_none());
        assert!(!g.validate(t));
        g.writer_exit();
        assert!(!g.validate(t), "completed writer invalidates old tokens");
        let t2 = g.begin_read().unwrap();
        assert!(g.validate(t2));
        assert_eq!(g.generation(), 1);
    }

    #[test]
    fn writer_entirely_within_window_is_caught() {
        let g = OptimisticGate::new();
        let t = g.begin_read().unwrap();
        g.writer_enter();
        g.writer_exit();
        assert!(!g.validate(t));
    }

    #[test]
    fn nested_writers_keep_gate_closed() {
        let g = OptimisticGate::new();
        g.writer_enter();
        g.writer_enter();
        g.writer_exit();
        assert!(g.begin_read().is_none(), "one writer still inside");
        g.writer_exit();
        assert!(g.begin_read().is_some());
        assert_eq!(g.generation(), 2);
    }

    #[test]
    fn concurrent_torn_reads_never_validate() {
        // A writer flips two words between valid states (a, a) and
        // (b, b); readers snapshot both words and must never validate a
        // torn (a, b) pair.
        let g = Arc::new(OptimisticGate::new());
        let w0 = Arc::new(AtomicU64::new(0));
        let w1 = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        let writer = {
            let (g, w0, w1, stop) = (g.clone(), w0.clone(), w1.clone(), stop.clone());
            std::thread::spawn(move || {
                for i in 1..=20_000u64 {
                    g.writer_enter();
                    w0.store(i, Ordering::Release);
                    std::hint::spin_loop();
                    w1.store(i, Ordering::Release);
                    g.writer_exit();
                    if i % 64 == 0 {
                        // Open writer-free windows even on one core.
                        std::thread::yield_now();
                    }
                }
                stop.store(true, Ordering::Relaxed);
            })
        };
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (g, w0, w1, stop) = (g.clone(), w0.clone(), w1.clone(), stop.clone());
                std::thread::spawn(move || {
                    let mut validated = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let Some(t) = g.begin_read() else { continue };
                        let a = w0.load(Ordering::Acquire);
                        let b = w1.load(Ordering::Acquire);
                        if g.validate(t) {
                            assert_eq!(a, b, "validated a torn read");
                            validated += 1;
                        }
                    }
                    validated
                })
            })
            .collect();
        writer.join().unwrap();
        let _concurrent_hits: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        // Concurrent validations are scheduler-dependent (a single-core
        // box can starve the readers entirely); what must always hold is
        // that the gate reopens once the writer retires.
        let t = g.begin_read().expect("gate stuck closed after writer");
        assert_eq!(w0.load(Ordering::Acquire), w1.load(Ordering::Acquire));
        assert!(g.validate(t));
        assert_eq!(g.generation(), 20_000);
    }
}
