//! Crash-forensics event ring: a fixed-capacity, lock-free log of rare
//! but diagnostic events (splits, journal rollbacks, crash injections,
//! recovery steps, pool exhaustion).
//!
//! Recording claims a slot with one `fetch_add` on the recording
//! thread's stripe — no locks, no allocation — so it is safe from any
//! path including HTM fallback sections. Each stripe is a small
//! independent ring (newest events win), and a global sequence counter
//! totally orders events across stripes so a dump reads as one
//! timeline. Dumps are taken from quiescent code (after a simulated
//! crash, or at report time); a torn in-flight slot can at worst drop
//! or garble that single event, never the ring.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

use crate::json::{Json, ToJson};

/// What happened. The two `u64` payload words (`a`, `b`) are
/// per-kind; their meaning is documented on each variant and named in
/// the JSON dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum EventKind {
    /// A leaf split: `a` = old leaf offset, `b` = new leaf offset.
    Split = 1,
    /// An in-place leaf compaction: `a` = leaf offset, `b` = live keys.
    Compaction = 2,
    /// Undo-journal rollback applied during recovery: `a` = restored
    /// leaf offset, `b` = journal slot.
    JournalRollback = 3,
    /// An allocation failed because the pool is full: `a` = pool
    /// bytes, `b` = block size requested.
    PoolExhausted = 4,
    /// `simulate_crash` was invoked: `a` = crash count after this one,
    /// `b` = 0.
    CrashInjection = 5,
    /// An armed persist trap fired (injected crash point): `a` =
    /// persists completed before the trap, `b` = 0.
    TrapFired = 6,
    /// Recovery: journal scan finished: `a` = leaves rolled back,
    /// `b` = 0.
    RecoveryJournal = 7,
    /// Recovery: persistent leaf chain rebuilt: `a` = leaves walked,
    /// `b` = live entries counted.
    RecoveryLeafChain = 8,
    /// Recovery: allocator free-list rebuilt: `a` = blocks in use,
    /// `b` = 0.
    RecoveryAlloc = 9,
    /// DRAM page cache invalidated cached copies after a structure
    /// modification: `a` = node tag (0 for a full flush), `b` = frames
    /// dropped.
    CacheInvalidate = 12,
    /// Recovery: volatile inner index rebuilt: `a` = leaves indexed,
    /// `b` = 0.
    RecoveryIndex = 10,
}

impl EventKind {
    /// Stable lower-case name used in JSON dumps and Prometheus labels.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Split => "split",
            EventKind::Compaction => "compaction",
            EventKind::JournalRollback => "journal_rollback",
            EventKind::PoolExhausted => "pool_exhausted",
            EventKind::CrashInjection => "crash_injection",
            EventKind::TrapFired => "trap_fired",
            EventKind::RecoveryJournal => "recovery_journal",
            EventKind::RecoveryLeafChain => "recovery_leaf_chain",
            EventKind::RecoveryAlloc => "recovery_alloc",
            EventKind::RecoveryIndex => "recovery_index",
            EventKind::CacheInvalidate => "cache_invalidate",
        }
    }

    fn from_code(code: u64) -> Option<EventKind> {
        Some(match code {
            1 => EventKind::Split,
            2 => EventKind::Compaction,
            3 => EventKind::JournalRollback,
            4 => EventKind::PoolExhausted,
            5 => EventKind::CrashInjection,
            6 => EventKind::TrapFired,
            7 => EventKind::RecoveryJournal,
            8 => EventKind::RecoveryLeafChain,
            9 => EventKind::RecoveryAlloc,
            10 => EventKind::RecoveryIndex,
            12 => EventKind::CacheInvalidate,
            _ => None?,
        })
    }
}

/// One dumped event, in global record order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (total order across threads).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (meaning per [`EventKind`]).
    pub a: u64,
    /// Second payload word (meaning per [`EventKind`]).
    pub b: u64,
}

impl ToJson for Event {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("seq", Json::U64(self.seq));
        o.set("kind", Json::Str(self.kind.name().to_string()));
        o.set("a", Json::U64(self.a));
        o.set("b", Json::U64(self.b));
        o
    }
}

/// Slots per stripe. Eight stripes × 128 slots keep the newest ≈1k
/// events — far more than any crash/recovery cycle produces.
const SLOTS_PER_STRIPE: usize = 128;
const EVENT_STRIPES: usize = 8;

#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    kind: AtomicU64, // 0 = empty
    a: AtomicU64,
    b: AtomicU64,
}

#[repr(align(64))]
struct EventStripe {
    slots: Box<[Slot]>,
    head: AtomicUsize,
}

/// The fixed-capacity per-thread event ring. One lives in each
/// `PmemPool`, so the forensics timeline survives tree teardown and
/// re-creation across crash/recover cycles.
pub struct EventRing {
    stripes: Box<[EventStripe]>,
    seq: AtomicU64,
}

impl Default for EventRing {
    fn default() -> Self {
        Self::new()
    }
}

/// The calling thread's stripe (same round-robin scheme as the
/// histogram stripes, but assigned independently).
#[cfg_attr(not(feature = "record"), allow(dead_code))]
#[inline]
fn my_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Relaxed) % EVENT_STRIPES;
    }
    STRIPE.with(|s| *s)
}

impl EventRing {
    /// Empty ring.
    pub fn new() -> EventRing {
        EventRing {
            stripes: (0..EVENT_STRIPES)
                .map(|_| EventStripe {
                    slots: (0..SLOTS_PER_STRIPE).map(|_| Slot::default()).collect(),
                    head: AtomicUsize::new(0),
                })
                .collect(),
            seq: AtomicU64::new(0),
        }
    }

    /// Records one event on the calling thread's stripe, overwriting
    /// the oldest if the stripe is full. Lock-free; compiled to nothing
    /// without the `record` feature.
    #[inline]
    pub fn record(&self, kind: EventKind, a: u64, b: u64) {
        #[cfg(feature = "record")]
        {
            let seq = self.seq.fetch_add(1, Relaxed);
            let stripe = &self.stripes[my_stripe()];
            let idx = stripe.head.fetch_add(1, Relaxed) % SLOTS_PER_STRIPE;
            let slot = &stripe.slots[idx];
            slot.kind.store(0, Relaxed); // mark torn while rewriting
            slot.seq.store(seq, Relaxed);
            slot.a.store(a, Relaxed);
            slot.b.store(b, Relaxed);
            slot.kind.store(kind as u64, Relaxed);
        }
        #[cfg(not(feature = "record"))]
        let _ = (kind, a, b);
    }

    /// Total events ever recorded (including any that have been
    /// overwritten).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Relaxed)
    }

    /// Events lost to ring wrap: each stripe overwrites its oldest slot
    /// once its head passes the stripe capacity, so the loss is the sum
    /// of every stripe's overshoot. A non-zero value means the dump is
    /// a suffix of the true timeline, not the whole of it.
    pub fn dropped(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.head.load(Relaxed).saturating_sub(SLOTS_PER_STRIPE) as u64)
            .sum()
    }

    /// Dumps the surviving events, oldest first. Call from quiescent
    /// code (post-crash, report time); events recorded concurrently
    /// with the dump may be missed.
    pub fn dump(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for stripe in self.stripes.iter() {
            for slot in stripe.slots.iter() {
                let code = slot.kind.load(Relaxed);
                if let Some(kind) = EventKind::from_code(code) {
                    out.push(Event {
                        seq: slot.seq.load(Relaxed),
                        kind,
                        a: slot.a.load(Relaxed),
                        b: slot.b.load(Relaxed),
                    });
                }
            }
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Clears every stripe. Quiescent-use only, like [`EventRing::dump`].
    pub fn clear(&self) {
        for stripe in self.stripes.iter() {
            for slot in stripe.slots.iter() {
                slot.kind.store(0, Relaxed);
            }
            stripe.head.store(0, Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "record")]
    use std::sync::Arc;

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn records_and_dumps_in_order() {
        let ring = EventRing::new();
        ring.record(EventKind::Split, 10, 20);
        ring.record(EventKind::CrashInjection, 1, 0);
        ring.record(EventKind::RecoveryJournal, 2, 0);
        let dump = ring.dump();
        assert_eq!(dump.len(), 3);
        assert_eq!(dump[0].kind, EventKind::Split);
        assert_eq!(dump[0].a, 10);
        assert_eq!(dump[2].kind, EventKind::RecoveryJournal);
        assert!(dump.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn overflow_keeps_the_newest() {
        let ring = EventRing::new();
        // Single thread → single stripe → capacity SLOTS_PER_STRIPE.
        for i in 0..(SLOTS_PER_STRIPE as u64 + 50) {
            ring.record(EventKind::Compaction, i, 0);
        }
        let dump = ring.dump();
        assert_eq!(dump.len(), SLOTS_PER_STRIPE);
        assert_eq!(dump.last().unwrap().a, SLOTS_PER_STRIPE as u64 + 49);
        assert_eq!(ring.recorded(), SLOTS_PER_STRIPE as u64 + 50);
        assert_eq!(ring.dropped(), 50, "overwrites are visible as drops");
    }

    #[test]
    fn empty_ring_reports_no_drops() {
        let ring = EventRing::new();
        assert_eq!(ring.dropped(), 0);
        #[cfg(feature = "record")]
        {
            ring.record(EventKind::Split, 1, 2);
            assert_eq!(ring.dropped(), 0, "no drops until a stripe wraps");
        }
    }

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn concurrent_recording_is_safe_and_ordered() {
        let ring = Arc::new(EventRing::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        ring.record(EventKind::Split, t, i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let dump = ring.dump();
        assert!(!dump.is_empty());
        assert!(dump.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(ring.recorded(), 4000);
    }
}
