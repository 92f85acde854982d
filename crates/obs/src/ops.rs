//! Per-operation latency recording ([`OpHistograms`] + the
//! [`Recorder`] handle the index wrapper holds) and the in-tree phase
//! breakdown timers ([`PhaseTimers`] + [`PhaseClock`]).
//!
//! Both are built on the striped [`AtomicHistogram`] and share the same
//! cost model: one relaxed load when disabled, and — to hold the
//! enabled-overhead budget (≤3% of a microsecond-scale op) — timestamps
//! are *sampled* (default 1 op in 8, per thread) rather than taken on
//! every operation. Sampling changes none of the reported quantiles on
//! stationary workloads; the sample counts are exported as-is and
//! labelled as samples.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use crate::hist::{AtomicHistogram, Histogram};

/// Default sampling shift: record 1 op in 2^3 = 8.
pub const DEFAULT_SAMPLE_SHIFT: u32 = 3;

/// Rolls the calling thread's sampling counter: true every 2^shift-th
/// call (shift 0 = always).
#[cfg_attr(not(feature = "record"), allow(dead_code))]
#[inline]
fn sampled(shift: u32) -> bool {
    if shift == 0 {
        return true;
    }
    thread_local! {
        static CTR: Cell<u64> = const { Cell::new(0) };
    }
    CTR.with(|c| {
        let v = c.get().wrapping_add(1);
        c.set(v);
        v & ((1u64 << shift) - 1) == 0
    })
}

/// The operation types recorded at the `PersistentIndex` layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpType {
    /// `insert`.
    Insert = 0,
    /// `update`.
    Update = 1,
    /// `upsert`.
    Upsert = 2,
    /// `remove`.
    Remove = 3,
    /// `find`.
    Search = 4,
    /// `scan_n`.
    Scan = 5,
    /// `insert_batch` (one sample per batch, not per key).
    InsertBatch = 6,
    /// `load_sorted` (one sample per load).
    LoadSorted = 7,
}

/// Number of [`OpType`] variants.
pub const N_OPS: usize = 8;

impl OpType {
    /// Every op type, in export order.
    pub const ALL: [OpType; N_OPS] = [
        OpType::Insert,
        OpType::Update,
        OpType::Upsert,
        OpType::Remove,
        OpType::Search,
        OpType::Scan,
        OpType::InsertBatch,
        OpType::LoadSorted,
    ];

    /// Stable lower-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            OpType::Insert => "insert",
            OpType::Update => "update",
            OpType::Upsert => "upsert",
            OpType::Remove => "remove",
            OpType::Search => "search",
            OpType::Scan => "scan",
            OpType::InsertBatch => "insert_batch",
            OpType::LoadSorted => "load_sorted",
        }
    }
}

/// Coarse operation classes for per-class recording and rollups: the
/// per-txn-type histogram foundation (read / update / insert / remove /
/// scan / batch). Each [`OpType`] maps onto exactly one class via
/// [`OpType::class`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Point lookups (`find`).
    Read = 0,
    /// In-place writes (`update`, `upsert`).
    Update = 1,
    /// Key-creating writes (`insert`).
    Insert = 2,
    /// Deletions (`remove`).
    Remove = 3,
    /// Range reads (`scan_n`).
    Scan = 4,
    /// Multi-key operations (`insert_batch`, `load_sorted`).
    Batch = 5,
}

/// Number of [`OpClass`] variants.
pub const N_CLASSES: usize = 6;

impl OpClass {
    /// Every class, in export order.
    pub const ALL: [OpClass; N_CLASSES] = [
        OpClass::Read,
        OpClass::Update,
        OpClass::Insert,
        OpClass::Remove,
        OpClass::Scan,
        OpClass::Batch,
    ];

    /// Stable lower-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Read => "read",
            OpClass::Update => "update",
            OpClass::Insert => "insert",
            OpClass::Remove => "remove",
            OpClass::Scan => "scan",
            OpClass::Batch => "batch",
        }
    }
}

impl OpType {
    /// The coarse class this op type rolls up into.
    pub fn class(self) -> OpClass {
        match self {
            OpType::Search => OpClass::Read,
            OpType::Update | OpType::Upsert => OpClass::Update,
            OpType::Insert => OpClass::Insert,
            OpType::Remove => OpClass::Remove,
            OpType::Scan => OpClass::Scan,
            OpType::InsertBatch | OpType::LoadSorted => OpClass::Batch,
        }
    }
}

/// Per-class sampling counters: each class rolls its own 1-in-2^shift
/// stream, so a read-dominated workload can no longer starve the write
/// classes of latency samples (with one shared counter, whichever class
/// happens to land on the counter's multiples wins all the samples).
#[cfg_attr(not(feature = "record"), allow(dead_code))]
#[inline]
fn sampled_class(class: OpClass, shift: u32) -> bool {
    if shift == 0 {
        return true;
    }
    thread_local! {
        static CTRS: [Cell<u64>; N_CLASSES] = const { [const { Cell::new(0) }; N_CLASSES] };
    }
    CTRS.with(|c| {
        let cell = &c[class as usize];
        let v = cell.get().wrapping_add(1);
        cell.set(v);
        v & ((1u64 << shift) - 1) == 0
    })
}

/// One latency histogram per operation type, shared across threads.
pub struct OpHistograms {
    hists: [AtomicHistogram; N_OPS],
    sample_shift: AtomicU32,
}

impl Default for OpHistograms {
    fn default() -> Self {
        Self::new()
    }
}

impl OpHistograms {
    /// Empty histograms with the default 1-in-8 sampling.
    pub fn new() -> OpHistograms {
        OpHistograms {
            hists: std::array::from_fn(|_| AtomicHistogram::new()),
            sample_shift: AtomicU32::new(DEFAULT_SAMPLE_SHIFT),
        }
    }

    /// Sets the sampling rate to 1 op in 2^shift (0 = every op).
    pub fn set_sample_shift(&self, shift: u32) {
        self.sample_shift.store(shift.min(32), Relaxed);
    }

    /// Current sampling shift.
    pub fn sample_shift(&self) -> u32 {
        self.sample_shift.load(Relaxed)
    }

    /// Records one sample for `op` unconditionally (tests and
    /// pre-timed paths).
    #[inline]
    pub fn record(&self, op: OpType, ns: u64) {
        self.hists[op as usize].record(ns);
    }

    /// Snapshot of one op's histogram.
    pub fn snapshot(&self, op: OpType) -> Histogram {
        self.hists[op as usize].snapshot()
    }

    /// Merged snapshot of every op histogram rolling up into `class`.
    pub fn snapshot_class(&self, class: OpClass) -> Histogram {
        let mut h = Histogram::new();
        for op in OpType::ALL {
            if op.class() == class {
                h.merge(&self.snapshot(op));
            }
        }
        h
    }

    /// Clears every histogram (quiescent use).
    pub fn reset(&self) {
        for h in &self.hists {
            h.reset();
        }
    }
}

/// The zero-cost-when-disabled handle the instrumented index layer
/// holds. Disabled ([`Recorder::disabled`], the default) it carries no
/// histogram set and every call is a single branch on a `None`;
/// enabled, it samples timestamps into the shared [`OpHistograms`].
#[derive(Clone, Default)]
pub struct Recorder {
    hists: Option<Arc<OpHistograms>>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn disabled() -> Recorder {
        Recorder { hists: None }
    }

    /// A recorder feeding `hists`.
    pub fn new(hists: Arc<OpHistograms>) -> Recorder {
        Recorder { hists: Some(hists) }
    }

    /// Whether this recorder ever records.
    pub fn is_enabled(&self) -> bool {
        self.hists.is_some()
    }

    /// The shared histogram set, if enabled.
    pub fn histograms(&self) -> Option<&Arc<OpHistograms>> {
        self.hists.as_ref()
    }

    /// Starts timing one operation. `None` when disabled, not sampled
    /// this time, or compiled out — the caller skips `finish` for free.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        #[cfg(feature = "record")]
        {
            match &self.hists {
                Some(h) if sampled(h.sample_shift.load(Relaxed)) => Some(Instant::now()),
                _ => None,
            }
        }
        #[cfg(not(feature = "record"))]
        None
    }

    /// Starts timing one operation with *per-class* sampling: the class
    /// of `op` rolls its own 1-in-2^shift counter, so a read-dominated
    /// mix still yields latency samples for the rare write classes.
    /// `None` when disabled, not sampled this time, or compiled out.
    #[inline]
    pub fn start_op(&self, op: OpType) -> Option<Instant> {
        #[cfg(feature = "record")]
        {
            match &self.hists {
                Some(h) if sampled_class(op.class(), h.sample_shift.load(Relaxed)) => {
                    Some(Instant::now())
                }
                _ => None,
            }
        }
        #[cfg(not(feature = "record"))]
        {
            let _ = op;
            None
        }
    }

    /// Completes a timing started by [`Recorder::start`].
    #[inline]
    pub fn finish(&self, op: OpType, t0: Instant) {
        if let Some(h) = &self.hists {
            h.record(op, saturating_ns(t0.elapsed()));
        }
    }
}

#[inline]
fn saturating_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The four phases of a modify operation, matching the paper's
/// latency-breakdown figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Inner-index descent to the target leaf.
    Descent = 0,
    /// Lock acquisition → release on the leaf (inclusive of the nested
    /// log-drain/slot-persist spans; the report subtracts them).
    LeafCs = 1,
    /// Persisting the KV log entry (sync persist, or the drain fence of
    /// the async flush).
    LogFlush = 2,
    /// Persisting the slot-array line.
    SlotPersist = 3,
}

/// Number of [`Phase`] variants.
pub const N_PHASES: usize = 4;

impl Phase {
    /// Every phase, in export order.
    pub const ALL: [Phase; N_PHASES] =
        [Phase::Descent, Phase::LeafCs, Phase::LogFlush, Phase::SlotPersist];

    /// Stable lower-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Descent => "descent",
            Phase::LeafCs => "leaf_cs",
            Phase::LogFlush => "log_flush",
            Phase::SlotPersist => "slot_persist",
        }
    }
}

/// Phase-breakdown timers embedded in the tree. Off by default: the
/// only cost on the modify path is one relaxed load. Enabled, each
/// *sampled* op takes one `Instant` per phase boundary.
pub struct PhaseTimers {
    enabled: AtomicBool,
    sample_shift: AtomicU32,
    hists: [AtomicHistogram; N_PHASES],
}

impl Default for PhaseTimers {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseTimers {
    /// Disabled timers with the default 1-in-8 sampling.
    pub fn new() -> PhaseTimers {
        PhaseTimers {
            enabled: AtomicBool::new(false),
            sample_shift: AtomicU32::new(DEFAULT_SAMPLE_SHIFT),
            hists: std::array::from_fn(|_| AtomicHistogram::new()),
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Sets the sampling rate to 1 op in 2^shift (0 = every op).
    pub fn set_sample_shift(&self, shift: u32) {
        self.sample_shift.store(shift.min(32), Relaxed);
    }

    /// Starts a per-op clock: active only when enabled, compiled in,
    /// and this op wins the sampling roll.
    #[inline]
    pub fn clock(&self) -> PhaseClock {
        #[cfg(feature = "record")]
        {
            if self.enabled.load(Relaxed) && sampled(self.sample_shift.load(Relaxed)) {
                return PhaseClock { t0: Some(Instant::now()) };
            }
        }
        PhaseClock { t0: None }
    }

    /// Records one phase sample directly (tests, pre-timed paths).
    #[inline]
    pub fn record(&self, phase: Phase, ns: u64) {
        self.hists[phase as usize].record(ns);
    }

    /// Snapshot of one phase's histogram.
    pub fn snapshot(&self, phase: Phase) -> Histogram {
        self.hists[phase as usize].snapshot()
    }

    /// Clears every histogram (quiescent use).
    pub fn reset(&self) {
        for h in &self.hists {
            h.reset();
        }
    }
}

/// A per-operation stopwatch handed out by [`PhaseTimers::clock`].
/// Inactive clocks (the common case) make every method a no-op branch.
pub struct PhaseClock {
    t0: Option<Instant>,
}

impl PhaseClock {
    /// Whether this op is being sampled.
    #[inline]
    pub fn active(&self) -> bool {
        self.t0.is_some()
    }

    /// A second clock with the same activity and a fresh start point —
    /// for overlapping spans (the leaf critical section wraps the
    /// nested persists).
    #[inline]
    pub fn fork(&self) -> PhaseClock {
        PhaseClock { t0: self.t0.map(|_| Instant::now()) }
    }

    /// Resets the start point to now without recording.
    #[inline]
    pub fn mark(&mut self) {
        if self.t0.is_some() {
            self.t0 = Some(Instant::now());
        }
    }

    /// Records the span since the last mark/lap as `phase`, and starts
    /// the next span.
    #[inline]
    pub fn lap(&mut self, timers: &PhaseTimers, phase: Phase) {
        if let Some(t0) = self.t0 {
            let now = Instant::now();
            let ns = saturating_ns(now.duration_since(t0));
            timers.record(phase, ns);
            self.t0 = Some(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_never_starts() {
        let r = Recorder::disabled();
        assert!(r.start().is_none());
        assert!(!r.is_enabled());
    }

    #[test]
    #[cfg(not(feature = "record"))] // the compiled-out contract: everything is a no-op
    fn compiled_out_record_paths_are_noops() {
        let t = PhaseTimers::new();
        t.set_enabled(true);
        t.set_sample_shift(0);
        let mut c = t.clock();
        c.lap(&t, Phase::Descent);
        assert_eq!(t.snapshot(Phase::Descent).count(), 0);
        let h = crate::hist::AtomicHistogram::new();
        h.record(5);
        assert_eq!(h.snapshot().count(), 0);
        let ring = crate::events::EventRing::new();
        ring.record(crate::events::EventKind::Split, 1, 2);
        assert!(ring.dump().is_empty());
    }

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn enabled_recorder_samples_and_records() {
        let h = Arc::new(OpHistograms::new());
        h.set_sample_shift(0);
        let r = Recorder::new(Arc::clone(&h));
        for _ in 0..100 {
            let t0 = r.start().expect("shift 0 records every op");
            r.finish(OpType::Insert, t0);
        }
        assert_eq!(h.snapshot(OpType::Insert).count(), 100);
        assert_eq!(h.snapshot(OpType::Remove).count(), 0);
    }

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn sampling_thins_the_stream() {
        let h = Arc::new(OpHistograms::new());
        h.set_sample_shift(3);
        let r = Recorder::new(Arc::clone(&h));
        let mut started = 0;
        for _ in 0..800 {
            if let Some(t0) = r.start() {
                started += 1;
                r.finish(OpType::Search, t0);
            }
        }
        assert_eq!(started, 100, "1-in-8 sampling");
        assert_eq!(h.snapshot(OpType::Search).count(), 100);
    }

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn per_class_sampling_is_independent() {
        let h = Arc::new(OpHistograms::new());
        h.set_sample_shift(3);
        let r = Recorder::new(Arc::clone(&h));
        // 800 searches interleaved with 16 inserts. A single shared
        // counter would give the inserts essentially no samples; the
        // per-class counters must still sample 1-in-8 of each class.
        for i in 0..800 {
            if let Some(t0) = r.start_op(OpType::Search) {
                r.finish(OpType::Search, t0);
            }
            if i % 50 == 0 {
                if let Some(t0) = r.start_op(OpType::Insert) {
                    r.finish(OpType::Insert, t0);
                }
            }
        }
        assert_eq!(h.snapshot(OpType::Search).count(), 100);
        assert_eq!(h.snapshot(OpType::Insert).count(), 2, "16 inserts / 8");
    }

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn class_rollup_merges_member_ops() {
        let h = OpHistograms::new();
        h.record(OpType::Update, 100);
        h.record(OpType::Upsert, 200);
        h.record(OpType::Insert, 300);
        assert_eq!(h.snapshot_class(OpClass::Update).count(), 2);
        assert_eq!(h.snapshot_class(OpClass::Insert).count(), 1);
        assert_eq!(h.snapshot_class(OpClass::Read).count(), 0);
    }

    #[test]
    fn op_classes_partition_the_op_types() {
        for op in OpType::ALL {
            // Every op maps to exactly one class and the mapping is in
            // the ALL table.
            assert!(OpClass::ALL.contains(&op.class()));
        }
        assert_eq!(OpType::Search.class().name(), "read");
        assert_eq!(OpType::LoadSorted.class().name(), "batch");
    }

    #[test]
    fn disabled_phase_clock_is_inert() {
        let t = PhaseTimers::new();
        let mut c = t.clock();
        assert!(!c.active());
        c.mark();
        c.lap(&t, Phase::Descent);
        assert_eq!(t.snapshot(Phase::Descent).count(), 0);
    }

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn phase_clock_records_laps_and_forks() {
        let t = PhaseTimers::new();
        t.set_enabled(true);
        t.set_sample_shift(0);
        let mut c = t.clock();
        assert!(c.active());
        let mut cs = c.fork();
        c.lap(&t, Phase::Descent);
        c.mark();
        c.lap(&t, Phase::SlotPersist);
        cs.lap(&t, Phase::LeafCs);
        assert_eq!(t.snapshot(Phase::Descent).count(), 1);
        assert_eq!(t.snapshot(Phase::SlotPersist).count(), 1);
        assert_eq!(t.snapshot(Phase::LeafCs).count(), 1);
    }
}
