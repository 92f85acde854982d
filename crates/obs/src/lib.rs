//! # obs — the unified observability layer
//!
//! One dependency-free crate every layer of the workspace can lean on
//! for metrics, so explaining performance (the heart of the paper's
//! evaluation) needs no bespoke plumbing per component:
//!
//! - [`hist`] — log-bucketed latency histograms: a plain per-thread
//!   [`Histogram`] and a lock-free striped [`AtomicHistogram`]
//!   (p50/p90/p99/p999, no allocation on the record path).
//! - [`ops`] — per-operation recording at the `PersistentIndex` layer
//!   via the zero-cost-when-disabled [`Recorder`] handle, and the
//!   in-tree [`PhaseTimers`] matching the paper's latency-breakdown
//!   figure (descent / leaf critical section / log flush / slot
//!   persist).
//! - [`events`] — a fixed-capacity per-thread [`EventRing`] for crash
//!   forensics (splits, journal rollbacks, crash injections, recovery
//!   steps, pool exhaustion).
//! - [`heat`] — a lock-free striped top-K [`HeatSketch`]
//!   (space-saving style) attributing contention to *structures*: which
//!   leaves abort, split and morph, which cache sets thrash.
//! - [`trace`] — the always-on per-thread HTM section marks
//!   ([`section_mark`]) that feed leaf-conflict heat: abort/fallback
//!   counters the htm domain bumps, read as a delta around a leaf's
//!   critical section.
//! - [`timeline`] — windowed percentile-over-time series
//!   ([`Timeline`]): periodic cumulative snapshots are diffed into
//!   per-window p50/p99 + throughput, so benches can show *when* a run
//!   degraded, not just that it did.
//! - [`registry`] — the [`ObsSource`] trait plus [`ObsRegistry`],
//!   whose [`ObsRegistry::snapshot`] renders to JSON and Prometheus
//!   text exposition.
//! - [`json`] — the in-repo stand-in for `serde`: a [`Json`] value
//!   tree, the [`ToJson`] trait, a renderer, and a strict parser used
//!   by CI to validate emitted reports (the workspace builds offline,
//!   so external serialisation crates are unavailable).
//!
//! ## Cost model
//!
//! Disabled (the default everywhere) the record paths cost one relaxed
//! load or a branch on a `None`. Enabled, timestamps are sampled
//! (default 1 op in 8) and each sample is two relaxed `fetch_add`s on a
//! per-thread stripe. Per-op costs (persists, HTM attempts and aborts,
//! cache hits) are never traced op by op: they are whole-run counters
//! in the layers that own them, and a per-op view is their delta over a
//! run divided by the ops it ran. Building the workspace with this
//! crate's `record` feature off (`--no-default-features`) compiles
//! every record path to nothing.

#![deny(missing_docs)]

pub mod events;
pub mod heat;
pub mod hist;
pub mod json;
pub mod ops;
pub mod registry;
pub mod timeline;
pub mod trace;

pub use events::{Event, EventKind, EventRing};
pub use heat::{HeatEntry, HeatSketch};
pub use hist::{AtomicHistogram, Histogram, Quantiles};
pub use json::{parse, Json, ToJson};
pub use ops::{
    OpClass, OpHistograms, OpType, Phase, PhaseClock, PhaseTimers, Recorder, N_CLASSES, N_OPS,
    N_PHASES,
};
pub use registry::{ObsGroup, ObsRegistry, ObsSnapshot, ObsSource, Section};
pub use timeline::{Timeline, TimelineWindow};
pub use trace::{
    bump_section_aborts, bump_section_fallbacks, section_mark, SectionDelta, SectionMark,
};
