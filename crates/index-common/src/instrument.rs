//! Op-latency instrumentation at the [`PersistentIndex`] layer.
//!
//! [`Instrumented`] wraps *any* index — RNTree, a baseline, a
//! `ShardedIndex`, an `Arc<dyn PersistentIndex>` — and records each
//! operation's wall-clock latency into a shared `obs::OpHistograms`
//! through the zero-cost-when-disabled `obs::Recorder` handle. Every
//! tree gets per-op p50/p90/p99/p999 for free; no tree contains any
//! timing code of its own. What an op *did* (persists, HTM attempts,
//! cache hits) is not recorded here: those are the owning layers'
//! whole-run counters, read per op as a delta over a run.

use std::sync::Arc;

use obs::{ObsSource, OpClass, OpHistograms, OpType, Recorder, Section};

use crate::{AnyKey, Key, KeyBuf, KeyRef, OpError, PersistentIndex, TreeStats, Value, WriteOp};

/// A [`PersistentIndex`] wrapper that records per-op latency.
///
/// With a disabled recorder (the default construction) every operation
/// pays one branch on a `None`; with an enabled recorder, sampled
/// operations (default 1-in-8 per thread, counted independently per
/// [`OpClass`]) pay two `Instant::now()` calls and two relaxed
/// `fetch_add`s.
pub struct Instrumented<T> {
    inner: T,
    rec: Recorder,
}

impl<T: PersistentIndex> Instrumented<T> {
    /// Wraps `inner` with an explicit recorder.
    pub fn new(inner: T, rec: Recorder) -> Instrumented<T> {
        Instrumented { inner, rec }
    }

    /// Wraps `inner` with a fresh histogram set and returns both; the
    /// caller keeps the histograms for snapshotting/registration.
    pub fn with_histograms(inner: T) -> (Instrumented<T>, Arc<OpHistograms>) {
        let hists = Arc::new(OpHistograms::new());
        (
            Instrumented { inner, rec: Recorder::new(Arc::clone(&hists)) },
            hists,
        )
    }

    /// The wrapped index.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The recorder handle.
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    #[inline]
    fn timed<R>(&self, op: OpType, f: impl FnOnce(&T) -> R) -> R {
        match self.rec.start_op(op) {
            Some(t0) => {
                let r = f(&self.inner);
                self.rec.finish(op, t0);
                r
            }
            None => f(&self.inner),
        }
    }
}

/// The latency class a point write records under.
fn op_type(op: WriteOp) -> OpType {
    match op {
        WriteOp::Insert => OpType::Insert,
        WriteOp::Update => OpType::Update,
        WriteOp::Upsert => OpType::Upsert,
        WriteOp::Remove => OpType::Remove,
    }
}

impl<T: PersistentIndex> PersistentIndex for Instrumented<T> {
    fn apply(&self, key: AnyKey<'_>, value: Value, op: WriteOp) -> Result<(), OpError> {
        self.timed(op_type(op), |t| t.apply(key, value, op))
    }

    fn get(&self, key: AnyKey<'_>) -> Option<Value> {
        self.timed(OpType::Search, |t| t.get(key))
    }

    fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        self.timed(OpType::Scan, |t| t.scan_n(start, n, out))
    }

    fn scan_k(&self, start: KeyRef<'_>, n: usize, out: &mut Vec<(KeyBuf, Value)>) -> usize {
        self.timed(OpType::Scan, |t| t.scan_k(start, n, out))
    }

    fn load_sorted(&self, pairs: &[(Key, Value)]) -> Result<(), OpError> {
        self.timed(OpType::LoadSorted, |t| t.load_sorted(pairs))
    }

    fn load_sorted_k(&self, pairs: &[(KeyBuf, Value)]) -> Result<(), OpError> {
        self.timed(OpType::LoadSorted, |t| t.load_sorted_k(pairs))
    }

    fn write_batch(&self, batch: &mut [(Key, Value, WriteOp)]) -> Vec<Result<(), OpError>> {
        self.timed(OpType::InsertBatch, |t| t.write_batch(batch))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn supports_concurrency(&self) -> bool {
        self.inner.supports_concurrency()
    }

    fn stats(&self) -> TreeStats {
        self.inner.stats()
    }

    fn htm_abort_ratio(&self) -> Option<f64> {
        self.inner.htm_abort_ratio()
    }
}

impl<T: PersistentIndex> ObsSource for Instrumented<T> {
    /// An `ops` section (per-op latency distributions, when the
    /// recorder is enabled) with its `ops_class` rollup (read / update /
    /// insert / remove / scan / batch), plus a `tree` counter section
    /// from the wrapped index.
    fn obs_sections(&self) -> Vec<(String, Section)> {
        let mut out = Vec::new();
        if let Some(hists) = self.rec.histograms() {
            let lat = OpType::ALL
                .iter()
                .map(|&op| (op.name().to_string(), hists.snapshot(op)))
                .collect();
            out.push(("ops".to_string(), Section::Latencies(lat)));
            let by_class = OpClass::ALL
                .iter()
                .map(|&c| (c.name().to_string(), hists.snapshot_class(c)))
                .collect();
            out.push(("ops_class".to_string(), Section::Latencies(by_class)));
        }
        out.push(("tree".to_string(), Section::Counters(self.inner.stats().counters())));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::MemIndex;

    #[test]
    fn records_per_op_latencies() {
        let (idx, hists) = Instrumented::with_histograms(MemIndex::new());
        hists.set_sample_shift(0); // record every op
        for k in 0..50 {
            idx.insert(k, k).unwrap();
        }
        for k in 0..50 {
            assert_eq!(idx.find(k), Some(k));
        }
        idx.remove(7).unwrap();
        assert_eq!(hists.snapshot(OpType::Insert).count(), 50);
        assert_eq!(hists.snapshot(OpType::Search).count(), 50);
        assert_eq!(hists.snapshot(OpType::Remove).count(), 1);
        assert_eq!(hists.snapshot(OpType::Update).count(), 0);
        assert_eq!(idx.stats().entries, 49);
    }

    #[test]
    fn disabled_recorder_records_nothing_and_forwards() {
        let idx = Instrumented::new(MemIndex::new(), Recorder::disabled());
        idx.insert(1, 2).unwrap();
        assert_eq!(idx.find(1), Some(2));
        assert_eq!(idx.name(), "Mem");
        // Only the tree section appears when latency recording is off.
        let sections = idx.obs_sections();
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0].0, "tree");
    }

    #[test]
    fn class_rollup_section_mirrors_the_op_mix() {
        let (idx, hists) = Instrumented::with_histograms(MemIndex::new());
        hists.set_sample_shift(0);
        for k in 0..10 {
            idx.insert(k, k).unwrap();
        }
        idx.upsert(3, 4).unwrap();
        idx.update(3, 5).unwrap();
        let sections = idx.obs_sections();
        let (_, by_class) = sections
            .iter()
            .find(|(n, _)| n == "ops_class")
            .expect("ops_class present when recording");
        let Section::Latencies(items) = by_class else {
            panic!("ops_class must be a latency section")
        };
        let count_of = |name: &str| {
            items.iter().find(|(n, _)| n == name).map(|(_, h)| h.count()).unwrap()
        };
        assert_eq!(count_of("insert"), 10);
        // upsert and update both roll up into the update class.
        assert_eq!(count_of("update"), 2);
        assert_eq!(count_of("read"), 0);
    }

    #[test]
    fn wraps_shared_handles_via_the_arc_impl() {
        let shared: Arc<dyn PersistentIndex> = Arc::new(MemIndex::new());
        let (idx, hists) = Instrumented::with_histograms(shared);
        hists.set_sample_shift(0);
        idx.upsert(9, 9).unwrap();
        assert_eq!(hists.snapshot(OpType::Upsert).count(), 1);
    }
}
