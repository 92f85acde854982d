//! Tracing shims: `PersistentIndex` wrappers the benchmark interposes
//! between the stack's layers, so each layer's self time is measured from
//! outside the program.
//!
//! A [`Shim`] times every call into the index it wraps. Per thread, a
//! stack of open spans collects the time of nested shim calls, so a
//! layer's self time is its call's duration minus the calls it made into
//! the layers below on the same thread. [`op_span`] opens the client's
//! span around one operation and returns the per-layer self times the
//! operation accumulated. Work a layer hands to another thread (a
//! group-commit leader running a follower's op) is charged to the thread
//! that ran it: the follower sees it as combine self time (waiting), the
//! leader as sharded and tree time inside its own call.

use std::cell::RefCell;
use std::time::Instant;

use index_common::{Key, OpError, PersistentIndex, TreeStats, Value, WriteOp};

/// A shimmed layer of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `GroupCommit` (index-common::combine).
    Combine = 0,
    /// `ShardedIndex` (index-common::sharded).
    Sharded = 1,
    /// One `RnTree` shard (rntree, with its inner index, cache and HTM).
    RnTree = 2,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 3;

#[derive(Default)]
struct Spans {
    /// Per open span, the time its nested shim calls took so far.
    open: Vec<u64>,
    /// Self time per layer since the current [`op_span`] began.
    self_ns: [u64; LAYERS],
}

thread_local! {
    static SPANS: RefCell<Spans> = RefCell::new(Spans::default());
}

fn enter() {
    SPANS.with(|s| s.borrow_mut().open.push(0));
}

/// Closes the innermost span, which lasted `ns`; returns its self time.
fn exit(layer: Option<Layer>, ns: u64) -> u64 {
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        let own = ns.saturating_sub(s.open.pop().unwrap_or(0));
        if let Some(l) = layer {
            s.self_ns[l as usize] += own;
        }
        if let Some(parent) = s.open.last_mut() {
            *parent += ns;
        }
        own
    })
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The client's span of one operation, split by layer. By construction
/// `client_ns + self_ns.iter().sum() == outer_ns`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpSpan {
    /// The whole call, as the client saw it.
    pub outer_ns: u64,
    /// Outer time not inside any shim: the call dispatch and span
    /// bookkeeping itself.
    pub client_ns: u64,
    /// Self time per [`Layer`].
    pub self_ns: [u64; LAYERS],
}

/// Runs one client operation inside a span and returns its breakdown.
pub fn op_span<R>(f: impl FnOnce() -> R) -> (R, OpSpan) {
    SPANS.with(|s| s.borrow_mut().self_ns = [0; LAYERS]);
    enter();
    let t0 = Instant::now();
    let r = f();
    let outer_ns = elapsed_ns(t0);
    let client_ns = exit(None, outer_ns);
    let self_ns = SPANS.with(|s| s.borrow().self_ns);
    (
        r,
        OpSpan {
            outer_ns,
            client_ns,
            self_ns,
        },
    )
}

/// A timing wrapper around one layer.
pub struct Shim<T> {
    inner: T,
    layer: Layer,
}

impl<T> Shim<T> {
    /// Wraps `inner`, charging its calls to `layer`.
    pub fn new(layer: Layer, inner: T) -> Shim<T> {
        Shim { inner, layer }
    }

    /// The wrapped layer.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    #[inline]
    fn span<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        enter();
        let t0 = Instant::now();
        let r = f(&self.inner);
        exit(Some(self.layer), elapsed_ns(t0));
        r
    }
}

impl<T: PersistentIndex> PersistentIndex for Shim<T> {
    fn insert(&self, key: Key, value: Value) -> Result<(), OpError> {
        self.span(|i| i.insert(key, value))
    }
    fn update(&self, key: Key, value: Value) -> Result<(), OpError> {
        self.span(|i| i.update(key, value))
    }
    fn upsert(&self, key: Key, value: Value) -> Result<(), OpError> {
        self.span(|i| i.upsert(key, value))
    }
    fn remove(&self, key: Key) -> Result<(), OpError> {
        self.span(|i| i.remove(key))
    }
    fn find(&self, key: Key) -> Option<Value> {
        self.span(|i| i.find(key))
    }
    fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        self.span(|i| i.scan_n(start, n, out))
    }
    fn load_sorted(&self, pairs: &[(Key, Value)]) -> Result<(), OpError> {
        self.span(|i| i.load_sorted(pairs))
    }
    fn insert_batch(&self, batch: &mut [(Key, Value)]) -> Vec<Result<(), OpError>> {
        self.span(|i| i.insert_batch(batch))
    }
    fn write_batch(&self, batch: &mut [(Key, Value, WriteOp)]) -> Vec<Result<(), OpError>> {
        self.span(|i| i.write_batch(batch))
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    /// A map index that spends a known time per call.
    struct Slow(Mutex<BTreeMap<Key, Value>>);

    impl PersistentIndex for Slow {
        fn insert(&self, k: Key, v: Value) -> Result<(), OpError> {
            std::thread::sleep(std::time::Duration::from_millis(2));
            self.0.lock().expect("map lock").insert(k, v);
            Ok(())
        }
        fn update(&self, k: Key, v: Value) -> Result<(), OpError> {
            self.insert(k, v)
        }
        fn upsert(&self, k: Key, v: Value) -> Result<(), OpError> {
            self.insert(k, v)
        }
        fn remove(&self, k: Key) -> Result<(), OpError> {
            self.0
                .lock()
                .expect("map lock")
                .remove(&k)
                .map(|_| ())
                .ok_or(OpError::NotFound)
        }
        fn find(&self, k: Key) -> Option<Value> {
            self.0.lock().expect("map lock").get(&k).copied()
        }
        fn scan_n(&self, _: Key, _: usize, out: &mut Vec<(Key, Value)>) -> usize {
            out.clear();
            0
        }
        fn name(&self) -> &'static str {
            "Slow"
        }
        fn stats(&self) -> TreeStats {
            TreeStats::default()
        }
    }

    #[test]
    fn nested_shims_split_the_outer_span_exactly() {
        let stack = Shim::new(
            Layer::Combine,
            Shim::new(Layer::RnTree, Slow(Mutex::default())),
        );
        let (r, span) = op_span(|| stack.insert(1, 10));
        assert_eq!(r, Ok(()));
        assert_eq!(
            span.client_ns + span.self_ns.iter().sum::<u64>(),
            span.outer_ns
        );
        assert!(
            span.self_ns[Layer::RnTree as usize] >= 2_000_000,
            "{span:?}"
        );
        assert!(
            span.self_ns[Layer::Combine as usize] < 1_000_000,
            "{span:?}"
        );
        assert_eq!(span.self_ns[Layer::Sharded as usize], 0);
        // The next span starts from zero.
        let (v, span) = op_span(|| stack.find(1));
        assert_eq!(v, Some(10));
        assert!(span.self_ns[Layer::RnTree as usize] < 2_000_000, "{span:?}");
    }
}
