//! Log-bucket latency histograms: a plain single-writer [`Histogram`]
//! (the workload drivers' per-thread accumulator) and a lock-free,
//! striped [`AtomicHistogram`] for shared concurrent recording — plus
//! the striped event [`Counter`] every layer's statistics are built from.
//!
//! Both use the same bucket scheme: 64 power-of-two major buckets × 16
//! linear minor buckets give roughly 6% relative precision over the full
//! `u64` nanosecond range with a fixed 8 KiB footprint per stripe —
//! O(1) recording with no allocation, and cheap merging across threads.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

pub(crate) const MINORS: usize = 16;
pub(crate) const BUCKETS: usize = 64 * MINORS;

/// Number of independently updated stripes in an [`AtomicHistogram`].
/// Threads are spread across stripes round-robin, so concurrent
/// recorders rarely contend on the same cache lines.
pub const STRIPES: usize = 8;

/// Maps a sample to its bucket index. Exact below 16; ~6% relative
/// precision above.
#[inline]
pub(crate) fn bucket(v: u64) -> usize {
    if v < MINORS as u64 {
        return v as usize;
    }
    let major = 63 - v.leading_zeros() as usize;
    let minor = ((v >> (major - 4)) & (MINORS as u64 - 1)) as usize;
    // major ≥ 4 here because v ≥ 16.
    ((major - 3) * MINORS + minor).min(BUCKETS - 1)
}

/// Representative (lower-bound) value of bucket `idx`.
pub(crate) fn bucket_floor(idx: usize) -> u64 {
    if idx < MINORS {
        return idx as u64;
    }
    // Indices above major 63 are unreachable (bucket() clamps there);
    // saturate so the floor stays monotone.
    let major = idx / MINORS + 3;
    if major > 63 {
        return u64::MAX;
    }
    let minor = (idx % MINORS) as u64;
    (1u64 << major) | (minor << (major - 4))
}

/// A mergeable latency histogram over `u64` samples (nanoseconds).
///
/// Single-writer: recording takes `&mut self`. This is the per-thread
/// accumulator used by the workload drivers and the snapshot type
/// produced by [`AtomicHistogram::snapshot`].
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    sum: u128,
    max: u64,
    min: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
        self.min = self.min.min(v);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Value at quantile `q ∈ [0, 1]` (bucket lower bound; 0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(idx);
            }
        }
        self.max
    }

    /// Bucket-wise difference `self − earlier` (saturating), for turning
    /// two cumulative snapshots into the distribution of the samples
    /// recorded *between* them. Min/max of the delta are re-derived from
    /// its occupied buckets (bucket precision, like
    /// [`AtomicHistogram::snapshot`]).
    pub fn minus(&self, earlier: &Histogram) -> Histogram {
        let mut d = Histogram::new();
        for (idx, (a, b)) in self.counts.iter().zip(earlier.counts.iter()).enumerate() {
            let n = a.saturating_sub(*b);
            if n == 0 {
                continue;
            }
            d.counts[idx] = n;
            d.total += n;
            let floor = bucket_floor(idx);
            d.min = d.min.min(floor);
            d.max = d.max.max(floor);
        }
        d.sum = self.sum.saturating_sub(earlier.sum);
        d
    }

    /// Condenses the distribution to the fixed quantile set every export
    /// carries.
    pub fn quantiles(&self) -> Quantiles {
        Quantiles {
            count: self.count(),
            mean: self.mean(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Histogram {{ n: {}, mean: {:.0}, p50: {}, p99: {}, max: {} }}",
            self.total,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max
        )
    }
}

/// The fixed quantile summary exported for every latency distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quantiles {
    /// Number of recorded samples.
    pub count: u64,
    /// Arithmetic mean, nanoseconds.
    pub mean: f64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median (bucket lower bound).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// Per-thread stripe assignment: each thread picks a stripe round-robin
/// on first use and keeps it for life, so recorders on different threads
/// touch different cache lines almost always.
#[inline]
fn my_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// One [`Counter`] stripe, alone on its 128-byte pair of cache lines
/// (the adjacent-line prefetcher moves lines in pairs).
#[repr(align(128))]
#[derive(Default)]
struct CounterStripe(AtomicU64);

/// An exact event counter striped per thread: the statistics word of
/// every layer (persists, HTM attempts, cache hits, …).
///
/// A plain shared `AtomicU64` bumped on every operation makes its cache
/// line bounce between the CPUs of concurrent callers, so bookkeeping
/// alone serializes them. Here [`Counter::add`] is one thread-local read
/// plus one relaxed `fetch_add` on the caller's stripe, a line no other
/// stripe shares, and [`Counter::get`] sums the stripes. The stripes
/// live in one `Box`, so the owning struct stays compact and never
/// shares a line with them.
///
/// Counts are exact and always on: unlike [`AtomicHistogram::record`],
/// `add` is not gated by the `record` feature, because persist counts
/// are a tested contract. Sequential `get`s of a counter only ever
/// grow (between resets), since each stripe does.
pub struct Counter {
    stripes: Box<[CounterStripe; STRIPES]>,
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.get())
    }
}

impl Counter {
    /// A zeroed counter with [`STRIPES`] stripes.
    pub fn new() -> Counter {
        Counter { stripes: Box::default() }
    }

    /// Adds `n` on the calling thread's stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[my_stripe()].0.fetch_add(n, Relaxed);
    }

    /// The total over every stripe.
    pub fn get(&self) -> u64 {
        self.stripes.iter().fold(0, |sum, s| sum.wrapping_add(s.0.load(Relaxed)))
    }

    /// Zeroes every stripe. Concurrent adders may slip counts past a
    /// reset; use from quiescent code.
    pub fn reset(&self) {
        for s in self.stripes.iter() {
            s.0.store(0, Relaxed);
        }
    }
}

#[repr(align(64))]
struct Stripe {
    counts: Box<[AtomicU64; BUCKETS]>,
    /// Wrapping sum of samples (for the mean; wrap takes >500 years of
    /// nanosecond samples).
    sum: AtomicU64,
}

impl Stripe {
    fn new() -> Stripe {
        // Safety-free zero init: AtomicU64 is repr(transparent) over u64,
        // but build it the boring way to stay in safe code.
        let counts: Box<[AtomicU64; BUCKETS]> = (0..BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice()
            .try_into()
            .unwrap_or_else(|_| unreachable!("length is BUCKETS by construction"));
        Stripe { counts, sum: AtomicU64::new(0) }
    }
}

/// A lock-free, mergeable latency histogram shared across threads.
///
/// Recording is two relaxed `fetch_add`s on the caller's stripe — no
/// locks, no allocation, no stores shared with other stripes — so the
/// record path stays O(1) and contention-free at any thread count.
/// Min/max are derived from the occupied buckets at snapshot time
/// (bucket precision, ≈6%), which keeps the hot path minimal.
///
/// With the crate's `record` feature disabled, [`AtomicHistogram::record`]
/// compiles to nothing.
pub struct AtomicHistogram {
    stripes: Box<[Stripe]>,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for AtomicHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Atomic{:?}", self.snapshot())
    }
}

impl AtomicHistogram {
    /// Empty histogram with [`STRIPES`] stripes.
    pub fn new() -> AtomicHistogram {
        AtomicHistogram {
            stripes: (0..STRIPES).map(|_| Stripe::new()).collect(),
        }
    }

    /// Records one sample on the calling thread's stripe.
    #[inline]
    pub fn record(&self, v: u64) {
        #[cfg(feature = "record")]
        {
            let s = &self.stripes[my_stripe()];
            s.counts[bucket(v)].fetch_add(1, Relaxed);
            s.sum.fetch_add(v, Relaxed);
        }
        #[cfg(not(feature = "record"))]
        let _ = v;
    }

    /// Merges all stripes into a plain [`Histogram`] snapshot.
    ///
    /// Safe to call concurrently with recorders; samples landing during
    /// the walk may or may not be included (each bucket is read once,
    /// atomically).
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        let mut sum: u128 = 0;
        for s in self.stripes.iter() {
            for (idx, c) in s.counts.iter().enumerate() {
                let n = c.load(Relaxed);
                if n == 0 {
                    continue;
                }
                h.counts[idx] += n;
                h.total += n;
                let floor = bucket_floor(idx);
                h.min = h.min.min(floor);
                h.max = h.max.max(floor);
            }
            sum += s.sum.load(Relaxed) as u128;
        }
        h.sum = sum;
        h
    }

    /// Resets every bucket to zero. Concurrent recorders may slip
    /// samples past a reset; use from quiescent code.
    pub fn reset(&self) {
        for s in self.stripes.iter() {
            for c in s.counts.iter() {
                c.store(0, Relaxed);
            }
            s.sum.store(0, Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "record")]
    use std::sync::Arc;

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn quantiles_are_within_bucket_precision() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!((4500..=5500).contains(&p50), "p50={p50}");
        let p99 = h.quantile(0.99);
        assert!((9200..=10_000).contains(&p99), "p99={p99}");
    }

    #[test]
    fn bucket_floor_is_monotone_and_below_members() {
        let mut last = 0;
        for idx in 0..BUCKETS {
            let f = bucket_floor(idx);
            assert!(f >= last, "idx {idx}: {f} < {last}");
            last = f;
        }
        for v in [0u64, 1, 15, 16, 17, 100, 1000, 123_456_789, u64::MAX] {
            let idx = bucket(v);
            assert!(bucket_floor(idx) <= v, "v={v}");
        }
    }

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn atomic_matches_plain_for_identical_samples() {
        let a = AtomicHistogram::new();
        let mut p = Histogram::new();
        for v in (0..5000u64).map(|i| i * i % 100_000) {
            a.record(v);
            p.record(v);
        }
        let s = a.snapshot();
        assert_eq!(s.count(), p.count());
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(s.quantile(q), p.quantile(q), "q={q}");
        }
        // Snapshot min/max are bucket floors: within one bucket of exact.
        assert!(s.min() <= p.min() && s.max() <= p.max());
    }

    // Not gated on `record`: counters count in every build.
    #[test]
    fn counter_sums_concurrent_adds_exactly_and_resets() {
        let c = Counter::new();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..100_000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 400_000);
        c.add(5);
        assert_eq!(c.get(), 400_005);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_stripes_own_their_lines() {
        assert_eq!(std::mem::align_of::<CounterStripe>(), 128);
        // The owner holds one pointer, never a stripe.
        assert_eq!(std::mem::size_of::<Counter>(), std::mem::size_of::<usize>());
    }

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(AtomicHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i % 997);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 40_000);
    }
}
