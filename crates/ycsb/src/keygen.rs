//! Key-distribution generators: uniform, zipfian, scrambled zipfian.
//!
//! The zipfian generator is the standard YCSB construction (Gray et al.,
//! "Quickly generating billion-record synthetic databases"): draw a rank
//! with probability ∝ 1/rank^θ using the precomputed zeta normaliser.
//! Plain zipfian makes rank 1 (key 1) the hottest; *scrambled* zipfian
//! hashes the rank over the key space, so hot keys spread across leaves —
//! the paper does exactly this for Figure 8's skewed runs ("we hash keys
//! to distribute hottest keys to different leaf nodes").
//!
//! Generated keys are in `1..=n` (0 is reserved as a null sentinel by the
//! trees' pool layout conventions).

use index_common::{KeyBuf, MAX_KEY_LEN};
use nvm::SplitMix64;

/// How a sampled key id in `1..=n` is rendered into a **byte-comparable
/// string key** for the var-key (`*_k`) workloads.
///
/// Every shape is order-preserving — `id < id' ⟺ render(id) <
/// render(id')` bytewise — so the string workloads keep the exact key
/// distribution (and scan semantics) of their u64 counterparts, and an
/// oracle over ids stays valid over the rendered keys.
///
/// The shapes differ sharply in how much the 4-byte key *head* (the
/// directory-word prefix the var leaf compares first) discriminates:
///
/// * [`KeyShape::U64Be`] — the `U64Key` codec layout itself; heads are
///   the high 32 bits, all zero for realistic id ranges.
/// * [`KeyShape::Decimal`] — zero-padded decimal: for widths well above
///   `log10(n)` every key starts `"000…"`, so heads tie almost always
///   and discrimination lives in the tail digits (the worst case for
///   head-first search, the motivating case for suffix compares).
/// * [`KeyShape::Url`] — URL-style keys sharing a scheme+host prefix;
///   heads tie *always* (`"http"`) and the discriminating bytes sit past
///   the 22-byte prefix, which is exactly what the in-leaf prefix
///   truncation is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyShape {
    /// 8-byte big-endian id — the `U64Key` codec layout.
    U64Be,
    /// Zero-padded decimal id, exactly `width` digits (≤ 64).
    Decimal {
        /// Total key length in digits; ids must fit, i.e. `id < 10^width`.
        width: usize,
    },
    /// `https://example.com/u/` + 16 zero-padded hex digits of the id:
    /// 38 bytes, fully head-tied, long shared prefix.
    Url,
}

impl KeyShape {
    /// Rendered key length in bytes (fixed per shape).
    pub fn key_len(self) -> usize {
        match self {
            KeyShape::U64Be => 8,
            KeyShape::Decimal { width } => width,
            KeyShape::Url => URL_PREFIX.len() + 16,
        }
    }

    /// Renders `id` as a byte-comparable key.
    ///
    /// # Panics
    /// If a `Decimal` width exceeds [`MAX_KEY_LEN`] or cannot hold `id`.
    pub fn render(self, id: u64) -> KeyBuf {
        match self {
            KeyShape::U64Be => KeyBuf::from_slice(&id.to_be_bytes()),
            KeyShape::Decimal { width } => {
                assert!(width <= MAX_KEY_LEN, "decimal width {width} > {MAX_KEY_LEN}");
                let mut buf = [b'0'; MAX_KEY_LEN];
                let digits = format_decimal(id, &mut buf[..width]);
                assert!(digits <= width, "id {id} does not fit {width} digits");
                KeyBuf::from_slice(&buf[..width])
            }
            KeyShape::Url => {
                let mut buf = [0u8; MAX_KEY_LEN];
                buf[..URL_PREFIX.len()].copy_from_slice(URL_PREFIX);
                let mut v = id;
                for i in (0..16).rev() {
                    buf[URL_PREFIX.len() + i] = HEX[(v & 0xF) as usize];
                    v >>= 4;
                }
                KeyBuf::from_slice(&buf[..URL_PREFIX.len() + 16])
            }
        }
    }
}

const URL_PREFIX: &[u8] = b"https://example.com/u/";
const HEX: &[u8; 16] = b"0123456789abcdef";

/// Writes `id` right-aligned into `out` (pre-filled with `'0'`); returns
/// the digit count.
fn format_decimal(mut id: u64, out: &mut [u8]) -> usize {
    let mut digits = 0;
    let mut at = out.len();
    loop {
        digits += 1;
        if at == 0 {
            return usize::MAX; // overflow: caller asserts
        }
        at -= 1;
        out[at] = b'0' + (id % 10) as u8;
        id /= 10;
        if id == 0 {
            return digits;
        }
    }
}

/// A key distribution over the key space `1..=n`.
#[derive(Debug, Clone)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform {
        /// Key-space size.
        n: u64,
    },
    /// Zipf-distributed ranks; key 1 is hottest.
    Zipfian {
        /// Key-space size.
        n: u64,
        /// Skew coefficient θ (the paper sweeps 0.5–0.99; 0.8 default).
        theta: f64,
    },
    /// Zipf-distributed ranks hashed across the key space.
    ScrambledZipfian {
        /// Key-space size.
        n: u64,
        /// Skew coefficient θ.
        theta: f64,
    },
}

impl KeyDist {
    /// Key-space size.
    pub fn n(&self) -> u64 {
        match *self {
            KeyDist::Uniform { n }
            | KeyDist::Zipfian { n, .. }
            | KeyDist::ScrambledZipfian { n, .. } => n,
        }
    }

    /// Builds the sampling state (zeta precomputation for zipfian).
    pub fn build(&self) -> KeyGen {
        match *self {
            KeyDist::Uniform { n } => {
                assert!(n > 0);
                KeyGen::Uniform { n }
            }
            KeyDist::Zipfian { n, theta } => KeyGen::Zipfian(Zipf::new(n, theta, false)),
            KeyDist::ScrambledZipfian { n, theta } => KeyGen::Zipfian(Zipf::new(n, theta, true)),
        }
    }
}

/// Sampling state for a [`KeyDist`]. Cheap to clone per worker thread.
#[derive(Debug, Clone)]
pub enum KeyGen {
    /// Uniform sampler.
    Uniform {
        /// Key-space size.
        n: u64,
    },
    /// (Scrambled) zipfian sampler.
    Zipfian(Zipf),
}

impl KeyGen {
    /// Draws the next key in `1..=n`.
    #[inline]
    pub fn next_key(&self, rng: &mut SplitMix64) -> u64 {
        match self {
            KeyGen::Uniform { n } => rng.next_key(*n),
            KeyGen::Zipfian(z) => z.sample(rng),
        }
    }
}

/// YCSB-style zipfian sampler.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    scramble: bool,
}

impl Zipf {
    fn new(n: u64, theta: f64, scramble: bool) -> Zipf {
        assert!(n > 0, "zipf over empty key space");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1): {theta}");
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
            scramble,
        }
    }

    /// Draws a key.
    #[inline]
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u: f64 = rng.next_f64();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            1
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            2
        } else {
            1 + (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        let rank = rank.min(self.n);
        if self.scramble {
            fnv64(rank) % self.n + 1
        } else {
            rank
        }
    }
}

/// Harmonic-like normaliser Σ 1/i^θ for i in 1..=n, memoised per (n, θ).
///
/// The raw sum is O(n); benchmark setup builds a sampler per
/// (tree × thread × round) cell over the same key space, so without the
/// cache a contention sweep recomputes the identical 10⁵–10⁷-term sum
/// dozens of times. The cache is a tiny process-wide vector (distinct
/// (n, θ) pairs in one run are few) behind a mutex that is only touched
/// at sampler construction, never on the sampling hot path.
fn zeta(n: u64, theta: f64) -> f64 {
    use std::sync::{Mutex, OnceLock};
    /// Cache entries: ((n, θ bits) key, zeta value).
    type ZetaCache = Vec<((u64, u64), f64)>;
    static CACHE: OnceLock<Mutex<ZetaCache>> = OnceLock::new();
    let key = (n, theta.to_bits());
    let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
    if let Some(&(_, z)) = cache.lock().unwrap().iter().find(|&&(k, _)| k == key) {
        return z;
    }
    let z = zeta_compute(n, theta);
    let mut guard = cache.lock().unwrap();
    // A racing builder may have inserted the same key; duplicates are
    // harmless (both values are identical) but keep the vector tidy.
    if !guard.iter().any(|&(k, _)| k == key) {
        guard.push((key, z));
    }
    z
}

#[cfg(test)]
thread_local! {
    /// Uncached zeta sums computed by this thread. Per thread, so tests
    /// running in parallel do not count each other's samplers.
    static ZETA_COMPUTES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The uncached O(n) zeta sum.
fn zeta_compute(n: u64, theta: f64) -> f64 {
    #[cfg(test)]
    ZETA_COMPUTES.set(ZETA_COMPUTES.get() + 1);
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

/// FNV-1a 64-bit hash (YCSB's scrambling hash).
#[inline]
fn fnv64(mut v: u64) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for _ in 0..8 {
        hash ^= v & 0xFF;
        hash = hash.wrapping_mul(0x100_0000_01B3);
        v >>= 8;
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_space() {
        let g = KeyDist::Uniform { n: 100 }.build();
        let mut rng = SplitMix64::new(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let k = g.next_key(&mut rng);
            assert!((1..=100).contains(&k));
            seen.insert(k);
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn zipfian_is_skewed_toward_low_ranks() {
        let g = KeyDist::Zipfian { n: 10_000, theta: 0.99 }.build();
        let mut rng = SplitMix64::new(2);
        let mut top10 = 0;
        let total = 50_000;
        for _ in 0..total {
            if g.next_key(&mut rng) <= 10 {
                top10 += 1;
            }
        }
        // With θ=0.99 over 10k keys, the top-10 ranks carry a large share.
        assert!(
            top10 as f64 / total as f64 > 0.25,
            "top-10 share too low: {top10}/{total}"
        );
    }

    #[test]
    fn low_theta_is_less_skewed_than_high_theta() {
        let mut shares = Vec::new();
        for theta in [0.5, 0.8, 0.99] {
            let g = KeyDist::Zipfian { n: 10_000, theta }.build();
            let mut rng = SplitMix64::new(3);
            let mut top100 = 0;
            for _ in 0..30_000 {
                if g.next_key(&mut rng) <= 100 {
                    top100 += 1;
                }
            }
            shares.push(top100);
        }
        assert!(shares[0] < shares[1] && shares[1] < shares[2], "{shares:?}");
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_keys() {
        let g = KeyDist::ScrambledZipfian { n: 10_000, theta: 0.9 }.build();
        let mut rng = SplitMix64::new(4);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            let k = g.next_key(&mut rng);
            assert!((1..=10_000).contains(&k));
            *counts.entry(k).or_insert(0u32) += 1;
        }
        // Still skewed: some key dominates…
        let hottest = counts.values().copied().max().unwrap();
        assert!(hottest > 1_000, "hottest {hottest}");
        // …but the hot keys are not the low ranks: the top-10 *key values*
        // must not all be ≤ 100.
        let mut hot: Vec<(u64, u32)> = counts.into_iter().collect();
        hot.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        assert!(hot.iter().take(10).any(|&(k, _)| k > 1_000), "{:?}", &hot[..10]);
    }

    #[test]
    fn zeta_is_cached_per_n_theta() {
        // Untouched (n, θ) pairs so other tests can't have warmed them.
        let before = ZETA_COMPUTES.get();
        let _ = KeyDist::Zipfian { n: 77_777, theta: 0.77 }.build();
        let mid = ZETA_COMPUTES.get();
        // A sampler build computes zeta(n) and zeta(2) at most once each.
        assert!(mid - before <= 2, "first build computed {}", mid - before);
        for _ in 0..10 {
            let _ = KeyDist::Zipfian { n: 77_777, theta: 0.77 }.build();
            let _ = KeyDist::ScrambledZipfian { n: 77_777, theta: 0.77 }.build();
        }
        let after = ZETA_COMPUTES.get();
        assert_eq!(after, mid, "rebuilds over the same (n, θ) must not recompute");
    }

    #[test]
    fn zipfian_head_frequencies_match_theory() {
        // The two hottest ranks have closed-form probabilities in the YCSB
        // construction: P(1) = 1/ζ(n,θ), P(2) = 2^-θ/ζ(n,θ). Pin them.
        let (n, theta) = (10_000u64, 0.99f64);
        let zetan = zeta_compute(n, theta);
        let p1 = 1.0 / zetan;
        let p2 = 0.5f64.powf(theta) / zetan;
        let g = KeyDist::Zipfian { n, theta }.build();
        let mut rng = SplitMix64::new(6);
        let total = 200_000u64;
        let (mut c1, mut c2) = (0u64, 0u64);
        for _ in 0..total {
            match g.next_key(&mut rng) {
                1 => c1 += 1,
                2 => c2 += 1,
                _ => {}
            }
        }
        let f1 = c1 as f64 / total as f64;
        let f2 = c2 as f64 / total as f64;
        assert!((f1 - p1).abs() < 0.1 * p1, "rank-1: {f1} vs {p1}");
        assert!((f2 - p2).abs() < 0.1 * p2, "rank-2: {f2} vs {p2}");
        // Sanity on the magnitude itself: θ=0.99 over 10k keys puts ≈9–10%
        // of all draws on the single hottest key.
        assert!(p1 > 0.08 && p1 < 0.12, "zetan drifted: p1={p1}");
    }

    #[test]
    fn key_shapes_are_order_preserving_and_fixed_length() {
        let shapes = [
            KeyShape::U64Be,
            KeyShape::Decimal { width: 8 },
            KeyShape::Decimal { width: 64 },
            KeyShape::Url,
        ];
        let mut rng = SplitMix64::new(11);
        for shape in shapes {
            let mut ids: Vec<u64> = (0..500).map(|_| rng.next_key(10_000_000)).collect();
            ids.sort_unstable();
            ids.dedup();
            let keys: Vec<_> = ids.iter().map(|&id| shape.render(id)).collect();
            for w in keys.windows(2) {
                assert!(w[0] < w[1], "{shape:?} broke id order");
            }
            for k in &keys {
                assert_eq!(k.as_slice().len(), shape.key_len(), "{shape:?} length");
            }
        }
    }

    /// Pins the 4-byte head discrimination of each shape over a realistic
    /// id range (1..=10⁶): these rates are what the varkey-scale bench's
    /// head-tie counters are interpreted against.
    #[test]
    fn key_shape_head_collision_rates_are_pinned() {
        let distinct_heads = |shape: KeyShape| {
            let mut rng = SplitMix64::new(12);
            let mut heads = std::collections::HashSet::new();
            for _ in 0..20_000 {
                let k = shape.render(rng.next_key(1_000_000));
                heads.insert(index_common::key_head(k.as_slice()));
            }
            heads.len()
        };
        // U64Be: ids < 2³² ⇒ the high 32 bits are all zero — one head.
        assert_eq!(distinct_heads(KeyShape::U64Be), 1);
        // Url: every key starts "http" — one head, ties always.
        assert_eq!(distinct_heads(KeyShape::Url), 1);
        // Decimal width 64: 58 leading zeros — one head, ties always.
        assert_eq!(distinct_heads(KeyShape::Decimal { width: 64 }), 1);
        // Decimal width 8: ids ≤ 10⁶ put digits 5–10 of the id into the
        // tail, leaving heads "0000".."0100" — at most 101 coarse buckets
        // of ~10⁴ ids each, so *within* a leaf heads still tie almost
        // always while across the tree they discriminate coarsely.
        let d8 = distinct_heads(KeyShape::Decimal { width: 8 });
        assert!((50..=101).contains(&d8), "decimal-8 heads: {d8}");
    }

    #[test]
    fn decimal_render_pads_and_rejects_overflow() {
        let k = KeyShape::Decimal { width: 8 }.render(1234);
        assert_eq!(k.as_slice(), b"00001234");
        let k = KeyShape::Url.render(0xABC);
        assert_eq!(k.as_slice(), b"https://example.com/u/0000000000000abc");
        assert!(std::panic::catch_unwind(|| KeyShape::Decimal { width: 3 }.render(1234)).is_err());
    }

    #[test]
    fn zipfian_keys_stay_in_range() {
        for theta in [0.0, 0.5, 0.99] {
            let g = KeyDist::Zipfian { n: 7, theta }.build();
            let mut rng = SplitMix64::new(5);
            for _ in 0..5_000 {
                let k = g.next_key(&mut rng);
                assert!((1..=7).contains(&k), "theta={theta} k={k}");
            }
        }
    }
}
