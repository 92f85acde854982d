//! Paired measurement: the one statistics toolkit every A/B bench uses.
//!
//! A bench compares a **candidate** (variant 0) against a **baseline**
//! (variant 1) at a list of points (usually thread counts). Absolute
//! throughputs from different minutes are not comparable on a shared
//! host — CPU steal, thermal state and background load drift by tens of
//! percent — so every sample is the two variants run back-to-back at the
//! same point, and each point is judged on the full distribution of its
//! time-adjacent candidate/baseline ratios, never on one round's peak:
//!
//! * [`Order::Alternated`] runs each pair as A,B or B,A, flipping every
//!   round, so drift across the pair boundary favours each variant
//!   equally often instead of always the one that runs second.
//! * [`Order::Mirrored`] runs a quad A,B,B,A or B,A,A,B and compares the
//!   sums: each variant runs once in each position, so linear drift and
//!   any second-runner advantage cancel *inside* the sample. Needed when
//!   the effect under test is smaller than the order bias.
//! * [`sign_test_p`] is the one-sided sign test over the ratios: how
//!   likely this few candidate wins would be if the variants were
//!   equivalent (a fair coin). One lucky round cannot carry a regressed
//!   point, and a coin-flip win rate never rejects.
//! * Rescue rounds ([`sweep`]'s `unmet` predicate): a point that has not
//!   yet met its criterion gets more pairs before judgement. A genuine
//!   effect converges across the threshold; a genuine regression keeps
//!   every pair on the wrong side and only hands the sign test more
//!   evidence, so rescue makes a real failure reject harder, not softer.
//!
//! The judgements a bench can assert on a point are on [`Summary`]:
//! [`Summary::detectably_better`], [`Summary::not_detectably_worse`], and
//! [`Summary::not_materially_worse`] (the sign test plus an effect-size
//! floor, for points where both variants are usually idle and a p-only
//! gate would false-reject across many asserted points).

/// Interleaved measurement rounds per point before any rescue.
pub const ROUNDS: usize = 5;
/// Most extra samples a point can get from the rescue loop.
pub const RESCUE_ROUNDS: usize = 16;

/// How one paired sample orders its runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// A,B then B,A on the next round; ratio of the two runs.
    Alternated,
    /// A,B,B,A then B,A,A,B on the next round; ratio of the sums.
    Mirrored,
}

/// Measures every point for [`ROUNDS`] rounds, then grants up to
/// [`RESCUE_ROUNDS`] more samples to each point `unmet(point, ratios)`
/// flags, stopping as soon as none is flagged. `measure(variant, point)`
/// runs one variant once and returns its throughput; the bench folds
/// peaks and counters in there. Returns the candidate/baseline ratios
/// per point (a sample whose baseline measured zero is dropped).
pub fn sweep(
    points: usize,
    order: Order,
    mut measure: impl FnMut(usize, usize) -> f64,
    unmet: impl Fn(usize, &[f64]) -> bool,
) -> Vec<Vec<f64>> {
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); points];
    let mut taken = vec![0usize; points];
    let mut sample = |ratios: &mut Vec<Vec<f64>>, p: usize| {
        // Each point alternates on its own count, so rescue samples keep
        // flipping where that point's main rounds left off.
        let first = taken[p] % 2;
        let second = 1 - first;
        taken[p] += 1;
        let mut sums = [0.0f64; 2];
        sums[first] += measure(first, p);
        sums[second] += measure(second, p);
        if order == Order::Mirrored {
            sums[second] += measure(second, p);
            sums[first] += measure(first, p);
        }
        if sums[1] > 0.0 {
            ratios[p].push(sums[0] / sums[1]);
        }
    };
    for _ in 0..ROUNDS {
        for p in 0..points {
            sample(&mut ratios, p);
        }
    }
    for _ in 0..RESCUE_ROUNDS {
        let trailing: Vec<usize> = (0..points).filter(|&p| unmet(p, &ratios[p])).collect();
        if trailing.is_empty() {
            break;
        }
        for p in trailing {
            sample(&mut ratios, p);
        }
    }
    ratios
}

/// Median of a sample (0 when empty; mean of the middle two when even).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Candidate wins in a ratio sample (pairs with ratio ≥ 1).
pub fn wins(xs: &[f64]) -> usize {
    xs.iter().filter(|&&r| r >= 1.0).count()
}

/// One-sided sign test: `P(X <= k)` for `X ~ Binomial(n, 1/2)` — the
/// probability of seeing at most `k` wins for one side if both variants
/// were equivalent. Small means that side is detectably behind.
pub fn sign_test_p(k: usize, n: usize) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let mut coeff = 1.0f64; // C(n, i), built incrementally
    let mut tail = 0.0f64;
    for i in 0..=k.min(n) {
        tail += coeff;
        coeff = coeff * (n - i) as f64 / (i + 1) as f64;
    }
    tail / 2.0f64.powi(n as i32)
}

/// The statistics of one point's ratio sample.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Median candidate/baseline ratio.
    pub median: f64,
    /// Pairs the candidate won (ratio ≥ 1).
    pub wins: usize,
    /// Pairs in the sample.
    pub n: usize,
    /// Sign-test p on the candidate's wins: small ⇒ candidate worse.
    pub p_worse: f64,
    /// Sign-test p on the candidate's losses: small ⇒ candidate better.
    pub p_better: f64,
}

impl Summary {
    /// Summarises a ratio sample.
    pub fn of(rs: &[f64]) -> Summary {
        let (w, n) = (wins(rs), rs.len());
        Summary {
            median: median(rs),
            wins: w,
            n,
            p_worse: sign_test_p(w, n),
            p_better: sign_test_p(n - w, n),
        }
    }

    /// Median above 1 and significantly more than half the pairs won
    /// (`p_better < 0.05`).
    pub fn detectably_better(&self) -> bool {
        self.median > 1.0 && self.p_better < 0.05
    }

    /// Not significantly fewer than half the pairs won (`p_worse ≥ 0.05`).
    pub fn not_detectably_worse(&self) -> bool {
        self.p_worse >= 0.05
    }

    /// Fails only when the deficit is both significant (`p_worse < 0.01`)
    /// and material (median below 0.95).
    pub fn not_materially_worse(&self) -> bool {
        self.p_worse >= 0.01 || self.median >= 0.95
    }
}

/// A ratio sample as the body of a JSON array (`"pair_ratios": [...]`).
pub fn ratios_json(rs: &[f64]) -> String {
    rs.iter().map(|r| format!("{r:.4}")).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn sign_test_matches_binomial_tail() {
        // P(X <= 0 | n=5) = 1/32; a zero-win point must reject at 5%.
        assert!((sign_test_p(0, 5) - 1.0 / 32.0).abs() < 1e-12);
        assert!(sign_test_p(0, 5) < 0.05);
        // One lucky pair out of 21 must still reject hard.
        assert!(sign_test_p(1, 21) < 1e-4);
        // A fair coin-flip outcome must never reject.
        assert!(sign_test_p(10, 21) > 0.4);
        assert!((sign_test_p(21, 21) - 1.0).abs() < 1e-12);
        // Median: empty, odd, even.
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[2.0, 1.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn detectably_better_needs_both_median_and_significance() {
        // 9/10 wins with median > 1: better.
        let good: Vec<f64> = (0..10).map(|i| if i == 0 { 0.98 } else { 1.1 }).collect();
        assert!(Summary::of(&good).detectably_better());
        // Coin-flip: not better.
        let flip: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 0.9 } else { 1.1 }).collect();
        assert!(!Summary::of(&flip).detectably_better());
        // Empty: not better.
        assert!(!Summary::of(&[]).detectably_better());
    }

    /// Runs a sweep whose fake measurement logs `(variant, point)` and
    /// returns 2.0 for the candidate, 1.0 for the baseline.
    fn logged_sweep(
        points: usize,
        order: Order,
        unmet: impl Fn(usize, &[f64]) -> bool,
    ) -> (Vec<Vec<f64>>, Vec<(usize, usize)>) {
        let log = RefCell::new(Vec::new());
        let ratios = sweep(
            points,
            order,
            |v, p| {
                log.borrow_mut().push((v, p));
                if v == 0 { 2.0 } else { 1.0 }
            },
            unmet,
        );
        (ratios, log.into_inner())
    }

    #[test]
    fn sweep_alternates_mirrors_and_rescues_only_unmet_points() {
        // Alternation: round r runs the pair at every point, and which
        // variant goes first flips each round.
        let (ratios, log) = logged_sweep(2, Order::Alternated, |_, _| false);
        assert_eq!(log.len(), ROUNDS * 2 * 2);
        for (i, pair) in log.chunks(2).enumerate() {
            let (round, point) = (i / 2, i % 2);
            assert_eq!(pair, [(round % 2, point), (1 - round % 2, point)], "pair {i}");
        }
        assert!(ratios.iter().all(|rs| rs.len() == ROUNDS && rs.iter().all(|&r| r == 2.0)));

        // Mirrored quads: each variant once in each position per half,
        // the leading variant still flipping round to round.
        let (ratios, log) = logged_sweep(1, Order::Mirrored, |_, _| false);
        assert_eq!(log.len(), ROUNDS * 4);
        for (round, quad) in log.chunks(4).enumerate() {
            let (a, b) = (round % 2, 1 - round % 2);
            assert_eq!(quad, [(a, 0), (b, 0), (b, 0), (a, 0)], "quad {round}");
        }
        assert!(ratios[0].iter().all(|&r| r == 2.0));

        // Rescue: only point 1 is unmet, and only until it holds 8
        // samples; point 0 never gets a rescue sample.
        let (ratios, log) = logged_sweep(2, Order::Alternated, |p, rs| p == 1 && rs.len() < 8);
        assert_eq!(ratios[0].len(), ROUNDS);
        assert_eq!(ratios[1].len(), 8);
        let rescue = &log[ROUNDS * 2 * 2..];
        assert_eq!(rescue.len(), (8 - ROUNDS) * 2);
        assert!(rescue.iter().all(|&(_, p)| p == 1));
        // A predicate that never clears stops at the rescue cap.
        let (ratios, _) = logged_sweep(1, Order::Alternated, |_, _| true);
        assert_eq!(ratios[0].len(), ROUNDS + RESCUE_ROUNDS);
    }
}
