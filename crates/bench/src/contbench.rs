//! `repro contention-scale` — skewed-workload contention scaling of the
//! two-tier HTM fallback (PR 5).
//!
//! The question this answers: when Zipfian skew drives the emulated HTM
//! into its fallback path, does the fine-grained striped fallback
//! (footprint-sized stripe sets, [`htm::StripeTable`]) beat the legacy
//! whole-domain global lock it replaced? Every cell runs the *same*
//! `RnTree` twice — once with `RnConfig::striped_fallback = true`
//! (default, two-tier) and once with `false` (PR-4 behaviour: every
//! fallback takes the global lock) — over YCSB-A (50/50 read/update) and
//! YCSB-B (95/5) with **plain** Zipfian keys at θ ∈ {0.7, 0.9, 0.99}.
//! Plain (unscrambled) Zipfian concentrates the hot ranks on the same
//! leaves, which is the adversarial case for a domain-wide fallback:
//! one capacity- or conflict-driven fallback serialises every thread,
//! including those working disjoint leaves.
//!
//! Alongside throughput, each point captures the HTM taxonomy delta of
//! its peak round — fallback rate, tier split (striped vs global),
//! footprint-miss escapes, and stripe-acquisition conflicts — so the
//! JSON shows *why* a curve moves, not just that it moved.
//!
//! Methodology matches the rest of the harness: both variants stay warm
//! for the whole cell, rounds interleave striped/global × thread counts,
//! and the per-point **peak of 5 rounds** is kept for reporting. The
//! bench then asserts, itself, that striped is never *detectably worse*
//! than global at any contended point (θ ≥ 0.9, ≥ 2 threads) — judged
//! on the **full distribution of paired ratios**, never a single round:
//! within each round the two variants run back-to-back at the same
//! thread count (adjacent-in-time pairing cancels the machine-level
//! drift — CPU steal, thermal, background load — that makes absolute
//! peaks from different minutes incomparable), the in-pair order
//! alternates round to round (so drift *across* the pair boundary
//! favours each variant equally often instead of always the one that
//! ran second), every pair's striped/global ratio is recorded, and the
//! point is judged by a
//! one-sided **sign test** plus an effect-size floor: it fails only
//! when significantly fewer than half of its pairs favour striped
//! (binomial tail p < 0.01 under a fair coin) *and* the deficit is
//! material (median pair ratio below 0.95). One lucky round can no
//! longer carry a regressed point (1 win in 21 pairs rejects hard), and
//! noise cannot flake an equivalent one (a coin-flip win rate never
//! rejects, and a sub-5% deficit is below the gate's resolution —
//! necessary since PR 6's page cache removed nearly all capacity-driven
//! fallbacks, leaving both tiers idle and statistically equivalent on
//! most points). Points whose ratio
//! *median* trails below 1 get extra paired rescue measurements before
//! judgement, so healthy committed runs also report median ≥ 1; a
//! genuine regression — like the per-read subscription tax this bench
//! caught during development — drags *every* pair below 1 and cannot be
//! rescued. The JSON carries the complete per-pair ratio distribution
//! alongside the median, win count, and sign-test p per point.
//!
//! Two additions gather the baseline data ROADMAP item 4 (per-leaf
//! fallback locks) needs. First, an 8-thread point is always measured
//! even when `--threads` omits it — the stripe table's collision odds
//! only start to matter past a handful of threads. An injected (not
//! caller-requested) 8-thread point is reported but not asserted: it
//! may oversubscribe the host, and an oversubscribed point's pair
//! ratios are too noisy to gate on. Second, a
//! **colliding-stripe** adversarial cell runs YCSB-A over a uniform
//! 256-key hot window on the fully-warmed tree: every op lands on the
//! same few leaves, so fallbacks that would be disjoint under Zipfian
//! pile onto the same stripes. This cell is *reported, not asserted*
//! (`"asserted": false` in the JSON) — it exists to quantify how much
//! stripe-collision serialisation costs today, i.e. the headroom a
//! per-leaf lock tier would reclaim.

use std::sync::Arc;

use htm::HtmStatsSnapshot;
use index_common::PersistentIndex;
use rntree::{RnConfig, RnTree};
use ycsb::{run_closed_loop, KeyDist, WorkloadSpec};

use crate::harness::{pool_for, warm, Gates, Scale, TreeKind};
use crate::report::{fmt_tput, Table};

/// Interleaved measurement rounds per cell (peak kept per point).
const ROUNDS: usize = 5;
/// Extra paired re-measurements granted to a contended point whose ratio
/// median trails below 1 before the sign test fires (only the trailing
/// points re-run, so these are cheap; they also grow the sample the sign
/// test judges, so a real regression rejects harder, not softer).
const RESCUE_ROUNDS: usize = 16;
/// Skew sweep: moderate, high, and the paper's Figure-10 extreme.
const THETAS: [f64; 3] = [0.7, 0.9, 0.99];

/// One measured point: peak throughput plus the HTM-counter delta of the
/// round that produced the peak.
#[derive(Clone, Copy, Default)]
struct Point {
    mops: f64,
    stats: HtmStatsSnapshot,
}

/// The striped/global tree pair of one (workload, θ) cell.
struct Cell {
    trees: [Arc<RnTree>; 2],
    dyns: [Arc<dyn PersistentIndex>; 2],
}

/// Variant order inside a cell (and in every table/JSON row).
const VARIANTS: [&str; 2] = ["striped", "global"];

impl Cell {
    fn build(scale: &Scale, warm_n: u64) -> Cell {
        let trees: [Arc<RnTree>; 2] = [true, false].map(|striped| {
            let pool = pool_for(TreeKind::RnTree, warm_n, warm_n / 8, scale.bench_pool_cfg());
            let tree = Arc::new(RnTree::create(
                pool,
                RnConfig {
                    striped_fallback: striped,
                    ..RnConfig::default()
                },
            ));
            warm(&*tree, warm_n, scale.seed);
            tree
        });
        let dyns: [Arc<dyn PersistentIndex>; 2] =
            [trees[0].clone() as _, trees[1].clone() as _];
        Cell { trees, dyns }
    }

    /// Measures variant `v` at thread index `ti` once, folding the result
    /// into `peak` if it is a new per-point maximum. Returns the round's
    /// throughput (not the peak).
    fn measure(
        &self,
        scale: &Scale,
        spec: &WorkloadSpec,
        peak: &mut [Vec<Point>; 2],
        v: usize,
        ti: usize,
    ) -> f64 {
        let threads = scale.threads[ti];
        let before = self.trees[v].htm_stats();
        let r = run_closed_loop(&self.dyns[v], spec, threads, scale.duration, scale.seed);
        assert_eq!(r.pool_exhausted, 0, "{} pool exhausted", VARIANTS[v]);
        if r.throughput() > peak[v][ti].mops {
            peak[v][ti] = Point {
                mops: r.throughput(),
                stats: self.trees[v].htm_stats().since(&before),
            };
        }
        r.throughput()
    }

    /// Measures the striped/global pair back-to-back at thread index `ti`
    /// and records the time-adjacent ratio (the drift-free comparison the
    /// sign test judges) alongside the absolute peaks. `flip` reverses
    /// which variant runs first: callers alternate it so monotone drift
    /// across the pair boundary (background load decaying through the
    /// run) favours each variant equally often instead of systematically
    /// inflating whichever side always ran second.
    fn measure_pair(
        &self,
        scale: &Scale,
        spec: &WorkloadSpec,
        peak: &mut [Vec<Point>; 2],
        ratios: &mut [Vec<f64>],
        ti: usize,
        flip: bool,
    ) {
        let (s, g) = if flip {
            let g = self.measure(scale, spec, peak, 1, ti);
            let s = self.measure(scale, spec, peak, 0, ti);
            (s, g)
        } else {
            let s = self.measure(scale, spec, peak, 0, ti);
            let g = self.measure(scale, spec, peak, 1, ti);
            (s, g)
        };
        if g > 0.0 {
            ratios[ti].push(s / g);
        }
    }

    /// One round over all thread counts, each a back-to-back pair.
    fn round(
        &self,
        scale: &Scale,
        spec: &WorkloadSpec,
        peak: &mut [Vec<Point>; 2],
        ratios: &mut [Vec<f64>],
        flip: bool,
    ) {
        for ti in 0..scale.threads.len() {
            self.measure_pair(scale, spec, peak, ratios, ti, flip);
        }
    }
}

/// Median of a ratio sample (0 when empty; average of the middle two for
/// even counts).
pub(crate) fn median(xs: &[f64]) -> f64 {
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

/// One-sided sign test: `P(X <= wins)` for `X ~ Binomial(n, 1/2)` — the
/// probability of seeing this few striped wins if striped and global were
/// truly equivalent. Small means "striped is detectably worse".
pub(crate) fn sign_test_p(wins: usize, n: usize) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let mut coeff = 1.0f64; // C(n, k), built incrementally
    let mut tail = 0.0f64;
    for k in 0..=wins.min(n) {
        tail += coeff;
        coeff = coeff * (n - k) as f64 / (k + 1) as f64;
    }
    tail / 2.0f64.powi(n as i32)
}

/// Striped wins in a ratio sample (pairs where striped ≥ global).
pub(crate) fn wins(xs: &[f64]) -> usize {
    xs.iter().filter(|&&r| r >= 1.0).count()
}

/// Indices of contended points (≥ 2 threads) whose paired-ratio median
/// still trails below 1 (rescue targets; the hard gate is the sign test).
fn violations(scale: &Scale, ratios: &[Vec<f64>], skip8: bool) -> Vec<usize> {
    scale
        .threads
        .iter()
        .enumerate()
        .filter(|&(ti, &t)| t >= 2 && !(skip8 && t == 8) && median(&ratios[ti]) < 1.0)
        .map(|(ti, _)| ti)
        .collect()
}

/// JSON fragment for one variant at one point.
fn variant_json(p: &Point) -> String {
    let s = &p.stats;
    format!(
        "{{\"mops\": {:.4}, \"fallback_rate\": {:.6}, \"commits\": {}, \
         \"aborts_conflict\": {}, \"aborts_capacity\": {}, \"aborts_explicit\": {}, \
         \"aborts_flush\": {}, \"fallbacks\": {}, \"fallbacks_striped\": {}, \
         \"fallbacks_global\": {}, \"stripe_escapes\": {}, \"stripe_conflicts\": {}}}",
        p.mops / 1e6,
        s.fallback_rate(),
        s.commits,
        s.aborts_conflict,
        s.aborts_capacity,
        s.aborts_explicit,
        s.aborts_flush,
        s.fallbacks,
        s.fallbacks_striped,
        s.fallbacks_global,
        s.stripe_escapes,
        s.stripe_conflicts
    )
}

/// Runs the sweep, prints per-cell tables, asserts the striped tier never
/// loses a contended high-skew point, and writes the JSON report.
///
/// Timing gates panic only under [`Gates::Enforce`]; see [`Gates`].
pub fn contention_scale(scale: &Scale, out_path: &str, gates: Gates) {
    // Always measure an 8-thread point: stripe collisions are a
    // birthday-bound effect and barely register below ~8 concurrent
    // fallback takers (ROADMAP item 4 baseline data).
    // An injected point is reported but not asserted: when the caller
    // didn't ask for 8 threads the host may not have them, and an
    // oversubscribed point's pair ratios are too noisy to gate on.
    let mut scale = scale.clone();
    let forced8 = !scale.threads.contains(&8);
    if forced8 {
        scale.threads.push(8);
        scale.threads.sort_unstable();
    }
    let scale = &scale;

    type MakeSpec = fn(KeyDist) -> WorkloadSpec;
    let workloads: [(&str, MakeSpec); 2] =
        [("ycsb-a", WorkloadSpec::ycsb_a), ("ycsb-b", WorkloadSpec::ycsb_b)];
    // (name, theta-for-json, spec, gated): gated cells rescue trailing
    // points and enforce the sign-test assertion; the colliding-stripe
    // adversary is measured and reported only. Its uniform 256-key hot
    // window over the fully-warmed tree lands every op on the same few
    // leaves, forcing the fallback stripes to collide — the worst case a
    // per-leaf lock tier would relieve.
    let mut cells: Vec<(&str, f64, WorkloadSpec, bool)> = Vec::new();
    for (wname, make) in workloads {
        for theta in THETAS {
            cells.push((
                wname,
                theta,
                make(KeyDist::Zipfian { n: scale.warm_n, theta }),
                theta >= 0.9,
            ));
        }
    }
    cells.push((
        "colliding-stripe",
        0.0,
        WorkloadSpec::ycsb_a(KeyDist::Uniform { n: 256.min(scale.warm_n) }),
        false,
    ));
    let mut json_points: Vec<String> = Vec::new();

    for (wname, theta, spec, gated) in cells {
        {
            let cell = Cell::build(scale, scale.warm_n);
            let mut peak: [Vec<Point>; 2] =
                [vec![Point::default(); scale.threads.len()], vec![
                    Point::default();
                    scale.threads.len()
                ]];
            let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); scale.threads.len()];
            for r in 0..ROUNDS {
                cell.round(scale, &spec, &mut peak, &mut ratios, r % 2 == 1);
            }
            // Outrun noise before judging: a contended point whose ratio
            // median trails below 1 re-measures its back-to-back pair.
            // An equivalent-or-better striped variant's pairs straddle 1
            // and the growing sample's median converges across it; a real
            // regression keeps every pair below 1 and only accumulates
            // evidence for the sign test to reject.
            if gated {
                for r in 0..RESCUE_ROUNDS {
                    let tis = violations(scale, &ratios, forced8);
                    if tis.is_empty() {
                        break;
                    }
                    for ti in tis {
                        cell.measure_pair(scale, &spec, &mut peak, &mut ratios, ti, r % 2 == 0);
                    }
                }
            }

            if wname == "colliding-stripe" {
                println!(
                    "\n## contention-scale — {wname}, ycsb-a uniform 256-key hot window \
                     (reported, not asserted)\n"
                );
            } else {
                println!("\n## contention-scale — {wname}, zipfian θ={theta}\n");
            }
            let mut header = vec!["fallback".to_string()];
            header.extend(scale.threads.iter().map(|t| format!("{t} thr")));
            header.push("fb rate @max thr".into());
            header.push("escapes".into());
            header.push("stripe conf".into());
            let mut table =
                Table::new(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());
            for (v, vname) in VARIANTS.iter().enumerate() {
                let mut row = vec![vname.to_string()];
                row.extend(peak[v].iter().map(|p| fmt_tput(p.mops)));
                let last = peak[v].last().unwrap().stats;
                row.push(format!("{:.3}", last.fallback_rate()));
                row.push(last.stripe_escapes.to_string());
                row.push(last.stripe_conflicts.to_string());
                table.row(row);
            }
            table.print();

            for (ti, &threads) in scale.threads.iter().enumerate() {
                let rs = &ratios[ti];
                let med = median(rs);
                let w = wins(rs);
                let p = sign_test_p(w, rs.len());
                let point_asserted = gated && threads >= 2 && !(forced8 && threads == 8);
                if point_asserted {
                    // Two-part gate: statistically significant (p < 0.01)
                    // AND materially large (median < 0.95). PR 5 calibrated
                    // a plain p < 0.05 gate when skew drove frequent
                    // fallbacks and striped genuinely won contended points;
                    // PR 6's cached descent removed nearly all capacity
                    // aborts, so both tiers now sit idle on most points and
                    // their pair ratios are close to a fair coin — across a
                    // dozen asserted points a p-only gate false-rejects a
                    // healthy run more often than not. A real regression
                    // (like the per-read subscription tax PR 5 caught)
                    // drags every pair below 1: p ≈ 5e-7 and median ≈ 0.9
                    // still reject instantly.
                    gates.check(p >= 0.01 || med >= 0.95, || {
                        format!(
                            "striped fallback is materially worse at a contended point: \
                             {wname} θ={theta} {threads} thr — {w}/{} back-to-back pairs \
                             favour striped (sign-test p {:.4}), median pair ratio {:.3} \
                             (peaks: striped {:.0} ops/s, global {:.0} ops/s)",
                            rs.len(),
                            p,
                            med,
                            peak[0][ti].mops,
                            peak[1][ti].mops
                        )
                    });
                }
                let dist = rs
                    .iter()
                    .map(|r| format!("{r:.4}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                json_points.push(format!(
                    "    {{\"workload\": \"{wname}\", \"theta\": {theta}, \
                     \"asserted\": {point_asserted}, \
                     \"threads\": {threads}, \"median_pair_ratio\": {:.4}, \
                     \"pair_wins\": {w}, \"pair_n\": {}, \"sign_test_p\": {:.6}, \
                     \"pair_ratios\": [{dist}],\n     \
                     \"striped\": {},\n     \"global\": {}}}",
                    med,
                    rs.len(),
                    p,
                    variant_json(&peak[0][ti]),
                    variant_json(&peak[1][ti])
                ));
            }
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"pr5-contention-scale\",\n  \
         \"tree\": \"RnTree (striped two-tier fallback vs global-only fallback)\",\n  \
         \"workloads\": \"ycsb-a + ycsb-b, plain zipfian theta in [0.7, 0.9, 0.99], plus a \
         colliding-stripe adversary (ycsb-a, uniform 256-key hot window; reported but not \
         asserted — ROADMAP item 4 baseline for per-leaf fallback locks); an 8-thread point \
         is always included\",\n  \
         \"method\": \"per-point peak of {ROUNDS} rounds over warm tree pairs; each round \
         measures striped/global back-to-back and pair_ratios is the full distribution of \
         time-adjacent ratios (drift-free); contended points with median below 1 get paired \
         rescue measurements; stats are the HTM-counter delta of the peak round\",\n  \
         \"assertion\": \"one-sided sign test plus effect-size floor per theta >= 0.9, \
         >= 2-thread point: fails when significantly fewer than half the pairs favour \
         striped (binomial tail p < 0.01) AND the median pair ratio is below 0.95 \
         (checked by the bench itself; colliding-stripe and injected 8-thread points \
         are reported, not asserted)\",\n  \
         \"scale\": {{\"warm_n\": {}, \"write_latency_ns\": {}, \"seed\": {}, \
         \"duration_ms\": {}}},\n  \"points\": [\n{}\n  ]\n}}\n",
        scale.warm_n,
        scale.write_latency_ns,
        scale.seed,
        scale.duration.as_millis(),
        json_points.join(",\n")
    );
    std::fs::write(out_path, &json).expect("write contention-scale json");
    println!("\nwrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn contention_scale_smoke_emits_well_formed_json() {
        let scale = Scale {
            warm_n: 3_000,
            duration: Duration::from_millis(40),
            threads: vec![1, 2],
            write_latency_ns: 0,
            ..Scale::quick()
        };
        let path = std::env::temp_dir().join("contention_scale_smoke.json");
        let path = path.to_str().unwrap();
        contention_scale(&scale, path, Gates::Report);
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"bench\": \"pr5-contention-scale\""));
        assert!(body.contains("\"workload\": \"colliding-stripe\""));
        assert!(body.contains("\"asserted\": false"));
        assert!(body.contains("\"threads\": 8"));
        assert!(body.contains("\"median_pair_ratio\""));
        assert!(body.contains("\"pair_ratios\""));
        assert!(body.contains("\"sign_test_p\""));
        assert!(body.contains("\"striped\""));
        assert!(body.contains("\"fallbacks_global\""));
        assert!(body.contains("\"stripe_conflicts\""));
        std::fs::remove_file(path).ok();
    }

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
}
