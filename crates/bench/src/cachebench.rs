//! `repro cache-scale` — working-set sweep of the DRAM page cache over
//! the NVM inner index (PR 6).
//!
//! The question: does serving inner-node descent from version-validated
//! DRAM frames ([`nvm::PageCache`] + `InnerIndex::traverse_cached`) beat
//! the all-transactional descent it replaces, and does it degrade
//! gracefully — never below the uncached baseline — once the working set
//! outgrows the frame budget? Two regimes answer both halves:
//!
//! * **resident** — a frame budget comfortably above the inner-node
//!   count, so after warm-up every descent level is a cache hit;
//! * **overflow** — a budget far below the inner-node count. The cache
//!   admits nodes into free frames only and never evicts, so once the
//!   frames are full the rest of the leaf-parent level is never cached:
//!   those misses take the non-blocking gate-validated direct-read path,
//!   which is the no-cliff claim under test.
//!
//! Each regime runs the *same* `RnTree` twice — `cache_frames = budget`
//! vs `cache_frames = 0` — over YCSB-B (95/5) with uniform keys (uniform
//! is the adversarial distribution for a bounded cache: no skew to hide
//! behind). Warm tree pairs live for the whole cell and are measured as
//! [`crate::paired`] order-alternated pairs, with rescue rounds for
//! unmet points. The bench asserts its own acceptance criteria:
//!
//! * resident, ≥ 2 threads: cached must be **detectably better** —
//!   significantly more than half the pairs above 1 (binomial tail
//!   p < 0.05) *and* median ratio > 1;
//! * overflow, ≥ 2 threads: cached must be **not detectably worse**
//!   (sign-test p ≥ 0.05), i.e. no cliff past the frame budget.
//!
//! Alongside throughput, each cached point reports the cache-counter
//! delta of its peak round (hit rate, fills, invalidations, optimistic
//! restarts) so the JSON shows *why* each regime behaves as
//! it does.

use std::sync::Arc;

use index_common::PersistentIndex;
use nvm::CacheStats;
use rntree::{RnConfig, RnTree};
use ycsb::{run_closed_loop, KeyDist, WorkloadSpec};

use crate::harness::{pool_for, warm, Gates, Scale, TreeKind};
use crate::paired::{median, ratios_json, sweep, Order, Summary, ROUNDS};
use crate::report::{fmt_tput, Table};

/// The two working-set regimes: (name, frame budget, what must hold).
/// Budgets are chosen against the inner-node population at the default
/// 200 k-key warm (≈ 3.2 k leaves → ≈ 105 inner nodes): 1024 frames hold
/// every inner node several times over; 8 frames cannot even hold the
/// leaf-parent level, so most of it is read in place on every descent.
const REGIMES: [(&str, usize); 2] = [("resident", 1024), ("overflow", 8)];

/// One measured point: peak throughput plus (for the cached variant) the
/// cache-counter delta of the peak round.
#[derive(Clone, Copy, Default)]
struct Point {
    mops: f64,
    cache: CacheStats,
    descent_restarts: u64,
    tm_fallbacks: u64,
}

/// Variant order inside a cell (and in every table/JSON row).
const VARIANTS: [&str; 2] = ["cached", "uncached"];

/// The cached/uncached tree pair of one regime cell.
struct Cell {
    trees: [Arc<RnTree>; 2],
    dyns: [Arc<dyn PersistentIndex>; 2],
}

impl Cell {
    fn build(scale: &Scale, frames: usize) -> Cell {
        let trees: [Arc<RnTree>; 2] = [frames, 0].map(|cache_frames| {
            let pool = pool_for(
                TreeKind::RnTree,
                scale.warm_n,
                scale.warm_n / 8,
                scale.bench_pool_cfg(),
            );
            let tree = Arc::new(RnTree::create(
                pool,
                RnConfig {
                    cache_frames,
                    ..RnConfig::default()
                },
            ));
            warm(&*tree, scale.warm_n, scale.seed);
            tree
        });
        let dyns: [Arc<dyn PersistentIndex>; 2] = [trees[0].clone() as _, trees[1].clone() as _];
        Cell { trees, dyns }
    }

    /// Measures variant `v` at thread index `ti` once, folding the result
    /// into `peak` if it is a new per-point maximum. Returns the round's
    /// throughput.
    fn measure(
        &self,
        scale: &Scale,
        spec: &WorkloadSpec,
        peak: &mut [Vec<Point>; 2],
        v: usize,
        ti: usize,
    ) -> f64 {
        let threads = scale.threads[ti];
        let cache_before = self.trees[v].cache_stats().unwrap_or_default();
        let descent_before = self.trees[v].descent_stats();
        let r = run_closed_loop(&self.dyns[v], spec, threads, scale.duration, scale.seed);
        assert_eq!(r.pool_exhausted, 0, "{} pool exhausted", VARIANTS[v]);
        if r.throughput() > peak[v][ti].mops {
            let descent = self.trees[v].descent_stats();
            peak[v][ti] = Point {
                mops: r.throughput(),
                cache: self.trees[v]
                    .cache_stats()
                    .unwrap_or_default()
                    .delta(&cache_before),
                descent_restarts: descent.restarts - descent_before.restarts,
                tm_fallbacks: descent.tm_fallbacks - descent_before.tm_fallbacks,
            };
        }
        r.throughput()
    }
}

/// Runs the sweep, prints per-regime tables, asserts both acceptance
/// criteria, and writes the JSON report.
///
/// Timing gates panic only under [`Gates::Enforce`]; see [`Gates`].
pub fn cache_scale(scale: &Scale, out_path: &str, gates: Gates) {
    let spec = WorkloadSpec::ycsb_b(KeyDist::Uniform { n: scale.warm_n });
    let mut json_points: Vec<String> = Vec::new();

    for (regime, frames) in REGIMES {
        let cell = Cell::build(scale, frames);
        let n_points = scale.threads.len();
        let mut peak: [Vec<Point>; 2] =
            [vec![Point::default(); n_points], vec![Point::default(); n_points]];
        // Rescue: resident points until cached wins detectably, overflow
        // points until the pairs straddle 1.
        let ratios = sweep(
            n_points,
            Order::Alternated,
            |v, ti| cell.measure(scale, &spec, &mut peak, v, ti),
            |ti, rs| {
                scale.threads[ti] >= 2
                    && if regime == "resident" {
                        !Summary::of(rs).detectably_better()
                    } else {
                        median(rs) < 1.0
                    }
            },
        );

        println!("\n## cache-scale — {regime} ({frames} frames), ycsb-b uniform\n");
        let mut table =
            Table::per_thread("descent", &scale.threads, &["hit rate @max thr", "fills"]);
        for (v, vname) in VARIANTS.iter().enumerate() {
            let mut row = vec![vname.to_string()];
            row.extend(peak[v].iter().map(|p| fmt_tput(p.mops)));
            let last = peak[v].last().unwrap();
            if v == 0 {
                row.push(format!("{:.3}", last.cache.hit_rate()));
                row.push(last.cache.fills.to_string());
            } else {
                row.push("-".into());
                row.push("-".into());
            }
            table.row(row);
        }
        table.print();

        for (ti, &threads) in scale.threads.iter().enumerate() {
            let s = Summary::of(&ratios[ti]);
            let (w, n) = (s.wins, s.n);
            if threads >= 2 {
                if regime == "resident" {
                    gates.check(s.detectably_better(), || {
                        format!(
                            "cached descent is not detectably better on a cache-resident \
                             working set: {regime} {threads} thr — {w}/{n} pairs favour \
                             cached (p_better {:.4}), median pair ratio {:.3} \
                             (peaks: cached {:.0} ops/s, uncached {:.0} ops/s)",
                            s.p_better,
                            s.median,
                            peak[0][ti].mops,
                            peak[1][ti].mops
                        )
                    });
                } else {
                    gates.check(s.not_detectably_worse(), || {
                        format!(
                            "cached descent fell off a cliff past the frame budget: \
                             {regime} {threads} thr — only {w}/{n} pairs favour cached \
                             (sign-test p {:.4}), median pair ratio {:.3}",
                            s.p_worse, s.median
                        )
                    });
                }
            }
            let dist = ratios_json(&ratios[ti]);
            let c = &peak[0][ti];
            json_points.push(format!(
                "    {{\"regime\": \"{regime}\", \"frames\": {frames}, \
                 \"threads\": {threads}, \"median_pair_ratio\": {:.4}, \
                 \"pair_wins\": {w}, \"pair_n\": {n}, \"sign_test_p_worse\": {:.6}, \
                 \"sign_test_p_better\": {:.6}, \"pair_ratios\": [{dist}],\n     \
                 \"cached\": {{\"mops\": {:.4}, \"hit_rate\": {:.4}, \"hits\": {}, \
                 \"misses\": {}, \"fills\": {}, \"invalidations\": {}, \
                 \"read_restarts\": {}, \"descent_restarts\": {}, \"tm_fallbacks\": {}}},\n     \
                 \"uncached\": {{\"mops\": {:.4}}}}}",
                s.median,
                s.p_worse,
                s.p_better,
                c.mops / 1e6,
                c.cache.hit_rate(),
                c.cache.hits,
                c.cache.misses,
                c.cache.fills,
                c.cache.invalidations,
                c.cache.read_restarts,
                c.descent_restarts,
                c.tm_fallbacks,
                peak[1][ti].mops / 1e6,
            ));
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"pr6-cache-scale\",\n  \
         \"tree\": \"RnTree (DRAM page cache descent vs all-transactional descent)\",\n  \
         \"workload\": \"ycsb-b, uniform keys over the warmed space\",\n  \
         \"method\": \"per-point peak of {ROUNDS} rounds over warm tree pairs; each round \
         measures cached/uncached back-to-back and pair_ratios is the full distribution of \
         time-adjacent ratios (drift-free); unmet points get paired rescue measurements; \
         cached stats are the cache-counter delta of the peak round\",\n  \
         \"assertion\": \"resident regime, >= 2 threads: cached detectably better (median > 1 \
         and binomial tail on losses p < 0.05); overflow regime: cached not detectably worse \
         (sign-test p >= 0.05); checked by the bench itself\",\n  \
         \"scale\": {},\n  \"points\": [\n{}\n  ]\n}}\n",
        scale.json(),
        json_points.join(",\n")
    );
    std::fs::write(out_path, &json).expect("write cache-scale json");
    println!("\nwrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn cache_scale_smoke_emits_json() {
        let scale = Scale {
            warm_n: 3_000,
            duration: Duration::from_millis(40),
            threads: vec![1, 2],
            write_latency_ns: 0,
            ..Scale::quick()
        };
        let path = std::env::temp_dir().join("cache_scale_smoke.json");
        let path = path.to_str().unwrap();
        cache_scale(&scale, path, Gates::Report);
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"bench\": \"pr6-cache-scale\""));
        assert!(body.contains("\"regime\": \"resident\""));
        assert!(body.contains("\"regime\": \"overflow\""));
        assert!(body.contains("\"hit_rate\""));
        assert!(body.contains("\"pair_ratios\""));
        std::fs::remove_file(path).ok();
    }
}
