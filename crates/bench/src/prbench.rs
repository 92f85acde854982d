//! `repro bench-json` — machine-readable before/after numbers for the
//! fingerprinted leaf search.
//!
//! Emits a JSON file (default `BENCH_PR1.json`) with single-thread Mops/s
//! for find/insert/update/remove/mixed per tree. The RNTree variants are
//! measured twice: **before** disables the fingerprint probe
//! (`RnConfig::fingerprints = false`, the paper's plain binary-search
//! leaf lookup and an ablation knob of its own); **after** is the
//! current default. Both arms share everything else — the branch-light
//! descent, leaf prefetching and the overlapped KV flush are always on —
//! so the delta is the fingerprint probe alone. The committed
//! `BENCH_PR1.json` predates this and records the seed's full hot-path
//! delta. The baselines are reported once for context.
//!
//! The workloads are the same deterministic loops as Figure 4, so numbers
//! here are directly comparable with `repro fig4` output.

use std::sync::Arc;
use std::time::{Duration, Instant};

use index_common::PersistentIndex;
use nvm::SplitMix64;
use rntree::{RnConfig, RnTree};

use crate::harness::{build_tree, pool_for, warm, Scale, TreeKind};

/// Single-thread throughput per operation, ops/sec.
#[derive(Debug, Clone, Copy)]
pub struct OpRates {
    /// Point lookups on warmed keys.
    pub find: f64,
    /// Inserts of fresh keys.
    pub insert: f64,
    /// Upserts of warmed keys.
    pub update: f64,
    /// Removes of distinct warmed keys.
    pub remove: f64,
    /// 25/25/25/25 mix of the above (§6.2.4).
    pub mixed: f64,
}

impl OpRates {
    fn zero() -> OpRates {
        OpRates {
            find: 0.0,
            insert: 0.0,
            update: 0.0,
            remove: 0.0,
            mixed: 0.0,
        }
    }

    /// Per-op maximum of two measurements (peak throughput is the robust
    /// estimator under scheduler/frequency noise).
    fn max(self, o: OpRates) -> OpRates {
        OpRates {
            find: self.find.max(o.find),
            insert: self.insert.max(o.insert),
            update: self.update.max(o.update),
            remove: self.remove.max(o.remove),
            mixed: self.mixed.max(o.mixed),
        }
    }
}

fn duration_loop(mut f: impl FnMut(u64), d: Duration) -> f64 {
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < d {
        f(i);
        i += 1;
    }
    i as f64 / start.elapsed().as_secs_f64()
}

fn count_loop(mut f: impl FnMut(u64), n: u64) -> f64 {
    let start = Instant::now();
    for i in 0..n {
        f(i);
    }
    n as f64 / start.elapsed().as_secs_f64()
}

/// Peak rate over `times` runs of `f`. The count-based workloads finish in
/// tens of milliseconds, so a single scheduler preemption costs ±20%; the
/// duration-based ones run seconds and do not need this.
fn peak(times: usize, f: impl Fn() -> f64) -> f64 {
    (0..times).map(|_| f()).fold(0.0, f64::max)
}

/// Runs the Figure-4 workload suite against trees built by `mk`. `mk` gets
/// the number of extra (beyond warm) keys the workload will insert and must
/// return a freshly warmed tree.
pub fn measure(scale: &Scale, mk: &dyn Fn(u64) -> Arc<dyn PersistentIndex>) -> OpRates {
    let n = scale.warm_n;
    let count = (n / 2).max(1_000);

    let tree = mk(0);
    let mut rng = SplitMix64::new(scale.seed);
    let find = duration_loop(
        |_| {
            let k = rng.next_key(n);
            std::hint::black_box(tree.find(k));
        },
        scale.duration,
    );

    let insert = peak(3, || {
        let tree = mk(count);
        count_loop(
            |i| {
                let _ = tree.insert(n + 1 + i, i);
            },
            count,
        )
    });

    let tree = mk(0);
    let mut rng = SplitMix64::new(scale.seed + 1);
    let update = duration_loop(
        |_| {
            let k = rng.next_key(n);
            let _ = tree.upsert(k, k + 1);
        },
        scale.duration,
    );

    let remove = peak(3, || {
        let tree = mk(0);
        let mut order: Vec<u64> = (1..=n).collect();
        SplitMix64::new(scale.seed + 2).shuffle(&mut order);
        let rem_count = (n / 4).max(1_000).min(order.len() as u64);
        count_loop(
            |i| {
                let _ = tree.remove(order[i as usize]);
            },
            rem_count,
        )
    });

    let mixed = peak(3, || {
        let tree = mk(count);
        let mut rng = SplitMix64::new(scale.seed + 3);
        let mut fresh = n + 1;
        let mut order: Vec<u64> = (1..=n).collect();
        SplitMix64::new(scale.seed + 4).shuffle(&mut order);
        let mut rem_i = 0usize;
        count_loop(
            |_| match rng.next_below(4) {
                0 => {
                    let k = rng.next_key(n);
                    std::hint::black_box(tree.find(k));
                }
                1 => {
                    let _ = tree.insert(fresh, 1);
                    fresh += 1;
                }
                2 => {
                    let k = rng.next_key(n);
                    let _ = tree.upsert(k, 2);
                }
                _ => {
                    if rem_i < order.len() {
                        let _ = tree.remove(order[rem_i]);
                        rem_i += 1;
                    }
                }
            },
            count,
        )
    });

    OpRates {
        find,
        insert,
        update,
        remove,
        mixed,
    }
}

/// `optimized = false` builds the "before" configuration (no fingerprint
/// probe); `true` is the current default.
fn rn_factory<'a>(scale: &'a Scale, dual: bool, optimized: bool) -> impl Fn(u64) -> Arc<dyn PersistentIndex> + 'a {
    let kind = if dual { TreeKind::RnTreeDs } else { TreeKind::RnTree };
    move |extra| {
        let pool = pool_for(kind, scale.warm_n, extra, scale.bench_pool_cfg());
        let tree: Arc<dyn PersistentIndex> = Arc::new(RnTree::create(
            pool,
            RnConfig {
                dual_slot: dual,
                seq_traversal: true,
                fingerprints: optimized,
                ..RnConfig::default()
            },
        ));
        warm(&*tree, scale.warm_n, scale.seed);
        tree
    }
}

fn baseline_factory<'a>(scale: &'a Scale, kind: TreeKind) -> impl Fn(u64) -> Arc<dyn PersistentIndex> + 'a {
    move |extra| {
        let pool = pool_for(kind, scale.warm_n, extra, scale.bench_pool_cfg());
        let tree = build_tree(kind, pool, true);
        warm(&*tree, scale.warm_n, scale.seed);
        tree
    }
}

fn mops(rates: OpRates) -> String {
    format!(
        "{{\"find\": {:.4}, \"insert\": {:.4}, \"update\": {:.4}, \"remove\": {:.4}, \"mixed\": {:.4}}}",
        rates.find / 1e6,
        rates.insert / 1e6,
        rates.update / 1e6,
        rates.remove / 1e6,
        rates.mixed / 1e6
    )
}

fn pct(before: f64, after: f64) -> f64 {
    (after - before) / before * 100.0
}

/// Runs the before/after suite and writes `out_path`. Also prints a short
/// human-readable summary to stdout.
pub fn bench_json(scale: &Scale, out_path: &str) {
    println!("\n## bench-json — hot-path before/after (single-thread, Mops/s)\n");

    let mut tree_objs: Vec<String> = Vec::new();

    for kind in [TreeKind::NvTree, TreeKind::WbTreeSo, TreeKind::FpTree] {
        let rates = measure(scale, &baseline_factory(scale, kind));
        println!("{kind:?}: after {}", mops(rates));
        tree_objs.push(format!(
            "    {{\"tree\": \"{kind:?}\", \"after\": {}}}",
            mops(rates)
        ));
    }

    // Interleave before/after rounds and keep the per-op peak, so slow
    // drift (frequency scaling, noisy neighbours) cannot land on one side.
    const ROUNDS: usize = 6;
    for dual in [false, true] {
        let name = if dual { "RNTree+DS" } else { "RNTree" };
        let mut before = OpRates::zero();
        let mut after = OpRates::zero();
        for _ in 0..ROUNDS {
            before = before.max(measure(scale, &rn_factory(scale, dual, false)));
            after = after.max(measure(scale, &rn_factory(scale, dual, true)));
        }
        println!("{name}: before {}", mops(before));
        println!("{name}: after  {}", mops(after));
        println!(
            "{name}: find {:+.1}%  mixed {:+.1}%",
            pct(before.find, after.find),
            pct(before.mixed, after.mixed)
        );
        tree_objs.push(format!(
            "    {{\"tree\": \"{name}\", \"before\": {}, \"after\": {}, \"improvement_pct\": \
             {{\"find\": {:.2}, \"insert\": {:.2}, \"update\": {:.2}, \"remove\": {:.2}, \"mixed\": {:.2}}}}}",
            mops(before),
            mops(after),
            pct(before.find, after.find),
            pct(before.insert, after.insert),
            pct(before.update, after.update),
            pct(before.remove, after.remove),
            pct(before.mixed, after.mixed),
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"pr1-hot-path\",\n  \"units\": \"Mops/s\",\n  \"threads\": 1,\n  \
         \"before_means\": \"fingerprints off (plain binary-search leaf lookup); descent, leaf prefetch and KV flush identical to after\",\n  \
         \"method\": \"per-op peak of 6 interleaved before/after rounds; count-based workloads additionally take the best of 3 fresh-tree runs\",\n  \
         \"scale\": {{\"warm_n\": {}, \"write_latency_ns\": {}, \"seed\": {}}},\n  \"trees\": [\n{}\n  ]\n}}\n",
        scale.warm_n,
        scale.write_latency_ns,
        scale.seed,
        tree_objs.join(",\n")
    );
    std::fs::write(out_path, &json).expect("write bench json");
    println!("\nwrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_runs_and_reports_positive_rates() {
        let scale = Scale {
            warm_n: 2_000,
            duration: Duration::from_millis(20),
            write_latency_ns: 0,
            ..Scale::quick()
        };
        let rates = measure(&scale, &rn_factory(&scale, true, true));
        for r in [rates.find, rates.insert, rates.update, rates.remove, rates.mixed] {
            assert!(r > 0.0, "{rates:?}");
        }
    }

    #[test]
    fn fingerprint_toggle_produces_identical_results() {
        // Correctness guard for the before/after comparison: both sides
        // must compute the same answers on the same workload.
        let scale = Scale {
            warm_n: 3_000,
            duration: Duration::from_millis(5),
            write_latency_ns: 0,
            ..Scale::quick()
        };
        let on = rn_factory(&scale, false, true)(0);
        let off = rn_factory(&scale, false, false)(0);
        let mut rng = SplitMix64::new(7);
        for _ in 0..2_000 {
            let k = rng.next_key(scale.warm_n * 2);
            assert_eq!(on.find(k), off.find(k), "key {k}");
        }
    }
}
