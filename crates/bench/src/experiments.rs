//! One function per table/figure of the paper's evaluation (§6).

use std::sync::Arc;
use std::time::{Duration, Instant};

use index_common::PersistentIndex;
use nvm::{PmemConfig, SplitMix64};
use rntree::{RnConfig, RnTree};
use ycsb::{run_closed_loop, run_open_loop, KeyDist, WorkloadSpec};

use crate::harness::{build_tree, pool_for, warm, Gates, Scale, TreeKind};
use crate::report::{fmt_ns, fmt_tput, Table};

/// Runs `f(i)` for `d`, returning ops/sec.
fn duration_loop(mut f: impl FnMut(u64), d: Duration) -> f64 {
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < d {
        f(i);
        i += 1;
    }
    i as f64 / start.elapsed().as_secs_f64()
}

/// Runs `f(i)` exactly `n` times, returning ops/sec.
fn count_loop(mut f: impl FnMut(u64), n: u64) -> f64 {
    let start = Instant::now();
    for i in 0..n {
        f(i);
    }
    n as f64 / start.elapsed().as_secs_f64()
}

fn fresh_warmed(kind: TreeKind, scale: &Scale, extra: u64, seq: bool) -> Arc<dyn PersistentIndex> {
    let pool = pool_for(kind, scale.warm_n, extra, scale.bench_pool_cfg());
    let tree = build_tree(kind, pool, seq);
    warm(&*tree, scale.warm_n, scale.seed);
    tree
}

// ---------------------------------------------------------------- Table 1

/// Table 1: persistent instructions per modify operation, measured.
///
/// For each tree we run a batch of each modify operation on a warmed tree
/// and report the *minimum* per-op persist count (operations that trigger
/// a split/compaction pay extra; the minimum is the steady-state cost the
/// paper tabulates) alongside sortedness and concurrency support.
pub fn table1(scale: &Scale) {
    println!("\n## Table 1 — persistent instructions per modify (measured)\n");
    let mut t = Table::new(&[
        "tree",
        "insert",
        "update",
        "remove",
        "sorted leaf",
        "concurrency",
    ]);
    let n = 2_000u64.min(scale.warm_n);
    for kind in TreeKind::ALL {
        if kind == TreeKind::NvTreeCond {
            continue; // same persist profile as NvTree
        }
        let pool = pool_for(kind, n, 4_000, PmemConfig::fast(0));
        let tree = build_tree(kind, Arc::clone(&pool), true);
        warm(&*tree, n, scale.seed);

        // Median per-op persist count over a randomised batch: robust to
        // the occasional split/compaction, while still exposing CDDS's
        // shift-proportional cost (unlike a minimum, which a lucky
        // rightmost append would hide).
        let median_for = |op: &dyn Fn(u64)| -> u64 {
            let mut counts = Vec::with_capacity(200);
            for i in 0..200u64 {
                let before = pool.stats().snapshot();
                op(i);
                counts.push(pool.stats().snapshot().since(&before).persists);
            }
            counts.sort_unstable();
            counts[counts.len() / 2]
        };
        // Inserts draw random fresh keys scattered far above the warmed
        // range, so sorted-in-place trees (CDDS) land at random positions
        // rather than always appending rightmost.
        let mut ins_rng = SplitMix64::new(scale.seed ^ 0xF00D);
        let mut ins_counts = Vec::with_capacity(200);
        for _ in 0..200 {
            let k = n + 1 + ins_rng.next_below(50 * n);
            let before = pool.stats().snapshot();
            let _ = tree.upsert(k, 1);
            ins_counts.push(pool.stats().snapshot().since(&before).persists);
        }
        ins_counts.sort_unstable();
        let ins = ins_counts[ins_counts.len() / 2];
        let upd = median_for(&|i| {
            let _ = tree.update(i % n + 1, 2);
        });
        let rem = median_for(&|i| {
            let _ = tree.remove(i % n + 1);
        });
        let sorted = match kind {
            TreeKind::NvTree | TreeKind::NvTreeCond | TreeKind::FpTree => "no",
            _ => "yes",
        };
        let conc = match kind {
            TreeKind::FpTree => "coarse (leaf lock)",
            TreeKind::RnTree | TreeKind::RnTreeDs => "fine grained",
            _ => "none",
        };
        t.row(vec![
            tree.name().into(),
            ins.to_string(),
            upd.to_string(),
            rem.to_string(),
            sorted.into(),
            conc.into(),
        ]);
    }
    t.print();
    println!("\n(paper: CDDS ∝L, NVTree 2, wB+Tree 4, wB+Tree-SO 2, FPTree 3, RNTree 2)");
}

// ---------------------------------------------------------------- Figure 4

/// Figure 4: single-thread throughput of find / insert / update / remove /
/// mixed, for every tree, with sequential traversal for all (as in §6.2).
pub fn fig4(scale: &Scale) {
    println!("\n## Figure 4 — single-thread operation throughput\n");
    println!(
        "(warm {} keys, NVM write latency {} ns)\n",
        scale.warm_n, scale.write_latency_ns
    );
    let mut t = Table::new(&["tree", "find", "insert", "update", "remove", "mixed"]);
    for kind in TreeKind::FIG4 {
        let n = scale.warm_n;
        let count = (n / 2).max(1_000);

        // find
        let tree = fresh_warmed(kind, scale, 0, true);
        let mut rng = SplitMix64::new(scale.seed);
        let find = duration_loop(
            |_| {
                let k = rng.next_key(n);
                std::hint::black_box(tree.find(k));
            },
            scale.duration,
        );

        // insert (fresh keys)
        let tree = fresh_warmed(kind, scale, count, true);
        let insert = count_loop(
            |i| {
                let _ = tree.insert(n + 1 + i, i);
            },
            count,
        );

        // update
        let tree = fresh_warmed(kind, scale, 0, true);
        let mut rng = SplitMix64::new(scale.seed + 1);
        let update = duration_loop(
            |_| {
                let k = rng.next_key(n);
                let _ = tree.upsert(k, k + 1);
            },
            scale.duration,
        );

        // remove (distinct warmed keys, paper runs this briefly)
        let tree = fresh_warmed(kind, scale, 0, true);
        let mut order: Vec<u64> = (1..=n).collect();
        SplitMix64::new(scale.seed + 2).shuffle(&mut order);
        let rem_count = (n / 4).max(1_000).min(order.len() as u64);
        let remove = count_loop(
            |i| {
                let _ = tree.remove(order[i as usize]);
            },
            rem_count,
        );

        // mixed: 25% each of find/insert/update/remove (§6.2.4)
        let tree = fresh_warmed(kind, scale, count, true);
        let mut rng = SplitMix64::new(scale.seed + 3);
        let mut fresh = n + 1;
        let mut order: Vec<u64> = (1..=n).collect();
        SplitMix64::new(scale.seed + 4).shuffle(&mut order);
        let mut rem_i = 0usize;
        let mixed = count_loop(
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
        );

        t.row(vec![
            format!("{:?}", kind),
            fmt_tput(find),
            fmt_tput(insert),
            fmt_tput(update),
            fmt_tput(remove),
            fmt_tput(mixed),
        ]);
    }
    t.print();
    println!("\n(paper: RNTree best-or-near-best on find/insert/update; FPTree best remove; RNTree mixed +25–44%)");
}

// ---------------------------------------------------------------- Figure 5

/// Figure 5: NVTree conditional-write overhead (paper: ≈19%).
pub fn fig5(scale: &Scale) {
    println!("\n## Figure 5 — NVTree conditional-write overhead\n");
    let mut t = Table::new(&["variant", "insert", "update", "mixed ins+upd"]);
    let mut results = Vec::new();
    for kind in [TreeKind::NvTree, TreeKind::NvTreeCond] {
        let n = scale.warm_n;
        let count = (n / 2).max(1_000);
        let tree = fresh_warmed(kind, scale, count, true);
        let insert = count_loop(
            |i| {
                let _ = tree.insert(n + 1 + i, i);
            },
            count,
        );
        let tree = fresh_warmed(kind, scale, 0, true);
        let mut rng = SplitMix64::new(scale.seed);
        let update = duration_loop(
            |_| {
                let k = rng.next_key(n);
                let _ = tree.update(k, 1).or_else(|_| tree.upsert(k, 1));
            },
            scale.duration,
        );
        let tree = fresh_warmed(kind, scale, count, true);
        let mut rng = SplitMix64::new(scale.seed + 1);
        let mut fresh = n + 1;
        let mixed = count_loop(
            |_| {
                if rng.next_f64() < 0.5 {
                    let _ = tree.insert(fresh, 1);
                    fresh += 1;
                } else {
                    let k = rng.next_key(n);
                    let _ = tree.upsert(k, 2);
                }
            },
            count,
        );
        results.push((insert, update, mixed));
        t.row(vec![
            if kind == TreeKind::NvTree { "NVTree".into() } else { "NVTree(cond)".into() },
            fmt_tput(insert),
            fmt_tput(update),
            fmt_tput(mixed),
        ]);
    }
    t.print();
    let slow = 100.0 * (1.0 - results[1].2 / results[0].2);
    println!("\nconditional-write slowdown on mixed modify: {slow:.1}% (paper: ≈19%)");
    println!("(RNTree supports conditional writes at zero cost via the sorted slot array)");
}

// ---------------------------------------------------------------- Figure 6

/// Figure 6: range-query throughput vs number of KVs per query.
pub fn fig6(scale: &Scale) {
    println!("\n## Figure 6 — range query throughput vs KVs per query\n");
    let sizes = [10usize, 50, 100, 500, 1000];
    let kinds = [TreeKind::NvTree, TreeKind::WbTree, TreeKind::FpTree, TreeKind::RnTreeDs];
    let mut header = vec!["tree".to_string()];
    header.extend(sizes.iter().map(|s| format!("{s} KVs")));
    let mut t = Table::new(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    let mut by_kind = Vec::new();
    for kind in kinds {
        let tree = fresh_warmed(kind, scale, 0, true);
        let n = scale.warm_n;
        let mut row = vec![format!("{:?}", kind)];
        let mut tputs = Vec::new();
        for &len in &sizes {
            let mut rng = SplitMix64::new(scale.seed);
            let mut buf = Vec::with_capacity(len);
            let tput = duration_loop(
                |_| {
                    let start = rng.next_key(n);
                    std::hint::black_box(tree.scan_n(start, len, &mut buf));
                },
                scale.duration / 2,
            );
            tputs.push(tput);
            row.push(fmt_tput(tput));
        }
        by_kind.push((kind, tputs));
        t.row(row);
    }
    t.print();
    let rn = &by_kind.iter().find(|(k, _)| *k == TreeKind::RnTreeDs).unwrap().1;
    let nv = &by_kind.iter().find(|(k, _)| *k == TreeKind::NvTree).unwrap().1;
    let ratios: Vec<String> = rn.iter().zip(nv).map(|(a, b)| format!("{:.1}×", a / b)).collect();
    println!("\nRNTree+DS / NVTree speedup per size: {} (paper: ≈4.2×)", ratios.join(", "));
}

// ---------------------------------------------------------------- Figure 7

/// Figure 7: recovery time vs tree size — internal-node reconstruction
/// (clean restart) vs full crash recovery.
pub fn fig7(scale: &Scale) {
    println!("\n## Figure 7 — recovery time vs tree size\n");
    let mut t = Table::new(&["keys", "reconstruction", "crash recovery", "ratio"]);
    for factor in [4u64, 2, 1] {
        let n = scale.warm_n / factor;
        let pool = pool_for(TreeKind::RnTreeDs, n, 0, scale.recovery_pool_cfg());
        let cfg = RnConfig::default();
        let tree = RnTree::create(Arc::clone(&pool), cfg);
        warm(&tree, n, scale.seed);
        tree.close();
        drop(tree);

        let t0 = Instant::now();
        let tree = RnTree::reopen_clean(Arc::clone(&pool), cfg);
        let reconstruction = t0.elapsed();
        assert_eq!(tree.find(1), Some(1));
        drop(tree);

        pool.simulate_crash();
        let t0 = Instant::now();
        let tree = RnTree::recover(Arc::clone(&pool), cfg);
        let crash = t0.elapsed();
        assert_eq!(tree.find(n), Some(n));

        t.row(vec![
            n.to_string(),
            format!("{:.2} ms", reconstruction.as_secs_f64() * 1e3),
            format!("{:.2} ms", crash.as_secs_f64() * 1e3),
            format!("{:.2}×", crash.as_secs_f64() / reconstruction.as_secs_f64().max(1e-9)),
        ]);
    }
    t.print();
    println!("\n(paper: both linear in tree size; crash recovery ≈1.6× reconstruction)");
}

// ---------------------------------------------------------------- Figure 8

/// Figure 8: throughput scalability over threads for FPTree / RNTree /
/// RNTree+DS under (a) uniform YCSB-A, (b) zipf-0.8 YCSB-A, (c) zipf-0.8
/// read-intensive 90/10.
pub fn fig8(scale: &Scale) {
    for (panel, label, spec_of) in [
        (
            "a",
            "YCSB-A, uniform",
            Box::new(|n: u64| WorkloadSpec::ycsb_a(KeyDist::Uniform { n })) as Box<dyn Fn(u64) -> WorkloadSpec>,
        ),
        (
            "b",
            "YCSB-A, zipfian θ=0.8 (scrambled)",
            Box::new(|n| WorkloadSpec::ycsb_a(KeyDist::ScrambledZipfian { n, theta: 0.8 })),
        ),
        (
            "c",
            "read-intensive 90/10, zipfian θ=0.8 (scrambled)",
            Box::new(|n| WorkloadSpec::read_intensive(KeyDist::ScrambledZipfian { n, theta: 0.8 })),
        ),
    ] {
        println!("\n## Figure 8({panel}) — {label}\n");
        let mut header = vec!["tree".to_string()];
        header.extend(scale.threads.iter().map(|t| format!("{t} thr")));
        header.push("abort ratio @max".into());
        let mut t = Table::new(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());
        for kind in TreeKind::CONCURRENT {
            let pool = pool_for(kind, scale.warm_n, 0, scale.bench_pool_cfg());
            let tree = build_tree(kind, pool, false);
            warm(&*tree, scale.warm_n, scale.seed);
            let spec = spec_of(scale.warm_n);
            let mut row = vec![format!("{:?}", kind)];
            let mut last_stats = String::new();
            for &threads in &scale.threads {
                let r = run_closed_loop(&tree, &spec, threads, scale.duration, scale.seed);
                row.push(fmt_tput(r.throughput()));
                last_stats = tree
                    .htm_abort_ratio()
                    .map_or_else(|| "-".into(), |r| format!("{r:.3}"));
            }
            row.push(last_stats);
            t.row(row);
        }
        t.print();
    }
    println!("\n(paper: (a) both scale ~linearly; (b) FPTree stops at 4 threads, RNTree ≈1.8× at 24; (c) RNTree+DS near-linear)");
}

// ---------------------------------------------------------------- Figure 9

/// Figure 9: open-loop latency vs offered request frequency (per worker),
/// 50% read / 50% update, zipfian θ=0.8, `scale.latency_workers` workers.
pub fn fig9(scale: &Scale) {
    println!("\n## Figure 9 — latency vs request frequency ({} workers, 50/50, zipf 0.8)\n", scale.latency_workers);
    // Beyond ~4000/s/worker an 8-on-1-core box saturates on scheduler
    // churn alone; the informative regime is below that knee.
    let rates = [500.0, 1_000.0, 2_000.0, 3_000.0, 5_000.0];
    for kind in TreeKind::CONCURRENT {
        let pool = pool_for(kind, scale.warm_n, 0, scale.bench_pool_cfg());
        let tree = build_tree(kind, pool, false);
        warm(&*tree, scale.warm_n, scale.seed);
        let spec = WorkloadSpec::ycsb_a(KeyDist::ScrambledZipfian {
            n: scale.warm_n,
            theta: 0.8,
        });
        println!("### {:?}\n", kind);
        let mut t = Table::new(&["rate/worker", "read mean", "read p99", "update mean", "update p99", "achieved ops/s"]);
        for &rate in &rates {
            let r = run_open_loop(&tree, &spec, scale.latency_workers, rate, scale.duration, scale.seed);
            t.row(vec![
                format!("{rate:.0}/s"),
                fmt_ns(r.read_lat.mean() as u64),
                fmt_ns(r.read_lat.quantile(0.99)),
                fmt_ns(r.update_lat.mean() as u64),
                fmt_ns(r.update_lat.quantile(0.99)),
                fmt_tput(r.throughput()),
            ]);
        }
        t.print();
        println!();
    }
    println!("(paper: FPTree read ≤15 µs / update ≈5 µs; RNTree read ≈6 µs / update <2 µs; RNTree+DS read <1 µs)");
}

/// `repro open-loop`: the unloaded open-loop latency bound. Two workers
/// offer 500 req/s each for 400 ms (YCSB-A, scrambled Zipfian θ 0.8) to a
/// 5,000-key RNTree filled by inserts; the median read latency from the
/// scheduled arrival, queueing included, must stay under 2 ms. Fixed
/// scenario: the scale options do not apply.
pub fn open_loop_gate(gates: Gates) {
    let tree = RnTree::create(Arc::new(nvm::PmemPool::new(PmemConfig::fast(1 << 26))), RnConfig::default());
    for k in 1..=5_000 {
        tree.insert(k, k).expect("fill insert");
    }
    let tree: Arc<dyn PersistentIndex> = Arc::new(tree);
    let spec = WorkloadSpec::ycsb_a(KeyDist::ScrambledZipfian { n: 5_000, theta: 0.8 });
    let r = run_open_loop(&tree, &spec, 2, 500.0, Duration::from_millis(400), 17);
    let (p50, p99) = (r.read_lat.quantile(0.5), r.read_lat.quantile(0.99));
    println!("\n## open-loop latency gate\n\n{} ops; read p50 {} (bound 2 ms), p99 {}", r.ops, fmt_ns(p50), fmt_ns(p99));
    gates.check(p50 < 2_000_000, || format!("unloaded read p50 {p50} ns is not under 2 ms"));
}

// ---------------------------------------------------------------- Figure 10

/// Figure 10: YCSB-A throughput at fixed threads while sweeping the
/// zipfian coefficient 0.5 → 0.99.
pub fn fig10(scale: &Scale) {
    let threads = scale.threads.iter().copied().find(|&t| t >= 8).unwrap_or(*scale.threads.last().unwrap());
    println!("\n## Figure 10 — skew sensitivity (YCSB-A, {threads} threads)\n");
    let thetas = [0.5, 0.6, 0.7, 0.8, 0.9, 0.99];
    let mut header = vec!["tree".to_string()];
    header.extend(thetas.iter().map(|t| format!("θ={t}")));
    let mut t = Table::new(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    let mut per_kind: Vec<Vec<f64>> = Vec::new();
    for kind in TreeKind::CONCURRENT {
        let pool = pool_for(kind, scale.warm_n, 0, scale.bench_pool_cfg());
        let tree = build_tree(kind, pool, false);
        warm(&*tree, scale.warm_n, scale.seed);
        let mut row = vec![format!("{:?}", kind)];
        let mut tputs = Vec::new();
        for &theta in &thetas {
            let spec = WorkloadSpec::ycsb_a(KeyDist::ScrambledZipfian {
                n: scale.warm_n,
                theta,
            });
            let r = run_closed_loop(&tree, &spec, threads, scale.duration, scale.seed);
            tputs.push(r.throughput());
            row.push(fmt_tput(r.throughput()));
        }
        per_kind.push(tputs);
        t.row(row);
    }
    t.print();
    let ratios: Vec<String> = per_kind[2]
        .iter()
        .zip(&per_kind[0])
        .map(|(rn, fp)| format!("{:.2}×", rn / fp))
        .collect();
    println!("\nRNTree+DS / FPTree per θ: {} (paper: FPTree drops past θ=0.7; RNTree up to 2.3×)", ratios.join(", "));
}

// ---------------------------------------------------------------- §4.2 breakdown

/// §4.2's motivating measurement: *"We test the CPU cycles consumed by all
/// steps and find that the flush step consumes most CPU cycles in a modify
/// operation."* We time the four steps of a modify in isolation, using the
/// same primitives the tree uses.
pub fn breakdown(scale: &Scale) {
    println!("\n## §4.2 — where a modify operation's time goes (measured)\n");
    let pool = pool_for(TreeKind::RnTreeDs, 1_000, 0, scale.bench_pool_cfg());
    let stats = htm::HtmStats::default();
    let counter = pool.atomic_u64(4096);
    let kv = 8192u64;
    let slot_base = 12_288u64;
    let reps = 200_000u64;

    let time = |f: &mut dyn FnMut()| -> f64 {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        t0.elapsed().as_nanos() as f64 / reps as f64
    };

    // (1) allocate a log entry: one CAS on the packed counter word.
    let alloc = time(&mut || {
        let _ = counter.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
    });
    // (2) write the KV data: two plain stores.
    let mut v = 0u64;
    let write = time(&mut || {
        v += 1;
        pool.store_u64(kv, v);
        pool.store_u64(kv + 8, v);
    });
    // (3) flush the log entry: one persistent instruction.
    let flush = time(&mut || pool.persist(kv, 16));
    // (4) update the metadata: the slot-array HTM transaction + its flush.
    let words: Vec<&htm::TmWord> = (0..8)
        .map(|i| htm::TmWord::from_atomic(pool.atomic_u64(slot_base + i * 8)))
        .collect();
    let meta_txn = time(&mut || {
        htm::atomic(&stats, |txn| {
            for w in &words {
                let x = txn.read(w)?;
                txn.write(w, x.wrapping_add(1))?;
            }
            Ok(())
        });
    });
    let meta_flush = time(&mut || pool.persist(slot_base, 64));
    let meta = meta_txn + meta_flush;

    let total = alloc + write + flush + meta;
    let mut t = Table::new(&["step (§4.2)", "ns/op", "share"]);
    for (name, ns) in [
        ("1. allocate log entry (CAS)", alloc),
        ("2. write data into entry", write),
        ("3. flush the log entry", flush),
        ("4. update metadata (HTM slot txn + flush)", meta),
    ] {
        t.row(vec![name.into(), format!("{ns:.0}"), format!("{:.0}%", 100.0 * ns / total)]);
    }
    t.print();
    println!(
        "\nstep 4 split: {meta_txn:.0} ns software-TM transaction + {meta_flush:.0} ns flush\n\
         (real RTM sections cost tens of ns; the TM share is emulation overhead).\n\
         Flush instructions alone are {:.0}% of a modify — the paper's\n\
         justification for moving the log flush out of the critical section.",
        100.0 * (flush + meta_flush) / total
    );
}

// ---------------------------------------------------------------- Ablation

/// Beyond the paper: sensitivity of the single-thread insert gap to the
/// simulated NVM persist latency. With free persists the persist-count
/// advantage vanishes; the gap should widen with latency.
pub fn ablation_latency(scale: &Scale) {
    println!("\n## Ablation — persist-latency sensitivity (single-thread insert)\n");
    let lats = [0u64, 140, 300, 600, 1200];
    let mut header = vec!["tree".to_string()];
    header.extend(lats.iter().map(|l| format!("{l} ns")));
    let mut t = Table::new(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    let mut results: Vec<Vec<f64>> = Vec::new();
    for kind in [TreeKind::WbTree, TreeKind::RnTreeDs] {
        let mut row = vec![format!("{:?}", kind)];
        let mut tputs = Vec::new();
        for &lat in &lats {
            let mut sc = scale.clone();
            sc.write_latency_ns = lat;
            let n = sc.warm_n;
            let count = (n / 2).max(1_000);
            let tree = fresh_warmed(kind, &sc, count, true);
            let tput = count_loop(
                |i| {
                    let _ = tree.insert(n + 1 + i, i);
                },
                count,
            );
            tputs.push(tput);
            row.push(fmt_tput(tput));
        }
        results.push(tputs);
        t.row(row);
    }
    t.print();
    let ratios: Vec<String> = results[1]
        .iter()
        .zip(&results[0])
        .map(|(rn, wb)| format!("{:.2}×", rn / wb))
        .collect();
    println!("\nRNTree+DS / wB+Tree per latency: {}", ratios.join(", "));
    println!("(expected: ratio grows with persist latency — 2 persists vs 4)");
}

