//! `repro` — regenerate every table and figure of the RNTree paper.
//!
//! ```text
//! cargo run -p bench --release --bin repro -- all
//! cargo run -p bench --release --bin repro -- fig8 --warm 500000 --threads 1,2,4,8
//! ```
//!
//! Subcommands: `table1 fig4 fig5 fig6 fig7 fig8 fig9 fig10 ablation all`,
//! plus `shard-scale` (sharded-substrate throughput/recovery sweep, written to
//! `BENCH_PR2.json` or `--out PATH`), `batch-scale` (batched write
//! pipeline: load_sorted vs insert-loop fill plus an insert_batch batch-
//! size sweep, written to `BENCH_PR3.json` or `--out PATH`), and
//! `obs-report` (unified observability snapshot: per-op latency
//! quantiles, HTM abort taxonomy, phase breakdown, crash forensics, and
//! the instrumentation-overhead measurement, written to `BENCH_PR4.json`
//! plus a sibling `.prom` Prometheus file), and `cache-scale` (DRAM
//! page-cache descent vs the all-transactional descent across
//! cache-resident and overflow working sets; asserts a detectable win
//! when resident and no cliff when overflowing; written to
//! `BENCH_PR6.json` or `--out PATH`), and
//! `varkey-scale` (variable-length string-key workloads: asserts the
//! `U64Key` codec path is not detectably slower than the native u64 API,
//! and reports oracle-checked string-cell throughput with head-tie
//! counters; written to `BENCH_PR7.json` or `--out PATH`), and
//! `group-scale` (flat-combining group commit vs direct per-op writes on
//! a write-heavy plain-Zipfian mix at 2/4/8 writer threads, with the
//! persists/op reduction and the open-loop p99-under-flush-deadline
//! check; written to `BENCH_PR10.json` or `--out PATH`), and
//! `trace-scale` (structural heat attribution + per-op counter digest +
//! time-resolved metrics: asserts the conflict heatmap ranks the
//! planted 256-key hot window's leaves above the uniform control's,
//! and carries per-window p50/p99 series plus the critical-path digest
//! — counter deltas over the adversary cell divided by its ops; written
//! to `BENCH_PR9.json` or `--out PATH`), and `trace-report` (the
//! human-readable digest of the same run: critical-path breakdown,
//! top-K hot leaves/stripes next to the abort mix, timeline table; add
//! `--assert-overhead PCT` for the CI gate), and `bench-index`
//! (cross-PR trend table harvested from every committed
//! `BENCH_PR*.json`, written to `BENCH_TRAJECTORY.md` or `--out PATH`).
//! `open-loop` checks one unloaded open-loop latency bound (read p50
//! under 2 ms at 2 x 500 req/s) and exits non-zero if it does not hold.
//! `BENCH_PR1.json`, `BENCH_PR5.json` and `BENCH_PR8.json` have no
//! subcommand: they are the kept records of the fingerprint-off-vs-on
//! leaf search, the striped-vs-global fallback and the hash-leaf and
//! adaptive-layout comparisons, whose arms no longer exist.
//! Options: `--quick` (small smoke run), `--warm N`, `--duration-ms N`,
//! `--threads a,b,c`, `--latency-ns N`, `--workers N`, `--seed N`,
//! `--out PATH`, `--assert-overhead PCT` (obs-report, trace-scale and
//! trace-report: fail the run if enabled-instrumentation overhead
//! exceeds PCT percent).

use std::time::Duration;

use bench::experiments;
use bench::{Gates, Scale};

fn usage() -> ! {
    eprintln!(
        "usage: repro <table1|fig4|fig5|fig6|fig7|fig8|fig9|fig10|ablation|breakdown|shard-scale|batch-scale|obs-report|cache-scale|varkey-scale|trace-scale|trace-report|group-scale|bench-index|open-loop|all> \
         [--quick] [--warm N] [--duration-ms N] [--threads a,b,c] \
         [--latency-ns N] [--workers N] [--seed N] [--out PATH] [--assert-overhead PCT]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args[0].clone();
    let mut scale = Scale::default();
    let mut out_path = String::from(match cmd.as_str() {
        "shard-scale" => "BENCH_PR2.json",
        "batch-scale" => "BENCH_PR3.json",
        "obs-report" => "BENCH_PR4.json",
        "cache-scale" => "BENCH_PR6.json",
        "varkey-scale" => "BENCH_PR7.json",
        "trace-scale" => "BENCH_PR9.json",
        "group-scale" => "BENCH_PR10.json",
        "bench-index" => "BENCH_TRAJECTORY.md",
        _ => "",
    });
    let mut assert_overhead: Option<f64> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                scale = Scale::quick();
                i += 1;
            }
            "--warm" => {
                scale.warm_n = args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
                i += 2;
            }
            "--duration-ms" => {
                let ms: u64 = args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
                scale.duration = Duration::from_millis(ms);
                i += 2;
            }
            "--threads" => {
                let list = args.get(i + 1).unwrap_or_else(|| usage());
                scale.threads = list
                    .split(',')
                    .map(|v| v.parse().unwrap_or_else(|_| usage()))
                    .collect();
                i += 2;
            }
            "--latency-ns" => {
                scale.write_latency_ns =
                    args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
                i += 2;
            }
            "--workers" => {
                scale.latency_workers =
                    args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
                i += 2;
            }
            "--seed" => {
                scale.seed = args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
                i += 2;
            }
            "--out" => {
                out_path = args.get(i + 1).unwrap_or_else(|| usage()).clone();
                i += 2;
            }
            "--assert-overhead" => {
                assert_overhead =
                    Some(args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
                i += 2;
            }
            _ => usage(),
        }
    }

    println!("# RNTree reproduction — {cmd}");
    println!(
        "scale: warm_n={} duration={:?} threads={:?} workers={} latency={}ns seed={}",
        scale.warm_n,
        scale.duration,
        scale.threads,
        scale.latency_workers,
        scale.write_latency_ns,
        scale.seed
    );

    match cmd.as_str() {
        "table1" => experiments::table1(&scale),
        "fig4" => experiments::fig4(&scale),
        "fig5" => experiments::fig5(&scale),
        "fig6" => experiments::fig6(&scale),
        "fig7" => experiments::fig7(&scale),
        "fig8" => experiments::fig8(&scale),
        "fig9" => experiments::fig9(&scale),
        "fig10" => experiments::fig10(&scale),
        "ablation" => experiments::ablation_latency(&scale),
        "breakdown" => experiments::breakdown(&scale),
        "shard-scale" => bench::shardbench::shard_scale(&scale, &out_path),
        "batch-scale" => bench::batchbench::batch_scale(&scale, &out_path),
        "obs-report" => bench::obsbench::obs_report(&scale, &out_path, assert_overhead),
        "cache-scale" => bench::cachebench::cache_scale(&scale, &out_path, Gates::Enforce),
        "varkey-scale" => bench::varbench::varkey_scale(&scale, &out_path, Gates::Enforce),
        "trace-scale" => {
            bench::tracebench::trace_scale(&scale, &out_path, assert_overhead, Gates::Enforce)
        }
        "trace-report" => bench::tracebench::trace_report(&scale, assert_overhead),
        "group-scale" => bench::combench::group_scale(&scale, &out_path, Gates::Enforce),
        "open-loop" => experiments::open_loop_gate(Gates::Enforce),
        "bench-index" => {
            bench::trendbench::bench_index(std::path::Path::new("."), &out_path)
        }
        "all" => {
            experiments::table1(&scale);
            experiments::fig4(&scale);
            experiments::fig5(&scale);
            experiments::fig6(&scale);
            experiments::fig7(&scale);
            experiments::fig8(&scale);
            experiments::fig9(&scale);
            experiments::fig10(&scale);
            experiments::ablation_latency(&scale);
            experiments::breakdown(&scale);
        }
        _ => usage(),
    }
}
