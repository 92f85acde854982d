//! `repro shard-scale` — throughput and recovery scaling of the sharded
//! substrate (`nvm::PoolSet` + `index_common::ShardedIndex<RnTree>`).
//!
//! Two sweeps, both emitted to a machine-readable JSON file
//! (`BENCH_PR2.json` by default):
//!
//! 1. **Throughput** — YCSB-A (50/50 read/update, uniform keys) over a
//!    shard-count × thread-count grid. Each shard is a full RNTree on its
//!    own pool region with its own allocator, so adding shards should
//!    never cost throughput at ≥2 threads and buys headroom once the
//!    per-leaf HTM sections start conflicting. The shards share the
//!    process-wide STM and its one fallback lock, which couples them only
//!    while a fallback runs; point-op workloads rarely take one (a few
//!    per million ops on a skewed YCSB-A mix).
//!    Each row also shows the set's entries per shard and their largest
//!    ÷ mean ([`ShardedIndex::entry_skew`]): range routing keeps the skew
//!    of the inserted keys, so this is where imbalance shows.
//! 2. **Recovery** — warm a set, crash every region of the `PoolSet` at
//!    once, then time [`ShardedIndex::recover_timed`]: recovery runs one
//!    rebuild thread per shard, so the wall-clock should track the
//!    *slowest shard* (≈ total work / shards), not the total work.
//!
//! Like the rest of the harness this measures *shape* — monotone trends
//! and ratios — not absolute NVDIMM numbers.

use std::sync::Arc;
use std::time::Instant;

use index_common::{PersistentIndex, ShardedIndex};
use nvm::{PmemConfig, PoolSet};
use rntree::{RnConfig, RnTree};
use ycsb::{run_closed_loop, KeyDist, WorkloadSpec};

use crate::harness::{warm, Scale};
use crate::report::{fmt_tput, Table};

/// Sizes a `PoolSet` so each region fits its `1/shards` slice of `warm_n`
/// keys (plus split slack), mirroring `pool_for`'s RNTree sizing.
fn poolset_for(scale: &Scale, shards: usize, cfg_base: PmemConfig) -> PoolSet {
    let per_key = 100u64; // RNTree bytes/key incl. split slack (see harness)
    let per_shard =
        ((scale.warm_n / shards as u64 + 1) * per_key * 2).max(24 << 20) + (8 << 20);
    let mut cfg = cfg_base;
    cfg.size = (per_shard as usize) * shards;
    PoolSet::new(cfg, shards)
}

/// Shard counts for the sweep, capped so the quick config stays cheap.
fn shard_counts(scale: &Scale) -> Vec<usize> {
    let max_threads = scale.threads.iter().copied().max().unwrap_or(1);
    [1usize, 2, 4, 8].into_iter().filter(|&s| s <= max_threads.max(4)).collect()
}

/// Runs both sweeps, prints tables, and writes the JSON report.
pub fn shard_scale(scale: &Scale, out_path: &str) {
    let cfg = RnConfig::default();
    let shard_counts = shard_counts(scale);
    let spec = WorkloadSpec::ycsb_a(KeyDist::Uniform { n: scale.warm_n });

    // ---------------------------------------------------- throughput sweep
    println!("\n## shard-scale — YCSB-A uniform throughput, shards × threads\n");

    // All sets stay warm for the whole sweep, and rounds are interleaved
    // across shard counts with the per-cell *peak* kept, so slow drift
    // (frequency scaling, noisy neighbours) cannot systematically favour
    // whichever shard count happened to run first.
    const ROUNDS: usize = 5;
    let warmed: Vec<(usize, Arc<ShardedIndex<RnTree>>)> = shard_counts
        .iter()
        .map(|&shards| {
            let set = poolset_for(scale, shards, scale.bench_pool_cfg());
            let tree = Arc::new(ShardedIndex::<RnTree>::create(&set.handles(), cfg));
            warm(&*tree, scale.warm_n, scale.seed);
            (shards, tree)
        })
        .collect();
    // peak[shard index][thread index] = (Mops, pool_exhausted ops)
    let mut peak = vec![vec![(0f64, 0u64); scale.threads.len()]; warmed.len()];
    for _ in 0..ROUNDS {
        for (si, (_, tree)) in warmed.iter().enumerate() {
            let tree: Arc<dyn PersistentIndex> = Arc::clone(tree) as Arc<dyn PersistentIndex>;
            for (ti, &threads) in scale.threads.iter().enumerate() {
                let r = run_closed_loop(&tree, &spec, threads, scale.duration, scale.seed);
                if r.throughput() > peak[si][ti].0 {
                    peak[si][ti] = (r.throughput(), r.pool_exhausted);
                }
            }
        }
    }
    let mut header = vec!["shards".to_string()];
    header.extend(scale.threads.iter().map(|t| format!("{t} thr")));
    header.extend(["entries per shard".into(), "max / mean".into()]);
    let mut table = Table::new(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    let mut tput_rows: Vec<String> = Vec::new();
    for (si, (shards, tree)) in warmed.iter().enumerate() {
        let mut row = vec![shards.to_string()];
        let mut cells: Vec<String> = Vec::new();
        for (ti, &threads) in scale.threads.iter().enumerate() {
            let (tput, exhausted) = peak[si][ti];
            row.push(fmt_tput(tput));
            cells.push(format!(
                "{{\"threads\": {threads}, \"mops\": {:.4}, \"pool_exhausted\": {exhausted}}}",
                tput / 1e6
            ));
        }
        assert!(!tree.stats().pool_exhausted, "sweep must not exhaust its pools");
        let (entries, skew) = tree.entry_skew();
        row.extend([entries.iter().map(u64::to_string).collect::<Vec<_>>().join(" / "), format!("{skew:.2}")]);
        table.row(row);
        tput_rows.push(format!(
            "    {{\"shards\": {shards}, \"points\": [{}], \"entries\": {entries:?}, \"entries_max_over_mean\": {skew:.4}}}",
            cells.join(", ")
        ));
    }
    table.print();

    // ------------------------------------------------------ recovery sweep
    println!("\n## shard-scale — parallel crash recovery vs shard count\n");
    let mut table = Table::new(&["shards", "wall clock", "slowest shard", "mean shard"]);
    let mut rec_rows: Vec<String> = Vec::new();
    for &shards in &shard_counts {
        let set = poolset_for(scale, shards, scale.recovery_pool_cfg());
        {
            let tree = ShardedIndex::<RnTree>::create(&set.handles(), cfg);
            warm(&tree, scale.warm_n, scale.seed);
        }
        // Best of 3 crash/recover rounds: one-shot timings on a small box
        // are dominated by first-touch page faults on the freshly
        // allocated volatile tables, not by rebuild work.
        let (mut wall, mut times) = (std::time::Duration::MAX, Vec::new());
        for _ in 0..3 {
            set.simulate_crash();
            let t0 = Instant::now();
            let (tree, t) = ShardedIndex::<RnTree>::recover_timed(&set.handles(), cfg);
            let w = t0.elapsed();
            assert_eq!(tree.find(1), Some(1), "recovered set lost key 1");
            assert_eq!(tree.find(scale.warm_n), Some(scale.warm_n));
            if w < wall {
                (wall, times) = (w, t);
            }
        }
        let slowest = times.iter().copied().max().unwrap_or_default();
        let mean = times.iter().sum::<std::time::Duration>() / times.len() as u32;
        table.row(vec![
            shards.to_string(),
            format!("{:.2} ms", wall.as_secs_f64() * 1e3),
            format!("{:.2} ms", slowest.as_secs_f64() * 1e3),
            format!("{:.2} ms", mean.as_secs_f64() * 1e3),
        ]);
        let per_shard: Vec<String> =
            times.iter().map(|t| format!("{:.4}", t.as_secs_f64() * 1e3)).collect();
        rec_rows.push(format!(
            "    {{\"shards\": {shards}, \"wall_ms\": {:.4}, \"slowest_shard_ms\": {:.4}, \
             \"per_shard_ms\": [{}]}}",
            wall.as_secs_f64() * 1e3,
            slowest.as_secs_f64() * 1e3,
            per_shard.join(", ")
        ));
    }
    table.print();

    let json = format!(
        "{{\n  \"bench\": \"pr2-shard-scale\",\n  \"workload\": \"ycsb-a uniform\",\n  \
         \"tree\": \"ShardedIndex<RnTree>\",\n  \
         \"method\": \"per-cell peak of 5 interleaved rounds over warm trees\",\n  \
         \"scale\": {},\n  \"throughput\": [\n{}\n  ],\n  \"recovery\": [\n{}\n  ]\n}}\n",
        scale.json(),
        tput_rows.join(",\n"),
        rec_rows.join(",\n")
    );
    std::fs::write(out_path, &json).expect("write shard-scale json");
    println!("\nwrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn shard_counts_track_thread_budget() {
        let mut s = Scale::quick();
        s.threads = vec![1, 2];
        assert_eq!(shard_counts(&s), vec![1, 2, 4]);
        s.threads = vec![1, 2, 4, 8, 16];
        assert_eq!(shard_counts(&s), vec![1, 2, 4, 8]);
    }

    #[test]
    fn shard_scale_smoke_emits_json() {
        let scale = Scale {
            warm_n: 4_000,
            duration: Duration::from_millis(20),
            threads: vec![1, 2],
            write_latency_ns: 0,
            ..Scale::quick()
        };
        let path = std::env::temp_dir().join("shard_scale_smoke.json");
        let path = path.to_str().unwrap();
        shard_scale(&scale, path);
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"bench\": \"pr2-shard-scale\""));
        assert!(body.contains("\"throughput\""));
        assert!(body.contains("\"recovery\""));
        assert!(body.contains("\"entries_max_over_mean\": 1.0000"), "a bulk load splits evenly: {body}");
        std::fs::remove_file(path).ok();
    }
}
