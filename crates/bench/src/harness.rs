//! Tree factory, pool sizing, warm-up, and run-scale knobs.

use std::sync::Arc;
use std::time::Duration;

use baselines::{CddsTree, FpTree, NvTree, WbTree, WbVariant};
use index_common::PersistentIndex;
use nvm::{PmemConfig, PmemPool};
use rntree::{RnConfig, RnTree};

/// Every tree the evaluation builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    /// CDDS B-Tree (Table 1 only in the paper).
    Cdds,
    /// NVTree, original (non-conditional) behaviour.
    NvTree,
    /// NVTree with conditional-write scans (Figure 5).
    NvTreeCond,
    /// wB+Tree with the 64-byte slot array + valid bit.
    WbTree,
    /// wB+Tree-SO with the atomic 8-byte slot array.
    WbTreeSo,
    /// FPTree (selective concurrency).
    FpTree,
    /// RNTree without the dual slot array.
    RnTree,
    /// RNTree with the dual slot array.
    RnTreeDs,
}

impl TreeKind {
    /// All kinds, in the order tables are printed.
    pub const ALL: [TreeKind; 8] = [
        TreeKind::Cdds,
        TreeKind::NvTree,
        TreeKind::NvTreeCond,
        TreeKind::WbTree,
        TreeKind::WbTreeSo,
        TreeKind::FpTree,
        TreeKind::RnTree,
        TreeKind::RnTreeDs,
    ];

    /// The trees of the single-thread comparison (Figure 4).
    pub const FIG4: [TreeKind; 6] = [
        TreeKind::NvTree,
        TreeKind::WbTree,
        TreeKind::WbTreeSo,
        TreeKind::FpTree,
        TreeKind::RnTree,
        TreeKind::RnTreeDs,
    ];

    /// The concurrent trees (Figures 8–10).
    pub const CONCURRENT: [TreeKind; 3] = [TreeKind::FpTree, TreeKind::RnTree, TreeKind::RnTreeDs];

    /// Approximate pool bytes needed per warmed key, including split
    /// slack, for sizing [`pool_for`].
    fn bytes_per_key(self) -> u64 {
        match self {
            TreeKind::Cdds => 80,
            TreeKind::NvTree | TreeKind::NvTreeCond => 160,
            TreeKind::WbTree => 90,
            TreeKind::WbTreeSo => 140,
            TreeKind::FpTree => 90,
            TreeKind::RnTree | TreeKind::RnTreeDs => 100,
        }
    }
}

/// Creates a pool sized for `kind` warmed with `n` keys plus headroom for
/// `extra` additional inserts.
pub fn pool_for(kind: TreeKind, n: u64, extra: u64, cfg_base: PmemConfig) -> Arc<PmemPool> {
    let bytes = ((n + extra) * kind.bytes_per_key() * 2).max(32 << 20) + (16 << 20);
    let mut cfg = cfg_base;
    cfg.size = bytes as usize;
    Arc::new(PmemPool::new(cfg))
}

/// Builds a tree of the given kind on `pool`. `seq` selects the
/// sequential-traversal single-thread path (used by every tree equally in
/// the single-thread experiments, as in the paper).
pub fn build_tree(kind: TreeKind, pool: Arc<PmemPool>, seq: bool) -> Arc<dyn PersistentIndex> {
    match kind {
        TreeKind::Cdds => Arc::new(CddsTree::create(pool, seq)),
        TreeKind::NvTree => Arc::new(NvTree::create(pool, seq)),
        TreeKind::NvTreeCond => Arc::new(NvTree::new_conditional(pool, seq)),
        TreeKind::WbTree => Arc::new(WbTree::create(pool, WbVariant::Full, seq)),
        TreeKind::WbTreeSo => Arc::new(WbTree::create(pool, WbVariant::SmallSlot, seq)),
        TreeKind::FpTree => Arc::new(FpTree::create(pool, seq)),
        TreeKind::RnTree => Arc::new(RnTree::create(
            pool,
            RnConfig {
                dual_slot: false,
                seq_traversal: seq,
                ..RnConfig::default()
            },
        )),
        TreeKind::RnTreeDs => Arc::new(RnTree::create(
            pool,
            RnConfig {
                dual_slot: true,
                seq_traversal: seq,
                ..RnConfig::default()
            },
        )),
    }
}

/// Warms a (fresh, empty) tree with keys `1..=n`, value = key, through the
/// batched bulk-load path: [`PersistentIndex::load_sorted`] builds full
/// leaves directly on trees that support it (RNTree) and falls back to a
/// sorted upsert replay on the baselines. Severalfold faster than the old
/// shuffled upsert loop, and every benchmark pays it before each measured
/// window. The `seed` parameter is kept for call-site compatibility; the
/// loaded contents are order-independent, so it no longer matters.
pub fn warm(tree: &dyn PersistentIndex, n: u64, seed: u64) {
    let _ = seed;
    let pairs: Vec<(u64, u64)> = (1..=n).map(|k| (k, k)).collect();
    tree.load_sorted(&pairs).expect("warm bulk load failed");
}

/// Whether a bench enforces its timing-dependent gates.
///
/// Sign tests, effect-size floors, latency deadlines and contention-driven
/// rankings depend on the host. The `repro` subcommands (and their CI
/// steps) run with [`Gates::Enforce`]; unit smokes run the same code with
/// [`Gates::Report`], so `cargo test` checks only the JSON schema and
/// structural counters and passes on any host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gates {
    /// A gate that does not hold panics.
    Enforce,
    /// A gate that does not hold is printed and the run goes on.
    Report,
}

impl Gates {
    /// Checks one gate: `msg` describes the failure when `held` is false.
    pub fn check(self, held: bool, msg: impl FnOnce() -> String) {
        if held {
            return;
        }
        match self {
            Gates::Enforce => panic!("{}", msg()),
            Gates::Report => println!("gate not met (reported, not enforced): {}", msg()),
        }
    }
}

/// Run-scale knobs shared by every experiment.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Keys pre-loaded before measuring (the paper warms 16 M).
    pub warm_n: u64,
    /// Measurement window per data point.
    pub duration: Duration,
    /// Thread counts for the scalability sweep (the paper goes to 24).
    pub threads: Vec<usize>,
    /// Workers for the open-loop latency experiment (paper: 24).
    pub latency_workers: usize,
    /// NVM write latency to simulate, nanoseconds (paper media: 140).
    pub write_latency_ns: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            warm_n: 200_000,
            duration: Duration::from_millis(1_500),
            threads: vec![1, 2, 4, 8, 16, 24],
            latency_workers: 24,
            write_latency_ns: 140,
            seed: 0xC0FFEE,
        }
    }
}

impl Scale {
    /// The `"scale"` object a bench report embeds.
    pub fn json(&self) -> String {
        format!(
            "{{\"warm_n\": {}, \"write_latency_ns\": {}, \"seed\": {}, \"duration_ms\": {}}}",
            self.warm_n,
            self.write_latency_ns,
            self.seed,
            self.duration.as_millis()
        )
    }

    /// A fast configuration for smoke runs and CI.
    pub fn quick() -> Scale {
        Scale {
            warm_n: 30_000,
            duration: Duration::from_millis(300),
            threads: vec![1, 2, 4],
            latency_workers: 8,
            ..Scale::default()
        }
    }

    /// Pool config for throughput runs: latency model on, shadow off.
    pub fn bench_pool_cfg(&self) -> PmemConfig {
        PmemConfig {
            size: 0, // filled by pool_for
            write_latency_ns: self.write_latency_ns,
            shadow: false,
        }
    }

    /// Pool config for recovery runs: latency on *and* shadow on (crash
    /// simulation needs the durable image).
    pub fn recovery_pool_cfg(&self) -> PmemConfig {
        PmemConfig {
            size: 0,
            write_latency_ns: self.write_latency_ns,
            shadow: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_and_serves_every_kind() {
        for kind in TreeKind::ALL {
            let pool = pool_for(kind, 500, 0, PmemConfig::fast(0));
            let tree = build_tree(kind, pool, true);
            warm(&*tree, 500, 1);
            for k in [1u64, 250, 500] {
                assert_eq!(tree.find(k), Some(k), "{kind:?} key {k}");
            }
            assert_eq!(tree.find(501), None, "{kind:?}");
            let mut out = Vec::new();
            assert_eq!(tree.scan_n(100, 10, &mut out), 10, "{kind:?}");
            assert_eq!(out[0].0, 100);
        }
    }

    #[test]
    fn concurrent_kinds_report_concurrency() {
        for kind in TreeKind::CONCURRENT {
            let pool = pool_for(kind, 100, 0, PmemConfig::fast(0));
            let tree = build_tree(kind, pool, false);
            assert!(tree.supports_concurrency(), "{kind:?}");
        }
    }
}
