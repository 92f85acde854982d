//! # bench — the RNTree paper's evaluation, regenerated
//!
//! One harness function per table/figure of the paper (§6), exposed both
//! as a library (for the `repro` binary and the criterion benches) and as
//! subcommands of `cargo run -p bench --release --bin repro`.
//!
//! | Experiment | Function | Paper claim being reproduced |
//! |---|---|---|
//! | Table 1 | [`experiments::table1`] | persists/modify: CDDS ∝L, NVTree 2, wB+Tree 4, SO 2, FPTree 3, RNTree 2 |
//! | Figure 4 | [`experiments::fig4`] | single-thread op throughput ordering; RNTree best/near-best |
//! | Figure 5 | [`experiments::fig5`] | NVTree conditional-write overhead ≈ 19% |
//! | Figure 6 | [`experiments::fig6`] | range query: sorted leaves ≈ 4.2× unsorted |
//! | Figure 7 | [`experiments::fig7`] | recovery ∝ tree size; crash ≈ 1.6× reconstruction |
//! | Figure 8 | [`experiments::fig8`] | scalability: uniform ~linear; skew kills FPTree; +DS best on reads |
//! | Figure 9 | [`experiments::fig9`] | open-loop latency: +DS reads ≪ RNTree ≪ FPTree |
//! | Figure 10 | [`experiments::fig10`] | θ sweep: FPTree collapses past 0.7; RNTree ≤ 2.3× faster |
//! | — | [`experiments::ablation_latency`] | persist-latency sensitivity (beyond the paper) |
//!
//! Absolute numbers are **not expected to match** the paper (its testbed
//! is a 24-core dual-socket NVDIMM machine; this substrate is a software
//! simulation, usually on far fewer cores) — the comparisons above are
//! about *shape*: who wins, by roughly what factor, and where crossovers
//! happen. EXPERIMENTS.md records paper-vs-measured per experiment.

pub mod batchbench;
pub mod cachebench;
pub mod combench;
pub mod experiments;
pub mod harness;
pub mod microbench;
pub mod obsbench;
pub mod paired;
pub mod report;
pub mod shardbench;
pub mod tracebench;
pub mod trendbench;
pub mod varbench;

pub use harness::{build_tree, pool_for, warm, Gates, Scale, TreeKind};
