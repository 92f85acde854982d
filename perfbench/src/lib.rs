//! # perfbench — the standing benchmark of the deployed RNTree stack
//!
//! One command runs `GroupCommit<ShardedIndex<RnTree>>` — the stack a
//! library user deploys — on one of three closed-loop YCSB workloads,
//! checks every result, crashes and recovers the pools, and prints the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced
//! run, with timing shims between the layers). See `README.md` in this
//! directory for why each workload exists and what each metric should
//! move.

mod cpu;
pub mod metrics;
pub mod run;
pub mod shim;
pub mod workload;

pub use run::{run, Outcome};
pub use workload::{Inputs, Op, OpClass, Spec, Workload};
