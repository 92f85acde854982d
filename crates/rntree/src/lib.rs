//! # rntree — RNTree: a scalable NVM-based B+tree built with HTM
//!
//! Reference Rust implementation of the data structure from *Building
//! Scalable NVM-based B+tree with HTM* (Liu, Xing, Chen, Wu — ICPP 2019),
//! on the simulated substrates of the `nvm` (persistent memory) and `htm`
//! (hardware transactional memory) crates.
//!
//! ## The two ideas
//!
//! **1. A cache-line-sized slot array (§4.1).** Leaf entries are append-only
//! logs; a 64-byte *slot array* (1 count byte + 63 entry indices) records
//! their sorted order. Because all slot-array mutations run inside a
//! hardware transaction, the whole line updates atomically — the transaction
//! either commits (and the later line flush is itself atomic) or leaves the
//! old line intact. A modify operation therefore needs only **two persistent
//! instructions** — one for the KV log entry, one for the slot line — while
//! keeping the leaf sorted, beating wB+Tree's four (valid-bit dance) and
//! matching NVTree's two (which gives up sorting).
//!
//! **2. Overlapping persistency and concurrency (§4.2, §4.3).** Of a modify
//! operation's four steps, only log allocation and metadata update need
//! concurrency control, and only the log flush is slow. RNTree allocates
//! log entries with a lock-free CAS, flushes them **outside** the leaf lock
//! (concurrent flushes proceed in parallel), and keeps only the slot-array
//! update inside the lock. The **dual slot array** (§4.4) adds a transient
//! copy of the slot array, updated after the persistent copy is flushed;
//! readers snapshot the transient copy, so they can never observe
//! un-persisted data (the *read-uncommitted anomaly*, §3.5) and never
//! conflict with writers except during the tiny copy transaction. With dual
//! slots, the leaf version — the readers' retry trigger — changes only on
//! splits instead of on every modification.
//!
//! Internal nodes are volatile (shared `index-common` layer); recovery
//! rebuilds them from the persistent leaf chain (§5.4).
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use nvm::{PmemConfig, PmemPool};
//! use rntree::{RnConfig, RnTree};
//! use index_common::PersistentIndex;
//!
//! let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 22)));
//! let tree = RnTree::create(Arc::clone(&pool), RnConfig::default());
//! tree.insert(42, 4200).unwrap();
//! assert_eq!(tree.find(42), Some(4200));
//!
//! // Un-persisted state never leaks: crash and recover.
//! pool.simulate_crash();
//! let tree = RnTree::recover(pool, RnConfig::default());
//! assert_eq!(tree.find(42), Some(4200));
//! ```

#![deny(missing_docs)]

mod fingerprint;
mod format;
mod hashleaf;
mod layout;
mod leaf;
mod recovery;
mod report;
mod slots;
mod tree;
mod varleaf;
mod version;

pub use hashleaf::HashDir;
pub use report::SpaceReport;
pub use layout::{LAYOUT_HASH, LAYOUT_SORTED, LEAF_BLOCK, LEAF_CAPACITY, MAX_LIVE};
pub use recovery::ConfigError;
pub use slots::SlotBuf;
pub use tree::{LeafHeat, LeafPolicy, RnConfig, RnStats, RnTree};
pub use version::LeafVersion;
