//! # htm — hardware transactional memory, emulated in software
//!
//! RNTree's two headline ideas both lean on Intel RTM:
//!
//! 1. **A 64-byte atomic-write size.** Stores inside a hardware transaction
//!    stay in the L1 cache and become visible — to other cores *and to the
//!    NVM* — only when the transaction commits. RNTree exploits this to
//!    update its cache-line-sized slot array atomically, cutting the
//!    persistent-instruction count of a sorted-leaf modify from 4 (wB+Tree)
//!    to 2.
//! 2. **Cheap short critical sections** for internal-node traversal and
//!    slot-array snapshots. The snapshot, a read-only section over one
//!    64-byte line, is [`snapshot`]: a double collect of the words'
//!    version locks, which keeps it cheap here too, where a full
//!    [`atomic`] section would pay for a read set and a begin-time
//!    subscription that eight reads do not need.
//!
//! TSX is not available here (and is fused off on current CPUs), so this
//! crate provides a faithful software emulation: a TL2-style word-based
//! software transactional memory wearing an RTM-shaped API. The emulation
//! preserves every RTM property the algorithms rely on:
//!
//! * **Buffered stores.** Transactional writes live in the transaction's
//!   write set until commit; memory (and therefore the simulated NVM in the
//!   `nvm` crate — including its eviction injection) can never observe a
//!   partially-executed transaction.
//! * **Conflict aborts.** Per-word version validation detects concurrent
//!   writers; the loser aborts with [`AbortCode::Conflict`].
//! * **Capacity aborts.** Transactions track the distinct cache lines they
//!   touch and abort with [`AbortCode::Capacity`] past a fixed L1 budget
//!   of 512 lines read and 512 written (32 KiB, the paper's machine).
//! * **Flush-in-transaction aborts.** `CLWB`/`CLFLUSH` abort real RTM
//!   transactions; [`Txn::flush_attempt`] models the same rule.
//! * **Explicit aborts** (`XABORT`), used e.g. by FPTree's `find` when it
//!   sees a locked leaf.
//! * **The fallback lock.** Real RTM code retries a few times and then takes
//!   a fallback mutex whose acquisition aborts the transactions it races.
//!   [`atomic`] implements that loop with one fallback lock for the whole
//!   process, as the paper's hardware path has one global lock: a
//!   fallback run holds it, runs the body irrevocably and holds every
//!   touched word's version lock until the body ends. The version-lock
//!   table is process-wide, so the lock must be too: two fallbacks running
//!   at once could each wait forever for an entry the other holds. The
//!   retry policy is fixed: a bounded number of conflict retries, then the
//!   fallback; capacity and flush aborts fall back at once.
//!
//! The whole STM is process-wide: the clock, the version-lock table and
//! the fallback lock. A caller brings only its [`HtmStats`], the counters
//! each section is counted into.
//!
//! Transactionally-shared words are [`TmWord`]s (a `repr(transparent)`
//! wrapper over `AtomicU64`), so they can live anywhere — including inside
//! the `nvm` arena, which is how slot arrays are both transactional and
//! persistent.
//!
//! ## Example
//!
//! ```
//! use htm::{HtmStats, TmWord};
//!
//! let stats = HtmStats::default();
//! let a = TmWord::new(1);
//! let b = TmWord::new(2);
//! // Swap a and b atomically: no other transaction can see a torn state.
//! let (x, y) = htm::atomic(&stats, |txn| {
//!     let x = txn.read(&a)?;
//!     let y = txn.read(&b)?;
//!     txn.write(&a, y)?;
//!     txn.write(&b, x)?;
//!     Ok((x, y))
//! });
//! assert_eq!((x, y), (1, 2));
//! assert_eq!(a.load_direct(), 2);
//! assert_eq!(b.load_direct(), 1);
//! // The section was counted into the caller's stats.
//! assert_eq!(stats.snapshot().commits, 1);
//! ```

#![deny(missing_docs)]

mod domain;
mod fallback;
mod gate;
mod global;
mod smallset;
mod stats;
mod txn;
mod word;

pub use domain::{atomic, snapshot};
pub use gate::OptimisticGate;
pub use stats::{HtmStats, HtmStatsSnapshot};
pub use txn::{Abort, AbortCode, Txn};
pub use word::TmWord;

use std::cell::Cell;

std::thread_local! {
    static IN_TXN: Cell<bool> = const { Cell::new(false) };
}

/// True while the calling thread is inside an *optimistic* transaction.
///
/// Persistence code can `debug_assert!(!htm::in_transaction())` to enforce
/// the "no flush inside a hardware transaction" rule at its call sites.
/// The irrevocable fallback path reports `false`, because real RTM fallback
/// code may flush freely.
pub fn in_transaction() -> bool {
    IN_TXN.with(|f| f.get())
}

pub(crate) fn set_in_transaction(v: bool) {
    IN_TXN.with(|f| f.set(v));
}

/// Result type of transactional operations.
pub type TxResult<T> = Result<T, Abort>;
