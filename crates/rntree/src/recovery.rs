//! Construction and recovery (paper §5.4).
//!
//! Internal nodes are volatile, so any (re)start rebuilds them from the
//! persistent leaf chain, whose head lives at a well-known root slot. Two
//! paths exist, matching the paper's Figure 7 distinction:
//!
//! * **Reconstruction** ([`RnTree::reopen_clean`]) after a clean shutdown:
//!   leaf headers (`nlogs`, `plogs`) were persisted by [`RnTree::close`],
//!   so the scan only reads each leaf's slot count and maximum key.
//! * **Crash recovery** ([`RnTree::recover`]): first replay the split undo
//!   journal, then scan the chain resetting the non-crash-consistent
//!   scratch per leaf — lock word cleared, `nlogs`/`plogs` recomputed from
//!   the slot array ("scan the slot array to find the max index of log
//!   entries"), transient slot array rebuilt from the persistent one.
//!
//! Both paths end by bulk-building the internal levels from the
//! `(max key, leaf)` pairs and rebuilding the block allocator's free list
//! from the set of chain-reachable blocks.

use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;

use index_common::{leaf_ref, InnerIndex};
use nvm::{BlockAllocator, PageCache, PmemPool, RootTable, UndoJournal};
use obs::{EventKind, PhaseTimers};

use crate::fingerprint::FpTable;
use crate::format::{LeafFormat, U64Format};
use crate::layout::LEAF_CAPACITY;
use crate::leaf::{Leaf, WhichSlot};
use crate::tree::{roots, RnConfig, RnTree, MAGIC};
use crate::varleaf::{VarFormat, VarLeaf};

/// A pool/config disagreement detected while opening or formatting a
/// pool: the layout-affecting `RnConfig` flags are recorded in the pool's
/// root table at create time, and every open validates them against the
/// config it was handed before touching a single leaf. The panicking
/// constructors ([`RnTree::create`], [`RnTree::recover`],
/// [`RnTree::reopen_clean`]) wrap the `try_` variants and panic with the
/// `Display` text below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The magic root word does not identify an RNTree pool.
    BadMagic {
        /// The word found where the RNTree magic was expected.
        found: u64,
    },
    /// The pool was formatted with a different journal-slot count; the
    /// journal region size (and thus the leaf region base) would differ.
    JournalSlotsMismatch {
        /// Slot count recorded in the pool.
        pool: u64,
        /// Slot count the config asked for.
        cfg: u64,
    },
    /// The pool's leaf block family (u64 vs variable-length) differs from
    /// the config's `varlen_leaves` flag.
    VarlenMismatch {
        /// True when the pool holds variable-length leaves.
        pool: bool,
        /// The config's `varlen_leaves` flag.
        cfg: bool,
    },
    /// The pool's reserved leaf-policy root word is non-zero: an older
    /// build formatted it with hash-directory or adaptive leaves (word 1
    /// or 2), whose slot lines this build cannot read. The pool is
    /// refused rather than misread.
    LegacyLeafLayout {
        /// Raw root word recorded in the pool.
        word: u64,
    },
    /// `reopen_clean` on a pool whose clean-shutdown flag is unset.
    NotCleanlyClosed,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConfigError::BadMagic { found } => {
                write!(f, "pool is not an RNTree (magic word {found:#x})")
            }
            ConfigError::JournalSlotsMismatch { pool, cfg } => write!(
                f,
                "journal_slots mismatch with on-pool layout (pool {pool}, config {cfg})"
            ),
            ConfigError::VarlenMismatch { pool, cfg } => write!(
                f,
                "varlen_leaves mismatch with on-pool layout (pool {pool}, config {cfg})"
            ),
            ConfigError::LegacyLeafLayout { word } => write!(
                f,
                "pool was written with leaf policy word {word} (hash or adaptive leaves), \
                 which this build cannot read"
            ),
            ConfigError::NotCleanlyClosed => {
                write!(f, "pool not cleanly closed; use RnTree::recover")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl RnTree {
    /// Formats `pool` with a fresh, empty RNTree.
    pub fn create(pool: Arc<PmemPool>, cfg: RnConfig) -> RnTree {
        Self::try_create(pool, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`RnTree::create`], in the `Result` shape of the other
    /// constructors (no config is refused at create).
    pub fn try_create(pool: Arc<PmemPool>, cfg: RnConfig) -> Result<RnTree, ConfigError> {
        let (alloc, journal) = Self::make_parts(&pool, &cfg);
        journal.format(&pool);

        let first = alloc.alloc().expect("pool too small for one leaf");
        if cfg.varlen_leaves {
            // Empty low fence, +∞ high fence: the leaf covers everything.
            VarLeaf::at(&pool, first).init_empty(&[], None, 0);
        } else {
            Leaf::at(&pool, first).init_empty(u64::MAX, 0);
        }

        RootTable::set_volatile(&pool, roots::LEFTMOST, first);
        RootTable::set_volatile(&pool, roots::MAGIC, MAGIC);
        RootTable::set_volatile(&pool, roots::JOURNAL_SLOTS, cfg.journal_slots as u64);
        RootTable::set_volatile(&pool, roots::LEAF_REGION, Self::leaf_region_start(&cfg));
        RootTable::set_volatile(&pool, roots::VARLEN, cfg.varlen_leaves as u64);
        RootTable::set_volatile(&pool, roots::LEAF_POLICY, 0);
        RootTable::set_volatile(&pool, roots::CLEAN, 0);
        RootTable::persist(&pool);

        let fps = Self::make_fps(&pool, &cfg);
        let index = if cfg.varlen_leaves {
            Self::build_index::<VarFormat>(&pool, &cfg, first, &[])
        } else {
            Self::build_index::<U64Format>(&pool, &cfg, first, &[])
        };
        Ok(Self::assemble(pool, cfg, alloc, journal, fps, index, first))
    }

    /// The transient fingerprint table, covering the pool's leaf region.
    fn make_fps(pool: &PmemPool, cfg: &RnConfig) -> FpTable {
        FpTable::new(Self::leaf_region_start(cfg), pool.len(), Self::leaf_block(cfg))
    }

    /// A fresh inner index over `F`'s separators, bulk-built from `routes`
    /// when there are any.
    fn build_index<F: LeafFormat>(
        pool: &PmemPool,
        cfg: &RnConfig,
        leftmost: u64,
        routes: &[(F::Owned, u64)],
    ) -> InnerIndex {
        let index = F::new_index(leaf_ref(leftmost));
        if cfg.cache_frames > 0 {
            // Always a fresh, empty cache: the DRAM tier is transient and
            // recovery must never trust (or rebuild from) its contents.
            index.attach_cache(Arc::new(PageCache::new(cfg.cache_frames, Some(pool.events_handle()))));
        }
        if !routes.is_empty() {
            F::bulk_build(&index, routes);
        }
        index
    }

    /// The volatile tree over a formatted or recovered pool, counters
    /// zeroed.
    fn assemble(
        pool: Arc<PmemPool>,
        cfg: RnConfig,
        alloc: BlockAllocator,
        journal: UndoJournal,
        fps: FpTable,
        index: InnerIndex,
        leftmost: u64,
    ) -> RnTree {
        RnTree {
            pool,
            alloc,
            index,
            journal,
            cfg,
            fps,
            leftmost,
            splits: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            wasted: AtomicU64::new(0),
            pool_exhausted: AtomicBool::new(false),
            leaf_head_ties: obs::Counter::new(),
            timers: PhaseTimers::new(),
            heat: crate::tree::LeafHeat::default(),
        }
    }

    /// Validates every layout-affecting config flag against the root words
    /// the pool was formatted with.
    fn check_config(pool: &PmemPool, cfg: &RnConfig) -> Result<(), ConfigError> {
        let magic = RootTable::get(pool, roots::MAGIC);
        if magic != MAGIC {
            return Err(ConfigError::BadMagic { found: magic });
        }
        let slots = RootTable::get(pool, roots::JOURNAL_SLOTS);
        if slots != cfg.journal_slots as u64 {
            return Err(ConfigError::JournalSlotsMismatch { pool: slots, cfg: cfg.journal_slots as u64 });
        }
        let varlen = RootTable::get(pool, roots::VARLEN);
        if varlen != cfg.varlen_leaves as u64 {
            return Err(ConfigError::VarlenMismatch { pool: varlen != 0, cfg: cfg.varlen_leaves });
        }
        // 0 is a sorted-leaf pool (also every pool older than the word);
        // anything else may hold leaves this build cannot read.
        let word = RootTable::get(pool, roots::LEAF_POLICY);
        if word != 0 {
            return Err(ConfigError::LegacyLeafLayout { word });
        }
        Ok(())
    }

    /// Crash recovery: journal replay + full per-leaf scratch reset +
    /// index and allocator rebuild.
    ///
    /// # Panics
    /// Panics when the pool's root words disagree with `cfg` (see
    /// [`RnTree::try_recover`] for the typed-error variant).
    pub fn recover(pool: Arc<PmemPool>, cfg: RnConfig) -> RnTree {
        Self::try_recover(pool, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`RnTree::recover`], returning configuration errors instead of
    /// panicking.
    pub fn try_recover(pool: Arc<PmemPool>, cfg: RnConfig) -> Result<RnTree, ConfigError> {
        Self::check_config(&pool, &cfg)?;
        let (alloc, journal) = Self::make_parts(&pool, &cfg);
        // Every recovery step lands in the pool's event ring, so a
        // post-crash `simulate_crash` forensics dump shows the full
        // timeline: trap → crash → rollbacks → chain scan → rebuilds.
        let rolled_back = journal.recover(&pool);
        for &leaf_off in &rolled_back {
            pool.events().record(EventKind::JournalRollback, leaf_off, 0);
        }
        pool.events().record(EventKind::RecoveryJournal, rolled_back.len() as u64, 0);
        Ok(Self::open(pool, cfg, alloc, journal, true))
    }

    /// Reconstruction after a clean shutdown ([`RnTree::close`]): trusts
    /// the persisted leaf headers and only rebuilds the volatile levels.
    ///
    /// # Panics
    /// Panics if the pool was not closed cleanly (use [`RnTree::recover`])
    /// or the root words disagree with `cfg` (see
    /// [`RnTree::try_reopen_clean`] for the typed-error variant).
    pub fn reopen_clean(pool: Arc<PmemPool>, cfg: RnConfig) -> RnTree {
        Self::try_reopen_clean(pool, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`RnTree::reopen_clean`], returning configuration errors instead
    /// of panicking.
    pub fn try_reopen_clean(pool: Arc<PmemPool>, cfg: RnConfig) -> Result<RnTree, ConfigError> {
        Self::check_config(&pool, &cfg)?;
        if RootTable::get(&pool, roots::CLEAN) != 1 {
            return Err(ConfigError::NotCleanlyClosed);
        }
        let (alloc, journal) = Self::make_parts(&pool, &cfg);
        Ok(Self::open(pool, cfg, alloc, journal, false))
    }

    /// Walks the leaf chain of a validated pool, rebuilding every leaf's
    /// DRAM state, then the allocator and the inner index. `crashed`
    /// distrusts the leaf headers (crash recovery); otherwise they were
    /// persisted by [`RnTree::close`].
    fn open(pool: Arc<PmemPool>, cfg: RnConfig, alloc: BlockAllocator, journal: UndoJournal, crashed: bool) -> RnTree {
        if cfg.varlen_leaves {
            Self::open_chain::<VarFormat>(pool, cfg, alloc, journal, crashed)
        } else {
            Self::open_chain::<U64Format>(pool, cfg, alloc, journal, crashed)
        }
    }

    fn open_chain<F: LeafFormat>(
        pool: Arc<PmemPool>,
        cfg: RnConfig,
        alloc: BlockAllocator,
        journal: UndoJournal,
        crashed: bool,
    ) -> RnTree {
        let fps = Self::make_fps(&pool, &cfg);
        let leftmost = RootTable::get(&pool, roots::LEFTMOST);
        let mut reachable = Vec::new();
        let mut routes: Vec<(F::Owned, u64)> = Vec::new();
        let mut off = leftmost;
        while off != 0 {
            reachable.push(off);
            let leaf = Leaf::at(&pool, off);
            if let Some(route) = Self::rebuild_leaf::<F>(leaf, &fps, crashed) {
                routes.push((route, leaf_ref(off)));
            }
            off = leaf.next();
        }
        if crashed {
            pool.events().record(EventKind::RecoveryLeafChain, reachable.len() as u64, routes.len() as u64);
        }
        alloc.rebuild(&reachable);
        if crashed {
            pool.events().record(EventKind::RecoveryAlloc, reachable.len() as u64, 0);
        }
        RootTable::set(&pool, roots::CLEAN, 0);
        let index = Self::build_index::<F>(&pool, &cfg, leftmost, &routes);
        if crashed {
            pool.events().record(EventKind::RecoveryIndex, routes.len() as u64, 0);
        }
        Self::assemble(pool, cfg, alloc, journal, fps, index, leftmost)
    }

    /// Rebuilds one leaf's DRAM state — the transient slot copy and the
    /// fingerprints, both re-derived from the persistent slot line — and
    /// returns the key the index routes it under (see
    /// [`LeafFormat::route`]). After a crash it also resets the scratch
    /// the headers cannot be trusted for: the lock word, and
    /// `nlogs`/`plogs` recomputed from the slot line ("scan the slot
    /// array to find the max index of log entries": entries above it were
    /// never acknowledged and are safely reusable).
    fn rebuild_leaf<F: LeafFormat>(leaf: Leaf<'_>, fps: &FpTable, crashed: bool) -> Option<F::Owned> {
        if crashed {
            leaf.reset_lockver();
        }
        let slot = leaf.read_slot_seq(WhichSlot::Persistent);
        fps.rebuild_leaf::<F>(leaf, slot.iter());
        if crashed {
            let nlogs = slot.iter().map(|e| e as u64 + 1).max().unwrap_or(0);
            debug_assert!(nlogs <= LEAF_CAPACITY as u64);
            leaf.set_nlogs(nlogs);
            leaf.set_plogs(nlogs);
            F::recover_scratch(leaf, &slot);
        }
        leaf.write_slot_seq(WhichSlot::Transient, &slot);
        F::route(leaf, || (!slot.is_empty()).then(|| F::read_key(leaf, slot.entry(slot.len() - 1))))
    }

    /// Clean shutdown: persists every leaf's header line (making `nlogs`,
    /// `plogs` trustworthy) and sets the clean flag. The tree must be
    /// quiescent.
    pub fn close(&self) {
        let mut off = self.leftmost;
        while off != 0 {
            let leaf = Leaf::at(&self.pool, off);
            leaf.persist_header();
            off = leaf.next();
        }
        RootTable::set(&self.pool, roots::CLEAN, 1);
    }

    /// Offset of the leftmost leaf (diagnostics/benchmarks).
    pub fn leftmost(&self) -> u64 {
        self.leftmost
    }
}

/// The lifecycle methods above, exposed generically so a sharded composite
/// (`index_common::ShardedIndex`) can open and recover RNTree shards in
/// parallel without naming the concrete type.
impl index_common::RecoverableIndex for RnTree {
    type Config = RnConfig;

    fn create(pool: Arc<PmemPool>, cfg: RnConfig) -> Self {
        RnTree::create(pool, cfg)
    }

    fn recover(pool: Arc<PmemPool>, cfg: RnConfig) -> Self {
        RnTree::recover(pool, cfg)
    }

    fn reopen_clean(pool: Arc<PmemPool>, cfg: RnConfig) -> Self {
        RnTree::reopen_clean(pool, cfg)
    }

    fn close(&self) {
        RnTree::close(self)
    }

    fn try_create(pool: Arc<PmemPool>, cfg: RnConfig) -> Result<Self, String> {
        RnTree::try_create(pool, cfg).map_err(|e| e.to_string())
    }

    fn try_recover(pool: Arc<PmemPool>, cfg: RnConfig) -> Result<Self, String> {
        RnTree::try_recover(pool, cfg).map_err(|e| e.to_string())
    }

    fn try_reopen_clean(pool: Arc<PmemPool>, cfg: RnConfig) -> Result<Self, String> {
        RnTree::try_reopen_clean(pool, cfg).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use index_common::{KeyCodec, PersistentIndex, U64Key};
    use nvm::PmemConfig;

    fn new_pool(bytes: usize) -> Arc<PmemPool> {
        Arc::new(PmemPool::new(PmemConfig::for_testing(bytes)))
    }

    fn cfg() -> RnConfig {
        RnConfig {
            journal_slots: 4,
            ..RnConfig::default()
        }
    }

    #[test]
    fn create_insert_find() {
        let tree = RnTree::create(new_pool(1 << 22), cfg());
        for k in (1..=500u64).rev() {
            tree.insert(k, k * 2).unwrap();
        }
        for k in 1..=500u64 {
            assert_eq!(tree.find(k), Some(k * 2), "key {k}");
        }
        assert_eq!(tree.find(0), None);
        assert_eq!(tree.find(501), None);
        tree.verify_invariants().unwrap();
        assert!(tree.rn_stats().splits > 0, "500 keys must split 63-cap leaves");
    }

    #[test]
    fn conditional_write_semantics() {
        let tree = RnTree::create(new_pool(1 << 22), cfg());
        tree.insert(5, 50).unwrap();
        assert_eq!(tree.insert(5, 51), Err(index_common::OpError::AlreadyExists));
        assert_eq!(tree.find(5), Some(50), "failed insert must not change data");
        assert_eq!(tree.update(6, 60), Err(index_common::OpError::NotFound));
        tree.update(5, 55).unwrap();
        assert_eq!(tree.find(5), Some(55));
        tree.upsert(6, 66).unwrap();
        tree.upsert(6, 67).unwrap();
        assert_eq!(tree.find(6), Some(67));
        assert_eq!(tree.remove(7), Err(index_common::OpError::NotFound));
        tree.remove(6).unwrap();
        assert_eq!(tree.find(6), None);
        tree.verify_invariants().unwrap();
    }

    #[test]
    fn update_churn_triggers_compaction() {
        let tree = RnTree::create(new_pool(1 << 22), cfg());
        for k in 1..=10u64 {
            tree.insert(k, 0).unwrap();
        }
        // 10 live keys, hundreds of updates: log areas must recycle.
        for round in 1..=60u64 {
            for k in 1..=10u64 {
                tree.update(k, round * 100 + k).unwrap();
            }
        }
        for k in 1..=10u64 {
            assert_eq!(tree.find(k), Some(6000 + k));
        }
        assert!(tree.rn_stats().compactions > 0, "expected compactions");
        tree.verify_invariants().unwrap();
    }

    #[test]
    fn remove_then_reinsert() {
        let tree = RnTree::create(new_pool(1 << 22), cfg());
        for k in 1..=200u64 {
            tree.insert(k, k).unwrap();
        }
        for k in (1..=200u64).step_by(2) {
            tree.remove(k).unwrap();
        }
        for k in 1..=200u64 {
            assert_eq!(tree.find(k), (k % 2 == 0).then_some(k), "key {k}");
        }
        for k in (1..=200u64).step_by(2) {
            tree.insert(k, k + 1).unwrap();
        }
        for k in (1..=200u64).step_by(2) {
            assert_eq!(tree.find(k), Some(k + 1));
        }
        tree.verify_invariants().unwrap();
    }

    #[test]
    fn scan_returns_sorted_ranges() {
        let tree = RnTree::create(new_pool(1 << 22), cfg());
        for k in 1..=300u64 {
            tree.insert(k * 2, k).unwrap(); // even keys 2..600
        }
        let mut out = Vec::new();
        assert_eq!(tree.scan_n(100, 10, &mut out), 10);
        let keys: Vec<u64> = out.iter().map(|kv| kv.0).collect();
        assert_eq!(keys, (50..60).map(|i| i * 2).collect::<Vec<_>>());
        // Start between keys.
        assert_eq!(tree.scan_n(101, 3, &mut out), 3);
        assert_eq!(out[0].0, 102);
        // Run off the end.
        assert_eq!(tree.scan_n(595, 100, &mut out), 3);
        assert_eq!(out.last().unwrap().0, 600);
        // Empty range.
        assert_eq!(tree.scan_n(601, 5, &mut out), 0);
    }

    /// A 300-key tree (even keys 2..=600, several leaves) per leaf encoding.
    fn trees_of_every_encoding() -> Vec<RnTree> {
        let var = RnConfig { varlen_leaves: true, ..cfg() };
        [cfg(), var]
            .into_iter()
            .map(|c| {
                let tree = RnTree::create(new_pool(1 << 22), c);
                for k in 1..=300u64 {
                    tree.insert(k * 2, k).unwrap();
                }
                tree
            })
            .collect()
    }

    // `n` bounds a scan and is never a reservation: the full-range idiom
    // `usize::MAX >> 1` used to panic with `capacity overflow` on the
    // var-leaf `scan_n` path and on the u64 `scan_k` path.

    #[test]
    fn scan_n_agrees_across_leaf_encodings_up_to_the_full_range() {
        for tree in trees_of_every_encoding() {
            let mut out = Vec::new();
            assert_eq!(tree.scan_n(0, usize::MAX >> 1, &mut out), 300);
            let want: Vec<(u64, u64)> = (1..=300u64).map(|k| (k * 2, k)).collect();
            assert_eq!(out, want);
            // Starts and cuts inside and across leaves.
            for start in [0u64, 1, 77, 250, 599] {
                for n in [1usize, 5, 63, 64, 130] {
                    let want: Vec<(u64, u64)> =
                        want.iter().copied().filter(|p| p.0 >= start).take(n).collect();
                    assert_eq!(tree.scan_n(start, n, &mut out), want.len());
                    assert_eq!(out, want, "scan_n({start}, {n})");
                }
            }
        }
    }

    #[test]
    fn scan_k_takes_the_full_range_idiom() {
        for tree in trees_of_every_encoding() {
            let mut out = Vec::new();
            assert_eq!(tree.scan_k(b"", usize::MAX >> 1, &mut out), 300);
            assert_eq!(out[299], (U64Key::encode(600), 300));
        }
    }

    #[test]
    fn crash_without_persist_loses_nothing_acknowledged() {
        let pool = new_pool(1 << 22);
        let tree = RnTree::create(Arc::clone(&pool), cfg());
        for k in 1..=300u64 {
            tree.insert(k, k * 7).unwrap();
        }
        drop(tree);
        pool.simulate_crash();
        let tree = RnTree::recover(Arc::clone(&pool), cfg());
        for k in 1..=300u64 {
            assert_eq!(tree.find(k), Some(k * 7), "key {k} lost in crash");
        }
        tree.verify_invariants().unwrap();
        // The recovered tree is fully writable.
        for k in 301..=400u64 {
            tree.insert(k, k).unwrap();
        }
        assert_eq!(tree.find(400), Some(400));
        tree.verify_invariants().unwrap();
    }

    #[test]
    fn clean_close_and_reopen() {
        let pool = new_pool(1 << 22);
        let tree = RnTree::create(Arc::clone(&pool), cfg());
        for k in 1..=300u64 {
            tree.insert(k, k + 1).unwrap();
        }
        tree.close();
        drop(tree);
        pool.simulate_crash(); // even a crash after close is fine
        let tree = RnTree::reopen_clean(Arc::clone(&pool), cfg());
        for k in 1..=300u64 {
            assert_eq!(tree.find(k), Some(k + 1));
        }
        tree.verify_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "not cleanly closed")]
    fn reopen_clean_rejects_dirty_pool() {
        let pool = new_pool(1 << 22);
        let tree = RnTree::create(Arc::clone(&pool), cfg());
        tree.insert(1, 1).unwrap();
        drop(tree);
        pool.simulate_crash();
        let _ = RnTree::reopen_clean(pool, cfg());
    }

    #[test]
    fn recovery_resets_scratch_counters() {
        let pool = new_pool(1 << 22);
        let tree = RnTree::create(Arc::clone(&pool), cfg());
        for k in 1..=50u64 {
            tree.insert(k, k).unwrap();
        }
        let leftmost = tree.leftmost();
        drop(tree);
        pool.simulate_crash();
        let tree = RnTree::recover(Arc::clone(&pool), cfg());
        let leaf = crate::leaf::Leaf::at(&pool, leftmost);
        let slot = leaf.read_slot_seq(crate::leaf::WhichSlot::Persistent);
        assert_eq!(leaf.nlogs(), slot.iter().map(|e| e as u64 + 1).max().unwrap());
        assert_eq!(leaf.nlogs(), leaf.plogs());
        let _ = tree;
    }

    #[test]
    fn dual_and_single_slot_variants_agree() {
        for dual in [true, false] {
            let c = RnConfig {
                dual_slot: dual,
                ..cfg()
            };
            let tree = RnTree::create(new_pool(1 << 22), c);
            for k in 1..=400u64 {
                tree.insert(k, k * 3).unwrap();
            }
            for k in (1..=400u64).step_by(3) {
                tree.remove(k).unwrap();
            }
            for k in 1..=400u64 {
                let expect = ((k - 1) % 3 != 0).then_some(k * 3);
                assert_eq!(tree.find(k), expect, "dual={dual} key={k}");
            }
            tree.verify_invariants().unwrap();
        }
    }

    #[test]
    fn seq_traversal_mode_matches_tm_mode() {
        let c = RnConfig {
            seq_traversal: true,
            ..cfg()
        };
        let tree = RnTree::create(new_pool(1 << 22), c);
        for k in 1..=500u64 {
            tree.insert(k, k).unwrap();
        }
        for k in 1..=500u64 {
            assert_eq!(tree.find(k), Some(k));
        }
        tree.verify_invariants().unwrap();
    }

    /// A pool whose reserved leaf-policy word reads `word`, written by
    /// this build and closed cleanly, so both open paths can be tried.
    fn pool_with_policy_word(word: u64) -> Arc<PmemPool> {
        let pool = new_pool(1 << 22);
        let tree = RnTree::create(Arc::clone(&pool), cfg());
        tree.insert(1, 1).unwrap();
        tree.close();
        drop(tree);
        RootTable::set(&pool, roots::LEAF_POLICY, word);
        pool
    }

    #[test]
    fn leaf_policy_mismatch_is_a_typed_error() {
        // Words 1 and 2 are what older builds wrote for hash and adaptive
        // leaves: both open paths refuse them before touching a leaf.
        for word in [1, 2] {
            let want = ConfigError::LegacyLeafLayout { word };
            let err = RnTree::try_reopen_clean(pool_with_policy_word(word), cfg()).unwrap_err();
            assert_eq!(err, want);
            let pool = pool_with_policy_word(word);
            pool.simulate_crash();
            assert_eq!(RnTree::try_recover(pool, cfg()).unwrap_err(), want);
        }
    }

    #[test]
    fn a_zero_leaf_policy_word_still_opens() {
        let tree = RnTree::try_reopen_clean(pool_with_policy_word(0), cfg()).unwrap();
        assert_eq!(tree.find(1), Some(1));
        let pool = pool_with_policy_word(0);
        pool.simulate_crash();
        let tree = RnTree::try_recover(pool, cfg()).unwrap();
        assert_eq!(tree.find(1), Some(1));
        tree.verify_invariants().unwrap();
    }

    #[test]
    fn eviction_injection_cannot_corrupt_recovery() {
        let pool = new_pool(1 << 22);
        let tree = RnTree::create(Arc::clone(&pool), cfg());
        for k in 1..=300u64 {
            tree.insert(k, k).unwrap();
            if k % 7 == 0 {
                pool.evict_random_lines(8);
            }
        }
        drop(tree);
        pool.simulate_crash();
        let tree = RnTree::recover(pool, cfg());
        for k in 1..=300u64 {
            assert_eq!(tree.find(k), Some(k));
        }
        tree.verify_invariants().unwrap();
    }
}
