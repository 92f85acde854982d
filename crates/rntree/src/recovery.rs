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

use index_common::{leaf_ref, InnerIndex, Key, KeyBuf};
use nvm::{PageCache, PmemPool, RootTable};
use obs::{EventKind, PhaseTimers};

use crate::fingerprint::{fp_hash, fp_hash_bytes, FpTable};
use crate::hashleaf::HashDir;
use crate::layout::varlen::{round8, vfield};
use crate::layout::{LAYOUT_HASH, LEAF_CAPACITY};
use crate::leaf::{Leaf, WhichSlot};
use crate::slots::SlotBuf;
use crate::tree::{roots, LeafPolicy, OpMix, RnConfig, RnTree, MAGIC};
use crate::varleaf::VarLeaf;
use crate::vartree::KEY_TOP;

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
    /// The pool's recorded [`LeafPolicy`] differs from the config's (or is
    /// a word this build does not know). The policy decides how much
    /// defensive revalidation readers perform, so create and open must
    /// agree exactly.
    LeafPolicyMismatch {
        /// Raw root word recorded in the pool.
        pool: u64,
        /// Policy the config asked for.
        cfg: LeafPolicy,
    },
    /// The requested flag combination has no on-pool representation:
    /// variable-length leaves exist only in the sorted layout.
    PolicyUnsupported {
        /// The offending policy.
        policy: LeafPolicy,
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
            ConfigError::LeafPolicyMismatch { pool, cfg } => write!(
                f,
                "leaf_policy mismatch with on-pool layout (pool word {pool}, config {cfg:?})"
            ),
            ConfigError::PolicyUnsupported { policy } => write!(
                f,
                "leaf_policy {policy:?} requires the u64 leaf family (varlen_leaves = false)"
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
    ///
    /// # Panics
    /// Panics on an unrepresentable flag combination (see
    /// [`RnTree::try_create`] for the typed-error variant).
    pub fn create(pool: Arc<PmemPool>, cfg: RnConfig) -> RnTree {
        Self::try_create(pool, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`RnTree::create`], returning configuration errors instead of
    /// panicking.
    pub fn try_create(pool: Arc<PmemPool>, cfg: RnConfig) -> Result<RnTree, ConfigError> {
        Self::validate_policy(&cfg)?;
        let (alloc, journal) = Self::make_parts(&pool, &cfg);
        journal.format(&pool);

        let first = alloc.alloc().expect("pool too small for one leaf");
        if cfg.varlen_leaves {
            // Empty low fence, +∞ high fence: the leaf covers everything.
            VarLeaf::at(&pool, first).init_empty(&[], None, 0);
        } else {
            let leaf = Leaf::at(&pool, first);
            leaf.init_empty(u64::MAX, 0);
            if cfg.leaf_policy == LeafPolicy::Hash {
                // Hash-policy pools are born hashed. An empty directory is
                // bit-identical to an empty slot array, so only the header
                // tag changes; re-persist the header line that carries it.
                leaf.set_layout(LAYOUT_HASH);
                leaf.persist_header();
            }
        }

        RootTable::set_volatile(&pool, roots::LEFTMOST, first);
        RootTable::set_volatile(&pool, roots::MAGIC, MAGIC);
        RootTable::set_volatile(&pool, roots::JOURNAL_SLOTS, cfg.journal_slots as u64);
        RootTable::set_volatile(&pool, roots::LEAF_REGION, Self::leaf_region_start(&cfg));
        RootTable::set_volatile(&pool, roots::VARLEN, cfg.varlen_leaves as u64);
        RootTable::set_volatile(&pool, roots::LEAF_POLICY, cfg.leaf_policy.as_root_word());
        RootTable::set_volatile(&pool, roots::CLEAN, 0);
        RootTable::persist(&pool);

        let fps = FpTable::new(Self::leaf_region_start(&cfg), pool.len(), Self::leaf_block(&cfg), cfg.fingerprints);
        let index = if cfg.varlen_leaves {
            InnerIndex::new_bytes(leaf_ref(first))
        } else {
            InnerIndex::new(leaf_ref(first))
        };
        index.set_legacy_seq_descent(cfg.legacy_seq_descent);
        index.domain().set_striped_fallback(cfg.striped_fallback);
        if cfg.cache_frames > 0 {
            // Always a fresh, empty cache: the DRAM tier is transient and
            // recovery must never trust (or rebuild from) its contents.
            index.attach_cache(Arc::new(PageCache::new(cfg.cache_frames, Some(pool.events_handle()))));
        }
        let opmix = Self::make_opmix(&pool, &cfg);
        Ok(RnTree {
            pool,
            alloc,
            index,
            journal,
            cfg,
            fps,
            leftmost: first,
            splits: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            wasted: AtomicU64::new(0),
            pool_exhausted: AtomicBool::new(false),
            leaf_head_ties: AtomicU64::new(0),
            opmix,
            morphs_to_hash: AtomicU64::new(0),
            morphs_to_sorted: AtomicU64::new(0),
            morphs_skipped: AtomicU64::new(0),
            probe_hist: obs::AtomicHistogram::new(),
            timers: PhaseTimers::new(),
            heat: crate::tree::LeafHeat::default(),
        })
    }

    /// Flag combinations with no on-pool representation: the 4096-byte
    /// variable-length block family exists only in the sorted layout.
    fn validate_policy(cfg: &RnConfig) -> Result<(), ConfigError> {
        if cfg.varlen_leaves && cfg.leaf_policy != LeafPolicy::Sorted {
            return Err(ConfigError::PolicyUnsupported { policy: cfg.leaf_policy });
        }
        Ok(())
    }

    /// The adaptive policy's op-mix table; empty (no memory, record calls
    /// no-op) under every other policy.
    fn make_opmix(pool: &PmemPool, cfg: &RnConfig) -> OpMix {
        OpMix::new(
            Self::leaf_region_start(cfg),
            pool.len(),
            Self::leaf_block(cfg),
            cfg.leaf_policy == LeafPolicy::Adaptive && !cfg.varlen_leaves,
        )
    }

    /// Validates every layout-affecting config flag against the root words
    /// the pool was formatted with.
    fn check_config(pool: &PmemPool, cfg: &RnConfig) -> Result<(), ConfigError> {
        Self::validate_policy(cfg)?;
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
        // Old pools predate the policy word and read 0 = Sorted, exactly
        // the layout their leaves have.
        let policy = RootTable::get(pool, roots::LEAF_POLICY);
        if LeafPolicy::from_root_word(policy) != Some(cfg.leaf_policy) {
            return Err(ConfigError::LeafPolicyMismatch { pool: policy, cfg: cfg.leaf_policy });
        }
        Ok(())
    }

    /// Reads a u64 leaf's persistent slot line and interprets it per the
    /// leaf's layout tag: yields the raw line (for the tslot copy), the
    /// recomputed `nlogs` (max referenced log index + 1, paper §6.2.6 —
    /// entries above it were never acknowledged and are safely reusable)
    /// and the maximum live key (the leaf's index route), re-deriving the
    /// transient fingerprints along the way. Shared by crash recovery and
    /// clean reopen.
    fn scan_u64_leaf(pool: &PmemPool, fps: &FpTable, off: u64) -> (SlotBuf, u64, Option<u64>) {
        let leaf = Leaf::at(pool, off);
        let slot = leaf.read_slot_seq(WhichSlot::Persistent);
        if leaf.layout() == LAYOUT_HASH {
            // Hash directory: entries live wherever their fingerprint
            // probed to, so both `nlogs` and the max key need a full walk.
            let mut nlogs = 0u64;
            let mut max_key = None;
            for e in HashDir::from_slot(slot).iter() {
                nlogs = nlogs.max(e as u64 + 1);
                let k = leaf.read_key(e);
                if max_key.is_none_or(|m| k > m) {
                    max_key = Some(k);
                }
                if !fps.is_disabled() {
                    fps.set(off, e, fp_hash(k));
                }
            }
            (slot, nlogs, max_key)
        } else {
            let nlogs = slot.iter().map(|e| e as u64 + 1).max().unwrap_or(0);
            if !fps.is_disabled() {
                fps.rebuild_leaf(&leaf, &slot);
            }
            let max_key = (!slot.is_empty()).then(|| leaf.read_key(slot.entry(slot.len() - 1)));
            (slot, nlogs, max_key)
        }
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

        let fps = FpTable::new(Self::leaf_region_start(&cfg), pool.len(), Self::leaf_block(&cfg), cfg.fingerprints);
        let leftmost = RootTable::get(&pool, roots::LEFTMOST);
        let mut reachable = Vec::new();
        let mut pairs: Vec<(Key, u64)> = Vec::new();
        let mut routes: Vec<(KeyBuf, u64)> = Vec::new();
        let mut off = leftmost;
        while off != 0 {
            reachable.push(off);
            if cfg.varlen_leaves {
                Self::recover_var_leaf(&pool, &fps, off, &mut routes);
                off = VarLeaf::at(&pool, off).next();
                continue;
            }
            let leaf = Leaf::at(&pool, off);
            leaf.reset_lockver();
            // The fingerprint table is transient scratch like the tslot:
            // the scan re-derives it from the recovered persistent line.
            let (slot, nlogs, max_key) = Self::scan_u64_leaf(&pool, &fps, off);
            debug_assert!(nlogs <= LEAF_CAPACITY as u64);
            leaf.set_nlogs(nlogs);
            leaf.set_plogs(nlogs);
            leaf.write_slot_seq(WhichSlot::Transient, &slot);
            if let Some(max_key) = max_key {
                pairs.push((max_key, leaf_ref(off)));
            }
            off = leaf.next();
        }
        let entries: u64 = (pairs.len() + routes.len()) as u64;
        pool.events().record(EventKind::RecoveryLeafChain, reachable.len() as u64, entries);
        alloc.rebuild(&reachable);
        pool.events().record(EventKind::RecoveryAlloc, reachable.len() as u64, 0);
        RootTable::set(&pool, roots::CLEAN, 0);

        let index = if cfg.varlen_leaves {
            InnerIndex::new_bytes(leaf_ref(leftmost))
        } else {
            InnerIndex::new(leaf_ref(leftmost))
        };
        index.set_legacy_seq_descent(cfg.legacy_seq_descent);
        index.domain().set_striped_fallback(cfg.striped_fallback);
        if cfg.cache_frames > 0 {
            // Always a fresh, empty cache: the DRAM tier is transient and
            // recovery must never trust (or rebuild from) its contents.
            index.attach_cache(Arc::new(PageCache::new(cfg.cache_frames, Some(pool.events_handle()))));
        }
        if !routes.is_empty() {
            index.bulk_build_k(&routes);
        } else if !pairs.is_empty() {
            index.bulk_build(&pairs);
        }
        pool.events().record(EventKind::RecoveryIndex, entries, 0);
        let opmix = Self::make_opmix(&pool, &cfg);
        Ok(RnTree {
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
            leaf_head_ties: AtomicU64::new(0),
            opmix,
            morphs_to_hash: AtomicU64::new(0),
            morphs_to_sorted: AtomicU64::new(0),
            morphs_skipped: AtomicU64::new(0),
            probe_hist: obs::AtomicHistogram::new(),
            timers: PhaseTimers::new(),
            heat: crate::tree::LeafHeat::default(),
        })
    }

    /// Per-leaf crash-recovery reset for the variable-length layout: the
    /// same scratch rebuild as the u64 path (lock word, `nlogs`/`plogs`
    /// from the persistent slot array, transient slot copy, fingerprints)
    /// plus a `heap_used` recompute — heap reservations are plain DRAM-side
    /// counter bumps, so after a crash the durable word may still count
    /// reservations whose records never published; the high-water mark of
    /// the *referenced* records (floored at the fence region) is the
    /// correct value and reclaims every unpublished reservation.
    ///
    /// Routing is by the **high fence**, and *empty* leaves are included:
    /// a var leaf's keys are prefix-truncated against its own fence
    /// metadata, so lookups must land on exactly the leaf whose range
    /// covers the key, not merely one whose max stored key is close. The
    /// rightmost (+∞-fenced) leaf routes under [`KEY_TOP`], the maximum
    /// representable key.
    fn recover_var_leaf(pool: &PmemPool, fps: &FpTable, off: u64, routes: &mut Vec<(KeyBuf, u64)>) {
        let leaf = VarLeaf::at(pool, off);
        leaf.reset_lockver();
        let slot = leaf.read_slot_seq(WhichSlot::Persistent);
        let nlogs = slot.iter().map(|e| e as u64 + 1).max().unwrap_or(0);
        leaf.set_nlogs(nlogs);
        leaf.set_plogs(nlogs);
        leaf.write_slot_seq(WhichSlot::Transient, &slot);
        let lf = leaf.low_fence();
        let hf = leaf.high_fence();
        let mut used = round8(lf.len() as u64) + hf.as_ref().map_or(0, |h| round8(h.len() as u64));
        for e in slot.iter() {
            let (_, rec_rel, suffix_len) = VarLeaf::decode_dir(leaf.dir_word(e));
            used = used.max(rec_rel - vfield::HEAP + 8 + round8(suffix_len as u64));
            if !fps.is_disabled() {
                fps.set(off, e, fp_hash_bytes(leaf.key_of_entry(e).as_slice()));
            }
        }
        leaf.set_heap_used(used);
        routes.push((hf.unwrap_or(KeyBuf::from_slice(&KEY_TOP)), leaf_ref(off)));
    }

    /// As [`RnTree::recover_var_leaf`] but trusting the persisted header
    /// (clean shutdown): only the transient scraps — tslot, fingerprints —
    /// are rebuilt, and the same fence-based route is emitted.
    fn reopen_var_leaf(pool: &PmemPool, fps: &FpTable, off: u64, routes: &mut Vec<(KeyBuf, u64)>) {
        let leaf = VarLeaf::at(pool, off);
        let slot = leaf.read_slot_seq(WhichSlot::Persistent);
        leaf.write_slot_seq(WhichSlot::Transient, &slot);
        if !fps.is_disabled() {
            for e in slot.iter() {
                fps.set(off, e, fp_hash_bytes(leaf.key_of_entry(e).as_slice()));
            }
        }
        routes.push((leaf.high_fence().unwrap_or(KeyBuf::from_slice(&KEY_TOP)), leaf_ref(off)));
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

        let fps = FpTable::new(Self::leaf_region_start(&cfg), pool.len(), Self::leaf_block(&cfg), cfg.fingerprints);
        let leftmost = RootTable::get(&pool, roots::LEFTMOST);
        let mut reachable = Vec::new();
        let mut pairs: Vec<(Key, u64)> = Vec::new();
        let mut routes: Vec<(KeyBuf, u64)> = Vec::new();
        let mut off = leftmost;
        while off != 0 {
            reachable.push(off);
            if cfg.varlen_leaves {
                Self::reopen_var_leaf(&pool, &fps, off, &mut routes);
                off = VarLeaf::at(&pool, off).next();
                continue;
            }
            let leaf = Leaf::at(&pool, off);
            let (slot, _nlogs, max_key) = Self::scan_u64_leaf(&pool, &fps, off);
            leaf.write_slot_seq(WhichSlot::Transient, &slot);
            if let Some(max_key) = max_key {
                pairs.push((max_key, leaf_ref(off)));
            }
            off = leaf.next();
        }
        alloc.rebuild(&reachable);
        RootTable::set(&pool, roots::CLEAN, 0);

        let index = if cfg.varlen_leaves {
            InnerIndex::new_bytes(leaf_ref(leftmost))
        } else {
            InnerIndex::new(leaf_ref(leftmost))
        };
        index.set_legacy_seq_descent(cfg.legacy_seq_descent);
        index.domain().set_striped_fallback(cfg.striped_fallback);
        if cfg.cache_frames > 0 {
            // Always a fresh, empty cache: the DRAM tier is transient and
            // recovery must never trust (or rebuild from) its contents.
            index.attach_cache(Arc::new(PageCache::new(cfg.cache_frames, Some(pool.events_handle()))));
        }
        if !routes.is_empty() {
            index.bulk_build_k(&routes);
        } else if !pairs.is_empty() {
            index.bulk_build(&pairs);
        }
        let opmix = Self::make_opmix(&pool, &cfg);
        Ok(RnTree {
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
            leaf_head_ties: AtomicU64::new(0),
            opmix,
            morphs_to_hash: AtomicU64::new(0),
            morphs_to_sorted: AtomicU64::new(0),
            morphs_skipped: AtomicU64::new(0),
            probe_hist: obs::AtomicHistogram::new(),
            timers: PhaseTimers::new(),
            heat: crate::tree::LeafHeat::default(),
        })
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
        let hash = RnConfig { leaf_policy: LeafPolicy::Hash, ..cfg() };
        let var = RnConfig { varlen_leaves: true, ..cfg() };
        [cfg(), hash, var]
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

    #[test]
    fn hash_policy_pool_survives_crash_and_clean_reopen() {
        let pool = new_pool(1 << 22);
        let c = RnConfig {
            leaf_policy: LeafPolicy::Hash,
            ..cfg()
        };
        let tree = RnTree::create(Arc::clone(&pool), c);
        for k in 1..=300u64 {
            tree.insert(k, k * 3).unwrap();
        }
        drop(tree);
        pool.simulate_crash();
        let tree = RnTree::recover(Arc::clone(&pool), c);
        for k in 1..=300u64 {
            assert_eq!(tree.find(k), Some(k * 3), "key {k} lost in crash");
        }
        tree.verify_invariants().unwrap();
        tree.close();
        drop(tree);
        let tree = RnTree::reopen_clean(pool, c);
        for k in 1..=300u64 {
            assert_eq!(tree.find(k), Some(k * 3));
        }
        tree.verify_invariants().unwrap();
    }

    #[test]
    fn leaf_policy_mismatch_is_a_typed_error() {
        let pool = new_pool(1 << 22);
        let c = RnConfig {
            leaf_policy: LeafPolicy::Hash,
            ..cfg()
        };
        let tree = RnTree::create(Arc::clone(&pool), c);
        tree.insert(1, 1).unwrap();
        drop(tree);
        pool.simulate_crash();
        let err = RnTree::try_recover(pool, cfg()).unwrap_err();
        assert_eq!(
            err,
            ConfigError::LeafPolicyMismatch { pool: 1, cfg: LeafPolicy::Sorted }
        );
    }

    #[test]
    fn varlen_pools_reject_hash_policies() {
        for policy in [LeafPolicy::Hash, LeafPolicy::Adaptive] {
            let c = RnConfig {
                varlen_leaves: true,
                leaf_policy: policy,
                ..cfg()
            };
            let err = RnTree::try_create(new_pool(1 << 22), c).unwrap_err();
            assert_eq!(err, ConfigError::PolicyUnsupported { policy });
        }
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
