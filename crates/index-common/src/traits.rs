//! The operation interface shared by RNTree and every baseline tree.

use std::sync::Arc;

use nvm::PmemPool;
use obs::{Json, ToJson};

use crate::{AnyKey, Key, KeyBuf, KeyCodec, KeyRef, U64Key, Value};

/// Errors surfaced by conditional operations (paper §3.3: *conditional
/// write* — insert fails on a duplicate key, update/remove fail on a missing
/// key) and by resource exhaustion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpError {
    /// Conditional insert found the key already present.
    AlreadyExists,
    /// Conditional update/remove found no such key.
    NotFound,
    /// The persistent pool is out of leaf blocks.
    PoolExhausted,
    /// A byte-key operation ([`AnyKey::Bytes`]) was given a key this
    /// index cannot represent: a non-8-byte key on an index that only
    /// stores `u64`-encoded keys (every index on the default
    /// [`PersistentIndex::apply`]), or a key longer than
    /// [`crate::MAX_KEY_LEN`] on a var-key RNTree.
    UnsupportedKey,
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::AlreadyExists => write!(f, "key already exists"),
            OpError::NotFound => write!(f, "key not found"),
            OpError::PoolExhausted => write!(f, "persistent pool exhausted"),
            OpError::UnsupportedKey => write!(f, "key not representable by this index"),
        }
    }
}

impl std::error::Error for OpError {}

/// The write class of one element of a mixed [`PersistentIndex::write_batch`]
/// batch. Each variant carries the semantics of the like-named point method;
/// the value of a [`WriteOp::Remove`] element is ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteOp {
    /// Conditional insert — [`OpError::AlreadyExists`] on a present key
    /// ([`PersistentIndex::insert`]).
    Insert,
    /// Conditional update — [`OpError::NotFound`] on a missing key
    /// ([`PersistentIndex::update`]).
    Update,
    /// Insert-or-update, never fails on presence
    /// ([`PersistentIndex::upsert`]).
    Upsert,
    /// Remove — [`OpError::NotFound`] on a missing key
    /// ([`PersistentIndex::remove`]).
    Remove,
}

/// Structural statistics reported by [`PersistentIndex::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Leaf nodes currently linked into the leaf chain.
    pub leaves: u64,
    /// Live key-value pairs (visible entries).
    pub entries: u64,
    /// Leaf splits performed.
    pub splits: u64,
    /// Whether the tree has ever hit [`OpError::PoolExhausted`] (an
    /// allocation failed because the persistent pool ran out of blocks).
    /// Sticky: once set it stays set for the life of the tree. A sharded
    /// index ORs this across shards, so one full shard is visible at the
    /// top level even while its siblings still have room.
    pub pool_exhausted: bool,
}

impl TreeStats {
    /// Folds another tree's statistics into this one: structural counters
    /// add, the sticky [`TreeStats::pool_exhausted`] flag ORs. The single
    /// aggregation rule for every composite index (sharding, wrappers).
    pub fn merge(&mut self, other: &TreeStats) {
        self.leaves += other.leaves;
        self.entries += other.entries;
        self.splits += other.splits;
        self.pool_exhausted |= other.pool_exhausted;
    }

    /// The statistics as `(name, value)` pairs, in export order — the
    /// payload of an `obs::Section::Counters` (the flag exports as 0/1).
    pub fn counters(&self) -> Vec<(String, u64)> {
        vec![
            ("leaves".into(), self.leaves),
            ("entries".into(), self.entries),
            ("splits".into(), self.splits),
            ("pool_exhausted".into(), self.pool_exhausted as u64),
        ]
    }
}

impl ToJson for TreeStats {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("leaves", Json::U64(self.leaves));
        o.set("entries", Json::U64(self.entries));
        o.set("splits", Json::U64(self.splits));
        o.set("pool_exhausted", Json::Bool(self.pool_exhausted));
        o
    }
}

/// A durable ordered key-value index over simulated NVM.
///
/// All methods take `&self`: concurrent trees (RNTree, FPTree) synchronise
/// internally; single-threaded trees (NVTree, wB+Tree, CDDS) are `Sync`
/// only in the trivial sense and document that callers must not share them
/// across threads while mutating ([`PersistentIndex::supports_concurrency`]).
///
/// # The op core and its two-sided contract
///
/// The paper's operation set (§3.3) is one conditional write, one find
/// and one range query. Point operations reach an index through two
/// methods over an [`AnyKey`] — a `u64` or a byte string:
/// [`apply`](PersistentIndex::apply) for the four write classes of
/// [`WriteOp`], and [`get`](PersistentIndex::get) for lookups. The u64
/// point methods ([`insert`](PersistentIndex::insert),
/// [`update`](PersistentIndex::update), [`upsert`](PersistentIndex::upsert),
/// [`remove`](PersistentIndex::remove), [`find`](PersistentIndex::find))
/// and the byte-key sugar (`insert_k` … `find_k`) are provided on top.
///
/// The provided point methods and the default `apply`/`get` are defined
/// in terms of each other, so **every implementation overrides exactly
/// one side** (overriding neither recurses forever):
///
/// * a **u64-only tree** (the baselines, test fakes) implements the five
///   u64 point methods. The default `apply`/`get` dispatch a `U64` key to
///   them and decode a `Bytes` key through [`U64Key`]: an 8-byte key is
///   served as its `u64`, any other length fails with
///   [`OpError::UnsupportedKey`] (or reads as absent);
/// * a **wrapper** (`Arc`, [`crate::Instrumented`], [`crate::ShardedIndex`],
///   [`crate::GroupCommit`]) or a tree with native byte keys (RNTree)
///   implements `apply` and `get`, once for both key kinds.
///
/// The rest of the core — [`write_batch`](PersistentIndex::write_batch),
/// [`scan_n`](PersistentIndex::scan_n) / [`scan_k`](PersistentIndex::scan_k)
/// and [`load_sorted`](PersistentIndex::load_sorted) /
/// [`load_sorted_k`](PersistentIndex::load_sorted_k) — keeps one method
/// per element type.
pub trait PersistentIndex: Send + Sync {
    /// Applies one point write with the semantics its [`WriteOp`] names;
    /// `value` is ignored for [`WriteOp::Remove`]. A `Bytes` key this
    /// index cannot represent fails with [`OpError::UnsupportedKey`].
    ///
    /// The default serves a u64-only tree: it dispatches to the u64 point
    /// method of `op`, decoding a `Bytes` key through [`U64Key`] first.
    fn apply(&self, key: AnyKey<'_>, value: Value, op: WriteOp) -> Result<(), OpError> {
        let key = match key {
            AnyKey::U64(k) => k,
            AnyKey::Bytes(b) => U64Key::decode(b).ok_or(OpError::UnsupportedKey)?,
        };
        match op {
            WriteOp::Insert => self.insert(key, value),
            WriteOp::Update => self.update(key, value),
            WriteOp::Upsert => self.upsert(key, value),
            WriteOp::Remove => self.remove(key),
        }
    }

    /// Point lookup. A `Bytes` key this index cannot represent is simply
    /// absent (`None`).
    ///
    /// The default serves a u64-only tree through [`PersistentIndex::find`],
    /// decoding a `Bytes` key through [`U64Key`] first.
    fn get(&self, key: AnyKey<'_>) -> Option<Value> {
        match key {
            AnyKey::U64(k) => self.find(k),
            AnyKey::Bytes(b) => self.find(U64Key::decode(b)?),
        }
    }

    /// Conditional insert: fails with [`OpError::AlreadyExists`] if the key
    /// is present. Trees without conditional-write support (plain NVTree
    /// mode) document insert-as-upsert behaviour instead.
    fn insert(&self, key: Key, value: Value) -> Result<(), OpError> {
        self.apply(AnyKey::U64(key), value, WriteOp::Insert)
    }

    /// Conditional update: fails with [`OpError::NotFound`] if absent.
    fn update(&self, key: Key, value: Value) -> Result<(), OpError> {
        self.apply(AnyKey::U64(key), value, WriteOp::Update)
    }

    /// Insert-or-update, never fails on key presence.
    fn upsert(&self, key: Key, value: Value) -> Result<(), OpError> {
        self.apply(AnyKey::U64(key), value, WriteOp::Upsert)
    }

    /// Removes the key. Fails with [`OpError::NotFound`] if absent.
    fn remove(&self, key: Key) -> Result<(), OpError> {
        self.apply(AnyKey::U64(key), 0, WriteOp::Remove)
    }

    /// Point lookup.
    fn find(&self, key: Key) -> Option<Value> {
        self.get(AnyKey::U64(key))
    }

    /// Byte-key conditional insert ([`PersistentIndex::insert`]).
    fn insert_k(&self, key: KeyRef<'_>, value: Value) -> Result<(), OpError> {
        self.apply(AnyKey::Bytes(key), value, WriteOp::Insert)
    }

    /// Byte-key conditional update ([`PersistentIndex::update`]).
    fn update_k(&self, key: KeyRef<'_>, value: Value) -> Result<(), OpError> {
        self.apply(AnyKey::Bytes(key), value, WriteOp::Update)
    }

    /// Byte-key upsert ([`PersistentIndex::upsert`]).
    fn upsert_k(&self, key: KeyRef<'_>, value: Value) -> Result<(), OpError> {
        self.apply(AnyKey::Bytes(key), value, WriteOp::Upsert)
    }

    /// Byte-key remove ([`PersistentIndex::remove`]).
    fn remove_k(&self, key: KeyRef<'_>) -> Result<(), OpError> {
        self.apply(AnyKey::Bytes(key), 0, WriteOp::Remove)
    }

    /// Byte-key point lookup ([`PersistentIndex::find`]).
    fn find_k(&self, key: KeyRef<'_>) -> Option<Value> {
        self.get(AnyKey::Bytes(key))
    }

    /// Range query: collects up to `n` pairs with key ≥ `start`, in key
    /// order, into `out` (cleared first). Returns the number collected.
    /// This is the paper's range query with a count-based filter function.
    fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize;

    /// Byte-key range query ([`PersistentIndex::scan_n`]): up to `n` pairs
    /// with key ≥ `start` in lexicographic order. `start` may be *any*
    /// byte string (it is a bound, not a stored key): the u64-backed
    /// default rounds it up to the smallest representable key.
    fn scan_k(&self, start: KeyRef<'_>, n: usize, out: &mut Vec<(KeyBuf, Value)>) -> usize {
        out.clear();
        let Some(from) = U64Key::ceil(start) else { return 0 };
        let mut tmp = Vec::new();
        self.scan_n(from, n, &mut tmp);
        out.extend(tmp.into_iter().map(|(k, v)| (U64Key::encode(k), v)));
        out.len()
    }

    /// Bulk-loads `pairs` into an **empty** index. The input need not be
    /// pre-sorted or unique: implementations sort it and resolve duplicate
    /// keys with the *last* occurrence winning (upsert semantics), so the
    /// result equals replaying the pairs through [`PersistentIndex::upsert`].
    ///
    /// The default implementation does exactly that replay. Trees with a
    /// real bulk loader (RNTree) override it to build full leaves directly
    /// at a fraction of the per-key persist cost; callers (benchmark
    /// warm-up, YCSB load phase) use this method and transparently get
    /// whichever path the tree provides.
    ///
    /// # Errors
    /// [`OpError::PoolExhausted`] if the index cannot hold the pairs.
    fn load_sorted(&self, pairs: &[(Key, Value)]) -> Result<(), OpError> {
        let mut sorted = pairs.to_vec();
        sorted.sort_by_key(|p| p.0); // stable: last duplicate still wins
        for &(k, v) in &sorted {
            self.upsert(k, v)?;
        }
        Ok(())
    }

    /// Byte-key bulk load ([`PersistentIndex::load_sorted`] semantics:
    /// empty index, duplicates resolved last-wins).
    fn load_sorted_k(&self, pairs: &[(KeyBuf, Value)]) -> Result<(), OpError> {
        let mut sorted = pairs.to_vec();
        sorted.sort_by_key(|p| p.0); // stable: last duplicate wins
        for (k, v) in &sorted {
            self.upsert_k(k.as_slice(), *v)?;
        }
        Ok(())
    }

    /// Batched **mixed-class** write: applies every `(key, value, op)`
    /// element with the point semantics its [`WriteOp`] names, reporting
    /// each element's outcome individually.
    ///
    /// The batch is sorted in place (stably, by key) first; element `i` of
    /// the returned vector reports on `batch[i]` *as the caller observes
    /// the slice after the call*. Elements sharing a key are applied
    /// as-if sequentially in their pre-sort submission order — so within
    /// one batch, an insert followed by a remove of the same key leaves
    /// the key absent and both report `Ok`, while two strict inserts make
    /// the first win and the second report [`OpError::AlreadyExists`].
    ///
    /// The default implementation is a per-element [`PersistentIndex::apply`]
    /// loop over the sorted batch. Trees with a batched write path (RNTree)
    /// override it to amortise traversal, locking, and persists across
    /// same-leaf runs of *all* write classes; a sharded index overrides it
    /// to partition by shard and apply sub-batches in parallel. The
    /// flat-combining group-commit layer ([`crate::GroupCommit`]) is built
    /// on this method: it is the single entry point through which
    /// coalesced epochs reach the batch pipeline.
    fn write_batch(&self, batch: &mut [(Key, Value, WriteOp)]) -> Vec<Result<(), OpError>> {
        batch.sort_by_key(|p| p.0);
        batch.iter().map(|&(k, v, op)| self.apply(AnyKey::U64(k), v, op)).collect()
    }

    /// Batched conditional insert: [`PersistentIndex::write_batch`] with
    /// every element tagged [`WriteOp::Insert`], so per-key outcomes, the
    /// in-place reordering of `batch` and the first-duplicate-wins rule
    /// are exactly `write_batch`'s. The elements are copied back in the
    /// order `write_batch` left them, so element `i` of the returned
    /// vector reports on `batch[i]` after the call.
    fn insert_batch(&self, batch: &mut [(Key, Value)]) -> Vec<Result<(), OpError>> {
        let mut ops: Vec<(Key, Value, WriteOp)> =
            batch.iter().map(|&(k, v)| (k, v, WriteOp::Insert)).collect();
        let results = self.write_batch(&mut ops);
        for (dst, src) in batch.iter_mut().zip(&ops) {
            *dst = (src.0, src.1);
        }
        results
    }

    /// Short name for benchmark tables ("RNTree", "FPTree", …).
    fn name(&self) -> &'static str;

    /// Whether concurrent callers are supported (paper Table 1).
    fn supports_concurrency(&self) -> bool {
        false
    }

    /// Structural statistics.
    fn stats(&self) -> TreeStats;

    /// HTM abort ratio (aborts/attempts) of the tree's transaction domain,
    /// when the tree uses one. `None` for non-HTM trees.
    fn htm_abort_ratio(&self) -> Option<f64> {
        None
    }
}

/// Forwarding impl so shared handles (`Arc<dyn PersistentIndex>`, the
/// currency of the bench harness and workload drivers) satisfy the trait
/// themselves — wrappers like `Instrumented` can then take *any* index,
/// owned or shared, by value. Forwards the op core only; the point
/// methods reach the target through the provided ones.
impl<P: PersistentIndex + ?Sized> PersistentIndex for Arc<P> {
    fn apply(&self, key: AnyKey<'_>, value: Value, op: WriteOp) -> Result<(), OpError> {
        (**self).apply(key, value, op)
    }
    fn get(&self, key: AnyKey<'_>) -> Option<Value> {
        (**self).get(key)
    }
    fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        (**self).scan_n(start, n, out)
    }
    fn scan_k(&self, start: KeyRef<'_>, n: usize, out: &mut Vec<(KeyBuf, Value)>) -> usize {
        (**self).scan_k(start, n, out)
    }
    fn load_sorted(&self, pairs: &[(Key, Value)]) -> Result<(), OpError> {
        (**self).load_sorted(pairs)
    }
    fn load_sorted_k(&self, pairs: &[(KeyBuf, Value)]) -> Result<(), OpError> {
        (**self).load_sorted_k(pairs)
    }
    fn write_batch(&self, batch: &mut [(Key, Value, WriteOp)]) -> Vec<Result<(), OpError>> {
        (**self).write_batch(batch)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn supports_concurrency(&self) -> bool {
        (**self).supports_concurrency()
    }
    fn stats(&self) -> TreeStats {
        (**self).stats()
    }
    fn htm_abort_ratio(&self) -> Option<f64> {
        (**self).htm_abort_ratio()
    }
}

/// Constructor/lifecycle interface for trees that live in a [`PmemPool`].
///
/// [`PersistentIndex`] describes *operations* on an open tree; this trait
/// factors out how a tree is **opened**: formatted fresh ([`create`]),
/// rebuilt after a crash ([`recover`]), or reattached after a clean
/// shutdown ([`reopen_clean`]). With the lifecycle behind a trait, a
/// composite index can open every shard generically — and run recovery in
/// parallel, one rebuild thread per shard, the sharded analogue of the
/// paper's §5.4 leaf-chain rebuild.
///
/// [`create`]: RecoverableIndex::create
/// [`recover`]: RecoverableIndex::recover
/// [`reopen_clean`]: RecoverableIndex::reopen_clean
pub trait RecoverableIndex: PersistentIndex + Sized {
    /// Per-tree construction options (e.g. `RnConfig`). `Clone + Send +
    /// Sync` so parallel shard recovery can hand every worker thread its
    /// own copy.
    type Config: Clone + Send + Sync;

    /// Formats `pool` and builds an empty tree in it.
    fn create(pool: Arc<PmemPool>, cfg: Self::Config) -> Self;

    /// Opens a tree from a pool in an arbitrary post-crash state: verifies
    /// the format, completes or rolls back interrupted operations, and
    /// rebuilds all volatile state from the persistent leaf chain.
    fn recover(pool: Arc<PmemPool>, cfg: Self::Config) -> Self;

    /// Opens a tree from a pool after a clean shutdown ([`close`]). Trees
    /// with a fast clean-restart path override this; the default simply
    /// runs full crash recovery, which is always correct.
    ///
    /// [`close`]: RecoverableIndex::close
    fn reopen_clean(pool: Arc<PmemPool>, cfg: Self::Config) -> Self {
        Self::recover(pool, cfg)
    }

    /// Cleanly shuts the tree down (flushes volatile state, marks the pool
    /// clean). Default: no-op, for trees whose persistent state is always
    /// complete.
    fn close(&self) {}

    /// As [`create`], but surfacing invalid configurations as an error
    /// message instead of a panic, so callers opening pools they did not
    /// format (tools, shard sets) can report the mismatch. The error is a
    /// rendered string because each tree has its own typed error; trees
    /// with config validation override this, the default never fails.
    ///
    /// [`create`]: RecoverableIndex::create
    fn try_create(pool: Arc<PmemPool>, cfg: Self::Config) -> Result<Self, String> {
        Ok(Self::create(pool, cfg))
    }

    /// As [`recover`], with [`try_create`]'s error contract.
    ///
    /// [`recover`]: RecoverableIndex::recover
    /// [`try_create`]: RecoverableIndex::try_create
    fn try_recover(pool: Arc<PmemPool>, cfg: Self::Config) -> Result<Self, String> {
        Ok(Self::recover(pool, cfg))
    }

    /// As [`reopen_clean`], with [`try_create`]'s error contract.
    ///
    /// [`reopen_clean`]: RecoverableIndex::reopen_clean
    /// [`try_create`]: RecoverableIndex::try_create
    fn try_reopen_clean(pool: Arc<PmemPool>, cfg: Self::Config) -> Result<Self, String> {
        Ok(Self::reopen_clean(pool, cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::MemIndex;

    #[test]
    fn op_error_displays() {
        assert_eq!(OpError::AlreadyExists.to_string(), "key already exists");
        assert_eq!(OpError::NotFound.to_string(), "key not found");
        assert_eq!(OpError::PoolExhausted.to_string(), "persistent pool exhausted");
        assert_eq!(
            OpError::UnsupportedKey.to_string(),
            "key not representable by this index"
        );
    }

    #[test]
    fn default_write_batch_applies_submission_order_within_a_key() {
        let t = MemIndex::new();
        t.insert(1, 10).unwrap();
        let mut batch = vec![
            (2, 20, WriteOp::Insert),
            (1, 11, WriteOp::Update),
            (3, 30, WriteOp::Insert),
            (3, 31, WriteOp::Insert), // in-batch duplicate: first wins
            (2, 0, WriteOp::Remove),  // removes the insert above it
            (9, 0, WriteOp::Remove),  // missing key
            (4, 40, WriteOp::Upsert),
        ];
        let res = t.write_batch(&mut batch);
        // The slice is stably sorted by key; results align with it.
        let keys: Vec<Key> = batch.iter().map(|p| p.0).collect();
        assert_eq!(keys, [1, 2, 2, 3, 3, 4, 9]);
        assert_eq!(
            res,
            vec![
                Ok(()),                       // update 1
                Ok(()),                       // insert 2
                Ok(()),                       // remove 2 (sees the insert)
                Ok(()),                       // insert 3 (first occurrence)
                Err(OpError::AlreadyExists),  // dup insert 3
                Ok(()),                       // upsert 4
                Err(OpError::NotFound),       // remove 9
            ]
        );
        assert_eq!(t.find(1), Some(11));
        assert_eq!(t.find(2), None);
        assert_eq!(t.find(3), Some(30));
        assert_eq!(t.find(4), Some(40));

        // The provided `insert_batch` is an all-`Insert` `write_batch`:
        // same results, same permutation of the caller's slice.
        let pairs = [(5, 50), (1, 0), (6, 60), (5, 51), (0, 1)];
        let (a, b) = (MemIndex::new(), MemIndex::new());
        a.insert(1, 10).unwrap();
        b.insert(1, 10).unwrap();
        let mut by_insert = pairs.to_vec();
        let mut by_write: Vec<_> = pairs.iter().map(|&(k, v)| (k, v, WriteOp::Insert)).collect();
        let res = a.insert_batch(&mut by_insert);
        assert_eq!(res, b.write_batch(&mut by_write));
        assert_eq!(by_insert, by_write.iter().map(|&(k, v, _)| (k, v)).collect::<Vec<_>>());
        assert_eq!(by_insert, [(0, 1), (1, 0), (5, 50), (5, 51), (6, 60)]);
        assert_eq!(res[1], Err(OpError::AlreadyExists)); // key 1 was present
        assert_eq!(res[3], Err(OpError::AlreadyExists)); // first dup of 5 won
        assert_eq!(a.find(5), Some(50));
    }

    /// The `U64Key` codec contract of the default `apply`/`get`, checked
    /// on a bare u64 index and again through every wrapper layer.
    fn assert_byte_keys_route_through_the_u64_codec(t: &dyn PersistentIndex) {
        let k5 = U64Key::encode(5);
        t.insert_k(k5.as_slice(), 50).unwrap();
        assert_eq!(t.find(5), Some(50), "8-byte keys hit the u64 store");
        assert_eq!(t.find_k(k5.as_slice()), Some(50));
        assert_eq!(t.insert_k(b"short", 1), Err(OpError::UnsupportedKey));
        assert_eq!(t.upsert_k(b"short", 1), Err(OpError::UnsupportedKey));
        assert_eq!(t.remove_k(b"short"), Err(OpError::UnsupportedKey));
        assert_eq!(t.update_k(b"way too long key!", 1), Err(OpError::UnsupportedKey));
        assert_eq!(t.find_k(b"short"), None);

        t.upsert(7, 70).unwrap();
        let mut out = Vec::new();
        // A 1-byte zero start rounds down to u64 0: sees everything.
        assert_eq!(t.scan_k(&[0][..], 10, &mut out), 2);
        assert_eq!(out[0].0, U64Key::encode(5));
        // A start strictly above encode(5) skips key 5.
        let above5 = k5.successor().unwrap();
        assert_eq!(t.scan_k(above5.as_slice(), 10, &mut out), 1);
        assert_eq!(out[0].0, U64Key::encode(7));
        // A >8-byte start rounds up past its 8-byte prefix.
        let mut long = [0u8; 9];
        long[..8].copy_from_slice(U64Key::encode(6).as_slice());
        assert_eq!(t.scan_k(&long[..], 10, &mut out), 1);
        assert_eq!(out[0].0, U64Key::encode(7));
    }

    #[test]
    fn default_byte_key_methods_route_through_the_u64_codec() {
        assert_byte_keys_route_through_the_u64_codec(&MemIndex::new());
        let stack = crate::Instrumented::new(
            crate::GroupCommit::new(
                crate::ShardedIndex::from_shards(vec![MemIndex::new(), MemIndex::new()]),
                crate::GroupCommitConfig { shards: 2, ..crate::GroupCommitConfig::default() },
            ),
            obs::Recorder::disabled(),
        );
        assert_byte_keys_route_through_the_u64_codec(&stack);
    }

    #[test]
    fn default_scan_k_accepts_the_full_range_idiom() {
        // `n` is an upper bound, never a reservation: this used to panic
        // with `capacity overflow`.
        let t = MemIndex::new();
        for k in 0..100 {
            t.insert(k, k).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(t.scan_k(b"", usize::MAX >> 1, &mut out), 100);
        assert_eq!(out[99], (U64Key::encode(99), 99));
    }
}
