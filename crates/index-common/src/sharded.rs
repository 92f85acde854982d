//! A composable sharded index: N independent trees behaving as one.
//!
//! The paper scales one RNTree by overlapping persistency with concurrency
//! inside a single leaf; a production-scale service additionally scales
//! *across* trees. [`ShardedIndex`] is that layer: it range-partitions the
//! key space over `N` inner [`PersistentIndex`] instances (one per pool
//! shard, see `nvm::PoolSet`) and forwards every operation to the shard
//! that owns its key.
//!
//! Because every shard is a complete tree with its own persistent pool and
//! its own allocator, shards share **no** persistent state. They do share
//! the process-wide STM, as cores share the hardware: false sharing in the
//! TL2 lock table (probabilistic and read-mostly), and the one fallback
//! lock, so a fallback in one shard pauses optimistic sections in every
//! shard until it ends. Fallbacks are rare (a few per million ops on a
//! skewed YCSB-A mix), and neither coupling orders one shard's persists
//! against another's. That independence is what makes recovery
//! embarrassingly parallel: [`ShardedIndex::recover`] runs one rebuild
//! thread per shard (the sharded analogue of the paper's §5.4 leaf-chain
//! rebuild).
//!
//! ## Routing
//!
//! `S` shards are routed by at most `S − 1` ascending **split keys**:
//! shard `i ≥ 1` owns exactly `[split_i, split_{i+1})` and shard 0
//! everything below `split_1`; shards past the last split own nothing.
//! Splits are byte strings, and a `u64` key is routed by its big-endian
//! encoding ([`crate::U64Key`]), the order both key APIs already share,
//! so a key reaches the same shard through either API.
//!
//! No split is stored: any ascending split set that agrees with the
//! shards' contents routes every key correctly, after a crash too. So a
//! view takes its splits from the contents when it is built
//! ([`ShardedIndex::from_shards`], and through it `create`, `recover` and
//! `reopen_clean`): shard `i ≥ 1` starts at its smallest key, and an
//! empty shard's range folds into its left neighbour. Views built from
//! the same contents route every key alike. An all-empty set has no
//! splits and routes every key to shard 0 until its first bulk load picks
//! equal-count splits from the load itself; a set that grows from empty
//! by inserts is given its splits when it is created
//! ([`ShardedIndex::with_splits`]). A view's splits never change once set.
//!
//! ## Range scans
//!
//! A scan runs in the shard that owns `start`, straight into the caller's
//! `out`. Only if that shard runs out before `n` pairs does the scan
//! continue into the next shard (whose keys all lie above `start`) for
//! the pairs still missing: a concatenation of ascending, disjoint runs,
//! never a merge. A later shard's pairs are staged in one per-thread
//! `run` buffer, so a scan that crosses a split allocates nothing once
//! the buffers have grown. The buffer is taken out of its thread-local
//! for the scan, so a nested `ShardedIndex` shard uses a buffer of its
//! own; one that grew past `RUN_KEEP` pairs (a full-tree scan) is
//! dropped instead of being put back.

use std::cell::Cell;
use std::sync::{Arc, OnceLock};
use std::thread::LocalKey;
use std::time::{Duration, Instant};

use nvm::PmemPool;

use crate::{
    AnyKey, Key, KeyBuf, KeyCodec, KeyRef, OpError, PersistentIndex, RecoverableIndex, TreeStats,
    U64Key, Value, WriteOp,
};

/// Largest `run` buffer, in pairs, a thread keeps between scans.
const RUN_KEEP: usize = 4096;

thread_local! {
    static RUN: Cell<Vec<(Key, Value)>> = const { Cell::new(Vec::new()) };
    static RUN_K: Cell<Vec<(KeyBuf, Value)>> = const { Cell::new(Vec::new()) };
}

/// `key` as a split key.
fn split_of(key: AnyKey<'_>) -> KeyBuf {
    match key {
        AnyKey::U64(k) => U64Key::encode(k),
        AnyKey::Bytes(b) => KeyBuf::from_slice(b),
    }
}

/// N independent persistent trees composed into one [`PersistentIndex`].
///
/// See the module-level docs for the design. `T` is usually a concrete
/// tree (`RnTree`, a baseline) opened via [`RecoverableIndex`], but any
/// `PersistentIndex` vector can be wrapped with [`ShardedIndex::from_shards`].
pub struct ShardedIndex<T> {
    shards: Vec<T>,
    /// The ascending starts of shards `1..`; unset while the set is
    /// empty and unsplit.
    splits: OnceLock<Vec<KeyBuf>>,
}

impl<T: PersistentIndex> ShardedIndex<T> {
    /// Wraps already-open trees as shards, taking the splits from their
    /// contents (module docs). The shards must hold ascending, disjoint
    /// key ranges in shard order, as a `ShardedIndex` leaves them.
    ///
    /// # Panics
    /// Panics if `shards` is empty.
    pub fn from_shards(shards: Vec<T>) -> Self {
        assert!(!shards.is_empty(), "ShardedIndex needs at least one shard");
        let idx = ShardedIndex { shards, splits: OnceLock::new() };
        let firsts = idx.first_keys();
        if firsts.iter().any(Option::is_some) {
            // Walking down from the top, an empty shard starts where the
            // next non-empty one does; trailing empty shards get no split.
            let mut next = None;
            let mut splits: Vec<KeyBuf> = firsts[1..]
                .iter()
                .rev()
                .filter_map(|&first| {
                    next = first.or(next);
                    next
                })
                .collect();
            splits.reverse();
            let _ = idx.splits.set(splits);
        }
        idx
    }

    /// Gives an empty set its split keys: shard `i ≥ 1` starts at
    /// `splits[i - 1]`.
    ///
    /// # Panics
    /// Panics unless `splits` holds `shard_count() - 1` ascending keys and
    /// the set was built empty.
    pub fn with_splits(self, splits: Vec<KeyBuf>) -> Self {
        assert!(splits.len() + 1 == self.shards.len() && splits.is_sorted(), "need S - 1 ascending splits");
        assert!(self.splits.set(splits).is_ok(), "with_splits needs an empty set");
        self
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The split keys: shard `i ≥ 1` starts at `splits()[i - 1]`.
    pub fn splits(&self) -> &[KeyBuf] {
        self.splits.get().map_or(&[], Vec::as_slice)
    }

    /// The index of the shard that owns `key`, in either spelling.
    #[inline]
    pub fn home(&self, key: AnyKey<'_>) -> usize {
        let encoded;
        let key = match key {
            AnyKey::U64(k) => {
                encoded = k.to_be_bytes();
                &encoded[..]
            }
            AnyKey::Bytes(b) => b,
        };
        self.splits().partition_point(|s| s.as_slice() <= key)
    }

    /// The `i`-th shard tree (for tests and per-shard introspection).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn shard(&self, i: usize) -> &T {
        &self.shards[i]
    }

    /// Each shard's entry count and the largest count over the mean: 1.0
    /// for an even spread, `shard_count()` when one shard holds every
    /// key, 0.0 for an empty set. Ranges keep the inserted keys' skew:
    /// ascending fresh keys all land in the last shard.
    pub fn entry_skew(&self) -> (Vec<u64>, f64) {
        let entries: Vec<u64> = self.shards.iter().map(|s| s.stats().entries).collect();
        let (total, max) = (entries.iter().sum::<u64>(), entries.iter().max().copied().unwrap_or(0));
        let ratio = if total == 0 { 0.0 } else { (max * entries.len() as u64) as f64 / total as f64 };
        (entries, ratio)
    }

    /// Every shard's smallest key, `None` for an empty shard.
    fn first_keys(&self) -> Vec<Option<KeyBuf>> {
        let mut one = Vec::with_capacity(1);
        self.shards.iter().map(|s| (s.scan_k(&[], 1, &mut one) == 1).then(|| one[0].0)).collect()
    }

    /// The first `n` pairs of the scan `scan(shard, m, buf)` (a shard's
    /// first `m` pairs from the start) in shard `home`, then in the
    /// shards after it while `out` is short (module docs).
    fn concat_scan<K: Copy>(
        &self,
        home: usize,
        n: usize,
        out: &mut Vec<(K, Value)>,
        run: &'static LocalKey<Cell<Vec<(K, Value)>>>,
        scan: impl Fn(&T, usize, &mut Vec<(K, Value)>) -> usize,
    ) -> usize {
        scan(&self.shards[home], n, out);
        let owners = self.splits().len() + 1;
        if out.len() < n && home + 1 < owners {
            let mut buf = run.take();
            for shard in &self.shards[home + 1..owners] {
                scan(shard, n - out.len(), &mut buf);
                out.extend_from_slice(&buf);
                if out.len() == n {
                    break;
                }
            }
            if buf.capacity() <= RUN_KEEP {
                run.set(buf);
            }
        }
        out.len()
    }

    /// Bulk-loads `pairs` with `load`, one contiguous slice per shard,
    /// routing a pair by `key`. Unsorted input is first sorted (stably:
    /// the last duplicate still wins) into a copy. An empty, unsplit set
    /// first picks the splits that give every shard an equal count.
    fn load_ranges<K: Copy + Ord + Send + Sync>(
        &self,
        pairs: &[(K, Value)],
        key: impl Fn(&K) -> AnyKey<'_>,
        load: impl Fn(&T, &[(K, Value)]) -> Result<(), OpError> + Sync,
    ) -> Result<(), OpError> {
        let s = self.shards.len();
        if s == 1 {
            return load(&self.shards[0], pairs);
        }
        let sorted;
        let pairs = if pairs.is_sorted_by_key(|p| p.0) {
            pairs
        } else {
            sorted = {
                let mut v = pairs.to_vec();
                v.sort_by_key(|p| p.0);
                v
            };
            &sorted
        };
        if self.splits.get().is_none() && !pairs.is_empty() && self.first_keys().iter().all(Option::is_none) {
            let _ = self.splits.set((1..s).map(|i| split_of(key(&pairs[i * pairs.len() / s].0))).collect());
        }
        let mut rest = pairs;
        let parts = (0..s).map(|i| {
            let (part, tail) = rest.split_at(rest.partition_point(|p| self.home(key(&p.0)) <= i));
            rest = tail;
            (i, part)
        });
        let parts = parts.filter(|(_, part)| !part.is_empty());
        on_threads(parts, true, |(i, part)| load(&self.shards[i], part)).into_iter().collect()
    }
}

impl<T: RecoverableIndex + Send> ShardedIndex<T> {
    /// Formats every pool and creates one empty tree per shard, in
    /// parallel. The set has no splits until its first bulk load or
    /// [`ShardedIndex::with_splits`].
    ///
    /// # Panics
    /// Panics if `pools` is empty or a shard constructor panics.
    pub fn create(pools: &[Arc<PmemPool>], cfg: T::Config) -> Self {
        let (shards, _) = open_parallel(pools, cfg, T::create);
        ShardedIndex::from_shards(shards)
    }

    /// Recovers every shard **in parallel** — one rebuild thread per shard,
    /// each scanning its own leaf chain and rebuilding its own volatile
    /// index — then routes by the recovered contents. Correctness never
    /// depends on cross-shard ordering because no persistent state is
    /// shared.
    ///
    /// # Panics
    /// Panics if `pools` is empty or a shard's recovery panics.
    pub fn recover(pools: &[Arc<PmemPool>], cfg: T::Config) -> Self {
        Self::recover_timed(pools, cfg).0
    }

    /// [`ShardedIndex::recover`], additionally reporting each shard's
    /// rebuild wall-clock time (for the recovery-scaling experiment).
    pub fn recover_timed(pools: &[Arc<PmemPool>], cfg: T::Config) -> (Self, Vec<Duration>) {
        let (shards, times) = open_parallel(pools, cfg, T::recover);
        (ShardedIndex::from_shards(shards), times)
    }

    /// Reattaches every shard after a clean shutdown, in parallel.
    ///
    /// # Panics
    /// Panics if `pools` is empty or a shard constructor panics.
    pub fn reopen_clean(pools: &[Arc<PmemPool>], cfg: T::Config) -> Self {
        let (shards, _) = open_parallel(pools, cfg, T::reopen_clean);
        ShardedIndex::from_shards(shards)
    }

    /// Cleanly shuts down every shard.
    pub fn close(&self) {
        for s in &self.shards {
            s.close();
        }
    }
}

/// Runs `run` on every part, on one scoped thread per part when
/// `parallel`, and returns the results in part order.
fn on_threads<P: Send, R: Send>(parts: impl Iterator<Item = P>, parallel: bool, run: impl Fn(P) -> R + Sync) -> Vec<R> {
    if !parallel {
        return parts.map(run).collect();
    }
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts.map(|part| scope.spawn(move || run(part))).collect();
        handles.into_iter().map(|h| h.join().expect("shard worker thread panicked")).collect()
    })
}

/// Opens one tree per pool; results come back in shard order together with
/// each shard's open/rebuild wall-clock time.
///
/// A single shard opens inline: spawning a thread to run one rebuild
/// costs more than the rebuild itself at small tree sizes. More shards are
/// opened by `min(shards, available_parallelism)` threads, each taking a
/// contiguous run of pools, so an oversharded set (more shards than
/// cores) pays no per-shard thread spawn either.
fn open_parallel<T, F>(pools: &[Arc<PmemPool>], cfg: T::Config, open: F) -> (Vec<T>, Vec<Duration>)
where
    T: RecoverableIndex + Send,
    F: Fn(Arc<PmemPool>, T::Config) -> T + Send + Sync,
{
    assert!(!pools.is_empty(), "ShardedIndex needs at least one shard pool");
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get()).min(pools.len());
    let runs = pools.chunks(pools.len().div_ceil(workers));
    let opened = on_threads(runs, workers > 1, |run| {
        let timed_open = |pool: &Arc<PmemPool>| {
            let t0 = Instant::now();
            let tree = open(Arc::clone(pool), cfg.clone());
            (tree, t0.elapsed())
        };
        run.iter().map(timed_open).collect::<Vec<_>>()
    });
    opened.into_iter().flatten().unzip()
}

impl<T: PersistentIndex> PersistentIndex for ShardedIndex<T> {
    fn apply(&self, key: AnyKey<'_>, value: Value, op: WriteOp) -> Result<(), OpError> {
        self.shards[self.home(key)].apply(key, value, op)
    }

    fn get(&self, key: AnyKey<'_>) -> Option<Value> {
        self.shards[self.home(key)].get(key)
    }

    /// The first `n` pairs from `start`: the home shard's, then the next
    /// shards' while short (module docs).
    fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        self.concat_scan(self.home(AnyKey::U64(start)), n, out, &RUN, |s, m, buf| s.scan_n(start, m, buf))
    }

    /// Byte-key analogue of [`ShardedIndex::scan_n`]; `start` may be any
    /// byte string.
    fn scan_k(&self, start: KeyRef<'_>, n: usize, out: &mut Vec<(KeyBuf, Value)>) -> usize {
        self.concat_scan(self.home(AnyKey::Bytes(start)), n, out, &RUN_K, |s, m, buf| s.scan_k(start, m, buf))
    }

    /// Loads every shard's contiguous slice of the sorted pairs, the
    /// non-empty shards in parallel; an empty, unsplit set first picks
    /// equal-count splits (module docs). Each shard resolves duplicates
    /// itself. Returns the first shard error, if any.
    fn load_sorted(&self, pairs: &[(Key, Value)]) -> Result<(), OpError> {
        self.load_ranges(pairs, |&k| AnyKey::U64(k), |s, part| s.load_sorted(part))
    }

    /// Byte-key bulk load, as [`ShardedIndex::load_sorted`].
    fn load_sorted_k(&self, pairs: &[(KeyBuf, Value)]) -> Result<(), OpError> {
        self.load_ranges(pairs, |k| AnyKey::Bytes(k.as_slice()), |s, part| s.load_sorted_k(part))
    }

    /// Sorts the batch stably by key (same-key elements keep their
    /// submission order) and applies each shard's contiguous run of it,
    /// in parallel (one thread per shard) when the batch is large enough
    /// to amortise the spawns. The results align with the sorted slice,
    /// as the trait requires.
    fn write_batch(&self, batch: &mut [(Key, Value, WriteOp)]) -> Vec<Result<(), OpError>> {
        let n = self.shards.len();
        batch.sort_by_key(|e| e.0);
        // Below ~64 keys/shard the spawn+join overhead beats the win from
        // parallel sub-batches; apply inline in that regime.
        let parallel = batch.len() >= 64 * n && std::thread::available_parallelism().map_or(1, |p| p.get()) > 1;
        let home = |e: &(Key, Value, WriteOp)| self.home(AnyKey::U64(e.0));
        let parts = batch.chunk_by_mut(|a, b| home(a) == home(b)).map(|part| (home(&part[0]), part));
        on_threads(parts, parallel, |(i, part)| self.shards[i].write_batch(part)).into_iter().flatten().collect()
    }

    fn name(&self) -> &'static str {
        "Sharded"
    }

    fn supports_concurrency(&self) -> bool {
        self.shards.iter().all(|s| s.supports_concurrency())
    }

    /// Sums the structural counters across shards and ORs the sticky
    /// [`TreeStats::pool_exhausted`] flag, so one full shard is visible at
    /// the composite level.
    fn stats(&self) -> TreeStats {
        let mut total = TreeStats::default();
        for s in &self.shards {
            total.merge(&s.stats());
        }
        total
    }

    /// Mean of the per-shard abort ratios (each shard's tree keeps its
    /// own HTM counters, so an unweighted mean is the honest summary
    /// absent per-shard attempt counts). `None` if no shard reports one.
    fn htm_abort_ratio(&self) -> Option<f64> {
        let ratios: Vec<f64> = self.shards.iter().filter_map(|s| s.htm_abort_ratio()).collect();
        (!ratios.is_empty()).then(|| ratios.iter().sum::<f64>() / ratios.len() as f64)
    }
}

/// Per-shard observability: every shard's sections re-labelled
/// `shardN.<section>`, so one registry entry for the composite index
/// exports the full per-shard breakdown (pmem counters, HTM taxonomy,
/// phase timers — whatever the shard type provides).
///
/// Heat sections (`heat.*`) are *additionally* merged across shards
/// into unprefixed sections of the same name: entry keys get the shard
/// index in their top byte (leaf offsets and stripe/set indices never
/// reach 2^56), so a composite top-K still says which shard's structure
/// is hot while ranking globally.
///
/// The layer's own gauges go in a `shards` section, computed at snapshot
/// time from each shard's `stats()` ([`ShardedIndex::entry_skew`]):
/// `entries.N` per shard and `entries_max_over_mean`.
impl<T: PersistentIndex + obs::ObsSource> obs::ObsSource for ShardedIndex<T> {
    fn obs_sections(&self) -> Vec<(String, obs::Section)> {
        const MERGED_TOP_K: usize = 16;
        let mut out = Vec::new();
        let mut merged: Vec<(String, Vec<obs::HeatEntry>)> = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            for (name, section) in shard.obs_sections() {
                if name.starts_with("heat.") {
                    if let obs::Section::Heat(entries) = &section {
                        let tagged = entries
                            .iter()
                            .map(|e| obs::HeatEntry { key: ((i as u64) << 56) | e.key, ..*e });
                        match merged.iter_mut().find(|(n, _)| *n == name) {
                            Some((_, all)) => all.extend(tagged),
                            None => merged.push((name.clone(), tagged.collect())),
                        }
                    }
                }
                out.push((format!("shard{i}.{name}"), section));
            }
        }
        for (name, mut entries) in merged {
            entries.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
            entries.truncate(MERGED_TOP_K);
            out.push((name, obs::Section::Heat(entries)));
        }
        let (entries, ratio) = self.entry_skew();
        let mut gauges: Vec<(String, f64)> =
            entries.iter().enumerate().map(|(i, &e)| (format!("entries.{i}"), e as f64)).collect();
        gauges.push(("entries_max_over_mean".into(), ratio));
        out.push(("shards".to_string(), obs::Section::Gauges(gauges)));
        out
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::MemIndex;
    use crate::MAX_KEY_LEN;
    use std::collections::BTreeMap;
    use std::ops::Bound;
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

    fn enc(k: Key) -> KeyBuf {
        U64Key::encode(k)
    }

    fn home(idx: &ShardedIndex<impl PersistentIndex>, k: Key) -> usize {
        idx.home(AnyKey::U64(k))
    }

    /// `n` empty [`MemIndex`] shards given the u64 splits `splits`.
    fn split(n: usize, splits: &[Key]) -> ShardedIndex<MemIndex> {
        let shards = (0..n).map(|_| MemIndex::new()).collect();
        ShardedIndex::from_shards(shards).with_splits(splits.iter().map(|&k| enc(k)).collect())
    }

    /// The oracle's first `n` pairs from `start`.
    fn want(model: &BTreeMap<Key, Value>, start: Key, n: usize) -> Vec<(Key, Value)> {
        model.range(start..).take(n).map(|(&k, &v)| (k, v)).collect()
    }

    #[test]
    fn point_ops_route_and_compose() {
        let idx = split(4, &[100, 200, 300]);
        for k in 0..500u64 {
            idx.insert(k, k * 10).unwrap();
        }
        let entries: Vec<u64> = (0..4).map(|i| idx.shard(i).stats().entries).collect();
        assert_eq!(entries, [100, 100, 100, 200], "shard i holds [split_i, split_i+1)");
        assert_eq!(idx.insert(42, 1), Err(OpError::AlreadyExists));
        assert_eq!(idx.update(9999, 1), Err(OpError::NotFound));
        idx.update(42, 421).unwrap();
        assert_eq!(idx.find(42), Some(421));
        idx.remove(42).unwrap();
        assert_eq!(idx.find(42), None);
        assert_eq!(idx.stats().entries, 499);
    }

    /// A shard of fixed u64 pairs (`mem`) or byte pairs (`bytes`) that
    /// counts its u64 scans.
    #[derive(Default)]
    struct Counted {
        mem: MemIndex,
        bytes: BTreeMap<KeyBuf, Value>,
        scans: AtomicUsize,
    }

    impl PersistentIndex for Counted {
        fn get(&self, key: AnyKey<'_>) -> Option<Value> {
            match key {
                AnyKey::U64(k) => self.mem.find(k),
                AnyKey::Bytes(b) => self.bytes.get(b).copied(),
            }
        }
        fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
            self.scans.fetch_add(1, AtomicOrdering::Relaxed);
            self.mem.scan_n(start, n, out)
        }
        fn scan_k(&self, start: KeyRef<'_>, n: usize, out: &mut Vec<(KeyBuf, Value)>) -> usize {
            if self.bytes.is_empty() {
                return self.mem.scan_k(start, n, out);
            }
            out.clear();
            let from = (Bound::Included(start), Bound::Unbounded);
            out.extend(self.bytes.range::<[u8], _>(from).take(n).map(|(k, v)| (*k, *v)));
            out.len()
        }
        fn name(&self) -> &'static str {
            "Counted"
        }
        fn stats(&self) -> TreeStats {
            self.mem.stats()
        }
    }

    impl obs::ObsSource for Counted {
        fn obs_sections(&self) -> Vec<(String, obs::Section)> {
            Vec::new()
        }
    }

    /// `from_shards` over one [`Counted`] per part, plus the union as the
    /// oracle. The value of key `k` is `k ^ 0x5A5A`.
    fn u64_parts(parts: Vec<Vec<Key>>) -> (ShardedIndex<Counted>, BTreeMap<Key, Value>) {
        let mut model = BTreeMap::new();
        let mut shards = Vec::new();
        for keys in parts {
            let shard = Counted::default();
            for k in keys {
                shard.mem.insert(k, k ^ 0x5A5A).unwrap();
                assert!(model.insert(k, k ^ 0x5A5A).is_none(), "key {k} on two shards");
            }
            shards.push(shard);
        }
        (ShardedIndex::from_shards(shards), model)
    }

    /// Checks `scan_n(start, n)` against the oracle, that every pair it
    /// returns routes home, and that a full scan read no shard past its
    /// last pair's; returns the number of shards it read.
    fn check_u64(idx: &ShardedIndex<Counted>, model: &BTreeMap<Key, Value>, start: Key, n: usize) -> usize {
        let scans = || idx.shards.iter().map(|s| s.scans.load(AtomicOrdering::Relaxed)).sum::<usize>();
        let before = scans();
        let mut out = vec![(7, 7)]; // stale contents must go
        assert_eq!(idx.scan_n(start, n, &mut out), out.len());
        let read = scans() - before;
        assert_eq!(out, want(model, start, n), "scan_n({start}, {n}) over {} shards", idx.shard_count());
        assert!(out.iter().all(|&(k, v)| idx.find(k) == Some(v)), "a pair routes to a shard without it");
        if let Some(&(last, _)) = out.last().filter(|_| out.len() == n) {
            assert_eq!(read, home(idx, last) - home(idx, start) + 1, "scan_n({start}, {n}) read too many shards");
        }
        read
    }

    #[test]
    fn scan_is_globally_ordered_across_shards() {
        let parts = [0..200, 200..400, 400..600].map(|r| r.step_by(3).collect()).to_vec();
        let (idx, model) = u64_parts(parts);
        for start in [0u64, 7, 199, 200, 201, 398, 599, 1000] {
            for n in [0usize, 1, 5, 67, 100, 10_000, usize::MAX] {
                check_u64(&idx, &model, start, n);
            }
        }
    }

    #[test]
    fn splits_at_zero_and_at_the_largest_key() {
        // Shard 0 is empty, so shard 1 starts at key 0; from three shards
        // on, the last one holds only `u64::MAX`. A dense run, a gap and a
        // top run fill the shards between in contiguous chunks.
        let keys: Vec<Key> = (0..3_000).chain(10_000..12_000).chain(u64::MAX - 300..u64::MAX).collect();
        for shards in [1usize, 2, 3, 8] {
            let (first, last) = if shards >= 3 { (1, shards - 2) } else { (shards - 1, shards - 1) };
            let mut parts = vec![Vec::new(); shards];
            for (j, chunk) in keys.chunks(keys.len().div_ceil(last - first + 1)).enumerate() {
                parts[first + j].extend_from_slice(chunk);
            }
            parts[shards - 1].push(u64::MAX);
            let (idx, model) = u64_parts(parts);
            if shards >= 2 {
                assert_eq!((idx.splits()[0], home(&idx, 0)), (enc(0), 1), "shard 0 owns nothing");
            }
            if shards >= 3 {
                assert_eq!(idx.splits()[shards - 2], enc(u64::MAX));
                assert_eq!((home(&idx, u64::MAX - 1), home(&idx, u64::MAX)), (shards - 2, shards - 1));
            }
            let (total, mut crossed) = (model.len(), 0);
            for start in [0, 1_500, 2_999, 9_990, 10_000, 11_990, u64::MAX - 400, u64::MAX - 1, u64::MAX] {
                for n in [0, 1, 2, 8, 50, 333, total - 1, total, total + 1, usize::MAX] {
                    crossed += usize::from(check_u64(&idx, &model, start, n) > 1);
                }
            }
            assert_eq!(crossed > 0, shards > 2, "{shards} shards: {crossed} scans crossed a split");
        }
    }

    #[test]
    fn a_home_shard_holding_exactly_n_is_not_continued_past() {
        let (idx, model) = u64_parts(vec![(0..50).collect(), (100..300).collect()]);
        assert_eq!(check_u64(&idx, &model, 0, 50), 1, "the home shard held all 50");
        assert_eq!(check_u64(&idx, &model, 0, 51), 2);
        assert_eq!(check_u64(&idx, &model, 50, 2), 2, "a start in the gap belongs to shard 0");
        // The last shard ends at `u64::MAX`, and so does a scan there.
        let (idx, model) = u64_parts(vec![(0..100).collect(), (u64::MAX - 6..=u64::MAX).collect()]);
        assert_eq!(check_u64(&idx, &model, u64::MAX - 6, 8), 1);
        assert_eq!(check_u64(&idx, &model, u64::MAX, 8), 1);
        assert_eq!(check_u64(&idx, &model, 99, 8), 2);
    }

    #[test]
    fn an_empty_middle_shard_folds_into_its_left_neighbour() {
        let (idx, model) = u64_parts(vec![(0..100).collect(), vec![], (500..600).collect(), vec![]]);
        assert_eq!(idx.splits(), &[enc(500), enc(500)], "trailing empty shards get no split");
        assert_eq!([0, 499, 500, u64::MAX].map(|k| home(&idx, k)), [0, 0, 2, 2]);
        for start in [0, 99, 100, 300, 500, 599, 600] {
            for n in [0, 1, 50, 120, 1_000] {
                check_u64(&idx, &model, start, n);
            }
        }
    }

    /// Splits of 1, 3, 8, 9 and 64 bytes.
    fn byte_splits() -> Vec<KeyBuf> {
        let splits = [&b"b"[..], b"bb\x00", b"c\x00\x00\x00\x00\x00\x00\x01", b"cccccccc\x00", &[0xC0; 64]];
        splits.map(KeyBuf::from_slice).to_vec()
    }

    #[test]
    fn byte_routing_agrees_with_u64_routing_on_encoded_keys() {
        let idx = ShardedIndex::from_shards((0..6).map(|_| MemIndex::new()).collect()).with_splits(byte_splits());
        let keys: [&[u8]; 10] =
            [b"", b"a\xFF", b"b", b"bb", b"bb\x00", b"c", b"cccccccc", b"cccccccc\x00", &[0xC0; 63], &[0xC0; 65]];
        let homes = keys.map(|k| idx.home(AnyKey::Bytes(k)));
        assert_eq!(homes, [0, 0, 1, 1, 2, 2, 3, 4, 4, 5], "an over-long key routes by order too");
        let probes = [0u64, 0x6200 << 48, 0x6262 << 48, 0x6300_0000_0000_0001, 0x6363_6363_6363_6364, u64::MAX];
        for k in probes.into_iter().flat_map(|k| [k.saturating_sub(1), k, k.saturating_add(1)]) {
            assert_eq!(home(&idx, k), idx.home(AnyKey::Bytes(enc(k).as_slice())), "u64 key {k:#x}");
        }
        assert_eq!(home(&idx, 0x6363_6363_6363_6363), 3, "an 8-byte prefix sorts below its 9-byte split");
        for k in (0..2000u64).step_by(7).map(|k| k << 52) {
            idx.insert(k, k + 1).unwrap();
            assert_eq!(idx.find_k(enc(k).as_slice()), Some(k + 1), "key {k:#x} written typed, read as bytes");
        }
    }

    #[test]
    fn byte_scans_resume_after_full_length_keys() {
        // Shard 4 ends with a full-length key below the next split, and
        // shard 5 holds the largest key. Each shard's first key is its
        // split, so the view rebuilt from the contents has the same ones.
        let router = ShardedIndex::from_shards((0..6).map(|_| MemIndex::new()).collect()).with_splits(byte_splits());
        let mut top_of_4 = [0xC0; MAX_KEY_LEN];
        top_of_4[MAX_KEY_LEN - 1] = 0;
        let fixed: [&[u8]; 8] = [b"", b"a", b"bb\x01", b"c", b"cccccccc\x01", &top_of_4, &[0xC0; 64], &[0xFF; 64]];
        let keys = byte_splits().into_iter().map(|s| s.as_slice().to_vec()).chain(fixed.map(<[u8]>::to_vec));
        let keys: Vec<Vec<u8>> = keys.chain((0..200u8).map(|i| vec![b'b', b'a', i])).collect();
        let mut model: BTreeMap<Vec<u8>, Value> = BTreeMap::new();
        let mut shards: Vec<Counted> = (0..6).map(|_| Counted::default()).collect();
        for (i, k) in keys.iter().enumerate() {
            shards[router.home(AnyKey::Bytes(k))].bytes.insert(KeyBuf::from_slice(k), i as Value);
            model.insert(k.clone(), i as Value);
        }
        let idx = ShardedIndex::from_shards(shards);
        assert_eq!(idx.splits(), router.splits());
        let mut out = Vec::new();
        for start in keys.iter().map(Vec::as_slice).chain([&b"bb\x00\x00"[..], &[0xC0; 65], &[0xFF; 65]]) {
            for n in [0, 1, 2, 7, 50, 300, usize::MAX] {
                assert_eq!(idx.scan_k(start, n, &mut out), out.len());
                let seen: Vec<(Vec<u8>, Value)> = out.iter().map(|(k, v)| (k.as_slice().to_vec(), *v)).collect();
                let want: Vec<_> = model.range(start.to_vec()..).take(n).map(|(k, &v)| (k.clone(), v)).collect();
                assert_eq!(seen, want, "scan_k({start:x?}, {n})");
            }
        }
    }

    #[test]
    fn byte_ops_and_scan_merge_through_the_codec_defaults() {
        let idx = split(3, &[100, 200]);
        for k in (0..300u64).step_by(3) {
            idx.insert_k(enc(k).as_slice(), k + 1).unwrap();
        }
        assert_eq!(idx.find(42), Some(43), "byte writes visible to typed reads");
        assert_eq!(idx.find_k(enc(42).as_slice()), Some(43));
        let mut out = Vec::new();
        assert_eq!(idx.scan_k(enc(93).as_slice(), 5, &mut out), 5);
        let got: Vec<u64> = out.iter().map(|(k, _)| U64Key::decode(k.as_slice()).unwrap()).collect();
        assert_eq!(got, vec![93, 96, 99, 102, 105], "a scan crosses the split in order");
        assert_eq!(idx.insert_k(b"odd", 1), Err(OpError::UnsupportedKey));
    }

    #[test]
    fn views_built_from_the_same_loaded_trees_route_alike() {
        let shards: Vec<Arc<MemIndex>> = (0..3).map(|_| Arc::new(MemIndex::new())).collect();
        let loader = ShardedIndex::from_shards(shards.clone());
        assert_eq!((loader.splits(), home(&loader, u64::MAX)), (&[][..], 0), "empty: all to shard 0");
        let pairs: Vec<(Key, Value)> = (1..=3_000u64).map(|k| (k * 7, k)).collect();
        loader.load_sorted(&pairs).unwrap();
        assert_eq!(loader.splits(), &[enc(7_007), enc(14_007)], "equal-count splits");
        assert_eq!(loader.entry_skew(), (vec![1_000, 1_000, 1_000], 1.0));
        let (a, b) = (ShardedIndex::from_shards(shards.clone()), ShardedIndex::from_shards(shards));
        for k in (0..25_000u64).chain([u64::MAX]) {
            assert_eq!((home(&a, k), home(&b, k)), (home(&loader, k), home(&loader, k)), "key {k}");
        }
        assert!(pairs.iter().all(|&(k, v)| b.find(k) == Some(v)));
    }

    #[test]
    fn unsorted_and_byte_loads_slice_by_the_picked_splits() {
        let idx = ShardedIndex::from_shards(vec![MemIndex::new(), MemIndex::new()]);
        // Unsorted, with a duplicate whose last occurrence must win.
        idx.load_sorted(&[(9, 1), (3, 1), (5, 1), (3, 2), (1, 1), (7, 1)]).unwrap();
        assert_eq!((idx.splits(), idx.entry_skew().0), (&[enc(5)][..], vec![2, 3]));
        assert_eq!((idx.find(3), idx.find(9)), (Some(2), Some(1)));
        let idx = ShardedIndex::from_shards((0..3).map(|_| MemIndex::new()).collect());
        idx.load_sorted_k(&(0..9u64).map(|k| (enc(k * 10), k)).collect::<Vec<_>>()).unwrap();
        assert_eq!((idx.splits(), idx.entry_skew().0), (&[enc(30), enc(60)][..], vec![3, 3, 3]));
        // A set that holds keys keeps its splits.
        idx.load_sorted_k(&[(enc(5), 1), (enc(95), 1)]).unwrap();
        assert_eq!((idx.splits(), idx.entry_skew().0), (&[enc(30), enc(60)][..], vec![4, 3, 4]));
    }

    #[test]
    fn recovery_after_a_shard_lost_its_first_key() {
        let shards: Vec<Arc<MemIndex>> = (0..3).map(|_| Arc::new(MemIndex::new())).collect();
        let idx = ShardedIndex::from_shards(shards.clone()).with_splits(vec![enc(1_000), enc(2_000)]);
        let mut model: BTreeMap<Key, Value> = (0..3_000).step_by(10).map(|k| (k, k)).collect();
        model.iter().for_each(|(&k, &v)| idx.insert(k, v).unwrap());
        // Shard 1 loses its first ten keys, and shard 2 all of its keys.
        for k in (1_000..1_100u64).step_by(10).chain((2_000..3_000).step_by(10)) {
            idx.remove(k).unwrap();
            model.remove(&k);
        }
        // A new view over the same contents, as `recover` builds one.
        let again = ShardedIndex::from_shards(shards);
        assert_eq!(again.splits(), &[enc(1_100)], "shard 1 starts at its first key; shard 2 folds away");
        assert!((0..3_100u64).all(|k| again.find(k) == model.get(&k).copied()));
        // It keeps serving: the lost ranges belong to their left neighbours.
        for k in [1_005u64, 2_500, u64::MAX] {
            again.insert(k, k).unwrap();
            model.insert(k, k);
        }
        assert_eq!([1_005, 2_500].map(|k| home(&again, k)), [0, 1]);
        let mut out = Vec::new();
        for start in [0u64, 995, 1_005, 1_100, 2_500, u64::MAX] {
            again.scan_n(start, 200, &mut out);
            assert_eq!(out, want(&model, start, 200), "scan_n({start}, 200)");
        }
    }

    #[test]
    fn the_obs_section_reports_entries_per_shard() {
        let (idx, _) = u64_parts(vec![(0..30).collect(), (100..110).collect()]);
        let sections = obs::ObsSource::obs_sections(&idx);
        let [(name, obs::Section::Gauges(gauges))] = &sections[..] else { panic!("one gauge section") };
        let gauges: Vec<(&str, f64)> = gauges.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        assert_eq!((name.as_str(), &gauges[..]), ("shards", &[("entries.0", 30.0), ("entries.1", 10.0), ("entries_max_over_mean", 1.5)][..]));
    }

    #[test]
    fn stats_or_pool_exhausted() {
        /// A shard whose pool is full: every write fails.
        struct Exhausted(MemIndex);
        impl PersistentIndex for Exhausted {
            fn apply(&self, _: AnyKey<'_>, _: Value, _: WriteOp) -> Result<(), OpError> {
                Err(OpError::PoolExhausted)
            }
            fn get(&self, key: AnyKey<'_>) -> Option<Value> {
                self.0.get(key)
            }
            fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
                self.0.scan_n(start, n, out)
            }
            fn name(&self) -> &'static str {
                "Exhausted"
            }
            fn stats(&self) -> TreeStats {
                TreeStats { pool_exhausted: true, ..self.0.stats() }
            }
        }
        let idx = ShardedIndex::from_shards(vec![Exhausted(MemIndex::new()), Exhausted(MemIndex::new())]);
        assert!(idx.stats().pool_exhausted);
        assert_eq!(idx.upsert(1, 1), Err(OpError::PoolExhausted));
    }
}
