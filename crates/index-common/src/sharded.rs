//! A composable sharded index: N independent trees behaving as one.
//!
//! The paper scales one RNTree by overlapping persistency with concurrency
//! inside a single leaf; a production-scale service additionally scales
//! *across* trees. [`ShardedIndex`] is that layer: it hash-partitions the
//! key space over `N` inner [`PersistentIndex`] instances (one per pool
//! shard, see `nvm::PoolSet`), forwards point operations to the owning
//! shard, and stitches range scans back together with a merge so the
//! output is globally key-ordered.
//!
//! Because every shard is a complete tree with its own persistent pool, its
//! own allocator, and its own HTM fallback domain, shards interact through
//! **no** shared persistent or lock state — the only cross-shard coupling
//! left is false sharing in the process-wide TL2 lock table, which is
//! probabilistic and read-mostly. That independence is what makes recovery
//! embarrassingly parallel: [`ShardedIndex::recover`] runs one rebuild
//! thread per shard (the sharded analogue of the paper's §5.4 leaf-chain
//! rebuild).
//!
//! ## Partitioning function
//!
//! Keys are routed by a SplitMix64-style avalanche of the key modulo the
//! shard count ([`shard_of`]). The avalanche matters: YCSB-style workloads
//! use structured (sequential or zipfian-ranked) keys, and `key % n` alone
//! would stripe adjacent hot keys onto the same shard boundary patterns.
//! The function is pure and stable, so a key's home shard never changes for
//! the life of a set — rebalancing is an explicit higher-level migration,
//! exactly as in a sharded service.
//!
//! ## Range scans
//!
//! A scan asks every shard for its first `n` pairs ≥ `start`; the global
//! first `n` are contained in their union. The first shard scans straight
//! into the caller's `out`. Each further shard scans into one per-thread
//! staging buffer, and that sorted run is merged into `out` from the back
//! (the tail of `out` is free room, so nothing is overwritten before it is
//! read), then `out` is cut to `n`. Nothing is allocated per scan once
//! `out` and the staging buffer have grown: there is no per-shard vector,
//! no cursor array and no heap. The staging buffer is taken out of its
//! thread-local for the duration of the scan, so a nested `ShardedIndex`
//! shard finds the slot empty and stages in a buffer of its own. A buffer
//! that grew past `STAGING_KEEP` pairs (a full-tree scan) is dropped
//! instead of being put back, so no thread pins megabytes after one.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nvm::PmemPool;

use crate::{
    AnyKey, Key, KeyBuf, KeyRef, OpError, PersistentIndex, RecoverableIndex, TreeStats, Value,
    WriteOp,
};

/// Routes `key` to its home shard among `shards` partitions.
///
/// SplitMix64 finalizer (Steele et al.), then a modulo: every output bit of
/// the finalizer depends on every input bit, so sequential keys spread
/// uniformly regardless of the shard count's factors.
///
/// # Panics
/// Panics (in debug, via modulo-by-zero) if `shards == 0`.
#[inline]
pub fn shard_of(key: Key, shards: usize) -> usize {
    let mut x = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

/// Routes a byte-string key to its home shard among `shards` partitions.
///
/// **Agrees with [`shard_of`] on u64-encoded keys**: an 8-byte key is
/// decoded big-endian and routed exactly as its `u64` would be, so a key
/// written through the typed API and read through the byte API (or vice
/// versa) always lands on the same shard. Other lengths are routed by an
/// FNV-1a hash fed through the same SplitMix64 finalizer.
///
/// # Panics
/// Panics (in debug, via modulo-by-zero) if `shards == 0`.
#[inline]
pub fn shard_of_bytes(key: KeyRef<'_>, shards: usize) -> usize {
    if let Ok(arr) = <[u8; 8]>::try_from(key) {
        return shard_of(u64::from_be_bytes(arr), shards);
    }
    let mut h = 0xCBF2_9CE4_8422_2325u64; // FNV-1a offset basis
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    shard_of(h, shards)
}

/// Largest staging buffer, in pairs, a thread keeps between scans.
///
/// Point-range scans (tens to hundreds of pairs) stay far below it and
/// reuse their buffer forever; a full-tree scan's buffer is released.
const STAGING_KEEP: usize = 4096;

thread_local! {
    static STAGING: Cell<Vec<(Key, Value)>> = const { Cell::new(Vec::new()) };
    static STAGING_K: Cell<Vec<(KeyBuf, Value)>> = const { Cell::new(Vec::new()) };
}

/// The globally ordered first `n` pairs of `shards`, where `scan(shard,
/// buf)` fills `buf` with that shard's first `n` pairs in key order. One
/// shard's run lands in `out` directly; the others go through `staging`
/// and [`merge_run`] (see the module docs).
fn merged_scan<T, K: Ord + Copy>(
    shards: &[T],
    n: usize,
    out: &mut Vec<(K, Value)>,
    staging: &'static std::thread::LocalKey<Cell<Vec<(K, Value)>>>,
    scan: impl Fn(&T, &mut Vec<(K, Value)>) -> usize,
) -> usize {
    out.clear();
    if n == 0 {
        return 0;
    }
    let (first, rest) = shards.split_first().expect("ShardedIndex has at least one shard");
    scan(first, out);
    if rest.is_empty() {
        return out.len();
    }
    let mut run = staging.take();
    for shard in rest {
        scan(shard, &mut run);
        merge_run(out, &run, n);
    }
    if run.capacity() <= STAGING_KEEP {
        staging.set(run);
    }
    out.len()
}

/// Merges the sorted `run` into the sorted `out` in place, then keeps the
/// first `n` pairs. `out` is extended by `run.len()` and filled from the
/// back, largest key first, so every slot is read before it is written.
/// Keys are unique across shards (one home per key), so order among equal
/// keys never matters.
fn merge_run<K: Ord + Copy>(out: &mut Vec<(K, Value)>, run: &[(K, Value)], n: usize) {
    let mut i = out.len();
    let mut j = run.len();
    out.extend_from_slice(run);
    while j > 0 {
        // `out[i + j - 1]` is the next slot to fill, from the back.
        if i > 0 && out[i - 1].0 > run[j - 1].0 {
            out[i + j - 1] = out[i - 1];
            i -= 1;
        } else {
            out[i + j - 1] = run[j - 1];
            j -= 1;
        }
    }
    out.truncate(n);
}

/// N independent persistent trees composed into one [`PersistentIndex`].
///
/// See the module-level docs for the design. `T` is usually a concrete
/// tree (`RnTree`, a baseline) opened via [`RecoverableIndex`], but any
/// `PersistentIndex` vector can be wrapped with [`ShardedIndex::from_shards`].
pub struct ShardedIndex<T> {
    shards: Vec<T>,
}

impl<T: PersistentIndex> ShardedIndex<T> {
    /// Wraps already-open trees as shards. Shard `i` owns exactly the keys
    /// with `shard_of(key, shards.len()) == i`; the caller is responsible
    /// for having routed any pre-existing contents the same way.
    ///
    /// # Panics
    /// Panics if `shards` is empty.
    pub fn from_shards(shards: Vec<T>) -> Self {
        assert!(!shards.is_empty(), "ShardedIndex needs at least one shard");
        ShardedIndex { shards }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `key`, in either spelling ([`shard_of`],
    /// [`shard_of_bytes`]).
    pub fn shard_for(&self, key: AnyKey<'_>) -> &T {
        let n = self.shards.len();
        &self.shards[match key {
            AnyKey::U64(k) => shard_of(k, n),
            AnyKey::Bytes(b) => shard_of_bytes(b, n),
        }]
    }

    /// The `i`-th shard tree (for tests and per-shard introspection).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn shard(&self, i: usize) -> &T {
        &self.shards[i]
    }

    /// Splits `items` by home shard (`home` names it), preserving their
    /// order within each part, and runs `run` on every non-empty part — on
    /// one scoped thread per part when `parallel`. Returns the parts as
    /// `run` left them (it may sort its part in place) and the per-part
    /// results, both in shard order.
    fn per_shard<E: Copy + Send, R: Send>(
        &self,
        items: &[E],
        home: impl Fn(&E) -> usize,
        parallel: bool,
        run: impl Fn(&T, &mut [E]) -> R + Sync,
    ) -> (Vec<Vec<E>>, Vec<R>) {
        let mut parts: Vec<Vec<E>> = self.shards.iter().map(|_| Vec::new()).collect();
        for e in items {
            parts[home(e)].push(*e);
        }
        let work = self.shards.iter().zip(parts.iter_mut()).filter(|(_, part)| !part.is_empty());
        let results = if parallel {
            let run = &run;
            std::thread::scope(|scope| {
                let handles: Vec<_> = work.map(|(shard, part)| scope.spawn(move || run(shard, part))).collect();
                handles.into_iter().map(|h| h.join().expect("shard worker thread panicked")).collect()
            })
        } else {
            work.map(|(shard, part)| run(shard, part)).collect()
        };
        (parts, results)
    }
}

impl<T: RecoverableIndex + Send> ShardedIndex<T> {
    /// Formats every pool and creates one empty tree per shard, in
    /// parallel.
    ///
    /// # Panics
    /// Panics if `pools` is empty or a shard constructor panics.
    pub fn create(pools: &[Arc<PmemPool>], cfg: T::Config) -> Self {
        let (shards, _) = open_parallel(pools, cfg, T::create);
        ShardedIndex { shards }
    }

    /// Recovers every shard **in parallel** — one rebuild thread per shard,
    /// each scanning its own leaf chain and rebuilding its own volatile
    /// index. Correctness never depends on cross-shard ordering because no
    /// persistent state is shared.
    ///
    /// # Panics
    /// Panics if `pools` is empty or a shard's recovery panics.
    pub fn recover(pools: &[Arc<PmemPool>], cfg: T::Config) -> Self {
        let (shards, _) = open_parallel(pools, cfg, T::recover);
        ShardedIndex { shards }
    }

    /// [`ShardedIndex::recover`], additionally reporting each shard's
    /// rebuild wall-clock time (for the recovery-scaling experiment).
    pub fn recover_timed(pools: &[Arc<PmemPool>], cfg: T::Config) -> (Self, Vec<Duration>) {
        let (shards, times) = open_parallel(pools, cfg, T::recover);
        (ShardedIndex { shards }, times)
    }

    /// Reattaches every shard after a clean shutdown, in parallel.
    ///
    /// # Panics
    /// Panics if `pools` is empty or a shard constructor panics.
    pub fn reopen_clean(pools: &[Arc<PmemPool>], cfg: T::Config) -> Self {
        let (shards, _) = open_parallel(pools, cfg, T::reopen_clean);
        ShardedIndex { shards }
    }

    /// Cleanly shuts down every shard.
    pub fn close(&self) {
        for s in &self.shards {
            s.close();
        }
    }
}

/// Opens one tree per pool; results come back in shard order together with
/// each shard's open/rebuild wall-clock time.
///
/// A single shard opens inline — spawning (and then joining) one thread
/// just to run one rebuild costs more than the rebuild itself at small
/// tree sizes, which showed up as a 1-shard-vs-2-shard recovery *regression*
/// in the PR 2 numbers. Multiple shards are opened by a worker pool sized
/// to `min(shards, available_parallelism)`, each worker pulling shard
/// indices from a shared counter, so oversharded sets (more shards than
/// cores) no longer pay per-thread spawn/teardown either.
fn open_parallel<T, F>(pools: &[Arc<PmemPool>], cfg: T::Config, open: F) -> (Vec<T>, Vec<Duration>)
where
    T: RecoverableIndex + Send,
    F: Fn(Arc<PmemPool>, T::Config) -> T + Send + Sync,
{
    assert!(!pools.is_empty(), "ShardedIndex needs at least one shard pool");
    let timed_open = |i: usize| {
        let t0 = Instant::now();
        let tree = open(Arc::clone(&pools[i]), cfg.clone());
        (i, tree, t0.elapsed())
    };
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get()).min(pools.len());
    let mut opened: Vec<(usize, T, Duration)> = if workers <= 1 || pools.len() == 1 {
        (0..pools.len()).map(timed_open).collect()
    } else {
        let next = AtomicUsize::new(0);
        let timed_open = &timed_open;
        let next = &next;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, AtomicOrdering::Relaxed);
                            if i >= pools.len() {
                                return local;
                            }
                            local.push(timed_open(i));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("shard open thread panicked"))
                .collect()
        })
    };
    opened.sort_by_key(|&(i, _, _)| i);
    opened.into_iter().map(|(_, tree, t)| (tree, t)).unzip()
}

impl<T: PersistentIndex> PersistentIndex for ShardedIndex<T> {
    fn apply(&self, key: AnyKey<'_>, value: Value, op: WriteOp) -> Result<(), OpError> {
        self.shard_for(key).apply(key, value, op)
    }

    fn get(&self, key: AnyKey<'_>) -> Option<Value> {
        self.shard_for(key).get(key)
    }

    /// Globally key-ordered scan: each shard's first `n` pairs ≥ `start`,
    /// merged through the per-thread staging buffer (module docs).
    fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        merged_scan(&self.shards, n, out, &STAGING, |s, buf| s.scan_n(start, n, buf))
    }

    /// Byte-key analogue of [`ShardedIndex::scan_n`]: the same staged
    /// merge over lexicographically ordered shard runs.
    fn scan_k(&self, start: KeyRef<'_>, n: usize, out: &mut Vec<(KeyBuf, Value)>) -> usize {
        merged_scan(&self.shards, n, out, &STAGING_K, |s, buf| s.scan_k(start, n, buf))
    }

    /// Partitions the pairs by home shard and bulk-loads every non-empty
    /// shard in parallel (one loader thread per shard when more than one
    /// shard receives keys). Partitioning is order-preserving and each
    /// shard's loader sorts its own sub-batch, so the per-shard contract is
    /// unchanged. Returns the first shard error, if any.
    fn load_sorted(&self, pairs: &[(Key, Value)]) -> Result<(), OpError> {
        let n = self.shards.len();
        if n == 1 {
            return self.shards[0].load_sorted(pairs);
        }
        let (_, loaded) = self.per_shard(pairs, |p| shard_of(p.0, n), true, |s, part| s.load_sorted(part));
        loaded.into_iter().collect()
    }

    /// Byte-key bulk load: partitions by [`shard_of_bytes`] and loads the
    /// non-empty shards in parallel, mirroring [`ShardedIndex::load_sorted`].
    fn load_sorted_k(&self, pairs: &[(KeyBuf, Value)]) -> Result<(), OpError> {
        let n = self.shards.len();
        if n == 1 {
            return self.shards[0].load_sorted_k(pairs);
        }
        let (_, loaded) =
            self.per_shard(pairs, |p| shard_of_bytes(p.0.as_slice(), n), true, |s, part| s.load_sorted_k(part));
        loaded.into_iter().collect()
    }

    /// Partitions the batch by home shard (submission order preserved
    /// within a shard, so same-key elements still compose in order) and
    /// applies the per-shard sub-batches — in parallel (one thread per
    /// shard) when the batch is large enough to amortise the spawns. The
    /// caller's slice is rewritten in shard-major order with each
    /// sub-batch sorted (the order the shards observed), and the returned
    /// vector aligns with that rewritten slice, preserving the trait's
    /// per-element reporting contract.
    fn write_batch(&self, batch: &mut [(Key, Value, WriteOp)]) -> Vec<Result<(), OpError>> {
        let n = self.shards.len();
        if n == 1 {
            return self.shards[0].write_batch(batch);
        }
        // Below ~64 keys/shard the spawn+join overhead beats the win from
        // parallel sub-batches; apply inline in that regime.
        let parallel = batch.len() >= 64 * n && std::thread::available_parallelism().map_or(1, |p| p.get()) > 1;
        let (parts, outcomes) = self.per_shard(batch, |e| shard_of(e.0, n), parallel, |s, part| s.write_batch(part));
        for (dst, src) in batch.iter_mut().zip(parts.iter().flatten()) {
            *dst = *src;
        }
        outcomes.into_iter().flatten().collect()
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

    /// Mean of the per-shard abort ratios (each shard's HTM domain is
    /// independent, so an unweighted mean is the honest summary absent
    /// per-shard attempt counts). `None` if no shard reports one.
    fn htm_abort_ratio(&self) -> Option<f64> {
        let ratios: Vec<f64> = self.shards.iter().filter_map(|s| s.htm_abort_ratio()).collect();
        if ratios.is_empty() {
            None
        } else {
            Some(ratios.iter().sum::<f64>() / ratios.len() as f64)
        }
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
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::MemIndex;
    use std::collections::BTreeMap;

    fn sharded(n: usize) -> ShardedIndex<MemIndex> {
        ShardedIndex::from_shards((0..n).map(|_| MemIndex::new()).collect())
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 5, 8] {
            for key in 0..1000u64 {
                let s = shard_of(key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(key, shards), "routing must be deterministic");
            }
        }
    }

    #[test]
    fn shard_of_spreads_sequential_keys() {
        let shards = 4;
        let mut counts = [0usize; 4];
        for key in 0..4000u64 {
            counts[shard_of(key, shards)] += 1;
        }
        for &c in &counts {
            // Perfectly uniform would be 1000 per shard; accept ±25%.
            assert!((750..=1250).contains(&c), "skewed shard histogram: {counts:?}");
        }
    }

    #[test]
    fn byte_routing_agrees_with_u64_routing_on_encoded_keys() {
        use crate::{KeyCodec, U64Key};
        for shards in [1usize, 2, 5, 8] {
            for key in (0..2000u64).step_by(7) {
                assert_eq!(
                    shard_of_bytes(U64Key::encode(key).as_slice(), shards),
                    shard_of(key, shards),
                    "key {key} would migrate between the typed and byte APIs"
                );
            }
            // Non-8-byte keys route deterministically and in range.
            for key in [&b""[..], b"a", b"url/key", b"0000000000012345"] {
                let s = shard_of_bytes(key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of_bytes(key, shards));
            }
        }
    }

    #[test]
    fn byte_ops_and_scan_merge_through_the_codec_defaults() {
        use crate::{KeyCodec, U64Key};
        let idx = sharded(3);
        for k in (0..300u64).step_by(3) {
            idx.insert_k(U64Key::encode(k).as_slice(), k + 1).unwrap();
        }
        assert_eq!(idx.find(42), Some(43), "byte writes visible to typed reads");
        assert_eq!(idx.find_k(U64Key::encode(42).as_slice()), Some(43));
        let mut out = Vec::new();
        assert_eq!(idx.scan_k(&[][..], 5, &mut out), 5);
        let got: Vec<u64> =
            out.iter().map(|(k, _)| U64Key::decode(k.as_slice()).unwrap()).collect();
        assert_eq!(got, vec![0, 3, 6, 9, 12], "merge must be globally ordered");
        assert_eq!(idx.insert_k(b"odd", 1), Err(OpError::UnsupportedKey));
    }

    #[test]
    fn point_ops_route_and_compose() {
        let idx = sharded(4);
        for k in 0..500u64 {
            idx.insert(k, k * 10).unwrap();
        }
        assert_eq!(idx.insert(42, 1), Err(OpError::AlreadyExists));
        assert_eq!(idx.update(9999, 1), Err(OpError::NotFound));
        idx.update(42, 421).unwrap();
        assert_eq!(idx.find(42), Some(421));
        idx.remove(42).unwrap();
        assert_eq!(idx.find(42), None);
        assert_eq!(idx.stats().entries, 499);
    }

    #[test]
    fn scan_is_globally_ordered_across_shards() {
        let idx = sharded(3);
        let mut model = BTreeMap::new();
        for k in (0..600u64).step_by(3) {
            idx.insert(k, k + 1).unwrap();
            model.insert(k, k + 1);
        }
        let mut out = Vec::new();
        for start in [0u64, 7, 300, 599, 1000] {
            for n in [0usize, 1, 5, 100, 10_000] {
                let got = idx.scan_n(start, n, &mut out);
                let want: Vec<(Key, Value)> =
                    model.range(start..).take(n).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(got, want.len());
                assert_eq!(out, want, "scan_n({start}, {n}) diverged");
            }
        }
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
