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
//! A scan reads about `n` pairs in total, not `n` per shard. It runs in
//! rounds from a cursor (first the caller's `start`). With `r` pairs still
//! needed and `S` shards, a round asks every shard for its first
//! `m = ceil(r/S) + ceil(sqrt(r))` pairs ≥ the cursor; the `sqrt(r)` slack
//! is about two standard deviations of one shard's binomial share of the
//! next `r` keys, so one round almost always suffices. A shard that
//! returns fewer than `m` pairs is exhausted. The round's `bound` is the
//! smallest last key among the shards that returned a full `m`: every
//! key ≤ `bound` is then known on every shard, and no key above it is
//! known on all of them. Each run is cut at `bound` and the runs are
//! merged front to back into `out`, stopping once `out` holds `n` pairs.
//! If `out` is still short and `bound` has a successor, the next round
//! resumes there; otherwise every shard was exhausted (or `bound` is the
//! largest key) and the scan is complete. Keys are unique across shards
//! (one home per key), so the merge is tie-free and the output is
//! exactly the first `n` keys ≥ `start`; the number of rounds changes the
//! cost, never the result. Every round makes progress: the shard that set
//! `bound` contributes its `m ≥ 1` pairs. Like any non-snapshot scan, a
//! later round reads the shards later than the first; round `i + 1` only
//! reads keys above round `i`'s `bound`, so the output stays strictly
//! ascending even while writers split leaves between rounds.
//!
//! The merge is a chain of branch-light 2-way merges through one
//! per-thread `Staging` set: the first shard's run is fetched into `acc`
//! and each further shard's into `run`; `acc ⊕ run` is merged into `out`
//! at the last shard and into `tmp`, swapped back into `acc`, at the ones
//! before it, so only three or more shards touch `tmp`. A single shard
//! scans straight into `out`. Nothing is allocated per scan once `out` and the staging
//! buffers have grown. The staging set is taken out of its thread-local
//! for the duration of the scan, so a nested `ShardedIndex` shard finds
//! the slot empty and stages in buffers of its own. A buffer that grew
//! past `STAGING_KEEP` pairs (a full-tree scan) is dropped instead of
//! being put back, so no thread pins megabytes after one.

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
/// reuse their buffers forever; a full-tree scan's buffers are released.
const STAGING_KEEP: usize = 4096;

/// The per-thread buffers of a cross-shard scan (module docs): `acc`
/// holds the merge of the shards fetched so far in a round, `run` the
/// shard just fetched, and `tmp` the next `acc` when three or more
/// shards are merged.
struct Staging<K> {
    acc: Vec<(K, Value)>,
    run: Vec<(K, Value)>,
    tmp: Vec<(K, Value)>,
}

impl<K> Staging<K> {
    const fn new() -> Self {
        Staging { acc: Vec::new(), run: Vec::new(), tmp: Vec::new() }
    }

    /// Drops every buffer that grew past [`STAGING_KEEP`].
    fn trimmed(mut self) -> Self {
        for buf in [&mut self.acc, &mut self.run, &mut self.tmp] {
            if buf.capacity() > STAGING_KEEP {
                *buf = Vec::new();
            }
        }
        self
    }
}

thread_local! {
    static STAGING: Cell<Staging<Key>> = const { Cell::new(Staging::new()) };
    static STAGING_K: Cell<Staging<KeyBuf>> = const { Cell::new(Staging::new()) };
}

/// Appends to `dst` the front-to-back merge of the sorted, key-disjoint
/// runs `a` and `b`, each cut after `bound` first (`None`: no cut),
/// stopping at `limit` pairs. The loop picks its source with a select,
/// not a branch: on hash-partitioned keys the comparison is a coin flip.
fn merge_into<K: Ord + Copy>(
    a: &[(K, Value)],
    b: &[(K, Value)],
    bound: Option<K>,
    limit: usize,
    dst: &mut Vec<(K, Value)>,
) {
    let cut = |run: &[(K, Value)]| bound.map_or(run.len(), |b| run.partition_point(|p| p.0 <= b));
    let (a, b) = (&a[..cut(a)], &b[..cut(b)]);
    let take = limit.min(a.len() + b.len());
    dst.reserve(take);
    let (mut i, mut j) = (0, 0);
    while i + j < take && i < a.len() && j < b.len() {
        let from_a = a[i].0 < b[j].0;
        dst.push(if from_a { a[i] } else { b[j] });
        i += usize::from(from_a);
        j += usize::from(!from_a);
    }
    // At most one side has pairs left; copy its head up to `take`.
    let rest = take - i - j;
    dst.extend_from_slice(&a[i..][..rest.min(a.len() - i)]);
    dst.extend_from_slice(&b[j..][..rest.min(b.len() - j)]);
}

/// `ceil(sqrt(r))`: one round's per-shard slack (module docs).
fn ceil_sqrt(r: usize) -> usize {
    let s = r.isqrt();
    s + usize::from(s * s < r)
}

/// N independent persistent trees composed into one [`PersistentIndex`].
///
/// See the module-level docs for the design. `T` is usually a concrete
/// tree (`RnTree`, a baseline) opened via [`RecoverableIndex`], but any
/// `PersistentIndex` vector can be wrapped with [`ShardedIndex::from_shards`].
pub struct ShardedIndex<T> {
    shards: Vec<T>,
    /// Scans that needed more than one round ([`ShardedIndex::scan_refills`]).
    scan_refills: obs::Counter,
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
        ShardedIndex { shards, scan_refills: obs::Counter::new() }
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

    /// Scans so far that needed more than one round because some shard
    /// held more than its share of the pairs (module docs). Exported as
    /// the `scan.refills` obs counter.
    pub fn scan_refills(&self) -> u64 {
        self.scan_refills.get()
    }

    /// The globally ordered first `n` pairs from `start`, in bounded
    /// rounds (module docs). `scan(shard, from, m, buf)` fills `buf` with
    /// the shard's first `m` pairs ≥ `from`; `successor(k)` is the least
    /// cursor above key `k`, or `None` if `k` is the largest key.
    fn merged_scan<K: Ord + Copy, C>(
        &self,
        start: C,
        n: usize,
        out: &mut Vec<(K, Value)>,
        staging: &'static std::thread::LocalKey<Cell<Staging<K>>>,
        scan: impl Fn(&T, &C, usize, &mut Vec<(K, Value)>) -> usize,
        successor: impl Fn(&K) -> Option<C>,
    ) -> usize {
        let shards = self.shards.len();
        if shards == 1 {
            return scan(&self.shards[0], &start, n, out);
        }
        out.clear();
        if n == 0 {
            return 0;
        }
        let mut stage = staging.replace(Staging::new());
        let Staging { acc, run, tmp } = &mut stage;
        let mut from = start;
        let mut first_round = true;
        loop {
            let r = n - out.len();
            let m = r.div_ceil(shards).saturating_add(ceil_sqrt(r));
            // A run of fewer than `m` pairs is exhausted and sets no bound.
            let tighten = |bound: Option<K>, fetched: &[(K, Value)]| match fetched.get(m - 1) {
                Some(&(last, _)) => Some(bound.map_or(last, |b: K| b.min(last))),
                None => bound,
            };
            scan(&self.shards[0], &from, m, acc);
            let mut bound = tighten(None, acc);
            for (i, shard) in self.shards.iter().enumerate().skip(1) {
                scan(shard, &from, m, run);
                bound = tighten(bound, run);
                if i + 1 == shards {
                    merge_into(acc, run, bound, r, out);
                } else {
                    // A bound over fewer shards is never below the final
                    // one, so cutting at it early loses nothing.
                    tmp.clear();
                    merge_into(acc, run, bound, r, tmp);
                    std::mem::swap(acc, tmp);
                }
            }
            if out.len() == n {
                break;
            }
            let Some(next) = bound.and_then(|b| successor(&b)) else { break };
            if first_round {
                first_round = false;
                self.scan_refills.add(1);
            }
            from = next;
        }
        staging.set(stage.trimmed());
        out.len()
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
        ShardedIndex::from_shards(shards)
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
        ShardedIndex::from_shards(shards)
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

    /// Globally key-ordered scan in bounded rounds, resuming after each
    /// round's bound with `bound + 1` (module docs).
    fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        self.merged_scan(start, n, out, &STAGING, |s, &from, m, buf| s.scan_n(from, m, buf), |k| k.checked_add(1))
    }

    /// Byte-key analogue of [`ShardedIndex::scan_n`] over lexicographically
    /// ordered runs: the first round starts at `start` (cursor `None`), a
    /// later one at [`KeyBuf::successor`] of the previous round's bound.
    fn scan_k(&self, start: KeyRef<'_>, n: usize, out: &mut Vec<(KeyBuf, Value)>) -> usize {
        self.merged_scan(
            None,
            n,
            out,
            &STAGING_K,
            |s, from: &Option<KeyBuf>, m, buf| s.scan_k(from.as_ref().map_or(start, KeyBuf::as_slice), m, buf),
            |k| k.successor().map(Some),
        )
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

    /// Mean of the per-shard abort ratios (each shard's HTM domain keeps
    /// its own counters, so an unweighted mean is the honest summary
    /// absent per-shard attempt counts). `None` if no shard reports one.
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
///
/// The layer's own counters go in a `scan` section: `refills`, the
/// scans that needed more than one round ([`ShardedIndex::scan_refills`]).
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
        out.push(("scan".to_string(), obs::Section::Counters(vec![("refills".into(), self.scan_refills())])));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::MemIndex;
    use crate::MAX_KEY_LEN;
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

    /// A scan-only shard: fixed u64 pairs in a [`MemIndex`], fixed byte
    /// pairs in a map, and a count of the scans it served (one per round
    /// of a sharded scan). Scans never route, so any key-disjoint fill is
    /// a valid shard set for them; the tests skew the fills on purpose.
    #[derive(Default)]
    struct Counted {
        mem: MemIndex,
        bytes: BTreeMap<KeyBuf, Value>,
        scans: AtomicUsize,
    }

    impl PersistentIndex for Counted {
        fn scan_n(&self, start: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
            self.scans.fetch_add(1, AtomicOrdering::Relaxed);
            self.mem.scan_n(start, n, out)
        }
        fn scan_k(&self, start: KeyRef<'_>, n: usize, out: &mut Vec<(KeyBuf, Value)>) -> usize {
            self.scans.fetch_add(1, AtomicOrdering::Relaxed);
            out.clear();
            out.extend(self.bytes.iter().filter(|(k, _)| k.as_slice() >= start).take(n).map(|(k, v)| (*k, *v)));
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
        let shards = parts
            .into_iter()
            .map(|keys| {
                let shard = Counted::default();
                for k in keys {
                    shard.mem.insert(k, k ^ 0x5A5A).unwrap();
                    assert!(model.insert(k, k ^ 0x5A5A).is_none(), "key {k} on two shards");
                }
                shard
            })
            .collect();
        (ShardedIndex::from_shards(shards), model)
    }

    /// Runs `scan_n(start, n)` against the oracle; returns its rounds.
    fn check_u64(idx: &ShardedIndex<Counted>, model: &BTreeMap<Key, Value>, start: Key, n: usize) -> usize {
        let scans = || idx.shards.iter().map(|s| s.scans.load(AtomicOrdering::Relaxed)).sum::<usize>();
        let before = scans();
        let mut out = vec![(7, 7)]; // stale contents must go
        let got = idx.scan_n(start, n, &mut out);
        let want: Vec<(Key, Value)> = model.range(start..).take(n).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(out, want, "scan_n({start}, {n}) over {} shards", idx.shard_count());
        assert_eq!(got, want.len());
        (scans() - before) / idx.shard_count()
    }

    #[test]
    fn skewed_scans_refill_until_exact() {
        for shards in [1usize, 2, 3, 8] {
            let mut parts = vec![Vec::new(); shards];
            // Hash-routed keys, then a dense run all on shard 0 and a top
            // run ending at `u64::MAX` all on the last shard.
            for k in 0..3_000u64 {
                parts[shard_of(k, shards)].push(k);
            }
            parts[0].extend(10_000..12_000u64);
            parts[shards - 1].extend(u64::MAX - 300..=u64::MAX);
            let (idx, model) = u64_parts(parts);
            let total = model.len();
            let starts = [0, 1_500, 9_990, 10_000, 11_990, u64::MAX - 400, u64::MAX - 1, u64::MAX];
            let mut max_rounds = 0;
            for start in starts {
                for n in [0, 1, 2, 8, 50, 333, total - 1, total, total + 1, usize::MAX] {
                    max_rounds = max_rounds.max(check_u64(&idx, &model, start, n));
                }
            }
            if shards == 1 {
                assert_eq!(idx.scan_refills(), 0, "one shard scans straight into `out`");
            } else {
                assert!(max_rounds >= 3, "{shards} shards: the dense run took only {max_rounds} rounds");
                assert!(idx.scan_refills() > 0);
            }
        }
    }

    #[test]
    fn a_shard_ending_exactly_at_m_is_resumed_past() {
        // n = 50 over 2 shards asks each for m = 25 + 8 = 33 pairs. Shard 0
        // holds exactly 33, all below shard 1's keys: it is full, sets the
        // bound, and is empty from the bound's successor on.
        let (idx, model) = u64_parts(vec![(0..33).collect(), (100..300).collect()]);
        assert_eq!(check_u64(&idx, &model, 0, 50), 3);
        assert_eq!(idx.scan_refills(), 1);
        let sections = obs::ObsSource::obs_sections(&idx);
        let [(name, obs::Section::Counters(counters))] = &sections[..] else { panic!("one counter section") };
        assert_eq!((name.as_str(), &counters[..]), ("scan", &[("refills".to_string(), 1)][..]));

        // n = 8 asks for m = 4 + 3 = 7, and shard 0's 7 keys end at
        // `u64::MAX`: the bound has no successor, so the short scan ends.
        let (idx, model) = u64_parts(vec![(u64::MAX - 6..=u64::MAX).collect(), (0..100).collect()]);
        assert_eq!(check_u64(&idx, &model, u64::MAX - 6, 8), 1);
        assert_eq!(check_u64(&idx, &model, u64::MAX, 8), 1);
        assert_eq!(idx.scan_refills(), 0);
    }

    #[test]
    fn byte_scans_resume_after_full_length_keys() {
        let full = |head: &[u8], fill: u8| {
            let mut k = [fill; MAX_KEY_LEN];
            k[..head.len()].copy_from_slice(head);
            KeyBuf::from_slice(&k)
        };
        let top = full(&[], 0xFF); // the largest key: no successor
        // Shard 0: 32 keys, then `AB FF…FF` (successor `AC`: the 0xFF bytes
        // are stripped); shard 1: a run of 7 ending at the top key;
        // shard 2: everything else.
        let mut parts: Vec<Vec<KeyBuf>> = vec![Vec::new(); 3];
        parts[0].extend((0..32u8).map(|i| KeyBuf::from_slice(&[0xAB, i])));
        parts[0].push(full(&[0xAB], 0xFF));
        parts[1].extend((249..=255u8).map(|i| full(&[0xFF; MAX_KEY_LEN - 1], i)));
        parts[2].extend([&[0xAC][..], &[0xAC, 0], &[0xAC, 0, 0], b"b", b""].map(KeyBuf::from_slice));
        parts[2].extend((0..200u8).map(|i| KeyBuf::from_slice(&[0xAD, i])));
        let mut model = BTreeMap::new();
        let shards = parts
            .into_iter()
            .map(|keys| {
                let mut shard = Counted::default();
                for (i, k) in keys.into_iter().enumerate() {
                    shard.bytes.insert(k, i as Value);
                    assert!(model.insert(k.as_slice().to_vec(), i as Value).is_none());
                }
                shard
            })
            .collect();
        let idx = ShardedIndex::from_shards(shards);
        // n = 50 over 3 shards asks for m = 17 + 8 = 25 pairs. From `AB 08`
        // shard 0 holds exactly 25, ending at `AB FF…FF`: that bound is
        // resumed at `AC`, which must not be skipped. n = 8 asks for
        // m = 3 + 3 = 6, and from `FF…FF FA` shard 1 holds exactly 6,
        // ending at the top key: the short scan ends there.
        let top_run = full(&[0xFF; MAX_KEY_LEN - 1], 0xFA);
        let starts = [&[][..], &[0xAB], &[0xAB, 8], &[0xAB, 0xFF, 0xFF], &[0xAC]]
            .into_iter()
            .chain([top_run.as_slice(), top.as_slice(), &[0xFF; 65]]);
        let mut out = Vec::new();
        for start in starts {
            for n in [0, 1, 7, 8, 50, 60, 1_000, usize::MAX] {
                let got = idx.scan_k(start, n, &mut out);
                let want: Vec<(Vec<u8>, Value)> =
                    model.range(start.to_vec()..).take(n).map(|(k, &v)| (k.clone(), v)).collect();
                let seen: Vec<(Vec<u8>, Value)> = out.iter().map(|(k, v)| (k.as_slice().to_vec(), *v)).collect();
                assert_eq!(seen, want, "scan_k({start:x?}, {n})");
                assert_eq!(got, want.len());
            }
        }
        assert!(idx.scan_refills() > 0);
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
