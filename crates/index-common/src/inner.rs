//! The volatile internal-node tree shared by all persistent trees.
//!
//! Internal nodes are DRAM-resident `Inner` structs whose fields are
//! [`TmWord`]s, so every traversal and structural update can run inside a
//! hardware transaction (paper Table 2: `htmTreeTraverse`, `htmTreeUpdate`).
//! Child references are tagged words: leaf children carry a persistent-pool
//! offset (bit 63 set), inner children carry a DRAM pointer.
//!
//! Invariants:
//! * an inner node with `count` keys `k₀ < k₁ < … < k_{count-1}` has
//!   `count + 1` children; child `i ≤ count-1` covers keys `≤ kᵢ` (and
//!   `> k_{i-1}`), child `count` covers keys `> k_{count-1}`;
//! * separators are the **maximum key of the left subtree**, which is what
//!   recovery can reconstruct from the leaf chain (paper §5.4);
//! * inner nodes are never freed while the index is alive (splits only add
//!   nodes; leaf compaction swaps a child in place), so a transactional
//!   reader can never dereference a dangling inner pointer. All nodes are
//!   owned by a registry and freed when the [`InnerIndex`] drops.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use htm::{HtmDomain, OptimisticGate, TmWord, TxResult, Txn};
use nvm::{FrameView, PageCache, FRAME_WORDS};

use crate::{is_leaf_ref, key_head, Key, KeyBuf};

/// Maximum children per internal node.
pub const INNER_FANOUT: usize = 32;
/// Maximum separator keys per internal node.
const MAX_KEYS: usize = INNER_FANOUT - 1;

/// A volatile internal node. All fields are transactional words.
struct Inner {
    /// Number of separator keys (children = count + 1).
    count: TmWord,
    keys: [TmWord; MAX_KEYS],
    children: [TmWord; INNER_FANOUT],
}

impl Inner {
    fn new_empty() -> Box<Inner> {
        Box::new(Inner {
            count: TmWord::new(0),
            keys: std::array::from_fn(|_| TmWord::new(0)),
            children: std::array::from_fn(|_| TmWord::new(0)),
        })
    }
}

/// Separator-word layout of a byte-keyed index: `(head << 32) | arena_idx`.
///
/// Inner nodes store one 64-bit word per separator either way. A u64-keyed
/// index stores the key itself (bit-identical to the pre-codec layout); a
/// byte-keyed index packs the separator's 4-byte [`key_head`] into the high
/// half and an index into the [`SepArena`] into the low half. Word
/// comparisons then go head-first — `a >> 32` vs `b >> 32` decides whenever
/// the heads differ, which is the common case — and dereference the arena
/// for full byte strings only on head ties (counted, and exported through
/// the tree's obs `keys` section).
const SEP_HEAD_SHIFT: u32 = 32;
const SEP_IDX_MASK: u64 = (1 << SEP_HEAD_SHIFT) - 1;

/// Segment geometry of the [`SepArena`]: lazily-allocated fixed segments so
/// published slots never move (readers hold references across validation
/// windows) and growth never reallocates under a reader.
const SEP_SEG_BITS: usize = 10;
const SEP_SEG_SIZE: usize = 1 << SEP_SEG_BITS;
const SEP_MAX_SEGS: usize = 1 << 14;

/// Append-only interning store for separator byte strings.
///
/// Separators are immutable once published (a split's separator never
/// changes; rebuilds intern fresh copies), so the arena only ever appends:
/// `intern` runs under a small mutex — it is called on the split path,
/// which already serializes per leaf — while `get` is lock-free and safe
/// from transactional readers and optimistic descents. Publication piggy-
/// backs on the packed word's own publication: a reader only learns an
/// arena index from a committed/validated inner-node word, which the
/// writer stored *after* `intern` returned, and both `OnceLock` cells use
/// release/acquire internally.
/// One lazily-allocated arena segment: `SEP_SEG_SIZE` write-once slots.
type SepSeg = OnceLock<Box<[OnceLock<KeyBuf>]>>;

struct SepArena {
    segs: Box<[SepSeg]>,
    len: Mutex<u32>,
}

impl SepArena {
    fn new() -> SepArena {
        SepArena {
            segs: (0..SEP_MAX_SEGS).map(|_| OnceLock::new()).collect(),
            len: Mutex::new(0),
        }
    }

    /// Copies `bytes` into a fresh slot and returns its index.
    fn intern(&self, bytes: &[u8]) -> u32 {
        let mut len = self.len.lock().unwrap();
        let idx = *len as usize;
        assert!(idx < SEP_MAX_SEGS * SEP_SEG_SIZE, "separator arena exhausted");
        let seg = self.segs[idx >> SEP_SEG_BITS]
            .get_or_init(|| (0..SEP_SEG_SIZE).map(|_| OnceLock::new()).collect());
        seg[idx & (SEP_SEG_SIZE - 1)]
            .set(KeyBuf::from_slice(bytes))
            .expect("fresh arena slot already filled");
        *len += 1;
        idx as u32
    }

    /// The separator bytes at `idx`. Only reachable through a published
    /// packed word, so the slot is always filled.
    #[inline]
    fn get(&self, idx: u32) -> &[u8] {
        self.segs[idx as usize >> SEP_SEG_BITS]
            .get()
            .expect("arena segment for published index")[idx as usize & (SEP_SEG_SIZE - 1)]
            .get()
            .expect("published separator slot")
            .as_slice()
    }
}

/// A key being compared against stored separator words during a descent.
///
/// `U64` and `Bytes` are search probes from the two public APIs; `Word` is
/// a stored separator word itself (used when `tree_update` compares its
/// pending separator — already in word form — against a node's words).
/// In a u64-keyed index `Word(w)` behaves exactly like `U64(w)`.
#[derive(Clone, Copy)]
enum Cmp<'a> {
    U64(u64),
    Bytes { head: u32, key: &'a [u8] },
    Word(u64),
}

impl<'a> Cmp<'a> {
    #[inline]
    fn bytes(key: &'a [u8]) -> Cmp<'a> {
        Cmp::Bytes { head: key_head(key), key }
    }
}

/// Best-effort prefetch of the cache lines starting at `p` (no-op on
/// non-x86_64 targets). Used on the chosen child during descent so the next
/// level's header and first keys are in flight while this level finishes.
#[inline(always)]
fn prefetch_node<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // First line: `count` + the first keys; second line: more keys —
        // together they cover everything a fanout-32 binary search touches
        // in its first few probes.
        _mm_prefetch::<_MM_HINT_T0>(p as *const i8);
        _mm_prefetch::<_MM_HINT_T0>((p as *const i8).wrapping_add(64));
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Cached-frame image of an [`Inner`]: word 0 = count, words 1..=31 =
/// keys, words 32..63 = children. One node fills one frame exactly
/// ([`FRAME_WORDS`] = 64).
const _: () = assert!(FRAME_WORDS == 1 + MAX_KEYS + INNER_FANOUT);

/// Branching binary search over a node image in frame-word layout,
/// returning the child covering the probe key. `word(i)` supplies the i-th
/// image word (from a [`FrameView`] or a local snapshot); `le(w)` decides
/// "probe ≤ separator word `w`" (plain integer compare for u64 keys,
/// head-then-bytes for byte keys).
#[inline]
fn route_words(word: impl Fn(usize) -> u64, le: impl Fn(u64) -> bool) -> u64 {
    let cnt = (word(0) as usize).min(MAX_KEYS);
    let (mut lo, mut hi) = (0usize, cnt);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if le(word(1 + mid)) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    word(1 + MAX_KEYS + lo)
}

/// Copies a node into frame-word layout with plain acquire loads. Only a
/// consistent copy may be used or published — callers bracket this with
/// an [`OptimisticGate`] read window.
fn snapshot_node(inner: &Inner) -> [u64; FRAME_WORDS] {
    let mut w = [0u64; FRAME_WORDS];
    w[0] = inner.count.load_direct();
    for (dst, src) in w[1..=MAX_KEYS].iter_mut().zip(inner.keys.iter()) {
        *dst = src.load_direct();
    }
    for (dst, src) in w[1 + MAX_KEYS..].iter_mut().zip(inner.children.iter()) {
        *dst = src.load_direct();
    }
    w
}

/// The shared internal-node index: a map from keys to persistent leaf
/// offsets. See the module docs for structure and invariants.
pub struct InnerIndex {
    root: TmWord,
    domain: HtmDomain,
    /// Every inner node ever allocated (including nodes orphaned by aborted
    /// transactions or recovery rebuilds); freed on drop.
    registry: Mutex<Vec<*mut Inner>>,
    /// Optional DRAM page cache over the inner nodes; when attached,
    /// [`InnerIndex::traverse_cached`] serves descents from cached frames
    /// with optimistic version validation instead of running the whole
    /// walk inside the software TM.
    cache: OnceLock<Arc<PageCache>>,
    /// Writer-presence seqlock bracketing every structure modification, so
    /// cache fills and direct reads can validate that their
    /// non-transactional snapshot of a node was not torn by a concurrent
    /// `tree_update`/`replace_child`/`bulk_build`.
    gate: OptimisticGate,
    /// Cached descents that restarted from the root (version or gate
    /// validation failed mid-walk).
    descent_restarts: AtomicU64,
    /// Cached descents that exhausted their restart budget and fell back
    /// to the transactional walk.
    descent_tm_fallbacks: AtomicU64,
    /// Byte-key mode: separator words are `(head, arena index)` pairs into
    /// this arena (see [`SEP_HEAD_SHIFT`]). `None` = u64 mode, where words
    /// are the keys themselves and none of the byte machinery is touched.
    arena: Option<SepArena>,
    /// Comparisons whose 4-byte heads tied and had to read full separator
    /// bytes from the arena (byte mode only). Striped: byte-keyed
    /// descents bump it from every thread.
    head_ties: obs::Counter,
}

/// Restart taxonomy of [`InnerIndex::traverse_cached`]: how often the
/// optimistic walk had to start over, and how often it gave up and used
/// the transactional descent. (Per-frame validation failures are counted
/// by the cache itself as `read_restarts`.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DescentStats {
    /// Full from-the-root restarts of the optimistic descent.
    pub restarts: u64,
    /// Descents that fell back to [`InnerIndex::traverse_tm`].
    pub tm_fallbacks: u64,
}

/// Full-descent restart budget before falling back to the TM walk. Each
/// restart re-reads the root, so contention with a burst of splits
/// resolves in a handful of iterations; the fallback is for pathological
/// writer storms.
const MAX_DESCENT_RESTARTS: usize = 8;

// SAFETY: the registry's raw pointers are only dereferenced through the
// transactional protocol (valid for the index lifetime) and freed with
// exclusive access in Drop.
unsafe impl Send for InnerIndex {}
unsafe impl Sync for InnerIndex {}

impl InnerIndex {
    /// Creates an index whose single child is the given leaf reference
    /// (use [`crate::leaf_ref`] to build it).
    pub fn new(initial_child: u64) -> Self {
        Self::with_arena(initial_child, None)
    }

    /// Creates a **byte-keyed** index: separators are byte strings, routed
    /// via the `*_k` methods, stored as packed `(head, arena)` words. The
    /// u64 methods (`traverse_tm`, `tree_update`, …) must not be used on a
    /// byte-keyed index — their raw-integer comparisons would misroute.
    pub fn new_bytes(initial_child: u64) -> Self {
        Self::with_arena(initial_child, Some(SepArena::new()))
    }

    fn with_arena(initial_child: u64, arena: Option<SepArena>) -> Self {
        assert!(is_leaf_ref(initial_child), "root must start as a leaf");
        InnerIndex {
            root: TmWord::new(initial_child),
            domain: HtmDomain::new(),
            registry: Mutex::new(Vec::new()),
            cache: OnceLock::new(),
            gate: OptimisticGate::new(),
            descent_restarts: AtomicU64::new(0),
            descent_tm_fallbacks: AtomicU64::new(0),
            arena,
            head_ties: obs::Counter::new(),
        }
    }

    /// Whether this index routes byte-string keys ([`InnerIndex::new_bytes`]).
    pub fn is_byte_keyed(&self) -> bool {
        self.arena.is_some()
    }

    /// Comparisons that fell back to full separator bytes on a 4-byte head
    /// tie (always 0 for a u64-keyed index).
    pub fn head_tie_fallbacks(&self) -> u64 {
        self.head_ties.get()
    }

    /// "probe ≤ stored separator word": the one comparison the whole
    /// descent machinery is built from. u64 mode compares integers; byte
    /// mode compares 4-byte heads and touches the arena only on a tie.
    #[inline]
    fn cmp_le(&self, c: Cmp<'_>, w: u64) -> bool {
        match (c, &self.arena) {
            (Cmp::U64(k), _) | (Cmp::Word(k), None) => k <= w,
            (Cmp::Bytes { head, key }, Some(arena)) => {
                let wh = (w >> SEP_HEAD_SHIFT) as u32;
                if head != wh {
                    return head < wh;
                }
                self.head_ties.add(1);
                key <= arena.get((w & SEP_IDX_MASK) as u32)
            }
            (Cmp::Word(a), Some(arena)) => {
                let (ah, wh) = ((a >> SEP_HEAD_SHIFT) as u32, (w >> SEP_HEAD_SHIFT) as u32);
                if ah != wh {
                    return ah < wh;
                }
                self.head_ties.add(1);
                arena.get((a & SEP_IDX_MASK) as u32) <= arena.get((w & SEP_IDX_MASK) as u32)
            }
            (Cmp::Bytes { .. }, None) => {
                unreachable!("byte probe on a u64-keyed index")
            }
        }
    }

    /// Interns `sep` and returns its packed separator word (byte mode).
    fn pack_sep(&self, sep: &[u8]) -> u64 {
        let arena = self.arena.as_ref().expect("pack_sep needs a byte-keyed index");
        let idx = arena.intern(sep);
        ((key_head(sep) as u64) << SEP_HEAD_SHIFT) | idx as u64
    }

    /// Attaches a DRAM page cache; [`InnerIndex::traverse_cached`] uses it
    /// from then on. One-shot: a second attach is ignored (the cache is
    /// wired at tree construction, before any concurrent use).
    pub fn attach_cache(&self, cache: Arc<PageCache>) {
        let _ = self.cache.set(cache);
    }

    /// The attached page cache, if any.
    pub fn page_cache(&self) -> Option<&Arc<PageCache>> {
        self.cache.get()
    }

    /// Restart counters of the cached descent.
    pub fn descent_stats(&self) -> DescentStats {
        DescentStats {
            restarts: self.descent_restarts.load(Ordering::Relaxed),
            tm_fallbacks: self.descent_tm_fallbacks.load(Ordering::Relaxed),
        }
    }

    /// The HTM domain shared by this tree (leaf-level HTM functions of the
    /// owning tree run in the same domain, so one set of statistics counts
    /// the tree's sections; the fallback lock is process-wide).
    pub fn domain(&self) -> &HtmDomain {
        &self.domain
    }

    /// Allocates an inner node owned by the registry.
    ///
    /// Allocation may happen inside a transaction body; if that attempt
    /// aborts, the node is simply garbage until the index drops — wasted
    /// memory, never a dangling pointer.
    fn alloc_inner(&self) -> *mut Inner {
        let ptr = Box::into_raw(Inner::new_empty());
        self.registry.lock().unwrap().push(ptr);
        ptr
    }

    #[inline]
    fn deref(&self, node_ref: u64) -> &Inner {
        debug_assert!(!is_leaf_ref(node_ref));
        // SAFETY: non-leaf child references are only ever written as valid
        // `Inner` pointers from `alloc_inner`, and inners live as long as
        // `self` (registry + Drop).
        unsafe { &*(node_ref as *const Inner) }
    }

    /// First child index whose subtree may contain `key`, as a branch-light
    /// lower bound: the loop trip count depends only on `cnt`, and the data
    /// comparison feeds an arithmetic select instead of a hard-to-predict
    /// branch, so a descent costs no key-comparison mispredictions.
    ///
    /// Invariant: the answer lies in `[lo, lo + len - 1]` over the `cnt + 1`
    /// candidate children; probing `keys[lo + half - 1]` decides whether it
    /// is in the upper `half` (`key` greater) or the lower `len - half`.
    fn search_child<'t>(&'t self, txn: &mut Txn<'t>, inner: &'t Inner, c: Cmp<'t>) -> TxResult<usize> {
        let cnt = (txn.read(&inner.count)? as usize).min(MAX_KEYS);
        let mut lo = 0usize;
        let mut len = cnt + 1;
        while len > 1 {
            let half = len / 2;
            let k = txn.read(&inner.keys[lo + half - 1])?;
            lo += usize::from(!self.cmp_le(c, k)) * half;
            len -= half;
        }
        Ok(lo)
    }

    /// `htmTreeTraverse` body: walks from the root to the leaf whose range
    /// covers `key`, inside the caller's transaction. Returns the leaf
    /// offset. Composable: FPTree reads the leaf's lock word in the same
    /// transaction.
    pub fn traverse_in<'t>(&'t self, txn: &mut Txn<'t>, key: Key) -> TxResult<u64> {
        self.traverse_in_c(txn, Cmp::U64(key))
    }

    /// [`InnerIndex::traverse_in`] over a byte-string key (byte mode).
    pub fn traverse_in_k<'t>(&'t self, txn: &mut Txn<'t>, key: &'t [u8]) -> TxResult<u64> {
        self.traverse_in_c(txn, Cmp::bytes(key))
    }

    fn traverse_in_c<'t>(&'t self, txn: &mut Txn<'t>, c: Cmp<'t>) -> TxResult<u64> {
        let mut node_ref = txn.read(&self.root)?;
        while !is_leaf_ref(node_ref) {
            let inner = self.deref(node_ref);
            let idx = self.search_child(txn, inner, c)?;
            node_ref = txn.read(&inner.children[idx])?;
            if !is_leaf_ref(node_ref) {
                prefetch_node(node_ref as *const Inner);
            }
        }
        Ok(crate::leaf_off(node_ref))
    }

    /// `htmTreeTraverse` as a standalone HTM function (paper Table 2).
    pub fn traverse_tm(&self, key: Key) -> u64 {
        debug_assert!(!self.is_byte_keyed(), "u64 traverse on a byte-keyed index");
        self.domain.atomic(|txn| self.traverse_in(txn, key))
    }

    /// [`InnerIndex::traverse_tm`] over a byte-string key (byte mode).
    pub fn traverse_tm_k(&self, key: &[u8]) -> u64 {
        self.domain.atomic(|txn| self.traverse_in_k(txn, key))
    }

    /// Optimistic descent over the DRAM page cache: each inner level is
    /// resolved from a version-validated cached frame (or a gate-validated
    /// direct read on a miss), and the software TM is entered only by the
    /// caller at the leaf. Falls back to [`InnerIndex::traverse_tm`] when
    /// no cache is attached or the restart budget is exhausted.
    ///
    /// ## Why a torn or stale inner read cannot reach a wrong leaf
    ///
    /// Every child value this walk acts on comes from a **validated
    /// snapshot**: cache hits re-check the frame's PageState version after
    /// the payload reads, and fills/direct reads re-check the index's
    /// [`OptimisticGate`] (no structure modification overlapped the copy).
    /// A validated snapshot is some *consistent past state* of the node,
    /// so the child is a reference that node really held: inner nodes are
    /// never freed while the index lives (registry + Drop), so it is
    /// dereferenceable, and nodes never change level, so the walk strictly
    /// descends and terminates. The snapshot may still be *stale* —
    /// routing as of before a concurrent split — in which case the walk
    /// lands on the split's left leaf; callers already handle that: every
    /// tree operation re-checks the leaf's fence key under its own leaf
    /// transaction and hops/retries, exactly as they must for the plain
    /// transactional descent racing a split that commits between the
    /// traverse and the leaf access.
    pub fn traverse_cached(&self, key: Key) -> u64 {
        debug_assert!(!self.is_byte_keyed(), "u64 traverse on a byte-keyed index");
        self.traverse_cached_c(Cmp::U64(key))
    }

    /// [`InnerIndex::traverse_cached`] over a byte-string key (byte mode).
    pub fn traverse_cached_k(&self, key: &[u8]) -> u64 {
        self.traverse_cached_c(Cmp::bytes(key))
    }

    fn traverse_cached_c(&self, c: Cmp<'_>) -> u64 {
        let Some(cache) = self.cache.get() else {
            return self.domain.atomic(|txn| self.traverse_in_c(txn, c));
        };
        'restart: for attempt in 0..MAX_DESCENT_RESTARTS {
            if attempt > 0 {
                self.descent_restarts.fetch_add(1, Ordering::Relaxed);
            }
            // Either the old or the new root is a valid entry point (root
            // growth installs a fully-built node before swinging the word),
            // so a plain acquire load suffices here.
            let mut node_ref = self.root.load_direct();
            while !is_leaf_ref(node_ref) {
                let Some(child) = self.cached_child(cache, node_ref, c) else {
                    continue 'restart;
                };
                node_ref = child;
                if !is_leaf_ref(node_ref) {
                    prefetch_node(node_ref as *const Inner);
                }
            }
            return crate::leaf_off(node_ref);
        }
        self.descent_tm_fallbacks.fetch_add(1, Ordering::Relaxed);
        self.domain.atomic(|txn| self.traverse_in_c(txn, c))
    }

    /// Resolves one descent step through the cache: hit → route from the
    /// validated frame; miss → fill a frame from a gate-validated node
    /// snapshot (serving the step from the same snapshot); no frame
    /// available → gate-validated direct read. `None` means validation
    /// failed somewhere and the descent must restart from the root.
    fn cached_child(&self, cache: &PageCache, node_ref: u64, c: Cmp<'_>) -> Option<u64> {
        if let Some(child) =
            cache.optimistic_read(node_ref, |v: &FrameView<'_>| route_words(|i| v.word(i), |w| self.cmp_le(c, w)))
        {
            return Some(child);
        }
        let inner = self.deref(node_ref);
        if let Some(guard) = cache.begin_fill(node_ref) {
            // The guard has already published the tag (SeqCst); only now is
            // the gate token taken. An invalidator that misses our tag in
            // its scan therefore retired *before* the token was read, and
            // the snapshot below sees its modification — a stale image can
            // never be committed past an invalidation (see nvm::cache docs).
            let Some(token) = self.gate.begin_read() else {
                guard.abandon();
                return None;
            };
            let words = snapshot_node(inner);
            if self.gate.validate(token) {
                let child = route_words(|i| words[i], |w| self.cmp_le(c, w));
                guard.commit(&words);
                return Some(child);
            }
            guard.abandon();
            return None;
        }
        // Cache full of busy frames: read the authoritative node directly
        // under the gate. Cheaper than a TM descent and keeps the miss
        // path non-blocking.
        let token = self.gate.begin_read()?;
        let cnt = (inner.count.load_direct() as usize).min(MAX_KEYS);
        let (mut lo, mut hi) = (0usize, cnt);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.cmp_le(c, inner.keys[mid].load_direct()) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let child = inner.children[lo].load_direct();
        self.gate.validate(token).then_some(child)
    }

    /// Sequential traversal for quiescent phases (single-threaded
    /// benchmarks, recovery verification). Must not run concurrently with
    /// transactional structure updates.
    pub fn traverse_seq(&self, key: Key) -> u64 {
        debug_assert!(!self.is_byte_keyed(), "u64 traverse on a byte-keyed index");
        self.traverse_seq_c(Cmp::U64(key))
    }

    /// [`InnerIndex::traverse_seq`] over a byte-string key (byte mode).
    pub fn traverse_seq_k(&self, key: &[u8]) -> u64 {
        self.traverse_seq_c(Cmp::bytes(key))
    }

    fn traverse_seq_c(&self, c: Cmp<'_>) -> u64 {
        let mut node_ref = self.root.load_seq();
        while !is_leaf_ref(node_ref) {
            let inner = self.deref(node_ref);
            let cnt = (inner.count.load_seq() as usize).min(MAX_KEYS);
            // Branching binary search, deliberately: with L2-resident inner
            // nodes the predictor's speculation runs the next probe's load
            // early, which beats a CMOV lower bound whose address chain is
            // serial (measured ~5% on find).
            let (mut lo, mut hi) = (0usize, cnt);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if self.cmp_le(c, inner.keys[mid].load_seq()) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            node_ref = inner.children[lo].load_seq();
            if !is_leaf_ref(node_ref) {
                prefetch_node(node_ref as *const Inner);
            }
        }
        crate::leaf_off(node_ref)
    }

    /// `htmTreeUpdate` (paper Table 2): after a leaf split, registers the
    /// new right sibling. `sep` is the maximum key remaining in the old
    /// (left) leaf; `new_child` (a leaf reference) covers keys `> sep` up to
    /// the old leaf's previous upper bound.
    pub fn tree_update(&self, sep: Key, new_child: u64) {
        assert!(!self.is_byte_keyed(), "u64 tree_update on a byte-keyed index");
        self.tree_update_word(sep, new_child)
    }

    /// `htmTreeUpdate` over a byte-string separator (byte mode): interns
    /// `sep` into the arena **before** entering the transaction — interning
    /// takes a mutex, and the transactional body must stay side-effect-free
    /// so it can abort and retry — then runs the same word-level update.
    /// An aborted-and-retried transaction reuses the interned word; a
    /// transaction that never commits merely leaks one arena slot.
    pub fn tree_update_k(&self, sep: &[u8], new_child: u64) {
        let word = self.pack_sep(sep);
        self.tree_update_word(word, new_child)
    }

    fn tree_update_word(&self, sep_word: u64, new_child: u64) {
        self.gate.writer_enter();
        let touched = self.domain.atomic(|txn| self.tree_update_in(txn, sep_word, new_child));
        self.gate.writer_exit();
        // Invalidate after the writer bracket closes: the scan's SeqCst tag
        // loads then see (or provably post-date) every in-flight fill, so
        // no stale frame survives (nvm::cache module docs).
        if let Some(cache) = self.cache.get() {
            for node_ref in touched {
                cache.invalidate(node_ref);
            }
        }
    }

    /// Transactional body of [`InnerIndex::tree_update`]. `sep` is a
    /// separator **word** (the key itself in u64 mode, a packed
    /// head+arena-index in byte mode); all comparisons go through
    /// [`Cmp::Word`], which resolves identically in both modes. Returns the
    /// references of pre-existing inner nodes it rewrote in place, for
    /// cache invalidation; nodes freshly allocated inside the transaction
    /// (split right halves, grown roots) cannot be cached yet and are
    /// omitted. The vector is rebuilt on every abort/retry, so it reflects
    /// exactly the committed execution.
    fn tree_update_in<'t>(&'t self, txn: &mut Txn<'t>, sep: u64, new_child: u64) -> TxResult<Vec<u64>> {
        let mut touched: Vec<u64> = Vec::with_capacity(4);
        // Descend to the leaf covering `sep`, recording the path.
        let mut path: Vec<(&'t Inner, usize)> = Vec::with_capacity(8);
        let mut node_ref = txn.read(&self.root)?;
        while !is_leaf_ref(node_ref) {
            let inner = self.deref(node_ref);
            let idx = self.search_child(txn, inner, Cmp::Word(sep))?;
            path.push((inner, idx));
            node_ref = txn.read(&inner.children[idx])?;
        }

        // Insert (sep, new_child) to the right of the found child, walking
        // back up on overflow.
        let mut pending_key = sep;
        let mut pending_child = new_child;
        loop {
            let Some((inner, idx)) = path.pop() else {
                // Split reached the root (or the root is a leaf): grow.
                let old_root = txn.read(&self.root)?;
                let new_root = self.alloc_inner();
                let nr = self.deref(new_root as u64);
                nr.count.store_seq(1);
                nr.keys[0].store_seq(pending_key);
                nr.children[0].store_seq(old_root);
                nr.children[1].store_seq(pending_child);
                txn.write(&self.root, new_root as u64)?;
                return Ok(touched);
            };
            let cnt = (txn.read(&inner.count)? as usize).min(MAX_KEYS);
            if cnt < MAX_KEYS {
                // Room: shift keys[idx..cnt] and children[idx+1..cnt+1]
                // right by one, then place the new separator and child.
                let mut i = cnt;
                while i > idx {
                    let k = txn.read(&inner.keys[i - 1])?;
                    txn.write(&inner.keys[i], k)?;
                    let c = txn.read(&inner.children[i])?;
                    txn.write(&inner.children[i + 1], c)?;
                    i -= 1;
                }
                txn.write(&inner.keys[idx], pending_key)?;
                txn.write(&inner.children[idx + 1], pending_child)?;
                txn.write(&inner.count, (cnt + 1) as u64)?;
                touched.push(inner as *const Inner as u64);
                return Ok(touched);
            }

            // Full inner node: split it. Left keeps keys[0..mid] and
            // children[0..mid+1]; right takes keys[mid+1..] and
            // children[mid+1..]; keys[mid] moves up.
            let mid = cnt / 2;
            let up_key = txn.read(&inner.keys[mid])?;
            let right_ptr = self.alloc_inner();
            let right = self.deref(right_ptr as u64);
            let right_cnt = cnt - mid - 1;
            for i in 0..right_cnt {
                right.keys[i].store_seq(txn.read(&inner.keys[mid + 1 + i])?);
            }
            for i in 0..=right_cnt {
                right.children[i].store_seq(txn.read(&inner.children[mid + 1 + i])?);
            }
            right.count.store_seq(right_cnt as u64);
            txn.write(&inner.count, mid as u64)?;
            touched.push(inner as *const Inner as u64);

            // Now insert the pending entry into the proper half. The fresh
            // right half is private until this transaction commits, so it
            // can be edited with plain stores.
            if self.cmp_le(Cmp::Word(pending_key), up_key) {
                debug_assert!(idx <= mid);
                let mut i = mid;
                while i > idx {
                    let k = txn.read(&inner.keys[i - 1])?;
                    txn.write(&inner.keys[i], k)?;
                    let c = txn.read(&inner.children[i])?;
                    txn.write(&inner.children[i + 1], c)?;
                    i -= 1;
                }
                txn.write(&inner.keys[idx], pending_key)?;
                txn.write(&inner.children[idx + 1], pending_child)?;
                txn.write(&inner.count, (mid + 1) as u64)?;
            } else {
                let ridx = idx - (mid + 1);
                let mut i = right_cnt;
                while i > ridx {
                    right.keys[i].store_seq(right.keys[i - 1].load_seq());
                    right.children[i + 1].store_seq(right.children[i].load_seq());
                    i -= 1;
                }
                right.keys[ridx].store_seq(pending_key);
                right.children[ridx + 1].store_seq(pending_child);
                right.count.store_seq((right_cnt + 1) as u64);
            }

            // Propagate (up_key, right half) to the parent.
            pending_key = up_key;
            pending_child = right_ptr as u64;
        }
    }

    /// Swaps the child covering `key` from `old_child` to `new_child`
    /// (leaf compaction). Returns false if the current child is not
    /// `old_child` (someone else restructured first).
    pub fn replace_child(&self, key: Key, old_child: u64, new_child: u64) -> bool {
        debug_assert!(!self.is_byte_keyed(), "u64 replace_child on a byte-keyed index");
        self.replace_child_c(Cmp::U64(key), old_child, new_child)
    }

    /// [`InnerIndex::replace_child`] routed by a byte-string key (byte
    /// mode). Compaction swaps a child in place without adding separators,
    /// so nothing is interned.
    pub fn replace_child_k(&self, key: &[u8], old_child: u64, new_child: u64) -> bool {
        self.replace_child_c(Cmp::bytes(key), old_child, new_child)
    }

    fn replace_child_c(&self, c: Cmp<'_>, old_child: u64, new_child: u64) -> bool {
        self.gate.writer_enter();
        let swapped_in = self.domain.atomic(|txn| {
            let mut parent: Option<(&Inner, usize)> = None;
            let mut node_ref = txn.read(&self.root)?;
            while !is_leaf_ref(node_ref) {
                let inner = self.deref(node_ref);
                let idx = self.search_child(txn, inner, c)?;
                parent = Some((inner, idx));
                node_ref = txn.read(&inner.children[idx])?;
            }
            if node_ref != old_child {
                return Ok(None);
            }
            match parent {
                Some((inner, idx)) => {
                    txn.write(&inner.children[idx], new_child)?;
                    Ok(Some(Some(inner as *const Inner as u64)))
                }
                None => {
                    txn.write(&self.root, new_child)?;
                    Ok(Some(None))
                }
            }
        });
        self.gate.writer_exit();
        match swapped_in {
            Some(parent_ref) => {
                if let (Some(cache), Some(node_ref)) = (self.cache.get(), parent_ref) {
                    cache.invalidate(node_ref);
                }
                true
            }
            None => false,
        }
    }

    /// Rebuilds the internal levels bottom-up from `(max_key, leaf_ref)`
    /// pairs sorted by key (paper §5.4 recovery). Quiescent phases only.
    ///
    /// Old inner nodes stay in the registry (freed on drop); the root is
    /// swapped atomically at the end so late readers see a coherent tree.
    pub fn bulk_build(&self, leaves: &[(Key, u64)]) {
        assert!(!self.is_byte_keyed(), "u64 bulk_build on a byte-keyed index");
        self.bulk_build_words(leaves);
    }

    /// [`InnerIndex::bulk_build`] from `(max_key_bytes, leaf_ref)` pairs
    /// sorted lexicographically (byte mode). Every max key is interned as a
    /// separator word first; rebuilds therefore append to the arena, whose
    /// old slots are reclaimed only when the index drops — the same
    /// "orphan until drop" lifetime the inner registry already has.
    pub fn bulk_build_k(&self, leaves: &[(KeyBuf, u64)]) {
        debug_assert!(
            leaves.windows(2).all(|w| w[0].0 < w[1].0),
            "byte-keyed leaves must be strictly sorted"
        );
        let words: Vec<(u64, u64)> =
            leaves.iter().map(|(k, r)| (self.pack_sep(k.as_slice()), *r)).collect();
        self.bulk_build_words(&words);
    }

    fn bulk_build_words(&self, leaves: &[(u64, u64)]) {
        self.gate.writer_enter();
        self.bulk_build_inner(leaves);
        self.gate.writer_exit();
        // Bulk rebuilds orphan every previously-cached node; flush them all.
        if let Some(cache) = self.cache.get() {
            cache.invalidate_all();
        }
    }

    fn bulk_build_inner(&self, leaves: &[(u64, u64)]) {
        assert!(!leaves.is_empty(), "bulk_build needs at least one leaf");
        debug_assert!(
            leaves.windows(2).all(|w| !self.cmp_le(Cmp::Word(w[1].0), w[0].0)),
            "leaves must be sorted"
        );
        let mut level: Vec<(u64, u64)> = leaves.to_vec();
        while level.len() > 1 {
            let mut next: Vec<(u64, u64)> = Vec::with_capacity(level.len().div_ceil(INNER_FANOUT));
            for group in level.chunks(INNER_FANOUT) {
                let node_ptr = self.alloc_inner();
                let node = self.deref(node_ptr as u64);
                for (i, (k, r)) in group.iter().enumerate() {
                    node.children[i].store_seq(*r);
                    if i + 1 < group.len() {
                        node.keys[i].store_seq(*k);
                    }
                }
                node.count.store_seq((group.len() - 1) as u64);
                next.push((group.last().unwrap().0, node_ptr as u64));
            }
            level = next;
        }
        self.root.store_nontx(level[0].1);
    }

    /// Depth of the tree (1 = root is a leaf). Quiescent diagnostic.
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let mut node_ref = self.root.load_seq();
        while !is_leaf_ref(node_ref) {
            d += 1;
            node_ref = self.deref(node_ref).children[0].load_seq();
        }
        d
    }
}

impl Drop for InnerIndex {
    fn drop(&mut self) {
        for ptr in self.registry.lock().unwrap().drain(..) {
            // SAFETY: allocated by Box::into_raw in alloc_inner; exclusive
            // access here (&mut self).
            drop(unsafe { Box::from_raw(ptr) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf_ref;

    /// Builds an index over fake leaves with max keys 10, 20, …, n*10 and
    /// offsets 1000, 2000, ….
    fn build(n: usize) -> InnerIndex {
        let leaves: Vec<(Key, u64)> = (1..=n as u64).map(|i| (i * 10, leaf_ref(i * 1000))).collect();
        let idx = InnerIndex::new(leaves[0].1);
        idx.bulk_build(&leaves);
        idx
    }

    #[test]
    fn single_leaf_traversal() {
        let idx = InnerIndex::new(leaf_ref(4096));
        assert_eq!(idx.traverse_tm(0), 4096);
        assert_eq!(idx.traverse_tm(u64::MAX), 4096);
        assert_eq!(idx.traverse_seq(5), 4096);
        assert_eq!(idx.depth(), 1);
    }

    #[test]
    fn bulk_build_routes_keys_to_covering_leaves() {
        let idx = build(100);
        assert!(idx.depth() >= 2);
        for key in [1u64, 10, 11, 55, 100, 999, 1000] {
            let expect = 1000 * key.div_ceil(10).clamp(1, 100);
            assert_eq!(idx.traverse_tm(key), expect, "key {key}");
            assert_eq!(idx.traverse_seq(key), expect, "key {key} (seq)");
        }
        // Keys beyond every separator land in the last leaf.
        assert_eq!(idx.traverse_tm(u64::MAX), 100_000);
    }

    #[test]
    fn tree_update_inserts_right_sibling() {
        // One leaf covering everything; split it at sep=50: left keeps ≤50
        // at offset 1000, right (2000) takes >50.
        let idx = InnerIndex::new(leaf_ref(1000));
        idx.tree_update(50, leaf_ref(2000));
        assert_eq!(idx.traverse_tm(50), 1000);
        assert_eq!(idx.traverse_tm(51), 2000);
        assert_eq!(idx.depth(), 2);
    }

    #[test]
    fn many_sequential_splits_grow_multiple_levels() {
        // Start with one leaf at 1000 covering all keys, then split off
        // leaves 2000.. so leaf i covers (10(i-1), 10i].
        let idx = InnerIndex::new(leaf_ref(1000));
        let n = 200u64;
        // Each split: the leftover left leaf keeps ≤ sep; the new right
        // leaf covers the rest. Split from the right edge inward.
        for i in (1..n).rev() {
            idx.tree_update(i * 10, leaf_ref((i + 1) * 1000));
        }
        assert!(idx.depth() >= 3, "depth {}", idx.depth());
        for key in 1..=(n * 10) {
            let expect = 1000 * key.div_ceil(10).clamp(1, n);
            assert_eq!(idx.traverse_tm(key), expect, "key {key}");
        }
    }

    #[test]
    fn replace_child_swaps_only_on_match() {
        let idx = build(10);
        // Leaf covering key 35 is leaf 4 (offset 4000).
        assert!(idx.replace_child(35, leaf_ref(4000), leaf_ref(9_990_000)));
        assert_eq!(idx.traverse_tm(35), 9_990_000);
        // Stale expectation must fail and leave things untouched.
        assert!(!idx.replace_child(35, leaf_ref(4000), leaf_ref(123)));
        assert_eq!(idx.traverse_tm(35), 9_990_000);
    }

    #[test]
    fn replace_child_at_leaf_root() {
        let idx = InnerIndex::new(leaf_ref(500));
        assert!(idx.replace_child(7, leaf_ref(500), leaf_ref(600)));
        assert_eq!(idx.traverse_tm(7), 600);
    }

    #[test]
    fn concurrent_traversals_during_updates_always_route_validly() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let idx = Arc::new(InnerIndex::new(leaf_ref(1000)));
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for t in 0..2 {
            let idx = Arc::clone(&idx);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut x = 12345u64 + t;
                while !stop.load(Ordering::Relaxed) {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let key = x % 2000;
                    let off = idx.traverse_tm(key);
                    // Offsets are only ever multiples of 1000 in this test.
                    assert_eq!(off % 1000, 0);
                    assert!(off >= 1000);
                }
            }));
        }
        // Writer: carve 2000 keys into 200 leaves right-to-left.
        for i in (1..200u64).rev() {
            idx.tree_update(i * 10, leaf_ref((i + 1) * 1000));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        // Final routing is exact.
        for key in 1..=2000u64 {
            let expect = 1000 * key.div_ceil(10).clamp(1, 200);
            assert_eq!(idx.traverse_seq(key), expect);
        }
    }

    #[test]
    fn bulk_build_single_chunk_sizes() {
        for n in [1usize, 2, 31, 32, 33, 64, 65] {
            let idx = build(n);
            for i in 1..=n as u64 {
                assert_eq!(idx.traverse_tm(i * 10), i * 1000, "n={n} key={}", i * 10);
                assert_eq!(idx.traverse_tm(i * 10 - 9), i * 1000);
            }
        }
    }

    #[test]
    fn traverse_cached_without_cache_is_traverse_tm() {
        let idx = build(50);
        for key in [1u64, 123, 400, 999] {
            assert_eq!(idx.traverse_cached(key), idx.traverse_tm(key));
        }
        assert_eq!(idx.descent_stats(), DescentStats::default());
    }

    #[test]
    fn cached_traversal_matches_tm_and_hits_on_reread() {
        let idx = build(100);
        idx.attach_cache(Arc::new(PageCache::new(256, None)));
        for pass in 0..2 {
            for key in (1..=1000u64).step_by(7) {
                let expect = 1000 * key.div_ceil(10).clamp(1, 100);
                assert_eq!(idx.traverse_cached(key), expect, "pass {pass} key {key}");
            }
        }
        let stats = idx.page_cache().unwrap().stats();
        assert!(stats.fills > 0, "{stats:?}");
        assert!(stats.hits > stats.misses, "cache never warmed: {stats:?}");
    }

    #[test]
    fn cached_traversal_sees_splits_immediately() {
        let idx = InnerIndex::new(leaf_ref(1000));
        idx.attach_cache(Arc::new(PageCache::new(64, None)));
        // Warm whatever there is to warm, then split repeatedly; each
        // tree_update invalidates the rewritten nodes, so the cached
        // descent must route per the newest structure every time.
        for i in (1..200u64).rev() {
            idx.tree_update(i * 10, leaf_ref((i + 1) * 1000));
            // Mid-loop, keys ≤ sep still live in the unsplit left leaf
            // (offset 1000); the new right leaf takes keys > sep.
            let boundary = i * 10;
            assert_eq!(idx.traverse_cached(boundary), 1000, "sep {boundary}");
            assert_eq!(idx.traverse_cached(boundary + 1), (i + 1) * 1000);
        }
        for key in 1..=2000u64 {
            let expect = 1000 * key.div_ceil(10).clamp(1, 200);
            assert_eq!(idx.traverse_cached(key), expect, "key {key}");
        }
        let stats = idx.page_cache().unwrap().stats();
        assert!(stats.invalidations > 0, "{stats:?}");
    }

    #[test]
    fn replace_child_invalidates_cached_parent() {
        let idx = build(10);
        idx.attach_cache(Arc::new(PageCache::new(64, None)));
        // Warm the cache on the old routing.
        assert_eq!(idx.traverse_cached(35), 4000);
        assert!(idx.replace_child(35, leaf_ref(4000), leaf_ref(9_990_000)));
        assert_eq!(idx.traverse_cached(35), 9_990_000);
        // Failed swap leaves cache and routing untouched.
        assert!(!idx.replace_child(35, leaf_ref(4000), leaf_ref(123)));
        assert_eq!(idx.traverse_cached(35), 9_990_000);
    }

    #[test]
    fn bulk_build_flushes_cache() {
        let idx = build(20);
        idx.attach_cache(Arc::new(PageCache::new(64, None)));
        for key in (1..=200u64).step_by(3) {
            idx.traverse_cached(key);
        }
        // Rebuild over different offsets: cached routing must not survive.
        let leaves: Vec<(Key, u64)> = (1..=20u64).map(|i| (i * 10, leaf_ref(i * 1000 + 77))).collect();
        idx.bulk_build(&leaves);
        for i in 1..=20u64 {
            assert_eq!(idx.traverse_cached(i * 10), i * 1000 + 77, "leaf {i}");
        }
    }

    /// Byte-keyed reference model: leaf i (offset (i+1)*1000) has max key
    /// `keys[i]`; a probe routes to the first leaf whose max key covers it.
    fn route_model(keys: &[&[u8]], probe: &[u8]) -> u64 {
        let i = keys.iter().position(|k| probe <= *k).unwrap_or(keys.len() - 1);
        (i as u64 + 1) * 1000
    }

    fn build_bytes(keys: &[&[u8]]) -> InnerIndex {
        let leaves: Vec<(KeyBuf, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (KeyBuf::from_slice(k), leaf_ref((i as u64 + 1) * 1000)))
            .collect();
        let idx = InnerIndex::new_bytes(leaves[0].1);
        idx.bulk_build_k(&leaves);
        idx
    }

    #[test]
    fn byte_keyed_bulk_build_routes_with_head_ties() {
        // Shared 7-byte prefix: every separator has the same 4-byte head,
        // so every comparison must fall back to full arena bytes.
        let keys: Vec<Vec<u8>> = (0..80u32).map(|i| format!("prefix:{i:04}").into_bytes()).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let idx = build_bytes(&refs);
        assert!(idx.is_byte_keyed());
        assert!(idx.depth() >= 2);
        for probe in ["prefix:0000", "prefix:0037", "prefix:0037x", "prefix:0079", "zzz", ""] {
            let expect = route_model(&refs, probe.as_bytes());
            assert_eq!(idx.traverse_tm_k(probe.as_bytes()), expect, "probe {probe:?}");
            assert_eq!(idx.traverse_seq_k(probe.as_bytes()), expect, "probe {probe:?} (seq)");
        }
        assert!(idx.head_tie_fallbacks() > 0, "shared-prefix keys must tie on heads");
    }

    #[test]
    fn byte_keyed_tree_update_and_replace_child() {
        let idx = InnerIndex::new_bytes(leaf_ref(1000));
        // Split the single leaf at "mango": left keeps ≤ "mango".
        idx.tree_update_k(b"mango", leaf_ref(2000));
        assert_eq!(idx.traverse_tm_k(b"mango"), 1000);
        assert_eq!(idx.traverse_tm_k(b"mangoo"), 2000);
        assert_eq!(idx.traverse_tm_k(b"apple"), 1000);
        // Distinct heads decide without touching the arena...
        let ties_before = idx.head_tie_fallbacks();
        idx.traverse_tm_k(b"zebra");
        assert_eq!(idx.head_tie_fallbacks(), ties_before, "\"zebr\" != \"mang\" needs no tie");
        // ...while a shared head forces the fallback.
        idx.traverse_tm_k(b"mangZ");
        assert!(idx.head_tie_fallbacks() > ties_before);

        assert!(idx.replace_child_k(b"aaa", leaf_ref(1000), leaf_ref(5000)));
        assert_eq!(idx.traverse_tm_k(b"mango"), 5000);
        assert!(!idx.replace_child_k(b"aaa", leaf_ref(1000), leaf_ref(7000)));
    }

    #[test]
    fn byte_keyed_sequential_splits_match_model_with_cache() {
        let idx = InnerIndex::new_bytes(leaf_ref(1000));
        idx.attach_cache(Arc::new(PageCache::new(64, None)));
        // Keys "k000".."k149" with heavy head sharing ("k0xx" etc.): carve
        // 150 leaves right-to-left like the u64 test.
        let keys: Vec<Vec<u8>> = (0..150u32).map(|i| format!("k{i:03}").into_bytes()).collect();
        for i in (1..keys.len()).rev() {
            idx.tree_update_k(&keys[i - 1], leaf_ref((i as u64 + 1) * 1000));
        }
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        for probe in &refs {
            let expect = route_model(&refs, probe);
            assert_eq!(idx.traverse_cached_k(probe), expect, "probe {probe:?}");
            assert_eq!(idx.traverse_tm_k(probe), expect);
        }
        // In-between and out-of-range probes.
        assert_eq!(idx.traverse_cached_k(b"k0005"), route_model(&refs, b"k0005"));
        assert_eq!(idx.traverse_cached_k(b""), 1000);
        assert_eq!(idx.traverse_cached_k(b"zz"), 150 * 1000);
    }

    #[test]
    fn concurrent_cached_traversals_during_updates_route_validly() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let idx = Arc::new(InnerIndex::new(leaf_ref(1000)));
        // Tiny cache: eviction, refill and invalidation all race the
        // readers below.
        idx.attach_cache(Arc::new(PageCache::new(8, None)));
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for t in 0..2 {
            let idx = Arc::clone(&idx);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut x = 9876u64 + t;
                while !stop.load(Ordering::Relaxed) {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let key = x % 2000;
                    let off = idx.traverse_cached(key);
                    assert_eq!(off % 1000, 0);
                    assert!(off >= 1000);
                }
            }));
        }
        for i in (1..200u64).rev() {
            idx.tree_update(i * 10, leaf_ref((i + 1) * 1000));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        for key in 1..=2000u64 {
            let expect = 1000 * key.div_ceil(10).clamp(1, 200);
            assert_eq!(idx.traverse_cached(key), expect);
        }
    }
}
