//! Bounded DRAM page cache over the NVM capacity tier.
//!
//! The paper's testbed reads inner nodes straight from NVM on every
//! descent; real systems front the capacity tier with a DRAM cache.
//! This module is that tier, shaped after LeanStore's *vmcache*: each
//! frame carries one atomic **PageState** word packing a 56-bit version
//! and an 8-bit state, and every protocol — optimistic read, exclusive
//! fill, invalidation — is a single-word CAS dance on that atom.
//!
//! ```text
//!   63      56 55                                         0
//!   +--------+-------------------------------------------+
//!   | state  |                 version                   |
//!   +--------+-------------------------------------------+
//!   state: 0 = Unlocked (readable)   253 = Locked (filler inside)
//!          255 = Evicted (empty / dropped)
//!
//!   Evicted --begin_fill--> Locked --commit--> Unlocked
//!      ^                      |                   |
//!      +------abandon---------+                   |
//!      +-------------invalidate(_all)-------------+
//! ```
//!
//! The version is bumped by **every** transition out of `Locked` and by
//! every invalidation, so an optimistic reader that re-reads the word
//! and sees the same value knows the frame payload was untouched for
//! the whole window (56 bits cannot wrap in any realistic run, so ABA
//! is off the table).
//!
//! ## Protocols
//!
//! * **Optimistic read** ([`PageCache::optimistic_read`]): locate an
//!   `Unlocked` frame whose tag matches, snapshot `sv`, read the payload
//!   with relaxed loads, fence, re-read `sv`; equal ⇒ the closure saw a
//!   consistent payload. This is the Boehm seqlock-reader recipe — the
//!   filler's release ordering on its final `sv` store pairs with the
//!   reader's acquire fence.
//! * **Fill** ([`PageCache::begin_fill`]): claim a frame exclusively
//!   (`CAS` to `Locked`), *publish the tag with a `SeqCst` store before
//!   returning*, then let the caller copy the node words and
//!   [`commit`](FillGuard::commit) (or [`abandon`](FillGuard::abandon)).
//!   The early `SeqCst` tag publish is load-bearing: an invalidator
//!   scanning after its structure modification either sees the tag (and
//!   waits out the `Locked` frame, then drops whatever was committed)
//!   or, by the `SeqCst` total order, the filler's snapshot provably
//!   began after the modification retired — so a stale fill can never
//!   survive an invalidation. See `index-common`'s descent for the full
//!   argument.
//! * **Admission**: a fill claims only an `Evicted` frame of the tag's
//!   set — the tag's own dropped frame first, then any empty one. A full
//!   set admits nothing: `begin_fill` returns `None` and the caller
//!   serves the step from the authoritative node (in `index-common`, a
//!   gate-validated direct read that costs about what a hit costs). No
//!   resident frame is ever replaced, so the hit path never writes the
//!   state word and a miss never sweeps or copies.
//! * **Invalidation** ([`PageCache::invalidate`]): drop every frame
//!   holding a tag by CASing it to `Evicted` with a bumped version;
//!   concurrent optimistic readers of the old payload fail validation.
//!   This is the only way a frame becomes free again.
//!
//! The cache is purely transient DRAM: recovery constructs a fresh empty
//! cache and never writes a byte of it to the pool, so the tree's
//! persistent-instruction counts are untouched by anything here.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use obs::{Counter, EventKind, EventRing, HeatSketch};

/// Associativity: frames per set. Four ways keeps the fill-time free
/// frame search and the invalidation scan at a handful of loads.
pub const CACHE_WAYS: usize = 4;

/// Payload words per frame — sized for one inner node (count word +
/// 31 keys + 32 children = 64 words = 512 B, one node exactly).
pub const FRAME_WORDS: usize = 64;

/// PageState states, packed into the top 8 bits of the state-version
/// word (values follow the vmcache convention).
const ST_UNLOCKED: u64 = 0;
const ST_LOCKED: u64 = 253;
const ST_EVICTED: u64 = 255;

const VERSION_BITS: u32 = 56;
const VERSION_MASK: u64 = (1 << VERSION_BITS) - 1;

#[inline]
const fn pack(state: u64, version: u64) -> u64 {
    (state << VERSION_BITS) | (version & VERSION_MASK)
}

#[inline]
const fn state_of(sv: u64) -> u64 {
    sv >> VERSION_BITS
}

#[inline]
const fn version_of(sv: u64) -> u64 {
    sv & VERSION_MASK
}

/// One cache frame: PageState word, node tag, payload.
struct Frame {
    /// Packed state + version (see module docs).
    sv: AtomicU64,
    /// Which node this frame caches (an inner-index node reference);
    /// meaningful whenever the state is not freshly `Evicted`-at-init.
    tag: AtomicU64,
    /// The cached node image.
    payload: [AtomicU64; FRAME_WORDS],
}

impl Frame {
    fn empty() -> Frame {
        Frame {
            sv: AtomicU64::new(pack(ST_EVICTED, 0)),
            tag: AtomicU64::new(0),
            payload: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A validated-snapshot view of a frame's payload, handed to the
/// closure of [`PageCache::optimistic_read`]. Loads are relaxed; the
/// surrounding version check makes the whole snapshot consistent (or
/// the closure's result is discarded).
pub struct FrameView<'a> {
    frame: &'a Frame,
}

impl FrameView<'_> {
    /// Reads payload word `i` (relaxed; see type docs).
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.frame.payload[i].load(Ordering::Relaxed)
    }
}

/// Exclusive claim on a frame being (re)filled. Either
/// [`commit`](FillGuard::commit) a full payload image or
/// [`abandon`](FillGuard::abandon); dropping the guard abandons.
pub struct FillGuard<'a> {
    cache: &'a PageCache,
    frame: &'a Frame,
    /// Version the frame was claimed at; the release transition
    /// publishes `version + 1`.
    version: u64,
    done: bool,
}

impl FillGuard<'_> {
    /// Publishes `words` as the frame's payload and makes the frame
    /// readable. The release store on the state word pairs with
    /// readers' acquire fences (seqlock writer side).
    pub fn commit(mut self, words: &[u64; FRAME_WORDS]) {
        fence(Ordering::Release);
        for (slot, &w) in self.frame.payload.iter().zip(words.iter()) {
            slot.store(w, Ordering::Relaxed);
        }
        let next = pack(ST_UNLOCKED, version_of(self.version).wrapping_add(1) & VERSION_MASK);
        self.frame.sv.store(next, Ordering::Release);
        self.cache.fills.add(1);
        self.done = true;
    }

    /// Releases the claim without publishing anything; the frame goes
    /// back to `Evicted` with a bumped version (any concurrent
    /// optimistic reader of the old payload fails validation).
    pub fn abandon(mut self) {
        self.release_evicted();
        self.done = true;
    }

    fn release_evicted(&self) {
        let next = pack(ST_EVICTED, version_of(self.version).wrapping_add(1) & VERSION_MASK);
        self.frame.sv.store(next, Ordering::Release);
    }
}

impl Drop for FillGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.release_evicted();
        }
    }
}

/// Point-in-time cache counter snapshot (all counts monotonic since
/// construction). Obtain via [`PageCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Optimistic reads that validated against a cached frame.
    pub hits: u64,
    /// Reads that found no readable matching frame.
    pub misses: u64,
    /// Frames filled (first fills and refills of invalidated frames).
    pub fills: u64,
    /// Always 0: the cache admits into free frames only and never
    /// replaces a resident one. Kept for readers of the old counter set
    /// until they drop it.
    pub evictions: u64,
    /// Frames dropped by structure-modification invalidation.
    pub invalidations: u64,
    /// Optimistic reads that found a matching frame but failed version
    /// validation (concurrent fill or invalidation).
    pub read_restarts: u64,
}

impl CacheStats {
    /// Counter-wise difference `self - earlier` (both from the same
    /// cache, `earlier` taken first).
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            fills: self.fills - earlier.fills,
            evictions: self.evictions - earlier.evictions,
            invalidations: self.invalidations - earlier.invalidations,
            read_restarts: self.read_restarts - earlier.read_restarts,
        }
    }

    /// Hits over (hits + misses), 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Set-associative bounded DRAM page cache; see module docs for the
/// PageState protocols.
pub struct PageCache {
    frames: Box<[Frame]>,
    /// Number of sets (power of two); frame index = set * WAYS + way.
    sets: usize,
    /// Invalidation forensics sink (usually the pool's ring).
    events: Option<Arc<EventRing>>,
    // Striped: every cached descent step bumps `hits` or `misses`, so a
    // shared word here would bounce between concurrent readers' CPUs.
    hits: Counter,
    misses: Counter,
    fills: Counter,
    invalidations: Counter,
    read_restarts: Counter,
    /// Structural heat keyed by cache *set* index: which sets churn.
    /// Fed on failed optimistic validations only (off the hit path),
    /// weight 1 each.
    set_heat: HeatSketch,
}

impl std::fmt::Debug for PageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageCache")
            .field("frames", &self.frames.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl PageCache {
    /// Creates an empty cache of at most `frame_budget` frames (rounded
    /// down to a power-of-two number of [`CACHE_WAYS`]-frame sets, with
    /// a one-set floor), optionally wired to an event ring for
    /// invalidation forensics.
    pub fn new(frame_budget: usize, events: Option<Arc<EventRing>>) -> PageCache {
        let want_sets = (frame_budget / CACHE_WAYS).max(1);
        // Round *down* to a power of two so the budget is an upper bound.
        let sets = 1usize << (usize::BITS - 1 - want_sets.leading_zeros());
        let frames: Box<[Frame]> = (0..sets * CACHE_WAYS).map(|_| Frame::empty()).collect();
        PageCache {
            frames,
            sets,
            events,
            hits: Counter::new(),
            misses: Counter::new(),
            fills: Counter::new(),
            invalidations: Counter::new(),
            read_restarts: Counter::new(),
            set_heat: HeatSketch::default(),
        }
    }

    /// Actual frame capacity after rounding.
    pub fn frames(&self) -> usize {
        self.frames.len()
    }

    /// The per-set pressure sketch (failed optimistic validations,
    /// keyed by set index).
    pub fn set_heat(&self) -> &HeatSketch {
        &self.set_heat
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            fills: self.fills.get(),
            evictions: 0,
            invalidations: self.invalidations.get(),
            read_restarts: self.read_restarts.get(),
        }
    }

    #[inline]
    fn set_of(&self, tag: u64) -> usize {
        // splitmix64 finaliser: node refs are aligned (low bits dead),
        // so mix before masking.
        let mut x = tag;
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x as usize) & (self.sets - 1)
    }

    #[inline]
    fn set_frames(&self, set: usize) -> &[Frame] {
        &self.frames[set * CACHE_WAYS..(set + 1) * CACHE_WAYS]
    }

    /// Optimistic seqlock read of the cached image of `tag`. The
    /// closure runs against a possibly-torn payload; its result is
    /// returned only if the frame's version validates, i.e. the payload
    /// was stable for the whole window. `None` = miss or validation
    /// failure (caller falls back to the authoritative copy).
    pub fn optimistic_read<T>(&self, tag: u64, read: impl FnOnce(&FrameView<'_>) -> T) -> Option<T> {
        let set = self.set_of(tag);
        for frame in self.set_frames(set) {
            let sv1 = frame.sv.load(Ordering::Acquire);
            if state_of(sv1) != ST_UNLOCKED || frame.tag.load(Ordering::Relaxed) != tag {
                continue;
            }
            let out = read(&FrameView { frame });
            fence(Ordering::Acquire);
            let sv2 = frame.sv.load(Ordering::Relaxed);
            if sv2 != sv1 {
                self.read_restarts.add(1);
                self.misses.add(1);
                self.set_heat.record(set as u64, 1);
                return None;
            }
            self.hits.add(1);
            return Some(out);
        }
        self.misses.add(1);
        None
    }

    /// Claims a free frame for filling `tag`, publishing the tag (with
    /// `SeqCst`, see module docs) before returning. `None` when the tag
    /// is already cached or being filled, or when the set has no free
    /// frame (admission only: nothing resident is ever replaced) —
    /// callers then read the authoritative copy directly; they must
    /// never block on the cache.
    pub fn begin_fill(&self, tag: u64) -> Option<FillGuard<'_>> {
        let frames = self.set_frames(self.set_of(tag));

        // Pass 1: tag already present? Reclaim its Evicted frame (keeps
        // duplicates rare) or back off if readable/being-filled.
        for frame in frames {
            if frame.tag.load(Ordering::SeqCst) != tag {
                continue;
            }
            let sv = frame.sv.load(Ordering::Acquire);
            if state_of(sv) != ST_EVICTED {
                return None; // readable (someone filled) or being filled
            }
            if let Some(guard) = self.claim(frame, sv, tag) {
                return Some(guard);
            }
        }

        // Pass 2: any empty frame.
        for frame in frames {
            let sv = frame.sv.load(Ordering::Acquire);
            if state_of(sv) == ST_EVICTED {
                if let Some(guard) = self.claim(frame, sv, tag) {
                    return Some(guard);
                }
            }
        }
        None
    }

    /// CAS `sv → Locked` at the same version, then publish `tag` with
    /// `SeqCst` (re-stored even when unchanged, so every claim is ordered
    /// like a fresh publish). `None` if the frame moved on from `sv`.
    #[inline]
    fn claim<'a>(&'a self, frame: &'a Frame, sv: u64, tag: u64) -> Option<FillGuard<'a>> {
        frame
            .sv
            .compare_exchange(sv, pack(ST_LOCKED, version_of(sv)), Ordering::AcqRel, Ordering::Relaxed)
            .ok()?;
        frame.tag.store(tag, Ordering::SeqCst);
        Some(FillGuard {
            cache: self,
            frame,
            version: sv,
            done: false,
        })
    }

    /// Drops every cached copy of `tag` (all ways — concurrent fills can
    /// briefly duplicate a tag). Spins out `Locked` frames holding the
    /// tag: fillers hold the lock only across a 64-word copy, and an
    /// in-flight filler may be about to commit a *stale* image, so the
    /// invalidator must outlast it. Returns frames dropped.
    pub fn invalidate(&self, tag: u64) -> usize {
        let set = self.set_of(tag);
        let mut dropped = 0;
        for frame in self.set_frames(set) {
            loop {
                if frame.tag.load(Ordering::SeqCst) != tag {
                    break;
                }
                let sv = frame.sv.load(Ordering::Acquire);
                match state_of(sv) {
                    ST_EVICTED => break,
                    ST_LOCKED => std::hint::spin_loop(), // filler resolves in O(64 stores)
                    _ => {
                        if frame
                            .sv
                            .compare_exchange(
                                sv,
                                pack(ST_EVICTED, version_of(sv).wrapping_add(1) & VERSION_MASK),
                                Ordering::AcqRel,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                        {
                            dropped += 1;
                            break;
                        }
                    }
                }
            }
        }
        if dropped > 0 {
            self.invalidations.add(dropped as u64);
            if let Some(ev) = &self.events {
                ev.record(EventKind::CacheInvalidate, tag, dropped as u64);
            }
        }
        dropped
    }

    /// Drops every frame (bulk structure changes). Spins out in-flight
    /// fillers like [`invalidate`](PageCache::invalidate).
    pub fn invalidate_all(&self) {
        let mut dropped = 0u64;
        for frame in self.frames.iter() {
            loop {
                let sv = frame.sv.load(Ordering::Acquire);
                match state_of(sv) {
                    ST_EVICTED => break,
                    ST_LOCKED => std::hint::spin_loop(),
                    _ => {
                        if frame
                            .sv
                            .compare_exchange(
                                sv,
                                pack(ST_EVICTED, version_of(sv).wrapping_add(1) & VERSION_MASK),
                                Ordering::AcqRel,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                        {
                            dropped += 1;
                            break;
                        }
                    }
                }
            }
        }
        self.invalidations.add(dropped);
        if let Some(ev) = &self.events {
            ev.record(EventKind::CacheInvalidate, 0, dropped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(cache: &PageCache, tag: u64, base: u64) -> bool {
        match cache.begin_fill(tag) {
            Some(guard) => {
                let words: [u64; FRAME_WORDS] = std::array::from_fn(|i| base + i as u64);
                guard.commit(&words);
                true
            }
            None => false,
        }
    }

    #[test]
    fn packing_roundtrips() {
        for st in [ST_UNLOCKED, ST_LOCKED, ST_EVICTED] {
            for v in [0u64, 1, VERSION_MASK, 0xDEAD_BEEF] {
                let sv = pack(st, v);
                assert_eq!(state_of(sv), st);
                assert_eq!(version_of(sv), v & VERSION_MASK);
            }
        }
    }

    #[test]
    fn budget_rounds_down_to_power_of_two_sets() {
        assert_eq!(PageCache::new(1024, None).frames(), 1024);
        assert_eq!(PageCache::new(1000, None).frames(), 512);
        assert_eq!(PageCache::new(32, None).frames(), 32);
        assert_eq!(PageCache::new(0, None).frames(), CACHE_WAYS);
        assert_eq!(PageCache::new(5, None).frames(), CACHE_WAYS);
    }

    #[test]
    fn fill_then_read_roundtrips() {
        let cache = PageCache::new(64, None);
        assert!(cache.optimistic_read(42, |_| ()).is_none(), "cold miss");
        assert!(fill(&cache, 42, 1000));
        let got = cache
            .optimistic_read(42, |v| (v.word(0), v.word(63)))
            .expect("hit after fill");
        assert_eq!(got, (1000, 1063));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.fills), (1, 1, 1));
    }

    #[test]
    fn refill_of_cached_tag_backs_off() {
        let cache = PageCache::new(64, None);
        assert!(fill(&cache, 7, 0));
        assert!(cache.begin_fill(7).is_none(), "tag already readable");
    }

    #[test]
    fn abandon_leaves_frame_empty_and_bumps_version() {
        let cache = PageCache::new(64, None);
        let guard = cache.begin_fill(9).unwrap();
        guard.abandon();
        assert!(cache.optimistic_read(9, |_| ()).is_none());
        // The frame is reusable.
        assert!(fill(&cache, 9, 5));
        assert_eq!(cache.optimistic_read(9, |v| v.word(0)), Some(5));
    }

    #[test]
    fn dropping_guard_abandons() {
        let cache = PageCache::new(64, None);
        drop(cache.begin_fill(9).unwrap());
        assert!(cache.optimistic_read(9, |_| ()).is_none());
        assert!(cache.begin_fill(9).is_some(), "frame reclaimable");
    }

    #[test]
    fn invalidate_drops_and_fails_readers() {
        let cache = PageCache::new(64, None);
        assert!(fill(&cache, 11, 100));
        assert_eq!(cache.invalidate(11), 1);
        assert!(cache.optimistic_read(11, |_| ()).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.invalidate(11), 0, "second invalidate is a no-op");
    }

    #[test]
    fn invalidate_all_empties_cache() {
        let cache = PageCache::new(64, None);
        let mut filled = 0;
        for t in 1..=40u64 {
            if fill(&cache, t * 8, t) {
                filled += 1;
            }
        }
        assert!(filled > 10);
        cache.invalidate_all();
        for t in 1..=40u64 {
            assert!(cache.optimistic_read(t * 8, |_| ()).is_none(), "tag {t}");
        }
        // Nothing is ever evicted, so every successful fill was still
        // resident and is dropped now.
        let s = cache.stats();
        assert_eq!(s.invalidations, filled);
        assert_eq!(s.evictions, 0);
    }

    /// Payload pair (word 0, word 63) of a resident tag, if any.
    fn ends(cache: &PageCache, tag: u64) -> Option<(u64, u64)> {
        cache.optimistic_read(tag, |v| (v.word(0), v.word(63)))
    }

    #[test]
    fn full_set_admits_nothing_and_keeps_every_resident() {
        // One set (4 frames) hit by 64 colliding fill attempts: the first
        // four are admitted, the rest find no free frame and nothing
        // resident is replaced.
        let cache = PageCache::new(CACHE_WAYS, None);
        let tags: Vec<u64> = (1..=64u64).map(|t| t * 16).collect();
        let admitted: Vec<bool> = tags.iter().map(|&tag| fill(&cache, tag, tag)).collect();
        assert!(admitted[..CACHE_WAYS].iter().all(|&a| a), "free frames refused a fill");
        assert!(!admitted[CACHE_WAYS..].iter().any(|&a| a), "a full set admitted a fill");
        let s = cache.stats();
        assert_eq!((s.fills, s.evictions), (CACHE_WAYS as u64, 0), "{s:?}");
        for &tag in &tags[..CACHE_WAYS] {
            assert_eq!(ends(&cache, tag), Some((tag, tag + 63)), "resident tag {tag}");
        }
        for &tag in &tags[CACHE_WAYS..] {
            assert!(ends(&cache, tag).is_none(), "tag {tag} was never admitted");
        }
        // Invalidation frees a frame; the next fill of that tag is
        // admitted into it again, with the new payload.
        let victim = tags[1];
        assert_eq!(cache.invalidate(victim), 1);
        assert!(fill(&cache, victim, 7_000));
        assert_eq!(ends(&cache, victim), Some((7_000, 7_063)));
        assert_eq!(cache.stats().fills, CACHE_WAYS as u64 + 1);
        assert!(!fill(&cache, tags[CACHE_WAYS], 1), "set is full again");
    }

    #[test]
    fn invalidation_is_the_only_way_frames_recycle() {
        // One set, 64 tags streamed through it: whenever the set is full,
        // the oldest resident is invalidated and the refused fill then
        // succeeds. The last four tags are exactly what stays resident.
        let cache = PageCache::new(CACHE_WAYS, None);
        let mut resident = std::collections::VecDeque::new();
        for t in 1..=64u64 {
            let tag = t * 16;
            if !fill(&cache, tag, t) {
                assert_eq!(resident.len(), CACHE_WAYS, "refused with a free frame");
                let (oldest, _) = resident.pop_front().unwrap();
                assert_eq!(cache.invalidate(oldest), 1);
                assert!(fill(&cache, tag, t), "freed frame refused tag {tag}");
            }
            resident.push_back((tag, t));
        }
        let s = cache.stats();
        assert_eq!((s.fills, s.invalidations, s.evictions), (64, 60, 0), "{s:?}");
        for &(tag, base) in &resident {
            assert_eq!(ends(&cache, tag), Some((base, base + 63)), "resident tag {tag}");
        }
    }

    #[test]
    fn invalidation_records_events() {
        let ring = Arc::new(EventRing::new());
        let cache = PageCache::new(CACHE_WAYS, Some(Arc::clone(&ring)));
        for t in 1..=64u64 {
            let _ = fill(&cache, t * 16, t);
        }
        assert_eq!(cache.invalidate(16), 1);
        assert_eq!(cache.invalidate(16), 0, "nothing dropped, nothing recorded");
        cache.invalidate_all();
        #[cfg(feature = "record")]
        {
            let events: Vec<(EventKind, u64, u64)> =
                ring.dump().iter().map(|e| (e.kind, e.a, e.b)).collect();
            assert_eq!(
                events,
                vec![
                    (EventKind::CacheInvalidate, 16, 1),
                    (EventKind::CacheInvalidate, 0, CACHE_WAYS as u64 - 1),
                ],
                "only invalidations are recorded"
            );
        }
    }

    #[test]
    fn hits_leave_the_state_word_untouched() {
        // The hit path only loads: with no clock there is no reference
        // bit to set, so a hot frame's PageState never changes on reads.
        let cache = PageCache::new(CACHE_WAYS, None);
        for t in 1..=CACHE_WAYS as u64 {
            assert!(fill(&cache, t * 16, t));
        }
        let words = |c: &PageCache| -> Vec<u64> {
            c.frames.iter().map(|f| f.sv.load(Ordering::Acquire)).collect()
        };
        let before = words(&cache);
        for _ in 0..8 {
            for t in 1..=CACHE_WAYS as u64 {
                assert_eq!(cache.optimistic_read(t * 16, |v| v.word(0)), Some(t));
            }
            assert!(!fill(&cache, 9_999 * 16, 0), "full set admitted a fill");
        }
        assert_eq!(words(&cache), before, "a hit or a refused fill wrote a state word");
        assert_eq!(cache.stats().hits, 8 * CACHE_WAYS as u64);
    }

    #[test]
    fn concurrent_fill_read_invalidate_never_tears() {
        use std::sync::atomic::AtomicBool;
        let cache = Arc::new(PageCache::new(16, None));
        let stop = Arc::new(AtomicBool::new(false));
        let tags: Vec<u64> = (1..=24u64).map(|t| t * 8).collect();

        let writers: Vec<_> = (0..2)
            .map(|w| {
                let (cache, stop, tags) = (cache.clone(), stop.clone(), tags.clone());
                std::thread::spawn(move || {
                    let mut i = w;
                    while !stop.load(Ordering::Relaxed) {
                        let tag = tags[i % tags.len()];
                        if let Some(g) = cache.begin_fill(tag) {
                            // Payload invariant: word[j] = tag * 1000 + j.
                            let words: [u64; FRAME_WORDS] =
                                std::array::from_fn(|j| tag * 1000 + j as u64);
                            g.commit(&words);
                        }
                        if i % 7 == 0 {
                            cache.invalidate(tag);
                        }
                        i += 1;
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (cache, stop, tags) = (cache.clone(), stop.clone(), tags.clone());
                std::thread::spawn(move || {
                    let mut hits = 0u64;
                    let mut i = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let tag = tags[i % tags.len()];
                        if let Some((w0, w63)) =
                            cache.optimistic_read(tag, |v| (v.word(0), v.word(63)))
                        {
                            assert_eq!(w0, tag * 1000, "torn word 0 for tag {tag}");
                            assert_eq!(w63, tag * 1000 + 63, "torn word 63 for tag {tag}");
                            hits += 1;
                        }
                        i += 1;
                    }
                    hits
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        let hits: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(hits > 0, "readers never hit");
    }
}
