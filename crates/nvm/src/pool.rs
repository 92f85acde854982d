//! The persistent-memory pool: arena ("cache view") + durable image
//! ("NVM view"), persist instructions, eviction injection and crash
//! simulation. See the crate docs for the hardware model.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use obs::{EventKind, EventRing};

use crate::buffer::Buffer;
use crate::latency::busy_wait_ns;
use crate::rng::SplitMix64;
use crate::stats::PmemStats;
use crate::{line_of, CACHE_LINE};

/// Number of stripe locks guarding durable-image line copies. Power of two.
const STRIPES: usize = 256;

/// Configuration for a [`PmemPool`].
#[derive(Debug, Clone)]
pub struct PmemConfig {
    /// Pool capacity in bytes (rounded up to a cache line).
    pub size: usize,
    /// Nanoseconds one persisted cache line stalls the issuing core.
    /// The paper's NVDIMM write latency is 140 ns.
    pub write_latency_ns: u64,
    /// Whether to maintain the durable image ("shadow mode"). Required for
    /// crash simulation and eviction injection; costs one line copy per
    /// flush. Benchmarks that only need counters + latency can disable it.
    pub shadow: bool,
}

impl PmemConfig {
    /// Shadow mode on, latency off: the configuration for correctness and
    /// crash-consistency tests.
    pub fn for_testing(size: usize) -> Self {
        PmemConfig {
            size,
            write_latency_ns: 0,
            shadow: true,
        }
    }

    /// Shadow mode off, paper latency on: the configuration for benchmarks.
    pub fn for_benchmarks(size: usize) -> Self {
        PmemConfig {
            size,
            write_latency_ns: 140,
            shadow: false,
        }
    }

    /// Everything off: pure functional runs (fastest; no crash support).
    pub fn fast(size: usize) -> Self {
        PmemConfig {
            size,
            write_latency_ns: 0,
            shadow: false,
        }
    }
}

/// An in-flight asynchronous flush: CLWBs issued, fence still pending.
/// Created by [`PmemPool::flush_async`], consumed by [`PmemPool::drain`].
#[derive(Debug)]
pub struct FlushHandle {
    off: u64,
    len: u64,
    /// When the media write completes; the drain spins out the remainder.
    ready_at: std::time::Instant,
}

/// A simulated persistent-memory device. See the crate docs.
///
/// Offsets are `u64` byte positions from the base of the pool. Offset-based
/// addressing mirrors how PM-aware filesystems expose NVM (a DAX mapping at
/// a fixed base) and guarantees that a stale "pointer" can never be a
/// memory-safety hazard — only a logical one that version validation
/// catches, exactly as in the paper.
pub struct PmemPool {
    arena: Buffer,
    durable: Option<Buffer>,
    stripe_locks: Vec<Mutex<()>>,
    stats: PmemStats,
    cfg: PmemConfig,
    evict_rng: Mutex<SplitMix64>,
    /// Crash-point injection: counts down on every persist; the call that
    /// takes it from 1 to 0 panics *before* flushing. ≤ 0 = disarmed.
    persist_trap: AtomicI64,
    /// Set when a persist trap fires: the trapped thread dies wherever it
    /// stood, possibly holding locks that live in the arena. Every wait on
    /// pool-resident state checks this while it spins and panics instead
    /// of waiting forever (see [`PmemPool::check_alive`]). Cleared by
    /// [`PmemPool::simulate_crash`] and [`PmemPool::arm_persist_trap`].
    dead: AtomicBool,
    /// Crash-forensics event ring. Lives on the pool (not the tree) so the
    /// timeline survives tree teardown/re-creation across crash/recover
    /// cycles; upper layers record splits, rollbacks and recovery steps
    /// here through [`PmemPool::events`]. `Arc`-shared so transient DRAM
    /// components (e.g. the page cache) can keep recording into the same
    /// timeline without holding the pool itself.
    events: Arc<EventRing>,
}

impl PmemPool {
    /// Creates a zeroed pool with the given configuration.
    pub fn new(cfg: PmemConfig) -> Self {
        let arena = Buffer::zeroed(cfg.size);
        let durable = cfg.shadow.then(|| Buffer::zeroed(cfg.size));
        let stripe_locks = (0..STRIPES).map(|_| Mutex::new(())).collect();
        PmemPool {
            arena,
            durable,
            stripe_locks,
            stats: PmemStats::default(),
            cfg,
            evict_rng: Mutex::new(SplitMix64::new(0x5EED_CAFE)),
            persist_trap: AtomicI64::new(0),
            dead: AtomicBool::new(false),
            events: Arc::new(EventRing::new()),
        }
    }

    /// Pool capacity in bytes.
    #[inline]
    pub fn len(&self) -> u64 {
        self.arena.len() as u64
    }

    /// True if the pool has zero capacity (never true in practice).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.arena.len() == 0
    }

    /// The active configuration.
    #[inline]
    pub fn config(&self) -> &PmemConfig {
        &self.cfg
    }

    /// Persistence counters.
    #[inline]
    pub fn stats(&self) -> &PmemStats {
        &self.stats
    }

    /// The pool's crash-forensics event ring. Components above the pool
    /// (trees, recovery) record their rare diagnostic events here; the
    /// pool itself records crash injections and fired persist traps.
    #[inline]
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// A shared handle to the event ring, for components whose lifetime is
    /// not tied to the pool borrow (the DRAM page cache records eviction
    /// and invalidation events through this).
    #[inline]
    pub fn events_handle(&self) -> Arc<EventRing> {
        Arc::clone(&self.events)
    }

    /// The shared persist-trap check: the armed call dies *before*
    /// flushing anything — and before touching any counter — so a
    /// trapped compound instruction never half-counts. Records the trap
    /// in the event ring first (the ring is volatile DRAM and the panic
    /// is caught by the test harness, so the record survives), then marks
    /// the pool dead so no other thread waits forever on a lock the
    /// trapped thread is about to strand.
    #[inline]
    fn trap_check(&self) {
        if self.persist_trap.load(Ordering::Relaxed) > 0
            && self.persist_trap.fetch_sub(1, Ordering::Relaxed) == 1
        {
            self.events.record(EventKind::TrapFired, self.stats.persists.get(), 0);
            self.dead.store(true, Ordering::Release);
            panic!("pmem persist trap fired (simulated crash point)");
        }
    }

    /// True from the moment a persist trap fires until the next
    /// [`PmemPool::simulate_crash`] or [`PmemPool::arm_persist_trap`].
    #[inline]
    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Crash liveness for waits on pool-resident state (leaf locks, split
    /// bits, journal slots). A simulated crash kills one thread wherever
    /// it stood, so whatever it held stays held; a real crash would take
    /// every waiter down with it. A waiter calls this from inside its
    /// spin — never on the uncontended path — and dies the same way.
    ///
    /// # Panics
    /// Panics with a "pmem pool crashed" message if the pool is dead.
    #[inline]
    pub fn check_alive(&self) {
        if self.is_dead() {
            panic!("pmem pool crashed: a persist trap fired while this thread waited on pool state");
        }
    }

    #[inline]
    fn check(&self, off: u64, len: u64) {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len()),
            "pmem access out of bounds: off={off} len={len} pool={}",
            self.len()
        );
    }

    /// Raw arena pointer for `off`. Bounds-checked.
    ///
    /// # Safety contract (for callers)
    /// Dereferencing the pointer must follow the crate's concurrency model:
    /// shared-mutable words must be accessed as atomics.
    #[inline]
    pub fn base_ptr(&self, off: u64) -> *mut u8 {
        self.check(off, 0);
        // SAFETY: `off <= len` checked above.
        unsafe { self.arena.base().add(off as usize) }
    }

    /// Best-effort prefetch hint for the cache lines covering
    /// `[off, off + len)`. Purely a performance hint: no ordering effects,
    /// no stats, no simulated latency (prefetches are free on real NVM
    /// reads too — only persists pay the media write latency).
    #[inline]
    pub fn prefetch(&self, off: u64, len: u64) {
        self.check(off, len.max(1));
        #[cfg(target_arch = "x86_64")]
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let base = self.arena.base();
            let mut line = off & !63;
            while line < off + len.max(1) {
                _mm_prefetch::<_MM_HINT_T0>(base.add(line as usize) as *const i8);
                line += 64;
            }
        }
    }

    /// Returns the arena word at `off` as an `&AtomicU64`.
    /// `off` must be 8-byte aligned.
    #[inline]
    pub fn atomic_u64(&self, off: u64) -> &AtomicU64 {
        self.check(off, 8);
        assert_eq!(off % 8, 0, "unaligned atomic access at {off}");
        // SAFETY: in-bounds, aligned, and AtomicU64 has no invalid bit
        // patterns; the arena outlives the returned reference via `&self`.
        unsafe { &*(self.arena.base().add(off as usize) as *const AtomicU64) }
    }

    /// Relaxed atomic load of the arena word at `off`.
    #[inline]
    pub fn load_u64(&self, off: u64) -> u64 {
        self.atomic_u64(off).load(Ordering::Relaxed)
    }

    /// Acquire atomic load of the arena word at `off`.
    #[inline]
    pub fn load_u64_acquire(&self, off: u64) -> u64 {
        self.atomic_u64(off).load(Ordering::Acquire)
    }

    /// Relaxed atomic store to the arena word at `off`.
    #[inline]
    pub fn store_u64(&self, off: u64, val: u64) {
        self.atomic_u64(off).store(val, Ordering::Relaxed);
    }

    /// Release atomic store to the arena word at `off`.
    #[inline]
    pub fn store_u64_release(&self, off: u64, val: u64) {
        self.atomic_u64(off).store(val, Ordering::Release);
    }

    /// Copies `src` into the arena at `off` **non-atomically**.
    ///
    /// Only valid while no other thread can access `[off, off+src.len())`
    /// (initialisation, recovery, data private to the writing thread).
    pub fn write_bytes(&self, off: u64, src: &[u8]) {
        self.check(off, src.len() as u64);
        // SAFETY: in-bounds; exclusivity is the caller's contract above.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.arena.base().add(off as usize), src.len());
        }
    }

    /// Copies arena bytes `[off, off+dst.len())` into `dst` **non-atomically**.
    ///
    /// Only valid while no other thread writes that range.
    pub fn read_bytes(&self, off: u64, dst: &mut [u8]) {
        self.check(off, dst.len() as u64);
        // SAFETY: in-bounds; exclusivity is the caller's contract above.
        unsafe {
            std::ptr::copy_nonoverlapping(self.arena.base().add(off as usize), dst.as_mut_ptr(), dst.len());
        }
    }

    /// The persistent instruction: flush every cache line overlapping
    /// `[off, off+len)` (CLWB per line) and fence (SFENCE).
    ///
    /// Each flushed line stalls for the configured NVM write latency and, in
    /// shadow mode, is copied into the durable image with atomic word loads
    /// (so racing relaxed writers are captured without data races — some
    /// still-in-flight value of each word is persisted, like real hardware).
    pub fn persist(&self, off: u64, len: u64) {
        // Crash-point injection (tests): the armed persist call dies
        // before flushing anything, modelling a power failure at exactly
        // this persistent instruction. See `arm_persist_trap`.
        self.trap_check();
        if len == 0 {
            self.stats.fences.add(1);
            self.stats.persists.add(1);
            return;
        }
        self.check(off, len);
        let first = line_of(off);
        let last = line_of(off + len - 1);
        let mut line = first;
        loop {
            self.flush_line(line);
            if line == last {
                break;
            }
            line += CACHE_LINE as u64;
        }
        self.stats.fences.add(1);
        self.stats.persists.add(1);
    }

    /// The coalesced persistent instruction: flush the cache lines covering
    /// *all* of `ranges` (one CLWB per **unique** line) and fence once.
    ///
    /// This is what CLWB batching does on real hardware — a store sequence
    /// that dirties N lines needs N CLWBs but only one trailing SFENCE, and
    /// two stores to the *same* line need only one CLWB. The accounting
    /// follows: `lines_flushed` grows by the number of unique lines spanned
    /// (each paying the media write latency), while `persists`/`fences` grow
    /// by one for the whole batch. Batched writers (bulk load, per-leaf run
    /// apply) use this so same-line persists within one apply are deduped
    /// instead of each paying a full flush+fence round trip.
    ///
    /// Empty ranges (`len == 0`) contribute no lines; a call whose ranges
    /// are all empty degenerates to a bare fence, exactly like
    /// `persist(off, 0)`. The crash trap treats the whole call as a single
    /// crash point, firing before any line is flushed.
    pub fn persist_many(&self, ranges: &[(u64, u64)]) {
        self.trap_check();
        let mut lines: Vec<u64> = Vec::with_capacity(ranges.len() * 2);
        for &(off, len) in ranges {
            if len == 0 {
                continue;
            }
            self.check(off, len);
            let last = line_of(off + len - 1);
            let mut line = line_of(off);
            loop {
                lines.push(line);
                if line == last {
                    break;
                }
                line += CACHE_LINE as u64;
            }
        }
        lines.sort_unstable();
        lines.dedup();
        for &line in &lines {
            self.flush_line(line);
        }
        self.stats.fences.add(1);
        self.stats.persists.add(1);
    }

    /// Issues the CLWBs for `[off, off+len)` without the trailing fence:
    /// the media write-latency clock starts now, but the calling thread
    /// keeps running. Pass the handle to [`PmemPool::drain`] — the SFENCE —
    /// which spins out only whatever latency the intervening work did not
    /// already cover, then performs the durable-image copy, crash-trap
    /// check and persist accounting exactly as [`PmemPool::persist`] would.
    ///
    /// This models the flush/work overlap of a `clwb; ...work...; sfence`
    /// sequence. Two caveats, both matching hardware: the lines are not
    /// durable until the drain (a crash in between may lose them), and a
    /// store to a flushed line *after* `flush_async` may still reach the
    /// durable image at drain time (redirtying after CLWB leaves what gets
    /// home to the media unspecified) — callers overlap only lines they
    /// exclusively own and do not rewrite.
    #[must_use = "an async flush is not durable until drained (the fence)"]
    pub fn flush_async(&self, off: u64, len: u64) -> FlushHandle {
        debug_assert!(len > 0);
        self.check(off, len);
        let lines = (line_of(off + len - 1) - line_of(off)) / CACHE_LINE as u64 + 1;
        FlushHandle {
            off,
            len,
            ready_at: std::time::Instant::now()
                + std::time::Duration::from_nanos(lines * self.cfg.write_latency_ns),
        }
    }

    /// The fence paired with [`PmemPool::flush_async`]: waits out the
    /// remaining media latency (often none), then applies the durable-image
    /// copies and counts the persist instruction. The crash trap fires here
    /// — at the fence — because that is the point where the seed's
    /// synchronous `persist` made the lines durable.
    pub fn drain(&self, h: FlushHandle) {
        self.trap_check();
        while std::time::Instant::now() < h.ready_at {
            std::hint::spin_loop();
        }
        let first = line_of(h.off);
        let last = line_of(h.off + h.len - 1);
        let mut line = first;
        loop {
            self.stats.lines_flushed.add(1);
            self.copy_line_to_durable(line);
            if line == last {
                break;
            }
            line += CACHE_LINE as u64;
        }
        self.stats.fences.add(1);
        self.stats.persists.add(1);
    }

    /// Flushes a single line: latency stall + durable-image copy.
    fn flush_line(&self, line: u64) {
        debug_assert_eq!(line % CACHE_LINE as u64, 0);
        busy_wait_ns(self.cfg.write_latency_ns);
        self.stats.lines_flushed.add(1);
        self.copy_line_to_durable(line);
    }

    /// Eviction injection: copies `count` pseudo-random cache lines from the
    /// arena to the durable image, modelling uncontrolled cache evictions.
    ///
    /// No-op unless shadow mode is on. Returns the offsets of evicted lines.
    pub fn evict_random_lines(&self, count: usize) -> Vec<u64> {
        if self.durable.is_none() {
            return Vec::new();
        }
        let lines = self.len() / CACHE_LINE as u64;
        let mut out = Vec::with_capacity(count);
        let mut rng = self.evict_rng.lock().unwrap();
        for _ in 0..count {
            let line = rng.next_below(lines) * CACHE_LINE as u64;
            out.push(line);
        }
        drop(rng);
        for &line in &out {
            self.evict_line(line);
        }
        out
    }

    /// Evicts the line containing `off`: the line reaches the durable image,
    /// but no persist instruction is accounted and no latency is charged —
    /// evictions happen off the program's critical path on real hardware.
    pub fn evict_line(&self, off: u64) {
        self.check(off, 1);
        if self.durable.is_some() {
            self.copy_line_to_durable(line_of(off));
            self.stats.lines_evicted.add(1);
        }
    }

    fn copy_line_to_durable(&self, line: u64) {
        if let Some(durable) = &self.durable {
            let stripe = (line as usize / CACHE_LINE) & (STRIPES - 1);
            let _g = self.stripe_locks[stripe].lock().unwrap();
            for w in 0..(CACHE_LINE as u64 / 8) {
                let v = self.load_u64(line + w * 8);
                // SAFETY: in-bounds; durable-image writes are serialised per
                // line by the stripe lock; the durable image is only read at
                // quiescence (crash) or under the same stripe lock.
                unsafe {
                    let dst = durable.base().add((line + w * 8) as usize) as *mut u64;
                    dst.write(v);
                }
            }
        }
    }

    /// Simulates a power failure followed by reboot: the arena (cache) is
    /// replaced wholesale by the durable image (NVM). Un-persisted stores
    /// vanish.
    ///
    /// Requires quiescence: the caller must guarantee no concurrent pool
    /// access (all tests/benches join worker threads first).
    ///
    /// # Panics
    /// Panics if the pool was created without shadow mode.
    pub fn simulate_crash(&self) {
        let durable = self
            .durable
            .as_ref()
            .expect("simulate_crash requires PmemConfig::shadow = true");
        // SAFETY: quiescence is the documented caller contract; both buffers
        // are in-bounds and equally sized.
        unsafe {
            std::ptr::copy_nonoverlapping(durable.base(), self.arena.base(), self.arena.len());
        }
        self.stats.crashes.add(1);
        let crashes = self.stats.crashes.get();
        self.events.record(EventKind::CrashInjection, crashes, 0);
        self.dead.store(false, Ordering::Release);
    }

    /// Copies `[off, off+len)` to the durable image without latency,
    /// counters, or trap interaction (snapshot restore only).
    pub(crate) fn persist_region_quiet(&self, off: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.check(off, len);
        let first = line_of(off);
        let last = line_of(off + len - 1);
        let mut line = first;
        loop {
            self.copy_line_to_durable(line);
            if line == last {
                break;
            }
            line += CACHE_LINE as u64;
        }
    }

    /// Arms the persist trap: the `nth` subsequent [`PmemPool::persist`]
    /// call (1-based) panics before flushing, simulating a power failure
    /// at exactly that persistent instruction. Together with
    /// `catch_unwind` + [`PmemPool::simulate_crash`], this lets tests
    /// sweep *every* inter-persist crash point of an operation sequence
    /// (see `tests/crash_points.rs`). Arming also revives a pool marked
    /// dead by an earlier trap.
    pub fn arm_persist_trap(&self, nth: u64) {
        assert!(nth > 0 && nth <= i64::MAX as u64);
        self.dead.store(false, Ordering::Release);
        self.persist_trap.store(nth as i64, Ordering::Relaxed);
    }

    /// Disarms the persist trap.
    pub fn disarm_persist_trap(&self) {
        self.persist_trap.store(0, Ordering::Relaxed);
    }

    /// Reads the durable-image word at `off` (test/diagnostic helper).
    ///
    /// # Panics
    /// Panics if shadow mode is off.
    pub fn read_durable_u64(&self, off: u64) -> u64 {
        self.check(off, 8);
        assert_eq!(off % 8, 0, "unaligned durable read at {off}");
        let durable = self.durable.as_ref().expect("shadow mode required");
        let stripe = (line_of(off) as usize / CACHE_LINE) & (STRIPES - 1);
        let _g = self.stripe_locks[stripe].lock().unwrap();
        // SAFETY: in-bounds and aligned; serialised with flushes by the
        // stripe lock.
        unsafe { (durable.base().add(off as usize) as *const u64).read() }
    }
}

impl std::fmt::Debug for PmemPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmemPool")
            .field("len", &self.len())
            .field("shadow", &self.durable.is_some())
            .field("write_latency_ns", &self.cfg.write_latency_ns)
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> PmemPool {
        PmemPool::new(PmemConfig::for_testing(1 << 16))
    }

    #[test]
    fn store_then_load_roundtrip() {
        let p = pool();
        p.store_u64(128, 0xDEAD_BEEF);
        assert_eq!(p.load_u64(128), 0xDEAD_BEEF);
    }

    #[test]
    fn unpersisted_store_dies_in_crash() {
        let p = pool();
        p.store_u64(128, 7);
        p.simulate_crash();
        assert_eq!(p.load_u64(128), 0);
    }

    #[test]
    fn persisted_store_survives_crash() {
        let p = pool();
        p.store_u64(128, 7);
        p.store_u64(136, 9);
        p.persist(128, 16);
        p.simulate_crash();
        assert_eq!(p.load_u64(128), 7);
        assert_eq!(p.load_u64(136), 9);
    }

    #[test]
    fn persist_is_line_granular() {
        let p = pool();
        // Two words on the SAME line: persisting one word drags the other.
        p.store_u64(192, 1);
        p.store_u64(200, 2);
        p.persist(192, 8);
        assert_eq!(p.read_durable_u64(200), 2);
        // A word on a DIFFERENT line is not dragged.
        p.store_u64(256, 3);
        assert_eq!(p.read_durable_u64(256), 0);
    }

    #[test]
    fn persist_counters_count_lines_and_fences() {
        let p = pool();
        p.persist(0, 8);
        p.persist(60, 8); // straddles two lines
        let s = p.stats().snapshot();
        assert_eq!(s.persists, 2);
        assert_eq!(s.fences, 2);
        assert_eq!(s.lines_flushed, 3);
    }

    #[test]
    fn persist_many_dedupes_lines_and_fences_once() {
        let p = pool();
        p.store_u64(128, 1);
        p.store_u64(136, 2); // same line as 128
        p.store_u64(256, 3); // different line
        // Three ranges, two on the same line: 2 unique lines, 1 instruction.
        p.persist_many(&[(128, 8), (136, 8), (256, 8)]);
        let s = p.stats().snapshot();
        assert_eq!(s.persists, 1);
        assert_eq!(s.fences, 1);
        assert_eq!(s.lines_flushed, 2);
        assert_eq!(p.read_durable_u64(128), 1);
        assert_eq!(p.read_durable_u64(136), 2);
        assert_eq!(p.read_durable_u64(256), 3);
    }

    #[test]
    fn persist_many_straddling_range_counts_each_line_once() {
        let p = pool();
        p.store_u64(56, 1);
        p.store_u64(64, 2);
        // One straddling range plus a redundant second range on line 64.
        p.persist_many(&[(56, 16), (64, 8)]);
        let s = p.stats().snapshot();
        assert_eq!(s.persists, 1);
        assert_eq!(s.lines_flushed, 2);
        p.simulate_crash();
        assert_eq!(p.load_u64(56), 1);
        assert_eq!(p.load_u64(64), 2);
    }

    #[test]
    fn persist_many_empty_is_a_bare_fence() {
        let p = pool();
        p.persist_many(&[]);
        p.persist_many(&[(128, 0)]);
        let s = p.stats().snapshot();
        assert_eq!(s.persists, 2);
        assert_eq!(s.fences, 2);
        assert_eq!(s.lines_flushed, 0);
    }

    #[test]
    fn persist_many_is_one_crash_point() {
        let p = pool();
        p.store_u64(128, 7);
        p.store_u64(256, 9);
        p.arm_persist_trap(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.persist_many(&[(128, 8), (256, 8)])
        }));
        assert!(r.is_err(), "trap must fire on the batched persist");
        // Died before any line was flushed: the whole batch is lost.
        assert_eq!(p.read_durable_u64(128), 0);
        assert_eq!(p.read_durable_u64(256), 0);
        p.disarm_persist_trap();
        p.persist_many(&[(128, 8), (256, 8)]);
        assert_eq!(p.read_durable_u64(128), 7);
        assert_eq!(p.read_durable_u64(256), 9);
    }

    #[test]
    fn trap_marks_the_pool_dead_until_crash_or_rearm() {
        let p = pool();
        assert!(!p.is_dead());
        p.check_alive();
        let fire = |p: &PmemPool| {
            p.arm_persist_trap(1);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.persist(128, 8)));
            assert!(r.is_err(), "trap must fire");
            assert!(p.is_dead(), "a fired trap must mark the pool dead");
        };
        fire(&p);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.check_alive()))
            .expect_err("a dead pool must fail the liveness check");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("pmem pool crashed"), "{msg:?}");
        // Disarming alone does not revive the pool: the stranded state is
        // still in the arena.
        p.disarm_persist_trap();
        assert!(p.is_dead());
        p.simulate_crash();
        assert!(!p.is_dead(), "simulate_crash must clear the mark");
        fire(&p);
        p.arm_persist_trap(5);
        assert!(!p.is_dead(), "re-arming must clear the mark");
        p.disarm_persist_trap();
    }

    #[test]
    fn trapped_compound_counts_nothing() {
        // The counter-consistency contract of the single-fence compound
        // (`persist_many`): counters move exactly once per *completed*
        // compound, and a trapped compound — which dies before flushing —
        // moves none of them. Pinned here so a future reordering of the
        // trap check cannot silently half-count a crashed batch.
        let p = pool();
        p.store_u64(128, 7);
        p.store_u64(256, 9);
        p.arm_persist_trap(1);
        let before = p.stats().snapshot();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.persist_many(&[(128, 8), (256, 8)])
        }));
        assert!(r.is_err());
        let after = p.stats().snapshot();
        assert_eq!(after, before, "a trapped compound must not touch any counter");
        p.disarm_persist_trap();
        // The next compound counts exactly once: +1 persist, +1 fence,
        // one line flush per unique line.
        p.persist_many(&[(128, 8), (136, 8), (256, 8)]);
        let done = p.stats().snapshot().since(&after);
        assert_eq!(done.persists, 1);
        assert_eq!(done.fences, 1);
        assert_eq!(done.lines_flushed, 2);
    }

    #[test]
    fn persists_equal_fences_across_mixed_traps() {
        // Every persist path (sync, compound, async drain) issues exactly
        // one fence per accounted persist, trapped calls issue neither.
        let p = pool();
        p.store_u64(128, 1);
        p.persist(128, 8);
        p.persist_many(&[(128, 8), (256, 8)]);
        for nth in [1u64, 2] {
            p.arm_persist_trap(nth);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                p.persist(128, 8);
                p.persist_many(&[(128, 8)]);
            }));
            assert!(r.is_err());
            p.disarm_persist_trap();
        }
        let h = p.flush_async(128, 8);
        p.drain(h);
        let s = p.stats().snapshot();
        assert_eq!(s.persists, s.fences, "one fence per accounted persist");
        // 2 clean + 1 surviving from each trap sweep (nth=2 lets the
        // first call through) + 1 drain.
        assert_eq!(s.persists, 4);
    }

    #[test]
    #[cfg(feature = "record")] // asserts recording, which is compiled out otherwise
    fn trap_and_crash_land_in_the_event_ring() {
        let p = pool();
        p.store_u64(128, 1);
        p.persist(128, 8);
        p.arm_persist_trap(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.persist(128, 8)));
        assert!(r.is_err());
        p.disarm_persist_trap();
        p.simulate_crash();
        let dump = p.events().dump();
        let kinds: Vec<_> = dump.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![obs::EventKind::TrapFired, obs::EventKind::CrashInjection]);
        assert_eq!(dump[0].a, 1, "one persist completed before the trap");
        assert_eq!(dump[1].a, 1, "first crash on this pool");
    }

    #[test]
    fn async_flush_is_durable_only_after_drain() {
        let p = pool();
        p.store_u64(128, 7);
        let h = p.flush_async(128, 16);
        // CLWB issued, fence pending: a crash here loses the line.
        assert_eq!(p.read_durable_u64(128), 0);
        assert_eq!(p.stats().snapshot().persists, 0);
        p.drain(h);
        assert_eq!(p.read_durable_u64(128), 7);
        let s = p.stats().snapshot();
        assert_eq!(s.persists, 1);
        assert_eq!(s.fences, 1);
        assert_eq!(s.lines_flushed, 1);
        p.simulate_crash();
        assert_eq!(p.load_u64(128), 7);
    }

    #[test]
    fn async_flush_straddling_lines_counts_like_persist() {
        let p = pool();
        p.store_u64(56, 1);
        p.store_u64(64, 2);
        let h = p.flush_async(56, 16); // straddles the line boundary at 64
        p.drain(h);
        let s = p.stats().snapshot();
        assert_eq!(s.persists, 1);
        assert_eq!(s.lines_flushed, 2);
        assert_eq!(p.read_durable_u64(56), 1);
        assert_eq!(p.read_durable_u64(64), 2);
    }

    #[test]
    fn persist_trap_fires_at_the_drain() {
        let p = pool();
        p.store_u64(128, 7);
        let h = p.flush_async(128, 8);
        p.arm_persist_trap(1);
        let fence = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.drain(h)));
        assert!(fence.is_err(), "trap must fire at the fence");
        // Died before the durable copy: the line is lost, like a power
        // failure between CLWB and SFENCE.
        assert_eq!(p.read_durable_u64(128), 0);
        p.disarm_persist_trap();
    }

    #[test]
    fn eviction_persists_without_persist_instruction() {
        let p = pool();
        p.store_u64(512, 42);
        p.evict_line(512);
        assert_eq!(p.read_durable_u64(512), 42);
        let s = p.stats().snapshot();
        assert_eq!(s.persists, 0);
        assert_eq!(s.lines_evicted, 1);
    }

    #[test]
    fn random_evictions_stay_in_bounds_and_are_durable() {
        let p = pool();
        for i in 0..100u64 {
            p.store_u64(i * 8, i + 1);
        }
        let lines = p.evict_random_lines(16);
        assert_eq!(lines.len(), 16);
        for l in lines {
            assert!(l < p.len());
            assert_eq!(l % CACHE_LINE as u64, 0);
        }
    }

    #[test]
    fn write_read_bytes_roundtrip() {
        let p = pool();
        let data = [1u8, 2, 3, 4, 5];
        p.write_bytes(1000, &data);
        let mut out = [0u8; 5];
        p.read_bytes(1000, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_access_panics() {
        let p = pool();
        p.load_u64(p.len());
    }

    #[test]
    #[should_panic(expected = "shadow")]
    fn crash_without_shadow_panics() {
        let p = PmemPool::new(PmemConfig::fast(4096));
        p.simulate_crash();
    }

    #[test]
    fn concurrent_persists_do_not_corrupt() {
        use std::sync::Arc;
        let p = Arc::new(pool());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let p = Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let off = 4096 + t * 4096 + (i % 64) * 8;
                    p.store_u64(off, t * 1000 + i);
                    p.persist(off, 8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Last write per offset must be durable.
        for t in 0..4u64 {
            for s in 0..64u64 {
                let off = 4096 + t * 4096 + s * 8;
                let v = p.read_durable_u64(off);
                assert_eq!(v % 1000 % 64, s % 64 % 64, "slot mismatch at {off}: {v}");
            }
        }
    }
}
