//! Steady-state range scans through the deployed stack allocate nothing.
//!
//! `GroupCommit<ShardedIndex<RnTree>>` passes scans through to the sharded
//! layer. It asks each shard for about its share of the pairs, stages the
//! runs in reused per-thread buffers, and merges them front to back into
//! the caller's `out`, stopping at `n`; each leaf appends straight into
//! the buffer it is given. A scan whose first round comes up short (one
//! shard held more than its share) resumes in a second round from the
//! same buffers. Once `out` and the staging buffers have grown, neither
//! path may touch the heap. A counting global allocator checks that, and
//! the layer's refill counter shows the second path ran. The test lives
//! in its own binary so the counter never sees another test's
//! allocations, and it counts per thread so the harness's own threads
//! cannot leak into the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use index_common::{GroupCommit, GroupCommitConfig, PersistentIndex, ShardedIndex};
use nvm::{PmemConfig, PoolSet, SplitMix64};
use rntree::{RnConfig, RnTree};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the slot is gone while a thread tears down its locals.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards to `System` unchanged; the only extra work
// is bumping a destructor-free thread-local counter, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SHARDS: usize = 2;
const KEYS: u64 = 20_000;
const SCAN_LEN: usize = 50;
const SCANS: usize = 2_000;

#[test]
fn warmed_scans_through_the_deployed_stack_allocate_nothing() {
    let pools = PoolSet::new(PmemConfig::for_testing(SHARDS << 23), SHARDS);
    let cfg = RnConfig { cache_frames: 1024, ..RnConfig::default() }.carve_cache_frames(SHARDS);
    let trees: Vec<Arc<RnTree>> =
        pools.iter().map(|p| Arc::new(RnTree::create(Arc::clone(p), cfg))).collect();
    let index = GroupCommit::new(
        ShardedIndex::from_shards(trees),
        GroupCommitConfig { shards: SHARDS, ..GroupCommitConfig::default() },
    );
    let load: Vec<(u64, u64)> = (1..=KEYS).map(|k| (k, k * 3)).collect();
    index.load_sorted(&load).unwrap();

    let starts: Vec<u64> = {
        let mut rng = SplitMix64::new(0x5CA9);
        (0..SCANS).map(|_| 1 + rng.next_below(KEYS - SCAN_LEN as u64)).collect()
    };
    let mut out = Vec::new();
    // Warm-up: grows `out`, the staging buffers and every lazily built
    // per-thread structure below the index.
    for &start in starts.iter().take(100) {
        index.scan_n(start, SCAN_LEN, &mut out);
    }

    let refills_before = index.inner().scan_refills();
    let before = allocs();
    for &start in &starts {
        assert_eq!(index.scan_n(start, SCAN_LEN, &mut out), SCAN_LEN);
        // Checked inline (no allocation): the next 50 keys, each with its value.
        for (i, &(k, v)) in out.iter().enumerate() {
            assert_eq!((k, v), (start + i as u64, (start + i as u64) * 3));
        }
    }
    let during = allocs() - before;
    let refills = index.inner().scan_refills() - refills_before;
    assert_eq!(during, 0, "{during} heap allocations over {SCANS} warmed {SCAN_LEN}-pair scans");
    assert!(refills >= 1, "no scan needed a second round, so the refill path went unchecked");
}
