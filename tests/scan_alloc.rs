//! Steady-state range scans through the deployed stack allocate nothing.
//!
//! `GroupCommit<ShardedIndex<RnTree>>` passes scans through to the sharded
//! layer. It scans the shard that owns the start straight into the
//! caller's `out`; each leaf appends straight into the buffer it is
//! given. A scan whose home shard runs out before `n` pairs continues in
//! the next shard through one reused per-thread `run` buffer and appends
//! that to `out`. Once `out` and the `run` buffer have grown, neither
//! path may touch the heap. A counting global allocator checks that, and
//! the set's split key shows that some scans took the second path. The
//! test lives in its own binary so the counter never sees another test's
//! allocations, and it counts per thread so the harness's own threads
//! cannot leak into the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use index_common::{AnyKey, GroupCommit, GroupCommitConfig, KeyCodec, PersistentIndex, ShardedIndex, U64Key};
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

    // The load split the keys evenly: shard 1 starts at KEYS / 2 + 1. The
    // first starts are the SCAN_LEN - 1 below it, so that every pair
    // count the `run` buffer can take is both warmed and measured; the
    // rest are random.
    let split = U64Key::decode(index.inner().splits()[0].as_slice()).unwrap();
    assert_eq!(split, KEYS / 2 + 1);
    let starts: Vec<u64> = {
        let mut rng = SplitMix64::new(0x5CA9);
        let below = (1..SCAN_LEN as u64).map(|d| split - d);
        below.chain((SCAN_LEN - 1..SCANS).map(|_| 1 + rng.next_below(KEYS - SCAN_LEN as u64))).collect()
    };
    let home = |k: u64| index.inner().home(AnyKey::U64(k));
    let crossing = starts.iter().filter(|&&s| home(s) != home(s + SCAN_LEN as u64 - 1)).count();
    assert!(crossing >= SCAN_LEN - 1, "only {crossing} scans cross the split");
    let mut out = Vec::new();
    // Warm-up: grows `out`, the `run` buffer and every lazily built
    // per-thread structure below the index.
    for &start in starts.iter().take(100) {
        index.scan_n(start, SCAN_LEN, &mut out);
    }

    let before = allocs();
    for &start in &starts {
        assert_eq!(index.scan_n(start, SCAN_LEN, &mut out), SCAN_LEN);
        // Checked inline (no allocation): the next 50 keys, each with its value.
        for (i, &(k, v)) in out.iter().enumerate() {
            assert_eq!((k, v), (start + i as u64, (start + i as u64) * 3));
        }
    }
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "{during} heap allocations over {SCANS} warmed {SCAN_LEN}-pair scans, {crossing} of them across the split"
    );
}
