//! Torture tests for the software-HTM substrate: multi-threaded invariant
//! preservation under conflicts, fallback interleavings, and mixed
//! transactional / non-transactional access — the access patterns the
//! trees rely on, distilled.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use htm::{HtmDomain, RetryPolicy, TmWord, TxnOptions};

// ------------------------------------------------------------------------
// Counting allocator: lets tests assert that a code path performs zero
// heap allocations. The counter is thread-local, so concurrently running
// tests in this binary cannot disturb each other's counts. `Cell<u64>` has
// no destructor and const-init, so reading it never allocates itself.

struct CountingAlloc;

std::thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bank-transfer invariant: concurrent transfers between random accounts
/// must preserve the total, and no reader may ever observe a different
/// total (snapshot atomicity).
#[test]
fn transfers_preserve_total_under_contention() {
    const ACCOUNTS: usize = 32;
    const TOTAL: u64 = 32_000;
    let domain = Arc::new(HtmDomain::new());
    let accounts: Arc<Vec<TmWord>> =
        Arc::new((0..ACCOUNTS).map(|_| TmWord::new(TOTAL / ACCOUNTS as u64)).collect());
    let stop = Arc::new(AtomicBool::new(false));
    // Transfers completed by all writers: the reader keeps going until at
    // least one landed, or it could finish before any writer is scheduled.
    let transfers = Arc::new(AtomicU64::new(0));

    let mut writers = Vec::new();
    for t in 0..3u64 {
        let domain = Arc::clone(&domain);
        let accounts = Arc::clone(&accounts);
        let stop = Arc::clone(&stop);
        let transfers = Arc::clone(&transfers);
        writers.push(std::thread::spawn(move || {
            let mut x = t + 1;
            let mut moved = 0u64;
            while !stop.load(Ordering::Relaxed) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let from = (x % ACCOUNTS as u64) as usize;
                let to = ((x >> 16) % ACCOUNTS as u64) as usize;
                if from == to {
                    continue;
                }
                let amount = x % 10;
                domain.atomic(|txn| {
                    let f = txn.read(&accounts[from])?;
                    if f < amount {
                        return Ok(());
                    }
                    let g = txn.read(&accounts[to])?;
                    txn.write(&accounts[from], f - amount)?;
                    txn.write(&accounts[to], g + amount)
                });
                moved += 1;
                transfers.fetch_add(1, Ordering::Relaxed);
            }
            moved
        }));
    }

    // Reader: transactional snapshot of all accounts must always sum to
    // TOTAL (the whole point of atomic multi-word visibility).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut snapshots = 0u32;
    while snapshots < 2_000 || transfers.load(Ordering::Relaxed) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "no writer completed a transfer within 60 s ({snapshots} snapshots done)"
        );
        let sum = domain.atomic(|txn| {
            let mut s = 0u64;
            for a in accounts.iter() {
                s += txn.read(a)?;
            }
            Ok(s)
        });
        assert_eq!(sum, TOTAL, "torn transfer snapshot");
        snapshots += 1;
    }
    stop.store(true, Ordering::Relaxed);
    let moved: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(moved > 0);
    // Final non-transactional sum agrees too (quiescent).
    let sum: u64 = accounts.iter().map(|a| a.load_direct()).sum();
    assert_eq!(sum, TOTAL);
}

/// Tiny capacity + aggressive fallback: correctness must survive constant
/// irrevocable execution mixed with optimistic commits.
#[test]
fn fallback_heavy_execution_is_still_atomic() {
    const N: usize = 24;
    let domain = Arc::new(HtmDomain::with_options(
        TxnOptions {
            read_cap_lines: 2,
            write_cap_lines: 2,
        },
        RetryPolicy { max_retries: 1 },
    ));
    let words: Arc<Vec<TmWord>> = Arc::new((0..N).map(|_| TmWord::new(0)).collect());

    let mut handles = Vec::new();
    for _ in 0..3 {
        let domain = Arc::clone(&domain);
        let words = Arc::clone(&words);
        handles.push(std::thread::spawn(move || {
            for _ in 0..500 {
                // Oversized txn: always capacity-aborts → fallback.
                domain.atomic(|txn| {
                    for w in words.iter() {
                        let v = txn.read(w)?;
                        txn.write(w, v + 1)?;
                    }
                    Ok(())
                });
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for w in words.iter() {
        assert_eq!(w.load_direct(), 1_500, "lost increment under fallback");
    }
    let s = domain.stats().snapshot();
    assert!(s.fallbacks >= 1_000, "fallbacks: {}", s.fallbacks);
}

/// Non-transactional CAS/store mixed with transactions on the same words:
/// the version-lock bumps must keep both sides conflict-coherent.
#[test]
fn mixed_tx_and_nontx_counters_are_exact() {
    let domain = Arc::new(HtmDomain::new());
    let word = Arc::new(TmWord::new(0));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let domain = Arc::clone(&domain);
        let word = Arc::clone(&word);
        handles.push(std::thread::spawn(move || {
            for _ in 0..2_000 {
                if t % 2 == 0 {
                    word.fetch_add_nontx(1);
                } else {
                    domain.atomic(|txn| {
                        let v = txn.read(&word)?;
                        txn.write(&word, v + 1)
                    });
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(word.load_direct(), 8_000);
}

/// Read-only transactions are consistent even while a writer keeps two
/// words in lockstep through the fallback path.
#[test]
fn read_only_snapshots_respect_fallback_writers() {
    let domain = Arc::new(HtmDomain::with_options(
        TxnOptions {
            read_cap_lines: 512,
            write_cap_lines: 1, // writer's 2-word txn capacity-aborts → irrevocable
        },
        RetryPolicy::default(),
    ));
    let a = Arc::new(TmWord::new(0));
    let b = Arc::new(TmWord::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (domain, a, b, stop) =
            (Arc::clone(&domain), Arc::clone(&a), Arc::clone(&b), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                domain.atomic(|txn| {
                    let x = txn.read(&a)?;
                    txn.write(&a, x + 1)?;
                    let y = txn.read(&b)?;
                    txn.write(&b, y + 1)
                });
            }
        })
    };
    for _ in 0..2_000 {
        let (x, y) = domain.atomic(|txn| {
            let x = txn.read(&a)?;
            let y = txn.read(&b)?;
            Ok((x, y))
        });
        assert_eq!(x, y, "lockstep broken across fallback boundary");
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}

/// Explicit aborts never leak partial writes, from either execution mode.
#[test]
fn explicit_abort_discards_buffered_state() {
    let domain = HtmDomain::new();
    let w = TmWord::new(10);
    let mut attempts = 0;
    let out = domain.atomic(|txn| {
        attempts += 1;
        txn.write(&w, 99)?;
        if attempts < 4 {
            return Err(txn.abort(1));
        }
        txn.read(&w)
    });
    assert_eq!(out, 99, "read-own-write on final attempt");
    assert_eq!(w.load_direct(), 99);
    assert_eq!(attempts, 4);
    assert!(domain.stats().snapshot().aborts_explicit >= 3);
}

/// Words inside a pmem arena are just as transactional as heap words —
/// the overlay the trees rely on.
#[test]
fn pmem_resident_words_are_transactional() {
    use nvm::{PmemConfig, PmemPool};
    let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 16)));
    let domain = Arc::new(HtmDomain::new());
    let offs: Vec<u64> = (0..8u64).map(|i| 4096 + i * 8).collect();

    let mut handles = Vec::new();
    for _ in 0..3 {
        let pool = Arc::clone(&pool);
        let domain = Arc::clone(&domain);
        let offs = offs.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..2_000 {
                domain.atomic(|txn| {
                    // Increment all 8 words atomically.
                    for &o in &offs {
                        let w = TmWord::from_atomic(pool.atomic_u64(o));
                        let v = txn.read(w)?;
                        txn.write(w, v + 1)?;
                    }
                    Ok(())
                });
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for &o in &offs {
        assert_eq!(pool.load_u64(o), 6_000);
    }
    // And the committed state persists like any other arena data.
    pool.persist(4096, 64);
    pool.simulate_crash();
    for &o in &offs {
        assert_eq!(pool.load_u64(o), 6_000);
    }
}

/// High-iteration hammer on the weakened (Acquire/Release) lock-table and
/// clock orderings: 4 writer threads increment 16 words in lockstep while
/// 2 reader threads take transactional snapshots. Any missing publication
/// edge shows up as a torn (non-uniform) snapshot; any missing exclusion
/// edge shows up as a lost increment in the exact final total.
#[test]
fn weakened_orderings_survive_concurrent_increments_and_snapshots() {
    const WRITERS: usize = 4;
    const ITERS: u64 = 15_000;
    const WORDS: usize = 16;
    let domain = Arc::new(HtmDomain::new());
    let words: Arc<Vec<TmWord>> = Arc::new((0..WORDS).map(|_| TmWord::new(0)).collect());
    let stop = Arc::new(AtomicBool::new(false));

    let mut readers = Vec::new();
    for _ in 0..2 {
        let domain = Arc::clone(&domain);
        let words = Arc::clone(&words);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut last = 0u64;
            let mut snapshots = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let vals = domain.atomic(|txn| {
                    let mut v = [0u64; WORDS];
                    for (slot, w) in v.iter_mut().zip(words.iter()) {
                        *slot = txn.read(w)?;
                    }
                    Ok(v)
                });
                // Publication edge: a snapshot is all-or-nothing.
                assert!(
                    vals.iter().all(|&v| v == vals[0]),
                    "torn snapshot: {vals:?}"
                );
                // Committed history is monotone from any one observer.
                assert!(vals[0] >= last, "snapshot went backwards");
                last = vals[0];
                snapshots += 1;
            }
            snapshots
        }));
    }

    let mut writers = Vec::new();
    for _ in 0..WRITERS {
        let domain = Arc::clone(&domain);
        let words = Arc::clone(&words);
        writers.push(std::thread::spawn(move || {
            for _ in 0..ITERS {
                domain.atomic(|txn| {
                    for w in words.iter() {
                        let v = txn.read(w)?;
                        txn.write(w, v + 1)?;
                    }
                    Ok(())
                });
            }
        }));
    }
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let snapshots: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(snapshots > 0);
    // Exclusion edge: every increment must have landed exactly once.
    for w in words.iter() {
        assert_eq!(w.load_direct(), WRITERS as u64 * ITERS, "lost increment");
    }
}

/// Small transactions (within the inline read/write-set capacity) must not
/// touch the heap at all: the read set, write set, line sets, and commit's
/// acquired-locks set all live on the stack.
#[test]
fn small_transactions_do_not_heap_allocate() {
    let domain = HtmDomain::new();
    let words: Vec<TmWord> = (0..8).map(TmWord::new).collect();
    // Warm up: first use faults in the global lock table and any lazy
    // thread-local state.
    for _ in 0..8 {
        domain.atomic(|txn| {
            let v = txn.read(&words[0])?;
            txn.write(&words[0], v)
        });
    }
    let before = thread_allocs();
    for round in 0..1_000u64 {
        let sum = domain.atomic(|txn| {
            let mut s = 0u64;
            for w in words.iter() {
                s += txn.read(w)?;
            }
            for w in words.iter().take(4) {
                let v = txn.read(w)?;
                txn.write(w, v + 1)?;
            }
            Ok(s)
        });
        std::hint::black_box((sum, round));
    }
    assert_eq!(
        thread_allocs() - before,
        0,
        "small transactions hit the heap"
    );
}

/// Oversized transactions spill to the per-thread scratch arena, which
/// recycles its buffers: after the first (allocating) spill, steady-state
/// large transactions are also allocation-free.
#[test]
fn spilled_transactions_recycle_scratch_buffers() {
    let domain = HtmDomain::new();
    let words: Vec<TmWord> = (0..64).map(TmWord::new).collect();
    let touch_all = |domain: &HtmDomain| {
        domain.atomic(|txn| {
            for w in words.iter() {
                let v = txn.read(w)?;
                txn.write(w, v + 1)?;
            }
            Ok(())
        });
    };
    // First spill allocates the scratch buffers and grows them to size.
    for _ in 0..4 {
        touch_all(&domain);
    }
    let before = thread_allocs();
    for _ in 0..200 {
        touch_all(&domain);
    }
    assert_eq!(
        thread_allocs() - before,
        0,
        "steady-state spilled transactions hit the heap"
    );
    for (i, w) in words.iter().enumerate() {
        assert_eq!(w.load_direct(), i as u64 + 204);
    }
}
