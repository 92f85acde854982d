//! Torture tests for the software-HTM substrate: multi-threaded invariant
//! preservation under conflicts, fallback interleavings, and mixed
//! transactional / non-transactional access — the access patterns the
//! trees rely on, distilled.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use htm::{HtmStats, TmWord};

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
    let stats = Arc::new(HtmStats::default());
    let accounts: Arc<Vec<TmWord>> =
        Arc::new((0..ACCOUNTS).map(|_| TmWord::new(TOTAL / ACCOUNTS as u64)).collect());
    let stop = Arc::new(AtomicBool::new(false));
    // Transfers completed by all writers: the reader keeps going until at
    // least one landed, or it could finish before any writer is scheduled.
    let transfers = Arc::new(AtomicU64::new(0));

    let mut writers = Vec::new();
    for t in 0..3u64 {
        let stats = Arc::clone(&stats);
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
                htm::atomic(&stats, |txn| {
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
        let sum = htm::atomic(&stats, |txn| {
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

/// One word per cache line: 513 of them overflow the 512-line capacity
/// model.
#[repr(align(64))]
#[derive(Default)]
struct Line(TmWord);

/// Oversized sections (capacity abort → fallback) interleaved with small
/// optimistic ones on overlapping words: correctness must survive
/// constant irrevocable execution mixed with optimistic commits.
#[test]
fn fallback_heavy_execution_is_still_atomic() {
    const N: usize = 513;
    const THREADS: u64 = 3;
    const ROUNDS: u64 = 250;
    let stats = Arc::new(HtmStats::default());
    let words: Arc<Vec<Line>> = Arc::new((0..N).map(|_| Line::default()).collect());

    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let stats = Arc::clone(&stats);
        let words = Arc::clone(&words);
        handles.push(std::thread::spawn(move || {
            for _ in 0..ROUNDS {
                // Oversized txn: always capacity-aborts → fallback.
                htm::atomic(&stats, |txn| {
                    for w in words.iter() {
                        let v = txn.read(&w.0)?;
                        txn.write(&w.0, v + 1)?;
                    }
                    Ok(())
                });
                // Two lines: commits optimistically unless it conflicts.
                htm::atomic(&stats, |txn| {
                    for w in [&words[0], &words[N - 1]] {
                        let v = txn.read(&w.0)?;
                        txn.write(&w.0, v + 1)?;
                    }
                    Ok(())
                });
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for (i, w) in words.iter().enumerate() {
        let small = if i == 0 || i == N - 1 { THREADS * ROUNDS } else { 0 };
        assert_eq!(w.0.load_direct(), THREADS * ROUNDS + small, "lost increment at word {i}");
    }
    let s = stats.snapshot();
    assert!(s.fallbacks >= THREADS * ROUNDS, "every oversized section falls back: {s:?}");
    assert!(s.commits > 0, "no small section committed optimistically: {s:?}");
    assert_eq!(
        s.commits + s.fallbacks,
        2 * THREADS * ROUNDS,
        "every section ends in exactly one optimistic commit or one fallback"
    );
}

/// Non-transactional CAS/store mixed with transactions on the same words:
/// the version-lock bumps must keep both sides conflict-coherent.
#[test]
fn mixed_tx_and_nontx_counters_are_exact() {
    let stats = Arc::new(HtmStats::default());
    let word = Arc::new(TmWord::new(0));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let stats = Arc::clone(&stats);
        let word = Arc::clone(&word);
        handles.push(std::thread::spawn(move || {
            for _ in 0..2_000 {
                if t % 2 == 0 {
                    word.fetch_add_nontx(1);
                } else {
                    htm::atomic(&stats, |txn| {
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
    let stats = Arc::new(HtmStats::default());
    let a = Arc::new(TmWord::new(0));
    let b = Arc::new(TmWord::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (stats, a, b, stop) =
            (Arc::clone(&stats), Arc::clone(&a), Arc::clone(&b), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                htm::atomic(&stats, |txn| {
                    txn.flush_attempt()?; // aborts optimistic ⇒ irrevocable
                    let x = txn.read(&a)?;
                    txn.write(&a, x + 1)?;
                    let y = txn.read(&b)?;
                    txn.write(&b, y + 1)
                });
            }
        })
    };
    // Read until the writer has been through the fallback too, or the
    // reads could all finish before it is scheduled.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut reads = 0u32;
    while reads < 2_000 || stats.snapshot().fallbacks == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the writer reached no fallback within 60 s ({reads} reads done)"
        );
        let (x, y) = htm::atomic(&stats, |txn| {
            let x = txn.read(&a)?;
            let y = txn.read(&b)?;
            Ok((x, y))
        });
        assert_eq!(x, y, "lockstep broken across fallback boundary");
        reads += 1;
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    let s = stats.snapshot();
    assert!(s.fallbacks > 0 && s.commits > 0, "both paths must have run: {s:?}");
}

/// Explicit aborts never leak partial writes, from either execution mode.
#[test]
fn explicit_abort_discards_buffered_state() {
    let stats = HtmStats::default();
    let w = TmWord::new(10);
    let mut attempts = 0u64;
    let out = htm::atomic(&stats, |txn| {
        attempts += 1;
        txn.write(&w, 99)?;
        if attempts < 4 {
            return Err(txn.abort(1));
        }
        txn.read(&w)
    });
    assert_eq!(out, 99, "read-own-write on final attempt");
    assert_eq!(w.load_direct(), 99);
    // Three explicit aborts, then one success. The fallback lock is
    // process-wide, so another test's fallback can abort the writing
    // commit; each such conflict costs exactly one more run.
    let s = stats.snapshot();
    assert_eq!(s.aborts_explicit, 3);
    assert_eq!(attempts, 3 + s.aborts_conflict + 1);
}

/// Words inside a pmem arena are just as transactional as heap words —
/// the overlay the trees rely on.
#[test]
fn pmem_resident_words_are_transactional() {
    use nvm::{PmemConfig, PmemPool};
    let pool = Arc::new(PmemPool::new(PmemConfig::for_testing(1 << 16)));
    let stats = Arc::new(HtmStats::default());
    let offs: Vec<u64> = (0..8u64).map(|i| 4096 + i * 8).collect();

    let mut handles = Vec::new();
    for _ in 0..3 {
        let pool = Arc::clone(&pool);
        let stats = Arc::clone(&stats);
        let offs = offs.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..2_000 {
                htm::atomic(&stats, |txn| {
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
    let stats = Arc::new(HtmStats::default());
    let words: Arc<Vec<TmWord>> = Arc::new((0..WORDS).map(|_| TmWord::new(0)).collect());
    let stop = Arc::new(AtomicBool::new(false));

    let mut readers = Vec::new();
    for _ in 0..2 {
        let stats = Arc::clone(&stats);
        let words = Arc::clone(&words);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut last = 0u64;
            let mut snapshots = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let vals = htm::atomic(&stats, |txn| {
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
        let stats = Arc::clone(&stats);
        let words = Arc::clone(&words);
        writers.push(std::thread::spawn(move || {
            for _ in 0..ITERS {
                htm::atomic(&stats, |txn| {
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
    let stats = HtmStats::default();
    let words: Vec<TmWord> = (0..8).map(TmWord::new).collect();
    // Warm up: first use faults in the global lock table and any lazy
    // thread-local state.
    for _ in 0..8 {
        htm::atomic(&stats, |txn| {
            let v = txn.read(&words[0])?;
            txn.write(&words[0], v)
        });
    }
    let before = thread_allocs();
    for round in 0..1_000u64 {
        let sum = htm::atomic(&stats, |txn| {
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
    let stats = HtmStats::default();
    let words: Vec<TmWord> = (0..64).map(TmWord::new).collect();
    let touch_all = |stats: &HtmStats| {
        htm::atomic(stats, |txn| {
            for w in words.iter() {
                let v = txn.read(w)?;
                txn.write(w, v + 1)?;
            }
            Ok(())
        });
    };
    // First spill allocates the scratch buffers and grows them to size.
    for _ in 0..4 {
        touch_all(&stats);
    }
    let before = thread_allocs();
    for _ in 0..200 {
        touch_all(&stats);
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

/// `htm::snapshot` (the double collect behind RNTree's leaf
/// snapshot) never returns a torn view. Eight words are kept equal by
/// three kinds of writer: optimistic commits, fallback bodies (a flush
/// aborts the optimistic attempt, so the body runs in place), and
/// word-by-word non-transactional increments under a lock word that the
/// transactional writers read and the readers snapshot with the eight. A
/// reader that sees the lock word free must see all eight words equal.
#[test]
fn snapshots_never_tear_across_every_kind_of_writer() {
    const ITERS: u64 = 20_000;
    let writer_stats = HtmStats::default();
    let reader_stats = HtmStats::default();
    let lock = TmWord::new(0);
    let words: Vec<TmWord> = (0..8).map(|_| TmWord::new(0)).collect();
    let stop = AtomicBool::new(false);

    // The transactional writers' body: wait out the lock word, then
    // increment all eight words. Explicit aborts retry (under the
    // fallback too), so a held lock word is waited out on either path.
    let increment_all = |forced_fallback: bool| {
        htm::atomic(&writer_stats, |txn| {
            if forced_fallback {
                txn.flush_attempt()?;
            }
            if txn.read(&lock)? % 2 == 1 {
                return Err(txn.abort(1));
            }
            for w in &words {
                let v = txn.read(w)?;
                txn.write(w, v + 1)?;
            }
            Ok(())
        })
    };

    let (snapshots, free_snapshots) = std::thread::scope(|s| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let view: [&TmWord; 9] =
                        std::array::from_fn(|i| if i == 0 { &lock } else { &words[i - 1] });
                    let (mut last, mut snapshots, mut free) = (0u64, 0u64, 0u64);
                    while !stop.load(Ordering::Relaxed) || snapshots < 2_000 {
                        let vals = htm::snapshot(&reader_stats, view);
                        snapshots += 1;
                        if vals[0] % 2 == 1 {
                            continue; // a word-by-word update is in flight
                        }
                        free += 1;
                        assert!(vals[1..].iter().all(|&v| v == vals[1]), "torn snapshot: {vals:?}");
                        assert!(vals[1] >= last, "snapshot went backwards");
                        last = vals[1];
                    }
                    (snapshots, free)
                })
            })
            .collect();
        let writers = [
            s.spawn(|| (0..ITERS).for_each(|_| increment_all(false))),
            s.spawn(|| (0..ITERS).for_each(|_| increment_all(true))),
            s.spawn(|| {
                for _ in 0..ITERS {
                    let l = loop {
                        let l = lock.load_direct();
                        if l.is_multiple_of(2) && lock.cas_nontx(l, l + 1).is_ok() {
                            break l;
                        }
                        std::thread::yield_now();
                    };
                    // An atomic increment per word: a transactional
                    // commit validated before the lock word moved may
                    // still be storing, and a plain load-then-store
                    // would lose its increment.
                    for w in &words {
                        w.fetch_add_nontx(1);
                    }
                    lock.store_nontx(l + 2);
                }
            }),
        ];
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        readers.into_iter().map(|r| r.join().unwrap()).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    });
    for w in &words {
        assert_eq!(w.load_direct(), 3 * ITERS, "lost increment");
    }
    assert!(free_snapshots > 0, "no snapshot saw the lock word free ({snapshots} taken)");
    let s = writer_stats.snapshot();
    assert!(s.fallbacks >= ITERS && s.commits > 0, "both transactional paths must have run: {s:?}");
    let r = reader_stats.snapshot();
    assert_eq!(r.commits, snapshots, "one commit per snapshot");
    assert_eq!(r.attempts, r.commits + r.aborts_conflict, "every failed collect is a conflict abort");
}
