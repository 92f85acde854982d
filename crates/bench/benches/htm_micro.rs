//! Micro-benchmarks of the software-HTM substrate: transaction
//! begin/commit costs at various footprints, read-only vs writing, the
//! double-collect snapshot, plus the non-transactional conflict-visible
//! store. These quantify the emulation overhead that EXPERIMENTS.md
//! discusses when comparing absolute numbers against the paper's
//! real-RTM testbed.

use bench::microbench::{bench, group};
use htm::{HtmStats, TmWord};

fn main() {
    let stats = HtmStats::default();
    let words: Vec<TmWord> = (0..64).map(TmWord::new).collect();

    group("txn_read_only");
    for n in [1usize, 8, 32] {
        bench(&format!("txn_read_only/{n}_reads"), || {
            htm::atomic(&stats, |t| {
                let mut acc = 0;
                for w in &words[..n] {
                    acc += t.read(w)?;
                }
                Ok(acc)
            });
        });
    }

    // The leaf-snapshot shape: one slot line read by a double collect of
    // its version locks, beside the 8-read section it replaces.
    group("snapshot");
    bench("snapshot/8_words", || {
        std::hint::black_box(htm::snapshot(&stats, std::array::from_fn::<_, 8, _>(|i| &words[i])));
    });

    group("txn_read_write");
    for n in [1usize, 8, 16] {
        bench(&format!("txn_read_write/{n}_rw"), || {
            htm::atomic(&stats, |t| {
                for w in &words[..n] {
                    let v = t.read(w)?;
                    t.write(w, v + 1)?;
                }
                Ok(())
            });
        });
    }

    group("nontx_ops");
    let w = TmWord::new(0);
    bench("nontx_ops/load_direct", || {
        std::hint::black_box(w.load_direct());
    });
    bench("nontx_ops/store_nontx", || w.store_nontx(1));
    bench("nontx_ops/fetch_add_nontx", || {
        w.fetch_add_nontx(1);
    });

    // The slot-array update shape: 8 reads + 8 writes in one txn — the
    // exact footprint of htmLeafUpdate.
    group("slot_array_txn_shape");
    bench("slot_array_txn_shape/8r8w", || {
        htm::atomic(&stats, |t| {
            for w in &words[..8] {
                let v = t.read(w)?;
                t.write(w, v)?;
            }
            Ok(())
        });
    });
}
