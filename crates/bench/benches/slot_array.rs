//! Benchmark of the §4.1 design point: keeping a leaf sorted via the
//! cache-line slot array (RNTree, 2 persists) versus the valid-bit
//! protocol (wB+Tree, 4 persists) versus append-only (NVTree, 2 persists
//! but unsorted finds). Also benches the pure SlotBuf editing operations.

use bench::microbench::{bench, group};
use htm::HtmStats;
use nvm::{PmemConfig, PmemPool};
use rntree::SlotBuf;

fn main() {
    group("slotbuf");
    let base = SlotBuf::identity(40);
    bench("slotbuf/insert_middle", || {
        let mut s = base;
        s.insert_at(20, 41);
        std::hint::black_box(s);
    });
    let s = SlotBuf::identity(63);
    bench("slotbuf/words_roundtrip", || {
        std::hint::black_box(SlotBuf::from_words(std::hint::black_box(s).to_words()));
    });

    // The crux comparison: one sorted-leaf modify's persistence protocol.
    let pool = PmemPool::new(PmemConfig {
        size: 1 << 20,
        write_latency_ns: 140,
        shadow: false,
    });
    let stats = HtmStats::default();
    let kv_off = 8192u64;
    let slot_off = 4096u64;
    let valid_off = 2048u64;

    group("sorted_modify_protocol");

    // RNTree: KV persist + transactional slot edit + slot persist.
    bench("sorted_modify_protocol/rntree_htm_slot", || {
        pool.store_u64(kv_off, 1);
        pool.store_u64(kv_off + 8, 2);
        pool.persist(kv_off, 16);
        htm::atomic(&stats, |t| {
            for i in 0..8u64 {
                let w = htm::TmWord::from_atomic(pool.atomic_u64(slot_off + i * 8));
                let v = t.read(w)?;
                t.write(w, v.wrapping_add(1))?;
            }
            Ok(())
        });
        pool.persist(slot_off, 64);
    });

    // wB+Tree: KV persist + valid←0 persist + slot persist + valid←1
    // persist (no HTM needed, but two extra persistent instructions).
    bench("sorted_modify_protocol/wbtree_valid_bit", || {
        pool.store_u64(kv_off, 1);
        pool.store_u64(kv_off + 8, 2);
        pool.persist(kv_off, 16);
        pool.store_u64(valid_off, 0);
        pool.persist(valid_off, 8);
        for i in 0..8u64 {
            pool.store_u64(slot_off + i * 8, i);
        }
        pool.persist(slot_off, 64);
        pool.store_u64(valid_off, 1);
        pool.persist(valid_off, 8);
    });

    // NVTree: KV persist + counter persist — cheap, but the leaf is
    // unsorted (finds scan, scans sort).
    bench("sorted_modify_protocol/nvtree_append_only", || {
        pool.store_u64(kv_off, 1);
        pool.store_u64(kv_off + 8, 2);
        pool.persist(kv_off, 16);
        pool.store_u64(valid_off, 7);
        pool.persist(valid_off, 8);
    });
}
