//! `repro varkey-scale` — end-to-end variable-length string-key
//! workloads over the heap-slotted var leaf (PR 7).
//!
//! Two questions, two phases:
//!
//! 1. **u64 neutrality gate.** The key-abstraction layer must be free
//!    for existing u64 users: on the *same* warmed non-varlen `RnTree`,
//!    driving YCSB-B through the byte-key API (`*_k` with the `U64Key`
//!    codec rendering, [`ycsb::KeyShape::U64Be`]) must not be detectably
//!    slower than the native u64 API: the two API paths run as
//!    [`crate::paired`] order-alternated pairs, and the gate asserts
//!    `p_worse ≥ 0.05` at every thread count.
//!
//! 2. **String-key scaling.** Var-leaf trees warmed with order-preserving
//!    rendered keys — 8-byte zero-padded decimal, 38-byte URL-like, and
//!    64-byte zero-padded decimal — run the same YCSB-B sweep. These
//!    cells are *reported*, not gated (there is no like-for-like
//!    baseline for string keys), but each is oracle-checked after
//!    measurement: structural invariants hold, every warmed id is still
//!    findable (sampled), and a scan window comes back strictly
//!    byte-ordered. Alongside throughput each cell reports the head-tie
//!    fallback deltas from the obs "keys" section, so the JSON shows how
//!    often the 4-byte directory heads decided a compare alone: the URL
//!    and decimal-64 shapes tie on *every* head (all discrimination in
//!    the suffix), decimal-8 only coarsely — see
//!    `ycsb::keygen`'s pinned collision rates.

use std::sync::Arc;

use index_common::{KeyBuf, PersistentIndex};
use obs::{ObsSource, Section};
use rntree::{RnConfig, RnTree};
use ycsb::{run_closed_loop, run_closed_loop_k, KeyDist, KeyShape, WorkloadSpec};

use crate::harness::{pool_for, warm, Gates, Scale, TreeKind};
use crate::paired::{ratios_json, sweep, Order, Summary, ROUNDS};
use crate::report::{fmt_tput, Table};

/// The string-key cells: (label, shape). Lengths span the 8–64-byte
/// range; all three shapes are order-preserving in the sampled id.
const SHAPES: [(&str, KeyShape); 3] = [
    ("dec8", KeyShape::Decimal { width: 8 }),
    ("url38", KeyShape::Url),
    ("dec64", KeyShape::Decimal { width: 64 }),
];

/// Head-tie fallback counters from the obs "keys" section (inner, leaf).
fn head_ties(tree: &RnTree) -> (u64, u64) {
    for (name, sec) in tree.obs_sections() {
        if name == "keys" {
            if let Section::Counters(cs) = sec {
                let get = |k: &str| cs.iter().find(|(n, _)| n == k).map(|(_, v)| *v).unwrap_or(0);
                return (get("head_tie_fallbacks_inner"), get("head_tie_fallbacks_leaf"));
            }
        }
    }
    (0, 0)
}

/// Bulk-warms a byte-keyed tree with rendered ids `1..=n` (value = id).
/// Rendering is order-preserving, so the pairs are already sorted.
fn warm_k(tree: &dyn PersistentIndex, shape: KeyShape, n: u64) {
    let pairs: Vec<(KeyBuf, u64)> = (1..=n).map(|id| (shape.render(id), id)).collect();
    tree.load_sorted_k(&pairs).expect("var-key warm bulk load failed");
}

/// Post-measurement oracle check for a string cell: invariants, sampled
/// presence of every warmed id, and byte-ordered scan output. YCSB-B
/// never removes, so every warmed key must still be present.
fn oracle_check(tree: &RnTree, shape: KeyShape, n: u64, label: &str) {
    tree.verify_invariants().unwrap_or_else(|e| panic!("{label}: invariants after run: {e}"));
    let step = (n / 1_000).max(1);
    for id in (1..=n).step_by(step as usize) {
        assert!(
            tree.find_k(shape.render(id).as_slice()).is_some(),
            "{label}: warmed id {id} lost during the run"
        );
    }
    let mut out = Vec::new();
    tree.scan_k(shape.render(1).as_slice(), 10_000, &mut out);
    assert!(!out.is_empty(), "{label}: scan returned nothing");
    for w in out.windows(2) {
        assert!(w[0].0 < w[1].0, "{label}: scan output out of byte order");
    }
}

/// Runs the sweep, prints the tables, asserts the u64 gate, and writes
/// the JSON report.
///
/// Timing gates panic only under [`Gates::Enforce`]; see [`Gates`].
pub fn varkey_scale(scale: &Scale, out_path: &str, gates: Gates) {
    let spec = WorkloadSpec::ycsb_b(KeyDist::Uniform { n: scale.warm_n });
    let n_points = scale.threads.len();
    let mut json_points: Vec<String> = Vec::new();

    // ---------------------------------------------------- u64 gate
    // One warmed non-varlen tree; the two variants are the two API paths
    // over it, measured back-to-back. Ratio = codec / native.
    let pool = pool_for(TreeKind::RnTree, scale.warm_n, scale.warm_n / 4, scale.bench_pool_cfg());
    let tree = Arc::new(RnTree::create(pool, RnConfig::default()));
    warm(&*tree, scale.warm_n, scale.seed);
    let dynt: Arc<dyn PersistentIndex> = tree.clone();

    let mut peak = [vec![0.0f64; n_points], vec![0.0f64; n_points]]; // [native, codec]
    // Variant 0 (the candidate) is the codec path, variant 1 native. A
    // neutral codec straddles ratio 1, so rescue pairs push p_worse up.
    let ratios = sweep(
        n_points,
        Order::Alternated,
        |v, ti| {
            let threads = scale.threads[ti];
            let r = if v == 0 {
                run_closed_loop_k(&dynt, &spec, KeyShape::U64Be, threads, scale.duration, scale.seed)
            } else {
                run_closed_loop(&dynt, &spec, threads, scale.duration, scale.seed)
            };
            assert_eq!(r.pool_exhausted, 0, "u64 gate pool exhausted");
            let p = &mut peak[1 - v][ti];
            *p = p.max(r.throughput());
            r.throughput()
        },
        |_, rs| !Summary::of(rs).not_detectably_worse(),
    );

    println!("\n## varkey-scale — u64 neutrality gate (native API vs U64Key codec), ycsb-b uniform\n");
    let mut table = Table::per_thread("api", &scale.threads, &[]);
    for (v, vname) in ["native-u64", "u64key-codec"].iter().enumerate() {
        let mut row = vec![vname.to_string()];
        row.extend(peak[v].iter().map(|&m| fmt_tput(m)));
        table.row(row);
    }
    table.print();

    for (ti, &threads) in scale.threads.iter().enumerate() {
        let s = Summary::of(&ratios[ti]);
        let (w, n) = (s.wins, s.n);
        gates.check(s.not_detectably_worse(), || {
            format!(
                "the byte-key layer regressed u64 throughput: {threads} thr — only {w}/{n} \
                 pairs favour the codec path (sign-test p {:.4}), median pair ratio {:.3} \
                 (peaks: native {:.0} ops/s, codec {:.0} ops/s)",
                s.p_worse,
                s.median,
                peak[0][ti],
                peak[1][ti]
            )
        });
        let dist = ratios_json(&ratios[ti]);
        json_points.push(format!(
            "    {{\"cell\": \"u64-gate\", \"threads\": {threads}, \
             \"native_mops\": {:.4}, \"codec_mops\": {:.4}, \
             \"median_pair_ratio\": {:.4}, \"pair_wins\": {w}, \"pair_n\": {n}, \
             \"sign_test_p_worse\": {:.6}, \"pair_ratios\": [{dist}]}}",
            peak[0][ti] / 1e6,
            peak[1][ti] / 1e6,
            s.median,
            s.p_worse,
        ));
    }

    // ---------------------------------------------------- string cells
    for (label, shape) in SHAPES {
        let pool =
            pool_for(TreeKind::RnTree, scale.warm_n, scale.warm_n / 4, scale.bench_pool_cfg());
        let tree = Arc::new(RnTree::create(
            pool,
            RnConfig {
                varlen_leaves: true,
                ..RnConfig::default()
            },
        ));
        warm_k(&*tree, shape, scale.warm_n);
        let dynt: Arc<dyn PersistentIndex> = tree.clone();

        println!(
            "\n## varkey-scale — {label} ({} B keys, {}), ycsb-b uniform\n",
            shape.key_len(),
            tree.name()
        );
        let mut table =
            Table::new(&["threads", "peak tput", "head ties inner", "head ties leaf"]);
        for &threads in &scale.threads {
            let mut best = 0.0f64;
            let mut tie_delta = (0u64, 0u64);
            for _ in 0..ROUNDS {
                let before = head_ties(&tree);
                let r = run_closed_loop_k(&dynt, &spec, shape, threads, scale.duration, scale.seed);
                assert_eq!(r.pool_exhausted, 0, "{label} pool exhausted");
                if r.throughput() > best {
                    best = r.throughput();
                    let after = head_ties(&tree);
                    tie_delta = (after.0 - before.0, after.1 - before.1);
                }
            }
            table.row(vec![
                threads.to_string(),
                fmt_tput(best),
                tie_delta.0.to_string(),
                tie_delta.1.to_string(),
            ]);
            json_points.push(format!(
                "    {{\"cell\": \"{label}\", \"key_len\": {}, \"threads\": {threads}, \
                 \"mops\": {:.4}, \"head_tie_fallbacks_inner\": {}, \
                 \"head_tie_fallbacks_leaf\": {}}}",
                shape.key_len(),
                best / 1e6,
                tie_delta.0,
                tie_delta.1,
            ));
        }
        table.print();
        oracle_check(&tree, shape, scale.warm_n, label);
    }

    let json = format!(
        "{{\n  \"bench\": \"pr7-varkey-scale\",\n  \
         \"tree\": \"RnTree (u64 leaf via both APIs) and RnTree+VK (heap-slotted var leaf)\",\n  \
         \"workload\": \"ycsb-b, uniform ids over the warmed space, rendered per cell\",\n  \
         \"method\": \"u64-gate: one warmed tree, native vs U64Key-codec drivers measured \
         back-to-back per round with alternating order, pair_ratios is the full distribution \
         of time-adjacent codec/native ratios, unmet points get paired rescue rounds; string \
         cells: per-point peak of {ROUNDS} rounds, head-tie counters are the obs delta of the \
         peak round, every cell oracle-checked after measurement\",\n  \
         \"assertion\": \"u64 gate at every thread count: codec path not detectably worse \
         (one-sided sign test p >= 0.05); string cells: invariants + sampled presence + \
         byte-ordered scans; checked by the bench itself\",\n  \
         \"scale\": {},\n  \"points\": [\n{}\n  ]\n}}\n",
        scale.json(),
        json_points.join(",\n")
    );
    std::fs::write(out_path, &json).expect("write varkey-scale json");
    println!("\nwrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn varkey_scale_smoke_emits_json() {
        let scale = Scale {
            warm_n: 3_000,
            duration: Duration::from_millis(40),
            threads: vec![1, 2],
            write_latency_ns: 0,
            ..Scale::quick()
        };
        let path = std::env::temp_dir().join("varkey_scale_smoke.json");
        let path = path.to_str().unwrap();
        varkey_scale(&scale, path, Gates::Report);
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"bench\": \"pr7-varkey-scale\""));
        assert!(body.contains("\"cell\": \"u64-gate\""));
        assert!(body.contains("\"cell\": \"dec8\""));
        assert!(body.contains("\"cell\": \"url38\""));
        assert!(body.contains("\"cell\": \"dec64\""));
        assert!(body.contains("\"head_tie_fallbacks_leaf\""));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn string_warm_is_order_preserving_and_oracle_clean() {
        let scale = Scale {
            warm_n: 2_000,
            write_latency_ns: 0,
            ..Scale::quick()
        };
        for (label, shape) in SHAPES {
            let pool = pool_for(TreeKind::RnTree, scale.warm_n, 100, scale.bench_pool_cfg());
            let tree = RnTree::create(
                pool,
                RnConfig {
                    varlen_leaves: true,
                    ..RnConfig::default()
                },
            );
            warm_k(&tree, shape, scale.warm_n);
            oracle_check(&tree, shape, scale.warm_n, label);
        }
    }
}
