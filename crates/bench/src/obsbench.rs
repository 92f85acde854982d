//! `repro obs-report` — exercise the unified observability layer end to
//! end and emit its snapshot in both export formats.
//!
//! Four stages, all landing in one machine-readable report
//! (`BENCH_PR4.json` by default, plus a sibling `.prom` Prometheus text
//! file):
//!
//! 1. **Snapshot** — an instrumented sharded YCSB-A run: per-op latency
//!    quantiles from the `Instrumented` wrapper, per-shard pmem counters,
//!    HTM abort taxonomy + retries-to-commit, phase timers, and event
//!    rings from the `ShardedIndex<RnTree>` source, all through one
//!    `ObsRegistry::snapshot`.
//! 2. **Phase breakdown** — the modify-path phase table
//!    (descent / leaf critical section / log flush / slot persist)
//!    regenerated from the live timers instead of the synthetic
//!    micro-measurements of `repro breakdown` (results_breakdown.txt).
//! 3. **Crash forensics** — arm a persist trap, crash mid-insert, recover,
//!    and dump the pool's event ring: the trap, the crash injection, and
//!    every recovery step must be visible in order.
//! 4. **Overhead** — YCSB-A throughput with instrumentation off vs
//!    fully on (recorder + phase timers), the median of interleaved
//!    rounds; the enabled overhead is the report's headline acceptance
//!    number (≤3%).
//!
//! The emitted JSON is parsed back with `obs::parse` and checked against
//! [`validate_report`] before the run is declared good — the report
//! cannot silently drift from its schema.

use std::sync::Arc;

use index_common::{Instrumented, PersistentIndex, ShardedIndex};
use nvm::{PmemConfig, PmemPool, PoolSet};
use obs::{EventKind, Json, ObsRegistry, ObsSource, Phase, ToJson};
use rntree::{RnConfig, RnTree};
use ycsb::{run_closed_loop, KeyDist, WorkloadSpec};

use crate::harness::{warm, Scale};
use crate::paired::median;
use crate::report::Table;

/// Shards for the snapshot stage: enough to prove per-shard labelling
/// without dominating the run.
const SNAPSHOT_SHARDS: usize = 2;

/// Interleaved measurement rounds for the overhead stage (odd, so the
/// gated median is an actual round, not an interpolation).
const OVERHEAD_ROUNDS: usize = 7;

/// Sizes a `PoolSet` for `shards` shards of `warm_n` RNTree keys
/// (mirrors `shardbench::poolset_for`).
fn poolset_for(scale: &Scale, shards: usize, cfg_base: PmemConfig) -> PoolSet {
    let per_key = 100u64;
    let per_shard = ((scale.warm_n / shards as u64 + 1) * per_key * 2).max(24 << 20) + (8 << 20);
    let mut cfg = cfg_base;
    cfg.size = (per_shard as usize) * shards;
    PoolSet::new(cfg, shards)
}

// ------------------------------------------------------------ stage 1+2

/// One merged histogram per phase across every shard of `tree`.
fn merged_phases(tree: &ShardedIndex<RnTree>) -> Vec<(Phase, obs::Histogram)> {
    Phase::ALL
        .iter()
        .map(|&p| {
            let mut h = obs::Histogram::new();
            for i in 0..tree.shard_count() {
                h.merge(&tree.shard(i).phase_timers().snapshot(p));
            }
            (p, h)
        })
        .collect()
}

/// Runs the instrumented sharded workload and returns the registry
/// snapshot (as JSON + Prometheus text) and the phase-breakdown rows.
fn snapshot_stage(scale: &Scale) -> (Json, String, Json) {
    let set = poolset_for(scale, SNAPSHOT_SHARDS, scale.bench_pool_cfg());
    let sharded = Arc::new(ShardedIndex::<RnTree>::create(&set.handles(), RnConfig::default()));
    for i in 0..sharded.shard_count() {
        sharded.shard(i).phase_timers().set_enabled(true);
    }
    let (instr, _hists) = Instrumented::with_histograms(Arc::clone(&sharded));
    let instr = Arc::new(instr);
    let tree: Arc<dyn PersistentIndex> = Arc::clone(&instr) as Arc<dyn PersistentIndex>;

    warm(&*tree, scale.warm_n, scale.seed);
    let spec = WorkloadSpec::ycsb_a(KeyDist::Uniform { n: scale.warm_n });
    let threads = scale.threads.iter().copied().max().unwrap_or(1);
    let r = run_closed_loop(&tree, &spec, threads, scale.duration, scale.seed);
    println!(
        "snapshot run: {} ops in {:?} across {threads} threads ({} shards)",
        r.ops,
        r.elapsed,
        sharded.shard_count()
    );

    let mut reg = ObsRegistry::new();
    reg.register("index", Arc::clone(&instr) as Arc<dyn ObsSource + Send + Sync>);
    reg.register("sharded", Arc::clone(&sharded) as Arc<dyn ObsSource + Send + Sync>);
    let snap = reg.snapshot();
    let json = snap.to_json();
    let prom = snap.to_prometheus();

    // Phase breakdown from the same live run. LeafCs wraps the nested
    // log-drain and slot-persist spans, so its exclusive share subtracts
    // their means (clamped — sampling means the estimates are independent).
    let phases = merged_phases(&sharded);
    let mean = |p: Phase| {
        phases.iter().find(|(q, _)| *q == p).map(|(_, h)| h.mean()).unwrap_or(0.0)
    };
    let cs_excl = (mean(Phase::LeafCs) - mean(Phase::LogFlush) - mean(Phase::SlotPersist)).max(0.0);
    let exclusive = |p: Phase| if p == Phase::LeafCs { cs_excl } else { mean(p) };
    let total: f64 = Phase::ALL.iter().map(|&p| exclusive(p)).sum();

    println!("\n## phase breakdown — live timers (cf. results_breakdown.txt)\n");
    let mut t = Table::new(&["phase", "samples", "mean ns", "p99 ns", "share (exclusive)"]);
    let mut rows = Vec::new();
    for (p, h) in &phases {
        let q = h.quantiles();
        let share = if total > 0.0 { 100.0 * exclusive(*p) / total } else { 0.0 };
        t.row(vec![
            p.name().to_string(),
            q.count.to_string(),
            format!("{:.0}", q.mean),
            q.p99.to_string(),
            format!("{share:.0}%"),
        ]);
        let mut row = Json::obj();
        row.set("phase", Json::Str(p.name().to_string()));
        row.set("count", Json::U64(q.count));
        row.set("mean_ns", Json::F64(q.mean));
        row.set("p50_ns", Json::U64(q.p50));
        row.set("p99_ns", Json::U64(q.p99));
        row.set("share_pct", Json::F64(share));
        rows.push(row);
    }
    t.print();
    println!(
        "(leaf_cs share is exclusive: its mean minus the nested log_flush\n\
         and slot_persist spans; flush instructions again dominate, the\n\
         paper's §4.2 motivation for moving them out of the lock.)"
    );

    (json, prom, Json::Arr(rows))
}

// -------------------------------------------------------------- stage 3

/// Crash-forensics stage: trap → crash → recover, returning the event
/// timeline and the number of recovery-step events in it.
fn forensics_stage(scale: &Scale) -> Json {
    let mut cfg = scale.recovery_pool_cfg();
    cfg.size = 32 << 20;
    let pool = Arc::new(PmemPool::new(cfg));
    let tree = RnTree::create(Arc::clone(&pool), RnConfig::default());
    for k in 1..=2_000u64 {
        tree.insert(k, k).unwrap();
    }

    // Arm the trap a few persists ahead, then write until it fires. The
    // panic models the machine dying mid persist sequence (hook silenced:
    // the death is the point, not a diagnostic).
    pool.arm_persist_trap(7);
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let trapped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for k in 2_001..=2_100u64 {
            tree.insert(k, k).unwrap();
        }
    }))
    .is_err();
    std::panic::set_hook(prev_hook);
    pool.disarm_persist_trap();
    assert!(trapped, "persist trap must fire within 100 inserts");
    drop(tree);

    pool.simulate_crash();
    let tree = RnTree::recover(Arc::clone(&pool), RnConfig::default());
    assert_eq!(tree.find(1), Some(1), "recovered tree lost key 1");
    tree.verify_invariants().expect("recovered tree invariants");

    let events = pool.events().dump();
    let recovery_steps = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::JournalRollback
                    | EventKind::RecoveryJournal
                    | EventKind::RecoveryLeafChain
                    | EventKind::RecoveryAlloc
                    | EventKind::RecoveryIndex
            )
        })
        .count() as u64;
    let trap_fired = events.iter().any(|e| e.kind == EventKind::TrapFired);
    let crashes = events.iter().filter(|e| e.kind == EventKind::CrashInjection).count() as u64;
    println!(
        "\nforensics: {} events in the ring ({} recovery steps, trap_fired={trap_fired})",
        events.len(),
        recovery_steps
    );
    assert!(!events.is_empty() && recovery_steps > 0, "event ring must show the recovery");

    let mut o = Json::obj();
    o.set("trap_fired", Json::Bool(trap_fired));
    o.set("crash_injections", Json::U64(crashes));
    o.set("recovery_steps", Json::U64(recovery_steps));
    o.set("events", events.to_json());
    o
}

// -------------------------------------------------------------- stage 4

/// Overhead stage: YCSB-A Mops with instrumentation fully off vs fully
/// on, rounds interleaved so drift cannot favour either side.
///
/// The gated statistic is the **median** of each side's rounds, as in
/// `trace-report`: a peak of N rounds swings with host noise (one run in
/// four read 3.3–6% against 0–0.6% for the rest), while the median of
/// the same interleaved rounds converges.
fn overhead_stage(scale: &Scale) -> Json {
    let set = poolset_for(scale, 1, scale.bench_pool_cfg());
    let inner = Arc::new(ShardedIndex::<RnTree>::create(&set.handles(), RnConfig::default()));
    let plain: Arc<dyn PersistentIndex> = Arc::clone(&inner) as Arc<dyn PersistentIndex>;
    let (instr, _hists) = Instrumented::with_histograms(Arc::clone(&inner));
    let instr: Arc<dyn PersistentIndex> = Arc::new(instr);
    warm(&*plain, scale.warm_n, scale.seed);

    let spec = WorkloadSpec::ycsb_a(KeyDist::Uniform { n: scale.warm_n });
    let threads = scale.threads.iter().copied().max().unwrap_or(1);
    let timers = || inner.shard(0).phase_timers();
    let (mut off_rounds, mut on_rounds) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_ROUNDS {
        timers().set_enabled(false);
        let r = run_closed_loop(&plain, &spec, threads, scale.duration, scale.seed);
        off_rounds.push(r.throughput());
        timers().set_enabled(true);
        let r = run_closed_loop(&instr, &spec, threads, scale.duration, scale.seed);
        on_rounds.push(r.throughput());
    }
    timers().set_enabled(false);
    let (off_med, on_med) = (median(&off_rounds), median(&on_rounds));
    let overhead_pct = (100.0 * (off_med - on_med) / off_med).max(0.0);
    println!(
        "\noverhead: disabled {:.3} Mops, enabled {:.3} Mops → {:.2}% \
         (median of {OVERHEAD_ROUNDS} interleaved rounds, {threads} threads)",
        off_med / 1e6,
        on_med / 1e6,
        overhead_pct
    );

    let mut o = Json::obj();
    o.set("disabled_mops", Json::F64(off_med / 1e6));
    o.set("enabled_mops", Json::F64(on_med / 1e6));
    o.set("overhead_pct", Json::F64(overhead_pct));
    o.set("statistic", Json::Str("median".into()));
    o.set("rounds", Json::U64(OVERHEAD_ROUNDS as u64));
    o.set("threads", Json::U64(threads as u64));
    o
}

// ------------------------------------------------------------ reporting

/// Checks an emitted obs report against its schema: every acceptance
/// surface (per-op quantiles, per-shard pmem counters, HTM taxonomy,
/// phase rows, overhead numbers, non-empty forensics) must be present
/// with the right types.
pub fn validate_report(doc: &Json) -> Result<(), String> {
    fn need<'a>(doc: &'a Json, path: &[&str]) -> Result<&'a Json, String> {
        let mut cur = doc;
        for key in path {
            cur = cur.get(key).ok_or_else(|| format!("missing key: {}", path.join(".")))?;
        }
        Ok(cur)
    }
    if need(doc, &["bench"])?.as_str() != Some("pr4-obs-report") {
        return Err("bench marker is not pr4-obs-report".into());
    }
    // Per-op latency quantiles from the instrumented index.
    for q in ["count", "p50_ns", "p90_ns", "p99_ns", "p999_ns"] {
        need(doc, &["snapshot", "sources", "index", "ops", "update", q])?;
    }
    // Per-shard pmem counters + HTM taxonomy + event rings.
    for shard in ["shard0", "shard1"] {
        need(doc, &["snapshot", "sources", "sharded", &format!("{shard}.pmem"), "persists"])?;
        need(doc, &["snapshot", "sources", "sharded", &format!("{shard}.htm"), "aborts_conflict"])?;
        need(doc, &["snapshot", "sources", "sharded", &format!("{shard}.events")])?;
        need(doc, &[
            "snapshot",
            "sources",
            "sharded",
            &format!("{shard}.htm_retries"),
            "retries_to_commit",
            "p99_ns",
        ])?;
    }
    // Phase breakdown: all four phases, each with a share.
    let phases = need(doc, &["phases"])?
        .as_arr()
        .ok_or_else(|| "phases is not an array".to_string())?;
    if phases.len() != obs::N_PHASES {
        return Err(format!("expected {} phase rows, got {}", obs::N_PHASES, phases.len()));
    }
    for row in phases {
        for k in ["phase", "count", "mean_ns", "share_pct"] {
            need(row, &[k])?;
        }
    }
    // Overhead numbers.
    for k in ["disabled_mops", "enabled_mops", "overhead_pct"] {
        if need(doc, &["overhead", k])?.as_f64().is_none() {
            return Err(format!("overhead.{k} is not a number"));
        }
    }
    // Forensics: a non-empty timeline with visible recovery steps.
    let events = need(doc, &["forensics", "events"])?
        .as_arr()
        .ok_or_else(|| "forensics.events is not an array".to_string())?;
    if events.is_empty() {
        return Err("forensics.events is empty".into());
    }
    let steps = need(doc, &["forensics", "recovery_steps"])?
        .as_u64()
        .ok_or_else(|| "forensics.recovery_steps is not a u64".to_string())?;
    if steps == 0 {
        return Err("forensics.recovery_steps is zero".into());
    }
    Ok(())
}

/// Runs all four stages, writes `out_path` (JSON) and the sibling
/// `.prom` file, and re-validates the emitted JSON against the schema.
/// `assert_overhead_pct` turns the overhead number into a hard gate
/// (non-zero exit) for CI.
pub fn obs_report(scale: &Scale, out_path: &str, assert_overhead_pct: Option<f64>) {
    println!("\n## obs-report — unified observability snapshot\n");
    let (snapshot, prom, phases) = snapshot_stage(scale);
    let forensics = forensics_stage(scale);
    let overhead = overhead_stage(scale);

    let mut doc = Json::obj();
    doc.set("bench", Json::Str("pr4-obs-report".into()));
    let mut sc = Json::obj();
    sc.set("warm_n", Json::U64(scale.warm_n));
    sc.set("write_latency_ns", Json::U64(scale.write_latency_ns));
    sc.set("seed", Json::U64(scale.seed));
    sc.set("duration_ms", Json::U64(scale.duration.as_millis() as u64));
    sc.set("shards", Json::U64(SNAPSHOT_SHARDS as u64));
    doc.set("scale", sc);
    doc.set("snapshot", snapshot);
    doc.set("phases", phases);
    doc.set("overhead", overhead);
    doc.set("forensics", forensics);

    let text = doc.render_pretty(2);
    let parsed = obs::parse(&text).expect("emitted report must parse back");
    validate_report(&parsed).expect("emitted report must match its schema");
    std::fs::write(out_path, &text).expect("write obs report json");
    let prom_path = match out_path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.prom"),
        None => format!("{out_path}.prom"),
    };
    std::fs::write(&prom_path, &prom).expect("write obs report prom");
    println!("\nwrote {out_path} and {prom_path}");

    if let Some(limit) = assert_overhead_pct {
        let measured = parsed
            .get("overhead")
            .and_then(|o| o.get("overhead_pct"))
            .and_then(|v| v.as_f64())
            .expect("validated report has overhead_pct");
        if measured > limit {
            eprintln!("FAIL: instrumentation overhead {measured:.2}% exceeds the {limit}% budget");
            std::process::exit(1);
        }
        println!("overhead gate: {measured:.2}% ≤ {limit}% ✓");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn obs_report_smoke_emits_and_validates() {
        let scale = Scale {
            warm_n: 4_000,
            duration: Duration::from_millis(20),
            threads: vec![1, 2],
            write_latency_ns: 0,
            ..Scale::quick()
        };
        let path = std::env::temp_dir().join("obs_report_smoke.json");
        let path = path.to_str().unwrap();
        // No overhead gate in the smoke test: 20 ms windows are noise.
        obs_report(&scale, path, None);
        let body = std::fs::read_to_string(path).unwrap();
        let doc = obs::parse(&body).unwrap();
        validate_report(&doc).unwrap();
        let prom_path = path.replace(".json", ".prom");
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        assert!(prom.contains("rn_shard0_pmem_persists{source=\"sharded\"}"));
        assert!(prom.contains("rn_ops_ns{source=\"index\",item=\"update\",quantile=\"0.5\"}"));
        std::fs::remove_file(path).ok();
        std::fs::remove_file(&prom_path).ok();
    }

    #[test]
    fn validate_report_rejects_missing_sections() {
        let mut doc = Json::obj();
        doc.set("bench", Json::Str("pr4-obs-report".into()));
        let err = validate_report(&doc).unwrap_err();
        assert!(err.contains("missing key"), "{err}");
    }
}
