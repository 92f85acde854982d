//! The per-op counter digest + time-resolved metrics, end to end (PR 9).
//!
//! Exercises the whole path the bench relies on: counter deltas over an
//! `Instrumented` `RnTree` loop, divided per op, reflect what the ops
//! actually did (persists, HTM attempts, cached descent); a `Timeline`
//! fed from the live histograms produces windowed percentile series;
//! and the tree's obs sections export the heat tables and event-ring
//! overflow counters through both registry formats.

use std::sync::Arc;

use bench::tracebench::{digest, CellCounters};
use index_common::{Instrumented, PersistentIndex};
use nvm::{PmemConfig, PmemPool};
use obs::{ObsRegistry, ObsSource, OpType, Phase, Timeline, ToJson};
use rntree::{RnConfig, RnTree};

fn tree_on(mb: usize) -> Arc<RnTree> {
    let mut cfg = PmemConfig::fast(0);
    cfg.size = mb << 20;
    let pool = Arc::new(PmemPool::new(cfg));
    Arc::new(RnTree::create(pool, RnConfig::default()))
}

#[test]
fn spans_capture_op_structure() {
    let tree = tree_on(64);
    let (instr, hists) = Instrumented::with_histograms(Arc::clone(&tree));
    tree.phase_timers().set_sample_shift(0); // clock every write
    tree.phase_timers().set_enabled(true);

    let before = CellCounters::capture(&tree, &hists);
    for k in 1..=500u64 {
        instr.insert(k, k).unwrap();
        assert_eq!(instr.find(k), Some(k));
    }
    let d = digest(&before, &CellCounters::capture(&tree, &hists), 1_000);

    assert_eq!(d.ops, 1_000);
    // Every insert persists its KV entry and its slot line: two
    // persists per insert, half the ops.
    assert!(d.mean_persists >= 1.0, "inserts must count persists: {d:?}");
    // Optimistic transactions show up as attempts.
    assert!(d.mean_attempts > 0.0, "inserts must count HTM attempts: {d:?}");
    // The cached descent shows cache traffic, and finds right after
    // their insert hit the frames the insert's descent filled.
    assert!(d.mean_depth > 0.0, "the cached descent must show cache traffic: {d:?}");
    assert!(d.cache_hit_rate > 0.0, "{d:?}");
    // Ops carry a wall-clock duration, and clocked writes a leaf
    // critical section inside it.
    assert!(d.mean_total_ns > 0.0, "{d:?}");
    assert!(d.phase_mean_ns[Phase::LeafCs as usize] > 0.0, "{d:?}");
    // The digest renders to JSON with the abort taxonomy present.
    let j = d.to_json().render();
    for key in ["\"ops\"", "\"mean_total_ns\"", "\"aborts_by_cause\"", "\"fallbacks\"", "\"mean_persists\""] {
        assert!(j.contains(key), "digest JSON missing {key}: {j}");
    }
}

#[test]
fn timeline_builds_percentile_series_from_live_histograms() {
    let tree = tree_on(32);
    let (instr, hists) = Instrumented::with_histograms(Arc::clone(&tree));
    let timeline = Timeline::new(8);

    let merged = |hists: &obs::OpHistograms| {
        let mut m = obs::Histogram::new();
        for op in OpType::ALL {
            m.merge(&hists.snapshot(op));
        }
        m
    };

    let mut key = 0u64;
    for window in 0..3u64 {
        for _ in 0..300 {
            key += 1;
            instr.insert(key, key).unwrap();
        }
        let h = merged(&hists);
        let n = h.count();
        timeline.tick((window + 1) * 10, &h, n);
    }

    let windows = timeline.windows();
    assert_eq!(windows.len(), 3);
    assert_eq!(windows[0].t_ms, 10);
    assert_eq!(windows[2].t_ms, 30);
    let total: u64 = windows.iter().map(|w| w.samples).sum();
    assert_eq!(total, merged(&hists).count(), "window deltas must partition the cumulative");
    for w in &windows {
        assert!(w.samples > 0, "every window saw inserts");
        assert!(w.p50_ns > 0 && w.p99_ns >= w.p50_ns);
    }
    // Capacity 8: five more ticks overflow and report it.
    for t in 3..11u64 {
        let h = merged(&hists);
        let n = h.count();
        timeline.tick((t + 1) * 10, &h, n);
    }
    assert_eq!(timeline.windows().len(), 8);
    assert_eq!(timeline.dropped(), 3);
}

#[test]
fn obs_sections_export_heat_and_event_overflow() {
    let tree = tree_on(64);
    for k in 1..=20_000u64 {
        tree.insert(k, k).unwrap();
    }

    let sections = tree.obs_sections();
    let names: Vec<&str> = sections.iter().map(|(n, _)| n.as_str()).collect();
    for want in [
        "heat.leaf_conflicts",
        "heat.leaf_splits",
        "heat.leaf_morphs",
        "heat_meta",
        "events_meta",
    ] {
        assert!(names.contains(&want), "missing section {want}; have {names:?}");
    }

    let mut reg = ObsRegistry::new();
    reg.register("tree", Arc::clone(&tree) as Arc<dyn ObsSource + Send + Sync>);
    let snap = reg.snapshot();

    let json = snap.to_json();
    let splits = json
        .get("sources")
        .and_then(|s| s.get("tree"))
        .and_then(|t| t.get("heat.leaf_splits"))
        .and_then(|h| h.as_arr())
        .expect("heat.leaf_splits renders as an array");
    assert!(!splits.is_empty(), "20k inserts split leaves; the heat table must show them");
    for entry in splits {
        for key in ["key", "count", "err"] {
            assert!(entry.get(key).is_some(), "heat entry missing {key}");
        }
    }
    let meta = json
        .get("sources")
        .and_then(|s| s.get("tree"))
        .and_then(|t| t.get("events_meta"))
        .expect("events_meta section present");
    assert!(meta.get("events_recorded").and_then(|v| v.as_u64()).unwrap() > 0);
    meta.get("events_dropped").and_then(|v| v.as_u64()).expect("events_dropped exported");

    let prom = snap.to_prometheus();
    assert!(
        prom.contains("rn_heat_leaf_splits_count{source=\"tree\",rank=\"0\""),
        "prometheus must carry ranked heat series"
    );
    assert!(prom.contains("rn_events_meta_events_dropped{source=\"tree\"}"));
}

#[test]
fn class_histograms_roll_up_the_op_mix() {
    let tree = tree_on(32);
    let (instr, hists) = Instrumented::with_histograms(Arc::clone(&tree));
    hists.set_sample_shift(0); // exact counts, no 1-in-8 sampling
    for k in 1..=50u64 {
        instr.insert(k, k).unwrap();
    }
    for k in 1..=30u64 {
        instr.update(k, k + 1).unwrap();
    }
    for k in 1..=20u64 {
        instr.find(k);
    }
    assert_eq!(hists.snapshot_class(obs::OpClass::Insert).count(), 50);
    assert_eq!(hists.snapshot_class(obs::OpClass::Update).count(), 30);
    assert_eq!(hists.snapshot_class(obs::OpClass::Read).count(), 20);
    assert_eq!(hists.snapshot_class(obs::OpClass::Scan).count(), 0);
}
