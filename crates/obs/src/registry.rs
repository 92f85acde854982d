//! The unified snapshot/export API: components implement [`ObsSource`],
//! an [`ObsRegistry`] aggregates them under stable labels, and one
//! [`ObsRegistry::snapshot`] call yields a typed [`ObsSnapshot`] that
//! renders to both JSON and Prometheus text exposition.

use std::sync::Arc;

use crate::events::Event;
use crate::heat::HeatEntry;
use crate::hist::{Histogram, Quantiles};
use crate::json::{Json, ToJson};

/// One named block of metrics from a source.
pub enum Section {
    /// Monotonic counters, `(name, value)`.
    Counters(Vec<(String, u64)>),
    /// Point-in-time values, `(name, value)`.
    Gauges(Vec<(String, f64)>),
    /// Latency distributions, `(name, histogram)` — exported as the
    /// fixed quantile set.
    Latencies(Vec<(String, Histogram)>),
    /// An event-ring dump.
    Events(Vec<Event>),
    /// A heat-sketch top-K table, hottest first: `(key, count, err)`
    /// per entry, key meaning per section (leaf offset, cache set, …).
    Heat(Vec<HeatEntry>),
}

impl ToJson for Quantiles {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("count", Json::U64(self.count));
        o.set("mean_ns", Json::F64(self.mean));
        o.set("min_ns", Json::U64(self.min));
        o.set("max_ns", Json::U64(self.max));
        o.set("p50_ns", Json::U64(self.p50));
        o.set("p90_ns", Json::U64(self.p90));
        o.set("p99_ns", Json::U64(self.p99));
        o.set("p999_ns", Json::U64(self.p999));
        o
    }
}

impl ToJson for Section {
    fn to_json(&self) -> Json {
        match self {
            Section::Counters(items) => {
                let mut o = Json::obj();
                for (name, v) in items {
                    o.set(name, Json::U64(*v));
                }
                o
            }
            Section::Gauges(items) => {
                let mut o = Json::obj();
                for (name, v) in items {
                    o.set(name, Json::F64(*v));
                }
                o
            }
            Section::Latencies(items) => {
                let mut o = Json::obj();
                for (name, h) in items {
                    o.set(name, h.quantiles().to_json());
                }
                o
            }
            Section::Events(events) => events.to_json(),
            Section::Heat(entries) => entries.to_json(),
        }
    }
}

/// A component that can report its metrics. Implementations must be
/// cheap and side-effect-free: a snapshot is a read, not a reset.
pub trait ObsSource {
    /// The component's metric sections, `(section name, data)`.
    /// Section names are short stable identifiers (`"pmem"`, `"htm"`,
    /// `"ops"`, `"phases"`, `"events"`, `"tree"`).
    fn obs_sections(&self) -> Vec<(String, Section)>;
}

/// Aggregates [`ObsSource`]s under stable source labels.
#[derive(Default)]
pub struct ObsRegistry {
    sources: Vec<(String, Arc<dyn ObsSource + Send + Sync>)>,
}

impl ObsRegistry {
    /// Empty registry.
    pub fn new() -> ObsRegistry {
        ObsRegistry::default()
    }

    /// Registers `source` under `label` (e.g. `"rntree"`, `"shard3"`).
    pub fn register(&mut self, label: &str, source: Arc<dyn ObsSource + Send + Sync>) {
        self.sources.push((label.to_string(), source));
    }

    /// Collects every registered source into one typed snapshot.
    pub fn snapshot(&self) -> ObsSnapshot {
        let mut groups = Vec::new();
        for (label, source) in &self.sources {
            for (section, data) in source.obs_sections() {
                groups.push(ObsGroup { source: label.clone(), section, data });
            }
        }
        ObsSnapshot { groups }
    }
}

/// One source's section inside a snapshot.
pub struct ObsGroup {
    /// Registry label of the source (`"shard0"`, …).
    pub source: String,
    /// Section name within the source (`"pmem"`, `"ops"`, …).
    pub section: String,
    /// The metrics.
    pub data: Section,
}

/// Everything the registry saw, renderable as JSON or Prometheus text.
pub struct ObsSnapshot {
    /// All sections, in registration order.
    pub groups: Vec<ObsGroup>,
}

impl ToJson for ObsSnapshot {
    /// `{"sources": {label: {section: {...}}}}` — sections grouped per
    /// source, in registration order.
    fn to_json(&self) -> Json {
        let mut per_source: Vec<(String, Json)> = Vec::new();
        for g in &self.groups {
            let pos = match per_source.iter().position(|(k, _)| k == &g.source) {
                Some(p) => p,
                None => {
                    per_source.push((g.source.clone(), Json::obj()));
                    per_source.len() - 1
                }
            };
            per_source[pos].1.set(&g.section, g.data.to_json());
        }
        let mut o = Json::obj();
        o.set("sources", Json::Obj(per_source));
        o
    }
}

/// Keeps `[a-zA-Z0-9_]`, maps everything else to `_` — Prometheus
/// metric-name charset (we never emit leading digits: all names are
/// prefixed).
fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect()
}

impl ObsSnapshot {
    /// Renders the snapshot as Prometheus text exposition. Counters and
    /// gauges become `rn_<section>_<name>{source="..."}`; latency
    /// sections become summary-style
    /// `rn_<section>_ns{source,item,quantile}` plus `_count` and
    /// `_sum`; event sections export only their length as
    /// `rn_<section>_total`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for g in &self.groups {
            let src = &g.source;
            let sec = sanitize(&g.section);
            match &g.data {
                Section::Counters(items) => {
                    for (name, v) in items {
                        let name = sanitize(name);
                        out.push_str(&format!("rn_{sec}_{name}{{source=\"{src}\"}} {v}\n"));
                    }
                }
                Section::Gauges(items) => {
                    for (name, v) in items {
                        let name = sanitize(name);
                        out.push_str(&format!("rn_{sec}_{name}{{source=\"{src}\"}} {v}\n"));
                    }
                }
                Section::Latencies(items) => {
                    for (name, h) in items {
                        let item = sanitize(name);
                        let q = h.quantiles();
                        for (label, v) in [
                            ("0.5", q.p50),
                            ("0.9", q.p90),
                            ("0.99", q.p99),
                            ("0.999", q.p999),
                        ] {
                            out.push_str(&format!(
                                "rn_{sec}_ns{{source=\"{src}\",item=\"{item}\",quantile=\"{label}\"}} {v}\n"
                            ));
                        }
                        out.push_str(&format!(
                            "rn_{sec}_ns_count{{source=\"{src}\",item=\"{item}\"}} {}\n",
                            q.count
                        ));
                        out.push_str(&format!(
                            "rn_{sec}_ns_sum{{source=\"{src}\",item=\"{item}\"}} {}\n",
                            h.sum()
                        ));
                    }
                }
                Section::Events(events) => {
                    out.push_str(&format!(
                        "rn_{sec}_total{{source=\"{src}\"}} {}\n",
                        events.len()
                    ));
                }
                Section::Heat(entries) => {
                    for (rank, e) in entries.iter().enumerate() {
                        out.push_str(&format!(
                            "rn_{sec}_count{{source=\"{src}\",rank=\"{rank}\",key=\"{}\"}} {}\n",
                            e.key, e.count
                        ));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;

    struct Fake;

    impl ObsSource for Fake {
        fn obs_sections(&self) -> Vec<(String, Section)> {
            let mut h = Histogram::new();
            for v in 1..=100u64 {
                h.record(v);
            }
            vec![
                ("pmem".into(), Section::Counters(vec![("persists".into(), 42)])),
                ("ops".into(), Section::Latencies(vec![("insert".into(), h)])),
                (
                    "events".into(),
                    Section::Events(vec![Event { seq: 0, kind: EventKind::Split, a: 1, b: 2 }]),
                ),
                (
                    "heat.leaf_conflicts".into(),
                    Section::Heat(vec![
                        HeatEntry { key: 4096, count: 17, err: 2 },
                        HeatEntry { key: 8192, count: 5, err: 0 },
                    ]),
                ),
            ]
        }
    }

    #[test]
    fn snapshot_renders_json_and_prometheus() {
        let mut reg = ObsRegistry::new();
        reg.register("shard0", Arc::new(Fake));
        reg.register("shard1", Arc::new(Fake));
        let snap = reg.snapshot();

        let json = snap.to_json();
        let text = json.render_pretty(2);
        let back = crate::json::parse(&text).unwrap();
        let persists = back
            .get("sources")
            .and_then(|s| s.get("shard0"))
            .and_then(|s| s.get("pmem"))
            .and_then(|s| s.get("persists"))
            .and_then(|v| v.as_u64());
        assert_eq!(persists, Some(42));
        let p50 = back
            .get("sources")
            .and_then(|s| s.get("shard1"))
            .and_then(|s| s.get("ops"))
            .and_then(|s| s.get("insert"))
            .and_then(|s| s.get("p50_ns"))
            .and_then(|v| v.as_u64());
        assert!(p50.is_some());

        let prom = snap.to_prometheus();
        assert!(prom.contains("rn_pmem_persists{source=\"shard0\"} 42"));
        assert!(prom.contains("rn_ops_ns{source=\"shard1\",item=\"insert\",quantile=\"0.5\"}"));
        assert!(prom.contains("rn_events_total{source=\"shard0\"} 1"));
        assert!(prom
            .contains("rn_heat_leaf_conflicts_count{source=\"shard0\",rank=\"0\",key=\"4096\"} 17"));

        let heat = back
            .get("sources")
            .and_then(|s| s.get("shard0"))
            .and_then(|s| s.get("heat.leaf_conflicts"))
            .and_then(|v| v.as_arr())
            .expect("heat section renders as an array");
        assert_eq!(heat.len(), 2);
        assert_eq!(heat[0].get("key").and_then(|v| v.as_u64()), Some(4096));
        assert_eq!(heat[0].get("count").and_then(|v| v.as_u64()), Some(17));
    }
}
