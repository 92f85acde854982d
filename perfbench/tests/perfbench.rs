//! The benchmark's own tests, on seconds-long variants of the standing
//! workloads (`Spec::small`): same stack, mix and clients, small key
//! spaces.

use perfbench::metrics;
use perfbench::{run, Inputs, Outcome, Spec, Workload};

fn metric(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|(n, _, _)| n == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .1
}

fn small_run(w: Workload, seed: u64, trace: bool) -> Outcome {
    let o = run(&Spec::small(w), seed, 0.0, trace);
    assert!(
        o.correct,
        "{} seed {seed}: {} of {} failed",
        w.name(),
        o.failed,
        o.attempted
    );
    assert_eq!(o.failed, 0);
    assert!(o.attempted > 0);
    o
}

#[test]
fn a_seed_regenerates_identical_inputs() {
    for w in Workload::ALL {
        let spec = Spec::small(w);
        let stream = |seed: u64, deployment: u64| {
            let mut inputs = Inputs::new(&spec, seed, deployment);
            inputs.extend(1_000);
            inputs.extend(3_000);
            (inputs.load_pairs(), inputs.ops().to_vec())
        };
        assert_eq!(stream(11, 0), stream(11, 0), "{}", w.name());
        assert_eq!(stream(11, 2), stream(11, 2), "{}", w.name());
        assert_ne!(stream(11, 0).1, stream(12, 0).1, "{}", w.name());
        assert_ne!(stream(11, 0).1, stream(11, 1).1, "{}", w.name());
    }
}

#[test]
fn single_client_scan_runs_repeat_their_cost_counts() {
    let (a, b) = (
        small_run(Workload::YcsbEScan, 5, true),
        small_run(Workload::YcsbEScan, 5, true),
    );
    for name in ["nvm.persists_per_op", "rntree.splits_per_kop"] {
        assert_eq!(metric(&a, name), metric(&b, name), "{name}");
    }
    assert!(metric(&a, "nvm.persists_per_op") > 0.0, "inserts persist");
}

#[test]
fn uniform_reads_bypass_every_write_layer() {
    let o = small_run(Workload::YcsbCUniform, 3, true);
    assert_eq!(metric(&o, "nvm.persists_per_op"), 0.0);
    assert_eq!(metric(&o, "combine.epochs_per_kop"), 0.0);
    assert_eq!(metric(&o, "htm.conflict_aborts_per_kop"), 0.0);
    assert!(
        metric(&o, "cache.misses_per_op") > 0.0,
        "the inner index outgrows the page cache"
    );
}

#[test]
fn every_workload_runs_clean_and_reports_nonzero_end_to_end_metrics() {
    for w in Workload::ALL {
        let o = small_run(w, 2, false);
        for (name, value, _) in &o.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{} {name} = {value}",
                w.name()
            );
        }
    }
}

/// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
fn declared(doc: &obs::Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(obs::Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(obs::Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: Vec<(String, &'static str)>) -> Vec<(String, String)> {
    list.into_iter().map(|(n, u)| (n, u.to_string())).collect()
}

#[test]
fn every_named_metric_is_emitted_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc =
        obs::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark"))
            .expect("BENCHMARK.json parses");
    assert_eq!(declared(&doc, "end_to_end"), owned(metrics::end_to_end()));
    assert_eq!(declared(&doc, "per_layer"), owned(metrics::per_layer()));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(obs::Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(obs::Json::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));

    for (trace, catalogue) in [(false, metrics::end_to_end()), (true, metrics::per_layer())] {
        let o = small_run(Workload::YcsbAZipf, 1, trace);
        let emitted: Vec<(String, &'static str)> =
            o.metrics.iter().map(|(n, _, u)| (n.clone(), *u)).collect();
        assert_eq!(emitted, catalogue);
        let line = o.result_json().render();
        let back = obs::parse(&line).expect("the result line is JSON");
        let m = back.get("metrics").expect("metrics");
        for (name, unit) in &catalogue {
            let entry = m
                .get(name)
                .unwrap_or_else(|| panic!("{name} not in the result line"));
            assert_eq!(entry.get("unit").and_then(obs::Json::as_str), Some(*unit));
            assert!(entry
                .get("value")
                .and_then(obs::Json::as_f64)
                .is_some_and(f64::is_finite));
        }
    }
}
