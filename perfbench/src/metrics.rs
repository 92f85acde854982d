//! The metric catalogue and the statistics the run reports with.
//!
//! The catalogue is the single list of metric names and units: the run
//! emits exactly these, in this order, and the tests check that
//! `BENCHMARK.json` declares the same list.

use crate::workload::OpClass;

/// Every end-to-end metric, as `(name, unit)`. Reported by untraced runs.
///
/// `read_*` is the workload's non-mutating class: point lookups on
/// ycsb-a-zipf and ycsb-c-uniform, scans on ycsb-e-scan. Write-class
/// latencies are not end-to-end metrics because ycsb-c-uniform issues no
/// writes and every end-to-end metric must be present (and non-zero) on
/// every workload; the traced run reports them as `span.us_p50.<class>`
/// and `span.us_p99.<class>`. Recovery time is per-layer
/// (`recovery.recover_s`) for the same reason it has no bound: on the
/// reference host its run-to-run spread exceeded the largest bound
/// allowed.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    [
        ("throughput_kops", "kop/s"),
        ("read_p50_us", "us"),
        ("read_p99_us", "us"),
        ("setup_s", "s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect()
}

/// Every per-layer metric, as `(name, unit)`. Reported by traced runs;
/// a metric of an op class the workload does not issue reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: &str, u: &'static str| m.push((n.to_string(), u));
    // combine
    add("combine.self_us_p50", "us");
    add("combine.self_us_p99", "us");
    add("combine.wait_p50_us", "us");
    add("combine.wait_p99_us", "us");
    add("combine.coalesced_share", "ratio");
    add("combine.solo_share", "ratio");
    add("combine.ops_per_epoch", "op/epoch");
    add("combine.epochs_per_kop", "1/kop");
    add("combine.reclaimed_per_mop", "1/Mop");
    // sharded
    for c in OpClass::ALL {
        add(&format!("sharded.self_ns_p50.{}", c.name()), "ns");
    }
    // inner index + page cache
    add("cache.hits_per_op", "1/op");
    add("cache.misses_per_op", "1/op");
    add("cache.evictions_per_op", "1/op");
    add("cache.invalidations_per_kop", "1/kop");
    add("descent.restarts_per_kop", "1/kop");
    add("rntree.descent_ns_p50", "ns");
    // htm
    add("htm.attempts_per_op", "1/op");
    add("htm.conflict_aborts_per_kop", "1/kop");
    add("htm.capacity_aborts_per_kop", "1/kop");
    add("htm.fallbacks_per_kop", "1/kop");
    // rntree
    for c in OpClass::ALL {
        add(&format!("rntree.op_us_p50.{}", c.name()), "us");
    }
    add("rntree.leaf_cs_ns_p50", "ns");
    add("rntree.log_flush_ns_p50", "ns");
    add("rntree.slot_persist_ns_p50", "ns");
    add("rntree.splits_per_kop", "1/kop");
    add("rntree.compactions_per_kop", "1/kop");
    add("rntree.retries_per_kop", "1/kop");
    // nvm
    add("nvm.persists_per_op", "1/op");
    add("nvm.lines_per_op", "1/op");
    add("nvm.persist_stall_ns", "ns");
    // recovery
    add("recovery.recover_s", "s");
    add("recovery.shard_max_s", "s");
    // the client's outer span per class, and the trace's own health
    for c in OpClass::ALL {
        add(&format!("span.us_p50.{}", c.name()), "us");
        add(&format!("span.us_p99.{}", c.name()), "us");
    }
    add("trace.overhead_pct", "%");
    add("trace.unattributed_pct", "%");
    m
}

/// Exact nearest-rank percentile `q` of `v` (sorted in place); 0 when
/// empty.
pub fn percentile(v: &mut [u32], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    f64::from(v[rank - 1])
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q` of `v`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[((q * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1]
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.75), 3.0);
        assert_eq!(quantile(&[], 0.75), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|(n, _)| n)
            .collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
