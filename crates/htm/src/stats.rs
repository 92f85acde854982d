//! HTM execution counters: commits, aborts by cause, fallback acquisitions.
//!
//! The paper attributes FPTree's poor skewed-workload scalability to
//! find-transactions aborting against leaf locks; these counters make the
//! abort economics of every workload directly observable (`repro fig8`
//! prints them alongside throughput). Since the two-tier fallback, the
//! fallback-path counters split by tier: `fallbacks_striped` (fine-grained
//! stripe-set acquisitions), `fallbacks_global` (whole-domain escalations),
//! `stripe_escapes` (striped runs whose footprint prediction missed and
//! escalated), and `stripe_conflicts` (contended stripe acquisitions —
//! two fallbacks colliding on a stripe). `fallbacks` stays the total.

use std::sync::atomic::{AtomicU64, Ordering};

use obs::{AtomicHistogram, HeatSketch, Histogram, Json, ToJson};

/// Live counters attached to an [`crate::HtmDomain`].
#[derive(Debug, Default)]
pub struct HtmStats {
    /// Optimistic transaction attempts started.
    pub attempts: AtomicU64,
    /// Optimistic commits.
    pub commits: AtomicU64,
    /// Aborts due to data conflicts.
    pub aborts_conflict: AtomicU64,
    /// Aborts due to footprint capacity.
    pub aborts_capacity: AtomicU64,
    /// Program-requested (`XABORT`) aborts.
    pub aborts_explicit: AtomicU64,
    /// Aborts caused by flush-in-transaction.
    pub aborts_flush: AtomicU64,
    /// Times any fallback tier was taken (striped + global).
    pub fallbacks: AtomicU64,
    /// Tier-1 fallbacks: runs under a fine-grained stripe set.
    pub fallbacks_striped: AtomicU64,
    /// Tier-2 fallbacks: runs under the global lock (+ all stripes).
    pub fallbacks_global: AtomicU64,
    /// Striped runs that touched a line outside their predicted stripes
    /// and escalated to the global tier (nothing published).
    pub stripe_escapes: AtomicU64,
    /// Contended stripe acquisitions: a fallback found a stripe it needed
    /// already held by another fallback.
    pub stripe_conflicts: AtomicU64,
    /// Aborts suffered before each successful section (0 = clean first
    /// try; fallback completions count the aborts that drove them there).
    /// Kept out of [`HtmStatsSnapshot`] so that stays `Copy`; read it via
    /// [`HtmStats::retries_to_commit`].
    pub retries: AtomicHistogram,
    /// Adaptive-policy state: the *effective* per-thread retry budget in
    /// force at each conflict abort (the streak-shrunk `max_retries`).
    /// A mass at low values means sustained contention has collapsed the
    /// optimistic budget. Read via [`HtmStats::retry_budget`].
    pub retry_budget: AtomicHistogram,
    /// Structural heat: which fallback *stripes* serialize. Keyed by
    /// stripe index, weighted one per stripe held by a tier-1 (striped)
    /// fallback run — hot stripes are where optimism dies. Fed only on
    /// the (already slow) fallback path, never inside a transaction.
    pub stripe_heat: HeatSketch,
}

impl HtmStats {
    /// Point-in-time copy of the counters.
    pub fn snapshot(&self) -> HtmStatsSnapshot {
        HtmStatsSnapshot {
            attempts: self.attempts.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            aborts_conflict: self.aborts_conflict.load(Ordering::Relaxed),
            aborts_capacity: self.aborts_capacity.load(Ordering::Relaxed),
            aborts_explicit: self.aborts_explicit.load(Ordering::Relaxed),
            aborts_flush: self.aborts_flush.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            fallbacks_striped: self.fallbacks_striped.load(Ordering::Relaxed),
            fallbacks_global: self.fallbacks_global.load(Ordering::Relaxed),
            stripe_escapes: self.stripe_escapes.load(Ordering::Relaxed),
            stripe_conflicts: self.stripe_conflicts.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the retries-to-commit distribution (aborts suffered
    /// before each successful section).
    pub fn retries_to_commit(&self) -> Histogram {
        self.retries.snapshot()
    }

    /// Snapshot of the effective-retry-budget distribution (adaptive
    /// policy state observed at each conflict abort).
    pub fn retry_budget(&self) -> Histogram {
        self.retry_budget.snapshot()
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.attempts.store(0, Ordering::Relaxed);
        self.commits.store(0, Ordering::Relaxed);
        self.aborts_conflict.store(0, Ordering::Relaxed);
        self.aborts_capacity.store(0, Ordering::Relaxed);
        self.aborts_explicit.store(0, Ordering::Relaxed);
        self.aborts_flush.store(0, Ordering::Relaxed);
        self.fallbacks.store(0, Ordering::Relaxed);
        self.fallbacks_striped.store(0, Ordering::Relaxed);
        self.fallbacks_global.store(0, Ordering::Relaxed);
        self.stripe_escapes.store(0, Ordering::Relaxed);
        self.stripe_conflicts.store(0, Ordering::Relaxed);
        self.retries.reset();
        self.retry_budget.reset();
        self.stripe_heat.reset();
    }
}

/// Plain-data snapshot of [`HtmStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HtmStatsSnapshot {
    /// Optimistic attempts.
    pub attempts: u64,
    /// Optimistic commits.
    pub commits: u64,
    /// Conflict aborts.
    pub aborts_conflict: u64,
    /// Capacity aborts.
    pub aborts_capacity: u64,
    /// Explicit aborts.
    pub aborts_explicit: u64,
    /// Flush-in-txn aborts.
    pub aborts_flush: u64,
    /// Fallback acquisitions (either tier).
    pub fallbacks: u64,
    /// Tier-1 (striped) fallback runs.
    pub fallbacks_striped: u64,
    /// Tier-2 (global) fallback runs.
    pub fallbacks_global: u64,
    /// Striped runs escalated on a footprint miss.
    pub stripe_escapes: u64,
    /// Contended stripe acquisitions.
    pub stripe_conflicts: u64,
}

impl HtmStatsSnapshot {
    /// Total aborts across all causes.
    pub fn total_aborts(&self) -> u64 {
        self.aborts_conflict + self.aborts_capacity + self.aborts_explicit + self.aborts_flush
    }

    /// Abort ratio: aborts / attempts (0.0 when idle).
    pub fn abort_ratio(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.total_aborts() as f64 / self.attempts as f64
        }
    }

    /// Fallback rate: fallback acquisitions per committed section
    /// (optimistic commits + fallback completions; 0.0 when idle).
    pub fn fallback_rate(&self) -> f64 {
        let sections = self.commits + self.fallbacks;
        if sections == 0 {
            0.0
        } else {
            self.fallbacks as f64 / sections as f64
        }
    }

    /// Counter deltas `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &HtmStatsSnapshot) -> HtmStatsSnapshot {
        HtmStatsSnapshot {
            attempts: self.attempts.saturating_sub(earlier.attempts),
            commits: self.commits.saturating_sub(earlier.commits),
            aborts_conflict: self.aborts_conflict.saturating_sub(earlier.aborts_conflict),
            aborts_capacity: self.aborts_capacity.saturating_sub(earlier.aborts_capacity),
            aborts_explicit: self.aborts_explicit.saturating_sub(earlier.aborts_explicit),
            aborts_flush: self.aborts_flush.saturating_sub(earlier.aborts_flush),
            fallbacks: self.fallbacks.saturating_sub(earlier.fallbacks),
            fallbacks_striped: self.fallbacks_striped.saturating_sub(earlier.fallbacks_striped),
            fallbacks_global: self.fallbacks_global.saturating_sub(earlier.fallbacks_global),
            stripe_escapes: self.stripe_escapes.saturating_sub(earlier.stripe_escapes),
            stripe_conflicts: self.stripe_conflicts.saturating_sub(earlier.stripe_conflicts),
        }
    }
}

impl HtmStatsSnapshot {
    /// The abort taxonomy as `(name, value)` pairs, in export order —
    /// the payload of an `obs::Section::Counters`.
    pub fn counters(&self) -> Vec<(String, u64)> {
        vec![
            ("attempts".into(), self.attempts),
            ("commits".into(), self.commits),
            ("aborts_conflict".into(), self.aborts_conflict),
            ("aborts_capacity".into(), self.aborts_capacity),
            ("aborts_explicit".into(), self.aborts_explicit),
            ("aborts_flush".into(), self.aborts_flush),
            ("fallbacks".into(), self.fallbacks),
            ("fallbacks_striped".into(), self.fallbacks_striped),
            ("fallbacks_global".into(), self.fallbacks_global),
            ("stripe_escapes".into(), self.stripe_escapes),
            ("stripe_conflicts".into(), self.stripe_conflicts),
        ]
    }
}

impl ToJson for HtmStatsSnapshot {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        for (name, v) in self.counters() {
            o.set(&name, Json::U64(v));
        }
        o.set("abort_ratio", Json::F64(self.abort_ratio()));
        o.set("fallback_rate", Json::F64(self.fallback_rate()));
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_and_totals() {
        let s = HtmStatsSnapshot {
            attempts: 10,
            commits: 8,
            aborts_conflict: 1,
            aborts_capacity: 1,
            ..Default::default()
        };
        assert_eq!(s.total_aborts(), 2);
        assert!((s.abort_ratio() - 0.2).abs() < 1e-12);
        assert_eq!(HtmStatsSnapshot::default().abort_ratio(), 0.0);
        assert_eq!(HtmStatsSnapshot::default().fallback_rate(), 0.0);
        let f = HtmStatsSnapshot {
            commits: 9,
            fallbacks: 1,
            ..Default::default()
        };
        assert!((f.fallback_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn reset_and_since() {
        let live = HtmStats::default();
        live.commits.fetch_add(4, Ordering::Relaxed);
        live.fallbacks_striped.fetch_add(2, Ordering::Relaxed);
        live.stripe_conflicts.fetch_add(1, Ordering::Relaxed);
        let a = live.snapshot();
        live.commits.fetch_add(3, Ordering::Relaxed);
        live.stripe_escapes.fetch_add(5, Ordering::Relaxed);
        let d = live.snapshot().since(&a);
        assert_eq!(d.commits, 3);
        assert_eq!(d.fallbacks_striped, 0);
        assert_eq!(d.stripe_escapes, 5);
        live.reset();
        assert_eq!(live.snapshot(), HtmStatsSnapshot::default());
    }

    #[test]
    fn counters_include_fallback_tiers() {
        let names: Vec<String> = HtmStatsSnapshot::default()
            .counters()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        for want in [
            "fallbacks",
            "fallbacks_striped",
            "fallbacks_global",
            "stripe_escapes",
            "stripe_conflicts",
        ] {
            assert!(names.iter().any(|n| n == want), "missing {want}");
        }
    }
}
