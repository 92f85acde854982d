//! HTM execution counters: commits, aborts by cause, fallback acquisitions.
//!
//! The paper attributes FPTree's poor skewed-workload scalability to
//! find-transactions aborting against leaf locks; these counters make the
//! abort economics of every workload directly observable (`repro fig8`
//! prints them alongside throughput).
//!
//! Every section bumps `attempts` and `commits`, so the counters are
//! striped [`obs::Counter`]s: concurrent sections add to their own
//! thread's stripe and never write a shared cache line for bookkeeping.
//! The counts stay exact; [`HtmStats::snapshot`] sums the stripes.

use obs::{AtomicHistogram, Counter, Histogram, Json, ToJson};

/// Live counters of the sections run by [`crate::atomic`] and
/// [`crate::snapshot`]; each tree owns one.
#[derive(Debug, Default)]
pub struct HtmStats {
    /// Optimistic transaction attempts started (a [`crate::snapshot`]
    /// try counts as one).
    pub attempts: Counter,
    /// Optimistic commits (a successful snapshot counts as one).
    pub commits: Counter,
    /// Aborts due to data conflicts.
    pub aborts_conflict: Counter,
    /// Aborts due to footprint capacity.
    pub aborts_capacity: Counter,
    /// Program-requested (`XABORT`) aborts.
    pub aborts_explicit: Counter,
    /// Aborts caused by flush-in-transaction.
    pub aborts_flush: Counter,
    /// Times the fallback lock was taken.
    pub fallbacks: Counter,
    /// Aborts suffered before each successful `atomic` section (0 =
    /// clean first try; fallback completions count the aborts that drove
    /// them there). Snapshots record nothing here.
    /// Kept out of [`HtmStatsSnapshot`] so that stays `Copy`; read it via
    /// [`HtmStats::retries_to_commit`].
    pub retries: AtomicHistogram,
}

impl HtmStats {
    /// Point-in-time copy of the counters.
    pub fn snapshot(&self) -> HtmStatsSnapshot {
        HtmStatsSnapshot {
            attempts: self.attempts.get(),
            commits: self.commits.get(),
            aborts_conflict: self.aborts_conflict.get(),
            aborts_capacity: self.aborts_capacity.get(),
            aborts_explicit: self.aborts_explicit.get(),
            aborts_flush: self.aborts_flush.get(),
            fallbacks: self.fallbacks.get(),
        }
    }

    /// Snapshot of the retries-to-commit distribution (aborts suffered
    /// before each successful section).
    pub fn retries_to_commit(&self) -> Histogram {
        self.retries.snapshot()
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.attempts.reset();
        self.commits.reset();
        self.aborts_conflict.reset();
        self.aborts_capacity.reset();
        self.aborts_explicit.reset();
        self.aborts_flush.reset();
        self.fallbacks.reset();
        self.retries.reset();
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
    /// Fallback acquisitions.
    pub fallbacks: u64,
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
        live.commits.add(4);
        live.fallbacks.add(2);
        let a = live.snapshot();
        live.commits.add(3);
        live.aborts_conflict.add(5);
        let d = live.snapshot().since(&a);
        assert_eq!(d.commits, 3);
        assert_eq!(d.fallbacks, 0);
        assert_eq!(d.aborts_conflict, 5);
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
        // The abort taxonomy in export order, ending in the fallback count.
        assert_eq!(
            names,
            [
                "attempts",
                "commits",
                "aborts_conflict",
                "aborts_capacity",
                "aborts_explicit",
                "aborts_flush",
                "fallbacks",
            ]
        );
    }
}
