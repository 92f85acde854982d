//! Persistence-instruction accounting.
//!
//! The paper's Table 1 characterises every tree by the number of *persistent
//! instructions* (a cache-line flush followed by a fence) each modify
//! operation issues, and its Figure 4 analysis attributes single-thread
//! throughput differences almost entirely to this count. These counters make
//! that number directly observable in benchmarks and enforceable in tests.
//!
//! Every persist and drain bumps these counters, so they are striped
//! [`obs::Counter`]s: concurrent writers each add to their own thread's
//! stripe instead of bouncing one shared cache line between CPUs. The
//! counts stay exact; [`PmemStats::snapshot`] sums the stripes.

use obs::{Counter, Json, ToJson};

/// Live (striped) persistence counters attached to a [`crate::PmemPool`].
#[derive(Debug, Default)]
pub struct PmemStats {
    /// Compound persistent instructions (`persist` calls = CLWB…CLWB+SFENCE).
    pub persists: Counter,
    /// Individual cache-line flushes (CLWBs) issued by those persists.
    pub lines_flushed: Counter,
    /// Memory fences issued (one per `persist` call).
    pub fences: Counter,
    /// Cache lines copied to the durable image by eviction injection.
    pub lines_evicted: Counter,
    /// Simulated crashes executed on this pool.
    pub crashes: Counter,
}

impl PmemStats {
    /// Takes a point-in-time copy of all counters.
    pub fn snapshot(&self) -> PmemStatsSnapshot {
        PmemStatsSnapshot {
            persists: self.persists.get(),
            lines_flushed: self.lines_flushed.get(),
            fences: self.fences.get(),
            lines_evicted: self.lines_evicted.get(),
            crashes: self.crashes.get(),
        }
    }

    /// Resets all counters to zero. Intended for benchmark phase boundaries.
    pub fn reset(&self) {
        self.persists.reset();
        self.lines_flushed.reset();
        self.fences.reset();
        self.lines_evicted.reset();
        self.crashes.reset();
    }
}

/// Plain-data snapshot of [`PmemStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PmemStatsSnapshot {
    /// Compound persistent instructions.
    pub persists: u64,
    /// Individual cache-line flushes.
    pub lines_flushed: u64,
    /// Memory fences.
    pub fences: u64,
    /// Evicted lines.
    pub lines_evicted: u64,
    /// Simulated crashes.
    pub crashes: u64,
}

impl PmemStatsSnapshot {
    /// The counters as `(name, value)` pairs, in export order — the
    /// payload of an `obs::Section::Counters`.
    pub fn counters(&self) -> Vec<(String, u64)> {
        vec![
            ("persists".into(), self.persists),
            ("lines_flushed".into(), self.lines_flushed),
            ("fences".into(), self.fences),
            ("lines_evicted".into(), self.lines_evicted),
            ("crashes".into(), self.crashes),
        ]
    }

    /// Counter deltas `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &PmemStatsSnapshot) -> PmemStatsSnapshot {
        PmemStatsSnapshot {
            persists: self.persists.saturating_sub(earlier.persists),
            lines_flushed: self.lines_flushed.saturating_sub(earlier.lines_flushed),
            fences: self.fences.saturating_sub(earlier.fences),
            lines_evicted: self.lines_evicted.saturating_sub(earlier.lines_evicted),
            crashes: self.crashes.saturating_sub(earlier.crashes),
        }
    }
}

impl ToJson for PmemStatsSnapshot {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        for (name, v) in self.counters() {
            o.set(&name, Json::U64(v));
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_since() {
        let s = PmemStats::default();
        s.persists.add(5);
        s.lines_flushed.add(7);
        let a = s.snapshot();
        s.persists.add(2);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.persists, 2);
        assert_eq!(d.lines_flushed, 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = PmemStats::default();
        s.fences.add(3);
        s.reset();
        assert_eq!(s.snapshot(), PmemStatsSnapshot::default());
    }
}
