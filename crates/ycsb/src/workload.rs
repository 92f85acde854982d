//! Operation mixes and workload specifications.

use nvm::SplitMix64;

use crate::keygen::{KeyDist, KeyGen};

/// One benchmark operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Point lookup of an existing-ish key.
    Read,
    /// Update (upsert) of an existing-ish key.
    Update,
    /// Insert of a fresh key (beyond the warmed key space).
    Insert,
    /// Remove of an existing-ish key.
    Remove,
    /// Range scan of `scan_len` pairs from an existing-ish key.
    Scan,
}

/// Relative operation weights.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mix {
    /// Read weight.
    pub read: u32,
    /// Update weight.
    pub update: u32,
    /// Insert weight.
    pub insert: u32,
    /// Remove weight.
    pub remove: u32,
    /// Scan weight.
    pub scan: u32,
}

impl Mix {
    fn total(&self) -> u32 {
        self.read + self.update + self.insert + self.remove + self.scan
    }

    /// Draws an operation kind.
    pub fn sample(&self, rng: &mut SplitMix64) -> OpKind {
        let t = self.total();
        debug_assert!(t > 0, "empty mix");
        let mut x = rng.next_below(t as u64) as u32;
        for (w, k) in [
            (self.read, OpKind::Read),
            (self.update, OpKind::Update),
            (self.insert, OpKind::Insert),
            (self.remove, OpKind::Remove),
            (self.scan, OpKind::Scan),
        ] {
            if x < w {
                return k;
            }
            x -= w;
        }
        unreachable!()
    }
}

/// A complete workload description: mix + key distribution + scan length.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Operation mix.
    pub mix: Mix,
    /// Key distribution over the warmed key space.
    pub dist: KeyDist,
    /// Pairs returned per scan operation.
    pub scan_len: usize,
}

impl WorkloadSpec {
    /// YCSB-A: 50% read, 50% update (the paper's default, §6.3).
    pub fn ycsb_a(dist: KeyDist) -> WorkloadSpec {
        WorkloadSpec {
            mix: Mix {
                read: 50,
                update: 50,
                ..Default::default()
            },
            dist,
            scan_len: 0,
        }
    }

    /// YCSB-B: 95% read, 5% update.
    pub fn ycsb_b(dist: KeyDist) -> WorkloadSpec {
        WorkloadSpec {
            mix: Mix {
                read: 95,
                update: 5,
                ..Default::default()
            },
            dist,
            scan_len: 0,
        }
    }

    /// YCSB-C: 100% read.
    pub fn ycsb_c(dist: KeyDist) -> WorkloadSpec {
        WorkloadSpec {
            mix: Mix {
                read: 100,
                ..Default::default()
            },
            dist,
            scan_len: 0,
        }
    }

    /// The paper's Figure 8(c): skewed read-intensive, 90% read /
    /// 10% update.
    pub fn read_intensive(dist: KeyDist) -> WorkloadSpec {
        WorkloadSpec {
            mix: Mix {
                read: 90,
                update: 10,
                ..Default::default()
            },
            dist,
            scan_len: 0,
        }
    }

    /// YCSB-E: 95% short range scans, 5% inserts.
    pub fn ycsb_e(dist: KeyDist, scan_len: usize) -> WorkloadSpec {
        WorkloadSpec {
            mix: Mix {
                scan: 95,
                insert: 5,
                ..Default::default()
            },
            dist,
            scan_len,
        }
    }

    /// Custom read/update split (e.g. Figure 8's variants).
    pub fn read_update(read: u32, update: u32, dist: KeyDist) -> WorkloadSpec {
        WorkloadSpec {
            mix: Mix {
                read,
                update,
                ..Default::default()
            },
            dist,
            scan_len: 0,
        }
    }

    /// Builds the per-thread sampling state.
    pub fn build_keygen(&self) -> KeyGen {
        self.dist.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_respects_weights() {
        let mix = Mix {
            read: 90,
            update: 10,
            ..Default::default()
        };
        let mut rng = SplitMix64::new(1);
        let mut reads = 0;
        let n = 20_000;
        for _ in 0..n {
            if mix.sample(&mut rng) == OpKind::Read {
                reads += 1;
            }
        }
        let share = reads as f64 / n as f64;
        assert!((0.88..0.92).contains(&share), "read share {share}");
    }

    #[test]
    fn presets_have_expected_shapes() {
        let d = KeyDist::Uniform { n: 10 };
        assert_eq!(WorkloadSpec::ycsb_a(d.clone()).mix.read, 50);
        assert_eq!(WorkloadSpec::ycsb_b(d.clone()).mix.update, 5);
        assert_eq!(WorkloadSpec::ycsb_c(d.clone()).mix.update, 0);
        assert_eq!(WorkloadSpec::read_intensive(d.clone()).mix.read, 90);
        let e = WorkloadSpec::ycsb_e(d, 50);
        assert_eq!(e.mix.scan, 95);
        assert_eq!(e.scan_len, 50);
    }

    #[test]
    fn all_kinds_reachable() {
        let mix = Mix {
            read: 1,
            update: 1,
            insert: 1,
            remove: 1,
            scan: 1,
        };
        let mut rng = SplitMix64::new(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1_000 {
            seen.insert(format!("{:?}", mix.sample(&mut rng)));
        }
        assert_eq!(seen.len(), 5);
    }
}
