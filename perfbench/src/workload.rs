//! The three standing workloads and their seeded input streams.
//!
//! Every input the program sees is generated here from the run's seed
//! before it is timed: the bulk-load set, the warm-up ops and each timed
//! round's ops. The same seed always yields the same stream, round by
//! round, whatever the host's speed.

use std::ops::Range;

use index_common::{Key, Value};
use nvm::SplitMix64;
use ycsb::{KeyDist, KeyGen};

/// Combining shards and tree shards: one per vCPU of the reference host,
/// as DESIGN.md §5k recommends for the group-commit layer.
pub const SHARDS: usize = 2;

/// Simulated NVM write latency (the paper's measured 140 ns).
pub const WRITE_LATENCY_NS: u64 = 140;

/// Pairs returned by one YCSB-E scan.
pub const SCAN_LEN: usize = 50;

/// Zipfian skew of the skewed workloads.
const THETA: f64 = 0.99;

/// A standing workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 50% read / 50% update, scrambled Zipfian, 2 clients: the only
    /// workload where combining and HTM conflicts happen.
    YcsbAZipf,
    /// 100% read, uniform over twice the page cache's reach, 1 client:
    /// descent and page cache only; every write layer is bypassed.
    YcsbCUniform,
    /// 95% scan / 5% insert of fresh ascending keys, 1 client: HTM leaf
    /// sections and the cross-shard merge, cache-resident.
    YcsbEScan,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::YcsbAZipf,
        Workload::YcsbCUniform,
        Workload::YcsbEScan,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::YcsbAZipf => "ycsb-a-zipf",
            Workload::YcsbCUniform => "ycsb-c-uniform",
            Workload::YcsbEScan => "ycsb-e-scan",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The class of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Point lookup (`find`).
    Read,
    /// Conditional update of a loaded key.
    Update,
    /// Conditional insert of a fresh key.
    Insert,
    /// Range scan of [`SCAN_LEN`] pairs.
    Scan,
}

impl OpClass {
    /// Every class, in report order.
    pub const ALL: [OpClass; 4] = [
        OpClass::Read,
        OpClass::Update,
        OpClass::Insert,
        OpClass::Scan,
    ];

    /// Lower-case name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Read => "read",
            OpClass::Update => "update",
            OpClass::Insert => "insert",
            OpClass::Scan => "scan",
        }
    }

    /// Whether the op writes.
    pub fn is_write(self) -> bool {
        matches!(self, OpClass::Update | OpClass::Insert)
    }
}

/// One generated operation. Insert keys are fresh; every other key is a
/// bulk-loaded one. Kept to 8 bytes: a run holds every op it issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Target key (scan start for scans); below 2^31 (see `Spec::check`).
    pub key: u32,
    /// Operation class.
    pub class: OpClass,
}

impl Op {
    /// The target key as the index API spells it.
    pub fn key(self) -> Key {
        Key::from(self.key)
    }
}

/// The value written by the op with stream index `idx` (`None` for the
/// bulk load): the key in the high half, so every stored value names its
/// key, and the writer's stream index + 1 in the low half, so a read can
/// name the op that wrote what it saw.
pub fn value_of(key: Key, idx: Option<usize>) -> Value {
    let tag = idx.map_or(0, |i| i as u64 + 1);
    debug_assert!(key < 1 << 32 && tag < 1 << 32);
    key << 32 | tag
}

/// The key a value names.
pub fn key_of(value: Value) -> Key {
    value >> 32
}

/// The stream index of the op that wrote `value`, `None` for a loaded
/// value.
pub fn writer_of(value: Value) -> Option<usize> {
    match value & 0xFFFF_FFFF {
        0 => None,
        tag => Some(tag as usize - 1),
    }
}

/// The shape and size of one run of a workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Bulk-loaded keys `1..=keys`.
    pub keys: u64,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Op mix in percent, indexed like [`OpClass::ALL`].
    pub mix: [u32; 4],
    /// Whether point keys and scan starts are scrambled Zipfian (else
    /// uniform).
    pub zipf: bool,
    /// Untimed warm-up ops with the workload's own mix.
    pub warmup_ops: usize,
    /// Ops per timed round (a fixed count, so a round's work does not
    /// depend on the host's speed).
    pub round_ops: usize,
    /// Timed rounds run at least this many times, then until the run's
    /// seconds are spent, always in whole placement cycles (see
    /// `affinity`).
    pub min_rounds: usize,
    /// Upper bound on timed rounds.
    pub max_rounds: usize,
    /// Fresh deployments per run. Each is set up (`setup_s` is the median
    /// over them), warmed up, timed for an equal share of the run's
    /// seconds, checked, crashed and recovered. Spreading a run over
    /// several deployments samples several memory placements, which move
    /// a single deployment's speed by up to ~15% on the reference host.
    pub deployments: usize,
    /// Crash/recover cycles per deployment; `recovery.recover_s` is the
    /// lower quartile over all of them.
    pub recoveries: usize,
    /// Total pool bytes across the shards (each shard also keeps a
    /// same-sized durable image).
    pub pool_bytes: usize,
    /// Page-cache frames over the whole stack, carved over the shards.
    pub cache_frames: usize,
}

impl Spec {
    /// The benchmark's own sizing of `w`.
    pub fn standard(w: Workload) -> Spec {
        match w {
            Workload::YcsbAZipf => Spec {
                workload: w,
                keys: 1_000_000,
                clients: 2,
                mix: [50, 50, 0, 0],
                zipf: true,
                warmup_ops: 1_000_000,
                round_ops: 50_000,
                min_rounds: 3,
                max_rounds: 1_000,
                deployments: 3,
                recoveries: 5,
                pool_bytes: 128 << 20,
                cache_frames: 1024,
            },
            Workload::YcsbCUniform => Spec {
                workload: w,
                keys: 2_000_000,
                clients: 1,
                mix: [100, 0, 0, 0],
                zipf: false,
                warmup_ops: 300_000,
                round_ops: 80_000,
                min_rounds: 3,
                max_rounds: 1_000,
                deployments: 3,
                recoveries: 5,
                pool_bytes: 96 << 20,
                cache_frames: 1024,
            },
            Workload::YcsbEScan => Spec {
                workload: w,
                keys: 1_000_000,
                clients: 1,
                mix: [0, 0, 5, 95],
                zipf: true,
                warmup_ops: 100_000,
                round_ops: 12_000,
                min_rounds: 3,
                max_rounds: 1_000,
                deployments: 3,
                recoveries: 5,
                pool_bytes: 96 << 20,
                cache_frames: 1024,
            },
        }
    }

    /// A seconds-long variant of `w` for the benchmark's own tests: same
    /// mix, clients and stack, a key space small enough to load in
    /// milliseconds, and a page cache scaled down with it (so the
    /// uniform workload still misses).
    pub fn small(w: Workload) -> Spec {
        let s = Spec::standard(w);
        Spec {
            keys: s.keys / 50,
            warmup_ops: 2_000,
            round_ops: 4_000,
            min_rounds: 2,
            max_rounds: 2,
            deployments: 1,
            recoveries: 1,
            pool_bytes: 16 << 20,
            cache_frames: 8,
            ..s
        }
    }

    /// Panics on a spec the run and its checks cannot serve.
    fn check(&self) {
        assert!(
            self.keys > 0 && self.keys < 1 << 31,
            "key space out of range"
        );
        assert_eq!(self.mix.iter().sum::<u32>(), 100, "mix must sum to 100%");
        // Scans check that the key set is exactly 1..=hi; that holds only
        // if fresh keys are acknowledged in order, i.e. by one client.
        assert!(
            self.mix[2] == 0 || self.clients == 1,
            "inserting workloads run one client"
        );
        assert!(
            self.deployments >= 1 && self.min_rounds >= 1 && self.min_rounds <= self.max_rounds
        );
    }
}

/// The seeded input stream of one run.
pub struct Inputs {
    mix: [u32; 4],
    keys: u64,
    gen: KeyGen,
    rng: SplitMix64,
    next_fresh: Key,
    ops: Vec<Op>,
}

impl Inputs {
    /// The stream `seed` names for deployment `deployment` of `spec`.
    pub fn new(spec: &Spec, seed: u64, deployment: u64) -> Inputs {
        spec.check();
        let dist = if spec.zipf {
            KeyDist::ScrambledZipfian {
                n: spec.keys,
                theta: THETA,
            }
        } else {
            KeyDist::Uniform { n: spec.keys }
        };
        Inputs {
            mix: spec.mix,
            keys: spec.keys,
            gen: dist.build(),
            // Spread nearby seeds apart before they drive the stream.
            rng: SplitMix64::new(SplitMix64::new(seed).next_u64() ^ deployment),
            next_fresh: spec.keys + 1,
            ops: Vec::new(),
        }
    }

    /// The bulk-load set: keys `1..=keys`, each with its loaded value.
    pub fn load_pairs(&self) -> Vec<(Key, Value)> {
        (1..=self.keys).map(|k| (k, value_of(k, None))).collect()
    }

    /// Appends the next `n` ops of the stream; returns their index range.
    pub fn extend(&mut self, n: usize) -> Range<usize> {
        let start = self.ops.len();
        self.ops.reserve(n);
        for _ in 0..n {
            let mut pick = self.rng.next_below(100) as u32;
            let class = OpClass::ALL
                .into_iter()
                .zip(self.mix)
                .find(|&(_, pct)| {
                    let hit = pick < pct;
                    pick = pick.saturating_sub(pct);
                    hit
                })
                .map(|(c, _)| c)
                .expect("mix sums to 100");
            let key = if class == OpClass::Insert {
                self.next_fresh += 1;
                self.next_fresh - 1
            } else {
                self.gen.next_key(&mut self.rng)
            };
            let key = u32::try_from(key).expect("keys stay below 2^31");
            self.ops.push(Op { key, class });
        }
        start..self.ops.len()
    }

    /// Every op generated so far, in stream order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The largest key the stream has generated (loaded or fresh).
    pub fn max_key(&self) -> Key {
        self.next_fresh - 1
    }
}
