//! The three workloads and their seeded transaction streams.
//!
//! Every input the database sees is generated here, before the timed
//! window, from the run's seed: the same seed gives the same streams.

use std::time::Duration;

use bench::{SkewedItems, TxnShape};
use dbmodel::{CcMethod, LogicalItemId, Value};
use runtime::{CcPolicy, RuntimeConfig, TraceConfig, TraceLevel, TxnSpec};
use simkit::rng::SimRng;

/// Shard threads of every workload's database.
pub const SHARDS: u32 = 2;
/// Closed-loop client threads per workload.
pub const CLIENTS: usize = 2;

/// The coordinated shapes `hot-dynamic` rotates through.
const ROTATION: [TxnShape; 3] = [TxnShape::ReadHeavy, TxnShape::Rmw, TxnShape::Wide];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Zipfian hot set under the dynamic STL selector.
    HotDynamic,
    /// Uniform wide transactions over a large item set, static 2PL.
    UniformWide,
    /// Zipfian read-mostly mix through the coordination-free planes.
    ReadMostly,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HotDynamic,
        Workload::UniformWide,
        Workload::ReadMostly,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotDynamic => "hot-dynamic",
            Workload::UniformWide => "uniform-wide",
            Workload::ReadMostly => "read-mostly",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn items(self) -> u64 {
        match self {
            Workload::HotDynamic => 1024,
            Workload::UniformWide => 100_000,
            Workload::ReadMostly => 4096,
        }
    }

    fn theta(self) -> f64 {
        match self {
            Workload::UniformWide => 0.0,
            Workload::HotDynamic | Workload::ReadMostly => 0.99,
        }
    }

    /// Transactions each client runs in one round's timed window. A
    /// round is bounded by work, so its history — and the oracle's
    /// superlinear time on it — is the same size on every run. The hot
    /// workloads keep rounds short because their hot items' logs make
    /// the oracle's time grow fastest.
    pub fn window_txns(self) -> usize {
        match self {
            Workload::HotDynamic => 500,
            Workload::UniformWide => 3_000,
            Workload::ReadMostly => 500,
        }
    }

    /// Transactions each client runs before a round's window, to fill the
    /// selection cache and the version rings.
    pub fn warmup_txns(self) -> usize {
        match self {
            Workload::HotDynamic | Workload::UniformWide => 250,
            Workload::ReadMostly => 100,
        }
    }

    /// The database configuration. `uniform-wide` turns the snapshot
    /// plane and the confluent bypass off, so it bypasses both: every
    /// transaction there is coordinated 2PL. Its transactions almost never
    /// wait on one another, so its deadlock detector scans every 50 ms
    /// instead of every 5 ms. At 5 ms each scan stalls the transactions in
    /// flight for about a millisecond, which costs this workload about 40%
    /// of its throughput and makes that throughput follow the host's
    /// scheduling from run to run. The contended workloads keep the
    /// default scan, so its cost is still measured there.
    pub fn config(self, seed: u64, traced: bool) -> RuntimeConfig {
        let trace = TraceConfig {
            level: if traced {
                TraceLevel::Full
            } else {
                TraceLevel::Off
            },
            ..TraceConfig::default()
        };
        let base = RuntimeConfig {
            num_shards: SHARDS,
            num_items: self.items(),
            seed,
            trace,
            ..RuntimeConfig::default()
        };
        match self {
            Workload::HotDynamic => RuntimeConfig {
                policy: CcPolicy::DynamicStl,
                ..base
            },
            Workload::UniformWide => RuntimeConfig {
                policy: CcPolicy::Static(CcMethod::TwoPhaseLocking),
                snapshot_reads: false,
                confluence_fastpath: false,
                deadlock_scan_interval: Duration::from_millis(50),
                ..base
            },
            Workload::ReadMostly => RuntimeConfig {
                policy: CcPolicy::Static(CcMethod::TwoPhaseLocking),
                ..base
            },
        }
    }

    /// Transaction `k` of a stream: positions cycle through eight slots,
    /// so every stream has the workload's exact class shares.
    fn op(self, k: usize, skew: &SkewedItems, rng: &mut SimRng) -> Op {
        let slot = k % 8;
        match self {
            Workload::HotDynamic if slot == 7 => read_only(skew, rng, 4),
            Workload::HotDynamic => {
                let rmw_index = k - k / 8;
                rmw(skew, rng, ROTATION[rmw_index % ROTATION.len()])
            }
            Workload::UniformWide if slot == 7 => read_only(skew, rng, 8),
            Workload::UniformWide => rmw(skew, rng, TxnShape::Wide),
            Workload::ReadMostly => match slot {
                0..=4 => read_only(skew, rng, 4),
                5 | 6 => {
                    let deltas: Vec<(LogicalItemId, Value)> = skew
                        .pick_distinct(rng, 2)
                        .into_iter()
                        .map(|item| (item, delta(rng)))
                        .collect();
                    let spec = deltas
                        .iter()
                        .fold(TxnSpec::new(), |spec, &(item, d)| spec.add(item, d));
                    Op::Add { spec, deltas }
                }
                _ => rmw(skew, rng, TxnShape::Rmw),
            },
        }
    }

    /// The `len` transactions of one client's stream. `stream` names the
    /// round, phase and client; the seed and `stream` determine the
    /// result.
    pub fn stream(self, seed: u64, stream: u64, len: usize) -> Vec<Op> {
        let skew = SkewedItems::new(self.items(), self.theta());
        let mut rng = SimRng::new(seed).fork(stream);
        (0..len).map(|k| self.op(k, &skew, &mut rng)).collect()
    }
}

/// One generated transaction.
#[derive(Debug)]
pub enum Op {
    /// A coordinated read-modify-write through `begin` / `commit`: each
    /// written item is incremented by its delta.
    Rmw {
        spec: TxnSpec,
        deltas: Vec<(LogicalItemId, Value)>,
    },
    /// A read-only transaction through `execute`.
    ReadOnly { spec: TxnSpec },
    /// Commutative increments through `execute`.
    Add {
        spec: TxnSpec,
        deltas: Vec<(LogicalItemId, Value)>,
    },
}

impl Op {
    /// The increments this transaction applies when it commits.
    pub fn deltas(&self) -> &[(LogicalItemId, Value)] {
        match self {
            Op::Rmw { deltas, .. } | Op::Add { deltas, .. } => deltas,
            Op::ReadOnly { .. } => &[],
        }
    }
}

fn delta(rng: &mut SimRng) -> Value {
    1 + rng.next_below(9) as Value
}

fn read_only(skew: &SkewedItems, rng: &mut SimRng, k: usize) -> Op {
    Op::ReadOnly {
        spec: TxnSpec::new().reads(skew.pick_distinct(rng, k)),
    }
}

fn rmw(skew: &SkewedItems, rng: &mut SimRng, shape: TxnShape) -> Op {
    let (spec, writes) = skew.spec(rng, shape);
    let deltas = writes.into_iter().map(|item| (item, delta(rng))).collect();
    Op::Rmw { spec, deltas }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(ops: &[Op]) -> Vec<String> {
        ops.iter().map(|op| format!("{op:?}")).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for workload in Workload::ALL {
            let a = render(&workload.stream(7, 3, 64));
            let b = render(&workload.stream(7, 3, 64));
            assert_eq!(
                a,
                b,
                "{}: a seed must reproduce its stream",
                workload.name()
            );
            let other_seed = render(&workload.stream(8, 3, 64));
            assert_ne!(a, other_seed, "{}: seeds must differ", workload.name());
            let other_stream = render(&workload.stream(7, 4, 64));
            assert_ne!(a, other_stream, "{}: streams must differ", workload.name());
        }
    }

    #[test]
    fn streams_have_the_declared_class_shares() {
        let count = |ops: &[Op]| {
            let mut n = [0usize; 3];
            for op in ops {
                n[match op {
                    Op::Rmw { .. } => 0,
                    Op::ReadOnly { .. } => 1,
                    Op::Add { .. } => 2,
                }] += 1;
            }
            n
        };
        assert_eq!(
            count(&Workload::HotDynamic.stream(1, 0, 800)),
            [700, 100, 0]
        );
        assert_eq!(
            count(&Workload::UniformWide.stream(1, 0, 800)),
            [700, 100, 0]
        );
        assert_eq!(
            count(&Workload::ReadMostly.stream(1, 0, 800)),
            [100, 500, 200]
        );
    }

    #[test]
    fn every_delta_is_a_positive_increment_on_a_known_item() {
        for workload in Workload::ALL {
            for op in workload.stream(5, 1, 256) {
                for &(item, d) in op.deltas() {
                    assert!(item.0 < workload.items());
                    assert!((1..=9).contains(&d));
                }
            }
        }
    }
}
