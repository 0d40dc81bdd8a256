//! M6 — micro/macro benchmark: the message plane in isolation.
//!
//! End-to-end transaction throughput (m5, exp9) mixes the engine's cost
//! (queue-manager handles, issuer state machine, per-transaction setup)
//! with the plane's; on a machine where the engine dominates, even an
//! infinitely fast transport moves the total only a little. This bench
//! strips the engine away and measures the plane itself: 8 producer
//! threads push the message sets of read-modify-write transactions
//! (8 `RequestMsg`s over 4 shard consumers, 2 per shard — the `exp9`
//! wide-transaction shape) through each plane as fast as it accepts them.
//!
//! * `ring-batched` — the `transport::ring` plane as the runtime drives
//!   it: per-shard groups in inline [`SmallBatch`]es, one enqueue per
//!   shard per transaction, consumers draining whole rings per wakeup.
//! * `mpsc-single` — the PR-2 baseline: one `std::sync::mpsc`
//!   sync-channel send per message, one recv per message.
//!
//! One benchmark iteration is one wave of `WAVE_TXNS` transactions from
//! all producers, timed until the consumers have drained every message,
//! so txns/sec is `WAVE_TXNS / (ns-per-iter * 1e-9)`. The closing summary
//! prints both planes' txn/s and the ratio. `M6_GATE=<ratio>` (the CI
//! floor) fails the process if `ring-batched` falls below `<ratio>` × the
//! `mpsc-single` baseline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

use bench::Trajectory;
use criterion::{criterion_group, criterion_main, Criterion};
use dbmodel::{
    AccessMode, CcMethod, LogicalItemId, PhysicalItemId, SiteId, Timestamp, TsTuple, TxnId,
};
use pam::RequestMsg;
use trace::json::Json;
use transport::batch::SmallBatch;
use transport::ring::{self, RingReceiver, RingSender};

const SHARDS: usize = 4;
const PRODUCERS: u64 = 8;
const WAVE_TXNS: u64 = 2048;
const MSGS_PER_TXN: u64 = 8;
const CAPACITY: usize = 256;

/// What travels through the plane: the commands the runtime's shards see.
enum Cmd {
    Batch(SmallBatch<RequestMsg>),
    One(RequestMsg),
    Stop,
}

fn msg(txn: u64, item: u64, shard: usize) -> RequestMsg {
    RequestMsg::Access {
        txn: TxnId(txn),
        item: PhysicalItemId::new(LogicalItemId(item), SiteId(shard as u32)),
        mode: AccessMode::Write,
        method: CcMethod::TwoPhaseLocking,
        ts: TsTuple::new(Timestamp(txn), 10),
    }
}

/// A running plane: producers hand transactions in, consumers count
/// messages out.
trait Plane {
    fn push_txn(&self, producer: u64, txn: u64);
    fn stop(self: Box<Self>);
}

struct RingPlane {
    txs: Vec<RingSender<Cmd>>,
}

impl Plane for RingPlane {
    fn push_txn(&self, _producer: u64, txn: u64) {
        // 2 messages per shard, grouped exactly like `Database::route_all`.
        for (shard, tx) in self.txs.iter().enumerate() {
            let mut batch = SmallBatch::new();
            batch.push(msg(txn, txn % 64, shard));
            batch.push(msg(txn, (txn + 1) % 64, shard));
            if tx.send(Cmd::Batch(batch)).is_err() {
                panic!("consumer vanished");
            }
        }
    }

    fn stop(self: Box<Self>) {
        for tx in &self.txs {
            let _ = tx.send(Cmd::Stop);
        }
    }
}

struct MpscPlane {
    txs: Vec<SyncSender<Cmd>>,
}

impl Plane for MpscPlane {
    fn push_txn(&self, _producer: u64, txn: u64) {
        for (shard, tx) in self.txs.iter().enumerate() {
            if tx.send(Cmd::One(msg(txn, txn % 64, shard))).is_err()
                || tx.send(Cmd::One(msg(txn, (txn + 1) % 64, shard))).is_err()
            {
                panic!("consumer vanished");
            }
        }
    }

    fn stop(self: Box<Self>) {
        for tx in &self.txs {
            let _ = tx.send(Cmd::Stop);
        }
    }
}

fn count_cmd(cmd: &Cmd, counted: &AtomicU64) -> bool {
    match cmd {
        Cmd::Batch(batch) => {
            counted.fetch_add(batch.len() as u64, Ordering::Relaxed);
            true
        }
        Cmd::One(m) => {
            std::hint::black_box(m);
            counted.fetch_add(1, Ordering::Relaxed);
            true
        }
        Cmd::Stop => false,
    }
}

fn spawn_ring_plane(
    counted: Arc<AtomicU64>,
) -> (Box<dyn Plane + Sync>, Vec<std::thread::JoinHandle<()>>) {
    let mut txs = Vec::new();
    let mut joins = Vec::new();
    for _ in 0..SHARDS {
        let (tx, mut rx): (RingSender<Cmd>, RingReceiver<Cmd>) = ring::channel(CAPACITY);
        let counted = Arc::clone(&counted);
        joins.push(std::thread::spawn(move || {
            let mut buf = Vec::with_capacity(64);
            'outer: loop {
                buf.clear();
                if rx.drain_blocking(&mut buf).is_err() {
                    break;
                }
                for cmd in &buf {
                    if !count_cmd(cmd, &counted) {
                        break 'outer;
                    }
                }
            }
        }));
        txs.push(tx);
    }
    (Box::new(RingPlane { txs }), joins)
}

fn spawn_mpsc_plane(
    counted: Arc<AtomicU64>,
) -> (Box<dyn Plane + Sync>, Vec<std::thread::JoinHandle<()>>) {
    let mut txs = Vec::new();
    let mut joins = Vec::new();
    for _ in 0..SHARDS {
        let (tx, rx): (SyncSender<Cmd>, Receiver<Cmd>) = std::sync::mpsc::sync_channel(CAPACITY);
        let counted = Arc::clone(&counted);
        joins.push(std::thread::spawn(move || {
            while let Ok(cmd) = rx.recv() {
                if !count_cmd(&cmd, &counted) {
                    break;
                }
            }
        }));
        txs.push(tx);
    }
    (Box::new(MpscPlane { txs }), joins)
}

/// Push one wave of transactions from all producers and wait until the
/// consumers have drained every message.
fn run_wave(plane: &(dyn Plane + Sync), counted: &AtomicU64, wave: u64) {
    let start = counted.load(Ordering::Relaxed);
    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let plane = &plane;
            scope.spawn(move || {
                for k in 0..WAVE_TXNS / PRODUCERS {
                    plane.push_txn(p, wave * WAVE_TXNS + p * 1_000 + k);
                }
            });
        }
    });
    let target = start + WAVE_TXNS * MSGS_PER_TXN;
    while counted.load(Ordering::Relaxed) < target {
        std::thread::yield_now();
    }
}

fn measured_txn_per_sec(label: &str, counted: &Arc<AtomicU64>, plane: &(dyn Plane + Sync)) -> f64 {
    // A dedicated timed pass (outside criterion's loop) for the summary.
    const WAVES: u64 = 20;
    let begun = Instant::now();
    for w in 0..WAVES {
        run_wave(plane, counted, 1_000 + w);
    }
    let txn_per_sec = (WAVES * WAVE_TXNS) as f64 / begun.elapsed().as_secs_f64();
    println!("    -> {label}: {txn_per_sec:.0} txn/s of message traffic");
    txn_per_sec
}

fn throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("m6_transport_wave2048_latency");
    let mut summary: Vec<(&str, f64)> = Vec::new();

    {
        let counted = Arc::new(AtomicU64::new(0));
        let (plane, joins) = spawn_ring_plane(Arc::clone(&counted));
        let mut wave = 0;
        group.bench_function("ring-batched/8producers-4shards", |b| {
            b.iter(|| {
                wave += 1;
                run_wave(plane.as_ref(), &counted, wave);
            });
        });
        summary.push((
            "ring-batched",
            measured_txn_per_sec("ring-batched", &counted, plane.as_ref()),
        ));
        plane.stop();
        for j in joins {
            let _ = j.join();
        }
    }
    {
        let counted = Arc::new(AtomicU64::new(0));
        let (plane, joins) = spawn_mpsc_plane(Arc::clone(&counted));
        let mut wave = 0;
        group.bench_function("mpsc-single/8producers-4shards", |b| {
            b.iter(|| {
                wave += 1;
                run_wave(plane.as_ref(), &counted, wave);
            });
        });
        summary.push((
            "mpsc-single",
            measured_txn_per_sec("mpsc-single", &counted, plane.as_ref()),
        ));
        plane.stop();
        for j in joins {
            let _ = j.join();
        }
    }
    group.finish();

    let mut traj = Trajectory::new("m6");
    traj.meta("producers", Json::Num(PRODUCERS as f64));
    traj.meta("shards", Json::num(SHARDS as u32));
    traj.meta("wave_txns", Json::Num(WAVE_TXNS as f64));
    for &(plane, txn_per_sec) in &summary {
        traj.row([
            ("plane", Json::str(plane)),
            ("txn_per_sec", Json::Num(txn_per_sec)),
        ]);
    }
    let [(_, ring), (_, mpsc)] = summary[..] else {
        unreachable!("both planes measured");
    };
    let ratio = ring / mpsc;
    println!(
        "    -> plane ratio at 8 producers x 4 shards: {ratio:.2}x (ring-batched vs mpsc-single)"
    );
    traj.meta("plane_ratio", Json::Num(ratio));
    traj.emit();
    if let Some(gate) = std::env::var("M6_GATE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
    {
        if ratio < gate {
            eprintln!(
                "FAIL: ring-batched message plane is below the required \
                 {gate:.2}x of the mpsc-single baseline"
            );
            std::process::exit(1);
        }
        println!("    -> m6 gate passed (required {gate:.2}x)");
    }
}

criterion_group!(benches, throughput);
criterion_main!(benches);
