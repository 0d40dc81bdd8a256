//! One round: open a database, warm it up, run a fixed amount of work
//! through closed-loop clients in the timed window, then verify the
//! round's history outside the window.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use dbmodel::{LogicalItemId, Value};
use runtime::{Database, TxnError, TxnSpec};

use crate::audit;
use crate::workload::{Op, Workload, CLIENTS};

/// Items per read of the final value audit.
const AUDIT_CHUNK: usize = 64;

/// Which way a transaction went through the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Queue managers and grants (`begin` / `commit`, or an `execute`
    /// that coordinated).
    Coordinated,
    /// Served from the MVCC version rings.
    Snapshot,
    /// Applied through the confluent bypass.
    FastPath,
}

/// One committed transaction as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub read_only: bool,
    pub route: Route,
    /// Call to successful return, restarts included.
    pub total_us: f64,
    /// The `begin` and `commit` calls of a read-modify-write.
    pub begin_commit_us: Option<(f64, f64)>,
    /// When the call returned.
    pub done: Instant,
}

/// What a set of client threads did.
#[derive(Debug, Default)]
struct ClientLog {
    samples: Vec<Sample>,
    acknowledged: BTreeMap<LogicalItemId, Value>,
    attempted: u64,
    failed: u64,
}

impl ClientLog {
    fn absorb(&mut self, other: ClientLog) {
        self.samples.extend(other.samples);
        for (item, d) in other.acknowledged {
            let slot = self.acknowledged.entry(item).or_insert(0);
            *slot = slot.wrapping_add(d);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Database-side totals read from `Database::stats()` and
        /// `Database::trace_report()`; all `f64` so they subtract and add.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct Counters { $($(#[$doc])* pub $field: f64),* }

        impl Counters {
            fn minus(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field - earlier.$field),* }
            }

            pub fn plus(&self, other: &Counters) -> Counters {
                Counters { $($field: self.$field + other.$field),* }
            }
        }
    };
}

counters! {
    committed,
    restarts,
    grants,
    /// Grants issued under a standing conflict.
    prescheduled,
    selections,
    /// Selector time with its lock held.
    selection_us,
    cache_hits,
    cache_misses,
    snapshot_reads,
    snapshot_refused,
    fastpath_applied,
    stale_replies,
    full_drops,
    /// Commands the shard rings delivered while stamping, and their
    /// summed dwell.
    ring_msgs,
    ring_dwell_us,
    /// Committed coordinated incarnations the trace plane recorded, and
    /// the sums of their segments and end-to-end latencies.
    spans,
    sel_us,
    xport_us,
    queue_us,
    reply_us,
    end_to_end_us,
}

impl Counters {
    fn read(db: &Database) -> Counters {
        let stats = db.stats();
        let trace = db.trace_report();
        let mut c = Counters {
            committed: stats.committed as f64,
            restarts: stats.restarts() as f64,
            grants: stats.grants as f64,
            prescheduled: stats.prescheduled_grants() as f64,
            selections: stats.selections as f64,
            selection_us: stats.selection_nanos as f64 / 1_000.0,
            cache_hits: stats.cache.hits as f64,
            cache_misses: stats.cache.misses as f64,
            snapshot_reads: stats.snapshot_reads as f64,
            snapshot_refused: stats.snapshot_refused as f64,
            fastpath_applied: stats.fastpath_applied as f64,
            stale_replies: stats.stale_reply_events as f64,
            full_drops: stats.mailbox_full_drops as f64,
            ..Counters::default()
        };
        for lane in &trace.transport_dwell {
            c.ring_msgs += lane.messages as f64;
            c.ring_dwell_us += lane.messages as f64 * lane.mean_dwell_us;
        }
        for method in &trace.methods {
            let spans = method.spans() as f64;
            let sum = |i: usize| method.segments[i].mean() * spans;
            c.spans += spans;
            c.sel_us += sum(0);
            c.xport_us += sum(1);
            c.queue_us += sum(2);
            c.reply_us += sum(4);
            c.end_to_end_us += method.end_to_end_mean_us() * spans;
        }
        c
    }
}

/// Everything one round measured.
#[derive(Debug)]
pub struct Round {
    pub traced: bool,
    /// `Database::open` plus the warm-up, up to the window's opening.
    pub setup_s: f64,
    pub window_s: f64,
    /// The window's committed transactions.
    pub samples: Vec<Sample>,
    /// Transactions issued and failed, warm-up included.
    pub attempted: u64,
    pub failed: u64,
    /// Database-side totals over the window.
    pub counters: Counters,
    /// The process's peak resident set after the window, before any of
    /// this round's verification.
    pub rss_peak_mb: f64,
    /// Serializability-oracle time for the round's history.
    pub check_s: f64,
    /// The first thing verification found wrong, if anything.
    pub violation: Option<String>,
}

/// Run one round. `index` names the round within the run; together with
/// `seed` it fixes every generated input.
pub fn run(workload: Workload, seed: u64, index: u64, traced: bool) -> Round {
    let streams = |phase: u64, len: usize| -> Vec<Vec<Op>> {
        (0..CLIENTS as u64)
            .map(|client| workload.stream(seed, index << 8 | phase << 4 | client, len))
            .collect()
    };
    let warmup = streams(0, workload.warmup_txns());
    let window = streams(1, workload.window_txns());
    let config = workload.config(seed, traced);
    let initial = config.initial_value;

    let started = Instant::now();
    let db = Database::open(config).expect("every workload configuration is valid");
    let Phases {
        warmup: warm_log,
        window: mut log,
        before,
        opened,
        window_s,
    } = drive(&db, &warmup, &window);
    let setup_s = (opened - started).as_secs_f64();
    let counters = Counters::read(&db).minus(&before);
    let rss_peak_mb = peak_rss_mb();
    let samples = std::mem::take(&mut log.samples);
    log.absorb(warm_log);

    // Verification, outside the window: the black-box value audit, then
    // the oracle over the engine's log.
    let audited = final_audit(&db, workload.items(), initial, &log.acknowledged);
    let report = db
        .shutdown()
        .expect("only the round shuts its database down");
    let checked = Instant::now();
    let serializable = report.serializable();
    let check_s = checked.elapsed().as_secs_f64();
    let violation = audited.err().or_else(|| {
        serializable
            .err()
            .map(|e| format!("serializability oracle: {e:?}"))
    });

    Round {
        traced,
        setup_s,
        window_s,
        samples,
        attempted: log.attempted,
        failed: log.failed,
        counters,
        rss_peak_mb,
        check_s,
        violation,
    }
}

/// Read every item and check the values against the acknowledged
/// increments. The clients have stopped, so reading in chunks sees one
/// state; a chunk keeps a coordinated read's replies within one reply
/// mailbox.
fn final_audit(
    db: &Database,
    items: u64,
    initial: Value,
    acknowledged: &BTreeMap<LogicalItemId, Value>,
) -> Result<(), String> {
    let mut state = BTreeMap::new();
    let ids: Vec<LogicalItemId> = (0..items).map(LogicalItemId).collect();
    for chunk in ids.chunks(AUDIT_CHUNK) {
        let receipt = db
            .execute(&TxnSpec::new().reads(chunk.iter().copied()))
            .map_err(|e| format!("final audit read failed: {e}"))?;
        state.extend(receipt.reads);
    }
    audit::check(items, initial, acknowledged, &state).map_err(|e| format!("value audit: {e}"))
}

/// What [`drive`] measured.
struct Phases {
    warmup: ClientLog,
    window: ClientLog,
    /// Database-side totals when the window opened.
    before: Counters,
    opened: Instant,
    /// From the window's opening to the last client's return.
    window_s: f64,
}

/// Run both phases of a round on one thread per client. Each client
/// replays its warm-up stream, then waits until every client has
/// finished it, then replays its window stream. The last client to
/// finish the warm-up reads the counters and opens the window. The
/// others wait by yielding, not sleeping, so no thread is woken from
/// sleep as the window opens. Otherwise the first transactions of every
/// round would pay that wake-up in the window.
fn drive(db: &Database, warmup: &[Vec<Op>], window: &[Vec<Op>]) -> Phases {
    let arrived = AtomicUsize::new(0);
    let gate: OnceLock<(Counters, Instant)> = OnceLock::new();
    std::thread::scope(|scope| {
        let clients: Vec<_> = warmup
            .iter()
            .zip(window)
            .map(|(warm_ops, window_ops)| {
                let (arrived, gate) = (&arrived, &gate);
                scope.spawn(move || {
                    let warm = client(db, warm_ops);
                    if arrived.fetch_add(1, Ordering::SeqCst) + 1 == warmup.len() {
                        let _ = gate.set((Counters::read(db), Instant::now()));
                    }
                    while gate.get().is_none() {
                        std::thread::yield_now();
                    }
                    let log = client(db, window_ops);
                    (warm, log, Instant::now())
                })
            })
            .collect();
        let (mut warmup_log, mut window_log, mut last_return) =
            (ClientLog::default(), ClientLog::default(), None);
        for handle in clients {
            let (warm, log, returned) = handle.join().expect("client thread panicked");
            warmup_log.absorb(warm);
            window_log.absorb(log);
            last_return = last_return.max(Some(returned));
        }
        let (before, opened) = *gate.get().expect("every client finished its warm-up");
        Phases {
            warmup: warmup_log,
            window: window_log,
            before,
            opened,
            window_s: last_return.map_or(0.0, |t| (t - opened).as_secs_f64()),
        }
    })
}

/// One closed-loop client: each transaction is sent only after the
/// previous one returned.
fn client(db: &Database, ops: &[Op]) -> ClientLog {
    let mut log = ClientLog {
        samples: Vec::with_capacity(ops.len()),
        ..ClientLog::default()
    };
    for op in ops {
        log.attempted += 1;
        let sent = Instant::now();
        let outcome = match op {
            Op::Rmw { spec, deltas } => {
                read_modify_write(db, spec, deltas).map(|calls| (Route::Coordinated, Some(calls)))
            }
            Op::ReadOnly { spec } | Op::Add { spec, .. } => db.execute(spec).map(|receipt| {
                let route = if receipt.snapshot {
                    Route::Snapshot
                } else if receipt.fastpath {
                    Route::FastPath
                } else {
                    Route::Coordinated
                };
                (route, None)
            }),
        };
        let done = Instant::now();
        let total_us = (done - sent).as_secs_f64() * 1e6;
        match outcome {
            Ok((route, begin_commit_us)) => {
                log.samples.push(Sample {
                    read_only: matches!(op, Op::ReadOnly { .. }),
                    route,
                    total_us,
                    begin_commit_us,
                    done,
                });
                for &(item, d) in op.deltas() {
                    let slot = log.acknowledged.entry(item).or_insert(0);
                    *slot = slot.wrapping_add(d);
                }
            }
            Err(_) => log.failed += 1,
        }
    }
    log
}

/// `begin`, increment every written item by its delta, `commit`;
/// returns the two calls' durations in µs.
fn read_modify_write(
    db: &Database,
    spec: &TxnSpec,
    deltas: &[(LogicalItemId, Value)],
) -> Result<(f64, f64), TxnError> {
    let began = Instant::now();
    let mut txn = db.begin(spec)?;
    let begin_us = began.elapsed().as_secs_f64() * 1e6;
    for &(item, d) in deltas {
        let base = txn
            .read(item)
            .expect("a write grant carries the item's current value");
        txn.write(item, base.wrapping_add(d))?;
    }
    let committing = Instant::now();
    txn.commit()?;
    Ok((begin_us, committing.elapsed().as_secs_f64() * 1e6))
}

/// `VmHWM` of this process, in MiB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
