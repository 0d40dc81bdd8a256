//! Seed-sweep chaos property test: 200+ seeded fault schedules, each run
//! against a live multi-shard [`runtime::Database`] with a mixed-protocol
//! bank workload, and every surviving history certified by the `sercheck`
//! oracle.
//!
//! Each seed samples its own chaos mix ([`FaultProfile::sampled`]): drop /
//! duplicate / delay rates, partition windows and shard crash points, all
//! materialized into one deterministic [`FaultSchedule`]. The invariants a
//! run must uphold no matter what the schedule does:
//!
//! * every client finishes — commit, `TooManyRestarts`, or
//!   `ShardUnavailable`; never a hang, never a panic;
//! * the conserved bank total survives (no lost committed writes, no
//!   partially applied transfers);
//! * the merged execution log is conflict-serializable;
//! * no transaction is still registered after the drain.
//!
//! On any violation the test panics with the seed, the full schedule and a
//! one-command replay line, so a failure found in a 200-seed sweep can be
//! reproduced in isolation:
//!
//! ```text
//! CHAOS_REPLAY_SEED=<seed> cargo test -p integration-tests \
//!     --test chaos_seed_sweep replay_one -- --ignored --nocapture
//! ```
//!
//! The file also carries the runtime half of the mutation test: the same
//! duplicate-storm schedule is run twice, once with duplicate suppression
//! on (everything commits, `dup_suppressed` counts the storm) and once
//! with the guard mutated off (the suite demonstrably fails), proving the
//! harness has teeth.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dbmodel::{CcMethod, LogicalItemId, ReplicationPolicy};
use runtime::{CcPolicy, Database, FaultProfile, FaultSchedule, RuntimeConfig, TxnError, TxnSpec};

const ACCOUNTS: u64 = 16;
const INITIAL: i64 = 1_000;
const SHARDS: u32 = 2;
const THREADS: u64 = 3;
const TXNS_PER_THREAD: u64 = 8;

fn li(i: u64) -> LogicalItemId {
    LogicalItemId(i % ACCOUNTS)
}

/// Everything a human needs to rerun one failing seed by hand.
fn replay_banner(seed: u64, schedule: &FaultSchedule) -> String {
    format!(
        "chaos seed {seed:#018x} violated an invariant.\n{schedule}\nreplay: \
         CHAOS_REPLAY_SEED={seed} cargo test -p integration-tests \
         --test chaos_seed_sweep replay_one -- --ignored --nocapture"
    )
}

/// A chaos-tuned runtime: short deadlines so dead shards surface as
/// bounded errors instead of stalls, a roomy inbox so a sleeping shard
/// backs traffic up without wedging senders, and a fast detector so
/// stranded queue entries are swept within the run.
fn chaos_config(schedule: FaultSchedule) -> RuntimeConfig {
    RuntimeConfig {
        num_shards: SHARDS,
        num_items: ACCOUNTS,
        initial_value: INITIAL,
        replication: ReplicationPolicy::SingleCopy,
        policy: CcPolicy::Static(CcMethod::TwoPhaseLocking),
        deadlock_scan_interval: Duration::from_millis(2),
        shard_inbox_capacity: 4096,
        request_timeout: Duration::from_millis(50),
        commit_timeout: Duration::from_millis(200),
        max_restarts: 6,
        restart_backoff: Duration::from_micros(200),
        faults: Some(schedule),
        ..RuntimeConfig::default()
    }
}

/// The total balance, read in one big transaction. Only called after
/// `quiesce_faults`, but a shard may still be sleeping off a crash
/// outage and stranded entries may still await the detector's sweep, so
/// clean timeouts are retried.
fn audit_total(db: &Database, seed: u64, schedule: &FaultSchedule) -> i64 {
    let spec = TxnSpec::new().reads((0..ACCOUNTS).map(LogicalItemId));
    for _ in 0..20 {
        match db.run_transaction(&spec, |_| vec![]) {
            Ok(receipt) => return receipt.reads.values().sum(),
            Err(TxnError::TooManyRestarts { .. }) | Err(TxnError::ShardUnavailable) => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(err) => panic!("audit failed: {err}\n{}", replay_banner(seed, schedule)),
        }
    }
    panic!(
        "audit never committed after quiesce\n{}",
        replay_banner(seed, schedule)
    )
}

/// What one seeded run observed, for chunk-level aggregate assertions.
struct RunOutcome {
    committed: u64,
    faults_injected: u64,
    dup_suppressed: u64,
    snapshot_served: u64,
}

/// Run one seeded chaos schedule end to end and check every invariant.
fn run_seed(seed: u64) -> RunOutcome {
    let profile = FaultProfile::sampled(seed);
    let schedule = FaultSchedule::generate(profile, seed, SHARDS as usize);
    let db = Database::open(chaos_config(schedule.clone())).unwrap();
    let committed = Arc::new(AtomicU64::new(0));
    let clean_failures = Arc::new(AtomicU64::new(0));

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = db.clone();
            let committed = Arc::clone(&committed);
            let clean_failures = Arc::clone(&clean_failures);
            std::thread::spawn(move || {
                for k in 0..TXNS_PER_THREAD {
                    let method = CcMethod::ALL[((t + k) % 3) as usize];
                    let from = li(t * 5 + k);
                    let to = li(t * 3 + k * 7 + 1);
                    if from == to {
                        continue;
                    }
                    let amount = (1 + (t + k) % 9) as i64;
                    let spec = TxnSpec::new().write(from).write(to).method(method);
                    match db.run_transaction(&spec, |reads| {
                        vec![(from, reads[&from] - amount), (to, reads[&to] + amount)]
                    }) {
                        Ok(_) => {
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                        // The only acceptable failures under chaos: the
                        // bounded-restart budget ran out, or a shard
                        // stopped answering within its deadline. Both are
                        // clean — nothing half-applied, nothing stuck.
                        Err(TxnError::TooManyRestarts { .. }) | Err(TxnError::ShardUnavailable) => {
                            clean_failures.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(err) => panic!("unexpected transaction error: {err}"),
                    }
                }
            })
        })
        .collect();

    // PR 10: a snapshot auditor races the transfer threads. Every
    // read-only execute that succeeds — snapshot-served or fallen back —
    // must observe a transaction-consistent cut, i.e. the conserved bank
    // total, no matter what the schedule does to the coordinated traffic
    // around it. A crashed shard may only surface as a bounded clean
    // error, never as a torn answer.
    let snapshot_served = Arc::new(AtomicU64::new(0));
    let auditor = {
        let db = db.clone();
        let served = Arc::clone(&snapshot_served);
        let schedule = schedule.clone();
        std::thread::spawn(move || {
            let spec = TxnSpec::new().reads((0..ACCOUNTS).map(LogicalItemId));
            for _ in 0..6 {
                match db.execute(&spec) {
                    Ok(receipt) => {
                        let total: i64 = receipt.reads.values().sum();
                        assert_eq!(
                            total,
                            ACCOUNTS as i64 * INITIAL,
                            "a read observed a torn cut (snapshot={})\n{}",
                            receipt.snapshot,
                            replay_banner(seed, &schedule),
                        );
                        if receipt.snapshot {
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(TxnError::TooManyRestarts { .. }) | Err(TxnError::ShardUnavailable) => {}
                    Err(err) => panic!(
                        "unexpected snapshot auditor error: {err}\n{}",
                        replay_banner(seed, &schedule)
                    ),
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    for worker in workers.into_iter().chain(std::iter::once(auditor)) {
        if worker.join().is_err() {
            panic!(
                "a client thread panicked\n{}",
                replay_banner(seed, &schedule)
            );
        }
    }

    // Flush anything the plane still holds (delayed or partition-buffered
    // messages) before checking the drained state.
    db.quiesce_faults();
    assert_eq!(
        db.live_transactions(),
        0,
        "clients drained but transactions stayed registered\n{}",
        replay_banner(seed, &schedule)
    );

    // No lost committed writes: transfers conserve the bank total whether
    // they committed, aborted, or timed out at commit (decided but
    // unacknowledged — still applied atomically).
    let total = audit_total(&db, seed, &schedule);
    assert_eq!(
        total,
        ACCOUNTS as i64 * INITIAL,
        "bank total not conserved\n{}",
        replay_banner(seed, &schedule)
    );

    let stats = db.stats();
    let counters = db.fault_counters().expect("fault plane is armed");
    let report = db.shutdown().expect("last handle drains the runtime");
    if let Err(violation) = report.serializable() {
        panic!(
            "history not serializable: {violation:?}\n{}",
            replay_banner(seed, &schedule)
        );
    }
    RunOutcome {
        committed: committed.load(Ordering::Relaxed),
        faults_injected: counters.total(),
        dup_suppressed: stats.dup_suppressed,
        snapshot_served: snapshot_served.load(Ordering::Relaxed),
    }
}

/// Sweep one contiguous chunk of seeds and assert chunk-level aggregates:
/// chaos actually fired, and progress was still made.
fn sweep_chunk(range: std::ops::Range<u64>) {
    let mut committed = 0;
    let mut faults = 0;
    let mut snapshots = 0;
    for seed in range.clone() {
        let outcome = run_seed(seed);
        committed += outcome.committed;
        faults += outcome.faults_injected;
        snapshots += outcome.snapshot_served;
    }
    assert!(
        committed > 0,
        "no transaction committed across seeds {range:?} — chaos drowned all progress"
    );
    assert!(
        faults > 0,
        "no fault fired across seeds {range:?} — the plane is not wired in"
    );
    assert!(
        snapshots > 0,
        "no snapshot read served across seeds {range:?} — the plane is not wired in"
    );
}

// The 200-seed sweep, chunked so `--test-threads=4` runs it in parallel.

#[test]
fn chaos_sweep_seeds_000_049() {
    sweep_chunk(0..50);
}

#[test]
fn chaos_sweep_seeds_050_099() {
    sweep_chunk(50..100);
}

#[test]
fn chaos_sweep_seeds_100_149() {
    sweep_chunk(100..150);
}

#[test]
fn chaos_sweep_seeds_150_199() {
    sweep_chunk(150..200);
}

/// One-command replay of a failing seed printed by `replay_banner`.
#[test]
#[ignore = "manual replay hook: set CHAOS_REPLAY_SEED"]
fn replay_one() {
    let seed: u64 = std::env::var("CHAOS_REPLAY_SEED")
        .expect("set CHAOS_REPLAY_SEED=<seed> to replay")
        .parse()
        .expect("CHAOS_REPLAY_SEED must be a u64");
    let outcome = run_seed(seed);
    println!(
        "seed {seed:#018x}: committed={} faults_injected={} dup_suppressed={} snapshot_served={}",
        outcome.committed, outcome.faults_injected, outcome.dup_suppressed, outcome.snapshot_served
    );
}

/// A duplicate-storm schedule: every faultable message is delivered
/// twice. With suppression on this is harmless noise; with it mutated
/// off it corrupts the queues.
fn duplicate_storm_schedule(seed: u64) -> FaultSchedule {
    let profile = FaultProfile {
        dup_rate: 1.0,
        horizon: 4096,
        ..FaultProfile::default()
    };
    FaultSchedule::generate(profile, seed, SHARDS as usize)
}

/// Control arm: under a 100% duplicate storm with suppression ON
/// (the default), every transaction commits, the suppression counter
/// proves re-deliveries really arrived and were absorbed, and the
/// history stays serializable.
#[test]
fn duplicate_storm_is_absorbed_when_suppression_is_on() {
    let db = Database::open(chaos_config(duplicate_storm_schedule(7))).unwrap();
    for k in 0..12u64 {
        let from = li(k);
        let to = li(k + 5);
        let spec = TxnSpec::new()
            .write(from)
            .write(to)
            .method(CcMethod::ALL[(k % 3) as usize]);
        db.run_transaction(&spec, |reads| {
            vec![(from, reads[&from] - 1), (to, reads[&to] + 1)]
        })
        .expect("duplicates are suppressed, so every transaction commits");
    }
    db.quiesce_faults();
    let stats = db.stats();
    assert!(
        stats.dup_suppressed > 0,
        "a 100% dup-rate storm must exercise the suppression guard"
    );
    let counters = db.fault_counters().unwrap();
    assert!(counters.duplicated > 0, "the plane duplicated nothing");
    let report = db.shutdown().unwrap();
    assert!(report.serializable().is_ok());
}

/// Mutation arm: the same storm with the suppression guard disabled
/// (the `dedup_access` test hook off) demonstrably fails — the first re-delivered
/// `Access` double-queues its transaction, the queue invariant trips
/// (debug assertion in `pam::DataQueue::insert`), the shard dies and
/// clients surface bounded errors instead of committing. This is the
/// proof the chaos suite has teeth: weaken the runtime's idempotence
/// and the tests notice.
///
/// Debug builds only: the double-queue trip is a `debug_assert`, which
/// is exactly the mutation the engine-level test in `unified-cc`
/// (`dedup_mutation_double_entry_is_demonstrable`) pins down for both
/// build profiles.
#[cfg(debug_assertions)]
#[test]
fn duplicate_storm_without_suppression_demonstrably_fails() {
    let mut config = chaos_config(duplicate_storm_schedule(7));
    config.test_hooks.dedup_access = false; // the mutation under test
    config.max_restarts = 2;
    // The panicking shard stops draining its inbox; keep the detector
    // from flooding it while the clients fail over.
    config.deadlock_scan_interval = Duration::from_millis(25);
    let db = Database::open(config).unwrap();

    let mut failures = 0;
    for k in 0..12u64 {
        let from = li(k);
        let to = li(k + 5);
        let spec = TxnSpec::new()
            .write(from)
            .write(to)
            .method(CcMethod::ALL[(k % 3) as usize]);
        match db.run_transaction(&spec, |reads| {
            vec![(from, reads[&from] - 1), (to, reads[&to] + 1)]
        }) {
            Ok(_) => {}
            Err(TxnError::TooManyRestarts { .. })
            | Err(TxnError::ShardUnavailable)
            | Err(TxnError::ShuttingDown) => failures += 1,
            Err(err) => panic!("unexpected error under mutation: {err}"),
        }
    }
    assert!(
        failures > 0,
        "suppression was mutated off under a duplicate storm but every \
         transaction still committed — the harness has no teeth"
    );
    db.shutdown();
}
