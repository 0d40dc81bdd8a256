//! The flight recorder as a reconstruction oracle: a seeded concurrent
//! run's collector output must agree with what the runtime itself
//! reports.
//!
//! * Every committed incarnation (by receipt id) has a full
//!   begin→…→committed span tree whose five client-side children tile the
//!   root exactly.
//! * The restart events surviving in the recorder equal the runtime's
//!   restart counters — no incarnation restarted untraced, none twice.
//! * `TraceLog::lifecycle_violations` is empty: incarnation ids never
//!   leak events across restarts (each attempt runs under a fresh id).
//! * The serialization order certified by the `sercheck` oracle mentions
//!   only transactions whose commit the recorder also saw.
//! * `Database::trace_report`'s Section-5 phase sums telescope to the
//!   measured end-to-end latency (within 5%, the PR acceptance bound —
//!   exact by construction, the tolerance only covers float folding).
//!
//! The rings are sized far above the event volume so nothing is
//! overwritten — asserted first, so every equality below is exact.

use std::collections::BTreeSet;

use dbmodel::{CcMethod, LogicalItemId};
use runtime::{
    CcPolicy, Database, Phase, RuntimeConfig, TraceConfig, TraceLevel, TraceLog, TxnError, TxnSpec,
};

const ITEMS: u64 = 16;

fn traced_config(policy: CcPolicy) -> RuntimeConfig {
    RuntimeConfig {
        num_shards: 2,
        num_items: ITEMS,
        initial_value: 1_000,
        policy,
        deadlock_scan_interval: std::time::Duration::from_millis(2),
        trace: TraceConfig {
            level: TraceLevel::Full,
            // Far above the event volume of these runs: no ring wraps, so
            // the recorder holds the *complete* event history.
            ring_capacity: 1 << 16,
            ..TraceConfig::default()
        },
        ..RuntimeConfig::default()
    }
}

#[test]
fn span_trees_agree_with_the_execution_log_under_contention() {
    let db = Database::open(traced_config(CcPolicy::Static(CcMethod::TwoPhaseLocking))).unwrap();
    let threads = 4u64;
    let txns_per_thread = 50u64;

    // Seeded contention: every thread interleaves all three protocols
    // over the same 16 items, so restarts genuinely occur.
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let db = db.clone();
            std::thread::spawn(move || {
                let mut receipts = Vec::new();
                for k in 0..txns_per_thread {
                    let method = CcMethod::ALL[((t + k) % 3) as usize];
                    let from = LogicalItemId((t * 5 + k) % ITEMS);
                    let to = LogicalItemId((t * 5 + k * 7 + 1) % ITEMS);
                    if from == to {
                        continue;
                    }
                    let spec = TxnSpec::new().write(from).write(to).method(method);
                    match db.run_transaction(&spec, |reads| {
                        vec![(from, reads[&from] - 1), (to, reads[&to] + 1)]
                    }) {
                        Ok(receipt) => receipts.push(receipt.id),
                        Err(TxnError::TooManyRestarts { .. }) => {}
                        Err(other) => panic!("unexpected transaction error: {other:?}"),
                    }
                }
                receipts
            })
        })
        .collect();
    let mut committed_ids = Vec::new();
    for worker in workers {
        committed_ids.extend(worker.join().expect("client thread panicked"));
    }

    let stats = db.stats();
    let events = db.trace_snapshot();
    assert_eq!(
        events.len() as u64,
        stats.trace_events,
        "rings sized above the event volume must not have overwritten anything"
    );

    let log = TraceLog::from_events(events);

    // Every committed incarnation reconstructs to a full span tree whose
    // client-side children tile the root interval exactly.
    for id in &committed_ids {
        let tree = log
            .span_tree(id.0)
            .unwrap_or_else(|| panic!("committed txn {id:?} left no events"));
        let root = tree
            .root
            .unwrap_or_else(|| panic!("committed txn {id:?} has no begin→terminal root"));
        assert_eq!(
            tree.children.len(),
            5,
            "committed txn {id:?} is missing client-side boundary events"
        );
        assert_eq!(tree.children[0].start_nanos, root.start_nanos);
        assert_eq!(tree.children[4].end_nanos, root.end_nanos);
        for pair in tree.children.windows(2) {
            assert_eq!(
                pair[0].end_nanos, pair[1].start_nanos,
                "txn {id:?}: segments must telescope"
            );
        }
    }

    // Commit and restart events agree with the runtime's own counters.
    let traced_committed: BTreeSet<u64> = log.committed().into_iter().collect();
    assert_eq!(traced_committed.len() as u64, stats.committed);
    assert_eq!(log.count_phase(Phase::Committed), stats.committed);
    assert_eq!(
        log.count_phase(Phase::RestartRejected),
        stats.rejected_restarts
    );
    assert_eq!(
        log.count_phase(Phase::RestartDeadlock),
        stats.deadlock_restarts
    );
    assert_eq!(log.restart_events(), stats.restarts());

    // Incarnation ids never leak events across restarts.
    let violations = log.lifecycle_violations();
    assert!(
        violations.is_empty(),
        "lifecycle violations: {violations:?}"
    );

    // The serializability oracle's order mentions only commits the
    // recorder also saw (same incarnation ids end-to-end).
    let report = db.shutdown().expect("shutdown");
    let order = report.serializable().expect("run must be serializable");
    for txn in &order {
        assert!(
            traced_committed.contains(&txn.0),
            "serialized txn {txn:?} has no traced commit"
        );
    }
}

#[test]
fn trace_report_phase_sums_match_end_to_end_latency() {
    let db = Database::open(traced_config(CcPolicy::Mix {
        p_2pl: 0.34,
        p_to: 0.33,
    }))
    .unwrap();
    // Deterministic single-client load: no contention, every incarnation
    // commits first try under whichever method the mix assigns.
    for k in 0..200u64 {
        let from = LogicalItemId(k % ITEMS);
        let to = LogicalItemId((k * 7 + 1) % ITEMS);
        if from == to {
            continue;
        }
        let spec = TxnSpec::new().write(from).write(to);
        db.run_transaction(&spec, |reads| {
            vec![(from, reads[&from] - 1), (to, reads[&to] + 1)]
        })
        .expect("uncontended transaction commits");
    }

    let report = db.trace_report();
    assert!(
        !report.methods.is_empty(),
        "a mixed run must report at least one method breakdown"
    );
    for m in &report.methods {
        assert!(m.spans() > 0);
        let sum = m.phase_sum_mean_us();
        let e2e = m.end_to_end_mean_us();
        assert!(e2e > 0.0, "commits take non-zero time");
        let relative = (sum - e2e).abs() / e2e;
        assert!(
            relative <= 0.05,
            "phase sums must telescope to end-to-end latency: \
             sum {sum:.3}µs vs e2e {e2e:.3}µs ({relative:.4} relative error)"
        );
    }
    // The dwell meters were live on the default batched-ring transport.
    assert!(
        report.transport_dwell.iter().all(|d| d.messages > 0),
        "stamped dwell meters only report lanes that moved messages"
    );
    let table = report.format_table();
    assert!(
        table.contains("sum-S"),
        "report renders the Section-5 table"
    );
    db.shutdown().expect("shutdown");
}

/// Every entry route of the pipeline, once each, on one fully traced
/// database: the terminal accounting the routes share must agree with
/// the runtime's counters, and every admitted incarnation must end in
/// exactly one terminal event.
#[test]
fn every_route_ends_each_incarnation_once() {
    let (li, to) = (LogicalItemId, CcMethod::TimestampOrdering);
    let db = Database::open(RuntimeConfig {
        num_shards: 1,
        num_items: 4,
        commit_timeout: std::time::Duration::from_millis(40),
        version_retain: 1,
        ..traced_config(CcPolicy::Static(CcMethod::TwoPhaseLocking))
    })
    .unwrap();
    let flags = |r: runtime::TxnReceipt| (r.snapshot, r.fastpath);
    // `execute` served by a snapshot, then through the fast path.
    assert_eq!(
        flags(db.execute(&TxnSpec::new().read(li(2))).unwrap()),
        (true, false)
    );
    assert_eq!(
        flags(db.execute(&TxnSpec::new().add(li(3), 1)).unwrap()),
        (false, true)
    );
    // `begin` with a snapshot, then `commit`, then `abort`; the same
    // for coordinated `begin`.
    let txn = db.begin(&TxnSpec::new().read(li(2))).unwrap();
    assert_eq!(flags(txn.commit().unwrap()), (true, false));
    db.begin(&TxnSpec::new().read(li(2))).unwrap().abort();
    let txn = db.begin(&TxnSpec::new().write(li(2))).unwrap();
    assert_eq!(flags(txn.commit().unwrap()), (false, false));
    db.begin(&TxnSpec::new().write(li(2))).unwrap().abort();

    // A fast-path refusal falls back: a coordinated holder keeps the
    // increment off the bypass until it commits.
    let holder = db.begin(&TxnSpec::new().write(li(0))).unwrap();
    let worker = {
        let db = db.clone();
        std::thread::spawn(move || db.execute(&TxnSpec::new().add(li(0), 1)).unwrap())
    };
    while db.stats().fastpath_refused == 0 {
        std::thread::yield_now();
    }
    holder.commit().unwrap();
    let fallback = worker.join().unwrap();
    let mut refused_ids = vec![fallback.id.0 - 1 - u64::from(fallback.restarts)];
    assert_eq!(flags(fallback), (false, false));

    // A commit that times out stalls the watermark; a chain pruned past
    // it refuses the snapshot. A pure read is confluent too, so the
    // fallback is the fast path.
    let reader = db.begin(&TxnSpec::new().read(li(1)).method(to)).unwrap();
    let mut writer = db.begin(&TxnSpec::new().write(li(1)).method(to)).unwrap();
    writer.write(li(1), 9).unwrap();
    assert_eq!(writer.commit().unwrap_err(), TxnError::ShardUnavailable);
    reader.commit().unwrap();
    for v in 1..=6 {
        db.run_transaction(&TxnSpec::new().write(li(0)), |_| vec![(li(0), v)])
            .unwrap();
    }
    let fallback = db.execute(&TxnSpec::new().read(li(0))).unwrap();
    assert_eq!(fallback.reads[&li(0)], 6);
    refused_ids.push(fallback.id.0 - 1);
    assert_eq!(flags(fallback), (false, true));

    let stats = db.stats();
    assert_eq!((stats.snapshot_refused, stats.fastpath_refused), (1, 1));
    let events = db.trace_snapshot();
    assert_eq!(events.len() as u64, stats.trace_events, "no ring wrapped");
    let log = TraceLog::from_events(events.iter().copied());
    assert!(log.lifecycle_violations().is_empty());
    for txn in log.txns() {
        let client = log.events_of(txn).unwrap().iter();
        let client: Vec<_> = client.filter(|e| e.phase.is_client_side()).collect();
        let terminals = client.iter().filter(|e| e.phase.is_terminal()).count();
        if refused_ids.contains(&txn) {
            assert!(client.is_empty(), "refused id {txn} traced {client:?}");
        } else if client.iter().any(|e| e.phase == Phase::Begin) {
            assert_eq!(terminals, 1, "txn {txn}: {client:?}");
        }
    }
    let count = |phase| log.count_phase(phase);
    assert_eq!(count(Phase::Committed), stats.committed);
    assert_eq!(count(Phase::FastPathApplied), stats.fastpath_applied);
    assert_eq!(count(Phase::SnapshotRead), stats.snapshot_reads);
    let aborted = |why| {
        let aborts = events.iter().filter(|e| e.phase == Phase::Aborted);
        aborts.filter(|e| e.arg == why).count() as u64
    };
    assert_eq!(aborted(trace::ABORT_USER), stats.user_aborts);
    assert_eq!(aborted(trace::ABORT_COMMIT_UNACKNOWLEDGED), 1);
    assert!(db.shutdown().unwrap().serializable().is_ok());
}
