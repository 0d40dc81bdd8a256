//! The [`Database`] facade: thread-safe entry point for live transactions.
//!
//! A `Database` owns one shard thread per site plus the background deadlock
//! detector. Any number of client threads may concurrently open
//! transactions; each client thread *is* the request issuer of its own
//! transaction — it drives the sans-IO [`unified_cc::RequestIssuer`] state
//! machine, blocking on an event channel for queue-manager replies, exactly
//! the way the simulator drives it from the event loop. Restarts (T/O
//! rejections, deadlock victims) are retried transparently under a fresh
//! transaction id and a larger timestamp, up to
//! [`RuntimeConfig::max_restarts`] attempts (see the pipeline, `path.rs`).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use dbmodel::{Catalog, CcMethod, LogSet, LogicalItemId, SiteId, Transaction, TxnId, Value};
use pam::RequestMsg;
use selection::{CachedStlSelector, WorkloadSignal};
use simkit::rng::SimRng;
use simkit::time::SimTime;
use trace::{TraceLevel, TracePlane};
use transport::batch::SmallBatch;
use transport::mailbox::MailboxOptions;
use unified_cc::QueueManager;

use crate::config::{CcPolicy, ConfigError, RuntimeConfig};
use crate::detector;
use crate::registry::Registry;
use crate::report::RuntimeReport;
use crate::shard::{self, ShardCmd, ShardHandle, ShardSender};
use crate::spec::{TxnError, TxnReceipt, TxnSpec};
use crate::stats::{MetricsShards, RuntimeStats, StatsSnapshot};
use crate::txn::ActiveTxn;

thread_local! {
    /// The send batcher's per-shard scratch (see `Database::route_all`),
    /// indexed by shard and left empty between calls. Kept per client
    /// thread so routing allocates nothing beyond what spilled batches
    /// carry to the shard.
    static SEND_BATCHES: RefCell<Vec<SmallBatch<RequestMsg>>> = const { RefCell::new(Vec::new()) };
}

pub(crate) struct Inner {
    pub(crate) config: RuntimeConfig,
    pub(crate) catalog: Catalog,
    pub(crate) registry: Arc<Registry>,
    pub(crate) shard_txs: Vec<ShardSender>,
    pub(crate) site_index: HashMap<SiteId, usize>,
    pub(crate) stats: Arc<RuntimeStats>,
    /// Thread-striped metric shards: the commit path records into its own
    /// stripe; stripes are merged only at epoch-refit boundaries and at
    /// shutdown. There is no global metrics mutex.
    pub(crate) metrics: MetricsShards,
    selector: Mutex<CachedStlSelector>,
    mix_rng: Mutex<SimRng>,
    /// Per-method selection tally, indexed by [`method_code`] — a fixed
    /// atomic array, the last lock the stats read path used to take.
    /// [`Database::shutdown`] folds it back into the report's `BTreeMap`.
    selection_counts: [AtomicU64; 3],
    pub(crate) next_txn_id: AtomicU64,
    pub(crate) ts_counter: AtomicU64,
    started: Instant,
    pub(crate) stopped: Arc<AtomicBool>,
    /// The armed fault-injection plane wrapping the client→shard
    /// transport boundary (`None` when the config schedules no faults).
    faults: Option<Arc<faultsim::FaultPlane>>,
    /// The flight-recorder tracing plane (see [`trace`]); shared with the
    /// shard threads and the deadlock detector.
    pub(crate) trace: Arc<TracePlane>,
    /// The global commit clock: coordinated commits draw/retire their
    /// stamp here; snapshot reads load its watermark. Shared with the
    /// shard threads (fast-path stamping and version-chain pruning).
    pub(crate) clock: Arc<crate::clock::CommitClock>,
    /// Keeps the serializability-violation observer alive: a failing
    /// oracle replay anywhere in the process latches this database's
    /// postmortem dump.
    _sercheck_guard: Option<sercheck::ObserverGuard>,
    // Taken exactly once, by whoever performs the shutdown.
    #[allow(clippy::type_complexity)]
    teardown: Mutex<Option<(Vec<ShardHandle>, Sender<()>, JoinHandle<()>)>>,
}

/// A live, sharded, multi-threaded database running the unified
/// concurrency-control engine. Cheap to clone; all clones share the same
/// shards.
#[derive(Clone)]
pub struct Database {
    pub(crate) inner: Arc<Inner>,
}

impl Database {
    /// Start the shard threads and the deadlock detector.
    pub fn open(config: RuntimeConfig) -> Result<Database, ConfigError> {
        config.validate()?;
        let catalog = Catalog::generate(config.num_shards, config.num_items, config.replication);
        Self::open_with_catalog(config, catalog)
    }

    /// Start a database over an explicit catalog (one shard per catalog
    /// site). The item-placement fields of `config` are ignored.
    pub fn open_with_catalog(
        config: RuntimeConfig,
        catalog: Catalog,
    ) -> Result<Database, ConfigError> {
        config.validate()?;
        let registry = Arc::new(Registry::with_options(MailboxOptions {
            index_capacity: config.reply_index_capacity,
            index_max_capacity: config.reply_index_max_capacity,
            mailbox_capacity: config.reply_mailbox_capacity,
            max_clients: config.reply_max_clients,
            deliver_timeout: config.reply_deliver_timeout,
            ..MailboxOptions::default()
        }));
        let stats = Arc::new(RuntimeStats::with_shards(catalog.sites().len()));
        let stopped = Arc::new(AtomicBool::new(false));
        let plane = Arc::new(TracePlane::new(&config.trace, catalog.sites().len()));
        let clock = Arc::new(crate::clock::CommitClock::new());

        let mut shard_handles = Vec::new();
        let mut shard_txs = Vec::new();
        let mut site_index = HashMap::new();
        for (idx, &site) in catalog.sites().iter().enumerate() {
            let mut qm = QueueManager::from_catalog(
                site,
                &catalog,
                config.initial_value,
                config.enforcement,
            );
            qm.set_version_retain(config.version_retain);
            qm.set_dedup_access(config.test_hooks.dedup_access);
            qm.set_snapshot_validation(config.test_hooks.snapshot_validation);
            qm.set_confluence_check(config.test_hooks.confluence_check);
            let (tx, rx) = shard::inbox_pair(config.shard_inbox_capacity);
            if plane.level() == TraceLevel::Full {
                // Queue-dwell stamping on the ring: each slot carries its
                // enqueue time, the consumer accumulates the dwell — the
                // `qu/blk` segment's transport-side witness.
                tx.set_stamping(true);
            }
            let handle = shard::spawn(
                qm,
                idx,
                rx,
                tx.clone(),
                Arc::clone(&registry),
                Arc::clone(&stats),
                Arc::clone(&plane),
                Arc::clone(&clock),
            );
            shard_txs.push(tx);
            site_index.insert(site, idx);
            shard_handles.push(handle);
        }

        let (stop_tx, stop_rx) = mpsc::channel();
        let detector_join = detector::spawn(
            shard_txs.clone(),
            Arc::clone(&registry),
            Arc::clone(&stats),
            Arc::clone(&plane),
            config.deadlock_scan_interval,
            stop_rx,
            Arc::clone(&stopped),
        );

        // A serializability violation observed anywhere in the process
        // (the oracle is global) latches this database's postmortem dump.
        // Installed only when a dump could actually be written.
        let sercheck_guard =
            if plane.level() == TraceLevel::Full && config.trace.postmortem_dir.is_some() {
                let weak = Arc::downgrade(&plane);
                Some(sercheck::observe_violations(move |_err| {
                    if let Some(plane) = weak.upgrade() {
                        let _ = plane.trigger_postmortem("sercheck-violation");
                    }
                }))
            } else {
                None
            };

        let selector = CachedStlSelector::with_settings(config.selection_cache);
        let faults = config
            .faults
            .clone()
            .map(|schedule| Arc::new(faultsim::FaultPlane::new(schedule)));
        Ok(Database {
            inner: Arc::new(Inner {
                mix_rng: Mutex::new(SimRng::new(config.seed)),
                catalog,
                registry,
                shard_txs,
                site_index,
                stats,
                metrics: MetricsShards::new(),
                selector: Mutex::new(selector),
                selection_counts: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
                next_txn_id: AtomicU64::new(0),
                ts_counter: AtomicU64::new(0),
                started: Instant::now(),
                stopped,
                faults,
                trace: plane,
                clock,
                _sercheck_guard: sercheck_guard,
                teardown: Mutex::new(Some((shard_handles, stop_tx, detector_join))),
                config,
            }),
        })
    }

    /// The replication catalog the shards were built from.
    pub fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }

    /// Number of shard threads.
    pub fn num_shards(&self) -> usize {
        self.inner.shard_txs.len()
    }

    /// A snapshot of the runtime counters, including the selection-cache
    /// counters when the dynamic policy runs cached. Reads only atomics —
    /// stats polling never takes the selector mutex, so it cannot contend
    /// with admission — and is side-effect-free (the mailbox-overflow
    /// postmortem fires on the registration that overflows, in `begin`,
    /// not here).
    pub fn stats(&self) -> StatsSnapshot {
        let mut snapshot = self.inner.stats.snapshot();
        snapshot.stale_reply_events = self.inner.registry.stale_reply_events();
        snapshot.mailbox_overflow_entries = self.inner.registry.overflow_entries() as u64;
        snapshot.mailbox_index_capacity = self.inner.registry.index_capacity() as u64;
        snapshot.mailbox_index_resizes = self.inner.registry.index_resizes();
        snapshot.mailbox_full_drops = self.inner.registry.full_drops();
        snapshot.trace_events = self.inner.trace.events_recorded();
        snapshot
    }

    /// The Section-5-style phase breakdown accumulated by the tracing
    /// plane so far: per-method segment histograms whose means telescope
    /// exactly to the measured end-to-end latency, global phase-event
    /// counters, and (at [`TraceLevel::Full`]) the per-shard inbox dwell
    /// meters. Empty at [`TraceLevel::Off`].
    pub fn trace_report(&self) -> trace::TraceReport {
        let mut report = self.inner.trace.report();
        report.transport_dwell = self
            .inner
            .shard_txs
            .iter()
            .enumerate()
            .filter_map(|(shard, tx)| {
                let (messages, nanos) = tx.queue_dwell();
                (messages > 0).then(|| trace::LaneDwell {
                    shard,
                    messages,
                    mean_dwell_us: nanos as f64 / messages as f64 / 1_000.0,
                })
            })
            .collect();
        report
    }

    /// A snapshot of every flight-recorder lane's surviving events
    /// (empty below [`TraceLevel::Full`]). Feed it to
    /// [`trace::TraceLog::from_events`] to reconstruct span trees.
    pub fn trace_snapshot(&self) -> Vec<trace::TraceEvent> {
        self.inner.trace.snapshot()
    }

    /// Number of transactions currently live (requesting, executing or
    /// releasing).
    pub fn live_transactions(&self) -> usize {
        self.inner.registry.len()
    }

    /// Transactions currently queued at some shard without a grant
    /// (diagnostics). Bounded: a shard that does not answer within
    /// [`crate::RuntimeConfig::diagnostic_timeout`] (e.g. mid-outage
    /// under the fault plane) is skipped rather than blocking the caller
    /// forever.
    pub fn waiting_transactions(&self) -> Vec<TxnId> {
        let (shards, timeout) = (&self.inner.shard_txs, self.inner.config.diagnostic_timeout);
        let asks = (0..shards.len()).map(|idx| (idx, ShardCmd::Waiting));
        let answers = shard::ask(shards, timeout, asks);
        let mut waiting: Vec<TxnId> = answers.flatten().flatten().collect();
        waiting.sort_unstable();
        waiting.dedup();
        waiting
    }

    /// A live copy of the execution log accumulated so far, merged across
    /// shards — the tap the serializability oracle replays. Bounded like
    /// [`Database::waiting_transactions`]: an unresponsive shard's slice
    /// is missing from the snapshot instead of hanging the caller.
    pub fn log_snapshot(&self) -> LogSet {
        let mut merged = LogSet::new();
        let (shards, timeout) = (&self.inner.shard_txs, self.inner.config.diagnostic_timeout);
        let asks = (0..shards.len()).map(|idx| (idx, ShardCmd::LogSnapshot));
        for slice in shard::ask(shards, timeout, asks).flatten() {
            merge_logs(&mut merged, &slice);
        }
        merged
    }

    /// Deactivate the fault plane and flush every message it still holds
    /// (delayed and partition-buffered) to its destination shard. Call
    /// before draining a chaos run so invariants are checked against a
    /// fully delivered history. No-op without an armed fault plane.
    pub fn quiesce_faults(&self) {
        if let Some(plane) = &self.inner.faults {
            plane.quiesce(|link, msg| {
                // The flushed message's origin is lost with the buffer;
                // precedence tie-breaking by origin only needs *a* site,
                // and the destination's own id is deterministic.
                let origin = self.inner.catalog.sites()[link];
                let _ = self.inner.shard_txs[link].send(ShardCmd::HandleBatch {
                    origin,
                    msgs: [msg].into_iter().collect(),
                });
            });
        }
    }

    /// Counters of every fault the armed plane injected so far (`None`
    /// without a fault schedule).
    pub fn fault_counters(&self) -> Option<faultsim::FaultCounters> {
        self.inner.faults.as_ref().map(|plane| plane.counters())
    }

    /// Force an epoch re-fit of the cached dynamic selector right now,
    /// merging the metric stripes outside any commit-path lock. Useful
    /// for diagnostics and for tests that pin epoch boundaries.
    pub fn force_refit(&self) {
        let now = self.now();
        let signal = WorkloadSignal {
            grants: self.inner.stats.grants.load(Ordering::Relaxed),
            conflicts: self.inner.stats.prescheduled_grants(),
        };
        // Merge *before* taking the selector mutex: admission stays free
        // to run while the stripes are folded.
        let merged = self.inner.metrics.merged(now);
        let mut selector = self.inner.selector.lock().expect("selector poisoned");
        selector.refit_now(&merged, signal);
        let cs = selector.cache_stats();
        drop(selector);
        self.inner.stats.publish_cache_stats(cs);
    }

    /// Open a transaction and drive it to its execution phase: all requests
    /// granted, read values in hand. Restarts are retried internally under
    /// fresh ids, re-arming the transaction's one reply mailbox.
    ///
    /// Pure read-only shapes (with
    /// [`crate::RuntimeConfig::snapshot_reads`] on, no pinned method) are
    /// served from the MVCC snapshot plane first: the transaction holds
    /// reads observed at the global read watermark, its
    /// [`ActiveTxn::commit`] is local accounting, and staging a write fails
    /// with [`TxnError::NotInWriteSet`]. A shard that cannot serve the
    /// watermark refuses, and the transaction runs coordinated.
    pub fn begin(&self, spec: &TxnSpec) -> Result<ActiveTxn, TxnError> {
        self.admit(spec, false)
    }

    /// Run one transaction end to end: open it, call `compute` with the
    /// values read, stage the writes `compute` returns, commit. `compute`
    /// may run more than once if the transaction restarts between opening
    /// and committing — it must be a pure function of the values read.
    pub fn run_transaction<F>(&self, spec: &TxnSpec, mut compute: F) -> Result<TxnReceipt, TxnError>
    where
        F: FnMut(&BTreeMap<LogicalItemId, Value>) -> Vec<(LogicalItemId, Value)>,
    {
        let mut txn = self.begin(spec)?;
        for (item, value) in compute(txn.reads()) {
            txn.write(item, value)?;
        }
        txn.commit()
    }

    /// Run one predeclared transaction end to end, routing it around the
    /// queue managers where its shape allows. A read-only shape (see
    /// [`selection::is_read_only`]) is first served from the snapshot
    /// plane as in [`Database::begin`]; its receipt reports
    /// [`TxnReceipt::snapshot`]. A shape built only from reads,
    /// [`TxnSpec::add`]s and [`TxnSpec::put`]s (see
    /// [`selection::classify`]) is next applied by its owning shard in one
    /// direct command, with no grants, precedence entries or deadlock
    /// exposure; its receipt reports [`TxnReceipt::fastpath`]. The queue
    /// manager refuses that bypass while a touched slot has coordinated
    /// work. On any refusal, and for pinned-method, replicated-item or
    /// (with the safety check on) multi-site shapes, the transaction runs
    /// the coordinated `begin`/stage/`commit` path under a fresh id, each
    /// add staging the value its write grant carried plus its delta.
    /// Refusals are counted in [`StatsSnapshot::snapshot_refused`] and
    /// [`StatsSnapshot::fastpath_refused`].
    pub fn execute(&self, spec: &TxnSpec) -> Result<TxnReceipt, TxnError> {
        let mut txn = self.admit(spec, true)?;
        txn.stage_confluent(spec)?;
        txn.commit()
    }

    /// Stop accepting work, drain the shards and collapse the runtime into
    /// its final report. Returns `None` on every call but the first.
    pub fn shutdown(&self) -> Option<RuntimeReport> {
        let (shards, stop_tx, detector_join) = self
            .inner
            .teardown
            .lock()
            .expect("teardown poisoned")
            .take()?;
        self.inner.stopped.store(true, Ordering::Relaxed);
        // Flush anything still parked in the fault plane so the final
        // drain sees every surviving message.
        self.quiesce_faults();
        // Stop the detector first so it cannot block on a draining shard.
        let _ = stop_tx.send(());
        let _ = detector_join.join();
        let mut logs = LogSet::new();
        for handle in &shards {
            let _ = handle.tx.send(ShardCmd::Shutdown);
        }
        for handle in shards {
            if let Ok((_site, slice)) = handle.join.join() {
                merge_logs(&mut logs, &slice);
            }
        }
        let metrics = self.inner.metrics.merged(self.now());
        let trace_report =
            (self.inner.trace.level() != TraceLevel::Off).then(|| self.trace_report());
        let mut selection_counts = BTreeMap::new();
        for method in CcMethod::ALL {
            let n =
                self.inner.selection_counts[method_code(method) as usize].load(Ordering::Relaxed);
            if n > 0 {
                selection_counts.insert(method, n);
            }
        }
        Some(RuntimeReport {
            logs,
            stats: self.stats(),
            metrics,
            selection_counts,
            trace: trace_report,
        })
    }

    // ------------------------------------------------------------------

    /// Wall-clock time since the database opened, as a simulation-style
    /// timestamp (µs).
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.inner.started.elapsed().as_micros() as u64)
    }

    pub(crate) fn pick_method(&self, spec: &TxnSpec) -> CcMethod {
        let inner = &self.inner;
        let choice = match inner.config.policy {
            CcPolicy::Static(m) => m,
            CcPolicy::Mix { p_2pl, p_to } => {
                let x = inner.mix_rng.lock().expect("rng poisoned").next_f64();
                if x < p_2pl {
                    CcMethod::TwoPhaseLocking
                } else if x < p_2pl + p_to {
                    CcMethod::TimestampOrdering
                } else {
                    CcMethod::PrecedenceAgreement
                }
            }
            CcPolicy::DynamicStl => {
                let probe = Transaction::builder(TxnId(u64::MAX), SiteId(0))
                    .reads(spec.reads.iter().copied())
                    .writes(spec.write_items())
                    .build();
                // The per-shard feedback loop: grant / conflict counters
                // maintained by the shard threads drive the cached
                // selector's epoch logic (a conflict-ratio shift beyond the
                // drift threshold re-fits the model early).
                let signal = WorkloadSignal {
                    grants: inner.stats.grants.load(Ordering::Relaxed),
                    conflicts: inner.stats.prescheduled_grants(),
                };
                let commits = inner.stats.committed.load(Ordering::Relaxed);
                let now = self.now();
                let mut selector = inner.selector.lock().expect("selector poisoned");
                // Timed with the selector mutex already held, so the
                // metric reports selector work (including any lazy stripe
                // merge at a refit boundary), not lock queueing.
                let begun = Instant::now();
                let method = selector
                    .select_sharded(&probe, &inner.catalog, signal, commits, || {
                        inner.metrics.merged(now)
                    })
                    .method;
                let spent = begun.elapsed();
                let cache_stats = selector.cache_stats();
                drop(selector);
                inner.stats.publish_cache_stats(cache_stats);
                inner.stats.selections.fetch_add(1, Ordering::Relaxed);
                inner
                    .stats
                    .selection_nanos
                    .fetch_add(spent.as_nanos() as u64, Ordering::Relaxed);
                method
            }
        };
        self.inner.selection_counts[method_code(choice) as usize].fetch_add(1, Ordering::Relaxed);
        choice
    }

    /// Send every message to the shard owning its item.
    ///
    /// This is the client-side **send batcher**: one pass appends each
    /// message to its destination shard's batch (relative order per shard
    /// is preserved, which is all the protocol requires), then each
    /// non-empty batch is enqueued as one [`ShardCmd::HandleBatch`]. A
    /// transaction therefore costs each shard one enqueue and at most one
    /// wakeup per phase, however many messages it sends and however they
    /// interleave across shards.
    pub(crate) fn route_all(&self, origin: SiteId, sends: Vec<RequestMsg>) -> Result<(), TxnError> {
        if sends.is_empty() {
            return Ok(());
        }
        let sends = match &self.inner.faults {
            Some(plane) if plane.is_active() => self.fault_filter(plane, sends)?,
            _ => sends,
        };
        SEND_BATCHES.with(|batches| {
            let mut batches = batches.borrow_mut();
            batches.resize_with(self.inner.shard_txs.len(), SmallBatch::new);
            for msg in sends {
                batches[self.inner.site_index[&msg.item().site]].push(msg);
            }
            // Every batch is taken, even after a failed send, so the
            // scratch is left empty for the next call.
            let mut routed = Ok(());
            for (tx, batch) in self.inner.shard_txs.iter().zip(batches.iter_mut()) {
                if batch.is_empty() {
                    continue;
                }
                let msgs = std::mem::take(batch);
                if routed.is_ok() && tx.send(ShardCmd::HandleBatch { origin, msgs }).is_err() {
                    routed = Err(TxnError::ShuttingDown);
                }
            }
            routed
        })
    }

    /// Pass an outbound message list through the armed fault plane. Each
    /// message crosses the plane on the link of its destination shard;
    /// what comes back (possibly nothing — a drop or a hold — possibly
    /// more — duplicates, released delays, healed partitions) replaces it
    /// in the send list, still addressed to the same shard, so the send
    /// batcher packs it unchanged. A crossed crash point enqueues the
    /// crash command at the destination *before* the messages of this
    /// call, mirroring a node that goes down as traffic arrives.
    fn fault_filter(
        &self,
        plane: &faultsim::FaultPlane,
        sends: Vec<RequestMsg>,
    ) -> Result<Vec<RequestMsg>, TxnError> {
        let mut surviving = Vec::with_capacity(sends.len());
        let mut delivered = Vec::new();
        for msg in sends {
            let link = self.inner.site_index[&msg.item().site];
            delivered.clear();
            if let Some(signal) = plane.on_send(link, msg, &mut delivered) {
                let crash = ShardCmd::Crash {
                    outage: signal.outage,
                };
                if self.inner.shard_txs[link].send(crash).is_err() {
                    return Err(TxnError::ShuttingDown);
                }
            }
            surviving.append(&mut delivered);
        }
        Ok(surviving)
    }
}

/// The CC method code carried in a `SelectionDone` event's arg (low
/// byte; [`SELECTION_CACHE_HIT`] is OR-ed in above it).
pub(crate) fn method_code(method: CcMethod) -> u32 {
    match method {
        CcMethod::TwoPhaseLocking => 0,
        CcMethod::TimestampOrdering => 1,
        CcMethod::PrecedenceAgreement => 2,
    }
}

fn merge_logs(into: &mut LogSet, from: &LogSet) {
    for (item, log) in from.iter() {
        for entry in log.entries() {
            into.record_full(item, entry.txn, entry.mode, entry.commit_ts, entry.snapshot);
        }
    }
}

// The whole point of the runtime: the facade must be shareable across
// client threads.
const _: () = {
    fn assert_send_sync<T: Send + Sync>() {}
    fn assertions() {
        assert_send_sync::<Database>();
    }
    let _ = assertions;
};

#[cfg(test)]
mod tests {
    use super::*;
    use dbmodel::{ReplicationPolicy, Timestamp};
    use std::time::Duration;
    use trace::Phase;
    use unified_cc::ConfluentOp;

    fn li(i: u64) -> LogicalItemId {
        LogicalItemId(i)
    }

    /// Take shard 0 down for `ms` milliseconds.
    fn crash(db: &Database, ms: u64) {
        let outage = Duration::from_millis(ms);
        assert!(db.inner.shard_txs[0]
            .send(ShardCmd::Crash { outage })
            .is_ok());
    }

    fn config(shards: u32, items: u64) -> RuntimeConfig {
        RuntimeConfig {
            num_shards: shards,
            num_items: items,
            deadlock_scan_interval: Duration::from_millis(2),
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn single_txn_reads_initial_value_and_installs_write() {
        let db = Database::open(config(2, 8)).unwrap();
        let spec = TxnSpec::new().read(li(0)).write(li(1));
        let receipt = db
            .run_transaction(&spec, |reads| {
                assert_eq!(reads[&li(0)], 0);
                vec![(li(1), 41)]
            })
            .unwrap();
        assert_eq!(receipt.restarts, 0);
        // A second transaction observes the installed value.
        let spec = TxnSpec::new().read(li(1));
        let receipt = db.run_transaction(&spec, |_| vec![]).unwrap();
        assert_eq!(receipt.reads[&li(1)], 41);
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.committed, 2);
        assert!(report.serializable().is_ok());
        assert!(db.shutdown().is_none(), "second shutdown is a no-op");
    }

    #[test]
    fn write_outside_write_set_is_rejected() {
        let db = Database::open(config(1, 4)).unwrap();
        let mut txn = db.begin(&TxnSpec::new().write(li(0))).unwrap();
        assert_eq!(txn.write(li(1), 9), Err(TxnError::NotInWriteSet(li(1))));
        txn.write(li(0), 7).unwrap();
        txn.commit().unwrap();
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.committed, 1);
    }

    #[test]
    fn user_abort_implements_nothing() {
        let db = Database::open(config(1, 4)).unwrap();
        let mut txn = db.begin(&TxnSpec::new().write(li(0))).unwrap();
        txn.write(li(0), 123).unwrap();
        txn.abort();
        // A dropped (not committed) transaction also aborts.
        let _ = db.begin(&TxnSpec::new().write(li(1))).unwrap();
        let spec = TxnSpec::new().read(li(0));
        let receipt = db.run_transaction(&spec, |_| vec![]).unwrap();
        assert_eq!(receipt.reads[&li(0)], 0, "aborted write must not land");
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.user_aborts, 2);
        assert_eq!(report.stats.committed, 1);
        assert!(report.serializable().is_ok());
    }

    /// An unknown item is rejected before any selection, tally or trace.
    #[test]
    fn unknown_item_is_reported() {
        let db = Database::open(RuntimeConfig {
            policy: CcPolicy::DynamicStl,
            trace: trace::TraceConfig {
                level: TraceLevel::Full,
                ..trace::TraceConfig::default()
            },
            ..config(1, 2)
        })
        .unwrap();
        let err = db.begin(&TxnSpec::new().read(li(99))).unwrap_err();
        assert!(matches!(err, TxnError::UnknownItem(_)));
        let err = db.begin(&TxnSpec::new().read(li(0)).write(li(99)));
        assert!(matches!(err.unwrap_err(), TxnError::UnknownItem(_)));
        assert_eq!(db.stats().selections, 0, "no selection for a rejected spec");
        assert!(db.trace_snapshot().is_empty(), "nothing traced");
        assert!(db.shutdown().unwrap().selection_counts.is_empty());
    }

    #[test]
    fn to_conflict_restarts_and_still_commits() {
        let db = Database::open(config(1, 1)).unwrap();
        // A hot single item written by T/O transactions from several
        // threads: rejections are expected, every transaction must still
        // commit within the restart budget.
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        let spec = TxnSpec::new()
                            .write(li(0))
                            .method(CcMethod::TimestampOrdering);
                        db.run_transaction(&spec, |_| vec![(li(0), 1)]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.committed, 100);
        assert!(report.serializable().is_ok());
    }

    #[test]
    fn deadlock_between_2pl_writers_is_broken() {
        let db = Database::open(config(2, 2)).unwrap();
        // Two 2PL transactions locking {0,1} in opposite orders cannot
        // deadlock here because requests are issued up front, but a crowd of
        // multi-item writers still produces genuine wait cycles under 2PL.
        let threads: Vec<_> = (0..6)
            .map(|k| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..20 {
                        let spec = TxnSpec::new()
                            .write(li((k + i) % 2))
                            .write(li((k + i + 1) % 2))
                            .method(CcMethod::TwoPhaseLocking);
                        db.run_transaction(&spec, |_| vec![]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.committed, 120);
        assert!(report.serializable().is_ok());
    }

    /// Restart churn: the same reusable mailbox
    /// serves every incarnation, and the replies still in flight when an
    /// incarnation aborts surface as counted stale events, never as
    /// grants to the wrong incarnation (the run stays serializable).
    #[test]
    fn restart_churn_reuses_mailboxes_and_counts_stale_replies() {
        let db = Database::open(config(1, 1)).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        let spec = TxnSpec::new()
                            .write(li(0))
                            .method(CcMethod::TimestampOrdering);
                        db.run_transaction(&spec, |_| vec![(li(0), 1)]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.committed, 100);
        // The oracle is the real check here: a reply leaked across a
        // restart boundary would grant the wrong incarnation and produce
        // a non-serializable history. (Stale replies themselves are
        // scheduling-dependent, so their count cannot be asserted
        // strictly positive — the registry race suite covers that
        // deterministically.)
        assert!(report.serializable().is_ok());
    }

    /// Acceptance check: the epoch re-fit holds no lock the commit path
    /// needs. Client threads commit continuously while the main thread
    /// hammers forced re-fits (each of which merges every metric stripe);
    /// every transaction must commit and the refits must be visible in
    /// the (atomics-only) stats snapshot.
    #[test]
    fn commits_proceed_concurrently_with_forced_refits() {
        let db = Database::open(RuntimeConfig {
            policy: CcPolicy::DynamicStl,
            ..config(2, 16)
        })
        .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..3)
            .map(|k| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..60u64 {
                        let spec = TxnSpec::new()
                            .read(li((k + i) % 16))
                            .write(li((k + i + 3) % 16));
                        db.run_transaction(&spec, |_| vec![(li((k + i + 3) % 16), i as Value)])
                            .unwrap();
                    }
                })
            })
            .collect();
        let mut forced = 0u64;
        while !workers.iter().all(|w| w.is_finished()) {
            db.force_refit();
            forced += 1;
            // Poll stats mid-refit-storm: reads only atomics, so it can
            // never block on (or be blocked by) admission.
            let _ = db.stats();
        }
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        assert!(forced > 0);
        let stats = db.stats();
        assert!(
            stats.cache.refits >= forced,
            "forced refits must be counted: {} < {forced}",
            stats.cache.refits
        );
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.committed, 180);
        assert!(report.serializable().is_ok());
    }

    #[test]
    fn stats_reports_cache_counters_without_selector_lock() {
        let db = Database::open(RuntimeConfig {
            policy: CcPolicy::DynamicStl,
            selection_cache: selection::CacheSettings {
                warmup_commits: 3,
                explore_every: 0,
                ..selection::CacheSettings::default()
            },
            ..config(1, 8)
        })
        .unwrap();
        for i in 0..50 {
            let spec = TxnSpec::new().read(li(i % 8)).write(li((i + 1) % 8));
            db.run_transaction(&spec, |_| vec![]).unwrap();
        }
        let stats = db.stats();
        assert_eq!(stats.selections, 50);
        assert!(
            stats.cache.hits + stats.cache.misses > 0,
            "cost-based selections must flow into the atomic mirror: {:?}",
            stats.cache
        );
        assert!(stats.cache.epoch >= 1);
        db.shutdown();
    }

    #[test]
    fn mix_policy_spreads_methods_and_log_tap_grows() {
        let db = Database::open(RuntimeConfig {
            num_shards: 2,
            num_items: 16,
            replication: ReplicationPolicy::KCopies(2),
            policy: CcPolicy::Mix {
                p_2pl: 0.34,
                p_to: 0.33,
            },
            ..RuntimeConfig::default()
        })
        .unwrap();
        for i in 0..60 {
            let spec = TxnSpec::new().read(li(i % 16)).write(li((i + 1) % 16));
            db.run_transaction(&spec, |_| vec![(li((i + 1) % 16), i as Value)])
                .unwrap();
        }
        assert!(db.log_snapshot().total_ops() > 0, "live log tap works");
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.committed, 60);
        assert!(
            report.selection_counts.len() >= 2,
            "mix uses several methods: {:?}",
            report.selection_counts
        );
        assert!(report.serializable().is_ok());
    }

    /// Files currently in `dir` whose names mention the given reason slug.
    fn postmortems_in(dir: &std::path::Path, slug: &str) -> usize {
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter(|e| e.file_name().to_string_lossy().contains(slug))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Satellite regression (PR 7): the mailbox-overflow postmortem fires
    /// on the *registration* that transitions the reply plane onto the
    /// overflow map — before anyone polls stats — and `stats()` itself
    /// never writes anything.
    #[test]
    fn overflow_postmortem_fires_at_registration_not_in_stats() {
        let dir = std::env::temp_dir().join(format!(
            "db_overflow_postmortem_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::open(RuntimeConfig {
            num_shards: 2,
            num_items: 128,
            // Pin the resizable index at a 64-bucket ceiling so holding
            // 65+ open transactions forces a collision onto the overflow
            // map (pigeonhole), exercising the degraded path on purpose.
            reply_index_capacity: 64,
            reply_index_max_capacity: 64,
            reply_max_clients: 128,
            trace: trace::TraceConfig {
                postmortem_dir: Some(dir.clone()),
                ..trace::TraceConfig::default()
            },
            ..RuntimeConfig::default()
        })
        .unwrap();
        let mut open = Vec::new();
        for i in 0..80u64 {
            open.push(db.begin(&TxnSpec::new().write(li(i))).unwrap());
        }
        assert!(
            postmortems_in(&dir, "mailbox-overflow") > 0,
            "the overflow transition must dump a postmortem with no stats() call"
        );
        // stats() reports the degraded state but is side-effect-free:
        // repeated polling writes nothing new.
        let before = postmortems_in(&dir, "mailbox-overflow");
        for _ in 0..5 {
            let stats = db.stats();
            assert!(stats.mailbox_overflow_entries > 0);
            assert_eq!(stats.mailbox_index_capacity, 64);
        }
        assert_eq!(postmortems_in(&dir, "mailbox-overflow"), before);
        for txn in open {
            txn.abort();
        }
        db.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The no-overflow half: a healthy reply plane never dumps, no matter
    /// how often stats is polled, and the new index counters surface.
    #[test]
    fn stats_polling_is_side_effect_free_on_a_healthy_plane() {
        let dir = std::env::temp_dir().join(format!(
            "db_healthy_postmortem_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::open(RuntimeConfig {
            num_shards: 1,
            num_items: 8,
            trace: trace::TraceConfig {
                postmortem_dir: Some(dir.clone()),
                ..trace::TraceConfig::default()
            },
            ..RuntimeConfig::default()
        })
        .unwrap();
        for i in 0..10 {
            let spec = TxnSpec::new().write(li(i % 8));
            db.run_transaction(&spec, |_| vec![(li(i % 8), 1)]).unwrap();
            let stats = db.stats();
            assert_eq!(stats.mailbox_overflow_entries, 0);
            assert_eq!(stats.mailbox_full_drops, 0);
            assert!(stats.mailbox_index_capacity >= 1024);
        }
        assert_eq!(
            postmortems_in(&dir, "mailbox-overflow"),
            0,
            "a healthy plane polled for stats must never dump"
        );
        db.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sequential fast-path correctness: every increment applies through
    /// the bypass (no grants anywhere), the final value is exact, and the
    /// flight recorder saw the `FastPathApplied` phase.
    #[test]
    fn fast_adds_apply_through_the_bypass() {
        let db = Database::open(config(1, 4)).unwrap();
        const N: u64 = 50;
        for _ in 0..N {
            let receipt = db.execute(&TxnSpec::new().add(li(0), 2)).unwrap();
            assert!(receipt.fastpath);
            assert_eq!(receipt.restarts, 0);
        }
        let receipt = db.execute(&TxnSpec::new().read(li(0))).unwrap();
        assert!(receipt.snapshot, "a pure read takes the snapshot plane");
        assert_eq!(receipt.reads[&li(0)], 2 * N as Value);
        let stats = db.stats();
        assert_eq!(stats.fastpath_applied, N);
        assert_eq!(stats.snapshot_reads, 1);
        assert_eq!(stats.fastpath_refused, 0);
        assert_eq!(stats.committed, N + 1);
        assert_eq!(stats.grants, 0, "the bypass issues no grants");
        assert!(db
            .trace_snapshot()
            .iter()
            .any(|e| e.phase == Phase::FastPathApplied));
        let report = db.shutdown().unwrap();
        assert!(report.serializable().is_ok());
    }

    /// A non-confluent shape (declared rmw write) never takes the bypass,
    /// and puts land last-writer-wins through it.
    #[test]
    fn rmw_shapes_stay_coordinated_and_puts_apply() {
        let db = Database::open(config(1, 4)).unwrap();
        let receipt = db.execute(&TxnSpec::new().put(li(1), 77)).unwrap();
        assert!(receipt.fastpath);
        let receipt = db
            .execute(&TxnSpec::new().read(li(1)).write(li(2)))
            .unwrap();
        assert!(!receipt.fastpath, "an rmw write forces coordination");
        assert_eq!(receipt.reads[&li(1)], 77);
        let stats = db.stats();
        assert_eq!(stats.fastpath_applied, 1);
        let report = db.shutdown().unwrap();
        assert!(report.serializable().is_ok());
    }

    /// The queue manager refuses the bypass while a coordinated writer
    /// holds the item, and the transparent fallback commits the increment
    /// on top of the writer's value.
    #[test]
    fn bypass_refusal_falls_back_to_coordination() {
        let db = Database::open(config(1, 2)).unwrap();
        let mut holder = db.begin(&TxnSpec::new().write(li(0))).unwrap();
        holder.write(li(0), 7).unwrap();
        let worker = {
            let db = db.clone();
            std::thread::spawn(move || db.execute(&TxnSpec::new().add(li(0), 1)).unwrap())
        };
        // The fast attempt is refused (the holder's lock is live), then
        // the fallback queues behind the lock until the holder commits.
        while db.stats().fastpath_refused == 0 {
            std::thread::yield_now();
        }
        holder.commit().unwrap();
        let receipt = worker.join().unwrap();
        assert!(!receipt.fastpath, "the refused txn re-ran coordinated");
        let check = db.execute(&TxnSpec::new().read(li(0))).unwrap();
        assert_eq!(
            check.reads[&li(0)],
            8,
            "the fallback added on top of the committed write"
        );
        assert!(db.stats().fastpath_refused >= 1);
        let report = db.shutdown().unwrap();
        assert!(report.serializable().is_ok());
    }

    /// The mixed-plane certification the tentpole demands: fast-path
    /// increments and coordinated read-modify-writes hammer the same hot
    /// items from concurrent threads, and the serializability oracle
    /// certifies the merged history.
    #[test]
    fn mixed_fastpath_and_coordinated_traffic_stays_serializable() {
        let db = Database::open(config(2, 8)).unwrap();
        let fast: Vec<_> = (0..3u64)
            .map(|k| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..40u64 {
                        db.execute(&TxnSpec::new().add(li((k + i) % 8), 1)).unwrap();
                    }
                })
            })
            .collect();
        let coordinated: Vec<_> = (0..3u64)
            .map(|k| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..40u64 {
                        let item = li((k + i) % 8);
                        let spec = TxnSpec::new().write(item).read(li((k + i + 1) % 8));
                        db.run_transaction(&spec, |reads| {
                            vec![(item, reads[&li((k + i + 1) % 8)].wrapping_add(3))]
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in fast.into_iter().chain(coordinated) {
            t.join().unwrap();
        }
        let stats = db.stats();
        assert_eq!(stats.committed, 240);
        assert_eq!(
            stats.fastpath_applied + stats.fastpath_refused,
            120,
            "every fast txn either applied or was refused exactly once"
        );
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.committed, 240);
        assert!(report.serializable().is_ok());
    }

    /// Satellite regression (PR 9): a dead shard must not hang `begin`.
    /// The only shard is taken down for far longer than the whole retry
    /// budget; the client's bounded request wait aborts each incarnation
    /// at `request_timeout`, exhausts `max_restarts`, and surfaces a
    /// clean `ShardUnavailable` well before the outage ends — traced, with
    /// one request-timeout terminal event per incarnation.
    #[test]
    fn dead_shard_request_wait_is_bounded() {
        let db = Database::open(RuntimeConfig {
            request_timeout: Duration::from_millis(40),
            max_restarts: 1,
            trace: trace::TraceConfig {
                level: TraceLevel::Full,
                ..trace::TraceConfig::default()
            },
            ..config(1, 4)
        })
        .unwrap();
        crash(&db, 400);
        let begun = Instant::now();
        let err = db.begin(&TxnSpec::new().write(li(0))).unwrap_err();
        assert_eq!(err, TxnError::ShardUnavailable);
        assert!(
            begun.elapsed() < Duration::from_millis(350),
            "the bounded wait must give up before the outage ends, took {:?}",
            begun.elapsed()
        );
        let stats = db.stats();
        assert!(stats.timeout_restarts >= 1, "each expiry is counted");
        assert_eq!(stats.shard_unavailable, 1);
        assert_eq!(stats.committed, 0, "nothing was implemented");
        // Two incarnations, each ended once, by the request timeout.
        let events = db.trace_snapshot();
        let begins = events.iter().filter(|e| e.phase == Phase::Begin).count();
        let ends: Vec<_> = events.iter().filter(|e| e.phase.is_terminal()).collect();
        assert_eq!((begins, ends.len()), (2, 2), "{events:?}");
        let timed_out = (Phase::Aborted, trace::ABORT_REQUEST_TIMEOUT);
        assert!(ends.iter().all(|e| (e.phase, e.arg) == timed_out));
        let log = trace::TraceLog::from_events(events);
        assert!(log.lifecycle_violations().is_empty());
        assert_eq!(stats.timeout_restarts, 2);
        db.shutdown();
    }

    /// Satellite regression (PR 9): the diagnostic taps
    /// (`waiting_transactions`, `log_snapshot`) skip an unresponsive
    /// shard within `diagnostic_timeout` instead of blocking forever.
    #[test]
    fn diagnostics_skip_an_unresponsive_shard() {
        let db = Database::open(RuntimeConfig {
            diagnostic_timeout: Duration::from_millis(30),
            ..config(2, 8)
        })
        .unwrap();
        for i in 0..8 {
            db.run_transaction(&TxnSpec::new().write(li(i)), |_| vec![(li(i), 1)])
                .unwrap();
        }
        crash(&db, 300);
        let begun = Instant::now();
        let waiting = db.waiting_transactions();
        let snapshot = db.log_snapshot();
        assert!(
            begun.elapsed() < Duration::from_millis(200),
            "diagnostics must return within the bound, took {:?}",
            begun.elapsed()
        );
        assert!(waiting.is_empty());
        assert!(
            snapshot.total_ops() > 0,
            "the responsive shard's slice is still served"
        );
        db.shutdown();
    }

    /// Satellite regression (PR 9): a commit wait parked on a trailing
    /// normal-grant upgrade gives up at `commit_timeout` with
    /// `ShardUnavailable` — decided but unacknowledged, never a hang. A
    /// T/O reader holds a share lock; a later T/O writer executes on its
    /// pre-scheduled lock and demotes at commit, which implements the
    /// write but cannot fully release until the reader leaves.
    #[test]
    fn commit_wait_on_a_parked_upgrade_is_bounded() {
        let db = Database::open(RuntimeConfig {
            commit_timeout: Duration::from_millis(60),
            ..config(1, 2)
        })
        .unwrap();
        let reader = db
            .begin(
                &TxnSpec::new()
                    .read(li(0))
                    .method(CcMethod::TimestampOrdering),
            )
            .unwrap();
        let mut writer = db
            .begin(
                &TxnSpec::new()
                    .write(li(0))
                    .method(CcMethod::TimestampOrdering),
            )
            .unwrap();
        writer.write(li(0), 9).unwrap();
        let begun = Instant::now();
        let err = writer.commit().unwrap_err();
        assert_eq!(err, TxnError::ShardUnavailable);
        assert!(
            begun.elapsed() < Duration::from_millis(300),
            "commit wait must be bounded, took {:?}",
            begun.elapsed()
        );
        assert_eq!(db.stats().shard_unavailable, 1);
        // The write was implemented when the lock demoted: the decision
        // stands even though the acknowledgement never came. The check
        // read pins a coordinated method: the unacknowledged commit stamp
        // is never retired, so the watermark stalls below it and a
        // snapshot read would (correctly) serve the pre-write version.
        reader.commit().unwrap();
        let check = db
            .run_transaction(
                &TxnSpec::new().read(li(0)).method(CcMethod::TwoPhaseLocking),
                |_| vec![],
            )
            .unwrap();
        assert_eq!(check.reads[&li(0)], 9);
        let report = db.shutdown().unwrap();
        assert!(report.serializable().is_ok());
    }

    /// Satellite 4 (PR 9): a victim storm — the same logical transaction
    /// repeatedly victimised while queued behind a holder — stays
    /// bounded: every restart is counted, the storm cannot exceed the
    /// `max_restarts` budget, and the survivor either commits or fails
    /// with a clean error. The history stays oracle-certified.
    #[test]
    fn victim_storm_is_bounded_and_oracle_certified() {
        let db = Database::open(RuntimeConfig {
            max_restarts: 6,
            ..config(1, 2)
        })
        .unwrap();
        let holder = db
            .begin(
                &TxnSpec::new()
                    .write(li(0))
                    .method(CcMethod::TwoPhaseLocking),
            )
            .unwrap();
        let worker = {
            let db = db.clone();
            std::thread::spawn(move || {
                let spec = TxnSpec::new()
                    .write(li(0))
                    .method(CcMethod::TwoPhaseLocking);
                db.run_transaction(&spec, |_| vec![(li(0), 7)])
            })
        };
        // Storm: blanket-victimise every plausible incarnation id until
        // the worker has been through several deadlock restarts.
        while db.stats().deadlock_restarts < 3 && !worker.is_finished() {
            for i in 1..=64 {
                let _ = db.inner.registry.signal_deadlock(TxnId(i));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        holder.commit().unwrap();
        match worker.join().unwrap() {
            Ok(receipt) => {
                assert!(
                    (3..=6).contains(&receipt.restarts),
                    "storm restarts must be counted and bounded: {}",
                    receipt.restarts
                );
            }
            Err(TxnError::TooManyRestarts { attempts }) => {
                assert_eq!(attempts, 7, "the budget is exact");
            }
            Err(other) => panic!("victim storm must end cleanly, got {other:?}"),
        }
        let stats = db.stats();
        assert!(stats.deadlock_restarts >= 3);
        assert!(stats.deadlock_restarts <= 7);
        let report = db.shutdown().unwrap();
        assert!(report.serializable().is_ok());
    }

    /// The mutation gate: with the `confluence_check` hook off the bypass
    /// ignores in-flight coordinated work, and a deliberately interleaved
    /// fast transaction closes a precedence cycle the oracle must reject.
    /// (This is the proof that the at-apply refusal check is what keeps
    /// the fast path serializable.)
    #[test]
    fn disabling_the_confluence_check_admits_a_non_serializable_history() {
        let db = Database::open(RuntimeConfig {
            test_hooks: crate::config::TestHooks {
                confluence_check: false,
                ..Default::default()
            },
            ..config(2, 2)
        })
        .unwrap();
        // T holds write locks on both items across both shards.
        let mut t = db.begin(&TxnSpec::new().write(li(0)).write(li(1))).unwrap();
        t.write(li(0), 10).unwrap();
        t.write(li(1), 20).unwrap();
        let phys0 = db.catalog().physical_copies(li(0)).unwrap()[0];
        let phys1 = db.catalog().physical_copies(li(1)).unwrap()[0];
        let f = TxnId(1_000_000);
        let send = |ops: Vec<ConfluentOp>| {
            let site = ops[0].item().site;
            let idx = db.inner.site_index[&site];
            let (tx, rx) = transport::oneshot::channel();
            db.inner.shard_txs[idx]
                .send(ShardCmd::ApplyConfluent {
                    txn: f,
                    ops,
                    reply: tx,
                })
                .map_err(|_| ())
                .unwrap();
            rx.recv().unwrap()
        };
        // F reads item 0 *before* T implements its write there (F → T)...
        assert!(send(vec![ConfluentOp::Read(phys0)]).is_some());
        t.commit().unwrap();
        // ...and writes item 1 *after* T implemented (T → F): a cycle.
        assert!(send(vec![ConfluentOp::Add(phys1, 1)]).is_some());
        let report = db.shutdown().unwrap();
        assert!(
            report.serializable().is_err(),
            "the unchecked bypass must admit a non-serializable history"
        );
    }

    /// Tentpole routing (PR 10): a pure read rides the snapshot plane —
    /// no grants, no restarts — `begin` hands back a snapshot handle
    /// whose reads are already served, and writes outside the (empty)
    /// write set stay rejected. A pinned method opts out.
    #[test]
    fn snapshot_reads_route_around_coordination() {
        let db = Database::open(config(2, 8)).unwrap();
        db.run_transaction(&TxnSpec::new().write(li(3)), |_| vec![(li(3), 42)])
            .unwrap();
        let grants_before = db.stats().grants;
        let receipt = db.execute(&TxnSpec::new().read(li(3)).read(li(4))).unwrap();
        assert!(receipt.snapshot);
        assert_eq!(receipt.restarts, 0);
        assert_eq!(receipt.reads[&li(3)], 42);
        assert_eq!(receipt.reads[&li(4)], 0);
        let mut txn = db.begin(&TxnSpec::new().read(li(3))).unwrap();
        assert!(txn.is_snapshot());
        assert_eq!(txn.read(li(3)), Some(42));
        assert_eq!(txn.write(li(3), 1), Err(TxnError::NotInWriteSet(li(3))));
        let receipt = txn.commit().unwrap();
        assert!(receipt.snapshot);
        // An aborted snapshot handle counts as a user abort and leaves
        // no residue to clean up.
        db.begin(&TxnSpec::new().read(li(4))).unwrap().abort();
        // Pinning a method forces the coordinated plane.
        let receipt = db
            .execute(
                &TxnSpec::new()
                    .read(li(3))
                    .method(CcMethod::TimestampOrdering),
            )
            .unwrap();
        assert!(!receipt.snapshot);
        let stats = db.stats();
        assert_eq!(stats.snapshot_reads, 3);
        assert_eq!(stats.snapshot_refused, 0);
        assert_eq!(
            stats.grants,
            grants_before + 1,
            "only the pinned-method read took a grant"
        );
        assert_eq!(stats.user_aborts, 1);
        assert_eq!(stats.committed, 4);
        assert_eq!(db.live_transactions(), 0);
        let report = db.shutdown().unwrap();
        assert!(report.serializable().is_ok());
    }

    /// Tentpole certification (PR 10): snapshot readers race coordinated
    /// read-modify-writes and fast-path increments on the same hot items,
    /// and the merged history — snapshot reads ordered by served stamp,
    /// not log position — is oracle-certified.
    #[test]
    fn mixed_snapshot_and_writer_traffic_stays_serializable() {
        let db = Database::open(config(2, 8)).unwrap();
        let writers: Vec<_> = (0..2u64)
            .map(|k| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..40u64 {
                        let item = li((k + i) % 8);
                        db.run_transaction(
                            &TxnSpec::new().write(item).read(li((k + i + 1) % 8)),
                            |reads| vec![(item, reads[&li((k + i + 1) % 8)].wrapping_add(3))],
                        )
                        .unwrap();
                        db.execute(&TxnSpec::new().add(li((k + i + 3) % 8), 1))
                            .unwrap();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2u64)
            .map(|k| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..40u64 {
                        let receipt = db
                            .execute(
                                &TxnSpec::new()
                                    .read(li((k + i) % 8))
                                    .read(li((k + i + 4) % 8)),
                            )
                            .unwrap();
                        assert!(receipt.snapshot, "a pure read must never coordinate");
                    }
                })
            })
            .collect();
        for t in writers.into_iter().chain(readers) {
            t.join().unwrap();
        }
        let stats = db.stats();
        assert_eq!(stats.committed, 240);
        assert_eq!(stats.snapshot_reads, 80);
        assert_eq!(stats.snapshot_refused, 0);
        let report = db.shutdown().unwrap();
        assert_eq!(report.stats.committed, 240);
        assert!(report.serializable().is_ok());
    }

    /// Chaos regression (PR 10): a snapshot read against a crashed shard
    /// surfaces a bounded `ShardUnavailable` — never a hang, never a
    /// silent fall-through to a torn answer.
    #[test]
    fn snapshot_read_on_a_dead_shard_is_bounded() {
        let db = Database::open(RuntimeConfig {
            diagnostic_timeout: Duration::from_millis(40),
            ..config(1, 4)
        })
        .unwrap();
        crash(&db, 400);
        let begun = Instant::now();
        let err = db.execute(&TxnSpec::new().read(li(0))).unwrap_err();
        assert_eq!(err, TxnError::ShardUnavailable);
        assert!(
            begun.elapsed() < Duration::from_millis(350),
            "the snapshot wait must give up before the outage ends, took {:?}",
            begun.elapsed()
        );
        let stats = db.stats();
        assert_eq!(stats.shard_unavailable, 1);
        assert_eq!(stats.committed, 0);
        db.shutdown();
    }

    /// Satellite 3 (PR 10): when the hard cap has pruned the chain past
    /// the (stalled) watermark, the snapshot plane refuses rather than
    /// serving a wrong version, and the transparent fallback still
    /// commits the read coordinated — correct answer, counted refusal.
    #[test]
    fn pruned_chain_refuses_and_falls_back() {
        let db = Database::open(RuntimeConfig {
            commit_timeout: Duration::from_millis(40),
            version_retain: 1,
            ..config(1, 4)
        })
        .unwrap();
        // Stall the watermark at zero: a T/O writer parked behind a
        // share-holding reader draws the first commit stamp and times
        // out, so the stamp is never retired.
        let reader = db
            .begin(
                &TxnSpec::new()
                    .read(li(1))
                    .method(CcMethod::TimestampOrdering),
            )
            .unwrap();
        let mut writer = db
            .begin(
                &TxnSpec::new()
                    .write(li(1))
                    .method(CcMethod::TimestampOrdering),
            )
            .unwrap();
        writer.write(li(1), 9).unwrap();
        assert_eq!(writer.commit().unwrap_err(), TxnError::ShardUnavailable);
        reader.commit().unwrap();
        // Six stamped writes against retain=1 (hard cap 4) prune li(0)'s
        // seed version out of the chain.
        for v in 1..=6 {
            db.run_transaction(&TxnSpec::new().write(li(0)), |_| vec![(li(0), v)])
                .unwrap();
        }
        let receipt = db.execute(&TxnSpec::new().read(li(0))).unwrap();
        assert!(
            !receipt.snapshot,
            "a chain pruned past the watermark must not serve a snapshot"
        );
        assert_eq!(receipt.reads[&li(0)], 6);
        assert!(db.stats().snapshot_refused >= 1);
        let report = db.shutdown().unwrap();
        assert!(report.serializable().is_ok());
    }

    /// The mutation gate: with the `snapshot_validation` hook off the
    /// plane serves raw heads, and a snapshot transaction whose two reads
    /// straddle a writer's commit observes a torn state — the oracle must
    /// reject the cycle. (This is the proof that the watermark visibility
    /// check is what keeps snapshot reads serializable.)
    #[test]
    fn disabling_snapshot_validation_admits_a_non_serializable_history() {
        let db = Database::open(RuntimeConfig {
            test_hooks: crate::config::TestHooks {
                snapshot_validation: false,
                ..Default::default()
            },
            ..config(1, 2)
        })
        .unwrap();
        let mut t = db.begin(&TxnSpec::new().write(li(0)).write(li(1))).unwrap();
        t.write(li(0), 10).unwrap();
        t.write(li(1), 20).unwrap();
        let phys0 = db.catalog().physical_copies(li(0)).unwrap()[0];
        let phys1 = db.catalog().physical_copies(li(1)).unwrap()[0];
        let f = TxnId(1_000_000);
        let send = |items: Vec<dbmodel::PhysicalItemId>| {
            let (tx, rx) = transport::oneshot::channel();
            db.inner.shard_txs[0]
                .send(ShardCmd::SnapshotRead {
                    txn: f,
                    ts: Timestamp::ZERO,
                    items,
                    reply: tx,
                })
                .map_err(|_| ())
                .unwrap();
            rx.recv().unwrap()
        };
        // F reads item 0 *before* T installs (seed version: F → T)...
        assert_eq!(send(vec![phys0]), Some(vec![(phys0, 0)]));
        t.commit().unwrap();
        // ...and item 1 *after*: the unvalidated head is T's stamped
        // write, far above F's snapshot timestamp (T → F): a cycle.
        assert_eq!(send(vec![phys1]), Some(vec![(phys1, 20)]));
        let report = db.shutdown().unwrap();
        assert!(
            report.serializable().is_err(),
            "the unvalidated snapshot plane must admit a torn read"
        );
    }

    /// A wide transaction whose sorted access list alternates shards
    /// (round-robin placement) must cost each shard one `HandleBatch`
    /// per phase. One batch per message would make every drained batch
    /// flush its own reply event, overflow the small reply mailbox while
    /// the client is still sending, and stall the read on the dropped
    /// grants until `request_timeout` restarts it.
    #[test]
    fn wide_read_across_alternating_shards_is_one_batch_per_shard() {
        const ITEMS: u64 = 2000;
        let db = Database::open(RuntimeConfig {
            reply_mailbox_capacity: 16,
            reply_deliver_timeout: Duration::from_millis(10),
            request_timeout: Duration::from_secs(2),
            max_restarts: 1,
            ..config(2, ITEMS)
        })
        .unwrap();
        let spec = TxnSpec::new()
            .reads((0..ITEMS).map(li))
            .method(CcMethod::TwoPhaseLocking);
        let receipt = db.run_transaction(&spec, |_| vec![]);
        let stats = db.stats();
        assert!(receipt.is_ok(), "the wide read failed: {receipt:?}");
        assert_eq!(stats.mailbox_full_drops, 0, "no reply may be dropped");
        assert_eq!(stats.timeout_restarts, 0, "no incarnation may stall");
        db.shutdown();
    }
}
