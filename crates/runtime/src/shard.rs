//! Shard threads: one per site, each owning that site's [`QueueManager`].
//!
//! A shard is the runtime analogue of the simulator's per-site queue
//! manager. It drains a bounded command inbox (backpressure towards the
//! clients), pushes each drained [`ShardCmd::HandleBatch`] through one
//! `QueueManager::handle_batch` call into a reusable [`QmSink`] (no
//! per-message `QmOutput` allocation anywhere on the path), flushes the
//! accumulated replies through the [`Registry`] once per drained batch,
//! and appends every implemented operation to its private slice of the
//! execution log. Because every
//! physical item lives on exactly one shard, the per-item implementation
//! order — the thing the serializability oracle consumes — is exactly the
//! order the owning shard processed the operations in, with no further
//! synchronisation.
//!
//! The inbox is a bounded lock-free MPSC ring (`transport::ring`): one
//! consumer wakeup drains *everything* enqueued since the last one, and
//! the replies the whole drained batch produced are flushed through the
//! registry once.
//!
//! Shutdown drains first: a [`ShardCmd::Shutdown`] marks the loop for
//! exit, but every command already enqueued — including commands ahead of
//! or behind it in the same drained batch — is still processed before the
//! thread returns its log slice. Without this, a release enqueued by a
//! committing client just before shutdown could be dropped and its write
//! silently lost from the final log.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dbmodel::{AccessMode, LogSet, PhysicalItemId, SiteId, Timestamp, TxnId, Value};
use pam::{GrantClass, RequestMsg};
use trace::{Phase, TraceLevel, TracePlane};
use transport::batch::SmallBatch;
use transport::oneshot::{OneshotSender, RecvError};
use transport::ring::{RingReceiver, RingSender};
use unified_cc::{ConfluentOp, QmEvent, QmSink, QueueManager};

use crate::clock::CommitClock;
use crate::registry::Registry;
use crate::stats::RuntimeStats;

/// Commands a shard thread processes.
// The variant size gap is deliberate: protocol batches travel inline in
// the ring slot so no heap allocation crosses the client→shard boundary,
// and the control commands are rare enough that padding them costs
// nothing.
#[allow(clippy::large_enum_variant)]
pub(crate) enum ShardCmd {
    /// Apply a transaction's messages for this shard in order; `origin`
    /// is the issuing site (used for precedence tie-breaking). The unit
    /// of transfer, built by the client-side send batcher.
    /// Small batches live inline in the command itself — no heap
    /// allocation crosses the thread boundary.
    HandleBatch {
        origin: SiteId,
        msgs: SmallBatch<RequestMsg>,
    },
    /// Apply an invariant-confluent transaction through the queue
    /// manager's coordination-avoidance bypass: one command, no grants,
    /// no queue transitions. The shard answers through `reply` —
    /// `Some(reads)` when applied, `None` when the queue manager refused
    /// (a touched slot had coordinated work in flight) and the client
    /// must fall back to the coordinated path.
    ApplyConfluent {
        txn: TxnId,
        ops: Vec<ConfluentOp>,
        reply: ServedReply,
    },
    /// Serve a read-only transaction from the item version chains at
    /// timestamp `ts` (the global read watermark the client loaded): no
    /// grants, no queue transitions, no wait edges. The shard answers
    /// `Some(values)` when every item had a version at `ts`, `None` when
    /// any chain was pruned past it (or the item is unknown here) and the
    /// client must fall back to the coordinated path. Served reads enter
    /// the execution log stamped with the version they observed so the
    /// serializability oracle can order them against writers.
    SnapshotRead {
        txn: TxnId,
        ts: Timestamp,
        items: Vec<PhysicalItemId>,
        reply: ServedReply,
    },
    /// Injected node fault: go unresponsive for `outage` (the inbox backs
    /// up, exerting real backpressure on clients), then come back having
    /// lost all *ungranted* queue entries — the partial-amnesia crash
    /// model. Granted entries, held locks, item values and timestamps
    /// survive (they model state re-read from the durable log tap on
    /// restart); waiters that had not been granted are simply gone and
    /// their clients recover through the timeout/restart machinery.
    Crash { outage: Duration },
    /// Report every transaction with any queue or lock presence on this
    /// shard (detector's stranded-transaction sweep).
    PresentTxns(OneshotSender<Vec<TxnId>>),
    /// Abort the listed transactions' residual state on this shard (the
    /// detector's cleanup of transactions no longer registered anywhere).
    Cleanup(Vec<TxnId>),
    /// Report the shard's current wait-for edges (deadlock detector).
    WaitEdges(OneshotSender<Vec<(TxnId, TxnId)>>),
    /// Report the transactions currently queued and not granted
    /// (diagnostics).
    Waiting(OneshotSender<Vec<TxnId>>),
    /// Report a copy of the shard's execution-log slice (live log tap).
    LogSnapshot(OneshotSender<LogSet>),
    /// Drain everything already enqueued, then exit, returning the final
    /// log slice through the join handle.
    Shutdown,
}

/// The answer channel of the coordination-free commands: `Some(values
/// read)` when served, `None` when refused.
pub(crate) type ServedReply = OneshotSender<Option<Vec<(PhysicalItemId, Value)>>>;

/// The runtime's one oneshot send/collect/timeout loop: send each `(shard
/// index, command)` its command built around a fresh reply channel, then
/// yield the answers in order, each awaited for at most `timeout` (a
/// closed inbox drops the command: `Disconnected`).
pub(crate) fn ask<T, F>(
    shards: &[ShardSender],
    timeout: Duration,
    cmds: impl IntoIterator<Item = (usize, F)>,
) -> impl Iterator<Item = Result<T, RecvError>>
where
    F: FnOnce(OneshotSender<T>) -> ShardCmd,
{
    let pending: Vec<_> = cmds
        .into_iter()
        .map(|(idx, cmd)| {
            let (tx, rx) = transport::oneshot::channel();
            let _ = shards[idx].send(cmd(tx));
            rx
        })
        .collect();
    pending.into_iter().map(move |rx| rx.recv_timeout(timeout))
}

/// The producing end of a shard's inbox; clone-able, blocks while the
/// ring is full (backpressure towards the clients).
pub(crate) type ShardSender = RingSender<ShardCmd>;

/// The consuming end of a shard's inbox.
pub(crate) type ShardInbox = RingReceiver<ShardCmd>;

/// A running shard thread.
pub(crate) struct ShardHandle {
    pub(crate) tx: ShardSender,
    pub(crate) join: JoinHandle<(SiteId, LogSet)>,
}

/// Spawn the shard thread for `site`, taking ownership of its queue
/// manager. `idx` is the shard's slot in the runtime's per-shard counter
/// table.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn(
    qm: QueueManager,
    idx: usize,
    inbox: ShardInbox,
    tx: ShardSender,
    registry: Arc<Registry>,
    stats: Arc<RuntimeStats>,
    plane: Arc<TracePlane>,
    clock: Arc<CommitClock>,
) -> ShardHandle {
    let site = qm.site();
    let join = std::thread::Builder::new()
        .name(format!("cc-shard-{}", site.0))
        .spawn(move || shard_loop(qm, idx, inbox, registry, stats, plane, clock))
        .expect("failed to spawn shard thread");
    ShardHandle { tx, join }
}

/// Per-iteration state the command dispatcher threads through.
struct ShardState<'a> {
    qm: QueueManager,
    logs: LogSet,
    /// The reusable engine sink: replies accumulate here across a whole
    /// drained batch and are flushed straight to the registry (no
    /// intermediate per-message `QmOutput`); events are folded into the
    /// stats and logs after each protocol command.
    sink: QmSink,
    stats: &'a RuntimeStats,
    /// The flight recorder; the shard records into lane `idx`. Events
    /// are aggregated per engine call (one `Granted` per fold) and per
    /// drained batch (one `ShardRecv`), all sharing one clock read, so
    /// the traced shard loop stays allocation-free and branch-cheap.
    plane: &'a TracePlane,
    /// The global commit clock: fast-path writes draw/retire their stamp
    /// here (shard-side — the apply is the whole commit), and each
    /// drained batch republishes the read watermark into the queue
    /// manager so version-chain pruning tracks it.
    clock: &'a CommitClock,
    idx: usize,
    shutdown: bool,
}

impl ShardState<'_> {
    fn count_msg(&self, msg: &RequestMsg) {
        if matches!(msg, RequestMsg::Abort { .. }) {
            self.stats.per_shard[self.idx]
                .aborts
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drain the events the last engine call pushed into the sink. Runs
    /// after *every* protocol command — a `LogSnapshot` later in the same
    /// drained batch must observe the operations implemented before it.
    /// Replies stay in the sink until the owning loop flushes them.
    fn fold_events(&mut self) {
        let counters = &self.stats.per_shard[self.idx];
        let mut granted = 0u32;
        let mut last_granted = 0u64;
        for event in self.sink.events.drain(..) {
            match event {
                QmEvent::GrantIssued { txn, class, .. } => {
                    self.stats.grants.fetch_add(1, Ordering::Relaxed);
                    counters.grants.fetch_add(1, Ordering::Relaxed);
                    if class == GrantClass::PreScheduled {
                        counters.prescheduled.fetch_add(1, Ordering::Relaxed);
                    }
                    granted += 1;
                    last_granted = txn.0;
                }
                QmEvent::Implemented {
                    item,
                    txn,
                    access,
                    commit_ts,
                } => {
                    self.logs.record_full(item, txn, access, commit_ts, false);
                    self.stats.implemented_ops.fetch_add(1, Ordering::Relaxed);
                    counters.implemented.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let dups = self.qm.take_dup_suppressed();
        if dups > 0 {
            self.stats.dup_suppressed.fetch_add(dups, Ordering::Relaxed);
        }
        // One aggregated trace event per engine call keeps the traced
        // shard overhead to a single clock read and ring write per fold.
        if granted > 0 {
            self.plane
                .record(self.idx, last_granted, Phase::Granted, granted);
        }
    }

    fn apply_cmd(&mut self, cmd: ShardCmd) {
        match cmd {
            ShardCmd::HandleBatch { origin, msgs } => {
                for msg in msgs.iter() {
                    self.count_msg(msg);
                }
                self.qm.handle_batch(origin, msgs.iter(), &mut self.sink);
                self.fold_events();
            }
            ShardCmd::ApplyConfluent { txn, ops, reply } => {
                // A writing fast-path transaction commits inside this one
                // command, so its stamp is drawn and retired right here:
                // the draw happens before any install (a concurrent
                // watermark load either precedes it — and cannot serve
                // the new versions — or sees it in flight and stays
                // below), and the retire happens only after every install
                // has entered the log slice.
                let writes = ops.iter().any(|op| !matches!(op, ConfluentOp::Read(_)));
                let cts = if writes {
                    self.clock.draw()
                } else {
                    Timestamp::ZERO
                };
                let result = self.qm.apply_confluent(txn, &ops, cts, &mut self.sink);
                // Implemented events must land in the log slice in the
                // shard's processing order, like every protocol command.
                self.fold_events();
                if writes {
                    self.clock.retire(cts);
                }
                reply.send(result)
            }
            ShardCmd::SnapshotRead {
                txn,
                ts,
                items,
                reply,
            } => {
                let mut out = Vec::with_capacity(items.len());
                if self.qm.snapshot_read_into(ts, &items, &mut out) {
                    let counters = &self.stats.per_shard[self.idx];
                    for &(item, _, served) in &out {
                        // Logged at the stamp of the version actually
                        // served — the oracle orders the read against
                        // writers by it, not by log position.
                        self.logs
                            .record_full(item, txn, AccessMode::Read, Some(served), true);
                        self.stats.implemented_ops.fetch_add(1, Ordering::Relaxed);
                        counters.implemented.fetch_add(1, Ordering::Relaxed);
                    }
                    reply.send(Some(
                        out.into_iter()
                            .map(|(item, value, _)| (item, value))
                            .collect(),
                    ))
                } else {
                    reply.send(None)
                }
            }
            ShardCmd::Crash { outage } => {
                // Unresponsive for the outage, then partial amnesia: the
                // ungranted tail of every queue is wiped. Lock removal may
                // re-grant survivors; those grants flow out like any
                // other replies/events.
                std::thread::sleep(outage);
                self.qm.crash_recover(&mut self.sink);
                self.fold_events();
                self.stats.shard_crashes.fetch_add(1, Ordering::Relaxed);
            }
            ShardCmd::PresentTxns(reply_to) => {
                let mut present = Vec::new();
                self.qm.present_txns_into(&mut present);
                reply_to.send(present)
            }
            ShardCmd::Cleanup(txns) => {
                let mut cleaned = 0u64;
                for txn in txns {
                    cleaned += self.qm.cleanup_txn(txn, &mut self.sink);
                }
                self.fold_events();
                if cleaned > 0 {
                    self.stats
                        .cleanup_aborts
                        .fetch_add(cleaned, Ordering::Relaxed);
                }
            }
            ShardCmd::WaitEdges(reply_to) => {
                let mut edges = Vec::new();
                self.qm.wait_edges_into(&mut edges);
                reply_to.send(edges)
            }
            ShardCmd::Waiting(reply_to) => {
                let mut waiting = Vec::new();
                self.qm.waiting_txns_into(&mut waiting);
                reply_to.send(waiting)
            }
            ShardCmd::LogSnapshot(reply_to) => reply_to.send(self.logs.clone()),
            ShardCmd::Shutdown => self.shutdown = true,
        }
    }
}

/// Record one `ShardRecv` per drained batch: the trace plane sees when
/// the shard woke and how many protocol commands the wakeup amortised,
/// at the cost of one clock read for the whole batch.
fn trace_batch(plane: &TracePlane, lane: usize, buf: &[ShardCmd]) {
    if plane.level() == TraceLevel::Off {
        return;
    }
    let mut txn = 0u64;
    let mut protocol_cmds = 0u32;
    for cmd in buf {
        let first = match cmd {
            ShardCmd::HandleBatch { msgs, .. } => msgs.iter().next().map(|m| m.txn().0),
            ShardCmd::ApplyConfluent { txn, .. } => Some(txn.0),
            ShardCmd::SnapshotRead { txn, .. } => Some(txn.0),
            _ => None,
        };
        if let Some(first) = first {
            if protocol_cmds == 0 {
                txn = first;
            }
            protocol_cmds += 1;
        }
    }
    if protocol_cmds > 0 {
        plane.record(lane, txn, Phase::ShardRecv, protocol_cmds);
    }
}

fn shard_loop(
    qm: QueueManager,
    idx: usize,
    mut inbox: ShardInbox,
    registry: Arc<Registry>,
    stats: Arc<RuntimeStats>,
    plane: Arc<TracePlane>,
    clock: Arc<CommitClock>,
) -> (SiteId, LogSet) {
    let site = qm.site();
    let mut state = ShardState {
        qm,
        logs: LogSet::new(),
        // Pre-size to the drain buffer's depth so the first batches skip
        // the sink's warm-up growth.
        sink: QmSink::with_capacity(64, 64),
        stats: &stats,
        plane: &plane,
        clock: &clock,
        idx,
        shutdown: false,
    };
    let mut buf: Vec<ShardCmd> = Vec::with_capacity(64);
    // Retained grouping scratch for the reply flushes: the flush path
    // pays no allocation per drained batch.
    let mut reply_groups = Vec::with_capacity(16);
    // Exiting on a closed inbox (all senders dropped) covers the case of
    // a `Database` dropped without an explicit shutdown.
    loop {
        buf.clear();
        if inbox.drain_blocking(&mut buf).is_err() {
            break;
        }
        trace_batch(&plane, idx, &buf);
        // Republish the read watermark once per drained batch: pruning a
        // stale (lower) watermark only retains more versions, never
        // fewer, so a batch-granularity refresh is always safe.
        state.qm.set_watermark(clock.watermark());
        for cmd in buf.drain(..) {
            state.apply_cmd(cmd);
        }
        // Replies are flushed once per drained batch, straight from the
        // engine sink: one registry pass covers every reply the batch
        // produced, and — measured on a loaded single-CPU box — waking
        // waiters mid-batch lets them preempt the shard and roughly
        // halves throughput.
        if !state.sink.replies.is_empty() {
            registry.deliver_all_with(state.sink.replies.drain(..), &mut reply_groups);
        }
        if state.shutdown {
            // Drain-first shutdown: sweep and process everything already
            // enqueued (commands racing with the shutdown included) so no
            // committed write is dropped from the log.
            buf.clear();
            while inbox.drain_into(&mut buf) > 0 {
                trace_batch(&plane, idx, &buf);
                for cmd in buf.drain(..) {
                    state.apply_cmd(cmd);
                }
                buf.clear();
                if !state.sink.replies.is_empty() {
                    registry.deliver_all_with(state.sink.replies.drain(..), &mut reply_groups);
                }
            }
            break;
        }
    }
    (site, state.logs)
}

/// Build a connected sender/inbox pair for one shard.
pub(crate) fn inbox_pair(capacity: usize) -> (ShardSender, ShardInbox) {
    transport::ring::channel(capacity.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ClientMailbox;
    use dbmodel::{
        AccessMode, CcMethod, LogicalItemId, PhysicalItemId, Timestamp, TsTuple, TxnId, Value,
    };
    use std::time::Duration;
    use unified_cc::EnforcementMode;

    fn item() -> PhysicalItemId {
        PhysicalItemId::new(LogicalItemId(1), SiteId(0))
    }

    fn spawn_one() -> (ShardHandle, Arc<Registry>, Arc<RuntimeStats>) {
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(item(), 42, EnforcementMode::SemiLock);
        let registry = Arc::new(Registry::new(64));
        let stats = Arc::new(RuntimeStats::with_shards(1));
        let plane = Arc::new(TracePlane::new(&trace::TraceConfig::default(), 1));
        let (tx, rx) = inbox_pair(16);
        let handle = spawn(
            qm,
            0,
            rx,
            tx,
            Arc::clone(&registry),
            Arc::clone(&stats),
            plane,
            Arc::new(CommitClock::new()),
        );
        (handle, registry, stats)
    }

    fn expect_replies(mb: &mut ClientMailbox, txn: u64) {
        match mb.recv_timeout(txn, Duration::from_secs(2)) {
            Some(crate::registry::ClientEvent::Replies(_)) => {}
            other => panic!("expected replies, got {other:?}"),
        }
    }

    fn access(txn: u64, mode: AccessMode, ts: u64) -> RequestMsg {
        RequestMsg::Access {
            txn: TxnId(txn),
            item: item(),
            mode,
            method: CcMethod::TwoPhaseLocking,
            ts: TsTuple::new(Timestamp(ts), 10),
        }
    }

    fn release(txn: u64, value: Value) -> RequestMsg {
        RequestMsg::Release {
            txn: TxnId(txn),
            item: item(),
            write_value: Some(value),
            commit_ts: Timestamp::ZERO,
        }
    }

    fn batch<const N: usize>(msgs: [RequestMsg; N]) -> ShardCmd {
        ShardCmd::HandleBatch {
            origin: SiteId(0),
            msgs: msgs.into_iter().collect(),
        }
    }

    #[test]
    fn shard_grants_logs_and_shuts_down() {
        let (handle, registry, stats) = spawn_one();
        let mut mb = registry.client_mailbox().expect("mailbox");
        registry.register(TxnId(1), CcMethod::TwoPhaseLocking, &mut mb);
        handle
            .tx
            .send(batch([access(1, AccessMode::Write, 1)]))
            .map_err(|_| ())
            .unwrap();
        // The grant is routed through the registry.
        expect_replies(&mut mb, 1);
        handle
            .tx
            .send(batch([release(1, 7)]))
            .map_err(|_| ())
            .unwrap();
        let (log_tx, log_rx) = transport::oneshot::channel();
        handle
            .tx
            .send(ShardCmd::LogSnapshot(log_tx))
            .map_err(|_| ())
            .unwrap();
        let logs = log_rx.recv().unwrap();
        assert_eq!(logs.total_ops(), 1);
        let _ = handle.tx.send(ShardCmd::Shutdown);
        let (site, logs) = handle.join.join().unwrap();
        assert_eq!(site, SiteId(0));
        assert_eq!(logs.total_ops(), 1);
        assert_eq!(stats.grants.load(Ordering::Relaxed), 1);
        assert_eq!(stats.implemented_ops.load(Ordering::Relaxed), 1);
        let shard0 = &stats.snapshot().per_shard[0];
        assert_eq!(shard0.grants, 1);
        assert_eq!(shard0.implemented, 1);
        assert_eq!(shard0.prescheduled, 0, "uncontended grant is normal");
        assert_eq!(shard0.aborts, 0);
    }

    #[test]
    fn shard_exits_when_all_senders_drop() {
        let (handle, _registry, _stats) = spawn_one();
        drop(handle.tx);
        let (_, logs) = handle.join.join().unwrap();
        assert_eq!(logs.total_ops(), 0);
    }

    #[test]
    fn handle_batch_applies_messages_in_order() {
        let (handle, registry, stats) = spawn_one();
        let mut mb = registry.client_mailbox().expect("mailbox");
        registry.register(TxnId(1), CcMethod::TwoPhaseLocking, &mut mb);
        handle
            .tx
            .send(batch([access(1, AccessMode::Write, 1), release(1, 9)]))
            .map_err(|_| ())
            .unwrap();
        expect_replies(&mut mb, 1);
        let _ = handle.tx.send(ShardCmd::Shutdown);
        let (_, logs) = handle.join.join().unwrap();
        assert_eq!(logs.total_ops(), 1, "access then release implemented");
        assert_eq!(stats.implemented_ops.load(Ordering::Relaxed), 1);
    }

    /// Regression: a `Shutdown` ordered *ahead of* enqueued
    /// `HandleBatch` commands from other senders must not abandon them —
    /// the shard drains the inbox before exiting. The inbox is pre-filled
    /// before the shard thread even starts, so the first wakeup drains
    /// one buffer shaped `[25 txns, Shutdown, 25 txns]`; a naive `break`
    /// on seeing `Shutdown` would drop every release behind it and lose
    /// committed writes from the final log.
    #[test]
    fn shutdown_drains_commands_enqueued_around_it() {
        const TXNS: u64 = 50;
        let mut qm = QueueManager::new(SiteId(0));
        qm.add_item(item(), 42, EnforcementMode::SemiLock);
        let registry = Arc::new(Registry::new(64));
        let stats = Arc::new(RuntimeStats::with_shards(1));
        let (tx, inbox) = inbox_pair(128);
        for t in 1..=TXNS {
            tx.try_send(batch([
                access(t, AccessMode::Write, t),
                release(t, t as Value),
            ]))
            .map_err(|_| ())
            .unwrap();
            if t == TXNS / 2 {
                // Another sender's shutdown lands mid-stream.
                tx.try_send(ShardCmd::Shutdown).map_err(|_| ()).unwrap();
            }
        }
        let handle = spawn(
            qm,
            0,
            inbox,
            tx.clone(),
            Arc::clone(&registry),
            Arc::clone(&stats),
            Arc::new(TracePlane::new(&trace::TraceConfig::default(), 1)),
            Arc::new(CommitClock::new()),
        );
        let (_, logs) = handle.join.join().unwrap();
        assert_eq!(
            logs.total_ops(),
            TXNS as usize,
            "every enqueued release must be implemented"
        );
        assert_eq!(stats.implemented_ops.load(Ordering::Relaxed), TXNS);
    }
}
