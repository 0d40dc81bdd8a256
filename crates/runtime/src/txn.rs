//! [`ActiveTxn`]: a transaction the pipeline admitted, between
//! [`Database::begin`] and its commit or abort. A *served* handle holds
//! reads a coordination-free round trip already answered (a snapshot read,
//! or a fast-path apply inside [`Database::execute`]), so commit is local
//! accounting and abort has nothing to send. A *live* handle holds a
//! coordinated request issuer in its execution phase and its reply
//! mailbox: commit runs the release conversation, abort drops every lock.

use std::collections::BTreeMap;

use dbmodel::{AccessMode, CcMethod, LogicalItemId, TxnId, Value};
use trace::{Phase, SpanTimings, ABORT_COMMIT_UNACKNOWLEDGED, ABORT_SHUTTING_DOWN, ABORT_USER};

use crate::db::Database;
use crate::path::{Bypass, End, Incarnation};
use crate::spec::{TxnError, TxnReceipt, TxnSpec};

/// A transaction in its execution phase: every request granted, read values
/// available, writes stageable. Created by [`Database::begin`]; ends with
/// [`ActiveTxn::commit`] or [`ActiveTxn::abort`] (dropping it aborts).
pub struct ActiveTxn {
    db: Database,
    handle: Handle,
    id: TxnId,
    reads: BTreeMap<LogicalItemId, Value>,
    /// The client's trace lane, fixed at begin.
    lane: usize,
    finished: bool,
}

// A live handle is far larger than a served one; boxing it would only add
// an allocation to the coordinated path.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Handle {
    Served(Bypass),
    Live(Incarnation),
}

impl ActiveTxn {
    pub(crate) fn new(
        db: Database,
        handle: Handle,
        id: TxnId,
        reads: BTreeMap<LogicalItemId, Value>,
        lane: usize,
    ) -> Self {
        ActiveTxn {
            db,
            handle,
            id,
            reads,
            lane,
            finished: false,
        }
    }

    /// True when this transaction's reads came from the MVCC snapshot
    /// plane (see [`Database::begin`]).
    pub fn is_snapshot(&self) -> bool {
        matches!(self.handle, Handle::Served(Bypass::Snapshot))
    }

    /// The id of this incarnation.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The concurrency-control method this incarnation runs under (the
    /// default method as a placeholder on a served handle).
    pub fn method(&self) -> CcMethod {
        match &self.handle {
            Handle::Served(_) => CcMethod::TwoPhaseLocking,
            Handle::Live(inc) => inc.ri.txn().method,
        }
    }

    /// The value read for a logical item, if it is in the read set.
    pub fn read(&self, item: LogicalItemId) -> Option<Value> {
        self.reads.get(&item).copied()
    }

    /// All values read, keyed by logical item.
    pub fn reads(&self) -> &BTreeMap<LogicalItemId, Value> {
        &self.reads
    }

    /// Stage the value this transaction writes to `item` at commit.
    pub fn write(&mut self, item: LogicalItemId, value: Value) -> Result<(), TxnError> {
        match &mut self.handle {
            Handle::Live(inc) if inc.ri.txn().mode_for(item) == Some(AccessMode::Write) => {
                inc.staged.insert(item, value);
                Ok(())
            }
            _ => Err(TxnError::NotInWriteSet(item)),
        }
    }

    /// Stage `spec`'s adds (per-item deltas on the value each write grant
    /// carried) and puts on a live handle; a served handle has none left.
    pub(crate) fn stage_confluent(&mut self, spec: &TxnSpec) -> Result<(), TxnError> {
        if let Handle::Served(_) = self.handle {
            return Ok(());
        }
        let mut deltas: BTreeMap<LogicalItemId, Value> = BTreeMap::new();
        for &(item, delta) in &spec.adds {
            let slot = deltas.entry(item).or_insert(0);
            *slot = slot.wrapping_add(delta);
        }
        for (item, delta) in deltas {
            let base = self.read(item).unwrap_or(0);
            self.write(item, base.wrapping_add(delta))?;
        }
        for &(item, value) in &spec.puts {
            self.write(item, value)?;
        }
        Ok(())
    }

    /// Commit: install the staged writes, release every lock, return the
    /// receipt. Blocks until the release conversation completes (for T/O
    /// transactions that executed on pre-scheduled locks this waits for the
    /// trailing normal grants, per the semi-lock protocol).
    pub fn commit(mut self) -> Result<TxnReceipt, TxnError> {
        self.finished = true;
        let (db, id, method) = (&self.db, self.id, self.method());
        let mut receipt = TxnReceipt {
            id,
            method,
            restarts: 0,
            reads: std::mem::take(&mut self.reads),
            fastpath: false,
            snapshot: false,
        };
        let inc = match &mut self.handle {
            Handle::Served(route) => {
                db.end(self.lane, id, End::Committed);
                receipt.fastpath = *route == Bypass::FastPath;
                receipt.snapshot = *route == Bypass::Snapshot;
                return Ok(receipt);
            }
            Handle::Live(inc) => inc,
        };
        let plane = &db.inner.trace;
        let t_commit_start = plane.now();
        plane.record_at(self.lane, t_commit_start, id.0, Phase::CommitStart, 0);
        for (&item, &value) in &inc.staged {
            inc.ri.set_write_value(item, value);
        }
        // A writing commit draws its global stamp before any release or
        // demote is built: every install carries `cts`, and the stamp stays
        // in flight — holding the read watermark below it — until the
        // installs are enqueued at every owning shard.
        let cts = (!inc.ri.txn().write_set().is_empty()).then(|| {
            let cts = db.inner.clock.draw();
            inc.ri.set_commit_ts(cts);
            cts
        });
        let released = db.release(inc);
        db.inner.registry.deregister(id);
        if let Err(err) = released {
            // Deliberately NOT retiring `cts`: the commit is decided but
            // unacknowledged, so the read watermark stalls below it and
            // snapshot reads keep serving the last provably consistent
            // prefix (see [`crate::clock::CommitClock`]).
            let reason = match err {
                TxnError::ShardUnavailable => ABORT_COMMIT_UNACKNOWLEDGED,
                _ => ABORT_SHUTTING_DOWN,
            };
            db.end(self.lane, id, End::Aborted(reason));
            return Err(err);
        }
        // Every release/demote is now enqueued at its owning shard, so a
        // watermark load that observes the retired stamp happens-after the
        // enqueues, and FIFO order puts the installs ahead of any snapshot.
        if let Some(cts) = cts {
            db.inner.clock.retire(cts);
        }
        // Recorded into this thread's own metric stripe: no lock shared
        // with admission or the epoch re-fit.
        let latency = simkit::time::Duration::from_secs_f64(inc.begun.elapsed().as_secs_f64());
        db.inner.metrics.with_local(|m| {
            m.record_commit(method, latency);
            m.record_lock_hold(method, latency, false);
        });
        let timings = SpanTimings {
            commit_start: t_commit_start,
            committed: db.end(self.lane, id, End::Committed),
            ..inc.timings
        };
        plane.record_span(method, &timings);
        receipt.restarts = inc.restarts;
        Ok(receipt)
    }

    /// Abort: drop every lock and queue entry without implementing
    /// anything.
    pub fn abort(mut self) {
        self.abort_inner();
    }

    fn abort_inner(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let id = self.id;
        // A served handle holds nothing anywhere; its logged reads
        // observed committed state and are harmless to leave behind.
        if let Handle::Live(inc) = &self.handle {
            self.db.send_aborts(&inc.ri);
            self.db.inner.registry.deregister(id);
        }
        self.db.end(self.lane, id, End::Aborted(ABORT_USER));
    }
}

impl Drop for ActiveTxn {
    fn drop(&mut self) {
        self.abort_inner();
    }
}

impl std::fmt::Debug for ActiveTxn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveTxn")
            .field("id", &self.id)
            .field("method", &self.method())
            .field("snapshot", &self.is_snapshot())
            .finish()
    }
}
