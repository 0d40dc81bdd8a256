//! The execution pipeline. [`Database::begin`] and [`Database::execute`]
//! compute a spec's shape once and try the eligible routes in order: a
//! **snapshot** read, the **fast path** (`execute` only), then a
//! **coordinated** request-issuer incarnation. Each route is one function
//! returning the next step as an [`Attempt`], in the sans-IO style of the
//! request issuer: `Refused` moves on to the next route under a fresh id,
//! `Retry` re-runs the coordinated route under a fresh id and timestamp.
//! One loop (`Database::admit`) owns the fallback and the restart/timeout
//! budget; `Database::end` is the one place an incarnation's end is
//! counted and its terminal trace event recorded.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dbmodel::{
    AccessMode, LogicalItemId, PhysicalItemId, SiteId, Timestamp, Transaction, TsTuple, TxnId,
    Value,
};
use metrics::TxnOutcome;
use pam::{ReplyMsg, RequestMsg};
use selection::{classify, is_read_only, Confluence};
use trace::{
    Phase, SpanTimings, ABORT_COMMIT_UNACKNOWLEDGED, ABORT_REQUEST_TIMEOUT, ABORT_SHUTTING_DOWN,
    ABORT_USER, SELECTION_CACHE_HIT,
};
use transport::oneshot::RecvError;
use unified_cc::{ConfluentOp, RequestIssuer, RiAction, RiOutput, RiPhase};

use crate::db::{method_code, Database};
use crate::registry::{ClientEvent, ClientMailbox};
use crate::shard::{self, ServedReply, ShardCmd};
use crate::spec::{TxnError, TxnSpec};
use crate::txn::{ActiveTxn, Handle};

/// How often a blocked client re-checks whether the database is shutting
/// down underneath it.
const SHUTDOWN_POLL: Duration = Duration::from_millis(50);

/// The next step after one attempt on one route (moved once, so unboxed).
#[allow(clippy::large_enum_variant)]
pub(crate) enum Attempt {
    /// The route admitted the transaction.
    Done(ActiveTxn),
    /// The route cannot take this transaction.
    Refused,
    /// The coordinated incarnation ended before its execution phase.
    Retry(Retry),
}

/// What the loop's bookkeeping needs to account for a [`Attempt::Retry`].
pub(crate) struct Retry {
    ri: RequestIssuer,
    /// A restart, [`ABORT_REQUEST_TIMEOUT`] or [`ABORT_SHUTTING_DOWN`].
    end: End,
    t_begin: u64,
    begun: Instant,
}

/// The coordination-free routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bypass {
    Snapshot,
    FastPath,
}

/// A coordinated incarnation in its execution phase (every request
/// granted), with its reply mailbox and the writes staged so far.
pub(crate) struct Incarnation {
    pub(crate) ri: RequestIssuer,
    pub(crate) events: ClientMailbox,
    pub(crate) staged: BTreeMap<LogicalItemId, Value>,
    pub(crate) begun: Instant,
    pub(crate) restarts: u32,
    /// Boundary timestamps up to execution start; commit fills the rest.
    pub(crate) timings: SpanTimings,
}

/// How an incarnation ended.
#[derive(Clone, Copy)]
pub(crate) enum End {
    Committed,
    /// Restarts: a T/O rejection, or a deadlock victim.
    Rejected,
    Victim,
    /// Ended without committing or restarting; the `ABORT_*` reason code.
    Aborted(u32),
}

/// What a bounded mailbox wait woke up to.
#[allow(clippy::large_enum_variant)]
enum Wake {
    Event(ClientEvent),
    Expired,
    Stopped,
}

impl Database {
    /// Admit `spec` through the first eligible route that takes it (see
    /// the module docs). `fastpath` offers the confluent bypass, which
    /// commits as it applies and so belongs to [`Database::execute`].
    pub(crate) fn admit(&self, spec: &TxnSpec, fastpath: bool) -> Result<ActiveTxn, TxnError> {
        let config = &self.inner.config;
        // Pure classification, identical to the verdicts the routed
        // selection cache memoizes, so routing never takes the selector
        // mutex. A pinned method opts out of both bypasses.
        let (profile, reads, writes) = spec.shape();
        let free = spec.method.is_none();
        let snapshot = free && config.snapshot_reads && is_read_only(profile, reads, writes);
        let fastpath = fastpath
            && free
            && config.confluence_fastpath
            && classify(profile, reads, writes) == Confluence::ConfluentFastPath;
        let mut routes = [(snapshot, Bypass::Snapshot), (fastpath, Bypass::FastPath)]
            .into_iter()
            .filter_map(|(eligible, route)| eligible.then_some(route));
        let lane = self.inner.trace.client_lane();
        // One reply mailbox, re-armed for every coordinated incarnation.
        let mut mailbox = None;
        let mut restarts = 0;
        loop {
            let step = match routes.next() {
                Some(Bypass::Snapshot) => self.snapshot_attempt(spec, lane)?,
                Some(Bypass::FastPath) => self.fastpath_attempt(spec, lane)?,
                None => self.coordinated_attempt(spec, &mut mailbox, restarts, lane)?,
            };
            match step {
                Attempt::Done(txn) => return Ok(txn),
                Attempt::Refused => {}
                Attempt::Retry(retry) => {
                    restarts += 1;
                    self.account_retry(retry, restarts, lane)?;
                }
            }
        }
    }

    /// The loop's bookkeeping for an incarnation that ended before
    /// executing (`restarts` already counts it): deregister, account the
    /// end, then fail on an exhausted budget or pause before the next
    /// incarnation.
    fn account_retry(&self, retry: Retry, restarts: u32, lane: usize) -> Result<(), TxnError> {
        let (inner, txn, method) = (&self.inner, retry.ri.txn_id(), retry.ri.txn().method);
        if let End::Aborted(ABORT_REQUEST_TIMEOUT) = retry.end {
            // Nothing of the incarnation was implemented; abort its
            // residual queue state.
            self.send_aborts(&retry.ri);
        }
        inner.registry.deregister(txn);
        let t_end = self.end(lane, txn, retry.end);
        let (exhausted, counter) = match retry.end {
            End::Rejected | End::Victim => {
                let outcome = match retry.end {
                    End::Rejected => TxnOutcome::RejectedRestart,
                    _ => TxnOutcome::DeadlockRestart,
                };
                let held = retry.begun.elapsed().as_secs_f64();
                inner.metrics.with_local(|m| {
                    m.record_restart(method, outcome);
                    m.record_lock_hold(method, simkit::time::Duration::from_secs_f64(held), true);
                });
                let span = t_end.saturating_sub(retry.t_begin);
                inner.trace.record_restart(method, span);
                let attempts = restarts;
                (TxnError::TooManyRestarts { attempts }, &inner.stats.failed)
            }
            // Exhausting the budget on timeouts is a clean failure:
            // nothing of this transaction was ever implemented.
            End::Aborted(ABORT_REQUEST_TIMEOUT) => {
                (TxnError::ShardUnavailable, &inner.stats.shard_unavailable)
            }
            _ => return Err(TxnError::ShuttingDown),
        };
        if restarts > inner.config.max_restarts {
            counter.fetch_add(1, Ordering::Relaxed);
            return Err(exhausted);
        }
        self.restart_pause(txn, restarts);
        Ok(())
    }

    /// The pipeline's one terminal-accounting point: count how incarnation
    /// `txn` ended and record its terminal trace event. Returns the
    /// event's timestamp.
    pub(crate) fn end(&self, lane: usize, txn: TxnId, end: End) -> u64 {
        let stats = &self.inner.stats;
        let (phase, arg, counter) = match end {
            End::Committed => (Phase::Committed, 0, Some(&stats.committed)),
            End::Rejected => (Phase::RestartRejected, 0, Some(&stats.rejected_restarts)),
            End::Victim => (Phase::RestartDeadlock, 0, Some(&stats.deadlock_restarts)),
            End::Aborted(r @ ABORT_USER) => (Phase::Aborted, r, Some(&stats.user_aborts)),
            End::Aborted(r @ ABORT_COMMIT_UNACKNOWLEDGED) => {
                (Phase::Aborted, r, Some(&stats.shard_unavailable))
            }
            End::Aborted(r @ ABORT_REQUEST_TIMEOUT) => {
                (Phase::Aborted, r, Some(&stats.timeout_restarts))
            }
            End::Aborted(r) => (Phase::Aborted, r, None),
        };
        if let Some(counter) = counter {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        let plane = &self.inner.trace;
        let at = plane.now();
        plane.record_at(lane, at, txn.0, phase, arg);
        at
    }

    /// The coordinated route: one request-issuer incarnation, driven from
    /// translation through selection and the access fan-out to its
    /// execution phase or an early end.
    fn coordinated_attempt(
        &self,
        spec: &TxnSpec,
        mailbox: &mut Option<ClientMailbox>,
        restarts: u32,
        lane: usize,
    ) -> Result<Attempt, TxnError> {
        let inner = &self.inner;
        if inner.stopped.load(Ordering::Relaxed) {
            return Err(TxnError::ShuttingDown);
        }
        let events = match mailbox {
            Some(events) => events,
            None => mailbox.insert(inner.registry.client_mailbox()?),
        };
        let plane = &inner.trace;
        let mut timings = SpanTimings {
            begin: plane.now(),
            ..SpanTimings::default()
        };
        let (txn_id, origin) = self.assign(spec);
        let mut txn = Transaction::builder(txn_id, origin)
            .reads(spec.reads.iter().copied())
            .writes(spec.write_items())
            .build();
        // Translated before selection: a spec naming an unknown item
        // fails here, before any selection, tally or trace event.
        let accesses: Vec<(PhysicalItemId, AccessMode)> = inner
            .catalog
            .translate_txn(&txn)
            .map_err(TxnError::UnknownItem)?
            .into_iter()
            .map(|op| (op.item, op.mode))
            .collect();
        let hits_before = inner.stats.cache_hits.load(Ordering::Relaxed);
        let method = spec.method.unwrap_or_else(|| self.pick_method(spec));
        txn.method = method;
        timings.selection_done = plane.now();
        // Approximate under concurrency (the mirror is global), exact on
        // one thread: good enough for the selection-done hit flag.
        let cache_hit = inner.stats.cache_hits.load(Ordering::Relaxed) > hits_before;
        plane.record_at(lane, timings.begin, txn_id.0, Phase::Begin, restarts);
        let sel_arg = method_code(method) | if cache_hit { SELECTION_CACHE_HIT } else { 0 };
        let t_sel = timings.selection_done;
        plane.record_at(lane, t_sel, txn_id.0, Phase::SelectionDone, sel_arg);
        let ts = Timestamp(inner.ts_counter.fetch_add(1, Ordering::Relaxed) + 1);
        if inner.registry.register(txn_id, method, events) {
            // Falling onto the overflow map degrades the reply plane: worth
            // a flight-recorder dump (latched; no-op without a dump dir).
            let _ = plane.trigger_postmortem("mailbox-overflow");
        }
        let backoff = inner.config.pa_backoff_interval;
        let mut ri = RequestIssuer::new(txn, TsTuple::new(ts, backoff), accesses);
        let begun = Instant::now();
        let out = ri.start();
        let n_sends = out.sends.len() as u32;
        let executing = match self.route_all(origin, out.sends) {
            Err(_) => Err(End::Aborted(ABORT_SHUTTING_DOWN)),
            Ok(()) => {
                let t_enq = plane.now();
                timings.enqueued = t_enq;
                plane.record_at(lane, t_enq, txn_id.0, Phase::TransportEnqueued, n_sends);
                self.await_execution(&mut ri, events, lane)
            }
        };
        if let Err(end) = executing {
            let t_begin = timings.begin;
            return Ok(Attempt::Retry(Retry {
                ri,
                end,
                t_begin,
                begun,
            }));
        }
        timings.exec_start = plane.now();
        plane.record_at(lane, timings.exec_start, txn_id.0, Phase::ExecutionStart, 0);
        let reads = ri.read_results().iter();
        let reads = reads.map(|(item, &value)| (item.logical, value)).collect();
        let handle = Handle::Live(Incarnation {
            ri,
            events: mailbox.take().expect("acquired above"),
            staged: BTreeMap::new(),
            begun,
            restarts,
            timings,
        });
        let txn = ActiveTxn::new(self.clone(), handle, txn_id, reads, lane);
        Ok(Attempt::Done(txn))
    }

    /// Drive `ri` on its mailbox until it starts executing, or say how it
    /// ended first.
    fn await_execution(
        &self,
        ri: &mut RequestIssuer,
        events: &mut ClientMailbox,
        lane: usize,
    ) -> Result<(), End> {
        if ri.phase() == RiPhase::Executing {
            return Ok(()); // a degenerate empty transaction starts at once
        }
        let inner = &self.inner;
        let (txn, origin, method) = (ri.txn_id(), ri.txn().origin, ri.txn().method);
        // One request outcome is recorded per item per incarnation (the
        // reply to the initial `Access`), matching the simulator's
        // accounting; later replies for the same item (backoff re-grants,
        // normal-grant upgrades) would otherwise skew the denial
        // probabilities the STL selector consumes.
        let mut outcome_seen: HashSet<PhysicalItemId> = HashSet::new();
        // Replies may keep trickling in (partial grants) without
        // execution ever starting — a dropped Access or a crashed shard
        // strands the incarnation — so the deadline bounds every pass.
        let deadline = Instant::now() + inner.config.request_timeout;
        loop {
            let event = match self.next_event(events, txn, deadline) {
                Wake::Event(event) => event,
                Wake::Expired => return Err(End::Aborted(ABORT_REQUEST_TIMEOUT)),
                Wake::Stopped => return Err(End::Aborted(ABORT_SHUTTING_DOWN)),
            };
            // One event may carry several replies (a shard's batched
            // grants); their follow-up sends are routed in one batched
            // call after the whole event is absorbed.
            let mut outcome = None;
            let mut sends: Vec<RequestMsg> = Vec::new();
            let mut absorb = |out: RiOutput| {
                for action in &out.actions {
                    match action {
                        RiAction::StartExecution => outcome = Some(Ok(())),
                        RiAction::Restart { rejected: true } => outcome = Some(Err(End::Rejected)),
                        RiAction::Restart { rejected: false } => outcome = Some(Err(End::Victim)),
                        RiAction::BackoffRound => {
                            inner.stats.backoff_rounds.fetch_add(1, Ordering::Relaxed);
                            inner.metrics.with_local(|m| m.record_backoff_round(method));
                            inner.trace.record(lane, txn.0, Phase::BackoffRound, 0);
                        }
                        RiAction::Committed | RiAction::FullyReleased => {
                            unreachable!("not executing")
                        }
                    }
                }
                sends.extend(out.sends);
            };
            match event {
                ClientEvent::Replies(replies) => {
                    for reply in replies.iter() {
                        let first_for_item = outcome_seen.insert(reply.item());
                        self.observe_reply(ri, reply, first_for_item);
                        absorb(ri.on_reply(reply));
                    }
                }
                ClientEvent::DeadlockVictim => absorb(ri.abort_for_deadlock()),
            }
            if self.route_all(origin, sends).is_err() {
                return Err(End::Aborted(ABORT_SHUTTING_DOWN));
            }
            if let Some(outcome) = outcome {
                return outcome;
            }
        }
    }

    /// Per-reply metric accounting (feeds the STL estimators).
    /// `first_for_item` is true for the first reply this incarnation
    /// received for the item — only that one counts as a request outcome.
    fn observe_reply(&self, ri: &RequestIssuer, reply: &ReplyMsg, first_for_item: bool) {
        let method = ri.txn().method;
        // A backoff proposal lifts the global timestamp clock (Lamport
        // style): the proposing queue's thresholds sit at `new_ts`, and
        // without adoption a T/O transaction retrying against that item
        // would crawl towards it one tick per incarnation and exhaust its
        // restart budget.
        if let ReplyMsg::Backoff { new_ts, .. } = reply {
            self.inner.ts_counter.fetch_max(new_ts.0, Ordering::Relaxed);
        }
        let mode = ri
            .accessed_items()
            .find(|(item, _)| *item == reply.item())
            .map(|(_, mode)| mode)
            .unwrap_or(AccessMode::Read);
        self.inner.metrics.with_local(|m| {
            if let ReplyMsg::Grant { value, .. } = reply {
                // Counted per issued grant (value-carrying grants
                // correspond to the queue's `GrantIssued` events;
                // normal-grant upgrades carry no value and are not new
                // grants).
                if value.is_some() {
                    m.record_grant(reply.item(), mode);
                }
            }
            if first_for_item {
                let denied = matches!(reply, ReplyMsg::Reject { .. } | ReplyMsg::Backoff { .. });
                m.record_request_outcome(method, mode, denied);
            }
        });
    }

    /// Run an executed issuer's release conversation to its end, bounded
    /// by `commit_timeout`: T/O transactions that executed on
    /// pre-scheduled locks wait here for trailing normal grants. Every
    /// write is implemented before this waits (the releases travel the
    /// reliable channel), so expiry is *decided but unacknowledged* —
    /// `ShardUnavailable`, never a partial commit.
    pub(crate) fn release(&self, inc: &mut Incarnation) -> Result<(), TxnError> {
        let origin = inc.ri.txn().origin;
        let out = inc.ri.on_execution_done();
        let mut released = out.actions.contains(&RiAction::FullyReleased);
        self.route_all(origin, out.sends)?;
        let deadline = Instant::now() + self.inner.config.commit_timeout;
        while !released {
            let replies = match self.next_event(&mut inc.events, inc.ri.txn_id(), deadline) {
                Wake::Event(ClientEvent::Replies(replies)) => replies,
                // Executing or releasing transactions cannot be victims.
                Wake::Event(ClientEvent::DeadlockVictim) => continue,
                // Shutdown drains every release already enqueued.
                Wake::Stopped => break,
                Wake::Expired => return Err(TxnError::ShardUnavailable),
            };
            let mut sends: Vec<RequestMsg> = Vec::new();
            for reply in replies.iter() {
                let out = inc.ri.on_reply(reply);
                released |= out.actions.contains(&RiAction::FullyReleased);
                sends.extend(out.sends);
            }
            self.route_all(origin, sends)?;
        }
        Ok(())
    }

    /// The bounded mailbox wait: the next event for `txn`, re-checking
    /// for shutdown every [`SHUTDOWN_POLL`] and giving up at `deadline`.
    fn next_event(&self, events: &mut ClientMailbox, txn: TxnId, deadline: Instant) -> Wake {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Wake::Expired;
            }
            if let Some(event) = events.recv_timeout(txn.0, left.min(SHUTDOWN_POLL)) {
                return Wake::Event(event);
            }
            if self.inner.stopped.load(Ordering::Relaxed) {
                return Wake::Stopped;
            }
        }
    }

    /// The snapshot route: serve a read-only spec from the version chains
    /// at one load of the global read watermark. A write's stamp retires
    /// only after its installs are enqueued at every owning shard, so FIFO
    /// order puts every install the watermark covers ahead of this
    /// command: one watermark cuts a transaction-consistent prefix. A shard
    /// whose chain was pruned past the watermark refuses.
    fn snapshot_attempt(&self, spec: &TxnSpec, lane: usize) -> Result<Attempt, TxnError> {
        let inner = &self.inner;
        let t_begin = inner.trace.now();
        let (txn, origin) = self.assign(spec);
        let ts = inner.clock.watermark();
        let items = spec
            .reads
            .iter()
            .map(|&item| inner.catalog.read_copy(item, origin).map(|c| (c.site, c)))
            .collect::<Result<_, _>>()
            .map_err(TxnError::UnknownItem)?;
        let cmd = |items, reply| ShardCmd::SnapshotRead {
            txn,
            ts,
            items,
            reply,
        };
        self.round_trip(Bypass::Snapshot, txn, t_begin, lane, items, cmd)
    }

    /// The fast path: apply a confluent spec through the owning shard's
    /// direct-apply bypass. Refused up front when a written item is
    /// replicated (only the coordinated path fans a write out) or, with the
    /// safety check on, when the footprint spans several sites (the bypass
    /// is atomic only within one shard's command order).
    fn fastpath_attempt(&self, spec: &TxnSpec, lane: usize) -> Result<Attempt, TxnError> {
        let inner = &self.inner;
        let t_begin = inner.trace.now();
        let (txn, origin) = self.assign(spec);
        let mut ops = Vec::with_capacity(spec.reads.len() + spec.adds.len() + spec.puts.len());
        for &item in &spec.reads {
            let copy = inner.catalog.read_copy(item, origin);
            let copy = copy.map_err(TxnError::UnknownItem)?;
            ops.push((copy.site, ConfluentOp::Read(copy)));
        }
        let single = |item| match inner.catalog.physical_copies(item) {
            Ok(copies) => Ok(<[PhysicalItemId; 1]>::try_from(copies).ok()),
            Err(e) => Err(TxnError::UnknownItem(e)),
        };
        for &(item, delta) in &spec.adds {
            let Some([copy]) = single(item)? else {
                return Ok(Attempt::Refused);
            };
            ops.push((copy.site, ConfluentOp::Add(copy, delta)));
        }
        for &(item, value) in &spec.puts {
            let Some([copy]) = single(item)? else {
                return Ok(Attempt::Refused);
            };
            ops.push((copy.site, ConfluentOp::Put(copy, value)));
        }
        let multi_site = ops.iter().any(|(site, _)| *site != ops[0].0);
        if inner.config.test_hooks.confluence_check && multi_site {
            return Ok(Attempt::Refused);
        }
        let cmd = |ops, reply| ShardCmd::ApplyConfluent { txn, ops, reply };
        self.round_trip(Bypass::FastPath, txn, t_begin, lane, ops, cmd)
    }

    /// The round trip both bypasses share: ask each owning site the command
    /// `cmd` builds from its ops. A refusal goes on to the next route and
    /// traces nothing for the abandoned id. A shard silent past
    /// `diagnostic_timeout` fails the transaction with `ShardUnavailable`,
    /// never a fallback: a fast-path apply may still land later.
    fn round_trip<O>(
        &self,
        route: Bypass,
        txn: TxnId,
        t_begin: u64,
        lane: usize,
        ops: Vec<(SiteId, O)>,
        cmd: impl Fn(Vec<O>, ServedReply) -> ShardCmd,
    ) -> Result<Attempt, TxnError> {
        let (stats, plane) = (&self.inner.stats, &self.inner.trace);
        let n_ops = ops.len() as u32;
        let mut per_site: BTreeMap<SiteId, Vec<O>> = BTreeMap::new();
        for (site, op) in ops {
            per_site.entry(site).or_default().push(op);
        }
        let cmd = &cmd;
        let cmds = per_site
            .into_iter()
            .map(|(site, ops)| (self.inner.site_index[&site], move |reply| cmd(ops, reply)));
        let timeout = self.inner.config.diagnostic_timeout;
        let mut reads = BTreeMap::new();
        let mut refused = false;
        for answer in shard::ask(&self.inner.shard_txs, timeout, cmds) {
            match answer {
                Ok(Some(values)) => {
                    reads.extend(values.into_iter().map(|(item, v)| (item.logical, v)));
                }
                Ok(None) => refused = true,
                Err(RecvError::Disconnected) => return Err(TxnError::ShuttingDown),
                Err(RecvError::Timeout) => {
                    stats.shard_unavailable.fetch_add(1, Ordering::Relaxed);
                    return Err(TxnError::ShardUnavailable);
                }
            }
        }
        let (refusals, served, phase) = match route {
            Bypass::Snapshot => (
                &stats.snapshot_refused,
                &stats.snapshot_reads,
                Phase::SnapshotRead,
            ),
            Bypass::FastPath => (
                &stats.fastpath_refused,
                &stats.fastpath_applied,
                Phase::FastPathApplied,
            ),
        };
        if refused {
            refusals.fetch_add(1, Ordering::Relaxed);
            return Ok(Attempt::Refused);
        }
        served.fetch_add(1, Ordering::Relaxed);
        plane.record_at(lane, t_begin, txn.0, Phase::Begin, 0);
        plane.record_at(lane, plane.now(), txn.0, phase, n_ops);
        let served = ActiveTxn::new(self.clone(), Handle::Served(route), txn, reads, lane);
        Ok(Attempt::Done(served))
    }

    /// Draw a fresh incarnation id and the site it is issued from: the
    /// pinned origin, else round-robin by id.
    fn assign(&self, spec: &TxnSpec) -> (TxnId, SiteId) {
        let txn = TxnId(self.inner.next_txn_id.fetch_add(1, Ordering::Relaxed) + 1);
        let origin = spec
            .origin
            .unwrap_or_else(|| self.inner.catalog.origin_for(txn));
        (txn, origin)
    }

    /// Abort `ri`'s residual queue state at every item it accessed. Best
    /// effort: the Aborts cross the fault plane too, and the detector's
    /// stranded-transaction sweep covers whatever they do not reach.
    pub(crate) fn send_aborts(&self, ri: &RequestIssuer) {
        let txn = ri.txn_id();
        let aborts = ri.accessed_items();
        let aborts = aborts
            .map(|(item, _)| RequestMsg::Abort { txn, item })
            .collect();
        let _ = self.route_all(ri.txn().origin, aborts);
    }

    /// Exponential backoff with a deterministic per-transaction jitter.
    /// Basic T/O livelocks under sustained write contention unless retries
    /// are spread out (the losing transaction must reach every queue before
    /// a younger competitor does); doubling the pause up to ~128× the base
    /// creates the quiet windows it needs, and the jitter keeps two
    /// symmetric victims from re-colliding forever.
    fn restart_pause(&self, txn: TxnId, attempt: u32) {
        let base = self.inner.config.restart_backoff;
        if base.is_zero() {
            std::thread::yield_now();
            return;
        }
        let scaled = base.saturating_mul(1u32 << attempt.min(7));
        let jitter_us =
            (txn.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) % scaled.as_micros().max(1) as u64;
        std::thread::sleep(scaled + Duration::from_micros(jitter_us));
    }
}
