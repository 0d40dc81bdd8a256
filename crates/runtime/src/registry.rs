//! The live-transaction registry: the runtime's reply router.
//!
//! Shards and the deadlock detector address transactions by [`TxnId`];
//! the registry routes each event to the client thread driving that
//! incarnation. Entries are registered when an incarnation starts and
//! removed when it commits, aborts or restarts; events addressed to an
//! unknown — or no-longer-current — transaction are dropped, which is
//! exactly the "stale reply for an aborted incarnation" rule the
//! simulator implements.
//!
//! Every client holds a reusable [`transport::mailbox::Mailbox`]
//! acquired once per transaction from the shared slab and re-registered
//! across restart incarnations; delivery resolves `TxnId → (mailbox
//! slot, tag)` through the slab's packed atomic index — no registry
//! mutex, no channel allocation, no reply-path lock at all. The
//! incarnation tag is the transaction id itself (ids are a monotone
//! counter, never reused), carried inside every event and checked by the
//! consumer, so a delivery racing a restart can never leak a stale grant
//! into the next incarnation.
//!
//! On top of the slab the registry keeps the runtime's reply format: the
//! [`CcMethod`] packed into each registration's metadata (so the deadlock
//! detector resolves methods without a map), the per-flush grouping, and
//! the producer-side stale counter. [`Registry::deliver_all`] groups
//! **all** of a transaction's replies in one flush into a single
//! [`ClientEvent`] — not merely consecutive runs. A shard's drained batch
//! can interleave several transactions' replies (two clients'
//! `HandleBatch` commands alternating in one drain); the registry still
//! guarantees *one wakeup per transaction per flush*, with the
//! transaction's replies in processing order.

use std::sync::atomic::{AtomicU64, Ordering};

use dbmodel::{CcMethod, TxnId};
use pam::ReplyMsg;
use transport::batch::SmallBatch;
use transport::mailbox::{Mailbox, MailboxOptions, MailboxRegistry};

use crate::spec::TxnError;

/// An event delivered to the client thread driving one incarnation.
// The variant size gap is deliberate: reply batches travel inline so no
// heap allocation crosses the shard→client boundary, and the victim
// signal is rare enough that padding it costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum ClientEvent {
    /// One or more queue-manager replies for this incarnation, in
    /// processing order. A shard's batch flush groups every reply a
    /// transaction earned in one drained batch (e.g. all grants of a
    /// multi-item access phase at that shard) into a single event, so
    /// the waiting client is woken once per shard per flush, not once
    /// per item.
    Replies(SmallBatch<ReplyMsg>),
    /// The deadlock detector chose this incarnation as a victim.
    DeadlockVictim,
}

/// The per-client reply endpoint: a reusable slab mailbox, acquired once
/// per transaction and reused across its restart incarnations
/// ([`Registry::register`] re-arms it for each one). Its `recv_timeout`
/// takes the incarnation's id as the tag and discards events tagged for
/// earlier incarnations of the slot — the consumer half of the
/// stale-reply rule.
pub(crate) type ClientMailbox = Mailbox<ClientEvent>;

/// Shared router of live incarnations (see the module docs).
pub(crate) struct Registry {
    mailboxes: MailboxRegistry<ClientEvent>,
    /// Events dropped at delivery time because no live incarnation
    /// matched — the producer half of the stale-reply rule.
    dropped: AtomicU64,
}

/// `CcMethod` packed into the mailbox slab's registration metadata so
/// the deadlock detector's `method_of` resolves without any map.
fn method_meta(method: CcMethod) -> u64 {
    match method {
        CcMethod::TwoPhaseLocking => 1,
        CcMethod::TimestampOrdering => 2,
        CcMethod::PrecedenceAgreement => 3,
    }
}

fn meta_method(meta: u64) -> Option<CcMethod> {
    match meta {
        1 => Some(CcMethod::TwoPhaseLocking),
        2 => Some(CcMethod::TimestampOrdering),
        3 => Some(CcMethod::PrecedenceAgreement),
        _ => None,
    }
}

impl Registry {
    /// A registry with default sizing except `mailbox_capacity` — the
    /// shape the tests use. The runtime builds its registry through
    /// [`Registry::with_options`] from [`crate::RuntimeConfig`].
    #[cfg(test)]
    pub(crate) fn new(mailbox_capacity: usize) -> Self {
        Registry::with_options(MailboxOptions {
            mailbox_capacity,
            ..MailboxOptions::default()
        })
    }

    /// A registry whose mailbox slab and resizable index are sized by
    /// `opts`: `mailbox_capacity` must exceed the replies one incarnation
    /// can have outstanding while its client is between drains, or
    /// delivering shards briefly yield.
    pub(crate) fn with_options(opts: MailboxOptions) -> Self {
        Registry {
            mailboxes: MailboxRegistry::with_options(opts),
            dropped: AtomicU64::new(0),
        }
    }

    /// Hand out the reply endpoint a client thread drives one
    /// transaction (all its incarnations) through: a reusable slab slot.
    /// Fails with [`TxnError::ReplyPlaneExhausted`] when all `max_clients`
    /// mailboxes stay held past the acquire timeout.
    pub(crate) fn client_mailbox(&self) -> Result<ClientMailbox, TxnError> {
        self.mailboxes
            .acquire()
            .map_err(|e| TxnError::ReplyPlaneExhausted {
                max_clients: e.max_clients,
            })
    }

    /// Register a new incarnation on `mailbox`. Must complete before the
    /// incarnation's first request message is routed (the callers do:
    /// register, then `RequestIssuer::start`, then route).
    ///
    /// Returns `true` when the registration fell off the lock-free path
    /// onto the mailbox slab's overflow map (index at its growth ceiling
    /// with a live bucket collision) — the transition the caller reports
    /// via the trace plane.
    pub(crate) fn register(
        &self,
        txn: TxnId,
        method: CcMethod,
        mailbox: &mut ClientMailbox,
    ) -> bool {
        self.mailboxes.register(txn.0, method_meta(method), mailbox)
    }

    /// Remove an incarnation (commit, abort or restart).
    pub(crate) fn deregister(&self, txn: TxnId) {
        self.mailboxes.deregister(txn.0)
    }

    /// Number of live incarnations.
    pub(crate) fn len(&self) -> usize {
        self.mailboxes.len()
    }

    /// Deliver a batch of replies — the shard loop flushes all replies
    /// produced by one drained command batch this way. Every reply a
    /// transaction earned in the flush is grouped into one
    /// [`ClientEvent::Replies`] (one wakeup per transaction per flush,
    /// even when different transactions' replies interleave), with the
    /// transaction's replies kept in processing order. No lock is taken.
    ///
    /// Allocation-conscious callers (the shard loop) use
    /// [`Registry::deliver_all_with`] with a retained scratch buffer;
    /// this convenience form allocates a fresh one.
    #[cfg(test)]
    pub(crate) fn deliver_all<I: IntoIterator<Item = ReplyMsg>>(&self, replies: I) {
        self.deliver_all_with(replies, &mut Vec::new());
    }

    /// [`Registry::deliver_all`] with a caller-retained scratch buffer
    /// for the per-transaction groups, so a hot flush path pays no heap
    /// allocation for the grouping (the inline `SmallBatch` runs already
    /// cross for free). `scratch` is left empty with its capacity
    /// intact.
    pub(crate) fn deliver_all_with<I: IntoIterator<Item = ReplyMsg>>(
        &self,
        replies: I,
        scratch: &mut Vec<(TxnId, SmallBatch<ReplyMsg>)>,
    ) {
        // Group by transaction, preserving first-appearance order across
        // transactions and processing order within one. Flushes touch a
        // handful of transactions, so a linear scan beats hashing.
        debug_assert!(scratch.is_empty());
        for reply in replies {
            let txn = reply.txn();
            match scratch.iter_mut().find(|(t, _)| *t == txn) {
                Some((_, run)) => run.push(reply),
                None => {
                    let mut run = SmallBatch::new();
                    run.push(reply);
                    scratch.push((txn, run));
                }
            }
        }
        for (txn, run) in scratch.drain(..) {
            if !self.mailboxes.deliver(txn.0, ClientEvent::Replies(run)) {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The method a live incarnation runs under.
    pub(crate) fn method_of(&self, txn: TxnId) -> Option<CcMethod> {
        self.mailboxes.resolve_meta(txn.0).and_then(meta_method)
    }

    /// Signal a deadlock victim. Returns true if the incarnation was
    /// live and the signal was queued.
    pub(crate) fn signal_deadlock(&self, txn: TxnId) -> bool {
        self.mailboxes.deliver(txn.0, ClientEvent::DeadlockVictim)
    }

    /// Registrations currently parked on the mailbox slab's overflow map
    /// (live bucket collisions with the resizable index at its growth
    /// ceiling). Nonzero values are correct but mean
    /// `reply_index_max_capacity` is undersized for the live-transaction
    /// spread.
    pub(crate) fn overflow_entries(&self) -> usize {
        self.mailboxes.overflow_entries()
    }

    /// Buckets in the newest generation of the mailbox slab's resizable
    /// index.
    pub(crate) fn index_capacity(&self) -> usize {
        self.mailboxes.index_capacity()
    }

    /// Completed growths of the mailbox slab's index.
    pub(crate) fn index_resizes(&self) -> u64 {
        self.mailboxes.index_resizes()
    }

    /// Reply deliveries dropped because a live mailbox stayed full past
    /// the deliver timeout (a stalled client; its incarnation recovers
    /// through the normal restart machinery).
    pub(crate) fn full_drops(&self) -> u64 {
        self.mailboxes.full_dropped()
    }

    /// Stale reply events suppressed so far: deliveries dropped because
    /// no live incarnation matched, plus events discarded consumer-side
    /// by the incarnation tag.
    pub(crate) fn stale_reply_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed) + self.mailboxes.stale_dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmodel::{LogicalItemId, PhysicalItemId, SiteId};
    use std::time::Duration;

    fn reply(txn: u64) -> ReplyMsg {
        reply_on(txn, 1)
    }

    fn reply_on(txn: u64, item: u64) -> ReplyMsg {
        ReplyMsg::Ack {
            txn: TxnId(txn),
            item: PhysicalItemId::new(LogicalItemId(item), SiteId(0)),
        }
    }

    fn recv_now(mb: &mut ClientMailbox, txn: u64) -> Option<ClientEvent> {
        mb.recv_timeout(txn, Duration::from_millis(200))
    }

    /// Drain every event currently queued for `txn` (bounded wait).
    fn drain_events(mb: &mut ClientMailbox, txn: u64) -> Vec<ClientEvent> {
        let mut events = Vec::new();
        while let Some(ev) = mb.recv_timeout(txn, Duration::from_millis(50)) {
            events.push(ev);
        }
        events
    }

    #[test]
    fn delivers_to_registered_and_drops_unknown() {
        let registry = Registry::new(64);
        let mut mb = registry.client_mailbox().expect("mailbox");
        registry.register(TxnId(1), CcMethod::TwoPhaseLocking, &mut mb);
        assert_eq!(registry.len(), 1);
        // One flush delivers the known reply and drops the unknown.
        registry.deliver_all([reply(1), reply(2)]);
        assert!(matches!(
            recv_now(&mut mb, 1),
            Some(ClientEvent::Replies(_))
        ));
        assert!(recv_now(&mut mb, 1).is_none());
        registry.deregister(TxnId(1));
        assert_eq!(registry.len(), 0);
        registry.deliver_all([reply(1)]); // now stale: dropped
        assert!(recv_now(&mut mb, 1).is_none());
        assert!(
            registry.stale_reply_events() >= 2,
            "both stale replies counted"
        );
    }

    #[test]
    fn deadlock_signal_reaches_live_victims_only() {
        let registry = Registry::new(64);
        let mut mb = registry.client_mailbox().expect("mailbox");
        registry.register(TxnId(7), CcMethod::TwoPhaseLocking, &mut mb);
        assert_eq!(
            registry.method_of(TxnId(7)),
            Some(CcMethod::TwoPhaseLocking)
        );
        assert_eq!(registry.method_of(TxnId(8)), None);
        assert!(registry.signal_deadlock(TxnId(7)));
        assert!(!registry.signal_deadlock(TxnId(8)));
        assert!(matches!(
            recv_now(&mut mb, 7),
            Some(ClientEvent::DeadlockVictim)
        ));
        registry.deregister(TxnId(7));
    }

    /// The coalescing guarantee (and the fix for the consecutive-run
    /// footgun): one flush interleaving two transactions' replies —
    /// A,B,A,B,A,B — wakes each client exactly once, with its three
    /// replies grouped in order. The old consecutive-run coalescing
    /// produced three events (three wakeups) per client for the same
    /// flush.
    #[test]
    fn interleaved_flush_coalesces_to_one_event_per_txn() {
        let registry = Registry::new(64);
        let mut mb_a = registry.client_mailbox().expect("mailbox");
        let mut mb_b = registry.client_mailbox().expect("mailbox");
        registry.register(TxnId(1), CcMethod::TwoPhaseLocking, &mut mb_a);
        registry.register(TxnId(2), CcMethod::TwoPhaseLocking, &mut mb_b);
        registry.deliver_all([
            reply_on(1, 10),
            reply_on(2, 20),
            reply_on(1, 11),
            reply_on(2, 21),
            reply_on(1, 12),
            reply_on(2, 22),
        ]);
        for (mb, txn, items) in [
            (&mut mb_a, 1u64, [10u64, 11, 12]),
            (&mut mb_b, 2, [20, 21, 22]),
        ] {
            let events = drain_events(mb, txn);
            assert_eq!(
                events.len(),
                1,
                "exactly one wakeup event per transaction per flush"
            );
            let ClientEvent::Replies(batch) = &events[0] else {
                panic!("expected replies");
            };
            let seen: Vec<u64> = batch.iter().map(|r| r.item().logical.0).collect();
            assert_eq!(seen, items, "replies grouped in order");
        }
        registry.deregister(TxnId(1));
        registry.deregister(TxnId(2));
    }

    /// Deterministic half of the victim-ordering guarantee: a
    /// `DeadlockVictim` signal arriving between two reply flushes is
    /// neither lost nor reordered around them — the client observes
    /// replies, then the victim, then the later replies.
    #[test]
    fn victim_signal_keeps_its_place_between_reply_flushes() {
        let registry = Registry::new(64);
        let mut mb = registry.client_mailbox().expect("mailbox");
        registry.register(TxnId(5), CcMethod::TwoPhaseLocking, &mut mb);
        registry.deliver_all([reply_on(5, 1), reply_on(5, 2)]);
        assert!(registry.signal_deadlock(TxnId(5)));
        registry.deliver_all([reply_on(5, 3)]);
        let events = drain_events(&mut mb, 5);
        let shape: Vec<&'static str> = events
            .iter()
            .map(|e| match e {
                ClientEvent::Replies(_) => "replies",
                ClientEvent::DeadlockVictim => "victim",
            })
            .collect();
        assert_eq!(
            shape,
            ["replies", "victim", "replies"],
            "the victim signal must keep its place"
        );
        registry.deregister(TxnId(5));
    }

    /// A victim signal for an incarnation that restarted before the
    /// client consumed it must not leak into the next incarnation.
    #[test]
    fn stale_victim_signal_never_reaches_the_next_incarnation() {
        let registry = Registry::new(64);
        let mut mb = registry.client_mailbox().expect("mailbox");
        registry.register(TxnId(1), CcMethod::TwoPhaseLocking, &mut mb);
        assert!(registry.signal_deadlock(TxnId(1)));
        // The incarnation restarts without consuming the signal; the
        // same mailbox serves the next incarnation.
        registry.deregister(TxnId(1));
        registry.register(TxnId(2), CcMethod::TwoPhaseLocking, &mut mb);
        registry.deliver_all([reply(2)]);
        let events = drain_events(&mut mb, 2);
        assert_eq!(events.len(), 1);
        assert!(
            matches!(events[0], ClientEvent::Replies(_)),
            "the stale victim must have been discarded, not delivered"
        );
        registry.deregister(TxnId(2));
    }
}
