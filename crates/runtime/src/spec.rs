//! What a caller hands the runtime and gets back: the predeclared
//! transaction shape ([`TxnSpec`]), the receipt of a commit
//! ([`TxnReceipt`]) and why a transaction can fail ([`TxnError`]).

use std::collections::BTreeMap;

use dbmodel::{CatalogError, CcMethod, LogicalItemId, SiteId, TxnId, Value};
use selection::OpProfile;

/// The predeclared shape of one transaction: its read and write sets, and
/// optionally a pinned origin site and concurrency-control method.
#[derive(Debug, Clone, Default)]
pub struct TxnSpec {
    pub(crate) reads: Vec<LogicalItemId>,
    pub(crate) writes: Vec<LogicalItemId>,
    /// Commutative increments (`item += delta`): confluent, fast-path
    /// eligible. On the coordinated path they stage
    /// `predecessor.wrapping_add(delta)` from the write grant's value.
    pub(crate) adds: Vec<(LogicalItemId, Value)>,
    /// Blind absolute writes (`item = value`): confluent, fast-path
    /// eligible.
    pub(crate) puts: Vec<(LogicalItemId, Value)>,
    pub(crate) origin: Option<SiteId>,
    pub(crate) method: Option<CcMethod>,
}

impl TxnSpec {
    /// An empty spec.
    pub fn new() -> Self {
        TxnSpec::default()
    }

    /// Add a logical item to the read set.
    pub fn read(mut self, item: LogicalItemId) -> Self {
        self.reads.push(item);
        self
    }

    /// Add a logical item to the write set.
    pub fn write(mut self, item: LogicalItemId) -> Self {
        self.writes.push(item);
        self
    }

    /// Add several logical items to the read set.
    pub fn reads<I: IntoIterator<Item = LogicalItemId>>(mut self, items: I) -> Self {
        self.reads.extend(items);
        self
    }

    /// Add several logical items to the write set.
    pub fn writes<I: IntoIterator<Item = LogicalItemId>>(mut self, items: I) -> Self {
        self.writes.extend(items);
        self
    }

    /// Add a commutative increment: `item += delta` (wrapping). Confluent —
    /// eligible for the coordination-avoidance fast path of
    /// [`Database::execute`](crate::Database::execute).
    pub fn add(mut self, item: LogicalItemId, delta: Value) -> Self {
        self.adds.push((item, delta));
        self
    }

    /// Add a blind absolute write: `item = value` (last-writer-wins).
    /// Confluent — eligible for the coordination-avoidance fast path of
    /// [`Database::execute`](crate::Database::execute).
    pub fn put(mut self, item: LogicalItemId, value: Value) -> Self {
        self.puts.push((item, value));
        self
    }

    /// Pin the origin site (default: round-robin over sites).
    pub fn origin(mut self, site: SiteId) -> Self {
        self.origin = Some(site);
        self
    }

    /// Pin the concurrency-control method, overriding the database policy.
    pub fn method(mut self, method: CcMethod) -> Self {
        self.method = Some(method);
        self
    }

    /// The operation profile and read/write counts that
    /// [`selection::classify`] and [`selection::is_read_only`] route by;
    /// declared writes count as read-modify-writes.
    pub(crate) fn shape(&self) -> (OpProfile, usize, usize) {
        let profile = [
            (self.reads.is_empty(), OpProfile::READS),
            (self.adds.is_empty(), OpProfile::ADDS),
            (self.puts.is_empty(), OpProfile::PUTS),
            (self.writes.is_empty(), OpProfile::RMW_WRITES),
        ]
        .into_iter()
        .filter(|&(empty, _)| !empty)
        .fold(OpProfile::empty(), |profile, (_, op)| profile.with(op));
        let writes = self.adds.len() + self.puts.len() + self.writes.len();
        (profile, self.reads.len(), writes)
    }

    /// Every logical item this spec writes — declared writes, adds and
    /// puts — deduplicated, as the coordinated path's write set.
    pub(crate) fn write_items(&self) -> Vec<LogicalItemId> {
        let mut items: Vec<LogicalItemId> = self
            .writes
            .iter()
            .copied()
            .chain(self.adds.iter().map(|&(item, _)| item))
            .chain(self.puts.iter().map(|&(item, _)| item))
            .collect();
        items.sort_unstable();
        items.dedup();
        items
    }
}

/// Why a transaction could not run to commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// The spec names a logical item the catalog does not know.
    UnknownItem(CatalogError),
    /// The transaction was restarted `attempts` times without reaching its
    /// execution phase.
    TooManyRestarts {
        /// Number of attempts made.
        attempts: u32,
    },
    /// A write was staged for an item outside the transaction's write set.
    NotInWriteSet(LogicalItemId),
    /// Every one of the reply plane's `reply_max_clients` mailboxes
    /// stayed held by an open transaction for the whole bounded acquire
    /// wait — the admission limit, reported instead of blocking `begin`
    /// forever.
    ReplyPlaneExhausted {
        /// The configured `reply_max_clients` limit.
        max_clients: usize,
    },
    /// The database shut down while the transaction was in flight.
    ShuttingDown,
    /// A shard stopped answering within the configured deadline
    /// ([`crate::RuntimeConfig::request_timeout`] /
    /// [`crate::RuntimeConfig::commit_timeout`] /
    /// [`crate::RuntimeConfig::diagnostic_timeout`]), and the bounded
    /// retry budget is exhausted. Before the execution phase this is a
    /// clean failure (nothing was implemented); at commit time the
    /// transaction's writes were already implemented when its locks
    /// demoted — the outcome is *decided but unacknowledged*, never a
    /// partial commit.
    ShardUnavailable,
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::UnknownItem(e) => write!(f, "{e}"),
            TxnError::TooManyRestarts { attempts } => {
                write!(f, "transaction gave up after {attempts} restarts")
            }
            TxnError::NotInWriteSet(item) => {
                write!(f, "item {item} is not in the transaction's write set")
            }
            TxnError::ReplyPlaneExhausted { max_clients } => write!(
                f,
                "all {max_clients} reply mailboxes are held by open transactions \
                 (raise RuntimeConfig::reply_max_clients or commit sooner)"
            ),
            TxnError::ShuttingDown => write!(f, "database is shutting down"),
            TxnError::ShardUnavailable => write!(
                f,
                "a shard stopped answering within the configured deadline"
            ),
        }
    }
}

impl std::error::Error for TxnError {}

/// What a committed transaction observed.
#[derive(Debug, Clone)]
pub struct TxnReceipt {
    /// Transaction id of the committed incarnation.
    pub id: TxnId,
    /// The method the committed incarnation ran under; fast-path and
    /// snapshot commits report the default method as a placeholder (see
    /// [`TxnReceipt::fastpath`] and [`TxnReceipt::snapshot`]).
    pub method: CcMethod,
    /// Restart attempts before the committed incarnation (0 = first try).
    pub restarts: u32,
    /// The values read, keyed by logical item.
    pub reads: BTreeMap<LogicalItemId, Value>,
    /// True when the transaction committed through the
    /// coordination-avoidance bypass (no grants, no queue time).
    pub fastpath: bool,
    /// True when the transaction was served from the MVCC snapshot plane
    /// at the global read watermark (read-only; no coordination at all).
    pub snapshot: bool,
}
