//! The serving engine: N long-lived shard workers behind one router,
//! with a wait-free published read path beside the mailboxes.
//!
//! Modeled on SnelDB's shard-worker architecture: every key is
//! deterministically mapped to a shard by FNV-1a hash, each shard worker
//! is a plain OS thread owning a private `SketchStore<String>` partition,
//! and all **writes** are typed [`ShardMsg`]s over **bounded**
//! `sync_channel` mailboxes — a hot shard's full mailbox blocks its
//! senders (local backpressure) without stalling sibling shards. Shards
//! never share mutable state.
//!
//! **Queries never enqueue.** Each worker publishes an immutable snapshot
//! of its store through a left-right epoch pair (see [`ecm::publish`])
//! after every write, *before* it acks that write; the router answers
//! point / range / self-join / heavy-hitter queries — and each shard's
//! `TOPK` contribution — by pinning the shard's published epoch,
//! wait-free and without touching the mailbox. Because the ack follows
//! the publish, a client that holds an ingest ack always reads its own
//! write. `STATS` and `VIEW READ` stay on the mailbox (they report
//! worker-owned state).
//!
//! Invariants:
//! * Same key → always the same shard, so each key's arrival order is the
//!   per-shard mailbox order and every per-key sketch sees exactly the
//!   event sequence an in-process [`SketchStore`](ecm::SketchStore) would.
//!   A published snapshot is a (copy-on-write) clone of that store, so a
//!   served answer is **bit-identical** to an in-process store's answer
//!   over the same acked events — the end-to-end and differential tests
//!   pin it against such an oracle.
//! * **Publish-before-ack**: per write the worker appends to the
//!   write-ahead log (when durable), applies, publishes, then acks. A
//!   crash between publish and ack is safe under durability — the run is
//!   on the log and replay reproduces it — and without durability it
//!   loses the write exactly as a crash after the ack would.
//! * [`Engine::shutdown`] closes the ingest gate, then sends `Shutdown`
//!   behind all accepted messages; FIFO mailboxes mean every acked event
//!   is applied (and checkpointed, when a snapshot dir is configured)
//!   before the worker exits.

mod hub;
mod router;
mod shard;
mod supervisor;
mod wal;

pub use hub::{HubStats, ViewHub};
pub use router::{Engine, EngineError, ServedAnswer, SnapshotReport, MAX_INGEST_OCCURRENCES};

use std::path::PathBuf;
use std::sync::mpsc::Sender;

use ecm::{StreamEvent, ViewDef, ViewError, ViewReadout};

/// Fleet-wide standing-view counters for `STATS`: the registry size, the
/// summed per-shard maintenance cost, and the hub's subscriber numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ViewsSummary {
    /// Views in the engine registry.
    pub registered: usize,
    /// Per-view recomputations on the maintenance path since startup,
    /// summed over shards.
    pub maintenance: u64,
    /// Live subscribers.
    pub subscribers: usize,
    /// Notification lines dropped on full subscriber outboxes.
    pub dropped: u64,
}

/// One shard's contribution to `STATS`, gathered by the worker itself (no
/// cross-shard locking).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Resident keys in this shard's store.
    pub keys: usize,
    /// Bytes held by this shard's resident sketches.
    pub memory_bytes: usize,
    /// Event occurrences ingested by this shard since startup (restores
    /// reset the counter).
    pub ingested: u64,
    /// The shard store's checkpoint sequence number.
    pub checkpoint_seq: u64,
    /// Bytes in this shard's write-ahead log (0 with durability off).
    pub wal_bytes: u64,
    /// Segment files in this shard's write-ahead log (0 with durability
    /// off).
    pub wal_segments: u64,
    /// WAL compactions folded into full checkpoints since startup.
    pub compactions: u64,
    /// Standing views registered on this shard.
    pub views: usize,
    /// Per-view recomputations this shard's maintenance path has run
    /// since startup.
    pub view_maintenance: u64,
}

/// Supervision state of one shard, always reportable — even while the
/// shard's worker is down and cannot answer for itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealth {
    /// `"up"`, `"wedged"`, `"restarting"`, or `"dead"`.
    pub state: &'static str,
    /// Times the supervisor has respawned this shard's worker.
    pub restarts: u64,
    /// Milliseconds from engine start to the latest respawn (0 = never
    /// restarted).
    pub last_restart_ms: u64,
    /// High-water mark of the shard's mailbox depth since engine start.
    pub mailbox_hwm: u64,
    /// Requests shed by admission control: the mailbox stayed full past
    /// the deadline, or the worker was quarantined as wedged.
    pub shed_requests: u64,
    /// Reads (`QUERY` and this shard's `TOPK` contribution) served from
    /// this shard's published epoch.
    pub published_reads: u64,
}

/// One shard's row in [`Engine::stats`]: supervision health plus the
/// worker-reported statistics when the worker could answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// Supervision health (never absent).
    pub health: ShardHealth,
    /// The worker's own numbers; `None` while it is restarting, dead, or
    /// quarantined.
    pub stats: Option<ShardStats>,
}

/// A typed message delivered to one shard worker's mailbox.
#[derive(Debug)]
pub enum ShardMsg {
    /// Apply a run of keyed events (every key in it routes to this shard).
    Ingest {
        /// The run, in arrival order.
        events: Vec<(String, StreamEvent)>,
        /// Where the worker acks: [`ShardReply::Ingested`] once the run is
        /// appended to the write-ahead log (when durable), applied, and
        /// published, or [`ShardReply::WalError`] when the append failed —
        /// in which case the run was **not** applied.
        reply: Sender<ShardReply>,
    },
    /// This shard's [`ShardStats`].
    Stats {
        /// Where the worker sends its [`ShardReply::Stats`].
        reply: Sender<ShardReply>,
    },
    /// Advance every resident sketch's clock to `ts` with no arrivals.
    Flush {
        /// Target tick.
        ts: u64,
        /// Where the worker acks.
        reply: Sender<ShardReply>,
    },
    /// Checkpoint this shard's store into `dir` as `shard-<i>.full` (or a
    /// sequence-chained `shard-<i>.delta-<seq>` when `incremental`).
    Snapshot {
        /// Target directory.
        dir: PathBuf,
        /// Dirty-keys-only delta instead of a full checkpoint.
        incremental: bool,
        /// Where the worker reports bytes written or the error.
        reply: Sender<ShardReply>,
    },
    /// Register a standing view on this shard (keyed views go only to the
    /// key's owner; fleet-wide views go to every shard).
    ViewCreate {
        /// The validated definition.
        def: ViewDef<String>,
        /// Where the worker acks.
        reply: Sender<ShardReply>,
    },
    /// Drop a standing view from this shard's registry.
    ViewDrop {
        /// The view name.
        name: String,
        /// Where the worker acks.
        reply: Sender<ShardReply>,
    },
    /// Read a standing view's materialized answer (computing it on first
    /// read — partial state).
    ViewRead {
        /// The view name.
        name: String,
        /// Where the worker sends its [`ShardReply::View`].
        reply: Sender<ShardReply>,
    },
    /// Drain, write a final full checkpoint when a snapshot dir is
    /// configured, ack, and exit the worker thread.
    Shutdown {
        /// Where the worker acks completion.
        reply: Sender<ShardReply>,
    },
    /// Exit the worker thread *without* a final checkpoint — a
    /// crash-shaped, supervisor-recoverable stop used by
    /// [`Engine::restart_shard`]. Messages already queued ahead of it are
    /// processed; anything enqueued behind it dies with the mailbox
    /// (unreplied, so durable senders see a retryable error, never a
    /// false ack).
    Exit,
}

/// A shard worker's reply to a request-shaped [`ShardMsg`].
#[derive(Debug)]
pub enum ShardReply {
    /// Local statistics.
    Stats(ShardStats),
    /// `Flush` applied and published.
    Flushed,
    /// The ingest run is on the write-ahead log (when durable), applied,
    /// and published.
    Ingested,
    /// The write-ahead-log append failed; the run was not applied.
    WalError(String),
    /// Checkpoint written: bytes on disk.
    Snapshot {
        /// Size of the written checkpoint file.
        bytes: u64,
    },
    /// Checkpoint failed (I/O or encoding).
    SnapshotError(String),
    /// `ViewCreate` / `ViewDrop` applied on this shard.
    ViewOk,
    /// `ViewRead` outcome.
    View(Result<ViewReadout<String>, ViewError>),
    /// `Shutdown` complete (final checkpoint written if configured).
    Stopped {
        /// Error from the final checkpoint, if one was attempted and
        /// failed (the worker still exits).
        snapshot_error: Option<String>,
    },
}

/// FNV-1a 64-bit hash of a key, the shard-routing function. Deterministic
/// across runs and processes, so snapshots restore onto the same layout.
pub fn fnv1a(key: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The shard that owns `key` in an `n`-shard engine.
pub fn route(key: &str, n: usize) -> usize {
    (fnv1a(key) % n as u64) as usize
}
