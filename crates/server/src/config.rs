//! Server configuration: sketch spec, shard topology, mailbox depth,
//! socket limits and the optional snapshot directory.

use std::path::PathBuf;
use std::time::Duration;

use ecm::SketchSpec;

/// Everything a [`Server`](crate::frontend::Server) (or a bare
/// [`Engine`](crate::engine::Engine)) needs to start.
///
/// Built with struct-update-style setters; every field has a conservative
/// default except the [`SketchSpec`], which the caller must provide (it
/// decides what every tenant's sketch looks like).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The one spec every per-key sketch is built from.
    pub spec: SketchSpec,
    /// Number of shard workers (default 4).
    pub shards: usize,
    /// Bounded mailbox depth per shard, in messages (default 128). A full
    /// mailbox blocks the *sender* — hot shards apply backpressure locally
    /// without stalling siblings.
    pub mailbox_depth: usize,
    /// Listen address (default `127.0.0.1:0` — an ephemeral port).
    pub addr: String,
    /// Per-connection read timeout (default 30 s): an idle connection is
    /// closed, it does not pin a handler thread forever.
    pub read_timeout: Duration,
    /// Per-connection write timeout (default 10 s).
    pub write_timeout: Duration,
    /// Maximum concurrent connections (default 64); excess connections are
    /// refused with a JSON error, not queued.
    pub max_connections: usize,
    /// Snapshot directory. When set, `SHUTDOWN` writes a final full
    /// checkpoint per shard here, and startup restores from it if it
    /// already holds one (see [`Engine`](crate::engine::Engine)).
    pub snapshot_dir: Option<PathBuf>,
    /// Per-shard write-ahead logging (default off). When on, every ingest
    /// run is appended to `shard-<i>.wal-<seg>` in the snapshot directory
    /// *before* it is acked, and startup replays the log on top of the
    /// latest checkpoint — an acked event survives `kill -9`, not just
    /// graceful shutdown. Requires `snapshot_dir`.
    pub durability: bool,
    /// WAL segment rotation threshold in bytes (default 4 MiB): a segment
    /// that grows past this is sealed and a new one is opened.
    pub wal_segment_bytes: u64,
    /// WAL compaction threshold in bytes (default 16 MiB): when a shard's
    /// total log exceeds this, the worker folds the log into a fresh full
    /// checkpoint and truncates every sealed segment.
    pub wal_compact_bytes: u64,
    /// Fsync every WAL append (default off). The default survives process
    /// death — `write(2)` hands the bytes to the OS before the ack — while
    /// fsync additionally survives kernel panics and power loss, at a
    /// large throughput cost.
    pub wal_fsync: bool,
    /// Per-subscriber notification outbox depth, in messages (default
    /// 256). A subscriber that falls further behind than this loses
    /// notifications — marked by a typed drop record on its stream — so a
    /// slow consumer can never block a shard worker.
    pub subscriber_outbox: usize,
    /// How long a request waits for space in a full shard mailbox before
    /// the engine sheds it with a typed retryable
    /// [`Overloaded`](crate::engine::EngineError::Overloaded) error
    /// (default 5 s). Backpressure below the deadline still blocks — only
    /// a shard that stays full past it turns senders away.
    pub admission_timeout: Duration,
    /// How long a request waits for a shard's reply before failing with a
    /// typed [`ShardTimeout`](crate::engine::EngineError::ShardTimeout)
    /// (default 30 s). Bounds every engine call: a wedged worker can stall
    /// its shard, never a caller forever.
    pub request_timeout: Duration,
    /// How long a shard worker may stay inside one message before the
    /// supervisor marks it wedged and quarantines its mailbox (default
    /// 2 s). A quarantined shard sheds requests instead of queueing them;
    /// it recovers when the message finishes (or is respawned if it
    /// panics).
    pub health_deadline: Duration,
    /// Deterministic fault plan (default none); see
    /// [`fault`](crate::fault). Only honored by debug builds and builds
    /// with the `fault-injection` feature — a plain release build refuses
    /// a config that sets it.
    pub fault_plan: Option<String>,
}

impl ServerConfig {
    /// A config with the given spec and every other field at its default.
    pub fn new(spec: SketchSpec) -> Self {
        ServerConfig {
            spec,
            shards: 4,
            mailbox_depth: 128,
            addr: "127.0.0.1:0".to_string(),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_connections: 64,
            snapshot_dir: None,
            durability: false,
            wal_segment_bytes: 4 << 20,
            wal_compact_bytes: 16 << 20,
            wal_fsync: false,
            subscriber_outbox: 256,
            admission_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(30),
            health_deadline: Duration::from_secs(2),
            fault_plan: None,
        }
    }

    /// Set the shard count (must be ≥ 1; validated by the engine).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Set the per-shard mailbox depth (must be ≥ 1; validated by the
    /// engine).
    pub fn mailbox_depth(mut self, depth: usize) -> Self {
        self.mailbox_depth = depth;
        self
    }

    /// Set the listen address (e.g. `"127.0.0.1:7070"`; port 0 asks the OS
    /// for an ephemeral port, readable back via
    /// [`Server::local_addr`](crate::frontend::Server::local_addr)).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Set the per-connection read timeout.
    pub fn read_timeout(mut self, t: Duration) -> Self {
        self.read_timeout = t;
        self
    }

    /// Set the per-connection write timeout.
    pub fn write_timeout(mut self, t: Duration) -> Self {
        self.write_timeout = t;
        self
    }

    /// Set the connection cap.
    pub fn max_connections(mut self, n: usize) -> Self {
        self.max_connections = n;
        self
    }

    /// Set the snapshot directory (final checkpoint on shutdown, restore on
    /// startup).
    pub fn snapshot_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.snapshot_dir = Some(dir.into());
        self
    }

    /// Enable or disable the per-shard write-ahead log (requires a
    /// snapshot directory; validated by the engine).
    pub fn durability(mut self, on: bool) -> Self {
        self.durability = on;
        self
    }

    /// Set the WAL segment rotation threshold in bytes (must be ≥ 1;
    /// validated by the engine).
    pub fn wal_segment_bytes(mut self, bytes: u64) -> Self {
        self.wal_segment_bytes = bytes;
        self
    }

    /// Set the WAL compaction threshold in bytes (must be ≥ 1; validated
    /// by the engine).
    pub fn wal_compact_bytes(mut self, bytes: u64) -> Self {
        self.wal_compact_bytes = bytes;
        self
    }

    /// Fsync every WAL append (survive power loss, not just process
    /// death).
    pub fn wal_fsync(mut self, on: bool) -> Self {
        self.wal_fsync = on;
        self
    }

    /// Set the per-subscriber notification outbox depth (must be ≥ 1;
    /// validated by the engine).
    pub fn subscriber_outbox(mut self, depth: usize) -> Self {
        self.subscriber_outbox = depth;
        self
    }

    /// Set how long a full shard mailbox blocks a sender before the
    /// request is shed with a typed `retry_after` error.
    pub fn admission_timeout(mut self, t: Duration) -> Self {
        self.admission_timeout = t;
        self
    }

    /// Set how long an engine call waits for a shard's reply.
    pub fn request_timeout(mut self, t: Duration) -> Self {
        self.request_timeout = t;
        self
    }

    /// Set how long a worker may sit inside one message before its shard
    /// is quarantined as wedged.
    pub fn health_deadline(mut self, t: Duration) -> Self {
        self.health_deadline = t;
        self
    }

    /// Set a deterministic fault plan (see [`fault`](crate::fault) for the
    /// grammar). Refused by plain release builds.
    pub fn fault_plan(mut self, plan: impl Into<String>) -> Self {
        self.fault_plan = Some(plan.into());
        self
    }
}
