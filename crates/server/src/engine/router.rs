//! The router: owns the shard mailboxes, partitions ingest batches,
//! routes per-key queries, broadcasts cross-key ones, applies admission
//! control, and orchestrates snapshot / shutdown. Worker lifecycle —
//! spawn, crash detection, respawn — lives in
//! [`supervisor`](super::supervisor).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ecm::{
    Answer, QueryError, SketchStore, SpecError, StandingQuery, StreamEvent, ViewAnswer, ViewDef,
    ViewError, ViewReadout, WindowSpec,
};

use super::hub::ViewHub;
use super::shard;
use super::supervisor::{self, Fleet, SlotState};
use super::wal::{ShardWal, WalConfig};
use super::{route, ShardMsg, ShardReply, ShardStats, ShardStatus, ViewsSummary};
use crate::config::ServerConfig;
use crate::fault::{FaultHook, FaultPlan};
use crate::protocol::{parse_view_def, wire_view_def, OwnedQuery};

/// Hard cap on the total event occurrences one [`Engine::ingest`] call may
/// expand to (batch lines × per-line counts): keeps one request from
/// ballooning into an unbounded allocation.
pub const MAX_INGEST_OCCURRENCES: u64 = 1 << 22;

/// Name of the snapshot-directory manifest recording the shard layout.
const MANIFEST: &str = "MANIFEST.json";

/// Why an engine call failed.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The configured [`SketchSpec`](ecm::SketchSpec) is invalid.
    Spec(SpecError),
    /// A structural config field is out of domain.
    InvalidConfig(&'static str),
    /// The engine is shutting down (or already shut down); the request was
    /// not applied.
    ShuttingDown,
    /// A shard worker is gone for good: its respawn failed (or shutdown
    /// raced its death) and the shard stays down.
    ShardDied {
        /// Which shard.
        shard: usize,
    },
    /// The shard's worker died and the supervisor is rebuilding it from
    /// checkpoint + WAL replay; the request was not applied. **Retryable**
    /// — the shard returns in restore-time, not operator-time.
    ShardRestarting {
        /// Which shard.
        shard: usize,
    },
    /// Admission control shed the request: the shard's mailbox stayed
    /// full past the admission deadline (or its worker is quarantined as
    /// wedged). The request was not enqueued. **Retryable** after
    /// `retry_after_ms`.
    Overloaded {
        /// Which shard.
        shard: usize,
        /// Suggested client backoff before retrying.
        retry_after_ms: u64,
    },
    /// The shard accepted the request but did not reply within the
    /// request deadline. The request **may still apply** after this error
    /// — retryable only for idempotent reads.
    ShardTimeout {
        /// Which shard.
        shard: usize,
    },
    /// The configured fault plan did not parse (or this is a release
    /// build without the `fault-injection` feature).
    FaultPlan(String),
    /// An item is outside the spec's dyadic-hierarchy universe; the whole
    /// batch was rejected (hierarchy writes would panic on it).
    ItemOutOfUniverse {
        /// The offending item.
        item: u64,
        /// The universe width in bits.
        bits: u32,
    },
    /// An ingest call would expand past [`MAX_INGEST_OCCURRENCES`].
    IngestTooHeavy {
        /// The requested total occurrences.
        requested: u64,
    },
    /// Writing or encoding a checkpoint failed.
    Snapshot(String),
    /// Appending to the write-ahead log failed on at least one shard. The
    /// failing shard's partition was not applied, but sibling shards'
    /// partitions may already be applied **and durable** — durable ingest
    /// is at-least-once, not atomic, across shards, so a blind retry of
    /// the whole batch can double-count the partitions that succeeded
    /// (see [`Engine::ingest`]).
    Wal(String),
    /// Restoring from the snapshot directory failed.
    Restore(String),
    /// The snapshot directory was written by an engine with a different
    /// shard count; refusing to restore onto a mismatched layout.
    ShardCountMismatch {
        /// Shards recorded in the manifest.
        manifest: usize,
        /// Shards in the current config.
        config: usize,
    },
    /// A standing-view operation failed.
    View(ViewError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Spec(e) => write!(f, "invalid sketch spec: {e}"),
            EngineError::InvalidConfig(detail) => write!(f, "invalid config: {detail}"),
            EngineError::ShuttingDown => write!(f, "engine is shutting down"),
            EngineError::ShardDied { shard } => write!(f, "shard {shard} worker died"),
            EngineError::ShardRestarting { shard } => {
                write!(f, "shard {shard} is restarting; retry shortly")
            }
            EngineError::Overloaded {
                shard,
                retry_after_ms,
            } => write!(
                f,
                "shard {shard} is overloaded; retry after {retry_after_ms} ms"
            ),
            EngineError::ShardTimeout { shard } => {
                write!(f, "shard {shard} did not reply within the request deadline")
            }
            EngineError::FaultPlan(detail) => write!(f, "invalid fault plan: {detail}"),
            EngineError::ItemOutOfUniverse { item, bits } => write!(
                f,
                "item {item} outside the {bits}-bit hierarchy universe"
            ),
            EngineError::IngestTooHeavy { requested } => write!(
                f,
                "ingest of {requested} occurrences exceeds the per-request cap of {MAX_INGEST_OCCURRENCES}"
            ),
            EngineError::Snapshot(detail) => write!(f, "snapshot failed: {detail}"),
            EngineError::Wal(detail) => write!(f, "write-ahead log failed: {detail}"),
            EngineError::Restore(detail) => write!(f, "restore failed: {detail}"),
            EngineError::ShardCountMismatch { manifest, config } => write!(
                f,
                "snapshot dir was written with {manifest} shards, config has {config}"
            ),
            EngineError::View(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SpecError> for EngineError {
    fn from(e: SpecError) -> Self {
        EngineError::Spec(e)
    }
}

impl EngineError {
    /// Short machine-readable code for the JSON `error` field.
    pub fn code(&self) -> &'static str {
        match self {
            EngineError::Spec(_) => "spec",
            EngineError::InvalidConfig(_) => "config",
            EngineError::ShuttingDown => "shutting_down",
            EngineError::ShardDied { .. } => "shard_died",
            EngineError::ShardRestarting { .. } => "shard_restarting",
            EngineError::Overloaded { .. } => "overloaded",
            EngineError::ShardTimeout { .. } => "shard_timeout",
            EngineError::FaultPlan(_) => "fault_plan",
            EngineError::ItemOutOfUniverse { .. } => "item_out_of_universe",
            EngineError::IngestTooHeavy { .. } => "ingest_too_heavy",
            EngineError::Snapshot(_) => "snapshot",
            EngineError::Wal(_) => "wal",
            EngineError::Restore(_) => "restore",
            EngineError::ShardCountMismatch { .. } => "shard_count_mismatch",
            EngineError::View(e) => e.code(),
        }
    }

    /// Whether a client may safely retry the failed call verbatim.
    /// `true` means the request was **not applied** and the condition is
    /// transient ([`ShardRestarting`](EngineError::ShardRestarting),
    /// [`Overloaded`](EngineError::Overloaded)).
    /// [`ShardTimeout`](EngineError::ShardTimeout) is deliberately
    /// excluded: the request may still apply behind the timeout, so only
    /// idempotent reads should retry it.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            EngineError::ShardRestarting { .. } | EngineError::Overloaded { .. }
        )
    }
}

/// Outcome of an [`Engine::snapshot`] broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotReport {
    /// The directory written into.
    pub dir: String,
    /// Shards checkpointed.
    pub shards: usize,
    /// Total bytes across all shard files.
    pub bytes: u64,
    /// Whether the delta form was requested.
    pub incremental: bool,
}

/// Suggested client backoff attached to [`EngineError::Overloaded`].
const RETRY_AFTER_MS: u64 = 100;

/// A query outcome with its consistency point, as returned by
/// [`Engine::query_served`].
#[derive(Debug)]
pub struct ServedAnswer {
    /// The per-sketch outcome; `None` when the key has never been
    /// written.
    pub answer: Option<Result<ecm::Answer, QueryError>>,
    /// The owning shard's write clock at the moment the answer was
    /// computed: the largest `write_clock()` among its sketches (the
    /// latest applied tick on time clocks, the arrival count on count
    /// clocks). Deterministic across restarts —
    /// it is a function of the acked event multiset alone — which is why
    /// responses carry it (and not the publication sequence number,
    /// which is incarnation-local).
    pub clock: u64,
}

/// The sharded serving engine. Cheap to share behind an `Arc`; every
/// method takes `&self`.
///
/// The engine owns only the pieces of the fleet the supervisor must not:
/// the supervisor thread's handle and stop flag. Everything the router
/// and supervisor share — shard slots, the shutdown gate, the view
/// registry, the hub — lives in the `Fleet`.
pub struct Engine {
    fleet: Arc<Fleet>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
    supervisor_stop: Arc<AtomicBool>,
}

impl Engine {
    /// Build the shard fleet: validate the config, restore every shard
    /// from the snapshot directory when it holds a manifest, and spawn one
    /// worker thread per shard.
    ///
    /// # Errors
    /// Spec/config validation errors, restore failures, or a shard-count
    /// mismatch against the snapshot manifest.
    pub fn start(cfg: &ServerConfig) -> Result<Engine, EngineError> {
        cfg.spec.validate()?;
        if cfg.shards == 0 {
            return Err(EngineError::InvalidConfig("shards must be >= 1"));
        }
        if cfg.mailbox_depth == 0 {
            return Err(EngineError::InvalidConfig("mailbox_depth must be >= 1"));
        }
        if cfg.durability {
            if cfg.snapshot_dir.is_none() {
                return Err(EngineError::InvalidConfig(
                    "durability requires a snapshot_dir",
                ));
            }
            if cfg.wal_segment_bytes == 0 || cfg.wal_compact_bytes == 0 {
                return Err(EngineError::InvalidConfig(
                    "wal_segment_bytes and wal_compact_bytes must be >= 1",
                ));
            }
        }
        if cfg.subscriber_outbox == 0 {
            return Err(EngineError::InvalidConfig("subscriber_outbox must be >= 1"));
        }
        let restore_from = cfg
            .snapshot_dir
            .as_deref()
            .filter(|dir| dir.join(MANIFEST).exists());
        let mut restored_views: BTreeMap<String, ViewDef<String>> = BTreeMap::new();
        if let Some(dir) = restore_from {
            let (manifest, view_defs) = read_manifest(dir)?;
            if manifest != cfg.shards {
                return Err(EngineError::ShardCountMismatch {
                    manifest,
                    config: cfg.shards,
                });
            }
            for wire in view_defs {
                let toks: Vec<&str> = wire.split_ascii_whitespace().collect();
                let def = parse_view_def(&toks)
                    .map_err(|e| EngineError::Restore(format!("manifest view {wire:?}: {e}")))?;
                def.validate()
                    .map_err(|e| EngineError::Restore(format!("manifest view {wire:?}: {e}")))?;
                if restored_views.insert(def.name.clone(), def).is_some() {
                    return Err(EngineError::Restore(format!(
                        "manifest view {wire:?}: duplicate name"
                    )));
                }
            }
        }
        if cfg.durability {
            // Record the layout up front: a crash before the first
            // checkpoint must still restore (WAL-only) onto the same shard
            // count.
            let dir = cfg.snapshot_dir.as_deref().expect("validated above");
            if restore_from.is_none() {
                write_manifest(dir, cfg.shards, &[])?;
            }
        }
        // An empty/absent plan never reaches the parser, so release builds
        // (where the parser always errors) run clean with faults unset.
        let faults = match cfg.fault_plan.as_deref().filter(|t| !t.trim().is_empty()) {
            Some(text) => FaultPlan::parse(text).map_err(EngineError::FaultPlan)?,
            None => FaultPlan::default(),
        };
        let hub = Arc::new(ViewHub::new(cfg.subscriber_outbox));
        let wal_cfg = cfg.durability.then_some(WalConfig {
            segment_bytes: cfg.wal_segment_bytes,
            compact_bytes: cfg.wal_compact_bytes,
            fsync: cfg.wal_fsync,
        });
        let item_limit = cfg
            .spec
            .hierarchy_bits()
            .map(|bits| 1u64.checked_shl(bits).unwrap_or(u64::MAX));
        let (exit_tx, exit_rx) = channel();
        let fleet = Arc::new(Fleet::new(
            cfg.shards,
            Instant::now(),
            cfg.snapshot_dir.clone(),
            cfg.durability,
            cfg.spec.clone(),
            wal_cfg,
            cfg,
            item_limit,
            restored_views,
            hub,
            exit_tx,
            faults,
        ));
        for i in 0..cfg.shards {
            let (store, wal) = if cfg.durability {
                let dir = cfg.snapshot_dir.as_deref().expect("validated above");
                // The latest checkpoint (when one exists), then the log on
                // top of it; a crash before any checkpoint replays the
                // whole log into a fresh store.
                let mut store = if dir.join(shard::full_file(i)).exists() {
                    shard::restore(i, dir).map_err(EngineError::Restore)?
                } else {
                    SketchStore::new(cfg.spec.clone())?
                };
                let (wal, _report) = ShardWal::open(
                    dir,
                    i,
                    wal_cfg.expect("durable has a wal config"),
                    &mut store,
                    FaultHook::new(&fleet.faults, i, supervisor::WAL_SALT),
                )
                .map_err(EngineError::Restore)?;
                (store, Some(wal))
            } else {
                let store = match restore_from {
                    Some(dir) => shard::restore(i, dir).map_err(EngineError::Restore)?,
                    None => SketchStore::new(cfg.spec.clone())?,
                };
                (store, None)
            };
            // Each shard rebuilds exactly the restored views it owns:
            // keyed views live on the key's shard, fleet views everywhere.
            let shard_views: Vec<ViewDef<String>> = fleet
                .views
                .lock()
                .expect("view registry poisoned")
                .values()
                .filter(|def| match &def.key {
                    Some(k) => route(k, cfg.shards) == i,
                    None => true,
                })
                .cloned()
                .collect();
            supervisor::spawn_worker(&fleet, i, store, wal, shard_views);
        }
        let supervisor_stop = Arc::new(AtomicBool::new(false));
        let sup_fleet = Arc::clone(&fleet);
        let sup_stop = Arc::clone(&supervisor_stop);
        let supervisor = std::thread::Builder::new()
            .name("sketchd-supervisor".to_string())
            .spawn(move || supervisor::supervise(sup_fleet, exit_rx, sup_stop))
            .expect("spawn supervisor");
        Ok(Engine {
            fleet,
            supervisor: Mutex::new(Some(supervisor)),
            supervisor_stop,
        })
    }

    /// Number of shard workers.
    pub fn shards(&self) -> usize {
        self.fleet.slots.len()
    }

    /// Crash-shaped restart of one shard: enqueue [`ShardMsg::Exit`], the
    /// worker exits without a final checkpoint, and the supervisor
    /// rebuilds it from checkpoint + WAL-tail replay. Returns once `Exit`
    /// is accepted into the mailbox — the repair itself is asynchronous.
    /// Messages already queued behind `Exit` die unreplied (durable
    /// senders see a retryable error, never a false ack).
    ///
    /// # Errors
    /// [`ShuttingDown`](EngineError::ShuttingDown), the admission errors
    /// of [`ingest`](Engine::ingest), or
    /// [`InvalidConfig`](EngineError::InvalidConfig) for an out-of-range
    /// shard index.
    pub fn restart_shard(&self, shard: usize) -> Result<(), EngineError> {
        if shard >= self.fleet.slots.len() {
            return Err(EngineError::InvalidConfig("shard index out of range"));
        }
        self.request(shard, ShardMsg::Exit)
    }

    /// Ingest a keyed batch: `(key, event, count)` triples in arrival
    /// order. Counts expand into repeated events (the store's run grouping
    /// collapses them back into one weighted update per run) and the batch
    /// is partitioned per shard preserving each key's order.
    ///
    /// The call returns once every shard has applied its partition and
    /// published it to the read path — an `Ok` means the events are
    /// visible to every later query and survive a graceful shutdown.
    /// Without durability that is all: a crash may still lose them. With
    /// durability on, each shard appends its partition to the write-ahead
    /// log before applying it (ack-after-append) — an `Ok` also means the
    /// events survive `kill -9`. A full mailbox applies backpressure up to the
    /// admission deadline, then sheds with
    /// [`Overloaded`](EngineError::Overloaded); a batch rejected *before*
    /// dispatch (universe violation, cap, shutdown race, admission) is
    /// applied nowhere.
    ///
    /// **Retry semantics under durability.** Each shard appends and
    /// applies its partition independently, so a
    /// [`Wal`](EngineError::Wal) / [`ShardDied`](EngineError::ShardDied)
    /// error means only that the batch *as a whole* is not acked: sibling
    /// partitions that already appended are applied and durable (they
    /// replay after a crash). Durable ingest is therefore at-least-once
    /// across shards — a client that retries a failed batch verbatim may
    /// double-count the partitions that succeeded. Clients that cannot
    /// tolerate that should treat a durable-ingest error as "partially
    /// applied, amount unknown" rather than "safe to replay".
    ///
    /// # Errors
    /// [`ItemOutOfUniverse`](EngineError::ItemOutOfUniverse),
    /// [`IngestTooHeavy`](EngineError::IngestTooHeavy),
    /// [`ShuttingDown`](EngineError::ShuttingDown),
    /// [`Overloaded`](EngineError::Overloaded),
    /// [`ShardRestarting`](EngineError::ShardRestarting),
    /// [`ShardTimeout`](EngineError::ShardTimeout),
    /// [`Wal`](EngineError::Wal), or
    /// [`ShardDied`](EngineError::ShardDied).
    pub fn ingest(&self, batch: &[(String, StreamEvent, u64)]) -> Result<u64, EngineError> {
        let mut total: u64 = 0;
        for (_, event, count) in batch {
            if let Some(limit) = self.fleet.item_limit {
                if event.item >= limit {
                    return Err(EngineError::ItemOutOfUniverse {
                        item: event.item,
                        bits: limit.trailing_zeros(),
                    });
                }
            }
            total = total.saturating_add(*count);
        }
        if total > MAX_INGEST_OCCURRENCES {
            return Err(EngineError::IngestTooHeavy { requested: total });
        }
        let n = self.fleet.slots.len();
        let mut per_shard: Vec<Vec<(String, StreamEvent)>> = vec![Vec::new(); n];
        for (key, event, count) in batch {
            let bucket = &mut per_shard[route(key, n)];
            for _ in 0..*count {
                bucket.push((key.clone(), *event));
            }
        }
        let gate = self.fleet.down.read().expect("gate poisoned");
        if *gate {
            return Err(EngineError::ShuttingDown);
        }
        let mut pending = Vec::new();
        for (i, events) in per_shard.into_iter().enumerate() {
            if events.is_empty() {
                continue;
            }
            let (reply, rx) = channel();
            self.send(i, ShardMsg::Ingest { events, reply })?;
            pending.push((i, rx));
        }
        drop(gate);
        // Every shard confirms its partition is applied and published
        // (and, when durable, on the log) before the batch-level ack. A
        // partial failure leaves the failing shard's partition unapplied
        // while sibling partitions landed — the error tells the client the
        // batch (as a whole) is not acked.
        for (i, rx) in pending {
            match self.collect(i, &rx)? {
                ShardReply::Ingested => {}
                ShardReply::WalError(e) => return Err(EngineError::Wal(e)),
                _ => return Err(EngineError::ShardDied { shard: i }),
            }
        }
        Ok(total)
    }

    /// Answer `query` over `window` from `key`'s sketch, wait-free from
    /// the owning shard's published epoch. This is the one read path.
    ///
    /// Workers publish every write before they ack it, so a client that
    /// received an ingest ack always reads its own write here, and the
    /// answer is bit-identical to an in-process store's over the same
    /// acked events; the returned [`ServedAnswer::clock`] is that
    /// consistency point. The read never touches the mailbox, so it keeps
    /// serving while the worker is restarting or wedged.
    ///
    /// # Errors
    /// [`ShuttingDown`](EngineError::ShuttingDown) only; per-sketch
    /// [`QueryError`]s come back inside the `Some`.
    pub fn query_served(
        &self,
        key: &str,
        query: &OwnedQuery,
        window: WindowSpec,
    ) -> Result<ServedAnswer, EngineError> {
        if *self.fleet.down.read().expect("gate poisoned") {
            return Err(EngineError::ShuttingDown);
        }
        let slot = &self.fleet.slots[route(key, self.fleet.slots.len())];
        let epoch = slot.published.pin();
        slot.published_reads.fetch_add(1, Ordering::Relaxed);
        Ok(ServedAnswer {
            answer: epoch
                .value
                .query(&key.to_string(), &query.to_query(), window),
            clock: epoch.clock,
        })
    }

    /// Answer `query` over `window` from `key`'s sketch. `Ok(None)` means
    /// the key has never been written. Compatibility wrapper around
    /// [`query_served`](Engine::query_served) that drops the consistency
    /// point.
    ///
    /// # Errors
    /// As [`query_served`](Engine::query_served).
    pub fn query(
        &self,
        key: &str,
        query: &OwnedQuery,
        window: WindowSpec,
    ) -> Result<Option<Result<Answer, QueryError>>, EngineError> {
        Ok(self.query_served(key, query, window)?.answer)
    }

    /// The `k` keys with the most window arrivals across the whole fleet:
    /// collect each shard's local ranking, merge (value descending, ties
    /// by key), truncate. Identical to what one un-sharded store's
    /// `top_k` would return, since a global top-k key is a top-k key of
    /// its own shard.
    ///
    /// Each shard's contribution comes wait-free from its published
    /// epoch — a broadcast read is N concurrent pins.
    ///
    /// # Errors
    /// As [`query_served`](Engine::query_served).
    pub fn top_k(&self, k: usize, window: WindowSpec) -> Result<Vec<(String, f64)>, EngineError> {
        if *self.fleet.down.read().expect("gate poisoned") {
            return Err(EngineError::ShuttingDown);
        }
        let mut merged: Vec<(String, f64)> = Vec::new();
        for slot in &self.fleet.slots {
            let epoch = slot.published.pin();
            slot.published_reads.fetch_add(1, Ordering::Relaxed);
            merged.extend(epoch.value.top_k(k, &ecm::Query::total_arrivals(), window));
        }
        merged.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        merged.truncate(k);
        Ok(merged)
    }

    /// Per-shard status, in shard order: the supervision health row is
    /// always present, the worker-reported [`ShardStats`] only when the
    /// worker could answer. A restarting, dead, wedged, or overloaded
    /// shard therefore degrades its row instead of failing the whole
    /// `STATS` call — exactly when the operator most needs to see it.
    ///
    /// # Errors
    /// [`ShuttingDown`](EngineError::ShuttingDown) only.
    pub fn stats(&self) -> Result<Vec<ShardStatus>, EngineError> {
        let mut rows = Vec::with_capacity(self.fleet.slots.len());
        for shard in 0..self.fleet.slots.len() {
            let stats = match self.shard_stats(shard) {
                Ok(s) => Some(s),
                Err(EngineError::ShuttingDown) => return Err(EngineError::ShuttingDown),
                Err(_) => None,
            };
            rows.push(ShardStatus {
                shard,
                health: self.fleet.health(shard),
                stats,
            });
        }
        Ok(rows)
    }

    /// One shard's worker-reported statistics.
    fn shard_stats(&self, shard: usize) -> Result<ShardStats, EngineError> {
        let (tx, rx) = channel();
        self.request(shard, ShardMsg::Stats { reply: tx })?;
        match self.collect(shard, &rx)? {
            ShardReply::Stats(s) => Ok(s),
            _ => Err(EngineError::ShardDied { shard }),
        }
    }

    /// The notification hub (the front-end's `SUBSCRIBE` handler attaches
    /// subscribers here).
    pub fn hub(&self) -> &Arc<ViewHub> {
        &self.fleet.hub
    }

    /// Register a standing view: validate, route the definition to the
    /// owning shard (keyed) or every shard (fleet-wide top-k), record it
    /// in the registry, and — when durable — persist it to the manifest
    /// immediately so it survives `kill -9`.
    ///
    /// # Errors
    /// [`View`](EngineError::View) (invalid or duplicate definition), or
    /// the routing errors of [`query`](Engine::query).
    pub fn view_create(&self, def: ViewDef<String>) -> Result<(), EngineError> {
        def.validate().map_err(EngineError::View)?;
        // Names and keys must survive the wire/manifest round trip, which
        // tokenizes on whitespace: enforce token shape here, not at parse
        // time, so programmatic callers get the same contract.
        for tok in [Some(&def.name), def.key.as_ref()].into_iter().flatten() {
            if tok.len() > crate::protocol::MAX_KEY
                || tok.chars().any(|c| c.is_whitespace() || c.is_control())
            {
                return Err(EngineError::View(ViewError::Invalid {
                    detail: "view names and keys must be whitespace-free tokens of at most \
                             128 bytes",
                }));
            }
        }
        let mut registry = self.fleet.views.lock().expect("view registry poisoned");
        if registry.contains_key(&def.name) {
            return Err(EngineError::View(ViewError::Duplicate {
                name: def.name.clone(),
            }));
        }
        for shard in self.view_shards(&def) {
            let (tx, rx) = channel();
            self.request(
                shard,
                ShardMsg::ViewCreate {
                    def: def.clone(),
                    reply: tx,
                },
            )?;
            match self.collect(shard, &rx)? {
                ShardReply::ViewOk => {}
                ShardReply::View(Err(e)) => return Err(EngineError::View(e)),
                _ => return Err(EngineError::ShardDied { shard }),
            }
        }
        registry.insert(def.name.clone(), def);
        self.persist_views(&registry)
    }

    /// Drop a standing view everywhere: registry, owning shard(s), its
    /// subscribers (their streams end), and the durable manifest.
    ///
    /// # Errors
    /// [`View`](EngineError::View) when no view of that name exists, or
    /// the routing errors of [`query`](Engine::query).
    pub fn view_drop(&self, name: &str) -> Result<(), EngineError> {
        let mut registry = self.fleet.views.lock().expect("view registry poisoned");
        let def = registry.remove(name).ok_or_else(|| {
            EngineError::View(ViewError::Unknown {
                name: name.to_string(),
            })
        })?;
        for shard in self.view_shards(&def) {
            let (tx, rx) = channel();
            self.request(
                shard,
                ShardMsg::ViewDrop {
                    name: name.to_string(),
                    reply: tx,
                },
            )?;
            match self.collect(shard, &rx)? {
                ShardReply::ViewOk => {}
                _ => return Err(EngineError::ShardDied { shard }),
            }
        }
        self.fleet.hub.evict_view(name);
        self.persist_views(&registry)
    }

    /// Read a standing view's current answer. Keyed views read from the
    /// owning shard (first read materializes — partial state); fleet-wide
    /// top-k views broadcast and merge exactly like
    /// [`top_k`](Engine::top_k), with `now` the maximum shard clock and
    /// `seq` the (monotone) sum of shard publication sequences.
    ///
    /// # Errors
    /// [`View`](EngineError::View) — including
    /// [`NoData`](ecm::ViewError::NoData) when the view's key has never
    /// been written — or the routing errors of [`query`](Engine::query).
    pub fn view_read(&self, name: &str) -> Result<ViewReadout<String>, EngineError> {
        let def = self
            .fleet
            .views
            .lock()
            .expect("view registry poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| {
                EngineError::View(ViewError::Unknown {
                    name: name.to_string(),
                })
            })?;
        match &def.key {
            Some(k) => {
                let shard = route(k, self.fleet.slots.len());
                let (tx, rx) = channel();
                self.request(
                    shard,
                    ShardMsg::ViewRead {
                        name: name.to_string(),
                        reply: tx,
                    },
                )?;
                match self.collect(shard, &rx)? {
                    ShardReply::View(r) => r.map_err(EngineError::View),
                    _ => Err(EngineError::ShardDied { shard }),
                }
            }
            None => {
                let k = match def.query {
                    StandingQuery::TopK { k } => k,
                    _ => unreachable!("validated: fleet-wide views are top-k"),
                };
                let replies = self.broadcast(|tx| ShardMsg::ViewRead {
                    name: name.to_string(),
                    reply: tx,
                })?;
                let mut merged: Vec<(String, f64)> = Vec::new();
                let (mut now, mut seq, mut any) = (0u64, 0u64, false);
                for reply in replies {
                    let readout = match reply {
                        ShardReply::View(Ok(r)) => r,
                        // An empty shard has no data for the fleet view
                        // yet; its siblings may.
                        ShardReply::View(Err(ViewError::NoData { .. })) => continue,
                        ShardReply::View(Err(e)) => return Err(EngineError::View(e)),
                        _ => return Err(EngineError::ShardDied { shard: 0 }),
                    };
                    any = true;
                    now = now.max(readout.now);
                    seq += readout.seq;
                    match readout.answer {
                        ViewAnswer::Ranking(local) => merged.extend(local),
                        _ => return Err(EngineError::ShardDied { shard: 0 }),
                    }
                }
                if !any {
                    return Err(EngineError::View(ViewError::NoData {
                        name: name.to_string(),
                    }));
                }
                merged.sort_unstable_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.0.cmp(&b.0))
                });
                merged.truncate(k);
                Ok(ViewReadout {
                    answer: ViewAnswer::Ranking(merged),
                    now,
                    seq,
                })
            }
        }
    }

    /// Registered definitions, in name order.
    pub fn view_list(&self) -> Vec<ViewDef<String>> {
        self.fleet
            .views
            .lock()
            .expect("view registry poisoned")
            .values()
            .cloned()
            .collect()
    }

    /// The fleet-wide standing-view counters for `STATS`, combining the
    /// registry, the per-shard maintenance totals (shards whose worker
    /// could not answer contribute nothing), and the hub.
    pub fn views_summary(&self, rows: &[ShardStatus]) -> ViewsSummary {
        let hub = self.fleet.hub.stats();
        ViewsSummary {
            registered: self
                .fleet
                .views
                .lock()
                .expect("view registry poisoned")
                .len(),
            maintenance: rows
                .iter()
                .filter_map(|r| r.stats)
                .map(|s| s.view_maintenance)
                .sum(),
            subscribers: hub.subscribers,
            dropped: hub.dropped,
        }
    }

    /// The shards a definition lives on.
    fn view_shards(&self, def: &ViewDef<String>) -> Vec<usize> {
        match &def.key {
            Some(k) => vec![route(k, self.fleet.slots.len())],
            None => (0..self.fleet.slots.len()).collect(),
        }
    }

    /// Re-write the manifest with the current view set — only when the
    /// engine is durable (the manifest already exists and must stay in
    /// step). Non-durable engines persist views at `SNAPSHOT` / shutdown,
    /// when the manifest is written next to the checkpoint files it
    /// belongs with.
    fn persist_views(
        &self,
        registry: &BTreeMap<String, ViewDef<String>>,
    ) -> Result<(), EngineError> {
        if !self.fleet.durable {
            return Ok(());
        }
        let dir = self
            .fleet
            .snapshot_dir
            .as_deref()
            .expect("durable has a dir");
        let wire: Vec<String> = registry.values().map(wire_view_def).collect();
        write_manifest(dir, self.fleet.slots.len(), &wire)
    }

    /// Advance every shard's stream clock to `ts` with no arrivals.
    ///
    /// # Errors
    /// As [`query`](Engine::query).
    pub fn flush(&self, ts: u64) -> Result<(), EngineError> {
        let replies = self.broadcast(|tx| ShardMsg::Flush { ts, reply: tx })?;
        for reply in replies {
            match reply {
                ShardReply::Flushed => {}
                _ => return Err(EngineError::ShardDied { shard: 0 }),
            }
        }
        Ok(())
    }

    /// Checkpoint every shard into `dir` (full by default; `incremental`
    /// chains a dirty-keys delta per shard) and write the layout manifest.
    ///
    /// # Errors
    /// [`Snapshot`](EngineError::Snapshot) carrying the first shard
    /// failure, or the routing errors of [`query`](Engine::query).
    pub fn snapshot(&self, dir: &Path, incremental: bool) -> Result<SnapshotReport, EngineError> {
        let replies = self.broadcast(|tx| ShardMsg::Snapshot {
            dir: dir.to_path_buf(),
            incremental,
            reply: tx,
        })?;
        let mut bytes = 0u64;
        for reply in replies {
            match reply {
                ShardReply::Snapshot { bytes: b } => bytes += b,
                ShardReply::SnapshotError(e) => return Err(EngineError::Snapshot(e)),
                _ => return Err(EngineError::ShardDied { shard: 0 }),
            }
        }
        write_manifest(dir, self.fleet.slots.len(), &self.wire_views())?;
        Ok(SnapshotReport {
            dir: dir.display().to_string(),
            shards: self.fleet.slots.len(),
            bytes,
            incremental,
        })
    }

    /// Graceful shutdown: close the ingest gate, enqueue `Shutdown` behind
    /// every accepted message, wait for each worker to drain its mailbox
    /// (writing a final full checkpoint when a snapshot dir is
    /// configured), and join all threads. Idempotent — later calls are
    /// no-ops.
    ///
    /// # Errors
    /// [`Snapshot`](EngineError::Snapshot) when a final checkpoint failed
    /// (the engine still shuts down fully).
    pub fn shutdown(&self) -> Result<(), EngineError> {
        let mut receivers = Vec::new();
        {
            let mut gate = self.fleet.down.write().expect("gate poisoned");
            if *gate {
                return Ok(());
            }
            *gate = true;
            for (i, slot) in self.fleet.slots.iter().enumerate() {
                let sender = slot.sender.read().expect("sender poisoned").clone();
                let (tx, rx) = channel();
                // A send failure means the worker is already gone (a
                // mid-restart shard's sender points at the dead
                // incarnation); still stop the rest. The supervisor sees
                // the gate and retires any worker it respawns after this.
                if sender.send(ShardMsg::Shutdown { reply: tx }).is_ok() {
                    receivers.push((i, rx));
                }
            }
        }
        let mut snapshot_error = None;
        for (i, rx) in receivers {
            match rx.recv() {
                Ok(ShardReply::Stopped {
                    snapshot_error: Some(e),
                }) => snapshot_error = Some(e),
                Ok(_) => {}
                Err(_) => snapshot_error = Some(format!("shard {i} died before stopping")),
            }
        }
        // Stop the supervisor before reaping worker handles: after the
        // join, no respawn (which installs a fresh handle) can be racing.
        self.supervisor_stop.store(true, Ordering::Relaxed);
        let supervisor = self.supervisor.lock().expect("supervisor poisoned").take();
        if let Some(handle) = supervisor {
            let _ = handle.join();
        }
        for slot in &self.fleet.slots {
            let handle = slot.handle.lock().expect("handle poisoned").take();
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
        if snapshot_error.is_none() {
            if let Some(dir) = &self.fleet.snapshot_dir {
                write_manifest(dir, self.fleet.slots.len(), &self.wire_views())?;
            }
        }
        match snapshot_error {
            Some(e) => Err(EngineError::Snapshot(e)),
            None => Ok(()),
        }
    }

    /// Whether [`shutdown`](Engine::shutdown) has begun.
    pub fn is_down(&self) -> bool {
        *self.fleet.down.read().expect("gate poisoned")
    }

    /// Send one request-shaped message under the read gate.
    fn request(&self, shard: usize, msg: ShardMsg) -> Result<(), EngineError> {
        let gate = self.fleet.down.read().expect("gate poisoned");
        if *gate {
            return Err(EngineError::ShuttingDown);
        }
        self.send(shard, msg)
    }

    /// Admission-controlled enqueue onto one shard's mailbox. Never
    /// blocks indefinitely: a quarantined (wedged) shard sheds
    /// immediately, a full mailbox applies backpressure in 200 µs waits
    /// up to the admission deadline and then sheds, and a down shard
    /// answers with its supervision state instead of hanging the caller.
    fn send(&self, shard: usize, msg: ShardMsg) -> Result<(), EngineError> {
        let slot = &self.fleet.slots[shard];
        {
            let state = slot.state.lock().expect("state poisoned");
            match &*state {
                SlotState::Up => {}
                SlotState::Wedged => {
                    drop(state);
                    slot.shed.fetch_add(1, Ordering::Relaxed);
                    return Err(EngineError::Overloaded {
                        shard,
                        retry_after_ms: RETRY_AFTER_MS,
                    });
                }
                SlotState::Restarting => return Err(EngineError::ShardRestarting { shard }),
                SlotState::Dead(_) => return Err(EngineError::ShardDied { shard }),
            }
        }
        // Clone the sender out of the slot so a mid-loop respawn swaps
        // the slot without blocking on us: our clone points at the dead
        // incarnation and fails fast as Disconnected.
        let sender = slot.sender.read().expect("sender poisoned").clone();
        let deadline = Instant::now() + self.fleet.admission_timeout;
        let mut msg = msg;
        loop {
            match sender.try_send(msg) {
                Ok(()) => {
                    slot.gauge.note_enqueue();
                    return Ok(());
                }
                Err(TrySendError::Disconnected(_)) => return Err(self.unavailable(shard)),
                Err(TrySendError::Full(m)) => {
                    if Instant::now() >= deadline {
                        slot.shed.fetch_add(1, Ordering::Relaxed);
                        return Err(EngineError::Overloaded {
                            shard,
                            retry_after_ms: RETRY_AFTER_MS,
                        });
                    }
                    msg = m;
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// What a disconnected mailbox or reply channel means for the caller:
    /// the shard is gone for good ([`ShardDied`](EngineError::ShardDied))
    /// when its respawn failed or shutdown raced its death, and
    /// [`ShardRestarting`](EngineError::ShardRestarting) — retryable —
    /// while the supervisor is repairing it.
    fn unavailable(&self, shard: usize) -> EngineError {
        let dead = matches!(
            &*self.fleet.slots[shard]
                .state
                .lock()
                .expect("state poisoned"),
            SlotState::Dead(_)
        );
        if dead || *self.fleet.down.read().expect("gate poisoned") {
            EngineError::ShardDied { shard }
        } else {
            EngineError::ShardRestarting { shard }
        }
    }

    /// Broadcast one request to every shard, then collect every reply.
    fn broadcast(
        &self,
        make: impl Fn(std::sync::mpsc::Sender<ShardReply>) -> ShardMsg,
    ) -> Result<Vec<ShardReply>, EngineError> {
        let mut receivers = Vec::with_capacity(self.fleet.slots.len());
        {
            let gate = self.fleet.down.read().expect("gate poisoned");
            if *gate {
                return Err(EngineError::ShuttingDown);
            }
            for i in 0..self.fleet.slots.len() {
                let (tx, rx) = channel();
                self.send(i, make(tx))?;
                receivers.push((i, rx));
            }
        }
        let mut replies = Vec::with_capacity(receivers.len());
        for (i, rx) in receivers {
            replies.push(self.collect(i, &rx)?);
        }
        Ok(replies)
    }

    /// Wait for one shard's reply, bounded by the request deadline so a
    /// worker dying (or wedging) mid-request surfaces as a typed error
    /// instead of a hang.
    fn collect(
        &self,
        shard: usize,
        rx: &std::sync::mpsc::Receiver<ShardReply>,
    ) -> Result<ShardReply, EngineError> {
        match rx.recv_timeout(self.fleet.request_timeout) {
            Ok(reply) => Ok(reply),
            Err(RecvTimeoutError::Timeout) => Err(EngineError::ShardTimeout { shard }),
            Err(RecvTimeoutError::Disconnected) => Err(self.unavailable(shard)),
        }
    }

    /// The registry in persisted (wire) form.
    fn wire_views(&self) -> Vec<String> {
        self.fleet
            .views
            .lock()
            .expect("view registry poisoned")
            .values()
            .map(wire_view_def)
            .collect()
    }
}

impl Drop for Engine {
    /// Best-effort graceful shutdown, so dropping an engine (e.g. a test
    /// unwinding) never leaks worker threads or skips the final
    /// checkpoint.
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("shards", &self.fleet.slots.len())
            .field("down", &self.is_down())
            .field("snapshot_dir", &self.fleet.snapshot_dir)
            .finish()
    }
}

/// JSON-escape a manifest view string. View wire definitions are
/// whitespace-joined tokens, so only `"` and `\` can actually occur, but
/// the full escape keeps the manifest valid JSON no matter what.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Write the snapshot-layout manifest
/// (`{"shards":N,"views":["…", …]}`) via a same-dir temp + rename, so a
/// crash mid-write can't tear the manifest a restart needs to restore at
/// all. Each view is persisted as its `VIEW CREATE` wire tail, re-parsed
/// on restore by the same protocol grammar that created it.
fn write_manifest(dir: &Path, shards: usize, views: &[String]) -> Result<(), EngineError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| EngineError::Snapshot(format!("create {}: {e}", dir.display())))?;
    let views: Vec<String> = views
        .iter()
        .map(|v| format!("\"{}\"", json_escape(v)))
        .collect();
    let tmp = dir.join(format!(".tmp.{MANIFEST}"));
    std::fs::write(
        &tmp,
        format!("{{\"shards\":{shards},\"views\":[{}]}}\n", views.join(",")),
    )
    .map_err(|e| EngineError::Snapshot(format!("write {}: {e}", tmp.display())))?;
    let path = dir.join(MANIFEST);
    std::fs::rename(&tmp, &path)
        .map_err(|e| EngineError::Snapshot(format!("rename {}: {e}", path.display())))
}

/// Parse the JSON string array following `at` in `text` (the opening `[`
/// position): minimal, escape-aware, and tolerant of whitespace.
fn parse_string_array(text: &str, context: &str) -> Result<Vec<String>, EngineError> {
    let corrupt = |what: &str| EngineError::Restore(format!("{context}: {what}"));
    let mut out = Vec::new();
    let mut chars = text.chars();
    loop {
        // Between elements: skip whitespace and separators until a string
        // opens or the array closes.
        let open = loop {
            match chars.next() {
                Some(']') => return Ok(out),
                Some('"') => break '"',
                Some(c) if c.is_whitespace() || c == ',' => continue,
                _ => return Err(corrupt("malformed view array")),
            }
        };
        let _ = open;
        let mut s = String::new();
        loop {
            match chars.next() {
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('n') => s.push('\n'),
                    Some('r') => s.push('\r'),
                    Some('t') => s.push('\t'),
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).collect();
                        let code =
                            u32::from_str_radix(&hex, 16).map_err(|_| corrupt("bad \\u escape"))?;
                        s.push(char::from_u32(code).ok_or_else(|| corrupt("bad \\u escape"))?);
                    }
                    _ => return Err(corrupt("bad escape")),
                },
                Some(c) => s.push(c),
                None => return Err(corrupt("unterminated view string")),
            }
        }
        out.push(s);
    }
}

/// Read the shard count and persisted view definitions back from the
/// manifest. A PR-7-era manifest without a `views` field restores with an
/// empty view set.
fn read_manifest(dir: &Path) -> Result<(usize, Vec<String>), EngineError> {
    let path = dir.join(MANIFEST);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| EngineError::Restore(format!("read {}: {e}", path.display())))?;
    let needle = "\"shards\":";
    let at = text
        .find(needle)
        .ok_or_else(|| EngineError::Restore(format!("{}: no shard count", path.display())))?;
    let digits: String = text[at + needle.len()..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    let shards = digits
        .parse()
        .map_err(|e| EngineError::Restore(format!("{}: bad shard count: {e}", path.display())))?;
    let views = match text.find("\"views\":") {
        None => Vec::new(),
        Some(at) => {
            let rest = &text[at + "\"views\":".len()..];
            let open = rest
                .find('[')
                .ok_or_else(|| EngineError::Restore(format!("{}: bad views", path.display())))?;
            parse_string_array(&rest[open + 1..], &format!("{} views", path.display()))?
        }
    };
    Ok((shards, views))
}
