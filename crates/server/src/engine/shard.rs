//! The shard worker: one long-lived thread, one `SketchStore` partition,
//! and (with durability on) one write-ahead log.

use std::path::Path;
use std::sync::mpsc::Receiver;
use std::sync::Arc;

use ecm::{Epoch, LeftRight, SketchStore, SnapshotError, ViewDef, ViewEvent, ViewSet};

use super::hub::ViewHub;
use super::supervisor::ShardGauge;
use super::wal::ShardWal;
use super::{ShardMsg, ShardReply, ShardStats};
use crate::fault::{FaultHook, FaultSite};
use crate::protocol::response;

/// Name of shard `i`'s full-checkpoint file inside a snapshot directory.
pub(super) fn full_file(shard: usize) -> String {
    format!("shard-{shard}.full")
}

/// Name of shard `i`'s delta file for checkpoint sequence `seq`.
pub(super) fn delta_file(shard: usize, seq: u64) -> String {
    format!("shard-{shard}.delta-{seq:06}")
}

/// Crash-safe checkpoint-file write: land the bytes in a same-directory
/// temp file, then `rename` over the target (atomic on POSIX). The target
/// either keeps its old contents or holds the complete new ones — a kill
/// mid-write can no longer tear the only `.full` file and strand the
/// shard. The temp name's leading dot keeps it out of every
/// `shard-<i>.*` prefix scan (restore, delta cleanup, WAL listing), and
/// being deterministic means a crash leaves at most one stale temp per
/// target, overwritten by the next attempt. With `fsync`, the data and
/// the directory entry are on the platter before this returns.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8], fsync: bool) -> Result<(), String> {
    use std::io::Write;
    let tmp = dir.join(format!(".tmp.{name}"));
    let mut file =
        std::fs::File::create(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    file.write_all(bytes)
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    if fsync {
        file.sync_data()
            .map_err(|e| format!("fsync {}: {e}", tmp.display()))?;
    }
    drop(file);
    let target = dir.join(name);
    std::fs::rename(&tmp, &target)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), target.display()))?;
    if fsync {
        super::wal::sync_dir(dir)?;
    }
    Ok(())
}

/// The worker's half of the left-right read path (see `ecm::publish`):
/// publishes a snapshot of the store after every write and stamps each
/// epoch with the shard's write clock and applied-write counter.
///
/// The worker publishes before it acks (append → apply → publish → ack),
/// for `Ingest` and `Flush` alike, so every acked write is already on the
/// published epoch and readers never need the mailbox. Publishing ahead
/// of the ack cannot expose state a crash un-happens: with durability the
/// run is on the write-ahead log before it is applied, so a crash between
/// publish and ack replays it; without durability such a crash loses the
/// write, exactly as a crash after the ack does.
pub(super) struct Publisher {
    lr: Arc<LeftRight<SketchStore<String>>>,
    applied: u64,
}

impl Publisher {
    /// A publisher over `lr` that publishes the (restored) `store` at once,
    /// so readers see a rebuilt shard before its mailbox opens. The applied
    /// count resumes from the last published epoch, so it stays monotone
    /// across worker incarnations.
    pub(super) fn new(
        lr: Arc<LeftRight<SketchStore<String>>>,
        store: &SketchStore<String>,
    ) -> Publisher {
        let applied = lr.pin().applied;
        let publisher = Publisher { lr, applied };
        publisher.cut(store);
        publisher
    }

    /// Count one applied write message and publish `store`. Returns the
    /// pinned epoch, so maintenance can read exactly what readers will.
    fn publish(&mut self, store: &SketchStore<String>) -> Arc<Epoch<SketchStore<String>>> {
        self.applied += 1;
        self.cut(store)
    }

    /// Publish `store` stamped with its consistency point: the largest
    /// write clock among its sketches — the same `now` a fleet-wide
    /// standing view evaluates at. It is a function of the store alone, so
    /// a restart that restores the same sketches stamps the same clock.
    fn cut(&self, store: &SketchStore<String>) -> Arc<Epoch<SketchStore<String>>> {
        let clock = store
            .iter()
            .map(|(_, s)| s.write_clock())
            .max()
            .unwrap_or(0);
        self.lr.publish(Epoch {
            value: store.clone(),
            seq: 0, // assigned by LeftRight::publish
            clock,
            applied: self.applied,
        });
        self.lr.pin()
    }
}

/// Publish maintenance events to the hub. Only keyed notifications
/// (threshold crossings, heavy-hitter set changes) go out: a fleet-wide
/// top-k view's per-shard ranking is partial state no subscriber should
/// see, so those views are read-merged by the router instead.
fn publish(hub: &ViewHub, events: &[ViewEvent<String>]) {
    for event in events {
        if matches!(event, ViewEvent::RankingChanged { .. }) {
            continue;
        }
        hub.publish(event.view(), &response::view_event(event));
    }
}

/// The worker loop. Runs until the mailbox disconnects or a `Shutdown` /
/// `Exit` message arrives; replies are best-effort (a requester that hung
/// up is not an error). `restored_views` (present when restoring or
/// respawning) are registered and eagerly rematerialized from the
/// restored sketches before the first message.
///
/// Returns `true` for a clean end (drained `Shutdown`, or the engine
/// dropped the mailbox) and `false` for a crash-shaped [`ShardMsg::Exit`]
/// — the supervisor repairs `false` and panics, never `true`.
#[allow(clippy::too_many_arguments)]
pub(super) fn run(
    shard: usize,
    mut store: SketchStore<String>,
    rx: Receiver<ShardMsg>,
    snapshot_dir: Option<std::path::PathBuf>,
    mut wal: Option<ShardWal>,
    hub: Arc<ViewHub>,
    restored_views: Vec<ViewDef<String>>,
    gauge: Arc<ShardGauge>,
    mut faults: FaultHook,
    mut publisher: Publisher,
) -> bool {
    let mut ingested: u64 = 0;
    let mut views: ViewSet<String> = ViewSet::new();
    for def in restored_views {
        // The engine validated and de-duplicated these when they were
        // first created; a failure here would mean a corrupt manifest,
        // which the router rejects before spawning workers.
        let _ = views.create(def);
    }
    views.rebuild(&store);
    while let Ok(msg) = rx.recv() {
        gauge.note_dequeue();
        match msg {
            ShardMsg::Ingest { events, reply } => {
                // Parse forbids `err` at this site, so a firing rule
                // panics or sleeps — before the WAL sees the run, keeping
                // acked ⇔ applied exact across an injected crash.
                let _ = faults.fire(FaultSite::Shard);
                // Ack-after-append: the run reaches the log before it is
                // applied or acked, so an acked event survives `kill -9`.
                // On append failure the run is applied *nowhere* — the
                // store and the log never disagree.
                let appended = match &mut wal {
                    Some(w) => w.append_ingest(&events, store.checkpoint_seq()),
                    None => Ok(()),
                };
                match appended {
                    Ok(()) => {
                        ingested += events.len() as u64;
                        store.ingest(&events);
                        // Publish before the ack (see `Publisher`): the
                        // acked run is visible to every reader the moment
                        // the client hears about it. Maintenance runs after
                        // the ack, from the just-published epoch, so views
                        // observe exactly what readers do.
                        let epoch = publisher.publish(&store);
                        let _ = reply.send(ShardReply::Ingested);
                        publish(&hub, &views.maintain(&epoch.value));
                        if let Some(w) = &mut wal {
                            if w.needs_compaction() {
                                if let Some(dir) = &snapshot_dir {
                                    // Compaction failure degrades to "log
                                    // keeps growing" — ingest stays up and
                                    // the next batch retries.
                                    if let Err(e) = compact(shard, &mut store, dir, w, &mut faults)
                                    {
                                        eprintln!("sketchd: shard {shard} compaction failed: {e}");
                                    }
                                }
                            }
                        }
                    }
                    Err(e) => {
                        let _ = reply.send(ShardReply::WalError(e));
                    }
                }
            }
            ShardMsg::Stats { reply } => {
                let view_stats = views.stats();
                let _ = reply.send(ShardReply::Stats(ShardStats {
                    shard,
                    keys: store.key_count(),
                    memory_bytes: store.memory_bytes(),
                    ingested,
                    checkpoint_seq: store.checkpoint_seq(),
                    wal_bytes: wal.as_ref().map_or(0, ShardWal::total_bytes),
                    wal_segments: wal.as_ref().map_or(0, ShardWal::segments),
                    compactions: wal.as_ref().map_or(0, ShardWal::compactions),
                    views: view_stats.views,
                    view_maintenance: view_stats.maintenance,
                }));
            }
            ShardMsg::Flush { ts, reply } => {
                store.advance_to(ts);
                // Published before the ack, like an ingest. A clock advance
                // writes no key, so the dirty-key watermark sees nothing;
                // every non-cold view re-evaluates against the published
                // epoch instead.
                let epoch = publisher.publish(&store);
                let _ = reply.send(ShardReply::Flushed);
                publish(&hub, &views.refresh(&epoch.value));
            }
            ShardMsg::ViewCreate { def, reply } => {
                let _ = reply.send(match views.create(def) {
                    Ok(()) => ShardReply::ViewOk,
                    Err(e) => ShardReply::View(Err(e)),
                });
            }
            ShardMsg::ViewDrop { name, reply } => {
                views.drop_view(&name);
                let _ = reply.send(ShardReply::ViewOk);
            }
            ShardMsg::ViewRead { name, reply } => {
                let _ = reply.send(ShardReply::View(views.read(&name, &store)));
            }
            ShardMsg::Snapshot {
                dir,
                incremental,
                reply,
            } => {
                // A checkpoint into the WAL's own directory chains the log
                // onto it (marker before file); any other directory is a
                // plain export that must not touch the log.
                let chained = match &mut wal {
                    Some(w) if snapshot_dir.as_deref() == Some(dir.as_path()) => Some(w),
                    _ => None,
                };
                let outcome = match chained {
                    Some(w) if !incremental => compact(shard, &mut store, &dir, w, &mut faults),
                    _ => checkpoint(shard, &mut store, &dir, incremental, chained, &mut faults),
                };
                let _ = reply.send(match outcome {
                    Ok(bytes) => ShardReply::Snapshot { bytes },
                    Err(e) => ShardReply::SnapshotError(e),
                });
            }
            ShardMsg::Shutdown { reply } => {
                // Everything sent before this message has been applied (the
                // mailbox is FIFO); the final full checkpoint therefore
                // captures every acked event.
                let snapshot_error = match &snapshot_dir {
                    Some(dir) => match &mut wal {
                        Some(w) => compact(shard, &mut store, dir, w, &mut faults).err(),
                        None => checkpoint(shard, &mut store, dir, false, None, &mut faults).err(),
                    },
                    None => None,
                };
                let _ = reply.send(ShardReply::Stopped { snapshot_error });
                gauge.note_idle();
                return true;
            }
            ShardMsg::Exit => {
                // Crash-shaped: no final checkpoint, no ack. Recovery is
                // the supervisor's restore-and-replay, same as a panic.
                gauge.note_idle();
                return false;
            }
        }
        gauge.note_idle();
    }
    true
}

/// Write this shard's checkpoint file. A full checkpoint replaces the
/// `.full` file and removes the now-stale delta chain; an incremental one
/// appends a `.delta-<seq>` link (falling back to a full checkpoint when
/// the store has never been checkpointed, so a chain always has a base).
/// With `wal` present (checkpointing into the log's directory), a marker
/// is appended *before* the file lands — the crash window between the two
/// leaves a log that still replays from the previous marker.
fn checkpoint(
    shard: usize,
    store: &mut SketchStore<String>,
    dir: &Path,
    incremental: bool,
    wal: Option<&mut ShardWal>,
    faults: &mut FaultHook,
) -> Result<u64, String> {
    faults.fire(FaultSite::Snapshot)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let fail = |stage: &str, e: &dyn std::fmt::Display| format!("shard {shard} {stage}: {e}");
    let fsync = wal.as_ref().is_some_and(|w| w.fsync());
    if incremental && store.checkpoint_seq() > 0 {
        let bytes = store
            .write_incremental()
            .map_err(|e: SnapshotError| fail("delta encode", &e))?;
        if let Some(w) = wal {
            w.append_marker(store.checkpoint_seq())?;
        }
        let name = delta_file(shard, store.checkpoint_seq());
        write_atomic(dir, &name, &bytes, fsync).map_err(|e| fail("delta write", &e))?;
        Ok(bytes.len() as u64)
    } else {
        let bytes = store
            .write_snapshot()
            .map_err(|e: SnapshotError| fail("full encode", &e))?;
        if let Some(w) = wal {
            w.append_marker(store.checkpoint_seq())?;
        }
        write_atomic(dir, &full_file(shard), &bytes, fsync).map_err(|e| fail("full write", &e))?;
        remove_stale_deltas(shard, dir);
        Ok(bytes.len() as u64)
    }
}

/// Fold the log into a fresh full checkpoint: encode the snapshot, rotate
/// onto a new segment, pin the marker there, land the checkpoint file,
/// then delete every sealed segment (and stale deltas). The marker lives
/// in the surviving active segment, so every crash window along the way
/// leaves a recoverable chain; afterwards the log is one near-empty
/// segment.
fn compact(
    shard: usize,
    store: &mut SketchStore<String>,
    dir: &Path,
    wal: &mut ShardWal,
    faults: &mut FaultHook,
) -> Result<u64, String> {
    faults.fire(FaultSite::Snapshot)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let bytes = store
        .write_snapshot()
        .map_err(|e: SnapshotError| format!("shard {shard} full encode: {e}"))?;
    wal.rotate(store.checkpoint_seq())?;
    wal.append_marker(store.checkpoint_seq())?;
    write_atomic(dir, &full_file(shard), &bytes, wal.fsync())
        .map_err(|e| format!("shard {shard} full write: {e}"))?;
    remove_stale_deltas(shard, dir);
    wal.truncate_sealed()?;
    wal.note_compaction();
    Ok(bytes.len() as u64)
}

/// Best-effort removal of this shard's delta files: after a new full
/// checkpoint they no longer chain onto anything restorable.
fn remove_stale_deltas(shard: usize, dir: &Path) {
    let prefix = format!("shard-{shard}.delta-");
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// Restore one shard's store from a snapshot directory: load the full
/// checkpoint, then apply every delta in sequence order.
pub(super) fn restore(shard: usize, dir: &Path) -> Result<SketchStore<String>, String> {
    let full = dir.join(full_file(shard));
    let bytes = std::fs::read(&full).map_err(|e| format!("read {}: {e}", full.display()))?;
    let mut store = SketchStore::<String>::load_snapshot(&bytes)
        .map_err(|e| format!("decode {}: {e}", full.display()))?;
    // Delta files sort lexicographically by their zero-padded sequence
    // number, which is exactly chain order.
    let prefix = format!("shard-{shard}.delta-");
    let mut deltas: Vec<std::path::PathBuf> = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read dir {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().starts_with(&prefix) {
            deltas.push(entry.path());
        }
    }
    deltas.sort();
    for path in deltas {
        let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        store
            .apply_incremental(&bytes)
            .map_err(|e| format!("apply {}: {e}", path.display()))?;
    }
    Ok(store)
}
