//! The untraced end-to-end run: set sketchd up (several times, keeping
//! the last), warm it with one lap of the trace, audit its answers against
//! the exact oracle, probe its read paths, run the timed phase, and check
//! every correctness gate.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sketch_server::{answer_now, Client};
use stream_gen::SeededRng;

use crate::daemon::{Sketchd, Stats};
use crate::json::Json;
use crate::workload::{
    audit_set, key, render_batch, score, AuditPoint, AuditScore, Ev, Loop, Trace, CONNS, VIEWS,
    WINDOW,
};
use crate::{Ctx, Fault};

/// Write segments of a closed loop's timed phase, each after a read probe.
const SEGMENTS: usize = 4;
/// Lines per `BATCH` while warming up or preloading (untimed).
const WARM_BATCH: usize = 16_384;
/// Share of the preload lap ingested before the `SNAPSHOT` on `read-mix`;
/// the rest is the WAL tail recovery replays.
const PRELOAD_SNAPSHOT_SHARE: f64 = 0.8;

/// Operation counts, for `attempted` / `failed` / `error_rate`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// Client retries: attempts a later retry replaced.
    pub retries: u64,
}

impl Ops {
    /// Count one attempted operation.
    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn add(&mut self, o: Ops) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.retries += o.retries;
    }

    /// Failed operations plus replaced attempts, over every attempt.
    pub fn error_rate(&self) -> f64 {
        (self.failed + self.retries) as f64 / (self.attempted + self.retries).max(1) as f64
    }
}

/// Everything the untraced run measured.
#[derive(Debug, Clone, Default)]
pub struct E2e {
    /// Each set-up's spawn → first `PING` ack, seconds.
    pub setups: Vec<f64>,
    /// Events acked in the timed phase, and its length: from its start to
    /// the last ack.
    pub timed_acked: u64,
    pub timed_secs: f64,
    /// Acked `BATCH` round trips of the timed phase, ms.
    pub ack_ms: Vec<f64>,
    /// Round trips of the point `QUERY`, `TOPK` and `VIEW READ` replies
    /// that were ok, µs: from the timed phase on the open loop, from the
    /// unloaded probe on the closed loops.
    pub query_us: Vec<f64>,
    pub topk_us: Vec<f64>,
    pub view_us: Vec<f64>,
    /// sketchd CPU over the timed phase (its write segments), seconds.
    pub cpu_secs: f64,
    pub peak_rss_bytes: f64,
    pub audit: Option<AuditScore>,
    pub ops: Ops,
    /// Latest any open-loop request or batch was sent after it was due.
    pub late_ms_max: f64,
    /// `STATS` at the end of the run.
    pub stats: Stats,
    /// `STATS` `memory_bytes` after warm-up: the resident store size.
    pub resident_bytes: f64,
    /// Violated correctness gates, each with its reason.
    pub gate_failures: Vec<String>,
}

/// A reply is an ack of exactly `n` events.
fn acks(resp: &str, n: usize) -> bool {
    resp == format!("{{\"ok\":true,\"ingested\":{n}}}")
}

fn is_ok(resp: &str) -> bool {
    resp.starts_with("{\"ok\":true")
}

/// Send `events` as one `BATCH` with the client's retry envelope.
fn send_batch(
    client: &mut Client,
    buf: &mut String,
    events: impl Iterator<Item = Ev>,
) -> (usize, bool) {
    let ranges = render_batch(buf, events);
    let lines: Vec<&str> = ranges.iter().map(|&(a, b)| &buf[a..b]).collect();
    let ok = match client.batch_retry(&lines) {
        Ok(resp) => acks(&resp, lines.len()),
        Err(_) => false,
    };
    (lines.len(), ok)
}

/// Ingest `[from, to)` of every connection's lap, one thread per
/// connection, in large untimed batches. Returns the events acked.
fn warm(
    d: &Sketchd,
    trace: &Trace,
    range: impl Fn(usize) -> (usize, usize) + Sync,
) -> Result<u64, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let range = &range;
                s.spawn(move || -> Result<u64, String> {
                    let mut client = d.client()?;
                    let mut buf = String::new();
                    let (from, to) = range(trace.conns[c].len());
                    let mut acked = 0u64;
                    let mut j = from;
                    while j < to {
                        let n = WARM_BATCH.min(to - j);
                        let (sent, ok) = send_batch(
                            &mut client,
                            &mut buf,
                            (j..j + n).map(|i| trace.conn_event(c, i)),
                        );
                        if !ok {
                            return Err(format!("warm-up batch on connection {c} was not acked"));
                        }
                        acked += sent as u64;
                        j += n;
                    }
                    Ok(acked)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .sum()
    })
}

/// The run's sketchd data directories live under `work`; paths handed to
/// sketchd stay relative so `SNAPSHOT <dir>` matches its own directory.
fn fresh_dir(work: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| format!("read {}: {e}", from.display()))?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// The `read-mix` preload: one lap of the fleet trace, a `SNAPSHOT` after
/// most of it, the rest as WAL tail, then `kill -9`. Untimed.
fn preload(ctx: &Ctx, trace: &Trace, dir: &Path) -> Result<(), String> {
    let (d, _) = Sketchd::start(&ctx.sketchd, dir)?;
    let cut = |len: usize| (len as f64 * PRELOAD_SNAPSHOT_SHARE) as usize;
    warm(&d, trace, |len| (0, cut(len)))?;
    let resp = d
        .client()?
        .call(&format!("SNAPSHOT {} full", dir.display()))
        .map_err(|e| format!("SNAPSHOT: {e}"))?;
    if !is_ok(&resp) {
        return Err(format!("preload SNAPSHOT rejected: {resp}"));
    }
    warm(&d, trace, |len| (cut(len), len))?;
    d.kill();
    Ok(())
}

/// Set sketchd up `ctx.scale.setups` times and keep the last instance.
/// On `read-mix` each set-up recovers a fresh copy of the preloaded
/// directory; otherwise each starts on an empty one.
fn set_up(ctx: &Ctx, master: Option<&Path>, out: &mut E2e) -> Result<Sketchd, String> {
    let mut kept = None;
    for i in 0..ctx.scale.setups {
        let dir = fresh_dir(&ctx.work, &format!("run-{i}"))?;
        if let Some(master) = master {
            copy_dir(master, &dir)?;
        }
        let (d, secs) = Sketchd::start(&ctx.sketchd, &dir)?;
        out.setups.push(secs);
        if i + 1 == ctx.scale.setups {
            kept = Some(d);
        } else {
            d.kill();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    kept.ok_or_else(|| "no set-up ran".to_string())
}

/// Point-query every audit point at `now`, one at a time, and score the
/// answers. Returns the round trips.
fn audit(
    ctx: &Ctx,
    d: &Sketchd,
    points: &[AuditPoint],
    now: u64,
    out: &mut E2e,
) -> Result<(), String> {
    let mut client = d.client()?;
    let mut estimates = Vec::with_capacity(points.len());
    let mut missing_now = 0;
    for (i, p) in points.iter().enumerate() {
        let cmd = format!(
            "QUERY {} point {} time {now} {WINDOW}",
            key(p.tenant),
            p.item
        );
        let resp = client
            .call_retry(&cmd)
            .map_err(|e| format!("audit query: {e}"))?;
        out.ops.attempted += 1;
        let resp = if i == 0 && ctx.fault == Some(Fault::DropNow) {
            strip_now(&resp)
        } else {
            resp
        };
        if answer_now(&resp).is_none() {
            missing_now += 1;
        }
        let v = Json::parse(&resp)
            .ok()
            .and_then(|v| v.get("value").and_then(Json::num));
        match v {
            Some(v) => estimates.push(v),
            None => {
                out.ops.failed += 1;
                return Err(format!("audit query {cmd:?} got {resp}"));
            }
        }
    }
    out.ops.retries += client.retries();
    if missing_now > 0 {
        out.gate_failures.push(format!(
            "{missing_now} audit QUERY replies carried no \"now\""
        ));
    }
    let oracle: Vec<AuditPoint> = points
        .iter()
        .map(|p| match ctx.fault {
            Some(Fault::WrongOracle) => AuditPoint {
                exact: p.exact + (2.0 * crate::workload::EPSILON * p.norm as f64).ceil() as u64 + 1,
                ..*p
            },
            _ => *p,
        })
        .collect();
    let s = score(&oracle, &estimates);
    if !s.holds() {
        out.gate_failures.push(format!(
            "{} of {} audited point answers exceed eps*|a|_1 (share {:.4} > allowed {:.4})",
            s.violations,
            s.n,
            s.violation_share(),
            s.allowed_share
        ));
    }
    out.audit = Some(s);
    Ok(())
}

/// The reply with its `"now"` field removed (fault injection only).
fn strip_now(resp: &str) -> String {
    match resp.rfind(",\"now\":") {
        Some(at) => format!("{}}}", &resp[..at]),
        None => resp.to_string(),
    }
}

/// `VIEW CREATE` definitions of the standing views: alternating keyed
/// threshold and fleet top-k, as `loadgen` registers them.
pub fn view_defs() -> Vec<String> {
    (0..VIEWS)
        .map(|i| {
            if i % 2 == 0 {
                format!(
                    "bench-view-{i} threshold {} total 0.5 time {WINDOW}",
                    key(i as u32)
                )
            } else {
                format!("bench-view-{i} topk 10 time {WINDOW}")
            }
        })
        .collect()
}

/// Register the standing views.
fn create_views(client: &mut Client) -> Result<(), String> {
    for def in view_defs() {
        let resp = client
            .call(&format!("VIEW CREATE {def}"))
            .map_err(|e| format!("VIEW CREATE: {e}"))?;
        if !is_ok(&resp) {
            return Err(format!("VIEW CREATE {def} rejected: {resp}"));
        }
    }
    Ok(())
}

/// One read request; returns whether the reply was an acceptable ok.
fn read_once(client: &mut Client, cmd: &str, needs_now: bool, out_missing_now: &mut u64) -> bool {
    match client.call_retry(cmd) {
        Ok(resp) => {
            if needs_now && is_ok(&resp) && answer_now(&resp).is_none() {
                *out_missing_now += 1;
            }
            is_ok(&resp)
        }
        Err(_) => false,
    }
}

/// Unloaded read probe for the closed loops, between their write
/// segments: create the views, then send `VIEW READ`s, point `QUERY`s and
/// `TOPK`s at tick `now`, one at a time and each kind for
/// `ctx.scale.probe_secs`, then drop the views so the writes never
/// maintain them. A fixed time rather than a fixed count spreads every
/// median over the host's state, even where one `TOPK` takes under a
/// millisecond.
fn probe(
    ctx: &Ctx,
    d: &Sketchd,
    trace: &Trace,
    now: u64,
    rng: &mut SeededRng,
    out: &mut E2e,
) -> Result<(), String> {
    let mut client = d.client()?;
    create_views(&mut client)?;
    let mut lane = Lane::default();
    for kind in [Read::View, Read::Point, Read::TopK] {
        let end = Instant::now() + Duration::from_secs_f64(ctx.scale.probe_secs);
        while Instant::now() < end {
            timed_read(
                &mut client,
                rng,
                trace,
                now,
                kind,
                Instant::now(),
                &mut lane,
            );
        }
    }
    if lane.missing_now > 0 {
        out.gate_failures.push(format!(
            "{} probe QUERY replies carried no \"now\"",
            lane.missing_now
        ));
    }
    out.ops.add(lane.ops);
    out.query_us.extend(lane.queries);
    out.topk_us.extend(lane.topks);
    out.view_us.extend(lane.views);
    for i in 0..VIEWS {
        let resp = client
            .call(&format!("VIEW DROP bench-view-{i}"))
            .map_err(|e| format!("VIEW DROP: {e}"))?;
        if !is_ok(&resp) {
            return Err(format!("VIEW DROP rejected: {resp}"));
        }
    }
    out.ops.retries += client.retries();
    Ok(())
}

/// What one generator thread measured.
#[derive(Default)]
struct Lane {
    /// Acked `BATCH` round trips, ms, and the events they acked.
    acks: Vec<f64>,
    acked: u64,
    /// When the last acked `BATCH` came back.
    last_ack: Option<Instant>,
    /// Round trips of ok read replies, µs.
    queries: Vec<f64>,
    topks: Vec<f64>,
    views: Vec<f64>,
    ops: Ops,
    late_ms_max: f64,
    missing_now: u64,
}

impl Lane {
    /// Count one `BATCH` of `n` events that took `ms`; only an ack is timed.
    fn batch(&mut self, n: usize, ok: bool, ms: f64) {
        self.ops.count(ok);
        if ok {
            self.acks.push(ms);
            self.acked += n as u64;
            self.last_ack = Some(Instant::now());
        }
    }

    /// Count one read of `kind` that took `us`; only an ok reply is timed,
    /// so a fast error reply cannot improve a latency.
    fn read(&mut self, kind: Read, ok: bool, us: f64) {
        self.ops.count(ok);
        if ok {
            match kind {
                Read::Point => self.queries.push(us),
                Read::TopK => self.topks.push(us),
                Read::View => self.views.push(us),
            }
        }
    }
}

/// Which latency series a read belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Read {
    Point,
    TopK,
    View,
}

/// Issue one read of `kind` at tick `now` and record its round trip,
/// timed from `from` (when it was due, on an open loop).
fn timed_read(
    client: &mut Client,
    rng: &mut SeededRng,
    trace: &Trace,
    now: u64,
    kind: Read,
    from: Instant,
    lane: &mut Lane,
) {
    let cmd = match kind {
        Read::Point => {
            // A random arrival of the lap: tenants come Zipf-drawn and
            // every queried (tenant, item) pair exists.
            let e = trace.lap[(rng.next_u64() % trace.lap.len() as u64) as usize];
            format!(
                "QUERY {} point {} time {now} {WINDOW}",
                key(e.tenant),
                e.item
            )
        }
        Read::TopK => format!("TOPK 10 time {now} {WINDOW}"),
        Read::View => format!("VIEW READ bench-view-{}", rng.next_u64() as usize % VIEWS),
    };
    let ok = read_once(client, &cmd, kind == Read::Point, &mut lane.missing_now);
    lane.read(kind, ok, from.elapsed().as_secs_f64() * 1e6);
}

/// Fold the lanes of a timed phase, or of one write segment, into `out`;
/// it began at `start`.
fn finish(lanes: Vec<Lane>, start: Instant, out: &mut E2e) {
    let mut missing_now = 0;
    let mut last_ack = start;
    for lane in lanes {
        out.timed_acked += lane.acked;
        out.ops.add(lane.ops);
        out.late_ms_max = out.late_ms_max.max(lane.late_ms_max);
        missing_now += lane.missing_now;
        last_ack = last_ack.max(lane.last_ack.unwrap_or(start));
        out.ack_ms.extend(lane.acks);
        out.query_us.extend(lane.queries);
        out.topk_us.extend(lane.topks);
        out.view_us.extend(lane.views);
    }
    out.timed_secs += (last_ack - start).as_secs_f64();
    if missing_now > 0 {
        out.gate_failures
            .push(format!("{missing_now} QUERY replies carried no \"now\""));
    }
}

/// Closed loop: in each of `SEGMENTS` write segments, each connection
/// sends its next `BATCH` of its own tenants' stream as soon as the
/// previous one is acked. Nothing else shares the connections, so rate and
/// CPU time are the write path's alone. An unloaded read probe runs before
/// each segment, so the read latencies sample the whole run rather than a
/// few seconds of the host's state.
fn closed_loop(
    ctx: &Ctx,
    d: &Sketchd,
    trace: &Trace,
    batch: usize,
    out: &mut E2e,
) -> Result<(), String> {
    let mut next: Vec<usize> = trace.conns.iter().map(Vec::len).collect();
    let mut rng = SeededRng::seed_from_u64(ctx.seed ^ 0x5EAD_0000_0000_0001);
    let seconds = ctx.seconds / SEGMENTS as f64;
    for _ in 0..SEGMENTS {
        // The oldest of the connections' latest ticks: every tenant's
        // clock has reached it.
        let now = (0..CONNS)
            .map(|c| trace.conn_event(c, next[c] - 1).ts)
            .min()
            .expect("at least one connection");
        probe(ctx, d, trace, now, &mut rng, out)?;
        let cpu0 = d.cpu_seconds()?;
        let start = Instant::now() + Duration::from_millis(50);
        let deadline = start + Duration::from_secs_f64(seconds);
        let lanes: Vec<Result<(Lane, usize), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CONNS)
                .map(|c| {
                    let mut j = next[c];
                    s.spawn(move || {
                        let mut client = d.client()?;
                        let mut buf = String::new();
                        let mut lane = Lane::default();
                        wait_until(start);
                        while Instant::now() < deadline {
                            let t = Instant::now();
                            let (n, ok) = send_batch(
                                &mut client,
                                &mut buf,
                                (j..j + batch).map(|i| trace.conn_event(c, i)),
                            );
                            lane.batch(n, ok, t.elapsed().as_secs_f64() * 1e3);
                            j += batch;
                        }
                        lane.ops.retries = client.retries();
                        Ok((lane, j))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("ingest thread panicked"))
                .collect()
        });
        let mut done = Vec::with_capacity(CONNS);
        for (c, lane) in lanes.into_iter().enumerate() {
            let (lane, j) = lane?;
            next[c] = j;
            done.push(lane);
        }
        out.cpu_secs += d.cpu_seconds()? - cpu0;
        finish(done, start, out);
    }
    Ok(())
}

/// Wait until `due`: sleep to just before it, then spin, so the wake-up
/// latency of a sleeping thread does not count as server latency. Returns
/// how late the wait ended past `due`, in ms.
fn wait_until(due: Instant) -> f64 {
    let spin = Duration::from_micros(500);
    let now = Instant::now();
    if now + spin < due {
        std::thread::sleep(due - now - spin);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
    (Instant::now() - due).as_secs_f64() * 1e3
}

/// Open loop, every round trip timed from when it was due: one thread
/// writes at a fixed event rate and sends `TOPK`s at a fixed rate; the
/// other sends point `QUERY`s (95%) and `VIEW READ`s (5%) at a fixed rate.
/// The slow `TOPK`s ride with the writes so that no point query queues
/// behind one on its connection.
fn open_loop(ctx: &Ctx, d: &Sketchd, trace: &Trace, out: &mut E2e) -> Result<(), String> {
    let Loop::Open {
        write_eps,
        write_batch,
        topk_rps,
        read_rps,
    } = ctx.w.offered
    else {
        unreachable!("open loop on a closed-loop workload")
    };
    let frontier = AtomicU64::new(trace.span);
    let start = Instant::now() + Duration::from_millis(50);
    let end = start + Duration::from_secs_f64(ctx.seconds);
    let (writer, reader) = std::thread::scope(|s| {
        let writer = s.spawn(|| -> Result<Lane, String> {
            let mut client = d.client()?;
            let mut buf = String::new();
            let mut lane = Lane::default();
            let mut rng = SeededRng::seed_from_u64(ctx.seed ^ 0x5EAD_0000_0000_0003);
            let period = Duration::from_secs_f64(write_batch as f64 / write_eps);
            let topk_period = Duration::from_secs_f64(1.0 / topk_rps);
            let mut j = trace.lap.len();
            let (mut b, mut k) = (0u32, 0u32);
            loop {
                let (due_batch, due_topk) = (start + period * b, start + topk_period * k);
                let due = due_batch.min(due_topk);
                if due >= end {
                    break;
                }
                lane.late_ms_max = lane.late_ms_max.max(wait_until(due));
                if due_topk < due_batch {
                    let now = frontier.load(Ordering::Relaxed);
                    timed_read(
                        &mut client,
                        &mut rng,
                        trace,
                        now,
                        Read::TopK,
                        due,
                        &mut lane,
                    );
                    k += 1;
                    continue;
                }
                b += 1;
                let (n, ok) = send_batch(
                    &mut client,
                    &mut buf,
                    (j..j + write_batch).map(|i| trace.global_event(i)),
                );
                lane.batch(n, ok, due.elapsed().as_secs_f64() * 1e3);
                if ok {
                    let last = trace.global_event(j + write_batch - 1).ts;
                    frontier.store(last, Ordering::Relaxed);
                }
                j += write_batch;
            }
            lane.ops.retries = client.retries();
            Ok(lane)
        });
        let reader = s.spawn(|| -> Result<Lane, String> {
            let mut client = d.client()?;
            let mut rng = SeededRng::seed_from_u64(ctx.seed ^ 0x5EAD_0000_0000_0002);
            let mut lane = Lane::default();
            let period = Duration::from_secs_f64(1.0 / read_rps);
            for r in 0u32.. {
                let due = start + period * r;
                if due >= end {
                    break;
                }
                let now = frontier.load(Ordering::Relaxed);
                lane.late_ms_max = lane.late_ms_max.max(wait_until(due));
                let kind = if rng.gen_f64() < 0.95 {
                    Read::Point
                } else {
                    Read::View
                };
                timed_read(&mut client, &mut rng, trace, now, kind, due, &mut lane);
            }
            lane.ops.retries = client.retries();
            Ok(lane)
        });
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    finish(vec![writer?, reader?], start, out);
    Ok(())
}

/// The whole untraced run. Sketchd is gone when this returns.
pub fn run(ctx: &Ctx, trace: &Trace) -> Result<E2e, String> {
    let mut out = E2e::default();
    let master = if ctx.w.is_open() {
        let master = fresh_dir(&ctx.work, "preload")?;
        preload(ctx, trace, &master)?;
        Some(master)
    } else {
        None
    };
    let d = set_up(ctx, master.as_deref(), &mut out)?;
    // Events sketchd acked since this incarnation started: its `STATS`
    // `ingested` must match.
    let mut acked_here = 0u64;
    if !ctx.w.is_open() {
        acked_here += warm(&d, trace, |len| (0, len))?;
    }
    // The state is now exactly one lap, whatever the timing: flush to the
    // lap's end and audit it.
    let now = trace.span;
    let resp = d
        .client()?
        .call(&format!("FLUSH {now}"))
        .map_err(|e| format!("FLUSH: {e}"))?;
    if !is_ok(&resp) {
        return Err(format!("FLUSH rejected: {resp}"));
    }
    let points = audit_set(trace, ctx.seed, ctx.scale.audit, now);
    audit(ctx, &d, &points, now, &mut out)?;
    out.resident_bytes = d.stats()?.memory_bytes;
    match ctx.w.offered {
        Loop::Closed { batch } => closed_loop(ctx, &d, trace, batch, &mut out)?,
        Loop::Open { .. } => {
            create_views(&mut d.client()?)?;
            let cpu0 = d.cpu_seconds()?;
            open_loop(ctx, &d, trace, &mut out)?;
            out.cpu_secs = d.cpu_seconds()? - cpu0;
        }
    }
    acked_here += out.timed_acked;

    out.stats = d.stats()?;
    out.peak_rss_bytes = d.peak_rss_bytes()?;
    let counted = acked_here + u64::from(ctx.fault == Some(Fault::MiscountAck));
    if counted as f64 != out.stats.ingested {
        out.gate_failures.push(format!(
            "acked events ({counted}) differ from STATS ingested ({})",
            out.stats.ingested
        ));
    }
    if out.stats.shards_down > 0 {
        out.gate_failures.push(format!(
            "{} shards not up at run end",
            out.stats.shards_down
        ));
    }
    if out.timed_acked == 0 {
        out.gate_failures
            .push("no event was acked in the timed phase".to_string());
    }
    d.kill();
    let _ = std::fs::remove_dir_all(&ctx.work);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_ok_replies_are_timed() {
        let mut lane = Lane::default();
        lane.read(Read::TopK, true, 900.0);
        lane.read(Read::TopK, false, 5.0);
        lane.read(Read::Point, false, 5.0);
        lane.batch(1024, false, 0.1);
        lane.batch(1024, true, 2.0);
        assert_eq!(lane.topks, vec![900.0]);
        assert!(lane.queries.is_empty());
        assert_eq!(lane.acks, vec![2.0]);
        assert_eq!(lane.acked, 1024);
        assert_eq!((lane.ops.attempted, lane.ops.failed), (5, 3));
    }
}
