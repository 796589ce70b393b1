//! The traced run: replay the workload's inputs through the public
//! functions of each layer in process, with a span around every call.
//!
//! Every pass starts from the same state (one lap of the trace, ingested
//! untimed) and then times the same batches — the workload's first
//! `replay_batches` timed-phase batches — so per-batch spans of different
//! layers describe the same work. A layer's self time is its span minus
//! the spans of the layers beneath it on the same batch:
//!
//! | span | call |
//! |---|---|
//! | `sketch` | `SketchWriter::ingest_batch` per tenant run |
//! | `store` | `SketchStore::ingest` (contains `sketch`) |
//! | `views` | `ViewSet::maintain` |
//! | `publish.clone` / `publish` | `SketchStore::clone` / `LeftRight::publish` |
//! | `wal` | `ecm::wal::encode_ingest` per shard partition |
//! | `protocol` | `parse_data_line` over the batch lines |
//! | `engine` | `Engine::ingest` (contains all of the above but parsing) |
//! | `client` | `Client::batch` over TCP (contains `protocol` and `engine`) |
//!
//! Nothing inside the program is instrumented: spans wrap the calls from
//! out here.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

use ecm::wal::{
    encode_checkpoint, encode_ingest, encode_segment_header, replay, WalSegment, WalSegmentHeader,
};
use ecm::{
    Epoch, LeftRight, Query, Sketch, SketchSpec, SketchStore, StreamEvent, ViewDef, ViewSet,
    WindowSpec,
};
use sketch_server::engine::route;
use sketch_server::protocol::{parse_data_line, parse_view_def, response, OwnedQuery};
use sketch_server::{Client, Engine, Server, ServerConfig};

use crate::stats::median;
use crate::workload::{
    key, render_batch, AuditPoint, Ev, Trace, DELTA, EPSILON, SHARDS, VIEWS, WINDOW,
};
use crate::Ctx;

/// Events per untimed warm-up call.
const WARM_CHUNK: usize = 65_536;
/// Repetitions of the single-shot timings (clone, restore, top-k).
const REPEATS: usize = 5;
/// Pins timed for `ecm.publish.pin_ns`.
const PINS: usize = 100_000;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: &'static str,
    batch: usize,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log, written out when the run ends.
struct Recorder {
    base: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn time<T>(&mut self, layer: &'static str, batch: usize, f: impl FnOnce() -> T) -> T {
        let start = self.base.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.base.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            batch,
            start_ns: start,
            end_ns,
        });
        out
    }

    /// Total seconds spent in `layer`'s spans.
    fn total(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let mut text = String::from("layer\tbatch\tstart_ns\tend_ns\n");
        for s in &self.spans {
            text.push_str(&format!(
                "{}\t{}\t{}\t{}\n",
                s.layer, s.batch, s.start_ns, s.end_ns
            ));
        }
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

fn spec() -> SketchSpec {
    SketchSpec::time(WINDOW).epsilon(EPSILON).delta(DELTA)
}

fn keyed(events: &[Ev]) -> Vec<(String, StreamEvent)> {
    events
        .iter()
        .map(|e| (key(e.tenant), StreamEvent::new(e.item, e.ts)))
        .collect()
}

/// The replay's inputs: the warm-up lap and the timed batches.
struct Inputs {
    lap: Vec<(String, StreamEvent)>,
    batches: Vec<Vec<(String, StreamEvent)>>,
    events: usize,
    /// The latest tick of the replay, where reads are answered.
    now: u64,
}

/// The first `k` timed-phase batches of the workload, in the order the
/// connections would interleave them.
fn inputs(ctx: &Ctx, trace: &Trace) -> Inputs {
    let batch = ctx.w.batch();
    let k = ctx.scale.replay_batches;
    let batches: Vec<Vec<Ev>> = if ctx.w.is_open() {
        (0..k)
            .map(|b| {
                let from = trace.lap.len() + b * batch;
                (from..from + batch)
                    .map(|j| trace.global_event(j))
                    .collect()
            })
            .collect()
    } else {
        (0..k)
            .map(|b| {
                let c = b % trace.conns.len();
                let from = trace.conns[c].len() + (b / trace.conns.len()) * batch;
                (from..from + batch)
                    .map(|j| trace.conn_event(c, j))
                    .collect()
            })
            .collect()
    };
    let now = batches
        .iter()
        .flatten()
        .map(|e| e.ts)
        .max()
        .unwrap_or(trace.span);
    Inputs {
        lap: keyed(&trace.lap),
        events: batches.iter().map(Vec::len).sum(),
        batches: batches.iter().map(|b| keyed(b)).collect(),
        now,
    }
}

/// Per-tenant runs of a batch, first-appearance order (what the store's
/// grouping hands the kernel).
fn runs(batch: &[(String, StreamEvent)]) -> Vec<(String, Vec<StreamEvent>)> {
    let mut order: Vec<String> = Vec::new();
    let mut by_key: HashMap<String, Vec<StreamEvent>> = HashMap::new();
    for (k, e) in batch {
        by_key
            .entry(k.clone())
            .or_insert_with(|| {
                order.push(k.clone());
                Vec::new()
            })
            .push(*e);
    }
    order
        .into_iter()
        .map(|k| {
            let evs = by_key.remove(&k).expect("grouped key");
            (k, evs)
        })
        .collect()
}

/// Per-tenant sketches warmed with the lap.
fn warm_sketches(inp: &Inputs) -> HashMap<String, Box<dyn Sketch>> {
    let spec = spec();
    let mut sketches: HashMap<String, Box<dyn Sketch>> = HashMap::new();
    for (k, evs) in runs(&inp.lap) {
        sketches
            .entry(k)
            .or_insert_with(|| spec.build().expect("valid spec"))
            .ingest_batch(&evs);
    }
    sketches
}

/// The sketch-kernel pass: returns the wall time of the timed loop.
fn sketch_pass(inp: &Inputs, rec: Option<&mut Recorder>) -> f64 {
    let spec = spec();
    let mut sketches = warm_sketches(inp);
    let grouped: Vec<Vec<(String, Vec<StreamEvent>)>> =
        inp.batches.iter().map(|b| runs(b)).collect();
    let t0 = Instant::now();
    match rec {
        Some(rec) => {
            for (b, batch) in grouped.iter().enumerate() {
                for (k, evs) in batch {
                    let sk = sketches
                        .entry(k.clone())
                        .or_insert_with(|| spec.build().expect("valid spec"));
                    rec.time("sketch", b, || sk.ingest_batch(evs));
                }
            }
        }
        None => {
            for batch in &grouped {
                for (k, evs) in batch {
                    sketches
                        .entry(k.clone())
                        .or_insert_with(|| spec.build().expect("valid spec"))
                        .ingest_batch(evs);
                }
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    std::hint::black_box(&sketches);
    wall
}

fn time_secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// The standing views `read-mix` registers, parsed as `VIEW CREATE` would.
fn view_defs() -> Result<Vec<ViewDef<String>>, String> {
    crate::drive::view_defs()
        .iter()
        .map(|def| {
            let toks: Vec<&str> = def.split_whitespace().collect();
            parse_view_def(&toks).map_err(|e| format!("view def: {e}"))
        })
        .collect()
}

fn view_set(store: &SketchStore<String>) -> Result<ViewSet<String>, String> {
    let mut views = ViewSet::new();
    for def in view_defs()? {
        views.create(def).map_err(|e| format!("view create: {e}"))?;
    }
    // First reads materialize the views, so maintenance has work to do.
    for i in 0..VIEWS {
        let _ = views.read(&format!("bench-view-{i}"), store);
    }
    Ok(views)
}

/// Engine config with the workload's settings.
fn config(dir: &Path) -> ServerConfig {
    ServerConfig::new(spec())
        .shards(SHARDS)
        .snapshot_dir(dir)
        .durability(true)
        .wal_fsync(false)
}

fn with_counts(batch: &[(String, StreamEvent)]) -> Vec<(String, StreamEvent, u64)> {
    batch.iter().map(|(k, e)| (k.clone(), *e, 1)).collect()
}

fn fresh(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// Run every pass and return the per-layer metrics (name → value).
pub fn run(
    ctx: &Ctx,
    trace: &Trace,
    audit: &[AuditPoint],
) -> Result<BTreeMap<&'static str, f64>, String> {
    let inp = inputs(ctx, trace);
    let k = inp.batches.len() as f64;
    let events = inp.events as f64;
    let window = WindowSpec::time(inp.now, WINDOW);
    let mut rec = Recorder::new();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Sketch kernel, untraced then traced: the ratio prices the spans.
    let untraced = sketch_pass(&inp, None);
    let traced = sketch_pass(&inp, Some(&mut rec));
    m.insert("trace.overhead", traced / untraced);
    m.insert("ecm.sketch.ingest_eps", events / rec.total("sketch"));
    {
        let sketches = warm_sketches(&inp);
        let lap_window = WindowSpec::time(trace.span, WINDOW);
        let mut per_pass = Vec::new();
        for _ in 0..REPEATS {
            per_pass.push(time_secs(|| {
                for p in audit {
                    let sk = &sketches[&key(p.tenant)];
                    std::hint::black_box(sk.query(&Query::point(p.item), lap_window).ok());
                }
            }));
        }
        m.insert(
            "ecm.sketch.point_ns",
            median(&per_pass) * 1e9 / audit.len() as f64,
        );
    }

    // Store, views, publication and WAL encoding, in the order a shard
    // worker runs them.
    {
        let mut store = SketchStore::<String>::new(spec()).map_err(|e| format!("spec: {e}"))?;
        for chunk in inp.lap.chunks(WARM_CHUNK) {
            store.ingest(chunk);
        }
        let mut views = view_set(&store)?;
        let lr = LeftRight::new(Epoch::initial(store.clone(), trace.span, 0));
        let mut wal_bytes = 0usize;
        let mut buf = Vec::new();
        for (b, batch) in inp.batches.iter().enumerate() {
            rec.time("store", b, || store.ingest(batch));
            rec.time("views", b, || std::hint::black_box(views.maintain(&store)));
            let copy = rec.time("publish.clone", b, || store.clone());
            let clock = batch.iter().map(|(_, e)| e.ts).max().unwrap_or(0);
            rec.time("publish", b, || {
                lr.publish(Epoch {
                    value: copy,
                    seq: 0,
                    clock,
                    applied: b as u64 + 1,
                })
            });
            let mut parts: Vec<Vec<(String, StreamEvent)>> = vec![Vec::new(); SHARDS];
            for (key, e) in batch {
                parts[route(key, SHARDS)].push((key.clone(), *e));
            }
            buf.clear();
            rec.time("wal", b, || {
                for (i, part) in parts.iter().enumerate() {
                    encode_ingest(b as u64 * SHARDS as u64 + i as u64 + 2, part, &mut buf);
                }
            });
            wal_bytes += buf.len();
        }
        m.insert("ecm.store.ingest_eps", events / rec.total("store"));
        m.insert("ecm.views.maintain_us", rec.total("views") * 1e6 / k);
        m.insert("ecm.publish.publish_us", rec.total("publish") * 1e6 / k);
        m.insert("ecm.wal.encode_us_per_batch", rec.total("wal") * 1e6 / k);
        m.insert("ecm.wal.bytes_per_event", wal_bytes as f64 / events);
        let clones: Vec<f64> = (0..REPEATS)
            .map(|_| {
                let t0 = Instant::now();
                let copy = store.clone();
                let secs = t0.elapsed().as_secs_f64();
                drop(copy);
                secs
            })
            .collect();
        m.insert("ecm.store.clone_ms", median(&clones) * 1e3);
        m.insert("ecm.store.memory_bytes", store.memory_bytes() as f64);
        let topk: Vec<f64> = (0..REPEATS * 4)
            .map(|_| {
                time_secs(|| {
                    drop(std::hint::black_box(store.top_k(
                        10,
                        &Query::total_arrivals(),
                        window,
                    )))
                })
            })
            .collect();
        m.insert("ecm.store.topk_us", median(&topk) * 1e6);
        let pins = time_secs(|| {
            for _ in 0..PINS {
                std::hint::black_box(lr.pin());
            }
        });
        m.insert("ecm.publish.pin_ns", pins * 1e9 / PINS as f64);
        let reads = 10_000;
        let read_secs = time_secs(|| {
            for i in 0..reads {
                let _ =
                    std::hint::black_box(views.read(&format!("bench-view-{}", i % VIEWS), &store));
            }
        });
        m.insert("ecm.views.read_ns", read_secs * 1e9 / reads as f64);
        drop(lr);

        // Snapshot restore of the warm store, and WAL replay of the lap
        // into a fresh one.
        let bytes = store
            .write_snapshot()
            .map_err(|e| format!("snapshot: {e}"))?;
        let restores: Vec<f64> = (0..REPEATS)
            .map(|_| {
                time_secs(|| {
                    drop(std::hint::black_box(SketchStore::<String>::load_snapshot(
                        &bytes,
                    )))
                })
            })
            .collect();
        m.insert("ecm.snapshot.restore_ms", median(&restores) * 1e3);
        // Render answers once more for the protocol layer while the warm
        // store is here.
        let answers: Vec<_> = audit
            .iter()
            .filter_map(|p| store.query(&key(p.tenant), &Query::point(p.item), window))
            .filter_map(Result::ok)
            .collect();
        let render = time_secs(|| {
            for a in &answers {
                std::hint::black_box(response::answer_at("point", a, inp.now));
            }
        });
        m.insert(
            "server.protocol.render_ns",
            render * 1e9 / answers.len().max(1) as f64,
        );
        drop(store);

        let fresh_store = SketchStore::<String>::new(spec()).map_err(|e| format!("spec: {e}"))?;
        let mut log = encode_segment_header(&WalSegmentHeader {
            shard: 0,
            segment: 1,
            base_record_seq: 0,
            base_checkpoint_seq: fresh_store.checkpoint_seq(),
        });
        encode_checkpoint(1, fresh_store.checkpoint_seq(), &mut log);
        for (i, chunk) in inp.lap.chunks(ctx.w.batch()).enumerate() {
            encode_ingest(i as u64 + 2, chunk, &mut log);
        }
        let replays: Vec<f64> = (0..3)
            .map(|_| {
                let mut target = fresh_store.clone();
                let t0 = Instant::now();
                let report = replay(
                    &mut target,
                    0,
                    &[WalSegment {
                        index: 1,
                        bytes: &log,
                    }],
                );
                let secs = t0.elapsed().as_secs_f64();
                assert!(
                    report.is_ok(),
                    "replay of a well-formed log failed: {report:?}"
                );
                secs
            })
            .collect();
        m.insert(
            "ecm.wal.replay_eps",
            inp.lap.len() as f64 / median(&replays),
        );
    }

    // Wire parsing of the same batches.
    let mut text = String::new();
    let mut lines_parsed = 0usize;
    let raw: Vec<Vec<String>> = inp
        .batches
        .iter()
        .map(|b| {
            let evs = b.iter().map(|(k, e)| Ev {
                tenant: k[2..].parse().expect("bench key"),
                item: e.item,
                ts: e.ts,
            });
            let ranges = render_batch(&mut text, evs);
            ranges
                .iter()
                .map(|&(a, z)| text[a..z].to_string())
                .collect()
        })
        .collect();
    for (b, lines) in raw.iter().enumerate() {
        rec.time("protocol", b, || {
            for l in lines {
                std::hint::black_box(parse_data_line(l.as_bytes()).ok());
            }
        });
        lines_parsed += lines.len();
    }
    m.insert(
        "server.protocol.parse_ns_per_line",
        rec.total("protocol") * 1e9 / lines_parsed as f64,
    );

    // The engine in process, then the whole server over TCP.
    let dir = ctx.work.join("layer-engine");
    fresh(&dir)?;
    {
        let engine = Engine::start(&config(&dir)).map_err(|e| format!("engine: {e}"))?;
        for chunk in inp.lap.chunks(WARM_CHUNK) {
            engine
                .ingest(&with_counts(chunk))
                .map_err(|e| format!("engine warm-up: {e}"))?;
        }
        if ctx.w.is_open() {
            // As on the wire: create the views, then read each once so
            // they are hot and maintained after every batch.
            for def in view_defs()? {
                let name = def.name.clone();
                engine
                    .view_create(def)
                    .map_err(|e| format!("engine view: {e}"))?;
                engine
                    .view_read(&name)
                    .map_err(|e| format!("engine view read: {e}"))?;
            }
        }
        for (b, batch) in inp.batches.iter().enumerate() {
            let batch = with_counts(batch);
            rec.time("engine", b, || engine.ingest(&batch))
                .map_err(|e| format!("engine ingest: {e}"))?;
        }
        let q = time_secs(|| {
            for p in audit {
                let _ = std::hint::black_box(engine.query_served(
                    &key(p.tenant),
                    &OwnedQuery::Point { item: p.item },
                    window,
                ));
            }
        });
        m.insert("server.engine.ingest_eps", events / rec.total("engine"));
        m.insert("server.engine.query_us", q * 1e6 / audit.len() as f64);
        engine
            .shutdown()
            .map_err(|e| format!("engine shutdown: {e}"))?;
    }
    fresh(&dir)?;
    {
        let server =
            Server::start(config(&dir).addr("127.0.0.1:0")).map_err(|e| format!("server: {e}"))?;
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let lap_lines: Vec<String> = inp
            .lap
            .iter()
            .map(|(k, e)| format!("{k} {} {}", e.ts, e.item))
            .collect();
        for chunk in lap_lines.chunks(WARM_CHUNK) {
            client
                .batch(chunk)
                .map_err(|e| format!("server warm-up: {e}"))?;
        }
        if ctx.w.is_open() {
            for def in view_defs()? {
                let name = def.name.clone();
                server
                    .engine()
                    .view_create(def)
                    .map_err(|e| format!("server view: {e}"))?;
                server
                    .engine()
                    .view_read(&name)
                    .map_err(|e| format!("server view read: {e}"))?;
            }
        }
        for (b, lines) in raw.iter().enumerate() {
            let resp = rec
                .time("client", b, || client.batch(lines))
                .map_err(|e| format!("client batch: {e}"))?;
            if !resp.starts_with("{\"ok\":true") {
                return Err(format!("in-process server rejected a batch: {resp}"));
            }
        }
        m.insert(
            "server.frontend.batch_tax_us",
            (rec.total("client") - rec.total("engine")) * 1e6 / k,
        );
        server.stop().map_err(|e| format!("server stop: {e}"))?;
        server.join();
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The waterfall: mean time per batch of each layer. The layers beneath
    // the engine ran on one thread over the whole store; inside the engine
    // the shards split that work and run in parallel, so the engine's self
    // time subtracts their per-shard share.
    let per_batch = |layers: &[&str]| layers.iter().map(|l| rec.total(l)).sum::<f64>() * 1e6 / k;
    let mut beneath = per_batch(&["store", "publish.clone", "publish", "wal"]);
    if ctx.w.is_open() {
        beneath += per_batch(&["views"]);
    }
    let engine = per_batch(&["engine"]);
    let publish_tax = per_batch(&["publish.clone", "publish"]);
    m.insert("waterfall.sketch_us", per_batch(&["sketch"]));
    m.insert(
        "waterfall.store_self_us",
        per_batch(&["store"]) - per_batch(&["sketch"]),
    );
    m.insert("waterfall.publish_tax_us", publish_tax);
    m.insert(
        "waterfall.publish_share",
        publish_tax / SHARDS as f64 / engine,
    );
    m.insert("waterfall.engine_us", engine);
    m.insert("waterfall.engine_self_us", engine - beneath / SHARDS as f64);
    m.insert("waterfall.client_us", per_batch(&["client"]));

    rec.write(&ctx.trace_file)?;
    Ok(m)
}
