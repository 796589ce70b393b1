//! Differential suite for the read path: an answer served from a
//! shard's published epoch must render **byte-identically** to an
//! in-process oracle [`SketchStore`] fed the same acked batches — across
//! every backend the spec language can build, immediately after every
//! acked write (read-your-writes, with and without durability), through
//! a mid-publication checkpoint/restore, and after a crash-shaped shard
//! restart replays the WAL and re-publishes.

use std::sync::Arc;
use std::time::Duration;

use ecm::{Backend, Clock, Query, SketchStore, StreamEvent, Threshold, WindowSpec};
use sketch_server::engine::{route, Engine};
use sketch_server::protocol::{response, OwnedQuery};
use sketch_server::{ServerConfig, SketchSpec};
use stream_gen::SeededRng;

/// Every backend the spec language can build — the same ten shapes the
/// `ecm` API suite round-trips.
fn backends() -> Vec<SketchSpec> {
    vec![
        SketchSpec::time(1_000).backend(Backend::Eh),
        SketchSpec::time(1_000).backend(Backend::Dw),
        SketchSpec::time(1_000)
            .backend(Backend::Rw)
            .epsilon(0.25)
            .max_arrivals(5_000),
        SketchSpec::time(1_000).backend(Backend::Exact),
        SketchSpec::time(1_000).backend(Backend::Ew { buckets: 10 }),
        SketchSpec::time(1_000).backend(Backend::Decayed),
        SketchSpec::time(1_000).hierarchy(8),
        SketchSpec::time(1_000).sharded(3),
        SketchSpec::count(1_000),
        SketchSpec::count(1_000).hierarchy(8),
    ]
}

/// The full query vocabulary — including kinds some backends refuse, so
/// the *error* rendering is proven identical on both paths too.
fn probes() -> Vec<OwnedQuery> {
    vec![
        OwnedQuery::Total,
        OwnedQuery::SelfJoin,
        OwnedQuery::Point { item: 3 },
        OwnedQuery::Point { item: 200 },
        OwnedQuery::Range { lo: 0, hi: 15 },
        OwnedQuery::HeavyHitters {
            threshold: Threshold::Relative(0.05),
        },
        OwnedQuery::Quantile { phi: 0.5 },
    ]
}

/// Seeded keyed trace: 6 tenants, items inside the 2^8 universe, globally
/// non-decreasing ticks.
fn trace(events: usize, seed: u64) -> Vec<(String, StreamEvent)> {
    let mut rng = SeededRng::seed_from_u64(seed);
    let mut ts = 0u64;
    (0..events)
        .map(|_| {
            ts += rng.next_u64() % 3;
            let tenant = rng.next_u64() % 6;
            let item = rng.next_u64() % 16;
            (format!("user-{tenant}"), StreamEvent::new(item, ts))
        })
        .collect()
}

fn weighted(events: &[(String, StreamEvent)]) -> Vec<(String, StreamEvent, u64)> {
    events.iter().map(|(k, e)| (k.clone(), *e, 1)).collect()
}

/// Render a query outcome through the exact wire path responses use.
fn render(q: &OwnedQuery, answer: &Option<Result<ecm::Answer, ecm::QueryError>>) -> String {
    match answer {
        None => "<unknown key>".to_string(),
        Some(Ok(a)) => response::answer(q.name(), a),
        Some(Err(e)) => response::query_error(e),
    }
}

/// The consistency point the engine must stamp on a read of `key`: the
/// largest write clock among the oracle's sketches that live on `key`'s
/// shard.
fn shard_clock(oracle: &SketchStore<String>, key: &str, shards: usize) -> u64 {
    oracle
        .iter()
        .filter(|(k, _)| route(k, shards) == route(key, shards))
        .map(|(_, s)| s.write_clock())
        .max()
        .unwrap_or(0)
}

/// Point/range/self-join/heavy-hitter answers from the published epoch
/// are bit-identical to the oracle's, and carry the oracle's consistency
/// point, for all ten backend shapes.
#[test]
fn served_answers_match_the_oracle_on_every_backend() {
    for (i, spec) in backends().into_iter().enumerate() {
        let engine =
            Engine::start(&ServerConfig::new(spec.clone()).shards(2)).expect("engine start");
        let events = trace(600, 0xD1FF + i as u64);
        let now = events.last().expect("non-empty trace").1.ts;
        engine.ingest(&weighted(&events)).expect("ingest");
        let oracle = mirror(&spec, &events);

        let window = match spec.clock() {
            Clock::Time => WindowSpec::time(now, 1_000),
            Clock::Count => WindowSpec::last(200),
        };
        for (key, _) in events.iter().take(1).chain(events.iter().rev().take(1)) {
            for q in probes() {
                let served = engine.query_served(key, &q, window).expect("query_served");
                assert_eq!(
                    render(&q, &served.answer),
                    render(&q, &oracle.query(key, &q.to_query(), window)),
                    "spec {i}: {key} {} diverged from the oracle",
                    q.name()
                );
                assert_eq!(
                    served.clock,
                    shard_clock(&oracle, key, 2),
                    "spec {i}: consistency point diverged for {key} {}",
                    q.name()
                );
            }
        }
        engine.shutdown().expect("shutdown");
    }
}

/// Read-your-writes: after every acked `ingest`, an immediate
/// `query_served` and `top_k` — no retry, no sleep — render exactly as
/// the oracle fed the same acked batches does.
fn reads_follow_every_ack(durable: bool) {
    let specs = [
        SketchSpec::time(1_000).seed(5).hierarchy(8),
        SketchSpec::count(1_000).seed(5),
    ];
    for (i, spec) in specs.into_iter().enumerate() {
        let dir =
            std::env::temp_dir().join(format!("sketchd-ryw-{durable}-{i}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ServerConfig::new(spec.clone()).shards(2);
        if durable {
            cfg = cfg.snapshot_dir(&dir).durability(true);
        }
        let engine = Engine::start(&cfg).expect("engine start");
        let mut oracle = SketchStore::new(spec.clone()).expect("oracle spec");
        let events = trace(400, 0x5EAD + i as u64);
        for batch in events.chunks(20) {
            engine.ingest(&weighted(batch)).expect("ingest");
            oracle.ingest(batch);
            let now = batch.last().expect("non-empty batch").1.ts;
            let window = match spec.clock() {
                Clock::Time => WindowSpec::time(now, 1_000),
                Clock::Count => WindowSpec::last(50),
            };
            let ctx = format!("durable={durable} spec {i} at tick {now}");
            for key in oracle.keys() {
                for q in probes() {
                    let served = engine.query_served(&key, &q, window).expect("query_served");
                    assert_eq!(
                        render(&q, &served.answer),
                        render(&q, &oracle.query(&key, &q.to_query(), window)),
                        "{ctx}: {key} {} missed an acked write",
                        q.name()
                    );
                    assert_eq!(
                        served.clock,
                        shard_clock(&oracle, &key, 2),
                        "{ctx}: {key} consistency point"
                    );
                }
            }
            assert_eq!(
                response::topk(&engine.top_k(4, window).expect("top_k")),
                response::topk(&oracle.top_k(4, &Query::total_arrivals(), window)),
                "{ctx}: top_k missed an acked write"
            );
        }
        engine.shutdown().expect("shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn reads_follow_every_ack_without_durability() {
    reads_follow_every_ack(false);
}

#[test]
fn reads_follow_every_ack_with_durability() {
    reads_follow_every_ack(true);
}

/// An un-sharded mirror of the whole trace — per-key sketches are
/// identical to the engine's, whatever shard owns them.
fn mirror(spec: &SketchSpec, events: &[(String, StreamEvent)]) -> SketchStore<String> {
    let mut store = SketchStore::new(spec.clone()).expect("mirror spec");
    store.ingest(events);
    store
}

fn assert_matches_mirror(
    engine: &Engine,
    store: &SketchStore<String>,
    window: WindowSpec,
    ctx: &str,
) {
    for key in store.keys() {
        for q in probes() {
            let served = engine.query_served(&key, &q, window).expect("query_served");
            assert_eq!(
                served.clock,
                shard_clock(store, &key, engine.shards()),
                "{ctx}: {key} consistency point"
            );
            let expected = store.query(&key, &q.to_query(), window);
            assert_eq!(
                render(&q, &served.answer),
                render(&q, &expected),
                "{ctx}: {key} {} diverged from mirror",
                q.name()
            );
        }
    }
}

/// A checkpoint cut while concurrent writers keep the mailboxes busy and
/// publications in flight restores to a state whose *re-published*
/// epochs are bit-identical to a mirror of every acked event — both after
/// a crash-shaped per-shard restart (WAL tail replay) and after a
/// graceful restart from disk.
#[test]
fn mid_publication_snapshot_restores_and_republishes_after_wal_replay() {
    let dir = std::env::temp_dir().join(format!("sketchd-midpub-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let spec = SketchSpec::time(10_000)
        .epsilon(0.2)
        .delta(0.2)
        .seed(7)
        .hierarchy(8);
    let cfg = ServerConfig::new(spec.clone())
        .shards(2)
        .snapshot_dir(&dir)
        .durability(true);
    let engine = Arc::new(Engine::start(&cfg).expect("engine start"));

    // Two writers over disjoint tenants (cross-thread interleaving can't
    // reorder any single key's events), each acking small batches.
    let writers: Vec<_> = (0..2u64)
        .map(|t| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut rng = SeededRng::seed_from_u64(0xA11CE + t);
                let mut ts = 1u64;
                let mut events = Vec::new();
                for _ in 0..40 {
                    let batch: Vec<_> = (0..25)
                        .map(|_| {
                            ts += rng.next_u64() % 3;
                            let tenant = t * 4 + rng.next_u64() % 4;
                            (
                                format!("user-{tenant}"),
                                StreamEvent::new(rng.next_u64() % 256, ts),
                                1u64,
                            )
                        })
                        .collect();
                    engine.ingest(&batch).expect("writer ingest");
                    events.extend(batch);
                }
                events
            })
        })
        .collect();

    // Mid-run: cut a full checkpoint while writes and publications are in
    // flight (reads keep serving from the published epochs meanwhile).
    std::thread::sleep(Duration::from_millis(30));
    let w_probe = WindowSpec::time(10_000, 10_000);
    engine
        .query_served("user-0", &OwnedQuery::Total, w_probe)
        .expect("mid-run read");
    engine.snapshot(&dir, false).expect("mid-run checkpoint");

    let mut all: Vec<(String, StreamEvent)> = Vec::new();
    for w in writers {
        all.extend(
            w.join()
                .expect("writer panicked")
                .into_iter()
                .map(|(k, e, _)| (k, e)),
        );
    }
    let now = all.iter().map(|(_, e)| e.ts).max().expect("events");
    let store = mirror(&spec, &all);
    let window = WindowSpec::time(now, 10_000);

    // Crash-shaped restart of both shards: rebuild = mid-run checkpoint +
    // WAL tail replay, then an immediate re-publication — reads must come
    // back bit-identical to the mirror of all acked events.
    for shard in 0..engine.shards() {
        engine.restart_shard(shard).expect("restart");
    }
    // `restart_shard` only enqueues the kill; the supervisor notices and
    // respawns asynchronously. Wait until every shard reports itself
    // restarted and back up, so the shutdown below cannot race a worker
    // that is still dying or still quarantined.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match engine.stats() {
            Ok(rows)
                if rows
                    .iter()
                    .all(|r| r.health.state == "up" && r.health.restarts >= 1) =>
            {
                break
            }
            Ok(_) => {}
            Err(e) if e.is_retryable() => {}
            Err(e) => panic!("stats during restart: {e}"),
        }
        assert!(
            std::time::Instant::now() < deadline,
            "shards never came back up"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_matches_mirror(&engine, &store, window, "after crash restart");
    engine.shutdown().expect("shutdown");

    // Graceful restart from the same directory: restore re-publishes
    // before the engine accepts its first query.
    let engine = Engine::start(
        &ServerConfig::new(spec)
            .shards(2)
            .snapshot_dir(&dir)
            .durability(true),
    )
    .expect("restart from disk");
    assert_matches_mirror(&engine, &store, window, "after graceful restart");
    engine.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
