//! Engine-level tests below the TCP layer: routing determinism, the
//! ingest gate, typed refusals, and backpressure-safe shutdown.

use ecm::StreamEvent;
use sketch_server::engine::{fnv1a, route, Engine, EngineError};
use sketch_server::protocol::OwnedQuery;
use sketch_server::{ServerConfig, SketchSpec, WindowSpec};

fn spec() -> SketchSpec {
    SketchSpec::time(10_000).epsilon(0.2).delta(0.2).seed(3)
}

#[test]
fn fnv1a_matches_the_reference_vectors() {
    // Published FNV-1a 64-bit test vectors.
    assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a("foobar"), 0x85944171f73967e8);
}

#[test]
fn routing_is_deterministic_and_covers_all_shards() {
    let n = 8;
    for key in ["alice", "bob", "user-123", ""] {
        assert_eq!(route(key, n), route(key, n), "stable for {key:?}");
        assert!(route(key, n) < n);
    }
    // 1000 distinct keys must not all collapse onto a few shards.
    let mut hit = vec![false; n];
    for i in 0..1000 {
        hit[route(&format!("key-{i}"), n)] = true;
    }
    assert!(hit.iter().all(|&h| h), "every shard owns some keys");
}

#[test]
fn config_domain_errors_are_typed() {
    let err = Engine::start(&ServerConfig::new(spec()).shards(0)).expect_err("0 shards");
    assert!(matches!(err, EngineError::InvalidConfig(_)));
    let err = Engine::start(&ServerConfig::new(spec()).mailbox_depth(0)).expect_err("0 depth");
    assert!(matches!(err, EngineError::InvalidConfig(_)));
    let bad_spec = SketchSpec::time(10_000).epsilon(0.0);
    let err = Engine::start(&ServerConfig::new(bad_spec)).expect_err("bad spec");
    assert!(matches!(err, EngineError::Spec(_)));
}

#[test]
fn hierarchy_universe_guard_rejects_the_whole_batch() {
    let cfg = ServerConfig::new(spec().hierarchy(4)).shards(2);
    let engine = Engine::start(&cfg).expect("engine");
    // Item 16 is outside the 2^4 universe: reject, and apply nothing.
    let batch = vec![
        ("a".to_string(), StreamEvent::new(3, 1), 1),
        ("b".to_string(), StreamEvent::new(16, 1), 1),
    ];
    let err = engine.ingest(&batch).expect_err("out of universe");
    assert!(matches!(
        err,
        EngineError::ItemOutOfUniverse { item: 16, bits: 4 }
    ));
    let stats = engine.stats().expect("stats");
    let ingested: u64 = stats
        .iter()
        .filter_map(|s| s.stats.as_ref())
        .map(|s| s.ingested)
        .sum();
    assert_eq!(ingested, 0);
    engine.shutdown().expect("shutdown");
}

#[test]
fn oversized_weighted_batches_are_refused() {
    let engine = Engine::start(&ServerConfig::new(spec()).shards(1)).expect("engine");
    let heavy: Vec<_> = (0..8)
        .map(|i| (format!("k{i}"), StreamEvent::new(1, 1), 1 << 20))
        .collect();
    let err = engine.ingest(&heavy).expect_err("too heavy");
    assert!(matches!(err, EngineError::IngestTooHeavy { .. }));
    engine.shutdown().expect("shutdown");
}

#[test]
fn shutdown_is_idempotent_and_closes_the_gate() {
    let engine = Engine::start(&ServerConfig::new(spec()).shards(2)).expect("engine");
    engine
        .ingest(&[("k".to_string(), StreamEvent::new(1, 5), 2)])
        .expect("ingest");
    engine.shutdown().expect("first shutdown");
    engine.shutdown().expect("second shutdown is a no-op");
    assert!(engine.is_down());

    let w = WindowSpec::time(10, 10);
    assert!(matches!(
        engine.ingest(&[("k".to_string(), StreamEvent::new(1, 6), 1)]),
        Err(EngineError::ShuttingDown)
    ));
    assert!(matches!(
        engine.query("k", &OwnedQuery::Total, w),
        Err(EngineError::ShuttingDown)
    ));
    assert!(matches!(engine.stats(), Err(EngineError::ShuttingDown)));
    assert!(matches!(engine.flush(10), Err(EngineError::ShuttingDown)));
}

#[test]
fn tiny_mailboxes_still_drain_everything() {
    // Depth-1 mailboxes: every send blocks until the worker drains —
    // pure backpressure, zero loss.
    let cfg = ServerConfig::new(spec()).shards(2).mailbox_depth(1);
    let engine = Engine::start(&cfg).expect("engine");
    for i in 0..200u64 {
        engine
            .ingest(&[(format!("k{}", i % 7), StreamEvent::new(i % 8, 1 + i), 1)])
            .expect("ingest under backpressure");
    }
    let stats = engine.stats().expect("stats");
    let rows: Vec<_> = stats.iter().filter_map(|s| s.stats.as_ref()).collect();
    assert_eq!(rows.len(), stats.len(), "all shards answered");
    assert_eq!(rows.iter().map(|s| s.ingested).sum::<u64>(), 200);
    assert_eq!(rows.iter().map(|s| s.keys).sum::<usize>(), 7);
    assert!(rows.iter().all(|s| s.memory_bytes > 0 || s.keys == 0));
    engine.shutdown().expect("shutdown");
}

#[test]
fn broadcast_top_k_merges_like_one_store() {
    let engine = Engine::start(&ServerConfig::new(spec()).shards(4)).expect("engine");
    // Distinct volumes: k0 gets 50, k1 gets 40, ... k4 gets 10.
    let mut batch = Vec::new();
    for (i, n) in [(0u64, 50u64), (1, 40), (2, 30), (3, 20), (4, 10)] {
        batch.push((format!("k{i}"), StreamEvent::new(1, 100), n));
    }
    engine.ingest(&batch).expect("ingest");
    let top = engine
        .top_k(3, WindowSpec::time(100, 10_000))
        .expect("top_k");
    let names: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["k0", "k1", "k2"]);
    assert!(top[0].1 > top[1].1 && top[1].1 > top[2].1);
    engine.shutdown().expect("shutdown");
}

/// Retry an engine call through restart blips: retryable errors mean "not
/// applied, try again"; anything else is a real failure.
fn retry_until_ok<T>(mut call: impl FnMut() -> Result<T, EngineError>, what: &str) -> T {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        match call() {
            Ok(v) => return v,
            Err(e) if e.is_retryable() => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "{what}: still retrying after 10s: {e}"
                );
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => panic!("{what}: non-retryable: {e}"),
        }
    }
}

#[test]
fn restart_shard_respawns_from_wal_without_losing_siblings() {
    // Durable engine: a crash-shaped restart must replay the WAL tail, so
    // every *acked* write survives. (Without durability an ack means
    // "applied and visible", not crash-safe — a crash may legitimately
    // drop it.)
    let dir = std::env::temp_dir().join(format!("sketchd-engine-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let cfg = ServerConfig::new(spec())
        .shards(2)
        .snapshot_dir(&dir)
        .durability(true);
    let engine = Engine::start(&cfg).expect("engine");
    // "a" routes to one shard, "b" to the other (checked below) — killing
    // a's shard must leave b's untouched.
    let (sa, sb) = (route("a", 2), route("b", 2));
    assert_ne!(sa, sb, "the test needs the keys on different shards");
    engine
        .ingest(&[
            ("a".to_string(), StreamEvent::new(1, 10), 3),
            ("b".to_string(), StreamEvent::new(1, 10), 5),
        ])
        .expect("ingest");

    engine.restart_shard(sa).expect("restart");
    // The sibling keeps answering throughout; go through the typed-retry
    // path anyway so a routing change cannot turn this into a hang.
    let w = WindowSpec::time(10, 10_000);
    let b = retry_until_ok(|| engine.query("b", &OwnedQuery::Total, w), "query b");
    let b = b
        .expect("b exists")
        .expect("answers")
        .value()
        .expect("scalar");
    assert_eq!(b.round() as u64, 5);

    // The killed shard comes back with the acked history replayed, and
    // keeps serving new writes.
    retry_until_ok(
        || engine.ingest(&[("a".to_string(), StreamEvent::new(2, 10), 7)]),
        "ingest a after restart",
    );
    let a = retry_until_ok(|| engine.query("a", &OwnedQuery::Total, w), "query a");
    let a = a
        .expect("a exists")
        .expect("answers")
        .value()
        .expect("scalar");
    assert_eq!(
        a.round() as u64,
        3 + 7,
        "WAL tail replayed, new write applied"
    );

    let stats = engine.stats().expect("stats");
    assert_eq!(stats[sa].health.restarts, 1);
    assert_eq!(stats[sb].health.restarts, 0);
    assert_eq!(stats[sa].health.state, "up");
    engine.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_range_restart_is_a_typed_refusal() {
    let engine = Engine::start(&ServerConfig::new(spec()).shards(2)).expect("engine");
    assert!(matches!(
        engine.restart_shard(2),
        Err(EngineError::InvalidConfig(_))
    ));
    engine.shutdown().expect("shutdown");
}

#[test]
fn malformed_fault_plan_is_a_typed_start_error() {
    let cfg = ServerConfig::new(spec()).fault_plan("bogus:explode@now");
    assert!(matches!(
        Engine::start(&cfg),
        Err(EngineError::FaultPlan(_))
    ));
}

#[test]
fn wedged_shard_sheds_typed_overloaded_then_recovers() {
    // The 3rd message stalls its worker for 1.5 s; with a 200 ms health
    // deadline the supervisor quarantines the shard as wedged (no respawn:
    // the thread is alive), and admission sheds instead of blocking.
    let cfg = ServerConfig::new(spec())
        .shards(1)
        .mailbox_depth(1)
        .health_deadline(std::time::Duration::from_millis(200))
        .admission_timeout(std::time::Duration::from_millis(100))
        .fault_plan("shard:delay=1500ms@seq=3");
    let engine = Engine::start(&cfg).expect("engine");
    let event = |i: u64| vec![("k".to_string(), StreamEvent::new(1, i), 1)];
    engine.ingest(&event(1)).expect("ingest 1");
    engine.ingest(&event(2)).expect("ingest 2");
    // Message 3 stalls the worker. An ingest waits for its ack, so a probe
    // that wins the depth-1 mailbox (or is itself the stalled seq-3
    // message) blocks until the stall passes: probe from fresh threads
    // until one is shed, and collect every probe's outcome.
    let (tx, rx) = std::sync::mpsc::channel();
    let mut outcomes = Vec::new();
    std::thread::scope(|scope| {
        let (engine, event) = (&engine, &event);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let shed = loop {
            let tx = tx.clone();
            // Every probe uses the same timestamp: any of them may become
            // the stalled message, and equal timestamps keep the worker's
            // per-key non-decreasing ordering valid in every interleaving.
            scope.spawn(move || {
                let _ = tx.send(engine.ingest(&event(3)));
            });
            match rx.recv_timeout(std::time::Duration::from_millis(20)) {
                Ok(Err(e @ EngineError::Overloaded { .. })) => break e,
                // Admitted, another refusal, or still blocked behind the
                // stall — keep probing; the outcome is checked below.
                Ok(outcome) => outcomes.push(outcome),
                Err(_) => {}
            }
            assert!(std::time::Instant::now() < deadline, "never shed");
        };
        assert!(shed.is_retryable());
        assert!(shed.to_string().contains("retry"), "hint in: {shed}");
    });
    // The scope joined every probe: the stall passed, the supervisor
    // flipped the shard back to up, and the blocked probes were acked.
    drop(tx);
    outcomes.extend(rx.try_iter());
    for outcome in &outcomes {
        if let Err(e) = outcome {
            assert!(e.is_retryable(), "probe ended non-retryable: {e}");
        }
    }
    assert!(
        outcomes.iter().any(Result::is_ok),
        "the stalled seq-3 ingest never landed: {outcomes:?}"
    );
    retry_until_ok(|| engine.ingest(&event(9)), "ingest after recovery");
    let stats = retry_until_ok(|| engine.stats(), "stats");
    assert_eq!(stats[0].health.state, "up");
    assert_eq!(stats[0].health.restarts, 0, "wedged is not dead");
    assert!(stats[0].health.shed_requests >= 1, "{:?}", stats[0].health);
    engine.shutdown().expect("shutdown");
}

#[test]
fn consistency_point_survives_a_restart_on_count_clocks() {
    // On a count clock a sketch's write clock is its arrival count, not an
    // event tick: the clock a read carries must be the same definition
    // before and after a restart rebuilds the shard from its WAL.
    let dir = std::env::temp_dir().join(format!("sketchd-engine-clock-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig::new(SketchSpec::count(1_000))
        .shards(1)
        .snapshot_dir(&dir)
        .durability(true);
    let engine = Engine::start(&cfg).expect("engine");
    for _ in 0..3 {
        engine
            .ingest(&[("k".to_string(), StreamEvent::new(1, 500), 1)])
            .expect("ingest");
    }
    let w = WindowSpec::last(1_000);
    let before = engine
        .query_served("k", &OwnedQuery::Total, w)
        .expect("query before restart");
    engine.restart_shard(0).expect("restart");
    retry_until_ok(
        || match engine.stats()?.first() {
            Some(row) if row.health.restarts == 1 && row.health.state == "up" => Ok(()),
            _ => Err(EngineError::ShardRestarting { shard: 0 }),
        },
        "shard back up",
    );
    let after = engine
        .query_served("k", &OwnedQuery::Total, w)
        .expect("query after restart");
    assert_eq!(after.clock, before.clock, "restart moved \"now\"");
    assert_eq!(before.clock, 3, "the clock counts arrivals");
    assert_eq!(
        format!("{:?}", after.answer),
        format!("{:?}", before.answer),
        "restart changed the answer"
    );
    engine.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
