//! Stress of the *real* `LeftRight` implementation with racing threads
//! (the interleaving suite checks the protocol exhaustively on a step
//! model; this file runs the shipped SeqCst code under genuine
//! contention), plus the copy-on-write contract of publishing
//! [`SketchStore`] clones: a pinned epoch shares sketches with the write
//! copy, yet never changes when the writer writes through them.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use ecm::publish::{Epoch, LeftRight};
use ecm::{Backend, Clock, Query, SketchSpec, SketchStore, WindowSpec};

/// Racing pins against a publishing writer: every pinned epoch must be
/// internally consistent (value derived from its clock) and publication
/// sequence numbers must never run backwards within one reader.
#[test]
fn racing_pins_only_ever_see_whole_epochs() {
    // Value is a function of clock; a torn epoch would break the pairing.
    let lr = Arc::new(LeftRight::new(Epoch::initial((0u64, 0u64), 0, 0)));
    let stop = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicUsize::new(0));

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let lr = Arc::clone(&lr);
            let stop = Arc::clone(&stop);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let mut announced = false;
                let mut last_seq = 0u64;
                let mut pins = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let e = lr.pin();
                    if !announced {
                        started.fetch_add(1, Ordering::SeqCst);
                        announced = true;
                    }
                    assert_eq!(
                        e.value,
                        (e.clock, e.clock.wrapping_mul(0x9E37_79B9)),
                        "torn epoch at seq {}",
                        e.seq
                    );
                    assert!(e.seq >= last_seq, "seq ran backwards");
                    last_seq = e.seq;
                    pins += 1;
                }
                pins
            })
        })
        .collect();

    // Publish until every reader has pinned at least once (on a one-core
    // box the publisher can otherwise finish before readers run at all),
    // with a floor so the writer side is genuinely hot.
    let mut clock = 0u64;
    while clock < 20_000 || started.load(Ordering::SeqCst) < 3 {
        clock += 1;
        lr.publish(Epoch {
            value: (clock, clock.wrapping_mul(0x9E37_79B9)),
            seq: 0,
            clock,
            applied: clock,
        });
        if clock % 64 == 0 {
            std::thread::yield_now();
        }
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().expect("reader panicked") > 0, "reader starved");
    }
    let last = lr.pin();
    assert_eq!(last.clock, clock, "final pin sees the final publication");
    assert_eq!(lr.seq(), clock);
}

/// Every backend the spec language can build.
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

/// Every answer a pinned store gives for `key`, rendered exactly (`{:?}`
/// of an `f64` round-trips its bits), plus the store's full snapshot.
fn fingerprint(store: &SketchStore<String>, key: &String, w: WindowSpec) -> (Vec<String>, Vec<u8>) {
    let answers = [
        Query::total_arrivals(),
        Query::self_join(),
        Query::point(3),
        Query::point(7),
    ]
    .iter()
    .map(|q| format!("{:?}", store.query(key, q, w)))
    .collect();
    // Snapshotting advances a checkpoint sequence, so render from a
    // (shallow) clone and leave the pinned store as it is.
    let bytes = store.clone().write_snapshot().expect("snapshot");
    (answers, bytes)
}

/// Pinned epochs are immutable snapshots: a pin taken before later writes
/// keeps answering — and serializing — from its own publication point,
/// although it shares the written key's sketch with the write copy until
/// the writer's next write to that key copies it.
#[test]
fn old_pins_keep_their_snapshot_while_the_writer_moves_on() {
    for (i, spec) in backends().into_iter().enumerate() {
        let window = |now: u64| match spec.clock() {
            Clock::Time => WindowSpec::time(now, 1_000),
            Clock::Count => WindowSpec::last(150),
        };
        let hot = "tenant-7".to_string();
        let mut store: SketchStore<String> = SketchStore::new(spec.clone()).expect("spec");
        let lr = LeftRight::new(Epoch::initial(store.clone(), 0, 0));
        for t in 1..=100u64 {
            store.insert(hot.clone(), t, t % 8);
            store.insert("tenant-1".to_string(), t, 3);
        }
        lr.publish(Epoch {
            value: store.clone(),
            seq: 0,
            clock: 100,
            applied: 1,
        });
        let frozen = lr.pin();
        let before = fingerprint(&frozen.value, &hot, window(100));

        // The writer writes the same key again and publishes twice.
        for (applied, end) in [(2u64, 150u64), (3, 200)] {
            for t in end - 49..=end {
                store.insert(hot.clone(), t, 7);
            }
            store.advance_to(end);
            lr.publish(Epoch {
                value: store.clone(),
                seq: 0,
                clock: end,
                applied,
            });
        }

        assert_eq!(frozen.seq, 1, "spec {i}");
        let after = fingerprint(&frozen.value, &hot, window(100));
        assert_eq!(before.0, after.0, "spec {i}: old pin's answers changed");
        assert!(before.1 == after.1, "spec {i}: old pin's snapshot changed");
        // A fresh pin sees the new writes.
        let fresh = lr.pin();
        assert_eq!(fresh.seq, 3, "spec {i}");
        let total = |s: &SketchStore<String>| {
            s.query(&hot, &Query::total_arrivals(), window(200))
                .expect("resident")
                .expect("total")
                .value()
                .expect("scalar")
        };
        assert!(
            total(&fresh.value) > total(&frozen.value),
            "spec {i}: fresh pin misses the new writes"
        );
    }
}
