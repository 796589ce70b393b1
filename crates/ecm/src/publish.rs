//! Wait-free read publication: left-right epoch pairs.
//!
//! The worker loops that apply writes ([`SketchStore`] shards in the
//! server) used to serialize every query behind the same mailbox as
//! ingest, so read throughput was capped by the write path no matter how
//! many cores sat idle. This module decouples them with the *left-right*
//! scheme (Ramalhete & Correia; the concurrency design in
//! jonhoo's thesis implementation chapter): the writer keeps two slots, and
//! an atomic index says which slot readers may use. Publishing installs a
//! fresh snapshot in the slot readers are *not* on, toggles the index, and
//! waits for straggler readers to depart the old side before that side is
//! ever written again.
//!
//! Readers are **wait-free**: a pin is two counter operations and an
//! `Arc` clone — no locks, no retry loops, no mailbox round-trip — and the
//! returned [`Epoch`] stays valid for as long as the caller holds it, even
//! across later publications. Writers pay the publication cost: the
//! snapshot itself, plus a bounded wait for readers that are mid-pin,
//! which is nanoseconds because the pinned section is just the `Arc`
//! clone. For a [`SketchStore`] the snapshot is a shallow clone that
//! shares every sketch with the write copy; the writer then copies a
//! tenant's sketch on its first write after the publish, so a publication
//! costs the bytes of the keys written since the last one, not the whole
//! store.
//!
//! # The protocol
//!
//! Shared state: `slots[2]` (each an `Arc<Epoch<T>>`), `lr` (which slot
//! readers use), `version` (which arrival counter readers use), and
//! `readers[2]` arrival counters. All atomics use `SeqCst`: the reader's
//! counter increment must be globally ordered against the writer's drain
//! loop, otherwise a reader could arrive unseen on the side about to be
//! overwritten.
//!
//! * **Pin** (reader): `v = version; readers[v] += 1; i = lr;
//!   epoch = slots[i].clone(); readers[v] -= 1`.
//! * **Publish** (writer, serialized by a mutex):
//!   `next = 1 - lr; slots[next] = new; lr = next;` then
//!   *toggle-and-wait*: `v = version; drain(readers[1 - v]);
//!   version = 1 - v; drain(readers[v])`.
//!
//! Why this is safe: publish `N` writes slot `s = 1 - lr`, the side readers
//! were directed away from by publish `N-1`'s `lr` store. Any reader still
//! holding `s` loaded `lr` before that store, so it arrived on a counter
//! that publish `N-1`'s two-phase drain waited out before returning. Hence
//! no reader can be between "loaded `lr == s`" and "cloned `slots[s]`"
//! while publish `N` overwrites `slots[s]` — no torn `Arc`, and no reader
//! ever observes a half-published snapshot. The interleaving suite in
//! `tests/left_right_interleavings.rs` checks this exhaustively on a step
//! model of the same state machine; `tests/left_right_publish.rs` stresses
//! the real implementation with racing threads.
//!
//! # Epoch metadata
//!
//! Every published [`Epoch`] carries a publication sequence number
//! ([`Epoch::seq`]), the write clock of the snapshot ([`Epoch::clock`] —
//! the consistency point a response can echo), and the number of writes
//! applied when it was cut ([`Epoch::applied`]). A writer that publishes
//! each write before acknowledging it (as the server's shard workers do)
//! needs no further freshness check: every acknowledged write is already
//! on the current epoch.
//!
//! # Example
//!
//! One writer publishes [`SketchStore`] snapshots; a reader thread pins
//! whatever epoch is current and queries it while the writer moves on.
//!
//! ```
//! use std::sync::Arc;
//!
//! use ecm::publish::{Epoch, LeftRight};
//! use ecm::{Query, SketchSpec, SketchStore, WindowSpec};
//!
//! let spec = SketchSpec::time(1_000).epsilon(0.1).delta(0.1).seed(1);
//! let mut store: SketchStore<String> = SketchStore::new(spec).unwrap();
//! let lr = Arc::new(LeftRight::new(Epoch::initial(store.clone(), 0, 0)));
//! let reader = Arc::clone(&lr);
//! let probe = std::thread::spawn(move || {
//!     // Wait-free: never blocks on the writer, always sees a whole epoch —
//!     // the empty initial one or the published one, nothing in between.
//!     reader.pin().value.len()
//! });
//! for t in 1..=1_000u64 {
//!     store.insert(format!("tenant-{}", t % 4), t, t % 20);
//! }
//! // A shallow clone: the epoch shares every sketch with the write copy.
//! let value = store.clone();
//! lr.publish(Epoch { value, seq: 0, clock: 1_000, applied: 1 });
//! assert!(matches!(probe.join().unwrap(), 0 | 4));
//!
//! // The writer moves on; its first write to a tenant copies that one
//! // sketch, and the pinned epoch keeps answering from publication time.
//! let pinned = lr.pin();
//! store.insert("tenant-1".to_string(), 1_001, 7);
//! let w = WindowSpec::time(1_001, 1_000);
//! let key = "tenant-1".to_string();
//! let old = pinned.value.query(&key, &Query::total_arrivals(), w);
//! let new = store.query(&key, &Query::total_arrivals(), w);
//! assert_ne!(old, new);
//! ```
//!
//! [`SketchStore`]: crate::store::SketchStore

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// One published snapshot plus its consistency point.
#[derive(Debug, Clone)]
pub struct Epoch<T> {
    /// The snapshot readers query.
    pub value: T,
    /// Publication sequence: 0 for the initial epoch, then +1 per publish.
    pub seq: u64,
    /// The snapshot's write clock (last tick written / declared when it
    /// was cut) — the consistency point served answers can carry.
    pub clock: u64,
    /// Write batches the writer had applied when the snapshot was cut —
    /// monotone across publishes, so it orders epochs by the writes they
    /// reflect (the racing-pin stress test checks it is never torn from
    /// `value`).
    pub applied: u64,
}

impl<T> Epoch<T> {
    /// An initial epoch (sequence 0) around `value`.
    pub fn initial(value: T, clock: u64, applied: u64) -> Self {
        Epoch {
            value,
            seq: 0,
            clock,
            applied,
        }
    }
}

/// A left-right pair of published epochs: one writer, any number of
/// wait-free readers. See the [module docs](self) for the protocol and its
/// safety argument.
pub struct LeftRight<T> {
    /// The two publication slots. A slot is only rewritten while the
    /// protocol guarantees no reader holds it (see module docs), which is
    /// what makes the `UnsafeCell` sound.
    slots: [UnsafeCell<Arc<Epoch<T>>>; 2],
    /// Which slot readers pin (0 or 1).
    lr: AtomicUsize,
    /// Which arrival counter readers use (0 or 1).
    version: AtomicUsize,
    /// Reader arrival counters, indexed by `version` at arrival time.
    readers: [AtomicUsize; 2],
    /// Serializes publishers. Readers never touch it.
    writer: Mutex<()>,
    /// Monotone publication counter (`Epoch::seq` source of truth).
    seq: AtomicU64,
}

// SAFETY: the left-right protocol guarantees a slot is never written while
// any reader dereferences it (see the module docs), so sharing `LeftRight`
// across threads is sound whenever the payload itself may cross threads.
unsafe impl<T: Send + Sync> Send for LeftRight<T> {}
unsafe impl<T: Send + Sync> Sync for LeftRight<T> {}

impl<T> LeftRight<T> {
    /// A pair whose both slots hold `initial` (sequence 0).
    pub fn new(initial: Epoch<T>) -> Self {
        let first = Arc::new(initial);
        LeftRight {
            slots: [UnsafeCell::new(Arc::clone(&first)), UnsafeCell::new(first)],
            lr: AtomicUsize::new(0),
            version: AtomicUsize::new(0),
            readers: [AtomicUsize::new(0), AtomicUsize::new(0)],
            writer: Mutex::new(()),
            seq: AtomicU64::new(0),
        }
    }

    /// Pin the current epoch — **wait-free**: two counter operations and an
    /// `Arc` clone, never a lock or a retry. The returned epoch stays
    /// valid for as long as the caller holds it, across any number of
    /// later publications.
    pub fn pin(&self) -> Arc<Epoch<T>> {
        let v = self.version.load(SeqCst);
        self.readers[v].fetch_add(1, SeqCst);
        let side = self.lr.load(SeqCst);
        // SAFETY: the arrival above is ordered (SeqCst) before this load
        // and the writer's drain; per the protocol the slot `lr` points at
        // is not concurrently rewritten (module docs).
        let epoch = unsafe { (*self.slots[side].get()).clone() };
        self.readers[v].fetch_sub(1, SeqCst);
        epoch
    }

    /// The sequence number of the most recent publication (0 = only the
    /// initial epoch exists).
    pub fn seq(&self) -> u64 {
        self.seq.load(SeqCst)
    }

    /// Publish a new epoch: install it on the side readers are not on,
    /// redirect readers, then wait out stragglers so the *other* side is
    /// safe to rewrite next time. The epoch's `seq` is assigned here
    /// (monotone). Callers may race; publishers serialize on an internal
    /// mutex. Readers are never blocked.
    pub fn publish(&self, mut epoch: Epoch<T>) -> u64 {
        let guard = self
            .writer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let seq = self.seq.load(SeqCst) + 1;
        epoch.seq = seq;
        let next = 1 - self.lr.load(SeqCst);
        // SAFETY: `next` is the side readers were directed away from by
        // the previous publish, whose two-phase drain (below) waited out
        // every reader that could still have held it.
        unsafe {
            *self.slots[next].get() = Arc::new(epoch);
        }
        self.lr.store(next, SeqCst);
        self.seq.store(seq, SeqCst);
        // Toggle-and-wait: after both drains, no reader that arrived
        // before the `lr` store above can still be pinning the old side.
        let v = self.version.load(SeqCst);
        self.wait_empty(1 - v);
        self.version.store(1 - v, SeqCst);
        self.wait_empty(v);
        drop(guard);
        seq
    }

    /// Spin (with yields) until arrival counter `i` drains. Bounded by the
    /// longest concurrent pin, which is an `Arc` clone — nanoseconds.
    fn wait_empty(&self, i: usize) {
        let mut spins = 0u32;
        while self.readers[i].load(SeqCst) != 0 {
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

impl<T> std::fmt::Debug for LeftRight<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeftRight")
            .field("seq", &self.seq.load(SeqCst))
            .field("lr", &self.lr.load(SeqCst))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_sees_initial_then_published_epochs() {
        let lr = LeftRight::new(Epoch::initial(41u64, 0, 0));
        let e0 = lr.pin();
        assert_eq!((e0.value, e0.seq), (41, 0));
        let seq = lr.publish(Epoch {
            value: 42,
            seq: 0,
            clock: 7,
            applied: 1,
        });
        assert_eq!(seq, 1);
        let e1 = lr.pin();
        assert_eq!((e1.value, e1.seq, e1.clock, e1.applied), (42, 1, 7, 1));
        // The old pin stays valid and unchanged.
        assert_eq!(e0.value, 41);
    }

    #[test]
    fn publication_sequence_is_monotone() {
        let lr = LeftRight::new(Epoch::initial(0u64, 0, 0));
        for i in 1..=10 {
            let seq = lr.publish(Epoch {
                value: i,
                seq: 0,
                clock: i,
                applied: i,
            });
            assert_eq!(seq, i);
            assert_eq!(lr.pin().seq, i);
        }
        assert_eq!(lr.seq(), 10);
    }

    #[test]
    fn concurrent_pins_never_observe_torn_epochs() {
        // Payload with a redundant checksum: a torn read would break it.
        let lr = Arc::new(LeftRight::new(Epoch::initial((0u64, 0u64), 0, 0)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let started = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let lr = Arc::clone(&lr);
                let stop = Arc::clone(&stop);
                let started = Arc::clone(&started);
                std::thread::spawn(move || {
                    let mut pins = 0u64;
                    while !stop.load(SeqCst) {
                        let e = lr.pin();
                        assert_eq!(e.value.0.wrapping_mul(31), e.value.1, "torn epoch");
                        assert_eq!(e.applied, e.value.0, "epoch metadata torn");
                        pins += 1;
                        if pins == 1 {
                            started.fetch_add(1, SeqCst);
                        }
                    }
                    pins
                })
            })
            .collect();
        // Publish at least 10k epochs, then keep going until every reader
        // has completed a pin — on a single-core box the publisher can
        // otherwise finish before the reader threads are first scheduled.
        let mut i = 0u64;
        while i < 10_000 || started.load(SeqCst) < 3 {
            i += 1;
            lr.publish(Epoch {
                value: (i, i.wrapping_mul(31)),
                seq: 0,
                clock: i,
                applied: i,
            });
            if i % 64 == 0 {
                std::thread::yield_now();
            }
        }
        stop.store(true, SeqCst);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader starved");
        }
        assert_eq!(lr.pin().value.0, i);
    }
}
