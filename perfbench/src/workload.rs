//! The three workloads, the traces they replay, and the exact oracle the
//! accuracy audit scores against.
//!
//! Every workload shares one sketch spec (time window 10⁶ ticks,
//! ε = δ = 0.1, 2 shards, durable with no fsync, default publication) and
//! one trace shape: a `stream-gen` bursty-Zipf trace whose sites are the
//! tenants. The trace is generated once per run as one *lap* of
//! `pool` events spanning `pool` ticks; the stream replays the lap over
//! and over, each lap shifted by the lap's span, so ticks keep rising for
//! as long as a closed loop can ingest.

use std::collections::HashMap;

use stream_gen::{SeededRng, WorkloadSpec};

/// Sliding-window span, in ticks.
pub const WINDOW: u64 = 1_000_000;
/// The spec's relative error ε.
pub const EPSILON: f64 = 0.1;
/// The spec's failure probability δ.
pub const DELTA: f64 = 0.1;
/// Shard workers in sketchd.
pub const SHARDS: usize = 2;
/// Generator threads and connections (the host's 2 cores).
pub const CONNS: usize = 2;
/// Stream item domain and its Zipf skew (the `worldcup_like` values).
const ITEMS: u64 = 50_000;
const ITEM_SKEW: f64 = 0.85;
/// Standing views registered on `read-mix` (and by the view probe).
pub const VIEWS: usize = 8;

/// How a workload offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loop {
    /// Each connection sends its next `BATCH` only after the previous one
    /// is acked.
    Closed {
        /// Lines per `BATCH`.
        batch: usize,
    },
    /// Two threads, each on a fixed schedule: writes and `TOPK`s on one,
    /// point `QUERY`s and `VIEW READ`s on the other.
    Open {
        /// Events per second offered.
        write_eps: f64,
        /// Lines per `BATCH`.
        write_batch: usize,
        /// `TOPK`s per second offered.
        topk_rps: f64,
        /// Point `QUERY`s and `VIEW READ`s per second offered.
        read_rps: f64,
    },
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Distinct tenant keys.
    pub tenants: u32,
    /// Zipf skew of tenant popularity.
    pub tenant_skew: f64,
    pub offered: Loop,
    /// Why the workload exists (also recorded in `BENCHMARK.json`).
    pub why: &'static str,
}

impl Workload {
    /// Lines per `BATCH` in the timed phase (and in the layer replay).
    pub fn batch(&self) -> usize {
        match self.offered {
            Loop::Closed { batch } => batch,
            Loop::Open { write_batch, .. } => write_batch,
        }
    }

    /// Whether `read-mix`'s recovery-and-open-loop shape applies.
    pub fn is_open(&self) -> bool {
        matches!(self.offered, Loop::Open { .. })
    }
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ingest-hot",
        tenants: 32,
        tenant_skew: 0.4,
        offered: Loop::Closed { batch: 1024 },
        why: "32 tenants, store fits in cache: the per-event path (parse, route, WAL append, \
              sketch kernel) does the work and publication is cheap",
    },
    Workload {
        name: "ingest-fleet",
        tenants: 2_000,
        tenant_skew: 1.05,
        offered: Loop::Closed { batch: 1024 },
        why: "2,000 Zipf(1.05) tenants, store far beyond cache: the per-batch publication copy \
              of the whole store dominates, the kernel's share is small",
    },
    Workload {
        name: "read-mix",
        tenants: 2_000,
        tenant_skew: 1.05,
        offered: Loop::Open {
            write_eps: 1_000.0,
            write_batch: 256,
            topk_rps: 10.0,
            read_rps: 200.0,
        },
        why: "crash recovery, then open-loop point/TOPK/VIEW READ traffic beside a slow writer: \
              the read path and the freshness-gate fallback do the work, the kernel idles",
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The wire key of tenant `t`.
pub fn key(t: u32) -> String {
    format!("t-{t}")
}

/// One stream arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ev {
    pub tenant: u32,
    pub item: u64,
    pub ts: u64,
}

/// One lap of the workload's trace, also split per connection: tenant
/// `t` is pinned to connection `t % CONNS`, so each tenant's ticks never go
/// backwards on the wire.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The lap in global arrival order.
    pub lap: Vec<Ev>,
    /// Ticks one lap covers; lap `L` is shifted by `L · span`.
    pub span: u64,
    /// The lap split per connection, order preserved.
    pub conns: Vec<Vec<Ev>>,
}

impl Trace {
    /// Generate the lap of `pool` events for `w` from `seed`.
    pub fn generate(w: &Workload, seed: u64, pool: usize) -> Trace {
        let events = WorkloadSpec {
            events: pool,
            keys: ITEMS,
            sites: w.tenants,
            key_skew: ITEM_SKEW,
            site_skew: w.tenant_skew,
            duration: pool as u64,
            diurnal_amplitude: 0.6,
            day_cycles: 4,
            seed,
        }
        .generate();
        let lap: Vec<Ev> = events
            .iter()
            .map(|e| Ev {
                tenant: e.site,
                item: e.key,
                ts: e.ts,
            })
            .collect();
        let mut conns: Vec<Vec<Ev>> = (0..CONNS)
            .map(|_| Vec::with_capacity(pool / CONNS + 1))
            .collect();
        for e in &lap {
            conns[e.tenant as usize % CONNS].push(*e);
        }
        Trace {
            lap,
            span: pool as u64,
            conns,
        }
    }

    /// Event `j` of connection `c`'s endless stream.
    pub fn conn_event(&self, c: usize, j: usize) -> Ev {
        shifted(&self.conns[c], self.span, j)
    }

    /// Event `j` of the endless global stream.
    pub fn global_event(&self, j: usize) -> Ev {
        shifted(&self.lap, self.span, j)
    }

    /// The tenant set, as ranked by the generator (rank 0 most popular).
    pub fn tenants(&self) -> u32 {
        self.lap.iter().map(|e| e.tenant + 1).max().unwrap_or(0)
    }
}

fn shifted(events: &[Ev], span: u64, j: usize) -> Ev {
    let e = events[j % events.len()];
    Ev {
        ts: e.ts + (j / events.len()) as u64 * span,
        ..e
    }
}

/// Append `<key> <ts> <item>` (no newline) to `buf`.
pub fn render_line(buf: &mut String, e: Ev) {
    use std::fmt::Write;
    write!(buf, "t-{} {} {}", e.tenant, e.ts, e.item).expect("writing to a String cannot fail");
}

/// Render `events` as `BATCH` body lines into `buf`, returning the
/// byte range of each line.
pub fn render_batch(buf: &mut String, events: impl Iterator<Item = Ev>) -> Vec<(usize, usize)> {
    buf.clear();
    let mut ranges = Vec::new();
    for e in events {
        let start = buf.len();
        render_line(buf, e);
        ranges.push((start, buf.len()));
    }
    ranges
}

/// One audited point answer: the exact in-window count of `item` in
/// `tenant`'s stream and that tenant's in-window stream norm ‖a‖₁.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditPoint {
    pub tenant: u32,
    pub item: u64,
    pub exact: u64,
    pub norm: u64,
}

/// Draw the audit set: `n` events sampled uniformly from the first lap's
/// events inside the window `(now − WINDOW, now]` (so heavier items are
/// audited more often), deduplicated, with exact counts and norms from a
/// full scan of the lap.
pub fn audit_set(trace: &Trace, seed: u64, n: usize, now: u64) -> Vec<AuditPoint> {
    let lo = now.saturating_sub(WINDOW);
    let in_window: Vec<&Ev> = trace
        .lap
        .iter()
        .filter(|e| e.ts > lo && e.ts <= now)
        .collect();
    let mut rng = SeededRng::seed_from_u64(seed ^ 0xA0D1_7000_0000_0001);
    let mut picked: Vec<(u32, u64)> = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..n {
        let e = in_window[(rng.next_u64() % in_window.len() as u64) as usize];
        if seen.insert((e.tenant, e.item)) {
            picked.push((e.tenant, e.item));
        }
    }
    let mut exact: HashMap<(u32, u64), u64> = picked.iter().map(|&p| (p, 0)).collect();
    let mut norm: HashMap<u32, u64> = HashMap::new();
    for e in &in_window {
        *norm.entry(e.tenant).or_default() += 1;
        if let Some(c) = exact.get_mut(&(e.tenant, e.item)) {
            *c += 1;
        }
    }
    picked
        .into_iter()
        .map(|(tenant, item)| AuditPoint {
            tenant,
            item,
            exact: exact[&(tenant, item)],
            norm: norm[&tenant],
        })
        .collect()
}

/// How the served answers scored against the oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditScore {
    /// Answers scored.
    pub n: usize,
    /// p99 of |est − exact| ÷ (ε·‖a‖₁).
    pub err_p99: f64,
    /// Answers whose error exceeded ε·‖a‖₁.
    pub violations: usize,
    /// The largest violation share the (ε, δ) contract allows at this
    /// sample size: δ plus three binomial standard deviations.
    pub allowed_share: f64,
}

impl AuditScore {
    /// Share of answers outside ε·‖a‖₁.
    pub fn violation_share(&self) -> f64 {
        self.violations as f64 / self.n as f64
    }

    /// Whether the violation share stays within the contract.
    pub fn holds(&self) -> bool {
        self.violation_share() <= self.allowed_share
    }
}

/// Score served estimates (same order as `audit`) against the oracle.
pub fn score(audit: &[AuditPoint], estimates: &[f64]) -> AuditScore {
    assert_eq!(audit.len(), estimates.len(), "one estimate per audit point");
    let mut rel: Vec<f64> = Vec::with_capacity(audit.len());
    let mut violations = 0;
    for (a, &est) in audit.iter().zip(estimates) {
        let bound = EPSILON * a.norm as f64;
        let err = (est - a.exact as f64).abs();
        if err > bound {
            violations += 1;
        }
        rel.push(err / bound);
    }
    let n = audit.len();
    rel.sort_by(f64::total_cmp);
    AuditScore {
        n,
        err_p99: crate::stats::quantile(&rel, 0.99),
        violations,
        allowed_share: DELTA + 3.0 * (DELTA * (1.0 - DELTA) / n as f64).sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_seeded_and_laps_keep_ticks_rising() {
        let w = by_name("ingest-fleet").expect("workload");
        let a = Trace::generate(w, 7, 4_096);
        let b = Trace::generate(w, 7, 4_096);
        assert_eq!(a.lap, b.lap);
        assert_ne!(a.lap, Trace::generate(w, 8, 4_096).lap);
        for c in 0..CONNS {
            let n = a.conns[c].len();
            let mut last = 0;
            for j in 0..3 * n {
                let e = a.conn_event(c, j);
                assert_eq!(e.tenant as usize % CONNS, c);
                assert!(e.ts >= last, "ticks go backwards on connection {c}");
                last = e.ts;
            }
        }
        assert!(a.global_event(a.lap.len()).ts > a.span);
    }

    #[test]
    fn audit_counts_match_a_direct_scan() {
        let w = by_name("ingest-hot").expect("workload");
        let t = Trace::generate(w, 3, 8_192);
        let audit = audit_set(&t, 3, 50, t.span);
        assert!(!audit.is_empty());
        for a in &audit {
            let exact = t
                .lap
                .iter()
                .filter(|e| e.tenant == a.tenant && e.item == a.item)
                .count() as u64;
            assert_eq!(a.exact, exact);
            assert!(a.exact >= 1 && a.norm >= a.exact);
        }
    }

    #[test]
    fn exact_answers_score_zero_and_wrong_ones_violate() {
        let audit = vec![
            AuditPoint {
                tenant: 0,
                item: 1,
                exact: 5,
                norm: 100,
            };
            100
        ];
        let exact: Vec<f64> = audit.iter().map(|a| a.exact as f64).collect();
        let s = score(&audit, &exact);
        assert_eq!((s.err_p99, s.violations), (0.0, 0));
        assert!(s.holds());
        let off: Vec<f64> = exact.iter().map(|v| v + 11.0).collect();
        let s = score(&audit, &off);
        assert_eq!(s.violations, 100);
        assert!(!s.holds());
    }
}
