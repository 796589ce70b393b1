//! JSON response rendering — one object per line, hand-rolled (the
//! container has no JSON dependency).
//!
//! Numbers are rendered with Rust's shortest-round-trip `f64` formatting,
//! so a response is **bit-identical** to the in-process estimate it
//! reports: the end-to-end test renders the same [`Answer`] through the
//! same functions on both sides and compares strings. Non-finite values
//! (which no correct backend produces) render as `null` rather than
//! emitting invalid JSON.

use ecm::{Answer, Estimate, QueryError, ViewAnswer, ViewError, ViewEvent, ViewReadout};

use crate::engine::{ShardStatus, SnapshotReport, ViewsSummary};

/// Escape a string for inclusion in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Shortest-round-trip rendering of a finite `f64`; `null` otherwise.
fn float(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn estimate(e: &Estimate) -> String {
    let guarantee = match e.guarantee {
        Some(g) => format!(
            "{{\"epsilon\":{},\"delta\":{}}}",
            float(g.epsilon),
            float(g.delta)
        ),
        None => "null".to_string(),
    };
    format!("\"value\":{},\"guarantee\":{}", float(e.value), guarantee)
}

/// `{"ok":false,...}` with a machine-readable code and a human detail.
pub fn error(code: &str, detail: &str) -> String {
    format!(
        "{{\"ok\":false,\"error\":\"{}\",\"detail\":\"{}\"}}",
        escape(code),
        escape(detail)
    )
}

/// A [`QueryError`] as a response line.
pub fn query_error(e: &QueryError) -> String {
    error("query", &e.to_string())
}

/// `{"ok":false,...}` for a transient failure the client may retry:
/// carries `"retryable":true` and a suggested backoff so a generic
/// client needs no per-code table.
pub fn retry_error(code: &str, detail: &str, retry_after_ms: u64) -> String {
    format!(
        "{{\"ok\":false,\"error\":\"{}\",\"detail\":\"{}\",\"retryable\":true,\
         \"retry_after_ms\":{retry_after_ms}}}",
        escape(code),
        escape(detail)
    )
}

/// Reply to `PING`.
pub fn pong() -> String {
    "{\"ok\":true,\"pong\":true}".to_string()
}

/// Ack for `STORE` / `BATCH`: `n` event occurrences accepted.
pub fn ingested(n: u64) -> String {
    format!("{{\"ok\":true,\"ingested\":{n}}}")
}

/// Ack for `FLUSH`.
pub fn flushed(ts: u64) -> String {
    format!("{{\"ok\":true,\"advanced_to\":{ts}}}")
}

/// Ack for `SHUTDOWN` (sent before the socket closes).
pub fn shutdown() -> String {
    "{\"ok\":true,\"shutdown\":true}".to_string()
}

/// A query [`Answer`] as a response line; `query` is the wire verb.
pub fn answer(query: &str, a: &Answer) -> String {
    match a {
        Answer::Value(e) => format!(
            "{{\"ok\":true,\"query\":\"{}\",{}}}",
            escape(query),
            estimate(e)
        ),
        Answer::HeavyHitters(hits) => {
            let rows: Vec<String> = hits
                .iter()
                .map(|(k, e)| format!("{{\"key\":{k},{}}}", estimate(e)))
                .collect();
            format!(
                "{{\"ok\":true,\"query\":\"{}\",\"hitters\":[{}]}}",
                escape(query),
                rows.join(",")
            )
        }
        Answer::Quantile(k) => {
            let key = match k {
                Some(k) => k.to_string(),
                None => "null".to_string(),
            };
            format!(
                "{{\"ok\":true,\"query\":\"{}\",\"key\":{key}}}",
                escape(query)
            )
        }
    }
}

/// A query [`Answer`] with its consistency point: [`answer`] plus a
/// trailing `"now"` field carrying the owning shard's write clock (its
/// sketches' largest `write_clock()`: the latest applied tick on time
/// clocks, the arrival count on count clocks) at the moment the answer
/// was computed. The
/// clock is a pure function of the acked event multiset, so two servers
/// that acked the same events render byte-identical responses — which is
/// what lets the differential and chaos suites keep comparing whole
/// strings.
pub fn answer_at(query: &str, a: &Answer, now: u64) -> String {
    let base = answer(query, a);
    debug_assert!(base.ends_with('}'));
    format!("{},\"now\":{now}}}", &base[..base.len() - 1])
}

/// A merged `TOPK` ranking as a response line.
pub fn topk(rows: &[(String, f64)]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|(k, v)| format!("{{\"key\":\"{}\",\"value\":{}}}", escape(k), float(*v)))
        .collect();
    format!("{{\"ok\":true,\"topk\":[{}]}}", rows.join(","))
}

/// Per-shard `STATS` as a response line, plus fleet-wide totals and the
/// standing-view counters. Every shard row carries its supervision
/// `health` block; the worker-reported numbers are present only when the
/// worker could answer (a restarting or dead shard still gets a row, so
/// the operator sees *that* it is down and how often it has been). The
/// fleet totals sum over the shards that answered.
pub fn stats(rows: &[ShardStatus], views: &ViewsSummary) -> String {
    let answered = || rows.iter().filter_map(|r| r.stats.as_ref());
    let keys: usize = answered().map(|s| s.keys).sum();
    let memory: usize = answered().map(|s| s.memory_bytes).sum();
    let ingested: u64 = answered().map(|s| s.ingested).sum();
    let wal_bytes: u64 = answered().map(|s| s.wal_bytes).sum();
    let compactions: u64 = answered().map(|s| s.compactions).sum();
    let shards: Vec<String> = rows
        .iter()
        .map(|r| {
            let h = &r.health;
            // `"fallback_reads":0` is a constant kept for perfbench's STATS parser.
            let health = format!(
                "\"health\":{{\"state\":\"{}\",\"restarts\":{},\"last_restart_ms\":{},\
                 \"mailbox_hwm\":{},\"shed_requests\":{},\"published_reads\":{},\
                 \"fallback_reads\":0}}",
                h.state,
                h.restarts,
                h.last_restart_ms,
                h.mailbox_hwm,
                h.shed_requests,
                h.published_reads
            );
            match &r.stats {
                Some(s) => format!(
                    "{{\"shard\":{},{health},\"keys\":{},\"memory_bytes\":{},\"ingested\":{},\
                     \"checkpoint_seq\":{},\"wal_bytes\":{},\"wal_segments\":{},\
                     \"compactions\":{},\"views\":{},\"view_maintenance\":{}}}",
                    r.shard,
                    s.keys,
                    s.memory_bytes,
                    s.ingested,
                    s.checkpoint_seq,
                    s.wal_bytes,
                    s.wal_segments,
                    s.compactions,
                    s.views,
                    s.view_maintenance
                ),
                None => format!("{{\"shard\":{},{health}}}", r.shard),
            }
        })
        .collect();
    format!(
        "{{\"ok\":true,\"keys\":{keys},\"memory_bytes\":{memory},\"ingested\":{ingested},\
         \"wal_bytes\":{wal_bytes},\"compactions\":{compactions},\
         \"views\":{{\"registered\":{},\"maintenance\":{},\"subscribers\":{},\
         \"dropped_notifications\":{}}},\"shards\":[{}]}}",
        views.registered,
        views.maintenance,
        views.subscribers,
        views.dropped,
        shards.join(",")
    )
}

/// A completed `SNAPSHOT` as a response line.
pub fn snapshot(r: &SnapshotReport) -> String {
    format!(
        "{{\"ok\":true,\"snapshot\":\"{}\",\"dir\":\"{}\",\"shards\":{},\"bytes\":{}}}",
        if r.incremental { "incr" } else { "full" },
        escape(&r.dir),
        r.shards,
        r.bytes
    )
}

/// Heavy-hitter rows — the same rendering [`answer`] uses, so a view
/// readout's hitters are string-identical to the on-demand query's.
fn hitter_rows(hits: &[(u64, Estimate)]) -> String {
    let rows: Vec<String> = hits
        .iter()
        .map(|(k, e)| format!("{{\"key\":{k},{}}}", estimate(e)))
        .collect();
    rows.join(",")
}

/// Ranking rows — the same rendering [`topk`] uses.
fn ranking_rows(rows: &[(String, f64)]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|(k, v)| format!("{{\"key\":\"{}\",\"value\":{}}}", escape(k), float(*v)))
        .collect();
    rows.join(",")
}

/// Ack for `VIEW CREATE`.
pub fn view_created(name: &str) -> String {
    format!(
        "{{\"ok\":true,\"view\":\"{}\",\"created\":true}}",
        escape(name)
    )
}

/// Ack for `VIEW DROP`.
pub fn view_dropped(name: &str) -> String {
    format!(
        "{{\"ok\":true,\"view\":\"{}\",\"dropped\":true}}",
        escape(name)
    )
}

/// `VIEW LIST` as a response line: `(name, kind, wire definition)` rows.
pub fn view_list(rows: &[(String, &'static str, String)]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|(name, kind, def)| {
            format!(
                "{{\"name\":\"{}\",\"kind\":\"{kind}\",\"def\":\"{}\"}}",
                escape(name),
                escape(def)
            )
        })
        .collect();
    format!("{{\"ok\":true,\"views\":[{}]}}", rows.join(","))
}

/// A `VIEW READ` readout as a response line. The answer body uses the
/// same estimate / row rendering as the on-demand [`answer`] and
/// [`topk`] responses — the differential suite compares the substrings.
pub fn view_read(name: &str, r: &ViewReadout<String>) -> String {
    let body = match &r.answer {
        ViewAnswer::Scalar { estimate: e, above } => format!("{},\"above\":{above}", estimate(e)),
        ViewAnswer::Hitters(hits) => format!("\"hitters\":[{}]", hitter_rows(hits)),
        ViewAnswer::Ranking(rows) => format!("\"topk\":[{}]", ranking_rows(rows)),
    };
    format!(
        "{{\"ok\":true,\"view\":\"{}\",\"kind\":\"{}\",{body},\"now\":{},\"seq\":{}}}",
        escape(name),
        r.answer.kind(),
        r.now,
        r.seq
    )
}

/// A [`ViewError`] as a response line.
pub fn view_error(e: &ViewError) -> String {
    error(e.code(), &e.to_string())
}

/// Ack for `SUBSCRIBE` (sent before the connection turns push-only).
pub fn subscribed(view: &str) -> String {
    format!("{{\"ok\":true,\"subscribed\":\"{}\"}}", escape(view))
}

/// A maintenance notification as a push line.
pub fn view_event(e: &ViewEvent<String>) -> String {
    match e {
        ViewEvent::ThresholdCrossed {
            name,
            above,
            estimate: est,
            now,
            seq,
        } => format!(
            "{{\"ok\":true,\"notify\":\"threshold\",\"view\":\"{}\",\"above\":{above},{},\
             \"now\":{now},\"seq\":{seq}}}",
            escape(name),
            estimate(est)
        ),
        ViewEvent::HittersChanged {
            name,
            entered,
            left,
            hitters,
            now,
            seq,
        } => {
            let entered: Vec<String> = entered.iter().map(u64::to_string).collect();
            let left: Vec<String> = left.iter().map(u64::to_string).collect();
            format!(
                "{{\"ok\":true,\"notify\":\"heavy_hitters\",\"view\":\"{}\",\
                 \"entered\":[{}],\"left\":[{}],\"hitters\":[{}],\"now\":{now},\"seq\":{seq}}}",
                escape(name),
                entered.join(","),
                left.join(","),
                hitter_rows(hitters)
            )
        }
        ViewEvent::RankingChanged {
            name,
            ranking,
            now,
            seq,
        } => format!(
            "{{\"ok\":true,\"notify\":\"topk\",\"view\":\"{}\",\"topk\":[{}],\
             \"now\":{now},\"seq\":{seq}}}",
            escape(name),
            ranking_rows(ranking)
        ),
    }
}

/// The marker a subscriber sees when a shard serving its view died and
/// was rebuilt: notifications between the crash and the restart are gone
/// (the view's state is restored, its in-flight pushes are not), so the
/// marker is published *before* the replacement worker's first
/// post-restart notification.
pub fn restarted(view: &str, shard: usize) -> String {
    format!(
        "{{\"ok\":true,\"notify\":\"restarted\",\"view\":\"{}\",\"shard\":{shard}}}",
        escape(view)
    )
}

/// The typed gap record a slow subscriber sees in place of the `count`
/// notifications its full outbox lost.
pub fn drop_marker(count: u64, view: &str) -> String {
    format!(
        "{{\"ok\":true,\"notify\":\"dropped\",\"view\":\"{}\",\"count\":{count}}}",
        escape(view)
    )
}

/// The idle keep-alive line on a subscription stream (lets the server
/// detect a dead peer by write failure).
pub fn heartbeat() -> String {
    "{\"ok\":true,\"notify\":\"ping\"}".to_string()
}

/// Whether a response line reports success (cheap client-side check that
/// avoids a JSON parser).
pub fn is_ok(resp: &str) -> bool {
    resp.starts_with("{\"ok\":true")
}
