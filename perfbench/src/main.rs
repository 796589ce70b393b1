//! `perfbench` — the end-to-end `sketchd` benchmark.
//!
//! ```text
//! perfbench --workload <ingest-hot|ingest-fleet|read-mix> --seed <n>
//!           --seconds <s> --trace <0|1> --sketchd <path-to-sketchd>
//!           [--work <dir>] [--tiny] [--fault <wrong-oracle|miscount-ack|drop-now>]
//! ```
//!
//! With `--trace 0` it drives a `sketchd` child over TCP and prints the
//! end-to-end metrics; with `--trace 1` it drives it the same way to
//! scrape the outside-in counters, then replays the inputs through each
//! library layer with spans and prints the per-layer metrics. The last
//! stdout line is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! A violated correctness gate prints its reason and exits 1; a run that
//! cannot complete exits 2 without a result line. `--tiny` shrinks every
//! size for the self-test; `--fault` corrupts one gate's input on purpose,
//! to prove the gate trips.

mod daemon;
mod drive;
mod json;
mod layers;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::exit;

use workload::{Trace, Workload};

/// Deliberate corruption of one correctness gate's input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Score the audit against an oracle shifted past ε·‖a‖₁.
    WrongOracle,
    /// Count one more acked event than the server acked.
    MiscountAck,
    /// Drop the `"now"` field from one `QUERY` reply.
    DropNow,
}

/// Run sizes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Events in one lap of the trace (warm-up and preload size).
    pub pool: usize,
    /// Point answers audited against the oracle.
    pub audit: usize,
    /// Set-ups per run (the median is reported, the last one is kept).
    pub setups: usize,
    /// Seconds each closed-loop read probe spends on each read kind.
    pub probe_secs: f64,
    /// Timed-phase batches the traced replay pushes through each layer.
    pub replay_batches: usize,
}

const FULL: Scale = Scale {
    pool: 1 << 20,
    audit: 2_000,
    setups: 5,
    probe_secs: 0.75,
    replay_batches: 48,
};

const TINY: Scale = Scale {
    pool: 1 << 15,
    audit: 200,
    setups: 2,
    probe_secs: 0.05,
    replay_batches: 8,
};

/// Everything one invocation needs.
pub struct Ctx {
    pub w: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub sketchd: PathBuf,
    /// Scratch space for sketchd data directories (removed after use).
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_file: PathBuf,
    pub fault: Option<Fault>,
}

struct Args {
    ctx: Ctx,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
         --sketchd <path> [--work <dir>] [--tiny] [--fault <wrong-oracle|miscount-ack|drop-now>]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut sketchd) =
        (None, None, None, None, None);
    let mut work = PathBuf::from(".bench_work");
    let mut scale = FULL;
    let mut fault = None;
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            scale = TINY;
            continue;
        }
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed must be an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage("--seconds must be positive")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                })
            }
            "--sketchd" => sketchd = Some(PathBuf::from(value)),
            "--work" => work = PathBuf::from(value),
            "--fault" => {
                fault = Some(match value.as_str() {
                    "wrong-oracle" => Fault::WrongOracle,
                    "miscount-ack" => Fault::MiscountAck,
                    "drop-now" => Fault::DropNow,
                    _ => usage(&format!("unknown fault {value:?}")),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let w: &'static Workload = workload.unwrap_or_else(|| usage("--workload is required"));
    Args {
        ctx: Ctx {
            w,
            seed: seed.unwrap_or_else(|| usage("--seed is required")),
            seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
            scale,
            sketchd: sketchd.unwrap_or_else(|| usage("--sketchd is required")),
            trace_file: work.join(format!("spans-{}.tsv", w.name)),
            work: work.join(w.name),
            fault,
        },
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// Metrics in print order: (name, value, unit).
type Metrics = Vec<(String, f64, &'static str)>;

/// The end-to-end metrics the result line carries (`BENCHMARK.json`'s
/// `end_to_end`). The others are printed for reading only: on a 2-vCPU
/// host their spread between runs exceeds any bound worth gating on (see
/// the README).
const GATED: [&str; 5] = [
    "setup_s",
    "topk_p50_us",
    "cpu_us_per_event",
    "peak_rss_mb",
    "point_err_p99",
];

fn end_to_end(e: &drive::E2e) -> Result<Metrics, String> {
    let mut m: Metrics = vec![
        ("setup_s".into(), stats::median(&e.setups), "s"),
        (
            "ingest_eps".into(),
            e.timed_acked as f64 / e.timed_secs,
            "events/s",
        ),
    ];
    let timings: [(&str, &[f64], &'static str); 4] = [
        ("ack", &e.ack_ms, "ms"),
        ("query", &e.query_us, "us"),
        ("topk", &e.topk_us, "us"),
        ("view_read", &e.view_us, "us"),
    ];
    for (name, samples, unit) in timings {
        let s = stats::summarize(samples).ok_or_else(|| format!("no {name} samples"))?;
        println!(
            "  {name}: {} samples; p50 {:.4} {unit}; p{:.1} {:.4} {unit} (reported as {name}_p99_{unit})",
            s.n,
            s.p50,
            s.tail_q * 100.0,
            s.tail
        );
        m.push((format!("{name}_p50_{unit}"), s.p50, unit));
        m.push((format!("{name}_p99_{unit}"), s.tail, unit));
    }
    m.push((
        "cpu_us_per_event".into(),
        e.cpu_secs * 1e6 / e.timed_acked.max(1) as f64,
        "us",
    ));
    m.push((
        "peak_rss_mb".into(),
        e.peak_rss_bytes / (1 << 20) as f64,
        "MB",
    ));
    let audit = e.audit.ok_or("no audit ran")?;
    m.push(("point_err_p99".into(), audit.err_p99, "ratio"));
    Ok(m)
}

fn per_layer(e: &drive::E2e, layers: std::collections::BTreeMap<&'static str, f64>) -> Metrics {
    let s = &e.stats;
    let reads = s.published_reads + s.fallback_reads;
    let mut m: Metrics = vec![
        (
            "server.engine.fallback_share".into(),
            if reads > 0.0 {
                s.fallback_reads / reads
            } else {
                0.0
            },
            "ratio",
        ),
        ("server.engine.mailbox_hwm".into(), s.mailbox_hwm, "count"),
        (
            "server.engine.shed_requests".into(),
            s.shed_requests,
            "count",
        ),
        ("server.engine.compactions".into(), s.compactions, "count"),
        ("server.engine.restarts".into(), s.restarts, "count"),
        (
            "server.client.retries".into(),
            e.ops.retries as f64,
            "count",
        ),
        ("loadgen.late_ms_max".into(), e.late_ms_max, "ms"),
    ];
    for (name, v) in layers {
        m.push((name.to_string(), v, layer_unit(name)));
    }
    m
}

/// The unit of a layer metric, from its name's suffix.
fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_eps") {
        "events/s"
    } else if name.ends_with("_ns") || name.ends_with("_ns_per_line") {
        "ns"
    } else if name.ends_with("_us") || name.ends_with("_us_per_batch") {
        "us"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_bytes") {
        "bytes"
    } else if name.ends_with("bytes_per_event") {
        "bytes/event"
    } else {
        "ratio"
    }
}

fn main() {
    let args = parse_args();
    let ctx = &args.ctx;
    if !ctx.sketchd.is_file() {
        usage(&format!("no sketchd binary at {}", ctx.sketchd.display()));
    }
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "perfbench {} seed {} for {} s (trace {}) on {cores} cores",
        ctx.w.name,
        ctx.seed,
        ctx.seconds,
        u8::from(args.trace)
    );
    let trace = Trace::generate(ctx.w, ctx.seed, ctx.scale.pool);
    let e2e = drive::run(ctx, &trace).unwrap_or_else(|e| {
        let _ = std::fs::remove_dir_all(&ctx.work);
        eprintln!("perfbench: {} failed: {e}", ctx.w.name);
        exit(2);
    });
    println!(
        "  {} tenants, resident store {:.0} bytes, {} events acked in the {:.3} s timed phase; \
         {} operations ({} failed, {} retried), error_rate {:.6}",
        trace.tenants(),
        e2e.resident_bytes,
        e2e.timed_acked,
        e2e.timed_secs,
        e2e.ops.attempted,
        e2e.ops.failed,
        e2e.ops.retries,
        e2e.ops.error_rate()
    );
    let (metrics, shown_only): (Metrics, Metrics) = if args.trace {
        let audit = workload::audit_set(&trace, ctx.seed, ctx.scale.audit, trace.span);
        let layers = layers::run(ctx, &trace, &audit).unwrap_or_else(|e| {
            let _ = std::fs::remove_dir_all(&ctx.work);
            eprintln!("perfbench: traced replay of {} failed: {e}", ctx.w.name);
            exit(2);
        });
        let _ = std::fs::remove_dir_all(&ctx.work);
        (per_layer(&e2e, layers), Vec::new())
    } else {
        let all = end_to_end(&e2e).unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            exit(2);
        });
        all.into_iter()
            .partition(|(name, _, _)| GATED.contains(&name.as_str()))
    };
    for (name, value, unit) in &metrics {
        println!("  {name} = {value} {unit}");
    }
    for (name, value, unit) in &shown_only {
        println!("  {name} = {value} {unit} (printed only, not in the result)");
    }
    for g in &e2e.gate_failures {
        println!("  GATE FAILED: {g}");
        eprintln!("perfbench: correctness gate failed: {g}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json::number(*v)
            )
        })
        .collect();
    let correct = e2e.gate_failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        e2e.ops.attempted + e2e.ops.retries,
        e2e.ops.failed + e2e.ops.retries,
        body.join(", ")
    );
    if !correct {
        exit(1);
    }
}
