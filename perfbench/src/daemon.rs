//! The `sketchd` child process: spawn it with the workload's spec, time
//! its set-up to the first `PING` ack, scrape `STATS` and `/proc`, and
//! make sure it is gone when the handle drops.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sketch_server::Client;

use crate::json::Json;
use crate::workload::{DELTA, EPSILON, SHARDS, WINDOW};

/// How long a spawned sketchd may take to print its listen address.
const START_DEADLINE: Duration = Duration::from_secs(120);

/// A running sketchd child. Dropping the handle kills and reaps it.
pub struct Sketchd {
    child: Child,
    addr: String,
    /// Drains the child's stdout until it exits.
    drain: Option<JoinHandle<()>>,
}

impl Sketchd {
    /// Spawn sketchd over `dir` with the workloads' shared spec, and wait
    /// for its first `PING` ack. Returns the handle and
    /// the set-up time in seconds (spawn → ack).
    pub fn start(bin: &Path, dir: &Path) -> Result<(Sketchd, f64), String> {
        let started = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.env("SKETCHD_ADDR", "127.0.0.1:0")
            .env("SKETCHD_SHARDS", SHARDS.to_string())
            .env("SKETCHD_WINDOW", WINDOW.to_string())
            .env("SKETCHD_EPSILON", EPSILON.to_string())
            .env("SKETCHD_DELTA", DELTA.to_string())
            .env("SKETCHD_SNAPSHOT_DIR", dir)
            .env("SKETCHD_DURABILITY", "1")
            .env("SKETCHD_WAL_FSYNC", "0")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // The banner line carries the ephemeral port. Read it on a helper
        // thread so a wedged child cannot hang the benchmark; the thread
        // then drains stdout until the child exits.
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            let _ = tx.send(lines.next());
            for _ in lines {}
        });
        let mut daemon = Sketchd {
            child,
            addr: String::new(),
            drain: Some(drain),
        };
        let banner = match rx.recv_timeout(START_DEADLINE) {
            Ok(Some(Ok(line))) => line,
            _ => return Err("sketchd exited or stalled before printing its address".into()),
        };
        daemon.addr = banner
            .strip_prefix("sketchd listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("unexpected sketchd banner {banner:?}"))?
            .to_string();
        let mut client = daemon.client()?;
        let pong = client.call("PING").map_err(|e| format!("PING: {e}"))?;
        if !pong.starts_with("{\"ok\":true") {
            return Err(format!("PING rejected: {pong}"));
        }
        Ok((daemon, started.elapsed().as_secs_f64()))
    }

    /// A fresh client connection.
    pub fn client(&self) -> Result<Client, String> {
        let client = Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("socket option: {e}"))?;
        Ok(client)
    }

    /// `kill -9` and reap: the crash recovery starts from.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }

    /// Parsed `STATS`.
    pub fn stats(&self) -> Result<Stats, String> {
        let line = self
            .client()?
            .call("STATS")
            .map_err(|e| format!("STATS: {e}"))?;
        Stats::parse(&line)
    }

    /// utime + stime of the process so far, in seconds.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(self.proc_path("stat"))
            .map_err(|e| format!("read /proc stat: {e}"))?;
        // Fields after the parenthesized command name; utime and stime are
        // fields 14 and 15 of the whole line. Linux reports them in
        // USER_HZ (100) ticks.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("malformed /proc stat")?;
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            f.get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        Ok((ticks(11)? + ticks(12)?) / 100.0)
    }

    /// Peak resident set (`VmHWM`), in bytes.
    pub fn peak_rss_bytes(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(self.proc_path("status"))
            .map_err(|e| format!("read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map(|kb| kb * 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    fn proc_path(&self, file: &str) -> PathBuf {
        PathBuf::from(format!("/proc/{}/{file}", self.child.id()))
    }
}

impl Drop for Sketchd {
    fn drop(&mut self) {
        self.reap();
    }
}

/// The `STATS` counters the benchmark reads, summed (or maxed) over shards.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stats {
    pub memory_bytes: f64,
    pub ingested: f64,
    pub compactions: f64,
    pub published_reads: f64,
    pub fallback_reads: f64,
    /// Maximum over shards.
    pub mailbox_hwm: f64,
    pub shed_requests: f64,
    pub restarts: f64,
    /// Shards whose health is not `"up"`.
    pub shards_down: usize,
}

impl Stats {
    pub fn parse(line: &str) -> Result<Stats, String> {
        let v = Json::parse(line).map_err(|e| format!("STATS reply: {e}"))?;
        if v.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("STATS rejected: {line}"));
        }
        let mut s = Stats {
            memory_bytes: v.num_at("memory_bytes")?,
            ingested: v.num_at("ingested")?,
            compactions: v.num_at("compactions")?,
            ..Stats::default()
        };
        for shard in v.get("shards").map(Json::arr).unwrap_or(&[]) {
            let h = shard.get("health").ok_or("STATS shard without health")?;
            s.published_reads += h.num_at("published_reads")?;
            s.fallback_reads += h.num_at("fallback_reads")?;
            s.mailbox_hwm = s.mailbox_hwm.max(h.num_at("mailbox_hwm")?);
            s.shed_requests += h.num_at("shed_requests")?;
            s.restarts += h.num_at("restarts")?;
            if h.get("state") != Some(&Json::Str("up".to_string())) {
                s.shards_down += 1;
            }
        }
        Ok(s)
    }
}
