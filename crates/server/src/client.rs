//! `sketch-client`: a small blocking client for the `sketchd` protocol,
//! with typed transport errors and optional retry with backoff.
//!
//! One TCP connection, newline framing on both directions. [`Client::call`]
//! is the one-shot request/response path; [`Client::pipeline`] writes many
//! commands in one syscall before reading the replies (the server answers
//! strictly in order, so the k-th reply belongs to the k-th command); and
//! [`Client::batch`] wraps a `BATCH` frame — header plus data lines in one
//! write, one ack back.
//!
//! # Failure handling
//!
//! Every method returns [`ClientError`], which classifies socket failures
//! into [`TimedOut`](ClientError::TimedOut) (the deadline passed; the
//! request may still be executing server-side) and
//! [`Closed`](ClientError::Closed) (the peer is gone) — the two transient
//! shapes worth retrying — plus [`Io`](ClientError::Io) for everything
//! else. `?` still works in `std::io::Result` contexts via the `From`
//! conversion back to `std::io::Error`.
//!
//! [`Client::call_retry`] and [`Client::batch_retry`] add capped
//! exponential backoff with deterministic jitter, a per-call deadline,
//! and a token-bucket retry budget (so a down server degrades into fast
//! typed errors, not a retry storm). `call_retry` auto-retries transport
//! failures **only for idempotent reads** (`PING`, `QUERY`, `TOPK`,
//! `STATS`, `VIEW READ`, `VIEW LIST`): a write that timed out may still
//! apply. Server-side errors marked `"retryable":true` (admission sheds,
//! mid-restart shards) were *not* applied and are retried for any
//! command. `batch_retry` additionally retries WAL and timeout failures,
//! making durable ingest **at-least-once**: a retried batch whose
//! previous attempt partially applied can double-count — callers needing
//! exactness should keep each batch on one key (one shard applies it
//! atomically).

use std::cell::Cell;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use stream_gen::SeededRng;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// No reply within the deadline (socket timeout or the retry
    /// deadline). The request may still be executing server-side, so only
    /// idempotent calls should be retried on it.
    TimedOut,
    /// The connection is gone (EOF, reset, broken pipe). Reconnect (or
    /// let a retrying call do it) before the next request.
    Closed,
    /// Any other socket failure.
    Io(std::io::Error),
}

impl ClientError {
    /// Whether reconnect-and-retry can plausibly succeed (both transient
    /// shapes; [`Io`](ClientError::Io) is a real socket/config problem).
    pub fn is_retryable(&self) -> bool {
        matches!(self, ClientError::TimedOut | ClientError::Closed)
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::TimedOut => write!(f, "request timed out"),
            ClientError::Closed => write!(f, "connection closed"),
            ClientError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => ClientError::TimedOut,
            ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::BrokenPipe
            | ErrorKind::ConnectionAborted
            | ErrorKind::NotConnected => ClientError::Closed,
            _ => ClientError::Io(e),
        }
    }
}

impl From<ClientError> for std::io::Error {
    fn from(e: ClientError) -> Self {
        match e {
            ClientError::TimedOut => {
                std::io::Error::new(std::io::ErrorKind::TimedOut, "request timed out")
            }
            ClientError::Closed => {
                std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "connection closed")
            }
            ClientError::Io(e) => e,
        }
    }
}

/// Knobs for [`Client::call_retry`] / [`Client::batch_retry`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per call, the first included.
    pub max_attempts: u32,
    /// First backoff; later ones double up to [`max_delay`](Self::max_delay).
    pub base_delay: Duration,
    /// Backoff cap (a server `retry_after_ms` hint can exceed it).
    pub max_delay: Duration,
    /// Hard wall-clock bound on one retried call, attempts and sleeps
    /// included; no retrying call blocks past it.
    pub call_deadline: Duration,
    /// Token-bucket retry budget: each retry spends one token, each clean
    /// call refills a tenth. An unhealthy server degrades into fast typed
    /// errors instead of a retry storm.
    pub retry_budget: f64,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            call_deadline: Duration::from_secs(30),
            retry_budget: 16.0,
            jitter_seed: 0x5EED_C11E,
        }
    }
}

/// A connected `sketchd` client.
pub struct Client {
    /// The resolved peer, kept for reconnects (`None` when resolution
    /// can't be recovered — then retrying calls fail over to plain ones).
    addr: Option<SocketAddr>,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// The caller-configured read timeout; retrying calls tighten the
    /// socket deadline per attempt and restore this afterwards.
    read_timeout: Cell<Option<Duration>>,
    policy: RetryPolicy,
    jitter: SeededRng,
    /// Remaining retry-budget tokens.
    budget: f64,
    retries: u64,
    sheds: u64,
}

impl Client {
    /// Connect and disable Nagle (the protocol is request/response; the
    /// 40 ms delayed-ACK dance would dominate every RTT measurement).
    ///
    /// # Errors
    /// Socket connect/clone failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let writer = TcpStream::connect(addr).map_err(ClientError::from)?;
        writer.set_nodelay(true).map_err(ClientError::from)?;
        let reader = BufReader::new(writer.try_clone().map_err(ClientError::from)?);
        let policy = RetryPolicy::default();
        Ok(Client {
            addr: writer.peer_addr().ok(),
            writer,
            reader,
            read_timeout: Cell::new(None),
            policy,
            jitter: SeededRng::seed_from_u64(policy.jitter_seed),
            budget: policy.retry_budget,
            retries: 0,
            sheds: 0,
        })
    }

    /// Replace the retry policy (and reseed the jitter stream).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
        self.jitter = SeededRng::seed_from_u64(policy.jitter_seed);
        self.budget = policy.retry_budget;
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Retries performed by [`call_retry`](Client::call_retry) /
    /// [`batch_retry`](Client::batch_retry) since connect.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// `overloaded` (admission-shed) responses absorbed by the retrying
    /// calls since connect.
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Set (or clear) the socket read timeout, e.g. to keep a test from
    /// hanging on a reply that never comes. Retrying calls treat this as
    /// the per-attempt bound and restore it after each call.
    ///
    /// # Errors
    /// Socket option failures.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> Result<(), ClientError> {
        self.writer.set_read_timeout(t).map_err(ClientError::from)?;
        self.read_timeout.set(t);
        Ok(())
    }

    /// Write one command line. `line` must not itself contain a newline —
    /// that would be two commands.
    ///
    /// # Errors
    /// Socket write failures.
    pub fn send(&mut self, line: &str) -> Result<(), ClientError> {
        debug_assert!(!line.contains('\n'), "one command per send");
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        Ok(())
    }

    /// Read one response line (without its newline).
    ///
    /// # Errors
    /// [`Closed`](ClientError::Closed) on a cleanly closed connection,
    /// [`TimedOut`](ClientError::TimedOut) when the read timeout expired.
    pub fn recv(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Closed);
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// One command, one reply.
    ///
    /// # Errors
    /// As [`send`](Client::send) / [`recv`](Client::recv).
    pub fn call(&mut self, line: &str) -> Result<String, ClientError> {
        self.send(line)?;
        self.recv()
    }

    /// Write every command in one buffer flush, then collect the replies
    /// in order. With n commands in flight the connection pays one RTT,
    /// not n. A mid-pipeline failure surfaces as the typed retryable
    /// error ([`TimedOut`](ClientError::TimedOut) /
    /// [`Closed`](ClientError::Closed)); replies already collected are
    /// lost, so a retrying caller must treat the whole pipeline as one
    /// unit.
    ///
    /// # Errors
    /// As [`send`](Client::send) / [`recv`](Client::recv).
    pub fn pipeline<S: AsRef<str>>(&mut self, lines: &[S]) -> Result<Vec<String>, ClientError> {
        let mut buf = String::new();
        for line in lines {
            let line = line.as_ref();
            debug_assert!(!line.contains('\n'), "one command per line");
            buf.push_str(line);
            buf.push('\n');
        }
        self.writer.write_all(buf.as_bytes())?;
        let mut replies = Vec::with_capacity(lines.len());
        for _ in lines {
            replies.push(self.recv()?);
        }
        Ok(replies)
    }

    /// Send a `BATCH` frame: the header plus every data line
    /// (`<key> <ts> <item> [<count>]`) in one write, returning the single
    /// ack (or error) line.
    ///
    /// # Errors
    /// As [`send`](Client::send) / [`recv`](Client::recv).
    pub fn batch<S: AsRef<str>>(&mut self, lines: &[S]) -> Result<String, ClientError> {
        let frame = batch_frame(lines);
        self.writer.write_all(frame.as_bytes())?;
        self.recv()
    }

    /// Subscribe this connection to a standing view's notification stream.
    /// Returns the server's ack line; after an `"ok":true` ack the
    /// connection is push-only — keep calling [`recv`](Client::recv) to
    /// drain notifications (including `"notify":"ping"` heartbeats,
    /// `"notify":"dropped"` backlog markers, and `"notify":"restarted"`
    /// gap markers after a shard respawn). On an error ack (unknown view)
    /// the connection stays in command mode.
    ///
    /// # Errors
    /// As [`send`](Client::send) / [`recv`](Client::recv).
    pub fn subscribe(&mut self, view: &str) -> Result<String, ClientError> {
        self.call(&format!("SUBSCRIBE {view}"))
    }

    /// [`call`](Client::call) with retry: reconnect-and-resend on
    /// transport failures (idempotent commands only — see the module
    /// docs), resend after backoff on server errors marked
    /// `"retryable":true`, and — for idempotent commands — on
    /// `shard_timeout` / `shard_died` (the shard may be back shortly).
    /// Bounded by the policy's attempts, deadline, and retry budget; the
    /// last response or error is returned when they run out.
    ///
    /// # Errors
    /// As [`call`](Client::call), once retries are exhausted or the
    /// failure is not retryable.
    pub fn call_retry(&mut self, line: &str) -> Result<String, ClientError> {
        let idem = idempotent(line);
        self.retry_loop(line, idem, idem)
    }

    /// [`batch`](Client::batch) with retry, **at-least-once**: transport
    /// failures reconnect and resend, and `"retryable":true` / `wal` /
    /// `shard_timeout` / `shard_died` acks resend after backoff — even
    /// though a failed attempt may have applied some shards' partitions
    /// (see the module docs). Callers needing exactly-once should keep
    /// each batch on a single key.
    ///
    /// # Errors
    /// As [`batch`](Client::batch), once retries are exhausted or the
    /// failure is not retryable.
    pub fn batch_retry<S: AsRef<str>>(&mut self, lines: &[S]) -> Result<String, ClientError> {
        let frame = batch_frame(lines);
        self.retry_frame(&frame, true, true)
    }

    /// The shared retry loop for a single-line command.
    fn retry_loop(
        &mut self,
        line: &str,
        transport_retry: bool,
        code_retry: bool,
    ) -> Result<String, ClientError> {
        let mut frame = String::with_capacity(line.len() + 1);
        frame.push_str(line);
        frame.push('\n');
        self.retry_frame(&frame, transport_retry, code_retry)
    }

    /// Write `frame` (one or more newline-terminated lines expecting one
    /// reply) with the policy's retry envelope. `transport_retry` gates
    /// resending after a reconnect; `code_retry` gates resending on
    /// may-have-applied server codes (`shard_timeout`, `shard_died`,
    /// `wal`) beyond the always-safe `"retryable":true` ones.
    fn retry_frame(
        &mut self,
        frame: &str,
        transport_retry: bool,
        code_retry: bool,
    ) -> Result<String, ClientError> {
        let deadline = Instant::now() + self.policy.call_deadline;
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            let result = self.attempt(frame, deadline);
            let hint = match &result {
                Ok(resp) => match server_retry_hint(resp, code_retry) {
                    None => {
                        self.refill();
                        return result;
                    }
                    Some(hint) => {
                        if response_code(resp) == Some("overloaded") {
                            self.sheds += 1;
                        }
                        hint
                    }
                },
                Err(e) if e.is_retryable() => {
                    if !transport_retry {
                        return result;
                    }
                    None
                }
                Err(_) => return result,
            };
            if attempt >= self.policy.max_attempts || self.budget < 1.0 {
                return result;
            }
            let pause = self.backoff(attempt, hint);
            if Instant::now() + pause >= deadline {
                return result;
            }
            self.budget -= 1.0;
            self.retries += 1;
            std::thread::sleep(pause);
            // A timed-out or torn connection may hold a stray late reply
            // that would desynchronize request/reply pairing; a fresh
            // connection can't.
            if result.is_err() && self.reconnect().is_err() {
                return result;
            }
        }
    }

    /// One attempt: bound the socket read by the remaining deadline,
    /// write the frame, read one reply, restore the configured timeout.
    fn attempt(&mut self, frame: &str, deadline: Instant) -> Result<String, ClientError> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(ClientError::TimedOut);
        }
        let per_attempt = match self.read_timeout.get() {
            Some(t) => t.min(remaining),
            None => remaining,
        }
        // Duration::ZERO would *disable* the socket timeout.
        .max(Duration::from_millis(1));
        let _ = self.writer.set_read_timeout(Some(per_attempt));
        let outcome = (|| {
            self.writer.write_all(frame.as_bytes())?;
            self.recv()
        })();
        let _ = self.writer.set_read_timeout(self.read_timeout.get());
        outcome
    }

    /// Tear down and re-establish the connection (same peer, same
    /// options). Used by the retrying calls after a transport failure.
    ///
    /// # Errors
    /// Connect failures, or [`Closed`](ClientError::Closed) when the
    /// original peer address is unknown.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let Some(addr) = self.addr else {
            return Err(ClientError::Closed);
        };
        let writer = TcpStream::connect(addr).map_err(ClientError::from)?;
        writer.set_nodelay(true).map_err(ClientError::from)?;
        writer
            .set_read_timeout(self.read_timeout.get())
            .map_err(ClientError::from)?;
        self.reader = BufReader::new(writer.try_clone().map_err(ClientError::from)?);
        self.writer = writer;
        Ok(())
    }

    /// Capped exponential backoff with full jitter in `[d/2, d]`,
    /// stretched to at least the server's `retry_after_ms` hint.
    fn backoff(&mut self, attempt: u32, hint_ms: Option<u64>) -> Duration {
        let exp = self
            .policy
            .base_delay
            .saturating_mul(1u32 << attempt.min(16).saturating_sub(1));
        let mut delay = exp.min(self.policy.max_delay);
        if let Some(ms) = hint_ms {
            delay = delay.max(Duration::from_millis(ms));
        }
        let nanos = delay.as_nanos().min(u128::from(u64::MAX)) as u64;
        let jittered = nanos / 2 + self.jitter.next_u64() % (nanos / 2 + 1);
        Duration::from_nanos(jittered)
    }

    /// A clean call slowly refills the retry budget.
    fn refill(&mut self) {
        self.budget = (self.budget + 0.1).min(self.policy.retry_budget);
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.addr)
            .field("retries", &self.retries)
            .field("sheds", &self.sheds)
            .finish()
    }
}

/// Render a `BATCH` frame: header plus data lines, one write.
fn batch_frame<S: AsRef<str>>(lines: &[S]) -> String {
    let mut buf = format!("BATCH {}\n", lines.len());
    for line in lines {
        let line = line.as_ref();
        debug_assert!(!line.contains('\n'), "one event per line");
        buf.push_str(line);
        buf.push('\n');
    }
    buf
}

/// Whether a command line is an idempotent read — safe to resend even
/// when the previous attempt may have executed.
fn idempotent(line: &str) -> bool {
    let mut toks = line.split_ascii_whitespace();
    match toks.next().map(str::to_ascii_uppercase).as_deref() {
        Some("PING" | "QUERY" | "TOPK" | "STATS") => true,
        Some("VIEW") => matches!(
            toks.next().map(str::to_ascii_uppercase).as_deref(),
            Some("READ" | "LIST")
        ),
        _ => false,
    }
}

/// The `"error"` code of an error response line, if any.
fn response_code(resp: &str) -> Option<&str> {
    let rest = resp.strip_prefix("{\"ok\":false")?;
    let at = rest.find("\"error\":\"")? + "\"error\":\"".len();
    let tail = &rest[at..];
    Some(&tail[..tail.find('"')?])
}

/// Decide whether a server response warrants a retry; `Some(hint)`
/// carries the server's `retry_after_ms` suggestion when it sent one.
/// `"retryable":true` responses (not applied, transient) always retry;
/// `shard_timeout` / `shard_died` / `wal` retry only when the caller
/// opted in (idempotent reads, or at-least-once batch ingest).
fn server_retry_hint(resp: &str, code_retry: bool) -> Option<Option<u64>> {
    if !resp.starts_with("{\"ok\":false") {
        return None;
    }
    if resp.contains("\"retryable\":true") {
        return Some(retry_after_ms(resp));
    }
    if code_retry {
        if let Some("shard_timeout" | "shard_died" | "wal") = response_code(resp) {
            return Some(None);
        }
    }
    None
}

/// The `"now"` consistency point of a `QUERY` response line: the owning
/// shard's write clock (the latest applied tick on time clocks, the
/// arrival count on count clocks) when the answer was computed. `None` for error responses and responses without the field
/// (`TOPK`, `STATS`, pre-publication servers). Clients that need
/// read-your-writes across keys can compare it against the ticks they
/// ingested.
pub fn answer_now(resp: &str) -> Option<u64> {
    if !resp.starts_with("{\"ok\":true") {
        return None;
    }
    let at = resp.rfind(",\"now\":")? + ",\"now\":".len();
    let digits = &resp[at..resp.len().checked_sub(1)?];
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Parse the `retry_after_ms` field of a retryable error response.
fn retry_after_ms(resp: &str) -> Option<u64> {
    let at = resp.find("\"retry_after_ms\":")? + "\"retry_after_ms\":".len();
    let digits: String = resp[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idempotency_table() {
        for line in [
            "PING",
            "QUERY k freq 5",
            "TOPK 3",
            "STATS",
            "VIEW READ v",
            "VIEW LIST",
            "view read v",
        ] {
            assert!(idempotent(line), "{line} should be idempotent");
        }
        for line in [
            "STORE k 1 2",
            "BATCH 3",
            "FLUSH 10",
            "SNAPSHOT /tmp/x",
            "VIEW CREATE v ...",
            "VIEW DROP v",
            "SUBSCRIBE v",
            "SHUTDOWN",
            "",
        ] {
            assert!(!idempotent(line), "{line} must not be idempotent");
        }
    }

    #[test]
    fn answer_now_parses_the_trailing_clock() {
        assert_eq!(
            answer_now(
                "{\"ok\":true,\"query\":\"freq\",\"value\":4.0,\"guarantee\":null,\"now\":1200}"
            ),
            Some(1200)
        );
        // No field, error line, or a "now" that is not the trailing
        // numeric field: no consistency point.
        assert_eq!(
            answer_now("{\"ok\":true,\"query\":\"freq\",\"value\":4.0,\"guarantee\":null}"),
            None
        );
        assert_eq!(
            answer_now("{\"ok\":false,\"error\":\"query\",\"now\":3}"),
            None
        );
        assert_eq!(answer_now("{\"ok\":true,\"topk\":[]}"), None);
    }

    #[test]
    fn response_code_and_hint_parse() {
        let resp = "{\"ok\":false,\"error\":\"overloaded\",\"detail\":\"shard 1 is \
                    overloaded; retry after 100 ms\",\"retryable\":true,\"retry_after_ms\":100}";
        assert_eq!(response_code(resp), Some("overloaded"));
        assert_eq!(server_retry_hint(resp, false), Some(Some(100)));
        let timeout = "{\"ok\":false,\"error\":\"shard_timeout\",\"detail\":\"x\"}";
        assert_eq!(server_retry_hint(timeout, false), None);
        assert_eq!(server_retry_hint(timeout, true), Some(None));
        assert_eq!(server_retry_hint("{\"ok\":true,\"pong\":true}", true), None);
        let hard = "{\"ok\":false,\"error\":\"parse\",\"detail\":\"x\"}";
        assert_eq!(server_retry_hint(hard, true), None);
    }

    #[test]
    fn io_error_classification() {
        use std::io::{Error, ErrorKind};
        assert!(matches!(
            ClientError::from(Error::new(ErrorKind::WouldBlock, "t")),
            ClientError::TimedOut
        ));
        assert!(matches!(
            ClientError::from(Error::new(ErrorKind::TimedOut, "t")),
            ClientError::TimedOut
        ));
        assert!(matches!(
            ClientError::from(Error::new(ErrorKind::UnexpectedEof, "t")),
            ClientError::Closed
        ));
        assert!(matches!(
            ClientError::from(Error::new(ErrorKind::ConnectionReset, "t")),
            ClientError::Closed
        ));
        assert!(matches!(
            ClientError::from(Error::new(ErrorKind::PermissionDenied, "t")),
            ClientError::Io(_)
        ));
        assert!(ClientError::TimedOut.is_retryable());
        assert!(ClientError::Closed.is_retryable());
        assert!(!ClientError::Io(Error::other("x")).is_retryable());
    }
}
