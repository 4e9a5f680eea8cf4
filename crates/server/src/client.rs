//! A small blocking client for the wire protocol — what the examples,
//! integration tests, and benchmarks drive the server with. It matches
//! responses to requests by `seq` and parks streamed frames
//! (`completion`, `telemetry`, `shutdown`) in an event buffer so a
//! request/response call never swallows them.

use crate::frame::{read_frame, write_frame};
use crate::Json;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection broke.
    Io(io::Error),
    /// The server answered with an `error` frame; the structured fields
    /// are preserved.
    Server {
        /// The machine-readable error code (`"qasm"`, `"rate_limited"`,
        /// `"quota"`, `"auth"`, …).
        code: String,
        /// Human-readable message.
        message: String,
        /// 1-based source line, when the error locates one (QASM).
        line: Option<u64>,
        /// 1-based source column, when the error locates one (QASM).
        column: Option<u64>,
        /// The offending token, when the error carries one.
        token: Option<String>,
        /// Retry hint from `rate_limited` errors, milliseconds.
        retry_after_ms: Option<u64>,
    },
    /// The server sent something the client cannot interpret.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Server { code, message, .. } => {
                write!(f, "server error [{code}]: {message}")
            }
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The terminal result of a job, decoded from a `result` or
/// `completion` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The wire job id.
    pub job: u64,
    /// Whether compilation succeeded.
    pub ok: bool,
    /// Success: the serving shard.
    pub shard: Option<u64>,
    /// Success: served from the schedule cache (or coalesced).
    pub cache_hit: Option<bool>,
    /// Success: the schedule's pinned 64-bit digest, decoded from its
    /// 16-hex-digit wire form.
    pub schedule_hash: Option<u64>,
    /// Success: schedule depth in cycles.
    pub depth: Option<u64>,
    /// Failure: the stable error code (`"deadline"`, `"cancelled"`, …).
    pub code: Option<String>,
    /// Failure: human-readable message.
    pub message: Option<String>,
    /// The job's span tree, when the submission opted in with
    /// `trace: true` (nested `{name, start_ns, dur_ns, attrs, children}`
    /// objects, kept as raw JSON).
    pub trace: Option<Json>,
}

impl JobOutcome {
    fn from_frame(frame: &Json) -> Result<JobOutcome, ClientError> {
        let job = field_u64(frame, "job")?;
        let ok = frame
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| ClientError::Protocol("result frame without \"ok\"".into()))?;
        let schedule_hash = match frame.get("schedule_hash").and_then(Json::as_str) {
            None => None,
            Some(hex) => Some(u64::from_str_radix(hex, 16).map_err(|_| {
                ClientError::Protocol(format!("unparseable schedule_hash {hex:?}"))
            })?),
        };
        Ok(JobOutcome {
            job,
            ok,
            shard: frame.get("shard").and_then(Json::as_u64),
            cache_hit: frame.get("cache_hit").and_then(Json::as_bool),
            schedule_hash,
            depth: frame.get("depth").and_then(Json::as_u64),
            code: frame.get("code").and_then(Json::as_str).map(str::to_string),
            message: frame.get("message").and_then(Json::as_str).map(str::to_string),
            trace: frame.get("trace").cloned(),
        })
    }
}

fn field_u64(frame: &Json, key: &str) -> Result<u64, ClientError> {
    frame
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ClientError::Protocol(format!("frame missing integer \"{key}\"")))
}

fn field_str<'a>(frame: &'a Json, key: &str) -> Result<&'a str, ClientError> {
    frame
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ClientError::Protocol(format!("frame missing string \"{key}\"")))
}

/// A `poll`/`wait` reply: `None` for `pending`, the outcome for `result`.
fn outcome(reply: &Json) -> Result<Option<JobOutcome>, ClientError> {
    match reply.get("type").and_then(Json::as_str) {
        Some("pending") => Ok(None),
        Some("result") => JobOutcome::from_frame(reply).map(Some),
        other => Err(ClientError::Protocol(format!("expected result/pending, got {other:?}"))),
    }
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    stream: TcpStream,
    next_seq: u64,
    /// Streamed frames read while looking for a direct response.
    events: Vec<Json>,
    /// Dummy stop flag for [`read_frame`] (the client blocks for real).
    stop: AtomicBool,
}

impl Client {
    /// Connects (without authenticating — follow with
    /// [`hello`](Self::hello)).
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, next_seq: 1, events: Vec::new(), stop: AtomicBool::new(false) })
    }

    /// Sends a request built from `fields` (a fresh `seq` is appended)
    /// and returns the direct response frame with that `seq`, buffering
    /// streamed frames encountered along the way. An `error` frame with
    /// that `seq` becomes [`ClientError::Server`].
    pub fn call(&mut self, fields: Vec<(&str, Json)>) -> Result<Json, ClientError> {
        let seq = self.send(fields)?;
        loop {
            let frame = self.read()?;
            if frame.get("seq").and_then(Json::as_u64) == Some(seq) {
                let ty = frame.get("type").and_then(Json::as_str).unwrap_or("");
                if ty == "error" {
                    return Err(server_error(&frame));
                }
                if !matches!(ty, "completion" | "telemetry" | "telemetry_end") {
                    return Ok(frame);
                }
            }
            self.events.push(frame);
        }
    }

    /// Sends a request built from `fields` with a fresh `seq` appended;
    /// returns that `seq`.
    fn send(&mut self, mut fields: Vec<(&str, Json)>) -> Result<u64, ClientError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        fields.push(("seq", Json::num(seq as f64)));
        write_frame(&mut self.stream, &Json::obj(fields).encode())?;
        Ok(seq)
    }

    /// Authenticates; returns the tenant name from `hello_ok`.
    pub fn hello(&mut self, token: &str) -> Result<String, ClientError> {
        let reply =
            self.call(vec![("type", Json::str("hello")), ("token", Json::str(token))])?;
        field_str(&reply, "tenant").map(str::to_string)
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let reply = self.call(vec![("type", Json::str("ping"))])?;
        match reply.get("type").and_then(Json::as_str) {
            Some("pong") => Ok(()),
            other => Err(ClientError::Protocol(format!("expected pong, got {other:?}"))),
        }
    }

    /// Submits a QASM program; returns the wire job id.
    pub fn submit(
        &mut self,
        qasm: &str,
        strategy: &str,
        priority: &str,
        deadline_ms: Option<u64>,
    ) -> Result<u64, ClientError> {
        self.submit_with(qasm, strategy, priority, deadline_ms, false)
    }

    /// [`submit`](Self::submit) with the opt-in `trace` flag: the job's
    /// terminal `result`/`completion` frame carries its span tree
    /// ([`JobOutcome::trace`]).
    pub fn submit_traced(
        &mut self,
        qasm: &str,
        strategy: &str,
        priority: &str,
        deadline_ms: Option<u64>,
    ) -> Result<u64, ClientError> {
        self.submit_with(qasm, strategy, priority, deadline_ms, true)
    }

    fn submit_with(
        &mut self,
        qasm: &str,
        strategy: &str,
        priority: &str,
        deadline_ms: Option<u64>,
        trace: bool,
    ) -> Result<u64, ClientError> {
        let mut fields = vec![
            ("type", Json::str("submit")),
            ("qasm", Json::str(qasm)),
            ("strategy", Json::str(strategy)),
            ("priority", Json::str(priority)),
        ];
        if trace {
            fields.push(("trace", Json::Bool(true)));
        }
        if let Some(ms) = deadline_ms {
            fields.push(("deadline_ms", Json::num(ms as f64)));
        }
        let reply = self.call(fields)?;
        field_u64(&reply, "job")
    }

    /// One Prometheus text-exposition scrape of the server's queue,
    /// compile service and sockets (the `metrics` frame's `body`).
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        let reply = self.call(vec![("type", Json::str("metrics"))])?;
        field_str(&reply, "body").map(str::to_string)
    }

    /// Exports the fleet's compile artifacts as a store-format bundle
    /// (decoded from the `cache_export` frame's hex payload). Feed it to
    /// a peer server's [`cache_import`](Self::cache_import) to pre-warm
    /// that fleet.
    pub fn cache_export(&mut self) -> Result<Vec<u8>, ClientError> {
        let reply = self.call(vec![("type", Json::str("cache_export"))])?;
        crate::protocol::hex_decode(field_str(&reply, "bundle")?)
            .ok_or_else(|| ClientError::Protocol("cache_export bundle is not hex".into()))
    }

    /// Imports a peer's exported artifact bundle; returns the per-class
    /// adoption counts `(statics, smt, schedules, skipped)`.
    pub fn cache_import(&mut self, bundle: &[u8]) -> Result<(u64, u64, u64, u64), ClientError> {
        let reply = self.call(vec![
            ("type", Json::str("cache_import")),
            ("bundle", Json::str(crate::protocol::hex_encode(bundle))),
        ])?;
        Ok((
            field_u64(&reply, "statics")?,
            field_u64(&reply, "smt")?,
            field_u64(&reply, "schedules")?,
            field_u64(&reply, "skipped")?,
        ))
    }

    /// Non-blocking result check; `None` while the job is outstanding.
    pub fn poll(&mut self, job: u64) -> Result<Option<JobOutcome>, ClientError> {
        outcome(&self.call(vec![("type", Json::str("poll")), ("job", Json::num(job as f64))])?)
    }

    /// Blocking result wait; `None` when the server answered `pending`
    /// at its timeout.
    pub fn wait(
        &mut self,
        job: u64,
        timeout_ms: u64,
    ) -> Result<Option<JobOutcome>, ClientError> {
        outcome(&self.call(vec![
            ("type", Json::str("wait")),
            ("job", Json::num(job as f64)),
            ("timeout_ms", Json::num(timeout_ms as f64)),
        ])?)
    }

    /// Cancels a queued job; `true` when the cancellation won.
    pub fn cancel(&mut self, job: u64) -> Result<bool, ClientError> {
        let reply =
            self.call(vec![("type", Json::str("cancel")), ("job", Json::num(job as f64))])?;
        reply
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| ClientError::Protocol("cancelled frame without ok".into()))
    }

    /// Subscribes to this tenant's completion stream; completions arrive
    /// as events (see [`next_event`](Self::next_event)).
    pub fn subscribe(&mut self) -> Result<(), ClientError> {
        self.call(vec![("type", Json::str("subscribe"))]).map(|_| ())
    }

    /// Requests `count` telemetry snapshots `interval_ms` apart and
    /// blocks until the stream's `telemetry_end`, returning the
    /// snapshot frames.
    pub fn telemetry(
        &mut self,
        count: u64,
        interval_ms: u64,
    ) -> Result<Vec<Json>, ClientError> {
        let seq = self.send(vec![
            ("type", Json::str("telemetry")),
            ("count", Json::num(count as f64)),
            ("interval_ms", Json::num(interval_ms as f64)),
        ])?;
        let mut snapshots = Vec::new();
        loop {
            let frame = self.read()?;
            let matches_seq = frame.get("seq").and_then(Json::as_u64) == Some(seq);
            match frame.get("type").and_then(Json::as_str) {
                Some("telemetry") if matches_seq => snapshots.push(frame),
                Some("telemetry_end") if matches_seq => return Ok(snapshots),
                Some("error") if matches_seq => return Err(server_error(&frame)),
                _ => self.events.push(frame),
            }
        }
    }

    /// The next buffered or incoming out-of-band frame (`completion`,
    /// `telemetry`, `shutdown`) within `timeout`; `None` when nothing
    /// arrived in time (or the server closed the connection).
    pub fn next_event(&mut self, timeout: Duration) -> Result<Option<Json>, ClientError> {
        if !self.events.is_empty() {
            return Ok(Some(self.events.remove(0)));
        }
        // With the stop flag raised, `read_frame` treats the first idle
        // read timeout as a clean `None` instead of patiently retrying —
        // exactly the bounded-poll semantics wanted here.
        self.stream.set_read_timeout(Some(timeout))?;
        self.stop.store(true, Ordering::Relaxed);
        let got = read_frame(&mut self.stream, &self.stop);
        self.stop.store(false, Ordering::Relaxed);
        self.stream.set_read_timeout(None)?;
        match got {
            Ok(Some(text)) => {
                Json::parse(&text).map(Some).map_err(|e| ClientError::Protocol(e.to_string()))
            }
            Ok(None) => Ok(None),
            Err(e) => Err(ClientError::Io(e)),
        }
    }

    /// Writes raw bytes straight onto the socket — for tests that must
    /// produce malformed frames a well-behaved client never would.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads one frame (blocking, honoring any read timeout currently
    /// set on the socket).
    fn read(&mut self) -> Result<Json, ClientError> {
        match read_frame(&mut self.stream, &self.stop)? {
            Some(text) => Json::parse(&text).map_err(|e| ClientError::Protocol(e.to_string())),
            None => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
        }
    }
}

fn server_error(frame: &Json) -> ClientError {
    ClientError::Server {
        code: frame.get("code").and_then(Json::as_str).unwrap_or("unknown").to_string(),
        message: frame.get("message").and_then(Json::as_str).unwrap_or("").to_string(),
        line: frame.get("line").and_then(Json::as_u64),
        column: frame.get("column").and_then(Json::as_u64),
        token: frame.get("token").and_then(Json::as_str).map(str::to_string),
        retry_after_ms: frame.get("retry_after_ms").and_then(Json::as_u64),
    }
}
