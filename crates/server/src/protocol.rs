//! The request/response vocabulary of the wire protocol (see
//! `docs/WIRE.md` for the normative spec).
//!
//! Every client frame is a JSON object with a `"type"` and a
//! client-chosen `"seq"`; the server echoes `seq` in every frame the
//! request produces — direct responses and streamed frames alike — so a
//! client can multiplex requests on one connection. Decoding is split
//! from transport: this module turns [`Json`] into typed [`Request`]s
//! and typed results back into [`Json`] frames, and never touches a
//! socket.

use crate::Json;
use fastsc_core::{CompileError, Strategy};
use fastsc_ir::qasm::QasmError;
use fastsc_queue::{JobResult, Priority};
use fastsc_telemetry::SpanTree;

/// Upper bound on `wait`'s `timeout_ms` (5 minutes) — a lost client
/// cannot park a reader thread forever.
pub const MAX_WAIT_MS: u64 = 300_000;

/// Upper bound on telemetry frames per request.
pub const MAX_TELEMETRY_COUNT: u64 = 1_000;

/// Upper bound on the telemetry inter-frame interval (10 s).
pub const MAX_TELEMETRY_INTERVAL_MS: u64 = 10_000;

/// One decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Authenticate the connection as a tenant. Must be the first
    /// request (only [`Ping`](Self::Ping) is allowed earlier).
    Hello {
        /// The tenant's session token.
        token: String,
    },
    /// Submit a QASM program for compilation.
    Submit {
        /// OpenQASM 2.0 source.
        qasm: String,
        /// Compilation strategy (wire names are the `Strategy` display
        /// forms, e.g. `"ColorDynamic"`).
        strategy: Strategy,
        /// Priority class (`"interactive"` / `"batch"` /
        /// `"speculative"`).
        priority: Priority,
        /// Optional deadline, milliseconds from admission.
        deadline_ms: Option<u64>,
        /// Opt-in per-job span trace: when `true`, the terminal
        /// `result`/`completion` frame carries the job's span tree.
        trace: bool,
    },
    /// Non-blocking result check for a job submitted on this connection.
    Poll {
        /// The job id from the `submitted` frame.
        job: u64,
    },
    /// Blocking result wait, bounded by `timeout_ms`.
    Wait {
        /// The job id from the `submitted` frame.
        job: u64,
        /// How long to wait before answering `pending` (capped at
        /// [`MAX_WAIT_MS`]; that cap is also the default).
        timeout_ms: Option<u64>,
    },
    /// Cancel a queued job.
    Cancel {
        /// The job id from the `submitted` frame.
        job: u64,
    },
    /// Stream every completion of this tenant's jobs (from any
    /// connection) as `completion` frames until the connection closes.
    Subscribe,
    /// Stream `count` fleet-telemetry snapshots, `interval_ms` apart.
    Telemetry {
        /// Snapshots to stream (capped at [`MAX_TELEMETRY_COUNT`]).
        count: u64,
        /// Milliseconds between snapshots (capped at
        /// [`MAX_TELEMETRY_INTERVAL_MS`]).
        interval_ms: u64,
    },
    /// One Prometheus text-exposition scrape of this server's queue,
    /// compile service and sockets, answered with a `metrics` frame.
    Metrics,
    /// Export the fleet's compile artifacts (statics, SMT memo,
    /// cached schedules) as a store-format bundle, answered with a
    /// `cache_export` frame. A peer fleet feeds the bundle to
    /// [`CacheImport`](Self::CacheImport) to join pre-warmed.
    CacheExport,
    /// Import a peer's exported artifact bundle into this fleet.
    /// Answered with a `cache_import` frame carrying the adoption
    /// counts; damaged or mismatched artifacts are skipped, never
    /// served.
    CacheImport {
        /// The store-format bundle, decoded from its hex wire form.
        bundle: Vec<u8>,
    },
    /// Liveness check; allowed before authentication.
    Ping,
}

/// Upper bound on a decoded `cache_import` bundle (2 MiB of artifact
/// bytes — 4 MiB of hex on the wire, the frame cap).
pub const MAX_IMPORT_BYTES: usize = 2 * 1024 * 1024;

/// A request the server refuses at the protocol level (before any
/// queue or compiler involvement): the error frame's `code` and a
/// human-readable `message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Stable machine-readable discriminant (e.g. `"bad_request"`).
    pub code: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl ProtocolError {
    fn bad(message: impl Into<String>) -> ProtocolError {
        ProtocolError { code: "bad_request", message: message.into() }
    }
}

impl Request {
    /// Decodes one client frame. Returns the echoed `seq` (0 when the
    /// client sent none) alongside the request; on failure the `seq` is
    /// still recovered on a best-effort basis so the error frame can
    /// carry it.
    pub fn from_json(frame: &Json) -> Result<(u64, Request), (u64, ProtocolError)> {
        let seq = frame.get("seq").and_then(Json::as_u64).unwrap_or(0);
        Self::decode(frame).map(|req| (seq, req)).map_err(|e| (seq, e))
    }

    fn decode(frame: &Json) -> Result<Request, ProtocolError> {
        let ty = frame
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtocolError::bad("frame has no string \"type\" field"))?;
        match ty {
            "hello" => Ok(Request::Hello { token: required_str(frame, "token")?.to_string() }),
            "submit" => {
                let qasm = required_str(frame, "qasm")?.to_string();
                let strategy_name = required_str(frame, "strategy")?;
                let strategy = strategy_name
                    .parse::<Strategy>()
                    .map_err(|e| ProtocolError::bad(e.to_string()))?;
                let priority = match frame.get("priority") {
                    None => Priority::Batch,
                    Some(v) => {
                        let name = v.as_str().ok_or_else(|| {
                            ProtocolError::bad("\"priority\" must be a string")
                        })?;
                        name.parse::<Priority>()
                            .map_err(|e| ProtocolError::bad(e.to_string()))?
                    }
                };
                let deadline_ms = optional_u64(frame, "deadline_ms")?;
                let trace = optional_bool(frame, "trace")?.unwrap_or(false);
                Ok(Request::Submit { qasm, strategy, priority, deadline_ms, trace })
            }
            "poll" => Ok(Request::Poll { job: required_u64(frame, "job")? }),
            "wait" => Ok(Request::Wait {
                job: required_u64(frame, "job")?,
                timeout_ms: optional_u64(frame, "timeout_ms")?.map(|t| t.min(MAX_WAIT_MS)),
            }),
            "cancel" => Ok(Request::Cancel { job: required_u64(frame, "job")? }),
            "subscribe" => Ok(Request::Subscribe),
            "telemetry" => {
                let count = optional_u64(frame, "count")?.unwrap_or(1);
                let interval_ms = optional_u64(frame, "interval_ms")?.unwrap_or(0);
                if count == 0 || count > MAX_TELEMETRY_COUNT {
                    return Err(ProtocolError::bad(format!(
                        "\"count\" must be 1..={MAX_TELEMETRY_COUNT}"
                    )));
                }
                if interval_ms > MAX_TELEMETRY_INTERVAL_MS {
                    return Err(ProtocolError::bad(format!(
                        "\"interval_ms\" must be at most {MAX_TELEMETRY_INTERVAL_MS}"
                    )));
                }
                Ok(Request::Telemetry { count, interval_ms })
            }
            "metrics" => Ok(Request::Metrics),
            "cache_export" => Ok(Request::CacheExport),
            "cache_import" => {
                let hex = required_str(frame, "bundle")?;
                if hex.len() > MAX_IMPORT_BYTES * 2 {
                    return Err(ProtocolError::bad(format!(
                        "\"bundle\" exceeds {MAX_IMPORT_BYTES} bytes decoded"
                    )));
                }
                let bundle = hex_decode(hex)
                    .ok_or_else(|| ProtocolError::bad("\"bundle\" must be lower-case hex"))?;
                Ok(Request::CacheImport { bundle })
            }
            "ping" => Ok(Request::Ping),
            other => Err(ProtocolError::bad(format!("unknown request type \"{other}\""))),
        }
    }
}

fn required_str<'a>(frame: &'a Json, key: &str) -> Result<&'a str, ProtocolError> {
    frame
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ProtocolError::bad(format!("missing string field \"{key}\"")))
}

fn required_u64(frame: &Json, key: &str) -> Result<u64, ProtocolError> {
    frame
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtocolError::bad(format!("missing integer field \"{key}\"")))
}

fn optional_u64(frame: &Json, key: &str) -> Result<Option<u64>, ProtocolError> {
    match frame.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            ProtocolError::bad(format!("\"{key}\" must be a non-negative integer"))
        }),
    }
}

/// Lower-case hex encoding for binary bundle payloads (JSON strings
/// cannot carry raw bytes).
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for byte in bytes {
        out.push_str(&format!("{byte:02x}"));
    }
    out
}

/// Inverse of [`hex_encode`]; `None` on odd length or any non-hex
/// character (upper-case included — the wire form is canonical).
pub fn hex_decode(hex: &str) -> Option<Vec<u8>> {
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    let digit = |c: u8| match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        _ => None,
    };
    let bytes = hex.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push(digit(pair[0])? << 4 | digit(pair[1])?);
    }
    Some(out)
}

fn optional_bool(frame: &Json, key: &str) -> Result<Option<bool>, ProtocolError> {
    match frame.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| ProtocolError::bad(format!("\"{key}\" must be a boolean"))),
    }
}

// ---------------------------------------------------------------------
// Frame builders (server → client)
// ---------------------------------------------------------------------

/// A server frame: `type`, the echoed `seq`, then `fields` in order.
pub(crate) fn reply(ty: &str, seq: u64, fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("type", Json::str(ty)), ("seq", Json::num(seq as f64))];
    pairs.extend(fields);
    Json::obj(pairs)
}

/// A generic error frame: `{type:"error", seq, code, message}`.
pub fn error_frame(seq: u64, code: &str, message: &str) -> Json {
    reply("error", seq, vec![("code", Json::str(code)), ("message", Json::str(message))])
}

/// A rate-limit error frame carrying the retry hint.
pub fn rate_limited_frame(seq: u64, retry_after_ms: u64) -> Json {
    reply(
        "error",
        seq,
        vec![
            ("code", Json::str("rate_limited")),
            ("message", Json::str("per-tenant rate limit exceeded")),
            ("retry_after_ms", Json::num(retry_after_ms as f64)),
        ],
    )
}

/// The error frame for a QASM parse failure: `code:"qasm"`, the typed
/// error's stable sub-code, and — when the variant carries them — the
/// 1-based `line`/`column` and the offending `token`.
pub fn qasm_error_frame(seq: u64, err: &QasmError) -> Json {
    let mut pairs = vec![
        ("code", Json::str("qasm")),
        ("qasm_code", Json::str(err.code())),
        ("message", Json::str(err.to_string())),
    ];
    if let Some(line) = err.line() {
        pairs.push(("line", Json::num(line as f64)));
    }
    if let Some(column) = err.column() {
        pairs.push(("column", Json::num(column as f64)));
    }
    if let Some(token) = err.token() {
        pairs.push(("token", Json::str(token)));
    }
    reply("error", seq, pairs)
}

/// The stable wire code of a [`CompileError`] (used in `result` and
/// `completion` frames for failed jobs).
pub fn compile_error_code(err: &CompileError) -> &'static str {
    match err {
        CompileError::Deadline => "deadline",
        CompileError::Cancelled => "cancelled",
        CompileError::QueueFull => "queue_full",
        CompileError::ProgramTooWide { .. } => "program_too_wide",
        CompileError::Unroutable { .. } => "unroutable",
        CompileError::FrequencyBandExhausted { .. } => "band_exhausted",
        CompileError::InvalidConfig { .. } => "invalid_config",
        CompileError::NoShardFits { .. } => "no_shard_fits",
        CompileError::Internal { .. } => "internal",
        CompileError::Exhausted { .. } => "exhausted",
        CompileError::FleetUnhealthy { .. } => "fleet_unhealthy",
        _ => "compile_error",
    }
}

/// The error frame for a submission the queue refused outright
/// (shutdown, queue full, or an unhealthy fleet). A
/// [`CompileError::FleetUnhealthy`] refusal carries its
/// `retry_after_ms` hint so clients can back off instead of hammering a
/// quarantined fleet.
pub fn submit_error_frame(seq: u64, err: &CompileError) -> Json {
    let mut pairs = vec![
        ("code", Json::str(compile_error_code(err))),
        ("message", Json::str(err.to_string())),
    ];
    if let CompileError::FleetUnhealthy { retry_after } = err {
        pairs.push(("retry_after_ms", Json::num(retry_after.as_millis() as f64)));
    }
    reply("error", seq, pairs)
}

/// The `result` frame delivered by `poll`/`wait`, and (as `completion`)
/// streamed to subscribers. Success carries the serving metadata and the
/// schedule's pinned 64-bit digest as 16 hex digits — enough for a
/// client to prove bit-identity with a local compile without shipping
/// the schedule. A traced job's frame additionally carries its span
/// tree under `"trace"` (see [`SpanTree::to_json`]).
pub fn result_frame(
    frame_type: &str,
    seq: u64,
    job: u64,
    result: &JobResult,
    trace: Option<&SpanTree>,
) -> Json {
    let mut pairs = vec![("job", Json::num(job as f64))];
    if let Some(tree) = trace {
        pairs.push(("trace", tree.to_json()));
    }
    match result {
        Ok(reply) => {
            let schedule = &reply.compiled.schedule;
            pairs.extend([
                ("ok", Json::Bool(true)),
                ("shard", Json::num(reply.shard as f64)),
                ("cache_hit", Json::Bool(reply.cache_hit)),
                ("schedule_hash", Json::str(format!("{:016x}", schedule.stable_hash()))),
                ("depth", Json::num(schedule.depth() as f64)),
                ("gates", Json::num(schedule.gate_count() as f64)),
                ("duration_ns", Json::num(schedule.total_duration_ns())),
            ]);
        }
        Err(err) => {
            pairs.extend([
                ("ok", Json::Bool(false)),
                ("code", Json::str(compile_error_code(err))),
                ("message", Json::str(err.to_string())),
            ]);
            // Fault-tolerance variants carry structured context: the
            // retry hint for an unhealthy fleet, and the per-attempt
            // history of a job that exhausted its retries.
            if let CompileError::FleetUnhealthy { retry_after } = err {
                pairs.push(("retry_after_ms", Json::num(retry_after.as_millis() as f64)));
            }
            if let CompileError::Exhausted { attempts } = err {
                let history = attempts
                    .iter()
                    .map(|attempt| {
                        Json::obj(vec![
                            (
                                "shard",
                                attempt
                                    .shard
                                    .map_or(Json::Null, |shard| Json::num(shard as f64)),
                            ),
                            ("code", Json::str(compile_error_code(&attempt.error))),
                            ("message", Json::str(attempt.error.to_string())),
                        ])
                    })
                    .collect();
                pairs.push(("attempts", Json::Arr(history)));
            }
        }
    }
    reply(frame_type, seq, pairs)
}

/// The `metrics` frame: one Prometheus text-exposition scrape of the
/// server's queue, compile service and sockets, carried in `"body"` with
/// its content type alongside so an HTTP gateway can proxy it verbatim.
pub fn metrics_frame(seq: u64, body: &str) -> Json {
    reply(
        "metrics",
        seq,
        vec![
            ("content_type", Json::str("text/plain; version=0.0.4")),
            ("body", Json::str(body)),
        ],
    )
}

/// The `cache_export` frame: the fleet's artifact bundle as lower-case
/// hex in `"bundle"`, with the decoded byte count alongside.
pub fn cache_export_frame(seq: u64, bundle: &[u8]) -> Json {
    reply(
        "cache_export",
        seq,
        vec![
            ("bytes", Json::num(bundle.len() as f64)),
            ("bundle", Json::str(hex_encode(bundle))),
        ],
    )
}

/// The `cache_import` frame: per-class adoption counts for an imported
/// bundle.
pub fn cache_import_frame(seq: u64, report: &fastsc_service::ImportReport) -> Json {
    reply(
        "cache_import",
        seq,
        vec![
            ("statics", Json::num(report.statics as f64)),
            ("smt", Json::num(report.smt as f64)),
            ("schedules", Json::num(report.schedules as f64)),
            ("skipped", Json::num(report.skipped as f64)),
        ],
    )
}

/// One streamed `telemetry` frame: per-shard views plus the queue
/// snapshot and the delta since this stream's previous frame.
pub fn telemetry_frame(seq: u64, snapshot: &fastsc_queue::FleetSnapshot) -> Json {
    use fastsc_service::ShardState;
    let shards = snapshot
        .shards
        .iter()
        .map(|view| {
            let state = match view.state {
                ShardState::Active => "active",
                ShardState::Draining => "draining",
                ShardState::Retired => "retired",
                ShardState::Quarantined => "quarantined",
            };
            Json::obj(vec![
                ("shard", Json::num(view.shard as f64)),
                ("state", Json::str(state)),
                ("qubits", Json::num(view.profile.qubits as f64)),
                ("load", Json::num(view.load as f64)),
                ("ewma_compile_ns", Json::num(view.ewma_compile_latency.as_nanos() as f64)),
                ("cache_hits", Json::num(view.cache.hits as f64)),
                ("cache_misses", Json::num(view.cache.misses as f64)),
                ("failures", Json::num(view.health.failures as f64)),
                ("error_rate", Json::num(view.error_rate())),
                ("breaker_trips", Json::num(view.health.breaker_trips as f64)),
            ])
        })
        .collect();
    let stats = &snapshot.stats;
    let summarize = |summary: fastsc_queue::LatencySummary, p: Priority| {
        Json::obj(vec![
            ("class", Json::str(p.to_string())),
            ("count", Json::num(summary.count as f64)),
            ("min_ns", Json::num(summary.min.as_nanos() as f64)),
            ("p50_ns", Json::num(summary.p50.as_nanos() as f64)),
            ("p90_ns", Json::num(summary.p90.as_nanos() as f64)),
            ("p99_ns", Json::num(summary.p99.as_nanos() as f64)),
            ("max_ns", Json::num(summary.max.as_nanos() as f64)),
        ])
    };
    let latency = Priority::all().iter().map(|p| summarize(stats.latency(*p), *p)).collect();
    let queue_wait =
        Priority::all().iter().map(|p| summarize(stats.queue_wait(*p), *p)).collect();
    let delta = &snapshot.delta;
    reply(
        "telemetry",
        seq,
        vec![
            ("shards", Json::Arr(shards)),
            (
                "stats",
                Json::obj(vec![
                    ("depth", Json::num(stats.depth as f64)),
                    ("inflight", Json::num(stats.inflight as f64)),
                    ("admitted", Json::num(stats.admitted as f64)),
                    ("rejected", Json::num(stats.rejected as f64)),
                    ("shed", Json::num(stats.shed as f64)),
                    ("expired", Json::num(stats.expired as f64)),
                    ("cancelled", Json::num(stats.cancelled as f64)),
                    ("completed", Json::num(stats.completed as f64)),
                    ("retried", Json::num(stats.retried as f64)),
                    ("cache_hits", Json::num(stats.cache.hits as f64)),
                    ("cache_misses", Json::num(stats.cache.misses as f64)),
                    ("latency", Json::Arr(latency)),
                    ("queue_wait", Json::Arr(queue_wait)),
                ]),
            ),
            (
                "delta",
                Json::obj(vec![
                    ("admitted", Json::num(delta.admitted as f64)),
                    ("rejected", Json::num(delta.rejected as f64)),
                    ("shed", Json::num(delta.shed as f64)),
                    ("expired", Json::num(delta.expired as f64)),
                    ("cancelled", Json::num(delta.cancelled as f64)),
                    ("completed", Json::num(delta.completed as f64)),
                    ("retried", Json::num(delta.retried as f64)),
                ]),
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(text: &str) -> Result<(u64, Request), (u64, ProtocolError)> {
        Request::from_json(&Json::parse(text).unwrap())
    }

    #[test]
    fn decodes_every_request_type() {
        let (seq, req) = decode(r#"{"type":"hello","seq":1,"token":"t"}"#).unwrap();
        assert_eq!((seq, req), (1, Request::Hello { token: "t".into() }));

        let (_, req) = decode(
            r#"{"type":"submit","seq":2,"qasm":"OPENQASM 2.0;","strategy":"ColorDynamic","priority":"interactive","deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Submit {
                qasm: "OPENQASM 2.0;".into(),
                strategy: Strategy::ColorDynamic,
                priority: Priority::Interactive,
                deadline_ms: Some(250),
                trace: false,
            }
        );

        assert_eq!(decode(r#"{"type":"poll","job":9}"#).unwrap().1, Request::Poll { job: 9 });
        assert_eq!(
            decode(r#"{"type":"wait","job":9,"timeout_ms":50}"#).unwrap().1,
            Request::Wait { job: 9, timeout_ms: Some(50) }
        );
        assert_eq!(
            decode(r#"{"type":"cancel","job":9}"#).unwrap().1,
            Request::Cancel { job: 9 }
        );
        assert_eq!(decode(r#"{"type":"subscribe"}"#).unwrap().1, Request::Subscribe);
        assert_eq!(
            decode(r#"{"type":"telemetry","count":3,"interval_ms":10}"#).unwrap().1,
            Request::Telemetry { count: 3, interval_ms: 10 }
        );
        assert_eq!(decode(r#"{"type":"metrics","seq":6}"#).unwrap(), (6, Request::Metrics));
        assert_eq!(
            decode(r#"{"type":"cache_export","seq":8}"#).unwrap(),
            (8, Request::CacheExport)
        );
        assert_eq!(
            decode(r#"{"type":"cache_import","seq":9,"bundle":"00ff10"}"#).unwrap(),
            (9, Request::CacheImport { bundle: vec![0x00, 0xff, 0x10] })
        );
        assert_eq!(decode(r#"{"type":"ping","seq":77}"#).unwrap(), (77, Request::Ping));
    }

    #[test]
    fn cache_import_rejects_malformed_bundles() {
        for text in [
            r#"{"type":"cache_import","seq":5}"#,
            r#"{"type":"cache_import","seq":5,"bundle":"abc"}"#,
            r#"{"type":"cache_import","seq":5,"bundle":"zz"}"#,
            r#"{"type":"cache_import","seq":5,"bundle":"AB"}"#,
        ] {
            let (seq, err) = decode(text).expect_err(text);
            assert_eq!(seq, 5, "{text}");
            assert_eq!(err.code, "bad_request", "{text}");
        }
    }

    #[test]
    fn hex_round_trips_and_frames_carry_the_bundle() {
        let bundle: Vec<u8> = (0..=255).collect();
        let hex = hex_encode(&bundle);
        assert_eq!(hex_decode(&hex).as_deref(), Some(bundle.as_slice()));

        let frame = cache_export_frame(3, &bundle);
        assert_eq!(frame.get("type").unwrap().as_str(), Some("cache_export"));
        assert_eq!(frame.get("bytes").unwrap().as_u64(), Some(256));
        assert_eq!(frame.get("bundle").unwrap().as_str(), Some(hex.as_str()));
        let reparsed = Json::parse(&frame.encode()).expect("round trips");
        assert_eq!(reparsed.get("bundle").unwrap().as_str(), Some(hex.as_str()));

        let report =
            fastsc_service::ImportReport { statics: 1, smt: 2, schedules: 3, skipped: 4 };
        let frame = cache_import_frame(7, &report);
        assert_eq!(frame.get("statics").unwrap().as_u64(), Some(1));
        assert_eq!(frame.get("smt").unwrap().as_u64(), Some(2));
        assert_eq!(frame.get("schedules").unwrap().as_u64(), Some(3));
        assert_eq!(frame.get("skipped").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn submit_defaults_priority_to_batch_and_deadline_to_none() {
        let (_, req) =
            decode(r#"{"type":"submit","qasm":"x","strategy":"BaselineN"}"#).unwrap();
        assert_eq!(
            req,
            Request::Submit {
                qasm: "x".into(),
                strategy: Strategy::BaselineN,
                priority: Priority::Batch,
                deadline_ms: None,
                trace: false,
            }
        );
    }

    #[test]
    fn submit_trace_flag_is_parsed_and_validated() {
        let (_, req) =
            decode(r#"{"type":"submit","qasm":"x","strategy":"BaselineN","trace":true}"#)
                .unwrap();
        assert!(matches!(req, Request::Submit { trace: true, .. }));
        let (_, err) =
            decode(r#"{"type":"submit","qasm":"x","strategy":"BaselineN","trace":1}"#)
                .expect_err("non-boolean trace");
        assert_eq!(err.code, "bad_request");
    }

    #[test]
    fn bad_requests_keep_the_seq_for_the_error_frame() {
        for text in [
            r#"{"seq":5}"#,
            r#"{"type":"warp","seq":5}"#,
            r#"{"type":"hello","seq":5}"#,
            r#"{"type":"submit","seq":5,"qasm":"x","strategy":"Telepathy"}"#,
            r#"{"type":"submit","seq":5,"qasm":"x","strategy":"BaselineN","priority":"urgent"}"#,
            r#"{"type":"poll","seq":5,"job":-1}"#,
            r#"{"type":"wait","seq":5}"#,
            r#"{"type":"telemetry","seq":5,"count":0}"#,
            r#"{"type":"telemetry","seq":5,"interval_ms":999999}"#,
        ] {
            let (seq, err) = decode(text).expect_err(text);
            assert_eq!(seq, 5, "{text}");
            assert_eq!(err.code, "bad_request", "{text}");
        }
    }

    #[test]
    fn wait_timeout_is_capped() {
        let (_, req) = decode(r#"{"type":"wait","job":1,"timeout_ms":99999999}"#).unwrap();
        assert_eq!(req, Request::Wait { job: 1, timeout_ms: Some(MAX_WAIT_MS) });
    }

    #[test]
    fn qasm_error_frames_carry_location_and_token() {
        let err = fastsc_ir::qasm::from_qasm("OPENQASM 2.0;\nqreg q[2];\nwarp q[0];")
            .expect_err("unknown gate");
        let frame = qasm_error_frame(4, &err);
        assert_eq!(frame.get("code").unwrap().as_str(), Some("qasm"));
        assert_eq!(frame.get("qasm_code").unwrap().as_str(), Some("unsupported_gate"));
        assert_eq!(frame.get("line").unwrap().as_u64(), Some(3));
        assert!(frame.get("column").unwrap().as_u64().is_some());
        assert_eq!(frame.get("token").unwrap().as_str(), Some("warp"));
        assert_eq!(frame.get("seq").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn result_frames_cover_both_arms() {
        let failed: JobResult = Err(CompileError::Deadline);
        let frame = result_frame("result", 9, 3, &failed, None);
        assert_eq!(frame.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(frame.get("code").unwrap().as_str(), Some("deadline"));
        assert_eq!(frame.get("job").unwrap().as_u64(), Some(3));

        assert_eq!(compile_error_code(&CompileError::QueueFull), "queue_full");
        assert_eq!(
            compile_error_code(&CompileError::ProgramTooWide { program: 9, device: 4 }),
            "program_too_wide"
        );
        assert_eq!(
            compile_error_code(&CompileError::InvalidConfig { field: "max_colors" }),
            "invalid_config"
        );
    }

    #[test]
    fn fleet_unhealthy_frames_carry_the_retry_hint() {
        let failed: JobResult = Err(CompileError::FleetUnhealthy {
            retry_after: std::time::Duration::from_millis(750),
        });
        let frame = result_frame("result", 2, 5, &failed, None);
        assert_eq!(frame.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(frame.get("code").unwrap().as_str(), Some("fleet_unhealthy"));
        assert_eq!(frame.get("retry_after_ms").unwrap().as_u64(), Some(750));
    }

    #[test]
    fn exhausted_frames_stream_the_attempt_history() {
        use fastsc_core::FailedAttempt;
        let failed: JobResult = Err(CompileError::Exhausted {
            attempts: vec![
                FailedAttempt {
                    shard: Some(1),
                    error: CompileError::Internal { message: "injected".into() },
                },
                FailedAttempt {
                    shard: None,
                    error: CompileError::NoShardFits { program: 4, max_shard: 0 },
                },
            ],
        });
        let frame = result_frame("completion", 3, 8, &failed, None);
        assert_eq!(frame.get("code").unwrap().as_str(), Some("exhausted"));
        let Some(Json::Arr(attempts)) = frame.get("attempts") else {
            panic!("missing attempts array");
        };
        assert_eq!(attempts.len(), 2);
        assert_eq!(attempts[0].get("shard").unwrap().as_u64(), Some(1));
        assert_eq!(attempts[0].get("code").unwrap().as_str(), Some("internal"));
        assert!(matches!(attempts[1].get("shard"), Some(Json::Null)));
        assert_eq!(attempts[1].get("code").unwrap().as_str(), Some("no_shard_fits"));
    }

    #[test]
    fn traced_result_frames_embed_the_tree() {
        use fastsc_telemetry::Tracer;
        let tracer = Tracer::new();
        drop(tracer.span("job", None));
        let tree = tracer.finish();
        let failed: JobResult = Err(CompileError::Cancelled);
        let frame = result_frame("completion", 1, 2, &failed, Some(&tree));
        assert_eq!(frame.get("trace").unwrap().get("name").unwrap().as_str(), Some("job"));
        let untraced = result_frame("completion", 1, 2, &failed, None);
        assert!(untraced.get("trace").is_none());
    }

    #[test]
    fn metrics_frames_carry_the_exposition_body() {
        let body = "# TYPE fastsc_queue_depth gauge\nfastsc_queue_depth 0\n";
        let frame = metrics_frame(11, body);
        assert_eq!(frame.get("type").unwrap().as_str(), Some("metrics"));
        assert_eq!(frame.get("seq").unwrap().as_u64(), Some(11));
        assert_eq!(frame.get("body").unwrap().as_str(), Some(body));
        let reparsed = Json::parse(&frame.encode()).expect("newline escapes round trip");
        assert_eq!(reparsed.get("body").unwrap().as_str(), Some(body));
    }
}
