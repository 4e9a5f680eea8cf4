//! Observability for the FastSC serving stack: per-job span trees and
//! the metric instruments and writers behind every scrape, std-only with
//! zero dependencies.
//!
//! Two halves, threaded through every layer (engine → batch → sharded
//! service → queue → TCP server):
//!
//! * [`span`] — a lightweight [`Tracer`]/[`SpanGuard`] API that records
//!   one tree of timed, attributed spans per job
//!   (`job → admission/queue_wait/route/attempt{compile{…}}/respond`),
//!   exportable as nested wire JSON ([`SpanTree::to_json`]) or as
//!   Chrome `trace_event` JSON that opens directly in Perfetto.
//!   Engine-internal phases (context build, SMT, coloring, partition,
//!   stitch) attach through a thread-local context installed around the
//!   compile, so the engine itself never threads tracer handles through
//!   its hot loop.
//! * [`metrics`](mod@metrics) — the fixed-bucket duration [`Histogram`]
//!   and the Prometheus text-exposition writers
//!   ([`counter_family`](metrics::counter_family),
//!   [`gauge`](metrics::gauge), [`summary`](metrics::summary),
//!   [`histogram`](metrics::histogram)). There is no process-global
//!   registry: each event is counted once, by the record that owns it
//!   (a queue's `QueueStats`, a compile service's shards, a compile
//!   context's SMT memo, an artifact store, a server), and each renders
//!   its own families, so two services in one process never report
//!   each other's work.
//!
//! Both span exports, the server's wire frames and the bench records
//! encode through the workspace's one JSON codec, [`json`].
//!
//! **Zero-cost when off** is a hard requirement: the disabled tracing
//! path is a single branch on a relaxed atomic ([`tracing_active`]),
//! and nothing recorded here may influence compile decisions — the
//! determinism suite holds bit-identical with tracing on, off, and
//! sampled. Sampling ([`TraceMode::Sampled`]) is a deterministic
//! counter, never a clock or RNG.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod span;

pub use json::{Json, JsonError};
pub use metrics::{Histogram, STRATEGY_LABELS};
pub use span::{
    install_engine_trace, phase, set_trace_mode, should_trace, trace_mode, tracing_active,
    AttrValue, EngineTraceGuard, PhaseGuard, SpanGuard, SpanId, SpanNode, SpanTree,
    TraceHandle, TraceMode, Tracer,
};
