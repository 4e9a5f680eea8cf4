//! Observability for the FastSC serving stack: per-job span trees and a
//! process-global metrics registry, std-only with zero dependencies.
//!
//! Two halves, threaded through every layer (engine → batch → sharded
//! service → queue → TCP server):
//!
//! * [`span`] — a lightweight [`Tracer`]/[`SpanGuard`] API that records
//!   one tree of timed, attributed spans per job
//!   (`job → admission/queue_wait/route/attempt{compile{…}}/respond`),
//!   exportable as a nested [`SpanTree`] or as Chrome `trace_event`
//!   JSON that opens directly in Perfetto. Engine-internal phases
//!   (context build, SMT, coloring, partition, stitch) attach through a
//!   thread-local context installed around the compile, so the engine
//!   itself never threads tracer handles through its hot loop.
//! * [`metrics`](mod@metrics) — fixed-instrument atomic counters, gauges, and
//!   fixed-bucket histograms covering queue wait, per-strategy compile
//!   latency, SMT solve time, retries, breaker transitions, cache
//!   hits, and bytes on the wire, snapshot-able for embedders
//!   ([`MetricsSnapshot`]) and renderable as Prometheus text
//!   exposition format for scrapes.
//!
//! **Zero-cost when off** is a hard requirement: the disabled tracing
//! path is a single branch on a relaxed atomic ([`tracing_active`]),
//! and nothing recorded here may influence compile decisions — the
//! determinism suite holds bit-identical with tracing on, off, and
//! sampled. Sampling ([`TraceMode::Sampled`]) is a deterministic
//! counter, never a clock or RNG.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod span;

pub use metrics::{
    metrics, metrics_enabled, set_metrics_enabled, Counter, Gauge, Histogram,
    HistogramSnapshot, Metrics, MetricsSnapshot, STRATEGY_LABELS,
};
pub use span::{
    install_engine_trace, phase, set_trace_mode, should_trace, trace_mode, tracing_active,
    AttrValue, EngineTraceGuard, PhaseGuard, SpanGuard, SpanId, SpanNode, SpanTree,
    TraceHandle, TraceMode, Tracer,
};
