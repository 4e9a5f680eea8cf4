//! **FastSC compile queue** — the asynchronous front end over the
//! sharded compile service.
//!
//! [`CompileService`](fastsc_service::CompileService) is a blocking
//! batch API: callers hand it a vector of jobs and wait for the whole
//! reply. Production traffic does not arrive in tidy vectors — it is
//! many concurrent tenants submitting single jobs with different
//! urgencies, and a serving layer has to decide *admission* (how much
//! work to hold), *order* (whose job compiles next), and *delivery*
//! (streaming each result the moment it exists). This crate is that
//! layer, built on std threads only (consistent with the workspace's
//! vendored-only dependency policy):
//!
//! * [`QueueService::submit`] is non-blocking admission (except under
//!   [`Backpressure::Block`], where blocking *is* the backpressure): it
//!   returns a [`JobHandle`] that can [`poll`](JobHandle::poll),
//!   [`wait`](JobHandle::wait), [`wait_timeout`](JobHandle::wait_timeout),
//!   and [`cancel`](JobHandle::cancel).
//! * The admission queue is bounded, with pluggable [`Backpressure`]
//!   (`Block`, `RejectWhenFull`, `ShedOldest`) and per-job deadlines —
//!   an expired job resolves to
//!   [`CompileError::Deadline`](fastsc_core::CompileError::Deadline)
//!   without ever reaching a compiler.
//! * Three [`Priority`] classes share the fleet by weighted round-robin
//!   (4:2:1) with per-client rotation inside each class: interactive
//!   traffic dominates under load, but no class and no tenant starves.
//! * A dispatcher thread drains fair micro-batches into
//!   [`CompileService::compile_batch`]
//!   (fastsc_service::CompileService::compile_batch), so shard routing,
//!   duplicate coalescing, work stealing, and the whole-schedule result
//!   cache keep working exactly as in the blocking API — queued
//!   schedules are bit-identical to direct sequential compiles (the
//!   workspace determinism suite proves it).
//! * Results stream: every completion wakes its handle and feeds every
//!   [`subscribe_all`](QueueService::subscribe_all) iterator in
//!   completion order, and [`QueueService::stats`] snapshots depth,
//!   lifecycle counters, per-priority latency percentiles, and the
//!   fleet's cache counters.
//! * The fleet **scales while serving**:
//!   [`QueueService::telemetry_feed`] streams per-shard
//!   [`ShardView`](fastsc_service::ShardView)s (calibration profile +
//!   live load/latency) and [`QueueStats`] deltas to an operator loop,
//!   which reacts through
//!   [`CompileService::add_shard`](fastsc_service::CompileService::add_shard)
//!   / [`drain_shard`](fastsc_service::CompileService::drain_shard) —
//!   both safe under the running dispatcher, with draining guaranteed to
//!   finish (not drop) everything already admitted to that shard.
//!
//! # Example
//!
//! ```
//! use fastsc_core::batch::CompileJob;
//! use fastsc_core::{CompilerConfig, Strategy};
//! use fastsc_device::Device;
//! use fastsc_queue::{Priority, QueueService, Submission};
//! use fastsc_service::{CompileService, Composite, ShardSpec};
//! use fastsc_workloads::Benchmark;
//!
//! let service = CompileService::new(Composite::capacity_aware());
//! service.add_shard(ShardSpec::new(Device::grid(3, 3, 7), CompilerConfig::default()))?;
//! let queue = QueueService::with_defaults(service);
//!
//! let handle = queue.submit(
//!     Submission::new(CompileJob::new(Benchmark::Bv(5).build(1), Strategy::ColorDynamic))
//!         .client(1)
//!         .priority(Priority::Interactive),
//! )?;
//! let reply = handle.wait()?;
//! assert_eq!(reply.shard, 0);
//! assert_eq!(queue.stats().completed, 1);
//! # Ok::<(), fastsc_core::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
mod scheduler;
pub mod service;
pub mod stats;

pub use job::{ClientId, JobId, Priority, Submission};
pub use service::{
    Backpressure, Completions, FleetSnapshot, JobHandle, JobResult, QueueConfig, QueueService,
    RetryPolicy, TelemetryFeed,
};
pub use stats::{LatencySummary, QueueDelta, QueueStats, LATENCY_WINDOW};
