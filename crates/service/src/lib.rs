//! **FastSC compile service** — sharded, cached, work-stealing batch
//! compilation across fleets of devices.
//!
//! The paper compiles one program for one device. This crate scales
//! that to batches of jobs over many registered devices ("shards"),
//! heavy mixed traffic and repetitive programs; a single-device batch is
//! a one-shard [`CompileService`]. Three layers, each independently
//! testable:
//!
//! * [`router::CompileService`] — builds one shard per
//!   [`ShardSpec`] (device, config, cache capacity,
//!   optional artifact store), routes each submitted
//!   [`CompileJob`](fastsc_core::batch::CompileJob) to a shard via a
//!   pluggable [`policy::ShardPolicy`], fans all routed jobs out over the
//!   work-stealing rayon pool as one flat batch, and reassembles results
//!   in submission order with per-job error isolation. The fleet is
//!   **dynamic**: `add_shard` / `drain_shard` / `remove_shard` are
//!   `&self` and safe while batches are compiling.
//! * [`telemetry`] — what placement decisions consume: an immutable
//!   [`ShardProfile`] per shard (calibration
//!   summary + static `estimated_success` score from the device's noise
//!   characteristics) plus live [`ShardView`]
//!   snapshots (lifecycle state, load, EWMA compile latency, cache
//!   counters). Policies read them through `RouteRequest::shards`;
//!   [`Composite`] — the one ranking engine, with
//!   least-loaded, capacity-aware, and fidelity-aware presets — filters
//!   and ranks shards by them.
//! * [`cache::ScheduleCache`] — a bounded whole-schedule result cache
//!   per shard, keyed by `(device fingerprint, program structural hash,
//!   strategy, config fingerprint)`; identical repeat jobs skip the
//!   scheduler entirely and hits are bit-identical to cold compiles.
//! * the vendored rayon pool's **per-item work stealing** (one deque per
//!   worker, idle workers steal from busy ones) — a batch dominated by
//!   one heavy job no longer idles the remaining workers, and
//!   index-tagged reassembly keeps output order independent of who stole
//!   what.
//!
//! Everything observable is deterministic: routing happens sequentially
//! at submission, compilation is pure per `(device, config, program,
//! strategy)`, and caching/stealing only change *when* a schedule is
//! computed, never *what* it is. The workspace determinism suite compiles
//! every strategy through the service — routed, cache-warm, and stolen —
//! and demands bit-identical schedules to fresh single-device compiles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod fault;
pub mod policy;
pub mod router;
pub mod telemetry;

pub use cache::{device_fingerprint, CacheKey, CacheStats, ScheduleCache};
pub use fault::{FaultAction, FaultInjector, FaultKind, FaultPlan, FaultRule};
pub use policy::{Composite, ProgramAffinity, RoundRobin, RouteRequest, ShardPolicy, Stage};
pub use router::{
    BreakerConfig, CompileService, ImportReport, ServiceReply, ShardOutcome, ShardSpec,
};
pub use telemetry::{ShardHealth, ShardProfile, ShardState, ShardView};
