//! **FastSC network serving layer** — a TCP front end over the compile
//! queue, speaking a length-prefixed JSON wire protocol to multiple
//! authenticated tenants.
//!
//! [`fastsc_queue::QueueService`] is an in-process API: admission,
//! priorities, deadlines, and streaming results all assume the caller
//! shares the server's address space. This crate puts that service
//! behind a socket without changing any of its semantics:
//!
//! * **Wire protocol** — every message is one JSON object behind a
//!   4-byte length prefix ([`frame`]), encoded with the workspace's
//!   std-only codec ([`Json`], from [`fastsc_telemetry::json`]). The request
//!   vocabulary ([`protocol`]) covers `submit` (OpenQASM 2.0 source +
//!   strategy + priority + deadline + opt-in span trace), `poll`/`wait`,
//!   `cancel`, `subscribe` (streamed completion frames), `telemetry`
//!   (streamed fleet snapshots), `metrics` (one Prometheus
//!   text-exposition scrape), `cache_export`/`cache_import` (fleet
//!   pre-warming: a hex-encoded artifact bundle a peer fleet adopts
//!   after re-validation), and `ping`. `docs/WIRE.md` is the normative
//!   spec.
//! * **Multi-tenant sessions** ([`session`]) — connections authenticate
//!   with a token that maps them to a tenant: a queue-level client
//!   identity (so the scheduler's per-client fairness applies), a
//!   token-bucket rate limit, and an in-flight quota, both enforced
//!   before the queue sees a submission.
//! * **QASM in the submission path** — programs arrive as source, and
//!   [`fastsc_ir::qasm`]'s typed errors come back as structured error
//!   frames carrying `line`/`column`/`token`; a malformed program never
//!   costs the connection.
//! * **Determinism over the wire** — result frames carry the schedule's
//!   pinned digest (`fastsc_noise::Schedule::stable_hash`), so a client can prove the
//!   schedule compiled behind the socket is bit-identical to a fresh
//!   local sequential compile. The workspace determinism suite does
//!   exactly that.
//! * **Graceful shutdown** — draining, not dropping: every admitted job
//!   resolves, subscribers receive the final completions, and every
//!   connection gets a `shutdown` frame.
//!
//! # Example
//!
//! ```
//! use fastsc_core::CompilerConfig;
//! use fastsc_device::Device;
//! use fastsc_queue::QueueService;
//! use fastsc_server::{Client, Server, TenantConfig};
//! use fastsc_service::{CompileService, Composite, ShardSpec};
//!
//! let service = CompileService::new(Composite::capacity_aware());
//! service.add_shard(ShardSpec::new(Device::grid(2, 2, 7), CompilerConfig::default()))?;
//! let queue = QueueService::with_defaults(service);
//! let mut server = Server::start(queue, vec![TenantConfig::generous("secret", "acme", 1)])?;
//!
//! let mut client = Client::connect(server.addr())?;
//! client.hello("secret")?;
//! let job = client.submit(
//!     "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1];",
//!     "ColorDynamic",
//!     "interactive",
//!     None,
//! )?;
//! let outcome = client.wait(job, 30_000)?.expect("job finishes");
//! assert!(outcome.ok);
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::{Client, ClientError, JobOutcome};
pub use fastsc_telemetry::json::{Json, JsonError};
pub use frame::{read_frame, write_frame, MAX_FRAME};
pub use protocol::{metrics_frame, ProtocolError, Request};
pub use server::Server;
pub use session::{RateLimiter, SessionRegistry, Tenant, TenantConfig};
