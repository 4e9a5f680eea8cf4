//! **FastSC** — systematic crosstalk mitigation for superconducting qubits
//! via frequency-aware compilation.
//!
//! A from-scratch Rust implementation of Ding et al., *Systematic Crosstalk
//! Mitigation for Superconducting Qubits via Frequency-Aware Compilation*
//! (MICRO 2020), including every substrate the paper relies on. This
//! umbrella crate re-exports the workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`graph`] | `fastsc-graph` | connectivity/crosstalk graphs, colorings, topologies |
//! | [`ir`] | `fastsc-ir` | circuit IR, gate unitaries, slicing, decomposition |
//! | [`device`] | `fastsc-device` | transmon specs, frequency partition, couplers |
//! | [`noise`] | `fastsc-noise` | crosstalk/decoherence models, `P_success` estimator |
//! | [`workloads`] | `fastsc-workloads` | BV / QAOA / ISING / QGAN / XEB generators |
//! | [`compiler`] | `fastsc-core` | ColorDynamic and the Table I baselines |
//! | [`service`] | `fastsc-service` | sharded multi-device compile service + result cache |
//! | [`queue`] | `fastsc-queue` | async admission queue: backpressure, priorities, deadlines, streaming |
//! | [`server`] | `fastsc-server` | TCP wire protocol, multi-tenant sessions, rate limits and quotas |
//! | [`store`] | `fastsc-store` | crash-safe on-disk artifact store: warm start + fleet pre-warming |
//! | [`sim`] | `fastsc-sim` | noisy state-vector + two-transmon qutrit simulation |
//! | [`telemetry`] | `fastsc-telemetry` | per-job span traces + Prometheus-style metrics |
//!
//! # Quickstart
//!
//! ```
//! use fastsc::compiler::{Compiler, CompilerConfig, Strategy};
//! use fastsc::device::Device;
//! use fastsc::noise::{estimate, NoiseConfig};
//! use fastsc::workloads::Benchmark;
//!
//! // A 3x3 tunable-transmon mesh with fabrication variation.
//! let device = Device::grid(3, 3, 42);
//! let compiler = Compiler::new(device, CompilerConfig::default());
//!
//! // Compile a 5-cycle XEB circuit with the paper's ColorDynamic.
//! let program = Benchmark::Xeb(9, 5).build(42);
//! let compiled = compiler.compile(&program, Strategy::ColorDynamic)?;
//!
//! // Estimate the worst-case program success rate (paper Eq. 4).
//! let report = estimate(compiler.device(), &compiled.schedule, &NoiseConfig::default());
//! assert!(report.p_success > 0.0 && report.p_success <= 1.0);
//! # Ok::<(), fastsc::compiler::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fastsc_core as compiler;
pub use fastsc_device as device;
pub use fastsc_graph as graph;
pub use fastsc_ir as ir;
pub use fastsc_noise as noise;
pub use fastsc_queue as queue;
pub use fastsc_server as server;
pub use fastsc_service as service;
pub use fastsc_sim as sim;
pub use fastsc_store as store;
pub use fastsc_telemetry as telemetry;
pub use fastsc_workloads as workloads;
