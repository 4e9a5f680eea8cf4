//! ColorDynamic — frequency-aware, crosstalk-mitigating compilation for
//! tunable superconducting qubits (the paper's primary contribution), plus
//! the four Table I baseline strategies it is evaluated against.
//!
//! The compilation pipeline (paper Fig. 3 / Algorithm 1):
//!
//! 1. **Routing** — program qubits are mapped onto device qubits and
//!    `SWAP` chains are inserted for gates on uncoupled pairs;
//! 2. **Decomposition** — program gates are lowered to the native set
//!    (hybrid strategy by default, §V-B5) and peephole-cleaned;
//! 3. **Parking assignment** — the connectivity graph is colored and
//!    colors map to maximally separated parking frequencies (§IV-C-1);
//! 4. **Queueing scheduling** — gates are admitted cycle by cycle in
//!    criticality order, postponing gates whose crosstalk-graph
//!    neighborhoods are too crowded (`noise_conflict`, §V-B6);
//! 5. **Subgraph coloring + SMT** — per cycle, the active subgraph of the
//!    crosstalk graph is Welsh–Powell-colored and colors map to
//!    interaction frequencies via the difference-logic solver, maximizing
//!    the separation threshold and ordering frequencies by color
//!    multiplicity (§V-B2/3).
//!
//! # Example
//!
//! ```
//! use fastsc_core::{Compiler, CompilerConfig, Strategy};
//! use fastsc_device::Device;
//! use fastsc_workloads::Benchmark;
//!
//! let device = Device::grid(3, 3, 7);
//! let compiler = Compiler::new(device, CompilerConfig::default());
//! let program = Benchmark::Xeb(9, 5).build(7);
//! let compiled = compiler.compile(&program, Strategy::ColorDynamic)?;
//! assert!(compiled.schedule.depth() > 0);
//! # Ok::<(), fastsc_core::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod config;
pub mod context;
mod engine;
mod error;
pub mod frequency;
pub mod partition;
pub mod router;

pub use config::{CompilerConfig, PartitionConfig};
pub use context::{CompileContext, SmtMemoEntry, SmtStats, StaticAssignment};
pub use engine::{CompileStats, CompiledProgram, Compiler, ParseStrategyError, Strategy};
pub use error::{CompileError, FailedAttempt};
