//! The unit of batch work and its panic-isolated execution.
//!
//! The paper evaluates one `(program, strategy)` pair at a time; a
//! production compilation service instead sees *queues* of jobs sharing
//! a device. [`CompileJob`] is one such job, and [`compile_isolated`] is
//! the primitive that runs it: the sharded `fastsc_service` compile
//! service dispatches every routed job through it (a single-device batch
//! is a one-shard service), so the isolation contract — one bad job
//! cannot poison its batch — is defined in exactly one place.
//!
//! # Example
//!
//! ```
//! use fastsc_core::batch::{compile_isolated, CompileJob};
//! use fastsc_core::{Compiler, CompilerConfig, Strategy};
//! use fastsc_device::Device;
//! use fastsc_workloads::Benchmark;
//!
//! let compiler = Compiler::new(Device::grid(3, 3, 42), CompilerConfig::default());
//! let job = CompileJob::new(Benchmark::Xeb(9, 3).build(7), Strategy::ColorDynamic);
//! assert!(compile_isolated(&compiler, &job.program, job.strategy).is_ok());
//! ```

use crate::engine::{CompiledProgram, Compiler, Strategy};
use crate::error::CompileError;
use fastsc_ir::Circuit;
use fastsc_telemetry::TraceHandle;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One unit of batch work: a program plus the strategy to compile it under.
#[derive(Debug, Clone)]
pub struct CompileJob {
    /// The program to compile.
    pub program: Circuit,
    /// The strategy to compile it under.
    pub strategy: Strategy,
    /// Where this job's spans should record, when the job is traced.
    /// Observation only — two jobs differing solely in `trace` compile
    /// bit-identically.
    pub trace: Option<TraceHandle>,
}

impl CompileJob {
    /// Creates an untraced job.
    pub fn new(program: Circuit, strategy: Strategy) -> Self {
        CompileJob { program, strategy, trace: None }
    }

    /// Attaches a trace handle: compile-phase spans (context build,
    /// SMT, coloring, partition, stitch) will record under it.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// The message of a caught panic payload: the payload itself when it is
/// a `&str` or `String` (what `panic!` produces), a fixed placeholder
/// otherwise. Every layer that turns a caught panic into
/// [`CompileError::Internal`] decodes the payload here.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Compiles one program with panic isolation: a panic inside any
/// compilation stage is caught and surfaced as
/// [`CompileError::Internal`] instead of unwinding into the caller.
pub fn compile_isolated(
    compiler: &Compiler,
    program: &Circuit,
    strategy: Strategy,
) -> Result<CompiledProgram, CompileError> {
    catch_unwind(AssertUnwindSafe(|| compiler.compile(program, strategy))).unwrap_or_else(
        |payload| Err(CompileError::Internal { message: panic_message(payload.as_ref()) }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_message_decodes_str_string_and_other_payloads() {
        let decode = |f: fn()| panic_message(catch_unwind(f).expect_err("panics").as_ref());
        assert_eq!(decode(|| panic!("static")), "static");
        assert_eq!(decode(|| panic!("formatted {}", 7)), "formatted 7");
        assert_eq!(decode(|| std::panic::panic_any(7_u32)), "non-string panic payload");
    }
}
