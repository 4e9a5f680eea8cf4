//! Rayon-parallel batch compilation.
//!
//! The paper evaluates one `(program, strategy)` pair at a time; a
//! production compilation service instead sees *queues* of jobs sharing a
//! device. [`BatchCompiler`] is that front end: it owns one [`Compiler`]
//! (device model + configuration built once) and fans a vector of
//! [`CompileJob`]s out across worker threads. It is deliberately the
//! *single-shard* special case of the multi-device `fastsc_service`
//! compile service — both dispatch every job through the same
//! [`compile_isolated`] primitive, the service adding shard routing and a
//! whole-schedule result cache on top.
//!
//! Guarantees:
//!
//! * **Order** — `results[i]` always corresponds to `jobs[i]`.
//! * **Isolation** — a job that fails (or panics inside a compilation
//!   stage) yields `Err(CompileError)` in its slot; the other jobs are
//!   unaffected.
//! * **Determinism** — compilation is a pure function of
//!   `(device, config, program, strategy)`, so the parallel results are
//!   bit-identical to a sequential run of the same batch.
//!
//! # Example
//!
//! ```
//! use fastsc_core::batch::{BatchCompiler, CompileJob};
//! use fastsc_core::{CompilerConfig, Strategy};
//! use fastsc_device::Device;
//! use fastsc_workloads::Benchmark;
//!
//! let batch = BatchCompiler::new(Device::grid(3, 3, 42), CompilerConfig::default());
//! let jobs: Vec<CompileJob> = Strategy::all()
//!     .into_iter()
//!     .map(|s| CompileJob::new(Benchmark::Xeb(9, 3).build(7), s))
//!     .collect();
//! let results = batch.compile_batch(jobs);
//! assert_eq!(results.len(), 5);
//! assert!(results.iter().all(|r| r.is_ok()));
//! ```

use crate::config::CompilerConfig;
use crate::context::CompileContext;
use crate::engine::{CompiledProgram, Compiler, Strategy};
use crate::error::CompileError;
use fastsc_device::Device;
use fastsc_ir::Circuit;
use fastsc_telemetry::TraceHandle;
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

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

/// Compiles one program with panic isolation: a panic inside any
/// compilation stage is caught and surfaced as
/// [`CompileError::Internal`] instead of unwinding into the caller.
///
/// This is the per-job execution primitive shared by every batch front
/// end — [`BatchCompiler`] uses it for each slot, and the multi-device
/// `fastsc_service` shard router uses it for each routed job — so the
/// isolation contract ("one bad job cannot poison its batch") is defined
/// in exactly one place.
pub fn compile_isolated(
    compiler: &Compiler,
    program: &Circuit,
    strategy: Strategy,
) -> Result<CompiledProgram, CompileError> {
    catch_unwind(AssertUnwindSafe(|| compiler.compile(program, strategy))).unwrap_or_else(
        |payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(CompileError::Internal { message })
        },
    )
}

/// Compiles many jobs against one shared device, in parallel.
///
/// See the [module docs](self) for the order/isolation/determinism
/// contract.
#[derive(Debug, Clone)]
pub struct BatchCompiler {
    compiler: Compiler,
    num_threads: Option<usize>,
}

impl BatchCompiler {
    /// Creates a batch front end over a fresh [`Compiler`].
    pub fn new(device: Device, config: CompilerConfig) -> Self {
        BatchCompiler { compiler: Compiler::new(device, config), num_threads: None }
    }

    /// Wraps an existing compiler (device structures are shared by all
    /// jobs, not rebuilt per job).
    pub fn from_compiler(compiler: Compiler) -> Self {
        BatchCompiler { compiler, num_threads: None }
    }

    /// Wraps an existing shared [`CompileContext`] — the crosstalk graph,
    /// parking assignment, static colorings, and SMT memo are reused, not
    /// rebuilt, even across multiple `BatchCompiler`s. The result honors
    /// [`num_threads`](Self::num_threads) exactly like the other
    /// construction paths: the cap is applied per `compile_batch` call,
    /// not baked into the context.
    pub fn from_context(context: Arc<CompileContext>) -> Self {
        BatchCompiler::from_compiler(Compiler::with_context(context))
    }

    /// Caps the worker-thread count: every
    /// [`compile_batch`](Self::compile_batch) call dispatches at most `n` worker tasks
    /// onto the persistent rayon pool, regardless of how this
    /// `BatchCompiler` was constructed ([`new`](Self::new),
    /// [`from_compiler`](Self::from_compiler), or
    /// [`from_context`](Self::from_context)). `num_threads(1)` forces a
    /// fully sequential run — the baseline the throughput benchmark
    /// measures the rayon path against. By default the rayon pool
    /// decides (all available cores, or `RAYON_NUM_THREADS`).
    pub fn num_threads(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one worker thread is required");
        self.num_threads = Some(n);
        self
    }

    /// The cap installed by [`num_threads`](Self::num_threads), if any.
    pub fn thread_cap(&self) -> Option<usize> {
        self.num_threads
    }

    /// The shared underlying compiler.
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    /// Compiles every job, returning one result per job **in job order**.
    ///
    /// Failures are isolated per slot: routing/frequency errors surface as
    /// that job's [`CompileError`], and a panic inside a compilation stage
    /// is caught and converted to [`CompileError::Internal`] rather than
    /// tearing down the batch.
    pub fn compile_batch(
        &self,
        jobs: Vec<CompileJob>,
    ) -> Vec<Result<CompiledProgram, CompileError>> {
        // Warm the shared context on the calling thread so concurrent
        // workers don't race to build it redundantly. A build failure is
        // deliberately ignored here: each job surfaces it (after its own
        // routing checks) exactly like a sequential run would.
        let _ = self.compiler.context();
        match self.num_threads {
            Some(1) => self.compile_batch_sequential(jobs),
            Some(n) => rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("pool building is infallible")
                .install(|| jobs.into_par_iter().map(|job| self.run_job(job)).collect()),
            None => jobs.into_par_iter().map(|job| self.run_job(job)).collect(),
        }
    }

    /// Compiles every job sequentially on the calling thread. Used by the
    /// determinism tests as the reference the parallel path must match.
    pub fn compile_batch_sequential(
        &self,
        jobs: Vec<CompileJob>,
    ) -> Vec<Result<CompiledProgram, CompileError>> {
        jobs.into_iter().map(|job| self.run_job(job)).collect()
    }

    fn run_job(&self, job: CompileJob) -> Result<CompiledProgram, CompileError> {
        let _trace = job.trace.as_ref().map(TraceHandle::install);
        compile_isolated(&self.compiler, &job.program, job.strategy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsc_workloads::Benchmark;

    #[test]
    fn empty_batch_is_fine() {
        let batch = BatchCompiler::new(Device::grid(2, 2, 1), CompilerConfig::default());
        assert!(batch.compile_batch(Vec::new()).is_empty());
    }

    #[test]
    fn oversized_program_fails_only_its_slot() {
        let batch = BatchCompiler::new(Device::grid(2, 2, 1), CompilerConfig::default());
        let jobs = vec![
            CompileJob::new(Benchmark::Bv(4).build(3), Strategy::ColorDynamic),
            // 9 qubits on a 4-qubit device: ProgramTooWide.
            CompileJob::new(Benchmark::Bv(9).build(3), Strategy::ColorDynamic),
            CompileJob::new(Benchmark::Ising(4).build(3), Strategy::BaselineU),
        ];
        let results = batch.compile_batch(jobs);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(CompileError::ProgramTooWide { program: 9, device: 4 })
        ));
        assert!(results[2].is_ok());
    }
}
