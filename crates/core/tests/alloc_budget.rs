//! Allocation budget of a warm compile.
//!
//! A counting global allocator counts the allocations the calling thread
//! makes (`alloc`, `alloc_zeroed` and `realloc` calls; other threads are
//! not counted). After one warm-up pass over the Fig. 9 jobs, a compile
//! may allocate at most:
//!
//! - two buffers per cycle of the returned schedule (its gate list and
//!   frequency vector),
//! - one more per Baseline G cycle with active couplings,
//! - `ceil(log2(depth)) + 1` for the schedule's cycle list, which starts
//!   empty and at least doubles each time it grows,
//! - and [`OWN`] more.
//!
//! `OWN` is zero: once their per-thread workspaces are warm, neither the
//! front end (routing, lowering, peephole) nor the scheduling engine
//! allocates anything but the schedule the compile returns, so a
//! per-compile or per-cycle working buffer added to either fails this
//! test.

use fastsc_core::router::route;
use fastsc_core::{Compiler, CompilerConfig, Strategy};
use fastsc_device::{CouplerKind, Device};
use fastsc_ir::decompose::decompose;
use fastsc_ir::optimize::peephole;
use fastsc_workloads::Benchmark;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations a warm compile may make beyond the returned schedule.
const OWN: usize = 0;

/// A bound on the allocations of a list grown to `len` by at-least
/// doubling from capacity one or more: `ceil(log2(len)) + 1`.
fn doubling_allocations(len: usize) -> usize {
    len.next_power_of_two().trailing_zeros() as usize + 1
}

thread_local! {
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialized thread-local cell,
// which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the number of allocations the
/// calling thread made inside it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = COUNT.with(Cell::get);
    let out = f();
    (out, COUNT.with(Cell::get) - before)
}

#[test]
fn warm_compiles_allocate_only_the_schedule() {
    const SEED: u64 = 2020;
    let config = CompilerConfig::default();
    let jobs: Vec<(Benchmark, Strategy, Compiler)> = Benchmark::fig9_suite()
        .into_iter()
        .flat_map(|bench| Strategy::all().map(|strategy| (bench, strategy)))
        .map(|(bench, strategy)| {
            let side = ((bench.n_qubits() as f64).sqrt().ceil() as usize).max(2);
            let grid = Device::grid(side, side, SEED);
            let device = if strategy == Strategy::BaselineG {
                grid.with_coupler(CouplerKind::tunable(0.0))
            } else {
                grid
            };
            (bench, strategy, Compiler::new(device, config))
        })
        .collect();
    let programs: Vec<_> = jobs.iter().map(|(bench, ..)| bench.build(SEED)).collect();

    // Warm-up: contexts, statics, SMT memos and this thread's front-end
    // and engine workspaces.
    for ((_, strategy, compiler), program) in jobs.iter().zip(&programs) {
        compiler.compile(program, *strategy).expect("compiles");
    }

    let mut failures = Vec::new();
    for ((bench, strategy, compiler), program) in jobs.iter().zip(&programs) {
        let (compiled, allocs) =
            counted(|| compiler.compile(program, *strategy).expect("compiles"));
        let routed = route(program, compiler.device()).expect("routes");
        let lowered = peephole(&decompose(&routed.circuit, config.decomposition));
        assert_eq!(compiled.stats.lowered_gate_count, lowered.len());
        let cycles = compiled.schedule.cycles();
        let coupler_cycles = cycles.iter().filter(|c| !c.active_couplings.is_empty()).count();
        let budget =
            2 * cycles.len() + coupler_cycles + doubling_allocations(cycles.len()) + OWN;
        if allocs > budget {
            failures.push(format!(
                "{bench} {strategy}: {allocs} allocations > budget {budget} (depth {}, \
                 coupler cycles {coupler_cycles})",
                cycles.len()
            ));
        }
    }
    assert!(failures.is_empty(), "over budget:\n{}", failures.join("\n"));
}
