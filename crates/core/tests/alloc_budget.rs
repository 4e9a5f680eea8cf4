//! Allocation budget of a warm compile.
//!
//! A counting global allocator counts the allocations the calling thread
//! makes (`alloc`, `alloc_zeroed` and `realloc` calls; other threads are
//! not counted) and the bytes they request. After one warm-up pass over
//! the Fig. 9 jobs, a compile may allocate at most:
//!
//! - one gate list per cycle of the returned schedule,
//! - one active coupling list per Baseline G cycle that has one,
//! - [`BLOCKS`] frequency blocks for the whole schedule: one holding the
//!   dense cycles' rows and one holding the other cycles' retuned pairs
//!   (every cycle's frequencies are a window onto them or onto the
//!   context's shared parking vector),
//! - one cycle list, made at the schedule's exact depth,
//! - and [`OWN`] more.
//!
//! `OWN` is zero: once their per-thread workspaces are warm, neither the
//! front end (routing, lowering, peephole) nor the scheduling engine
//! allocates anything but the schedule the compile returns, so a
//! per-compile or per-cycle working buffer added to either fails this
//! test, and so does a frequency row or pair list allocated per cycle.
//!
//! A warm partitioned compile (`CompilerConfig::with_partition`, the
//! 256-qubit scale tier, every strategy, regions run on the calling
//! thread) has the same budget plus [`PER_REGION_RUN`] allocations per
//! region engine run: what each run hands the merge. Classification,
//! segmentation, the region and cut circuits, the merge keys, the stitch
//! buffers and the merged cycles' frequency blocks all live in a
//! per-thread scratch, so a per-compile or per-cycle buffer added to the
//! partitioned path fails that test too.
//!
//! A third test bounds the bytes of a warm whole-device Baseline U
//! compile of the 1024-qubit scale-tier XEB program under [`U1024_BYTES`]:
//! its ~2,000 cycles each retune at most a few qubits, so their pairs over
//! the shared parking vector keep the schedule far smaller than one dense
//! 8 KiB row per cycle.

use fastsc_core::router::route;
use fastsc_core::{Compiler, CompilerConfig, Strategy};
use fastsc_device::{CouplerKind, Device};
use fastsc_ir::decompose::decompose;
use fastsc_ir::optimize::peephole;
use fastsc_noise::Schedule;
use fastsc_workloads::Benchmark;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations a warm compile may make beyond the returned schedule.
const OWN: usize = 0;

/// The frequency blocks one schedule shares: dense rows and retuned pairs.
const BLOCKS: usize = 2;

thread_local! {
    static COUNT: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one(bytes: usize) {
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialized thread-local cell,
// which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
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

/// Runs `f` and returns its result with the bytes the calling thread's
/// allocations inside it requested (a `realloc` counts its new size).
fn counted_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// Allocations a schedule may make: one gate list per cycle, one
/// active-coupling list per Baseline G cycle that has one, the frequency
/// blocks and the cycle list.
fn schedule_allocations(schedule: &Schedule) -> usize {
    let cycles = schedule.cycles();
    let coupler_cycles = cycles.iter().filter(|c| !c.active_couplings.is_empty()).count();
    cycles.len() + coupler_cycles + BLOCKS + 1
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
        let budget = schedule_allocations(&compiled.schedule) + OWN;
        if allocs > budget {
            failures.push(format!(
                "{bench} {strategy}: {allocs} allocations > budget {budget} (depth {})",
                compiled.schedule.depth()
            ));
        }
    }
    assert!(failures.is_empty(), "over budget:\n{}", failures.join("\n"));
}

/// Allocations one wave-gated region engine run hands back to the
/// partitioned merge, each made once at its final size: its trace
/// (admitted instructions, per-cycle offsets, per-wave cycle starts),
/// its criticalities and its per-instruction frequencies.
const PER_REGION_RUN: usize = 5;

#[test]
fn warm_partitioned_compiles_allocate_only_the_schedule_and_region_outputs() {
    let tier = fastsc_workloads::scale_tiers()
        .into_iter()
        .find(|t| t.n_qubits() == 256)
        .expect("the ladder has a 256-qubit tier");
    let device = Device::grid(tier.side, tier.side, tier.seed);
    // Every region may run, plus one run for the cut gates.
    let region_runs =
        fastsc_graph::regions::grow_regions(device.connectivity(), tier.partition_cap).len()
            + 1;
    assert!(region_runs > 2, "the tier splits");
    let compiler = Compiler::new(device, CompilerConfig::with_partition(tier.partition_cap));
    let program = tier.circuit();
    // One worker: the regions run on this thread, where they are counted.
    let one_worker =
        rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("infallible");
    one_worker.install(|| {
        for strategy in Strategy::all() {
            compiler.compile(&program, strategy).expect("compiles");
        }
        let mut failures = Vec::new();
        for strategy in Strategy::all() {
            let (compiled, allocs) =
                counted(|| compiler.compile(&program, strategy).expect("compiles"));
            let budget =
                schedule_allocations(&compiled.schedule) + PER_REGION_RUN * region_runs + OWN;
            if allocs > budget {
                failures.push(format!(
                    "{strategy}: {allocs} allocations > budget {budget} (depth {}, {} runs)",
                    compiled.schedule.depth(),
                    region_runs
                ));
            }
        }
        assert!(failures.is_empty(), "over budget:\n{}", failures.join("\n"));
    });
}

/// Bytes a warm whole-device Baseline U compile of the 1024-qubit
/// scale-tier XEB program (1,985 cycles) may allocate. Measured at
/// 657,056 bytes (811,656 when each cycle allocated its own pair list and
/// the cycle list grew by doubling); the bound leaves about 80% headroom.
const U1024_BYTES: usize = 1_200_000;

/// The same compile when every cycle stored a dense 8 KiB frequency
/// vector: 16,943,816 bytes measured. Pairs over the parking vector must
/// keep the compile under a quarter of it.
const U1024_DENSE_BYTES: usize = 16_943_816;
const _: () = assert!(4 * U1024_BYTES < U1024_DENSE_BYTES);

#[test]
fn a_warm_1024q_baseline_u_compile_stays_under_its_byte_budget() {
    let tier = fastsc_workloads::scale_tiers()
        .into_iter()
        .find(|t| t.n_qubits() == 1024)
        .expect("the ladder has a 1024-qubit tier");
    let compiler =
        Compiler::new(Device::grid(tier.side, tier.side, tier.seed), CompilerConfig::default());
    let program = tier.circuit();
    compiler.compile(&program, Strategy::BaselineU).expect("compiles");
    let (compiled, bytes) =
        counted_bytes(|| compiler.compile(&program, Strategy::BaselineU).expect("compiles"));
    assert!(
        bytes < U1024_BYTES,
        "{bytes} bytes >= budget {U1024_BYTES} (depth {})",
        compiled.schedule.depth()
    );
}
