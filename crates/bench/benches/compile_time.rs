//! Criterion benchmarks for the compilation pipeline (paper §VII-C and
//! Fig. 13 top): end-to-end ColorDynamic compiles, plus the two leading
//! cost centers called out in the paper — crosstalk-graph coloring and
//! SMT frequency assignment.

use criterion::{criterion_group, BenchmarkId, Criterion};
use fastsc_bench::record::{self, BenchRecord};
use fastsc_core::{frequency, router, CompileContext, Compiler, CompilerConfig, Strategy};
use fastsc_device::{Band, Device};
use fastsc_graph::coloring;
use fastsc_graph::crosstalk::CrosstalkGraph;
use fastsc_graph::topology;
use fastsc_ir::decompose::decompose;
use fastsc_ir::optimize::peephole;
use fastsc_workloads::Benchmark;

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("colordynamic_compile");
    group.sample_size(10);
    for side in [3usize, 4, 5, 7] {
        let n = side * side;
        let device = Device::grid(side, side, 7);
        let compiler = Compiler::new(device, CompilerConfig::default());
        let program = Benchmark::Xeb(n, 5).build(7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                compiler
                    .compile(&program, Strategy::ColorDynamic)
                    .expect("compiles")
                    .schedule
                    .depth()
            })
        });
    }
    group.finish();
}

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("strategy_compile_16q");
    group.sample_size(10);
    let device = Device::grid(4, 4, 7);
    let compiler = Compiler::new(device, CompilerConfig::default());
    let program = Benchmark::Xeb(16, 5).build(7);
    for strategy in Strategy::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy.label().replace(' ', "_")),
            &strategy,
            |b, &s| {
                b.iter(|| compiler.compile(&program, s).expect("compiles").schedule.depth())
            },
        );
    }
    group.finish();
}

fn bench_crosstalk_coloring(c: &mut Criterion) {
    let mut group = c.benchmark_group("crosstalk_graph_coloring");
    for side in [4usize, 6, 9] {
        let mesh = topology::grid(side, side);
        group.bench_with_input(BenchmarkId::from_parameter(side * side), &mesh, |b, mesh| {
            b.iter(|| {
                let x = CrosstalkGraph::build(mesh, 1);
                coloring::color_count(&coloring::welsh_powell(x.graph()))
            })
        });
    }
    group.finish();
}

fn bench_smt_find(c: &mut Criterion) {
    let mut group = c.benchmark_group("smt_find");
    for k in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                frequency::smt_find(k, Band::new(6.0, 7.0), -0.2, 1e-3)
                    .expect("band fits")
                    .len()
            })
        });
    }
    group.finish();
}

/// Records the acceptance-criteria measurement — median single-compile
/// wall time on the 16-qubit XEB workload, one record per strategy — into
/// `BENCH_compile.json` so the perf trajectory is machine-readable across
/// PRs. The compiler is constructed once and each strategy compiles once
/// untimed before sampling, so every sample (even the single `--test`
/// one) measures the warm shared-device steady state a compilation
/// service actually runs in, never the first compile's static solve.
fn emit_bench_json() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let samples = if test_mode { 1 } else { 15 };
    let device = Device::grid(4, 4, 7);
    let compiler = Compiler::new(device, CompilerConfig::default());
    let program = Benchmark::Xeb(16, 5).build(7);

    let records: Vec<BenchRecord> = Strategy::all()
        .into_iter()
        .map(|strategy| {
            compiler.compile(&program, strategy).expect("compiles");
            let ns = record::median_ns(samples, || {
                criterion::black_box(
                    compiler.compile(&program, strategy).expect("compiles").schedule.depth(),
                );
            });
            BenchRecord::new("xeb16", &strategy.label().replace(' ', "_"), ns)
        })
        .collect();
    let path = record::record(&records);
    println!("recorded xeb16 medians to {}", path.display());
}

/// Records the cold frequency solve, the cost a new device config pays
/// once before any compile is warm: `smt_find` at k = 10 (band 6–7 GHz,
/// alpha = -0.2, the default tolerance) and the Baseline S/G statics of a
/// 4x4 grid at crosstalk distance 2 (14 colors), each sample on a fresh
/// context so nothing is memoized. `bench_guard` holds the statics row
/// under a fixed ceiling.
fn emit_cold_solve_json() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let samples = if test_mode { 5 } else { 21 };
    let tol = CompilerConfig::default().smt_tolerance;
    let smt = record::median_ns(samples, || {
        criterion::black_box(
            frequency::smt_find(10, Band::new(6.0, 7.0), -0.2, tol).expect("band fits"),
        );
    });
    let config = CompilerConfig { crosstalk_distance: 2, ..CompilerConfig::default() };
    let mut statics = Vec::with_capacity(samples);
    for _ in 0..samples {
        let ctx = CompileContext::new(Device::grid(4, 4, 7), config).expect("context");
        let start = std::time::Instant::now();
        criterion::black_box(ctx.statics().expect("statics fit"));
        statics.push(start.elapsed().as_nanos());
    }
    statics.sort_unstable();
    let path = record::record(&[
        BenchRecord::new("smt_find_cold", "k10", smt),
        BenchRecord::new("statics_cold", "grid4x4_d2", statics[samples / 2]),
    ]);
    println!("recorded cold frequency-solve medians to {}", path.display());
}

/// Records the scalability ladder (64 / 256 / 1024-qubit grids, XEB
/// programs from `fastsc_workloads::scalability`): cold whole-device vs
/// cold partitioned compile, three records per tier. Samples are
/// interleaved whole/partitioned pairs with a fresh `Compiler` per
/// sample — a cold compile includes the device-sized derived state
/// (crosstalk graph, partition plan) a fleet pays on every new device
/// config, which is exactly the cost the partitioned path cuts. Besides
/// the two medians, each tier records the **median of per-pair
/// partitioned/whole ratios** (in permille): pair members run
/// back-to-back, so machine drift cancels inside each ratio, and the
/// `bench_guard` scale gate bounds that statistic instead of comparing
/// two independently drifting medians.
fn emit_scalability_json() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let records: Vec<BenchRecord> = fastsc_workloads::scale_tiers()
        .into_iter()
        .flat_map(|tier| {
            // The 256-qubit tier feeds the bench_guard scale gate, so it
            // keeps its full sample count even under `--test` (cold
            // compiles are milliseconds; robustness is worth more than
            // the runtime saved).
            let pairs = match (tier.n_qubits(), test_mode) {
                (256, _) => 21,
                (_, true) => 3,
                (1024, false) => 5,
                (_, false) => 9,
            };
            let program = tier.circuit();
            let mut whole = Vec::with_capacity(pairs);
            let mut part = Vec::with_capacity(pairs);
            let mut ratios = Vec::with_capacity(pairs);
            for _ in 0..pairs {
                let device = Device::grid(tier.side, tier.side, tier.seed);
                let compiler = Compiler::new(device, CompilerConfig::default());
                let start = std::time::Instant::now();
                criterion::black_box(
                    compiler.compile(&program, Strategy::ColorDynamic).expect("compiles"),
                );
                let w = start.elapsed().as_nanos();

                let device = Device::grid(tier.side, tier.side, tier.seed);
                let compiler =
                    Compiler::new(device, CompilerConfig::with_partition(tier.partition_cap));
                let start = std::time::Instant::now();
                criterion::black_box(
                    compiler.compile(&program, Strategy::ColorDynamic).expect("compiles"),
                );
                let p = start.elapsed().as_nanos();
                whole.push(w);
                part.push(p);
                ratios.push(p * 1000 / w.max(1));
            }
            whole.sort_unstable();
            part.sort_unstable();
            ratios.sort_unstable();
            let label = tier.label();
            [
                BenchRecord::new(&label, "whole", whole[pairs / 2]),
                BenchRecord::new(&label, "partitioned", part[pairs / 2]),
                BenchRecord::new(&label, "paired_ratio_permille", ratios[pairs / 2]),
            ]
        })
        .collect();
    let path = record::record(&records);
    println!("recorded scalability medians to {}", path.display());
}

/// Records the compile front end — `route`, `decompose` (the default
/// hybrid lowering) and `peephole`, exactly as `Compiler::compile` runs
/// them — on the 1024-qubit scale-tier XEB program and on xeb16, into
/// the `front_end` rows. `bench_guard` holds the 1024-qubit row under a
/// fixed ceiling.
fn emit_front_end_json() {
    let test_mode = std::env::args().any(|a| a == "--test");
    // Cheap enough (under a millisecond a sample) to keep a robust
    // median even under `--test`, where `bench_guard` reads it.
    let samples = if test_mode { 21 } else { 51 };
    let lowering = CompilerConfig::default().decomposition;
    let tier = fastsc_workloads::scale_tiers()
        .into_iter()
        .find(|t| t.n_qubits() == 1024)
        .expect("the ladder has a 1024-qubit tier");
    let cases = [
        ("scale1024", Device::grid(tier.side, tier.side, tier.seed), tier.circuit()),
        ("xeb16", Device::grid(4, 4, 7), Benchmark::Xeb(16, 5).build(7)),
    ];
    let records: Vec<BenchRecord> = cases
        .iter()
        .map(|(label, device, program)| {
            let ns = record::median_ns(samples, || {
                let routed = router::route(program, device).expect("routable");
                criterion::black_box(peephole(&decompose(&routed.circuit, lowering)));
            });
            BenchRecord::new("front_end", label, ns)
        })
        .collect();
    let path = record::record(&records);
    println!("recorded front-end medians to {}", path.display());
}

criterion_group!(
    benches,
    bench_end_to_end,
    bench_strategies,
    bench_crosstalk_coloring,
    bench_smt_find
);

fn main() {
    benches();
    emit_bench_json();
    emit_cold_solve_json();
    emit_scalability_json();
    emit_front_end_json();
}
