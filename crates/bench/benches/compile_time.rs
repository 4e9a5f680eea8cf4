//! Engine benchmarks (paper §VII-C and Fig. 13 top): warm compiles per
//! strategy and mesh size, the two leading cost centers called out in the
//! paper — crosstalk-graph coloring and the frequency solve — cold, the
//! scalability ladder, and the compile front end. Every row goes to
//! `BENCH_compile.json` through [`record::interleaved`].
//!
//! ```console
//! $ cargo bench -p fastsc-bench --bench compile_time [-- --test]
//! ```

use fastsc_bench::record::{self, BenchRecord};
use fastsc_core::{frequency, router, CompileContext, Compiler, CompilerConfig, Strategy};
use fastsc_device::{Band, Device};
use fastsc_graph::coloring;
use fastsc_graph::crosstalk::CrosstalkGraph;
use fastsc_graph::topology;
use fastsc_ir::decompose::decompose;
use fastsc_ir::optimize::peephole;
use fastsc_workloads::Benchmark;
use std::hint::black_box;

/// Warm single compiles on one shared compiler: every strategy on the
/// 16-qubit XEB acceptance workload (`xeb16`), and ColorDynamic across
/// mesh sizes (`colordynamic_compile`; n = 16 is the `xeb16` row). The
/// sampler's warm-up compile means even the smoke run measures the
/// steady state a compilation service runs in, never the first compile's
/// static solve.
fn warm_compiles() -> Vec<BenchRecord> {
    let samples = record::samples(5, 15);
    let compiler = Compiler::new(Device::grid(4, 4, 7), CompilerConfig::default());
    let program = Benchmark::Xeb(16, 5).build(7);
    let strategies = Strategy::all();
    let mut sides: Vec<_> = strategies
        .iter()
        .map(|&strategy| {
            let (compiler, program) = (&compiler, &program);
            move || {
                black_box(compiler.compile(program, strategy).expect("compiles"));
            }
        })
        .collect();
    let labels: Vec<String> = strategies.iter().map(|s| s.label().replace(' ', "_")).collect();
    let mut records = record::interleaved(samples, &mut sides).records("xeb16", &labels);

    let mesh_sides = [3usize, 5, 7];
    let cases: Vec<_> = mesh_sides
        .iter()
        .map(|&side| {
            let n = side * side;
            let compiler =
                Compiler::new(Device::grid(side, side, 7), CompilerConfig::default());
            (compiler, Benchmark::Xeb(n, 5).build(7))
        })
        .collect();
    let mut sides: Vec<_> = cases
        .iter()
        .map(|(compiler, program)| {
            move || {
                black_box(compiler.compile(program, Strategy::ColorDynamic).expect("compiles"));
            }
        })
        .collect();
    let labels: Vec<String> = mesh_sides.iter().map(|side| (side * side).to_string()).collect();
    records.extend(
        record::interleaved(samples, &mut sides).records("colordynamic_compile", &labels),
    );
    records
}

/// Crosstalk-graph build plus Welsh–Powell coloring at distance 1 on
/// 4x4, 6x6, 9x9, 32x32 and 64x64 meshes (`xtalk_coloring`, keyed by
/// qubit count). `bench_guard` holds the 4096-qubit row under a fixed
/// ceiling, so a build that turns superlinear in coupling count fails CI.
fn xtalk_coloring() -> Vec<BenchRecord> {
    let mesh_sides = [4usize, 6, 9, 32, 64];
    let meshes: Vec<_> = mesh_sides.iter().map(|&side| topology::grid(side, side)).collect();
    let mut sides: Vec<_> = meshes
        .iter()
        .map(|mesh| {
            move || {
                let x = CrosstalkGraph::build(mesh, 1);
                black_box(coloring::color_count(&coloring::welsh_powell(x.graph())));
            }
        })
        .collect();
    let labels: Vec<String> = mesh_sides.iter().map(|side| (side * side).to_string()).collect();
    record::interleaved(record::samples(5, 15), &mut sides).records("xtalk_coloring", &labels)
}

/// The cold frequency solve a new device config pays once: `smt_find` at
/// k = 2, 4, 8 and 10 (band 6–7 GHz, alpha = -0.2, the default
/// tolerance), and the Baseline S/G statics of a 4x4 grid at crosstalk
/// distance 2 (14 colors), each run on a fresh context built outside the
/// timing so nothing is memoized. `bench_guard` holds the statics row
/// under a fixed ceiling.
fn cold_solve() -> Vec<BenchRecord> {
    let samples = record::samples(5, 21);
    let tol = CompilerConfig::default().smt_tolerance;
    let ks = [2usize, 4, 8, 10];
    let mut sides: Vec<_> = ks
        .iter()
        .map(|&k| {
            move || {
                black_box(
                    frequency::smt_find(k, Band::new(6.0, 7.0), -0.2, tol).expect("fits"),
                );
            }
        })
        .collect();
    let labels: Vec<String> = ks.iter().map(|k| format!("k{k}")).collect();
    let mut records =
        record::interleaved(samples, &mut sides).records("smt_find_cold", &labels);

    let config = CompilerConfig { crosstalk_distance: 2, ..CompilerConfig::default() };
    let mut fresh: Vec<_> = (0..=samples)
        .map(|_| CompileContext::new(Device::grid(4, 4, 7), config).expect("context"))
        .collect();
    let mut spent = Vec::with_capacity(fresh.len());
    let statics = move || {
        let ctx = fresh.pop().expect("one context per run");
        black_box(ctx.statics().expect("statics fit"));
        spent.push(ctx);
    };
    records.extend(
        record::interleaved(samples, &mut [statics]).records("statics_cold", &["grid4x4_d2"]),
    );
    records
}

/// The scalability ladder (64 / 256 / 1024-qubit grids, XEB programs
/// from `fastsc_workloads::scalability`): cold whole-device vs cold
/// partitioned ColorDynamic compile, each run on a fresh `Compiler` built
/// outside the timing — a cold compile includes the device-sized derived
/// state (crosstalk graph, partition plan) a fleet pays on every new
/// device config. Each tier records both medians and the
/// partitioned/whole [`record::PAIRED_RATIO`] row; `bench_guard` holds
/// the 1024-qubit whole-device row under a fixed ceiling and the
/// 256-qubit partitioned row against its committed `post`.
fn scalability() -> Vec<BenchRecord> {
    fastsc_workloads::scale_tiers()
        .into_iter()
        .flat_map(|tier| {
            // The 256-qubit tier feeds a bench_guard gate against its
            // committed `post`, so it keeps its full sample count even in
            // the smoke run.
            let samples = match tier.n_qubits() {
                256 => 21,
                1024 => record::samples(3, 5),
                _ => record::samples(3, 9),
            };
            let program = tier.circuit();
            let cold = |config: CompilerConfig| {
                let mut fresh: Vec<_> = (0..=samples)
                    .map(|_| {
                        Compiler::new(Device::grid(tier.side, tier.side, tier.seed), config)
                    })
                    .collect();
                let mut spent = Vec::with_capacity(fresh.len());
                let program = &program;
                move || {
                    let compiler = fresh.pop().expect("one compiler per run");
                    black_box(
                        compiler.compile(program, Strategy::ColorDynamic).expect("compiles"),
                    );
                    spent.push(compiler);
                }
            };
            let sampled = record::interleaved(
                samples,
                &mut [
                    cold(CompilerConfig::default()),
                    cold(CompilerConfig::with_partition(tier.partition_cap)),
                ],
            );
            let label = tier.label();
            let mut records = sampled.records(&label, &["whole", "partitioned"]);
            records.push(sampled.ratio_record(&label, 1));
            records
        })
        .collect()
}

/// The compile front end — `route`, `decompose` (the default hybrid
/// lowering) and `peephole`, exactly as `Compiler::compile` runs them —
/// on the 1024-qubit scale-tier XEB program and on xeb16 (`front_end`
/// rows). Cheap enough to keep a robust median in the smoke run, where
/// `bench_guard` holds the 1024-qubit row under a fixed ceiling.
fn front_end() -> Vec<BenchRecord> {
    let lowering = CompilerConfig::default().decomposition;
    let tier = fastsc_workloads::scale_tiers()
        .into_iter()
        .find(|t| t.n_qubits() == 1024)
        .expect("the ladder has a 1024-qubit tier");
    let cases = [
        (Device::grid(tier.side, tier.side, tier.seed), tier.circuit()),
        (Device::grid(4, 4, 7), Benchmark::Xeb(16, 5).build(7)),
    ];
    let mut sides: Vec<_> = cases
        .iter()
        .map(|(device, program)| {
            move || {
                let routed = router::route(program, device).expect("routable");
                black_box(peephole(&decompose(&routed.circuit, lowering)));
            }
        })
        .collect();
    record::interleaved(record::samples(21, 51), &mut sides)
        .records("front_end", &["scale1024", "xeb16"])
}

fn main() {
    record::record(&warm_compiles());
    record::record(&xtalk_coloring());
    record::record(&cold_solve());
    record::record(&scalability());
    record::record(&front_end());
}
