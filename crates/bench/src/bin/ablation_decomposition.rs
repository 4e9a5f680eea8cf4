//! Ablation (§V-B5): hybrid gate decomposition vs committing to a single
//! native gate, under ColorDynamic.
//!
//! The paper argues `CNOT` is cheaper via `CZ` and `SWAP` via
//! `sqrt(iSWAP)`; this sweep compiles SWAP-heavy and CNOT-heavy workloads
//! under all four lowering strategies.
//!
//! ```bash
//! cargo run -p fastsc-bench --release --bin ablation_decomposition
//! ```

use fastsc_bench::{device_for, fmt_p, row, SEED};
use fastsc_core::{Compiler, CompilerConfig, Strategy};
use fastsc_ir::decompose::Strategy as Lowering;
use fastsc_noise::{estimate, NoiseConfig};
use fastsc_workloads::Benchmark;

fn main() {
    // bv(16) is SWAP-heavy after routing; ising(4)/qaoa(9) are CNOT-heavy;
    // xeb uses native iSWAPs and isolates the 1q/frequency path.
    let benchmarks =
        [Benchmark::Bv(16), Benchmark::Qaoa(9), Benchmark::Ising(4), Benchmark::Xeb(16, 10)];
    let lowerings = [
        ("cz-only", Lowering::CzOnly),
        ("iswap-only", Lowering::ISwapOnly),
        ("sqiswap-only", Lowering::SqrtISwapOnly),
        ("hybrid", Lowering::Hybrid),
    ];
    let noise = NoiseConfig::default();
    let widths = [12usize, 14, 10, 8, 10, 10];

    println!("Decomposition ablation under ColorDynamic (paper §V-B5)");
    println!();
    println!(
        "{}",
        row(&["benchmark", "lowering", "P_success", "depth", "duration", "2q gates"], &widths)
    );
    for b in benchmarks {
        let mut best: Option<(&str, f64)> = None;
        for (name, lowering) in lowerings {
            let device = device_for(b.n_qubits(), SEED);
            let config =
                CompilerConfig { decomposition: lowering, ..CompilerConfig::default() };
            let compiler = Compiler::new(device, config);
            let compiled =
                compiler.compile(&b.build(SEED), Strategy::ColorDynamic).expect("compiles");
            let report = estimate(compiler.device(), &compiled.schedule, &noise);
            if best.is_none() || report.p_success > best.expect("set").1 {
                best = Some((name, report.p_success));
            }
            println!(
                "{}",
                row(
                    &[
                        b.label(),
                        name.into(),
                        fmt_p(report.p_success),
                        report.depth.to_string(),
                        format!("{:.0}ns", report.duration_ns),
                        compiled.schedule.two_qubit_count().to_string(),
                    ],
                    &widths
                )
            );
        }
        let (name, p) = best.expect("non-empty");
        println!("  -> best for {}: {name} ({})", b.label(), fmt_p(p));
    }
    println!();
    println!("Hybrid matches the best single-gate strategy per workload without");
    println!("committing: CZ for CNOT-heavy programs, sqrt(iSWAP) for SWAP-heavy");
    println!("routing, never paying the iswap-only CNOT tax (2 iSWAPs + locals).");
}
