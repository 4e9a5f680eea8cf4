//! Error-budget diagnostics: *why* does a schedule underperform?
//!
//! Compiles the same XEB workload under crosstalk-unaware Baseline N and
//! under ColorDynamic, then attributes every error to its channel: the
//! naive schedule's budget is dominated by saturated resonances
//! (detuning ~ 0) between simultaneous gates; ColorDynamic's residual
//! channels sit hundreds of MHz off resonance, and its largest is
//! asserted to be at least 100x below Baseline N's.
//!
//! ```bash
//! cargo run --release --example error_budget
//! ```

use fastsc::compiler::{Compiler, CompilerConfig, Strategy};
use fastsc::device::Device;
use fastsc::noise::{error_budget, estimate, NoiseConfig};
use fastsc::workloads::Benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = Device::grid(4, 4, 2020);
    let compiler = Compiler::new(device, CompilerConfig::default());
    let program = Benchmark::Xeb(16, 5).build(7);

    let mut largest = Vec::new();
    for strategy in [Strategy::BaselineN, Strategy::ColorDynamic] {
        let compiled = compiler.compile(&program, strategy)?;
        let report = estimate(compiler.device(), &compiled.schedule, &NoiseConfig::default());
        let budget = error_budget(compiler.device(), &compiled.schedule);

        println!("== {} ==", strategy.label());
        println!(
            "P_success = {:.4}  (crosstalk {:.4}, decoherence {:.4}, gates {:.4})",
            report.p_success,
            report.crosstalk_error(),
            report.decoherence_error(),
            budget.gate_error
        );
        println!("top crosstalk channels:");
        for c in budget.top_crosstalk(5) {
            println!(
                "  qubits {:?}  cycle {:<3}  {:?}  detuning {:>7.4} GHz  error {:.3e}",
                c.pair, c.cycle, c.kind, c.detuning, c.error
            );
        }
        if let Some((q, e)) = budget.worst_qubit() {
            println!("worst decoherence: qubit {q} at {e:.5}");
        }
        println!();
        let top = budget.top_crosstalk(1).first().copied().ok_or("no crosstalk channel")?;
        largest.push((strategy, top));
    }
    for (strategy, c) in &largest {
        println!(
            "{}'s largest channel: {:?} at detuning {:.4} GHz, error {:.3e}",
            strategy.label(),
            c.kind,
            c.detuning,
            c.error
        );
    }
    let ratio = largest[0].1.error / largest[1].1.error;
    println!("ColorDynamic's largest channel is {ratio:.0}x below Baseline N's.");
    assert!(ratio >= 100.0, "ColorDynamic's largest channel is only {ratio:.1}x below");
    Ok(())
}
