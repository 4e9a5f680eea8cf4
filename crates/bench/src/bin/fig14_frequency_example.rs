//! Fig. 14 / Appendix A reproduction: a concrete idle + interaction
//! frequency assignment for a 4x4 mesh produced by ColorDynamic on an
//! XEB(16) slice.
//!
//! ```bash
//! cargo run -p fastsc-bench --release --bin fig14_frequency_example
//! ```

use fastsc_bench::SEED;
use fastsc_core::{frequency, Compiler, CompilerConfig, Strategy};
use fastsc_device::Device;
use fastsc_workloads::Benchmark;

fn print_grid(label: &str, values: &[f64], side: usize) {
    println!("{label}:");
    for r in 0..side {
        let row: Vec<String> =
            (0..side).map(|c| format!("{:6.3}", values[r * side + c])).collect();
        println!("  {}", row.join(" "));
    }
}

fn main() {
    let side = 4;
    let device = Device::grid(side, side, SEED);
    let config = CompilerConfig::default();

    println!("Fig. 14 — example frequencies (GHz) for a 4x4 mesh");
    println!();

    // Idle frequencies: checkerboard across the parking band.
    let parking =
        frequency::parking_assignment(&device, config.smt_tolerance).expect("bipartite mesh");
    print_grid("idle (parking) frequencies — checkerboard of low/high values", &parking, side);
    println!();

    // Interaction frequencies of the busiest XEB cycle.
    let compiler = Compiler::new(device, config);
    let program = Benchmark::Xeb(16, 4).build(SEED);
    let compiled = compiler.compile(&program, Strategy::ColorDynamic).expect("compiles");
    let busiest = compiled
        .schedule
        .cycles()
        .iter()
        .max_by_key(|c| c.gates.iter().filter(|g| g.instruction.gate.is_two_qubit()).count())
        .expect("non-empty schedule");
    print_grid(
        "frequency map during the busiest two-qubit cycle (idle qubits parked)",
        &busiest.frequencies.to_vec(),
        side,
    );
    println!();
    println!("simultaneous two-qubit gates and their interaction frequencies:");
    for g in &busiest.gates {
        if let Some(f) = g.interaction_freq {
            println!("  {} @ {f:.3} GHz", g.instruction);
        }
    }
    println!();
    println!("As in the paper's App. A: idle frequencies alternate between the low");
    println!("sweet spot values; interaction frequencies sit near the ~7 GHz high");
    println!("sweet spot, mutually separated by the SMT threshold.");
}
