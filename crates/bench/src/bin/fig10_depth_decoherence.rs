//! Fig. 10 reproduction: circuit depth (left) and decoherence error
//! (right) of Baseline G, Baseline U and ColorDynamic across the XEB
//! grid.
//!
//! ```bash
//! cargo run -p fastsc-bench --release --bin fig10_depth_decoherence
//! ```

use fastsc_bench::{row, run_cell};
use fastsc_core::{CompilerConfig, Strategy};
use fastsc_workloads::Benchmark;

fn main() {
    let config = CompilerConfig::default();
    let strategies = [Strategy::BaselineG, Strategy::BaselineU, Strategy::ColorDynamic];
    let widths = [12usize, 9, 9, 9, 12, 12, 12];

    println!("Fig. 10 — depth (cycles) and decoherence error, XEB suite");
    println!();
    println!(
        "{}",
        row(
            &["benchmark", "depth G", "depth U", "depth CD", "decoh G", "decoh U", "decoh CD"],
            &widths
        )
    );
    let mut decoh_ratio_u = Vec::new();
    let mut decoh_ratio_g = Vec::new();
    for p in [5usize, 10, 15] {
        for n in [4usize, 9, 16, 25] {
            let b = Benchmark::Xeb(n, p);
            let cells: Vec<_> = strategies
                .iter()
                .map(|&s| run_cell(b, s, &config, 0.0).expect("compiles"))
                .collect();
            println!(
                "{}",
                row(
                    &[
                        b.label(),
                        cells[0].report.depth.to_string(),
                        cells[1].report.depth.to_string(),
                        cells[2].report.depth.to_string(),
                        format!("{:.4}", cells[0].report.decoherence_error()),
                        format!("{:.4}", cells[1].report.decoherence_error()),
                        format!("{:.4}", cells[2].report.decoherence_error()),
                    ],
                    &widths
                )
            );
            decoh_ratio_u.push(
                cells[2].report.decoherence_error()
                    / cells[1].report.decoherence_error().max(1e-9),
            );
            decoh_ratio_g.push(
                cells[2].report.decoherence_error()
                    / cells[0].report.decoherence_error().max(1e-9),
            );
        }
    }
    println!();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "ColorDynamic decoherence vs Baseline U: {:.2}x on average (paper: 0.90x)",
        mean(&decoh_ratio_u)
    );
    println!(
        "ColorDynamic decoherence vs Baseline G: {:.2}x on average (paper: 1.02x)",
        mean(&decoh_ratio_g)
    );
    println!();
    println!("Baseline U pays the most serialization (deepest circuits, highest");
    println!("decoherence); ColorDynamic avoids crosstalk without significant");
    println!("serialization, staying near the tiling gmon schedule.");
}
