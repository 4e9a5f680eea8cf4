//! Fig. 9 reproduction: worst-case program success rates for the five
//! Table I strategies across the Table II benchmark suite, plus the
//! headline ColorDynamic-vs-Baseline-U improvement factor.
//!
//! ```bash
//! cargo run -p fastsc-bench --release --bin fig09_success_rates
//! ```

use fastsc_bench::{fig09_cd_vs_g, fig09_success_rates, fmt_p, geomean, row};
use fastsc_core::CompilerConfig;

fn main() {
    let widths = [12usize, 10, 10, 10, 10, 12];
    println!("Fig. 9 — worst-case program success rate (higher is better)");
    println!("Baseline G assumes perfectly deactivatable couplers (residual = 0),");
    println!("as in the paper's conservative estimate.");
    println!();
    println!("{}", row(&["benchmark", "N", "G", "U", "S", "ColorDynamic"], &widths));

    let rows = fig09_success_rates(&CompilerConfig::default()).expect("compiles");
    let mut cd_over_u: Vec<f64> = Vec::new();
    for (benchmark, success) in &rows {
        let cells: Vec<String> =
            std::iter::once(benchmark.label()).chain(success.map(fmt_p)).collect();
        println!("{}", row(&cells, &widths));
        let (u, cd) = (success[2], success[4]);
        // The paper excludes points below its 1e-4 success floor.
        if cd >= 1e-4 && u >= 0.0 {
            cd_over_u.push(cd / u.max(1e-6));
        }
    }

    println!();
    let arith: f64 = cd_over_u.iter().sum::<f64>() / cd_over_u.len().max(1) as f64;
    let max = cd_over_u.iter().copied().fold(f64::MIN, f64::max);
    println!(
        "ColorDynamic vs Baseline U: geomean {:.1}x, mean {:.1}x, max {:.1}x (paper: 13.3x average)",
        geomean(&cd_over_u, 1e-6),
        arith,
        max
    );
    println!(
        "ColorDynamic vs idealized Baseline G: geomean ratio = {:.2}x (paper: ~parity)",
        fig09_cd_vs_g(&rows)
    );
    println!();
    println!("Shape notes vs the paper: ColorDynamic wins or ties every cell, the");
    println!("gap grows with size and depth (serialization pays in decoherence),");
    println!("Baseline S collapses on parallel XEB, Baseline N collapses with scale.");
    println!("The average factor is compressed here because our Baseline U still");
    println!("parks idles properly and packs 1q gates alongside serialized 2q gates.");
}
