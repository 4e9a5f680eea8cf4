//! §VI-C validation: the worst-case success heuristic (Eq. 4) against
//! full Monte-Carlo noisy simulation on small circuits, per strategy.
//!
//! ```bash
//! cargo run -p fastsc-bench --release --bin validation_heuristic
//! ```

use fastsc_bench::{fmt_p, row, validation_heuristic};

fn main() {
    let widths = [12, 14, 11, 11, 9];
    let validation = validation_heuristic();
    let trajectories = validation.trajectories;
    println!("Heuristic (Eq. 4, worst case) vs {trajectories}-trajectory simulation");
    println!();
    println!(
        "{}",
        row(&["benchmark", "strategy", "heuristic", "simulated", "stderr"], &widths)
    );
    for r in &validation.rows {
        let cells = [
            r.benchmark.label(),
            r.strategy.label().into(),
            fmt_p(r.heuristic),
            fmt_p(r.simulated),
            format!("{:.4}", r.std_error),
        ];
        println!("{}", row(&cells, &widths));
    }
    println!();
    println!("log-success correlation (heuristic vs simulation): r = {:.3}", validation.log_r);
    println!(
        "largest |log10(heuristic / simulated)| = {:.2} decades",
        validation.max_log10_gap
    );
    println!(
        "ColorDynamic ranked first by heuristic in {}/{} benchmarks, by simulation in {}/{}",
        validation.cd_first_heuristic,
        validation.benchmarks(),
        validation.cd_first_sim,
        validation.benchmarks()
    );
    println!();
    println!("The heuristic tracks the simulation within a fraction of a decade and");
    println!("preserves the strategy ordering — the property §VI-C relies on to rank");
    println!("compilation strategies without full noisy simulation. (The paper's");
    println!("product-form decoherence is milder than the simulator's physical");
    println!("amplitude-damping + dephasing channels, so absolute values differ on");
    println!("long programs; see the README, \"Paper figures\".)");
}
