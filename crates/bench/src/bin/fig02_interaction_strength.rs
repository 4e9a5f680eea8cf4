//! Fig. 2 reproduction: interaction strength between two coupled
//! transmons as one qubit's frequency sweeps across the other's.
//!
//! ```bash
//! cargo run -p fastsc-bench --release --bin fig02_interaction_strength
//! ```

use fastsc_noise::coupling::residual_coupling;

fn main() {
    // The paper sweeps omega_A in [5.38, 5.50] GHz with omega_B = 5.44.
    let omega_b = 5.44;
    let g0 = 0.005; // effective coupling, GHz (the `DeviceParams::g0` default)
    println!("Fig. 2 — interaction strength g'(|omega_A - omega_B|) = g0^2/delta");
    println!("omega_B = {omega_b} GHz, g0 = {g0} GHz");
    println!();
    println!("{:>12} {:>14}", "omega_A", "g' (GHz)");
    let mut peak = (0.0f64, 0.0f64);
    for i in 0..=60 {
        let omega_a = 5.38 + 0.002 * i as f64;
        let g = residual_coupling(g0, (omega_a - omega_b).abs());
        if g > peak.1 {
            peak = (omega_a, g);
        }
        println!("{omega_a:>12.3} {g:>14.6}");
    }
    println!();
    println!(
        "peak {:.6} GHz at omega_A = {:.3} (on resonance with omega_B); \
         residual coupling decays as 1/delta on both sides",
        peak.1, peak.0
    );
}
