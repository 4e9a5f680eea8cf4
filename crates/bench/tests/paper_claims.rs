//! The paper's Fig. 9 and §VI-C claims, checked on the data
//! `fig09_success_rates` and `validation_heuristic` print, so no change
//! can reorder the strategies silently.

use fastsc_bench::{fig09_cd_vs_g, fig09_success_rates, validation_heuristic};
use fastsc_core::{CompilerConfig, Strategy};

#[test]
fn fig09_colordynamic_wins_every_cell_and_tracks_ideal_gmon() {
    let rows = fig09_success_rates(&CompilerConfig::default()).expect("every cell compiles");
    assert_eq!(rows.len(), 22, "the Fig. 9 suite");
    let names = Strategy::all();
    for (benchmark, success) in &rows {
        // N, U and S; Baseline G assumes ideal couplers and may win.
        for i in [0, 2, 3] {
            assert!(
                success[4] >= success[i],
                "{benchmark}: ColorDynamic {} < {:?} {}",
                success[4],
                names[i],
                success[i]
            );
        }
    }
    let vs_g = fig09_cd_vs_g(&rows);
    assert!((0.90..=1.10).contains(&vs_g), "ColorDynamic/G geomean {vs_g:.3} is not ~parity");
}

/// §VI-C: the Eq. 4 heuristic tracks noisy simulation and ranks the
/// strategies as simulation does. Simulating 4200 trajectories takes
/// seconds in release and far longer in debug, so this runs on demand:
/// `cargo test --release -p fastsc-bench --test paper_claims -- --ignored`.
#[test]
#[ignore = "simulation-heavy; run in release with --ignored"]
fn vi_c_heuristic_tracks_simulation_and_ranks_colordynamic_first() {
    let v = validation_heuristic();
    assert_eq!(v.benchmarks(), 7);
    assert!(v.log_r >= 0.95, "log-success correlation r = {:.3} < 0.95", v.log_r);
    assert!(v.max_log10_gap <= 0.5, "worst gap {:.2} decades > 0.5", v.max_log10_gap);
    assert_eq!(v.cd_first_heuristic, 7, "ColorDynamic first by heuristic");
    assert!(v.cd_first_sim >= 6, "ColorDynamic first by simulation in {}/7", v.cd_first_sim);
}
