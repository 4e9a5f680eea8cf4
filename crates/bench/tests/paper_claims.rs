//! The paper's Fig. 9 claims, checked on the data `fig09_success_rates`
//! prints, so no change can reorder the strategies silently.

use fastsc_bench::{fig09_cd_vs_g, fig09_success_rates};
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
