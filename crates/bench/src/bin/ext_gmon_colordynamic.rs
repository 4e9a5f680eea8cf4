//! Extension (paper §VIII, stated future work): **ColorDynamic on
//! tunable-coupler hardware** — complementing the gmon architecture with
//! frequency-aware compilation.
//!
//! With imperfect couplers (residual factor r > 0), Baseline G's single
//! tile frequency leaks through deactivated couplers; running ColorDynamic
//! on the same gmon chip separates simultaneous gates spectrally *and*
//! benefits from coupler suppression, compounding the two mitigations.
//!
//! ```bash
//! cargo run -p fastsc-bench --release --bin ext_gmon_colordynamic
//! ```

use fastsc_bench::{device_for, fmt_p, row, SEED};
use fastsc_core::{Compiler, CompilerConfig, Strategy};
use fastsc_device::{CouplerKind, DeviceBuilder, DeviceParams};
use fastsc_noise::{estimate, NoiseConfig};
use fastsc_workloads::Benchmark;

fn main() {
    let benchmarks = [Benchmark::Xeb(16, 10), Benchmark::Xeb(16, 15)];
    let residuals = [0.0, 0.2, 0.4, 0.6, 0.8];
    // Through-coupler leakage live.
    let params = DeviceParams { distance2_coupling_factor: 0.1, ..Default::default() };
    let noise = NoiseConfig { include_distance2: true };
    let widths = [12usize, 8, 12, 16, 10];

    println!("Extension — ColorDynamic on gmon hardware (paper §VIII future work)");
    println!();
    println!("{}", row(&["benchmark", "r", "G (tiling)", "CD on gmon", "gain"], &widths));
    for b in benchmarks {
        for &r in &residuals {
            let base = device_for(b.n_qubits(), SEED);
            let mut builder = DeviceBuilder::new(base.connectivity().clone());
            builder.seed(SEED).params(params).coupler(CouplerKind::tunable(r));
            let device = builder.build();
            let compiler = Compiler::new(device, CompilerConfig::default());
            let program = b.build(SEED);
            let g = compiler.compile(&program, Strategy::BaselineG).expect("compiles");
            let cd = compiler.compile(&program, Strategy::ColorDynamic).expect("compiles");
            let pg = estimate(compiler.device(), &g.schedule, &noise).p_success;
            let pcd = estimate(compiler.device(), &cd.schedule, &noise).p_success;
            println!(
                "{}",
                row(
                    &[
                        b.label(),
                        format!("{r}"),
                        fmt_p(pg),
                        fmt_p(pcd),
                        format!("{:.1}x", pcd / pg.max(1e-12)),
                    ],
                    &widths
                )
            );
        }
    }
    println!();
    println!("At r = 0 the tiling schedule is unbeatable (zero crosstalk, CD only");
    println!("adds frequency dispersion); as couplers leak, spectral separation");
    println!("takes over and ColorDynamic keeps realistic gmon hardware usable —");
    println!("the combination the paper's conclusion proposes.");
}
