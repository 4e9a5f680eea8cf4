//! Ablation (§IV-C-3): the crosstalk-graph distance parameter `d`.
//!
//! `d = 0` treats only shared-qubit couplings as conflicting (the line
//! graph), `d = 1` is the paper's default, `d = 2` also separates
//! next-neighbor couplings. Larger `d` densifies the conflict graph:
//! more colors / more serialization, in exchange for robustness against
//! longer-range residual coupling. The evaluation here scores every
//! compile under an estimator with the distance-2 channel *enabled*, so
//! under-provisioned compilation (`d = 0`) shows up as crosstalk.
//!
//! ```bash
//! cargo run -p fastsc-bench --release --bin ablation_distance
//! ```

use fastsc_bench::{fmt_p, row, SEED};
use fastsc_core::{Compiler, CompilerConfig, Strategy};
use fastsc_device::{DeviceBuilder, DeviceParams};
use fastsc_graph::topology;
use fastsc_noise::{estimate, NoiseConfig};
use fastsc_workloads::Benchmark;

fn main() {
    let benchmarks = [Benchmark::Xeb(16, 5), Benchmark::Xeb(16, 10), Benchmark::Qgan(16)];
    // A device with a real next-neighbor residual channel.
    let params = DeviceParams { distance2_coupling_factor: 0.05, ..Default::default() };
    let noise = NoiseConfig { include_distance2: true };
    let widths = [12usize, 6, 10, 8, 10, 10];

    println!("Crosstalk-distance ablation (ColorDynamic; distance-2 channel live)");
    println!();
    println!(
        "{}",
        row(&["benchmark", "d", "P_success", "depth", "colors", "xtalk err"], &widths)
    );
    for b in benchmarks {
        for d in [0usize, 1, 2] {
            let side = (b.n_qubits() as f64).sqrt().ceil() as usize;
            let mut builder = DeviceBuilder::new(topology::grid(side, side));
            builder.seed(SEED).params(params);
            let device = builder.build();
            let config = CompilerConfig { crosstalk_distance: d, ..CompilerConfig::default() };
            let compiler = Compiler::new(device, config);
            let compiled =
                compiler.compile(&b.build(SEED), Strategy::ColorDynamic).expect("compiles");
            let report = estimate(compiler.device(), &compiled.schedule, &noise);
            println!(
                "{}",
                row(
                    &[
                        b.label(),
                        d.to_string(),
                        fmt_p(report.p_success),
                        report.depth.to_string(),
                        compiled.stats.max_colors_used.to_string(),
                        format!("{:.4}", report.crosstalk_error()),
                    ],
                    &widths
                )
            );
        }
    }
    println!();
    println!("d = 1 is the sweet spot the paper uses: d = 0 leaves nearest-neighbor");
    println!("collisions on the table, d = 2 buys a little residual-channel margin");
    println!("for extra serialization.");
}
