//! Bench-regression gate over `BENCH_compile.json` (see
//! [`fastsc_bench::regression`]).
//!
//! Run after the bench smoke has recorded fresh `current` rows:
//!
//! ```console
//! $ cargo run --release -p fastsc-bench --bin bench_guard
//! ```
//!
//! Checks every gate in [`GATES`] and exits non-zero when any fails.

use fastsc_bench::record::{self, PAIRED_RATIO};
use fastsc_bench::regression::{check, Bound::*, Gate};

/// Every gate CI holds the benches to. Ratio rows are the median of
/// per-pair `subject / reference` times in permille, both sides measured
/// back to back in the same run.
const GATES: [Gate; 16] = [
    // Work stealing must not regress toward serializing the heavy jobs.
    Gate { workload: "skewed_batch", strategy: "parallel", bound: VsPost(2.0) },
    // Work stealing vs emulated contiguous chunking over the same jobs.
    Gate { workload: "skewed_batch", strategy: PAIRED_RATIO, bound: Ceiling(1500) },
    // Queued end-to-end vs direct `compile_batch` on the same fleet.
    Gate { workload: "queue_saturated", strategy: PAIRED_RATIO, bound: Ceiling(2000) },
    // FidelityAware vs RoundRobin routing on the same warm 8-shard batch.
    Gate { workload: "routing_overhead", strategy: PAIRED_RATIO, bound: Ceiling(1500) },
    // Socket round trips vs direct queue submission of the same jobs.
    Gate { workload: "server_roundtrip", strategy: PAIRED_RATIO, bound: Ceiling(3000) },
    // Default `RetryPolicy` vs `RetryPolicy::none()` on a fault-free flood.
    Gate { workload: "fault_free_overhead", strategy: PAIRED_RATIO, bound: Ceiling(1200) },
    // Cold whole-device ColorDynamic compile at 1024 qubits: 10 ms.
    Gate { workload: "scale1024", strategy: "whole", bound: Ceiling(10_000_000) },
    // Warm whole-device Baseline U vs ColorDynamic, same 256q device and
    // program: U's per-cycle cost must not grow with its deferred gates.
    Gate { workload: "scale256_warm", strategy: PAIRED_RATIO, bound: Ceiling(2000) },
    // The same pair at 1024 qubits, where U's ~2,000 cycles must keep
    // overlaying the shared parking vector: a dense per-cycle copy of it
    // put this ratio near 7,650‰, the overlay near 1,250‰.
    Gate { workload: "scale1024_warm", strategy: PAIRED_RATIO, bound: Ceiling(2500) },
    // Cold partitioned compile at 256 qubits, while that path exists.
    Gate { workload: "scale256", strategy: "partitioned", bound: VsPost(2.0) },
    // Distance-1 crosstalk-graph build plus Welsh–Powell, 64x64 mesh: 40 ms.
    Gate { workload: "xtalk_coloring", strategy: "4096", bound: Ceiling(40_000_000) },
    // Tracing fully on vs off on the same flood (metrics record on both
    // sides: each event's owning record always counts).
    Gate { workload: "observability_overhead", strategy: PAIRED_RATIO, bound: Ceiling(1100) },
    // A store-warmed restart vs the identical cold one: at most half.
    Gate { workload: "warm_start", strategy: PAIRED_RATIO, bound: Ceiling(500) },
    // Cold d = 2 4x4 Baseline S/G statics (a 14-color `smt_find`): 50 ms.
    Gate { workload: "statics_cold", strategy: "grid4x4_d2", bound: Ceiling(50_000_000) },
    // A cold 20-color `smt_find` in a 1 GHz band: 45 ms, so the phase-2
    // probes must keep sharing their subtree bounds.
    Gate { workload: "smt_find_cold", strategy: "k20", bound: Ceiling(45_000_000) },
    // The warm front end (route, lower, peephole) on the 1024q scale-tier
    // XEB: 350 µs.
    Gate { workload: "front_end", strategy: "scale1024", bound: Ceiling(350_000) },
];

fn main() {
    let path = record::default_path();
    let records = record::read_records(&path).unwrap_or_else(|e| {
        eprintln!("bench_guard FAILED: cannot read {}: {e}", path.display());
        std::process::exit(1);
    });
    let mut failed = false;
    for gate in &GATES {
        match check(&records, gate) {
            Ok(message) => println!("bench_guard OK: {message}"),
            Err(message) => {
                eprintln!("bench_guard FAILED ({}): {message}", path.display());
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn every_gate_names_a_committed_post_row() {
        let committed = record::read_records(
            &Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_compile.json"),
        )
        .expect("the committed BENCH_compile.json parses");
        for gate in &GATES {
            assert!(
                committed.iter().any(|r| {
                    r.workload == gate.workload
                        && r.strategy == gate.strategy
                        && r.label == "post"
                }),
                "no committed `post` row for ({}, {})",
                gate.workload,
                gate.strategy
            );
        }
    }
}
