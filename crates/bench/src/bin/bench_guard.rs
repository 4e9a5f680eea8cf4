//! Bench-regression gate over `BENCH_compile.json` (see
//! [`fastsc_bench::regression`]).
//!
//! Run after the bench smoke has recorded fresh `current` medians:
//!
//! ```console
//! $ cargo run --release -p fastsc-bench --bin bench_guard
//! ```
//!
//! Eleven gates:
//!
//! 1. **Absolute** — the fresh skewed-batch `parallel` median must stay
//!    within 2x the committed `post` baseline (`BENCH_GUARD_MAX_RATIO`
//!    overrides).
//! 2. **Relative, same-run** — the fresh skewed-batch `parallel`
//!    (work-stealing) median must stay within 1.5x the fresh
//!    `parallel_chunked` median (`BENCH_GUARD_STEAL_RATIO` overrides).
//!    This one is machine-independent: whatever the host, stealing
//!    falling meaningfully behind contiguous chunking over the same jobs
//!    means the stealing dispatch has regressed.
//! 3. **Relative, same-run** — queued end-to-end (`queue_saturated`
//!    `queued`) must stay within 2x direct `compile_batch` on the same
//!    workload and fleet (`BENCH_GUARD_QUEUE_RATIO` overrides): the
//!    async front end's admission/dispatch/wakeup overhead cannot
//!    silently regress.
//! 4. **Relative, same-run** — fidelity-aware routing must stay within
//!    1.5x `RoundRobin` on the identical warm 8-shard batch
//!    (`BENCH_GUARD_ROUTE_RATIO` overrides): consulting calibration
//!    profiles may cost something, but never an order of magnitude.
//! 5. **Relative, same-run** — socket end-to-end (`server_roundtrip`
//!    `socket`) must stay within 3x direct queue submission on the same
//!    jobs and fleet (`BENCH_GUARD_SOCKET_RATIO` overrides): framing,
//!    JSON, QASM parsing, and session accounting cannot silently come to
//!    dominate compile time.
//! 6. **Relative, same-run** — the fault-free flood with the default
//!    `RetryPolicy` (`fault_free_overhead` `retry`) must stay within
//!    1.2x the same flood with `RetryPolicy::none()`
//!    (`BENCH_GUARD_FAULT_RATIO` overrides): attempt histories, shard
//!    exclusions, and backoff bookkeeping cannot tax healthy fleets.
//! 7. **Ceiling, same-run** — the 256-qubit scalability tier's median
//!    per-pair partitioned/whole cold-compile ratio (`scale256`
//!    `paired_ratio_permille`, computed by the bench over interleaved
//!    back-to-back pairs so machine drift cancels inside each pair)
//!    must stay at or below 0.9 (`BENCH_GUARD_SCALE_RATIO` overrides):
//!    partitioning is only worth its stitch complexity while it beats
//!    the monolithic path outright at scale.
//! 8. **Relative, same-run** — the saturated flood with tracing and
//!    metrics fully on (`observability_overhead` `enabled`, every job
//!    recording a complete span tree) must stay within 1.1x the same
//!    flood with observability off (`BENCH_GUARD_OBS_RATIO`
//!    overrides): watching the fleet can never become a tax on it.
//! 9. **Relative, same-run** — a store-warmed restart (`warm_start`
//!    `warmed`: context hydration + pre-warmed first batch) must finish
//!    within 0.5x the identical cold sequence (`BENCH_GUARD_WARM_RATIO`
//!    overrides). Note the inversion: the subject must be *faster* than
//!    the reference, or persisting artifacts has stopped paying for
//!    itself.
//! 10. **Ceiling, same-run** — the cold Baseline S/G statics of a 4x4
//!     grid at crosstalk distance 2 (`statics_cold` `grid4x4_d2`, a
//!     14-color `smt_find`) must finish within a fixed 50 ms: the
//!     order-aware frequency solve takes a few milliseconds there, where
//!     the general difference-logic search it replaced took seconds.
//! 11. **Ceiling, same-run** — the compile front end (`route`,
//!     `decompose`, `peephole`) on the 1024-qubit scale-tier XEB program
//!     (`front_end` `scale1024`) must finish within a fixed 350 µs, about
//!     twice its committed `post` median: the linear-time passes take
//!     ~0.17 ms there, where the fixed-point peephole with its no-op
//!     pass, hashed adjacency tests and regrown buffers took 0.3–0.5 ms.
//!
//! Exits non-zero when any gate fails.

use fastsc_bench::record;
use fastsc_bench::regression::{
    check, check_ceiling, check_relative, CeilingGate, Gate, RelativeGate,
};

fn env_ratio(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse::<f64>().ok()).unwrap_or(default)
}

fn main() {
    let path = record::default_path();
    let records = record::read_records(&path);
    let absolute = Gate {
        workload: "skewed_batch",
        strategy: "parallel",
        current_label: "current",
        baseline_label: "post",
        max_ratio: env_ratio("BENCH_GUARD_MAX_RATIO", 2.0),
    };
    let relative = RelativeGate {
        workload: "skewed_batch",
        subject_strategy: "parallel",
        reference_strategy: "parallel_chunked",
        label: "current",
        max_ratio: env_ratio("BENCH_GUARD_STEAL_RATIO", 1.5),
    };
    let queue = RelativeGate {
        workload: "queue_saturated",
        subject_strategy: "queued",
        reference_strategy: "direct",
        label: "current",
        max_ratio: env_ratio("BENCH_GUARD_QUEUE_RATIO", 2.0),
    };
    let route = RelativeGate {
        workload: "routing_overhead",
        subject_strategy: "FidelityAware_8shard",
        reference_strategy: "RoundRobin_8shard",
        label: "current",
        max_ratio: env_ratio("BENCH_GUARD_ROUTE_RATIO", 1.5),
    };
    let socket = RelativeGate {
        workload: "server_roundtrip",
        subject_strategy: "socket",
        reference_strategy: "direct",
        label: "current",
        max_ratio: env_ratio("BENCH_GUARD_SOCKET_RATIO", 3.0),
    };
    let fault = RelativeGate {
        workload: "fault_free_overhead",
        subject_strategy: "retry",
        reference_strategy: "no_retry",
        label: "current",
        max_ratio: env_ratio("BENCH_GUARD_FAULT_RATIO", 1.2),
    };
    let scale = CeilingGate {
        workload: "scale256",
        strategy: "paired_ratio_permille",
        label: "current",
        max_value: (env_ratio("BENCH_GUARD_SCALE_RATIO", 0.9) * 1000.0) as u128,
    };
    let observability = RelativeGate {
        workload: "observability_overhead",
        subject_strategy: "enabled",
        reference_strategy: "disabled",
        label: "current",
        max_ratio: env_ratio("BENCH_GUARD_OBS_RATIO", 1.1),
    };
    let warm = RelativeGate {
        workload: "warm_start",
        subject_strategy: "warmed",
        reference_strategy: "cold",
        label: "current",
        max_ratio: env_ratio("BENCH_GUARD_WARM_RATIO", 0.5),
    };
    let cold_statics = CeilingGate {
        workload: "statics_cold",
        strategy: "grid4x4_d2",
        label: "current",
        max_value: 50_000_000,
    };
    let front_end = CeilingGate {
        workload: "front_end",
        strategy: "scale1024",
        label: "current",
        max_value: 350_000,
    };
    let mut failed = false;
    for outcome in [
        check(&records, &absolute),
        check_relative(&records, &relative),
        check_relative(&records, &queue),
        check_relative(&records, &route),
        check_relative(&records, &socket),
        check_relative(&records, &fault),
        check_ceiling(&records, &scale),
        check_relative(&records, &observability),
        check_relative(&records, &warm),
        check_ceiling(&records, &cold_statics),
        check_ceiling(&records, &front_end),
    ] {
        match outcome {
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
