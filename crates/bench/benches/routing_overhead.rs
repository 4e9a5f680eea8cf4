//! Routing overhead per policy: what the shard-selection layer itself
//! costs, isolated from compilation.
//!
//! Every fleet is warmed first, so the measured batches are pure
//! front-end work — policy decisions over `ShardView` snapshots,
//! coalescing, and result-cache hits. Comparing a 1-shard fleet against
//! an 8-shard fleet shows how per-policy cost scales with fleet size,
//! and comparing policies on the same fleet shows what the
//! telemetry-driven `Composite` presets pay over `RoundRobin`'s counter
//! increment. The `LeastLoaded`, `CapacityAware`, `FidelityAware`, and
//! `Composite` record labels name the presets (the last two are the same
//! fidelity-aware pipeline) and keep the `BENCH_compile.json` keys
//! stable. `bench_guard` gates CI on the same-run ratio: `FidelityAware`
//! must stay within
//! `BENCH_GUARD_ROUTE_RATIO` (default 1.5x) of `RoundRobin` on the
//! identical 8-shard batch, so consulting calibration profiles can
//! never silently become the bottleneck.

use criterion::{criterion_group, BenchmarkId, Criterion};
use fastsc_bench::record::{self, BenchRecord};
use fastsc_core::batch::CompileJob;
use fastsc_core::{CompilerConfig, Strategy};
use fastsc_device::Device;
use fastsc_service::{
    CompileService, Composite, ProgramAffinity, RoundRobin, ShardPolicy, ShardSpec,
};
use fastsc_workloads::Benchmark;

/// 24 small jobs — enough slots that routing dominates once the caches
/// are warm. All programs are **pairwise distinct** (asserted): a
/// duplicate would pin to its twin's shard without advancing stateful
/// policies, de-synchronizing warm-up placement from measured placement
/// and leaking cold compiles into the measurement.
fn routing_jobs() -> Vec<CompileJob> {
    let jobs: Vec<CompileJob> = (0..24)
        .map(|i| {
            CompileJob::new(
                Benchmark::Xeb(9, 2 + i % 3).build(i as u64),
                Strategy::ColorDynamic,
            )
        })
        .collect();
    let distinct: std::collections::HashSet<u64> =
        jobs.iter().map(|job| job.program.structural_hash()).collect();
    assert_eq!(distinct.len(), jobs.len(), "routing jobs must be pairwise distinct");
    jobs
}

/// Every built-in policy, by bench label.
fn policies() -> Vec<(&'static str, Box<dyn ShardPolicy>)> {
    vec![
        ("RoundRobin", Box::new(RoundRobin::new())),
        ("LeastLoaded", Box::new(Composite::least_loaded())),
        ("ProgramAffinity", Box::new(ProgramAffinity::new())),
        ("CapacityAware", Box::new(Composite::capacity_aware())),
        ("FidelityAware", Box::new(Composite::fidelity_aware())),
        ("Composite", Box::new(Composite::fidelity_aware())),
    ]
}

/// A fleet of `shards` same-topology devices (distinct seeds, default
/// caches) running `policy`, warmed so every job in [`routing_jobs`] is
/// a result-cache hit.
fn warmed_fleet(shards: usize, policy: Box<dyn ShardPolicy>) -> CompileService {
    let service = CompileService::new(RoundRobin::new());
    for seed in 0..shards as u64 {
        service
            .add_shard(ShardSpec::new(Device::grid(3, 3, 7 + seed), CompilerConfig::default()))
            .expect("device frequency plan solves");
    }
    service.set_policy_boxed(policy);
    // Two warm-up batches: the first fills the caches, the second leaves
    // every stateful policy (round-robin cursor) exactly where a
    // measured batch will find it again (24 jobs mod 8 shards == 0).
    for _ in 0..2 {
        let failures =
            service.compile_batch(routing_jobs()).iter().filter(|r| r.is_err()).count();
        assert_eq!(failures, 0, "warm-up batch must compile cleanly");
    }
    service
}

fn bench_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_overhead");
    group.sample_size(10);
    let jobs = routing_jobs();
    for (name, policy) in policies() {
        let service = warmed_fleet(8, policy);
        group.bench_with_input(BenchmarkId::from_parameter(name), &jobs, |b, jobs| {
            b.iter(|| service.compile_batch(jobs.to_vec()).iter().filter(|r| r.is_ok()).count())
        });
    }
    group.finish();
}

/// Records per-policy warm-batch medians on 1-shard and 8-shard fleets
/// into `BENCH_compile.json` (workload `routing_overhead`, strategy
/// `<Policy>_<N>shard`) for the `bench_guard` same-run route gate.
fn emit_bench_json() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let samples = if test_mode { 5 } else { 9 };
    // One warm batch is ~tens of µs — same order as scheduler jitter on
    // a busy CI box, which made the route gate flaky. Each sample runs
    // the batch several times and records the per-batch average, so the
    // medians the gate compares sit well above the noise floor.
    const BATCHES_PER_SAMPLE: u128 = 8;
    let jobs = routing_jobs();
    let mut records = Vec::new();
    for shards in [1usize, 8] {
        for (name, policy) in policies() {
            let service = warmed_fleet(shards, policy);
            let median = record::median_ns(samples, || {
                for _ in 0..BATCHES_PER_SAMPLE {
                    criterion::black_box(service.compile_batch(jobs.clone()));
                }
            }) / BATCHES_PER_SAMPLE;
            records.push(BenchRecord::new(
                "routing_overhead",
                &format!("{name}_{shards}shard"),
                median,
            ));
            println!(
                "routing_overhead {name:>16} x{shards}: {:.1} µs / 24-job warm batch",
                median as f64 / 1e3
            );
        }
    }
    let path = record::record(&records);
    println!("recorded routing_overhead medians to {}", path.display());
}

criterion_group!(benches, bench_routing);

fn main() {
    benches();
    emit_bench_json();
}
