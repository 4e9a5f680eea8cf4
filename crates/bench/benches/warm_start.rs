//! Warm start from the persistent artifact store vs. a cold process.
//!
//! The store exists to make restarts cheap: a crashed or redeployed
//! shard should rebuild its compile context and serve its first batch
//! from persisted artifacts instead of re-solving and re-compiling
//! everything. This bench measures exactly that: (context build + first
//! batch) for a cold fleet against the same sequence for a fleet
//! hydrated from a pre-populated store. `bench_guard` gates CI on the
//! same-run ratio: warmed must finish in at most half the cold time, or
//! the warm-start path has stopped earning its keep.

use criterion::{criterion_group, BenchmarkId, Criterion};
use fastsc_bench::record::{self, BenchRecord};
use fastsc_core::batch::CompileJob;
use fastsc_core::{CompilerConfig, Strategy};
use fastsc_device::Device;
use fastsc_service::{CompileService, RoundRobin, ShardSpec};
use fastsc_store::ArtifactStore;
use fastsc_workloads::Benchmark;
use std::sync::Arc;

const DEVICE_SEED: u64 = 7;

/// The first batch a restarted shard faces: every strategy over a mix
/// of program families.
fn first_batch() -> Vec<CompileJob> {
    let strategies = Strategy::all();
    (0..10)
        .map(|i| {
            let benchmark = match i % 3 {
                0 => Benchmark::Xeb(9, 4),
                1 => Benchmark::Qaoa(8),
                _ => Benchmark::Bv(4 + i % 5),
            };
            CompileJob::new(benchmark.build(i as u64), strategies[i % strategies.len()])
        })
        .collect()
}

fn device() -> Device {
    Device::grid(3, 3, DEVICE_SEED)
}

/// Cold process: build the context from nothing and compile the first
/// batch.
fn run_cold() -> usize {
    let service = CompileService::new(RoundRobin::new());
    service.add_shard(ShardSpec::new(device(), CompilerConfig::default())).expect("adds");
    service.compile_batch(first_batch()).iter().filter(|r| r.is_ok()).count()
}

/// Warm start: hydrate the context and result cache from the store,
/// then serve the same first batch.
fn run_warmed(store: &Arc<ArtifactStore>) -> usize {
    let service = CompileService::new(RoundRobin::new());
    service
        .add_shard(ShardSpec {
            store: Some(Arc::clone(store)),
            ..ShardSpec::new(device(), CompilerConfig::default())
        })
        .expect("adds warmed");
    service.compile_batch(first_batch()).iter().filter(|r| r.is_ok()).count()
}

/// Populates the store the warmed side hydrates from: one full cold
/// run with the store attached, drained so everything flushes.
fn populated_store() -> Arc<ArtifactStore> {
    let path = std::env::temp_dir()
        .join(format!("fastsc-warm-start-bench-{}.store", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let store = Arc::new(ArtifactStore::open(&path).expect("store opens"));
    let service = CompileService::new(RoundRobin::new());
    service
        .add_shard(ShardSpec {
            store: Some(Arc::clone(&store)),
            ..ShardSpec::new(device(), CompilerConfig::default())
        })
        .expect("adds");
    service.compile_batch(first_batch());
    service.drain_shard(0);
    store
}

fn bench_warm_start(c: &mut Criterion) {
    let mut group = c.benchmark_group("warm_start");
    group.sample_size(10);
    let store = populated_store();

    group.bench_with_input(BenchmarkId::from_parameter("cold"), &(), |b, ()| b.iter(run_cold));
    group.bench_with_input(BenchmarkId::from_parameter("warmed"), &store, |b, store| {
        b.iter(|| run_warmed(store))
    });
    group.finish();
}

/// Records the acceptance measurement — store-warmed context build +
/// first batch vs. the identical cold sequence — into
/// `BENCH_compile.json` for the `bench_guard` same-run gate. The two
/// sides alternate sample by sample so machine drift lands on both
/// medians instead of skewing whichever side ran during the noisy
/// stretch.
fn emit_bench_json() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let samples = if test_mode { 5 } else { 7 };
    let store = populated_store();

    let mut cold_samples = Vec::with_capacity(samples);
    let mut warmed_samples = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = std::time::Instant::now();
        criterion::black_box(run_cold());
        cold_samples.push(start.elapsed().as_nanos());
        let start = std::time::Instant::now();
        criterion::black_box(run_warmed(&store));
        warmed_samples.push(start.elapsed().as_nanos());
    }
    cold_samples.sort_unstable();
    warmed_samples.sort_unstable();
    let cold_ns = cold_samples[samples / 2];
    let warmed_ns = warmed_samples[samples / 2];

    let path = record::record(&[
        BenchRecord::new("warm_start", "cold", cold_ns),
        BenchRecord::new("warm_start", "warmed", warmed_ns),
    ]);
    println!("recorded warm_start medians to {}", path.display());
    println!(
        "warm_start: cold {:.2} ms, warmed {:.2} ms (ratio {:.2})",
        cold_ns as f64 / 1e6,
        warmed_ns as f64 / 1e6,
        warmed_ns as f64 / cold_ns as f64
    );
}

criterion_group!(benches, bench_warm_start);

fn main() {
    benches();
    emit_bench_json();
}
