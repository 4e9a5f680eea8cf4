//! Criterion benchmarks for the parallel batch front ends: a 32-job
//! mixed workload (XEB / QAOA / BV across strategies) through
//! [`fastsc_core::batch`] sequentially vs. in parallel, and a skewed
//! 32-job batch through the two-device [`fastsc_service`] router
//! comparing work-stealing dispatch against emulated contiguous
//! chunking (the pre-work-stealing execution model).

use criterion::{criterion_group, BenchmarkId, Criterion};
use fastsc_bench::record::{self, BenchRecord};
use fastsc_core::batch::{BatchCompiler, CompileJob};
use fastsc_core::{CompilerConfig, Strategy};
use fastsc_device::Device;
use fastsc_service::{CompileService, Composite, ShardSpec};
use fastsc_workloads::Benchmark;
use rayon::prelude::*;

/// The acceptance-criteria batch: 32 jobs mixing XEB, QAOA, and BV
/// programs across all five strategies.
fn mixed_jobs() -> Vec<CompileJob> {
    let strategies = Strategy::all();
    (0..32)
        .map(|i| {
            let benchmark = match i % 3 {
                0 => Benchmark::Xeb(9, 4),
                1 => Benchmark::Qaoa(9),
                _ => Benchmark::Bv(9),
            };
            let program = benchmark.build(i as u64);
            CompileJob::new(program, strategies[i % strategies.len()])
        })
        .collect()
}

/// The skewed acceptance batch: four dominating ColorDynamic XEB jobs
/// leading 28 cheap BV jobs. Under contiguous chunking the heavy jobs
/// land in the same chunk and serialize on one worker; work stealing
/// spreads them as soon as other workers drain their own runs.
fn skewed_jobs() -> Vec<CompileJob> {
    let strategies = Strategy::all();
    let mut jobs: Vec<CompileJob> = (0..4)
        .map(|i| CompileJob::new(Benchmark::Xeb(9, 28).build(i), Strategy::ColorDynamic))
        .collect();
    for i in 0..28u64 {
        jobs.push(CompileJob::new(Benchmark::Bv(5).build(i), strategies[(i % 5) as usize]));
    }
    jobs
}

/// A two-device fleet with result caching **disabled**: this workload
/// measures scheduling, and a warm whole-schedule cache would reduce
/// every iteration after the first to hash lookups.
fn skewed_service() -> CompileService {
    let service = CompileService::new(Composite::least_loaded());
    for seed in [7, 11] {
        service
            .add_shard(ShardSpec {
                cache_capacity: 0,
                ..ShardSpec::new(Device::grid(3, 3, seed), CompilerConfig::default())
            })
            .expect("device frequency plan solves");
    }
    service
}

/// Emulates the pre-work-stealing dispatch: the batch is split into
/// `chunks` contiguous runs and each run is one parallel item, compiled
/// inline on whichever worker claims it (nested batches run inline), so
/// a run full of heavy jobs serializes exactly like the old chunking.
fn compile_chunked(service: &CompileService, jobs: &[CompileJob], chunks: usize) -> usize {
    let chunk_len = jobs.len().div_ceil(chunks.max(1));
    let runs: Vec<Vec<CompileJob>> =
        jobs.chunks(chunk_len).map(<[CompileJob]>::to_vec).collect();
    let compiled_per_run: Vec<usize> = runs
        .into_par_iter()
        .map(|run| service.compile_batch_sequential(run).iter().filter(|r| r.is_ok()).count())
        .collect();
    compiled_per_run.into_iter().sum()
}

fn bench_skewed_service(c: &mut Criterion) {
    let mut group = c.benchmark_group("skewed_batch_2dev");
    group.sample_size(10);
    let service = skewed_service();
    let jobs = skewed_jobs();
    let threads = rayon::current_num_threads();

    group.bench_with_input(BenchmarkId::from_parameter("sequential"), &jobs, |b, jobs| {
        b.iter(|| {
            service.compile_batch_sequential(jobs.to_vec()).iter().filter(|r| r.is_ok()).count()
        })
    });
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("chunked_{threads}_threads")),
        &jobs,
        |b, jobs| b.iter(|| compile_chunked(&service, jobs, threads)),
    );
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("stealing_{threads}_threads")),
        &jobs,
        |b, jobs| {
            b.iter(|| service.compile_batch(jobs.to_vec()).iter().filter(|r| r.is_ok()).count())
        },
    );
    group.finish();
}

fn bench_batch_vs_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_compile_32_jobs");
    group.sample_size(10);
    let device = Device::grid(3, 3, 7);
    let jobs = mixed_jobs();

    let sequential =
        BatchCompiler::new(device.clone(), CompilerConfig::default()).num_threads(1);
    group.bench_with_input(BenchmarkId::from_parameter("sequential"), &jobs, |b, jobs| {
        b.iter(|| {
            let results = sequential.compile_batch(jobs.to_vec());
            results.iter().filter(|r| r.is_ok()).count()
        })
    });

    let threads = rayon::current_num_threads();
    let parallel = BatchCompiler::new(device, CompilerConfig::default());
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("parallel_{threads}_threads")),
        &jobs,
        |b, jobs| {
            b.iter(|| {
                let results = parallel.compile_batch(jobs.to_vec());
                results.iter().filter(|r| r.is_ok()).count()
            })
        },
    );
    group.finish();

    println!(
        "note: parallel ran on {threads} worker thread(s); \
         speedup over sequential appears with >= 4 cores"
    );
}

/// Records the acceptance-criteria measurement — median wall time of the
/// 32-job mixed batch, sequential and parallel — into `BENCH_compile.json`
/// so the perf trajectory is machine-readable across PRs.
fn emit_bench_json() {
    let test_mode = std::env::args().any(|a| a == "--test");
    // bench_guard gates CI on these medians, so even the smoke run takes
    // a real median (5 samples of a ~2 ms workload) rather than a single
    // scheduler-hiccup-prone measurement.
    let samples = if test_mode { 5 } else { 7 };
    let device = Device::grid(3, 3, 7);
    let jobs = mixed_jobs();

    let sequential =
        BatchCompiler::new(device.clone(), CompilerConfig::default()).num_threads(1);
    let seq_ns = record::median_ns(samples, || {
        criterion::black_box(sequential.compile_batch(jobs.clone()));
    });
    let parallel = BatchCompiler::new(device, CompilerConfig::default());
    let par_ns = record::median_ns(samples, || {
        criterion::black_box(parallel.compile_batch(jobs.clone()));
    });

    // The skewed multi-device workload: sequential reference, emulated
    // contiguous chunking (pre-work-stealing), and work-stealing
    // dispatch. `bench_guard` gates CI on the `parallel` record.
    let service = skewed_service();
    let skewed = skewed_jobs();
    let threads = rayon::current_num_threads();
    let svc_seq_ns = record::median_ns(samples, || {
        criterion::black_box(service.compile_batch_sequential(skewed.clone()));
    });
    let svc_chunked_ns = record::median_ns(samples, || {
        criterion::black_box(compile_chunked(&service, &skewed, threads));
    });
    let svc_steal_ns = record::median_ns(samples, || {
        criterion::black_box(service.compile_batch(skewed.clone()));
    });

    let path = record::record(&[
        BenchRecord::new("batch32_mixed", "sequential", seq_ns),
        BenchRecord::new("batch32_mixed", "parallel", par_ns),
        BenchRecord::new("skewed_batch", "sequential", svc_seq_ns),
        BenchRecord::new("skewed_batch", "parallel_chunked", svc_chunked_ns),
        BenchRecord::new("skewed_batch", "parallel", svc_steal_ns),
    ]);
    println!("recorded batch32_mixed + skewed_batch medians to {}", path.display());
    println!(
        "skewed_batch ({} jobs, {threads} threads): sequential {:.2} ms, \
         chunked {:.2} ms, stealing {:.2} ms",
        skewed.len(),
        svc_seq_ns as f64 / 1e6,
        svc_chunked_ns as f64 / 1e6,
        svc_steal_ns as f64 / 1e6
    );
}

criterion_group!(benches, bench_batch_vs_sequential, bench_skewed_service);

fn main() {
    benches();
    emit_bench_json();
}
