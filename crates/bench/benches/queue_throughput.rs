//! End-to-end latency of the async compile queue against direct
//! `compile_batch` on the same workload and fleet.
//!
//! The queue adds admission, priority scheduling, micro-batched
//! dispatch, and per-job wakeups on top of the service; this bench
//! measures what that costs when the queue is saturated (every job
//! submitted up front, results awaited). `bench_guard` gates CI on the
//! same-run ratio: queued end-to-end must stay within 2x direct, so
//! front-end overhead cannot silently regress.

use criterion::{criterion_group, BenchmarkId, Criterion};
use fastsc_bench::record::{self, BenchRecord};
use fastsc_core::batch::CompileJob;
use fastsc_core::{CompilerConfig, Strategy};
use fastsc_device::Device;
use fastsc_queue::{Backpressure, QueueConfig, QueueService, Submission};
use fastsc_service::{CompileService, Composite, ShardSpec};
use fastsc_workloads::Benchmark;

/// The saturated workload: 24 distinct jobs (no coalescing) mixing
/// program families and strategies.
fn queue_jobs() -> Vec<CompileJob> {
    let strategies = Strategy::all();
    (0..24)
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

/// A two-device fleet with result caching **disabled**: the bench
/// measures scheduling and queueing, so every iteration must really
/// compile.
fn uncached_service() -> CompileService {
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

fn queue_over(service: CompileService) -> QueueService {
    QueueService::new(
        service,
        QueueConfig {
            capacity: 64,
            backpressure: Backpressure::Block,
            max_batch: 32,
            ..QueueConfig::default()
        },
    )
}

/// One end-to-end queued run: submit everything, then wait for every
/// handle. Returns the number of successful compiles (all, here).
fn run_queued(queue: &QueueService, jobs: &[CompileJob]) -> usize {
    let handles: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            queue
                .submit(Submission::new(job.clone()).client(i as u64 % 4))
                .expect("block mode always admits")
        })
        .collect();
    handles.iter().filter(|h| h.wait().is_ok()).count()
}

fn bench_queue_vs_direct(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_saturated");
    group.sample_size(10);
    let jobs = queue_jobs();

    let direct = uncached_service();
    group.bench_with_input(BenchmarkId::from_parameter("direct"), &jobs, |b, jobs| {
        b.iter(|| direct.compile_batch(jobs.to_vec()).iter().filter(|r| r.is_ok()).count())
    });

    let queued = queue_over(uncached_service());
    group.bench_with_input(BenchmarkId::from_parameter("queued"), &jobs, |b, jobs| {
        b.iter(|| run_queued(&queued, jobs))
    });
    group.finish();
}

/// Records the acceptance measurement — saturated-queue end-to-end
/// median vs direct `compile_batch` on the same jobs and fleet — into
/// `BENCH_compile.json` for the `bench_guard` same-run gate.
fn emit_bench_json() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let samples = if test_mode { 5 } else { 7 };
    let jobs = queue_jobs();

    let direct = uncached_service();
    let direct_ns = record::median_ns(samples, || {
        criterion::black_box(direct.compile_batch(jobs.clone()));
    });

    let queued = queue_over(uncached_service());
    let queued_ns = record::median_ns(samples, || {
        criterion::black_box(run_queued(&queued, &jobs));
    });

    let path = record::record(&[
        BenchRecord::new("queue_saturated", "direct", direct_ns),
        BenchRecord::new("queue_saturated", "queued", queued_ns),
    ]);
    println!("recorded queue_saturated medians to {}", path.display());
    println!(
        "queue_saturated ({} jobs): direct {:.2} ms, queued {:.2} ms (ratio {:.2})",
        jobs.len(),
        direct_ns as f64 / 1e6,
        queued_ns as f64 / 1e6,
        queued_ns as f64 / direct_ns as f64
    );
}

criterion_group!(benches, bench_queue_vs_direct);

fn main() {
    benches();
    emit_bench_json();
}
