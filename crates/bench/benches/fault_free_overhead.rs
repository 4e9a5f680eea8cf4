//! Cost of the fault-tolerance machinery on the fault-free fast path.
//!
//! The retry layer threads per-job attempt histories, shard exclusions,
//! and backoff bookkeeping through every dispatch — even when nothing
//! ever fails. This bench floods the same jobs through two queues over
//! identical fleets, one with the default [`RetryPolicy`] (3 attempts,
//! failover) and one with `RetryPolicy::none()`, with **no faults
//! injected**. `bench_guard` gates CI on the same-run ratio: the
//! retry-enabled path must stay within 1.2x the no-retry path, so the
//! robustness layer cannot silently tax healthy fleets.

use criterion::{criterion_group, BenchmarkId, Criterion};
use fastsc_bench::record::{self, BenchRecord};
use fastsc_core::batch::CompileJob;
use fastsc_core::{CompilerConfig, Strategy};
use fastsc_device::Device;
use fastsc_queue::{Backpressure, QueueConfig, QueueService, RetryPolicy, Submission};
use fastsc_service::{CompileService, Composite, ShardSpec};
use fastsc_workloads::Benchmark;

/// The saturated workload: 24 distinct jobs (no coalescing) mixing
/// program families and strategies — the same flood as
/// `queue_throughput`, so the two benches stay comparable.
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

/// A two-device fleet with result caching **disabled** so every
/// iteration really compiles.
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

fn queue_with(retry: RetryPolicy) -> QueueService {
    QueueService::new(
        uncached_service(),
        QueueConfig {
            capacity: 64,
            backpressure: Backpressure::Block,
            max_batch: 32,
            retry,
            ..QueueConfig::default()
        },
    )
}

/// One end-to-end run: submit everything, then wait for every handle.
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

fn bench_retry_vs_none(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_free_overhead");
    group.sample_size(10);
    let jobs = queue_jobs();

    let bare = queue_with(RetryPolicy::none());
    group.bench_with_input(BenchmarkId::from_parameter("no_retry"), &jobs, |b, jobs| {
        b.iter(|| run_queued(&bare, jobs))
    });

    let guarded = queue_with(RetryPolicy::default());
    group.bench_with_input(BenchmarkId::from_parameter("retry"), &jobs, |b, jobs| {
        b.iter(|| run_queued(&guarded, jobs))
    });
    group.finish();
}

/// Records the acceptance measurement — retry-enabled saturated flood
/// vs `RetryPolicy::none()` on the same jobs and fleet — into
/// `BENCH_compile.json` for the `bench_guard` same-run gate. The two
/// sides alternate sample by sample (rather than running as two
/// separate blocks) so machine drift lands on both medians instead of
/// skewing whichever side ran during the noisy stretch.
fn emit_bench_json() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let samples = if test_mode { 5 } else { 7 };
    let jobs = queue_jobs();

    let bare = queue_with(RetryPolicy::none());
    let guarded = queue_with(RetryPolicy::default());
    let mut bare_samples = Vec::with_capacity(samples);
    let mut guarded_samples = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = std::time::Instant::now();
        criterion::black_box(run_queued(&bare, &jobs));
        bare_samples.push(start.elapsed().as_nanos());
        let start = std::time::Instant::now();
        criterion::black_box(run_queued(&guarded, &jobs));
        guarded_samples.push(start.elapsed().as_nanos());
    }
    bare_samples.sort_unstable();
    guarded_samples.sort_unstable();
    let bare_ns = bare_samples[samples / 2];
    let guarded_ns = guarded_samples[samples / 2];

    let path = record::record(&[
        BenchRecord::new("fault_free_overhead", "no_retry", bare_ns),
        BenchRecord::new("fault_free_overhead", "retry", guarded_ns),
    ]);
    println!("recorded fault_free_overhead medians to {}", path.display());
    println!(
        "fault_free_overhead ({} jobs): no_retry {:.2} ms, retry {:.2} ms (ratio {:.2})",
        jobs.len(),
        bare_ns as f64 / 1e6,
        guarded_ns as f64 / 1e6,
        guarded_ns as f64 / bare_ns as f64
    );
}

criterion_group!(benches, bench_retry_vs_none);

fn main() {
    benches();
    emit_bench_json();
}
