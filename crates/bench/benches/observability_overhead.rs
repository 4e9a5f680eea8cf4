//! Cost of the observability layer on the serving fast path.
//!
//! Tracing and metrics are threaded through every layer (admission,
//! dispatch, routing, the engine's phase spans, delivery), so their
//! cost has to be measured end to end, not per instrument. This bench
//! floods the same 24 jobs through identical fleet queues twice: once
//! with observability fully **off** (metrics disabled, `TraceMode::Off`,
//! untraced submissions — the relaxed-atomic-branch path) and once
//! fully **on** (metrics enabled, `TraceMode::On` so every job records
//! a complete span tree, drained via `take_trace` like a real
//! consumer). `bench_guard` gates CI on the same-run ratio: the
//! enabled path must stay within 1.1x the disabled path
//! (`BENCH_GUARD_OBS_RATIO` overrides), so watching the fleet can
//! never become a tax on it.

use criterion::{criterion_group, BenchmarkId, Criterion};
use fastsc_bench::record::{self, BenchRecord};
use fastsc_core::batch::CompileJob;
use fastsc_core::{CompilerConfig, Strategy};
use fastsc_device::Device;
use fastsc_queue::{Backpressure, QueueConfig, QueueService, RetryPolicy, Submission};
use fastsc_service::{CompileService, Composite, ShardSpec};
use fastsc_telemetry::{set_metrics_enabled, set_trace_mode, TraceMode};
use fastsc_workloads::Benchmark;

/// The saturated workload: 24 distinct jobs (no coalescing) mixing
/// program families and strategies, sized for the 16-qubit fleet. A
/// job's tracing cost is fixed (~a dozen spans) regardless of its
/// size, so the overhead *ratio* is only meaningful against
/// representative compiles — gating on a flood of minimal toy circuits
/// would measure the span clock, not the layer's cost to a fleet.
fn queue_jobs() -> Vec<CompileJob> {
    let strategies = Strategy::all();
    (0..24)
        .map(|i| {
            let benchmark = match i % 3 {
                0 => Benchmark::Xeb(16, 6),
                1 => Benchmark::Qaoa(12),
                _ => Benchmark::Bv(8 + i % 5),
            };
            CompileJob::new(benchmark.build(i as u64), strategies[i % strategies.len()])
        })
        .collect()
}

/// A two-device fleet with result caching **disabled** so every
/// iteration really compiles (a cache-hit flood would measure nothing
/// but the instrumentation itself — flattering, but not the claim).
fn fleet_queue() -> QueueService {
    let service = CompileService::new(Composite::least_loaded());
    for seed in [7, 11] {
        service
            .add_shard(ShardSpec {
                cache_capacity: 0,
                ..ShardSpec::new(Device::grid(4, 4, seed), CompilerConfig::default())
            })
            .expect("device frequency plan solves");
    }
    QueueService::new(
        service,
        QueueConfig {
            capacity: 64,
            backpressure: Backpressure::Block,
            max_batch: 32,
            retry: RetryPolicy::none(),
            ..QueueConfig::default()
        },
    )
}

/// Flips the whole observability layer at once.
fn set_observability(enabled: bool) {
    set_metrics_enabled(enabled);
    set_trace_mode(if enabled { TraceMode::On } else { TraceMode::Off });
}

/// One end-to-end run: submit everything, wait for every handle, and —
/// when tracing — drain the parked span trees the way a real consumer
/// would.
fn run_queued(queue: &QueueService, jobs: &[CompileJob], traced: bool) -> usize {
    let handles: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            queue
                .submit(Submission::new(job.clone()).client(i as u64 % 4))
                .expect("block mode always admits")
        })
        .collect();
    let done = handles.iter().filter(|h| h.wait().is_ok()).count();
    if traced {
        let trees = handles.iter().filter_map(|h| queue.take_trace(h.id())).count();
        assert_eq!(trees, handles.len(), "TraceMode::On must trace every job");
    }
    done
}

fn bench_on_vs_off(c: &mut Criterion) {
    let mut group = c.benchmark_group("observability_overhead");
    group.sample_size(10);
    let jobs = queue_jobs();

    set_observability(false);
    let dark = fleet_queue();
    group.bench_with_input(BenchmarkId::from_parameter("disabled"), &jobs, |b, jobs| {
        b.iter(|| run_queued(&dark, jobs, false))
    });
    drop(dark);

    set_observability(true);
    let lit = fleet_queue();
    group.bench_with_input(BenchmarkId::from_parameter("enabled"), &jobs, |b, jobs| {
        b.iter(|| run_queued(&lit, jobs, true))
    });
    drop(lit);
    set_observability(false);
    group.finish();
}

/// Records the acceptance measurement — fully-instrumented saturated
/// flood vs observability-off on the same jobs and fleet — into
/// `BENCH_compile.json` for the `bench_guard` same-run gate. The two
/// sides alternate sample by sample (rather than running as two
/// separate blocks) so machine drift lands on both sides instead of
/// skewing whichever side ran during the noisy stretch. The global
/// trace mode flips around each sample, which is exactly the knob a
/// production operator would flip.
fn emit_bench_json() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let samples = if test_mode { 21 } else { 25 };
    let jobs = queue_jobs();

    let dark = fleet_queue();
    let lit = fleet_queue();
    // One warm-up flood per side: first-touch costs (thread pool spin-up,
    // SMT memo fills, allocator warm-up) land outside the measurement.
    set_observability(false);
    criterion::black_box(run_queued(&dark, &jobs, false));
    set_observability(true);
    criterion::black_box(run_queued(&lit, &jobs, true));
    let mut dark_samples = Vec::with_capacity(samples);
    let mut ratios = Vec::with_capacity(samples);
    for _ in 0..samples {
        // Two floods per side per sample: a single ~1 ms flood is
        // within scheduler jitter of itself, and this ratio gate is
        // tight.
        set_observability(false);
        let start = std::time::Instant::now();
        criterion::black_box(run_queued(&dark, &jobs, false));
        criterion::black_box(run_queued(&dark, &jobs, false));
        let dark_ns = start.elapsed().as_nanos();
        set_observability(true);
        let start = std::time::Instant::now();
        criterion::black_box(run_queued(&lit, &jobs, true));
        criterion::black_box(run_queued(&lit, &jobs, true));
        let lit_ns = start.elapsed().as_nanos();
        dark_samples.push(dark_ns);
        ratios.push(lit_ns as f64 / dark_ns as f64);
    }
    set_observability(false);
    // The measured quantity is the overhead *ratio*, so estimate it
    // from paired samples: each on/off pair runs back to back inside a
    // few milliseconds, so bursty machine noise (this gate's enemy)
    // lands on both halves of a pair and cancels in its ratio; the
    // median over pairs then discards the pairs a burst split. The
    // recorded absolute times are the off-side minimum (additive noise
    // means the fastest flood is the truest) and that minimum scaled by
    // the paired ratio, so the guard's enabled/disabled division
    // reproduces exactly the ratio measured here.
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    let ratio = ratios[samples / 2];
    let dark_ns = *dark_samples.iter().min().expect("samples > 0");
    let lit_ns = (dark_ns as f64 * ratio).round() as u128;

    let path = record::record(&[
        BenchRecord::new("observability_overhead", "disabled", dark_ns),
        BenchRecord::new("observability_overhead", "enabled", lit_ns),
    ]);
    println!("recorded observability_overhead pair-median estimate to {}", path.display());
    println!(
        "observability_overhead ({} jobs): disabled {:.2} ms, enabled {:.2} ms (ratio {:.2})",
        jobs.len(),
        dark_ns as f64 / 1e6,
        lit_ns as f64 / 1e6,
        lit_ns as f64 / dark_ns as f64
    );
}

criterion_group!(benches, bench_on_vs_off);

fn main() {
    benches();
    emit_bench_json();
}
