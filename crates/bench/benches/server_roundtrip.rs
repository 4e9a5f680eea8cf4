//! Socket round-trip cost of the TCP serving layer against direct
//! in-process queue submission on the same workload and fleet.
//!
//! The server adds framing, JSON encode/decode, QASM parsing, and
//! session accounting on top of `QueueService`; this bench measures
//! what that costs per job when a single client submits and waits
//! serially — the wire layer's worst case, since nothing amortises.
//! `bench_guard` gates CI on the same-run ratio: socket end-to-end
//! must stay within 3x direct, so wire overhead cannot silently come
//! to dominate compile time.

use criterion::{criterion_group, BenchmarkId, Criterion};
use fastsc_bench::record::{self, BenchRecord};
use fastsc_core::batch::CompileJob;
use fastsc_core::{CompilerConfig, Strategy};
use fastsc_device::Device;
use fastsc_ir::qasm::to_qasm;
use fastsc_queue::{Backpressure, QueueConfig, QueueService, Submission};
use fastsc_server::{Client, Server, TenantConfig};
use fastsc_service::{CompileService, Composite, ShardSpec};
use fastsc_workloads::Benchmark;

/// The serial workload: 8 distinct jobs mixing program families and
/// strategies, small enough that one submit+wait cycle is dominated by
/// a real compile rather than queue batching.
fn roundtrip_jobs() -> Vec<CompileJob> {
    let strategies = Strategy::all();
    (0..8)
        .map(|i| {
            let benchmark = match i % 3 {
                0 => Benchmark::Xeb(9, 3),
                1 => Benchmark::Qaoa(8),
                _ => Benchmark::Bv(4 + i % 5),
            };
            CompileJob::new(benchmark.build(i as u64), strategies[i % strategies.len()])
        })
        .collect()
}

/// The same jobs as the wire sees them: QASM text plus the strategy's
/// display label (which the server's `FromStr` accepts).
fn qasm_payloads(jobs: &[CompileJob]) -> Vec<(String, String)> {
    jobs.iter().map(|job| (to_qasm(&job.program), job.strategy.to_string())).collect()
}

/// A single-device fleet with result caching **disabled**: the bench
/// compares transport paths, so every iteration must really compile.
fn uncached_service() -> CompileService {
    let service = CompileService::new(Composite::least_loaded());
    service
        .add_shard(ShardSpec {
            cache_capacity: 0,
            ..ShardSpec::new(Device::grid(3, 3, 7), CompilerConfig::default())
        })
        .expect("device frequency plan solves");
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

/// A tenant whose rate limit and quota can never throttle the bench:
/// the gate measures wire overhead, not admission control.
fn bench_tenant() -> TenantConfig {
    TenantConfig {
        token: "bench-token".to_owned(),
        name: "bench".to_owned(),
        client: 0,
        max_inflight: 1024,
        rate_per_sec: 1_000_000.0,
        burst: 1_000_000,
    }
}

/// One direct run: serial submit+wait per job through the in-process
/// queue, mirroring the socket client's serial request loop.
fn run_direct(queue: &QueueService, jobs: &[CompileJob]) -> usize {
    jobs.iter()
        .filter(|job| {
            let handle = queue
                .submit(Submission::new((*job).clone()).client(0))
                .expect("block mode always admits");
            handle.wait().is_ok()
        })
        .count()
}

/// One socket run: serial submit+wait per job over the framed TCP
/// connection, QASM parsed server-side on every submission.
fn run_socket(client: &mut Client, payloads: &[(String, String)]) -> usize {
    payloads
        .iter()
        .filter(|(qasm, strategy)| {
            let job = client.submit(qasm, strategy, "batch", None).expect("submit is admitted");
            matches!(client.wait(job, 60_000), Ok(Some(outcome)) if outcome.ok)
        })
        .count()
}

fn bench_socket_vs_direct(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_roundtrip");
    group.sample_size(10);
    let jobs = roundtrip_jobs();
    let payloads = qasm_payloads(&jobs);

    let direct = queue_over(uncached_service());
    group.bench_with_input(BenchmarkId::from_parameter("direct"), &jobs, |b, jobs| {
        b.iter(|| run_direct(&direct, jobs))
    });

    let server = Server::start(queue_over(uncached_service()), vec![bench_tenant()])
        .expect("loopback server starts");
    let mut client = Client::connect(server.addr()).expect("loopback connect");
    client.hello("bench-token").expect("token authenticates");
    group.bench_with_input(BenchmarkId::from_parameter("socket"), &payloads, |b, payloads| {
        b.iter(|| run_socket(&mut client, payloads))
    });
    group.finish();
    drop(client);
    drop(server);
}

/// Records the acceptance measurement — serial socket round-trips vs
/// direct queue submission on the same jobs and fleet — into
/// `BENCH_compile.json` for the `bench_guard` same-run gate.
fn emit_bench_json() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let samples = if test_mode { 5 } else { 7 };
    let jobs = roundtrip_jobs();
    let payloads = qasm_payloads(&jobs);

    let direct = queue_over(uncached_service());
    let direct_ns = record::median_ns(samples, || {
        criterion::black_box(run_direct(&direct, &jobs));
    });

    let server = Server::start(queue_over(uncached_service()), vec![bench_tenant()])
        .expect("loopback server starts");
    let mut client = Client::connect(server.addr()).expect("loopback connect");
    client.hello("bench-token").expect("token authenticates");
    let socket_ns = record::median_ns(samples, || {
        criterion::black_box(run_socket(&mut client, &payloads));
    });
    drop(client);
    drop(server);

    let path = record::record(&[
        BenchRecord::new("server_roundtrip", "direct", direct_ns),
        BenchRecord::new("server_roundtrip", "socket", socket_ns),
    ]);
    println!("recorded server_roundtrip medians to {}", path.display());
    println!(
        "server_roundtrip ({} jobs): direct {:.2} ms, socket {:.2} ms (ratio {:.2})",
        jobs.len(),
        direct_ns as f64 / 1e6,
        socket_ns as f64 / 1e6,
        socket_ns as f64 / direct_ns as f64
    );
}

criterion_group!(benches, bench_socket_vs_direct);

fn main() {
    benches();
    emit_bench_json();
}
