//! Serving-stack benchmarks: batch dispatch, the async queue, routing,
//! retries, the TCP server, observability and store warm starts, each
//! measured against its own reference on identical jobs and fleets.
//! Every comparison runs through [`record::interleaved`], so a gated
//! overhead is the median of back-to-back pair ratios
//! ([`record::PAIRED_RATIO`] rows) and machine drift cancels inside
//! each pair. `bench_guard` holds those rows to their ceilings.
//!
//! ```console
//! $ cargo bench -p fastsc-bench --bench serving [-- --test]
//! ```

use fastsc_bench::record::{self, BenchRecord};
use fastsc_core::batch::CompileJob;
use fastsc_core::{CompilerConfig, Strategy};
use fastsc_device::Device;
use fastsc_ir::qasm::to_qasm;
use fastsc_queue::{
    Backpressure, JobHandle, QueueConfig, QueueService, RetryPolicy, Submission,
};
use fastsc_server::{Client, Server, TenantConfig};
use fastsc_service::{
    CompileService, Composite, ProgramAffinity, RoundRobin, ShardPolicy, ShardSpec,
};
use fastsc_store::ArtifactStore;
use fastsc_telemetry::{set_trace_mode, TraceMode};
use fastsc_workloads::Benchmark;
use rayon::prelude::*;
use std::hint::black_box;
use std::sync::Arc;

/// `n` jobs cycling XEB(`xeb.0` qubits, `xeb.1` layers), QAOA(`qaoa`) and
/// BV(`bv.0 + i % bv.1`) programs, seeded by slot, over all five
/// strategies — distinct programs, so nothing coalesces.
fn job_mix(n: usize, xeb: (usize, usize), qaoa: usize, bv: (usize, usize)) -> Vec<CompileJob> {
    let strategies = Strategy::all();
    (0..n)
        .map(|i| {
            let benchmark = match i % 3 {
                0 => Benchmark::Xeb(xeb.0, xeb.1),
                1 => Benchmark::Qaoa(qaoa),
                _ => Benchmark::Bv(bv.0 + i % bv.1),
            };
            CompileJob::new(benchmark.build(i as u64), strategies[i % strategies.len()])
        })
        .collect()
}

/// A fleet of `side`x`side` grids, one per seed, routed least-loaded with
/// result caching **disabled**: these benches measure dispatch, so every
/// run must really compile.
fn uncached_fleet(side: usize, seeds: &[u64]) -> CompileService {
    let service = CompileService::new(Composite::least_loaded());
    for &seed in seeds {
        service
            .add_shard(ShardSpec {
                cache_capacity: 0,
                ..ShardSpec::new(Device::grid(side, side, seed), CompilerConfig::default())
            })
            .expect("device frequency plan solves");
    }
    service
}

fn queue_over(service: CompileService, retry: RetryPolicy) -> QueueService {
    QueueService::new(
        service,
        QueueConfig {
            capacity: 64,
            backpressure: Backpressure::Block,
            max_batch: 32,
            retry,
            ..QueueConfig::default()
        },
    )
}

/// One saturated run: submit every job up front (four clients), then
/// wait for each. Returns the handles, every one of them done.
fn flood(queue: &QueueService, jobs: &[CompileJob]) -> Vec<JobHandle> {
    let handles: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            queue
                .submit(Submission::new(job.clone()).client(i as u64 % 4))
                .expect("block mode always admits")
        })
        .collect();
    assert!(handles.iter().all(|h| h.wait().is_ok()), "flood jobs compile");
    handles
}

/// Emulates the pre-work-stealing dispatch: the batch is split into
/// `chunks` contiguous runs and each run is one parallel item, compiled
/// inline on whichever worker claims it, so a run full of heavy jobs
/// serializes exactly like the old chunking.
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

/// `skewed_batch`: four dominating ColorDynamic XEB jobs leading 28 cheap
/// BV jobs on a two-device fleet. Under contiguous chunking the heavy
/// jobs share a chunk and serialize on one worker; work stealing spreads
/// them. The ratio row is `parallel` (stealing) over `parallel_chunked`.
fn skewed_batch() -> Vec<BenchRecord> {
    let strategies = Strategy::all();
    let mut jobs: Vec<CompileJob> = (0..4)
        .map(|i| CompileJob::new(Benchmark::Xeb(9, 28).build(i), Strategy::ColorDynamic))
        .collect();
    for i in 0..28u64 {
        jobs.push(CompileJob::new(Benchmark::Bv(5).build(i), strategies[(i % 5) as usize]));
    }
    let service = uncached_fleet(3, &[7, 11]);
    let threads = rayon::current_num_threads();
    let mut chunked = || {
        black_box(compile_chunked(&service, &jobs, threads));
    };
    let mut stealing = || {
        black_box(service.compile_batch(jobs.clone()));
    };
    let mut sequential = || {
        black_box(service.compile_batch_sequential(jobs.clone()));
    };
    let sampled = record::interleaved(
        record::samples(21, 25),
        &mut [&mut chunked as &mut dyn FnMut(), &mut stealing, &mut sequential],
    );
    let mut records =
        sampled.records("skewed_batch", &["parallel_chunked", "parallel", "sequential"]);
    records.push(sampled.ratio_record("skewed_batch", 1));
    records
}

/// `queue_saturated`: the saturated queue (admission, fair scheduling,
/// micro-batch handoff, per-job wakeups) over direct `compile_batch` on
/// an identical fleet.
fn queue_saturated() -> Vec<BenchRecord> {
    let jobs = job_mix(24, (9, 4), 8, (4, 5));
    let direct = uncached_fleet(3, &[7, 11]);
    let queued = queue_over(uncached_fleet(3, &[7, 11]), RetryPolicy::default());
    let mut batch = || {
        black_box(direct.compile_batch(jobs.clone()));
    };
    let mut saturate = || {
        black_box(flood(&queued, &jobs));
    };
    let sampled = record::interleaved(
        record::samples(21, 25),
        &mut [&mut batch as &mut dyn FnMut(), &mut saturate],
    );
    let mut records = sampled.records("queue_saturated", &["direct", "queued"]);
    records.push(sampled.ratio_record("queue_saturated", 1));
    records
}

/// `fault_free_overhead`: the `queue_saturated` flood with the default
/// `RetryPolicy` over `RetryPolicy::none()`, no faults injected — attempt
/// histories and shard exclusions must not tax healthy fleets.
fn fault_free_overhead() -> Vec<BenchRecord> {
    let jobs = job_mix(24, (9, 4), 8, (4, 5));
    let queues = [RetryPolicy::none(), RetryPolicy::default()]
        .map(|retry| queue_over(uncached_fleet(3, &[7, 11]), retry));
    let mut sides = queues.each_ref().map(|queue| {
        let jobs = &jobs;
        move || {
            black_box(flood(queue, jobs));
        }
    });
    let sampled = record::interleaved(record::samples(21, 25), &mut sides);
    let mut records = sampled.records("fault_free_overhead", &["no_retry", "retry"]);
    records.push(sampled.ratio_record("fault_free_overhead", 1));
    records
}

/// `server_roundtrip`: 8 jobs submitted and awaited one at a time — the
/// wire layer's worst case, since nothing amortises — over the loopback
/// TCP server as QASM, against the same serial loop through the
/// in-process queue on an identical single-device fleet.
fn server_roundtrip() -> Vec<BenchRecord> {
    let jobs = job_mix(8, (9, 3), 8, (4, 5));
    let payloads: Vec<(String, String)> =
        jobs.iter().map(|job| (to_qasm(&job.program), job.strategy.to_string())).collect();
    let direct = queue_over(uncached_fleet(3, &[7]), RetryPolicy::default());
    let server = Server::start(
        queue_over(uncached_fleet(3, &[7]), RetryPolicy::default()),
        // Limits that never throttle: the bench measures the wire, not
        // admission control.
        vec![TenantConfig {
            token: "bench-token".to_owned(),
            name: "bench".to_owned(),
            client: 0,
            max_inflight: 1024,
            rate_per_sec: 1_000_000.0,
            burst: 1_000_000,
        }],
    )
    .expect("loopback server starts");
    let mut client = Client::connect(server.addr()).expect("loopback connect");
    client.hello("bench-token").expect("token authenticates");
    let mut in_process = || {
        for job in &jobs {
            let handle = direct
                .submit(Submission::new(job.clone()).client(0))
                .expect("block mode always admits");
            assert!(handle.wait().is_ok(), "direct job compiles");
        }
    };
    let mut socket = || {
        for (qasm, strategy) in &payloads {
            let job = client.submit(qasm, strategy, "batch", None).expect("admitted");
            let outcome = client.wait(job, 60_000).expect("wait answers");
            assert!(outcome.is_some_and(|o| o.ok), "socket job compiles");
        }
    };
    let sampled = record::interleaved(
        record::samples(21, 25),
        &mut [&mut in_process as &mut dyn FnMut(), &mut socket],
    );
    let mut records = sampled.records("server_roundtrip", &["direct", "socket"]);
    records.push(sampled.ratio_record("server_roundtrip", 1));
    records
}

/// Every built-in policy preset, by bench label.
fn policies() -> [(&'static str, Box<dyn ShardPolicy>); 5] {
    [
        ("RoundRobin", Box::new(RoundRobin::new())),
        ("LeastLoaded", Box::new(Composite::least_loaded())),
        ("ProgramAffinity", Box::new(ProgramAffinity::new())),
        ("CapacityAware", Box::new(Composite::capacity_aware())),
        ("FidelityAware", Box::new(Composite::fidelity_aware())),
    ]
}

/// `routing_overhead`: warm 24-job batches (every job a result-cache hit,
/// so no compiling) through every built-in policy on a 1-shard and an
/// 8-shard fleet, recorded per batch as `<Policy>_<N>shard`. The ratio
/// row is FidelityAware over RoundRobin on 8 shards: consulting
/// calibration profiles may cost something, never an order of magnitude.
fn routing_overhead() -> Vec<BenchRecord> {
    // All programs pairwise distinct: a duplicate would pin to its twin's
    // shard without advancing stateful policies, leaking cold compiles
    // into the measurement.
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
    // One warm batch is ~tens of µs, the order of scheduler jitter, so a
    // side runs several per sample and records the per-batch median.
    const BATCHES: u128 = 8;
    let mut records = Vec::new();
    for shards in [1u64, 8] {
        let (names, fleets): (Vec<_>, Vec<_>) = policies()
            .into_iter()
            .map(|(name, policy)| {
                let service = CompileService::new(RoundRobin::new());
                for seed in 0..shards {
                    service
                        .add_shard(ShardSpec::new(
                            Device::grid(3, 3, 7 + seed),
                            CompilerConfig::default(),
                        ))
                        .expect("device frequency plan solves");
                }
                service.set_policy_boxed(policy);
                // Fill the caches. 24 jobs divide evenly over 1 or 8
                // shards, so every later batch finds a stateful policy
                // (the round-robin cursor) where this one left it.
                let failures =
                    service.compile_batch(jobs.clone()).iter().filter(|r| r.is_err()).count();
                assert_eq!(failures, 0, "warm-up batch must compile cleanly");
                (format!("{name}_{shards}shard"), service)
            })
            .unzip();
        let mut sides: Vec<_> = fleets
            .iter()
            .map(|service| {
                let jobs = &jobs;
                move || {
                    for _ in 0..BATCHES {
                        black_box(service.compile_batch(jobs.clone()));
                    }
                }
            })
            .collect();
        let sampled = record::interleaved(record::samples(21, 25), &mut sides);
        records.extend(sampled.records("routing_overhead", &names).into_iter().map(|mut r| {
            r.median_ns /= BATCHES;
            r
        }));
        if shards == 8 {
            records.push(sampled.ratio_record("routing_overhead", 4));
        }
    }
    records
}

/// `warm_start`: context build + first batch of a shard hydrated from a
/// pre-populated artifact store, over the identical cold sequence. The
/// subject must be *faster*: at most half the cold time, or persisting
/// artifacts has stopped paying for itself.
fn warm_start() -> Vec<BenchRecord> {
    let first_batch = || job_mix(10, (9, 4), 8, (4, 5));
    let boot = |store: Option<&Arc<ArtifactStore>>| {
        let service = CompileService::new(RoundRobin::new());
        service
            .add_shard(ShardSpec {
                store: store.cloned(),
                ..ShardSpec::new(Device::grid(3, 3, 7), CompilerConfig::default())
            })
            .expect("adds");
        black_box(service.compile_batch(first_batch()));
        service
    };
    let path = std::env::temp_dir()
        .join(format!("fastsc-warm-start-bench-{}.store", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let store = Arc::new(ArtifactStore::open(&path).expect("store opens"));
    // One full run with the store attached, drained so everything flushes.
    boot(Some(&store)).drain_shard(0);
    let mut cold = || {
        boot(None);
    };
    let mut warmed = || {
        boot(Some(&store));
    };
    let sampled = record::interleaved(
        record::samples(21, 25),
        &mut [&mut cold as &mut dyn FnMut(), &mut warmed],
    );
    drop(store);
    let _ = std::fs::remove_file(&path);
    let mut records = sampled.records("warm_start", &["cold", "warmed"]);
    records.push(sampled.ratio_record("warm_start", 1));
    records
}

/// `observability_overhead`: a saturated flood of representative 16-qubit
/// jobs (a job's tracing cost is fixed, so toy circuits would measure the
/// span clock) with tracing off, then fully on — every job recording a
/// complete span tree, drained like a real consumer would. Both sides
/// record metrics: each event is counted once by the record that owns it
/// (queue, shard, context), which has no off switch, so the row measures
/// tracing alone. Each side runs two floods per sample; the ratio is on
/// over off.
fn observability_overhead() -> Vec<BenchRecord> {
    let jobs = job_mix(24, (16, 6), 12, (8, 5));
    let queue = || queue_over(uncached_fleet(4, &[7, 11]), RetryPolicy::none());
    let (dark, lit) = (queue(), queue());
    let mut off = || {
        set_trace_mode(TraceMode::Off);
        for _ in 0..2 {
            black_box(flood(&dark, &jobs));
        }
    };
    let mut on = || {
        set_trace_mode(TraceMode::On);
        for _ in 0..2 {
            let handles = flood(&lit, &jobs);
            let trees = handles.iter().filter_map(|h| lit.take_trace(h.id())).count();
            assert_eq!(trees, handles.len(), "TraceMode::On must trace every job");
        }
    };
    let sampled = record::interleaved(
        record::samples(21, 25),
        &mut [&mut off as &mut dyn FnMut(), &mut on],
    );
    // Back to the process default.
    set_trace_mode(TraceMode::Off);
    let mut records = sampled.records("observability_overhead", &["disabled", "enabled"]);
    records.push(sampled.ratio_record("observability_overhead", 1));
    records
}

fn main() {
    println!("serving benches on {} worker thread(s)", rayon::current_num_threads());
    record::record(&skewed_batch());
    record::record(&queue_saturated());
    record::record(&fault_free_overhead());
    record::record(&server_roundtrip());
    record::record(&routing_overhead());
    record::record(&warm_start());
    record::record(&observability_overhead());
}
