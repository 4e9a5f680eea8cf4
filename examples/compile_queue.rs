//! Compile-queue demo: two clients at different priorities flood a
//! two-device fleet through the async front end; the main thread
//! streams completions as micro-batches finish and prints the final
//! queue statistics.
//!
//! ```console
//! $ cargo run --release --example compile_queue
//! ```

use fastsc::compiler::batch::CompileJob;
use fastsc::compiler::{CompilerConfig, Strategy};
use fastsc::device::Device;
use fastsc::queue::{Backpressure, Priority, QueueConfig, QueueService, Submission};
use fastsc::service::{CompileService, Composite, ShardSpec};
use fastsc::workloads::Benchmark;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // A two-device fleet behind capacity-aware placement: programs wider
    // than a shard never route to it.
    let service = CompileService::new(Composite::capacity_aware());
    for device in [Device::grid(3, 3, 7), Device::grid(4, 4, 23)] {
        let shard = service
            .add_shard(ShardSpec::new(device, CompilerConfig::default()))
            .expect("device frequency plan solves");
        println!(
            "registered shard {shard}: {} qubits (seed {})",
            service.shard_device(shard).n_qubits(),
            service.shard_device(shard).seed()
        );
    }

    // A small queue with ShedOldest backpressure: when both clients
    // flood faster than the fleet compiles, the oldest speculative work
    // is sacrificed for fresher, more important jobs.
    let queue = Arc::new(QueueService::new(
        service,
        QueueConfig {
            capacity: 24,
            backpressure: Backpressure::ShedOldest,
            max_batch: 8,
            ..QueueConfig::default()
        },
    ));
    let mut completions = queue.subscribe_all();

    // Client 1: a user iterating interactively — every job matters.
    // Client 2: a speculative calibration sweep — nice to have.
    let producers: Vec<_> = [(1u64, Priority::Interactive), (2u64, Priority::Speculative)]
        .into_iter()
        .map(|(client, priority)| {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let strategies = Strategy::all();
                let mut submitted = 0;
                for i in 0..16u64 {
                    let benchmark = match i % 3 {
                        0 => Benchmark::Xeb(9, 6),
                        1 => Benchmark::Qaoa(8),
                        _ => Benchmark::Bv(6 + (i as usize % 8)),
                    };
                    let job = CompileJob::new(
                        benchmark.build(client * 100 + i),
                        strategies[i as usize % 5],
                    );
                    let submission = Submission::new(job)
                        .client(client)
                        .priority(priority)
                        .deadline_in(Duration::from_secs(30));
                    if queue.submit(submission).is_ok() {
                        submitted += 1;
                    }
                }
                println!("client {client} ({priority}) submitted {submitted} jobs");
                submitted
            })
        })
        .collect();
    let total: usize = producers.into_iter().map(|p| p.join().expect("producer runs")).sum();

    // Stream results in completion order — they arrive per micro-batch,
    // not all at once when everything is done.
    let mut outcomes = [0usize; 3]; // compiled / shed / expired
    for n in 0..total {
        let (id, result) =
            completions.next_timeout(Duration::from_secs(120)).expect("fleet drains the queue");
        match result {
            Ok(reply) => {
                outcomes[0] += 1;
                if n < 8 || n + 2 > total {
                    println!(
                        "  {id}: shard {} {}",
                        reply.shard,
                        if reply.cache_hit { "(served from cache)" } else { "(compiled)" }
                    );
                } else if n == 8 {
                    println!("  ...");
                }
            }
            Err(fastsc::compiler::CompileError::QueueFull) => outcomes[1] += 1,
            Err(fastsc::compiler::CompileError::Deadline) => outcomes[2] += 1,
            Err(error) => println!("  {id}: failed: {error}"),
        }
    }
    println!(
        "\n{} compiled, {} shed under pressure, {} expired",
        outcomes[0], outcomes[1], outcomes[2]
    );

    // The final snapshot: lifecycle counters, per-priority latency
    // percentiles, and the fleet's schedule-cache counters.
    let stats = queue.stats();
    println!("\nqueue stats:");
    println!(
        "  admitted {} | completed {} | shed {} | expired {} | rejected {}",
        stats.admitted, stats.completed, stats.shed, stats.expired, stats.rejected
    );
    for priority in Priority::all() {
        let latency = stats.latency(priority);
        if latency.count > 0 {
            println!(
                "  {priority:<12} p50 {:>9.2?}  p90 {:>9.2?}  p99 {:>9.2?}  ({} completions)",
                latency.p50, latency.p90, latency.p99, latency.count
            );
        }
    }
    println!(
        "  cache: {} hits / {} misses / {} evictions across {} shards",
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions,
        queue.service().shard_count()
    );
}
