//! Fleet-autoscaling demo: an operator loop watches
//! `QueueService::telemetry_feed()` and scales the shard fleet against
//! live queue depth — adding a healthy chip under load, then draining
//! the noisier chip once the burst has passed. Placement is
//! fidelity-aware, so as soon as the healthier chip joins, critical
//! traffic prefers it.
//!
//! ```console
//! $ cargo run --release --example fleet_autoscale
//! ```

use fastsc::compiler::batch::CompileJob;
use fastsc::compiler::{CompilerConfig, Strategy};
use fastsc::device::{Device, DeviceBuilder};
use fastsc::queue::{Priority, QueueConfig, QueueService, Submission};
use fastsc::service::{CompileService, Composite, ShardSpec, ShardState};
use fastsc::workloads::Benchmark;
use std::sync::Arc;
use std::time::Duration;

const TOTAL_JOBS: u64 = 32;
const SCALE_UP_DEPTH: usize = 6;

/// A 3x3 chip with the given coherence times (shorter = noisier = lower
/// `estimated_success`).
fn chip(seed: u64, t1_us: f64, t2_us: f64) -> Device {
    let mut builder = DeviceBuilder::new(fastsc::graph::topology::grid(3, 3));
    builder.seed(seed).coherence(t1_us, t2_us);
    builder.build()
}

fn main() {
    // The fleet starts as a single, mediocre chip.
    let service = CompileService::new(Composite::fidelity_aware());
    service
        .add_shard(ShardSpec::new(chip(7, 12.0, 9.0), CompilerConfig::default()))
        .expect("device frequency plan solves");
    let queue = Arc::new(QueueService::new(
        service,
        QueueConfig { capacity: 16, max_batch: 4, ..QueueConfig::default() },
    ));
    let mut feed = queue.telemetry_feed();

    // A client floods the queue faster than one chip compiles.
    let producer = {
        let queue = Arc::clone(&queue);
        std::thread::spawn(move || {
            let strategies = Strategy::all();
            (0..TOTAL_JOBS)
                .map(|i| {
                    let benchmark = match i % 3 {
                        0 => Benchmark::Xeb(9, 4),
                        1 => Benchmark::Qaoa(7),
                        _ => Benchmark::Bv(4 + (i as usize % 5)),
                    };
                    let job = CompileJob::new(benchmark.build(i), strategies[i as usize % 5]);
                    queue
                        .submit(Submission::new(job).client(1).priority(Priority::Interactive))
                        .expect("block mode always admits")
                })
                .collect::<Vec<_>>()
        })
    };

    // The operator loop: poll the feed, scale against what it reports.
    let mut scaled_up = false;
    loop {
        std::thread::sleep(Duration::from_millis(30));
        let snapshot = feed.poll();
        let shard_line: Vec<String> = snapshot
            .shards
            .iter()
            .map(|view| {
                format!(
                    "shard {} [{:?}] load {} est_success {:.3} ewma {:?}",
                    view.shard,
                    view.state,
                    view.load,
                    view.estimated_success(),
                    view.ewma_compile_latency
                )
            })
            .collect();
        println!(
            "depth {:>2} | inflight {:>2} | +{} done this poll | {}",
            snapshot.stats.depth,
            snapshot.stats.inflight,
            snapshot.delta.completed,
            shard_line.join(" | ")
        );

        // Scale up: sustained depth with the fleet saturated.
        if !scaled_up && snapshot.stats.depth >= SCALE_UP_DEPTH {
            let shard = queue
                .service()
                .add_shard(ShardSpec::new(chip(23, 60.0, 45.0), CompilerConfig::default()))
                .expect("device frequency plan solves");
            scaled_up = true;
            println!(
                ">>> depth {} ≥ {}: added healthy shard {} (est_success {:.3} vs {:.3}) — \
                 fidelity-aware routing now prefers it",
                snapshot.stats.depth,
                SCALE_UP_DEPTH,
                shard,
                queue.service().shard_profile(shard).estimated_success,
                queue.service().shard_profile(0).estimated_success,
            );
        }

        if snapshot.stats.completed == TOTAL_JOBS {
            break;
        }
    }

    // The burst is over: drain the noisier chip while the healthy one
    // keeps serving. Drain blocks until the shard is idle — nothing
    // admitted is ever lost.
    if scaled_up {
        println!(">>> queue idle: draining noisy shard 0 (fleet keeps serving on shard 1)");
        queue.service().drain_shard(0);
        println!(
            ">>> shard 0 is {:?}; its cache counters stay in the fleet totals",
            queue.service().shard_state(0)
        );
        assert_eq!(queue.service().shard_state(0), ShardState::Draining);
    }

    // Every admitted job resolved exactly once, scaling notwithstanding.
    let handles = producer.join().expect("producer finishes");
    let mut per_shard = [0u64; 2];
    for handle in &handles {
        per_shard[handle.wait().expect("compiles").shard] += 1;
    }
    let stats = queue.stats();
    println!(
        "\n{} jobs: {} on noisy shard 0, {} on healthy shard 1 (added mid-burst)",
        TOTAL_JOBS, per_shard[0], per_shard[1]
    );
    println!(
        "admitted {} completed {} | cache {} hits / {} misses",
        stats.admitted, stats.completed, stats.cache.hits, stats.cache.misses
    );
    let final_view = feed.poll();
    for view in final_view.shards {
        println!(
            "final: shard {} [{:?}] est_success {:.3} cache hit rate {:.0}%",
            view.shard,
            view.state,
            view.estimated_success(),
            100.0 * view.cache_hit_rate()
        );
    }
}
