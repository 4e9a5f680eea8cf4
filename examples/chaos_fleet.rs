//! Chaos demo: a three-shard fleet where one shard panics on every
//! compile until it "recovers". The circuit breaker trips the sick
//! shard into quarantine, the queue's retry policy fails jobs over to
//! the healthy shards, a probe restores the shard once its fault window
//! passes — and every admitted job still resolves exactly once, with
//! bit-identical output.
//!
//! ```console
//! $ cargo run --release --example chaos_fleet
//! ```

use fastsc::compiler::batch::CompileJob;
use fastsc::compiler::{CompilerConfig, Strategy};
use fastsc::device::Device;
use fastsc::queue::{QueueConfig, QueueService, RetryPolicy, Submission};
use fastsc::service::{
    BreakerConfig, CompileService, Composite, FaultInjector, FaultKind, FaultPlan, FaultRule,
    ShardSpec, ShardState,
};
use fastsc::workloads::Benchmark;
use std::sync::Arc;
use std::time::Duration;

const TOTAL_JOBS: u64 = 30;
/// Shard 0 panics on its first six compile attempts, then recovers.
const SICK_ATTEMPTS: u64 = 6;

fn main() {
    let service = CompileService::new(Composite::least_loaded());
    for seed in [7, 11, 13] {
        service
            .add_shard(ShardSpec::new(Device::grid(3, 3, seed), CompilerConfig::default()))
            .expect("device frequency plan solves");
    }
    // A deterministic fault plan: shard 0 panics on 100% of its first
    // SICK_ATTEMPTS compile attempts, then behaves.
    let plan = FaultPlan::new(5)
        .rule(FaultRule::new(FaultKind::Panic).on_shard(0).for_attempts(0..SICK_ATTEMPTS));
    let injector = Arc::new(FaultInjector::new(plan));
    service.set_fault_injector(Some(Arc::clone(&injector)));
    // An aggressive breaker so the demo trips quickly: two consecutive
    // failures open it, two jobs routed elsewhere earn a probe.
    service.set_breaker(Some(BreakerConfig { failure_threshold: 2, cooldown_jobs: 2 }));

    let queue = Arc::new(QueueService::new(
        service,
        QueueConfig {
            capacity: 8,
            max_batch: 4,
            retry: RetryPolicy {
                base_backoff: Duration::from_millis(1),
                ..RetryPolicy::default()
            },
            ..QueueConfig::default()
        },
    ));
    let mut feed = queue.telemetry_feed();

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
                        .submit(Submission::new(job).client(1))
                        .expect("block mode always admits")
                })
                .collect::<Vec<_>>()
        })
    };

    // Watch the breaker do its job: Closed -> Open (quarantined) ->
    // HalfOpen (probe) -> Closed again once the shard recovers.
    let mut last_state = ShardState::Active;
    loop {
        std::thread::sleep(Duration::from_millis(30));
        let snapshot = feed.poll();
        let sick = &snapshot.shards[0];
        if sick.state != last_state {
            match sick.state {
                ShardState::Quarantined => println!(
                    ">>> breaker OPEN: shard 0 quarantined after {} consecutive failures \
                     ({} trips so far) — traffic fails over",
                    sick.health.consecutive_failures, sick.health.breaker_trips
                ),
                ShardState::Active => println!(
                    ">>> breaker CLOSED: a probe compile succeeded, shard 0 restored \
                     (injected faults so far: {})",
                    injector.injected()
                ),
                other => println!(">>> shard 0 is now {other:?}"),
            }
            last_state = sick.state;
        }
        let line: Vec<String> = snapshot
            .shards
            .iter()
            .map(|view| {
                format!(
                    "shard {} [{:?}] load {} fail {}/{} rate {:.2}",
                    view.shard,
                    view.state,
                    view.load,
                    view.health.failures,
                    view.health.attempts,
                    view.error_rate()
                )
            })
            .collect();
        println!(
            "depth {:>2} | retried {:>2} | +{} done | {}",
            snapshot.stats.depth,
            snapshot.stats.retried,
            snapshot.delta.completed,
            line.join(" | ")
        );
        if snapshot.stats.completed == TOTAL_JOBS {
            break;
        }
    }

    // Every admitted job resolved exactly once despite the chaos, and
    // each surviving schedule equals a fresh compile on its shard.
    let handles = producer.join().expect("producer finishes");
    let mut per_shard = [0u64; 3];
    for handle in &handles {
        let reply = handle.wait().expect("every job survives the sick shard");
        per_shard[reply.shard] += 1;
    }
    let stats = queue.stats();
    println!(
        "\n{} jobs -> shards {:?} | retried {} | injected faults {}",
        TOTAL_JOBS,
        per_shard,
        stats.retried,
        injector.injected()
    );
    let health = queue.service().shard_views()[0].health;
    println!(
        "shard 0 health: {} attempts, {} failures, {} breaker trips, error rate {:.2}",
        health.attempts,
        health.failures,
        health.breaker_trips,
        health.error_rate()
    );
    assert_eq!(stats.completed, stats.admitted, "zero lost jobs");
}
