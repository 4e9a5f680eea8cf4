//! Integration tests for the async compile queue: determinism under
//! contention, multi-producer fairness, and the lossless-delivery
//! contract of the shed/deadline paths.

use fastsc_core::batch::CompileJob;
use fastsc_core::{CompileError, Compiler, CompilerConfig, Strategy};
use fastsc_device::Device;
use fastsc_queue::{
    Backpressure, JobHandle, JobId, Priority, QueueConfig, QueueService, Submission,
};
use fastsc_service::{CompileService, Composite, ShardSpec};
use fastsc_workloads::Benchmark;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fleet() -> Vec<Device> {
    vec![Device::grid(3, 3, 7), Device::grid(3, 3, 11)]
}

fn two_shard_queue(config: QueueConfig) -> QueueService {
    let service = CompileService::new(Composite::least_loaded());
    for device in fleet() {
        service
            .add_shard(ShardSpec::new(device, CompilerConfig::default()))
            .expect("registers");
    }
    QueueService::new(service, config)
}

#[test]
fn queued_compiles_are_bit_identical_to_fresh_sequential_compiles() {
    // Three producer threads flood the queue concurrently — contention
    // over admission, dispatch batching, shard routing, and the result
    // cache. Whatever shard each job lands on, its schedule must equal a
    // fresh, cold, sequential compile on that shard's device, for every
    // strategy.
    let queue = Arc::new(two_shard_queue(QueueConfig {
        capacity: 8,
        backpressure: Backpressure::Block,
        max_batch: 4,
        subscriber_buffer: QueueConfig::default().subscriber_buffer,
        ..QueueConfig::default()
    }));
    let producers: Vec<_> = (0..3u64)
        .map(|producer| {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                Strategy::all()
                    .into_iter()
                    .enumerate()
                    .map(|(i, strategy)| {
                        let program = match producer {
                            0 => Benchmark::Xeb(9, 3).build(i as u64),
                            1 => Benchmark::Qaoa(7).build(i as u64),
                            _ => Benchmark::Bv(4 + i).build(3),
                        };
                        let job = CompileJob::new(program.clone(), strategy);
                        let handle = queue
                            .submit(Submission::new(job).client(producer))
                            .expect("block mode always admits");
                        (program, strategy, handle)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for producer in producers {
        for (program, strategy, handle) in producer.join().expect("producer finishes") {
            let reply = handle.wait().expect("compiles");
            let fresh = Compiler::new(fleet()[reply.shard].clone(), CompilerConfig::default())
                .compile(&program, strategy)
                .expect("fresh compile succeeds");
            assert_eq!(
                reply.compiled.schedule, fresh.schedule,
                "{strategy}: queued schedule diverged from a fresh sequential compile"
            );
        }
    }
    let stats = queue.stats();
    assert_eq!((stats.admitted, stats.completed), (15, 15));
    assert_eq!((stats.rejected, stats.shed, stats.expired, stats.cancelled), (0, 0, 0, 0));
}

#[test]
fn saturated_queue_serves_every_class_and_client_in_the_first_batch() {
    // Deterministic fairness: pause the dispatcher, let two tenants fill
    // the queue with all three classes, then resume. The first
    // micro-batch (7 jobs) must follow the weighted 4:2:1 split and
    // alternate clients — neither the flooding of one tenant nor a wall
    // of interactive work may starve anyone.
    let queue = two_shard_queue(QueueConfig {
        capacity: 16,
        backpressure: Backpressure::Block,
        max_batch: 7,
        subscriber_buffer: QueueConfig::default().subscriber_buffer,
        ..QueueConfig::default()
    });
    queue.pause();
    let mut completions = queue.subscribe_all();
    let mut handles: Vec<JobHandle> = Vec::new();
    let mut class_of: HashMap<JobId, Priority> = HashMap::new();
    let mut client_of: HashMap<JobId, u64> = HashMap::new();
    for client in [1u64, 2] {
        let mix =
            [(Priority::Interactive, 4), (Priority::Batch, 2), (Priority::Speculative, 2)];
        for (priority, count) in mix {
            for i in 0..count {
                // Distinct programs so nothing coalesces away.
                let width = 3 + (client as usize * 3 + priority.rank()) % 6;
                let job = CompileJob::new(
                    Benchmark::Bv(width).build(client * 100 + priority.rank() as u64 * 10 + i),
                    Strategy::all()[i as usize % 5],
                );
                let handle = queue
                    .submit(Submission::new(job).client(client).priority(priority))
                    .expect("fits the paused queue");
                class_of.insert(handle.id(), priority);
                client_of.insert(handle.id(), client);
                handles.push(handle);
            }
        }
    }
    queue.resume();
    let first_batch: Vec<JobId> = (0..7)
        .map(|_| completions.next_timeout(Duration::from_secs(60)).expect("completes").0)
        .collect();
    let mut class_counts = [0usize; 3];
    let mut clients_seen = std::collections::HashSet::new();
    for id in &first_batch {
        class_counts[class_of[id].rank()] += 1;
        clients_seen.insert(client_of[id]);
    }
    assert_eq!(class_counts, [4, 2, 1], "first batch must honor the 4:2:1 weights");
    assert_eq!(clients_seen.len(), 2, "both tenants must be served in the first batch");
    for handle in &handles {
        assert!(handle.wait().is_ok(), "every admitted job completes");
    }
    let stats = queue.stats();
    assert_eq!((stats.admitted, stats.completed), (16, 16));
    assert!(stats.latency(Priority::Speculative).count > 0, "speculative work progressed");
}

#[test]
fn shed_and_deadline_paths_never_lose_or_duplicate_a_result() {
    let queue = two_shard_queue(QueueConfig {
        capacity: 8,
        backpressure: Backpressure::ShedOldest,
        max_batch: 8,
        subscriber_buffer: QueueConfig::default().subscriber_buffer,
        ..QueueConfig::default()
    });
    queue.pause();
    let mut completions = queue.subscribe_all();
    let mut handles: Vec<JobHandle> = Vec::new();
    // Two jobs whose deadline has already passed: they hold queue slots
    // until the drain expires them.
    for width in [3usize, 4] {
        let job = CompileJob::new(Benchmark::Bv(width).build(1), Strategy::ColorDynamic);
        handles.push(
            queue
                .submit(
                    Submission::new(job).deadline_at(Instant::now() - Duration::from_millis(1)),
                )
                .expect("admits"),
        );
    }
    // Six live batch-class jobs fill the queue to capacity.
    for width in 3..9usize {
        let job = CompileJob::new(Benchmark::Bv(width).build(2), Strategy::ColorDynamic);
        handles.push(queue.submit(Submission::new(job)).expect("admits"));
    }
    // Four speculative newcomers against a full queue of batch-class
    // work: nothing of their own class is queued, so each is
    // admitted-and-shed on the spot (shedding never evicts upward).
    for i in 0..4u64 {
        let job = CompileJob::new(Benchmark::Bv(5).build(10 + i), Strategy::ColorDynamic);
        handles.push(
            queue.submit(Submission::new(job).priority(Priority::Speculative)).expect("admits"),
        );
    }
    queue.resume();

    // Every handle resolves exactly once; tally the outcomes.
    let mut compiled = 0;
    let mut shed = 0;
    let mut expired = 0;
    for handle in &handles {
        match handle.wait() {
            Ok(_) => compiled += 1,
            Err(CompileError::QueueFull) => shed += 1,
            Err(CompileError::Deadline) => expired += 1,
            Err(other) => panic!("unexpected outcome: {other}"),
        }
    }
    assert_eq!((compiled, shed, expired), (6, 4, 2));

    // The subscriber saw each admitted job exactly once — no loss, no
    // duplication, whatever path the job took.
    let mut seen: Vec<JobId> = Vec::new();
    for _ in 0..handles.len() {
        let (id, _) = completions.next_timeout(Duration::from_secs(60)).expect("delivered");
        seen.push(id);
    }
    assert!(
        completions.next_timeout(Duration::from_millis(20)).is_none(),
        "exactly one delivery per admitted job"
    );
    seen.sort();
    let mut expected: Vec<JobId> = handles.iter().map(JobHandle::id).collect();
    expected.sort();
    assert_eq!(seen, expected);

    let stats = queue.stats();
    assert_eq!(stats.admitted, 12);
    assert_eq!((stats.completed, stats.shed, stats.expired), (6, 4, 2));
    assert_eq!(stats.depth, 0);
    // The expired and shed jobs never reached a compiler: exactly the
    // six live programs (all distinct) were compiled, cold.
    assert_eq!((stats.cache.misses, stats.cache.hits), (6, 0));
}

#[test]
fn streaming_results_arrive_as_batches_complete_not_at_the_end() {
    // With micro-batches of 2 and six jobs, a subscriber must observe
    // completions strictly before the last job finishes — streaming, not
    // collect-then-deliver.
    let queue = two_shard_queue(QueueConfig {
        capacity: 16,
        backpressure: Backpressure::Block,
        max_batch: 2,
        subscriber_buffer: QueueConfig::default().subscriber_buffer,
        ..QueueConfig::default()
    });
    queue.pause();
    let mut completions = queue.subscribe_all();
    let handles: Vec<JobHandle> = (0..6)
        .map(|i| {
            let job = CompileJob::new(Benchmark::Bv(3 + i).build(7), Strategy::ColorDynamic);
            queue.submit(Submission::new(job)).expect("admits")
        })
        .collect();
    queue.resume();
    let (first_id, first) = completions.next_timeout(Duration::from_secs(60)).expect("streams");
    assert!(first.is_ok());
    // At the moment the first completion streams out, the last job of
    // the six cannot have finished (batches of 2, in order).
    assert_eq!(first_id, handles[0].id(), "completion order follows dispatch order");
    for handle in &handles {
        assert!(handle.wait().is_ok());
    }
}

#[test]
fn cancel_during_contention_resolves_exactly_once() {
    let queue = two_shard_queue(QueueConfig {
        capacity: 32,
        backpressure: Backpressure::Block,
        max_batch: 4,
        subscriber_buffer: QueueConfig::default().subscriber_buffer,
        ..QueueConfig::default()
    });
    queue.pause();
    let handles: Vec<JobHandle> = (0..8)
        .map(|i| {
            let job =
                CompileJob::new(Benchmark::Bv(3 + i % 6).build(i as u64), Strategy::BaselineN);
            queue.submit(Submission::new(job)).expect("admits")
        })
        .collect();
    // Cancel every other job while the queue is held.
    let mut cancelled = 0;
    for handle in handles.iter().step_by(2) {
        if handle.cancel() {
            cancelled += 1;
        }
    }
    assert_eq!(cancelled, 4, "paused jobs are still queued, so all cancels win");
    queue.resume();
    for (i, handle) in handles.iter().enumerate() {
        let result = handle.wait();
        if i % 2 == 0 {
            assert!(matches!(result, Err(CompileError::Cancelled)));
        } else {
            assert!(result.is_ok());
        }
    }
    let stats = queue.stats();
    assert_eq!((stats.cancelled, stats.completed), (4, 4));
}
