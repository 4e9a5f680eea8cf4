//! Seeded chaos suite: floods a fault-injected multi-shard fleet with
//! concurrent traffic — injected panics, typed errors, added latency,
//! mid-flood drains, racing cancels — and pins the fault-tolerance
//! contract: every admitted job resolves exactly once, subscribers see
//! each completion exactly once, and every surviving schedule is
//! bit-identical to a fresh, cold, sequential compile on its shard's
//! device. Faults may change *where* and *when* a job compiles, never
//! *what* it compiles to.

use fastsc_core::batch::CompileJob;
use fastsc_core::{CompileError, Compiler, CompilerConfig, Strategy};
use fastsc_device::Device;
use fastsc_ir::Circuit;
use fastsc_queue::{
    Backpressure, JobHandle, JobId, QueueConfig, QueueService, RetryPolicy, Submission,
};
use fastsc_service::{
    BreakerConfig, CompileService, Composite, FaultInjector, FaultKind, FaultPlan, FaultRule,
    ShardSpec, ShardState,
};
use fastsc_workloads::Benchmark;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const DEVICE_SEEDS: [u64; 3] = [7, 11, 13];

fn fleet() -> Vec<Device> {
    DEVICE_SEEDS.iter().map(|&seed| Device::grid(3, 3, seed)).collect()
}

fn chaos_queue(plan: FaultPlan, breaker: BreakerConfig, retry: RetryPolicy) -> QueueService {
    let service = CompileService::new(Composite::least_loaded());
    for device in fleet() {
        service
            .add_shard(ShardSpec::new(device, CompilerConfig::default()))
            .expect("registers");
    }
    service.set_breaker(Some(breaker));
    service.set_fault_injector(Some(Arc::new(FaultInjector::new(plan))));
    QueueService::new(
        service,
        QueueConfig {
            capacity: 6,
            backpressure: Backpressure::Block,
            max_batch: 4,
            retry,
            ..QueueConfig::default()
        },
    )
}

fn program_for(seed: u64, index: u64) -> (Circuit, Strategy) {
    let width = 3 + (index as usize % 6);
    let strategy = Strategy::all()[index as usize % 5];
    (Benchmark::Bv(width).build(seed * 1000 + index), strategy)
}

/// One full chaos run for one plan seed. Shard 0 is flaky (panics and
/// typed errors), every shard can pick up injected latency, shard 2 is
/// drained mid-flood, and a handful of cancels race the retry machinery.
fn chaos_run(seed: u64) {
    let plan = FaultPlan::new(seed)
        .rule(FaultRule::new(FaultKind::Panic).on_shard(0).with_probability(0.5))
        .rule(FaultRule::new(FaultKind::Error).on_shard(0).with_probability(0.5))
        .rule(
            FaultRule::new(FaultKind::Latency(Duration::from_millis(1))).with_probability(0.3),
        );
    let breaker = BreakerConfig { failure_threshold: 3, cooldown_jobs: 4 };
    let retry =
        RetryPolicy { base_backoff: Duration::from_millis(1), ..RetryPolicy::default() };
    let queue = Arc::new(chaos_queue(plan, breaker, retry));
    let mut completions = queue.subscribe_all();

    let producers: Vec<_> = (0..2u64)
        .map(|client| {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                (0..12u64)
                    .map(|i| {
                        let index = client * 12 + i;
                        let (program, strategy) = program_for(seed, index);
                        let handle = queue
                            .submit(
                                Submission::new(CompileJob::new(program.clone(), strategy))
                                    .client(client),
                            )
                            .expect("block mode always admits");
                        (handle, program, strategy)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    // Shrink the fleet while the flood is in progress: pending failovers
    // must re-route around the draining shard, never strand on it.
    queue.service().drain_shard(2);
    let submitted: Vec<(JobHandle, Circuit, Strategy)> =
        producers.into_iter().flat_map(|p| p.join().expect("producer finishes")).collect();
    assert_eq!(submitted.len(), 24);

    // Race a few cancels against in-flight work and pending retries.
    // Whichever side wins must win exactly once.
    let mut cancelled_ids = Vec::new();
    for (handle, _, _) in submitted.iter().step_by(5) {
        if handle.cancel() {
            cancelled_ids.push(handle.id());
        }
    }

    let devices = fleet();
    let mut results: HashMap<JobId, bool> = HashMap::new();
    for (handle, program, strategy) in &submitted {
        let first = handle.wait();
        match (&first, &handle.wait()) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.shard, b.shard, "terminal results must be stable");
                assert_eq!(a.compiled.schedule, b.compiled.schedule);
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "terminal errors must be stable"),
            _ => panic!("a resolved job flipped between Ok and Err"),
        }
        assert!(!handle.cancel(), "resolved jobs are not cancellable");
        match &first {
            Ok(reply) => {
                let fresh =
                    Compiler::new(devices[reply.shard].clone(), CompilerConfig::default())
                        .compile(program, *strategy)
                        .expect("fresh compile succeeds");
                assert_eq!(
                    reply.compiled.schedule, fresh.schedule,
                    "{strategy}: survivor diverged from a fresh sequential compile \
                     (seed {seed}, shard {})",
                    reply.shard
                );
            }
            Err(CompileError::Cancelled) => {
                assert!(
                    cancelled_ids.contains(&handle.id()),
                    "job {} resolved Cancelled without a winning cancel",
                    handle.id()
                );
            }
            Err(CompileError::Exhausted { attempts }) => {
                assert!(
                    (2..=3).contains(&attempts.len()),
                    "exhaustion must carry 2..=3 attempts, got {}",
                    attempts.len()
                );
            }
            Err(other) => panic!("unexpected terminal error under chaos: {other}"),
        }
        assert!(results.insert(handle.id(), first.is_ok()).is_none());
    }

    // The subscriber stream delivers each admitted job exactly once.
    let mut seen: Vec<JobId> = (0..submitted.len())
        .map(|_| completions.next_timeout(Duration::from_secs(60)).expect("streams").0)
        .collect();
    assert!(
        completions.next_timeout(Duration::from_millis(20)).is_none(),
        "no duplicate deliveries"
    );
    seen.sort();
    let mut expected: Vec<JobId> = results.keys().copied().collect();
    expected.sort();
    assert_eq!(seen, expected, "subscriber-once violated (seed {seed})");

    // Counter identities: everything admitted landed in exactly one
    // terminal counter, and nothing was lost or double-counted.
    let stats = queue.stats();
    assert_eq!(stats.admitted, 24);
    assert_eq!(stats.completed + stats.cancelled, 24, "stats: {stats:?}");
    assert_eq!(stats.cancelled as usize, cancelled_ids.len());
    assert_eq!((stats.expired, stats.shed, stats.rejected), (0, 0, 0));
    assert_eq!(queue.service().shard_views()[2].load, 0, "drained shard ends idle");
}

#[test]
fn chaos_floods_resolve_exactly_once_and_stay_bit_identical() {
    for seed in [3, 17, 29] {
        chaos_run(seed);
    }
}

#[test]
fn panicking_shard_quarantines_probe_restores_and_nothing_hangs() {
    // The acceptance scenario: shard 0 panics on 100% of its first six
    // attempts, then recovers. Under a saturated queue the breaker must
    // trip it into quarantine, traffic must fail over, a probe must
    // restore it once healthy, and every admitted job must resolve —
    // zero hangs, zero double-resolves.
    let plan =
        FaultPlan::new(5).rule(FaultRule::new(FaultKind::Panic).on_shard(0).for_attempts(0..6));
    let breaker = BreakerConfig { failure_threshold: 2, cooldown_jobs: 2 };
    let retry =
        RetryPolicy { base_backoff: Duration::from_millis(1), ..RetryPolicy::default() };
    let queue = Arc::new(chaos_queue(plan, breaker, retry));
    let mut completions = queue.subscribe_all();

    let submitted: Vec<(JobHandle, Circuit, Strategy)> = (0..30u64)
        .map(|index| {
            let (program, strategy) = program_for(99, index);
            let handle = queue
                .submit(Submission::new(CompileJob::new(program.clone(), strategy)))
                .expect("block mode always admits");
            (handle, program, strategy)
        })
        .collect();

    let devices = fleet();
    for (handle, program, strategy) in &submitted {
        let reply = handle.wait().unwrap_or_else(|e| {
            panic!("every admitted job must complete despite the sick shard: {e}")
        });
        let fresh = Compiler::new(devices[reply.shard].clone(), CompilerConfig::default())
            .compile(program, *strategy)
            .expect("fresh compile succeeds");
        assert_eq!(
            reply.compiled.schedule, fresh.schedule,
            "{strategy}: recovery path diverged from a fresh sequential compile"
        );
    }
    for _ in 0..submitted.len() {
        assert!(
            completions.next_timeout(Duration::from_secs(60)).is_some(),
            "streams every job"
        );
    }
    assert!(completions.next_timeout(Duration::from_millis(20)).is_none(), "exactly once");

    let views = queue.service().shard_views();
    assert!(views[0].health.breaker_trips >= 1, "the sick shard must have tripped");

    // Keep trickling traffic until a probe restores shard 0: its fault
    // window is long past, so the breaker must close again.
    let mut extra = 0u64;
    while queue.service().shard_views()[0].state != ShardState::Active {
        assert!(extra < 60, "probe never restored the recovered shard");
        let (program, strategy) = program_for(123, extra);
        let handle =
            queue.submit(Submission::new(CompileJob::new(program, strategy))).expect("admits");
        assert!(handle.wait().is_ok(), "post-recovery traffic compiles");
        extra += 1;
    }
    let health = queue.service().shard_views()[0].health;
    assert!(health.failures >= 2, "the injected panics landed in the health counters");
    let stats = queue.stats();
    assert_eq!(stats.admitted, 30 + extra);
    assert_eq!(stats.completed, stats.admitted, "zero lost jobs");
    assert!(stats.retried >= 1, "failover must have happened");
}
