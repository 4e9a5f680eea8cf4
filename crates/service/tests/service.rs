//! Integration tests for the sharded compile service: routed, cached,
//! and work-stolen compilation must be observably identical to fresh
//! single-device compiles — bit for bit, for every strategy and policy —
//! and a single-device batch (a one-shard service) keeps job order and
//! isolates each job's failure in its own slot.

use fastsc_core::batch::CompileJob;
use fastsc_core::{CompileError, Compiler, CompilerConfig, Strategy};
use fastsc_device::Device;
use fastsc_service::{
    CompileService, Composite, ProgramAffinity, RoundRobin, ShardPolicy, ShardSpec,
};
use fastsc_workloads::Benchmark;

/// The two-device fleet every test routes over.
fn fleet() -> Vec<Device> {
    vec![Device::grid(3, 3, 7), Device::grid(3, 3, 11)]
}

/// A one-shard service over `device` with result caching off, so every
/// job of a batch really compiles.
fn one_shard_uncached(device: Device) -> CompileService {
    let service = CompileService::new(RoundRobin::new());
    service
        .add_shard(ShardSpec {
            cache_capacity: 0,
            ..ShardSpec::new(device, CompilerConfig::default())
        })
        .expect("registers");
    service
}

fn service_with(policy: impl ShardPolicy + 'static) -> CompileService {
    let service = CompileService::new(policy);
    for device in fleet() {
        service
            .add_shard(ShardSpec::new(device, CompilerConfig::default()))
            .expect("registers");
    }
    service
}

/// A mixed batch touching all five strategies and several benchmarks.
fn mixed_jobs() -> Vec<CompileJob> {
    let strategies = Strategy::all();
    (0..20)
        .map(|i| {
            let benchmark = match i % 3 {
                0 => Benchmark::Xeb(9, 3),
                1 => Benchmark::Qaoa(7),
                _ => Benchmark::Bv(6),
            };
            CompileJob::new(benchmark.build(i as u64), strategies[i % strategies.len()])
        })
        .collect()
}

#[test]
fn routed_compiles_are_bit_identical_to_fresh_single_device_compiles() {
    // Whatever shard a job lands on, its schedule must equal a fresh,
    // cold, sequential compile against that shard's device.
    for policy in [
        Box::new(RoundRobin::new()) as Box<dyn ShardPolicy>,
        Box::new(Composite::least_loaded()),
        Box::new(ProgramAffinity::new()),
    ] {
        let service = CompileService::new(RoundRobin::new());
        for device in fleet() {
            service
                .add_shard(ShardSpec::new(device, CompilerConfig::default()))
                .expect("registers");
        }
        service.set_policy_boxed(policy);
        let jobs = mixed_jobs();
        let replies = service.compile_batch(jobs.clone());
        assert_eq!(replies.len(), jobs.len());
        for (i, (reply, job)) in replies.iter().zip(&jobs).enumerate() {
            let reply = reply.as_ref().unwrap_or_else(|e| panic!("job {i} failed: {e}"));
            let fresh = Compiler::new(fleet()[reply.shard].clone(), CompilerConfig::default())
                .compile(&job.program, job.strategy)
                .expect("fresh compile succeeds");
            assert_eq!(
                reply.compiled.schedule, fresh.schedule,
                "job {i} on shard {} diverged from a fresh compile",
                reply.shard
            );
        }
    }
}

#[test]
fn warm_cache_hits_are_bit_identical_to_cold_compiles() {
    let service = service_with(ProgramAffinity::new());
    let jobs = mixed_jobs();
    let cold = service.compile_batch(jobs.clone());
    let warm = service.compile_batch(jobs.clone());
    for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
        let c = c.as_ref().expect("cold compiles");
        let w = w.as_ref().expect("warm compiles");
        assert!(!c.cache_hit, "first submission of job {i} cannot hit");
        assert!(w.cache_hit, "identical resubmission of job {i} must hit");
        assert_eq!(c.shard, w.shard, "affinity must re-route job {i} identically");
        assert_eq!(c.compiled.schedule, w.compiled.schedule, "job {i} hit diverged");
        // Deterministic stats survive the cache too (compile_time is
        // wall-clock provenance of the cold run and is shared as-is).
        assert_eq!(c.compiled.stats.swaps_inserted, w.compiled.stats.swaps_inserted);
        assert_eq!(c.compiled.stats.lowered_gate_count, w.compiled.stats.lowered_gate_count);
        assert_eq!(c.compiled.stats.max_colors_used, w.compiled.stats.max_colors_used);
    }
    // And the warm replies still match fresh single-device compiles.
    for (i, (w, job)) in warm.iter().zip(&jobs).enumerate() {
        let w = w.as_ref().expect("warm compiles");
        let fresh = Compiler::new(fleet()[w.shard].clone(), CompilerConfig::default())
            .compile(&job.program, job.strategy)
            .expect("fresh compile succeeds");
        assert_eq!(w.compiled.schedule, fresh.schedule, "warm job {i} diverged from fresh");
    }
}

#[test]
fn parallel_dispatch_matches_sequential_reference() {
    // Two services with identical registration: one runs the batch over
    // a 4-worker pool (real workers even on a single-core host), the
    // other inline. Replies must agree slot by slot (schedule,
    // deterministic stats, shard, and error).
    let parallel = service_with(RoundRobin::new());
    let sequential = service_with(RoundRobin::new());
    let mut jobs = mixed_jobs();
    // Poison two slots so error isolation is exercised across shards.
    jobs.insert(3, CompileJob::new(Benchmark::Bv(16).build(0), Strategy::ColorDynamic));
    jobs.insert(11, CompileJob::new(Benchmark::Bv(12).build(0), Strategy::BaselineG));
    let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().expect("pool");
    let par = pool.install(|| parallel.compile_batch(jobs.clone()));
    let seq = sequential.compile_batch_sequential(jobs);
    assert_eq!(par.len(), seq.len());
    for (i, (p, s)) in par.iter().zip(&seq).enumerate() {
        match (p, s) {
            (Ok(p), Ok(s)) => {
                assert_eq!(p.shard, s.shard, "slot {i} routed differently");
                assert_eq!(p.compiled.schedule, s.compiled.schedule, "slot {i} diverged");
                let (p, s) = (&p.compiled.stats, &s.compiled.stats);
                assert_eq!(p.swaps_inserted, s.swaps_inserted);
                assert_eq!(p.lowered_gate_count, s.lowered_gate_count);
                assert_eq!(p.max_colors_used, s.max_colors_used);
                assert_eq!(p.deferred_gates, s.deferred_gates);
            }
            (Err(pe), Err(se)) => assert_eq!(pe, se, "slot {i} errors diverged"),
            _ => panic!("slot {i}: parallel and sequential disagree on success"),
        }
    }
}

#[test]
fn all_strategies_roundtrip_through_the_service() {
    let service = service_with(RoundRobin::new());
    let program = Benchmark::Xeb(9, 4).build(42);
    for strategy in Strategy::all() {
        let replies = service.compile_batch(vec![CompileJob::new(program.clone(), strategy)]);
        let reply = replies[0].as_ref().expect("compiles");
        let fresh = Compiler::new(fleet()[reply.shard].clone(), CompilerConfig::default())
            .compile(&program, strategy)
            .expect("fresh compile succeeds");
        assert_eq!(reply.compiled.schedule, fresh.schedule, "{strategy} diverged");
    }
}

#[test]
fn distinct_devices_never_share_cache_entries() {
    // Same program, same strategy, two shards with different seeds: both
    // shards must compile cold (different device fingerprints), and their
    // schedules must differ (different fabrication variation).
    let service = CompileService::new(RoundRobin::new());
    service
        .add_shard(ShardSpec::new(Device::grid(3, 3, 1), CompilerConfig::default()))
        .expect("ok");
    service
        .add_shard(ShardSpec::new(Device::grid(3, 3, 2), CompilerConfig::default()))
        .expect("ok");
    let program = Benchmark::Xeb(9, 5).build(42);
    // Two single-job batches: within one batch identical jobs pin to one
    // shard by design, but round-robin state persists across batches, so
    // the resubmission lands on the other device.
    let job = || vec![CompileJob::new(program.clone(), Strategy::ColorDynamic)];
    let first = service.compile_batch_sequential(job());
    let second = service.compile_batch_sequential(job());
    let a = first[0].as_ref().expect("compiles");
    let b = second[0].as_ref().expect("compiles");
    assert_eq!((a.shard, b.shard), (0, 1));
    assert!(!a.cache_hit && !b.cache_hit, "different devices cannot share a cache line");
    assert_ne!(
        a.compiled.schedule, b.compiled.schedule,
        "different fabrication seeds must yield different schedules"
    );
}

#[test]
fn bounded_cache_evicts_but_stays_correct() {
    let service = CompileService::new(RoundRobin::new());
    service
        .add_shard(ShardSpec {
            cache_capacity: 2,
            ..ShardSpec::new(Device::grid(3, 3, 7), CompilerConfig::default())
        })
        .expect("registers");
    // 4 distinct programs through a capacity-2 cache.
    let jobs: Vec<CompileJob> = (0..4)
        .map(|i| CompileJob::new(Benchmark::Bv(5).build(i), Strategy::ColorDynamic))
        .collect();
    let cold = service.compile_batch_sequential(jobs.clone());
    assert!(cold.iter().all(|r| !r.as_ref().expect("compiles").cache_hit));
    let stats = service.cache_stats(0);
    assert_eq!(stats.len, 2, "cache must not exceed its capacity");
    // Resubmit in reverse order: the retained tail (jobs 3 and 2) hits,
    // the evicted head recompiles — to the identical schedule.
    let mut reversed = jobs.clone();
    reversed.reverse();
    let warm = service.compile_batch_sequential(reversed);
    let warm_hits: Vec<bool> =
        warm.iter().map(|r| r.as_ref().expect("compiles").cache_hit).collect();
    assert!(warm_hits[0] && warm_hits[1], "the retained FIFO tail must hit: {warm_hits:?}");
    for (slot, w) in warm.iter().enumerate() {
        let original = jobs.len() - 1 - slot;
        assert_eq!(
            cold[original].as_ref().expect("compiles").compiled.schedule,
            w.as_ref().expect("compiles").compiled.schedule,
            "job {original}: eviction changed a schedule"
        );
    }
}

#[test]
fn empty_batch_is_fine() {
    let service = one_shard_uncached(Device::grid(2, 2, 1));
    assert!(service.compile_batch(Vec::new()).is_empty());
    assert!(service.compile_batch_sequential(Vec::new()).is_empty());
}

#[test]
fn failing_job_does_not_poison_a_one_shard_batch() {
    // A 2x2 device: the 9-qubit programs are too wide and fail alone,
    // each with its own error in its own slot.
    let service = one_shard_uncached(Device::grid(2, 2, 5));
    let jobs = vec![
        CompileJob::new(Benchmark::Bv(4).build(1), Strategy::ColorDynamic),
        CompileJob::new(Benchmark::Bv(9).build(1), Strategy::ColorDynamic),
        CompileJob::new(Benchmark::Xeb(4, 2).build(1), Strategy::BaselineS),
        CompileJob::new(Benchmark::Qaoa(9).build(1), Strategy::BaselineU),
        CompileJob::new(Benchmark::Ising(4).build(1), Strategy::BaselineN),
    ];
    let results = service.compile_batch(jobs);
    let too_wide = |r: &Result<_, CompileError>| {
        matches!(r, Err(CompileError::ProgramTooWide { program: 9, device: 4 }))
    };
    assert!(results[0].is_ok());
    assert!(too_wide(&results[1]));
    assert!(results[2].is_ok());
    assert!(too_wide(&results[3]));
    assert!(results[4].is_ok());
}

#[test]
fn one_shard_batch_runs_on_the_registered_device() {
    // Every job of the batch runs on the one registered device: its
    // interaction frequencies stay inside that device's bands.
    let service = one_shard_uncached(Device::grid(3, 3, 7));
    let device = service.shard_device(0);
    assert_eq!(device.n_qubits(), 9);
    let jobs = vec![CompileJob::new(Benchmark::Xeb(9, 2).build(3), Strategy::ColorDynamic)];
    let reply = service.compile_batch(jobs).remove(0).expect("compiles");
    let partition = device.partition();
    for cycle in reply.compiled.schedule.cycles() {
        for g in &cycle.gates {
            if let Some(f) = g.interaction_freq {
                assert!(partition.interaction.contains(f));
            }
        }
    }
}
