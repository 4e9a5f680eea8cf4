//! Compile-service demo: a three-device fleet behind the shard router,
//! compiling one skewed mixed batch, then resubmitting it to show the
//! whole-schedule result cache serving repeat traffic.
//!
//! ```console
//! $ cargo run --release --example compile_service
//! ```

use fastsc::compiler::batch::CompileJob;
use fastsc::compiler::{CompilerConfig, Strategy};
use fastsc::device::Device;
use fastsc::service::{CompileService, Composite, ShardSpec};
use fastsc::workloads::Benchmark;
use std::time::Instant;

fn main() {
    // A heterogeneous fleet: two 3x3 meshes with different fabrication
    // seeds and one 4x4 mesh. Registration builds each shard's compile
    // context (crosstalk graph, parking plan, SMT memo) exactly once.
    let service = CompileService::new(Composite::least_loaded());
    for device in [Device::grid(3, 3, 7), Device::grid(3, 3, 11), Device::grid(4, 4, 23)] {
        let shard = service
            .add_shard(ShardSpec::new(device, CompilerConfig::default()))
            .expect("device frequency plan solves");
        println!(
            "registered shard {shard}: {} qubits (seed {})",
            service.shard_device(shard).n_qubits(),
            service.shard_device(shard).seed()
        );
    }

    // A skewed batch: a few heavy XEB jobs up front, a tail of cheap BV
    // programs, all five strategies mixed in. The router assigns jobs to
    // shards; the work-stealing pool keeps every core busy even though
    // job costs differ by orders of magnitude.
    let strategies = Strategy::all();
    let mut jobs: Vec<CompileJob> = (0..3)
        .map(|i| CompileJob::new(Benchmark::Xeb(9, 24).build(i), Strategy::ColorDynamic))
        .collect();
    for i in 0..20u64 {
        let benchmark = if i % 2 == 0 { Benchmark::Bv(6) } else { Benchmark::Qaoa(7) };
        jobs.push(CompileJob::new(benchmark.build(i), strategies[i as usize % 5]));
    }
    // One job too wide for every shard: per-job isolation keeps its
    // failure in its own slot (and failures are never cached).
    jobs.push(CompileJob::new(Benchmark::Bv(25).build(0), Strategy::ColorDynamic));

    println!("\ncompiling {} jobs across {} shards...", jobs.len(), service.shard_count());
    let start = Instant::now();
    let cold = service.compile_batch(jobs.clone());
    let cold_time = start.elapsed();

    let mut per_shard = vec![0usize; service.shard_count()];
    for reply in cold.iter().flatten() {
        per_shard[reply.shard] += 1;
    }
    let failures = cold.iter().filter(|r| r.is_err()).count();
    println!(
        "cold batch: {:?}  (jobs per shard: {:?}, failures: {failures})",
        cold_time, per_shard
    );

    // Resubmit the identical batch: every job is served from the
    // whole-schedule result cache, bit-identical to the cold run.
    let start = Instant::now();
    let warm = service.compile_batch(jobs);
    let warm_time = start.elapsed();
    let hits = warm.iter().flatten().filter(|r| r.cache_hit).count();
    println!("warm batch: {:?}  ({hits}/{} cache hits)", warm_time, warm.len());

    for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
        if let (Ok(c), Ok(w)) = (c, w) {
            assert_eq!(c.compiled.schedule, w.compiled.schedule, "job {i} diverged");
        }
    }
    println!("verified: warm schedules are identical to cold schedules");

    for shard in 0..service.shard_count() {
        let stats = service.cache_stats(shard);
        println!(
            "shard {shard} cache: {} entries, {} hits / {} misses",
            stats.len, stats.hits, stats.misses
        );
    }
}
