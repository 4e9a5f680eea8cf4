//! `scale_partitioned` (warm, closed loop, one caller): the 256- and
//! 1024-qubit tiers of `fastsc_workloads::scale_tiers()` compiled with
//! `CompilerConfig::with_partition(tier.partition_cap)` under all five
//! strategies, over contexts built and warmed in set-up. Partition
//! planning, region compiles and stitching run only here. Baseline G
//! compiles on the same context as Baseline S: the engine does not read
//! the coupler kind, so a tunable-coupler copy would only solve the same
//! region statics a second time.
//!
//! The timed phase runs with the rayon pool capped at one worker, so
//! regions compile one after another on that worker's thread, which is
//! the thread each job's CPU time is read on. On a
//! two-vCPU host the default two-worker fan-out made throughput swing
//! between runs by more than any bound the benchmark could hold
//! (264–649 jobs/s across and within runs, against 628–745 with one
//! worker). The traced run measures what the fan-out costs or saves as
//! `partition.fanout_ratio_permille`: the default pool against one
//! worker, on the same job, back to back.
//!
//! Baseline S and G currently panic on every 1024-qubit call
//! (`smt_find`'s `k > 0` assertion, reached from a coupling-free
//! region's statics). Those jobs are attempted, caught and counted as
//! failures like any other.

use crate::check::Verified;
use crate::clock::{reference_s, thread_cpu_s};
use crate::inputs::{scale_jobs, PassOrder};
use crate::layers::{self, Layers, Trace, MAX_TRACED_JOBS};
use crate::stats::{QualityInputs, Report, Tally};
use crate::{timed_setups, traced_phases, Args};
use fastsc_core::{Compiler, CompilerConfig, Strategy};
use fastsc_device::Device;
use fastsc_ir::Circuit;
use fastsc_noise::{estimate, NoiseConfig};
use fastsc_workloads::ScaleTier;
use std::time::Instant;

/// The pool the timed phase runs in: one worker.
fn one_worker() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("infallible")
}

/// One tier's compilers and program.
struct Tier {
    tier: ScaleTier,
    partitioned: Compiler,
    /// Whole-device compiler of the same device, for the traced run's
    /// paired comparison only.
    whole: Option<Compiler>,
    program: Circuit,
}

/// Workload state: the tiers, the job list, and warm-up failures (a
/// failing job fails again, and is counted, in the timed phase).
struct State {
    tiers: Vec<Tier>,
    jobs: Vec<(usize, Strategy)>,
    /// The warm-up pass's schedules, for the untimed quality estimate.
    quality: QualityInputs,
    warmup_failures: Vec<String>,
}

/// Builds each tier's context and runs the untimed warm-up pass (region
/// statics, SMT memo fill), which keeps the output-checked schedules
/// quality is estimated from. Traced, it also builds and warms a
/// whole-device context per tier for the paired comparison.
fn setup(trace: Trace<'_>) -> State {
    let mut tiers: Vec<Tier> = Vec::new();
    let mut warmup_failures = Vec::new();
    let mut jobs = Vec::new();
    for (tier, strategy) in scale_jobs() {
        let index = match tiers.iter().position(|t| t.tier == tier) {
            Some(index) => index,
            None => {
                let device = Device::grid(tier.side, tier.side, tier.seed);
                let mut compiler = |config: CompilerConfig| {
                    if let Some((layers, parent)) = trace {
                        layers::graph_and_coloring(layers, parent, &device, &config);
                    }
                    match layers::context(trace, device.clone(), config, false) {
                        Ok(ctx) => Compiler::with_context(ctx),
                        Err(e) => {
                            warmup_failures.push(format!("context: {e}"));
                            Compiler::new(device.clone(), config)
                        }
                    }
                };
                let partitioned = compiler(CompilerConfig::with_partition(tier.partition_cap));
                let whole = trace.map(|_| compiler(CompilerConfig::default()));
                tiers.push(Tier { tier, partitioned, whole, program: tier.circuit() });
                tiers.len() - 1
            }
        };
        jobs.push((index, strategy));
    }
    let mut quality = QualityInputs::default();
    for &(t, strategy) in &jobs {
        let tier = &tiers[t];
        if let Some(whole) = &tier.whole {
            std::hint::black_box(layers::compile(None, whole, &tier.program, strategy).ok());
        }
        let device = tier.partitioned.device();
        let out = layers::compile(None, &tier.partitioned, &tier.program, strategy)
            .and_then(|c| quality.record_checked(t, strategy, device, c));
        if let Err(e) = out {
            warmup_failures.push(format!("{}q {strategy}: {e}", tier.tier.n_qubits()));
        }
    }
    State { tiers, jobs, quality, warmup_failures }
}

/// The timed phase: seeded passes over the jobs until `args.seconds`
/// (or, in a traced run, [`MAX_TRACED_JOBS`] jobs) have gone by. A job's
/// latency is the CPU time ([`thread_cpu_s`]) of its compile on the
/// pool's one worker, which runs every region; a pass lasts the sum of
/// its jobs, and the output checks between jobs are excluded.
/// Traced, a job's latency runs from opening its span to the end of its
/// span-wrapped compile. After it, outside the latency, the job is
/// routed and lowered on its own, estimated, and compiled again on the
/// whole-device context and with the default (fan-out) pool, for the
/// paired comparisons.
fn timed(state: &State, args: &Args, layers: Option<&Layers>) -> Tally {
    let mut tally = Tally::default();
    let mut verified = Verified::default();
    let mut order = PassOrder::new(args.seed, state.jobs.len());
    let cap = if args.trace { MAX_TRACED_JOBS } else { u64::MAX };
    let pool = one_worker();
    let deadline = Instant::now() + args.seconds;
    while Instant::now() < deadline && tally.attempted < cap {
        for &i in order.next_pass() {
            if tally.reference_due() {
                tally.reference(pool.install(reference_s));
            }
            let (t, strategy) = state.jobs[i];
            let tier = &state.tiers[t];
            let root = layers.map(|l| {
                let mut root = l.root("job");
                root.attr("strategy", u64::from(strategy.stable_code()));
                root.attr("tier", tier.tier.n_qubits());
                root
            });
            let trace = layers.zip(root.as_ref());
            let (out, latency) = pool.install(|| {
                let start = thread_cpu_s();
                let out = layers::compile(trace, &tier.partitioned, &tier.program, strategy);
                (out, thread_cpu_s() - start)
            });
            let latency = tally.spent(latency);
            if let Some((l, r)) = trace {
                layers::route_and_lower(l, r, &tier.partitioned, &tier.program);
                if let Some(whole) = &tier.whole {
                    let mut span = l.span(r, "compile_whole");
                    let ok =
                        pool.install(|| layers::compile(None, whole, &tier.program, strategy));
                    span.attr("ok", ok.is_ok());
                }
                let mut span = l.span(r, "compile_fanout");
                let ok = layers::compile(None, &tier.partitioned, &tier.program, strategy);
                span.attr("ok", ok.is_ok());
            }
            if let (Some((l, r)), Ok(c)) = (trace, &out) {
                let device = tier.partitioned.device();
                l.call(r, "estimate", || {
                    estimate(device, &c.schedule, &NoiseConfig::default())
                });
            }
            let compiled = match out {
                Ok(c) => c,
                Err(e) => {
                    tally.fail(format!("{}q {strategy}: {e}", tier.tier.n_qubits()));
                    continue;
                }
            };
            let device = tier.partitioned.device();
            match verified.check(i, device, &compiled.schedule, strategy, 1) {
                Ok(_) => tally.ok(latency),
                Err(v) => tally.wrong(format!("output check: {v}")),
            }
        }
        tally.end_pass();
    }
    tally
}

/// The end-to-end run.
pub fn run(args: &Args) -> Report {
    let (state, setup_s) = timed_setups(|| setup(None));
    let tally = timed(&state, args, None);
    let mut report = Report::end_to_end(&setup_s, &tally, &state.quality.quality());
    report.notes.extend(state.warmup_failures.iter().map(|f| format!("warm-up failure: {f}")));
    report
}

/// The traced run: untraced and traced phases over one set-up.
pub fn run_traced(args: &Args) -> Report {
    let layers = Layers::new();
    let state = {
        let root = layers.root("setup");
        setup(Some((&layers, &root)))
    };
    let (traced, overhead) =
        traced_phases(args, |args, traced| timed(&state, args, traced.then_some(&layers)));
    layers.finish("scale_partitioned", &traced, overhead, &[])
}
