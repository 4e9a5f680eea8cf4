//! `paper_direct` (warm, closed loop, one caller): the Fig. 9 suite × all
//! five strategies compiled straight through `Compiler::compile` on
//! right-sized grids, over shared pre-warmed contexts. Baseline G runs on
//! the tunable-coupler copy of each grid, as `fastsc_bench::run_cell`
//! does. Routing, lowering and the engine do nearly all the work. Its
//! traced run also serves the same jobs over the socket, to measure the
//! serving layers (see [`run_traced`]).

use crate::check::Verified;
use crate::clock::{reference_s, thread_cpu_s};
use crate::inputs::{grid_side, paper_jobs, PaperJob, PassOrder, PAPER_SEED};
use crate::layers::{self, Layers, Trace, MAX_TRACED_JOBS};
use crate::stats::{QualityInputs, Report, Tally};
use crate::{served_mix, timed_setups, traced_phases, Args};
use fastsc_core::{Compiler, CompilerConfig, Strategy};
use fastsc_device::{CouplerKind, Device};
use fastsc_ir::Circuit;
use fastsc_noise::{estimate, NoiseConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Workload state: one compiler (over a shared context) and program per
/// job.
struct State {
    jobs: Vec<PaperJob>,
    compilers: Vec<Compiler>,
    programs: Vec<Circuit>,
    /// The warm-up pass's schedules, for the untimed quality estimate.
    quality: QualityInputs,
    /// Warm-up failures. A failing job fails again, and is counted, in
    /// the timed phase (compiles are deterministic).
    warmup_failures: Vec<String>,
}

/// The grid a job compiles on: its side, and whether it is the
/// tunable-coupler copy Baseline G uses.
fn grid_of(job: &PaperJob) -> (usize, bool) {
    (grid_side(job.benchmark.n_qubits()), job.strategy == Strategy::BaselineG)
}

/// Builds the contexts (statics solved) and runs the untimed warm-up
/// pass, which fills the SMT memos and keeps the output-checked schedules
/// quality is estimated from. Traced, it then times `smt_find` at
/// every color count the warm-up met: each grid's static count and
/// 1..=its largest per-cycle ColorDynamic count.
fn setup(trace: Trace<'_>) -> State {
    let config = CompilerConfig::default();
    let jobs = paper_jobs();
    let mut by_grid: BTreeMap<(usize, bool), Compiler> = BTreeMap::new();
    let mut warmup_failures = Vec::new();
    for job in &jobs {
        let key = grid_of(job);
        if by_grid.contains_key(&key) {
            continue;
        }
        let base = Device::grid(key.0, key.0, PAPER_SEED);
        let device = if key.1 { base.with_coupler(CouplerKind::tunable(0.0)) } else { base };
        if let Some((layers, parent)) = trace {
            layers::graph_and_coloring(layers, parent, &device, &config);
        }
        let compiler = match layers::context(trace, device.clone(), config, true) {
            Ok(ctx) => Compiler::with_context(ctx),
            Err(e) => {
                warmup_failures.push(format!("context: {e}"));
                Compiler::new(device, config)
            }
        };
        by_grid.insert(key, compiler);
    }
    let compilers: Vec<Compiler> =
        jobs.iter().map(|job| by_grid[&grid_of(job)].clone()).collect();
    let programs: Vec<Circuit> = jobs.iter().map(|j| j.benchmark.build(PAPER_SEED)).collect();
    let mut cd_colors: BTreeMap<(usize, bool), usize> = BTreeMap::new();
    let mut quality = QualityInputs::default();
    for (i, job) in jobs.iter().enumerate() {
        let (program, device) = (i / Strategy::all().len(), compilers[i].device());
        let out = layers::compile(None, &compilers[i], &programs[i], job.strategy)
            .and_then(|c| quality.record_checked(program, job.strategy, device, c));
        match out {
            Ok(c) if job.strategy == Strategy::ColorDynamic => {
                let max = cd_colors.entry(grid_of(job)).or_default();
                *max = (*max).max(c.stats.max_colors_used);
            }
            Ok(_) => {}
            Err(e) => warmup_failures.push(e),
        }
    }
    if let Some((layers, parent)) = trace {
        for (key, compiler) in &by_grid {
            let Ok(ctx) = compiler.context() else { continue };
            let statics_k = ctx.export_statics().map_or(0, |s| s.color_count);
            let cd_max = cd_colors.get(key).copied().unwrap_or(0);
            layers::sample_smt(layers, parent, &ctx, (1..=cd_max).chain([statics_k]));
        }
    }
    State { jobs, compilers, programs, quality, warmup_failures }
}

/// The timed phase: seeded passes over the job set until `args.seconds`
/// of wall time (or, in a traced run, [`MAX_TRACED_JOBS`] jobs) have gone
/// by. A job's latency is the CPU time of its compile call
/// ([`thread_cpu_s`]); a pass lasts the sum of its jobs' latencies, and
/// the output checks and reference samples between calls are excluded. Traced, a job's latency runs from opening
/// its span to the end of its span-wrapped compile; the route, lower and
/// estimate calls that attribute it run after, outside the latency.
fn timed(state: &State, args: &Args, layers: Option<&Layers>) -> Tally {
    let mut tally = Tally::default();
    let mut verified = Verified::default();
    let mut order = PassOrder::new(args.seed, state.jobs.len());
    let cap = if args.trace { MAX_TRACED_JOBS } else { u64::MAX };
    let deadline = Instant::now() + args.seconds;
    while Instant::now() < deadline && tally.attempted < cap {
        for &i in order.next_pass() {
            if tally.reference_due() {
                tally.reference(reference_s());
            }
            let (job, compiler) = (state.jobs[i], &state.compilers[i]);
            let start = thread_cpu_s();
            let root = layers.map(|l| {
                let mut root = l.root("job");
                root.attr("strategy", u64::from(job.strategy.stable_code()));
                root
            });
            let trace = layers.zip(root.as_ref());
            let out = layers::compile(trace, compiler, &state.programs[i], job.strategy);
            let latency = tally.spent(thread_cpu_s() - start);
            if let Some((l, r)) = trace {
                layers::route_and_lower(l, r, compiler, &state.programs[i]);
                if let Ok(c) = &out {
                    let device = compiler.device();
                    l.call(r, "estimate", || {
                        estimate(device, &c.schedule, &NoiseConfig::default())
                    });
                }
            }
            drop(root);
            let compiled = match out {
                Ok(c) => c,
                Err(e) => {
                    tally.fail(e);
                    continue;
                }
            };
            let device = compiler.device();
            match verified.check(i, device, &compiled.schedule, job.strategy, 1) {
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

/// The traced run: untraced and traced phases over one set-up, then a
/// traced phase of the same jobs served over the socket (half of
/// `--seconds`; see [`served_mix::trace_serving`]), which alone measures
/// the server, QASM-parse, queue and service layers.
pub fn run_traced(args: &Args) -> Report {
    let layers = Layers::new();
    let state = {
        let root = layers.root("setup");
        setup(Some((&layers, &root)))
    };
    let (mut traced, overhead) =
        traced_phases(args, |args, traced| timed(&state, args, traced.then_some(&layers)));
    drop(state);
    let half = Args { workload: args.workload.clone(), seconds: args.seconds / 2, ..*args };
    let (served, counters) = served_mix::trace_serving(&half, &layers);
    traced.merge(served);
    layers.finish("paper_direct", &traced, overhead, &counters)
}
