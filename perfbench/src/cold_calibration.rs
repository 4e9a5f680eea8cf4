//! `cold_calibration` (cold, closed loop, one caller): every job is one
//! device calibration, compiled cold. The job builds a new
//! `CompileContext`, solves its Baseline S/G statics, and compiles one
//! paper program under all five strategies; nothing (context, statics,
//! SMT memo) is shared between jobs. `CompileContext::statics` and
//! `frequency::smt_find` do nearly all the work. Baseline G compiles on
//! the job's one context: the engine does not read the coupler kind, so
//! a tunable-coupler copy would only solve the same statics a second
//! time.
//!
//! Not listed in `BENCHMARK.json`. While the shared host ran slow, its
//! rescaled throughput and latencies spread 0.15–0.22 (interquartile
//! range over median, ten seeds) against the 0.25 bound: its jobs' speed
//! drifted by ±12% while the reference kernel's held steady, so the
//! rescaling cannot follow it. On a quiet host it spreads 0.03.

use crate::check::check_schedule;
use crate::clock::{reference_s, thread_cpu_s};
use crate::inputs::{cold_population, Calibration, Calibrations, COLD_CYCLE, PAPER_SEED};
use crate::layers::{self, Layers, Trace, MAX_SMT_K, MAX_TRACED_JOBS};
use crate::stats::{Quality, QualityInputs, Report, Tally};
use crate::{timed_setups, traced_phases, Args};
use fastsc_core::{CompileContext, CompiledProgram, Compiler, CompilerConfig, Strategy};
use fastsc_device::Device;
use fastsc_ir::Circuit;
use std::sync::Arc;
use std::time::Instant;

/// Fabrication seed of the throwaway calibration set-up compiles to
/// bring code, allocator and thread pool up before the first timed job.
/// No timed job reuses anything it builds.
const WARMUP_DEVICE_SEED: u64 = 1;

/// How many `smt_find` samples per color count the traced run takes.
const SMT_SAMPLES_PER_K: usize = 2;

/// One job's output: its context and every strategy's compile.
type JobOutput = (Arc<CompileContext>, Vec<(Strategy, CompiledProgram)>);

/// The compiler configuration of a calibration at crosstalk `distance`.
fn config(distance: usize) -> CompilerConfig {
    CompilerConfig { crosstalk_distance: distance, ..CompilerConfig::default() }
}

/// One job: a fresh context for `device`, then every strategy. Returns
/// the output and the job's latency in seconds: the CPU time
/// ([`thread_cpu_s`]) of the context build with its statics and of each
/// compile. Traced, each of those calls runs under its span, and the
/// calls that attribute it (crosstalk graph and coloring; each
/// strategy's route and lower) run after it, outside the latency.
fn job(
    trace: Trace<'_>,
    device: &Device,
    distance: usize,
    program: &Circuit,
) -> (Result<JobOutput, String>, f64) {
    let config = config(distance);
    let device_copy = device.clone();
    let start = thread_cpu_s();
    let ctx = layers::context(trace, device_copy, config, true);
    let mut latency = thread_cpu_s() - start;
    if let Some((layers, parent)) = trace {
        layers::graph_and_coloring(layers, parent, device, &config);
    }
    let ctx = match ctx {
        Ok(ctx) => ctx,
        Err(e) => return (Err(e), latency),
    };
    let compiler = Compiler::with_context(Arc::clone(&ctx));
    let mut compiled = Vec::with_capacity(Strategy::all().len());
    for strategy in Strategy::all() {
        let start = thread_cpu_s();
        let span = trace.map(|(layers, parent)| {
            let mut span = layers.span(parent, "strategy");
            span.attr("strategy", u64::from(strategy.stable_code()));
            span
        });
        let sub = trace.zip(span.as_ref()).map(|((layers, _), span)| (layers, span));
        let out = layers::compile(sub, &compiler, program, strategy);
        latency += thread_cpu_s() - start;
        if let Some((layers, span)) = sub {
            layers::route_and_lower(layers, span, &compiler, program);
        }
        match out {
            Ok(c) => compiled.push((strategy, c)),
            Err(e) => return (Err(e), latency),
        }
    }
    (Ok((ctx, compiled)), latency)
}

/// Set-up: the cycle's programs, and one throwaway calibration compiled
/// cold to warm the process.
fn setup() -> Vec<Circuit> {
    let programs: Vec<Circuit> =
        COLD_CYCLE.iter().map(|&(_, _, benchmark)| benchmark.build(PAPER_SEED)).collect();
    let (side, distance, _) = COLD_CYCLE[0];
    let warmup =
        job(None, &Device::grid(side, side, WARMUP_DEVICE_SEED), distance, &programs[0]);
    std::hint::black_box(warmup.0.ok());
    programs
}

/// The timed phase: calibrations until `args.seconds` (or, in a traced run,
/// [`MAX_TRACED_JOBS`] jobs) have gone by, in whole rounds of the
/// population, one round per pass and per latency window, so every pass
/// holds the same calibrations and the seed changes only their order: a
/// round's p99 is its slowest calibration's job. A pass lasts the
/// sum of its jobs' latencies; generating each calibration, the output
/// checks and, traced, the attributing calls run between jobs, untimed.
fn timed(programs: &[Circuit], args: &Args, layers: Option<&Layers>) -> Tally {
    let mut tally = Tally::default();
    let mut smt_samples = [0usize; MAX_SMT_K + 1];
    let cap = if args.trace { MAX_TRACED_JOBS } else { u64::MAX };
    let mut calibrations = Calibrations::new(args.seed);
    let deadline = Instant::now() + args.seconds;
    loop {
        if calibrations.at_round_start() && tally.attempted > 0 {
            tally.end_pass();
            tally.close_window();
            if Instant::now() >= deadline || tally.attempted >= cap {
                break;
            }
        }
        if tally.reference_due() {
            tally.reference(reference_s());
        }
        let cal: Calibration = calibrations.next().expect("the calibration stream is endless");
        let device = Device::grid(cal.side, cal.side, cal.device_seed);
        let program = &programs[cal.shape];
        let root = layers.map(|l| l.root("job"));
        let (out, latency) = job(layers.zip(root.as_ref()), &device, cal.distance, program);
        let latency = tally.spent(latency);
        let (ctx, compiled) = match out {
            Ok(out) => out,
            Err(e) => {
                tally.fail(e);
                continue;
            }
        };
        let checked = compiled
            .iter()
            .try_for_each(|(s, c)| check_schedule(&device, &c.schedule, *s, cal.distance));
        if let Err(v) = checked {
            tally.wrong(format!("output check: {v}"));
            continue;
        }
        tally.ok(latency);
        if let (Some(l), Some(r)) = (layers, root.as_ref()) {
            // smt_find at the job's static color count and every
            // per-cycle ColorDynamic count, a few samples per count.
            let statics_k = ctx.export_statics().map_or(0, |s| s.color_count);
            let cd_max = compiled
                .iter()
                .find(|(s, _)| *s == Strategy::ColorDynamic)
                .map_or(0, |(_, c)| c.stats.max_colors_used);
            let ks: Vec<usize> = (1..=cd_max)
                .chain([statics_k])
                .filter(|&k| k <= MAX_SMT_K && smt_samples[k] < SMT_SAMPLES_PER_K)
                .collect();
            for &k in &ks {
                smt_samples[k] += 1;
            }
            layers::sample_smt(l, r, &ctx, ks);
        }
    }
    tally
}

/// Schedule quality over the whole calibration population, untimed and
/// the same for every seed and run length: each calibration's
/// ColorDynamic and Baseline U schedules, compiled on a fresh context
/// (neither strategy reads the statics) and output-checked. Returns the
/// quality and any failures.
fn population_quality(programs: &[Circuit]) -> (Quality, Vec<String>) {
    let mut quality = QualityInputs::default();
    let mut failures = Vec::new();
    for (i, cal) in cold_population().into_iter().enumerate() {
        let device = Device::grid(cal.side, cal.side, cal.device_seed);
        let ctx = match layers::context(None, device.clone(), config(cal.distance), false) {
            Ok(ctx) => ctx,
            Err(e) => {
                failures.push(format!("calibration {i}: {e}"));
                continue;
            }
        };
        let compiler = Compiler::with_context(ctx);
        for strategy in [Strategy::ColorDynamic, Strategy::BaselineU] {
            let checked = layers::compile(None, &compiler, &programs[cal.shape], strategy)
                .and_then(|c| {
                    check_schedule(&device, &c.schedule, strategy, cal.distance)
                        .map_err(|v| format!("output check: {v}"))?;
                    Ok(c)
                });
            match checked {
                Ok(c) => quality.record(i, strategy, &device, &c.schedule),
                Err(e) => failures.push(format!("calibration {i} {strategy}: {e}")),
            }
        }
    }
    (quality.quality(), failures)
}

/// The end-to-end run.
pub fn run(args: &Args) -> Report {
    let (programs, setup_s) = timed_setups(setup);
    let tally = timed(&programs, args, None);
    let (quality, failures) = population_quality(&programs);
    let mut report = Report::end_to_end(&setup_s, &tally, &quality);
    report.correct &= failures.is_empty();
    report.notes.extend(failures.iter().map(|f| format!("quality compile failed: {f}")));
    report
}

/// The traced run: untraced and traced phases over one set-up.
pub fn run_traced(args: &Args) -> Report {
    let programs = setup();
    let layers = Layers::new();
    let (traced, overhead) =
        traced_phases(args, |args, traced| timed(&programs, args, traced.then_some(&layers)));
    layers.finish("cold_calibration", &traced, overhead, &[])
}
