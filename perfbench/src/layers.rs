//! The traced run: spans around the benchmark's calls into each layer's
//! public functions, recorded with `fastsc_telemetry::Tracer`, kept in
//! memory, written out once with the Chrome exporter, and reduced to the
//! per-layer metrics.
//!
//! Every job is one root span (`job`, its id shared by all of the job's
//! layer spans); set-up work hangs under `setup` roots. A layer whose
//! own function the benchmark cannot call in isolation is measured by
//! subtraction: the caller-visible span minus the spans of the layers
//! below it, for the same job (see [`PER_LAYER`]).

use crate::guarded;
use crate::stats::{percentile, Metric, Report, Tally};
use fastsc_core::{
    frequency, router, CompileContext, CompiledProgram, Compiler, CompilerConfig, Strategy,
};
use fastsc_device::Device;
use fastsc_graph::{coloring, crosstalk::CrosstalkGraph};
use fastsc_ir::{decompose::decompose, optimize::peephole, Circuit};
use fastsc_telemetry::span::{AttrValue, SpanGuard, SpanNode, Tracer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;

/// Traced jobs are capped so the span buffer and the Chrome file stay
/// small: every phase of a traced run, untraced ones too so that both
/// sides of the overhead ratio measure alike, ends at this many jobs or
/// when its time is up.
pub const MAX_TRACED_JOBS: u64 = 10_000;

/// Share (permille) of negative subtracted self-times above which the
/// run flags the subtraction as unreliable.
const NEGATIVE_FLAG_PERMILLE: f64 = 30.0;

/// Strategies with their short metric labels.
const STRATEGY_LABELS: [(Strategy, &str); 5] = [
    (Strategy::BaselineN, "N"),
    (Strategy::BaselineG, "G"),
    (Strategy::BaselineU, "U"),
    (Strategy::BaselineS, "S"),
    (Strategy::ColorDynamic, "CD"),
];

/// Largest static or per-cycle color count whose `smt_find` time is
/// reported (`smt.solve_ms.k1` … `k10`): the static count of a distance-1
/// mesh.
pub const MAX_SMT_K: usize = 10;

/// Every per-layer metric: name, unit, direction (`true` = higher is
/// better). A layer that does no work on a workload reports 0 there.
/// `BENCHMARK.json` lists the same names, units and directions.
pub const PER_LAYER: [(&str, &str, bool); 54] = [
    // Socket submit→result minus in-process QueueService submit→wait.
    ("server.wire_self_us.p50", "us", false),
    ("server.wire_self_us.p99", "us", false),
    ("server.request_bytes", "bytes", false),
    // fastsc_ir::qasm::from_qasm on the submitted text.
    ("ir.qasm_parse_us.p50", "us", false),
    ("ir.qasm_parse_us.p99", "us", false),
    ("ir.qasm_parse_mb_per_s", "MB/s", true),
    // decompose + peephole of the routed circuit.
    ("ir.lower_us.p50", "us", false),
    ("ir.lower_us.p99", "us", false),
    // QueueService submit→wait minus CompileService::compile_batch.
    ("queue.self_us.p50", "us", false),
    ("queue.self_us.p99", "us", false),
    ("queue.wait_us.p50", "us", false),
    ("queue.wait_us.p99", "us", false),
    ("queue.rejected", "count", false),
    // compile_batch minus Compiler::compile (nothing on a cache hit).
    ("service.self_us.p50", "us", false),
    ("service.self_us.p99", "us", false),
    ("service.cache_hit_ratio", "ratio", true),
    ("service.cache_evictions", "count", false),
    // fastsc_core::router::route.
    ("core.route_us.p50", "us", false),
    ("core.route_us.p99", "us", false),
    ("core.swaps_per_job", "count", false),
    // Compiler::compile minus route minus lower, per strategy.
    ("core.engine_us.N.p50", "us", false),
    ("core.engine_us.N.p99", "us", false),
    ("core.engine_us.G.p50", "us", false),
    ("core.engine_us.G.p99", "us", false),
    ("core.engine_us.U.p50", "us", false),
    ("core.engine_us.U.p99", "us", false),
    ("core.engine_us.S.p50", "us", false),
    ("core.engine_us.S.p99", "us", false),
    ("core.engine_us.CD.p50", "us", false),
    ("core.engine_us.CD.p99", "us", false),
    ("core.deferred_per_job", "count", false),
    ("core.max_colors", "colors", false),
    // CompileContext::new and CompileContext::statics.
    ("core.context_build_ms.p50", "ms", false),
    ("core.statics_ms.p50", "ms", false),
    ("core.statics_solves", "count", false),
    // frequency::smt_find with the context's band, alpha and tolerance.
    ("smt.solve_ms.k1", "ms", false),
    ("smt.solve_ms.k2", "ms", false),
    ("smt.solve_ms.k3", "ms", false),
    ("smt.solve_ms.k4", "ms", false),
    ("smt.solve_ms.k5", "ms", false),
    ("smt.solve_ms.k6", "ms", false),
    ("smt.solve_ms.k7", "ms", false),
    ("smt.solve_ms.k8", "ms", false),
    ("smt.solve_ms.k9", "ms", false),
    ("smt.solve_ms.k10", "ms", false),
    ("smt.calls_per_job", "count", false),
    // CrosstalkGraph::build and coloring::welsh_powell.
    ("graph.xtalk_build_us.p50", "us", false),
    ("graph.coloring_us.p50", "us", false),
    // Partitioned Compiler::compile per tier, and paired against the
    // whole-device compile of the same job.
    ("partition.compile_ms.256.p50", "ms", false),
    ("partition.compile_ms.1024.p50", "ms", false),
    ("partition.paired_ratio_permille", "permille", false),
    // The same partitioned compile with the default pool ÷ one worker.
    ("partition.fanout_ratio_permille", "permille", false),
    // fastsc_noise::estimate.
    ("noise.estimate_us.p50", "us", false),
    // Traced ÷ untraced jobs_per_s of the same workload.
    ("trace.overhead_ratio", "ratio", true),
];

/// In-memory span recorder for one traced run.
#[derive(Debug)]
pub struct Layers {
    tracer: Tracer,
}

impl Layers {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Layers { tracer: Tracer::new() }
    }

    /// Opens a root span: `job` for a job, `setup` for set-up work.
    pub fn root(&self, name: &'static str) -> SpanGuard {
        self.tracer.span(name, None)
    }

    /// Opens a layer span under `parent`; it records when dropped.
    pub fn span(&self, parent: &SpanGuard, name: &'static str) -> SpanGuard {
        self.tracer.span(name, Some(parent.id()))
    }

    /// Runs `f` inside a layer span under `parent`.
    pub fn call<T>(&self, parent: &SpanGuard, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(parent, name);
        f()
    }

    /// Assembles the recorded spans, writes them as a Chrome trace to
    /// `perfbench/out/<workload>.trace.json`, and reduces them to the
    /// per-layer report. `extra` carries layer counters read from the
    /// stack's own statistics (queue and cache counters); `overhead` is
    /// traced ÷ untraced `jobs_per_s`.
    pub fn finish(
        self,
        workload: &str,
        tally: &Tally,
        overhead: f64,
        extra: &[(&str, f64, u64)],
    ) -> Report {
        let tree = self.tracer.finish();
        let mut report = Report::from_tally(tally);
        match write_trace(workload, &tree.to_chrome_trace()) {
            Ok(path) => report.notes.push(format!(
                "{} spans written to {}",
                tree.span_count(),
                path.display()
            )),
            Err(e) => report.notes.push(format!("trace not written: {e}")),
        }
        let mut samples = Samples::default();
        for root in &tree.roots {
            samples.visit(root);
        }
        samples.notes(&mut report.notes);
        report.metrics = PER_LAYER
            .iter()
            .map(|&(name, unit, higher_is_better)| {
                let (value, samples) = if name == "trace.overhead_ratio" {
                    (overhead, 1)
                } else if let Some(&(_, value, n)) = extra.iter().find(|e| e.0 == name) {
                    (value, n)
                } else {
                    samples.value(name).unwrap_or((0.0, 0))
                };
                Metric { name: name.to_owned(), unit, higher_is_better, value, samples }
            })
            .collect();
        report
    }
}

/// Where a traced call records: the run's recorder and the span (job or
/// set-up) the call belongs to. `None` runs the call untraced.
pub type Trace<'a> = Option<(&'a Layers, &'a SpanGuard)>;

/// Compiles `program` under `strategy`, catching panics. Traced, the
/// call runs under a `compile` span that records the compile's counters.
///
/// # Errors
///
/// The compile error or panic message.
pub fn compile(
    trace: Trace<'_>,
    compiler: &Compiler,
    program: &Circuit,
    strategy: Strategy,
) -> Result<CompiledProgram, String> {
    let mut span = trace.map(|(layers, parent)| layers.span(parent, "compile"));
    let out = match guarded(|| compiler.compile(program, strategy)) {
        Ok(Ok(compiled)) => Ok(compiled),
        Ok(Err(e)) => Err(e.to_string()),
        Err(panic) => Err(panic),
    };
    if let Some(span) = &mut span {
        span.attr("ok", out.is_ok());
        if let Ok(c) = &out {
            span.attr("swaps", c.stats.swaps_inserted);
            span.attr("deferred", c.stats.deferred_gates);
            span.attr("max_colors", c.stats.max_colors_used);
            span.attr("smt_calls", c.stats.smt_calls);
        }
    }
    out
}

/// Routes and lowers `program` on its own, exactly as `Compiler::compile`
/// does, each under its span, so the engine's share of a `compile` span
/// under the same `parent` can be subtracted. Callers run it after the
/// compile, outside the job's latency.
pub fn route_and_lower(
    layers: &Layers,
    parent: &SpanGuard,
    compiler: &Compiler,
    program: &Circuit,
) {
    let routed = layers.call(parent, "route", || router::route(program, compiler.device()));
    if let Ok(routed) = routed {
        let lowering = compiler.config().decomposition;
        layers.call(parent, "lower", || {
            black_box(peephole(&decompose(&routed.circuit, lowering)))
        });
    }
}

/// Builds the context for `(device, config)` and, when `statics` is set,
/// solves its Baseline S/G statics. Traced, each step runs under its
/// span (`context_build`, `statics`).
///
/// # Errors
///
/// The context or statics error message.
pub fn context(
    trace: Trace<'_>,
    device: Device,
    config: CompilerConfig,
    statics: bool,
) -> Result<Arc<CompileContext>, String> {
    let ctx = {
        let _span = trace.map(|(layers, parent)| layers.span(parent, "context_build"));
        CompileContext::new(device, config).map_err(|e| e.to_string())?
    };
    if statics {
        let mut span = trace.map(|(layers, parent)| layers.span(parent, "statics"));
        let k = match guarded(|| ctx.statics().map(|s| s.color_count)) {
            Ok(Ok(k)) => Ok(k),
            Ok(Err(e)) => Err(e.to_string()),
            Err(panic) => Err(panic),
        };
        if let (Some(span), Ok(k)) = (&mut span, &k) {
            span.attr("k", *k);
        }
        k?;
    }
    Ok(Arc::new(ctx))
}

/// Builds the crosstalk graph of `(device, config)` and its Welsh–Powell
/// coloring on their own, each under its span, as `CompileContext::new`
/// and the statics do. Callers run it outside the job's latency.
pub fn graph_and_coloring(
    layers: &Layers,
    parent: &SpanGuard,
    device: &Device,
    config: &CompilerConfig,
) {
    let graph = layers.call(parent, "xtalk_build", || {
        CrosstalkGraph::build(device.connectivity(), config.crosstalk_distance)
    });
    layers.call(parent, "coloring", || black_box(coloring::welsh_powell(graph.graph())));
}

/// Times `frequency::smt_find` for each color count in `ks` (1 to
/// [`MAX_SMT_K`]) with `ctx`'s band, anharmonicity and tolerance.
pub fn sample_smt(
    layers: &Layers,
    parent: &SpanGuard,
    ctx: &CompileContext,
    ks: impl IntoIterator<Item = usize>,
) {
    for k in ks.into_iter().filter(|k| (1..=MAX_SMT_K).contains(k)) {
        let mut span = layers.span(parent, "smt");
        span.attr("k", k);
        let tol = ctx.config().smt_tolerance;
        black_box(frequency::smt_find(k, ctx.band(), ctx.alpha(), tol).ok());
    }
}

fn write_trace(workload: &str, chrome: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, chrome)?;
    Ok(path)
}

fn micros(node: &SpanNode) -> f64 {
    node.duration().as_secs_f64() * 1e6
}

fn attr_u64(node: &SpanNode, key: &str) -> Option<u64> {
    node.attr(key).and_then(AttrValue::as_u64)
}

fn attr_bool(node: &SpanNode, key: &str) -> Option<bool> {
    node.attr(key).and_then(AttrValue::as_bool)
}

/// Per-layer samples gathered from the span tree.
#[derive(Debug, Default)]
struct Samples {
    /// Durations and subtracted self-times (µs) by metric stem: the
    /// metric name without its `.p50`/`.p99` suffix.
    timings: BTreeMap<String, Vec<f64>>,
    /// Per-job counters by metric name.
    counters: BTreeMap<&'static str, Vec<f64>>,
    /// Bytes and µs of QASM parsing, for the parse rate.
    parse_bytes: f64,
    parse_us: f64,
    /// Partitioned ÷ whole-device compile time, and default pool ÷ one
    /// worker, paired per job.
    paired: Vec<f64>,
    fanout: Vec<f64>,
    /// Per subtracted metric stem: samples, and how many came out
    /// negative.
    subtracted: BTreeMap<String, (usize, usize)>,
    /// Served jobs not subtracted because the twin stacks disagreed on
    /// whether the result cache served them.
    twin_mismatch: u64,
}

impl Samples {
    fn push(&mut self, stem: impl Into<String>, us: f64) {
        self.timings.entry(stem.into()).or_default().push(us);
    }

    fn push_self(&mut self, stem: impl Into<String>, us: f64) {
        let stem = stem.into();
        let counts = self.subtracted.entry(stem.clone()).or_default();
        counts.0 += 1;
        counts.1 += usize::from(us < 0.0);
        self.push(stem, us);
    }

    fn count(&mut self, name: &'static str, value: f64) {
        self.counters.entry(name).or_default().push(value);
    }

    /// Folds `node`'s layer children into the samples; a node carrying a
    /// `strategy` attribute is one compile job (see [`Self::add_job`]).
    fn visit(&mut self, node: &SpanNode) {
        for c in &node.children {
            let stem = match c.name {
                "route" => "core.route_us",
                "lower" => "ir.lower_us",
                "estimate" => "noise.estimate_us",
                "context_build" => "core.context_build_ms",
                "statics" => "core.statics_ms",
                "xtalk_build" => "graph.xtalk_build_us",
                "coloring" => "graph.coloring_us",
                "smt" => {
                    let k = attr_u64(c, "k").unwrap_or(0);
                    self.push(format!("smt.solve_ms.k{k}"), micros(c));
                    continue;
                }
                "qasm_parse" => {
                    self.parse_us += micros(c);
                    self.parse_bytes += attr_u64(c, "bytes").unwrap_or(0) as f64;
                    "ir.qasm_parse_us"
                }
                _ => continue,
            };
            self.push(stem, micros(c));
        }
        if node.attr("strategy").is_some() {
            self.add_job(node);
        }
        if node.children.iter().any(|c| c.name == "socket") {
            self.add_served(node);
        }
        for c in &node.children {
            self.visit(c);
        }
    }

    fn add_job(&mut self, root: &SpanNode) {
        let child = |name: &str| root.children.iter().find(|c| c.name == name);
        let ok = |node: &SpanNode| attr_bool(node, "ok") == Some(true);
        let compile = child("compile").filter(|c| ok(c));
        if let Some(compile) = compile {
            let strategy = attr_u64(root, "strategy");
            if let Some(tier) = attr_u64(root, "tier") {
                self.push(format!("partition.compile_ms.{tier}"), micros(compile));
            }
            if let (Some(route), Some(lower)) = (child("route"), child("lower")) {
                let label = STRATEGY_LABELS
                    .iter()
                    .find(|(s, _)| Some(u64::from(s.stable_code())) == strategy)
                    .map_or("?", |&(_, label)| label);
                let engine = micros(compile) - micros(route) - micros(lower);
                self.push_self(format!("core.engine_us.{label}"), engine);
            }
            self.count("core.swaps_per_job", attr_u64(compile, "swaps").unwrap_or(0) as f64);
            self.count(
                "core.deferred_per_job",
                attr_u64(compile, "deferred").unwrap_or(0) as f64,
            );
            self.count("smt.calls_per_job", attr_u64(compile, "smt_calls").unwrap_or(0) as f64);
            if strategy == Some(u64::from(Strategy::ColorDynamic.stable_code())) {
                self.count(
                    "core.max_colors",
                    attr_u64(compile, "max_colors").unwrap_or(0) as f64,
                );
            }
            if let Some(whole) = child("compile_whole").filter(|w| ok(w)) {
                self.paired.push(micros(compile) / micros(whole));
            }
            if let Some(fanout) = child("compile_fanout").filter(|f| ok(f)) {
                self.fanout.push(micros(fanout) / micros(compile));
            }
        }
    }

    /// A served job: socket ⊃ queue ⊃ service ⊃ compile, measured on twin
    /// stacks fed the same job. Subtracts only where all three agree on
    /// whether the result cache served the job.
    fn add_served(&mut self, root: &SpanNode) {
        let child = |name: &str| root.children.iter().find(|c| c.name == name);
        let (Some(s), Some(q), Some(v)) = (child("socket"), child("queue"), child("service"))
        else {
            return;
        };
        self.count("server.request_bytes", attr_u64(s, "bytes").unwrap_or(0) as f64);
        let hits = [s, q, v].map(|n| attr_bool(n, "cache_hit"));
        if hits[0].is_none() || hits.iter().any(|h| *h != hits[0]) {
            self.twin_mismatch += 1;
            return;
        }
        let compile = child("compile").filter(|c| attr_bool(c, "ok") == Some(true));
        let below_service = match (hits[0], compile) {
            (Some(false), Some(c)) => micros(c),
            _ => 0.0,
        };
        self.push_self("server.wire_self_us", micros(s) - micros(q));
        self.push_self("queue.self_us", micros(q) - micros(v));
        self.push_self("service.self_us", micros(v) - below_service);
    }

    /// The value of per-layer metric `name` with its sample count, when
    /// this run has samples for it.
    fn value(&self, name: &str) -> Option<(f64, u64)> {
        let pct = |stem: &str, q: f64| {
            let v = self.timings.get(stem).filter(|v| !v.is_empty())?;
            let scale = if stem.contains("_ms") { 1e-3 } else { 1.0 };
            Some((percentile(v, q) * scale, v.len() as u64))
        };
        if let Some(stem) = name.strip_suffix(".p50") {
            return pct(stem, 0.5);
        }
        if let Some(stem) = name.strip_suffix(".p99") {
            return pct(stem, 0.99);
        }
        if name.starts_with("smt.solve_ms.") {
            return pct(name, 0.5);
        }
        match name {
            "core.statics_solves" => pct("core.statics_ms", 0.5).map(|(_, n)| (n as f64, n)),
            "ir.qasm_parse_mb_per_s" if self.parse_us > 0.0 => {
                Some((self.parse_bytes / self.parse_us, pct("ir.qasm_parse_us", 0.5)?.1))
            }
            "partition.paired_ratio_permille" if !self.paired.is_empty() => {
                Some((percentile(&self.paired, 0.5) * 1e3, self.paired.len() as u64))
            }
            "partition.fanout_ratio_permille" if !self.fanout.is_empty() => {
                Some((percentile(&self.fanout, 0.5) * 1e3, self.fanout.len() as u64))
            }
            _ => {
                let v = self.counters.get(name).filter(|v| !v.is_empty())?;
                Some((v.iter().sum::<f64>() / v.len() as f64, v.len() as u64))
            }
        }
    }

    fn notes(&self, notes: &mut Vec<String>) {
        for (stem, &(samples, negative)) in &self.subtracted {
            let permille = 1e3 * negative as f64 / samples as f64;
            if permille > NEGATIVE_FLAG_PERMILLE {
                notes.push(format!(
                    "FLAG: {stem}: {negative} of {samples} subtracted self-times negative \
                     ({permille:.0} permille); the subtraction is unreliable here"
                ));
            }
        }
        let (samples, negative) =
            self.subtracted.values().fold((0, 0), |acc, c| (acc.0 + c.0, acc.1 + c.1));
        notes.push(format!("subtracted self-times: {negative} of {samples} negative"));
        if self.twin_mismatch > 0 {
            notes.push(format!(
                "{} served jobs not subtracted: the twin stacks disagreed on a cache hit",
                self.twin_mismatch
            ));
        }
    }
}
