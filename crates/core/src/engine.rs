//! The scheduling engine: Algorithm 1 (ColorDynamic) and the Table I
//! baseline strategies, sharing one list-scheduling core.
//!
//! All strategies route, lower and peephole-clean the program identically,
//! and park idle qubits on the same connectivity-coloring assignment; they
//! differ exactly where the paper differentiates them:
//!
//! | Strategy | Interaction frequencies | Serialization | Couplers |
//! |---|---|---|---|
//! | `BaselineN` | static, crowding-unaware round-robin | none (ASAP) | fixed |
//! | `BaselineG` | static crosstalk-graph coloring | none (ASAP) | tunable, active only under gates |
//! | `BaselineU` | one shared value | crosstalk-adjacent gates serialized | fixed |
//! | `BaselineS` | static crosstalk-graph coloring | none (ASAP) | fixed |
//! | `ColorDynamic` | per-cycle active-subgraph coloring + SMT | noise-aware queueing | fixed |

use crate::config::CompilerConfig;
use crate::context::CompileContext;
use crate::error::CompileError;
use crate::frequency;
use crate::router;
use fastsc_device::Device;
use fastsc_graph::coloring;
use fastsc_ir::decompose::lower_into;
use fastsc_ir::layering::{criticality_into, Dag};
use fastsc_ir::optimize::Peephole;
use fastsc_ir::{Circuit, Gate};
use fastsc_noise::{Cycle, CycleScratch, Frequencies, Schedule, ScheduledGate};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The five compilation strategies of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Naive, crosstalk-unaware compilation (tunable transmon, fixed
    /// coupler, Qiskit-style ASAP scheduler).
    BaselineN,
    /// Gmon: tunable qubit *and* tunable coupler, Sycamore-style (couplers
    /// active only under gates; the device must have tunable couplers for
    /// the benefit to materialize).
    BaselineG,
    /// Uniform interaction frequency with serialization of
    /// crosstalk-adjacent gates (IBM-style).
    BaselineU,
    /// Static frequency-aware compilation: one whole-crosstalk-graph
    /// coloring, program-independent.
    BaselineS,
    /// The paper's contribution: program-specific per-cycle frequency
    /// assignment with the noise-aware queueing scheduler.
    ColorDynamic,
}

impl Strategy {
    /// All five strategies in Table I order.
    pub fn all() -> [Strategy; 5] {
        [
            Strategy::BaselineN,
            Strategy::BaselineG,
            Strategy::BaselineU,
            Strategy::BaselineS,
            Strategy::ColorDynamic,
        ]
    }

    /// A stable one-byte tag for cache keys (Table I order, pinned
    /// forever: new strategies append, existing tags never change).
    pub fn stable_code(self) -> u8 {
        match self {
            Strategy::BaselineN => 0,
            Strategy::BaselineG => 1,
            Strategy::BaselineU => 2,
            Strategy::BaselineS => 3,
            Strategy::ColorDynamic => 4,
        }
    }

    /// Short display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::BaselineN => "Baseline N",
            Strategy::BaselineG => "Baseline G",
            Strategy::BaselineU => "Baseline U",
            Strategy::BaselineS => "Baseline S",
            Strategy::ColorDynamic => "ColorDynamic",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A strategy name that [`Strategy::from_str`](std::str::FromStr) did
/// not recognize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseStrategyError {
    /// The unrecognized input.
    pub input: String,
}

impl std::fmt::Display for ParseStrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown strategy '{}' (expected BaselineN, BaselineG, BaselineU, BaselineS, \
             or ColorDynamic)",
            self.input
        )
    }
}

impl std::error::Error for ParseStrategyError {}

impl std::str::FromStr for Strategy {
    type Err = ParseStrategyError;

    /// Parses a strategy from its wire/CLI name. Accepts the compact
    /// token form (`BaselineN`, …, `ColorDynamic`) and the paper-legend
    /// [`label`](Strategy::label) form (`Baseline N`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "BaselineN" | "Baseline N" => Ok(Strategy::BaselineN),
            "BaselineG" | "Baseline G" => Ok(Strategy::BaselineG),
            "BaselineU" | "Baseline U" => Ok(Strategy::BaselineU),
            "BaselineS" | "Baseline S" => Ok(Strategy::BaselineS),
            "ColorDynamic" => Ok(Strategy::ColorDynamic),
            other => Err(ParseStrategyError { input: other.to_string() }),
        }
    }
}

/// Bookkeeping produced alongside a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileStats {
    /// `SWAP`s inserted by the router.
    pub swaps_inserted: usize,
    /// Gate count after lowering and peephole cleanup.
    pub lowered_gate_count: usize,
    /// Largest number of interaction colors used in any cycle
    /// (ColorDynamic) or by the static assignment (S/G); 1 for U.
    pub max_colors_used: usize,
    /// `smt_find` solves this compile accounts for: one per Baseline
    /// S/G compile (the static assignment), plus one per ColorDynamic
    /// memo miss whose result this compile installed (see
    /// [`CompileContext::smt_frequencies`](crate::CompileContext::smt_frequencies)).
    /// A compile that loses a race to install the same key counts a
    /// hit, so the figure does not depend on thread interleaving.
    pub smt_calls: usize,
    /// Times a gate was postponed by `noise_conflict`, the color budget,
    /// or Baseline U's serialization.
    pub deferred_gates: usize,
    /// Wall-clock compilation time.
    pub compile_time: Duration,
}

/// A compiled program: the schedule plus statistics.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The executable schedule (feed to `fastsc_noise::estimate`).
    pub schedule: Schedule,
    /// Compilation statistics.
    pub stats: CompileStats,
}

/// The frequency-aware compiler (paper Fig. 3).
///
/// Device-wide precomputation (crosstalk graph, parking assignment,
/// static colorings, `smt_find` memo) lives in an [`Arc`]-shared
/// [`CompileContext`] built on first use, so repeated compiles against
/// one device — the batch/service workload — only pay for it once.
/// Cloning a `Compiler` shares its context.
#[derive(Debug, Clone)]
pub struct Compiler {
    device: Device,
    config: CompilerConfig,
    context: OnceLock<Arc<CompileContext>>,
}

impl Compiler {
    /// Creates a compiler for a device. The shared [`CompileContext`] is
    /// built lazily on the first compile (construction is infallible;
    /// device-level frequency errors surface from
    /// [`compile`](Self::compile)).
    pub fn new(device: Device, config: CompilerConfig) -> Self {
        Compiler { device, config, context: OnceLock::new() }
    }

    /// Creates a compiler over an existing shared context — nothing is
    /// rebuilt, and every compiler created from the same `Arc` shares
    /// the same static tables and SMT memo.
    pub fn with_context(context: Arc<CompileContext>) -> Self {
        let device = context.device().clone();
        let config = *context.config();
        let slot = OnceLock::new();
        let _ = slot.set(context);
        Compiler { device, config, context: slot }
    }

    /// The shared per-device context, building it on first use.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::FrequencyBandExhausted`] when the device's
    /// frequency plan (parking or interaction band) is unsolvable.
    pub fn context(&self) -> Result<Arc<CompileContext>, CompileError> {
        self.context_ref().map(Arc::clone)
    }

    fn context_ref(&self) -> Result<&Arc<CompileContext>, CompileError> {
        if self.context.get().is_none() {
            let mut build_span = fastsc_telemetry::phase("context_build");
            build_span.attr("qubits", self.device.n_qubits());
            let built = Arc::new(CompileContext::new(self.device.clone(), self.config)?);
            // A concurrent builder may have won the race; either Arc
            // holds identical (deterministically computed) tables.
            let _ = self.context.set(built);
        }
        Ok(self.context.get().expect("context just initialized"))
    }

    /// The target device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The configuration.
    pub fn config(&self) -> &CompilerConfig {
        &self.config
    }

    /// Compiles `program` under `strategy` into an executable [`Schedule`].
    ///
    /// # Errors
    ///
    /// Returns routing errors for over-wide or unroutable programs and
    /// [`CompileError::FrequencyBandExhausted`] when the device's reachable
    /// interaction band cannot host the required frequencies.
    pub fn compile(
        &self,
        program: &Circuit,
        strategy: Strategy,
    ) -> Result<CompiledProgram, CompileError> {
        let start = Instant::now();
        // Observation only: the span never feeds back into compilation
        // (the determinism suite holds with tracing on, off, sampled).
        let mut compile_span = fastsc_telemetry::phase("compile");
        compile_span.attr("strategy", strategy.label());

        // 1-2. Route and lower (the front end), then 3-5. list scheduling
        // against the shared per-device context — whole-device, or
        // partition-and-stitch when configured and the device actually
        // splits.
        self.front_end(program, |lowered, swaps_inserted| {
            let ctx = self.context_ref()?;
            let out = match ctx.partitioned()? {
                Some(state) => {
                    crate::partition::run_partitioned(ctx, &state, lowered, strategy)?
                }
                None => run_engine(ctx, lowered, strategy, None)?,
            };
            compile_span.attr("max_colors_used", out.max_colors_used);
            compile_span.attr("smt_calls", out.smt_calls);
            compile_span.attr("deferred_gates", out.deferred_gates);

            Ok(CompiledProgram {
                schedule: out.schedule,
                stats: CompileStats {
                    swaps_inserted,
                    lowered_gate_count: lowered.len(),
                    max_colors_used: out.max_colors_used,
                    smt_calls: out.smt_calls,
                    deferred_gates: out.deferred_gates,
                    compile_time: start.elapsed(),
                },
            })
        })?
    }

    /// Routes `program` onto the device and lowers it to the configured
    /// native gates — the front end [`compile`](Self::compile) runs — and
    /// hands `f` the lowered circuit and the number of `SWAP`s routing
    /// inserted. The lowered circuit is what
    /// `peephole(&decompose(&route(program, device)?.circuit, lowering))`
    /// returns, bit for bit, but it is built in the calling thread's
    /// front-end workspace: routing writes into a reused circuit, each
    /// routed gate streams through [`lower_into`] into an incremental
    /// [`Peephole`], and the result is swapped, not copied, into a
    /// second reused circuit. On a warm thread this allocates nothing.
    /// The two steps are traced as the `qubit_map` and `lower` phases.
    ///
    /// # Errors
    ///
    /// Returns routing errors for over-wide or unroutable programs.
    pub fn front_end<R>(
        &self,
        program: &Circuit,
        f: impl FnOnce(&Circuit, usize) -> R,
    ) -> Result<R, CompileError> {
        let mut ws = FRONT_END.try_with(Cell::take).unwrap_or_default();
        let result = ws
            .run(program, &self.device, self.config.decomposition)
            .map(|swaps| f(&ws.lowered, swaps));
        let _ = FRONT_END.try_with(|slot| slot.set(ws));
        result
    }
}

/// The front end's buffers, one set per thread (see [`FRONT_END`]), kept
/// next to the engine's [`Workspace`]. Each is reset, never shrunk, per
/// compile, so once a thread has compiled its largest program the front
/// end allocates nothing. `docs/ENGINE.md` ("Front end") has the details.
#[derive(Debug, Default)]
struct FrontEnd {
    route: router::Scratch,
    /// The routed circuit over the device's qubits.
    routed: Circuit,
    /// The streaming peephole the lowering emits into.
    peephole: Peephole,
    /// The lowered, cleaned circuit the engine schedules; it trades
    /// buffers with `peephole` on every compile.
    lowered: Circuit,
}

impl FrontEnd {
    /// Routes `program` into `routed`, then lowers each routed gate into
    /// the peephole and swaps the result into `lowered`. Returns the
    /// number of `SWAP`s inserted.
    fn run(
        &mut self,
        program: &Circuit,
        device: &Device,
        lowering: fastsc_ir::decompose::Strategy,
    ) -> Result<usize, CompileError> {
        // `qubit_map`, so as not to collide with a service's shard-`route`
        // span.
        let mut span = fastsc_telemetry::phase("qubit_map");
        let swaps = router::route_into(program, device, &mut self.route, &mut self.routed)?;
        span.attr("swaps", swaps);
        drop(span);

        let mut span = fastsc_telemetry::phase("lower");
        self.peephole.reset(self.routed.n_qubits());
        for &inst in self.routed.instructions() {
            lower_into(inst, lowering, &mut self.peephole);
        }
        self.peephole.finish(&mut self.lowered);
        span.attr("instructions", self.lowered.len());
        Ok(swaps)
    }
}

thread_local! {
    /// The calling thread's [`FrontEnd`]. [`Compiler::front_end`] takes it
    /// for the length of a compile and puts it back, also when routing
    /// fails; a compile that panics drops it instead.
    static FRONT_END: Cell<FrontEnd> = Cell::new(FrontEnd::default());
}

/// What one engine run produces besides timing: the schedule plus the
/// counters [`Compiler::compile`] folds into [`CompileStats`]. The
/// partitioned path runs the engine once per region wave and aggregates
/// these.
#[derive(Debug)]
pub(crate) struct EngineOutput {
    pub(crate) schedule: Schedule,
    pub(crate) max_colors_used: usize,
    pub(crate) smt_calls: usize,
    pub(crate) deferred_gates: usize,
    /// Per-instruction criticality, copied out of the workspace only on
    /// wave-gated runs (the partitioned merge keys on it; a second DAG
    /// build to recompute it would double the per-wave fixed cost).
    /// Empty otherwise.
    pub(crate) crit: Vec<usize>,
    /// What each cycle admitted, and which cycles each wave spans; empty
    /// unless the run was wave-gated (see [`run_engine`]'s `waves`).
    pub(crate) trace: CycleTrace,
    /// Per-instruction interaction frequency (`NaN` for single-qubit
    /// gates); filled only on wave-gated runs, which skip schedule
    /// assembly entirely — the merge rebuilds global cycles from the
    /// trace plus this table, so materializing region-local cycles
    /// (frequency blocks, durations, validation) would be pure waste.
    pub(crate) freq_of_inst: Vec<f64>,
}

/// The admission trace of a wave-gated run, in three flat buffers: cycle
/// `c` admitted `insts[offsets[c]..offsets[c + 1]]`, in admission order,
/// and wave `w` spans cycles `wave_start[w]..wave_start[w + 1]`. A run
/// allocates each buffer once, at its final size (see
/// `crates/core/tests/alloc_budget.rs`).
#[derive(Debug, Default)]
pub(crate) struct CycleTrace {
    insts: Vec<usize>,
    offsets: Vec<usize>,
    wave_start: Vec<usize>,
}

impl CycleTrace {
    /// The local instruction indices cycle `c` admitted.
    pub(crate) fn cycle(&self, c: usize) -> &[usize] {
        &self.insts[self.offsets[c]..self.offsets[c + 1]]
    }

    /// The cycles wave `w` spans; empty for waves past the run's last.
    pub(crate) fn wave_cycles(&self, w: usize) -> std::ops::Range<usize> {
        let at =
            |w: usize| self.wave_start.get(w).or(self.wave_start.last()).copied().unwrap_or(0);
        at(w)..at(w + 1)
    }
}

/// The admission key of instruction `index` at criticality `crit`:
/// `(u32::MAX − crit) << 32 | index`. Ascending keys order exactly like
/// `(Reverse(crit), index)` — criticality descending, then index
/// ascending — and a key is unique per instruction, so an unstable sort
/// of keys gives the stable order. Both fields fit once
/// [`assert_key_range`] has passed: criticality is at most the
/// instruction count.
#[inline]
pub(crate) fn admission_key(crit: usize, index: usize) -> u64 {
    debug_assert!(crit <= u32::MAX as usize && index <= u32::MAX as usize);
    (u64::from(u32::MAX - crit as u32) << 32) | index as u64
}

/// The instruction index an [`admission_key`] carries.
#[inline]
pub(crate) fn key_index(key: u64) -> usize {
    (key & u64::from(u32::MAX)) as usize
}

/// Asserts that a circuit of `n_inst` instructions fits
/// [`admission_key`]'s 32-bit fields. It cannot fail in practice: 2^32
/// instructions of 40 bytes each would take more than 160 GiB.
pub(crate) fn assert_key_range(n_inst: usize) {
    assert!(
        u32::try_from(n_inst).is_ok(),
        "{n_inst} instructions exceed the 32-bit admission key"
    );
}

/// Sentinel: instruction has no coupling (single-qubit gate).
pub(crate) const NO_COUPLING: usize = usize::MAX;
/// Sentinel: instruction has no second operand (single-qubit gate).
const NO_QUBIT: usize = usize::MAX;

/// Every buffer [`run_engine`] works in. One lives in each thread (see
/// [`WORKSPACE`]); a run resizes the buffers it needs and leaves their
/// capacity behind, so once a thread has run its largest compile, a run
/// allocates nothing but the schedule it returns. `docs/ENGINE.md`
/// ("Per-thread workspace") lists what each buffer holds.
#[derive(Debug, Default)]
struct Workspace {
    dag: Dag,
    /// `usize` lanes: `crit`, `remaining_preds`, `q0`, `q1`,
    /// `coupling_of` (one slot per instruction each), then
    /// `sub_index_of` (one slot per coupling).
    words: Vec<usize>,
    /// Flag lanes: `scheduled` (per instruction), then
    /// `coupling_admitted` and `deferred_coupling` (per coupling).
    flags: Vec<bool>,
    /// ColorDynamic's per-cycle frequency of each admitted coupling.
    freq_of_coupling: Vec<f64>,
    /// The ready queue as [`admission_key`]s, ascending, and the buffer
    /// the next cycle's queue is merged into.
    ready: Vec<u64>,
    ready_next: Vec<u64>,
    /// Baseline U's ready two-qubit instructions, keyed and sorted like
    /// `ready`, and how many of them each wave holds (one wave when the
    /// run is not wave-gated).
    serial_lane: Vec<u64>,
    serial_in_wave: Vec<usize>,
    /// Keys of the instructions that became ready this cycle.
    newly_ready: Vec<u64>,
    admitted: Vec<usize>,
    admitted_couplings: Vec<usize>,
    active_colors: Vec<usize>,
    sub_degree: Vec<usize>,
    sub_order: Vec<usize>,
    sub_color: Vec<Option<usize>>,
    sub_deferred: Vec<usize>,
    used_colors: Vec<bool>,
    wave_remaining: Vec<usize>,
    /// A wave-gated run's per-cycle trace offsets, copied out at their
    /// final length.
    trace_offsets: Vec<usize>,
    /// This run's view of the context's SMT memo, indexed by color
    /// count. Emptied at the end of every run: the values belong to one
    /// context.
    smt_local: Vec<Option<Arc<Vec<f64>>>>,
    /// The run's cycles and their frequency blocks, until the schedule
    /// is built from them.
    blocks: CycleBlocks,
    mult_scratch: frequency::MultiplicityScratch,
}

thread_local! {
    /// The calling thread's [`Workspace`]. [`run_engine`] takes it out
    /// for the length of a run and puts it back at the end; a run that
    /// errors or panics part-way drops it instead, and the next run on
    /// that thread starts from an empty one.
    static WORKSPACE: Cell<Workspace> = Cell::new(Workspace::default());
}

/// Whether at least `limit` of a coupling's crosstalk `neighbors` are
/// admitted this cycle. Stops counting as soon as the answer is known.
fn crowded(neighbors: &[usize], coupling_admitted: &[bool], limit: usize) -> bool {
    if limit == 0 {
        return true;
    }
    let mut count = 0;
    for &c in neighbors {
        if coupling_admitted[c] {
            count += 1;
            if count == limit {
                return true;
            }
        }
    }
    false
}

/// Whether no two `admitted` instructions share a qubit. The ready set is
/// qubit-disjoint by construction (`docs/ENGINE.md`), so the engine keeps
/// no per-qubit busy lane; this pairwise check backs that in debug builds.
fn qubit_disjoint(admitted: &[usize], q0: &[usize], q1: &[usize]) -> bool {
    admitted.iter().enumerate().all(|(k, &i)| {
        admitted[k + 1..].iter().all(|&j| {
            let (a, b) = (q0[j], q1[j]);
            a != q0[i] && a != q1[i] && (b == NO_QUBIT || (b != q0[i] && b != q1[i]))
        })
    })
}

/// The list-scheduling core shared by every strategy: schedules an
/// already-routed-and-lowered circuit against a context's device.
///
/// The working state lives in the calling thread's [`Workspace`], taken
/// after the fallible statics lookups and put back at the end: on a warm
/// thread a run allocates only the [`Schedule`] it returns (and, on
/// wave-gated runs, the trace and per-instruction tables it hands back).
/// Per-instruction state is laid out struct-of-arrays (`q0`/`q1`/
/// `coupling_of` lanes resolved once per run), so the per-cycle
/// admission loop does plain indexed loads: no hash lookup, no enum
/// matching per instruction per cycle. The ready queue holds
/// [`admission_key`]s, sorted ascending (criticality desc, index asc):
/// each cycle's newly ready instructions are sorted among themselves
/// and merged with the survivors in one pass of `u64` comparisons.
/// `docs/ENGINE.md` documents the invariants, and
/// `crates/core/tests/alloc_budget.rs` pins the allocation budget.
///
/// `waves`, when supplied, gives each instruction a wave id and gates
/// admission: only instructions of the lowest unfinished wave are
/// admitted, and a cycle never mixes waves. The partitioned path uses
/// this to compile a region's *whole* instruction stream in one engine
/// run while keeping cycles splittable at segment boundaries (where cut
/// gates — invisible to the region's DAG — must interleave). Wave ids
/// must be monotone along dependencies (`waves[i] >= waves[pred]`),
/// which segment indices are by construction. A wave-gated run
/// assembles no schedule: it returns the [`CycleTrace`] of the indices
/// into `lowered` each cycle admitted, with each instruction's
/// criticality and interaction frequency, from which the partitioned
/// merge rebuilds global cycles. The whole-device path passes `None`
/// and pays nothing.
pub(crate) fn run_engine(
    ctx: &CompileContext,
    lowered: &Circuit,
    strategy: Strategy,
    waves: Option<&[usize]>,
) -> Result<EngineOutput, CompileError> {
    let device = ctx.device();
    let config = ctx.config();
    let xtalk = ctx.xtalk();
    let n_couplings = xtalk.coupling_count();
    let n_inst = lowered.len();
    assert_key_range(n_inst);
    let mut smt_calls = 0usize;

    // Static per-coupling interaction frequencies for the baselines.
    // Baseline S/G share one crosstalk-graph coloring (solved once in
    // the context) serving both the frequency table and the gmon
    // tiling pattern (Sycamore-style tiles; on a mesh the classes are
    // the A/B/C/D patterns of Fig. 7).
    let static_freqs: Option<&[f64]> = match strategy {
        Strategy::BaselineN => Some(ctx.baseline_n_freqs()),
        Strategy::BaselineU => Some(ctx.baseline_u_freqs()),
        Strategy::BaselineS | Strategy::BaselineG => {
            smt_calls += 1;
            Some(&ctx.statics()?.freqs)
        }
        Strategy::ColorDynamic => None,
    };
    let static_colors: Option<&[usize]> = match strategy {
        Strategy::BaselineS | Strategy::BaselineG => Some(&ctx.statics()?.colors),
        _ => None,
    };
    let static_color_count = match strategy {
        Strategy::BaselineS | Strategy::BaselineG => ctx.statics()?.color_count,
        Strategy::BaselineN => 4.min(n_couplings.max(1)),
        Strategy::BaselineU => 1,
        Strategy::ColorDynamic => 0,
    };

    let mut ws = WORKSPACE.try_with(Cell::take).unwrap_or_default();
    let Workspace {
        dag,
        words,
        flags,
        freq_of_coupling,
        ready,
        ready_next,
        serial_lane,
        serial_in_wave,
        newly_ready,
        admitted,
        admitted_couplings,
        active_colors,
        sub_degree,
        sub_order,
        sub_color,
        sub_deferred,
        used_colors,
        wave_remaining,
        trace_offsets,
        smt_local,
        blocks,
        mult_scratch,
    } = &mut ws;

    // 4-5. List scheduling. One DAG build serves both dependency
    // tracking and criticality.
    dag.rebuild(lowered);

    // ---- Lanes: carved out of the workspace's three backing buffers,
    // resized (never shrunk) per run. ----
    words.clear();
    words.resize(5 * n_inst + n_couplings, 0);
    let (crit, rest) = words.split_at_mut(n_inst);
    let (remaining_preds, rest) = rest.split_at_mut(n_inst);
    let (q0, rest) = rest.split_at_mut(n_inst);
    let (q1, rest) = rest.split_at_mut(n_inst);
    // coupling_of[i]: the coupling of (two-qubit) instruction i;
    // NO_COUPLING for one-qubit gates. sub_index_of[coupling]: the active
    // index of an admitted coupling in the inline subgraph coloring
    // (valid only while its coupling_admitted bit is set).
    let (coupling_of, sub_index_of) = rest.split_at_mut(n_inst);
    flags.clear();
    flags.resize(n_inst + 2 * n_couplings, false);
    let (scheduled, rest) = flags.split_at_mut(n_inst);
    let (coupling_admitted, deferred_coupling) = rest.split_at_mut(n_couplings);
    freq_of_coupling.clear();
    freq_of_coupling.resize(n_couplings, 0.0);

    criticality_into(dag, crit);
    // Struct-of-arrays instruction lanes: operands and coupling index
    // resolved once per run.
    for (i, inst) in lowered.instructions().iter().enumerate() {
        remaining_preds[i] = dag.preds(i).len();
        match inst.qubit_pair() {
            Some((a, b)) => {
                q0[i] = a;
                q1[i] = b;
                coupling_of[i] =
                    xtalk.coupling_between(a, b).expect("router guarantees coupled operands");
            }
            None => {
                q0[i] = inst.operands.first();
                q1[i] = NO_QUBIT;
                coupling_of[i] = NO_COUPLING;
            }
        }
    }
    let mut n_scheduled = 0usize;

    // The ready queue holds admission keys, sorted ascending: (criticality
    // desc, index asc). Keys are unique, so merging each cycle's sorted
    // newly ready keys into the sorted survivors yields exactly the order
    // a per-cycle re-sort would. Baseline U keeps its ready two-qubit
    // instructions apart, in `serial_lane` (same keys), and moves one per
    // cycle into the queue at its key position, so the queue it walks is
    // again in that order.
    let crit = &*crit;
    let key = |i: usize| admission_key(crit[i], i);
    let serial = strategy == Strategy::BaselineU;
    let two_qubit = |k: u64| q1[key_index(k)] != NO_QUBIT;
    ready.clear();
    ready.extend((0..n_inst).filter(|&i| remaining_preds[i] == 0).map(key));
    serial_lane.clear();
    if serial {
        serial_lane.extend(ready.iter().copied().filter(|&k| two_qubit(k)));
        serial_lane.sort_unstable();
        ready.retain(|&k| !two_qubit(k));
    }
    ready.sort_unstable();

    // Wave gating: unscheduled-instruction count per wave and the
    // current (lowest unfinished) wave. The current wave only advances
    // between cycles, so no emitted cycle mixes waves.
    wave_remaining.clear();
    let mut wave_cur = 0usize;
    if let Some(w) = waves {
        debug_assert_eq!(w.len(), n_inst);
        let n_waves = w.iter().copied().max().map_or(0, |m| m + 1);
        wave_remaining.resize(n_waves, 0);
        for &wi in w {
            wave_remaining[wi] += 1;
        }
        while wave_cur < wave_remaining.len() && wave_remaining[wave_cur] == 0 {
            wave_cur += 1;
        }
    }
    let wave_of = |k: u64| waves.map_or(0, |w| w[key_index(k)]);
    serial_in_wave.clear();
    serial_in_wave.resize(wave_remaining.len().max(1), 0);
    for &k in serial_lane.iter() {
        serial_in_wave[wave_of(k)] += 1;
    }
    // Wave-gated outputs, each allocated once at its final size (the
    // offsets grow in the workspace and are copied out at the end).
    let mut trace = CycleTrace::default();
    let mut freq_of_inst: Vec<f64> = Vec::new();
    trace_offsets.clear();
    if waves.is_some() {
        trace.insts.reserve_exact(n_inst);
        trace.wave_start.resize(wave_remaining.len() + 1, 0);
        trace_offsets.push(0);
        freq_of_inst.resize(n_inst, f64::NAN);
    }

    blocks.clear();
    let parking = ctx.parking();
    let mut max_colors_used = static_color_count;
    let mut deferred_gates = 0usize;
    let params = *device.params();
    let threshold = config.conflict_threshold;

    // ColorDynamic's scheduling loop *is* its dynamic coloring phase;
    // the baselines run the same loop with precomputed colors.
    let mut scheduling_span = fastsc_telemetry::phase(match strategy {
        Strategy::ColorDynamic => "coloring",
        _ => "scheduling",
    });

    while n_scheduled < n_inst {
        admitted.clear();
        admitted_couplings.clear();
        sub_deferred.clear();
        let mut tile_color: Option<usize> = None;

        // Serial scheduler (Table I): Baseline U admits one two-qubit
        // gate per cycle — the shared interaction frequency cannot
        // separate simultaneous gates. That gate is its lane's first
        // in-wave entry, moved into the queue; every other in-wave entry
        // is deferred, so they are counted here and never visited.
        // Entries ahead of it in the lane belong to later waves.
        if serial {
            if let Some(p) = serial_lane.iter().position(|&k| wave_of(k) == wave_cur) {
                let head = serial_lane.remove(p);
                serial_in_wave[wave_cur] -= 1;
                let at = ready.partition_point(|&k| k < head);
                ready.insert(at, head);
            }
            deferred_gates += serial_in_wave[wave_cur];
        }

        // The ready set is qubit-disjoint (`docs/ENGINE.md`), so no
        // candidate can collide on a qubit with an admitted one.
        for &k in ready.iter() {
            let i = key_index(k);
            // Later-wave instructions wait for the barrier; not a
            // deferral — they were never candidates this cycle.
            if let Some(w) = waves {
                if w[i] != wave_cur {
                    continue;
                }
            }
            if q1[i] != NO_QUBIT {
                let cpl = coupling_of[i];
                let postpone = match strategy {
                    // One two-qubit gate per cycle; its lane hands the
                    // queue one candidate (see `serial_lane` above).
                    Strategy::BaselineU => !admitted_couplings.is_empty(),
                    // noise_conflict (Algorithm 1 line 13); Baseline S
                    // shares the crosstalk-aware queueing scheduler but
                    // keeps its static frequencies. Serialization is
                    // "done conservatively while maintaining minimal
                    // impact on the critical path" (§V-B6): a gate with
                    // slack (criticality below the cycle's frontier)
                    // defers as soon as it conflicts at all; critical
                    // gates tolerate up to `conflict_threshold`
                    // crowded neighbors before deferring. Either way
                    // only the first `limit` crowded neighbors matter.
                    Strategy::ColorDynamic | Strategy::BaselineS => {
                        let cycle_crit = admitted.first().map_or(crit[i], |&j| crit[j]);
                        let limit =
                            if crit[i] < cycle_crit { threshold.min(1) } else { threshold };
                        crowded(xtalk.conflicts(cpl), coupling_admitted, limit)
                    }
                    // Tiling scheduler: a cycle only activates
                    // couplers from one color class.
                    Strategy::BaselineG => {
                        let color = static_colors.expect("gmon is static")[cpl];
                        match tile_color {
                            Some(t) => t != color,
                            None => false,
                        }
                    }
                    Strategy::BaselineN => false,
                };
                if postpone {
                    deferred_gates += 1;
                    continue;
                }
                if strategy == Strategy::BaselineG && tile_color.is_none() {
                    tile_color = Some(static_colors.expect("gmon is static")[cpl]);
                }
                admitted_couplings.push(cpl);
                coupling_admitted[cpl] = true;
            }
            admitted.push(i);
        }
        assert!(
            !admitted.is_empty(),
            "scheduler stalled with {} instructions pending",
            n_inst - n_scheduled
        );
        debug_assert!(qubit_disjoint(admitted, q0, q1), "admitted gates share a qubit");

        // ColorDynamic: color the active subgraph, enforcing the
        // color budget by deferring uncolorable gates (Fig. 11).
        //
        // The coloring is `coloring::bounded_coloring` of
        // `xtalk.active_subgraph(&admitted_couplings)`, computed
        // inline over the coupling_admitted bitset: active index `v`
        // is `admitted_couplings[v]` (exactly the subgraph's node
        // mapping), subgraph adjacency is crosstalk adjacency
        // restricted to admitted couplings, and Welsh–Powell visits
        // by (degree desc, active index asc) — identical order,
        // identical colors, identical deferrals, but no per-cycle
        // graph construction or hash maps.
        if strategy == Strategy::ColorDynamic && !admitted_couplings.is_empty() {
            let n_active = admitted_couplings.len();
            let budget = config.max_colors.unwrap_or(n_active);
            assert!(budget > 0, "at least one color is required");
            for (v, &cpl) in admitted_couplings.iter().enumerate() {
                sub_index_of[cpl] = v;
            }
            sub_degree.clear();
            sub_degree.extend(admitted_couplings.iter().map(|&cpl| {
                xtalk.conflicts(cpl).iter().filter(|&&c| coupling_admitted[c]).count()
            }));
            sub_order.clear();
            sub_order.extend(0..n_active);
            sub_order.sort_unstable_by_key(|&v| (std::cmp::Reverse(sub_degree[v]), v));

            sub_color.clear();
            sub_color.resize(n_active, None);
            used_colors.clear();
            used_colors.resize(budget, false);
            for &v in sub_order.iter() {
                used_colors.fill(false);
                for &c in xtalk.conflicts(admitted_couplings[v]) {
                    if coupling_admitted[c] {
                        if let Some(color) = sub_color[sub_index_of[c]] {
                            used_colors[color] = true;
                        }
                    }
                }
                match used_colors.iter().position(|&taken| !taken) {
                    Some(color) => sub_color[v] = Some(color),
                    None => sub_deferred.push(v),
                }
            }

            if !sub_deferred.is_empty() {
                // Remove the deferred gates from this cycle.
                deferred_gates += sub_deferred.len();
                for &v in sub_deferred.iter() {
                    deferred_coupling[admitted_couplings[v]] = true;
                }
                admitted.retain(|&i| {
                    coupling_of[i] == NO_COUPLING || !deferred_coupling[coupling_of[i]]
                });
                for &v in sub_deferred.iter() {
                    deferred_coupling[admitted_couplings[v]] = false;
                }
            }
            active_colors.clear();
            active_colors.extend(sub_color.iter().flatten());
            if !active_colors.is_empty() {
                let k = coloring::color_count(active_colors);
                max_colors_used = max_colors_used.max(k);
                // Borrow the memoized frequencies (no per-cycle clone
                // of the value vector — only an Arc bump on misses,
                // then a direct slot probe per cycle).
                if smt_local.len() <= k {
                    smt_local.resize(k + 1, None);
                }
                if smt_local[k].is_none() {
                    let mut smt_span = fastsc_telemetry::phase("smt");
                    let (values, missed) = ctx.smt_frequencies(k)?;
                    smt_span.attr("colors", k);
                    smt_span.attr("memo_hit", !missed);
                    if missed {
                        smt_calls += 1;
                    }
                    smt_local[k] = Some(values);
                }
                let values = smt_local[k].as_ref().expect("slot just filled");
                // Rank colors by multiplicity: popular = fastest.
                frequency::freq_of_color_by_multiplicity_into(
                    active_colors,
                    values,
                    mult_scratch,
                );
                for (&coupling, &color) in admitted_couplings.iter().zip(sub_color.iter()) {
                    if let Some(c) = color {
                        freq_of_coupling[coupling] = mult_scratch.freq_of_color[c];
                    }
                }
            }
        }

        // The interaction frequency two-qubit instruction `i` resolved to.
        let freq_table: &[f64] = match strategy {
            Strategy::ColorDynamic => freq_of_coupling,
            _ => static_freqs.expect("baselines are static"),
        };
        let interaction_freq = |i: usize| freq_table[coupling_of[i]];
        if waves.is_some() {
            // Wave-gated runs feed the partitioned merge, which rebuilds
            // global cycles from the trace — record the frequency each
            // two-qubit instruction resolved to and skip cycle assembly.
            for &i in admitted.iter() {
                if q1[i] != NO_QUBIT {
                    freq_of_inst[i] = interaction_freq(i);
                }
            }
        } else {
            // Assemble the cycle: its gate list and (Baseline G only)
            // active couplings are the only per-cycle allocations, each
            // made once at its final size; its frequencies go into the
            // run's blocks. (`admitted_couplings` still lists
            // ColorDynamic's budget-deferred couplings.)
            let two_qubit = admitted_couplings.len() - sub_deferred.len();
            blocks.begin(parking, two_qubit);
            let mut gates = Vec::with_capacity(admitted.len());
            let mut active_couplings = if strategy == Strategy::BaselineG {
                Vec::with_capacity(two_qubit)
            } else {
                Vec::new()
            };
            let mut max_gate_ns: f64 = 0.0;
            let mut any_two_qubit = false;

            for &i in admitted.iter() {
                let inst = lowered.instructions()[i];
                let interaction_freq = if q1[i] != NO_QUBIT {
                    let (a, b) = (q0[i], q1[i]);
                    let omega = interaction_freq(i);
                    blocks.retune(a, b, omega);
                    if strategy == Strategy::BaselineG {
                        active_couplings.push((a.min(b), a.max(b)));
                    }
                    any_two_qubit = true;
                    max_gate_ns = max_gate_ns.max(match inst.gate {
                        Gate::Cz => params.cz_duration_ns(omega),
                        Gate::ISwap => params.iswap_duration_ns(omega),
                        Gate::SqrtISwap => params.sqrt_iswap_duration_ns(omega),
                        g => unreachable!("non-native two-qubit gate {g} survived"),
                    });
                    Some(omega)
                } else {
                    max_gate_ns = max_gate_ns.max(params.t_single_ns);
                    None
                };
                gates.push(ScheduledGate { instruction: inst, interaction_freq });
            }

            let duration_ns =
                max_gate_ns + if any_two_qubit { params.flux_settle_ns } else { 0.0 };
            blocks.push(gates, active_couplings, duration_ns);
        }
        if waves.is_some() {
            trace.insts.extend_from_slice(admitted);
            trace_offsets.push(trace.insts.len());
        }

        // `coupling_admitted` clears sparsely via `admitted_couplings`,
        // which still holds any budget-deferred couplings.
        for &cpl in admitted_couplings.iter() {
            coupling_admitted[cpl] = false;
        }

        // Retire admitted instructions, then merge the newly ready ones
        // (sorted among themselves) with the survivors into the next
        // queue. Baseline U's two-qubit ones go into its lane instead,
        // each at its key position.
        newly_ready.clear();
        for &i in admitted.iter() {
            scheduled[i] = true;
            for &s in dag.succs(i) {
                remaining_preds[s] -= 1;
                if remaining_preds[s] == 0 {
                    newly_ready.push(key(s));
                }
            }
        }
        n_scheduled += admitted.len();
        newly_ready.sort_unstable();
        if serial {
            for &s in newly_ready.iter().filter(|&&s| two_qubit(s)) {
                let at = serial_lane.partition_point(|&k| k < s);
                serial_lane.insert(at, s);
                serial_in_wave[wave_of(s)] += 1;
            }
            newly_ready.retain(|&s| !two_qubit(s));
        }
        ready_next.clear();
        let mut fresh = newly_ready.iter().copied().peekable();
        for &k in ready.iter().filter(|&&k| !scheduled[key_index(k)]) {
            while let Some(s) = fresh.next_if(|&s| s < k) {
                ready_next.push(s);
            }
            ready_next.push(k);
        }
        ready_next.extend(fresh);
        std::mem::swap(ready, ready_next);

        if waves.is_some() {
            trace.wave_start[wave_cur + 1] += 1;
            // Everything admitted this cycle belonged to the current wave.
            wave_remaining[wave_cur] -= admitted.len();
            while wave_cur < wave_remaining.len() && wave_remaining[wave_cur] == 0 {
                wave_cur += 1;
            }
        }
    }

    scheduling_span.attr("instructions", n_inst);
    scheduling_span.attr("max_colors_used", max_colors_used);
    scheduling_span.attr("deferred_gates", deferred_gates);
    drop(scheduling_span);

    let mut crit_out = Vec::new();
    if waves.is_some() {
        crit_out = crit.to_vec();
        trace.offsets = trace_offsets.to_vec();
        // Per-wave cycle counts into each wave's first cycle.
        for w in 1..trace.wave_start.len() {
            trace.wave_start[w] += trace.wave_start[w - 1];
        }
    }
    smt_local.clear();
    let schedule = blocks.finish(ctx);
    let _ = WORKSPACE.try_with(|slot| slot.set(ws));
    Ok(EngineOutput {
        schedule,
        max_colors_used,
        smt_calls,
        deferred_gates,
        crit: crit_out,
        trace,
        freq_of_inst,
    })
}

/// A cycle's frequencies are its retuned pairs over the shared parking
/// vector only when the pairs (two `(qubit, frequency)` pairs of 16 bytes
/// per two-qubit gate) take at least 16x less room than a dense row (8
/// bytes per qubit): `OVERLAY_MIN_QUBITS_PER_GATE × two-qubit gates <
/// n_qubits`. Other cycles get a dense row: pairs are sorted per cycle and
/// every reader patches them over the base, which costs more than a short
/// row, and giving every cycle pairs cost `paper_direct` (4–25-qubit
/// grids) 1.4–4.1% of its jobs/s (`docs/ENGINE.md`). Both layouts append
/// to per-thread buffers ([`CycleBlocks`]), so the rule trades only
/// copying and reading, not allocations.
const OVERLAY_MIN_QUBITS_PER_GATE: usize = 64;

/// The cycles of one schedule under assembly, with their frequencies
/// laid into two blocks the finished schedule shares: `rows`, the dense
/// cycles' rows back to back, and `pairs`, every other cycle's retuned
/// `(qubit, frequency)` pairs back to back, each cycle's sorted by qubit
/// and read over the context's shared parking vector. This is the one
/// layout rule ([`OVERLAY_MIN_QUBITS_PER_GATE`]) the whole-device engine
/// and the partitioned merge share: two-qubit gate qubits sit at their
/// gate's interaction frequency and every other qubit at its parking
/// frequency. One lives in each thread's engine workspace (and one in the
/// partitioned path's scratch); its buffers keep their capacity, so a
/// warm thread allocates per cycle only what the caller hands to
/// [`push`](Self::push), and [`finish`](Self::finish) allocates the
/// blocks (each only when a cycle reads it) and the cycle list, each once
/// at its final size.
#[derive(Debug, Default)]
pub(crate) struct CycleBlocks {
    rows: Vec<f64>,
    pairs: Vec<(usize, f64)>,
    cycles: Vec<Assembled>,
    /// Where the cycle under assembly writes its frequencies.
    row: Row,
    scratch: CycleScratch,
}

/// Where a cycle's frequencies are: its dense row, starting at
/// `rows[start]`, or its pairs `pairs[start..end]`.
#[derive(Debug, Clone, Copy)]
enum Row {
    Dense(usize),
    Pairs(usize, usize),
}

impl Default for Row {
    fn default() -> Self {
        Row::Dense(0)
    }
}

/// An assembled cycle whose frequencies wait in the blocks.
#[derive(Debug)]
struct Assembled {
    gates: Vec<ScheduledGate>,
    active_couplings: Vec<(usize, usize)>,
    duration_ns: f64,
    row: Row,
}

impl CycleBlocks {
    /// Empties the blocks and the cycle list for a new schedule, keeping
    /// their capacity.
    pub(crate) fn clear(&mut self) {
        self.rows.clear();
        self.pairs.clear();
        self.cycles.clear();
    }

    /// Starts a cycle of `two_qubit` two-qubit gates with every qubit at
    /// its `parking` frequency, in the layout that count picks.
    #[inline]
    pub(crate) fn begin(&mut self, parking: &[f64], two_qubit: usize) {
        self.row = if OVERLAY_MIN_QUBITS_PER_GATE * two_qubit < parking.len() {
            Row::Pairs(self.pairs.len(), self.pairs.len())
        } else {
            self.rows.extend_from_slice(parking);
            Row::Dense(self.rows.len() - parking.len())
        };
    }

    /// Tunes qubits `a` and `b` of the cycle begun last to a two-qubit
    /// gate's frequency `omega`.
    #[inline]
    pub(crate) fn retune(&mut self, a: usize, b: usize, omega: f64) {
        match self.row {
            Row::Dense(at) => {
                self.rows[at + a] = omega;
                self.rows[at + b] = omega;
            }
            Row::Pairs(..) => self.pairs.extend([(a, omega), (b, omega)]),
        }
    }

    /// Ends the cycle begun last, with its gates, active couplings and
    /// duration.
    pub(crate) fn push(
        &mut self,
        gates: Vec<ScheduledGate>,
        active_couplings: Vec<(usize, usize)>,
        duration_ns: f64,
    ) {
        if let Row::Pairs(start, _) = self.row {
            self.pairs[start..].sort_unstable_by_key(|&(q, _)| q);
            self.row = Row::Pairs(start, self.pairs.len());
        }
        self.cycles.push(Assembled { gates, active_couplings, duration_ns, row: self.row });
    }

    /// The schedule of the cycles pushed since [`clear`](Self::clear),
    /// each a window onto the two blocks and validated by
    /// [`Schedule::push_cycle_with`]. Leaves the cycle list empty.
    pub(crate) fn finish(&mut self, ctx: &CompileContext) -> Schedule {
        let parking = ctx.shared_parking();
        let n = parking.len();
        let mut schedule = Schedule::with_capacity(n, self.cycles.len());
        // A block is allocated only when some cycle reads it.
        let rows: Option<Arc<[f64]>> = (!self.rows.is_empty()).then(|| self.rows[..].into());
        let pairs: Option<Arc<[(usize, f64)]>> =
            (!self.pairs.is_empty()).then(|| self.pairs[..].into());
        for Assembled { gates, active_couplings, duration_ns, row } in self.cycles.drain(..) {
            let frequencies = match (row, &rows, &pairs) {
                (Row::Dense(at), Some(rows), _) => Frequencies::row(rows, at..at + n),
                (Row::Pairs(start, end), _, Some(pairs)) => {
                    Frequencies::window(parking, 0..n, pairs, start..end)
                }
                // No pairs, or the (empty) row of a device without qubits.
                _ => Frequencies::row(parking, 0..n),
            };
            let cycle = Cycle { gates, frequencies, active_couplings, duration_ns };
            schedule.push_cycle_with(cycle, &mut self.scratch);
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsc_noise::{estimate, NoiseConfig};
    use fastsc_workloads::Benchmark;

    fn grid_compiler(side: usize) -> Compiler {
        Compiler::new(Device::grid(side, side, 7), CompilerConfig::default())
    }

    fn schedule_for(b: Benchmark, strategy: Strategy) -> CompiledProgram {
        let side = (b.n_qubits() as f64).sqrt().ceil() as usize;
        let compiler = grid_compiler(side.max(2));
        compiler.compile(&b.build(7), strategy).expect("compiles")
    }

    #[test]
    fn all_strategies_produce_valid_schedules() {
        let program = Benchmark::Xeb(9, 5).build(7);
        let compiler = grid_compiler(3);
        for s in Strategy::all() {
            let compiled = compiler.compile(&program, s).expect("compiles");
            assert!(compiled.schedule.depth() > 0, "{s}");
            assert_eq!(compiled.schedule.n_qubits(), 9);
            // The estimator validates coupling adjacency internally.
            let report =
                estimate(compiler.device(), &compiled.schedule, &NoiseConfig::default());
            assert!(report.p_success.is_finite(), "{s}");
            assert!((0.0..=1.0).contains(&report.p_success), "{s}");
        }
    }

    #[test]
    fn schedule_preserves_lowered_gates() {
        let program = Benchmark::Qaoa(4).build(3);
        let compiler = grid_compiler(2);
        for s in Strategy::all() {
            let compiled = compiler.compile(&program, s).expect("compiles");
            assert_eq!(
                compiled.schedule.gate_count(),
                compiled.stats.lowered_gate_count,
                "{s} dropped or duplicated gates"
            );
        }
    }

    #[test]
    fn colordynamic_separates_adjacent_parallel_gates() {
        // XEB pattern A on a 4x4 mesh schedules adjacent couplings in the
        // same cycle: ColorDynamic must give them distinct, well-separated
        // interaction frequencies.
        let compiler = grid_compiler(4);
        let program = Benchmark::Xeb(16, 4).build(1);
        let compiled = compiler.compile(&program, Strategy::ColorDynamic).expect("compiles");
        let xtalk = compiler.device().crosstalk_graph(1);
        let mut checked = 0;
        for cycle in compiled.schedule.cycles() {
            let two_q: Vec<_> = cycle
                .gates
                .iter()
                .filter_map(|g| {
                    g.instruction.qubit_pair().map(|(a, b)| {
                        (
                            xtalk.coupling_between(a, b).expect("coupled"),
                            g.interaction_freq.expect("2q gate has a frequency"),
                        )
                    })
                })
                .collect();
            for (i, &(c1, f1)) in two_q.iter().enumerate() {
                for &(c2, f2) in &two_q[i + 1..] {
                    if xtalk.graph().has_edge(c1, c2) {
                        assert!(
                            (f1 - f2).abs() > 0.05,
                            "adjacent couplings {c1},{c2} at {f1} vs {f2}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 0, "no adjacent parallel pairs exercised");
    }

    #[test]
    fn baseline_u_serializes_conflicting_gates() {
        let compiler = grid_compiler(4);
        let program = Benchmark::Xeb(16, 4).build(1);
        let compiled = compiler.compile(&program, Strategy::BaselineU).expect("compiles");
        let xtalk = compiler.device().crosstalk_graph(1);
        for cycle in compiled.schedule.cycles() {
            let couplings: Vec<usize> = cycle
                .gates
                .iter()
                .filter_map(|g| g.instruction.qubit_pair())
                .map(|(a, b)| xtalk.coupling_between(a, b).expect("coupled"))
                .collect();
            for (i, &c1) in couplings.iter().enumerate() {
                for &c2 in &couplings[i + 1..] {
                    assert!(
                        !xtalk.graph().has_edge(c1, c2),
                        "Baseline U scheduled conflicting couplings together"
                    );
                }
            }
        }
        assert!(compiled.stats.deferred_gates > 0, "XEB must require serialization");
    }

    #[test]
    fn baseline_u_deeper_than_colordynamic_on_parallel_workload() {
        let u = schedule_for(Benchmark::Xeb(16, 10), Strategy::BaselineU);
        let cd = schedule_for(Benchmark::Xeb(16, 10), Strategy::ColorDynamic);
        let n = schedule_for(Benchmark::Xeb(16, 10), Strategy::BaselineN);
        assert!(
            u.schedule.depth() > cd.schedule.depth(),
            "U depth {} vs CD depth {}",
            u.schedule.depth(),
            cd.schedule.depth()
        );
        // ColorDynamic trades at most modest depth over the ASAP baseline.
        assert!(cd.schedule.depth() >= n.schedule.depth());
    }

    #[test]
    fn baseline_u_is_serial() {
        let compiled = schedule_for(Benchmark::Xeb(16, 5), Strategy::BaselineU);
        for cycle in compiled.schedule.cycles() {
            let two_q =
                cycle.gates.iter().filter(|g| g.instruction.gate.is_two_qubit()).count();
            assert!(two_q <= 1, "serial scheduler ran {two_q} two-qubit gates at once");
        }
    }

    #[test]
    fn gmon_tiles_one_color_class_per_cycle() {
        let compiler = grid_compiler(4);
        let program = Benchmark::Xeb(16, 4).build(1);
        let compiled = compiler.compile(&program, Strategy::BaselineG).expect("compiles");
        let xtalk = compiler.device().crosstalk_graph(1);
        let colors = fastsc_graph::coloring::welsh_powell(xtalk.graph());
        for cycle in compiled.schedule.cycles() {
            let mut cycle_colors: Vec<usize> = cycle
                .gates
                .iter()
                .filter_map(|g| g.instruction.qubit_pair())
                .map(|(a, b)| colors[xtalk.coupling_between(a, b).expect("coupled")])
                .collect();
            cycle_colors.dedup();
            assert!(cycle_colors.len() <= 1, "tile mixed colors: {cycle_colors:?}");
        }
    }

    #[test]
    fn gmon_cycles_activate_only_busy_couplers() {
        let compiled = schedule_for(Benchmark::Xeb(9, 5), Strategy::BaselineG);
        for cycle in compiled.schedule.cycles() {
            let busy = cycle.busy_couplings();
            assert_eq!(cycle.active_couplings, busy);
        }
    }

    #[test]
    fn non_gmon_strategies_leave_couplers_untouched() {
        let compiled = schedule_for(Benchmark::Xeb(9, 5), Strategy::ColorDynamic);
        for cycle in compiled.schedule.cycles() {
            assert!(cycle.active_couplings.is_empty());
        }
    }

    #[test]
    fn max_colors_budget_increases_depth() {
        let compiler = grid_compiler(4);
        let program = Benchmark::Xeb(16, 10).build(2);
        let one = Compiler::new(compiler.device().clone(), CompilerConfig::with_max_colors(1));
        let three =
            Compiler::new(compiler.device().clone(), CompilerConfig::with_max_colors(3));
        let d1 = one.compile(&program, Strategy::ColorDynamic).expect("compiles");
        let d3 = three.compile(&program, Strategy::ColorDynamic).expect("compiles");
        assert!(d1.stats.max_colors_used <= 1);
        assert!(d3.stats.max_colors_used <= 3);
        assert!(
            d1.schedule.depth() >= d3.schedule.depth(),
            "fewer colors must not reduce depth: {} vs {}",
            d1.schedule.depth(),
            d3.schedule.depth()
        );
    }

    #[test]
    fn colordynamic_beats_baseline_u_on_xeb() {
        // The headline comparison, at small scale.
        let compiler = grid_compiler(4);
        let program = Benchmark::Xeb(16, 5).build(7);
        let cfg = NoiseConfig::default();
        let u = compiler.compile(&program, Strategy::BaselineU).expect("compiles");
        let cd = compiler.compile(&program, Strategy::ColorDynamic).expect("compiles");
        let pu = estimate(compiler.device(), &u.schedule, &cfg).p_success;
        let pcd = estimate(compiler.device(), &cd.schedule, &cfg).p_success;
        assert!(pcd > pu, "ColorDynamic {pcd} must beat Baseline U {pu}");
    }

    #[test]
    fn colordynamic_beats_naive_on_parallel_workload() {
        let compiler = grid_compiler(4);
        let program = Benchmark::Xeb(16, 5).build(7);
        let cfg = NoiseConfig::default();
        let n = compiler.compile(&program, Strategy::BaselineN).expect("compiles");
        let cd = compiler.compile(&program, Strategy::ColorDynamic).expect("compiles");
        let pn = estimate(compiler.device(), &n.schedule, &cfg).p_success;
        let pcd = estimate(compiler.device(), &cd.schedule, &cfg).p_success;
        assert!(pcd > 2.0 * pn, "ColorDynamic {pcd} must decisively beat naive {pn}");
    }

    #[test]
    fn stats_are_populated() {
        let compiled = schedule_for(Benchmark::Bv(9), Strategy::ColorDynamic);
        assert!(compiled.stats.swaps_inserted > 0, "BV needs routing");
        assert!(compiled.stats.lowered_gate_count > 0);
        assert!(compiled.stats.smt_calls > 0);
        assert!(compiled.stats.compile_time.as_nanos() > 0);
    }

    #[test]
    fn durations_reflect_gate_types() {
        let compiled = schedule_for(Benchmark::Xeb(9, 3), Strategy::ColorDynamic);
        let params = *Device::grid(3, 3, 7).params();
        for cycle in compiled.schedule.cycles() {
            let has_2q = cycle.gates.iter().any(|g| g.instruction.gate.is_two_qubit());
            if has_2q {
                assert!(cycle.duration_ns > params.t_single_ns);
            } else {
                assert!((cycle.duration_ns - params.t_single_ns).abs() < 1e-9);
            }
        }
    }

    /// A `u32` field value: half the time an edge (0, 1, 2, `u32::MAX −
    /// 1`, `u32::MAX`), so equal values and the field's limits come up
    /// often; otherwise any `u32`.
    fn arb_field() -> impl proptest::strategy::Strategy<Value = usize> {
        use proptest::arbitrary::any;
        use proptest::strategy::Strategy as _;
        let edges = proptest::sample::select(vec![0, 1, 2, u32::MAX - 1, u32::MAX]);
        (any::<bool>(), edges, any::<u32>())
            .prop_map(|(edge, e, x)| if edge { e } else { x } as usize)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        /// Ordering by the packed key equals ordering by
        /// `(Reverse(crit), index)`, and a key gives its index back.
        #[test]
        fn admission_key_orders_like_the_tuple(
            pairs in proptest::collection::vec((arb_field(), arb_field()), 1..40),
        ) {
            use std::cmp::Reverse;
            for &(ca, ia) in &pairs {
                proptest::prop_assert_eq!(key_index(admission_key(ca, ia)), ia);
                for &(cb, ib) in &pairs {
                    proptest::prop_assert_eq!(
                        admission_key(ca, ia).cmp(&admission_key(cb, ib)),
                        (Reverse(ca), ia).cmp(&(Reverse(cb), ib))
                    );
                }
            }
            let mut by_key = pairs.clone();
            by_key.sort_unstable_by_key(|&(crit, index)| admission_key(crit, index));
            let mut by_tuple = pairs;
            by_tuple.sort_by_key(|&(crit, index)| (Reverse(crit), index));
            proptest::prop_assert_eq!(by_key, by_tuple);
        }
    }

    #[test]
    fn coupling_free_device_compiles_under_every_strategy() {
        // A 1x1 grid has no couplings: Baseline S/G statics are empty and
        // solve nothing.
        let compiler = Compiler::new(Device::grid(1, 1, 3), CompilerConfig::default());
        let mut program = Circuit::new(1);
        program.push1(Gate::H, 0).expect("valid").push1(Gate::T, 0).expect("valid");
        for strategy in Strategy::all() {
            let compiled = compiler.compile(&program, strategy).expect("compiles");
            assert_eq!(compiled.schedule.depth(), 2, "{strategy}");
            assert_eq!(compiled.schedule.gate_count(), 2, "{strategy}");
        }
        let statics = compiler.context().expect("context").statics().expect("empty").clone();
        assert!(statics.colors.is_empty() && statics.freqs.is_empty());
        assert_eq!(statics.color_count, 0);
    }
}
