//! Partition-and-stitch compilation for 1000+-qubit devices.
//!
//! Whole-device compiles beat partitioned ones at every measured size,
//! cold (the `scale*` rows of `BENCH_compile.json`) and warm, so this
//! path stays only while a benchmark workload exercises it. It cuts the
//! coupling graph into connected regions of at most
//! [`max_region_qubits`](crate::config::PartitionConfig::max_region_qubits)
//! qubits ([`fastsc_graph::regions::grow_regions`]), compiles each
//! region as an independent sub-problem on its own small sub-context,
//! and stitches the results back into one schedule:
//!
//! 1. **Classify** — each lowered instruction belongs to the region
//!    owning its qubit(s), or is a *cut* instruction when its operands
//!    straddle two regions.
//! 2. **Wave-split** — instructions are segmented along dependency
//!    chains: a dependency edge that crosses the internal/cut class
//!    boundary starts a new wave, so every wave is either purely
//!    region-internal (compilable per region in parallel) or purely
//!    boundary (compiled against the small induced *cut* sub-device).
//! 3. **Compile** — internal waves fan out over the regions on rayon;
//!    region sub-contexts inject the *global* parking restriction,
//!    interaction band, anharmonicity, and Baseline N table, so region
//!    compiles agree with whole-device compiles wherever schedules
//!    overlap.
//! 4. **Merge** — per-wave region traces interleave cycle-by-cycle,
//!    each merged cycle ordered by the same packed admission key
//!    (criticality desc, index asc) the whole-device engine admits by.
//! 5. **Stitch** — merged ColorDynamic cycles are checked against the
//!    distance-1 cross-region conflicts that no region could see; when
//!    two adjacent cross-boundary gates land within the SMT tolerance
//!    of each other (or of an alpha sideband, Eqs. 2-3), the later gate
//!    in merged order defers to an inserted follow-up cycle — the same
//!    conservative serialization the whole-device engine applies to
//!    in-region conflicts — and color-budget overflow defers likewise.
//!    Region frequency assignments are never rewritten.
//!
//! The path engages only when `config.partition` is set, the crosstalk
//! distance is 1 (the distance where region + cut conflicts are exact),
//! and the plan yields more than one region; otherwise the whole-device
//! engine runs. Baselines N/U need no stitch (their frequency tables are
//! global and injected); Baselines S/G use region-local static colorings
//! and Baseline U concatenates region cycles to preserve its
//! one-two-qubit-gate-per-cycle contract — see `tests/determinism.rs`
//! for the exact equivalence guarantees and documented exemptions.

use crate::context::CompileContext;
use crate::engine::{
    admission_key, assert_key_range, key_index, run_engine, CycleBlocks, CycleTrace,
    EngineOutput, Strategy,
};
use crate::error::CompileError;
use fastsc_ir::{Circuit, Gate, Instruction, Operands};
use fastsc_noise::ScheduledGate;
use rayon::prelude::*;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;

/// Class tag for instructions whose operands straddle two regions.
const CUT: usize = usize::MAX;

/// The region cap an auto partition ([`PartitionConfig::auto`]) resolves
/// to for an `n_qubits`-qubit device: an eighth of the device, floored
/// at 16 qubits per region.
///
/// Targeting ~8 regions keeps the rayon fan-out wide enough to matter
/// while the 16-qubit floor keeps regions large enough that the stitch
/// boundary does not dominate; on devices of ≤ 16 qubits the floor
/// makes the plan collapse to one region and compilation falls back to
/// the whole-device engine. The cap is a pure function of the qubit
/// count — auto-capped compiles are bit-identical run to run, and the
/// config fingerprint gives auto its own tag so cached schedules never
/// leak between auto and explicit caps.
///
/// [`PartitionConfig::auto`]: crate::config::PartitionConfig::auto
pub fn auto_region_cap(n_qubits: usize) -> usize {
    n_qubits.div_ceil(8).max(16)
}

/// One region of the partition plan: its qubits (local index → global
/// qubit, ascending) and the sub-context its waves compile against.
#[derive(Debug)]
struct Region {
    qubits: Vec<usize>,
    ctx: CompileContext,
}

/// The boundary sub-problem: the sub-device induced by all cut-edge
/// endpoints. Cut-coupling conflicts are exact here at distance 1 —
/// every endpoint of a cut edge is a cut qubit, so the induced subgraph
/// retains every edge that makes two cut couplings adjacent.
#[derive(Debug)]
struct CutState {
    qubits: Vec<usize>,
    local_of: Vec<usize>,
    ctx: CompileContext,
}

/// Whole-device state of a partitioned compile: the region plan, the
/// per-region and cut sub-contexts, and the global↔local qubit maps.
/// Built lazily (and exactly once) by
/// `CompileContext::partitioned`, shared by every compile against the
/// context.
#[derive(Debug)]
pub struct PartitionedState {
    region_of_qubit: Vec<usize>,
    local_of_qubit: Vec<usize>,
    regions: Vec<Region>,
    cut: Option<CutState>,
    /// Region-crossing connectivity edges, as global qubit pairs. Two
    /// internal couplings in different regions conflict at distance 1
    /// exactly when a cut edge links an endpoint of one to an endpoint
    /// of the other, so the stitch pass detects cross-region conflicts
    /// by scanning this list — linear in the boundary, not quadratic in
    /// the cycle.
    cut_edges: Vec<(usize, usize)>,
}

impl PartitionedState {
    /// Plans the partition for `ctx`, or `None` when partitioning is
    /// disabled, the crosstalk distance is not 1, or the device does
    /// not split into more than one region.
    pub(crate) fn build(ctx: &CompileContext) -> Result<Option<Arc<Self>>, CompileError> {
        let Some(partition) = ctx.config().partition else { return Ok(None) };
        if ctx.config().crosstalk_distance != 1 {
            return Ok(None);
        }
        let device = ctx.device();
        let cap =
            partition.max_region_qubits.unwrap_or_else(|| auto_region_cap(device.n_qubits()));
        let plan = fastsc_graph::regions::grow_regions(device.connectivity(), cap);
        if plan.len() < 2 {
            return Ok(None);
        }

        let n_qubits = device.n_qubits();
        let mut region_of_qubit = vec![0usize; n_qubits];
        let mut local_of_qubit = vec![0usize; n_qubits];
        for (r, qubits) in plan.iter().enumerate() {
            for (local, &q) in qubits.iter().enumerate() {
                region_of_qubit[q] = r;
                local_of_qubit[q] = local;
            }
        }

        let regions: Vec<Region> = plan
            .into_iter()
            .map(|qubits| {
                let ctx = sub_context(ctx, &qubits);
                Region { qubits, ctx }
            })
            .collect();

        // Cut sub-device over every endpoint of a region-crossing edge.
        let cut_edges: Vec<(usize, usize)> = device
            .connectivity()
            .edges()
            .map(|(_, uv)| uv)
            .filter(|&(u, v)| region_of_qubit[u] != region_of_qubit[v])
            .collect();
        let mut cut_qubits: Vec<usize> = cut_edges.iter().flat_map(|&(u, v)| [u, v]).collect();
        cut_qubits.sort_unstable();
        cut_qubits.dedup();
        let cut = if cut_qubits.is_empty() {
            None
        } else {
            let mut local_of = vec![usize::MAX; n_qubits];
            for (local, &q) in cut_qubits.iter().enumerate() {
                local_of[q] = local;
            }
            let cut_ctx = sub_context(ctx, &cut_qubits);
            Some(CutState { qubits: cut_qubits, local_of, ctx: cut_ctx })
        };

        Ok(Some(Arc::new(PartitionedState {
            region_of_qubit,
            local_of_qubit,
            regions,
            cut,
            cut_edges,
        })))
    }

    /// Number of regions in the plan.
    pub fn n_regions(&self) -> usize {
        self.regions.len()
    }

    /// The global qubit ids of region `r`, ascending.
    pub fn region_qubits(&self, r: usize) -> &[usize] {
        &self.regions[r].qubits
    }
}

/// Builds the sub-context for the sub-device induced by `qubits`,
/// injecting the parent's global derived tables (parking restriction,
/// interaction band, anharmonicity, Baseline N values by *global*
/// coupling index) so the sub-problem is the same physics restricted to
/// a region rather than an independently re-derived device.
fn sub_context(ctx: &CompileContext, qubits: &[usize]) -> CompileContext {
    let device = ctx.device().induced_subdevice(qubits);
    let parking: Vec<f64> = qubits.iter().map(|&g| ctx.parking()[g]).collect();
    // Induced edges keep the parent's edge-id order (a subsequence), so
    // one parent edge scan yields the sub-device's Baseline N table in
    // sub edge-id order without any per-edge index probes.
    let mut in_sub = vec![false; ctx.device().n_qubits()];
    for &q in qubits {
        in_sub[q] = true;
    }
    let baseline_n: Vec<f64> = ctx
        .device()
        .connectivity()
        .edges()
        .filter(|&(_, (u, v))| in_sub[u] && in_sub[v])
        .map(|(e, _)| CompileContext::baseline_n_frequency(e, ctx.band()))
        .collect();
    debug_assert_eq!(baseline_n.len(), device.connectivity().edge_count());
    let config = crate::config::CompilerConfig { partition: None, ..*ctx.config() };
    CompileContext::from_parts(device, config, parking, ctx.band(), ctx.alpha(), baseline_n)
        .with_shared_smt_memo(ctx)
}

/// Rewrites an instruction's operands through `f`.
fn remap(inst: Instruction, f: impl Fn(usize) -> usize) -> Instruction {
    let operands = match inst.operands {
        Operands::One(q) => Operands::One(f(q)),
        Operands::Two(a, b) => Operands::Two(f(a), f(b)),
    };
    Instruction { gate: inst.gate, operands }
}

/// One engine run's input — a region's instructions, or the cut's —
/// rebuilt per compile in reused buffers.
#[derive(Debug, Default)]
struct RunInput {
    /// The global instruction index of each local instruction.
    globals: Vec<usize>,
    /// The instructions over the run's local qubits.
    circuit: Circuit,
    /// Each local instruction's segment: the engine's wave ids.
    waves: Vec<usize>,
}

impl RunInput {
    fn reset(&mut self, n_qubits: usize) {
        self.globals.clear();
        self.circuit.reset(n_qubits);
        self.waves.clear();
    }

    /// Appends global instruction `global` (operands already local) in
    /// segment `seg`, returning its local index.
    fn push(&mut self, global: usize, local: Instruction, seg: usize) -> usize {
        self.circuit.push(local).expect("run operands are in range and distinct");
        self.globals.push(global);
        self.waves.push(seg);
        self.globals.len() - 1
    }

    /// The global gate for local instruction `li` of `run`, this input's
    /// engine run: the original lowered instruction (so no qubit
    /// remapping) at the frequency the run's engine resolved.
    fn gate(&self, insts: &[Instruction], run: &EngineOutput, li: usize) -> ScheduledGate {
        let instruction = insts[self.globals[li]];
        let interaction_freq = instruction.qubit_pair().map(|_| run.freq_of_inst[li]);
        ScheduledGate { instruction, interaction_freq }
    }
}

/// Every buffer [`run_partitioned`] works in besides the engine's own,
/// one set per thread (see [`SCRATCH`]), next to the engine's workspace
/// and front end. Each is reset, never shrunk, per compile, so a warm
/// thread allocates only the returned schedule plus what each region's
/// engine run hands back (`crates/core/tests/alloc_budget.rs`).
#[derive(Debug, Default)]
struct Scratch {
    /// Per instruction: its owning region, or [`CUT`].
    class: Vec<usize>,
    /// Per instruction: its segment.
    seg: Vec<usize>,
    /// Per instruction: its index in its region's (or the cut's) run.
    /// With `class` this maps a global index to its `(run, local
    /// index)`, which the merge gathers gates through.
    local: Vec<usize>,
    /// Per qubit: the last instruction on it, while segmenting.
    last_on_qubit: Vec<usize>,
    /// One input per region, at least as many as the largest plan seen
    /// (a compile uses the first `n_regions`), and the cut's.
    regions: Vec<RunInput>,
    cut: RunInput,
    /// Each region's engine run, `None` for a region with no
    /// instructions; emptied at the end of every compile.
    runs: Vec<Option<EngineOutput>>,
    /// One merged cycle's admission keys.
    keys: Vec<u64>,
    blocks: CycleBlocks,
    stitch: StitchScratch,
}

thread_local! {
    /// The calling thread's [`Scratch`]. [`run_partitioned`] takes it for
    /// the length of a compile and puts it back, also when a region run
    /// fails; a compile that panics drops it instead.
    static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
}

/// Aggregated stitch-time counters.
struct Counters {
    max_colors_used: usize,
    smt_calls: usize,
    deferred_gates: usize,
}

/// Compiles `lowered` through the partition plan. See the module docs
/// for the pipeline; returns exactly what [`run_engine`] would, so the
/// caller assembles [`crate::CompileStats`] identically for both paths.
pub(crate) fn run_partitioned(
    ctx: &CompileContext,
    state: &PartitionedState,
    lowered: &Circuit,
    strategy: Strategy,
) -> Result<EngineOutput, CompileError> {
    let mut scratch = SCRATCH.try_with(Cell::take).unwrap_or_default();
    let out = scratch.run(ctx, state, lowered, strategy);
    scratch.runs.clear();
    let _ = SCRATCH.try_with(|slot| slot.set(scratch));
    out
}

impl Scratch {
    fn run(
        &mut self,
        ctx: &CompileContext,
        state: &PartitionedState,
        lowered: &Circuit,
        strategy: Strategy,
    ) -> Result<EngineOutput, CompileError> {
        let device = ctx.device();
        let n_qubits = device.n_qubits();
        let insts = lowered.instructions();
        let n = insts.len();
        // The merge keys gates by global index.
        assert_key_range(n);
        let Scratch {
            class,
            seg,
            local,
            last_on_qubit,
            regions,
            cut,
            runs,
            keys,
            blocks,
            stitch,
        } = self;

        // 1. Classify: owning region, or CUT for region-crossing gates.
        class.clear();
        class.extend(insts.iter().map(|inst| match inst.qubit_pair() {
            Some((a, b)) if state.region_of_qubit[a] != state.region_of_qubit[b] => CUT,
            _ => state.region_of_qubit[inst.operands.first()],
        }));

        // 2. Wave-split: a dependency that crosses the internal/cut class
        // boundary starts a new wave. Dependencies share a qubit, and a
        // qubit has one region, so internal instructions linked by a
        // dependency always share a region — waves group by (segment,
        // internal-vs-cut) and regions never entangle within a wave.
        // Dependencies are per-qubit last writers, so one linear pass
        // suffices (no DAG materialization).
        seg.clear();
        seg.resize(n, 0);
        last_on_qubit.clear();
        last_on_qubit.resize(n_qubits, usize::MAX);
        for (i, inst) in insts.iter().enumerate() {
            let ci = class[i] == CUT;
            for q in inst.operands {
                let p = last_on_qubit[q];
                if p != usize::MAX {
                    seg[i] = seg[i].max(seg[p] + usize::from((class[p] == CUT) != ci));
                }
                last_on_qubit[q] = i;
            }
        }
        let n_segs = seg.iter().copied().max().map_or(0, |m| m + 1);

        let mut partition_span = fastsc_telemetry::phase("partition");
        partition_span.attr("regions", state.regions.len());
        partition_span.attr("waves", n_segs);

        // 3. One engine run per region covering every segment: the
        // engine's wave gating (waves = segment indices) keeps each
        // emitted cycle inside one segment, so the merge can still
        // interleave cut cycles at segment boundaries. One run amortizes
        // the engine's fixed cost (lane setup, DAG, ready queue) over the
        // whole instruction stream instead of paying it per (region,
        // segment) pair.
        let n_regions = state.regions.len();
        if regions.len() < n_regions {
            regions.resize_with(n_regions, RunInput::default);
        }
        let regions = &mut regions[..n_regions];
        for (input, region) in regions.iter_mut().zip(&state.regions) {
            input.reset(region.qubits.len());
        }
        let cut_state = state.cut.as_ref();
        cut.reset(cut_state.map_or(0, |c| c.qubits.len()));
        local.clear();
        local.extend(insts.iter().enumerate().map(|(i, &inst)| match class[i] {
            CUT => {
                let cut_state = cut_state.expect("cut gates imply cut edges");
                cut.push(i, remap(inst, |q| cut_state.local_of[q]), seg[i])
            }
            r => regions[r].push(i, remap(inst, |q| state.local_of_qubit[q]), seg[i]),
        }));
        let regions = &*regions;
        let run_one = |r: usize| -> Result<Option<EngineOutput>, CompileError> {
            let input = &regions[r];
            if input.globals.is_empty() {
                return Ok(None);
            }
            // Inert on rayon workers (the trace context is thread-local);
            // the sequential path records one span per region.
            let mut region_span = fastsc_telemetry::phase("region");
            region_span.attr("region", r);
            region_span.attr("instructions", input.globals.len());
            run_engine(&state.regions[r].ctx, &input.circuit, strategy, Some(&input.waves))
                .map(Some)
        };
        // Every region runs before the first error (in region order) is
        // returned, on either path. Fan out only when the pool can
        // actually run regions concurrently: on a single-thread pool,
        // `into_par_iter` still pays the job dispatch and steal machinery
        // — measurably more than the runs themselves for small regions.
        runs.clear();
        let mut first_error = None;
        let mut keep = |result| match result {
            Ok(out) => runs.push(out),
            Err(e) => {
                first_error.get_or_insert(e);
            }
        };
        if rayon::current_num_threads() > 1 {
            let results: Vec<_> = (0..n_regions).into_par_iter().map(run_one).collect();
            results.into_iter().for_each(&mut keep);
        } else {
            (0..n_regions).map(run_one).for_each(&mut keep);
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        let runs = &*runs;
        // One engine run for every cut gate, wave-gated the same way.
        let cut_run = match cut_state {
            Some(cut_state) if !cut.globals.is_empty() => {
                let mut cut_span = fastsc_telemetry::phase("region");
                cut_span.attr("cut", true);
                cut_span.attr("instructions", cut.globals.len());
                Some(run_engine(&cut_state.ctx, &cut.circuit, strategy, Some(&cut.waves))?)
            }
            _ => None,
        };

        let mut counters = Counters { max_colors_used: 0, smt_calls: 0, deferred_gates: 0 };
        for run in runs.iter().flatten().chain(&cut_run) {
            counters.max_colors_used = counters.max_colors_used.max(run.max_colors_used);
            counters.smt_calls += run.smt_calls;
            counters.deferred_gates += run.deferred_gates;
        }

        // 4. Merge segment by segment. A cut instruction in segment `s`
        // never depends on an internal instruction of segment `s` (the
        // class change would have bumped its segment), so each segment's
        // internal cycles can precede its cut cycles.
        let mut stitch_span = fastsc_telemetry::phase("stitch");
        let deferred_before_stitch = counters.deferred_gates;
        blocks.clear();
        stitch.reset(n_qubits);
        let merge = Merge { ctx, state, strategy, insts, class, local, regions, runs };
        for s in 0..n_segs {
            merge.internal_wave(s, keys, blocks, stitch, &mut counters);
            if let Some(run) = &cut_run {
                merge.push_wave(cut, run, s, blocks);
            }
        }
        stitch_span.attr("cut_gates", cut.globals.len());
        stitch_span.attr("deferred_gates", counters.deferred_gates - deferred_before_stitch);
        drop(stitch_span);
        partition_span.attr("deferred_gates", counters.deferred_gates);
        drop(partition_span);

        Ok(EngineOutput {
            schedule: blocks.finish(ctx),
            max_colors_used: counters.max_colors_used,
            smt_calls: counters.smt_calls,
            deferred_gates: counters.deferred_gates,
            crit: Vec::new(),
            trace: CycleTrace::default(),
            freq_of_inst: Vec::new(),
        })
    }
}

/// What merging a segment's region cycles reads: the compile's inputs,
/// the `(run, local index)` map (`class`, `local`) and the region runs.
struct Merge<'a> {
    ctx: &'a CompileContext,
    state: &'a PartitionedState,
    strategy: Strategy,
    insts: &'a [Instruction],
    class: &'a [usize],
    local: &'a [usize],
    regions: &'a [RunInput],
    runs: &'a [Option<EngineOutput>],
}

impl Merge<'_> {
    /// Pushes the cycles `run`, the engine run over `input`, emitted in
    /// segment `s`, unmerged.
    fn push_wave(
        &self,
        input: &RunInput,
        run: &EngineOutput,
        s: usize,
        blocks: &mut CycleBlocks,
    ) {
        for at in run.trace.wave_cycles(s) {
            let gates: Vec<ScheduledGate> =
                run.trace.cycle(at).iter().map(|&li| input.gate(self.insts, run, li)).collect();
            push_cycle_global(self.ctx, self.strategy, gates, blocks);
        }
    }

    /// Merges segment `s`'s slice of every region run into the global
    /// schedule and runs the stitch pass on each merged cycle.
    fn internal_wave(
        &self,
        s: usize,
        keys: &mut Vec<u64>,
        blocks: &mut CycleBlocks,
        stitch: &mut StitchScratch,
        counters: &mut Counters,
    ) {
        let (ctx, strategy, insts) = (self.ctx, self.strategy, self.insts);
        let runs = || {
            self.regions
                .iter()
                .zip(self.runs)
                .filter_map(|(input, run)| Some((input, run.as_ref()?)))
        };
        if strategy == Strategy::BaselineU {
            // Baseline U's contract is one two-qubit gate per cycle, which a
            // cycle-by-cycle region merge would break. Concatenate the
            // region cycles sequentially instead (deterministic: region
            // order). The uniform interaction frequency is global, so no
            // frequency reconciliation is needed.
            for (input, run) in runs() {
                self.push_wave(input, run, s, blocks);
            }
            return;
        }

        let depth = runs().map(|(_, run)| run.trace.wave_cycles(s).len()).max().unwrap_or(0);
        for t in 0..depth {
            // Interleave the regions' cycle-`t` gates by the whole-device
            // admission key (criticality desc, original instruction index
            // asc), so a workload whose gates never approach a boundary
            // merges into exactly the cycles the whole-device engine
            // emits.
            keys.clear();
            for (input, run) in runs() {
                let cycles = run.trace.wave_cycles(s);
                if t < cycles.len() {
                    keys.extend(
                        run.trace
                            .cycle(cycles.start + t)
                            .iter()
                            .map(|&li| admission_key(run.crit[li], input.globals[li])),
                    );
                }
            }
            keys.sort_unstable();
            let gates: Vec<ScheduledGate> = keys
                .iter()
                .map(|&key| {
                    let gi = key_index(key);
                    let r = self.class[gi];
                    let run = self.runs[r].as_ref().expect("a merged gate's region ran");
                    self.regions[r].gate(insts, run, self.local[gi])
                })
                .collect();
            stitch_and_push(ctx, self.state, strategy, gates, blocks, stitch, counters);
        }
    }
}

/// Sentinel for "no gate on this qubit in the current cycle".
const NO_GATE: usize = usize::MAX;

/// Reusable stitch-pass scratch, sized once per compile and cleared per
/// merged cycle.
#[derive(Debug, Default)]
struct StitchScratch {
    /// Maps a qubit to the index (into `twoq`) of the cycle's two-qubit
    /// gate touching it (couplings in one cycle never share a qubit).
    /// Filled and sparse-cleared per cycle, so conflict detection costs
    /// the boundary size, not the cycle squared.
    gate_of_qubit: Vec<usize>,
    /// Merged cycles still to push: the incoming one, then the follow-up
    /// cycles deferrals insert.
    pending: VecDeque<Vec<ScheduledGate>>,
    /// The cycle's two-qubit gates: position in the cycle, qubit pair.
    twoq: Vec<(usize, (usize, usize))>,
    /// Per `twoq` entry: deferred to the follow-up cycle.
    defer_flag: Vec<bool>,
    /// The distinct frequency bit patterns kept so far, in merged order.
    distinct: Vec<u64>,
}

impl StitchScratch {
    fn reset(&mut self, n_qubits: usize) {
        self.gate_of_qubit.clear();
        self.gate_of_qubit.resize(n_qubits, NO_GATE);
    }
}

/// The stitch pass: pushes a merged internal cycle, serializing the
/// cross-region distance-1 conflicts that no region compile could see.
/// When two adjacent cross-boundary gates collide within the SMT
/// tolerance (directly or through an alpha sideband), the later gate in
/// merged order defers to a cycle inserted immediately after; the color
/// budget defers likewise. Region frequencies are kept verbatim, so the
/// pass never solves — it may only emit extra cycles.
///
/// Only ColorDynamic stitches: Baselines N and U use injected global
/// tables (region and whole-device frequencies already agree), and
/// Baselines S and G keep their region-local static colorings (the
/// documented partitioned exemption).
fn stitch_and_push(
    ctx: &CompileContext,
    state: &PartitionedState,
    strategy: Strategy,
    gates: Vec<ScheduledGate>,
    blocks: &mut CycleBlocks,
    stitch: &mut StitchScratch,
    counters: &mut Counters,
) {
    let tolerance = ctx.config().smt_tolerance;
    let alpha = ctx.alpha();
    let budget = ctx.config().max_colors;
    let StitchScratch { gate_of_qubit: map, pending, twoq, defer_flag, distinct } = stitch;
    pending.push_back(gates);

    while let Some(mut gates) = pending.pop_front() {
        twoq.clear();
        if strategy == Strategy::ColorDynamic {
            twoq.extend(
                gates
                    .iter()
                    .enumerate()
                    .filter_map(|(at, g)| g.instruction.qubit_pair().map(|pair| (at, pair))),
            );
        }
        let mut deferred = 0;
        if !twoq.is_empty() {
            for (v, &(_, (a, b))) in twoq.iter().enumerate() {
                map[a] = v;
                map[b] = v;
            }
            let freq_of = |gates: &[ScheduledGate], v: usize| {
                gates[twoq[v].0]
                    .interaction_freq
                    .expect("region engines assign every two-qubit frequency")
            };
            defer_flag.clear();
            defer_flag.resize(twoq.len(), false);
            // Cross-region conflicts: two internal couplings in
            // different regions conflict at distance 1 exactly when a
            // cut edge links their endpoints. Region tables for equal
            // color counts are identical, so the realistic hazard is
            // two regions picking the *same* value (or an exact
            // sideband, Eqs. 2-3) for adjacent couplings; when that
            // happens the later gate in merged order defers to a
            // follow-up cycle — the same conservative serialization the
            // whole-device engine applies through `noise_conflict`,
            // keeping every region frequency assignment intact.
            for &(u, x) in &state.cut_edges {
                let (gu, gx) = (map[u], map[x]);
                if gu == NO_GATE || gx == NO_GATE {
                    continue;
                }
                let (lo, hi) = (gu.min(gx), gu.max(gx));
                if defer_flag[lo] || defer_flag[hi] {
                    continue;
                }
                let (fa, fb) = (freq_of(&gates, lo), freq_of(&gates, hi));
                let collide = (fa - fb).abs() < tolerance
                    || (fa + alpha - fb).abs() < tolerance
                    || (fb + alpha - fa).abs() < tolerance;
                if collide {
                    defer_flag[hi] = true;
                }
            }
            // Color budget: the merged cycle may combine more distinct
            // frequencies than any single region cycle used; gates past
            // the budget defer in merged order. The earliest gate always
            // survives, so the insertion loop terminates.
            distinct.clear();
            for (v, flag) in defer_flag.iter_mut().enumerate() {
                if *flag {
                    continue;
                }
                let bits = freq_of(&gates, v).to_bits();
                if !distinct.contains(&bits) {
                    if let Some(b) = budget {
                        if distinct.len() == b {
                            *flag = true;
                            continue;
                        }
                    }
                    distinct.push(bits);
                }
            }
            counters.max_colors_used = counters.max_colors_used.max(distinct.len());
            // Sparse-clear the qubit → gate map for the next cycle.
            for &(_, (a, b)) in twoq.iter() {
                map[a] = NO_GATE;
                map[b] = NO_GATE;
            }
            deferred = defer_flag.iter().filter(|&&f| f).count();
        }

        if deferred > 0 {
            counters.deferred_gates += deferred;
            // Remove the deferred gates back to front (positions stay
            // valid), then restore merged order.
            let mut removed = Vec::with_capacity(deferred);
            for (&(at, _), _) in twoq.iter().zip(defer_flag.iter()).rev().filter(|(_, &f)| f) {
                removed.push(gates.remove(at));
            }
            removed.reverse();
            pending.push_back(removed);
        }
        push_cycle_global(ctx, strategy, gates, blocks);
    }
}

/// Builds and pushes one global cycle from already-frequency-assigned
/// gates: frequencies follow the whole-device engine's layout rule
/// ([`CycleBlocks`]), the duration is recomputed from the merged gate
/// set (identical formula to the whole-device engine), and Baseline G's
/// active couplings are collected in gate order.
fn push_cycle_global(
    ctx: &CompileContext,
    strategy: Strategy,
    gates: Vec<ScheduledGate>,
    blocks: &mut CycleBlocks,
) {
    let params = *ctx.device().params();
    let two_qubit = gates.iter().filter(|g| g.interaction_freq.is_some()).count();
    blocks.begin(ctx.parking(), two_qubit);
    let mut active_couplings = if strategy == Strategy::BaselineG {
        Vec::with_capacity(two_qubit)
    } else {
        Vec::new()
    };
    let mut max_gate_ns: f64 = 0.0;
    for g in &gates {
        match g.instruction.qubit_pair() {
            Some((a, b)) => {
                let omega = g.interaction_freq.expect("two-qubit gate has a frequency");
                blocks.retune(a, b, omega);
                if strategy == Strategy::BaselineG {
                    active_couplings.push((a.min(b), a.max(b)));
                }
                max_gate_ns = max_gate_ns.max(match g.instruction.gate {
                    Gate::Cz => params.cz_duration_ns(omega),
                    Gate::ISwap => params.iswap_duration_ns(omega),
                    Gate::SqrtISwap => params.sqrt_iswap_duration_ns(omega),
                    gate => unreachable!("non-native two-qubit gate {gate} survived"),
                });
            }
            None => max_gate_ns = max_gate_ns.max(params.t_single_ns),
        }
    }
    let duration_ns = max_gate_ns + if two_qubit > 0 { params.flux_settle_ns } else { 0.0 };
    blocks.push(gates, active_couplings, duration_ns);
}
