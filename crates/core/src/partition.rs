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
//! 4. **Merge** — per-wave region schedules interleave cycle-by-cycle,
//!    each merged cycle ordered by the same `(criticality desc, index
//!    asc)` key the whole-device engine admits by.
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
use crate::engine::{run_engine, EngineOutput, Strategy};
use crate::error::CompileError;
use fastsc_ir::{Circuit, Gate, Instruction, Operands};
use fastsc_noise::{Cycle, CycleScratch, Schedule, ScheduledGate};
use rayon::prelude::*;
use std::cmp::Reverse;
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

/// One region's engine run covering every segment at once (the engine's
/// wave gating keeps cycles splittable at segment boundaries), plus what
/// the merge needs: the global instruction index of each local
/// instruction, the per-cycle admitted local indices, and the cycle
/// range `seg_start[s]..seg_start[s + 1]` each segment occupies (the
/// run's criticalities and frequencies ride along in `out.crit` /
/// `out.freq_of_inst` — wave-gated runs emit no schedule).
struct RegionRun {
    globals: Vec<usize>,
    out: EngineOutput,
    trace: Vec<Vec<usize>>,
    seg_start: Vec<usize>,
}

/// Cycle-range boundaries per segment, from a wave-gated run's
/// non-decreasing `wave_of_cycle`: segment `s` occupies cycles
/// `starts[s]..starts[s + 1]` (empty segments collapse to empty ranges).
fn seg_starts(wave_of_cycle: &[usize], n_segs: usize) -> Vec<usize> {
    let mut starts = vec![0usize; n_segs + 1];
    for &w in wave_of_cycle {
        starts[w + 1] += 1;
    }
    for s in 0..n_segs {
        starts[s + 1] += starts[s];
    }
    starts
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
    let device = ctx.device();
    let insts = lowered.instructions();
    let n = insts.len();

    // 1. Classify: owning region, or CUT for region-crossing gates.
    let mut class = vec![0usize; n];
    for (i, inst) in insts.iter().enumerate() {
        class[i] = match inst.qubit_pair() {
            Some((a, b)) if state.region_of_qubit[a] != state.region_of_qubit[b] => CUT,
            _ => state.region_of_qubit[inst.operands.first()],
        };
    }

    // 2. Wave-split: a dependency that crosses the internal/cut class
    // boundary starts a new wave. Dependencies share a qubit, and a
    // qubit has one region, so internal instructions linked by a
    // dependency always share a region — waves group by (segment,
    // internal-vs-cut) and regions never entangle within a wave.
    // Dependencies are per-qubit last writers, so one linear pass
    // suffices (no DAG materialization).
    let mut seg = vec![0usize; n];
    let mut last_on_qubit = vec![usize::MAX; device.n_qubits()];
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

    let mut schedule = Schedule::new(device.n_qubits());
    let mut scratch = CycleScratch::new();
    let mut stitch =
        StitchScratch { gate_of_qubit: vec![NO_GATE; device.n_qubits()], entries: Vec::new() };
    let mut counters = Counters { max_colors_used: 0, smt_calls: 0, deferred_gates: 0 };

    // 3. One engine run per region covering every segment: the engine's
    // wave gating (waves = segment indices) keeps each emitted cycle
    // inside one segment, so the merge can still interleave cut cycles
    // at segment boundaries. One run amortizes the engine's fixed cost
    // (lane setup, DAG, ready queue) over the whole instruction stream
    // instead of paying it per (region, segment) pair.
    let mut jobs: Vec<(usize, Vec<usize>, Circuit, Vec<usize>)> = state
        .regions
        .iter()
        .enumerate()
        .map(|(r, region)| (r, Vec::new(), Circuit::new(region.qubits.len()), Vec::new()))
        .collect();
    let mut cut_globals: Vec<usize> = Vec::new();
    for (i, inst) in insts.iter().enumerate() {
        let r = class[i];
        if r == CUT {
            cut_globals.push(i);
            continue;
        }
        let (_, globals, circ, waves) = &mut jobs[r];
        globals.push(i);
        circ.push(remap(*inst, |q| state.local_of_qubit[q]))
            .expect("region operands are in range and distinct");
        waves.push(seg[i]);
    }
    jobs.retain(|(_, globals, _, _)| !globals.is_empty());
    let run_one = |(r, globals, circ, waves): (usize, Vec<usize>, Circuit, Vec<usize>)| {
        // Inert on rayon workers (the trace context is thread-local);
        // the sequential path records one span per region.
        let mut region_span = fastsc_telemetry::phase("region");
        region_span.attr("region", r);
        region_span.attr("instructions", globals.len());
        let mut trace = Vec::new();
        let out =
            run_engine(&state.regions[r].ctx, &circ, strategy, Some(&mut trace), Some(&waves))?;
        let seg_start = seg_starts(&out.wave_of_cycle, n_segs);
        Ok::<RegionRun, CompileError>(RegionRun { globals, out, trace, seg_start })
    };
    // Fan out only when the pool can actually run regions concurrently:
    // on a single-thread pool, `into_par_iter` still pays the job
    // dispatch and steal machinery — measurably more than the runs
    // themselves for small regions.
    let results: Vec<Result<RegionRun, CompileError>> = if rayon::current_num_threads() > 1 {
        jobs.into_par_iter().map(run_one).collect()
    } else {
        jobs.into_iter().map(run_one).collect()
    };
    let mut runs = Vec::with_capacity(results.len());
    for result in results {
        runs.push(result?);
    }
    // One engine run for every cut gate, wave-gated the same way.
    let cut_run: Option<RegionRun> = if cut_globals.is_empty() {
        None
    } else {
        let cut = state.cut.as_ref().expect("cut gates imply cut edges");
        let mut circ = Circuit::new(cut.qubits.len());
        let mut waves = Vec::with_capacity(cut_globals.len());
        for &i in &cut_globals {
            let local = remap(insts[i], |q| cut.local_of[q]);
            circ.push(local).expect("cut operands are in range and distinct");
            waves.push(seg[i]);
        }
        let mut cut_span = fastsc_telemetry::phase("region");
        cut_span.attr("cut", true);
        cut_span.attr("instructions", cut_globals.len());
        let mut trace = Vec::new();
        let out = run_engine(&cut.ctx, &circ, strategy, Some(&mut trace), Some(&waves))?;
        drop(cut_span);
        let seg_start = seg_starts(&out.wave_of_cycle, n_segs);
        Some(RegionRun { globals: cut_globals, out, trace, seg_start })
    };

    for run in runs.iter().chain(&cut_run) {
        counters.max_colors_used = counters.max_colors_used.max(run.out.max_colors_used);
        counters.smt_calls += run.out.smt_calls;
        counters.deferred_gates += run.out.deferred_gates;
    }

    // 4. Merge segment by segment. A cut instruction in segment `s`
    // never depends on an internal instruction of segment `s` (the
    // class change would have bumped its segment), so each segment's
    // internal cycles can precede its cut cycles.
    let mut stitch_span = fastsc_telemetry::phase("stitch");
    let deferred_before_stitch = counters.deferred_gates;
    for s in 0..n_segs {
        merge_internal_wave(
            ctx,
            state,
            strategy,
            insts,
            &runs,
            s,
            &mut schedule,
            &mut scratch,
            &mut stitch,
            &mut counters,
        )?;

        if let Some(run) = &cut_run {
            for at in run.seg_start[s]..run.seg_start[s + 1] {
                let gates: Vec<ScheduledGate> =
                    run.trace[at].iter().map(|&li| gate_from_run(insts, run, li)).collect();
                push_cycle_global(ctx, strategy, gates, &mut schedule, &mut scratch);
            }
        }
    }
    stitch_span.attr("cut_gates", cut_run.as_ref().map_or(0usize, |r| r.globals.len()));
    stitch_span.attr("deferred_gates", counters.deferred_gates - deferred_before_stitch);
    drop(stitch_span);
    partition_span.attr("deferred_gates", counters.deferred_gates);
    drop(partition_span);

    Ok(EngineOutput {
        schedule,
        max_colors_used: counters.max_colors_used,
        smt_calls: counters.smt_calls,
        deferred_gates: counters.deferred_gates,
        crit: Vec::new(),
        wave_of_cycle: Vec::new(),
        freq_of_inst: Vec::new(),
    })
}

/// Rebuilds the global [`ScheduledGate`] for local instruction `li` of
/// `run`: the instruction is the original lowered one (so no qubit
/// remapping), the frequency is what the region engine resolved.
fn gate_from_run(insts: &[Instruction], run: &RegionRun, li: usize) -> ScheduledGate {
    let instruction = insts[run.globals[li]];
    let interaction_freq = instruction.qubit_pair().map(|_| run.out.freq_of_inst[li]);
    ScheduledGate { instruction, interaction_freq }
}

/// Merges segment `s`'s slice of every region run into the global
/// schedule and runs the stitch pass on each merged cycle.
#[allow(clippy::too_many_arguments)]
fn merge_internal_wave(
    ctx: &CompileContext,
    state: &PartitionedState,
    strategy: Strategy,
    insts: &[Instruction],
    runs: &[RegionRun],
    s: usize,
    schedule: &mut Schedule,
    scratch: &mut CycleScratch,
    stitch: &mut StitchScratch,
    counters: &mut Counters,
) -> Result<(), CompileError> {
    if strategy == Strategy::BaselineU {
        // Baseline U's contract is one two-qubit gate per cycle, which a
        // cycle-by-cycle region merge would break. Concatenate the
        // region cycles sequentially instead (deterministic: region
        // order). The uniform interaction frequency is global, so no
        // frequency reconciliation is needed.
        for run in runs {
            for at in run.seg_start[s]..run.seg_start[s + 1] {
                let gates: Vec<ScheduledGate> =
                    run.trace[at].iter().map(|&li| gate_from_run(insts, run, li)).collect();
                push_cycle_global(ctx, strategy, gates, schedule, scratch);
            }
        }
        return Ok(());
    }

    let depth = runs.iter().map(|r| r.seg_start[s + 1] - r.seg_start[s]).max().unwrap_or(0);
    for t in 0..depth {
        // Interleave the regions' cycle-`t` gates by the whole-device
        // admission key — (criticality desc, original instruction index
        // asc) — so a workload whose gates never approach a boundary
        // merges into exactly the cycles the whole-device engine emits.
        let entries = &mut stitch.entries;
        entries.clear();
        for run in runs {
            let at = run.seg_start[s] + t;
            if at >= run.seg_start[s + 1] {
                continue;
            }
            for &li in &run.trace[at] {
                entries.push((
                    Reverse(run.out.crit[li]),
                    run.globals[li],
                    gate_from_run(insts, run, li),
                ));
            }
        }
        entries.sort_by_key(|&(c, gi, _)| (c, gi));
        let gates: Vec<ScheduledGate> = entries.drain(..).map(|e| e.2).collect();
        stitch_and_push(ctx, state, strategy, gates, schedule, scratch, stitch, counters)?;
    }
    Ok(())
}

/// Sentinel for "no gate on this qubit in the current cycle".
const NO_GATE: usize = usize::MAX;

/// Reusable stitch-pass scratch: `gate_of_qubit[q]` maps a qubit to the
/// index of the cycle's two-qubit gate touching it (couplings in one
/// cycle never share a qubit). Filled and sparse-cleared per cycle, so
/// conflict detection costs the boundary size, not the cycle squared.
struct StitchScratch {
    gate_of_qubit: Vec<usize>,
    /// Reused merge buffer: one cycle's `(criticality, global index,
    /// gate)` entries, sorted by the whole-device admission key.
    entries: Vec<(Reverse<usize>, usize, ScheduledGate)>,
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
#[allow(clippy::too_many_arguments)]
fn stitch_and_push(
    ctx: &CompileContext,
    state: &PartitionedState,
    strategy: Strategy,
    gates: Vec<ScheduledGate>,
    schedule: &mut Schedule,
    scratch: &mut CycleScratch,
    stitch: &mut StitchScratch,
    counters: &mut Counters,
) -> Result<(), CompileError> {
    let tolerance = ctx.config().smt_tolerance;
    let alpha = ctx.alpha();
    let budget = ctx.config().max_colors;
    let mut pending: VecDeque<Vec<ScheduledGate>> = VecDeque::new();
    pending.push_back(gates);

    while let Some(mut gates) = pending.pop_front() {
        let twoq: Vec<(usize, (usize, usize))> = if strategy == Strategy::ColorDynamic {
            gates
                .iter()
                .enumerate()
                .filter_map(|(at, g)| g.instruction.qubit_pair().map(|pair| (at, pair)))
                .collect()
        } else {
            Vec::new()
        };
        let mut deferred: Vec<usize> = Vec::new();
        if !twoq.is_empty() {
            let map = &mut stitch.gate_of_qubit;
            for (v, &(_, (a, b))) in twoq.iter().enumerate() {
                map[a] = v;
                map[b] = v;
            }
            let freq_of = |gates: &[ScheduledGate], v: usize| {
                gates[twoq[v].0]
                    .interaction_freq
                    .expect("region engines assign every two-qubit frequency")
            };
            let mut defer_flag = vec![false; twoq.len()];
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
            let mut distinct: Vec<u64> = Vec::new();
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
            for &(_, (a, b)) in &twoq {
                map[a] = NO_GATE;
                map[b] = NO_GATE;
            }
            deferred = (0..twoq.len()).filter(|&v| defer_flag[v]).collect();
        }

        if !deferred.is_empty() {
            counters.deferred_gates += deferred.len();
            let removed: Vec<ScheduledGate> =
                deferred.iter().rev().map(|&v| gates.remove(twoq[v].0)).collect();
            pending.push_back(removed.into_iter().rev().collect());
        }
        push_cycle_global(ctx, strategy, gates, schedule, scratch);
    }
    Ok(())
}

/// Builds and pushes one global cycle from already-frequency-assigned
/// gates: frequencies overlay the global parking assignment, the
/// duration is recomputed from the merged gate set (identical formula
/// to the whole-device engine), and Baseline G's active couplings are
/// collected in gate order.
fn push_cycle_global(
    ctx: &CompileContext,
    strategy: Strategy,
    gates: Vec<ScheduledGate>,
    schedule: &mut Schedule,
    scratch: &mut CycleScratch,
) {
    let params = *ctx.device().params();
    let mut frequencies = ctx.parking().to_vec();
    let mut active_couplings = Vec::new();
    let mut max_gate_ns: f64 = 0.0;
    let mut any_two_qubit = false;
    for g in &gates {
        match g.instruction.qubit_pair() {
            Some((a, b)) => {
                let omega = g.interaction_freq.expect("two-qubit gate has a frequency");
                frequencies[a] = omega;
                frequencies[b] = omega;
                if strategy == Strategy::BaselineG {
                    active_couplings.push((a.min(b), a.max(b)));
                }
                any_two_qubit = true;
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
    let duration_ns = max_gate_ns + if any_two_qubit { params.flux_settle_ns } else { 0.0 };
    schedule
        .push_cycle_with(Cycle { gates, frequencies, active_couplings, duration_ns }, scratch);
}
