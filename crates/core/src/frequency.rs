//! Frequency assignment: graph colors to concrete GHz values (paper
//! §V-B3/4).
//!
//! The paper's `smt_find` hands Eq. 1–3 to Z3 and binary-searches the
//! separation threshold δ. [`smt_find`] keeps that search but decides each
//! probe with an exact solver that uses the fixed frequency order
//! `x_0 ≥ x_1 ≥ … ≥ x_{k-1}` (most-used color fastest, §V-B3).
//!
//! # The reduction
//!
//! Under the order, write `d_ij = x_i − x_j ≥ 0` for `i < j` and
//! `a = |α|`. Per pair, the three absolute-value clauses become:
//!
//! * direct (Eq. 2): `|x_i − x_j| ≥ δ` is `d_ij ≥ δ`;
//! * the sideband pointing against the order (Eq. 3):
//!   `|x_j + α − x_i| = d_ij + a ≥ δ` is implied by `d_ij ≥ δ`, since
//!   `a ≥ 0`;
//! * the remaining sideband: `|x_i + α − x_j| = |d_ij − a| ≥ δ`, i.e.
//!   `d_ij ≤ a − δ` ("close") **or** `d_ij ≥ a + δ` ("far").
//!
//! `d_ij` grows as `i` falls or `j` rises, so for each `j` the close `i`
//! form a suffix `[t_j, j − 1]`: if `i` is close to `j`, every `i' > i`
//! is too. And if `i` is close to `j' > j` it is close to `j`, so `t_j`
//! never decreases: the choices form a staircase. Each staircase is a
//! conjunction of difference constraints along the chain — consecutive
//! gaps `≥ δ`, `x_{t_j} − x_j ≤ a − δ` and `x_{t_j − 1} − x_j ≥ a + δ` —
//! whose least solution is a longest-path problem, infeasible exactly
//! when it has a positive cycle or spans more than the band.
//!
//! [`smt_find`] searches staircases depth-first over
//! `t_j = t_{j−1}..=j` (most close pairs first), keeping the longest-path
//! potentials of each prefix and pruning a prefix as soon as it is
//! infeasible. The first feasible staircase is the one the general
//! difference-logic case split (the paper's Z3 query, ported as a
//! DPLL search) settles on, and its witness is that search's
//! Bellman–Ford model, so δ*, the floor and every value are
//! bit-identical to it (`tests/frequency_oracle.rs` pins this against
//! that search).
//!
//! # Work reuse
//!
//! Two steps keep the search from redoing work; neither changes which
//! prefixes are accepted, the depth-first order, or any float operation
//! on the path to the accepted leaf, so δ*, the floor and every value stay
//! bit-identical (`tests/frequency_oracle.rs` also keeps the search
//! without them as a second oracle).
//!
//! * **Phase-2 subtree bounds.** Phase 2 fixes δ and moves only the
//!   floor. A prefix's settled potentials do not depend on the floor; only
//!   its room check `span + (k − 1 − j)·δ ≤ room + slack` does. So for the
//!   length of one phase 2 the search keeps a tree of prefixes, each
//!   holding a lower bound on the largest room requirement among the
//!   prefixes on the way to any leaf below it. When a probe leaves a
//!   prefix's subtree without accepting a leaf, the prefix's node gets the
//!   maximum of its own requirement (∞ for a positive cycle) and the least
//!   of its children's bounds, a child skipped in this probe giving its
//!   stored bound; a prefix not yet left that way holds −∞. A later probe
//!   skips, without a settle, every prefix whose bound exceeds its
//!   `room + slack`: every leaf below it has a prefix on its path that
//!   fails the room check at this floor, so the search without the tree
//!   would settle that subtree and accept nothing in it, and the first
//!   accepted leaf stays where it was. The stored requirement is the float
//!   the room check compares, so skip and check agree bit for bit. The
//!   witness check reads the floor and is no part of the bound: a leaf it
//!   rejects counts its own requirement only. The tree is capped in size;
//!   past the cap a prefix's children get no nodes and are searched
//!   without bounds, while the prefix's own node still receives the bound
//!   of its whole subtree.
//! * **Incremental settle.** A child prefix starts from its parent's
//!   least potentials, which are a fixed point of both relaxation sweeps.
//!   Re-running the forward sweep over them computes the same maxima and
//!   changes nothing, and the backward sweep raises nothing until a value
//!   moves, so the first pass only computes `x_j`'s lower bounds and
//!   checks its own close edge. If that edge raises nothing the prefix is
//!   settled; otherwise the search finishes that pass's backward sweep
//!   and runs the remaining passes of the same budget. Either way every
//!   float operation that can change a potential is the one the full
//!   first pass would do, in the same order.

use crate::error::CompileError;
use fastsc_device::{Band, Device};
use fastsc_graph::coloring;
use std::ops::ControlFlow;

/// Solves the paper's `smt_find`: places `k` frequencies inside `band`
/// maximizing the pairwise separation threshold `delta`, subject to
///
/// * `band.lo <= x_c <= band.hi` (Eq. 1),
/// * `|x_i - x_j| >= delta` for every pair (Eq. 2),
/// * `|x_i + alpha - x_j| >= delta` for every ordered pair (Eq. 3),
/// * a fixed total order `x_0 >= x_1 >= ...` so that the caller can map
///   the most-used color to the highest (fastest) frequency (§V-B3).
///
/// Phase 1 bisects `delta` over `[0, max(band width, tolerance)]`. Phase 2
/// fixes `delta` at `delta* - tolerance` and bisects the lowest
/// frequency's floor over the band, pushing the assignment as high as it
/// goes. Each probe is decided by the order-aware staircase search of the
/// [module docs](self): the sideband clause `|x_j + alpha - x_i| >= delta`
/// is implied by the order plus Eq. 2, and the choices left for
/// `|x_i + alpha - x_j| >= delta` form a monotone staircase solved as a
/// longest-path problem. The two sideband clauses together depend only on
/// `|alpha|`.
///
/// Returns the frequencies in descending order.
///
/// # Errors
///
/// Returns [`CompileError::FrequencyBandExhausted`] when even `delta = 0`
/// is infeasible (an empty band). `k == 0` has nothing to place and
/// returns no frequencies.
///
/// # Panics
///
/// Panics if `tolerance <= 0`.
pub fn smt_find(
    k: usize,
    band: Band,
    alpha: f64,
    tolerance: f64,
) -> Result<Vec<f64>, CompileError> {
    assert!(tolerance > 0.0, "tolerance must be positive, got {tolerance}");
    if k == 0 {
        return Ok(Vec::new());
    }
    let exhausted = CompileError::FrequencyBandExhausted { colors: k };
    let mut search = Staircase::new(k, band, -alpha.abs());
    // Phase 1: maximize the separation threshold delta (the paper's
    // binary search).
    let (best_delta, _) = bisect(0.0, band.width().max(tolerance), tolerance, |delta| {
        search.probe(delta, band.lo)
    })
    .ok_or(exhausted.clone())?;
    // Phase 2: at (just under) the optimal separation, push the whole
    // assignment as high in the band as possible — higher interaction
    // frequency means faster gates (t_gate ~ 1/omega, §V-B3), and keeps
    // interaction frequencies far from the parking sidebands.
    let delta = (best_delta - tolerance).max(0.0);
    search.fix_delta(delta);
    let (_, mut values) =
        bisect(band.lo, band.hi, tolerance, |floor| search.probe(delta, floor))
            .ok_or(exhausted)?;
    values.sort_by(|a, b| b.total_cmp(a));
    Ok(values)
}

/// Finds (approximately) the largest `t` in `[lo, hi]` for which `probe`
/// returns a witness, assuming feasibility is downward closed: probes
/// `lo`, then `hi`, then bisects until the bracket is at most `tol` wide.
/// Returns the largest verified-feasible `t` and its witness, or `None`
/// when `lo` itself is infeasible.
fn bisect(
    lo: f64,
    hi: f64,
    tol: f64,
    mut probe: impl FnMut(f64) -> Option<Vec<f64>>,
) -> Option<(f64, Vec<f64>)> {
    let mut witness = probe(lo)?;
    let mut feasible = lo;
    if let Some(w) = probe(hi) {
        return Some((hi, w));
    }
    let mut infeasible = hi;
    while infeasible - feasible > tol {
        let mid = 0.5 * (feasible + infeasible);
        match probe(mid) {
            Some(w) => {
                feasible = mid;
                witness = w;
            }
            None => infeasible = mid,
        }
    }
    Some((feasible, witness))
}

/// Numeric slack of the witness relaxation, in GHz: a potential moves only
/// when it improves by more than this (one Hz).
const EPSILON: f64 = 1e-9;

/// Slack of the staircase pruning, in GHz. Far above the witness
/// relaxation's accumulated [`EPSILON`] and far below any physical
/// separation, so the search never prunes a staircase whose witness
/// relaxation would accept it; the witness check decides every leaf.
const PRUNE_SLACK: f64 = 1e-7;

/// A difference constraint `var[x] - var[y] <= bound`, over the zero
/// variable (index 0) and `x_c` at index `c + 1`.
#[derive(Debug, Clone, Copy)]
struct Diff {
    x: usize,
    y: usize,
    bound: f64,
}

/// One staircase prefix in phase 2's tree (see the module docs' work
/// reuse).
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Lower bound on the largest room requirement among the prefixes on
    /// the way to any leaf below this one; `-inf` until a probe leaves
    /// this prefix's subtree without accepting a leaf.
    bound: f64,
    /// Index of the first child (one per step of the next `x_j`, in
    /// search order), or 0 until the prefix is first descended into.
    children: usize,
}

impl Node {
    const UNBOUNDED: Node = Node { bound: f64::NEG_INFINITY, children: 0 };
}

/// The tree's root: the empty prefix, never anyone's child.
const ROOT: usize = 0;

/// Most nodes phase 2's tree holds (16 MiB). Every solve up to k = 20 in
/// a 0.85–1 GHz band stays far below it (at most 89k nodes); the 26-color
/// Express2D d = 2 statics would grow 19.9M nodes (300 MiB) uncapped, and
/// under the cap take about as long, because the bounds that pay are the
/// ones near the root.
const TREE_CAP: usize = 1 << 20;

/// The order-aware staircase search, with buffers reused across the
/// probes of one [`smt_find`] call.
struct Staircase {
    k: usize,
    band: Band,
    /// `-|alpha|`.
    alpha: f64,
    delta: f64,
    floor: f64,
    /// The room check's right-hand side at `floor`: `room + PRUNE_SLACK`.
    limit: f64,
    /// `steps[j] = t_j`: `x_i` is close to `x_j` exactly for `i` in
    /// `[t_j, j - 1]`.
    steps: Vec<usize>,
    /// Row `j` (stride `k`) holds the least potentials `p_m`, `m <= j`, of
    /// the prefix staircase `t_0..=t_j`: `p_m - p_0 = x_0 - x_m`.
    potentials: Vec<f64>,
    /// Phase 2's prefix tree, rooted at [`ROOT`]; empty in phase 1, where
    /// every probe moves `delta` and so every potential.
    tree: Vec<Node>,
    /// The leaf system handed to the witness relaxation.
    constraints: Vec<Diff>,
}

impl Staircase {
    fn new(k: usize, band: Band, alpha: f64) -> Self {
        Self {
            k,
            band,
            alpha,
            delta: 0.0,
            floor: band.lo,
            limit: 0.0,
            steps: vec![0; k],
            potentials: vec![0.0; k * k],
            tree: Vec::new(),
            constraints: Vec::with_capacity(2 * k + 2 + 2 * k * k),
        }
    }

    /// Starts phase 2: every later probe runs at `delta`, so the settled
    /// prefixes, and the tree of their bounds, carry over between them.
    fn fix_delta(&mut self, delta: f64) {
        self.delta = delta;
        self.tree.clear();
        self.tree.push(Node::UNBOUNDED);
    }

    /// The witness of the first feasible staircase at separation `delta`
    /// with the lowest frequency at or above `floor`, or `None` when no
    /// staircase is feasible.
    fn probe(&mut self, delta: f64, floor: f64) -> Option<Vec<f64>> {
        debug_assert!(self.tree.is_empty() || delta.to_bits() == self.delta.to_bits());
        self.delta = delta;
        self.floor = floor;
        let room = self.band.hi - floor.max(self.band.lo).min(self.band.hi);
        self.limit = room + PRUNE_SLACK;
        let root = (!self.tree.is_empty()).then_some(ROOT);
        self.descend(0, root).break_value()
    }

    /// Tries every step `t_j` for `x_j`, most close pairs first, below the
    /// prefix fixed so far (`node` in the tree, when it has one). Breaks
    /// with the first accepted witness; otherwise continues with a lower
    /// bound on the largest room requirement along the way to any leaf
    /// below: the least, over the steps, of the step's own requirement
    /// and the bound below it.
    fn descend(&mut self, j: usize, node: Option<usize>) -> ControlFlow<Vec<f64>, f64> {
        if j == self.k {
            return match self.witness() {
                Some(witness) => ControlFlow::Break(witness),
                None => ControlFlow::Continue(f64::NEG_INFINITY),
            };
        }
        let lowest = if j == 0 { 0 } else { self.steps[j - 1] };
        let first = node.and_then(|node| self.children(node, j + 1 - lowest));
        let mut least = f64::INFINITY;
        for t in lowest..=j {
            let child = first.map(|first| first + t - lowest);
            let mut bound = child.map_or(f64::NEG_INFINITY, |c| self.tree[c].bound);
            if bound <= self.limit {
                self.steps[j] = t;
                let need = self.settle(j);
                bound = bound.max(need);
                if need <= self.limit {
                    bound = bound.max(self.descend(j + 1, child)?);
                }
                if let Some(c) = child {
                    self.tree[c].bound = bound;
                }
            }
            least = least.min(bound);
        }
        ControlFlow::Continue(least)
    }

    /// The index of `node`'s first child, allocating its `count` children
    /// on the first visit; `None` when the tree is full.
    fn children(&mut self, node: usize, count: usize) -> Option<usize> {
        if self.tree[node].children == 0 {
            if self.tree.len() + count > TREE_CAP {
                return None;
            }
            self.tree[node].children = self.tree.len();
            self.tree.resize(self.tree.len() + count, Node::UNBOUNDED);
        }
        Some(self.tree[node].children)
    }

    /// Extends the parent prefix's least potentials by `x_j` and relaxes
    /// them to the least solution of the prefix `0..=j`. Returns the room
    /// that prefix needs in the band — its span plus the remaining
    /// `k - 1 - j` gaps — or infinity on a positive cycle.
    fn settle(&mut self, j: usize) -> f64 {
        let k = self.k;
        let (parent, rest) = self.potentials.split_at_mut(j * k);
        let row = &mut rest[..=j];
        if j > 0 {
            row[..j].copy_from_slice(&parent[(j - 1) * k..(j - 1) * k + j]);
        }
        row[j] = 0.0;
        let steps = &self.steps[..=j];
        let (delta, a) = (self.delta, -self.alpha);
        let (close, far) = (a - delta, a + delta);
        // Lower bounds point forward: a gap below `x_{m-1}`, and `far`
        // below the node just above the staircase step.
        let lift = |row: &mut [f64], m: usize| {
            let mut p = row[m].max(row[m - 1] + delta);
            if steps[m] > 0 {
                p = p.max(row[steps[m] - 1] + far);
            }
            row[m] = p;
        };
        // Close bounds point backward: `p_m - p_{t_m} <= a - delta` raises
        // the staircase's top node.
        let raise = |row: &mut [f64], m: usize| {
            let t = steps[m];
            let raised = t < m && row[m] - close > row[t] + PRUNE_SLACK;
            if raised {
                row[t] = row[m] - close;
            }
            raised
        };
        // The parent row is a fixed point of both sweeps, so the first pass
        // moves only `x_j`, and nothing else unless its close edge raises.
        if j > 0 {
            lift(row, j);
        }
        let mut settled = !raise(row, j);
        if !settled {
            for m in (1..j).rev() {
                raise(row, m);
            }
            // A feasible system settles within one pass per back edge on
            // its longest paths; any further pass means a positive cycle.
            for _ in 0..=j {
                for m in 1..=j {
                    lift(row, m);
                }
                let mut raised = false;
                for m in (1..=j).rev() {
                    raised |= raise(row, m);
                }
                if !raised {
                    settled = true;
                    break;
                }
            }
        }
        if settled {
            row[j] - row[0] + (k - 1 - j) as f64 * delta
        } else {
            f64::INFINITY
        }
    }

    /// Builds the leaf system the general case split would hold for this
    /// staircase — bounds, order, then per pair the direct literal and one
    /// literal per sideband clause, in clause order — and relaxes it from
    /// zero potentials with [`EPSILON`] slack. Returns the zero-normalized
    /// values of `x_0..x_{k-1}`, or `None` on a negative cycle.
    fn witness(&mut self) -> Option<Vec<f64>> {
        let (k, band, alpha, delta) = (self.k, self.band, self.alpha, self.delta);
        let cs = &mut self.constraints;
        cs.clear();
        for x in 1..=k {
            cs.push(Diff { x, y: 0, bound: band.hi });
            cs.push(Diff { x: 0, y: x, bound: -band.lo });
        }
        // Anchor: even the lowest frequency sits at or above `floor`.
        cs.push(Diff { x: k, y: 0, bound: band.hi });
        cs.push(Diff { x: 0, y: k, bound: -self.floor.min(band.hi) });
        for i in 1..=k {
            for j in i + 1..=k {
                cs.push(Diff { x: j, y: i, bound: -0.0 });
            }
        }
        for i in 0..k {
            for j in i + 1..k {
                let (xi, xj) = (i + 1, j + 1);
                cs.push(Diff { x: xj, y: xi, bound: 0.0 - delta });
                cs.push(if i >= self.steps[j] {
                    Diff { x: xi, y: xj, bound: -alpha - delta }
                } else {
                    Diff { x: xj, y: xi, bound: alpha - delta }
                });
                cs.push(Diff { x: xj, y: xi, bound: -alpha - delta });
            }
        }

        // Bellman–Ford from a virtual source: k rounds with early exit,
        // then one detection round.
        let mut dist = vec![0.0f64; k + 1];
        for _ in 0..k {
            let mut changed = false;
            for c in cs.iter() {
                let candidate = dist[c.y] + c.bound;
                if candidate < dist[c.x] - EPSILON {
                    dist[c.x] = candidate;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        if cs.iter().any(|c| dist[c.y] + c.bound < dist[c.x] - EPSILON) {
            return None;
        }
        let shift = dist[0];
        Some(dist[1..].iter().map(|d| d - shift).collect())
    }
}

/// Maps a coloring to frequencies ordered by color multiplicity: the color
/// used by the most gates receives the highest frequency (fastest gates,
/// §V-B3). Returns `frequency[color]`.
///
/// # Errors
///
/// Propagates [`CompileError::FrequencyBandExhausted`] from [`smt_find`].
/// An empty `colors` has no colors and returns no frequencies.
///
/// # Panics
///
/// Panics if `tolerance <= 0`.
pub fn frequencies_for_coloring(
    colors: &[usize],
    band: Band,
    alpha: f64,
    tolerance: f64,
) -> Result<Vec<f64>, CompileError> {
    let k = coloring::color_count(colors);
    let values = smt_find(k, band, alpha, tolerance)?;
    Ok(freq_of_color_by_multiplicity(colors, &values))
}

/// Maps sorted-descending frequency `values` onto the colors of `colors`
/// ranked by multiplicity (descending, ties by color index): the color
/// used by the most gates receives the highest frequency (§V-B3). Returns
/// `frequency[color]`.
///
/// Shared by the static (whole-graph) and dynamic (per-cycle) assignment
/// paths so both rank identically.
///
/// # Panics
///
/// Panics if `values` holds fewer entries than `colors` has colors.
pub fn freq_of_color_by_multiplicity(colors: &[usize], values: &[f64]) -> Vec<f64> {
    let mut scratch = MultiplicityScratch::default();
    freq_of_color_by_multiplicity_into(colors, values, &mut scratch);
    scratch.freq_of_color.clone()
}

/// Reusable buffers for
/// [`freq_of_color_by_multiplicity_into`]: the per-cycle ColorDynamic
/// path ranks a fresh coloring every colored cycle, and routing those
/// three vectors through caller-owned scratch keeps the engine's hot loop
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct MultiplicityScratch {
    histogram: Vec<usize>,
    order: Vec<usize>,
    /// `freq_of_color[color]` after the last
    /// [`freq_of_color_by_multiplicity_into`] call.
    pub freq_of_color: Vec<f64>,
}

/// [`freq_of_color_by_multiplicity`] writing into reusable scratch; the
/// result lands in `scratch.freq_of_color`. Identical ranking (count
/// descending, ties by color index) — the allocation-free twin the
/// engine's per-cycle path uses.
///
/// # Panics
///
/// Panics if `values` holds fewer entries than `colors` has colors.
pub fn freq_of_color_by_multiplicity_into(
    colors: &[usize],
    values: &[f64],
    scratch: &mut MultiplicityScratch,
) {
    let k = colors.iter().max().map_or(0, |&m| m + 1);
    assert!(values.len() >= k, "need one frequency per color");
    scratch.histogram.clear();
    scratch.histogram.resize(k, 0);
    for &c in colors {
        scratch.histogram[c] += 1;
    }
    scratch.order.clear();
    scratch.order.extend(0..k);
    let histogram = &scratch.histogram;
    scratch.order.sort_unstable_by_key(|&c| (std::cmp::Reverse(histogram[c]), c));
    scratch.freq_of_color.clear();
    scratch.freq_of_color.resize(k, 0.0);
    for (rank, &color) in scratch.order.iter().enumerate() {
        scratch.freq_of_color[color] = values[rank];
    }
}

/// Parking (idle) frequencies for every qubit: colors the connectivity
/// graph (2 colors on bipartite meshes, Welsh–Powell otherwise) and maps
/// colors to maximally separated values in the parking band (§IV-C-1).
///
/// # Errors
///
/// Propagates [`CompileError::FrequencyBandExhausted`].
pub fn parking_assignment(device: &Device, tolerance: f64) -> Result<Vec<f64>, CompileError> {
    let g = device.connectivity();
    let colors = coloring::two_coloring(g).unwrap_or_else(|| coloring::welsh_powell(g));
    let alpha = mean_anharmonicity(device);
    let freq_of_color =
        frequencies_for_coloring(&colors, device.partition().parking, alpha, tolerance)?;
    Ok(colors.into_iter().map(|c| freq_of_color[c]).collect())
}

/// The interaction band clamped so every qubit can reach it: tunable
/// transmons only tune *down* from their sampled `omega_max`, so the band
/// top is the slowest qubit's maximum.
///
/// # Errors
///
/// Returns [`CompileError::FrequencyBandExhausted`] when the clamped band
/// is empty (a qubit's maximum sits below the band floor).
pub fn reachable_interaction_band(device: &Device) -> Result<Band, CompileError> {
    let band = device.partition().interaction;
    let min_max = device.qubits().iter().map(|q| q.omega_max).fold(f64::INFINITY, f64::min);
    let hi = band.hi.min(min_max);
    if hi <= band.lo {
        return Err(CompileError::FrequencyBandExhausted { colors: 1 });
    }
    Ok(Band::new(band.lo, hi))
}

/// Mean anharmonicity across the device (the per-qubit spread is small;
/// the SMT constraints use a single representative value, like the paper's
/// "nearly constant anharmonicity" assumption in §VI-C).
pub fn mean_anharmonicity(device: &Device) -> f64 {
    let n = device.n_qubits().max(1);
    device.qubits().iter().map(|q| q.anharmonicity).sum::<f64>() / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsc_device::{Device, DeviceBuilder};

    const TOL: f64 = 1e-3;
    const ALPHA: f64 = -0.2;

    #[test]
    fn single_color_gets_top_of_band() {
        let f = smt_find(1, Band::new(6.0, 7.0), ALPHA, TOL).expect("one slot fits");
        assert_eq!(f.len(), 1);
        assert!((6.0..=7.0).contains(&f[0]));
    }

    #[test]
    fn separations_respect_threshold_and_sidebands() {
        for k in 2..=5 {
            let f = smt_find(k, Band::new(6.0, 7.0), ALPHA, TOL).expect("fits");
            assert_eq!(f.len(), k);
            // Descending order.
            for w in f.windows(2) {
                assert!(w[0] >= w[1]);
            }
            // All pairs separated directly and at the sideband offset.
            let min_sep = f
                .iter()
                .enumerate()
                .flat_map(|(i, &a)| f[i + 1..].iter().map(move |&b| (a - b).abs()))
                .fold(f64::INFINITY, f64::min);
            assert!(min_sep > 0.0, "k = {k}");
            for (i, &a) in f.iter().enumerate() {
                for (j, &b) in f.iter().enumerate() {
                    if i != j {
                        assert!(
                            (a + ALPHA - b).abs() > 1e-6,
                            "k = {k}: sideband collision {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_colors_place_nothing() {
        assert_eq!(smt_find(0, Band::new(6.0, 7.0), ALPHA, TOL), Ok(Vec::new()));
    }

    #[test]
    fn an_empty_coloring_gets_no_frequencies() {
        let f = frequencies_for_coloring(&[], Band::new(6.0, 7.0), ALPHA, TOL);
        assert_eq!(f, Ok(Vec::new()));
    }

    #[test]
    fn two_colors_nearly_maximal_separation() {
        // With sidebands the best two-point separation in a 1 GHz band is
        // 1.0 (endpoints), as long as |1.0 - 0.2| = 0.8 >= delta... the
        // binding constraint is delta <= 0.8.
        let f = smt_find(2, Band::new(6.0, 7.0), ALPHA, TOL).expect("fits");
        let sep = f[0] - f[1];
        assert!(sep > 0.75, "separation = {sep}");
    }

    #[test]
    fn multiplicity_ordering_gives_popular_color_fastest() {
        // Color 1 used 3 times, color 0 once: color 1 must get the higher
        // frequency.
        let colors = [1, 1, 0, 1];
        let f =
            frequencies_for_coloring(&colors, Band::new(6.0, 7.0), ALPHA, TOL).expect("fits");
        assert!(f[1] > f[0], "popular color must be faster: {f:?}");
    }

    #[test]
    fn parking_checkerboard_on_mesh() {
        let d = Device::grid(4, 4, 3);
        let parking = parking_assignment(&d, TOL).expect("bipartite mesh");
        // Two distinct values, assigned in checkerboard pattern.
        let mut distinct: Vec<f64> = parking.clone();
        distinct.sort_by(f64::total_cmp);
        distinct.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        assert_eq!(distinct.len(), 2);
        for (_, (u, v)) in d.connectivity().edges() {
            assert!((parking[u] - parking[v]).abs() > 0.1, "neighbors share parking");
        }
        // Values stay in the parking band.
        for &p in &parking {
            assert!(d.partition().parking.contains(p), "{p} outside parking band");
        }
    }

    #[test]
    fn parking_handles_odd_cycles() {
        use fastsc_graph::topology;
        let mut b = DeviceBuilder::new(topology::ring(5));
        b.seed(1);
        let d = b.build();
        let parking = parking_assignment(&d, TOL).expect("3-colorable ring");
        for (_, (u, v)) in d.connectivity().edges() {
            assert!((parking[u] - parking[v]).abs() > 1e-3);
        }
    }

    #[test]
    fn reachable_band_clamped_by_slowest_qubit() {
        let mut b = DeviceBuilder::new(fastsc_graph::topology::grid(2, 2));
        b.seed(0).omega_max_distribution(6.5, 0.0);
        let d = b.build();
        let band = reachable_interaction_band(&d).expect("non-empty");
        assert!((band.hi - 6.5).abs() < 1e-12);
        assert_eq!(band.lo, 6.0);
    }

    #[test]
    fn unreachable_band_is_an_error() {
        let mut b = DeviceBuilder::new(fastsc_graph::topology::grid(2, 2));
        b.seed(0).omega_max_distribution(5.5, 0.0); // below the 6 GHz floor
        let d = b.build();
        assert!(matches!(
            reachable_interaction_band(&d),
            Err(CompileError::FrequencyBandExhausted { .. })
        ));
    }

    #[test]
    fn mean_anharmonicity_matches_default() {
        let d = Device::grid(2, 2, 0);
        assert!((mean_anharmonicity(&d) + 0.2).abs() < 1e-9);
    }

    #[test]
    fn too_many_colors_still_packs_or_errors() {
        // 12 colors in 1 GHz: separations get thin but it must not panic.
        let f = smt_find(12, Band::new(6.0, 7.0), ALPHA, TOL);
        match f {
            Ok(values) => assert_eq!(values.len(), 12),
            Err(CompileError::FrequencyBandExhausted { .. }) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
    }
}
