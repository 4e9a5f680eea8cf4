//! Parity of the order-aware `smt_find` against two oracles.
//!
//! `oracle_smt_find` is the general search `smt_find` replaced: every
//! absolute-value clause of Eq. 2–3 handed to `fastsc_smt`'s case-split
//! search under the fixed order, inside the same two-phase bisection.
//! Every persisted statics and SMT-memo entry was produced by it, so the
//! solver must agree bit for bit: same values, same errors.
//!
//! [`staircase::smt_find`] is the order-aware staircase search verbatim
//! as it stood before it reused work across probes (phase-2 subtree
//! bounds, incremental settle). It is fast enough to check color counts
//! the general search cannot reach.
//!
//! The ignored tests cover the large color counts where an oracle takes
//! seconds; run them in release:
//! `cargo test --release -p fastsc-core --test frequency_oracle -- --ignored`.

use fastsc_core::frequency::smt_find;
use fastsc_core::{CompileContext, CompileError, CompilerConfig};
use fastsc_device::{Band, Device};
use fastsc_graph::topology::Topology;
use fastsc_smt::{maximize, Problem};
use proptest::prelude::*;

/// The general-search `smt_find`, kept as the parity oracle.
fn oracle_smt_find(
    k: usize,
    band: Band,
    alpha: f64,
    tolerance: f64,
) -> Result<Vec<f64>, CompileError> {
    assert!(k > 0, "at least one frequency required");
    let build = |delta: f64, floor: f64| {
        let mut p = Problem::new();
        let xs: Vec<_> = (0..k).map(|_| p.new_var()).collect();
        for &x in &xs {
            p.add_bounds(x, band.lo, band.hi);
        }
        // Anchor: even the lowest frequency sits at or above `floor`.
        p.add_bounds(xs[k - 1], floor.min(band.hi), band.hi);
        for i in 0..k {
            for j in (i + 1)..k {
                p.add_abs_ge(xs[i], 0.0, xs[j], delta);
                p.add_abs_ge(xs[i], alpha, xs[j], delta);
                p.add_abs_ge(xs[j], alpha, xs[i], delta);
                // Total ordering: x_i (earlier) above x_j (later).
                p.add_ge(xs[i], xs[j], 0.0);
            }
        }
        p
    };
    let best_delta =
        maximize(0.0, band.width().max(tolerance), tolerance, |delta| build(delta, band.lo))
            .ok_or(CompileError::FrequencyBandExhausted { colors: k })?
            .best;
    let delta = (best_delta - tolerance).max(0.0);
    let solved = maximize(band.lo, band.hi, tolerance, |floor| build(delta, floor))
        .ok_or(CompileError::FrequencyBandExhausted { colors: k })?;
    let mut values: Vec<f64> = solved.model.values().to_vec();
    values.sort_by(|a, b| b.total_cmp(a));
    Ok(values)
}

/// The staircase search without work reuse, kept as the second oracle.
mod staircase {
    use fastsc_core::CompileError;
    use fastsc_device::Band;

    pub fn smt_find(
        k: usize,
        band: Band,
        alpha: f64,
        tolerance: f64,
    ) -> Result<Vec<f64>, CompileError> {
        assert!(k > 0, "at least one frequency required");
        assert!(tolerance > 0.0, "tolerance must be positive, got {tolerance}");
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

    /// The order-aware staircase search, with buffers reused across the
    /// probes of one [`smt_find`] call.
    struct Staircase {
        k: usize,
        band: Band,
        /// `-|alpha|`.
        alpha: f64,
        delta: f64,
        floor: f64,
        /// `steps[j] = t_j`: `x_i` is close to `x_j` exactly for `i` in
        /// `[t_j, j - 1]`.
        steps: Vec<usize>,
        /// Row `j` (stride `k`) holds the least potentials `p_m`, `m <= j`, of
        /// the prefix staircase `t_0..=t_j`: `p_m - p_0 = x_0 - x_m`.
        potentials: Vec<f64>,
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
                steps: vec![0; k],
                potentials: vec![0.0; k * k],
                constraints: Vec::with_capacity(2 * k + 2 + 2 * k * k),
            }
        }

        /// The witness of the first feasible staircase at separation `delta`
        /// with the lowest frequency at or above `floor`, or `None` when no
        /// staircase is feasible.
        fn probe(&mut self, delta: f64, floor: f64) -> Option<Vec<f64>> {
            self.delta = delta;
            self.floor = floor;
            self.descend(0)
        }

        /// Tries every step `t_j` for `x_j`, most close pairs first, below the
        /// prefix fixed so far.
        fn descend(&mut self, j: usize) -> Option<Vec<f64>> {
            if j == self.k {
                return self.witness();
            }
            let lowest = if j == 0 { 0 } else { self.steps[j - 1] };
            for t in lowest..=j {
                self.steps[j] = t;
                if self.settle(j) {
                    if let Some(witness) = self.descend(j + 1) {
                        return Some(witness);
                    }
                }
            }
            None
        }

        /// Extends the parent prefix's least potentials by `x_j` and relaxes
        /// them to the least solution of the prefix `0..=j`. Returns `false`
        /// when that prefix is infeasible: a positive cycle, or a span that
        /// leaves no room for the remaining `k - 1 - j` gaps in the band.
        fn settle(&mut self, j: usize) -> bool {
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
            // A feasible system settles within one pass per back edge on its
            // longest paths; any further pass means a positive cycle.
            for _ in 0..=j + 1 {
                // Lower bounds point forward: one sweep in index order.
                for m in 1..=j {
                    let mut p = row[m].max(row[m - 1] + delta);
                    if steps[m] > 0 {
                        p = p.max(row[steps[m] - 1] + far);
                    }
                    row[m] = p;
                }
                // Close bounds point backward: `p_j - p_{t_j} <= a - delta`
                // raises the staircase's top node.
                let mut raised = false;
                for m in (1..=j).rev() {
                    let t = steps[m];
                    if t < m && row[m] - close > row[t] + PRUNE_SLACK {
                        row[t] = row[m] - close;
                        raised = true;
                    }
                }
                if !raised {
                    let room = self.band.hi - self.floor.max(self.band.lo).min(self.band.hi);
                    return row[j] - row[0] + (k - 1 - j) as f64 * delta <= room + PRUNE_SLACK;
                }
            }
            false
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
}

/// A solve's outcome with its values as bits (`==` on `f64` would let
/// `-0.0` pass for `0.0`).
fn bits(r: Result<Vec<f64>, CompileError>) -> Result<Vec<u64>, CompileError> {
    r.map(|v| v.into_iter().map(f64::to_bits).collect())
}

/// Asserts `smt_find` and the general search return the same error or the
/// same values, bit for bit.
fn assert_parity(k: usize, band: Band, alpha: f64, tol: f64) {
    assert_eq!(
        bits(smt_find(k, band, alpha, tol)),
        bits(oracle_smt_find(k, band, alpha, tol)),
        "k = {k}, band = {band:?}, alpha = {alpha}, tol = {tol}"
    );
}

/// Asserts `smt_find` and the staircase search without work reuse return
/// the same error or the same values, bit for bit.
fn assert_staircase_parity(k: usize, band: Band, alpha: f64, tol: f64) {
    assert_eq!(
        bits(smt_find(k, band, alpha, tol)),
        bits(staircase::smt_find(k, band, alpha, tol)),
        "k = {k}, band = {band:?}, alpha = {alpha}, tol = {tol}"
    );
}

#[test]
fn fixed_bands_match_the_general_search() {
    let cases = [(6.0, 7.0, -0.2), (6.0, 6.5, -0.2), (5.0, 6.2, -0.3), (6.2, 6.6, -0.1)];
    for (lo, hi, alpha) in cases {
        for k in 1..=7 {
            assert_parity(k, Band::new(lo, hi), alpha, 1e-3);
        }
    }
}

#[test]
fn degenerate_bands_match_the_general_search() {
    // A zero-width band: only k = 1 fits; the rest must fail the same way
    // or collapse onto the same values.
    for k in 1..=4 {
        assert_parity(k, Band::new(6.0, 6.0), -0.2, 1e-3);
    }
    // A band narrower than the tolerance times the gap count drives the
    // phase-2 separation to zero.
    for k in 2..=5 {
        assert_parity(k, Band::new(6.0, 6.002), -0.2, 1e-3);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_bands_match_the_general_search(
        k in 1usize..=9,
        lo in 4.5f64..6.5,
        width in 0.2f64..1.4,
        alpha in -0.4f64..-0.1,
        tol_pick in 0usize..3,
    ) {
        let tol = [5e-4, 1e-3, 2e-3][tol_pick];
        assert_parity(k, Band::new(lo, lo + width), alpha, tol);
    }

    #[test]
    fn random_bands_match_the_staircase_without_reuse(
        k in 1usize..=12,
        lo in 4.5f64..6.5,
        width in 0.0f64..1.4,
        alpha in -0.4f64..-0.05,
        tol in 2e-4f64..5e-3,
    ) {
        assert_staircase_parity(k, Band::new(lo, lo + width), alpha, tol);
    }
}

#[test]
#[ignore = "the general search takes seconds at k >= 10; run in release"]
fn large_color_counts_and_d2_statics_match_the_general_search() {
    for k in 10..=14 {
        assert_parity(k, Band::new(6.0, 7.0), -0.2, 1e-3);
    }
    let config = CompilerConfig { crosstalk_distance: 2, ..CompilerConfig::default() };
    let ctx = CompileContext::new(Device::grid(4, 4, 7), config).expect("context");
    let statics = ctx.statics().expect("d = 2 statics solve");
    assert_eq!(statics.color_count, 14, "the d = 2 4x4 statics need 14 colors");
    assert_parity(statics.color_count, ctx.band(), ctx.alpha(), config.smt_tolerance);
}

#[test]
#[ignore = "the staircase without reuse takes seconds at k = 26; run in release"]
fn large_color_counts_and_ex2d_d2_statics_match_the_staircase_without_reuse() {
    // The 3x3 and 4x4 paper-seed grids carry the two interaction bands the
    // paper workloads solve in.
    let paper_band =
        |side| CompileContext::new(Device::grid(side, side, 2020), CompilerConfig::default());
    let mut bands = vec![Band::new(6.0, 7.0)];
    bands.extend([3, 4].map(|side| paper_band(side).expect("context").band()));
    for band in bands {
        for k in 15..=20 {
            assert_staircase_parity(k, band, -0.2, 1e-3);
        }
    }
    let config = CompilerConfig { crosstalk_distance: 2, ..CompilerConfig::default() };
    let device = Device::from_topology(Topology::Express2D { k: 2 }, 16, 7);
    let ctx = CompileContext::new(device, config).expect("context");
    let statics = ctx.statics().expect("d = 2 statics solve");
    assert_eq!(statics.color_count, 26, "the d = 2 Express2D 4x4 statics need 26 colors");
    // The statics' own solve, read back from the context's memo.
    let (solved, _) = ctx.smt_frequencies(statics.color_count).expect("memoized");
    let without_reuse =
        staircase::smt_find(statics.color_count, ctx.band(), ctx.alpha(), config.smt_tolerance);
    assert_eq!(bits(Ok(solved.to_vec())), bits(without_reuse));
}
