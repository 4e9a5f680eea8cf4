//! Parity of the order-aware `smt_find` against the general
//! difference-logic search it replaced.
//!
//! `oracle_smt_find` is the previous implementation verbatim: every
//! absolute-value clause of Eq. 2–3 handed to `fastsc_smt`'s case-split
//! search under the fixed order, inside the same two-phase bisection.
//! Every persisted statics and SMT-memo entry was produced by it, so the
//! new solver must agree bit for bit: same values, same errors.
//!
//! The ignored test covers the large color counts where the oracle takes
//! seconds; run it in release:
//! `cargo test --release -p fastsc-core --test frequency_oracle -- --ignored`.

use fastsc_core::frequency::smt_find;
use fastsc_core::{CompileContext, CompileError, CompilerConfig};
use fastsc_device::{Band, Device};
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

/// Asserts both solvers return the same error or the same values, bit for
/// bit (`==` on `f64` would let `-0.0` pass for `0.0`).
fn assert_parity(k: usize, band: Band, alpha: f64, tol: f64) {
    let bits = |r: Result<Vec<f64>, CompileError>| {
        r.map(|v| v.into_iter().map(f64::to_bits).collect::<Vec<_>>())
    };
    assert_eq!(
        bits(smt_find(k, band, alpha, tol)),
        bits(oracle_smt_find(k, band, alpha, tol)),
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
