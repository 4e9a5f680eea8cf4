//! Qubit decoherence (paper §II-B-1) and flux-noise dephasing (Fig. 4).

/// The paper's decoherence error after accumulating decay exponents
/// `x1 = sum t_i/T1` and `x2 = sum t_i/T2_eff(i)`:
/// `q = (1 - e^{-x1}) (1 - e^{-x2})`.
pub fn error_from_exponents(x1: f64, x2: f64) -> f64 {
    (1.0 - (-x1).exp()) * (1.0 - (-x2).exp())
}

/// Error of a qubit idling for `t_ns` with constant `T1`/`T2`
/// (microseconds): `q(t) = (1 - e^{-t/T1}) (1 - e^{-t/T2})`.
///
/// # Panics
///
/// Panics unless both time constants are positive and `t_ns >= 0`.
pub fn error(t1_us: f64, t2_us: f64, t_ns: f64) -> f64 {
    assert!(t1_us > 0.0 && t2_us > 0.0, "coherence times must be positive");
    assert!(t_ns >= 0.0, "duration must be non-negative");
    let t_us = t_ns * 1e-3;
    error_from_exponents(t_us / t1_us, t_us / t2_us)
}

/// Effective dephasing time at a frequency `dist_ghz` away from the
/// nearest flux sweet spot: `T2_eff = T2 / (1 + slope * dist)`.
///
/// Away from sweet spots a tunable transmon is first-order sensitive to
/// flux noise (shaded region in paper Fig. 4); the linear penalty is the
/// simplest monotone model and is disabled by `slope = 0`.
///
/// # Panics
///
/// Panics if any argument is negative.
pub fn flux_adjusted_t2(t2_us: f64, dist_ghz: f64, slope: f64) -> f64 {
    assert!(t2_us > 0.0, "T2 must be positive");
    assert!(dist_ghz >= 0.0 && slope >= 0.0, "distance and slope must be non-negative");
    t2_us / (1.0 + slope * dist_ghz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_zero_at_zero_time() {
        assert_eq!(error(25.0, 20.0, 0.0), 0.0);
    }

    #[test]
    fn error_monotone_in_time() {
        let mut last = 0.0;
        for t in [10.0, 100.0, 1_000.0, 10_000.0, 100_000.0] {
            let e = error(25.0, 20.0, t);
            assert!(e > last, "t = {t}");
            last = e;
        }
        assert!(last <= 1.0);
    }

    #[test]
    fn error_saturates_at_one() {
        let e = error(1.0, 1.0, 1e9);
        assert!((e - 1.0).abs() < 1e-9);
    }

    #[test]
    fn paper_product_matches_formula() {
        let (t1, t2, t) = (25.0, 20.0, 3_000.0); // 3 us program
        let e = error(t1, t2, t);
        let expect = (1.0 - (-3.0f64 / 25.0).exp()) * (1.0 - (-3.0f64 / 20.0).exp());
        assert!((e - expect).abs() < 1e-12);
    }

    #[test]
    fn exponent_accumulation_equals_direct_when_constant() {
        let direct = error(25.0, 20.0, 2_000.0);
        // Two 1 us segments with the same constants.
        let acc = error_from_exponents(2.0 / 25.0, 2.0 / 20.0);
        assert!((direct - acc).abs() < 1e-12);
    }

    #[test]
    fn flux_noise_shortens_t2() {
        assert_eq!(flux_adjusted_t2(20.0, 0.0, 0.1), 20.0);
        let degraded = flux_adjusted_t2(20.0, 1.0, 0.1);
        assert!(degraded < 20.0);
        assert!((degraded - 20.0 / 1.1).abs() < 1e-12);
        // Disabled by slope = 0.
        assert_eq!(flux_adjusted_t2(20.0, 5.0, 0.0), 20.0);
    }
}
