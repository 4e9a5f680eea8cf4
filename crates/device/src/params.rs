//! Device-wide physical constants and the gate-time model.

/// Physical constants shared by all qubits of a device.
///
/// Conventions: frequencies are cyclic frequencies in **GHz**, durations in
/// **ns**. A resonant exchange with coupling `g` (GHz) has transition
/// probability `sin^2(2 pi g t)` after `t` ns, so a complete `iSWAP` takes
/// `t = 1/(4g)` and a complete `CZ` (coupling scaled by `sqrt(2)` through
/// the `|11> <-> |20>` channel, App. B) takes `t = 1/(2 sqrt(2) g)`.
///
/// The default effective coupling `g0 = 5 MHz` pins the iSWAP near the
/// ~50 ns the paper quotes (App. C). The paper's quoted bare capacitive
/// coupling (`~30 MHz`) refers to the raw circuit element; using the
/// effective resonance value keeps gate times, Fig. 2 magnitudes and
/// crosstalk errors mutually consistent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceParams {
    /// Effective qubit-qubit coupling at the reference frequency, GHz.
    pub g0: f64,
    /// Reference frequency (GHz) at which the coupling equals `g0`; the
    /// effective coupling scales as `omega / omega_ref` so higher
    /// interaction frequencies give faster gates (`t_gate ~ 1/omega`,
    /// paper §V-B3).
    pub omega_ref: f64,
    /// Single-qubit (microwave) gate duration, ns.
    pub t_single_ns: f64,
    /// Flux-pulse settling overhead added to every frequency move, ns
    /// (App. C quotes ~2 ns state-of-the-art).
    pub flux_settle_ns: f64,
    /// Residual calibration error charged to every two-qubit gate even in
    /// the absence of crosstalk (App. C quotes > 99.5 % fidelity).
    pub base_two_qubit_error: f64,
    /// Residual calibration error per single-qubit gate.
    pub base_single_qubit_error: f64,
    /// Effective coupling multiplier for next-neighbor (distance-2)
    /// residual channels; 0 disables them. Models the weaker beyond-
    /// nearest-neighbor interaction discussed in §IV-C-3.
    pub distance2_coupling_factor: f64,
    /// Extra dephasing rate per GHz of detuning from the nearest flux
    /// sweet spot (dimensionless multiplier on `1/T2`); models the flux
    /// noise sensitivity shaded in Fig. 4.
    pub flux_noise_slope: f64,
}

impl DeviceParams {
    /// Effective coupling at interaction frequency `omega` (GHz).
    ///
    /// # Panics
    ///
    /// Panics if `omega` is not positive.
    pub fn coupling_at(&self, omega: f64) -> f64 {
        assert!(omega > 0.0, "frequency must be positive, got {omega}");
        self.g0 * omega / self.omega_ref
    }

    /// Duration of a complete `iSWAP` at interaction frequency `omega`, ns.
    pub fn iswap_duration_ns(&self, omega: f64) -> f64 {
        1.0 / (4.0 * self.coupling_at(omega))
    }

    /// Duration of a `sqrt(iSWAP)` at `omega`, ns (half the iSWAP).
    pub fn sqrt_iswap_duration_ns(&self, omega: f64) -> f64 {
        0.5 * self.iswap_duration_ns(omega)
    }

    /// Duration of a complete `CZ` at `omega`, ns: the `|11> <-> |20>`
    /// channel couples at `sqrt(2) g` and must complete a full cycle
    /// (App. B: `t = pi / (sqrt(2) g)` in angular units).
    pub fn cz_duration_ns(&self, omega: f64) -> f64 {
        1.0 / (std::f64::consts::SQRT_2 * self.coupling_at(omega))
    }
}

impl Default for DeviceParams {
    fn default() -> Self {
        DeviceParams {
            g0: 0.005,
            omega_ref: 7.0,
            t_single_ns: 25.0,
            flux_settle_ns: 2.0,
            base_two_qubit_error: 0.005,
            base_single_qubit_error: 0.001,
            distance2_coupling_factor: 0.0,
            flux_noise_slope: 0.1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iswap_near_fifty_ns_at_reference() {
        let p = DeviceParams::default();
        let t = p.iswap_duration_ns(p.omega_ref);
        assert!((t - 50.0).abs() < 1e-9, "iSWAP at omega_ref = {t} ns");
    }

    #[test]
    fn gates_faster_at_higher_frequency() {
        let p = DeviceParams::default();
        assert!(p.iswap_duration_ns(7.0) < p.iswap_duration_ns(6.0));
        assert!(p.cz_duration_ns(7.0) < p.cz_duration_ns(6.0));
    }

    #[test]
    fn cz_slower_than_iswap_by_sqrt2_over_2() {
        // t_cz / t_iswap = (1/(sqrt(2) g)) / (1/(4 g)) ... = 4/sqrt(2) / ...
        let p = DeviceParams::default();
        let ratio = p.cz_duration_ns(6.5) / p.iswap_duration_ns(6.5);
        assert!((ratio - 4.0 / std::f64::consts::SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn sqrt_iswap_is_half_iswap() {
        let p = DeviceParams::default();
        assert!((p.sqrt_iswap_duration_ns(6.2) - 0.5 * p.iswap_duration_ns(6.2)).abs() < 1e-12);
    }

    #[test]
    fn coupling_scales_linearly() {
        let p = DeviceParams::default();
        assert!((p.coupling_at(7.0) - p.g0).abs() < 1e-12);
        assert!((p.coupling_at(3.5) - 0.5 * p.g0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_nonpositive_frequency() {
        let _ = DeviceParams::default().coupling_at(-1.0);
    }
}
