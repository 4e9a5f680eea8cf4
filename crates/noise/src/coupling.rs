//! Residual coupling and Rabi-oscillation crosstalk errors
//! (paper Fig. 2, App. B).
//!
//! Conventions: couplings and frequencies are cyclic frequencies in GHz,
//! durations in ns, so the phase accumulated by a resonant exchange is
//! `2 pi g t`.

/// Residual coupling between two detuned transmons (paper Eq. 5):
/// `g'(delta_omega) = g0^2 / delta_omega`, saturating at the bare coupling
/// `g0` on resonance (the perturbative expression diverges as
/// `delta_omega -> 0`; the exchange coupling can never exceed `g0`).
///
/// # Panics
///
/// Panics if `g0 < 0` or `delta_omega < 0`.
pub fn residual_coupling(g0: f64, delta_omega: f64) -> f64 {
    assert!(g0 >= 0.0, "coupling must be non-negative, got {g0}");
    assert!(delta_omega >= 0.0, "detuning must be non-negative, got {delta_omega}");
    if g0 == 0.0 {
        return 0.0;
    }
    g0 * g0 / delta_omega.max(g0)
}

/// Rabi transition probability after `t_ns` at coupling `g` (App. B):
/// `Pr[t] = sin^2(2 pi g t)`.
///
/// # Panics
///
/// Panics if `g < 0` or `t_ns < 0`.
pub fn transition_probability(g: f64, t_ns: f64) -> f64 {
    assert!(g >= 0.0, "coupling must be non-negative, got {g}");
    assert!(t_ns >= 0.0, "duration must be non-negative, got {t_ns}");
    let phase = 2.0 * std::f64::consts::PI * g * t_ns;
    // Past a quarter period the oscillation is fully mixed; for a
    // *worst-case* estimate the error does not come back down.
    if phase >= std::f64::consts::FRAC_PI_2 {
        1.0
    } else {
        phase.sin().powi(2)
    }
}

/// Worst-case crosstalk error on an unwanted channel with bare coupling
/// `g0` and detuning `delta_omega`, over `t_ns`.
///
/// Uses the detuned two-level Rabi solution: the transition probability is
/// `A sin^2(2 pi Omega t)` with generalized Rabi frequency
/// `Omega = sqrt(g0^2 + (delta_omega/2)^2)` and amplitude
/// `A = g0^2 / Omega^2` — off-resonant exchange never transfers more than
/// `A` of the population, no matter how long the channel stays open. The
/// worst case over the cycle is therefore `A` once a quarter Rabi period
/// has elapsed. For `delta_omega >> g0` this reduces to
/// `A ~ (2 g0 / delta_omega)^2`, the same `1/delta_omega^2` suppression as
/// composing the paper's Eq. 5 residual coupling with Eq. 6 at nominal
/// gate times; the closed form stands in for simulating the channel.
pub fn crosstalk_error(g0: f64, delta_omega: f64, t_ns: f64) -> f64 {
    assert!(g0 >= 0.0, "coupling must be non-negative, got {g0}");
    assert!(delta_omega >= 0.0, "detuning must be non-negative, got {delta_omega}");
    assert!(t_ns >= 0.0, "duration must be non-negative, got {t_ns}");
    if g0 == 0.0 {
        return 0.0;
    }
    let omega_sq = g0 * g0 + 0.25 * delta_omega * delta_omega;
    let amplitude = g0 * g0 / omega_sq;
    let phase = 2.0 * std::f64::consts::PI * omega_sq.sqrt() * t_ns;
    if phase >= std::f64::consts::FRAC_PI_2 {
        amplitude
    } else {
        amplitude * phase.sin().powi(2)
    }
}

/// The three resonance channels between a pair of coupled transmons.
///
/// `omega_a`/`omega_b` are the 0-1 frequencies during the cycle;
/// `alpha_a`/`alpha_b` the anharmonicities (negative). The
/// `|11> <-> |20>`-type channels couple `sqrt(2)` stronger (App. B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelErrors {
    /// `omega01_a = omega01_b` exchange (iSWAP-type) channel error.
    pub exchange: f64,
    /// `omega12_a = omega01_b` leakage channel error.
    pub leakage_a: f64,
    /// `omega01_a = omega12_b` leakage channel error.
    pub leakage_b: f64,
}

impl ChannelErrors {
    /// Combined error: `1 - prod (1 - eps_i)`.
    pub fn combined(&self) -> f64 {
        1.0 - (1.0 - self.exchange) * (1.0 - self.leakage_a) * (1.0 - self.leakage_b)
    }

    /// The largest single channel error.
    pub fn max(&self) -> f64 {
        self.exchange.max(self.leakage_a).max(self.leakage_b)
    }
}

/// Evaluates all three channels for a coupled pair over one cycle.
///
/// `g0` is the bare coupling already scaled by any coupler attenuation.
pub fn pair_channels(
    g0: f64,
    omega_a: f64,
    omega_b: f64,
    alpha_a: f64,
    alpha_b: f64,
    t_ns: f64,
) -> ChannelErrors {
    let exchange = crosstalk_error(g0, (omega_a - omega_b).abs(), t_ns);
    let sqrt2_g0 = std::f64::consts::SQRT_2 * g0;
    // |11> <-> |20>: the 1->2 transition of one qubit absorbs the 1->0 of
    // the other, resonant when omega12_x = omega01_y.
    let leakage_a = crosstalk_error(sqrt2_g0, (omega_a + alpha_a - omega_b).abs(), t_ns);
    let leakage_b = crosstalk_error(sqrt2_g0, (omega_b + alpha_b - omega_a).abs(), t_ns);
    ChannelErrors { exchange, leakage_a, leakage_b }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G0: f64 = 0.005; // 5 MHz in GHz

    #[test]
    fn residual_coupling_decays_inversely() {
        let g1 = residual_coupling(G0, 0.1);
        let g2 = residual_coupling(G0, 0.2);
        assert!((g1 / g2 - 2.0).abs() < 1e-9, "1/delta scaling");
    }

    #[test]
    fn residual_coupling_saturates_on_resonance() {
        assert_eq!(residual_coupling(G0, 0.0), G0);
        assert_eq!(residual_coupling(G0, G0 / 2.0), G0);
        assert!(residual_coupling(G0, 2.0 * G0) < G0);
    }

    #[test]
    fn zero_coupling_is_inert() {
        assert_eq!(residual_coupling(0.0, 0.3), 0.0);
        assert_eq!(crosstalk_error(0.0, 0.0, 1000.0), 0.0);
    }

    #[test]
    fn transition_probability_monotone_until_saturation() {
        // Small phases grow quadratically, then clamp to 1.
        let p1 = transition_probability(0.001, 10.0);
        let p2 = transition_probability(0.001, 20.0);
        assert!(p1 < p2, "growing before saturation");
        assert_eq!(transition_probability(0.005, 1000.0), 1.0, "saturated");
    }

    #[test]
    fn on_resonance_full_swap_at_quarter_period() {
        // t = 1/(4 g): a complete exchange.
        let g = 0.005;
        let t = 1.0 / (4.0 * g);
        assert!((transition_probability(g, t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn crosstalk_error_small_at_half_ghz_separation() {
        // The SMT separations (hundreds of MHz) must render crosstalk
        // negligible over a 50 ns gate: this is the quantitative backbone
        // of the whole mitigation strategy.
        let eps = crosstalk_error(G0, 0.5, 50.0);
        assert!(eps < 1e-3, "eps = {eps}");
        // While a near-collision (5 MHz apart) is catastrophic.
        let eps_bad = crosstalk_error(G0, 0.005, 50.0);
        assert!(eps_bad > 0.5, "eps_bad = {eps_bad}");
    }

    #[test]
    fn crosstalk_error_is_amplitude_bounded() {
        // Off resonance the error can never exceed the Rabi amplitude,
        // however long the channel stays open.
        let delta = 0.1;
        let bound = (2.0 * G0 / delta).powi(2);
        for t in [50.0, 500.0, 50_000.0] {
            let eps = crosstalk_error(G0, delta, t);
            assert!(eps <= bound * 1.01, "t = {t}: eps = {eps} > bound {bound}");
        }
    }

    #[test]
    fn crosstalk_error_inverse_square_tail() {
        let e1 = crosstalk_error(G0, 0.2, 1e6);
        let e2 = crosstalk_error(G0, 0.4, 1e6);
        assert!((e1 / e2 - 4.0).abs() < 0.05, "ratio = {}", e1 / e2);
    }

    #[test]
    fn crosstalk_error_full_on_resonance() {
        assert!((crosstalk_error(G0, 0.0, 1000.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig2_shape_peak_at_resonance() {
        // Sweep omega_A across omega_B = 5.44 GHz as in Fig. 2: strength
        // peaks on resonance and falls off on both sides.
        let omega_b = 5.44;
        let strengths: Vec<f64> = (0..=120)
            .map(|i| {
                let omega_a = 5.38 + 0.001 * i as f64;
                residual_coupling(G0, (omega_a - omega_b).abs())
            })
            .collect();
        let peak_idx =
            strengths.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).expect("nonempty").0;
        let peak_omega = 5.38 + 0.001 * peak_idx as f64;
        assert!((peak_omega - omega_b).abs() < 0.006, "peak at {peak_omega}");
        assert!(strengths[0] < strengths[peak_idx] / 5.0, "tails decay");
    }

    #[test]
    fn leakage_channels_resonant_at_anharmonicity_offset() {
        // omega_a + alpha = omega_b: leakage_a channel on resonance.
        let ch = pair_channels(G0, 6.5, 6.3, -0.2, -0.2, 50.0);
        assert!(ch.leakage_a > 0.9, "leakage_a = {}", ch.leakage_a);
        // Exchange channel is 200 MHz detuned: tiny.
        assert!(ch.exchange < 0.01);
        assert!(ch.combined() >= ch.max());
    }

    #[test]
    fn combined_error_bounds() {
        let ch = pair_channels(G0, 6.5, 6.5, -0.2, -0.2, 50.0);
        let c = ch.combined();
        assert!((0.0..=1.0).contains(&c));
        assert!(c >= ch.exchange);
    }

    #[test]
    #[should_panic(expected = "detuning must be non-negative")]
    fn rejects_negative_detuning() {
        let _ = residual_coupling(G0, -0.1);
    }
}
