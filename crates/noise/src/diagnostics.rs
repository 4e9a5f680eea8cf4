//! Error-budget diagnostics: attributing a schedule's estimated error to
//! specific channels, cycles and qubits.
//!
//! The aggregate numbers in [`SuccessReport`](crate::SuccessReport) answer
//! *how much* error a compilation strategy accrues; this module answers
//! *where* — which couplings collide, in which cycles, through which
//! resonance (exchange vs. sideband), and which qubits dominate the
//! decoherence budget. The compiler examples use it to explain why a
//! schedule underperforms; it is also how the ablation harnesses verify
//! that a mitigation removed the channel it claims to remove.

use crate::decoherence;
use crate::estimator::{walk, Episode, NoiseConfig};
use crate::schedule::Schedule;
use fastsc_device::Device;

/// Which resonance a crosstalk contribution came through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// `omega01 = omega01` exchange.
    Exchange,
    /// `omega12 = omega01` sideband (leakage) in either direction.
    Sideband,
}

/// One attributed crosstalk contribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelContribution {
    /// The coupled qubit pair `(min, max)`.
    pub pair: (usize, usize),
    /// Cycle index at which the episode closed.
    pub cycle: usize,
    /// Resonance type.
    pub kind: ChannelKind,
    /// The detuning of the channel at closure, GHz.
    pub detuning: f64,
    /// The worst-case error charged.
    pub error: f64,
}

/// A decomposed error budget for one schedule.
#[derive(Debug, Clone, Default)]
pub struct ErrorBudget {
    /// Every non-negligible crosstalk contribution, sorted descending by
    /// error.
    pub crosstalk: Vec<ChannelContribution>,
    /// Per-qubit decoherence errors.
    pub decoherence: Vec<f64>,
    /// Total base gate error (1 - survival product).
    pub gate_error: f64,
}

impl ErrorBudget {
    /// The `k` largest crosstalk contributions.
    pub fn top_crosstalk(&self, k: usize) -> &[ChannelContribution] {
        &self.crosstalk[..k.min(self.crosstalk.len())]
    }

    /// The qubit with the largest decoherence error, if any.
    pub fn worst_qubit(&self) -> Option<(usize, f64)> {
        self.decoherence.iter().copied().enumerate().max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Sum of all attributed crosstalk errors (an upper bound on
    /// `1 - crosstalk_survival` for small errors).
    pub fn crosstalk_sum(&self) -> f64 {
        self.crosstalk.iter().map(|c| c.error).sum()
    }
}

/// Contributions below this error are dropped from the budget.
const NEGLIGIBLE: f64 = 1e-9;

/// Computes the attributed error budget of `schedule` on `device`: the
/// episodes [`estimate`](crate::estimate) charges under the default
/// [`NoiseConfig`], one contribution per channel above a negligible
/// error, charged to the cycle in which its episode closed.
///
/// # Panics
///
/// Exactly when [`estimate`](crate::estimate) panics: if the schedule
/// and device disagree on qubit count, or if a scheduled two-qubit gate
/// sits on a pair of qubits that are not coupled on the device.
pub fn error_budget(device: &Device, schedule: &Schedule) -> ErrorBudget {
    let mut crosstalk = Vec::new();
    let walk = walk(device, schedule, &NoiseConfig::default(), |charge| {
        let (Episode { wu, wv, .. }, (alpha_u, alpha_v)) = (charge.episode, charge.alpha);
        let entries = [
            (ChannelKind::Exchange, (wu - wv).abs(), charge.channels.exchange),
            (ChannelKind::Sideband, (wu + alpha_u - wv).abs(), charge.channels.leakage_a),
            (ChannelKind::Sideband, (wv + alpha_v - wu).abs(), charge.channels.leakage_b),
        ];
        for (kind, detuning, error) in entries {
            if error > NEGLIGIBLE {
                let (pair, cycle) = (charge.pair, charge.cycle);
                crosstalk.push(ChannelContribution { pair, cycle, kind, detuning, error });
            }
        }
    });
    crosstalk.sort_by(|a, b| b.error.total_cmp(&a.error));
    ErrorBudget {
        crosstalk,
        decoherence: walk
            .exponents
            .iter()
            .map(|&(x1, x2)| decoherence::error_from_exponents(x1, x2))
            .collect(),
        gate_error: 1.0 - walk.gate_survival,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Cycle, ScheduledGate};
    use fastsc_device::Device;
    use fastsc_ir::{Gate, Instruction, Operands};

    fn collision_schedule() -> (Device, Schedule) {
        let device = Device::grid(2, 2, 7);
        let mut s = Schedule::new(4);
        // Two parallel CZs at the same frequency: channels (0,2) and (1,3)
        // collide; the rest is parked far away.
        let g = |a: usize, b: usize| ScheduledGate {
            instruction: Instruction { gate: Gate::Cz, operands: Operands::Two(a, b) },
            interaction_freq: Some(6.5),
        };
        s.push_cycle(Cycle {
            gates: vec![g(0, 1), g(2, 3)],
            frequencies: vec![6.5, 6.5, 6.5, 6.5].into(),
            active_couplings: vec![],
            duration_ns: 70.0,
        });
        (device, s)
    }

    #[test]
    fn attributes_the_colliding_pairs() {
        let (device, s) = collision_schedule();
        let budget = error_budget(&device, &s);
        let top = budget.top_crosstalk(2);
        assert_eq!(top.len(), 2);
        for c in top {
            assert!(c.error > 0.9, "resonant channel must dominate: {c:?}");
            assert!(c.pair == (0, 2) || c.pair == (1, 3), "wrong pair {:?}", c.pair);
            assert_eq!(c.kind, ChannelKind::Exchange);
            assert!(c.detuning < 1e-9);
        }
    }

    #[test]
    fn gate_error_counts_gates() {
        let (device, s) = collision_schedule();
        let budget = error_budget(&device, &s);
        let expect = 1.0 - (1.0 - device.params().base_two_qubit_error).powi(2);
        assert!((budget.gate_error - expect).abs() < 1e-12);
    }

    #[test]
    fn decoherence_attributed_per_qubit() {
        let (device, s) = collision_schedule();
        let budget = error_budget(&device, &s);
        assert_eq!(budget.decoherence.len(), 4);
        let (q, e) = budget.worst_qubit().expect("non-empty");
        assert!(q < 4);
        assert!(e > 0.0 && e < 1e-3, "70 ns of decoherence is small: {e}");
    }

    #[test]
    fn empty_schedule_has_empty_budget() {
        let device = Device::grid(2, 2, 7);
        let budget = error_budget(&device, &Schedule::new(4));
        assert!(budget.crosstalk.is_empty());
        assert_eq!(budget.gate_error, 0.0);
        assert!(budget.worst_qubit().expect("4 qubits").1 == 0.0);
    }

    #[test]
    fn budget_sum_tracks_estimator() {
        use crate::estimator::{estimate, NoiseConfig};
        let (device, s) = collision_schedule();
        let budget = error_budget(&device, &s);
        let report = estimate(&device, &s, &NoiseConfig::default());
        // For the dominant-channel regime the attributed sum and the
        // product-form total agree to first order.
        assert!(budget.crosstalk_sum() >= report.crosstalk_error() - 1e-6);
    }

    #[test]
    #[should_panic(expected = "two-qubit gate on uncoupled qubits (0, 3)")]
    fn rejects_a_two_qubit_gate_on_an_uncoupled_pair() {
        // Qubits 0 and 3 sit diagonally on the 2x2 grid.
        let device = Device::grid(2, 2, 7);
        let mut s = Schedule::new(4);
        s.push_cycle(Cycle {
            gates: vec![ScheduledGate {
                instruction: Instruction { gate: Gate::Cz, operands: Operands::Two(0, 3) },
                interaction_freq: Some(6.5),
            }],
            frequencies: vec![6.5, 5.5, 5.5, 6.5].into(),
            active_couplings: vec![],
            duration_ns: 70.0,
        });
        let _ = error_budget(&device, &s);
    }

    #[test]
    fn sideband_collision_is_classified() {
        let device = Device::linear(2, 3);
        let alpha = device.qubit(0).anharmonicity;
        let mut s = Schedule::new(2);
        s.push_cycle(Cycle {
            gates: vec![],
            frequencies: vec![5.2, 5.2 + alpha].into(),
            active_couplings: vec![],
            duration_ns: 100.0,
        });
        let budget = error_budget(&device, &s);
        let top = budget.top_crosstalk(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].kind, ChannelKind::Sideband);
    }
}
