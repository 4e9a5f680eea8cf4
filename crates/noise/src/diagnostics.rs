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

use crate::coupling;
use crate::decoherence::{flux_adjusted_t2, DecoherenceModel};
use crate::frequencies::FrequencyScratch;
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

/// Computes the attributed error budget of `schedule` on `device`,
/// mirroring the estimator's episode accounting (nearest-neighbor
/// channels, leakage included, paper decoherence model, flux noise on).
///
/// # Panics
///
/// Panics if the schedule and device disagree on qubit count.
pub fn error_budget(device: &Device, schedule: &Schedule) -> ErrorBudget {
    assert_eq!(
        schedule.n_qubits(),
        device.n_qubits(),
        "schedule and device disagree on qubit count"
    );
    let params = *device.params();
    let n = device.n_qubits();
    let edges: Vec<(usize, usize)> = device.connectivity().edges().map(|(_, e)| e).collect();

    #[derive(Clone, Copy, Default)]
    struct Ep {
        active: bool,
        wu: f64,
        wv: f64,
        g0: f64,
        t_ns: f64,
    }
    let mut eps = vec![Ep::default(); edges.len()];
    let mut budget =
        ErrorBudget { crosstalk: Vec::new(), decoherence: vec![0.0; n], gate_error: 0.0 };
    let mut gate_survival = 1.0f64;
    let mut x1 = vec![0.0f64; n];
    let mut x2 = vec![0.0f64; n];

    let close = |ep: &mut Ep,
                 pair: (usize, usize),
                 cycle: usize,
                 alpha_u: f64,
                 alpha_v: f64,
                 out: &mut Vec<ChannelContribution>| {
        if !ep.active {
            return;
        }
        let ch = coupling::pair_channels(ep.g0, ep.wu, ep.wv, alpha_u, alpha_v, ep.t_ns, true);
        let entries = [
            (ChannelKind::Exchange, (ep.wu - ep.wv).abs(), ch.exchange),
            (ChannelKind::Sideband, (ep.wu + alpha_u - ep.wv).abs(), ch.leakage_a),
            (ChannelKind::Sideband, (ep.wv + alpha_v - ep.wu).abs(), ch.leakage_b),
        ];
        for (kind, detuning, error) in entries {
            if error > NEGLIGIBLE {
                out.push(ChannelContribution { pair, cycle, kind, detuning, error });
            }
        }
        ep.active = false;
    };

    let mut scratch = FrequencyScratch::new();
    for (cycle_idx, cycle) in schedule.cycles().iter().enumerate() {
        let t = cycle.duration_ns;
        let freqs = scratch.dense(&cycle.frequencies);
        for g in &cycle.gates {
            let e = if g.instruction.gate.is_two_qubit() {
                params.base_two_qubit_error
            } else {
                params.base_single_qubit_error
            };
            gate_survival *= 1.0 - e;
        }
        let busy = cycle.busy_couplings();
        for (idx, &(u, v)) in edges.iter().enumerate() {
            let ep = &mut eps[idx];
            let alpha_u = device.qubit(u).anharmonicity;
            let alpha_v = device.qubit(v).anharmonicity;
            if busy.contains(&(u, v)) {
                // Own gate: charge the open episode, as the estimator does.
                close(ep, (u, v), cycle_idx, alpha_u, alpha_v, &mut budget.crosstalk);
                continue;
            }
            let coupler_on = cycle.active_couplings.contains(&(u, v));
            let factor = if device.coupler().is_tunable() && !coupler_on {
                device.coupler().inactive_factor()
            } else {
                1.0
            };
            let (wu, wv) = (freqs[u], freqs[v]);
            let g0 = factor * params.coupling_at(wu.max(wv));
            let same = ep.active
                && (ep.wu - wu).abs() < 1e-12
                && (ep.wv - wv).abs() < 1e-12
                && (ep.g0 - g0).abs() < 1e-15;
            if !same {
                close(ep, (u, v), cycle_idx, alpha_u, alpha_v, &mut budget.crosstalk);
                *ep = Ep { active: g0 > 0.0, wu, wv, g0, t_ns: 0.0 };
            }
            if ep.active {
                ep.t_ns += t;
            }
            if cycle.is_qubit_busy(u) || cycle.is_qubit_busy(v) {
                close(ep, (u, v), cycle_idx, alpha_u, alpha_v, &mut budget.crosstalk);
            }
        }
        for q in 0..n {
            let spec = device.qubit(q);
            let t2 = flux_adjusted_t2(
                spec.t2_us,
                spec.sweet_spot_distance(freqs[q]),
                params.flux_noise_slope,
            );
            let t_us = t * 1e-3;
            x1[q] += t_us / spec.t1_us;
            x2[q] += t_us / t2;
        }
    }
    let last = schedule.depth().saturating_sub(1);
    for (idx, &(u, v)) in edges.iter().enumerate() {
        let alpha_u = device.qubit(u).anharmonicity;
        let alpha_v = device.qubit(v).anharmonicity;
        close(&mut eps[idx], (u, v), last, alpha_u, alpha_v, &mut budget.crosstalk);
    }

    for q in 0..n {
        budget.decoherence[q] =
            DecoherenceModel::PaperProduct.error_from_exponents(x1[q], x2[q]);
    }
    budget.gate_error = 1.0 - gate_survival;
    budget.crosstalk.sort_by(|a, b| b.error.total_cmp(&a.error));
    budget
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
