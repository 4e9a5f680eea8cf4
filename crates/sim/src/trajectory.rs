//! Monte-Carlo noisy execution of compiled schedules.
//!
//! Each trajectory walks the schedule cycle by cycle:
//!
//! 1. the scheduled gate unitaries are applied (ideal);
//! 2. for every physical coupling *not* executing its own gate, the
//!    coherent residual exchange is applied on the `{|01>, |10>}` subspace
//!    of the pair — the detuned-Rabi unitary
//!    `exp(-i 2 pi t [[-d/2, g], [g, d/2]])` with `d` the 0-1 frequency
//!    difference and `g` the (coupler-attenuated) coupling;
//! 3. every qubit suffers stochastic amplitude damping (`T1`) and phase
//!    flips (pure dephasing derived from `T1`/`T2`).
//!
//! Averaging trajectory fidelities against the ideal final state gives a
//! simulated program success rate, which §VI-C uses to validate the
//! analytic estimator on small circuits. Leakage to the second excited
//! level is outside the qubit-level state space; the `|11> <-> |20>`
//! channel is validated separately by [`qutrit`](crate::qutrit).

use crate::statevector::StateVector;
use fastsc_device::Device;
use fastsc_ir::math::{Mat4, C64, ONE, ZERO};
use fastsc_noise::{FrequencyScratch, Schedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a Monte-Carlo success simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryOutcome {
    /// Mean fidelity of noisy trajectories against the ideal final state.
    pub success: f64,
    /// Standard error of the mean.
    pub std_error: f64,
    /// Trajectories simulated.
    pub trajectories: usize,
}

/// The `{|01>, |10>}` block of `exp(-i 2 pi t [[-d/2, g], [g, d/2]])`.
fn exchange_block(g: f64, delta: f64, t_ns: f64) -> [[C64; 2]; 2] {
    let omega = (g * g + 0.25 * delta * delta).sqrt();
    let theta = 2.0 * std::f64::consts::PI * omega * t_ns;
    let (cos_t, sin_t) = (theta.cos(), theta.sin());
    let (nx, nz) = if omega > 0.0 { (g / omega, -0.5 * delta / omega) } else { (0.0, 0.0) };
    // U = cos(theta) I - i sin(theta) (nx sx + nz sz).
    [
        [C64::new(cos_t, -sin_t * nz), C64::new(0.0, -sin_t * nx)],
        [C64::new(0.0, -sin_t * nx), C64::new(cos_t, sin_t * nz)],
    ]
}

/// The coupled-evolution unitary on the `{|01>, |10>}` subspace of a pair
/// (identity on `|00>` and `|11>`).
///
/// This is the exact rotating-frame evolution, so applying it cycle after
/// cycle over a constant-configuration stretch composes into the exact
/// longer evolution. The *ideal* reference applies the matching free
/// (`g = 0`) precession — the deterministic part a real control stack
/// tracks in software (virtual-Z) — so that fidelity against the ideal
/// state charges only the coupling-induced deviation.
fn exchange_unitary(g: f64, delta: f64, t_ns: f64) -> Mat4 {
    let u = exchange_block(g, delta, t_ns);
    [
        [ONE, ZERO, ZERO, ZERO],
        [ZERO, u[0][0], u[0][1], ZERO],
        [ZERO, u[1][0], u[1][1], ZERO],
        [ZERO, ZERO, ZERO, ONE],
    ]
}

/// The free-precession unitary tracked by the ideal reference.
fn free_unitary(delta: f64, t_ns: f64) -> Mat4 {
    exchange_unitary(0.0, delta, t_ns)
}

/// Crate-public access to the exchange unitary for the exact
/// density-matrix simulator (same channel, applied without sampling).
pub(crate) fn exchange_unitary_pub(g: f64, delta: f64, t_ns: f64) -> Mat4 {
    exchange_unitary(g, delta, t_ns)
}

/// Applies one cycle's noise channels to `state` in place.
fn apply_cycle_noise<R: Rng + ?Sized>(
    state: &mut StateVector,
    device: &Device,
    cycle: &fastsc_noise::Cycle,
    scratch: &mut FrequencyScratch,
    rng: &mut R,
) {
    let t = cycle.duration_ns;
    let freqs = scratch.dense(&cycle.frequencies);
    let params = device.params();
    let busy = cycle.busy_couplings();

    // Coherent residual exchange on idle couplings (the free part of the
    // evolution is applied to the ideal reference too, so only the
    // coupling-induced deviation costs fidelity).
    for (_, (u, v)) in device.connectivity().edges() {
        if busy.contains(&(u, v)) {
            continue;
        }
        let coupler_on = cycle.active_couplings.contains(&(u, v));
        let factor = if device.coupler().is_tunable() && !coupler_on {
            device.coupler().inactive_factor()
        } else {
            1.0
        };
        let (wu, wv) = (freqs[u], freqs[v]);
        let g = factor * params.coupling_at(wu.max(wv));
        let delta = wu - wv;
        state.apply2(u, v, &exchange_unitary(g, delta, t));
    }

    // Stochastic decoherence per qubit.
    for q in 0..device.n_qubits() {
        let spec = device.qubit(q);
        let t_us = t * 1e-3;
        let gamma = 1.0 - (-t_us / spec.t1_us).exp();
        // Pure dephasing rate: 1/Tphi = 1/T2 - 1/(2 T1), clamped at 0.
        let inv_tphi = (1.0 / spec.t2_us - 0.5 / spec.t1_us).max(0.0);
        let p_phi = 1.0 - (-t_us * inv_tphi).exp();

        // Amplitude damping (trajectory unraveling).
        let p1 = state.excited_population(q);
        if rng.gen::<f64>() < gamma * p1 {
            // Jump: project |1> -> |0>.
            lower(state, q);
        } else {
            // No jump: |1> amplitude shrinks by sqrt(1 - gamma).
            damp_no_jump(state, q, gamma);
        }
        state.normalize();

        // Phase flip with probability p_phi / 2.
        if rng.gen::<f64>() < 0.5 * p_phi {
            let z = fastsc_ir::Gate::Z.matrix1().expect("1q");
            state.apply1(q, &z);
        }
    }
}

fn lower(state: &mut StateVector, q: usize) {
    let n = state.n_qubits();
    let mask = 1usize << (n - 1 - q);
    let dim = 1usize << n;
    let amplitudes = state.amplitudes_mut();
    for i in 0..dim {
        if i & mask != 0 {
            amplitudes[i ^ mask] = amplitudes[i];
            amplitudes[i] = ZERO;
        }
    }
}

fn damp_no_jump(state: &mut StateVector, q: usize, gamma: f64) {
    let n = state.n_qubits();
    let mask = 1usize << (n - 1 - q);
    let keep = (1.0 - gamma).sqrt();
    let amplitudes = state.amplitudes_mut();
    for (i, a) in amplitudes.iter_mut().enumerate() {
        if i & mask != 0 {
            *a = a.scale(keep);
        }
    }
}

/// Applies a uniformly random non-identity Pauli to the gate's qubits
/// (the trajectory-level analogue of the estimator's base gate error).
fn inject_pauli_error<R: Rng + ?Sized>(state: &mut StateVector, qubits: &[usize], rng: &mut R) {
    use fastsc_ir::Gate;
    let paulis = [Gate::X, Gate::Y, Gate::Z];
    loop {
        let mut any = false;
        let picks: Vec<Option<usize>> = qubits
            .iter()
            .map(|_| {
                let k = rng.gen_range(0..4);
                if k == 3 {
                    None
                } else {
                    any = true;
                    Some(k)
                }
            })
            .collect();
        if !any {
            continue; // all-identity excluded
        }
        for (&q, pick) in qubits.iter().zip(picks) {
            if let Some(k) = pick {
                state.apply1(q, &paulis[k].matrix1().expect("1q"));
            }
        }
        return;
    }
}

/// Runs one noisy trajectory of `schedule` from `|0...0>`.
pub fn run_trajectory<R: Rng + ?Sized>(
    device: &Device,
    schedule: &Schedule,
    rng: &mut R,
) -> StateVector {
    let params = *device.params();
    let mut state = StateVector::zero(schedule.n_qubits());
    let mut scratch = FrequencyScratch::new();
    for cycle in schedule.cycles() {
        for gate in &cycle.gates {
            state.apply_instruction(&gate.instruction);
            let qubits = gate.instruction.qubits();
            let base_error = if qubits.len() == 2 {
                params.base_two_qubit_error
            } else {
                params.base_single_qubit_error
            };
            if rng.gen::<f64>() < base_error {
                inject_pauli_error(&mut state, &qubits, rng);
            }
        }
        apply_cycle_noise(&mut state, device, cycle, &mut scratch, rng);
    }
    state
}

/// The ideal final state of a schedule: noise-free gates plus the
/// deterministic free precession on every idle coupling (the phases a
/// calibrated control stack tracks in software).
pub fn ideal_state(device: &Device, schedule: &Schedule) -> StateVector {
    let mut state = StateVector::zero(schedule.n_qubits());
    let mut scratch = FrequencyScratch::new();
    for cycle in schedule.cycles() {
        for gate in &cycle.gates {
            state.apply_instruction(&gate.instruction);
        }
        let freqs = scratch.dense(&cycle.frequencies);
        let busy = cycle.busy_couplings();
        for (_, (u, v)) in device.connectivity().edges() {
            if busy.contains(&(u, v)) {
                continue;
            }
            let delta = freqs[u] - freqs[v];
            state.apply2(u, v, &free_unitary(delta, cycle.duration_ns));
        }
    }
    state
}

/// Monte-Carlo estimate of the simulated program success rate: the mean
/// fidelity of `trajectories` noisy runs against the ideal final state.
///
/// # Panics
///
/// Panics if `trajectories == 0` or the schedule is wider than 26 qubits.
pub fn simulate_success(
    device: &Device,
    schedule: &Schedule,
    trajectories: usize,
    seed: u64,
) -> TrajectoryOutcome {
    assert!(trajectories > 0, "at least one trajectory required");
    let ideal = ideal_state(device, schedule);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    for _ in 0..trajectories {
        let noisy = run_trajectory(device, schedule, &mut rng);
        let f = noisy.fidelity(&ideal);
        sum += f;
        sum_sq += f * f;
    }
    let mean = sum / trajectories as f64;
    let var = (sum_sq / trajectories as f64 - mean * mean).max(0.0);
    TrajectoryOutcome {
        success: mean,
        std_error: (var / trajectories as f64).sqrt(),
        trajectories,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsc_core::{Compiler, CompilerConfig, Strategy};
    use fastsc_device::DeviceBuilder;
    use fastsc_ir::math::mat4_approx_eq;
    use fastsc_noise::{estimate, NoiseConfig};
    use fastsc_workloads::Benchmark;

    #[test]
    fn exchange_unitary_is_unitary() {
        use fastsc_ir::math::is_unitary4;
        for (g, d, t) in [(0.005, 0.0, 50.0), (0.003, 0.4, 100.0), (0.0, 1.0, 10.0)] {
            assert!(is_unitary4(&exchange_unitary(g, d, t), 1e-12), "g={g} d={d}");
        }
    }

    #[test]
    fn resonant_exchange_is_full_iswap_like() {
        // delta = 0, t = 1/(4g): complete population transfer 01 -> 10.
        let g = 0.005;
        let u = exchange_unitary(g, 0.0, 1.0 / (4.0 * g));
        assert!(u[1][1].abs() < 1e-9);
        assert!((u[2][1].abs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn detuned_exchange_is_amplitude_suppressed() {
        let g = 0.005;
        let delta = 0.5;
        // Maximum transfer over a full sweep of times.
        let max_transfer = (0..200)
            .map(|k| {
                let u = exchange_unitary(g, delta, k as f64);
                u[2][1].norm_sqr()
            })
            .fold(0.0f64, f64::max);
        let bound = g * g / (g * g + 0.25 * delta * delta);
        assert!(max_transfer <= bound * 1.01, "{max_transfer} vs bound {bound}");
    }

    #[test]
    fn zero_detuning_zero_coupling_is_identity() {
        let u = exchange_unitary(0.0, 0.0, 100.0);
        assert!(mat4_approx_eq(&u, &fastsc_ir::math::identity4(), 1e-12));
    }

    #[test]
    fn noiseless_device_reproduces_ideal() {
        // Very long coherence, no calibration error, ColorDynamic keeping
        // residual couplings far detuned => fidelity ~ 1.
        let mut b = DeviceBuilder::new(fastsc_graph::topology::grid(2, 2));
        let params = fastsc_device::DeviceParams {
            base_two_qubit_error: 0.0,
            base_single_qubit_error: 0.0,
            ..Default::default()
        };
        b.seed(1).coherence(1e9, 1e9).params(params);
        let device = b.build();
        let compiler = Compiler::new(device, CompilerConfig::default());
        let program = Benchmark::Xeb(4, 3).build(5);
        let compiled = compiler.compile(&program, Strategy::ColorDynamic).expect("compiles");
        let out = simulate_success(compiler.device(), &compiled.schedule, 10, 3);
        assert!(out.success > 0.99, "success = {}", out.success);
    }

    #[test]
    fn decoherence_reduces_fidelity() {
        let mut b = DeviceBuilder::new(fastsc_graph::topology::grid(2, 2));
        b.seed(1).coherence(2.0, 1.5); // very lossy qubits
        let device = b.build();
        let compiler = Compiler::new(device, CompilerConfig::default());
        let program = Benchmark::Xeb(4, 5).build(5);
        let compiled = compiler.compile(&program, Strategy::ColorDynamic).expect("compiles");
        let out = simulate_success(compiler.device(), &compiled.schedule, 40, 3);
        assert!(out.success < 0.9, "success = {}", out.success);
        assert!(out.std_error < 0.1);
    }

    #[test]
    fn amplitude_damping_relaxes_to_ground() {
        // A single excited qubit on a device with tiny T1 decays to |0>.
        let mut b = DeviceBuilder::new(fastsc_graph::topology::linear(2));
        b.seed(1).coherence(0.001, 0.001);
        let device = b.build();
        let mut schedule = Schedule::new(2);
        // One long idle cycle.
        schedule.push_cycle(fastsc_noise::Cycle {
            gates: vec![],
            frequencies: vec![4.5, 5.5].into(),
            active_couplings: vec![],
            duration_ns: 10_000.0,
        });
        let mut rng = StdRng::seed_from_u64(1);
        let mut state = StateVector::basis(2, 0b10);
        apply_cycle_noise(
            &mut state,
            &device,
            &schedule.cycles()[0],
            &mut FrequencyScratch::new(),
            &mut rng,
        );
        assert!(state.excited_population(0) < 0.01);
    }

    #[test]
    fn crosstalk_collision_hurts_simulated_fidelity() {
        // Two coupled qubits parked at the same frequency: the coherent
        // exchange corrupts any state with a single excitation.
        let mut b = DeviceBuilder::new(fastsc_graph::topology::linear(2));
        b.seed(1).coherence(1e9, 1e9);
        let device = b.build();
        let mk_schedule = |f1: f64, f2: f64| {
            let mut s = Schedule::new(2);
            s.push_cycle(fastsc_noise::Cycle {
                gates: vec![],
                frequencies: vec![f1, f2].into(),
                active_couplings: vec![],
                duration_ns: 40.0,
            });
            s
        };
        let collide = mk_schedule(5.0, 5.0);
        let apart = mk_schedule(4.5, 5.5);
        let mut rng = StdRng::seed_from_u64(1);
        let mut psi_collide = StateVector::basis(2, 0b10);
        apply_cycle_noise(
            &mut psi_collide,
            &device,
            &collide.cycles()[0],
            &mut FrequencyScratch::new(),
            &mut rng,
        );
        let mut psi_apart = StateVector::basis(2, 0b10);
        apply_cycle_noise(
            &mut psi_apart,
            &device,
            &apart.cycles()[0],
            &mut FrequencyScratch::new(),
            &mut rng,
        );
        let reference = StateVector::basis(2, 0b10);
        assert!(psi_apart.fidelity(&reference) > 0.99);
        assert!(psi_collide.fidelity(&reference) < 0.9);
    }

    #[test]
    fn heuristic_and_simulation_agree_in_order_of_magnitude() {
        // §VI-C validation at miniature scale: the analytic worst-case
        // estimate must be a (not absurdly loose) lower bound on the
        // simulated success.
        let device = fastsc_device::Device::grid(2, 2, 7);
        let compiler = Compiler::new(device, CompilerConfig::default());
        let program = Benchmark::Xeb(4, 5).build(5);
        for strategy in [Strategy::ColorDynamic, Strategy::BaselineU] {
            let compiled = compiler.compile(&program, strategy).expect("compiles");
            let heuristic =
                estimate(compiler.device(), &compiled.schedule, &NoiseConfig::default());
            let sim = simulate_success(compiler.device(), &compiled.schedule, 60, 11);
            assert!(
                heuristic.p_success <= sim.success + 0.1,
                "{strategy}: heuristic {} vs simulated {}",
                heuristic.p_success,
                sim.success
            );
            assert!(
                sim.success < heuristic.p_success + 0.6,
                "{strategy}: heuristic too loose: {} vs {}",
                heuristic.p_success,
                sim.success
            );
        }
    }
}
