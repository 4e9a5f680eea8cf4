//! Exact open-system simulation with density matrices.
//!
//! The Monte-Carlo trajectories of [`trajectory`](crate::trajectory)
//! *sample* the noise channels; this module applies them *exactly* on a
//! density matrix, which is feasible for the few-qubit circuits used to
//! validate the sampling (`4^n` complex entries). Channels:
//!
//! * unitary gates: `rho -> U rho U^dag`;
//! * amplitude damping with rate `gamma`: Kraus
//!   `K0 = diag(1, sqrt(1-gamma))`, `K1 = sqrt(gamma) |0><1|`;
//! * phase damping with probability `p`: `rho -> (1-p/2) rho + (p/2) Z rho Z`;
//! * the coherent residual-exchange unitary on idle couplings (shared
//!   with the trajectory simulator).

use crate::statevector::StateVector;
use fastsc_device::Device;
use fastsc_ir::math::{Mat2, Mat4, C64, ZERO};
use fastsc_ir::{Instruction, Operands};
use fastsc_noise::{FrequencyScratch, Schedule};

/// An `n`-qubit density matrix (row-major `2^n x 2^n`). Qubit 0 is the
/// most significant bit, matching [`StateVector`].
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    n_qubits: usize,
    elements: Vec<C64>, // dim x dim, row-major
}

impl DensityMatrix {
    /// The pure state `|0...0><0...0|`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > 13` (the matrix would exceed memory).
    pub fn zero(n_qubits: usize) -> Self {
        assert!(n_qubits <= 13, "density matrix too large: {n_qubits} qubits");
        let dim = 1usize << n_qubits;
        let mut elements = vec![ZERO; dim * dim];
        elements[0] = C64::real(1.0);
        DensityMatrix { n_qubits, elements }
    }

    /// The projector onto a pure state.
    pub fn from_pure(state: &StateVector) -> Self {
        let amps = state.amplitudes();
        let dim = amps.len();
        let mut elements = vec![ZERO; dim * dim];
        for (i, &ai) in amps.iter().enumerate() {
            for (j, &aj) in amps.iter().enumerate() {
                elements[i * dim + j] = ai * aj.conj();
            }
        }
        DensityMatrix { n_qubits: state.n_qubits(), elements }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    fn dim(&self) -> usize {
        1 << self.n_qubits
    }

    /// `<i| rho |j>`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn element(&self, i: usize, j: usize) -> C64 {
        let dim = self.dim();
        assert!(i < dim && j < dim, "index out of range");
        self.elements[i * dim + j]
    }

    /// The trace (1 for physical states).
    pub fn trace(&self) -> f64 {
        let dim = self.dim();
        (0..dim).map(|i| self.elements[i * dim + i].re).sum()
    }

    /// The purity `Tr(rho^2)` (1 for pure states, `1/2^n` maximally mixed).
    pub fn purity(&self) -> f64 {
        let dim = self.dim();
        let mut sum = 0.0;
        for i in 0..dim {
            for j in 0..dim {
                // Tr(rho^2) = sum_ij rho_ij rho_ji = sum_ij |rho_ij|^2
                // for Hermitian rho.
                sum += self.elements[i * dim + j].norm_sqr();
            }
        }
        sum
    }

    /// Fidelity `<psi| rho |psi>` with a pure state.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn fidelity_with_pure(&self, psi: &StateVector) -> f64 {
        assert_eq!(self.n_qubits, psi.n_qubits(), "widths must match");
        let amps = psi.amplitudes();
        let dim = self.dim();
        let mut acc = ZERO;
        for i in 0..dim {
            for j in 0..dim {
                acc += amps[i].conj() * self.elements[i * dim + j] * amps[j];
            }
        }
        acc.re
    }

    /// Population of qubit `q` in `|1>`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn excited_population(&self, q: usize) -> f64 {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        let mask = 1usize << (self.n_qubits - 1 - q);
        let dim = self.dim();
        (0..dim).filter(|i| i & mask != 0).map(|i| self.elements[i * dim + i].re).sum()
    }

    /// Applies a (general, not necessarily unitary) one-qubit operator:
    /// `rho -> M rho M^dag` *without normalization* — callers sum Kraus
    /// branches themselves.
    fn conjugate1(&self, q: usize, m: &Mat2) -> DensityMatrix {
        let mut left = self.clone();
        // Left-multiply: rows transform like a state vector per column.
        let dim = self.dim();
        for col in 0..dim {
            let mut column: Vec<C64> = (0..dim).map(|r| self.elements[r * dim + col]).collect();
            fastsc_ir::unitary::apply1(&mut column, self.n_qubits, q, m);
            for (r, v) in column.into_iter().enumerate() {
                left.elements[r * dim + col] = v;
            }
        }
        // Right-multiply by M^dag = conjugate the rows with M (conjugated).
        let m_conj: Mat2 = [[m[0][0].conj(), m[0][1].conj()], [m[1][0].conj(), m[1][1].conj()]];
        let mut out = left.clone();
        for rrow in 0..dim {
            let mut row: Vec<C64> = (0..dim).map(|c| left.elements[rrow * dim + c]).collect();
            fastsc_ir::unitary::apply1(&mut row, self.n_qubits, q, &m_conj);
            for (c, v) in row.into_iter().enumerate() {
                out.elements[rrow * dim + c] = v;
            }
        }
        out
    }

    fn conjugate2(&self, a: usize, b: usize, m: &Mat4) -> DensityMatrix {
        let dim = self.dim();
        let mut left = self.clone();
        for col in 0..dim {
            let mut column: Vec<C64> = (0..dim).map(|r| self.elements[r * dim + col]).collect();
            fastsc_ir::unitary::apply2(&mut column, self.n_qubits, a, b, m);
            for (r, v) in column.into_iter().enumerate() {
                left.elements[r * dim + col] = v;
            }
        }
        let mut m_conj = *m;
        for row in &mut m_conj {
            for v in row.iter_mut() {
                *v = v.conj();
            }
        }
        let mut out = left.clone();
        for rrow in 0..dim {
            let mut row: Vec<C64> = (0..dim).map(|c| left.elements[rrow * dim + c]).collect();
            fastsc_ir::unitary::apply2(&mut row, self.n_qubits, a, b, &m_conj);
            for (c, v) in row.into_iter().enumerate() {
                out.elements[rrow * dim + c] = v;
            }
        }
        out
    }

    /// Applies a unitary gate instruction.
    pub fn apply_instruction(&mut self, inst: &Instruction) {
        *self = match inst.operands {
            Operands::One(q) => {
                self.conjugate1(q, &inst.gate.matrix1().expect("validated arity"))
            }
            Operands::Two(a, b) => {
                self.conjugate2(a, b, &inst.gate.matrix2().expect("validated arity"))
            }
        };
    }

    /// Applies a two-qubit unitary directly (for noise channels).
    pub fn apply_unitary2(&mut self, a: usize, b: usize, m: &Mat4) {
        *self = self.conjugate2(a, b, m);
    }

    /// Exact amplitude damping on qubit `q` with decay probability
    /// `gamma`.
    ///
    /// # Panics
    ///
    /// Panics unless `gamma` is in `[0, 1]`.
    pub fn amplitude_damp(&mut self, q: usize, gamma: f64) {
        assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0, 1]");
        let k0: Mat2 = [[C64::real(1.0), ZERO], [ZERO, C64::real((1.0 - gamma).sqrt())]];
        let k1: Mat2 = [[ZERO, C64::real(gamma.sqrt())], [ZERO, ZERO]];
        let branch0 = self.conjugate1(q, &k0);
        let branch1 = self.conjugate1(q, &k1);
        for (o, (b0, b1)) in
            self.elements.iter_mut().zip(branch0.elements.iter().zip(&branch1.elements))
        {
            *o = *b0 + *b1;
        }
    }

    /// Exact phase damping on qubit `q`:
    /// `rho -> (1 - p/2) rho + (p/2) Z rho Z`.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is in `[0, 1]`.
    pub fn phase_damp(&mut self, q: usize, p: f64) {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
        let z = fastsc_ir::Gate::Z.matrix1().expect("1q");
        let flipped = self.conjugate1(q, &z);
        for (o, f) in self.elements.iter_mut().zip(&flipped.elements) {
            *o = o.scale(1.0 - 0.5 * p) + f.scale(0.5 * p);
        }
    }
}

/// Exact (channel-level) noisy execution of a schedule, mirroring the
/// trajectory simulator's noise model, and the fidelity against the same
/// ideal reference.
///
/// # Panics
///
/// Panics if the schedule is wider than 13 qubits.
pub fn exact_success(device: &Device, schedule: &Schedule) -> f64 {
    let params = device.params();
    let mut rho = DensityMatrix::zero(schedule.n_qubits());
    let mut scratch = FrequencyScratch::new();
    for cycle in schedule.cycles() {
        for gate in &cycle.gates {
            rho.apply_instruction(&gate.instruction);
            // Base gate error as a depolarizing-style channel: with
            // probability eps replace by the maximally mixed marginal —
            // approximated by uniform Pauli mixing on the operands.
            let qubits = gate.instruction.qubits();
            let eps = if qubits.len() == 2 {
                params.base_two_qubit_error
            } else {
                params.base_single_qubit_error
            };
            if eps > 0.0 {
                for q in qubits {
                    depolarize1(&mut rho, q, eps);
                }
            }
        }
        let t = cycle.duration_ns;
        let freqs = scratch.dense(&cycle.frequencies);
        let busy = cycle.busy_couplings();
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
            rho.apply_unitary2(u, v, &crate::trajectory::exchange_unitary_pub(g, wu - wv, t));
        }
        for q in 0..device.n_qubits() {
            let spec = device.qubit(q);
            let t_us = t * 1e-3;
            let gamma = 1.0 - (-t_us / spec.t1_us).exp();
            let inv_tphi = (1.0 / spec.t2_us - 0.5 / spec.t1_us).max(0.0);
            let p_phi = 1.0 - (-t_us * inv_tphi).exp();
            rho.amplitude_damp(q, gamma);
            rho.phase_damp(q, p_phi);
        }
    }
    let ideal = crate::trajectory::ideal_state(device, schedule);
    rho.fidelity_with_pure(&ideal)
}

fn depolarize1(rho: &mut DensityMatrix, q: usize, eps: f64) {
    use fastsc_ir::Gate;
    let branches = [Gate::X, Gate::Y, Gate::Z];
    let originals = rho.clone();
    for v in rho.elements.iter_mut() {
        *v = v.scale(1.0 - eps);
    }
    for g in branches {
        let b = originals.conjugate1(q, &g.matrix1().expect("1q"));
        for (o, bv) in rho.elements.iter_mut().zip(&b.elements) {
            *o += bv.scale(eps / 3.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsc_ir::{Circuit, Gate};

    #[test]
    fn zero_state_is_pure_with_unit_trace() {
        let rho = DensityMatrix::zero(2);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        assert!(rho.element(0, 0).approx_eq(C64::real(1.0), 1e-15));
    }

    #[test]
    fn unitary_gates_match_statevector() {
        let mut c = Circuit::new(2);
        c.push1(Gate::H, 0).expect("valid");
        c.push2(Gate::Cnot, 0, 1).expect("valid");
        c.push1(Gate::T, 1).expect("valid");
        let mut psi = StateVector::zero(2);
        psi.apply_circuit(&c);
        let mut rho = DensityMatrix::zero(2);
        for inst in c.instructions() {
            rho.apply_instruction(inst);
        }
        assert!((rho.fidelity_with_pure(&psi) - 1.0).abs() < 1e-10);
        assert!((rho.purity() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn from_pure_matches_population() {
        let mut psi = StateVector::zero(1);
        psi.apply1(0, &Gate::Ry(1.0).matrix1().expect("1q"));
        let rho = DensityMatrix::from_pure(&psi);
        assert!((rho.excited_population(0) - psi.excited_population(0)).abs() < 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        let psi = StateVector::basis(1, 1);
        let mut rho = DensityMatrix::from_pure(&psi);
        rho.amplitude_damp(0, 0.3);
        assert!((rho.excited_population(0) - 0.7).abs() < 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        // Full damping lands in |0>.
        rho.amplitude_damp(0, 1.0);
        assert!(rho.excited_population(0) < 1e-12);
    }

    #[test]
    fn phase_damping_kills_coherence_not_population() {
        let mut psi = StateVector::zero(1);
        psi.apply1(0, &Gate::H.matrix1().expect("1q"));
        let mut rho = DensityMatrix::from_pure(&psi);
        let before = rho.element(0, 1).abs();
        rho.phase_damp(0, 0.5);
        let after = rho.element(0, 1).abs();
        assert!(after < before, "coherence must shrink");
        assert!((rho.excited_population(0) - 0.5).abs() < 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        // Complete dephasing: off-diagonal vanishes.
        rho.phase_damp(0, 1.0);
        assert!(rho.element(0, 1).abs() < 1e-12);
    }

    #[test]
    fn depolarizing_reduces_purity() {
        let mut rho = DensityMatrix::zero(1);
        depolarize1(&mut rho, 0, 0.5);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!(rho.purity() < 1.0);
    }

    #[test]
    fn trajectory_sampling_converges_to_exact_channel() {
        // The validation this module exists for: Monte-Carlo trajectories
        // must converge to the exact density-matrix evolution.
        use fastsc_core::{Compiler, CompilerConfig, Strategy};
        use fastsc_device::Device;

        let device = Device::grid(2, 2, 7);
        let compiler = Compiler::new(device, CompilerConfig::default());
        let program = fastsc_workloads::Benchmark::Xeb(4, 4).build(5);
        let compiled = compiler.compile(&program, Strategy::ColorDynamic).expect("compiles");
        let exact = exact_success(compiler.device(), &compiled.schedule);
        let sampled =
            crate::trajectory::simulate_success(compiler.device(), &compiled.schedule, 400, 13);
        assert!(
            (exact - sampled.success).abs() < 4.0 * sampled.std_error + 0.02,
            "exact {exact} vs sampled {} (+/- {})",
            sampled.success,
            sampled.std_error
        );
    }

    #[test]
    fn exact_success_degrades_with_lossy_qubits() {
        use fastsc_core::{Compiler, CompilerConfig, Strategy};
        use fastsc_device::DeviceBuilder;
        let mut good = DeviceBuilder::new(fastsc_graph::topology::grid(2, 2));
        good.seed(1).coherence(1e6, 1e6);
        let mut bad = DeviceBuilder::new(fastsc_graph::topology::grid(2, 2));
        bad.seed(1).coherence(2.0, 1.5);
        let program = fastsc_workloads::Benchmark::Xeb(4, 4).build(5);
        let mut scores = Vec::new();
        for device in [good.build(), bad.build()] {
            let compiler = Compiler::new(device, CompilerConfig::default());
            let compiled =
                compiler.compile(&program, Strategy::ColorDynamic).expect("compiles");
            scores.push(exact_success(compiler.device(), &compiled.schedule));
        }
        assert!(scores[0] > scores[1] + 0.05, "good {} vs bad {}", scores[0], scores[1]);
    }
}
