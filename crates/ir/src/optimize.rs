//! Peephole circuit cleanup.
//!
//! Decomposition introduces sequences of single-qubit gates that frequently
//! cancel (e.g. the `H H` produced by back-to-back lowered `CNOT`s). This
//! pass performs the standard local simplifications:
//!
//! * adjacent inverse pairs on identical operands are removed
//!   ([`Gate::is_inverse_of`]);
//! * adjacent rotations about the same axis on the same qubit are merged;
//! * identity gates and zero-angle rotations are dropped.
//!
//! "Adjacent" is with respect to the dependency DAG: two gates cancel when
//! no intervening instruction touches any of their qubits.

use crate::circuit::{Circuit, Instruction};
use crate::gate::Gate;

/// Rotation angles within this tolerance of zero (mod 4 pi) are dropped.
const ANGLE_TOL: f64 = 1e-12;

const FOUR_PI: f64 = 4.0 * std::f64::consts::PI;

/// Applies peephole simplification until a fixed point is reached and
/// returns the cleaned circuit.
///
/// Each pass walks the instructions once against a per-qubit tracker of
/// the last live instruction. The loop stops after the first pass that
/// clears no tracker — no inverse pair cancelled and no merge collapsed
/// to identity — because such a pass already produced a fixed point:
/// every surviving instruction meets the same candidate partner on the
/// next pass (trackers only ever advanced, and merges keep their slot's
/// operands and axis), and none of those pairs cancels or merges, since
/// same-axis rotations always do one or the other when they meet.
/// Trivial gates dropped by the pass are gone, and merged angles are
/// non-trivial. The pass that would confirm this is therefore skipped.
///
/// Buffers: the tracker, the first pass's output (sized to the input), a
/// second pass buffer only when the first pass cleared a tracker, and the
/// returned circuit, sized exactly to the surviving instructions.
pub fn peephole(circuit: &Circuit) -> Circuit {
    let mut last_on_qubit: Vec<usize> = vec![NO_INST; circuit.n_qubits()];
    let mut current: Vec<Instruction> = Vec::with_capacity(circuit.len());
    let mut cleared = one_pass(circuit.instructions(), &mut current, &mut last_on_qubit);
    let mut next: Vec<Instruction> = Vec::new();
    while cleared {
        cleared = one_pass(&current, &mut next, &mut last_on_qubit);
        std::mem::swap(&mut current, &mut next);
    }
    let mut out = Circuit::with_capacity(circuit.n_qubits(), current.len());
    for inst in current {
        out.push(inst).expect("instructions validated by the source circuit");
    }
    out
}

fn is_trivial(gate: Gate) -> bool {
    match gate {
        Gate::Id => true,
        // Strictly inside (ANGLE_TOL, 4 pi - ANGLE_TOL) the reduction
        // below is the identity and both tests fail, so skip it.
        Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) if t > ANGLE_TOL && t < FOUR_PI - ANGLE_TOL => {
            false
        }
        Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) => {
            // Rotations are 4 pi periodic (2 pi flips global phase only).
            let reduced = t.rem_euclid(FOUR_PI);
            reduced.abs() < ANGLE_TOL || (reduced - FOUR_PI).abs() < ANGLE_TOL
        }
        _ => false,
    }
}

fn merge(a: Gate, b: Gate) -> Option<Gate> {
    match (a, b) {
        (Gate::Rx(x), Gate::Rx(y)) => Some(Gate::Rx(x + y)),
        (Gate::Ry(x), Gate::Ry(y)) => Some(Gate::Ry(x + y)),
        (Gate::Rz(x), Gate::Rz(y)) => Some(Gate::Rz(x + y)),
        _ => None,
    }
}

/// Sentinel for "no live instruction on this qubit" in the per-qubit
/// tracker.
const NO_INST: usize = usize::MAX;

/// One simplification pass from `insts` into `out`. Returns whether it
/// cleared a per-qubit tracker, i.e. killed a slot (an inverse pair or a
/// merge to identity): only then can another pass find more work.
fn one_pass(
    insts: &[Instruction],
    out: &mut Vec<Instruction>,
    last_on_qubit: &mut [usize],
) -> bool {
    out.clear();
    // For each qubit, the index *in `out`* of the last instruction touching
    // it (NO_INST if none is still present).
    last_on_qubit.fill(NO_INST);
    let mut cleared = false;

    for &inst in insts {
        if is_trivial(inst.gate) {
            continue;
        }
        // The candidate partner must be the last instruction on *all* of
        // this instruction's qubits, with identical operands.
        let candidate = last_on_qubit[inst.operands.first()];
        let partner = (candidate != NO_INST
            && inst.operands.into_iter().all(|q| last_on_qubit[q] == candidate)
            && out[candidate].operands == inst.operands)
            .then_some(candidate);

        if let Some(idx) = partner {
            let prev = out[idx];
            let merged = merge(prev.gate, inst.gate);
            let dies = prev.gate.is_inverse_of(inst.gate) || merged.is_some_and(is_trivial);
            if dies {
                // Remove the pair: mark the slot dead and clear trackers.
                out[idx] = Instruction { gate: Gate::Id, operands: prev.operands };
                for q in inst.operands {
                    last_on_qubit[q] = NO_INST;
                }
                cleared = true;
                continue;
            }
            if let Some(merged) = merged {
                out[idx] = Instruction { gate: merged, operands: prev.operands };
                continue;
            }
        }

        let idx = out.len();
        out.push(inst);
        for q in inst.operands {
            last_on_qubit[q] = idx;
        }
    }

    if cleared {
        out.retain(|i| i.gate != Gate::Id);
    }
    cleared
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unitary::{circuit_unitary, matrices_equal_up_to_phase};

    #[test]
    fn cancels_adjacent_hadamards() {
        let mut c = Circuit::new(1);
        c.push1(Gate::H, 0).expect("valid");
        c.push1(Gate::H, 0).expect("valid");
        assert!(peephole(&c).is_empty());
    }

    #[test]
    fn keeps_separated_hadamards() {
        let mut c = Circuit::new(1);
        c.push1(Gate::H, 0).expect("valid");
        c.push1(Gate::T, 0).expect("valid");
        c.push1(Gate::H, 0).expect("valid");
        assert_eq!(peephole(&c).len(), 3);
    }

    #[test]
    fn blocking_gate_on_other_qubit_does_not_matter() {
        let mut c = Circuit::new(2);
        c.push1(Gate::H, 0).expect("valid");
        c.push1(Gate::T, 1).expect("valid"); // disjoint qubit
        c.push1(Gate::H, 0).expect("valid");
        let opt = peephole(&c);
        assert_eq!(opt.len(), 1);
        assert_eq!(opt.instructions()[0].gate, Gate::T);
    }

    #[test]
    fn merges_rotations() {
        let mut c = Circuit::new(1);
        c.push1(Gate::Rz(0.3), 0).expect("valid");
        c.push1(Gate::Rz(0.4), 0).expect("valid");
        let opt = peephole(&c);
        assert_eq!(opt.len(), 1);
        match opt.instructions()[0].gate {
            Gate::Rz(t) => assert!((t - 0.7).abs() < 1e-12),
            g => panic!("expected rz, got {g}"),
        }
    }

    #[test]
    fn merged_rotation_cancelling_is_removed() {
        let mut c = Circuit::new(1);
        c.push1(Gate::Rx(0.5), 0).expect("valid");
        c.push1(Gate::Rx(-0.5), 0).expect("valid");
        assert!(peephole(&c).is_empty());
    }

    #[test]
    fn cancels_adjacent_cz_pairs() {
        let mut c = Circuit::new(2);
        c.push2(Gate::Cz, 0, 1).expect("valid");
        c.push2(Gate::Cz, 0, 1).expect("valid");
        assert!(peephole(&c).is_empty());
    }

    #[test]
    fn cz_with_intervening_gate_survives() {
        let mut c = Circuit::new(2);
        c.push2(Gate::Cz, 0, 1).expect("valid");
        c.push1(Gate::X, 0).expect("valid");
        c.push2(Gate::Cz, 0, 1).expect("valid");
        assert_eq!(peephole(&c).len(), 3);
    }

    #[test]
    fn drops_identity_and_zero_rotations() {
        let mut c = Circuit::new(1);
        c.push1(Gate::Id, 0).expect("valid");
        c.push1(Gate::Rz(0.0), 0).expect("valid");
        c.push1(Gate::X, 0).expect("valid");
        let opt = peephole(&c);
        assert_eq!(opt.len(), 1);
        assert_eq!(opt.instructions()[0].gate, Gate::X);
    }

    #[test]
    fn cascading_cancellation_via_fixed_point() {
        // T Tdg collapses, exposing H H which then collapses.
        let mut c = Circuit::new(1);
        c.push1(Gate::H, 0).expect("valid");
        c.push1(Gate::T, 0).expect("valid");
        c.push1(Gate::Tdg, 0).expect("valid");
        c.push1(Gate::H, 0).expect("valid");
        assert!(peephole(&c).is_empty());
    }

    #[test]
    fn preserves_unitary_semantics() {
        let mut c = Circuit::new(2);
        c.push1(Gate::H, 0).expect("valid");
        c.push1(Gate::H, 0).expect("valid");
        c.push1(Gate::Rz(0.9), 1).expect("valid");
        c.push2(Gate::Cnot, 0, 1).expect("valid");
        c.push1(Gate::Rz(-0.2), 1).expect("valid");
        c.push1(Gate::Rz(0.2), 1).expect("valid");
        c.push2(Gate::Cnot, 0, 1).expect("valid");
        let opt = peephole(&c);
        assert!(opt.len() < c.len());
        assert!(matrices_equal_up_to_phase(&circuit_unitary(&c), &circuit_unitary(&opt), 1e-9));
    }

    #[test]
    fn asymmetric_cnot_operands_must_match_exactly() {
        let mut c = Circuit::new(2);
        c.push2(Gate::Cnot, 0, 1).expect("valid");
        c.push2(Gate::Cnot, 1, 0).expect("valid"); // reversed: no cancel
        assert_eq!(peephole(&c).len(), 2);
    }
}
