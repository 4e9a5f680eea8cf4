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

use crate::circuit::{Circuit, Instruction, Operands};
use crate::decompose::Sink;
use crate::gate::Gate;

/// Rotation angles within this tolerance of zero (mod 4 pi) are dropped.
const ANGLE_TOL: f64 = 1e-12;

const FOUR_PI: f64 = 4.0 * std::f64::consts::PI;

/// Applies peephole simplification until a fixed point is reached and
/// returns the cleaned circuit.
///
/// A wrapper over [`Peephole`]: every instruction is fed in order, then
/// the remaining passes run and the buffer becomes the returned circuit,
/// without a copy.
pub fn peephole(circuit: &Circuit) -> Circuit {
    let mut stream = Peephole::default();
    stream.reset(circuit.n_qubits());
    stream.insts.reserve_exact(circuit.len());
    for &inst in circuit.instructions() {
        stream.feed(inst);
    }
    stream.settle();
    let mut out = Circuit::new(circuit.n_qubits());
    out.swap_instructions(stream.n_qubits, &mut stream.insts);
    out
}

/// The peephole pass, incremental: [`feed`](Self::feed) runs the first
/// pass on one instruction as it arrives, and [`finish`](Self::finish)
/// runs any remaining passes in place and hands the result over.
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
/// Operands are never checked here: a pass only drops instructions and
/// merges a rotation into its partner's slot, which keeps that slot's
/// operands, so every surviving instruction carries operands exactly as
/// they were fed. Fed instructions must therefore be checked already
/// (every instruction of a [`Circuit`], a router's output, or
/// [`lower_into`](crate::decompose::lower_into)'s emits are); a debug
/// assertion re-checks the result.
///
/// Buffers: the tracker (`n_qubits`) and one instruction buffer, which
/// every pass rewrites in place. Both keep their capacity across
/// [`reset`](Self::reset)s, so a reused `Peephole` stops allocating once
/// it has seen its largest stream.
#[derive(Debug, Clone, Default)]
pub struct Peephole {
    n_qubits: usize,
    /// The instructions kept so far; dead slots are `Gate::Id` until the
    /// next `retain`.
    insts: Vec<Instruction>,
    /// For each qubit, the index in `insts` of the last instruction
    /// touching it (`NO_INST` if none is live).
    last_on_qubit: Vec<usize>,
    /// Whether the streamed first pass cleared a tracker.
    cleared: bool,
}

impl Peephole {
    /// Starts a new stream over `n_qubits` qubits, dropping whatever the
    /// last one left and keeping the buffers.
    pub fn reset(&mut self, n_qubits: usize) {
        self.n_qubits = n_qubits;
        self.insts.clear();
        self.last_on_qubit.clear();
        self.last_on_qubit.resize(n_qubits, NO_INST);
        self.cleared = false;
    }

    /// Runs the first pass on `inst`, the stream's next instruction,
    /// whose operands must already be checked against the stream's qubit
    /// count (see the type docs).
    pub fn feed(&mut self, inst: Instruction) {
        match step(inst, &mut self.insts, &mut self.last_on_qubit) {
            Step::Keep => self.insts.push(inst),
            Step::Cleared => self.cleared = true,
            Step::Absorbed => {}
        }
    }

    /// Runs the remaining passes in place and swaps the result into
    /// `out`, which takes the stream's qubit count. `out`'s old buffer
    /// becomes this pass's next one, grown to the capacity just handed
    /// over, so a caller alternating the two never regrows either.
    pub fn finish(&mut self, out: &mut Circuit) {
        self.settle();
        let capacity = self.insts.capacity();
        out.swap_instructions(self.n_qubits, &mut self.insts);
        self.insts.clear();
        self.insts.reserve_exact(capacity);
    }

    /// Ends the first pass, then runs passes until one clears no tracker.
    fn settle(&mut self) {
        let mut cleared = std::mem::take(&mut self.cleared);
        if cleared {
            self.insts.retain(|i| i.gate != Gate::Id);
        }
        while cleared {
            cleared = pass(&mut self.insts, &mut self.last_on_qubit);
        }
    }
}

impl Sink for Peephole {
    fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    fn accept(&mut self, inst: Instruction) {
        self.feed(inst);
    }
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

/// One simplification pass over `insts`, in place. Returns whether it
/// cleared a per-qubit tracker, i.e. killed a slot (an inverse pair or a
/// merge to identity): only then can another pass find more work.
fn pass(insts: &mut Vec<Instruction>, last_on_qubit: &mut [usize]) -> bool {
    last_on_qubit.fill(NO_INST);
    let mut kept = 0;
    let mut cleared = false;
    // `kept <= i` throughout, so slot `i` is read before anything
    // writes it.
    for i in 0..insts.len() {
        let inst = insts[i];
        match step(inst, &mut insts[..kept], last_on_qubit) {
            Step::Keep => {
                insts[kept] = inst;
                kept += 1;
            }
            Step::Cleared => cleared = true,
            Step::Absorbed => {}
        }
    }
    insts.truncate(kept);
    if cleared {
        insts.retain(|i| i.gate != Gate::Id);
    }
    cleared
}

/// What [`step`] did with an instruction.
enum Step {
    /// It stays: the caller appends it to the kept instructions, where
    /// the trackers already point.
    Keep,
    /// It was trivial and dropped, or merged into its partner.
    Absorbed,
    /// It cancelled with its partner (or merged with it to identity):
    /// the partner's slot is dead and a tracker was cleared.
    Cleared,
}

/// Simplifies `inst` against the instructions kept so far, `kept`: drops
/// it when trivial, cancels or merges it with its partner there, or
/// points the trackers at slot `kept.len()` for the caller to fill.
fn step(inst: Instruction, kept: &mut [Instruction], last_on_qubit: &mut [usize]) -> Step {
    if is_trivial(inst.gate) {
        return Step::Absorbed;
    }
    // The candidate partner must be the last instruction on *all* of
    // this instruction's qubits, with identical operands.
    let candidate = last_on_qubit[inst.operands.first()];
    let partner = (candidate != NO_INST
        && match inst.operands {
            Operands::One(_) => true,
            Operands::Two(_, b) => last_on_qubit[b] == candidate,
        }
        && kept[candidate].operands == inst.operands)
        .then_some(candidate);

    if let Some(idx) = partner {
        let prev = kept[idx];
        let merged = merge(prev.gate, inst.gate);
        let dies = prev.gate.is_inverse_of(inst.gate) || merged.is_some_and(is_trivial);
        if dies {
            // Remove the pair: mark the slot dead and clear trackers.
            kept[idx] = Instruction { gate: Gate::Id, operands: prev.operands };
            track(inst.operands, last_on_qubit, NO_INST);
            return Step::Cleared;
        }
        if let Some(merged) = merged {
            kept[idx] = Instruction { gate: merged, operands: prev.operands };
            return Step::Absorbed;
        }
    }

    track(inst.operands, last_on_qubit, kept.len());
    Step::Keep
}

/// Points each of `operands`' trackers at `slot`.
fn track(operands: Operands, last_on_qubit: &mut [usize], slot: usize) {
    match operands {
        Operands::One(q) => last_on_qubit[q] = slot,
        Operands::Two(a, b) => {
            last_on_qubit[a] = slot;
            last_on_qubit[b] = slot;
        }
    }
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

    #[test]
    fn a_reused_peephole_matches_fresh_ones_across_widths() {
        // One `Peephole` and one output circuit, reused across streams of
        // different widths, must give what a fresh `peephole` call does:
        // no tracker, cleared flag or buffer content leaks between streams.
        let mut wide = Circuit::new(3);
        wide.push1(Gate::H, 2).expect("valid");
        wide.push1(Gate::H, 2).expect("valid");
        wide.push2(Gate::Cz, 0, 2).expect("valid");
        wide.push1(Gate::Rz(0.3), 1).expect("valid");
        let mut narrow = Circuit::new(1);
        narrow.push1(Gate::T, 0).expect("valid");
        narrow.push1(Gate::Rz(0.2), 0).expect("valid");
        narrow.push1(Gate::Rz(-0.2), 0).expect("valid");
        narrow.push1(Gate::Tdg, 0).expect("valid");
        let mut pass = Peephole::default();
        let mut out = Circuit::new(0);
        for circuit in [&wide, &narrow, &wide, &narrow, &wide] {
            pass.reset(circuit.n_qubits());
            for &inst in circuit.instructions() {
                pass.feed(inst);
            }
            pass.finish(&mut out);
            assert_eq!(out, peephole(circuit));
        }
    }
}
