//! Quantum circuits: ordered gate lists over `n` program qubits.

use crate::gate::Gate;
use crate::hash::StableHasher;
use std::error::Error;
use std::fmt;

/// Errors raised when building circuits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrError {
    /// A qubit operand was at least the circuit's qubit count.
    QubitOutOfRange {
        /// The offending qubit.
        qubit: usize,
        /// The circuit's qubit count.
        n_qubits: usize,
    },
    /// A two-qubit gate was applied to one qubit twice.
    DuplicateOperand {
        /// The repeated qubit.
        qubit: usize,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            IrError::QubitOutOfRange { qubit, n_qubits } => {
                write!(f, "qubit {qubit} out of range for circuit with {n_qubits} qubits")
            }
            IrError::DuplicateOperand { qubit } => {
                write!(f, "two-qubit gate applied twice to qubit {qubit}")
            }
        }
    }
}

impl Error for IrError {}

/// The qubit operands of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operands {
    /// A single-qubit operand.
    One(usize),
    /// Two distinct qubit operands (order significant for `CNOT`).
    Two(usize, usize),
}

impl Operands {
    /// The operands as a slice-like small vector.
    pub fn as_vec(self) -> Vec<usize> {
        match self {
            Operands::One(q) => vec![q],
            Operands::Two(a, b) => vec![a, b],
        }
    }

    /// The first operand (the only one for single-qubit gates; the
    /// control side for `CNOT`).
    pub fn first(self) -> usize {
        match self {
            Operands::One(q) | Operands::Two(q, _) => q,
        }
    }

    /// Number of operands (1 or 2).
    #[allow(clippy::len_without_is_empty)] // an instruction always has operands
    pub fn len(self) -> usize {
        match self {
            Operands::One(_) => 1,
            Operands::Two(..) => 2,
        }
    }

    /// Whether `q` is among the operands.
    pub fn contains(self, q: usize) -> bool {
        match self {
            Operands::One(a) => a == q,
            Operands::Two(a, b) => a == q || b == q,
        }
    }

    /// Whether any operand is shared with `other`.
    pub fn overlaps(self, other: Operands) -> bool {
        match self {
            Operands::One(a) => other.contains(a),
            Operands::Two(a, b) => other.contains(a) || other.contains(b),
        }
    }
}

/// Allocation-free iterator over an instruction's operands — the hot-path
/// replacement for [`Operands::as_vec`], which allocates a `Vec` per call
/// and dominated compile-time profiles in the scheduling engine's inner
/// loops.
#[derive(Debug, Clone)]
pub struct OperandIter {
    operands: Operands,
    next: usize,
}

impl Iterator for OperandIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let q = match (self.operands, self.next) {
            (Operands::One(q), 0) => q,
            (Operands::Two(a, _), 0) => a,
            (Operands::Two(_, b), 1) => b,
            _ => return None,
        };
        self.next += 1;
        Some(q)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.operands.len().saturating_sub(self.next);
        (left, Some(left))
    }
}

impl ExactSizeIterator for OperandIter {}

impl IntoIterator for Operands {
    type Item = usize;
    type IntoIter = OperandIter;

    fn into_iter(self) -> OperandIter {
        OperandIter { operands: self, next: 0 }
    }
}

/// A gate applied to specific qubits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instruction {
    /// The gate.
    pub gate: Gate,
    /// Its operands (arity checked at construction).
    pub operands: Operands,
}

impl Instruction {
    /// The qubits this instruction touches.
    pub fn qubits(&self) -> Vec<usize> {
        self.operands.as_vec()
    }

    /// Checks the operands against a circuit of `n_qubits` qubits: each
    /// in range, and a two-qubit instruction's two distinct. An
    /// instruction passes this once, where it is created (`Circuit::push*`,
    /// the router, the lowering's emitter); passes that only drop or merge
    /// instructions keep their operands and need not repeat it.
    pub(crate) fn check(self, n_qubits: usize) -> Result<(), IrError> {
        let in_range = |qubit: usize| {
            if qubit < n_qubits {
                Ok(())
            } else {
                Err(IrError::QubitOutOfRange { qubit, n_qubits })
            }
        };
        match self.operands {
            Operands::One(q) => in_range(q),
            Operands::Two(a, b) => {
                in_range(a)?;
                in_range(b)?;
                if a == b {
                    Err(IrError::DuplicateOperand { qubit: a })
                } else {
                    Ok(())
                }
            }
        }
    }

    /// For two-qubit instructions, the operand pair `(a, b)`.
    pub fn qubit_pair(&self) -> Option<(usize, usize)> {
        match self.operands {
            Operands::Two(a, b) => Some((a, b)),
            Operands::One(_) => None,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.operands {
            Operands::One(q) => write!(f, "{} q{q}", self.gate),
            Operands::Two(a, b) => write!(f, "{} q{a}, q{b}", self.gate),
        }
    }
}

/// An ordered list of instructions over `n_qubits` program qubits.
///
/// # Example
///
/// ```
/// use fastsc_ir::{Circuit, Gate};
///
/// let mut c = Circuit::new(2);
/// c.push1(Gate::H, 0)?;
/// c.push2(Gate::Cnot, 0, 1)?;
/// assert_eq!(c.len(), 2);
/// assert_eq!(c.two_qubit_count(), 1);
/// # Ok::<(), fastsc_ir::IrError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    n_qubits: usize,
    instructions: Vec<Instruction>,
}

impl Circuit {
    /// An empty circuit on `n_qubits` qubits.
    pub fn new(n_qubits: usize) -> Self {
        Circuit { n_qubits, instructions: Vec::new() }
    }

    /// An empty circuit on `n_qubits` qubits with room for `capacity`
    /// instructions, so a pass that knows (or bounds) its output length
    /// appends without regrowing the buffer.
    pub fn with_capacity(n_qubits: usize, capacity: usize) -> Self {
        Circuit { n_qubits, instructions: Vec::with_capacity(capacity) }
    }

    /// The number of program qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the circuit contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The instruction list.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Appends a single-qubit gate.
    ///
    /// # Errors
    ///
    /// Returns an error if the gate is two-qubit or the operand is out of
    /// range.
    pub fn push1(&mut self, gate: Gate, q: usize) -> Result<&mut Self, IrError> {
        assert!(!gate.is_two_qubit(), "push1 with two-qubit gate {gate}");
        self.push(Instruction { gate, operands: Operands::One(q) })
    }

    /// Appends a two-qubit gate; for `CNOT`, `a` is the control.
    ///
    /// # Errors
    ///
    /// Returns an error if either operand is out of range or if `a == b`.
    pub fn push2(&mut self, gate: Gate, a: usize, b: usize) -> Result<&mut Self, IrError> {
        assert!(gate.is_two_qubit(), "push2 with single-qubit gate {gate}");
        self.push(Instruction { gate, operands: Operands::Two(a, b) })
    }

    /// Appends an already-validated instruction from another circuit with
    /// the same (or larger) qubit count.
    ///
    /// # Errors
    ///
    /// Returns an error if operands are out of range.
    pub fn push(&mut self, instruction: Instruction) -> Result<&mut Self, IrError> {
        instruction.check(self.n_qubits)?;
        self.instructions.push(instruction);
        Ok(self)
    }

    /// Empties the circuit and sets its qubit count, keeping the
    /// instruction buffer's capacity, so a pass that refills one circuit
    /// per call stops allocating once the buffer has grown to its largest
    /// input.
    pub fn reset(&mut self, n_qubits: usize) {
        self.n_qubits = n_qubits;
        self.instructions.clear();
    }

    /// Swaps this circuit's instruction buffer with `instructions` and
    /// sets its qubit count: a pass hands over its finished output without
    /// copying it, and takes this circuit's old buffer for its next use.
    /// Every instruction handed over must already be checked against
    /// `n_qubits`.
    pub(crate) fn swap_instructions(
        &mut self,
        n_qubits: usize,
        instructions: &mut Vec<Instruction>,
    ) {
        debug_assert!(instructions.iter().all(|i| i.check(n_qubits).is_ok()));
        self.n_qubits = n_qubits;
        std::mem::swap(&mut self.instructions, instructions);
    }

    /// Appends every instruction of `other`.
    ///
    /// # Errors
    ///
    /// Returns an error if `other` uses qubits outside this circuit's range.
    pub fn extend(&mut self, other: &Circuit) -> Result<&mut Self, IrError> {
        for &inst in other.instructions() {
            self.push(inst)?;
        }
        Ok(self)
    }

    /// Number of two-qubit instructions.
    pub fn two_qubit_count(&self) -> usize {
        self.instructions.iter().filter(|i| i.gate.is_two_qubit()).count()
    }

    /// Number of single-qubit instructions.
    pub fn single_qubit_count(&self) -> usize {
        self.len() - self.two_qubit_count()
    }

    /// Gate histogram keyed by mnemonic.
    pub fn gate_counts(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut counts = std::collections::BTreeMap::new();
        for inst in &self.instructions {
            *counts.entry(inst.gate.name()).or_insert(0) += 1;
        }
        counts
    }

    /// A stable 64-bit structural hash of the circuit.
    ///
    /// Two circuits hash equal exactly when they have the same qubit
    /// count and the same instruction sequence (same gates, same
    /// parameters bit-for-bit, same operands in the same order) — the
    /// notion of identity [`PartialEq`] implements, but condensed to a
    /// key a result cache can store. The hash is computed with a pinned
    /// algorithm ([`StableHasher`], FNV-1a/64 over a fixed encoding), so
    /// it is reproducible across processes, platforms, and Rust releases,
    /// unlike [`std::hash::Hasher`] output.
    ///
    /// Gate *reorderings* and qubit *relabelings* change the hash (the
    /// encoding is order-sensitive and operand-sensitive); the property
    /// suite asserts both for random circuits.
    pub fn structural_hash(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_usize(self.n_qubits);
        h.write_usize(self.instructions.len());
        for inst in &self.instructions {
            let (tag, params) = inst.gate.stable_code();
            h.write_u8(tag);
            h.write_u64(params);
            match inst.operands {
                Operands::One(q) => {
                    h.write_u8(1);
                    h.write_usize(q);
                }
                Operands::Two(a, b) => {
                    h.write_u8(2);
                    h.write_usize(a);
                    h.write_usize(b);
                }
            }
        }
        h.finish()
    }

    /// Logical depth: the number of layers in an ASAP schedule where
    /// instructions sharing a qubit cannot share a layer.
    pub fn depth(&self) -> usize {
        let mut busy_until = vec![0usize; self.n_qubits];
        let mut depth = 0;
        for inst in &self.instructions {
            let start = inst.operands.into_iter().map(|q| busy_until[q]).max().unwrap_or(0);
            for q in inst.operands {
                busy_until[q] = start + 1;
            }
            depth = depth.max(start + 1);
        }
        depth
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit on {} qubits:", self.n_qubits)?;
        for inst in &self.instructions {
            writeln!(f, "  {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_count() {
        let mut c = Circuit::new(3);
        c.push1(Gate::H, 0).expect("valid");
        c.push1(Gate::H, 1).expect("valid");
        c.push2(Gate::Cnot, 0, 2).expect("valid");
        assert_eq!(c.len(), 3);
        assert_eq!(c.two_qubit_count(), 1);
        assert_eq!(c.single_qubit_count(), 2);
        assert_eq!(c.gate_counts()["h"], 2);
    }

    #[test]
    fn rejects_out_of_range() {
        let mut c = Circuit::new(2);
        assert_eq!(
            c.push1(Gate::X, 2),
            Err(IrError::QubitOutOfRange { qubit: 2, n_qubits: 2 })
        );
        assert_eq!(
            c.push2(Gate::Cz, 0, 5),
            Err(IrError::QubitOutOfRange { qubit: 5, n_qubits: 2 })
        );
    }

    #[test]
    fn rejects_equal_operands() {
        let mut c = Circuit::new(2);
        assert_eq!(c.push2(Gate::Cz, 1, 1), Err(IrError::DuplicateOperand { qubit: 1 }));
    }

    #[test]
    #[should_panic(expected = "push1 with two-qubit gate")]
    fn push1_rejects_two_qubit_gate() {
        let mut c = Circuit::new(2);
        let _ = c.push1(Gate::Cnot, 0);
    }

    #[test]
    fn depth_serial_vs_parallel() {
        // Parallel single-qubit gates: depth 1.
        let mut c = Circuit::new(3);
        for q in 0..3 {
            c.push1(Gate::H, q).expect("valid");
        }
        assert_eq!(c.depth(), 1);

        // Chain on one qubit: depth = number of gates.
        let mut c = Circuit::new(1);
        for _ in 0..5 {
            c.push1(Gate::X, 0).expect("valid");
        }
        assert_eq!(c.depth(), 5);

        // Two CNOTs sharing a qubit: depth 2.
        let mut c = Circuit::new(3);
        c.push2(Gate::Cnot, 0, 1).expect("valid");
        c.push2(Gate::Cnot, 1, 2).expect("valid");
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Circuit::new(2);
        a.push1(Gate::H, 0).expect("valid");
        let mut b = Circuit::new(2);
        b.push2(Gate::Cz, 0, 1).expect("valid");
        a.extend(&b).expect("same width");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn extend_rejects_wider_circuit() {
        let mut narrow = Circuit::new(1);
        let mut wide = Circuit::new(3);
        wide.push2(Gate::Cz, 0, 2).expect("valid");
        assert!(narrow.extend(&wide).is_err());
    }

    #[test]
    fn operands_overlap() {
        let a = Operands::Two(0, 1);
        assert!(a.overlaps(Operands::One(1)));
        assert!(a.overlaps(Operands::Two(1, 2)));
        assert!(!a.overlaps(Operands::Two(2, 3)));
        assert!(Operands::One(5).overlaps(Operands::One(5)));
    }

    #[test]
    fn structural_hash_matches_equality() {
        let build = || {
            let mut c = Circuit::new(3);
            c.push1(Gate::H, 0).expect("valid");
            c.push1(Gate::Rz(0.25), 1).expect("valid");
            c.push2(Gate::Cnot, 0, 2).expect("valid");
            c
        };
        assert_eq!(build().structural_hash(), build().structural_hash());
    }

    #[test]
    fn structural_hash_is_pinned() {
        // The hash feeds a persistent cache key: its exact value is part
        // of the contract. If this test fails, the encoding changed and
        // every on-disk cache key would silently rot.
        let mut c = Circuit::new(2);
        c.push1(Gate::H, 0).expect("valid");
        c.push2(Gate::Cz, 0, 1).expect("valid");
        assert_eq!(c.structural_hash(), 0x1217_f165_2626_5d18);
    }

    #[test]
    fn structural_hash_sees_order_operands_params_and_width() {
        let mut base = Circuit::new(3);
        base.push1(Gate::H, 0).expect("valid");
        base.push2(Gate::Cz, 0, 1).expect("valid");

        // Reordered instructions.
        let mut reordered = Circuit::new(3);
        reordered.push2(Gate::Cz, 0, 1).expect("valid");
        reordered.push1(Gate::H, 0).expect("valid");
        assert_ne!(base.structural_hash(), reordered.structural_hash());

        // Relabeled qubits (asymmetric even for the symmetric CZ: the
        // hash is structural, not semantic).
        let mut relabeled = Circuit::new(3);
        relabeled.push1(Gate::H, 2).expect("valid");
        relabeled.push2(Gate::Cz, 2, 1).expect("valid");
        assert_ne!(base.structural_hash(), relabeled.structural_hash());

        // Operand order of a two-qubit gate.
        let mut swapped = Circuit::new(3);
        swapped.push1(Gate::H, 0).expect("valid");
        swapped.push2(Gate::Cz, 1, 0).expect("valid");
        assert_ne!(base.structural_hash(), swapped.structural_hash());

        // Same instructions, different declared width.
        let mut wider = Circuit::new(4);
        wider.push1(Gate::H, 0).expect("valid");
        wider.push2(Gate::Cz, 0, 1).expect("valid");
        assert_ne!(base.structural_hash(), wider.structural_hash());

        // Rotation parameters are hashed bit-exactly.
        let mut ra = Circuit::new(1);
        ra.push1(Gate::Rx(0.1), 0).expect("valid");
        let mut rb = Circuit::new(1);
        rb.push1(Gate::Rx(0.2), 0).expect("valid");
        assert_ne!(ra.structural_hash(), rb.structural_hash());
    }

    #[test]
    fn empty_circuits_hash_by_width() {
        assert_ne!(Circuit::new(1).structural_hash(), Circuit::new(2).structural_hash());
        assert_eq!(Circuit::new(5).structural_hash(), Circuit::new(5).structural_hash());
    }

    #[test]
    fn display_lists_instructions() {
        let mut c = Circuit::new(2);
        c.push1(Gate::H, 0).expect("valid");
        c.push2(Gate::Cnot, 0, 1).expect("valid");
        let s = c.to_string();
        assert!(s.contains("h q0"));
        assert!(s.contains("cnot q0, q1"));
    }
}
