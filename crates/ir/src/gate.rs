//! The gate set.
//!
//! Tunable-transmon hardware natively implements arbitrary single-qubit
//! rotations (microwave drive) plus the resonance-based two-qubit gates
//! `iSWAP`, `sqrt(iSWAP)` and `CZ` (paper §II-B). Program-level gates such
//! as `CNOT` and `SWAP` must be decomposed (paper Fig. 8, module
//! [`decompose`](crate::decompose)).
//!
//! Matrix conventions: for two-qubit gates the first operand is the most
//! significant bit of the 4-dimensional basis `|q0 q1> in {00, 01, 10, 11}`.
//! The `iSWAP` matrix follows the paper (`-i` off-diagonal entries).

use crate::math::{self, Mat2, Mat4, C64, I, ONE, ZERO};
use std::fmt;

/// A quantum gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Identity (explicit idle).
    Id,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate `diag(1, i)`.
    S,
    /// Inverse phase gate `diag(1, -i)`.
    Sdg,
    /// T gate `diag(1, e^{i pi/4})`.
    T,
    /// Inverse T gate.
    Tdg,
    /// Rotation about X by the given angle (radians).
    Rx(f64),
    /// Rotation about Y by the given angle (radians).
    Ry(f64),
    /// Rotation about Z by the given angle (radians).
    Rz(f64),
    /// Controlled-NOT (first operand is the control).
    Cnot,
    /// Controlled-Z (symmetric).
    Cz,
    /// SWAP (symmetric).
    Swap,
    /// iSWAP with the paper's `-i` convention (symmetric).
    ISwap,
    /// Square root of [`Gate::ISwap`] (symmetric).
    SqrtISwap,
}

impl Gate {
    /// Number of operands: 1 or 2.
    pub fn arity(self) -> usize {
        if self.is_two_qubit() {
            2
        } else {
            1
        }
    }

    /// Whether this is a two-qubit gate.
    pub fn is_two_qubit(self) -> bool {
        matches!(self, Gate::Cnot | Gate::Cz | Gate::Swap | Gate::ISwap | Gate::SqrtISwap)
    }

    /// Whether swapping the two operands leaves the gate unchanged.
    ///
    /// Only meaningful for two-qubit gates; single-qubit gates return
    /// `false`.
    pub fn is_symmetric(self) -> bool {
        matches!(self, Gate::Cz | Gate::Swap | Gate::ISwap | Gate::SqrtISwap)
    }

    /// The 2x2 unitary, for single-qubit gates.
    pub fn matrix1(self) -> Option<Mat2> {
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        let m: Mat2 = match self {
            Gate::Id => math::identity2(),
            Gate::X => [[ZERO, ONE], [ONE, ZERO]],
            Gate::Y => [[ZERO, -I], [I, ZERO]],
            Gate::Z => [[ONE, ZERO], [ZERO, -ONE]],
            Gate::H => [
                [C64::real(inv_sqrt2), C64::real(inv_sqrt2)],
                [C64::real(inv_sqrt2), C64::real(-inv_sqrt2)],
            ],
            Gate::S => [[ONE, ZERO], [ZERO, I]],
            Gate::Sdg => [[ONE, ZERO], [ZERO, -I]],
            Gate::T => [[ONE, ZERO], [ZERO, C64::cis(std::f64::consts::FRAC_PI_4)]],
            Gate::Tdg => [[ONE, ZERO], [ZERO, C64::cis(-std::f64::consts::FRAC_PI_4)]],
            Gate::Rx(theta) => {
                let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
                [[C64::real(c), C64::new(0.0, -s)], [C64::new(0.0, -s), C64::real(c)]]
            }
            Gate::Ry(theta) => {
                let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
                [[C64::real(c), C64::real(-s)], [C64::real(s), C64::real(c)]]
            }
            Gate::Rz(theta) => [[C64::cis(-theta / 2.0), ZERO], [ZERO, C64::cis(theta / 2.0)]],
            _ => return None,
        };
        Some(m)
    }

    /// The 4x4 unitary, for two-qubit gates (first operand = MSB).
    pub fn matrix2(self) -> Option<Mat4> {
        let inv_sqrt2 = C64::real(std::f64::consts::FRAC_1_SQRT_2);
        let mi_sqrt2 = C64::new(0.0, -std::f64::consts::FRAC_1_SQRT_2);
        let m: Mat4 = match self {
            Gate::Cnot => [
                [ONE, ZERO, ZERO, ZERO],
                [ZERO, ONE, ZERO, ZERO],
                [ZERO, ZERO, ZERO, ONE],
                [ZERO, ZERO, ONE, ZERO],
            ],
            Gate::Cz => [
                [ONE, ZERO, ZERO, ZERO],
                [ZERO, ONE, ZERO, ZERO],
                [ZERO, ZERO, ONE, ZERO],
                [ZERO, ZERO, ZERO, -ONE],
            ],
            Gate::Swap => [
                [ONE, ZERO, ZERO, ZERO],
                [ZERO, ZERO, ONE, ZERO],
                [ZERO, ONE, ZERO, ZERO],
                [ZERO, ZERO, ZERO, ONE],
            ],
            Gate::ISwap => [
                [ONE, ZERO, ZERO, ZERO],
                [ZERO, ZERO, -I, ZERO],
                [ZERO, -I, ZERO, ZERO],
                [ZERO, ZERO, ZERO, ONE],
            ],
            Gate::SqrtISwap => [
                [ONE, ZERO, ZERO, ZERO],
                [ZERO, inv_sqrt2, mi_sqrt2, ZERO],
                [ZERO, mi_sqrt2, inv_sqrt2, ZERO],
                [ZERO, ZERO, ZERO, ONE],
            ],
            _ => return None,
        };
        Some(m)
    }

    /// Whether applying `self` then `other` on the same operands is the
    /// identity (used by the peephole optimizer).
    pub fn is_inverse_of(self, other: Gate) -> bool {
        const TOL: f64 = 1e-12;
        match (self, other) {
            (Gate::Rx(a), Gate::Rx(b))
            | (Gate::Ry(a), Gate::Ry(b))
            | (Gate::Rz(a), Gate::Rz(b)) => (a + b).abs() < TOL,
            (Gate::S, Gate::Sdg) | (Gate::Sdg, Gate::S) => true,
            (Gate::T, Gate::Tdg) | (Gate::Tdg, Gate::T) => true,
            (a, b) if a == b => matches!(
                a,
                Gate::Id
                    | Gate::X
                    | Gate::Y
                    | Gate::Z
                    | Gate::H
                    | Gate::Cnot
                    | Gate::Cz
                    | Gate::Swap
            ),
            _ => false,
        }
    }

    /// A stable `(tag, parameter-bits)` encoding for structural hashing.
    ///
    /// Tags are fixed forever (appending new gates gets new tags; existing
    /// tags never change), so a
    /// [`Circuit::structural_hash`](crate::Circuit::structural_hash) computed today matches one
    /// computed by any future build — the property the compile service's
    /// persistent result cache depends on. Non-parametric gates carry
    /// parameter bits `0`; rotations carry the IEEE-754 bits of their
    /// angle, so `Rx(0.1)` and `Rx(0.2)` encode differently while
    /// `Rx(a)` always encodes identically to itself.
    pub fn stable_code(self) -> (u8, u64) {
        match self {
            Gate::Id => (0, 0),
            Gate::X => (1, 0),
            Gate::Y => (2, 0),
            Gate::Z => (3, 0),
            Gate::H => (4, 0),
            Gate::S => (5, 0),
            Gate::Sdg => (6, 0),
            Gate::T => (7, 0),
            Gate::Tdg => (8, 0),
            Gate::Rx(t) => (9, t.to_bits()),
            Gate::Ry(t) => (10, t.to_bits()),
            Gate::Rz(t) => (11, t.to_bits()),
            Gate::Cnot => (12, 0),
            Gate::Cz => (13, 0),
            Gate::Swap => (14, 0),
            Gate::ISwap => (15, 0),
            Gate::SqrtISwap => (16, 0),
        }
    }

    /// Decodes a [`stable_code`](Self::stable_code) pair back into the
    /// gate — the inverse the persistent artifact store uses to rebuild
    /// circuits from disk. Returns `None` for an unknown tag, or for a
    /// non-parametric tag carrying non-zero parameter bits (both signal a
    /// corrupt or future-format record, which must be dropped rather than
    /// misread). Round-trips exactly: rotations are rebuilt from the same
    /// IEEE-754 bits `stable_code` emitted.
    pub fn from_stable_code(tag: u8, params: u64) -> Option<Gate> {
        let gate = match tag {
            0 => Gate::Id,
            1 => Gate::X,
            2 => Gate::Y,
            3 => Gate::Z,
            4 => Gate::H,
            5 => Gate::S,
            6 => Gate::Sdg,
            7 => Gate::T,
            8 => Gate::Tdg,
            9 => return Some(Gate::Rx(f64::from_bits(params))),
            10 => return Some(Gate::Ry(f64::from_bits(params))),
            11 => return Some(Gate::Rz(f64::from_bits(params))),
            12 => Gate::Cnot,
            13 => Gate::Cz,
            14 => Gate::Swap,
            15 => Gate::ISwap,
            16 => Gate::SqrtISwap,
            _ => return None,
        };
        (params == 0).then_some(gate)
    }

    /// A short lowercase mnemonic (e.g. `"cnot"`, `"rx"`).
    pub fn name(self) -> &'static str {
        match self {
            Gate::Id => "id",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::H => "h",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
            Gate::Cnot => "cnot",
            Gate::Cz => "cz",
            Gate::Swap => "swap",
            Gate::ISwap => "iswap",
            Gate::SqrtISwap => "sqiswap",
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) => write!(f, "{}({:.4})", self.name(), t),
            _ => f.write_str(self.name()),
        }
    }
}

/// The native two-qubit gates of a tunable-transmon device.
///
/// All single-qubit rotations are assumed native (microwave drive);
/// membership here determines which two-qubit gates survive decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NativeGateSet {
    /// `CZ` available (|11> <-> |20> resonance).
    pub cz: bool,
    /// `iSWAP` available (|01> <-> |10> resonance).
    pub iswap: bool,
    /// `sqrt(iSWAP)` available (half-period |01> <-> |10> resonance).
    pub sqrt_iswap: bool,
}

impl NativeGateSet {
    /// The full tunable-transmon native set (paper §II-B: CZ, iSWAP and
    /// sqrt(iSWAP) all reachable by frequency resonance).
    pub fn transmon() -> Self {
        NativeGateSet { cz: true, iswap: true, sqrt_iswap: true }
    }

    /// Whether `gate` may appear in compiled output.
    pub fn contains(self, gate: Gate) -> bool {
        match gate {
            Gate::Cz => self.cz,
            Gate::ISwap => self.iswap,
            Gate::SqrtISwap => self.sqrt_iswap,
            Gate::Cnot | Gate::Swap => false,
            _ => true, // single-qubit gates always native
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::{is_unitary2, is_unitary4, mat4_approx_eq, matmul4};
    use std::f64::consts::PI;

    #[test]
    fn arity_matches_kind() {
        assert_eq!(Gate::H.arity(), 1);
        assert_eq!(Gate::Rz(0.3).arity(), 1);
        assert_eq!(Gate::Cnot.arity(), 2);
        assert!(Gate::ISwap.is_two_qubit());
        assert!(!Gate::X.is_two_qubit());
    }

    #[test]
    fn all_single_qubit_matrices_unitary() {
        let gates = [
            Gate::Id,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Rx(0.7),
            Gate::Ry(-1.3),
            Gate::Rz(2.1),
        ];
        for g in gates {
            let m = g.matrix1().expect("single-qubit gate");
            assert!(is_unitary2(&m, 1e-12), "{g} not unitary");
            assert!(g.matrix2().is_none());
        }
    }

    #[test]
    fn all_two_qubit_matrices_unitary() {
        for g in [Gate::Cnot, Gate::Cz, Gate::Swap, Gate::ISwap, Gate::SqrtISwap] {
            let m = g.matrix2().expect("two-qubit gate");
            assert!(is_unitary4(&m, 1e-12), "{g} not unitary");
            assert!(g.matrix1().is_none());
        }
    }

    #[test]
    fn sqrt_iswap_squares_to_iswap() {
        let half = Gate::SqrtISwap.matrix2().expect("two-qubit");
        let full = Gate::ISwap.matrix2().expect("two-qubit");
        assert!(mat4_approx_eq(&matmul4(&half, &half), &full, 1e-12));
    }

    #[test]
    fn iswap_matches_paper_matrix() {
        let m = Gate::ISwap.matrix2().expect("two-qubit");
        assert!(m[1][2].approx_eq(-I, 1e-15));
        assert!(m[2][1].approx_eq(-I, 1e-15));
        assert!(m[0][0].approx_eq(ONE, 1e-15));
        assert!(m[3][3].approx_eq(ONE, 1e-15));
    }

    #[test]
    fn rotation_periodicity() {
        // Rx(2 pi) = -I (spinor sign), so Rx(4 pi) = I.
        let m = Gate::Rx(4.0 * PI).matrix1().expect("1q");
        assert!(m[0][0].approx_eq(ONE, 1e-12));
        let m2 = Gate::Rx(2.0 * PI).matrix1().expect("1q");
        assert!(m2[0][0].approx_eq(-ONE, 1e-12));
    }

    #[test]
    fn inverse_pairs() {
        assert!(Gate::H.is_inverse_of(Gate::H));
        assert!(Gate::S.is_inverse_of(Gate::Sdg));
        assert!(Gate::Rz(0.4).is_inverse_of(Gate::Rz(-0.4)));
        assert!(!Gate::Rz(0.4).is_inverse_of(Gate::Rz(0.4)));
        assert!(Gate::Cz.is_inverse_of(Gate::Cz));
        assert!(!Gate::ISwap.is_inverse_of(Gate::ISwap)); // iSWAP^2 != I
        assert!(!Gate::T.is_inverse_of(Gate::T));
    }

    #[test]
    fn symmetry_flags() {
        assert!(Gate::Cz.is_symmetric());
        assert!(Gate::Swap.is_symmetric());
        assert!(Gate::ISwap.is_symmetric());
        assert!(!Gate::Cnot.is_symmetric());
        assert!(!Gate::H.is_symmetric());
    }

    #[test]
    fn native_set_membership() {
        let native = NativeGateSet::transmon();
        assert!(native.contains(Gate::Cz));
        assert!(native.contains(Gate::Rx(1.0)));
        assert!(!native.contains(Gate::Cnot));
        assert!(!native.contains(Gate::Swap));
        let cz_only = NativeGateSet { cz: true, ..Default::default() };
        assert!(!cz_only.contains(Gate::ISwap));
    }

    #[test]
    fn display_contains_angle() {
        assert_eq!(Gate::Rz(0.5).to_string(), "rz(0.5000)");
        assert_eq!(Gate::Cnot.to_string(), "cnot");
    }

    #[test]
    fn stable_code_round_trips_every_gate() {
        let gates = [
            Gate::Id,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Rx(0.25),
            Gate::Ry(-1.5),
            Gate::Rz(PI),
            Gate::Cnot,
            Gate::Cz,
            Gate::Swap,
            Gate::ISwap,
            Gate::SqrtISwap,
        ];
        for gate in gates {
            let (tag, params) = gate.stable_code();
            let back = Gate::from_stable_code(tag, params).expect("known tag decodes");
            let (tag2, params2) = back.stable_code();
            assert_eq!((tag, params), (tag2, params2), "{gate} must round-trip bit-exactly");
        }
        // Rotation bits round-trip exactly, including negative zero.
        let neg_zero = Gate::Rx(-0.0);
        let (tag, bits) = neg_zero.stable_code();
        assert_eq!(Gate::from_stable_code(tag, bits).unwrap().stable_code().1, bits);
    }

    #[test]
    fn from_stable_code_rejects_corrupt_records() {
        // Unknown tag: a future gate or flipped byte.
        assert_eq!(Gate::from_stable_code(17, 0), None);
        assert_eq!(Gate::from_stable_code(255, 0), None);
        // Non-parametric tag carrying parameter bits: corrupt payload.
        assert_eq!(Gate::from_stable_code(0, 1), None);
        assert_eq!(Gate::from_stable_code(12, 0xdead_beef), None);
    }
}
