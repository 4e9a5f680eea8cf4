//! Lowering of program gates to the tunable-transmon native set
//! (paper Fig. 8 and §V-B5).
//!
//! Tunable transmons natively implement `CZ` (via the `|11> <-> |20>`
//! resonance), `iSWAP` and `sqrt(iSWAP)` (via `|01> <-> |10>`), plus
//! arbitrary microwave single-qubit rotations. Program-level `CNOT` and
//! `SWAP` gates must be rewritten:
//!
//! * `CNOT = (I (x) H) . CZ . (I (x) H)` — Fig. 8(c);
//! * `CNOT = iSWAP . (H (x) I) . iSWAP . (S (x) Rx(-pi/2))` — Fig. 8(a),
//!   derived by exhaustive search over Clifford locals (see the
//!   `derive_decompositions` example) and verified by unitary equality;
//! * `SWAP` via three `sqrt(iSWAP)`s — Fig. 8(b): `SWAP` is locally
//!   equivalent to `exp(-i pi/4 (XX+YY+ZZ))`, and each `sqrt(iSWAP)`
//!   contributes `exp(-i pi/8 (XX+YY))` up to a local basis change
//!   (`Rx(pi/2)` pairs map `YY -> ZZ`, `Ry(pi/2)` pairs map `XX -> ZZ`);
//! * `SWAP = iSWAP . (S (x) S) . CZ` — one `iSWAP` plus one `CZ`;
//! * `SWAP` via three `CNOT`s — Fig. 8(d) after lowering each to `CZ`;
//! * `CNOT` via two `sqrt(iSWAP)`s — using
//!   `K . (X (x) I) . K . (X (x) I) = exp(-i pi/4 XX)` and local Cliffords.
//!
//! The **hybrid** strategy (paper §V-B5) lowers `CNOT` via `CZ` and `SWAP`
//! via `sqrt(iSWAP)`, which the paper shows is cheaper than committing to a
//! single native gate.

use crate::circuit::{Circuit, Operands};
use crate::gate::{Gate, NativeGateSet};
use std::f64::consts::FRAC_PI_2;

/// Which native two-qubit gate(s) the lowering may target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Lower everything to `CZ` (plus single-qubit gates).
    CzOnly,
    /// Lower everything to `iSWAP`.
    ISwapOnly,
    /// Lower everything to `sqrt(iSWAP)`.
    SqrtISwapOnly,
    /// Paper §V-B5: `CNOT` via `CZ`, `SWAP` via `sqrt(iSWAP)`.
    Hybrid,
}

impl Strategy {
    /// The native gate set this strategy targets.
    pub fn native_set(self) -> NativeGateSet {
        match self {
            Strategy::CzOnly => NativeGateSet { cz: true, iswap: false, sqrt_iswap: false },
            Strategy::ISwapOnly => NativeGateSet { cz: false, iswap: true, sqrt_iswap: false },
            Strategy::SqrtISwapOnly => {
                NativeGateSet { cz: false, iswap: false, sqrt_iswap: true }
            }
            Strategy::Hybrid => NativeGateSet::transmon(),
        }
    }
}

/// Lowers every non-native gate of `circuit` to the strategy's native set.
///
/// The output is unitary-equivalent to the input up to global phase (tested
/// exhaustively); run [`optimize::peephole`](crate::optimize::peephole)
/// afterwards to cancel the single-qubit debris between adjacent lowered
/// gates.
///
/// The output is allocated once, at its exact length: a first sweep sums
/// each instruction's lowered length (`lowered_len`).
pub fn decompose(circuit: &Circuit, strategy: Strategy) -> Circuit {
    let native = strategy.native_set();
    let budget = circuit
        .instructions()
        .iter()
        .map(|inst| match inst.operands {
            Operands::Two(..) if !native.contains(inst.gate) => {
                lowered_len(inst.gate, strategy)
            }
            _ => 1,
        })
        .sum();
    let mut out = Circuit::with_capacity(circuit.n_qubits(), budget);
    for inst in circuit.instructions() {
        match inst.operands {
            Operands::One(q) => {
                out.push1(inst.gate, q).expect("validated by source circuit");
            }
            Operands::Two(a, b) => {
                if native.contains(inst.gate) {
                    out.push2(inst.gate, a, b).expect("validated by source circuit");
                } else {
                    lower(&mut out, inst.gate, a, b, strategy);
                }
            }
        }
    }
    debug_assert_eq!(out.len(), budget, "lowered_len disagrees with lower");
    out
}

/// How many instructions [`lower`] emits for a non-native two-qubit
/// `gate` under `strategy`; one arm per arm of `lower`.
fn lowered_len(gate: Gate, strategy: Strategy) -> usize {
    const CNOT_VIA_CZ: usize = 3;
    const CNOT_VIA_ISWAP: usize = 5;
    const CNOT_VIA_SQRT_ISWAP: usize = 10;
    const SWAP_VIA_CZ: usize = 3 * CNOT_VIA_CZ;
    const CZ_VIA_ISWAP: usize = 2 + CNOT_VIA_ISWAP;
    const SWAP_VIA_SQRT_ISWAP: usize = 11;
    // Two basis-changed ZZ interactions, each CNOT . Rz . CNOT.
    let sqrt_iswap_via_cnots = |cnot: usize| 8 + 2 * (2 * cnot + 1);
    match (gate, strategy) {
        (Gate::Cnot, Strategy::CzOnly | Strategy::Hybrid) => CNOT_VIA_CZ,
        (Gate::Cnot, Strategy::ISwapOnly) => CNOT_VIA_ISWAP,
        (Gate::Cnot, Strategy::SqrtISwapOnly) => CNOT_VIA_SQRT_ISWAP,
        (Gate::Swap, Strategy::CzOnly) => SWAP_VIA_CZ,
        (Gate::Swap, Strategy::ISwapOnly) => CZ_VIA_ISWAP + 3,
        (Gate::Swap, Strategy::SqrtISwapOnly | Strategy::Hybrid) => SWAP_VIA_SQRT_ISWAP,
        (Gate::Cz, Strategy::ISwapOnly) => CZ_VIA_ISWAP,
        (Gate::Cz, Strategy::SqrtISwapOnly) => 2 + CNOT_VIA_SQRT_ISWAP,
        (Gate::ISwap, Strategy::CzOnly) => 3 + SWAP_VIA_CZ,
        (Gate::ISwap, Strategy::SqrtISwapOnly) => 2,
        (Gate::SqrtISwap, Strategy::CzOnly) => sqrt_iswap_via_cnots(CNOT_VIA_CZ),
        (Gate::SqrtISwap, Strategy::ISwapOnly) => sqrt_iswap_via_cnots(CNOT_VIA_ISWAP),
        (g, s) => unreachable!("gate {g} requires no lowering under {s:?}"),
    }
}

fn lower(out: &mut Circuit, gate: Gate, a: usize, b: usize, strategy: Strategy) {
    match (gate, strategy) {
        (Gate::Cnot, Strategy::CzOnly | Strategy::Hybrid) => cnot_via_cz(out, a, b),
        (Gate::Cnot, Strategy::ISwapOnly) => cnot_via_iswap(out, a, b),
        (Gate::Cnot, Strategy::SqrtISwapOnly) => cnot_via_sqrt_iswap(out, a, b),
        (Gate::Swap, Strategy::CzOnly) => swap_via_cz(out, a, b),
        (Gate::Swap, Strategy::ISwapOnly) => swap_via_iswap(out, a, b),
        (Gate::Swap, Strategy::SqrtISwapOnly | Strategy::Hybrid) => {
            swap_via_sqrt_iswap(out, a, b)
        }
        (Gate::Cz, Strategy::ISwapOnly) => cz_via_iswap(out, a, b),
        (Gate::Cz, Strategy::SqrtISwapOnly) => cz_via_sqrt_iswap(out, a, b),
        (Gate::ISwap, Strategy::CzOnly) => {
            // iSWAP = SWAP . CZ . (Sdg (x) Sdg); SWAP via CZ.
            out.push1(Gate::Sdg, a).expect("valid");
            out.push1(Gate::Sdg, b).expect("valid");
            out.push2(Gate::Cz, a, b).expect("valid");
            swap_via_cz(out, a, b);
        }
        (Gate::ISwap, Strategy::SqrtISwapOnly) => {
            out.push2(Gate::SqrtISwap, a, b).expect("valid");
            out.push2(Gate::SqrtISwap, a, b).expect("valid");
        }
        (Gate::SqrtISwap, Strategy::CzOnly | Strategy::ISwapOnly) => {
            sqrt_iswap_via_cnots(out, a, b, strategy)
        }
        (g, s) => unreachable!("gate {g} requires no lowering under {s:?}"),
    }
}

/// `CNOT(c, t) = H(t) . CZ . H(t)` — Fig. 8(c).
fn cnot_via_cz(out: &mut Circuit, c: usize, t: usize) {
    out.push1(Gate::H, t).expect("valid");
    out.push2(Gate::Cz, c, t).expect("valid");
    out.push1(Gate::H, t).expect("valid");
}

/// `CNOT(c, t) = iSWAP . (H (x) I) . iSWAP . (S (x) Rx(-pi/2))` up to
/// global phase — Fig. 8(a). Execution order: locals first.
fn cnot_via_iswap(out: &mut Circuit, c: usize, t: usize) {
    out.push1(Gate::S, c).expect("valid");
    out.push1(Gate::Rx(-FRAC_PI_2), t).expect("valid");
    out.push2(Gate::ISwap, c, t).expect("valid");
    out.push1(Gate::H, c).expect("valid");
    out.push2(Gate::ISwap, c, t).expect("valid");
}

/// `CZ = (I (x) H) . CNOT . (I (x) H)`, with the CNOT lowered to iSWAPs.
fn cz_via_iswap(out: &mut Circuit, a: usize, b: usize) {
    out.push1(Gate::H, b).expect("valid");
    cnot_via_iswap(out, a, b);
    out.push1(Gate::H, b).expect("valid");
}

/// `CZ` via two `sqrt(iSWAP)`s (through the CNOT construction).
fn cz_via_sqrt_iswap(out: &mut Circuit, a: usize, b: usize) {
    out.push1(Gate::H, b).expect("valid");
    cnot_via_sqrt_iswap(out, a, b);
    out.push1(Gate::H, b).expect("valid");
}

/// `SWAP` as three `CNOT`s, each lowered via `CZ` — Fig. 8(d).
fn swap_via_cz(out: &mut Circuit, a: usize, b: usize) {
    cnot_via_cz(out, a, b);
    cnot_via_cz(out, b, a);
    cnot_via_cz(out, a, b);
}

/// `SWAP = iSWAP . (S (x) S) . CZ`, with the CZ lowered to iSWAPs
/// (three `iSWAP`s in total).
fn swap_via_iswap(out: &mut Circuit, a: usize, b: usize) {
    cz_via_iswap(out, a, b);
    out.push1(Gate::S, a).expect("valid");
    out.push1(Gate::S, b).expect("valid");
    out.push2(Gate::ISwap, a, b).expect("valid");
}

/// `SWAP` via three `sqrt(iSWAP)`s — Fig. 8(b).
///
/// `SWAP ~ exp(-i pi/4 (XX+YY+ZZ))` and `K = exp(-i pi/8 (XX+YY))`; the
/// three commuting factors are `K`, `P K P^dag` with `P = Rx(pi/2)^(x2)`
/// (maps `YY -> ZZ`), and `Q K Q^dag` with `Q = Ry(pi/2)^(x2)`
/// (maps `XX -> ZZ`).
fn swap_via_sqrt_iswap(out: &mut Circuit, a: usize, b: usize) {
    out.push2(Gate::SqrtISwap, a, b).expect("valid");
    out.push1(Gate::Rx(-FRAC_PI_2), a).expect("valid");
    out.push1(Gate::Rx(-FRAC_PI_2), b).expect("valid");
    out.push2(Gate::SqrtISwap, a, b).expect("valid");
    out.push1(Gate::Rx(FRAC_PI_2), a).expect("valid");
    out.push1(Gate::Rx(FRAC_PI_2), b).expect("valid");
    out.push1(Gate::Ry(-FRAC_PI_2), a).expect("valid");
    out.push1(Gate::Ry(-FRAC_PI_2), b).expect("valid");
    out.push2(Gate::SqrtISwap, a, b).expect("valid");
    out.push1(Gate::Ry(FRAC_PI_2), a).expect("valid");
    out.push1(Gate::Ry(FRAC_PI_2), b).expect("valid");
}

/// `exp(-i theta/2 Z(x)Z)` as `CNOT . Rz_t(theta) . CNOT` with the CNOTs
/// lowered per `strategy` (conjugation by CNOT maps `Z_t` to `Z_c Z_t`).
fn zz_interaction(out: &mut Circuit, c: usize, t: usize, theta: f64, strategy: Strategy) {
    let cnot = |out: &mut Circuit| match strategy {
        Strategy::ISwapOnly => cnot_via_iswap(out, c, t),
        _ => cnot_via_cz(out, c, t),
    };
    cnot(out);
    out.push1(Gate::Rz(theta), t).expect("valid");
    cnot(out);
}

/// `sqrt(iSWAP) = exp(-i pi/8 (XX + YY))` over CNOT-equivalent natives:
/// the commuting `XX` and `YY` factors are each a basis-changed
/// `ZZ`-interaction (`H` pair for `X`, `Rx(pi/2)` pair for `Y`).
fn sqrt_iswap_via_cnots(out: &mut Circuit, a: usize, b: usize, strategy: Strategy) {
    // exp(-i pi/8 XX) = (H(x)H) exp(-i pi/8 ZZ) (H(x)H).
    out.push1(Gate::H, a).expect("valid");
    out.push1(Gate::H, b).expect("valid");
    zz_interaction(out, a, b, std::f64::consts::FRAC_PI_4, strategy);
    out.push1(Gate::H, a).expect("valid");
    out.push1(Gate::H, b).expect("valid");
    // exp(-i pi/8 YY) = (Rx(pi/2)(x)Rx(pi/2)) exp(-i pi/8 ZZ) (Rx(-pi/2)(x)Rx(-pi/2)).
    out.push1(Gate::Rx(-FRAC_PI_2), a).expect("valid");
    out.push1(Gate::Rx(-FRAC_PI_2), b).expect("valid");
    zz_interaction(out, a, b, std::f64::consts::FRAC_PI_4, strategy);
    out.push1(Gate::Rx(FRAC_PI_2), a).expect("valid");
    out.push1(Gate::Rx(FRAC_PI_2), b).expect("valid");
}

/// `CNOT(c, t)` via two `sqrt(iSWAP)`s.
///
/// `K . (X (x) I) . K . (X (x) I) = exp(-i pi/4 XX)` (conjugating by
/// `X (x) I` flips `YY`), and `exp(-i pi/4 XX)` is `CNOT` up to the local
/// Cliffords applied below.
fn cnot_via_sqrt_iswap(out: &mut Circuit, c: usize, t: usize) {
    // Execution order; matrix product reads right-to-left:
    // CNOT ~ (Rz(pi/2) (x) Rx(pi/2)) . (HZ (x) I) . exp(-i pi/4 XX) . (ZH (x) I)
    out.push1(Gate::H, c).expect("valid");
    out.push1(Gate::Z, c).expect("valid");
    // exp(-i pi/4 XX) = K . (X (x) I) . K . (X (x) I): X first in time.
    out.push1(Gate::X, c).expect("valid");
    out.push2(Gate::SqrtISwap, c, t).expect("valid");
    out.push1(Gate::X, c).expect("valid");
    out.push2(Gate::SqrtISwap, c, t).expect("valid");
    out.push1(Gate::Z, c).expect("valid");
    out.push1(Gate::H, c).expect("valid");
    out.push1(Gate::Rz(FRAC_PI_2), c).expect("valid");
    out.push1(Gate::Rx(FRAC_PI_2), t).expect("valid");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unitary::{circuit_unitary, matrices_equal_up_to_phase};

    const TOL: f64 = 1e-9;

    fn assert_equivalent(program: &Circuit, strategy: Strategy) {
        let lowered = decompose(program, strategy);
        let native = strategy.native_set();
        for inst in lowered.instructions() {
            assert!(
                native.contains(inst.gate),
                "{strategy:?} output contains non-native {}",
                inst.gate
            );
        }
        assert!(
            matrices_equal_up_to_phase(
                &circuit_unitary(program),
                &circuit_unitary(&lowered),
                TOL
            ),
            "{strategy:?} lowering changed the unitary"
        );
    }

    fn single(gate: Gate, a: usize, b: usize) -> Circuit {
        let mut c = Circuit::new(2);
        c.push2(gate, a, b).expect("valid");
        c
    }

    #[test]
    fn cnot_via_cz_structure() {
        let lowered = decompose(&single(Gate::Cnot, 0, 1), Strategy::CzOnly);
        assert_eq!(lowered.gate_counts()["cz"], 1);
        assert_eq!(lowered.gate_counts()["h"], 2);
    }

    #[test]
    fn cnot_equivalence_all_strategies() {
        for (a, b) in [(0, 1), (1, 0)] {
            let c = single(Gate::Cnot, a, b);
            for s in [
                Strategy::CzOnly,
                Strategy::ISwapOnly,
                Strategy::SqrtISwapOnly,
                Strategy::Hybrid,
            ] {
                assert_equivalent(&c, s);
            }
        }
    }

    #[test]
    fn cnot_via_iswap_uses_two_iswaps() {
        let lowered = decompose(&single(Gate::Cnot, 0, 1), Strategy::ISwapOnly);
        assert_eq!(lowered.gate_counts()["iswap"], 2, "Fig. 8(a): two iSWAPs");
    }

    #[test]
    fn cnot_via_sqrt_iswap_uses_two() {
        let lowered = decompose(&single(Gate::Cnot, 0, 1), Strategy::SqrtISwapOnly);
        assert_eq!(lowered.gate_counts()["sqiswap"], 2);
    }

    #[test]
    fn swap_equivalence_all_strategies() {
        for (a, b) in [(0, 1), (1, 0)] {
            let c = single(Gate::Swap, a, b);
            for s in [
                Strategy::CzOnly,
                Strategy::ISwapOnly,
                Strategy::SqrtISwapOnly,
                Strategy::Hybrid,
            ] {
                assert_equivalent(&c, s);
            }
        }
    }

    #[test]
    fn lowered_len_counts_every_lowering() {
        let strategies =
            [Strategy::CzOnly, Strategy::ISwapOnly, Strategy::SqrtISwapOnly, Strategy::Hybrid];
        for s in strategies {
            for gate in [Gate::Cnot, Gate::Cz, Gate::Swap, Gate::ISwap, Gate::SqrtISwap] {
                if s.native_set().contains(gate) {
                    continue;
                }
                let mut out = Circuit::new(2);
                lower(&mut out, gate, 0, 1, s);
                assert_eq!(lowered_len(gate, s), out.len(), "{gate} under {s:?}");
            }
        }
    }

    #[test]
    fn swap_via_sqrt_iswap_uses_three() {
        let lowered = decompose(&single(Gate::Swap, 0, 1), Strategy::SqrtISwapOnly);
        assert_eq!(lowered.gate_counts()["sqiswap"], 3, "Fig. 8(b): three sqrt(iSWAP)s");
    }

    #[test]
    fn swap_via_iswap_uses_three() {
        let lowered = decompose(&single(Gate::Swap, 0, 1), Strategy::ISwapOnly);
        assert_eq!(lowered.gate_counts()["iswap"], 3);
    }

    #[test]
    fn swap_via_cz_uses_three() {
        let lowered = decompose(&single(Gate::Swap, 0, 1), Strategy::CzOnly);
        assert_eq!(lowered.gate_counts()["cz"], 3, "Fig. 8(d): three CZs");
    }

    #[test]
    fn hybrid_prefers_cz_for_cnot_and_sqrt_iswap_for_swap() {
        let mut c = Circuit::new(2);
        c.push2(Gate::Cnot, 0, 1).expect("valid");
        c.push2(Gate::Swap, 0, 1).expect("valid");
        let lowered = decompose(&c, Strategy::Hybrid);
        let counts = lowered.gate_counts();
        assert_eq!(counts["cz"], 1);
        assert_eq!(counts["sqiswap"], 3);
        assert!(!counts.contains_key("cnot"));
        assert!(!counts.contains_key("swap"));
        assert_equivalent(&c, Strategy::Hybrid);
    }

    #[test]
    fn cz_lowered_only_when_not_native() {
        let c = single(Gate::Cz, 0, 1);
        let kept = decompose(&c, Strategy::CzOnly);
        assert_eq!(kept.len(), 1);
        for s in [Strategy::ISwapOnly, Strategy::SqrtISwapOnly] {
            assert_equivalent(&c, s);
        }
    }

    #[test]
    fn iswap_lowered_under_cz_only() {
        let c = single(Gate::ISwap, 0, 1);
        assert_equivalent(&c, Strategy::CzOnly);
        let c = single(Gate::ISwap, 1, 0);
        assert_equivalent(&c, Strategy::SqrtISwapOnly);
    }

    #[test]
    fn sqrt_iswap_lowered_over_clifford_natives() {
        for (a, b) in [(0, 1), (1, 0)] {
            let c = single(Gate::SqrtISwap, a, b);
            assert_equivalent(&c, Strategy::CzOnly);
            assert_equivalent(&c, Strategy::ISwapOnly);
        }
    }

    #[test]
    fn single_qubit_gates_pass_through() {
        let mut c = Circuit::new(1);
        c.push1(Gate::T, 0).expect("valid");
        c.push1(Gate::Rx(0.3), 0).expect("valid");
        let lowered = decompose(&c, Strategy::Hybrid);
        assert_eq!(lowered.len(), 2);
    }

    #[test]
    fn composite_program_equivalence() {
        // A little entangler + swap network on 3 qubits.
        let mut c = Circuit::new(3);
        c.push1(Gate::H, 0).expect("valid");
        c.push2(Gate::Cnot, 0, 1).expect("valid");
        c.push2(Gate::Swap, 1, 2).expect("valid");
        c.push1(Gate::T, 2).expect("valid");
        c.push2(Gate::Cnot, 2, 0).expect("valid");
        for s in
            [Strategy::CzOnly, Strategy::ISwapOnly, Strategy::SqrtISwapOnly, Strategy::Hybrid]
        {
            let lowered = decompose(&c, s);
            assert!(
                matrices_equal_up_to_phase(
                    &circuit_unitary(&c),
                    &circuit_unitary(&lowered),
                    TOL
                ),
                "{s:?}"
            );
        }
    }

    #[test]
    fn peephole_after_decompose_preserves_semantics() {
        let mut c = Circuit::new(2);
        c.push2(Gate::Cnot, 0, 1).expect("valid");
        c.push2(Gate::Cnot, 0, 1).expect("valid"); // self-inverse pair
        let lowered = decompose(&c, Strategy::CzOnly);
        let cleaned = crate::optimize::peephole(&lowered);
        // H H between the two CZs cancels; then CZ CZ cancels; then the
        // outer H H cancel: everything disappears.
        assert!(cleaned.is_empty(), "got {} gates", cleaned.len());
    }
}
