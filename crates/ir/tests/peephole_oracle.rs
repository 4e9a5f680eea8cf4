//! Bit-identity of `optimize::peephole` against the plain fixed-point
//! loop it replaced: that loop ran passes until one changed nothing,
//! always rebuilt the per-pass `retain`, and reduced every rotation angle
//! with `rem_euclid`. The current pass stops after the first pass that
//! kills no slot and skips the reduction strictly inside the non-trivial
//! range; both must be invisible in the output, down to the bits of every
//! merged angle.

use fastsc_core::router::route;
use fastsc_device::Device;
use fastsc_ir::decompose::{decompose, Strategy as Lowering};
use fastsc_ir::optimize::peephole;
use fastsc_ir::{Circuit, Gate, Instruction, Operands};
use fastsc_workloads::{scale_tiers, Benchmark};
use proptest::prelude::*;
use std::f64::consts::{FRAC_PI_2, PI};

/// The fixed-point loop as it was before the early exit, kept verbatim
/// as the oracle.
mod reference {
    use fastsc_ir::{Circuit, Gate, Instruction};

    const ANGLE_TOL: f64 = 1e-12;
    const NO_INST: usize = usize::MAX;

    pub fn peephole(circuit: &Circuit) -> Circuit {
        let mut current: Vec<Instruction> = circuit.instructions().to_vec();
        let mut next: Vec<Instruction> = Vec::with_capacity(current.len());
        let mut last_on_qubit: Vec<usize> = vec![NO_INST; circuit.n_qubits()];
        loop {
            let changed = one_pass(&current, &mut next, &mut last_on_qubit);
            std::mem::swap(&mut current, &mut next);
            if !changed {
                break;
            }
        }
        let mut out = Circuit::new(circuit.n_qubits());
        for inst in current {
            out.push(inst).expect("instructions validated by the source circuit");
        }
        out
    }

    fn is_trivial(gate: Gate) -> bool {
        match gate {
            Gate::Id => true,
            Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) => {
                let reduced = t.rem_euclid(4.0 * std::f64::consts::PI);
                reduced.abs() < ANGLE_TOL
                    || (reduced - 4.0 * std::f64::consts::PI).abs() < ANGLE_TOL
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

    fn one_pass(
        insts: &[Instruction],
        out: &mut Vec<Instruction>,
        last_on_qubit: &mut [usize],
    ) -> bool {
        out.clear();
        last_on_qubit.fill(NO_INST);
        let mut changed = false;
        for &inst in insts {
            if is_trivial(inst.gate) {
                changed = true;
                continue;
            }
            let candidate = last_on_qubit[inst.operands.first()];
            let partner = (candidate != NO_INST
                && inst.operands.into_iter().all(|q| last_on_qubit[q] == candidate)
                && out[candidate].operands == inst.operands)
                .then_some(candidate);
            if let Some(idx) = partner {
                let prev = out[idx];
                if prev.gate.is_inverse_of(inst.gate) {
                    out[idx] = Instruction { gate: Gate::Id, operands: prev.operands };
                    for q in inst.operands {
                        last_on_qubit[q] = NO_INST;
                    }
                    changed = true;
                    continue;
                }
                if let Some(merged) = merge(prev.gate, inst.gate) {
                    if is_trivial(merged) {
                        out[idx] = Instruction { gate: Gate::Id, operands: prev.operands };
                        for q in inst.operands {
                            last_on_qubit[q] = NO_INST;
                        }
                    } else {
                        out[idx] = Instruction { gate: merged, operands: prev.operands };
                    }
                    changed = true;
                    continue;
                }
            }
            let idx = out.len();
            out.push(inst);
            for q in inst.operands {
                last_on_qubit[q] = idx;
            }
        }
        out.retain(|i| !is_trivial(i.gate));
        changed
    }
}

/// An instruction as exact bits: gate tag, angle bits (`to_bits`, 0 for
/// fixed gates) and operands.
fn bits(inst: &Instruction) -> (u8, u64, Operands) {
    let angle = match inst.gate {
        Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) => t.to_bits(),
        _ => 0,
    };
    (inst.gate.stable_code().0, angle, inst.operands)
}

fn assert_matches_reference(circuit: &Circuit, what: &str) {
    let got = peephole(circuit);
    let want = reference::peephole(circuit);
    assert_eq!(got.n_qubits(), want.n_qubits(), "{what}: qubit count");
    let got: Vec<_> = got.instructions().iter().map(bits).collect();
    let want: Vec<_> = want.instructions().iter().map(bits).collect();
    assert_eq!(got, want, "{what}: peephole output differs from the fixed-point loop");
}

/// Angles that sit on or next to the trivial set (multiples of 4 pi, the
/// tolerance band) and on the half-turn grid decompositions emit; index
/// `ANGLES.len()` draws the random angle instead.
const ANGLES: [f64; 15] = [
    0.0,
    FRAC_PI_2,
    -FRAC_PI_2,
    PI,
    -PI,
    2.0 * PI,
    -2.0 * PI,
    4.0 * PI,
    -4.0 * PI,
    1e-13,
    -1e-13,
    1e-12,
    4.0 * PI - 1e-12,
    4.0 * PI - 1e-13,
    -0.0,
];

const QUBITS: usize = 3;

/// One alphabet draw: `(kind, a, b, angle index, random angle)`.
type Raw = (u8, usize, usize, usize, f64);

fn arb_raw() -> impl Strategy<Value = Raw> {
    (0u8..17, 0..QUBITS, 0..QUBITS, 0..ANGLES.len() + 1, -20.0f64..20.0)
}

/// Builds a rotation-heavy circuit. Kinds 0-5 are rotations (two draws
/// per axis); 6-9 are fixed single-qubit gates; 10-11 two-qubit gates;
/// 12-16 emit a pair: H H, S Sdg, CZ CZ and CNOT CNOT cancel; CNOT then
/// CNOT on swapped operands must *not* cancel. With `mirror`, the
/// circuit is followed by its inverse in reverse order, so whole runs
/// collapse through cascading cancellations.
fn build(raw: &[Raw], mirror: bool) -> Circuit {
    let mut gates: Vec<(Gate, Operands)> = Vec::new();
    for &(kind, a, b, angle_index, random) in raw {
        let angle = ANGLES.get(angle_index).copied().unwrap_or(random);
        let two = |g: Gate| (a != b).then_some((g, Operands::Two(a, b)));
        let one = |g: Gate| Some((g, Operands::One(a)));
        let (first, second) = match kind {
            0 | 1 => (one(Gate::Rx(angle)), None),
            2 | 3 => (one(Gate::Ry(angle)), None),
            4 | 5 => (one(Gate::Rz(angle)), None),
            6 => (one(Gate::T), None),
            7 => (one(Gate::Tdg), None),
            8 => (one(Gate::X), None),
            9 => (one(Gate::Sdg), None),
            10 => (two(Gate::Cz), None),
            11 => (two(Gate::Cnot), None),
            12 => (one(Gate::H), one(Gate::H)),
            13 => (one(Gate::S), one(Gate::Sdg)),
            14 => (two(Gate::Cz), two(Gate::Cz)),
            15 => (two(Gate::Cnot), two(Gate::Cnot)),
            _ => (two(Gate::Cnot), (a != b).then_some((Gate::Cnot, Operands::Two(b, a)))),
        };
        gates.extend(first);
        gates.extend(second);
    }
    if mirror {
        let inverse: Vec<_> = gates
            .iter()
            .rev()
            .map(|&(g, ops)| {
                let inv = match g {
                    Gate::Rx(t) => Gate::Rx(-t),
                    Gate::Ry(t) => Gate::Ry(-t),
                    Gate::Rz(t) => Gate::Rz(-t),
                    Gate::S => Gate::Sdg,
                    Gate::Sdg => Gate::S,
                    Gate::T => Gate::Tdg,
                    Gate::Tdg => Gate::T,
                    g => g,
                };
                (inv, ops)
            })
            .collect();
        gates.extend(inverse);
    }
    let mut c = Circuit::new(QUBITS);
    for (gate, operands) in gates {
        c.push(Instruction { gate, operands }).expect("valid operands");
    }
    c
}

const LOWERINGS: [Lowering; 4] =
    [Lowering::CzOnly, Lowering::ISwapOnly, Lowering::SqrtISwapOnly, Lowering::Hybrid];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn peephole_is_bit_identical_to_the_fixed_point_loop(
        raw in proptest::collection::vec(arb_raw(), 0..40),
        mirror in 0u8..2,
    ) {
        let c = build(&raw, mirror == 1);
        assert_matches_reference(&c, "raw");
        for s in LOWERINGS {
            assert_matches_reference(&decompose(&c, s), &format!("lowered {s:?}"));
        }
    }
}

#[test]
fn mirrored_circuits_exercise_cascades() {
    // The proptest alphabet must actually reach multi-pass inputs: a
    // mirrored run of fixed gates collapses entirely, one layer per pass.
    // T X Sdg T X Sdg has no adjacent inverse pair of its own.
    let raw: Vec<Raw> = (0..6).map(|k| ([6, 8, 9][k % 3], 0, 1, 0, 0.0)).collect();
    let c = build(&raw, true);
    assert_eq!(c.len(), 12);
    assert!(peephole(&c).is_empty());
    assert_matches_reference(&c, "mirrored fixed gates");
}

/// Routes `program` onto a square grid and lowers it, as a compile does.
fn front_end(program: &Circuit, side: usize, seed: u64, lowering: Lowering) -> Circuit {
    let device = Device::grid(side, side, seed);
    let routed = route(program, &device).expect("routable");
    decompose(&routed.circuit, lowering)
}

#[test]
fn fig9_suite_matches_under_every_lowering() {
    for benchmark in Benchmark::fig9_suite() {
        let program = benchmark.build(2020);
        let side = (benchmark.n_qubits() as f64).sqrt().ceil() as usize;
        for s in LOWERINGS {
            let lowered = front_end(&program, side, 2020, s);
            assert_matches_reference(&lowered, &format!("{benchmark} under {s:?}"));
        }
    }
}

#[test]
fn scale_tiers_match() {
    for tier in scale_tiers() {
        let lowered = front_end(&tier.circuit(), tier.side, tier.seed, Lowering::Hybrid);
        assert_matches_reference(&lowered, &tier.label());
    }
}
