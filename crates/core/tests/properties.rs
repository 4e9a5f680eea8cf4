//! Property-based tests for the compiler: every strategy must produce
//! schedules that preserve the lowered program, respect device coupling,
//! keep frequencies inside the partition, and honor its own serialization
//! contract.

use fastsc_core::router::route;
use fastsc_core::{Compiler, CompilerConfig, Strategy as Plan};
use fastsc_device::{CouplerKind, Device};
use fastsc_ir::decompose::{decompose, Strategy as Lowering};
use fastsc_ir::optimize::peephole;
use fastsc_ir::{Circuit, Gate, Instruction};
use fastsc_noise::{error_budget, estimate, NoiseConfig};
use fastsc_workloads::Benchmark;
use proptest::prelude::*;

/// Each qubit's instructions, in order.
fn qubit_streams(n: usize, instructions: &[Instruction]) -> Vec<Vec<Instruction>> {
    let mut streams = vec![Vec::new(); n];
    for inst in instructions {
        for q in inst.operands {
            streams[q].push(*inst);
        }
    }
    streams
}

/// A random program over `n` qubits using the benchmark-level gate set.
fn arb_program(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    proptest::collection::vec((0u8..6, 0..n, 0..n, -3.0f64..3.0), 0..max_len).prop_map(
        move |raw| {
            let mut c = Circuit::new(n);
            for (kind, a, b, angle) in raw {
                match kind {
                    0 => drop(c.push1(Gate::H, a).expect("valid")),
                    1 => drop(c.push1(Gate::Rz(angle), a).expect("valid")),
                    2 => drop(c.push1(Gate::Rx(angle), a).expect("valid")),
                    k => {
                        if a != b {
                            let gate = match k {
                                3 => Gate::Cnot,
                                4 => Gate::Cz,
                                _ => Gate::ISwap,
                            };
                            c.push2(gate, a, b).expect("valid");
                        }
                    }
                }
            }
            c
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_strategy_produces_sound_schedules(
        program in arb_program(9, 24),
        seed in 0u64..100,
    ) {
        let device = Device::grid(3, 3, seed);
        let compiler = Compiler::new(device, CompilerConfig::default());
        for strategy in Plan::all() {
            let compiled = compiler.compile(&program, strategy).expect("compiles");
            // Gate conservation: lowered count equals scheduled count.
            prop_assert_eq!(
                compiled.schedule.gate_count(),
                compiled.stats.lowered_gate_count
            );
            // Coupling validity + frequency sanity checked per cycle.
            let partition = compiler.device().partition();
            for cycle in compiled.schedule.cycles() {
                prop_assert!(cycle.duration_ns >= 0.0);
                for g in &cycle.gates {
                    if let Some((a, b)) = g.instruction.qubit_pair() {
                        prop_assert!(compiler.device().are_coupled(a, b));
                        let f = g.interaction_freq.expect("2q gates carry a frequency");
                        prop_assert!(
                            partition.interaction.contains(f),
                            "{} GHz outside interaction band", f
                        );
                        prop_assert!((cycle.frequencies[a] - f).abs() < 1e-12);
                        prop_assert!((cycle.frequencies[b] - f).abs() < 1e-12);
                    }
                }
                // Idle qubits parked inside the parking band.
                for q in 0..compiled.schedule.n_qubits() {
                    if !cycle.is_qubit_busy(q) {
                        prop_assert!(
                            partition.parking.contains(cycle.frequencies[q]),
                            "idle qubit {} at {}", q, cycle.frequencies[q]
                        );
                    }
                }
            }
            // The estimator accepts the schedule and yields a probability.
            let report = estimate(compiler.device(), &compiled.schedule, &NoiseConfig::default());
            prop_assert!((0.0..=1.0).contains(&report.p_success));
        }
    }

    #[test]
    fn every_qubit_keeps_its_lowered_gate_stream(
        program in arb_program(16, 32),
    ) {
        // Reading the schedule cycle by cycle must give each physical
        // qubit exactly its gate stream in the routed, lowered program:
        // scheduling may interleave qubits but never reorder, drop or
        // duplicate a gate on one. Whole-device and partitioned, under
        // every lowering, with consecutive compiles alternating device
        // widths: the per-thread front-end and engine workspaces must
        // carry nothing from one compile into the next. The front end
        // must also hand the engine exactly what the standalone `route`,
        // `decompose` and `peephole` return.
        let lowerings =
            [Lowering::Hybrid, Lowering::CzOnly, Lowering::ISwapOnly, Lowering::SqrtISwapOnly];
        let devices = [Device::grid(4, 4, 5), Device::grid(5, 6, 5), Device::grid(4, 5, 5)];
        for decomposition in lowerings {
            for partition in [None, Some(8)] {
                for device in &devices {
                    let config = match partition {
                        None => CompilerConfig::default(),
                        Some(cap) => CompilerConfig::with_partition(cap),
                    };
                    let config = CompilerConfig { decomposition, ..config };
                    let compiler = Compiler::new(device.clone(), config);
                    let routed = route(&program, device).expect("routable");
                    let lowered = peephole(&decompose(&routed.circuit, decomposition));
                    let (streamed, swaps) = compiler
                        .front_end(&program, |c, swaps| (c.clone(), swaps))
                        .expect("routable");
                    prop_assert!(
                        streamed == lowered && swaps == routed.swaps_inserted,
                        "front end diverged from route + decompose + peephole ({:?})",
                        decomposition
                    );
                    let n = device.n_qubits();
                    let expected = qubit_streams(n, lowered.instructions());
                    for strategy in Plan::all() {
                        let compiled = compiler.compile(&program, strategy).expect("compiles");
                        let scheduled: Vec<Instruction> = compiled
                            .schedule
                            .cycles()
                            .iter()
                            .flat_map(|c| c.gates.iter().map(|g| g.instruction))
                            .collect();
                        prop_assert!(
                            qubit_streams(n, &scheduled) == expected,
                            "strategy {} ({} qubits, {:?}, partition {:?}) changed a \
                             qubit's gate stream",
                            strategy, n, decomposition, partition
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn colordynamic_color_budget_is_hard(
        program in arb_program(9, 30),
        budget in 1usize..4,
    ) {
        let device = Device::grid(3, 3, 2);
        let compiler = Compiler::new(device, CompilerConfig::with_max_colors(budget));
        let compiled = compiler
            .compile(&program, Plan::ColorDynamic)
            .expect("compiles");
        prop_assert!(compiled.stats.max_colors_used <= budget);
        // Per cycle, the number of distinct interaction frequencies never
        // exceeds the budget.
        for cycle in compiled.schedule.cycles() {
            let mut freqs: Vec<f64> = cycle
                .gates
                .iter()
                .filter_map(|g| g.interaction_freq)
                .collect();
            freqs.sort_by(f64::total_cmp);
            freqs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
            prop_assert!(freqs.len() <= budget, "{} freqs > budget {}", freqs.len(), budget);
        }
    }

    #[test]
    fn baseline_u_never_parallelizes_conflicts(
        program in arb_program(9, 30),
    ) {
        let device = Device::grid(3, 3, 9);
        let compiler = Compiler::new(device, CompilerConfig::default());
        let compiled = compiler.compile(&program, Plan::BaselineU).expect("compiles");
        let xtalk = compiler.device().crosstalk_graph(1);
        for cycle in compiled.schedule.cycles() {
            let couplings: Vec<usize> = cycle
                .gates
                .iter()
                .filter_map(|g| g.instruction.qubit_pair())
                .map(|(a, b)| xtalk.coupling_between(a, b).expect("coupled"))
                .collect();
            for (i, &c1) in couplings.iter().enumerate() {
                for &c2 in &couplings[i + 1..] {
                    prop_assert!(!xtalk.graph().has_edge(c1, c2));
                }
            }
        }
    }

    #[test]
    fn the_error_budget_never_undercounts_the_estimated_crosstalk(
        bench in 0..Benchmark::fig9_suite().len(),
        // Half the cases at seed 2020, where the budget once fell below.
        seed in (any::<bool>(), 0u64..10_000).prop_map(|(pin, s)| if pin { 2020 } else { s }),
    ) {
        // The budget attributes each episode the estimator charges, so its
        // union-bound sum is at least the product-form crosstalk error —
        // on every strategy's schedules of the Fig. 9 programs and grids.
        // Both come from one walk, so the shared factors agree bitwise.
        let bench = Benchmark::fig9_suite()[bench];
        let side = ((bench.n_qubits() as f64).sqrt().ceil() as usize).max(2);
        let program = bench.build(seed);
        for strategy in Plan::all() {
            let grid = Device::grid(side, side, seed);
            let device = if strategy == Plan::BaselineG {
                grid.with_coupler(CouplerKind::tunable(0.0))
            } else {
                grid
            };
            let compiler = Compiler::new(device, CompilerConfig::default());
            let compiled = compiler.compile(&program, strategy).expect("compiles");
            let device = compiler.device();
            let budget = error_budget(device, &compiled.schedule);
            let report = estimate(device, &compiled.schedule, &NoiseConfig::default());
            let sum = budget.crosstalk_sum();
            prop_assert!(
                sum >= report.crosstalk_error() - 1e-12,
                "{} {}: budget {} < estimated {}", bench, strategy, sum, report.crosstalk_error()
            );
            prop_assert_eq!(budget.gate_error.to_bits(), (1.0 - report.gate_survival).to_bits());
            let survival = budget.decoherence.iter().fold(1.0, |s, e| s * (1.0 - e));
            prop_assert_eq!(survival.to_bits(), report.decoherence_survival.to_bits());
            // The budget drops contributions at or below 1e-9.
            if report.max_channel_error > 1e-9 {
                let largest = budget.top_crosstalk(1)[0].error;
                prop_assert_eq!(largest.to_bits(), report.max_channel_error.to_bits());
            }
        }
    }

    #[test]
    fn crosstalk_distance_two_is_more_conservative(
        program in arb_program(9, 24),
    ) {
        let device = Device::grid(3, 3, 4);
        let d1 = Compiler::new(device.clone(), CompilerConfig::default());
        let d2 = Compiler::new(
            device,
            CompilerConfig { crosstalk_distance: 2, ..CompilerConfig::default() },
        );
        let s1 = d1.compile(&program, Plan::BaselineU).expect("compiles");
        let s2 = d2.compile(&program, Plan::BaselineU).expect("compiles");
        // A denser crosstalk graph can only force more serialization.
        prop_assert!(s2.schedule.depth() >= s1.schedule.depth());
    }

    #[test]
    fn structural_hash_equality_implies_identical_schedules(
        a in arb_program(9, 10),
        b in arb_program(9, 10),
        resubmit in proptest::prelude::any::<bool>(),
    ) {
        // The whole-schedule result cache treats equal program hashes as
        // "same program". Half the cases resubmit `a` verbatim (the hot
        // path a cache serves); the other half pits two independently
        // generated programs against each other, where a hash collision
        // would silently serve the wrong schedule.
        let b = if resubmit { a.clone() } else { b };
        if a.structural_hash() != b.structural_hash() {
            prop_assert_ne!(&a, &b);
            return Ok(());
        }
        prop_assert_eq!(&a, &b, "distinct circuits collided on the structural hash");
        let compiler = Compiler::new(Device::grid(3, 3, 5), CompilerConfig::default());
        for strategy in Plan::all() {
            let ca = compiler.compile(&a, strategy).expect("compiles");
            let cb = compiler.compile(&b, strategy).expect("compiles");
            prop_assert_eq!(
                ca.schedule,
                cb.schedule,
                "{} schedules diverged for hash-equal programs",
                strategy
            );
        }
    }
}
