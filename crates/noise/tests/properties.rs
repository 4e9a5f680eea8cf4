//! Property-based tests for the noise models and the success estimator.

use fastsc_device::Device;
use fastsc_ir::{Gate, Instruction, Operands};
use fastsc_noise::{
    coupling, decoherence, estimate, Cycle, NoiseConfig, Schedule, ScheduledGate,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn residual_coupling_bounded_and_monotone(
        g0 in 0.0f64..0.05,
        d1 in 0.0f64..2.0,
        d2 in 0.0f64..2.0,
    ) {
        let r1 = coupling::residual_coupling(g0, d1);
        let r2 = coupling::residual_coupling(g0, d2);
        prop_assert!(r1 <= g0 + 1e-15, "never exceeds bare coupling");
        if d1 <= d2 {
            prop_assert!(r1 >= r2 - 1e-15, "monotone decreasing in detuning");
        }
    }

    #[test]
    fn crosstalk_error_is_probability(
        g0 in 0.0f64..0.05,
        delta in 0.0f64..2.0,
        t in 0.0f64..10_000.0,
    ) {
        let e = coupling::crosstalk_error(g0, delta, t);
        prop_assert!((0.0..=1.0).contains(&e));
        // Bounded by the Rabi amplitude.
        if delta > 0.0 && g0 > 0.0 {
            let amplitude = g0 * g0 / (g0 * g0 + 0.25 * delta * delta);
            prop_assert!(e <= amplitude + 1e-12);
        }
    }

    #[test]
    fn decoherence_error_valid_and_monotone(
        t1 in 0.5f64..100.0,
        t2 in 0.5f64..100.0,
        ta in 0.0f64..100_000.0,
        tb in 0.0f64..100_000.0,
    ) {
        let ea = decoherence::error(t1, t2, ta);
        let eb = decoherence::error(t1, t2, tb);
        prop_assert!((0.0..=1.0).contains(&ea));
        if ta <= tb {
            prop_assert!(ea <= eb + 1e-12);
        }
    }

    #[test]
    fn pair_channel_errors_are_probabilities(
        g0 in 0.0f64..0.05,
        wa in 4.0f64..7.5,
        wb in 4.0f64..7.5,
        t in 0.0f64..1_000.0,
    ) {
        let ch = coupling::pair_channels(g0, wa, wb, -0.2, -0.2, t);
        for e in [ch.exchange, ch.leakage_a, ch.leakage_b, ch.combined()] {
            prop_assert!((0.0..=1.0).contains(&e), "e = {}", e);
        }
        prop_assert!(ch.combined() >= ch.max() - 1e-12);
    }

    #[test]
    fn estimator_output_always_valid(
        seed in 0u64..50,
        freqs in proptest::collection::vec(4.5f64..7.0, 4),
        duration in 1.0f64..500.0,
        cycles in 1usize..12,
    ) {
        let device = Device::grid(2, 2, seed);
        let mut s = Schedule::new(4);
        for _ in 0..cycles {
            s.push_cycle(Cycle {
                gates: vec![],
                frequencies: freqs.clone().into(),
                active_couplings: vec![],
                duration_ns: duration,
            });
        }
        let r = estimate(&device, &s, &NoiseConfig::default());
        prop_assert!((0.0..=1.0).contains(&r.p_success));
        prop_assert!((0.0..=1.0).contains(&r.crosstalk_survival));
        prop_assert!((0.0..=1.0).contains(&r.decoherence_survival));
        prop_assert!(r.duration_ns > 0.0);
    }

    #[test]
    fn more_cycles_never_help(
        seed in 0u64..20,
        extra in 1usize..6,
    ) {
        // Appending idle cycles can only lower (or keep) the success.
        let device = Device::grid(2, 2, seed);
        let cycle = Cycle {
            gates: vec![ScheduledGate {
                instruction: Instruction { gate: Gate::Cz, operands: Operands::Two(0, 1) },
                interaction_freq: Some(6.5),
            }],
            frequencies: vec![6.5, 6.5, 5.5, 4.5].into(),
            active_couplings: vec![],
            duration_ns: 70.0,
        };
        let mut short = Schedule::new(4);
        short.push_cycle(cycle.clone());
        let mut long = Schedule::new(4);
        long.push_cycle(cycle.clone());
        for _ in 0..extra {
            long.push_cycle(cycle.clone());
        }
        let cfg = NoiseConfig::default();
        let ps = estimate(&device, &short, &cfg).p_success;
        let pl = estimate(&device, &long, &cfg).p_success;
        prop_assert!(pl <= ps + 1e-12, "short {} vs long {}", ps, pl);
    }

    #[test]
    fn an_idle_pair_is_charged_exactly_its_three_channels(
        seed in 0u64..20,
        fa in 4.5f64..5.5,
        fb in 4.5f64..5.5,
    ) {
        // One idle cycle on a fixed-coupler pair is one episode: the
        // estimate charges exchange and both sidebands, nothing else.
        let device = Device::linear(2, seed);
        let mut s = Schedule::new(2);
        s.push_cycle(Cycle {
            gates: vec![],
            frequencies: vec![fa, fb].into(),
            active_couplings: vec![],
            duration_ns: 200.0,
        });
        let r = estimate(&device, &s, &NoiseConfig::default());
        let g0 = device.params().coupling_at(fa.max(fb));
        let (alpha_a, alpha_b) = (device.qubit(0).anharmonicity, device.qubit(1).anharmonicity);
        let ch = coupling::pair_channels(g0, fa, fb, alpha_a, alpha_b, 200.0);
        let expect = (1.0 - ch.exchange) * (1.0 - ch.leakage_a) * (1.0 - ch.leakage_b);
        prop_assert_eq!(r.crosstalk_survival.to_bits(), expect.to_bits());
    }
}
