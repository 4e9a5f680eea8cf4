//! The worst-case program-success estimator (paper Eq. 4, §VI-C) and the
//! one episode walk it and the error budget share.

use crate::coupling::{self, ChannelErrors};
use crate::decoherence::{self, flux_adjusted_t2};
use crate::frequencies::FrequencyScratch;
use crate::schedule::Schedule;
use fastsc_device::Device;

/// The estimate's one optional channel.
///
/// The model itself is fixed: the exchange and both sideband (leakage)
/// channels of every coupling, the paper's product decoherence error,
/// and `T2` degraded away from flux sweet spots (off on a device whose
/// `flux_noise_slope` is 0).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NoiseConfig {
    /// Include next-neighbor (distance-2) residual channels, using
    /// `DeviceParams::distance2_coupling_factor`.
    pub include_distance2: bool,
}

/// The estimator's output: the Eq. 4 product and its factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuccessReport {
    /// Worst-case program success rate (Eq. 4).
    pub p_success: f64,
    /// `prod (1 - eps)` over intended gates' base errors.
    pub gate_survival: f64,
    /// `prod (1 - eps)` over unwanted crosstalk channels.
    pub crosstalk_survival: f64,
    /// `prod (1 - eps_q)` over qubit decoherence.
    pub decoherence_survival: f64,
    /// Schedule depth in cycles.
    pub depth: usize,
    /// Total schedule duration, ns.
    pub duration_ns: f64,
    /// Largest single crosstalk-channel error encountered.
    pub max_channel_error: f64,
    /// Number of crosstalk channels evaluated.
    pub channels_evaluated: usize,
}

impl SuccessReport {
    /// Total crosstalk error `1 - crosstalk_survival`.
    pub fn crosstalk_error(&self) -> f64 {
        1.0 - self.crosstalk_survival
    }

    /// Total decoherence error `1 - decoherence_survival`.
    pub fn decoherence_error(&self) -> f64 {
        1.0 - self.decoherence_survival
    }
}

/// A contiguous stretch of cycles over which one coupling's channel
/// configuration (endpoint frequencies + coupler attenuation) is constant
/// and undisturbed.
///
/// A detuned exchange at constant configuration evolves coherently: its
/// worst-case transfer is the Rabi amplitude *once per episode*, not once
/// per cycle. Episodes end when an endpoint is retuned (frequencies
/// change), executes any gate (drive/flux activity scrambles the channel
/// phase — charged conservatively as a fresh worst case afterwards), or
/// the coupling performs its own gate.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Episode {
    active: bool,
    pub(crate) wu: f64,
    pub(crate) wv: f64,
    /// Fully attenuated effective coupling for this episode, GHz.
    g0: f64,
    t_ns: f64,
}

/// One closed episode, as [`walk`] charges it.
pub(crate) struct Charge {
    /// The pair `(min, max)`: a coupling, or a distance-2 pair.
    pub(crate) pair: (usize, usize),
    /// The cycle in which the episode closed.
    pub(crate) cycle: usize,
    pub(crate) episode: Episode,
    /// The pair's anharmonicities.
    pub(crate) alpha: (f64, f64),
    pub(crate) channels: ChannelErrors,
}

/// What [`walk`] returns besides its charges.
pub(crate) struct Walk {
    /// `prod (1 - eps)` over intended gates' base errors.
    pub(crate) gate_survival: f64,
    /// Per qubit, the accumulated decay exponents `(t/T1, t/T2_eff)`.
    pub(crate) exponents: Vec<(f64, f64)>,
}

/// Walks `schedule` on `device` cycle by cycle and charges every closed
/// episode to `sink`, in a fixed order: per cycle, the couplings in
/// device order, then the distance-2 pairs (when `config` includes them).
///
/// Every pair not executing its own gate opens episodes; a coupling's is
/// scaled by its coupler's inactive factor on gmon hardware, a distance-2
/// pair's by that factor squared (one per hop of the mediated coupling,
/// the leakage path behind the paper's Fig. 12 sensitivity study).
///
/// # Panics
///
/// Panics if `schedule.n_qubits() != device.n_qubits()` or if a scheduled
/// two-qubit gate sits on a pair of qubits that are not coupled on the
/// device (a routing bug in the producing compiler).
pub(crate) fn walk(
    device: &Device,
    schedule: &Schedule,
    config: &NoiseConfig,
    mut sink: impl FnMut(Charge),
) -> Walk {
    assert_eq!(
        schedule.n_qubits(),
        device.n_qubits(),
        "schedule and device disagree on qubit count"
    );
    let params = *device.params();
    let coupler = device.coupler();
    let n = device.n_qubits();

    let mut pairs: Vec<(usize, usize)> =
        device.connectivity().edges().map(|(_, e)| e).collect();
    let n_edges = pairs.len();
    if config.include_distance2 && params.distance2_coupling_factor > 0.0 {
        for u in 0..n {
            let dist = device.connectivity().bfs_distances(u);
            pairs.extend((u + 1..n).filter(|&v| dist[v] == Some(2)).map(|v| (u, v)));
        }
    }
    let d2_factor = if coupler.is_tunable() { coupler.inactive_factor().powi(2) } else { 1.0 }
        * params.distance2_coupling_factor;

    let mut close = |ep: &mut Episode, (u, v): (usize, usize), cycle: usize| {
        if !ep.active {
            return;
        }
        let alpha = (device.qubit(u).anharmonicity, device.qubit(v).anharmonicity);
        let channels = coupling::pair_channels(ep.g0, ep.wu, ep.wv, alpha.0, alpha.1, ep.t_ns);
        sink(Charge { pair: (u, v), cycle, episode: *ep, alpha, channels });
        ep.active = false;
    };

    let mut gate_survival = 1.0f64;
    let mut episodes = vec![Episode::default(); pairs.len()];
    let mut exponents = vec![(0.0f64, 0.0f64); n];
    let mut scratch = FrequencyScratch::new();
    for (c, cycle) in schedule.cycles().iter().enumerate() {
        let t = cycle.duration_ns;
        let freqs = scratch.dense(&cycle.frequencies);

        // Intended-gate base errors. A two-qubit gate must sit on a
        // coupling: one adjacency probe per gate, next to the walk over
        // every coupling below.
        for g in &cycle.gates {
            let eps = match g.instruction.qubit_pair() {
                Some((a, b)) => {
                    assert!(
                        device.are_coupled(a, b),
                        "two-qubit gate on uncoupled qubits ({a}, {b})"
                    );
                    params.base_two_qubit_error
                }
                None => params.base_single_qubit_error,
            };
            gate_survival *= 1.0 - eps;
        }

        let busy = cycle.busy_couplings();
        for (idx, (ep, &(u, v))) in episodes.iter_mut().zip(&pairs).enumerate() {
            if busy.contains(&(u, v)) {
                // Own gate: close the open episode; the gate's cycle
                // charges no crosstalk channel of its own.
                close(ep, (u, v), c);
                continue;
            }
            let factor = if idx >= n_edges {
                d2_factor
            } else if coupler.is_tunable() && !cycle.active_couplings.contains(&(u, v)) {
                coupler.inactive_factor()
            } else {
                1.0
            };
            let (wu, wv) = (freqs[u], freqs[v]);
            let g0 = factor * params.coupling_at(wu.max(wv));
            let same_config = ep.active
                && (ep.wu - wu).abs() < 1e-12
                && (ep.wv - wv).abs() < 1e-12
                && (ep.g0 - g0).abs() < 1e-15;
            if !same_config {
                close(ep, (u, v), c);
                *ep = Episode { active: g0 > 0.0, wu, wv, g0, t_ns: 0.0 };
            }
            if ep.active {
                ep.t_ns += t;
            }
            // Drive or flux activity on an endpoint scrambles the channel
            // phase: charge this episode now and restart.
            if cycle.is_qubit_busy(u) || cycle.is_qubit_busy(v) {
                close(ep, (u, v), c);
            }
        }

        // Decoherence exponents with per-cycle flux-noise adjustment.
        for (q, (x1, x2)) in exponents.iter_mut().enumerate() {
            let spec = device.qubit(q);
            let dist = spec.sweet_spot_distance(freqs[q]);
            let t2 = flux_adjusted_t2(spec.t2_us, dist, params.flux_noise_slope);
            let t_us = t * 1e-3;
            *x1 += t_us / spec.t1_us;
            *x2 += t_us / t2;
        }
    }

    // Close every episode still open at program end.
    let last = schedule.depth().saturating_sub(1);
    for (ep, &pair) in episodes.iter_mut().zip(&pairs) {
        close(ep, pair, last);
    }
    Walk { gate_survival, exponents }
}

/// Estimates the worst-case success rate of `schedule` on `device`.
///
/// Every physical coupling not executing its own gate contributes the
/// Eq. 5/6 channel errors once per *episode* of constant, undisturbed
/// configuration (scaled by the coupler's inactive factor on gmon
/// hardware); intended gates contribute their base calibration error;
/// qubits accumulate decoherence exponents with flux-noise-adjusted `T2`.
/// See the crate docs for the exact formula.
///
/// # Panics
///
/// Panics if `schedule.n_qubits() != device.n_qubits()` or if a scheduled
/// two-qubit gate sits on a pair of qubits that are not coupled on the
/// device (a routing bug in the producing compiler).
pub fn estimate(device: &Device, schedule: &Schedule, config: &NoiseConfig) -> SuccessReport {
    let (mut crosstalk_survival, mut max_channel_error, mut episodes) = (1.0f64, 0.0f64, 0);
    let walk = walk(device, schedule, config, |charge| {
        let ch = charge.channels;
        for eps in [ch.exchange, ch.leakage_a, ch.leakage_b] {
            crosstalk_survival *= 1.0 - eps;
            max_channel_error = max_channel_error.max(eps);
        }
        episodes += 1;
    });
    let decoherence_survival = walk
        .exponents
        .iter()
        .fold(1.0, |s, &(x1, x2)| s * (1.0 - decoherence::error_from_exponents(x1, x2)));

    SuccessReport {
        p_success: walk.gate_survival * crosstalk_survival * decoherence_survival,
        gate_survival: walk.gate_survival,
        crosstalk_survival,
        decoherence_survival,
        depth: schedule.depth(),
        duration_ns: schedule.total_duration_ns(),
        max_channel_error,
        channels_evaluated: 3 * episodes,
    }
}

/// The program depth [`static_success_estimate`] charges: deep enough
/// that coherence differences between chips dominate the constant
/// per-gate calibration floor (a depth-1 proxy would score a 5 µs chip
/// and a 50 µs chip nearly identically), shallow enough that healthy
/// devices keep scores well away from zero.
pub const NOMINAL_DEPTH_CYCLES: usize = 64;

/// A cheap, schedule-free proxy for the `P_success` a device can
/// sustain, built from calibration data alone — no program, no compiled
/// schedule, no density simulation.
///
/// Fleet routers rank shards with this score at *registration* time, so
/// it deliberately uses only static inputs: the device's coherence
/// times, its coupling structure, and two figures the compiler's
/// frequency plan fixes up front — the reachable interaction band and
/// the minimum parking separation between coupled qubits
/// (`min_parking_separation_ghz`, see
/// `CompileContext::min_coupled_parking_separation`). The model charges
/// a nominal program of [`NOMINAL_DEPTH_CYCLES`] cycles (single-qubit
/// gate + flux settling each):
///
/// * **decoherence** — every qubit pays the Eq. 3 product error over the
///   nominal program duration at its own `T1`/`T2`;
/// * **idle crosstalk** — every coupling pays the Eq. 5/6 channel error
///   at the parking detuning over that duration, attenuated by the
///   coupler's inactive factor on tunable-coupler hardware;
/// * **active crowding** — every coupling pays the channel error at the
///   detuning a maximally packed cycle can afford, `band width /
///   max degree` (more neighbors competing for the same band means
///   closer interaction frequencies).
///
/// The result is clamped to `[0, 1]`, monotone in the right directions
/// (longer coherence, wider band, larger parking separation, weaker
/// residual coupling all raise it), and a pure function of its inputs —
/// two registrations of the same device always score identically. It is
/// **not** comparable to [`estimate`]'s per-program `p_success`; it only
/// orders devices against each other.
pub fn static_success_estimate(
    device: &Device,
    band: fastsc_device::Band,
    min_parking_separation_ghz: f64,
) -> f64 {
    let params = *device.params();
    let summary = device.calibration_summary();
    let t_ns = NOMINAL_DEPTH_CYCLES as f64 * (params.t_single_ns + params.flux_settle_ns);

    let mut survival = 1.0f64;
    for spec in device.qubits() {
        survival *= 1.0 - decoherence::error(spec.t1_us, spec.t2_us, t_ns);
    }

    // Both detunings are clamped to a small positive floor so degenerate
    // frequency plans (zero separation, empty band) score near zero
    // instead of panicking in the channel model.
    let sanitize = |delta: f64| if delta.is_finite() { delta.abs().max(1e-6) } else { 1e3 };
    let g_idle = params.g0 * device.coupler().inactive_factor();
    let idle_eps =
        coupling::crosstalk_error(g_idle, sanitize(min_parking_separation_ghz), t_ns);
    let packed_delta = band.width() / summary.max_degree.max(1) as f64;
    let active_eps = coupling::crosstalk_error(params.g0, sanitize(packed_delta), t_ns);
    let per_coupling = idle_eps.max(active_eps).max(params.base_two_qubit_error);
    survival *= (1.0 - per_coupling).powi(summary.couplings as i32);

    survival.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Cycle, ScheduledGate};
    use fastsc_device::{CouplerKind, Device};
    use fastsc_ir::{Gate, Instruction, Operands};

    fn gate2(g: Gate, a: usize, b: usize, f: f64) -> ScheduledGate {
        ScheduledGate {
            instruction: Instruction { gate: g, operands: Operands::Two(a, b) },
            interaction_freq: Some(f),
        }
    }

    /// A 2x2 device; parking at 5.0/5.5 checkerboard.
    fn device() -> Device {
        Device::grid(2, 2, 7)
    }

    fn parked_frequencies(n: usize) -> Vec<f64> {
        // Checkerboard across the full parking band (maximum spread, as
        // the compiler produces): qubits 0,3 at 4.5; 1,2 at 5.5.
        (0..n).map(|q| if q == 0 || q == 3 { 4.5 } else { 5.5 }).collect()
    }

    fn one_gate_cycle(fa: f64, fb: f64, int: f64) -> Cycle {
        // CZ on coupling (0,1); qubits 2,3 parked.
        let mut freqs = parked_frequencies(4);
        freqs[0] = fa;
        freqs[1] = fb;
        Cycle {
            gates: vec![gate2(Gate::Cz, 0, 1, int)],
            frequencies: freqs.into(),
            active_couplings: vec![],
            duration_ns: 70.0,
        }
    }

    #[test]
    fn empty_schedule_is_perfect() {
        let d = device();
        let s = Schedule::new(4);
        let r = estimate(&d, &s, &NoiseConfig::default());
        assert_eq!(r.p_success, 1.0);
        assert_eq!(r.depth, 0);
    }

    #[test]
    fn idle_cycle_with_separated_parking_is_nearly_perfect() {
        let d = device();
        let mut s = Schedule::new(4);
        s.push_cycle(Cycle {
            gates: vec![],
            frequencies: parked_frequencies(4).into(),
            active_couplings: vec![],
            duration_ns: 100.0,
        });
        let r = estimate(&d, &s, &NoiseConfig::default());
        assert!(r.p_success > 0.99, "p = {}", r.p_success);
        assert!(r.crosstalk_error() < 5e-3, "xtalk = {}", r.crosstalk_error());
    }

    #[test]
    fn parking_collision_is_catastrophic() {
        let d = device();
        let mut s = Schedule::new(4);
        // All four qubits parked at the same frequency: every coupling on
        // resonance.
        s.push_cycle(Cycle {
            gates: vec![],
            frequencies: vec![5.0; 4].into(),
            active_couplings: vec![],
            duration_ns: 100.0,
        });
        let r = estimate(&d, &s, &NoiseConfig::default());
        assert!(r.p_success < 0.01, "p = {}", r.p_success);
        assert!(r.max_channel_error > 0.9);
    }

    #[test]
    fn overlay_cycles_estimate_bit_identically_to_their_dense_twins() {
        let d = device().with_coupler(CouplerKind::tunable(0.05));
        let parking: std::sync::Arc<[f64]> = parked_frequencies(4).into();
        let retuned = [vec![(0, 6.5), (1, 6.5)], vec![], vec![(3, 6.1), (2, 6.1)], vec![]];
        let (mut overlay, mut dense) = (Schedule::new(4), Schedule::new(4));
        for (c, retuned) in retuned.into_iter().enumerate() {
            let gates = match retuned[..] {
                [(a, f), (b, _)] => vec![gate2(Gate::Cz, a, b, f)],
                _ => vec![],
            };
            let active_couplings = if c == 0 { vec![(0, 1)] } else { vec![] };
            let frequencies = crate::Frequencies::overlay(parking.clone(), retuned);
            let cycle = Cycle { gates, frequencies, active_couplings, duration_ns: 60.0 };
            let twin =
                Cycle { frequencies: cycle.frequencies.to_vec().into(), ..cycle.clone() };
            overlay.push_cycle(cycle);
            dense.push_cycle(twin);
        }
        let config = NoiseConfig { include_distance2: true };
        assert_eq!(estimate(&d, &overlay, &config), estimate(&d, &dense, &config));
        let (a, b) = (crate::error_budget(&d, &overlay), crate::error_budget(&d, &dense));
        assert_eq!(a.crosstalk_sum().to_bits(), b.crosstalk_sum().to_bits());
        assert_eq!(a.decoherence, b.decoherence);
    }

    #[test]
    fn single_gate_survival_dominated_by_base_error() {
        let d = device();
        let mut s = Schedule::new(4);
        s.push_cycle(one_gate_cycle(6.5, 6.5, 6.5));
        let r = estimate(&d, &s, &NoiseConfig::default());
        assert!(r.p_success > 0.97, "p = {}", r.p_success);
        assert!((r.gate_survival - 0.995).abs() < 1e-9);
        assert_eq!(r.depth, 1);
    }

    #[test]
    fn parallel_gates_same_frequency_crosstalk() {
        // Two CZs on opposite edges of the 2x2 mesh: (0,1) and (2,3).
        // The connecting couplings (0,2) and (1,3) see both pairs at the
        // same interaction frequency -> near-resonant crosstalk.
        let d = device();
        let build = |f1: f64, f2: f64| {
            let mut s = Schedule::new(4);
            s.push_cycle(Cycle {
                gates: vec![gate2(Gate::Cz, 0, 1, f1), gate2(Gate::Cz, 2, 3, f2)],
                frequencies: vec![f1, f1, f2, f2].into(),
                active_couplings: vec![],
                duration_ns: 70.0,
            });
            s
        };
        let same = estimate(&d, &build(6.5, 6.5), &NoiseConfig::default());
        let apart = estimate(&d, &build(6.9, 6.2), &NoiseConfig::default());
        assert!(
            apart.crosstalk_survival > same.crosstalk_survival + 0.5,
            "separated {} vs colliding {}",
            apart.crosstalk_survival,
            same.crosstalk_survival
        );
        assert!(apart.p_success > 10.0 * same.p_success);
    }

    #[test]
    fn gmon_perfect_couplers_suppress_crosstalk() {
        let d = device().with_coupler(CouplerKind::tunable(0.0));
        let mut s = Schedule::new(4);
        // Colliding parking frequencies, but all couplers off.
        s.push_cycle(Cycle {
            gates: vec![],
            frequencies: vec![5.0; 4].into(),
            active_couplings: vec![],
            duration_ns: 100.0,
        });
        let r = estimate(&d, &s, &NoiseConfig::default());
        assert_eq!(r.crosstalk_survival, 1.0);
    }

    #[test]
    fn gmon_residual_coupling_degrades_with_factor() {
        let mut last = 1.0;
        for residual in [0.0, 0.2, 0.4, 0.8] {
            let d = device().with_coupler(CouplerKind::tunable(residual));
            let mut s = Schedule::new(4);
            s.push_cycle(Cycle {
                gates: vec![],
                frequencies: vec![5.0, 5.3, 5.3, 5.0].into(),
                active_couplings: vec![],
                duration_ns: 200.0,
            });
            let r = estimate(&d, &s, &NoiseConfig::default());
            assert!(
                r.p_success <= last + 1e-12,
                "residual {residual}: p rose to {}",
                r.p_success
            );
            last = r.p_success;
        }
    }

    #[test]
    fn decoherence_grows_with_duration() {
        let d = device();
        let mut short = Schedule::new(4);
        short.push_cycle(one_gate_cycle(6.5, 6.5, 6.5));
        let mut long = Schedule::new(4);
        for _ in 0..50 {
            long.push_cycle(one_gate_cycle(6.5, 6.5, 6.5));
        }
        let cfg = NoiseConfig::default();
        let rs = estimate(&d, &short, &cfg);
        let rl = estimate(&d, &long, &cfg);
        assert!(rl.decoherence_error() > rs.decoherence_error());
        assert!(rl.p_success < rs.p_success);
    }

    #[test]
    fn leakage_channel_catches_anharmonicity_collision() {
        // Two coupled qubits parked exactly alpha apart: the 0-1
        // frequencies are 200 MHz detuned but omega12(q0) = omega01(q1).
        // Moved 500 MHz apart, the pair sits off every resonance.
        let d = Device::linear(2, 3);
        let alpha = d.qubit(0).anharmonicity; // -0.2
        let idle = |f1: f64| {
            let mut s = Schedule::new(2);
            s.push_cycle(Cycle {
                gates: vec![],
                frequencies: vec![5.2, f1].into(),
                active_couplings: vec![],
                duration_ns: 100.0,
            });
            estimate(&d, &s, &NoiseConfig::default())
        };
        let (sideband, apart) = (idle(5.2 + alpha), idle(4.7));
        assert!(
            sideband.crosstalk_error() > 100.0 * apart.crosstalk_error(),
            "on the sideband = {}, apart = {}",
            sideband.crosstalk_error(),
            apart.crosstalk_error()
        );
        assert!(sideband.crosstalk_error() > 0.5);
    }

    #[test]
    fn flux_noise_toggle_matters_off_sweet_spot() {
        // The same fabrication draw with and without flux noise.
        let build = |flux_noise_slope: f64| {
            let params = fastsc_device::DeviceParams { flux_noise_slope, ..Default::default() };
            let mut builder =
                fastsc_device::DeviceBuilder::new(fastsc_graph::topology::grid(2, 2));
            builder.params(params).seed(7);
            builder.build()
        };
        let (noisy, quiet) = (build(device().params().flux_noise_slope), build(0.0));
        assert!(noisy.params().flux_noise_slope > 0.0);
        assert_eq!(quiet.qubits(), noisy.qubits());
        let mut s = Schedule::new(4);
        // Park far from both sweet spots (5 GHz low, ~7 GHz high).
        s.push_cycle(Cycle {
            gates: vec![],
            frequencies: vec![6.0, 6.4, 6.4, 6.0].into(),
            active_couplings: vec![],
            duration_ns: 5_000.0,
        });
        let with = estimate(&noisy, &s, &NoiseConfig::default());
        let without = estimate(&quiet, &s, &NoiseConfig::default());
        assert!(
            with.decoherence_error() > without.decoherence_error(),
            "with = {}, without = {}",
            with.decoherence_error(),
            without.decoherence_error()
        );
        assert_eq!(with.crosstalk_survival, without.crosstalk_survival);
    }

    #[test]
    fn distance2_channels_add_error_when_enabled() {
        let mut builder = fastsc_device::DeviceBuilder::new(fastsc_graph::topology::linear(3));
        let params = fastsc_device::DeviceParams {
            distance2_coupling_factor: 0.3,
            ..Default::default()
        };
        builder.params(params).seed(3);
        let d = builder.build();
        let mut s = Schedule::new(3);
        // Qubits 0 and 2 (distance 2) at the same frequency.
        s.push_cycle(Cycle {
            gates: vec![],
            frequencies: vec![5.2, 5.45, 5.2].into(),
            active_couplings: vec![],
            duration_ns: 200.0,
        });
        let off = estimate(&d, &s, &NoiseConfig::default());
        let on = estimate(&d, &s, &NoiseConfig { include_distance2: true });
        assert!(on.crosstalk_error() > off.crosstalk_error());
        assert!(on.channels_evaluated > off.channels_evaluated);
    }

    #[test]
    #[should_panic(expected = "disagree on qubit count")]
    fn rejects_mismatched_schedule() {
        let d = device();
        let s = Schedule::new(9);
        let _ = estimate(&d, &s, &NoiseConfig::default());
    }

    #[test]
    #[should_panic(expected = "two-qubit gate on uncoupled qubits (0, 3)")]
    fn rejects_a_two_qubit_gate_on_an_uncoupled_pair() {
        // Qubits 0 and 3 sit diagonally on the 2x2 grid.
        let d = device();
        let mut s = Schedule::new(4);
        s.push_cycle(Cycle {
            gates: vec![gate2(Gate::Cz, 0, 3, 6.5)],
            frequencies: vec![6.5, 5.5, 5.5, 6.5].into(),
            active_couplings: vec![],
            duration_ns: 70.0,
        });
        let _ = estimate(&d, &s, &NoiseConfig::default());
    }

    #[test]
    fn report_accessors_consistent() {
        let d = device();
        let mut s = Schedule::new(4);
        s.push_cycle(one_gate_cycle(6.5, 6.5, 6.5));
        let r = estimate(&d, &s, &NoiseConfig::default());
        assert!((r.crosstalk_error() - (1.0 - r.crosstalk_survival)).abs() < 1e-15);
        assert!((r.decoherence_error() - (1.0 - r.decoherence_survival)).abs() < 1e-15);
        let product = r.gate_survival * r.crosstalk_survival * r.decoherence_survival;
        assert!((r.p_success - product).abs() < 1e-12);
    }

    #[test]
    fn static_estimate_is_a_deterministic_probability() {
        use fastsc_device::Band;
        let d = device();
        let band = Band::new(6.2, 6.8);
        let a = static_success_estimate(&d, band, 0.5);
        let b = static_success_estimate(&d, band, 0.5);
        assert_eq!(a.to_bits(), b.to_bits(), "the score must be a pure function");
        assert!((0.0..=1.0).contains(&a), "score {a} outside [0, 1]");
        assert!(a > 0.0, "a healthy device must not score zero");
    }

    #[test]
    fn static_estimate_orders_devices_by_health() {
        use fastsc_device::{Band, DeviceBuilder};
        let band = Band::new(6.2, 6.8);
        let build = |t1: f64, t2: f64| {
            let mut b = DeviceBuilder::new(fastsc_graph::topology::grid(3, 3));
            b.seed(7).coherence(t1, t2);
            b.build()
        };
        let healthy = static_success_estimate(&build(50.0, 40.0), band, 0.5);
        let noisy = static_success_estimate(&build(5.0, 3.0), band, 0.5);
        assert!(healthy > noisy, "longer coherence must score higher ({healthy} vs {noisy})");
        // Wider parking separation means weaker idle channels.
        let d = device();
        let separated = static_success_estimate(&d, band, 1.0);
        let crowded = static_success_estimate(&d, band, 0.02);
        assert!(separated >= crowded, "tighter parking must never score higher");
        // A tunable coupler suppresses idle crosstalk entirely.
        let gmon = d.with_coupler(CouplerKind::tunable(0.0));
        assert!(static_success_estimate(&gmon, band, 0.02) >= crowded);
        // Degenerate inputs stay in range instead of panicking.
        let degenerate = static_success_estimate(&d, Band::new(6.5, 6.5), f64::INFINITY);
        assert!((0.0..=1.0).contains(&degenerate));
    }
}
