//! Output checks the benchmark owns: an oracle for the paper's schedule
//! constraints that shares no code with the compiler it checks. Coupling
//! is read from `Device::are_coupled`, and the crosstalk neighbourhood is
//! re-derived here by breadth-first search over the device's coupling
//! graph, not read from `CrosstalkGraph`.

use fastsc_core::Strategy;
use fastsc_device::Device;
use fastsc_noise::{Cycle, Schedule};
use std::collections::HashSet;

/// Two interaction frequencies closer than this (GHz) count as shared.
const SAME_FREQ_GHZ: f64 = 1e-9;
/// Slack for floating-point noise when comparing against `omega_max`.
const OMEGA_SLACK_GHZ: f64 = 1e-9;

/// The first constraint a schedule breaks.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A cycle's frequency vector does not cover every device qubit.
    FrequencyVector { cycle: usize, len: usize },
    /// Two gates of one cycle act on the same qubit.
    SharedQubit { cycle: usize, qubit: usize },
    /// A two-qubit gate acts on an uncoupled pair.
    Uncoupled { cycle: usize, pair: (usize, usize) },
    /// A two-qubit gate carries no interaction frequency.
    MissingFrequency { cycle: usize, pair: (usize, usize) },
    /// A qubit is tuned above its maximum frequency.
    AboveOmegaMax { cycle: usize, qubit: usize, freq: f64, omega_max: f64 },
    /// Under ColorDynamic, two simultaneous gates on crosstalk-adjacent
    /// couplings share an interaction frequency.
    CrosstalkCollision { cycle: usize, a: (usize, usize), b: (usize, usize) },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::FrequencyVector { cycle, len } => {
                write!(f, "cycle {cycle}: frequency vector has {len} entries")
            }
            Violation::SharedQubit { cycle, qubit } => {
                write!(f, "cycle {cycle}: two gates share qubit {qubit}")
            }
            Violation::Uncoupled { cycle, pair } => {
                write!(f, "cycle {cycle}: two-qubit gate on uncoupled pair {pair:?}")
            }
            Violation::MissingFrequency { cycle, pair } => {
                write!(
                    f,
                    "cycle {cycle}: two-qubit gate on {pair:?} has no interaction frequency"
                )
            }
            Violation::AboveOmegaMax { cycle, qubit, freq, omega_max } => write!(
                f,
                "cycle {cycle}: qubit {qubit} at {freq} GHz is above its omega_max {omega_max}"
            ),
            Violation::CrosstalkCollision { cycle, a, b } => write!(
                f,
                "cycle {cycle}: crosstalk-adjacent gates {a:?} and {b:?} share a frequency"
            ),
        }
    }
}

/// The schedules that already passed [`check_schedule`], by job key and
/// `Schedule::stable_hash`: a repeat of a checked schedule costs one
/// hash, a new one is checked in full.
#[derive(Debug, Default)]
pub struct Verified {
    passed: HashSet<(usize, u64)>,
}

impl Verified {
    /// Checks `schedule` of job `key` unless the identical schedule of
    /// the same job already passed; returns whether it was new.
    ///
    /// # Errors
    ///
    /// Returns the first violation of a new schedule.
    pub fn check(
        &mut self,
        key: usize,
        device: &Device,
        schedule: &Schedule,
        strategy: Strategy,
        distance: usize,
    ) -> Result<bool, Violation> {
        let entry = (key, schedule.stable_hash());
        if self.passed.contains(&entry) {
            return Ok(false);
        }
        check_schedule(device, schedule, strategy, distance)?;
        self.passed.insert(entry);
        Ok(true)
    }
}

/// Checks `schedule`, compiled under `strategy` for `device` at crosstalk
/// distance `distance`, against every constraint of [`Violation`].
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_schedule(
    device: &Device,
    schedule: &Schedule,
    strategy: Strategy,
    distance: usize,
) -> Result<(), Violation> {
    check_cycles(device, schedule.cycles(), strategy, distance)
}

/// [`check_schedule`] on bare cycles, so tests can hand it cycles that a
/// `Schedule` would refuse to hold.
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_cycles(
    device: &Device,
    cycles: &[Cycle],
    strategy: Strategy,
    distance: usize,
) -> Result<(), Violation> {
    let n = device.n_qubits();
    // gate_on[q]: index (within the cycle) of the gate acting on q.
    let mut gate_on = vec![usize::MAX; n];
    for (c, cycle) in cycles.iter().enumerate() {
        if cycle.frequencies.len() != n {
            return Err(Violation::FrequencyVector { cycle: c, len: cycle.frequencies.len() });
        }
        gate_on.fill(usize::MAX);
        for (g, gate) in cycle.gates.iter().enumerate() {
            for q in gate.instruction.operands {
                if q >= n || gate_on[q] != usize::MAX {
                    return Err(Violation::SharedQubit { cycle: c, qubit: q });
                }
                gate_on[q] = g;
            }
            if let Some(pair) = gate.instruction.qubit_pair() {
                if !device.are_coupled(pair.0, pair.1) {
                    return Err(Violation::Uncoupled { cycle: c, pair });
                }
                if !gate.interaction_freq.is_some_and(f64::is_finite) {
                    return Err(Violation::MissingFrequency { cycle: c, pair });
                }
            }
        }
        for (q, &freq) in cycle.frequencies.iter().enumerate() {
            let omega_max = device.qubit(q).omega_max;
            if freq.is_nan() || freq > omega_max + OMEGA_SLACK_GHZ {
                return Err(Violation::AboveOmegaMax { cycle: c, qubit: q, freq, omega_max });
            }
        }
        if strategy == Strategy::ColorDynamic {
            check_collisions(device, c, cycle, &gate_on, distance)?;
        }
    }
    Ok(())
}

/// Two couplings are crosstalk-adjacent when some endpoint of one lies
/// within `distance` hops of some endpoint of the other (paper §IV-C);
/// finds every such pair of simultaneous two-qubit gates by a bounded
/// breadth-first search from each gate's endpoints.
fn check_collisions(
    device: &Device,
    c: usize,
    cycle: &Cycle,
    gate_on: &[usize],
    distance: usize,
) -> Result<(), Violation> {
    let graph = device.connectivity();
    let mut seen = vec![usize::MAX; device.n_qubits()];
    let mut frontier = Vec::new();
    let mut next = Vec::new();
    for (g, gate) in cycle.gates.iter().enumerate() {
        let (Some((a, b)), Some(freq)) = (gate.instruction.qubit_pair(), gate.interaction_freq)
        else {
            continue;
        };
        frontier.clear();
        frontier.extend([a, b]);
        seen[a] = g;
        seen[b] = g;
        for hop in 0..=distance {
            for &q in &frontier {
                let h = gate_on[q];
                if h != usize::MAX && h != g {
                    let other = &cycle.gates[h];
                    if let (Some(pair), Some(f)) =
                        (other.instruction.qubit_pair(), other.interaction_freq)
                    {
                        if (f - freq).abs() < SAME_FREQ_GHZ {
                            return Err(Violation::CrosstalkCollision {
                                cycle: c,
                                a: (a, b),
                                b: pair,
                            });
                        }
                    }
                }
            }
            if hop == distance {
                break;
            }
            next.clear();
            for &q in &frontier {
                for &w in graph.neighbors(q) {
                    if seen[w] != g {
                        seen[w] = g;
                        next.push(w);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsc_core::{Compiler, CompilerConfig};
    use fastsc_ir::{Gate, Instruction, Operands};
    use fastsc_noise::ScheduledGate;
    use fastsc_workloads::Benchmark;

    fn compiled(strategy: Strategy) -> (Device, Vec<Cycle>) {
        let device = Device::grid(3, 3, 7);
        let compiler = Compiler::new(device.clone(), CompilerConfig::default());
        let schedule =
            compiler.compile(&Benchmark::Xeb(9, 5).build(7), strategy).unwrap().schedule;
        (device, schedule.cycles().to_vec())
    }

    fn two_qubit(a: usize, b: usize, freq: Option<f64>) -> ScheduledGate {
        ScheduledGate {
            instruction: Instruction { gate: Gate::Cz, operands: Operands::Two(a, b) },
            interaction_freq: freq,
        }
    }

    /// A cycle index whose gates include a two-qubit gate.
    fn cycle_with_pair(cycles: &[Cycle]) -> usize {
        cycles
            .iter()
            .position(|c| c.gates.iter().any(|g| g.instruction.qubit_pair().is_some()))
            .expect("an XEB schedule has two-qubit cycles")
    }

    #[test]
    fn compiled_schedules_pass_under_every_strategy() {
        for strategy in Strategy::all() {
            let (device, cycles) = compiled(strategy);
            assert_eq!(check_cycles(&device, &cycles, strategy, 1), Ok(()), "{strategy}");
        }
    }

    #[test]
    fn detects_shared_qubit() {
        let (device, mut cycles) = compiled(Strategy::ColorDynamic);
        let c = cycle_with_pair(&cycles);
        let gate = cycles[c].gates[0];
        cycles[c].gates.push(gate);
        let err = check_cycles(&device, &cycles, Strategy::ColorDynamic, 1).unwrap_err();
        assert!(matches!(err, Violation::SharedQubit { .. }), "{err}");
    }

    #[test]
    fn detects_uncoupled_pair() {
        let (device, mut cycles) = compiled(Strategy::BaselineU);
        // Qubits 0 and 8 are opposite corners of the 3x3 grid.
        cycles[0].gates = vec![two_qubit(0, 8, Some(6.5))];
        let err = check_cycles(&device, &cycles, Strategy::BaselineU, 1).unwrap_err();
        assert_eq!(err, Violation::Uncoupled { cycle: 0, pair: (0, 8) });
    }

    #[test]
    fn detects_missing_interaction_frequency() {
        let (device, mut cycles) = compiled(Strategy::BaselineN);
        let c = cycle_with_pair(&cycles);
        let g =
            cycles[c].gates.iter().position(|g| g.instruction.qubit_pair().is_some()).unwrap();
        cycles[c].gates[g].interaction_freq = None;
        let err = check_cycles(&device, &cycles, Strategy::BaselineN, 1).unwrap_err();
        assert!(matches!(err, Violation::MissingFrequency { .. }), "{err}");
    }

    #[test]
    fn detects_qubit_above_omega_max() {
        let (device, mut cycles) = compiled(Strategy::BaselineS);
        let last = cycles.len() - 1;
        cycles[last].frequencies[4] = device.qubit(4).omega_max + 0.01;
        let err = check_cycles(&device, &cycles, Strategy::BaselineS, 1).unwrap_err();
        assert!(matches!(err, Violation::AboveOmegaMax { qubit: 4, .. }), "{err}");
    }

    #[test]
    fn detects_crosstalk_collision_under_color_dynamic_only() {
        let (device, mut cycles) = compiled(Strategy::ColorDynamic);
        // (0,1) and (3,4) are parallel couplings one hop apart on the
        // 3x3 grid: adjacent at distance 1, not at distance 0.
        cycles[0].gates = vec![two_qubit(0, 1, Some(6.5)), two_qubit(3, 4, Some(6.5))];
        let err = check_cycles(&device, &cycles, Strategy::ColorDynamic, 1).unwrap_err();
        assert_eq!(err, Violation::CrosstalkCollision { cycle: 0, a: (0, 1), b: (3, 4) });
        assert_eq!(check_cycles(&device, &cycles, Strategy::ColorDynamic, 0), Ok(()));
        // Baseline U shares one frequency by design.
        assert_eq!(check_cycles(&device, &cycles, Strategy::BaselineU, 1), Ok(()));
        // Distinct frequencies are fine.
        cycles[0].gates[1].interaction_freq = Some(6.4);
        assert_eq!(check_cycles(&device, &cycles, Strategy::ColorDynamic, 1), Ok(()));
    }

    #[test]
    fn detects_short_frequency_vector() {
        let (device, mut cycles) = compiled(Strategy::ColorDynamic);
        cycles[0].frequencies.pop();
        let err = check_cycles(&device, &cycles, Strategy::ColorDynamic, 1).unwrap_err();
        assert_eq!(err, Violation::FrequencyVector { cycle: 0, len: 8 });
    }
}
