//! The compiled-schedule data model: what the compiler emits and the
//! estimator consumes.

use crate::Frequencies;
use fastsc_ir::{Instruction, Operands};
use std::fmt;

/// One gate placed in a cycle, with its interaction frequency when it is a
/// two-qubit (resonance) gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledGate {
    /// The gate and its operands.
    pub instruction: Instruction,
    /// The interaction frequency (GHz) both qubits are tuned to for the
    /// gate's duration; `None` for single-qubit gates.
    pub interaction_freq: Option<f64>,
}

/// One time step of a compiled program.
#[derive(Debug, Clone, PartialEq)]
pub struct Cycle {
    /// Gates executing in this cycle (disjoint operand sets).
    pub gates: Vec<ScheduledGate>,
    /// Every qubit's 0-1 frequency (GHz) during this cycle — interaction
    /// frequencies for two-qubit gate qubits, parking frequencies for
    /// the others. Reads like a dense vector; a compiled cycle is a
    /// window onto its schedule's shared blocks: its row of the dense
    /// rows block, or, when it retunes few of the device's qubits, its
    /// retuned pairs over the device's shared parking vector (see
    /// [`Frequencies`]).
    pub frequencies: Frequencies,
    /// Couplings (normalized `(min, max)` qubit pairs) whose tunable
    /// coupler is active this cycle. Ignored on fixed-coupler hardware.
    pub active_couplings: Vec<(usize, usize)>,
    /// Wall-clock duration of the cycle in ns (slowest gate plus flux
    /// settling).
    pub duration_ns: f64,
}

impl Cycle {
    /// The couplings `(min, max)` executing a two-qubit gate this cycle.
    pub fn busy_couplings(&self) -> Vec<(usize, usize)> {
        self.gates
            .iter()
            .filter_map(|g| g.instruction.qubit_pair())
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect()
    }

    /// Whether `q` executes any gate this cycle.
    pub fn is_qubit_busy(&self, q: usize) -> bool {
        self.gates.iter().any(|g| g.instruction.operands.contains(q))
    }
}

/// Reusable validation scratch for
/// [`Schedule::push_cycle_with`]: a stamped per-qubit marker array that
/// replaces the `vec![false; n_qubits]` a plain
/// [`push_cycle`](Schedule::push_cycle) allocates per cycle. One scratch
/// serves any number of schedules and qubit counts; stamps make clearing
/// O(1).
#[derive(Debug, Clone, Default)]
pub struct CycleScratch {
    used: Vec<u64>,
    stamp: u64,
}

impl CycleScratch {
    /// A fresh scratch (no backing storage until first use).
    pub fn new() -> Self {
        CycleScratch::default()
    }

    /// Advances to a fresh stamp, growing (and re-zeroing on growth) the
    /// marker array to cover `n_qubits`.
    fn next_stamp(&mut self, n_qubits: usize) -> u64 {
        if self.used.len() < n_qubits {
            self.used.clear();
            self.used.resize(n_qubits, 0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.stamp
    }
}

/// A fully scheduled program: an ordered list of [`Cycle`]s over a fixed
/// number of device qubits.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    n_qubits: usize,
    cycles: Vec<Cycle>,
}

impl Schedule {
    /// An empty schedule over `n_qubits` device qubits.
    pub fn new(n_qubits: usize) -> Self {
        Schedule { n_qubits, cycles: Vec::new() }
    }

    /// An empty schedule over `n_qubits` device qubits with room for
    /// `cycles` cycles, so pushing that many never grows the cycle list.
    pub fn with_capacity(n_qubits: usize, cycles: usize) -> Self {
        Schedule { n_qubits, cycles: Vec::with_capacity(cycles) }
    }

    /// Appends a cycle.
    ///
    /// # Panics
    ///
    /// Panics if the cycle's frequencies do not cover every qubit,
    /// if its duration is negative, if two gates share a qubit, or if any
    /// operand is out of range.
    pub fn push_cycle(&mut self, cycle: Cycle) {
        let mut scratch = CycleScratch::new();
        self.push_cycle_with(cycle, &mut scratch);
    }

    /// [`push_cycle`](Self::push_cycle) with caller-owned validation
    /// scratch: the per-qubit "already used this cycle" tracker is a
    /// stamped array reused across calls, so schedule assembly in the
    /// compile hot loop validates every cycle without a per-cycle
    /// allocation.
    ///
    /// # Panics
    ///
    /// Exactly the conditions of [`push_cycle`](Self::push_cycle).
    pub fn push_cycle_with(&mut self, cycle: Cycle, scratch: &mut CycleScratch) {
        assert_eq!(
            cycle.frequencies.len(),
            self.n_qubits,
            "cycle must assign a frequency to every qubit"
        );
        assert!(cycle.duration_ns >= 0.0, "cycle duration must be non-negative");
        let stamp = scratch.next_stamp(self.n_qubits);
        for g in &cycle.gates {
            for q in g.instruction.operands {
                assert!(q < self.n_qubits, "operand {q} out of range");
                assert!(scratch.used[q] != stamp, "two gates share qubit {q} in one cycle");
                scratch.used[q] = stamp;
            }
        }
        self.cycles.push(cycle);
    }

    /// Number of device qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The cycles in execution order.
    pub fn cycles(&self) -> &[Cycle] {
        &self.cycles
    }

    /// Circuit depth (number of cycles).
    pub fn depth(&self) -> usize {
        self.cycles.len()
    }

    /// Total wall-clock duration in ns.
    pub fn total_duration_ns(&self) -> f64 {
        self.cycles.iter().map(|c| c.duration_ns).sum()
    }

    /// Total number of gates.
    pub fn gate_count(&self) -> usize {
        self.cycles.iter().map(|c| c.gates.len()).sum()
    }

    /// Total number of two-qubit gates.
    pub fn two_qubit_count(&self) -> usize {
        self.cycles
            .iter()
            .flat_map(|c| &c.gates)
            .filter(|g| g.instruction.gate.is_two_qubit())
            .count()
    }

    /// A pinned 64-bit digest of **everything** in the schedule: qubit
    /// count, cycle count, and for every cycle its gates (gate
    /// identity, parameters, operands, and interaction frequency bits),
    /// every qubit's frequency (the logical values, so a window onto
    /// shared blocks and its dense twin hash equal), active couplings, and
    /// duration — all folded through the workspace's stable FNV-1a
    /// [`StableHasher`](fastsc_ir::hash::StableHasher) with exact
    /// IEEE-754 bit patterns for every float.
    ///
    /// Two schedules hash equal iff they are bit-identical, so this is
    /// the digest the network serving layer returns in compile-result
    /// frames: a client (or the determinism suite) can prove a schedule
    /// compiled behind a socket is bit-identical to a local sequential
    /// compile without shipping the schedule itself.
    ///
    /// Exhaustive destructuring makes adding a field to [`Cycle`] or
    /// [`ScheduledGate`] a compile error here — the digest can never
    /// silently ignore new schedule state.
    pub fn stable_hash(&self) -> u64 {
        use fastsc_ir::hash::StableHasher;
        let mut h = StableHasher::new();
        h.write_usize(self.n_qubits);
        h.write_usize(self.cycles.len());
        for cycle in &self.cycles {
            let Cycle { gates, frequencies, active_couplings, duration_ns } = cycle;
            h.write_usize(gates.len());
            for gate in gates {
                let ScheduledGate { instruction, interaction_freq } = gate;
                let (tag, params) = instruction.gate.stable_code();
                h.write_u8(tag);
                h.write_u64(params);
                match instruction.operands {
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
                match interaction_freq {
                    Some(f) => {
                        h.write_u8(1);
                        h.write_f64(*f);
                    }
                    None => h.write_u8(0),
                }
            }
            h.write_usize(frequencies.len());
            for f in frequencies {
                h.write_f64(*f);
            }
            h.write_usize(active_couplings.len());
            for (a, b) in active_couplings {
                h.write_usize(*a);
                h.write_usize(*b);
            }
            h.write_f64(*duration_ns);
        }
        h.finish()
    }

    /// A canonical multiset of `(gate name, operands)` for
    /// schedule-preserves-program tests.
    pub fn gate_multiset(&self) -> Vec<(String, Vec<usize>)> {
        let mut v: Vec<(String, Vec<usize>)> = self
            .cycles
            .iter()
            .flat_map(|c| &c.gates)
            .map(|g| {
                let name = match g.instruction.operands {
                    Operands::One(_) => g.instruction.gate.to_string(),
                    Operands::Two(..) => g.instruction.gate.name().to_owned(),
                };
                (name, g.instruction.qubits())
            })
            .collect();
        v.sort();
        v
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule: {} qubits, {} cycles, {:.1} ns",
            self.n_qubits,
            self.depth(),
            self.total_duration_ns()
        )?;
        for (i, c) in self.cycles.iter().enumerate() {
            write!(f, "  cycle {i} ({:.1} ns):", c.duration_ns)?;
            for g in &c.gates {
                write!(f, " [{}]", g.instruction)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsc_ir::{Gate, Instruction, Operands};
    use std::sync::Arc;

    fn gate1(g: Gate, q: usize) -> ScheduledGate {
        ScheduledGate {
            instruction: Instruction { gate: g, operands: Operands::One(q) },
            interaction_freq: None,
        }
    }

    fn gate2(g: Gate, a: usize, b: usize, f: f64) -> ScheduledGate {
        ScheduledGate {
            instruction: Instruction { gate: g, operands: Operands::Two(a, b) },
            interaction_freq: Some(f),
        }
    }

    fn cycle(gates: Vec<ScheduledGate>, n: usize, t: f64) -> Cycle {
        Cycle {
            gates,
            frequencies: vec![5.0; n].into(),
            active_couplings: vec![],
            duration_ns: t,
        }
    }

    #[test]
    fn push_and_totals() {
        let mut s = Schedule::new(3);
        s.push_cycle(cycle(vec![gate1(Gate::H, 0), gate1(Gate::H, 1)], 3, 25.0));
        s.push_cycle(cycle(vec![gate2(Gate::Cz, 0, 1, 6.5)], 3, 70.0));
        assert_eq!(s.depth(), 2);
        assert_eq!(s.gate_count(), 3);
        assert_eq!(s.two_qubit_count(), 1);
        assert!((s.total_duration_ns() - 95.0).abs() < 1e-12);
    }

    #[test]
    fn stable_hash_is_sensitive_to_every_field() {
        let build = || {
            let mut s = Schedule::new(3);
            s.push_cycle(cycle(vec![gate1(Gate::H, 0)], 3, 25.0));
            s.push_cycle(cycle(vec![gate2(Gate::Cz, 0, 1, 6.5)], 3, 70.0));
            s
        };
        assert_eq!(build().stable_hash(), build().stable_hash(), "deterministic");

        // Any single-field perturbation must change the digest.
        let mut freq = build();
        freq.cycles[1].gates[0].interaction_freq = Some(6.5000000001);
        assert_ne!(build().stable_hash(), freq.stable_hash());

        let mut parked = build();
        parked.cycles[0].frequencies[2] = 5.25;
        assert_ne!(build().stable_hash(), parked.stable_hash());

        let mut coupling = build();
        coupling.cycles[1].active_couplings.push((0, 1));
        assert_ne!(build().stable_hash(), coupling.stable_hash());

        let mut duration = build();
        duration.cycles[0].duration_ns = 25.000001;
        assert_ne!(build().stable_hash(), duration.stable_hash());

        // Bit-exact float hashing: -0.0 and 0.0 are different schedules.
        let mut zero = build();
        zero.cycles[0].duration_ns = 0.0;
        let mut negzero = build();
        negzero.cycles[0].duration_ns = -0.0;
        assert_ne!(zero.stable_hash(), negzero.stable_hash());
    }

    /// A two-cycle schedule whose frequencies overlay `parking`, and its
    /// dense twin.
    fn overlay_and_dense_twin(parking: &Arc<[f64]>) -> (Schedule, Schedule) {
        let gates = [vec![gate1(Gate::H, 2)], vec![gate2(Gate::Cz, 1, 2, 6.5)]];
        let retuned = [vec![], vec![(2, 6.5), (1, 6.5)]];
        let (mut overlay, mut dense) = (Schedule::new(3), Schedule::new(3));
        for (gates, retuned) in gates.into_iter().zip(retuned) {
            let frequencies = Frequencies::overlay(Arc::clone(parking), retuned);
            let twin = frequencies.to_vec().into();
            for (s, frequencies) in [(&mut overlay, frequencies), (&mut dense, twin)] {
                let gates = gates.clone();
                s.push_cycle(Cycle {
                    gates,
                    frequencies,
                    active_couplings: vec![],
                    duration_ns: 50.0,
                });
            }
        }
        (overlay, dense)
    }

    #[test]
    fn an_overlay_schedule_equals_and_hashes_like_its_dense_twin() {
        let (overlay, dense) = overlay_and_dense_twin(&vec![5.0, 5.5, 5.0].into());
        assert_eq!(overlay, dense);
        assert_eq!(overlay.stable_hash(), dense.stable_hash());
        assert_eq!(overlay.cycles()[1].frequencies.to_vec(), vec![5.0, 6.5, 6.5]);
    }

    #[test]
    fn writes_to_one_overlay_cycle_leave_every_other_sharer_unchanged() {
        let parking: Arc<[f64]> = vec![5.0, 5.5, 5.0].into();
        let (mut edited, dense) = overlay_and_dense_twin(&parking);
        let (untouched, _) = overlay_and_dense_twin(&parking);
        edited.cycles[0].frequencies[0] = 4.0;
        edited.cycles[1].frequencies.pop();
        assert_eq!(edited.cycles[0].frequencies.to_vec(), vec![4.0, 5.5, 5.0]);
        assert_eq!(edited.cycles[1].frequencies.to_vec(), vec![5.0, 6.5]);
        assert_eq!(&parking[..], &[5.0, 5.5, 5.0]);
        assert_eq!(untouched, dense);
        assert_eq!(untouched.stable_hash(), dense.stable_hash());
    }

    #[test]
    #[should_panic(expected = "share qubit")]
    fn rejects_overlapping_gates() {
        let mut s = Schedule::new(3);
        s.push_cycle(cycle(vec![gate1(Gate::H, 0), gate2(Gate::Cz, 0, 1, 6.5)], 3, 50.0));
    }

    #[test]
    #[should_panic(expected = "frequency to every qubit")]
    fn rejects_short_frequency_vector() {
        let mut s = Schedule::new(3);
        s.push_cycle(Cycle {
            gates: vec![],
            frequencies: vec![5.0; 2].into(),
            active_couplings: vec![],
            duration_ns: 10.0,
        });
    }

    #[test]
    fn busy_couplings_normalized() {
        let c = cycle(vec![gate2(Gate::ISwap, 2, 1, 6.2)], 3, 50.0);
        assert_eq!(c.busy_couplings(), vec![(1, 2)]);
        assert!(c.is_qubit_busy(1));
        assert!(!c.is_qubit_busy(0));
    }

    #[test]
    fn gate_multiset_is_order_independent() {
        let mut s1 = Schedule::new(2);
        s1.push_cycle(cycle(vec![gate1(Gate::H, 0), gate1(Gate::X, 1)], 2, 25.0));
        let mut s2 = Schedule::new(2);
        s2.push_cycle(cycle(vec![gate1(Gate::X, 1)], 2, 25.0));
        s2.push_cycle(cycle(vec![gate1(Gate::H, 0)], 2, 25.0));
        assert_eq!(s1.gate_multiset(), s2.gate_multiset());
    }

    #[test]
    fn display_mentions_cycles() {
        let mut s = Schedule::new(2);
        s.push_cycle(cycle(vec![gate1(Gate::H, 0)], 2, 25.0));
        assert!(s.to_string().contains("cycle 0"));
    }
}
