//! The device: connectivity + qubit specs + coupler + partition + params.

use crate::coupler::CouplerKind;
use crate::params::DeviceParams;
use crate::partition::{Band, FrequencyPartition};
use crate::sampling;
use crate::transmon::TransmonSpec;
use fastsc_graph::crosstalk::CrosstalkGraph;
use fastsc_graph::{topology, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A compact summary of the calibration-relevant figures of one device:
/// size, connectivity crowding, and coherence. This is what fleet
/// routers consume when they rank shards — cheap to build once at
/// registration, cheap to copy, and a pure function of the device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationSummary {
    /// Number of qubits.
    pub qubits: usize,
    /// Number of couplings (connectivity edges).
    pub couplings: usize,
    /// Mean connectivity degree (`2E / N`; 0 for an empty device).
    pub mean_degree: f64,
    /// Maximum connectivity degree.
    pub max_degree: usize,
    /// Mean energy-relaxation time `T1` across qubits, µs.
    pub mean_t1_us: f64,
    /// Worst (minimum) `T1` across qubits, µs.
    pub min_t1_us: f64,
    /// Mean dephasing time `T2` across qubits, µs.
    pub mean_t2_us: f64,
    /// Worst (minimum) `T2` across qubits, µs.
    pub min_t2_us: f64,
}

/// A complete description of a superconducting quantum device.
///
/// Construct with the convenience constructors ([`Device::grid`],
/// [`Device::linear`], [`Device::from_topology`]) or with
/// [`DeviceBuilder`] for full control.
#[derive(Debug, Clone)]
pub struct Device {
    connectivity: Graph,
    qubits: Vec<TransmonSpec>,
    coupler: CouplerKind,
    partition: FrequencyPartition,
    params: DeviceParams,
    seed: u64,
}

impl Device {
    /// A `rows x cols` mesh with default parameters and fabrication
    /// variation sampled from the given seed.
    pub fn grid(rows: usize, cols: usize, seed: u64) -> Self {
        DeviceBuilder::new(topology::grid(rows, cols)).seed(seed).build()
    }

    /// A linear chain of `n` qubits.
    pub fn linear(n: usize, seed: u64) -> Self {
        DeviceBuilder::new(topology::linear(n)).seed(seed).build()
    }

    /// A device over one of the Fig. 13 topology families.
    ///
    /// # Panics
    ///
    /// Panics if a 2-D family is requested with non-square `n`.
    pub fn from_topology(t: topology::Topology, n: usize, seed: u64) -> Self {
        DeviceBuilder::new(t.build(n)).seed(seed).build()
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.connectivity.node_count()
    }

    /// Number of couplings (connectivity edges).
    pub fn n_couplings(&self) -> usize {
        self.connectivity.edge_count()
    }

    /// The connectivity graph `Gc`.
    pub fn connectivity(&self) -> &Graph {
        &self.connectivity
    }

    /// The spec of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q >= n_qubits()`.
    pub fn qubit(&self, q: usize) -> &TransmonSpec {
        &self.qubits[q]
    }

    /// All qubit specs, indexed by qubit.
    pub fn qubits(&self) -> &[TransmonSpec] {
        &self.qubits
    }

    /// The coupler hardware.
    pub fn coupler(&self) -> CouplerKind {
        self.coupler
    }

    /// The frequency partition used for assignment.
    pub fn partition(&self) -> FrequencyPartition {
        self.partition
    }

    /// Device-wide physical constants.
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    /// The fabrication-variation seed this device was sampled from.
    ///
    /// Together with the connectivity graph and builder parameters, the
    /// seed determines every sampled per-qubit frequency, so the compile
    /// service uses it as the device component of whole-schedule cache
    /// keys (two shards share cached results only when their seeds and
    /// topologies agree).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Extracts the [`CalibrationSummary`] of this device: qubit and
    /// coupling counts, degree statistics of the connectivity graph, and
    /// the mean/worst coherence times of the sampled qubits. All figures
    /// are deterministic functions of the device, so the summary is a
    /// stable per-shard profile for placement decisions.
    pub fn calibration_summary(&self) -> CalibrationSummary {
        let qubits = self.n_qubits();
        let couplings = self.n_couplings();
        let mean_degree =
            if qubits == 0 { 0.0 } else { 2.0 * couplings as f64 / qubits as f64 };
        let fold = |f: fn(&TransmonSpec) -> f64| {
            let (mut sum, mut min) = (0.0, f64::INFINITY);
            for spec in &self.qubits {
                let value = f(spec);
                sum += value;
                min = min.min(value);
            }
            if qubits == 0 {
                (0.0, 0.0)
            } else {
                (sum / qubits as f64, min)
            }
        };
        let (mean_t1_us, min_t1_us) = fold(|spec| spec.t1_us);
        let (mean_t2_us, min_t2_us) = fold(|spec| spec.t2_us);
        CalibrationSummary {
            qubits,
            couplings,
            mean_degree,
            max_degree: self.connectivity.max_degree(),
            mean_t1_us,
            min_t1_us,
            mean_t2_us,
            min_t2_us,
        }
    }

    /// The distance-`d` crosstalk graph `Gx` (paper Algorithm 2).
    pub fn crosstalk_graph(&self, d: usize) -> CrosstalkGraph {
        CrosstalkGraph::build(&self.connectivity, d)
    }

    /// Whether qubits `a` and `b` are directly coupled.
    pub fn are_coupled(&self, a: usize, b: usize) -> bool {
        self.connectivity.has_edge(a, b)
    }

    /// Returns a copy of this device with a different coupler (used to
    /// build the gmon baseline from the same chip).
    pub fn with_coupler(&self, coupler: CouplerKind) -> Self {
        Device { coupler, ..self.clone() }
    }

    /// The sub-device induced by `qubits`: local qubit `i` is global
    /// qubit `qubits[i]`, keeping that qubit's sampled spec, and the
    /// connectivity is the induced subgraph (local edge order follows
    /// the global edge order restricted to in-set edges, so local
    /// coupling `i` is the `i`-th global coupling with both endpoints in
    /// `qubits`). Coupler, frequency partition, physical params, and the
    /// fabrication seed carry over unchanged — the sub-device describes
    /// the *same* hardware, restricted to a region, which is what the
    /// partitioned compile path needs for region compiles to agree with
    /// whole-device compiles.
    ///
    /// # Panics
    ///
    /// Panics if any entry of `qubits` is out of range (duplicates are
    /// ignored after the first occurrence, matching `induced_subgraph`).
    pub fn induced_subdevice(&self, qubits: &[usize]) -> Device {
        let (connectivity, to_old) = self.connectivity.induced_subgraph(qubits);
        let specs = to_old.iter().map(|&g| self.qubits[g]).collect();
        Device {
            connectivity,
            qubits: specs,
            coupler: self.coupler,
            partition: self.partition,
            params: self.params,
            seed: self.seed,
        }
    }

    /// Feeds every identity-bearing field of this device into `sink` as
    /// stable 64-bit words (floats as IEEE-754 bits, in a fixed order).
    ///
    /// This is the raw material for device fingerprints (the compile
    /// service hashes the word stream into whole-schedule cache keys):
    /// two devices emit the same stream exactly when every field that
    /// can influence compilation is identical. `Device` and every nested
    /// struct are destructured **exhaustively** — adding a field to any
    /// of them is a compile error here, so a new field can never
    /// silently escape the identity.
    pub fn visit_identity(&self, sink: &mut dyn FnMut(u64)) {
        let Device { connectivity, qubits, coupler, partition, params, seed } = self;
        sink(*seed);
        sink(connectivity.structural_hash());
        sink(qubits.len() as u64);
        for spec in qubits {
            let TransmonSpec { omega_max, anharmonicity, sweet_spot_low, t1_us, t2_us } = *spec;
            for value in [omega_max, anharmonicity, sweet_spot_low, t1_us, t2_us] {
                sink(value.to_bits());
            }
        }
        match *coupler {
            CouplerKind::Fixed => sink(0),
            CouplerKind::Tunable { residual } => {
                sink(1);
                sink(residual.to_bits());
            }
        }
        let FrequencyPartition { parking, exclusion, interaction } = *partition;
        for band in [parking, exclusion, interaction] {
            let Band { lo, hi } = band;
            sink(lo.to_bits());
            sink(hi.to_bits());
        }
        let DeviceParams {
            g0,
            omega_ref,
            t_single_ns,
            flux_settle_ns,
            base_two_qubit_error,
            base_single_qubit_error,
            distance2_coupling_factor,
            flux_noise_slope,
        } = *params;
        for value in [
            g0,
            omega_ref,
            t_single_ns,
            flux_settle_ns,
            base_two_qubit_error,
            base_single_qubit_error,
            distance2_coupling_factor,
            flux_noise_slope,
        ] {
            sink(value.to_bits());
        }
    }
}

/// Builder for [`Device`] (non-consuming configuration, terminal `build`).
///
/// # Example
///
/// ```
/// use fastsc_device::{CouplerKind, Device, DeviceParams};
/// use fastsc_graph::topology;
///
/// let mut b = fastsc_device::DeviceBuilder::new(topology::grid(3, 3));
/// b.seed(11).coupler(CouplerKind::tunable(0.05));
/// let device: Device = b.build();
/// assert!(device.coupler().is_tunable());
/// ```
#[derive(Debug, Clone)]
pub struct DeviceBuilder {
    connectivity: Graph,
    seed: u64,
    omega_max_mean: f64,
    omega_max_std: f64,
    coupler: CouplerKind,
    partition: FrequencyPartition,
    params: DeviceParams,
    t1_us: f64,
    t2_us: f64,
}

impl DeviceBuilder {
    /// Starts a builder over the given connectivity graph.
    pub fn new(connectivity: Graph) -> Self {
        DeviceBuilder {
            connectivity,
            seed: 0,
            // Paper §VI-C: omega_max ~ N(omega_bar, 0.1 GHz); the high
            // sweet spot sits near 7 GHz (Fig. 14 / App. A).
            omega_max_mean: 7.0,
            omega_max_std: 0.1,
            coupler: CouplerKind::Fixed,
            partition: FrequencyPartition::reference(),
            params: DeviceParams::default(),
            t1_us: 25.0,
            t2_us: 20.0,
        }
    }

    /// Seed for fabrication-variation sampling.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Mean and standard deviation of the sampled maximum frequencies.
    ///
    /// # Panics
    ///
    /// Panics if `std < 0`.
    pub fn omega_max_distribution(&mut self, mean: f64, std: f64) -> &mut Self {
        assert!(std >= 0.0, "standard deviation must be non-negative");
        self.omega_max_mean = mean;
        self.omega_max_std = std;
        self
    }

    /// Coupler hardware (default: fixed).
    pub fn coupler(&mut self, coupler: CouplerKind) -> &mut Self {
        self.coupler = coupler;
        self
    }

    /// Frequency partition (default: the paper's reference design).
    pub fn partition(&mut self, partition: FrequencyPartition) -> &mut Self {
        self.partition = partition;
        self
    }

    /// Physical constants (default: [`DeviceParams::default`]).
    pub fn params(&mut self, params: DeviceParams) -> &mut Self {
        self.params = params;
        self
    }

    /// Coherence times applied to every qubit.
    ///
    /// # Panics
    ///
    /// Panics unless both times are positive.
    pub fn coherence(&mut self, t1_us: f64, t2_us: f64) -> &mut Self {
        assert!(t1_us > 0.0 && t2_us > 0.0, "coherence times must be positive");
        self.t1_us = t1_us;
        self.t2_us = t2_us;
        self
    }

    /// Builds the device, sampling per-qubit maximum frequencies.
    pub fn build(&self) -> Device {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let qubits: Vec<TransmonSpec> = (0..self.connectivity.node_count())
            .map(|_| {
                let omega =
                    sampling::gaussian(&mut rng, self.omega_max_mean, self.omega_max_std);
                TransmonSpec {
                    t1_us: self.t1_us,
                    t2_us: self.t2_us,
                    ..TransmonSpec::with_omega_max(omega.max(0.1))
                }
            })
            .collect();
        Device {
            connectivity: self.connectivity.clone(),
            qubits,
            coupler: self.coupler,
            partition: self.partition,
            params: self.params,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_device_shape() {
        let d = Device::grid(3, 3, 1);
        assert_eq!(d.n_qubits(), 9);
        assert_eq!(d.n_couplings(), 12);
        assert!(d.are_coupled(0, 1));
        assert!(!d.are_coupled(0, 8));
        assert_eq!(d.coupler(), CouplerKind::Fixed);
    }

    #[test]
    fn fabrication_variation_is_sampled() {
        let d = Device::grid(4, 4, 5);
        let omegas: Vec<f64> = d.qubits().iter().map(|q| q.omega_max).collect();
        let distinct = omegas.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9);
        assert!(distinct, "all omega_max identical — variation not applied");
        // All within a plausible band around 7 GHz.
        for w in omegas {
            assert!((6.0..8.0).contains(&w), "omega_max = {w}");
        }
    }

    #[test]
    fn visit_identity_is_stable_and_discriminating() {
        let words = |d: &Device| {
            let mut out = Vec::new();
            d.visit_identity(&mut |w| out.push(w));
            out
        };
        let base = Device::grid(3, 3, 7);
        assert_eq!(words(&base), words(&Device::grid(3, 3, 7)));
        assert_ne!(words(&base), words(&Device::grid(3, 3, 8)), "seed must matter");
        assert_ne!(words(&base), words(&Device::linear(9, 7)), "topology must matter");
        let gmon = base.with_coupler(CouplerKind::tunable(0.1));
        assert_ne!(words(&base), words(&gmon), "coupler must matter");
    }

    #[test]
    fn seed_is_recorded() {
        assert_eq!(Device::grid(3, 3, 42).seed(), 42);
        assert_eq!(Device::linear(4, 9).seed(), 9);
        // Derived copies keep the fabrication seed of the original chip.
        let gmon = Device::grid(2, 2, 17).with_coupler(CouplerKind::tunable(0.0));
        assert_eq!(gmon.seed(), 17);
    }

    #[test]
    fn same_seed_same_device() {
        let a = Device::grid(3, 3, 42);
        let b = Device::grid(3, 3, 42);
        for (qa, qb) in a.qubits().iter().zip(b.qubits()) {
            assert_eq!(qa.omega_max, qb.omega_max);
        }
        let c = Device::grid(3, 3, 43);
        let differs = a
            .qubits()
            .iter()
            .zip(c.qubits())
            .any(|(qa, qc)| (qa.omega_max - qc.omega_max).abs() > 1e-12);
        assert!(differs);
    }

    #[test]
    fn calibration_summary_reflects_topology_and_coherence() {
        let mut b = DeviceBuilder::new(fastsc_graph::topology::grid(3, 3));
        b.seed(7).coherence(50.0, 40.0);
        let summary = b.build().calibration_summary();
        assert_eq!((summary.qubits, summary.couplings), (9, 12));
        assert_eq!(summary.max_degree, 4, "the center of a 3x3 mesh has degree 4");
        assert!((summary.mean_degree - 24.0 / 9.0).abs() < 1e-12);
        // Builder coherence is uniform, so mean == min.
        assert_eq!((summary.mean_t1_us, summary.min_t1_us), (50.0, 50.0));
        assert_eq!((summary.mean_t2_us, summary.min_t2_us), (40.0, 40.0));
        // A longer-lived chip summarizes strictly better.
        let default_summary = Device::grid(3, 3, 7).calibration_summary();
        assert!(default_summary.min_t1_us < summary.min_t1_us);
    }

    #[test]
    fn crosstalk_graph_dimensions() {
        let d = Device::grid(3, 3, 0);
        let x = d.crosstalk_graph(1);
        assert_eq!(x.coupling_count(), 12);
        assert_eq!(x.distance(), 1);
    }

    #[test]
    fn builder_customization() {
        let mut b = DeviceBuilder::new(fastsc_graph::topology::linear(5));
        b.seed(9)
            .coupler(CouplerKind::tunable(0.2))
            .coherence(50.0, 40.0)
            .omega_max_distribution(6.8, 0.05);
        let d = b.build();
        assert_eq!(d.n_qubits(), 5);
        assert_eq!(d.coupler().inactive_factor(), 0.2);
        assert_eq!(d.qubit(0).t1_us, 50.0);
        for q in d.qubits() {
            assert!((6.4..7.2).contains(&q.omega_max));
        }
    }

    #[test]
    fn with_coupler_preserves_chip() {
        let d = Device::grid(2, 2, 3);
        let gmon = d.with_coupler(CouplerKind::tunable(0.0));
        assert!(gmon.coupler().is_tunable());
        for (a, b) in d.qubits().iter().zip(gmon.qubits()) {
            assert_eq!(a.omega_max, b.omega_max);
        }
    }

    #[test]
    fn induced_subdevice_restricts_chip() {
        let d = Device::grid(3, 3, 7);
        let block = [0usize, 1, 3, 4];
        let sub = d.induced_subdevice(&block);
        assert_eq!(sub.n_qubits(), 4);
        assert_eq!(sub.n_couplings(), 4, "the 2x2 corner block");
        assert_eq!(sub.seed(), d.seed());
        assert_eq!(sub.coupler(), d.coupler());
        // Specs carry over by global identity (local 2 == global 3).
        assert_eq!(sub.qubit(2).omega_max, d.qubit(3).omega_max);
        // Local edge order follows global edge order restricted to the
        // block, and every local edge maps back to a global edge.
        let expected: Vec<(usize, usize)> = d
            .connectivity()
            .edges()
            .map(|(_, uv)| uv)
            .filter(|&(u, v)| block.contains(&u) && block.contains(&v))
            .collect();
        let local: Vec<(usize, usize)> =
            sub.connectivity().edges().map(|(_, (u, v))| (block[u], block[v])).collect();
        assert_eq!(local, expected);
    }

    #[test]
    fn from_topology_families() {
        use fastsc_graph::topology::Topology;
        let lin = Device::from_topology(Topology::Linear, 9, 0);
        let grid = Device::from_topology(Topology::Grid, 9, 0);
        assert_eq!(lin.n_couplings(), 8);
        assert_eq!(grid.n_couplings(), 12);
        let ex = Device::from_topology(Topology::Express2D { k: 2 }, 16, 0);
        assert!(ex.n_couplings() > grid.n_couplings());
    }
}
