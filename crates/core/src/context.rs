//! Shared per-device compile-time precomputation.
//!
//! Every [`Compiler::compile`](crate::Compiler::compile) call needs the
//! same device-wide structures: the crosstalk graph, the parking
//! assignment, the reachable interaction band, the mean anharmonicity,
//! the per-strategy static colorings/frequencies, and the results of
//! `smt_find` for each color count. None of them depend on the program
//! being compiled, so a compilation service rebuilding them per job wastes
//! almost all of its time — the static Baseline S/G solve alone costs
//! hundreds of milliseconds on a 16-qubit mesh.
//!
//! [`CompileContext`] computes them once per `(device, config)` pair and
//! is shared via [`Arc`] by [`Compiler`](crate::Compiler),
//! [`BatchCompiler`](crate::batch::BatchCompiler), and the bench
//! binaries. All caching is either immutable-after-construction or behind
//! interior locks, so a context can serve many compilation threads at
//! once; and because every cached value is a pure function of its key,
//! schedules compiled through a warm context are bit-identical to
//! schedules compiled from scratch (the determinism suite asserts this).

use crate::config::CompilerConfig;
use crate::error::CompileError;
use crate::frequency;
use fastsc_device::{Band, Device};
use fastsc_graph::coloring;
use fastsc_graph::crosstalk::CrosstalkGraph;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// The program-independent static frequency assignment shared by
/// Baseline S and Baseline G: one Welsh–Powell coloring of the full
/// crosstalk graph, solved once, serving both as the per-coupling
/// frequency table and as Baseline G's tiling pattern.
#[derive(Debug, Clone)]
pub struct StaticAssignment {
    /// `colors[coupling]` — the crosstalk-graph coloring.
    pub colors: Vec<usize>,
    /// Number of distinct colors in `colors`.
    pub color_count: usize,
    /// `freqs[coupling]` — the interaction frequency of each coupling.
    pub freqs: Vec<f64>,
}

/// One `smt_find` memo entry in portable form: the full key as raw
/// IEEE-754 bits plus the solved frequencies, exactly as the persistent
/// artifact store serializes it. Keys travel as bits so `-0.0`/`0.0`
/// and NaN payloads survive a round trip distinct, and a re-imported
/// entry can only ever hit for the identical solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SmtMemoEntry {
    /// Number of frequencies requested.
    pub k: usize,
    /// Band lower edge, raw bits.
    pub band_lo: u64,
    /// Band upper edge, raw bits.
    pub band_hi: u64,
    /// Anharmonicity, raw bits.
    pub alpha: u64,
    /// Solver tolerance, raw bits.
    pub tol: u64,
    /// The solved frequencies (`values.len() == k`).
    pub values: Vec<f64>,
}

/// Memo key for `smt_find` results: the full argument tuple, with floats
/// compared bit-exactly so a hit can only ever return the value the same
/// call would have computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SmtKey {
    k: usize,
    band_lo: u64,
    band_hi: u64,
    alpha: u64,
    tol: u64,
}

impl SmtKey {
    fn new(k: usize, band: Band, alpha: f64, tol: f64) -> Self {
        SmtKey {
            k,
            band_lo: band.lo.to_bits(),
            band_hi: band.hi.to_bits(),
            alpha: alpha.to_bits(),
            tol: tol.to_bits(),
        }
    }
}

/// Per-device precomputation shared across compiles (see the
/// [module docs](self)).
///
/// # Example
///
/// ```
/// use fastsc_core::{CompileContext, Compiler, CompilerConfig, Strategy};
/// use fastsc_device::Device;
/// use fastsc_workloads::Benchmark;
/// use std::sync::Arc;
///
/// let context = Arc::new(
///     CompileContext::new(Device::grid(3, 3, 7), CompilerConfig::default())?,
/// );
/// // Many compilers (e.g. one per service thread) share one context.
/// let a = Compiler::with_context(Arc::clone(&context));
/// let b = Compiler::with_context(Arc::clone(&context));
/// let program = Benchmark::Xeb(9, 3).build(7);
/// let ca = a.compile(&program, Strategy::ColorDynamic)?;
/// let cb = b.compile(&program, Strategy::ColorDynamic)?;
/// assert_eq!(ca.schedule, cb.schedule);
/// # Ok::<(), fastsc_core::CompileError>(())
/// ```
#[derive(Debug)]
pub struct CompileContext {
    device: Device,
    config: CompilerConfig,
    /// The distance-`d` crosstalk graph, built lazily: the partitioned
    /// compile path never needs the whole-device version (regions build
    /// their own small ones).
    xtalk: OnceLock<CrosstalkGraph>,
    parking: Vec<f64>,
    band: Band,
    alpha: f64,
    baseline_n_freqs: Vec<f64>,
    baseline_u_freqs: Vec<f64>,
    /// Baseline S/G static assignment, solved lazily (ColorDynamic-only
    /// traffic never pays for it) and exactly once.
    statics: OnceLock<Result<StaticAssignment, CompileError>>,
    /// Partition-and-stitch state (region subdevices, sub-contexts, cut
    /// maps), solved lazily when `config.partition` asks for it. `None`
    /// when partitioning is disabled or the device does not split.
    partitioned:
        OnceLock<Result<Option<Arc<crate::partition::PartitionedState>>, CompileError>>,
    /// Concurrent `smt_find` memo keyed by `(k, band, alpha, tol)`.
    /// Behind an `Arc` so region sub-contexts of a partitioned device
    /// share the parent's memo: the key includes every input of the
    /// solve, so a region never re-derives a value the whole device (or
    /// a sibling region) already solved.
    smt_memo: Arc<RwLock<HashMap<SmtKey, Arc<Vec<f64>>>>>,
    /// Hard cap on memoized `smt_find` entries (see
    /// [`smt_memo_capacity`](Self::smt_memo_capacity)).
    smt_memo_capacity: usize,
}

/// Default cap on distinct memoized `smt_find` results. Real traffic
/// needs one entry per distinct per-cycle color count — a handful — so a
/// four-digit cap is unreachable except by adversarial batches sweeping
/// `max_colors`, which this bound keeps from growing the memo without
/// limit.
pub const DEFAULT_SMT_MEMO_CAPACITY: usize = 1024;

impl CompileContext {
    /// Builds the context for a `(device, config)` pair.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::InvalidConfig`] when `conflict_threshold`
    /// is 0, `max_colors` is `Some(0)`, or `smt_tolerance` is not
    /// positive (NaN included); then
    /// [`CompileError::FrequencyBandExhausted`] when the parking
    /// assignment cannot be solved or the reachable interaction band is
    /// empty — the same errors (in the same order) a direct compile
    /// would surface.
    pub fn new(device: Device, config: CompilerConfig) -> Result<Self, CompileError> {
        let invalid = |field| Err(CompileError::InvalidConfig { field });
        if config.conflict_threshold == 0 {
            return invalid("conflict_threshold");
        }
        if config.max_colors == Some(0) {
            return invalid("max_colors");
        }
        if config.smt_tolerance.is_nan() || config.smt_tolerance <= 0.0 {
            return invalid("smt_tolerance");
        }
        let tol = config.smt_tolerance;
        let parking = frequency::parking_assignment(&device, tol)?;
        let band = frequency::reachable_interaction_band(&device)?;
        let alpha = frequency::mean_anharmonicity(&device);

        // Baseline N: a quasi-random (golden-ratio hash) per-coupling
        // value, ignoring adjacency entirely — the "separated idle and
        // interaction frequencies" of a conventional compiler, without
        // any crosstalk model. Couplings are exactly the connectivity
        // edges (same indexing), so the tables never need the crosstalk
        // graph.
        let n_couplings = device.connectivity().edge_count();
        let baseline_n_freqs =
            (0..n_couplings).map(|e| Self::baseline_n_frequency(e, band)).collect();
        Ok(Self::from_parts(device, config, parking, band, alpha, baseline_n_freqs))
    }

    /// Baseline N's golden-ratio hash for global coupling index `e` in
    /// `band` — factored out so region sub-contexts of a partitioned
    /// device can inject the *global* table values for their couplings.
    pub(crate) fn baseline_n_frequency(e: usize, band: Band) -> f64 {
        const GOLDEN: f64 = 0.618_033_988_749_895;
        band.lo + ((e as f64 + 1.0) * GOLDEN).fract() * band.width()
    }

    /// A context with every derived table injected rather than computed —
    /// the constructor the partition planner uses to give a region
    /// sub-device the *global* parking restriction, interaction band,
    /// anharmonicity, and Baseline N values, so region compiles agree
    /// with whole-device compiles wherever the schedules overlap.
    pub(crate) fn from_parts(
        device: Device,
        config: CompilerConfig,
        parking: Vec<f64>,
        band: Band,
        alpha: f64,
        baseline_n_freqs: Vec<f64>,
    ) -> Self {
        let n_couplings = device.connectivity().edge_count();
        debug_assert_eq!(parking.len(), device.n_qubits());
        debug_assert_eq!(baseline_n_freqs.len(), n_couplings);
        let baseline_u_freqs = vec![band.center(); n_couplings];
        CompileContext {
            device,
            config,
            xtalk: OnceLock::new(),
            parking,
            band,
            alpha,
            baseline_n_freqs,
            baseline_u_freqs,
            statics: OnceLock::new(),
            partitioned: OnceLock::new(),
            smt_memo: Arc::new(RwLock::new(HashMap::new())),
            smt_memo_capacity: DEFAULT_SMT_MEMO_CAPACITY,
        }
    }

    /// Rebinds this context's SMT memo to `parent`'s, so solves are
    /// shared both ways. Region sub-contexts of a partitioned device use
    /// this: the memo key covers every input of the solve (`k`, band,
    /// anharmonicity, tolerance — all injected from the parent), so
    /// sharing changes no result, only how many times the binary search
    /// runs.
    pub(crate) fn with_shared_smt_memo(mut self, parent: &CompileContext) -> Self {
        self.smt_memo = Arc::clone(&parent.smt_memo);
        self.smt_memo_capacity = parent.smt_memo_capacity;
        self
    }

    /// Overrides the memo cap (default
    /// [`DEFAULT_SMT_MEMO_CAPACITY`]). A capacity of 0 disables
    /// memoization entirely; results stay correct either way, since the
    /// memo is a pure cache.
    pub fn with_smt_memo_capacity(mut self, capacity: usize) -> Self {
        self.smt_memo_capacity = capacity;
        self
    }

    /// The maximum number of `smt_find` results this context will
    /// memoize. Once the memo is full, further *distinct* keys are solved
    /// correctly but not retained, so the memo cannot grow without limit
    /// under adversarial batches (e.g. a `max_colors` sweep).
    pub fn smt_memo_capacity(&self) -> usize {
        self.smt_memo_capacity
    }

    /// The device this context was built for.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The configuration this context was built for.
    pub fn config(&self) -> &CompilerConfig {
        &self.config
    }

    /// The distance-`d` crosstalk graph, built on first use (linear in
    /// coupling count for a fixed `d`; see [`CrosstalkGraph::build`]).
    /// Partitioned compiles never call this on the global context.
    pub fn xtalk(&self) -> &CrosstalkGraph {
        self.xtalk.get_or_init(|| self.device.crosstalk_graph(self.config.crosstalk_distance))
    }

    /// The partition-and-stitch state, built on first use: `None` when
    /// `config.partition` is unset, the crosstalk distance is not 1, or
    /// the partition plan yields a single region (whole-device compile
    /// is used in all three cases).
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError::FrequencyBandExhausted`] from region
    /// sub-context construction.
    pub(crate) fn partitioned(
        &self,
    ) -> Result<Option<Arc<crate::partition::PartitionedState>>, CompileError> {
        self.partitioned.get_or_init(|| crate::partition::PartitionedState::build(self)).clone()
    }

    /// Parking (idle) frequency of every qubit.
    pub fn parking(&self) -> &[f64] {
        &self.parking
    }

    /// The reachable interaction band.
    pub fn band(&self) -> Band {
        self.band
    }

    /// Mean anharmonicity across the device.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The minimum parking-frequency separation between directly coupled
    /// qubits — the worst idle detuning any physical coupling sits at
    /// between gates, i.e. the static figure that bounds this device's
    /// idle-crosstalk floor. Returns `f64::INFINITY` for a device with
    /// no couplings.
    ///
    /// Telemetry layers feed this (with [`band`](Self::band)) into
    /// `fastsc_noise::static_success_estimate` to score shards for
    /// fidelity-aware placement without compiling anything.
    pub fn min_coupled_parking_separation(&self) -> f64 {
        self.device
            .connectivity()
            .edges()
            .map(|(_, (u, v))| (self.parking[u] - self.parking[v]).abs())
            .fold(f64::INFINITY, f64::min)
    }

    /// Baseline N's crowding-unaware per-coupling frequencies.
    pub fn baseline_n_freqs(&self) -> &[f64] {
        &self.baseline_n_freqs
    }

    /// Baseline U's shared per-coupling frequency table.
    pub fn baseline_u_freqs(&self) -> &[f64] {
        &self.baseline_u_freqs
    }

    /// The Baseline S/G static assignment: the full crosstalk graph is
    /// colored **once** and the coloring serves both the frequency table
    /// and the gmon tiling pattern (the seed implementation ran
    /// Welsh–Powell twice per compile).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::FrequencyBandExhausted`] when the static
    /// color count does not fit the interaction band.
    pub fn statics(&self) -> Result<&StaticAssignment, CompileError> {
        self.statics
            .get_or_init(|| {
                let colors = coloring::welsh_powell(self.xtalk().graph());
                let color_count = coloring::color_count(&colors);
                let values = self.smt_frequencies(color_count)?.0;
                let freq_of_color = frequency::freq_of_color_by_multiplicity(&colors, &values);
                let freqs = colors.iter().map(|&c| freq_of_color[c]).collect();
                Ok(StaticAssignment { colors, color_count, freqs })
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// `smt_find(k, band, alpha, tol)` through the concurrent memo:
    /// returns the `k` frequencies (descending) plus whether this call's
    /// solve produced them (`true` on a memo miss whose result this call
    /// installed, or handed back un-memoized because the memo is full).
    ///
    /// Hits are retained up to
    /// [`smt_memo_capacity`](Self::smt_memo_capacity); beyond the cap, distinct keys are still
    /// solved correctly but not memoized. `smt_find` is a pure function
    /// of the key, so a warm hit is bit-identical to a fresh solve. The
    /// solver runs outside the lock; when several threads race on the
    /// same key the first insert wins, every racer observes the identical
    /// value, and only the winner reports `true` — so the flag (and
    /// [`CompileStats::smt_calls`](crate::CompileStats::smt_calls)) does
    /// not depend on thread interleaving. The `smt_solves` metric still
    /// counts every solver run, racing losers included.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError::FrequencyBandExhausted`] from
    /// `smt_find` (errors are not memoized).
    pub fn smt_frequencies(&self, k: usize) -> Result<(Arc<Vec<f64>>, bool), CompileError> {
        let key = SmtKey::new(k, self.band, self.alpha, self.config.smt_tolerance);
        if let Some(hit) = self.read_memo(&key) {
            fastsc_telemetry::metrics().smt_memo_hits.inc();
            return Ok((hit, false));
        }
        let solve_started = std::time::Instant::now();
        let solved =
            Arc::new(frequency::smt_find(k, self.band, self.alpha, self.config.smt_tolerance)?);
        let registry = fastsc_telemetry::metrics();
        registry.smt_solves.inc();
        registry.smt_solve.observe(solve_started.elapsed());
        let mut memo = self.smt_memo.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        let value = match memo.get(&key) {
            // A concurrent solver won the race: its value is canonical,
            // and this call counts as a hit on it.
            Some(existing) => return Ok((Arc::clone(existing), false)),
            None if memo.len() < self.smt_memo_capacity => {
                memo.insert(key, Arc::clone(&solved));
                solved
            }
            // Memo full: hand the caller its solve without retaining it.
            None => solved,
        };
        Ok((value, true))
    }

    /// Adopts a persisted static assignment, skipping the Welsh–Powell
    /// coloring and SMT solve [`statics`](Self::statics) would run.
    /// Returns `false` (and solves cold later) when the assignment fails
    /// structural validation or the statics were already solved.
    ///
    /// Callers key persisted assignments by `(device fingerprint, config
    /// fingerprint)`, so a seeded assignment is the output of the
    /// identical pure solve — bit-identical to what a cold
    /// [`statics`](Self::statics) call would compute. The checks here
    /// are a second line of defense: a damaged artifact that slipped
    /// through its checksum can degrade the warm start but never
    /// produce an assignment a cold solve could not have.
    pub fn seed_statics(&self, statics: StaticAssignment) -> bool {
        let n_couplings = self.device.connectivity().edge_count();
        let valid = statics.colors.len() == n_couplings
            && statics.freqs.len() == n_couplings
            && statics.color_count == coloring::color_count(&statics.colors)
            && statics.freqs.iter().all(|&f| self.band.contains(f));
        valid && self.statics.set(Ok(statics)).is_ok()
    }

    /// The static assignment, if it has been solved (or seeded) — a
    /// non-forcing peek for artifact export: exporting a context never
    /// triggers the solve it exists to skip.
    pub fn export_statics(&self) -> Option<StaticAssignment> {
        self.statics.get().and_then(|r| r.as_ref().ok()).cloned()
    }

    /// Every memoized `smt_find` result in portable form, sorted by key.
    pub fn export_smt_memo(&self) -> Vec<SmtMemoEntry> {
        let memo = self.smt_memo.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut entries: Vec<SmtMemoEntry> = memo
            .iter()
            .map(|(key, values)| SmtMemoEntry {
                k: key.k,
                band_lo: key.band_lo,
                band_hi: key.band_hi,
                alpha: key.alpha,
                tol: key.tol,
                values: (**values).clone(),
            })
            .collect();
        entries.sort_by(|a, b| {
            (a.k, a.band_lo, a.band_hi, a.alpha, a.tol)
                .cmp(&(b.k, b.band_lo, b.band_hi, b.alpha, b.tol))
        });
        entries
    }

    /// Seeds the `smt_find` memo from persisted entries; returns how
    /// many were adopted. An entry is adopted only when its key matches
    /// this context's band, anharmonicity, and tolerance bit-for-bit
    /// (anything else could never be looked up here), its value count
    /// matches `k`, the key is not already memoized (first write wins,
    /// as everywhere in the stack), and the capacity allows it.
    pub fn seed_smt_memo(&self, entries: impl IntoIterator<Item = SmtMemoEntry>) -> usize {
        let mut memo = self.smt_memo.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut adopted = 0;
        for e in entries {
            let key = SmtKey {
                k: e.k,
                band_lo: e.band_lo,
                band_hi: e.band_hi,
                alpha: e.alpha,
                tol: e.tol,
            };
            let relevant = key.band_lo == self.band.lo.to_bits()
                && key.band_hi == self.band.hi.to_bits()
                && key.alpha == self.alpha.to_bits()
                && key.tol == self.config.smt_tolerance.to_bits();
            if relevant
                && e.values.len() == e.k
                && memo.len() < self.smt_memo_capacity
                && !memo.contains_key(&key)
            {
                memo.insert(key, Arc::new(e.values));
                adopted += 1;
            }
        }
        adopted
    }

    fn read_memo(&self, key: &SmtKey) -> Option<Arc<Vec<f64>>> {
        let memo = self.smt_memo.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        memo.get(key).map(Arc::clone)
    }

    /// Number of distinct `smt_find` results currently memoized.
    pub fn smt_memo_len(&self) -> usize {
        self.smt_memo.read().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> CompileContext {
        CompileContext::new(Device::grid(3, 3, 7), CompilerConfig::default()).expect("builds")
    }

    /// Both the context and a compile under every strategy refuse
    /// `config` with `InvalidConfig { field }` instead of panicking.
    fn assert_invalid(config: CompilerConfig, field: &'static str) {
        let device = Device::grid(3, 3, 7);
        let want = CompileError::InvalidConfig { field };
        assert_eq!(CompileContext::new(device.clone(), config).err(), Some(want.clone()));
        let program = fastsc_workloads::Benchmark::Xeb(9, 3).build(7);
        let compiler = crate::Compiler::new(device, config);
        for strategy in crate::Strategy::all() {
            assert_eq!(compiler.compile(&program, strategy).err(), Some(want.clone()));
        }
    }

    #[test]
    fn zero_conflict_threshold_is_an_invalid_config() {
        let config = CompilerConfig { conflict_threshold: 0, ..CompilerConfig::default() };
        assert_invalid(config, "conflict_threshold");
    }

    #[test]
    fn zero_color_budget_is_an_invalid_config() {
        let config = CompilerConfig { max_colors: Some(0), ..CompilerConfig::default() };
        assert_invalid(config, "max_colors");
    }

    #[test]
    fn non_positive_or_nan_smt_tolerance_is_an_invalid_config() {
        for tol in [0.0, -0.0, -1e-3, f64::NAN] {
            let config = CompilerConfig { smt_tolerance: tol, ..CompilerConfig::default() };
            assert_invalid(config, "smt_tolerance");
        }
    }

    #[test]
    fn context_matches_direct_computation() {
        let c = ctx();
        let device = Device::grid(3, 3, 7);
        let tol = CompilerConfig::default().smt_tolerance;
        assert_eq!(
            c.parking(),
            &frequency::parking_assignment(&device, tol).expect("fits")[..]
        );
        let band = frequency::reachable_interaction_band(&device).expect("non-empty");
        assert_eq!(c.band().lo.to_bits(), band.lo.to_bits());
        assert_eq!(c.band().hi.to_bits(), band.hi.to_bits());
        assert_eq!(c.alpha().to_bits(), frequency::mean_anharmonicity(&device).to_bits());
        assert_eq!(c.xtalk().coupling_count(), device.connectivity().edge_count());
    }

    #[test]
    fn statics_solved_once_and_consistent() {
        let c = ctx();
        let first = c.statics().expect("solves").clone();
        let again = c.statics().expect("cached");
        assert_eq!(first.colors, again.colors);
        assert_eq!(first.color_count, coloring::color_count(&first.colors));
        assert_eq!(first.freqs.len(), c.xtalk().coupling_count());
        // The coloring is the plain Welsh–Powell coloring of the graph.
        assert_eq!(first.colors, coloring::welsh_powell(c.xtalk().graph()));
        // Every frequency is in the reachable band.
        for &f in &first.freqs {
            assert!(c.band().contains(f), "{f} outside the interaction band");
        }
    }

    #[test]
    fn smt_memo_hits_return_identical_values() {
        let c = ctx();
        let (first, miss1) = c.smt_frequencies(3).expect("fits");
        let (second, miss2) = c.smt_frequencies(3).expect("fits");
        assert!(miss1, "first call must invoke the solver");
        assert!(!miss2, "second call must hit the memo");
        assert!(Arc::ptr_eq(&first, &second), "hits share the cached allocation");
        let direct = frequency::smt_find(3, c.band(), c.alpha(), c.config().smt_tolerance)
            .expect("fits");
        assert_eq!(first.len(), direct.len());
        for (a, b) in first.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits(), "memo must be bit-identical to a fresh solve");
        }
        assert_eq!(c.smt_memo_len(), 1);
    }

    #[test]
    fn racing_misses_report_exactly_one_solve() {
        use std::sync::Barrier;
        let c = ctx();
        let barrier = Barrier::new(4);
        let solved: Vec<bool> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        c.smt_frequencies(7).expect("fits").1
                    })
                })
                .collect();
            racers.into_iter().map(|racer| racer.join().expect("racer finishes")).collect()
        });
        assert_eq!(
            solved.iter().filter(|&&s| s).count(),
            1,
            "only the racer whose value the memo kept reports a solve: {solved:?}"
        );
        assert_eq!(c.smt_memo_len(), 1);
    }

    #[test]
    fn parking_separation_is_the_worst_coupled_pair() {
        let c = ctx();
        let device = Device::grid(3, 3, 7);
        let by_hand = device
            .connectivity()
            .edges()
            .map(|(_, (u, v))| (c.parking()[u] - c.parking()[v]).abs())
            .fold(f64::INFINITY, f64::min);
        assert_eq!(c.min_coupled_parking_separation().to_bits(), by_hand.to_bits());
        assert!(
            c.min_coupled_parking_separation() > 0.0,
            "coupled qubits must not park on top of each other"
        );
    }

    #[test]
    fn baseline_tables_sized_by_coupling_count() {
        let c = ctx();
        assert_eq!(c.baseline_n_freqs().len(), c.xtalk().coupling_count());
        assert_eq!(c.baseline_u_freqs().len(), c.xtalk().coupling_count());
        for &f in c.baseline_n_freqs() {
            assert!(c.band().contains(f));
        }
        assert!(c.baseline_u_freqs().iter().all(|&f| (f - c.band().center()).abs() < 1e-12));
    }

    #[test]
    fn smt_memo_is_bounded() {
        let c = ctx().with_smt_memo_capacity(3);
        assert_eq!(c.smt_memo_capacity(), 3);
        // An adversarial sweep over distinct color counts: the memo stops
        // retaining at the cap, but every solve stays correct.
        for k in 1..=6 {
            let (value, miss) = c.smt_frequencies(k).expect("band fits");
            assert!(miss, "k={k} is a distinct key, must invoke the solver");
            let direct = frequency::smt_find(k, c.band(), c.alpha(), c.config().smt_tolerance)
                .expect("band fits");
            assert_eq!(value.len(), direct.len());
            for (a, b) in value.iter().zip(&direct) {
                assert_eq!(a.to_bits(), b.to_bits(), "k={k} diverged past the cap");
            }
        }
        assert_eq!(c.smt_memo_len(), 3, "memo must stop growing at its capacity");
        // Keys admitted before the cap still hit.
        let (_, miss) = c.smt_frequencies(1).expect("band fits");
        assert!(!miss, "pre-cap keys stay memoized");
        // Keys past the cap keep re-solving (bounded, not evicting).
        let (_, miss) = c.smt_frequencies(6).expect("band fits");
        assert!(miss, "post-cap keys are not retained");
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let c = ctx().with_smt_memo_capacity(0);
        let (first, miss1) = c.smt_frequencies(2).expect("band fits");
        let (second, miss2) = c.smt_frequencies(2).expect("band fits");
        assert!(miss1 && miss2, "nothing is retained at capacity 0");
        assert_eq!(c.smt_memo_len(), 0);
        for (a, b) in first.iter().zip(second.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn default_capacity_is_generous() {
        assert_eq!(ctx().smt_memo_capacity(), DEFAULT_SMT_MEMO_CAPACITY);
    }

    #[test]
    fn seeded_statics_match_cold_solve_bit_for_bit() {
        let cold = ctx();
        let solved = cold.statics().expect("solves").clone();

        let warm = ctx();
        assert!(warm.seed_statics(solved.clone()), "valid assignment is adopted");
        let served = warm.statics().expect("served from seed");
        assert_eq!(served.colors, solved.colors);
        assert_eq!(served.color_count, solved.color_count);
        let bits = |fs: &[f64]| fs.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&served.freqs), bits(&solved.freqs));
        assert_eq!(warm.smt_memo_len(), 0, "the seed skipped the SMT solve entirely");
    }

    #[test]
    fn seed_statics_rejects_damaged_assignments() {
        let solved = ctx().statics().expect("solves").clone();
        let reject = |mutate: fn(&mut StaticAssignment)| {
            let mut damaged = solved.clone();
            mutate(&mut damaged);
            let c = ctx();
            assert!(!c.seed_statics(damaged), "damaged assignment must be refused");
            // …and the cold solve still works afterwards.
            assert_eq!(c.statics().expect("cold solve").colors, solved.colors);
        };
        reject(|s| {
            s.colors.pop();
            s.freqs.pop();
        });
        reject(|s| s.color_count += 1);
        reject(|s| s.freqs[0] = 100.0); // far outside any interaction band
                                        // Already-solved contexts refuse a late seed.
        let c = ctx();
        let _ = c.statics().expect("solves");
        assert!(!c.seed_statics(solved));
    }

    #[test]
    fn smt_memo_export_import_round_trips_bit_exactly() {
        let warm_source = ctx();
        let (solved, _) = warm_source.smt_frequencies(3).expect("fits");
        let (_, _) = warm_source.smt_frequencies(4).expect("fits");
        let entries = warm_source.export_smt_memo();
        assert_eq!(entries.len(), 2);
        assert!(entries.windows(2).all(|w| w[0].k < w[1].k), "export is sorted");

        let target = ctx();
        assert_eq!(target.seed_smt_memo(entries.clone()), 2);
        assert_eq!(target.smt_memo_len(), 2);
        let (served, miss) = target.smt_frequencies(3).expect("fits");
        assert!(!miss, "the seeded entry must hit");
        for (a, b) in served.iter().zip(solved.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Re-seeding is idempotent (first write wins).
        assert_eq!(target.seed_smt_memo(entries), 0);
    }

    #[test]
    fn seed_smt_memo_filters_irrelevant_and_damaged_entries() {
        let source = ctx();
        let _ = source.smt_frequencies(2).expect("fits");
        let mut entries = source.export_smt_memo();
        // A foreign-band entry: could never be looked up by this context.
        let mut foreign = entries[0].clone();
        foreign.band_lo ^= 1;
        // A damaged entry: value count disagrees with k.
        let mut damaged = entries[0].clone();
        damaged.k = 5;
        entries.push(foreign);
        entries.push(damaged);

        let target = ctx();
        assert_eq!(target.seed_smt_memo(entries), 1, "only the genuine entry lands");
        assert_eq!(target.smt_memo_len(), 1);
        // Capacity bounds seeding exactly like solving.
        let capped = ctx().with_smt_memo_capacity(0);
        assert_eq!(capped.seed_smt_memo(source.export_smt_memo()), 0);
    }

    #[test]
    fn unreachable_band_fails_construction() {
        use fastsc_device::DeviceBuilder;
        let mut b = DeviceBuilder::new(fastsc_graph::topology::grid(2, 2));
        b.seed(0).omega_max_distribution(5.5, 0.0); // below the 6 GHz floor
        let result = CompileContext::new(b.build(), CompilerConfig::default());
        assert!(matches!(result, Err(CompileError::FrequencyBandExhausted { .. })));
    }
}
