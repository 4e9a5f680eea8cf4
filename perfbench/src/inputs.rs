//! Seeded workload inputs. Every job stream the benchmark feeds the
//! stack is a pure function of the workload seed; the stack only ever
//! sees the generated jobs.
//!
//! Every workload draws its job stream from a fixed job set (the paper's
//! Fig. 9 suite on its paper-seed devices, a population of calibrations,
//! the scale ladder on its tier seeds), so schedule quality repeats
//! across seeds while the order, mix and repetition of jobs change.

use fastsc_core::Strategy;
use fastsc_workloads::{scale_tiers, Benchmark, ScaleTier};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Seed of the Fig. 9 devices and programs (`fastsc_bench::SEED`).
pub const PAPER_SEED: u64 = 2020;

/// One `(program, strategy)` job of the Fig. 9 suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PaperJob {
    /// The program.
    pub benchmark: Benchmark,
    /// The strategy it is compiled under.
    pub strategy: Strategy,
}

/// The Fig. 9 suite × all five strategies (110 jobs), suite-major.
pub fn paper_jobs() -> Vec<PaperJob> {
    Benchmark::fig9_suite()
        .into_iter()
        .flat_map(|benchmark| {
            Strategy::all().into_iter().map(move |strategy| PaperJob { benchmark, strategy })
        })
        .collect()
}

/// Side of the smallest square mesh that fits `n` program qubits (the
/// right-sized grid of `fastsc_bench::device_for`).
pub fn grid_side(n: usize) -> usize {
    ((n as f64).sqrt().ceil() as usize).max(2)
}

/// In-place Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// A stream of passes over a fixed job set, each pass a fresh seeded
/// permutation (`paper_direct`, `scale_partitioned`).
#[derive(Debug)]
pub struct PassOrder {
    rng: StdRng,
    order: Vec<usize>,
}

impl PassOrder {
    /// Passes over `n` jobs for workload seed `seed`.
    pub fn new(seed: u64, n: usize) -> Self {
        PassOrder { rng: StdRng::seed_from_u64(seed), order: (0..n).collect() }
    }

    /// The job indices of the next pass.
    pub fn next_pass(&mut self) -> &[usize] {
        shuffle(&mut self.order, &mut self.rng);
        &self.order
    }
}

/// Exponent of the Zipf law `served_mix` draws jobs with.
pub const SERVED_ZIPF_EXPONENT: f64 = 1.0;

/// Skewed draws from the served job pool (`served_mix`): rank `r` of a
/// fixed ranking of the pool has weight `1 / (r + 1)^s`. The ranking is
/// a permutation fixed by [`PAPER_SEED`], not by the workload seed, so
/// every seed draws from the same distribution (hot jobs of every
/// program size); the seed picks the draws.
#[derive(Debug)]
pub struct SkewedDraw {
    rng: StdRng,
    cdf: Vec<f64>,
    ranking: Vec<usize>,
}

impl SkewedDraw {
    /// Draws over a pool of `n` jobs for workload seed `seed`; `stream`
    /// separates the independent streams of concurrent clients.
    pub fn new(seed: u64, stream: u64, n: usize) -> Self {
        let mut ranking: Vec<usize> = (0..n).collect();
        shuffle(&mut ranking, &mut StdRng::seed_from_u64(PAPER_SEED));
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(SERVED_ZIPF_EXPONENT);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        let rng = StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        SkewedDraw { rng, cdf, ranking }
    }

    /// The pool index of the next job.
    pub fn next_job(&mut self) -> usize {
        let u: f64 = self.rng.gen();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.ranking[rank]
    }
}

/// One `cold_calibration` job: a fresh calibration of a square mesh and
/// the paper program compiled on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Calibration {
    /// Grid side.
    pub side: usize,
    /// Crosstalk distance the context is built for.
    pub distance: usize,
    /// The fabrication seed of this calibration.
    pub device_seed: u64,
    /// Index into [`COLD_CYCLE`] of this job's shape and program.
    pub shape: usize,
}

/// The repeating shape cycle of `cold_calibration`: sides 3–5 at
/// crosstalk distance 1 (static color counts k = 9–10). Each shape
/// compiles one fixed paper program that fills the device, so schedule
/// quality varies only with the calibration.
///
/// Distance-2 calibrations (3x3, k = 12) are left out: their statics
/// take 1.2–6 s each depending on the calibration, so a run holds only a
/// handful of them, and with them in the cycle throughput varied by 29%
/// (interquartile range over median) across five seeds.
pub const COLD_CYCLE: [(usize, usize, Benchmark); 3] =
    [(3, 1, Benchmark::Qaoa(9)), (4, 1, Benchmark::Bv(16)), (5, 1, Benchmark::Xeb(25, 10))];

/// Calibrations per shape in the `cold_calibration` population: one
/// round of the population takes 4–8 s on a two-vCPU VM, so a run holds
/// a few whole rounds (one pass each).
pub const COLD_POPULATION: usize = 8;

/// The `cold_calibration` job stream of one workload seed: rounds over a
/// fixed population of [`COLD_POPULATION`] calibrations per shape (their
/// fabrication seeds drawn from [`PAPER_SEED`]), each round in a fresh
/// seeded order and dealt as shape cycles. Every job builds a fresh
/// context, so a calibration met again in a later round compiles just as
/// cold. A run ends on a round boundary, so every run meets each
/// calibration equally often and the seed changes only their order:
/// the calibrations' own spread in solve time (k = 10 statics take
/// 180–450 ms) stays out of the run-to-run spread.
#[derive(Debug)]
pub struct Calibrations {
    population: Vec<Vec<u64>>,
    order: Vec<Vec<usize>>,
    rng: StdRng,
    index: usize,
}

/// Fabrication seeds of the `cold_calibration` population, per shape,
/// drawn from [`PAPER_SEED`].
fn population_seeds() -> Vec<Vec<u64>> {
    let mut fab = StdRng::seed_from_u64(PAPER_SEED);
    COLD_CYCLE.iter().map(|_| (0..COLD_POPULATION).map(|_| fab.next_u64()).collect()).collect()
}

/// Every calibration of the `cold_calibration` population once, in a
/// fixed order (shape-major), whatever the workload seed.
pub fn cold_population() -> Vec<Calibration> {
    population_seeds()
        .into_iter()
        .enumerate()
        .flat_map(|(shape, seeds)| {
            let (side, distance, _) = COLD_CYCLE[shape];
            seeds.into_iter().map(move |device_seed| Calibration {
                side,
                distance,
                device_seed,
                shape,
            })
        })
        .collect()
}

impl Calibrations {
    /// The calibration stream of workload seed `seed`.
    pub fn new(seed: u64) -> Self {
        let population = population_seeds();
        let order = vec![(0..COLD_POPULATION).collect(); COLD_CYCLE.len()];
        Calibrations { population, order, rng: StdRng::seed_from_u64(seed), index: 0 }
    }

    /// Whether the next calibration starts a new round of the population.
    pub fn at_round_start(&self) -> bool {
        self.index.is_multiple_of(COLD_POPULATION * COLD_CYCLE.len())
    }
}

impl Iterator for Calibrations {
    type Item = Calibration;

    fn next(&mut self) -> Option<Calibration> {
        let round = COLD_POPULATION * COLD_CYCLE.len();
        if self.index.is_multiple_of(round) {
            for order in &mut self.order {
                shuffle(order, &mut self.rng);
            }
        }
        let shape = self.index % COLD_CYCLE.len();
        let slot = (self.index % round) / COLD_CYCLE.len();
        let (side, distance, _) = COLD_CYCLE[shape];
        self.index += 1;
        let device_seed = self.population[shape][self.order[shape][slot]];
        Some(Calibration { side, distance, device_seed, shape })
    }
}

/// One pass of `scale_partitioned`: the 256- and 1024-qubit tiers under
/// every strategy, each tier repeated `1024 / qubits` times (the 256
/// tier four times) so both tiers take a similar share of the compile
/// time and neither tier's latencies sit alone in a thin tail of the
/// job mix.
pub fn scale_jobs() -> Vec<(ScaleTier, Strategy)> {
    scale_tiers()
        .into_iter()
        .filter(|tier| tier.n_qubits() >= 256)
        .flat_map(|tier| {
            let repeats = 1024 / tier.n_qubits();
            (0..repeats).flat_map(move |_| Strategy::all().into_iter().map(move |s| (tier, s)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passes(seed: u64) -> Vec<Vec<usize>> {
        let mut order = PassOrder::new(seed, 110);
        (0..3).map(|_| order.next_pass().to_vec()).collect()
    }

    fn draws(seed: u64, stream: u64) -> Vec<usize> {
        let mut draw = SkewedDraw::new(seed, stream, 110);
        (0..200).map(|_| draw.next_job()).collect()
    }

    fn calibrations(seed: u64) -> Vec<Calibration> {
        Calibrations::new(seed).take(2 * COLD_POPULATION * COLD_CYCLE.len()).collect()
    }

    #[test]
    fn one_seed_reproduces_identical_inputs() {
        assert_eq!(passes(7), passes(7));
        assert_eq!(draws(7, 0), draws(7, 0));
        assert_eq!(calibrations(7), calibrations(7));
    }

    #[test]
    fn two_seeds_produce_different_inputs() {
        assert_ne!(passes(7), passes(8));
        assert_ne!(draws(7, 0), draws(8, 0));
        assert_ne!(draws(7, 0), draws(7, 1), "concurrent clients draw distinct streams");
        assert_ne!(calibrations(7), calibrations(8));
    }

    #[test]
    fn passes_are_permutations() {
        for pass in passes(3) {
            let mut sorted = pass.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..110).collect::<Vec<_>>());
        }
    }

    #[test]
    fn draws_are_skewed_over_the_whole_pool() {
        let mut draw = SkewedDraw::new(11, 0, 110);
        let mut counts = vec![0usize; 110];
        for _ in 0..20_000 {
            counts[draw.next_job()] += 1;
        }
        let hottest = *counts.iter().max().unwrap();
        // Zipf(1) over 110 ranks: the top rank takes ~19% of draws.
        assert!(hottest > 20_000 / 8, "hottest job drew {hottest}");
        assert!(counts.iter().filter(|&&c| c > 0).count() > 100);
    }

    #[test]
    fn calibrations_cycle_through_the_shapes_and_the_population() {
        let stream = calibrations(5);
        for (i, c) in stream.iter().enumerate() {
            let (side, distance, benchmark) = COLD_CYCLE[i % COLD_CYCLE.len()];
            assert_eq!((c.side, c.distance, c.shape), (side, distance, i % COLD_CYCLE.len()));
            assert_eq!(benchmark.n_qubits(), side * side);
        }
        // Each round meets every calibration of the population once.
        let (first, second) = stream.split_at(stream.len() / 2);
        let seeds = |round: &[Calibration]| {
            let mut s: Vec<u64> = round.iter().map(|c| c.device_seed).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(seeds(first), seeds(second));
        assert_ne!(first, second, "each round is dealt in a fresh order");
        let mut distinct = seeds(first);
        distinct.dedup();
        assert_eq!(distinct.len(), COLD_POPULATION * COLD_CYCLE.len());
        // ... and that is the population every seed draws from.
        let population: Vec<Calibration> = cold_population();
        assert_eq!(seeds(&population), seeds(first));
    }

    #[test]
    fn job_sets_have_the_paper_sizes() {
        assert_eq!(paper_jobs().len(), 110);
        let scale = scale_jobs();
        assert_eq!(scale.len(), 25);
        assert_eq!(scale.iter().filter(|(t, _)| t.n_qubits() == 1024).count(), 5);
        assert_eq!(grid_side(4), 2);
        assert_eq!(grid_side(5), 3);
        assert_eq!(grid_side(25), 5);
    }
}
