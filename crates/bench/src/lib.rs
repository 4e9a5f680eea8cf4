//! Shared harness utilities for the per-figure reproduction binaries.
//!
//! Every figure and table of the paper's evaluation maps to one binary in
//! `src/bin/`, named after it (README, "Paper figures"); this library
//! holds the pieces they share: device construction at benchmark sizes,
//! strategy sweeps, and small table/statistics helpers. [`record`] and
//! [`regression`] serve the two bench targets and `bench_guard`: one
//! interleaved sampler writing `BENCH_compile.json`, and the gate check
//! CI runs over it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod record;
pub mod regression;

use fastsc_core::{
    CompileContext, CompileError, CompiledProgram, Compiler, CompilerConfig, Strategy,
};
use fastsc_device::{CouplerKind, Device};
use fastsc_noise::{estimate, NoiseConfig, SuccessReport};
use fastsc_sim::simulate_success;
use fastsc_workloads::Benchmark;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The seed used across all reproduction binaries (fabrication variation,
/// random workloads). Change it to check robustness of the shapes.
pub const SEED: u64 = 2020;

/// Builds the smallest square mesh that fits `n` program qubits.
pub fn device_for(n: usize, seed: u64) -> Device {
    let side = (n as f64).sqrt().ceil() as usize;
    Device::grid(side.max(2), side.max(2), seed)
}

/// Result of running one (benchmark, strategy) cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The strategy that produced it.
    pub strategy: Strategy,
    /// Compiled program (schedule + stats).
    pub compiled: CompiledProgram,
    /// Estimated worst-case success report.
    pub report: SuccessReport,
}

/// Process-wide [`CompileContext`] cache: the figure binaries sweep many
/// `(benchmark, strategy)` cells over a handful of `(device, config)`
/// pairs, and without sharing they would rebuild the parking assignment
/// and static colorings (the dominant cost) for every cell.
///
/// The key is the `Debug` rendering of the device and configuration —
/// verbose, but complete (it covers every sampled qubit parameter), so
/// two cells share a context only when a fresh build would be
/// bit-identical anyway.
fn shared_context(
    device: &Device,
    config: &CompilerConfig,
) -> Result<Arc<CompileContext>, CompileError> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<CompileContext>>>> = OnceLock::new();
    let key = format!("{device:?}/{config:?}");
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    {
        let cache = cache.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = cache.get(&key) {
            return Ok(Arc::clone(hit));
        }
    }
    let built = Arc::new(CompileContext::new(device.clone(), *config)?);
    let mut cache = cache.lock().unwrap_or_else(PoisonError::into_inner);
    Ok(Arc::clone(cache.entry(key).or_insert(built)))
}

/// Compiles `benchmark` under `strategy` on the right-sized device and
/// estimates its success.
///
/// Baseline G runs on a tunable-coupler copy of the chip with the given
/// residual factor; all other strategies use fixed couplers. Device-wide
/// precomputation is reused across cells via a shared [`CompileContext`].
///
/// # Errors
///
/// Propagates compiler errors.
pub fn run_cell(
    benchmark: Benchmark,
    strategy: Strategy,
    config: &CompilerConfig,
    gmon_residual: f64,
) -> Result<CellResult, CompileError> {
    let base = device_for(benchmark.n_qubits(), SEED);
    let device = if strategy == Strategy::BaselineG {
        base.with_coupler(CouplerKind::tunable(gmon_residual))
    } else {
        base
    };
    let compiler = Compiler::with_context(shared_context(&device, config)?);
    let compiled = compiler.compile(&benchmark.build(SEED), strategy)?;
    let report = estimate(compiler.device(), &compiled.schedule, &NoiseConfig::default());
    Ok(CellResult { strategy, compiled, report })
}

/// Fig. 9's cells: the estimated worst-case success of each strategy, in
/// [`Strategy::all`] order (N, G, U, S, ColorDynamic), on each benchmark
/// of [`Benchmark::fig9_suite`], Baseline G with ideal couplers.
///
/// # Errors
///
/// The first compile error of any cell.
pub fn fig09_success_rates(
    config: &CompilerConfig,
) -> Result<Vec<(Benchmark, [f64; 5])>, CompileError> {
    let mut rows = Vec::new();
    for benchmark in Benchmark::fig9_suite() {
        let mut success = [0.0; 5];
        for (p, strategy) in success.iter_mut().zip(Strategy::all()) {
            *p = run_cell(benchmark, strategy, config, 0.0)?.report.p_success;
        }
        rows.push((benchmark, success));
    }
    Ok(rows)
}

/// The geomean of ColorDynamic's success over idealised Baseline G's
/// across [`fig09_success_rates`] rows, skipping rows where either falls
/// below the paper's 1e-4 plot floor (the paper reports ~parity).
pub fn fig09_cd_vs_g(rows: &[(Benchmark, [f64; 5])]) -> f64 {
    let ratios: Vec<f64> = rows
        .iter()
        .filter(|(_, p)| p[1] > 1e-4 && p[4] > 1e-4)
        .map(|(_, p)| p[4] / p[1])
        .collect();
    geomean(&ratios, 1e-6)
}

/// One §VI-C cell: a compiled program's worst-case success heuristic
/// (Eq. 4) next to its Monte-Carlo simulated success.
#[derive(Debug, Clone)]
pub struct HeuristicRow {
    /// The benchmark compiled.
    pub benchmark: Benchmark,
    /// The strategy it was compiled under.
    pub strategy: Strategy,
    /// Eq. 4's estimated success.
    pub heuristic: f64,
    /// The simulated success (mean over trajectories).
    pub simulated: f64,
    /// The standard error of `simulated`.
    pub std_error: f64,
}

/// The §VI-C validation that `validation_heuristic` prints: every row,
/// and the summary figures the paper's claim rests on.
#[derive(Debug, Clone)]
pub struct HeuristicValidation {
    /// Trajectories simulated per row.
    pub trajectories: usize,
    /// ColorDynamic, Baseline U and Baseline S rows, per benchmark.
    pub rows: Vec<HeuristicRow>,
    /// Pearson correlation of the log-successes, heuristic vs simulated.
    pub log_r: f64,
    /// The largest `|log10(heuristic / simulated)|` over all rows.
    pub max_log10_gap: f64,
    /// Benchmarks where ColorDynamic's heuristic is highest.
    pub cd_first_heuristic: usize,
    /// Benchmarks where ColorDynamic's simulated success is highest,
    /// within 0.03.
    pub cd_first_sim: usize,
}

impl HeuristicValidation {
    /// The number of benchmarks validated.
    pub fn benchmarks(&self) -> usize {
        self.rows.len() / HEURISTIC_STRATEGIES.len()
    }
}

/// The strategies the §VI-C validation compares, ColorDynamic first.
const HEURISTIC_STRATEGIES: [Strategy; 3] =
    [Strategy::ColorDynamic, Strategy::BaselineU, Strategy::BaselineS];

/// §VI-C: compiles seven small benchmarks under ColorDynamic, Baseline U
/// and Baseline S, and holds each schedule's worst-case success heuristic
/// (Eq. 4) against a 200-trajectory noisy simulation.
pub fn validation_heuristic() -> HeuristicValidation {
    let benchmarks = [
        Benchmark::Bv(4),
        Benchmark::Bv(9),
        Benchmark::Ising(4),
        Benchmark::Qgan(9),
        Benchmark::Xeb(4, 5),
        Benchmark::Xeb(9, 5),
        Benchmark::Xeb(9, 10),
    ];
    let trajectories = 200;
    let mut rows = Vec::new();
    let mut cd_first_heuristic = 0;
    let mut cd_first_sim = 0;
    for benchmark in benchmarks {
        let compiler =
            Compiler::new(device_for(benchmark.n_qubits(), SEED), CompilerConfig::default());
        let first = rows.len();
        for strategy in HEURISTIC_STRATEGIES {
            let compiled =
                compiler.compile(&benchmark.build(SEED), strategy).expect("compiles");
            let heuristic =
                estimate(compiler.device(), &compiled.schedule, &NoiseConfig::default());
            let sim = simulate_success(compiler.device(), &compiled.schedule, trajectories, 99);
            rows.push(HeuristicRow {
                benchmark,
                strategy,
                heuristic: heuristic.p_success,
                simulated: sim.success,
                std_error: sim.std_error,
            });
        }
        let [cd, u, s] = [0, 1, 2].map(|i| &rows[first + i]);
        if cd.heuristic >= u.heuristic && cd.heuristic >= s.heuristic {
            cd_first_heuristic += 1;
        }
        if cd.simulated >= u.simulated - 0.03 && cd.simulated >= s.simulated - 0.03 {
            cd_first_sim += 1;
        }
    }
    // Pearson correlation of log-successes.
    let logs: Vec<(f64, f64)> =
        rows.iter().map(|r| (r.heuristic.max(1e-6).ln(), r.simulated.max(1e-6).ln())).collect();
    let n = logs.len() as f64;
    let (mh, ms) =
        (logs.iter().map(|p| p.0).sum::<f64>() / n, logs.iter().map(|p| p.1).sum::<f64>() / n);
    let cov: f64 = logs.iter().map(|p| (p.0 - mh) * (p.1 - ms)).sum();
    let vh: f64 = logs.iter().map(|p| (p.0 - mh).powi(2)).sum();
    let vs: f64 = logs.iter().map(|p| (p.1 - ms).powi(2)).sum();
    let max_log10_gap = rows
        .iter()
        .map(|r| (r.heuristic.max(1e-6) / r.simulated.max(1e-6)).log10().abs())
        .fold(0.0f64, f64::max);
    HeuristicValidation {
        trajectories,
        rows,
        log_r: cov / (vh * vs).sqrt(),
        max_log10_gap,
        cd_first_heuristic,
        cd_first_sim,
    }
}

/// Geometric mean of strictly positive values; zeros/negatives are clamped
/// to `floor` first (the paper excludes points below its 1e-4 plot floor).
pub fn geomean(values: &[f64], floor: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = values.iter().map(|&v| v.max(floor).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Formats a probability the way the paper's log-scale plots read:
/// scientific below 1e-2, fixed otherwise.
pub fn fmt_p(p: f64) -> String {
    if p == 0.0 {
        "<1e-9".to_owned()
    } else if p < 1e-2 {
        format!("{p:.2e}")
    } else {
        format!("{p:.4}")
    }
}

/// Prints a Markdown-style table row.
pub fn row<S: AsRef<str>>(cells: &[S], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{:>w$}", c.as_ref(), w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_sizes_cover_suite() {
        assert_eq!(device_for(4, 1).n_qubits(), 4);
        assert_eq!(device_for(9, 1).n_qubits(), 9);
        assert_eq!(device_for(16, 1).n_qubits(), 16);
        assert_eq!(device_for(25, 1).n_qubits(), 25);
        // Non-square program sizes get the next square up.
        assert_eq!(device_for(5, 1).n_qubits(), 9);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 1.0], 1e-9) - 1.0).abs() < 1e-12);
        assert!((geomean(&[0.1, 10.0], 1e-9) - 1.0).abs() < 1e-9);
        // Floor applies.
        assert!(geomean(&[0.0, 1.0], 1e-4) >= 1e-2 - 1e-9);
    }

    #[test]
    fn run_cell_smoke() {
        let cell = run_cell(
            Benchmark::Xeb(4, 3),
            Strategy::ColorDynamic,
            &CompilerConfig::default(),
            0.0,
        )
        .expect("compiles");
        assert!(cell.report.p_success > 0.0);
        assert_eq!(cell.strategy, Strategy::ColorDynamic);
    }

    #[test]
    fn fmt_p_switches_notation() {
        assert_eq!(fmt_p(0.0), "<1e-9");
        assert!(fmt_p(0.5).starts_with("0.5"));
        assert!(fmt_p(1e-3).contains('e'));
    }
}
