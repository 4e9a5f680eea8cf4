//! Run statistics: per-job tallies, percentiles, schedule-quality
//! aggregates, process memory, and the metric tables the run prints.

use crate::check::check_schedule;
use crate::clock::{REFERENCE_NOMINAL_S, REFERENCE_WINDOW, SAMPLE_EVERY_S};
use fastsc_core::{CompiledProgram, Strategy};
use fastsc_device::Device;
use fastsc_noise::{estimate, NoiseConfig, Schedule};
use std::collections::BTreeMap;

/// The Eq. 4 success floor the paper plots against (as in
/// `fastsc_bench::geomean`): estimates below it count as the floor.
pub const SUCCESS_FLOOR: f64 = 1e-4;

/// Successful jobs a latency window holds at least: enough that its p99
/// has ten jobs beyond it.
pub const LATENCY_WINDOW: usize = 1000;

/// What the timed phase of one run observed, job by job. Job times are
/// CPU time, each rescaled to the nominal host speed by the median of the
/// last [`REFERENCE_WINDOW`] reference samples taken between jobs (see
/// [`crate::clock`]). Its memory does not grow with the job count:
/// latencies are kept for the current window only and reduced to
/// percentiles when the window closes, so `peak_rss_mb` does not follow
/// throughput.
#[derive(Debug, Default)]
pub struct Tally {
    /// Jobs started.
    pub attempted: u64,
    /// Jobs that errored, panicked, were refused, timed out, or failed an
    /// output check.
    pub failed: u64,
    /// Jobs whose output failed an output check (a subset of `failed`).
    pub wrong: u64,
    /// Jobs that succeeded.
    pub succeeded: u64,
    /// Time the timed phase spent in jobs so far, seconds, as measured.
    pub busy_s: f64,
    /// The same, each job's time rescaled (see [`Tally::spent`]).
    scaled_busy_s: f64,
    /// Latency of every successful job of the current window, seconds.
    window_latencies_s: Vec<f64>,
    /// Every reference sample, seconds.
    references: Vec<f64>,
    /// `busy_s` at which the next reference sample is due.
    next_reference: f64,
    /// Throughput (successful jobs per second) of each completed pass.
    passes: Vec<f64>,
    /// p50 and p99 latency of each completed window.
    windows: Vec<[f64; 2]>,
    /// Successful jobs and `scaled_busy_s` when the current pass began.
    pass_start: (u64, f64),
    /// Failure reasons with their counts, for the report.
    pub reasons: BTreeMap<String, u64>,
}

impl Tally {
    /// Records a successful job.
    pub fn ok(&mut self, latency_s: f64) {
        self.attempted += 1;
        self.succeeded += 1;
        self.window_latencies_s.push(latency_s);
    }

    /// Records a failed job under `reason`.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        *self.reasons.entry(reason.into()).or_insert(0) += 1;
    }

    /// Records a job whose output failed an output check.
    pub fn wrong(&mut self, reason: impl Into<String>) {
        self.wrong += 1;
        self.fail(reason);
    }

    /// Adds another tally's jobs and closed passes and windows (not its
    /// phase length or open window).
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.succeeded += other.succeeded;
        self.passes.extend(other.passes);
        self.windows.extend(other.windows);
        self.references.extend(other.references);
        for (reason, n) in other.reasons {
            *self.reasons.entry(reason).or_insert(0) += n;
        }
    }

    /// Whether a reference sample is due: every [`SAMPLE_EVERY_S`] of job
    /// time, starting with the first job.
    pub fn reference_due(&self) -> bool {
        self.busy_s >= self.next_reference
    }

    /// Records a reference sample ([`crate::clock::reference_s`], run on
    /// the thread that runs the jobs).
    pub fn reference(&mut self, reference_s: f64) {
        self.references.push(reference_s);
        self.next_reference = self.busy_s + SAMPLE_EVERY_S;
    }

    /// Records `cpu_s` seconds of job time (successful or not) and returns
    /// it rescaled to the nominal host speed, by the median of the last
    /// [`REFERENCE_WINDOW`] reference samples: the host's speed around
    /// the job.
    ///
    /// # Panics
    ///
    /// If no reference sample has been taken yet.
    pub fn spent(&mut self, cpu_s: f64) -> f64 {
        let recent = &self.references[self.references.len().saturating_sub(REFERENCE_WINDOW)..];
        assert!(!recent.is_empty(), "a reference sample before the first job");
        let scaled = cpu_s * REFERENCE_NOMINAL_S / median(recent);
        self.busy_s += cpu_s;
        self.scaled_busy_s += scaled;
        scaled
    }

    /// Closes a pass: one round over the workload's job set. Records its
    /// throughput and, once the current latency window holds
    /// [`LATENCY_WINDOW`] jobs, closes the window too: records its
    /// percentiles and forgets its latencies.
    pub fn end_pass(&mut self) {
        let (ok, busy) = self.pass_start;
        self.passes.push((self.succeeded - ok) as f64 / (self.scaled_busy_s - busy));
        self.pass_start = (self.succeeded, self.scaled_busy_s);
        if self.window_latencies_s.len() >= LATENCY_WINDOW {
            self.close_window();
        }
    }

    /// Closes the current latency window, if it holds any job: records
    /// its percentiles and forgets its latencies. A workload whose passes
    /// are too few to fill [`LATENCY_WINDOW`] closes one per pass.
    pub fn close_window(&mut self) {
        if !self.window_latencies_s.is_empty() {
            self.windows.push([0.5, 0.99].map(|q| percentile(&self.window_latencies_s, q)));
            self.window_latencies_s.clear();
        }
    }

    /// Records a window of wall time as one pass and one latency window:
    /// its throughput and the latencies of the jobs that finished in it,
    /// as measured (for workloads timed in wall time).
    pub fn push_window(&mut self, jobs_per_s: f64, latencies_s: &[f64]) {
        self.passes.push(jobs_per_s);
        self.window_latencies_s.extend_from_slice(latencies_s);
        self.close_window();
    }

    /// Median reference time of the timed phase, seconds.
    pub fn reference_s(&self) -> f64 {
        median(&self.references)
    }

    /// How many closed windows the latency percentiles rest on (0: they
    /// are taken over every job).
    pub fn windows(&self) -> usize {
        self.windows.len()
    }

    /// Latency percentile `q` (0.5 or 0.99), seconds: the median over
    /// closed windows of each one's nearest-rank percentile, so a window
    /// the host disturbs does not move it; the jobs of a last, unfilled
    /// window are left out. A phase too short to fill a window reports
    /// the percentile over all its jobs.
    pub fn latency_s(&self, q: f64) -> f64 {
        if self.windows.is_empty() {
            return percentile(&self.window_latencies_s, q);
        }
        let i = usize::from(q > 0.5);
        median(&self.windows.iter().map(|w| w[i]).collect::<Vec<_>>())
    }

    /// Successful jobs per second of the timed phase: the median over
    /// its passes, so a pass the host disturbs does not move it.
    pub fn jobs_per_s(&self) -> f64 {
        median(&self.passes)
    }

    /// Share of attempted jobs that succeeded (`1 - error_rate`).
    pub fn ok_ratio(&self) -> f64 {
        self.succeeded as f64 / self.attempted.max(1) as f64
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of `values`; `NaN` when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Geometric mean with every value clamped to at least `floor`.
pub fn geomean(values: &[f64], floor: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.max(floor).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Schedule quality of the distinct programs one run compiled, one entry
/// per program: ColorDynamic's and Baseline U's Eq. 4 success estimates
/// and ColorDynamic's depth.
#[derive(Debug, Default)]
pub struct Quality {
    /// `(ColorDynamic success, Baseline U success, ColorDynamic depth)`.
    pub programs: Vec<(f64, f64, usize)>,
}

impl Quality {
    /// Geometric mean of ColorDynamic's success.
    pub fn success_geomean(&self) -> f64 {
        let cd: Vec<f64> = self.programs.iter().map(|p| p.0).collect();
        geomean(&cd, SUCCESS_FLOOR)
    }

    /// Geometric mean over programs of ColorDynamic ÷ Baseline U success,
    /// both floored.
    pub fn gain_vs_u(&self) -> f64 {
        let gains: Vec<f64> = self
            .programs
            .iter()
            .map(|p| p.0.max(SUCCESS_FLOOR) / p.1.max(SUCCESS_FLOOR))
            .collect();
        geomean(&gains, f64::MIN_POSITIVE)
    }

    /// Mean ColorDynamic depth in cycles.
    pub fn depth_mean(&self) -> f64 {
        self.programs.iter().map(|p| p.2 as f64).sum::<f64>() / self.programs.len() as f64
    }
}

/// The ColorDynamic and Baseline U schedule of each program, as first
/// produced in a run, kept for the untimed quality estimate.
#[derive(Debug, Default)]
pub struct QualityInputs {
    cd: BTreeMap<usize, (Device, Schedule)>,
    u: BTreeMap<usize, Schedule>,
}

impl QualityInputs {
    /// Keeps `schedule` when it is the first ColorDynamic or Baseline U
    /// schedule of `program`.
    pub fn record(
        &mut self,
        program: usize,
        strategy: Strategy,
        device: &Device,
        schedule: &Schedule,
    ) {
        match strategy {
            Strategy::ColorDynamic => {
                self.cd.entry(program).or_insert_with(|| (device.clone(), schedule.clone()));
            }
            Strategy::BaselineU => {
                self.u.entry(program).or_insert_with(|| schedule.clone());
            }
            _ => {}
        }
    }

    /// Output-checks `compiled` (at crosstalk distance 1), keeps its
    /// schedule as [`QualityInputs::record`] does, and hands it back.
    /// Warm workloads record in set-up, so that the timed phase keeps
    /// nothing that outlives a job: what it keeps shifts the heap layout
    /// the compiles run over, and with it their speed, by the order the
    /// seed deals jobs in.
    ///
    /// # Errors
    ///
    /// The first violation of the schedule.
    pub fn record_checked(
        &mut self,
        program: usize,
        strategy: Strategy,
        device: &Device,
        compiled: CompiledProgram,
    ) -> Result<CompiledProgram, String> {
        check_schedule(device, &compiled.schedule, strategy, 1)
            .map_err(|v| format!("output check: {v}"))?;
        self.record(program, strategy, device, &compiled.schedule);
        Ok(compiled)
    }

    /// Quality over the programs with both schedules, from the Eq. 4
    /// estimator.
    pub fn quality(&self) -> Quality {
        let p =
            |device, schedule| estimate(device, schedule, &NoiseConfig::default()).p_success;
        Quality {
            programs: self
                .cd
                .iter()
                .filter_map(|(k, (device, cd))| {
                    Some((p(device, cd), p(device, self.u.get(k)?), cd.depth()))
                })
                .collect(),
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets the peak-RSS watermark so the next workload in the same
/// process reports its own peak. Returns whether the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// One end-to-end metric: name, unit, direction (`true` = higher is
/// better). `BENCHMARK.json` lists the same names, units and directions.
pub const END_TO_END: [(&str, &str, bool); 9] = [
    ("setup_s", "s", false),
    ("jobs_per_s", "1/s", true),
    ("latency_p50_ms", "ms", false),
    ("latency_p99_ms", "ms", false),
    ("jobs_ok_ratio", "ratio", true),
    ("success_geomean", "probability", true),
    ("success_gain_vs_u", "ratio", true),
    ("depth_mean", "cycles", false),
    ("peak_rss_mb", "MiB", false),
];

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Whether higher values are better.
    pub higher_is_better: bool,
    /// The measured value.
    pub value: f64,
    /// How many samples the value rests on.
    pub samples: u64,
}

/// Everything a run reports: metric values with their sample counts,
/// and the job accounting of the final JSON line.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Jobs attempted in the measured phase.
    pub attempted: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Whether every output check passed.
    pub correct: bool,
    /// Failure reasons with counts.
    pub reasons: BTreeMap<String, u64>,
    /// Free-form lines printed under the table.
    pub notes: Vec<String>,
}

impl Report {
    /// A report carrying `tally`'s job accounting and no metrics yet.
    pub fn from_tally(tally: &Tally) -> Report {
        Report {
            metrics: Vec::new(),
            attempted: tally.attempted,
            failed: tally.failed,
            correct: tally.wrong == 0,
            reasons: tally.reasons.clone(),
            notes: Vec::new(),
        }
    }

    /// The end-to-end report of a run.
    pub fn end_to_end(setup_s: &[f64], tally: &Tally, quality: &Quality) -> Report {
        let n = tally.succeeded;
        let programs = quality.programs.len() as u64;
        let values = [
            (median(setup_s), setup_s.len() as u64),
            (tally.jobs_per_s(), n),
            (tally.latency_s(0.50) * 1e3, n),
            (tally.latency_s(0.99) * 1e3, n),
            (tally.ok_ratio(), tally.attempted),
            (quality.success_geomean(), programs),
            (quality.gain_vs_u(), programs),
            (quality.depth_mean(), programs),
            (peak_rss_mb(), 1),
        ];
        let mut report = Report::from_tally(tally);
        report.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, higher_is_better), (value, samples))| Metric {
                name: name.to_owned(),
                unit,
                higher_is_better,
                value,
                samples,
            })
            .collect();
        let percentiles = match tally.windows() {
            0 => format!("nearest-rank over all {n} jobs"),
            w => format!(
                "medians over {w} latency windows of each one's nearest-rank percentile"
            ),
        };
        report.notes.push(format!(
            "job times are CPU time of the thread that compiles and setup_s is process CPU \
             time, both rescaled to a host on which the reference kernel takes \
             {REFERENCE_NOMINAL_S} s (here: {:.7} s in the timed phase); latency \
             percentiles are {percentiles}",
            tally.reference_s()
        ));
        report
    }

    /// Prints the human-readable table: every metric with its unit,
    /// direction and sample count, then failures and notes.
    pub fn print_table(&self, workload: &str) {
        println!("== {workload}");
        println!(
            "{:<34} {:>16} {:>12} {:>7} {:>9}",
            "metric", "value", "unit", "better", "samples"
        );
        for m in &self.metrics {
            let better = if m.higher_is_better { "higher" } else { "lower" };
            println!(
                "{:<34} {:>16.6} {:>12} {:>7} {:>9}",
                m.name, m.value, m.unit, better, m.samples
            );
        }
        println!(
            "jobs: {} attempted, {} failed (error_rate {:.6}); outputs {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            if self.correct { "all passed the output checks" } else { "FAILED output checks" }
        );
        for (reason, count) in &self.reasons {
            println!("  failure x{count}: {reason}");
        }
        for note in &self.notes {
            println!("  note: {note}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn quality_floors_and_pairs() {
        let q = Quality { programs: vec![(0.5, 0.05, 10), (0.0, 0.0, 20)] };
        // Second program: both at the floor, gain 1; first: gain 10.
        assert!((q.gain_vs_u() - 10f64.sqrt()).abs() < 1e-9);
        assert!((q.success_geomean() - (0.5f64 * SUCCESS_FLOOR).sqrt()).abs() < 1e-12);
        assert_eq!(q.depth_mean(), 15.0);
    }

    #[test]
    fn windowed_tallies_report_medians_over_windows() {
        let mut t = Tally::default();
        let quiet: Vec<f64> = (1..=100).map(f64::from).collect();
        let stalled: Vec<f64> = quiet.iter().map(|l| l * 10.0).collect();
        t.push_window(100.0, &quiet);
        t.push_window(10.0, &stalled);
        t.push_window(90.0, &quiet);
        t.push_window(95.0, &quiet);
        t.push_window(0.0, &[]);
        // A stalled window and an empty one move neither figure.
        assert_eq!(t.jobs_per_s(), 90.0);
        assert_eq!(t.latency_s(0.5), 50.0);
        assert_eq!(t.latency_s(0.99), 99.0);
    }

    #[test]
    fn latency_windows_close_on_passes_and_report_medians() {
        let mut t = Tally::default();
        t.reference(REFERENCE_NOMINAL_S);
        for l in 1..=100 {
            t.ok(f64::from(l));
        }
        t.spent(1.0);
        t.end_pass();
        // Too few jobs for a window: percentiles over every job.
        assert_eq!((t.windows(), t.latency_s(0.5), t.latency_s(0.99)), (0, 50.0, 99.0));
        let mut t = Tally::default();
        t.reference(REFERENCE_NOMINAL_S);
        for (pass, scale) in [1.0, 1.0, 1.1, 1.1, 9.0, 9.0, 100.0].into_iter().enumerate() {
            let jobs = if pass < 6 { 500 } else { 10 };
            for l in 1..=jobs {
                t.ok(f64::from(l) * scale);
            }
            t.spent(1.0);
            t.end_pass();
            assert!(t.window_latencies_s.len() < LATENCY_WINDOW);
        }
        // Three windows of two passes each; the unfilled last one is left
        // out, and the disturbed third window moves neither percentile.
        assert_eq!((t.succeeded, t.windows()), (3010, 3));
        assert!((t.latency_s(0.5) - 275.0).abs() < 1e-9);
        assert!((t.latency_s(0.99) - 544.5).abs() < 1e-9);
        assert_eq!(t.jobs_per_s(), 500.0);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.reference(REFERENCE_NOMINAL_S);
        t.ok(0.5);
        t.fail("boom");
        t.wrong("bad schedule");
        t.spent(1.0);
        t.end_pass();
        assert_eq!((t.attempted, t.failed, t.wrong), (3, 2, 1));
        assert!((t.ok_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.jobs_per_s(), 1.0);
        // A stalled pass does not move the median.
        for busy in [1.0, 1.0, 10.0] {
            t.ok(0.5);
            t.spent(busy);
            t.end_pass();
        }
        assert_eq!(t.jobs_per_s(), 1.0);
    }

    #[test]
    fn job_times_are_rescaled_by_the_recent_reference_samples() {
        let mut t = Tally::default();
        assert!(t.reference_due());
        // The host slows to half speed: the reference takes twice its
        // nominal time, and so does every job. One sample is an outlier.
        let mut scaled = Vec::new();
        for (i, reference) in [1.0, 1.0, 2.0, 2.0, 9.0, 2.0, 2.0, 2.0].into_iter().enumerate() {
            t.reference(reference * REFERENCE_NOMINAL_S);
            assert!(!t.reference_due());
            let cpu_s = if i < 2 { 0.01 } else { 0.02 };
            let latency = t.spent(cpu_s);
            scaled.push(latency);
            t.ok(latency);
            assert!(t.reference_due());
        }
        // Each job is rescaled by the median of the last five samples:
        // two jobs lag the slowdown, and the outlier moves none.
        let expected = [0.01, 0.01, 0.02, 0.02, 0.01, 0.01, 0.01, 0.01];
        assert!(scaled.iter().zip(expected).all(|(l, e)| (l - e).abs() < 1e-12));
        t.end_pass();
        assert!((t.busy_s - 0.14).abs() < 1e-12);
        assert!((t.reference_s() - 2.0 * REFERENCE_NOMINAL_S).abs() < 1e-15);
        assert!((t.jobs_per_s() - 8.0 / 0.1).abs() < 1e-9);
    }
}
