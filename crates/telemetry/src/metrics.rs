//! Metric instruments and the Prometheus text-exposition writers every
//! family source renders through.
//!
//! There is no registry: each event is counted once, by the record that
//! owns it (a queue's `QueueStats`, a compile service's shards, a
//! compile context's SMT memo, an artifact store, a server), and each
//! of those renders its own families at scrape time with the writers
//! here ([`counter_family`], [`gauge`], [`summary`], [`histogram`]).
//! [`Histogram`] is the one shared instrument: a fixed-bucket duration
//! histogram whose recording is a few relaxed atomic adds.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The shared latency ladder, in nanoseconds: 1µs → 10s in 1–5 steps.
/// One ladder for every duration histogram keeps exposition and
/// cross-metric comparison simple, and spans both the ~10µs engine
/// hot path and multi-second compiles.
pub const LATENCY_BUCKETS_NS: [u64; 15] = [
    1_000,
    5_000,
    10_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
    500_000_000,
    1_000_000_000,
    5_000_000_000,
    10_000_000_000,
];

const BUCKETS: usize = LATENCY_BUCKETS_NS.len();

/// A fixed-bucket duration histogram over [`LATENCY_BUCKETS_NS`]. Each
/// stored bucket counts only its own range; [`histogram`] writes them
/// cumulatively. A clone copies the counts one at a time, so a clone
/// racing a recording may be off by the in-flight sample.
#[derive(Debug, Default)]
pub struct Histogram {
    /// Per-bucket counts; index `BUCKETS` is the overflow (+Inf) bucket.
    counts: [AtomicU64; BUCKETS + 1],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Clone for Histogram {
    fn clone(&self) -> Self {
        let copy = |n: &AtomicU64| AtomicU64::new(n.load(Ordering::Relaxed));
        Histogram {
            counts: self.counts.each_ref().map(copy),
            sum_ns: copy(&self.sum_ns),
            count: copy(&self.count),
        }
    }
}

impl Histogram {
    /// Records one duration.
    pub fn observe(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let bucket = LATENCY_BUCKETS_NS.partition_point(|&bound| bound < ns);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations ever recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// Prometheus label values for per-strategy metrics, indexed by
/// `Strategy::stable_code()` (`fastsc_core`): the five paper
/// strategies in their stable order.
pub const STRATEGY_LABELS: [&str; 5] =
    ["baseline_n", "baseline_g", "baseline_u", "baseline_s", "color_dynamic"];

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Writes one counter family. Each series is a braced label set
/// (`{event="shed"}`, or empty for unlabeled) and its value.
pub fn counter_family<L: AsRef<str>>(
    out: &mut String,
    name: &str,
    help: &str,
    series: &[(L, u64)],
) {
    header(out, name, help, "counter");
    for (labels, value) in series {
        let _ = writeln!(out, "{name}{} {value}", labels.as_ref());
    }
}

/// Writes one unlabeled gauge.
pub fn gauge(out: &mut String, name: &str, help: &str, value: u64) {
    header(out, name, help, "gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// One series of a [`summary`] family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummarySeries {
    /// Label fragment: comma-joinable, without braces, empty for an
    /// unlabeled series (`priority="batch"`).
    pub labels: String,
    /// `(quantile, value)` pairs, each quantile as written (`"0.99"`).
    pub quantiles: Vec<(&'static str, Duration)>,
    /// Sum of every observation.
    pub sum: Duration,
    /// Number of observations.
    pub count: u64,
}

/// Writes one summary family, durations in seconds.
pub fn summary(out: &mut String, name: &str, help: &str, series: &[SummarySeries]) {
    header(out, name, help, "summary");
    for SummarySeries { labels, quantiles, sum, count } in series {
        let (sep, wrap) = label_forms(labels);
        for (quantile, value) in quantiles {
            let _ = writeln!(
                out,
                "{name}{{{sep}quantile=\"{quantile}\"}} {:?}",
                value.as_secs_f64()
            );
        }
        let _ = writeln!(out, "{name}_sum{wrap} {:?}", sum.as_secs_f64());
        let _ = writeln!(out, "{name}_count{wrap} {count}");
    }
}

/// `labels` ready to take one more label (`a="b",`) and as a whole
/// braced set (`{a="b"}`); both empty for an unlabeled series.
fn label_forms(labels: &str) -> (String, String) {
    if labels.is_empty() {
        (String::new(), String::new())
    } else {
        (format!("{labels},"), format!("{{{labels}}}"))
    }
}

fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Writes one histogram family, durations in seconds, with cumulative
/// buckets; each series is a label fragment (comma-joinable, no braces;
/// empty for unlabeled) and its histogram. Counts are read one at a
/// time, so a scrape racing a recording may be off by the in-flight
/// sample.
pub fn histogram(out: &mut String, name: &str, help: &str, series: &[(String, &Histogram)]) {
    header(out, name, help, "histogram");
    for (labels, h) in series {
        let (sep, wrap) = label_forms(labels);
        let mut cumulative = 0;
        for (bound_ns, n) in LATENCY_BUCKETS_NS.iter().zip(&h.counts) {
            cumulative += n.load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "{name}_bucket{{{sep}le=\"{:?}\"}} {cumulative}",
                seconds(*bound_ns)
            );
        }
        let count = h.count();
        let _ = writeln!(out, "{name}_bucket{{{sep}le=\"+Inf\"}} {count}");
        let _ =
            writeln!(out, "{name}_sum{wrap} {:?}", seconds(h.sum_ns.load(Ordering::Relaxed)));
        let _ = writeln!(out, "{name}_count{wrap} {count}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `h` rendered as an unlabeled family named `h`.
    fn render(h: &Histogram) -> String {
        let mut text = String::new();
        histogram(&mut text, "h", "Test.", &[(String::new(), h)]);
        text
    }

    #[test]
    fn histogram_buckets_are_written_cumulatively() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(2)); // ≤ 5µs bucket
        h.observe(Duration::from_micros(2));
        h.observe(Duration::from_millis(2)); // ≤ 5ms bucket
        h.observe(Duration::from_secs(60)); // overflow (+Inf only)
        assert_eq!(h.count(), 4);
        let copy = h.clone();
        h.observe(Duration::from_secs(1));
        assert_eq!(copy.count(), 4, "a clone is a copy, not a view");
        let text = render(&copy);
        let sum =
            format!("h_sum {:?}", (2_000 + 2_000 + 2_000_000 + 60_000_000_000u64) as f64 / 1e9);
        for line in [
            "h_bucket{le=\"1e-6\"} 0",
            "h_bucket{le=\"5e-6\"} 2",
            "h_bucket{le=\"0.005\"} 3",
            "h_bucket{le=\"10.0\"} 3",
            "h_bucket{le=\"+Inf\"} 4",
            "h_count 4",
            &sum,
        ] {
            assert!(text.lines().any(|l| l == line), "missing {line:?} in:\n{text}");
        }
    }

    #[test]
    fn exact_bound_lands_in_its_bucket() {
        let h = Histogram::default();
        h.observe(Duration::from_nanos(1_000));
        assert!(render(&h).lines().any(|l| l == "h_bucket{le=\"1e-6\"} 1"), "le is inclusive");
    }

    #[test]
    fn writers_render_labelled_exposition() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(80));
        let mut text = String::new();
        histogram(
            &mut text,
            "fastsc_compile_duration_seconds",
            "Compile latency.",
            &[("shard=\"0\",strategy=\"color_dynamic\"".to_string(), &h)],
        );
        counter_family(
            &mut text,
            "fastsc_cache_requests_total",
            "Lookups.",
            &[(format!("{{shard=\"{}\",result=\"hit\"}}", 1), 2)],
        );
        counter_family(&mut text, "fastsc_server_connections_total", "Accepted.", &[("", 3)]);
        for line in [
            "# TYPE fastsc_compile_duration_seconds histogram",
            "fastsc_compile_duration_seconds_bucket{shard=\"0\",strategy=\"color_dynamic\",le=\"0.0001\"} 1",
            "fastsc_compile_duration_seconds_bucket{shard=\"0\",strategy=\"color_dynamic\",le=\"+Inf\"} 1",
            "fastsc_compile_duration_seconds_count{shard=\"0\",strategy=\"color_dynamic\"} 1",
            "fastsc_cache_requests_total{shard=\"1\",result=\"hit\"} 2",
            "fastsc_server_connections_total 3",
        ] {
            assert!(text.lines().any(|l| l == line), "missing {line:?} in:\n{text}");
        }
        // Every line is either a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(line.starts_with('#') || line.split(' ').count() == 2, "bad line: {line}");
        }
    }

    #[test]
    fn strategy_labels_cover_all_stable_codes() {
        assert_eq!(STRATEGY_LABELS.len(), 5);
        let unique: std::collections::HashSet<&str> = STRATEGY_LABELS.iter().copied().collect();
        assert_eq!(unique.len(), 5);
    }
}
