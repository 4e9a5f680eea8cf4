//! The process-global metrics registry: a fixed set of atomic
//! counters and fixed-bucket histograms covering the compile and
//! serving stack, renderable as Prometheus text exposition format for
//! scrapes, plus the exposition writers every other family source (the
//! queue's `QueueStats`) renders through.
//!
//! The registry is deliberately *not* generic: every instrument the
//! stack records is a named field on [`Metrics`], so call sites are
//! `metrics().cache_hits.inc()` — no string lookup, no hashing, no
//! allocation on the hot path. Recording is a relaxed atomic op behind
//! one enabled branch ([`set_metrics_enabled`]); disabling stops the
//! instruments where they stand.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

static METRICS_ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether the registry is recording (relaxed load; the default is
/// enabled).
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables all recording into the global registry. The
/// instruments keep their values either way; only new observations are
/// dropped while disabled.
pub fn set_metrics_enabled(enabled: bool) {
    METRICS_ENABLED.store(enabled, Ordering::Relaxed);
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (no-op while the registry is disabled).
    pub fn add(&self, n: u64) {
        if metrics_enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

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

/// A fixed-bucket duration histogram over [`LATENCY_BUCKETS_NS`], with
/// cumulative-on-read Prometheus semantics (each stored bucket counts
/// only its own range; [`HistogramSnapshot`] accumulates).
#[derive(Debug, Default)]
pub struct Histogram {
    /// Per-bucket counts; index `BUCKETS` is the overflow (+Inf) bucket.
    counts: [AtomicU64; BUCKETS + 1],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Records one duration (no-op while the registry is disabled).
    pub fn observe(&self, d: Duration) {
        self.observe_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one duration given in nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        if !metrics_enabled() {
            return;
        }
        let bucket = LATENCY_BUCKETS_NS.partition_point(|&bound| bound < ns);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations ever recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time copy (buckets are read
    /// individually; a scrape racing a recording may be off by the
    /// in-flight sample).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut cumulative = Vec::with_capacity(BUCKETS);
        let mut running = 0u64;
        for (i, &bound) in LATENCY_BUCKETS_NS.iter().enumerate() {
            running += self.counts[i].load(Ordering::Relaxed);
            cumulative.push((bound, running));
        }
        HistogramSnapshot {
            buckets: cumulative,
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of one [`Histogram`], with Prometheus-style
/// cumulative buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(upper_bound_ns, cumulative_count)` per bucket; observations
    /// above the last bound are only in [`count`](Self::count) (the
    /// implicit `+Inf` bucket).
    pub buckets: Vec<(u64, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed durations, in nanoseconds.
    pub sum_ns: u64,
}

/// Prometheus label values for per-strategy metrics, indexed by
/// `Strategy::stable_code()` (`fastsc_core`): the five paper
/// strategies in their stable order.
pub const STRATEGY_LABELS: [&str; 5] =
    ["baseline_n", "baseline_g", "baseline_u", "baseline_s", "color_dynamic"];

/// The process-global instrument set (obtain via [`metrics`]).
///
/// Naming follows the Prometheus exposition
/// ([`to_prometheus`](Self::to_prometheus)): one field here is one
/// metric family there, with labels flattened into arrays where the
/// label set is fixed (e.g. [`compile_duration`](Self::compile_duration)
/// is `fastsc_compile_duration_seconds{strategy=...}`). Queue families
/// are not here: each queue renders its own from `QueueStats`.
#[derive(Debug, Default)]
pub struct Metrics {
    // --- service / engine ---
    /// Real compile latency per strategy, indexed by
    /// `Strategy::stable_code()`
    /// (`fastsc_compile_duration_seconds{strategy=...}`; see
    /// [`STRATEGY_LABELS`]).
    pub compile_duration: [Histogram; 5],
    /// SMT solve time, cache-miss solves only
    /// (`fastsc_smt_solve_seconds`).
    pub smt_solve: Histogram,
    /// Frequency-memo hits (`fastsc_smt_memo_total{result="hit"}`).
    pub smt_memo_hits: Counter,
    /// Frequency-memo misses that solved
    /// (`fastsc_smt_memo_total{result="solve"}`).
    pub smt_solves: Counter,
    /// Schedule-cache hits, coalesced duplicates included
    /// (`fastsc_cache_requests_total{result="hit"}`).
    pub cache_hits: Counter,
    /// Schedule-cache misses that compiled (`…{result="miss"}`).
    pub cache_misses: Counter,
    /// Artifact-store lookups that served a persisted artifact
    /// (`fastsc_store_requests_total{result="hit"}`).
    pub store_hits: Counter,
    /// Artifact-store lookups that fell through to a cold solve
    /// (`…{result="miss"}`).
    pub store_misses: Counter,
    /// Bytes appended to the on-disk artifact store
    /// (`fastsc_store_bytes_written_total`).
    pub store_bytes_written: Counter,
    /// Breaker trips into quarantine
    /// (`fastsc_breaker_transitions_total{to="open"}`).
    pub breaker_opened: Counter,
    /// Breaker probe dispatches (`…{to="half_open"}`).
    pub breaker_half_open: Counter,
    /// Breaker restores to active (`…{to="closed"}`).
    pub breaker_closed: Counter,
    // --- server ---
    /// Frame bytes read off client sockets
    /// (`fastsc_server_bytes_total{direction="read"}`).
    pub bytes_read: Counter,
    /// Frame bytes written to client sockets (`…{direction="written"}`).
    pub bytes_written: Counter,
    /// Client connections accepted
    /// (`fastsc_server_connections_total`).
    pub connections: Counter,
}

impl Metrics {
    /// Renders every instrument in Prometheus text exposition format
    /// (version 0.0.4): `# HELP`/`# TYPE` headers, `_total` suffixes on
    /// counters, histogram `_bucket{le=...}`/`_sum`/`_count` series,
    /// durations in seconds. Each instrument is read individually, so a
    /// scrape racing a recording may be off by the in-flight sample.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        let compile: Vec<(String, HistogramSnapshot)> = STRATEGY_LABELS
            .iter()
            .zip(&self.compile_duration)
            .filter(|(_, h)| h.count() > 0)
            .map(|(label, h)| (format!("strategy=\"{label}\""), h.snapshot()))
            .collect();
        histogram(
            &mut out,
            "fastsc_compile_duration_seconds",
            "Real compile latency by strategy (cache hits excluded).",
            &compile,
        );
        histogram(
            &mut out,
            "fastsc_smt_solve_seconds",
            "SMT frequency-solve time (memo misses only).",
            &[(String::new(), self.smt_solve.snapshot())],
        );
        counter_family(
            &mut out,
            "fastsc_smt_memo_total",
            "SMT frequency-memo lookups by outcome.",
            &[
                ("{result=\"hit\"}", self.smt_memo_hits.get()),
                ("{result=\"solve\"}", self.smt_solves.get()),
            ],
        );
        counter_family(
            &mut out,
            "fastsc_cache_requests_total",
            "Schedule-cache lookups by outcome (coalesced hits included).",
            &[
                ("{result=\"hit\"}", self.cache_hits.get()),
                ("{result=\"miss\"}", self.cache_misses.get()),
            ],
        );
        counter_family(
            &mut out,
            "fastsc_store_requests_total",
            "Persistent artifact-store lookups by outcome.",
            &[
                ("{result=\"hit\"}", self.store_hits.get()),
                ("{result=\"miss\"}", self.store_misses.get()),
            ],
        );
        counter_family(
            &mut out,
            "fastsc_store_bytes_written_total",
            "Bytes appended to the on-disk artifact store.",
            &[("", self.store_bytes_written.get())],
        );
        counter_family(
            &mut out,
            "fastsc_breaker_transitions_total",
            "Circuit-breaker state transitions by destination state.",
            &[
                ("{to=\"open\"}", self.breaker_opened.get()),
                ("{to=\"half_open\"}", self.breaker_half_open.get()),
                ("{to=\"closed\"}", self.breaker_closed.get()),
            ],
        );
        counter_family(
            &mut out,
            "fastsc_server_bytes_total",
            "Frame bytes moved over client sockets.",
            &[
                ("{direction=\"read\"}", self.bytes_read.get()),
                ("{direction=\"written\"}", self.bytes_written.get()),
            ],
        );
        counter_family(
            &mut out,
            "fastsc_server_connections_total",
            "Client connections accepted.",
            &[("", self.connections.get())],
        );
        out
    }
}

static METRICS: OnceLock<Metrics> = OnceLock::new();

/// The process-global registry. First call initializes it; recording
/// through it is lock-free thereafter.
pub fn metrics() -> &'static Metrics {
    METRICS.get_or_init(Metrics::default)
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Writes one counter family. Each series is a braced label set
/// (`{event="shed"}`, or empty for unlabeled) and its value.
pub fn counter_family(out: &mut String, name: &str, help: &str, series: &[(&str, u64)]) {
    header(out, name, help, "counter");
    for (labels, value) in series {
        let _ = writeln!(out, "{name}{labels} {value}");
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

/// Writes one histogram family; each series is a label fragment
/// (comma-joinable, no braces; empty for unlabeled) and its snapshot.
fn histogram(out: &mut String, name: &str, help: &str, series: &[(String, HistogramSnapshot)]) {
    header(out, name, help, "histogram");
    for (labels, snap) in series {
        let (sep, wrap) = label_forms(labels);
        for (bound_ns, cumulative) in &snap.buckets {
            let _ = writeln!(
                out,
                "{name}_bucket{{{sep}le=\"{:?}\"}} {cumulative}",
                seconds(*bound_ns)
            );
        }
        let _ = writeln!(out, "{name}_bucket{{{sep}le=\"+Inf\"}} {}", snap.count);
        let _ = writeln!(out, "{name}_sum{wrap} {:?}", seconds(snap.sum_ns));
        let _ = writeln!(out, "{name}_count{wrap} {}", snap.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that record or toggle the global enabled flag —
    /// the flag is process-wide, so a disabling test would drop a
    /// concurrent test's observations.
    static ENABLED_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        ENABLED_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn counters_move() {
        let _serial = lock();
        let m = Metrics::default();
        m.cache_hits.inc();
        m.cache_hits.add(2);
        assert_eq!(m.cache_hits.get(), 3);
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_snapshot() {
        let _serial = lock();
        let h = Histogram::default();
        h.observe(Duration::from_micros(2)); // ≤ 5µs bucket
        h.observe(Duration::from_micros(2));
        h.observe(Duration::from_millis(2)); // ≤ 5ms bucket
        h.observe(Duration::from_secs(60)); // overflow (+Inf only)
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        let at = |bound: u64| snap.buckets.iter().find(|(b, _)| *b == bound).unwrap().1;
        assert_eq!(at(1_000), 0);
        assert_eq!(at(5_000), 2);
        assert_eq!(at(5_000_000), 3);
        assert_eq!(at(10_000_000_000), 3, "60s overflows every finite bucket");
        assert_eq!(snap.sum_ns, 2_000 + 2_000 + 2_000_000 + 60_000_000_000);
    }

    #[test]
    fn exact_bound_lands_in_its_bucket() {
        let _serial = lock();
        let h = Histogram::default();
        h.observe_ns(1_000);
        assert_eq!(h.snapshot().buckets[0], (1_000, 1), "le is inclusive");
    }

    #[test]
    fn disabled_registry_drops_observations() {
        let _serial = lock();
        let m = Metrics::default();
        set_metrics_enabled(false);
        m.cache_hits.inc();
        m.smt_solve.observe(Duration::from_millis(1));
        set_metrics_enabled(true);
        assert_eq!(m.cache_hits.get(), 0);
        assert_eq!(m.smt_solve.count(), 0);
        m.cache_hits.inc();
        assert_eq!(m.cache_hits.get(), 1);
    }

    #[test]
    fn prometheus_text_has_expected_families() {
        let _serial = lock();
        let m = Metrics::default();
        m.cache_hits.add(2);
        m.cache_misses.add(3);
        m.compile_duration[4].observe(Duration::from_micros(80));
        m.bytes_read.add(1024);
        let text = m.to_prometheus();
        assert!(text.contains("fastsc_cache_requests_total{result=\"hit\"} 2"));
        assert!(text.contains(
            "fastsc_compile_duration_seconds_bucket{strategy=\"color_dynamic\",le=\"+Inf\"} 1"
        ));
        assert!(
            !text.contains("strategy=\"baseline_n\""),
            "unused strategies are omitted from exposition"
        );
        assert!(text.contains("fastsc_server_bytes_total{direction=\"read\"} 1024"));
        m.store_hits.add(4);
        m.store_bytes_written.add(256);
        let text = m.to_prometheus();
        assert!(text.contains("fastsc_store_requests_total{result=\"hit\"} 4"));
        assert!(text.contains("fastsc_store_requests_total{result=\"miss\"} 0"));
        assert!(text.contains("fastsc_store_bytes_written_total 256"));
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
