//! The process-global metrics registry: a fixed set of atomic
//! counters, gauges, and fixed-bucket histograms covering the whole
//! serving stack, snapshot-able for embedders and renderable as
//! Prometheus text exposition format for scrapes.
//!
//! The registry is deliberately *not* generic: every instrument the
//! stack records is a named field on [`Metrics`], so call sites are
//! `metrics().cache_hits.inc()` — no string lookup, no hashing, no
//! allocation on the hot path. Recording is a relaxed atomic op behind
//! one enabled branch ([`set_metrics_enabled`]); disabling stops the
//! counters where they stand (gauges included, so re-enabling after
//! traffic may leave gauges stale until their next update).

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
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
    const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

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

/// A gauge: a value that goes up and down (queue depth, jobs in
/// flight).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Adds `delta` (no-op while the registry is disabled).
    pub fn add(&self, delta: i64) {
        if metrics_enabled() {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Sets the value outright (no-op while the registry is disabled).
    pub fn set(&self, value: i64) {
        if metrics_enabled() {
            self.0.store(value, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The shared latency ladder, in nanoseconds: 1µs → 10s in 1–5 steps.
/// One ladder for every duration histogram keeps exposition and
/// cross-metric comparison simple, and spans both the ~10µs engine
/// hot path and multi-second queue waits.
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
#[derive(Debug)]
pub struct Histogram {
    /// Per-bucket counts; index `BUCKETS` is the overflow (+Inf) bucket.
    counts: [AtomicU64; BUCKETS + 1],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            counts: [ZERO; BUCKETS + 1],
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

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
/// ([`MetricsSnapshot::to_prometheus`]): one field here is one metric
/// family there, with labels flattened into arrays where the label set
/// is fixed (e.g. [`compile_duration`](Self::compile_duration) is
/// `fastsc_compile_duration_seconds{strategy=...}`).
#[derive(Debug, Default)]
pub struct Metrics {
    // --- queue ---
    /// Time jobs spent queued before each dispatch
    /// (`fastsc_queue_wait_seconds`).
    pub queue_wait: Histogram,
    /// Jobs admitted and still waiting (`fastsc_queue_depth`).
    pub queue_depth: Gauge,
    /// Jobs dispatched and not yet completed (`fastsc_queue_inflight`).
    pub queue_inflight: Gauge,
    /// Jobs accepted into the queue
    /// (`fastsc_queue_jobs_total{event="admitted"}`).
    pub jobs_admitted: Counter,
    /// Submissions refused outright (`…{event="rejected"}`).
    pub jobs_rejected: Counter,
    /// Jobs evicted by backpressure (`…{event="shed"}`).
    pub jobs_shed: Counter,
    /// Jobs whose deadline passed in queue (`…{event="expired"}`).
    pub jobs_expired: Counter,
    /// Jobs cancelled by their submitter (`…{event="cancelled"}`).
    pub jobs_cancelled: Counter,
    /// Jobs that delivered a result (`…{event="completed"}`).
    pub jobs_completed: Counter,
    /// Transient failures re-queued for another attempt
    /// (`fastsc_queue_retries_total`).
    pub retries: Counter,
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
    const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const HIST: Histogram = Histogram::new();
        Metrics {
            queue_wait: Histogram::new(),
            queue_depth: Gauge::new(),
            queue_inflight: Gauge::new(),
            jobs_admitted: Counter::new(),
            jobs_rejected: Counter::new(),
            jobs_shed: Counter::new(),
            jobs_expired: Counter::new(),
            jobs_cancelled: Counter::new(),
            jobs_completed: Counter::new(),
            retries: Counter::new(),
            compile_duration: [HIST; 5],
            smt_solve: Histogram::new(),
            smt_memo_hits: Counter::new(),
            smt_solves: Counter::new(),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            store_hits: Counter::new(),
            store_misses: Counter::new(),
            store_bytes_written: Counter::new(),
            breaker_opened: Counter::new(),
            breaker_half_open: Counter::new(),
            breaker_closed: Counter::new(),
            bytes_read: Counter::new(),
            bytes_written: Counter::new(),
            connections: Counter::new(),
        }
    }

    /// A structured point-in-time copy of every instrument — the
    /// embedder-facing equivalent of a Prometheus scrape.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            queue_wait: self.queue_wait.snapshot(),
            queue_depth: self.queue_depth.get(),
            queue_inflight: self.queue_inflight.get(),
            jobs_admitted: self.jobs_admitted.get(),
            jobs_rejected: self.jobs_rejected.get(),
            jobs_shed: self.jobs_shed.get(),
            jobs_expired: self.jobs_expired.get(),
            jobs_cancelled: self.jobs_cancelled.get(),
            jobs_completed: self.jobs_completed.get(),
            retries: self.retries.get(),
            compile_duration: [0, 1, 2, 3, 4].map(|i| self.compile_duration[i].snapshot()),
            smt_solve: self.smt_solve.snapshot(),
            smt_memo_hits: self.smt_memo_hits.get(),
            smt_solves: self.smt_solves.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            store_hits: self.store_hits.get(),
            store_misses: self.store_misses.get(),
            store_bytes_written: self.store_bytes_written.get(),
            breaker_opened: self.breaker_opened.get(),
            breaker_half_open: self.breaker_half_open.get(),
            breaker_closed: self.breaker_closed.get(),
            bytes_read: self.bytes_read.get(),
            bytes_written: self.bytes_written.get(),
            connections: self.connections.get(),
        }
    }
}

static METRICS: OnceLock<Metrics> = OnceLock::new();

/// The process-global registry. First call initializes it; recording
/// through it is lock-free thereafter.
pub fn metrics() -> &'static Metrics {
    METRICS.get_or_init(Metrics::new)
}

/// A structured copy of the registry (see [`Metrics::snapshot`]), plus
/// the Prometheus renderer.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Queue-wait histogram.
    pub queue_wait: HistogramSnapshot,
    /// Queue depth gauge.
    pub queue_depth: i64,
    /// In-flight gauge.
    pub queue_inflight: i64,
    /// Lifetime admitted count.
    pub jobs_admitted: u64,
    /// Lifetime rejected count.
    pub jobs_rejected: u64,
    /// Lifetime shed count.
    pub jobs_shed: u64,
    /// Lifetime expired count.
    pub jobs_expired: u64,
    /// Lifetime cancelled count.
    pub jobs_cancelled: u64,
    /// Lifetime completed count.
    pub jobs_completed: u64,
    /// Lifetime retry count.
    pub retries: u64,
    /// Per-strategy compile-latency histograms (see
    /// [`STRATEGY_LABELS`]).
    pub compile_duration: [HistogramSnapshot; 5],
    /// SMT solve-time histogram.
    pub smt_solve: HistogramSnapshot,
    /// Frequency-memo hit count.
    pub smt_memo_hits: u64,
    /// Frequency-memo solve count.
    pub smt_solves: u64,
    /// Schedule-cache hit count.
    pub cache_hits: u64,
    /// Schedule-cache miss count.
    pub cache_misses: u64,
    /// Artifact-store hit count.
    pub store_hits: u64,
    /// Artifact-store miss count.
    pub store_misses: u64,
    /// Bytes appended to the artifact store.
    pub store_bytes_written: u64,
    /// Breaker open-transition count.
    pub breaker_opened: u64,
    /// Breaker half-open-transition count.
    pub breaker_half_open: u64,
    /// Breaker close-transition count.
    pub breaker_closed: u64,
    /// Socket bytes read.
    pub bytes_read: u64,
    /// Socket bytes written.
    pub bytes_written: u64,
    /// Connections accepted.
    pub connections: u64,
}

impl MetricsSnapshot {
    /// Renders the snapshot in Prometheus text exposition format
    /// (version 0.0.4): `# HELP`/`# TYPE` headers, `_total` suffixes on
    /// counters, histogram `_bucket{le=...}`/`_sum`/`_count` series,
    /// durations in seconds.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        histogram_labeled(
            &mut out,
            "fastsc_queue_wait_seconds",
            "Time jobs spent queued before dispatch.",
            &[("", &self.queue_wait)],
        );
        gauge(
            &mut out,
            "fastsc_queue_depth",
            "Jobs admitted and still waiting.",
            self.queue_depth,
        );
        gauge(
            &mut out,
            "fastsc_queue_inflight",
            "Jobs dispatched and not yet completed.",
            self.queue_inflight,
        );
        counter_family(
            &mut out,
            "fastsc_queue_jobs_total",
            "Queue lifecycle events by outcome.",
            &[
                ("{event=\"admitted\"}", self.jobs_admitted),
                ("{event=\"rejected\"}", self.jobs_rejected),
                ("{event=\"shed\"}", self.jobs_shed),
                ("{event=\"expired\"}", self.jobs_expired),
                ("{event=\"cancelled\"}", self.jobs_cancelled),
                ("{event=\"completed\"}", self.jobs_completed),
            ],
        );
        counter_family(
            &mut out,
            "fastsc_queue_retries_total",
            "Transient failures re-queued for another attempt.",
            &[("", self.retries)],
        );
        let compile_series: Vec<(String, &HistogramSnapshot)> = STRATEGY_LABELS
            .iter()
            .zip(self.compile_duration.iter())
            .filter(|(_, h)| h.count > 0)
            .map(|(label, h)| (format!("strategy=\"{label}\""), h))
            .collect();
        let compile_refs: Vec<(&str, &HistogramSnapshot)> =
            compile_series.iter().map(|(l, h)| (l.as_str(), *h)).collect();
        histogram_labeled(
            &mut out,
            "fastsc_compile_duration_seconds",
            "Real compile latency by strategy (cache hits excluded).",
            &compile_refs,
        );
        histogram_labeled(
            &mut out,
            "fastsc_smt_solve_seconds",
            "SMT frequency-solve time (memo misses only).",
            &[("", &self.smt_solve)],
        );
        counter_family(
            &mut out,
            "fastsc_smt_memo_total",
            "SMT frequency-memo lookups by outcome.",
            &[
                ("{result=\"hit\"}", self.smt_memo_hits),
                ("{result=\"solve\"}", self.smt_solves),
            ],
        );
        counter_family(
            &mut out,
            "fastsc_cache_requests_total",
            "Schedule-cache lookups by outcome (coalesced hits included).",
            &[("{result=\"hit\"}", self.cache_hits), ("{result=\"miss\"}", self.cache_misses)],
        );
        counter_family(
            &mut out,
            "fastsc_store_requests_total",
            "Persistent artifact-store lookups by outcome.",
            &[("{result=\"hit\"}", self.store_hits), ("{result=\"miss\"}", self.store_misses)],
        );
        counter_family(
            &mut out,
            "fastsc_store_bytes_written_total",
            "Bytes appended to the on-disk artifact store.",
            &[("", self.store_bytes_written)],
        );
        counter_family(
            &mut out,
            "fastsc_breaker_transitions_total",
            "Circuit-breaker state transitions by destination state.",
            &[
                ("{to=\"open\"}", self.breaker_opened),
                ("{to=\"half_open\"}", self.breaker_half_open),
                ("{to=\"closed\"}", self.breaker_closed),
            ],
        );
        counter_family(
            &mut out,
            "fastsc_server_bytes_total",
            "Frame bytes moved over client sockets.",
            &[
                ("{direction=\"read\"}", self.bytes_read),
                ("{direction=\"written\"}", self.bytes_written),
            ],
        );
        counter_family(
            &mut out,
            "fastsc_server_connections_total",
            "Client connections accepted.",
            &[("", self.connections)],
        );
        out
    }
}

fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn counter_family(out: &mut String, name: &str, help: &str, series: &[(&str, u64)]) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    for (labels, value) in series {
        let _ = writeln!(out, "{name}{labels} {value}");
    }
}

fn gauge(out: &mut String, name: &str, help: &str, value: i64) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// Emits one histogram family; each entry in `series` is a
/// comma-joinable label fragment (no braces) or empty for unlabeled.
fn histogram_labeled(
    out: &mut String,
    name: &str,
    help: &str,
    series: &[(&str, &HistogramSnapshot)],
) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    for (labels, snap) in series {
        let sep = if labels.is_empty() { String::new() } else { format!("{labels},") };
        for (bound_ns, cumulative) in &snap.buckets {
            let _ = writeln!(
                out,
                "{name}_bucket{{{sep}le=\"{:?}\"}} {cumulative}",
                seconds(*bound_ns)
            );
        }
        let _ = writeln!(out, "{name}_bucket{{{sep}le=\"+Inf\"}} {}", snap.count);
        let wrap = if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
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
    fn counters_and_gauges_move() {
        let _serial = lock();
        let m = Metrics::new();
        m.jobs_admitted.inc();
        m.jobs_admitted.add(2);
        assert_eq!(m.jobs_admitted.get(), 3);
        m.queue_depth.inc();
        m.queue_depth.inc();
        m.queue_depth.dec();
        assert_eq!(m.queue_depth.get(), 1);
        m.queue_depth.set(7);
        assert_eq!(m.queue_depth.get(), 7);
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_snapshot() {
        let _serial = lock();
        let h = Histogram::new();
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
        let h = Histogram::new();
        h.observe_ns(1_000);
        assert_eq!(h.snapshot().buckets[0], (1_000, 1), "le is inclusive");
    }

    #[test]
    fn disabled_registry_drops_observations() {
        let _serial = lock();
        let m = Metrics::new();
        set_metrics_enabled(false);
        m.jobs_admitted.inc();
        m.queue_wait.observe(Duration::from_millis(1));
        m.queue_depth.inc();
        set_metrics_enabled(true);
        assert_eq!(m.jobs_admitted.get(), 0);
        assert_eq!(m.queue_wait.count(), 0);
        assert_eq!(m.queue_depth.get(), 0);
        m.jobs_admitted.inc();
        assert_eq!(m.jobs_admitted.get(), 1);
    }

    #[test]
    fn prometheus_text_has_expected_families() {
        let _serial = lock();
        let m = Metrics::new();
        m.jobs_admitted.add(5);
        m.cache_hits.add(2);
        m.cache_misses.add(3);
        m.queue_wait.observe(Duration::from_micros(30));
        m.compile_duration[4].observe(Duration::from_micros(80));
        m.bytes_read.add(1024);
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("# TYPE fastsc_queue_wait_seconds histogram"));
        assert!(text.contains("fastsc_queue_jobs_total{event=\"admitted\"} 5"));
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
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("fastsc_store_requests_total{result=\"hit\"} 4"));
        assert!(text.contains("fastsc_store_requests_total{result=\"miss\"} 0"));
        assert!(text.contains("fastsc_store_bytes_written_total 256"));
        assert!(text.contains("fastsc_queue_wait_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("fastsc_queue_wait_seconds_count 1"));
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
