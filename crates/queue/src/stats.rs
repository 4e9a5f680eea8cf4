//! Queue observability: lifecycle counters and per-priority latency
//! percentiles — the queue's one record of its own events, which
//! [`QueueStats::to_prometheus`] also renders for scrapes.

use crate::job::Priority;
use fastsc_service::CacheStats;
use fastsc_telemetry::metrics::{counter_family, gauge, summary, SummarySeries};
use std::time::Duration;

/// How many of the most recent end-to-end latencies each priority class
/// retains for percentile estimation.
pub const LATENCY_WINDOW: usize = 1024;

/// Percentile summary of one priority class's recent latencies.
///
/// Used for two different intervals: **total** latency (submission to
/// completion, compiles and per-job failures alike —
/// expired/shed/cancelled jobs are excluded; they are counted, not
/// timed) and **queue wait** (submission to first dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Samples ever recorded for the class (not capped by the window).
    pub count: u64,
    /// Sum of every sample ever recorded (not capped by the window).
    pub sum: Duration,
    /// Fastest sample in the window.
    pub min: Duration,
    /// Median latency over the window.
    pub p50: Duration,
    /// 90th-percentile latency over the window.
    pub p90: Duration,
    /// 99th-percentile latency over the window.
    pub p99: Duration,
    /// Slowest sample in the window.
    pub max: Duration,
}

/// A point-in-time snapshot of the queue (see
/// [`QueueService::stats`](crate::QueueService::stats)).
///
/// Counter identities: every submission is counted in exactly one of
/// `admitted` or `rejected`, and every admitted job eventually lands in
/// exactly one of `completed`, `shed`, `expired`, or `cancelled` (jobs
/// still queued or compiling are the difference).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueStats {
    /// Jobs admitted and still waiting in the queue.
    pub depth: usize,
    /// Jobs handed to the compile service and not yet completed.
    pub inflight: usize,
    /// Jobs accepted into the queue.
    pub admitted: u64,
    /// Submissions refused outright (`RejectWhenFull`).
    pub rejected: u64,
    /// Admitted jobs evicted by `ShedOldest` backpressure (including
    /// newcomers shed in place of a more important queue).
    pub shed: u64,
    /// Admitted jobs whose deadline passed before a compile slot opened.
    pub expired: u64,
    /// Admitted jobs cancelled by their submitter.
    pub cancelled: u64,
    /// Jobs that went through the compile service (successfully or with
    /// a per-job error) and delivered their result.
    pub completed: u64,
    /// Compile attempts that failed transiently and were re-queued for
    /// another attempt under the queue's
    /// [`RetryPolicy`](crate::RetryPolicy). One job retried twice counts
    /// twice; the job itself still lands in `completed` exactly once.
    pub retried: u64,
    /// **Total** (submission-to-completion) latency summaries indexed by
    /// [`Priority::rank`].
    pub latency: [LatencySummary; 3],
    /// **Queue-wait** (submission-to-first-dispatch) latency summaries
    /// indexed by [`Priority::rank`]. Total minus queue wait is time
    /// spent compiling and retrying — comparing the two separates "the
    /// queue is backed up" from "compiles are slow".
    pub queue_wait: [LatencySummary; 3],
    /// Fleet-wide schedule-cache counters
    /// ([`CompileService::cache_stats_total`](fastsc_service::CompileService::cache_stats_total)).
    pub cache: CacheStats,
}

impl QueueStats {
    /// The total-latency summary of one priority class.
    pub fn latency(&self, priority: Priority) -> LatencySummary {
        self.latency[priority.rank()]
    }

    /// The queue-wait summary of one priority class.
    pub fn queue_wait(&self, priority: Priority) -> LatencySummary {
        self.queue_wait[priority.rank()]
    }

    /// Renders the queue's families in Prometheus text exposition
    /// format (version 0.0.4): the `fastsc_queue_depth` and
    /// `fastsc_queue_inflight` gauges, the `fastsc_queue_jobs_total`
    /// (by `event`) and `fastsc_queue_retries_total` counters, and
    /// `fastsc_queue_wait_seconds` — a summary per priority class with
    /// the window's p50/p90/p99 as quantiles 0.5/0.9/0.99 and the
    /// lifetime `_sum`/`_count` (classes with no samples are omitted).
    /// A server's scrape appends the compile service's families
    /// ([`CompileService::to_prometheus`](fastsc_service::CompileService::to_prometheus)),
    /// none of which is a queue family.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        gauge(
            &mut out,
            "fastsc_queue_depth",
            "Jobs admitted and still waiting.",
            self.depth as u64,
        );
        gauge(
            &mut out,
            "fastsc_queue_inflight",
            "Jobs dispatched and not yet completed.",
            self.inflight as u64,
        );
        counter_family(
            &mut out,
            "fastsc_queue_jobs_total",
            "Queue lifecycle events by outcome.",
            &[
                ("{event=\"admitted\"}", self.admitted),
                ("{event=\"rejected\"}", self.rejected),
                ("{event=\"shed\"}", self.shed),
                ("{event=\"expired\"}", self.expired),
                ("{event=\"cancelled\"}", self.cancelled),
                ("{event=\"completed\"}", self.completed),
            ],
        );
        counter_family(
            &mut out,
            "fastsc_queue_retries_total",
            "Transient failures re-queued for another attempt.",
            &[("", self.retried)],
        );
        let waits: Vec<SummarySeries> = Priority::all()
            .into_iter()
            .map(|p| (p, self.queue_wait(p)))
            .filter(|(_, wait)| wait.count > 0)
            .map(|(p, wait)| SummarySeries {
                labels: format!("priority=\"{}\"", p.name()),
                quantiles: vec![("0.5", wait.p50), ("0.9", wait.p90), ("0.99", wait.p99)],
                sum: wait.sum,
                count: wait.count,
            })
            .collect();
        summary(
            &mut out,
            "fastsc_queue_wait_seconds",
            "Time jobs spent queued before first dispatch, by priority.",
            &waits,
        );
        out
    }

    /// The lifecycle-counter movement from `earlier` to `self` — what a
    /// polling operator loop reacts to (see
    /// [`TelemetryFeed`](crate::TelemetryFeed)). Saturating, so
    /// comparing snapshots from different services degrades to zeros
    /// instead of wrapping.
    pub fn delta_since(&self, earlier: &QueueStats) -> QueueDelta {
        QueueDelta {
            admitted: self.admitted.saturating_sub(earlier.admitted),
            rejected: self.rejected.saturating_sub(earlier.rejected),
            shed: self.shed.saturating_sub(earlier.shed),
            expired: self.expired.saturating_sub(earlier.expired),
            cancelled: self.cancelled.saturating_sub(earlier.cancelled),
            completed: self.completed.saturating_sub(earlier.completed),
            retried: self.retried.saturating_sub(earlier.retried),
        }
    }
}

/// The movement of the queue's lifecycle counters between two
/// [`QueueStats`] snapshots ([`QueueStats::delta_since`]): the
/// poll-friendly signal an autoscaling loop consumes — arrival and
/// completion *rates* rather than lifetime totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueDelta {
    /// Jobs admitted since the previous snapshot.
    pub admitted: u64,
    /// Submissions rejected outright since the previous snapshot.
    pub rejected: u64,
    /// Jobs shed under backpressure since the previous snapshot.
    pub shed: u64,
    /// Jobs expired at their deadline since the previous snapshot.
    pub expired: u64,
    /// Jobs cancelled since the previous snapshot.
    pub cancelled: u64,
    /// Jobs completed since the previous snapshot.
    pub completed: u64,
    /// Transiently failed attempts re-queued for retry since the
    /// previous snapshot — the "a shard is flapping" signal.
    pub retried: u64,
}

impl QueueDelta {
    /// Whether nothing happened between the two snapshots — the signal
    /// an operator loop keys "scale down" decisions on.
    pub fn is_idle(&self) -> bool {
        *self == QueueDelta::default()
    }

    /// Jobs the queue turned away or gave up on between the snapshots
    /// (rejected + shed + expired) — sustained pressure that completions
    /// cannot absorb, i.e. the "scale up" signal.
    pub fn turned_away(&self) -> u64 {
        self.rejected + self.shed + self.expired
    }
}

/// Mutable counter state behind the service's lock; snapshots into
/// [`QueueStats`].
#[derive(Debug, Default)]
pub(crate) struct StatsState {
    pub admitted: u64,
    pub rejected: u64,
    pub shed: u64,
    pub expired: u64,
    pub cancelled: u64,
    pub completed: u64,
    pub retried: u64,
    latency: [LatencyWindow; 3],
    queue_wait: [LatencyWindow; 3],
}

impl StatsState {
    pub fn record_latency(&mut self, priority: Priority, latency: Duration) {
        self.latency[priority.rank()].record(latency);
    }

    pub fn record_queue_wait(&mut self, priority: Priority, wait: Duration) {
        self.queue_wait[priority.rank()].record(wait);
    }

    pub fn snapshot(&self, depth: usize, inflight: usize, cache: CacheStats) -> QueueStats {
        QueueStats {
            depth,
            inflight,
            admitted: self.admitted,
            rejected: self.rejected,
            shed: self.shed,
            expired: self.expired,
            cancelled: self.cancelled,
            completed: self.completed,
            retried: self.retried,
            latency: [0, 1, 2].map(|rank| self.latency[rank].summary()),
            queue_wait: [0, 1, 2].map(|rank| self.queue_wait[rank].summary()),
            cache,
        }
    }
}

/// A bounded ring of recent latency samples, plus the lifetime count
/// and sum.
#[derive(Debug, Default)]
struct LatencyWindow {
    samples: Vec<Duration>,
    next: usize,
    count: u64,
    sum: Duration,
}

impl LatencyWindow {
    fn record(&mut self, latency: Duration) {
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(latency);
        } else {
            self.samples[self.next] = latency;
        }
        self.next = (self.next + 1) % LATENCY_WINDOW;
        self.count += 1;
        self.sum = self.sum.saturating_add(latency);
    }

    fn summary(&self) -> LatencySummary {
        if self.samples.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        LatencySummary {
            count: self.count,
            sum: self.sum,
            min: sorted[0],
            p50: percentile(&sorted, 0.50),
            p90: percentile(&sorted, 0.90),
            p99: percentile(&sorted, 0.99),
            max: *sorted.last().expect("non-empty window"),
        }
    }
}

/// Nearest-rank percentile over an already-sorted, non-empty slice.
fn percentile(sorted: &[Duration], q: f64) -> Duration {
    let index = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[index.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn percentiles_over_a_known_distribution() {
        let mut window = LatencyWindow::default();
        // 1..=100 ms, shuffled deterministically (stride 37 is coprime
        // with 100, so the walk covers every value once).
        for i in 0..100u64 {
            window.record(ms((i * 37) % 100 + 1));
        }
        let summary = window.summary();
        assert_eq!(summary.count, 100);
        assert_eq!(summary.min, ms(1));
        // Nearest-rank over 100 samples: index round(0.5 * 99) = 50,
        // i.e. the 51st value.
        assert_eq!(summary.p50, ms(51));
        assert_eq!(summary.p90, ms(90));
        assert_eq!(summary.p99, ms(99));
        assert_eq!(summary.max, ms(100));
    }

    #[test]
    fn window_keeps_only_recent_samples() {
        let mut window = LatencyWindow::default();
        for _ in 0..LATENCY_WINDOW {
            window.record(ms(1));
        }
        // Overwrite the whole ring with much slower samples.
        for _ in 0..LATENCY_WINDOW {
            window.record(ms(100));
        }
        let summary = window.summary();
        assert_eq!(summary.p50, ms(100), "old samples must age out");
        assert_eq!(summary.count, 2 * LATENCY_WINDOW as u64, "count is lifetime total");
    }

    #[test]
    fn empty_window_summarizes_to_zero() {
        assert_eq!(LatencyWindow::default().summary(), LatencySummary::default());
    }

    #[test]
    fn delta_since_tracks_counter_movement() {
        let mut state =
            StatsState { admitted: 5, completed: 3, shed: 1, ..StatsState::default() };
        let earlier = state.snapshot(2, 0, CacheStats::zero());
        state.admitted += 4;
        state.completed += 2;
        state.expired += 1;
        state.retried += 2;
        let later = state.snapshot(3, 1, CacheStats::zero());
        let delta = later.delta_since(&earlier);
        assert_eq!(
            delta,
            QueueDelta {
                admitted: 4,
                completed: 2,
                expired: 1,
                retried: 2,
                ..QueueDelta::default()
            }
        );
        assert!(!delta.is_idle());
        assert_eq!(delta.turned_away(), 1);
        assert!(later.delta_since(&later).is_idle());
        // Snapshots out of order saturate to zero instead of wrapping.
        assert!(earlier.delta_since(&later).is_idle());
    }

    #[test]
    fn snapshot_carries_counters_and_per_priority_latency() {
        let mut state = StatsState { admitted: 5, completed: 3, ..StatsState::default() };
        state.record_latency(Priority::Interactive, ms(10));
        state.record_latency(Priority::Speculative, ms(80));
        let stats = state.snapshot(2, 1, CacheStats::zero());
        assert_eq!((stats.depth, stats.inflight), (2, 1));
        assert_eq!((stats.admitted, stats.completed), (5, 3));
        assert_eq!(stats.latency(Priority::Interactive).p50, ms(10));
        assert_eq!(stats.latency(Priority::Speculative).p99, ms(80));
        assert_eq!(stats.latency(Priority::Batch).count, 0);
    }

    #[test]
    fn queue_wait_is_tracked_separately_from_total_latency() {
        let mut state = StatsState::default();
        state.record_queue_wait(Priority::Interactive, ms(2));
        state.record_queue_wait(Priority::Interactive, ms(8));
        state.record_latency(Priority::Interactive, ms(50));
        let stats = state.snapshot(0, 0, CacheStats::zero());
        let wait = stats.queue_wait(Priority::Interactive);
        assert_eq!((wait.count, wait.min, wait.max), (2, ms(2), ms(8)));
        let total = stats.latency(Priority::Interactive);
        assert_eq!((total.count, total.min, total.max), (1, ms(50), ms(50)));
        assert_eq!(stats.queue_wait(Priority::Batch), LatencySummary::default());
    }

    #[test]
    fn prometheus_renders_counters_gauges_and_per_priority_wait_summaries() {
        let mut state = StatsState {
            admitted: 7,
            rejected: 1,
            shed: 2,
            completed: 3,
            retried: 4,
            ..StatsState::default()
        };
        state.record_queue_wait(Priority::Interactive, ms(2));
        state.record_queue_wait(Priority::Interactive, ms(8));
        state.record_queue_wait(Priority::Speculative, ms(500));
        let text = state.snapshot(5, 1, CacheStats::zero()).to_prometheus();
        for line in [
            "# TYPE fastsc_queue_depth gauge",
            "fastsc_queue_depth 5",
            "fastsc_queue_inflight 1",
            "# TYPE fastsc_queue_jobs_total counter",
            "fastsc_queue_jobs_total{event=\"admitted\"} 7",
            "fastsc_queue_jobs_total{event=\"rejected\"} 1",
            "fastsc_queue_jobs_total{event=\"shed\"} 2",
            "fastsc_queue_jobs_total{event=\"expired\"} 0",
            "fastsc_queue_jobs_total{event=\"cancelled\"} 0",
            "fastsc_queue_jobs_total{event=\"completed\"} 3",
            "fastsc_queue_retries_total 4",
            "# TYPE fastsc_queue_wait_seconds summary",
            // Nearest rank over two samples: p50 rounds up to the second.
            "fastsc_queue_wait_seconds{priority=\"interactive\",quantile=\"0.5\"} 0.008",
            "fastsc_queue_wait_seconds{priority=\"interactive\",quantile=\"0.99\"} 0.008",
            "fastsc_queue_wait_seconds_sum{priority=\"interactive\"} 0.01",
            "fastsc_queue_wait_seconds_count{priority=\"interactive\"} 2",
            "fastsc_queue_wait_seconds{priority=\"speculative\",quantile=\"0.9\"} 0.5",
            "fastsc_queue_wait_seconds_sum{priority=\"speculative\"} 0.5",
            "fastsc_queue_wait_seconds_count{priority=\"speculative\"} 1",
        ] {
            assert!(text.lines().any(|l| l == line), "missing {line:?} in:\n{text}");
        }
        assert!(!text.contains("priority=\"batch\""), "empty classes are omitted:\n{text}");
        for line in text.lines() {
            assert!(line.starts_with('#') || line.split(' ').count() == 2, "bad line: {line}");
        }
    }
}
