//! The service's half of a metrics scrape: each family is rendered from
//! the record that owns its events (the shard's [`ShardEvents`] and
//! result cache, its context's SMT memo, its artifact store), one series
//! per shard. A removed shard keeps its event record and the last
//! counters of the records it released ([`ShardSeries`]), so no series
//! goes backwards across `remove_shard`.

use super::{CompileService, Shard, Slot};
use crate::cache::CacheStats;
use fastsc_core::SmtStats;
use fastsc_telemetry::metrics::{counter_family, histogram};
use fastsc_telemetry::{Histogram, STRATEGY_LABELS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The shard events no other record counts.
#[derive(Debug, Default)]
pub(super) struct ShardEvents {
    /// Real compile latency (cache hits excluded), indexed by
    /// `Strategy::stable_code()`.
    pub(super) compile: [Histogram; 5],
    /// Duplicate slots a batch served from another slot's compile.
    pub(super) coalesced: AtomicU64,
    /// Store artifacts adopted at hydrate.
    pub(super) store_hits: AtomicU64,
    /// Store artifacts rejected at hydrate, plus a hydrate without statics.
    pub(super) store_misses: AtomicU64,
    /// Breaker trips, failed probes and operator quarantines.
    pub(super) breaker_opened: AtomicU64,
    /// HalfOpen probes dispatched.
    pub(super) breaker_half_opened: AtomicU64,
    /// Probe successes and operator restores.
    pub(super) breaker_closed: AtomicU64,
}

/// Adds one to a [`ShardEvents`] counter.
pub(super) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

fn count(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// One shard's scrape records: its own events, and the counters of the
/// cache, context and store it owns, read at one instant.
#[derive(Debug, Clone)]
pub(super) struct ShardSeries {
    events: Arc<ShardEvents>,
    pub(super) cache: CacheStats,
    smt: SmtStats,
    /// The store's `StoreStats::bytes_written` (0 without a store).
    store_bytes: u64,
}

impl Shard {
    pub(super) fn series(&self) -> ShardSeries {
        let context =
            self.compiler.context().expect("a shard's context is built at registration");
        ShardSeries {
            events: Arc::clone(&self.events),
            cache: self.cache.stats(),
            smt: context.smt_stats(),
            store_bytes: self.store.as_ref().map_or(0, |store| store.stats().bytes_written),
        }
    }
}

/// A per-shard counter family: name, help, and each series' label and
/// value.
type CounterFamily =
    (&'static str, &'static str, &'static [(&'static str, fn(&ShardSeries) -> u64)]);

const COUNTERS: [CounterFamily; 5] = [
    (
        "fastsc_smt_memo_total",
        "SMT frequency-memo lookups by outcome.",
        &[
            ("result=\"hit\"", |s| s.smt.memo_hits),
            ("result=\"solve\"", |s| s.smt.solve_time.count()),
        ],
    ),
    (
        "fastsc_cache_requests_total",
        "Schedule-cache lookups by outcome (coalesced hits included).",
        &[
            ("result=\"hit\"", |s| s.cache.hits + count(&s.events.coalesced)),
            ("result=\"miss\"", |s| s.cache.misses),
        ],
    ),
    (
        "fastsc_store_requests_total",
        "Persistent artifact-store lookups by outcome.",
        &[
            ("result=\"hit\"", |s| count(&s.events.store_hits)),
            ("result=\"miss\"", |s| count(&s.events.store_misses)),
        ],
    ),
    (
        "fastsc_store_bytes_written_total",
        "Bytes appended to the shard's on-disk artifact store.",
        &[("", |s| s.store_bytes)],
    ),
    (
        "fastsc_breaker_transitions_total",
        "Circuit-breaker state transitions by destination state.",
        &[
            ("to=\"open\"", |s| count(&s.events.breaker_opened)),
            ("to=\"half_open\"", |s| count(&s.events.breaker_half_opened)),
            ("to=\"closed\"", |s| count(&s.events.breaker_closed)),
        ],
    ),
];

impl CompileService {
    /// Renders this service's families (compile latency, SMT memo, cache,
    /// store and breaker; `docs/OBSERVABILITY.md` lists them) in
    /// Prometheus text exposition format 0.0.4, one series per shard
    /// (`shard` = registration index; a retired shard reports its final
    /// counters). Shards are read one at a time, so a scrape racing a
    /// batch may be off by the in-flight events.
    pub fn to_prometheus(&self) -> String {
        let shards: Vec<ShardSeries> = self
            .read_shards()
            .iter()
            .map(|slot| match slot {
                Slot::Live(live) => live.series(),
                Slot::Retired { last, .. } => (**last).clone(),
            })
            .collect();
        let mut out = String::with_capacity(4096);
        let (mut compile, mut solves) = (Vec::new(), Vec::new());
        for (shard, series) in shards.iter().enumerate() {
            solves.push((format!("shard=\"{shard}\""), &series.smt.solve_time));
            for (strategy, h) in STRATEGY_LABELS.iter().zip(&series.events.compile) {
                if h.count() > 0 {
                    compile.push((format!("shard=\"{shard}\",strategy=\"{strategy}\""), h));
                }
            }
        }
        histogram(
            &mut out,
            "fastsc_compile_duration_seconds",
            "Real compile latency by shard and strategy (cache hits excluded).",
            &compile,
        );
        histogram(
            &mut out,
            "fastsc_smt_solve_seconds",
            "SMT frequency-solve time (memo misses only).",
            &solves,
        );
        for (name, help, events) in COUNTERS {
            let mut series = Vec::new();
            for (shard, figures) in shards.iter().enumerate() {
                for (label, value) in events {
                    let sep = if label.is_empty() { "" } else { "," };
                    series.push((format!("{{shard=\"{shard}\"{sep}{label}}}"), value(figures)));
                }
            }
            counter_family(&mut out, name, help, &series);
        }
        out
    }
}
