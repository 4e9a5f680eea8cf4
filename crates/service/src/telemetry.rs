//! Per-shard telemetry: static calibration profiles and live serving
//! counters.
//!
//! The paper's central trade-off — schedule depth against
//! crosstalk-limited `P_success` — means two chips of equal size are
//! *not* interchangeable serving targets: a longer-lived, less crowded
//! device sustains a higher success rate for the same program. Placement
//! therefore needs calibration data, not just load figures. This module
//! defines what a shard exposes:
//!
//! * [`ShardProfile`] — an **immutable** summary built once at
//!   registration from the device and the compiler's frequency plan:
//!   size, connectivity degree statistics, coherence figures, and a
//!   cheap static [`estimated_success`](ShardProfile::estimated_success)
//!   score (`fastsc_noise::static_success_estimate` over the compile
//!   context's band and parking data — no density simulation, nothing on
//!   the compile hot path).
//! * [`ShardView`] — a point-in-time **snapshot** of one shard: its
//!   profile plus the live figures the router maintains (lifecycle
//!   [`ShardState`], routed-but-unfinished load, EWMA compile latency,
//!   result-cache counters). Routing policies receive a slice of views
//!   (`RouteRequest::shards`), and `QueueService::telemetry_feed`
//!   streams the same snapshots to operator loops.
//!
//! Profiles order shards by fidelity via
//! [`ShardProfile::cmp_estimated_success`], a **total** order (NaN and
//! other non-finite scores sort as worst, never panic) so ranking
//! policies can sort any fleet deterministically.

use fastsc_core::CompileContext;
use fastsc_device::CalibrationSummary;
use fastsc_noise::static_success_estimate;
use std::cmp::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::cache::CacheStats;

/// Immutable per-shard calibration summary, built once at registration
/// (see the [module docs](self)). All fields are pure functions of the
/// `(device, config)` pair behind the shard, so two registrations of the
/// same device always profile identically.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardProfile {
    /// Device size in qubits (capacity filters compare against this).
    pub qubits: usize,
    /// Number of physical couplings.
    pub couplings: usize,
    /// Mean connectivity degree.
    pub mean_degree: f64,
    /// Maximum connectivity degree (band-crowding proxy).
    pub max_degree: usize,
    /// Mean energy-relaxation time `T1` across qubits, µs.
    pub mean_t1_us: f64,
    /// Worst (minimum) `T1` across qubits, µs.
    pub min_t1_us: f64,
    /// Mean dephasing time `T2` across qubits, µs.
    pub mean_t2_us: f64,
    /// Worst (minimum) `T2` across qubits, µs.
    pub min_t2_us: f64,
    /// Width of the reachable interaction band, GHz.
    pub band_width_ghz: f64,
    /// Minimum parking separation between coupled qubits, GHz
    /// (`CompileContext::min_coupled_parking_separation`).
    pub min_parking_separation_ghz: f64,
    /// The static success score: `fastsc_noise::static_success_estimate`
    /// over the fields above. In `[0, 1]`; orders devices against each
    /// other, not against per-program `P_success` estimates.
    pub estimated_success: f64,
}

impl ShardProfile {
    /// Builds the profile for the shard behind `context`. Cost is one
    /// pass over the device's qubits and couplings — registration-time
    /// work, never on the compile path.
    pub fn from_context(context: &CompileContext) -> Self {
        let device = context.device();
        let CalibrationSummary {
            qubits,
            couplings,
            mean_degree,
            max_degree,
            mean_t1_us,
            min_t1_us,
            mean_t2_us,
            min_t2_us,
        } = device.calibration_summary();
        let band = context.band();
        let min_parking_separation_ghz = context.min_coupled_parking_separation();
        ShardProfile {
            qubits,
            couplings,
            mean_degree,
            max_degree,
            mean_t1_us,
            min_t1_us,
            mean_t2_us,
            min_t2_us,
            band_width_ghz: band.width(),
            min_parking_separation_ghz,
            estimated_success: static_success_estimate(
                device,
                band,
                min_parking_separation_ghz,
            ),
        }
    }

    /// Compares two profiles by [`estimated_success`](Self::estimated_success),
    /// **ascending** (so `max_by` picks the
    /// best shard). This is a total order on *any* pair of profiles:
    /// non-finite scores (NaN, infinities — impossible from
    /// [`from_context`](Self::from_context), but arbitrary under
    /// hand-built profiles) compare as negative infinity, i.e. worst,
    /// so sorting a fleet never panics and never depends on the
    /// comparison order. Equal scores compare `Equal` — deliberately, so
    /// ranking policies keep their own documented tie-breaks (load,
    /// then index) meaningful.
    pub fn cmp_estimated_success(&self, other: &Self) -> Ordering {
        let sanitize = |score: f64| if score.is_finite() { score } else { f64::NEG_INFINITY };
        sanitize(self.estimated_success).total_cmp(&sanitize(other.estimated_success))
    }
}

/// Where a shard is in its lifecycle (see
/// `CompileService::drain_shard` / `remove_shard`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Serving: policies may route new jobs to it.
    Active,
    /// Draining: no new routing; jobs already routed finish normally.
    Draining,
    /// Tripped by its circuit breaker (or an operator): no new routing,
    /// but unlike draining the router periodically sends a single probe
    /// job and restores the shard to [`Active`](Self::Active) when the
    /// probe succeeds (see `CompileService::set_breaker`).
    Quarantined,
    /// Removed: compile context and cache released; the index remains as
    /// a tombstone so shard indices stay dense and stable.
    Retired,
}

/// Live failure counters for one shard — the circuit breaker's input,
/// snapshotted into every [`ShardView`].
///
/// `attempts`/`failures` count every job the shard's compile path
/// served, **including** errored and panicked ones (the result cache's
/// short-circuit hits are excluded — they never reach the compiler).
/// Telemetry that only counted successes would under-report sick shards,
/// which is exactly when operators need the numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardHealth {
    /// Compile attempts served (successes and failures alike).
    pub attempts: u64,
    /// Attempts that ended in an error or a panic, of any kind.
    pub failures: u64,
    /// Current run of consecutive *transient* failures (panicked or
    /// fault-injected compiles; deterministic program errors do not
    /// count — a healthy shard fed bad programs is not sick). Reset by
    /// any success. This is what trips the breaker.
    pub consecutive_failures: u32,
    /// Times the circuit breaker has tripped this shard into
    /// [`ShardState::Quarantined`].
    pub breaker_trips: u64,
}

impl ShardHealth {
    /// Fraction of served attempts that failed, in `[0, 1]` (zero before
    /// the first attempt).
    pub fn error_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.failures as f64 / self.attempts as f64
        }
    }
}

/// A point-in-time snapshot of one shard — the uniform read surface
/// every routing policy and telemetry consumer shares (see the
/// [module docs](self)).
///
/// During sequential batch routing the router keeps `load` current
/// between policy calls, so a policy always sees jobs routed earlier in
/// the same batch as load, exactly as it did before profiles existed.
#[derive(Debug, Clone)]
pub struct ShardView {
    /// The shard's registration index.
    pub shard: usize,
    /// The immutable registration-time profile.
    pub profile: Arc<ShardProfile>,
    /// Lifecycle state at snapshot time.
    pub state: ShardState,
    /// Routed-but-unfinished jobs (earlier in this batch + in flight
    /// from overlapping batches).
    pub load: usize,
    /// Exponentially weighted moving average of recent real compile
    /// latencies on this shard (cache hits excluded, errored and
    /// panicked attempts included); zero until the first compile
    /// finishes.
    pub ewma_compile_latency: Duration,
    /// Result-cache counters at snapshot time.
    pub cache: CacheStats,
    /// Failure counters at snapshot time — the circuit breaker's input.
    pub health: ShardHealth,
}

impl ShardView {
    /// Whether policies may route new work here.
    pub fn routable(&self) -> bool {
        self.state == ShardState::Active
    }

    /// Device capacity in qubits.
    pub fn qubits(&self) -> usize {
        self.profile.qubits
    }

    /// Whether this shard is routable *and* large enough for a
    /// `program_qubits`-wide program.
    pub fn fits(&self, program_qubits: usize) -> bool {
        self.routable() && self.qubits() >= program_qubits
    }

    /// The profile's static success score (see
    /// [`ShardProfile::estimated_success`]).
    pub fn estimated_success(&self) -> f64 {
        self.profile.estimated_success
    }

    /// Fraction of cache lookups served from the result cache, in
    /// `[0, 1]` (zero before the first lookup).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache.hits + self.cache.misses;
        if total == 0 {
            0.0
        } else {
            self.cache.hits as f64 / total as f64
        }
    }

    /// Fraction of served compile attempts that failed (see
    /// [`ShardHealth::error_rate`]).
    pub fn error_rate(&self) -> f64 {
        self.health.error_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsc_core::CompilerConfig;
    use fastsc_device::{Device, DeviceBuilder};

    fn profile_of(device: Device) -> ShardProfile {
        let context =
            CompileContext::new(device, CompilerConfig::default()).expect("context builds");
        ShardProfile::from_context(&context)
    }

    fn hand_built(score: f64) -> ShardProfile {
        ShardProfile {
            qubits: 9,
            couplings: 12,
            mean_degree: 2.7,
            max_degree: 4,
            mean_t1_us: 25.0,
            min_t1_us: 25.0,
            mean_t2_us: 20.0,
            min_t2_us: 20.0,
            band_width_ghz: 0.6,
            min_parking_separation_ghz: 0.5,
            estimated_success: score,
        }
    }

    #[test]
    fn profile_is_deterministic_and_in_range() {
        let a = profile_of(Device::grid(3, 3, 7));
        let b = profile_of(Device::grid(3, 3, 7));
        assert_eq!(a, b, "same device, same profile");
        assert_eq!((a.qubits, a.couplings, a.max_degree), (9, 12, 4));
        assert!(a.estimated_success > 0.0 && a.estimated_success <= 1.0);
        assert!(a.band_width_ghz > 0.0);
        assert!(a.min_parking_separation_ghz > 0.0);
    }

    #[test]
    fn coherence_orders_profiles() {
        let mut noisy = DeviceBuilder::new(fastsc_graph::topology::grid(3, 3));
        noisy.seed(7).coherence(5.0, 3.0);
        let mut healthy = DeviceBuilder::new(fastsc_graph::topology::grid(3, 3));
        healthy.seed(7).coherence(50.0, 40.0);
        let noisy = profile_of(noisy.build());
        let healthy = profile_of(healthy.build());
        assert_eq!(noisy.cmp_estimated_success(&healthy), Ordering::Less);
        assert_eq!(healthy.cmp_estimated_success(&noisy), Ordering::Greater);
        assert_eq!(healthy.cmp_estimated_success(&healthy), Ordering::Equal);
    }

    #[test]
    fn non_finite_scores_sort_worst_without_panicking() {
        let good = hand_built(0.9);
        for bad_score in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bad = hand_built(bad_score);
            assert_eq!(
                bad.cmp_estimated_success(&good),
                Ordering::Less,
                "{bad_score} must rank below any finite score"
            );
        }
        // NaN vs NaN ties as Equal (both sanitize to negative infinity);
        // qubit count deliberately does not leak into the score order —
        // policies own their own tie-breaks.
        let mut wider = hand_built(f64::NAN);
        wider.qubits = 16;
        assert_eq!(hand_built(f64::NAN).cmp_estimated_success(&wider), Ordering::Equal);
    }

    #[test]
    fn view_accessors_reflect_profile_and_counters() {
        let view = ShardView {
            shard: 2,
            profile: Arc::new(hand_built(0.75)),
            state: ShardState::Active,
            load: 3,
            ewma_compile_latency: Duration::from_millis(4),
            cache: CacheStats { hits: 3, misses: 1, evictions: 0, len: 4, capacity: 8 },
            health: ShardHealth { attempts: 8, failures: 2, ..ShardHealth::default() },
        };
        assert!(view.routable());
        assert_eq!(view.qubits(), 9);
        assert!(view.fits(9) && !view.fits(10));
        assert_eq!(view.estimated_success(), 0.75);
        assert!((view.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert!((view.error_rate() - 0.25).abs() < 1e-12);
        let drained = ShardView { state: ShardState::Draining, ..view.clone() };
        assert!(!drained.routable() && !drained.fits(4));
        let quarantined = ShardView { state: ShardState::Quarantined, ..view.clone() };
        assert!(!quarantined.routable() && !quarantined.fits(4));
        let empty = ShardView { cache: CacheStats::zero(), ..view };
        assert_eq!(empty.cache_hit_rate(), 0.0);
    }

    #[test]
    fn error_rate_handles_zero_attempts() {
        assert_eq!(ShardHealth::default().error_rate(), 0.0);
        let health = ShardHealth { attempts: 4, failures: 4, ..ShardHealth::default() };
        assert_eq!(health.error_rate(), 1.0);
    }

    #[test]
    fn rates_are_pinned_finite_on_a_fresh_shard() {
        // A just-registered shard has served nothing: both rates must be
        // exactly 0.0 — never NaN from 0/0 — so dashboards and routing
        // policies can consume them without a finiteness guard.
        let fresh = ShardView {
            shard: 0,
            profile: Arc::new(hand_built(0.9)),
            state: ShardState::Active,
            load: 0,
            ewma_compile_latency: Duration::ZERO,
            cache: CacheStats::zero(),
            health: ShardHealth::default(),
        };
        for rate in [fresh.cache_hit_rate(), fresh.error_rate()] {
            assert!(rate.is_finite(), "fresh-shard rate must be finite, got {rate}");
            assert_eq!(rate, 0.0);
        }
        // And any populated counters stay inside the documented [0, 1].
        let busy = ShardView {
            cache: CacheStats { hits: 5, misses: 3, evictions: 1, len: 8, capacity: 8 },
            health: ShardHealth { attempts: 7, failures: 2, ..ShardHealth::default() },
            ..fresh
        };
        for rate in [busy.cache_hit_rate(), busy.error_rate()] {
            assert!((0.0..=1.0).contains(&rate), "rate {rate} escaped [0, 1]");
        }
    }
}
