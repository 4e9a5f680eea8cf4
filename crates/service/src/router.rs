//! The shard router: a fleet of per-device compile shards behind one
//! submission queue.
//!
//! Each registered device becomes a **shard**: an [`Arc`]-shared
//! [`CompileContext`] (crosstalk graph, parking, static colorings, SMT
//! memo — built once at registration), an immutable
//! [`ShardProfile`] (calibration summary + static `estimated_success`
//! score, also built at registration), a bounded [`ScheduleCache`] of
//! finished schedules, and live telemetry (lifecycle state,
//! routed-but-unfinished load, EWMA compile latency). A batch is
//! processed in three phases:
//!
//! 1. **Route** — the [`ShardPolicy`] assigns every job a shard,
//!    sequentially in submission order (deterministic; never depends on
//!    worker timing), reading a [`ShardView`] snapshot per shard.
//! 2. **Coalesce** — jobs with identical `(shard, cache key)` collapse
//!    to one compile whose result every duplicate slot shares (repeat
//!    traffic in a single batch costs one schedule, not N; shards with
//!    caching disabled opt out).
//! 3. **Dispatch** — the unique jobs fan out over the work-stealing
//!    rayon pool as *one* flat batch, so a shard with heavy jobs borrows
//!    the idle workers of its lightly-loaded neighbors. Results are
//!    reassembled in submission order with per-job error isolation
//!    (a panicking job surfaces as `CompileError::Internal` in its own
//!    slot).
//!
//! The fleet is **dynamic**: [`add_shard`](CompileService::add_shard),
//! [`drain_shard`](CompileService::drain_shard), and
//! [`remove_shard`](CompileService::remove_shard) are `&self` and safe
//! to call while another thread (e.g. a queue dispatcher) is compiling —
//! routing snapshots the fleet per batch under a read lock, and draining
//! uses that lock as a barrier so it can wait out every job already
//! routed to the shard. Shard indices are dense and stable for the
//! service's lifetime: removal leaves a tombstone that keeps the index
//! (and the shard's final cache counters) in place.
//!
//! Compilation is pure per `(device, config, program, strategy)`, so
//! routing, stealing, and caching are all invisible in the output: every
//! reply is bit-identical to a fresh single-device compile of that job
//! on its routed shard (the determinism suite asserts exactly this).

use crate::cache::{device_fingerprint, CacheKey, CacheStats, ScheduleCache};
use crate::fault::{injected_panic, FaultAction, FaultInjector};
use crate::policy::{RouteRequest, ShardPolicy};
use crate::telemetry::{ShardHealth, ShardProfile, ShardState, ShardView};
use fastsc_core::batch::{compile_isolated, CompileJob};
use fastsc_core::{
    CompileContext, CompileError, CompiledProgram, Compiler, CompilerConfig, Strategy,
};
use fastsc_device::Device;
use fastsc_store::ArtifactStore;
use fastsc_telemetry::{metrics, phase, AttrValue, TraceHandle};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

mod persist;

pub use persist::ImportReport;

/// One successfully compiled job, with routing/caching provenance.
#[derive(Debug, Clone)]
pub struct ServiceReply {
    /// The shard (registration index) that served the job.
    pub shard: usize,
    /// Whether the slot was served **without running a compile**: a
    /// whole-schedule result-cache hit, or coalesced with an identical
    /// job earlier in the same batch.
    pub cache_hit: bool,
    /// The compiled program (shared; a cache hit clones no schedule).
    pub compiled: Arc<CompiledProgram>,
}

/// One slot's outcome from
/// [`compile_batch_excluding`](CompileService::compile_batch_excluding):
/// the reply or error, plus which shard served the attempt — the
/// attribution retrying front ends need to exclude a failed shard on the
/// next attempt and to build [`fastsc_core::FailedAttempt`] histories.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The shard that served (or failed) the attempt; `None` when
    /// routing itself refused the job, so no shard was ever involved.
    pub shard: Option<usize>,
    /// The attempt's result.
    pub result: Result<ServiceReply, CompileError>,
}

const STATE_ACTIVE: u8 = 0;
const STATE_DRAINING: u8 = 1;
const STATE_QUARANTINED: u8 = 2;

/// Circuit-breaker thresholds for the whole fleet (see
/// [`CompileService::set_breaker`]).
///
/// The breaker is the classic three-state machine, made deterministic:
///
/// * **Closed** — the shard is [`ShardState::Active`]; every transient
///   failure (panicked or fault-injected compile) extends its
///   consecutive-failure streak, any success resets it.
/// * **Open** — the streak reached
///   [`failure_threshold`](Self::failure_threshold): the shard is
///   [`ShardState::Quarantined`], so policies stop routing to it, and a
///   cooldown starts — counted in **jobs the fleet routes elsewhere**,
///   not wall time, so recovery timing is a pure function of the
///   submission stream.
/// * **HalfOpen** — after [`cooldown_jobs`](Self::cooldown_jobs) routed
///   jobs, the router hands the quarantined shard exactly one fitting
///   job as a probe. Probe success closes the breaker (the shard is
///   Active again); probe failure reopens it with a fresh cooldown, and
///   the probe job itself recovers through the queue's retry/failover
///   path like any other transient failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive transient failures that trip the breaker.
    pub failure_threshold: u32,
    /// Jobs the fleet must route elsewhere before a quarantined shard is
    /// probed.
    pub cooldown_jobs: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { failure_threshold: 5, cooldown_jobs: 8 }
    }
}

/// Smoothing factor of the per-shard compile-latency EWMA: each new
/// sample contributes a quarter, so the figure tracks load shifts within
/// a few batches without jittering per job.
const EWMA_WEIGHT: f64 = 0.25;

/// Dirty cache entries a shard accumulates before its next periodic
/// flush to its artifact store. Flushes also happen on drain
/// and removal, so the threshold bounds crash-loss, not completeness.
const FLUSH_DIRTY_THRESHOLD: usize = 64;

#[derive(Debug)]
struct Shard {
    compiler: Compiler,
    cache: ScheduleCache,
    /// The persistent artifact store this shard flushes to (and was
    /// hydrated from), when its [`ShardSpec`] named one.
    store: Option<Arc<ArtifactStore>>,
    fingerprint: u64,
    config_fingerprint: u64,
    profile: Arc<ShardProfile>,
    /// Routed-but-unfinished jobs: incremented when a batch commits a
    /// unique job to this shard (still under the fleet read lock),
    /// decremented when that job's slot resolves. `drain_shard` waits on
    /// this hitting zero.
    inflight: AtomicUsize,
    /// EWMA of real compile latencies, in nanoseconds (0 = no sample).
    ewma_latency_ns: AtomicU64,
    state: AtomicU8,
    /// Compile attempts served (successes and failures; cache hits
    /// excluded).
    attempts: AtomicU64,
    /// Attempts that errored or panicked, of any kind.
    failures: AtomicU64,
    /// Current run of consecutive transient failures — the breaker trip
    /// condition. Reset by any success.
    consecutive_failures: AtomicU32,
    /// Times the breaker tripped this shard into quarantine.
    trips: AtomicU64,
    /// Jobs the fleet routed elsewhere since this shard's breaker
    /// opened; the probe fires once it reaches
    /// [`BreakerConfig::cooldown_jobs`].
    cooldown_routed: AtomicU64,
    /// Whether a HalfOpen probe job is in flight on this shard (at most
    /// one at a time).
    probing: AtomicBool,
}

impl Shard {
    fn state(&self) -> ShardState {
        match self.state.load(Ordering::Acquire) {
            STATE_ACTIVE => ShardState::Active,
            STATE_QUARANTINED => ShardState::Quarantined,
            _ => ShardState::Draining,
        }
    }

    fn view(&self, shard: usize) -> ShardView {
        ShardView {
            shard,
            profile: Arc::clone(&self.profile),
            state: self.state(),
            load: self.inflight.load(Ordering::Relaxed),
            ewma_compile_latency: Duration::from_nanos(
                self.ewma_latency_ns.load(Ordering::Relaxed),
            ),
            cache: self.cache.stats(),
            health: ShardHealth {
                attempts: self.attempts.load(Ordering::Relaxed),
                failures: self.failures.load(Ordering::Relaxed),
                consecutive_failures: self.consecutive_failures.load(Ordering::Relaxed),
                breaker_trips: self.trips.load(Ordering::Relaxed),
            },
        }
    }

    /// Closes the breaker if this shard was serving a HalfOpen probe:
    /// the probe came back, so the shard returns to rotation.
    fn close_breaker_if_probing(&self) {
        if self.probing.swap(false, Ordering::AcqRel) {
            // Only a quarantined shard may be restored: a drain or
            // removal that raced the probe wins.
            if self
                .state
                .compare_exchange(
                    STATE_QUARANTINED,
                    STATE_ACTIVE,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                metrics().breaker_closed.inc();
            }
            self.cooldown_routed.store(0, Ordering::Release);
        }
    }

    /// Records one served compile attempt (success or failure) into the
    /// health counters and advances the breaker state machine.
    fn record_attempt(&self, success: bool, transient: bool, breaker: Option<BreakerConfig>) {
        self.attempts.fetch_add(1, Ordering::Relaxed);
        if success {
            self.consecutive_failures.store(0, Ordering::Relaxed);
            self.close_breaker_if_probing();
            return;
        }
        self.failures.fetch_add(1, Ordering::Relaxed);
        if !transient {
            // Deterministic program errors reproduce on any shard; they
            // are the program's fault and never open the breaker.
            return;
        }
        if self.probing.swap(false, Ordering::AcqRel) {
            // HalfOpen probe failed: reopen with a fresh cooldown. The
            // probe job itself fails over through the queue's retry
            // path.
            metrics().breaker_opened.inc();
            self.cooldown_routed.store(0, Ordering::Release);
            self.consecutive_failures.store(0, Ordering::Relaxed);
            return;
        }
        let streak = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(config) = breaker {
            if streak >= config.failure_threshold
                && self
                    .state
                    .compare_exchange(
                        STATE_ACTIVE,
                        STATE_QUARANTINED,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
            {
                self.trips.fetch_add(1, Ordering::Relaxed);
                metrics().breaker_opened.inc();
                self.cooldown_routed.store(0, Ordering::Release);
                self.consecutive_failures.store(0, Ordering::Relaxed);
            }
        }
    }

    fn record_latency(&self, sample: Duration) {
        let sample_ns = u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX).max(1);
        let mut current = self.ewma_latency_ns.load(Ordering::Relaxed);
        loop {
            let next = if current == 0 {
                sample_ns
            } else {
                let blended =
                    (1.0 - EWMA_WEIGHT) * current as f64 + EWMA_WEIGHT * sample_ns as f64;
                (blended as u64).max(1)
            };
            match self.ewma_latency_ns.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }
}

/// Decrements a shard's inflight counter when the job's slot resolves,
/// whatever the path (cache hit, compile, error, panic unwound by
/// `compile_isolated`).
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// One registration index: a live shard, or the tombstone a removed
/// shard leaves behind (frozen profile + final cache counters, so
/// indices stay stable and fleet cache totals never lose history).
#[derive(Debug, Clone)]
enum Slot {
    Live(Arc<Shard>),
    Retired { profile: Arc<ShardProfile>, final_cache: CacheStats },
}

impl Slot {
    fn view(&self, shard: usize) -> ShardView {
        match self {
            Slot::Live(live) => live.view(shard),
            Slot::Retired { profile, final_cache } => ShardView {
                shard,
                profile: Arc::clone(profile),
                state: ShardState::Retired,
                load: 0,
                ewma_compile_latency: Duration::ZERO,
                cache: *final_cache,
                health: ShardHealth::default(),
            },
        }
    }

    fn live(&self, shard: usize) -> &Arc<Shard> {
        match self {
            Slot::Live(live) => live,
            Slot::Retired { .. } => panic!("shard {shard} is retired"),
        }
    }
}

/// A multi-device compile service (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use fastsc_core::batch::CompileJob;
/// use fastsc_core::{CompilerConfig, Strategy};
/// use fastsc_device::Device;
/// use fastsc_service::{CompileService, RoundRobin, ShardSpec};
/// use fastsc_workloads::Benchmark;
///
/// let service = CompileService::new(RoundRobin::new());
/// service.add_shard(ShardSpec::new(Device::grid(3, 3, 7), CompilerConfig::default()))?;
/// service.add_shard(ShardSpec::new(Device::grid(3, 3, 11), CompilerConfig::default()))?;
/// let jobs: Vec<CompileJob> = Strategy::all()
///     .into_iter()
///     .map(|s| CompileJob::new(Benchmark::Xeb(9, 3).build(1), s))
///     .collect();
/// let replies = service.compile_batch(jobs);
/// assert_eq!(replies.len(), 5);
/// // Round-robin alternates the two shards in submission order.
/// assert_eq!(replies[0].as_ref().unwrap().shard, 0);
/// assert_eq!(replies[1].as_ref().unwrap().shard, 1);
/// # Ok::<(), fastsc_core::CompileError>(())
/// ```
#[derive(Debug)]
pub struct CompileService {
    shards: RwLock<Vec<Slot>>,
    policy: Mutex<Box<dyn ShardPolicy>>,
    breaker: Mutex<Option<BreakerConfig>>,
    fault_injector: Mutex<Option<Arc<FaultInjector>>>,
}

/// Everything one shard is built from — the single argument of
/// [`CompileService::add_shard`]. [`ShardSpec::new`] fills in the
/// defaults; override a field with struct-update syntax:
///
/// ```
/// use fastsc_core::CompilerConfig;
/// use fastsc_device::Device;
/// use fastsc_service::ShardSpec;
///
/// let uncached = ShardSpec {
///     cache_capacity: 0,
///     ..ShardSpec::new(Device::grid(3, 3, 7), CompilerConfig::default())
/// };
/// assert!(uncached.store.is_none());
/// ```
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The device the shard compiles for.
    pub device: Device,
    /// The compiler configuration every job on the shard uses.
    pub config: CompilerConfig,
    /// Result-cache capacity in schedules (0 disables result caching
    /// and same-batch coalescing for this shard).
    pub cache_capacity: usize,
    /// A persistent artifact store the shard hydrates from when it is
    /// added (static assignment, SMT memo entries, and cached schedules
    /// for its `(device, config)` fingerprints) and flushes back to on
    /// drain/removal and periodically under load. Store-served
    /// artifacts are re-validated on the way in; anything that fails
    /// validation is ignored and re-solved cold, so a damaged store can
    /// slow a shard down but never change its output.
    pub store: Option<Arc<ArtifactStore>>,
}

impl ShardSpec {
    /// A spec with [`ScheduleCache::DEFAULT_CAPACITY`] and no store.
    pub fn new(device: Device, config: CompilerConfig) -> Self {
        ShardSpec {
            device,
            config,
            cache_capacity: ScheduleCache::DEFAULT_CAPACITY,
            store: None,
        }
    }
}

impl CompileService {
    /// An empty service routing with `policy`. Add at least one shard
    /// before compiling. The circuit breaker starts enabled with
    /// [`BreakerConfig::default`]; no faults are injected until
    /// [`set_fault_injector`](Self::set_fault_injector).
    pub fn new(policy: impl ShardPolicy + 'static) -> Self {
        CompileService {
            shards: RwLock::new(Vec::new()),
            policy: Mutex::new(Box::new(policy)),
            breaker: Mutex::new(Some(BreakerConfig::default())),
            fault_injector: Mutex::new(None),
        }
    }

    /// `add_shard(ShardSpec { cache_capacity, ..ShardSpec::new(device,
    /// config) })`. Kept only because the repo benchmark
    /// (`perfbench/src/served_mix.rs`) calls it; new code should call
    /// [`add_shard`](Self::add_shard).
    ///
    /// # Errors
    ///
    /// As [`add_shard`](Self::add_shard).
    pub fn register_device_with_cache(
        &mut self,
        device: Device,
        config: CompilerConfig,
        cache_capacity: usize,
    ) -> Result<usize, CompileError> {
        self.add_shard(ShardSpec { cache_capacity, ..ShardSpec::new(device, config) })
    }

    /// Adds a shard built from `spec` to the fleet and returns its index
    /// (shard indices are dense and stable: registration order). Safe on
    /// a **live** service — `&self`, so an operator loop can grow the
    /// fleet while a queue dispatcher is compiling; batches snapshot the
    /// fleet at dispatch, so the new shard serves from the next batch
    /// on.
    ///
    /// The shard's [`CompileContext`] and [`ShardProfile`] are built
    /// **eagerly** (outside the fleet lock) so device-level
    /// frequency-plan failures surface here, once, instead of failing
    /// every routed job later. With a [`ShardSpec::store`], the shard
    /// then adopts every store artifact for its fingerprints before it
    /// joins the fleet — a full hit skips the device solve entirely.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::FrequencyBandExhausted`] when the device's
    /// parking assignment or interaction band is unsolvable.
    pub fn add_shard(&self, spec: ShardSpec) -> Result<usize, CompileError> {
        let ShardSpec { device, config, cache_capacity, store } = spec;
        let fingerprint = device_fingerprint(&device);
        let config_fingerprint = config.fingerprint();
        let context = Arc::new(CompileContext::new(device, config)?);
        let profile = Arc::new(ShardProfile::from_context(&context));
        let shard = Arc::new(Shard {
            compiler: Compiler::with_context(context),
            cache: ScheduleCache::with_capacity(cache_capacity),
            store,
            fingerprint,
            config_fingerprint,
            profile,
            inflight: AtomicUsize::new(0),
            ewma_latency_ns: AtomicU64::new(0),
            state: AtomicU8::new(STATE_ACTIVE),
            attempts: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            consecutive_failures: AtomicU32::new(0),
            trips: AtomicU64::new(0),
            cooldown_routed: AtomicU64::new(0),
            probing: AtomicBool::new(false),
        });
        if let Some(store) = &shard.store {
            let mut span = phase("store");
            span.attr("op", "hydrate");
            persist::hydrate(store, &shard);
        }
        let mut shards = self.write_shards();
        shards.push(Slot::Live(shard));
        Ok(shards.len() - 1)
    }

    /// Takes shard `shard` out of rotation and waits for its in-flight
    /// work to finish: policies stop routing to it from the next batch
    /// on, every job already routed to it completes and delivers
    /// normally, and when this call returns the shard is idle. Its
    /// compile context, cache, and counters stay resident (see
    /// [`remove_shard`](Self::remove_shard) to release them). Idempotent;
    /// draining a retired shard is a no-op.
    ///
    /// Safe under a running queue dispatcher: the fleet lock is used as
    /// a barrier, so a batch that snapshotted the fleet before the drain
    /// began has committed its routing (and its load accounting) before
    /// the wait starts — an admitted job is never lost.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn drain_shard(&self, shard: usize) {
        let live = {
            let shards = self.read_shards();
            assert!(shard < shards.len(), "shard {shard} of {}", shards.len());
            match &shards[shard] {
                Slot::Retired { .. } => return,
                Slot::Live(live) => Arc::clone(live),
            }
        };
        live.state.store(STATE_DRAINING, Ordering::Release);
        // Barrier: batches route (and commit inflight increments) while
        // holding the read lock; acquiring the write lock waits out any
        // batch that snapshotted this shard as Active, so `inflight`
        // below already counts every job such a batch routed here.
        drop(self.write_shards());
        while live.inflight.load(Ordering::Acquire) != 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
        // The shard is idle and out of rotation: persist everything it
        // learned before its context and cache go away (remove_shard
        // inherits this via the drain it performs first).
        persist::flush(&live);
    }

    /// Drains shard `shard` (see [`drain_shard`](Self::drain_shard)),
    /// releases its compile context and result cache, and leaves a
    /// tombstone holding its **final cache counters** — so shard indices
    /// stay dense and stable and
    /// [`cache_stats_total`](Self::cache_stats_total) keeps counting the
    /// retired shard's history instead of silently dropping it. Returns
    /// those final counters. Idempotent; removing an already-retired
    /// shard returns its frozen counters again.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn remove_shard(&self, shard: usize) -> CacheStats {
        self.drain_shard(shard);
        let mut shards = self.write_shards();
        match &shards[shard] {
            Slot::Retired { final_cache, .. } => *final_cache,
            Slot::Live(live) => {
                let final_cache = live.cache.stats();
                shards[shard] =
                    Slot::Retired { profile: Arc::clone(&live.profile), final_cache };
                final_cache
            }
        }
    }

    /// Replaces the routing policy (takes effect for subsequent batches).
    pub fn set_policy(&self, policy: impl ShardPolicy + 'static) {
        self.set_policy_boxed(Box::new(policy));
    }

    /// [`set_policy`](Self::set_policy) for an already-boxed policy
    /// (e.g. when iterating over heterogeneous policies).
    pub fn set_policy_boxed(&self, policy: Box<dyn ShardPolicy>) {
        *self.lock_policy() = policy;
    }

    /// Reconfigures the fleet's circuit breaker (`None` disables it:
    /// shards never quarantine themselves, though
    /// [`quarantine_shard`](Self::quarantine_shard) still works). Takes
    /// effect for subsequent batches.
    pub fn set_breaker(&self, config: Option<BreakerConfig>) {
        *self.breaker.lock().unwrap_or_else(PoisonError::into_inner) = config;
    }

    /// The current circuit-breaker configuration, if enabled.
    pub fn breaker(&self) -> Option<BreakerConfig> {
        *self.breaker.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Installs (or, with `None`, removes) a fault injector on the
    /// compile path — every subsequent batch consults it per routed job.
    /// Production services never set one; chaos tests and drills do.
    pub fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        *self.fault_injector.lock().unwrap_or_else(PoisonError::into_inner) = injector;
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.fault_injector.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Manually trips shard `shard` into
    /// [`ShardState::Quarantined`] — the operator-initiated version of a
    /// breaker trip. Returns whether the shard was Active (only an
    /// Active shard can be quarantined; draining, retired, and
    /// already-quarantined shards are left alone). The shard re-enters
    /// rotation through the normal HalfOpen probe, or via
    /// [`restore_shard`](Self::restore_shard).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn quarantine_shard(&self, shard: usize) -> bool {
        let shards = self.read_shards();
        assert!(shard < shards.len(), "shard {shard} of {}", shards.len());
        let Slot::Live(live) = &shards[shard] else { return false };
        let tripped = live
            .state
            .compare_exchange(
                STATE_ACTIVE,
                STATE_QUARANTINED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        if tripped {
            metrics().breaker_opened.inc();
            live.cooldown_routed.store(0, Ordering::Release);
            live.consecutive_failures.store(0, Ordering::Relaxed);
        }
        tripped
    }

    /// Manually closes shard `shard`'s breaker, returning it from
    /// [`ShardState::Quarantined`] to Active without waiting for a
    /// probe. Returns whether the shard was quarantined.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn restore_shard(&self, shard: usize) -> bool {
        let shards = self.read_shards();
        assert!(shard < shards.len(), "shard {shard} of {}", shards.len());
        let Slot::Live(live) = &shards[shard] else { return false };
        let restored = live
            .state
            .compare_exchange(
                STATE_QUARANTINED,
                STATE_ACTIVE,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        if restored {
            metrics().breaker_closed.inc();
            live.cooldown_routed.store(0, Ordering::Release);
            live.consecutive_failures.store(0, Ordering::Relaxed);
            live.probing.store(false, Ordering::Release);
        }
        restored
    }

    /// Whether the fleet is too sick to accept new work: at least one
    /// shard is quarantined and **none** is Active. Queueing front ends
    /// fail submissions fast with [`CompileError::FleetUnhealthy`] while
    /// this holds, instead of admitting jobs that can only hang or fail.
    /// An all-drained or all-retired fleet is *not* "unhealthy" in this
    /// sense — that is a deliberate operator state, and per-job routing
    /// refusals already cover it.
    pub fn fleet_unhealthy(&self) -> bool {
        let shards = self.read_shards();
        let mut any_quarantined = false;
        for slot in shards.iter() {
            if let Slot::Live(live) = slot {
                match live.state.load(Ordering::Acquire) {
                    STATE_ACTIVE => return false,
                    STATE_QUARANTINED => any_quarantined = true,
                    _ => {}
                }
            }
        }
        any_quarantined
    }

    /// Number of registered shards, **including** draining and retired
    /// ones (indices are dense and stable for the service's lifetime).
    pub fn shard_count(&self) -> usize {
        self.read_shards().len()
    }

    /// The device behind shard `shard` (cloned; the fleet is shared
    /// across threads, so borrows cannot escape the fleet lock).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()` or the shard is retired.
    pub fn shard_device(&self, shard: usize) -> Device {
        self.read_shards()[shard].live(shard).compiler.device().clone()
    }

    /// The shared compile context of shard `shard` (e.g. to hand to a
    /// [`BatchCompiler`](fastsc_core::batch::BatchCompiler) bypassing the
    /// router).
    ///
    /// # Errors
    ///
    /// Never fails in practice: the context was built at registration.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()` or the shard is retired.
    pub fn shard_context(&self, shard: usize) -> Result<Arc<CompileContext>, CompileError> {
        self.read_shards()[shard].live(shard).compiler.context()
    }

    /// The immutable registration-time profile of shard `shard`
    /// (available for retired shards too).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn shard_profile(&self, shard: usize) -> Arc<ShardProfile> {
        match &self.read_shards()[shard] {
            Slot::Live(live) => Arc::clone(&live.profile),
            Slot::Retired { profile, .. } => Arc::clone(profile),
        }
    }

    /// Lifecycle state of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn shard_state(&self, shard: usize) -> ShardState {
        match &self.read_shards()[shard] {
            Slot::Live(live) => live.state(),
            Slot::Retired { .. } => ShardState::Retired,
        }
    }

    /// A point-in-time [`ShardView`] snapshot of every shard, in index
    /// order — the fleet picture telemetry feeds stream to operators.
    pub fn shard_views(&self) -> Vec<ShardView> {
        self.read_shards().iter().enumerate().map(|(index, slot)| slot.view(index)).collect()
    }

    /// Result-cache counters of shard `shard` (frozen at removal for
    /// retired shards).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn cache_stats(&self, shard: usize) -> CacheStats {
        match &self.read_shards()[shard] {
            Slot::Live(live) => live.cache.stats(),
            Slot::Retired { final_cache, .. } => *final_cache,
        }
    }

    /// Fleet-wide result-cache counters: every live shard's current
    /// counters plus the frozen final counters of every retired shard —
    /// draining or removing a shard never deflates the fleet totals.
    /// This is the snapshot queueing front ends fold into their own
    /// stats.
    pub fn cache_stats_total(&self) -> CacheStats {
        self.read_shards().iter().fold(CacheStats::zero(), |acc, slot| {
            acc.merge(match slot {
                Slot::Live(live) => live.cache.stats(),
                Slot::Retired { final_cache, .. } => *final_cache,
            })
        })
    }

    /// Compiles every job, fanning out across shards and worker threads;
    /// `results[i]` always corresponds to `jobs[i]`, and failures (errors
    /// or panics — including per-job routing refusals such as
    /// [`CompileError::NoShardFits`]) are isolated to their own slot.
    ///
    /// # Panics
    ///
    /// Panics if no device has been registered, or if the policy routes
    /// outside `0..shard_count()` or to a draining/retired shard.
    pub fn compile_batch(
        &self,
        jobs: Vec<CompileJob>,
    ) -> Vec<Result<ServiceReply, CompileError>> {
        self.dispatch(jobs, true)
    }

    /// [`compile_batch`](Self::compile_batch) on the calling thread —
    /// same routing, same coalescing, same caching, no parallelism. The
    /// reference path the determinism suite holds the parallel dispatch
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if no device has been registered, or if the policy routes
    /// outside `0..shard_count()` or to a draining/retired shard.
    pub fn compile_batch_sequential(
        &self,
        jobs: Vec<CompileJob>,
    ) -> Vec<Result<ServiceReply, CompileError>> {
        self.dispatch(jobs, false)
    }

    /// [`compile_batch`](Self::compile_batch) where each job carries a
    /// set of shards routing must avoid — the failover primitive
    /// retrying front ends use: a job that failed on shard A retries
    /// with `A` excluded, so it deterministically re-routes elsewhere.
    /// Each slot's [`ShardOutcome`] also reports which shard served the
    /// attempt (errors included), the attribution those front ends need
    /// to build attempt histories.
    ///
    /// Excluded jobs bypass the repeat-program pinning both ways — they
    /// neither follow an existing pin (which could point at an excluded
    /// shard) nor create one (a retry must not pin followers onto a
    /// shard that just failed). A job whose exclusions rule out every
    /// fitting shard gets a routing refusal in its slot (e.g.
    /// [`CompileError::NoShardFits`]), never a silent re-run on an
    /// excluded shard.
    ///
    /// # Panics
    ///
    /// Panics if no device has been registered, or if the policy routes
    /// outside `0..shard_count()` or to a non-Active shard.
    pub fn compile_batch_excluding(
        &self,
        jobs: Vec<(CompileJob, Vec<usize>)>,
    ) -> Vec<ShardOutcome> {
        self.dispatch_with(jobs, true)
    }

    /// Routes, coalesces, executes (parallel or inline), and fans results
    /// back out to submission-order slots.
    fn dispatch(
        &self,
        jobs: Vec<CompileJob>,
        parallel: bool,
    ) -> Vec<Result<ServiceReply, CompileError>> {
        let jobs = jobs.into_iter().map(|job| (job, Vec::new())).collect();
        self.dispatch_with(jobs, parallel).into_iter().map(|outcome| outcome.result).collect()
    }

    /// [`dispatch`](Self::dispatch) with per-job shard exclusions and
    /// shard attribution on every slot.
    fn dispatch_with(
        &self,
        jobs: Vec<(CompileJob, Vec<usize>)>,
        parallel: bool,
    ) -> Vec<ShardOutcome> {
        let breaker = self.breaker();
        let injector = self.fault_injector();
        // Snapshot the fleet and commit routing (including the inflight
        // increments `drain_shard` waits on) under the read lock; the
        // compiles themselves run lock-free on the snapshot's Arcs.
        let (slots, slot_source, unique) = {
            let shards = self.read_shards();
            assert!(!shards.is_empty(), "register at least one device before compiling");
            let routed = self.route_jobs(&shards, jobs, breaker);
            let (slot_source, unique) = Self::coalesce(&shards, routed);
            (shards.clone(), slot_source, unique)
        };
        let unique_shards: Vec<usize> = unique.iter().map(|(shard, _, _)| *shard).collect();
        let injector = injector.as_deref();
        let run = |(shard, hash, job): (usize, u64, CompileJob)| {
            Self::run_routed(slots[shard].live(shard), shard, hash, &job, injector, breaker)
        };
        let results: Vec<Result<ServiceReply, CompileError>> = if parallel {
            unique.into_par_iter().map(run).collect()
        } else {
            unique.into_iter().map(run).collect()
        };
        // Fan coalesced slots back out: every slot after the first that
        // shares a unique job is morally a cache hit — it was served
        // without running a compile (and shares the same `Arc`). Slots
        // the policy refused keep their routing error.
        let mut owner_seen = vec![false; results.len()];
        slot_source
            .into_iter()
            .map(|source| {
                let source = match source {
                    Ok(source) => source,
                    Err(error) => return ShardOutcome { shard: None, result: Err(error) },
                };
                let mut reply = results[source].clone();
                if owner_seen[source] {
                    if let Ok(r) = &mut reply {
                        r.cache_hit = true;
                        metrics().cache_hits.inc();
                    }
                } else {
                    owner_seen[source] = true;
                }
                ShardOutcome { shard: Some(unique_shards[source]), result: reply }
            })
            .collect()
    }

    /// Phase 1.5: collapse jobs with identical `(shard, cache key)` so a
    /// batch of repeats costs one compile, with every duplicate slot
    /// sharing the first occurrence's result. Routing is sequential and
    /// keys are already computed there, so this is a deterministic pass
    /// over the submission order — no worker ever races a duplicate.
    /// Shards with result caching disabled opt out (capacity 0 promises
    /// "every job really compiles", which the scheduling benchmarks rely
    /// on). Each **unique** job also commits its shard's inflight count
    /// here, still inside the fleet read lock (see
    /// [`drain_shard`](CompileService::drain_shard)).
    ///
    /// Returns `(slot_source, unique)`: `unique` is the dispatch list,
    /// `slot_source[i]` the `unique` index serving submission slot `i` —
    /// or the routing error that refused slot `i`.
    #[allow(clippy::type_complexity)]
    fn coalesce(
        slots: &[Slot],
        routed: Vec<Result<(usize, u64, CompileJob), CompileError>>,
    ) -> (Vec<Result<usize, CompileError>>, Vec<(usize, u64, CompileJob)>) {
        let mut slot_source = Vec::with_capacity(routed.len());
        let mut unique: Vec<(usize, u64, CompileJob)> = Vec::with_capacity(routed.len());
        let mut first_of: HashMap<(usize, CacheKey), usize> = HashMap::new();
        for slot in routed {
            let (shard_index, program_hash, job) = match slot {
                Ok(routed) => routed,
                Err(error) => {
                    slot_source.push(Err(error));
                    continue;
                }
            };
            let shard = slots[shard_index].live(shard_index);
            if shard.cache.capacity() > 0 {
                let key = Self::key_for(shard, program_hash, job.strategy);
                match first_of.get(&(shard_index, key)) {
                    // Coalesce only on true program identity: the 64-bit
                    // key is not collision-proof, and a colliding job
                    // must compile on its own, never borrow another
                    // program's schedule.
                    Some(&source) if unique[source].2.program == job.program => {
                        slot_source.push(Ok(source));
                        continue;
                    }
                    Some(_) => {}
                    None => {
                        first_of.insert((shard_index, key), unique.len());
                    }
                }
            }
            shard.inflight.fetch_add(1, Ordering::Release);
            slot_source.push(Ok(unique.len()));
            unique.push((shard_index, program_hash, job));
        }
        (slot_source, unique)
    }

    /// Phase 1: assign every job a shard, sequentially in submission
    /// order (see the [module docs](self)).
    ///
    /// The policy is consulted once per **distinct** `(program,
    /// strategy)`: repeats pin to the first occurrence's shard, so
    /// coalescing works under every policy (a load-based policy would
    /// otherwise scatter identical jobs across shards, compiling the
    /// same program once per shard), and the free duplicates do not
    /// count toward shard load. Shards with result caching disabled
    /// cannot coalesce, so their jobs are never pinned. A policy
    /// refusal (e.g. [`CompileError::NoShardFits`]) becomes the slot's
    /// result — refused jobs are never pinned, so a later identical job
    /// is re-evaluated (the fleet may have been reconfigured between
    /// batches, and refusal is cheap either way).
    #[allow(clippy::type_complexity)]
    fn route_jobs(
        &self,
        slots: &[Slot],
        jobs: Vec<(CompileJob, Vec<usize>)>,
        breaker: Option<BreakerConfig>,
    ) -> Vec<Result<(usize, u64, CompileJob), CompileError>> {
        let mut views: Vec<ShardView> =
            slots.iter().enumerate().map(|(index, slot)| slot.view(index)).collect();
        let mut pinned: HashMap<(u64, u8), usize> = HashMap::new();
        let mut policy = self.lock_policy();
        jobs.into_iter()
            .map(|(job, excluded)| {
                // Routing is observed retroactively: the span is recorded
                // after the decision, so tracing can never perturb it.
                let trace = job.trace.clone();
                let route_started = Instant::now();
                let excluded_count = excluded.len();
                let routed = (|| {
                    let program_hash = job.program.structural_hash();
                    let pin = (program_hash, job.strategy.stable_code());
                    // Excluded jobs bypass the pin map both ways: a pin may
                    // point at an excluded shard, and a retry must not pin
                    // followers onto the shard it is fleeing.
                    if excluded.is_empty() {
                        if let Some(&shard) = pinned.get(&pin) {
                            return Ok((shard, program_hash, job));
                        }
                    }
                    // HalfOpen: a quarantined shard whose cooldown has
                    // elapsed claims the next fitting job as its single
                    // probe, before the policy (which cannot see it) runs.
                    if let Some(config) = breaker {
                        if let Some(shard) =
                            Self::claim_probe(slots, &views, &job, &excluded, config)
                        {
                            views[shard].load += 1;
                            return Ok((shard, program_hash, job));
                        }
                    }
                    // Mask excluded shards so the policy cannot pick them,
                    // restoring the views afterwards (they are shared across
                    // the whole batch).
                    let masked: Vec<(usize, ShardState)> = excluded
                        .iter()
                        .filter(|&&shard| shard < views.len())
                        .map(|&shard| (shard, views[shard].state))
                        .collect();
                    for &(shard, _) in &masked {
                        views[shard].state = ShardState::Draining;
                    }
                    let request = RouteRequest {
                        program_hash,
                        strategy: job.strategy,
                        program_qubits: job.program.n_qubits(),
                        shards: &views,
                    };
                    let routed = policy.route(&request);
                    for &(shard, state) in &masked {
                        views[shard].state = state;
                    }
                    let shard = routed?;
                    assert!(
                        shard < slots.len(),
                        "policy routed to shard {shard} of {}",
                        slots.len()
                    );
                    assert!(
                        views[shard].routable(),
                        "policy routed to shard {shard}, which is {:?}",
                        views[shard].state
                    );
                    views[shard].load += 1;
                    // Every job routed around a quarantined shard advances
                    // that shard's cooldown toward its HalfOpen probe —
                    // recovery timing is measured in routed jobs, not wall
                    // time, so it is deterministic under any interleaving.
                    if breaker.is_some() {
                        for (index, slot) in slots.iter().enumerate() {
                            if index == shard {
                                continue;
                            }
                            if let Slot::Live(live) = slot {
                                if live.state.load(Ordering::Acquire) == STATE_QUARANTINED {
                                    live.cooldown_routed.fetch_add(1, Ordering::AcqRel);
                                }
                            }
                        }
                    }
                    if excluded.is_empty() && slots[shard].live(shard).cache.capacity() > 0 {
                        pinned.insert(pin, shard);
                    }
                    Ok((shard, program_hash, job))
                })();
                if let Some(trace) = trace {
                    let mut attrs = vec![
                        ("policy", AttrValue::from(policy.name())),
                        ("excluded", AttrValue::from(excluded_count)),
                    ];
                    match &routed {
                        Ok((shard, _, _)) => attrs.push(("shard", AttrValue::from(*shard))),
                        Err(_) => attrs.push(("refused", AttrValue::from(true))),
                    }
                    trace.tracer.record(
                        "route",
                        Some(trace.parent),
                        route_started,
                        Instant::now(),
                        attrs,
                    );
                }
                routed
            })
            .collect()
    }

    /// Claims a HalfOpen probe slot: the first quarantined shard that
    /// fits the job, finished its cooldown, has no probe in flight, and
    /// is not excluded by the job. Sets the shard's `probing` flag (at
    /// most one probe at a time); the flag is cleared when the probe
    /// resolves in [`run_routed`](Self::run_routed). Probe jobs are
    /// never pinned.
    fn claim_probe(
        slots: &[Slot],
        views: &[ShardView],
        job: &CompileJob,
        excluded: &[usize],
        config: BreakerConfig,
    ) -> Option<usize> {
        for (index, slot) in slots.iter().enumerate() {
            let Slot::Live(live) = slot else { continue };
            if excluded.contains(&index) {
                continue;
            }
            if live.state.load(Ordering::Acquire) != STATE_QUARANTINED {
                continue;
            }
            if views[index].qubits() < job.program.n_qubits() {
                continue;
            }
            if live.cooldown_routed.load(Ordering::Acquire) < config.cooldown_jobs {
                continue;
            }
            if live.probing.swap(true, Ordering::AcqRel) {
                continue;
            }
            metrics().breaker_half_open.inc();
            return Some(index);
        }
        None
    }

    /// Phase 2, one job: fault-injection gate, result-cache lookup, else
    /// an isolated compile on the routed shard — populating the cache,
    /// the latency EWMA, and the health counters on the way out.
    fn run_routed(
        shard: &Shard,
        shard_index: usize,
        program_hash: u64,
        job: &CompileJob,
        injector: Option<&FaultInjector>,
        breaker: Option<BreakerConfig>,
    ) -> Result<ServiceReply, CompileError> {
        let _inflight = InflightGuard(&shard.inflight);
        // The injection gate sits before the cache: a sick shard fails
        // everything routed to it, cached schedules included, which is
        // how a real shard-wide crash behaves. Latency faults fall
        // through — the result stays correct, only slower.
        if let Some(injector) = injector {
            match injector.on_compile(shard_index) {
                FaultAction::Proceed => {}
                FaultAction::Delay(extra) => std::thread::sleep(extra),
                FaultAction::Panic => {
                    let error = injected_panic(shard_index);
                    shard.record_attempt(false, error.is_transient(), breaker);
                    return Err(error);
                }
                FaultAction::Error(error) => {
                    shard.record_attempt(false, error.is_transient(), breaker);
                    return Err(error);
                }
            }
        }
        let key = Self::key_for(shard, program_hash, job.strategy);
        if let Some(compiled) = shard.cache.get(&key, &job.program) {
            // A cache hit does not count as a compile attempt, but it
            // does answer a HalfOpen probe: the shard responded, and the
            // injection gate above already had its chance to fail it.
            shard.close_breaker_if_probing();
            metrics().cache_hits.inc();
            if let Some(trace) = &job.trace {
                trace.span("cache_hit").attr("shard", shard_index);
            }
            return Ok(ServiceReply { shard: shard_index, cache_hit: true, compiled });
        }
        metrics().cache_misses.inc();
        let _trace = job.trace.as_ref().map(TraceHandle::install);
        let started = Instant::now();
        let result = compile_isolated(&shard.compiler, &job.program, job.strategy);
        let elapsed = started.elapsed();
        shard.record_latency(elapsed);
        metrics().compile_duration[usize::from(job.strategy.stable_code())].observe(elapsed);
        match &result {
            Ok(_) => shard.record_attempt(true, false, breaker),
            Err(error) => shard.record_attempt(false, error.is_transient(), breaker),
        }
        let compiled = Arc::new(result?);
        shard.cache.insert(key, job.program.clone(), Arc::clone(&compiled), true);
        // Periodic flush under load: bound how much warm-start state a
        // crash can lose without waiting for a drain. Threshold-gated so
        // the hot path normally never touches the disk.
        if shard.store.is_some() && shard.cache.dirty_len() >= FLUSH_DIRTY_THRESHOLD {
            persist::flush(shard);
        }
        Ok(ServiceReply { shard: shard_index, cache_hit: false, compiled })
    }

    fn key_for(shard: &Shard, program_hash: u64, strategy: Strategy) -> CacheKey {
        CacheKey {
            device_fingerprint: shard.fingerprint,
            program_hash,
            strategy_code: strategy.stable_code(),
            config_fingerprint: shard.config_fingerprint,
        }
    }

    fn lock_policy(&self) -> std::sync::MutexGuard<'_, Box<dyn ShardPolicy>> {
        self.policy.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn read_shards(&self) -> std::sync::RwLockReadGuard<'_, Vec<Slot>> {
        self.shards.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_shards(&self) -> std::sync::RwLockWriteGuard<'_, Vec<Slot>> {
        self.shards.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Composite, ProgramAffinity, RoundRobin};
    use fastsc_core::Strategy;
    use fastsc_workloads::Benchmark;

    fn spec(device: Device) -> ShardSpec {
        ShardSpec::new(device, CompilerConfig::default())
    }

    fn two_shard_service() -> CompileService {
        let service = CompileService::new(RoundRobin::new());
        service.add_shard(spec(Device::grid(3, 3, 7))).expect("registers");
        service.add_shard(spec(Device::grid(3, 3, 11))).expect("registers");
        service
    }

    #[test]
    fn round_robin_routes_in_submission_order() {
        let service = two_shard_service();
        // Distinct widths guarantee distinct programs (equal-seed BV
        // secrets can collide, and identical programs pin together
        // instead of advancing the round-robin).
        let jobs: Vec<CompileJob> = (0..4)
            .map(|i| CompileJob::new(Benchmark::Bv(4 + i).build(1), Strategy::ColorDynamic))
            .collect();
        let replies = service.compile_batch(jobs);
        let shards: Vec<usize> =
            replies.iter().map(|r| r.as_ref().expect("compiles").shard).collect();
        assert_eq!(shards, vec![0, 1, 0, 1]);
    }

    #[test]
    fn affinity_pins_repeat_programs_to_one_shard() {
        let service = two_shard_service();
        service.set_policy(ProgramAffinity::new());
        let program = Benchmark::Qaoa(6).build(3);
        let jobs: Vec<CompileJob> =
            (0..4).map(|_| CompileJob::new(program.clone(), Strategy::BaselineS)).collect();
        let replies = service.compile_batch(jobs);
        let shards: Vec<usize> =
            replies.iter().map(|r| r.as_ref().expect("compiles").shard).collect();
        assert!(
            shards.windows(2).all(|w| w[0] == w[1]),
            "affinity split a program: {shards:?}"
        );
        // Identical repeats: one cold compile, the rest served hot.
        let hits = replies.iter().filter(|r| r.as_ref().expect("compiles").cache_hit).count();
        assert_eq!(hits, replies.len() - 1);
    }

    #[test]
    fn least_loaded_balances_a_uniform_batch() {
        let service = two_shard_service();
        service.set_policy(Composite::least_loaded());
        // Distinct widths: identical programs would pin to one shard by
        // design rather than balance.
        let jobs: Vec<CompileJob> = (0..6)
            .map(|i| CompileJob::new(Benchmark::Bv(3 + i).build(1), Strategy::BaselineN))
            .collect();
        let replies = service.compile_batch_sequential(jobs);
        let mut per_shard = [0usize; 2];
        for reply in &replies {
            per_shard[reply.as_ref().expect("compiles").shard] += 1;
        }
        assert_eq!(per_shard, [3, 3], "uniform load must split evenly");
    }

    #[test]
    fn errors_stay_in_their_slot() {
        let service = two_shard_service();
        let jobs = vec![
            CompileJob::new(Benchmark::Bv(4).build(1), Strategy::ColorDynamic),
            // 16 qubits on a 9-qubit shard: fails alone.
            CompileJob::new(Benchmark::Bv(16).build(1), Strategy::ColorDynamic),
            CompileJob::new(Benchmark::Ising(4).build(1), Strategy::BaselineU),
        ];
        let replies = service.compile_batch(jobs);
        assert!(replies[0].is_ok());
        assert!(matches!(
            replies[1],
            Err(CompileError::ProgramTooWide { program: 16, device: 9 })
        ));
        assert!(replies[2].is_ok());
        // Failures are never cached.
        assert_eq!(service.cache_stats(0).len + service.cache_stats(1).len, 2);
    }

    #[test]
    fn registration_surfaces_device_failures_eagerly() {
        use fastsc_device::DeviceBuilder;
        let mut bad = DeviceBuilder::new(fastsc_graph::topology::grid(2, 2));
        bad.seed(0).omega_max_distribution(5.5, 0.0); // below the 6 GHz floor
        let service = CompileService::new(RoundRobin::new());
        let result = service.add_shard(spec(bad.build()));
        assert!(matches!(result, Err(CompileError::FrequencyBandExhausted { .. })));
        assert_eq!(service.shard_count(), 0);
    }

    #[test]
    #[should_panic(expected = "register at least one device")]
    fn empty_service_refuses_jobs() {
        let service = CompileService::new(RoundRobin::new());
        let _ = service.compile_batch(vec![CompileJob::new(
            Benchmark::Bv(4).build(1),
            Strategy::ColorDynamic,
        )]);
    }

    #[test]
    fn duplicate_jobs_coalesce_to_one_compile() {
        let service = CompileService::new(RoundRobin::new());
        service.add_shard(spec(Device::grid(3, 3, 7))).expect("registers");
        let program = Benchmark::Xeb(9, 3).build(1);
        let jobs: Vec<CompileJob> =
            (0..6).map(|_| CompileJob::new(program.clone(), Strategy::ColorDynamic)).collect();
        let replies = service.compile_batch(jobs);
        let hits: Vec<bool> =
            replies.iter().map(|r| r.as_ref().expect("compiles").cache_hit).collect();
        assert!(!hits[0], "the first occurrence runs the compile");
        assert!(hits[1..].iter().all(|&h| h), "every duplicate slot is served for free");
        // All six slots share the one compiled allocation.
        let first = &replies[0].as_ref().expect("compiles").compiled;
        for reply in &replies[1..] {
            assert!(Arc::ptr_eq(first, &reply.as_ref().expect("compiles").compiled));
        }
        // Exactly one cache miss (the unique job); duplicates never even
        // probed the cache.
        let stats = service.cache_stats(0);
        assert_eq!((stats.misses, stats.hits, stats.len), (1, 0, 1));
    }

    #[test]
    fn duplicates_pin_to_one_shard_under_load_policies() {
        // A load-based policy would scatter identical jobs across shards
        // (each duplicate sees the previous one as load); route-time
        // pinning keeps them together so coalescing serves N duplicates
        // with exactly one compile, and the free duplicates don't count
        // toward load when the genuinely distinct job is placed.
        let service = two_shard_service();
        service.set_policy(Composite::least_loaded());
        let program = Benchmark::Qaoa(6).build(9);
        let mut jobs: Vec<CompileJob> =
            (0..4).map(|_| CompileJob::new(program.clone(), Strategy::ColorDynamic)).collect();
        jobs.push(CompileJob::new(Benchmark::Bv(4).build(1), Strategy::ColorDynamic));
        let replies = service.compile_batch(jobs);
        let shards: Vec<usize> =
            replies.iter().map(|r| r.as_ref().expect("compiles").shard).collect();
        assert!(
            shards[..4].windows(2).all(|w| w[0] == w[1]),
            "identical jobs scattered across shards: {shards:?}"
        );
        // The four duplicates cost one compile; only their first
        // occurrence counted as load, so the distinct job lands on the
        // other (emptier) shard.
        assert_ne!(shards[4], shards[0], "free duplicates must not skew placement");
        let total_misses = service.cache_stats(0).misses + service.cache_stats(1).misses;
        assert_eq!(total_misses, 2, "one compile per distinct program");
    }

    #[test]
    fn caching_disabled_shards_skip_coalescing() {
        let service = CompileService::new(RoundRobin::new());
        service
            .add_shard(ShardSpec { cache_capacity: 0, ..spec(Device::grid(3, 3, 7)) })
            .expect("registers");
        let program = Benchmark::Bv(4).build(1);
        let jobs: Vec<CompileJob> =
            (0..3).map(|_| CompileJob::new(program.clone(), Strategy::BaselineN)).collect();
        let replies = service.compile_batch_sequential(jobs);
        for reply in &replies {
            let reply = reply.as_ref().expect("compiles");
            assert!(!reply.cache_hit, "capacity 0 promises every job really compiles");
        }
        // Distinct compiles: distinct allocations, identical schedules.
        let a = &replies[0].as_ref().expect("compiles").compiled;
        let b = &replies[1].as_ref().expect("compiles").compiled;
        assert!(!Arc::ptr_eq(a, b));
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn shard_accessors_expose_registration_and_telemetry() {
        let service = two_shard_service();
        assert_eq!(service.shard_count(), 2);
        assert_eq!(service.shard_device(0).seed(), 7);
        assert_eq!(service.shard_device(1).seed(), 11);
        let context = service.shard_context(0).expect("built at registration");
        assert_eq!(context.device().seed(), 7);
        let stats = service.cache_stats(0);
        assert_eq!((stats.hits, stats.misses, stats.len), (0, 0, 0));
        // Telemetry: fresh fleet, everything active and idle.
        let profile = service.shard_profile(0);
        assert_eq!(profile.qubits, 9);
        assert!(profile.estimated_success > 0.0);
        assert_eq!(service.shard_state(0), ShardState::Active);
        let views = service.shard_views();
        assert_eq!(views.len(), 2);
        for (index, view) in views.iter().enumerate() {
            assert_eq!(view.shard, index);
            assert!(view.routable());
            assert_eq!(view.load, 0);
            assert_eq!(view.ewma_compile_latency, Duration::ZERO);
        }
        // After a compile, the serving shard's latency EWMA is primed.
        let _ = service.compile_batch(vec![CompileJob::new(
            Benchmark::Bv(4).build(1),
            Strategy::ColorDynamic,
        )]);
        let views = service.shard_views();
        assert!(views[0].ewma_compile_latency > Duration::ZERO);
        assert_eq!(views[0].load, 0, "finished work must not linger as load");
    }

    #[test]
    fn capacity_aware_routes_wide_jobs_to_fitting_shards_only() {
        let service = CompileService::new(Composite::capacity_aware());
        service.add_shard(spec(Device::grid(2, 2, 7))).expect("registers");
        service.add_shard(spec(Device::grid(4, 4, 23))).expect("registers");
        let jobs = vec![
            // 16 qubits: only the 4x4 shard fits.
            CompileJob::new(Benchmark::Bv(16).build(1), Strategy::BaselineN),
            // 4 qubits: fits both; least-loaded sends it to the idle 2x2.
            CompileJob::new(Benchmark::Bv(4).build(1), Strategy::BaselineN),
            // 20 qubits: fits nowhere — routing refuses, nothing compiles.
            CompileJob::new(Benchmark::Bv(20).build(1), Strategy::BaselineN),
        ];
        let replies = service.compile_batch(jobs);
        assert_eq!(replies[0].as_ref().expect("fits the 4x4").shard, 1);
        assert_eq!(replies[1].as_ref().expect("fits the 2x2").shard, 0);
        assert!(matches!(
            replies[2],
            Err(CompileError::NoShardFits { program: 20, max_shard: 16 })
        ));
    }

    #[test]
    fn routing_refusals_do_not_poison_later_batches() {
        let service = CompileService::new(Composite::capacity_aware());
        service.add_shard(spec(Device::grid(3, 3, 7))).expect("registers");
        let wide = CompileJob::new(Benchmark::Bv(16).build(1), Strategy::ColorDynamic);
        let fits = CompileJob::new(Benchmark::Bv(4).build(1), Strategy::ColorDynamic);
        let replies = service.compile_batch(vec![wide.clone(), fits.clone()]);
        assert!(matches!(replies[0], Err(CompileError::NoShardFits { .. })));
        assert!(replies[1].is_ok());
        // Resubmitting the refused job is refused again (not pinned, not
        // cached), and the fitting one now hits the cache.
        let replies = service.compile_batch(vec![wide, fits]);
        assert!(matches!(replies[0], Err(CompileError::NoShardFits { .. })));
        assert!(replies[1].as_ref().expect("compiles").cache_hit);
    }

    #[test]
    fn shard_spec_sets_cache_capacity_and_store_per_shard() {
        let mut service = CompileService::new(RoundRobin::new());
        service.add_shard(spec(Device::grid(3, 3, 7))).expect("registers");
        service
            .add_shard(ShardSpec { cache_capacity: 0, ..spec(Device::grid(3, 3, 11)) })
            .expect("registers");
        service
            .register_device_with_cache(Device::grid(3, 3, 13), CompilerConfig::default(), 2)
            .expect("registers");
        let capacities: Vec<usize> = (0..3).map(|s| service.cache_stats(s).capacity).collect();
        assert_eq!(capacities, vec![ScheduleCache::DEFAULT_CAPACITY, 0, 2]);

        // A store-backed spec flushes on drain, and a later store-backed
        // shard hydrates from it: its context adopts the solved statics
        // even when its capacity-0 cache keeps none of the schedules.
        let path = temp_store_path("shard-spec");
        let store = Arc::new(fastsc_store::ArtifactStore::open(&path).expect("opens"));
        let backed =
            || ShardSpec { store: Some(Arc::clone(&store)), ..spec(Device::grid(3, 3, 7)) };
        let job = || vec![CompileJob::new(Benchmark::Bv(9).build(7), Strategy::BaselineS)];
        let donor = CompileService::new(RoundRobin::new());
        donor.add_shard(backed()).expect("adds");
        let cold = donor.compile_batch(job());
        donor.drain_shard(0);
        assert_eq!((store.stats().statics, store.stats().schedules), (1, 1));
        let warm = CompileService::new(RoundRobin::new());
        warm.add_shard(ShardSpec { cache_capacity: 0, ..backed() }).expect("adds");
        let context = warm.shard_context(0).expect("built");
        assert!(context.export_statics().is_some(), "statics hydrated from the store");
        assert_eq!(warm.cache_stats(0).len, 0, "a capacity-0 cache keeps no schedule");
        let replies = warm.compile_batch(job());
        let (c, w) =
            (cold[0].as_ref().expect("compiles"), replies[0].as_ref().expect("compiles"));
        assert!(!w.cache_hit);
        assert_eq!(c.compiled.schedule, w.compiled.schedule);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cache_stats_total_aggregates_all_shards() {
        let service = two_shard_service();
        let jobs: Vec<CompileJob> = (0..4)
            .map(|i| CompileJob::new(Benchmark::Bv(4 + i).build(1), Strategy::ColorDynamic))
            .collect();
        let _ = service.compile_batch(jobs.clone());
        let _ = service.compile_batch(jobs);
        let total = service.cache_stats_total();
        let by_hand = service.cache_stats(0).merge(service.cache_stats(1));
        assert_eq!(total, by_hand);
        assert_eq!((total.hits, total.misses, total.len), (4, 4, 4));
    }

    #[test]
    fn fidelity_aware_prefers_the_healthier_chip_where_least_loaded_would_not() {
        use fastsc_device::DeviceBuilder;
        // Shard 0: a noisy chip (short coherence). Shard 1: a healthy
        // one. Saturate the healthy shard with load so least-loaded would
        // send a critical job to the noisy chip; fidelity-aware must still
        // pick the healthy one.
        let build = |seed: u64, t1: f64, t2: f64| {
            let mut b = DeviceBuilder::new(fastsc_graph::topology::grid(3, 3));
            b.seed(seed).coherence(t1, t2);
            b.build()
        };
        let service = CompileService::new(Composite::fidelity_aware());
        service.add_shard(spec(build(7, 5.0, 3.0))).expect("ok");
        service.add_shard(spec(build(11, 50.0, 40.0))).expect("ok");
        assert!(
            service.shard_profile(1).estimated_success
                > service.shard_profile(0).estimated_success,
            "the healthy chip must score higher"
        );
        // Load the healthy shard: distinct programs so nothing pins.
        let mut jobs: Vec<CompileJob> = (0..3)
            .map(|i| CompileJob::new(Benchmark::Bv(3 + i).build(1), Strategy::BaselineN))
            .collect();
        // The critical job, submitted last, behind the load.
        jobs.push(CompileJob::new(Benchmark::Xeb(9, 3).build(42), Strategy::ColorDynamic));
        let replies = service.compile_batch_sequential(jobs.clone());
        let shards: Vec<usize> =
            replies.iter().map(|r| r.as_ref().expect("compiles").shard).collect();
        assert_eq!(
            shards,
            vec![1, 1, 1, 1],
            "fidelity-aware routing must absorb load on the healthy chip"
        );
        // The control: least-loaded sends the critical job to the idle,
        // noisy shard instead.
        let control = CompileService::new(Composite::least_loaded());
        control.add_shard(spec(build(7, 5.0, 3.0))).expect("ok");
        control.add_shard(spec(build(11, 50.0, 40.0))).expect("ok");
        let replies = control.compile_batch_sequential(jobs);
        let shards: Vec<usize> =
            replies.iter().map(|r| r.as_ref().expect("compiles").shard).collect();
        assert!(
            shards.contains(&0),
            "control: least-loaded should spread onto the noisy chip ({shards:?})"
        );
    }

    #[test]
    fn add_shard_grows_a_live_fleet() {
        let service = CompileService::new(RoundRobin::new());
        // Seed the fleet through the &self path only.
        assert_eq!(service.add_shard(spec(Device::grid(3, 3, 7))).expect("adds"), 0);
        let first = service.compile_batch(vec![CompileJob::new(
            Benchmark::Bv(4).build(1),
            Strategy::ColorDynamic,
        )]);
        assert_eq!(first[0].as_ref().expect("compiles").shard, 0);
        assert_eq!(service.add_shard(spec(Device::grid(3, 3, 11))).expect("adds"), 1);
        assert_eq!(service.shard_count(), 2);
        // Round-robin now alternates onto the new shard.
        let jobs: Vec<CompileJob> = (0..4)
            .map(|i| CompileJob::new(Benchmark::Bv(5 + i).build(1), Strategy::ColorDynamic))
            .collect();
        let replies = service.compile_batch(jobs);
        let shards: Vec<usize> =
            replies.iter().map(|r| r.as_ref().expect("compiles").shard).collect();
        assert!(shards.contains(&1), "the added shard must serve traffic: {shards:?}");
    }

    #[test]
    fn drain_stops_routing_and_remove_keeps_cache_history() {
        let service = two_shard_service();
        let jobs: Vec<CompileJob> = (0..4)
            .map(|i| CompileJob::new(Benchmark::Bv(4 + i).build(1), Strategy::ColorDynamic))
            .collect();
        let _ = service.compile_batch(jobs.clone());
        let before = service.cache_stats_total();
        assert_eq!(before.misses, 4);

        service.drain_shard(0);
        assert_eq!(service.shard_state(0), ShardState::Draining);
        assert!(!service.shard_views()[0].routable());
        // All traffic now lands on shard 1 — including resubmissions that
        // shard 0 has cached (they recompile there; correctness over
        // cache warmth).
        let replies = service.compile_batch(jobs.clone());
        for reply in &replies {
            assert_eq!(reply.as_ref().expect("compiles").shard, 1);
        }
        // Shard 1 already held its own 2 of the 4 programs; the 2 that
        // lived only in shard 0's cache recompile on shard 1. Draining
        // kept shard 0's counters in the fleet totals.
        assert_eq!(service.cache_stats_total().misses, 6);

        let final_stats = service.remove_shard(0);
        assert_eq!(service.shard_state(0), ShardState::Retired);
        assert_eq!(final_stats.misses, 2, "frozen counters survive removal");
        assert_eq!(service.cache_stats(0), final_stats);
        assert_eq!(
            service.cache_stats_total().misses,
            6,
            "removal must not deflate fleet cache totals"
        );
        // Idempotent: drain/remove again are no-ops.
        service.drain_shard(0);
        assert_eq!(service.remove_shard(0), final_stats);
        // Indices are stable: shard 1 still serves.
        let replies = service.compile_batch(jobs);
        for reply in &replies {
            assert_eq!(reply.as_ref().expect("compiles").shard, 1);
        }
        assert_eq!(service.shard_count(), 2);
    }

    #[test]
    fn fully_drained_fleet_refuses_jobs_per_slot() {
        let service = two_shard_service();
        service.drain_shard(0);
        service.drain_shard(1);
        let replies = service.compile_batch(vec![CompileJob::new(
            Benchmark::Bv(4).build(1),
            Strategy::ColorDynamic,
        )]);
        assert!(matches!(
            replies[0],
            Err(CompileError::NoShardFits { program: 4, max_shard: 0 })
        ));
    }

    #[test]
    fn drain_waits_for_inflight_compiles() {
        // A producer thread floods batches while the main thread drains
        // shard 0; after drain returns, shard 0 must be idle and every
        // job must have resolved on some shard.
        let service = CompileService::new(Composite::least_loaded());
        service.add_shard(spec(Device::grid(3, 3, 7))).expect("ok");
        service.add_shard(spec(Device::grid(3, 3, 11))).expect("ok");
        let service = Arc::new(service);
        let producer = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let mut ok = 0;
                for round in 0..6u64 {
                    let jobs: Vec<CompileJob> = (0..4)
                        .map(|i| {
                            CompileJob::new(
                                Benchmark::Bv(3 + i as usize).build(round),
                                Strategy::ColorDynamic,
                            )
                        })
                        .collect();
                    ok += service.compile_batch(jobs).iter().filter(|r| r.is_ok()).count();
                }
                ok
            })
        };
        service.drain_shard(0);
        let drained_at = Instant::now();
        assert_eq!(service.shard_views()[0].load, 0, "drain must leave the shard idle");
        let compiled = producer.join().expect("producer finishes");
        assert_eq!(compiled, 24, "every job resolves despite the drain");
        // Sanity: the drain barrier returned promptly (not after the
        // whole flood).
        assert!(drained_at.elapsed() < Duration::from_secs(60));
    }

    use crate::fault::{FaultKind, FaultPlan, FaultRule};

    /// One distinct single-job batch per call (distinct widths so no two
    /// calls pin or coalesce together).
    fn distinct_job(i: usize) -> CompileJob {
        CompileJob::new(Benchmark::Bv(3 + (i % 6)).build(i as u64), Strategy::ColorDynamic)
    }

    #[test]
    fn failed_attempts_land_in_health_counters() {
        let service = two_shard_service();
        // Bv(10) is wider than a 3x3 grid: a deterministic program error.
        let wide = CompileJob::new(Benchmark::Bv(10).build(1), Strategy::ColorDynamic);
        let ok = CompileJob::new(Benchmark::Bv(4).build(1), Strategy::ColorDynamic);
        let replies = service.compile_batch_sequential(vec![wide, ok]);
        assert!(matches!(replies[0], Err(CompileError::ProgramTooWide { .. })));
        assert!(replies[1].is_ok());
        let views = service.shard_views();
        let health_0 = views[0].health;
        assert_eq!((health_0.attempts, health_0.failures), (1, 1));
        assert_eq!(views[0].error_rate(), 1.0);
        // Deterministic program errors never extend the breaker streak.
        assert_eq!(health_0.consecutive_failures, 0);
        assert_eq!(service.shard_state(0), ShardState::Active);
        let health_1 = views[1].health;
        assert_eq!((health_1.attempts, health_1.failures), (1, 0));
        // The failed attempt still feeds the latency EWMA — telemetry
        // must not under-report sick shards.
        assert!(views[0].ewma_compile_latency > Duration::ZERO);
    }

    #[test]
    fn breaker_trips_quarantines_and_probe_restores() {
        let service = two_shard_service();
        service.set_breaker(Some(BreakerConfig { failure_threshold: 2, cooldown_jobs: 2 }));
        // Shard 0 fails its first two compile attempts, then recovers.
        let plan = FaultPlan::new(11)
            .rule(FaultRule::new(FaultKind::Error).on_shard(0).for_attempts(0..2));
        let injector = Arc::new(FaultInjector::new(plan));
        service.set_fault_injector(Some(Arc::clone(&injector)));
        let mut shard_of = Vec::new();
        for i in 0..6 {
            let outcome = &service.compile_batch_sequential(vec![distinct_job(i)])[0];
            shard_of.push(match outcome {
                Ok(reply) => Ok(reply.shard),
                Err(e) => Err(e.clone()),
            });
        }
        // Round-robin: jobs 0 and 2 hit shard 0 and fail (streak 2 →
        // trip); jobs 1, 3, 4 serve on shard 1 while the breaker is
        // open, advancing the cooldown; job 5 becomes the HalfOpen probe
        // on the recovered shard 0 and closes the breaker.
        assert!(shard_of[0].is_err() && shard_of[2].is_err());
        assert_eq!(shard_of[1], Ok(1));
        assert_eq!(shard_of[3], Ok(1));
        assert_eq!(shard_of[4], Ok(1));
        assert_eq!(shard_of[5], Ok(0), "probe lands on the quarantined shard");
        assert_eq!(service.shard_state(0), ShardState::Active, "probe success restores");
        let health = service.shard_views()[0].health;
        assert_eq!(health.breaker_trips, 1);
        assert_eq!(health.failures, 2);
        assert_eq!(injector.injected(), 2);
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let service = two_shard_service();
        service.set_breaker(Some(BreakerConfig { failure_threshold: 1, cooldown_jobs: 1 }));
        // Shard 0 fails its first three attempts: the trip, one failed
        // probe, and then a successful second probe.
        let plan = FaultPlan::new(13)
            .rule(FaultRule::new(FaultKind::Panic).on_shard(0).for_attempts(0..2));
        service.set_fault_injector(Some(Arc::new(FaultInjector::new(plan))));
        let mut outcomes = Vec::new();
        for i in 0..6 {
            outcomes.push(service.compile_batch_sequential(vec![distinct_job(i)]).remove(0));
        }
        // Job 0 → shard 0 trips (threshold 1). Job 1 → shard 1, cooldown
        // hits 1. Job 2 → probe on shard 0, fails (attempt 1 still in
        // the fault window) → breaker reopens. Job 3 → shard 1, fresh
        // cooldown hits 1. Job 4 → second probe on shard 0, succeeds →
        // restored. Job 5 → back in normal rotation.
        assert!(outcomes[0].is_err() && outcomes[2].is_err());
        assert_eq!(outcomes[4].as_ref().expect("second probe compiles").shard, 0);
        assert_eq!(service.shard_state(0), ShardState::Active);
        assert_eq!(service.shard_views()[0].health.breaker_trips, 1);
    }

    #[test]
    fn exclusions_reroute_deterministically_and_skip_pinning() {
        let service = two_shard_service();
        let program = Benchmark::Qaoa(6).build(5);
        let job = CompileJob::new(program, Strategy::ColorDynamic);
        let outcomes = service.compile_batch_excluding(vec![
            (job.clone(), Vec::new()),
            (job.clone(), vec![0]),
            (job.clone(), Vec::new()),
        ]);
        // Slot 0 routes normally (round-robin → shard 0) and pins; slot
        // 1 excludes shard 0 so it must bypass the pin and land on shard
        // 1; slot 2 follows the pin back to shard 0 — the excluded
        // retry never re-pinned the program.
        assert_eq!(outcomes[0].shard, Some(0));
        assert_eq!(outcomes[1].shard, Some(1));
        assert_eq!(outcomes[2].shard, Some(0));
        for outcome in &outcomes {
            assert!(outcome.result.is_ok());
        }
        // Excluding every shard is a routing refusal, not a compile.
        let refused = service.compile_batch_excluding(vec![(job, vec![0, 1])]);
        assert_eq!(refused[0].shard, None);
        assert!(matches!(refused[0].result, Err(CompileError::NoShardFits { .. })));
    }

    #[test]
    fn manual_quarantine_and_fleet_health() {
        let service = two_shard_service();
        assert!(!service.fleet_unhealthy());
        assert!(service.quarantine_shard(0));
        assert!(!service.quarantine_shard(0), "already quarantined");
        assert_eq!(service.shard_state(0), ShardState::Quarantined);
        assert!(!service.fleet_unhealthy(), "shard 1 is still active");
        assert!(service.quarantine_shard(1));
        assert!(service.fleet_unhealthy(), "no active shard left");
        assert!(service.restore_shard(1));
        assert!(!service.fleet_unhealthy());
        // Draining/retiring the last active shard is an operator state,
        // not an "unhealthy fleet" — but with shard 0 still quarantined,
        // the fleet is unhealthy again.
        service.drain_shard(1);
        assert!(service.fleet_unhealthy());
        // Restore everything: a quarantined shard can be restored, a
        // draining one cannot.
        assert!(service.restore_shard(0));
        assert!(!service.restore_shard(1));
        assert!(!service.fleet_unhealthy());
    }

    #[test]
    fn quarantined_results_stay_bit_identical_after_recovery() {
        // A shard that trips and recovers must serve the same schedules
        // as a never-faulted fleet: faults change *where and when*, not
        // *what*.
        let service = two_shard_service();
        service.set_breaker(Some(BreakerConfig { failure_threshold: 1, cooldown_jobs: 1 }));
        let plan = FaultPlan::new(3)
            .rule(FaultRule::new(FaultKind::Panic).on_shard(0).for_attempts(0..1));
        service.set_fault_injector(Some(Arc::new(FaultInjector::new(plan))));
        let job = |i: usize| distinct_job(i);
        let mut served = Vec::new();
        for i in 0..5 {
            if let Ok(reply) = service.compile_batch_sequential(vec![job(i)])[0].as_ref() {
                served.push((i, reply.shard, Arc::clone(&reply.compiled)));
            }
        }
        assert!(!served.is_empty());
        for (i, shard, compiled) in served {
            let device = service.shard_device(shard);
            let fresh = Compiler::new(device, CompilerConfig::default())
                .compile(&job(i).program, Strategy::ColorDynamic)
                .expect("fresh compile succeeds");
            assert_eq!(fresh.schedule, compiled.schedule, "job {i} diverged on shard {shard}");
        }
    }

    fn temp_store_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("fastsc-router-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("{tag}-{}.store", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn store_warm_start_round_trips_bit_identically() {
        let path = temp_store_path("warm-start");
        let store = Arc::new(fastsc_store::ArtifactStore::open(&path).expect("opens"));
        let backed =
            || ShardSpec { store: Some(Arc::clone(&store)), ..spec(Device::grid(3, 3, 7)) };
        // One static-strategy job forces the statics solve, so the drain
        // flush has a static assignment to persist alongside schedules.
        let jobs = || {
            vec![
                distinct_job(0),
                distinct_job(1),
                CompileJob::new(Benchmark::Bv(9).build(7), Strategy::BaselineS),
            ]
        };

        // Cold fleet: compile, then drain to flush everything learned.
        let cold = CompileService::new(RoundRobin::new());
        cold.add_shard(backed()).expect("adds");
        let cold_replies = cold.compile_batch(jobs());
        cold.drain_shard(0);
        let stats = store.stats();
        assert_eq!(stats.statics, 1, "drain flushes the solved statics");
        assert_eq!(stats.schedules, 3, "drain flushes every dirty schedule");

        // Warm fleet from the same store: every repeat job is served
        // from the pre-warmed cache, bit-identical to the cold compile.
        let warm = CompileService::new(RoundRobin::new());
        warm.add_shard(backed()).expect("adds");
        let warm_replies = warm.compile_batch(jobs());
        for (i, (c, w)) in cold_replies.iter().zip(&warm_replies).enumerate() {
            let c = c.as_ref().expect("cold compiles");
            let w = w.as_ref().expect("warm compiles");
            assert!(w.cache_hit, "job {i} must be served from the pre-warmed cache");
            assert_eq!(c.compiled.schedule, w.compiled.schedule, "job {i} diverged");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn export_import_prewarms_a_peer_fleet() {
        let donor = CompileService::new(RoundRobin::new());
        donor.add_shard(spec(Device::grid(3, 3, 7))).expect("adds");
        let donor_replies = donor.compile_batch((0..3).map(distinct_job).collect());
        let bundle = donor.export_artifacts();

        let peer = CompileService::new(RoundRobin::new());
        peer.add_shard(spec(Device::grid(3, 3, 7))).expect("adds");
        // A shard the bundle does not describe: everything it is offered
        // must be skipped, nothing misapplied.
        peer.add_shard(spec(Device::grid(2, 2, 5))).expect("adds");
        let report = peer.import_artifacts(&bundle);
        assert_eq!(report.schedules, 3, "all donor schedules adopted: {report:?}");

        // Route only to the matching shard — the mismatched one exists
        // to prove the import skips it, not to serve traffic.
        peer.drain_shard(1);
        service_matches_donor(&peer, &donor_replies);
        // Importing the same bundle twice is idempotent — everything is
        // already resident, so nothing new is adopted as a *statics*
        // seed (OnceLock already set) and schedules dedup in the cache.
        let again = peer.import_artifacts(&bundle);
        assert_eq!(again.statics, 0, "statics seed only once: {again:?}");
        assert_eq!(again.schedules, 0, "resident schedules are not adopted twice: {again:?}");
        assert_eq!(
            again.skipped,
            report.statics + report.smt + report.schedules + report.skipped
        );
    }

    #[test]
    fn import_into_a_capacity_zero_shard_adopts_no_schedules() {
        let donor = CompileService::new(RoundRobin::new());
        donor.add_shard(spec(Device::grid(3, 3, 7))).expect("adds");
        let _ = donor.compile_batch((0..3).map(distinct_job).collect());
        let peer = CompileService::new(RoundRobin::new());
        peer.add_shard(ShardSpec { cache_capacity: 0, ..spec(Device::grid(3, 3, 7)) })
            .expect("adds");
        let report = peer.import_artifacts(&donor.export_artifacts());
        assert_eq!(report.schedules, 0, "a capacity-0 cache keeps nothing: {report:?}");
        assert!(report.skipped >= 3, "the declined schedules are skipped: {report:?}");
        assert!(peer.cache_stats(0).len == 0);
    }

    fn service_matches_donor(
        peer: &CompileService,
        donor_replies: &[Result<ServiceReply, CompileError>],
    ) {
        peer.set_policy(ProgramAffinity::new());
        let peer_replies = peer.compile_batch((0..3).map(distinct_job).collect());
        for (i, (d, p)) in donor_replies.iter().zip(&peer_replies).enumerate() {
            let d = d.as_ref().expect("donor compiles");
            let p = p.as_ref().expect("peer compiles");
            assert!(p.cache_hit, "job {i} must hit the imported cache");
            assert_eq!(d.compiled.schedule, p.compiled.schedule, "job {i} diverged");
        }
    }

    #[test]
    fn corrupted_store_never_panics_and_falls_back_cold() {
        let path = temp_store_path("corrupt-fallback");
        let store = Arc::new(fastsc_store::ArtifactStore::open(&path).expect("opens"));
        let service = CompileService::new(RoundRobin::new());
        service
            .add_shard(ShardSpec {
                store: Some(Arc::clone(&store)),
                ..spec(Device::grid(3, 3, 7))
            })
            .expect("adds");
        service.compile_batch((0..2).map(distinct_job).collect());
        service.drain_shard(0);
        drop(service);
        drop(store);

        // Flip one byte in the middle of the file: some record's checksum
        // breaks. Reopen + warm start must still succeed, serving the
        // surviving records and recompiling the rest cold.
        let mut bytes = std::fs::read(&path).expect("reads");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("writes");

        let store = Arc::new(fastsc_store::ArtifactStore::open(&path).expect("reopens"));
        let stats = store.stats();
        assert!(
            stats.dropped_records >= 1 || stats.torn_bytes_truncated > 0,
            "the damage is detected and excised: {stats:?}"
        );
        let service = CompileService::new(RoundRobin::new());
        service
            .add_shard(ShardSpec {
                store: Some(Arc::clone(&store)),
                ..spec(Device::grid(3, 3, 7))
            })
            .expect("warm start survives corruption");
        let replies = service.compile_batch((0..2).map(distinct_job).collect());
        for (i, reply) in replies.iter().enumerate() {
            let reply = reply.as_ref().expect("compiles");
            let fresh = Compiler::new(Device::grid(3, 3, 7), CompilerConfig::default())
                .compile(&distinct_job(i).program, Strategy::ColorDynamic)
                .expect("fresh compile succeeds");
            assert_eq!(fresh.schedule, reply.compiled.schedule, "job {i} diverged");
        }
        let _ = std::fs::remove_file(&path);
    }
}
