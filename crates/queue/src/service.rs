//! The queue service: admission, dispatch, and result delivery.
//!
//! One dispatcher thread sits between submitters and the sharded
//! [`CompileService`]: submissions land in the `AdmissionQueue`
//! (bounded; the configured [`Backpressure`] decides what happens when
//! it is full), the dispatcher drains weighted, client-fair
//! micro-batches into [`CompileService::compile_batch`] (so shard
//! routing, coalescing, work stealing, and the whole-schedule result
//! cache all keep working under queued traffic), and each finished job
//! wakes its [`JobHandle`] and every [`Completions`] subscriber the
//! moment its micro-batch returns.
//!
//! Every admitted job resolves exactly once: to a compile result, or to
//! [`CompileError::Deadline`] (expired while queued),
//! [`CompileError::QueueFull`] (shed), or [`CompileError::Cancelled`]
//! (cancelled, or still queued when the service shut down mid-drain —
//! which cannot happen under the graceful drop-drain, but the contract
//! is defensive). Nothing is lost and nothing is delivered twice.

use crate::job::{JobId, Priority, Submission};
use crate::scheduler::{ActiveTrace, AdmissionQueue, QueuedJob};
use crate::stats::{QueueDelta, QueueStats, StatsState};
use fastsc_core::batch::{panic_message, CompileJob};
use fastsc_core::{CompileError, FailedAttempt};
use fastsc_service::{CompileService, ServiceReply, ShardOutcome, ShardView};
use fastsc_telemetry::{should_trace, AttrValue, SpanTree, TraceHandle, Tracer};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Terminal outcome of one queued job: the compile service's reply
/// (shard + cache-hit metadata included) or the per-job error.
pub type JobResult = Result<ServiceReply, CompileError>;

/// What [`QueueService::submit`] does when the admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Block the submitting thread until a slot frees (the default):
    /// lossless, propagates pressure to producers.
    #[default]
    Block,
    /// Fail the submission immediately with [`CompileError::QueueFull`]:
    /// lossy but never blocks — for callers with their own retry logic.
    RejectWhenFull,
    /// Admit the newcomer by evicting the oldest queued job of the
    /// least important class not outranking it; the victim's handle
    /// resolves to [`CompileError::QueueFull`]. When every queued job
    /// outranks the newcomer, the newcomer itself is admitted-and-shed
    /// instead — queue pressure never evicts upward.
    ShedOldest,
}

/// How the dispatcher handles compile attempts that fail *transiently*
/// (see [`CompileError::is_transient`]) on an identified shard.
///
/// Deterministic program errors (too wide, unroutable, malformed) are
/// never retried — they would fail identically everywhere. A transient
/// failure is re-queued with bounded exponential backoff, and with
/// `failover` enabled the failed shard is excluded from the retry's
/// routing, so the job deterministically lands somewhere else. Once
/// `max_attempts` is spent the job resolves to
/// [`CompileError::Exhausted`] carrying the full per-attempt history —
/// the queue-level poison quarantine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total compile attempts per job (first try included). Minimum 1;
    /// 1 means "never retry".
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Ceiling on the doubled backoff.
    pub max_backoff: Duration,
    /// Exclude each failed shard from the retry's routing (`true`) or
    /// retry in place on the same shard (`false`).
    pub failover: bool,
}

impl RetryPolicy {
    /// Disables retries entirely: every failure is terminal on its
    /// first attempt, exactly as if the retry layer did not exist.
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// The backoff before retry number `retry_index` (0-based):
    /// `base_backoff * 2^retry_index`, capped at `max_backoff`.
    pub fn backoff_for(&self, retry_index: u32) -> Duration {
        let factor = 2u32.saturating_pow(retry_index);
        self.base_backoff.saturating_mul(factor).min(self.max_backoff)
    }
}

impl Default for RetryPolicy {
    /// Three attempts, 10ms base backoff doubling to a 1s cap, with
    /// failover to a different shard on each retry.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            failover: true,
        }
    }
}

/// Tuning knobs for [`QueueService`].
#[derive(Debug, Clone, Copy)]
pub struct QueueConfig {
    /// Maximum jobs waiting for dispatch (jobs already compiling do not
    /// count). Minimum 1.
    pub capacity: usize,
    /// Full-queue behavior.
    pub backpressure: Backpressure,
    /// Largest micro-batch the dispatcher hands the compile service at
    /// once. Minimum 1. Larger batches amortize dispatch and give
    /// coalescing/work stealing more to chew on; smaller batches lower
    /// the latency of a high-priority job arriving behind a full batch.
    pub max_batch: usize,
    /// Completions each [`subscribe_all`](QueueService::subscribe_all)
    /// subscriber may buffer before its **oldest** entries are dropped
    /// (counted, see [`Completions::dropped`]). Minimum 1. Bounds the
    /// memory a stalled consumer can pin — the admission queue is
    /// bounded, so unread completion buffers must be too.
    pub subscriber_buffer: usize,
    /// Retry/failover behavior for transiently failed attempts.
    pub retry: RetryPolicy,
    /// The `retry_after` hint carried by
    /// [`CompileError::FleetUnhealthy`] when a submission is refused
    /// because every live shard is breaker-quarantined.
    pub unhealthy_retry_after: Duration,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            capacity: 256,
            backpressure: Backpressure::Block,
            max_batch: 32,
            subscriber_buffer: 4096,
            retry: RetryPolicy::default(),
            unhealthy_retry_after: Duration::from_secs(1),
        }
    }
}

/// Where one job is in its lifecycle.
#[derive(Debug)]
enum Slot {
    /// Admitted, waiting in the queue (metadata locates it for cancel
    /// and lets handle-side deadline expiry remove it promptly).
    Queued { client: crate::job::ClientId, priority: Priority, deadline: Option<Instant> },
    /// Drained into a micro-batch, compiling now.
    Running,
    /// Failed transiently; waiting out its backoff before another
    /// attempt (the job itself lives in `State::retries`). Cancellable,
    /// and its deadline keeps ticking.
    Retrying { deadline: Option<Instant> },
    /// Finished; the result waits for its handle.
    Done(JobResult),
    /// The handle was dropped before completion; deliver to subscribers
    /// only, then forget.
    Abandoned,
}

#[derive(Debug)]
struct Subscriber {
    id: u64,
    buffer: std::collections::VecDeque<(JobId, JobResult)>,
    dropped: u64,
}

/// Finished traces parked for [`QueueService::take_trace`] pickup.
/// Holds the raw tracers, not assembled trees: tree assembly
/// (allocation and sorting) happens in [`QueueService::take_trace`] on
/// the consumer's thread, outside the queue's state lock, so the
/// dispatcher's completion path only parks a handle. Bounded: past
/// [`TRACE_STORE_CAP`] unclaimed traces, the oldest is evicted — a
/// client that traces but never collects cannot pin unbounded memory —
/// and the age index is compacted to the unclaimed ids once it passes
/// twice the cap, so claimed ids cannot pin it either.
#[derive(Debug, Default)]
struct TraceStore {
    tracers: HashMap<JobId, Tracer>,
    order: VecDeque<JobId>,
}

/// Unclaimed finished traces retained at most.
const TRACE_STORE_CAP: usize = 1024;

impl TraceStore {
    fn insert(&mut self, id: JobId, tracer: Tracer) {
        if self.tracers.insert(id, tracer).is_none() {
            self.order.push_back(id);
        }
        while self.tracers.len() > TRACE_STORE_CAP {
            match self.order.pop_front() {
                // Already-claimed ids linger in `order`; skipping them
                // here keeps `take` O(1).
                Some(oldest) => {
                    self.tracers.remove(&oldest);
                }
                None => break,
            }
        }
        // Amortized O(1): after compaction `order` holds at most the cap,
        // so the next compaction is at least a cap of inserts away.
        if self.order.len() > 2 * TRACE_STORE_CAP {
            let tracers = &self.tracers;
            self.order.retain(|id| tracers.contains_key(id));
        }
    }

    fn take(&mut self, id: JobId) -> Option<Tracer> {
        self.tracers.remove(&id)
    }
}

#[derive(Debug)]
struct State {
    subscriber_buffer: usize,
    queue: AdmissionQueue,
    slots: HashMap<JobId, Slot>,
    /// Jobs waiting out a retry backoff, each with its earliest
    /// re-dispatch time (ignored on shutdown drain).
    retries: Vec<(Instant, QueuedJob)>,
    next_id: u64,
    next_seq: u64,
    next_subscriber: u64,
    inflight: usize,
    paused: bool,
    shutdown: bool,
    stats: StatsState,
    subscribers: Vec<Subscriber>,
    /// Finished trees awaiting [`QueueService::take_trace`].
    finished_traces: TraceStore,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// Wakes the dispatcher: work arrived, resumed, or shutting down.
    work: Condvar,
    /// Wakes blocked submitters: queue depth dropped.
    space: Condvar,
    /// Wakes handle waiters and subscribers: a job completed.
    done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Delivers `result` for `job`, consuming its record: streams it to
/// every subscriber, then parks it in the job's slot for its handle (or
/// forgets it if the handle is gone). Callers update stats and notify
/// `done`.
///
/// Delivery is also where a traced job's trace **finishes**: the
/// `respond` span covers the fan-out below, the root `job` span closes
/// with the outcome, and the assembled tree is parked for
/// [`QueueService::take_trace`].
fn complete(state: &mut State, job: QueuedJob, result: JobResult) {
    let id = job.id;
    let respond_started = Instant::now();
    let ok = result.is_ok();
    let cap = state.subscriber_buffer;
    for subscriber in &mut state.subscribers {
        subscriber.buffer.push_back((id, result.clone()));
        // A stalled consumer must not pin unbounded memory: drop its
        // oldest unread completion (counted) once past the cap.
        if subscriber.buffer.len() > cap {
            subscriber.buffer.pop_front();
            subscriber.dropped += 1;
        }
    }
    match state.slots.get_mut(&id) {
        Some(slot @ (Slot::Queued { .. } | Slot::Running | Slot::Retrying { .. })) => {
            *slot = Slot::Done(result)
        }
        Some(Slot::Abandoned) => {
            state.slots.remove(&id);
        }
        // Double delivery is a bug in the queue itself, not user error.
        Some(Slot::Done(_)) => unreachable!("job {id} completed twice"),
        None => {}
    }
    if let Some(ActiveTrace { tracer, mut root, .. }) = job.trace {
        tracer.record("respond", Some(root.id()), respond_started, Instant::now(), Vec::new());
        root.attr("outcome", if ok { "ok" } else { "error" });
        drop(root);
        // Park the raw tracer: assembling the tree costs allocations
        // and sorts, and this runs under the state lock — the consumer
        // pays for assembly in `take_trace` instead.
        state.finished_traces.insert(id, tracer);
    }
}

/// Expires `id` **now** if it is still queued past its deadline: removes
/// it from the admission queue, counts it, and resolves it to
/// [`CompileError::Deadline`] exactly once. Returns whether it expired.
///
/// Deadline expiry used to be checked only when the dispatcher drained a
/// micro-batch, so on a paused or saturated queue an expired job sat
/// admitted and its waiters blocked arbitrarily past the deadline. The
/// handle paths ([`JobHandle::poll`] / [`wait`](JobHandle::wait) /
/// [`wait_timeout`](JobHandle::wait_timeout)) now call this too, so an
/// expired job fails promptly wherever it is observed first — here or at
/// drain — and the `Queued → Done` slot transition under the one state
/// lock guarantees it resolves exactly once either way. Jobs already
/// drained into a micro-batch (`Running`) are past expiry on purpose:
/// their compile result stands, matching the dispatcher's contract.
fn expire_if_due(state: &mut State, id: JobId, now: Instant) -> bool {
    // A deadline can also pass while the job waits out a retry backoff;
    // it expires just as promptly there.
    let deadline = match state.slots.get(&id) {
        Some(Slot::Queued { deadline, .. } | Slot::Retrying { deadline }) => *deadline,
        _ => None,
    };
    if deadline.is_none_or(|deadline| deadline > now) {
        return false;
    }
    let Some(job) = take_waiting(state, id) else {
        return false;
    };
    state.stats.expired += 1;
    complete(state, job, Err(CompileError::Deadline));
    true
}

/// Removes `id`'s record from wherever it waits — the admission queue or
/// the retry list. `None` once it is compiling or resolved.
fn take_waiting(state: &mut State, id: JobId) -> Option<QueuedJob> {
    match state.slots.get(&id)? {
        Slot::Queued { client, priority, .. } => {
            let (client, priority) = (*client, *priority);
            state.queue.remove(id, client, priority)
        }
        Slot::Retrying { .. } => {
            let index = state.retries.iter().position(|(_, job)| job.id == id)?;
            Some(state.retries.remove(index).1)
        }
        _ => None,
    }
}

/// The asynchronous front end over a sharded [`CompileService`] (see the
/// [module docs](self) and the crate-level example).
#[derive(Debug)]
pub struct QueueService {
    shared: Arc<Shared>,
    service: Arc<CompileService>,
    config: QueueConfig,
    dispatcher: Option<JoinHandle<()>>,
}

impl QueueService {
    /// Starts the front end over `service` (the dispatcher thread is
    /// spawned immediately).
    ///
    /// # Panics
    ///
    /// Panics if `config.capacity`, `config.max_batch`, or
    /// `config.subscriber_buffer` is 0, or if `service` has no
    /// registered shard — shards *can* be added later
    /// ([`CompileService::add_shard`] is safe under the dispatcher), but
    /// starting a queue over an empty fleet is almost certainly a
    /// mistake, and the dispatcher would panic on its first batch
    /// instead of failing fast here.
    pub fn new(service: CompileService, config: QueueConfig) -> Self {
        assert!(config.capacity >= 1, "queue capacity must be at least 1");
        assert!(config.max_batch >= 1, "micro-batch size must be at least 1");
        assert!(config.subscriber_buffer >= 1, "subscriber buffer must be at least 1");
        assert!(config.retry.max_attempts >= 1, "retry policy needs at least one attempt");
        assert!(
            service.shard_count() >= 1,
            "register at least one device before starting the queue"
        );
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                subscriber_buffer: config.subscriber_buffer,
                queue: AdmissionQueue::new(),
                slots: HashMap::new(),
                retries: Vec::new(),
                next_id: 0,
                next_seq: 0,
                next_subscriber: 0,
                inflight: 0,
                paused: false,
                shutdown: false,
                stats: StatsState::default(),
                subscribers: Vec::new(),
                finished_traces: TraceStore::default(),
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            done: Condvar::new(),
        });
        let service = Arc::new(service);
        let dispatcher = {
            let shared = Arc::clone(&shared);
            let service = Arc::clone(&service);
            std::thread::Builder::new()
                .name("fastsc-queue-dispatcher".into())
                .spawn(move || dispatch_loop(&shared, &service, config))
                .expect("spawning the dispatcher thread succeeds")
        };
        QueueService { shared, service, config, dispatcher: Some(dispatcher) }
    }

    /// [`new`](Self::new) with [`QueueConfig::default`].
    pub fn with_defaults(service: CompileService) -> Self {
        QueueService::new(service, QueueConfig::default())
    }

    /// Submits one job without waiting for it to compile. The returned
    /// [`JobHandle`] observes the job's lifecycle; results also stream
    /// to every [`subscribe_all`](Self::subscribe_all) subscriber.
    ///
    /// Under [`Backpressure::Block`] this call blocks while the queue is
    /// full — that is the backpressure. The other modes never block.
    ///
    /// # Errors
    ///
    /// * [`CompileError::QueueFull`] — queue full under
    ///   [`Backpressure::RejectWhenFull`].
    /// * [`CompileError::Cancelled`] — the service is shutting down.
    /// * [`CompileError::FleetUnhealthy`] — every live shard is
    ///   breaker-quarantined; admitting the job would only let it rot in
    ///   the queue, so the submission fails fast with a `retry_after`
    ///   hint ([`QueueConfig::unhealthy_retry_after`]) instead.
    pub fn submit(&self, submission: Submission) -> Result<JobHandle, CompileError> {
        let Submission { job, client, priority, deadline, trace } = submission;
        let admit_started = Instant::now();
        // Opt-in per job, or globally via the sampled/always trace mode.
        // Tracing is pure observation: the job's route and compile are
        // bit-identical either way. The tracer and its allocations are
        // set up *before* the state lock — admission must not serialize
        // on observability bookkeeping.
        let pending_trace = if trace || should_trace() {
            let tracer = Tracer::new();
            let mut root = tracer.span("job", None);
            root.attr("client", client);
            // Static names, not `to_string()`: no allocation per job.
            root.attr("priority", priority.name());
            Some((tracer, root))
        } else {
            None
        };
        let mut state = self.shared.lock();
        if state.shutdown {
            return Err(CompileError::Cancelled);
        }
        if self.service.fleet_unhealthy() {
            state.stats.rejected += 1;
            return Err(CompileError::FleetUnhealthy {
                retry_after: self.config.unhealthy_retry_after,
            });
        }
        let mut shed_self = false;
        if state.queue.len() >= self.config.capacity {
            match self.config.backpressure {
                Backpressure::Block => {
                    while state.queue.len() >= self.config.capacity && !state.shutdown {
                        state = self
                            .shared
                            .space
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    if state.shutdown {
                        return Err(CompileError::Cancelled);
                    }
                }
                Backpressure::RejectWhenFull => {
                    state.stats.rejected += 1;
                    return Err(CompileError::QueueFull);
                }
                Backpressure::ShedOldest => {
                    match state.queue.shed_oldest_at_most(priority) {
                        Some(victim) => {
                            state.stats.shed += 1;
                            complete(&mut state, victim, Err(CompileError::QueueFull));
                            self.shared.done.notify_all();
                        }
                        // Everything queued outranks the newcomer: the
                        // newcomer is the victim. It is still admitted
                        // (its handle resolves, subscribers see it).
                        None => shed_self = true,
                    }
                }
            }
        }
        let id = JobId(state.next_id);
        state.next_id += 1;
        state.stats.admitted += 1;
        let trace = pending_trace.map(|(tracer, mut root)| {
            // The id only exists now; the `admission` interval covers
            // everything from submit entry, including any blocking wait
            // for queue space.
            root.attr("job_id", id.as_u64());
            tracer.record(
                "admission",
                Some(root.id()),
                admit_started,
                Instant::now(),
                Vec::new(),
            );
            ActiveTrace { tracer, root, attempt: None }
        });
        let seq = state.next_seq;
        let queued = QueuedJob {
            id,
            client,
            priority,
            job,
            deadline,
            submitted: Instant::now(),
            seq,
            attempts: Vec::new(),
            excluded: Vec::new(),
            trace,
        };
        if shed_self {
            state.stats.shed += 1;
            state.slots.insert(id, Slot::Queued { client, priority, deadline: None });
            complete(&mut state, queued, Err(CompileError::QueueFull));
            self.shared.done.notify_all();
        } else {
            state.next_seq += 1;
            state.slots.insert(id, Slot::Queued { client, priority, deadline });
            state.queue.push(queued);
            self.shared.work.notify_all();
        }
        Ok(JobHandle { id, shared: Arc::clone(&self.shared) })
    }

    /// Takes the finished span tree of a resolved traced job, at most
    /// once: a second call (or a call for an untraced or still-running
    /// job) returns `None`. Trees of jobs never collected are evicted
    /// oldest-first past an internal cap, so tracing without collecting
    /// cannot grow without bound.
    pub fn take_trace(&self, id: JobId) -> Option<SpanTree> {
        // Tree assembly happens here, after the state lock is released:
        // the completion path parks raw tracers only.
        let tracer = self.shared.lock().finished_traces.take(id)?;
        Some(tracer.finish())
    }

    /// Streams every completion from now on: the iterator yields
    /// `(job_id, result)` in **completion order** (the order micro-batch
    /// results are delivered), blocking between completions and ending
    /// when the service has shut down and everything admitted has
    /// resolved. Completions before the subscription are not replayed.
    pub fn subscribe_all(&self) -> Completions {
        let mut state = self.shared.lock();
        let id = state.next_subscriber;
        state.next_subscriber += 1;
        state.subscribers.push(Subscriber {
            id,
            buffer: std::collections::VecDeque::new(),
            dropped: 0,
        });
        Completions { id, shared: Arc::clone(&self.shared) }
    }

    /// A point-in-time snapshot of queue depth, lifecycle counters,
    /// per-priority latency percentiles, and the fleet's schedule-cache
    /// counters.
    pub fn stats(&self) -> QueueStats {
        snapshot_stats(&self.shared, &self.service)
    }

    /// Opens a poll-friendly telemetry stream for operator loops: each
    /// [`poll`](TelemetryFeed::poll) returns the current per-shard
    /// [`ShardView`]s, the full [`QueueStats`] snapshot, and the
    /// [`QueueDelta`] of lifecycle counters since the feed's previous
    /// poll — everything an autoscaler needs to decide whether to
    /// [`add_shard`](CompileService::add_shard) against sustained depth
    /// or [`drain_shard`](CompileService::drain_shard) an idle chip (the
    /// service behind [`service`](Self::service) accepts both while the
    /// dispatcher is running). Feeds are independent: each tracks its
    /// own previous snapshot, and the first poll's delta covers activity
    /// since the feed was opened.
    pub fn telemetry_feed(&self) -> TelemetryFeed {
        TelemetryFeed {
            previous: self.stats(),
            shared: Arc::clone(&self.shared),
            service: Arc::clone(&self.service),
        }
    }

    /// Holds the dispatcher after its current micro-batch: queued jobs
    /// wait (deadlines keep ticking) until [`resume`](Self::resume).
    /// Submissions are still admitted. Useful for maintenance windows
    /// and for tests that need a deterministically full queue.
    pub fn pause(&self) {
        self.shared.lock().paused = true;
    }

    /// Releases [`pause`](Self::pause).
    pub fn resume(&self) {
        self.shared.lock().paused = false;
        self.shared.work.notify_all();
    }

    /// The compile service behind the queue (e.g. for per-shard cache
    /// stats).
    pub fn service(&self) -> &CompileService {
        &self.service
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> QueueConfig {
        self.config
    }
}

impl Drop for QueueService {
    /// Graceful shutdown: refuses new submissions, lets the dispatcher
    /// drain everything already admitted (pause is overridden), then
    /// joins it. Every outstanding handle and subscriber resolves.
    fn drop(&mut self) {
        {
            let mut state = self.shared.lock();
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        self.shared.done.notify_all();
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
    }
}

/// Assembles the [`QueueStats`] snapshot (shared by
/// [`QueueService::stats`] and [`TelemetryFeed::poll`]).
fn snapshot_stats(shared: &Shared, service: &CompileService) -> QueueStats {
    let state = shared.lock();
    state.stats.snapshot(state.queue.len(), state.inflight, service.cache_stats_total())
}

/// One [`TelemetryFeed::poll`] result: the fleet and the queue in a
/// single observation.
#[derive(Debug, Clone)]
pub struct FleetSnapshot {
    /// Per-shard telemetry, in shard-index order (profiles, lifecycle
    /// state, load, EWMA compile latency, cache counters).
    pub shards: Vec<ShardView>,
    /// The full queue snapshot at poll time.
    pub stats: QueueStats,
    /// Lifecycle-counter movement since this feed's previous poll.
    pub delta: QueueDelta,
}

/// A poll-friendly telemetry stream over a [`QueueService`] (see
/// [`QueueService::telemetry_feed`]). Outlives the service handle it was
/// opened from without keeping jobs alive — polling a feed after the
/// service dropped simply observes the final drained state.
#[derive(Debug)]
pub struct TelemetryFeed {
    shared: Arc<Shared>,
    service: Arc<CompileService>,
    previous: QueueStats,
}

impl TelemetryFeed {
    /// Takes the next observation: current shard views, current queue
    /// stats, and the counter delta since this feed's previous poll.
    pub fn poll(&mut self) -> FleetSnapshot {
        let stats = snapshot_stats(&self.shared, &self.service);
        let delta = stats.delta_since(&self.previous);
        self.previous = stats.clone();
        FleetSnapshot { shards: self.service.shard_views(), stats, delta }
    }

    /// The compile service behind the feed — the handle an operator loop
    /// uses to act on what it observed
    /// ([`add_shard`](CompileService::add_shard) /
    /// [`drain_shard`](CompileService::drain_shard) /
    /// [`remove_shard`](CompileService::remove_shard)).
    pub fn service(&self) -> &CompileService {
        &self.service
    }
}

/// Moves one drained job (fresh from the admission queue, or a retry
/// whose backoff elapsed) into the micro-batch — or resolves it to
/// [`CompileError::Deadline`] when it is already overdue. A traced job
/// gets its per-attempt span opened, with the job's compile-phase trace
/// handle pointed under it so route and compile spans nest inside the
/// attempt.
fn admit_to_batch(
    state: &mut State,
    mut queued: QueuedJob,
    now: Instant,
    batch: &mut Vec<QueuedJob>,
) {
    if queued.deadline.is_some_and(|deadline| deadline <= now) {
        state.stats.expired += 1;
        complete(state, queued, Err(CompileError::Deadline));
        return;
    }
    // Only a live slot advances; an `Abandoned` marker (handle already
    // dropped) must survive so the completion is forgotten, not parked.
    if let Some(slot @ (Slot::Queued { .. } | Slot::Retrying { .. })) =
        state.slots.get_mut(&queued.id)
    {
        *slot = Slot::Running;
    }
    // A first attempt ends the job's queue wait; a retry's wait was its
    // backoff, traced when it was scheduled.
    if queued.attempts.is_empty() {
        let wait = now.saturating_duration_since(queued.submitted);
        state.stats.record_queue_wait(queued.priority, wait);
        if let Some(trace) = &queued.trace {
            let root = Some(trace.root.id());
            trace.tracer.record("queue_wait", root, queued.submitted, now, Vec::new());
        }
    }
    if let Some(trace) = &mut queued.trace {
        let mut span = trace.tracer.span("attempt", Some(trace.root.id()));
        span.attr("attempt", queued.attempts.len());
        queued.job.trace = Some(TraceHandle::new(trace.tracer.clone(), span.id()));
        trace.attempt = Some(span);
    }
    batch.push(queued);
}

/// The dispatcher: drain due retries and a fair micro-batch, expire
/// overdue jobs, run the rest through the compile service, then deliver
/// terminal results and re-queue transient failures per the
/// [`RetryPolicy`]. Exits once shutdown is flagged and both the queue
/// and the retry list are empty (shutdown drains retries immediately,
/// ignoring their backoff — admitted work is finished, not dropped).
fn dispatch_loop(shared: &Shared, service: &CompileService, config: QueueConfig) {
    let max_batch = config.max_batch;
    let policy = config.retry;
    loop {
        let batch: Vec<QueuedJob> = {
            let mut state = shared.lock();
            loop {
                if state.shutdown {
                    break;
                }
                if !state.paused {
                    let now = Instant::now();
                    if !state.queue.is_empty()
                        || state.retries.iter().any(|(not_before, _)| *not_before <= now)
                    {
                        break;
                    }
                    // Nothing due yet, but a backoff is ticking: sleep
                    // to the earliest re-dispatch time, not forever.
                    if let Some(at) =
                        state.retries.iter().map(|(not_before, _)| *not_before).min()
                    {
                        let left = at.saturating_duration_since(now);
                        state = shared
                            .work
                            .wait_timeout(state, left)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                        continue;
                    }
                }
                state = shared.work.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
            if state.shutdown && state.queue.is_empty() && state.retries.is_empty() {
                return;
            }
            let now = Instant::now();
            // Retries whose backoff elapsed go first — they have been
            // waiting longest. Shutdown overrides the backoff.
            let shutdown = state.shutdown;
            let mut due = Vec::new();
            let mut waiting = Vec::new();
            for (not_before, queued) in state.retries.drain(..) {
                if due.len() < max_batch && (shutdown || not_before <= now) {
                    due.push(queued);
                } else {
                    waiting.push((not_before, queued));
                }
            }
            state.retries = waiting;
            let mut batch = Vec::new();
            for queued in due {
                admit_to_batch(&mut state, queued, now, &mut batch);
            }
            for queued in state.queue.drain_batch(max_batch - batch.len()) {
                admit_to_batch(&mut state, queued, now, &mut batch);
            }
            state.inflight += batch.len();
            batch
        };
        // Depth dropped; unblock submitters. Expired jobs completed.
        shared.space.notify_all();
        shared.done.notify_all();
        if batch.is_empty() {
            continue;
        }
        let jobs: Vec<(CompileJob, Vec<usize>)> =
            batch.iter().map(|queued| (queued.job.clone(), queued.excluded.clone())).collect();
        // The service already isolates per-job panics, but the batch
        // call itself can still panic (e.g. a custom policy routing out
        // of bounds). Letting that unwind would kill the dispatcher with
        // jobs stuck in `Running` — every waiter would hang forever — so
        // the whole batch fails into its slots instead and the
        // dispatcher lives on. A batch-level panic has no shard
        // attribution, so it is terminal, never retried.
        let outcomes = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service.compile_batch_excluding(jobs)
        }))
        .unwrap_or_else(|payload| {
            let message = panic_message(payload.as_ref());
            batch
                .iter()
                .map(|_| ShardOutcome {
                    shard: None,
                    result: Err(CompileError::Internal { message: message.clone() }),
                })
                .collect()
        });
        {
            let mut state = shared.lock();
            state.inflight -= batch.len();
            let now = Instant::now();
            for (mut queued, outcome) in batch.into_iter().zip(outcomes) {
                let span = queued.trace.as_mut().and_then(|trace| trace.attempt.take());
                let retryable = matches!(&outcome.result, Err(error) if error.is_transient())
                    && outcome.shard.is_some()
                    && (queued.attempts.len() as u32) + 1 < policy.max_attempts;
                if retryable {
                    let shard = outcome.shard.expect("retryable implies an attributed shard");
                    let error = match outcome.result {
                        Err(error) => error,
                        Ok(_) => unreachable!("retryable implies a failed attempt"),
                    };
                    if let Some(mut span) = span {
                        span.attr("shard", shard);
                        span.attr("ok", false);
                        span.attr("error", error.to_string());
                    }
                    queued.attempts.push(FailedAttempt { shard: Some(shard), error });
                    if policy.failover && !queued.excluded.contains(&shard) {
                        queued.excluded.push(shard);
                    }
                    let retry_index = (queued.attempts.len() - 1) as u32;
                    if let Some(slot @ Slot::Running) = state.slots.get_mut(&queued.id) {
                        *slot = Slot::Retrying { deadline: queued.deadline };
                    }
                    state.stats.retried += 1;
                    let not_before = now + policy.backoff_for(retry_index);
                    if let Some(trace) = &queued.trace {
                        // The span covers the *scheduled* backoff window;
                        // the dispatcher may drain it slightly later.
                        trace.tracer.record(
                            "backoff",
                            Some(trace.root.id()),
                            now,
                            not_before,
                            vec![("retry", AttrValue::from(u64::from(retry_index)))],
                        );
                    }
                    state.retries.push((not_before, queued));
                    continue;
                }
                // Terminal. A failure after earlier attempts resolves to
                // `Exhausted` carrying the whole history — including a
                // final routing refusal (shard `None`) when failover ran
                // out of shards to try.
                let result = match outcome.result {
                    Err(error) if !queued.attempts.is_empty() => {
                        let mut attempts = std::mem::take(&mut queued.attempts);
                        attempts.push(FailedAttempt { shard: outcome.shard, error });
                        Err(CompileError::Exhausted { attempts })
                    }
                    other => other,
                };
                if let Some(mut span) = span {
                    match &result {
                        Ok(reply) => {
                            span.attr("shard", reply.shard);
                            span.attr("ok", true);
                            span.attr("cache_hit", reply.cache_hit);
                        }
                        Err(error) => {
                            if let Some(shard) = outcome.shard {
                                span.attr("shard", shard);
                            }
                            span.attr("ok", false);
                            span.attr("error", error.to_string());
                        }
                    }
                }
                state.stats.completed += 1;
                state.stats.record_latency(queued.priority, queued.submitted.elapsed());
                complete(&mut state, queued, result);
            }
        }
        shared.done.notify_all();
    }
}

/// Observes one submitted job (returned by [`QueueService::submit`]).
///
/// Dropping the handle detaches it — the job still runs (and still
/// streams to subscribers); only the parked result is discarded.
#[derive(Debug)]
pub struct JobHandle {
    id: JobId,
    shared: Arc<Shared>,
}

impl JobHandle {
    /// The job's identity (matches the `(job_id, result)` pairs streamed
    /// by [`QueueService::subscribe_all`]).
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The job's result if it has completed, without blocking.
    ///
    /// Observing a job whose deadline has already passed while it is
    /// still queued expires it on the spot (exactly once, counted in
    /// [`QueueStats::expired`](crate::QueueStats::expired)) and returns
    /// [`CompileError::Deadline`] — a paused or saturated queue cannot
    /// make an expired job look merely "not done yet".
    pub fn poll(&self) -> Option<JobResult> {
        let mut state = self.shared.lock();
        if expire_if_due(&mut state, self.id, Instant::now()) {
            self.shared.space.notify_all();
            self.shared.done.notify_all();
        }
        match state.slots.get(&self.id) {
            Some(Slot::Done(result)) => Some(result.clone()),
            _ => None,
        }
    }

    /// Blocks until the job completes. A queued job whose deadline
    /// passes while waiting resolves promptly to
    /// [`CompileError::Deadline`] — the wait wakes **at** the deadline
    /// instead of blocking until the dispatcher next drains.
    pub fn wait(&self) -> JobResult {
        self.wait_until(None).expect("an unbounded wait ends only with a result")
    }

    /// [`wait`](Self::wait) bounded by `timeout`; `None` when the job is
    /// still outstanding at the end of it. A queued job whose deadline
    /// falls inside `timeout` resolves promptly to
    /// [`CompileError::Deadline`] at that deadline.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobResult> {
        self.wait_until(Some(Instant::now() + timeout))
    }

    /// The one wait loop behind [`wait`](Self::wait) and
    /// [`wait_timeout`](Self::wait_timeout): the job's result, or `None`
    /// once `until` passes (`None` never passes).
    fn wait_until(&self, until: Option<Instant>) -> Option<JobResult> {
        let mut state = self.shared.lock();
        loop {
            if expire_if_due(&mut state, self.id, Instant::now()) {
                self.shared.space.notify_all();
                self.shared.done.notify_all();
            }
            let job_deadline = match state.slots.get(&self.id) {
                Some(Slot::Done(result)) => return Some(result.clone()),
                // The slot is gone or the drain already passed the job
                // by: resolve rather than hang. Unreachable under the
                // normal lifecycle.
                None => return Some(Err(CompileError::Cancelled)),
                Some(Slot::Queued { deadline, .. } | Slot::Retrying { deadline }) => *deadline,
                _ => None,
            };
            let now = Instant::now();
            if until.is_some_and(|at| at <= now) {
                return None;
            }
            // Sleep to whichever comes first: the caller's bound or the
            // job's own deadline, so expiry is prompt even when nothing
            // else signals `done`.
            state = match until.into_iter().chain(job_deadline).min() {
                Some(wake) => {
                    self.shared
                        .done
                        .wait_timeout(state, wake.saturating_duration_since(now))
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self.shared.done.wait(state).unwrap_or_else(PoisonError::into_inner),
            };
        }
    }

    /// Cancels the job if it is still queued or waiting out a retry
    /// backoff: its handle (and every subscriber) resolves to
    /// [`CompileError::Cancelled`] and it will never compile (again).
    /// Returns `false` when too late — the job is already compiling or
    /// done, and its real result stands. Exactly one of the racing
    /// outcomes wins: a cancel that lands during the backoff window
    /// removes the pending retry, and a cancel that loses the race to
    /// the dispatcher leaves the in-flight attempt's result intact.
    pub fn cancel(&self) -> bool {
        let mut state = self.shared.lock();
        let Some(job) = take_waiting(&mut state, self.id) else {
            return false;
        };
        state.stats.cancelled += 1;
        complete(&mut state, job, Err(CompileError::Cancelled));
        self.shared.space.notify_all();
        self.shared.done.notify_all();
        true
    }
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        match state.slots.get_mut(&self.id) {
            Some(Slot::Done(_)) => {
                state.slots.remove(&self.id);
            }
            Some(slot) => *slot = Slot::Abandoned,
            None => {}
        }
    }
}

/// Blocking iterator over completions (see
/// [`QueueService::subscribe_all`]).
#[derive(Debug)]
pub struct Completions {
    id: u64,
    shared: Arc<Shared>,
}

impl Completions {
    /// The next completion, or `None` after `timeout` with nothing
    /// delivered (the subscription stays live — keep calling).
    pub fn next_timeout(&mut self, timeout: Duration) -> Option<(JobId, JobResult)> {
        self.next_until(Some(Instant::now() + timeout))
    }

    /// The one completion loop behind [`next`](Iterator::next) and
    /// [`next_timeout`](Self::next_timeout): the next completion, or
    /// `None` once no more can arrive or `until` passes (`None` never
    /// passes).
    fn next_until(&mut self, until: Option<Instant>) -> Option<(JobId, JobResult)> {
        let mut state = self.shared.lock();
        loop {
            if let Some(item) = self.pop(&mut state) {
                return Some(item);
            }
            if self.finished(&state) {
                return None;
            }
            state = match until {
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    self.shared
                        .done
                        .wait_timeout(state, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self.shared.done.wait(state).unwrap_or_else(PoisonError::into_inner),
            };
        }
    }

    /// Completions this subscriber missed because its buffer overflowed
    /// ([`QueueConfig::subscriber_buffer`]) before it was drained. The
    /// jobs themselves were unaffected — their handles still resolved.
    pub fn dropped(&self) -> u64 {
        let state = self.shared.lock();
        state.subscribers.iter().find(|s| s.id == self.id).map_or(0, |s| s.dropped)
    }

    fn pop(&self, state: &mut State) -> Option<(JobId, JobResult)> {
        let buffer = &mut state.subscribers.iter_mut().find(|s| s.id == self.id)?.buffer;
        buffer.pop_front()
    }

    /// No more completions can ever arrive: shut down with nothing
    /// queued, compiling, or awaiting a retry.
    fn finished(&self, state: &State) -> bool {
        state.shutdown
            && state.queue.is_empty()
            && state.inflight == 0
            && state.retries.is_empty()
    }
}

impl Iterator for Completions {
    type Item = (JobId, JobResult);

    /// Blocks until the next completion; ends (`None`) only when the
    /// service has shut down and everything admitted has resolved.
    fn next(&mut self) -> Option<Self::Item> {
        self.next_until(None)
    }
}

impl Drop for Completions {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.subscribers.retain(|s| s.id != self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsc_core::{CompilerConfig, Strategy};
    use fastsc_device::Device;
    use fastsc_service::{RoundRobin, ShardSpec};
    use fastsc_workloads::Benchmark;

    fn queue(config: QueueConfig) -> QueueService {
        let service = CompileService::new(RoundRobin::new());
        service
            .add_shard(ShardSpec::new(Device::grid(3, 3, 7), CompilerConfig::default()))
            .expect("registers");
        QueueService::new(service, config)
    }

    fn bv(width: usize) -> Submission {
        Submission::new(CompileJob::new(Benchmark::Bv(width).build(1), Strategy::ColorDynamic))
    }

    #[test]
    fn submit_wait_roundtrip() {
        let queue = queue(QueueConfig::default());
        let handle = queue.submit(bv(4)).expect("admits");
        let reply = handle.wait().expect("compiles");
        assert_eq!(reply.shard, 0);
        assert_eq!(handle.poll().expect("done").expect("compiles").shard, 0);
        let stats = queue.stats();
        assert_eq!((stats.admitted, stats.completed), (1, 1));
        assert_eq!(stats.latency(Priority::Batch).count, 1);
    }

    #[test]
    fn traced_job_parks_a_full_span_tree() {
        let queue = queue(QueueConfig::default());
        let handle = queue.submit(bv(4).traced()).expect("admits");
        assert!(handle.wait().is_ok());
        let tree = queue.take_trace(handle.id()).expect("trace parked at completion");
        let root = tree.root().expect("exactly one root");
        assert_eq!(root.name, "job");
        for name in ["admission", "queue_wait", "attempt", "respond"] {
            assert!(root.find(name).is_some(), "missing {name} span");
        }
        let attempt = root.find("attempt").expect("attempt span");
        assert!(attempt.find("route").is_some(), "route nests under the attempt");
        assert!(attempt.find("compile").is_some(), "compile nests under the attempt");
        assert!(queue.take_trace(handle.id()).is_none(), "trees are claimed at most once");
        // Untraced jobs leave nothing behind.
        let plain = queue.submit(bv(5)).expect("admits");
        assert!(plain.wait().is_ok());
        assert!(queue.take_trace(plain.id()).is_none());
    }

    #[test]
    fn claimed_traces_do_not_grow_the_age_index() {
        // Every traced job the server answers is claimed through
        // `take_trace`; the claimed ids must not pile up in `order`.
        let mut store = TraceStore::default();
        for id in 0..10 * TRACE_STORE_CAP as u64 {
            store.insert(JobId(id), Tracer::new());
            assert!(store.take(JobId(id)).is_some());
            assert!(store.order.len() <= 2 * TRACE_STORE_CAP, "index leaked at job {id}");
        }
        assert!(store.tracers.is_empty());
    }

    #[test]
    fn queue_wait_percentiles_populate_on_completion() {
        let queue = queue(QueueConfig::default());
        let handle = queue.submit(bv(4)).expect("admits");
        assert!(handle.wait().is_ok());
        let stats = queue.stats();
        assert_eq!(stats.queue_wait(Priority::Batch).count, 1);
        assert!(
            stats.queue_wait(Priority::Batch).max <= stats.latency(Priority::Batch).max,
            "queue wait is a sub-interval of total latency"
        );
    }

    #[test]
    fn per_job_errors_stay_in_their_slot() {
        let queue = queue(QueueConfig::default());
        let wide = queue.submit(bv(16)).expect("admits");
        let fits = queue.submit(bv(4)).expect("admits");
        assert!(matches!(wide.wait(), Err(CompileError::ProgramTooWide { .. })));
        assert!(fits.wait().is_ok());
    }

    #[test]
    fn reject_when_full_fails_fast_and_counts() {
        let queue = queue(QueueConfig {
            capacity: 1,
            backpressure: Backpressure::RejectWhenFull,
            max_batch: 4,
            subscriber_buffer: QueueConfig::default().subscriber_buffer,
            ..QueueConfig::default()
        });
        queue.pause();
        let first = queue.submit(bv(4)).expect("fits the queue");
        // The queue is paused and full: the second submission bounces.
        for _ in 0..3 {
            match queue.submit(bv(5)) {
                Err(CompileError::QueueFull) => {}
                other => panic!("expected QueueFull, got {other:?}"),
            }
        }
        queue.resume();
        assert!(first.wait().is_ok());
        let stats = queue.stats();
        assert_eq!((stats.admitted, stats.rejected), (1, 3));
    }

    #[test]
    fn deadline_expires_without_compiling() {
        let queue = queue(QueueConfig::default());
        queue.pause();
        let doomed = queue
            .submit(bv(4).deadline_at(Instant::now() - Duration::from_millis(1)))
            .expect("admits");
        let alive = queue.submit(bv(5)).expect("admits");
        queue.resume();
        assert!(matches!(doomed.wait(), Err(CompileError::Deadline)));
        assert!(alive.wait().is_ok());
        let stats = queue.stats();
        assert_eq!((stats.expired, stats.completed), (1, 1));
        // The expired job never reached a compiler: one miss, no hit.
        assert_eq!(stats.cache.misses, 1);
    }

    #[test]
    fn wait_fails_at_the_deadline_on_a_paused_queue() {
        // The dispatcher never drains while paused, so expiry must fire
        // from the handle's wait itself — promptly, not "whenever the
        // queue next moves".
        let queue = queue(QueueConfig::default());
        queue.pause();
        let doomed =
            queue.submit(bv(4).deadline_in(Duration::from_millis(50))).expect("admits");
        let started = Instant::now();
        assert!(matches!(doomed.wait(), Err(CompileError::Deadline)));
        let waited = started.elapsed();
        assert!(waited >= Duration::from_millis(45), "woke before the deadline: {waited:?}");
        assert!(waited < Duration::from_secs(10), "expiry was not prompt: {waited:?}");
        let stats = queue.stats();
        assert_eq!((stats.expired, stats.depth), (1, 0), "expired job left the queue");
        // Exactly once: the resolved slot is terminal.
        assert!(matches!(doomed.wait(), Err(CompileError::Deadline)));
        assert!(!doomed.cancel(), "already resolved");
        queue.resume();
    }

    #[test]
    fn poll_resolves_an_expired_job_in_place() {
        let queue = queue(QueueConfig::default());
        queue.pause();
        let doomed = queue
            .submit(bv(4).deadline_at(Instant::now() - Duration::from_millis(1)))
            .expect("admits");
        let alive = queue.submit(bv(5)).expect("admits");
        assert!(matches!(doomed.poll(), Some(Err(CompileError::Deadline))));
        assert!(alive.poll().is_none(), "unexpired neighbors are untouched");
        assert_eq!(queue.stats().expired, 1);
        queue.resume();
        assert!(alive.wait().is_ok());
        // The expired job never reached a compiler.
        assert_eq!(queue.stats().completed, 1);
    }

    #[test]
    fn wait_timeout_respects_both_deadlines() {
        let queue = queue(QueueConfig::default());
        queue.pause();
        // Caller timeout shorter than the job deadline: times out without
        // expiring the job.
        let patient =
            queue.submit(bv(4).deadline_in(Duration::from_secs(120))).expect("admits");
        assert!(patient.wait_timeout(Duration::from_millis(20)).is_none());
        assert_eq!(queue.stats().expired, 0, "a caller timeout must not expire the job");
        // Job deadline inside the caller timeout: resolves to Deadline at
        // the deadline, well before the caller timeout.
        let doomed =
            queue.submit(bv(5).deadline_in(Duration::from_millis(40))).expect("admits");
        let started = Instant::now();
        match doomed.wait_timeout(Duration::from_secs(60)) {
            Some(Err(CompileError::Deadline)) => {}
            other => panic!("expected Deadline, got {other:?}"),
        }
        assert!(started.elapsed() < Duration::from_secs(30), "expiry was not prompt");
        assert_eq!(queue.stats().expired, 1);
        queue.resume();
        assert!(patient.wait().is_ok(), "the timed-out handle still resolves normally");
    }

    #[test]
    fn handle_side_expiry_streams_to_subscribers_exactly_once() {
        let queue = queue(QueueConfig::default());
        queue.pause();
        let mut completions = queue.subscribe_all();
        let doomed = queue
            .submit(bv(4).deadline_at(Instant::now() - Duration::from_millis(1)))
            .expect("admits");
        assert!(matches!(doomed.wait(), Err(CompileError::Deadline)));
        let (id, result) = completions.next_timeout(Duration::from_secs(10)).expect("streamed");
        assert_eq!(id, doomed.id());
        assert!(matches!(result, Err(CompileError::Deadline)));
        queue.resume();
        assert!(
            completions.next_timeout(Duration::from_millis(20)).is_none(),
            "no duplicate delivery from the dispatcher drain"
        );
        assert_eq!(queue.stats().expired, 1);
    }

    #[test]
    fn cancel_only_wins_before_dispatch() {
        let queue = queue(QueueConfig::default());
        queue.pause();
        let victim = queue.submit(bv(4)).expect("admits");
        assert!(victim.cancel(), "still queued: cancellable");
        assert!(matches!(victim.wait(), Err(CompileError::Cancelled)));
        assert!(!victim.cancel(), "already resolved");
        queue.resume();
        let done = queue.submit(bv(5)).expect("admits");
        assert!(done.wait().is_ok());
        assert!(!done.cancel(), "completed jobs cannot be cancelled");
        assert_eq!(queue.stats().cancelled, 1);
    }

    #[test]
    fn dropping_the_service_resolves_outstanding_handles() {
        let queue = queue(QueueConfig::default());
        queue.pause();
        let handle = queue.submit(bv(4)).expect("admits");
        drop(queue); // graceful drain overrides pause
        assert!(handle.wait().is_ok(), "queued work must drain on shutdown");
    }

    #[test]
    fn shed_oldest_evicts_and_resolves_the_victim() {
        let queue = queue(QueueConfig {
            capacity: 2,
            backpressure: Backpressure::ShedOldest,
            max_batch: 4,
            subscriber_buffer: QueueConfig::default().subscriber_buffer,
            ..QueueConfig::default()
        });
        queue.pause();
        let oldest = queue.submit(bv(4)).expect("admits");
        let second = queue.submit(bv(5)).expect("admits");
        let newcomer = queue.submit(bv(6)).expect("sheds the oldest and admits");
        assert!(matches!(oldest.wait(), Err(CompileError::QueueFull)));
        queue.resume();
        assert!(second.wait().is_ok());
        assert!(newcomer.wait().is_ok());
        let stats = queue.stats();
        assert_eq!((stats.admitted, stats.shed, stats.completed), (3, 1, 2));
    }

    #[test]
    fn shed_never_evicts_upward() {
        let queue = queue(QueueConfig {
            capacity: 1,
            backpressure: Backpressure::ShedOldest,
            max_batch: 4,
            subscriber_buffer: QueueConfig::default().subscriber_buffer,
            ..QueueConfig::default()
        });
        queue.pause();
        let vip = queue.submit(bv(4).priority(Priority::Interactive)).expect("admits");
        // Everything queued outranks the speculative newcomer: the
        // newcomer itself is admitted-and-shed.
        let spec = queue.submit(bv(5).priority(Priority::Speculative)).expect("admits");
        assert!(matches!(spec.wait(), Err(CompileError::QueueFull)));
        queue.resume();
        assert!(vip.wait().is_ok());
        assert_eq!(queue.stats().shed, 1);
    }

    #[test]
    fn subscriber_sees_each_completion_exactly_once() {
        let queue = queue(QueueConfig::default());
        queue.pause();
        let mut completions = queue.subscribe_all();
        let handles: Vec<JobHandle> =
            (0..3).map(|i| queue.submit(bv(4 + i)).expect("admits")).collect();
        let expected: Vec<JobId> = handles.iter().map(JobHandle::id).collect();
        queue.resume();
        let mut seen = Vec::new();
        for _ in 0..3 {
            let (id, result) = completions.next_timeout(Duration::from_secs(30)).expect("runs");
            assert!(result.is_ok());
            seen.push(id);
        }
        seen.sort();
        assert_eq!(seen, expected);
        assert!(
            completions.next_timeout(Duration::from_millis(10)).is_none(),
            "no duplicate deliveries"
        );
    }

    #[test]
    fn block_mode_blocks_until_space_frees() {
        let queue = Arc::new(queue(QueueConfig {
            capacity: 1,
            backpressure: Backpressure::Block,
            max_batch: 1,
            subscriber_buffer: QueueConfig::default().subscriber_buffer,
            ..QueueConfig::default()
        }));
        // Flood from a second thread; Block admission means every job
        // eventually compiles, with the producer throttled to queue pace.
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                (0..4)
                    .map(|i| queue.submit(bv(4 + i)).expect("blocks, then admits"))
                    .collect::<Vec<_>>()
            })
        };
        let handles = producer.join().expect("producer finishes");
        for handle in &handles {
            assert!(handle.wait().is_ok());
        }
        let stats = queue.stats();
        assert_eq!((stats.admitted, stats.rejected, stats.completed), (4, 0, 4));
    }

    #[test]
    #[should_panic(expected = "register at least one device")]
    fn empty_fleet_is_refused_at_construction() {
        // Devices cannot be registered once the service is behind the
        // queue, so an empty fleet would panic the dispatcher on its
        // first batch; construction fails fast instead.
        let _ =
            QueueService::with_defaults(CompileService::new(fastsc_service::RoundRobin::new()));
    }

    #[test]
    fn dispatcher_survives_a_panicking_batch() {
        // A policy routing out of bounds panics inside compile_batch.
        // The dispatcher must convert that into per-job Internal errors
        // and keep serving — never die with jobs stuck in Running.
        #[derive(Debug)]
        struct OutOfBounds;
        impl fastsc_service::ShardPolicy for OutOfBounds {
            fn route(
                &mut self,
                _request: &fastsc_service::RouteRequest<'_>,
            ) -> Result<usize, CompileError> {
                Ok(7)
            }
        }
        let service = CompileService::new(OutOfBounds);
        service
            .add_shard(ShardSpec::new(Device::grid(3, 3, 7), CompilerConfig::default()))
            .expect("registers");
        let queue = QueueService::with_defaults(service);
        let first = queue.submit(bv(4)).expect("admits");
        match first.wait() {
            Err(CompileError::Internal { message }) => {
                assert!(message.contains("routed to shard"), "unexpected payload: {message}")
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        // The dispatcher is still alive and keeps resolving jobs.
        let second = queue.submit(bv(5)).expect("admits");
        assert!(matches!(second.wait(), Err(CompileError::Internal { .. })));
        assert_eq!(queue.stats().completed, 2);
    }

    #[test]
    fn stalled_subscribers_are_bounded_drop_oldest() {
        let queue = queue(QueueConfig { subscriber_buffer: 2, ..QueueConfig::default() });
        let completions = queue.subscribe_all();
        let handles: Vec<JobHandle> =
            (0..5).map(|i| queue.submit(bv(3 + i)).expect("admits")).collect();
        let last_ids: Vec<JobId> = handles[3..].iter().map(JobHandle::id).collect();
        for handle in &handles {
            assert!(handle.wait().is_ok(), "dropped buffer entries never affect the job");
        }
        assert_eq!(completions.dropped(), 3, "oldest completions age out, counted");
        let mut completions = completions;
        let buffered: Vec<JobId> = (0..2)
            .map(|_| completions.next_timeout(Duration::from_secs(10)).expect("buffered").0)
            .collect();
        assert_eq!(buffered, last_ids, "the newest completions survive");
    }

    #[test]
    fn telemetry_feed_reports_views_and_deltas() {
        let queue = queue(QueueConfig::default());
        let mut feed = queue.telemetry_feed();
        queue.pause();
        let handles: Vec<JobHandle> =
            (0..3).map(|i| queue.submit(bv(4 + i)).expect("admits")).collect();
        let snapshot = feed.poll();
        assert_eq!(snapshot.stats.depth, 3, "paused queue holds everything");
        assert_eq!(snapshot.delta.admitted, 3, "first poll covers activity since open");
        assert_eq!(snapshot.delta.completed, 0);
        assert_eq!(snapshot.shards.len(), 1);
        assert!(snapshot.shards[0].routable());
        assert!(snapshot.shards[0].profile.estimated_success > 0.0);
        queue.resume();
        for handle in &handles {
            assert!(handle.wait().is_ok());
        }
        let snapshot = feed.poll();
        assert_eq!(snapshot.delta.admitted, 0, "deltas are per-feed, not lifetime");
        assert_eq!(snapshot.delta.completed, 3);
        assert_eq!(snapshot.stats.depth, 0);
        assert!(feed.poll().delta.is_idle(), "an idle queue polls as idle");
        // The feed hands back the service for acting on observations.
        assert_eq!(feed.service().shard_count(), 1);
    }

    #[test]
    fn shard_added_behind_a_running_queue_serves_traffic() {
        let queue = queue(QueueConfig::default());
        let warmup = queue.submit(bv(4)).expect("admits");
        assert_eq!(warmup.wait().expect("compiles").shard, 0);
        queue
            .service()
            .add_shard(ShardSpec::new(Device::grid(3, 3, 11), CompilerConfig::default()))
            .expect("adds behind the dispatcher");
        // Distinct programs so round-robin alternates over both shards.
        let handles: Vec<JobHandle> =
            (0..4).map(|i| queue.submit(bv(5 + i)).expect("admits")).collect();
        let shards: Vec<usize> =
            handles.iter().map(|h| h.wait().expect("compiles").shard).collect();
        assert!(shards.contains(&1), "the new shard must serve queued traffic: {shards:?}");
    }

    #[test]
    fn drain_under_saturation_loses_no_admitted_jobs() {
        // The acceptance scenario: a saturated queue over two shards,
        // one of which is drained mid-flood. Every admitted job must
        // resolve exactly once — compiled on the surviving shard or on
        // the draining shard before it went idle — and the subscriber
        // must see each id exactly once.
        let service = CompileService::new(fastsc_service::Composite::least_loaded());
        for seed in [7, 11] {
            service
                .add_shard(ShardSpec::new(Device::grid(3, 3, seed), CompilerConfig::default()))
                .expect("registers");
        }
        let queue = Arc::new(QueueService::new(
            service,
            QueueConfig {
                capacity: 4,
                backpressure: Backpressure::Block,
                max_batch: 3,
                ..QueueConfig::default()
            },
        ));
        let mut completions = queue.subscribe_all();
        let producers: Vec<_> = (0..2u64)
            .map(|client| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    (0..8u64)
                        .map(|i| {
                            queue
                                .submit(
                                    Submission::new(CompileJob::new(
                                        Benchmark::Bv(3 + (i as usize % 5))
                                            .build(client * 100 + i),
                                        Strategy::ColorDynamic,
                                    ))
                                    .client(client),
                                )
                                .expect("block mode always admits")
                        })
                        .collect::<Vec<JobHandle>>()
                })
            })
            .collect();
        // Drain shard 0 while the flood is in progress.
        queue.service().drain_shard(0);
        let handles: Vec<JobHandle> =
            producers.into_iter().flat_map(|p| p.join().expect("producer finishes")).collect();
        assert_eq!(handles.len(), 16);
        let mut expected: Vec<JobId> = handles.iter().map(JobHandle::id).collect();
        for handle in &handles {
            let reply = handle.wait().expect("every admitted job compiles");
            // Jobs routed after the drain took effect land on shard 1;
            // earlier ones may have compiled on shard 0. Both are fine —
            // what matters is that each resolved.
            assert!(reply.shard < 2);
        }
        let mut seen: Vec<JobId> = (0..16)
            .map(|_| {
                completions.next_timeout(Duration::from_secs(60)).expect("streams each job").0
            })
            .collect();
        seen.sort();
        expected.sort();
        assert_eq!(seen, expected, "each admitted job streams exactly once");
        assert!(
            completions.next_timeout(Duration::from_millis(20)).is_none(),
            "no duplicate deliveries"
        );
        let stats = queue.stats();
        assert_eq!((stats.admitted, stats.completed), (16, 16));
        assert_eq!(queue.service().shard_views()[0].load, 0, "drained shard ends idle");
    }

    #[test]
    fn dropped_handles_do_not_leak_slots() {
        let queue = queue(QueueConfig::default());
        for i in 0..4 {
            let handle = queue.submit(bv(4 + i)).expect("admits");
            handle.wait().expect("compiles");
            drop(handle);
        }
        let abandoned = queue.submit(bv(8)).expect("admits");
        drop(abandoned); // dropped before completion: delivered to no one
        while queue.stats().completed < 5 {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(queue.shared.lock().slots.is_empty(), "slots must not accumulate");
    }

    // ------------------------------------------------------------------
    // Retry / failover / fleet-health behavior (fault-injected).
    // ------------------------------------------------------------------

    use fastsc_service::{FaultInjector, FaultKind, FaultPlan, FaultRule};

    /// A queue over `seeds.len()` shards with `plan` injected and the
    /// given retry policy (1ms base backoff keeps tests fast).
    fn faulty_queue(seeds: &[u64], plan: FaultPlan, retry: RetryPolicy) -> QueueService {
        let service = CompileService::new(RoundRobin::new());
        for &seed in seeds {
            service
                .add_shard(ShardSpec::new(Device::grid(3, 3, seed), CompilerConfig::default()))
                .expect("registers");
        }
        service.set_fault_injector(Some(Arc::new(FaultInjector::new(plan))));
        QueueService::new(service, QueueConfig { retry, ..QueueConfig::default() })
    }

    fn fast_retry() -> RetryPolicy {
        RetryPolicy { base_backoff: Duration::from_millis(1), ..RetryPolicy::default() }
    }

    #[test]
    fn transient_failures_fail_over_to_a_healthy_shard() {
        // Shard 0 always fails; the retry must exclude it and land the
        // job on shard 1 — and the failover result must match a fresh
        // single-device compile bit for bit.
        let plan = FaultPlan::new(40).rule(FaultRule::new(FaultKind::Error).on_shard(0));
        let queue = faulty_queue(&[7, 11], plan, fast_retry());
        let handle = queue.submit(bv(4)).expect("admits");
        let reply = handle.wait().expect("fails over and compiles");
        assert_eq!(reply.shard, 1, "the retry must leave the sick shard");
        let fresh =
            fastsc_core::Compiler::new(Device::grid(3, 3, 11), CompilerConfig::default())
                .compile(&Benchmark::Bv(4).build(1), Strategy::ColorDynamic)
                .expect("fresh compile succeeds");
        assert_eq!(reply.compiled.schedule, fresh.schedule, "failover must stay bit-identical");
        let stats = queue.stats();
        assert_eq!((stats.retried, stats.completed), (1, 1));
        // The sick shard's failure landed in its health counters.
        let health = queue.service().shard_views()[0].health;
        assert_eq!((health.attempts, health.failures), (1, 1));
    }

    #[test]
    fn exhausted_carries_the_full_attempt_history() {
        // A single-shard fleet with failover: the retry excludes the
        // only shard, routing refuses, and the job resolves to
        // `Exhausted` carrying both the compile failure and the final
        // routing refusal.
        let plan = FaultPlan::new(41).rule(FaultRule::new(FaultKind::Error).on_shard(0));
        let queue = faulty_queue(&[7], plan, fast_retry());
        let handle = queue.submit(bv(4)).expect("admits");
        match handle.wait() {
            Err(CompileError::Exhausted { attempts }) => {
                assert_eq!(attempts.len(), 2);
                assert_eq!(attempts[0].shard, Some(0));
                assert!(matches!(attempts[0].error, CompileError::Internal { .. }));
                assert_eq!(attempts[1].shard, None, "the last attempt never routed");
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        let stats = queue.stats();
        assert_eq!((stats.retried, stats.completed), (1, 1));
    }

    #[test]
    fn retries_without_failover_exhaust_in_place() {
        // failover = false pins every retry to the same shard; all
        // three attempts burn down on shard 0 and the history shows it.
        let plan = FaultPlan::new(42).rule(FaultRule::new(FaultKind::Error).on_shard(0));
        let retry = RetryPolicy { failover: false, ..fast_retry() };
        let queue = faulty_queue(&[7], plan, retry);
        let handle = queue.submit(bv(4)).expect("admits");
        match handle.wait() {
            Err(CompileError::Exhausted { attempts }) => {
                assert_eq!(attempts.len(), 3);
                assert!(attempts.iter().all(|attempt| attempt.shard == Some(0)));
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert_eq!(queue.stats().retried, 2);
    }

    #[test]
    fn retry_none_makes_the_first_failure_terminal() {
        let plan = FaultPlan::new(43).rule(FaultRule::new(FaultKind::Error).on_shard(0));
        let queue = faulty_queue(&[7, 11], plan, RetryPolicy::none());
        let handle = queue.submit(bv(4)).expect("admits");
        assert!(
            matches!(handle.wait(), Err(CompileError::Internal { .. })),
            "no retry layer: the raw transient error surfaces"
        );
        assert_eq!(queue.stats().retried, 0);
    }

    #[test]
    fn cancel_during_backoff_wins_exactly_once() {
        // The first attempt fails, parking the job in a long backoff;
        // a cancel landing in that window must win, remove the pending
        // retry, and resolve the handle exactly once.
        let plan = FaultPlan::new(44)
            .rule(FaultRule::new(FaultKind::Error).on_shard(0).for_attempts(0..1));
        let retry =
            RetryPolicy { base_backoff: Duration::from_secs(60), ..RetryPolicy::default() };
        let queue = faulty_queue(&[7], plan, retry);
        let mut completions = queue.subscribe_all();
        let handle = queue.submit(bv(4)).expect("admits");
        let started = Instant::now();
        while queue.stats().retried < 1 {
            assert!(started.elapsed() < Duration::from_secs(30), "retry never queued");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(handle.cancel(), "a job in backoff is cancellable");
        assert!(matches!(handle.wait(), Err(CompileError::Cancelled)));
        assert!(!handle.cancel(), "already resolved");
        let (id, result) = completions.next_timeout(Duration::from_secs(10)).expect("streams");
        assert_eq!(id, handle.id());
        assert!(matches!(result, Err(CompileError::Cancelled)));
        assert_eq!(queue.stats().cancelled, 1);
        // Shutdown must not hang on the removed retry entry.
        drop(queue);
        assert!(
            completions.next_timeout(Duration::from_secs(10)).is_none(),
            "no duplicate delivery"
        );
    }

    #[test]
    fn deadline_expires_during_backoff() {
        // The deadline keeps ticking while a job waits out its backoff;
        // the waiting handle resolves at the deadline, not after 60s.
        let plan = FaultPlan::new(45)
            .rule(FaultRule::new(FaultKind::Error).on_shard(0).for_attempts(0..1));
        let retry =
            RetryPolicy { base_backoff: Duration::from_secs(60), ..RetryPolicy::default() };
        let queue = faulty_queue(&[7], plan, retry);
        let handle =
            queue.submit(bv(4).deadline_in(Duration::from_millis(80))).expect("admits");
        let started = Instant::now();
        assert!(matches!(handle.wait(), Err(CompileError::Deadline)));
        assert!(started.elapsed() < Duration::from_secs(30), "expiry was not prompt");
        let stats = queue.stats();
        assert_eq!((stats.retried, stats.expired), (1, 1));
        drop(queue); // must not hang: the expired entry left the retry list
    }

    #[test]
    fn shutdown_drains_pending_retries_immediately() {
        // Dropping the queue must not wait out a 60s backoff: shutdown
        // re-dispatches pending retries at once and the second attempt
        // (past the fault window) succeeds.
        let plan = FaultPlan::new(46)
            .rule(FaultRule::new(FaultKind::Error).on_shard(0).for_attempts(0..1));
        let retry = RetryPolicy {
            base_backoff: Duration::from_secs(60),
            failover: false,
            ..RetryPolicy::default()
        };
        let queue = faulty_queue(&[7], plan, retry);
        let handle = queue.submit(bv(4)).expect("admits");
        let started = Instant::now();
        while queue.stats().retried < 1 {
            assert!(started.elapsed() < Duration::from_secs(30), "retry never queued");
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(queue); // graceful drain overrides the backoff
        assert!(handle.wait().is_ok(), "the retry compiled on shutdown drain");
    }

    #[test]
    fn fleet_unhealthy_fails_submissions_fast() {
        let queue = queue(QueueConfig {
            unhealthy_retry_after: Duration::from_millis(250),
            ..QueueConfig::default()
        });
        assert!(queue.service().quarantine_shard(0));
        match queue.submit(bv(4)) {
            Err(CompileError::FleetUnhealthy { retry_after }) => {
                assert_eq!(retry_after, Duration::from_millis(250));
            }
            other => panic!("expected FleetUnhealthy, got {other:?}"),
        }
        assert_eq!(queue.stats().rejected, 1);
        // Restoring the shard reopens admission.
        assert!(queue.service().restore_shard(0));
        assert!(queue.submit(bv(4)).expect("admits again").wait().is_ok());
    }
}
