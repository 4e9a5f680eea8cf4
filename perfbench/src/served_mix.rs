//! `served_mix` (warm, closed loop, two TCP connections each doing
//! submit→wait): paper-suite jobs sent as QASM to a `Server` over a
//! `QueueService` over a two-shard fleet of 5x5 calibrations, drawn with
//! Zipf skew from a pool larger than each shard's result cache, so cache
//! hits (reads) mix with misses, inserts and evictions (writes). The
//! wire, QASM parsing, session, admission, dispatch, routing and the
//! cache dominate.
//!
//! Every reply must carry the `schedule_hash` of a direct compile of the
//! same job (its parsed QASM, on the reply's shard); each of those
//! direct schedules passes the output checks.
//!
//! Throughput and latency percentiles are medians over half-second
//! windows of wall time, so a window the host stalls does not move them.
//!
//! `BENCHMARK.json` does not list this workload. On a two-vCPU VM the
//! serving path is bound by thread wake-ups rather than CPU, and host
//! stalls last for seconds: over ten seeds, with windowed medians, its
//! throughput spread (interquartile range over median) was 0.18 and its
//! p99 latency spread 0.93, beyond the 0.25 a bound may be. One client,
//! eight-deep pipelining and in-process submission were no steadier. It still runs by name, and
//! [`trace_serving`] runs its traced phase inside `paper_direct`'s traced
//! run, so the wire, QASM-parse, queue and service layers are measured
//! on a listed workload.

use crate::check::check_schedule;
use crate::inputs::{paper_jobs, PaperJob, SkewedDraw, PAPER_SEED};
use crate::layers::{self, Layers, MAX_TRACED_JOBS};
use crate::stats::{Quality, QualityInputs, Report, Tally};
use crate::{guarded, timed_setups, traced_phases, Args};
use fastsc_core::batch::CompileJob;
use fastsc_core::{Compiler, CompilerConfig, Strategy};
use fastsc_device::Device;
use fastsc_ir::qasm::{from_qasm, to_qasm};
use fastsc_ir::Circuit;
use fastsc_queue::{LatencySummary, Priority, QueueConfig, QueueService, Submission};
use fastsc_server::{Client, Json, Server, TenantConfig};
use fastsc_service::{CompileService, ProgramAffinity};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Fabrication seeds of the two 5x5 shards.
const SHARD_SEEDS: [u64; 2] = [PAPER_SEED, PAPER_SEED + 1];
/// Result-cache capacity of each shard. Program affinity sends each of
/// the 22 programs to one shard, so a shard sees ~55 of the 110 pool
/// jobs: more than it can cache.
const CACHE_CAPACITY: usize = 16;
/// Concurrent client connections, one per core of a two-core host.
const CLIENTS: usize = 2;
/// Session token of the benchmark's tenant.
const TOKEN: &str = "perfbench";
/// Longest a client waits for one result before counting a timeout.
const WAIT_TIMEOUT_MS: u64 = 60_000;
/// Priority class every job is submitted with.
const PRIORITY: &str = "batch";
/// Length of one throughput sample of the timed phase.
const WINDOW: Duration = Duration::from_millis(500);

/// One pool job as the wire sees it.
struct PoolJob {
    job: PaperJob,
    qasm: String,
    strategy: String,
    /// The program the server parses out of `qasm`.
    program: Circuit,
    /// Size of the submit frame (length prefix included).
    request_bytes: usize,
}

/// Workload state: the running server, the job pool, and each pool
/// job's warm-up reply (shard and schedule hash).
struct State {
    server: Server,
    pool: Vec<PoolJob>,
    warmup: Vec<Result<(usize, u64), String>>,
}

/// What replies are checked against, computed after set-up: every pool
/// job's direct-compile schedule hash on each shard (each schedule passed
/// the output checks), and the schedule quality of the shards that
/// served the warm-up.
struct References {
    expected: Vec<[Option<u64>; 2]>,
    quality: Quality,
    failures: Vec<String>,
}

/// A fleet of the two shards behind program affinity.
fn fleet() -> CompileService {
    let mut service = CompileService::new(ProgramAffinity::new());
    for seed in SHARD_SEEDS {
        service
            .register_device_with_cache(
                Device::grid(5, 5, seed),
                CompilerConfig::default(),
                CACHE_CAPACITY,
            )
            .expect("5x5 calibrations have a frequency plan");
    }
    service
}

/// A tenant that admission control never throttles: the workload
/// measures the serving path, not rate limits.
fn tenant() -> TenantConfig {
    TenantConfig {
        token: TOKEN.to_owned(),
        name: "perfbench".to_owned(),
        client: 0,
        max_inflight: 1024,
        rate_per_sec: 1e9,
        burst: u32::MAX,
    }
}

fn connect(server: &Server) -> Client {
    let mut client = Client::connect(server.addr()).expect("loopback connect");
    client.hello(TOKEN).expect("the benchmark tenant authenticates");
    client
}

/// Submits one job over `client` and waits for it: the shard, cache hit
/// flag and schedule hash of a successful reply.
fn submit(client: &mut Client, job: &PoolJob) -> Result<(usize, bool, u64), String> {
    let id =
        client.submit(&job.qasm, &job.strategy, PRIORITY, None).map_err(|e| e.to_string())?;
    match client.wait(id, WAIT_TIMEOUT_MS) {
        Ok(Some(o)) if o.ok => match (o.shard, o.cache_hit, o.schedule_hash) {
            (Some(shard), Some(hit), Some(hash)) => Ok((shard as usize, hit, hash)),
            _ => Err("reply without shard, cache flag or schedule hash".to_owned()),
        },
        Ok(Some(o)) => Err(format!("job failed: {}", o.code.unwrap_or_default())),
        Ok(None) => Err("timed out".to_owned()),
        Err(e) => Err(e.to_string()),
    }
}

/// The job pool as the wire sees it: QASM text, strategy label, and the
/// size of the submit frame.
fn pool() -> Vec<PoolJob> {
    paper_jobs()
        .into_iter()
        .map(|job| {
            let qasm = to_qasm(&job.benchmark.build(PAPER_SEED));
            let program = from_qasm(&qasm).expect("generated QASM parses");
            let strategy = job.strategy.to_string();
            let frame = Json::obj(vec![
                ("type", Json::str("submit")),
                ("qasm", Json::str(qasm.as_str())),
                ("strategy", Json::str(strategy.as_str())),
                ("priority", Json::str(PRIORITY)),
                ("seq", Json::num(0.0)),
            ]);
            let request_bytes = 4 + frame.encode().len();
            PoolJob { job, qasm, strategy, program, request_bytes }
        })
        .collect()
}

/// Registers the shards, starts the server, and runs the untimed
/// warm-up pass: every pool job once over the socket.
fn setup() -> State {
    let server =
        Server::start(QueueService::new(fleet(), QueueConfig::default()), vec![tenant()])
            .expect("loopback server starts");
    let pool = pool();
    let mut client = connect(&server);
    let warmup = pool.iter().map(|p| submit(&mut client, p).map(|(s, _, h)| (s, h))).collect();
    State { server, pool, warmup }
}

/// Compiles every pool job directly on each shard's context, checks and
/// hashes the schedules, checks the warm-up replies against them, and
/// estimates the quality of the schedules the warm-up was served.
fn references(state: &State) -> References {
    let service = state.server.queue().service();
    let compilers: Vec<Compiler> = (0..SHARD_SEEDS.len())
        .map(|s| Compiler::with_context(service.shard_context(s).expect("shard context")))
        .collect();
    let mut failures = Vec::new();
    let mut expected = Vec::with_capacity(state.pool.len());
    let mut quality = QualityInputs::default();
    for (i, (p, warmup)) in state.pool.iter().zip(&state.warmup).enumerate() {
        let mut hashes = [None; 2];
        for (s, compiler) in compilers.iter().enumerate() {
            let device = compiler.device();
            let c = match layers::compile(None, compiler, &p.program, p.job.strategy) {
                Ok(c) => c,
                Err(e) => {
                    failures.push(e);
                    continue;
                }
            };
            if let Err(v) = check_schedule(device, &c.schedule, p.job.strategy, 1) {
                failures.push(format!("output check: {v}"));
                continue;
            }
            hashes[s] = Some(c.schedule.stable_hash());
            if matches!(warmup, Ok((shard, _)) if *shard == s) {
                let program = i / Strategy::all().len();
                quality.record(program, p.job.strategy, device, &c.schedule);
            }
        }
        match warmup {
            Ok((shard, hash)) if hashes.get(*shard) == Some(&Some(*hash)) => {}
            Ok((shard, _)) => {
                failures.push(format!("warm-up reply from shard {shard}: hash mismatch"))
            }
            Err(e) => failures.push(format!("warm-up: {e}")),
        }
        expected.push(hashes);
    }
    References { expected, quality: quality.quality(), failures }
}

/// The stacks a traced served job is replayed on, below the server:
/// a queue over its own fleet, and a bare fleet. Fed the same jobs in
/// the same order, their caches mirror the server's.
struct Twins {
    queue: QueueService,
    service: CompileService,
}

/// Runs one served job over the socket and returns its latency in
/// seconds, submit to result. Traced, the submit runs under the job's
/// `socket` span, and after it, outside the latency, the job is parsed,
/// run again through the twin stacks, and compiled directly on the
/// serving shard's context, each under its own span of the job. The
/// job's root carries no strategy, so its direct compile counts toward
/// the served layers' subtraction only, not the core layers.
fn served_job(
    state: &State,
    refs: &References,
    client: &mut Client,
    i: usize,
    traced: Option<(&Layers, &Twins)>,
) -> Result<f64, String> {
    let p = &state.pool[i];
    let start = Instant::now();
    let Some((layers, twins)) = traced else {
        let (shard, _, hash) = submit(client, p)?;
        let latency = start.elapsed().as_secs_f64();
        return check_reply(refs, i, shard, hash).map(|()| latency);
    };
    let root = layers.root("job");
    let mut span = layers.span(&root, "socket");
    span.attr("bytes", p.request_bytes);
    let reply = submit(client, p);
    if let Ok((_, hit, _)) = reply {
        span.attr("cache_hit", hit);
    }
    drop(span);
    let latency = start.elapsed().as_secs_f64();
    let (shard, _, hash) = reply?;
    {
        let mut span = layers.span(&root, "qasm_parse");
        span.attr("bytes", p.qasm.len());
        std::hint::black_box(from_qasm(&p.qasm).ok());
    }

    let job = CompileJob::new(p.program.clone(), p.job.strategy);
    let mut span = layers.span(&root, "queue");
    let handle = twins.queue.submit(Submission::new(job).client(0)).map_err(|e| e.to_string());
    if let Ok(Ok(reply)) = handle.as_ref().map(|h| h.wait()) {
        span.attr("cache_hit", reply.cache_hit);
    }
    drop(span);

    let job = CompileJob::new(p.program.clone(), p.job.strategy);
    let mut span = layers.span(&root, "service");
    let replies = guarded(|| twins.service.compile_batch(vec![job]));
    if let Ok(Some(Ok(reply))) = replies.as_ref().map(|r| r.first()) {
        span.attr("cache_hit", reply.cache_hit);
    }
    drop(span);

    let ctx = twins.service.shard_context(shard).map_err(|e| e.to_string())?;
    let compiler = Compiler::with_context(ctx);
    let direct = layers::compile(Some((layers, &root)), &compiler, &p.program, p.job.strategy);
    std::hint::black_box(direct.ok());
    check_reply(refs, i, shard, hash).map(|()| latency)
}

fn check_reply(refs: &References, i: usize, shard: usize, hash: u64) -> Result<(), String> {
    match refs.expected[i].get(shard) {
        Some(&Some(expected)) if expected == hash => Ok(()),
        Some(_) => {
            Err(format!("output check: shard {shard} reply hash differs from a direct compile"))
        }
        None => Err(format!("output check: reply names unknown shard {shard}")),
    }
}

/// The timed phase: `CLIENTS` connections, each a closed loop of
/// seeded skewed draws, until `args.seconds` (or, in a traced run,
/// [`MAX_TRACED_JOBS`] jobs in total) have gone by. The phase is sampled
/// in [`WINDOW`]-long windows of wall time, each one pass of the tally; a
/// window shorter than half of [`WINDOW`] (the tail of the phase) is
/// dropped. A window's throughput is its jobs × `CLIENTS` ÷ the time its
/// jobs spent between submit and result: the wall-time rate while every
/// client is always inside a job, which in a traced phase leaves out the
/// attributing calls between jobs.
fn timed(
    state: &State,
    refs: &References,
    args: &Args,
    traced: Option<(&Layers, &Twins)>,
) -> Tally {
    let total = Mutex::new(Tally::default());
    let windowed = Mutex::new(Vec::new());
    let done = AtomicU64::new(0);
    let busy_ns = AtomicU64::new(0);
    let window = AtomicUsize::new(0);
    let active = AtomicUsize::new(CLIENTS);
    let barrier = Barrier::new(CLIENTS + 1);
    let cap = if args.trace { MAX_TRACED_JOBS / CLIENTS as u64 } else { u64::MAX };
    let (start, rates) = std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (total, windowed, barrier) = (&total, &windowed, &barrier);
            let (done, busy_ns, window, active) = (&done, &busy_ns, &window, &active);
            scope.spawn(move || {
                let mut client = connect(&state.server);
                let mut draw = SkewedDraw::new(args.seed, c as u64, state.pool.len());
                let mut tally = Tally::default();
                let mut tagged = Vec::new();
                barrier.wait();
                let deadline = Instant::now() + args.seconds;
                while Instant::now() < deadline && tally.attempted < cap {
                    let i = draw.next_job();
                    match served_job(state, refs, &mut client, i, traced) {
                        Ok(latency) => {
                            tally.ok(latency);
                            tagged.push((window.load(Ordering::Relaxed), latency));
                            busy_ns.fetch_add((latency * 1e9) as u64, Ordering::Relaxed);
                            done.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if e.starts_with("output check") => tally.wrong(e),
                        Err(e) => tally.fail(e),
                    }
                }
                active.fetch_sub(1, Ordering::SeqCst);
                total.lock().expect("no client panics holding the tally").merge(tally);
                windowed.lock().expect("no client panics holding the tally").extend(tagged);
            });
        }
        barrier.wait();
        let start = Instant::now();
        let end = start + args.seconds;
        let mut rates = Vec::new();
        let mut last = (0, 0, start);
        loop {
            std::thread::sleep(WINDOW.min(end.saturating_duration_since(Instant::now())));
            let now = Instant::now();
            let (n, busy) = (done.load(Ordering::Relaxed), busy_ns.load(Ordering::Relaxed));
            let w = window.fetch_add(1, Ordering::Relaxed);
            if now - last.2 >= WINDOW / 2 {
                let busy_s = (busy - last.1) as f64 * 1e-9 / CLIENTS as f64;
                let rate = if busy_s > 0.0 { (n - last.0) as f64 / busy_s } else { 0.0 };
                rates.push((w, rate));
            }
            last = (n, busy, now);
            if now >= end || active.load(Ordering::SeqCst) == 0 {
                break (start, rates);
            }
        }
    });
    let mut tally = total.into_inner().expect("no client panics holding the tally");
    tally.busy_s = start.elapsed().as_secs_f64();
    let mut tagged = windowed.into_inner().expect("no client panics holding the tally");
    tagged.sort_by_key(|&(w, _)| w);
    for (w, rate) in rates {
        let from = tagged.partition_point(|t| t.0 < w);
        let to = tagged.partition_point(|t| t.0 <= w);
        let latencies: Vec<f64> = tagged[from..to].iter().map(|t| t.1).collect();
        tally.push_window(rate, &latencies);
    }
    tally
}

fn cache_note(state: &State) -> String {
    let c = state.server.queue().service().cache_stats_total();
    format!(
        "result cache since set-up: {} hits, {} misses ({:.3} hit ratio), {} evictions",
        c.hits,
        c.misses,
        c.hits as f64 / (c.hits + c.misses).max(1) as f64,
        c.evictions
    )
}

/// The end-to-end run.
pub fn run(args: &Args) -> Report {
    let (state, setup_s) = timed_setups(setup);
    let refs = references(&state);
    let tally = timed(&state, &refs, args, None);
    let mut report = Report::end_to_end(&setup_s, &tally, &refs.quality);
    report.correct &= refs.failures.is_empty();
    report.notes.push(cache_note(&state));
    report.notes.extend(refs.failures.iter().map(|f| format!("reference failure: {f}")));
    report
}

/// The serving stack set up for traced phases: the server, the
/// references, and the twin stacks brought to the server's state, with
/// the queue and cache counters of the traced phases so far.
struct Serving {
    state: State,
    refs: References,
    twins: Twins,
    rejected: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// The queue's wait percentiles at the end of the last traced phase.
    wait: Option<LatencySummary>,
}

impl Serving {
    fn new() -> Self {
        let state = setup();
        let refs = references(&state);
        let twins = Twins {
            queue: QueueService::new(fleet(), QueueConfig::default()),
            service: fleet(),
        };
        // Bring the twins to the server's state: every pool job once, in
        // warm-up order.
        for p in &state.pool {
            let job = || CompileJob::new(p.program.clone(), p.job.strategy);
            if let Ok(handle) = twins.queue.submit(Submission::new(job()).client(0)) {
                std::hint::black_box(handle.wait().ok());
            }
            std::hint::black_box(twins.service.compile_batch(vec![job()]));
        }
        Serving {
            state,
            refs,
            twins,
            rejected: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            wait: None,
        }
    }

    /// Runs one timed phase, traced into `layers` when given.
    fn phase(&mut self, args: &Args, layers: Option<&Layers>) -> Tally {
        let Some(layers) = layers else {
            return timed(&self.state, &self.refs, args, None);
        };
        let queue = self.state.server.queue();
        let (queue_before, cache_before) = (queue.stats(), queue.service().cache_stats_total());
        let mut tally = timed(&self.state, &self.refs, args, Some((layers, &self.twins)));
        let (queue_after, cache) = (queue.stats(), queue.service().cache_stats_total());
        self.rejected += queue_after.rejected - queue_before.rejected;
        self.hits += cache.hits - cache_before.hits;
        self.misses += cache.misses - cache_before.misses;
        self.evictions += cache.evictions - cache_before.evictions;
        self.wait = Some(queue_after.queue_wait(Priority::Batch));
        if !self.refs.failures.is_empty() {
            tally.wrong(format!("{} reference failures", self.refs.failures.len()));
        }
        tally
    }

    /// The per-layer metrics read from the stack's own counters, for
    /// [`Layers::finish`]; `attempted` is the traced job count.
    fn counters(&self, attempted: u64) -> Vec<(&'static str, f64, u64)> {
        let lookups = self.hits + self.misses;
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let mut extra = vec![
            ("queue.rejected", self.rejected as f64, attempted),
            ("service.cache_hit_ratio", self.hits as f64 / lookups.max(1) as f64, lookups),
            ("service.cache_evictions", self.evictions as f64, lookups),
        ];
        if let Some(wait) = &self.wait {
            extra.push(("queue.wait_us.p50", us(wait.p50), wait.count));
            extra.push(("queue.wait_us.p99", us(wait.p99), wait.count));
        }
        extra
    }
}

/// The traced run: untraced and traced phases over one set-up.
pub fn run_traced(args: &Args) -> Report {
    let layers = Layers::new();
    let mut serving = Serving::new();
    let (traced, overhead) =
        traced_phases(args, |args, traced| serving.phase(args, traced.then_some(&layers)));
    let extra = serving.counters(traced.attempted);
    layers.finish("served_mix", &traced, overhead, &extra)
}

/// One traced served phase of `args.seconds` into `layers`, for a listed
/// workload's traced run: the server, QASM-parse, queue and service
/// layers do work only on the serving path. Returns the phase's tally
/// and the stack's counters (see [`Serving::counters`]).
pub fn trace_serving(args: &Args, layers: &Layers) -> (Tally, Vec<(&'static str, f64, u64)>) {
    let mut serving = Serving::new();
    let tally = serving.phase(args, Some(layers));
    let extra = serving.counters(tally.attempted);
    (tally, extra)
}
