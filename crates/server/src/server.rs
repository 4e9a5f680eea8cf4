//! The TCP server: accept loop, per-connection reader/writer threads,
//! the completion router, and graceful shutdown.
//!
//! # Thread model
//!
//! * **Accept thread** — blocks on `TcpListener::accept`, spawns one
//!   reader thread per connection.
//! * **Reader thread** (one per connection) — decodes frames and handles
//!   requests serially, in arrival order. Sockets carry a short read
//!   timeout so readers notice the shutdown flag between frames.
//! * **Writer thread** (one per connection) — owns the write half and an
//!   mpsc channel; both the reader (direct responses) and the completion
//!   router (streamed frames) feed it, so frames never interleave
//!   mid-write.
//! * **Router thread** (one per server) — owns the queue's
//!   [`subscribe_all`](QueueService::subscribe_all) stream. Every
//!   completion releases the owning tenant's in-flight quota slot and is
//!   fanned out to that tenant's subscribers. Because it sees every
//!   resolution (success, error, deadline, cancel, shed), it is the
//!   single quota-release point.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] raises the stop flag, unblocks the accept loop
//! with a loopback connection, and joins readers (each sends a final
//! `shutdown` frame). Only then does it drop the last
//! [`QueueService`] handle — whose `Drop` **drains every admitted
//! job** — so the router forwards the final completions to subscribers
//! before its stream ends, writers flush, and everything joins. Nothing
//! admitted is ever dropped on the floor.

use crate::frame::{read_frame, write_frame};
use crate::protocol::{
    error_frame, metrics_frame, qasm_error_frame, rate_limited_frame, reply, result_frame,
    telemetry_frame, Request, MAX_WAIT_MS,
};
use crate::session::{AdmitError, SessionRegistry, Tenant, TenantConfig};
use crate::Json;
use fastsc_ir::qasm::from_qasm;
use fastsc_queue::{
    ClientId, Completions, JobHandle, JobId, JobResult, QueueService, Submission,
};
use fastsc_service::FaultInjector;
use fastsc_telemetry::metrics::counter_family;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use fastsc_core::batch::CompileJob;

/// How often blocked reads and waits re-check the shutdown flag.
const POLL_TICK: Duration = Duration::from_millis(50);

/// A subscriber registered by one `subscribe` request: completion frames
/// for `client`'s jobs go to this connection's writer, echoing `seq`.
struct Subscriber {
    client: ClientId,
    seq: u64,
    sender: mpsc::Sender<String>,
}

/// State shared between the router thread and every reader: live job
/// routes, completions that raced their registration, and subscribers.
#[derive(Default)]
struct RouterState {
    routes: HashMap<JobId, Arc<Tenant>>,
    /// A completion can arrive before the submitting reader has
    /// registered the route (instant cache hits). It parks here and the
    /// registration delivers it.
    orphans: HashMap<JobId, JobResult>,
    subscribers: Vec<Subscriber>,
}

struct ServerShared {
    stop: AtomicBool,
    registry: SessionRegistry,
    router: Mutex<RouterState>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    writers: Mutex<Vec<JoinHandle<()>>>,
    /// Client connections accepted.
    connections: AtomicU64,
    /// Frame bytes read off client sockets (see [`wire_bytes`]).
    bytes_read: AtomicU64,
    /// Frame bytes written to client sockets.
    bytes_written: AtomicU64,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The network front end over a [`QueueService`] (see the
/// [module docs](self) for the thread model).
///
/// Dropping the server shuts it down gracefully (equivalent to
/// [`shutdown`](Self::shutdown)).
pub struct Server {
    shared: Arc<ServerShared>,
    queue: Option<Arc<QueueService>>,
    accept: Option<JoinHandle<()>>,
    router: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl Server {
    /// Binds a loopback listener on an ephemeral port and starts
    /// serving `queue` to the given tenants.
    pub fn start(queue: QueueService, tenants: Vec<TenantConfig>) -> io::Result<Server> {
        Server::start_with_faults(queue, tenants, None)
    }

    /// [`start`](Self::start) with a wire-level [`FaultInjector`]: each
    /// accepted connection consults the injector's `DropConnection`
    /// rules, and a firing rule closes the socket before a single frame
    /// is served — exactly what a flaky load balancer or mid-handshake
    /// network partition looks like to a client. Compile-path faults on
    /// the same injector keep working through the queue's own injector;
    /// this hook only covers the accept path.
    pub fn start_with_faults(
        queue: QueueService,
        tenants: Vec<TenantConfig>,
        faults: Option<Arc<FaultInjector>>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let queue = Arc::new(queue);
        let completions = queue.subscribe_all();
        let shared = Arc::new(ServerShared {
            stop: AtomicBool::new(false),
            registry: SessionRegistry::new(tenants),
            router: Mutex::new(RouterState::default()),
            readers: Mutex::new(Vec::new()),
            writers: Mutex::new(Vec::new()),
            connections: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        });
        let router = {
            let shared = Arc::clone(&shared);
            // Weak, not strong: shutdown relies on dropping the last
            // queue handle to drain, so the router must not keep one
            // alive. It upgrades briefly per completion to pull traces.
            let queue = Arc::downgrade(&queue);
            thread::Builder::new()
                .name("fastsc-server-router".into())
                .spawn(move || router_loop(completions, shared, queue))?
        };
        let accept = {
            let shared = Arc::clone(&shared);
            let queue = Arc::clone(&queue);
            thread::Builder::new()
                .name("fastsc-server-accept".into())
                .spawn(move || accept_loop(listener, shared, queue, faults))?
        };
        Ok(Server {
            shared,
            queue: Some(queue),
            accept: Some(accept),
            router: Some(router),
            addr,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The queue behind the server (e.g. to pause the dispatcher in
    /// tests or read [`stats`](QueueService::stats)).
    ///
    /// # Panics
    ///
    /// Panics after [`shutdown`](Self::shutdown).
    pub fn queue(&self) -> &QueueService {
        self.queue.as_deref().expect("server has shut down")
    }

    /// Graceful shutdown (idempotent; also runs on drop): stop
    /// accepting, close connections after a final `shutdown` frame,
    /// drain every admitted job, stream the resulting completions to
    /// subscribers, then join every thread.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop; the throwaway connection is served a
        // `shutdown` frame like any other.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // All spawns are done once accept has joined; now join readers
        // (each notices the flag within one poll tick).
        for h in std::mem::take(&mut *lock(&self.shared.readers)) {
            let _ = h.join();
        }
        // Last queue handle: Drop drains everything admitted, streaming
        // completions through the router to any subscriber writers that
        // are still flushing.
        drop(self.queue.take());
        if let Some(h) = self.router.take() {
            let _ = h.join();
        }
        // Router gone → every subscriber sender dropped → writers drain
        // their channels and exit.
        for h in std::mem::take(&mut *lock(&self.shared.writers)) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<ServerShared>,
    queue: Arc<QueueService>,
    faults: Option<Arc<FaultInjector>>,
) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // A firing DropConnection rule severs the connection before a
        // single frame: the client sees a clean remote hang-up.
        if faults.as_ref().is_some_and(|injector| injector.on_connection()) {
            drop(stream);
            continue;
        }
        shared.connections.fetch_add(1, Ordering::Relaxed);
        let conn_shared = Arc::clone(&shared);
        let conn_queue = Arc::clone(&queue);
        let reader = thread::Builder::new()
            .name("fastsc-server-conn".into())
            .spawn(move || serve_connection(stream, conn_shared, conn_queue));
        if let Ok(handle) = reader {
            lock(&shared.readers).push(handle);
        }
    }
}

fn router_loop(completions: Completions, shared: Arc<ServerShared>, queue: Weak<QueueService>) {
    for (id, result) in completions {
        let mut state = lock(&shared.router);
        match state.routes.remove(&id) {
            Some(tenant) => {
                let queue = queue.upgrade();
                deliver(&mut state, &tenant, id, &result, queue.as_deref());
            }
            // Raced the submitting reader; it will find the result here.
            None => {
                state.orphans.insert(id, result);
            }
        }
    }
    // The stream has ended (shutdown, fully drained). Drop the
    // subscriber senders, or the writer threads they feed would never
    // see their channels disconnect and could never be joined.
    lock(&shared.router).subscribers.clear();
}

/// Releases the tenant's quota slot and fans the completion out to its
/// subscribers (pruning any whose connection has gone away). The job's
/// span tree, if one was recorded, is taken (once) only when a
/// subscriber will actually receive it — otherwise it stays parked for
/// the submitter's `poll`/`wait`.
fn deliver(
    state: &mut RouterState,
    tenant: &Tenant,
    id: JobId,
    result: &JobResult,
    queue: Option<&QueueService>,
) {
    tenant.release();
    let client = tenant.config.client;
    let trace = if state.subscribers.iter().any(|s| s.client == client) {
        queue.and_then(|q| q.take_trace(id))
    } else {
        None
    };
    state.subscribers.retain(|s| {
        if s.client != client {
            return true;
        }
        let frame =
            result_frame("completion", s.seq, id.as_u64(), result, trace.as_ref()).encode();
        s.sender.send(frame).is_ok()
    });
}

/// Bytes a framed payload occupies on the wire (4-byte length prefix
/// included) — what the `fastsc_server_bytes_total` counters count.
fn wire_bytes(payload: &str) -> u64 {
    payload.len() as u64 + 4
}

fn writer_loop(mut stream: TcpStream, frames: mpsc::Receiver<String>, shared: &ServerShared) {
    while let Ok(frame) = frames.recv() {
        if write_frame(&mut stream, &frame).is_err() {
            break;
        }
        shared.bytes_written.fetch_add(wire_bytes(&frame), Ordering::Relaxed);
    }
}

/// One connection's reader-side state.
struct Connection {
    shared: Arc<ServerShared>,
    queue: Arc<QueueService>,
    out: mpsc::Sender<String>,
    tenant: Option<Arc<Tenant>>,
    /// Handles for jobs submitted on this connection, keyed by wire job
    /// id. A handle leaves the map when its terminal result has been
    /// delivered through `poll`/`wait`.
    pending: HashMap<u64, JobHandle>,
}

fn serve_connection(stream: TcpStream, shared: Arc<ServerShared>, queue: Arc<QueueService>) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_TICK)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else { return };
    let (out, frames) = mpsc::channel::<String>();
    let writer_shared = Arc::clone(&shared);
    let writer = thread::Builder::new()
        .name("fastsc-server-writer".into())
        .spawn(move || writer_loop(write_half, frames, &writer_shared));
    match writer {
        Ok(handle) => lock(&shared.writers).push(handle),
        Err(_) => return,
    }
    let mut conn = Connection {
        shared: Arc::clone(&shared),
        queue,
        out,
        tenant: None,
        pending: HashMap::new(),
    };
    conn.run(stream);
}

impl Connection {
    /// Queues one frame for the writer. `false` when the connection is
    /// already dead.
    fn send(&self, frame: Json) -> bool {
        self.out.send(frame.encode()).is_ok()
    }

    fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    fn run(&mut self, mut stream: TcpStream) {
        loop {
            match read_frame(&mut stream, &self.shared.stop) {
                // Peer closed, or shutdown while idle.
                Ok(None) => break,
                Ok(Some(text)) => {
                    self.shared.bytes_read.fetch_add(wire_bytes(&text), Ordering::Relaxed);
                    match Json::parse(&text) {
                        // An undecodable frame means the peer is broken (or
                        // hostile); explain once, then hang up — there is no
                        // way to resynchronize trust in the stream.
                        Err(e) => {
                            self.send(error_frame(0, "bad_frame", &e.to_string()));
                            break;
                        }
                        Ok(frame) => match Request::from_json(&frame) {
                            Err((seq, e)) => {
                                // A well-formed but invalid request is the
                                // client's bug, not the stream's: answer and
                                // keep serving.
                                if !self.send(error_frame(seq, e.code, &e.message)) {
                                    break;
                                }
                            }
                            Ok((seq, request)) => {
                                if !self.handle(seq, request) {
                                    break;
                                }
                            }
                        },
                    }
                }
                // Framing is unrecoverable (truncation, oversize, bad
                // UTF-8): hang up.
                Err(e) => {
                    self.send(error_frame(0, "bad_frame", &e.to_string()));
                    break;
                }
            }
        }
        if self.stopping() {
            self.send(Json::obj(vec![("type", Json::str("shutdown"))]));
        }
        // Dropping `pending` abandons undelivered handles; their jobs
        // still drain and still stream to subscribers via the router.
    }

    /// Handles one request. `false` closes the connection.
    fn handle(&mut self, seq: u64, request: Request) -> bool {
        match request {
            Request::Ping => self.send(reply("pong", seq, vec![])),
            Request::Hello { token } => self.hello(seq, &token),
            _ if self.tenant.is_none() => {
                // Everything else requires a session; tell the client
                // and hang up (it skipped the handshake).
                self.send(error_frame(seq, "auth", "authenticate with a hello frame first"));
                false
            }
            Request::Submit { qasm, strategy, priority, deadline_ms, trace } => {
                self.submit(seq, &qasm, strategy, priority, deadline_ms, trace)
            }
            Request::Poll { job } => self.poll(seq, job),
            Request::Wait { job, timeout_ms } => self.wait(seq, job, timeout_ms),
            Request::Cancel { job } => self.cancel(seq, job),
            Request::Subscribe => self.subscribe(seq),
            Request::Telemetry { count, interval_ms } => {
                self.telemetry(seq, count, interval_ms)
            }
            Request::Metrics => {
                // This server's queue, then its compile service, then the
                // server itself: each renders only its own families.
                let mut body = self.queue.stats().to_prometheus();
                body.push_str(&self.queue.service().to_prometheus());
                let count = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
                counter_family(
                    &mut body,
                    "fastsc_server_bytes_total",
                    "Frame bytes moved over client sockets.",
                    &[
                        ("{direction=\"read\"}", count(&self.shared.bytes_read)),
                        ("{direction=\"written\"}", count(&self.shared.bytes_written)),
                    ],
                );
                counter_family(
                    &mut body,
                    "fastsc_server_connections_total",
                    "Client connections accepted.",
                    &[("", count(&self.shared.connections))],
                );
                self.send(metrics_frame(seq, &body))
            }
            Request::CacheExport => {
                let bundle = self.queue.service().export_artifacts();
                self.send(crate::protocol::cache_export_frame(seq, &bundle))
            }
            Request::CacheImport { bundle } => {
                let report = self.queue.service().import_artifacts(&bundle);
                self.send(crate::protocol::cache_import_frame(seq, &report))
            }
        }
    }

    fn hello(&mut self, seq: u64, token: &str) -> bool {
        if self.tenant.is_some() {
            return self.send(error_frame(
                seq,
                "bad_request",
                "connection already authenticated",
            ));
        }
        match self.shared.registry.authenticate(token) {
            Some(tenant) => {
                let frame = reply(
                    "hello_ok",
                    seq,
                    vec![
                        ("tenant", Json::str(tenant.config.name.clone())),
                        ("client", Json::num(tenant.config.client as f64)),
                    ],
                );
                self.tenant = Some(tenant);
                self.send(frame)
            }
            None => {
                // A bad credential closes the connection: no free
                // guessing on an established stream.
                self.send(error_frame(seq, "auth", "unknown session token"));
                false
            }
        }
    }

    fn submit(
        &mut self,
        seq: u64,
        qasm: &str,
        strategy: fastsc_core::Strategy,
        priority: fastsc_queue::Priority,
        deadline_ms: Option<u64>,
        trace: bool,
    ) -> bool {
        let tenant = Arc::clone(self.tenant.as_ref().expect("submit requires auth"));
        // Rate limit + quota first: even a parse failure costs a rate
        // token, so garbage cannot be spammed for free.
        match tenant.admit() {
            Ok(()) => {}
            Err(AdmitError::RateLimited(wait)) => {
                return self.send(rate_limited_frame(seq, wait.as_millis() as u64));
            }
            Err(AdmitError::QuotaExceeded { max_inflight }) => {
                return self.send(error_frame(
                    seq,
                    "quota",
                    &format!("tenant already has {max_inflight} jobs in flight"),
                ));
            }
        }
        // The tentpole's parsing path: QASM is parsed here, in the
        // submission path, and a typed QasmError becomes a structured
        // error frame with line/column — the connection stays up.
        let circuit = match from_qasm(qasm) {
            Ok(circuit) => circuit,
            Err(e) => {
                tenant.release();
                return self.send(qasm_error_frame(seq, &e));
            }
        };
        let mut submission = Submission::new(CompileJob::new(circuit, strategy))
            .client(tenant.config.client)
            .priority(priority);
        if trace {
            submission = submission.traced();
        }
        if let Some(ms) = deadline_ms {
            submission = submission.deadline_in(Duration::from_millis(ms));
        }
        let handle = match self.queue.submit(submission) {
            Ok(handle) => handle,
            Err(e) => {
                tenant.release();
                return self.send(crate::protocol::submit_error_frame(seq, &e));
            }
        };
        let id = handle.id();
        // Register the route — unless the completion got here first, in
        // which case deliver it now (quota release + subscriber fan-out).
        {
            let mut state = lock(&self.shared.router);
            if let Some(result) = state.orphans.remove(&id) {
                deliver(&mut state, &tenant, id, &result, Some(&self.queue));
            } else {
                state.routes.insert(id, tenant);
            }
        }
        self.pending.insert(id.as_u64(), handle);
        self.send(reply("submitted", seq, vec![("job", Json::num(id.as_u64() as f64))]))
    }

    fn unknown_job(&self, seq: u64, job: u64) -> bool {
        self.send(error_frame(
            seq,
            "unknown_job",
            &format!("job {job} was not submitted on this connection (or already delivered)"),
        ))
    }

    fn poll(&mut self, seq: u64, job: u64) -> bool {
        let Some(handle) = self.pending.get(&job) else {
            return self.unknown_job(seq, job);
        };
        let result = handle.poll();
        self.answer(seq, job, result)
    }

    fn wait(&mut self, seq: u64, job: u64, timeout_ms: Option<u64>) -> bool {
        let Some(handle) = self.pending.get(&job) else {
            return self.unknown_job(seq, job);
        };
        let until = Instant::now() + Duration::from_millis(timeout_ms.unwrap_or(MAX_WAIT_MS));
        // Wait in short slices so shutdown interrupts a long wait.
        let result = loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() || self.stopping() {
                break None;
            }
            if let Some(result) = handle.wait_timeout(left.min(POLL_TICK)) {
                break Some(result);
            }
        };
        self.answer(seq, job, result)
    }

    /// Answers `poll`/`wait`: `pending`, or the `result` frame (with the
    /// job's trace, when it has one) that retires the handle.
    fn answer(&mut self, seq: u64, job: u64, result: Option<JobResult>) -> bool {
        let Some(result) = result else {
            return self.send(reply("pending", seq, vec![("job", Json::num(job as f64))]));
        };
        let handle = self.pending.remove(&job).expect("answered jobs are pending");
        let trace = self.queue.take_trace(handle.id());
        self.send(result_frame("result", seq, job, &result, trace.as_ref()))
    }

    fn cancel(&mut self, seq: u64, job: u64) -> bool {
        let Some(handle) = self.pending.get(&job) else {
            return self.unknown_job(seq, job);
        };
        // The handle stays pending: the Cancelled (or already-won) result
        // is still delivered through poll/wait, and the router still
        // releases the quota slot.
        let cancelled = handle.cancel();
        self.send(reply(
            "cancelled",
            seq,
            vec![("job", Json::num(job as f64)), ("ok", Json::Bool(cancelled))],
        ))
    }

    fn subscribe(&mut self, seq: u64) -> bool {
        let tenant = self.tenant.as_ref().expect("subscribe requires auth");
        lock(&self.shared.router).subscribers.push(Subscriber {
            client: tenant.config.client,
            seq,
            sender: self.out.clone(),
        });
        self.send(reply("subscribed", seq, vec![]))
    }

    fn telemetry(&mut self, seq: u64, count: u64, interval_ms: u64) -> bool {
        let mut feed = self.queue.telemetry_feed();
        for i in 0..count {
            if !self.send(telemetry_frame(seq, &feed.poll())) {
                return false;
            }
            if i + 1 < count && !self.sleep_unless_stopping(Duration::from_millis(interval_ms))
            {
                break;
            }
        }
        self.send(reply("telemetry_end", seq, vec![]))
    }

    /// Sleeps in poll ticks; `false` when shutdown interrupted it.
    fn sleep_unless_stopping(&self, total: Duration) -> bool {
        let until = Instant::now() + total;
        loop {
            if self.stopping() {
                return false;
            }
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return true;
            }
            thread::sleep(left.min(POLL_TICK));
        }
    }
}
