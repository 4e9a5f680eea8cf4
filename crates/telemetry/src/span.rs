//! Per-job span trees: a [`Tracer`] per traced job, RAII
//! [`SpanGuard`]s for in-scope phases, retroactive recording for
//! cross-thread intervals (queue wait is only known at dispatch), and
//! a thread-local engine context so compile-internal phases attach to
//! the right job without the engine ever seeing a tracer handle.
//!
//! Timestamps are nanoseconds relative to the tracer's epoch (its
//! creation instant), taken from the monotonic clock — a finished
//! [`SpanTree`] is therefore self-consistent even across threads.
//! Recording never blocks compilation semantics: spans are observations
//! only, and the whole layer is behind one relaxed-atomic branch
//! ([`tracing_active`]) when no tracer is live.

use crate::json::Json;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Identifier of one span within its [`Tracer`] (dense, in allocation
/// order; a parent's id is always smaller than its children's).
pub type SpanId = u32;

/// One typed span-attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A string attribute (e.g. a policy or strategy name).
    Str(String),
    /// An unsigned integer attribute (e.g. a shard index or wave count).
    U64(u64),
    /// A float attribute (e.g. a backoff in fractional milliseconds).
    F64(f64),
    /// A boolean attribute (e.g. `cache_hit`, `memo_hit`).
    Bool(bool),
}

impl AttrValue {
    /// The value as `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            AttrValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `bool`, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttrValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str`, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(v) => Some(v),
            _ => None,
        }
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

/// One closed span as recorded into the tracer, before tree assembly.
#[derive(Debug, Clone)]
struct SpanRecord {
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// Live tracers in the process. The **zero-cost-off** gate: every
/// recording entry point first branches on this relaxed load, so a
/// process that never traces pays one predictable-not-taken branch.
static ACTIVE_TRACERS: AtomicUsize = AtomicUsize::new(0);

/// Whether any [`Tracer`] is currently live anywhere in the process
/// (relaxed load; the fast-path branch recording code gates on).
pub fn tracing_active() -> bool {
    ACTIVE_TRACERS.load(Ordering::Relaxed) != 0
}

/// The process-global default for whether an individual job gets
/// traced when its submitter did not explicitly ask (see
/// [`set_trace_mode`] / [`should_trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Only explicitly requested jobs are traced (the default).
    Off,
    /// Every job is traced.
    On,
    /// Every `n`-th job is traced — decided by a deterministic atomic
    /// counter, **never** a clock or RNG, so sampling can't perturb
    /// compile determinism. `Sampled(0)` and `Sampled(1)` trace every
    /// job.
    Sampled(u32),
}

const MODE_OFF: u32 = 0;
const MODE_ON: u32 = 1;
const MODE_SAMPLED: u32 = 2;

static TRACE_MODE: AtomicU32 = AtomicU32::new(MODE_OFF);
static TRACE_EVERY: AtomicU32 = AtomicU32::new(0);
static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Sets the process-global [`TraceMode`]. Takes effect for subsequent
/// [`should_trace`] decisions; jobs that explicitly requested a trace
/// are traced regardless.
pub fn set_trace_mode(mode: TraceMode) {
    match mode {
        TraceMode::Off => TRACE_MODE.store(MODE_OFF, Ordering::Relaxed),
        TraceMode::On => TRACE_MODE.store(MODE_ON, Ordering::Relaxed),
        TraceMode::Sampled(n) => {
            TRACE_EVERY.store(n, Ordering::Relaxed);
            TRACE_MODE.store(MODE_SAMPLED, Ordering::Relaxed);
        }
    }
}

/// The current process-global [`TraceMode`].
pub fn trace_mode() -> TraceMode {
    match TRACE_MODE.load(Ordering::Relaxed) {
        MODE_ON => TraceMode::On,
        MODE_SAMPLED => TraceMode::Sampled(TRACE_EVERY.load(Ordering::Relaxed)),
        _ => TraceMode::Off,
    }
}

/// Decides whether the next job should be traced under the global
/// [`TraceMode`]. `Sampled(n)` advances a shared counter and traces
/// every `n`-th call — deterministic with respect to the submission
/// stream, so a replayed stream samples the same jobs.
pub fn should_trace() -> bool {
    match TRACE_MODE.load(Ordering::Relaxed) {
        MODE_ON => true,
        MODE_SAMPLED => {
            let every = u64::from(TRACE_EVERY.load(Ordering::Relaxed).max(1));
            TRACE_COUNTER.fetch_add(1, Ordering::Relaxed).is_multiple_of(every)
        }
        _ => false,
    }
}

#[derive(Debug)]
struct TracerInner {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Drop for TracerInner {
    fn drop(&mut self) {
        ACTIVE_TRACERS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Records one job's span tree. Cheap to clone (an [`Arc`]); every
/// clone feeds the same tree, so the queue, the router, and the engine
/// (via [`install_engine_trace`]) can all contribute spans to one job.
///
/// ```
/// use fastsc_telemetry::span::Tracer;
///
/// let tracer = Tracer::new();
/// let mut job = tracer.span("job", None);
/// job.attr("shard", 2usize);
/// let compile = tracer.span("compile", Some(job.id()));
/// drop(compile);
/// drop(job);
/// let tree = tracer.finish();
/// let root = tree.root().unwrap();
/// assert_eq!(root.name, "job");
/// assert_eq!(root.children[0].name, "compile");
/// ```
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A fresh tracer whose epoch (timestamp zero) is now.
    pub fn new() -> Self {
        ACTIVE_TRACERS.fetch_add(1, Ordering::Relaxed);
        Tracer {
            inner: Arc::new(TracerInner {
                epoch: Instant::now(),
                next_id: AtomicU32::new(0),
                // A typical job records ~a dozen spans; starting with
                // room for them keeps the recording path realloc-free.
                spans: Mutex::new(Vec::with_capacity(16)),
            }),
        }
    }

    /// The tracer's epoch: the instant all span timestamps are relative
    /// to.
    pub fn epoch(&self) -> Instant {
        self.inner.epoch
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        let d = t.checked_duration_since(self.inner.epoch).unwrap_or(Duration::ZERO);
        u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
    }

    fn alloc_id(&self) -> SpanId {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a closed span, clamping its end to its start.
    fn close(
        &self,
        id: SpanId,
        parent: Option<SpanId>,
        name: &'static str,
        start: Instant,
        end: Instant,
        attrs: Vec<(&'static str, AttrValue)>,
    ) {
        let start_ns = self.ns_since_epoch(start);
        let end_ns = self.ns_since_epoch(end).max(start_ns);
        let record = SpanRecord { id, parent, name, start_ns, end_ns, attrs };
        self.inner.spans.lock().unwrap_or_else(PoisonError::into_inner).push(record);
    }

    /// Opens a span that closes (and records itself) when the returned
    /// guard drops. `parent` is `None` for the root.
    pub fn span(&self, name: &'static str, parent: Option<SpanId>) -> SpanGuard {
        SpanGuard {
            tracer: self.clone(),
            id: self.alloc_id(),
            parent,
            name,
            start: Instant::now(),
            attrs: Vec::new(),
        }
    }

    /// Records a span retroactively from explicit instants — for
    /// intervals observed after the fact, like queue wait (known only
    /// when the dispatcher drains the job) or backoff sleeps. Instants
    /// before the epoch clamp to 0. Returns the new span's id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> SpanId {
        let id = self.alloc_id();
        self.close(id, parent, name, start, end, attrs);
        id
    }

    /// Assembles everything recorded so far into a [`SpanTree`] and
    /// clears the buffer. Spans whose guard is still open at this point
    /// are absent from the tree (their records don't exist yet).
    pub fn finish(&self) -> SpanTree {
        let records = std::mem::take(
            &mut *self.inner.spans.lock().unwrap_or_else(PoisonError::into_inner),
        );
        build_tree(records)
    }
}

/// A tracer plus the span new work should attach under — the handle a
/// job carries across layers (queue → router → engine) so each layer
/// can add children without knowing the tree above it.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    /// The job's tracer.
    pub tracer: Tracer,
    /// The span id children should attach under.
    pub parent: SpanId,
}

impl TraceHandle {
    /// A handle attaching under `parent`.
    pub fn new(tracer: Tracer, parent: SpanId) -> Self {
        TraceHandle { tracer, parent }
    }

    /// Opens a child span under this handle's parent.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.tracer.span(name, Some(self.parent))
    }

    /// A handle for children of `span` (typically one of this handle's
    /// own children).
    pub fn under(&self, span: &SpanGuard) -> TraceHandle {
        TraceHandle { tracer: self.tracer.clone(), parent: span.id() }
    }

    /// Installs this handle as the current thread's engine trace
    /// context (see [`install_engine_trace`]).
    pub fn install(&self) -> EngineTraceGuard {
        install_engine_trace(&self.tracer, self.parent)
    }
}

/// An open span: closes and records itself on drop. Obtained from
/// [`Tracer::span`].
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Tracer,
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start: Instant,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanGuard {
    /// The span's id — pass as `parent` to create children.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Attaches a typed attribute.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        self.attrs.push((key, value.into()));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let attrs = std::mem::take(&mut self.attrs);
        self.tracer.close(self.id, self.parent, self.name, self.start, Instant::now(), attrs);
    }
}

/// One node of a finished span tree: a named, attributed interval with
/// properly nested children.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// The span's name (e.g. `"compile"`, `"smt"`). Names come from a
    /// fixed vocabulary, so they stay `&'static str` end to end — tree
    /// assembly allocates nothing per name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch (`>= start_ns`).
    pub end_ns: u64,
    /// Typed attributes, in attachment order (static keys, typed
    /// values).
    pub attrs: Vec<(&'static str, AttrValue)>,
    /// Child spans, ordered by start time.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }

    /// The first attribute named `key`, if any.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Depth-first search for the first descendant (or self) named
    /// `name`.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Total number of spans in this subtree, including self.
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(SpanNode::span_count).sum::<usize>()
    }
}

/// A finished, assembled span tree (see [`Tracer::finish`]). A
/// well-formed job trace has exactly one root.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanTree {
    /// Root spans (spans with no recorded parent), ordered by start
    /// time.
    pub roots: Vec<SpanNode>,
}

impl SpanTree {
    /// The single root, when the tree has exactly one (the well-formed
    /// case); the first root otherwise.
    pub fn root(&self) -> Option<&SpanNode> {
        self.roots.first()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Total number of spans across all roots.
    pub fn span_count(&self) -> usize {
        self.roots.iter().map(SpanNode::span_count).sum()
    }

    /// The tree as nested wire JSON: each node is
    /// `{name, start_ns, dur_ns, attrs?, children?}` with timestamps in
    /// nanoseconds since the trace epoch. The well-formed (single-root)
    /// case serializes the root directly; a degenerate multi-root tree
    /// serializes as `{roots: [...]}` so nothing is silently dropped.
    pub fn to_json(&self) -> Json {
        match self.roots.as_slice() {
            [root] => root.to_json(),
            roots => Json::obj(vec![(
                "roots",
                Json::Arr(roots.iter().map(SpanNode::to_json).collect()),
            )]),
        }
    }

    /// Renders the tree as Chrome `trace_event` JSON (complete `"X"`
    /// events, timestamps in fractional microseconds) — load the
    /// string as a file in Perfetto / `chrome://tracing` to see the
    /// job's flame chart.
    pub fn to_chrome_trace(&self) -> String {
        let mut events = Vec::with_capacity(self.span_count());
        for root in &self.roots {
            root.chrome_events(&mut events);
        }
        Json::obj(vec![("traceEvents", Json::Arr(events))]).encode()
    }
}

impl SpanNode {
    fn attrs_json(&self) -> Option<Json> {
        (!self.attrs.is_empty()).then(|| {
            Json::Obj(
                self.attrs.iter().map(|(key, value)| (key.to_string(), value.into())).collect(),
            )
        })
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name".to_string(), Json::str(self.name)),
            ("start_ns".to_string(), Json::num(self.start_ns as f64)),
            ("dur_ns".to_string(), Json::num((self.end_ns - self.start_ns) as f64)),
        ];
        if let Some(attrs) = self.attrs_json() {
            pairs.push(("attrs".to_string(), attrs));
        }
        if !self.children.is_empty() {
            pairs.push((
                "children".to_string(),
                Json::Arr(self.children.iter().map(SpanNode::to_json).collect()),
            ));
        }
        Json::Obj(pairs)
    }

    /// Appends this subtree's complete events in pre-order.
    fn chrome_events(&self, events: &mut Vec<Json>) {
        let mut event = vec![
            ("name", Json::str(self.name)),
            ("ph", Json::str("X")),
            ("pid", Json::num(1.0)),
            ("tid", Json::num(1.0)),
            ("ts", Json::num(self.start_ns as f64 / 1_000.0)),
            ("dur", Json::num((self.end_ns - self.start_ns) as f64 / 1_000.0)),
        ];
        if let Some(args) = self.attrs_json() {
            event.push(("args", args));
        }
        events.push(Json::obj(event));
        for child in &self.children {
            child.chrome_events(events);
        }
    }
}

/// The one attribute mapping both exports share. JSON has no NaN or
/// infinity, so a non-finite `F64` becomes `null`; a `U64` travels as
/// a JSON number, exact below 2^53 (see [`crate::json`]).
impl From<&AttrValue> for Json {
    fn from(value: &AttrValue) -> Json {
        match value {
            AttrValue::Str(s) => Json::str(s.clone()),
            AttrValue::U64(v) => Json::num(*v as f64),
            AttrValue::F64(v) if v.is_finite() => Json::num(*v),
            AttrValue::F64(_) => Json::Null,
            AttrValue::Bool(b) => Json::Bool(*b),
        }
    }
}

/// Assembles flat records into nested nodes. Parents always carry
/// smaller ids than their children (ids are allocated at open, and a
/// child needs its parent's id to exist), so one reverse pass attaches
/// every subtree; a record pointing at an unknown or not-smaller
/// parent id becomes a root rather than being dropped.
fn build_tree(mut records: Vec<SpanRecord>) -> SpanTree {
    records.sort_by_key(|r| r.id);
    // Ids are sorted, so a Vec + binary search beats a HashMap here:
    // no hashing, no per-tree table allocation.
    let ids: Vec<SpanId> = records.iter().map(|r| r.id).collect();
    let parents: Vec<Option<usize>> = records
        .iter()
        .enumerate()
        .map(|(i, r)| match r.parent.and_then(|p| ids.binary_search(&p).ok()) {
            Some(p) if p < i => Some(p),
            _ => None,
        })
        .collect();
    let mut nodes: Vec<Option<SpanNode>> = records
        .into_iter()
        .map(|r| {
            Some(SpanNode {
                name: r.name,
                start_ns: r.start_ns,
                end_ns: r.end_ns,
                attrs: r.attrs,
                children: Vec::new(),
            })
        })
        .collect();
    // Children always sit at larger indices than their parent, so a
    // single reverse pass sees every node after all of its children
    // have been attached: sort them, then hand the finished subtree up.
    let mut roots: Vec<SpanNode> = Vec::new();
    for i in (0..nodes.len()).rev() {
        let mut node = nodes[i].take().expect("each node taken once");
        node.children.sort_by_key(|k| k.start_ns);
        match parents[i] {
            Some(p) => nodes[p].as_mut().expect("parent not yet taken").children.push(node),
            None => roots.push(node),
        }
    }
    roots.sort_by_key(|r| r.start_ns);
    SpanTree { roots }
}

// ---------------------------------------------------------------------
// Thread-local engine context: compile-internal phases.
// ---------------------------------------------------------------------

#[derive(Debug)]
struct LocalTrace {
    tracer: Tracer,
    /// Open phase chain; the bottom entry is the installed parent span.
    stack: Vec<SpanId>,
}

thread_local! {
    static LOCAL: RefCell<Option<LocalTrace>> = const { RefCell::new(None) };
}

/// Installs `tracer` as the current thread's engine trace context:
/// until the returned guard drops, [`phase`] spans on this thread
/// record into `tracer` under `parent`. Installations nest (the guard
/// restores the previous context), and the context is thread-local —
/// work fanned out to other threads (e.g. partition regions on the
/// rayon pool) intentionally records nothing.
pub fn install_engine_trace(tracer: &Tracer, parent: SpanId) -> EngineTraceGuard {
    let prev = LOCAL.with(|l| {
        l.borrow_mut().replace(LocalTrace { tracer: tracer.clone(), stack: vec![parent] })
    });
    EngineTraceGuard { prev }
}

/// Uninstalls the engine trace context installed by
/// [`install_engine_trace`] when dropped, restoring the previous one.
#[derive(Debug)]
pub struct EngineTraceGuard {
    prev: Option<LocalTrace>,
}

impl Drop for EngineTraceGuard {
    fn drop(&mut self) {
        LOCAL.with(|l| *l.borrow_mut() = self.prev.take());
    }
}

/// Opens an engine phase span under the current thread's installed
/// trace context (see [`install_engine_trace`]). When no tracer is
/// live anywhere ([`tracing_active`] false) this is one relaxed-atomic
/// branch; when no context is installed on this thread it is a cheap
/// thread-local check. Phases nest: a `phase` opened while another is
/// open becomes its child.
pub fn phase(name: &'static str) -> PhaseGuard {
    if !tracing_active() {
        return PhaseGuard(None);
    }
    LOCAL.with(|l| {
        let mut borrow = l.borrow_mut();
        let Some(ctx) = borrow.as_mut() else {
            return PhaseGuard(None);
        };
        let span = ctx.tracer.span(name, ctx.stack.last().copied());
        ctx.stack.push(span.id());
        PhaseGuard(Some(span))
    })
}

/// An open engine phase (see [`phase`]); records itself on drop, or
/// does nothing at all when tracing was off at open.
#[derive(Debug)]
pub struct PhaseGuard(Option<SpanGuard>);

impl PhaseGuard {
    /// Whether this phase is actually recording — gate any non-trivial
    /// attribute computation on this.
    pub fn active(&self) -> bool {
        self.0.is_some()
    }

    /// Attaches a typed attribute (no-op when inactive).
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(span) = &mut self.0 {
            span.attr(key, value);
        }
    }
}

impl Drop for PhaseGuard {
    /// Pops the phase off the thread's open chain; the inner span then
    /// records itself as it drops.
    fn drop(&mut self) {
        let Some(span) = &self.0 else { return };
        LOCAL.with(|l| {
            if let Some(ctx) = l.borrow_mut().as_mut() {
                if ctx.stack.last() == Some(&span.id) {
                    ctx.stack.pop();
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_build_a_nested_tree() {
        let tracer = Tracer::new();
        let mut job = tracer.span("job", None);
        job.attr("shard", 3usize);
        let compile = tracer.span("compile", Some(job.id()));
        let smt = tracer.span("smt", Some(compile.id()));
        drop(smt);
        let coloring = tracer.span("coloring", Some(compile.id()));
        drop(coloring);
        drop(compile);
        drop(job);
        let tree = tracer.finish();
        assert_eq!(tree.roots.len(), 1);
        let root = tree.root().unwrap();
        assert_eq!(root.name, "job");
        assert_eq!(root.attr("shard").and_then(AttrValue::as_u64), Some(3));
        assert_eq!(root.children.len(), 1);
        let compile = &root.children[0];
        assert_eq!(compile.name, "compile");
        let names: Vec<&str> = compile.children.iter().map(|c| c.name).collect();
        assert_eq!(names, ["smt", "coloring"]);
        assert_eq!(tree.span_count(), 4);
    }

    #[test]
    fn children_are_contained_and_ordered() {
        let tracer = Tracer::new();
        let job = tracer.span("job", None);
        let a = tracer.span("a", Some(job.id()));
        drop(a);
        let b = tracer.span("b", Some(job.id()));
        drop(b);
        drop(job);
        let tree = tracer.finish();
        let root = tree.root().unwrap();
        assert_eq!(root.children.len(), 2);
        let (a, b) = (&root.children[0], &root.children[1]);
        assert_eq!((a.name, b.name), ("a", "b"));
        // Nested and non-overlapping.
        assert!(root.start_ns <= a.start_ns && a.end_ns <= root.end_ns);
        assert!(a.end_ns <= b.start_ns && b.end_ns <= root.end_ns);
    }

    #[test]
    fn retroactive_record_clamps_to_epoch() {
        let before = Instant::now();
        let tracer = Tracer::new();
        let end = Instant::now();
        let id = tracer.record("queue_wait", None, before, end, Vec::new());
        assert_eq!(id, 0);
        let tree = tracer.finish();
        assert_eq!(tree.root().unwrap().start_ns, 0);
    }

    #[test]
    fn active_count_tracks_tracer_lifetime() {
        let baseline = tracing_active();
        let tracer = Tracer::new();
        assert!(tracing_active());
        let clone = tracer.clone();
        drop(tracer);
        assert!(tracing_active(), "a live clone keeps the process active");
        drop(clone);
        // Other tests may hold tracers concurrently; only assert the
        // no-other-tracer case.
        if !baseline {
            assert!(!tracing_active() || ACTIVE_TRACERS.load(Ordering::Relaxed) > 0);
        }
    }

    #[test]
    fn phase_without_context_is_inert() {
        let mut p = phase("compile");
        assert!(!p.active());
        p.attr("ignored", 1u64);
        drop(p);
    }

    #[test]
    fn phases_nest_under_installed_context() {
        let tracer = Tracer::new();
        let job = tracer.span("job", None);
        {
            let _ctx = install_engine_trace(&tracer, job.id());
            let mut compile = phase("compile");
            assert!(compile.active());
            compile.attr("strategy", "color_dynamic");
            let smt = phase("smt");
            drop(smt);
            drop(compile);
        }
        assert!(!phase("after").active(), "uninstall restores the inert state");
        drop(job);
        let tree = tracer.finish();
        let root = tree.root().unwrap();
        let compile = root.find("compile").expect("compile span");
        assert_eq!(compile.attr("strategy").and_then(AttrValue::as_str), Some("color_dynamic"));
        assert_eq!(compile.children[0].name, "smt");
    }

    #[test]
    fn sampled_mode_is_a_deterministic_counter() {
        set_trace_mode(TraceMode::Sampled(3));
        let hits: Vec<bool> = (0..6).map(|_| should_trace()).collect();
        assert_eq!(hits.iter().filter(|h| **h).count(), 2);
        set_trace_mode(TraceMode::Off);
        assert!(!should_trace());
        set_trace_mode(TraceMode::On);
        assert!(should_trace());
        set_trace_mode(TraceMode::Off);
    }

    #[test]
    fn chrome_trace_is_valid_json_shape() {
        let tracer = Tracer::new();
        let mut job = tracer.span("job \"quoted\"", None);
        job.attr("cache_hit", true);
        job.attr("policy", "round\nrobin");
        job.attr("waves", 7u64);
        job.attr("backoff_ms", 1.5f64);
        drop(job);
        let json = tracer.finish().to_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"cache_hit\":true"));
        assert!(json.contains("\"waves\":7"));
    }

    #[test]
    fn span_trees_serialize_as_nested_frames() {
        let tracer = Tracer::new();
        let mut job = tracer.span("job", None);
        job.attr("priority", "interactive");
        job.attr("cache_hit", false);
        let mut compile = tracer.span("compile", Some(job.id()));
        compile.attr("waves", 3usize);
        drop(compile);
        drop(job);
        let json = tracer.finish().to_json();
        assert_eq!(json.get("name").unwrap().as_str(), Some("job"));
        let attrs = json.get("attrs").expect("root attrs");
        assert_eq!(attrs.get("priority").unwrap().as_str(), Some("interactive"));
        assert_eq!(attrs.get("cache_hit").unwrap().as_bool(), Some(false));
        let children = json.get("children").unwrap().as_array().unwrap();
        assert_eq!(children[0].get("name").unwrap().as_str(), Some("compile"));
        assert_eq!(children[0].get("attrs").unwrap().get("waves").unwrap().as_u64(), Some(3));
        assert!(children[0].get("dur_ns").unwrap().as_u64().is_some());
        // The encoded form must survive the codec's own parser.
        let reparsed = Json::parse(&json.encode()).expect("wire round trip");
        assert_eq!(reparsed.get("name").unwrap().as_str(), Some("job"));
    }

    #[test]
    fn orphan_parent_promotes_to_root() {
        let tracer = Tracer::new();
        let now = Instant::now();
        tracer.record("dangling", Some(999), now, now, Vec::new());
        let tree = tracer.finish();
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.root().unwrap().name, "dangling");
    }
}
