//! Job identity, priority classes, and the submission builder.

use fastsc_core::batch::CompileJob;
use std::time::{Duration, Instant};

/// Identifies the tenant a submission belongs to. Fairness is enforced
/// **between** clients: within a priority class the dispatcher serves
/// clients round-robin, so one tenant flooding the queue cannot starve
/// the others.
pub type ClientId = u64;

/// Opaque handle identity of one submitted job, unique for the lifetime
/// of its [`QueueService`](crate::QueueService).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub(crate) u64);

impl JobId {
    /// The raw identifier (monotonically increasing in submission order).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Priority class of a submission. Classes share the compile fleet by
/// **weighted** round-robin — every dispatch round serves up to
/// [`weight`](Self::weight) jobs per class, highest class first — so
/// interactive traffic gets most of the capacity under saturation while
/// batch and speculative work keep a guaranteed share and can never
/// starve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// A user is waiting on the result (weight 4).
    Interactive,
    /// Throughput traffic: calibration sweeps, offline recompiles
    /// (weight 2).
    Batch,
    /// Optional work worth doing only with spare capacity, and the first
    /// to be shed under `ShedOldest` backpressure (weight 1).
    Speculative,
}

impl Priority {
    /// Every class, highest priority first.
    pub fn all() -> [Priority; 3] {
        [Priority::Interactive, Priority::Batch, Priority::Speculative]
    }

    /// Dense rank: 0 is the highest priority. Indexes per-class tables.
    pub fn rank(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
            Priority::Speculative => 2,
        }
    }

    /// Jobs this class may claim per dispatch round (see the type docs).
    pub fn weight(self) -> usize {
        match self {
            Priority::Interactive => 4,
            Priority::Batch => 2,
            Priority::Speculative => 1,
        }
    }

    /// The class's wire, trace and metric-label name (also its
    /// [`Display`](std::fmt::Display) form).
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
            Priority::Speculative => "speculative",
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A priority name that [`Priority::from_str`](std::str::FromStr) did
/// not recognize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePriorityError {
    /// The unrecognized input.
    pub input: String,
}

impl std::fmt::Display for ParsePriorityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown priority '{}' (expected interactive, batch, or speculative)",
            self.input
        )
    }
}

impl std::error::Error for ParsePriorityError {}

impl std::str::FromStr for Priority {
    type Err = ParsePriorityError;

    /// Parses the wire names used by the network serving layer — exactly
    /// the [`Display`](std::fmt::Display) forms.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "interactive" => Ok(Priority::Interactive),
            "batch" => Ok(Priority::Batch),
            "speculative" => Ok(Priority::Speculative),
            other => Err(ParsePriorityError { input: other.to_string() }),
        }
    }
}

/// One submission: the compile job plus its queueing metadata. Built
/// fluently and handed to [`QueueService::submit`](crate::QueueService::submit).
///
/// ```
/// use fastsc_core::batch::CompileJob;
/// use fastsc_core::Strategy;
/// use fastsc_ir::Circuit;
/// use fastsc_queue::{Priority, Submission};
/// use std::time::Duration;
///
/// let job = CompileJob::new(Circuit::new(2), Strategy::ColorDynamic);
/// let submission = Submission::new(job)
///     .client(7)
///     .priority(Priority::Interactive)
///     .deadline_in(Duration::from_secs(1));
/// assert_eq!(submission.client_id(), 7);
/// ```
#[derive(Debug, Clone)]
pub struct Submission {
    pub(crate) job: CompileJob,
    pub(crate) client: ClientId,
    pub(crate) priority: Priority,
    pub(crate) deadline: Option<Instant>,
    pub(crate) trace: bool,
}

impl Submission {
    /// A submission with the defaults: client 0, [`Priority::Batch`], no
    /// deadline, untraced.
    pub fn new(job: CompileJob) -> Self {
        Submission { job, client: 0, priority: Priority::Batch, deadline: None, trace: false }
    }

    /// Requests a per-job span trace: the queue records the job's full
    /// lifecycle (admission, queue wait, each attempt, compile phases,
    /// delivery) and parks the finished tree for
    /// [`QueueService::take_trace`](crate::QueueService::take_trace).
    /// Purely observational — a traced job compiles bit-identically to
    /// an untraced one.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Whether [`traced`](Self::traced) was requested.
    pub fn trace_requested(&self) -> bool {
        self.trace
    }

    /// Attributes the job to a tenant (fairness is per client).
    pub fn client(mut self, client: ClientId) -> Self {
        self.client = client;
        self
    }

    /// Sets the priority class.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Expires the job `timeout` from now: if no compile slot opens in
    /// time, the job resolves to
    /// [`CompileError::Deadline`](fastsc_core::CompileError::Deadline) without compiling.
    pub fn deadline_in(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Expires the job at an absolute instant (see
    /// [`deadline_in`](Self::deadline_in)).
    pub fn deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// The tenant this submission is attributed to.
    pub fn client_id(&self) -> ClientId {
        self.client
    }

    /// The priority class.
    pub fn job_priority(&self) -> Priority {
        self.priority
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsc_core::Strategy;
    use fastsc_ir::Circuit;

    #[test]
    fn ranks_are_dense_and_ordered_by_weight() {
        let all = Priority::all();
        for (rank, priority) in all.iter().enumerate() {
            assert_eq!(priority.rank(), rank);
        }
        assert!(
            all.windows(2).all(|w| w[0].weight() > w[1].weight()),
            "higher classes must carry strictly larger weights"
        );
    }

    #[test]
    fn submission_builder_applies_every_field() {
        let job = CompileJob::new(Circuit::new(2), Strategy::ColorDynamic);
        let s = Submission::new(job);
        assert_eq!((s.client_id(), s.job_priority()), (0, Priority::Batch));
        assert!(s.deadline.is_none());
        assert!(!s.trace_requested());
        let s = s
            .client(9)
            .priority(Priority::Speculative)
            .deadline_in(Duration::from_secs(5))
            .traced();
        assert_eq!((s.client_id(), s.job_priority()), (9, Priority::Speculative));
        assert!(s.trace_requested());
        let deadline = s.deadline.expect("set");
        assert!(deadline > Instant::now());
    }

    #[test]
    fn job_id_displays_its_index() {
        assert_eq!(JobId(42).to_string(), "job#42");
        assert_eq!(JobId(42).as_u64(), 42);
    }
}
