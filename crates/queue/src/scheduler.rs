//! The admission queue: per-class, per-client FIFOs with weighted
//! drain.
//!
//! This is the deterministic heart of the front end, deliberately free
//! of threads and clocks so fairness is unit-testable:
//!
//! * Every queued job lives in exactly one FIFO, keyed by `(priority
//!   class, client)`.
//! * [`drain_batch`](AdmissionQueue::drain_batch) assembles a
//!   micro-batch in **rounds**: each round visits the classes highest
//!   first and takes up to [`Priority::weight`] jobs per class,
//!   rotating round-robin over the class's clients. Under saturation
//!   the classes therefore share capacity 4:2:1 — interactive traffic
//!   dominates but batch and speculative work always make progress (no
//!   starvation), and within a class no tenant can crowd out another.
//! * [`shed_oldest_at_most`](AdmissionQueue::shed_oldest_at_most)
//!   implements `ShedOldest` backpressure: the victim is the oldest job
//!   of the *least* important class not more important than the
//!   newcomer — queue pressure never evicts upward.
//!
//! All ordering is by the monotone submission sequence number, so the
//! queue's behavior is a pure function of the submission stream.

use crate::job::{ClientId, JobId, Priority};
use fastsc_core::batch::CompileJob;
use fastsc_core::FailedAttempt;
use fastsc_telemetry::{SpanGuard, Tracer};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// One admitted job, from admission to resolution: queued here, then
/// compiling in a micro-batch, then (after a transient failure) waiting
/// out a retry backoff, and finally consumed by its completion.
#[derive(Debug)]
pub(crate) struct QueuedJob {
    pub id: JobId,
    pub client: ClientId,
    pub priority: Priority,
    pub job: CompileJob,
    pub deadline: Option<Instant>,
    pub submitted: Instant,
    /// Monotone submission sequence number — the age order shedding
    /// uses.
    pub seq: u64,
    /// Every failed attempt so far, in order.
    pub attempts: Vec<FailedAttempt>,
    /// Shards excluded from this job's routing (the ones it failed on,
    /// when the retry policy fails over).
    pub excluded: Vec<usize>,
    /// The job's live span trace, when it is traced.
    pub trace: Option<ActiveTrace>,
}

/// A live per-job span trace: the tracer, the root `"job"` span held
/// open until the job resolves, and the open `"attempt"` span while an
/// attempt compiles.
#[derive(Debug)]
pub(crate) struct ActiveTrace {
    pub tracer: Tracer,
    pub root: SpanGuard,
    pub attempt: Option<SpanGuard>,
}

/// One priority class: a FIFO per client plus the round-robin rotation
/// of clients that currently have queued work.
#[derive(Debug, Default)]
struct ClassQueue {
    rotation: VecDeque<ClientId>,
    per_client: HashMap<ClientId, VecDeque<QueuedJob>>,
}

impl ClassQueue {
    fn push(&mut self, job: QueuedJob) {
        let fifo = self.per_client.entry(job.client).or_default();
        if fifo.is_empty() {
            self.rotation.push_back(job.client);
        }
        fifo.push_back(job);
    }

    /// Pops the next job in client round-robin order.
    fn pop(&mut self) -> Option<QueuedJob> {
        let client = self.rotation.pop_front()?;
        let fifo = self.per_client.get_mut(&client).expect("rotation tracks queued clients");
        let job = fifo.pop_front().expect("rotation implies a queued job");
        if fifo.is_empty() {
            self.per_client.remove(&client);
        } else {
            self.rotation.push_back(client);
        }
        Some(job)
    }

    /// Removes the oldest (lowest-seq) job of the class.
    fn remove_oldest(&mut self) -> Option<QueuedJob> {
        let client = *self
            .per_client
            .iter()
            .min_by_key(|(_, fifo)| fifo.front().map_or(u64::MAX, |j| j.seq))?
            .0;
        self.remove_where(client, |_| true)
    }

    /// Removes the first job of `client` matching `pick` (FIFO order).
    fn remove_where(
        &mut self,
        client: ClientId,
        pick: impl Fn(&QueuedJob) -> bool,
    ) -> Option<QueuedJob> {
        let fifo = self.per_client.get_mut(&client)?;
        let index = fifo.iter().position(pick)?;
        let job = fifo.remove(index).expect("position is in range");
        if fifo.is_empty() {
            self.per_client.remove(&client);
            self.rotation.retain(|&c| c != client);
        }
        Some(job)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.per_client.values().map(VecDeque::len).sum()
    }
}

/// The bounded admission queue (see the [module docs](self)).
#[derive(Debug, Default)]
pub(crate) struct AdmissionQueue {
    classes: [ClassQueue; 3],
    len: usize,
}

impl AdmissionQueue {
    pub fn new() -> Self {
        AdmissionQueue::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn push(&mut self, job: QueuedJob) {
        self.classes[job.priority.rank()].push(job);
        self.len += 1;
    }

    /// Assembles up to `max` jobs by weighted, client-fair rounds (see
    /// the [module docs](self)).
    pub fn drain_batch(&mut self, max: usize) -> Vec<QueuedJob> {
        let mut batch = Vec::new();
        while batch.len() < max && !self.is_empty() {
            for priority in Priority::all() {
                for _ in 0..priority.weight() {
                    if batch.len() >= max {
                        break;
                    }
                    match self.classes[priority.rank()].pop() {
                        Some(job) => {
                            self.len -= 1;
                            batch.push(job);
                        }
                        None => break,
                    }
                }
            }
        }
        batch
    }

    /// Evicts the oldest job whose class is **no more important** than
    /// `incoming`, preferring the least important class. Returns `None`
    /// when every queued job outranks the newcomer — the caller sheds
    /// the newcomer itself instead.
    pub fn shed_oldest_at_most(&mut self, incoming: Priority) -> Option<QueuedJob> {
        for rank in (incoming.rank()..self.classes.len()).rev() {
            if let Some(job) = self.classes[rank].remove_oldest() {
                self.len -= 1;
                return Some(job);
            }
        }
        None
    }

    /// Removes a specific queued job (cancellation path).
    pub fn remove(
        &mut self,
        id: JobId,
        client: ClientId,
        priority: Priority,
    ) -> Option<QueuedJob> {
        let job = self.classes[priority.rank()].remove_where(client, |j| j.id == id)?;
        self.len -= 1;
        Some(job)
    }

    #[cfg(test)]
    fn class_len(&self, priority: Priority) -> usize {
        self.classes[priority.rank()].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsc_core::Strategy;
    use fastsc_ir::Circuit;

    fn queued(seq: u64, client: ClientId, priority: Priority) -> QueuedJob {
        QueuedJob {
            id: JobId(seq),
            client,
            priority,
            job: CompileJob::new(Circuit::new(1), Strategy::ColorDynamic),
            deadline: None,
            submitted: Instant::now(),
            seq,
            attempts: Vec::new(),
            excluded: Vec::new(),
            trace: None,
        }
    }

    fn fill(queue: &mut AdmissionQueue, jobs: impl IntoIterator<Item = (ClientId, Priority)>) {
        for (seq, (client, priority)) in jobs.into_iter().enumerate() {
            queue.push(queued(seq as u64, client, priority));
        }
    }

    #[test]
    fn saturated_drain_shares_capacity_4_2_1() {
        let mut queue = AdmissionQueue::new();
        // 20 jobs per class from one client each — saturation.
        fill(
            &mut queue,
            Priority::all().into_iter().flat_map(|p| std::iter::repeat_n((0, p), 20)),
        );
        let batch = queue.drain_batch(14);
        let counts = Priority::all().map(|p| batch.iter().filter(|j| j.priority == p).count());
        // Two full rounds of 4+2+1.
        assert_eq!(counts, [8, 4, 2]);
        assert_eq!(batch.len(), 14);
    }

    #[test]
    fn low_classes_are_never_starved() {
        let mut queue = AdmissionQueue::new();
        fill(
            &mut queue,
            std::iter::repeat_n((0, Priority::Interactive), 50)
                .chain(std::iter::once((1, Priority::Speculative))),
        );
        // Even a single speculative job behind 50 interactive ones makes
        // the very first weighted round.
        let batch = queue.drain_batch(8);
        assert!(
            batch.iter().any(|j| j.priority == Priority::Speculative),
            "speculative job starved out of the first batch"
        );
    }

    #[test]
    fn clients_within_a_class_alternate_round_robin() {
        let mut queue = AdmissionQueue::new();
        // Client 0 floods 6 jobs, client 1 submits 2 — all batch class.
        fill(
            &mut queue,
            std::iter::repeat_n((0, Priority::Batch), 6)
                .chain(std::iter::repeat_n((1, Priority::Batch), 2)),
        );
        let clients: Vec<ClientId> = queue.drain_batch(4).iter().map(|j| j.client).collect();
        assert_eq!(clients, vec![0, 1, 0, 1], "flooding tenant must not crowd out the other");
    }

    #[test]
    fn within_one_client_order_is_fifo() {
        let mut queue = AdmissionQueue::new();
        fill(&mut queue, std::iter::repeat_n((3, Priority::Interactive), 5));
        let seqs: Vec<u64> = queue.drain_batch(5).iter().map(|j| j.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shed_prefers_the_least_important_then_oldest() {
        let mut queue = AdmissionQueue::new();
        fill(
            &mut queue,
            [
                (0, Priority::Interactive),
                (0, Priority::Speculative), // seq 1: oldest speculative
                (1, Priority::Speculative),
                (0, Priority::Batch),
            ],
        );
        let victim = queue.shed_oldest_at_most(Priority::Batch).expect("sheds");
        assert_eq!((victim.seq, victim.priority), (1, Priority::Speculative));
        // Next shed at Batch level: the remaining speculative job.
        let victim = queue.shed_oldest_at_most(Priority::Batch).expect("sheds");
        assert_eq!(victim.seq, 2);
        // Now only Interactive (seq 0) and Batch (seq 3) remain; a Batch
        // newcomer may evict the queued Batch job but never Interactive.
        let victim = queue.shed_oldest_at_most(Priority::Batch).expect("sheds");
        assert_eq!((victim.seq, victim.priority), (3, Priority::Batch));
        assert!(
            queue.shed_oldest_at_most(Priority::Batch).is_none(),
            "queue pressure must never evict upward"
        );
        assert_eq!(queue.class_len(Priority::Interactive), 1);
    }

    #[test]
    fn remove_targets_one_job_and_keeps_rotation_consistent() {
        let mut queue = AdmissionQueue::new();
        fill(&mut queue, [(0, Priority::Batch), (1, Priority::Batch), (0, Priority::Batch)]);
        let removed = queue.remove(JobId(1), 1, Priority::Batch).expect("queued");
        assert_eq!(removed.seq, 1);
        assert!(queue.remove(JobId(1), 1, Priority::Batch).is_none(), "already gone");
        // Client 1 left the rotation; the rest drains cleanly.
        let seqs: Vec<u64> = queue.drain_batch(10).iter().map(|j| j.seq).collect();
        assert_eq!(seqs, vec![0, 2]);
        assert!(queue.is_empty());
    }
}
