//! Streaming result delivery.
//!
//! A submitted request is answered with a [`SampleStream`]: a blocking
//! iterator over [`SampleEvent`]s that yields each accepted sample **as the
//! scheduler lands it** — round by round, not as one merged end-of-job
//! report. The event protocol is:
//!
//! ```text
//! Sample* (Progress Sample*)* Done      — every sample precedes Done,
//!                                         Progress totals are monotone
//! ```
//!
//! Dropping the stream mid-job is the consumer hanging up: the scheduler
//! notices the closed channel at the next delivery, cancels the job, and
//! releases its walker slots and unused budget.
//!
//! **Memory contract.** Events are buffered in an in-process channel the
//! scheduler never blocks on, so a consumer slower than the scheduler
//! buffers at most the job's own output: one `Sample` per requested sample
//! plus one `Progress` per round (rounds ≤ the largest walker quota) plus
//! one `Done` — O(`job.samples`), fixed at admission time, never unbounded.
//! Callers admitting huge jobs on behalf of slow consumers should size
//! `max_in_flight` (and their requests) with that per-job buffer in mind,
//! or drop the stream to cancel.

use crate::request::JobId;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::Duration;
use wnw_access::counter::QueryStats;
use wnw_access::AccessError;
use wnw_mcmc::sampler::SampleRecord;

/// One message of a request's result stream.
#[derive(Debug, Clone)]
pub enum SampleEvent {
    /// A walker accepted a sample.
    Sample {
        /// Virtual walker that produced it (its RNG stream index).
        walker: usize,
        /// The sample, with the walker's own query cost at that moment.
        record: SampleRecord,
    },
    /// A consistent progress snapshot, emitted after each round the job ran.
    Progress(ProgressUpdate),
    /// The job reached a terminal state; no further events follow.
    Done(JobOutcome),
}

/// Progress at a round boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressUpdate {
    /// Rounds the job has run.
    pub rounds: usize,
    /// Samples delivered so far (monotone; equals the outcome's `samples`
    /// in the final update).
    pub samples: usize,
    /// Samples the request asked for.
    pub requested: usize,
    /// Walkers still drawing.
    pub live_walkers: usize,
    /// Sum of the walkers' own unique-node charges (what budget enforcement
    /// sees).
    pub budget_consumed: u64,
    /// Distinct nodes this *job* touched, counted once across its walkers
    /// ([`JobDriver::query_cost`](wnw_engine::JobDriver::query_cost)) — the
    /// cost an isolated run would have paid.
    pub query_cost: u64,
    /// Service-wide shared-cache counters at this instant.
    pub pool: QueryStats,
}

/// How a job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Quota met, or every walker stopped normally (budget exhausted).
    Completed,
    /// Stopped by [`JobHandle::cancel`](crate::JobHandle::cancel) or by the
    /// consumer dropping the stream.
    Cancelled,
    /// Stopped because the request's deadline passed.
    DeadlineExpired,
    /// A walker hit a non-budget access error.
    Failed(AccessError),
    /// A walker's sampler panicked; the message is the panic payload.
    Panicked(String),
}

impl JobStatus {
    /// The status's stable wire label — what the gateway's JSON documents
    /// and the trace log's `Finished` events carry (detail like the failed
    /// variant's error is reported separately, not in the label).
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::DeadlineExpired => "deadline_expired",
            JobStatus::Failed(_) => "failed",
            JobStatus::Panicked(_) => "panicked",
        }
    }
}

/// Terminal accounting for one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutcome {
    /// The id assigned at submission.
    pub id: JobId,
    /// Terminal state.
    pub status: JobStatus,
    /// Samples delivered before the stop.
    pub samples: usize,
    /// Samples the request asked for.
    pub requested: usize,
    /// Distinct nodes the job touched, counted once across its walkers —
    /// what the same request would have cost run in isolation. The service-wide
    /// pool typically paid less (shared cache).
    pub query_cost: u64,
    /// Sum of the walkers' unique-node charges (budget accounting).
    pub budget_consumed: u64,
    /// Unused query budget returned to the caller (0 for unbudgeted jobs).
    pub budget_refunded: u64,
    /// Whether any walker stopped on budget exhaustion.
    pub budget_exhausted: bool,
    /// Whether the job completed as a **degraded partial**: at least one
    /// walker was stopped by a transient fault, exhausted retries, or an
    /// open circuit breaker. The samples delivered before the fault are
    /// kept, and the job's history still publishes — partial walks are
    /// evidence, not waste.
    pub degraded: bool,
    /// How many walkers were stopped by a degradation (0 when
    /// [`degraded`](Self::degraded) is false).
    pub degraded_walkers: u64,
    /// Rounds the job ran.
    pub rounds: usize,
    /// Submit-to-done wall-clock latency.
    pub latency: Duration,
    /// Admission→first-round wait: how long the job sat in the queue before
    /// the scheduler granted it walker slots (for jobs cancelled or expired
    /// while still queued, their whole queued life). The scheduling-latency
    /// share of [`latency`](Self::latency).
    pub queue_wait: Duration,
    /// 0-based position in the service's completion order (the first job to
    /// finish has index 0) — what the priority tests assert on.
    pub finish_index: u64,
}

/// What one non-blocking [`SampleStream::poll_next`] call observed.
///
/// The non-blocking twin of the stream's `Iterator` protocol, for
/// consumers that multiplex many streams on one thread (the gateway's
/// readiness loop): `Event` and `Finished` mean exactly what `Some` and
/// `None` mean to the iterator, and `Empty` is the third state blocking
/// iteration never surfaces — nothing buffered *right now*, poll again
/// later.
#[derive(Debug)]
pub enum StreamPoll {
    /// The next buffered event (after [`SampleEvent::Done`] the stream is
    /// finished).
    Event(SampleEvent),
    /// Nothing buffered right now; the job is still producing.
    Empty,
    /// No further events will ever arrive: the `Done` event was already
    /// delivered, or the service was torn down without sending one.
    Finished,
}

/// Blocking iterator over a job's [`SampleEvent`]s.
///
/// Iteration ends after the [`Done`](SampleEvent::Done) event (or
/// immediately, if the service was torn down without delivering one).
/// Consumers that cannot afford to block — one thread serving many
/// streams — use [`poll_next`](Self::poll_next) instead.
#[derive(Debug)]
pub struct SampleStream {
    rx: Receiver<SampleEvent>,
    finished: bool,
}

impl SampleStream {
    pub(crate) fn new(rx: Receiver<SampleEvent>) -> Self {
        SampleStream {
            rx,
            finished: false,
        }
    }

    /// Non-blocking pull of the next buffered event. Never waits: returns
    /// [`StreamPoll::Empty`] when the scheduler has not landed anything
    /// new yet, and [`StreamPoll::Finished`] once the stream is over
    /// (after `Done`, or after a service teardown). Mixing `poll_next`
    /// and blocking iteration is fine — both advance the same stream.
    pub fn poll_next(&mut self) -> StreamPoll {
        if self.finished {
            return StreamPoll::Finished;
        }
        match self.rx.try_recv() {
            Ok(event) => {
                if matches!(event, SampleEvent::Done(_)) {
                    self.finished = true;
                }
                StreamPoll::Event(event)
            }
            Err(TryRecvError::Empty) => StreamPoll::Empty,
            Err(TryRecvError::Disconnected) => {
                self.finished = true;
                StreamPoll::Finished
            }
        }
    }

    /// Blocks until the job is done, discarding per-sample events, and
    /// returns the outcome. `None` only if the service vanished without
    /// sending one (e.g. its scheduler thread was killed).
    pub fn wait(self) -> Option<JobOutcome> {
        let mut outcome = None;
        for event in self {
            if let SampleEvent::Done(done) = event {
                outcome = Some(done);
            }
        }
        outcome
    }

    /// Blocks until the job is done and returns every sample (in delivery
    /// order: walker order within each round) plus the outcome.
    pub fn collect_all(self) -> (Vec<SampleRecord>, Option<JobOutcome>) {
        let mut samples = Vec::new();
        let mut outcome = None;
        for event in self {
            match event {
                SampleEvent::Sample { record, .. } => samples.push(record),
                SampleEvent::Progress(_) => {}
                SampleEvent::Done(done) => outcome = Some(done),
            }
        }
        (samples, outcome)
    }
}

impl Iterator for SampleStream {
    type Item = SampleEvent;

    fn next(&mut self) -> Option<SampleEvent> {
        if self.finished {
            return None;
        }
        match self.rx.recv() {
            Ok(event) => {
                if matches!(event, SampleEvent::Done(_)) {
                    self.finished = true;
                }
                Some(event)
            }
            Err(_) => {
                self.finished = true;
                None
            }
        }
    }
}

/// Cancellation handle for a submitted job (cheap to clone, safe to use
/// from any thread).
#[derive(Debug, Clone)]
pub struct JobHandle {
    id: JobId,
    cancel: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl JobHandle {
    pub(crate) fn new(id: JobId, cancel: std::sync::Arc<std::sync::atomic::AtomicBool>) -> Self {
        JobHandle { id, cancel }
    }

    /// The job's id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Requests cooperative cancellation: the scheduler stops the job at
    /// the next round boundary, delivers the samples accepted so far, and
    /// refunds the unused budget in the outcome.
    pub fn cancel(&self) {
        self.cancel
            .store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Everything [`submit`](crate::SamplingService::submit) hands back for an
/// admitted request.
#[derive(Debug)]
pub struct JobTicket {
    /// The id the service assigned.
    pub id: JobId,
    /// The result stream.
    pub stream: SampleStream,
    /// Cancellation handle.
    pub handle: JobHandle,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn outcome(id: u64) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            status: JobStatus::Completed,
            samples: 0,
            requested: 0,
            query_cost: 0,
            budget_consumed: 0,
            budget_refunded: 0,
            budget_exhausted: false,
            degraded: false,
            degraded_walkers: 0,
            rounds: 0,
            latency: Duration::ZERO,
            queue_wait: Duration::ZERO,
            finish_index: 0,
        }
    }

    #[test]
    fn stream_ends_after_done() {
        let (tx, rx) = channel();
        tx.send(SampleEvent::Done(outcome(1))).unwrap();
        // Events after Done are never delivered.
        tx.send(SampleEvent::Done(outcome(2))).unwrap();
        let mut stream = SampleStream::new(rx);
        assert!(matches!(stream.next(), Some(SampleEvent::Done(o)) if o.id == JobId(1)));
        assert!(stream.next().is_none());
        assert!(stream.next().is_none());
    }

    #[test]
    fn poll_next_never_blocks_and_tracks_the_stream_protocol() {
        let (tx, rx) = channel();
        let mut stream = SampleStream::new(rx);
        // Nothing buffered: Empty, not a block or an end.
        assert!(matches!(stream.poll_next(), StreamPoll::Empty));
        tx.send(SampleEvent::Done(outcome(3))).unwrap();
        assert!(matches!(
            stream.poll_next(),
            StreamPoll::Event(SampleEvent::Done(o)) if o.id == JobId(3)
        ));
        // After Done the stream is finished even though the sender lives.
        assert!(matches!(stream.poll_next(), StreamPoll::Finished));

        // Disconnect without Done also finishes.
        let (tx, rx) = channel::<SampleEvent>();
        let mut stream = SampleStream::new(rx);
        drop(tx);
        assert!(matches!(stream.poll_next(), StreamPoll::Finished));
        assert!(matches!(stream.poll_next(), StreamPoll::Finished));
    }

    #[test]
    fn poll_next_interleaves_with_blocking_iteration() {
        let (tx, rx) = channel();
        tx.send(SampleEvent::Progress(ProgressUpdate {
            rounds: 1,
            samples: 0,
            requested: 4,
            live_walkers: 1,
            budget_consumed: 0,
            query_cost: 0,
            pool: Default::default(),
        }))
        .unwrap();
        tx.send(SampleEvent::Done(outcome(9))).unwrap();
        let mut stream = SampleStream::new(rx);
        assert!(matches!(
            stream.poll_next(),
            StreamPoll::Event(SampleEvent::Progress(_))
        ));
        // The blocking iterator picks up exactly where the poll left off.
        assert!(matches!(stream.next(), Some(SampleEvent::Done(_))));
        assert!(stream.next().is_none());
        assert!(matches!(stream.poll_next(), StreamPoll::Finished));
    }

    #[test]
    fn stream_ends_on_disconnect_without_done() {
        let (tx, rx) = channel::<SampleEvent>();
        drop(tx);
        let stream = SampleStream::new(rx);
        assert!(stream.wait().is_none());
    }

    #[test]
    fn status_labels_are_stable() {
        assert_eq!(JobStatus::Completed.label(), "completed");
        assert_eq!(JobStatus::Cancelled.label(), "cancelled");
        assert_eq!(JobStatus::DeadlineExpired.label(), "deadline_expired");
        assert_eq!(
            JobStatus::Failed(wnw_access::AccessError::BudgetExhausted { budget: 0 }).label(),
            "failed"
        );
        assert_eq!(JobStatus::Panicked("boom".into()).label(), "panicked");
    }

    #[test]
    fn handle_cancel_roundtrip() {
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let handle = JobHandle::new(JobId(7), flag.clone());
        assert_eq!(handle.id(), JobId(7));
        assert!(!handle.is_cancelled());
        handle.clone().cancel();
        assert!(handle.is_cancelled());
        assert!(flag.load(std::sync::atomic::Ordering::Relaxed));
    }
}
