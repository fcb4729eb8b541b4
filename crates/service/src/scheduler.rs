//! The batched multi-job scheduler.
//!
//! One scheduler thread owns every admitted job and advances them in
//! **waves**. A wave takes one round of every active job that has credit
//! left (see below), where one round moves every live walker of that job
//! one sample forward, and runs all of those rounds as one batch on the
//! service's shared, persistent [`WorkerPool`] (see
//! [`JobDriver::step_rounds`]), each walker its own task. One pool serves
//! every in-flight job, so no round spawns an OS thread, and the pool's
//! lanes claim walkers across jobs, so a job whose walkers need many
//! acceptance-rejection attempts this round does not leave a lane idle
//! while the next job waits behind it.
//!
//! **One wave per turn.** Each turn of the scheduler loop, in order: takes
//! in new submissions, retires queued jobs that died waiting (cancelled or
//! past their deadline), promotes queued jobs into free slots, steps one
//! wave, streams each stepped job's samples and progress, and retires every
//! job that became terminal. Admission and retirement thus happen at every
//! wave boundary: a job that finds a free slot runs its first round within
//! one wave of its arrival, and a job that finishes sends `Done` (and, under
//! `SharedPublish`, publishes its history) at the end of the wave it
//! finished in, freeing its slot for the next promotion.
//!
//! **Cycles and credits.** Fairness is counted in **cycles**. Each active
//! job carries a *credit*: its rounds left in the current cycle. A wave
//! steps every job with credit and takes one from each; the cycle ends when
//! no active job has any, and the next wave starts a new one by refilling
//! every credit with the job's cost-weighted allotment (its
//! [`Priority::weight`], see below). A job promoted mid-cycle gets its
//! weight, capped at the waves left in the cycle (the largest credit an
//! active job holds), so a cycle never runs longer than the longest
//! allotment fixed at its start — at most `Priority::High`'s weight of 4
//! waves — however jobs arrive, and no job gets more rounds in a cycle than
//! its weight. Round interleaving is what keeps the service fair — a
//! 10 000-sample job advances one round, and a 10-sample job advances one
//! round in the same wave — and priority weights tilt the ratio without
//! ever starving anyone.
//!
//! **Cost-weighted fairness.** Rounds are not equal: a 16-walker crawl of a
//! hub-heavy region spends far more queries per round than a 1-walker job.
//! Each cycle therefore scales a job's round allotment by the ratio of the
//! *cheapest* active job's measured per-round query cost to its own (see
//! [`cost_weighted_rounds`]), recomputed when the cycle starts: the
//! cheapest job keeps its full priority weight while proportionally
//! costlier jobs are throttled toward one round per cycle, so heterogeneous
//! jobs share the pool by measured work, not by round count. Every active
//! job still advances at least one round per cycle — fairness never becomes
//! starvation — and the weighting only re-times rounds, so it cannot change
//! any job's sample multiset.
//!
//! Determinism: the scheduler decides only *when* a job's walkers run,
//! never what they compute. A walker's draws depend on its own RNG stream,
//! its own metered budget view, and cache answers that are pure functions
//! of the node asked — so a request's accepted-sample multiset is the same
//! at any pool width and under any co-load. Cross-job state is shared only
//! where sharing is free of interference: the neighbor cache (each node
//! paid for once, service-wide) and the underlying network handle. Walk
//! history crosses jobs only through the epoch-versioned
//! [`HistoryStore`]: a job under a shared [`history
//! policy`](crate::SampleRequest::history_policy) reads an *immutable*
//! snapshot frozen at admission and publishes its own walks only when it is
//! retired,
//! so a running job never observes mid-job publications — results under
//! shared policies are deterministic given an admission order, and the
//! default isolated policy keeps today's co-load invariance untouched.
//!
//! Batching keeps that argument whole: within a batch each job's walkers
//! all finish drawing before any of them flushes, and nothing a draw reads
//! belongs to another job, so a job's multiset does not depend on which
//! jobs share its waves.
//!
//! Cancellation (explicit, deadline, or the consumer dropping its stream)
//! is checked for every active job before every wave; a stopped job is
//! retired at the end of that wave, keeps the samples it already delivered
//! and refunds its unused budget in the outcome.

use crate::metrics::ServiceMetrics;
use crate::request::{JobId, Priority, SampleRequest};
use crate::stream::{JobOutcome, JobStatus, ProgressUpdate, SampleEvent};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wnw_access::cached::CachedNetwork;
use wnw_access::interface::{SocialNetwork, ThreadedNetwork};
use wnw_engine::{history_key_of, HistoryKey, HistoryStore, JobDriver};
use wnw_runtime::WorkerPool;
use wnw_telemetry::{TraceEventKind, TraceLog};

/// An admitted request on its way to the scheduler thread.
pub(crate) struct Submission {
    pub id: JobId,
    pub request: SampleRequest,
    pub events: Sender<SampleEvent>,
    pub cancel: Arc<AtomicBool>,
    pub submitted_at: Instant,
}

impl Submission {
    /// Absolute deadline, if one fits on the clock. A deadline so far out
    /// that `Instant + Duration` overflows (e.g. `Duration::MAX`) is
    /// treated as "no deadline" instead of panicking the scheduler thread.
    fn deadline_at(&self) -> Option<Instant> {
        self.request
            .deadline
            .and_then(|d| self.submitted_at.checked_add(d))
    }
}

/// Every this-many-th promotion takes the oldest pending submission
/// regardless of priority (queue aging — bounds how long a low-priority
/// job can be passed over by later high-priority arrivals).
const AGED_PROMOTION_STRIDE: u64 = 4;

/// The pending queue, indexed by priority so promotion never scans.
///
/// Submissions live in one FIFO bucket per [`Priority`], each entry stamped
/// with a global arrival sequence number. The promotion sweep used to run an
/// O(pending) `max_by` over the whole queue per promotion — under loadgen's
/// burst presets the queue holds hundreds of jobs, making each promotion a
/// linear rescan of state that never changed. With buckets, both promotion
/// policies are O(1):
///
/// * **priority pick** — front of the highest-priority non-empty bucket
///   (FIFO within a priority, because pushes append in arrival order);
/// * **aged pick** — the front with the smallest sequence number across the
///   (at most 3) buckets, i.e. the globally oldest submission.
///
/// Generic over the payload so the equivalence tests below can drive it
/// with plain integers.
struct PendingQueue<T> {
    /// One FIFO per priority, indexed by [`bucket_index`].
    buckets: [VecDeque<(u64, T)>; Priority::COUNT],
    /// Next arrival sequence number (total pushes so far).
    next_seq: u64,
}

/// The bucket a priority maps to, ordered so a higher index means a higher
/// priority. Exhaustive match: adding a `Priority` variant without growing
/// [`Priority::COUNT`] fails to compile here.
fn bucket_index(priority: Priority) -> usize {
    match priority {
        Priority::Low => 0,
        Priority::Normal => 1,
        Priority::High => 2,
    }
}

impl<T> PendingQueue<T> {
    fn new() -> Self {
        PendingQueue {
            buckets: std::array::from_fn(|_| VecDeque::new()),
            next_seq: 0,
        }
    }

    /// Total queued submissions (used by the equivalence tests).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.buckets.iter().map(VecDeque::len).sum()
    }

    fn is_empty(&self) -> bool {
        self.buckets.iter().all(VecDeque::is_empty)
    }

    /// Appends `item` at its priority's FIFO tail, stamping arrival order.
    fn push(&mut self, priority: Priority, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.buckets[bucket_index(priority)].push_back((seq, item));
    }

    /// Removes and returns the next submission to promote: the oldest
    /// overall when `aged`, otherwise the oldest of the highest non-empty
    /// priority. O(1) either way.
    fn pop_next(&mut self, aged: bool) -> Option<T> {
        let bucket = if aged {
            // Globally oldest = smallest sequence number among the fronts.
            self.buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| b.front().map(|(seq, _)| (*seq, i)))
                .min()
                .map(|(_, i)| i)?
        } else {
            (0..self.buckets.len())
                .rev()
                .find(|&i| !self.buckets[i].is_empty())?
        };
        self.buckets[bucket].pop_front().map(|(_, item)| item)
    }

    /// Removes every item matching `pred`, returning them in arrival order
    /// (the order the old linear reap walked them in). Works in place: when
    /// nothing matches it moves nothing and allocates nothing.
    fn extract_if<F: FnMut(&T) -> bool>(&mut self, mut pred: F) -> Vec<T> {
        let mut removed: Vec<(u64, T)> = Vec::new();
        for bucket in &mut self.buckets {
            let mut i = 0;
            while i < bucket.len() {
                if pred(&bucket[i].1) {
                    removed.extend(bucket.remove(i));
                } else {
                    i += 1;
                }
            }
        }
        // Sequence numbers are unique, so the unstable sort is exact (and
        // never allocates).
        removed.sort_unstable_by_key(|(seq, _)| *seq);
        removed.into_iter().map(|(_, item)| item).collect()
    }
}

/// How long a gated (paused) scheduler parks between wake-ups — also the
/// worst-case latency for noticing a resume.
const PAUSE_POLL: Duration = Duration::from_millis(25);

/// Scheduler-side tuning knobs (a copy of the service config).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SchedulerConfig {
    /// Jobs interleaved concurrently; admitted jobs beyond this wait queued.
    pub max_active: usize,
    /// Whether per-round telemetry (the round-duration histogram) is
    /// recorded. Job-level histograms and counters are always on — only
    /// this per-round timing sits on the hot path.
    pub telemetry: bool,
}

/// One job holding walker slots.
struct ActiveJob {
    id: JobId,
    driver: JobDriver<'static>,
    events: Sender<SampleEvent>,
    cancel: Arc<AtomicBool>,
    priority: Priority,
    deadline: Option<Instant>,
    submitted_at: Instant,
    /// Admission→first-round wait (time spent queued before promotion).
    queue_wait: Duration,
    budget: Option<u64>,
    requested: usize,
    /// Where to publish the job's merged walk history at reap (`Some` only
    /// for [`wnw_engine::HistoryPolicy::SharedPublish`] jobs whose spec can
    /// exchange history).
    publish_key: Option<HistoryKey>,
    /// Samples actually handed to the consumer's channel (what the
    /// service-level `samples_delivered` counter reports — a hung-up
    /// consumer stops this short of the samples the job produced).
    delivered: u64,
    /// Early-terminal state (cancelled / deadline / consumer hang-up); the
    /// normal completion and failure states are decided at finalization.
    status: Option<JobStatus>,
    /// Unique-node cost at the last pumped round — the per-round query
    /// delta reported in `RoundCompleted` trace events.
    last_round_cost: u64,
    /// Rounds left in the current scheduling cycle.
    credit: usize,
}

impl ActiveJob {
    /// Measured query cost per completed round (the job's
    /// [`query_cost`](JobDriver::query_cost), averaged over its rounds),
    /// floored at one so cache-riding jobs cannot divide the weighting by
    /// zero. `None` until the job has completed a round — a fresh job has
    /// no measurement yet and keeps its full priority weight.
    fn mean_round_cost(&self) -> Option<f64> {
        let rounds = self.driver.rounds();
        if rounds == 0 {
            return None;
        }
        Some((self.driver.query_cost() as f64 / rounds as f64).max(1.0))
    }

    fn terminal(&self) -> bool {
        // A poisoned driver (fatal walker error or panic) ends the job at
        // the next round boundary — the remaining healthy walkers' output
        // would be discarded anyway, so their rounds are not worth running.
        self.status.is_some() || self.driver.is_done() || self.driver.poisoned()
    }

    /// Polls the cooperative stop conditions (round-boundary granularity).
    fn check_interrupts(&mut self, now: Instant) {
        if self.status.is_some() {
            return;
        }
        if self.cancel.load(Ordering::Relaxed) {
            self.status = Some(JobStatus::Cancelled);
        } else if self.deadline.is_some_and(|d| now >= d) {
            self.status = Some(JobStatus::DeadlineExpired);
        }
    }

    /// Streams the samples the last round produced (walker order) plus a
    /// progress snapshot. A closed channel means the consumer hung up: the
    /// job is cancelled so its walker slots and budget are released.
    ///
    /// Telemetry rides the work already done here: the first sample that
    /// reaches the consumer stamps the time-to-first-sample histogram and a
    /// `SamplePublished` trace event, and the round's unique-node query
    /// delta goes out as a `RoundCompleted` event.
    fn pump(
        &mut self,
        pool: wnw_access::counter::QueryStats,
        metrics: &ServiceMetrics,
        trace: &TraceLog,
    ) {
        let mut hung_up = false;
        let events = &self.events;
        let delivered = &mut self.delivered;
        let had_delivered = *delivered > 0;
        self.driver.drain_new_samples(|walker, record| {
            let sent = events
                .send(SampleEvent::Sample {
                    walker,
                    record: *record,
                })
                .is_ok();
            hung_up |= !sent;
            *delivered += u64::from(sent);
        });
        if !had_delivered && self.delivered > 0 {
            metrics.on_first_sample(self.submitted_at.elapsed());
            trace.record(self.id.0, TraceEventKind::SamplePublished);
        }
        let query_cost = self.driver.query_cost();
        trace.record(
            self.id.0,
            TraceEventKind::RoundCompleted {
                queries: query_cost.saturating_sub(self.last_round_cost),
            },
        );
        self.last_round_cost = query_cost;
        let update = ProgressUpdate {
            rounds: self.driver.rounds(),
            samples: self.driver.samples_collected(),
            requested: self.requested,
            live_walkers: self.driver.live_walkers(),
            budget_consumed: self.driver.budget_consumed(),
            query_cost,
            pool,
        };
        hung_up |= self.events.send(SampleEvent::Progress(update)).is_err();
        if hung_up && self.status.is_none() {
            self.status = Some(JobStatus::Cancelled);
        }
    }
}

/// The scheduler: owns the submission queue and the active set, runs on a
/// dedicated thread until the service is dropped and every job has drained.
pub(crate) struct Scheduler<N: ThreadedNetwork + 'static> {
    cache: Arc<CachedNetwork<Arc<N>>>,
    metrics: Arc<ServiceMetrics>,
    config: SchedulerConfig,
    /// The service's one persistent worker pool: every round of every
    /// in-flight job executes on it, so no round spawns an OS thread.
    pool: Arc<WorkerPool>,
    /// The service-scoped cross-job history store: shared-policy jobs
    /// snapshot it at admission and publish into it at reap.
    history: Arc<HistoryStore>,
    /// The service's per-job lifecycle trace ring (capacity 0 when tracing
    /// is off — every `record` is then a branch-and-return).
    trace: Arc<TraceLog>,
    paused: Arc<AtomicBool>,
    rx: Receiver<Submission>,
    rx_open: bool,
    pending: PendingQueue<Submission>,
    active: Vec<ActiveJob>,
    /// Lifetime promotion count, driving the queue-aging stride.
    promotions: u64,
}

impl<N: ThreadedNetwork + 'static> Scheduler<N> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cache: Arc<CachedNetwork<Arc<N>>>,
        metrics: Arc<ServiceMetrics>,
        config: SchedulerConfig,
        pool: Arc<WorkerPool>,
        history: Arc<HistoryStore>,
        trace: Arc<TraceLog>,
        paused: Arc<AtomicBool>,
        rx: Receiver<Submission>,
    ) -> Self {
        Scheduler {
            cache,
            metrics,
            config,
            pool,
            history,
            trace,
            paused,
            rx,
            rx_open: true,
            pending: PendingQueue::new(),
            active: Vec::new(),
            promotions: 0,
        }
    }

    /// Runs until the submission channel is closed *and* every admitted job
    /// has reached a terminal state (graceful drain).
    pub fn run(mut self) {
        loop {
            self.ingest();
            self.reap_pending();
            if self.paused.load(Ordering::Relaxed) {
                if !self.rx_open && self.pending.is_empty() && self.active.is_empty() {
                    break;
                }
                // Gated: park on the submission channel (or sleep, once it
                // is closed) instead of busy-spinning; the bound is also
                // the worst-case latency for noticing a resume.
                if self.rx_open {
                    match self.rx.recv_timeout(PAUSE_POLL) {
                        Ok(submission) => self.enqueue(submission),
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => self.rx_open = false,
                    }
                } else {
                    std::thread::sleep(PAUSE_POLL);
                }
                continue;
            }
            self.promote();
            if self.active.is_empty() {
                if self.pending.is_empty() {
                    if !self.rx_open {
                        break;
                    }
                    // Idle: block until the next submission (or shutdown).
                    match self.rx.recv() {
                        Ok(submission) => self.enqueue(submission),
                        Err(_) => self.rx_open = false,
                    }
                }
                continue;
            }
            self.wave();
        }
    }

    /// Drains buffered submissions without blocking.
    fn ingest(&mut self) {
        while self.rx_open {
            match self.rx.try_recv() {
                Ok(submission) => self.enqueue(submission),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => self.rx_open = false,
            }
        }
    }

    /// Files a submission into its priority bucket.
    fn enqueue(&mut self, submission: Submission) {
        let priority = submission.request.priority;
        self.pending.push(priority, submission);
    }

    /// Retires queued jobs that died before reaching a walker slot —
    /// cancelled by the caller or past their deadline — so they release
    /// their admission capacity immediately instead of holding it until a
    /// scheduler slot frees up, and never pay for a walker-pool build.
    ///
    /// It runs every turn, so a sweep that finds nothing reads the clock
    /// once and allocates nothing.
    fn reap_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let now = Instant::now();
        let dead = self.pending.extract_if(|submission| {
            submission.cancel.load(Ordering::Relaxed)
                || submission.deadline_at().is_some_and(|d| now >= d)
        });
        for submission in dead {
            // Cancellation wins if both conditions hold (same precedence as
            // the matching check over active jobs).
            let status = if submission.cancel.load(Ordering::Relaxed) {
                JobStatus::Cancelled
            } else {
                JobStatus::DeadlineExpired
            };
            // Pair the gauges exactly like a scheduled job's lifecycle. The
            // job never reached a walker slot, so its whole queued life is
            // its queue wait.
            let queue_wait = submission.submitted_at.elapsed();
            self.metrics.on_start(queue_wait);
            let mut outcome = JobOutcome {
                id: submission.id,
                status,
                samples: 0,
                requested: submission.request.job.samples,
                query_cost: 0,
                budget_consumed: 0,
                budget_refunded: submission.request.job.budget.unwrap_or(0),
                budget_exhausted: false,
                degraded: false,
                degraded_walkers: 0,
                rounds: 0,
                latency: submission.submitted_at.elapsed(),
                queue_wait,
                finish_index: 0,
            };
            outcome.finish_index = self.metrics.on_finish(&outcome, 0);
            self.trace.record(
                submission.id.0,
                TraceEventKind::Finished {
                    status: outcome.status.label(),
                },
            );
            let _ = submission.events.send(SampleEvent::Done(outcome));
        }
    }

    /// Moves queued jobs into the active set while slots are free — highest
    /// priority first, arrival order within a priority, with **aging**:
    /// every [`AGED_PROMOTION_STRIDE`]-th promotion takes the oldest
    /// pending submission regardless of priority, so a low-priority job's
    /// wait in the queue is bounded even under a sustained stream of
    /// higher-priority arrivals.
    ///
    /// A job promoted mid-cycle gets its priority weight in credit, capped
    /// at the waves left in the cycle (the largest credit an active job
    /// holds), so it never lengthens the cycle. With no credit left
    /// anywhere the cycle is over: the job gets none, and the refill that
    /// starts the next cycle gives it its allotment with everyone else's.
    fn promote(&mut self) {
        let waves_left = self.active.iter().map(|job| job.credit).max().unwrap_or(0);
        while self.active.len() < self.config.max_active.max(1) && !self.pending.is_empty() {
            let aged = self.promotions % AGED_PROMOTION_STRIDE == AGED_PROMOTION_STRIDE - 1;
            let submission = self.pending.pop_next(aged).expect("pending is non-empty");
            self.promotions += 1;
            let queue_wait = submission.submitted_at.elapsed();
            self.metrics.on_start(queue_wait);
            let mut job = self.admit(submission, queue_wait);
            job.credit = job.priority.weight().min(waves_left);
            self.active.push(job);
        }
    }

    /// Builds the walker pool of an admitted job over the shared cache; the
    /// driver keeps the job's own query-cost ledger (per-request cost
    /// isolation over pool-wide sharing).
    ///
    /// This is also the **snapshot-on-admit** point of the cross-job
    /// history epoch rule: a job under a reading policy takes its frozen
    /// [`wnw_engine::FrozenHistory`] here, exactly once — publications that
    /// land while it runs are never observed, so its results are a pure
    /// function of (job, snapshot).
    fn admit(&self, submission: Submission, queue_wait: Duration) -> ActiveJob {
        self.trace.record(submission.id.0, TraceEventKind::Admitted);
        let policy = submission.request.history_policy;
        let start = submission.request.job.resolve_start(&*self.cache);
        let key = history_key_of(start, &submission.request.job);
        let read_key = (policy.reads()).then_some(key.as_ref()).flatten();
        let frozen = read_key.and_then(|key| self.history.snapshot(key));
        if read_key.is_some() {
            // A reading policy either found a published history or it did
            // not — either way the lookup is a trace-worthy decision point.
            self.trace.record(
                submission.id.0,
                if frozen.is_some() {
                    TraceEventKind::HistoryHit
                } else {
                    TraceEventKind::HistoryMiss
                },
            );
        }
        let driver =
            JobDriver::with_seed_history(Arc::clone(&self.cache), &submission.request.job, frozen);
        let deadline = submission.deadline_at();
        ActiveJob {
            id: submission.id,
            driver,
            delivered: 0,
            events: submission.events,
            cancel: submission.cancel,
            priority: submission.request.priority,
            deadline,
            submitted_at: submission.submitted_at,
            queue_wait,
            budget: submission.request.job.budget,
            requested: submission.request.job.samples,
            publish_key: policy.publishes().then_some(key).flatten(),
            status: None,
            last_round_cost: 0,
            credit: 0,
        }
    }

    /// One turn's wave: steps one round of every active job with credit
    /// left, all of them in one pool batch ([`JobDriver::step_rounds`]), so
    /// the pool's lanes claim walkers across jobs instead of idling behind
    /// one job's straggler. When no job has credit the cycle is over, and
    /// the wave first starts a new one ([`Self::refill`]).
    ///
    /// Interrupts are checked for every active job before the step, every
    /// stepped job is pumped after it, and every job that is then terminal
    /// is retired, so cancellation, streaming and `Done` keep
    /// round-boundary granularity.
    fn wave(&mut self) {
        if self.active.iter().all(|job| job.credit == 0) {
            self.refill();
        }
        let now = Instant::now();
        let mut batch: Vec<&mut ActiveJob> = self
            .active
            .iter_mut()
            .filter_map(|job| {
                job.check_interrupts(now);
                (job.credit > 0 && !job.terminal()).then_some(job)
            })
            .collect();
        if !batch.is_empty() {
            for job in &mut batch {
                job.credit -= 1;
                if job.driver.rounds() == 0 {
                    self.trace.record(job.id.0, TraceEventKind::FirstRound);
                }
            }
            // Per-batch timing is the one telemetry cost on the hot path;
            // it is gated so a latency-critical deployment can shed the two
            // clock reads per wave.
            let round_start = self.config.telemetry.then(Instant::now);
            let mut drivers: Vec<&mut JobDriver<'static>> =
                batch.iter_mut().map(|job| &mut job.driver).collect();
            JobDriver::step_rounds(&mut drivers, &self.pool);
            if let Some(start) = round_start {
                self.metrics.on_round(start.elapsed());
            }
            let pool_stats = self.cache.query_stats();
            for job in batch {
                job.pump(pool_stats, &self.metrics, &self.trace);
            }
        }
        let retired: Vec<ActiveJob> = self.active.extract_if(.., |job| job.terminal()).collect();
        for job in retired {
            self.finalize(job);
        }
    }

    /// Starts a scheduling cycle: every active job's credit becomes its
    /// cost-weighted allotment (priority weight, normalized by the job's
    /// measured per-round query cost — see [`cost_weighted_rounds`]).
    fn refill(&mut self) {
        // The cheapest measured per-round cost in the active set is the
        // normalization baseline: that job keeps its full weight.
        let cheapest = self
            .active
            .iter()
            .filter_map(ActiveJob::mean_round_cost)
            .fold(None, |best: Option<f64>, cost| {
                Some(best.map_or(cost, |b| b.min(cost)))
            });
        for job in &mut self.active {
            job.credit =
                cost_weighted_rounds(job.priority.weight(), job.mean_round_cost(), cheapest);
        }
    }

    /// Tears a terminal job down: resolves its status, sends the `Done`
    /// event, and records the outcome in the service metrics. This is the
    /// **publication** point of the cross-job history lever: a
    /// `SharedPublish` job's merged walks land in the store here, whatever
    /// its terminal status — a cancelled or expired job's partial history
    /// is still evidence future jobs can reuse.
    fn finalize(&self, mut job: ActiveJob) {
        let rounds = job.driver.rounds();
        let query_cost = job.driver.query_cost();
        let latency = job.submitted_at.elapsed();
        if let Some(key) = job.publish_key {
            if let Some(export) = job.driver.export_shared_history() {
                self.history.publish(key, &export, query_cost);
            }
        }
        let (reports, panic_payload) = job.driver.finish();

        let status = if let Some(payload) = panic_payload {
            JobStatus::Panicked(panic_message(payload.as_ref()))
        } else if let Some(err) = reports.iter().find_map(|r| r.fatal.clone()) {
            JobStatus::Failed(err)
        } else {
            job.status.take().unwrap_or(JobStatus::Completed)
        };

        let samples: usize = reports.iter().map(|r| r.samples.len()).sum();
        let budget_consumed: u64 = reports.iter().map(|r| r.stats.unique_nodes).sum();
        // A degradation (transient fault, exhausted retries, open breaker)
        // does not change the terminal status — the job *completed*, with
        // partial evidence — it is reported as a flag plus a walker count.
        let degraded_walkers = reports.iter().filter(|r| r.degraded.is_some()).count() as u64;
        let mut outcome = JobOutcome {
            id: job.id,
            status,
            samples,
            requested: job.requested,
            query_cost,
            budget_consumed,
            budget_refunded: job.budget.map_or(0, |b| b.saturating_sub(budget_consumed)),
            budget_exhausted: reports.iter().any(|r| r.budget_exhausted),
            degraded: degraded_walkers > 0,
            degraded_walkers,
            rounds,
            latency,
            queue_wait: job.queue_wait,
            finish_index: 0,
        };
        outcome.finish_index = self.metrics.on_finish(&outcome, job.delivered);
        self.trace.record(
            job.id.0,
            TraceEventKind::Finished {
                status: outcome.status.label(),
            },
        );
        let _ = job.events.send(SampleEvent::Done(outcome));
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "sampler panicked".to_string())
}

/// Rounds a job receives this cycle: its [`Priority::weight`], scaled down
/// by how much costlier its rounds are than the cheapest active job's
/// (`cheapest / cost`, both measured in unique-node queries per round).
///
/// * A job with no measurement yet (`cost == None`: it has not completed a
///   round) keeps its full weight — there is nothing to normalize by.
/// * The cheapest job keeps its full weight (ratio 1); a job whose rounds
///   cost `k×` the cheapest gets `weight / k` rounds, rounded, so both
///   consume roughly the same query budget per cycle at equal priority.
/// * The result is clamped to `[1, weight]`: cost weighting throttles, it
///   never starves (min 1) and never out-privileges priority (max weight).
///
/// Scheduling-only: the allotment changes *when* a job's rounds run, never
/// what they compute, so sample multisets stay invariant under it.
fn cost_weighted_rounds(weight: usize, cost: Option<f64>, cheapest: Option<f64>) -> usize {
    let (Some(cost), Some(cheapest)) = (cost, cheapest) else {
        return weight.max(1);
    };
    let scaled = (weight as f64 * (cheapest / cost)).round() as usize;
    scaled.clamp(1, weight.max(1))
}

#[cfg(test)]
mod tests {
    use super::{cost_weighted_rounds, PendingQueue};
    use crate::request::Priority;

    /// The pre-bucket promotion policy, kept as the test oracle: a linear
    /// `max_by` over (priority, earliest-first) on a Vec in arrival order,
    /// with aged picks taking index 0.
    struct LinearModel {
        items: Vec<(Priority, u32)>,
    }

    impl LinearModel {
        fn pop_next(&mut self, aged: bool) -> Option<u32> {
            if self.items.is_empty() {
                return None;
            }
            let best = if aged {
                0
            } else {
                self.items
                    .iter()
                    .enumerate()
                    .max_by(|(ia, (pa, _)), (ib, (pb, _))| {
                        (pa, std::cmp::Reverse(ia)).cmp(&(pb, std::cmp::Reverse(ib)))
                    })
                    .map(|(i, _)| i)
                    .expect("non-empty")
            };
            Some(self.items.remove(best).1)
        }
    }

    #[test]
    fn pending_queue_matches_the_linear_scan_oracle() {
        let priorities = [Priority::Low, Priority::Normal, Priority::High];
        let mut queue: PendingQueue<u32> = PendingQueue::new();
        let mut model = LinearModel { items: Vec::new() };
        let mut rng: u64 = 0x5EED_CAFE;
        let mut next_item: u32 = 0;
        let mut promotions: u64 = 0;
        for _ in 0..2000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let roll = (rng >> 33) as usize;
            if roll % 5 < 3 || queue.is_empty() {
                let p = priorities[roll % 3];
                queue.push(p, next_item);
                model.items.push((p, next_item));
                next_item += 1;
            } else {
                let aged = promotions % 4 == 3;
                promotions += 1;
                assert_eq!(queue.pop_next(aged), model.pop_next(aged));
            }
            assert_eq!(queue.len(), model.items.len());
            assert_eq!(queue.is_empty(), model.items.is_empty());
        }
        // Drain both completely, still in lockstep.
        let mut aged_tick = 0u64;
        while !queue.is_empty() {
            let aged = aged_tick % 4 == 3;
            aged_tick += 1;
            assert_eq!(queue.pop_next(aged), model.pop_next(aged));
        }
        assert!(model.items.is_empty());
        assert_eq!(queue.pop_next(false), None);
        assert_eq!(queue.pop_next(true), None);
    }

    #[test]
    fn pending_queue_is_fifo_within_priority_and_aged_takes_oldest() {
        let mut q: PendingQueue<u32> = PendingQueue::new();
        q.push(Priority::Low, 0);
        q.push(Priority::High, 1);
        q.push(Priority::High, 2);
        q.push(Priority::Normal, 3);
        assert_eq!(q.pop_next(false), Some(1)); // highest priority, oldest first
        assert_eq!(q.pop_next(true), Some(0)); // aged: globally oldest
        assert_eq!(q.pop_next(false), Some(2));
        assert_eq!(q.pop_next(false), Some(3));
        assert_eq!(q.pop_next(false), None);
    }

    #[test]
    fn pending_queue_extract_if_returns_arrival_order() {
        let mut q: PendingQueue<u32> = PendingQueue::new();
        q.push(Priority::High, 10);
        q.push(Priority::Low, 11);
        q.push(Priority::Normal, 12);
        q.push(Priority::High, 13);
        let removed = q.extract_if(|&item| item != 12);
        assert_eq!(removed, vec![10, 11, 13]); // arrival order, not bucket order
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_next(false), Some(12));
    }

    #[test]
    fn equal_costs_keep_full_priority_weights() {
        for weight in [1, 2, 4] {
            assert_eq!(cost_weighted_rounds(weight, Some(10.0), Some(10.0)), weight);
        }
    }

    #[test]
    fn costlier_jobs_are_throttled_proportionally() {
        // 4× the cheapest job's per-round cost → a quarter of the rounds.
        assert_eq!(cost_weighted_rounds(4, Some(40.0), Some(10.0)), 1);
        // 2× → half.
        assert_eq!(cost_weighted_rounds(4, Some(20.0), Some(10.0)), 2);
        // The cheapest job itself keeps its weight.
        assert_eq!(cost_weighted_rounds(4, Some(10.0), Some(10.0)), 4);
    }

    #[test]
    fn throttling_never_starves_or_out_privileges() {
        // Extremely expensive job: still at least one round per cycle.
        assert_eq!(cost_weighted_rounds(4, Some(1e9), Some(1.0)), 1);
        // The ratio can never push a job above its priority weight (the
        // baseline is the minimum, so the ratio is ≤ 1 by construction —
        // clamp anyway against future baseline changes).
        assert_eq!(cost_weighted_rounds(2, Some(1.0), Some(50.0)), 2);
        // Weight-1 (low priority) jobs are untouched by the weighting.
        assert_eq!(cost_weighted_rounds(1, Some(500.0), Some(1.0)), 1);
    }

    #[test]
    fn unmeasured_jobs_keep_their_weight() {
        assert_eq!(cost_weighted_rounds(4, None, Some(3.0)), 4);
        assert_eq!(cost_weighted_rounds(2, Some(3.0), None), 2);
        assert_eq!(cost_weighted_rounds(2, None, None), 2);
        // Degenerate zero weight is still at least one round.
        assert_eq!(cost_weighted_rounds(0, None, None), 1);
        assert_eq!(cost_weighted_rounds(0, Some(2.0), Some(1.0)), 1);
    }
}
