//! Live service-level metrics.
//!
//! [`ServiceMetrics`] is a lock-free bundle of atomic counters updated by
//! the submit path and the scheduler; [`ServiceMetricsSnapshot`] is the
//! consistent-enough copy handed to callers (and shaped for a future HTTP
//! `/metrics` frontend: every field is a plain integer gauge/counter plus
//! the pool's [`QueryStats`]).

use crate::stream::{JobOutcome, JobStatus};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use wnw_access::counter::QueryStats;
use wnw_access::ResilienceStats;
use wnw_engine::HistoryStoreStats;
use wnw_runtime::PoolStats;
use wnw_telemetry::{saturating_micros, Histogram, HistogramSnapshot};

/// Atomic counters describing the service's lifetime so far.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Queued + running, maintained as its own counter so admission is a
    /// single atomic reserve (a sum of two gauges would race against
    /// concurrent `submit` calls and transiently undercount mid-promotion).
    in_flight: AtomicU64,
    submitted: AtomicU64,
    rejected: AtomicU64,
    queued: AtomicU64,
    running: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    expired: AtomicU64,
    failed: AtomicU64,
    /// Jobs that finished as degraded partials (a walker was stopped by a
    /// transient fault, exhausted retries, or an open breaker).
    degraded: AtomicU64,
    /// Walkers stopped by a degradation, lifetime, across all jobs.
    walkers_degraded: AtomicU64,
    samples_delivered: AtomicU64,
    isolated_query_cost: AtomicU64,
    budget_refunded: AtomicU64,
    latency_micros: AtomicU64,
    finished: AtomicU64,
    /// Jobs that have left the queue (scheduled onto walker slots, or reaped
    /// from the queue as cancelled/expired) — the denominator of the mean
    /// queue wait.
    started: AtomicU64,
    queue_wait_micros: AtomicU64,
    queue_wait_max_micros: AtomicU64,
    /// Distribution counterparts of the aggregates above. Recording is a
    /// handful of relaxed atomics per *job* (or per delivered first sample),
    /// so these are unconditional; only the per-round duration histogram
    /// sits on a hot path, and the scheduler gates feeding it behind its
    /// `telemetry` config flag.
    queue_wait: Histogram,
    latency: Histogram,
    first_sample: Histogram,
    job_cost: Histogram,
    round_duration: Histogram,
}

impl ServiceMetrics {
    /// Atomically reserves an in-flight slot: succeeds only while the count
    /// is below `limit` (no check-then-act window between concurrent
    /// submitters). On failure, returns the count that blocked admission.
    pub(crate) fn try_admit(&self, limit: u64) -> Result<(), u64> {
        self.in_flight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < limit).then_some(n + 1)
            })
            .map(|_| ())
    }

    /// Completes a successful [`try_admit`](Self::try_admit) reservation.
    pub(crate) fn on_submit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.queued.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Rolls a [`try_admit`](Self::try_admit) + [`on_submit`](Self::on_submit)
    /// back when the submission could not be handed to the scheduler after
    /// all.
    pub(crate) fn on_submit_undone(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.submitted.fetch_sub(1, Ordering::Relaxed);
        self.queued.fetch_sub(1, Ordering::Relaxed);
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a job leaving the queue after `wait` (admission→first-round
    /// latency: the time between `submit` and the scheduler granting walker
    /// slots — or, for jobs reaped while still queued, their whole queued
    /// life).
    pub(crate) fn on_start(&self, wait: Duration) {
        self.queued.fetch_sub(1, Ordering::Relaxed);
        self.running.fetch_add(1, Ordering::Relaxed);
        self.started.fetch_add(1, Ordering::Relaxed);
        // Saturating, not `as_micros() as u64`: a Duration can hold ~10^19 µs
        // and a plain cast keeps only the low 64 bits.
        let micros = saturating_micros(wait);
        self.queue_wait_micros.fetch_add(micros, Ordering::Relaxed);
        self.queue_wait_max_micros
            .fetch_max(micros, Ordering::Relaxed);
        self.queue_wait.record(micros);
    }

    /// Records the submit→first-delivered-sample latency of a job (once per
    /// job, when its first sample reaches the consumer's channel).
    pub(crate) fn on_first_sample(&self, elapsed: Duration) {
        self.first_sample.record_duration(elapsed);
    }

    /// Records one scheduler batch's wall-clock duration: one wave of a
    /// cycle, which steps every job in it by one round in a single pool
    /// batch, so it is one sample per batch, not per job-round. Only called
    /// when the scheduler's `telemetry` flag is on — this is the one
    /// recording site on the per-batch hot path.
    pub(crate) fn on_round(&self, duration: Duration) {
        self.round_duration.record_duration(duration);
    }

    /// Records a terminal job and returns its 0-based finish index.
    /// `delivered` is the number of samples that actually reached the
    /// consumer's channel — less than `outcome.samples` when the consumer
    /// hung up mid-job.
    pub(crate) fn on_finish(&self, outcome: &JobOutcome, delivered: u64) -> u64 {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.running.fetch_sub(1, Ordering::Relaxed);
        let bucket = match outcome.status {
            JobStatus::Completed => &self.completed,
            JobStatus::Cancelled => &self.cancelled,
            JobStatus::DeadlineExpired => &self.expired,
            JobStatus::Failed(_) | JobStatus::Panicked(_) => &self.failed,
        };
        bucket.fetch_add(1, Ordering::Relaxed);
        if outcome.degraded {
            self.degraded.fetch_add(1, Ordering::Relaxed);
            self.walkers_degraded
                .fetch_add(outcome.degraded_walkers, Ordering::Relaxed);
        }
        self.samples_delivered
            .fetch_add(delivered, Ordering::Relaxed);
        self.isolated_query_cost
            .fetch_add(outcome.query_cost, Ordering::Relaxed);
        self.budget_refunded
            .fetch_add(outcome.budget_refunded, Ordering::Relaxed);
        let latency_micros = saturating_micros(outcome.latency);
        self.latency_micros
            .fetch_add(latency_micros, Ordering::Relaxed);
        self.latency.record(latency_micros);
        self.job_cost.record(outcome.query_cost);
        self.finished.fetch_add(1, Ordering::Relaxed)
    }

    /// Jobs currently queued or running (the admission-control measure;
    /// production code reserves through [`try_admit`](Self::try_admit)).
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// A copy of every counter, combined with the shared pool cache's stats,
    /// the persistent worker pool's round-dispatch counters, and the
    /// cross-job history store's reuse counters.
    pub(crate) fn snapshot(
        &self,
        pool: QueryStats,
        worker_pool: PoolStats,
        history: HistoryStoreStats,
        resilience: ResilienceStats,
    ) -> ServiceMetricsSnapshot {
        let finished = self.finished.load(Ordering::Relaxed);
        let latency_micros = self.latency_micros.load(Ordering::Relaxed);
        let started = self.started.load(Ordering::Relaxed);
        let queue_wait_micros = self.queue_wait_micros.load(Ordering::Relaxed);
        ServiceMetricsSnapshot {
            jobs_submitted: self.submitted.load(Ordering::Relaxed),
            jobs_rejected: self.rejected.load(Ordering::Relaxed),
            jobs_queued: self.queued.load(Ordering::Relaxed),
            jobs_running: self.running.load(Ordering::Relaxed),
            jobs_completed: self.completed.load(Ordering::Relaxed),
            jobs_cancelled: self.cancelled.load(Ordering::Relaxed),
            jobs_expired: self.expired.load(Ordering::Relaxed),
            jobs_failed: self.failed.load(Ordering::Relaxed),
            jobs_degraded: self.degraded.load(Ordering::Relaxed),
            walkers_degraded: self.walkers_degraded.load(Ordering::Relaxed),
            jobs_finished: finished,
            samples_delivered: self.samples_delivered.load(Ordering::Relaxed),
            aggregate_query_cost: pool.unique_nodes,
            isolated_query_cost: self.isolated_query_cost.load(Ordering::Relaxed),
            budget_refunded: self.budget_refunded.load(Ordering::Relaxed),
            mean_latency: latency_micros
                .checked_div(finished)
                .map_or(Duration::ZERO, Duration::from_micros),
            jobs_started: started,
            mean_queue_wait: queue_wait_micros
                .checked_div(started)
                .map_or(Duration::ZERO, Duration::from_micros),
            max_queue_wait: Duration::from_micros(
                self.queue_wait_max_micros.load(Ordering::Relaxed),
            ),
            pool,
            worker_pool,
            history,
            resilience,
            queue_wait_histogram: self.queue_wait.snapshot(),
            latency_histogram: self.latency.snapshot(),
            first_sample_histogram: self.first_sample.snapshot(),
            job_cost_histogram: self.job_cost.snapshot(),
            round_duration_histogram: self.round_duration.snapshot(),
        }
    }
}

/// A point-in-time copy of the service's metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceMetricsSnapshot {
    /// Requests admitted (lifetime).
    pub jobs_submitted: u64,
    /// Requests refused at the door (lifetime).
    pub jobs_rejected: u64,
    /// Jobs admitted but not yet scheduled (gauge).
    pub jobs_queued: u64,
    /// Jobs currently holding walker slots (gauge).
    pub jobs_running: u64,
    /// Jobs that met their quota or ran their budget out (lifetime).
    pub jobs_completed: u64,
    /// Jobs cancelled by the caller or a dropped stream (lifetime).
    pub jobs_cancelled: u64,
    /// Jobs stopped at their deadline (lifetime).
    pub jobs_expired: u64,
    /// Jobs stopped by an access error or sampler panic (lifetime).
    pub jobs_failed: u64,
    /// Jobs that finished as **degraded partials**: a walker was stopped by
    /// a transient fault, exhausted retries, or an open circuit breaker,
    /// and the job completed with the samples it had (lifetime). A subset
    /// of [`jobs_completed`](Self::jobs_completed) in the common case —
    /// degradation flags the outcome, it does not change the status.
    pub jobs_degraded: u64,
    /// Walkers stopped by a degradation, lifetime, across all jobs.
    pub walkers_degraded: u64,
    /// Total terminal jobs (= completed + cancelled + expired + failed).
    pub jobs_finished: u64,
    /// Samples streamed to consumers (lifetime).
    pub samples_delivered: u64,
    /// Distinct nodes the *service* paid for, across all jobs — the shared
    /// cache charges each node once no matter how many jobs touch it.
    pub aggregate_query_cost: u64,
    /// Sum of the finished jobs' own unique-node costs — what the same
    /// requests would have paid as isolated runs. The difference to
    /// [`aggregate_query_cost`](Self::aggregate_query_cost) is the
    /// cross-job shared-cache saving.
    pub isolated_query_cost: u64,
    /// Unused budget returned by early-stopped jobs (lifetime).
    pub budget_refunded: u64,
    /// Mean submit-to-done latency over finished jobs.
    pub mean_latency: Duration,
    /// Jobs that have left the queue so far (scheduled onto walker slots, or
    /// reaped from the queue as cancelled/expired) — the population behind
    /// the queue-wait aggregates below.
    pub jobs_started: u64,
    /// Mean admission→first-round wait over [`jobs_started`](Self::jobs_started)
    /// — how long a job sits admitted before the scheduler grants it walker
    /// slots (scheduling latency, as opposed to the sampling work itself).
    pub mean_queue_wait: Duration,
    /// Worst admission→first-round wait seen so far.
    pub max_queue_wait: Duration,
    /// The shared pool cache's raw counters.
    pub pool: QueryStats,
    /// The persistent worker pool's round-dispatch counters:
    /// `rounds_dispatched` (rounds fanned over the parked workers),
    /// `spawnless_rounds` (rounds run inline on the scheduler thread —
    /// 1-walker jobs, wound-down jobs, width-1 pools), `worker_wakeups`
    /// (times a parked worker woke and found work), and `workers` (threads
    /// spawned at pool startup — constant for the service's whole life:
    /// the zero-spawn guarantee made observable).
    pub worker_pool: PoolStats,
    /// The cross-job [`HistoryStore`](wnw_engine::HistoryStore)'s counters:
    /// snapshot `hits`/`misses`, `publications` (epoch bumps),
    /// `published_walks`, `reused_walks`, and `reuse_savings` — the
    /// unique-node query cost of the walk histories reusing jobs inherited
    /// instead of re-spending.
    pub history: HistoryStoreStats,
    /// The resilience layer's counters (retries, backoff waits, honored
    /// rate limits, breaker transitions, and the retries-per-query
    /// histogram), when the service was built with a
    /// [`ResilienceMonitor`](wnw_access::ResilienceMonitor) attached via
    /// [`ServiceBuilder::resilience`](crate::ServiceBuilder::resilience).
    /// All-zero otherwise.
    pub resilience: ResilienceStats,
    /// Distribution of admission→first-round queue waits (microseconds),
    /// over the same population as [`mean_queue_wait`](Self::mean_queue_wait).
    pub queue_wait_histogram: HistogramSnapshot,
    /// Distribution of submit-to-done latencies (microseconds) over
    /// finished jobs.
    pub latency_histogram: HistogramSnapshot,
    /// Distribution of submit→first-delivered-sample latencies
    /// (microseconds) — the paper's anytime promise made measurable. Only
    /// jobs that delivered at least one sample appear.
    pub first_sample_histogram: HistogramSnapshot,
    /// Distribution of per-job unique-node query costs over finished jobs.
    pub job_cost_histogram: HistogramSnapshot,
    /// Distribution of scheduler batch durations (microseconds): one sample
    /// per wave, where a wave steps every job in it by one round in one pool
    /// batch. Its count is therefore the number of batches run, which is
    /// below the sum of the jobs' rounds whenever jobs share waves. Empty
    /// when the service runs with telemetry off.
    pub round_duration_histogram: HistogramSnapshot,
}

impl ServiceMetricsSnapshot {
    /// Unique-node queries saved by cross-job cache sharing, relative to
    /// isolated runs of the same finished jobs.
    pub fn shared_cache_savings(&self) -> u64 {
        self.isolated_query_cost
            .saturating_sub(self.aggregate_query_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::JobId;

    fn outcome(status: JobStatus, samples: usize, cost: u64) -> JobOutcome {
        JobOutcome {
            id: JobId(0),
            status,
            samples,
            requested: samples,
            query_cost: cost,
            budget_consumed: cost,
            budget_refunded: 3,
            budget_exhausted: false,
            degraded: false,
            degraded_walkers: 0,
            rounds: 1,
            latency: Duration::from_micros(500),
            queue_wait: Duration::from_micros(100),
            finish_index: 0,
        }
    }

    #[test]
    fn lifecycle_counters_balance() {
        let metrics = ServiceMetrics::default();
        metrics.try_admit(2).unwrap();
        metrics.on_submit();
        metrics.try_admit(2).unwrap();
        metrics.on_submit();
        assert_eq!(metrics.try_admit(2), Err(2), "cap reached atomically");
        metrics.on_reject();
        assert_eq!(metrics.in_flight(), 2);
        metrics.on_start(Duration::from_micros(300));
        assert_eq!(metrics.in_flight(), 2);
        let first = metrics.on_finish(&outcome(JobStatus::Completed, 10, 40), 10);
        assert_eq!(first, 0);
        metrics.on_start(Duration::from_micros(100));
        let second = metrics.on_finish(&outcome(JobStatus::Cancelled, 2, 5), 2);
        assert_eq!(second, 1);
        assert_eq!(metrics.in_flight(), 0, "finishes release admission slots");

        let snap = metrics.snapshot(
            QueryStats {
                unique_nodes: 30,
                ..QueryStats::default()
            },
            PoolStats {
                workers: 3,
                rounds_dispatched: 12,
                spawnless_rounds: 5,
                worker_wakeups: 30,
            },
            HistoryStoreStats {
                hits: 2,
                misses: 1,
                publications: 3,
                published_walks: 90,
                reused_walks: 60,
                reuse_savings: 41,
                epoch: 3,
            },
            ResilienceStats::default(),
        );
        assert_eq!(snap.jobs_submitted, 2);
        assert_eq!(snap.jobs_rejected, 1);
        assert_eq!(snap.jobs_queued, 0);
        assert_eq!(snap.jobs_running, 0);
        assert_eq!(snap.jobs_completed, 1);
        assert_eq!(snap.jobs_cancelled, 1);
        assert_eq!(snap.jobs_finished, 2);
        assert_eq!(snap.samples_delivered, 12);
        assert_eq!(snap.isolated_query_cost, 45);
        assert_eq!(snap.aggregate_query_cost, 30);
        assert_eq!(snap.shared_cache_savings(), 15);
        assert_eq!(snap.budget_refunded, 6);
        assert_eq!(snap.mean_latency, Duration::from_micros(500));
        assert_eq!(snap.jobs_started, 2);
        assert_eq!(snap.mean_queue_wait, Duration::from_micros(200));
        assert_eq!(snap.max_queue_wait, Duration::from_micros(300));
        assert_eq!(snap.worker_pool.rounds_dispatched, 12);
        assert_eq!(snap.worker_pool.spawnless_rounds, 5);
        assert_eq!(snap.worker_pool.worker_wakeups, 30);
        assert_eq!(snap.worker_pool.workers, 3);
        assert_eq!(snap.history.hits, 2);
        assert_eq!(snap.history.reuse_savings, 41);
        assert_eq!(snap.history.epoch, 3);
        assert_eq!(snap.queue_wait_histogram.count, 2);
        assert_eq!(snap.queue_wait_histogram.max, 300);
        assert_eq!(snap.latency_histogram.count, 2);
        assert_eq!(snap.latency_histogram.min, 500);
        assert_eq!(snap.job_cost_histogram.count, 2);
        assert_eq!(snap.job_cost_histogram.sum, 45);
        assert!(snap.first_sample_histogram.is_empty());
        assert!(snap.round_duration_histogram.is_empty());
    }

    #[test]
    fn degraded_outcomes_count_jobs_and_walkers() {
        let metrics = ServiceMetrics::default();
        metrics.try_admit(8).unwrap();
        metrics.on_submit();
        metrics.on_start(Duration::ZERO);
        let mut partial = outcome(JobStatus::Completed, 4, 9);
        partial.degraded = true;
        partial.degraded_walkers = 3;
        metrics.on_finish(&partial, 4);
        metrics.try_admit(8).unwrap();
        metrics.on_submit();
        metrics.on_start(Duration::ZERO);
        metrics.on_finish(&outcome(JobStatus::Completed, 2, 3), 2);
        let snap = metrics.snapshot(
            QueryStats::default(),
            PoolStats::default(),
            HistoryStoreStats::default(),
            ResilienceStats::default(),
        );
        assert_eq!(snap.jobs_completed, 2, "degraded partials still complete");
        assert_eq!(snap.jobs_degraded, 1);
        assert_eq!(snap.walkers_degraded, 3);
    }

    #[test]
    fn first_sample_and_round_histograms_record() {
        let metrics = ServiceMetrics::default();
        metrics.on_first_sample(Duration::from_micros(250));
        metrics.on_round(Duration::from_micros(40));
        metrics.on_round(Duration::from_micros(60));
        let snap = metrics.snapshot(
            QueryStats::default(),
            PoolStats::default(),
            HistoryStoreStats::default(),
            ResilienceStats::default(),
        );
        assert_eq!(snap.first_sample_histogram.count, 1);
        assert_eq!(snap.first_sample_histogram.max, 250);
        assert_eq!(snap.round_duration_histogram.count, 2);
        assert_eq!(snap.round_duration_histogram.sum, 100);
    }

    #[test]
    fn over_u64_micros_durations_saturate_instead_of_truncating() {
        // Duration can hold ~1.8e25 µs; `as_micros() as u64` keeps the low
        // 64 bits, which for this value would truncate to a *small* number
        // and silently zero the queue-wait aggregates.
        let huge = Duration::from_secs(u64::MAX / 1_000_000 + 10);
        assert!(huge.as_micros() > u128::from(u64::MAX));
        let metrics = ServiceMetrics::default();
        metrics.try_admit(1).unwrap();
        metrics.on_submit();
        metrics.on_start(huge);
        let mut big_latency = outcome(JobStatus::Completed, 1, 1);
        big_latency.latency = huge;
        metrics.on_finish(&big_latency, 1);
        let snap = metrics.snapshot(
            QueryStats::default(),
            PoolStats::default(),
            HistoryStoreStats::default(),
            ResilienceStats::default(),
        );
        assert_eq!(snap.max_queue_wait, Duration::from_micros(u64::MAX));
        assert_eq!(snap.queue_wait_histogram.max, u64::MAX);
        assert_eq!(snap.latency_histogram.max, u64::MAX);
        assert_eq!(snap.mean_latency, Duration::from_micros(u64::MAX));
    }

    #[test]
    fn empty_snapshot_has_zero_latency() {
        let metrics = ServiceMetrics::default();
        let snap = metrics.snapshot(
            QueryStats::default(),
            PoolStats::default(),
            HistoryStoreStats::default(),
            ResilienceStats::default(),
        );
        assert_eq!(snap.mean_latency, Duration::ZERO);
        assert_eq!(snap.shared_cache_savings(), 0);
        assert_eq!(snap.jobs_started, 0);
        assert_eq!(snap.mean_queue_wait, Duration::ZERO);
        assert_eq!(snap.max_queue_wait, Duration::ZERO);
        assert_eq!(snap.worker_pool, PoolStats::default());
        assert_eq!(snap.history, HistoryStoreStats::default());
        assert!(snap.queue_wait_histogram.is_empty());
        assert!(snap.latency_histogram.is_empty());
        assert!(snap.first_sample_histogram.is_empty());
        assert!(snap.job_cost_histogram.is_empty());
        assert!(snap.round_duration_histogram.is_empty());
    }
}
