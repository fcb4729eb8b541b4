//! # wnw-service — a multi-job sampling service with streaming delivery
//!
//! The paper's pitch is that WALK-ESTIMATE makes each sample cheap enough
//! that sampling stops being an offline batch job and becomes an **online
//! service**. This crate is that serving layer over the concurrent engine
//! of `wnw-engine`: a long-lived [`SamplingService`] accepting many
//! concurrent [`SampleRequest`]s against one shared network handle.
//!
//! * **Admission control.** Requests are validated and capacity-checked at
//!   the door ([`AdmissionError`]); beyond `max_in_flight` jobs the service
//!   sheds load instead of queueing unboundedly.
//! * **Batched multi-job scheduling on one persistent pool.** One scheduler
//!   thread interleaves all active jobs **round by round** over one
//!   persistent [`wnw_runtime::WorkerPool`] spawned at service startup —
//!   after that, no round ever spawns an OS thread (the pool's counters in
//!   [`ServiceMetricsSnapshot::worker_pool`] make this observable). The
//!   rounds of one scheduling wave, one per job, run as a single pool
//!   batch, so the pool's lanes claim walkers across jobs.
//!   Interleaving is weighted by [`Priority`] and normalized by each job's
//!   *measured per-round query cost*: a job whose rounds cost `k×` the
//!   cheapest active job's gets `weight / k` rounds per cycle (never less
//!   than one), so heterogeneous jobs share the pool by work done, big jobs
//!   never starve small ones, and high-priority jobs simply advance more
//!   rounds per cycle.
//! * **Streaming delivery.** A [`SampleStream`] yields
//!   [`SampleEvent::Sample`] as walkers land samples, interleaved with
//!   monotone [`SampleEvent::Progress`] snapshots, terminated by one
//!   [`SampleEvent::Done`] carrying the [`JobOutcome`].
//! * **Cooperative cancellation.** [`JobHandle::cancel`], a request
//!   deadline, or dropping the stream stops a job at the next round
//!   boundary; delivered samples are kept and unused budget is refunded in
//!   the outcome (and in [`ServiceMetricsSnapshot::budget_refunded`]).
//! * **Shared cache, isolated budgets.** Every job reads through one
//!   shared, lock-striped `CachedNetwork` — a node any job has paid for is
//!   free for all — while each request meters its own traffic through a
//!   job-level `MeteredNetwork` view and enforces its own per-walker budget
//!   shares. [`ServiceMetricsSnapshot::shared_cache_savings`] quantifies
//!   the win over isolated runs.
//! * **Reproducibility under co-load.** A request's accepted-sample
//!   multiset is a pure function of its job (spec, seed, walkers, budget):
//!   identical at any pool width and no matter what else the service is
//!   running. Walk history is cooperative *within* a job by default.
//! * **Cross-job history reuse (opt-in).** A request's
//!   [`HistoryPolicy`] can plug it into the
//!   service-scoped, epoch-versioned [`HistoryStore`]:
//!   `SharedReadOnly`/`SharedPublish` jobs read an immutable snapshot of
//!   the walks *completed prior jobs* published (frozen at admission — the
//!   snapshot-on-admit epoch rule, so mid-job publications are never
//!   observed) and `SharedPublish` jobs publish their own merged walks at
//!   reap. Reused counts are discounted by a
//!   [`ReuseCorrection`]; the backward
//!   estimator stays unbiased either way, so reuse only reduces variance
//!   and query cost. [`ServiceMetricsSnapshot::history`] quantifies the
//!   hits, misses, and inherited query savings.
//! * **Frontend support.** A [`JobRegistry`] maps [`JobId`]s back to their
//!   streams and cancellation handles, so frontends (like the HTTP gateway
//!   in `wnw-gateway`) can serve remote clients that return later holding
//!   nothing but the id; queue-wait aggregates in
//!   [`ServiceMetricsSnapshot`] expose scheduling latency alongside the
//!   query savings.
//!
//! ```
//! use wnw_access::SimulatedOsn;
//! use wnw_engine::SampleJob;
//! use wnw_graph::generators::random::barabasi_albert;
//! use wnw_mcmc::RandomWalkKind;
//! use wnw_service::{SampleEvent, SampleRequest, SamplingService};
//!
//! let osn = SimulatedOsn::new(barabasi_albert(500, 3, 7).unwrap());
//! let service = SamplingService::builder(osn).pool_threads(2).build();
//!
//! // Submit two concurrent requests; results stream back per sample.
//! let a = service
//!     .submit(SampleRequest::new(
//!         SampleJob::walk_estimate(RandomWalkKind::Simple, 12, 42).with_diameter_estimate(5),
//!     ))
//!     .unwrap();
//! let b = service
//!     .submit(SampleRequest::new(
//!         SampleJob::walk_estimate(RandomWalkKind::MetropolisHastings, 8, 43)
//!             .with_diameter_estimate(5),
//!     ))
//!     .unwrap();
//!
//! let (samples, outcome) = a.stream.collect_all();
//! assert_eq!(samples.len(), 12);
//! assert_eq!(outcome.unwrap().samples, 12);
//! for event in b.stream {
//!     if let SampleEvent::Done(outcome) = event {
//!         assert_eq!(outcome.samples, 8);
//!     }
//! }
//! let metrics = service.shutdown();
//! assert_eq!(metrics.jobs_completed, 2);
//! assert_eq!(metrics.samples_delivered, 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod registry;
pub mod request;
mod scheduler;
pub mod service;
pub mod stream;

pub use metrics::{ServiceMetrics, ServiceMetricsSnapshot};
pub use registry::{ClaimError, JobRegistry};
pub use request::{AdmissionError, JobId, Priority, SampleRequest};
pub use service::{SamplingService, ServiceBuilder, ServiceConfig};
pub use stream::{
    JobHandle, JobOutcome, JobStatus, JobTicket, ProgressUpdate, SampleEvent, SampleStream,
    StreamPoll,
};
// The persistent worker pool the scheduler runs rounds on; re-exported so
// frontends can name its stats type without depending on `wnw-runtime`.
pub use wnw_runtime::{PoolStats, WorkerPool};
// The cross-job history types a frontend needs to express and observe the
// reuse lever, re-exported from the engine for the same reason.
pub use wnw_engine::{HistoryPolicy, HistoryStore, HistoryStoreStats, ReuseCorrection};
// The telemetry substrate's types a frontend needs to read the metrics
// snapshot's histograms and the per-job lifecycle trace.
pub use wnw_telemetry::{Histogram, HistogramSnapshot, TraceEvent, TraceEventKind, TraceLog};
// The resilience layer's handle and stats, re-exported so frontends can
// attach a monitor and read retry/backoff/breaker counters without
// depending on `wnw-access` directly.
pub use wnw_access::{ResilienceMonitor, ResilienceStats};

#[cfg(test)]
mod tests {
    use super::*;
    use wnw_access::SimulatedOsn;
    use wnw_engine::SampleJob;
    use wnw_graph::generators::random::barabasi_albert;
    use wnw_mcmc::RandomWalkKind;

    fn osn(n: usize, seed: u64) -> SimulatedOsn {
        SimulatedOsn::new(barabasi_albert(n, 3, seed).unwrap())
    }

    fn we_job(samples: usize, seed: u64) -> SampleJob {
        SampleJob::walk_estimate(RandomWalkKind::Simple, samples, seed)
            .with_walkers(2)
            .with_diameter_estimate(4)
    }

    #[test]
    fn single_request_completes_and_streams() {
        let service = SamplingService::builder(osn(300, 1))
            .pool_threads(2)
            .build();
        let ticket = service.submit(SampleRequest::new(we_job(10, 5))).unwrap();
        assert_eq!(ticket.id, JobId(0));
        let (samples, outcome) = ticket.stream.collect_all();
        let outcome = outcome.expect("service delivers Done");
        assert_eq!(samples.len(), 10);
        assert_eq!(outcome.samples, 10);
        assert_eq!(outcome.status, JobStatus::Completed);
        assert_eq!(outcome.finish_index, 0);
        assert!(outcome.query_cost > 0);
        assert_eq!(outcome.budget_refunded, 0, "unbudgeted job refunds nothing");
        let metrics = service.metrics();
        assert_eq!(metrics.jobs_completed, 1);
        assert_eq!(metrics.samples_delivered, 10);
        assert_eq!(metrics.jobs_running, 0);
        assert_eq!(metrics.jobs_queued, 0);
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let service = SamplingService::new(osn(100, 2));
        let zero_samples = SampleRequest::new(we_job(10, 1)).job_with(|j| j.samples = 0);
        assert!(matches!(
            service.submit(zero_samples),
            Err(AdmissionError::Invalid(_))
        ));
        let zero_walkers = SampleRequest::new(we_job(5, 1)).job_with(|j| j.walkers = 0);
        assert!(matches!(
            service.submit(zero_walkers),
            Err(AdmissionError::Invalid(_))
        ));
        assert_eq!(service.metrics().jobs_rejected, 2);
        assert_eq!(service.metrics().jobs_submitted, 0);
    }

    impl SampleRequest {
        fn job_with(mut self, f: impl FnOnce(&mut SampleJob)) -> Self {
            f(&mut self.job);
            self
        }
    }

    #[test]
    fn saturation_sheds_load() {
        // Paused service: admitted jobs stay queued, so the in-flight gauge
        // is deterministic when the cap is hit.
        let service = SamplingService::builder(osn(200, 3))
            .max_in_flight(2)
            .start_paused()
            .build();
        assert!(service.is_paused());
        let a = service.submit(SampleRequest::new(we_job(4, 1))).unwrap();
        let b = service.submit(SampleRequest::new(we_job(4, 2))).unwrap();
        let rejected = service.submit(SampleRequest::new(we_job(4, 3)));
        assert!(matches!(
            rejected,
            Err(AdmissionError::Saturated {
                in_flight: 2,
                limit: 2
            })
        ));
        service.resume();
        assert!(a.stream.wait().is_some());
        assert!(b.stream.wait().is_some());
        let metrics = service.shutdown();
        assert_eq!(metrics.jobs_rejected, 1);
        assert_eq!(metrics.jobs_completed, 2);
    }

    #[test]
    fn dropping_the_stream_cancels_the_job() {
        let service = SamplingService::builder(osn(400, 4))
            .pool_threads(1)
            .build();
        let big = service
            .submit(SampleRequest::new(we_job(100_000, 9)))
            .unwrap();
        drop(big.stream);
        // The scheduler notices the hang-up at the next delivery and frees
        // the slot; shutdown then drains immediately instead of sampling
        // 100k nodes.
        let metrics = service.shutdown();
        assert_eq!(metrics.jobs_cancelled, 1);
        assert_eq!(metrics.jobs_running, 0);
    }

    #[test]
    fn deadline_zero_expires_at_first_round_boundary() {
        let service = SamplingService::builder(osn(200, 5)).build();
        let ticket = service
            .submit(SampleRequest::new(we_job(50_000, 11)).with_deadline(std::time::Duration::ZERO))
            .unwrap();
        let outcome = ticket.stream.wait().expect("Done event");
        assert_eq!(outcome.status, JobStatus::DeadlineExpired);
        assert_eq!(outcome.samples, 0);
        assert_eq!(service.metrics().jobs_expired, 1);
    }

    #[test]
    fn absurd_deadline_does_not_kill_the_scheduler() {
        // Instant + Duration::MAX overflows; the scheduler must treat it as
        // "no deadline" instead of panicking (which would orphan every
        // stream and reject all future submissions).
        let service = SamplingService::builder(osn(200, 8))
            .pool_threads(1)
            .build();
        let ticket = service
            .submit(SampleRequest::new(we_job(3, 1)).with_deadline(std::time::Duration::MAX))
            .unwrap();
        let outcome = ticket.stream.wait().expect("job completes normally");
        assert_eq!(outcome.status, JobStatus::Completed);
        assert_eq!(outcome.samples, 3);
        // The scheduler is still alive for further work.
        let again = service.submit(SampleRequest::new(we_job(2, 2))).unwrap();
        assert_eq!(again.stream.wait().unwrap().samples, 2);
    }

    #[test]
    fn cancelled_queued_jobs_release_capacity_without_running() {
        // Two slots, one active-capacity: cancel a job while it is still in
        // the pending queue; it must finish as Cancelled with zero rounds
        // and release its admission slot for a new submission.
        let service = SamplingService::builder(osn(300, 9))
            .pool_threads(1)
            .max_active(1)
            .max_in_flight(2)
            .start_paused()
            .build();
        let runner = service.submit(SampleRequest::new(we_job(6, 2))).unwrap();
        let doomed = service.submit(SampleRequest::new(we_job(500, 2))).unwrap();
        doomed.handle.cancel();
        service.resume();
        let doomed_outcome = doomed.stream.wait().unwrap();
        assert_eq!(doomed_outcome.status, JobStatus::Cancelled);
        assert_eq!(doomed_outcome.rounds, 0, "never reached a walker slot");
        assert_eq!(doomed_outcome.samples, 0);
        assert_eq!(runner.stream.wait().unwrap().samples, 6);
        // Both slots are free again.
        let next = service.submit(SampleRequest::new(we_job(2, 1))).unwrap();
        assert_eq!(next.stream.wait().unwrap().samples, 2);
        let metrics = service.shutdown();
        assert_eq!(metrics.jobs_cancelled, 1);
        assert_eq!(metrics.jobs_completed, 2);
        assert_eq!(
            metrics.samples_delivered, 8,
            "cancelled-in-queue jobs deliver nothing"
        );
    }

    #[test]
    fn shutdown_returns_final_snapshot_and_drop_is_clean() {
        let service = SamplingService::new(osn(150, 6));
        let ticket = service.submit(SampleRequest::new(we_job(3, 2))).unwrap();
        let outcome = ticket.stream.wait().unwrap();
        assert_eq!(outcome.samples, 3);
        let snapshot = service.shutdown();
        assert_eq!(snapshot.jobs_finished, 1);
        assert!(snapshot.aggregate_query_cost > 0);
    }
}
