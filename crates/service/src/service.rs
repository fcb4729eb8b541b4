//! The long-lived [`SamplingService`]: admission control at the front,
//! the multi-job scheduler behind it.

use crate::metrics::{ServiceMetrics, ServiceMetricsSnapshot};
use crate::request::{AdmissionError, JobId, SampleRequest};
use crate::scheduler::{Scheduler, SchedulerConfig, Submission};
use crate::stream::{JobHandle, JobTicket, SampleStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use wnw_access::cached::CachedNetwork;
use wnw_access::counter::QueryStats;
use wnw_access::interface::{SocialNetwork, ThreadedNetwork};
use wnw_access::ResilienceMonitor;
use wnw_engine::{HistoryStore, HistoryStoreStats};
use wnw_runtime::{PoolStats, WorkerPool};
use wnw_telemetry::{TraceEvent, TraceEventKind, TraceLog, DEFAULT_TRACE_CAPACITY};

/// Tuning knobs of a [`SamplingService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Width of the service's one persistent [`WorkerPool`]: each round's
    /// walker draws are fanned over this many lanes (`pool_threads - 1`
    /// parked workers plus the scheduler thread). The pool is spawned once
    /// at [`ServiceBuilder::build`]; no round ever spawns a thread after
    /// that. Defaults to the available hardware parallelism.
    pub pool_threads: usize,
    /// Jobs interleaved concurrently by the scheduler; admitted jobs beyond
    /// this wait in the queue. Default 4.
    pub max_active: usize,
    /// Admission limit: submissions are rejected with
    /// [`AdmissionError::Saturated`] while this many jobs are queued or
    /// running. Default 64.
    pub max_in_flight: usize,
    /// Start with the scheduler gated: admitted jobs queue up but no round
    /// runs until [`SamplingService::resume`] — useful for tests and for
    /// staging a burst of submissions. Default off.
    pub start_paused: bool,
    /// Whether per-round telemetry (the round-duration histogram and the
    /// per-job lifecycle [`TraceLog`], which keeps the last
    /// [`DEFAULT_TRACE_CAPACITY`] events) is recorded. Job-level histograms
    /// and counters are always on; this flag sheds only the per-round costs.
    /// Default on.
    pub telemetry: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            pool_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            max_active: 4,
            max_in_flight: 64,
            start_paused: false,
            telemetry: true,
        }
    }
}

/// Builder for a [`SamplingService`].
#[derive(Debug)]
pub struct ServiceBuilder<N> {
    network: N,
    config: ServiceConfig,
    resilience: Option<ResilienceMonitor>,
}

impl<N: ThreadedNetwork + 'static> ServiceBuilder<N> {
    /// Sets the worker-pool width.
    pub fn pool_threads(mut self, threads: usize) -> Self {
        self.config.pool_threads = threads.max(1);
        self
    }

    /// Sets how many jobs the scheduler interleaves concurrently.
    pub fn max_active(mut self, jobs: usize) -> Self {
        self.config.max_active = jobs.max(1);
        self
    }

    /// Sets the admission limit (queued + running jobs).
    pub fn max_in_flight(mut self, jobs: usize) -> Self {
        self.config.max_in_flight = jobs.max(1);
        self
    }

    /// Starts the service gated; call [`SamplingService::resume`] to begin
    /// scheduling.
    pub fn start_paused(mut self) -> Self {
        self.config.start_paused = true;
        self
    }

    /// Turns per-round telemetry (round-duration histogram + lifecycle
    /// trace) on or off. Default on.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.config.telemetry = enabled;
        self
    }

    /// Attaches the [`ResilienceMonitor`] of the
    /// [`ResilientNetwork`](wnw_access::ResilientNetwork) the service is
    /// built over, so retry/backoff/breaker counters appear in
    /// [`SamplingService::metrics`] (and degraded breaker state in
    /// frontends' health endpoints). The service itself never consults the
    /// monitor — it only snapshots it.
    pub fn resilience(mut self, monitor: ResilienceMonitor) -> Self {
        self.resilience = Some(monitor);
        self
    }

    /// Spawns the worker pool and the scheduler thread, and returns the
    /// running service. These are the service's only thread spawns: every
    /// round of every future job reuses the pool built here.
    pub fn build(self) -> SamplingService<N> {
        let cache = Arc::new(CachedNetwork::new(Arc::new(self.network)));
        let metrics = Arc::new(ServiceMetrics::default());
        let paused = Arc::new(AtomicBool::new(self.config.start_paused));
        let pool = Arc::new(WorkerPool::new(self.config.pool_threads));
        let history = Arc::new(HistoryStore::new());
        let trace = Arc::new(TraceLog::new(if self.config.telemetry {
            DEFAULT_TRACE_CAPACITY
        } else {
            0
        }));
        let (tx, rx) = channel();
        let scheduler = Scheduler::new(
            Arc::clone(&cache),
            Arc::clone(&metrics),
            SchedulerConfig {
                max_active: self.config.max_active,
                telemetry: self.config.telemetry,
            },
            Arc::clone(&pool),
            Arc::clone(&history),
            Arc::clone(&trace),
            Arc::clone(&paused),
            rx,
        );
        let handle = std::thread::Builder::new()
            .name("wnw-service-scheduler".into())
            .spawn(move || scheduler.run())
            .expect("spawn scheduler thread");
        SamplingService {
            cache,
            metrics,
            pool,
            history,
            trace,
            paused,
            tx: Some(tx),
            scheduler: Some(handle),
            next_id: AtomicU64::new(0),
            config: self.config,
            resilience: self.resilience,
        }
    }
}

/// A long-lived sampling service: many concurrent [`SampleRequest`]s against
/// one shared network handle, scheduled fairly over one worker pool, results
/// streamed back as they land.
///
/// See the [crate docs](crate) for the full model; in short:
///
/// * **admission control** — requests beyond `max_in_flight` are rejected at
///   the door rather than queued unboundedly;
/// * **fair, priority-weighted scheduling** — jobs advance round by round,
///   interleaved, so a huge job cannot starve a small one;
/// * **streaming delivery** — a [`SampleStream`] yields
///   `Sample`/`Progress`/`Done` events, not one end-of-job report;
/// * **shared cache, isolated budgets** — all jobs ride one
///   [`CachedNetwork`] (each node paid for once, service-wide) while every
///   request meters and budgets its own traffic;
/// * **reproducibility** — a request's accepted-sample multiset depends
///   only on its job (spec, seed, walkers, budget), not on the pool width
///   or the co-load.
#[derive(Debug)]
pub struct SamplingService<N: ThreadedNetwork + 'static> {
    cache: Arc<CachedNetwork<Arc<N>>>,
    metrics: Arc<ServiceMetrics>,
    /// The one persistent worker pool every job's rounds execute on
    /// (shared with the scheduler thread; kept here for stats snapshots).
    pool: Arc<WorkerPool>,
    /// The service-scoped cross-job history store (shared with the
    /// scheduler thread; kept here for stats snapshots).
    history: Arc<HistoryStore>,
    /// The per-job lifecycle trace ring (shared with the scheduler thread;
    /// disabled — capacity 0 — when the service runs with telemetry off).
    trace: Arc<TraceLog>,
    paused: Arc<AtomicBool>,
    tx: Option<Sender<Submission>>,
    scheduler: Option<JoinHandle<()>>,
    next_id: AtomicU64,
    config: ServiceConfig,
    /// The resilience layer's stats handle, when the service was built over
    /// a `ResilientNetwork` and given its monitor via
    /// [`ServiceBuilder::resilience`].
    resilience: Option<ResilienceMonitor>,
}

impl<N: ThreadedNetwork + 'static> SamplingService<N> {
    /// A service over `network` with the default configuration.
    pub fn new(network: N) -> Self {
        Self::builder(network).build()
    }

    /// A configurable service builder over `network`.
    pub fn builder(network: N) -> ServiceBuilder<N> {
        ServiceBuilder {
            network,
            config: ServiceConfig::default(),
            resilience: None,
        }
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// The wrapped network handle.
    pub fn network(&self) -> &N {
        self.cache.inner()
    }

    /// Submits a request. On admission, returns the job's id, its event
    /// stream, and a cancellation handle; the scheduler starts (or queues)
    /// the job immediately.
    pub fn submit(&self, request: SampleRequest) -> Result<JobTicket, AdmissionError> {
        // Refuse jobs that could never run, or whose walker state (built all
        // at once on admission) or walk length would be unbounded, at the
        // door instead of failing mid-walk.
        if let Err(invalid) = request.job.validate(self.cache.node_count_hint()) {
            self.metrics.on_reject();
            return Err(AdmissionError::Invalid(invalid.reason()));
        }
        // Reserve an in-flight slot atomically — concurrent submitters
        // cannot race past the cap between a check and an increment.
        if let Err(in_flight) = self.metrics.try_admit(self.config.max_in_flight as u64) {
            self.metrics.on_reject();
            return Err(AdmissionError::Saturated {
                in_flight: in_flight as usize,
                limit: self.config.max_in_flight,
            });
        }
        self.metrics.on_submit();
        let tx = match self.tx.as_ref() {
            Some(tx) => tx,
            None => {
                self.metrics.on_submit_undone();
                return Err(AdmissionError::ShuttingDown);
            }
        };

        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let (events, rx) = channel();
        let cancel = Arc::new(AtomicBool::new(false));
        // Trace the submission *before* handing it to the scheduler — once
        // the send lands, the scheduler thread may record `Admitted`
        // concurrently, and the trace's per-job order is insertion order.
        self.trace.record(id.0, TraceEventKind::Submitted);
        if tx
            .send(Submission {
                id,
                request,
                events,
                cancel: Arc::clone(&cancel),
                submitted_at: Instant::now(),
            })
            .is_err()
        {
            // The scheduler thread is gone (it only exits when the service
            // is torn down, or after a scheduler bug); undo the accounting.
            // Close the trace too: every `Submitted` job gets exactly one
            // `Finished`, whichever path it dies on.
            self.trace
                .record(id.0, TraceEventKind::Finished { status: "failed" });
            self.metrics.on_submit_undone();
            return Err(AdmissionError::ShuttingDown);
        }
        Ok(JobTicket {
            id,
            stream: SampleStream::new(rx),
            handle: JobHandle::new(id, cancel),
        })
    }

    /// A live snapshot of the service metrics (lock-free reads).
    pub fn metrics(&self) -> ServiceMetricsSnapshot {
        self.metrics.snapshot(
            self.cache.query_stats(),
            self.pool.stats(),
            self.history.stats(),
            self.resilience
                .as_ref()
                .map(|m| m.stats())
                .unwrap_or_default(),
        )
    }

    /// The attached [`ResilienceMonitor`], if the service was built with
    /// one (see [`ServiceBuilder::resilience`]).
    pub fn resilience(&self) -> Option<&ResilienceMonitor> {
        self.resilience.as_ref()
    }

    /// The cross-job history store's counters (also embedded in
    /// [`metrics`](Self::metrics) as
    /// [`ServiceMetricsSnapshot::history`]).
    pub fn history_stats(&self) -> HistoryStoreStats {
        self.history.stats()
    }

    /// The per-job lifecycle trace log (disabled — it records nothing —
    /// when the service was built with [`ServiceBuilder::telemetry`] off).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// The retained lifecycle events of one job, oldest first. Empty when
    /// the job is unknown, its events were evicted from the ring, or
    /// telemetry is off.
    pub fn trace_of(&self, id: JobId) -> Vec<TraceEvent> {
        self.trace.events_for(id.0)
    }

    /// The shared pool cache's raw counters: `unique_nodes` is the
    /// aggregate query cost the service has paid across all jobs.
    pub fn pool_stats(&self) -> QueryStats {
        self.cache.query_stats()
    }

    /// The persistent worker pool's round-dispatch counters (see
    /// [`PoolStats`]): how many rounds were fanned over the parked workers,
    /// how many ran spawnless on the scheduler thread, and how often a
    /// worker woke for work.
    pub fn worker_pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Releases a [`start_paused`](ServiceBuilder::start_paused) gate (and
    /// is harmless otherwise).
    pub fn resume(&self) {
        self.paused.store(false, Ordering::Relaxed);
    }

    /// Whether the scheduler gate is currently closed.
    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::Relaxed)
    }

    /// Shuts the service down gracefully: no further submissions are
    /// accepted, every in-flight job runs (or cancels) to its terminal
    /// event, and the final metrics snapshot is returned.
    pub fn shutdown(mut self) -> ServiceMetricsSnapshot {
        self.teardown();
        self.metrics()
    }

    fn teardown(&mut self) {
        // A paused scheduler would never drain; release the gate first.
        self.paused.store(false, Ordering::Relaxed);
        drop(self.tx.take());
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
    }
}

impl<N: ThreadedNetwork + 'static> Drop for SamplingService<N> {
    /// Dropping the service drains in-flight jobs like
    /// [`shutdown`](Self::shutdown) (cancel jobs first for a fast exit).
    fn drop(&mut self) {
        self.teardown();
    }
}
