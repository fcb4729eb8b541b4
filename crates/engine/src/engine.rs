//! The worker-pool scheduler.
//!
//! [`Engine::run`] fans a [`SampleJob`] out across a persistent
//! [`WorkerPool`] — threads spawned once at engine construction, parked
//! between rounds — each lane carrying a share of the job's virtual walkers
//! against one shared, lock-striped [`CachedNetwork`]. The schedule is a
//! sequence of **rounds** with two phases each:
//!
//! ```text
//! round r:  every live walker draws one sample     (reads frozen history)
//!           ── join barrier ──
//!           every walker publishes its new walks   (additive merges)
//! ```
//!
//! Determinism argument, for any thread count:
//!
//! * each walker's RNG stream is a pure function of `job.seed ^ walker_id`;
//! * during a round, a walker reads only (a) the immutable graph through the
//!   cache — a pure function of the node asked, (b) the shared history
//!   *snapshot*, which no one writes until every draw of the round has
//!   joined, and (c) its own pending walks;
//! * after the join barrier, pending walks are merged into the shared
//!   history by adding per-(node, step) counts — commutative and
//!   associative, so the snapshot for round `r + 1` is the same whatever
//!   order walkers flushed in;
//! * budgets are enforced per walker against the walker's own metered view,
//!   so exhaustion is a property of the walker's deterministic query
//!   sequence, not of scheduling.
//!
//! The accepted-sample multiset is therefore identical at 1, 2, or 64
//! threads — only the wall-clock changes. The round loop itself lives in
//! [`JobDriver`] so the multi-job scheduler of `wnw-service` can interleave
//! rounds of many jobs over one pool; that scheduler, not the engine, owns
//! per-round telemetry, sample streaming and cancellation.

use crate::driver::JobDriver;
use crate::job::{InvalidJob, SampleJob};
use crate::report::JobReport;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;
use wnw_access::cached::CachedNetwork;
use wnw_access::interface::ThreadedNetwork;
use wnw_access::{AccessError, SocialNetwork};
use wnw_runtime::WorkerPool;

/// Why [`Engine::run`] returned no report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// [`SampleJob::validate`] refused the job; no walker state was built.
    Invalid(InvalidJob),
    /// A walker hit a fatal (non-budget) access error: the one of the
    /// lowest-numbered failing walker.
    Access(AccessError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Invalid(invalid) => write!(f, "invalid job: {invalid}"),
            RunError::Access(err) => err.fmt(f),
        }
    }
}

impl std::error::Error for RunError {}

/// A handle on a persistent [`WorkerPool`] executing [`SampleJob`]s.
///
/// The pool's threads are spawned once, when the engine is built; every
/// round of every subsequent run reuses them (clones share the same pool).
/// Use [`Engine::with_pool`] to run several engines — or an engine and a
/// `wnw-service` scheduler — over one pool.
#[derive(Debug, Clone)]
pub struct Engine {
    pool: Arc<WorkerPool>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine using all available hardware parallelism.
    pub fn new() -> Self {
        Engine {
            pool: Arc::new(WorkerPool::with_available_parallelism()),
        }
    }

    /// An engine over a fresh pool of a fixed width (1 spawns no worker
    /// threads and runs every job inline — useful as the reproducibility
    /// baseline).
    pub fn with_threads(threads: usize) -> Self {
        Engine {
            pool: Arc::new(WorkerPool::new(threads)),
        }
    }

    /// An engine sharing an existing pool.
    pub fn with_pool(pool: Arc<WorkerPool>) -> Self {
        Engine { pool }
    }

    /// The pool width (OS threads a round's draws are fanned over).
    pub fn threads(&self) -> usize {
        self.pool.width()
    }

    /// The engine's worker pool (for stats, or to share with other
    /// components via [`Engine::with_pool`]).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Runs `job` against `network`, layering a shared
    /// [`CachedNetwork`] over it, and merges every walker's output.
    ///
    /// A job that fails [`SampleJob::validate`] against the network's
    /// `node_count_hint` is refused with [`RunError::Invalid`] before any
    /// walker state is built. Errors other than per-walker budget
    /// exhaustion (which ends that walker normally) abort the job and are
    /// returned as [`RunError::Access`] — deterministically, the fatal
    /// error of the lowest-numbered failing walker.
    pub fn run<N: ThreadedNetwork>(
        &self,
        network: &N,
        job: &SampleJob,
    ) -> Result<JobReport, RunError> {
        job.validate(network.node_count_hint())
            .map_err(RunError::Invalid)?;
        let started = Instant::now();
        let cache = CachedNetwork::new(network);
        let threads = self.pool.width().min(job.walkers.max(1));
        let mut driver = JobDriver::new(&cache, job);
        while !driver.is_done() && !driver.poisoned() {
            driver.step_round(&self.pool);
        }

        let (walkers, panic_payload) = driver.finish();
        // A contained walker panic surfaces as the caller's panic — the one
        // of the lowest-numbered walker, for determinism.
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
        // A fatal (non-budget) error in any walker fails the job.
        for report in &walkers {
            if let Some(err) = &report.fatal {
                return Err(RunError::Access(err.clone()));
            }
        }

        let samples = walkers
            .iter()
            .flat_map(|w| w.samples.iter().copied())
            .collect();
        let degraded = walkers.iter().any(|w| w.degraded.is_some());
        Ok(JobReport {
            samples,
            walkers,
            pool_stats: cache.query_stats(),
            elapsed: started.elapsed(),
            threads,
            degraded,
        })
    }
}
