//! Incremental, round-at-a-time execution of one job's walker pool.
//!
//! [`JobDriver`] owns the virtual-walker states of a single [`SampleJob`]
//! and advances them one **round** at a time: every live walker draws one
//! sample (reading a frozen shared-history snapshot), then every walker's
//! pending walks are merged into the shared history.
//! [`Engine::run`](crate::Engine::run) drives a fresh driver to completion;
//! the multi-job scheduler in `wnw-service` instead *interleaves* rounds of
//! many drivers over one thread pool, stepping one round of several drivers
//! as a single pool batch ([`JobDriver::step_rounds`]), which is what makes
//! fair scheduling, streaming delivery, and mid-job cancellation possible
//! without giving up the per-job determinism argument (see
//! [`engine`](crate::engine)).
//!
//! Determinism of a round: draws touch only (a) the walker's own state and
//! RNG stream, (b) the cache handle — whose answers are a pure function of
//! the node asked — and (c) the shared-history snapshot frozen for the
//! round. The flush phase merges pending walks by *adding* per-(node, step)
//! counts, which is commutative and associative, so the snapshot for the
//! next round does not depend on the order walkers flushed in — nor on how
//! many OS threads carried the draws.

use crate::job::{SampleJob, SamplerSpec};
use crate::report::WalkerReport;
use std::sync::Arc;
use wnw_access::counter::{QueryBudget, QueryCounter};
use wnw_access::interface::SocialNetwork;
use wnw_access::metered::MeteredNetwork;
use wnw_access::AccessError;
use wnw_core::history::{FrozenHistory, SharedWalkHistory, WalkHistory};
use wnw_core::sampler::WalkEstimateSampler;
use wnw_mcmc::burn_in::{ManyShortRunsSampler, OneLongRunSampler};
use wnw_mcmc::sampler::{SampleRecord, Sampler};
use wnw_runtime::WorkerPool;

/// Per-walker execution state.
struct WalkerState<'a> {
    walker: usize,
    quota: usize,
    sampler: Box<dyn Sampler + Send + 'a>,
    counter: Arc<QueryCounter>,
    produced: Vec<SampleRecord>,
    /// How many of `produced` a streaming consumer has already drained
    /// (see [`JobDriver::drain_new_samples`]).
    streamed: usize,
    budget_exhausted: bool,
    /// A degradation (transient fault, exhausted retries, open breaker)
    /// that ended this walker early. Treated like budget exhaustion: the
    /// walker stops, its samples are kept, and the job does not fail.
    degraded: Option<AccessError>,
    fatal: Option<AccessError>,
    /// A panic payload caught from this walker's sampler, held until the
    /// caller decides how to surface it (the engine resumes it; the service
    /// converts it into a failed job).
    panicked: Option<Box<dyn std::any::Any + Send>>,
}

impl WalkerState<'_> {
    fn live(&self) -> bool {
        self.produced.len() < self.quota
            && !self.budget_exhausted
            && self.degraded.is_none()
            && self.fatal.is_none()
            && self.panicked.is_none()
    }

    fn draw_once(&mut self) {
        // Contain panics so one exploding walker cannot take down the
        // others mid-round. The shared structures are poison-robust and
        // additive, so a half-recorded walk cannot corrupt them.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.sampler.draw()));
        match outcome {
            Ok(Ok(record)) => self.produced.push(record),
            Ok(Err(AccessError::BudgetExhausted { .. })) => self.budget_exhausted = true,
            // A degradation (transient fault, exhausted retries, open
            // breaker) ends this walker the way budget exhaustion does —
            // the samples it already produced stay useful partial evidence.
            Ok(Err(other)) if other.is_degradation() => self.degraded = Some(other),
            Ok(Err(other)) => self.fatal = Some(other),
            Err(payload) => self.panicked = Some(payload),
        }
    }

    fn flush_once(&mut self) {
        if self.panicked.is_none() {
            if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.sampler.flush_shared_state()
            })) {
                self.panicked = Some(payload);
            }
        }
    }
}

/// One job's walker pool, steppable round by round.
///
/// The lifetime `'a` bounds the cache handle the walkers read through:
/// [`Engine::run`](crate::Engine::run) uses a scope-local borrowed cache,
/// while a long-lived service passes an owned (`'static`) handle such as
/// `Arc<CachedNetwork<…>>`.
pub struct JobDriver<'a> {
    walkers: Vec<WalkerState<'a>>,
    rounds: usize,
    requested: usize,
    /// The job's query-cost ledger: every walker view charges it on its
    /// first visit of a node, so it holds the union of the walkers' visited
    /// sets (see [`query_cost`](Self::query_cost)).
    ledger: Arc<QueryCounter>,
    /// The job's shared accumulator (when the spec uses one): what a
    /// publishing policy exports at reap. Contains only this job's own
    /// walks — a seeded base is read-only and never lands here.
    shared_history: Option<Arc<SharedWalkHistory>>,
}

impl<'a> JobDriver<'a> {
    /// Builds the walker stacks of `job` over `cache`: each walker gets its
    /// own clone of the handle, wrapped in a budget-enforcing
    /// [`MeteredNetwork`] view that charges the job's ledger, with the
    /// sampler the job's spec names on top, started at
    /// [`SampleJob::resolve_start`] and seeded from the walker's RNG stream.
    /// Shared history (when the spec uses it) is created per
    /// job — live state is never shared across jobs, which would make one
    /// request's samples depend on what else is running (cross-job reuse
    /// goes through immutable [`FrozenHistory`] snapshots instead; see
    /// [`with_seed_history`](Self::with_seed_history)).
    ///
    /// # Panics
    /// Panics on a job that fails [`SampleJob::validate`], as
    /// [`with_seed_history`](Self::with_seed_history) does.
    pub fn new<C>(cache: C, job: &SampleJob) -> Self
    where
        C: SocialNetwork + Clone + Send + 'a,
    {
        Self::with_seed_history(cache, job, None)
    }

    /// Like [`new`](Self::new), additionally seeding every walker's history
    /// reads with a frozen cross-job snapshot (walks published by completed
    /// prior jobs, read at [`reused_weight`](wnw_core::history::reused_weight)).
    /// The snapshot is immutable — taken once, at admission, per the store's
    /// snapshot-on-admit epoch rule — so the job's results are a pure
    /// function of (job, snapshot) at any thread count. Ignored for jobs
    /// whose walkers share no history (see
    /// [`SamplerSpec::uses_shared_history`]).
    ///
    /// # Panics
    /// Panics if `job` fails [`SampleJob::validate`] against the cache's
    /// `node_count_hint`, before any walker state is allocated. Callers
    /// taking jobs from outside input validate first ([`Engine::run`] and
    /// the service's admission both do).
    ///
    /// [`Engine::run`]: crate::Engine::run
    pub fn with_seed_history<C>(
        cache: C,
        job: &SampleJob,
        seed_history: Option<Arc<FrozenHistory>>,
    ) -> Self
    where
        C: SocialNetwork + Clone + Send + 'a,
    {
        if let Err(invalid) = job.validate(cache.node_count_hint()) {
            panic!("JobDriver given an invalid job: {invalid}");
        }
        let shared_history = job
            .spec
            .uses_shared_history()
            .then(SharedWalkHistory::shared);
        let ledger = Arc::new(QueryCounter::unlimited());
        let walkers = (0..job.walkers)
            .map(|w| {
                build_walker(
                    cache.clone(),
                    job,
                    &ledger,
                    shared_history.clone(),
                    seed_history.clone(),
                    w,
                )
            })
            .collect();
        JobDriver {
            walkers,
            rounds: 0,
            requested: job.samples,
            ledger,
            shared_history,
        }
    }

    /// The job's own merged walk history — what a publishing policy hands
    /// to the [`HistoryStore`](wnw_core::HistoryStore) at reap. `None` for
    /// jobs without a shared accumulator (baselines), `Some` (possibly
    /// empty) otherwise; callers
    /// should publish only non-empty exports.
    pub fn export_shared_history(&self) -> Option<WalkHistory> {
        self.shared_history.as_ref().map(|shared| shared.export())
    }

    /// Whether every walker is finished (quota met, budget out, failed, or
    /// panicked).
    pub fn is_done(&self) -> bool {
        self.walkers.iter().all(|w| !w.live())
    }

    /// Whether any walker hit a fatal (non-budget) error or panicked. The
    /// job is doomed either way — the engine fails it and the service
    /// reports it `Failed`/`Panicked` — so callers stop scheduling rounds
    /// at this point instead of running the healthy walkers to completion
    /// for a result that will be discarded.
    pub fn poisoned(&self) -> bool {
        self.walkers
            .iter()
            .any(|w| w.fatal.is_some() || w.panicked.is_some())
    }

    /// Rounds completed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Walkers still drawing.
    pub fn live_walkers(&self) -> usize {
        self.walkers.iter().filter(|w| w.live()).count()
    }

    /// Walkers stopped by a degradation (transient fault, exhausted
    /// retries, open breaker) so far.
    pub fn degraded_walkers(&self) -> usize {
        self.walkers.iter().filter(|w| w.degraded.is_some()).count()
    }

    /// Number of virtual walkers (live or not).
    pub fn walker_count(&self) -> usize {
        self.walkers.len()
    }

    /// Samples the job asked for.
    pub fn requested(&self) -> usize {
        self.requested
    }

    /// Samples accepted so far, across all walkers.
    pub fn samples_collected(&self) -> usize {
        self.walkers.iter().map(|w| w.produced.len()).sum()
    }

    /// The job's query cost so far, the paper's measure: unique nodes any of
    /// its walkers accessed, each counted once however many walkers touched
    /// it — the union of the walkers' visited sets. What the job would have
    /// cost on its own; the shared cache may have paid for fewer.
    pub fn query_cost(&self) -> u64 {
        self.ledger.query_cost()
    }

    /// Sum of the walkers' own unique-node charges so far.
    pub fn budget_consumed(&self) -> u64 {
        self.walkers
            .iter()
            .map(|w| w.counter.stats().unique_nodes)
            .sum()
    }

    /// The samples walker `w` has produced so far.
    pub fn walker_samples(&self, walker: usize) -> &[SampleRecord] {
        &self.walkers[walker].produced
    }

    /// Visits every sample produced since the last call (walker order, then
    /// production order within a walker) — the streaming-delivery primitive
    /// of the `wnw-service` scheduler, which keeps the delivered watermark
    /// here, next to the samples it indexes.
    pub fn drain_new_samples(&mut self, mut visit: impl FnMut(usize, &SampleRecord)) {
        for state in &mut self.walkers {
            for record in &state.produced[state.streamed..] {
                visit(state.walker, record);
            }
            state.streamed = state.produced.len();
        }
    }

    /// Runs one round of this job: [`step_rounds`](Self::step_rounds) over
    /// a batch of one.
    pub fn step_round(&mut self, pool: &WorkerPool) {
        Self::step_rounds(&mut [self], pool);
    }

    /// Runs one round of every job in `drivers` as **one** pool batch: every
    /// live walker of every job draws once, each walker its own pool task,
    /// then each job's walkers flush pending shared state (sequentially, in
    /// walker order — the merges are additive, so this choice is invisible
    /// to the result). Jobs that are already done are skipped and their
    /// round count does not move.
    ///
    /// The pool's round barrier is every job's draw barrier: all of a job's
    /// draws have finished before any of its walkers flushes, which is the
    /// whole per-job determinism argument. Jobs share nothing a draw can
    /// observe — each reads its own walkers, RNG streams, budget views and
    /// history, plus cache answers that are pure functions of the node
    /// asked — so batching several jobs changes only where and when their
    /// draws run, never what they compute. A batch with a single live
    /// walker runs inline on the caller (the pool's spawnless fast path);
    /// the per-walker `catch_unwind` around every draw means a panicking
    /// sampler never unwinds into the pool, nor into another job. No OS
    /// thread is ever spawned here: the pool's workers were spawned once,
    /// at pool startup.
    pub fn step_rounds(drivers: &mut [&mut JobDriver<'a>], pool: &WorkerPool) {
        let stepped: Vec<bool> = drivers.iter().map(|driver| !driver.is_done()).collect();
        let mut live: Vec<&mut WalkerState<'a>> = drivers
            .iter_mut()
            .flat_map(|driver| driver.walkers.iter_mut().filter(|s| s.live()))
            .collect();
        if live.is_empty() {
            return;
        }
        pool.round(&mut live, |state| state.draw_once());
        drop(live);
        for (driver, stepped) in drivers.iter_mut().zip(stepped) {
            if stepped {
                for state in &mut driver.walkers {
                    state.flush_once();
                }
                driver.rounds += 1;
            }
        }
    }

    /// Tears the pool down into per-walker reports plus the panic payload of
    /// the lowest-numbered panicking walker (lowest for determinism), if any.
    pub fn finish(self) -> (Vec<WalkerReport>, Option<Box<dyn std::any::Any + Send>>) {
        let mut panic_payload: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
        let mut reports = Vec::with_capacity(self.walkers.len());
        for mut state in self.walkers {
            if let Some(payload) = state.panicked.take() {
                if panic_payload.is_none() {
                    panic_payload = Some((state.walker, payload));
                }
            }
            reports.push(WalkerReport {
                walker: state.walker,
                samples: state.produced,
                stats: state.counter.stats(),
                budget_exhausted: state.budget_exhausted,
                degraded: state.degraded,
                fatal: state.fatal,
            });
        }
        (reports, panic_payload.map(|(_, payload)| payload))
    }
}

impl std::fmt::Debug for JobDriver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobDriver")
            .field("walkers", &self.walkers.len())
            .field("live", &self.live_walkers())
            .field("rounds", &self.rounds)
            .field("samples", &self.samples_collected())
            .field("requested", &self.requested)
            .finish()
    }
}

/// Builds the sampler stack of one virtual walker: a per-walker metered
/// (and budgeted) view over the shared cache handle, charging the job's
/// `ledger`, and the spec'd sampler on top, started at the job's start node
/// and seeded with the walker's own RNG stream.
fn build_walker<'a, C>(
    cache: C,
    job: &SampleJob,
    ledger: &Arc<QueryCounter>,
    shared_history: Option<Arc<SharedWalkHistory>>,
    seed_history: Option<Arc<FrozenHistory>>,
    walker: usize,
) -> WalkerState<'a>
where
    C: SocialNetwork + Clone + Send + 'a,
{
    let budget = job
        .budget_of(walker)
        .map(QueryBudget)
        .unwrap_or(QueryBudget::UNLIMITED);
    let start = job.resolve_start(&cache);
    let metered = MeteredNetwork::with_budget(cache, budget, Arc::clone(ledger));
    let counter = metered.counter_handle();
    let seed = job.seed_of(walker);
    let sampler: Box<dyn Sampler + Send + 'a> = match job.spec {
        SamplerSpec::WalkEstimate { input, config } => {
            let mut sampler =
                WalkEstimateSampler::new(metered, input, config, seed).with_start(start);
            if let Some(diameter) = job.diameter_estimate {
                sampler = sampler.with_diameter_estimate(diameter);
            }
            if let Some(shared) = shared_history {
                sampler = sampler.with_shared_history(shared, seed_history);
            }
            Box::new(sampler)
        }
        SamplerSpec::ManyShortRuns { input, config } => {
            Box::new(ManyShortRunsSampler::new(metered, input, config, seed).with_start(start))
        }
        SamplerSpec::OneLongRun { input, config } => {
            Box::new(OneLongRunSampler::new(metered, input, config, seed).with_start(start))
        }
    };
    WalkerState {
        walker,
        quota: job.quota_of(walker),
        sampler,
        counter,
        produced: Vec::new(),
        streamed: 0,
        budget_exhausted: false,
        degraded: None,
        fatal: None,
        panicked: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnw_access::SimulatedOsn;
    use wnw_graph::generators::random::barabasi_albert;
    use wnw_mcmc::RandomWalkKind;

    #[test]
    fn stepping_to_completion_matches_quota() {
        let osn = SimulatedOsn::new(barabasi_albert(200, 3, 1).unwrap());
        let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 9, 5)
            .with_walkers(3)
            .with_diameter_estimate(4);
        let pool = WorkerPool::new(2);
        let mut driver = JobDriver::new(&osn, &job);
        assert_eq!(driver.walker_count(), 3);
        assert_eq!(driver.requested(), 9);
        let mut rounds = 0;
        while !driver.is_done() {
            driver.step_round(&pool);
            rounds += 1;
            assert!(rounds <= 9, "driver failed to converge");
        }
        assert_eq!(driver.rounds(), rounds);
        assert_eq!(driver.samples_collected(), 9);
        assert_eq!(driver.live_walkers(), 0);
        assert!(driver.budget_consumed() > 0);
        let (reports, panic_payload) = driver.finish();
        assert!(panic_payload.is_none());
        assert_eq!(reports.iter().map(|r| r.samples.len()).sum::<usize>(), 9);
    }

    #[test]
    fn a_job_with_a_start_node_is_deterministic() {
        let osn = SimulatedOsn::new(barabasi_albert(200, 3, 1).unwrap());
        let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 6, 5)
            .with_walkers(2)
            .with_diameter_estimate(4)
            .with_start_node(wnw_graph::NodeId(150));
        let pool = WorkerPool::new(1);
        let run = |job: &SampleJob| {
            let mut driver = JobDriver::new(&osn, job);
            while !driver.is_done() {
                driver.step_round(&pool);
            }
            let (reports, payload) = driver.finish();
            assert!(payload.is_none());
            let mut nodes: Vec<u32> = reports
                .iter()
                .flat_map(|r| r.samples.iter().map(|s| s.node.0))
                .collect();
            nodes.sort_unstable();
            nodes
        };
        let a = run(&job);
        let b = run(&job);
        assert_eq!(a.len(), 6);
        assert_eq!(a, b, "same job + same start node => same multiset");
    }

    #[test]
    fn every_spec_starts_at_the_jobs_start_node() {
        use wnw_core::config::WalkEstimateConfig;
        use wnw_graph::{GraphBuilder, NodeId};
        use wnw_mcmc::burn_in::BurnInConfig;

        // Two disjoint 6-cliques: nodes 0..6 (the network's seed node, 0,
        // is here) and 6..12. A walk cannot leave the clique it starts in.
        let mut builder = GraphBuilder::new();
        for clique in [0u32, 6] {
            for u in clique..clique + 6 {
                for v in u + 1..clique + 6 {
                    builder.add_edge(u, v);
                }
            }
        }
        let osn = SimulatedOsn::new(builder.build());
        let burn_in = BurnInConfig {
            min_steps: 8,
            max_steps: 40,
            check_interval: 4,
            ..BurnInConfig::default()
        };
        let input = RandomWalkKind::Simple;
        let specs = [
            SamplerSpec::WalkEstimate {
                input,
                config: WalkEstimateConfig::default(),
            },
            SamplerSpec::ManyShortRuns {
                input,
                config: burn_in,
            },
            SamplerSpec::OneLongRun {
                input,
                config: burn_in,
            },
        ];
        for spec in specs {
            let job = SampleJob::walk_estimate(input, 12, 5)
                .with_spec(spec)
                .with_walkers(3)
                .with_diameter_estimate(2)
                .with_start_node(NodeId(8));
            assert_eq!(job.resolve_start(&osn), NodeId(8));
            let report = crate::Engine::with_threads(2).run(&osn, &job).unwrap();
            assert_eq!(report.len(), 12, "{spec:?}");
            assert!(
                report.samples.iter().all(|s| (6..12).contains(&s.node.0)),
                "{spec:?} sampled outside the start node's clique"
            );
        }
        // Without a start node the job starts at the network's seed node.
        let job = SampleJob::walk_estimate(input, 4, 5).with_diameter_estimate(2);
        assert_eq!(job.resolve_start(&osn), osn.seed_node());
        let report = crate::Engine::with_threads(1).run(&osn, &job).unwrap();
        assert!(report.samples.iter().all(|s| s.node.0 < 6));
    }

    #[test]
    fn query_cost_is_the_union_of_the_walkers_visited_sets() {
        let n = 400;
        let osn = SimulatedOsn::new(barabasi_albert(n, 3, 11).unwrap());
        let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 24, 17)
            .with_walkers(4)
            .with_budget(600)
            .with_diameter_estimate(4);
        let cache = wnw_access::CachedNetwork::new(&osn);
        let mut driver = JobDriver::new(&cache, &job);
        let pool = WorkerPool::new(2);
        let union = |driver: &JobDriver<'_>| {
            (0..n as u32)
                .map(wnw_graph::NodeId)
                .filter(|&v| driver.walkers.iter().any(|w| w.counter.is_visited(v)))
                .count() as u64
        };
        assert_eq!(driver.query_cost(), 0);
        while !driver.is_done() {
            driver.step_round(&pool);
            let cost = driver.query_cost();
            assert_eq!(cost, union(&driver), "round {}", driver.rounds());
            assert!(cost <= driver.budget_consumed());
            // One job on its own cache: the cache paid for the same nodes.
            assert_eq!(cost, cache.query_cost());
        }
        assert!(driver.query_cost() > 0);
    }

    #[test]
    fn degraded_walkers_end_like_budget_exhaustion() {
        use wnw_access::fault::{FaultProfile, FaultyNetwork};
        use wnw_access::resilient::{ResilientNetwork, RetryPolicy};

        // Every node is blacked out: the first fetch of each walker
        // exhausts its retries and the walker degrades — but the job
        // completes as a degraded partial instead of erroring.
        let profile = FaultProfile {
            blackout_fraction: 1.0,
            ..FaultProfile::OFF
        };
        let osn = ResilientNetwork::new(
            FaultyNetwork::new(
                SimulatedOsn::new(barabasi_albert(100, 3, 1).unwrap()),
                7,
                profile,
            ),
            RetryPolicy::DEFAULT.without_breaker(),
            7,
        );
        let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 6, 5)
            .with_walkers(2)
            .with_diameter_estimate(4);
        let report = crate::Engine::with_threads(1)
            .run(&osn, &job)
            .expect("degradation must not fail the job");
        assert!(report.degraded);
        assert_eq!(report.degraded_walkers(), 2);
        assert!(report.samples.is_empty(), "blackout from step one");
        for w in &report.walkers {
            assert!(w.degraded.is_some());
            assert!(w.fatal.is_none());
            assert!(!w.budget_exhausted);
        }
    }

    #[test]
    fn batched_rounds_match_each_job_stepped_alone() {
        let osn = SimulatedOsn::new(barabasi_albert(300, 3, 4).unwrap());
        let jobs = [
            SampleJob::walk_estimate(RandomWalkKind::Simple, 12, 21).with_walkers(3),
            SampleJob::walk_estimate(RandomWalkKind::MetropolisHastings, 5, 22).with_walkers(2),
            SampleJob::walk_estimate(RandomWalkKind::Simple, 4, 23).with_walkers(1),
        ]
        .map(|job| job.with_diameter_estimate(4));
        let outcome = |driver: JobDriver<'_>| {
            let rounds = driver.rounds();
            let (reports, payload) = driver.finish();
            assert!(payload.is_none());
            let mut nodes: Vec<u32> = reports
                .iter()
                .flat_map(|r| r.samples.iter().map(|s| s.node.0))
                .collect();
            nodes.sort_unstable();
            (nodes, rounds)
        };
        let pool = WorkerPool::new(2);
        let alone: Vec<_> = jobs
            .iter()
            .map(|job| {
                let mut driver = JobDriver::new(&osn, job);
                while !driver.is_done() {
                    driver.step_round(&pool);
                }
                outcome(driver)
            })
            .collect();
        let mut drivers: Vec<JobDriver<'_>> =
            jobs.iter().map(|job| JobDriver::new(&osn, job)).collect();
        let mut batches = 0;
        while drivers.iter().any(|d| !d.is_done()) {
            // Done jobs stay in the batch: they are skipped, not stepped.
            let mut batch: Vec<&mut JobDriver<'_>> = drivers.iter_mut().collect();
            JobDriver::step_rounds(&mut batch, &pool);
            batches += 1;
        }
        let batched: Vec<_> = drivers.into_iter().map(outcome).collect();
        assert_eq!(batched, alone, "batching changed a job's samples or rounds");
        let rounds = alone.iter().map(|(_, r)| *r).max().unwrap();
        assert_eq!(batches, rounds, "one batch per round of the longest job");
    }

    #[test]
    fn step_round_after_done_is_a_noop() {
        let osn = SimulatedOsn::new(barabasi_albert(150, 3, 2).unwrap());
        let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 2, 3)
            .with_walkers(2)
            .with_diameter_estimate(4);
        let mut driver = JobDriver::new(&osn, &job);
        let inline = WorkerPool::new(1);
        while !driver.is_done() {
            driver.step_round(&inline);
        }
        let rounds = driver.rounds();
        let wide = WorkerPool::new(4);
        driver.step_round(&wide);
        assert_eq!(driver.rounds(), rounds);
        assert_eq!(
            wide.stats().rounds_dispatched + wide.stats().spawnless_rounds,
            0,
            "a finished job never reaches the pool"
        );
        assert_eq!(driver.samples_collected(), 2);
    }
}
