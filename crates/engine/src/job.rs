//! Sampling job requests.
//!
//! A [`SampleJob`] describes *what* to sample — which sampler family, how
//! many samples, under which query budget and walk-length policy — without
//! saying anything about threads. The unit of work and of reproducibility is
//! the **virtual walker**: a job fans out over [`walkers`](SampleJob::walkers)
//! independent walker states with deterministic per-walker RNG streams
//! (`seed ⊕ walker_id`), and the engine maps those walkers onto however many
//! OS threads it was built with. The accepted-sample multiset therefore
//! depends only on the job, never on the thread count.

use std::fmt;
use wnw_access::SocialNetwork;
use wnw_core::config::WalkEstimateConfig;
use wnw_graph::NodeId;
use wnw_mcmc::burn_in::BurnInConfig;
use wnw_mcmc::transition::{RandomWalkKind, TargetDistribution};

/// The most walkers one job may ask for. Every walker's state is built at
/// once when the job starts, so [`SampleJob::validate`] caps the count.
pub const MAX_WALKERS_PER_JOB: usize = 1_024;

/// Why [`SampleJob::validate`] refused a job: it could never produce work,
/// or running it would allocate without bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidJob {
    /// `samples` is zero.
    ZeroSamples,
    /// `walkers` is zero.
    ZeroWalkers,
    /// `walkers` is above [`MAX_WALKERS_PER_JOB`].
    TooManyWalkers,
    /// `start_node` is not a node of the network.
    StartNodeOutOfRange,
    /// `diameter_estimate` is not below the network's node count (a
    /// diameter is at most `n - 1`, and the forward walk is `2·D + 1` steps).
    DiameterTooLarge,
}

impl InvalidJob {
    /// A one-line reason, as the service's admission errors carry it.
    pub fn reason(self) -> &'static str {
        match self {
            InvalidJob::ZeroSamples => "request asks for zero samples",
            InvalidJob::ZeroWalkers => "request has zero walkers",
            InvalidJob::TooManyWalkers => "request asks for too many walkers",
            InvalidJob::StartNodeOutOfRange => "start_node is not in the network",
            InvalidJob::DiameterTooLarge => {
                "diameter_estimate is not below the network's node count"
            }
        }
    }
}

impl fmt::Display for InvalidJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.reason())
    }
}

impl std::error::Error for InvalidJob {}

/// Which sampler family a job runs in each walker.
#[derive(Debug, Clone, Copy)]
pub enum SamplerSpec {
    /// WALK-ESTIMATE over the given input walk design (the paper's
    /// contribution, and the engine's default).
    WalkEstimate {
        /// The input random-walk design WE replaces.
        input: RandomWalkKind,
        /// Full WALK-ESTIMATE configuration (variant, crawl depth, ...).
        config: WalkEstimateConfig,
    },
    /// Traditional many-short-runs baseline with Geweke-monitored burn-in.
    ManyShortRuns {
        /// The random-walk design.
        input: RandomWalkKind,
        /// Burn-in configuration.
        config: BurnInConfig,
    },
    /// Traditional one-long-run baseline (correlated samples after one
    /// burn-in).
    OneLongRun {
        /// The random-walk design.
        input: RandomWalkKind,
        /// Burn-in configuration.
        config: BurnInConfig,
    },
}

impl SamplerSpec {
    /// The target distribution of the samples this spec produces.
    pub fn target(&self) -> TargetDistribution {
        match self {
            SamplerSpec::WalkEstimate { input, .. }
            | SamplerSpec::ManyShortRuns { input, .. }
            | SamplerSpec::OneLongRun { input, .. } => input.target(),
        }
    }

    /// The input random-walk design the spec runs on.
    pub fn input_kind(&self) -> RandomWalkKind {
        match self {
            SamplerSpec::WalkEstimate { input, .. }
            | SamplerSpec::ManyShortRuns { input, .. }
            | SamplerSpec::OneLongRun { input, .. } => *input,
        }
    }

    /// Whether a job of this spec runs its walkers on one pool-shared walk
    /// history: the one rule for history sharing. Walkers publish their
    /// forward walks to a [`SharedWalkHistory`](wnw_core::SharedWalkHistory)
    /// at the engine's round barriers, so every walker's weighted backward
    /// sampling reads everyone's walks. Reads see a snapshot frozen between
    /// barriers and merges are additive, so results stay deterministic at
    /// any thread count. Other specs keep no history a walker could share.
    pub fn uses_shared_history(&self) -> bool {
        matches!(
            self,
            SamplerSpec::WalkEstimate { config, .. }
                if config.variant.uses_weighted_sampling()
        )
    }
}

/// A request to the engine: collect `samples` samples with `walkers` virtual
/// walkers under an optional total query budget.
#[derive(Debug, Clone)]
pub struct SampleJob {
    /// Sampler family to run.
    pub spec: SamplerSpec,
    /// Total number of samples to collect (split round-robin across
    /// walkers).
    pub samples: usize,
    /// Number of virtual walkers — the determinism unit, independent of the
    /// engine's thread count.
    pub walkers: usize,
    /// Base RNG seed; walker `w` runs on the stream seeded by `seed ^ w`.
    pub seed: u64,
    /// Optional *total* unique-node query budget, split evenly across
    /// walkers and enforced per walker (a pool-global budget would make the
    /// accepted-sample multiset depend on thread interleaving).
    pub budget: Option<u64>,
    /// Diameter estimate handed to WALK-ESTIMATE's walk-length policy.
    pub diameter_estimate: Option<usize>,
    /// Start node of every walker's walks. `None` (the default) starts from
    /// the network's own [`seed_node`](wnw_access::SocialNetwork::seed_node);
    /// `Some` starts the job at the given node — which also becomes the
    /// `start` component of the job's cross-job history key, so jobs started
    /// on the same hot node exchange history while jobs elsewhere never do.
    /// [`resolve_start`](Self::resolve_start) applies the rule.
    pub start_node: Option<NodeId>,
}

impl SampleJob {
    /// A WALK-ESTIMATE job with the default configuration: 4 virtual
    /// walkers, no budget.
    pub fn walk_estimate(input: RandomWalkKind, samples: usize, seed: u64) -> Self {
        SampleJob {
            spec: SamplerSpec::WalkEstimate {
                input,
                config: WalkEstimateConfig::default(),
            },
            samples,
            walkers: 4,
            seed,
            budget: None,
            diameter_estimate: None,
            start_node: None,
        }
    }

    /// A many-short-runs baseline job.
    pub fn baseline(input: RandomWalkKind, samples: usize, seed: u64) -> Self {
        SampleJob {
            spec: SamplerSpec::ManyShortRuns {
                input,
                config: BurnInConfig::default(),
            },
            samples,
            walkers: 4,
            seed,
            budget: None,
            diameter_estimate: None,
            start_node: None,
        }
    }

    /// Sets the number of virtual walkers.
    pub fn with_walkers(mut self, walkers: usize) -> Self {
        self.walkers = walkers.max(1);
        self
    }

    /// Sets the total query budget.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the diameter estimate for the walk-length policy.
    pub fn with_diameter_estimate(mut self, diameter: usize) -> Self {
        self.diameter_estimate = Some(diameter);
        self
    }

    /// Starts every walker's walks at `start` instead of the network's
    /// seed node.
    pub fn with_start_node(mut self, start: NodeId) -> Self {
        self.start_node = Some(start);
        self
    }

    /// Sets the sampler spec.
    pub fn with_spec(mut self, spec: SamplerSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sample quota of walker `w`: `samples` split round-robin.
    pub fn quota_of(&self, walker: usize) -> usize {
        debug_assert!(walker < self.walkers);
        self.samples / self.walkers + usize::from(walker < self.samples % self.walkers)
    }

    /// Walkers with a nonzero sample quota — the only ones that ever issue
    /// queries. When a job requests fewer samples than it has walkers, the
    /// surplus walkers are idle and must not hold budget shares.
    pub fn active_walkers(&self) -> usize {
        self.walkers.min(self.samples)
    }

    /// Budget share of walker `w` (`None` when the job is unbudgeted): an
    /// even split across the *active* walkers, with the remainder going to
    /// the first of them. Idle walkers (quota 0) get a zero share, so no
    /// budget is stranded on walkers that never draw; the shares of the
    /// active walkers always sum exactly to the job budget.
    pub fn budget_of(&self, walker: usize) -> Option<u64> {
        debug_assert!(walker < self.walkers);
        let active = self.active_walkers() as u64;
        self.budget.map(|b| {
            if walker as u64 >= active {
                return 0;
            }
            b / active + u64::from((walker as u64) < b % active)
        })
    }

    /// Checks the job's sizes before any walker state is built: at least
    /// one sample and one walker, at most [`MAX_WALKERS_PER_JOB`] walkers,
    /// and — when the network knows its size (`node_count_hint`, see
    /// [`SocialNetwork::node_count_hint`]) — a start node inside it and a
    /// diameter estimate below its node count.
    pub fn validate(&self, node_count_hint: Option<usize>) -> Result<(), InvalidJob> {
        if self.samples == 0 {
            return Err(InvalidJob::ZeroSamples);
        }
        if self.walkers == 0 {
            return Err(InvalidJob::ZeroWalkers);
        }
        if self.walkers > MAX_WALKERS_PER_JOB {
            return Err(InvalidJob::TooManyWalkers);
        }
        if let Some(n) = node_count_hint {
            if self.start_node.is_some_and(|start| start.index() >= n) {
                return Err(InvalidJob::StartNodeOutOfRange);
            }
            if self.diameter_estimate.is_some_and(|d| d >= n) {
                return Err(InvalidJob::DiameterTooLarge);
            }
        }
        Ok(())
    }

    /// RNG seed of walker `w`.
    pub fn seed_of(&self, walker: usize) -> u64 {
        self.seed ^ walker as u64
    }

    /// The node every walker of this job starts from on `network`:
    /// [`start_node`](Self::start_node) if set, else the network's own
    /// [`seed_node`](SocialNetwork::seed_node). The driver starts its
    /// walkers here, and the service keys the job's cross-job history on
    /// it.
    pub fn resolve_start<N: SocialNetwork + ?Sized>(&self, network: &N) -> NodeId {
        self.start_node.unwrap_or_else(|| network.seed_node())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotas_and_budgets_split_without_loss() {
        let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 10, 1)
            .with_walkers(4)
            .with_budget(1003);
        let total: usize = (0..4).map(|w| job.quota_of(w)).sum();
        assert_eq!(total, 10);
        assert_eq!(job.quota_of(0), 3);
        assert_eq!(job.quota_of(2), 2);
        let budget: u64 = (0..4).map(|w| job.budget_of(w).unwrap()).sum();
        assert_eq!(budget, 1003);
    }

    #[test]
    fn idle_walkers_hold_no_budget() {
        // 2 samples across 4 walkers: walkers 2 and 3 never draw, so the
        // whole budget must land on the two active walkers (the old even
        // split stranded half of it on idle walkers).
        let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 2, 1)
            .with_walkers(4)
            .with_budget(101);
        assert_eq!(job.active_walkers(), 2);
        assert_eq!(job.quota_of(2), 0);
        assert_eq!(job.budget_of(0), Some(51));
        assert_eq!(job.budget_of(1), Some(50));
        assert_eq!(job.budget_of(2), Some(0));
        assert_eq!(job.budget_of(3), Some(0));
        let total: u64 = (0..4).map(|w| job.budget_of(w).unwrap()).sum();
        assert_eq!(total, 101, "no budget may be lost to rounding");
    }

    #[test]
    fn zero_sample_jobs_split_safely() {
        let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 0, 1)
            .with_walkers(3)
            .with_budget(10);
        assert_eq!(job.active_walkers(), 0);
        for w in 0..3 {
            assert_eq!(job.quota_of(w), 0);
            assert_eq!(job.budget_of(w), Some(0));
        }
    }

    #[test]
    fn validate_bounds_sizes_and_ranges() {
        let job = || SampleJob::walk_estimate(RandomWalkKind::Simple, 5, 1);
        assert_eq!(job().validate(None), Ok(()));
        let mut zero = job();
        zero.samples = 0;
        assert_eq!(zero.validate(None), Err(InvalidJob::ZeroSamples));
        let mut idle = job();
        idle.walkers = 0;
        assert_eq!(idle.validate(None), Err(InvalidJob::ZeroWalkers));
        let mut wide = job();
        wide.walkers = MAX_WALKERS_PER_JOB;
        assert_eq!(wide.validate(Some(10)), Ok(()));
        wide.walkers = MAX_WALKERS_PER_JOB + 1;
        assert_eq!(wide.validate(None), Err(InvalidJob::TooManyWalkers));
        // Range checks need the network's size; without it they pass.
        let far = job().with_start_node(NodeId(10)).with_diameter_estimate(10);
        assert_eq!(far.validate(None), Ok(()));
        assert_eq!(far.validate(Some(11)), Ok(()));
        assert_eq!(
            job().with_start_node(NodeId(10)).validate(Some(10)),
            Err(InvalidJob::StartNodeOutOfRange)
        );
        assert_eq!(
            job().with_diameter_estimate(usize::MAX).validate(Some(10)),
            Err(InvalidJob::DiameterTooLarge)
        );
    }

    #[test]
    fn walker_seeds_differ() {
        let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 4, 99).with_walkers(3);
        assert_ne!(job.seed_of(0), job.seed_of(1));
        assert_ne!(job.seed_of(1), job.seed_of(2));
    }

    #[test]
    fn spec_properties() {
        let we = SampleJob::walk_estimate(RandomWalkKind::MetropolisHastings, 1, 1);
        assert_eq!(we.spec.target(), TargetDistribution::Uniform);
        assert!(we.spec.uses_shared_history());
        let base = SampleJob::baseline(RandomWalkKind::Simple, 1, 1);
        assert_eq!(base.spec.target(), TargetDistribution::DegreeProportional);
        assert!(!base.spec.uses_shared_history());
    }
}
