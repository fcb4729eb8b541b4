//! Shared experiment loops: build a sampler, run it against a budget or a
//! sample-count target, estimate an aggregate, and average the relative error
//! over repetitions — the common core of Figures 6–11.

use crate::measures::Aggregate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wnw_access::{SimulatedOsn, SocialNetwork};
use wnw_analytics::aggregates::{estimate_average, relative_error, SampleValue, WeightingScheme};
use wnw_core::{WalkEstimateConfig, WalkEstimateSampler, WalkEstimateVariant};
use wnw_graph::{metrics, Graph, NodeId};
use wnw_mcmc::burn_in::{BurnInConfig, ManyShortRunsSampler, OneLongRunSampler};
use wnw_mcmc::sampler::{collect_samples, Sampler};
use wnw_mcmc::{RandomWalkKind, TargetDistribution};
use wnw_runtime::WorkerPool;

use std::sync::{Arc, OnceLock};

/// The samplers compared in the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerKind {
    /// Traditional simple random walk with Geweke-monitored burn-in,
    /// many-short-runs style.
    Srw,
    /// Traditional Metropolis–Hastings random walk, many-short-runs style.
    Mhrw,
    /// One-long-run variant of SRW (Section 6.1 discussion).
    SrwOneLongRun,
    /// WALK-ESTIMATE with the given input walk and heuristic variant.
    WalkEstimate {
        /// The input random-walk design WE replaces.
        input: RandomWalkKind,
        /// Which variance-reduction heuristics are enabled.
        variant: WalkEstimateVariant,
    },
}

impl SamplerKind {
    /// Label used in result tables ("SRW", "WE(SRW)", "WE-Crawl(MHRW)", ...).
    pub fn label(&self) -> String {
        match self {
            SamplerKind::Srw => "SRW".to_string(),
            SamplerKind::Mhrw => "MHRW".to_string(),
            SamplerKind::SrwOneLongRun => "SRW-one-long-run".to_string(),
            SamplerKind::WalkEstimate { input, variant } => {
                format!("{}({})", variant.label(), input.name())
            }
        }
    }

    /// The target distribution of the emitted samples.
    pub fn target(&self) -> TargetDistribution {
        match self {
            SamplerKind::Srw | SamplerKind::SrwOneLongRun => TargetDistribution::DegreeProportional,
            SamplerKind::Mhrw => TargetDistribution::Uniform,
            SamplerKind::WalkEstimate { input, .. } => input.target(),
        }
    }

    /// The estimator weighting matching this sampler's target distribution.
    pub fn weighting(&self) -> WeightingScheme {
        match self.target() {
            TargetDistribution::Uniform => WeightingScheme::Uniform,
            TargetDistribution::DegreeProportional => WeightingScheme::InverseDegree,
        }
    }

    /// The WALK-ESTIMATE counterpart of a traditional sampler (used to pair
    /// curves in the figures). WE kinds return themselves.
    pub fn walk_estimate_counterpart(&self) -> SamplerKind {
        match self {
            SamplerKind::Srw | SamplerKind::SrwOneLongRun => SamplerKind::WalkEstimate {
                input: RandomWalkKind::Simple,
                variant: WalkEstimateVariant::Full,
            },
            SamplerKind::Mhrw => SamplerKind::WalkEstimate {
                input: RandomWalkKind::MetropolisHastings,
                variant: WalkEstimateVariant::Full,
            },
            we @ SamplerKind::WalkEstimate { .. } => *we,
        }
    }

    /// The engine [`SamplerSpec`](wnw_engine::SamplerSpec) equivalent of
    /// this kind, for dispatching pooled jobs through
    /// [`wnw_engine::Engine`].
    pub fn spec(&self, config: &WalkEstimateConfig) -> wnw_engine::SamplerSpec {
        use wnw_mcmc::burn_in::BurnInConfig;
        match *self {
            SamplerKind::Srw => wnw_engine::SamplerSpec::ManyShortRuns {
                input: RandomWalkKind::Simple,
                config: BurnInConfig::default(),
            },
            SamplerKind::Mhrw => wnw_engine::SamplerSpec::ManyShortRuns {
                input: RandomWalkKind::MetropolisHastings,
                config: BurnInConfig::default(),
            },
            SamplerKind::SrwOneLongRun => wnw_engine::SamplerSpec::OneLongRun {
                input: RandomWalkKind::Simple,
                config: BurnInConfig::default(),
            },
            SamplerKind::WalkEstimate { input, variant } => wnw_engine::SamplerSpec::WalkEstimate {
                input,
                config: config.with_variant(variant),
            },
        }
    }

    /// Builds the sampler over a prepared access layer.
    pub fn build(
        &self,
        osn: SimulatedOsn,
        diameter_estimate: usize,
        config: &WalkEstimateConfig,
        seed: u64,
    ) -> Box<dyn Sampler> {
        match *self {
            SamplerKind::Srw => Box::new(ManyShortRunsSampler::new(
                osn,
                RandomWalkKind::Simple,
                BurnInConfig::default(),
                seed,
            )),
            SamplerKind::Mhrw => Box::new(ManyShortRunsSampler::new(
                osn,
                RandomWalkKind::MetropolisHastings,
                BurnInConfig::default(),
                seed,
            )),
            SamplerKind::SrwOneLongRun => Box::new(OneLongRunSampler::new(
                osn,
                RandomWalkKind::Simple,
                BurnInConfig::default(),
                seed,
            )),
            SamplerKind::WalkEstimate { input, variant } => Box::new(
                WalkEstimateSampler::new(osn, input, config.with_variant(variant), seed)
                    .with_diameter_estimate(diameter_estimate),
            ),
        }
    }
}

/// Fixed experiment environment for one dataset: the graph, its estimated
/// diameter, the WE configuration in force, and the persistent worker pool
/// repetitions are fanned over.
#[derive(Debug, Clone)]
pub struct Workbench {
    /// The ground-truth graph behind the simulated access layer.
    pub graph: Graph,
    /// Diameter estimate fed to the WALK length policy.
    pub diameter: usize,
    /// WALK-ESTIMATE configuration (crawl depth etc.).
    pub config: WalkEstimateConfig,
    /// Width of the repetition-dispatch pool (see [`Workbench::pool`]).
    width: usize,
    /// The persistent [`WorkerPool`] independent repetitions are fanned
    /// over through the engine's [`scatter_map`](wnw_engine::scatter_map):
    /// spawned lazily on first use (so `new(...).with_threads(n)` never
    /// spawns a pool it immediately discards), then reused by every budget
    /// point of every figure — no per-call thread creation. Clones taken
    /// after the first use share the spawned pool. Results are averaged in
    /// repetition order, so they are identical at any pool width.
    pool: OnceLock<Arc<WorkerPool>>,
}

impl Workbench {
    /// Prepares a workbench, estimating the diameter with a double sweep.
    /// Repetitions are dispatched over a pool as wide as the available
    /// hardware parallelism.
    pub fn new(graph: Graph, config: WalkEstimateConfig) -> Self {
        let diameter = metrics::double_sweep_diameter_estimate(&graph, 0xD1A)
            .unwrap_or(10)
            .max(2);
        Workbench {
            graph,
            diameter,
            config,
            width: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            pool: OnceLock::new(),
        }
    }

    /// Sets the repetition-dispatch pool width (1 = sequential: no worker
    /// threads at all). Any already-spawned pool is released; the next use
    /// spawns one at the new width.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.width = threads.max(1);
        self.pool = OnceLock::new();
        self
    }

    /// The repetition-dispatch pool's width.
    pub fn threads(&self) -> usize {
        self.width
    }

    /// The persistent pool repetitions are fanned over, spawned on first
    /// use (and shared by clones taken after that).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        self.pool
            .get_or_init(|| Arc::new(WorkerPool::new(self.width)))
    }

    fn osn(&self, start: NodeId) -> SimulatedOsn {
        SimulatedOsn::builder(self.graph.clone())
            .seed_node(start)
            .build()
    }

    fn random_start(&self, rng: &mut StdRng) -> NodeId {
        NodeId::new(rng.gen_range(0..self.graph.node_count()))
    }

    fn sample_values(
        &self,
        report: &wnw_engine::JobReport,
        aggregate: &Aggregate,
    ) -> Vec<SampleValue> {
        report
            .samples
            .iter()
            .map(|s| SampleValue {
                node: s.node,
                value: aggregate.node_value(&self.graph, s.node),
                degree: self.graph.degree(s.node),
            })
            .collect()
    }
}

/// Virtual walkers per repetition of [`error_vs_cost`] and
/// [`error_vs_samples`].
const REPETITION_WALKERS: usize = 2;

/// One repetition through the pooled engine: [`REPETITION_WALKERS`] virtual
/// walkers over one shared per-repetition cache (cooperative history), an
/// optional query budget split across the *active* walkers at the job level
/// (see [`SampleJob::budget_of`](wnw_engine::SampleJob::budget_of) — no share
/// is stranded on idle walkers, and the shares sum exactly to the budget,
/// matching the budget semantics every `SamplerKind` gets through
/// [`SamplerKind::spec`]). Runs on a width-1 (inline, zero-worker) engine
/// pool so it composes with the repetition-level
/// [`scatter_map`](wnw_engine::scatter_map) fan-out without oversubscription
/// — and without nesting rounds inside the workbench pool's own round,
/// which the pool forbids; the engine's determinism guarantee makes the
/// thread choice invisible to the result.
fn pooled_repetition(
    bench: &Workbench,
    kind: SamplerKind,
    start: NodeId,
    budget: Option<u64>,
    samples: usize,
    seed: u64,
) -> wnw_engine::JobReport {
    let osn = bench.osn(start);
    let job = wnw_engine::SampleJob {
        spec: kind.spec(&bench.config),
        samples,
        walkers: REPETITION_WALKERS,
        seed,
        budget,
        diameter_estimate: Some(bench.diameter),
        start_node: None,
    };
    wnw_engine::Engine::with_threads(1)
        .run(&osn, &job)
        .expect("budget exhaustion ends walkers normally; the simulator raises nothing else")
}

/// One point of an error-vs-query-cost curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorVsCostPoint {
    /// Query budget given to the sampler.
    pub budget: u64,
    /// Query cost actually spent (averaged over repetitions).
    pub query_cost: f64,
    /// Relative error of the aggregate estimate (averaged over repetitions).
    pub relative_error: f64,
    /// Number of samples obtained (averaged over repetitions).
    pub samples: f64,
}

/// Runs `kind` against each budget and reports the averaged relative error of
/// `aggregate` (the building block of Figures 6–8, 9, 11a). Each repetition
/// is one two-walker engine job whose query cost is the pool's unique-node
/// count.
pub fn error_vs_cost(
    bench: &Workbench,
    kind: SamplerKind,
    aggregate: &Aggregate,
    budgets: &[u64],
    repetitions: usize,
    base_seed: u64,
) -> Vec<ErrorVsCostPoint> {
    let truth = aggregate.ground_truth(&bench.graph);
    let mut rng = StdRng::seed_from_u64(base_seed);
    budgets
        .iter()
        .map(|&budget| {
            // Start nodes come from the shared stream *before* the fan-out,
            // so the dispatch width never changes which repetition sees
            // which start.
            let starts: Vec<NodeId> = (0..repetitions)
                .map(|_| bench.random_start(&mut rng))
                .collect();
            let outcomes = wnw_engine::scatter_map(bench.pool(), starts, |rep, start| {
                let seed = base_seed ^ (rep as u64) << 8 ^ budget;
                // The budget is enforced as per-walker shares inside the
                // engine; the x-axis cost is the pool's unique-node count
                // (each node charged once, however many walkers touched it).
                let report =
                    pooled_repetition(bench, kind, start, Some(budget), usize::MAX >> 1, seed);
                let values = bench.sample_values(&report, aggregate);
                let estimate = estimate_average(&values, kind.weighting());
                (
                    relative_error(estimate, truth),
                    report.query_cost() as f64,
                    report.len() as f64,
                )
            });
            let mut err_sum = 0.0;
            let mut cost_sum = 0.0;
            let mut sample_sum = 0.0;
            for (err, cost, samples) in outcomes {
                err_sum += err;
                cost_sum += cost;
                sample_sum += samples;
            }
            ErrorVsCostPoint {
                budget,
                query_cost: cost_sum / repetitions as f64,
                relative_error: err_sum / repetitions as f64,
                samples: sample_sum / repetitions as f64,
            }
        })
        .collect()
}

/// One point of an error-vs-sample-count curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorVsSamplesPoint {
    /// Number of samples requested.
    pub samples: usize,
    /// Relative error of the aggregate estimate (averaged over repetitions).
    pub relative_error: f64,
    /// Query cost spent to obtain the samples (averaged over repetitions).
    pub query_cost: f64,
}

/// Runs `kind` until it has produced each sample count and reports the
/// averaged relative error (Figures 10, 11b). Each repetition is one
/// two-walker engine job, as in [`error_vs_cost`].
pub fn error_vs_samples(
    bench: &Workbench,
    kind: SamplerKind,
    aggregate: &Aggregate,
    sample_counts: &[usize],
    repetitions: usize,
    base_seed: u64,
) -> Vec<ErrorVsSamplesPoint> {
    let truth = aggregate.ground_truth(&bench.graph);
    let mut rng = StdRng::seed_from_u64(base_seed);
    sample_counts
        .iter()
        .map(|&count| {
            let starts: Vec<NodeId> = (0..repetitions)
                .map(|_| bench.random_start(&mut rng))
                .collect();
            let outcomes = wnw_engine::scatter_map(bench.pool(), starts, |rep, start| {
                let seed = base_seed ^ (rep as u64) << 8 ^ count as u64;
                let report = pooled_repetition(bench, kind, start, None, count, seed);
                let values = bench.sample_values(&report, aggregate);
                let estimate = estimate_average(&values, kind.weighting());
                (relative_error(estimate, truth), report.query_cost() as f64)
            });
            let mut err_sum = 0.0;
            let mut cost_sum = 0.0;
            for (err, cost) in outcomes {
                err_sum += err;
                cost_sum += cost;
            }
            ErrorVsSamplesPoint {
                samples: count,
                relative_error: err_sum / repetitions as f64,
                query_cost: cost_sum / repetitions as f64,
            }
        })
        .collect()
}

/// Average number of neighbor-list API calls ("walk steps") spent per sample
/// — the y-axis of Figure 5.
pub fn api_calls_per_sample(
    bench: &Workbench,
    kind: SamplerKind,
    samples: usize,
    repetitions: usize,
    base_seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(base_seed);
    let starts: Vec<NodeId> = (0..repetitions)
        .map(|_| bench.random_start(&mut rng))
        .collect();
    let per_rep = wnw_engine::scatter_map(bench.pool(), starts, |rep, start| {
        let osn = bench.osn(start);
        let mut sampler = kind.build(
            osn.clone(),
            bench.diameter,
            &bench.config,
            base_seed ^ rep as u64,
        );
        let run = collect_samples(sampler.as_mut(), samples).expect("unlimited budget");
        let calls = osn.query_stats().api_calls as f64;
        calls / run.len().max(1) as f64
    });
    per_rep.iter().sum::<f64>() / repetitions as f64
}

/// Draws `count` samples and returns the sampled node ids (used by the
/// exact-bias study of Figure 12 / Table 1).
pub fn draw_nodes(bench: &Workbench, kind: SamplerKind, count: usize, seed: u64) -> Vec<NodeId> {
    let osn = bench.osn(NodeId(0));
    let mut sampler = kind.build(osn, bench.diameter, &bench.config, seed);
    let run = collect_samples(sampler.as_mut(), count).expect("unlimited budget");
    run.nodes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnw_graph::generators::random::barabasi_albert;

    fn bench() -> Workbench {
        let graph = barabasi_albert(300, 3, 5).unwrap();
        Workbench::new(graph, WalkEstimateConfig::default())
    }

    #[test]
    fn sampler_kind_labels_and_pairing() {
        assert_eq!(SamplerKind::Srw.label(), "SRW");
        assert_eq!(SamplerKind::Mhrw.label(), "MHRW");
        let we = SamplerKind::Srw.walk_estimate_counterpart();
        assert_eq!(we.label(), "WE(SRW)");
        assert_eq!(we.walk_estimate_counterpart(), we);
        assert_eq!(SamplerKind::Mhrw.weighting(), WeightingScheme::Uniform);
        assert_eq!(SamplerKind::Srw.weighting(), WeightingScheme::InverseDegree);
        assert_eq!(
            SamplerKind::SrwOneLongRun.target(),
            TargetDistribution::DegreeProportional
        );
    }

    #[test]
    fn error_vs_cost_produces_monotone_budgets() {
        let bench = bench();
        let points = error_vs_cost(
            &bench,
            SamplerKind::Srw,
            &Aggregate::Degree,
            &[60, 120, 180],
            2,
            7,
        );
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.query_cost <= p.budget as f64 + 1.0);
            assert!(p.relative_error.is_finite());
            assert!(p.samples >= 0.0);
        }
        assert!(points[2].samples >= points[0].samples);
    }

    #[test]
    fn error_vs_cost_works_for_walk_estimate() {
        let bench = bench();
        let kind = SamplerKind::WalkEstimate {
            input: RandomWalkKind::Simple,
            variant: WalkEstimateVariant::Full,
        };
        let points = error_vs_cost(&bench, kind, &Aggregate::Degree, &[80, 160], 2, 11);
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.relative_error.is_finite()));
    }

    #[test]
    fn error_vs_samples_improves_with_more_samples() {
        let bench = bench();
        let points = error_vs_samples(
            &bench,
            SamplerKind::Mhrw,
            &Aggregate::Degree,
            &[5, 60],
            3,
            13,
        );
        assert_eq!(points.len(), 2);
        // Not guaranteed monotone for every seed, but the 12x sample count
        // should not be dramatically worse.
        assert!(points[1].relative_error <= points[0].relative_error * 2.0 + 0.05);
        assert!(points[1].query_cost > points[0].query_cost);
    }

    #[test]
    fn api_calls_per_sample_is_positive() {
        let bench = bench();
        let calls = api_calls_per_sample(&bench, SamplerKind::Srw, 3, 2, 17);
        assert!(calls > 1.0);
    }

    #[test]
    fn draw_nodes_returns_requested_count() {
        let bench = bench();
        let kind = SamplerKind::WalkEstimate {
            input: RandomWalkKind::MetropolisHastings,
            variant: WalkEstimateVariant::Full,
        };
        let nodes = draw_nodes(&bench, kind, 5, 19);
        assert_eq!(nodes.len(), 5);
        assert!(nodes.iter().all(|&v| bench.graph.contains(v)));
    }

    #[test]
    fn pooled_error_vs_cost_respects_budgets_and_is_invariant() {
        let bench = bench();
        for kind in [
            SamplerKind::Srw,
            SamplerKind::WalkEstimate {
                input: RandomWalkKind::Simple,
                variant: WalkEstimateVariant::Full,
            },
        ] {
            let points = error_vs_cost(&bench, kind, &Aggregate::Degree, &[80, 160], 2, 31);
            assert_eq!(points.len(), 2);
            for p in &points {
                // The pool's unique-node cost respects the job budget: each
                // walker's share is enforced on its own metered view, and
                // shared-cache hits can only push the pool cost *below* the
                // sum of shares.
                assert!(
                    p.query_cost <= p.budget as f64 + 1.0,
                    "{} pool cost {} exceeded budget {}",
                    kind.label(),
                    p.query_cost,
                    p.budget
                );
                assert!(p.relative_error.is_finite());
            }
        }
        // Thread-count invariance holds on the pooled path too.
        let seq = error_vs_cost(
            &bench.clone().with_threads(1),
            SamplerKind::Srw,
            &Aggregate::Degree,
            &[80, 160],
            3,
            37,
        );
        let par = error_vs_cost(
            &bench.clone().with_threads(8),
            SamplerKind::Srw,
            &Aggregate::Degree,
            &[80, 160],
            3,
            37,
        );
        assert_eq!(seq, par);
    }

    #[test]
    fn pooled_error_vs_samples_reaches_requested_counts() {
        let bench = bench();
        let points = error_vs_samples(
            &bench,
            SamplerKind::WalkEstimate {
                input: RandomWalkKind::Simple,
                variant: WalkEstimateVariant::Full,
            },
            &Aggregate::Degree,
            &[4, 12],
            2,
            41,
        );
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.relative_error.is_finite());
            assert!(p.query_cost > 0.0);
        }
    }

    #[test]
    fn repetition_dispatch_is_thread_count_invariant() {
        let bench = bench();
        let seq = error_vs_cost(
            &bench.clone().with_threads(1),
            SamplerKind::Srw,
            &Aggregate::Degree,
            &[80, 160],
            3,
            29,
        );
        let par = error_vs_cost(
            &bench.clone().with_threads(8),
            SamplerKind::Srw,
            &Aggregate::Degree,
            &[80, 160],
            3,
            29,
        );
        assert_eq!(
            seq, par,
            "parallel repetition dispatch must not change results"
        );
    }

    #[test]
    fn sampler_kind_spec_roundtrip() {
        let config = WalkEstimateConfig::default();
        assert!(matches!(
            SamplerKind::Srw.spec(&config),
            wnw_engine::SamplerSpec::ManyShortRuns {
                input: RandomWalkKind::Simple,
                ..
            }
        ));
        assert!(matches!(
            SamplerKind::SrwOneLongRun.spec(&config),
            wnw_engine::SamplerSpec::OneLongRun { .. }
        ));
        let we = SamplerKind::WalkEstimate {
            input: RandomWalkKind::MetropolisHastings,
            variant: WalkEstimateVariant::CrawlOnly,
        };
        match we.spec(&config) {
            wnw_engine::SamplerSpec::WalkEstimate { input, config } => {
                assert_eq!(input, RandomWalkKind::MetropolisHastings);
                assert_eq!(config.variant, WalkEstimateVariant::CrawlOnly);
            }
            other => panic!("wrong spec {other:?}"),
        }
    }
}
