//! The assembled WALK-ESTIMATE sampler (Section 3, Algorithm WALK-ESTIMATE).
//!
//! Each draw:
//!
//! 1. **WALK** — run a short forward walk of `t` steps (walk-length policy,
//!    default `2·D̄ + 1`) from the starting node, yielding a candidate `v`;
//! 2. **ESTIMATE** — estimate `p_t(v)` with repeated backward walks, using
//!    the initial crawl and/or the history-weighted selection according to
//!    the configured variant;
//! 3. **Acceptance-rejection** — accept `v` with probability
//!    `β(v) = (q̃(v)/p̂_t(v)) · scale`, where `q̃` is the (unnormalised)
//!    target weight of the input walk and `scale` is bootstrapped from the
//!    ratios observed so far (10th percentile by default, Section 6.3.2).
//!
//! Rejected candidates simply trigger another short walk; the history of all
//! forward walks keeps improving the weighted backward sampling as the run
//! progresses.

use crate::config::{WalkEstimateConfig, WalkEstimateVariant};
use crate::estimate::crawl::InitialCrawl;
use crate::estimate::estimator::ProbabilityEstimator;
use crate::history::{FrozenHistory, HistoryHandle, HistoryView, SharedWalkHistory};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wnw_access::{Result, SocialNetwork};
use wnw_graph::NodeId;
use wnw_mcmc::rejection::{acceptance_probability, ObservedRatios};
use wnw_mcmc::sampler::{SampleRecord, Sampler};
use wnw_mcmc::transition::{RandomWalkKind, TargetDistribution};
use wnw_mcmc::walker;

/// The WALK-ESTIMATE sampler: a swap-in replacement for the traditional
/// sampler of the same [`RandomWalkKind`], producing samples of the same
/// target distribution at a lower query cost.
pub struct WalkEstimateSampler<N: SocialNetwork> {
    osn: N,
    kind: RandomWalkKind,
    config: WalkEstimateConfig,
    start: NodeId,
    walk_length: usize,
    estimator: ProbabilityEstimator,
    crawl: Option<InitialCrawl>,
    history: HistoryHandle,
    observed_ratios: ObservedRatios,
    rng: StdRng,
    /// Total forward walks performed (accepted + rejected candidates).
    forward_walks: u64,
}

impl<N: SocialNetwork> WalkEstimateSampler<N> {
    /// Creates a sampler starting from `osn.seed_node()` with the walk length
    /// resolved from the policy's assumed diameter bound.
    pub fn new(osn: N, kind: RandomWalkKind, config: WalkEstimateConfig, seed: u64) -> Self {
        let start = osn.seed_node();
        let walk_length = config.walk_length.resolve(None);
        let estimator = ProbabilityEstimator::from_config(kind, &config);
        WalkEstimateSampler {
            osn,
            kind,
            config,
            start,
            walk_length,
            estimator,
            crawl: None,
            history: HistoryHandle::default(),
            observed_ratios: ObservedRatios::default(),
            rng: StdRng::seed_from_u64(seed),
            forward_walks: 0,
        }
    }

    /// Overrides the starting node (also the crawl centre).
    pub fn with_start(mut self, start: NodeId) -> Self {
        self.start = start;
        self.crawl = None;
        self
    }

    /// Plugs this sampler into a pool-shared walk history: its forward walks
    /// are published to `shared` on [`flush_history`](Self::flush_history),
    /// and its weighted backward sampling reads everyone's published walks
    /// (plus its own unpublished ones). A frozen cross-job `base` (walks
    /// published by completed prior jobs) is read at
    /// [`reused_weight`](crate::history::reused_weight) and never
    /// republished: this sampler's own walks flush to `shared` only. The
    /// estimator stays unbiased under any history, so this only changes
    /// variance, never correctness.
    pub fn with_shared_history(
        mut self,
        shared: Arc<SharedWalkHistory>,
        base: Option<Arc<FrozenHistory>>,
    ) -> Self {
        self.history = HistoryHandle::shared(shared, base);
        self
    }

    /// Publishes pending forward walks to the shared history, if any. The
    /// engine calls this at its deterministic round barriers; for samplers
    /// with a private history it is a no-op.
    pub fn flush_history(&mut self) {
        self.history.flush();
    }

    /// Re-resolves the walk length with a concrete diameter estimate
    /// (e.g. `7` for the paper's Google Plus experiments).
    pub fn with_diameter_estimate(mut self, diameter: usize) -> Self {
        self.walk_length = self.config.walk_length.resolve(Some(diameter));
        self
    }

    /// The forward walk length `t` in use.
    pub fn walk_length(&self) -> usize {
        self.walk_length
    }

    /// Number of forward walks (candidate draws) performed so far.
    pub fn forward_walks(&self) -> u64 {
        self.forward_walks
    }

    /// The wrapped access layer.
    pub fn network(&self) -> &N {
        &self.osn
    }

    /// The configured variant (WE / WE-None / WE-Crawl / WE-Weighted).
    pub fn variant(&self) -> WalkEstimateVariant {
        self.config.variant
    }

    fn ensure_crawl(&mut self) -> Result<()> {
        if self.config.variant.uses_crawl() && self.crawl.is_none() && self.config.crawl_depth > 0 {
            self.crawl = Some(InitialCrawl::build(
                &self.osn,
                self.kind,
                self.start,
                self.config.crawl_depth,
            )?);
        }
        Ok(())
    }
}

impl<N: SocialNetwork> Sampler for WalkEstimateSampler<N> {
    fn draw(&mut self) -> Result<SampleRecord> {
        self.ensure_crawl()?;
        let mut attempts: u32 = 0;
        loop {
            attempts += 1;
            // WALK: a short forward walk to a candidate node.
            let walk = walker::random_walk(
                &self.osn,
                self.kind,
                self.start,
                self.walk_length,
                &mut self.rng,
            )?;
            self.forward_walks += 1;
            self.history.record_walk(&walk.path);
            let candidate = walk.current();

            // ESTIMATE: the candidate's sampling probability p_t(candidate).
            let history_view = self.history.view();
            let history: Option<&dyn HistoryView> = if self.config.variant.uses_weighted_sampling()
            {
                Some(&history_view)
            } else {
                None
            };
            // An MHRW walk ends holding the candidate's list; the backward
            // walks and the acceptance step read it instead of fetching it.
            let estimate = self.estimator.estimate_single(
                &self.osn,
                candidate,
                walk.last_list,
                self.start,
                self.walk_length,
                self.crawl.as_ref(),
                history,
                &mut self.rng,
            )?;

            // Rejection sampling toward the input walk's target distribution.
            // The candidate's degree is the length of the list the backward
            // walks fetched, when any of them did.
            let degree = match self.estimator.fetched_degree(candidate) {
                Some(degree) => degree,
                None => self.osn.degree(candidate)?,
            };
            let target_weight = self.kind.target().weight(degree);
            let probability = estimate.probability;
            if probability > 0.0 && target_weight > 0.0 {
                self.observed_ratios.record(probability / target_weight);
            }
            let scale = self.config.scaling_factor.resolve(&self.observed_ratios);
            let accept = match scale {
                // Until any ratio has been observed there is nothing to
                // correct against; accept the first candidate.
                None => true,
                Some(scale) => {
                    let beta = acceptance_probability(probability, target_weight, scale);
                    self.rng.gen::<f64>() < beta
                }
            };
            if accept || attempts >= self.config.max_attempts_per_sample {
                return Ok(SampleRecord {
                    node: candidate,
                    query_cost: self.osn.query_cost(),
                    attempts,
                });
            }
        }
    }

    fn target(&self) -> TargetDistribution {
        self.kind.target()
    }

    fn name(&self) -> String {
        format!("{}({})", self.config.variant.label(), self.kind.name())
    }

    fn flush_shared_state(&mut self) {
        self.flush_history();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::WalkLengthPolicy;
    use wnw_access::{QueryBudget, SimulatedOsn};
    use wnw_analytics::bias::EmpiricalDistribution;
    use wnw_graph::generators::random::barabasi_albert;
    use wnw_graph::metrics;
    use wnw_mcmc::collect_samples;
    use wnw_mcmc::distribution::TransitionMatrix;

    fn osn_with_graph(n: usize, seed: u64) -> (SimulatedOsn, wnw_graph::Graph) {
        let graph = barabasi_albert(n, 3, seed).unwrap();
        (SimulatedOsn::new(graph.clone()), graph)
    }

    #[test]
    fn draws_valid_samples_and_tracks_cost() {
        let (osn, graph) = osn_with_graph(300, 1);
        let diameter = metrics::exact_diameter(&graph).unwrap();
        let mut sampler = WalkEstimateSampler::new(
            osn.clone(),
            RandomWalkKind::Simple,
            WalkEstimateConfig::default(),
            42,
        )
        .with_diameter_estimate(diameter);
        assert_eq!(sampler.walk_length(), 2 * diameter + 1);
        let run = collect_samples(&mut sampler, 10).unwrap();
        assert_eq!(run.len(), 10);
        for s in &run.samples {
            assert!(graph.contains(s.node));
            assert!(s.attempts >= 1);
        }
        for w in run.samples.windows(2) {
            assert!(w[1].query_cost >= w[0].query_cost);
        }
        assert!(sampler.forward_walks() >= 10);
        assert_eq!(sampler.name(), "WE(SRW)");
        assert_eq!(sampler.target(), TargetDistribution::DegreeProportional);
    }

    #[test]
    fn variant_labels_and_targets() {
        let (osn, _) = osn_with_graph(100, 2);
        let sampler = WalkEstimateSampler::new(
            osn.clone(),
            RandomWalkKind::MetropolisHastings,
            WalkEstimateConfig::default().with_variant(WalkEstimateVariant::CrawlOnly),
            1,
        );
        assert_eq!(sampler.name(), "WE-Crawl(MHRW)");
        assert_eq!(sampler.target(), TargetDistribution::Uniform);
        assert_eq!(sampler.variant(), WalkEstimateVariant::CrawlOnly);
    }

    #[test]
    fn budget_exhaustion_stops_cleanly() {
        let graph = barabasi_albert(300, 3, 3).unwrap();
        let osn = SimulatedOsn::builder(graph).budget(QueryBudget(80)).build();
        let mut sampler = WalkEstimateSampler::new(
            osn,
            RandomWalkKind::Simple,
            WalkEstimateConfig::default(),
            5,
        )
        .with_diameter_estimate(4);
        let run = collect_samples(&mut sampler, 1000).unwrap();
        assert!(run.budget_exhausted);
        assert!(run.final_query_cost() <= 80);
    }

    #[test]
    fn uniform_target_correction_beats_uncorrected_short_walk() {
        // WE with MHRW input targets the uniform distribution. Compare the
        // total-variation distance to uniform of (a) WE samples and (b) the
        // raw short-walk distribution it corrects — the correction must help.
        let (osn, graph) = osn_with_graph(40, 7);
        let n = graph.node_count();
        // Deliberately *under*-mixed walk length: at 2·D̄ + 1 the raw walk on
        // a 40-node graph is already so close to uniform that the empirical
        // TV of any sampler is dominated by sampling noise (~0.08 for 1500
        // samples over 40 nodes) and the comparison is meaningless. At t = 3
        // the raw distribution is visibly biased, which is exactly the regime
        // the acceptance-rejection correction exists for.
        let walk_length = 3;
        let config = WalkEstimateConfig {
            // Use a generous estimation budget so the acceptance probabilities
            // are driven by the correction, not by estimator noise.
            backward_repetitions: 6,
            ..WalkEstimateConfig::default()
        }
        .with_walk_length(WalkLengthPolicy::Fixed(walk_length))
        .with_crawl_depth(2);
        let mut sampler =
            WalkEstimateSampler::new(osn, RandomWalkKind::MetropolisHastings, config, 11);
        let run = collect_samples(&mut sampler, 1500).unwrap();
        assert_eq!(run.len(), 1500);
        let empirical = EmpiricalDistribution::from_samples(n, &run.nodes());
        let uniform = vec![1.0 / n as f64; n];
        let we_tv = empirical.total_variation_distance(&uniform);

        // The raw (uncorrected) sampling distribution of the short MHRW walk.
        let raw = TransitionMatrix::new(&graph, RandomWalkKind::MetropolisHastings)
            .distribution_after(NodeId(0), walk_length);
        let raw_tv: f64 = 0.5
            * raw
                .iter()
                .zip(&uniform)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>();

        assert!(
            we_tv < raw_tv,
            "WE should be closer to uniform than the uncorrected walk: {we_tv} vs {raw_tv}"
        );
    }

    #[test]
    fn rejection_is_actually_exercised() {
        let (osn, _) = osn_with_graph(200, 13);
        let config = WalkEstimateConfig::default();
        let mut sampler =
            WalkEstimateSampler::new(osn, RandomWalkKind::MetropolisHastings, config, 17)
                .with_diameter_estimate(4);
        let run = collect_samples(&mut sampler, 60).unwrap();
        let total_attempts: u32 = run.samples.iter().map(|s| s.attempts).sum();
        assert!(
            total_attempts > run.len() as u32,
            "at least some candidates should be rejected (attempts {total_attempts})"
        );
    }

    #[test]
    fn max_attempts_guard_terminates_draws() {
        // An absurdly high manual scaling factor forces near-certain
        // rejection; the guard must still terminate each draw.
        let (osn, _) = osn_with_graph(100, 19);
        let config = WalkEstimateConfig {
            max_attempts_per_sample: 3,
            scaling_factor: wnw_mcmc::ScalingFactorPolicy::Manual(1e-30),
            ..WalkEstimateConfig::default()
        };
        let mut sampler = WalkEstimateSampler::new(osn, RandomWalkKind::Simple, config, 23)
            .with_diameter_estimate(4);
        let run = collect_samples(&mut sampler, 5).unwrap();
        assert_eq!(run.len(), 5);
        assert!(run.samples.iter().all(|s| s.attempts <= 3));
    }

    #[test]
    fn we_none_variant_skips_crawl() {
        let (osn, _) = osn_with_graph(150, 29);
        let before = osn.query_cost();
        assert_eq!(before, 0);
        let config = WalkEstimateConfig::default().with_variant(WalkEstimateVariant::None);
        let mut sampler = WalkEstimateSampler::new(osn.clone(), RandomWalkKind::Simple, config, 31)
            .with_diameter_estimate(4);
        let _ = collect_samples(&mut sampler, 2).unwrap();
        // No 2-hop crawl of the (high-degree) start node: the query cost
        // should stay modest. A crawl of a BA hub would touch a large share
        // of the 150-node graph immediately.
        assert!(sampler.name().starts_with("WE-None"));
    }

    #[test]
    fn an_attempt_fetches_each_list_once() {
        // One attempt per draw, on a shared counter. A simple random walk
        // fetches one list per forward step and one per backward step, and
        // the candidate's list once: the backward walks share it and the
        // acceptance step reads its degree from it. When the crawl answers
        // every backward walk at once, the acceptance step asks itself.
        // MHRW's forward walk also lists each proposal, the candidate's
        // list among them, and hands that list on: with the crawl answering
        // at once, the acceptance step reads the degree from it.
        let (osn, _) = osn_with_graph(200, 37);
        let t = 6;
        for (kind, variant, walk_length, forward_fetches, backward_steps, degree_probes) in [
            (
                RandomWalkKind::Simple,
                WalkEstimateVariant::WeightedOnly,
                t,
                t,
                5 * t + 1,
                0,
            ),
            (
                RandomWalkKind::Simple,
                WalkEstimateVariant::Full,
                t,
                t,
                5 * (t - 2) + 1,
                0,
            ),
            (
                RandomWalkKind::Simple,
                WalkEstimateVariant::Full,
                2,
                2,
                0,
                1,
            ),
            (
                RandomWalkKind::MetropolisHastings,
                WalkEstimateVariant::Full,
                2,
                3,
                0,
                0,
            ),
        ] {
            let config = WalkEstimateConfig {
                max_attempts_per_sample: 1,
                ..WalkEstimateConfig::default()
            }
            .with_variant(variant)
            .with_walk_length(WalkLengthPolicy::Fixed(walk_length));
            let mut sampler = WalkEstimateSampler::new(osn.clone(), kind, config, 41);
            sampler.draw().unwrap(); // builds the crawl
            for _ in 0..5 {
                let before = osn.query_stats().api_calls;
                sampler.draw().unwrap();
                assert_eq!(
                    osn.query_stats().api_calls - before,
                    (forward_fetches + backward_steps + degree_probes) as u64,
                    "{kind:?} {variant:?} t={walk_length}"
                );
            }
        }
    }
}
