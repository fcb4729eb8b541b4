//! Algorithm 3 — ESTIMATE: repeated backward estimates per candidate.
//!
//! A single backward estimate is unbiased but noisy, so ESTIMATE averages
//! `backward_repetitions` of them per candidate, all through the walker's
//! [`BackwardBuffers`]. The paper's variance-proportional split of a pooled
//! budget across several candidates is not served: a walker estimates one
//! candidate per attempt, and with one candidate that split is this flat
//! average.

use crate::config::{WalkEstimateConfig, WalkEstimateVariant};
use crate::estimate::crawl::InitialCrawl;
use crate::estimate::unbiased::{backward_estimate, BackwardBuffers, BackwardOptions};
use crate::history::HistoryView;
use rand::Rng;
use std::sync::Arc;
use wnw_access::{Result, SocialNetwork};
use wnw_analytics::stats::RunningStats;
use wnw_graph::NodeId;
use wnw_mcmc::RandomWalkKind;

/// The estimate of a candidate's sampling probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbabilityEstimate {
    /// The candidate node.
    pub node: NodeId,
    /// Walk length the probability refers to.
    pub walk_length: usize,
    /// Mean of the backward estimates (the estimate of `p_t(node)`).
    pub probability: f64,
    /// Variance across the backward estimates.
    pub variance: f64,
    /// Number of backward estimates averaged.
    pub repetitions: usize,
}

/// Repeated-estimation engine implementing Algorithm 3, with the backward
/// walks' [`BackwardBuffers`] of the walker that owns it.
#[derive(Debug, Clone)]
pub struct ProbabilityEstimator {
    kind: RandomWalkKind,
    repetitions: usize,
    variant: WalkEstimateVariant,
    buffers: BackwardBuffers,
}

impl ProbabilityEstimator {
    /// Builds an estimator from the sampler configuration.
    pub fn from_config(kind: RandomWalkKind, config: &WalkEstimateConfig) -> Self {
        ProbabilityEstimator {
            kind,
            repetitions: config.backward_repetitions.max(1),
            variant: config.variant,
            buffers: BackwardBuffers::default(),
        }
    }

    /// `|N(node)|`, if the last estimate fetched `node`'s list: the
    /// acceptance step reads the candidate's degree from here before it
    /// asks the network.
    pub(crate) fn fetched_degree(&self, node: NodeId) -> Option<usize> {
        self.buffers.fetched_degree(node)
    }

    /// One backward estimate of `p_t(node)` through the walker's buffers.
    fn backward<N: SocialNetwork + ?Sized, R: Rng + ?Sized>(
        &mut self,
        osn: &N,
        node: NodeId,
        start: NodeId,
        t: usize,
        options: BackwardOptions<'_>,
        rng: &mut R,
    ) -> Result<f64> {
        backward_estimate(
            osn,
            self.kind,
            node,
            start,
            t,
            options,
            &mut self.buffers,
            rng,
        )
    }

    fn options<'a>(
        &self,
        crawl: Option<&'a InitialCrawl>,
        history: Option<&'a dyn HistoryView>,
    ) -> BackwardOptions<'a> {
        BackwardOptions {
            crawl: if self.variant.uses_crawl() {
                crawl
            } else {
                None
            },
            weighting: if self.variant.uses_weighted_sampling() {
                history
            } else {
                None
            },
        }
    }

    /// Estimates `p_t(node)` for a single candidate, averaging
    /// `backward_repetitions` backward walks. The walks fetch `node`'s list
    /// once between them, and not at all when the caller already holds it
    /// (`node_list`, which must be `N(node)`).
    #[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list for Algorithm 3
    pub fn estimate_single<N: SocialNetwork + ?Sized, R: Rng + ?Sized>(
        &mut self,
        osn: &N,
        node: NodeId,
        node_list: Option<Arc<[NodeId]>>,
        start: NodeId,
        walk_length: usize,
        crawl: Option<&InitialCrawl>,
        history: Option<&dyn HistoryView>,
        rng: &mut R,
    ) -> Result<ProbabilityEstimate> {
        let options = self.options(crawl, history);
        self.buffers.hold_node_list(node, node_list);
        let mut stats = RunningStats::new();
        for _ in 0..self.repetitions {
            let est = self.backward(osn, node, start, walk_length, options, rng)?;
            stats.push(est);
        }
        Ok(ProbabilityEstimate {
            node,
            walk_length,
            probability: stats.mean(),
            variance: stats.variance(),
            repetitions: self.repetitions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wnw_access::SimulatedOsn;
    use wnw_graph::generators::random::barabasi_albert;
    use wnw_mcmc::distribution::TransitionMatrix;

    fn setup(seed: u64) -> (SimulatedOsn, wnw_graph::Graph) {
        let graph = barabasi_albert(60, 3, seed).unwrap();
        (SimulatedOsn::new(graph.clone()), graph)
    }

    fn simple(backward_repetitions: usize, variant: WalkEstimateVariant) -> ProbabilityEstimator {
        let config = WalkEstimateConfig {
            backward_repetitions,
            variant,
            ..WalkEstimateConfig::default()
        };
        ProbabilityEstimator::from_config(RandomWalkKind::Simple, &config)
    }

    #[test]
    fn single_estimate_reports_statistics() {
        let (osn, _graph) = setup(3);
        let mut estimator = simple(15, WalkEstimateVariant::None);
        let mut rng = StdRng::seed_from_u64(1);
        let est = estimator
            .estimate_single(&osn, NodeId(10), None, NodeId(0), 5, None, None, &mut rng)
            .unwrap();
        assert_eq!(est.repetitions, 15);
        assert_eq!(est.walk_length, 5);
        assert!(est.probability >= 0.0);
        assert!(est.variance >= 0.0);
    }

    #[test]
    fn initial_crawling_reduces_estimation_variance() {
        // Replacing the noisy tail of the backward recursion with exact
        // crawled probabilities can only lower the variance (law of total
        // variance) — the core claim of Section 5.2, and one axis of the
        // Figure 9 ablation.
        let (osn, graph) = setup(5);
        let start = NodeId(0);
        let t = 6;
        let target = NodeId(25);
        let crawl = InitialCrawl::build(&osn, RandomWalkKind::Simple, start, 3).unwrap();
        let mut plain = simple(600, WalkEstimateVariant::None);
        let mut crawled = simple(600, WalkEstimateVariant::CrawlOnly);
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        let est_plain = plain
            .estimate_single(&osn, target, None, start, t, Some(&crawl), None, &mut rng_a)
            .unwrap();
        let est_crawled = crawled
            .estimate_single(&osn, target, None, start, t, Some(&crawl), None, &mut rng_b)
            .unwrap();
        let exact = TransitionMatrix::new(&graph, RandomWalkKind::Simple)
            .distribution_after(start, t)[target.index()];
        assert!(exact > 0.0);
        assert!(
            est_crawled.variance < est_plain.variance,
            "WE-Crawl variance {} should be below WE-None variance {}",
            est_crawled.variance,
            est_plain.variance
        );
        // Both remain in the right ballpark of the exact probability.
        assert!((est_crawled.probability - exact).abs() / exact < 0.5);
    }

    #[test]
    fn from_config_respects_variant() {
        let config = WalkEstimateConfig::default().with_variant(WalkEstimateVariant::CrawlOnly);
        let estimator =
            ProbabilityEstimator::from_config(RandomWalkKind::MetropolisHastings, &config);
        assert_eq!(estimator.variant, WalkEstimateVariant::CrawlOnly);
        assert_eq!(estimator.repetitions, config.backward_repetitions);
    }
}
