//! UNBIASED-ESTIMATE (Section 5.1, Algorithm 1) and its generalised backward
//! walk engine.
//!
//! The identity
//!
//! ```text
//! p_t(u) = Σ_{u' : T(u', u) > 0}  p_{t-1}(u') · T(u', u)
//! ```
//!
//! turns the estimation of `p_t(u)` into the estimation of `p_{t-1}(u')` for
//! one randomly chosen predecessor `u'`, corrected by the factor
//! `T(u', u) / π_sel(u')` where `π_sel` is the probability with which `u'`
//! was chosen. Iterating down to `t = 0` (where `p_0` is the indicator of
//! the starting node) gives an unbiased estimator for any selection
//! distribution with full support over the predecessors:
//!
//! * choosing uniformly over `N(u)` recovers the paper's Algorithm 1 exactly
//!   (the factor becomes `|N(u)| · T(u', u)`, i.e. `|N(u)|/|N(u')|` for SRW);
//! * choosing according to the history-weighted distribution of Algorithm 2
//!   gives the variance-reduced WS-BW variant;
//! * an [`InitialCrawl`] lets the recursion stop `h` steps early with an
//!   exact value.
//!
//! For designs with self-loops (MHRW), the candidate set is `N(u) ∪ {u}`
//! because the walk may also have *stayed* at `u` — the paper's pseudo-code
//! elides this, but without it the estimator would be biased low for MHRW.

use crate::estimate::crawl::InitialCrawl;
use crate::estimate::weighted;
use crate::history::HistoryView;
use rand::Rng;
use std::borrow::Cow;
use wnw_access::{Result, SocialNetwork};
use wnw_graph::NodeId;
use wnw_mcmc::RandomWalkKind;

/// Options for the backward walk engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct BackwardOptions<'a> {
    /// Exact probabilities within the starting node's `h`-hop neighborhood;
    /// when present, the recursion terminates as soon as `remaining ≤ h`.
    pub crawl: Option<&'a InitialCrawl>,
    /// Historic forward-walk visit counts for weighted backward sampling,
    /// together with the floor `ε`; `None` selects predecessors uniformly.
    pub weighting: Option<(&'a dyn HistoryView, f64)>,
}

/// Plain UNBIASED-ESTIMATE (Algorithm 1): uniform backward selection, no
/// crawl. One invocation produces one unbiased (but high-variance) estimate
/// of `p_t(node)` for a walk of `t` steps started at `start`.
pub fn unbiased_estimate<N: SocialNetwork + ?Sized, R: Rng + ?Sized>(
    osn: &N,
    kind: RandomWalkKind,
    node: NodeId,
    start: NodeId,
    t: usize,
    rng: &mut R,
) -> Result<f64> {
    backward_estimate(osn, kind, node, start, t, BackwardOptions::default(), rng)
}

/// The generalised backward-walk estimator: one estimate of `p_t(node)`.
pub fn backward_estimate<N: SocialNetwork + ?Sized, R: Rng + ?Sized>(
    osn: &N,
    kind: RandomWalkKind,
    node: NodeId,
    start: NodeId,
    t: usize,
    options: BackwardOptions<'_>,
    rng: &mut R,
) -> Result<f64> {
    let mut factor = 1.0;
    let mut current = node;
    let mut remaining = t;
    loop {
        // Early exact termination inside the crawled neighborhood.
        if let Some(crawl) = options.crawl {
            if remaining <= crawl.depth() && crawl.start() == start {
                return Ok(factor * crawl.exact_probability(remaining, current));
            }
        }
        if remaining == 0 {
            return Ok(if current == start { factor } else { 0.0 });
        }

        let neighbors = osn.neighbor_list(current)?;
        if neighbors.is_empty() {
            // An isolated node can only be reached by starting on it; the
            // walk cannot have arrived here from anywhere else.
            return Ok(if current == start { factor } else { 0.0 });
        }
        let degree_current = neighbors.len();

        // Predecessor candidates: all nodes with T(·, current) > 0. Without
        // self-loops that is the neighbor list itself, borrowed; only MHRW
        // builds list + self.
        let candidates: Cow<'_, [NodeId]> = if kind.has_self_loops() {
            let mut with_self = Vec::with_capacity(neighbors.len() + 1);
            with_self.extend_from_slice(&neighbors);
            with_self.push(current);
            Cow::Owned(with_self)
        } else {
            Cow::Borrowed(&neighbors)
        };

        // Selection distribution over the candidates.
        let probs = match options.weighting {
            Some((history, epsilon)) => {
                weighted::selection_distribution(&candidates, remaining - 1, history, epsilon)
            }
            None => vec![1.0 / candidates.len() as f64; candidates.len()],
        };
        let choice = sample_index(&probs, rng);
        let previous = candidates[choice];
        let selection_probability = probs[choice];

        // Transition probability T(previous, current) of the *forward* walk.
        let transition = if previous == current {
            // Self-loop of MHRW: 1 − Σ_w T(current, w). Evaluating it exactly
            // needs the degree of every neighbor of `current`, which on a
            // dense hub would cost hundreds of queries for a single backward
            // step. Instead estimate it from a bounded uniform sample of
            // neighbors: E[min(1, d(u)/d(w))] over a uniform neighbor w gives
            // an unbiased estimate of the outgoing mass, and the factor
            // product stays unbiased because the sample is independent of
            // everything else in the recursion.
            const SELF_LOOP_NEIGHBOR_SAMPLE: usize = 8;
            let neighbor_degrees = if neighbors.len() <= SELF_LOOP_NEIGHBOR_SAMPLE {
                let mut all = Vec::with_capacity(neighbors.len());
                for &w in neighbors.iter() {
                    all.push(osn.degree(w)?);
                }
                all
            } else {
                let mut sampled = Vec::with_capacity(SELF_LOOP_NEIGHBOR_SAMPLE);
                for _ in 0..SELF_LOOP_NEIGHBOR_SAMPLE {
                    let idx = rng.gen_range(0..neighbors.len());
                    sampled.push(osn.degree(neighbors[idx])?);
                }
                sampled
            };
            // `self_loop_probability` averages `min(1, d_u/d_w)` over the
            // provided degrees scaled by 1/d_u per entry; rescale the sampled
            // average to the full degree.
            let sampled_outgoing: f64 = neighbor_degrees
                .iter()
                .map(|&dw| kind.edge_probability(degree_current, dw))
                .sum::<f64>()
                / neighbor_degrees.len() as f64
                * degree_current as f64;
            (1.0 - sampled_outgoing).max(0.0)
        } else {
            let degree_previous = osn.degree(previous)?;
            if degree_previous == 0 {
                return Ok(0.0);
            }
            kind.edge_probability(degree_previous, degree_current)
        };

        factor *= transition / selection_probability;
        if factor == 0.0 {
            return Ok(0.0);
        }
        current = previous;
        remaining -= 1;
    }
}

/// Draws an index according to an (already normalised) probability vector.
fn sample_index<R: Rng + ?Sized>(probs: &[f64], rng: &mut R) -> usize {
    let total: f64 = probs.iter().sum();
    let mut threshold = rng.gen::<f64>() * total;
    for (i, &p) in probs.iter().enumerate() {
        if threshold < p {
            return i;
        }
        threshold -= p;
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::WalkHistory;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wnw_access::SimulatedOsn;
    use wnw_graph::generators::classic::{complete, cycle};
    use wnw_graph::generators::random::barabasi_albert;
    use wnw_graph::Graph;
    use wnw_mcmc::distribution::TransitionMatrix;

    /// Averages many single estimates and compares against the exact value.
    #[allow(clippy::too_many_arguments)]
    fn mean_estimate(
        graph: &Graph,
        kind: RandomWalkKind,
        node: NodeId,
        start: NodeId,
        t: usize,
        repetitions: usize,
        options_builder: impl Fn(&SimulatedOsn) -> (Option<InitialCrawl>, Option<WalkHistory>),
        seed: u64,
    ) -> (f64, f64) {
        let osn = SimulatedOsn::new(graph.clone());
        let (crawl, history) = options_builder(&osn);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sum = 0.0;
        for _ in 0..repetitions {
            let options = BackwardOptions {
                crawl: crawl.as_ref(),
                weighting: history.as_ref().map(|h| (h as &dyn HistoryView, 0.1)),
            };
            sum += backward_estimate(&osn, kind, node, start, t, options, &mut rng).unwrap();
        }
        let exact = TransitionMatrix::new(graph, kind).distribution_after(start, t)[node.index()];
        (sum / repetitions as f64, exact)
    }

    #[test]
    fn base_cases() {
        let osn = SimulatedOsn::new(cycle(5));
        let mut rng = StdRng::seed_from_u64(1);
        // t = 0: indicator of the start node.
        assert_eq!(
            unbiased_estimate(
                &osn,
                RandomWalkKind::Simple,
                NodeId(0),
                NodeId(0),
                0,
                &mut rng
            )
            .unwrap(),
            1.0
        );
        assert_eq!(
            unbiased_estimate(
                &osn,
                RandomWalkKind::Simple,
                NodeId(1),
                NodeId(0),
                0,
                &mut rng
            )
            .unwrap(),
            0.0
        );
    }

    #[test]
    fn exact_on_cycle_one_step() {
        // On a cycle, p_1(neighbor) = 1/2 exactly and the estimator has zero
        // variance (every backward path gives the same factor).
        let osn = SimulatedOsn::new(cycle(7));
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let est = unbiased_estimate(
                &osn,
                RandomWalkKind::Simple,
                NodeId(1),
                NodeId(0),
                1,
                &mut rng,
            )
            .unwrap();
            assert!(est == 0.0 || (est - 1.0).abs() < 1e-12 || (est - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn unbiased_on_complete_graph_srw() {
        let graph = complete(8);
        let (mean, exact) = mean_estimate(
            &graph,
            RandomWalkKind::Simple,
            NodeId(3),
            NodeId(0),
            3,
            20_000,
            |_| (None, None),
            3,
        );
        assert!(
            (mean - exact).abs() / exact < 0.1,
            "mean {mean} exact {exact}"
        );
    }

    #[test]
    fn unbiased_on_ba_graph_srw() {
        let graph = barabasi_albert(40, 3, 5).unwrap();
        let (mean, exact) = mean_estimate(
            &graph,
            RandomWalkKind::Simple,
            NodeId(10),
            NodeId(0),
            4,
            60_000,
            |_| (None, None),
            7,
        );
        assert!(exact > 0.0);
        assert!(
            (mean - exact).abs() / exact < 0.2,
            "mean {mean} exact {exact}"
        );
    }

    #[test]
    fn unbiased_on_ba_graph_mhrw_with_self_loops() {
        let graph = barabasi_albert(30, 3, 9).unwrap();
        let (mean, exact) = mean_estimate(
            &graph,
            RandomWalkKind::MetropolisHastings,
            NodeId(7),
            NodeId(0),
            4,
            60_000,
            |_| (None, None),
            11,
        );
        assert!(exact > 0.0);
        assert!(
            (mean - exact).abs() / exact < 0.25,
            "mean {mean} exact {exact}"
        );
    }

    #[test]
    fn crawl_reduces_to_exact_when_it_covers_the_whole_walk() {
        // With crawl depth >= t the estimator returns the exact value with
        // zero variance.
        let graph = barabasi_albert(50, 3, 13).unwrap();
        let osn = SimulatedOsn::new(graph.clone());
        let crawl = InitialCrawl::build(&osn, RandomWalkKind::Simple, NodeId(0), 3).unwrap();
        let exact =
            TransitionMatrix::new(&graph, RandomWalkKind::Simple).distribution_after(NodeId(0), 3);
        let mut rng = StdRng::seed_from_u64(17);
        for v in [NodeId(1), NodeId(5), NodeId(20)] {
            let est = backward_estimate(
                &osn,
                RandomWalkKind::Simple,
                v,
                NodeId(0),
                3,
                BackwardOptions {
                    crawl: Some(&crawl),
                    weighting: None,
                },
                &mut rng,
            )
            .unwrap();
            assert!(
                (est - exact[v.index()]).abs() < 1e-12,
                "{v}: {est} vs {}",
                exact[v.index()]
            );
        }
    }

    #[test]
    fn crawl_assisted_estimate_stays_unbiased() {
        let graph = barabasi_albert(40, 3, 21).unwrap();
        let (mean, exact) = mean_estimate(
            &graph,
            RandomWalkKind::Simple,
            NodeId(15),
            NodeId(0),
            5,
            40_000,
            |osn| {
                (
                    Some(InitialCrawl::build(osn, RandomWalkKind::Simple, NodeId(0), 2).unwrap()),
                    None,
                )
            },
            23,
        );
        assert!(exact > 0.0);
        assert!(
            (mean - exact).abs() / exact < 0.15,
            "mean {mean} exact {exact}"
        );
    }

    #[test]
    fn weighted_estimate_stays_unbiased() {
        let graph = barabasi_albert(40, 3, 29).unwrap();
        let osn_for_history = SimulatedOsn::new(graph.clone());
        // Build a history from genuine forward walks so the weighting is
        // informative.
        let mut history = WalkHistory::new();
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..50 {
            let walk = wnw_mcmc::random_walk(
                &osn_for_history,
                RandomWalkKind::Simple,
                NodeId(0),
                5,
                &mut rng,
            )
            .unwrap();
            history.record_walk(&walk.path);
        }
        let (mean, exact) = mean_estimate(
            &graph,
            RandomWalkKind::Simple,
            NodeId(12),
            NodeId(0),
            5,
            40_000,
            move |_| (None, Some(history.clone())),
            37,
        );
        assert!(exact > 0.0);
        assert!(
            (mean - exact).abs() / exact < 0.2,
            "mean {mean} exact {exact}"
        );
    }

    #[test]
    fn sample_index_respects_distribution() {
        let mut rng = StdRng::seed_from_u64(41);
        let probs = [0.7, 0.2, 0.1];
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[sample_index(&probs, &mut rng)] += 1;
        }
        assert!((counts[0] as f64 / 30_000.0 - 0.7).abs() < 0.02);
        assert!((counts[2] as f64 / 30_000.0 - 0.1).abs() < 0.02);
    }
}
