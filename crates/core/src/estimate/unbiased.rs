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
//!
//! # Reads and buffers
//!
//! A backward step fetches one neighbor list: the chosen predecessor's,
//! which it needs for the transition probability `T(u', u)` and then
//! carries into the next step as that step's `N(u)` (an MHRW self-loop
//! carries `N(u)` itself). The first step of a walk takes the estimated
//! node's list from the walker's [`BackwardBuffers`]: the first walk of an
//! attempt fetches it, and the attempt's other walks and its acceptance
//! step (for the candidate's degree) reuse it. The selection distribution,
//! MHRW's candidate set `N(u) ∪ {u}` and a self-loop's sampled neighbor
//! degrees are written into the same [`BackwardBuffers`], so a step
//! allocates nothing once they have grown to the walker's largest list.

use crate::estimate::crawl::InitialCrawl;
use crate::estimate::weighted::{self, SelectionBuffers};
use crate::history::HistoryView;
use rand::Rng;
use std::sync::Arc;
use wnw_access::{Result, SocialNetwork};
use wnw_graph::NodeId;
use wnw_mcmc::RandomWalkKind;

/// Options for the backward walk engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct BackwardOptions<'a> {
    /// Exact probabilities within the starting node's `h`-hop neighborhood;
    /// when present, the recursion terminates as soon as `remaining ≤ h`.
    pub crawl: Option<&'a InitialCrawl>,
    /// Historic forward-walk visit counts for weighted backward sampling
    /// (floor [`weighted::EPSILON`]); `None` selects predecessors uniformly.
    pub weighting: Option<&'a dyn HistoryView>,
}

/// What one walker keeps across its backward walks: the estimated node's
/// neighbor list and the buffers of a backward step (see
/// [Reads and buffers](self#reads-and-buffers)).
#[derive(Debug, Clone, Default)]
pub struct BackwardBuffers {
    /// The estimated node and its neighbor list, once a walk fetched it.
    node_list: Option<(NodeId, Arc<[NodeId]>)>,
    selection: SelectionBuffers,
    with_self: Vec<NodeId>,
    neighbor_degrees: Vec<usize>,
}

impl BackwardBuffers {
    /// Starts an attempt on `node` holding `list`, which must be `N(node)`
    /// (the forward walk that reached `node` may already hold it); with
    /// `None` the attempt's first walk fetches it afresh.
    pub fn hold_node_list(&mut self, node: NodeId, list: Option<Arc<[NodeId]>>) {
        self.node_list = list.map(|list| (node, list));
    }

    /// `|N(node)|`, if `node`'s list is held: passed to the last
    /// [`hold_node_list`](Self::hold_node_list) or fetched by a walk since.
    pub(crate) fn fetched_degree(&self, node: NodeId) -> Option<usize> {
        match &self.node_list {
            Some((held, list)) if *held == node => Some(list.len()),
            _ => None,
        }
    }

    /// `N(node)`, fetched only if it is not held already.
    fn node_list<N: SocialNetwork + ?Sized>(
        &mut self,
        osn: &N,
        node: NodeId,
    ) -> Result<Arc<[NodeId]>> {
        if let Some((held, list)) = &self.node_list {
            if *held == node {
                return Ok(Arc::clone(list));
            }
        }
        let list = osn.neighbor_list(node)?;
        self.node_list = Some((node, Arc::clone(&list)));
        Ok(list)
    }
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
    backward_estimate(
        osn,
        kind,
        node,
        start,
        t,
        BackwardOptions::default(),
        &mut BackwardBuffers::default(),
        rng,
    )
}

/// The generalised backward-walk estimator: one estimate of `p_t(node)`,
/// reading and reusing the walker's [`BackwardBuffers`].
#[allow(clippy::too_many_arguments)]
pub fn backward_estimate<N: SocialNetwork + ?Sized, R: Rng + ?Sized>(
    osn: &N,
    kind: RandomWalkKind,
    node: NodeId,
    start: NodeId,
    t: usize,
    options: BackwardOptions<'_>,
    buffers: &mut BackwardBuffers,
    rng: &mut R,
) -> Result<f64> {
    let mut factor = 1.0;
    let mut current = node;
    let mut remaining = t;
    // N(current), carried from the step that chose `current`; only the
    // walk's first step has none.
    let mut carried: Option<Arc<[NodeId]>> = None;
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

        let neighbors = match carried.take() {
            Some(list) => list,
            None => buffers.node_list(osn, current)?,
        };
        if neighbors.is_empty() {
            // An isolated node can only be reached by starting on it; the
            // walk cannot have arrived here from anywhere else.
            return Ok(if current == start { factor } else { 0.0 });
        }
        let degree_current = neighbors.len();

        // Predecessor candidates: all nodes with T(·, current) > 0. Without
        // self-loops that is the neighbor list itself; only MHRW builds
        // list + self.
        let candidates: &[NodeId] = if kind.has_self_loops() {
            buffers.with_self.clear();
            buffers.with_self.extend_from_slice(&neighbors);
            buffers.with_self.push(current);
            &buffers.with_self
        } else {
            &neighbors
        };

        // Selection distribution over the candidates.
        let probs = match options.weighting {
            Some(history) => weighted::selection_distribution(
                candidates,
                remaining - 1,
                history,
                weighted::EPSILON,
                &mut buffers.selection,
            ),
            None => buffers.selection.uniform(candidates.len()),
        };
        let choice = sample_index(probs, rng);
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
            let neighbor_degrees = &mut buffers.neighbor_degrees;
            neighbor_degrees.clear();
            if neighbors.len() <= SELF_LOOP_NEIGHBOR_SAMPLE {
                for &w in neighbors.iter() {
                    neighbor_degrees.push(osn.degree(w)?);
                }
            } else {
                for _ in 0..SELF_LOOP_NEIGHBOR_SAMPLE {
                    let idx = rng.gen_range(0..neighbors.len());
                    neighbor_degrees.push(osn.degree(neighbors[idx])?);
                }
            }
            // `self_loop_probability` averages `min(1, d_u/d_w)` over the
            // provided degrees scaled by 1/d_u per entry; rescale the sampled
            // average to the full degree.
            let sampled_outgoing: f64 = neighbor_degrees
                .iter()
                .map(|&dw| kind.edge_probability(degree_current, dw))
                .sum::<f64>()
                / neighbor_degrees.len() as f64
                * degree_current as f64;
            // The walk stays at `current`: its list is the next step's.
            carried = Some(neighbors);
            (1.0 - sampled_outgoing).max(0.0)
        } else {
            let previous_neighbors = osn.neighbor_list(previous)?;
            let degree_previous = previous_neighbors.len();
            if degree_previous == 0 {
                return Ok(0.0);
            }
            carried = Some(previous_neighbors);
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
        let mut buffers = BackwardBuffers::default();
        let mut sum = 0.0;
        for _ in 0..repetitions {
            let options = BackwardOptions {
                crawl: crawl.as_ref(),
                weighting: history.as_ref().map(|h| h as &dyn HistoryView),
            };
            sum += backward_estimate(&osn, kind, node, start, t, options, &mut buffers, &mut rng)
                .unwrap();
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
                &mut BackwardBuffers::default(),
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

    /// The estimator as it was before lists were carried and buffers
    /// reused: every step fetches `N(current)` and then probes
    /// `degree(previous)`, and allocates its selection distribution. It is
    /// the oracle the bit-identity tests compare the walker's path with.
    mod reference {
        use super::*;
        use std::borrow::Cow;

        fn selection_distribution(
            candidates: &[NodeId],
            step: usize,
            history: &dyn HistoryView,
            epsilon: f64,
        ) -> Vec<f64> {
            let k = candidates.len();
            assert!(k > 0, "selection over an empty candidate set");
            let epsilon = epsilon.clamp(0.0, 1.0);
            let mut counts = vec![0u64; k];
            history.add_counts_at(step, candidates, &mut counts);
            let total: u64 = counts.iter().sum();
            let mut probs = vec![epsilon / k as f64; k];
            if total == 0 {
                for p in &mut probs {
                    *p += (1.0 - epsilon) / k as f64;
                }
            } else {
                for (p, &c) in probs.iter_mut().zip(&counts) {
                    *p += (1.0 - epsilon) * c as f64 / total as f64;
                }
            }
            probs
        }

        pub(super) fn backward_estimate<N: SocialNetwork + ?Sized, R: Rng + ?Sized>(
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
                    return Ok(if current == start { factor } else { 0.0 });
                }
                let degree_current = neighbors.len();
                let candidates: Cow<'_, [NodeId]> = if kind.has_self_loops() {
                    let mut with_self = Vec::with_capacity(neighbors.len() + 1);
                    with_self.extend_from_slice(&neighbors);
                    with_self.push(current);
                    Cow::Owned(with_self)
                } else {
                    Cow::Borrowed(&neighbors)
                };
                let probs = match options.weighting {
                    Some(history) => selection_distribution(
                        &candidates,
                        remaining - 1,
                        history,
                        weighted::EPSILON,
                    ),
                    None => vec![1.0 / candidates.len() as f64; candidates.len()],
                };
                let choice = sample_index(&probs, rng);
                let previous = candidates[choice];
                let selection_probability = probs[choice];
                let transition = if previous == current {
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
    }

    /// Backward walks per attempt in the default configuration.
    const WALKS_PER_ATTEMPT: usize = 5;

    /// A history of forward walks of `kind` from `start`, so weighted
    /// selection has counts to read at every step.
    fn forward_history(graph: &Graph, kind: RandomWalkKind, start: NodeId) -> WalkHistory {
        let osn = SimulatedOsn::new(graph.clone());
        let mut rng = StdRng::seed_from_u64(0x4157);
        let mut history = WalkHistory::new();
        for _ in 0..40 {
            let walk = wnw_mcmc::random_walk(&osn, kind, start, 9, &mut rng).unwrap();
            history.record_walk(&walk.path);
        }
        history
    }

    /// A metered view over a fresh backend, as a service walker reads.
    fn metered(graph: &Graph) -> wnw_access::MeteredNetwork<SimulatedOsn> {
        wnw_access::MeteredNetwork::new(
            SimulatedOsn::new(graph.clone()),
            std::sync::Arc::new(wnw_access::QueryCounter::unlimited()),
        )
    }

    #[test]
    fn carried_lists_and_reused_buffers_are_bit_identical_to_the_reference() {
        let start = NodeId(0);
        for (graph_seed, kind) in [
            (0x0B1u64, RandomWalkKind::Simple),
            (0x0B2, RandomWalkKind::MetropolisHastings),
        ] {
            let graph = barabasi_albert(80, 3, graph_seed).unwrap();
            let crawl =
                InitialCrawl::build(&SimulatedOsn::new(graph.clone()), kind, start, 2).unwrap();
            let history = forward_history(&graph, kind, start);
            for (use_crawl, use_weighting) in
                [(false, false), (true, false), (false, true), (true, true)]
            {
                let options = BackwardOptions {
                    crawl: use_crawl.then_some(&crawl),
                    weighting: use_weighting.then_some(&history as &dyn HistoryView),
                };
                for t in [0usize, 1, 2, 5, 9] {
                    let cell =
                        format!("{kind:?} crawl={use_crawl} weighting={use_weighting} t={t}");
                    let (ours, theirs) = (metered(&graph), metered(&graph));
                    let mut rng_ours = StdRng::seed_from_u64(t as u64 ^ graph_seed);
                    let mut rng_theirs = rng_ours.clone();
                    let mut buffers = BackwardBuffers::default();
                    // Attempts on the start, its neighbors and far nodes.
                    for candidate in (0..80).step_by(7).map(NodeId) {
                        // One attempt: the estimate's walks, then the
                        // acceptance step's degree.
                        buffers.hold_node_list(candidate, None);
                        for walk in 0..WALKS_PER_ATTEMPT {
                            let a = backward_estimate(
                                &ours,
                                kind,
                                candidate,
                                start,
                                t,
                                options,
                                &mut buffers,
                                &mut rng_ours,
                            )
                            .unwrap();
                            let b = reference::backward_estimate(
                                &theirs,
                                kind,
                                candidate,
                                start,
                                t,
                                options,
                                &mut rng_theirs,
                            )
                            .unwrap();
                            assert_eq!(a.to_bits(), b.to_bits(), "{cell} {candidate} walk {walk}");
                        }
                        let degree = match buffers.fetched_degree(candidate) {
                            Some(degree) => degree,
                            None => ours.degree(candidate).unwrap(),
                        };
                        assert_eq!(degree, theirs.degree(candidate).unwrap(), "{cell}");
                        assert_eq!(
                            ours.query_stats().unique_nodes,
                            theirs.query_stats().unique_nodes,
                            "{cell} {candidate}"
                        );
                    }
                    assert_eq!(rng_ours.gen::<u64>(), rng_theirs.gen::<u64>(), "{cell}");
                    // The reference asks at least as often; fewer calls is
                    // the point.
                    assert!(ours.query_stats().api_calls <= theirs.query_stats().api_calls);
                }
            }
        }
    }

    /// A network that logs every neighbor-list fetch.
    struct Logged {
        inner: SimulatedOsn,
        fetches: std::cell::RefCell<Vec<NodeId>>,
    }

    impl SocialNetwork for Logged {
        fn neighbors(&self, v: NodeId) -> Result<Vec<NodeId>> {
            Ok(self.neighbor_list(v)?.to_vec())
        }
        fn neighbor_list(&self, v: NodeId) -> Result<Arc<[NodeId]>> {
            self.fetches.borrow_mut().push(v);
            self.inner.neighbor_list(v)
        }
        fn attribute(&self, name: &str, v: NodeId) -> Result<f64> {
            self.inner.attribute(name, v)
        }
        fn seed_node(&self) -> NodeId {
            self.inner.seed_node()
        }
        fn query_stats(&self) -> wnw_access::QueryStats {
            self.inner.query_stats()
        }
        fn reset_counters(&self) {
            self.inner.reset_counters()
        }
    }

    #[test]
    fn one_fetch_per_backward_step_and_one_per_attempt_for_the_candidate() {
        // Simple-random-walk factors never vanish, so every walk of length
        // `t` takes `t − h` steps before the crawl (depth `h`, or none)
        // answers: one predecessor fetch each, plus the candidate's own
        // list once per attempt, unless the attempt starts holding it (as
        // after an MHRW forward walk).
        let graph = barabasi_albert(200, 3, 0x0C0).unwrap();
        let start = NodeId(0);
        let crawl = InitialCrawl::build(
            &SimulatedOsn::new(graph.clone()),
            RandomWalkKind::Simple,
            start,
            2,
        )
        .unwrap();
        let history = forward_history(&graph, RandomWalkKind::Simple, start);
        let osn = Logged {
            inner: SimulatedOsn::new(graph),
            fetches: Default::default(),
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut buffers = BackwardBuffers::default();
        for (depth, options) in [
            (0, BackwardOptions::default()),
            (
                0,
                BackwardOptions {
                    crawl: None,
                    weighting: Some(&history),
                },
            ),
            (
                2,
                BackwardOptions {
                    crawl: Some(&crawl),
                    weighting: Some(&history),
                },
            ),
        ] {
            for (t, held) in [1usize, 2, 5, 9]
                .into_iter()
                .flat_map(|t| [(t, false), (t, true)])
            {
                for candidate in [NodeId(3), NodeId(57), NodeId(150)] {
                    let list = held.then(|| osn.inner.neighbor_list(candidate).unwrap());
                    osn.fetches.borrow_mut().clear();
                    buffers.hold_node_list(candidate, list);
                    for _ in 0..WALKS_PER_ATTEMPT {
                        backward_estimate(
                            &osn,
                            RandomWalkKind::Simple,
                            candidate,
                            start,
                            t,
                            options,
                            &mut buffers,
                            &mut rng,
                        )
                        .unwrap();
                    }
                    let fetches = osn.fetches.borrow();
                    let steps = t.saturating_sub(depth);
                    let degree = osn.inner.ground_truth().degree(candidate);
                    if steps == 0 {
                        // The crawl answers at once: nothing is fetched, and
                        // the acceptance step reads the degree from a held
                        // list or asks for it itself.
                        assert!(fetches.is_empty());
                        assert_eq!(buffers.fetched_degree(candidate), held.then_some(degree));
                    } else {
                        let own = usize::from(!held);
                        assert_eq!(fetches.len(), WALKS_PER_ATTEMPT * steps + own, "t={t}");
                        if !held {
                            assert_eq!(fetches[0], candidate);
                        }
                        assert_eq!(buffers.fetched_degree(candidate), Some(degree));
                    }
                }
            }
        }
    }
}
