//! Initial crawling (Section 5.2).
//!
//! Crawl the `h`-hop neighborhood of the walk's starting node once, and
//! compute the *exact* sampling probability `p_t(v)` for every crawled node
//! and every `t ≤ h` by propagating the transition probabilities forward
//! inside the crawled subgraph. A walk of `t ≤ h` steps can only reach nodes
//! within `h` hops, and every transition probability out of a node at depth
//! `< h` involves only degrees of nodes at depth `≤ h`, so these values are
//! exact — no estimation involved.
//!
//! Backward estimation then terminates as soon as its remaining step count
//! drops to `h`, replacing the noisiest tail of the recursion (the part
//! whose variance UNBIASED-ESTIMATE amplifies the most) with an exact value.
//!
//! The crawl's queries are charged like any other query; in practice they are
//! cheap because the WALK step keeps revisiting the same starting
//! neighborhood, so most of these nodes are already cached (Section 5.2).

use std::collections::HashMap;
use std::sync::Arc;
use wnw_access::{Result, SocialNetwork};
use wnw_graph::NodeId;
use wnw_mcmc::RandomWalkKind;

/// Exact sampling probabilities within the `h`-hop neighborhood of a start
/// node.
#[derive(Debug, Clone)]
pub struct InitialCrawl {
    start: NodeId,
    depth: usize,
    /// `probabilities[t]` maps node → exact `p_t(node)`, for `t ≤ depth`.
    probabilities: Vec<HashMap<NodeId, f64>>,
    /// Degrees of every crawled node (handy for callers and tests).
    degrees: HashMap<NodeId, usize>,
}

impl InitialCrawl {
    /// Crawls the `depth`-hop neighborhood of `start` through the restricted
    /// interface and computes the exact `p_t` values for the walk design
    /// `kind`.
    pub fn build<N: SocialNetwork + ?Sized>(
        osn: &N,
        kind: RandomWalkKind,
        start: NodeId,
        depth: usize,
    ) -> Result<Self> {
        // Breadth-first crawl up to `depth`, keeping each node's neighbor
        // list so transition probabilities can be computed exactly.
        let mut dist: HashMap<NodeId, usize> = HashMap::new();
        let mut adjacency: HashMap<NodeId, Arc<[NodeId]>> = HashMap::new();
        let mut queue = std::collections::VecDeque::new();
        dist.insert(start, 0);
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            let du = dist[&u];
            let neighbors = osn.neighbor_list(u)?;
            for &v in neighbors.iter() {
                if du < depth && !dist.contains_key(&v) {
                    dist.insert(v, du + 1);
                    queue.push_back(v);
                }
            }
            adjacency.insert(u, neighbors);
        }
        let degrees: HashMap<NodeId, usize> =
            adjacency.iter().map(|(&v, nbrs)| (v, nbrs.len())).collect();

        // Forward propagation of exact probabilities for t = 0..=depth.
        let mut probabilities: Vec<HashMap<NodeId, f64>> = Vec::with_capacity(depth + 1);
        let mut current: HashMap<NodeId, f64> = HashMap::new();
        current.insert(start, 1.0);
        probabilities.push(current.clone());
        for _t in 1..=depth {
            let mut next: HashMap<NodeId, f64> = HashMap::new();
            for (&u, &mass) in &current {
                let neighbors = &adjacency[&u];
                let du = neighbors.len();
                if du == 0 {
                    *next.entry(u).or_insert(0.0) += mass;
                    continue;
                }
                let mut outgoing = 0.0;
                for &v in neighbors.iter() {
                    // v is within `depth` hops, so its degree is known.
                    let dv = degrees[&v];
                    let p = kind.edge_probability(du, dv);
                    outgoing += p;
                    *next.entry(v).or_insert(0.0) += mass * p;
                }
                let self_loop = (1.0 - outgoing).max(0.0);
                if self_loop > 0.0 {
                    *next.entry(u).or_insert(0.0) += mass * self_loop;
                }
            }
            probabilities.push(next.clone());
            current = next;
        }
        Ok(InitialCrawl {
            start,
            depth,
            probabilities,
            degrees,
        })
    }

    /// The starting node of the crawl.
    pub fn start(&self) -> NodeId {
        self.start
    }

    /// The crawl depth `h`.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Exact `p_t(v)` for `t ≤ depth` (0.0 for nodes outside the reachable
    /// set — which is exact, not an approximation).
    ///
    /// # Panics
    /// Panics if `t > depth`; callers must check [`depth`](Self::depth).
    pub fn exact_probability(&self, t: usize, v: NodeId) -> f64 {
        assert!(
            t <= self.depth,
            "crawl only covers probabilities up to t = {}",
            self.depth
        );
        self.probabilities[t].get(&v).copied().unwrap_or(0.0)
    }

    /// Whether `v` was reached by the crawl.
    pub fn contains(&self, v: NodeId) -> bool {
        self.degrees.contains_key(&v)
    }

    /// Number of crawled nodes.
    pub fn crawled_nodes(&self) -> usize {
        self.degrees.len()
    }

    /// Degree of a crawled node, if known.
    pub fn degree(&self, v: NodeId) -> Option<usize> {
        self.degrees.get(&v).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnw_access::SimulatedOsn;
    use wnw_graph::generators::classic::{cycle, star};
    use wnw_graph::generators::random::barabasi_albert;
    use wnw_mcmc::distribution::TransitionMatrix;

    #[test]
    fn crawl_probabilities_match_exact_evolution_srw() {
        let graph = barabasi_albert(80, 3, 11).unwrap();
        let osn = SimulatedOsn::new(graph.clone());
        let start = NodeId(5);
        let h = 2;
        let crawl = InitialCrawl::build(&osn, RandomWalkKind::Simple, start, h).unwrap();
        let matrix = TransitionMatrix::new(&graph, RandomWalkKind::Simple);
        for t in 0..=h {
            let exact = matrix.distribution_after(start, t);
            for v in graph.nodes() {
                let from_crawl = if crawl.contains(v) || exact[v.index()] == 0.0 {
                    crawl.exact_probability(t, v)
                } else {
                    // Nodes outside the crawl must have zero true probability
                    // for t <= h.
                    assert_eq!(exact[v.index()], 0.0, "node {v} at t={t}");
                    0.0
                };
                assert!(
                    (from_crawl - exact[v.index()]).abs() < 1e-12,
                    "t={t} v={v}: {from_crawl} vs {}",
                    exact[v.index()]
                );
            }
        }
    }

    #[test]
    fn crawl_probabilities_match_exact_evolution_mhrw() {
        let graph = barabasi_albert(60, 3, 13).unwrap();
        let osn = SimulatedOsn::new(graph.clone());
        let start = NodeId(2);
        let h = 3;
        let crawl =
            InitialCrawl::build(&osn, RandomWalkKind::MetropolisHastings, start, h).unwrap();
        let matrix = TransitionMatrix::new(&graph, RandomWalkKind::MetropolisHastings);
        for t in 0..=h {
            let exact = matrix.distribution_after(start, t);
            for v in graph.nodes() {
                let got = if t <= crawl.depth() {
                    crawl.exact_probability(t, v)
                } else {
                    0.0
                };
                assert!((got - exact[v.index()]).abs() < 1e-12, "t={t} v={v}");
            }
        }
    }

    #[test]
    fn crawl_of_depth_zero_is_just_the_start() {
        let osn = SimulatedOsn::new(cycle(6));
        let crawl = InitialCrawl::build(&osn, RandomWalkKind::Simple, NodeId(0), 0).unwrap();
        assert_eq!(crawl.crawled_nodes(), 1);
        assert_eq!(crawl.exact_probability(0, NodeId(0)), 1.0);
        assert_eq!(crawl.exact_probability(0, NodeId(1)), 0.0);
    }

    #[test]
    #[should_panic(expected = "crawl only covers")]
    fn asking_beyond_depth_panics() {
        let osn = SimulatedOsn::new(cycle(6));
        let crawl = InitialCrawl::build(&osn, RandomWalkKind::Simple, NodeId(0), 1).unwrap();
        let _ = crawl.exact_probability(2, NodeId(0));
    }

    #[test]
    fn star_crawl_has_exact_hub_probabilities() {
        // From a leaf of a star, p_1(hub) = 1 and p_2(leaves) = 1/(n-1) each
        // under SRW.
        let n = 6;
        let osn = SimulatedOsn::new(star(n));
        let crawl = InitialCrawl::build(&osn, RandomWalkKind::Simple, NodeId(3), 2).unwrap();
        assert_eq!(crawl.exact_probability(1, NodeId(0)), 1.0);
        for leaf in 1..n as u32 {
            assert!(
                (crawl.exact_probability(2, NodeId(leaf)) - 1.0 / (n as f64 - 1.0)).abs() < 1e-12
            );
        }
        assert_eq!(crawl.exact_probability(2, NodeId(0)), 0.0);
        assert_eq!(crawl.degree(NodeId(0)), Some(n - 1));
        assert_eq!(crawl.start(), NodeId(3));
    }

    #[test]
    fn crawl_query_cost_is_bounded_by_neighborhood_size() {
        let graph = barabasi_albert(200, 3, 17).unwrap();
        let osn = SimulatedOsn::new(graph);
        let crawl = InitialCrawl::build(&osn, RandomWalkKind::Simple, NodeId(0), 2).unwrap();
        assert_eq!(osn.query_cost(), crawl.crawled_nodes() as u64);
    }
}
