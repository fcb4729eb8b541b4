//! Forward random walks over the restricted access interface.
//!
//! A walker only ever asks for `N(v)` (through
//! [`SocialNetwork::neighbor_list`], the shared-list form of
//! [`SocialNetwork::neighbors`]), so every step is charged exactly the way
//! the paper charges it. MHRW additionally needs the
//! degree of the proposed neighbor to evaluate the acceptance ratio — a real
//! extra query, which is part of why MHRW mixes (and spends) slower than SRW
//! in practice (Section 8 cites the same observation from Gjoka et al.).

use crate::transition::RandomWalkKind;
use rand::seq::SliceRandom;
use rand::Rng;
use wnw_access::{Result, SocialNetwork};
use wnw_graph::NodeId;

/// The trajectory of a forward random walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForwardWalk {
    /// Visited nodes, `path[0]` being the starting node. A walk of `t` steps
    /// has `t + 1` entries; MHRW self-loops repeat the same node.
    pub path: Vec<NodeId>,
}

impl ForwardWalk {
    /// The node where the walk currently sits.
    pub fn current(&self) -> NodeId {
        *self
            .path
            .last()
            .expect("a walk always contains its starting node")
    }

    /// Number of steps taken (edges traversed or self-loops).
    pub fn steps(&self) -> usize {
        self.path.len() - 1
    }

    /// The node visited at step `t` (`t = 0` is the start).
    pub fn node_at(&self, t: usize) -> Option<NodeId> {
        self.path.get(t).copied()
    }
}

/// Performs one step of the walk from `current`, returning the next node.
///
/// For SRW this is a uniform choice among `N(current)`. For MHRW a uniform
/// proposal is accepted with probability `min(1, |N(u)|/|N(v)|)`, otherwise
/// the walk stays at `current` (the self-loop of Definition 2).
pub fn step<N: SocialNetwork + ?Sized, R: Rng + ?Sized>(
    osn: &N,
    kind: RandomWalkKind,
    current: NodeId,
    rng: &mut R,
) -> Result<NodeId> {
    let neighbors = osn.neighbor_list(current)?;
    if neighbors.is_empty() {
        // An isolated node can only stay put; callers on connected graphs
        // never hit this.
        return Ok(current);
    }
    let proposal = *neighbors.choose(rng).expect("non-empty neighbor list");
    match kind {
        RandomWalkKind::Simple => Ok(proposal),
        RandomWalkKind::MetropolisHastings => {
            let du = neighbors.len() as f64;
            let dv = osn.degree(proposal)? as f64;
            let accept = (du / dv).min(1.0);
            if rng.gen::<f64>() < accept {
                Ok(proposal)
            } else {
                Ok(current)
            }
        }
    }
}

/// Runs a walk of exactly `steps` steps starting at `start`.
pub fn random_walk<N: SocialNetwork + ?Sized, R: Rng + ?Sized>(
    osn: &N,
    kind: RandomWalkKind,
    start: NodeId,
    steps: usize,
    rng: &mut R,
) -> Result<ForwardWalk> {
    let mut path = Vec::with_capacity(steps + 1);
    path.push(start);
    let mut current = start;
    for _ in 0..steps {
        current = step(osn, kind, current, rng)?;
        path.push(current);
    }
    Ok(ForwardWalk { path })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;
    use wnw_access::SimulatedOsn;
    use wnw_graph::generators::classic::{complete, cycle, star};
    use wnw_graph::generators::random::barabasi_albert;

    #[test]
    fn walk_length_and_adjacency_are_respected() {
        let g = barabasi_albert(100, 3, 1).unwrap();
        let osn = SimulatedOsn::new(g);
        let mut rng = StdRng::seed_from_u64(1);
        let walk = random_walk(&osn, RandomWalkKind::Simple, NodeId(0), 25, &mut rng).unwrap();
        assert_eq!(walk.steps(), 25);
        assert_eq!(walk.path.len(), 26);
        assert_eq!(walk.node_at(0), Some(NodeId(0)));
        // Every consecutive pair must be an edge of the underlying graph.
        let truth = osn.ground_truth();
        for w in walk.path.windows(2) {
            assert!(
                truth.has_edge(w[0], w[1]),
                "non-edge {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn mhrw_may_stay_put_but_never_teleports() {
        let g = star(20); // hub has degree 19, leaves degree 1: many rejections
        let osn = SimulatedOsn::new(g);
        let mut rng = StdRng::seed_from_u64(2);
        let walk = random_walk(
            &osn,
            RandomWalkKind::MetropolisHastings,
            NodeId(0),
            50,
            &mut rng,
        )
        .unwrap();
        let truth = osn.ground_truth();
        let mut saw_self_loop = false;
        for w in walk.path.windows(2) {
            if w[0] == w[1] {
                saw_self_loop = true;
            } else {
                assert!(truth.has_edge(w[0], w[1]));
            }
        }
        // From the hub, a proposal to a leaf is accepted with prob 1/19, so a
        // 50-step MHRW on a star virtually always self-loops at least once.
        assert!(saw_self_loop);
    }

    #[test]
    fn srw_on_complete_graph_visits_uniformly() {
        let n = 10;
        let osn = SimulatedOsn::new(complete(n));
        let mut rng = StdRng::seed_from_u64(3);
        let walk = random_walk(&osn, RandomWalkKind::Simple, NodeId(0), 20_000, &mut rng).unwrap();
        let mut counts: HashMap<NodeId, usize> = HashMap::new();
        for &v in &walk.path[1..] {
            *counts.entry(v).or_default() += 1;
        }
        let expected = 20_000.0 / n as f64;
        for v in 0..n as u32 {
            let c = *counts.get(&NodeId(v)).unwrap_or(&0) as f64;
            assert!(
                (c - expected).abs() / expected < 0.15,
                "node {v}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn walk_on_isolated_node_stays_put() {
        use wnw_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        b.ensure_nodes(3);
        b.add_edge(1u32, 2u32);
        let osn = SimulatedOsn::new(b.build());
        let mut rng = StdRng::seed_from_u64(4);
        let walk = random_walk(&osn, RandomWalkKind::Simple, NodeId(0), 5, &mut rng).unwrap();
        assert!(walk.path.iter().all(|&v| v == NodeId(0)));
    }

    #[test]
    fn query_cost_counts_unique_nodes_only() {
        let osn = SimulatedOsn::new(cycle(6));
        let mut rng = StdRng::seed_from_u64(5);
        random_walk(&osn, RandomWalkKind::Simple, NodeId(0), 100, &mut rng).unwrap();
        // A 100-step walk on a 6-cycle revisits nodes constantly; the charged
        // cost can never exceed the number of distinct nodes.
        assert!(osn.query_cost() <= 6);
    }

    #[test]
    fn mhrw_on_cycle_behaves_like_srw() {
        // All degrees equal => acceptance ratio is always 1, so MHRW never
        // self-loops on a cycle.
        let osn = SimulatedOsn::new(cycle(8));
        let mut rng = StdRng::seed_from_u64(6);
        let walk = random_walk(
            &osn,
            RandomWalkKind::MetropolisHastings,
            NodeId(0),
            64,
            &mut rng,
        )
        .unwrap();
        for w in walk.path.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }
}
