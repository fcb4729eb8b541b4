//! Incremental construction of undirected graphs.
//!
//! Generators and file loaders accumulate edges into a [`GraphBuilder`],
//! which drops self-loops as they arrive and parallel edges when it freezes
//! the edge set into the CSR [`Graph`]. The paper's graph model is a simple
//! undirected graph (Section 2.1), so both choices are deliberate.
//!
//! The builder keeps each edge once, as two adjacent endpoints in a flat
//! list. [`GraphBuilder::build`] hands that list to the crate's one CSR
//! construction path: a counting scatter of every edge into both endpoints'
//! slots, then a sort and dedup of each node's list. Nothing sorts the edge
//! list as a whole. `barabasi_albert` feeds its endpoint pool to the same
//! path directly, since the pool already lists each edge as such a pair.

use crate::graph::Graph;
use crate::node::NodeId;

/// Accumulates an edge list and freezes it into a [`Graph`].
///
/// Duplicate edges (in either orientation) and self-loops are silently
/// ignored; the node count grows to cover the largest endpoint seen, and may
/// also be raised explicitly with [`GraphBuilder::ensure_node`] so isolated
/// nodes survive.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    /// Edge `i`'s endpoints at `2i` and `2i + 1`, as added.
    endpoints: Vec<u32>,
    node_count: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder expecting `nodes` nodes and roughly `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            endpoints: Vec::with_capacity(2 * edges),
            node_count: nodes,
        }
    }

    /// Number of nodes the built graph will have (so far).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of (possibly duplicated) edge insertions recorded so far.
    pub fn raw_edge_count(&self) -> usize {
        self.endpoints.len() / 2
    }

    /// Makes sure node `v` exists even if no edge touches it.
    pub fn ensure_node(&mut self, v: impl Into<NodeId>) -> &mut Self {
        let v = v.into().index();
        if v + 1 > self.node_count {
            self.node_count = v + 1;
        }
        self
    }

    /// Makes sure nodes `0..n` exist.
    pub fn ensure_nodes(&mut self, n: usize) -> &mut Self {
        if n > self.node_count {
            self.node_count = n;
        }
        self
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are ignored.
    pub fn add_edge(&mut self, u: impl Into<NodeId>, v: impl Into<NodeId>) -> &mut Self {
        let u = u.into();
        let v = v.into();
        self.ensure_node(u);
        self.ensure_node(v);
        if u == v {
            return self;
        }
        self.endpoints.extend([u.0, v.0]);
        self
    }

    /// Adds every edge of an iterator of `(u, v)` pairs.
    pub fn extend_edges<I, U, V>(&mut self, iter: I) -> &mut Self
    where
        I: IntoIterator<Item = (U, V)>,
        U: Into<NodeId>,
        V: Into<NodeId>,
    {
        for (u, v) in iter {
            self.add_edge(u, v);
        }
        self
    }

    /// Freezes the accumulated edges into a CSR [`Graph`].
    ///
    /// Parallel edges are removed; the neighbor lists of the resulting graph
    /// are sorted by node id.
    pub fn build(self) -> Graph {
        Graph::from_endpoint_pairs(self.node_count, self.endpoints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_triangle() {
        let mut b = GraphBuilder::new();
        b.add_edge(0u32, 1u32)
            .add_edge(1u32, 2u32)
            .add_edge(2u32, 0u32);
        let g = b.build();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn deduplicates_and_ignores_self_loops() {
        let mut b = GraphBuilder::new();
        b.add_edge(0u32, 1u32)
            .add_edge(1u32, 0u32)
            .add_edge(0u32, 1u32)
            .add_edge(1u32, 1u32);
        let g = b.build();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId(1)), 1);
    }

    #[test]
    fn isolated_nodes_survive() {
        let mut b = GraphBuilder::new();
        b.ensure_nodes(5);
        b.add_edge(0u32, 1u32);
        let g = b.build();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.degree(NodeId(4)), 0);
        assert!(g.neighbors(NodeId(4)).is_empty());
    }

    #[test]
    fn extend_edges_matches_individual_adds() {
        let mut a = GraphBuilder::new();
        a.extend_edges([(0u32, 1u32), (1, 2), (2, 3)]);
        let mut b = GraphBuilder::new();
        b.add_edge(0u32, 1u32)
            .add_edge(1u32, 2u32)
            .add_edge(2u32, 3u32);
        let ga = a.build();
        let gb = b.build();
        assert_eq!(ga.node_count(), gb.node_count());
        assert_eq!(ga.edge_count(), gb.edge_count());
        for v in ga.nodes() {
            assert_eq!(ga.neighbors(v), gb.neighbors(v));
        }
    }

    /// `build` against a naive per-node `BTreeSet` adjacency, on seeded
    /// random edge lists with repeats in both orientations, self-loops, and
    /// `ensure_nodes` calls that may leave an isolated tail.
    #[test]
    fn build_matches_a_naive_set_adjacency() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;

        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let span = rng.gen_range(1..40usize);
            let mut edges: Vec<(u32, u32)> = Vec::new();
            for _ in 0..rng.gen_range(0..4 * span) {
                let edge = match rng.gen_range(0..4u8) {
                    0 if !edges.is_empty() => {
                        let (u, v) = edges[rng.gen_range(0..edges.len())];
                        if rng.gen_bool(0.5) {
                            (v, u)
                        } else {
                            (u, v)
                        }
                    }
                    1 => {
                        let u = rng.gen_range(0..span) as u32;
                        (u, u)
                    }
                    _ => (rng.gen_range(0..span) as u32, rng.gen_range(0..span) as u32),
                };
                edges.push(edge);
            }
            let ensured = rng.gen_range(0..span + 5);

            let mut b = GraphBuilder::new();
            b.extend_edges(edges.iter().copied());
            b.ensure_nodes(ensured);
            let g = b.build();

            let nodes = edges
                .iter()
                .map(|&(u, v)| u.max(v) as usize + 1)
                .fold(ensured, usize::max);
            let mut naive = vec![BTreeSet::new(); nodes];
            for &(u, v) in edges.iter().filter(|(u, v)| u != v) {
                naive[u as usize].insert(NodeId(v));
                naive[v as usize].insert(NodeId(u));
            }
            assert_eq!(g.node_count(), nodes, "seed {seed}");
            let listed: usize = naive.iter().map(BTreeSet::len).sum();
            assert_eq!(g.edge_count(), listed / 2, "seed {seed}");
            for v in g.nodes() {
                let expected: Vec<NodeId> = naive[v.index()].iter().copied().collect();
                assert_eq!(g.neighbors(v), &expected[..], "seed {seed}, node {v}");
            }
        }
    }

    #[test]
    fn with_capacity_tracks_nodes() {
        let b = GraphBuilder::with_capacity(10, 20);
        assert_eq!(b.node_count(), 10);
        assert_eq!(b.raw_edge_count(), 0);
    }
}
