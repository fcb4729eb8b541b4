//! Compressed-sparse-row undirected graph.
//!
//! This is the in-memory stand-in for the online social network topology.
//! Random walks only ever ask for `neighbors(v)` and `degree(v)`, so the
//! representation optimises exactly those: a single offsets array plus a
//! single adjacency array, giving contiguous neighbor slices and O(1)
//! degrees with minimal memory overhead (8 bytes per node + 8 bytes per
//! undirected edge).
//!
//! Generators and edge-list readers all go through a single construction
//! path: a counting scatter of a flat endpoint list into the two arrays, then
//! a sort and dedup of each node's list (no global sort of the edges).

use crate::attributes::AttributeTable;
use crate::error::GraphError;
use crate::node::NodeId;
use crate::Result;

/// An immutable, simple, undirected graph in CSR form.
///
/// Construct one through [`GraphBuilder`](crate::GraphBuilder), a generator
/// in [`generators`](crate::generators), or an edge list read by
/// [`io`](crate::io).
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `adjacency` for node `v`.
    offsets: Vec<u64>,
    /// Concatenated, per-node-sorted neighbor lists. Each undirected edge
    /// appears twice (once per endpoint).
    adjacency: Vec<NodeId>,
    /// Number of undirected edges.
    edge_count: usize,
    /// Optional per-node attributes (stars, self-description length, ...).
    attributes: AttributeTable,
}

impl Graph {
    /// Builds a graph over `node_count` nodes from a flat endpoint list:
    /// `endpoints[2i]` and `endpoints[2i + 1]` are the two ends of edge `i`,
    /// in either orientation, possibly repeated.
    ///
    /// This is the crate's one CSR construction path, behind
    /// [`GraphBuilder::build`](crate::GraphBuilder::build) and the
    /// Barabási–Albert generator's endpoint pool. One pass counts degrees,
    /// one scatters each edge into both endpoints' slots in list order, and
    /// a last pass sorts each node's slice and drops repeats while
    /// compacting the adjacency leftwards. The edge list is never sorted as
    /// a whole, and `endpoints` is freed as soon as it is scattered.
    ///
    /// Callers guarantee every endpoint is below `node_count` and no pair is
    /// a self-loop.
    pub(crate) fn from_endpoint_pairs(node_count: usize, endpoints: Vec<u32>) -> Self {
        debug_assert!(endpoints.len().is_multiple_of(2));
        // Count degrees into offsets[v + 1]; the running sum then leaves
        // offsets[v] at the start of v's slots, the cursor the scatter bumps.
        let mut offsets = vec![0u64; node_count + 1];
        for &v in &endpoints {
            offsets[v as usize + 1] += 1;
        }
        for v in 0..node_count {
            offsets[v + 1] += offsets[v];
        }
        let mut adjacency = vec![NodeId(0); endpoints.len()];
        for pair in endpoints.chunks_exact(2) {
            let (u, v) = (pair[0], pair[1]);
            debug_assert_ne!(u, v, "self-loop at node {u}");
            adjacency[offsets[u as usize] as usize] = NodeId(v);
            offsets[u as usize] += 1;
            adjacency[offsets[v as usize] as usize] = NodeId(u);
            offsets[v as usize] += 1;
        }
        drop(endpoints);
        // Each cursor now sits at its node's end, which is the next node's
        // start. Sort and dedup each slice in node order, writing the
        // compacted start back over the cursor once it has been read.
        let mut write = 0usize;
        let mut start = 0usize;
        for cursor in &mut offsets[..node_count] {
            let end = *cursor as usize;
            *cursor = write as u64;
            adjacency[start..end].sort_unstable();
            let first = write;
            for i in start..end {
                let u = adjacency[i];
                if write == first || adjacency[write - 1] != u {
                    adjacency[write] = u;
                    write += 1;
                }
            }
            start = end;
        }
        offsets[node_count] = write as u64;
        adjacency.truncate(write);
        adjacency.shrink_to_fit();
        Graph {
            offsets,
            adjacency,
            edge_count: write / 2,
            attributes: AttributeTable::new(node_count),
        }
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Returns `true` if `v` is a valid node of this graph.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        v.index() < self.node_count()
    }

    /// Validates that `v` belongs to the graph.
    pub fn check_node(&self, v: NodeId) -> Result<()> {
        if self.contains(v) {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node: v.index(),
                node_count: self.node_count(),
            })
        }
    }

    /// Degree `d(v) = |N(v)|`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// The neighbor list `N(v)`, sorted by node id.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        &self.adjacency[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Returns `true` if the undirected edge `{u, v}` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if !self.contains(u) || !self.contains(v) {
            return false;
        }
        // Search the shorter adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterator over all undirected edges, each reported once as `(u, v)`
    /// with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree `d_max` over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree `d_min` over all nodes (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Average degree `2|E| / |V|`.
    pub fn average_degree(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        2.0 * self.edge_count() as f64 / self.node_count() as f64
    }

    /// Read-only access to the attribute table.
    pub fn attributes(&self) -> &AttributeTable {
        &self.attributes
    }

    /// Mutable access to the attribute table (used by dataset surrogates to
    /// attach "stars", "self-description length", etc.).
    pub fn attributes_mut(&mut self) -> &mut AttributeTable {
        &mut self.attributes
    }

    /// Attaches a named numeric attribute with one value per node.
    ///
    /// Convenience wrapper over [`AttributeTable::insert`].
    pub fn set_attribute(&mut self, name: &str, values: Vec<f64>) -> Result<()> {
        let nodes = self.node_count();
        self.attributes.insert(name, values, nodes)
    }

    /// Looks up the value of attribute `name` at node `v`.
    pub fn attribute(&self, name: &str, v: NodeId) -> Result<f64> {
        self.check_node(v)?;
        self.attributes.value(name, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path4() -> Graph {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 3)]);
        b.build()
    }

    #[test]
    fn csr_layout_is_consistent() {
        let g = path4();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(g.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert_eq!(g.neighbors(NodeId(2)), &[NodeId(1), NodeId(3)]);
        assert_eq!(g.neighbors(NodeId(3)), &[NodeId(2)]);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 1);
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn has_edge_both_orientations() {
        let g = path4();
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
        assert!(!g.has_edge(NodeId(0), NodeId(99)));
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let g = path4();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(2), NodeId(3))
            ]
        );
    }

    #[test]
    fn neighbor_lists_are_sorted() {
        let mut b = GraphBuilder::new();
        // Insert edges in a scrambled order around node 3.
        b.extend_edges([(3u32, 7u32), (3, 1), (3, 5), (3, 0), (0, 1)]);
        let g = b.build();
        let nbrs = g.neighbors(NodeId(3));
        let mut sorted = nbrs.to_vec();
        sorted.sort();
        assert_eq!(nbrs, &sorted[..]);
    }

    #[test]
    fn check_node_errors_out_of_range() {
        let g = path4();
        assert!(g.check_node(NodeId(3)).is_ok());
        assert!(g.check_node(NodeId(4)).is_err());
    }

    #[test]
    fn attributes_roundtrip() {
        let mut g = path4();
        g.set_attribute("stars", vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(g.attribute("stars", NodeId(2)).unwrap(), 3.0);
        assert!(g.attribute("missing", NodeId(2)).is_err());
        assert!(g.set_attribute("short", vec![1.0]).is_err());
    }

    #[test]
    fn empty_graph_degenerate_values() {
        let g = GraphBuilder::new().build();
        assert!(g.is_empty());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.min_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.nodes().count(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn clone_preserves_structure() {
        let g = path4();
        let h = g.clone();
        assert_eq!(g, h);
        assert_eq!(g.node_count(), h.node_count());
        assert_eq!(g.edge_count(), h.edge_count());
        for v in g.nodes() {
            assert_eq!(g.neighbors(v), h.neighbors(v));
        }
    }
}
