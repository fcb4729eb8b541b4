//! Compressed-sparse-row undirected graph.
//!
//! This is the in-memory stand-in for the online social network topology.
//! Random walks only ever ask for `neighbors(v)` and `degree(v)`, so the
//! representation optimises exactly those: a single offsets array plus a
//! single adjacency array, giving contiguous neighbor slices and O(1)
//! degrees with minimal memory overhead (8 bytes per node + 8 bytes per
//! undirected edge).
//!
//! A graph is built in one of two ways. Generators and edge-list readers go
//! through a single construction path: a counting scatter of a flat endpoint
//! list into the two arrays, then a sort and dedup of each node's list (no
//! global sort of the edges). The catalog loader instead hands over finished
//! arrays to [`Graph::from_csr_parts`], which checks every invariant.

use crate::attributes::AttributeTable;
use crate::error::GraphError;
use crate::node::NodeId;
use crate::Result;

/// An immutable, simple, undirected graph in CSR form.
///
/// Construct one through [`GraphBuilder`](crate::GraphBuilder), a generator
/// in [`generators`](crate::generators), an edge list read by [`io`](crate::io),
/// or raw arrays checked by [`Graph::from_csr_parts`].
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

    /// Reassembles a graph from raw CSR arrays (the on-disk catalog
    /// loader's entry point) with no attributes. Untrusted input is checked
    /// against every invariant the accessors rely on, in one sequential
    /// sweep over `adjacency`:
    ///
    /// * `offsets` starts at 0, is monotone, and ends at `adjacency.len()`;
    /// * each list is strictly increasing (sorted, no duplicates) and holds
    ///   only in-range ids other than its own node (no self-loops);
    /// * every edge appears in both endpoints' lists. Entry `u` in `N(v)`
    ///   adds `h(v, u)` to a wrapping sum when `v < u` and subtracts
    ///   `h(u, v)` otherwise, so a symmetric adjacency sums to exactly 0
    ///   and a one-sided edge leaves a nonzero remainder (a 64-bit mixed
    ///   hash makes an accidental cancellation vanishingly unlikely).
    pub fn from_csr_parts(offsets: Vec<u64>, adjacency: Vec<NodeId>) -> Result<Self> {
        let invalid = |detail: String| Err(GraphError::InvalidCsr(detail));
        let Some((&first, ends)) = offsets.split_first() else {
            return invalid("offsets array is empty".into());
        };
        if first != 0 {
            return invalid(format!("offsets[0] is {first}, expected 0"));
        }
        let mut prev = 0u64;
        for (v, &end) in ends.iter().enumerate() {
            if end < prev {
                return invalid(format!(
                    "offsets not monotone at node {}: {prev} > {end}",
                    v + 1
                ));
            }
            prev = end;
        }
        if prev != adjacency.len() as u64 {
            return invalid(format!(
                "final offset {prev} does not match adjacency length {}",
                adjacency.len()
            ));
        }
        if !adjacency.len().is_multiple_of(2) {
            return invalid(format!(
                "adjacency length {} is odd (each undirected edge must appear twice)",
                adjacency.len()
            ));
        }

        let node_count = ends.len();
        let mut balance = 0u64;
        let mut start = 0usize;
        for (v, &end) in ends.iter().enumerate() {
            let end = end as usize;
            let v = v as u32;
            let mut last: Option<u32> = None;
            for &NodeId(u) in &adjacency[start..end] {
                if u as usize >= node_count {
                    return invalid(format!(
                        "node {v} lists neighbor {u}, out of range for {node_count} nodes"
                    ));
                }
                if last.is_some_and(|l| l >= u) {
                    return invalid(format!(
                        "neighbor list of node {v} is not strictly increasing"
                    ));
                }
                if u == v {
                    return invalid(format!("self-loop at node {v}"));
                }
                balance = if v < u {
                    balance.wrapping_add(pair_hash(v, u))
                } else {
                    balance.wrapping_sub(pair_hash(u, v))
                };
                last = Some(u);
            }
            start = end;
        }
        if balance != 0 {
            return invalid(
                "adjacency is not symmetric: some edge is listed by only one endpoint".into(),
            );
        }

        Ok(Graph {
            offsets,
            edge_count: adjacency.len() / 2,
            adjacency,
            attributes: AttributeTable::new(node_count),
        })
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

/// The edge hash behind [`Graph::from_csr_parts`]'s symmetry check: the
/// splitmix64 finalizer over the packed pair `(a, b)` with `a < b`.
fn pair_hash(a: u32, b: u32) -> u64 {
    let mut z = (u64::from(a) << 32) | u64::from(b);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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

    fn ids(raw: &[u32]) -> Vec<NodeId> {
        raw.iter().map(|&u| NodeId(u)).collect()
    }

    #[test]
    fn from_csr_parts_roundtrips_a_built_graph() {
        let g = path4();
        let rebuilt = Graph::from_csr_parts(g.offsets.clone(), g.adjacency.clone()).unwrap();
        assert_eq!(rebuilt, g);
        let empty = Graph::from_csr_parts(vec![0], vec![]).unwrap();
        assert_eq!(empty, GraphBuilder::new().build());
    }

    #[test]
    fn from_csr_parts_rejects_every_broken_invariant() {
        let invalid = |offsets: Vec<u64>, adjacency: &[u32]| {
            matches!(
                Graph::from_csr_parts(offsets, ids(adjacency)),
                Err(GraphError::InvalidCsr(_))
            )
        };
        assert!(invalid(vec![], &[]));
        assert!(invalid(vec![1, 2], &[0, 0]));
        assert!(invalid(vec![0, 2, 1], &[0, 1]));
        assert!(invalid(vec![0, 4], &[0, 0]));
        assert!(invalid(vec![0, 1], &[0])); // odd adjacency length
        assert!(invalid(vec![0, 1, 2], &[0, 7])); // neighbor out of range
        assert!(invalid(vec![0, 1, 1, 2], &[1, 0])); // one-sided edges
        assert!(invalid(vec![0, 2, 3, 4], &[2, 1, 0, 0])); // unsorted list
        assert!(invalid(vec![0, 2, 4], &[1, 1, 0, 0])); // duplicate entry
        assert!(invalid(vec![0, 1, 3, 4], &[1, 1, 2, 1])); // self-loop at node 1
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
