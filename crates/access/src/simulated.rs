//! In-memory simulation of an online social network.
//!
//! [`SimulatedOsn`] wraps a [`wnw_graph::Graph`] behind the
//! [`SocialNetwork`] interface: every neighbor query returns the node's
//! full list from the graph and is metered by a [`QueryCounter`]. This is
//! the stand-in for the real Google Plus / Yelp / Twitter web interfaces
//! the paper crawls.

use crate::counter::{QueryBudget, QueryCounter, QueryStats};
use crate::error::AccessError;
use crate::interface::SocialNetwork;
use crate::Result;
use std::sync::Arc;
use wnw_graph::{Graph, NodeId};

/// A simulated online social network backed by an in-memory graph.
///
/// Cloning is cheap and shares the underlying graph and counter —
/// convenient when an experiment wants several samplers to draw from the
/// same metered session.
#[derive(Debug, Clone)]
pub struct SimulatedOsn {
    graph: Arc<Graph>,
    counter: Arc<QueryCounter>,
    seed_node: NodeId,
}

impl SimulatedOsn {
    /// Wraps `graph` with an unlimited budget and node 0 as the seed.
    pub fn new(graph: Graph) -> Self {
        Self::builder(graph).build()
    }

    /// Starts a builder for fine-grained configuration.
    pub fn builder(graph: Graph) -> SimulatedOsnBuilder {
        SimulatedOsnBuilder {
            graph,
            budget: QueryBudget::UNLIMITED,
            seed_node: NodeId(0),
        }
    }

    /// The underlying graph (ground-truth computations only — samplers must
    /// not touch this).
    pub fn ground_truth(&self) -> &Graph {
        &self.graph
    }

    /// The shared query counter.
    pub fn counter(&self) -> &QueryCounter {
        &self.counter
    }

    /// Charges a neighbor query for `v` and returns the graph's list.
    fn fetch(&self, v: NodeId) -> Result<&[NodeId]> {
        if !self.graph.contains(v) {
            return Err(AccessError::UnknownNode(v));
        }
        self.counter.record_neighbor_query(v)?;
        Ok(self.graph.neighbors(v))
    }
}

impl SocialNetwork for SimulatedOsn {
    fn neighbors(&self, v: NodeId) -> Result<Vec<NodeId>> {
        Ok(self.fetch(v)?.to_vec())
    }

    /// Charged exactly like [`neighbors`](SocialNetwork::neighbors); the
    /// shared list is built straight from the graph's slice: one copy,
    /// where the default would copy the owned list again.
    fn neighbor_list(&self, v: NodeId) -> Result<Arc<[NodeId]>> {
        Ok(self.fetch(v)?.into())
    }

    fn attribute(&self, name: &str, v: NodeId) -> Result<f64> {
        if !self.graph.contains(v) {
            return Err(AccessError::UnknownNode(v));
        }
        self.counter.record_attribute_read();
        self.graph
            .attribute(name, v)
            .map_err(|_| AccessError::UnknownAttribute(name.to_string()))
    }

    fn seed_node(&self) -> NodeId {
        self.seed_node
    }

    fn query_stats(&self) -> QueryStats {
        self.counter.stats()
    }

    fn reset_counters(&self) {
        self.counter.reset();
    }

    fn node_count_hint(&self) -> Option<usize> {
        Some(self.graph.node_count())
    }
}

/// Builder for [`SimulatedOsn`].
#[derive(Debug)]
pub struct SimulatedOsnBuilder {
    graph: Graph,
    budget: QueryBudget,
    seed_node: NodeId,
}

impl SimulatedOsnBuilder {
    /// Sets a hard unique-node query budget.
    pub fn budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Chooses the seed node returned by [`SocialNetwork::seed_node`].
    pub fn seed_node(mut self, v: NodeId) -> Self {
        self.seed_node = v;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> SimulatedOsn {
        SimulatedOsn {
            graph: Arc::new(self.graph),
            counter: Arc::new(QueryCounter::with_budget(self.budget)),
            seed_node: self.seed_node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnw_graph::generators::classic::{complete, cycle};

    #[test]
    fn neighbors_match_graph_and_are_charged_once() {
        let osn = SimulatedOsn::new(cycle(6));
        let n0 = osn.neighbors(NodeId(0)).unwrap();
        assert_eq!(n0, vec![NodeId(1), NodeId(5)]);
        assert_eq!(osn.query_cost(), 1);
        osn.neighbors(NodeId(0)).unwrap();
        assert_eq!(osn.query_cost(), 1); // cache hit
        osn.neighbors(NodeId(1)).unwrap();
        assert_eq!(osn.query_cost(), 2);
        assert_eq!(osn.query_stats().api_calls, 3);
    }

    #[test]
    fn neighbor_list_matches_neighbors() {
        let osn = || {
            SimulatedOsn::builder(complete(6))
                .budget(QueryBudget(2))
                .build()
        };
        let (by_list, by_vec) = (osn(), osn());
        // 2 is over budget and 9 is unknown: both fail without a charge.
        for v in [0, 1, 0, 2, 9, 1] {
            let list = by_list.neighbor_list(NodeId(v));
            assert_eq!(list.map(|l| l.to_vec()), by_vec.neighbors(NodeId(v)));
            assert_eq!(by_list.query_stats(), by_vec.query_stats());
        }
        assert_eq!(by_list.query_cost(), 2);
    }

    #[test]
    fn unknown_node_is_rejected() {
        let osn = SimulatedOsn::new(cycle(3));
        assert_eq!(
            osn.neighbors(NodeId(9)).unwrap_err(),
            AccessError::UnknownNode(NodeId(9))
        );
        assert!(matches!(
            osn.attribute("stars", NodeId(9)),
            Err(AccessError::UnknownNode(_))
        ));
    }

    #[test]
    fn budget_is_enforced() {
        let osn = SimulatedOsn::builder(complete(10))
            .budget(QueryBudget(3))
            .build();
        osn.neighbors(NodeId(0)).unwrap();
        osn.neighbors(NodeId(1)).unwrap();
        osn.neighbors(NodeId(2)).unwrap();
        assert!(matches!(
            osn.neighbors(NodeId(3)),
            Err(AccessError::BudgetExhausted { budget: 3 })
        ));
        // Cached nodes remain readable.
        assert!(osn.neighbors(NodeId(0)).is_ok());
    }

    #[test]
    fn attribute_reads_work_and_do_not_charge() {
        let mut g = cycle(4);
        g.set_attribute("stars", vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let osn = SimulatedOsn::new(g);
        assert_eq!(osn.attribute("stars", NodeId(2)).unwrap(), 3.0);
        assert_eq!(osn.query_cost(), 0);
        assert!(matches!(
            osn.attribute("missing", NodeId(2)),
            Err(AccessError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn reset_counters_clears_everything() {
        let osn = SimulatedOsn::new(cycle(5));
        osn.neighbors(NodeId(0)).unwrap();
        osn.reset_counters();
        assert_eq!(osn.query_cost(), 0);
        assert_eq!(osn.query_stats(), QueryStats::default());
    }

    #[test]
    fn clones_share_counters() {
        let osn = SimulatedOsn::new(cycle(5));
        let other = osn.clone();
        osn.neighbors(NodeId(0)).unwrap();
        other.neighbors(NodeId(1)).unwrap();
        assert_eq!(osn.query_cost(), 2);
        assert_eq!(other.query_cost(), 2);
    }

    #[test]
    fn seed_node_and_hint() {
        let osn = SimulatedOsn::builder(cycle(7)).seed_node(NodeId(3)).build();
        assert_eq!(osn.seed_node(), NodeId(3));
        assert_eq!(osn.node_count_hint(), Some(7));
    }
}
