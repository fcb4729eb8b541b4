//! A network view whose walks start from a caller-chosen node.
//!
//! Every sampler in this workspace bootstraps from
//! [`SocialNetwork::seed_node`] — the one account a crawler is assumed to
//! know. [`Rebased`] overrides that single answer while delegating every
//! query to the wrapped handle, which is how a multi-tenant service lets
//! each job pick its own start node (a per-job knob, not a property of the
//! network) without threading a start parameter through every sampler
//! constructor. The override is also the `start` component of the job's
//! cross-job history key, so two jobs rebased to the same node exchange
//! history while jobs on different nodes never do.

use crate::counter::QueryStats;
use crate::interface::SocialNetwork;
use crate::Result;
use std::sync::Arc;
use wnw_graph::NodeId;

/// A [`SocialNetwork`] wrapper that answers [`seed_node`] with a chosen
/// node (or the inner network's own when `None`).
///
/// [`seed_node`]: SocialNetwork::seed_node
#[derive(Debug, Clone)]
pub struct Rebased<N> {
    inner: N,
    start: Option<NodeId>,
}

impl<N: SocialNetwork> Rebased<N> {
    /// Wraps `inner`, overriding its seed node with `start` (a `None`
    /// passes the inner network's answer through unchanged, so call sites
    /// can wrap unconditionally).
    pub fn new(inner: N, start: Option<NodeId>) -> Self {
        Rebased { inner, start }
    }

    /// The wrapped handle.
    pub fn inner(&self) -> &N {
        &self.inner
    }
}

impl<N: SocialNetwork> SocialNetwork for Rebased<N> {
    fn neighbors(&self, v: NodeId) -> Result<Vec<NodeId>> {
        self.inner.neighbors(v)
    }

    fn neighbor_list(&self, v: NodeId) -> Result<Arc<[NodeId]>> {
        self.inner.neighbor_list(v)
    }

    fn degree(&self, v: NodeId) -> Result<usize> {
        self.inner.degree(v)
    }

    fn attribute(&self, name: &str, v: NodeId) -> Result<f64> {
        self.inner.attribute(name, v)
    }

    fn seed_node(&self) -> NodeId {
        self.start.unwrap_or_else(|| self.inner.seed_node())
    }

    fn query_stats(&self) -> QueryStats {
        self.inner.query_stats()
    }

    fn reset_counters(&self) {
        self.inner.reset_counters()
    }

    fn node_count_hint(&self) -> Option<usize> {
        self.inner.node_count_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulated::SimulatedOsn;
    use wnw_graph::generators::classic::cycle;

    #[test]
    fn overrides_only_the_seed_node() {
        let osn = SimulatedOsn::new(cycle(10));
        let plain = Rebased::new(&osn, None);
        assert_eq!(plain.seed_node(), osn.seed_node());

        let moved = Rebased::new(&osn, Some(NodeId(7)));
        assert_eq!(moved.seed_node(), NodeId(7));
        // Queries still delegate (and still meter) through the inner handle.
        assert_eq!(moved.neighbors(NodeId(3)).unwrap().len(), 2);
        assert_eq!(moved.node_count_hint(), Some(10));
        assert_eq!(moved.query_stats().unique_nodes, osn.query_cost());
        assert!(osn.query_cost() > 0);
    }
}
