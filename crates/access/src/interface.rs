//! The local-neighborhood query interface.
//!
//! This trait is the *only* way samplers in this workspace observe the social
//! network — mirroring the restrictive web interface of Section 2.1. Every
//! method that touches the server is fallible, so budget exhaustion and rate
//! limits propagate naturally through the samplers.

use crate::counter::QueryStats;
use crate::Result;
use std::sync::Arc;
use wnw_graph::NodeId;

/// A social network reachable only through local-neighborhood queries.
///
/// Implementations are expected to be cheap to share by reference: samplers
/// take `&N where N: SocialNetwork + ?Sized`, and interior mutability handles
/// query accounting.
pub trait SocialNetwork {
    /// Returns the neighbor list `N(v)` of node `v`, charging the query cost
    /// if `v` has not been fetched before.
    fn neighbors(&self, v: NodeId) -> Result<Vec<NodeId>>;

    /// Returns `N(v)` as a shared list, charged exactly like
    /// [`neighbors`](Self::neighbors). The default copies the owned list
    /// once; a layer that already holds the list (a cache) returns its own
    /// handle, so a hot walker step clones a pointer instead of the list.
    /// Wrappers forward it so that handle reaches the walker.
    fn neighbor_list(&self, v: NodeId) -> Result<Arc<[NodeId]>> {
        Ok(self.neighbors(v)?.into())
    }

    /// Returns the degree `|N(v)|`, charging the same cost as
    /// [`neighbors`](Self::neighbors) (the interface returns the full list;
    /// degree is just its length).
    fn degree(&self, v: NodeId) -> Result<usize> {
        Ok(self.neighbors(v)?.len())
    }

    /// Reads a numeric attribute of a node the caller has sampled (e.g. its
    /// star rating or self-description word count). Attribute reads target a
    /// profile page already retrieved and are not charged as extra queries.
    fn attribute(&self, name: &str, v: NodeId) -> Result<f64>;

    /// A starting node for walks. Real crawlers bootstrap from a known
    /// account; the simulator returns a fixed, valid node.
    fn seed_node(&self) -> NodeId;

    /// Query-cost counters accumulated so far.
    fn query_stats(&self) -> QueryStats;

    /// The paper's query-cost measure: unique nodes accessed so far.
    fn query_cost(&self) -> u64 {
        self.query_stats().unique_nodes
    }

    /// Resets the query counters (used between repetitions of an experiment).
    fn reset_counters(&self);

    /// Number of users, if the implementation happens to know it.
    ///
    /// Only ground-truth computations use this; the samplers themselves never
    /// do (the paper's third party does not know `|V|`).
    fn node_count_hint(&self) -> Option<usize> {
        None
    }
}

/// A [`SocialNetwork`] that can be shared across walker threads.
///
/// This is a pure marker: the sampling engine takes `N: ThreadedNetwork`
/// where a worker pool fans out over one shared handle, making the
/// `Send + Sync` requirement part of the access contract instead of a bound
/// scattered across the engine. Every `SocialNetwork` whose type is already
/// `Send + Sync` (e.g. [`SimulatedOsn`](crate::SimulatedOsn), or a
/// [`CachedNetwork`](crate::CachedNetwork) over one) gets it for free via the
/// blanket implementation.
pub trait ThreadedNetwork: SocialNetwork + Send + Sync {}

impl<N: SocialNetwork + Send + Sync + ?Sized> ThreadedNetwork for N {}

/// Blanket implementation so `&N` works wherever `N: SocialNetwork` does.
impl<N: SocialNetwork + ?Sized> SocialNetwork for &N {
    fn neighbors(&self, v: NodeId) -> Result<Vec<NodeId>> {
        (**self).neighbors(v)
    }
    fn neighbor_list(&self, v: NodeId) -> Result<Arc<[NodeId]>> {
        (**self).neighbor_list(v)
    }
    fn degree(&self, v: NodeId) -> Result<usize> {
        (**self).degree(v)
    }
    fn attribute(&self, name: &str, v: NodeId) -> Result<f64> {
        (**self).attribute(name, v)
    }
    fn seed_node(&self) -> NodeId {
        (**self).seed_node()
    }
    fn query_stats(&self) -> QueryStats {
        (**self).query_stats()
    }
    fn reset_counters(&self) {
        (**self).reset_counters()
    }
    fn node_count_hint(&self) -> Option<usize> {
        (**self).node_count_hint()
    }
}

/// Blanket implementation so `Arc<N>` works wherever `N: SocialNetwork`
/// does — the natural shape for handles shared by walker threads.
impl<N: SocialNetwork + ?Sized> SocialNetwork for Arc<N> {
    fn neighbors(&self, v: NodeId) -> Result<Vec<NodeId>> {
        (**self).neighbors(v)
    }
    fn neighbor_list(&self, v: NodeId) -> Result<Arc<[NodeId]>> {
        (**self).neighbor_list(v)
    }
    fn degree(&self, v: NodeId) -> Result<usize> {
        (**self).degree(v)
    }
    fn attribute(&self, name: &str, v: NodeId) -> Result<f64> {
        (**self).attribute(name, v)
    }
    fn seed_node(&self) -> NodeId {
        (**self).seed_node()
    }
    fn query_stats(&self) -> QueryStats {
        (**self).query_stats()
    }
    fn reset_counters(&self) {
        (**self).reset_counters()
    }
    fn node_count_hint(&self) -> Option<usize> {
        (**self).node_count_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulated::SimulatedOsn;
    use wnw_graph::generators::classic::cycle;

    fn assert_threaded<N: ThreadedNetwork>(_n: &N) {}

    #[test]
    fn arc_impl_delegates_and_is_threaded() {
        let osn = Arc::new(SimulatedOsn::new(cycle(5)));
        assert_eq!(osn.degree(NodeId(0)).unwrap(), 2);
        assert_eq!(osn.query_cost(), 1);
        assert_eq!(osn.node_count_hint(), Some(5));
        assert_threaded(&osn);
        osn.reset_counters();
        assert_eq!(osn.query_cost(), 0);
    }

    /// A backend implementing only the required methods, so
    /// `neighbor_list` is the provided default.
    struct VecOnly(SimulatedOsn);

    impl SocialNetwork for VecOnly {
        fn neighbors(&self, v: NodeId) -> Result<Vec<NodeId>> {
            self.0.neighbors(v)
        }
        fn attribute(&self, name: &str, v: NodeId) -> Result<f64> {
            self.0.attribute(name, v)
        }
        fn seed_node(&self) -> NodeId {
            self.0.seed_node()
        }
        fn query_stats(&self) -> QueryStats {
            self.0.query_stats()
        }
        fn reset_counters(&self) {
            self.0.reset_counters()
        }
    }

    #[test]
    fn default_neighbor_list_matches_neighbors() {
        use crate::counter::QueryBudget;
        let osn = || {
            SimulatedOsn::builder(cycle(5))
                .budget(QueryBudget(2))
                .build()
        };
        let (by_list, by_vec) = (VecOnly(osn()), osn());
        // 2 is over budget and 9 is unknown: both fail without a charge.
        for v in [0, 1, 0, 2, 9, 1] {
            let list = by_list.neighbor_list(NodeId(v));
            assert_eq!(list.map(|l| l.to_vec()), by_vec.neighbors(NodeId(v)));
            assert_eq!(by_list.query_stats(), by_vec.query_stats());
        }
        assert_eq!(by_list.query_cost(), 2);
        // `&N` and `Arc<N>` forward it.
        let shared = Arc::new(osn());
        let by_ref = &*shared;
        let expected = vec![NodeId(1), NodeId(4)];
        assert_eq!(
            SocialNetwork::neighbor_list(&by_ref, NodeId(0))
                .unwrap()
                .to_vec(),
            expected
        );
        assert_eq!(shared.neighbor_list(NodeId(0)).unwrap().to_vec(), expected);
        assert_eq!(shared.query_stats().api_calls, 2);
    }

    #[test]
    fn blanket_ref_impl_delegates() {
        let osn = SimulatedOsn::new(cycle(5));
        let by_ref: &dyn SocialNetwork = &osn;
        assert_eq!(by_ref.degree(NodeId(0)).unwrap(), 2);
        assert_eq!(osn.query_cost(), 1);
        assert_eq!(by_ref.node_count_hint(), Some(5));
        by_ref.reset_counters();
        assert_eq!(by_ref.query_cost(), 0);
    }
}
