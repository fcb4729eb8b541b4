//! A sharded, lock-striped neighbor cache layered over any [`SocialNetwork`].
//!
//! The paper's cost model already assumes a crawler caches responses locally
//! (re-querying a fetched node is free). [`CachedNetwork`] makes that cache a
//! *composable wrapper* so a pool of concurrent walkers can share it: once
//! any walker has paid for `N(v)`, every other walker reads `N(v)` from the
//! cache without touching the wrapped network — the "leverage shared crawl
//! state" idea of the history-assisted sampling line of work, applied to the
//! neighbor lists themselves.
//!
//! Concurrency design:
//!
//! * the cache is split into [`SHARD_COUNT`] shards, each guarded by its own
//!   mutex, so walkers touching different nodes rarely contend;
//! * a miss holds its shard's lock *across the inner fetch*. Two walkers
//!   racing for the same uncached node therefore serialise, and exactly one
//!   of them performs (and is charged for) the inner query — this is what
//!   makes `QueryStats::unique_nodes` exact under contention, with no
//!   double-charging and no lost updates;
//! * a hit clones the cached list's [`Arc`] under the shard lock — no list
//!   copy, no allocation — and the list itself is read after the lock is
//!   released;
//! * the counters are relaxed atomics (`AtomicStats`), not a second
//!   lock: the shard maps already know which nodes were fetched, so the
//!   cache keeps no visited set of its own. `unique_nodes` grows once per
//!   inserted entry, and only the one walker whose miss inserted a node's
//!   entry (under its shard lock) records that charge, so each node counts
//!   exactly once. The charge itself is recorded after the lock is
//!   released, so a live [`query_stats`](SocialNetwork::query_stats) read
//!   may briefly trail the maps; it is exact once the walkers are joined.
//!
//! Failed inner queries (budget exhaustion, unknown node) are never cached,
//! so a walker retrying after an error observes the wrapped network's fresh
//! answer.
//!
//! The cache freezes each node's **first** successful response — exactly the
//! paper's cost model, where a crawler stores responses locally and re-reads
//! its copy for free.

use crate::counter::{AtomicStats, QueryStats};
use crate::interface::SocialNetwork;
use crate::sync::lock;
use crate::Result;
use std::sync::{Arc, Mutex};
use wnw_graph::{NodeId, NodeMap};

/// Number of independent cache shards. A power of two so the shard index is
/// a mask; 64 keeps contention negligible for worker pools far larger than
/// any machine this runs on.
pub const SHARD_COUNT: usize = 64;

/// A concurrency-safe neighbor cache wrapped around an inner network.
///
/// The wrapper meters its *own* traffic: [`query_stats`] reports the calls
/// walkers made against the cache (`api_calls`), how many were served locally
/// (`cache_hits`), and how many distinct nodes were fetched from the inner
/// network (`unique_nodes` — the paper's query cost). The inner network's own
/// counters keep running independently and stay available through
/// [`CachedNetwork::inner`].
///
/// [`query_stats`]: SocialNetwork::query_stats
#[derive(Debug)]
pub struct CachedNetwork<N> {
    inner: N,
    shards: Vec<Mutex<NodeMap<Arc<[NodeId]>>>>,
    stats: AtomicStats,
}

impl<N: SocialNetwork> CachedNetwork<N> {
    /// Wraps `inner` with an empty cache.
    pub fn new(inner: N) -> Self {
        CachedNetwork {
            inner,
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(NodeMap::default()))
                .collect(),
            stats: AtomicStats::default(),
        }
    }

    /// The wrapped network.
    pub fn inner(&self) -> &N {
        &self.inner
    }

    /// Unwraps the cache, returning the inner network.
    pub fn into_inner(self) -> N {
        self.inner
    }

    /// Number of neighbor lists currently cached.
    pub fn cached_nodes(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether `v`'s neighbor list is cached (i.e. a further query for it is
    /// free).
    pub fn is_cached(&self, v: NodeId) -> bool {
        lock(&self.shards[Self::shard_of(v)]).contains_key(&v)
    }

    fn shard_of(v: NodeId) -> usize {
        // NodeIds are dense small integers; multiply by a 64-bit odd constant
        // (Fibonacci hashing) so consecutive ids spread across shards.
        (((v.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & (SHARD_COUNT - 1)
    }
}

impl<N: SocialNetwork> SocialNetwork for CachedNetwork<N> {
    fn neighbors(&self, v: NodeId) -> Result<Vec<NodeId>> {
        Ok(self.neighbor_list(v)?.to_vec())
    }

    /// Answers from `v`'s cached list, fetching and caching it on a miss.
    /// A hit is an [`Arc`] clone; a failed inner query caches and charges
    /// nothing.
    fn neighbor_list(&self, v: NodeId) -> Result<Arc<[NodeId]>> {
        let mut shard = lock(&self.shards[Self::shard_of(v)]);
        if let Some(cached) = shard.get(&v) {
            let list = Arc::clone(cached);
            drop(shard);
            self.stats.record_hit();
            return Ok(list);
        }
        // Miss: fetch while holding the shard lock so a racing walker cannot
        // issue a duplicate inner query for the same node.
        let list = self.inner.neighbor_list(v)?;
        shard.insert(v, Arc::clone(&list));
        drop(shard);
        self.stats.record_charge();
        Ok(list)
    }

    fn attribute(&self, name: &str, v: NodeId) -> Result<f64> {
        let value = self.inner.attribute(name, v)?;
        self.stats.record_attribute_read();
        Ok(value)
    }

    fn seed_node(&self) -> NodeId {
        self.inner.seed_node()
    }

    fn query_stats(&self) -> QueryStats {
        self.stats.snapshot()
    }

    fn reset_counters(&self) {
        for shard in &self.shards {
            lock(shard).clear();
        }
        self.stats.reset();
        self.inner.reset_counters();
    }

    fn node_count_hint(&self) -> Option<usize> {
        self.inner.node_count_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::QueryBudget;
    use crate::simulated::SimulatedOsn;
    use crate::AccessError;
    use wnw_graph::generators::classic::{complete, cycle};

    #[test]
    fn hits_are_served_without_touching_inner() {
        let cache = CachedNetwork::new(SimulatedOsn::new(cycle(6)));
        let first = cache.neighbors(NodeId(0)).unwrap();
        assert_eq!(first, vec![NodeId(1), NodeId(5)]);
        assert_eq!(cache.inner().query_stats().api_calls, 1);
        for _ in 0..5 {
            assert_eq!(cache.neighbors(NodeId(0)).unwrap(), first);
        }
        // The inner network saw exactly one call; the cache metered all six.
        assert_eq!(cache.inner().query_stats().api_calls, 1);
        let stats = cache.query_stats();
        assert_eq!(stats.api_calls, 6);
        assert_eq!(stats.cache_hits, 5);
        assert_eq!(stats.unique_nodes, 1);
        assert!(cache.is_cached(NodeId(0)));
        assert!(!cache.is_cached(NodeId(1)));
        assert_eq!(cache.cached_nodes(), 1);
    }

    #[test]
    fn query_cost_matches_distinct_nodes() {
        let cache = CachedNetwork::new(SimulatedOsn::new(complete(10)));
        for round in 0..3 {
            for v in 0..10u32 {
                cache.neighbors(NodeId(v)).unwrap();
            }
            let _ = round;
        }
        assert_eq!(cache.query_cost(), 10);
        assert_eq!(cache.query_stats().api_calls, 30);
        assert_eq!(cache.inner().query_cost(), 10);
    }

    #[test]
    fn degree_probes_are_cached_and_counted_like_neighbor_queries() {
        let by_degree = CachedNetwork::new(SimulatedOsn::new(cycle(6)));
        let by_list = CachedNetwork::new(SimulatedOsn::new(cycle(6)));
        for v in [0, 0, 3, 0, 3] {
            let degree = by_degree.degree(NodeId(v)).unwrap();
            assert_eq!(degree, by_list.neighbors(NodeId(v)).unwrap().len());
        }
        assert_eq!(by_degree.query_stats(), by_list.query_stats());
        assert_eq!(by_degree.inner().query_stats().api_calls, 2);
        // A degree miss caches the full list for later neighbor reads.
        assert!(by_degree.is_cached(NodeId(3)));
        assert_eq!(
            by_degree.neighbors(NodeId(3)).unwrap(),
            vec![NodeId(2), NodeId(4)]
        );
    }

    #[test]
    fn neighbor_list_matches_neighbors_and_hits_share_one_list() {
        let inner = || {
            SimulatedOsn::builder(cycle(6))
                .budget(QueryBudget(2))
                .build()
        };
        let by_list = CachedNetwork::new(inner());
        let by_vec = CachedNetwork::new(inner());
        // 2 is past the inner budget, 9 is unknown: neither is charged.
        for v in [0, 3, 0, 2, 9, 3] {
            let list = by_list.neighbor_list(NodeId(v));
            let vec = by_vec.neighbors(NodeId(v));
            assert_eq!(list.map(|l| l.to_vec()), vec);
            assert_eq!(by_list.query_stats(), by_vec.query_stats());
        }
        assert_eq!(by_list.query_cost(), 2);
        assert_eq!(by_list.inner().query_stats(), by_vec.inner().query_stats());
        let first = by_list.neighbor_list(NodeId(0)).unwrap();
        let second = by_list.neighbor_list(NodeId(0)).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "a hit is the cached list");
    }

    #[test]
    fn errors_are_not_cached() {
        let inner = SimulatedOsn::builder(complete(5))
            .budget(QueryBudget(2))
            .build();
        let cache = CachedNetwork::new(inner);
        cache.neighbors(NodeId(0)).unwrap();
        cache.neighbors(NodeId(1)).unwrap();
        assert!(matches!(
            cache.neighbors(NodeId(2)),
            Err(AccessError::BudgetExhausted { budget: 2 })
        ));
        assert!(!cache.is_cached(NodeId(2)));
        assert_eq!(cache.query_cost(), 2);
        // Cached nodes stay readable after exhaustion.
        assert!(cache.neighbors(NodeId(0)).is_ok());
        assert!(matches!(
            cache.neighbors(NodeId(9)),
            Err(AccessError::UnknownNode(NodeId(9)))
        ));
    }

    #[test]
    fn attribute_reads_delegate_and_are_counted() {
        let mut g = cycle(4);
        g.set_attribute("stars", vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let cache = CachedNetwork::new(SimulatedOsn::new(g));
        assert_eq!(cache.attribute("stars", NodeId(2)).unwrap(), 3.0);
        assert_eq!(cache.query_stats().attribute_reads, 1);
        assert_eq!(cache.query_cost(), 0);
    }

    #[test]
    fn reset_clears_cache_and_both_counter_layers() {
        let cache = CachedNetwork::new(SimulatedOsn::new(cycle(5)));
        cache.neighbors(NodeId(0)).unwrap();
        cache.neighbors(NodeId(0)).unwrap();
        cache.reset_counters();
        assert_eq!(cache.query_stats(), QueryStats::default());
        assert_eq!(cache.inner().query_stats(), QueryStats::default());
        assert_eq!(cache.cached_nodes(), 0);
        // Re-querying after reset charges again.
        cache.neighbors(NodeId(0)).unwrap();
        assert_eq!(cache.query_cost(), 1);
    }

    #[test]
    fn concurrent_walkers_never_double_charge() {
        let n = 400;
        let cache = std::sync::Arc::new(CachedNetwork::new(SimulatedOsn::new(complete(n))));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cache = cache.clone();
                scope.spawn(move || {
                    // Every thread sweeps all nodes, offset so the threads
                    // collide on different nodes at different times.
                    for i in 0..n {
                        let v = NodeId(((i + t * 50) % n) as u32);
                        let got = cache.neighbors(v).unwrap();
                        assert_eq!(got.len(), n - 1);
                    }
                });
            }
        });
        let stats = cache.query_stats();
        assert_eq!(stats.unique_nodes, n as u64, "exactly one charge per node");
        assert_eq!(stats.api_calls, (8 * n) as u64);
        assert_eq!(stats.cache_hits, (8 * n - n) as u64);
        assert_eq!(cache.inner().query_stats().unique_nodes, n as u64);
        assert_eq!(cache.inner().query_stats().api_calls, n as u64);
    }
}
