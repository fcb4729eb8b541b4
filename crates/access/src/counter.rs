//! Query-cost accounting.
//!
//! The paper's efficiency measure is the **query cost**: "the number of nodes
//! it has to access in order to obtain a predetermined number of samples"
//! (Section 2.4). Re-querying a node already fetched costs nothing because a
//! crawler caches responses locally; this is also what makes the paper's
//! initial-crawling heuristic cheap ("many nodes in the neighborhood may
//! already be accessed by the WALK part"). The counter therefore tracks
//!
//! * `unique_nodes` — distinct nodes whose neighbor list has been fetched
//!   (this is *the* query cost used everywhere in the experiments),
//! * `api_calls` — raw calls including cache hits, for rate-limit modelling,
//! * an optional hard [`QueryBudget`] that makes further queries fail with
//!   [`AccessError::BudgetExhausted`].

use crate::error::AccessError;
use crate::sync::lock;
use crate::Result;
use std::sync::Mutex;
use wnw_graph::{NodeId, NodeSet};

/// A hard cap on the number of unique-node queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryBudget(pub u64);

impl QueryBudget {
    /// A budget that never runs out.
    pub const UNLIMITED: QueryBudget = QueryBudget(u64::MAX);
}

/// A snapshot of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Distinct nodes whose neighborhood has been queried — the paper's
    /// query-cost measure.
    pub unique_nodes: u64,
    /// Total neighbor-list API calls, including repeats served from cache.
    pub api_calls: u64,
    /// Calls served from the local cache (no charge).
    pub cache_hits: u64,
    /// Attribute reads (these target already-visited nodes and are free in
    /// the paper's cost model, but are tracked for completeness).
    pub attribute_reads: u64,
}

/// Thread-safe query-cost accounting shared by an access layer and the
/// experiment harness.
#[derive(Debug)]
pub struct QueryCounter {
    inner: Mutex<CounterInner>,
    budget: QueryBudget,
}

#[derive(Debug, Default)]
struct CounterInner {
    visited: NodeSet,
    stats: QueryStats,
}

impl QueryCounter {
    /// Creates a counter with an unlimited budget.
    pub fn unlimited() -> Self {
        Self::with_budget(QueryBudget::UNLIMITED)
    }

    /// Creates a counter that fails queries beyond `budget` unique nodes.
    pub fn with_budget(budget: QueryBudget) -> Self {
        QueryCounter {
            inner: Mutex::new(CounterInner::default()),
            budget,
        }
    }

    /// The configured budget.
    pub fn budget(&self) -> QueryBudget {
        self.budget
    }

    /// Records a neighbor-list query against node `v`.
    ///
    /// Returns `Ok(true)` if this was the first (charged) access to `v`,
    /// `Ok(false)` on a cache hit, and an error if the budget would be
    /// exceeded by a charged access.
    pub fn record_neighbor_query(&self, v: NodeId) -> Result<bool> {
        let mut inner = lock(&self.inner);
        inner.stats.api_calls += 1;
        if inner.visited.contains(&v) {
            inner.stats.cache_hits += 1;
            return Ok(false);
        }
        if inner.stats.unique_nodes >= self.budget.0 {
            // Undo the api_call bump? Keep it: the caller did attempt a call.
            return Err(AccessError::BudgetExhausted {
                budget: self.budget.0,
            });
        }
        inner.visited.insert(v);
        inner.stats.unique_nodes += 1;
        Ok(true)
    }

    /// Records an attribute read (not charged against the budget).
    pub fn record_attribute_read(&self) {
        lock(&self.inner).stats.attribute_reads += 1;
    }

    /// Returns whether node `v` has already been charged (i.e. is cached).
    pub fn is_visited(&self, v: NodeId) -> bool {
        lock(&self.inner).visited.contains(&v)
    }

    /// Whether a neighbor query for `v` fits the budget: `v` was already
    /// charged, or budget is left for one more unique node. One lock, where
    /// [`is_visited`](Self::is_visited) then [`remaining`](Self::remaining)
    /// would take two.
    pub fn admits(&self, v: NodeId) -> bool {
        let inner = lock(&self.inner);
        inner.stats.unique_nodes < self.budget.0 || inner.visited.contains(&v)
    }

    /// Number of unique nodes charged so far — the query cost.
    pub fn query_cost(&self) -> u64 {
        lock(&self.inner).stats.unique_nodes
    }

    /// Remaining budget in unique-node queries.
    pub fn remaining(&self) -> u64 {
        let used = self.query_cost();
        self.budget.0.saturating_sub(used)
    }

    /// A copy of all counters.
    pub fn stats(&self) -> QueryStats {
        lock(&self.inner).stats
    }

    /// Resets all counters and the visited set (the budget is kept).
    pub fn reset(&self) {
        let mut inner = lock(&self.inner);
        inner.visited.clear();
        inner.stats = QueryStats::default();
    }
}

impl Default for QueryCounter {
    fn default() -> Self {
        Self::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_node_accounting() {
        let c = QueryCounter::unlimited();
        assert!(c.record_neighbor_query(NodeId(1)).unwrap());
        assert!(!c.record_neighbor_query(NodeId(1)).unwrap());
        assert!(c.record_neighbor_query(NodeId(2)).unwrap());
        let s = c.stats();
        assert_eq!(s.unique_nodes, 2);
        assert_eq!(s.api_calls, 3);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(c.query_cost(), 2);
        assert!(c.is_visited(NodeId(1)));
        assert!(!c.is_visited(NodeId(3)));
    }

    #[test]
    fn admits_visited_nodes_or_while_budget_is_left() {
        let c = QueryCounter::with_budget(QueryBudget(1));
        assert!(c.admits(NodeId(1)));
        c.record_neighbor_query(NodeId(1)).unwrap();
        // Budget spent: only the already-charged node is still admitted.
        assert!(c.admits(NodeId(1)));
        assert!(!c.admits(NodeId(2)));
        assert_eq!(
            c.admits(NodeId(2)),
            c.is_visited(NodeId(2)) || c.remaining() > 0
        );
    }

    #[test]
    fn budget_enforced_only_for_new_nodes() {
        let c = QueryCounter::with_budget(QueryBudget(2));
        c.record_neighbor_query(NodeId(1)).unwrap();
        c.record_neighbor_query(NodeId(2)).unwrap();
        // Cache hits are still allowed.
        assert!(!c.record_neighbor_query(NodeId(1)).unwrap());
        // A third unique node exceeds the budget.
        let err = c.record_neighbor_query(NodeId(3)).unwrap_err();
        assert_eq!(err, AccessError::BudgetExhausted { budget: 2 });
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn reset_clears_counts_but_keeps_budget() {
        let c = QueryCounter::with_budget(QueryBudget(5));
        c.record_neighbor_query(NodeId(1)).unwrap();
        c.record_attribute_read();
        c.reset();
        assert_eq!(c.stats(), QueryStats::default());
        assert_eq!(c.budget(), QueryBudget(5));
        assert_eq!(c.remaining(), 5);
    }

    #[test]
    fn attribute_reads_do_not_consume_budget() {
        let c = QueryCounter::with_budget(QueryBudget(1));
        c.record_attribute_read();
        c.record_attribute_read();
        assert_eq!(c.stats().attribute_reads, 2);
        assert_eq!(c.remaining(), 1);
    }
}
