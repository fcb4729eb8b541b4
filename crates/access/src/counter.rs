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
use std::sync::atomic::{AtomicU64, Ordering};
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

/// The four [`QueryStats`] counters as relaxed atomics, for a layer that
/// counts its traffic without taking a lock per query.
///
/// `Relaxed` is enough because the counters publish no data: they are
/// counts, never read to decide what another thread may touch. A snapshot
/// loads the four fields one at a time, so one taken while queries run
/// (a live metrics read) may mix fields from different moments — each
/// field is a true count, but e.g. `api_calls - cache_hits` need not equal
/// `unique_nodes` yet. A snapshot taken after a round barrier or a thread
/// join is exact: that synchronization orders every increment before the
/// loads. The one read that does gate work — the budget check on
/// `unique_nodes` — happens under the lock its writers hold (see
/// [`QueryCounter`]).
#[derive(Debug, Default)]
pub(crate) struct AtomicStats {
    unique_nodes: AtomicU64,
    api_calls: AtomicU64,
    cache_hits: AtomicU64,
    attribute_reads: AtomicU64,
}

impl AtomicStats {
    /// An api call served from already-fetched state.
    pub(crate) fn record_hit(&self) {
        self.api_calls.fetch_add(1, Ordering::Relaxed);
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// An api call that charged a new unique node.
    pub(crate) fn record_charge(&self) {
        self.api_calls.fetch_add(1, Ordering::Relaxed);
        self.unique_nodes.fetch_add(1, Ordering::Relaxed);
    }

    /// An api call refused for budget: attempted, neither hit nor charged.
    fn record_refusal(&self) {
        self.api_calls.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_attribute_read(&self) {
        self.attribute_reads.fetch_add(1, Ordering::Relaxed);
    }

    fn unique_nodes(&self) -> u64 {
        self.unique_nodes.load(Ordering::Relaxed)
    }

    pub(crate) fn snapshot(&self) -> QueryStats {
        QueryStats {
            unique_nodes: self.unique_nodes(),
            api_calls: self.api_calls.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            attribute_reads: self.attribute_reads.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        for stat in [
            &self.unique_nodes,
            &self.api_calls,
            &self.cache_hits,
            &self.attribute_reads,
        ] {
            stat.store(0, Ordering::Relaxed);
        }
    }
}

/// Thread-safe query-cost accounting shared by an access layer and the
/// experiment harness.
///
/// Concurrency: the visited set sits under a mutex and the stats are
/// relaxed atomics beside it (`AtomicStats`, which says why `Relaxed` is
/// enough). `unique_nodes` is written only while the
/// visited lock is held, so the budget check made under that lock reads it
/// exactly; that is what keeps a budget from being overrun by racing first
/// visits.
#[derive(Debug)]
pub struct QueryCounter {
    visited: Mutex<NodeSet>,
    stats: AtomicStats,
    budget: QueryBudget,
}

impl QueryCounter {
    /// Creates a counter with an unlimited budget.
    pub fn unlimited() -> Self {
        Self::with_budget(QueryBudget::UNLIMITED)
    }

    /// Creates a counter that fails queries beyond `budget` unique nodes.
    pub fn with_budget(budget: QueryBudget) -> Self {
        QueryCounter {
            visited: Mutex::new(NodeSet::default()),
            stats: AtomicStats::default(),
            budget,
        }
    }

    /// The configured budget.
    pub fn budget(&self) -> QueryBudget {
        self.budget
    }

    fn exhausted(&self) -> AccessError {
        AccessError::BudgetExhausted {
            budget: self.budget.0,
        }
    }

    /// Records a neighbor-list query against node `v`.
    ///
    /// Returns `Ok(true)` if this was the first (charged) access to `v`,
    /// `Ok(false)` on a cache hit, and an error if the budget would be
    /// exceeded by a charged access.
    pub fn record_neighbor_query(&self, v: NodeId) -> Result<bool> {
        let mut visited = lock(&self.visited);
        if visited.contains(&v) {
            self.stats.record_hit();
            return Ok(false);
        }
        if self.stats.unique_nodes() >= self.budget.0 {
            // The caller did attempt a call: it still counts as one.
            self.stats.record_refusal();
            return Err(self.exhausted());
        }
        visited.insert(v);
        self.stats.record_charge();
        Ok(true)
    }

    /// Records an attribute read (not charged against the budget).
    pub fn record_attribute_read(&self) {
        self.stats.record_attribute_read();
    }

    /// Returns whether node `v` has already been charged (i.e. is cached).
    pub fn is_visited(&self, v: NodeId) -> bool {
        lock(&self.visited).contains(&v)
    }

    /// Runs `query`, the inner answer to a neighbor query for `v`, under
    /// this counter's budget and accounting.
    ///
    /// The budget is checked *before* `query` runs, but the charge is
    /// recorded only *after* it succeeds: a failed query (rate limit,
    /// unknown node) consumes no budget and leaves `v` unvisited, so a
    /// later successful retry is charged. The check takes the one lock; a
    /// node already visited stays visited (the set only grows between
    /// resets), so its answer is recorded as a hit with two relaxed atomic
    /// adds and no second lock. Only a first visit locks again, to charge
    /// the node.
    pub(crate) fn metered<T>(&self, v: NodeId, query: impl FnOnce() -> Result<T>) -> Result<T> {
        let visited = self.admit(v)?;
        let answer = query()?;
        if visited {
            self.stats.record_hit();
        } else {
            self.record_neighbor_query(v)
                .expect("budget was checked before the inner query");
        }
        Ok(answer)
    }

    /// The budget check before a neighbor query for `v`, in one lock:
    /// `Ok(true)` when `v` was already charged, `Ok(false)` when `v` is new
    /// and budget is left for it, and [`AccessError::BudgetExhausted`]
    /// otherwise.
    fn admit(&self, v: NodeId) -> Result<bool> {
        let visited = lock(&self.visited);
        if visited.contains(&v) {
            Ok(true)
        } else if self.stats.unique_nodes() < self.budget.0 {
            Ok(false)
        } else {
            Err(self.exhausted())
        }
    }

    /// Number of unique nodes charged so far — the query cost.
    pub fn query_cost(&self) -> u64 {
        self.stats.unique_nodes()
    }

    /// Remaining budget in unique-node queries.
    pub fn remaining(&self) -> u64 {
        self.budget.0.saturating_sub(self.query_cost())
    }

    /// A copy of all counters.
    pub fn stats(&self) -> QueryStats {
        self.stats.snapshot()
    }

    /// Resets all counters and the visited set (the budget is kept).
    pub fn reset(&self) {
        let mut visited = lock(&self.visited);
        visited.clear();
        self.stats.reset();
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
        assert_eq!(c.admit(NodeId(1)), Ok(false), "new node, budget left");
        c.record_neighbor_query(NodeId(1)).unwrap();
        // Budget spent: only the already-charged node is still admitted.
        assert_eq!(c.admit(NodeId(1)), Ok(true), "visited: a hit");
        assert_eq!(
            c.admit(NodeId(2)),
            Err(AccessError::BudgetExhausted { budget: 1 })
        );
        assert_eq!(
            c.admit(NodeId(2)).is_ok(),
            c.is_visited(NodeId(2)) || c.remaining() > 0
        );
    }

    #[test]
    fn metered_matches_record_alone_and_failures_charge_nothing() {
        let metered = QueryCounter::with_budget(QueryBudget(2));
        let plain = QueryCounter::with_budget(QueryBudget(2));
        let failing = || -> Result<()> { Err(AccessError::UnknownNode(NodeId(3))) };
        assert_eq!(metered.metered(NodeId(3), failing), failing());
        assert_eq!(metered.stats(), QueryStats::default());
        for v in [1, 1, 2, 1, 2] {
            let v = NodeId(v);
            metered.metered(v, || Ok(())).unwrap();
            plain.record_neighbor_query(v).unwrap();
            assert_eq!(metered.stats(), plain.stats());
        }
        // Budget spent: a new node is refused before its query runs.
        let before = metered.stats();
        assert_eq!(
            metered.metered(NodeId(3), || -> Result<()> { unreachable!() }),
            Err(AccessError::BudgetExhausted { budget: 2 })
        );
        assert_eq!(metered.stats(), before);
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
