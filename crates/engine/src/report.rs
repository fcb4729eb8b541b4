//! Results of an engine run: merged samples plus per-walker and pool-level
//! query accounting.

use std::time::Duration;
use wnw_access::counter::QueryStats;
use wnw_access::AccessError;
use wnw_graph::NodeId;
use wnw_mcmc::sampler::SampleRecord;

/// What one virtual walker produced.
#[derive(Debug, Clone)]
pub struct WalkerReport {
    /// The walker's id (also its RNG stream index).
    pub walker: usize,
    /// Samples in the order the walker produced them. The `query_cost`
    /// recorded in each sample is the walker's *own* metered cost at that
    /// moment.
    pub samples: Vec<SampleRecord>,
    /// The walker's own query counters.
    pub stats: QueryStats,
    /// Whether the walker stopped because its budget share ran out.
    pub budget_exhausted: bool,
    /// The degradation that stopped this walker, if any: a transient fault,
    /// exhausted retries, or an open circuit breaker (see
    /// [`AccessError::is_degradation`]). Treated like budget exhaustion —
    /// the walker ends, its samples are kept, and the job completes as a
    /// degraded partial instead of failing.
    pub degraded: Option<AccessError>,
    /// A non-budget access error that stopped the walker, if any. A job
    /// whose walkers report one fails as a whole.
    pub fatal: Option<AccessError>,
}

/// The merged result of a [`SampleJob`](crate::SampleJob).
#[derive(Debug, Clone)]
pub struct JobReport {
    /// All accepted samples, concatenated in walker order (walker 0's
    /// samples first). Deterministic for a fixed job, at any thread count.
    pub samples: Vec<SampleRecord>,
    /// Per-walker breakdown, indexed by walker id.
    pub walkers: Vec<WalkerReport>,
    /// The shared cache's counters: `unique_nodes` is the pool's true query
    /// cost (each node charged once no matter how many walkers touched it),
    /// `cache_hits` is how often one walker rode on another's queries.
    pub pool_stats: QueryStats,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// OS threads the engine actually used.
    pub threads: usize,
    /// Whether any walker was stopped by a degradation (transient fault,
    /// exhausted retries, open breaker) rather than finishing cleanly. The
    /// samples collected before the fault are kept — the job is a
    /// *degraded partial*, not a failure.
    pub degraded: bool,
}

impl JobReport {
    /// The sampled node ids, in [`samples`](Self::samples) order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.samples.iter().map(|s| s.node).collect()
    }

    /// Number of samples collected.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The pool's query cost (the paper's measure): distinct nodes fetched
    /// from the underlying network by *anyone*.
    pub fn query_cost(&self) -> u64 {
        self.pool_stats.unique_nodes
    }

    /// Sum of the walkers' own query costs — what the same walkers would
    /// have paid without the shared cache. The difference to
    /// [`query_cost`](Self::query_cost) is the saving from cache sharing.
    pub fn uncached_query_cost(&self) -> u64 {
        self.walkers.iter().map(|w| w.stats.unique_nodes).sum()
    }

    /// Whether any walker exhausted its budget share.
    pub fn budget_exhausted(&self) -> bool {
        self.walkers.iter().any(|w| w.budget_exhausted)
    }

    /// Number of walkers stopped by a degradation (transient fault,
    /// exhausted retries, open breaker).
    pub fn degraded_walkers(&self) -> usize {
        self.walkers.iter().filter(|w| w.degraded.is_some()).count()
    }

    /// The accepted-sample multiset as a sorted node list — convenient for
    /// comparing runs at different thread counts.
    pub fn sorted_nodes(&self) -> Vec<NodeId> {
        let mut nodes = self.nodes();
        nodes.sort_unstable();
        nodes
    }
}
