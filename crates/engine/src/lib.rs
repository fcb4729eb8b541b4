//! # wnw-engine — the concurrent, cache-sharing sampling engine
//!
//! WALK-ESTIMATE is embarrassingly parallel: every accepted sample comes
//! from an independent short forward walk plus backward-walk probability
//! estimation. This crate turns that observation into a production shape —
//! a pool of walkers running concurrently against **one** shared network
//! handle, with the two kinds of state worth sharing made concurrency-safe:
//!
//! * **neighbor lists** — a sharded, lock-striped
//!   [`CachedNetwork`](wnw_access::CachedNetwork) means no walker ever
//!   re-pays the query cost for a node *any* walker has fetched;
//! * **forward-walk history** — a lock-striped
//!   [`SharedWalkHistory`](wnw_core::SharedWalkHistory) lets every walker's
//!   weighted backward sampling (Algorithm 2) profit from everyone's walks.
//!
//! Reproducibility is a first-class requirement: a [`SampleJob`] fans out
//! over *virtual walkers* with per-walker RNG streams (`seed ⊕ walker_id`)
//! and a round-barrier schedule, so for a fixed seed the accepted-sample
//! multiset is identical at any thread count (see [`engine`] for the
//! argument). Query budgets are split across walkers and enforced against
//! per-walker [`MeteredNetwork`](wnw_access::MeteredNetwork) views for the
//! same reason. A walker's whole access stack is that one view over the
//! cache handle: the job's start node is a sampler argument
//! ([`SampleJob::resolve_start`]), and the job's query cost is a ledger the
//! views share and the [`JobDriver`] owns ([`JobDriver::query_cost`]).
//!
//! ```
//! use wnw_access::SimulatedOsn;
//! use wnw_engine::{Engine, SampleJob};
//! use wnw_graph::generators::random::barabasi_albert;
//! use wnw_mcmc::RandomWalkKind;
//!
//! let osn = SimulatedOsn::new(barabasi_albert(500, 3, 7).unwrap());
//! let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 24, 42)
//!     .with_walkers(4)
//!     .with_diameter_estimate(5);
//! let report = Engine::with_threads(2).run(&osn, &job).unwrap();
//! assert_eq!(report.len(), 24);
//! // The pool's query cost counts each node once, however many walkers
//! // touched it.
//! assert!(report.query_cost() <= report.uncached_query_cost());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod engine;
pub mod job;
pub mod parallel;
pub mod report;
pub mod reuse;

pub use driver::JobDriver;
pub use engine::{Engine, RunError};
pub use job::{InvalidJob, SampleJob, SamplerSpec, MAX_WALKERS_PER_JOB};
pub use parallel::scatter_map;
pub use report::{JobReport, WalkerReport};
pub use reuse::{history_key_of, HistoryPolicy};
// The cross-job history-store types, re-exported so service/gateway code can
// name them without depending on `wnw-core` directly.
pub use wnw_core::history::{FrozenHistory, HistoryKey, HistoryStore, HistoryStoreStats};
// Round execution runs on the persistent pool of `wnw-runtime`; re-exported
// so engine users need not name that crate.
pub use wnw_runtime::{PoolStats, WorkerPool};

#[cfg(test)]
mod tests {
    use super::*;
    use wnw_access::SimulatedOsn;
    use wnw_access::SocialNetwork;
    use wnw_graph::generators::random::barabasi_albert;
    use wnw_mcmc::RandomWalkKind;

    fn osn(n: usize, seed: u64) -> SimulatedOsn {
        SimulatedOsn::new(barabasi_albert(n, 3, seed).unwrap())
    }

    #[test]
    fn collects_requested_samples_across_walkers() {
        let osn = osn(300, 1);
        let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 22, 5)
            .with_walkers(5)
            .with_diameter_estimate(4);
        let report = Engine::with_threads(2).run(&osn, &job).unwrap();
        assert_eq!(report.len(), 22);
        assert_eq!(report.walkers.len(), 5);
        let per_walker: Vec<usize> = report.walkers.iter().map(|w| w.samples.len()).collect();
        assert_eq!(per_walker, vec![5, 5, 4, 4, 4]);
        assert!(report.query_cost() > 0);
        assert!(!report.budget_exhausted());
    }

    #[test]
    fn invalid_jobs_are_refused_before_any_walker_runs() {
        let osn = osn(100, 1);
        let huge = SampleJob::walk_estimate(RandomWalkKind::Simple, 5, 1).with_walkers(usize::MAX);
        assert_eq!(
            Engine::with_threads(1).run(&osn, &huge).unwrap_err(),
            RunError::Invalid(InvalidJob::TooManyWalkers)
        );
        let long = SampleJob::walk_estimate(RandomWalkKind::Simple, 5, 1)
            .with_diameter_estimate(usize::MAX);
        assert_eq!(
            Engine::with_threads(1).run(&osn, &long).unwrap_err(),
            RunError::Invalid(InvalidJob::DiameterTooLarge)
        );
        assert_eq!(osn.query_stats().api_calls, 0, "no walker issued a query");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let osn = osn(400, 3);
        let job = SampleJob::walk_estimate(RandomWalkKind::MetropolisHastings, 30, 99)
            .with_walkers(6)
            .with_diameter_estimate(4);
        let runs: Vec<JobReport> = [1usize, 2, 8]
            .iter()
            .map(|&t| {
                osn.reset_counters();
                Engine::with_threads(t).run(&osn, &job).unwrap()
            })
            .collect();
        // Identical per-walker sample sequences — stronger than multiset
        // equality.
        for later in &runs[1..] {
            for (a, b) in runs[0].walkers.iter().zip(&later.walkers) {
                assert_eq!(a.samples, b.samples, "walker {} diverged", a.walker);
                assert_eq!(a.stats, b.stats, "walker {} stats diverged", a.walker);
            }
            assert_eq!(runs[0].sorted_nodes(), later.sorted_nodes());
            assert_eq!(
                runs[0].pool_stats.unique_nodes,
                later.pool_stats.unique_nodes
            );
        }
    }

    #[test]
    fn cooperative_history_is_deterministic_too() {
        // Same check, explicitly on the cooperative (shared-history) path
        // with the full WE variant, which reads the shared snapshot.
        let osn = osn(250, 11);
        let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 18, 7)
            .with_walkers(3)
            .with_diameter_estimate(4);
        osn.reset_counters();
        let one = Engine::with_threads(1).run(&osn, &job).unwrap();
        osn.reset_counters();
        let many = Engine::with_threads(8).run(&osn, &job).unwrap();
        assert_eq!(one.nodes(), many.nodes());
    }

    #[test]
    fn one_walker_on_shared_history_matches_sequential_sampler() {
        // One walker reads its own walks whether they sit in the shared
        // accumulator or its pending layer, so the engine must reproduce the
        // plain single-threaded WalkEstimateSampler exactly.
        use wnw_core::{WalkEstimateConfig, WalkEstimateSampler};
        use wnw_mcmc::collect_samples;

        let osn = osn(300, 17);
        for input in [RandomWalkKind::Simple, RandomWalkKind::MetropolisHastings] {
            let job = SampleJob::walk_estimate(input, 12, 123)
                .with_walkers(1)
                .with_diameter_estimate(4);
            assert!(job.spec.uses_shared_history());
            let report = Engine::with_threads(4).run(&osn, &job).unwrap();

            let reference_osn = osn.clone();
            reference_osn.reset_counters();
            let mut reference = WalkEstimateSampler::new(
                reference_osn,
                input,
                WalkEstimateConfig::default(),
                job.seed_of(0),
            )
            .with_diameter_estimate(4);
            let run = collect_samples(&mut reference, 12).unwrap();
            assert_eq!(report.nodes(), run.nodes(), "{input:?}");
        }
    }

    #[test]
    fn budget_splits_and_stops_walkers() {
        let osn = osn(600, 23);
        let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 10_000, 31)
            .with_walkers(4)
            .with_budget(240)
            .with_diameter_estimate(4);
        let report = Engine::with_threads(2).run(&osn, &job).unwrap();
        assert!(report.budget_exhausted());
        assert!(report.len() < 10_000);
        for w in &report.walkers {
            assert!(
                w.stats.unique_nodes <= 60,
                "walker {} overspent: {:?}",
                w.walker,
                w.stats
            );
        }
        // Determinism also holds for budgeted jobs.
        osn.reset_counters();
        let again = Engine::with_threads(8).run(&osn, &job).unwrap();
        assert_eq!(report.nodes(), again.nodes());
    }

    #[test]
    fn baseline_jobs_run_and_share_the_cache() {
        let osn = osn(300, 29);
        let job = SampleJob::baseline(RandomWalkKind::Simple, 8, 41).with_walkers(4);
        let report = Engine::with_threads(4).run(&osn, &job).unwrap();
        assert_eq!(report.len(), 8);
        // Walkers all start from the same seed node, so the shared cache
        // must have saved someone something.
        assert!(
            report.pool_stats.cache_hits > 0 || report.query_cost() <= report.uncached_query_cost()
        );
    }

    #[test]
    fn walker_panic_propagates_instead_of_deadlocking() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use wnw_access::counter::QueryStats;
        use wnw_access::{Result, SocialNetwork};
        use wnw_graph::NodeId;

        /// Answers normally until the fuse burns, then panics on every call.
        #[derive(Debug)]
        struct ExplodingNetwork {
            inner: SimulatedOsn,
            calls: AtomicU64,
            fuse: u64,
        }
        impl SocialNetwork for ExplodingNetwork {
            fn neighbors(&self, v: NodeId) -> Result<Vec<NodeId>> {
                if self.calls.fetch_add(1, Ordering::Relaxed) >= self.fuse {
                    panic!("network exploded");
                }
                self.inner.neighbors(v)
            }
            fn attribute(&self, name: &str, v: NodeId) -> Result<f64> {
                self.inner.attribute(name, v)
            }
            fn seed_node(&self) -> NodeId {
                self.inner.seed_node()
            }
            fn query_stats(&self) -> QueryStats {
                self.inner.query_stats()
            }
            fn reset_counters(&self) {
                self.inner.reset_counters()
            }
        }

        let network = ExplodingNetwork {
            inner: osn(200, 31),
            calls: AtomicU64::new(0),
            fuse: 50,
        };
        let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 40, 3)
            .with_walkers(4)
            .with_diameter_estimate(4);
        // The panic must reach the caller (not deadlock the barrier, not
        // get swallowed into an Ok report).
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = Engine::with_threads(4).run(&network, &job);
        }));
        let payload = caught.expect_err("walker panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            message.contains("network exploded"),
            "unexpected payload: {message}"
        );
    }

    #[test]
    fn shared_cache_never_costs_more_than_independent_walkers() {
        let osn = osn(500, 37);
        let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 40, 53)
            .with_walkers(8)
            .with_diameter_estimate(4);
        let report = Engine::with_threads(8).run(&osn, &job).unwrap();
        assert!(
            report.query_cost() <= report.uncached_query_cost(),
            "pool cost {} must not exceed sum of walker costs {}",
            report.query_cost(),
            report.uncached_query_cost()
        );
        assert!(
            report.pool_stats.cache_hits > 0,
            "walkers should ride on each other's queries"
        );
    }
}
