//! Engine-level integration tests through the facade crate: same-seed
//! determinism across worker-thread counts, and exact query accounting on a
//! shared cache under contention.

use std::sync::Arc;
use walk_not_wait::access::{QueryCounter, QueryStats};
use walk_not_wait::graph::generators::random::barabasi_albert;
use walk_not_wait::graph::NodeId;
use walk_not_wait::prelude::*;

fn osn(n: usize, seed: u64) -> SimulatedOsn {
    SimulatedOsn::new(barabasi_albert(n, 3, seed).unwrap())
}

/// The acceptance bar of the engine: for a fixed seed, the accepted-sample
/// multiset of a job is identical at 1, 2, and 8 worker threads — with its
/// walkers sharing one history — and the pool's query cost never exceeds
/// what the same walkers would pay uncached.
#[test]
fn same_seed_same_samples_at_1_2_and_8_threads() {
    let network = osn(1_000, 5);
    let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 48, 0xD5)
        .with_walkers(8)
        .with_diameter_estimate(5);
    let mut reports = Vec::new();
    for threads in [1usize, 2, 8] {
        network.reset_counters();
        reports.push(Engine::with_threads(threads).run(&network, &job).unwrap());
    }
    let reference = &reports[0];
    assert_eq!(reference.len(), 48);
    for report in &reports[1..] {
        assert_eq!(
            reference.sorted_nodes(),
            report.sorted_nodes(),
            "multiset diverged"
        );
        // Even the per-walker sequences and metering agree.
        for (a, b) in reference.walkers.iter().zip(&report.walkers) {
            assert_eq!(a.samples, b.samples);
            assert_eq!(a.stats, b.stats);
        }
        assert_eq!(
            reference.pool_stats.unique_nodes,
            report.pool_stats.unique_nodes
        );
    }
    for report in &reports {
        assert!(report.query_cost() <= report.uncached_query_cost());
    }
}

/// 8 walkers hammering one `CachedNetwork`: `unique_nodes` must count every
/// node exactly once (no double-charging from racing misses, no lost
/// updates), and `api_calls` must account for every call.
#[test]
fn cache_stress_unique_nodes_is_exact() {
    let n = 1_000usize;
    let network = osn(n, 9);
    let cache = Arc::new(CachedNetwork::new(network));
    let sweeps = 4;
    std::thread::scope(|scope| {
        for walker in 0..8usize {
            let cache = Arc::clone(&cache);
            scope.spawn(move || {
                // Each walker sweeps the whole graph several times, starting
                // at a different offset so misses collide across threads.
                for sweep in 0..sweeps {
                    for i in 0..n {
                        let v = NodeId(((i * 7 + walker * 131 + sweep * 17) % n) as u32);
                        cache.neighbors(v).unwrap();
                    }
                }
            });
        }
    });
    let stats = cache.query_stats();
    assert_eq!(
        stats.unique_nodes, n as u64,
        "each node charged exactly once"
    );
    assert_eq!(
        stats.api_calls,
        (8 * sweeps * n) as u64,
        "every call accounted for"
    );
    assert_eq!(stats.api_calls - stats.cache_hits, stats.unique_nodes);
    // The wrapped network was consulted exactly once per node as well.
    assert_eq!(cache.inner().query_stats().unique_nodes, n as u64);
    assert_eq!(cache.inner().query_stats().api_calls, n as u64);
}

/// Per-walker metered views over one cache stay exact under contention,
/// and so does the one job ledger they all charge.
#[test]
fn metered_views_stay_exact_under_contention() {
    let n = 500usize;
    let network = osn(n, 13);
    let cache = CachedNetwork::new(network);
    let ledger = Arc::new(QueryCounter::unlimited());
    let per_walker: Vec<QueryStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8usize)
            .map(|walker| {
                let (cache, ledger) = (&cache, Arc::clone(&ledger));
                scope.spawn(move || {
                    let view = MeteredNetwork::new(cache, ledger);
                    for i in 0..n {
                        let v = NodeId(((i + walker * 61) % n) as u32);
                        view.neighbors(v).unwrap();
                    }
                    view.query_stats()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for stats in &per_walker {
        assert_eq!(stats.unique_nodes, n as u64);
        assert_eq!(stats.api_calls, n as u64);
    }
    assert_eq!(cache.query_stats().unique_nodes, n as u64);
    // Every view visited every node: the union is the graph, counted once.
    assert_eq!(ledger.query_cost(), n as u64);
}
