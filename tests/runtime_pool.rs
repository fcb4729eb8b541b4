//! Regression tests for the persistent round-barrier worker pool: the
//! zero-spawn guarantee (observable through [`PoolStats`]), the inline fast
//! path for width-1 and wound-down jobs, determinism of pool execution vs
//! the scoped-spawn dispatch it replaced, and the service-level round
//! accounting that ties every scheduler batch to exactly one pool round.

use std::sync::Arc;
use walk_not_wait::engine::{scatter_map, Engine, SampleJob};
use walk_not_wait::prelude::*;
use wnw_graph::generators::random::barabasi_albert;

fn osn(n: usize, seed: u64) -> SimulatedOsn {
    SimulatedOsn::new(barabasi_albert(n, 3, seed).unwrap())
}

/// A 1-walker job on a wide shared pool: every round has a single live
/// task, so every round takes the inline spawnless path — the parked
/// workers are never woken for it.
#[test]
fn width_one_jobs_never_touch_the_pool_workers() {
    let pool = Arc::new(WorkerPool::new(4));
    let engine = Engine::with_pool(Arc::clone(&pool));
    let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 8, 11)
        .with_walkers(1)
        .with_diameter_estimate(4);
    let report = engine.run(&osn(300, 7), &job).unwrap();
    assert_eq!(report.len(), 8);

    let stats = pool.stats();
    assert_eq!(stats.workers, 3, "width-4 pool spawned exactly 3 workers");
    assert_eq!(
        stats.rounds_dispatched, 0,
        "a 1-walker job must never fan out: {stats:?}"
    );
    assert_eq!(stats.worker_wakeups, 0, "no worker ever woke: {stats:?}");
    assert!(stats.spawnless_rounds > 0, "rounds ran inline: {stats:?}");
}

/// A multi-walker job whose walkers finish unevenly: once it winds down to
/// one live walker, the remaining rounds run inline — the inline draw path
/// stays spawn-free even mid-job on a wide pool.
#[test]
fn wound_down_jobs_draw_inline() {
    let pool = Arc::new(WorkerPool::new(4));
    let engine = Engine::with_pool(Arc::clone(&pool));
    // 4 walkers, 9 samples: quotas split 3/2/2/2, so after two rounds the
    // job winds down to walker 0 alone for its third sample.
    let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 9, 13)
        .with_walkers(4)
        .with_diameter_estimate(4);
    let report = engine.run(&osn(300, 9), &job).unwrap();
    assert_eq!(report.len(), 9);

    let stats = pool.stats();
    assert!(
        stats.rounds_dispatched >= 1,
        "full-width rounds fan out: {stats:?}"
    );
    assert!(
        stats.spawnless_rounds >= 1,
        "the wind-down round runs inline: {stats:?}"
    );
    assert!(
        stats.worker_wakeups <= stats.rounds_dispatched * stats.workers,
        "wakeups only for dispatched rounds: {stats:?}"
    );
}

/// The zero-spawn guarantee, made observable: the pool's worker count is
/// fixed at startup and never grows, no matter how many rounds — engine
/// jobs and scatter_map fan-outs alike — run on it.
#[test]
fn pool_never_spawns_after_startup() {
    let pool = Arc::new(WorkerPool::new(3));
    assert_eq!(pool.stats().workers, 2);

    let engine = Engine::with_pool(Arc::clone(&pool));
    let network = osn(400, 21);
    for seed in 0..4u64 {
        let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 12, seed)
            .with_walkers(4)
            .with_diameter_estimate(4);
        engine.run(&network, &job).unwrap();
    }
    let doubled = scatter_map(&pool, (0..100u64).collect(), |i, x| {
        assert_eq!(i as u64, x);
        x * 2
    });
    assert_eq!(doubled.len(), 100);

    let stats = pool.stats();
    assert_eq!(
        stats.workers, 2,
        "worker count constant after {} dispatched + {} inline rounds",
        stats.rounds_dispatched, stats.spawnless_rounds
    );
    assert!(stats.rounds_dispatched > 0);
}

/// Determinism across dispatchers: the same items produce bit-identical
/// results under (a) a plain sequential loop, (b) the scoped-spawn dispatch
/// the pool replaced (reconstructed here), and (c) `scatter_map` on pools
/// of several widths.
#[test]
fn pool_execution_matches_scoped_spawn_dispatch() {
    fn work(i: usize, x: u64) -> u64 {
        // A deterministic per-item mix, order-sensitive in its inputs.
        let mut v = x ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for _ in 0..50 {
            v ^= v << 13;
            v ^= v >> 7;
            v ^= v << 17;
        }
        v
    }

    let items: Vec<u64> = (0..61).map(|i| i * 37 + 5).collect();
    let sequential: Vec<u64> = items.iter().enumerate().map(|(i, &x)| work(i, x)).collect();

    // The pre-pool dispatch: round-robin buckets, one scoped thread each.
    let scoped = {
        let threads = 4;
        let mut buckets: Vec<Vec<(usize, u64)>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, &item) in items.iter().enumerate() {
            buckets[i % threads].push((i, item));
        }
        let mut slots: Vec<Option<u64>> = vec![None; items.len()];
        std::thread::scope(|scope| {
            let handles: Vec<_> = buckets
                .into_iter()
                .map(|bucket| {
                    scope.spawn(move || {
                        bucket
                            .into_iter()
                            .map(|(i, x)| (i, work(i, x)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                for (i, result) in handle.join().unwrap() {
                    slots[i] = Some(result);
                }
            }
        });
        slots.into_iter().map(Option::unwrap).collect::<Vec<u64>>()
    };
    assert_eq!(scoped, sequential, "scoped-spawn reference self-check");

    for width in [1, 2, 4, 8] {
        let pool = WorkerPool::new(width);
        let pooled = scatter_map(&pool, items.clone(), work);
        assert_eq!(
            pooled, scoped,
            "WorkerPool width {width} diverged from scoped-spawn dispatch"
        );
    }
}

/// Determinism at the engine level: one job's accepted-sample multiset is
/// identical on the inline width-1 path (the sequential baseline the old
/// scoped-spawn dispatch was proven equal to) and on wide pools.
#[test]
fn engine_multisets_invariant_to_pool_width() {
    let network = osn(400, 33);
    let job = SampleJob::walk_estimate(RandomWalkKind::MetropolisHastings, 24, 77)
        .with_walkers(5)
        .with_diameter_estimate(4);
    let baseline = Engine::with_threads(1).run(&network, &job).unwrap();
    for width in [2, 4, 8] {
        let report = Engine::with_threads(width).run(&network, &job).unwrap();
        assert_eq!(
            baseline.sorted_nodes(),
            report.sorted_nodes(),
            "pool width {width} changed the sample multiset"
        );
    }
}

/// Service-level accounting: every scheduler batch lands on the shared pool
/// exactly once — dispatched or spawnless — and the snapshot surfaces the
/// counters. With one active job a batch is one of its rounds, so the pool
/// counters add up to the jobs' round totals. Co-admitted jobs share
/// batches (one wave steps each of them by a round), so the counters add up
/// to the waves run — the round-duration histogram's count, one sample per
/// batch — which is then fewer than the jobs' rounds.
#[test]
fn service_rounds_reconcile_with_pool_counters() {
    let wide_job = || {
        SampleRequest::new(
            walk_not_wait::engine::SampleJob::walk_estimate(RandomWalkKind::Simple, 20, 1)
                .with_walkers(4)
                .with_diameter_estimate(4),
        )
    };
    let narrow_job = || {
        SampleRequest::new(
            walk_not_wait::engine::SampleJob::walk_estimate(RandomWalkKind::Simple, 6, 2)
                .with_walkers(1)
                .with_diameter_estimate(4),
        )
    };

    // One active job at a time: one batch per job-round.
    let service = SamplingService::builder(osn(500, 41))
        .pool_threads(2)
        .max_active(1)
        .build();
    let wide = service.submit(wide_job()).unwrap();
    let narrow = service.submit(narrow_job()).unwrap();
    let wide_outcome = wide.stream.wait().expect("wide job completes");
    let narrow_outcome = narrow.stream.wait().expect("narrow job completes");
    assert_eq!(wide_outcome.samples, 20);
    assert_eq!(narrow_outcome.samples, 6);
    let solo_rounds = (wide_outcome.rounds + narrow_outcome.rounds) as u64;
    let metrics = service.shutdown();
    let pool = metrics.worker_pool;
    assert_eq!(pool.workers, 1, "pool_threads(2) spawned one worker");
    assert_eq!(
        pool.rounds_dispatched + pool.spawnless_rounds,
        solo_rounds,
        "every scheduled round hit the pool exactly once: {pool:?}"
    );
    assert_eq!(metrics.round_duration_histogram.count, solo_rounds);
    assert!(
        pool.spawnless_rounds >= narrow_outcome.rounds as u64,
        "the 1-walker job's rounds all ran inline: {pool:?}"
    );
    assert!(pool.rounds_dispatched > 0, "the 4-walker job fanned out");

    // Both jobs admitted in the same cycle: they share waves.
    let service = SamplingService::builder(osn(500, 41))
        .pool_threads(2)
        .max_active(2)
        .start_paused()
        .build();
    let wide = service.submit(wide_job()).unwrap();
    let narrow = service.submit(narrow_job()).unwrap();
    service.resume();
    let wide_outcome = wide.stream.wait().expect("wide job completes");
    let narrow_outcome = narrow.stream.wait().expect("narrow job completes");
    assert_eq!(wide_outcome.samples, 20);
    assert_eq!(narrow_outcome.samples, 6);
    assert_eq!(
        (wide_outcome.rounds + narrow_outcome.rounds) as u64,
        solo_rounds,
        "batching re-times rounds, it never adds or drops one"
    );
    let metrics = service.shutdown();
    let pool = metrics.worker_pool;
    let waves = metrics.round_duration_histogram.count;
    assert_eq!(
        pool.rounds_dispatched + pool.spawnless_rounds,
        waves,
        "every wave hit the pool exactly once: {pool:?}"
    );
    assert!(
        waves < solo_rounds,
        "co-admitted jobs shared waves: {waves} batches for {solo_rounds} rounds"
    );
}
