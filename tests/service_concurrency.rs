//! Acceptance bar of the `wnw-service` subsystem, through the facade crate:
//!
//! * per-request accepted-sample multisets are identical at any pool thread
//!   count and regardless of which other jobs are co-running (and match a
//!   direct `Engine::run` of the same job);
//! * a `SampleStream` yields every sample before `Done`, with monotone
//!   progress snapshots whose final totals equal the outcome's;
//! * N concurrent jobs through one service pay a lower aggregate
//!   unique-query cost than the sum of the same jobs run in isolation
//!   (cross-job shared cache);
//! * mid-job cancellation releases the job's walker slots and refunds its
//!   unused budget;
//! * a high-priority small job finishes before a low-priority large one
//!   submitted earlier.

use std::collections::BTreeMap;
use walk_not_wait::graph::generators::random::barabasi_albert;
use walk_not_wait::graph::NodeId;
use walk_not_wait::prelude::*;
use walk_not_wait::service::Priority;

fn osn(n: usize, seed: u64) -> SimulatedOsn {
    SimulatedOsn::new(barabasi_albert(n, 3, seed).unwrap())
}

fn we_job(samples: usize, walkers: usize, seed: u64) -> SampleJob {
    SampleJob::walk_estimate(RandomWalkKind::Simple, samples, seed)
        .with_walkers(walkers)
        .with_diameter_estimate(5)
}

fn sorted_nodes(samples: &[walk_not_wait::mcmc::sampler::SampleRecord]) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = samples.iter().map(|s| s.node).collect();
    nodes.sort_unstable();
    nodes
}

/// The request mix used by the determinism load test: different sampler
/// kinds, sizes, seeds, and one budgeted job.
fn request_mix() -> Vec<SampleRequest> {
    vec![
        SampleRequest::new(we_job(24, 4, 0xA1)),
        SampleRequest::new(we_job(10, 2, 0xB2)).with_priority(Priority::High),
        SampleRequest::new(
            SampleJob::walk_estimate(RandomWalkKind::MetropolisHastings, 16, 0xC3)
                .with_walkers(3)
                .with_diameter_estimate(5),
        ),
        SampleRequest::new(we_job(4000, 4, 0xD4).with_budget(300)).with_priority(Priority::Low),
    ]
}

/// Runs the whole mix on a fresh service with `threads` pool threads and
/// returns each request's sorted accepted-sample multiset.
fn run_mix(threads: usize) -> Vec<Vec<NodeId>> {
    let service = SamplingService::builder(osn(1_000, 7))
        .pool_threads(threads)
        .start_paused()
        .build();
    let tickets: Vec<_> = request_mix()
        .into_iter()
        .map(|request| service.submit(request).unwrap())
        .collect();
    service.resume();
    tickets
        .into_iter()
        .map(|t| {
            let (samples, outcome) = t.stream.collect_all();
            assert!(outcome.is_some());
            sorted_nodes(&samples)
        })
        .collect()
}

/// (a) The load test: same request set, thread counts 1/2/8 — every
/// request's multiset is identical, co-load changes nothing, and each
/// matches the engine running the same job alone on a fresh network.
#[test]
fn per_request_multisets_survive_thread_count_and_coload() {
    let reference = run_mix(1);
    for threads in [2usize, 8] {
        assert_eq!(
            reference,
            run_mix(threads),
            "request multisets diverged at {threads} pool threads"
        );
    }

    // Each request solo on its own service: co-load must not matter.
    for (i, request) in request_mix().into_iter().enumerate() {
        let service = SamplingService::builder(osn(1_000, 7))
            .pool_threads(2)
            .build();
        let (samples, _) = service.submit(request).unwrap().stream.collect_all();
        assert_eq!(
            reference[i],
            sorted_nodes(&samples),
            "request {i} diverged when run without co-load"
        );
    }

    // And each matches a direct Engine::run of the same job.
    for (i, request) in request_mix().into_iter().enumerate() {
        let network = osn(1_000, 7);
        let report = Engine::with_threads(2).run(&network, &request.job).unwrap();
        assert_eq!(
            reference[i],
            report.sorted_nodes(),
            "request {i} diverged from a direct engine run"
        );
    }
}

/// (b) Stream protocol: every sample precedes Done, progress is monotone,
/// and the final progress totals equal the outcome's.
#[test]
fn stream_yields_every_sample_before_done_with_monotone_progress() {
    let service = SamplingService::builder(osn(600, 11))
        .pool_threads(2)
        .build();
    let ticket = service
        .submit(SampleRequest::new(we_job(30, 3, 0xE5)))
        .unwrap();

    let mut samples_seen = 0usize;
    let mut last_progress: Option<walk_not_wait::service::ProgressUpdate> = None;
    let mut outcome = None;
    let mut per_walker: BTreeMap<usize, usize> = BTreeMap::new();
    for event in ticket.stream {
        match event {
            SampleEvent::Sample { walker, .. } => {
                assert!(outcome.is_none(), "sample delivered after Done");
                samples_seen += 1;
                *per_walker.entry(walker).or_default() += 1;
            }
            SampleEvent::Progress(update) => {
                assert!(outcome.is_none(), "progress delivered after Done");
                assert_eq!(
                    update.samples, samples_seen,
                    "progress must count exactly the samples already streamed"
                );
                if let Some(previous) = &last_progress {
                    assert!(update.samples >= previous.samples);
                    assert_eq!(update.rounds, previous.rounds + 1);
                    assert!(update.budget_consumed >= previous.budget_consumed);
                    assert!(update.query_cost >= previous.query_cost);
                }
                assert_eq!(update.requested, 30);
                last_progress = Some(update);
            }
            SampleEvent::Done(done) => outcome = Some(done),
        }
    }
    let outcome = outcome.expect("stream must end with Done");
    let last = last_progress.expect("at least one progress event");
    assert_eq!(samples_seen, 30, "every sample arrives before Done");
    assert_eq!(outcome.samples, 30);
    assert_eq!(last.samples, outcome.samples);
    assert_eq!(last.rounds, outcome.rounds);
    assert_eq!(last.budget_consumed, outcome.budget_consumed);
    assert_eq!(last.query_cost, outcome.query_cost);
    assert_eq!(last.live_walkers, 0);
    assert_eq!(per_walker.len(), 3, "all three walkers contributed");
}

/// (c) Shared-cache economics: N concurrent jobs through one service cost
/// less, in aggregate unique-node queries, than the same jobs isolated
/// (what `examples/sampling_service.rs` prints).
#[test]
fn concurrent_jobs_cost_less_than_isolated_runs() {
    let jobs: Vec<SampleJob> = (0..4).map(|i| we_job(25, 4, 0xF0 + i)).collect();

    // Isolated: each job on a fresh engine + fresh cache.
    let isolated_total: u64 = jobs
        .iter()
        .map(|job| {
            let network = osn(2_000, 13);
            Engine::with_threads(2)
                .run(&network, job)
                .unwrap()
                .query_cost()
        })
        .sum();

    // Concurrent: all jobs through one service sharing one cache.
    let service = SamplingService::builder(osn(2_000, 13))
        .pool_threads(2)
        .build();
    let tickets: Vec<_> = jobs
        .iter()
        .map(|job| service.submit(SampleRequest::new(job.clone())).unwrap())
        .collect();
    let outcomes: Vec<JobOutcome> = tickets
        .into_iter()
        .map(|t| t.stream.wait().unwrap())
        .collect();
    let metrics = service.shutdown();

    // Every job's own view matches its isolated cost...
    let per_job_total: u64 = outcomes.iter().map(|o| o.query_cost).sum();
    assert_eq!(
        metrics.isolated_query_cost, per_job_total,
        "metrics must aggregate per-job costs"
    );
    assert_eq!(per_job_total, isolated_total);
    // ...but the pool paid strictly less than their sum.
    assert!(
        metrics.aggregate_query_cost < isolated_total,
        "shared cache must save queries: pool paid {}, isolated sum {}",
        metrics.aggregate_query_cost,
        isolated_total
    );
    assert_eq!(
        metrics.shared_cache_savings(),
        isolated_total - metrics.aggregate_query_cost
    );
}

/// Cancelling a running job releases its walker slots (the service drains
/// and other jobs finish) and refunds its unused budget.
#[test]
fn cancellation_releases_slots_and_refunds_budget() {
    let service = SamplingService::builder(osn(800, 17))
        .pool_threads(2)
        .start_paused()
        .build();
    let mut huge = service
        .submit(
            SampleRequest::new(we_job(1_000_000, 4, 0x11).with_budget(10_000))
                .with_priority(Priority::High),
        )
        .unwrap();
    let small = service
        .submit(SampleRequest::new(we_job(8, 2, 0x22)).with_priority(Priority::Low))
        .unwrap();
    service.resume();

    // Let the huge job make some progress, then cancel it mid-flight.
    let mut progressed = false;
    for event in huge.stream.by_ref() {
        if let SampleEvent::Progress(update) = &event {
            if update.samples > 0 {
                progressed = true;
                huge.handle.cancel();
                break;
            }
        }
    }
    assert!(progressed);
    let huge_outcome = huge.stream.wait().expect("cancelled job still sends Done");
    assert_eq!(huge_outcome.status, JobStatus::Cancelled);
    assert!(huge_outcome.samples > 0, "delivered samples are kept");
    assert!(
        huge_outcome.budget_refunded > 0,
        "unused budget must be refunded"
    );
    assert_eq!(
        huge_outcome.budget_consumed + huge_outcome.budget_refunded,
        10_000,
        "consumed + refunded covers the whole budget"
    );

    // The walker slots are free again: the small job completes normally.
    let small_outcome = small.stream.wait().unwrap();
    assert_eq!(small_outcome.status, JobStatus::Completed);
    assert_eq!(small_outcome.samples, 8);

    let metrics = service.shutdown();
    assert_eq!(metrics.jobs_cancelled, 1);
    assert_eq!(metrics.jobs_completed, 1);
    assert_eq!(metrics.jobs_running, 0);
    assert_eq!(metrics.budget_refunded, huge_outcome.budget_refunded);
}

/// Dropping a `SampleStream` mid-job (the consumer hanging up, which is
/// also what the HTTP gateway does when a client's connection dies) must
/// release the job's walker slots and refund its unused budget —
/// `tests/http_gateway.rs` asserts the identical behavior through the HTTP
/// path.
#[test]
fn dropping_the_stream_mid_job_frees_slots_and_refunds_budget() {
    let service = SamplingService::builder(osn(800, 23))
        .pool_threads(1)
        .max_active(1)
        .start_paused()
        .build();
    // The doomed job holds the single active slot; the follower can only
    // run once the hang-up releases it.
    let mut doomed = service
        .submit(SampleRequest::new(
            we_job(1_000_000, 4, 0x41).with_budget(50_000),
        ))
        .unwrap();
    let follower = service
        .submit(SampleRequest::new(we_job(6, 2, 0x42)))
        .unwrap();
    service.resume();

    // Consume a few samples, then hang up mid-stream.
    let mut streamed = 0usize;
    for event in doomed.stream.by_ref() {
        if let SampleEvent::Sample { .. } = event {
            streamed += 1;
            if streamed >= 3 {
                break;
            }
        }
    }
    assert_eq!(streamed, 3, "the job was mid-flight when we hung up");
    drop(doomed.stream);

    // The walker slots are released: the follower completes normally.
    let follower_outcome = follower.stream.wait().expect("follower reaches Done");
    assert_eq!(follower_outcome.status, JobStatus::Completed);
    assert_eq!(follower_outcome.samples, 6);
    assert!(
        follower_outcome.queue_wait >= std::time::Duration::ZERO
            && follower_outcome.queue_wait <= follower_outcome.latency,
        "queue wait is the scheduling share of the total latency"
    );

    let metrics = service.shutdown();
    assert_eq!(metrics.jobs_cancelled, 1, "hang-up cancels the job");
    assert_eq!(metrics.jobs_completed, 1);
    assert_eq!(metrics.jobs_running, 0);
    assert!(
        metrics.budget_refunded > 0,
        "the dropped job's unused budget must be refunded"
    );
    // Budgets are charged per walker view; even if all 4 walkers touched
    // every one of the 800 nodes, most of the 50k budget is unspent.
    assert!(metrics.budget_refunded >= 50_000 - 4 * 800);
    assert_eq!(metrics.jobs_started, 2, "both jobs left the queue");
    assert!(metrics.max_queue_wait >= metrics.mean_queue_wait);
}

/// Pins the promotion order of the scheduler's priority-indexed pending
/// queue: highest priority first, FIFO within a priority, and every 4th
/// promotion aged (taking the globally oldest submission regardless of
/// priority). With one active slot the jobs run — and therefore finish —
/// exactly in promotion order, so `finish_index` exposes the policy.
///
/// Hand-computed for priorities [L, L, N, H, N, H, L, N] (submission order
/// 0..8): promotions pick 3, 5, 2, then aged 0, then 4, 7, 1, then aged 6.
/// This is the regression test for the O(pending)-scan → indexed-bucket
/// replacement: any behavioral drift in the new queue changes this order.
#[test]
fn promotion_order_is_priority_fifo_with_aging() {
    use walk_not_wait::service::Priority::{High, Low, Normal};
    let priorities = [Low, Low, Normal, High, Normal, High, Low, Normal];
    let expected_order = [3usize, 5, 2, 0, 4, 7, 1, 6];

    let service = SamplingService::builder(osn(400, 29))
        .pool_threads(1)
        .max_active(1)
        .max_in_flight(16)
        .start_paused()
        .build();
    let tickets: Vec<_> = priorities
        .iter()
        .enumerate()
        .map(|(i, &priority)| {
            service
                .submit(SampleRequest::new(we_job(2, 1, 0x50 + i as u64)).with_priority(priority))
                .unwrap()
        })
        .collect();
    service.resume();

    let finish_indices: Vec<u64> = tickets
        .into_iter()
        .map(|t| {
            let outcome = t.stream.wait().unwrap();
            assert_eq!(outcome.status, JobStatus::Completed);
            outcome.finish_index
        })
        .collect();

    // Sort submissions by the order they finished; that is the promotion
    // order under a single active slot.
    let mut by_finish: Vec<usize> = (0..priorities.len()).collect();
    by_finish.sort_by_key(|&i| finish_indices[i]);
    assert_eq!(
        by_finish, expected_order,
        "promotion order drifted (finish indices: {finish_indices:?})"
    );
}

/// Priority-weighted fairness: a high-priority small job finishes before a
/// low-priority large job submitted earlier.
#[test]
fn high_priority_small_job_overtakes_earlier_large_job() {
    let service = SamplingService::builder(osn(900, 19))
        .pool_threads(2)
        .start_paused()
        .build();
    let large = service
        .submit(SampleRequest::new(we_job(120, 2, 0x31)).with_priority(Priority::Low))
        .unwrap();
    let small = service
        .submit(SampleRequest::new(we_job(8, 2, 0x32)).with_priority(Priority::High))
        .unwrap();
    service.resume();

    let small_outcome = small.stream.wait().unwrap();
    let large_outcome = large.stream.wait().unwrap();
    assert_eq!(small_outcome.status, JobStatus::Completed);
    assert_eq!(large_outcome.status, JobStatus::Completed);
    assert!(
        small_outcome.finish_index < large_outcome.finish_index,
        "high-priority job must finish first (small: {}, large: {})",
        small_outcome.finish_index,
        large_outcome.finish_index
    );
}

/// A network over two disjoint components whose fetch of one node in the
/// first component panics.
struct Landmine {
    inner: SimulatedOsn,
    mine: NodeId,
}

impl SocialNetwork for Landmine {
    fn neighbors(&self, v: NodeId) -> walk_not_wait::access::Result<Vec<NodeId>> {
        assert_ne!(v, self.mine, "stepped on the landmine");
        self.inner.neighbors(v)
    }
    fn attribute(&self, name: &str, v: NodeId) -> walk_not_wait::access::Result<f64> {
        self.inner.attribute(name, v)
    }
    fn seed_node(&self) -> NodeId {
        self.inner.seed_node()
    }
    fn query_stats(&self) -> walk_not_wait::access::QueryStats {
        self.inner.query_stats()
    }
    fn reset_counters(&self) {
        self.inner.reset_counters()
    }
}

/// Component A is nodes `0..300`, component B is `300..600`; the mine is a
/// neighbor of A's start node, so A's walkers reach it on their first steps.
const SECOND_COMPONENT: u32 = 300;
const A_START: NodeId = NodeId(7);

fn two_components() -> Landmine {
    let a = barabasi_albert(SECOND_COMPONENT as usize, 3, 5).unwrap();
    let b = barabasi_albert(SECOND_COMPONENT as usize, 3, 6).unwrap();
    let mut builder = GraphBuilder::new();
    for (u, v) in a.edges() {
        builder.add_edge(u, v);
    }
    for (u, v) in b.edges() {
        builder.add_edge(
            NodeId(u.0 + SECOND_COMPONENT),
            NodeId(v.0 + SECOND_COMPONENT),
        );
    }
    let mine = a.neighbors(A_START)[0];
    Landmine {
        inner: SimulatedOsn::new(builder.build()),
        mine,
    }
}

/// A job whose walkers panic shares its waves (one pool batch per round
/// across jobs) with a healthy job in the other component: the panic is
/// contained to its own job, which ends `Panicked`, while the healthy job
/// completes with the multiset it draws alone.
#[test]
fn a_panicking_job_does_not_disturb_its_batch_mates() {
    let doomed = || SampleRequest::new(we_job(20, 4, 0xF1).with_start_node(A_START));
    let healthy =
        || SampleRequest::new(we_job(24, 4, 0xF2).with_start_node(NodeId(SECOND_COMPONENT + 11)));

    let alone = SamplingService::builder(two_components())
        .pool_threads(2)
        .build();
    let (samples, outcome) = alone.submit(healthy()).unwrap().stream.collect_all();
    assert_eq!(outcome.unwrap().status, JobStatus::Completed);
    let reference = sorted_nodes(&samples);
    assert_eq!(reference.len(), 24);
    assert!(reference.iter().all(|v| v.0 >= SECOND_COMPONENT));

    let service = SamplingService::builder(two_components())
        .pool_threads(2)
        .max_active(2)
        .start_paused()
        .build();
    let a = service.submit(doomed()).unwrap();
    let b = service.submit(healthy()).unwrap();
    service.resume();
    let a_outcome = a.stream.wait().expect("the doomed job reports an outcome");
    match &a_outcome.status {
        JobStatus::Panicked(message) => assert!(
            message.contains("stepped on the landmine"),
            "unexpected panic message: {message}"
        ),
        other => panic!("expected Panicked, got {other:?}"),
    }
    let (samples, outcome) = b.stream.collect_all();
    assert_eq!(outcome.unwrap().status, JobStatus::Completed);
    assert_eq!(sorted_nodes(&samples), reference);
    assert!(
        a_outcome.rounds >= 1,
        "the doomed job ran at least one round alongside the healthy one"
    );
}
