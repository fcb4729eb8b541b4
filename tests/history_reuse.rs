//! Acceptance bar of cross-job walk-history reuse (the service-scoped
//! `HistoryStore`), property-style over seeded request streams:
//!
//! * with an **empty store**, `SharedReadOnly` jobs reproduce the exact
//!   multisets of `Isolated` jobs (and of direct engine runs) — opting in
//!   costs nothing until something has been published;
//! * results under shared policies are **deterministic given an admission
//!   order**: replaying a publish-then-reuse schedule reproduces every
//!   multiset, and the published history is what makes the reusing run
//!   differ from its isolated twin;
//! * the **snapshot-on-admit epoch rule**: jobs admitted in the same epoch
//!   are unaffected by each other's (later) publications;
//! * a second identical job admitted after the first publishes shows
//!   **measurable reuse savings** in `ServiceMetricsSnapshot.history`.

use walk_not_wait::graph::generators::random::barabasi_albert;
use walk_not_wait::graph::NodeId;
use walk_not_wait::prelude::*;

fn osn(seed: u64) -> SimulatedOsn {
    SimulatedOsn::new(barabasi_albert(600, 3, seed).unwrap())
}

fn service(paused: bool) -> SamplingService<SimulatedOsn> {
    let builder = SamplingService::builder(osn(7)).pool_threads(2);
    if paused {
        builder.start_paused().build()
    } else {
        builder.build()
    }
}

fn we_job(samples: usize, seed: u64) -> SampleJob {
    SampleJob::walk_estimate(RandomWalkKind::Simple, samples, seed)
        .with_walkers(3)
        .with_diameter_estimate(4)
}

fn run_one(
    service: &SamplingService<SimulatedOsn>,
    job: SampleJob,
    policy: HistoryPolicy,
) -> Vec<NodeId> {
    let ticket = service
        .submit(SampleRequest::new(job).with_history_policy(policy))
        .unwrap();
    let (samples, outcome) = ticket.stream.collect_all();
    assert_eq!(outcome.unwrap().status, JobStatus::Completed);
    let mut nodes: Vec<NodeId> = samples.iter().map(|s| s.node).collect();
    nodes.sort_unstable();
    nodes
}

/// Property: over a seeded stream of job shapes, a `SharedReadOnly` job on
/// a service whose store is still empty produces exactly the multiset of
/// the same request under `Isolated` — which in turn matches a direct
/// engine run of the same job.
#[test]
fn shared_read_only_on_an_empty_store_matches_isolated() {
    for (samples, seed) in [(12usize, 0xE1u64), (21, 0xE2), (9, 0xE3)] {
        let isolated = run_one(
            &service(false),
            we_job(samples, seed),
            HistoryPolicy::Isolated,
        );

        let svc = service(false);
        let shared = run_one(&svc, we_job(samples, seed), HistoryPolicy::SharedReadOnly);
        assert_eq!(
            isolated, shared,
            "empty-store SharedReadOnly must equal Isolated for ({samples}, {seed:#x})"
        );
        let stats = svc.history_stats();
        assert_eq!(stats.misses, 1, "the read policy consulted the store");
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.publications, 0, "read-only jobs never publish");
        assert_eq!(stats.epoch, 0);

        let network = osn(7);
        let report = Engine::with_threads(2)
            .run(&network, &we_job(samples, seed))
            .unwrap();
        assert_eq!(isolated, report.sorted_nodes());
    }
}

/// Determinism given an admission order: the schedule "A publishes, then C
/// reuses" reproduces identical multisets when replayed on a fresh
/// service — and the reused history is real: C's seeded multiset differs
/// from C's empty-store (isolated-equal) multiset.
#[test]
fn admission_order_determines_results_deterministically() {
    let publisher = || we_job(24, 0xA0);
    let reuser = || we_job(18, 0xC0);

    let run_schedule = || {
        let svc = service(false);
        // Publication completes (Done observed) before the reuser is
        // submitted, so the reuser's admission snapshot is epoch 1.
        let a = run_one(&svc, publisher(), HistoryPolicy::SharedPublish);
        let c = run_one(&svc, reuser(), HistoryPolicy::SharedReadOnly);
        let stats = svc.history_stats();
        assert_eq!(stats.publications, 1);
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.hits, 1, "the reuser found the published history");
        assert!(stats.published_walks > 0);
        (a, c)
    };

    let (a1, c1) = run_schedule();
    let (a2, c2) = run_schedule();
    assert_eq!(a1, a2, "publisher multiset must replay identically");
    assert_eq!(
        c1, c2,
        "reusing multiset must replay identically given the same admission order"
    );

    // The snapshot C was admitted with is what shapes its results: with no
    // prior publication the same request draws a different multiset.
    let c_unseeded = run_one(&service(false), reuser(), HistoryPolicy::SharedReadOnly);
    assert_ne!(
        c1, c_unseeded,
        "published history must actually influence the reusing job"
    );
}

/// Snapshot-on-admit: two shared jobs admitted together (same epoch, empty
/// store) cannot observe each other's publications — each reproduces its
/// isolated twin exactly, even though both ran concurrently and both
/// published at reap.
#[test]
fn jobs_admitted_in_the_same_epoch_do_not_couple() {
    let job_x = || we_job(16, 0x51);
    let job_y = || we_job(11, 0x52);
    let isolated_x = run_one(&service(false), job_x(), HistoryPolicy::Isolated);
    let isolated_y = run_one(&service(false), job_y(), HistoryPolicy::Isolated);

    // Paused service: both jobs are pending when the scheduler resumes, so
    // both are promoted — and snapshot the (empty) store — in the same
    // scheduling cycle, before either publishes.
    let svc = service(true);
    let tx = svc
        .submit(SampleRequest::new(job_x()).with_history_policy(HistoryPolicy::SharedPublish))
        .unwrap();
    let ty = svc
        .submit(SampleRequest::new(job_y()).with_history_policy(HistoryPolicy::SharedPublish))
        .unwrap();
    svc.resume();
    let (sx, ox) = tx.stream.collect_all();
    let (sy, oy) = ty.stream.collect_all();
    assert_eq!(ox.unwrap().status, JobStatus::Completed);
    assert_eq!(oy.unwrap().status, JobStatus::Completed);
    let sorted = |records: &[walk_not_wait::mcmc::sampler::SampleRecord]| {
        let mut nodes: Vec<NodeId> = records.iter().map(|r| r.node).collect();
        nodes.sort_unstable();
        nodes
    };
    assert_eq!(
        sorted(&sx),
        isolated_x,
        "same-epoch job X must stay isolated"
    );
    assert_eq!(
        sorted(&sy),
        isolated_y,
        "same-epoch job Y must stay isolated"
    );
    let stats = svc.history_stats();
    assert_eq!(stats.publications, 2, "both jobs published at reap");
    assert_eq!(stats.hits, 0, "the store was empty when both were admitted");
    assert_eq!(stats.misses, 2);
}

/// The acceptance criterion: a second identical job admitted after the
/// first publishes demonstrates measurable query savings, surfaced in
/// `ServiceMetricsSnapshot.history`.
#[test]
fn second_identical_job_reuses_history_and_records_savings() {
    let svc = service(false);
    let job = || we_job(30, 0x99);

    let first = svc
        .submit(SampleRequest::new(job()).with_history_policy(HistoryPolicy::SharedPublish))
        .unwrap();
    let first_outcome = first.stream.wait().unwrap();
    assert_eq!(first_outcome.status, JobStatus::Completed);
    assert!(first_outcome.query_cost > 0);
    let after_first = svc.metrics();
    assert_eq!(after_first.history.publications, 1);
    assert!(after_first.history.published_walks > 0);
    assert_eq!(after_first.history.reuse_savings, 0, "nothing reused yet");

    let second = svc
        .submit(SampleRequest::new(job()).with_history_policy(HistoryPolicy::SharedReadOnly))
        .unwrap();
    let second_outcome = second.stream.wait().unwrap();
    assert_eq!(second_outcome.status, JobStatus::Completed);
    assert_eq!(second_outcome.samples, 30);

    let metrics = svc.metrics();
    assert_eq!(metrics.history.hits, 1);
    assert_eq!(
        metrics.history.reused_walks, after_first.history.published_walks,
        "the second job inherited every published walk"
    );
    assert_eq!(
        metrics.history.reuse_savings, first_outcome.query_cost,
        "the savings are the queries the first job spent building the reused history"
    );
    assert!(
        metrics.history.reuse_savings > 0,
        "savings must be measurable"
    );
    assert_eq!(svc.history_stats(), metrics.history);
}

/// Golden pin of a reusing job: after a `SharedPublish` job, a
/// `SharedReadOnly` job streams exactly this `(node, attempts, query_cost)`
/// sequence and reports this query cost. The constants were recorded
/// before history reads became bulk, per-step reads and history maps moved
/// to the `NodeId` hasher, so they check that neither changed a single
/// count, selection probability or random draw.
#[test]
fn reusing_job_replays_its_recorded_sample_sequence() {
    const GOLDEN: [(u32, u32, u64); 12] = [
        (245, 1, 422),
        (100, 1, 424),
        (230, 1, 423),
        (12, 1, 424),
        (2, 3, 430),
        (75, 1, 427),
        (25, 6, 442),
        (1, 1, 433),
        (514, 1, 431),
        (12, 1, 443),
        (25, 1, 434),
        (140, 6, 447),
    ];
    const GOLDEN_QUERY_COST: u64 = 472;

    let svc = service(false);
    let _ = run_one(&svc, we_job(24, 0xA0), HistoryPolicy::SharedPublish);
    let ticket = svc
        .submit(
            SampleRequest::new(we_job(12, 0xC0)).with_history_policy(HistoryPolicy::SharedReadOnly),
        )
        .unwrap();
    let (samples, outcome) = ticket.stream.collect_all();
    let outcome = outcome.unwrap();
    assert_eq!(outcome.status, JobStatus::Completed);
    assert_eq!(
        svc.history_stats().hits,
        1,
        "the reader used the published history"
    );
    let sequence: Vec<(u32, u32, u64)> = samples
        .iter()
        .map(|s| (s.node.0, s.attempts, s.query_cost))
        .collect();
    assert_eq!(sequence, GOLDEN);
    assert_eq!(outcome.query_cost, GOLDEN_QUERY_COST);
}
