//! Acceptance bar of the `wnw-loadgen` workload-replay harness, at smoke
//! scale over real loopback sockets, on the testbed graph as the catalog
//! cache loads it:
//!
//! * a driven scenario produces a fully populated report — every offered
//!   request accounted for, client-side latency summaries present, the
//!   Prometheus scrape validated and consistent with `/v1/metrics`;
//! * a seeded rerun of the same scenario submits the identical job
//!   multiset (plan fingerprints match across independent expansions);
//! * the `hot_key` preset's Zipf-skewed start nodes concentrate work on
//!   the celebrity nodes, so cross-job history reuse shows real savings;
//! * the `churn` preset's mid-stream `DELETE`s and stalled readers cancel
//!   jobs without losing any, and the run still meets its SLO.

use walk_not_wait::loadgen::{scenario, testbed, Scale};

#[test]
fn steady_smoke_run_reports_and_meets_its_slo() {
    let steady = scenario::steady(Scale::Smoke);
    let report = testbed::run_scenario(&steady).expect("steady smoke run");

    // Every offered request is accounted for exactly once.
    assert_accounted(&report);
    assert!(report.completed > 0, "steady load must complete jobs");
    assert!(report.samples_delivered > 0);

    // The three latency series the SLO judges are populated, with sane
    // ordering (a job's first sample cannot arrive after its last event).
    for (name, summary) in [
        ("queue_wait", &report.queue_wait_ms),
        ("e2e", &report.e2e_ms),
        ("ttfs", &report.ttfs_ms),
    ] {
        assert!(summary.count > 0, "{name} summary must have observations");
        assert!(summary.p50 <= summary.p99 && summary.p99 <= summary.max);
    }
    assert!(report.ttfs_ms.p50 <= report.e2e_ms.max);

    // The server's view agrees with the client's, and the Prometheus
    // scrape cross-checks against the JSON metrics document.
    assert_eq!(report.server.jobs_submitted as usize, report.submitted);
    assert_eq!(report.server.jobs_completed as usize, report.completed);
    assert!(report.server.prometheus_series > 0);
    assert!(
        report.server.prometheus_consistent,
        "prometheus scrape must validate and agree with /v1/metrics"
    );

    // Five objectives, each judged.
    assert_eq!(report.slo.checks.len(), 5);
    assert!(
        report.slo.pass,
        "steady smoke must meet its SLO: {:?}",
        report.slo.checks
    );
}

/// The accounting identities every driven run must satisfy: each offered
/// request is submitted, shed, or failed to submit, and each submitted job
/// ends completed, cancelled, or failed.
fn assert_accounted(report: &walk_not_wait::loadgen::ScenarioReport) {
    assert!(report.offered > 0, "the plan must offer requests");
    assert_eq!(
        report.submitted + report.shed + report.submit_errors,
        report.offered
    );
    assert_eq!(
        report.completed + report.cancelled + report.failed,
        report.submitted
    );
}

#[test]
fn churn_smoke_run_cancels_and_stalls_without_losing_jobs() {
    // A scripted DELETE races its job's last round: a smoke job finishes
    // about half a millisecond after its first event, so a run cancels
    // only a few jobs and, rarely, none. Every run must stay whole; a
    // cancel must land within a few runs.
    const RUNS: usize = 4;
    let churn = scenario::churn(Scale::Smoke);
    let mut cancelled = 0;
    for _ in 0..RUNS {
        let report = testbed::run_scenario(&churn).expect("churn smoke run");
        assert_accounted(&report);
        assert_eq!(report.lost, 0, "every accepted job must reach `done`");
        assert!(
            report.slo.pass,
            "churn smoke must meet its SLO: {:?}",
            report.slo.checks
        );
        cancelled = report.cancelled;
        if cancelled > 0 {
            break;
        }
    }
    assert!(
        cancelled > 0,
        "scripted DELETEs cancelled no job in {RUNS} runs"
    );
}

#[test]
fn seeded_rerun_submits_the_identical_job_multiset() {
    for preset in scenario::presets(Scale::Smoke) {
        let first = preset.plan();
        let second = preset.plan();
        assert_eq!(
            first.fingerprint(),
            second.fingerprint(),
            "{}: rerun fingerprints diverged",
            preset.name
        );
        assert_eq!(first.requests, second.requests);
    }
    // And a driven run reports exactly the plan's fingerprint, so the
    // bench artifact alone proves which workload was replayed.
    let steady = scenario::steady(Scale::Smoke);
    let report = testbed::run_scenario(&steady).expect("steady smoke run");
    assert_eq!(report.plan_fingerprint, steady.plan().fingerprint());
}

#[test]
fn hot_key_skew_produces_cross_job_history_reuse() {
    let hot = scenario::hot_key(Scale::Smoke);
    let report = testbed::run_scenario(&hot).expect("hot_key smoke run");
    assert!(report.completed > 0);
    assert!(
        report.server.history_hits > 0,
        "Zipf-skewed shared_publish jobs must hit the shared walk history"
    );
    assert!(
        report.server.history_reuse_savings > 0,
        "history reuse must save real queries (got {:?})",
        report.server
    );
}
