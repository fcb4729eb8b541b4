//! The open-loop scenario driver: runs a [`WorkPlan`] against a live
//! gateway over real loopback sockets and reduces what every client saw
//! into a [`ScenarioReport`].
//!
//! [`WorkPlan`]: crate::scenario::WorkPlan
//!
//! Open-loop means every request starts at its *pre-scheduled* offset, no
//! matter how many earlier requests are still in flight. A saturated
//! service therefore sheds load or grows its queue-wait tail — it cannot
//! quietly slow the arrival stream down, which is exactly the failure
//! mode a closed-loop driver hides (coordinated omission). The requests
//! run as state machines on the crate's one-thread non-blocking
//! multiplexer, so thousands in flight cost sockets, not threads.

use crate::mux::{self, Client};
use crate::report::{LatencySummary, ScenarioReport, ServerSummary};
use crate::scenario::Scenario;
use crate::slo::Observed;
use std::io;
use std::net::SocketAddr;
use std::time::Duration;
use wnw_gateway::client;
use wnw_gateway::json::Json;

/// What one scripted client observed for its request.
#[derive(Debug, Clone, Default)]
pub struct Observation {
    /// The gateway answered the submit with `503`.
    pub shed: bool,
    /// The submit failed some other way (socket error, non-202).
    pub submit_error: bool,
    /// Terminal `done` status label, when a stream delivered one.
    pub status: Option<String>,
    /// The terminal event carried `degraded: true` — the resilience layer
    /// gave up on at least one of the job's walkers.
    pub degraded: bool,
    /// The stream errored or ended without a terminal event.
    pub stream_error: bool,
    /// Server-reported queue wait from the `done` event (ms).
    pub queue_wait_ms: Option<f64>,
    /// Dispatch → terminal event, client clock (ms).
    pub e2e_ms: Option<f64>,
    /// Dispatch → first `sample` event, client clock (ms).
    pub ttfs_ms: Option<f64>,
    /// Sample events this client received.
    pub samples: u64,
}

/// The raw result of driving one plan: per-request observations plus the
/// run's wall clock (first dispatch until the last stream drained).
#[derive(Debug)]
pub struct RunOutcome {
    /// One entry per planned request, in plan order.
    pub observations: Vec<Observation>,
    /// First dispatch → last stream drained.
    pub wall_clock: Duration,
}

/// Scrapes `/v1/metrics` and `/v1/metrics/prometheus` after a run drains
/// and cross-checks the two: the exposition must validate and its job
/// lifecycle counters must agree with the JSON document.
pub fn scrape_server(addr: SocketAddr) -> io::Result<ServerSummary> {
    let metrics = client::get(addr, "/v1/metrics")?
        .json()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("metrics JSON: {e}")))?;
    let counter = |key: &str| metrics.get(key).and_then(Json::as_u64).unwrap_or(0);
    let nested = |outer: &str, key: &str| {
        metrics
            .get(outer)
            .and_then(|o| o.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };

    let mut summary = ServerSummary {
        jobs_submitted: counter("jobs_submitted"),
        jobs_completed: counter("jobs_completed"),
        jobs_cancelled: counter("jobs_cancelled"),
        jobs_rejected: counter("jobs_rejected"),
        shared_cache_savings: counter("shared_cache_savings"),
        history_hits: nested("history", "hits"),
        history_reused_walks: nested("history", "reused_walks"),
        history_reuse_savings: nested("history", "reuse_savings"),
        budget_refunded: counter("budget_refunded"),
        jobs_degraded: counter("jobs_degraded"),
        walkers_degraded: counter("walkers_degraded"),
        resilience_retries: nested("resilience", "retries"),
        resilience_recovered: nested("resilience", "recovered"),
        breaker_opened: nested("resilience", "breaker_opened"),
        breaker_fast_fails: nested("resilience", "breaker_fast_fails"),
        prometheus_series: 0,
        prometheus_consistent: false,
    };

    let scrape = client::get(addr, "/v1/metrics/prometheus")?;
    let text = String::from_utf8_lossy(&scrape.body).into_owned();
    if let Ok(stats) = wnw_telemetry::prometheus::validate(&text) {
        summary.prometheus_series = stats.series as u64;
        let prom = |name: &str| prometheus_value(&text, name);
        // Counters are monotone and the run has drained, so the scrape
        // (taken after the JSON document) must agree exactly.
        summary.prometheus_consistent = prom("wnw_jobs_submitted_total")
            == Some(summary.jobs_submitted)
            && prom("wnw_jobs_completed_total") == Some(summary.jobs_completed)
            && prom("wnw_jobs_cancelled_total") == Some(summary.jobs_cancelled);
    }
    Ok(summary)
}

/// The value of an unlabelled sample line, as an integer.
fn prometheus_value(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse::<f64>().ok().map(|v| v as u64)
    })
}

/// Runs `scenario` against the gateway at `addr`: plan → open-loop drive →
/// server scrape → SLO verdict, reduced to the scenario's report row.
pub fn run_scenario_on(addr: SocketAddr, scenario: &Scenario) -> io::Result<ScenarioReport> {
    let plan = scenario.plan();
    let mut clients: Vec<Client> = plan.requests.iter().map(Client::scripted).collect();
    let wall_clock = mux::run(addr, &mut clients);
    let outcome = RunOutcome {
        observations: clients.into_iter().map(|c| c.obs).collect(),
        wall_clock,
    };
    let server = scrape_server(addr)?;
    Ok(summarize(scenario, plan.fingerprint(), &outcome, server))
}

/// Reduces a run to its report row and SLO verdict.
pub fn summarize(
    scenario: &Scenario,
    plan_fingerprint: u64,
    outcome: &RunOutcome,
    server: ServerSummary,
) -> ScenarioReport {
    let obs = &outcome.observations;
    let offered = obs.len();
    let shed = obs.iter().filter(|o| o.shed).count();
    let submit_errors = obs.iter().filter(|o| o.submit_error).count();
    let submitted = offered - shed - submit_errors;
    let status_count = |label: &str| {
        obs.iter()
            .filter(|o| o.status.as_deref() == Some(label))
            .count()
    };
    let completed = status_count("completed");
    let cancelled = status_count("cancelled");
    let failed = submitted - completed - cancelled;
    let degraded = obs.iter().filter(|o| o.degraded).count();
    // A *lost* job is the resilience layer's cardinal sin: the gateway
    // accepted it, but its client never saw a terminal event. Shed and
    // submit-failed requests were never accepted, so they don't count.
    let lost = obs
        .iter()
        .filter(|o| !o.shed && !o.submit_error && o.status.is_none())
        .count();

    let collect = |f: fn(&Observation) -> Option<f64>| {
        LatencySummary::from_ms(obs.iter().filter_map(f).collect())
    };
    let queue_wait_ms = collect(|o| o.queue_wait_ms);
    let e2e_ms = collect(|o| o.e2e_ms);
    let ttfs_ms = collect(|o| o.ttfs_ms);

    let wall_clock_s = outcome.wall_clock.as_secs_f64();
    let throughput_rps = if wall_clock_s > 0.0 {
        completed as f64 / wall_clock_s
    } else {
        0.0
    };
    let shed_rate = if offered > 0 {
        shed as f64 / offered as f64
    } else {
        0.0
    };

    // Empty series mean the SLO's latency bounds were never exercised —
    // that is a failure (NaN never passes), not a vacuous pass.
    let p99_or_nan = |s: &LatencySummary| if s.count == 0 { f64::NAN } else { s.p99 };
    let slo = scenario.slo.evaluate(&Observed {
        throughput_rps,
        shed_rate,
        queue_wait_p99_ms: p99_or_nan(&queue_wait_ms),
        e2e_p99_ms: p99_or_nan(&e2e_ms),
        ttfs_p99_ms: p99_or_nan(&ttfs_ms),
        degraded_rate: if submitted > 0 {
            degraded as f64 / submitted as f64
        } else {
            0.0
        },
        lost_jobs: lost as u64,
    });

    ScenarioReport {
        scenario: scenario.name.to_string(),
        plan_fingerprint,
        offered,
        submitted,
        shed,
        submit_errors,
        completed,
        cancelled,
        failed,
        degraded,
        lost,
        wall_clock_s,
        throughput_rps,
        shed_rate,
        samples_delivered: obs.iter().map(|o| o.samples).sum(),
        queue_wait_ms,
        e2e_ms,
        ttfs_ms,
        server,
        slo,
    }
}
