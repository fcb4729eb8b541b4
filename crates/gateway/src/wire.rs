//! Wire mapping between the gateway's JSON bodies and the service's
//! request/event/metrics types.
//!
//! The submit body mirrors [`SampleJob`] plus the service-level knobs of a
//! [`SampleRequest`]:
//!
//! ```json
//! {
//!   "sampler": "walk_estimate",        // | "many_short_runs" | "one_long_run"
//!   "input": "srw",                    // | "mhrw"
//!   "samples": 200,                    // required
//!   "seed": 42,                        // required (u64-exact)
//!   "walkers": 4,                      // optional
//!   "budget": 10000,                   // optional (unique-node queries)
//!   "diameter_estimate": 5,            // optional
//!   "start_node": 17,                  // optional (walks start here; default: the network's seed node)
//!   "history_policy": "isolated",      // | "shared_read" | "shared_publish"
//!   "priority": "normal",              // | "low" | "high"
//!   "deadline_ms": 30000               // optional
//! }
//! ```
//!
//! Events stream back as NDJSON, one object per line, discriminated by an
//! `"event"` field (`sample` / `progress` / `done`) — the JSON shadows of
//! [`SampleEvent`]'s variants.
//!
//! Both metrics documents, JSON and Prometheus, are loops over the one
//! metrics table, [`ServiceMetricsSnapshot::table`].

use crate::json::Json;
use std::time::Duration;
use wnw_engine::{SampleJob, SamplerSpec};
use wnw_mcmc::burn_in::BurnInConfig;
use wnw_mcmc::RandomWalkKind;
use wnw_service::{
    HistogramSnapshot, HistoryPolicy, JobOutcome, JobStatus, Priority, ProgressUpdate, SampleEvent,
    SampleRequest, ServiceMetricsSnapshot, TraceEvent, TraceEventKind,
};
use wnw_telemetry::prometheus::Exposition;
use wnw_telemetry::MetricValue;

/// Parses a submit body into a [`SampleRequest`]. Messages are phrased for
/// the remote client (they end up in a 400 response body).
pub fn sample_request_from_json(body: &Json) -> Result<SampleRequest, String> {
    let Json::Obj(fields) = body else {
        return Err("request body must be a JSON object".to_string());
    };
    for (key, _) in fields {
        if !matches!(
            key.as_str(),
            "sampler"
                | "input"
                | "samples"
                | "seed"
                | "walkers"
                | "budget"
                | "diameter_estimate"
                | "start_node"
                | "history_policy"
                | "priority"
                | "deadline_ms"
        ) {
            return Err(format!("unknown field `{key}`"));
        }
    }

    let samples = required_u64(body, "samples")? as usize;
    let seed = required_u64(body, "seed")?;
    let input = match optional_str(body, "input")?.unwrap_or("srw") {
        "srw" | "simple" => RandomWalkKind::Simple,
        "mhrw" | "metropolis_hastings" => RandomWalkKind::MetropolisHastings,
        other => return Err(format!("unknown input walk `{other}` (srw|mhrw)")),
    };
    let mut job = match optional_str(body, "sampler")?.unwrap_or("walk_estimate") {
        "walk_estimate" => SampleJob::walk_estimate(input, samples, seed),
        "many_short_runs" | "baseline" => SampleJob::baseline(input, samples, seed),
        "one_long_run" => {
            SampleJob::baseline(input, samples, seed).with_spec(SamplerSpec::OneLongRun {
                input,
                config: BurnInConfig::default(),
            })
        }
        other => {
            return Err(format!(
                "unknown sampler `{other}` (walk_estimate|many_short_runs|one_long_run)"
            ))
        }
    };
    if let Some(walkers) = optional_u64(body, "walkers")? {
        job = job.with_walkers(walkers as usize);
    }
    if let Some(budget) = optional_u64(body, "budget")? {
        job = job.with_budget(budget);
    }
    if let Some(diameter) = optional_u64(body, "diameter_estimate")? {
        job = job.with_diameter_estimate(diameter as usize);
    }
    if let Some(start) = optional_u64(body, "start_node")? {
        let start = u32::try_from(start)
            .map_err(|_| "field `start_node` must fit a 32-bit node id".to_string())?;
        job = job.with_start_node(wnw_graph::NodeId(start));
    }

    let mut request = SampleRequest::new(job);
    if let Some(policy) = optional_str(body, "history_policy")? {
        // Parse against the types' own wire labels so the vocabulary has a
        // single source of truth.
        let parsed = [
            HistoryPolicy::Isolated,
            HistoryPolicy::SharedReadOnly,
            HistoryPolicy::SharedPublish,
        ]
        .into_iter()
        .find(|p| p.label() == policy)
        .ok_or_else(|| {
            format!("unknown history_policy `{policy}` (isolated|shared_read|shared_publish)")
        })?;
        // A shared policy on a job whose walkers keep no shared history
        // (the baseline samplers) would be a silent no-op — surface the
        // contradiction to the client instead.
        if parsed != HistoryPolicy::Isolated && !request.job.spec.uses_shared_history() {
            return Err(format!(
                "history_policy `{policy}` requires a walk_estimate job, whose walkers share \
                 one history"
            ));
        }
        request = request.with_history_policy(parsed);
    }
    if let Some(priority) = optional_str(body, "priority")? {
        request = request.with_priority(match priority {
            "low" => Priority::Low,
            "normal" => Priority::Normal,
            "high" => Priority::High,
            other => return Err(format!("unknown priority `{other}` (low|normal|high)")),
        });
    }
    if let Some(deadline_ms) = optional_u64(body, "deadline_ms")? {
        request = request.with_deadline(Duration::from_millis(deadline_ms));
    }
    Ok(request)
}

fn required_u64(body: &Json, key: &str) -> Result<u64, String> {
    optional_u64(body, key)?.ok_or_else(|| format!("missing required field `{key}`"))
}

fn optional_u64(body: &Json, key: &str) -> Result<Option<u64>, String> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => value
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
    }
}

fn optional_str<'a>(body: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => value
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a string")),
    }
}

/// The wire label of a terminal status (the status type's own
/// [`label`](JobStatus::label); kept as a function so the gateway's wire
/// surface stays in one module).
pub fn status_label(status: &JobStatus) -> &'static str {
    status.label()
}

/// One stream event as its complete NDJSON line (trailing newline
/// included) — the unit the readiness loop frames into one chunk.
pub fn event_line(event: &SampleEvent) -> Vec<u8> {
    let mut line = event_to_json(event).encode().into_bytes();
    line.push(b'\n');
    line
}

/// One stream event as its NDJSON object.
pub fn event_to_json(event: &SampleEvent) -> Json {
    match event {
        SampleEvent::Sample { walker, record } => Json::obj(vec![
            ("event", Json::str("sample")),
            ("walker", Json::UInt(*walker as u64)),
            ("node", Json::UInt(u64::from(record.node.0))),
            ("query_cost", Json::UInt(record.query_cost)),
            ("attempts", Json::UInt(u64::from(record.attempts))),
        ]),
        SampleEvent::Progress(update) => progress_to_json(update),
        SampleEvent::Done(outcome) => outcome_to_json(outcome),
    }
}

fn progress_to_json(update: &ProgressUpdate) -> Json {
    Json::obj(vec![
        ("event", Json::str("progress")),
        ("rounds", Json::UInt(update.rounds as u64)),
        ("samples", Json::UInt(update.samples as u64)),
        ("requested", Json::UInt(update.requested as u64)),
        ("live_walkers", Json::UInt(update.live_walkers as u64)),
        ("budget_consumed", Json::UInt(update.budget_consumed)),
        ("query_cost", Json::UInt(update.query_cost)),
        ("pool_unique_nodes", Json::UInt(update.pool.unique_nodes)),
    ])
}

/// A terminal outcome as its NDJSON `done` object.
pub fn outcome_to_json(outcome: &JobOutcome) -> Json {
    let mut fields = vec![
        ("event", Json::str("done")),
        ("job_id", Json::UInt(outcome.id.0)),
        ("status", Json::str(status_label(&outcome.status))),
        ("samples", Json::UInt(outcome.samples as u64)),
        ("requested", Json::UInt(outcome.requested as u64)),
        ("query_cost", Json::UInt(outcome.query_cost)),
        ("budget_consumed", Json::UInt(outcome.budget_consumed)),
        ("budget_refunded", Json::UInt(outcome.budget_refunded)),
        ("budget_exhausted", Json::Bool(outcome.budget_exhausted)),
        ("degraded", Json::Bool(outcome.degraded)),
        ("degraded_walkers", Json::UInt(outcome.degraded_walkers)),
        ("rounds", Json::UInt(outcome.rounds as u64)),
        ("latency_ms", Json::Num(duration_ms(outcome.latency))),
        ("queue_wait_ms", Json::Num(duration_ms(outcome.queue_wait))),
        ("finish_index", Json::UInt(outcome.finish_index)),
    ];
    match &outcome.status {
        JobStatus::Failed(err) => fields.push(("error", Json::Str(err.to_string()))),
        JobStatus::Panicked(message) => fields.push(("error", Json::str(message.clone()))),
        _ => {}
    }
    Json::obj(fields)
}

/// The `/v1/metrics` document: one field per row of
/// [`ServiceMetricsSnapshot::table`], in table order, with dotted keys
/// (`pool.api_calls`) nested into objects.
pub fn metrics_to_json(snapshot: &ServiceMetricsSnapshot) -> Json {
    let mut fields: Vec<(String, Json)> = Vec::new();
    for metric in snapshot.table() {
        let value = match metric.value {
            MetricValue::Counter(n) | MetricValue::Gauge(n) => Json::UInt(n),
            MetricValue::Flag(on) => Json::Bool(on),
            MetricValue::Millis(d) => Json::Num(duration_ms(d)),
            MetricValue::Histogram(h) => histogram_to_json(h),
        };
        let Some((object, key)) = metric.key.split_once('.') else {
            fields.push((metric.key.to_string(), value));
            continue;
        };
        if fields.last().map(|(name, _)| name.as_str()) != Some(object) {
            fields.push((object.to_string(), Json::Obj(Vec::new())));
        }
        if let Some((_, Json::Obj(nested))) = fields.last_mut() {
            nested.push((key.to_string(), value));
        }
    }
    Json::Obj(fields)
}

/// The `/v1/metrics/prometheus` document: one family per row of
/// [`ServiceMetricsSnapshot::table`] that names one.
pub fn metrics_to_prometheus(snapshot: &ServiceMetricsSnapshot) -> String {
    let mut exposition = Exposition::new();
    exposition.metrics(&snapshot.table());
    exposition.finish()
}

/// A histogram snapshot as its JSON summary: the aggregates, the standard
/// quantiles, and the sparse non-empty buckets (each `{le, count}` with the
/// bucket's inclusive upper bound).
pub fn histogram_to_json(snapshot: &HistogramSnapshot) -> Json {
    Json::obj(vec![
        ("count", Json::UInt(snapshot.count)),
        ("sum", Json::UInt(snapshot.sum)),
        ("min", Json::UInt(snapshot.min)),
        ("max", Json::UInt(snapshot.max)),
        ("mean", Json::Num(snapshot.mean())),
        ("p50", Json::UInt(snapshot.quantile(0.5))),
        ("p90", Json::UInt(snapshot.quantile(0.9))),
        ("p99", Json::UInt(snapshot.quantile(0.99))),
        ("p999", Json::UInt(snapshot.quantile(0.999))),
        (
            "buckets",
            Json::Arr(
                snapshot
                    .nonzero_buckets()
                    .map(|(le, count)| {
                        Json::obj(vec![("le", Json::UInt(le)), ("count", Json::UInt(count))])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One trace-log event as its JSON object in the `/v1/jobs/{id}/trace`
/// array: the `"event"` discriminator is [`TraceEventKind::label`], `at_us`
/// the event's microsecond offset from service start, plus the
/// kind-specific payload (`queries` for `round_completed`, `status` for
/// `finished`).
pub fn trace_event_to_json(event: &TraceEvent) -> Json {
    let mut fields = vec![
        ("event", Json::str(event.kind.label())),
        ("job_id", Json::UInt(event.job)),
        (
            "at_us",
            Json::UInt(wnw_telemetry::saturating_micros(event.at)),
        ),
    ];
    match event.kind {
        TraceEventKind::RoundCompleted { queries } => {
            fields.push(("queries", Json::UInt(queries)));
        }
        TraceEventKind::Finished { status } => {
            fields.push(("status", Json::str(status)));
        }
        _ => {}
    }
    Json::obj(fields)
}

fn duration_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use wnw_service::JobId;

    fn request(text: &str) -> Result<SampleRequest, String> {
        sample_request_from_json(&parse(text).unwrap())
    }

    #[test]
    fn minimal_request_uses_defaults() {
        let req = request(r#"{"samples": 10, "seed": 7}"#).unwrap();
        assert_eq!(req.job.samples, 10);
        assert_eq!(req.job.seed, 7);
        assert_eq!(req.job.walkers, 4, "SampleJob default");
        assert_eq!(req.job.budget, None);
        assert_eq!(req.priority, Priority::Normal);
        assert_eq!(req.deadline, None);
        assert!(matches!(
            req.job.spec,
            SamplerSpec::WalkEstimate {
                input: RandomWalkKind::Simple,
                ..
            }
        ));
    }

    #[test]
    fn full_request_parses_every_field() {
        let req = request(
            r#"{
                "sampler": "walk_estimate", "input": "mhrw", "samples": 50,
                "seed": 9007199254740993, "walkers": 3, "budget": 1234,
                "diameter_estimate": 6, "history_policy": "shared_publish",
                "priority": "high", "deadline_ms": 2500
            }"#,
        )
        .unwrap();
        // 2^53 + 1: survives only because integers bypass f64.
        assert_eq!(req.job.seed, 9_007_199_254_740_993);
        assert_eq!(req.job.walkers, 3);
        assert_eq!(req.job.budget, Some(1234));
        assert_eq!(req.job.diameter_estimate, Some(6));
        assert_eq!(req.history_policy, HistoryPolicy::SharedPublish);
        assert_eq!(req.priority, Priority::High);
        assert_eq!(req.deadline, Some(Duration::from_millis(2500)));
        assert!(matches!(
            req.job.spec,
            SamplerSpec::WalkEstimate {
                input: RandomWalkKind::MetropolisHastings,
                ..
            }
        ));
    }

    #[test]
    fn start_node_parses_and_rejects_oversized_ids() {
        let req = request(r#"{"samples": 5, "seed": 1, "start_node": 17}"#).unwrap();
        assert_eq!(req.job.start_node, Some(wnw_graph::NodeId(17)));
        let default = request(r#"{"samples": 5, "seed": 1}"#).unwrap();
        assert_eq!(default.job.start_node, None);
        let err = request(r#"{"samples": 5, "seed": 1, "start_node": 4294967296}"#).unwrap_err();
        assert!(err.contains("start_node"), "got: {err}");
    }

    #[test]
    fn baseline_samplers_parse() {
        let many = request(r#"{"sampler": "many_short_runs", "samples": 5, "seed": 1}"#).unwrap();
        assert!(matches!(many.job.spec, SamplerSpec::ManyShortRuns { .. }));
        let one = request(r#"{"sampler": "one_long_run", "samples": 5, "seed": 1}"#).unwrap();
        assert!(matches!(one.job.spec, SamplerSpec::OneLongRun { .. }));
    }

    #[test]
    fn bad_requests_get_actionable_messages() {
        for (text, needle) in [
            (r#"[1,2]"#, "object"),
            (r#"{"seed": 1}"#, "samples"),
            (r#"{"samples": 5}"#, "seed"),
            (r#"{"samples": 5, "seed": -1}"#, "non-negative"),
            (
                r#"{"samples": 5, "seed": 1, "sampler": "magic"}"#,
                "sampler",
            ),
            (r#"{"samples": 5, "seed": 1, "input": "levy"}"#, "input"),
            (
                r#"{"samples": 5, "seed": 1, "priority": "max"}"#,
                "priority",
            ),
            // Within-job history sharing (the job's spec decides it) and
            // the reuse weight (a constant) are not request fields.
            (
                r#"{"samples": 5, "seed": 1, "history": "independent"}"#,
                "unknown field `history`",
            ),
            (
                r#"{"samples": 5, "seed": 1, "history_policy": "gossip"}"#,
                "history_policy",
            ),
            (
                r#"{"samples": 5, "seed": 1, "history_policy": "shared_read",
                    "reuse_correction": "raw"}"#,
                "unknown field `reuse_correction`",
            ),
            // A shared policy on a job that cannot exchange history would
            // be a silent no-op — it must be rejected, not accepted.
            (
                r#"{"samples": 5, "seed": 1, "sampler": "many_short_runs",
                    "history_policy": "shared_read"}"#,
                "requires a walk_estimate job",
            ),
            (r#"{"samples": 5, "seed": 1, "walkers": "four"}"#, "walkers"),
            (r#"{"samples": 5, "seed": 1, "tyop": true}"#, "tyop"),
        ] {
            let err = request(text).unwrap_err();
            assert!(
                err.contains(needle),
                "error for {text} should mention {needle}, got: {err}"
            );
        }
    }

    #[test]
    fn events_encode_with_discriminators() {
        let sample = SampleEvent::Sample {
            walker: 2,
            record: wnw_mcmc::sampler::SampleRecord {
                node: wnw_graph::NodeId(17),
                query_cost: 80,
                attempts: 3,
            },
        };
        let json = event_to_json(&sample);
        assert_eq!(json.get("event").unwrap().as_str(), Some("sample"));
        assert_eq!(json.get("node").unwrap().as_u64(), Some(17));
        assert_eq!(json.get("walker").unwrap().as_u64(), Some(2));
        assert_eq!(json.get("attempts").unwrap().as_u64(), Some(3));

        let outcome = JobOutcome {
            id: JobId(4),
            status: JobStatus::Cancelled,
            samples: 12,
            requested: 100,
            query_cost: 500,
            budget_consumed: 400,
            budget_refunded: 600,
            budget_exhausted: false,
            degraded: true,
            degraded_walkers: 2,
            rounds: 9,
            latency: Duration::from_millis(15),
            queue_wait: Duration::from_millis(3),
            finish_index: 1,
        };
        let json = event_to_json(&SampleEvent::Done(outcome));
        assert_eq!(json.get("event").unwrap().as_str(), Some("done"));
        assert_eq!(json.get("status").unwrap().as_str(), Some("cancelled"));
        assert_eq!(json.get("budget_refunded").unwrap().as_u64(), Some(600));
        assert_eq!(json.get("degraded").unwrap().as_bool(), Some(true));
        assert_eq!(json.get("degraded_walkers").unwrap().as_u64(), Some(2));
        assert_eq!(json.get("queue_wait_ms").unwrap().as_f64(), Some(3.0));
        // Encodes to a single NDJSON-safe line.
        assert!(!json.encode().contains('\n'));
    }

    #[test]
    fn histograms_encode_quantiles_and_sparse_buckets() {
        use wnw_service::Histogram;

        let h = Histogram::new();
        for v in [100u64, 100, 200, 5_000] {
            h.record(v);
        }
        let json = histogram_to_json(&h.snapshot());
        assert_eq!(json.get("count").unwrap().as_u64(), Some(4));
        assert_eq!(json.get("sum").unwrap().as_u64(), Some(5_400));
        assert_eq!(json.get("min").unwrap().as_u64(), Some(100));
        assert_eq!(json.get("max").unwrap().as_u64(), Some(5_000));
        assert_eq!(json.get("mean").unwrap().as_f64(), Some(1_350.0));
        let p50 = json.get("p50").unwrap().as_u64().unwrap();
        assert!((100..=200).contains(&p50), "p50 was {p50}");
        // The tail quantile the SLO evaluator reads: at 4 observations it
        // collapses to the exact max.
        assert_eq!(json.get("p999").unwrap().as_u64(), Some(5_000));
        let Json::Arr(buckets) = json.get("buckets").unwrap() else {
            panic!("buckets must be an array");
        };
        assert_eq!(buckets.len(), 3, "three distinct buckets are occupied");
        let les: Vec<u64> = buckets
            .iter()
            .map(|b| b.get("le").unwrap().as_u64().unwrap())
            .collect();
        assert!(les.windows(2).all(|w| w[0] < w[1]), "ascending le grid");
        let total: u64 = buckets
            .iter()
            .map(|b| b.get("count").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(total, 4, "bucket counts are per-bucket, not cumulative");

        let empty = histogram_to_json(&HistogramSnapshot::default());
        assert_eq!(empty.get("count").unwrap().as_u64(), Some(0));
        assert!(matches!(empty.get("buckets"), Some(Json::Arr(b)) if b.is_empty()));
    }

    #[test]
    fn trace_events_encode_with_their_payloads() {
        let event = |kind| TraceEvent {
            job: 7,
            at: Duration::from_micros(1_500),
            kind,
        };
        let submitted = trace_event_to_json(&event(TraceEventKind::Submitted));
        assert_eq!(submitted.get("event").unwrap().as_str(), Some("submitted"));
        assert_eq!(submitted.get("job_id").unwrap().as_u64(), Some(7));
        assert_eq!(submitted.get("at_us").unwrap().as_u64(), Some(1_500));
        assert!(submitted.get("queries").is_none());
        assert!(submitted.get("status").is_none());

        let round = trace_event_to_json(&event(TraceEventKind::RoundCompleted { queries: 42 }));
        assert_eq!(
            round.get("event").unwrap().as_str(),
            Some("round_completed")
        );
        assert_eq!(round.get("queries").unwrap().as_u64(), Some(42));

        let finished = trace_event_to_json(&event(TraceEventKind::Finished {
            status: "completed",
        }));
        assert_eq!(finished.get("event").unwrap().as_str(), Some("finished"));
        assert_eq!(finished.get("status").unwrap().as_str(), Some("completed"));
    }

    #[test]
    fn failed_outcomes_carry_the_error() {
        let outcome = JobOutcome {
            id: JobId(0),
            status: JobStatus::Panicked("sampler exploded".to_string()),
            samples: 0,
            requested: 1,
            query_cost: 0,
            budget_consumed: 0,
            budget_refunded: 0,
            budget_exhausted: false,
            degraded: false,
            degraded_walkers: 0,
            rounds: 0,
            latency: Duration::ZERO,
            queue_wait: Duration::ZERO,
            finish_index: 0,
        };
        let json = outcome_to_json(&outcome);
        assert_eq!(json.get("status").unwrap().as_str(), Some("panicked"));
        assert_eq!(
            json.get("error").unwrap().as_str(),
            Some("sampler exploded")
        );
    }

    /// A fully populated snapshot shared by the metrics-document tests.
    fn sample_snapshot() -> ServiceMetricsSnapshot {
        use wnw_access::counter::QueryStats;
        use wnw_service::{Histogram, HistoryStoreStats, PoolStats};

        let queue_wait = Histogram::new();
        queue_wait.record(1_000);
        queue_wait.record(3_000);
        let latency = Histogram::new();
        latency.record(2_000);
        ServiceMetricsSnapshot {
            jobs_submitted: 4,
            jobs_rejected: 1,
            jobs_queued: 0,
            jobs_running: 1,
            jobs_completed: 2,
            jobs_cancelled: 1,
            jobs_expired: 0,
            jobs_failed: 0,
            jobs_degraded: 1,
            walkers_degraded: 2,
            jobs_finished: 3,
            samples_delivered: 40,
            aggregate_query_cost: 100,
            isolated_query_cost: 160,
            budget_refunded: 5,
            mean_latency: Duration::from_millis(2),
            jobs_started: 4,
            mean_queue_wait: Duration::from_millis(1),
            max_queue_wait: Duration::from_millis(3),
            pool: QueryStats {
                unique_nodes: 100,
                ..QueryStats::default()
            },
            worker_pool: PoolStats {
                workers: 3,
                rounds_dispatched: 17,
                spawnless_rounds: 9,
                worker_wakeups: 41,
            },
            history: HistoryStoreStats {
                hits: 2,
                misses: 1,
                publications: 3,
                published_walks: 120,
                reused_walks: 80,
                reuse_savings: 55,
                epoch: 3,
            },
            resilience: wnw_service::ResilienceStats {
                calls: 50,
                faults_seen: 6,
                retries: 5,
                backoff_wait_secs: 12,
                rate_limit_honored: 2,
                retries_exhausted: 1,
                recovered: 4,
                breaker_opened: 1,
                breaker_half_open_probes: 1,
                breaker_fast_fails: 3,
                breaker_open: false,
                clock_secs: 90,
                retries_per_call: HistogramSnapshot::default(),
            },
            queue_wait_histogram: queue_wait.snapshot(),
            latency_histogram: latency.snapshot(),
            first_sample_histogram: HistogramSnapshot::default(),
            job_cost_histogram: HistogramSnapshot::default(),
            round_duration_histogram: HistogramSnapshot::default(),
        }
    }

    #[test]
    fn metrics_document_carries_worker_pool_counters() {
        let json = metrics_to_json(&sample_snapshot());
        let worker_pool = json.get("worker_pool").expect("worker_pool object");
        assert_eq!(worker_pool.get("workers").unwrap().as_u64(), Some(3));
        assert_eq!(
            worker_pool.get("rounds_dispatched").unwrap().as_u64(),
            Some(17)
        );
        assert_eq!(
            worker_pool.get("spawnless_rounds").unwrap().as_u64(),
            Some(9)
        );
        assert_eq!(
            worker_pool.get("worker_wakeups").unwrap().as_u64(),
            Some(41)
        );
        assert_eq!(json.get("shared_cache_savings").unwrap().as_u64(), Some(60));
        let history = json.get("history").expect("history object");
        assert_eq!(history.get("hits").unwrap().as_u64(), Some(2));
        assert_eq!(history.get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(history.get("publications").unwrap().as_u64(), Some(3));
        assert_eq!(history.get("published_walks").unwrap().as_u64(), Some(120));
        assert_eq!(history.get("reused_walks").unwrap().as_u64(), Some(80));
        assert_eq!(history.get("reuse_savings").unwrap().as_u64(), Some(55));
        assert_eq!(history.get("epoch").unwrap().as_u64(), Some(3));
    }

    /// Wire-drift guard: destructuring the snapshot without `..` makes this
    /// test fail to compile whenever `ServiceMetricsSnapshot` grows a field,
    /// and the assertions below then force the `/v1/metrics` document to
    /// carry it.
    #[test]
    fn metrics_document_walks_every_snapshot_field() {
        let snapshot = sample_snapshot();
        let json = metrics_to_json(&snapshot);
        let savings = snapshot.shared_cache_savings();
        let ServiceMetricsSnapshot {
            jobs_submitted,
            jobs_rejected,
            jobs_queued,
            jobs_running,
            jobs_completed,
            jobs_cancelled,
            jobs_expired,
            jobs_failed,
            jobs_degraded,
            walkers_degraded,
            jobs_finished,
            samples_delivered,
            aggregate_query_cost,
            isolated_query_cost,
            budget_refunded,
            mean_latency,
            jobs_started,
            mean_queue_wait,
            max_queue_wait,
            pool,
            worker_pool,
            history,
            resilience,
            queue_wait_histogram,
            latency_histogram,
            first_sample_histogram,
            job_cost_histogram,
            round_duration_histogram,
        } = snapshot;

        let field = |key: &str| json.get(key).unwrap_or_else(|| panic!("missing `{key}`"));
        for (key, expected) in [
            ("jobs_submitted", jobs_submitted),
            ("jobs_rejected", jobs_rejected),
            ("jobs_queued", jobs_queued),
            ("jobs_running", jobs_running),
            ("jobs_completed", jobs_completed),
            ("jobs_cancelled", jobs_cancelled),
            ("jobs_expired", jobs_expired),
            ("jobs_failed", jobs_failed),
            ("jobs_degraded", jobs_degraded),
            ("walkers_degraded", walkers_degraded),
            ("jobs_finished", jobs_finished),
            ("jobs_started", jobs_started),
            ("samples_delivered", samples_delivered),
            ("aggregate_query_cost", aggregate_query_cost),
            ("isolated_query_cost", isolated_query_cost),
            ("budget_refunded", budget_refunded),
            ("shared_cache_savings", savings),
        ] {
            assert_eq!(field(key).as_u64(), Some(expected), "field `{key}`");
        }
        for (key, expected) in [
            ("mean_latency_ms", mean_latency),
            ("mean_queue_wait_ms", mean_queue_wait),
            ("max_queue_wait_ms", max_queue_wait),
        ] {
            assert_eq!(field(key).as_f64(), Some(duration_ms(expected)));
        }
        assert_eq!(
            field("pool").get("unique_nodes").unwrap().as_u64(),
            Some(pool.unique_nodes)
        );
        assert_eq!(
            field("worker_pool").get("workers").unwrap().as_u64(),
            Some(worker_pool.workers)
        );
        assert_eq!(
            field("history").get("hits").unwrap().as_u64(),
            Some(history.hits)
        );
        let res = field("resilience");
        for (key, expected) in [
            ("calls", resilience.calls),
            ("faults_seen", resilience.faults_seen),
            ("retries", resilience.retries),
            ("backoff_wait_secs", resilience.backoff_wait_secs),
            ("rate_limit_honored", resilience.rate_limit_honored),
            ("retries_exhausted", resilience.retries_exhausted),
            ("recovered", resilience.recovered),
            ("breaker_opened", resilience.breaker_opened),
            (
                "breaker_half_open_probes",
                resilience.breaker_half_open_probes,
            ),
            ("breaker_fast_fails", resilience.breaker_fast_fails),
            ("clock_secs", resilience.clock_secs),
        ] {
            assert_eq!(
                res.get(key).unwrap().as_u64(),
                Some(expected),
                "resilience field `{key}`"
            );
        }
        assert_eq!(
            res.get("breaker_open").unwrap().as_bool(),
            Some(resilience.breaker_open)
        );
        for (key, expected) in [
            ("queue_wait_histogram", queue_wait_histogram),
            ("latency_histogram", latency_histogram),
            ("first_sample_histogram", first_sample_histogram),
            ("job_cost_histogram", job_cost_histogram),
            ("round_duration_histogram", round_duration_histogram),
            ("retries_per_query_histogram", resilience.retries_per_call),
        ] {
            let doc = field(key);
            assert_eq!(doc.get("count").unwrap().as_u64(), Some(expected.count));
            assert_eq!(doc.get("sum").unwrap().as_u64(), Some(expected.sum));
        }
    }
}
