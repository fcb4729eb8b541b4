//! Acceptance bar of the `wnw-telemetry` observability layer:
//!
//! * histogram quantiles stay within one log-bucket (≤ 35 % relative error
//!   here, with margin over the 25 % design bound) of the exact order
//!   statistic on seeded uniform and heavy-tailed (zipf-like) draws;
//! * a real `SamplingService` run leaves every finished job a well-formed
//!   lifecycle trace — exactly one `submitted` and one `finished`, in that
//!   order, with monotone timestamps — and fills the latency histograms;
//! * turning telemetry off silences the trace log and the per-round
//!   histogram without touching the sampling results.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use walk_not_wait::graph::generators::random::barabasi_albert;
use walk_not_wait::prelude::*;
use walk_not_wait::telemetry::prometheus::validate;
use wnw_access::SimulatedOsn;

/// Exact empirical quantile of a sorted sample.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn assert_quantiles_close(values: Vec<u64>, what: &str) {
    let hist = Histogram::new();
    for &v in &values {
        hist.record(v);
    }
    let mut sorted = values;
    sorted.sort_unstable();
    let snap = hist.snapshot();
    assert_eq!(snap.count, sorted.len() as u64);
    for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
        let exact = exact_quantile(&sorted, q) as f64;
        let estimate = snap.quantile(q) as f64;
        let error = (estimate - exact).abs() / exact;
        assert!(
            error <= 0.35,
            "{what} q={q}: estimate {estimate} vs exact {exact} (error {error:.3})"
        );
    }
    assert_eq!(snap.quantile(0.0), sorted[0], "{what}: exact min");
    assert_eq!(
        snap.quantile(1.0),
        *sorted.last().unwrap(),
        "{what}: exact max"
    );
}

#[test]
fn quantiles_track_seeded_uniform_draws() {
    let mut rng = StdRng::seed_from_u64(61);
    let values: Vec<u64> = (0..20_000)
        .map(|_| rng.gen_range(1u64..1_000_000))
        .collect();
    assert_quantiles_close(values, "uniform");
}

#[test]
fn quantiles_track_seeded_heavy_tailed_draws() {
    // Zipf-like tail via inverse-CDF of a power law: most mass near 1, a
    // few draws orders of magnitude out — the adversarial case for a
    // log-bucketed histogram's relative error.
    let mut rng = StdRng::seed_from_u64(62);
    let values: Vec<u64> = (0..20_000)
        .map(|_| {
            let u: f64 = rng.gen();
            ((1.0 / (1.0 - u)).powf(1.7) as u64).clamp(1, u64::MAX)
        })
        .collect();
    assert_quantiles_close(values, "zipf");
}

/// One service round-trip: submit `jobs` requests, wait them out, return
/// the service (so the caller can inspect metrics and traces) plus the ids.
fn run_jobs(service: &SamplingService<SimulatedOsn>, jobs: usize) -> Vec<JobOutcome> {
    let streams: Vec<_> = (0..jobs)
        .map(|i| {
            let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 6, 100 + i as u64)
                .with_walkers(2)
                .with_diameter_estimate(5);
            service
                .submit(SampleRequest::new(job))
                .expect("admitted")
                .stream
        })
        .collect();
    streams
        .into_iter()
        .map(|stream| {
            let outcome = stream.wait().expect("outcome");
            assert_eq!(outcome.status, JobStatus::Completed);
            outcome
        })
        .collect()
}

#[test]
fn service_traces_are_well_formed_and_histograms_fill() {
    let osn = SimulatedOsn::new(barabasi_albert(400, 3, 9).unwrap());
    let service = SamplingService::builder(osn).pool_threads(2).build();
    let outcomes = run_jobs(&service, 3);

    for outcome in &outcomes {
        let id = outcome.id.0;
        let events = service.trace().events_for(id);
        assert!(!events.is_empty(), "job {id} left a trace");
        let labels: Vec<&str> = events.iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            labels.iter().filter(|l| **l == "submitted").count(),
            1,
            "job {id}: exactly one submitted, got {labels:?}"
        );
        assert_eq!(
            labels.iter().filter(|l| **l == "finished").count(),
            1,
            "job {id}: exactly one finished, got {labels:?}"
        );
        assert_eq!(labels.first(), Some(&"submitted"), "{labels:?}");
        assert_eq!(labels.last(), Some(&"finished"), "{labels:?}");
        assert!(labels.contains(&"admitted"), "{labels:?}");
        assert!(labels.contains(&"first_round"), "{labels:?}");
        assert!(labels.contains(&"sample_published"), "{labels:?}");
        assert!(
            events.windows(2).all(|w| w[0].at <= w[1].at),
            "job {id}: timestamps are monotone"
        );
        // The finished event carries the terminal label.
        assert!(matches!(
            events.last().unwrap().kind,
            TraceEventKind::Finished {
                status: "completed"
            }
        ));
        // `first_round` precedes `sample_published`: no sample before work.
        let first_round = labels.iter().position(|l| *l == "first_round").unwrap();
        let first_sample = labels
            .iter()
            .position(|l| *l == "sample_published")
            .unwrap();
        assert!(first_round < first_sample, "{labels:?}");
        // One `round_completed` per round the job ran, and their per-round
        // query deltas add up to the job's query cost.
        let round_queries: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::RoundCompleted { queries } => Some(queries),
                _ => None,
            })
            .collect();
        assert_eq!(round_queries.len(), outcome.rounds, "job {id}: {labels:?}");
        assert_eq!(
            round_queries.iter().sum::<u64>(),
            outcome.query_cost,
            "job {id}: {round_queries:?}"
        );
    }

    let metrics = service.shutdown();
    assert_eq!(metrics.jobs_completed, 3);
    assert_eq!(metrics.queue_wait_histogram.count, 3);
    assert_eq!(metrics.latency_histogram.count, 3);
    assert_eq!(metrics.first_sample_histogram.count, 3);
    assert_eq!(metrics.job_cost_histogram.count, 3);
    assert!(
        metrics.round_duration_histogram.count > 0,
        "telemetry defaults on: rounds are timed"
    );
    assert!(
        metrics.latency_histogram.min >= metrics.queue_wait_histogram.min,
        "a job's latency includes its queue wait"
    );
}

#[test]
fn shared_read_jobs_trace_history_lookups() {
    let osn = SimulatedOsn::new(barabasi_albert(400, 3, 9).unwrap());
    let service = SamplingService::builder(osn).pool_threads(1).build();
    let job = |seed| {
        SampleJob::walk_estimate(RandomWalkKind::Simple, 5, seed)
            .with_walkers(2)
            .with_diameter_estimate(5)
    };
    // First publisher misses the store; a second reader hits it.
    let first = service
        .submit(SampleRequest::new(job(1)).with_history_policy(HistoryPolicy::SharedPublish))
        .unwrap();
    let first_id = first.id.0;
    assert!(first.stream.wait().is_some());
    let second = service
        .submit(SampleRequest::new(job(2)).with_history_policy(HistoryPolicy::SharedReadOnly))
        .unwrap();
    let second_id = second.id.0;
    assert!(second.stream.wait().is_some());

    let miss: Vec<&str> = service
        .trace()
        .events_for(first_id)
        .iter()
        .map(|e| e.kind.label())
        .collect::<Vec<_>>();
    assert!(miss.contains(&"history_miss"), "{miss:?}");
    let hit: Vec<&str> = service
        .trace()
        .events_for(second_id)
        .iter()
        .map(|e| e.kind.label())
        .collect::<Vec<_>>();
    assert!(hit.contains(&"history_hit"), "{hit:?}");
    service.shutdown();
}

#[test]
fn telemetry_off_disables_tracing_and_round_timing() {
    let osn = SimulatedOsn::new(barabasi_albert(400, 3, 9).unwrap());
    let service = SamplingService::builder(osn)
        .pool_threads(1)
        .telemetry(false)
        .build();
    let outcomes = run_jobs(&service, 2);
    assert!(!service.trace().enabled());
    for id in outcomes.iter().map(|o| o.id.0) {
        assert!(
            service.trace().events_for(id).is_empty(),
            "telemetry off: no trace for job {id}"
        );
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.jobs_completed, 2, "sampling is unaffected");
    assert!(
        metrics.round_duration_histogram.is_empty(),
        "per-round timing is gated off"
    );
    // Job-level distributions stay on: they cost a few atomics per job.
    assert_eq!(metrics.latency_histogram.count, 2);
}

#[test]
fn live_service_snapshot_renders_to_valid_prometheus_text() {
    let osn = SimulatedOsn::new(barabasi_albert(400, 3, 9).unwrap());
    let service = SamplingService::builder(osn).pool_threads(1).build();
    run_jobs(&service, 2);
    let metrics = service.shutdown();
    let text = walk_not_wait::gateway::wire::metrics_to_prometheus(&metrics);
    let stats = validate(&text).expect("live snapshot validates");
    assert!(stats.series >= 20, "got {} series", stats.series);
    // Five latency/cost histograms plus the resilience layer's
    // retries-per-call distribution.
    assert_eq!(stats.histograms, 6);
    assert!(text.contains("wnw_jobs_completed_total 2"));
    assert!(text.contains("wnw_time_to_first_sample_us_count 2"));
}
