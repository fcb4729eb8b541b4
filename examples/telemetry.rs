//! The observability stack end to end: latency histograms, a Prometheus
//! scrape, and a per-job lifecycle trace — all over real loopback HTTP.
//!
//! ```text
//! cargo run --release --example telemetry
//! ```
//!
//! Starts a `SamplingService` over a simulated OSN behind the HTTP
//! gateway, runs a handful of sampling jobs, then plays three scenes:
//!
//! 1. quantiles from the service's latency histograms (`/v1/metrics` now
//!    carries full distributions, not just means);
//! 2. a `GET /v1/metrics/prometheus` scrape, machine-checked against the
//!    exposition grammar by the validator the tests use;
//! 3. a `GET /v1/jobs/{id}/trace` replay of one job's life — submitted,
//!    admitted, rounds, first sample, finished — with microsecond stamps.

use walk_not_wait::access::SimulatedOsn;
use walk_not_wait::gateway::json::Json;
use walk_not_wait::gateway::{client, GatewayServer};
use walk_not_wait::graph::generators::random::barabasi_albert;
use walk_not_wait::prelude::*;
use walk_not_wait::telemetry::prometheus::validate;

fn main() {
    let jobs = 6u64;
    let samples_per_job = 24u64;

    println!("graph:   Barabasi-Albert, 4000 nodes, m = 3");
    println!("jobs:    {jobs} x {samples_per_job} samples over one shared cache");
    println!();

    let graph = barabasi_albert(4_000, 3, 7).expect("valid BA parameters");
    let service = SamplingService::builder(SimulatedOsn::new(graph))
        .pool_threads(2)
        .build();
    let server = GatewayServer::bind(service, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    println!("listening on http://{addr}");

    // Run the jobs to completion so the histograms have mass.
    let mut last_id = 0;
    for seed in 0..jobs {
        let body = Json::obj(vec![
            ("samples", Json::UInt(samples_per_job)),
            ("seed", Json::UInt(1_000 + seed)),
            ("walkers", Json::UInt(3)),
            ("diameter_estimate", Json::UInt(5)),
        ]);
        let accepted = client::post(addr, "/v1/jobs", &body)
            .expect("POST /v1/jobs")
            .json()
            .expect("JSON body");
        last_id = accepted.get("job_id").unwrap().as_u64().unwrap();
        let path = accepted
            .get("stream")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let delivered = client::open_stream(addr, &path)
            .expect("open stream")
            .filter_map(Result::ok)
            .filter(|e| e.get("event").unwrap().as_str() == Some("sample"))
            .count() as u64;
        assert_eq!(delivered, samples_per_job, "job {last_id} must complete");
    }

    // Scene 1: distribution-level metrics.
    let metrics = server.metrics();
    println!();
    println!("-- latency distributions ({jobs} jobs) --");
    for (name, hist) in [
        ("queue wait", &metrics.queue_wait_histogram),
        ("end-to-end latency", &metrics.latency_histogram),
        ("time to first sample", &metrics.first_sample_histogram),
        ("round duration", &metrics.round_duration_histogram),
    ] {
        println!(
            "{name:>22}: n={:<5} p50={:>8} us  p99={:>8} us  max={:>8} us",
            hist.count,
            hist.quantile(0.5),
            hist.quantile(0.99),
            hist.max,
        );
    }
    assert_eq!(metrics.latency_histogram.count, jobs);
    assert_eq!(metrics.first_sample_histogram.count, jobs);
    assert!(
        metrics.round_duration_histogram.count > 0,
        "telemetry defaults on"
    );

    // Scene 2: the Prometheus scrape, grammar-checked.
    let scrape = client::get(addr, "/v1/metrics/prometheus").expect("scrape");
    assert_eq!(scrape.status, 200);
    let text = String::from_utf8(scrape.body).expect("UTF-8 scrape");
    let stats = validate(&text).expect("exposition grammar holds");
    println!();
    println!(
        "-- prometheus scrape: {} families, {} series, {} histograms (validated) --",
        stats.families, stats.series, stats.histograms
    );
    assert!(stats.series >= 20);
    // Five latency/cost histograms plus the resilience layer's
    // retries-per-query distribution.
    assert_eq!(stats.histograms, 6);
    for line in text.lines().filter(|l| {
        l.starts_with("wnw_jobs_completed_total") || l.starts_with("wnw_job_latency_us_count")
    }) {
        println!("   {line}");
    }

    // Scene 3: replay the last job's life from the trace endpoint.
    let trace = client::get(addr, &format!("/v1/jobs/{last_id}/trace")).expect("trace");
    assert_eq!(trace.status, 200);
    let Json::Arr(events) = trace.json().expect("trace JSON") else {
        panic!("trace body must be an array");
    };
    println!();
    println!(
        "-- lifecycle trace of job {last_id} ({} events) --",
        events.len()
    );
    for event in events.iter().take(6) {
        let label = event.get("event").unwrap().as_str().unwrap();
        let at = event.get("at_us").unwrap().as_u64().unwrap();
        match event.get("queries").and_then(Json::as_u64) {
            Some(queries) => println!("   {at:>9} us  {label} (queries={queries})"),
            None => println!("   {at:>9} us  {label}"),
        }
    }
    if events.len() > 6 {
        println!("   ... {} more", events.len() - 6);
    }
    let labels: Vec<&str> = events
        .iter()
        .map(|e| e.get("event").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(labels.first(), Some(&"submitted"));
    assert_eq!(labels.last(), Some(&"finished"));

    let snapshot = server.shutdown();
    assert_eq!(snapshot.jobs_completed, jobs);
    println!();
    println!("ok: scrape validated, {jobs} traces recorded, histograms populated");
}
