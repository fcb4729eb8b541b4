//! The sampling service under concurrent load: N streaming requests, one
//! shared cache, per-job latency and the cross-job query savings.
//!
//! ```text
//! cargo run --release --example sampling_service
//! ```
//!
//! Submits N concurrent WALK-ESTIMATE requests (mixed priorities) to one
//! `SamplingService`, consumes every stream on its own thread, then compares
//! the service's aggregate unique-query cost against what the same jobs cost
//! as isolated engine runs — the shared neighbor cache means a node any job
//! has paid for is free for all of them.

use walk_not_wait::access::SimulatedOsn;
use walk_not_wait::graph::generators::random::barabasi_albert;
use walk_not_wait::mcmc::RandomWalkKind;
use walk_not_wait::prelude::*;
use walk_not_wait::service::Priority;

fn main() {
    let nodes = 5_000;
    let jobs = 6;
    let samples_per_job = 60;

    println!("graph:   Barabasi-Albert, {nodes} nodes, m = 3");
    println!("load:    {jobs} concurrent WALK-ESTIMATE(SRW) requests x {samples_per_job} samples");
    println!();

    let graph = barabasi_albert(nodes, 3, 42).expect("valid BA parameters");
    let requests: Vec<(SampleJob, Priority)> = (0..jobs as u64)
        .map(|i| {
            let job = SampleJob::walk_estimate(RandomWalkKind::Simple, samples_per_job, 0x5E + i)
                .with_walkers(4)
                .with_diameter_estimate(5);
            let priority = match i % 3 {
                0 => Priority::Low,
                1 => Priority::Normal,
                _ => Priority::High,
            };
            (job, priority)
        })
        .collect();

    // Baseline: each job as an isolated engine run with its own cache (one
    // engine — and so one worker pool — reused across the runs).
    let engine = Engine::new();
    let isolated_costs: Vec<u64> = requests
        .iter()
        .map(|(job, _)| {
            let network = SimulatedOsn::new(graph.clone());
            engine.run(&network, job).expect("unbudgeted").query_cost()
        })
        .collect();
    let isolated_total: u64 = isolated_costs.iter().sum();

    // The service: same jobs, one shared cache, streaming consumers.
    let service = SamplingService::new(SimulatedOsn::new(graph));
    let tickets: Vec<_> = requests
        .iter()
        .map(|(job, priority)| {
            service
                .submit(SampleRequest::new(job.clone()).with_priority(*priority))
                .expect("service has capacity")
        })
        .collect();

    // One consumer thread per stream, counting events as they arrive.
    let outcomes: Vec<(usize, JobOutcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = tickets
            .into_iter()
            .map(|ticket| {
                scope.spawn(move || {
                    let mut streamed = 0usize;
                    let mut outcome = None;
                    for event in ticket.stream {
                        match event {
                            SampleEvent::Sample { .. } => streamed += 1,
                            SampleEvent::Progress(_) => {}
                            SampleEvent::Done(done) => outcome = Some(done),
                        }
                    }
                    (streamed, outcome.expect("service delivers Done"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("consumer threads do not panic"))
            .collect()
    });

    println!(
        "{:>6} | {:>8} | {:>8} | {:>10} | {:>12} | {:>10}",
        "job", "priority", "samples", "latency ms", "job cost", "finish #"
    );
    println!("{}", "-".repeat(70));
    for ((streamed, outcome), (_, priority)) in outcomes.iter().zip(&requests) {
        assert_eq!(*streamed, outcome.samples, "every sample was streamed");
        assert_eq!(outcome.status, JobStatus::Completed);
        println!(
            "{:>6} | {:>8} | {:>8} | {:>10.1} | {:>12} | {:>10}",
            outcome.id.to_string(),
            format!("{priority:?}"),
            outcome.samples,
            outcome.latency.as_secs_f64() * 1e3,
            outcome.query_cost,
            outcome.finish_index,
        );
    }

    let metrics = service.shutdown();
    println!();
    println!(
        "isolated runs:   {} unique-node queries ({} jobs, each with its own cache)",
        isolated_total, jobs
    );
    println!(
        "shared service:  {} unique-node queries (one cache across all jobs)",
        metrics.aggregate_query_cost
    );
    println!(
        "savings:         {} queries ({:.1}%), mean latency {:.1} ms",
        metrics.shared_cache_savings(),
        100.0 * metrics.shared_cache_savings() as f64 / isolated_total.max(1) as f64,
        metrics.mean_latency.as_secs_f64() * 1e3,
    );

    // The per-job costs must agree with the isolated baseline, and the
    // shared cache must have made the aggregate strictly cheaper.
    let per_job_total: u64 = outcomes.iter().map(|(_, o)| o.query_cost).sum();
    assert_eq!(
        per_job_total, isolated_total,
        "per-job metered costs match isolated runs (determinism under co-load)"
    );
    assert!(
        metrics.aggregate_query_cost < isolated_total,
        "N concurrent jobs must cost less than the sum of isolated runs"
    );
    println!();
    println!("aggregate cost under co-load is lower than the sum of isolated runs: yes");
}
