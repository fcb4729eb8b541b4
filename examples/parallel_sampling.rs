//! The concurrent engine on a synthetic social network: 1 thread vs N
//! threads, and what the shared neighbor cache saves.
//!
//! ```text
//! cargo run --release --example parallel_sampling
//! ```
//!
//! Collects the same WALK-ESTIMATE job (fixed seed, fixed virtual-walker
//! pool) with different thread counts and verifies the accepted-sample
//! multiset never changes, then compares the pool's query cost against the
//! sum of the walkers' own unique-node charges: what the same walkers would
//! have paid without the shared neighbor cache.

use walk_not_wait::access::{SimulatedOsn, SocialNetwork};
use walk_not_wait::graph::generators::random::barabasi_albert;
use walk_not_wait::mcmc::RandomWalkKind;
use wnw_engine::{Engine, JobReport, SampleJob};

fn main() {
    let nodes = 5_000;
    let samples = 200;
    let walkers = 8;
    let seed = 0xE7;

    println!("graph: Barabasi-Albert, {nodes} nodes, m = 3");
    println!(
        "job:   {samples} WALK-ESTIMATE(SRW) samples, {walkers} virtual walkers, seed {seed:#x}"
    );
    println!();

    let graph = barabasi_albert(nodes, 3, 42).expect("valid BA parameters");
    let osn = SimulatedOsn::new(graph);

    let job = SampleJob::walk_estimate(RandomWalkKind::Simple, samples, seed)
        .with_walkers(walkers)
        .with_diameter_estimate(5);

    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut thread_counts = vec![1, 2, hardware.max(4)];
    thread_counts.dedup();

    println!(
        "{:>8} | {:>10} | {:>12} | {:>12} | {:>10}",
        "threads", "wall ms", "pool cost", "uncached", "hits"
    );
    println!("{}", "-".repeat(64));

    let mut reference: Option<JobReport> = None;
    for &threads in &thread_counts {
        osn.reset_counters();
        let report = Engine::with_threads(threads)
            .run(&osn, &job)
            .expect("unbudgeted job");
        println!(
            "{:>8} | {:>10.1} | {:>12} | {:>12} | {:>10}",
            threads,
            report.elapsed.as_secs_f64() * 1e3,
            report.query_cost(),
            report.uncached_query_cost(),
            report.pool_stats.cache_hits,
        );
        match &reference {
            None => reference = Some(report),
            Some(first) => {
                assert_eq!(
                    first.sorted_nodes(),
                    report.sorted_nodes(),
                    "same seed must give the same sample multiset at any thread count"
                );
            }
        }
    }
    let reference = reference.expect("at least one run");
    println!();
    println!("sample multiset identical across all thread counts: yes");

    // Each walker's view charges it once per node it visits; without the
    // shared cache every one of those charges would be a backend query.
    let uncached_total = reference.uncached_query_cost();
    println!(
        "shared cache: {} unique-node queries for {} samples ({} saved vs {} walker-local charges)",
        reference.query_cost(),
        reference.len(),
        uncached_total.saturating_sub(reference.query_cost()),
        uncached_total,
    );
    assert!(
        reference.query_cost() <= uncached_total,
        "the pool must never pay more than uncached walkers would"
    );
}
