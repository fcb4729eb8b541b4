//! Micro-benchmark: one warm random-walk step through each layer of the
//! access stack, in ns per step.
//!
//! A simple random walk on BA(100 000, 3) takes its steps through
//! `wnw_mcmc::walker::step` over four layers:
//!
//! * `graph` — `Graph::neighbors` directly, the raw lookup;
//! * `simulated_osn` — the `SimulatedOsn` backend;
//! * `cached_hit` — a warm `CachedNetwork` over the backend, every step a
//!   cache hit;
//! * `service_view` — what a service walker reads through:
//!   `MeteredNetwork<Arc<CachedNetwork<Arc<SimulatedOsn>>>>`, a per-walker
//!   budget view over the shared cache that charges its first visits to the
//!   job's query-cost ledger.
//!
//! Each layer runs at 1, 2 and 4 threads. The threads share the layer (one
//! backend, one cache, one job ledger) and walk at the same time, so the
//! shared locks contend; a thread in the service view has its own walker
//! view, as each walker does. Every thread walks its seeded walk once to
//! warm every layer, then walks it again timed: the same steps, now all
//! answered from warm state. The figure is the median over the threads and
//! over the passes of wall-clock ns per step.
//!
//! It prints a table on stderr and a JSON summary line on stdout; it writes
//! no file. Set `WNW_BENCH_SMOKE=1` for a fast CI-sized run.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::{Arc, Barrier};
use std::time::Instant;
use wnw_access::cached::CachedNetwork;
use wnw_access::counter::{QueryBudget, QueryCounter};
use wnw_access::metered::MeteredNetwork;
use wnw_access::{SimulatedOsn, SocialNetwork};
use wnw_graph::generators::random::barabasi_albert;
use wnw_graph::{Graph, NodeId};
use wnw_mcmc::walker::step;
use wnw_mcmc::RandomWalkKind;

/// Threads walking one layer at the same time.
const THREADS: [usize; 3] = [1, 2, 4];

fn smoke() -> bool {
    std::env::var_os("WNW_BENCH_SMOKE").is_some()
}

/// A walk through the access interface, as a walker takes it.
fn walk_network<N: SocialNetwork + ?Sized>(osn: &N, start: NodeId, steps: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = start;
    for _ in 0..steps {
        current = step(osn, RandomWalkKind::Simple, current, &mut rng).expect("warm step");
    }
    std::hint::black_box(current);
}

/// The same walk on the graph itself: the same uniform choice, no
/// interface.
fn walk_graph(graph: &Graph, start: NodeId, steps: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = start;
    for _ in 0..steps {
        current = *graph
            .neighbors(current)
            .choose(&mut rng)
            .expect("BA nodes have neighbors");
    }
    std::hint::black_box(current);
}

/// Median ns per step of `threads` threads walking at once, over `passes`
/// passes. Thread `t` builds its view with `view(t)` and walks with seed
/// `t`; each pass walks once untimed to warm, then once timed.
fn ns_per_step<V>(
    threads: usize,
    passes: usize,
    steps: usize,
    view: impl Fn(usize) -> V + Sync,
    walk: impl Fn(&V, NodeId, usize, u64) + Sync,
) -> f64 {
    let barrier = Barrier::new(threads);
    let mut samples: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (barrier, view, walk) = (&barrier, &view, &walk);
                scope.spawn(move || {
                    let view = view(t);
                    let (start, seed) = (NodeId(t as u32), 0x5717 + t as u64);
                    (0..passes)
                        .map(|_| {
                            walk(&view, start, steps, seed);
                            barrier.wait();
                            let started = Instant::now();
                            walk(&view, start, steps, seed);
                            let ns = started.elapsed().as_nanos() as f64 / steps as f64;
                            barrier.wait();
                            ns
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("walker thread"))
            .collect()
    });
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let (nodes, steps, passes) = if smoke() {
        (5_000, 5_000, 1)
    } else {
        (100_000, 200_000, 5)
    };
    let graph = barabasi_albert(nodes, 3, 0xAC55).expect("valid BA parameters");
    let osn = Arc::new(SimulatedOsn::new(graph.clone()));
    let cache = Arc::new(CachedNetwork::new(Arc::new(SimulatedOsn::new(
        graph.clone(),
    ))));
    let service_cache = Arc::new(CachedNetwork::new(Arc::new(SimulatedOsn::new(
        graph.clone(),
    ))));
    let ledger = Arc::new(QueryCounter::unlimited());

    let mut rows: Vec<(&str, Vec<f64>)> = Vec::new();
    let per_threads = |f: &dyn Fn(usize) -> f64| THREADS.iter().map(|&t| f(t)).collect();
    rows.push((
        "graph",
        per_threads(&|t| {
            ns_per_step(
                t,
                passes,
                steps,
                |_| &graph,
                |g, s, n, r| walk_graph(g, s, n, r),
            )
        }),
    ));
    rows.push((
        "simulated_osn",
        per_threads(&|t| ns_per_step(t, passes, steps, |_| Arc::clone(&osn), walk_network)),
    ));
    rows.push((
        "cached_hit",
        per_threads(&|t| ns_per_step(t, passes, steps, |_| Arc::clone(&cache), walk_network)),
    ));
    rows.push((
        "service_view",
        per_threads(&|t| {
            ns_per_step(
                t,
                passes,
                steps,
                |_| {
                    MeteredNetwork::with_budget(
                        Arc::clone(&service_cache),
                        QueryBudget::UNLIMITED,
                        Arc::clone(&ledger),
                    )
                },
                walk_network,
            )
        }),
    ));

    eprintln!(
        "access stack: BA({nodes}, 3), {steps} warm steps per thread, median of {passes} passes"
    );
    eprintln!(
        "  {:<14} {:>10} {:>10} {:>10}",
        "layer", "1 thread", "2 threads", "4 threads"
    );
    for (name, ns) in &rows {
        eprintln!(
            "  {name:<14} {:>10.1} {:>10.1} {:>10.1}",
            ns[0], ns[1], ns[2]
        );
    }
    let fields: Vec<String> = rows
        .iter()
        .map(|(name, ns)| {
            let per: Vec<String> = THREADS
                .iter()
                .zip(ns)
                .map(|(t, ns)| format!("\"{t}\":{ns:.1}"))
                .collect();
            format!("\"{name}\":{{{}}}", per.join(","))
        })
        .collect();
    println!(
        "{{\"benchmark\":\"micro_access_stack\",\"smoke\":{},\"unit\":\"ns per step\",\"threads\":[1,2,4],{}}}",
        smoke(),
        fields.join(",")
    );
}
