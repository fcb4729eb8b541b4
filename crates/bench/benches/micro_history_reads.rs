//! Micro-benchmark: the history read of one weighted backward step.
//!
//! Every backward step of WALK-ESTIMATE with weighted sampling builds
//! `selection_distribution` over the current node's neighbors, reading the
//! historic visit count of each candidate at one step. This bench times
//! that call, in ns per candidate, over the three views a walker reads:
//!
//! * `Local` — a private `WalkHistory`;
//! * `Overlay` — a pool-shared `SharedWalkHistory` plus pending walks;
//! * `Seeded` — the same overlay over a frozen `HistoryStore` snapshot read
//!   at half weight: what a `shared_read` job on a hot start node reads.
//!
//! The history is shaped like a hot start node of a warm service: forward
//! simple random walks of the default length (21 steps) from one node of a
//! BA(20 000, 5) graph, most of them published, a few hundred shared and a
//! few pending. Candidate sets are the neighbor lists of nodes the walks
//! visited, which is where weighted backward walks go. Each call writes into
//! one reused `SelectionBuffers`, as a walker's backward steps do.
//!
//! A last line times the whole backward step: `backward_estimate` over the
//! `Seeded` view, through a warm `MeteredNetwork<&CachedNetwork>` (a service
//! walker's view), with the default job's initial crawl (`h = 2`) and its
//! 5 walks per candidate sharing one `BackwardBuffers`. Candidates are
//! the end nodes of the live walks. It reports ns per backward step and the
//! view's lookups (`neighbor_list` calls, `api_calls`) per backward step.
//!
//! It prints one line per view and a JSON summary line on stdout; it writes
//! no file. Set `WNW_BENCH_SMOKE=1` for a fast CI-sized run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use wnw_access::cached::CachedNetwork;
use wnw_access::counter::QueryCounter;
use wnw_access::metered::MeteredNetwork;
use wnw_access::{SimulatedOsn, SocialNetwork};
use wnw_core::estimate::unbiased::{backward_estimate, BackwardBuffers, BackwardOptions};
use wnw_core::estimate::weighted::{selection_distribution, SelectionBuffers, EPSILON};
use wnw_core::estimate::InitialCrawl;
use wnw_core::{
    HistoryHandle, HistoryKey, HistoryStore, HistoryView, SharedWalkHistory, WalkHistory,
};
use wnw_graph::generators::random::barabasi_albert;
use wnw_graph::{Graph, NodeId};
use wnw_mcmc::RandomWalkKind;

/// Forward-walk steps (the paper's default `2·D̄ + 1` with `D̄ = 10`).
const WALK_STEPS: usize = 21;
/// The default job's initial-crawl depth `h`.
const CRAWL_DEPTH: usize = 2;
/// The default job's backward walks per candidate.
const WALKS_PER_CANDIDATE: usize = 5;

fn smoke() -> bool {
    std::env::var_os("WNW_BENCH_SMOKE").is_some()
}

/// One forward simple random walk of `WALK_STEPS` steps from `start`.
fn forward_walk(graph: &Graph, start: NodeId, rng: &mut StdRng) -> Vec<NodeId> {
    let mut path = Vec::with_capacity(WALK_STEPS + 1);
    path.push(start);
    let mut current = start;
    for _ in 0..WALK_STEPS {
        let neighbors = graph.neighbors(current);
        current = neighbors[rng.gen_range(0..neighbors.len())];
        path.push(current);
    }
    path
}

fn walks(graph: &Graph, start: NodeId, count: usize, rng: &mut StdRng) -> Vec<Vec<NodeId>> {
    (0..count)
        .map(|_| forward_walk(graph, start, rng))
        .collect()
}

/// Median over `rounds` timed passes of `selection_distribution` over every
/// query, in ns per candidate.
fn ns_per_candidate(
    view: &dyn HistoryView,
    queries: &[(usize, Vec<NodeId>)],
    rounds: usize,
) -> f64 {
    let candidates: usize = queries.iter().map(|(_, c)| c.len()).sum();
    let mut buffers = SelectionBuffers::default();
    let mut sink = 0.0;
    let mut pass = || {
        let started = Instant::now();
        for (step, candidates) in queries {
            sink += selection_distribution(candidates, *step, view, EPSILON, &mut buffers)[0];
        }
        started.elapsed().as_nanos() as f64 / candidates as f64
    };
    pass(); // warm
    let mut samples: Vec<f64> = (0..rounds).map(|_| pass()).collect();
    assert!(sink > 0.0, "selection distributions were computed");
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median over `rounds` timed passes of the default job's backward walks
/// for every candidate, with the lookups the view answered per step:
/// `(ns per step, lookups per step)`.
fn backward_step<N: SocialNetwork>(
    view: &N,
    history: &dyn HistoryView,
    crawl: &InitialCrawl,
    candidates: &[NodeId],
    rounds: usize,
) -> (f64, f64) {
    let options = BackwardOptions {
        crawl: Some(crawl),
        weighting: Some(history),
    };
    // Simple-random-walk factors never vanish, so each walk steps back from
    // `WALK_STEPS` until the crawl answers at `CRAWL_DEPTH`.
    let steps = (candidates.len() * WALKS_PER_CANDIDATE * (WALK_STEPS - CRAWL_DEPTH)) as f64;
    let mut buffers = BackwardBuffers::default();
    let mut sink = 0.0;
    let mut pass = || {
        let mut rng = StdRng::seed_from_u64(0xBAC0);
        let calls = view.query_stats().api_calls;
        let started = Instant::now();
        for &node in candidates {
            buffers.hold_node_list(node, None);
            for _ in 0..WALKS_PER_CANDIDATE {
                sink += backward_estimate(
                    view,
                    RandomWalkKind::Simple,
                    node,
                    crawl.start(),
                    WALK_STEPS,
                    options,
                    &mut buffers,
                    &mut rng,
                )
                .expect("unlimited view");
            }
        }
        let ns = started.elapsed().as_nanos() as f64 / steps;
        (ns, (view.query_stats().api_calls - calls) as f64 / steps)
    };
    pass(); // warm: every later pass repeats its walks on cached lists
    let mut samples: Vec<(f64, f64)> = (0..rounds).map(|_| pass()).collect();
    assert!(sink > 0.0, "backward estimates were computed");
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    samples[samples.len() / 2]
}

fn main() {
    let (published, shared_walks, pending_walks, query_count, rounds) = if smoke() {
        (300, 50, 5, 500, 3)
    } else {
        (3_000, 300, 10, 4_000, 15)
    };
    let graph = barabasi_albert(20_000, 5, 0x5EED).expect("valid BA parameters");
    let mut rng = StdRng::seed_from_u64(0x4157);
    let start = NodeId(rng.gen_range(0..graph.node_count() as u32));

    let base = walks(&graph, start, published, &mut rng);
    let live = walks(&graph, start, shared_walks + pending_walks, &mut rng);
    let (merged, pending) = live.split_at(shared_walks);

    let mut published_history = WalkHistory::new();
    for walk in &base {
        published_history.record_walk(walk);
    }
    let store = HistoryStore::new();
    let key = HistoryKey {
        start,
        kind: RandomWalkKind::Simple,
    };
    assert!(
        store.publish(key, &published_history, 1),
        "publication accepted"
    );
    let frozen = store.snapshot(&key).expect("published key hits");

    let shared = SharedWalkHistory::shared();
    for walk in merged {
        shared.record_walk(walk);
    }
    // A single walker's private history holds every walk.
    let mut local = HistoryHandle::default();
    let mut overlay = HistoryHandle::shared(Arc::clone(&shared), None);
    let mut seeded = HistoryHandle::shared(Arc::clone(&shared), Some(frozen));
    for walk in base.iter().chain(&live) {
        local.record_walk(walk);
    }
    for walk in pending {
        overlay.record_walk(walk);
        seeded.record_walk(walk);
    }

    // A backward step at forward step `t + 1` stands on a node the walks
    // visited there and reads its neighbors' counts at step `t`.
    let queries: Vec<(usize, Vec<NodeId>)> = (0..query_count)
        .map(|_| {
            let walk = &live[rng.gen_range(0..live.len())];
            let step = rng.gen_range(0..WALK_STEPS);
            (step, graph.neighbors(walk[step + 1]).to_vec())
        })
        .collect();
    let mean_candidates =
        queries.iter().map(|(_, c)| c.len()).sum::<usize>() as f64 / queries.len() as f64;

    let views = [
        ("Local", ns_per_candidate(&local.view(), &queries, rounds)),
        (
            "Overlay",
            ns_per_candidate(&overlay.view(), &queries, rounds),
        ),
        ("Seeded", ns_per_candidate(&seeded.view(), &queries, rounds)),
    ];
    // The whole backward step over a service walker's view of a warm cache.
    let cache = CachedNetwork::new(SimulatedOsn::new(graph.clone()));
    let view = MeteredNetwork::new(&cache, Arc::new(QueryCounter::unlimited()));
    let crawl = InitialCrawl::build(&view, RandomWalkKind::Simple, start, CRAWL_DEPTH)
        .expect("unlimited view");
    let ends: Vec<NodeId> = live.iter().map(|walk| walk[WALK_STEPS]).collect();
    let (step_ns, step_lookups) = backward_step(&view, &seeded.view(), &crawl, &ends, rounds);

    eprintln!(
        "history reads: {} backward steps, {mean_candidates:.1} candidates each",
        queries.len()
    );
    for (name, ns) in &views {
        eprintln!("  {name:<8} {ns:>8.2} ns/candidate");
    }
    eprintln!(
        "backward_estimate (Seeded, warm MeteredNetwork<&CachedNetwork>): {} candidates × {WALKS_PER_CANDIDATE} walks",
        ends.len()
    );
    eprintln!("  {step_ns:>8.1} ns/step  {step_lookups:.3} lookups/step");
    let mut fields: Vec<String> = views
        .iter()
        .map(|(name, ns)| format!("\"{}_ns_per_candidate\":{ns:.2}", name.to_lowercase()))
        .collect();
    fields.push(format!("\"backward_ns_per_step\":{step_ns:.1}"));
    fields.push(format!("\"backward_lookups_per_step\":{step_lookups:.4}"));
    println!(
        "{{\"benchmark\":\"micro_history_reads\",\"smoke\":{},\"mean_candidates\":{mean_candidates:.1},{}}}",
        smoke(),
        fields.join(",")
    );
}
