//! Micro-benchmark: the history read of one weighted backward step.
//!
//! Every backward step of WALK-ESTIMATE with weighted sampling builds
//! `selection_distribution` over the current node's neighbors, reading the
//! historic visit count of each candidate at one step. This bench times
//! that call, in ns per candidate, over the three views a walker reads:
//!
//! * `Local` — a private `WalkHistory`;
//! * `Overlay` — a pool-shared `SharedWalkHistory` plus pending walks;
//! * `Seeded` — a frozen `HistoryStore` snapshot, reweighted, under the
//!   overlay: what a `shared_read` job on a hot start node reads.
//!
//! The history is shaped like a hot start node of a warm service: forward
//! simple random walks of the default length (21 steps) from one node of a
//! BA(20 000, 5) graph, most of them published, a few hundred shared and a
//! few pending. Candidate sets are the neighbor lists of nodes the walks
//! visited, which is where weighted backward walks go.
//!
//! It prints one line per view and a JSON summary line on stdout; it writes
//! no file. Set `WNW_BENCH_SMOKE=1` for a fast CI-sized run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use wnw_core::estimate::weighted::selection_distribution;
use wnw_core::{
    HistoryHandle, HistoryKey, HistoryStore, HistoryView, ReuseCorrection, SharedWalkHistory,
    WalkHistory,
};
use wnw_graph::generators::random::barabasi_albert;
use wnw_graph::{Graph, NodeId};
use wnw_mcmc::RandomWalkKind;

/// Forward-walk steps (the paper's default `2·D̄ + 1` with `D̄ = 10`).
const WALK_STEPS: usize = 21;
/// The weighted-sampling floor the samplers use.
const EPSILON: f64 = 0.1;

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
    let mut sink = 0.0;
    let mut pass = || {
        let started = Instant::now();
        for (step, candidates) in queries {
            sink += selection_distribution(candidates, *step, view, EPSILON)[0];
        }
        started.elapsed().as_nanos() as f64 / candidates as f64
    };
    pass(); // warm
    let mut samples: Vec<f64> = (0..rounds).map(|_| pass()).collect();
    assert!(sink > 0.0, "selection distributions were computed");
    samples.sort_by(f64::total_cmp);
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
    let mut overlay = HistoryHandle::shared(Arc::clone(&shared));
    let mut seeded =
        HistoryHandle::seeded(frozen, ReuseCorrection::Reweighted, Arc::clone(&shared));
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
    eprintln!(
        "history reads: {} backward steps, {mean_candidates:.1} candidates each",
        queries.len()
    );
    for (name, ns) in &views {
        eprintln!("  {name:<8} {ns:>8.2} ns/candidate");
    }
    let fields: Vec<String> = views
        .iter()
        .map(|(name, ns)| format!("\"{}_ns_per_candidate\":{ns:.2}", name.to_lowercase()))
        .collect();
    println!(
        "{{\"benchmark\":\"micro_history_reads\",\"smoke\":{},\"mean_candidates\":{mean_candidates:.1},{}}}",
        smoke(),
        fields.join(",")
    );
}
