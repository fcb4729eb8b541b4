//! Cross-crate property-based tests on the core invariants of the
//! reproduction: graph structure, transition-matrix stochasticity, stationary
//! distributions, estimator unbiasedness bookkeeping, and sampler validity.
//!
//! The offline build has no proptest, so each property runs over a seeded
//! stream of randomized cases (24 per property, matching the previous
//! `ProptestConfig::with_cases(24)`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use walk_not_wait::analytics::bias::EmpiricalDistribution;
use walk_not_wait::graph::generators::random::{barabasi_albert, erdos_renyi};
use walk_not_wait::mcmc::distribution::TransitionMatrix;
use walk_not_wait::prelude::*;

const CASES: usize = 24;

/// Generators always produce simple undirected graphs: symmetric
/// adjacency, no self-loops, degree sum equals twice the edge count.
#[test]
fn prop_generated_graphs_are_simple_and_consistent() {
    let mut rng = StdRng::seed_from_u64(0x1A01);
    for _ in 0..CASES {
        let n = rng.gen_range(5usize..120);
        let m = rng.gen_range(1usize..4);
        let seed = rng.gen_range(0u64..1_000);
        let graph = barabasi_albert(n.max(m + 2), m, seed).unwrap();
        let degree_sum: usize = graph.nodes().map(|v| graph.degree(v)).sum();
        assert_eq!(degree_sum, 2 * graph.edge_count());
        for (u, v) in graph.edges() {
            assert!(u != v, "self-loop {u}");
            assert!(graph.has_edge(v, u), "missing reverse edge {v}->{u}");
        }
    }
}

/// Transition matrices are row-stochastic and keep their stationary
/// distribution fixed, for both walk designs and arbitrary graphs.
#[test]
fn prop_transition_matrices_are_stochastic_fixed_points() {
    let mut rng = StdRng::seed_from_u64(0x1A02);
    for _ in 0..CASES {
        let n = rng.gen_range(10usize..80);
        let p = rng.gen_range(0.05..0.4);
        let seed = rng.gen_range(0u64..500);
        let mhrw: bool = rng.gen();
        let graph = erdos_renyi(n, p, seed).unwrap();
        let kind = if mhrw {
            RandomWalkKind::MetropolisHastings
        } else {
            RandomWalkKind::Simple
        };
        let matrix = TransitionMatrix::new(&graph, kind);
        for v in graph.nodes() {
            let sum: f64 = matrix.row(v).iter().map(|&(_, p)| p).sum::<f64>() + matrix.self_loop(v);
            assert!((sum - 1.0).abs() < 1e-9, "row {v} sums to {sum}");
        }
        // Restrict the fixed-point check to connected graphs: the closed-form
        // stationary distribution assumes one.
        if walk_not_wait::graph::metrics::connected_components(&graph) == 1 {
            let pi = TransitionMatrix::stationary_distribution(&graph, kind);
            let next = matrix.step_distribution(&pi);
            for (a, b) in pi.iter().zip(&next) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }
}

/// Walk-length policies always resolve to at least one step and scale
/// monotonically with the diameter bound.
#[test]
fn prop_walk_length_policy_is_monotone() {
    let mut rng = StdRng::seed_from_u64(0x1A03);
    for _ in 0..CASES {
        let multiplier = rng.gen_range(1usize..5);
        let offset = rng.gen_range(0usize..5);
        let d1 = rng.gen_range(1usize..30);
        let d2 = rng.gen_range(1usize..30);
        let policy = WalkLengthPolicy::DiameterMultiple {
            multiplier,
            offset,
            assumed_diameter: 10,
        };
        let lo = d1.min(d2);
        let hi = d1.max(d2);
        assert!(policy.resolve(Some(lo)) >= 1);
        assert!(policy.resolve(Some(hi)) >= policy.resolve(Some(lo)));
    }
}

/// Every sample produced by WALK-ESTIMATE is a valid node, query costs
/// are monotone across samples, and the empirical distribution of the
/// samples is a probability distribution.
#[test]
fn prop_walk_estimate_samples_are_valid() {
    let mut rng = StdRng::seed_from_u64(0x1A04);
    for _ in 0..CASES {
        let n = rng.gen_range(30usize..150);
        let seed = rng.gen_range(0u64..200);
        let graph = barabasi_albert(n, 3, seed).unwrap();
        let osn = SimulatedOsn::new(graph.clone());
        let mut sampler = WalkEstimateSampler::new(
            osn,
            RandomWalkKind::Simple,
            WalkEstimateConfig::default().with_crawl_depth(1),
            seed,
        )
        .with_diameter_estimate(4);
        let run = collect_samples(&mut sampler, 8).unwrap();
        assert_eq!(run.len(), 8);
        let mut last_cost = 0;
        for s in &run.samples {
            assert!(graph.contains(s.node));
            assert!(s.query_cost >= last_cost);
            assert!(s.attempts >= 1);
            last_cost = s.query_cost;
        }
        let dist = EmpiricalDistribution::from_samples(graph.node_count(), &run.nodes());
        let sum: f64 = dist.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}

/// Shared/overlay history merging is order-independent: merging a random
/// set of per-walker histories into a `SharedWalkHistory` from 1, 2, or 4
/// threads (arbitrary arrival orders) always reproduces the counts of a
/// sequential width-1 oracle, and an overlay (shared + pending) is always
/// the exact sum of its layers.
#[test]
fn prop_shared_history_merge_is_order_independent_at_any_width() {
    use std::sync::Arc;
    use walk_not_wait::core::{HistoryView, OverlayHistory, SharedWalkHistory, WalkHistory};

    let mut rng = StdRng::seed_from_u64(0x1A06);
    for _ in 0..CASES {
        let walkers = rng.gen_range(2usize..6);
        // Each walker's batch of forward walks, with random lengths/nodes.
        let batches: Vec<Vec<Vec<NodeId>>> = (0..walkers)
            .map(|_| {
                (0..rng.gen_range(1usize..8))
                    .map(|_| {
                        (0..rng.gen_range(1usize..7))
                            .map(|_| NodeId(rng.gen_range(0u32..25)))
                            .collect()
                    })
                    .collect()
            })
            .collect();

        // Width-1 oracle: one private history records everything in order.
        let mut oracle = WalkHistory::new();
        for batch in &batches {
            for walk in batch {
                oracle.record_walk(walk);
            }
        }

        for width in [1usize, 2, 4] {
            let shared = Arc::new(SharedWalkHistory::new());
            std::thread::scope(|scope| {
                for chunk in batches.chunks(batches.len().div_ceil(width)) {
                    let shared = Arc::clone(&shared);
                    scope.spawn(move || {
                        for batch in chunk {
                            let mut local = WalkHistory::new();
                            for walk in batch {
                                local.record_walk(walk);
                            }
                            shared.merge(&local);
                        }
                    });
                }
            });
            assert_eq!(HistoryView::walk_count(&*shared), oracle.walk_count());
            for step in 0..oracle.max_recorded_length() + 1 {
                for node in 0..25u32 {
                    assert_eq!(
                        HistoryView::count_at(&*shared, NodeId(node), step),
                        oracle.count_at(NodeId(node), step),
                        "width {width} diverged at ({node}, {step})"
                    );
                }
            }
            // The export round-trips the same counts.
            let export = shared.export();
            assert_eq!(export.walk_count(), oracle.walk_count());
            assert_eq!(export.max_recorded_length(), oracle.max_recorded_length());

            // Overlay = shared + pending, exactly.
            let mut pending = WalkHistory::new();
            pending.record_walk(&[NodeId(rng.gen_range(0u32..25))]);
            let overlay = OverlayHistory::new(&shared, &pending);
            for node in 0..25u32 {
                assert_eq!(
                    overlay.count_at(NodeId(node), 0),
                    HistoryView::count_at(&*shared, NodeId(node), 0)
                        + pending.count_at(NodeId(node), 0)
                );
            }
        }
    }
}

/// The bulk history read agrees with a per-node reference on every layer:
/// for random walk sets, `add_counts_at` over a candidate slice (with
/// absent nodes, repeats, and steps past the recorded length) adds exactly
/// the count each layer defines node by node, computed here from the raw
/// walks: plain and shared histories count their walks, a published
/// snapshot counts the published walks, an overlay sums shared and pending
/// walks, and a seeded view adds the `ReuseCorrection` of the published
/// count to its live overlay.
#[test]
fn prop_bulk_history_reads_match_per_node_reference_on_every_layer() {
    use std::sync::Arc;
    use walk_not_wait::core::{
        HistoryHandle, HistoryKey, HistoryStore, HistoryView, ReuseCorrection, SharedWalkHistory,
        WalkHistory,
    };

    use rand::seq::SliceRandom;

    type Walks = Vec<Vec<NodeId>>;
    const NODES: u32 = 20;
    /// Walks that were at `node` at `step`.
    fn reference(walks: &[Vec<NodeId>], node: NodeId, step: usize) -> u64 {
        walks.iter().filter(|w| w.get(step) == Some(&node)).count() as u64
    }
    fn record(history: &mut WalkHistory, walks: &[Vec<NodeId>]) {
        for walk in walks {
            history.record_walk(walk);
        }
    }
    /// Checks one view: the bulk read adds `expected` into a pre-filled
    /// buffer, and `count_at` agrees node by node.
    fn check(
        layer: &str,
        view: &dyn HistoryView,
        candidates: &[NodeId],
        steps: usize,
        expected: impl Fn(NodeId, usize) -> u64,
    ) {
        for step in 0..steps {
            let mut out: Vec<u64> = (0..candidates.len() as u64).collect();
            view.add_counts_at(step, candidates, &mut out);
            for (i, (&node, &got)) in candidates.iter().zip(&out).enumerate() {
                let want = expected(node, step);
                assert_eq!(
                    got,
                    i as u64 + want,
                    "{layer}: bulk read at ({node}, {step})"
                );
                assert_eq!(view.count_at(node, step), want, "{layer}: ({node}, {step})");
            }
        }
    }

    let mut rng = StdRng::seed_from_u64(0x1A0B);
    for _ in 0..CASES {
        let mut walks = |max: usize| -> Walks {
            (0..rng.gen_range(0..max))
                .map(|_| {
                    (0..rng.gen_range(1usize..9))
                        .map(|_| NodeId(rng.gen_range(0..NODES)))
                        .collect()
                })
                .collect()
        };
        let (base, shared_walks, pending_walks) = (walks(12), walks(12), walks(5));
        // Known, absent (>= NODES) and repeated candidates, in random order.
        let mut candidates: Vec<NodeId> = (0..NODES + 4).map(NodeId).collect();
        candidates.push(NodeId(rng.gen_range(0..NODES)));
        candidates.shuffle(&mut rng);
        // Every layer is read 3 steps past its recorded length.
        let steps = 8 + 3;

        let mut local = WalkHistory::new();
        record(&mut local, &base);
        check("walk", &local, &candidates, steps, |v, t| {
            reference(&base, v, t)
        });

        let shared = Arc::new(SharedWalkHistory::new());
        let mut merged = WalkHistory::new();
        record(&mut merged, &shared_walks);
        shared.merge(&merged);
        check("shared", &*shared, &candidates, steps, |v, t| {
            reference(&shared_walks, v, t)
        });

        let store = HistoryStore::new();
        let key = HistoryKey {
            start: NodeId(0),
            kind: RandomWalkKind::Simple,
        };
        // An empty walk set is refused, and reads as an empty snapshot.
        store.publish(key, &local, 1);
        let frozen = store.snapshot(&key).unwrap_or_default();
        check("frozen", &*frozen, &candidates, steps, |v, t| {
            reference(&base, v, t)
        });

        let live =
            |v: NodeId, t: usize| reference(&shared_walks, v, t) + reference(&pending_walks, v, t);
        let mut overlay = HistoryHandle::shared(Arc::clone(&shared));
        for walk in &pending_walks {
            overlay.record_walk(walk);
        }
        check("overlay", &overlay.view(), &candidates, steps, live);

        for correction in [ReuseCorrection::Reweighted, ReuseCorrection::Raw] {
            let mut seeded =
                HistoryHandle::seeded(Arc::clone(&frozen), correction, Arc::clone(&shared));
            for walk in &pending_walks {
                seeded.record_walk(walk);
            }
            check(
                correction.label(),
                &seeded.view(),
                &candidates,
                steps,
                |v, t| correction.apply(reference(&base, v, t)) + live(v, t),
            );
        }
    }
}

/// A cooperative engine job's accepted-node multiset is pinned to the
/// width-1 oracle at pool widths 1, 2, and 4 — the engine-level face of the
/// merge-order independence above.
#[test]
fn prop_cooperative_jobs_match_width_one_oracle_at_widths_1_2_4() {
    let mut rng = StdRng::seed_from_u64(0x1A07);
    for _ in 0..4 {
        let n = rng.gen_range(150usize..400);
        let graph_seed = rng.gen_range(0u64..500);
        let samples = rng.gen_range(6usize..16);
        let walkers = rng.gen_range(2usize..5);
        let job_seed = rng.gen_range(0u64..1_000);
        let osn = SimulatedOsn::new(barabasi_albert(n, 3, graph_seed).unwrap());
        let job = SampleJob::walk_estimate(RandomWalkKind::Simple, samples, job_seed)
            .with_walkers(walkers)
            .with_history(HistoryMode::Cooperative)
            .with_diameter_estimate(4);
        let oracle = Engine::with_threads(1).run(&osn, &job).unwrap();
        for width in [2usize, 4] {
            osn.reset_counters();
            let run = Engine::with_threads(width).run(&osn, &job).unwrap();
            assert_eq!(
                oracle.sorted_nodes(),
                run.sorted_nodes(),
                "width {width} diverged for (n={n}, samples={samples}, walkers={walkers})"
            );
        }
    }
}

/// Aggregate estimators never produce values outside the range of the
/// observed sample values, whichever weighting scheme is used.
#[test]
fn prop_estimators_stay_within_observed_range() {
    let mut rng = StdRng::seed_from_u64(0x1A05);
    for _ in 0..CASES {
        let len = rng.gen_range(1usize..40);
        let values: Vec<(f64, usize)> = (0..len)
            .map(|_| (rng.gen_range(1.0..100.0), rng.gen_range(1usize..50)))
            .collect();
        let samples: Vec<SampleValue> = values
            .iter()
            .enumerate()
            .map(|(i, &(v, d))| SampleValue {
                node: NodeId::new(i),
                value: v,
                degree: d,
            })
            .collect();
        let lo = values.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
        let hi = values.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
        for scheme in [WeightingScheme::Uniform, WeightingScheme::InverseDegree] {
            let est = estimate_average(&samples, scheme);
            assert!(est >= lo - 1e-9 && est <= hi + 1e-9);
        }
    }
}
