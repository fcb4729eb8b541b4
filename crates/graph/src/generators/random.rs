//! Random graph models.
//!
//! The key model here is [`barabasi_albert`] — the scale-free preferential
//! attachment model the paper uses both for its case study (Figures 1–3) and
//! for the synthetic experiments of Section 7 (10k–20k nodes, `m = 5`, and the
//! 1000-node exact-bias study). [`erdos_renyi`] and [`watts_strogatz`] round
//! out the test fixtures, and [`directed_preferential_attachment`] feeds the
//! Twitter surrogate (directed connections reduced to mutual undirected
//! edges, Section 2.1).
//!
//! Every generator ends in the crate's one CSR construction path: a counting
//! scatter of the edges into both endpoints' lists, then a per-node sort and
//! dedup. Most reach it through [`GraphBuilder`]; [`barabasi_albert`] hands
//! its endpoint pool over by value, because the pool already lists every
//! edge as an adjacent pair, so the largest graphs are built with one copy
//! of their edges and no global sort.

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::Result;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Erdős–Rényi `G(n, p)` random graph: every pair connected independently
/// with probability `p`.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Result<Graph> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidGeneratorParameters(format!(
            "edge probability must be in [0, 1], got {p}"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let expected = (p * (n * n.saturating_sub(1) / 2) as f64) as usize;
    let mut b = GraphBuilder::with_capacity(n, expected);
    b.ensure_nodes(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen::<f64>() < p {
                b.add_edge(i, j);
            }
        }
    }
    Ok(b.build())
}

/// Barabási–Albert preferential-attachment graph: starts from a small clique
/// of `m` nodes and attaches each new node to `m` existing nodes chosen with
/// probability proportional to their current degree.
///
/// This matches the paper's usage: `m = 3` for the 31-node case-study graphs
/// and `m = 5` for the 10k–20k synthetic social networks.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Result<Graph> {
    if m == 0 {
        return Err(GraphError::InvalidGeneratorParameters(
            "Barabási–Albert attachment count m must be at least 1".into(),
        ));
    }
    if n <= m {
        return Err(GraphError::InvalidGeneratorParameters(format!(
            "Barabási–Albert needs n > m (got n = {n}, m = {m})"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);

    // The pool holds one entry per edge endpoint, so sampling uniformly from
    // it realises degree-proportional (preferential) attachment. It lists
    // each edge as an adjacent pair, so it is also the CSR build's input.
    let mut endpoint_pool: Vec<u32> = Vec::with_capacity(2 * m * n);

    // Seed the process with a clique over the first m + 1 nodes so every
    // early node has nonzero degree.
    let seed_nodes = m + 1;
    for i in 0..seed_nodes {
        for j in (i + 1)..seed_nodes {
            endpoint_pool.extend([i as u32, j as u32]);
        }
    }

    let mut targets: Vec<u32> = Vec::with_capacity(m);
    for v in seed_nodes..n {
        targets.clear();
        // Draw m distinct targets by preferential attachment; rejection on
        // duplicates terminates quickly because m is tiny versus pool size,
        // and a linear scan of m ids beats hashing them.
        while targets.len() < m {
            let t = endpoint_pool[rng.gen_range(0..endpoint_pool.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        // Sort the chosen targets so the pool layout (and therefore the whole
        // generated graph) is a deterministic function of the seed.
        targets.sort_unstable();
        for &t in &targets {
            endpoint_pool.extend([v as u32, t]);
        }
    }
    Ok(Graph::from_endpoint_pairs(n, endpoint_pool))
}

/// Watts–Strogatz small-world graph: a ring lattice where each node connects
/// to its `k` nearest neighbors (k even), then each edge is rewired with
/// probability `beta`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Result<Graph> {
    if !k.is_multiple_of(2) || k == 0 {
        return Err(GraphError::InvalidGeneratorParameters(format!(
            "Watts–Strogatz neighbor count k must be even and positive, got {k}"
        )));
    }
    if k >= n {
        return Err(GraphError::InvalidGeneratorParameters(format!(
            "Watts–Strogatz needs k < n (got n = {n}, k = {k})"
        )));
    }
    if !(0.0..=1.0).contains(&beta) {
        return Err(GraphError::InvalidGeneratorParameters(format!(
            "rewiring probability must be in [0, 1], got {beta}"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: HashSet<(u32, u32)> = HashSet::with_capacity(n * k / 2);
    let key = |a: usize, b: usize| {
        let (x, y) = if a < b { (a, b) } else { (b, a) };
        (x as u32, y as u32)
    };
    for v in 0..n {
        for step in 1..=(k / 2) {
            edges.insert(key(v, (v + step) % n));
        }
    }
    // Rewire: for each lattice edge, with probability beta replace the far
    // endpoint by a uniformly random non-duplicate, non-self node.
    let lattice: Vec<(u32, u32)> = {
        let mut v: Vec<_> = edges.iter().copied().collect();
        v.sort_unstable();
        v
    };
    for (u, w) in lattice {
        if rng.gen::<f64>() < beta {
            // Pick a new endpoint for u.
            let mut tries = 0;
            loop {
                let cand = rng.gen_range(0..n) as u32;
                tries += 1;
                if cand != u && !edges.contains(&key(u as usize, cand as usize)) {
                    edges.remove(&(u, w));
                    edges.insert(key(u as usize, cand as usize));
                    break;
                }
                if tries > 32 {
                    break; // dense neighborhoods: keep the lattice edge
                }
            }
        }
    }
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    b.ensure_nodes(n);
    for (u, w) in edges {
        b.add_edge(u, w);
    }
    Ok(b.build())
}

/// A directed preferential-attachment edge list, used to build the Twitter
/// surrogate. Returns `(follower, followee)` pairs over `n` nodes where each
/// new node follows `m_out` earlier nodes chosen preferentially and is
/// followed back with probability `reciprocity`.
///
/// The undirected reduction (keep only mutual pairs) mirrors the common
/// practice cited in Section 2.1 of the paper.
pub fn directed_preferential_attachment(
    n: usize,
    m_out: usize,
    reciprocity: f64,
    seed: u64,
) -> Result<Vec<(u32, u32)>> {
    if m_out == 0 || n <= m_out {
        return Err(GraphError::InvalidGeneratorParameters(format!(
            "directed preferential attachment needs 0 < m_out < n (got n = {n}, m_out = {m_out})"
        )));
    }
    if !(0.0..=1.0).contains(&reciprocity) {
        return Err(GraphError::InvalidGeneratorParameters(format!(
            "reciprocity must be in [0, 1], got {reciprocity}"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(2 * m_out * n);
    let mut popularity_pool: Vec<u32> = Vec::with_capacity(2 * m_out * n);

    let seed_nodes = m_out + 1;
    for i in 0..seed_nodes {
        for j in 0..seed_nodes {
            if i != j {
                edges.push((i as u32, j as u32));
                popularity_pool.push(j as u32);
            }
        }
    }
    let mut followees: Vec<u32> = Vec::with_capacity(m_out);
    for v in seed_nodes..n {
        followees.clear();
        while followees.len() < m_out {
            let t = popularity_pool[rng.gen_range(0..popularity_pool.len())];
            if t as usize != v && !followees.contains(&t) {
                followees.push(t);
            }
        }
        // Deterministic ordering of the chosen followees keeps both the
        // reciprocity draws and the pool layout seed-reproducible.
        followees.sort_unstable();
        for &t in &followees {
            edges.push((v as u32, t));
            popularity_pool.push(t);
            if rng.gen::<f64>() < reciprocity {
                edges.push((t, v as u32));
                popularity_pool.push(v as u32);
            }
        }
    }
    edges.shuffle(&mut rng);
    Ok(edges)
}

/// Reduces a directed edge list to the undirected graph of *mutual* edges:
/// `{u, v}` exists iff both `u → v` and `v → u` are present (Section 2.1).
pub fn mutual_undirected(n: usize, directed_edges: &[(u32, u32)]) -> Graph {
    let set: HashSet<(u32, u32)> = directed_edges.iter().copied().collect();
    let mut b = GraphBuilder::with_capacity(n, directed_edges.len() / 2);
    b.ensure_nodes(n);
    for &(u, v) in &set {
        if u < v && set.contains(&(v, u)) {
            b.add_edge(u, v);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn erdos_renyi_extreme_probabilities() {
        let g0 = erdos_renyi(20, 0.0, 1).unwrap();
        assert_eq!(g0.edge_count(), 0);
        let g1 = erdos_renyi(20, 1.0, 1).unwrap();
        assert_eq!(g1.edge_count(), 20 * 19 / 2);
        assert!(erdos_renyi(10, 1.5, 1).is_err());
    }

    #[test]
    fn erdos_renyi_is_seed_deterministic() {
        let a = erdos_renyi(50, 0.1, 7).unwrap();
        let b = erdos_renyi(50, 0.1, 7).unwrap();
        assert_eq!(a.edge_count(), b.edge_count());
        let c = erdos_renyi(50, 0.1, 8).unwrap();
        // Different seeds almost surely give a different edge set; compare
        // the full adjacency to avoid a flaky equality-of-counts check.
        let same = a.nodes().all(|v| a.neighbors(v) == c.neighbors(v));
        assert!(!same || a.edge_count() == c.edge_count());
    }

    #[test]
    fn barabasi_albert_edge_count_and_connectivity() {
        let n = 200;
        let m = 3;
        let g = barabasi_albert(n, m, 42).unwrap();
        assert_eq!(g.node_count(), n);
        // Seed clique has C(m+1, 2) edges; every later node adds exactly m.
        let expected = (m + 1) * m / 2 + (n - m - 1) * m;
        assert_eq!(g.edge_count(), expected);
        assert_eq!(metrics::connected_components(&g), 1);
        assert!(g.min_degree() >= m);
    }

    #[test]
    fn barabasi_albert_rejects_bad_parameters() {
        assert!(barabasi_albert(5, 0, 1).is_err());
        assert!(barabasi_albert(3, 3, 1).is_err());
    }

    #[test]
    fn barabasi_albert_is_seed_deterministic() {
        let a = barabasi_albert(100, 3, 9).unwrap();
        let b = barabasi_albert(100, 3, 9).unwrap();
        assert!(a.nodes().all(|v| a.neighbors(v) == b.neighbors(v)));
    }

    #[test]
    fn barabasi_albert_degree_distribution_is_skewed() {
        let g = barabasi_albert(2000, 3, 11).unwrap();
        // Power-law-ish: the max degree should be far above the average.
        assert!(g.max_degree() as f64 > 5.0 * g.average_degree());
    }

    #[test]
    fn watts_strogatz_parameters_and_shape() {
        assert!(watts_strogatz(20, 3, 0.1, 1).is_err()); // odd k
        assert!(watts_strogatz(10, 10, 0.1, 1).is_err()); // k >= n
        assert!(watts_strogatz(10, 4, 1.5, 1).is_err()); // bad beta
        let g = watts_strogatz(100, 6, 0.1, 5).unwrap();
        assert_eq!(g.node_count(), 100);
        // Ring lattice starts with n*k/2 edges; rewiring preserves the count.
        assert_eq!(g.edge_count(), 100 * 6 / 2);
    }

    #[test]
    fn directed_pa_and_mutual_reduction() {
        let n = 300;
        let edges = directed_preferential_attachment(n, 4, 0.6, 3).unwrap();
        assert!(!edges.is_empty());
        let g = mutual_undirected(n, &edges);
        assert_eq!(g.node_count(), n);
        assert!(g.edge_count() > 0);
        // Every undirected edge must be backed by both directed arcs.
        let set: std::collections::HashSet<(u32, u32)> = edges.iter().copied().collect();
        for (u, v) in g.edges() {
            assert!(set.contains(&(u.0, v.0)) && set.contains(&(v.0, u.0)));
        }
    }

    #[test]
    fn directed_pa_rejects_bad_parameters() {
        assert!(directed_preferential_attachment(5, 0, 0.5, 1).is_err());
        assert!(directed_preferential_attachment(3, 3, 0.5, 1).is_err());
        assert!(directed_preferential_attachment(10, 2, 1.5, 1).is_err());
    }
}
