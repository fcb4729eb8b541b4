//! Surrogate datasets standing in for the paper's real-world crawls.
//!
//! The paper evaluates WALK-ESTIMATE on three crawled graphs that are not
//! redistributable (Google Plus crawl, Yelp academic dataset, SNAP
//! ego-Twitter). This module is the substitution, and this doc is its
//! rationale: it builds synthetic graphs that match the *properties the
//! sampling algorithms actually interact with*:
//!
//! * degree distribution shape (heavy-tailed, preferential attachment),
//! * average degree / density,
//! * small diameter,
//! * node attributes with realistic variance (star ratings, self-description
//!   length, in/out-degree),
//!
//! because SRW/MHRW/WE only see the graph through `neighbors(v)` and read the
//! attribute of sampled nodes. Absolute error numbers differ from the paper;
//! the comparisons (who wins at a given query budget, how heuristics rank)
//! are preserved.
//!
//! Each generator accepts a node count so experiments can be run scaled down
//! (default) or at paper scale (16 405 / 120 000 / 81 306 nodes).

use crate::error::GraphError;
use crate::generators::random::{
    barabasi_albert, directed_preferential_attachment, mutual_undirected,
};
use crate::graph::Graph;
use crate::metrics;
use crate::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Attribute name for the Yelp-like star rating (1.0–5.0).
pub const ATTR_STARS: &str = "stars";
/// Attribute name for the Google-Plus-like self-description word count.
pub const ATTR_SELF_DESCRIPTION_WORDS: &str = "self_description_words";
/// Attribute name for the Twitter-like in-degree (followers).
pub const ATTR_IN_DEGREE: &str = "in_degree";
/// Attribute name for the Twitter-like out-degree (followees).
pub const ATTR_OUT_DEGREE: &str = "out_degree";

/// A surrogate dataset: the graph plus its provenance metadata.
#[derive(Debug, Clone)]
pub struct SurrogateDataset {
    /// Human-readable name ("google-plus-like", ...).
    pub name: String,
    /// The generated graph (largest connected component, attributes attached).
    pub graph: Graph,
    /// What the paper reports for the real dataset, for the record.
    pub paper_reference: &'static str,
}

/// Restricts a graph to its largest connected component, remapping node ids
/// to a dense range and carrying attributes over.
///
/// The paper's Yelp experiment explicitly uses "the largest connected
/// component of the user-user graph"; random-walk sampling in general is only
/// well-defined on a connected graph.
pub fn largest_connected_component(g: &Graph) -> Graph {
    metrics::largest_connected_component(g)
}

/// Google-Plus-like surrogate.
///
/// Paper reference: 16 405 users, > 4.5M connections, average degree 560.44,
/// with a free-text self-description per user whose word count is averaged in
/// Figure 6(b)/(d).
///
/// Construction: dense Barabási–Albert graph with `m ≈ avg_degree / 2`
/// (preferential attachment reproduces the heavy-tailed follower counts of a
/// celebrity-seeded crawl), plus a `self_description_words` attribute that is
/// mildly correlated with degree (popular accounts tend to fill in profiles)
/// with high dispersion.
pub fn google_plus_like(n: usize, seed: u64) -> Result<SurrogateDataset> {
    // Average degree ≈ 2m. The real crawl has ~560 over 16 405 users; scaled
    //-down surrogates keep the *density ratio* (avg degree / node count)
    // rather than the absolute degree, so query budgets, crawl costs and
    // walk behaviour stay proportionate to the paper's setting.
    let target_avg_degree = (560.0 * n as f64 / 16_405.0).clamp(8.0, 560.0);
    let m = ((target_avg_degree / 2.0).round() as usize).max(4);
    if n <= m + 1 {
        return Err(GraphError::InvalidGeneratorParameters(format!(
            "google_plus_like needs n > {m}, got {n}"
        )));
    }
    let mut graph = barabasi_albert(n, m, seed)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let words: Vec<f64> = graph
        .nodes()
        .map(|v| {
            let degree_boost = (graph.degree(v) as f64 + 1.0).ln();
            let base = rng.gen_range(0.0..40.0);
            let verbose = if rng.gen::<f64>() < 0.2 {
                rng.gen_range(40.0..200.0)
            } else {
                0.0
            };
            (base + 3.0 * degree_boost + verbose).round()
        })
        .collect();
    graph.set_attribute(ATTR_SELF_DESCRIPTION_WORDS, words)?;
    Ok(SurrogateDataset {
        name: "google-plus-like".into(),
        graph,
        paper_reference:
            "Google Plus crawl: 16,405 users, ~4.5M edges, avg degree 560.44, self-description text",
    })
}

/// Yelp-like surrogate.
///
/// Paper reference: largest connected component of the user-user
/// co-review graph, ~120 000 nodes, > 954 000 edges (avg degree ≈ 15.9),
/// star rating per user (Figure 7).
///
/// Construction: sparse Barabási–Albert graph (`m = 8`) restricted to its
/// largest connected component, plus a `stars` attribute in `[1, 5]` with the
/// bulk of the mass between 3 and 4.5 and a weak degree correlation (active
/// reviewers converge to the mean).
pub fn yelp_like(n: usize, seed: u64) -> Result<SurrogateDataset> {
    let m = 8usize;
    if n <= m + 1 {
        return Err(GraphError::InvalidGeneratorParameters(format!(
            "yelp_like needs n > {m}, got {n}"
        )));
    }
    let base = barabasi_albert(n, m, seed)?;
    let mut graph = largest_connected_component(&base);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51_7c_c1_b7_27_22_0a_95);
    let stars: Vec<f64> = graph
        .nodes()
        .map(|v| {
            let d = graph.degree(v) as f64;
            // Heavier reviewers regress toward 3.7; casual ones are noisier.
            let spread = 1.6 / (1.0 + (d / 50.0));
            let raw = 3.7 + rng.gen_range(-spread..spread);
            (raw.clamp(1.0, 5.0) * 2.0).round() / 2.0 // half-star precision
        })
        .collect();
    graph.set_attribute(ATTR_STARS, stars)?;
    Ok(SurrogateDataset {
        name: "yelp-like".into(),
        graph,
        paper_reference:
            "Yelp academic dataset user-user graph: ~120k nodes, ~954k edges, star ratings",
    })
}

/// Twitter-like surrogate.
///
/// Paper reference: SNAP ego-Twitter, ~80 000 nodes, > 1.7M edges, reduced to
/// an undirected graph of mutual follows; Figure 8 averages in-degree,
/// out-degree and local clustering coefficient.
///
/// Construction: directed preferential attachment with reciprocity 0.55,
/// reduced to mutual edges, restricted to the largest connected component.
/// The original in/out-degrees are attached as attributes so the Figure 8
/// aggregates can be estimated.
pub fn twitter_like(n: usize, seed: u64) -> Result<SurrogateDataset> {
    let m_out = 12usize;
    if n <= m_out + 1 {
        return Err(GraphError::InvalidGeneratorParameters(format!(
            "twitter_like needs n > {m_out}, got {n}"
        )));
    }
    let directed = directed_preferential_attachment(n, m_out, 0.55, seed)?;
    let mut in_deg = vec![0.0f64; n];
    let mut out_deg = vec![0.0f64; n];
    for &(u, v) in &directed {
        out_deg[u as usize] += 1.0;
        in_deg[v as usize] += 1.0;
    }
    let full = mutual_undirected(n, &directed);
    // Attach attributes before taking the component so the remapping carries
    // the correct per-node values along.
    let mut full = full;
    full.set_attribute(ATTR_IN_DEGREE, in_deg)?;
    full.set_attribute(ATTR_OUT_DEGREE, out_deg)?;
    let graph = largest_connected_component(&full);
    Ok(SurrogateDataset {
        name: "twitter-like".into(),
        graph,
        paper_reference:
            "SNAP ego-Twitter: ~80k nodes, ~1.7M directed edges, reduced to mutual undirected edges",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn google_plus_like_is_dense_and_connected() {
        let ds = google_plus_like(400, 1).unwrap();
        let g = &ds.graph;
        assert_eq!(metrics::connected_components(g), 1);
        // Density ratio matches the real crawl: 560/16405 ≈ 3.4% of nodes.
        assert!(
            g.average_degree() > 0.02 * g.node_count() as f64,
            "avg degree {}",
            g.average_degree()
        );
        let col = g.attributes().column(ATTR_SELF_DESCRIPTION_WORDS).unwrap();
        assert_eq!(col.len(), g.node_count());
        assert!(col.mean() > 0.0);
    }

    #[test]
    fn yelp_like_has_bounded_stars() {
        let ds = yelp_like(500, 2).unwrap();
        let g = &ds.graph;
        assert_eq!(metrics::connected_components(g), 1);
        let stars = g.attributes().column(ATTR_STARS).unwrap();
        assert!(stars.as_slice().iter().all(|&s| (1.0..=5.0).contains(&s)));
        assert!(stars.mean() > 2.5 && stars.mean() < 4.5);
    }

    #[test]
    fn twitter_like_keeps_direction_attributes() {
        let ds = twitter_like(600, 3).unwrap();
        let g = &ds.graph;
        assert_eq!(metrics::connected_components(g), 1);
        assert!(g.attributes().column(ATTR_IN_DEGREE).is_some());
        assert!(g.attributes().column(ATTR_OUT_DEGREE).is_some());
        // In-degree mass equals out-degree mass in the directed model only
        // over the full node set; after LCC restriction both remain positive.
        assert!(g.attributes().column(ATTR_IN_DEGREE).unwrap().mean() > 0.0);
        assert!(g.attributes().column(ATTR_OUT_DEGREE).unwrap().mean() > 0.0);
    }

    #[test]
    fn surrogates_are_seed_deterministic() {
        let a = yelp_like(300, 9).unwrap();
        let b = yelp_like(300, 9).unwrap();
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        assert_eq!(
            a.graph.attributes().column(ATTR_STARS).unwrap(),
            b.graph.attributes().column(ATTR_STARS).unwrap()
        );
    }

    #[test]
    fn surrogates_reject_tiny_sizes() {
        assert!(google_plus_like(3, 1).is_err());
        assert!(yelp_like(5, 1).is_err());
        assert!(twitter_like(5, 1).is_err());
    }
}
