//! Dataset registry: the surrogate and synthetic graphs every figure draws
//! from, sized according to the experiment scale.
//!
//! Every graph is a pure function of its generator and a fixed seed, so each
//! call regenerates it. The attributed surrogates (Google-Plus-, Yelp-,
//! Twitter-like) come from [`wnw_graph::generators::surrogate`]; the
//! Figure 11 synthetic family and the exact-bias graph are Barabási–Albert
//! graphs.

use crate::report::ExperimentScale;
use wnw_graph::generators::random::barabasi_albert;
use wnw_graph::generators::surrogate::{self, SurrogateDataset};
use wnw_graph::Graph;

/// Seeds fixed across the whole reproduction so results are repeatable.
pub mod seeds {
    /// Google-Plus-like surrogate seed.
    pub const GOOGLE_PLUS: u64 = 0x0601;
    /// Yelp-like surrogate seed.
    pub const YELP: u64 = 0x0702;
    /// Twitter-like surrogate seed.
    pub const TWITTER: u64 = 0x0803;
    /// Synthetic Barabási–Albert graphs (Figure 11).
    pub const SYNTHETIC: u64 = 0x0B0B;
    /// The 1000-node exact-bias graph (Figure 12 / Table 1).
    pub const EXACT_BIAS: u64 = 0x0C0C;
}

/// Builds the datasets used by the figures.
#[derive(Debug, Clone)]
pub struct DatasetRegistry {
    scale: ExperimentScale,
}

impl DatasetRegistry {
    /// A registry building datasets at `scale`.
    pub fn new(scale: ExperimentScale) -> Self {
        DatasetRegistry { scale }
    }

    /// The scale this registry builds for.
    pub fn scale(&self) -> ExperimentScale {
        self.scale
    }

    /// Node count of the Google-Plus-like surrogate at this scale
    /// (paper: 16 405 users).
    pub fn google_plus_size(&self) -> usize {
        match self.scale {
            ExperimentScale::Quick => 400,
            ExperimentScale::Default => 3_000,
            ExperimentScale::Paper => 16_405,
        }
    }

    /// Node count of the Yelp-like surrogate (paper: ~120 000 users).
    pub fn yelp_size(&self) -> usize {
        match self.scale {
            ExperimentScale::Quick => 500,
            ExperimentScale::Default => 6_000,
            ExperimentScale::Paper => 120_000,
        }
    }

    /// Node count of the Twitter-like surrogate (paper: ~80 000 users).
    pub fn twitter_size(&self) -> usize {
        match self.scale {
            ExperimentScale::Quick => 500,
            ExperimentScale::Default => 5_000,
            ExperimentScale::Paper => 81_306,
        }
    }

    /// Node counts of the synthetic Barabási–Albert graphs of Figure 11
    /// (paper: 10 000 / 15 000 / 20 000).
    pub fn synthetic_sizes(&self) -> Vec<usize> {
        match self.scale {
            ExperimentScale::Quick => vec![300, 450, 600],
            ExperimentScale::Default => vec![2_000, 3_000, 4_000],
            ExperimentScale::Paper => vec![10_000, 15_000, 20_000],
        }
    }

    /// The Google-Plus-like surrogate dataset.
    pub fn google_plus(&self) -> SurrogateDataset {
        surrogate::google_plus_like(self.google_plus_size(), seeds::GOOGLE_PLUS)
            .expect("valid surrogate size")
    }

    /// The Yelp-like surrogate dataset.
    pub fn yelp(&self) -> SurrogateDataset {
        surrogate::yelp_like(self.yelp_size(), seeds::YELP).expect("valid surrogate size")
    }

    /// The Twitter-like surrogate dataset.
    pub fn twitter(&self) -> SurrogateDataset {
        surrogate::twitter_like(self.twitter_size(), seeds::TWITTER).expect("valid surrogate size")
    }

    /// A synthetic Barabási–Albert graph with `n` nodes and `m = 5`
    /// (Figure 11 / Section 7.1).
    pub fn synthetic(&self, n: usize) -> Graph {
        barabasi_albert(n, 5, seeds::SYNTHETIC).expect("valid synthetic size")
    }

    /// The small scale-free graph used for the exact-bias study
    /// (paper: 1000 nodes, 6951 edges).
    pub fn exact_bias_graph(&self) -> Graph {
        let n = match self.scale {
            ExperimentScale::Quick => 200,
            _ => 1_000,
        };
        // m = 7 gives 1000·7 − O(m²) ≈ 6979 edges, closest to the paper's 6951.
        barabasi_albert(n, 7, seeds::EXACT_BIAS).expect("valid exact-bias size")
    }

    /// Query-cost grid (x-axis of the error-vs-cost figures), scaled to the
    /// dataset size so the largest budget explores a similar fraction of the
    /// graph as in the paper.
    pub fn query_budget_grid(&self, graph_size: usize) -> Vec<u64> {
        let max = (graph_size as f64 * 0.6) as u64;
        let points = match self.scale {
            ExperimentScale::Quick => 3,
            ExperimentScale::Default => 6,
            ExperimentScale::Paper => 10,
        };
        (1..=points)
            .map(|i| (max * i as u64) / points as u64)
            .map(|b| b.max(20))
            .collect()
    }

    /// Sample-count grid for the error-vs-samples figures (paper: up to 120).
    pub fn sample_count_grid(&self) -> Vec<usize> {
        match self.scale {
            ExperimentScale::Quick => vec![5, 10, 20],
            ExperimentScale::Default => vec![10, 20, 40, 80, 120],
            ExperimentScale::Paper => vec![10, 20, 40, 60, 80, 100, 120],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_datasets_build() {
        let reg = DatasetRegistry::new(ExperimentScale::Quick);
        let gp = reg.google_plus();
        assert_eq!(gp.graph.node_count(), reg.google_plus_size());
        assert!(gp
            .graph
            .attributes()
            .column("self_description_words")
            .is_some());
        let yelp = reg.yelp();
        assert!(yelp.graph.attributes().column("stars").is_some());
        let tw = reg.twitter();
        assert!(tw.graph.attributes().column("in_degree").is_some());
        assert!(tw.graph.node_count() > 0);
        assert_eq!(reg.synthetic_sizes().len(), 3);
        assert!(reg.exact_bias_graph().node_count() >= 200);
    }

    #[test]
    fn grids_are_monotone_and_nonempty() {
        let reg = DatasetRegistry::new(ExperimentScale::Default);
        let grid = reg.query_budget_grid(3_000);
        assert!(!grid.is_empty());
        assert!(grid.windows(2).all(|w| w[0] <= w[1]));
        let samples = reg.sample_count_grid();
        assert!(samples.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn paper_scale_sizes_match_the_paper() {
        let reg = DatasetRegistry::new(ExperimentScale::Paper);
        assert_eq!(reg.google_plus_size(), 16_405);
        assert_eq!(reg.yelp_size(), 120_000);
        assert_eq!(reg.twitter_size(), 81_306);
        assert_eq!(reg.synthetic_sizes(), vec![10_000, 15_000, 20_000]);
    }
}
