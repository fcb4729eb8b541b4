//! Dataset registry: the surrogate and synthetic graphs every figure draws
//! from, sized according to the experiment scale.
//!
//! Graphs are generated deterministically from fixed seeds and cached on
//! disk by default, so repeated `repro` invocations load instead of
//! regenerate — at paper scale, regeneration dominates a figure's runtime.
//! One cache serves every dataset: binary `.wnwcat` catalogs under
//! `wnw_catalog::catalog_dir()/experiments` (overridable via
//! `$WNW_CATALOG_DIR` or [`DatasetRegistry::with_cache_dir`]) —
//! checksummed, versioned, rebuilt-not-trusted on damage. The Figure 11
//! synthetic BA family and the exact-bias graph are
//! [`wnw_catalog::GraphSpec`]s; the attributed surrogates (Google-Plus-,
//! Yelp-, Twitter-like) go through the same
//! [`wnw_catalog::load_or_build_in`] routine, attribute columns included.
//!
//! A catalog stores a [`Graph`] exactly (adjacency, and every attribute
//! value bit for bit), so cached and freshly-generated runs walk identical
//! paths.

use crate::report::ExperimentScale;
use std::path::{Path, PathBuf};
use wnw_catalog::{catalog_dir, load_or_build_in, GraphModel, GraphSpec};
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

/// Builds (and optionally caches) the datasets used by the figures.
#[derive(Debug, Clone)]
pub struct DatasetRegistry {
    scale: ExperimentScale,
    cache_dir: Option<PathBuf>,
}

impl DatasetRegistry {
    /// A registry caching under the default catalog directory
    /// (`wnw_catalog::catalog_dir()/experiments`).
    pub fn new(scale: ExperimentScale) -> Self {
        DatasetRegistry {
            scale,
            cache_dir: Some(catalog_dir().join("experiments")),
        }
    }

    /// Moves the cache under `dir` instead of the default catalog directory.
    pub fn with_cache_dir(mut self, dir: impl AsRef<Path>) -> Self {
        self.cache_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Disables on-disk caching entirely; every dataset is regenerated.
    pub fn without_cache(mut self) -> Self {
        self.cache_dir = None;
        self
    }

    /// The scale this registry builds for.
    pub fn scale(&self) -> ExperimentScale {
        self.scale
    }

    /// Catalog cache for attributed surrogates: load `name`'s `.wnwcat`
    /// file if a valid one exists, otherwise generate and cache it.
    fn cached(&self, name: &str, build: impl FnOnce() -> Graph) -> Graph {
        match &self.cache_dir {
            Some(dir) => {
                load_or_build_in(dir, name, None, || Ok(build()))
                    .expect("building a surrogate cannot fail")
                    .0
            }
            None => build(),
        }
    }

    /// Catalog cache for the synthetic Barabási–Albert graphs.
    fn catalog(&self, name: &str, m: usize, n: usize, seed: u64) -> Graph {
        let spec = GraphSpec::new(name, GraphModel::BarabasiAlbert { m }, n, seed);
        match &self.cache_dir {
            Some(dir) => spec.load_or_build_in(dir).expect("valid graph spec").0,
            None => spec.build().expect("valid graph spec"),
        }
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
        let n = self.google_plus_size();
        let graph = self.cached(&format!("google_plus_{n}"), || {
            surrogate::google_plus_like(n, seeds::GOOGLE_PLUS)
                .expect("valid surrogate size")
                .graph
        });
        SurrogateDataset {
            name: "google-plus-like".into(),
            graph,
            paper_reference: "Google Plus crawl: 16,405 users, ~4.5M edges, avg degree 560.44",
        }
    }

    /// The Yelp-like surrogate dataset.
    pub fn yelp(&self) -> SurrogateDataset {
        let n = self.yelp_size();
        let graph = self.cached(&format!("yelp_{n}"), || {
            surrogate::yelp_like(n, seeds::YELP)
                .expect("valid surrogate size")
                .graph
        });
        SurrogateDataset {
            name: "yelp-like".into(),
            graph,
            paper_reference: "Yelp academic dataset user-user graph: ~120k nodes, ~954k edges",
        }
    }

    /// The Twitter-like surrogate dataset.
    pub fn twitter(&self) -> SurrogateDataset {
        let n = self.twitter_size();
        let graph = self.cached(&format!("twitter_{n}"), || {
            surrogate::twitter_like(n, seeds::TWITTER)
                .expect("valid surrogate size")
                .graph
        });
        SurrogateDataset {
            name: "twitter-like".into(),
            graph,
            paper_reference: "SNAP ego-Twitter: ~80k nodes, ~1.7M directed edges",
        }
    }

    /// A synthetic Barabási–Albert graph with `n` nodes and `m = 5`
    /// (Figure 11 / Section 7.1), served from the binary graph catalog.
    pub fn synthetic(&self, n: usize) -> Graph {
        self.catalog(&format!("synthetic_ba_{n}"), 5, n, seeds::SYNTHETIC)
    }

    /// The small scale-free graph used for the exact-bias study
    /// (paper: 1000 nodes, 6951 edges).
    pub fn exact_bias_graph(&self) -> Graph {
        let n = match self.scale {
            ExperimentScale::Quick => 200,
            _ => 1_000,
        };
        // m = 7 gives 1000·7 − O(m²) ≈ 6979 edges, closest to the paper's 6951.
        self.catalog(&format!("exact_bias_{n}"), 7, n, seeds::EXACT_BIAS)
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
        let reg = DatasetRegistry::new(ExperimentScale::Quick).without_cache();
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
        let reg = DatasetRegistry::new(ExperimentScale::Default).without_cache();
        let grid = reg.query_budget_grid(3_000);
        assert!(!grid.is_empty());
        assert!(grid.windows(2).all(|w| w[0] <= w[1]));
        let samples = reg.sample_count_grid();
        assert!(samples.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn synthetic_graphs_cache_as_binary_catalogs() {
        let dir =
            std::env::temp_dir().join(format!("wnw_dataset_catalog_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let reg = DatasetRegistry::new(ExperimentScale::Quick).with_cache_dir(&dir);
        let a = reg.synthetic(300);
        let spec = GraphSpec::new(
            "synthetic_ba_300",
            GraphModel::BarabasiAlbert { m: 5 },
            300,
            0,
        );
        assert!(spec.path_in(&dir).exists(), "catalog file must be written");
        // Second call loads the catalog; the uncached path regenerates.
        // All three must be the same graph.
        let b = reg.synthetic(300);
        let fresh = DatasetRegistry::new(ExperimentScale::Quick)
            .without_cache()
            .synthetic(300);
        assert_eq!(a, b);
        assert_eq!(a, fresh);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn surrogate_snapshots_still_cache_attributes() {
        let dir =
            std::env::temp_dir().join(format!("wnw_dataset_snapshot_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let reg = DatasetRegistry::new(ExperimentScale::Quick).with_cache_dir(&dir);
        let a = reg.yelp();
        let file = dir.join(format!(
            "yelp_{}-v{}.wnwcat",
            reg.yelp_size(),
            wnw_catalog::format::FORMAT_VERSION
        ));
        assert!(
            file.exists(),
            "the surrogate must cache as a .wnwcat catalog"
        );
        let b = reg.yelp();
        assert!(b.graph.attributes().column("stars").is_some());
        assert_eq!(
            a.graph, b.graph,
            "the cached catalog must carry the attribute columns"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cached_and_uncached_datasets_are_equal_at_quick_scale() {
        let dir =
            std::env::temp_dir().join(format!("wnw_dataset_equal_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let fresh = DatasetRegistry::new(ExperimentScale::Quick).without_cache();
        let cached = DatasetRegistry::new(ExperimentScale::Quick).with_cache_dir(&dir);
        // Twice through the cache: the cold call builds, the warm one loads.
        for _ in 0..2 {
            assert_eq!(cached.google_plus().graph, fresh.google_plus().graph);
            assert_eq!(cached.yelp().graph, fresh.yelp().graph);
            assert_eq!(cached.twitter().graph, fresh.twitter().graph);
            for n in fresh.synthetic_sizes() {
                assert_eq!(cached.synthetic(n), fresh.synthetic(n));
            }
            assert_eq!(cached.exact_bias_graph(), fresh.exact_bias_graph());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paper_scale_sizes_match_the_paper() {
        let reg = DatasetRegistry::new(ExperimentScale::Paper).without_cache();
        assert_eq!(reg.google_plus_size(), 16_405);
        assert_eq!(reg.yelp_size(), 120_000);
        assert_eq!(reg.twitter_size(), 81_306);
        assert_eq!(reg.synthetic_sizes(), vec![10_000, 15_000, 20_000]);
    }
}
