//! # wnw-core — WALK-ESTIMATE
//!
//! The primary contribution of *"Walk, Not Wait: Faster Sampling Over Online
//! Social Networks"* (Nazi et al., VLDB 2015): a swap-in replacement for any
//! random-walk sampler that forgoes the long burn-in wait and instead
//!
//! 1. **WALK**s a short, fixed number of steps (about twice the graph
//!    diameter) to obtain a candidate node,
//! 2. **ESTIMATE**s the candidate's sampling probability `p_t(v)` with a
//!    provably unbiased backward random walk, sharpened by *initial
//!    crawling* and *weighted sampling*, and
//! 3. applies **acceptance-rejection sampling** to correct the short-walk
//!    distribution to the input walk's target distribution.
//!
//! Module map (mirrors the paper's structure):
//!
//! * [`ideal`] — IDEAL-WALK: the Theorem 1 cost model, the optimal walk
//!   length `t_opt` (Lambert W), and the exact per-graph cost curves used in
//!   the Section 4.2 case study (Figures 2–3);
//! * [`walk`] — the practical WALK component: walk-length policies
//!   (Section 4.3, default `2·D̄ + 1`);
//! * [`estimate`] — the ESTIMATE component: [`estimate::unbiased`]
//!   (Algorithm 1), [`estimate::crawl`] (initial crawling),
//!   [`estimate::weighted`] (Algorithm 2, WS-BW), and
//!   [`estimate::estimator`] (Algorithm 3: each candidate averages
//!   `backward_repetitions` backward walks);
//! * [`history`] — per-step visit counts of past forward walks, feeding the
//!   weighted-sampling heuristic;
//! * [`config`] / [`sampler`] — the assembled WALK-ESTIMATE sampler and its
//!   ablation variants (WE-None, WE-Crawl, WE-Weighted, WE), implementing the
//!   same [`Sampler`](wnw_mcmc::Sampler) trait as the traditional baselines.
//!
//! ```
//! use wnw_access::SimulatedOsn;
//! use wnw_core::{WalkEstimateConfig, WalkEstimateSampler};
//! use wnw_graph::generators::random::barabasi_albert;
//! use wnw_mcmc::{collect_samples, RandomWalkKind};
//!
//! let graph = barabasi_albert(500, 5, 7).unwrap();
//! let osn = SimulatedOsn::new(graph);
//! let config = WalkEstimateConfig::default();
//! let mut sampler = WalkEstimateSampler::new(
//!     osn, RandomWalkKind::MetropolisHastings, config, 42,
//! );
//! let run = collect_samples(&mut sampler, 10).unwrap();
//! assert_eq!(run.len(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod estimate;
pub mod history;
pub mod ideal;
pub mod sampler;
pub mod walk;

pub use config::{WalkEstimateConfig, WalkEstimateVariant};
pub use estimate::estimator::ProbabilityEstimator;
pub use history::{
    FrozenHistory, HistoryHandle, HistoryKey, HistoryStore, HistoryStoreStats, HistoryView,
    OverlayHistory, SharedWalkHistory, WalkHistory,
};
pub use ideal::IdealWalkAnalysis;
pub use sampler::WalkEstimateSampler;
pub use walk::WalkLengthPolicy;
