//! The ESTIMATE component (Section 5): estimating `p_t(v)` for a candidate
//! node `v` reached by a short forward walk.
//!
//! * [`unbiased`] — Algorithm 1 (UNBIASED-ESTIMATE): a backward random walk
//!   whose product of correction factors is a provably unbiased estimator of
//!   the sampling probability;
//! * [`crawl`] — the *initial crawling* heuristic: crawl the `h`-hop
//!   neighborhood of the starting node and compute exact probabilities
//!   within it, so backward walks can stop `h` steps early;
//! * [`weighted`] — the *weighted sampling* heuristic (Algorithm 2, WS-BW):
//!   bias backward steps toward neighbors that historic forward walks
//!   actually visited, with an importance-weighting correction that preserves
//!   unbiasedness;
//! * [`estimator`] — Algorithm 3: each candidate averages
//!   `backward_repetitions` backward estimates.

pub mod crawl;
pub mod estimator;
pub mod unbiased;
pub mod weighted;

pub use crawl::InitialCrawl;
pub use estimator::{ProbabilityEstimate, ProbabilityEstimator};
