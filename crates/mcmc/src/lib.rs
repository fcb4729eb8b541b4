//! # wnw-mcmc
//!
//! Random-walk (MCMC) machinery for the reproduction of *"Walk, Not Wait"*
//! (Nazi et al., VLDB 2015): the traditional samplers the paper compares
//! against, and the analytical tools both the paper's theory and our
//! experiments need.
//!
//! * [`transition`] — transition designs: Simple Random Walk (SRW) and
//!   Metropolis–Hastings Random Walk (MHRW) per Definitions 1–2, including
//!   their target (stationary) distributions;
//! * [`walker`] — forward random walks executed against the restricted
//!   [`SocialNetwork`](wnw_access::SocialNetwork) interface;
//! * [`distribution`] — exact ground-truth computations on small graphs:
//!   the transition matrix, distribution evolution `p_t`, stationary
//!   distributions, the relative point-wise distance Δ(t) of Definition 3,
//!   and distribution distances (ℓ∞, total variation, KL);
//! * [`spectral`] — the spectral gap `λ = 1 − s₂` via power iteration with
//!   deflation on the reversible chain's symmetrised kernel;
//! * [`convergence`] — the Geweke convergence monitor used to decide burn-in
//!   on-the-fly (Section 2.2.3);
//! * [`rejection`] — acceptance-rejection sampling with the scaling-factor
//!   policies of Sections 2.3 / 6.3.2;
//! * [`burn_in`] — the baseline samplers: *many short runs* (one sample per
//!   converged walk) and *one long run* (correlated samples after one
//!   burn-in), plus effective sample size (Section 6.1);
//! * [`sampler`] — the `Sampler` trait shared with `wnw-core`, so
//!   WALK-ESTIMATE is a literal swap-in replacement for these baselines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod burn_in;
pub mod convergence;
pub mod distribution;
pub mod rejection;
pub mod sampler;
pub mod spectral;
pub mod transition;
pub mod walker;

pub use burn_in::{effective_sample_size, ManyShortRunsSampler, OneLongRunSampler};
pub use convergence::{GewekeMonitor, GewekeOutcome};
pub use distribution::TransitionMatrix;
pub use rejection::{acceptance_probability, ScalingFactorPolicy};
pub use sampler::{collect_samples, SampleRecord, Sampler, SamplerRunSummary};
pub use spectral::spectral_gap;
pub use transition::{RandomWalkKind, TargetDistribution};
pub use walker::{random_walk, ForwardWalk};
