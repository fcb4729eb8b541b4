//! # wnw-analytics
//!
//! Numerics and analytics for the reproduction of *"Walk, Not Wait"*
//! (Nazi et al., VLDB 2015).
//!
//! * [`numeric`] — the Lambert W function (both real branches) needed by
//!   Theorem 1's optimal walk length `t_opt`, plus small numeric helpers;
//! * [`stats`] — means, variances, percentiles, harmonic means, and
//!   weighted statistics used across the estimators;
//! * [`aggregates`] — AVG-aggregate estimation from node samples: the plain
//!   arithmetic mean for uniform samples and importance-weighted (harmonic /
//!   Hansen–Hurwitz style) estimators for degree-proportional samples,
//!   together with relative-error computation (Section 2.4 / 7.1);
//! * [`bias`] — exact sample-bias measurement on small graphs: empirical
//!   sampling distributions from repeated runs, ℓ∞ / total-variation / KL
//!   distances against the target, and the degree-ordered PDF/CDF series of
//!   Figure 12 / Table 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregates;
pub mod bias;
pub mod numeric;
pub mod stats;

pub use aggregates::{estimate_average, relative_error, SampleValue, WeightingScheme};
pub use bias::EmpiricalDistribution;
pub use numeric::{lambert_w0, lambert_w_minus1};
pub use stats::{harmonic_mean, mean, percentile, std_dev, variance};
