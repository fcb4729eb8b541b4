//! Acceptance-rejection sampling (Section 2.3 / 6.3.2).
//!
//! Given a node sampled with probability `p(u)` while the desired target
//! distribution assigns it `q(u)`, the sample is accepted with probability
//!
//! ```text
//! β(u) = q(u) / p(u) · min_v p(v)/q(v)
//! ```
//!
//! The awkward part in practice is the scaling factor `min_v p(v)/q(v)`: with
//! no global topology knowledge it cannot be computed exactly, so the paper
//! bootstraps it from the sampling probabilities estimated so far and takes
//! their **10th percentile** (Section 6.3.2). A manual threshold is also
//! supported for the corresponding ablation.

/// How the rejection-sampling scaling factor `min_v p(v)/q(v)` is obtained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalingFactorPolicy {
    /// Use the exact minimum of the observed `p(v)/q(v)` ratios. Unbiased as
    /// long as the true minimiser has been observed; conservative (more
    /// rejections) otherwise.
    ExactMin,
    /// Use the given percentile (in `[0, 100]`) of observed ratios — the
    /// paper uses the 10th percentile. Values above the true minimum trade a
    /// little bias for fewer rejections.
    Percentile(f64),
    /// A fixed, manually chosen scaling factor.
    Manual(f64),
}

impl Default for ScalingFactorPolicy {
    fn default() -> Self {
        ScalingFactorPolicy::Percentile(10.0)
    }
}

impl ScalingFactorPolicy {
    /// Resolves the scaling factor from the observed `p(v)/q(v)` ratios,
    /// which [`ObservedRatios`] keeps clean and sorted: the percentile is an
    /// index into them.
    ///
    /// Returns `None` when no ratios are available (the caller should then
    /// accept the sample unconditionally or defer).
    pub fn resolve(&self, observed: &ObservedRatios) -> Option<f64> {
        let sorted = &observed.sorted;
        match *self {
            ScalingFactorPolicy::Manual(value) => Some(value),
            ScalingFactorPolicy::ExactMin => sorted.first().copied(),
            ScalingFactorPolicy::Percentile(pct) => {
                if sorted.is_empty() {
                    return None;
                }
                let pct = pct.clamp(0.0, 100.0);
                let idx = ((pct / 100.0) * (sorted.len() - 1) as f64).round() as usize;
                Some(sorted[idx])
            }
        }
    }
}

/// The `p(v)/q(v)` ratios a sampler has observed, kept sorted for
/// [`ScalingFactorPolicy::resolve`].
///
/// Once [`CAPACITY`](Self::CAPACITY) ratios have been recorded the
/// percentile is stable and later ratios are dropped, which keeps a long
/// sampling run's memory bounded. Every recorded ratio counts toward the
/// cap; only clean ones (finite, positive) are kept, each inserted at its
/// sorted position by binary search.
#[derive(Debug, Clone, Default)]
pub struct ObservedRatios {
    sorted: Vec<f64>,
    recorded: usize,
}

impl ObservedRatios {
    /// Ratios recorded before later ones are dropped.
    pub const CAPACITY: usize = 4096;

    /// Records one observed ratio, unless the capacity is reached.
    pub fn record(&mut self, ratio: f64) {
        if self.recorded >= Self::CAPACITY {
            return;
        }
        self.recorded += 1;
        if ratio.is_finite() && ratio > 0.0 {
            let at = self.sorted.partition_point(|&r| r <= ratio);
            self.sorted.insert(at, ratio);
        }
    }
}

/// The acceptance probability `β(u)` for a node sampled with probability
/// `sampled_prob` whose (unnormalised) target weight is `target_weight`,
/// given the resolved scaling factor.
///
/// Unnormalised weights are fine because the normalising constant cancels
/// between numerator and scaling factor; the result is clamped to `[0, 1]`
/// (a scaling factor above the true minimum can push the raw value past 1,
/// which is exactly the mild under-sampling bias Section 2.3 discusses).
pub fn acceptance_probability(sampled_prob: f64, target_weight: f64, scaling_factor: f64) -> f64 {
    if sampled_prob <= 0.0 || target_weight <= 0.0 {
        return 0.0;
    }
    ((target_weight / sampled_prob) * scaling_factor).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn observed(ratios: &[f64]) -> ObservedRatios {
        let mut observed = ObservedRatios::default();
        for &ratio in ratios {
            observed.record(ratio);
        }
        observed
    }

    #[test]
    fn exact_min_policy_takes_minimum() {
        let policy = ScalingFactorPolicy::ExactMin;
        assert_eq!(policy.resolve(&observed(&[0.5, 0.2, 0.9])), Some(0.2));
        assert_eq!(policy.resolve(&observed(&[])), None);
        assert_eq!(policy.resolve(&observed(&[f64::INFINITY, 0.4])), Some(0.4));
    }

    #[test]
    fn percentile_policy_matches_sorted_index() {
        let policy = ScalingFactorPolicy::Percentile(10.0);
        let ratios = observed(&(1..=100).map(|i| i as f64).collect::<Vec<_>>());
        // 10th percentile of 1..=100 lands near 10.9 -> index 10 -> value 11.
        let resolved = policy.resolve(&ratios).unwrap();
        assert!((9.0..=12.0).contains(&resolved), "{resolved}");
        assert_eq!(
            ScalingFactorPolicy::Percentile(0.0).resolve(&ratios),
            Some(1.0)
        );
        assert_eq!(
            ScalingFactorPolicy::Percentile(100.0).resolve(&ratios),
            Some(100.0)
        );
        assert_eq!(policy.resolve(&observed(&[])), None);
    }

    #[test]
    fn manual_policy_passes_through() {
        assert_eq!(
            ScalingFactorPolicy::Manual(0.123).resolve(&observed(&[])),
            Some(0.123)
        );
    }

    #[test]
    fn acceptance_probability_bounds() {
        assert_eq!(acceptance_probability(0.0, 1.0, 0.5), 0.0);
        assert_eq!(acceptance_probability(0.5, 0.0, 0.5), 0.0);
        assert_eq!(acceptance_probability(1e-9, 1.0, 1.0), 1.0); // clamped
        let beta = acceptance_probability(0.2, 1.0, 0.1);
        assert!((beta - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rejection_corrects_a_biased_sampler_to_uniform() {
        // Three "nodes" sampled with probabilities (0.6, 0.3, 0.1); target is
        // uniform. With the exact scaling factor min p/q = 0.1/(1/3) => use
        // unnormalised weights: scale = min p(v)/w(v) = 0.1.
        let p = [0.6, 0.3, 0.1];
        let scale = ScalingFactorPolicy::ExactMin
            .resolve(&observed(&p.iter().map(|&x| x / 1.0).collect::<Vec<_>>()))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut accepted = [0usize; 3];
        for _ in 0..300_000 {
            let r: f64 = rng.gen();
            let node = if r < p[0] {
                0
            } else if r < p[0] + p[1] {
                1
            } else {
                2
            };
            let beta = acceptance_probability(p[node], 1.0, scale);
            if rng.gen::<f64>() < beta {
                accepted[node] += 1;
            }
        }
        let total: usize = accepted.iter().sum();
        for &count in &accepted {
            let frac = count as f64 / total as f64;
            assert!((frac - 1.0 / 3.0).abs() < 0.02, "{accepted:?}");
        }
    }

    /// `resolve` as it was before the ratios were kept sorted: filter,
    /// clone and sort on every call.
    fn reference_resolve(policy: ScalingFactorPolicy, observed_ratios: &[f64]) -> Option<f64> {
        match policy {
            ScalingFactorPolicy::Manual(value) => Some(value),
            ScalingFactorPolicy::ExactMin => observed_ratios
                .iter()
                .copied()
                .filter(|r| r.is_finite() && *r > 0.0)
                .fold(None, |acc: Option<f64>, r| {
                    Some(acc.map_or(r, |a| a.min(r)))
                }),
            ScalingFactorPolicy::Percentile(pct) => {
                let mut clean: Vec<f64> = observed_ratios
                    .iter()
                    .copied()
                    .filter(|r| r.is_finite() && *r > 0.0)
                    .collect();
                if clean.is_empty() {
                    return None;
                }
                clean.sort_by(|a, b| a.partial_cmp(b).expect("filtered NaNs"));
                let pct = pct.clamp(0.0, 100.0);
                let idx = ((pct / 100.0) * (clean.len() - 1) as f64).round() as usize;
                Some(clean[idx])
            }
        }
    }

    #[test]
    fn sorted_ratios_resolve_bit_identically_to_a_sort_per_call() {
        // The sampler's old bookkeeping: push every ratio until the cap,
        // then resolve over the unsorted vector.
        let policies = [
            ScalingFactorPolicy::Percentile(10.0),
            ScalingFactorPolicy::Percentile(0.0),
            ScalingFactorPolicy::Percentile(37.5),
            ScalingFactorPolicy::Percentile(100.0),
            ScalingFactorPolicy::ExactMin,
            ScalingFactorPolicy::Manual(0.25),
        ];
        let mut rng = StdRng::seed_from_u64(0x5CA1E);
        let mut pushed: Vec<f64> = Vec::new();
        let mut observed = ObservedRatios::default();
        for i in 0..ObservedRatios::CAPACITY + 600 {
            // Heavy-tailed ratios with repeats, and now and then one that
            // cannot bound the factor (underflowed to 0, or infinite).
            let ratio = match rng.gen_range(0..50) {
                0 => 0.0,
                1 => f64::INFINITY,
                2 => 0.5,
                _ => (rng.gen::<f64>() * 40.0 - 30.0).exp2(),
            };
            if pushed.len() < ObservedRatios::CAPACITY {
                pushed.push(ratio);
            }
            observed.record(ratio);
            let near_cap = i.abs_diff(ObservedRatios::CAPACITY) <= 2;
            if i % 97 == 0 || near_cap || i == ObservedRatios::CAPACITY + 599 {
                for policy in policies {
                    assert_eq!(
                        policy.resolve(&observed).map(f64::to_bits),
                        reference_resolve(policy, &pushed).map(f64::to_bits),
                        "{policy:?} after {i}"
                    );
                }
            }
        }
        assert!(
            observed.sorted.len() < ObservedRatios::CAPACITY,
            "unclean ratios are dropped"
        );
        assert!(observed.sorted.windows(2).all(|w| w[0] <= w[1]));
    }
}
