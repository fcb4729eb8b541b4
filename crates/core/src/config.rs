//! Configuration of the WALK-ESTIMATE sampler.

use crate::walk::WalkLengthPolicy;
use wnw_mcmc::ScalingFactorPolicy;

/// Which of the paper's variance-reduction heuristics are enabled
/// (the ablation of Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalkEstimateVariant {
    /// Plain UNBIASED-ESTIMATE: no initial crawling, no weighted sampling
    /// ("WE-None").
    None,
    /// Initial crawling only ("WE-Crawl").
    CrawlOnly,
    /// Weighted backward sampling only ("WE-Weighted").
    WeightedOnly,
    /// Both heuristics — the full algorithm ("WE").
    #[default]
    Full,
}

impl WalkEstimateVariant {
    /// Whether the h-hop initial crawl is performed.
    pub fn uses_crawl(&self) -> bool {
        matches!(
            self,
            WalkEstimateVariant::CrawlOnly | WalkEstimateVariant::Full
        )
    }

    /// Whether backward steps use history-weighted sampling (WS-BW).
    pub fn uses_weighted_sampling(&self) -> bool {
        matches!(
            self,
            WalkEstimateVariant::WeightedOnly | WalkEstimateVariant::Full
        )
    }

    /// The label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            WalkEstimateVariant::None => "WE-None",
            WalkEstimateVariant::CrawlOnly => "WE-Crawl",
            WalkEstimateVariant::WeightedOnly => "WE-Weighted",
            WalkEstimateVariant::Full => "WE",
        }
    }
}

/// Full configuration of a [`WalkEstimateSampler`](crate::WalkEstimateSampler).
///
/// The defaults follow the paper's experimental setup (Section 7.1): walk
/// length `2·D̄ + 1` with the diameter conservatively assumed to be at most
/// 10, initial-crawling depth `h = 2`, five backward walks per candidate,
/// and the 10th-percentile bootstrap for the rejection-sampling scaling
/// factor. The weighted-sampling floor is the constant
/// [`weighted::EPSILON`](crate::estimate::weighted::EPSILON).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkEstimateConfig {
    /// How the forward walk length `t` is chosen.
    pub walk_length: WalkLengthPolicy,
    /// Depth of the initial crawl around the starting node (`h`, "a small
    /// number like 2 or 3").
    pub crawl_depth: usize,
    /// Number of independent backward estimates averaged per candidate
    /// (Algorithm 3's repetitions); at least one is always taken.
    pub backward_repetitions: usize,
    /// How the rejection-sampling scaling factor is resolved.
    pub scaling_factor: ScalingFactorPolicy,
    /// Which variance-reduction heuristics are active.
    pub variant: WalkEstimateVariant,
    /// Safety valve: after this many rejected candidates the current
    /// candidate is accepted unconditionally, so a badly estimated scaling
    /// factor cannot stall a draw forever. The paper does not need this on
    /// its datasets; it only matters on adversarial graphs (e.g. barbells).
    pub max_attempts_per_sample: u32,
}

impl Default for WalkEstimateConfig {
    fn default() -> Self {
        WalkEstimateConfig {
            walk_length: WalkLengthPolicy::default(),
            crawl_depth: 2,
            backward_repetitions: 5,
            scaling_factor: ScalingFactorPolicy::Percentile(10.0),
            variant: WalkEstimateVariant::Full,
            max_attempts_per_sample: 64,
        }
    }
}

impl WalkEstimateConfig {
    /// Returns a copy with a different variant (used by the Figure 9
    /// ablation).
    pub fn with_variant(mut self, variant: WalkEstimateVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Returns a copy with a different walk-length policy.
    pub fn with_walk_length(mut self, policy: WalkLengthPolicy) -> Self {
        self.walk_length = policy;
        self
    }

    /// Returns a copy with a different crawl depth.
    pub fn with_crawl_depth(mut self, h: usize) -> Self {
        self.crawl_depth = h;
        self
    }

    /// Returns a copy with a different scaling-factor policy.
    pub fn with_scaling_factor(mut self, policy: ScalingFactorPolicy) -> Self {
        self.scaling_factor = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_flags() {
        assert!(!WalkEstimateVariant::None.uses_crawl());
        assert!(!WalkEstimateVariant::None.uses_weighted_sampling());
        assert!(WalkEstimateVariant::CrawlOnly.uses_crawl());
        assert!(!WalkEstimateVariant::CrawlOnly.uses_weighted_sampling());
        assert!(!WalkEstimateVariant::WeightedOnly.uses_crawl());
        assert!(WalkEstimateVariant::WeightedOnly.uses_weighted_sampling());
        assert!(WalkEstimateVariant::Full.uses_crawl());
        assert!(WalkEstimateVariant::Full.uses_weighted_sampling());
        assert_eq!(WalkEstimateVariant::Full.label(), "WE");
        assert_eq!(WalkEstimateVariant::None.label(), "WE-None");
    }

    #[test]
    fn default_config_matches_paper_settings() {
        let c = WalkEstimateConfig::default();
        assert_eq!(c.crawl_depth, 2);
        assert_eq!(c.backward_repetitions, 5);
        assert_eq!(c.scaling_factor, ScalingFactorPolicy::Percentile(10.0));
        assert_eq!(c.variant, WalkEstimateVariant::Full);
    }

    #[test]
    fn builder_style_overrides() {
        let c = WalkEstimateConfig::default()
            .with_variant(WalkEstimateVariant::CrawlOnly)
            .with_crawl_depth(1)
            .with_scaling_factor(ScalingFactorPolicy::ExactMin);
        assert_eq!(c.variant, WalkEstimateVariant::CrawlOnly);
        assert_eq!(c.crawl_depth, 1);
        assert_eq!(c.scaling_factor, ScalingFactorPolicy::ExactMin);
    }
}
