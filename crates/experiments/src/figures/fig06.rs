//! Figure 6 — Google Plus: relative error of AVG estimations vs query cost.
//!
//! Four panels: (a) AVG degree, SRW vs WE(SRW); (b) AVG self-description
//! length, SRW vs WE(SRW); (c) AVG degree, MHRW vs WE(MHRW); (d) AVG
//! self-description length, MHRW vs WE(MHRW). The paper's finding: WE offers
//! substantially smaller relative error at the same query cost on both
//! aggregates and both input walks.
//!
//! The Google Plus crawl is replaced by the Google-Plus-like surrogate of
//! [`wnw_graph::generators::surrogate`], whose module doc gives the
//! substitution rationale; walk length follows the paper's setting `2·d + 1` with
//! `d = 7`, initial crawling depth `h = 1` (the hub degrees make deeper
//! crawls needlessly expensive), `ε = 0.1`.

use crate::datasets::DatasetRegistry;
use crate::figures::error_vs_cost_panel;
use crate::measures::Aggregate;
use crate::report::{ExperimentScale, FigureResult};
use crate::runner::{SamplerKind, Workbench};
use wnw_core::{WalkEstimateConfig, WalkLengthPolicy};
use wnw_graph::generators::surrogate::ATTR_SELF_DESCRIPTION_WORDS;

/// The WALK-ESTIMATE configuration used for the Google Plus experiments
/// (Section 7.1 parameter settings).
pub(crate) fn google_plus_config() -> WalkEstimateConfig {
    WalkEstimateConfig::default()
        .with_walk_length(WalkLengthPolicy::paper_default(7))
        .with_crawl_depth(1)
}

/// Regenerates Figure 6.
pub fn run(scale: ExperimentScale) -> FigureResult {
    let registry = DatasetRegistry::new(scale);
    let dataset = registry.google_plus();
    let budgets = registry.query_budget_grid(dataset.graph.node_count());
    let repetitions = scale.repetitions();
    let bench = Workbench::new(dataset.graph, google_plus_config());

    let mut result = FigureResult::new(
        "fig06",
        "Google Plus (surrogate): relative error of AVG estimations vs query cost",
    );
    result.push_note("repetitions run through the pooled engine (2 virtual walkers, shared cache, job-level budget split)");
    let panels: [(&str, SamplerKind, Aggregate); 4] = [
        ("a_avg_degree_srw", SamplerKind::Srw, Aggregate::Degree),
        (
            "b_avg_self_description_srw",
            SamplerKind::Srw,
            Aggregate::NodeAttribute(ATTR_SELF_DESCRIPTION_WORDS.to_string()),
        ),
        ("c_avg_degree_mhrw", SamplerKind::Mhrw, Aggregate::Degree),
        (
            "d_avg_self_description_mhrw",
            SamplerKind::Mhrw,
            Aggregate::NodeAttribute(ATTR_SELF_DESCRIPTION_WORDS.to_string()),
        ),
    ];
    for (name, baseline, aggregate) in panels {
        let samplers = [baseline, baseline.walk_estimate_counterpart()];
        let table = error_vs_cost_panel(
            &bench,
            name,
            &samplers,
            &aggregate,
            &budgets,
            repetitions,
            0x0601,
        );
        let base_err = crate::figures::mean_error_for(&table, &baseline.label());
        let we_err =
            crate::figures::mean_error_for(&table, &baseline.walk_estimate_counterpart().label());
        result.push_note(format!(
            "{name}: mean relative error {base_err:.4} ({}) vs {we_err:.4} ({})",
            baseline.label(),
            baseline.walk_estimate_counterpart().label()
        ));
        result.push_table(table);
    }
    result
}

/// Quick-scale smoke coverage lives in the workspace integration tests
/// (`tests/figures_smoke.rs`) because a full panel run is too slow for a unit
/// test; here we only check the configuration constants.
#[cfg(test)]
mod tests {
    use super::*;
    use wnw_core::WalkEstimateVariant;
    use wnw_mcmc::RandomWalkKind;

    #[test]
    fn google_plus_config_matches_paper() {
        let c = google_plus_config();
        assert_eq!(c.walk_length.resolve(None), 15); // 2·7 + 1
        assert_eq!(c.crawl_depth, 1);
        assert_eq!(c.variant, WalkEstimateVariant::Full);
        assert_eq!(
            SamplerKind::Mhrw.walk_estimate_counterpart(),
            SamplerKind::WalkEstimate {
                input: RandomWalkKind::MetropolisHastings,
                variant: WalkEstimateVariant::Full
            }
        );
    }
}
