//! Figure 9 — ablation of the variance-reduction heuristics on Google Plus.
//!
//! Same four panels as Figure 6, but comparing the four WALK-ESTIMATE
//! variants against each other: WE-None (no heuristic), WE-Crawl (initial
//! crawling only), WE-Weighted (weighted backward sampling only), and the
//! full WE. The paper's finding: WE outperforms the single-heuristic
//! variants, which in turn outperform WE-None.

use crate::datasets::DatasetRegistry;
use crate::figures::error_vs_cost_panel;
use crate::figures::fig06::google_plus_config;
use crate::measures::Aggregate;
use crate::report::{ExperimentScale, FigureResult};
use crate::runner::{SamplerKind, Workbench};
use wnw_core::WalkEstimateVariant;
use wnw_graph::generators::surrogate::ATTR_SELF_DESCRIPTION_WORDS;
use wnw_mcmc::RandomWalkKind;

fn variant_samplers(input: RandomWalkKind) -> [SamplerKind; 4] {
    [
        SamplerKind::WalkEstimate {
            input,
            variant: WalkEstimateVariant::None,
        },
        SamplerKind::WalkEstimate {
            input,
            variant: WalkEstimateVariant::CrawlOnly,
        },
        SamplerKind::WalkEstimate {
            input,
            variant: WalkEstimateVariant::WeightedOnly,
        },
        SamplerKind::WalkEstimate {
            input,
            variant: WalkEstimateVariant::Full,
        },
    ]
}

/// Regenerates Figure 9.
pub fn run(scale: ExperimentScale) -> FigureResult {
    let registry = DatasetRegistry::new(scale);
    let dataset = registry.google_plus();
    let budgets = registry.query_budget_grid(dataset.graph.node_count());
    let repetitions = scale.repetitions();
    let bench = Workbench::new(dataset.graph, google_plus_config());

    let mut result = FigureResult::new(
        "fig09",
        "Google Plus (surrogate): variance-reduction ablation — WE vs WE-None / WE-Crawl / WE-Weighted",
    );
    result.push_note("repetitions run through the pooled engine (2 virtual walkers, shared cache, job-level budget split)");
    let panels: [(&str, RandomWalkKind, Aggregate); 4] = [
        (
            "a_avg_degree_srw",
            RandomWalkKind::Simple,
            Aggregate::Degree,
        ),
        (
            "b_avg_self_description_srw",
            RandomWalkKind::Simple,
            Aggregate::NodeAttribute(ATTR_SELF_DESCRIPTION_WORDS.to_string()),
        ),
        (
            "c_avg_degree_mhrw",
            RandomWalkKind::MetropolisHastings,
            Aggregate::Degree,
        ),
        (
            "d_avg_self_description_mhrw",
            RandomWalkKind::MetropolisHastings,
            Aggregate::NodeAttribute(ATTR_SELF_DESCRIPTION_WORDS.to_string()),
        ),
    ];
    for (name, input, aggregate) in panels {
        let samplers = variant_samplers(input);
        let table = error_vs_cost_panel(
            &bench,
            name,
            &samplers,
            &aggregate,
            &budgets,
            repetitions,
            0x0904,
        );
        let none = crate::figures::mean_error_for(&table, &samplers[0].label());
        let full = crate::figures::mean_error_for(&table, &samplers[3].label());
        result.push_note(format!(
            "{name}: mean relative error {none:.4} (WE-None) vs {full:.4} (WE)"
        ));
        result.push_table(table);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_covers_all_four_variants() {
        let samplers = variant_samplers(RandomWalkKind::Simple);
        let labels: Vec<String> = samplers.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec![
                "WE-None(SRW)",
                "WE-Crawl(SRW)",
                "WE-Weighted(SRW)",
                "WE(SRW)"
            ]
        );
    }
}
