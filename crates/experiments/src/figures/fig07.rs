//! Figure 7 — Yelp: relative error of AVG estimations vs query cost.
//!
//! Four panels over the Yelp-like surrogate (largest connected component of
//! the user-user graph), SRW vs WE(SRW): (a) AVG degree, (b) AVG stars,
//! (c) AVG shortest-path length, (d) AVG local clustering coefficient.
//! Walk length `2·D̄ + 1` with the conservative `D̄ = 10`, crawl depth
//! `h = 2` (the paper's setting for Yelp).

use crate::datasets::DatasetRegistry;
use crate::figures::error_vs_cost_panel;
use crate::measures::Aggregate;
use crate::report::{ExperimentScale, FigureResult};
use crate::runner::{SamplerKind, Workbench};
use wnw_core::{WalkEstimateConfig, WalkLengthPolicy};
use wnw_graph::generators::surrogate::ATTR_STARS;

/// Regenerates Figure 7.
pub fn run(scale: ExperimentScale) -> FigureResult {
    let registry = DatasetRegistry::new(scale);
    let dataset = registry.yelp();
    let budgets = registry.query_budget_grid(dataset.graph.node_count());
    let repetitions = scale.repetitions();
    // Crawl depth 2 is the paper's Yelp setting; on the tiny quick-scale
    // surrogate a 2-hop crawl would already cover most of the graph, so the
    // quick runs use depth 1.
    let crawl_depth = if scale == ExperimentScale::Quick {
        1
    } else {
        2
    };
    let config = WalkEstimateConfig::default()
        .with_walk_length(WalkLengthPolicy::default())
        .with_crawl_depth(crawl_depth);
    let bench = Workbench::new(dataset.graph, config);

    let mut result = FigureResult::new(
        "fig07",
        "Yelp (surrogate): relative error of AVG estimations vs query cost (SRW vs WE)",
    );
    result.push_note("repetitions run through the pooled engine (2 virtual walkers, shared cache, job-level budget split)");
    let panels: [(&str, Aggregate); 4] = [
        ("a_avg_degree", Aggregate::Degree),
        (
            "b_avg_stars",
            Aggregate::NodeAttribute(ATTR_STARS.to_string()),
        ),
        ("c_avg_shortest_path", Aggregate::MeanShortestPath),
        ("d_avg_local_clustering", Aggregate::LocalClustering),
    ];
    let samplers = [
        SamplerKind::Srw,
        SamplerKind::Srw.walk_estimate_counterpart(),
    ];
    for (name, aggregate) in panels {
        let table = error_vs_cost_panel(
            &bench,
            name,
            &samplers,
            &aggregate,
            &budgets,
            repetitions,
            0x0702,
        );
        let base = crate::figures::mean_error_for(&table, "SRW");
        let we = crate::figures::mean_error_for(&table, "WE(SRW)");
        result.push_note(format!(
            "{name}: mean relative error {base:.4} (SRW) vs {we:.4} (WE)"
        ));
        result.push_table(table);
    }
    result
}
