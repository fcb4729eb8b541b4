//! Figure 8 — Twitter: relative error of AVG estimations vs query cost.
//!
//! Four panels over the Twitter-like surrogate (mutual-follow reduction of a
//! directed preferential-attachment graph), SRW vs WE(SRW): (a) AVG
//! in-degree, (b) AVG out-degree, (c) AVG local clustering coefficient,
//! (d) AVG shortest-path length. (The paper's panel captions repeat the
//! clustering coefficient twice; the shortest-path aggregate mentioned in the
//! experiment text is used for the fourth panel here.)

use crate::datasets::DatasetRegistry;
use crate::figures::error_vs_cost_panel;
use crate::measures::Aggregate;
use crate::report::{ExperimentScale, FigureResult};
use crate::runner::{SamplerKind, Workbench};
use wnw_core::{WalkEstimateConfig, WalkLengthPolicy};
use wnw_graph::generators::surrogate::{ATTR_IN_DEGREE, ATTR_OUT_DEGREE};

/// Regenerates Figure 8.
pub fn run(scale: ExperimentScale) -> FigureResult {
    let registry = DatasetRegistry::new(scale);
    let dataset = registry.twitter();
    let budgets = registry.query_budget_grid(dataset.graph.node_count());
    let repetitions = scale.repetitions();
    // Depth 2 is the paper's setting; the tiny quick-scale surrogate uses
    // depth 1 so the crawl does not swallow the whole query budget.
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
        "fig08",
        "Twitter (surrogate): relative error of AVG estimations vs query cost (SRW vs WE)",
    );
    result.push_note("repetitions run through the pooled engine (2 virtual walkers, shared cache, job-level budget split)");
    let panels: [(&str, Aggregate); 4] = [
        (
            "a_avg_in_degree",
            Aggregate::NodeAttribute(ATTR_IN_DEGREE.to_string()),
        ),
        (
            "b_avg_out_degree",
            Aggregate::NodeAttribute(ATTR_OUT_DEGREE.to_string()),
        ),
        ("c_avg_local_clustering", Aggregate::LocalClustering),
        ("d_avg_shortest_path", Aggregate::MeanShortestPath),
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
            0x0803,
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
