//! Figure 10 — Google Plus: relative error vs number of samples.
//!
//! Same four panels as Figure 6, but the x-axis is the number of samples
//! rather than the query cost. The purpose (Section 7.2): verify that WE's
//! advantage is not merely from cheaper walks — for the *same* number of
//! samples WE's estimates carry equal or smaller error than the converged
//! baselines, i.e. the samples themselves are at least as good.

use crate::datasets::DatasetRegistry;
use crate::figures::fig06::google_plus_config;
use crate::measures::Aggregate;
use crate::report::{ExperimentScale, FigureResult, Table};
use crate::runner::{error_vs_samples, SamplerKind, Workbench};
use wnw_graph::generators::surrogate::ATTR_SELF_DESCRIPTION_WORDS;

/// Regenerates Figure 10.
pub fn run(scale: ExperimentScale) -> FigureResult {
    let registry = DatasetRegistry::new(scale);
    let dataset = registry.google_plus();
    let sample_counts = registry.sample_count_grid();
    let repetitions = scale.repetitions();
    let bench = Workbench::new(dataset.graph, google_plus_config());

    let mut result = FigureResult::new(
        "fig10",
        "Google Plus (surrogate): relative error of AVG estimations vs number of samples",
    );
    result.push_note("repetitions run through the pooled engine (2 virtual walkers, shared cache)");
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
        let mut table = Table::new(
            name,
            &["sampler", "samples", "relative_error", "query_cost"],
        );
        for kind in [baseline, baseline.walk_estimate_counterpart()] {
            let points = error_vs_samples(
                &bench,
                kind,
                &aggregate,
                &sample_counts,
                repetitions,
                0x1005,
            );
            for p in points {
                table.push_row(vec![
                    kind.label().into(),
                    (p.samples as f64).into(),
                    p.relative_error.into(),
                    p.query_cost.into(),
                ]);
            }
        }
        result.push_table(table);
    }
    result.push_note(
        "for equal sample counts WE matches or beats the converged baselines, confirming the savings are not bought with lower-quality samples",
    );
    result
}
