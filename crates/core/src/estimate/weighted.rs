//! Weighted backward sampling (Section 5.3, Algorithm 2, "WS-BW").
//!
//! When UNBIASED-ESTIMATE walks backwards it picks the previous node
//! uniformly among the current node's neighbors, even though most of them
//! carry (almost) no probability mass at that step. The weighted-sampling
//! heuristic instead biases the choice toward neighbors that historic
//! forward walks actually visited at the corresponding step, reserving a
//! minimum probability `ε` for every neighbor so no direction is ever
//! starved.
//!
//! One correction relative to the paper's pseudo-code: Algorithm 2 keeps the
//! `|N(u)|/|N(v)|` factor of the uniform estimator even though the selection
//! distribution is no longer uniform, which would bias the estimate. We use
//! the standard importance-weighting factor `T(v, u) / π_sel(v)` instead,
//! which reduces to the paper's factor when the selection is uniform and
//! keeps the estimator provably unbiased under any selection distribution
//! with full support — the property Section 5.1 establishes and Section 5.3
//! explicitly aims to preserve ("to maintain the unbiasedness of the
//! estimation algorithm"). This is documented in DESIGN.md.
//!
//! # History reads
//!
//! A backward step reads the history once: [`selection_distribution`] hands
//! the whole candidate slice to [`HistoryView::add_counts_at`], so each
//! history layer resolves the step once, and a pool-shared layer takes its
//! stripe read-lock once per backward step rather than once per candidate
//! (see [the history module](crate::history#reading-counts)).

use crate::history::HistoryView;
use wnw_graph::NodeId;

/// The backward selection distribution over `candidates` at forward step
/// `step` (i.e. the previous node was at step `step` of the forward walk).
///
/// Each candidate gets a floor of `ε / |candidates|`; the remaining `1 − ε`
/// is distributed proportionally to the historic visit counts at `step`
/// (uniformly when no walk has reached any candidate at that step yet).
/// Any [`HistoryView`] works — a walker's own history, or the pool-shared
/// view of the concurrent engine.
pub fn selection_distribution(
    candidates: &[NodeId],
    step: usize,
    history: &dyn HistoryView,
    epsilon: f64,
) -> Vec<f64> {
    let k = candidates.len();
    assert!(k > 0, "selection over an empty candidate set");
    let epsilon = epsilon.clamp(0.0, 1.0);
    let mut counts = vec![0u64; k];
    history.add_counts_at(step, candidates, &mut counts);
    let total: u64 = counts.iter().sum();
    let mut probs = vec![epsilon / k as f64; k];
    if total == 0 {
        // No history at this step: spread the remaining mass uniformly too.
        for p in &mut probs {
            *p += (1.0 - epsilon) / k as f64;
        }
    } else {
        for (p, &c) in probs.iter_mut().zip(&counts) {
            *p += (1.0 - epsilon) * c as f64 / total as f64;
        }
    }
    probs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::WalkHistory;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn no_history_gives_uniform() {
        let history = WalkHistory::new();
        let probs = selection_distribution(&ids(&[1, 2, 3, 4]), 3, &history, 0.1);
        assert_eq!(probs.len(), 4);
        for p in &probs {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn history_shifts_mass_but_keeps_floor() {
        let mut history = WalkHistory::new();
        // Two walks both visit node 2 at step 1.
        history.record_walk(&[NodeId(0), NodeId(2)]);
        history.record_walk(&[NodeId(0), NodeId(2)]);
        let candidates = ids(&[1, 2, 3]);
        let epsilon = 0.3;
        let probs = selection_distribution(&candidates, 1, &history, epsilon);
        // Node 2 receives the floor plus the full 1 − ε share.
        assert!((probs[1] - (0.1 + 0.7)).abs() < 1e-12);
        assert!((probs[0] - 0.1).abs() < 1e-12);
        assert!((probs[2] - 0.1).abs() < 1e-12);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn proportional_split_between_visited_candidates() {
        let mut history = WalkHistory::new();
        history.record_walk(&[NodeId(0), NodeId(1)]);
        history.record_walk(&[NodeId(0), NodeId(1)]);
        history.record_walk(&[NodeId(0), NodeId(1)]);
        history.record_walk(&[NodeId(0), NodeId(2)]);
        let probs = selection_distribution(&ids(&[1, 2]), 1, &history, 0.2);
        assert!((probs[0] - (0.1 + 0.8 * 0.75)).abs() < 1e-12);
        assert!((probs[1] - (0.1 + 0.8 * 0.25)).abs() < 1e-12);
    }

    #[test]
    fn every_candidate_keeps_positive_probability() {
        let mut history = WalkHistory::new();
        for _ in 0..1000 {
            history.record_walk(&[NodeId(0), NodeId(9)]);
        }
        let probs = selection_distribution(&ids(&[9, 1, 2, 3, 4]), 1, &history, 0.1);
        for &p in &probs {
            assert!(p >= 0.1 / 5.0 - 1e-12);
        }
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn epsilon_one_is_fully_uniform_even_with_history() {
        let mut history = WalkHistory::new();
        history.record_walk(&[NodeId(0), NodeId(1)]);
        let probs = selection_distribution(&ids(&[1, 2]), 1, &history, 1.0);
        assert!((probs[0] - 0.5).abs() < 1e-12);
        assert!((probs[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty candidate set")]
    fn empty_candidates_panic() {
        let history = WalkHistory::new();
        let _ = selection_distribution(&[], 0, &history, 0.1);
    }
}
