//! IDEAL-WALK: the Theorem 1 cost model and the Section 4.2 case study.
//!
//! IDEAL-WALK is the idealised sampler used to justify WALK-ESTIMATE: assume
//! an oracle for the exact sampling probability `p_t(v)` and knowledge of a
//! few global parameters (spectral gap `λ`, maximum degree `d_max`), walk
//! exactly `t` steps, and correct with rejection sampling. Theorem 1 shows
//! the expected query cost per sample of this scheme is always below that of
//! the input random walk, with the optimum at
//!
//! ```text
//! t_opt = −log(−(1/Γ)·W(−Γ/(e·d_max))·d_max) / log(1 − λ)
//! ```
//!
//! (`W` = Lambert W, lower branch on the relevant domain). Two views are
//! provided:
//!
//! * [`IdealWalkAnalysis`] — the closed-form worst-case model of Theorem 1,
//!   parameterised by `(λ, d_max, Γ)`;
//! * [`exact_cost_per_sample`] / [`exact_cost_curve`] — the exact cost on a
//!   concrete small graph, obtained by evolving the true distribution and
//!   pricing rejection sampling with the true acceptance probability. This is
//!   what Figures 2–3 plot (the paper computes them "numerically over a
//!   number of theoretical graph models").

use wnw_analytics::numeric::lambert_w_minus1;
use wnw_graph::{Graph, NodeId};
use wnw_mcmc::distribution::TransitionMatrix;
use wnw_mcmc::transition::{RandomWalkKind, TargetDistribution};

/// Closed-form Theorem 1 cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdealWalkAnalysis {
    /// Spectral gap `λ = 1 − s₂` of the input walk's transition matrix.
    pub lambda: f64,
    /// Maximum node degree `d_max`.
    pub d_max: f64,
    /// The `Γ` parameter of Theorem 1 — the scale against which the ℓ∞
    /// convergence error `(1 − λ)^t · d_max` must shrink before rejection
    /// sampling becomes viable. Bias requirements `Δ` must satisfy `Δ < Γ`.
    pub gamma: f64,
}

impl IdealWalkAnalysis {
    /// Builds the model from explicit parameters.
    pub fn new(lambda: f64, d_max: f64, gamma: f64) -> Self {
        assert!(
            lambda > 0.0 && lambda < 1.0,
            "spectral gap must be in (0, 1), got {lambda}"
        );
        assert!(d_max >= 1.0, "maximum degree must be at least 1");
        assert!(gamma > 0.0, "gamma must be positive");
        IdealWalkAnalysis {
            lambda,
            d_max,
            gamma,
        }
    }

    /// Convenience constructor measuring `λ` and `d_max` from a graph and
    /// setting `Γ = 1` (the natural scale once degrees are measured in
    /// multiples of the stationary floor; any positive constant preserves the
    /// comparison because both cost formulas share it).
    pub fn from_graph(graph: &Graph, kind: RandomWalkKind) -> Self {
        let info = wnw_mcmc::spectral::spectral_gap(graph, kind, 1e-9);
        // Guard against a numerically zero gap (e.g. disconnected or
        // pathological graphs) so the logarithms below stay finite.
        let lambda = info.gap.clamp(1e-9, 1.0 - 1e-9);
        IdealWalkAnalysis::new(lambda, graph.max_degree().max(1) as f64, 1.0)
    }

    /// The optimal walk length `t_opt` of Theorem 1 (Equation 7).
    pub fn optimal_walk_length(&self) -> f64 {
        let arg = -self.gamma / (std::f64::consts::E * self.d_max);
        let w = lambert_w_minus1(arg);
        let inner = -(1.0 / self.gamma) * w * self.d_max;
        if inner <= 0.0 {
            return f64::NAN;
        }
        -(inner.ln()) / (1.0 - self.lambda).ln()
    }

    /// Worst-case expected query cost per sample of IDEAL-WALK when it walks
    /// `t` steps and must guarantee an ℓ∞ bias of `delta` (Equation 12's
    /// objective `t·(Γ − Δ)/(Γ − (1 − λ)^t·d_max)`), `f64::INFINITY` while the
    /// convergence error still exceeds `Γ`.
    pub fn cost_at(&self, t: f64, delta: f64) -> f64 {
        let residual = (1.0 - self.lambda).powf(t) * self.d_max;
        let denom = self.gamma - residual;
        if denom <= 0.0 {
            return f64::INFINITY;
        }
        t * (self.gamma - delta) / denom
    }

    /// Cost at the optimal walk length.
    pub fn optimal_cost(&self, delta: f64) -> f64 {
        let t = self.optimal_walk_length();
        if t.is_nan() {
            return f64::INFINITY;
        }
        // The optimum of the continuous objective; evaluate nearby integer
        // lengths too so the reported cost corresponds to an executable walk.
        let candidates = [t, t.floor().max(1.0), t.ceil()];
        candidates
            .iter()
            .map(|&c| self.cost_at(c, delta))
            .fold(f64::INFINITY, f64::min)
    }

    /// Expected query cost per sample of the traditional input random walk to
    /// reach ℓ∞ bias `delta` (Equation 13): `log(Δ/d_max)/log(1 − λ)`.
    pub fn traditional_cost(&self, delta: f64) -> f64 {
        assert!(delta > 0.0, "bias requirement must be positive");
        (delta / self.d_max).ln() / (1.0 - self.lambda).ln()
    }

    /// Query-cost ratio `c / c_RW` at the optimal walk length; values below 1
    /// mean IDEAL-WALK wins. Theorem 1 proves this is < 1 whenever
    /// `0 < Δ < Γ`.
    pub fn cost_ratio(&self, delta: f64) -> f64 {
        self.optimal_cost(delta) / self.traditional_cost(delta)
    }

    /// Query-cost saving `1 − c/c_RW` (the y-axis of Figure 3).
    pub fn saving(&self, delta: f64) -> f64 {
        1.0 - self.cost_ratio(delta)
    }
}

/// Exact expected query cost per sample of IDEAL-WALK on a concrete graph:
/// walk exactly `t` steps from `start` under the lazy walk
/// `(1 − α)T + αI` of `kind` (`laziness` `α`; `0.0` is the walk itself),
/// then correct to the target distribution with rejection sampling using
/// the *exact* scaling factor `min_v p_t(v)/q(v)`.
///
/// The overall acceptance probability of rejection sampling with the exact
/// scaling factor is precisely that minimum ratio (mass-weighted average of
/// `β`), so the expected cost per accepted sample is `t / min_v p_t(v)/q(v)`.
/// It is infinite until the walk is long enough to give every node positive
/// probability (i.e. `t ≥` eccentricity of the start node). Bipartite
/// case-study graphs (hypercubes, balanced trees) need `α > 0` for any walk
/// length to cover all nodes — the paper's Footnote 1 assumption.
pub fn exact_cost_per_sample(
    graph: &Graph,
    kind: RandomWalkKind,
    start: NodeId,
    t: usize,
    target: TargetDistribution,
    laziness: f64,
) -> f64 {
    let matrix = build_matrix(graph, kind, laziness);
    let p = matrix.distribution_after(start, t);
    exact_cost_from_distribution(graph, &p, t, target)
}

/// The full cost curve `c(t)` of [`exact_cost_per_sample`] for
/// `t = 1..=max_t` (Figure 2): one exact distribution evolution, pricing
/// every prefix.
pub fn exact_cost_curve(
    graph: &Graph,
    kind: RandomWalkKind,
    start: NodeId,
    max_t: usize,
    target: TargetDistribution,
    laziness: f64,
) -> Vec<f64> {
    let matrix = build_matrix(graph, kind, laziness);
    let trajectory = matrix.distribution_trajectory(start, max_t);
    trajectory
        .iter()
        .enumerate()
        .skip(1)
        .map(|(t, p)| exact_cost_from_distribution(graph, p, t, target))
        .collect()
}

fn build_matrix(graph: &Graph, kind: RandomWalkKind, laziness: f64) -> TransitionMatrix {
    let matrix = TransitionMatrix::new(graph, kind);
    if laziness > 0.0 {
        matrix.lazy(laziness)
    } else {
        matrix
    }
}

fn exact_cost_from_distribution(
    graph: &Graph,
    p: &[f64],
    t: usize,
    target: TargetDistribution,
) -> f64 {
    // Unnormalised target weights; the acceptance probability needs the
    // normalised q, so normalise here (the harness knows the full graph).
    let weights: Vec<f64> = graph
        .nodes()
        .map(|v| target.weight(graph.degree(v)))
        .collect();
    let total_weight: f64 = weights.iter().sum();
    if total_weight <= 0.0 {
        return f64::INFINITY;
    }
    let min_ratio = p
        .iter()
        .zip(&weights)
        .map(|(&pv, &w)| {
            if w > 0.0 {
                pv / (w / total_weight)
            } else {
                f64::INFINITY
            }
        })
        .fold(f64::INFINITY, f64::min);
    if min_ratio <= 0.0 {
        return f64::INFINITY;
    }
    t as f64 / min_ratio
}

/// The walk length minimising [`exact_cost_per_sample`] over `1..=max_t`,
/// together with that minimal cost. Returns `None` if every length up to
/// `max_t` has infinite cost (start node cannot reach the whole graph).
pub fn exact_optimal_walk_length(
    graph: &Graph,
    kind: RandomWalkKind,
    start: NodeId,
    max_t: usize,
    target: TargetDistribution,
    laziness: f64,
) -> Option<(usize, f64)> {
    exact_cost_curve(graph, kind, start, max_t, target, laziness)
        .into_iter()
        .enumerate()
        .map(|(i, c)| (i + 1, c))
        .filter(|(_, c)| c.is_finite())
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnw_graph::generators::classic::{balanced_binary_tree, barbell, cycle, hypercube};
    use wnw_graph::generators::random::barabasi_albert;
    use wnw_graph::metrics;

    #[test]
    fn theorem1_topt_is_positive_and_finite() {
        let a = IdealWalkAnalysis::new(0.3, 50.0, 1.0);
        let t = a.optimal_walk_length();
        assert!(t.is_finite() && t > 0.0, "t_opt = {t}");
    }

    #[test]
    fn theorem1_optimum_beats_neighbors() {
        let a = IdealWalkAnalysis::new(0.2, 30.0, 1.0);
        let t = a.optimal_walk_length();
        let delta = 0.05;
        let at_opt = a.cost_at(t, delta);
        assert!(at_opt <= a.cost_at(t + 2.0, delta) + 1e-9);
        assert!(at_opt <= a.cost_at((t - 2.0).max(1.0), delta) + 1e-9);
    }

    #[test]
    fn topt_is_independent_of_delta() {
        // Theorem 1 observes t_opt does not depend on Δ.
        let a = IdealWalkAnalysis::new(0.15, 100.0, 1.0);
        let t = a.optimal_walk_length();
        // cost_at is minimised at the same t for different Δ values.
        for &delta in &[0.5, 0.1, 0.01] {
            let c_opt = a.cost_at(t, delta);
            assert!(c_opt <= a.cost_at(t * 1.3, delta) + 1e-9, "delta {delta}");
            assert!(
                c_opt <= a.cost_at((t * 0.7).max(1.0), delta) + 1e-9,
                "delta {delta}"
            );
        }
    }

    #[test]
    fn ideal_walk_always_beats_traditional_for_small_delta() {
        for (lambda, dmax) in [(0.4, 10.0), (0.1, 200.0), (0.02, 1000.0)] {
            let a = IdealWalkAnalysis::new(lambda, dmax, 1.0);
            for &delta in &[0.5, 0.1, 0.01, 1e-4] {
                let ratio = a.cost_ratio(delta);
                assert!(
                    ratio < 1.0,
                    "λ={lambda} dmax={dmax} Δ={delta}: ratio {ratio} should be < 1"
                );
                assert!(a.saving(delta) > 0.0);
            }
        }
    }

    #[test]
    fn smaller_delta_increases_both_costs_but_widens_the_gap() {
        let a = IdealWalkAnalysis::new(0.2, 50.0, 1.0);
        let loose = a.traditional_cost(0.1);
        let tight = a.traditional_cost(0.001);
        assert!(tight > loose);
        // The saving grows as Δ shrinks (Theorem 1's discussion).
        assert!(a.saving(0.001) >= a.saving(0.1) - 1e-9);
    }

    #[test]
    #[should_panic(expected = "spectral gap")]
    fn invalid_lambda_panics() {
        let _ = IdealWalkAnalysis::new(1.5, 10.0, 1.0);
    }

    #[test]
    fn from_graph_measures_parameters() {
        let g = barabasi_albert(60, 3, 5).unwrap();
        let a = IdealWalkAnalysis::from_graph(&g, RandomWalkKind::Simple);
        assert!(a.lambda > 0.0 && a.lambda < 1.0);
        assert_eq!(a.d_max, g.max_degree() as f64);
    }

    #[test]
    fn exact_cost_is_infinite_below_eccentricity() {
        let g = cycle(11); // eccentricity of any node is 5
        let cost4 = exact_cost_per_sample(
            &g,
            RandomWalkKind::Simple,
            NodeId(0),
            4,
            TargetDistribution::Uniform,
            0.0,
        );
        assert!(cost4.is_infinite());
        // A lazy-ish longer walk eventually has finite cost. Note the plain
        // cycle under SRW is periodic, so use MHRW (which self-loops on a
        // cycle only via rejection... it does not). Use length >= 6 with SRW:
        // parity still blocks half the nodes on an odd cycle? 11 is odd, so
        // all nodes become reachable with both parities mixing; length 10 is
        // comfortably finite.
        let cost10 = exact_cost_per_sample(
            &g,
            RandomWalkKind::Simple,
            NodeId(0),
            10,
            TargetDistribution::Uniform,
            0.0,
        );
        assert!(cost10.is_finite());
    }

    #[test]
    fn exact_cost_curve_dips_then_rises_slowly() {
        // Figure 2's qualitative shape: sharp drop to a minimum, slow rise.
        // Hypercubes are bipartite, so use the lazy walk the paper's footnote
        // assumes.
        let g = hypercube(5); // 32 nodes, matches the paper's case study size
        let laziness = 0.2;
        let curve = exact_cost_curve(
            &g,
            RandomWalkKind::MetropolisHastings,
            NodeId(0),
            60,
            TargetDistribution::Uniform,
            laziness,
        );
        let (t_opt, c_opt) = exact_optimal_walk_length(
            &g,
            RandomWalkKind::MetropolisHastings,
            NodeId(0),
            60,
            TargetDistribution::Uniform,
            laziness,
        )
        .unwrap();
        assert!(c_opt.is_finite());
        assert!(
            t_opt >= 5,
            "optimum should be at least the diameter, got {t_opt}"
        );
        // The curve at twice the optimum is worse than at the optimum, but
        // not catastrophically (slow increase).
        let later = curve[(2 * t_opt - 1).min(curve.len() - 1)];
        assert!(later >= c_opt);
        assert!(later < 10.0 * c_opt);
    }

    #[test]
    fn plain_walk_on_bipartite_graph_never_covers_all_nodes() {
        let g = hypercube(3);
        assert!(exact_optimal_walk_length(
            &g,
            RandomWalkKind::Simple,
            NodeId(0),
            40,
            TargetDistribution::Uniform,
            0.0,
        )
        .is_none());
    }

    #[test]
    fn larger_diameter_graphs_need_longer_walks() {
        // Paper Section 4.2: the cycle (diameter ⌊n/2⌋) has a much longer
        // optimal walk length than the low-diameter hypercube.
        let cycle_graph = cycle(31); // diameter 15, odd => aperiodic
        let cube = hypercube(5); // 32 nodes, diameter 5, bipartite
        let laziness = 0.2;
        let (t_cycle, _) = exact_optimal_walk_length(
            &cycle_graph,
            RandomWalkKind::MetropolisHastings,
            NodeId(0),
            300,
            TargetDistribution::Uniform,
            laziness,
        )
        .unwrap();
        let (t_cube, _) = exact_optimal_walk_length(
            &cube,
            RandomWalkKind::MetropolisHastings,
            NodeId(0),
            300,
            TargetDistribution::Uniform,
            laziness,
        )
        .unwrap();
        assert!(
            t_cycle > t_cube,
            "cycle optimum {t_cycle} should exceed hypercube optimum {t_cube}"
        );
        assert!(t_cycle >= metrics::exact_diameter(&cycle_graph).unwrap());
        assert!(t_cube >= metrics::exact_diameter(&cube).unwrap());

        // The balanced tree and barbell graphs still have finite optima
        // under the lazy walk (they appear in the Figure 2 case study).
        let tree = balanced_binary_tree(3);
        let barbell_graph = barbell(15);
        assert!(exact_optimal_walk_length(
            &tree,
            RandomWalkKind::MetropolisHastings,
            NodeId(0),
            300,
            TargetDistribution::Uniform,
            laziness,
        )
        .is_some());
        assert!(exact_optimal_walk_length(
            &barbell_graph,
            RandomWalkKind::MetropolisHastings,
            NodeId(0),
            300,
            TargetDistribution::Uniform,
            laziness,
        )
        .is_some());
    }

    #[test]
    fn degree_proportional_target_is_cheaper_for_srw() {
        // Correcting SRW to its own stationary distribution needs less
        // rejection than correcting it to uniform.
        let g = barabasi_albert(40, 3, 9).unwrap();
        let to_uniform = exact_cost_per_sample(
            &g,
            RandomWalkKind::Simple,
            NodeId(0),
            12,
            TargetDistribution::Uniform,
            0.0,
        );
        let to_degree = exact_cost_per_sample(
            &g,
            RandomWalkKind::Simple,
            NodeId(0),
            12,
            TargetDistribution::DegreeProportional,
            0.0,
        );
        assert!(to_degree <= to_uniform);
    }
}
