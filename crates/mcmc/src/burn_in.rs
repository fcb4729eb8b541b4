//! Traditional burn-in-based samplers — the baselines WALK-ESTIMATE replaces.
//!
//! * [`ManyShortRunsSampler`] — the paper's main comparison point
//!   (Section 6.1): each sample comes from a fresh walk that is run until the
//!   Geweke monitor declares convergence, so samples are i.i.d. but every
//!   sample pays the full burn-in cost.
//! * [`OneLongRunSampler`] — pays burn-in once and then emits every
//!   subsequent node, producing cheaper but *correlated* samples; the
//!   [`effective_sample_size`] function quantifies how much the correlation
//!   hurts (Equation 25).

use crate::convergence::GewekeMonitor;
use crate::sampler::{SampleRecord, Sampler};
use crate::transition::{RandomWalkKind, TargetDistribution};
use crate::walker;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wnw_access::{Result, SocialNetwork};
use wnw_graph::NodeId;

/// Configuration shared by the burn-in samplers.
#[derive(Debug, Clone, Copy)]
pub struct BurnInConfig {
    /// Geweke threshold (paper default 0.1; 0.01 for the strict variant).
    pub geweke_threshold: f64,
    /// Minimum walk length before the monitor may declare convergence.
    pub min_steps: usize,
    /// Hard cap on the walk length per sample, as a safety valve on graphs
    /// that mix extremely slowly (e.g. barbell graphs).
    pub max_steps: usize,
    /// How often (in steps) the monitor is evaluated.
    pub check_interval: usize,
}

impl Default for BurnInConfig {
    /// Defaults follow the paper's setup: Geweke threshold `Z ≤ 0.1`, with a
    /// minimum walk of 100 steps before a verdict — already a *generous*
    /// reading of the burn-in lengths the OSN-sampling literature uses (the
    /// studies cited in Section 1.1 burn in for hundreds to thousands of
    /// steps), so the baselines are not handicapped.
    fn default() -> Self {
        BurnInConfig {
            geweke_threshold: 0.1,
            min_steps: 100,
            max_steps: 20_000,
            check_interval: 25,
        }
    }
}

/// Walks from `start` until the Geweke monitor on the degree sequence
/// declares convergence (checked every `check_interval` steps once
/// `min_steps` are taken) or `max_steps` is reached. Returns the node
/// reached and the number of steps taken.
///
/// The monitored degree of each node is the length of the list its step
/// fetched, carried into the next step as [`walker::random_walk`] does,
/// so an `s`-step burn-in fetches `s + 1` lists.
fn burn_in<N: SocialNetwork + ?Sized>(
    osn: &N,
    kind: RandomWalkKind,
    start: NodeId,
    config: &BurnInConfig,
    rng: &mut StdRng,
) -> Result<(NodeId, usize)> {
    let mut monitor =
        GewekeMonitor::new(config.geweke_threshold).with_min_samples(config.min_steps.max(4));
    let mut current = start;
    let mut neighbors = osn.neighbor_list(current)?;
    // Observe the starting node's degree too: the monitor tracks the degree
    // sequence along the walk, the standard choice of attribute.
    monitor.observe(neighbors.len() as f64);
    let mut steps = 0usize;
    loop {
        let (next, carried) = walker::step_from(osn, kind, current, neighbors, rng)?;
        neighbors = match carried {
            Some(list) => list,
            None => osn.neighbor_list(next)?,
        };
        current = next;
        steps += 1;
        monitor.observe(neighbors.len() as f64);
        let check_due = steps >= config.min_steps && steps.is_multiple_of(config.check_interval);
        if steps >= config.max_steps || (check_due && monitor.check().converged) {
            return Ok((current, steps));
        }
    }
}

/// "Many short runs": one independent converged walk per sample.
pub struct ManyShortRunsSampler<N: SocialNetwork> {
    osn: N,
    kind: RandomWalkKind,
    start: NodeId,
    config: BurnInConfig,
    rng: StdRng,
    /// Walk lengths of completed draws (diagnostics / tests).
    walk_lengths: Vec<usize>,
}

impl<N: SocialNetwork> ManyShortRunsSampler<N> {
    /// Creates a sampler that starts every walk from `osn.seed_node()`.
    pub fn new(osn: N, kind: RandomWalkKind, config: BurnInConfig, seed: u64) -> Self {
        let start = osn.seed_node();
        ManyShortRunsSampler {
            osn,
            kind,
            start,
            config,
            rng: StdRng::seed_from_u64(seed),
            walk_lengths: Vec::new(),
        }
    }

    /// Overrides the starting node.
    pub fn with_start(mut self, start: NodeId) -> Self {
        self.start = start;
        self
    }

    /// Walk lengths used by each completed draw so far.
    pub fn walk_lengths(&self) -> &[usize] {
        &self.walk_lengths
    }

    /// The wrapped access layer.
    pub fn network(&self) -> &N {
        &self.osn
    }
}

impl<N: SocialNetwork> Sampler for ManyShortRunsSampler<N> {
    fn draw(&mut self) -> Result<SampleRecord> {
        let (current, steps) = burn_in(
            &self.osn,
            self.kind,
            self.start,
            &self.config,
            &mut self.rng,
        )?;
        self.walk_lengths.push(steps);
        Ok(SampleRecord {
            node: current,
            query_cost: self.osn.query_cost(),
            attempts: 1,
        })
    }

    fn target(&self) -> TargetDistribution {
        self.kind.target()
    }

    fn name(&self) -> String {
        self.kind.name().to_string()
    }
}

/// "One long run": burn in once, then emit every visited node as a sample.
pub struct OneLongRunSampler<N: SocialNetwork> {
    osn: N,
    kind: RandomWalkKind,
    current: NodeId,
    config: BurnInConfig,
    rng: StdRng,
    burned_in: bool,
    /// Steps spent in the initial burn-in (for diagnostics).
    burn_in_steps: usize,
}

impl<N: SocialNetwork> OneLongRunSampler<N> {
    /// Creates a sampler starting from `osn.seed_node()`.
    pub fn new(osn: N, kind: RandomWalkKind, config: BurnInConfig, seed: u64) -> Self {
        let current = osn.seed_node();
        OneLongRunSampler {
            osn,
            kind,
            current,
            config,
            rng: StdRng::seed_from_u64(seed),
            burned_in: false,
            burn_in_steps: 0,
        }
    }

    /// Overrides the starting node (the walk's position before burn-in).
    pub fn with_start(mut self, start: NodeId) -> Self {
        self.current = start;
        self
    }

    /// Steps spent in the initial burn-in (0 until the first draw).
    pub fn burn_in_steps(&self) -> usize {
        self.burn_in_steps
    }

    /// The wrapped access layer.
    pub fn network(&self) -> &N {
        &self.osn
    }
}

impl<N: SocialNetwork> Sampler for OneLongRunSampler<N> {
    fn draw(&mut self) -> Result<SampleRecord> {
        if self.burned_in {
            self.current = walker::step(&self.osn, self.kind, self.current, &mut self.rng)?;
        } else {
            // The node reached at the end of burn-in is the first sample.
            let start = self.current;
            (self.current, self.burn_in_steps) =
                burn_in(&self.osn, self.kind, start, &self.config, &mut self.rng)?;
            self.burned_in = true;
        }
        Ok(SampleRecord {
            node: self.current,
            query_cost: self.osn.query_cost(),
            attempts: 1,
        })
    }

    fn target(&self) -> TargetDistribution {
        self.kind.target()
    }

    fn name(&self) -> String {
        format!("{}-one-long-run", self.kind.name())
    }
}

/// Effective sample size of a correlated chain of attribute values
/// (Equation 25): `M = h / (1 + 2 Σ_k ρ_k)` with the autocorrelation sum
/// truncated at the first non-positive estimate (the standard
/// initial-positive-sequence rule, which keeps the estimate stable).
pub fn effective_sample_size(values: &[f64]) -> f64 {
    let h = values.len();
    if h < 2 {
        return h as f64;
    }
    let mean = values.iter().sum::<f64>() / h as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / h as f64;
    if var <= f64::EPSILON {
        // A constant chain carries a single piece of information no matter
        // how long it is, but by convention report the full length (all
        // "samples" agree exactly).
        return h as f64;
    }
    let mut rho_sum = 0.0;
    for lag in 1..h {
        let mut cov = 0.0;
        for i in 0..(h - lag) {
            cov += (values[i] - mean) * (values[i + lag] - mean);
        }
        cov /= h as f64;
        let rho = cov / var;
        if rho <= 0.0 {
            break;
        }
        rho_sum += rho;
    }
    (h as f64 / (1.0 + 2.0 * rho_sum)).clamp(1.0, h as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::collect_samples;
    use wnw_access::{QueryBudget, SimulatedOsn};
    use wnw_graph::generators::random::barabasi_albert;

    fn small_osn(seed: u64) -> SimulatedOsn {
        SimulatedOsn::new(barabasi_albert(300, 3, seed).unwrap())
    }

    #[test]
    fn many_short_runs_produces_valid_samples() {
        let osn = small_osn(1);
        let mut sampler = ManyShortRunsSampler::new(
            osn.clone(),
            RandomWalkKind::Simple,
            BurnInConfig::default(),
            7,
        );
        let run = collect_samples(&mut sampler, 5).unwrap();
        assert_eq!(run.len(), 5);
        assert_eq!(sampler.walk_lengths().len(), 5);
        assert!(sampler.walk_lengths().iter().all(|&l| l >= 100));
        // Query cost is monotone across samples.
        for w in run.samples.windows(2) {
            assert!(w[1].query_cost >= w[0].query_cost);
        }
        assert!(run
            .samples
            .iter()
            .all(|s| osn.ground_truth().contains(s.node)));
        assert_eq!(sampler.name(), "SRW");
        assert_eq!(sampler.target(), TargetDistribution::DegreeProportional);
    }

    #[test]
    fn mhrw_sampler_targets_uniform() {
        let osn = small_osn(2);
        let mut sampler = ManyShortRunsSampler::new(
            osn,
            RandomWalkKind::MetropolisHastings,
            BurnInConfig {
                max_steps: 500,
                ..Default::default()
            },
            3,
        );
        let run = collect_samples(&mut sampler, 3).unwrap();
        assert_eq!(run.len(), 3);
        assert_eq!(sampler.target(), TargetDistribution::Uniform);
        assert_eq!(sampler.name(), "MHRW");
    }

    #[test]
    fn budget_stops_many_short_runs_cleanly() {
        let graph = barabasi_albert(300, 3, 3).unwrap();
        let osn = SimulatedOsn::builder(graph).budget(QueryBudget(60)).build();
        let mut sampler =
            ManyShortRunsSampler::new(osn, RandomWalkKind::Simple, BurnInConfig::default(), 5);
        let run = collect_samples(&mut sampler, 100).unwrap();
        assert!(run.budget_exhausted);
        assert!(run.final_query_cost() <= 60);
    }

    #[test]
    fn one_long_run_is_cheaper_per_sample_than_many_short_runs() {
        let graph = barabasi_albert(300, 3, 4).unwrap();
        let count = 20;

        let osn_short = SimulatedOsn::new(graph.clone());
        let mut short = ManyShortRunsSampler::new(
            osn_short.clone(),
            RandomWalkKind::Simple,
            BurnInConfig::default(),
            9,
        );
        collect_samples(&mut short, count).unwrap();
        let short_cost = osn_short.query_cost();

        let osn_long = SimulatedOsn::new(graph);
        let mut long = OneLongRunSampler::new(
            osn_long.clone(),
            RandomWalkKind::Simple,
            BurnInConfig::default(),
            9,
        );
        let run = collect_samples(&mut long, count).unwrap();
        let long_cost = osn_long.query_cost();

        assert_eq!(run.len(), count);
        assert!(long.burn_in_steps() > 0);
        assert!(
            long_cost < short_cost,
            "one long run should amortise burn-in: {long_cost} vs {short_cost}"
        );
        assert!(long.name().contains("one-long-run"));
    }

    #[test]
    fn an_s_step_burn_in_fetches_s_plus_one_lists() {
        // Each step carries the list it fetched (SRW: the next node's;
        // MHRW: the proposal's, or the current one on a self-loop) into the
        // monitor and the next step; only the start is fetched on its own.
        for kind in [RandomWalkKind::Simple, RandomWalkKind::MetropolisHastings] {
            for s in [1usize, 25, 130] {
                let config = BurnInConfig {
                    min_steps: s,
                    max_steps: s,
                    ..Default::default()
                };
                let osn = small_osn(6);
                let mut short = ManyShortRunsSampler::new(osn.clone(), kind, config, 4);
                short.draw().unwrap();
                assert_eq!(short.walk_lengths(), [s]);
                assert_eq!(osn.query_stats().api_calls, s as u64 + 1, "{kind:?} {s}");

                let osn = small_osn(6);
                let mut long = OneLongRunSampler::new(osn.clone(), kind, config, 4);
                long.draw().unwrap();
                assert_eq!(long.burn_in_steps(), s);
                assert_eq!(osn.query_stats().api_calls, s as u64 + 1, "{kind:?} {s}");
            }
        }
    }

    /// The two-fetch loop `burn_in` replaced: step, then look the new
    /// node's degree up again.
    fn reference_burn_in(
        osn: &SimulatedOsn,
        kind: RandomWalkKind,
        start: NodeId,
        config: &BurnInConfig,
        rng: &mut StdRng,
    ) -> Result<(NodeId, usize)> {
        let mut monitor =
            GewekeMonitor::new(config.geweke_threshold).with_min_samples(config.min_steps.max(4));
        monitor.observe(osn.degree(start)? as f64);
        let (mut current, mut steps) = (start, 0usize);
        loop {
            current = walker::step(osn, kind, current, rng)?;
            steps += 1;
            monitor.observe(osn.degree(current)? as f64);
            let reached_cap = steps >= config.max_steps;
            if steps >= config.min_steps && steps.is_multiple_of(config.check_interval) {
                if monitor.check().converged || reached_cap {
                    break;
                }
            } else if reached_cap {
                break;
            }
        }
        Ok((current, steps))
    }

    #[test]
    fn carried_burn_in_is_bit_identical_to_the_two_fetch_loop() {
        // Same node, walk length, next RNG draw, unique-node cost and
        // budget refusal; only the raw call count falls.
        use rand::Rng;
        let graph = barabasi_albert(300, 3, 12).unwrap();
        // The strict threshold walks into a cap that is no check step.
        let capped = BurnInConfig {
            geweke_threshold: 0.001,
            max_steps: 130,
            ..Default::default()
        };
        let configs = [BurnInConfig::default(), capped];
        for (kind, config) in [RandomWalkKind::Simple, RandomWalkKind::MetropolisHastings]
            .into_iter()
            .flat_map(|kind| configs.map(|config| (kind, config)))
        {
            for (seed, budget) in [(1u64, u64::MAX), (2, u64::MAX), (3, 40), (4, 90)] {
                let net = || {
                    SimulatedOsn::builder(graph.clone())
                        .budget(QueryBudget(budget))
                        .build()
                };
                let (carried, reference) = (net(), net());
                let mut rng = StdRng::seed_from_u64(seed);
                let mut ref_rng = rng.clone();
                for _ in 0..4 {
                    let start = NodeId(seed as u32);
                    let got = burn_in(&carried, kind, start, &config, &mut rng);
                    let want = reference_burn_in(&reference, kind, start, &config, &mut ref_rng);
                    assert_eq!(got, want, "{kind:?} {config:?} seed {seed} budget {budget}");
                    assert_eq!(carried.query_cost(), reference.query_cost());
                    assert!(carried.query_stats().api_calls <= reference.query_stats().api_calls);
                }
                assert_eq!(rng.gen::<u64>(), ref_rng.gen::<u64>());
            }
        }
    }

    #[test]
    fn effective_sample_size_behaviour() {
        // Independent-ish alternating values: ESS close to the length.
        let independent: Vec<f64> = (0..200)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!(effective_sample_size(&independent) > 150.0);

        // Strongly correlated blocks: ESS much smaller than the length.
        let mut correlated = Vec::new();
        for block in 0..10 {
            for _ in 0..20 {
                correlated.push(block as f64);
            }
        }
        let ess = effective_sample_size(&correlated);
        assert!(ess < 50.0, "ess {ess}");

        // Degenerate inputs.
        assert_eq!(effective_sample_size(&[]), 0.0);
        assert_eq!(effective_sample_size(&[1.0]), 1.0);
        assert_eq!(effective_sample_size(&[2.0; 50]), 50.0);
    }
}
