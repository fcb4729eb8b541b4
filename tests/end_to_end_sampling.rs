//! Cross-crate integration tests: the full sampling pipeline from graph
//! generation through the restricted access layer, the samplers, and the
//! aggregate estimators.

use walk_not_wait::mcmc::burn_in::{BurnInConfig, ManyShortRunsSampler};
use walk_not_wait::prelude::*;

fn sample_values(graph: &Graph, nodes: &[NodeId]) -> Vec<SampleValue> {
    nodes
        .iter()
        .map(|&v| SampleValue {
            node: v,
            value: graph.degree(v) as f64,
            degree: graph.degree(v),
        })
        .collect()
}

#[test]
fn walk_estimate_is_cheaper_than_burn_in_for_the_same_sample_count() {
    // The headline claim of the paper, end to end: for the same number of
    // samples and the same target distribution, WALK-ESTIMATE spends fewer
    // queries than the traditional burn-in sampler.
    let graph = walk_not_wait::graph::generators::random::barabasi_albert(2_000, 5, 11).unwrap();
    let samples = 30;

    let osn_baseline = SimulatedOsn::new(graph.clone());
    let mut baseline = ManyShortRunsSampler::new(
        osn_baseline.clone(),
        RandomWalkKind::MetropolisHastings,
        BurnInConfig::default(),
        3,
    );
    let baseline_run = collect_samples(&mut baseline, samples).unwrap();
    assert_eq!(baseline_run.len(), samples);
    let baseline_cost = osn_baseline.query_cost();

    let osn_we = SimulatedOsn::new(graph.clone());
    let mut we = WalkEstimateSampler::new(
        osn_we.clone(),
        RandomWalkKind::MetropolisHastings,
        WalkEstimateConfig::default(),
        3,
    )
    .with_diameter_estimate(5);
    let we_run = collect_samples(&mut we, samples).unwrap();
    assert_eq!(we_run.len(), samples);
    let we_cost = osn_we.query_cost();

    assert!(
        we_cost < baseline_cost,
        "WALK-ESTIMATE should be cheaper: {we_cost} vs {baseline_cost} queries"
    );
}

#[test]
fn both_samplers_recover_the_average_degree() {
    let graph = walk_not_wait::graph::generators::random::barabasi_albert(1_500, 5, 13).unwrap();
    let truth = graph.average_degree();
    let samples = 150;

    // SRW samples are degree-biased: the harmonic-style estimator fixes that.
    let osn = SimulatedOsn::new(graph.clone());
    let mut srw =
        ManyShortRunsSampler::new(osn, RandomWalkKind::Simple, BurnInConfig::default(), 5);
    let srw_run = collect_samples(&mut srw, samples).unwrap();
    let srw_estimate = estimate_average(
        &sample_values(&graph, &srw_run.nodes()),
        WeightingScheme::InverseDegree,
    );
    assert!(
        relative_error(srw_estimate, truth) < 0.35,
        "SRW estimate {srw_estimate} vs truth {truth}"
    );

    // WE targeting the uniform distribution uses the plain mean.
    let osn = SimulatedOsn::new(graph.clone());
    let mut we = WalkEstimateSampler::new(
        osn,
        RandomWalkKind::MetropolisHastings,
        WalkEstimateConfig::default(),
        5,
    )
    .with_diameter_estimate(5);
    let we_run = collect_samples(&mut we, samples).unwrap();
    let we_estimate = estimate_average(
        &sample_values(&graph, &we_run.nodes()),
        WeightingScheme::Uniform,
    );
    assert!(
        relative_error(we_estimate, truth) < 0.35,
        "WE estimate {we_estimate} vs truth {truth}"
    );
}

#[test]
fn budgeted_pipeline_stops_cleanly_and_keeps_partial_results() {
    let graph = walk_not_wait::graph::generators::random::barabasi_albert(800, 4, 17).unwrap();
    let osn = SimulatedOsn::builder(graph.clone())
        .budget(QueryBudget(100))
        .build();
    let mut sampler = WalkEstimateSampler::new(
        osn.clone(),
        RandomWalkKind::Simple,
        WalkEstimateConfig::default(),
        7,
    )
    .with_diameter_estimate(5);
    let run = collect_samples(&mut sampler, 10_000).unwrap();
    assert!(run.budget_exhausted);
    assert!(osn.query_cost() <= 100);
    assert!(run.samples.iter().all(|s| graph.contains(s.node)));
}

#[test]
fn surrogate_datasets_flow_through_the_whole_stack() {
    let dataset = walk_not_wait::graph::generators::surrogate::yelp_like(600, 23).unwrap();
    let graph = dataset.graph;
    let truth = graph.attributes().column("stars").unwrap().mean();
    let osn = SimulatedOsn::new(graph.clone());
    let mut sampler = WalkEstimateSampler::new(
        osn.clone(),
        RandomWalkKind::MetropolisHastings,
        WalkEstimateConfig::default(),
        29,
    )
    .with_diameter_estimate(5);
    let run = collect_samples(&mut sampler, 120).unwrap();
    let values: Vec<SampleValue> = run
        .samples
        .iter()
        .map(|s| SampleValue {
            node: s.node,
            value: osn.attribute("stars", s.node).unwrap(),
            degree: graph.degree(s.node),
        })
        .collect();
    let estimate = estimate_average(&values, WeightingScheme::Uniform);
    assert!(
        relative_error(estimate, truth) < 0.2,
        "star estimate {estimate} vs truth {truth}"
    );
}
