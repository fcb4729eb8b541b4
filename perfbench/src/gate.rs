//! Output checks that need the program: the sampled mean-degree estimate
//! against the graph's exact mean degree, and the streamed sample multiset
//! of a job against a direct engine run of the same job.

use crate::runner::JobResult;
use crate::workload::Plan;
use std::collections::BTreeMap;
use wnw_access::SimulatedOsn;
use wnw_engine::Engine;
use wnw_graph::{Graph, NodeId};

/// 1 − |estimate − exact| / exact for the mean degree. Every job runs the
/// default simple random walk, whose target distribution is proportional to
/// degree, so each sample carries importance weight `1 / degree` and the
/// estimate is the harmonic mean of the sampled degrees.
///
/// The service promises the sample multiset, not the order samples arrive
/// in, so the estimate is taken from integer counts per degree, summed in
/// degree order: any reordering of the stream gives the same bits.
pub fn estimate_accuracy(graph: &Graph, jobs: &[JobResult]) -> f64 {
    let mut per_degree: BTreeMap<usize, u64> = BTreeMap::new();
    for &node in jobs.iter().flat_map(|j| j.nodes.iter()) {
        *per_degree.entry(graph.degree(NodeId(node))).or_default() += 1;
    }
    let count: u64 = per_degree.values().sum();
    let inverse: f64 = per_degree
        .iter()
        .map(|(&degree, &n)| n as f64 / degree as f64)
        .sum();
    let exact = graph.average_degree();
    1.0 - ((count as f64 / inverse - exact) / exact).abs()
}

/// For each of the plan's oracle jobs (isolated history, so the service
/// promises the sample multiset depends only on the job), compares the
/// streamed nodes with `Engine::run` of the same `SampleJob`. The job is
/// decoded from the exact bytes the benchmark sent.
pub fn oracle_mismatches(osn: &SimulatedOsn, plan: &Plan, jobs: &[JobResult]) -> Vec<String> {
    let engine = Engine::new();
    let mut mismatches = Vec::new();
    for &i in &plan.oracle_jobs {
        let body = plan.jobs[i].body();
        let job = match wnw_gateway::json::parse(&body)
            .map_err(|e| e.to_string())
            .and_then(|doc| wnw_gateway::wire::sample_request_from_json(&doc))
        {
            Ok(request) => request.job,
            Err(err) => {
                mismatches.push(format!("job {i}: body rejected: {err}"));
                continue;
            }
        };
        let expected = match engine.run(osn, &job) {
            Ok(report) => report
                .sorted_nodes()
                .into_iter()
                .map(|v| v.0)
                .collect::<Vec<_>>(),
            Err(err) => {
                mismatches.push(format!("job {i}: engine run failed: {err}"));
                continue;
            }
        };
        let mut streamed = jobs[i].nodes.clone();
        streamed.sort_unstable();
        if streamed != expected {
            mismatches.push(format!(
                "job {i}: streamed sample multiset differs from Engine::run ({} vs {} nodes)",
                streamed.len(),
                expected.len()
            ));
        }
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnw_graph::generators::random::barabasi_albert;

    #[test]
    fn estimate_depends_only_on_the_sample_multiset() {
        let graph = barabasi_albert(500, 3, 7).unwrap();
        let nodes: Vec<u32> = (0..200).map(|i| (i * 37) % 500).collect();
        let job = |nodes: Vec<u32>| JobResult {
            nodes,
            ..JobResult::default()
        };
        let forward = estimate_accuracy(&graph, &[job(nodes.clone())]);
        let mut reversed = nodes.clone();
        reversed.reverse();
        let (a, b) = reversed.split_at(77);
        let split = estimate_accuracy(&graph, &[job(b.to_vec()), job(a.to_vec())]);
        assert_eq!(forward.to_bits(), split.to_bits());
    }
}
