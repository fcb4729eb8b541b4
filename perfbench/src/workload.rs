//! The three workloads and their seeded job plans. The program sees only
//! the generated request bodies.

use crate::util::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold, disjoint jobs on a large graph: the shared cache mostly misses.
    Crawl,
    /// Warm jobs sharing a few Zipf-hot start nodes and a published history.
    Hotspot,
    /// Many few-sample jobs on a tiny, fully cached graph: per-request cost.
    TinyJobs,
}

pub const ALL: [Workload; 3] = [Workload::Crawl, Workload::Hotspot, Workload::TinyJobs];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Crawl => "crawl",
            Workload::Hotspot => "hotspot",
            Workload::TinyJobs => "tiny_jobs",
        }
    }
}

/// One sampling request as the benchmark submits it.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub samples: u64,
    pub seed: u64,
    pub start_node: Option<u32>,
    /// `history_policy` wire label; `None` leaves the default (isolated).
    pub history_policy: Option<&'static str>,
}

impl JobSpec {
    /// The JSON submit body. Every other knob stays at the program default.
    pub fn body(&self) -> String {
        let mut fields = vec![
            format!("\"samples\":{}", self.samples),
            format!("\"seed\":{}", self.seed),
        ];
        if let Some(start) = self.start_node {
            fields.push(format!("\"start_node\":{start}"));
        }
        if let Some(policy) = self.history_policy {
            fields.push(format!("\"history_policy\":\"{policy}\""));
        }
        format!("{{{}}}", fields.join(","))
    }
}

/// Everything one round of a workload needs: the graph to build, the
/// untimed warm-up (run one job at a time) and the timed jobs (run by the
/// closed loop of clients).
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    /// Which draw of the seed's timed jobs this is.
    pub draw: u64,
    /// Barabási–Albert parameters `(n, m, seed)`.
    pub graph: (usize, usize, u64),
    pub warmup: Vec<JobSpec>,
    pub jobs: Vec<JobSpec>,
    /// Plan indices whose streamed samples are checked against a direct
    /// engine run of the same job.
    pub oracle_jobs: Vec<usize>,
}

impl Plan {
    /// The plan of `workload` at `seed`, draw `draw`. The graph, the hot
    /// nodes and the warm-up are fixed parts of each workload, like a
    /// dataset; the seed and the draw pick the timed jobs (start nodes and
    /// job seeds), so the rounds of a run can each take a different draw.
    pub fn new(workload: Workload, seed: u64, draw: u64) -> Plan {
        let mut rng = Rng::new(
            seed ^ (workload as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ draw.wrapping_mul(0xd1b5_4a32_d192_ed03),
        );
        let mut fixed = Rng::new(0x5eed_0000 + workload as u64);
        let graph_seed = fixed.next_u64();
        match workload {
            Workload::Crawl => {
                let n = 1_000_000;
                let jobs = (0..300)
                    .map(|_| JobSpec {
                        samples: 12,
                        seed: rng.next_u64() >> 11,
                        start_node: Some(rng.below(n as u64) as u32),
                        history_policy: None,
                    })
                    .collect();
                Plan {
                    workload,
                    draw,
                    graph: (n, 5, graph_seed),
                    warmup: Vec::new(),
                    jobs,
                    oracle_jobs: vec![0, 1, 2, 3],
                }
            }
            Workload::Hotspot => {
                let n = 20_000;
                let hot: Vec<u32> = (0..6).map(|_| fixed.below(n as u64) as u32).collect();
                let warmup = hot
                    .iter()
                    .map(|&start| JobSpec {
                        samples: 10,
                        seed: fixed.next_u64() >> 11,
                        start_node: Some(start),
                        history_policy: Some("shared_publish"),
                    })
                    .collect();
                // Zipf(1.1) start nodes, allocated exactly (stratified) so
                // every seed asks for the same mix; the seed shuffles the
                // arrival order and draws the job seeds.
                let mut starts = zipf_allocation(&hot, 200, 1.1);
                rng.shuffle(&mut starts);
                let jobs = starts
                    .into_iter()
                    .map(|start| JobSpec {
                        samples: 15,
                        seed: rng.next_u64() >> 11,
                        start_node: Some(start),
                        history_policy: Some("shared_read"),
                    })
                    .collect();
                Plan {
                    workload,
                    draw,
                    graph: (n, 5, graph_seed),
                    warmup,
                    jobs,
                    oracle_jobs: Vec::new(),
                }
            }
            Workload::TinyJobs => {
                let warmup = vec![JobSpec {
                    samples: 30,
                    seed: fixed.next_u64() >> 11,
                    start_node: None,
                    history_policy: None,
                }];
                let jobs = (0..800)
                    .map(|_| JobSpec {
                        samples: 5,
                        seed: rng.next_u64() >> 11,
                        start_node: None,
                        history_policy: None,
                    })
                    .collect();
                Plan {
                    workload,
                    draw,
                    graph: (1_000, 3, graph_seed),
                    warmup,
                    jobs,
                    oracle_jobs: vec![0, 1, 2, 3, 4, 5, 6, 7],
                }
            }
        }
    }
}

/// `count` start nodes whose multiplicities follow Zipf(`s`) over `hot`
/// (rank 1 first) by largest-remainder rounding.
fn zipf_allocation(hot: &[u32], count: usize, s: f64) -> Vec<u32> {
    let weights: Vec<f64> = (1..=hot.len()).map(|k| (k as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights.iter().map(|w| w / total * count as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..hot.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (quotas[b] - counts[b] as f64).total_cmp(&(quotas[a] - counts[a] as f64))
    });
    let short = count - counts.iter().sum::<usize>();
    for &k in by_remainder.iter().take(short) {
        counts[k] += 1;
    }
    hot.iter()
        .zip(counts)
        .flat_map(|(&node, c)| std::iter::repeat_n(node, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_depend_only_on_the_seed() {
        for w in ALL {
            let (a, b) = (Plan::new(w, 5, 1), Plan::new(w, 5, 1));
            assert_eq!(a.graph, b.graph);
            let bodies = |p: &Plan| p.jobs.iter().map(JobSpec::body).collect::<Vec<_>>();
            assert_eq!(bodies(&a), bodies(&b));
            assert_ne!(bodies(&a), bodies(&Plan::new(w, 6, 1)));
            assert_ne!(bodies(&a), bodies(&Plan::new(w, 5, 2)));
            let c = Plan::new(w, 5, 2);
            assert_eq!((a.graph, a.warmup.len()), (c.graph, c.warmup.len()));
        }
    }

    #[test]
    fn zipf_allocation_is_exact_and_skewed() {
        let starts = zipf_allocation(&[7, 8, 9], 20, 1.1);
        assert_eq!(starts.len(), 20);
        let count = |v| starts.iter().filter(|&&s| s == v).count();
        assert!(count(7) > count(8) && count(8) > count(9), "{starts:?}");
    }

    #[test]
    fn body_sets_only_the_workload_knobs() {
        let spec = JobSpec {
            samples: 3,
            seed: 9,
            start_node: Some(4),
            history_policy: Some("shared_read"),
        };
        assert_eq!(
            spec.body(),
            r#"{"samples":3,"seed":9,"start_node":4,"history_policy":"shared_read"}"#
        );
    }
}
