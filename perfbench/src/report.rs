//! End-to-end metrics of a round, the correctness gate over a run's
//! rounds, and the result line.

use crate::runner::Round;
use crate::util::{self, median, quantile};
use std::collections::BTreeMap;

/// End-to-end metric names and units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 11] = [
    ("samples_per_s", "1/s"),
    ("ttfs_p50_ms", "ms"),
    ("ttfs_tail_ms", "ms"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_tail_ms", "ms"),
    ("cpu_ms_per_sample", "ms"),
    ("job_queries_per_sample", "count"),
    ("backend_queries_per_sample", "count"),
    ("estimate_accuracy", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Metrics that are pure functions of the plan: they must repeat exactly
/// across the rounds of one invocation that run the same draw.
pub const COUNTS: [&str; 3] = [
    "job_queries_per_sample",
    "backend_queries_per_sample",
    "estimate_accuracy",
];

/// Samples delivered in a round.
pub fn samples(round: &Round) -> u64 {
    round.jobs.iter().map(|j| j.nodes.len() as u64).sum()
}

/// Change of a `/v1/metrics` counter over the timed window.
pub fn delta(round: &Round, key: &str) -> f64 {
    let at = |v: &crate::json::Value| v.path(key).and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
    at(&round.metrics_after) - at(&round.metrics_before)
}

/// The end-to-end metrics of one round (all but `peak_rss_mb`). The tail
/// is the highest percentile that leaves at least ten of the round's jobs
/// beyond it.
pub fn round_metrics(round: &Round) -> BTreeMap<&'static str, f64> {
    let n = samples(round) as f64;
    let ttfs: Vec<f64> = round.jobs.iter().map(|j| j.ttfs_s * 1e3).collect();
    let latency: Vec<f64> = round.jobs.iter().map(|j| j.latency_s * 1e3).collect();
    let tail = util::tail_percentile(round.jobs.len()) / 100.0;
    let job_queries: u64 = round
        .jobs
        .iter()
        .filter_map(|j| j.done.as_ref().map(|d| d.query_cost))
        .sum();
    BTreeMap::from([
        ("samples_per_s", n / round.window_s),
        ("ttfs_p50_ms", median(&ttfs)),
        ("ttfs_tail_ms", quantile(&ttfs, tail)),
        ("job_latency_p50_ms", median(&latency)),
        ("job_latency_tail_ms", quantile(&latency, tail)),
        ("cpu_ms_per_sample", round.cpu_s * 1e3 / n),
        ("job_queries_per_sample", job_queries as f64 / n),
        (
            "backend_queries_per_sample",
            delta(round, "aggregate_query_cost") / n,
        ),
        ("estimate_accuracy", round.estimate_accuracy),
        ("setup_s", round.setup.total()),
    ])
}

/// Wall-clock metrics. The `#` lines print them for every round and for
/// the best and the worst round.
pub const WALL_CLOCK: [&str; 5] = [
    "samples_per_s",
    "ttfs_p50_ms",
    "ttfs_tail_ms",
    "job_latency_p50_ms",
    "job_latency_tail_ms",
];

/// Round indices, from the lowest `samples_per_s` to the highest.
pub fn by_throughput(rounds: &[Round]) -> Vec<usize> {
    let sps = |&i: &usize| samples(&rounds[i]) as f64 / rounds[i].window_s;
    let mut order: Vec<usize> = (0..rounds.len()).collect();
    order.sort_by(|a, b| sps(a).total_cmp(&sps(b)));
    order
}

/// The run's end-to-end metrics:
/// - the median over rounds of every timing: the wall-clock metrics
///   ([`WALL_CLOCK`]), CPU per sample and set-up time. The host's CPU speed
///   swings by up to a third for seconds at a time; a median over rounds
///   rides out such a swing in a minority of rounds, where one chosen
///   round's figures carry its full noise. The rounds run different draws
///   of jobs, so the median also evens out how heavy one draw's slowest
///   jobs happen to be;
/// - the counts of the first round's draw, which [`gate`] checks repeat;
/// - the peak RSS of the first round. (Later rounds run on new threads,
///   which glibc may give fresh malloc arenas, so the process high-water
///   mark grows with the number of rounds — a property of the run length,
///   not of the program.)
pub fn end_to_end(rounds: &[Round]) -> BTreeMap<&'static str, f64> {
    let per_round: Vec<_> = rounds.iter().map(round_metrics).collect();
    let over_rounds = |k| median(&per_round.iter().map(|m| m[k]).collect::<Vec<_>>());
    let mut out: BTreeMap<&'static str, f64> =
        per_round[0].keys().map(|&k| (k, over_rounds(k))).collect();
    for key in COUNTS {
        out.insert(key, per_round[0][key]);
    }
    out.insert("peak_rss_mb", rounds[0].peak_rss_mb);
    out
}

/// The correctness gate: every message is a reason the run is not correct.
pub fn gate(rounds: &[Round]) -> Vec<String> {
    let mut problems = Vec::new();
    for (r, round) in rounds.iter().enumerate() {
        let plan = &round.plan;
        problems.extend(
            round
                .warmup_failures
                .iter()
                .map(|f| format!("round {r}: {f}")),
        );
        if round.jobs.len() != plan.jobs.len() {
            problems.push(format!(
                "round {r}: {} of {} jobs returned",
                round.jobs.len(),
                plan.jobs.len()
            ));
        }
        for job in &round.jobs {
            if let Some(f) = job.failure(&plan.jobs[job.index]) {
                problems.push(format!("round {r}: job {}: {f}", job.index));
            }
        }
        problems.extend(
            round
                .oracle_mismatches
                .iter()
                .map(|m| format!("round {r}: {m}")),
        );
        let rejected = delta(round, "jobs_rejected");
        if rejected != 0.0 {
            problems.push(format!("round {r}: {rejected} submissions rejected"));
        }
    }
    let per_round: Vec<_> = rounds.iter().map(round_metrics).collect();
    for (r, round) in rounds.iter().enumerate() {
        let first = (0..r).find(|&f| rounds[f].plan.draw == round.plan.draw);
        let Some(f) = first else { continue };
        for key in COUNTS {
            if per_round[r][key].to_bits() != per_round[f][key].to_bits() {
                problems.push(format!(
                    "round {r}: {key} = {} differs from round {f}'s {} on the same draw",
                    per_round[r][key], per_round[f][key]
                ));
            }
        }
    }
    problems
}

/// Jobs attempted and failed over a run's rounds (warm-up jobs included).
pub fn attempted_failed(rounds: &[Round]) -> (u64, u64) {
    let attempted: u64 = rounds
        .iter()
        .map(|r| (r.plan.jobs.len() + r.plan.warmup.len()) as u64)
        .sum();
    let failed: u64 = rounds
        .iter()
        .map(|r| {
            let plan = &r.plan;
            let missing = plan.jobs.len().saturating_sub(r.jobs.len());
            let bad = r
                .jobs
                .iter()
                .filter(|j| j.failure(&plan.jobs[j.index]).is_some())
                .count();
            (missing + bad + r.warmup_failures.len()) as u64
        })
        .sum();
    (attempted, failed)
}

/// The last line of a run: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit Rust prints (`null` if not finite).
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}
