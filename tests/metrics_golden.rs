//! Golden wire test for the service metrics: the `/v1/metrics` JSON
//! document and the `/v1/metrics/prometheus` scrape of one fixed snapshot
//! must match the committed expected output in `tests/golden/`.
//!
//! Every scalar in the snapshot is nonzero and distinct from every other,
//! so a key wired to the wrong field changes the output. The JSON must
//! match byte for byte. The scrape must carry the same family blocks, each
//! with unchanged `# HELP`, `# TYPE` and sample lines; only the order of
//! the blocks is free.

use std::time::Duration;
use walk_not_wait::access::counter::QueryStats;
use walk_not_wait::gateway::wire::{metrics_to_json, metrics_to_prometheus};
use walk_not_wait::service::{
    Histogram, HistogramSnapshot, HistoryStoreStats, PoolStats, ResilienceStats,
    ServiceMetricsSnapshot,
};
use walk_not_wait::telemetry::prometheus::validate;

const GOLDEN_JSON: &str = include_str!("golden/metrics.json");
const GOLDEN_PROM: &str = include_str!("golden/metrics.prom");

fn histogram(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

/// A snapshot whose scalars are all nonzero and pairwise distinct, with
/// data in four of its six histograms.
fn snapshot() -> ServiceMetricsSnapshot {
    ServiceMetricsSnapshot {
        jobs_submitted: 101,
        jobs_rejected: 102,
        jobs_queued: 103,
        jobs_running: 104,
        jobs_completed: 105,
        jobs_cancelled: 106,
        jobs_expired: 107,
        jobs_failed: 108,
        jobs_degraded: 109,
        walkers_degraded: 110,
        jobs_finished: 111,
        samples_delivered: 112,
        aggregate_query_cost: 113,
        isolated_query_cost: 1_114,
        budget_refunded: 115,
        mean_latency: Duration::from_micros(116_250),
        jobs_started: 117,
        mean_queue_wait: Duration::from_micros(118_500),
        max_queue_wait: Duration::from_micros(119_750),
        pool: QueryStats {
            unique_nodes: 120,
            api_calls: 121,
            cache_hits: 122,
            attribute_reads: 123,
        },
        worker_pool: PoolStats {
            workers: 124,
            rounds_dispatched: 125,
            spawnless_rounds: 126,
            worker_wakeups: 127,
        },
        history: HistoryStoreStats {
            hits: 128,
            misses: 129,
            publications: 130,
            published_walks: 131,
            reused_walks: 132,
            reuse_savings: 133,
            epoch: 134,
        },
        resilience: ResilienceStats {
            calls: 135,
            faults_seen: 136,
            retries: 137,
            backoff_wait_secs: 138,
            rate_limit_honored: 139,
            retries_exhausted: 140,
            recovered: 141,
            breaker_opened: 142,
            breaker_half_open_probes: 143,
            breaker_fast_fails: 144,
            breaker_open: true,
            clock_secs: 145,
            retries_per_call: histogram(&[0, 0, 1, 3]),
        },
        queue_wait_histogram: histogram(&[150, 2_300, 2_400, 91_000]),
        latency_histogram: histogram(&[40_000, 160_000]),
        first_sample_histogram: histogram(&[7_700]),
        job_cost_histogram: HistogramSnapshot::default(),
        round_duration_histogram: HistogramSnapshot::default(),
    }
}

/// The scrape cut into family blocks (each starting at its `# HELP`
/// line), sorted so that only the set of blocks is compared.
fn family_blocks(text: &str) -> Vec<String> {
    let mut blocks: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.starts_with("# HELP ") || blocks.is_empty() {
            blocks.push(String::new());
        }
        let block = blocks.last_mut().expect("a block is open");
        block.push_str(line);
        block.push('\n');
    }
    blocks.sort();
    blocks
}

#[test]
fn metrics_wire_formats_match_the_golden_files() {
    let snapshot = snapshot();

    let json = metrics_to_json(&snapshot).encode();
    assert_eq!(json, GOLDEN_JSON, "/v1/metrics document drifted");

    let text = metrics_to_prometheus(&snapshot);
    let stats = validate(&text).expect("scrape validates");
    assert_eq!(
        stats,
        validate(GOLDEN_PROM).expect("golden scrape validates")
    );
    assert_eq!(stats.families, 49);
    assert_eq!(stats.histograms, 6);
    let (got, want) = (family_blocks(&text), family_blocks(GOLDEN_PROM));
    assert_eq!(got.len(), want.len(), "family count drifted");
    for (got, want) in got.iter().zip(&want) {
        assert_eq!(got, want, "family block drifted");
    }
}
