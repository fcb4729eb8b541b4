//! Prometheus text exposition of the service metrics snapshot.
//!
//! Maps every [`ServiceMetricsSnapshot`] field onto a `wnw_*`-prefixed
//! family in the text format Prometheus scrapes (see
//! [`wnw_telemetry::prometheus`] for the renderer and the grammar
//! validator). Lifetime totals become counters (`_total` suffix), live
//! populations become gauges, and the snapshot's embedded
//! [`HistogramSnapshot`](wnw_telemetry::HistogramSnapshot)s become
//! cumulative-bucket histogram families. The naming table lives in the
//! [`wnw_telemetry`] crate docs so the vocabulary has one home.

use wnw_service::ServiceMetricsSnapshot;
use wnw_telemetry::prometheus::Exposition;

/// A gauge value for the exposition builder (`u64` populations are far
/// below `i64::MAX`; saturate rather than wrap if that ever changes).
fn gauge(value: u64) -> i64 {
    i64::try_from(value).unwrap_or(i64::MAX)
}

/// Renders `snapshot` as a complete Prometheus text-exposition document —
/// the body of `GET /v1/metrics/prometheus`.
pub fn exposition(snapshot: &ServiceMetricsSnapshot) -> String {
    let mut exp = Exposition::new();

    // Job lifecycle: lifetime counters plus the two live populations.
    exp.counter(
        "wnw_jobs_submitted_total",
        "requests admitted",
        snapshot.jobs_submitted,
    );
    exp.counter(
        "wnw_jobs_rejected_total",
        "requests refused at the door",
        snapshot.jobs_rejected,
    );
    exp.gauge(
        "wnw_jobs_queued",
        "jobs admitted but not yet scheduled",
        gauge(snapshot.jobs_queued),
    );
    exp.gauge(
        "wnw_jobs_running",
        "jobs currently holding walker slots",
        gauge(snapshot.jobs_running),
    );
    exp.counter(
        "wnw_jobs_started_total",
        "jobs that left the queue",
        snapshot.jobs_started,
    );
    exp.counter(
        "wnw_jobs_completed_total",
        "jobs that met their quota or ran their budget out",
        snapshot.jobs_completed,
    );
    exp.counter(
        "wnw_jobs_cancelled_total",
        "jobs cancelled by the caller or a dropped stream",
        snapshot.jobs_cancelled,
    );
    exp.counter(
        "wnw_jobs_expired_total",
        "jobs stopped at their deadline",
        snapshot.jobs_expired,
    );
    exp.counter(
        "wnw_jobs_failed_total",
        "jobs stopped by an access error or sampler panic",
        snapshot.jobs_failed,
    );
    exp.counter(
        "wnw_jobs_degraded_total",
        "jobs finished as degraded partials (a walker was stopped by a fault)",
        snapshot.jobs_degraded,
    );
    exp.counter(
        "wnw_walkers_degraded_total",
        "walkers stopped by a transient fault, exhausted retries, or an open breaker",
        snapshot.walkers_degraded,
    );
    exp.counter(
        "wnw_jobs_finished_total",
        "total terminal jobs",
        snapshot.jobs_finished,
    );

    // Delivery and the paper's query-cost ledger.
    exp.counter(
        "wnw_samples_delivered_total",
        "samples streamed to consumers",
        snapshot.samples_delivered,
    );
    exp.counter(
        "wnw_budget_refunded_total",
        "unused query budget returned by early-stopped jobs",
        snapshot.budget_refunded,
    );
    exp.counter(
        "wnw_aggregate_query_cost_total",
        "distinct nodes the service paid for across all jobs",
        snapshot.aggregate_query_cost,
    );
    exp.counter(
        "wnw_isolated_query_cost_total",
        "what the finished jobs would have paid as isolated runs",
        snapshot.isolated_query_cost,
    );
    exp.gauge(
        "wnw_shared_cache_savings",
        "unique-node queries saved by cross-job cache sharing",
        gauge(snapshot.shared_cache_savings()),
    );

    // Shared neighbor-cache counters.
    exp.counter(
        "wnw_pool_unique_nodes_total",
        "distinct nodes charged by the shared pool cache",
        snapshot.pool.unique_nodes,
    );
    exp.counter(
        "wnw_pool_api_calls_total",
        "neighbor-list fetches that went to the network",
        snapshot.pool.api_calls,
    );
    exp.counter(
        "wnw_pool_cache_hits_total",
        "neighbor-list fetches served from the shared cache",
        snapshot.pool.cache_hits,
    );
    exp.counter(
        "wnw_pool_attribute_reads_total",
        "node attribute reads",
        snapshot.pool.attribute_reads,
    );

    // Persistent worker-pool round dispatch.
    exp.gauge(
        "wnw_worker_pool_workers",
        "threads spawned at pool startup (constant: the zero-spawn guarantee)",
        gauge(snapshot.worker_pool.workers),
    );
    exp.counter(
        "wnw_worker_pool_rounds_dispatched_total",
        "rounds fanned over the parked workers",
        snapshot.worker_pool.rounds_dispatched,
    );
    exp.counter(
        "wnw_worker_pool_spawnless_rounds_total",
        "rounds run inline on the scheduler thread",
        snapshot.worker_pool.spawnless_rounds,
    );
    exp.counter(
        "wnw_worker_pool_worker_wakeups_total",
        "times a parked worker woke and found work",
        snapshot.worker_pool.worker_wakeups,
    );

    // Cross-job history-store reuse.
    exp.counter(
        "wnw_history_hits_total",
        "admissions that found a published walk history",
        snapshot.history.hits,
    );
    exp.counter(
        "wnw_history_misses_total",
        "admissions that looked for a history and found none",
        snapshot.history.misses,
    );
    exp.counter(
        "wnw_history_publications_total",
        "history publications (epoch bumps)",
        snapshot.history.publications,
    );
    exp.counter(
        "wnw_history_published_walks_total",
        "walk entries published to the history store",
        snapshot.history.published_walks,
    );
    exp.counter(
        "wnw_history_reused_walks_total",
        "walk entries inherited by reusing jobs",
        snapshot.history.reused_walks,
    );
    exp.counter(
        "wnw_history_reuse_savings_total",
        "unique-node query cost inherited instead of re-spent",
        snapshot.history.reuse_savings,
    );
    exp.gauge(
        "wnw_history_epoch",
        "current history-store epoch",
        gauge(snapshot.history.epoch),
    );

    // Resilience layer: retry/backoff/breaker counters (all zero when the
    // service runs without a ResilienceMonitor attached).
    exp.counter(
        "wnw_resilience_calls_total",
        "neighbor fetches that entered the retry layer",
        snapshot.resilience.calls,
    );
    exp.counter(
        "wnw_resilience_faults_seen_total",
        "retryable faults observed across all attempts",
        snapshot.resilience.faults_seen,
    );
    exp.counter(
        "wnw_resilience_retries_total",
        "retry attempts after a retryable fault",
        snapshot.resilience.retries,
    );
    exp.counter(
        "wnw_resilience_backoff_wait_seconds_total",
        "simulated seconds spent waiting in backoff",
        snapshot.resilience.backoff_wait_secs,
    );
    exp.counter(
        "wnw_resilience_rate_limit_honored_total",
        "rate-limit rejections whose retry_after was honored exactly",
        snapshot.resilience.rate_limit_honored,
    );
    exp.counter(
        "wnw_resilience_retries_exhausted_total",
        "calls that failed after the full retry budget",
        snapshot.resilience.retries_exhausted,
    );
    exp.counter(
        "wnw_resilience_recovered_total",
        "calls that succeeded after at least one retry",
        snapshot.resilience.recovered,
    );
    exp.counter(
        "wnw_resilience_breaker_opened_total",
        "circuit-breaker trips (closed-to-open transitions)",
        snapshot.resilience.breaker_opened,
    );
    exp.counter(
        "wnw_resilience_breaker_half_open_probes_total",
        "probe calls admitted while the breaker was half-open",
        snapshot.resilience.breaker_half_open_probes,
    );
    exp.counter(
        "wnw_resilience_breaker_fast_fails_total",
        "calls rejected immediately by an open breaker",
        snapshot.resilience.breaker_fast_fails,
    );
    exp.gauge(
        "wnw_resilience_breaker_open",
        "whether the circuit breaker is currently open (1) or not (0)",
        i64::from(snapshot.resilience.breaker_open),
    );

    // Latency and cost distributions.
    exp.histogram(
        "wnw_queue_wait_us",
        "admission-to-first-round queue wait in microseconds",
        &snapshot.queue_wait_histogram,
    );
    exp.histogram(
        "wnw_job_latency_us",
        "submit-to-done latency in microseconds over finished jobs",
        &snapshot.latency_histogram,
    );
    exp.histogram(
        "wnw_time_to_first_sample_us",
        "submit-to-first-delivered-sample latency in microseconds",
        &snapshot.first_sample_histogram,
    );
    exp.histogram(
        "wnw_round_duration_us",
        "scheduler batch duration in microseconds, one per wave of job rounds (empty with telemetry off)",
        &snapshot.round_duration_histogram,
    );
    exp.histogram(
        "wnw_job_query_cost",
        "unique-node queries per finished job",
        &snapshot.job_cost_histogram,
    );
    exp.histogram(
        "wnw_resilience_retries_per_query",
        "retries needed per successful neighbor fetch",
        &snapshot.resilience.retries_per_call,
    );

    exp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use wnw_access::counter::QueryStats;
    use wnw_service::{HistoryStoreStats, PoolStats};
    use wnw_telemetry::prometheus::validate;
    use wnw_telemetry::Histogram;

    fn snapshot() -> ServiceMetricsSnapshot {
        let waits = Histogram::new();
        waits.record(120);
        waits.record(4_000);
        ServiceMetricsSnapshot {
            jobs_submitted: 9,
            jobs_rejected: 2,
            jobs_queued: 1,
            jobs_running: 2,
            jobs_completed: 4,
            jobs_cancelled: 1,
            jobs_expired: 0,
            jobs_failed: 1,
            jobs_degraded: 1,
            walkers_degraded: 2,
            jobs_finished: 6,
            samples_delivered: 480,
            aggregate_query_cost: 700,
            isolated_query_cost: 1000,
            budget_refunded: 55,
            mean_latency: Duration::from_millis(4),
            jobs_started: 8,
            mean_queue_wait: Duration::from_micros(2_060),
            max_queue_wait: Duration::from_micros(4_000),
            pool: QueryStats {
                unique_nodes: 700,
                api_calls: 900,
                cache_hits: 1_400,
                attribute_reads: 480,
            },
            worker_pool: PoolStats {
                workers: 3,
                rounds_dispatched: 40,
                spawnless_rounds: 11,
                worker_wakeups: 118,
            },
            history: HistoryStoreStats {
                hits: 2,
                misses: 3,
                publications: 2,
                published_walks: 64,
                reused_walks: 32,
                reuse_savings: 29,
                epoch: 2,
            },
            resilience: wnw_service::ResilienceStats {
                calls: 40,
                faults_seen: 7,
                retries: 6,
                backoff_wait_secs: 19,
                rate_limit_honored: 3,
                retries_exhausted: 1,
                recovered: 5,
                breaker_opened: 1,
                breaker_half_open_probes: 1,
                breaker_fast_fails: 2,
                breaker_open: true,
                clock_secs: 77,
                retries_per_call: Histogram::new().snapshot(),
            },
            queue_wait_histogram: waits.snapshot(),
            latency_histogram: Histogram::new().snapshot(),
            first_sample_histogram: Histogram::new().snapshot(),
            job_cost_histogram: Histogram::new().snapshot(),
            round_duration_histogram: Histogram::new().snapshot(),
        }
    }

    #[test]
    fn exposition_is_valid_and_carries_every_family() {
        let text = exposition(&snapshot());
        let stats = validate(&text).expect("document validates");
        assert_eq!(stats.histograms, 6);
        assert!(
            stats.series >= 20,
            "expected a rich scrape, got {} series",
            stats.series
        );
        for needle in [
            "wnw_jobs_submitted_total 9",
            "wnw_jobs_queued 1",
            "wnw_jobs_degraded_total 1",
            "wnw_walkers_degraded_total 2",
            "wnw_shared_cache_savings 300",
            "wnw_pool_cache_hits_total 1400",
            "wnw_worker_pool_workers 3",
            "wnw_history_reuse_savings_total 29",
            "wnw_resilience_retries_total 6",
            "wnw_resilience_backoff_wait_seconds_total 19",
            "wnw_resilience_rate_limit_honored_total 3",
            "wnw_resilience_breaker_opened_total 1",
            "wnw_resilience_breaker_open 1",
            "wnw_resilience_retries_per_query_bucket{le=\"+Inf\"} 0",
            "wnw_queue_wait_us_count 2",
            "wnw_queue_wait_us_sum 4120",
            "wnw_queue_wait_us_bucket{le=\"+Inf\"} 2",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn empty_snapshot_still_exposes_complete_histogram_families() {
        let empty = ServiceMetricsSnapshot {
            queue_wait_histogram: Histogram::new().snapshot(),
            ..snapshot()
        };
        let text = exposition(&empty);
        validate(&text).expect("empty histograms are still well-formed");
        assert!(text.contains("wnw_queue_wait_us_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("wnw_queue_wait_us_sum 0"));
        assert!(text.contains("wnw_queue_wait_us_count 0"));
    }
}
