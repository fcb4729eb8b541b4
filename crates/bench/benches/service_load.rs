//! Service load bench: the `wnw-loadgen` preset suite against a fresh
//! loopback gateway per scenario, scored against each scenario's SLO.
//!
//! Writes `BENCH_service_load.json` at the repo root — one row per
//! scenario with throughput, shed rate, p50/p99/p999 for queue wait,
//! end-to-end latency, and time-to-first-sample, the server-metrics
//! cross-check, and the per-objective SLO verdicts. Exits nonzero when
//! any scenario misses its SLO (or the artifact cannot be written), so CI
//! can gate on the bench's exit code alone. Set `WNW_BENCH_SMOKE=1` for
//! the CI-sized run, which writes `target/BENCH_service_load.json`
//! instead.

use wnw_loadgen::{run_preset_suite, suite_json, write_report, Scale};

fn main() {
    let scale = Scale::from_env();
    let reports = match run_preset_suite(scale) {
        Ok(reports) => reports,
        Err(err) => {
            eprintln!("load suite failed to run: {err}");
            std::process::exit(1);
        }
    };

    eprintln!("service load suite ({scale:?}):");
    for r in &reports {
        eprintln!(
            "  {:8} offered {:>4}  shed {:>5.1}%  completed {:>4}  {:>6.1} jobs/s  \
             qwait p99 {:>7.1} ms  e2e p99 {:>7.1} ms  ttfs p99 {:>7.1} ms  slo {}",
            r.scenario,
            r.offered,
            r.shed_rate * 100.0,
            r.completed,
            r.throughput_rps,
            r.queue_wait_ms.p99,
            r.e2e_ms.p99,
            r.ttfs_ms.p99,
            if r.slo.pass { "PASS" } else { "FAIL" },
        );
        for check in r.slo.checks.iter().filter(|c| !c.pass) {
            eprintln!(
                "           SLO FAIL {}: observed {:.2} vs threshold {:.2}",
                check.name, check.observed, check.threshold
            );
        }
    }

    write_report(
        scale,
        "BENCH_service_load.json",
        &suite_json(scale, &reports),
    );

    if reports.iter().any(|r| !r.slo.pass) {
        eprintln!("one or more scenarios missed their SLO");
        std::process::exit(1);
    }
}
