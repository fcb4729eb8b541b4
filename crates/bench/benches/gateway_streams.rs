//! Gateway streams bench: the `wnw-loadgen` concurrency tiers against a
//! fresh two-I/O-thread loopback gateway per tier.
//!
//! Writes `BENCH_gateway_streams.json` at the repo root — one row per
//! tier with accepted/opened/completed stream counts, p50/p99
//! time-to-first-sample, events per second, and the server-metrics
//! cross-check. Exits nonzero when any tier sheds, errors, or loses a
//! job — or, at full scale, when no tier held at least 1 000 streams
//! concurrently open to completion — so CI can gate on the exit code
//! alone. Set `WNW_BENCH_SMOKE=1` for the CI-sized run, which writes
//! `target/BENCH_gateway_streams.json` instead.

use wnw_loadgen::streams::{run_streams_suite, streams_suite_json, suite_pass};
use wnw_loadgen::{write_report, Scale};

fn main() {
    let scale = if std::env::var_os("WNW_BENCH_SMOKE").is_some() {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let reports = match run_streams_suite(scale) {
        Ok(reports) => reports,
        Err(err) => {
            eprintln!("streams suite failed to run: {err}");
            std::process::exit(1);
        }
    };

    eprintln!("gateway streams tiers ({scale:?}):");
    for r in &reports {
        eprintln!(
            "  requested {:>6}  opened {:>6}  completed {:>6}  lost {:>3}  \
             ttfs p50 {:>8.1} ms  p99 {:>8.1} ms  {:>8.0} events/s  {}",
            r.requested,
            r.opened,
            r.completed,
            r.lost,
            r.ttfs_ms.p50,
            r.ttfs_ms.p99,
            r.events_per_sec,
            if r.clean() { "CLEAN" } else { "DIRTY" },
        );
    }

    match write_report(
        scale,
        "BENCH_gateway_streams.json",
        &streams_suite_json(scale, &reports),
    ) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(err) => {
            // The JSON report is the bench's whole point for CI — a silent
            // miss would leave the workflow green with no artifact.
            eprintln!("could not write BENCH_gateway_streams.json: {err}");
            std::process::exit(1);
        }
    }

    if !suite_pass(scale, &reports) {
        eprintln!("gateway streams suite failed its verdict");
        std::process::exit(1);
    }
}
