//! Chaos-scored graceful degradation: the `chaos` workload against a
//! **fault-injected** testbed, with resilience verdicts.
//!
//! The testbed wraps the usual simulated OSN in a seeded fault injector
//! (transient errors, timeout stalls, rate-limit bursts, flapping nodes,
//! blacked-out nodes) and a resilience layer (bounded retries,
//! decorrelated-jitter backoff on a simulated clock, a per-backend
//! circuit breaker). Before the load starts it forces one breaker
//! trip-and-recovery so the open → half-open → closed cycle is on the
//! record; then the open-loop driver offers the seeded `chaos` workload
//! and scores what the clients saw.
//!
//! The run passes only if, on top of the usual latency SLOs:
//!
//! * **zero accepted jobs are lost** — every job the gateway accepted
//!   delivers a terminal event, however bad the fault weather;
//! * at most a bounded fraction of jobs finish *degraded* (partial
//!   results after the resilience layer gave up on some walkers);
//! * no call ever retried past the policy cap.
//!
//! ```text
//! cargo run --release --example chaos_replay            # full scale
//! WNW_BENCH_SMOKE=1 cargo run --example chaos_replay    # CI-sized
//! ```
//!
//! A full run writes `BENCH_fault_resilience.json` at the repository
//! root; a smoke run writes it under `target/`.

use walk_not_wait::loadgen::{chaos_suite_json, run_chaos_suite, write_report, Scale};

fn main() {
    let scale = Scale::from_env();

    println!("replaying the chaos scenario at {scale:?} scale...\n");
    let (report, evidence) = match run_chaos_suite(scale) {
        Ok(run) => run,
        Err(err) => {
            eprintln!("chaos run failed: {err}");
            std::process::exit(1);
        }
    };

    let res = evidence.resilience;
    let faults = evidence.fault_stats;
    println!(
        "offered {}   completed {}   degraded {}   lost {}   shed {}",
        report.offered, report.completed, report.degraded, report.lost, report.shed,
    );
    println!(
        "faults injected {} (transient {}, stalls {}, rate-limits {}, flaps {}, blackout {})",
        faults.total_injected(),
        faults.transient_errors,
        faults.stalls,
        faults.rate_limits,
        faults.flaps,
        faults.blackout_hits,
    );
    println!(
        "resilience: {} retries, {} recovered, {} exhausted, breaker opened {}x \
         (fast-fails {}, half-open probes {}), {} simulated secs in backoff",
        res.retries,
        res.recovered,
        res.retries_exhausted,
        res.breaker_opened,
        res.breaker_fast_fails,
        res.breaker_half_open_probes,
        res.backoff_wait_secs,
    );
    println!(
        "verdicts: slo {}   zero-loss {}   retries-within-policy {}   breaker-recovered {}",
        pass(report.slo.pass),
        pass(report.lost == 0),
        pass(evidence.retries_within_policy()),
        pass(evidence.breaker_recovered()),
    );

    write_report(
        scale,
        "BENCH_fault_resilience.json",
        &chaos_suite_json(scale, &report, &evidence),
    );

    if !report.slo.pass || !evidence.retries_within_policy() || !evidence.breaker_recovered() {
        eprintln!("chaos run missed its resilience objectives");
        std::process::exit(1);
    }
}

fn pass(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}
