//! # wnw-loadgen — deterministic open-loop load generation with SLOs
//!
//! A workload-replay harness for the `wnw-gateway` HTTP service. It
//! answers the operational question behind *Walk, Not Wait*: does the
//! sampling service keep its latency promises — time-to-first-sample
//! above all — when real, messy traffic hits it over real sockets?
//!
//! The pieces, in pipeline order:
//!
//! | Module | Role |
//! |---|---|
//! | [`arrival`] | seeded Poisson / on-off burst arrival schedules |
//! | [`scenario`] | [`Scenario`] specs, the four named presets, the [`scenario::chaos`] scenario, and deterministic [`WorkPlan`] expansion |
//! | [`testbed`] | fresh simulated-OSN + service + loopback gateway per run; the chaos variant wraps the OSN in fault injection + the resilience policy and forces a breaker trip-and-recovery before traffic |
//! | `mux` (private) | the one load harness: a single client thread runs every request as a state machine over non-blocking sockets (connect, `POST`, `GET`, decode events, scripted `DELETE`s and stalls) |
//! | [`driver`] | open-loop scenario runs on that harness, reduced to reports, and the server-metrics cross-check |
//! | [`slo`] | SLO thresholds and verdicts, including the chaos-only max-degraded-rate and zero-job-loss objectives |
//! | [`report`] | per-scenario reports, `BENCH_service_load.json` and `BENCH_fault_resilience.json` emission |
//! | [`streams`] | the `gateway_streams` concurrency tiers: thousands of NDJSON streams held open at once on the same harness (`BENCH_gateway_streams.json`) |
//!
//! Two properties carry the weight:
//!
//! * **Open loop.** Every request's dispatch time is fixed before the run
//!   starts, so a slow service sheds load and grows queue-wait tails —
//!   it cannot thin the offered load by back-pressuring the generator
//!   (the coordinated-omission trap).
//! * **Determinism.** A scenario's seed fixes the arrival offsets, start
//!   nodes (Zipf-skewed), priorities, history policies, cancels, and
//!   slow-reader scripts. [`WorkPlan::fingerprint`] digests the request
//!   multiset and lands in the report, so "same seed, same workload" is
//!   checkable from the artifact alone.
//!
//! ## Quickstart
//!
//! ```no_run
//! use wnw_loadgen::{scenario, testbed};
//!
//! let steady = scenario::steady(scenario::Scale::Smoke);
//! let report = testbed::run_scenario(&steady).unwrap();
//! assert!(report.slo.pass, "steady smoke run must meet its SLO");
//! ```
//!
//! `cargo bench -p wnw-bench --bench service_load` runs the full preset
//! suite and writes `BENCH_service_load.json` at the repository root;
//! `cargo run --release --example chaos_replay` runs the fault-injected
//! chaos scenario and writes `BENCH_fault_resilience.json`. With
//! `WNW_BENCH_SMOKE` set, both run at smoke scale and write under
//! `target/` instead, leaving the committed full-scale reports alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod driver;
mod mux;
pub mod report;
pub mod scenario;
pub mod slo;
pub mod streams;
pub mod testbed;

pub use arrival::ArrivalProcess;
pub use report::{LatencySummary, ScenarioReport, ServerSummary};
pub use scenario::{presets, Scale, Scenario, WorkPlan};
pub use slo::{Slo, SloReport};
pub use streams::{run_streams_suite, streams_suite_json, StreamsTierReport};
pub use testbed::ChaosEvidence;

use std::io;
use std::path::{Path, PathBuf};

/// Runs the four named presets at `scale`, each against its own fresh
/// testbed, in suite order.
pub fn run_preset_suite(scale: Scale) -> io::Result<Vec<ScenarioReport>> {
    scenario::presets(scale)
        .iter()
        .map(testbed::run_scenario)
        .collect()
}

/// The suite serialised as the `BENCH_service_load.json` document.
pub fn suite_json(scale: Scale, reports: &[ScenarioReport]) -> String {
    let mode = match scale {
        Scale::Smoke => "smoke",
        Scale::Full => "full",
    };
    report::suite_to_json(mode, reports).encode()
}

/// Runs the [`scenario::chaos`] scenario at `scale` against the
/// fault-injected testbed (seeded fault schedule, retry/backoff/breaker
/// wrap, one forced breaker trip-and-recovery before the load starts).
pub fn run_chaos_suite(scale: Scale) -> io::Result<(ScenarioReport, ChaosEvidence)> {
    testbed::run_scenario_chaos(&scenario::chaos(scale))
}

/// The chaos run serialised as the `BENCH_fault_resilience.json` document.
pub fn chaos_suite_json(scale: Scale, report: &ScenarioReport, evidence: &ChaosEvidence) -> String {
    let mode = match scale {
        Scale::Smoke => "smoke",
        Scale::Full => "full",
    };
    report::chaos_suite_to_json(mode, report, evidence).encode()
}

/// Writes a suite's `BENCH_*.json` document and returns where it went:
/// the repository root at full scale, `target/` at smoke scale — so a
/// CI-sized run never overwrites the committed full-scale report.
pub fn write_report(scale: Scale, file_name: &str, document: &str) -> io::Result<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("the crate sits two levels below the repository root");
    let dir = match scale {
        Scale::Smoke => root.join("target"),
        Scale::Full => root.to_path_buf(),
    };
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file_name);
    std::fs::write(&path, document)?;
    Ok(path)
}
