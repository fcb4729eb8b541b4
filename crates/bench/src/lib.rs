//! Micro-benchmarks and load suites of the workspace, one target each under
//! `benches/`: per-layer timings (history reads, the access stack, round
//! dispatch, histograms, graph builds) and the SLO-scored service and
//! gateway load suites. Most write a `BENCH_*.json` report; each file's
//! header says what it measures and where it writes. Set `WNW_BENCH_SMOKE=1`
//! for the CI-sized runs.
//!
//! The paper's figures and tables are regenerated by the `repro` binary, not
//! by benches:
//! `cargo run --release -p wnw-experiments --bin repro -- --scale quick`.
