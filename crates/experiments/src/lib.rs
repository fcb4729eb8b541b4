//! # wnw-experiments
//!
//! Experiment harness reproducing every table and figure of *"Walk, Not
//! Wait"* (Nazi et al., VLDB 2015). Each figure/table has a module under
//! [`figures`] exposing a `run(scale) -> FigureResult` function that
//! regenerates the corresponding data series; the `repro` binary drives them
//! and writes CSV/markdown output.
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`figures::fig01`] | Figure 1 — min/max sampling probability vs walk length |
//! | [`figures::fig02`] | Figure 2 — IDEAL-WALK query cost per sample vs walk length |
//! | [`figures::fig03`] | Figure 3 — query-cost saving vs graph size |
//! | [`figures::fig05`] | Figure 5 — steps per sample vs cycle diameter (limitation study) |
//! | [`figures::fig06`] | Figure 6 — Google Plus: relative error vs query cost |
//! | [`figures::fig07`] | Figure 7 — Yelp: relative error vs query cost |
//! | [`figures::fig08`] | Figure 8 — Twitter: relative error vs query cost |
//! | [`figures::fig09`] | Figure 9 — variance-reduction ablation (WE/WE-None/WE-Crawl/WE-Weighted) |
//! | [`figures::fig10`] | Figure 10 — relative error vs number of samples |
//! | [`figures::fig11`] | Figure 11 — synthetic graphs: scaling with graph size |
//! | [`figures::fig12`] | Figure 12 + Table 1 — exact sampling-distribution bias |
//!
//! The real Google Plus / Yelp / Twitter crawls are not redistributable, so
//! [`datasets`] builds surrogate graphs matching the properties the samplers
//! interact with (degree distribution shape, density, diameter, attribute
//! variance); the [`wnw_graph::generators::surrogate`] module doc gives the
//! substitution rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod figures;
pub mod measures;
pub mod report;
pub mod runner;

pub use datasets::DatasetRegistry;
pub use measures::Aggregate;
pub use report::{ExperimentScale, FigureResult, Table};
pub use runner::SamplerKind;
