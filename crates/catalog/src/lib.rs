//! # wnw-catalog
//!
//! Versioned binary on-disk catalogs of [`wnw_graph::Graph`]s for the
//! *"Walk, Not Wait"* (Nazi et al., VLDB 2015) reproduction, and a registry
//! of named seeded graphs that are generated once and loaded per run.
//!
//! At the ROADMAP's north-star scale (millions of users), regenerating the
//! graph on every run dominates start-up time. This crate supplies:
//!
//! * [`mod@format`] — the `WNWCATLG` binary catalog format (magic, versioned
//!   header, FNV-1a-checksummed little-endian sections: the graph's two CSR
//!   arrays and its attribute columns; std-only I/O) with
//!   [`save`](format::save)/[`load`](format::load); every way a file can be
//!   damaged maps to a typed [`CatalogError`], never a panic;
//! * [`GraphSpec`] — named, seeded graph specifications (`ba_100k`,
//!   `ba_1m`, ...) with a build-once cache under `target/catalogs/` (or
//!   `$WNW_CATALOG_DIR`), so large graphs are loaded in milliseconds
//!   instead of regenerated per run; [`load_or_build_in`] is the same
//!   cache for graphs a spec cannot describe.
//!
//! A loaded graph is an ordinary [`Graph`](wnw_graph::Graph): serve it with
//! `wnw_access::SimulatedOsn` like any other.
//!
//! # Quick example
//!
//! ```
//! use wnw_catalog::{GraphModel, GraphSpec};
//! use wnw_graph::NodeId;
//!
//! let spec = GraphSpec::new("demo", GraphModel::BarabasiAlbert { m: 2 }, 500, 42);
//! let graph = spec.build().unwrap();
//! assert_eq!(graph.node_count(), 500);
//! assert!(graph.degree(NodeId(0)) >= 2);
//!
//! let mut bytes = Vec::new();
//! wnw_catalog::format::save_to(&graph, &mut bytes).unwrap();
//! assert_eq!(wnw_catalog::format::load_from(&mut &bytes[..]).unwrap(), graph);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod format;
pub mod spec;

pub use error::CatalogError;
pub use spec::{
    catalog_dir, load_or_build_in, CatalogSource, GraphModel, GraphSpec, CATALOG_DIR_ENV,
};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CatalogError>;
