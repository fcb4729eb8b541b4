//! # wnw-graph
//!
//! Graph substrate for the reproduction of *"Walk, Not Wait: Faster Sampling
//! Over Online Social Networks"* (Nazi et al., VLDB 2015).
//!
//! The paper models an online social network as an undirected graph
//! `G⟨V, E⟩` that can only be explored through local-neighborhood queries.
//! This crate provides everything the rest of the workspace needs to *stand
//! in* for such a network:
//!
//! * [`Graph`] — a compact CSR (compressed sparse row) undirected graph with
//!   O(1) degree lookup and contiguous neighbor slices,
//! * [`GraphBuilder`] — an edge-list accumulator that deduplicates parallel
//!   edges and self-loops,
//! * [`generators`] — the theoretical graph models used in the paper's case
//!   studies (cycle, hypercube, barbell, balanced tree, Barabási–Albert, …)
//!   and surrogate online-social-network generators standing in for the
//!   Google Plus / Yelp / Twitter crawls,
//! * [`metrics`] — exact ground-truth graph measures (degrees, diameter,
//!   local clustering coefficient, shortest-path lengths, components) used to
//!   compute the relative error of sample-based estimates,
//! * [`attributes`] — per-node attribute storage (e.g. "stars",
//!   "self-description length") used by the aggregate-estimation experiments,
//! * [`io`] — plain-text edge lists for dataset interchange. Seeded graphs
//!   are never stored: every caller regenerates them from their seeds.
//!
//! # Quick example
//!
//! ```
//! use wnw_graph::generators::classic::cycle;
//! use wnw_graph::metrics;
//!
//! let g = cycle(8);
//! assert_eq!(g.node_count(), 8);
//! assert_eq!(g.edge_count(), 8);
//! assert_eq!(metrics::exact_diameter(&g), Some(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attributes;
pub mod builder;
pub mod error;
pub mod generators;
pub mod graph;
pub mod io;
pub mod metrics;
pub mod node;

pub use attributes::{AttributeTable, NodeAttributes};
pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::Graph;
pub use node::{NodeId, NodeIdHasher, NodeMap, NodeSet};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
