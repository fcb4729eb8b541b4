//! Graph catalogs: build a seeded graph once, cache it as a binary catalog,
//! load it back in milliseconds, and sample it through `SimulatedOsn` — a
//! loaded catalog is an ordinary `Graph`.
//!
//! ```text
//! cargo run --release --example graph_catalog
//! ```
//!
//! Catalogs land under `target/catalogs/` (override with
//! `WNW_CATALOG_DIR`); delete the file to force a rebuild.

use std::time::Instant;
use walk_not_wait::catalog::{CatalogSource, GraphSpec};
use walk_not_wait::prelude::*;

fn main() {
    // ba_50k from the spec registry: 50 000 nodes, m = 3, fixed seed — the
    // same graph on every machine, every run.
    let spec = GraphSpec::named("ba_50k").expect("registry spec");

    let start = Instant::now();
    let (graph, source) = spec.load_or_build().expect("catalog generation");
    let first = start.elapsed();
    println!(
        "{}: {} nodes, {} edges — {} in {first:.2?}",
        spec.name(),
        graph.node_count(),
        graph.edge_count(),
        match source {
            CatalogSource::Built => "generated + cached",
            CatalogSource::Loaded => "loaded from catalog",
        },
    );

    // Second acquisition hits the cache file.
    let start = Instant::now();
    let (reloaded, source) = spec.load_or_build().expect("catalog load");
    let second = start.elapsed();
    assert_eq!(reloaded, graph);
    assert_eq!(source, CatalogSource::Loaded);
    println!("reload from {}: {second:.2?}", spec.file_name());

    // The loaded graph is served like any other: SimulatedOsn meters it.
    let network = SimulatedOsn::new(reloaded);
    let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 200, 0xCA7A)
        .with_walkers(4)
        .with_diameter_estimate(6);
    let start = Instant::now();
    let report = Engine::new().run(&network, &job).expect("sampling run");
    println!(
        "\nWALK-ESTIMATE on the catalog: {} samples in {:.2?} for {} queries",
        report.len(),
        start.elapsed(),
        report.query_cost(),
    );
}
