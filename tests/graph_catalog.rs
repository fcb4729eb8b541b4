//! Acceptance bar of the `wnw-catalog` subsystem, through the facade crate:
//!
//! * **CSR conformance (3 seeds):** the generated graph's CSR layout
//!   presents exactly the degree sequence and neighbor lists of a
//!   per-node-`Vec` adjacency rebuilt from its edges;
//! * **catalog roundtrip (3 seeds, plus an attributed surrogate):** save →
//!   load through the filesystem gives back the very same [`Graph`] —
//!   topology and every attribute column;
//! * **spec cache:** `load_or_build_in` builds on a cold directory, loads
//!   on a warm one, and recovers from a stomped cache file;
//! * **service on a catalog:** a `SamplingService` over a loaded graph
//!   delivers the same accepted-sample multiset, at the same query cost, as
//!   the same service over the freshly generated graph.

use std::path::PathBuf;
use walk_not_wait::catalog::{format, CatalogSource, GraphModel, GraphSpec};
use walk_not_wait::graph::generators::random::barabasi_albert;
use walk_not_wait::graph::generators::surrogate::yelp_like;
use walk_not_wait::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wnwcat-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The CSR layout changes storage, never topology: at three generator seeds
/// the generated graph presents exactly the degree sequence and neighbor
/// lists of a per-node-`Vec` adjacency rebuilt from its edge list, and
/// flattening that adjacency through `Graph::from_csr_parts` gives back the
/// same graph.
#[test]
fn csr_conforms_to_per_node_vec_graph_at_three_seeds() {
    for seed in [0xA11CE, 0xB0B, 0xC0FFEE] {
        let graph = barabasi_albert(2_000, 3, seed).unwrap();
        let mut lists: Vec<Vec<NodeId>> = vec![Vec::new(); graph.node_count()];
        for (u, v) in graph.edges() {
            lists[u.index()].push(v);
            lists[v.index()].push(u);
        }
        for list in &mut lists {
            list.sort_unstable();
        }
        assert_eq!(
            lists.iter().map(Vec::len).sum::<usize>(),
            2 * graph.edge_count()
        );
        for v in graph.nodes() {
            let expected = &lists[v.index()];
            assert_eq!(
                graph.degree(v),
                expected.len(),
                "degree of {v:?}, seed {seed:#x}"
            );
            assert_eq!(
                graph.neighbors(v),
                &expected[..],
                "neighbors of {v:?}, seed {seed:#x}"
            );
        }

        let mut offsets = vec![0u64];
        for list in &lists {
            offsets.push(offsets.last().unwrap() + list.len() as u64);
        }
        let rebuilt = Graph::from_csr_parts(offsets, lists.concat()).unwrap();
        assert_eq!(rebuilt, graph, "seed {seed:#x}");
    }
}

/// Save → load through the real filesystem is lossless at three generator
/// seeds, and for a surrogate that carries attribute columns.
#[test]
fn catalog_roundtrip_through_filesystem_is_lossless() {
    let dir = temp_dir("roundtrip");
    let path = dir.join("roundtrip.wnwcat");
    let mut graphs: Vec<Graph> = [0xA11CE, 0xB0B, 0xC0FFEE]
        .into_iter()
        .map(|seed| barabasi_albert(2_000, 3, seed).unwrap())
        .collect();
    graphs.push(yelp_like(600, 0xD15C).unwrap().graph);

    for graph in &graphs {
        format::save(graph, &path).unwrap();
        let loaded = format::load(&path).unwrap();
        assert_eq!(&loaded, graph);
        // Equal and usable: the loaded graph answers the walk's queries.
        let n = graph.node_count();
        for v in [0, 1, n / 2, n - 1] {
            let v = NodeId(v as u32);
            assert_eq!(loaded.degree(v), graph.degree(v));
            assert_eq!(loaded.neighbors(v), graph.neighbors(v));
        }
    }
    let surrogate = graphs.last().unwrap();
    assert!(surrogate.attributes().column("stars").is_some());
    std::fs::remove_dir_all(&dir).ok();
}

/// The spec cache lifecycle: cold build, warm load, corrupt-file recovery.
#[test]
fn spec_cache_builds_loads_and_self_heals() {
    let dir = temp_dir("cache");
    let spec = GraphSpec::new(
        "it_cache",
        GraphModel::BarabasiAlbert { m: 3 },
        1_000,
        0xFEED,
    );

    let (built, src) = spec.load_or_build_in(&dir).unwrap();
    assert_eq!(src, CatalogSource::Built);
    let (loaded, src) = spec.load_or_build_in(&dir).unwrap();
    assert_eq!(src, CatalogSource::Loaded);
    assert_eq!(built, loaded);

    std::fs::write(spec.path_in(&dir), b"\x00garbage").unwrap();
    let (healed, src) = spec.load_or_build_in(&dir).unwrap();
    assert_eq!(src, CatalogSource::Built);
    assert_eq!(healed, built);
    std::fs::remove_dir_all(&dir).ok();
}

/// End to end: the sampling service cannot tell a catalog-loaded graph from
/// the freshly generated one — same accepted-sample multiset, same
/// unique-node query cost.
#[test]
fn service_on_catalog_matches_service_on_simulated_osn() {
    let dir = temp_dir("service");
    let spec = GraphSpec::new(
        "it_service",
        GraphModel::BarabasiAlbert { m: 3 },
        1_500,
        0x5EED,
    );
    let fresh = spec.build().unwrap();
    spec.load_or_build_in(&dir).unwrap();
    let (loaded, src) = spec.load_or_build_in(&dir).unwrap();
    assert_eq!(src, CatalogSource::Loaded);

    let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 40, 0xAB)
        .with_walkers(4)
        .with_diameter_estimate(5);
    let run = |graph: Graph| {
        let service = SamplingService::builder(SimulatedOsn::new(graph))
            .pool_threads(2)
            .build();
        let ticket = service.submit(SampleRequest::new(job.clone())).unwrap();
        let (samples, outcome) = ticket.stream.collect_all();
        let outcome = outcome.unwrap();
        assert_eq!(outcome.status, JobStatus::Completed);
        let mut nodes: Vec<NodeId> = samples.iter().map(|s| s.node).collect();
        nodes.sort_unstable();
        (nodes, outcome.query_cost)
    };

    let (fresh_nodes, fresh_cost) = run(fresh);
    let (loaded_nodes, loaded_cost) = run(loaded);
    assert_eq!(
        fresh_nodes, loaded_nodes,
        "sample multisets must not depend on where the graph came from"
    );
    assert_eq!(fresh_cost, loaded_cost, "query accounting must match too");
    assert!(!loaded_nodes.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
