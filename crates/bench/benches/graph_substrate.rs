//! Graph-build benchmark: how long the seeded Barabási–Albert generator
//! takes to build a graph, at the scales the ROADMAP's north star needs.
//!
//! Every graph in the workspace is regenerated from its seed where it is
//! used, so this build time is what a run pays up front. For each graph
//! (`ba_100k` and `ba_1m` at full scale; `ba_10k` and `ba_50k` under
//! `WNW_BENCH_SMOKE=1`; all with `m = 3`) the bench measures:
//!
//! * **regenerate** — the seeded `barabasi_albert` call and nothing else;
//! * **bytes/edge** — the graph's two CSR arrays (`u64` offsets, `u32`
//!   neighbor ids) per undirected edge.
//!
//! The per-lookup cost of `Graph::neighbors` is `micro_access_stack`'s
//! `graph` layer; it is not repeated here.
//!
//! The bench writes `BENCH_graph_substrate.json` at the repo root (a smoke
//! run writes it under `target/`), with the host's `nproc`.

use std::time::{Duration, Instant};
use wnw_graph::generators::random::barabasi_albert;
use wnw_loadgen::{write_report, Scale};

/// Edges each newcomer attaches with in every measured graph.
const EDGES_PER_NODE: usize = 3;

/// A measured graph: name, node count and seed.
type GraphCase = (&'static str, usize, u64);

/// The graphs measured at each scale.
fn cases() -> [GraphCase; 2] {
    if Scale::from_env() == Scale::Smoke {
        [
            ("ba_10k", 10_000, 0x0B17_0001),
            ("ba_50k", 50_000, 0x0B17_0002),
        ]
    } else {
        [
            ("ba_100k", 100_000, 0x0B17_0003),
            ("ba_1m", 1_000_000, 0x0B17_0004),
        ]
    }
}

/// One graph's measurement row.
struct BuildResult {
    name: &'static str,
    nodes: usize,
    edges: usize,
    regenerate_ms: f64,
    bytes_per_edge: f64,
}

fn measure((name, nodes, seed): GraphCase) -> BuildResult {
    // Best of three strips scheduler noise from a single-shot build; the
    // 1M-node build is long enough to time once.
    let tries = if nodes > 200_000 { 1 } else { 3 };
    let mut best = Duration::MAX;
    let mut graph = None;
    for _ in 0..tries {
        let started = Instant::now();
        let built = barabasi_albert(nodes, EDGES_PER_NODE, seed).expect("valid BA parameters");
        best = best.min(started.elapsed());
        graph = Some(built);
    }
    let graph = graph.expect("tries >= 1");
    let edges = graph.edge_count();
    let array_bytes = 8 * (nodes + 1) + 4 * 2 * edges;
    BuildResult {
        name,
        nodes,
        edges,
        regenerate_ms: best.as_secs_f64() * 1e3,
        bytes_per_edge: array_bytes as f64 / edges as f64,
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn report_json(results: &[BuildResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"graph_substrate\",\n");
    out.push_str(
        "  \"description\": \"building a seeded graph (barabasi_albert, m = 3); bytes_per_edge \
         counts the graph's two CSR arrays (u64 offsets, u32 neighbor ids)\",\n",
    );
    out.push_str(&format!("  \"nproc\": {},\n", nproc()));
    out.push_str(&format!(
        "  \"smoke\": {},\n",
        Scale::from_env() == Scale::Smoke
    ));
    out.push_str("  \"specs\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"spec\": \"{}\", \"nodes\": {}, \"edges\": {}, \"regenerate_ms\": {:.2}, \
             \"bytes_per_edge\": {:.1}}}{}\n",
            r.name,
            r.nodes,
            r.edges,
            r.regenerate_ms,
            r.bytes_per_edge,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let results: Vec<BuildResult> = cases().into_iter().map(measure).collect();
    eprintln!("graph build (nproc {}):", nproc());
    for r in &results {
        eprintln!(
            "  {} ({} nodes, {} edges): regenerate {:.1} ms; {:.1} bytes/edge",
            r.name, r.nodes, r.edges, r.regenerate_ms, r.bytes_per_edge,
        );
    }
    write_report(
        Scale::from_env(),
        "BENCH_graph_substrate.json",
        &report_json(&results),
    );
}
