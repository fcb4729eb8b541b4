//! Catalog benchmark: how much a `.wnwcat` load saves over regenerating the
//! graph, at the scales the ROADMAP's north star needs.
//!
//! For each registry spec (`ba_100k` and `ba_1m` at full scale; `ba_10k`
//! and `ba_50k` under `WNW_BENCH_SMOKE=1`) the bench measures:
//!
//! * **regenerate** — `GraphSpec::build`, which is the seeded
//!   `barabasi_albert` call and nothing else;
//! * **catalog I/O** — binary save and load times (the load includes every
//!   checksum and the full `Graph::from_csr_parts` invariant check), and
//!   the load's speedup over regenerating;
//! * **bytes/edge** — the graph's two CSR arrays (`u64` offsets, `u32`
//!   neighbor ids) per undirected edge, which is also the catalog's size.
//!
//! The per-lookup cost of `Graph::neighbors` is `micro_access_stack`'s
//! `graph` layer; it is not repeated here.
//!
//! The bench writes `BENCH_graph_substrate.json` at the repo root (a smoke
//! run writes it under `target/`), with the host's `nproc`. At full scale
//! the run **gates**: a catalog load must be ≥ 10× faster than regeneration
//! at the largest spec.

use std::time::{Duration, Instant};
use wnw_catalog::{format, GraphSpec};
use wnw_loadgen::{write_report, Scale};

fn smoke() -> bool {
    Scale::from_env() == Scale::Smoke
}

/// Registry specs measured at each scale.
fn spec_names() -> [&'static str; 2] {
    if smoke() {
        ["ba_10k", "ba_50k"]
    } else {
        ["ba_100k", "ba_1m"]
    }
}

/// Best wall-clock of `tries` runs of `f` (build/load timings are
/// single-shot operations; best-of-N strips scheduler noise).
fn best_of<T>(tries: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best: Option<Duration> = None;
    let mut last = None;
    for _ in 0..tries {
        let started = Instant::now();
        let value = f();
        let took = started.elapsed();
        if best.is_none_or(|b| took < b) {
            best = Some(took);
        }
        last = Some(value);
    }
    (best.expect("tries >= 1"), last.expect("tries >= 1"))
}

/// One spec's measurement row.
struct SpecResult {
    name: &'static str,
    nodes: usize,
    edges: usize,
    regenerate_ms: f64,
    save_ms: f64,
    load_ms: f64,
    load_speedup: f64,
    bytes_per_edge: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn measure_spec(name: &'static str) -> SpecResult {
    let spec = GraphSpec::named(name).expect("registry spec");
    let tries = if spec.nodes() > 200_000 { 1 } else { 3 };
    let (regenerate, graph) = best_of(tries, || spec.build().expect("valid spec"));

    let dir = std::env::temp_dir().join(format!("wnw-substrate-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let path = dir.join(spec.file_name());
    let (save, ()) = best_of(tries.max(2), || {
        format::save(&graph, &path).expect("catalog save")
    });
    let (load, loaded) = best_of(tries.max(2), || format::load(&path).expect("catalog load"));
    assert_eq!(loaded, graph, "load must roundtrip exactly");
    std::fs::remove_dir_all(&dir).ok();

    let (nodes, edges) = (graph.node_count(), graph.edge_count());
    let array_bytes = 8 * (nodes + 1) + 4 * 2 * edges;
    SpecResult {
        name,
        nodes,
        edges,
        regenerate_ms: ms(regenerate),
        save_ms: ms(save),
        load_ms: ms(load),
        load_speedup: regenerate.as_secs_f64() / load.as_secs_f64().max(1e-9),
        bytes_per_edge: array_bytes as f64 / edges as f64,
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn report_json(results: &[SpecResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"graph_substrate\",\n");
    out.push_str(
        "  \"description\": \"regenerating a registry graph (GraphSpec::build = barabasi_albert) \
         vs saving and loading its .wnwcat catalog (load includes every checksum and the full \
         Graph::from_csr_parts invariant check); bytes_per_edge counts the graph's two CSR \
         arrays (u64 offsets, u32 neighbor ids)\",\n",
    );
    out.push_str(&format!("  \"nproc\": {},\n", nproc()));
    out.push_str(&format!("  \"smoke\": {},\n", smoke()));
    out.push_str("  \"specs\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"spec\": \"{}\", \"nodes\": {}, \"edges\": {}, \"regenerate_ms\": {:.2}, \
             \"catalog_save_ms\": {:.2}, \"catalog_load_ms\": {:.2}, \"load_speedup\": {:.1}, \
             \"bytes_per_edge\": {:.1}}}{}\n",
            r.name,
            r.nodes,
            r.edges,
            r.regenerate_ms,
            r.save_ms,
            r.load_ms,
            r.load_speedup,
            r.bytes_per_edge,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let results: Vec<SpecResult> = spec_names().iter().map(|&n| measure_spec(n)).collect();
    eprintln!("graph substrate (nproc {}):", nproc());
    for r in &results {
        eprintln!(
            "  {} ({} nodes, {} edges): regenerate {:.1} ms; save {:.1} ms, load {:.1} ms \
             ({:.1}x vs regenerate); {:.1} bytes/edge",
            r.name,
            r.nodes,
            r.edges,
            r.regenerate_ms,
            r.save_ms,
            r.load_ms,
            r.load_speedup,
            r.bytes_per_edge,
        );
    }

    write_report(
        Scale::from_env(),
        "BENCH_graph_substrate.json",
        &report_json(&results),
    );

    // The gate, judged on the largest spec (1M nodes at full scale). Smoke
    // runs report the same numbers but do not gate: CI's shared runners are
    // too noisy for a timing ratio at 10k-node scale.
    let largest = results.last().expect("at least one spec");
    let pass = largest.load_speedup >= 10.0;
    eprintln!(
        "  [{}] {}: catalog load >= 10x faster than regenerating (got {:.1}x)",
        if pass { "PASS" } else { "FAIL" },
        largest.name,
        largest.load_speedup
    );
    if !pass && !smoke() {
        eprintln!("graph_substrate: acceptance criteria not met");
        std::process::exit(1);
    }
}
