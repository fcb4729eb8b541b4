//! Named, seeded graph specifications and the build-once / load-forever
//! catalog cache.
//!
//! A [`GraphSpec`] fully determines a synthetic graph: model, parameters,
//! node count, and seed. Because generation is seed-deterministic, a spec's
//! catalog file can be built once, cached under [`catalog_dir`], and loaded
//! on every subsequent run — the load is an order of magnitude faster than
//! regeneration at the scales the registry names (see
//! `benches/graph_substrate.rs`). A corrupt, stale, or version-skewed cache
//! file is silently rebuilt, never trusted.
//!
//! [`load_or_build_in`] is that cache routine on its own, for graphs a
//! spec cannot describe (the experiments' attributed surrogates).

use crate::error::CatalogError;
use crate::format;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use wnw_graph::generators::random::barabasi_albert;
use wnw_graph::Graph;

/// Environment variable overriding the catalog cache directory.
pub const CATALOG_DIR_ENV: &str = "WNW_CATALOG_DIR";

/// The random-graph model a [`GraphSpec`] instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphModel {
    /// Barabási–Albert preferential attachment with `m` edges per arrival.
    BarabasiAlbert {
        /// Edges attached by each arriving node (also the minimum degree).
        m: usize,
    },
}

/// Where a [`GraphSpec::load_or_build_in`] result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatalogSource {
    /// Deserialized from an existing catalog file.
    Loaded,
    /// Generated from the spec (and cached for next time, best-effort).
    Built,
}

/// A fully-determined synthetic graph: name, model, size, and seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSpec {
    name: String,
    model: GraphModel,
    nodes: usize,
    seed: u64,
}

impl GraphSpec {
    /// A custom spec. Prefer the [registry](Self::builtin) names for
    /// anything benchmarks or tests will want to share.
    pub fn new(name: impl Into<String>, model: GraphModel, nodes: usize, seed: u64) -> Self {
        GraphSpec {
            name: name.into(),
            model,
            nodes,
            seed,
        }
    }

    /// The built-in registry: the standard sizes benchmarks and the
    /// testbed share. Seeds are fixed so every checkout generates
    /// byte-identical catalogs.
    pub fn builtin() -> Vec<GraphSpec> {
        vec![
            GraphSpec::new(
                "ba_10k",
                GraphModel::BarabasiAlbert { m: 3 },
                10_000,
                0x0B17_0001,
            ),
            GraphSpec::new(
                "ba_50k",
                GraphModel::BarabasiAlbert { m: 3 },
                50_000,
                0x0B17_0002,
            ),
            GraphSpec::new(
                "ba_100k",
                GraphModel::BarabasiAlbert { m: 3 },
                100_000,
                0x0B17_0003,
            ),
            GraphSpec::new(
                "ba_1m",
                GraphModel::BarabasiAlbert { m: 3 },
                1_000_000,
                0x0B17_0004,
            ),
        ]
    }

    /// Looks up a registry spec by name (`"ba_100k"`, `"ba_1m"`, ...).
    pub fn named(name: &str) -> Option<GraphSpec> {
        Self::builtin().into_iter().find(|s| s.name == name)
    }

    /// The spec's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The random-graph model and its parameters.
    pub fn model(&self) -> GraphModel {
        self.model
    }

    /// Number of nodes the generated graph will have.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Generates the graph from scratch (no cache involved).
    pub fn build(&self) -> Result<Graph, CatalogError> {
        match self.model {
            GraphModel::BarabasiAlbert { m } => Ok(barabasi_albert(self.nodes, m, self.seed)?),
        }
    }

    /// The cache file name for this spec, versioned with the format.
    pub fn file_name(&self) -> String {
        file_name(&self.name)
    }

    /// The cache path for this spec under `dir`.
    pub fn path_in(&self, dir: &Path) -> PathBuf {
        dir.join(self.file_name())
    }

    /// Loads this spec's catalog from the default [`catalog_dir`], building
    /// (and caching) it on any miss. See
    /// [`load_or_build_in`](Self::load_or_build_in).
    pub fn load_or_build(&self) -> Result<(Graph, CatalogSource), CatalogError> {
        self.load_or_build_in(&catalog_dir())
    }

    /// Loads this spec's catalog from `dir` if a valid cache file exists,
    /// otherwise generates the graph and caches it. A cache file that is
    /// damaged in any way, or whose node count no longer matches the spec,
    /// is rebuilt rather than trusted. See the free [`load_or_build_in`].
    pub fn load_or_build_in(&self, dir: &Path) -> Result<(Graph, CatalogSource), CatalogError> {
        load_or_build_in(dir, &self.name, Some(self.nodes), || self.build())
    }
}

/// The cache file name for graph `name`, versioned with the format.
fn file_name(name: &str) -> String {
    format!("{name}-v{}.wnwcat", format::FORMAT_VERSION)
}

/// The one load-or-build cache routine: loads graph `name` from
/// `dir/{name}-v{FORMAT_VERSION}.wnwcat` if that file is a valid catalog
/// (with `nodes` nodes, when given), otherwise runs `build` and caches its
/// result. The write is best-effort (a failed save is not an error; the
/// graph is still returned) and atomic: a temp file private to this call,
/// then a rename, so concurrent readers and writers — other threads or
/// other processes — never observe a half-written catalog.
pub fn load_or_build_in(
    dir: &Path,
    name: &str,
    nodes: Option<usize>,
    build: impl FnOnce() -> Result<Graph, CatalogError>,
) -> Result<(Graph, CatalogSource), CatalogError> {
    let file = file_name(name);
    let path = dir.join(&file);
    if let Ok(g) = format::load(&path) {
        if nodes.is_none_or(|n| g.node_count() == n) {
            return Ok((g, CatalogSource::Loaded));
        }
    }
    let g = build()?;
    let _ = try_cache(&g, dir, &file);
    Ok((g, CatalogSource::Built))
}

/// Writes `g` to `dir/file` via a temp file + rename. The temp name
/// carries the pid and a process-wide sequence number, so no two writers
/// ever share (and truncate) one temp file.
fn try_cache(g: &Graph, dir: &Path, file: &str) -> Result<(), CatalogError> {
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    std::fs::create_dir_all(dir)?;
    let seq = NEXT_TMP.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{file}.tmp-{}-{seq}", std::process::id()));
    let written = format::save(g, &tmp)
        .and_then(|()| std::fs::rename(&tmp, dir.join(file)).map_err(CatalogError::from));
    if written.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    written
}

/// The catalog cache directory: `$WNW_CATALOG_DIR` if set and non-empty,
/// else `target/catalogs/` under the workspace root.
pub fn catalog_dir() -> PathBuf {
    match std::env::var_os(CATALOG_DIR_ENV) {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/catalogs"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wnwcat-spec-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn registry_names_resolve() {
        for name in ["ba_10k", "ba_50k", "ba_100k", "ba_1m"] {
            let spec = GraphSpec::named(name).unwrap();
            assert_eq!(spec.name(), name);
            assert!(matches!(spec.model(), GraphModel::BarabasiAlbert { m: 3 }));
        }
        assert!(GraphSpec::named("no_such_graph").is_none());
        assert_eq!(GraphSpec::named("ba_1m").unwrap().nodes(), 1_000_000);
    }

    #[test]
    fn build_is_seed_deterministic() {
        let spec = GraphSpec::new("tiny", GraphModel::BarabasiAlbert { m: 2 }, 300, 77);
        assert_eq!(spec.build().unwrap(), spec.build().unwrap());
    }

    #[test]
    fn load_or_build_builds_then_loads() {
        let dir = temp_dir("cache");
        let spec = GraphSpec::new("cache_test", GraphModel::BarabasiAlbert { m: 2 }, 400, 5);

        let (g1, src1) = spec.load_or_build_in(&dir).unwrap();
        assert_eq!(src1, CatalogSource::Built);
        assert!(spec.path_in(&dir).is_file());

        let (g2, src2) = spec.load_or_build_in(&dir).unwrap();
        assert_eq!(src2, CatalogSource::Loaded);
        assert_eq!(g1, g2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_cache_is_rebuilt_not_trusted() {
        let dir = temp_dir("corrupt");
        let spec = GraphSpec::new("corrupt_test", GraphModel::BarabasiAlbert { m: 2 }, 200, 8);
        let (g1, _) = spec.load_or_build_in(&dir).unwrap();

        // Stomp the cache file with garbage.
        std::fs::write(spec.path_in(&dir), b"garbage, not a catalog").unwrap();
        let (g2, src) = spec.load_or_build_in(&dir).unwrap();
        assert_eq!(src, CatalogSource::Built);
        assert_eq!(g1, g2);
        // And the stomped file was repaired in passing.
        let (_, src3) = spec.load_or_build_in(&dir).unwrap();
        assert_eq!(src3, CatalogSource::Loaded);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_node_count_triggers_rebuild() {
        let dir = temp_dir("stale");
        let smaller = GraphSpec::new("stale_test", GraphModel::BarabasiAlbert { m: 2 }, 150, 3);
        let bigger = GraphSpec::new("stale_test", GraphModel::BarabasiAlbert { m: 2 }, 250, 3);
        smaller.load_or_build_in(&dir).unwrap();

        // Same name, different node count: cache must not be trusted.
        let (g, src) = bigger.load_or_build_in(&dir).unwrap();
        assert_eq!(src, CatalogSource::Built);
        assert_eq!(g.node_count(), 250);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_cold_loads_agree_and_leave_no_temp_files() {
        let dir = temp_dir("race");
        std::fs::remove_dir_all(&dir).ok();
        let spec = GraphSpec::new("race_test", GraphModel::BarabasiAlbert { m: 3 }, 3_000, 21);
        let graphs: Vec<Graph> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| spec.load_or_build_in(&dir).unwrap().0))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let expected = spec.build().unwrap();
        assert!(graphs.iter().all(|g| *g == expected));
        assert_eq!(format::load(&spec.path_in(&dir)).unwrap(), expected);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.contains(".tmp-"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_name_carries_format_version() {
        let spec = GraphSpec::named("ba_10k").unwrap();
        assert_eq!(
            spec.file_name(),
            format!("ba_10k-v{}.wnwcat", format::FORMAT_VERSION)
        );
    }
}
