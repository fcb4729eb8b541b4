//! Plain-text edge lists, for interchange.
//!
//! Real OSN datasets (SNAP edge lists, crawler output) typically arrive as
//! whitespace-separated edge lists: one `u v` pair per line, `#`-prefixed
//! comments allowed, node ids not necessarily dense (they are remapped in
//! first-seen order). This module reads and writes that format, the only
//! on-disk graph format: seeded graphs are regenerated, never stored.

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::Result;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Reads an undirected edge list from a reader.
///
/// Lines are `u v` (whitespace separated); blank lines and lines starting
/// with `#` or `%` are skipped. Node ids are remapped to a dense `0..n` range
/// in first-seen order; self-loops and duplicate edges are dropped.
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph> {
    let reader = BufReader::new(reader);
    let mut remap: HashMap<u64, u32> = HashMap::new();
    let mut builder = GraphBuilder::new();
    let intern = |raw: u64, remap: &mut HashMap<u64, u32>| -> u32 {
        let next = remap.len() as u32;
        *remap.entry(raw).or_insert(next)
    };
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse = |tok: Option<&str>, lineno: usize| -> Result<u64> {
            let tok = tok.ok_or(GraphError::Parse {
                line: lineno + 1,
                message: "expected two node ids per line".into(),
            })?;
            tok.parse::<u64>().map_err(|_| GraphError::Parse {
                line: lineno + 1,
                message: format!("`{tok}` is not a non-negative integer node id"),
            })
        };
        let u = parse(parts.next(), lineno)?;
        let v = parse(parts.next(), lineno)?;
        let u = intern(u, &mut remap);
        let v = intern(v, &mut remap);
        builder.add_edge(u, v);
    }
    Ok(builder.build())
}

/// Reads an edge list from a file path. See [`read_edge_list`].
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<Graph> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file)
}

/// Writes the graph as an edge list (`u v` per line, each undirected edge
/// once), preceded by a comment header with node/edge counts.
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# walk-not-wait edge list")?;
    writeln!(w, "# nodes {} edges {}", g.node_count(), g.edge_count())?;
    for (u, v) in g.edges() {
        writeln!(w, "{} {}", u.0, v.0)?;
    }
    w.flush()?;
    Ok(())
}

/// Writes an edge list to a file path. See [`write_edge_list`].
pub fn write_edge_list_file<P: AsRef<Path>>(g: &Graph, path: P) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_edge_list(g, file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random::barabasi_albert;

    #[test]
    fn edge_list_roundtrip() {
        let g = barabasi_albert(50, 3, 1).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..]).unwrap();
        assert_eq!(h.node_count(), g.node_count());
        assert_eq!(h.edge_count(), g.edge_count());
    }

    #[test]
    fn edge_list_parses_comments_and_sparse_ids() {
        let text = "# comment\n% another\n\n100 200\n200 300\n100 300\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(read_edge_list("1 x\n".as_bytes()).is_err());
        assert!(read_edge_list("1\n".as_bytes()).is_err());
    }
}
