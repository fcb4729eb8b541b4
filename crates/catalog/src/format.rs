//! The versioned binary on-disk catalog format (std-only I/O).
//!
//! A catalog file is a [`Graph`] flattened to little-endian bytes with
//! enough integrity metadata to detect truncation, bit rot, and version
//! skew before a single neighbor is trusted:
//!
//! | bytes     | field                                            |
//! |-----------|--------------------------------------------------|
//! | 0..8      | magic `b"WNWCATLG"`                              |
//! | 8..12     | format version (`u32` LE, currently 2)           |
//! | 12..20    | node count (`u64` LE)                            |
//! | 20..28    | edge count (`u64` LE, undirected)                |
//! | 28..36    | word-wise FNV-1a64 of the offsets section        |
//! | 36..44    | word-wise FNV-1a64 of the neighbors section      |
//! | 44..52    | attributes section length in bytes (`u64` LE)    |
//! | 52..60    | byte-wise FNV-1a64 of the attributes section     |
//! | 60..68    | byte-wise FNV-1a64 of header bytes 0..60         |
//! | 68..      | offsets: `(node_count + 1) × u64` LE             |
//! | then      | neighbors: `2 × edge_count × u32` LE             |
//! | then      | attributes, then EOF                             |
//!
//! The attributes section holds the graph's named `f64` columns in
//! [`AttributeTable`](wnw_graph::AttributeTable) (name) order: a `u64`
//! column count, then per column a `u64` name length, the UTF-8 name, and
//! `node_count` `f64` values. A topology-only graph stores just the zero
//! count.
//!
//! Section checksums over the two arrays fold one whole element per FNV
//! step (a `u64` per offset, a zero-extended `u32` per neighbor) rather than
//! one byte — an 8× cheaper pass that keeps catalog loads far faster than
//! regeneration.
//!
//! Everything is read through [`CatalogError`] — a damaged file can never
//! panic the loader, and after the checksums pass the arrays still go
//! through [`Graph::from_csr_parts`], so the graph invariants (sorted
//! duplicate-free lists, no self-loops, every edge listed by both
//! endpoints) hold even against a file whose corruption was itself
//! checksummed.

use crate::error::CatalogError;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use wnw_graph::{Graph, NodeId};

/// First eight bytes of every catalog file.
pub const MAGIC: [u8; 8] = *b"WNWCATLG";

/// The catalog format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 2;

/// Fixed header length in bytes (magic through header checksum).
pub const HEADER_LEN: usize = 68;

/// Header bytes covered by the header checksum (everything before it).
const HEADER_SUMMED: usize = HEADER_LEN - 8;

/// Bytes converted per chunk when streaming sections to or from disk.
const CHUNK_ELEMS: usize = 8 * 1024;

/// Cap on any single `Vec::with_capacity` taken on a header's word: a
/// lying header can claim 2^60 nodes, and pre-reserving that would abort
/// the process before the truncation check ever runs. Reads past this just
/// grow geometrically.
const MAX_PREALLOC_BYTES: usize = 64 * 1024 * 1024;

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a round (xor, multiply). Section checksums over the two arrays
/// fold whole little-endian **words** per round rather than single bytes:
/// one multiply per element keeps the integrity check off the load path's
/// critical nanoseconds at 1M-node scale while still catching any flipped
/// bit in the section.
fn fold_word(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

fn checksum_words(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(FNV_OFFSET_BASIS, fold_word)
}

/// Plain byte-wise FNV-1a 64 (the header and attributes checksums).
fn fnv_bytes(bytes: &[u8]) -> u64 {
    checksum_words(bytes.iter().map(|&b| u64::from(b)))
}

/// The offsets array of `graph`'s CSR layout, rebuilt from its degrees.
fn offsets_of(graph: &Graph) -> impl Iterator<Item = u64> + '_ {
    std::iter::once(0).chain(graph.nodes().scan(0u64, |end, v| {
        *end += graph.degree(v) as u64;
        Some(*end)
    }))
}

/// The packed neighbor array of `graph`'s CSR layout.
fn neighbors_of(graph: &Graph) -> impl Iterator<Item = u32> + '_ {
    graph
        .nodes()
        .flat_map(|v| graph.neighbors(v).iter().map(|u| u.0))
}

/// Encodes the attributes section (see the module docs).
fn encode_attributes(graph: &Graph) -> Vec<u8> {
    let table = graph.attributes();
    let mut out = Vec::with_capacity(8 + table.len() * (16 + graph.node_count() * 8));
    out.extend_from_slice(&(table.len() as u64).to_le_bytes());
    for name in table.names() {
        let column = table.column(name).expect("name came from the table");
        out.extend_from_slice(&(name.len() as u64).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        for value in column.as_slice() {
            out.extend_from_slice(&value.to_le_bytes());
        }
    }
    out
}

/// Serializes `graph` (topology and attribute columns) to `writer` in
/// catalog format.
pub fn save_to<W: Write>(graph: &Graph, writer: &mut W) -> Result<(), CatalogError> {
    let attributes = encode_attributes(graph);

    let mut header = [0u8; HEADER_LEN];
    header[0..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header[12..20].copy_from_slice(&(graph.node_count() as u64).to_le_bytes());
    header[20..28].copy_from_slice(&(graph.edge_count() as u64).to_le_bytes());
    header[28..36].copy_from_slice(&checksum_words(offsets_of(graph)).to_le_bytes());
    let neighbors_sum = checksum_words(neighbors_of(graph).map(u64::from));
    header[36..44].copy_from_slice(&neighbors_sum.to_le_bytes());
    header[44..52].copy_from_slice(&(attributes.len() as u64).to_le_bytes());
    header[52..60].copy_from_slice(&fnv_bytes(&attributes).to_le_bytes());
    let head_sum = fnv_bytes(&header[..HEADER_SUMMED]);
    header[HEADER_SUMMED..].copy_from_slice(&head_sum.to_le_bytes());
    writer.write_all(&header)?;

    let mut buf = Vec::with_capacity(CHUNK_ELEMS * 8);
    for w in offsets_of(graph) {
        buf.extend_from_slice(&w.to_le_bytes());
        if buf.len() >= CHUNK_ELEMS * 8 {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    for w in neighbors_of(graph) {
        buf.extend_from_slice(&w.to_le_bytes());
        if buf.len() >= CHUNK_ELEMS * 8 {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    writer.write_all(&buf)?;
    writer.write_all(&attributes)?;
    writer.flush()?;
    Ok(())
}

/// Serializes `graph` to the file at `path` (created or truncated).
pub fn save(graph: &Graph, path: &Path) -> Result<(), CatalogError> {
    let mut w = BufWriter::new(File::create(path)?);
    save_to(graph, &mut w)
}

/// Total file size in bytes implied by a header's counts (saturating, so a
/// lying header cannot overflow it).
fn expected_file_len(node_count: u64, edge_count: u64, attributes_len: u64) -> u64 {
    (HEADER_LEN as u64)
        .saturating_add(node_count.saturating_add(1).saturating_mul(8))
        .saturating_add(edge_count.saturating_mul(8))
        .saturating_add(attributes_len)
}

/// Reads exactly `buf.len()` bytes, translating a short read into
/// [`CatalogError::Truncated`] with the given expected/consumed totals.
fn read_exact_or_truncated<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    expected: u64,
    consumed: &mut u64,
) -> Result<(), CatalogError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(CatalogError::Truncated {
                    expected,
                    actual: *consumed + filled as u64,
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    *consumed += filled as u64;
    Ok(())
}

fn header_word(header: &[u8; HEADER_LEN], at: usize) -> u64 {
    u64::from_le_bytes(header[at..at + 8].try_into().expect("8-byte slice"))
}

fn corrupt<T>(detail: String) -> Result<T, CatalogError> {
    Err(CatalogError::Corrupt { detail })
}

/// Splits `len` bytes off the front of `section`, or reports the attribute
/// section as corrupt.
fn split_off<'a>(section: &mut &'a [u8], len: u64, what: &str) -> Result<&'a [u8], CatalogError> {
    if len > section.len() as u64 {
        return corrupt(format!("attribute section ends inside {what}"));
    }
    let (head, rest) = section.split_at(len as usize);
    *section = rest;
    Ok(head)
}

fn take_u64(section: &mut &[u8], what: &str) -> Result<u64, CatalogError> {
    let bytes = split_off(section, 8, what)?;
    Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
}

/// Decodes the attributes section onto `graph`. Names must be strictly
/// increasing (the table's own order), so every graph has one encoding.
fn decode_attributes(graph: &mut Graph, mut section: &[u8]) -> Result<(), CatalogError> {
    let columns = take_u64(&mut section, "the column count")?;
    let mut previous: Option<&str> = None;
    for _ in 0..columns {
        let name_len = take_u64(&mut section, "a column name length")?;
        let name = std::str::from_utf8(split_off(&mut section, name_len, "a column name")?)
            .or_else(|_| corrupt("attribute column name is not UTF-8".into()))?;
        if previous.is_some_and(|p| p >= name) {
            return corrupt(format!("attribute column `{name}` is out of order"));
        }
        let width = (graph.node_count() as u64).saturating_mul(8);
        let values = split_off(&mut section, width, "a column's values")?
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
            .collect();
        graph.set_attribute(name, values)?;
        previous = Some(name);
    }
    if !section.is_empty() {
        return corrupt(format!(
            "attribute section has {} bytes after its last column",
            section.len()
        ));
    }
    Ok(())
}

/// Deserializes a catalog from `reader`, verifying magic, version, all four
/// checksums, exact length, and the [`Graph`] invariants.
pub fn load_from<R: Read>(reader: &mut R) -> Result<Graph, CatalogError> {
    let mut header = [0u8; HEADER_LEN];
    let mut consumed = 0u64;
    read_exact_or_truncated(reader, &mut header, HEADER_LEN as u64, &mut consumed)?;

    let mut magic = [0u8; 8];
    magic.copy_from_slice(&header[0..8]);
    if magic != MAGIC {
        return Err(CatalogError::BadMagic { found: magic });
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4-byte slice"));
    if version != FORMAT_VERSION {
        return Err(CatalogError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    if fnv_bytes(&header[..HEADER_SUMMED]) != header_word(&header, HEADER_SUMMED) {
        return Err(CatalogError::ChecksumMismatch { section: "header" });
    }

    let node_count = header_word(&header, 12);
    let edge_count = header_word(&header, 20);
    let stored_offsets_sum = header_word(&header, 28);
    let stored_neighbors_sum = header_word(&header, 36);
    let attributes_len = header_word(&header, 44);
    let stored_attributes_sum = header_word(&header, 52);
    let expected = expected_file_len(node_count, edge_count, attributes_len);

    let offsets_len = node_count.saturating_add(1);
    let neighbors_len = edge_count.saturating_mul(2);
    let clamp = |elems: u64, width: usize| -> usize {
        let want = elems.saturating_mul(width as u64);
        (want.min(MAX_PREALLOC_BYTES as u64) as usize) / width
    };

    let mut offsets: Vec<u64> = Vec::with_capacity(clamp(offsets_len, 8));
    let mut neighbors: Vec<NodeId> = Vec::with_capacity(clamp(neighbors_len, 4));
    let mut buf = vec![0u8; CHUNK_ELEMS * 8];
    let mut offsets_sum = FNV_OFFSET_BASIS;
    let mut remaining = offsets_len;
    while remaining > 0 {
        let take = remaining.min(CHUNK_ELEMS as u64) as usize;
        let chunk = &mut buf[..take * 8];
        read_exact_or_truncated(reader, chunk, expected, &mut consumed)?;
        for word in chunk.chunks_exact(8) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            offsets_sum = fold_word(offsets_sum, w);
            offsets.push(w);
        }
        remaining -= take as u64;
    }
    if offsets_sum != stored_offsets_sum {
        return Err(CatalogError::ChecksumMismatch { section: "offsets" });
    }

    let mut neighbors_sum = FNV_OFFSET_BASIS;
    let mut remaining = neighbors_len;
    while remaining > 0 {
        let take = remaining.min((CHUNK_ELEMS * 2) as u64) as usize;
        let chunk = &mut buf[..take * 4];
        read_exact_or_truncated(reader, chunk, expected, &mut consumed)?;
        for word in chunk.chunks_exact(4) {
            let w = u32::from_le_bytes(word.try_into().expect("4-byte chunk"));
            neighbors_sum = fold_word(neighbors_sum, u64::from(w));
            neighbors.push(NodeId(w));
        }
        remaining -= take as u64;
    }
    if neighbors_sum != stored_neighbors_sum {
        return Err(CatalogError::ChecksumMismatch {
            section: "neighbors",
        });
    }

    let mut attributes = Vec::with_capacity(clamp(attributes_len, 1));
    let got = reader
        .by_ref()
        .take(attributes_len)
        .read_to_end(&mut attributes)? as u64;
    if got < attributes_len {
        return Err(CatalogError::Truncated {
            expected,
            actual: consumed + got,
        });
    }
    if fnv_bytes(&attributes) != stored_attributes_sum {
        return Err(CatalogError::ChecksumMismatch {
            section: "attributes",
        });
    }

    let mut probe = [0u8; 64];
    let extra = loop {
        match reader.read(&mut probe) {
            Ok(0) => break 0,
            Ok(n) => break n as u64,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    };
    if extra > 0 {
        return Err(CatalogError::TrailingBytes { extra });
    }

    let mut graph =
        Graph::from_csr_parts(offsets, neighbors).or_else(|e| corrupt(e.to_string()))?;
    decode_attributes(&mut graph, &attributes)?;
    Ok(graph)
}

/// Loads a catalog from the file at `path`.
pub fn load(path: &Path) -> Result<Graph, CatalogError> {
    let mut r = BufReader::new(File::open(path)?);
    load_from(&mut r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnw_graph::generators::random::barabasi_albert;
    use wnw_graph::GraphBuilder;

    fn sample_graph() -> Graph {
        barabasi_albert(64, 3, 42).unwrap()
    }

    fn sample_bytes() -> Vec<u8> {
        let mut buf = Vec::new();
        save_to(&sample_graph(), &mut buf).unwrap();
        buf
    }

    /// Seals a hand-made header: magic, version, counts, the section
    /// checksums of `offsets` / `neighbors` / `attributes`, header checksum.
    fn seal_header(offsets: &[u64], neighbors: &[u32], attributes: &[u8]) -> [u8; HEADER_LEN] {
        let mut header = [0u8; HEADER_LEN];
        header[0..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        header[12..20].copy_from_slice(&(offsets.len() as u64 - 1).to_le_bytes());
        header[20..28].copy_from_slice(&(neighbors.len() as u64 / 2).to_le_bytes());
        header[28..36].copy_from_slice(&checksum_words(offsets.iter().copied()).to_le_bytes());
        let neighbors_sum = checksum_words(neighbors.iter().map(|&w| u64::from(w)));
        header[36..44].copy_from_slice(&neighbors_sum.to_le_bytes());
        header[44..52].copy_from_slice(&(attributes.len() as u64).to_le_bytes());
        header[52..60].copy_from_slice(&fnv_bytes(attributes).to_le_bytes());
        let head_sum = fnv_bytes(&header[..HEADER_SUMMED]);
        header[HEADER_SUMMED..].copy_from_slice(&head_sum.to_le_bytes());
        header
    }

    /// A file whose every checksum is valid, whatever the arrays say.
    fn crafted(offsets: &[u64], neighbors: &[u32]) -> Vec<u8> {
        let attributes = 0u64.to_le_bytes();
        let mut bytes = seal_header(offsets, neighbors, &attributes).to_vec();
        for w in offsets {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        for w in neighbors {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        bytes.extend_from_slice(&attributes);
        bytes
    }

    fn assert_corrupt(bytes: &[u8]) {
        let err = load_from(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, CatalogError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let g = sample_graph();
        let bytes = sample_bytes();
        assert_eq!(
            bytes.len() as u64,
            expected_file_len(g.node_count() as u64, g.edge_count() as u64, 8)
        );
        let back = load_from(&mut &bytes[..]).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn roundtrip_preserves_attribute_columns() {
        let mut g = sample_graph();
        let n = g.node_count();
        g.set_attribute("stars", (0..n).map(|i| i as f64 / 3.0).collect())
            .unwrap();
        g.set_attribute("in_degree", vec![f64::NAN; n]).unwrap();
        let mut bytes = Vec::new();
        save_to(&g, &mut bytes).unwrap();
        let back = load_from(&mut &bytes[..]).unwrap();
        assert_eq!(
            back.attributes().names().collect::<Vec<_>>(),
            ["in_degree", "stars"]
        );
        assert_eq!(
            back.attributes().column("stars"),
            g.attributes().column("stars")
        );
        assert!(back.attribute("in_degree", NodeId(5)).unwrap().is_nan());

        // A flipped value bit fails the attributes checksum.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = load_from(&mut &bytes[..]).unwrap_err();
        assert!(matches!(
            err,
            CatalogError::ChecksumMismatch {
                section: "attributes"
            }
        ));
    }

    #[test]
    fn roundtrip_through_filesystem() {
        let dir = std::env::temp_dir().join(format!("wnwcat-fmt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.wnwcat");
        let g = sample_graph();
        save(&g, &path).unwrap();
        assert_eq!(load(&path).unwrap(), g);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_reports_io() {
        let err = load(Path::new("/nonexistent/dir/none.wnwcat")).unwrap_err();
        assert!(matches!(err, CatalogError::Io(_)));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_bytes();
        bytes[0..8].copy_from_slice(b"NOTACATL");
        let err = load_from(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, CatalogError::BadMagic { found } if &found == b"NOTACATL"));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = sample_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        // Re-seal the header checksum so the version check (not the
        // checksum) is what fires.
        let sealed = fnv_bytes(&bytes[..HEADER_SUMMED]).to_le_bytes();
        bytes[HEADER_SUMMED..HEADER_LEN].copy_from_slice(&sealed);
        let err = load_from(&mut &bytes[..]).unwrap_err();
        assert!(matches!(
            err,
            CatalogError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            }
        ));
    }

    #[test]
    fn tampered_header_fails_its_checksum() {
        let mut bytes = sample_bytes();
        bytes[12] ^= 0x01; // flip a bit in the node count
        let err = load_from(&mut &bytes[..]).unwrap_err();
        assert!(matches!(
            err,
            CatalogError::ChecksumMismatch { section: "header" }
        ));
    }

    #[test]
    fn truncation_is_detected_at_any_cut() {
        let bytes = sample_bytes();
        for cut in [
            10,
            HEADER_LEN - 1,
            HEADER_LEN + 3,
            bytes.len() - 9,
            bytes.len() - 1,
        ] {
            let err = load_from(&mut &bytes[..cut]).unwrap_err();
            match err {
                CatalogError::Truncated { expected, actual } => {
                    // A cut inside the header reports the header's own
                    // length; after that, the full promised file length.
                    if cut < HEADER_LEN {
                        assert_eq!(expected, HEADER_LEN as u64);
                    } else {
                        assert_eq!(expected, bytes.len() as u64);
                    }
                    assert!(actual <= cut as u64);
                }
                other => panic!("cut {cut}: unexpected error {other}"),
            }
        }
    }

    #[test]
    fn flipped_section_bits_fail_their_checksums() {
        let g = sample_graph();
        let offsets_end = HEADER_LEN + (g.node_count() + 1) * 8;

        let mut bytes = sample_bytes();
        bytes[HEADER_LEN + 4] ^= 0x80;
        let err = load_from(&mut &bytes[..]).unwrap_err();
        assert!(matches!(
            err,
            CatalogError::ChecksumMismatch { section: "offsets" }
        ));

        let mut bytes = sample_bytes();
        bytes[offsets_end + 2] ^= 0x80;
        let err = load_from(&mut &bytes[..]).unwrap_err();
        assert!(matches!(
            err,
            CatalogError::ChecksumMismatch {
                section: "neighbors"
            }
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_bytes();
        bytes.extend_from_slice(&[0xAB; 4]);
        let err = load_from(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, CatalogError::TrailingBytes { extra: 4 }));
    }

    #[test]
    fn checksummed_corruption_still_fails_structural_validation() {
        // Checksums all valid, but the offsets are not monotone — the
        // integrity checks pass, Graph::from_csr_parts must catch it.
        assert_corrupt(&crafted(&[0, 2, 1, 4], &[1, 2, 0, 0]));
    }

    #[test]
    fn checksummed_one_sided_edge_is_corrupt() {
        // Node 0 lists node 1, node 1 lists nothing (and node 2 lists 0).
        assert_corrupt(&crafted(&[0, 1, 1, 2], &[1, 0]));
    }

    #[test]
    fn checksummed_unsorted_list_is_corrupt() {
        // Triangle with node 0's list written as [2, 1].
        assert_corrupt(&crafted(&[0, 2, 4, 6], &[2, 1, 0, 2, 0, 1]));
    }

    #[test]
    fn checksummed_duplicate_entry_is_corrupt() {
        // Edge {0, 1} listed twice on both sides: symmetric, but not simple.
        assert_corrupt(&crafted(&[0, 2, 4], &[1, 1, 0, 0]));
    }

    #[test]
    fn checksummed_self_loop_is_corrupt() {
        // Path 0-1-2 plus a self-loop at node 1 listed twice, so the
        // adjacency length stays even and the pair sums still balance.
        assert_corrupt(&crafted(&[0, 1, 5, 6], &[1, 0, 1, 1, 2, 1]));
    }

    #[test]
    fn checksummed_bad_attribute_section_is_corrupt() {
        // One column whose name is not UTF-8.
        let offsets = [0u64, 0];
        let mut attributes = 1u64.to_le_bytes().to_vec();
        attributes.extend_from_slice(&1u64.to_le_bytes());
        attributes.push(0xFF);
        attributes.extend_from_slice(&1.5f64.to_le_bytes());
        let mut bytes = seal_header(&offsets, &[], &attributes).to_vec();
        for w in offsets {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        bytes.extend_from_slice(&attributes);
        assert_corrupt(&bytes);
    }

    #[test]
    fn lying_huge_header_does_not_preallocate_unbounded() {
        // Header claims 2^56 nodes; the loader must not reserve that much
        // up front, and must report truncation once the stream runs dry.
        let mut header = [0u8; HEADER_LEN];
        header[0..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        header[12..20].copy_from_slice(&(1u64 << 56).to_le_bytes());
        let sealed = fnv_bytes(&header[..HEADER_SUMMED]).to_le_bytes();
        header[HEADER_SUMMED..].copy_from_slice(&sealed);

        let err = load_from(&mut &header[..]).unwrap_err();
        assert!(matches!(err, CatalogError::Truncated { .. }), "{err}");
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = GraphBuilder::new().build();
        let mut buf = Vec::new();
        save_to(&g, &mut buf).unwrap();
        assert_eq!(load_from(&mut &buf[..]).unwrap(), g);
    }
}
