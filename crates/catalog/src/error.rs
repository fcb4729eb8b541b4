//! Typed errors for catalog construction and I/O.
//!
//! Every way a catalog file can disappoint — missing, truncated, the wrong
//! format, the wrong version, bit-rotted, or structurally impossible — maps
//! to its own [`CatalogError`] variant, so callers can distinguish "rebuild
//! the cache" conditions from programming errors. Loading never panics.

use std::fmt;
use std::io;
use wnw_graph::GraphError;

/// Errors produced by catalog serialization and graph generation.
#[derive(Debug)]
pub enum CatalogError {
    /// An underlying I/O error (file missing, permission denied, ...).
    Io(io::Error),
    /// The file does not start with the catalog magic bytes — it is not a
    /// catalog at all.
    BadMagic {
        /// The first eight bytes actually found.
        found: [u8; 8],
    },
    /// The file is a catalog, but written by an unknown format version.
    UnsupportedVersion {
        /// Version number found in the header.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// The file ended before the sections the header promised.
    Truncated {
        /// Total bytes the header implies the file should hold.
        expected: u64,
        /// Bytes actually available.
        actual: u64,
    },
    /// The file holds data beyond the sections the header describes.
    TrailingBytes {
        /// Number of unexpected extra bytes (at least; counting stops early).
        extra: u64,
    },
    /// A section's checksum does not match its contents (bit rot, torn
    /// write, or manual tampering).
    ChecksumMismatch {
        /// Which section failed: `"header"`, `"offsets"`, `"neighbors"`, or
        /// `"attributes"`.
        section: &'static str,
    },
    /// The sections decoded cleanly but describe an impossible graph
    /// (non-monotone offsets, out-of-range neighbor, an unsorted or
    /// duplicate list, a self-loop, a one-sided edge, a malformed
    /// attribute column).
    Corrupt {
        /// Human-readable description of the structural violation.
        detail: String,
    },
    /// A generator error while building the graph a spec describes.
    Graph(GraphError),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::Io(e) => write!(f, "catalog i/o error: {e}"),
            CatalogError::BadMagic { found } => {
                write!(f, "not a catalog file (magic bytes {found:02x?})")
            }
            CatalogError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported catalog version {found} (this build reads version {supported})"
            ),
            CatalogError::Truncated { expected, actual } => write!(
                f,
                "catalog truncated: header promises {expected} bytes, found {actual}"
            ),
            CatalogError::TrailingBytes { extra } => {
                write!(f, "catalog has {extra} unexpected trailing bytes")
            }
            CatalogError::ChecksumMismatch { section } => {
                write!(f, "catalog {section} section failed its checksum")
            }
            CatalogError::Corrupt { detail } => write!(f, "catalog is corrupt: {detail}"),
            CatalogError::Graph(e) => write!(f, "graph generation failed: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CatalogError::Io(e) => Some(e),
            CatalogError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CatalogError {
    fn from(e: io::Error) -> Self {
        CatalogError::Io(e)
    }
}

impl From<GraphError> for CatalogError {
    fn from(e: GraphError) -> Self {
        CatalogError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(CatalogError::BadMagic {
            found: *b"PNG\0\0\0\0\0"
        }
        .to_string()
        .contains("magic"));
        assert!(CatalogError::UnsupportedVersion {
            found: 9,
            supported: 1
        }
        .to_string()
        .contains('9'));
        assert!(CatalogError::Truncated {
            expected: 100,
            actual: 60
        }
        .to_string()
        .contains("100"));
        assert!(CatalogError::TrailingBytes { extra: 4 }
            .to_string()
            .contains("trailing"));
        assert!(CatalogError::ChecksumMismatch { section: "offsets" }
            .to_string()
            .contains("offsets"));
        assert!(CatalogError::Corrupt {
            detail: "offsets not monotone".into()
        }
        .to_string()
        .contains("monotone"));
    }

    #[test]
    fn io_and_graph_errors_convert_and_source() {
        let e: CatalogError = io::Error::new(io::ErrorKind::NotFound, "missing").into();
        assert!(e.to_string().contains("missing"));
        assert!(std::error::Error::source(&e).is_some());

        let e: CatalogError = GraphError::InvalidGeneratorParameters("m >= n".into()).into();
        assert!(e.to_string().contains("m >= n"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
