//! Error type shared by the graph substrate.

use std::fmt;
use std::io;

/// Errors produced by graph construction, generation, and I/O.
#[derive(Debug)]
pub enum GraphError {
    /// A node id referenced an index outside `0..node_count`.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// The number of nodes in the graph.
        node_count: usize,
    },
    /// A generator was asked for a graph it cannot produce
    /// (e.g. a Barabási–Albert graph with `m >= n`).
    InvalidGeneratorParameters(String),
    /// An attribute was requested that has not been registered.
    UnknownAttribute(String),
    /// The number of attribute values does not match the number of nodes.
    AttributeLengthMismatch {
        /// Name of the attribute being attached.
        name: String,
        /// Number of values supplied.
        values: usize,
        /// Number of nodes in the graph.
        nodes: usize,
    },
    /// A parse error while reading an edge list.
    Parse {
        /// 1-based line number of the malformed line.
        line: usize,
        /// Description of what went wrong.
        message: String,
    },
    /// An underlying I/O error.
    Io(io::Error),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(
                    f,
                    "node {node} out of range for graph with {node_count} nodes"
                )
            }
            GraphError::InvalidGeneratorParameters(msg) => {
                write!(f, "invalid generator parameters: {msg}")
            }
            GraphError::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            GraphError::AttributeLengthMismatch {
                name,
                values,
                nodes,
            } => write!(
                f,
                "attribute `{name}` has {values} values but the graph has {nodes} nodes"
            ),
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GraphError {
    fn from(e: io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::NodeOutOfRange {
            node: 10,
            node_count: 5,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("5"));

        let e = GraphError::InvalidGeneratorParameters("m must be < n".into());
        assert!(e.to_string().contains("m must be < n"));

        let e = GraphError::UnknownAttribute("stars".into());
        assert!(e.to_string().contains("stars"));

        let e = GraphError::AttributeLengthMismatch {
            name: "stars".into(),
            values: 3,
            nodes: 4,
        };
        assert!(e.to_string().contains("stars"));

        let e = GraphError::Parse {
            line: 7,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        let e: GraphError = io::Error::new(io::ErrorKind::NotFound, "missing").into();
        assert!(e.to_string().contains("missing"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
