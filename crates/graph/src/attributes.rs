//! Per-node attribute storage.
//!
//! The paper's aggregate-estimation experiments average measures "associated
//! with a node" (Section 7.1): star ratings on Yelp, the number of words in a
//! user's self-description on Google Plus, in/out-degrees on Twitter. This
//! module stores such attributes as named dense `f64` columns next to the
//! graph so estimators can be written once against `attribute(name, v)`.

use crate::error::GraphError;
use crate::node::NodeId;
use std::collections::BTreeMap;

/// A named, dense, per-node `f64` column.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAttributes {
    values: Vec<f64>,
}

impl NodeAttributes {
    /// Wraps a value vector (one entry per node).
    pub fn new(values: Vec<f64>) -> Self {
        NodeAttributes { values }
    }

    /// Value at node `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range for the column.
    #[inline]
    pub fn value(&self, v: NodeId) -> f64 {
        self.values[v.index()]
    }

    /// The full column as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Number of entries (equals the node count of the owning graph).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Exact population mean of the column — the ground truth the sampling
    /// experiments compare their estimates against.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }
}

/// All attribute columns of a graph, keyed by name.
///
/// A `BTreeMap` keeps iteration deterministic, which keeps experiment output
/// byte-for-byte reproducible across runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttributeTable {
    node_count: usize,
    columns: BTreeMap<String, NodeAttributes>,
}

impl AttributeTable {
    /// Creates an empty table for a graph with `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        AttributeTable {
            node_count,
            columns: BTreeMap::new(),
        }
    }

    /// Registers (or replaces) the column `name`.
    ///
    /// `expected_nodes` is the node count of the owning graph; the call fails
    /// if `values.len()` differs.
    pub fn insert(
        &mut self,
        name: &str,
        values: Vec<f64>,
        expected_nodes: usize,
    ) -> Result<(), GraphError> {
        if values.len() != expected_nodes {
            return Err(GraphError::AttributeLengthMismatch {
                name: name.to_string(),
                values: values.len(),
                nodes: expected_nodes,
            });
        }
        self.node_count = expected_nodes;
        self.columns
            .insert(name.to_string(), NodeAttributes::new(values));
        Ok(())
    }

    /// Returns the column `name`, if registered.
    pub fn column(&self, name: &str) -> Option<&NodeAttributes> {
        self.columns.get(name)
    }

    /// Value of attribute `name` at node `v`.
    pub fn value(&self, name: &str, v: NodeId) -> Result<f64, GraphError> {
        let col = self
            .columns
            .get(name)
            .ok_or_else(|| GraphError::UnknownAttribute(name.to_string()))?;
        if v.index() >= col.len() {
            return Err(GraphError::NodeOutOfRange {
                node: v.index(),
                node_count: col.len(),
            });
        }
        Ok(col.value(v))
    }

    /// Names of all registered columns, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.columns.keys().map(|s| s.as_str())
    }

    /// Number of registered columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether no columns are registered.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut t = AttributeTable::new(3);
        t.insert("stars", vec![1.0, 3.0, 5.0], 3).unwrap();
        assert_eq!(t.value("stars", NodeId(1)).unwrap(), 3.0);
        assert_eq!(t.column("stars").unwrap().mean(), 3.0);
        assert_eq!(t.names().collect::<Vec<_>>(), vec!["stars"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let mut t = AttributeTable::new(3);
        let err = t.insert("stars", vec![1.0], 3).unwrap_err();
        assert!(matches!(err, GraphError::AttributeLengthMismatch { .. }));
    }

    #[test]
    fn unknown_attribute_and_out_of_range() {
        let mut t = AttributeTable::new(2);
        t.insert("x", vec![0.5, 0.7], 2).unwrap();
        assert!(matches!(
            t.value("y", NodeId(0)),
            Err(GraphError::UnknownAttribute(_))
        ));
        assert!(matches!(
            t.value("x", NodeId(5)),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn column_mean_of_empty_is_zero() {
        let c = NodeAttributes::new(vec![]);
        assert_eq!(c.mean(), 0.0);
        assert!(c.is_empty());
    }

    #[test]
    fn replacing_a_column_overwrites_values() {
        let mut t = AttributeTable::new(2);
        t.insert("x", vec![1.0, 1.0], 2).unwrap();
        t.insert("x", vec![2.0, 4.0], 2).unwrap();
        assert_eq!(t.value("x", NodeId(1)).unwrap(), 4.0);
        assert_eq!(t.len(), 1);
    }
}
