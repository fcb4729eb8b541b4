//! Node identifiers.
//!
//! Nodes are dense `u32` indices (`0..n`). A newtype keeps them from being
//! confused with other integers (step counts, degrees, query budgets) at the
//! type level while staying `Copy` and 4 bytes wide, which matters because
//! adjacency lists for the surrogate Google-Plus graph hold millions of them.
//!
//! [`NodeMap`] and [`NodeSet`] are the hash containers for `NodeId` keys.
//! They hash with [`NodeIdHasher`], one multiply per key instead of the
//! default SipHash: the keys are dense indices, not attacker-chosen input,
//! so flooding resistance buys nothing on the per-step lookups of a walk.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A node (user) of the social graph, identified by a dense index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Builds a node id from a `usize` index.
    ///
    /// # Panics
    /// Panics if `index` does not fit in `u32` (graphs in this workspace are
    /// bounded well below 4 billion nodes).
    #[inline]
    pub fn new(index: usize) -> Self {
        debug_assert!(index <= u32::MAX as usize, "node index overflows u32");
        NodeId(index as u32)
    }

    /// Returns the node id as a `usize` index suitable for slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId::new(v)
    }
}

/// A multiplicative (Fibonacci) hasher for [`NodeId`] keys.
///
/// Each written word is mixed in as `(state.rotl(5) ^ word) * K` with `K`
/// the 64-bit golden-ratio constant, so a lone `u32` key becomes `key * K`.
/// `finish` rotates that product left by 26 bits: the table indexes buckets
/// by the hash's low bits, and the product's well-mixed high bits go there,
/// so strided ids (all multiples of 64, say) still spread over buckets.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeIdHasher(u64);

impl NodeIdHasher {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for NodeIdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.mix(u64::from(byte));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed by [`NodeId`], hashed with [`NodeIdHasher`].
pub type NodeMap<V> = HashMap<NodeId, V, BuildHasherDefault<NodeIdHasher>>;

/// A `HashSet` of [`NodeId`]s, hashed with [`NodeIdHasher`].
pub type NodeSet = HashSet<NodeId, BuildHasherDefault<NodeIdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_usize() {
        let n = NodeId::new(42);
        assert_eq!(n.index(), 42);
        assert_eq!(u32::from(n), 42);
        assert_eq!(NodeId::from(42usize), n);
        assert_eq!(NodeId::from(42u32), n);
    }

    #[test]
    fn display_and_debug() {
        let n = NodeId(7);
        assert_eq!(format!("{n}"), "7");
        assert_eq!(format!("{n:?}"), "n7");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(3), NodeId(3));
    }

    #[test]
    fn is_small() {
        assert_eq!(std::mem::size_of::<NodeId>(), 4);
    }

    #[test]
    fn node_hasher_is_a_rotated_multiply_and_keys_round_trip() {
        use std::hash::BuildHasher;
        let hash = |n: NodeId| BuildHasherDefault::<NodeIdHasher>::default().hash_one(n);
        assert_eq!(hash(NodeId(0)), 0);
        assert_eq!(
            hash(NodeId(3)),
            3u64.wrapping_mul(NodeIdHasher::K).rotate_left(26)
        );
        let mut counts: NodeMap<u64> = NodeMap::default();
        let mut seen = NodeSet::default();
        for i in 0..1_000u32 {
            *counts.entry(NodeId(i % 100)).or_insert(0) += 1;
            seen.insert(NodeId(i * 7));
        }
        assert_eq!(counts.len(), 100);
        assert!(counts.values().all(|&c| c == 10));
        assert_eq!(seen.len(), 1_000);
        assert!(seen.contains(&NodeId(693)) && !seen.contains(&NodeId(694)));
    }
}
