//! Merkle hash trees over metadata objects (paper §VI-C).
//!
//! The base NEXUS design detects rollback per object (version numbers), but
//! "a malicious server could mount a forking attack … As a mitigating
//! strategy, one could maintain a hash tree of the metadata content as part
//! of the filesystem state" — left as future work in the paper for its
//! write-amplification cost. This module implements that hash tree; the
//! crate-private `freshness` module anchors it into the volume.
//!
//! The tree is built over `(uuid, object hash)` leaves in sorted UUID
//! order, so a single 32-byte root commits to the exact current version of
//! *every* metadata object in the volume.

use nexus_crypto::sha2::Sha256;

use crate::uuid::NexusUuid;

/// Domain separators keep leaves and interior nodes unconfusable.
const LEAF_TAG: u8 = 0x00;
const NODE_TAG: u8 = 0x01;

/// Hash of one leaf: `H(0x00 || uuid || object_hash)`.
pub fn leaf_hash(uuid: &NexusUuid, object_hash: &[u8; 32]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&[LEAF_TAG]).update(&uuid.0).update(object_hash);
    h.finalize()
}

fn node_hash(left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&[NODE_TAG]).update(left).update(right);
    h.finalize()
}

/// Root of the empty tree (a fixed domain-separated constant).
pub fn empty_root() -> [u8; 32] {
    Sha256::digest(b"nexus-merkle-empty")
}

/// A Merkle tree over sorted `(uuid, object hash)` leaves.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// levels[0] = leaf hashes; levels.last() = [root].
    levels: Vec<Vec<[u8; 32]>>,
}

impl MerkleTree {
    /// Builds the tree from an iterator of `(uuid, object_hash)` pairs.
    /// Input order does not matter; leaves are sorted by UUID.
    pub fn build<I: IntoIterator<Item = (NexusUuid, [u8; 32])>>(entries: I) -> MerkleTree {
        let mut pairs: Vec<(NexusUuid, [u8; 32])> = entries.into_iter().collect();
        pairs.sort_by_key(|(uuid, _)| *uuid);
        pairs.dedup_by_key(|(uuid, _)| *uuid);
        let mut levels = Vec::new();
        let leaves: Vec<[u8; 32]> = pairs.iter().map(|(u, h)| leaf_hash(u, h)).collect();
        levels.push(leaves);
        while levels.last().unwrap().len() > 1 {
            let prev = levels.last().unwrap();
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                match pair {
                    [left, right] => next.push(node_hash(left, right)),
                    // Odd node is promoted unchanged.
                    [single] => next.push(*single),
                    _ => unreachable!(),
                }
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels[0].len()
    }

    /// True when the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.levels[0].is_empty()
    }

    /// The root hash committing to every leaf.
    pub fn root(&self) -> [u8; 32] {
        if self.is_empty() {
            return empty_root();
        }
        self.levels.last().unwrap()[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uuid(n: u8) -> NexusUuid {
        NexusUuid([n; 16])
    }

    fn entries(n: u8) -> Vec<(NexusUuid, [u8; 32])> {
        (1..=n).map(|i| (uuid(i), [i; 32])).collect()
    }

    #[test]
    fn empty_tree_has_fixed_root() {
        let tree = MerkleTree::build(Vec::new());
        assert!(tree.is_empty());
        assert_eq!(tree.root(), empty_root());
    }

    #[test]
    fn root_is_order_independent() {
        let mut forward = entries(7);
        let tree_a = MerkleTree::build(forward.clone());
        forward.reverse();
        let tree_b = MerkleTree::build(forward);
        assert_eq!(tree_a.root(), tree_b.root());
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let base = MerkleTree::build(entries(8)).root();
        for i in 1..=8u8 {
            let mut modified = entries(8);
            modified[(i - 1) as usize].1 = [0xFF; 32];
            assert_ne!(MerkleTree::build(modified).root(), base, "leaf {i}");
        }
        // Adding or removing a leaf changes the root too.
        assert_ne!(MerkleTree::build(entries(7)).root(), base);
        assert_ne!(MerkleTree::build(entries(9)).root(), base);
    }

    #[test]
    fn duplicate_uuids_are_deduped() {
        let mut dup = entries(3);
        dup.push((uuid(2), [9; 32]));
        let tree = MerkleTree::build(dup);
        assert_eq!(tree.len(), 3);
    }

    #[test]
    fn leaf_and_node_domains_are_separated() {
        // A leaf hash can never equal an interior node of the same content.
        let leaf = leaf_hash(&uuid(1), &[1; 32]);
        let node = node_hash(&[1; 32], &[1; 32]);
        assert_ne!(leaf, node);
    }
}
