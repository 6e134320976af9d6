//! The paper's immutable intra-node bitwise trie, kept as a stand-alone
//! library item.
//!
//! Each Leap-List node of the paper embeds "an immutable bitwise trie … to
//! facilitate fast lookups when K is large", a technique borrowed from the
//! String B-tree of Ferragina and Grossi (paper §1.2, §2.1). We implement
//! it as a crit-bit (PATRICIA) trie over a sorted key array: internal nodes
//! test a single bit position and the leaves hold indexes into the array,
//! using "the minimal number of levels to represent all the keys" — one
//! internal node per distinguishing bit, `count - 1` in total.
//!
//! **No list variant uses it.** `Node` (`node.rs`) answers lookups with a
//! binary search over its sorted pairs: with `u64` keys a comparison costs
//! the same as a bit test, the search touches fewer cache lines than the
//! trie walk, and building the trie was about half the cost of every node
//! replacement. The type stays so the paper's §2.1 choice remains
//! reproducible: `benches/ablation.rs` (`ablation_intra_node`) measures
//! [`Trie::get`] and [`Trie::build`] against [`binary_search_index`] on
//! node-sized arrays.

/// Child encoding: high bit set = leaf (payload = array index), otherwise
/// an index into `nodes`.
const LEAF_BIT: u32 = 1 << 31;

#[derive(Clone, Copy, Debug)]
struct TrieNode {
    /// Bit position tested at this node (0 = least significant).
    bit: u8,
    left: u32,
    right: u32,
}

/// An immutable crit-bit trie mapping each key of a sorted array to its
/// index in that array.
///
/// Built once over an array that never changes afterwards, mirroring the
/// immutability of the node contents the paper indexes with it.
///
/// # Example
///
/// ```
/// use leaplist::Trie;
/// let keys = [3u64, 9, 17, 250];
/// let trie = Trie::build(&keys);
/// assert_eq!(trie.get(&keys, 17), Some(2));
/// assert_eq!(trie.get(&keys, 4), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Trie {
    nodes: Box<[TrieNode]>,
    root: u32,
}

impl Trie {
    /// Builds a trie over `keys`, which must be sorted and duplicate-free.
    ///
    /// # Panics
    ///
    /// Debug-asserts sortedness.
    pub fn build(keys: &[u64]) -> Trie {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys not sorted");
        if keys.is_empty() {
            return Trie {
                nodes: Box::new([]),
                root: LEAF_BIT, // unused: get() short-circuits on empty
            };
        }
        let mut nodes = Vec::with_capacity(keys.len().saturating_sub(1));
        let root = Self::build_range(keys, 0, keys.len(), &mut nodes);
        Trie {
            nodes: nodes.into_boxed_slice(),
            root,
        }
    }

    /// Recursively builds the subtree for `keys[lo..hi]`, returning its
    /// child encoding.
    fn build_range(keys: &[u64], lo: usize, hi: usize, nodes: &mut Vec<TrieNode>) -> u32 {
        if hi - lo == 1 {
            return lo as u32 | LEAF_BIT;
        }
        // Highest bit in which the extremes differ: because the slice is
        // sorted, that is the critical bit of the whole range.
        let diff = keys[lo] ^ keys[hi - 1];
        let bit = 63 - diff.leading_zeros() as u8;
        // First index whose key has the critical bit set (keys are sorted,
        // so it is a partition point).
        let split = keys[lo..hi].partition_point(|k| k & (1u64 << bit) == 0) + lo;
        debug_assert!(split > lo && split < hi);
        let idx = nodes.len();
        nodes.push(TrieNode {
            bit,
            left: 0,
            right: 0,
        });
        let left = Self::build_range(keys, lo, split, nodes);
        let right = Self::build_range(keys, split, hi, nodes);
        nodes[idx].left = left;
        nodes[idx].right = right;
        idx as u32
    }

    /// Returns the index of `key` in `keys` (the array the trie was built
    /// over), or `None` if absent. `O(1)` trie hops per distinguishing bit,
    /// plus one final key comparison.
    pub fn get(&self, keys: &[u64], key: u64) -> Option<usize> {
        if keys.is_empty() {
            return None;
        }
        let idx = self.descend(key)?;
        (keys[idx] == key).then_some(idx)
    }

    /// Walks the trie for `key` and returns the candidate index. The caller
    /// must verify that the key at the returned index actually matches
    /// (crit-bit tries identify one candidate, not membership).
    fn descend(&self, key: u64) -> Option<usize> {
        let mut cursor = self.root;
        while cursor & LEAF_BIT == 0 {
            let n = self.nodes[cursor as usize];
            cursor = if key & (1u64 << n.bit) == 0 {
                n.left
            } else {
                n.right
            };
        }
        Some((cursor & !LEAF_BIT) as usize)
    }

    /// Number of internal nodes (diagnostics; equals `count - 1`).
    pub fn internal_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// Plain binary search over a key array: what `Node` does over its pairs,
/// and the other side of the trie ablation (`benches/ablation.rs`).
pub fn binary_search_index(keys: &[u64], key: u64) -> Option<usize> {
    keys.binary_search(&key).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trie() {
        let t = Trie::build(&[]);
        assert_eq!(t.get(&[], 5), None);
        assert_eq!(t.internal_nodes(), 0);
    }

    #[test]
    fn singleton() {
        let keys = [42u64];
        let t = Trie::build(&keys);
        assert_eq!(t.get(&keys, 42), Some(0));
        assert_eq!(t.get(&keys, 41), None);
        assert_eq!(t.internal_nodes(), 0);
    }

    #[test]
    fn dense_range() {
        let keys: Vec<u64> = (100..400).collect();
        let t = Trie::build(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.get(&keys, k), Some(i));
        }
        assert_eq!(t.get(&keys, 99), None);
        assert_eq!(t.get(&keys, 400), None);
        assert_eq!(t.internal_nodes(), keys.len() - 1);
    }

    #[test]
    fn sparse_keys_with_shared_prefixes() {
        let keys = [
            0u64,
            1,
            0xFF00,
            0xFF01,
            0xFF00_0000,
            0xFF00_0001,
            u64::MAX - 1,
            u64::MAX,
        ];
        let t = Trie::build(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.get(&keys, k), Some(i), "key {k:#x}");
        }
        for miss in [2u64, 0xFF02, 0xFE00, u64::MAX - 2] {
            assert_eq!(t.get(&keys, miss), None, "miss {miss:#x}");
        }
    }

    #[test]
    fn agrees_with_binary_search() {
        let keys: Vec<u64> = (0..500).map(|i| i * 37 + (i % 3) * 1000).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let t = Trie::build(&sorted);
        for probe in 0..20_000u64 {
            assert_eq!(
                t.get(&sorted, probe),
                binary_search_index(&sorted, probe),
                "probe {probe}"
            );
        }
    }
}
