//! Structure configuration.

use crate::node::MAX_LEVEL_CAP;

/// How the uninstrumented (COP) predecessor search reads `next` pointers.
///
/// The paper (§2) implements marked-pointer checking and *discusses* the
/// alternative of single-location read transactions: "Another alternative
/// we explored was to access pointers in single-location read
/// transactions. However, this alternative proved to have a larger
/// negative impact on performance with the current GCC-TM implementation.
/// Nevertheless, we expect it will exhibit the best performance with HTM
/// support." Both are implemented here (`benches/ablation.rs` compares
/// them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Traversal {
    /// Read pointers nakedly; retry on a mark or a dead node (the paper's
    /// deployed design, Fig. 3).
    #[default]
    MarkCheck,
    /// Read each pointer through a single-location read transaction
    /// (`TVar::read_single`): never observes a torn orec, still retries on
    /// marks/dead nodes.
    SingleLocationRead,
}

/// Configuration of a Leap-List instance.
///
/// The defaults are the paper's experimental settings (§3 "Settings"):
/// node size `K = 300` and a maximal tower level of 10, values found by the
/// authors to perform well. There is no intra-node search option: nodes
/// binary-search their sorted pairs (the paper's embedded trie is a
/// library item, see `trie.rs`).
///
/// # Example
///
/// ```
/// use leaplist::Params;
/// let p = Params::default();
/// assert_eq!(p.node_size, 300);
/// assert_eq!(p.max_level, 10);
/// let small = Params { node_size: 8, ..Params::default() };
/// small.validate();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Params {
    /// Maximum number of key-value pairs per node (the paper's `K`); a node
    /// reaching this size splits on the next update.
    pub node_size: usize,
    /// Maximum tower height.
    pub max_level: usize,
    /// COP traversal style (see [`Traversal`]).
    pub traversal: Traversal,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            node_size: 300,
            max_level: 10,
            traversal: Traversal::MarkCheck,
        }
    }
}

impl Params {
    /// Checks invariants.
    ///
    /// # Panics
    ///
    /// Panics if `node_size < 2` or `max_level` is outside
    /// `1..=MAX_LEVEL_CAP`.
    pub fn validate(&self) {
        assert!(self.node_size >= 2, "node_size must be at least 2");
        assert!(
            (1..=MAX_LEVEL_CAP).contains(&self.max_level),
            "max_level must be in 1..={MAX_LEVEL_CAP}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = Params::default();
        assert_eq!(p.node_size, 300);
        assert_eq!(p.max_level, 10);
        assert_eq!(p.traversal, Traversal::MarkCheck);
        p.validate();
    }

    #[test]
    #[should_panic(expected = "node_size")]
    fn rejects_tiny_nodes() {
        Params {
            node_size: 1,
            ..Params::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "max_level")]
    fn rejects_oversized_level() {
        Params {
            max_level: 99,
            ..Params::default()
        }
        .validate();
    }
}
