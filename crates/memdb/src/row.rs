//! Rows and row identifiers.

use std::sync::Arc;

/// Opaque, monotonically allocated row identifier.
///
/// Row ids fit in 32 bits so they can share an index key word with the
/// indexed column value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub u64);

impl std::fmt::Display for RowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "row#{}", self.0)
    }
}

/// An immutable row: a fixed-width tuple of `u64` columns behind an `Arc`.
/// A Leap-List node copy moves its rows bitwise and clones none of them;
/// a row is cloned (one refcount increment) only when an index entry is
/// written or a read hands it to the caller.
///
/// # Example
///
/// ```
/// use leap_memdb::Row;
/// let r = Row::new(&[1, 2, 3]);
/// assert_eq!(r.columns(), &[1, 2, 3]);
/// assert_eq!(r.get(1), Some(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    columns: Arc<[u64]>,
}

impl Row {
    /// Builds a row from column values.
    pub fn new(columns: &[u64]) -> Self {
        Row {
            columns: columns.into(),
        }
    }

    /// All column values.
    pub fn columns(&self) -> &[u64] {
        &self.columns
    }

    /// One column value by position.
    pub fn get(&self, idx: usize) -> Option<u64> {
        self.columns.get(idx).copied()
    }

    /// A copy of this row with column `idx` replaced.
    pub(crate) fn with_column(&self, idx: usize, value: u64) -> Row {
        let mut cols: Vec<u64> = self.columns.to_vec();
        cols[idx] = value;
        Row::new(&cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_accessors() {
        let r = Row::new(&[9, 8, 7]);
        assert_eq!(r.get(0), Some(9));
        assert_eq!(r.get(3), None);
        assert_eq!(r.columns().len(), 3);
    }

    #[test]
    fn with_column_replaces_one_value() {
        let r = Row::new(&[1, 2, 3]);
        let r2 = r.with_column(1, 99);
        assert_eq!(r2.columns(), &[1, 99, 3]);
        assert_eq!(r.columns(), &[1, 2, 3], "original untouched");
    }

    #[test]
    fn clone_is_shallow() {
        let r = Row::new(&[5; 1000]);
        let r2 = r.clone();
        assert!(Arc::ptr_eq(&r.columns, &r2.columns));
    }
}
