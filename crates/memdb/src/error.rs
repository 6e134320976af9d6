//! Error type for the table store.

use std::fmt;

/// Errors returned by [`Table`](crate::Table) and [`Db`](crate::Db)
/// operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// A column name is not part of the schema.
    UnknownColumn(String),
    /// The named column exists but carries no index.
    NotIndexed(String),
    /// A row tuple's width does not match the schema.
    WrongArity {
        /// Columns the schema defines.
        expected: usize,
        /// Columns the caller supplied.
        got: usize,
    },
    /// An indexed column value exceeds the 28 bits that the composite
    /// `(value, row id)` index keys grant it under the subspace tag
    /// ([`MAX_INDEXED_VALUE`](crate::MAX_INDEXED_VALUE)).
    ValueOutOfRange {
        /// The offending column.
        column: String,
        /// The offending value.
        value: u64,
        /// The largest representable indexed value.
        bound: u64,
    },
    /// The referenced row does not exist (anymore).
    NoSuchRow(crate::RowId),
    /// A table name is already taken / unknown (database level).
    NoSuchTable(String),
    /// A table with this name already exists.
    TableExists(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            DbError::NotIndexed(c) => write!(f, "column '{c}' is not indexed"),
            DbError::WrongArity { expected, got } => {
                write!(f, "expected {expected} columns, got {got}")
            }
            DbError::ValueOutOfRange {
                column,
                value,
                bound,
            } => {
                write!(
                    f,
                    "indexed column '{column}' value {value} exceeds the bound {bound}"
                )
            }
            DbError::NoSuchRow(id) => write!(f, "row {} does not exist", id.0),
            DbError::NoSuchTable(t) => write!(f, "no table named '{t}'"),
            DbError::TableExists(t) => write!(f, "table '{t}' already exists"),
        }
    }
}

impl std::error::Error for DbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(DbError::UnknownColumn("x".into()).to_string().contains("x"));
        assert!(DbError::WrongArity {
            expected: 3,
            got: 2
        }
        .to_string()
        .contains("3"));
        assert!(DbError::NoSuchRow(crate::RowId(9))
            .to_string()
            .contains('9'));
    }
}
