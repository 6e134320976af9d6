//! # leap-memdb — Leap-List indexes for an in-memory table store
//!
//! The paper closes with its intended application (§4): *"we plan to test
//! the Leap-List in an In-Memory Data-Base implementation, to replace the
//! B-trees for indexes."* This crate builds that application: a small
//! concurrent table store whose **primary and secondary indexes are all
//! Leap-Lists sharing one transactional domain**, so every row mutation —
//! insert, delete, or an indexed-column update — maintains *all* indexes
//! as one linearizable action, and every index scan is a consistent
//! snapshot.
//!
//! Rows are fixed-width tuples of `u64` columns (word-sized values, as in
//! the paper's design). Secondary indexes are *covering*: they store the
//! full row alongside the composite `(column value, row id)` key, so a
//! range scan over an index needs no second lookup and is linearizable
//! end to end.
//!
//! Each [`Table`] keeps every index in a prefix-tagged subspace of **one**
//! range-partitioned `leap_store::LeapStore` ([`TableConfig`] sets its
//! Leap-List parameters, shard count and rebalancing policy): index
//! maintenance is a single cross-shard `LeapStore::apply` transaction,
//! index scans page through the store's `Cursor`, and
//! `LeapStore::rebalance_step` calls can split index-heavy shards while the
//! table serves traffic.
//!
//! Long scans that must stay coherent across pages use
//! [`Table::scan_by_snapshot`]: the scan pins the commit timestamp once
//! and serves every page from the indexes' version bundles at that
//! instant — one consistent multi-page snapshot that never blocks or
//! aborts concurrent writers, even mid-resharding.
//!
//! # Example
//!
//! ```
//! use leap_memdb::{Schema, Table};
//!
//! let schema = Schema::new(&["user", "age", "score"])
//!     .with_index("age")
//!     .with_index("score");
//! let table = Table::new(schema);
//!
//! let alice = table.insert(&[1001, 34, 88]).unwrap();
//! let bob = table.insert(&[1002, 27, 95]).unwrap();
//!
//! // Consistent range scan over the age index.
//! let adults = table.scan_by("age", 30, 120).unwrap();
//! assert_eq!(adults.len(), 1);
//! assert_eq!(adults[0].1.get(0), Some(1001));
//!
//! // Updating an indexed column moves the row between index buckets
//! // atomically (remove old entry + insert new entry + rewrite primary).
//! table.update_column(alice, "age", 29).unwrap();
//! assert_eq!(table.scan_by("age", 30, 120).unwrap().len(), 0);
//! assert_eq!(table.scan_by("age", 0, 29).unwrap().len(), 2);
//! # let _ = bob;
//! ```

#![deny(missing_docs)]

mod db;
mod error;
mod obs;
mod query;
mod row;
mod schema;
mod table;

pub use db::Db;
pub use error::DbError;
pub use obs::{TableObs, TableObsSnapshot};
pub use query::Query;
pub use row::{Row, RowId};
pub use schema::Schema;
pub use table::{Table, TableConfig, TableScan, TableSnapshotScan, MAX_INDEXED_VALUE};
