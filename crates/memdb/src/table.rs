//! A concurrent table whose primary and secondary indexes all live in one
//! sharded [`LeapStore`].
//!
//! # Index layout
//!
//! The store's keyspace is carved into prefix-tagged **subspaces**
//! ([`leap_store::Subspace`]), one per index:
//!
//! * Subspace 0 — **primary index**: `row id -> Row`.
//! * Subspace `1 + i` — **covering secondary index** for the `i`-th
//!   indexed column: `(column value, row id) -> Row`. Storing the full
//!   (`Arc`-backed) row makes every range scan self-contained and
//!   therefore a single linearizable range query. Each entry costs one
//!   row clone when it is written; the node copies that later rewrite its
//!   node move it bitwise and clone nothing.
//!
//! Below the 8-bit tag an index key packs the column value into 28 bits
//! and the row id into the low 28 ([`MAX_INDEXED_VALUE`]). The store is
//! range-partitioned, one shard per subspace to start with, so every index
//! is one contiguous key interval: scans page through the store's cursors,
//! and a `Rebalancer` on [`Table::store`] can split index-heavy shards
//! while the table serves traffic.
//!
//! # Atomicity
//!
//! Every row mutation — `insert`, `delete`, and `update_column` on *any*
//! column, indexed or not — writes the primary and **all** secondary
//! indexes in one [`LeapStore::apply`] batch: one cross-shard transaction,
//! even while a migration reshards the keys it touches. An indexed-column
//! update moves the entry between two keys of one subspace inside that
//! same transaction, so no scan can ever observe the row absent from, or
//! doubled in, an index.

use crate::obs::{TableObs, TableOp};
use crate::{DbError, Row, RowId, Schema};
use leap_store::{
    BatchOp, Cursor, LeapStore, Partitioning, RebalancePolicy, SnapshotCursor, StoreConfig,
    Subspace, SubspaceStats, PAYLOAD_BITS,
};
use leaplist::Params;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const STRIPES: usize = 64;

/// Low bits of a key's payload that hold the row id, in the primary and
/// in every index; an index key's column value takes the rest.
const ID_BITS: u32 = PAYLOAD_BITS / 2;

/// Masks a primary or index key down to its row id.
const ID_MASK: u64 = (1 << ID_BITS) - 1;

/// Maximum value storable in an indexed column: an index key packs
/// `(value, row id)` as 28/28 bits under the store's 8-bit subspace tag.
pub const MAX_INDEXED_VALUE: u64 = (1 << (PAYLOAD_BITS - ID_BITS)) - 1;

/// How a [`Table`]'s store is built.
#[derive(Debug, Clone, Default)]
pub struct TableConfig {
    /// Per-shard Leap-List parameters.
    pub params: Params,
    /// Initial shard count; `None` picks one shard per subspace so the
    /// primary and every index start on their own shard.
    pub shards: Option<usize>,
    /// Policy for [`LeapStore::rebalance_step`] driven on the store.
    pub rebalance: RebalancePolicy,
}

/// A table with Leap-List indexes (see module docs).
pub struct Table {
    schema: Schema,
    store: Arc<LeapStore<Row>>,
    /// `tags[0]` holds the primary index, `tags[1 + i]` the index on
    /// column `indexed[i]`.
    tags: Vec<Subspace>,
    indexed: Vec<usize>,
    next_row: AtomicU64,
    /// Per-row mutation serialization (delete / update_column).
    stripes: Vec<Mutex<()>>,
    /// Per-op-kind latency histograms (see [`crate::TableObs`]).
    obs: TableObs,
}

impl Table {
    /// Creates an empty table with the default [`TableConfig`].
    pub fn new(schema: Schema) -> Self {
        Self::with_config(schema, TableConfig::default())
    }

    /// The same as [`Table::new`]. It stays only because the `benchmark/`
    /// package calls it; remove it together with that call.
    pub fn sharded(schema: Schema) -> Self {
        Self::new(schema)
    }

    /// Creates an empty table on a store built from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the schema indexes more than 254 columns (one subspace
    /// tag each, beside the primary's).
    pub fn with_config(schema: Schema, config: TableConfig) -> Self {
        let indexed = schema.indexed_columns();
        let tags: Vec<Subspace> = (0..=indexed.len())
            // INVARIANT: documented constructor panic — one u8 tag per
            // subspace, and `Subspace::new` rejects tag 255.
            .map(|t| Subspace::new(u8::try_from(t).expect("at most 254 indexed columns")))
            .collect();
        let store = LeapStore::new(
            StoreConfig::new(config.shards.unwrap_or(tags.len()), Partitioning::Range)
                .with_key_space(Subspace::key_space(tags.len()))
                .with_params(config.params)
                .with_rebalancing(config.rebalance),
        );
        Table {
            schema,
            store: Arc::new(store),
            tags,
            indexed,
            next_row: AtomicU64::new(1),
            stripes: (0..STRIPES).map(|_| Mutex::new(())).collect(),
            obs: TableObs::new(),
        }
    }

    /// The table's op-latency instruments: one histogram per op kind
    /// (insert, delete, get, update, scan, scan_page, count), living in a
    /// [`leap_obs::Registry`] scrapeable as JSON or Prometheus text. These
    /// table-level series complement the store-level ones from
    /// [`Table::store`]'s [`LeapStore::stats`](LeapStore::stats).
    pub fn obs(&self) -> &TableObs {
        &self.obs
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Largest value an indexed column can hold: [`MAX_INDEXED_VALUE`].
    pub fn max_indexed_value(&self) -> u64 {
        MAX_INDEXED_VALUE
    }

    /// The backing [`LeapStore`] — the handle for driving `split_shard` /
    /// `rebalance_step` / a `Rebalancer`, and for store statistics.
    ///
    /// Always `Some`. The `Option` stays only because the `benchmark/`
    /// package unwraps it; drop it together with those calls.
    pub fn store(&self) -> Option<&Arc<LeapStore<Row>>> {
        Some(&self.store)
    }

    /// Per-subspace key counts and shard placement: entry 0 is the
    /// primary index, entry `1 + i` the `i`-th indexed column's subspace.
    pub fn subspace_stats(&self) -> Vec<SubspaceStats> {
        self.store.subspace_stats(&self.tags)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.obs.timed(TableOp::Count, || {
            self.store
                .count_range(self.primary_key(0), self.primary_key(ID_MASK))
        })
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn primary_key(&self, id: u64) -> u64 {
        self.tags[0].key(id)
    }

    /// The key of row `id` in the index on `indexed[i]`, whose column
    /// holds `value`.
    fn index_key(&self, i: usize, value: u64, id: u64) -> u64 {
        debug_assert!(value <= MAX_INDEXED_VALUE);
        self.tags[1 + i].key((value << ID_BITS) | id)
    }

    /// Position of column `col` in `indexed`, if it is indexed.
    fn index_of(&self, col: usize) -> Option<usize> {
        self.indexed.iter().position(|&c| c == col)
    }

    fn check_row(&self, values: &[u64]) -> Result<(), DbError> {
        if values.len() != self.schema.arity() {
            return Err(DbError::WrongArity {
                expected: self.schema.arity(),
                got: values.len(),
            });
        }
        for &col in &self.indexed {
            if values[col] > MAX_INDEXED_VALUE {
                return Err(DbError::ValueOutOfRange {
                    column: self.schema.column_name(col).to_string(),
                    value: values[col],
                    bound: MAX_INDEXED_VALUE,
                });
            }
        }
        Ok(())
    }

    fn stripe(&self, id: RowId) -> &Mutex<()> {
        &self.stripes[(id.0 as usize) % STRIPES]
    }

    /// Inserts a row, updating the primary and every secondary index as
    /// one linearizable action. Returns the new row id.
    ///
    /// The commit retries until it succeeds; to bound it, run the insert
    /// through the table's store with [`LeapStore::bounded`]. A timed-out
    /// insert writes nothing, but its row id stays consumed.
    ///
    /// # Errors
    ///
    /// [`DbError::WrongArity`] or [`DbError::ValueOutOfRange`].
    pub fn insert(&self, values: &[u64]) -> Result<RowId, DbError> {
        self.check_row(values)?;
        // ORDERING: row-id allocator; uniqueness comes from the RMW, and the
        // id is published to readers by the storage commit, not by this add.
        let id = RowId(self.next_row.fetch_add(1, Ordering::Relaxed));
        assert!(id.0 < ID_MASK, "row id space exhausted");
        let row = Row::new(values);
        self.obs.timed(TableOp::Insert, || {
            self.store.apply(&self.write_ops(id, &row))
        });
        Ok(id)
    }

    /// The batch writing `row` under `id` into the primary and every
    /// index.
    fn write_ops(&self, id: RowId, row: &Row) -> Vec<BatchOp<Row>> {
        // One spare slot for `update_column`'s remove of the old key.
        let mut ops = Vec::with_capacity(2 + self.indexed.len());
        ops.push(BatchOp::Update(self.primary_key(id.0), row.clone()));
        for (i, &col) in self.indexed.iter().enumerate() {
            // INVARIANT: callers validate arity before building ops.
            let value = row.get(col).expect("arity checked");
            ops.push(BatchOp::Update(self.index_key(i, value, id.0), row.clone()));
        }
        ops
    }

    /// Deletes a row from every index as one linearizable action.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchRow`] if the row does not exist.
    pub fn delete(&self, id: RowId) -> Result<Row, DbError> {
        let _guard = self.stripe(id).lock();
        self.obs.timed(TableOp::Delete, || self.delete_locked(id))
    }

    fn delete_locked(&self, id: RowId) -> Result<Row, DbError> {
        let row = self
            .store
            .get(self.primary_key(id.0))
            .ok_or(DbError::NoSuchRow(id))?;
        let mut ops = Vec::with_capacity(1 + self.indexed.len());
        ops.push(BatchOp::Remove(self.primary_key(id.0)));
        for (i, &col) in self.indexed.iter().enumerate() {
            // INVARIANT: stored rows passed the arity check on insert.
            let value = row.get(col).expect("stored rows match arity");
            ops.push(BatchOp::Remove(self.index_key(i, value, id.0)));
        }
        self.store.apply(&ops);
        Ok(row)
    }

    /// Point lookup by row id (linearizable, transaction-free).
    pub fn get(&self, id: RowId) -> Option<Row> {
        self.obs
            .timed(TableOp::Get, || self.store.get(self.primary_key(id.0)))
    }

    /// Sets one column of an existing row and returns the updated row.
    ///
    /// The primary and **every** secondary index update as one
    /// linearizable action — including an indexed column, whose entry
    /// moves between two keys of its subspace *inside the same single
    /// transaction* (remove old key + insert new key + rewrite the other
    /// covering entries).
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownColumn`], [`DbError::ValueOutOfRange`] or
    /// [`DbError::NoSuchRow`].
    pub fn update_column(&self, id: RowId, column: &str, value: u64) -> Result<Row, DbError> {
        let col = self.schema.resolve(column)?;
        let index = self.index_of(col);
        if index.is_some() && value > MAX_INDEXED_VALUE {
            return Err(DbError::ValueOutOfRange {
                column: column.to_string(),
                value,
                bound: MAX_INDEXED_VALUE,
            });
        }
        let _guard = self.stripe(id).lock();
        self.obs.timed(TableOp::Update, || {
            let old = self
                .store
                .get(self.primary_key(id.0))
                .ok_or(DbError::NoSuchRow(id))?;
            let new_row = old.with_column(col, value);
            let mut ops = self.write_ops(id, &new_row);
            if let Some(i) = index {
                // INVARIANT: stored rows passed the arity check on insert.
                let old_value = old.get(col).expect("stored rows match arity");
                let old_key = self.index_key(i, old_value, id.0);
                if old_key != self.index_key(i, value, id.0) {
                    // The entry moves between keys of ONE subspace; the
                    // remove rides in the same atomic batch. (`write_ops`
                    // already put the new key.)
                    ops.push(BatchOp::Remove(old_key));
                }
            }
            self.store.apply(&ops);
            Ok(new_row)
        })
    }

    /// Linearizable range scan over the index on `column`: every row with
    /// `column value` in `[lo, hi]`, as one consistent snapshot, ordered
    /// by `(value, row id)`.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownColumn`], [`DbError::NotIndexed`], or
    /// [`DbError::ValueOutOfRange`] when `lo` exceeds
    /// [`MAX_INDEXED_VALUE`] (no stored value could match; `hi` merely
    /// clamps so open-ended scans stay valid).
    pub fn scan_by(&self, column: &str, lo: u64, hi: u64) -> Result<Vec<(RowId, Row)>, DbError> {
        let (lo_key, hi_key) = self.index_range(column, lo, hi)?;
        Ok(rows(
            self.obs
                .timed(TableOp::Scan, || self.store.range(lo_key, hi_key)),
        ))
    }

    /// A paged scan over the index on `column`: each page is one bounded
    /// linearizable transaction of at most `page_size` rows with a resume
    /// key, served by [`LeapStore::scan_pages`]'s `Cursor`. Between pages
    /// the table runs free, so each page is internally consistent but
    /// different pages may observe different instants. When the whole
    /// multi-page scan must be one snapshot, use
    /// [`Table::scan_by_snapshot`] — same paging, one pinned timestamp —
    /// or [`Table::scan_by`] for a single whole-range transaction.
    ///
    /// # Errors
    ///
    /// As for [`Table::scan_by`].
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    pub fn scan_by_pages(
        &self,
        column: &str,
        lo: u64,
        hi: u64,
        page_size: usize,
    ) -> Result<TableScan<'_>, DbError> {
        assert!(page_size > 0, "a page must hold at least one row");
        let (lo_key, hi_key) = self.index_range(column, lo, hi)?;
        Ok(TableScan {
            obs: &self.obs,
            cursor: self.store.scan_pages(lo_key, hi_key, page_size),
        })
    }

    /// A **snapshot-isolated** paged scan over the index on `column`:
    /// this call pins the global commit timestamp once, and **every**
    /// page of the returned [`TableSnapshotScan`] reads the index exactly
    /// as of that instant — rows inserted, deleted, or moved between
    /// index buckets while the scan is parked between pages are
    /// invisible, and writers are never blocked or retried against. The
    /// pages come from the index lists' version bundles (the MVCC-lite
    /// layer), so the read is transaction-free, and consistency also
    /// holds across in-flight shard migrations.
    ///
    /// Ordering and paging match [`Table::scan_by_pages`]: at most
    /// `page_size` rows per page, ordered by `(column value, row id)`
    /// across the whole scan.
    ///
    /// The scan holds a timestamp pin (bounding version-bundle pruning)
    /// and an epoch guard for its whole lifetime — drop it promptly
    /// rather than parking it for minutes.
    ///
    /// # Errors
    ///
    /// As for [`Table::scan_by`].
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    pub fn scan_by_snapshot(
        &self,
        column: &str,
        lo: u64,
        hi: u64,
        page_size: usize,
    ) -> Result<TableSnapshotScan<'_>, DbError> {
        assert!(page_size > 0, "a page must hold at least one row");
        let (lo_key, hi_key) = self.index_range(column, lo, hi)?;
        Ok(TableSnapshotScan {
            obs: &self.obs,
            cursor: self.store.scan_snapshot_pages(lo_key, hi_key, page_size),
        })
    }

    /// Resolves an indexed column and maps `[lo, hi]` to its store key
    /// interval.
    ///
    /// A `lo` beyond [`MAX_INDEXED_VALUE`] is an error, not a clamp: no
    /// stored value can satisfy it, and clamping used to fold the query
    /// onto the boundary value itself — returning phantom rows whose
    /// column value *is* the bound instead of either the empty set or a
    /// diagnostic. `hi` still clamps, so open-ended scans like
    /// `[x, u64::MAX]` keep meaning "everything at or above x".
    fn index_range(&self, column: &str, lo: u64, hi: u64) -> Result<(u64, u64), DbError> {
        let col = self.schema.resolve_indexed(column)?;
        // INVARIANT: `resolve_indexed` proved the column is indexed.
        let i = self.index_of(col).expect("indexed column has a subspace");
        if lo > MAX_INDEXED_VALUE {
            return Err(DbError::ValueOutOfRange {
                column: self.schema.column_name(col).to_string(),
                value: lo,
                bound: MAX_INDEXED_VALUE,
            });
        }
        Ok((
            self.index_key(i, lo, 0),
            self.index_key(i, hi.min(MAX_INDEXED_VALUE), ID_MASK),
        ))
    }

    /// Number of rows whose `column` value lies in `[lo, hi]` (consistent
    /// snapshot; no row clones).
    ///
    /// # Errors
    ///
    /// As for [`Table::scan_by`].
    pub fn count_by(&self, column: &str, lo: u64, hi: u64) -> Result<usize, DbError> {
        let (lo_key, hi_key) = self.index_range(column, lo, hi)?;
        Ok(self
            .obs
            .timed(TableOp::Count, || self.store.count_range(lo_key, hi_key)))
    }

    /// Starts building a [`Query`](crate::Query) over this table.
    pub fn query(&self) -> crate::Query<'_> {
        crate::Query::new(self)
    }

    /// All rows, ordered by row id (consistent snapshot).
    pub fn scan_all(&self) -> Vec<(RowId, Row)> {
        rows(self.obs.timed(TableOp::Scan, || {
            self.store
                .range(self.primary_key(0), self.primary_key(ID_MASK))
        }))
    }
}

/// Store pairs from the primary or an index as `(row id, row)`: the row
/// id is a key's low bits either way.
fn rows(pairs: Vec<(u64, Row)>) -> Vec<(RowId, Row)> {
    pairs
        .into_iter()
        .map(|(k, row)| (RowId(k & ID_MASK), row))
        .collect()
}

/// A paged index scan (see [`Table::scan_by_pages`]): iterates pages of
/// `(row id, row)`, each page one bounded linearizable transaction,
/// ordered by `(column value, row id)` across the whole scan.
pub struct TableScan<'t> {
    obs: &'t TableObs,
    cursor: Cursor<'t, Row>,
}

impl TableScan<'_> {
    /// The next page, or `None` when the index range is exhausted. Never
    /// returns an empty page.
    pub fn next_page(&mut self) -> Option<Vec<(RowId, Row)>> {
        // An exhausted scan records no page.
        self.cursor.resume_key()?;
        self.obs
            .timed(TableOp::ScanPage, || self.cursor.next_page())
            .map(rows)
    }
}

impl Iterator for TableScan<'_> {
    type Item = Vec<(RowId, Row)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_page()
    }
}

/// A snapshot-isolated paged index scan (see [`Table::scan_by_snapshot`]):
/// iterates pages of `(row id, row)` ordered by `(column value, row id)`,
/// **every** page read at the one commit timestamp pinned when the scan
/// was created.
pub struct TableSnapshotScan<'t> {
    obs: &'t TableObs,
    cursor: SnapshotCursor<'t, Row>,
}

impl TableSnapshotScan<'_> {
    /// The pinned commit timestamp every page of this scan reads at.
    pub fn ts(&self) -> u64 {
        self.cursor.ts()
    }

    /// The next page, or `None` when the index range (as of the pinned
    /// timestamp) is exhausted. Never returns an empty page.
    pub fn next_page(&mut self) -> Option<Vec<(RowId, Row)>> {
        self.obs
            .timed(TableOp::SnapshotPage, || self.cursor.next_page())
            .map(rows)
    }
}

impl Iterator for TableSnapshotScan<'_> {
    type Item = Vec<(RowId, Row)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_page()
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("arity", &self.schema.arity())
            .field("indexes", &self.indexed.len())
            .field("rows", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people_schema() -> Schema {
        Schema::new(&["user", "age", "score"])
            .with_index("age")
            .with_index("score")
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let t = Table::new(people_schema());
        let id = t.insert(&[7, 30, 99]).unwrap();
        assert_eq!(t.get(id).unwrap().columns(), &[7, 30, 99]);
        assert_eq!(t.len(), 1);
        let old = t.delete(id).unwrap();
        assert_eq!(old.columns(), &[7, 30, 99]);
        assert!(t.get(id).is_none());
        assert!(t.is_empty());
        assert_eq!(t.delete(id), Err(DbError::NoSuchRow(id)));
    }

    #[test]
    fn arity_and_range_validation() {
        let t = Table::new(people_schema());
        assert_eq!(
            t.insert(&[1, 2]),
            Err(DbError::WrongArity {
                expected: 3,
                got: 2
            })
        );
        assert!(matches!(
            t.insert(&[1, u64::MAX, 3]),
            Err(DbError::ValueOutOfRange { .. })
        ));
        // Non-indexed columns may hold any u64.
        t.insert(&[u64::MAX, 2, 3]).unwrap();
        // Indexed values get 28 bits under the subspace tag, and the
        // largest one round-trips.
        assert_eq!(t.max_indexed_value(), (1 << 28) - 1);
        let id = t.insert(&[1, t.max_indexed_value(), 3]).unwrap();
        assert_eq!(
            t.count_by("age", t.max_indexed_value(), u64::MAX).unwrap(),
            1
        );
        t.delete(id).unwrap();
    }

    /// The bound at the exact boundary: the reported
    /// `ValueOutOfRange.bound` matches [`Table::max_indexed_value`], a row
    /// AT the bound is scannable, and a scan whose `lo` lies beyond it
    /// errors instead of silently clamping onto the boundary value (the
    /// old behavior returned the boundary row as a phantom match).
    #[test]
    fn scan_bound_parity_at_the_exact_boundary() {
        let t = Table::new(people_schema());
        let bound = t.max_indexed_value();
        assert_eq!(bound, (1 << 28) - 1);
        let id = t.insert(&[9, bound, 5]).unwrap();
        // The boundary value itself scans and counts on both surfaces.
        let hits = t.scan_by("age", bound, bound).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, id);
        assert_eq!(t.count_by("age", bound, u64::MAX).unwrap(), 1);
        // One past the bound: an error carrying the bound — NOT a silent
        // clamp that would re-surface the boundary row.
        for (lo, hi) in [(bound + 1, bound + 1), (bound + 1, u64::MAX)] {
            match t.scan_by("age", lo, hi) {
                Err(DbError::ValueOutOfRange {
                    column,
                    value,
                    bound: b,
                }) => {
                    assert_eq!(column, "age");
                    assert_eq!(value, lo);
                    assert_eq!(b, bound, "error reports the live bound");
                }
                other => panic!("expected ValueOutOfRange, got {other:?}"),
            }
            assert!(matches!(
                t.count_by("age", lo, hi),
                Err(DbError::ValueOutOfRange { .. })
            ));
            assert!(matches!(
                t.scan_by_pages("age", lo, hi, 4),
                Err(DbError::ValueOutOfRange { .. })
            ));
        }
        // The insert-side rejection reports the same bound.
        match t.insert(&[1, bound + 1, 2]) {
            Err(DbError::ValueOutOfRange { bound: b, .. }) => assert_eq!(b, bound),
            other => panic!("expected ValueOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn scans_cover_all_indexes() {
        let t = Table::new(people_schema());
        for i in 0..50u64 {
            t.insert(&[i, i % 10, 100 - i]).unwrap();
        }
        let teens = t.scan_by("age", 3, 5).unwrap();
        assert_eq!(teens.len(), 15);
        for (_, row) in &teens {
            assert!((3..=5).contains(&row.get(1).unwrap()));
        }
        // scores are 100 - i for i in 0..50: [90, 100] covers i = 0..=10.
        assert_eq!(t.count_by("score", 90, 100).unwrap(), 11);
        assert!(t.scan_by("user", 0, 10).is_err(), "user is not indexed");
        assert!(t.scan_by("nope", 0, 10).is_err());
        assert_eq!(t.scan_all().len(), 50);
    }

    #[test]
    fn paged_scans_tile_the_index() {
        let t = Table::new(people_schema());
        for i in 0..40u64 {
            t.insert(&[i, i % 8, i]).unwrap();
        }
        for page_size in [1usize, 3, 64] {
            let mut seen = Vec::new();
            for page in t.scan_by_pages("age", 2, 5, page_size).unwrap() {
                assert!(page.len() <= page_size);
                seen.extend(page);
            }
            let whole = t.scan_by("age", 2, 5).unwrap();
            assert_eq!(seen, whole, "page_size {page_size}");
        }
        assert!(t.scan_by_pages("user", 0, 1, 4).is_err());
    }

    /// The whole multi-page snapshot scan observes ONE instant — rows
    /// inserted, deleted, or moved between index buckets after the
    /// timestamp was pinned stay invisible to every later page.
    #[test]
    fn snapshot_scan_is_isolated_from_later_writes() {
        let t = Table::new(people_schema());
        for i in 0..30u64 {
            t.insert(&[i, i % 10, i]).unwrap();
        }
        let before = t.scan_by("age", 0, 9).unwrap();
        let mut scan = t.scan_by_snapshot("age", 0, 9, 7).unwrap();
        let first = scan.next_page().unwrap();
        assert_eq!(first.len(), 7);
        // Churn after the pin: a new row, a bucket move, a delete.
        t.insert(&[99, 5, 5]).unwrap();
        t.update_column(before[0].0, "age", 9).unwrap();
        t.delete(before[1].0).unwrap();
        let mut seen = first;
        while let Some(page) = scan.next_page() {
            assert!(page.len() <= 7);
            seen.extend(page);
        }
        assert_eq!(seen, before, "the whole scan is one snapshot");
        // A fresh scan pins a new timestamp and observes the churn.
        let now: Vec<_> = t
            .scan_by_snapshot("age", 0, 9, 64)
            .unwrap()
            .flatten()
            .collect();
        assert_eq!(now, t.scan_by("age", 0, 9).unwrap());
    }

    /// Snapshot pages tile the index exactly like a one-shot scan at any
    /// page size, the pinned timestamp is monotone across scans, and the
    /// usual index-resolution errors apply.
    #[test]
    fn snapshot_scan_reports_ts_and_tiles_the_index() {
        let t = Table::new(people_schema());
        for i in 0..40u64 {
            t.insert(&[i, i % 8, i]).unwrap();
        }
        let whole = t.scan_by("age", 2, 5).unwrap();
        let mut last_ts = 0;
        for page_size in [1usize, 3, 64] {
            let mut scan = t.scan_by_snapshot("age", 2, 5, page_size).unwrap();
            assert!(scan.ts() >= last_ts, "the pin is monotone");
            last_ts = scan.ts();
            let mut seen = Vec::new();
            while let Some(page) = scan.next_page() {
                assert!(!page.is_empty() && page.len() <= page_size);
                seen.extend(page);
            }
            assert_eq!(seen, whole, "page_size {page_size}");
        }
        assert!(t.scan_by_snapshot("user", 0, 1, 4).is_err());
        assert!(matches!(
            t.scan_by_snapshot("age", t.max_indexed_value() + 1, u64::MAX, 4),
            Err(DbError::ValueOutOfRange { .. })
        ));
        // An empty range still pins a timestamp, yields no pages.
        let mut empty = t.scan_by_snapshot("score", 1000, 2000, 4).unwrap();
        assert!(empty.ts() > 0);
        assert!(empty.next_page().is_none());
        // The snapshot pages fed their own latency histogram.
        let snap = t.obs().snapshot();
        let count = snap
            .op_latency
            .iter()
            .find(|(k, _)| *k == "snapshot_page")
            .map(|(_, h)| h.count)
            .unwrap();
        assert!(count >= 3, "{count}");
    }

    /// The snapshot scan stays coherent while the store splits and drains
    /// the scanned index's shard between pages.
    #[test]
    fn sharded_snapshot_scan_survives_resharding() {
        let t = Table::new(people_schema());
        for i in 0..60u64 {
            t.insert(&[i, i % 4, i]).unwrap();
        }
        let before = t.scan_by("score", 0, 59).unwrap();
        let mut scan = t.scan_by_snapshot("score", 0, 59, 10).unwrap();
        let first = scan.next_page().unwrap();

        // Split the score subspace's shard (subspace tag 2, one shard per
        // subspace initially) in the middle of its key range and drain
        // the migration while the scan is parked, then overwrite every
        // row so the moved keys also carry post-pin versions.
        let store = t.store().unwrap();
        let ss = leap_store::Subspace::new(2);
        let shard = t.subspace_stats()[2].shards[0];
        store.split_shard(shard, ss.key(30 << 28)).unwrap();
        store.rebalance_until_idle();
        for (id, _) in &before {
            t.update_column(*id, "user", 7777).unwrap();
        }

        let mut seen = first;
        while let Some(page) = scan.next_page() {
            seen.extend(page);
        }
        assert_eq!(seen, before, "snapshot holds across the migration");
        // A fresh scan sees the rewritten rows on the new shard layout.
        let now: Vec<_> = t
            .scan_by_snapshot("score", 0, 59, 16)
            .unwrap()
            .flatten()
            .collect();
        assert!(now.iter().all(|(_, row)| row.get(0) == Some(7777)));
        assert_eq!(now.len(), before.len());
    }

    #[test]
    fn delete_removes_from_every_index() {
        let t = Table::new(people_schema());
        let id = t.insert(&[1, 40, 70]).unwrap();
        t.insert(&[2, 40, 71]).unwrap();
        assert_eq!(t.count_by("age", 40, 40).unwrap(), 2);
        t.delete(id).unwrap();
        assert_eq!(t.count_by("age", 40, 40).unwrap(), 1);
        assert_eq!(t.count_by("score", 70, 70).unwrap(), 0);
    }

    #[test]
    fn update_nonindexed_column_is_visible_everywhere() {
        let t = Table::new(people_schema());
        let id = t.insert(&[5, 20, 30]).unwrap();
        let row = t.update_column(id, "user", 999).unwrap();
        assert_eq!(row.columns(), &[999, 20, 30]);
        assert_eq!(t.get(id).unwrap().get(0), Some(999));
        // The covering index entries must carry the new row too.
        let hits = t.scan_by("age", 20, 20).unwrap();
        assert_eq!(hits[0].1.get(0), Some(999));
    }

    #[test]
    fn update_indexed_column_moves_between_buckets() {
        let t = Table::new(people_schema());
        let id = t.insert(&[5, 20, 30]).unwrap();
        t.update_column(id, "age", 60).unwrap();
        assert_eq!(t.count_by("age", 20, 20).unwrap(), 0);
        assert_eq!(t.count_by("age", 60, 60).unwrap(), 1);
        assert_eq!(t.get(id).unwrap().get(1), Some(60));
        // Score index entry must also carry the updated row.
        let hits = t.scan_by("score", 30, 30).unwrap();
        assert_eq!(hits[0].1.get(1), Some(60));
        // Same-value "move": remove and re-put of one key stays put.
        t.update_column(id, "age", 60).unwrap();
        assert_eq!(t.count_by("age", 60, 60).unwrap(), 1);
    }

    #[test]
    fn update_column_errors() {
        let t = Table::new(people_schema());
        let id = t.insert(&[1, 2, 3]).unwrap();
        assert!(t.update_column(id, "ghost", 1).is_err());
        assert!(t.update_column(RowId(999), "age", 1).is_err());
        assert!(matches!(
            t.update_column(id, "age", u64::MAX),
            Err(DbError::ValueOutOfRange { .. })
        ));
    }

    #[test]
    fn row_ids_are_unique_and_monotone() {
        let t = Table::new(people_schema());
        let a = t.insert(&[1, 1, 1]).unwrap();
        let b = t.insert(&[2, 2, 2]).unwrap();
        assert!(b.0 > a.0);
    }

    /// Every table, from either constructor, is one sharded store with
    /// the 28-bit index geometry.
    #[test]
    fn table_exposes_its_store() {
        let db = crate::Db::new();
        let from_db = db.create_table("people", people_schema()).unwrap();
        for t in [&Table::new(people_schema()), &*from_db] {
            let store = t.store().expect("every table has a store");
            assert_eq!(t.max_indexed_value(), MAX_INDEXED_VALUE);
            assert_eq!(MAX_INDEXED_VALUE, (1 << 28) - 1);
            // One shard per subspace: primary + two indexes.
            assert_eq!(store.shards(), 3);
            for i in 0..20u64 {
                t.insert(&[i, i % 4, i % 7]).unwrap();
            }
            let ss = t.subspace_stats();
            assert_eq!(ss.len(), 3);
            assert_eq!(ss[0].keys, 20, "primary holds every row");
            assert_eq!(ss[1].keys, 20, "age index covers every row");
            assert_eq!(ss[2].keys, 20, "score index covers every row");
            assert!(ss.iter().all(|s| !s.shards.is_empty()));
            assert_eq!(store.len(), 60, "3 subspaces x 20 rows");
        }
    }

    /// Each op kind feeds its own latency histogram, counts match the
    /// calls made, and the snapshot renders through the shared JSON /
    /// Prometheus emitters.
    #[test]
    fn op_histograms_track_every_surface() {
        let t = Table::new(people_schema());
        for i in 0..10u64 {
            t.insert(&[i, i % 3, i]).unwrap();
        }
        let id = t.insert(&[99, 1, 1]).unwrap();
        t.get(id).unwrap();
        t.update_column(id, "score", 7).unwrap();
        t.delete(id).unwrap();
        t.scan_by("age", 0, 2).unwrap();
        t.count_by("age", 0, 2).unwrap();
        let pages: usize = t.scan_by_pages("age", 0, 2, 4).unwrap().count();
        assert!(pages >= 1);
        let snap = t.obs().snapshot();
        let count_of = |kind: &str| {
            snap.op_latency
                .iter()
                .find(|(k, _)| *k == kind)
                .map(|(_, h)| h.count)
                .unwrap()
        };
        assert_eq!(count_of("insert"), 11);
        assert_eq!(count_of("get"), 1);
        assert_eq!(count_of("update"), 1);
        assert_eq!(count_of("delete"), 1);
        assert_eq!(count_of("scan"), 1);
        // next_page keeps probing until the range is exhausted, so the
        // page count is a floor, not an exact match.
        assert!(count_of("scan_page") >= pages as u64);
        assert!(count_of("count") >= 1);
        let json = t.obs().snapshot().to_json();
        assert!(
            json.contains("\"op_latency\":{\"insert\":{\"count\":11"),
            "{json}"
        );
        assert!(json.contains("\"p999_ns\":"), "{json}");
        let prom = t.obs().registry().to_prometheus();
        assert!(prom.contains("table_op_insert_ns_count 11"), "{prom}");
    }

    #[test]
    fn sharded_indexed_update_is_one_store_transaction() {
        let t = Table::new(people_schema());
        let id = t.insert(&[1, 10, 20]).unwrap();
        let store = t.store().unwrap();
        let before = store.stats();
        // Touches 4 keys (primary rewrite, score rewrite, age remove+put,
        // with the age pair colliding on one subspace) — still ONE txn.
        t.update_column(id, "age", 11).unwrap();
        let after = store.stats();
        assert_eq!(
            after.stm.total_commits(),
            before.stm.total_commits() + 1,
            "an indexed-column update must be exactly one transaction"
        );
        assert!(
            after.collision_batches > before.collision_batches,
            "the remove+put pair collides on the age subspace's shard"
        );
    }
}
