//! A concurrent table whose primary and secondary indexes share one
//! transactional domain, behind a pluggable storage backend.
//!
//! # Index layout
//!
//! Entries live in numbered **subspaces**:
//!
//! * Subspace 0 — **primary index**: `row id -> Row`.
//! * Subspace `1 + i` — **covering secondary index** for the `i`-th
//!   indexed column: `(column value, row id) -> Row`. Storing the full
//!   (`Arc`-backed) row makes every range scan self-contained and
//!   therefore a single linearizable range query. Each entry costs one
//!   row clone when it is written; the node copies that later rewrite its
//!   node move it bitwise and clone nothing.
//!
//! How subspaces map onto lists is the backend's business
//! ([`crate::Backend`]): the default keeps one Leap-List per subspace
//! (the paper's §4 layout); the **sharded** backend packs every subspace
//! into one range-partitioned [`leap_store::LeapStore`] under prefix
//! tags, so indexes spread over shards, scans page through the store's
//! `Cursor`, and a `Rebalancer` can split index-heavy shards while the
//! table serves traffic.
//!
//! # Atomicity
//!
//! Every row mutation — `insert`, `delete`, and `update_column` on *any*
//! column, indexed or not — maintains the primary and **all** secondary
//! indexes as **one** linearizable action: the mutation's per-subspace
//! ops commit through a single multi-list transaction
//! (`LeapListLt::apply_batch_grouped` directly, or `LeapStore::apply` on
//! the sharded backend — one cross-shard transaction even mid-
//! migration). An indexed-column update moves the entry between two keys
//! of one subspace inside that same single transaction, so no scan can
//! ever observe the row absent from, or doubled in, an index.

use crate::obs::{TableObs, TableOp};
use crate::storage::{Backend, IndexOp, SnapshotPages, TableStorage};
use crate::{DbError, Row, RowId, Schema};
use leap_store::{LeapStore, Subspace, SubspaceStats};
use leaplist::Params;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const STRIPES: usize = 64;

/// Maximum value storable in an indexed column under the default
/// raw-list backend (the composite index key packs `(value, row id)`
/// into one 32/32 word). The sharded backend reserves 8 bits for the
/// subspace tag and allows 28/28 — ask [`Table::max_indexed_value`] for
/// the live bound.
pub const MAX_INDEXED_VALUE: u64 = (1 << 32) - 1;

/// A table with Leap-List indexes (see module docs).
pub struct Table {
    schema: Schema,
    storage: Box<dyn TableStorage>,
    /// Composite-key geometry, from the backend: value/id bit widths.
    value_bits: u32,
    id_bits: u32,
    /// Column position -> subspace (secondary indexes only).
    slot_of_column: Vec<Option<usize>>,
    next_row: AtomicU64,
    /// Per-row mutation serialization (delete / update_column).
    stripes: Vec<Mutex<()>>,
    /// Per-op-kind latency histograms (see [`crate::TableObs`]).
    obs: TableObs,
}

impl Table {
    /// Creates an empty table on the default raw-list backend with the
    /// paper's default Leap-List parameters.
    pub fn new(schema: Schema) -> Self {
        Self::with_params(schema, Params::default())
    }

    /// Creates an empty raw-list table with explicit Leap-List
    /// parameters.
    pub fn with_params(schema: Schema, params: Params) -> Self {
        Self::with_backend(schema, Backend::RawLists(params))
    }

    /// Creates an empty table on the **sharded** backend: one
    /// [`LeapStore`] holding every index in a prefix-tagged subspace,
    /// one shard per subspace initially, default rebalancing policy.
    pub fn sharded(schema: Schema) -> Self {
        Self::with_backend(schema, Backend::sharded())
    }

    /// Creates an empty table on an explicit [`Backend`].
    pub fn with_backend(schema: Schema, backend: Backend) -> Self {
        let indexed = schema.indexed_columns();
        let subspaces = 1 + indexed.len();
        let storage = backend.build(subspaces);
        let (value_bits, id_bits) = storage.key_bits();
        let mut slot_of_column = vec![None; schema.arity()];
        for (slot, col) in indexed.iter().enumerate() {
            slot_of_column[*col] = Some(1 + slot);
        }
        Table {
            schema,
            storage,
            value_bits,
            id_bits,
            slot_of_column,
            next_row: AtomicU64::new(1),
            stripes: (0..STRIPES).map(|_| Mutex::new(())).collect(),
            obs: TableObs::new(),
        }
    }

    /// The table's op-latency instruments: one histogram per op kind
    /// (insert, delete, get, update, scan, scan_page, count), living in a
    /// [`leap_obs::Registry`] scrapeable as JSON or Prometheus text. On
    /// the sharded backend these table-level series complement the
    /// store-level ones from [`Table::store`]'s
    /// [`LeapStore::stats`](LeapStore::stats).
    pub fn obs(&self) -> &TableObs {
        &self.obs
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Largest value an indexed column can hold on this table's backend.
    pub fn max_indexed_value(&self) -> u64 {
        (1 << self.value_bits) - 1
    }

    /// The row-id mask of this table's backend — an **exclusive** bound
    /// on allocatable ids: the last id allocated before the table panics
    /// with "row id space exhausted" is `max_row_id() - 1` (the top id is
    /// reserved so the largest index composite can never collide with
    /// the store's reserved key `u64::MAX`).
    pub fn max_row_id(&self) -> u64 {
        (1 << self.id_bits) - 1
    }

    /// The backing [`LeapStore`] when this table runs on the sharded
    /// backend (`None` on raw lists) — the handle for driving
    /// `split_shard` / `rebalance_step` / a `Rebalancer`, and for store
    /// statistics.
    pub fn store(&self) -> Option<&Arc<LeapStore<Row>>> {
        self.storage.store()
    }

    /// Per-subspace key counts and shard placement (sharded backend
    /// only): entry 0 is the primary index, entry `1 + i` the `i`-th
    /// indexed column's subspace.
    pub fn subspace_stats(&self) -> Option<Vec<SubspaceStats>> {
        let store = self.storage.store()?;
        let tags: Vec<Subspace> = (0..1 + self.schema.indexed_columns().len())
            .map(|t| Subspace::new(t as u8))
            .collect();
        Some(store.subspace_stats(&tags))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.obs.timed(TableOp::Count, || {
            self.storage.count(0, 0, self.max_row_id())
        })
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn composite(&self, value: u64, id: u64) -> u64 {
        debug_assert!(value <= self.max_indexed_value());
        (value << self.id_bits) | (id & self.max_row_id())
    }

    fn check_row(&self, values: &[u64]) -> Result<(), DbError> {
        if values.len() != self.schema.arity() {
            return Err(DbError::WrongArity {
                expected: self.schema.arity(),
                got: values.len(),
            });
        }
        for col in self.schema.indexed_columns() {
            if values[col] > self.max_indexed_value() {
                return Err(DbError::ValueOutOfRange {
                    column: self.schema.column_name(col).to_string(),
                    value: values[col],
                    bound: self.max_indexed_value(),
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
    /// # Errors
    ///
    /// [`DbError::WrongArity`] or [`DbError::ValueOutOfRange`].
    pub fn insert(&self, values: &[u64]) -> Result<RowId, DbError> {
        self.check_row(values)?;
        // Strictly below the mask: the very last id would make the top
        // index composite collide with the reserved key u64::MAX.
        // ORDERING: row-id allocator; uniqueness comes from the RMW, and the
        // id is published to readers by the storage commit, not by this add.
        let id = RowId(self.next_row.fetch_add(1, Ordering::Relaxed));
        assert!(id.0 < self.max_row_id(), "row id space exhausted");
        let row = Row::new(values);
        self.obs.timed(TableOp::Insert, || {
            self.storage.apply(&self.write_ops(id, &row))
        });
        Ok(id)
    }

    /// [`Table::insert`] under a bounded retry budget: if the storage
    /// transaction cannot commit within `policy` (attempt count and/or
    /// deadline), the insert is abandoned with [`DbError::Timeout`]
    /// instead of retrying forever — graceful degradation for callers
    /// with their own latency contract. Nothing is written on timeout,
    /// but the row id is consumed either way (ids are
    /// allocation-ordered, not dense).
    ///
    /// # Errors
    ///
    /// [`DbError::WrongArity`], [`DbError::ValueOutOfRange`] or
    /// [`DbError::Timeout`].
    pub fn insert_within(
        &self,
        values: &[u64],
        policy: leap_stm::RetryPolicy,
    ) -> Result<RowId, DbError> {
        self.check_row(values)?;
        // ORDERING: row-id allocator; uniqueness comes from the RMW, and the
        // id is published to readers by the storage commit, not by this add.
        let id = RowId(self.next_row.fetch_add(1, Ordering::Relaxed));
        assert!(id.0 < self.max_row_id(), "row id space exhausted");
        let row = Row::new(values);
        match leap_stm::with_retry_budget(policy, || {
            self.obs.timed(TableOp::Insert, || {
                self.storage.apply(&self.write_ops(id, &row))
            })
        }) {
            Ok(()) => Ok(id),
            Err(t) => Err(DbError::Timeout {
                attempts: t.attempts,
            }),
        }
    }

    /// The put batch writing `row` under `id` into every index.
    fn write_ops(&self, id: RowId, row: &Row) -> Vec<IndexOp> {
        let mut ops = Vec::with_capacity(1 + self.schema.indexed_columns().len());
        ops.push(IndexOp::Put {
            subspace: 0,
            key: id.0,
            row: row.clone(),
        });
        for col in self.schema.indexed_columns() {
            ops.push(IndexOp::Put {
                // INVARIANT: the constructor assigned a slot to every
                // indexed column of the schema.
                subspace: self.slot_of_column[col].expect("indexed column has a slot"),
                // INVARIANT: callers validate arity before building ops.
                key: self.composite(row.get(col).expect("arity checked"), id.0),
                row: row.clone(),
            });
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
        let row = self.storage.lookup(0, id.0).ok_or(DbError::NoSuchRow(id))?;
        let mut ops = Vec::with_capacity(1 + self.schema.indexed_columns().len());
        ops.push(IndexOp::Remove {
            subspace: 0,
            key: id.0,
        });
        for col in self.schema.indexed_columns() {
            ops.push(IndexOp::Remove {
                // INVARIANT: the constructor assigned a slot to every
                // indexed column of the schema.
                subspace: self.slot_of_column[col].expect("indexed column has a slot"),
                // INVARIANT: stored rows passed the arity check on insert.
                key: self.composite(row.get(col).expect("stored rows match arity"), id.0),
            });
        }
        self.storage.apply(&ops);
        Ok(row)
    }

    /// Point lookup by row id (linearizable, transaction-free).
    pub fn get(&self, id: RowId) -> Option<Row> {
        self.obs
            .timed(TableOp::Get, || self.storage.lookup(0, id.0))
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
        if self.schema.is_indexed(col) && value > self.max_indexed_value() {
            return Err(DbError::ValueOutOfRange {
                column: column.to_string(),
                value,
                bound: self.max_indexed_value(),
            });
        }
        let _guard = self.stripe(id).lock();
        self.obs.timed(TableOp::Update, || {
            let old = self.storage.lookup(0, id.0).ok_or(DbError::NoSuchRow(id))?;
            let new_row = old.with_column(col, value);
            let mut ops = self.write_ops(id, &new_row);
            if self.schema.is_indexed(col) {
                // INVARIANT: the constructor assigned a slot to every
                // indexed column; `is_indexed(col)` held just above.
                let slot = self.slot_of_column[col].expect("indexed column has a slot");
                // INVARIANT: stored rows passed the arity check on insert.
                let old_key = self.composite(old.get(col).expect("stored rows match arity"), id.0);
                let new_key = self.composite(value, id.0);
                if old_key != new_key {
                    // The entry moves between keys of ONE subspace; the
                    // remove rides in the same atomic batch. (`write_ops`
                    // already put the new key.)
                    ops.push(IndexOp::Remove {
                        subspace: slot,
                        key: old_key,
                    });
                }
            }
            self.storage.apply(&ops);
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
    /// [`DbError::ValueOutOfRange`] when `lo` exceeds the backend's
    /// [`Table::max_indexed_value`] (no stored value could match; `hi`
    /// merely clamps so open-ended scans stay valid).
    pub fn scan_by(&self, column: &str, lo: u64, hi: u64) -> Result<Vec<(RowId, Row)>, DbError> {
        let (slot, lo_key, hi_key) = self.index_range(column, lo, hi)?;
        Ok(self
            .obs
            .timed(TableOp::Scan, || self.storage.scan(slot, lo_key, hi_key))
            .into_iter()
            .map(|(k, row)| (RowId(k & self.max_row_id()), row))
            .collect())
    }

    /// A paged scan over the index on `column`: each page is one bounded
    /// linearizable transaction of at most `page_size` rows with a resume
    /// key (on the sharded backend this routes through
    /// [`LeapStore::scan`]'s `Cursor`). Between pages the table runs
    /// free, so each page is internally consistent but different pages
    /// may observe different instants. When the whole multi-page scan
    /// must be one snapshot, use [`Table::scan_by_snapshot`] — same
    /// paging, one pinned timestamp — or [`Table::scan_by`] for a single
    /// whole-range transaction.
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
        let (slot, lo_key, hi_key) = self.index_range(column, lo, hi)?;
        Ok(TableScan {
            table: self,
            subspace: slot,
            hi: hi_key,
            next: Some(lo_key),
            page_size,
        })
    }

    /// A **snapshot-isolated** paged scan over the index on `column`:
    /// this call pins the global commit timestamp once, and **every**
    /// page of the returned [`TableSnapshotScan`] reads the index exactly
    /// as of that instant — rows inserted, deleted, or moved between
    /// index buckets while the scan is parked between pages are
    /// invisible, and writers are never blocked or retried against. The
    /// pages come from the index lists' version bundles (the MVCC-lite
    /// layer), so the read is transaction-free; on the sharded backend
    /// consistency also holds across in-flight shard migrations.
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
        let (slot, lo_key, hi_key) = self.index_range(column, lo, hi)?;
        Ok(TableSnapshotScan {
            pages: self.storage.snapshot_pages(slot, lo_key, hi_key, page_size),
            table: self,
        })
    }

    /// Resolves an indexed column and maps `[lo, hi]` to its composite
    /// key interval.
    ///
    /// A `lo` beyond the backend's representable bound is an error, not a
    /// clamp: no stored value can satisfy it, and clamping used to fold
    /// the query onto the boundary value itself — returning phantom rows
    /// whose column value *is* the bound instead of either the empty set
    /// or a diagnostic. `hi` still clamps, so open-ended scans like
    /// `[x, u64::MAX]` keep meaning "everything at or above x".
    fn index_range(&self, column: &str, lo: u64, hi: u64) -> Result<(usize, u64, u64), DbError> {
        let col = self.schema.resolve_indexed(column)?;
        // INVARIANT: `resolve_indexed` proved the column is indexed, and
        // the constructor assigned every indexed column a slot.
        let slot = self.slot_of_column[col].expect("indexed column has a slot");
        if lo > self.max_indexed_value() {
            return Err(DbError::ValueOutOfRange {
                column: self.schema.column_name(col).to_string(),
                value: lo,
                bound: self.max_indexed_value(),
            });
        }
        let lo_key = self.composite(lo, 0);
        // Clamp below the reserved sentinel key: the raw backend's full
        // 32/32 geometry puts its very top composite at u64::MAX (ids
        // stop one short of the mask, so no row can live there).
        let hi_key = self
            .composite(hi.min(self.max_indexed_value()), self.max_row_id())
            .min(u64::MAX - 1);
        Ok((slot, lo_key, hi_key))
    }

    /// Number of rows whose `column` value lies in `[lo, hi]` (consistent
    /// snapshot; no row clones).
    ///
    /// # Errors
    ///
    /// As for [`Table::scan_by`].
    pub fn count_by(&self, column: &str, lo: u64, hi: u64) -> Result<usize, DbError> {
        let (slot, lo_key, hi_key) = self.index_range(column, lo, hi)?;
        Ok(self
            .obs
            .timed(TableOp::Count, || self.storage.count(slot, lo_key, hi_key)))
    }

    /// Starts building a [`Query`](crate::Query) over this table.
    pub fn query(&self) -> crate::Query<'_> {
        crate::Query::new(self)
    }

    /// Inserts several rows; each insert is individually atomic across all
    /// indexes. Returns the new row ids.
    ///
    /// # Errors
    ///
    /// Fails fast on the first invalid row; earlier rows remain inserted.
    pub fn insert_many(&self, rows: &[&[u64]]) -> Result<Vec<RowId>, DbError> {
        rows.iter().map(|r| self.insert(r)).collect()
    }

    /// All rows, ordered by row id (consistent snapshot).
    pub fn scan_all(&self) -> Vec<(RowId, Row)> {
        self.obs
            .timed(TableOp::Scan, || self.storage.scan(0, 0, self.max_row_id()))
            .into_iter()
            .map(|(k, row)| (RowId(k), row))
            .collect()
    }
}

/// A paged index scan (see [`Table::scan_by_pages`]): iterates pages of
/// `(row id, row)`, each page one bounded linearizable transaction,
/// ordered by `(column value, row id)` across the whole scan.
pub struct TableScan<'t> {
    table: &'t Table,
    subspace: usize,
    hi: u64,
    next: Option<u64>,
    page_size: usize,
}

impl TableScan<'_> {
    /// The next page, or `None` when the index range is exhausted. Never
    /// returns an empty page.
    pub fn next_page(&mut self) -> Option<Vec<(RowId, Row)>> {
        let lo = self.next?;
        let page = self.table.obs.timed(TableOp::ScanPage, || {
            self.table
                .storage
                .scan_page(self.subspace, lo, self.hi, self.page_size)
        });
        self.next = match page.last() {
            Some(&(last, _)) if page.len() == self.page_size && last < self.hi => Some(last + 1),
            _ => None,
        };
        (!page.is_empty()).then(|| {
            page.into_iter()
                .map(|(k, row)| (RowId(k & self.table.max_row_id()), row))
                .collect()
        })
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
    table: &'t Table,
    pages: Box<dyn SnapshotPages + 't>,
}

impl TableSnapshotScan<'_> {
    /// The pinned commit timestamp every page of this scan reads at.
    pub fn ts(&self) -> u64 {
        self.pages.ts()
    }

    /// The next page, or `None` when the index range (as of the pinned
    /// timestamp) is exhausted. Never returns an empty page.
    pub fn next_page(&mut self) -> Option<Vec<(RowId, Row)>> {
        let pages = &mut self.pages;
        let page = self
            .table
            .obs
            .timed(TableOp::SnapshotPage, || pages.next_page())?;
        Some(
            page.into_iter()
                .map(|(k, row)| (RowId(k & self.table.max_row_id()), row))
                .collect(),
        )
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
            .field("indexes", &self.schema.indexed_columns().len())
            .field("rows", &self.len())
            .field("sharded", &self.storage.store().is_some())
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

    fn backends() -> [(&'static str, Table); 2] {
        [
            ("raw", Table::new(people_schema())),
            ("sharded", Table::sharded(people_schema())),
        ]
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        for (name, t) in backends() {
            let id = t.insert(&[7, 30, 99]).unwrap();
            assert_eq!(t.get(id).unwrap().columns(), &[7, 30, 99], "{name}");
            assert_eq!(t.len(), 1, "{name}");
            let old = t.delete(id).unwrap();
            assert_eq!(old.columns(), &[7, 30, 99], "{name}");
            assert!(t.get(id).is_none(), "{name}");
            assert!(t.is_empty(), "{name}");
            assert_eq!(t.delete(id), Err(DbError::NoSuchRow(id)), "{name}");
        }
    }

    #[test]
    fn insert_within_bounds_the_retry_budget() {
        for (name, t) in backends() {
            // An uncontended insert never exhausts even the tightest
            // budget: the budget only ticks on commit retries.
            let policy = leap_stm::RetryPolicy::default().max_attempts(1);
            let id = t.insert_within(&[7, 30, 99], policy).unwrap();
            assert_eq!(t.get(id).unwrap().columns(), &[7, 30, 99], "{name}");
            // Validation still runs before the budget is even armed.
            assert_eq!(
                t.insert_within(&[1, 2], policy),
                Err(DbError::WrongArity {
                    expected: 3,
                    got: 2
                }),
                "{name}"
            );
        }
        assert!(DbError::Timeout { attempts: 4 }.to_string().contains('4'));
    }

    #[test]
    fn arity_and_range_validation() {
        for (name, t) in backends() {
            assert_eq!(
                t.insert(&[1, 2]),
                Err(DbError::WrongArity {
                    expected: 3,
                    got: 2
                }),
                "{name}"
            );
            assert!(
                matches!(
                    t.insert(&[1, u64::MAX, 3]),
                    Err(DbError::ValueOutOfRange { .. })
                ),
                "{name}"
            );
            // Non-indexed columns may hold any u64.
            t.insert(&[u64::MAX, 2, 3]).unwrap();
            // The largest indexed value the backend allows round-trips.
            let id = t.insert(&[1, t.max_indexed_value(), 3]).unwrap();
            assert_eq!(
                t.count_by("age", t.max_indexed_value(), u64::MAX).unwrap(),
                1,
                "{name}"
            );
            t.delete(id).unwrap();
        }
        // The two backends grant different composite-key geometry.
        assert_eq!(
            Table::new(people_schema()).max_indexed_value(),
            (1 << 32) - 1
        );
        assert_eq!(
            Table::sharded(people_schema()).max_indexed_value(),
            (1 << 28) - 1
        );
    }

    /// Bound parity at the exact boundary, per backend: the reported
    /// `ValueOutOfRange.bound` matches [`Table::max_indexed_value`]
    /// (32-bit raw vs 28-bit sharded), a row AT the bound is scannable,
    /// and a scan whose `lo` lies beyond it errors instead of silently
    /// clamping onto the boundary value (the old behavior returned the
    /// boundary row as a phantom match).
    #[test]
    fn scan_bound_parity_at_the_exact_boundary() {
        for (name, t) in backends() {
            let bound = t.max_indexed_value();
            assert_eq!(
                bound,
                if name == "raw" {
                    (1 << 32) - 1
                } else {
                    (1 << 28) - 1
                },
                "{name}"
            );
            let id = t.insert(&[9, bound, 5]).unwrap();
            // The boundary value itself scans and counts on both surfaces.
            let hits = t.scan_by("age", bound, bound).unwrap();
            assert_eq!(hits.len(), 1, "{name}");
            assert_eq!(hits[0].0, id, "{name}");
            assert_eq!(t.count_by("age", bound, u64::MAX).unwrap(), 1, "{name}");
            // One past the bound: an error carrying the backend's bound —
            // NOT a silent clamp that would re-surface the boundary row.
            for (lo, hi) in [(bound + 1, bound + 1), (bound + 1, u64::MAX)] {
                match t.scan_by("age", lo, hi) {
                    Err(DbError::ValueOutOfRange {
                        column,
                        value,
                        bound: b,
                    }) => {
                        assert_eq!(column, "age", "{name}");
                        assert_eq!(value, lo, "{name}");
                        assert_eq!(b, bound, "{name}: error reports the live bound");
                    }
                    other => panic!("{name}: expected ValueOutOfRange, got {other:?}"),
                }
                assert!(
                    matches!(
                        t.count_by("age", lo, hi),
                        Err(DbError::ValueOutOfRange { .. })
                    ),
                    "{name}"
                );
                assert!(
                    matches!(
                        t.scan_by_pages("age", lo, hi, 4),
                        Err(DbError::ValueOutOfRange { .. })
                    ),
                    "{name}"
                );
            }
            // The insert-side rejection reports the same bound.
            match t.insert(&[1, bound + 1, 2]) {
                Err(DbError::ValueOutOfRange { bound: b, .. }) => assert_eq!(b, bound, "{name}"),
                other => panic!("{name}: expected ValueOutOfRange, got {other:?}"),
            }
        }
    }

    #[test]
    fn backend_geometry_is_reported() {
        assert_eq!(
            Table::new(people_schema()).max_indexed_value(),
            (1 << 32) - 1
        );
        assert_eq!(
            Table::sharded(people_schema()).max_indexed_value(),
            (1 << 28) - 1
        );
    }

    #[test]
    fn scans_cover_all_indexes() {
        for (name, t) in backends() {
            for i in 0..50u64 {
                t.insert(&[i, i % 10, 100 - i]).unwrap();
            }
            let teens = t.scan_by("age", 3, 5).unwrap();
            assert_eq!(teens.len(), 15, "{name}");
            for (_, row) in &teens {
                assert!((3..=5).contains(&row.get(1).unwrap()), "{name}");
            }
            // scores are 100 - i for i in 0..50: [90, 100] covers i = 0..=10.
            assert_eq!(t.count_by("score", 90, 100).unwrap(), 11, "{name}");
            assert!(t.scan_by("user", 0, 10).is_err(), "user is not indexed");
            assert!(t.scan_by("nope", 0, 10).is_err(), "{name}");
            assert_eq!(t.scan_all().len(), 50, "{name}");
        }
    }

    #[test]
    fn paged_scans_tile_the_index() {
        for (name, t) in backends() {
            for i in 0..40u64 {
                t.insert(&[i, i % 8, i]).unwrap();
            }
            for page_size in [1usize, 3, 64] {
                let mut seen = Vec::new();
                for page in t.scan_by_pages("age", 2, 5, page_size).unwrap() {
                    assert!(page.len() <= page_size, "{name}");
                    seen.extend(page);
                }
                let whole = t.scan_by("age", 2, 5).unwrap();
                assert_eq!(seen, whole, "{name} page_size {page_size}");
            }
            assert!(t.scan_by_pages("user", 0, 1, 4).is_err(), "{name}");
        }
    }

    /// Tentpole: the whole multi-page snapshot scan observes ONE instant
    /// — rows inserted, deleted, or moved between index buckets after the
    /// timestamp was pinned stay invisible to every later page, on both
    /// backends.
    #[test]
    fn snapshot_scan_is_isolated_from_later_writes() {
        for (name, t) in backends() {
            for i in 0..30u64 {
                t.insert(&[i, i % 10, i]).unwrap();
            }
            let before = t.scan_by("age", 0, 9).unwrap();
            let mut scan = t.scan_by_snapshot("age", 0, 9, 7).unwrap();
            let first = scan.next_page().unwrap();
            assert_eq!(first.len(), 7, "{name}");
            // Churn after the pin: a new row, a bucket move, a delete.
            t.insert(&[99, 5, 5]).unwrap();
            t.update_column(before[0].0, "age", 9).unwrap();
            t.delete(before[1].0).unwrap();
            let mut seen = first;
            while let Some(page) = scan.next_page() {
                assert!(page.len() <= 7, "{name}");
                seen.extend(page);
            }
            assert_eq!(seen, before, "{name}: the whole scan is one snapshot");
            // A fresh scan pins a new timestamp and observes the churn.
            let now: Vec<_> = t
                .scan_by_snapshot("age", 0, 9, 64)
                .unwrap()
                .flatten()
                .collect();
            assert_eq!(now, t.scan_by("age", 0, 9).unwrap(), "{name}");
        }
    }

    /// Snapshot pages tile the index exactly like a one-shot scan at any
    /// page size, the pinned timestamp is monotone across scans, and the
    /// usual index-resolution errors apply.
    #[test]
    fn snapshot_scan_reports_ts_and_tiles_the_index() {
        for (name, t) in backends() {
            for i in 0..40u64 {
                t.insert(&[i, i % 8, i]).unwrap();
            }
            let whole = t.scan_by("age", 2, 5).unwrap();
            let mut last_ts = 0;
            for page_size in [1usize, 3, 64] {
                let mut scan = t.scan_by_snapshot("age", 2, 5, page_size).unwrap();
                assert!(scan.ts() >= last_ts, "{name}: the pin is monotone");
                last_ts = scan.ts();
                let mut seen = Vec::new();
                while let Some(page) = scan.next_page() {
                    assert!(!page.is_empty() && page.len() <= page_size, "{name}");
                    seen.extend(page);
                }
                assert_eq!(seen, whole, "{name} page_size {page_size}");
            }
            assert!(t.scan_by_snapshot("user", 0, 1, 4).is_err(), "{name}");
            assert!(
                matches!(
                    t.scan_by_snapshot("age", t.max_indexed_value() + 1, u64::MAX, 4),
                    Err(DbError::ValueOutOfRange { .. })
                ),
                "{name}"
            );
            // An empty range still pins a timestamp, yields no pages.
            let mut empty = t.scan_by_snapshot("score", 1000, 2000, 4).unwrap();
            assert!(empty.ts() > 0, "{name}");
            assert!(empty.next_page().is_none(), "{name}");
            // The snapshot pages fed their own latency histogram.
            let snap = t.obs().snapshot();
            let count = snap
                .op_latency
                .iter()
                .find(|(k, _)| *k == "snapshot_page")
                .map(|(_, h)| h.count)
                .unwrap();
            assert!(count >= 3, "{name}: {count}");
        }
    }

    /// Sharded backend: the snapshot scan stays coherent while the store
    /// splits and drains the scanned index's shard between pages.
    #[test]
    fn sharded_snapshot_scan_survives_resharding() {
        let t = Table::sharded(people_schema());
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
        let shard = t.subspace_stats().unwrap()[2].shards[0];
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
        for (name, t) in backends() {
            let id = t.insert(&[1, 40, 70]).unwrap();
            t.insert(&[2, 40, 71]).unwrap();
            assert_eq!(t.count_by("age", 40, 40).unwrap(), 2, "{name}");
            t.delete(id).unwrap();
            assert_eq!(t.count_by("age", 40, 40).unwrap(), 1, "{name}");
            assert_eq!(t.count_by("score", 70, 70).unwrap(), 0, "{name}");
        }
    }

    #[test]
    fn update_nonindexed_column_is_visible_everywhere() {
        for (name, t) in backends() {
            let id = t.insert(&[5, 20, 30]).unwrap();
            let row = t.update_column(id, "user", 999).unwrap();
            assert_eq!(row.columns(), &[999, 20, 30], "{name}");
            assert_eq!(t.get(id).unwrap().get(0), Some(999), "{name}");
            // The covering index entries must carry the new row too.
            let hits = t.scan_by("age", 20, 20).unwrap();
            assert_eq!(hits[0].1.get(0), Some(999), "{name}");
        }
    }

    #[test]
    fn update_indexed_column_moves_between_buckets() {
        for (name, t) in backends() {
            let id = t.insert(&[5, 20, 30]).unwrap();
            t.update_column(id, "age", 60).unwrap();
            assert_eq!(t.count_by("age", 20, 20).unwrap(), 0, "{name}");
            assert_eq!(t.count_by("age", 60, 60).unwrap(), 1, "{name}");
            assert_eq!(t.get(id).unwrap().get(1), Some(60), "{name}");
            // Score index entry must also carry the updated row.
            let hits = t.scan_by("score", 30, 30).unwrap();
            assert_eq!(hits[0].1.get(1), Some(60), "{name}");
            // Same-value "move": remove and re-put of one key stays put.
            t.update_column(id, "age", 60).unwrap();
            assert_eq!(t.count_by("age", 60, 60).unwrap(), 1, "{name}");
        }
    }

    #[test]
    fn update_column_errors() {
        for (name, t) in backends() {
            let id = t.insert(&[1, 2, 3]).unwrap();
            assert!(t.update_column(id, "ghost", 1).is_err(), "{name}");
            assert!(t.update_column(RowId(999), "age", 1).is_err(), "{name}");
            assert!(
                matches!(
                    t.update_column(id, "age", u64::MAX),
                    Err(DbError::ValueOutOfRange { .. })
                ),
                "{name}"
            );
        }
    }

    #[test]
    fn row_ids_are_unique_and_monotone() {
        for (_, t) in backends() {
            let a = t.insert(&[1, 1, 1]).unwrap();
            let b = t.insert(&[2, 2, 2]).unwrap();
            assert!(b.0 > a.0);
        }
    }

    #[test]
    fn sharded_backend_exposes_its_store() {
        let raw = Table::new(people_schema());
        assert!(raw.store().is_none());
        assert!(raw.subspace_stats().is_none());

        let t = Table::sharded(people_schema());
        let store = t.store().expect("sharded backend has a store");
        // One shard per subspace: primary + two indexes.
        assert_eq!(store.shards(), 3);
        for i in 0..20u64 {
            t.insert(&[i, i % 4, i % 7]).unwrap();
        }
        let ss = t.subspace_stats().expect("sharded stats");
        assert_eq!(ss.len(), 3);
        assert_eq!(ss[0].keys, 20, "primary holds every row");
        assert_eq!(ss[1].keys, 20, "age index covers every row");
        assert_eq!(ss[2].keys, 20, "score index covers every row");
        assert!(ss.iter().all(|s| !s.shards.is_empty()));
        assert_eq!(store.len(), 60, "3 subspaces x 20 rows");
    }

    /// Each op kind feeds its own latency histogram, counts match the
    /// calls made, and the snapshot renders through the shared JSON /
    /// Prometheus emitters.
    #[test]
    fn op_histograms_track_every_surface() {
        for (name, t) in backends() {
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
            assert!(pages >= 1, "{name}");
            let snap = t.obs().snapshot();
            let count_of = |kind: &str| {
                snap.op_latency
                    .iter()
                    .find(|(k, _)| *k == kind)
                    .map(|(_, h)| h.count)
                    .unwrap()
            };
            assert_eq!(count_of("insert"), 11, "{name}");
            assert_eq!(count_of("get"), 1, "{name}");
            assert_eq!(count_of("update"), 1, "{name}");
            assert_eq!(count_of("delete"), 1, "{name}");
            assert_eq!(count_of("scan"), 1, "{name}");
            // next_page keeps probing until the range is exhausted, so
            // the page count is a floor, not an exact match.
            assert!(count_of("scan_page") >= pages as u64, "{name}");
            assert!(count_of("count") >= 1, "{name}");
            let json = t.obs().snapshot().to_json();
            assert!(
                json.contains("\"op_latency\":{\"insert\":{\"count\":11"),
                "{name}: {json}"
            );
            assert!(json.contains("\"p999_ns\":"), "{name}: {json}");
            let prom = t.obs().registry().to_prometheus();
            assert!(
                prom.contains("table_op_insert_ns_count 11"),
                "{name}: {prom}"
            );
        }
    }

    #[test]
    fn sharded_indexed_update_is_one_store_transaction() {
        let t = Table::sharded(people_schema());
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
