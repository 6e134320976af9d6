//! `memdb_oltp`: the paper's section 4 application. A sharded `Table`
//! with schema `(a indexed, b indexed, c)` under a closed-loop OLTP mix in
//! which every mutation is a 3-5-op cross-shard `apply`.
//!
//! A thread mutates only rows it owns: preloaded rows of its parity and
//! rows it inserted (column `c` carries the owner), so it keeps an exact
//! model of them, and every `scan_by` must return exactly the model's
//! rows of its owner in the scanned range.

use crate::check::Checker;
use crate::gen::{below, stream_seed, Mix, OpStream, SplitMix64};
use crate::kv::THREADS;
use crate::lane::{
    Lane, SlicePlan, INDEX_SCAN, INDEX_SNAP, ROW_DELETE, ROW_GET, ROW_INSERT, ROW_UPDATE,
};
use leap_memdb::{Row, RowId, Schema, Table};
use std::collections::BTreeSet;
use std::sync::Barrier;
use std::time::Instant;

pub const LABEL: u64 = 4;
pub const ROWS: u64 = 1 << 17;
/// Column `a` is uniform over `[0, A_SPACE)`: 8 values per row, so a scan
/// of [`SCAN_SPAN`] values returns about 100 rows.
pub const A_SPACE: u64 = 1 << 20;
pub const SCAN_SPAN: u64 = 800;
const B_SPACE: u64 = 1 << 27;
const SNAP_PAGE: usize = 64;
const MIX: Mix = &[
    (ROW_GET, 50),
    (ROW_UPDATE, 20),
    (ROW_INSERT, 5),
    (ROW_DELETE, 5),
    (INDEX_SCAN, 15),
    (INDEX_SNAP, 5),
];

fn stamp(owner: u64, seq: u64) -> u64 {
    owner << 40 | seq
}

fn owner_of(row: &[u64]) -> u64 {
    row[2] >> 40
}

/// One thread's model of the rows it owns.
pub struct RowModel {
    thread: u64,
    /// Indexed by row id; `None` for rows it does not own or has deleted.
    rows: Vec<Option<[u64; 3]>>,
    /// Ids of its live rows (for drawing one) and each id's place there.
    live: Vec<u64>,
    place: Vec<u32>,
    /// `(a, id)` of its live rows: what an index scan must return of them.
    by_a: BTreeSet<(u64, u64)>,
    seq: u64,
    /// Highest row id it has seen allocated.
    max_id: u64,
}

impl RowModel {
    fn new(thread: u64) -> Self {
        RowModel {
            thread,
            rows: Vec::new(),
            live: Vec::new(),
            place: Vec::new(),
            by_a: BTreeSet::new(),
            seq: 0,
            max_id: 0,
        }
    }

    fn get(&self, id: u64) -> Option<[u64; 3]> {
        self.rows.get(id as usize).copied().flatten()
    }

    fn insert(&mut self, id: u64, row: [u64; 3]) {
        let at = id as usize;
        if self.rows.len() <= at {
            self.rows.resize(at + 1, None);
            self.place.resize(at + 1, u32::MAX);
        }
        self.rows[at] = Some(row);
        self.place[at] = self.live.len() as u32;
        self.live.push(id);
        self.by_a.insert((row[0], id));
        self.max_id = self.max_id.max(id);
    }

    fn remove(&mut self, id: u64) -> Option<[u64; 3]> {
        let row = self.rows.get_mut(id as usize)?.take()?;
        let at = self.place[id as usize] as usize;
        self.live.swap_remove(at);
        if let Some(&moved) = self.live.get(at) {
            self.place[moved as usize] = at as u32;
        }
        self.by_a.remove(&(row[0], id));
        Some(row)
    }

    fn set_a(&mut self, id: u64, a: u64) -> Option<[u64; 3]> {
        let row = self.rows.get_mut(id as usize)?.as_mut()?;
        self.by_a.remove(&(row[0], id));
        row[0] = a;
        self.by_a.insert((a, id));
        Some(*row)
    }

    pub fn live(&self) -> usize {
        self.live.len()
    }

    pub fn live_ids(&self) -> &[u64] {
        &self.live
    }

    /// One of its live rows, chosen by `draw`.
    pub fn pick(&self, draw: u64) -> Option<u64> {
        (!self.live.is_empty()).then(|| self.live[below(draw, self.live.len() as u64) as usize])
    }
}

/// Builds the table and preloads [`ROWS`] rows single-threaded; row `id`
/// belongs to thread `id % 2`.
pub fn build(seed: u64, rows: u64) -> (Table, Vec<RowModel>) {
    let table = Table::sharded(
        Schema::new(&["a", "b", "c"])
            .with_index("a")
            .with_index("b"),
    );
    let mut models: Vec<RowModel> = (0..THREADS).map(RowModel::new).collect();
    let mut rng = SplitMix64::new(stream_seed(seed, LABEL, 0xF00D));
    for expect in 1..=rows {
        let owner = expect % THREADS;
        let row = [rng.below(A_SPACE), rng.below(B_SPACE), stamp(owner, 0)];
        // INVARIANT: three in-range columns match the schema built above.
        let id = table.insert(&row).expect("preload row matches the schema");
        assert_eq!(id.0, expect, "a fresh table allocates ids from 1");
        models[owner as usize].insert(id.0, row);
    }
    for m in &mut models {
        m.max_id = rows;
    }
    (table, models)
}

/// Runs the closed loop with one thread per model.
pub fn run_closed(
    table: &Table,
    models: Vec<RowModel>,
    seed: u64,
    plan: &SlicePlan,
) -> Vec<(Lane, RowModel, Checker)> {
    let clock = Instant::now();
    let barrier = Barrier::new(models.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = models
            .into_iter()
            .map(|mut model| {
                let barrier = &barrier;
                scope.spawn(move || {
                    crate::sys::pin_thread(model.thread as usize);
                    let mut lane = Lane::new(model.thread as u8, clock);
                    let mut checker = Checker::default();
                    let mut stream = OpStream::new(seed, LABEL, model.thread, MIX);
                    barrier.wait();
                    lane.run_closed(plan, clock, |lane| {
                        one_op(table, &mut stream, &mut model, &mut checker, lane);
                    });
                    (lane, model, checker)
                })
            })
            .collect();
        handles
            .into_iter()
            // INVARIANT: a load thread panics only on a bug in this
            // benchmark or a crash in the table; either must stop the run.
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

fn cols(row: &Row) -> Option<[u64; 3]> {
    row.columns().try_into().ok()
}

fn one_op(
    table: &Table,
    stream: &mut OpStream,
    model: &mut RowModel,
    checker: &mut Checker,
    lane: &mut Lane,
) {
    let op = stream.next_op();
    lane.begin_op();
    checker.attempted += 1;
    match op.kind {
        ROW_GET => {
            let id = 1 + below(op.a, model.max_id);
            let got = lane.call(ROW_GET, || table.get(RowId(id)));
            let got = got.as_ref().map(cols);
            match (model.get(id), got) {
                (Some(want), got) if got != Some(Some(want)) => {
                    checker.fail(format!(
                        "get(row {id}) returned {got:?}, its owner's model {want:?}"
                    ));
                }
                (None, Some(Some(row))) if owner_of(&row) == model.thread => {
                    checker.fail(format!(
                        "get(row {id}) returned {row:?}, which its owner deleted"
                    ));
                }
                (None, Some(None)) => {
                    checker.fail(format!("get(row {id}) returned a row of wrong arity"))
                }
                _ => {}
            }
        }
        ROW_UPDATE => {
            // INVARIANT: 5 % deletes against 5 % inserts over 65 536 own
            // rows cannot empty the set within a run.
            let id = model.pick(op.a).expect("a thread always owns live rows");
            let a = below(op.b, A_SPACE);
            let got = lane.call(ROW_UPDATE, || table.update_column(RowId(id), "a", a));
            let want = model.set_a(id, a);
            match got {
                Ok(row) if cols(&row) == want => {}
                other => checker.fail(format!(
                    "update_column(row {id}, a={a}) returned {other:?}, model {want:?}"
                )),
            }
        }
        ROW_INSERT => {
            model.seq += 1;
            let row = [
                below(op.a, A_SPACE),
                below(op.b, B_SPACE),
                stamp(model.thread, model.seq),
            ];
            match lane.call(ROW_INSERT, || table.insert(&row)) {
                Ok(id) if model.get(id.0).is_none() => model.insert(id.0, row),
                other => checker.fail(format!("insert({row:?}) returned {other:?}")),
            }
        }
        ROW_DELETE => {
            // INVARIANT: as for ROW_UPDATE.
            let id = model.pick(op.a).expect("a thread always owns live rows");
            let got = lane.call(ROW_DELETE, || table.delete(RowId(id)));
            let want = model.remove(id);
            match got {
                Ok(row) if cols(&row) == want => {}
                other => checker.fail(format!(
                    "delete(row {id}) returned {other:?}, model {want:?}"
                )),
            }
        }
        kind => {
            let lo = below(op.a, A_SPACE - SCAN_SPAN);
            let hi = lo + SCAN_SPAN;
            let got = if kind == INDEX_SCAN {
                lane.call(INDEX_SCAN, || table.scan_by("a", lo, hi))
            } else {
                lane.call(INDEX_SNAP, || {
                    table
                        .scan_by_snapshot("a", lo, hi, SNAP_PAGE)
                        .map(|pages| pages.flatten().collect())
                })
            };
            match got {
                Ok(rows) => {
                    lane.units += rows.len() as u64;
                    check_scan(
                        checker,
                        model,
                        crate::lane::KINDS[kind].call,
                        kind == INDEX_SCAN,
                        0,
                        lo,
                        hi,
                        &rows,
                    );
                }
                Err(e) => checker.fail(format!("scan of a in [{lo}, {hi}] failed: {e}")),
            }
        }
    }
    lane.end_op(op.kind);
}

/// An index scan over column `col` in `[lo, hi]` is ascending by
/// `(column, id)` and in bounds, so every row sits under the index key its
/// own column gives. With `current`, it also holds of the checking
/// thread's rows exactly those its model has there, with the model's
/// contents (for column `a` the model's `by_a` order gives them directly;
/// the final whole-index scans pass `lo = 0, hi = MAX` and are checked by
/// count). A snapshot scan is checked without `current`: its timestamp is
/// the newest fully wired commit, which another thread's commit in flight
/// holds back, so it may not yet show its caller's own last writes.
/// Returns how many of the thread's rows the scan holds.
#[allow(clippy::too_many_arguments)]
fn check_scan(
    checker: &mut Checker,
    model: &RowModel,
    what: &str,
    current: bool,
    col: usize,
    lo: u64,
    hi: u64,
    got: &[(RowId, Row)],
) -> usize {
    let mut prev: Option<(u64, u64)> = None;
    let mut mine = 0usize;
    let mut expected = (current && col == 0).then(|| model.by_a.range((lo, 0)..=(hi, u64::MAX)));
    for (id, row) in got {
        let Some(row) = cols(row) else {
            checker.fail(format!("{what} returned row {id} of wrong arity"));
            return mine;
        };
        let at = (row[col], id.0);
        if prev.is_some_and(|p| p >= at) || row[col] < lo || row[col] > hi {
            checker.fail(format!(
                "{what}(col {col}, {lo}, {hi}): row {id} with value {} out of order or bounds",
                row[col]
            ));
            return mine;
        }
        prev = Some(at);
        if owner_of(&row) != model.thread {
            continue;
        }
        mine += 1;
        if current && model.get(id.0) != Some(row) {
            checker.fail(format!(
                "{what}(col {col}, {lo}, {hi}): row {id} is {row:?}, its owner's model {:?}",
                model.get(id.0)
            ));
            return mine;
        }
        if let Some(expected) = &mut expected {
            if expected.next() != Some(&at) {
                checker.fail(format!(
                    "{what}(a, {lo}, {hi}): row {id} (a={}) skips a model row",
                    row[0]
                ));
                return mine;
            }
        }
    }
    if let Some(&(a, id)) = expected.and_then(|mut e| e.next()) {
        checker.fail(format!(
            "{what}(a, {lo}, {hi}) misses row {id} (a={a}) of the model"
        ));
    }
    mine
}

/// End of run: `len()` equals the models' sum and every index's full
/// `scan_by` returns exactly `len()` rows in index order, each thread's
/// rows matching its model.
pub fn verify(table: &Table, models: &[&RowModel], checker: &mut Checker) {
    let live: usize = models.iter().map(|m| m.live()).sum();
    if table.len() != live {
        checker.fail(format!(
            "final: len() is {}, the models hold {live}",
            table.len()
        ));
    }
    for (col, name) in ["a", "b"].into_iter().enumerate() {
        match table.scan_by(name, 0, table.max_indexed_value()) {
            Ok(rows) => {
                if rows.len() != live {
                    checker.fail(format!(
                        "final: index {name} holds {} rows, the models {live}",
                        rows.len()
                    ));
                }
                for m in models {
                    let mine =
                        check_scan(checker, m, "final scan_by", true, col, 0, u64::MAX, &rows);
                    if mine != m.live() {
                        checker.fail(format!(
                            "final: index {name} holds {mine} rows of thread {}, its model {}",
                            m.thread,
                            m.live()
                        ));
                    }
                }
            }
            Err(e) => checker.fail(format!("final: scan_by({name}) failed: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn a_short_run_on_a_small_table_is_correct() {
        let (table, models) = build(3, 2048);
        let plan = SlicePlan {
            warmup: 0,
            measured: 2,
            slice: Duration::from_millis(40),
            trace: false,
        };
        let out = run_closed(&table, models, 3, &plan);
        let mut checker = Checker::default();
        for (_, _, c) in &out {
            checker.merge(c);
        }
        let models: Vec<&RowModel> = out.iter().map(|o| &o.1).collect();
        verify(&table, &models, &mut checker);
        assert!(checker.attempted > 100);
        assert_eq!((checker.failed, checker.first), (0, None));
    }

    #[test]
    fn scan_check_flags_a_missing_and_a_stale_row() {
        let mut model = RowModel::new(0);
        model.insert(2, [10, 5, stamp(0, 0)]);
        model.insert(4, [20, 6, stamp(0, 0)]);
        let row =
            |id: u64, a: u64, b: u64, owner: u64| (RowId(id), Row::new(&[a, b, stamp(owner, 0)]));
        let mut c = Checker::default();
        let full = [row(2, 10, 5, 0), row(3, 15, 1, 1), row(4, 20, 6, 0)];
        assert_eq!(
            check_scan(&mut c, &model, "scan_by", true, 0, 0, 100, &full),
            2
        );
        assert_eq!(c.failed, 0);
        check_scan(&mut c, &model, "scan_by", true, 0, 0, 100, &full[1..]);
        assert!(c
            .first
            .take()
            .is_some_and(|m| m.contains("skips a model row")));
        check_scan(&mut c, &model, "scan_by", true, 0, 0, 100, &full[..2]);
        assert!(c.first.take().is_some_and(|m| m.contains("misses row 4")));
        check_scan(
            &mut c,
            &model,
            "scan_by",
            true,
            0,
            0,
            100,
            &[row(2, 10, 9, 0)],
        );
        assert!(c
            .first
            .take()
            .is_some_and(|m| m.contains("its owner's model")));
        check_scan(
            &mut c,
            &model,
            "scan_by",
            true,
            0,
            0,
            100,
            &[row(3, 15, 1, 1), row(5, 12, 1, 1)],
        );
        assert!(c.first.take().is_some_and(|m| m.contains("out of order")));
        // A snapshot may lag the model, but not the index order.
        let failed = c.failed;
        check_scan(
            &mut c,
            &model,
            "scan_by_snapshot",
            false,
            0,
            0,
            100,
            &[row(2, 10, 9, 0)],
        );
        assert_eq!(c.failed, failed);
        check_scan(
            &mut c,
            &model,
            "scan_by_snapshot",
            false,
            0,
            0,
            100,
            &[full[2].clone(), full[0].clone()],
        );
        assert_eq!(c.failed, failed + 1);
    }

    #[test]
    fn row_model_keeps_live_set_and_index_in_step() {
        let mut m = RowModel::new(1);
        for id in [1, 3, 5] {
            m.insert(id, [id * 10, 0, stamp(1, 0)]);
        }
        assert_eq!(m.remove(3), Some([30, 0, stamp(1, 0)]));
        assert_eq!(m.remove(3), None);
        assert_eq!(m.set_a(5, 7), Some([7, 0, stamp(1, 0)]));
        assert_eq!(
            m.by_a.iter().copied().collect::<Vec<_>>(),
            [(7, 5), (10, 1)]
        );
        assert_eq!(m.live(), 2);
        let picked: BTreeSet<u64> = (0..64u64).filter_map(|d| m.pick(d << 58)).collect();
        assert_eq!(picked.into_iter().collect::<Vec<_>>(), [1, 5]);
    }
}
