//! History-checked concurrency tests for the table: every
//! worker thread records each operation's invocation/response through a
//! `leap_history::Session`, and after the run an offline checker verifies
//! the complete history is **strictly serializable** against the
//! sequential table model — the dbcop methodology, instead of ad-hoc
//! invariant probes.
//!
//! Rows are packed into one `u64` for the checker's model: the indexed
//! `age` column in bits `[0, 28)`, the non-indexed `user` column in bits
//! `[28, 56)` — exactly the fixed-width tuples `leap_history` models.
//! `update_column` maps to [`leap_history::Op::Rmw`], `scan_by` to
//! [`leap_history::Op::FieldRange`] (ordered by `(age, row id)`, as the
//! table orders covering-index scans).

use leap_history::{check, Field, Op, Recorder, Ret, Session};
use leap_memdb::{DbError, Row, RowId, Schema, Table};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const AGE: Field = Field {
    shift: 0,
    width: 28,
};
const USER: Field = Field {
    shift: 28,
    width: 28,
};
/// Ages live in a narrow domain so scans and updates collide.
const AGE_DOM: u64 = 50;

fn schema() -> Schema {
    Schema::new(&["user", "age"]).with_index("age")
}

fn pack(row: &Row) -> u64 {
    USER.set(
        AGE.set(0, row.get(1).expect("age")),
        row.get(0).expect("user"),
    )
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Shared pool of row ids the threads contend on.
type IdPool = Arc<Mutex<Vec<RowId>>>;

fn record_insert(s: &mut Session, table: &Table, user: u64, age: u64) -> RowId {
    let inv = s.invoke();
    let id = table.insert(&[user, age]).expect("valid row");
    s.resolve(
        inv,
        Op::Put(id.0, USER.set(AGE.set(0, age), user)),
        Ret::Value(None),
    );
    id
}

fn record_delete(s: &mut Session, table: &Table, id: RowId) {
    s.delete(id.0, || match table.delete(id) {
        Ok(row) => Some(pack(&row)),
        Err(DbError::NoSuchRow(_)) => None,
        Err(e) => panic!("unexpected delete error: {e}"),
    });
}

fn record_get(s: &mut Session, table: &Table, id: RowId) {
    s.get(id.0, || table.get(id).map(|r| pack(&r)));
}

fn record_update(s: &mut Session, table: &Table, id: RowId, column: &str, field: Field, to: u64) {
    s.rmw(id.0, field, to, || {
        match table.update_column(id, column, to) {
            Ok(row) => Some(pack(&row)),
            Err(DbError::NoSuchRow(_)) => None,
            Err(e) => panic!("unexpected update error: {e}"),
        }
    });
}

fn record_scan(s: &mut Session, table: &Table, lo: u64, hi: u64) {
    s.field_range(AGE, lo, hi, || {
        table
            .scan_by("age", lo, hi)
            .expect("age is indexed")
            .into_iter()
            .map(|(id, row)| (id.0, pack(&row)))
            .collect()
    });
}

/// One worker: `ops` operations mixing inserts, deletes, point reads,
/// indexed and non-indexed column updates, and index scans over the
/// shared id pool.
fn worker(seed: u64, ops: usize, table: Arc<Table>, pool: IdPool, mut session: Session) {
    let mut rng = seed | 1;
    for i in 0..ops {
        let r = xorshift(&mut rng);
        let pick = |rng: &mut u64| -> Option<RowId> {
            let pool = pool.lock().unwrap();
            if pool.is_empty() {
                None
            } else {
                Some(pool[(xorshift(rng) as usize) % pool.len()])
            }
        };
        match r % 10 {
            0 | 1 => {
                // Unique-ish user value helps the checker prune orders.
                let id = record_insert(
                    &mut session,
                    &table,
                    (seed % 1000) * 1000 + i as u64,
                    xorshift(&mut rng) % AGE_DOM,
                );
                pool.lock().unwrap().push(id);
            }
            2 => {
                if let Some(id) = pick(&mut rng) {
                    let mut pool = pool.lock().unwrap();
                    pool.retain(|&p| p != id);
                    drop(pool);
                    record_delete(&mut session, &table, id);
                }
            }
            3 | 4 => {
                if let Some(id) = pick(&mut rng) {
                    record_update(
                        &mut session,
                        &table,
                        id,
                        "age",
                        AGE,
                        xorshift(&mut rng) % AGE_DOM,
                    );
                }
            }
            5 => {
                if let Some(id) = pick(&mut rng) {
                    record_update(
                        &mut session,
                        &table,
                        id,
                        "user",
                        USER,
                        xorshift(&mut rng) % (1 << 20),
                    );
                }
            }
            6 | 7 => {
                if let Some(id) = pick(&mut rng) {
                    record_get(&mut session, &table, id);
                }
            }
            _ => {
                let lo = xorshift(&mut rng) % AGE_DOM;
                let hi = (lo + 1 + xorshift(&mut rng) % 10).min(AGE_DOM);
                record_scan(&mut session, &table, lo, hi);
            }
        }
    }
}

/// Builds the table, prefills `rows` rows (captured as the checker's
/// initial state), runs `threads` recorded workers, and checks the
/// history.
fn run_workload(
    table: Arc<Table>,
    threads: u64,
    ops: usize,
    rows: u64,
    during: impl FnOnce(&Table),
) {
    let pool: IdPool = Arc::new(Mutex::new(Vec::new()));
    let mut initial = BTreeMap::new();
    for i in 0..rows {
        let (user, age) = (i, i % AGE_DOM);
        let id = table.insert(&[user, age]).expect("prefill");
        initial.insert(id.0, USER.set(AGE.set(0, age), user));
        pool.lock().unwrap().push(id);
    }
    let rec = Recorder::new();
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let (table, pool, session) = (table.clone(), pool.clone(), rec.session());
            std::thread::spawn(move || {
                worker(
                    0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t + 1),
                    ops,
                    table,
                    pool,
                    session,
                )
            })
        })
        .collect();
    during(&table);
    for w in workers {
        w.join().expect("worker panicked");
    }
    let history = rec.history();
    assert!(
        history.len() >= threads as usize * ops / 2,
        "history too small"
    );
    let report = check(&history, &initial)
        .unwrap_or_else(|v| panic!("table history is not serializable:\n{v}"));
    assert_eq!(report.events, history.len());
    // Quiescent cross-check: the table agrees with itself.
    assert_eq!(table.scan_all().len(), table.len());
    assert_eq!(
        table.count_by("age", 0, AGE_DOM).expect("indexed"),
        table.len()
    );
}

/// Workload 1: mixed table traffic, no resharding.
#[test]
fn history_sharded_table_mixed_ops() {
    let table = Arc::new(Table::new(schema()));
    run_workload(table, 3, 120, 40, |_| {});
}

/// Workload 2: the same traffic while the test drives an explicit
/// split of the age-index subspace's shard, chunk by chunk, then merges
/// it back — the overlay straddles live index maintenance.
#[test]
fn history_sharded_table_under_manual_reshard() {
    use leap_memdb::TableConfig;
    use leap_store::RebalancePolicy;
    use leaplist::Params;
    let table = Arc::new(Table::with_config(
        schema(),
        TableConfig {
            params: Params {
                node_size: 8,
                max_level: 6,
            },
            shards: None,
            rebalance: RebalancePolicy {
                chunk: 8,
                ..RebalancePolicy::default()
            },
        },
    ));
    run_workload(table.clone(), 3, 100, 60, |t| {
        let store = t.store().expect("every table has a store");
        // Split the age-index shard (subspace 1) somewhere inside the
        // populated low end, drain it, then merge it back — all racing
        // the recorded workers.
        let intervals = store.router().routing().intervals();
        // The age subspace starts at tag 1's base; composite keys are
        // `(age << 28) | row id`, so splitting at age 25 puts live keys
        // on both sides of the migration.
        let (src, lo, _hi) = intervals[1];
        let at = lo + ((AGE_DOM / 2) << 28);
        if store.split_shard(src, at).is_ok() {
            store.rebalance_until_idle();
        }
        let intervals = store.router().routing().intervals();
        if intervals.len() >= 2 {
            let _ = store.merge_shards(intervals[1].0, intervals[2].0);
            store.rebalance_until_idle();
        }
        assert!(store.stats().migrations_completed >= 1);
    });
}

/// Workload 3: a thread stepping the rebalancer with an aggressive policy
/// races the recorded traffic end to end.
#[test]
fn history_sharded_table_with_background_rebalancer() {
    use leap_memdb::TableConfig;
    use leap_store::{RebalanceAction, RebalancePolicy};
    use leaplist::Params;
    use std::sync::atomic::{AtomicBool, Ordering};
    let table = Arc::new(Table::with_config(
        schema(),
        TableConfig {
            params: Params {
                node_size: 8,
                max_level: 6,
            },
            shards: None,
            rebalance: RebalancePolicy {
                chunk: 16,
                split_ratio: 1.2,
                min_split_keys: 32,
                ..RebalancePolicy::default()
            },
        },
    ));
    let store = table.store().expect("every table has a store").clone();
    let stop = Arc::new(AtomicBool::new(false));
    let stepper = {
        let (s, st) = (store.clone(), stop.clone());
        // Stops only at an idle step, so no migration is left in flight.
        std::thread::spawn(move || loop {
            if s.rebalance_step() == RebalanceAction::Idle {
                if st.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    run_workload(table.clone(), 3, 120, 80, |_| {});
    stop.store(true, Ordering::Relaxed);
    stepper.join().unwrap();
    assert!(
        store.router().migration().is_none(),
        "rebalancer stopped cleanly"
    );
}
