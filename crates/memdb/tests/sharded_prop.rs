//! Property test for a table over its sharded store: **any** interleaving
//! of table mutations (insert / delete / update_column on indexed and
//! non-indexed columns) with resharding actions on the backing store
//! (explicit splits and merges of subspace shards, bounded
//! `rebalance_step` drains) preserves the table exactly, compared against
//! a `BTreeMap` row model replayed sequentially. After every action the
//! covering index scan and the primary scan must equal the model —
//! including mid-migration; at the end every read surface (counts, paged
//! scans, per-shard key sums) must agree too. Mirrors
//! `crates/store/tests/reshard_prop.rs` one layer up.

use leap_memdb::{RowId, Schema, Table, TableConfig};
use leap_store::RebalancePolicy;
use leaplist::Params;
use proptest::prelude::*;
use std::collections::BTreeMap;

const AGE_DOM: u64 = 32;

#[derive(Clone, Debug)]
enum Action {
    Insert(u64, u64),
    DeleteNth(usize),
    UpdateAge(usize, u64),
    UpdateUser(usize, u64),
    /// One bounded rebalance step on the backing store.
    Step,
    /// Split a (selected) owning shard somewhere inside its interval.
    Split(usize, u64),
    /// Merge an adjacent interval pair (selected by index).
    Merge(usize),
}

fn table() -> Table {
    Table::with_config(
        Schema::new(&["user", "age"]).with_index("age"),
        TableConfig {
            params: Params {
                node_size: 4,
                max_level: 6,
            },
            shards: None,
            // Tiny chunks: most migrations stay in flight across several
            // interleaved table mutations — the interesting schedule.
            rebalance: RebalancePolicy {
                chunk: 3,
                ..RebalancePolicy::default()
            },
        },
    )
}

/// The model: row id -> (user, age), plus insertion-ordered live ids.
struct Model {
    rows: BTreeMap<u64, (u64, u64)>,
    ids: Vec<RowId>,
}

fn run(table: &Table, model: &mut Model, action: &Action) {
    let store = table.store().expect("every table has a store");
    match *action {
        Action::Insert(user, age) => {
            let age = age % AGE_DOM;
            let id = table.insert(&[user, age]).expect("valid row");
            model.rows.insert(id.0, (user, age));
            model.ids.push(id);
        }
        Action::DeleteNth(n) => {
            if model.ids.is_empty() {
                return;
            }
            let id = model.ids.remove(n % model.ids.len());
            let row = table.delete(id).expect("live id");
            assert_eq!(
                (row.get(0).unwrap(), row.get(1).unwrap()),
                model.rows.remove(&id.0).expect("model has the row"),
                "deleted row diverged"
            );
        }
        Action::UpdateAge(n, v) => {
            if model.ids.is_empty() {
                return;
            }
            let id = model.ids[n % model.ids.len()];
            let v = v % AGE_DOM;
            let row = table.update_column(id, "age", v).expect("live id");
            model.rows.get_mut(&id.0).expect("model has the row").1 = v;
            assert_eq!(row.get(1), Some(v));
        }
        Action::UpdateUser(n, v) => {
            if model.ids.is_empty() {
                return;
            }
            let id = model.ids[n % model.ids.len()];
            table.update_column(id, "user", v).expect("live id");
            model.rows.get_mut(&id.0).expect("model has the row").0 = v;
        }
        Action::Step => {
            store.rebalance_step();
        }
        Action::Split(sel, at_raw) => {
            // Target a currently-owning shard and a key inside its
            // interval, so most generated splits actually begin.
            let intervals = store.router().routing().intervals();
            let (s, lo, hi) = intervals[sel % intervals.len()];
            if lo < hi {
                let at = lo + 1 + at_raw % (hi - lo);
                let _ = store.split_shard(s, at);
            }
        }
        Action::Merge(sel) => {
            let intervals = store.router().routing().intervals();
            if intervals.len() >= 2 {
                let i = sel % (intervals.len() - 1);
                let _ = store.merge_shards(intervals[i].0, intervals[i + 1].0);
            }
        }
    }
}

/// `(id, user, age)` triples of one read surface.
type View = Vec<(u64, u64, u64)>;

/// The covering-index scan and the primary scan, as `(id, user, age)`
/// triples in the table's documented orders.
fn observe(table: &Table) -> (View, View) {
    let by_age = table
        .scan_by("age", 0, AGE_DOM)
        .expect("age is indexed")
        .into_iter()
        .map(|(id, r)| (id.0, r.get(0).unwrap(), r.get(1).unwrap()))
        .collect();
    let by_id = table
        .scan_all()
        .into_iter()
        .map(|(id, r)| (id.0, r.get(0).unwrap(), r.get(1).unwrap()))
        .collect();
    (by_age, by_id)
}

fn model_views(model: &Model) -> (View, View) {
    let by_id: View = model
        .rows
        .iter()
        .map(|(&id, &(user, age))| (id, user, age))
        .collect();
    let mut by_age = by_id.clone();
    by_age.sort_by_key(|&(id, _, age)| (age, id));
    (by_age, by_id)
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => (0u64..1_000_000, 0u64..AGE_DOM).prop_map(|(u, a)| Action::Insert(u, a)),
        1 => any::<usize>().prop_map(Action::DeleteNth),
        2 => (any::<usize>(), 0u64..AGE_DOM).prop_map(|(n, v)| Action::UpdateAge(n, v)),
        1 => (any::<usize>(), any::<u64>()).prop_map(|(n, v)| Action::UpdateUser(n, v)),
        4 => Just(Action::Step),
        1 => (0usize..8, 1u64..(1 << 30)).prop_map(|(s, at)| Action::Split(s, at)),
        1 => (0usize..8).prop_map(Action::Merge),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sharded_table_matches_model_through_resharding(
        prefill in prop::collection::vec((0u64..1_000_000, 0u64..AGE_DOM), 0..16),
        actions in prop::collection::vec(action_strategy(), 1..36),
    ) {
        let table = table();
        let mut model = Model { rows: BTreeMap::new(), ids: Vec::new() };
        for &(user, age) in &prefill {
            run(&table, &mut model, &Action::Insert(user, age));
        }
        for action in &actions {
            run(&table, &mut model, action);
            // Both read surfaces must equal the model after EVERY action,
            // including mid-migration (keys split between src and dst).
            let (got_age, got_id) = observe(&table);
            let (want_age, want_id) = model_views(&model);
            prop_assert_eq!(&got_age, &want_age, "age index after {:?}", action);
            prop_assert_eq!(&got_id, &want_id, "primary after {:?}", action);
        }
        // Quiesce any in-flight migration, then check every read surface.
        let store = table.store().expect("every table has a store");
        store.rebalance_until_idle();
        prop_assert!(store.router().migration().is_none());
        let (got_age, got_id) = observe(&table);
        let (want_age, want_id) = model_views(&model);
        prop_assert_eq!(got_age, want_age);
        prop_assert_eq!(got_id, want_id);
        prop_assert_eq!(table.len(), model.rows.len());
        prop_assert_eq!(
            table.count_by("age", 0, AGE_DOM).unwrap(),
            model.rows.len()
        );
        for (&id, &(user, age)) in &model.rows {
            let row = table.get(RowId(id)).expect("live row");
            prop_assert_eq!(row.columns(), &[user, age], "row {}", id);
        }
        // Paged index scans tile to the same result at rest.
        let paged: Vec<(u64, u64, u64)> = table
            .scan_by_pages("age", 0, AGE_DOM, 3)
            .unwrap()
            .flatten()
            .map(|(id, r)| (id.0, r.get(0).unwrap(), r.get(1).unwrap()))
            .collect();
        let (want_age, _) = model_views(&model);
        prop_assert_eq!(paged, want_age);
        // Structural invariants survive arbitrary resharding: the store
        // holds exactly one primary and one index entry per row.
        let st = store.stats();
        prop_assert_eq!(
            st.shards.iter().map(|s| s.keys as usize).sum::<usize>(),
            2 * model.rows.len(),
            "shard key counts must add up to 2 entries per row"
        );
        let ss = table.subspace_stats();
        prop_assert_eq!(ss[0].keys, model.rows.len());
        prop_assert_eq!(ss[1].keys, model.rows.len());
    }
}
