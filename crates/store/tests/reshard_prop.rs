//! Property test for live resharding: **any** interleaving of migration
//! steps (explicit splits and merges, policy-driven steps, partial chunk
//! drains) with random `apply` batches, puts and deletes preserves the
//! key → value map exactly, compared against a `BTreeMap` model replayed
//! sequentially. After every action the store's linearizable `range` must
//! equal the model; at the end, `get`, paged `Cursor` scans, `count_range`
//! and `len` must all agree with the model too.
//!
//! Since the overlay-set router landed, generated `Split`/`Merge` actions
//! on slot-disjoint shards **succeed while another migration is still
//! draining**, so the random schedules exercise several concurrent
//! overlays; the deterministic companion test below pins the
//! two-concurrent-migrations interleaving explicitly (both overlays
//! provably in flight, steps alternating between them, every read surface
//! checked against the model after each step).

use leap_store::{BatchOp, LeapStore, Partitioning, RebalancePolicy, StoreConfig};
use leaplist::Params;
use proptest::prelude::*;
use std::collections::BTreeMap;

const KEYS: u64 = 64;

#[derive(Clone, Debug)]
enum Action {
    /// One atomic mixed batch: (key, value, is_put) per component.
    Apply(Vec<(u64, u64, bool)>),
    Put(u64, u64),
    Delete(u64),
    /// One bounded rebalance step (chunk move, completion, or a
    /// policy-initiated split/merge).
    Step,
    /// Split a (selected) owning shard somewhere inside its interval.
    Split(usize, u64),
    /// Merge an adjacent interval pair (selected by index).
    Merge(usize),
}

fn store() -> LeapStore<u64> {
    LeapStore::new(
        StoreConfig::new(4, Partitioning::Range)
            .with_key_space(KEYS)
            .with_params(Params {
                node_size: 4,
                max_level: 6,
                ..Params::default()
            })
            // Tiny chunks: most migrations stay in flight across several
            // interleaved ops, which is the interesting schedule.
            .with_rebalancing(RebalancePolicy {
                chunk: 3,
                ..RebalancePolicy::default()
            }),
    )
}

/// Applies one action to the store; mirrors mutations into the model.
fn run(store: &LeapStore<u64>, model: &mut BTreeMap<u64, u64>, action: &Action) {
    match action {
        Action::Apply(parts) => {
            let batch: Vec<BatchOp<u64>> = parts
                .iter()
                .map(|&(k, v, put)| {
                    if put {
                        BatchOp::Update(k, v)
                    } else {
                        BatchOp::Remove(k)
                    }
                })
                .collect();
            let got = store.apply(&batch);
            let want: Vec<Option<u64>> = parts
                .iter()
                .map(|&(k, v, put)| {
                    if put {
                        model.insert(k, v)
                    } else {
                        model.remove(&k)
                    }
                })
                .collect();
            assert_eq!(got, want, "batch previous values diverged");
        }
        Action::Put(k, v) => {
            assert_eq!(store.put(*k, *v), model.insert(*k, *v), "put prev");
        }
        Action::Delete(k) => {
            assert_eq!(store.delete(*k), model.remove(k), "delete prev");
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

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => prop::collection::vec((0u64..KEYS, 0u64..1_000, any::<bool>()), 1..6)
            .prop_map(Action::Apply),
        2 => (0u64..KEYS, 0u64..1_000).prop_map(|(k, v)| Action::Put(k, v)),
        1 => (0u64..KEYS).prop_map(Action::Delete),
        4 => Just(Action::Step),
        1 => (0usize..8, 1u64..KEYS).prop_map(|(s, at)| Action::Split(s, at)),
        1 => (0usize..8).prop_map(Action::Merge),
    ]
}

/// Two disjoint migrations provably in flight at once, their chunk drains
/// interleaved round-robin with writes that straddle both overlays — the
/// store must match the sequentially-replayed `BTreeMap` model after
/// every single action.
#[test]
fn two_concurrent_migrations_interleave_against_model() {
    let store = store();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for k in 0..KEYS {
        store.put(k, k * 7);
        model.insert(k, k * 7);
    }
    let check = |model: &BTreeMap<u64, u64>, what: &str| {
        let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(store.range(0, KEYS), want, "{what}");
    };
    // KEYS = 64 over 4 shards: intervals of 16. Split shards 0 and 2 —
    // slot-disjoint, so both overlays install concurrently.
    let d0 = store.split_shard(0, 8).expect("split shard 0 at 8");
    let d2 = store.split_shard(2, 40).expect("split shard 2 at 40");
    assert_eq!(store.router().migrations().len(), 2, "both in flight");
    assert_eq!(store.stats().concurrent_migrations(), 2);
    let ranges: Vec<(u64, u64)> = store
        .router()
        .migrations()
        .iter()
        .map(|m| (m.lo, m.hi))
        .collect();
    assert_eq!(ranges, vec![(8, 15), (40, 47)], "disjoint migrating ranges");
    // Interleave: one bounded drain step (round-robin over the two
    // overlays), then writes inside overlay 0, inside overlay 1,
    // straddling both in ONE atomic batch, and outside both.
    let mut steps = 0u64;
    while !store.router().migrations().is_empty() {
        store.rebalance_step();
        steps += 1;
        let i = steps;
        assert_eq!(store.put(9, i), model.insert(9, i), "overlay-0 put");
        assert_eq!(store.delete(41), model.remove(&41), "overlay-1 delete");
        let batch = [
            BatchOp::Update(10, i),
            BatchOp::Update(44, i),
            BatchOp::Remove(11),
            BatchOp::Update(30, i),
        ];
        let got = store.apply(&batch);
        let want = vec![
            model.insert(10, i),
            model.insert(44, i),
            model.remove(&11),
            model.insert(30, i),
        ];
        assert_eq!(got, want, "cross-overlay atomic batch, step {steps}");
        check(&model, "after interleaved step");
        assert!(steps < 1_000, "drains must converge");
    }
    // Both completed: ownership flipped to both destinations, and the
    // peak concurrency is recorded for the stats surface.
    assert!(steps > 2, "drains were actually chunked");
    let st = store.stats();
    assert!(st.migrations_completed >= 2);
    assert!(st.peak_concurrent_migrations >= 2);
    assert_eq!(store.router().shard_of(12), d0);
    assert_eq!(store.router().shard_of(44), d2);
    check(&model, "after both completions");
    assert_eq!(store.len(), model.len());
    for (&k, &v) in &model {
        assert_eq!(store.get(k), Some(v), "key {k}");
    }
    let paged: Vec<(u64, u64)> = store.scan_pages(0, KEYS, 5).flatten().collect();
    assert_eq!(
        paged,
        model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn resharding_interleaved_with_batches_preserves_the_map(
        prefill in prop::collection::vec((0u64..KEYS, 0u64..1_000), 0..32),
        actions in prop::collection::vec(action_strategy(), 1..40),
    ) {
        let store = store();
        let mut model = BTreeMap::new();
        for &(k, v) in &prefill {
            store.put(k, v);
            model.insert(k, v);
        }
        for action in &actions {
            run(&store, &mut model, action);
            // The linearizable range must equal the model after every
            // action — including mid-migration, where some keys live in
            // the destination and some still in the source.
            let snapshot = store.range(0, KEYS);
            let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(&snapshot, &want, "after {:?}", action);
        }
        // Quiesce any in-flight migration, then check every read surface.
        store.rebalance_until_idle();
        prop_assert!(store.router().migration().is_none());
        let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(store.range(0, KEYS), want.clone());
        prop_assert_eq!(store.len(), model.len());
        prop_assert_eq!(store.count_range(0, KEYS), model.len());
        for (&k, &v) in &model {
            prop_assert_eq!(store.get(k), Some(v), "key {}", k);
        }
        let paged: Vec<(u64, u64)> = store.scan_pages(0, KEYS, 5).flatten().collect();
        prop_assert_eq!(paged, want);
        // Structural invariants survive arbitrary resharding.
        let st = store.stats();
        prop_assert_eq!(
            st.shards.iter().map(|s| s.keys as usize).sum::<usize>(),
            model.len(),
            "shard key counts must add up"
        );
        for s in 0..store.shards() {
            for size in store.shard(s).node_sizes() {
                prop_assert!(size <= 4, "shard {} node exceeds K", s);
            }
        }
    }
}
