//! Property test for live resharding: **any** interleaving of migration
//! steps (explicit splits and merges, policy-driven steps, partial chunk
//! drains) with random `apply` batches, puts and deletes preserves the
//! key → value map exactly, compared against a `BTreeMap` model replayed
//! sequentially. After every action the store's linearizable `range` must
//! equal the model; at the end, `get`, paged `Cursor` scans, `count_range`
//! and `len` must all agree with the model too.
//!
//! A generated `Split` or `Merge` begun while another migration drains is
//! refused (`MigrationInFlight`) and leaves the map untouched; the
//! deterministic companion test below pins the drain/write interleaving
//! explicitly, checking every read surface against the model after each
//! step.

use leap_store::{
    BatchOp, LeapStore, Partitioning, RebalanceAction, RebalanceError, RebalancePolicy, StoreConfig,
};
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

/// The policy census must only run at quiescence. Four hot shards
/// alternate with four near-empty ones; splitting each hot shard once
/// leaves every half below `split_ratio × mean`, so the pass must make
/// exactly four splits, four completions and no merge. A census taken
/// while a split drains would miss the keys already moved into its
/// destination (which owns no interval until completion): the mean
/// falls, finished halves cross the threshold, and they split again.
#[test]
fn policy_census_waits_for_the_drain_and_splits_each_hot_shard_once() {
    let store: LeapStore<u64> = LeapStore::new(
        StoreConfig::new(8, Partitioning::Range)
            .with_key_space(8_000)
            .with_params(Params {
                node_size: 8,
                max_level: 8,
            })
            .with_rebalancing(RebalancePolicy {
                chunk: 16,
                split_ratio: 1.5,
                merge_ratio: 0.5,
                op_weight: 0.0,
                ..RebalancePolicy::default()
            }),
    );
    // Shard s owns [1000 s, 1000 s + 999]: 400 keys in each even shard,
    // 2 in each odd one.
    for s in 0..8u64 {
        let n = if s % 2 == 0 { 400 } else { 2 };
        for j in 0..n {
            store.put(s * 1_000 + 2 * j, j);
        }
    }
    let (mut split, mut completions, mut merges) = (Vec::new(), 0, 0);
    for step in 0.. {
        assert!(step < 10_000, "rebalance never went idle");
        match store.rebalance_step() {
            RebalanceAction::Idle => break,
            RebalanceAction::SplitStarted { shard, .. } => split.push(shard),
            RebalanceAction::MergeStarted { .. } => merges += 1,
            RebalanceAction::Completed { .. } => completions += 1,
            RebalanceAction::Moved { .. } => {}
            other => panic!("unexpected action {other:?}"),
        }
    }
    split.sort_unstable();
    assert_eq!((split, completions, merges), (vec![0, 2, 4, 6], 4, 0));
    assert_eq!(store.len(), 4 * 400 + 4 * 2);
}

/// Two migrations, one after the other, each chunk drain interleaved
/// with a put inside the overlay, a delete outside it and one atomic
/// batch straddling the overlay and two stable shards — the store must
/// match the sequentially-replayed `BTreeMap` model after every single
/// action. A second split begun while the first drains is refused and
/// changes nothing.
#[test]
fn migrations_interleave_with_straddling_writes_against_model() {
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
    // Drains the in-flight migration one bounded step at a time. `inside`
    // is a key of its range; `outside` and the batch's other keys lie in
    // shards it does not touch. Returns the steps taken.
    let drain = |model: &mut BTreeMap<u64, u64>, inside: u64, outside: u64| {
        let mut steps = 0u64;
        while store.router().migration().is_some() {
            store.rebalance_step();
            steps += 1;
            let i = steps;
            assert_eq!(store.put(inside, i), model.insert(inside, i), "overlay put");
            assert_eq!(store.delete(outside), model.remove(&outside), "delete");
            let batch = [
                BatchOp::Update(inside + 1, i),
                BatchOp::Update(outside + 3, i),
                BatchOp::Remove(inside + 2),
                BatchOp::Update(30, i),
            ];
            let got = store.apply(&batch);
            let want = vec![
                model.insert(inside + 1, i),
                model.insert(outside + 3, i),
                model.remove(&(inside + 2)),
                model.insert(30, i),
            ];
            assert_eq!(got, want, "straddling atomic batch, step {steps}");
            check(model, "after interleaved step");
            assert!(steps < 1_000, "drains must converge");
        }
        steps
    };
    // KEYS = 64 over 4 shards: intervals of 16.
    let d0 = store.split_shard(0, 8).expect("split shard 0 at 8");
    let mig = store.router().migration().expect("in flight");
    assert_eq!((mig.lo, mig.hi), (8, 15));
    assert_eq!(
        store.split_shard(2, 40),
        Err(RebalanceError::MigrationInFlight),
        "one migration at a time"
    );
    assert_eq!(
        store.stats().migration,
        Some(mig),
        "the refusal changed nothing"
    );
    assert!(
        drain(&mut model, 9, 41) > 2,
        "the drain was actually chunked"
    );
    let d2 = store.split_shard(2, 40).expect("split shard 2 at 40");
    assert!(
        drain(&mut model, 41, 9) > 2,
        "the drain was actually chunked"
    );
    let st = store.stats();
    assert_eq!(st.migrations_completed, 2);
    assert_eq!(st.peak_concurrent_migrations, 1);
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
