//! Model-based property tests: all four Leap-List variants must agree with
//! `BTreeMap` over arbitrary operation sequences, across node sizes that
//! force frequent splits and merges.

mod support;

use leaplist::{LeapListCop, LeapListLt, LeapListRwlock, LeapListTm, Params, RangeMap};
use proptest::prelude::*;
use std::collections::BTreeMap;
use support::Variant;

#[derive(Debug, Clone)]
enum Op {
    Update(u64, u64),
    Remove(u64),
    Lookup(u64),
    Range(u64, u64),
}

/// A mixed update / remove / lookup / range stream over keys `0..keys`,
/// ranges up to `keys / 2` wide.
fn ops_over(keys: u64) -> impl Strategy<Value = Op> {
    let key = 0..keys;
    prop_oneof![
        3 => (key.clone(), any::<u64>()).prop_map(|(k, v)| Op::Update(k, v)),
        2 => key.clone().prop_map(Op::Remove),
        1 => key.clone().prop_map(Op::Lookup),
        1 => (key.clone(), 0..keys / 2).prop_map(|(a, w)| Op::Range(a, a + w)),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    ops_over(96)
}

const WIDE_KEYS: u64 = 1024;

/// The same mix over a key space several paper-sized nodes wide, with
/// ranges long enough to cross node boundaries at `K = 300`.
fn wide_op_strategy() -> impl Strategy<Value = Op> {
    ops_over(WIDE_KEYS)
}

fn run_against_model(map: &dyn RangeMap<u64>, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in ops {
        match *op {
            Op::Update(k, v) => {
                prop_assert_eq!(map.update(k, v), model.insert(k, v), "update {}", k);
            }
            Op::Remove(k) => {
                prop_assert_eq!(map.remove(k), model.remove(&k), "remove {}", k);
            }
            Op::Lookup(k) => {
                prop_assert_eq!(map.lookup(k), model.get(&k).copied(), "lookup {}", k);
            }
            Op::Range(lo, hi) => {
                let got = map.range_query(lo, hi);
                let want: Vec<(u64, u64)> = model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                prop_assert_eq!(got, want, "range [{}, {}]", lo, hi);
            }
        }
    }
    prop_assert_eq!(map.len(), model.len());
    Ok(())
}

fn params(node_size: usize) -> Params {
    Params {
        node_size,
        max_level: 6,
        ..Params::default()
    }
}

/// Node sizes for the full-node runs: the smallest legal K, a small one,
/// and the paper's 300.
fn full_node_k() -> impl Strategy<Value = usize> {
    prop_oneof![Just(2usize), Just(4), Just(300)]
}

/// A scattered preload of up to 700 of 1024 keys fills nodes to exactly K
/// (also at the paper's 300), so the mixed ops that follow overwrite in
/// full nodes, split them, and remove-and-merge the halves again — all
/// answered by the in-node binary search.
fn full_nodes<L: Variant<u64>>(k: usize, preload: u64, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut all: Vec<Op> = (0..preload)
        .map(|i| Op::Update(i * 7919 % WIDE_KEYS, i))
        .collect();
    all.extend(ops);
    run_against_model(&L::group(1, params(k)).remove(0), &all)
}

/// Three lists written atomically per batch, by `update_batch` or (one
/// batch in three) `remove_batch`; each list j must end up exactly like a
/// model map receiving the j-th component.
fn batched_ops<L: Variant<u64>>(batches: &[(Vec<(u64, u64)>, u8)]) -> Result<(), TestCaseError> {
    let lists = L::group(3, params(4));
    let refs: Vec<&L> = lists.iter().collect();
    let mut models: Vec<BTreeMap<u64, u64>> = vec![BTreeMap::new(); 3];
    for (batch, kind) in batches {
        let keys: Vec<u64> = batch.iter().map(|(k, _)| *k).collect();
        if *kind == 0 {
            let old = L::remove_batch(&refs, &keys);
            for j in 0..3 {
                prop_assert_eq!(old[j], models[j].remove(&keys[j]));
            }
        } else {
            let vals: Vec<u64> = batch.iter().map(|(_, v)| *v).collect();
            let old = L::update_batch(&refs, &keys, &vals);
            for j in 0..3 {
                prop_assert_eq!(old[j], models[j].insert(keys[j], vals[j]));
            }
        }
    }
    for j in 0..3 {
        let got = lists[j].range_query(0, 1000);
        let want: Vec<(u64, u64)> = models[j].iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
    }
    Ok(())
}

fn batches() -> impl Strategy<Value = Vec<(Vec<(u64, u64)>, u8)>> {
    let batch = prop::collection::vec((0..64u64, any::<u64>()), 3..=3);
    prop::collection::vec((batch, 0..3u8), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lt_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..120),
                           k in 2usize..8) {
        run_against_model(&LeapListLt::<u64>::new(params(k)), &ops)?;
    }

    #[test]
    fn cop_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..120),
                            k in 2usize..8) {
        run_against_model(&LeapListCop::<u64>::new(params(k)), &ops)?;
    }

    #[test]
    fn tm_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..120),
                           k in 2usize..8) {
        run_against_model(&LeapListTm::<u64>::new(params(k)), &ops)?;
    }

    #[test]
    fn rwlock_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..120),
                               k in 2usize..8) {
        run_against_model(&LeapListRwlock::<u64>::new(params(k)), &ops)?;
    }

    #[test]
    fn lt_matches_btreemap_with_full_nodes(k in full_node_k(), preload in 0..700u64,
                                           ops in prop::collection::vec(wide_op_strategy(), 1..300)) {
        full_nodes::<LeapListLt<u64>>(k, preload, ops)?;
    }

    #[test]
    fn cop_matches_btreemap_with_full_nodes(k in full_node_k(), preload in 0..700u64,
                                            ops in prop::collection::vec(wide_op_strategy(), 1..300)) {
        full_nodes::<LeapListCop<u64>>(k, preload, ops)?;
    }

    #[test]
    fn tm_matches_btreemap_with_full_nodes(k in full_node_k(), preload in 0..700u64,
                                           ops in prop::collection::vec(wide_op_strategy(), 1..300)) {
        full_nodes::<LeapListTm<u64>>(k, preload, ops)?;
    }

    #[test]
    fn rwlock_matches_btreemap_with_full_nodes(k in full_node_k(), preload in 0..700u64,
                                               ops in prop::collection::vec(wide_op_strategy(), 1..300)) {
        full_nodes::<LeapListRwlock<u64>>(k, preload, ops)?;
    }

    #[test]
    fn lt_paper_node_size_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..200)) {
        // K = 300 >> key space: everything lives in one or two nodes.
        run_against_model(&LeapListLt::<u64>::new(Params::default()), &ops)?;
    }

    #[test]
    fn lt_batched_ops_match_model(batches in batches()) {
        batched_ops::<LeapListLt<u64>>(&batches)?;
    }

    #[test]
    fn cop_batched_ops_match_model(batches in batches()) {
        batched_ops::<LeapListCop<u64>>(&batches)?;
    }

    #[test]
    fn tm_batched_ops_match_model(batches in batches()) {
        batched_ops::<LeapListTm<u64>>(&batches)?;
    }

    #[test]
    fn rwlock_batched_ops_match_model(batches in batches()) {
        batched_ops::<LeapListRwlock<u64>>(&batches)?;
    }
}
