//! Property test: [`LeapStore::apply`] with arbitrary batches — duplicate
//! keys, heavy same-shard collisions, mixed puts and deletes — is
//! observationally equivalent to applying the same ops one at a time, in
//! order, on a twin store: same per-op previous values, same final
//! contents. This pins down the multi-op chain-rebuild path against the
//! trivially correct sequential semantics.
//!
//! Beside it, a threaded regression test for the [`Batcher`]'s in-flight
//! counter at its admission gate.

use leap_store::{BatchOp, Batcher, LeapStore, Partitioning, StoreConfig};
use leaplist::Params;
use proptest::prelude::*;
use std::sync::{Arc, Barrier};

/// Tiny nodes and a tiny keyspace: 4 shards over 48 keys means nearly
/// every batch collides within a shard, and node_size 4 forces the chain
/// rebuild to split and merge constantly.
fn store() -> LeapStore<u64> {
    LeapStore::new(
        StoreConfig::new(4, Partitioning::Range)
            .with_key_space(48)
            .with_params(Params {
                node_size: 4,
                max_level: 6,
            }),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_apply_equals_sequential_application(
        prefill in prop::collection::vec(0u64..48, 0..16),
        ops in prop::collection::vec((0u64..48, 0u64..1_000, any::<bool>()), 1..24),
    ) {
        let batched = store();
        let sequential = store();
        for &k in &prefill {
            batched.put(k, k + 10_000);
            sequential.put(k, k + 10_000);
        }
        let batch: Vec<BatchOp<u64>> = ops
            .iter()
            .map(|&(k, v, put)| {
                if put {
                    BatchOp::Update(k, v)
                } else {
                    BatchOp::Remove(k)
                }
            })
            .collect();
        // One transaction on the left, one op at a time on the right.
        let got = batched.apply(&batch);
        let want: Vec<Option<u64>> = batch
            .iter()
            .map(|op| match op {
                BatchOp::Update(k, v) => sequential.put(*k, *v),
                BatchOp::Remove(k) => sequential.delete(*k),
            })
            .collect();
        prop_assert_eq!(&got, &want, "previous values diverged");
        prop_assert_eq!(
            batched.range(0, 1_000),
            sequential.range(0, 1_000),
            "final contents diverged"
        );
        prop_assert_eq!(batched.len(), sequential.len());
        // Structural invariant: no shard's chain rebuild may overflow K.
        for s in 0..batched.shards() {
            for size in batched.shard(s).node_sizes() {
                prop_assert!(size <= 4, "shard {} node exceeds K", s);
            }
        }
    }
}

/// Each of 4 threads has at most one op in flight at a time, so a 64-deep
/// admission bound can never legitimately be reached: every refusal is a
/// counting bug. (A count decremented for an op that never incremented it
/// wraps to `usize::MAX` and refuses the next bystander.) Such a race
/// window is a few instructions wide and opens often enough only in
/// release mode, which is why CI runs this file in its release step as
/// well.
#[test]
fn admission_depth_never_wraps_under_concurrent_submitters() {
    const THREADS: u64 = 4;
    const OPS: u64 = 5_000;
    let store = Arc::new(store());
    let batcher = Arc::new(Batcher::new(store.clone()).with_admission(64));
    let start = Arc::new(Barrier::new(THREADS as usize));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (batcher, start) = (batcher.clone(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                for i in 0..OPS {
                    let key = (t * OPS + i) % 48;
                    let res = if i % 3 == 2 {
                        batcher.try_delete(key)
                    } else {
                        batcher.try_put(key, i)
                    };
                    if let Err(e) = res {
                        panic!("thread {t} op {i} refused with one op per thread in flight: {e}");
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("submitter panicked");
    }
    assert_eq!(batcher.stats().shed, 0);
    assert_eq!(batcher.stats().ops, THREADS * OPS);
    assert_eq!(store.stats().shed_ops, 0);
}
