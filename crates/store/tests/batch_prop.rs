//! Property test: [`LeapStore::apply`] with arbitrary batches — duplicate
//! keys, heavy same-shard collisions, mixed puts and deletes — is
//! observationally equivalent to applying the same ops one at a time, in
//! order, on a twin store: same per-op previous values, same final
//! contents. This pins down the multi-op chain-rebuild path against the
//! trivially correct sequential semantics.

use leap_store::{BatchOp, LeapStore, Partitioning, StoreConfig};
use leaplist::Params;
use proptest::prelude::*;

/// Tiny nodes and a tiny keyspace: 4 shards over 48 keys means nearly
/// every batch collides within a shard, and node_size 4 forces the chain
/// rebuild to split and merge constantly.
fn store(mode: Partitioning) -> LeapStore<u64> {
    LeapStore::new(
        StoreConfig::new(4, mode)
            .with_key_space(48)
            .with_params(Params {
                node_size: 4,
                max_level: 6,
                ..Params::default()
            }),
    )
}

fn modes() -> [Partitioning; 2] {
    [Partitioning::Hash, Partitioning::Range]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_apply_equals_sequential_application(
        prefill in prop::collection::vec(0u64..48, 0..16),
        ops in prop::collection::vec((0u64..48, 0u64..1_000, any::<bool>()), 1..24),
    ) {
        for mode in modes() {
            let batched = store(mode);
            let sequential = store(mode);
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
            prop_assert_eq!(&got, &want, "{:?}: previous values diverged", mode);
            prop_assert_eq!(
                batched.range(0, 1_000),
                sequential.range(0, 1_000),
                "{:?}: final contents diverged",
                mode
            );
            prop_assert_eq!(batched.len(), sequential.len());
            // Structural invariant: no shard's chain rebuild may overflow K.
            for s in 0..batched.shards() {
                for size in batched.shard(s).node_sizes() {
                    prop_assert!(size <= 4, "{:?}: shard {} node exceeds K", mode, s);
                }
            }
        }
    }
}
