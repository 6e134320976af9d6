//! Property test for the multi-op chain rebuild at the Leap-List level:
//! [`LeapListLt::apply_batch_grouped`] with an arbitrary op group —
//! duplicate keys, interleaved puts and removes, keys spanning many nodes
//! — must be equivalent to applying the same ops sequentially, and must
//! preserve the structure's node-capacity invariant.

use leaplist::{BatchOp, LeapListLt, Params};
use proptest::prelude::*;

fn small() -> Params {
    Params {
        node_size: 4,
        max_level: 6,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grouped_apply_equals_sequential_ops(
        prefill in prop::collection::vec(0u64..96, 0..24),
        ops in prop::collection::vec((0u64..96, 0u64..1_000, any::<bool>()), 1..32),
    ) {
        let grouped: LeapListLt<u64> = LeapListLt::new(small());
        let sequential: LeapListLt<u64> = LeapListLt::new(small());
        for &k in &prefill {
            grouped.update(k, k + 10_000);
            sequential.update(k, k + 10_000);
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
        let got = LeapListLt::apply_batch_grouped(&[&grouped], &[&batch])
            .pop()
            .expect("one list");
        let want: Vec<Option<u64>> = batch
            .iter()
            .map(|op| match op {
                BatchOp::Update(k, v) => sequential.update(*k, *v),
                BatchOp::Remove(k) => sequential.remove(*k),
            })
            .collect();
        prop_assert_eq!(&got, &want, "previous values diverged");
        prop_assert_eq!(
            grouped.range_query(0, 2_000),
            sequential.range_query(0, 2_000),
            "final contents diverged"
        );
        for size in grouped.node_sizes() {
            prop_assert!(size <= 4, "chain rebuild exceeded K");
        }
    }
}
