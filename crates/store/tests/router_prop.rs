//! Property tests for the shard router:
//!
//! 1. every key maps to exactly one shard (total + deterministic + in
//!    bounds);
//! 2. `shards_for_range(lo, hi)` visits **exactly** the shards that can
//!    hold a key in `[lo, hi]` — no shard that owns a key in the range is
//!    missed, and no returned shard is disjoint from it.

use leap_store::Router;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Totality and determinism: any key, any geometry, one shard.
    #[test]
    fn every_key_maps_to_exactly_one_shard(
        shards in 1usize..32,
        key_space in 1u64..1_000_000,
        key in any::<u64>(),
    ) {
        let r = Router::new(shards, key_space);
        let s = r.shard_of(key);
        prop_assert!(s < shards, "shard {} out of {}", s, shards);
        prop_assert_eq!(s, r.shard_of(key), "routing must be deterministic");
    }

    /// Soundness: for any key within the queried range, the key's shard is
    /// in the visited set (otherwise a range query would miss data).
    #[test]
    fn range_visits_cover_every_member_key(
        shards in 1usize..32,
        key_space in 1u64..1_000_000,
        lo in 0u64..1_000_000,
        width in 0u64..100_000,
        offsets in prop::collection::vec(any::<u64>(), 1..20),
    ) {
        let hi = lo + width;
        let r = Router::new(shards, key_space);
        let visited = r.shards_for_range(lo, hi);
        for off in &offsets {
            let key = lo + off % (width + 1); // uniform in [lo, hi]
            prop_assert!(
                visited.contains(&r.shard_of(key)),
                "key {} in [{}, {}] maps to shard {} not visited ({:?})",
                key, lo, hi, r.shard_of(key), visited
            );
        }
    }

    /// Tightness: every visited shard's owned interval
    /// actually overlaps `[lo, hi]`, and unvisited shards are disjoint
    /// from it — the visited set is exactly the overlapping shards.
    #[test]
    fn range_mode_visits_exactly_overlapping_shards(
        shards in 1usize..32,
        key_space in 32u64..1_000_000,
        lo in 0u64..1_000_000,
        width in 0u64..100_000,
    ) {
        let hi = lo + width;
        let r = Router::new(shards, key_space);
        let visited = r.shards_for_range(lo, hi);
        for s in 0..shards {
            let (slo, shi) = r.shard_interval(s).expect("every slot owns an interval");
            let overlaps = slo <= hi && lo <= shi;
            prop_assert_eq!(
                visited.contains(&s),
                overlaps,
                "shard {} [{}, {}] vs range [{}, {}]",
                s, slo, shi, lo, hi
            );
        }
        // Ascending and duplicate-free, so a store can walk it in order.
        prop_assert!(visited.windows(2).all(|w| w[0] < w[1]));
    }

    /// Inverted ranges visit nothing.
    #[test]
    fn inverted_ranges_visit_nothing(
        shards in 1usize..32,
        lo in 1u64..1_000_000,
        gap in 1u64..1_000,
    ) {
        let r = Router::new(shards, 1_000_000);
        prop_assert_eq!(r.shards_for_range(lo, lo - gap.min(lo)), Vec::<usize>::new());
    }

    /// Contiguity: shard ids are monotone in the key, so a
    /// shard's key set is one interval — the property the tight range
    /// visiting relies on.
    #[test]
    fn range_mode_is_monotone_in_the_key(
        shards in 1usize..32,
        key_space in 32u64..1_000_000,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let r = Router::new(shards, key_space);
        let (x, y) = (a.min(b), a.max(b));
        prop_assert!(r.shard_of(x) <= r.shard_of(y), "key {} -> {}, key {} -> {}",
            x, r.shard_of(x), y, r.shard_of(y));
    }
}
