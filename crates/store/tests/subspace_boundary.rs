//! Regression tests pinning [`Cursor`] behavior at a [`Subspace`] prefix
//! boundary while a migration overlay straddles it.
//!
//! The scenario that motivates them: `leap-memdb`'s sharded backend scans
//! an index subspace through paged cursors while a rebalance migrates the
//! subspace's keys into a destination shard that **also holds the
//! neighbouring subspace's keys**. A page must then never leak keys from
//! the neighbour (the per-shard visit ranges must stay clipped to the
//! query), and a cursor whose final page ends exactly on the subspace's
//! last key must *not* resume into the next subspace.

use leap_store::{
    LeapStore, Partitioning, RebalanceAction, RebalanceError, RebalancePolicy, StoreConfig,
    Subspace,
};
use leaplist::Params;

/// Two subspaces over two shards (one each), tiny migration chunks.
fn store() -> LeapStore<u64> {
    LeapStore::new(
        StoreConfig::new(2, Partitioning::Range)
            .with_key_space(Subspace::key_space(2))
            .with_params(Params {
                node_size: 4,
                max_level: 6,
            })
            .with_rebalancing(RebalancePolicy {
                chunk: 2,
                ..RebalancePolicy::default()
            }),
    )
}

/// Keys hugging both sides of the subspace boundary: the top of subspace
/// 0 (including its very last key) and the bottom of subspace 1.
fn prefill(store: &LeapStore<u64>, a: Subspace, b: Subspace) -> (Vec<u64>, Vec<u64>) {
    let top: Vec<u64> = (0..10u64)
        .map(|i| a.key(leap_store::MAX_PAYLOAD - 9 + i))
        .collect();
    let bottom: Vec<u64> = (0..10u64).map(|i| b.key(i)).collect();
    for &k in top.iter().chain(&bottom) {
        store.put(k, k);
    }
    (top, bottom)
}

/// Collects a paged scan over one subspace and asserts every returned key
/// belongs to it.
fn paged_subspace(store: &LeapStore<u64>, ss: Subspace, page: usize) -> Vec<u64> {
    let mut keys = Vec::new();
    for p in store.scan_pages(ss.lo(), ss.hi(), page) {
        assert!(p.len() <= page);
        for &(k, _) in &p {
            assert!(
                ss.contains(k),
                "page over subspace {} leaked key {k:#x}",
                ss.tag()
            );
        }
        keys.extend(p.iter().map(|&(k, _)| k));
    }
    keys
}

/// Mid-migration, with the overlay's destination holding BOTH the
/// migrated subspace-0 keys and all of subspace 1, pages over either
/// subspace must stay inside it and tile exactly.
#[test]
fn cursor_pages_stay_inside_subspace_across_straddling_overlay() {
    let store = store();
    let (a, b) = (Subspace::new(0), Subspace::new(1));
    let (top, bottom) = prefill(&store, a, b);

    // Merge shard 0 (all of subspace 0) into shard 1 (all of subspace 1):
    // the migrating range's end abuts the prefix boundary, and migrated
    // keys interleave into the neighbour's list. Drain only one chunk so
    // the overlay stays in flight.
    store.merge_shards(0, 1).expect("adjacent merge begins");
    assert!(matches!(
        store.rebalance_step(),
        RebalanceAction::Moved { .. }
    ));
    let mig = store.router().migration().expect("overlay in flight");
    assert!(mig.moved > 0 && (mig.moved as usize) < top.len());

    for page in [1usize, 3, 10, 64] {
        assert_eq!(paged_subspace(&store, a, page), top, "subspace 0, {page}");
        assert_eq!(
            paged_subspace(&store, b, page),
            bottom,
            "subspace 1, {page}"
        );
    }
    // One-shot ranges agree (both sides of the overlay in one snapshot).
    assert_eq!(store.range(a.lo(), a.hi()).len(), top.len());
    assert_eq!(store.range(b.lo(), b.hi()).len(), bottom.len());

    // Drain to completion: same story at rest, one list holding all keys.
    store.rebalance_until_idle();
    assert!(store.router().migration().is_none());
    for page in [1usize, 3, 64] {
        assert_eq!(paged_subspace(&store, a, page), top);
        assert_eq!(paged_subspace(&store, b, page), bottom);
    }
    let ss = store.subspace_stats(&[a, b]);
    assert_eq!((ss[0].keys, ss[1].keys), (10, 10));
    assert_eq!(
        ss[0].shards, ss[1].shards,
        "after the merge one shard serves both subspaces"
    );
}

/// Two subspaces over **four** shards (two shards each).
fn store4() -> LeapStore<u64> {
    LeapStore::new(
        StoreConfig::new(4, Partitioning::Range)
            .with_key_space(Subspace::key_space(2))
            .with_params(Params {
                node_size: 4,
                max_level: 6,
            })
            .with_rebalancing(RebalancePolicy {
                chunk: 2,
                ..RebalancePolicy::default()
            }),
    )
}

/// Two overlays in turn — first one straddling the subspace prefix
/// boundary (shard 1's top-of-subspace-0 keys merging into the shard that
/// holds subspace 1's bottom), then one splitting subspace 0's low shard
/// — while paged cursors scan each subspace and a third cursor straddles
/// everything. No page may leak a neighbour's key, and every scan must
/// tile exactly, with each overlay mid-flight and after both complete.
#[test]
fn successive_overlays_vs_subspace_cursors() {
    let store = store4();
    let (a, b) = (Subspace::new(0), Subspace::new(1));
    // Keys hugging the boundary from both sides, plus subspace 0's low
    // end (shard 0), so both migrations have distinct keys to move.
    let a_bottom: Vec<u64> = (0..10u64).map(|i| a.key(i)).collect();
    let a_top: Vec<u64> = (0..10u64)
        .map(|i| a.key(leap_store::MAX_PAYLOAD - 9 + i))
        .collect();
    let b_bottom: Vec<u64> = (0..10u64).map(|i| b.key(i)).collect();
    for &k in a_bottom.iter().chain(&a_top).chain(&b_bottom) {
        store.put(k, k);
    }
    let a_all: Vec<u64> = a_bottom.iter().chain(&a_top).copied().collect();
    let scans_tile = |what: &str| {
        for page in [1usize, 3, 10, 64] {
            assert_eq!(paged_subspace(&store, a, page), a_all, "{what}: a, {page}");
            assert_eq!(
                paged_subspace(&store, b, page),
                b_bottom,
                "{what}: b, {page}"
            );
        }
        // A cursor straddling the overlay and the boundary tiles exactly.
        let straddle: Vec<u64> = store
            .scan_pages(a.lo(), b.hi(), 7)
            .flatten()
            .map(|(k, _)| k)
            .collect();
        let mut want = a_all.clone();
        want.extend(&b_bottom);
        assert_eq!(straddle, want, "{what}: straddling scan sees each key once");
        assert_eq!(store.range(a.lo(), a.hi()).len(), a_all.len());
        assert_eq!(store.range(b.lo(), b.hi()).len(), b_bottom.len());
    };
    // One bounded chunk, leaving the overlay in flight with keys on both
    // sides.
    let one_chunk = || {
        assert!(matches!(
            store.rebalance_step(),
            RebalanceAction::Moved { .. }
        ));
        let m = store.router().migration().expect("overlay in flight");
        assert!(m.moved > 0, "a chunk of [{}, {}] moved", m.lo, m.hi);
    };

    // Overlay 1: migrated keys interleave across the prefix boundary.
    store.merge_shards(1, 2).expect("boundary merge begins");
    one_chunk();
    assert_eq!(
        store.split_shard(0, a.key(5)),
        Err(RebalanceError::MigrationInFlight),
        "one overlay at a time"
    );
    scans_tile("boundary merge");
    store.rebalance_until_idle();
    // Overlay 2: a split inside subspace 0's low end.
    store.split_shard(0, a.key(5)).expect("split begins");
    one_chunk();
    scans_tile("low split");
    store.rebalance_until_idle();
    assert!(store.router().migration().is_none());
    scans_tile("at rest");
    let ss = store.subspace_stats(&[a, b]);
    assert_eq!((ss[0].keys, ss[1].keys), (20, 10));
}

/// The resume-key clamp at the boundary: a cursor whose page comes back
/// full with its last key exactly on the subspace's final key must report
/// exhaustion, not resume into the neighbouring subspace.
#[test]
fn full_page_ending_on_subspace_last_key_does_not_resume_into_neighbour() {
    let store = store();
    let (a, b) = (Subspace::new(0), Subspace::new(1));
    let (top, _bottom) = prefill(&store, a, b);
    assert_eq!(*top.last().unwrap(), a.hi(), "prefill reaches the last key");

    // Overlay straddling the boundary again.
    store.merge_shards(0, 1).expect("merge begins");
    store.rebalance_step();

    // Page size exactly the population: ONE full page ending on a.hi().
    let mut cursor = store.scan_pages(a.lo(), a.hi(), top.len());
    let page = cursor.next_page().expect("full page");
    assert_eq!(page.len(), top.len());
    assert_eq!(page.last().unwrap().0, a.hi());
    assert_eq!(
        cursor.resume_key(),
        None,
        "a full page ending on the range's last key must exhaust the cursor"
    );
    assert_eq!(
        cursor.next_page(),
        None,
        "resuming past the subspace would leak into the neighbour"
    );

    // Same clamp via the iterator surface, at a page size that divides
    // the population (every page full, the final one ending on a.hi()).
    let pages: Vec<Vec<(u64, u64)>> = store.scan_pages(a.lo(), a.hi(), 5).collect();
    assert_eq!(pages.len(), 2);
    assert!(pages.iter().all(|p| p.len() == 5));
    assert!(pages.iter().flatten().all(|&(k, _)| a.contains(k)));
}
