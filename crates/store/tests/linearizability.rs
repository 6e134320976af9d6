//! Concurrency and linearizability tests for LeapStore: concurrent
//! cross-shard batch writers versus cross-shard range, count and page
//! readers must never expose a torn batch — whether the batch maps one key per shard or
//! piles several keys onto one shard (the multi-op chain-rebuild path,
//! which commits in a single transaction; the seed's seqlock rounds are
//! gone).

use leap_store::{BatchOp, Batcher, LeapStore, Partitioning, StoreConfig};
use leaplist::Params;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn small_params() -> Params {
    Params {
        node_size: 4,
        max_level: 6,
    }
}

fn cfg(shards: usize, key_space: u64) -> StoreConfig {
    StoreConfig::new(shards, Partitioning::Range)
        .with_key_space(key_space)
        .with_params(small_params())
}

/// Fast path: each batch writes one key per shard (guaranteed by range
/// partitioning), all tagged with the same version. Any range snapshot
/// must see one version across the whole group — a mix means the batch
/// tore.
#[test]
fn cross_shard_batches_are_never_torn_fast_path() {
    let shards = 4;
    let store = Arc::new(LeapStore::<u64>::new(cfg(shards, 1_000)));
    // One key per shard (stride 250).
    let keys: Vec<u64> = (0..shards as u64).map(|s| s * 250 + 7).collect();
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let (store, keys, stop) = (store.clone(), keys.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut version = 1u64;
            while !stop.load(Ordering::Relaxed) {
                let entries: Vec<(u64, u64)> = keys.iter().map(|&k| (k, version)).collect();
                store.multi_put(&entries);
                version += 1;
            }
            version
        })
    };

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let (store, keys, stop) = (store.clone(), keys.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut snapshots = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = store.range(0, 999);
                    let versions: Vec<u64> = keys
                        .iter()
                        .filter_map(|k| snap.iter().find(|(sk, _)| sk == k).map(|(_, v)| *v))
                        .collect();
                    // Before the first batch commits the snapshot may be
                    // partial; afterwards all keys exist. Either way all
                    // *present* versions must be identical.
                    assert!(
                        versions.windows(2).all(|w| w[0] == w[1]),
                        "torn batch observed: versions {versions:?}"
                    );
                    snapshots += 1;
                }
                snapshots
            })
        })
        .collect();

    std::thread::sleep(std::time::Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    let rounds = writer.join().unwrap();
    let mut total_snaps = 0;
    for r in readers {
        total_snaps += r.join().unwrap();
    }
    assert!(rounds > 1, "writer made progress");
    assert!(total_snaps > 0, "readers made progress");
    // Quiescent check: final state holds exactly one version everywhere.
    let snap = store.range(0, 999);
    assert_eq!(snap.len(), keys.len());
    assert!(snap.windows(2).all(|w| w[0].1 == w[1].1));
    let parts: Vec<u64> = store.stats().shards.iter().map(|s| s.batch_parts).collect();
    assert!(
        parts.iter().all(|&n| n > 0),
        "every batch spans all {shards} shards: {parts:?}"
    );
}

/// Counts and cursor pages read through the same one-transaction snapshot
/// as `range`: a writer alternates a `multi_put` of one key per shard,
/// tagged with a version, and an `apply` removing them all. A count must
/// see all of a batch or none of it, and the present keys of any one page
/// (two keys, so a page spans shards) must share a version.
#[test]
fn counts_and_pages_never_see_a_torn_batch() {
    let shards = 4;
    let store = Arc::new(LeapStore::<u64>::new(cfg(shards, 1_000)));
    // One key per shard (stride 250).
    let keys: Vec<u64> = (0..shards as u64).map(|s| s * 250 + 7).collect();
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let (store, keys, stop) = (store.clone(), keys.clone(), stop.clone());
        std::thread::spawn(move || {
            let removes: Vec<BatchOp<u64>> = keys.iter().map(|&k| BatchOp::Remove(k)).collect();
            let mut version = 1u64;
            while !stop.load(Ordering::Relaxed) {
                let entries: Vec<(u64, u64)> = keys.iter().map(|&k| (k, version)).collect();
                store.multi_put(&entries);
                store.apply(&removes);
                version += 1;
            }
            version
        })
    };

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let (store, stop) = (store.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let n = store.count_range(0, 999);
                    assert!(n == 0 || n == shards, "torn batch counted: {n} keys");
                    for page in store.scan_pages(0, 999, 2) {
                        assert!(
                            page.windows(2).all(|w| w[0].1 == w[1].1),
                            "torn batch paged: {page:?}"
                        );
                    }
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    std::thread::sleep(std::time::Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    let rounds = writer.join().unwrap();
    let mut total_reads = 0;
    for r in readers {
        total_reads += r.join().unwrap();
    }
    assert!(rounds > 1, "writer made progress");
    assert!(total_reads > 0, "readers made progress");
    // Quiescent check: the writer's last action removed every key.
    assert_eq!(store.count_range(0, 999), 0);
    assert_eq!(store.scan_pages(0, 999, 2).count(), 0);
}

/// Collision path: every batch deliberately maps several keys to ONE
/// shard (a multi-op chain rebuild on that shard) plus one key on another
/// shard. The whole batch commits in a single transaction, so readers
/// must never see a partially applied same-shard chain: any snapshot
/// shows one version across every present key. This replaces the seed's
/// seqlock torn-batch test — the invariant survives the seqlock's removal
/// because atomicity now comes from the transaction itself.
#[test]
fn same_shard_collisions_are_never_torn() {
    let store = Arc::new(LeapStore::<u64>::new(cfg(4, 1_000)));
    // Keys 1, 2, 3 all in shard 0; key 700 in shard 2.
    let keys = [1u64, 2, 3, 700];
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let (store, stop) = (store.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut version = 1u64;
            while !stop.load(Ordering::Relaxed) {
                let entries: Vec<(u64, u64)> = keys.iter().map(|&k| (k, version)).collect();
                store.multi_put(&entries);
                version += 1;
            }
            version
        })
    };

    let reader = {
        let (store, stop) = (store.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut seen_any = false;
            while !stop.load(Ordering::Relaxed) {
                let snap = store.range(0, 999);
                let versions: Vec<u64> = snap.iter().map(|(_, v)| *v).collect();
                assert!(
                    versions.windows(2).all(|w| w[0] == w[1]),
                    "collision batch torn: {snap:?}"
                );
                // get() must agree with the snapshot order: a key read
                // right after the range is from version >= the snapshot's.
                if let (Some((_, snap_v)), Some(got)) = (snap.first(), store.get(keys[0])) {
                    assert!(got >= *snap_v, "get went backwards: {got} < {snap_v}");
                    seen_any = true;
                }
            }
            seen_any
        })
    };

    std::thread::sleep(std::time::Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    let rounds = writer.join().unwrap();
    assert!(rounds > 1);
    assert!(reader.join().unwrap(), "reader observed data");
    let stats = store.stats();
    assert!(
        stats.collision_batches > 0,
        "collisions must have been counted"
    );
    assert_eq!(store.range(0, 999).len(), keys.len());
}

/// Mixed churn: concurrent single-key puts/deletes, cross-shard batches
/// and range queries; afterwards the store must reconcile exactly with a
/// sequential replay oracle is impossible under concurrency, so instead
/// check structural invariants: sorted unique ranges, len consistency,
/// and every surviving key readable.
#[test]
fn mixed_churn_keeps_structure_coherent() {
    let store = Arc::new(LeapStore::<u64>::new(cfg(8, 10_000)));
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..3u64 {
        let (store, stop) = (store.clone(), stop.clone());
        handles.push(std::thread::spawn(move || {
            let mut x = 0x9E3779B97F4A7C15u64.wrapping_mul(t + 1) | 1;
            let mut step = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            while !stop.load(Ordering::Relaxed) {
                match step() % 5 {
                    0 => {
                        let base = step() % 9_000;
                        store.multi_put(&[(base, t), (base + 500, t), (base + 900, t)]);
                    }
                    1 => {
                        store.delete(step() % 10_000);
                    }
                    2 => {
                        let lo = step() % 9_000;
                        let snap = store.range(lo, lo + 1_000);
                        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "unsorted range");
                    }
                    _ => {
                        store.put(step() % 10_000, t);
                    }
                }
            }
        }));
    }
    std::thread::sleep(std::time::Duration::from_millis(500));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let snap = store.range(0, 10_000);
    assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(snap.len(), store.len(), "range snapshot and len disagree");
    assert_eq!(snap.len(), store.count_range(0, 10_000));
    for (k, v) in snap.iter().take(50) {
        assert_eq!(store.get(*k), Some(*v));
    }
    let busy = store
        .stats()
        .shards
        .iter()
        .filter(|s| s.total_ops() > 0)
        .count();
    assert!(busy >= 2, "the churn spans shards: {busy} served ops");
}

/// Writer-vs-collision-batch linearizability: a duplicate-key batch
/// `[Put(k,10), Put(k,11)]` resolves inside one chain rebuild; a
/// concurrent single `put(k, 99)` must never return the batch's internal
/// intermediate value `Some(10)` — only states some sequential order
/// explains (`None` before any batch, `Some(11)` after a batch, or
/// `Some(99)` after a previous put). The seed enforced this with an
/// exclusive writer-phase lock; now it follows from the batch being one
/// transaction, with no writer serialization at all.
#[test]
fn single_key_put_never_observes_batch_intermediate() {
    let store = Arc::new(LeapStore::<u64>::new(cfg(4, 1_000)));
    let k = 5u64; // shard 0
    let stop = Arc::new(AtomicBool::new(false));
    let batcher_thread = {
        let (store, stop) = (store.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut batches = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Duplicate key -> same shard -> multi-op chain rebuild.
                store.multi_put(&[(k, 10), (k, 11)]);
                batches += 1;
            }
            batches
        })
    };
    let putter = {
        let (store, stop) = (store.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut puts = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let prev = store.put(k, 99);
                assert!(
                    matches!(prev, None | Some(11) | Some(99)),
                    "put observed the batch's intermediate state: {prev:?}"
                );
                puts += 1;
            }
            puts
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    assert!(batcher_thread.join().unwrap() > 0);
    assert!(putter.join().unwrap() > 0);
    assert!(store.stats().collision_batches > 0);
}

/// A documented caller error (`u64::MAX` key) in a collision batch must
/// panic *before* any shard mutation: the store stays fully usable from
/// other threads afterwards.
#[test]
fn reserved_key_batch_panic_does_not_wedge_the_store() {
    let store = Arc::new(LeapStore::<u64>::new(cfg(4, 1_000)));
    store.put(1, 1);
    let panicked = {
        let store = store.clone();
        std::thread::spawn(move || {
            // Two reserved keys on one shard: without up-front validation
            // this would die mid-planning with peers' results unknown.
            store.multi_put(&[(u64::MAX, 1), (u64::MAX, 2)]);
        })
        .join()
    };
    assert!(panicked.is_err(), "reserved key must panic");
    // Readers and writers still work; nothing was applied.
    assert_eq!(store.get(1), Some(1));
    assert_eq!(store.put(2, 2), None);
    assert_eq!(store.range(0, 999), vec![(1, 1), (2, 2)]);
    assert_eq!(store.multi_put(&[(3, 3), (3, 4)]), vec![None, Some(3)]);
    assert_eq!(
        store.stats().collision_batches,
        1,
        "only the valid batch ran"
    );
}

/// The batcher's admission gate under concurrency: results must match
/// what the bare store would return (per-key last-write-wins), and an
/// unbounded gate admits every op.
#[test]
fn batcher_preserves_store_semantics_under_concurrency() {
    let store = Arc::new(LeapStore::<u64>::new(cfg(8, 40_000)));
    let batcher = Arc::new(Batcher::new(store.clone()));
    let threads = 4u64;
    let per = 300u64;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let b = batcher.clone();
            std::thread::spawn(move || {
                for i in 0..per {
                    let k = t * 10_000 + i;
                    assert_eq!(b.try_put(k, k), Ok(None));
                    if i % 3 == 0 {
                        assert_eq!(b.try_delete(k), Ok(Some(k)));
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let mut expected = 0u64;
    for t in 0..threads {
        for i in 0..per {
            let k = t * 10_000 + i;
            let want = if i % 3 == 0 { None } else { Some(k) };
            assert_eq!(store.get(k), want, "key {k}");
            expected += u64::from(want.is_some());
        }
    }
    assert_eq!(store.len() as u64, expected);
    let s = batcher.stats();
    assert_eq!(s.ops, threads * per + threads * per.div_ceil(3));
    assert_eq!(s.shed, 0);
}
