//! Integration tests for the store's observability surface: the
//! migration/shed event timeline (ordering and the drop-oldest overflow
//! contract) and STM abort-cause attribution as exposed through
//! [`LeapStore::stats`].

use leap_obs::EventKind;
use leap_stm::{TVar, Txn};
use leap_store::{
    Batcher, FaultPlan, FaultPoint, LeapStore, Partitioning, RebalancePolicy, Rebalancer,
    StoreConfig, StoreError,
};
use leaplist::Params;
use std::sync::Arc;
use std::time::Duration;

fn cfg(shards: usize) -> StoreConfig {
    StoreConfig::new(shards, Partitioning::Range)
        .with_key_space(1_000)
        .with_params(Params {
            node_size: 4,
            max_level: 6,
        })
        .with_rebalancing(RebalancePolicy {
            chunk: 16,
            ..RebalancePolicy::default()
        })
}

/// Every migration's timeline reads begin -> at least one chunk ->
/// complete, in publication order, keyed by the migration id — and at the
/// default ring capacity a reshard this size drops nothing.
#[test]
fn migration_timeline_orders_begin_chunks_complete() {
    // Policy auto-actions off: only the two explicit splits may appear on
    // the timeline, keeping the expected event set exact.
    let store: LeapStore<u64> = LeapStore::new(cfg(2).with_rebalancing(RebalancePolicy {
        chunk: 16,
        min_split_keys: 1_000_000,
        merge_ratio: 0.0,
        ..RebalancePolicy::default()
    }));
    // 200 keys per shard: shard 0 owns [0, 499], shard 1 owns [500, 999].
    for k in 0..200u64 {
        store.put(k, k);
        store.put(500 + k, k);
    }
    // Two migrations, one after the other: a split of shard 0, then one
    // of shard 1.
    store.split_shard(0, 100).expect("split shard 0");
    store.rebalance_until_idle();
    store.split_shard(1, 600).expect("split shard 1");
    store.rebalance_until_idle();
    let obs = store.obs().expect("obs on by default");
    let snap = obs.events().snapshot();
    assert_eq!(snap.dropped, 0, "default capacity loses nothing here");
    // Strictly increasing seq = publication order.
    for w in snap.events.windows(2) {
        assert!(w[0].seq < w[1].seq, "snapshot must be seq-ordered");
    }
    // Collect each migration's lifecycle positions.
    let mut ids: Vec<u64> = Vec::new();
    for e in &snap.events {
        if let EventKind::MigrationBegin { id, .. } = e.kind {
            ids.push(id);
        }
    }
    assert_eq!(ids.len(), 2, "two migrations began");
    for id in ids {
        let begin = snap
            .events
            .iter()
            .position(|e| matches!(e.kind, EventKind::MigrationBegin { id: i, .. } if i == id))
            .expect("begin event");
        let chunks: Vec<usize> = snap
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.kind, EventKind::MigrationChunk { id: i, .. } if i == id))
            .map(|(p, _)| p)
            .collect();
        let complete = snap
            .events
            .iter()
            .position(|e| matches!(e.kind, EventKind::MigrationComplete { id: i, .. } if i == id))
            .expect("complete event");
        assert!(
            !chunks.is_empty(),
            "migration {id} moved at least one chunk"
        );
        assert!(
            begin < chunks[0] && *chunks.last().unwrap() < complete,
            "begin ({begin}) -> chunks ({chunks:?}) -> complete ({complete}) for migration {id}"
        );
        // Chunk sizes on the timeline sum to the keys the migration moved.
        let moved: u64 = snap
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::MigrationChunk { id: i, moved } if i == id => Some(moved),
                _ => None,
            })
            .sum();
        assert_eq!(
            moved, 100,
            "each split moved the upper half of its 200-key shard"
        );
    }
    // Each completion carries the routing epoch it installed: one step
    // per migration, ending at the router's current epoch.
    let epochs: Vec<u64> = snap
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::MigrationComplete { epoch, .. } => Some(epoch),
            _ => None,
        })
        .collect();
    assert_eq!(epochs, vec![1, 2]);
    assert_eq!(store.router().epoch(), 2);
    // The same timeline arrives through the stats JSON.
    let json = store.stats().to_json();
    assert!(json.contains("\"kind\":\"migration_begin\""), "{json}");
    assert!(json.contains("\"kind\":\"migration_complete\""), "{json}");
    assert!(json.contains("\"dropped\":0"), "{json}");
}

/// The store's fixed 1 024-slot ring under a background [`Rebalancer`]
/// plus more than 1 024 admission sheds overflows: old events are dropped
/// oldest-first, the `dropped` counter is monotone and exact, and the ring
/// never exceeds its capacity.
#[test]
fn tiny_ring_drops_oldest_with_monotone_counter() {
    const CAP: usize = leap_obs::DEFAULT_RING_CAPACITY;
    let plan = FaultPlan::new(1).always(FaultPoint::Admission);
    let store: Arc<LeapStore<u64>> = Arc::new(LeapStore::new(cfg(2).with_faults(plan)));
    let obs = store.obs().expect("obs on by default").clone();
    assert_eq!(obs.events().capacity(), CAP);
    let rebalancer = Rebalancer::spawn(store.clone(), Duration::from_micros(100));
    let batcher = Batcher::new(store.clone());
    // Hammer: every refused batcher put is one shed event, while direct
    // puts shift the key mass the background rebalancer splits/merges.
    let mut last_dropped = 0u64;
    for round in 0..6u64 {
        for k in 0..200u64 {
            let key = (round * 200 + k) % 900;
            store.put(key, k);
            assert_eq!(
                batcher.try_put(key, k),
                Err(StoreError::Overloaded { queued: 0 })
            );
        }
        let snap = obs.events().snapshot();
        assert!(snap.events.len() <= CAP, "ring never exceeds capacity");
        assert!(
            snap.dropped >= last_dropped,
            "dropped counter is monotone: {} -> {}",
            last_dropped,
            snap.dropped
        );
        last_dropped = snap.dropped;
    }
    rebalancer.stop().expect("rebalancer survived the run");
    let snap = obs.events().snapshot();
    assert!(
        snap.dropped > 0,
        "6 x 200 sheds through a 1 024-slot ring must overflow"
    );
    assert_eq!(store.stats().shed_ops, 6 * 200, "one shed per refused put");
    assert!(obs.events().published() >= 6 * 200);
    assert_eq!(snap.capacity, CAP);
    // At quiescence the ring is full and dropped is exact: published =
    // dropped + survivors, and the survivors are the newest, in order.
    assert_eq!(snap.events.len(), CAP);
    assert_eq!(obs.events().published(), snap.dropped + CAP as u64);
    for (i, e) in snap.events.iter().enumerate() {
        assert_eq!(e.seq, snap.dropped + i as u64);
    }
}

/// Abort-cause attribution through the store surface: deterministic raw
/// transactions on the store's shared domain produce one conflict of each
/// cause, the sum invariant holds, and the JSON carries the breakdown.
#[test]
fn stats_attribute_abort_causes() {
    let store: LeapStore<u64> = LeapStore::new(cfg(2));
    let d = store.domain();
    let v = TVar::new(0u64);
    // Commit-time conflict (the store's domains are write-back): t1 reads
    // v, a peer commits a newer version, t1's own commit fails validation.
    let mut t1 = Txn::begin(d);
    let _ = t1.read(&v).expect("fresh read");
    let mut t2 = Txn::begin(d);
    let x = t2.read(&v).expect("read");
    t2.write(&v, x + 1).expect("write");
    t2.commit().expect("t2 commits");
    let failed = t1.write(&v, 99).and_then(|_| t1.commit());
    assert!(failed.is_err(), "stale snapshot must not commit");
    // Read-time conflict: t3 already holds `w` in its read set when a
    // peer commits new versions of both `w` and `v` — t3's read of `v`
    // finds a newer orec, its snapshot extension revalidates `w`, fails,
    // and the transaction aborts at the read.
    let w = TVar::new(0u64);
    let mut t3 = Txn::begin(d);
    let _ = t3.read(&w).expect("fresh read");
    let mut t4 = Txn::begin(d);
    let a = t4.read(&w).expect("read");
    t4.write(&w, a + 1).expect("write");
    let b = t4.read(&v).expect("read");
    t4.write(&v, b + 1).expect("write");
    t4.commit().expect("t4 commits");
    assert!(t3.read(&v).is_err(), "stale snapshot detected at the read");
    drop(t3);
    let stats = store.stats();
    assert!(
        stats.stm.conflict_commit_aborts >= 1,
        "commit-time cause attributed: {:?}",
        stats.stm
    );
    assert!(
        stats.stm.conflict_read_aborts >= 1,
        "read-time cause attributed: {:?}",
        stats.stm
    );
    assert_eq!(
        stats.stm.conflict_aborts,
        stats.stm.conflict_read_aborts + stats.stm.conflict_commit_aborts,
        "causes partition the conflict total"
    );
    let json = stats.to_json();
    assert!(json.contains("\"conflict_read_aborts\":"), "{json}");
    assert!(json.contains("\"conflict_commit_aborts\":"), "{json}");
}

/// The cause partition survives a genuinely colliding threaded workload,
/// and the retry histogram records every committed transaction.
#[test]
fn colliding_workload_keeps_cause_partition_and_feeds_retry_histogram() {
    let store: Arc<LeapStore<u64>> = Arc::new(LeapStore::new(
        StoreConfig::new(4, Partitioning::Range)
            .with_key_space(16)
            .with_params(Params {
                node_size: 4,
                max_level: 6,
            }),
    ));
    let threads = 8;
    let per = 200u64;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let store = store.clone();
            std::thread::spawn(move || {
                for i in 0..per {
                    // All threads fight over the same 8 keys.
                    let k = (t + i) % 8;
                    store.multi_put(&[(k, i), (k + 8, i)]);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = store.stats();
    assert_eq!(
        stats.stm.conflict_aborts,
        stats.stm.conflict_read_aborts + stats.stm.conflict_commit_aborts,
        "cause partition holds under contention: {:?}",
        stats.stm
    );
    let obs = stats.obs.as_ref().expect("obs on by default");
    assert!(
        obs.txn_retries.count >= threads * per,
        "every committed batch recorded its attempt count"
    );
    assert!(obs.txn_retries.max >= 1);
    let busy = stats.shards.iter().filter(|s| s.batch_parts > 0).count();
    assert_eq!(busy, 4, "each batch's two keys sit on different shards");
}
