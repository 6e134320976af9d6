//! Value ownership across shards: the Leap-List copies node contents
//! bitwise and drops each value once, with the last node that carried it.
//! A split or merge migration re-puts every moved value into another
//! shard's list and removes it from the source, so this checks that the
//! rule holds across a move: at quiescence exactly the store's keys are
//! alive, no value is dropped twice, and nothing outlives the store. A
//! batch abandoned by a retry budget drops the values it owned once, on
//! the unwind.

use leap_store::{
    BatchOp, FaultPlan, FaultPoint, LeapStore, Partitioning, RebalanceAction, RebalancePolicy,
    RetryPolicy, StoreConfig, StoreError,
};
use leaplist::Params;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const KEYS: u64 = 256;

/// Clone and drop accounting; `live` holds the id of every instance alive
/// right now, so a drop whose id is already gone is a double drop.
struct Tally {
    next_id: AtomicU64,
    double_drops: AtomicU64,
    live: Mutex<BTreeSet<u64>>,
}

static TALLY: Tally = Tally {
    next_id: AtomicU64::new(0),
    double_drops: AtomicU64::new(0),
    live: Mutex::new(BTreeSet::new()),
};

#[derive(Debug)]
struct Counted {
    id: u64,
    payload: u64,
}

impl Counted {
    fn new(payload: u64) -> Self {
        let id = TALLY.next_id.fetch_add(1, Ordering::SeqCst);
        TALLY.live.lock().unwrap().insert(id);
        Counted { id, payload }
    }
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        Counted::new(self.payload)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        if !TALLY.live.lock().unwrap().remove(&self.id) {
            TALLY.double_drops.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// The tests share one tally, so they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn live() -> usize {
    TALLY.live.lock().unwrap().len()
}

/// Drives EBR reclamation until exactly `want` values are alive.
fn quiesce_to(want: usize) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while live() != want && Instant::now() < deadline {
        leap_ebr::pin().flush();
        std::thread::yield_now();
    }
    assert_eq!(live(), want, "live values at quiescence");
    assert_eq!(TALLY.double_drops.load(Ordering::SeqCst), 0, "double drops");
}

/// Steps the in-flight migration to completion, writing between chunks
/// so that puts, deletes and batches land on both sides of the frontier.
fn drain(store: &LeapStore<Counted>, model: &mut BTreeMap<u64, u64>, seed: &mut u64) {
    loop {
        match store.rebalance_step() {
            RebalanceAction::Idle => return,
            RebalanceAction::Completed { .. } => {}
            _ => {
                *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let k = (*seed >> 33) % KEYS;
                let old = store.put(k, Counted::new(*seed));
                assert_eq!(old.map(|v| v.payload), model.insert(k, *seed));
                let d = (k * 7 + 3) % KEYS;
                assert_eq!(store.delete(d).map(|v| v.payload), model.remove(&d));
                let got = store.apply(&[
                    BatchOp::Update(k, Counted::new(k)),
                    BatchOp::Update((k + 128) % KEYS, Counted::new(k + 1)),
                ]);
                let want = [model.insert(k, k), model.insert((k + 128) % KEYS, k + 1)];
                let got: Vec<Option<u64>> = got.into_iter().map(|v| v.map(|v| v.payload)).collect();
                assert_eq!(got, want);
            }
        }
    }
}

fn check(store: &LeapStore<Counted>, model: &BTreeMap<u64, u64>) {
    let got: Vec<(u64, u64)> = store
        .range(0, KEYS)
        .into_iter()
        .map(|(k, v)| (k, v.payload))
        .collect();
    assert_eq!(got, model.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>());
}

#[test]
fn values_survive_split_and_merge_migrations() {
    let _serial = serial();
    let store = LeapStore::new(
        StoreConfig::new(2, Partitioning::Range)
            .with_key_space(KEYS)
            .with_params(Params {
                node_size: 4,
                max_level: 6,
            })
            // Explicit migrations only, moved a few keys at a time.
            .with_rebalancing(RebalancePolicy {
                chunk: 5,
                split_ratio: 1e9,
                merge_ratio: 0.0,
                min_split_keys: usize::MAX,
                ..RebalancePolicy::default()
            }),
    );
    let mut model = BTreeMap::new();
    for k in 0..KEYS {
        assert!(store.put(k, Counted::new(k)).is_none());
        model.insert(k, k);
    }
    let mut seed = 7;

    let (lo, hi) = store.router().shard_interval(0).expect("range shard");
    let dst = store.split_shard(0, lo + (hi - lo) / 2).expect("split");
    drain(&store, &mut model, &mut seed);
    check(&store, &model);
    assert!(
        store.shard(dst).len() > KEYS as usize / 8,
        "the split moved keys"
    );
    quiesce_to(store.len());

    store.merge_shards(dst, 0).expect("merge");
    drain(&store, &mut model, &mut seed);
    check(&store, &model);
    assert_eq!(store.shard(dst).len(), 0, "the merge moved every key back");
    assert_eq!(store.len(), model.len());
    quiesce_to(store.len());

    drop(store);
    quiesce_to(0);
}

#[test]
fn timed_out_batch_drops_its_values_once() {
    let _serial = serial();
    // The first three commits fail: exactly the bounded batch's budget.
    let store = LeapStore::new(
        StoreConfig::new(2, Partitioning::Range)
            .with_key_space(KEYS)
            .with_faults(
                FaultPlan::new(3)
                    .always(FaultPoint::StmCommit)
                    .with_budget(FaultPoint::StmCommit, 3),
            ),
    );
    let baseline = live();
    let batch = || -> Vec<BatchOp<Counted>> {
        (0..8)
            .map(|i| BatchOp::Update(i * KEYS / 8, Counted::new(i)))
            .collect()
    };

    let ops = batch();
    let out = store.bounded(RetryPolicy::default().max_attempts(3), || store.apply(&ops));
    assert!(matches!(out, Err(StoreError::Timeout { attempts: 3 })));
    drop(ops);
    assert!(
        store.range(0, KEYS).is_empty(),
        "no prefix of the batch landed"
    );
    quiesce_to(baseline);

    // The fault budget is spent: the same batch now commits whole.
    let ops = batch();
    let out = store.bounded(RetryPolicy::default().max_attempts(3), || store.apply(&ops));
    assert_eq!(out.map(|prev| prev.len()), Ok(8));
    drop(ops);
    assert_eq!(store.len(), 8);
    quiesce_to(baseline + 8);

    drop(store);
    quiesce_to(baseline);
}
