//! Deterministic chaos suite: every fault point armed from one seed, a
//! concurrent mixed workload over disjoint per-thread key sets, and the
//! convergence contract checked at the end — every migration completes
//! once the chunk-fault budget is spent (no permanent
//! `MigrationInFlight`), the store is model-equivalent, and the
//! degradation counters (`shed_ops`, `timeouts`) surface in stats and on
//! the event timeline.
//!
//! The fault schedule is a pure function of the seed
//! ([`leap_fault::FaultPlan`]), so a CI failure is replayable verbatim:
//! every assertion message carries the seed, and
//! `CHAOS_SEED=<n>[,<n>...]` overrides the built-in seed list.

use leap_obs::{AbortCause, TraceConfig};
use leap_store::{
    Batcher, FaultPlan, FaultPoint, LeapStore, Partitioning, RebalanceAction, RebalancePolicy,
    RetryPolicy, StoreConfig, StoreError,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const KEY_SPACE: u64 = 10_000;
/// Worker threads; each owns the keys `k < WORKER_KEYS` with
/// `k % WORKERS == t`, so per-thread models merge without conflicts.
const WORKERS: u64 = 4;
const WORKER_KEYS: u64 = 8_000;
const OPS_PER_WORKER: u64 = 3_000;

fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(list) => {
            let parsed: Vec<u64> = list
                .split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect();
            assert!(!parsed.is_empty(), "CHAOS_SEED set but unparsable: {list}");
            parsed
        }
        Err(_) => vec![1, 7, 42],
    }
}

/// xorshift64*: deterministic per-worker op stream without dev-deps.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Every point armed, every point budgeted: the schedule is hostile at
/// the start and provably quiet at the end, so convergence must happen.
fn hostile_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        // Rates spread the stm fires across the whole run (an `always`
        // point would burn its budget inside the first op's retry loop);
        // the per-visit decisions are still a pure function of the seed.
        .with_rate(FaultPoint::StmCommit, 100_000)
        .with_budget(FaultPoint::StmCommit, 300)
        .with_rate(FaultPoint::StmValidate, 100_000)
        .with_budget(FaultPoint::StmValidate, 100)
        .always(FaultPoint::MigrationChunk)
        .with_budget(FaultPoint::MigrationChunk, 10)
        .always(FaultPoint::Admission)
        .with_budget(FaultPoint::Admission, 20)
}

fn chaos_store(seed: u64) -> Arc<LeapStore<u64>> {
    Arc::new(LeapStore::new(
        StoreConfig::new(4, Partitioning::Range)
            .with_key_space(KEY_SPACE)
            .with_rebalancing(RebalancePolicy {
                chunk: 32,
                ..RebalancePolicy::default()
            })
            .with_faults(hostile_plan(seed)),
    ))
}

/// One worker's slice of the mixed workload; returns its model.
fn worker(
    store: Arc<LeapStore<u64>>,
    batcher: Arc<Batcher<u64>>,
    seed: u64,
    t: u64,
) -> BTreeMap<u64, u64> {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (t + 1));
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let policy = RetryPolicy::default().max_attempts(64);
    for _ in 0..OPS_PER_WORKER {
        let key = (rng.next() % (WORKER_KEYS / WORKERS)) * WORKERS + t;
        let val = rng.next();
        match rng.next() % 100 {
            0..=39 => {
                let prev = store.put(key, val);
                assert_eq!(model.insert(key, val), prev, "seed {seed}: put({key})");
            }
            40..=54 => {
                assert_eq!(
                    store.get(key),
                    model.get(&key).copied(),
                    "seed {seed}: get({key})"
                );
            }
            55..=64 => {
                let prev = store.delete(key);
                assert_eq!(model.remove(&key), prev, "seed {seed}: delete({key})");
            }
            65..=84 => match batcher.try_put(key, val) {
                Ok(prev) => {
                    assert_eq!(
                        model.insert(key, val),
                        prev,
                        "seed {seed}: batched put({key})"
                    );
                }
                // Shed (admission bound or injected admission fault): the
                // op provably did not run — the model is untouched.
                Err(StoreError::Overloaded { .. }) => {}
                Err(e) => panic!("seed {seed}: unexpected batcher error {e}"),
            },
            _ => match store.bounded(policy, || store.put(key, val)) {
                Ok(prev) => {
                    assert_eq!(
                        model.insert(key, val),
                        prev,
                        "seed {seed}: bounded put({key})"
                    );
                }
                // Budget exhausted pre-commit: nothing was written.
                Err(StoreError::Timeout { .. }) => {}
                Err(e) => panic!("seed {seed}: unexpected bounded-op error {e}"),
            },
        }
    }
    model
}

/// The headline property: under any seeded fault schedule, a concurrent
/// workload with live migrations (whose chunks injected faults drop)
/// converges to exactly the model, with no overlay left in flight and the
/// keyspace still reshardable afterwards.
#[test]
fn converges_and_stays_model_equivalent_under_seeded_faults() {
    for seed in seeds() {
        let store = chaos_store(seed);
        let batcher = Arc::new(Batcher::new(store.clone()));
        // Dense prefill of the split playground [8000, 8399] — outside
        // every worker's key set.
        let mut main_model: BTreeMap<u64, u64> = BTreeMap::new();
        for k in 8_000..8_400u64 {
            store.put(k, k);
            main_model.insert(k, k);
        }
        // Rebalance driver racing the workers: policy steps, each of
        // which may drop its chunk by injection.
        let stop = Arc::new(AtomicBool::new(false));
        let driver = {
            let (store, stop) = (store.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    store.rebalance_step();
                    std::thread::yield_now();
                }
            })
        };
        let handles: Vec<_> = (0..WORKERS)
            .map(|t| {
                let (store, batcher) = (store.clone(), batcher.clone());
                std::thread::spawn(move || worker(store, batcher, seed, t))
            })
            .collect();
        let mut model = main_model;
        for h in handles {
            model.extend(h.join().expect("worker must not panic"));
        }
        stop.store(true, Ordering::Relaxed);
        driver.join().expect("driver must not panic");

        // Deterministic split of the dense playground: failed chunks are
        // retried from the frontier until the drain completes. The policy
        // driver splits at a shard's median key, so it may already have
        // cut the playground at 8 100; the split point stays strictly
        // inside the shard that holds 8 100.
        store.rebalance_until_idle();
        let src = store.router().shard_of(8_100);
        let (lo, _) = store
            .router()
            .shard_interval(src)
            .expect("the shard routing 8 100 owns an interval");
        let at = 8_100.max(lo + 1);
        let dst = store
            .split_shard(src, at)
            .unwrap_or_else(|e| panic!("seed {seed}: no permanent MigrationInFlight, got {e}"));
        let mut moved = 0;
        let completed = (0..10_000).any(|_| match store.rebalance_step() {
            RebalanceAction::Moved { keys, .. } => {
                moved += keys;
                false
            }
            RebalanceAction::ChunkFailed { .. } => false,
            RebalanceAction::Completed { .. } => true,
            other => panic!("seed {seed}: unexpected action {other:?}"),
        });
        assert!(
            completed,
            "seed {seed}: the playground split never completed"
        );
        assert!(moved > 0, "seed {seed}: the drain moved nothing");
        assert_eq!(store.router().shard_of(at), dst, "seed {seed}");
        let injector = store.faults().expect("faults armed");
        assert!(
            injector.fires(FaultPoint::MigrationChunk) >= 1,
            "seed {seed}: no chunk was ever dropped"
        );

        // Convergence: no overlay survives, and the map is the model.
        store.rebalance_until_idle();
        assert!(
            store.router().migration().is_none(),
            "seed {seed}: migrations still in flight"
        );
        let got = store.range(0, KEY_SPACE - 1);
        let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want, "seed {seed}: final state diverged from model");

        // Degradation is observable: the injected admission sheds surface
        // in stats, JSON and the timeline, and the playground split's
        // completion is on the timeline too.
        let stats = store.stats();
        assert!(stats.shed_ops >= 1, "seed {seed}: no shed recorded");
        let json = stats.to_json();
        for key in ["\"shed_ops\":", "\"timeouts\":"] {
            assert!(json.contains(key), "seed {seed}: stats JSON missing {key}");
        }
        let events = store.obs().expect("obs on by default").snapshot().events;
        let kinds: Vec<&str> = events.events.iter().map(|e| e.kind.name()).collect();
        assert!(
            kinds.contains(&"migration_complete"),
            "seed {seed}: no migration_complete event"
        );
        // Sheds happen early in the run (the admission-fault budget), so on
        // a busy timeline the bounded ring may have evicted them — but
        // then the eviction counter must say so.
        assert!(
            kinds.contains(&"shed") || events.dropped > 0,
            "seed {seed}: no shed event and nothing was evicted"
        );

        // Post-convergence health: the keyspace is still reshardable —
        // a fresh split begins and drains to completion.
        let src = store.router().shard_of(4_000);
        if let Some((lo, hi)) = store.router().shard_interval(src) {
            if lo < hi {
                store
                    .split_shard(src, lo + (hi - lo) / 2 + 1)
                    .unwrap_or_else(|e| panic!("seed {seed}: post-convergence split: {e}"));
                store.rebalance_until_idle();
                assert!(
                    store.router().migration().is_none(),
                    "seed {seed}: post-convergence split never resolved"
                );
            }
        }
        assert_eq!(
            store.range(0, KEY_SPACE - 1),
            want,
            "seed {seed}: resharding after convergence moved data"
        );
    }
}

/// Bounded retry under a workload that can never commit: every commit
/// attempt is failed by injection (no budget), so a bounded put must give
/// up with a typed `Timeout` — and the timeout must be attributed in stm
/// stats and on the event timeline.
#[test]
fn bounded_ops_time_out_when_commits_never_succeed() {
    for seed in seeds() {
        let plan = FaultPlan::new(seed).always(FaultPoint::StmCommit);
        let store: LeapStore<u64> = LeapStore::new(
            StoreConfig::new(2, Partitioning::Range)
                .with_key_space(KEY_SPACE)
                .with_faults(plan),
        );
        let policy = RetryPolicy::default().max_attempts(8);
        match store.bounded(policy, || store.put(5, 50)) {
            Err(StoreError::Timeout { attempts }) => {
                assert!(attempts >= 8, "seed {seed}: gave up after {attempts}")
            }
            other => panic!("seed {seed}: expected Timeout, got {other:?}"),
        }
        // Deadline-based budgets give up too, even mid-livelock.
        let policy = RetryPolicy::default().timeout(Duration::from_millis(10));
        assert!(
            matches!(
                store.bounded(policy, || store.put(6, 60)),
                Err(StoreError::Timeout { .. })
            ),
            "seed {seed}: deadline budget must fire"
        );
        let stats = store.stats();
        assert!(
            stats.stm.timeouts >= 2,
            "seed {seed}: timeouts unattributed"
        );
        assert!(
            stats.to_json().contains("\"timeouts\":"),
            "seed {seed}: stats JSON missing timeouts"
        );
        let events = store.obs().expect("obs on by default").snapshot().events;
        assert!(
            events
                .events
                .iter()
                .any(|e| e.kind.name() == "txn_deadline"),
            "seed {seed}: no txn_deadline event"
        );
    }
}

/// Tracing under chaos: with head sampling off and an SLO no op can
/// exceed, the only retention path left is the failure arm of tail
/// capture — and every typed failure the fault plan can produce
/// (bounded-retry timeout, injected admission shed) must land in the span
/// ring with a matching cause annotation.
#[test]
fn typed_failures_are_always_retained_as_spans() {
    for seed in seeds() {
        let plan = FaultPlan::new(seed)
            .always(FaultPoint::StmCommit)
            .with_budget(FaultPoint::StmCommit, 6)
            .always(FaultPoint::Admission)
            .with_budget(FaultPoint::Admission, 1);
        let store: Arc<LeapStore<u64>> = Arc::new(LeapStore::new(
            StoreConfig::new(2, Partitioning::Range)
                .with_key_space(KEY_SPACE)
                .with_faults(plan)
                .with_sample_period(0)
                .with_tracing(TraceConfig::default().with_slo_ns(u64::MAX)),
        ));
        // Timeout: the first four commits in the store's life are failed
        // by injection, exhausting the bounded put's attempt budget.
        match store.bounded(RetryPolicy::default().max_attempts(4), || store.put(5, 50)) {
            Err(StoreError::Timeout { .. }) => {}
            other => panic!("seed {seed}: expected Timeout, got {other:?}"),
        }
        // Overloaded: the first admission is refused by injection.
        let batcher = Batcher::new(store.clone());
        match batcher.try_put(8, 80) {
            Err(StoreError::Overloaded { .. }) => {}
            other => panic!("seed {seed}: expected injected shed, got {other:?}"),
        }

        let spans = store.tracer().expect("tracing armed").snapshot().spans;
        let timeout = spans
            .iter()
            .find(|s| s.outcome == "timeout")
            .unwrap_or_else(|| panic!("seed {seed}: timeout span not retained"));
        assert_eq!(timeout.kind, "put");
        assert!(
            timeout.causes.contains(&AbortCause::Timeout),
            "seed {seed}: deadline cause unattributed: {:?}",
            timeout.causes
        );
        let shed = spans
            .iter()
            .find(|s| s.outcome == "overloaded")
            .unwrap_or_else(|| panic!("seed {seed}: shed span not retained"));
        assert_eq!((shed.kind, shed.key), ("put", 8), "seed {seed}");
        // Retention really was failure-driven: nothing was head-sampled
        // and nothing crossed the (unreachable) SLO.
        assert!(
            spans.iter().all(|s| !s.sampled && !s.tail),
            "seed {seed}: unexpected sampled/tail span"
        );
    }
}

/// Admission control under real contention: a tiny in-flight bound plus many
/// threads must shed some ops with typed errors — and every op that
/// reported success is actually in the store.
#[test]
fn admission_overflow_sheds_with_typed_errors_under_contention() {
    let store: Arc<LeapStore<u64>> = Arc::new(LeapStore::new(
        StoreConfig::new(4, Partitioning::Range).with_key_space(KEY_SPACE),
    ));
    let batcher = Arc::new(Batcher::new(store.clone()).with_admission(2));
    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            let batcher = batcher.clone();
            std::thread::spawn(move || {
                let mut ok = Vec::new();
                for i in 0..500u64 {
                    let key = t * 1_000 + i;
                    match batcher.try_put(key, key) {
                        Ok(_) => ok.push(key),
                        Err(StoreError::Overloaded { .. }) => {}
                        Err(e) => panic!("unexpected batcher error {e}"),
                    }
                }
                ok
            })
        })
        .collect();
    let accepted: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("worker must not panic"))
        .collect();
    for key in &accepted {
        assert_eq!(store.get(*key), Some(*key), "accepted op must be durable");
    }
    let stats = batcher.stats();
    assert_eq!(stats.ops, accepted.len() as u64, "only accepted ops count");
    assert_eq!(
        stats.shed + stats.ops,
        8 * 500,
        "every op either landed or was shed — no silent loss"
    );
}
