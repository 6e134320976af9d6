//! Concurrent correctness tests for the Leap-List variants, focused on the
//! paper's headline guarantee: **linearizable range queries** under
//! concurrent structural churn (splits, merges, node replacement).

mod support;

use leaplist::{LeapListCop, LeapListLt, LeapListRwlock, LeapListTm, Params, RangeMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use support::Variant;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn small_params() -> Params {
    // Tiny nodes maximize split/merge churn.
    Params {
        node_size: 4,
        max_level: 8,
    }
}

/// Writers keep the invariant "key k and key k+1000 always carry the same
/// value" by updating the pair through two separate keys *within one node
/// replacement each*... they cannot — so instead each writer updates a
/// single key to strictly increasing values, and range queries assert
/// per-key monotonicity plus snapshot sortedness. A stronger pair test for
/// the batched (multi-list) API lives below.
fn churn_and_snapshot_check(map: Arc<dyn RangeMap<u64>>, threads: usize, iters: u64) {
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..threads)
        .map(|t| {
            let map = map.clone();
            std::thread::spawn(move || {
                let mut rng = 0xABCDu64 + t as u64 * 77;
                for i in 0..iters {
                    let k = xorshift(&mut rng) % 256;
                    if xorshift(&mut rng).is_multiple_of(4) {
                        map.remove(k);
                    } else {
                        map.update(k, i);
                    }
                }
            })
        })
        .collect();
    let checker = {
        let map = map.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let lo = 32;
                let hi = 224;
                let snap = map.range_query(lo, hi);
                // Snapshot must be sorted, unique, in range.
                for w in snap.windows(2) {
                    assert!(w[0].0 < w[1].0, "unsorted snapshot: {:?}", w);
                }
                for (k, _) in &snap {
                    assert!((lo..=hi).contains(k), "key {k} outside [{lo}, {hi}]");
                }
            }
        })
    };
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    checker.join().unwrap();
}

#[test]
fn lt_snapshots_stay_consistent_under_churn() {
    churn_and_snapshot_check(Arc::new(LeapListLt::<u64>::new(small_params())), 3, 4_000);
}

#[test]
fn cop_snapshots_stay_consistent_under_churn() {
    churn_and_snapshot_check(Arc::new(LeapListCop::<u64>::new(small_params())), 3, 2_500);
}

#[test]
fn tm_snapshots_stay_consistent_under_churn() {
    churn_and_snapshot_check(Arc::new(LeapListTm::<u64>::new(small_params())), 3, 1_500);
}

#[test]
fn rwlock_snapshots_stay_consistent_under_churn() {
    churn_and_snapshot_check(
        Arc::new(LeapListRwlock::<u64>::new(small_params())),
        3,
        2_500,
    );
}

/// The linearizability litmus from the paper's motivation: a writer moves a
/// *pair* of keys to a new generation in ONE update each... a single-key
/// update is atomic, so instead we exploit fat nodes: two keys that always
/// land in the same node (key space smaller than K) are updated by
/// replacing the node twice; a range query could see generations (g, g-1)
/// but NEVER (g-1, g) — writer order — and never a missing key.
#[test]
fn lt_range_query_never_inverts_writer_order() {
    let map = Arc::new(LeapListLt::<u64>::new(Params {
        node_size: 64,
        max_level: 4,
    }));
    map.update(10, 0);
    map.update(20, 0);
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let map = map.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            for g in 1..30_000u64 {
                map.update(10, g);
                map.update(20, g);
            }
            stop.store(true, Ordering::Release);
        })
    };
    let mut last = (0, 0);
    while !stop.load(Ordering::Acquire) {
        let snap = map.range_query(0, 100);
        assert_eq!(snap.len(), 2, "a key vanished from the snapshot: {snap:?}");
        let (v10, v20) = (snap[0].1, snap[1].1);
        assert!(v10 >= v20, "snapshot inverted writer order: {v10} < {v20}");
        assert!(
            v10 - v20 <= 1,
            "snapshot skipped a generation: {v10} vs {v20}"
        );
        assert!(v10 >= last.0 && v20 >= last.1, "non-monotonic snapshots");
        last = (v10, v20);
    }
    writer.join().unwrap();
}

/// Batched updates across lists are one linearizable action: concurrent
/// lookups of the same key in both lists may lag but may never observe
/// list-1 AHEAD of list-0's committed prefix by more than the in-flight
/// batch, and after quiescence both lists agree exactly.
#[test]
fn lt_batch_updates_are_atomic_across_lists() {
    let lists = Arc::new(LeapListLt::<u64>::group(2, small_params()));
    let writer = {
        let lists = lists.clone();
        std::thread::spawn(move || {
            let refs: Vec<&LeapListLt<u64>> = lists.iter().collect();
            for g in 1..=5_000u64 {
                LeapListLt::update_batch(&refs, &[7, 7], &[g, g]);
            }
        })
    };
    // Concurrent single-list range queries: each list individually always
    // shows a committed generation.
    for _ in 0..2_000 {
        let a = lists[0].lookup(7).unwrap_or(0);
        let b = lists[1].lookup(7).unwrap_or(0);
        // Both lists move through the same committed sequence 0,1,2,...;
        // two reads are not atomic together, but each must be a valid
        // generation (<= 5000) and list reads must be monotone per list.
        assert!(a <= 5_000 && b <= 5_000);
    }
    writer.join().unwrap();
    assert_eq!(lists[0].lookup(7), Some(5_000));
    assert_eq!(lists[1].lookup(7), Some(5_000));
}

/// Cross-list batches are atomic on every variant: two writers race
/// `update_batch` / `remove_batch` over the same key sequence of three K=4
/// lists, each writing its own values. A batch torn between the writers
/// leaves the lists disagreeing on a key, so at quiescence every list must
/// read the same.
fn racing_batches_keep_lists_identical<L: Variant<u64>>() {
    let lists = Arc::new(L::group(3, small_params()));
    let writers: Vec<_> = (0..2u64)
        .map(|t| {
            let lists = lists.clone();
            std::thread::spawn(move || {
                let refs: Vec<&L> = lists.iter().collect();
                let mut rng = 0x5EEDu64;
                for i in 0..1_500u64 {
                    let k = xorshift(&mut rng) % 48;
                    if i % 4 == 3 {
                        L::remove_batch(&refs, &[k, k, k]);
                    } else {
                        let v = i * 2 + t;
                        L::update_batch(&refs, &[k, k, k], &[v, v, v]);
                    }
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    let first = lists[0].range_query(0, 1_000);
    assert!(!first.is_empty());
    for l in &lists[1..] {
        assert_eq!(l.range_query(0, 1_000), first, "a batch tore across lists");
    }
}

#[test]
fn lt_racing_batches_keep_lists_identical() {
    racing_batches_keep_lists_identical::<LeapListLt<u64>>();
}

#[test]
fn cop_racing_batches_keep_lists_identical() {
    racing_batches_keep_lists_identical::<LeapListCop<u64>>();
}

#[test]
fn tm_racing_batches_keep_lists_identical() {
    racing_batches_keep_lists_identical::<LeapListTm<u64>>();
}

#[test]
fn rwlock_racing_batches_keep_lists_identical() {
    racing_batches_keep_lists_identical::<LeapListRwlock<u64>>();
}

/// Remove/update storms on overlapping ranges: final state must equal the
/// accounting (every key's last writer wins; here each thread owns a key
/// stripe so the final state is deterministic).
fn striped_final_state(map: Arc<dyn RangeMap<u64>>, threads: u64) {
    let iters = 2_000u64;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let map = map.clone();
            std::thread::spawn(move || {
                for i in 0..iters {
                    let k = t + (i % 64) * threads; // disjoint stripes
                    if i % 5 == 4 {
                        map.remove(k);
                    } else {
                        map.update(k, i);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Per stripe, the last op for slot j (j = i % 64) is i = iters-64+j ...
    // simpler: recompute expected sequentially.
    let mut expected: std::collections::BTreeMap<u64, u64> = Default::default();
    for t in 0..threads {
        for i in 0..iters {
            let k = t + (i % 64) * threads;
            if i % 5 == 4 {
                expected.remove(&k);
            } else {
                expected.insert(k, i);
            }
        }
    }
    let got = map.range_query(0, 64 * threads + threads);
    let want: Vec<(u64, u64)> = expected.into_iter().collect();
    assert_eq!(got, want);
}

#[test]
fn lt_striped_writers_deterministic_final_state() {
    striped_final_state(Arc::new(LeapListLt::<u64>::new(small_params())), 4);
}

#[test]
fn cop_striped_writers_deterministic_final_state() {
    striped_final_state(Arc::new(LeapListCop::<u64>::new(small_params())), 4);
}

#[test]
fn tm_striped_writers_deterministic_final_state() {
    striped_final_state(Arc::new(LeapListTm::<u64>::new(small_params())), 3);
}

#[test]
fn rwlock_striped_writers_deterministic_final_state() {
    striped_final_state(Arc::new(LeapListRwlock::<u64>::new(small_params())), 4);
}

/// Leak and copy check under three-thread churn. Node copies are bitwise,
/// so a value is cloned only when an op hands the caller its old value:
/// clones stay at most one per update and remove (a cloning copy would make
/// one per surviving pair, growing with K). Every value, inserted or
/// cloned, must eventually be dropped exactly once — no node may leak its
/// departures or drop a value a younger node still carries.
#[test]
fn lt_no_leaks_under_churn() {
    use std::sync::atomic::{AtomicI64, AtomicU64};
    static LIVE: AtomicI64 = AtomicI64::new(0);
    static CLONES: AtomicU64 = AtomicU64::new(0);
    static OPS: AtomicU64 = AtomicU64::new(0);

    #[derive(Debug)]
    struct CountedCell(u64);
    impl Clone for CountedCell {
        fn clone(&self) -> Self {
            LIVE.fetch_add(1, Ordering::SeqCst);
            CLONES.fetch_add(1, Ordering::SeqCst);
            CountedCell(self.0)
        }
    }
    impl Drop for CountedCell {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let map = Arc::new(LeapListLt::<CountedCell>::new(small_params()));

    let base = LIVE.load(Ordering::SeqCst);
    {
        let handles: Vec<_> = (0..3)
            .map(|t| {
                let map = map.clone();
                std::thread::spawn(move || {
                    let mut rng = 0xFEEDu64 * (t + 1);
                    for i in 0..2_000u64 {
                        let k = xorshift(&mut rng) % 128;
                        OPS.fetch_add(1, Ordering::SeqCst);
                        if i % 3 == 0 {
                            map.remove(k);
                        } else {
                            LIVE.fetch_add(1, Ordering::SeqCst);
                            map.update(k, CountedCell(i));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
    let (clones, ops) = (CLONES.load(Ordering::SeqCst), OPS.load(Ordering::SeqCst));
    assert!(
        clones <= ops,
        "{clones} clones for {ops} updates and removes: node copies must not clone"
    );
    // Drain deferred reclamation, then drop the map itself.
    let collector = leap_ebr::default_collector().register();
    collector.advance_until_quiescent();
    let live_in_map = map.len() as i64;
    drop(map);
    // Sibling tests in this binary pin the same default collector and can
    // hold the epoch back for a while: keep draining until the orphaned
    // garbage has aged out, and only call what is still live a leak.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        collector.advance_until_quiescent();
        if LIVE.load(Ordering::SeqCst) == base || std::time::Instant::now() >= deadline {
            break;
        }
        std::thread::yield_now();
    }
    let end = LIVE.load(Ordering::SeqCst);
    assert_eq!(
        end - base,
        0,
        "leaked {} values ({} were live in the map before drop)",
        end - base,
        live_in_map
    );
}

/// Snapshot pages are immune to concurrent batch churn: writers keep the
/// cross-list invariant "both lists carry identical contents" through
/// atomic `update_batch`/`remove_batch` pairs, so any pinned snapshot —
/// spanning both lists of the shared domain — must read the two lists as
/// exact mirrors, and re-reading the same snapshot must reproduce the
/// same page bit-for-bit while the live lists keep moving.
#[test]
fn lt_snapshot_pages_mirror_across_lists_under_batch_churn() {
    let lists = Arc::new(LeapListLt::<u64>::group(2, small_params()));
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let lists = lists.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let refs: Vec<&LeapListLt<u64>> = lists.iter().collect();
            let mut g = 0u64;
            while !stop.load(Ordering::Relaxed) {
                g += 1;
                let k = g % 64;
                if g.is_multiple_of(3) {
                    LeapListLt::remove_batch(&refs, &[k, k]);
                } else {
                    LeapListLt::update_batch(&refs, &[k, k], &[g, g]);
                }
            }
        })
    };
    for _ in 0..400 {
        let snap = lists[0].pin_snapshot();
        let a = lists[0].snapshot_page(&snap, 0, 1_000, usize::MAX);
        let b = lists[1].snapshot_page(&snap, 0, 1_000, usize::MAX);
        assert_eq!(a, b, "batch-maintained mirrors diverged at one ts");
        let again = lists[0].snapshot_page(&snap, 0, 1_000, usize::MAX);
        assert_eq!(a, again, "same snapshot, same page — always");
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}
