//! Cross-crate integration tests: the full stack (EBR + STM + Leap-List)
//! exercised in the configurations the paper actually ran.

use leap_stm::{atomically, StmDomain, TVar};
use leaplist::{LeapListCop, LeapListLt, LeapListRwlock, LeapListTm, Params, RangeMap};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn small_params() -> Params {
    Params {
        node_size: 4,
        max_level: 8,
    }
}

/// The LT variant on an explicitly sized domain under churn, with
/// concurrent linearizable range queries: every snapshot stays sorted and
/// duplicate-free while the marked-pointer protocol is exercised.
#[test]
fn leap_lt_on_a_shared_domain_stays_consistent() {
    let domain = Arc::new(StmDomain::with_orec_bits(14));
    let map = Arc::new(LeapListLt::<u64>::with_domain(small_params(), domain));
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..3u64)
        .map(|t| {
            let map = map.clone();
            std::thread::spawn(move || {
                let mut rng = 0xBEEF + t;
                for i in 0..3_000u64 {
                    let k = xorshift(&mut rng) % 200;
                    if i % 4 == 0 {
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
                let snap = map.range_query(0, 500);
                for w in snap.windows(2) {
                    assert!(w[0].0 < w[1].0, "torn snapshot under churn");
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

/// All four variants given the same operation sequence end in the same
/// state, which also matches the model.
#[test]
fn variants_agree_on_identical_histories() {
    let lt = LeapListLt::<u64>::new(small_params());
    let cop = LeapListCop::<u64>::new(small_params());
    let tm = LeapListTm::<u64>::new(small_params());
    let rw = LeapListRwlock::<u64>::new(small_params());
    let maps: [&dyn RangeMap<u64>; 4] = [&lt, &cop, &tm, &rw];
    let mut model = BTreeMap::new();
    let mut rng = 0x5151u64;
    for i in 0..3_000u64 {
        let k = xorshift(&mut rng) % 128;
        if xorshift(&mut rng).is_multiple_of(3) {
            for m in &maps {
                m.remove(k);
            }
            model.remove(&k);
        } else {
            for m in &maps {
                m.update(k, i);
            }
            model.insert(k, i);
        }
    }
    let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    for m in &maps {
        assert_eq!(m.range_query(0, 1_000), want);
    }
}

/// Leap-Lists and hand-written transactions can share one domain: a
/// transactional counter is updated concurrently with list operations on
/// the same `StmDomain` without interference.
#[test]
fn lists_and_raw_transactions_share_a_domain() {
    let domain = Arc::new(StmDomain::new());
    let map = Arc::new(LeapListLt::<u64>::with_domain(
        small_params(),
        domain.clone(),
    ));
    let counter = Arc::new(TVar::new(0u64));
    let list_worker = {
        let map = map.clone();
        std::thread::spawn(move || {
            for i in 0..2_000u64 {
                map.update(i % 64, i);
            }
        })
    };
    let tx_worker = {
        let domain = domain.clone();
        let counter = counter.clone();
        std::thread::spawn(move || {
            for _ in 0..2_000 {
                atomically(&domain, |tx| {
                    let c = tx.read(&*counter)?;
                    tx.write(&*counter, c + 1)
                });
            }
        })
    };
    list_worker.join().unwrap();
    tx_worker.join().unwrap();
    assert_eq!(counter.naked_load(), 2_000);
    assert_eq!(map.len(), 64);
    let stats = domain.stats();
    assert!(stats.total_commits() >= 4_000, "stats: {stats}");
}

/// Structures created and dropped while others churn: the shared default
/// EBR collector must reclaim each structure's garbage without touching
/// the others.
#[test]
fn many_structures_share_the_default_collector() {
    let survivor = Arc::new(LeapListLt::<u64>::new(small_params()));
    let churn = {
        let survivor = survivor.clone();
        std::thread::spawn(move || {
            for i in 0..1_000u64 {
                survivor.update(i % 32, i);
            }
        })
    };
    for round in 0..20 {
        let temp = LeapListLt::<u64>::new(small_params());
        for k in 0..50u64 {
            temp.update(k, round);
        }
        for k in 0..50u64 {
            temp.remove(k);
        }
        drop(temp);
    }
    churn.join().unwrap();
    assert_eq!(survivor.len(), 32);
    for k in 0..32u64 {
        assert!(survivor.lookup(k).is_some());
    }
}

/// The composite multi-list operation is the distinguishing API claim
/// ("updating functions compose operations on multiple Leap-Lists"):
/// an invariant spanning FOUR lists survives concurrent batched updates.
#[test]
fn four_list_batches_preserve_cross_list_invariant() {
    let lists = Arc::new(LeapListLt::<u64>::group(4, small_params()));
    {
        let refs: Vec<&LeapListLt<u64>> = lists.iter().collect();
        LeapListLt::update_batch(&refs, &[1, 1, 1, 1], &[0, 0, 0, 0]);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let lists = lists.clone();
        std::thread::spawn(move || {
            let refs: Vec<&LeapListLt<u64>> = lists.iter().collect();
            for g in 1..=4_000u64 {
                // All four lists move to generation g atomically.
                LeapListLt::update_batch(&refs, &[1, 1, 1, 1], &[g, g, g, g]);
            }
        })
    };
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let lists = lists.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut last = 0u64;
                while !stop.load(Ordering::Acquire) {
                    // Reads are per-list (the paper's lookups address one
                    // list); each list's generation must be monotone.
                    let g = lists[0].lookup(1).unwrap();
                    assert!(g >= last, "generation went backwards");
                    last = g;
                }
            })
        })
        .collect();
    writer.join().unwrap();
    stop.store(true, Ordering::Release);
    for r in readers {
        r.join().unwrap();
    }
    for l in lists.iter() {
        assert_eq!(l.lookup(1), Some(4_000));
    }
}

/// End-to-end sanity for the bench harness: a short measured run on every
/// algorithm completes and reports plausible throughput.
#[test]
fn bench_harness_smoke() {
    use leap_bench::driver::{run_throughput, RunCfg};
    use leap_bench::target::{make_target, Algo};
    use leap_bench::workload::{Mix, Workload};
    for algo in [
        Algo::LeapLt,
        Algo::LeapCop,
        Algo::LeapTm,
        Algo::LeapRwlock,
        Algo::SkipCas,
        Algo::SkipTm,
    ] {
        let lists = if matches!(algo, Algo::SkipCas | Algo::SkipTm) {
            1
        } else {
            4
        };
        let t = make_target(algo, lists, small_params());
        t.prefill(200);
        let wl = Workload {
            mix: Mix::read_dominated(),
            key_range: 400,
            span_min: 5,
            span_max: 25,
        };
        let cfg = RunCfg {
            threads: 2,
            duration: std::time::Duration::from_millis(40),
            repeats: 1,
            seed: 1,
        };
        let ops = run_throughput(&t, &wl, &cfg);
        assert!(ops > 50.0, "{:?} throughput {ops}", algo);
    }
}
