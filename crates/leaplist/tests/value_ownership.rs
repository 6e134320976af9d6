//! Value ownership across node copies. Every update or remove replaces a
//! whole node, and the replacement copies the surviving pairs bitwise: a
//! value is cloned only when a caller is handed one (a returned old value,
//! a read), and dropped exactly once — with the last node that carried it,
//! or with the list.
//!
//! `Counted` counts clones and keeps the id of every live instance in its
//! test's [`Tally`]. That id set is the per-instance canary: a drop whose id
//! is already gone is a double drop, and an id that outlives its list is a
//! leak. Single-threaded throughout, so these cases also run under Miri.

use leap_fault::{FaultInjector, FaultPlan, FaultPoint};
use leap_stm::{with_retry_budget, RetryPolicy, StmDomain, StmFaultPoint, Timeout};
use leaplist::{BatchOp, LeapListCop, LeapListLt, LeapListRwlock, LeapListTm, Params, RangeMap};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Clone and drop accounting for one test's values.
struct Tally {
    next_id: AtomicU64,
    clones: AtomicU64,
    double_drops: AtomicU64,
    /// Ids of the instances alive right now.
    live: Mutex<BTreeSet<u64>>,
}

impl Tally {
    const fn new() -> Self {
        Tally {
            next_id: AtomicU64::new(0),
            clones: AtomicU64::new(0),
            double_drops: AtomicU64::new(0),
            live: Mutex::new(BTreeSet::new()),
        }
    }

    fn value(&'static self, payload: u64) -> Counted {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.live.lock().unwrap().insert(id);
        Counted {
            id,
            payload,
            tally: self,
        }
    }

    fn clones(&self) -> u64 {
        self.clones.load(Ordering::SeqCst)
    }

    fn live(&self) -> usize {
        self.live.lock().unwrap().len()
    }

    fn is_live(&self, id: u64) -> bool {
        self.live.lock().unwrap().contains(&id)
    }

    /// Drives EBR reclamation until exactly `want` instances are alive,
    /// then checks that no instance was ever dropped twice.
    fn quiesce_to(&self, want: usize) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while self.live() != want && Instant::now() < deadline {
            leap_ebr::pin().flush();
            std::thread::yield_now();
        }
        assert_eq!(self.live(), want, "live values at quiescence");
        assert_eq!(self.double_drops.load(Ordering::SeqCst), 0, "double drops");
    }
}

#[derive(Debug)]
struct Counted {
    id: u64,
    payload: u64,
    tally: &'static Tally,
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        self.tally.clones.fetch_add(1, Ordering::SeqCst);
        self.tally.value(self.payload)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        if !self.tally.live.lock().unwrap().remove(&self.id) {
            self.tally.double_drops.fetch_add(1, Ordering::SeqCst);
        }
    }
}

impl std::fmt::Debug for Tally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tally").finish_non_exhaustive()
    }
}

fn payload(v: Option<Counted>) -> Option<u64> {
    v.map(|v| v.payload)
}

fn small() -> Params {
    Params {
        node_size: 4,
        max_level: 6,
    }
}

/// The four variants behind one batch interface, so each scenario runs
/// against all of them.
trait Variant: RangeMap<Counted> + Sized {
    fn group(n: usize, params: Params) -> Vec<Self>;
    fn update_batch(lists: &[&Self], keys: &[u64], values: &[Counted]) -> Vec<Option<Counted>>;
    fn remove_batch(lists: &[&Self], keys: &[u64]) -> Vec<Option<Counted>>;
}

macro_rules! variant {
    ($ty:ident) => {
        impl Variant for $ty<Counted> {
            fn group(n: usize, params: Params) -> Vec<Self> {
                $ty::group(n, params)
            }
            fn update_batch(
                lists: &[&Self],
                keys: &[u64],
                values: &[Counted],
            ) -> Vec<Option<Counted>> {
                $ty::update_batch(lists, keys, values)
            }
            fn remove_batch(lists: &[&Self], keys: &[u64]) -> Vec<Option<Counted>> {
                $ty::remove_batch(lists, keys)
            }
        }
    };
}
variant!(LeapListLt);
variant!(LeapListCop);
variant!(LeapListTm);
variant!(LeapListRwlock);

/// Single-op inserts (splitting K=4 nodes), overwrites and removes (with
/// merges), then one-op-per-list batches over two lists. Without aborts a
/// single op clones only the old value it returns, and a batch clones each
/// of its borrowed values once more, into the list.
fn single_and_batched<L: Variant>(tally: &'static Tally) {
    let lists = L::group(2, small());
    let (a, b) = (&lists[0], &lists[1]);
    let mut model = BTreeMap::new();
    let mut returned = 0u64;
    for k in 0..64u64 {
        assert_eq!(payload(a.update(k, tally.value(k))), None);
        model.insert(k, k);
    }
    for k in (0..64u64).step_by(2) {
        let old = a.update(k, tally.value(1000 + k));
        assert_eq!(payload(old), model.insert(k, 1000 + k), "overwrite {k}");
        returned += 1;
    }
    for k in 0..48u64 {
        assert_eq!(payload(a.remove(k)), model.remove(&k), "remove {k}");
        returned += 1;
    }
    assert_eq!(payload(a.remove(7)), None, "absent key");
    assert_eq!(
        tally.clones(),
        returned,
        "single ops clone only what they return"
    );
    assert_eq!(a.len(), model.len());
    tally.quiesce_to(a.len());

    let before = tally.clones();
    let mut somes = 0;
    for k in 40..64u64 {
        let values = [tally.value(k * 10), tally.value(k * 10 + 1)];
        let old = L::update_batch(&[a, b], &[k, k], &values);
        let want = [model.insert(k, k * 10), None];
        somes += old.iter().flatten().count() as u64;
        assert_eq!(old.into_iter().map(payload).collect::<Vec<_>>(), want);
    }
    for k in 50..64u64 {
        let old = L::remove_batch(&[a, b], &[k, k + 100]);
        let want = [model.remove(&k), None];
        somes += old.iter().flatten().count() as u64;
        assert_eq!(old.into_iter().map(payload).collect::<Vec<_>>(), want);
    }
    assert_eq!(
        tally.clones() - before,
        2 * 24 + somes,
        "one clone per borrowed value, one per returned value"
    );
    let got: Vec<(u64, u64)> = a
        .range_query(0, 1000)
        .into_iter()
        .map(|(k, v)| (k, v.payload))
        .collect();
    assert_eq!(got, model.into_iter().collect::<Vec<_>>());
    tally.quiesce_to(a.len() + b.len());
    drop(lists);
    tally.quiesce_to(0);
}

#[test]
fn lt_single_and_batched_ops_drop_each_value_once() {
    static T: Tally = Tally::new();
    single_and_batched::<LeapListLt<Counted>>(&T);
}

#[test]
fn cop_single_and_batched_ops_drop_each_value_once() {
    static T: Tally = Tally::new();
    single_and_batched::<LeapListCop<Counted>>(&T);
}

#[test]
fn tm_single_and_batched_ops_drop_each_value_once() {
    static T: Tally = Tally::new();
    single_and_batched::<LeapListTm<Counted>>(&T);
}

#[test]
fn rwlock_single_and_batched_ops_drop_each_value_once() {
    static T: Tally = Tally::new();
    single_and_batched::<LeapListRwlock<Counted>>(&T);
}

/// The count check: overwriting a present key of a full K=300 node copies
/// 299 pairs into the replacement halves, and clones exactly one value —
/// the old one, which the caller is handed.
#[test]
fn lt_update_of_present_key_in_full_node_clones_once() {
    static T: Tally = Tally::new();
    let list = LeapListLt::new(Params::default());
    let k = list.params().node_size as u64;
    for key in 0..k {
        list.update(key, T.value(key));
    }
    assert_eq!(list.node_sizes(), vec![0, k as usize], "one full node");
    assert_eq!(T.clones(), 0, "inserts clone nothing");
    let old = list.update(k / 2, T.value(7));
    assert_eq!(T.clones(), 1, "exactly one clone: the returned old value");
    assert_eq!(payload(old), Some(k / 2));
    assert_eq!(list.node_sizes().len(), 3, "the full node split");
    assert_eq!(payload(list.remove(k / 2 + 1)), Some(k / 2 + 1));
    assert_eq!(T.clones(), 2, "a remove clones only the value it returns");
    T.quiesce_to(list.len());
    drop(list);
    T.quiesce_to(0);
}

/// k-op groups: duplicate keys (each superseded value is dropped once,
/// never having reached a node), absent-key removes, and groups whose keys
/// span several K=4 nodes, so each commit replaces a multi-node chain.
#[test]
fn lt_grouped_batches_drop_superseded_values_once() {
    static T: Tally = Tally::new();
    let lists = LeapListLt::group(2, small());
    let refs: Vec<&_> = lists.iter().collect();
    let mut models = [BTreeMap::new(), BTreeMap::new()];
    let mut expected_clones = 0u64;
    for round in 0..6u64 {
        let mut groups: Vec<Vec<BatchOp<Counted>>> = vec![Vec::new(), Vec::new()];
        for (j, g) in groups.iter_mut().enumerate() {
            for k in (round % 3..40).step_by(3) {
                let v = round * 1000 + k * 10 + j as u64;
                g.push(BatchOp::Update(k, T.value(v)));
            }
            // A duplicate chain on one key, and removes present and absent.
            g.push(BatchOp::Update(5, T.value(1)));
            g.push(BatchOp::Update(5, T.value(2)));
            g.push(BatchOp::Remove(5));
            g.push(BatchOp::Update(5, T.value(round)));
            g.push(BatchOp::Remove(1000 + round));
            g.push(BatchOp::Remove((round * 7) % 40));
        }
        let mut want: Vec<Vec<Option<u64>>> = Vec::new();
        for (g, model) in groups.iter().zip(models.iter_mut()) {
            want.push(
                g.iter()
                    .map(|op| match op {
                        BatchOp::Update(k, v) => model.insert(*k, v.payload),
                        BatchOp::Remove(k) => model.remove(k),
                    })
                    .collect(),
            );
            // Every update's value is cloned once into the list.
            expected_clones += g
                .iter()
                .filter(|op| matches!(op, BatchOp::Update(..)))
                .count() as u64;
        }
        expected_clones += want.iter().flatten().flatten().count() as u64;
        let slices: Vec<&[BatchOp<Counted>]> = groups.iter().map(Vec::as_slice).collect();
        let got = LeapListLt::apply_batch_grouped(&refs, &slices);
        let got: Vec<Vec<Option<u64>>> = got
            .into_iter()
            .map(|g| g.into_iter().map(payload).collect())
            .collect();
        assert_eq!(got, want, "round {round}");
        drop(groups);
        assert_eq!(T.clones(), expected_clones, "round {round}");
    }
    for (l, m) in lists.iter().zip(&models) {
        let got: Vec<(u64, u64)> = l
            .range_query(0, 10_000)
            .into_iter()
            .map(|(k, v)| (k, v.payload))
            .collect();
        assert_eq!(got, m.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>());
        assert!(l.node_sizes().len() > 3, "groups spanned several nodes");
    }
    T.quiesce_to(lists.iter().map(LeapListLt::len).sum());
    drop(refs);
    drop(lists);
    T.quiesce_to(0);
}

/// A domain whose commits abort on `rate_ppm` of visits, driven by a
/// seeded `leap-fault` plan.
fn faulty_domain(seed: u64, rate_ppm: u64) -> (Arc<StmDomain>, Arc<FaultInjector>) {
    let domain = Arc::new(StmDomain::new());
    let inj = Arc::new(FaultInjector::new(
        FaultPlan::new(seed).with_rate(FaultPoint::StmCommit, rate_ppm),
    ));
    let hook = inj.clone();
    domain.set_fault_hook(Arc::new(move |point| match point {
        StmFaultPoint::Commit => hook.should_fire(FaultPoint::StmCommit),
        StmFaultPoint::Validate => hook.should_fire(FaultPoint::StmValidate),
    }));
    (domain, inj)
}

/// Aborted attempts discard their plans: the nodes they built are freed
/// and no value is dropped, so each op value survives to the attempt that
/// commits it. An attempt clones only the old value it would return, so
/// clones exceed the returned values by at most one per aborted attempt.
fn aborts_keep_values<L: RangeMap<Counted>>(tally: &'static Tally, map: L, inj: &FaultInjector) {
    let mut model = BTreeMap::new();
    let mut returned = 0u64;
    for i in 0..300u64 {
        let k = (i * 37) % 61;
        let got = if i % 4 == 3 {
            payload(map.remove(k))
        } else {
            payload(map.update(k, tally.value(i)))
        };
        let want = if i % 4 == 3 {
            model.remove(&k)
        } else {
            model.insert(k, i)
        };
        assert_eq!(got, want, "op {i}");
        returned += u64::from(want.is_some());
    }
    let fires = inj.fires(FaultPoint::StmCommit);
    assert!(fires > 0, "the fault plan must abort some commits");
    let clones = tally.clones();
    assert!(
        (returned..=returned + fires).contains(&clones),
        "{clones} clones for {returned} returned values and {fires} aborts"
    );
    assert_eq!(map.len(), model.len());
    tally.quiesce_to(map.len());
    drop(map);
    tally.quiesce_to(0);
}

#[test]
fn lt_aborted_attempts_drop_nothing() {
    static T: Tally = Tally::new();
    let (domain, inj) = faulty_domain(11, 400_000);
    aborts_keep_values(&T, LeapListLt::with_domain(small(), domain), &inj);
}

#[test]
fn cop_aborted_attempts_drop_nothing() {
    static T: Tally = Tally::new();
    let (domain, inj) = faulty_domain(12, 400_000);
    aborts_keep_values(&T, LeapListCop::with_domain(small(), domain), &inj);
}

#[test]
fn tm_aborted_attempts_drop_nothing() {
    static T: Tally = Tally::new();
    let (domain, inj) = faulty_domain(13, 400_000);
    aborts_keep_values(&T, LeapListTm::with_domain(small(), domain), &inj);
}

/// An update abandoned by a retry budget drops its value once, on the
/// unwind out of the write loop, and leaves the list untouched.
fn timeouts_drop_values<L: RangeMap<Counted>>(tally: &'static Tally, map: L) {
    let policy = RetryPolicy::default().max_attempts(3);
    for k in 0..4 {
        let out = with_retry_budget(policy, || map.update(k, tally.value(k)));
        assert_eq!(out.map(payload), Err(Timeout { attempts: 3 }), "key {k}");
    }
    assert_eq!(map.len(), 0);
    tally.quiesce_to(0);
}

#[test]
fn lt_timed_out_updates_drop_their_values_once() {
    static T: Tally = Tally::new();
    let (domain, _inj) = faulty_domain(15, 1_000_000);
    timeouts_drop_values(&T, LeapListLt::with_domain(small(), domain));
}

#[test]
fn cop_timed_out_updates_drop_their_values_once() {
    static T: Tally = Tally::new();
    let (domain, _inj) = faulty_domain(16, 1_000_000);
    timeouts_drop_values(&T, LeapListCop::with_domain(small(), domain));
}

#[test]
fn tm_timed_out_updates_drop_their_values_once() {
    static T: Tally = Tally::new();
    let (domain, _inj) = faulty_domain(17, 1_000_000);
    timeouts_drop_values(&T, LeapListTm::with_domain(small(), domain));
}

/// Aborted k-op groups: the duplicate-key chain's superseded values are
/// dropped once, by the attempt that finally commits.
#[test]
fn lt_aborted_groups_drop_superseded_values_once() {
    static T: Tally = Tally::new();
    let (domain, inj) = faulty_domain(14, 600_000);
    let list = LeapListLt::with_domain(small(), domain);
    for round in 0..20u64 {
        let mut ops: Vec<BatchOp<Counted>> = (0..12u64)
            .map(|k| BatchOp::Update(k * 3 + round % 3, T.value(k)))
            .collect();
        ops.push(BatchOp::Update(100, T.value(1)));
        ops.push(BatchOp::Update(100, T.value(2)));
        ops.push(BatchOp::Remove(101));
        LeapListLt::apply_batch_grouped(&[&list], &[ops.as_slice()]);
    }
    assert!(inj.fires(FaultPoint::StmCommit) > 0);
    T.quiesce_to(list.len());
    drop(list);
    T.quiesce_to(0);
}

/// A pinned snapshot held across ten overwrites of its keys reads the
/// pre-pin values intact, and none of them is dropped before the pin is
/// released: each rides in a dying node parked behind the pin.
#[test]
fn lt_snapshot_keeps_pre_pin_values_until_released() {
    static T: Tally = Tally::new();
    let list = LeapListLt::new(small());
    let mut pre_pin = Vec::new();
    for k in 0..10u64 {
        let v = T.value(k);
        pre_pin.push(v.id);
        list.update(k, v);
    }
    let snap = list.pin_snapshot();
    for round in 1..=10u64 {
        for k in 0..10u64 {
            drop(list.update(k, T.value(round * 100 + k)));
        }
        let page: Vec<u64> = list
            .snapshot_page(&snap, 0, 100, 64)
            .into_iter()
            .map(|(_, v)| v.payload)
            .collect();
        assert_eq!(page, (0..10).collect::<Vec<_>>(), "round {round}");
        for &id in &pre_pin {
            assert!(T.is_live(id), "pre-pin value {id} dropped under the pin");
        }
    }
    drop(snap);
    // The next commit drains the limbo past the released pin.
    drop(list.update(50, T.value(50)));
    T.quiesce_to(list.len());
    for &id in &pre_pin {
        assert!(!T.is_live(id), "pre-pin value {id} outlived its last node");
    }
    drop(list);
    T.quiesce_to(0);
}
