//! **Leap-tm** — the direct-STM baseline: every operation, traversal
//! included, runs inside one transaction (paper §1.2 "Pure STM"). Each
//! pointer hop is an instrumented read, which is precisely the overhead the
//! paper found unacceptable; this variant exists to reproduce that
//! comparison.

use crate::node::{build_remove, build_update, internal_key, Node, MAX_LEVEL_CAP};
use crate::plan::{RemovePlan, UpdatePlan};
use crate::raw::{RawLeapList, SearchWindow};
use crate::variants::common;
use crate::Params;
use leap_ebr::pin;
use leap_stm::{Backoff, Mode, StmDomain, TaggedPtr, TxResult, Txn};
use std::cell::Cell;
use std::mem::ManuallyDrop;
use std::sync::Arc;

/// A Leap-List in which every operation is one STM transaction.
///
/// # Example
///
/// ```
/// use leaplist::{LeapListTm, Params};
/// let list: LeapListTm<u64> = LeapListTm::new(Params::default());
/// list.update(2, 22);
/// assert_eq!(list.lookup(2), Some(22));
/// assert_eq!(list.remove(2), Some(22));
/// ```
pub struct LeapListTm<V> {
    raw: RawLeapList<V>,
    domain: Arc<StmDomain>,
}

impl<V: Clone + Send + Sync + 'static> LeapListTm<V> {
    /// Creates an empty list with its own write-back domain.
    pub fn new(params: Params) -> Self {
        Self::with_domain(params, Arc::new(StmDomain::new()))
    }

    /// Creates an empty list on a shared (write-back) domain.
    ///
    /// # Panics
    ///
    /// Panics if the domain is write-through (new nodes are published by
    /// transactional pointer writes and must stay invisible until commit).
    pub fn with_domain(params: Params, domain: Arc<StmDomain>) -> Self {
        assert_eq!(
            domain.mode(),
            Mode::WriteBack,
            "LeapListTm requires a write-back domain"
        );
        LeapListTm {
            raw: RawLeapList::new(params),
            domain,
        }
    }

    /// Creates `n` lists sharing one fresh domain.
    pub fn group(n: usize, params: Params) -> Vec<Self> {
        let domain = Arc::new(StmDomain::new());
        (0..n)
            .map(|_| Self::with_domain(params.clone(), domain.clone()))
            .collect()
    }

    /// The transactional domain (statistics, sharing).
    pub fn domain(&self) -> &Arc<StmDomain> {
        &self.domain
    }

    /// Fully instrumented predecessor search.
    ///
    /// # Safety
    ///
    /// Caller holds an epoch guard.
    unsafe fn search_tx<'t>(
        raw: &RawLeapList<V>,
        tx: &mut Txn<'t>,
        ik: u64,
    ) -> TxResult<SearchWindow<V>> {
        let mut w = SearchWindow::empty();
        let mut x = raw.head();
        for i in (0..raw.params.max_level).rev() {
            loop {
                // SAFETY: head or a node reached through validated reads,
                // kept allocated by the guard.
                let nxt: TaggedPtr<Node<V>> = tx.read(unsafe { &(*x).next[i] })?;
                let n = nxt.as_ptr();
                debug_assert!(!n.is_null(), "levels terminate at the tail");
                // SAFETY: non-null validated successor, guard-protected;
                // `high` is immutable.
                if unsafe { &*n }.high >= ik {
                    w.pa[i] = x;
                    w.na[i] = n;
                    break;
                }
                x = n;
            }
        }
        Ok(w)
    }

    /// Inserts or updates `key -> value` in one transaction.
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX`.
    pub fn update(&self, key: u64, value: V) -> Option<V> {
        Self::update_owned(&[self], &[key], vec![value])
            .pop()
            // INVARIANT: one input list produces exactly one result entry.
            .expect("one list yields one result")
    }

    /// Removes `key` in one transaction.
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX`.
    pub fn remove(&self, key: u64) -> Option<V> {
        Self::remove_batch(&[self], &[key])
            .pop()
            // INVARIANT: one input list produces exactly one result entry.
            .expect("one list yields one result")
    }

    /// Composite multi-list update inside a single transaction.
    ///
    /// # Panics
    ///
    /// Panics if slices differ in length, a key is `u64::MAX`, or lists do
    /// not share a domain.
    pub fn update_batch(lists: &[&Self], keys: &[u64], values: &[V]) -> Vec<Option<V>> {
        assert_eq!(keys.len(), values.len());
        Self::update_owned(lists, keys, values.to_vec())
    }

    /// [`Self::update_batch`] with the values moved in: each belongs to the
    /// call until the commit hands it to its list, and every attempt only
    /// copies it bitwise (see `node.rs`).
    // Lock-step level-indexed walks over fixed-size pointer arrays: the
    // index couples several arrays, so iterator rewrites obscure the wiring.
    #[allow(clippy::needless_range_loop)]
    fn update_owned(lists: &[&Self], keys: &[u64], values: Vec<V>) -> Vec<Option<V>> {
        assert_eq!(lists.len(), keys.len());
        // INVARIANT: documented panic — an empty batch is a caller bug.
        let first = lists.first().expect("batch must be non-empty");
        first.check_batch(lists, keys);
        let values: Vec<ManuallyDrop<V>> = values.into_iter().map(ManuallyDrop::new).collect();
        let guard = pin();
        let mut backoff = Backoff::new();
        loop {
            let mut tx = Txn::begin(&first.domain);
            let mut plans: Vec<UpdatePlan<V>> = Vec::with_capacity(lists.len());
            let body: TxResult<Vec<Option<V>>> = (|| {
                let mut out = Vec::with_capacity(lists.len());
                for ((l, k), v) in lists.iter().zip(keys.iter()).zip(values.iter()) {
                    let ik = internal_key(*k);
                    // SAFETY: `guard` pins the epoch for the whole attempt.
                    let w = unsafe { Self::search_tx(&l.raw, &mut tx, ik) }?;
                    let n = w.target();
                    let b = build_update(
                        // SAFETY: reached through validated reads, under
                        // guard; data is immutable.
                        unsafe { &*n },
                        ik,
                        v,
                        &l.raw.params,
                        &mut rand::thread_rng(),
                    );
                    let mut plan = UpdatePlan {
                        w,
                        n,
                        n0: b.n0,
                        n1: b.n1.unwrap_or(std::ptr::null_mut()),
                        split: b.n1.is_some(),
                        max_height: b.max_height,
                        old_value: b.old_value,
                        overwritten: b.overwritten,
                        published: Cell::new(false),
                    };
                    let mut n_next = [TaggedPtr::null(); MAX_LEVEL_CAP];
                    // SAFETY: `n` stays guard-protected; `level` is
                    // immutable and bounds the live `next` array.
                    for i in 0..unsafe { &*n }.level {
                        // SAFETY: i < n.level indexes in-bounds TVars.
                        n_next[i] = tx.read(unsafe { &(*n).next[i] })?;
                    }
                    // SAFETY: plan nodes are unpublished (exclusive) and
                    // window nodes validated by this transaction.
                    unsafe { common::wire_update_tx(&mut tx, &plan, &n_next) }?;
                    out.push(plan.old_value.take());
                    plans.push(plan);
                }
                Ok(out)
            })();
            match body {
                Ok(out) => {
                    if tx.commit().is_ok() {
                        for plan in &plans {
                            plan.mark_published();
                            // SAFETY: the committed swing unlinked `plan.n`,
                            // so this commit alone retires it (with the value
                            // it overwrote); the grace period covers
                            // in-flight readers.
                            unsafe {
                                (*plan.n).set_departed(plan.overwritten.as_slice());
                                // lint:allow(reclamation-discipline): the TM variant has no version
                                // bundles and no snapshot pins — every reader reaches nodes through
                                // the live transactional structure only, so the plain EBR grace
                                // period is the full safety argument.
                                guard.defer_drop_box(plan.n);
                            }
                        }
                        return out;
                    }
                }
                Err(_) => drop(tx),
            }
            drop(plans); // frees unpublished nodes from the failed attempt
            backoff.snooze();
        }
    }

    /// Composite multi-list remove inside a single transaction.
    ///
    /// # Panics
    ///
    /// As for [`LeapListTm::update_batch`].
    // Lock-step level-indexed walks over fixed-size pointer arrays: the
    // index couples several arrays, so iterator rewrites obscure the wiring.
    #[allow(clippy::needless_range_loop)]
    pub fn remove_batch(lists: &[&Self], keys: &[u64]) -> Vec<Option<V>> {
        assert_eq!(lists.len(), keys.len());
        // INVARIANT: documented panic — an empty batch is a caller bug.
        let first = lists.first().expect("batch must be non-empty");
        first.check_batch(lists, keys);
        let guard = pin();
        let mut backoff = Backoff::new();
        loop {
            let mut tx = Txn::begin(&first.domain);
            let mut plans: Vec<Option<RemovePlan<V>>> = Vec::with_capacity(lists.len());
            let body: TxResult<Vec<Option<V>>> = (|| {
                let mut out = Vec::with_capacity(lists.len());
                for (l, k) in lists.iter().zip(keys.iter()) {
                    let ik = internal_key(*k);
                    // SAFETY: `guard` pins the epoch for the whole attempt.
                    let w = unsafe { Self::search_tx(&l.raw, &mut tx, ik) }?;
                    let n0 = w.target();
                    // SAFETY: as in update_batch.
                    let n0_ref = unsafe { &*n0 };
                    if n0_ref.index_of(ik).is_none() {
                        out.push(None);
                        plans.push(None);
                        continue;
                    }
                    let s: TaggedPtr<Node<V>> = tx.read(&n0_ref.next[0])?;
                    let n1 = s.as_ptr();
                    let merge = !n1.is_null()
                        // SAFETY: `n1` null-checked first; a validated
                        // non-null successor is guard-protected.
                        && n0_ref.count() + unsafe { &*n1 }.count() <= l.raw.params.node_size;
                    // SAFETY: `merge` implies `n1` is non-null (see above).
                    let n1_opt = if merge { Some(unsafe { &*n1 }) } else { None };
                    let b = build_remove(n0_ref, n1_opt, ik, merge)
                        // INVARIANT: the binary search above found `ik`.
                        .expect("key present per the search above");
                    let mut plan = RemovePlan {
                        w,
                        n0,
                        n1,
                        merge,
                        n_new: b.n_new,
                        old_value: Some(b.old_value),
                        removed: b.removed,
                        published: Cell::new(false),
                    };
                    let mut n0_next = [TaggedPtr::null(); MAX_LEVEL_CAP];
                    for i in 0..n0_ref.level {
                        n0_next[i] = tx.read(&n0_ref.next[i])?;
                    }
                    let mut n1_next = [TaggedPtr::null(); MAX_LEVEL_CAP];
                    if merge {
                        // SAFETY: `merge` implies non-null `n1`, guard-
                        // protected; `level` bounds the live `next` array.
                        for i in 0..unsafe { &*n1 }.level {
                            // SAFETY: i < n1.level indexes in-bounds TVars.
                            n1_next[i] = tx.read(unsafe { &(*n1).next[i] })?;
                        }
                    }
                    // SAFETY: plan nodes are unpublished (exclusive) and
                    // window nodes validated by this transaction.
                    unsafe { common::wire_remove_tx(&mut tx, &plan, &n0_next, &n1_next) }?;
                    out.push(plan.old_value.take());
                    plans.push(Some(plan));
                }
                Ok(out)
            })();
            match body {
                Ok(out) => {
                    if tx.commit().is_ok() {
                        for plan in plans.iter().flatten() {
                            plan.mark_published();
                            // SAFETY: the committed swing unlinked `n0`, so
                            // this commit alone retires it (with the removed
                            // value); the grace period covers in-flight
                            // readers.
                            unsafe {
                                (*plan.n0).set_departed(&[plan.removed]);
                                // lint:allow(reclamation-discipline): the TM variant has no version
                                // bundles and no snapshot pins — every reader reaches nodes through
                                // the live transactional structure only, so the plain EBR grace
                                // period is the full safety argument.
                                guard.defer_drop_box(plan.n0);
                            }
                            if plan.merge {
                                // SAFETY: the merge swing unlinked `n1` too.
                                // lint:allow(reclamation-discipline): as above — TM has no
                                // snapshot readers, plain EBR suffices.
                                unsafe { guard.defer_drop_box(plan.n1) };
                            }
                        }
                        return out;
                    }
                }
                Err(_) => drop(tx),
            }
            drop(plans);
            backoff.snooze();
        }
    }

    fn check_batch(&self, lists: &[&Self], keys: &[u64]) {
        assert!(!lists.is_empty(), "batch must be non-empty");
        for k in keys {
            assert!(*k < u64::MAX, "key u64::MAX is reserved");
        }
        for (i, l) in lists.iter().enumerate() {
            assert!(
                Arc::ptr_eq(&l.domain, &self.domain),
                "batched lists must share one StmDomain"
            );
            for m in &lists[..i] {
                assert!(
                    !std::ptr::eq(*l as *const Self, *m as *const Self),
                    "a list may appear only once per batch"
                );
            }
        }
    }

    /// Transactional lookup (instrumented traversal).
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX`.
    pub fn lookup(&self, key: u64) -> Option<V> {
        assert!(key < u64::MAX, "key u64::MAX is reserved");
        let ik = internal_key(key);
        let _guard = pin();
        let mut backoff = Backoff::new();
        loop {
            let mut tx = Txn::begin(&self.domain);
            let body: TxResult<Option<V>> = (|| {
                // SAFETY: `_guard` pins the epoch for the whole attempt.
                let w = unsafe { Self::search_tx(&self.raw, &mut tx, ik) }?;
                // SAFETY: under guard; data immutable.
                let n = unsafe { &*w.target() };
                Ok(n.index_of(ik).map(|i| n.data[i].1.clone()))
            })();
            if let Ok(v) = body {
                if tx.commit().is_ok() {
                    return v;
                }
            } else {
                drop(tx);
            }
            backoff.snooze();
        }
    }

    /// Transactional range query: instrumented search plus instrumented
    /// level-0 walk.
    ///
    /// # Panics
    ///
    /// Panics if `hi == u64::MAX`.
    pub fn range_query(&self, lo: u64, hi: u64) -> Vec<(u64, V)> {
        assert!(hi < u64::MAX, "key u64::MAX is reserved");
        if lo > hi {
            return Vec::new();
        }
        let (ilo, ihi) = (internal_key(lo), internal_key(hi));
        let _guard = pin();
        let mut backoff = Backoff::new();
        loop {
            let mut tx = Txn::begin(&self.domain);
            let body: TxResult<Vec<*mut Node<V>>> = (|| {
                // SAFETY: `_guard` pins the epoch for the whole attempt.
                let w = unsafe { Self::search_tx(&self.raw, &mut tx, ilo) }?;
                let mut nodes = Vec::new();
                let mut n = w.target();
                loop {
                    // SAFETY: validated transactional reads under guard.
                    let node = unsafe { &*n };
                    nodes.push(n);
                    if node.high >= ihi {
                        return Ok(nodes);
                    }
                    let s: TaggedPtr<Node<V>> = tx.read(&node.next[0])?;
                    n = s.as_ptr();
                }
            })();
            if let Ok(nodes) = body {
                if tx.commit().is_ok() {
                    // SAFETY: nodes captured by validated reads, still under
                    // `_guard`; `data` is immutable.
                    return unsafe { common::extract_pairs(&nodes, ilo, ihi) };
                }
            } else {
                drop(tx);
            }
            backoff.snooze();
        }
    }

    /// Approximate number of keys (naked walk; exact when quiescent).
    pub fn len(&self) -> usize {
        let _guard = pin();
        self.raw.len_unsynced()
    }

    /// Whether the list holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V: Clone + Send + Sync + 'static> std::fmt::Debug for LeapListTm<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeapListTm")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Params {
        Params {
            node_size: 4,
            max_level: 6,
            ..Params::default()
        }
    }

    #[test]
    fn roundtrip() {
        let l: LeapListTm<u64> = LeapListTm::new(small());
        assert_eq!(l.update(9, 90), None);
        assert_eq!(l.update(9, 91), Some(90));
        assert_eq!(l.lookup(9), Some(91));
        assert_eq!(l.remove(9), Some(91));
        assert_eq!(l.lookup(9), None);
    }

    #[test]
    fn many_keys_split_and_query() {
        let l: LeapListTm<u64> = LeapListTm::new(small());
        for k in (0..60u64).rev() {
            l.update(k, k);
        }
        assert_eq!(l.len(), 60);
        let r = l.range_query(10, 19);
        assert_eq!(r.len(), 10);
        assert_eq!(r[0], (10, 10));
        assert_eq!(r[9], (19, 19));
    }

    #[test]
    fn removes_trigger_merges() {
        let l: LeapListTm<u64> = LeapListTm::new(small());
        for k in 0..40u64 {
            l.update(k, k);
        }
        for k in 0..36u64 {
            assert_eq!(l.remove(k), Some(k));
        }
        assert_eq!(l.len(), 4);
        assert_eq!(
            l.range_query(0, 100),
            (36..40).map(|k| (k, k)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn batch_updates_multiple_lists() {
        let lists = LeapListTm::<u64>::group(2, small());
        let refs: Vec<&_> = lists.iter().collect();
        LeapListTm::update_batch(&refs, &[5, 6], &[50, 60]);
        assert_eq!(lists[0].lookup(5), Some(50));
        assert_eq!(lists[1].lookup(6), Some(60));
        let old = LeapListTm::remove_batch(&refs, &[5, 777]);
        assert_eq!(old, vec![Some(50), None]);
    }
}
