//! **Leap-tm** — the direct-STM baseline: every operation, traversal
//! included, runs inside one transaction (paper §1.2 "Pure STM"). Each
//! pointer hop is an instrumented read, which is precisely the overhead the
//! paper found unacceptable; this variant exists to reproduce that
//! comparison.

use crate::node::{internal_key, Node};
use crate::plan::{one_op_plan, ListOp, OneOp, Unsettled};
use crate::raw::{RawLeapList, SearchWindow};
use crate::variants::common;
use crate::wire::wire_segment_tx;
use crate::Params;
use leap_ebr::pin;
use leap_stm::{Backoff, StmDomain, TaggedPtr, TxResult, Txn};
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
    /// Creates an empty list with its own domain.
    pub fn new(params: Params) -> Self {
        Self::with_domain(params, Arc::new(StmDomain::new()))
    }

    /// Creates an empty list on a shared domain.
    pub fn with_domain(params: Params, domain: Arc<StmDomain>) -> Self {
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
        Self::write(&[self], vec![ListOp::put(key, value)]).remove(0)
    }

    /// Removes `key` in one transaction.
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX`.
    pub fn remove(&self, key: u64) -> Option<V> {
        Self::write(&[self], vec![ListOp::del(key)]).remove(0)
    }

    /// Composite multi-list update inside a single transaction.
    ///
    /// # Panics
    ///
    /// Panics if slices differ in length, a key is `u64::MAX`, lists do
    /// not share a domain, or a list repeats.
    pub fn update_batch(lists: &[&Self], keys: &[u64], values: &[V]) -> Vec<Option<V>> {
        assert_eq!(keys.len(), values.len());
        let ops = keys
            .iter()
            .zip(values)
            .map(|(&k, v)| ListOp::put(k, v.clone()));
        Self::write(lists, ops.collect())
    }

    /// Composite multi-list remove inside a single transaction.
    ///
    /// # Panics
    ///
    /// As for [`LeapListTm::update_batch`].
    pub fn remove_batch(lists: &[&Self], keys: &[u64]) -> Vec<Option<V>> {
        Self::write(lists, keys.iter().map(|&k| ListOp::del(k)).collect())
    }

    /// The one write path: `ops[j]` against `lists[j]`, all inside one
    /// transaction. Each op searches transactionally, builds its one-op
    /// segment from that window, then validates and wires it with
    /// transactional writes. A `Put` value goes to its list with the
    /// commit; every attempt only copies it bitwise (see `node.rs`).
    fn write(lists: &[&Self], ops: Vec<ListOp<V>>) -> Vec<Option<V>> {
        assert_eq!(lists.len(), ops.len());
        common::check_group(lists, |l| &l.domain);
        let ops = Unsettled(ops);
        let guard = pin();
        let mut backoff = Backoff::new();
        loop {
            let mut tx = Txn::begin(&lists[0].domain);
            let mut plans: Vec<OneOp<V>> = Vec::with_capacity(lists.len());
            let body: TxResult<()> = (|| {
                for (l, op) in lists.iter().zip(&ops.0) {
                    // SAFETY: `guard` pins the epoch for the whole attempt.
                    let w = unsafe { Self::search_tx(&l.raw, &mut tx, op.ik()) }?;
                    // SAFETY: reached through validated reads, under guard.
                    let n = unsafe { &*w.target() };
                    let succ = match op {
                        ListOp::Del(ik) if n.index_of(*ik).is_some() => {
                            tx.read(&n.next[0])?.as_ptr()
                        }
                        _ => std::ptr::null_mut(),
                    };
                    // SAFETY: window and successor read by `tx` under guard.
                    let plan = unsafe { one_op_plan(&l.raw.params, w, succ, op) };
                    if let Some(seg) = &plan.0 {
                        // SAFETY: plan pointers are protected by `guard`.
                        let v = unsafe { common::validate_segment(&mut tx, seg) }?;
                        // SAFETY: `v` validated `seg` in `tx`; its chain is
                        // unpublished (exclusive).
                        unsafe { wire_segment_tx(&mut tx, seg, &v) }?;
                    }
                    plans.push(plan);
                }
                Ok(())
            })();
            if body.is_ok() && tx.commit().is_ok() {
                // The values went to the nodes that carry them.
                ops.committed();
                return plans
                    .into_iter()
                    // SAFETY: the committed swings unlinked every dying
                    // node, which this commit alone retires (with its
                    // departures); the grace period covers in-flight readers.
                    .map(|plan| unsafe {
                        common::retire_plan(plan, |o| {
                            // lint:allow(reclamation-discipline): the TM variant has no version
                            // bundles and no snapshot pins — every reader reaches nodes through
                            // the live transactional structure only, so the plain EBR grace
                            // period is the full safety argument.
                            guard.defer_drop_box(o)
                        })
                    })
                    .collect();
            }
            drop(plans); // frees unpublished nodes from the failed attempt
            backoff.snooze();
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
