//! **Leap-COP** — consistency-oblivious programming over plain STM: the
//! read-only prefix (search + node construction) runs uninstrumented, then
//! a single transaction re-validates the prefix *and performs every write
//! transactionally* (paper §1.2). Compared with LT, the transaction is
//! longer (it carries the pointer surgery, not just lock acquisition) and
//! range queries / lookups behave the same, so the evaluation isolates the
//! cost of transactional writes.

use crate::node::internal_key;
use crate::plan::{plan_single, ListOp, OneOp, Unsettled};
use crate::raw::RawLeapList;
use crate::variants::common;
use crate::wire::wire_segment_tx;
use crate::Params;
use leap_ebr::pin;
use leap_stm::{Backoff, StmDomain, TxResult, Txn};
use std::sync::Arc;

/// A Leap-List synchronized with COP (validation + transactional writes).
///
/// # Example
///
/// ```
/// use leaplist::{LeapListCop, Params};
/// let list: LeapListCop<u64> = LeapListCop::new(Params::default());
/// list.update(1, 11);
/// assert_eq!(list.lookup(1), Some(11));
/// assert_eq!(list.range_query(0, 5), vec![(1, 11)]);
/// ```
pub struct LeapListCop<V> {
    raw: RawLeapList<V>,
    domain: Arc<StmDomain>,
}

impl<V: Clone + Send + Sync + 'static> LeapListCop<V> {
    /// Creates an empty list with its own domain.
    pub fn new(params: Params) -> Self {
        Self::with_domain(params, Arc::new(StmDomain::new()))
    }

    /// Creates an empty list on a shared domain.
    pub fn with_domain(params: Params, domain: Arc<StmDomain>) -> Self {
        LeapListCop {
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

    /// Inserts or updates `key -> value`, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX`.
    pub fn update(&self, key: u64, value: V) -> Option<V> {
        Self::write(&[self], vec![ListOp::put(key, value)]).remove(0)
    }

    /// Removes `key`, returning its value if present.
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX`.
    pub fn remove(&self, key: u64) -> Option<V> {
        Self::write(&[self], vec![ListOp::del(key)]).remove(0)
    }

    /// Composite multi-list update (one transaction across all lists).
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

    /// Composite multi-list remove (one transaction across all lists).
    ///
    /// # Panics
    ///
    /// As for [`LeapListCop::update_batch`].
    pub fn remove_batch(lists: &[&Self], keys: &[u64]) -> Vec<Option<V>> {
        Self::write(lists, keys.iter().map(|&k| ListOp::del(k)).collect())
    }

    /// The one write path: `ops[j]` against `lists[j]`. Each op is planned
    /// outside the transaction as a one-op segment; one transaction then
    /// validates every segment and performs all of the pointer surgery
    /// with transactional writes. A `Put` value goes to its list with the
    /// commit; every attempt only copies it bitwise (see `node.rs`).
    fn write(lists: &[&Self], ops: Vec<ListOp<V>>) -> Vec<Option<V>> {
        assert_eq!(lists.len(), ops.len());
        common::check_group(lists, |l| &l.domain);
        let ops = Unsettled(ops.into());
        let guard = pin();
        // Hand-rolled: planning precedes `Txn::begin`, so the read version is as fresh as the plan.
        let mut backoff = Backoff::new();
        loop {
            let plans: Vec<OneOp<V>> = lists
                .iter()
                .zip(ops.0.iter())
                // SAFETY: `guard` pins the epoch for the whole attempt.
                .map(|(l, op)| unsafe { plan_single(&l.raw, op) })
                .collect();
            let mut tx = Txn::begin(&lists[0].domain);
            let done: TxResult<()> = (|| {
                for seg in plans.iter().filter_map(|(seg, _)| seg.as_ref()) {
                    // SAFETY: plan pointers are protected by `guard`.
                    let v = unsafe { common::validate_segment(&mut tx, seg) }?;
                    // SAFETY: `v` validated `seg` in `tx`; its chain is
                    // unpublished (exclusive).
                    unsafe { wire_segment_tx(&mut tx, seg, &v) }?;
                }
                Ok(())
            })();
            if done.is_ok() && tx.commit().is_ok() {
                // The values went to the nodes that carry them.
                ops.committed();
                return plans
                    .into_iter()
                    // SAFETY: the committed swings unlinked every dying
                    // node, which this commit alone retires (with its
                    // departures); the grace period covers in-flight readers.
                    .map(|plan| unsafe {
                        common::retire_plan(plan, |o| {
                            // lint:allow(reclamation-discipline): the COP variant has no version
                            // bundles and no snapshot pins — every reader reaches nodes through
                            // the live structure only, so the plain EBR grace period is the full
                            // safety argument.
                            guard.defer_drop_box(o)
                        })
                    })
                    .collect();
            }
            drop(plans);
            backoff.snooze();
        }
    }

    /// Linearizable lookup (identical to LT's: COP search, no transaction).
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX`.
    pub fn lookup(&self, key: u64) -> Option<V> {
        assert!(key < u64::MAX, "key u64::MAX is reserved");
        let _guard = pin();
        // SAFETY: `_guard` pins the epoch for the whole lookup.
        unsafe { common::cop_lookup(&self.raw, internal_key(key)) }
    }

    /// Linearizable range query (the one transactional read LT uses too).
    ///
    /// # Panics
    ///
    /// Panics if `hi == u64::MAX`.
    pub fn range_query(&self, lo: u64, hi: u64) -> Vec<(u64, V)> {
        common::group_pairs(&[self], &[(lo, hi)], |l| (&l.raw, &l.domain), usize::MAX)
            .pop()
            // INVARIANT: one input list produces exactly one result entry.
            .expect("one list yields one result")
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

impl<V: Clone + Send + Sync + 'static> std::fmt::Debug for LeapListCop<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeapListCop")
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
    fn roundtrip_and_splits() {
        let l: LeapListCop<u64> = LeapListCop::new(small());
        for k in 0..80u64 {
            assert_eq!(l.update(k, k + 1), None);
        }
        for k in 0..80u64 {
            assert_eq!(l.lookup(k), Some(k + 1));
        }
        assert_eq!(l.update(5, 99), Some(6));
        for k in 0..40u64 {
            assert_eq!(
                l.remove(k * 2),
                Some(if k * 2 == 5 { 99 } else { k * 2 + 1 })
            );
        }
        assert_eq!(l.len(), 40);
    }

    #[test]
    fn range_query_snapshot_contents() {
        let l: LeapListCop<u64> = LeapListCop::new(small());
        for k in 0..30u64 {
            l.update(k, 1000 + k);
        }
        assert_eq!(l.range_query(28, 40), vec![(28, 1028), (29, 1029)]);
    }

    #[test]
    fn batch_is_atomic_per_call() {
        let lists = LeapListCop::<u64>::group(3, small());
        let refs: Vec<&_> = lists.iter().collect();
        LeapListCop::update_batch(&refs, &[7, 7, 7], &[1, 2, 3]);
        assert_eq!(lists[0].lookup(7), Some(1));
        assert_eq!(lists[1].lookup(7), Some(2));
        assert_eq!(lists[2].lookup(7), Some(3));
    }
}
