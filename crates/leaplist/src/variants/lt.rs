//! **Leap-LT** — the paper's proposed algorithm (§2): COP searches plus
//! *Locking Transactions*. The transaction is used only to validate the
//! uninstrumented prefix and to acquire logical locks (mark the window
//! pointers, clear the `live` bits); the actual pointer surgery runs after
//! commit as plain atomic stores, and lookups execute no transaction at
//! all. Range queries execute one instrumented access per node, i.e. per
//! `K` keys.

use crate::node::{internal_key, Node};
use crate::plan::{plan_multi, settle, Few, ListOp, ListPlan, Unsettled};
use crate::raw::RawLeapList;
use crate::variants::common;
use crate::{BatchOp, Params};
use leap_ebr::pin;
use leap_stm::{Backoff, StmDomain, TxResult, Txn};
use std::sync::Arc;

/// A Leap-List synchronized with the paper's Locking-Transactions scheme.
///
/// This is the headline structure: linearizable `update` / `remove` /
/// `lookup` / `range_query`, with composable multi-list
/// [`LeapListLt::update_batch`] / [`LeapListLt::remove_batch`] when lists
/// share a domain (see [`LeapListLt::group`]).
///
/// # Example
///
/// ```
/// use leaplist::{LeapListLt, Params};
/// let list: LeapListLt<u64> = LeapListLt::new(Params::default());
/// list.update(10, 100);
/// list.update(20, 200);
/// assert_eq!(list.lookup(10), Some(100));
/// assert_eq!(list.range_query(0, 50), vec![(10, 100), (20, 200)]);
/// assert_eq!(list.remove(20), Some(200));
/// ```
pub struct LeapListLt<V> {
    raw: RawLeapList<V>,
    domain: Arc<StmDomain>,
    /// High-water mark of the level-0 bundle depth observed by this list's
    /// commits (diagnostics: bounded by commits-per-pin-lifetime + 1).
    bundle_depth: std::sync::atomic::AtomicU64,
    /// Retired nodes parked until no snapshot pin can still resolve onto
    /// them (see [`crate::bundle::Limbo`]): plain EBR deferral is not
    /// enough for nodes a bundle walk can reach back in time.
    limbo: crate::bundle::Limbo<V>,
}

impl<V: Clone + Send + Sync + 'static> LeapListLt<V> {
    /// Creates an empty list with its own transactional domain.
    pub fn new(params: Params) -> Self {
        Self::with_domain(params, Arc::new(StmDomain::new()))
    }

    /// Creates an empty list on a shared domain. Lists that participate in
    /// the same batched updates must share a domain.
    pub fn with_domain(params: Params, domain: Arc<StmDomain>) -> Self {
        LeapListLt {
            raw: RawLeapList::new(params),
            domain,
            bundle_depth: std::sync::atomic::AtomicU64::new(1),
            limbo: crate::bundle::Limbo::new(),
        }
    }

    /// Creates `n` lists sharing one fresh domain — the paper's `L`
    /// Leap-Lists (`L = 4` in the evaluation), e.g. one per table index.
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

    /// The structure parameters.
    pub fn params(&self) -> &Params {
        &self.raw.params
    }

    /// Inserts or updates `key -> value`, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX` (reserved for the tail sentinel).
    pub fn update(&self, key: u64, value: V) -> Option<V> {
        self.apply_one(ListOp::put(key, value))
    }

    /// Removes `key`, returning its value if present.
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX`.
    pub fn remove(&self, key: u64) -> Option<V> {
        self.apply_one(ListOp::del(key))
    }

    /// One op on this list, through [`LeapListLt::apply_owned`] with its
    /// group, plan and result inline: it allocates only its data.
    fn apply_one(&self, op: ListOp<V>) -> Option<V> {
        Self::apply_owned(&[self], Few::one(Unsettled(Few::one(op))))
            .into_iter()
            .flatten()
            .next()
            // INVARIANT: one input list/op produces exactly one result entry.
            .expect("one op yields one result")
    }

    /// The paper's composite `Update(ll, k, v, s)`: applies
    /// `lists[j].update(keys[j], values[j])` for all `j` as **one**
    /// linearizable action. Returns the previous values.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, the batch is empty, any key
    /// is `u64::MAX`, lists do not share one domain, or the same list
    /// appears twice.
    pub fn update_batch(lists: &[&Self], keys: &[u64], values: &[V]) -> Vec<Option<V>> {
        assert_eq!(keys.len(), values.len());
        let ops = keys
            .iter()
            .zip(values)
            .map(|(&k, v)| Unsettled(Few::one(ListOp::put(k, v.clone()))))
            .collect();
        // One op per group, so one result per group.
        Self::apply_owned(lists, ops)
            .into_iter()
            .flatten()
            .collect()
    }

    /// The paper's composite `Remove(ll, k, s)`: removes `keys[j]` from
    /// `lists[j]` for all `j` as one linearizable action.
    ///
    /// # Panics
    ///
    /// As for [`LeapListLt::update_batch`].
    pub fn remove_batch(lists: &[&Self], keys: &[u64]) -> Vec<Option<V>> {
        let ops = keys
            .iter()
            .map(|&k| Unsettled(Few::one(ListOp::del(k))))
            .collect();
        // One op per group, so one result per group.
        Self::apply_owned(lists, ops)
            .into_iter()
            .flatten()
            .collect()
    }

    /// Applies **k operations per list** — updates and removes interleaved,
    /// duplicate keys allowed — across multiple lists as **one**
    /// linearizable action: a single locking transaction validates and
    /// acquires every affected node chain in every list, and the chains
    /// are wired after commit. `ops[j]` is the op group for `lists[j]`,
    /// applied in group order (so `[Update(k, 1), Update(k, 2)]` leaves
    /// `k -> 2` and returns `[None, Some(1)]`).
    ///
    /// This is the primitive a sharded store needs to commit a batch that
    /// maps several keys to one shard without serializing writers: the
    /// per-list chain rebuild (see `plan.rs`) runs outside the
    /// transaction, keeping the paper's wiring-only-transaction property
    /// at any batch size.
    ///
    /// Returns the previous values per list, in group order. Empty groups
    /// yield empty result vectors. Each update's value is cloned once, into
    /// the list; [`LeapListLt::update`] moves its value in instead.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, the batch is empty, any key
    /// is `u64::MAX`, lists do not share one domain, or the same list
    /// appears twice.
    pub fn apply_batch_grouped(lists: &[&Self], ops: &[&[BatchOp<V>]]) -> Vec<Vec<Option<V>>> {
        let groups = ops
            .iter()
            .map(|g| {
                Unsettled(
                    g.iter()
                        .map(|op| match op {
                            BatchOp::Update(k, v) => ListOp::put(*k, v.clone()),
                            BatchOp::Remove(k) => ListOp::del(*k),
                        })
                        .collect(),
                )
            })
            .collect();
        Self::apply_owned(lists, groups)
            .into_iter()
            .map(Few::into_vec)
            .collect()
    }

    /// The one write path: `groups[j]` is list `j`'s op group, and the
    /// result holds its previous values in group order. Each update's
    /// value belongs to the batch until the commit, which hands it to the
    /// list ([`settle`]); every attempt only copies it bitwise. A batch
    /// abandoned by a retry budget drops it ([`Unsettled`]). One list's
    /// groups, plans and results are inline ([`Few`]).
    fn apply_owned(lists: &[&Self], groups: Few<Unsettled<V>>) -> Few<Few<Option<V>>> {
        assert_eq!(lists.len(), groups.len());
        // INVARIANT: documented panic — an empty batch is a caller bug.
        let domain = &lists.first().expect("batch must be non-empty").domain;
        common::check_group(lists, |l| &l.domain);
        let guard = pin();
        // Hand-rolled: the wiring ticket is taken between body and commit, which is stamped.
        let mut backoff = Backoff::new();
        loop {
            // Setup: per-list chain rebuild (COP searches + replacement
            // chain construction), entirely outside the transaction.
            let mut plans: Few<ListPlan<V>> = lists
                .iter()
                .zip(groups.iter())
                // SAFETY: `guard` pins the epoch for this whole loop body.
                .map(|(l, g)| unsafe { plan_multi(&l.raw, &g.0) })
                .collect();
            // LT: one transaction validates and acquires every segment of
            // every list — in two passes, validation before any marking,
            // because same-commit segments may share window TVars (a tall
            // dying node of one segment can be another's level-i
            // predecessor): a validation reading a pointer the previous
            // segment already marked would abort forever.
            let mut tx = Txn::begin(domain);
            let acquired: TxResult<()> = (|| {
                for seg in plans.iter_mut().flat_map(|p| p.segments.iter_mut()) {
                    // SAFETY: plan pointers are protected by `guard`.
                    seg.validated = Some(unsafe { common::validate_segment(&mut tx, seg) }?);
                }
                for seg in plans.iter().flat_map(|p| p.segments.iter()) {
                    // INVARIANT: the first pass validated every segment.
                    let vs = seg.validated.as_ref().expect("validated above");
                    // SAFETY: plan pointers are protected by `guard`.
                    unsafe { common::mark_segment(&mut tx, seg, vs) }?;
                }
                Ok(())
            })();
            // Register as wiring *before* the commit can bump the clock:
            // while the ticket is live, no snapshot can pin a timestamp
            // at-or-past this commit's `wv`, so the post-commit pointer
            // surgery and bundle stamping below are invisible to every
            // pinnable snapshot. The ticket drops on every exit path.
            let ticket = domain.begin_wiring();
            if acquired.is_ok() {
                if let Ok(wv) = tx.commit_stamped() {
                    let groups: Few<Few<ListOp<V>>> =
                        groups.into_iter().map(Unsettled::committed).collect();
                    common::record_commit(domain, &backoff);
                    let bound = domain.prune_bound();
                    // Release-and-update: wire every chain and stamp
                    // version bundles.
                    let mut out = Few::with_capacity(plans.len());
                    for (plan, list) in plans.iter_mut().zip(lists.iter()) {
                        let mut depth = 0u64;
                        for seg in plan.segments.iter_mut() {
                            // SAFETY: the committed transaction owns every
                            // marked window, `guard` protects the plan's
                            // pointers, and the live wiring ticket hides
                            // the intermediate states from snapshots.
                            unsafe {
                                // Wire the chain internals, stamp bundles
                                // while the level-0 lease is still held,
                                // then publish (swing + live).
                                crate::wire::wire_chain(seg);
                                depth =
                                    depth
                                        .max(crate::bundle::stamp_segment(seg, wv, bound, &guard)
                                            as u64);
                                crate::wire::publish_segment(seg);
                            }
                            seg.mark_published();
                        }
                        list.bundle_depth
                            // ORDERING: monotonic stat counter; readers
                            // only need an eventual high-water mark.
                            .fetch_max(depth, std::sync::atomic::Ordering::Relaxed);
                        out.push(std::mem::take(&mut plan.results));
                    }
                    drop(ticket);
                    // Retire the dying nodes only now, with a bound read
                    // after the wiring window closed: a snapshot pinned at
                    // `ts < wv` may still resolve bundles onto them, so
                    // they park in the limbo until the prune bound passes
                    // `wv`, and only then enter the EBR queue.
                    let drain_bound = domain.prune_bound();
                    for (plan, list) in plans.iter().zip(lists.iter()) {
                        let dying = plan.segments.iter().flat_map(|s| s.old.iter().copied());
                        // SAFETY: the dying nodes were unlinked by the
                        // publish swings above and stamped `retired_ts ==
                        // wv`; `drain_bound` was read after the ticket
                        // dropped (wiring window closed).
                        unsafe { list.limbo.park_and_drain(wv, dying, drain_bound, &guard) };
                    }
                    groups.into_iter().for_each(settle);
                    return out;
                }
            }
            drop(ticket);
            drop(plans); // frees the unpublished replacement chains
            backoff.snooze();
        }
    }

    /// Linearizable lookup (Fig. 4) — **no transaction at all**, the key
    /// performance property of LT.
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

    /// Linearizable range query (Fig. 5): returns every pair with key in
    /// `[lo, hi]`, from a single consistent snapshot. One instrumented
    /// access per node, i.e. per up-to-`K` keys.
    ///
    /// Returns an empty vector when `lo > hi`.
    ///
    /// # Panics
    ///
    /// Panics if `hi == u64::MAX`.
    pub fn range_query(&self, lo: u64, hi: u64) -> Vec<(u64, V)> {
        self.range_page(lo, hi, usize::MAX)
    }

    /// Linearizable **multi-list** range read, one bounded page per list:
    /// `ranges[j]` over `lists[j]`, at most `limit` pairs each, with every
    /// node-chain walk inside **one** transaction on the shared domain, so
    /// the combined result is a single consistent snapshot across all
    /// lists. This is the group-snapshot primitive a sharded store needs:
    /// a cross-shard range assembled from per-shard snapshots taken at one
    /// linearization point can never observe half of a committed
    /// multi-list batch.
    ///
    /// A page's walk stops as soon as it holds `limit` pairs, so a page
    /// over a million-key range costs `O(limit / K)` instrumented node
    /// accesses per list, not `O(range / K)`; `limit = usize::MAX` reads
    /// the whole ranges. The caller resumes from `last_key + 1`; each page
    /// is its own consistent snapshot (the cursor contract a store scan
    /// needs).
    ///
    /// `ranges[j] = (lo, hi)` is inclusive; an inverted range yields an
    /// empty vector for that list. The same list may appear more than once
    /// (the query is read-only).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, the group is empty, any
    /// `hi == u64::MAX`, the lists do not share one domain, or `limit` is
    /// zero (an empty page cannot carry a resume key).
    pub fn range_page_group(
        lists: &[&Self],
        ranges: &[(u64, u64)],
        limit: usize,
    ) -> Vec<Vec<(u64, V)>> {
        assert!(limit > 0, "a page must hold at least one pair");
        common::group_pairs(lists, ranges, |l| (&l.raw, &l.domain), limit)
    }

    /// Single-list page: up to `limit` pairs with keys in `[lo, hi]`,
    /// ascending, from one consistent snapshot. See
    /// [`LeapListLt::range_page_group`].
    ///
    /// # Panics
    ///
    /// Panics if `hi == u64::MAX` or `limit` is zero.
    pub fn range_page(&self, lo: u64, hi: u64, limit: usize) -> Vec<(u64, V)> {
        Self::range_page_group(&[self], &[(lo, hi)], limit)
            .pop()
            // INVARIANT: one input list/op produces exactly one result entry.
            .expect("one list yields one result")
    }

    /// Like [`LeapListLt::range_page_group`] with no limit, but returns
    /// only the number of pairs per list: the count accumulates inside the
    /// transactional walk itself — no value clones and no node buffer.
    ///
    /// # Panics
    ///
    /// As for [`LeapListLt::range_page_group`], bar its `limit` check.
    pub fn count_range_group(lists: &[&Self], ranges: &[(u64, u64)]) -> Vec<usize> {
        common::group_count(lists, ranges, |l| (&l.raw, &l.domain))
    }

    /// Pins a snapshot of every list sharing this list's domain: the
    /// returned handle carries a snapshot timestamp (the newest fully
    /// wired commit) and, while live, keeps every version visible at it
    /// traversable — bundle pruning and node reclamation both respect it.
    ///
    /// See [`ListSnapshot`] for the read API and the cost of holding one.
    pub fn pin_snapshot(&self) -> ListSnapshot {
        ListSnapshot::pin(&self.domain)
    }

    /// Up to `limit` pairs with keys in `[lo, hi]`, ascending, **as of the
    /// snapshot's timestamp** — a transaction-free, retry-free bundle walk
    /// that concurrent commits can never abort or skew. Pages taken from
    /// one [`ListSnapshot`] (over any lists of its domain) are mutually
    /// consistent: they all observe exactly the commits at-or-before its
    /// timestamp.
    ///
    /// The caller resumes from `last_key + 1`; a short page means the
    /// range is exhausted *at the snapshot* (the live list may differ).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was pinned on a different domain, if
    /// `hi == u64::MAX`, or if `limit` is zero.
    pub fn snapshot_page(
        &self,
        snap: &ListSnapshot,
        lo: u64,
        hi: u64,
        limit: usize,
    ) -> Vec<(u64, V)> {
        let mut out = Vec::new();
        self.snapshot_page_into(snap, lo, hi, limit, &mut out);
        out
    }

    /// As [`LeapListLt::snapshot_page`], appending into `out` (at most
    /// `limit` pairs) — the allocation-reusing form a store's cross-shard
    /// page merge wants.
    ///
    /// # Panics
    ///
    /// As for [`LeapListLt::snapshot_page`].
    pub fn snapshot_page_into(
        &self,
        snap: &ListSnapshot,
        lo: u64,
        hi: u64,
        limit: usize,
        out: &mut Vec<(u64, V)>,
    ) {
        assert!(
            snap.pin.pinned_on(&self.domain),
            "snapshot was pinned on a different StmDomain"
        );
        assert!(hi < u64::MAX, "key u64::MAX is reserved");
        assert!(limit > 0, "a page must hold at least one pair");
        if lo > hi {
            return;
        }
        // SAFETY: `snap` pinned its epoch guard before its timestamp (see
        // `ListSnapshot::pin`), and its SnapshotPin keeps the prune bound
        // at-or-below `ts` — exactly `snapshot_collect`'s contract.
        unsafe {
            crate::bundle::snapshot_collect(
                &self.raw,
                snap.ts(),
                internal_key(lo),
                internal_key(hi),
                limit,
                out,
            );
        }
    }

    /// High-water mark of this list's level-0 version-bundle depth (1 for
    /// a list that never committed under a live snapshot pin; grows with
    /// commits-per-pin-lifetime and shrinks back via pruning on append).
    pub fn max_bundle_depth(&self) -> u64 {
        // ORDERING: diagnostic high-water read; no publication rides on it.
        self.bundle_depth.load(std::sync::atomic::Ordering::Relaxed)
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

    /// Iterates node populations (diagnostics for split/merge tests).
    pub fn node_sizes(&self) -> Vec<usize> {
        let _guard = pin();
        let mut sizes = Vec::new();
        // SAFETY: advisory diagnostic under guard.
        unsafe {
            self.raw.for_each_node(|n| sizes.push(n.count()));
        }
        sizes
    }
}

/// A pinned, multi-list snapshot over one [`StmDomain`]: every
/// [`LeapListLt::snapshot_page`] taken through it — across any lists of
/// the domain — observes exactly the commits at-or-before
/// [`ListSnapshot::ts`], the newest fully wired commit at pin time.
///
/// **Cost of holding one:** while the snapshot is live, (a) version
/// bundles retain one entry per covered commit (bounded memory per write),
/// and (b) the embedded epoch guard holds back node reclamation
/// process-wide. Drop it as soon as the scan finishes. The handle embeds
/// a thread-local epoch guard and is therefore neither `Send` nor `Sync`.
pub struct ListSnapshot {
    /// Epoch guard — pinned FIRST, so any node retired after the
    /// timestamp below was chosen is reclamation-protected.
    _guard: leap_ebr::Guard,
    pin: leap_stm::SnapshotPin,
}

impl ListSnapshot {
    /// Pins a snapshot of every list sharing `domain`. The guard is
    /// pinned before the timestamp is chosen — the order the safety of
    /// every subsequent bundle walk rests on.
    pub fn pin(domain: &Arc<StmDomain>) -> ListSnapshot {
        let guard = pin();
        let pin = domain.pin_snapshot();
        ListSnapshot { _guard: guard, pin }
    }

    /// The pinned snapshot timestamp.
    pub fn ts(&self) -> u64 {
        self.pin.ts()
    }
}

impl std::fmt::Debug for ListSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ListSnapshot")
            .field("ts", &self.ts())
            .finish()
    }
}

impl<V: Clone + Send + Sync + 'static> std::fmt::Debug for LeapListLt<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeapListLt")
            .field("len", &self.len())
            .field("params", &self.raw.params)
            .finish()
    }
}

// Used by `update`/`remove` delegating through slices of `&Self`.
#[allow(dead_code)]
fn _assert_traits<V: Clone + Send + Sync + 'static>() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<LeapListLt<V>>();
    assert_send_sync::<Node<V>>();
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
    fn update_lookup_remove_roundtrip() {
        let l: LeapListLt<u64> = LeapListLt::new(small());
        assert_eq!(l.lookup(7), None);
        assert_eq!(l.update(7, 70), None);
        assert_eq!(l.lookup(7), Some(70));
        assert_eq!(l.update(7, 71), Some(70));
        assert_eq!(l.lookup(7), Some(71));
        assert_eq!(l.remove(7), Some(71));
        assert_eq!(l.remove(7), None);
        assert!(l.is_empty());
    }

    #[test]
    fn splits_keep_all_keys_reachable() {
        let l: LeapListLt<u64> = LeapListLt::new(small());
        for k in 0..100u64 {
            l.update(k, k * 2);
        }
        assert_eq!(l.len(), 100);
        for k in 0..100u64 {
            assert_eq!(l.lookup(k), Some(k * 2), "key {k}");
        }
        // With node_size 4, 100 keys must have split many times.
        assert!(l.node_sizes().len() > 10);
        for s in l.node_sizes() {
            assert!(s <= 4, "node exceeded K");
        }
    }

    #[test]
    fn merges_shrink_node_count() {
        let l: LeapListLt<u64> = LeapListLt::new(small());
        for k in 0..64u64 {
            l.update(k, k);
        }
        let before = l.node_sizes().len();
        for k in 0..56u64 {
            assert_eq!(l.remove(k), Some(k));
        }
        let after = l.node_sizes().len();
        assert!(
            after < before,
            "merges must shrink node count ({before} -> {after})"
        );
        for k in 56..64u64 {
            assert_eq!(l.lookup(k), Some(k));
        }
    }

    #[test]
    fn range_query_is_sorted_and_inclusive() {
        let l: LeapListLt<u64> = LeapListLt::new(small());
        for k in (0..50u64).rev() {
            l.update(k * 2, k);
        }
        let r = l.range_query(10, 20);
        assert_eq!(
            r,
            vec![(10, 5), (12, 6), (14, 7), (16, 8), (18, 9), (20, 10)]
        );
        assert_eq!(l.range_query(21, 21), vec![]);
        assert_eq!(l.range_query(30, 10), vec![], "inverted range is empty");
    }

    #[test]
    fn batch_update_applies_to_all_lists() {
        let lists = LeapListLt::<u64>::group(4, small());
        let refs: Vec<&LeapListLt<u64>> = lists.iter().collect();
        let old = LeapListLt::update_batch(&refs, &[1, 2, 3, 4], &[10, 20, 30, 40]);
        assert_eq!(old, vec![None; 4]);
        for (i, l) in lists.iter().enumerate() {
            assert_eq!(l.lookup(i as u64 + 1), Some((i as u64 + 1) * 10));
        }
        let old = LeapListLt::remove_batch(&refs, &[1, 2, 99, 4]);
        assert_eq!(old, vec![Some(10), Some(20), None, Some(40)]);
        assert_eq!(
            lists[2].lookup(3),
            Some(30),
            "absent key leaves list 3 intact"
        );
    }

    #[test]
    fn group_range_query_spans_lists() {
        let lists = LeapListLt::<u64>::group(3, small());
        for (i, l) in lists.iter().enumerate() {
            for k in 0..10u64 {
                l.update(k + i as u64 * 100, k);
            }
        }
        let refs: Vec<&LeapListLt<u64>> = lists.iter().collect();
        let all = usize::MAX;
        let out = LeapListLt::range_page_group(&refs, &[(0, 5), (100, 105), (300, 400)], all);
        assert_eq!(out[0], (0..=5).map(|k| (k, k)).collect::<Vec<_>>());
        assert_eq!(out[1].len(), 6);
        assert!(out[2].is_empty(), "list 2 holds 200..209 only");
        // Inverted ranges are empty; duplicates of one list are allowed.
        let out = LeapListLt::range_page_group(&refs[..2], &[(5, 0), (201, 200)], all);
        assert!(out[0].is_empty() && out[1].is_empty());
        let dup = LeapListLt::range_page_group(&[&lists[0], &lists[0]], &[(0, 2), (3, 5)], all);
        assert_eq!(dup[0].len() + dup[1].len(), 6);
    }

    #[test]
    fn group_count_matches_group_range() {
        let lists = LeapListLt::<u64>::group(2, small());
        let refs: Vec<&LeapListLt<u64>> = lists.iter().collect();
        let counts = LeapListLt::count_range_group(&refs, &[(0, 100), (0, 100)]);
        assert_eq!(counts, vec![0, 0], "empty lists count zero");
        for k in 0..30u64 {
            lists[0].update(k, k);
            lists[1].update(k * 2, k);
        }
        let check = |ranges: &[(u64, u64)]| {
            let pairs = LeapListLt::range_page_group(&refs, ranges, usize::MAX);
            let counts = LeapListLt::count_range_group(&refs, ranges);
            assert_eq!(counts, pairs.iter().map(Vec::len).collect::<Vec<_>>());
            counts
        };
        assert_eq!(
            check(&[(5, 20), (40, 10)]),
            vec![16, 0],
            "inverted range counts zero"
        );
        assert_eq!(
            check(&[(30, 100), (10, 60)]),
            vec![0, 25],
            "past the largest key, and a sparse sub-range"
        );
        // Counts follow removals.
        lists[0].remove(20);
        lists[1].remove(58);
        assert_eq!(check(&[(5, 20), (10, 60)]), vec![15, 24]);
    }

    #[test]
    fn range_page_bounds_and_resumes() {
        let l: LeapListLt<u64> = LeapListLt::new(small());
        for k in 0..100u64 {
            l.update(k * 2, k);
        }
        // Pages tile the full range when resumed from last_key + 1.
        let mut collected = Vec::new();
        let mut lo = 0u64;
        loop {
            let page = l.range_page(lo, 198, 7);
            assert!(page.len() <= 7, "page overflowed its limit");
            let Some(&(last, _)) = page.last() else { break };
            collected.extend(page);
            lo = last + 1;
        }
        assert_eq!(collected, l.range_query(0, 198));
        // A page over a huge range still returns promptly and bounded.
        assert_eq!(l.range_page(0, u64::MAX - 1, 3).len(), 3);
        assert_eq!(l.range_page(50, 40, 5), vec![], "inverted range is empty");
        // Group form: per-list limits apply independently.
        let lists = LeapListLt::<u64>::group(2, small());
        for k in 0..20u64 {
            lists[0].update(k, k);
            lists[1].update(k + 100, k);
        }
        let refs: Vec<&LeapListLt<u64>> = lists.iter().collect();
        let pages = LeapListLt::range_page_group(&refs, &[(0, 99), (0, 999)], 4);
        assert_eq!(pages[0].len(), 4);
        assert_eq!(pages[1].len(), 4);
        assert_eq!(pages[1][0].0, 100);
    }

    #[test]
    #[should_panic(expected = "at least one pair")]
    fn zero_limit_page_rejected() {
        let l: LeapListLt<u64> = LeapListLt::new(small());
        l.range_page(0, 10, 0);
    }

    #[test]
    fn grouped_batch_commits_k_ops_per_list_atomically() {
        let lists = LeapListLt::<u64>::group(2, small());
        let refs: Vec<&LeapListLt<u64>> = lists.iter().collect();
        // Seed list 1 so the grouped batch exercises updates and removes.
        lists[1].update(500, 1);
        let g0: Vec<BatchOp<u64>> = (0..10u64).map(|k| BatchOp::Update(k, k * 10)).collect();
        let g1 = vec![
            BatchOp::Update(500, 2),
            BatchOp::Remove(500),
            BatchOp::Remove(777),
        ];
        let out = LeapListLt::apply_batch_grouped(&refs, &[&g0, &g1]);
        assert_eq!(out[0], vec![None; 10]);
        assert_eq!(out[1], vec![Some(1), Some(2), None]);
        for k in 0..10u64 {
            assert_eq!(lists[0].lookup(k), Some(k * 10));
        }
        assert!(lists[1].is_empty());
        // With node_size 4, ten keys into an empty list must have produced
        // a multi-node chain in one commit.
        assert!(lists[0].node_sizes().len() >= 3);
        for s in lists[0].node_sizes() {
            assert!(s <= 4, "chain rebuild exceeded K");
        }
    }

    #[test]
    fn grouped_batch_duplicate_keys_apply_in_order() {
        let l: LeapListLt<u64> = LeapListLt::new(small());
        let ops = vec![
            BatchOp::Update(5, 10),
            BatchOp::Update(5, 11),
            BatchOp::Update(6, 60),
        ];
        let out = LeapListLt::apply_batch_grouped(&[&l], &[&ops]);
        assert_eq!(out, vec![vec![None, Some(10), None]]);
        assert_eq!(l.lookup(5), Some(11), "later op on the same key wins");
        assert_eq!(l.lookup(6), Some(60));
    }

    #[test]
    fn grouped_batch_spanning_many_nodes_stays_consistent() {
        let l: LeapListLt<u64> = LeapListLt::new(small());
        for k in 0..100u64 {
            l.update(k, k);
        }
        // Keys spread across distant nodes plus a dense cluster: multiple
        // segments, some multi-node.
        let ops: Vec<BatchOp<u64>> = vec![
            BatchOp::Update(0, 1000),
            BatchOp::Remove(1),
            BatchOp::Update(50, 1050),
            BatchOp::Update(51, 1051),
            BatchOp::Update(52, 1052),
            BatchOp::Remove(53),
            BatchOp::Update(99, 1099),
            BatchOp::Update(200, 1200),
        ];
        let out = LeapListLt::apply_batch_grouped(&[&l], &[&ops]);
        assert_eq!(
            out,
            vec![vec![
                Some(0),
                Some(1),
                Some(50),
                Some(51),
                Some(52),
                Some(53),
                Some(99),
                None,
            ]]
        );
        assert_eq!(l.lookup(0), Some(1000));
        assert_eq!(l.lookup(1), None);
        assert_eq!(l.lookup(53), None);
        assert_eq!(l.lookup(200), Some(1200));
        assert_eq!(l.len(), 99);
        let r = l.range_query(0, 300);
        assert_eq!(r.len(), 99);
        assert!(r.windows(2).all(|w| w[0].0 < w[1].0), "range out of order");
    }

    #[test]
    fn grouped_batch_with_empty_group_is_fine() {
        let lists = LeapListLt::<u64>::group(2, small());
        let refs: Vec<&LeapListLt<u64>> = lists.iter().collect();
        let g0 = vec![BatchOp::Update(1, 10)];
        let g1: Vec<BatchOp<u64>> = Vec::new();
        let out = LeapListLt::apply_batch_grouped(&refs, &[&g0, &g1]);
        assert_eq!(out, vec![vec![None], vec![]]);
        assert_eq!(lists[0].lookup(1), Some(10));
    }

    #[test]
    #[should_panic(expected = "share one StmDomain")]
    fn group_range_rejects_foreign_domains() {
        let a: LeapListLt<u64> = LeapListLt::new(small());
        let b: LeapListLt<u64> = LeapListLt::new(small());
        LeapListLt::range_page_group(&[&a, &b], &[(0, 1), (0, 1)], usize::MAX);
    }

    #[test]
    #[should_panic(expected = "share one StmDomain")]
    fn batch_rejects_foreign_domains() {
        let a: LeapListLt<u64> = LeapListLt::new(small());
        let b: LeapListLt<u64> = LeapListLt::new(small());
        LeapListLt::update_batch(&[&a, &b], &[1, 2], &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "only once per batch")]
    fn batch_rejects_duplicate_lists() {
        let a: LeapListLt<u64> = LeapListLt::new(small());
        LeapListLt::update_batch(&[&a, &a], &[1, 2], &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn max_key_is_rejected() {
        let l: LeapListLt<u64> = LeapListLt::new(small());
        l.update(u64::MAX, 0);
    }

    #[test]
    fn snapshot_page_ignores_later_commits() {
        let l: LeapListLt<u64> = LeapListLt::new(small());
        for k in 0..40u64 {
            l.update(k, k);
        }
        let snap = l.pin_snapshot();
        // Writes after the pin: overwrite, insert, remove.
        l.update(5, 999);
        l.update(1000, 1);
        l.remove(7);
        assert_eq!(l.lookup(5), Some(999));
        let page = l.snapshot_page(&snap, 0, 2000, 1000);
        assert_eq!(
            page,
            (0..40u64).map(|k| (k, k)).collect::<Vec<_>>(),
            "snapshot must show the pre-pin state exactly"
        );
        drop(snap);
        // A fresh snapshot sees the new state.
        let snap2 = l.pin_snapshot();
        let page2 = l.snapshot_page(&snap2, 0, 2000, 1000);
        assert_eq!(page2.len(), 40, "40 - removed 7 + inserted 1000");
        assert!(page2.contains(&(5, 999)) && page2.contains(&(1000, 1)));
        assert!(!page2.iter().any(|&(k, _)| k == 7));
    }

    #[test]
    fn snapshot_pages_tile_while_writers_race() {
        let l: LeapListLt<u64> = LeapListLt::new(small());
        for k in 0..100u64 {
            l.update(k * 2, k);
        }
        let snap = l.pin_snapshot();
        let expected: Vec<(u64, u64)> = (0..100u64).map(|k| (k * 2, k)).collect();
        let mut collected = Vec::new();
        let mut lo = 0u64;
        let mut step = 0u64;
        loop {
            let page = l.snapshot_page(&snap, lo, 198, 7);
            // Interleave destructive writes between pages — including
            // deleting the exact key the next resume starts beyond.
            l.remove(step * 14);
            l.update(step * 14 + 1, 12345);
            if page.is_empty() {
                break;
            }
            assert!(page.len() <= 7);
            lo = page.last().expect("non-empty").0 + 1;
            collected.extend(page);
            step += 1;
        }
        assert_eq!(collected, expected, "pages must tile the pinned state");
    }

    #[test]
    fn snapshot_resume_key_survives_boundary_deletion() {
        // Satellite regression: the page boundary falls exactly on a node
        // whose keys are deleted (node replaced) after the pin. The resume
        // must continue from the snapshot-visible chain, not the live one.
        let l: LeapListLt<u64> = LeapListLt::new(small());
        for k in 0..16u64 {
            l.update(k, k * 10);
        }
        let snap = l.pin_snapshot();
        // First page of 4 ends at key 3; now delete keys 3..=6 — the
        // boundary key and everything the next page should start with —
        // and overwrite key 7, replacing those nodes on the live chain.
        let page1 = l.snapshot_page(&snap, 0, 15, 4);
        assert_eq!(page1, vec![(0, 0), (1, 10), (2, 20), (3, 30)]);
        for k in 3..=6u64 {
            l.remove(k);
        }
        l.update(7, 777);
        let page2 = l.snapshot_page(&snap, 4, 15, 4);
        assert_eq!(
            page2,
            vec![(4, 40), (5, 50), (6, 60), (7, 70)],
            "resume must read the snapshot-visible versions"
        );
        // The live list disagrees, proving the pages came from bundles.
        assert_eq!(l.lookup(4), None);
        assert_eq!(l.lookup(7), Some(777));
    }

    #[test]
    fn snapshot_sees_empty_prefix_of_later_inserts() {
        let l: LeapListLt<u64> = LeapListLt::new(small());
        let snap = l.pin_snapshot();
        for k in 0..20u64 {
            l.update(k, k);
        }
        assert_eq!(l.snapshot_page(&snap, 0, 100, 50), vec![]);
        let snap2 = l.pin_snapshot();
        assert_eq!(l.snapshot_page(&snap2, 0, 100, 50).len(), 20);
    }

    #[test]
    fn snapshot_spans_lists_of_one_domain() {
        let lists = LeapListLt::<u64>::group(2, small());
        lists[0].update(1, 10);
        lists[1].update(2, 20);
        let snap = lists[0].pin_snapshot();
        lists[0].update(3, 30);
        lists[1].update(4, 40);
        assert_eq!(lists[0].snapshot_page(&snap, 0, 100, 10), vec![(1, 10)]);
        assert_eq!(lists[1].snapshot_page(&snap, 0, 100, 10), vec![(2, 20)]);
    }

    #[test]
    fn retired_nodes_park_until_snapshot_pins_release() {
        let l: LeapListLt<u64> = LeapListLt::new(small());
        for k in 0..64u64 {
            l.update(k, k);
        }
        let snap = l.pin_snapshot();
        let before = l.snapshot_page(&snap, 0, 1_000, 1_000);
        assert_eq!(before.len(), 64);
        // Node-replacing churn while the pin is live: every dying run must
        // park in the limbo, not enter the EBR queue — the pinned bundle
        // walk below can still resolve onto those nodes, and EBR's grace
        // period alone would free them two epoch advances later.
        for k in 0..64u64 {
            l.update(k, k + 1_000);
        }
        assert!(l.limbo.parked() > 0, "dying nodes parked under a live pin");
        assert_eq!(l.snapshot_page(&snap, 0, 1_000, 1_000), before);
        drop(snap);
        // The next commit reads a bound past every parked timestamp and
        // drains the lot, its own dying run included.
        l.update(999, 1);
        assert_eq!(l.limbo.parked(), 0, "pin released: limbo drains");
    }

    #[test]
    fn limbo_drain_examines_only_what_it_frees() {
        let l: LeapListLt<u64> = LeapListLt::new(small());
        for k in 0..64u64 {
            l.update(k, k);
        }
        let snap = l.pin_snapshot();
        // Under the pin nothing can drain: each commit parks its one dying
        // node and the drain stops at the heap's top, however many nodes
        // are parked below it.
        for i in 0..10_000u64 {
            let (examined, parked) = (l.limbo.examined(), l.limbo.parked());
            l.update(i % 64, i);
            assert_eq!(l.limbo.parked(), parked + 1, "commit {i}");
            assert_eq!(l.limbo.examined(), examined + 1, "commit {i}");
        }
        drop(snap);
        // The releasing drain frees every parked node plus this commit's
        // own dying node, and examines each once.
        let (examined, parked) = (l.limbo.examined(), l.limbo.parked());
        l.update(999, 1);
        assert_eq!(l.limbo.parked(), 0, "pin released: limbo drains");
        assert_eq!(l.limbo.examined(), examined + parked + 1);
    }

    #[test]
    fn bundle_depth_bounded_without_pins() {
        let l: LeapListLt<u64> = LeapListLt::new(small());
        // Hammer one key: without a live pin, pruning on append keeps the
        // chain at the visible version plus the fresh one.
        for i in 0..500u64 {
            l.update(7, i);
        }
        assert!(
            l.max_bundle_depth() <= 4,
            "unpinned bundles must stay shallow, got {}",
            l.max_bundle_depth()
        );
    }

    #[test]
    #[should_panic(expected = "different StmDomain")]
    fn snapshot_rejects_foreign_domain() {
        let a: LeapListLt<u64> = LeapListLt::new(small());
        let b: LeapListLt<u64> = LeapListLt::new(small());
        let snap = a.pin_snapshot();
        b.snapshot_page(&snap, 0, 1, 1);
    }

    #[test]
    fn update_into_empty_node_after_remove() {
        let l: LeapListLt<u64> = LeapListLt::new(Params {
            node_size: 2,
            ..small()
        });
        l.update(5, 1);
        assert_eq!(l.remove(5), Some(1));
        l.update(5, 2);
        assert_eq!(l.lookup(5), Some(2));
    }

    #[test]
    fn many_keys_with_tiny_nodes() {
        let l: LeapListLt<u64> = LeapListLt::new(Params {
            node_size: 2,
            max_level: 8,
        });
        for k in 0..200u64 {
            l.update(k * 3 % 601, k);
        }
        let r = l.range_query(0, 601);
        assert_eq!(r.len(), 200);
        for w in r.windows(2) {
            assert!(w[0].0 < w[1].0, "range out of order");
        }
    }
}
