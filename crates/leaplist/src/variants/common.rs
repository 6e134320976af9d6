//! What the paper's four variants share beyond the plan itself: the
//! segment validation and LT's marking pass, the retirement of a committed
//! plan, the batch argument checks, and the COP-style lookup and
//! transactional range read that COP and LT share (paper Figs. 4 and 5).
//!
//! The validation is the transactional re-check of Figs. 9 and 12: the
//! read-only prefix (search + node construction) ran without any
//! synchronization, so before acting the transaction must confirm the
//! window is still exactly what the prefix saw — every node live, every
//! predecessor pointer unmoved, nothing marked by a competing operation.
//! LT then marks the window ([`mark_segment`]) and wires after commit; COP
//! and TM wire inside the transaction (`wire::wire_segment_tx`).

use crate::node::{internal_key, Node};
use crate::plan::{ChainSegment, OneOp, ShortVec};
use crate::raw::RawLeapList;
use leap_ebr::pin;
use leap_stm::{Backoff, StmDomain, TaggedPtr, TxResult, Txn};
use std::sync::Arc;

/// Panics unless `lists` is non-empty, every list sits on one domain
/// (`domain` names it), and no list appears twice.
pub(crate) fn check_group<L>(lists: &[&L], domain: impl Fn(&L) -> &Arc<StmDomain>) {
    assert!(!lists.is_empty(), "batch must be non-empty");
    for (i, l) in lists.iter().enumerate() {
        assert!(
            Arc::ptr_eq(domain(l), domain(lists[0])),
            "batched lists must share one StmDomain"
        );
        for m in &lists[..i] {
            assert!(
                !std::ptr::eq(*l, *m),
                "a list may appear only once per batch"
            );
        }
    }
}

/// Retires the dying nodes of a committed one-op `plan` and returns its
/// previous value. Each dying node first records the values that leave the
/// list with it ([`Node::set_departed`]), then goes to `retire`.
///
/// # Safety
///
/// The plan's commit unlinked every dying node, nothing else retires them,
/// and `retire` frees each only once no reader can still reach it.
pub(crate) unsafe fn retire_plan<V>(
    (seg, old_value): OneOp<V>,
    mut retire: impl FnMut(*mut Node<V>),
) -> Option<V> {
    if let Some(mut seg) = seg {
        seg.mark_published();
        for (j, &o) in seg.old.iter().enumerate() {
            let slots = seg.departed.get(j).map_or(&[][..], Vec::as_slice);
            // SAFETY: dying nodes stay allocated until `retire` frees them
            // (this fn's contract).
            unsafe { &*o }.set_departed(slots);
            retire(o);
        }
    }
    old_value
}

/// Validated pointers, inline for a one-op segment at the default
/// `max_level`.
type Validated<V> = ShortVec<TaggedPtr<Node<V>>, 16>;

/// Captured window and chain pointers of a validated [`ChainSegment`].
pub(crate) struct ValidatedSegment<V> {
    /// The validated (unmarked) outgoing pointers of the dying nodes,
    /// flattened in (node, level) order — node `j`'s `level` entries
    /// follow node `j-1`'s (the marking pass replays the same order).
    pub old_next: Validated<V>,
    /// `pa_next[i]` — the validated value of `pa[i].next[i]` for every
    /// level below the wiring height.
    pub pa_next: Validated<V>,
}

impl<V> ValidatedSegment<V> {
    /// The validated level-`i` exit of `seg`'s dying run: the outgoing
    /// pointer of its last node taller than `i`, or the window's `na[i]`
    /// above the run.
    ///
    /// # Safety
    ///
    /// `self` validated `seg`, whose pointers the caller's guard protects.
    pub unsafe fn exit(&self, seg: &ChainSegment<V>, i: usize) -> TaggedPtr<Node<V>> {
        let mut exit = TaggedPtr::new(seg.w.na[i]);
        let mut at = 0;
        for &o in &seg.old {
            // SAFETY: guard-protected dying node; `level` is immutable.
            let level = unsafe { &*o }.level;
            if level > i {
                exit = self.old_next[at + i];
            }
            at += level;
        }
        exit
    }
}

/// Re-validates a segment inside `tx`: every dying node is still
/// live with unmarked outgoing pointers, the level-0 chain is still exactly
/// the planned run, and each predecessor-window pointer still leads to the
/// segment's first node of that level (or, above the old chain's height,
/// to the live external successor the new chain will exit to). This is the
/// paper's update and remove validation (Figs. 9 and 12), generalized to
/// any run of dying nodes.
///
/// # Safety
///
/// Segment pointers must be protected by the caller's epoch guard.
pub(crate) unsafe fn validate_segment<'t, V: 'static>(
    tx: &mut Txn<'t>,
    seg: &ChainSegment<V>,
) -> TxResult<ValidatedSegment<V>> {
    // SAFETY: guard-protected segment pointers throughout.
    unsafe {
        let olds = &seg.old;
        for &o in olds {
            if !tx.read(&(*o).live)? {
                return Err(tx.explicit_abort());
            }
        }
        // The window still targets the segment's first node.
        if seg.w.na[0] != olds[0] {
            return Err(tx.explicit_abort());
        }
        let mut out = ValidatedSegment {
            old_next: ShortVec::new(TaggedPtr::null()),
            pa_next: ShortVec::new(TaggedPtr::null()),
        };
        // Outgoing pointers of every dying node: unmarked, level-0
        // adjacency intact, external successors live. Neighbouring levels
        // often share a successor, whose liveness is read once.
        let mut checked: *mut Node<V> = std::ptr::null_mut();
        for (j, &op) in olds.iter().enumerate() {
            let o = &*op;
            for i in 0..o.level {
                let s = tx.read(&o.next[i])?;
                if s.is_marked() {
                    return Err(tx.explicit_abort());
                }
                if i == 0 && j + 1 < olds.len() && s.as_ptr() != olds[j + 1] {
                    return Err(tx.explicit_abort());
                }
                let p = s.as_ptr();
                if !p.is_null() && p != checked && !olds.contains(&p) {
                    if !tx.read(&(*p).live)? {
                        return Err(tx.explicit_abort());
                    }
                    checked = p;
                }
                out.old_next.push(s);
            }
        }
        // The predecessor window up to the wiring height.
        for i in 0..seg.wire_height {
            let expected: *mut Node<V> = if i < seg.old_max {
                *olds
                    .iter()
                    .find(|&&o| (*o).level > i)
                    // INVARIANT: i < old_max and old_max is max over the
                    // old run's levels, so a witness node exists.
                    .expect("old_max is the maximum old level")
            } else {
                seg.w.na[i]
            };
            let pa = seg.w.pa[i];
            let pn = tx.read(&(*pa).next[i])?;
            if pn.is_marked() || pn.as_ptr() != expected {
                return Err(tx.explicit_abort());
            }
            // Neighbouring levels often share a predecessor, whose
            // liveness is read once.
            if (i == 0 || pa != seg.w.pa[i - 1]) && !tx.read(&(*pa).live)? {
                return Err(tx.explicit_abort());
            }
            // Above the old chain, `na[i]` is the new chain's exit target:
            // it must still be live (below it, `expected` is a dying node
            // already live-checked above).
            if i >= seg.old_max && !tx.read(&(*expected).live)? {
                return Err(tx.explicit_abort());
            }
            out.pa_next.push(pn);
        }
        Ok(out)
    }
}

/// The LT acquisition pass for a segment: mark every dying node's
/// outgoing pointers and the predecessor window, then kill the dying
/// nodes, all transactionally.
///
/// # Safety
///
/// Same contract as [`validate_segment`].
pub(crate) unsafe fn mark_segment<'t, V: 'static>(
    tx: &mut Txn<'t>,
    seg: &ChainSegment<V>,
    v: &ValidatedSegment<V>,
) -> TxResult<()> {
    // SAFETY: guard-protected segment pointers.
    unsafe {
        let mut flat = v.old_next.iter();
        for &op in &seg.old {
            let o = &*op;
            for i in 0..o.level {
                // INVARIANT: `validate_segment` pushed exactly one value
                // per old-node level in this same iteration order.
                let val = flat.next().expect("one validated value per level");
                tx.write(&o.next[i], val.marked())?;
            }
        }
        for i in 0..seg.wire_height {
            tx.write(&(*seg.w.pa[i]).next[i], v.pa_next[i].marked())?;
        }
        for &o in &seg.old {
            tx.write(&(*o).live, false)?;
        }
    }
    Ok(())
}

/// COP lookup (paper Fig. 4): an uninstrumented predecessor search followed
/// by an intra-node index probe. Linearizable because the search only
/// traverses committed live nodes and node contents are immutable.
///
/// # Safety
///
/// Caller holds an epoch guard.
pub(crate) unsafe fn cop_lookup<V: Clone>(raw: &RawLeapList<V>, ik: u64) -> Option<V> {
    // SAFETY: caller holds the epoch guard (this fn's `# Safety` contract).
    let w = unsafe { raw.search_predecessors(ik) };
    // SAFETY: observed live under the guard; contents immutable.
    let n = unsafe { &*w.target() };
    n.index_of(ik).map(|i| n.data[i].1.clone())
}

/// Reports one committed retry loop (attempts = snoozes + the successful
/// try) to the domain's recorder, if one is attached. The disabled path is
/// a single relaxed load.
#[inline]
pub(crate) fn record_commit(domain: &StmDomain, backoff: &Backoff) {
    if let Some(rec) = domain.recorder() {
        rec.record_attempts(u64::from(backoff.attempts()) + 1);
    }
}

/// The instrumented half of the paper's range query (Fig. 5): walks the
/// level-0 chain from `start` inside `tx`, checking each node's liveness
/// and reading each `next[0]` transactionally. `visit` sees every live
/// node and returns whether to go on; the walk also stops at the first
/// node whose `high` reaches `ihi`.
///
/// # Safety
///
/// Caller holds an epoch guard under which `start` was observed.
unsafe fn walk_chain<'t, V: 'static>(
    tx: &mut Txn<'t>,
    start: *mut Node<V>,
    ihi: u64,
    mut visit: impl FnMut(&Node<V>) -> bool,
) -> TxResult<()> {
    let mut n = start;
    loop {
        // SAFETY: start observed by the search under the guard; successors
        // reached through validated transactional reads.
        let node = unsafe { &*n };
        if !tx.read(&node.live)? {
            return Err(tx.explicit_abort());
        }
        if !visit(node) || node.high >= ihi {
            return Ok(());
        }
        let s = tx.read(&node.next[0])?;
        // Paper line 41: traverse through a partially released pointer by
        // stripping the mark; the liveness check above decides validity.
        n = s.unmarked().as_ptr();
        debug_assert!(!n.is_null(), "tail.high = +inf terminates the walk");
    }
}

/// Number of pairs in `node` with internal keys in `[ilo, ihi]` — safe to
/// compute mid-transaction because node contents are immutable once
/// published; the commit validates that the node belonged to the snapshot.
fn pairs_in<V>(node: &Node<V>, ilo: u64, ihi: u64) -> usize {
    let start = node.data.partition_point(|(k, _)| *k < ilo);
    node.data[start..]
        .iter()
        .take_while(|(k, _)| *k <= ihi)
        .count()
}

/// The one transactional range read (paper Fig. 5) over a group of lists
/// on one domain: `ranges[j]` over `lists[j]` (`parts` names a list's
/// chain and domain). Per list an uninstrumented predecessor search, then
/// **one** transaction walks every list's chain, folding each node into
/// that list's `S` with `visit(state, node, ilo, ihi)`; its commit is the
/// snapshot's linearization point, and `finish(state, ilo, ihi)` then
/// turns each state into the list's result, still under the epoch guard.
/// Keys are internal. An inverted range yields `R::default()`; a list
/// may appear more than once (the read writes nothing).
///
/// # Panics
///
/// Panics if the slices differ in length, the group is empty, any
/// `hi == u64::MAX`, or the lists do not share one domain.
fn group_read<L, V: 'static, S: Default, R: Default>(
    lists: &[&L],
    ranges: &[(u64, u64)],
    parts: impl Fn(&L) -> (&RawLeapList<V>, &Arc<StmDomain>),
    visit: impl Fn(&mut S, &Node<V>, u64, u64) -> bool,
    finish: impl Fn(S, u64, u64) -> R,
) -> Vec<R> {
    assert_eq!(lists.len(), ranges.len());
    // INVARIANT: documented panic — an empty group is a caller bug.
    let domain = parts(lists.first().expect("group must be non-empty")).1;
    for l in lists {
        assert!(
            Arc::ptr_eq(parts(l).1, domain),
            "grouped lists must share one StmDomain"
        );
    }
    for (_, hi) in ranges {
        assert!(*hi < u64::MAX, "key u64::MAX is reserved");
    }
    let _guard = pin();
    // Hand-rolled: the searches precede `Txn::begin`, so the read version is as fresh as their windows.
    let mut backoff = Backoff::new();
    loop {
        // COP prefix: an uninstrumented predecessor search per list.
        let starts: Vec<Option<(*mut Node<V>, u64, u64)>> = lists
            .iter()
            .zip(ranges)
            .map(|(l, &(lo, hi))| {
                let (ilo, ihi) = (lo <= hi).then(|| (internal_key(lo), internal_key(hi)))?;
                // SAFETY: `_guard` pins the epoch for the whole loop.
                let w = unsafe { parts(l).0.search_predecessors(ilo) };
                Some((w.target(), ilo, ihi))
            })
            .collect();
        let mut tx = Txn::begin(domain);
        let walked: TxResult<Vec<Option<(S, u64, u64)>>> = starts
            .into_iter()
            .map(|s| {
                let Some((start, ilo, ihi)) = s else {
                    return Ok(None);
                };
                let mut state = S::default();
                // SAFETY: `start` was observed under `_guard`.
                unsafe { walk_chain(&mut tx, start, ihi, |n| visit(&mut state, n, ilo, ihi)) }?;
                Ok(Some((state, ilo, ihi)))
            })
            .collect();
        if let Ok(per_list) = walked {
            if tx.commit().is_ok() {
                record_commit(domain, &backoff);
                return per_list
                    .into_iter()
                    .map(|w| w.map_or_else(R::default, |(s, ilo, ihi)| finish(s, ilo, ihi)))
                    .collect();
            }
        } else {
            drop(tx);
        }
        backoff.snooze();
    }
}

/// Up to `limit` pairs per list from one [`group_read`] snapshot. A page
/// stops each walk once its nodes hold `limit` pairs, so it costs
/// `O(limit / K)` instrumented accesses per list whatever the range's
/// width; `limit == usize::MAX` reads the whole ranges without counting.
pub(crate) fn group_pairs<L, V: Clone + 'static>(
    lists: &[&L],
    ranges: &[(u64, u64)],
    parts: impl Fn(&L) -> (&RawLeapList<V>, &Arc<StmDomain>),
    limit: usize,
) -> Vec<Vec<(u64, V)>> {
    group_read(
        lists,
        ranges,
        parts,
        |(nodes, pairs): &mut (Vec<*mut Node<V>>, usize), n, ilo, ihi| {
            nodes.push(std::ptr::from_ref(n).cast_mut());
            limit == usize::MAX || {
                *pairs += pairs_in(n, ilo, ihi);
                *pairs < limit
            }
        },
        |(nodes, _), ilo, ihi| {
            // SAFETY: `group_read` calls `finish` under the guard its
            // walks ran under, with nodes its committed walk visited.
            let mut out = unsafe { extract_pairs(&nodes, ilo, ihi) };
            out.truncate(limit);
            out
        },
    )
}

/// The number of pairs per list from one [`group_read`] snapshot: the
/// walk adds each node's in-range pairs, with no node buffer and no value
/// clones.
pub(crate) fn group_count<L, V: 'static>(
    lists: &[&L],
    ranges: &[(u64, u64)],
    parts: impl Fn(&L) -> (&RawLeapList<V>, &Arc<StmDomain>),
) -> Vec<usize> {
    group_read(
        lists,
        ranges,
        parts,
        |count: &mut usize, n, ilo, ihi| {
            *count += pairs_in(n, ilo, ihi);
            true
        },
        |count, _, _| count,
    )
}

/// Extracts the pairs with internal keys in `[ilo, ihi]` from a collected
/// node chain.
///
/// # Safety
///
/// Node pointers must still be guard-protected.
pub(crate) unsafe fn extract_pairs<V: Clone>(
    nodes: &[*mut Node<V>],
    ilo: u64,
    ihi: u64,
) -> Vec<(u64, V)> {
    let mut out = Vec::new();
    for &n in nodes {
        // SAFETY: guard-protected; data immutable.
        let node = unsafe { &*n };
        let start = node.data.partition_point(|(k, _)| *k < ilo);
        for (k, v) in &node.data[start..] {
            if *k > ihi {
                break;
            }
            out.push((crate::node::public_key(*k), v.clone()));
        }
    }
    out
}
