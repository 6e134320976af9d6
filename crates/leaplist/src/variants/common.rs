//! Validation logic shared by the LT and COP variants, plus the COP-style
//! lookup and range query (paper Figs. 4 and 5) that both use.
//!
//! The validations are the transactional re-checks of Figs. 9 and 12: the
//! read-only COP prefix (search + node construction) ran without any
//! synchronization, so before acting the transaction must confirm the
//! window is still exactly what the prefix saw — every node live, every
//! predecessor pointer unmoved, nothing marked by a competing operation.

use crate::node::{Node, MAX_LEVEL_CAP};
use crate::plan::{ChainSegment, RemovePlan, UpdatePlan};
use crate::raw::RawLeapList;
use leap_stm::{TaggedPtr, TxResult, Txn};

/// Captured window pointers: the values read (and validated) inside the
/// transaction, reused by the marking pass and by the transactional wiring
/// of the COP variant.
pub(crate) struct ValidatedUpdate<V> {
    pub n_next: [TaggedPtr<Node<V>>; MAX_LEVEL_CAP],
    pub pa_next: [TaggedPtr<Node<V>>; MAX_LEVEL_CAP],
}

/// Re-validates an update window inside `tx` (paper Fig. 9 lines 95-104).
///
/// # Safety
///
/// Plan pointers must be protected by the caller's epoch guard.
pub(crate) unsafe fn validate_update<'t, V: 'static>(
    tx: &mut Txn<'t>,
    plan: &UpdatePlan<V>,
) -> TxResult<ValidatedUpdate<V>> {
    // SAFETY: guard-protected plan pointers throughout.
    unsafe {
        let n = &*plan.n;
        if !tx.read(&n.live)? {
            return Err(tx.explicit_abort());
        }
        let mut out = ValidatedUpdate {
            n_next: [TaggedPtr::null(); MAX_LEVEL_CAP],
            pa_next: [TaggedPtr::null(); MAX_LEVEL_CAP],
        };
        // The replaced node's outgoing pointers: unmarked, successors live.
        for i in 0..n.level {
            if plan.w.na[i] != plan.n {
                // The search window is internally stale (it raced a
                // release phase): abort and redo the whole operation.
                return Err(tx.explicit_abort());
            }
            let s = tx.read(&n.next[i])?;
            if s.is_marked() {
                return Err(tx.explicit_abort());
            }
            if !s.is_null() && !tx.read(&(*s.as_ptr()).live)? {
                return Err(tx.explicit_abort());
            }
            out.n_next[i] = s;
        }
        // The predecessor window up to the wiring height: pointers unmoved
        // and unmarked, endpoints live.
        for i in 0..plan.max_height {
            let pa = plan.w.pa[i];
            let pn = tx.read(&(*pa).next[i])?;
            if pn.is_marked() || pn.as_ptr() != plan.w.na[i] {
                return Err(tx.explicit_abort());
            }
            if !tx.read(&(*pa).live)? {
                return Err(tx.explicit_abort());
            }
            if !tx.read(&(*plan.w.na[i]).live)? {
                return Err(tx.explicit_abort());
            }
            out.pa_next[i] = pn;
        }
        Ok(out)
    }
}

/// Captured window pointers for a remove.
pub(crate) struct ValidatedRemove<V> {
    pub n0_next: [TaggedPtr<Node<V>>; MAX_LEVEL_CAP],
    pub n1_next: [TaggedPtr<Node<V>>; MAX_LEVEL_CAP],
    pub pa_next: [TaggedPtr<Node<V>>; MAX_LEVEL_CAP],
}

/// Re-validates a remove window inside `tx` (paper Fig. 12 lines 175-197).
///
/// # Safety
///
/// Same contract as [`validate_update`].
pub(crate) unsafe fn validate_remove<'t, V: 'static>(
    tx: &mut Txn<'t>,
    plan: &RemovePlan<V>,
) -> TxResult<ValidatedRemove<V>> {
    // SAFETY: guard-protected plan pointers.
    unsafe {
        let n0 = &*plan.n0;
        if !tx.read(&n0.live)? {
            return Err(tx.explicit_abort());
        }
        if plan.merge && !tx.read(&(*plan.n1).live)? {
            return Err(tx.explicit_abort());
        }
        let mut out = ValidatedRemove {
            n0_next: [TaggedPtr::null(); MAX_LEVEL_CAP],
            n1_next: [TaggedPtr::null(); MAX_LEVEL_CAP],
            pa_next: [TaggedPtr::null(); MAX_LEVEL_CAP],
        };
        // n0's window.
        for i in 0..n0.level {
            if plan.w.na[i] != plan.n0 {
                return Err(tx.explicit_abort());
            }
            let pa = plan.w.pa[i];
            let pn = tx.read(&(*pa).next[i])?;
            if pn.is_marked() || pn.as_ptr() != plan.n0 {
                return Err(tx.explicit_abort());
            }
            if !tx.read(&(*pa).live)? {
                return Err(tx.explicit_abort());
            }
            let s = tx.read(&n0.next[i])?;
            if s.is_marked() {
                return Err(tx.explicit_abort());
            }
            if !s.is_null() && !tx.read(&(*s.as_ptr()).live)? {
                return Err(tx.explicit_abort());
            }
            out.n0_next[i] = s;
            out.pa_next[i] = pn;
        }
        if plan.merge {
            let n1 = &*plan.n1;
            // Still adjacent (Fig. 12 line 183).
            if out.n0_next[0].as_ptr() != plan.n1 {
                return Err(tx.explicit_abort());
            }
            // Upper window where the successor is taller than n0.
            for i in n0.level..n1.level {
                if plan.w.na[i] != plan.n1 {
                    return Err(tx.explicit_abort());
                }
                let pa = plan.w.pa[i];
                let pn = tx.read(&(*pa).next[i])?;
                if pn.is_marked() || pn.as_ptr() != plan.n1 {
                    return Err(tx.explicit_abort());
                }
                if !tx.read(&(*pa).live)? {
                    return Err(tx.explicit_abort());
                }
                out.pa_next[i] = pn;
            }
            // n1's outgoing pointers: unmarked, successors live.
            for i in 0..n1.level {
                let s = tx.read(&n1.next[i])?;
                if s.is_marked() {
                    return Err(tx.explicit_abort());
                }
                if !s.is_null() && !tx.read(&(*s.as_ptr()).live)? {
                    return Err(tx.explicit_abort());
                }
                out.n1_next[i] = s;
            }
        }
        Ok(out)
    }
}

/// Captured window and chain pointers of a validated [`ChainSegment`].
pub(crate) struct ValidatedSegment<V> {
    /// The validated (unmarked) outgoing pointers of the dying nodes,
    /// flattened in (node, level) order — node `j`'s `level` entries
    /// follow node `j-1`'s (the marking pass replays the same order).
    pub old_next: Vec<TaggedPtr<Node<V>>>,
    /// `pa_next[i]` — the validated value of `pa[i].next[i]` for every
    /// level below the wiring height.
    pub pa_next: Vec<TaggedPtr<Node<V>>>,
}

/// Re-validates a multi-op segment inside `tx`: every dying node is still
/// live with unmarked outgoing pointers, the level-0 chain is still exactly
/// the planned run, and each predecessor-window pointer still leads to the
/// segment's first node of that level (or, above the old chain's height,
/// to the live external successor the new chain will exit to). This is the
/// k-op generalization of [`validate_update`] / [`validate_remove`].
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
        let total_levels: usize = olds.iter().map(|&o| (*o).level).sum();
        let mut out = ValidatedSegment {
            old_next: Vec::with_capacity(total_levels),
            pa_next: Vec::with_capacity(seg.wire_height),
        };
        // Outgoing pointers of every dying node: unmarked, level-0
        // adjacency intact, external successors live.
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
                if !p.is_null() && !olds.contains(&p) && !tx.read(&(*p).live)? {
                    return Err(tx.explicit_abort());
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
            if !tx.read(&(*pa).live)? {
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

/// The LT acquisition pass for a multi-op segment: mark every dying node's
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

/// Transactional wiring of an update (used by the COP and TM variants,
/// which perform the pointer surgery *inside* the transaction rather than
/// after it). The replacement nodes' own fields are written naked — they
/// are private until the predecessor writes commit — which is only sound
/// under a write-back domain (asserted at construction of those variants).
///
/// # Safety
///
/// Plan pointers guard-protected; `n_next[i]` must hold the validated
/// (unmarked) outgoing pointers of the replaced node.
// Lock-step level-indexed walks over fixed-size pointer arrays: the
// index couples several arrays, so iterator rewrites obscure the wiring.
#[allow(clippy::needless_range_loop)]
pub(crate) unsafe fn wire_update_tx<'t, V: 'static>(
    tx: &mut Txn<'t>,
    plan: &UpdatePlan<V>,
    n_next: &[TaggedPtr<Node<V>>; MAX_LEVEL_CAP],
) -> TxResult<()> {
    // SAFETY: guard-protected plan pointers.
    unsafe {
        let n0 = &*plan.n0;
        if plan.split {
            let n1 = &*plan.n1;
            let (l0, l1) = (n0.level, n1.level);
            for i in 0..l1 {
                n1.next[i].naked_store(n_next[i]);
            }
            for i in 0..l0.min(l1) {
                n0.next[i].naked_store(TaggedPtr::new(plan.n1));
            }
            for i in l1..l0 {
                n0.next[i].naked_store(TaggedPtr::new(plan.w.na[i]));
            }
            n0.live.naked_store(true);
            n1.live.naked_store(true);
            for i in 0..l0 {
                tx.write(&(*plan.w.pa[i]).next[i], TaggedPtr::new(plan.n0))?;
            }
            for i in l0..l1 {
                tx.write(&(*plan.w.pa[i]).next[i], TaggedPtr::new(plan.n1))?;
            }
        } else {
            for i in 0..n0.level {
                n0.next[i].naked_store(n_next[i]);
            }
            n0.live.naked_store(true);
            for i in 0..n0.level {
                tx.write(&(*plan.w.pa[i]).next[i], TaggedPtr::new(plan.n0))?;
            }
        }
        tx.write(&(*plan.n).live, false)?;
    }
    Ok(())
}

/// Transactional wiring of a remove (COP and TM variants).
///
/// # Safety
///
/// As for [`wire_update_tx`]; `n0_next`/`n1_next` hold the validated
/// outgoing pointers of the removed node(s).
// Lock-step level-indexed walks over fixed-size pointer arrays: the
// index couples several arrays, so iterator rewrites obscure the wiring.
#[allow(clippy::needless_range_loop)]
pub(crate) unsafe fn wire_remove_tx<'t, V: 'static>(
    tx: &mut Txn<'t>,
    plan: &RemovePlan<V>,
    n0_next: &[TaggedPtr<Node<V>>; MAX_LEVEL_CAP],
    n1_next: &[TaggedPtr<Node<V>>; MAX_LEVEL_CAP],
) -> TxResult<()> {
    // SAFETY: guard-protected plan pointers.
    unsafe {
        let nn = &*plan.n_new;
        if plan.merge {
            let n1_level = (*plan.n1).level;
            for i in 0..n1_level.min(nn.level) {
                nn.next[i].naked_store(n1_next[i]);
            }
            for i in n1_level..nn.level {
                nn.next[i].naked_store(n0_next[i]);
            }
        } else {
            for i in 0..nn.level {
                nn.next[i].naked_store(n0_next[i]);
            }
        }
        nn.live.naked_store(true);
        for i in 0..nn.level {
            tx.write(&(*plan.w.pa[i]).next[i], TaggedPtr::new(plan.n_new))?;
        }
        tx.write(&(*plan.n0).live, false)?;
        if plan.merge {
            tx.write(&(*plan.n1).live, false)?;
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

/// COP range query (paper Fig. 5): search uninstrumented, then collect the
/// node chain inside a transaction that checks liveness of each node and
/// reads each level-0 pointer transactionally. Returns the collected node
/// pointers (the caller extracts pairs from their immutable arrays).
///
/// # Safety
///
/// Caller holds an epoch guard; returned pointers are valid under it.
pub(crate) unsafe fn collect_range<'t, V: 'static>(
    tx: &mut Txn<'t>,
    start: *mut Node<V>,
    ihi: u64,
) -> TxResult<Vec<*mut Node<V>>> {
    let mut nodes = Vec::new();
    let mut n = start;
    loop {
        // SAFETY: start observed by the search under the guard; successors
        // reached through validated transactional reads.
        let node = unsafe { &*n };
        if !tx.read(&node.live)? {
            return Err(tx.explicit_abort());
        }
        nodes.push(n);
        if node.high >= ihi {
            return Ok(nodes);
        }
        let s = tx.read(&node.next[0])?;
        // Paper line 41: traverse through a partially released pointer by
        // stripping the mark; the liveness check above decides validity.
        let next = s.unmarked().as_ptr();
        debug_assert!(!next.is_null(), "tail.high = +inf terminates the walk");
        n = next;
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

/// Like [`collect_range`] but stops as soon as the collected nodes hold at
/// least `limit` pairs in `[ilo, ihi]` — the engine of the paged range
/// query: a bounded page never walks (or validates) more nodes than it
/// needs, so page cost is `O(limit / K)` regardless of the range's width.
///
/// # Safety
///
/// As for [`collect_range`].
pub(crate) unsafe fn collect_range_bounded<'t, V: 'static>(
    tx: &mut Txn<'t>,
    start: *mut Node<V>,
    ilo: u64,
    ihi: u64,
    limit: usize,
) -> TxResult<Vec<*mut Node<V>>> {
    let mut nodes = Vec::new();
    let mut pairs = 0usize;
    let mut n = start;
    loop {
        // SAFETY: start observed by the search under the guard; successors
        // reached through validated transactional reads.
        let node = unsafe { &*n };
        if !tx.read(&node.live)? {
            return Err(tx.explicit_abort());
        }
        nodes.push(n);
        pairs += pairs_in(node, ilo, ihi);
        if node.high >= ihi || pairs >= limit {
            return Ok(nodes);
        }
        let s = tx.read(&node.next[0])?;
        let next = s.unmarked().as_ptr();
        debug_assert!(!next.is_null(), "tail.high = +inf terminates the walk");
        n = next;
    }
}

/// Counts the pairs with internal keys in `[ilo, ihi]` inside the
/// transactional walk itself: no node buffer, no value clones — the
/// count-only path under `count_range` / `len`.
///
/// # Safety
///
/// As for [`collect_range`].
pub(crate) unsafe fn count_range_tx<'t, V: 'static>(
    tx: &mut Txn<'t>,
    start: *mut Node<V>,
    ilo: u64,
    ihi: u64,
) -> TxResult<usize> {
    let mut count = 0usize;
    let mut n = start;
    loop {
        // SAFETY: as for `collect_range_bounded`.
        let node = unsafe { &*n };
        if !tx.read(&node.live)? {
            return Err(tx.explicit_abort());
        }
        count += pairs_in(node, ilo, ihi);
        if node.high >= ihi {
            return Ok(count);
        }
        let s = tx.read(&node.next[0])?;
        let next = s.unmarked().as_ptr();
        debug_assert!(!next.is_null(), "tail.high = +inf terminates the walk");
        n = next;
    }
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
