//! The *setup* phase of update and remove (paper Figs. 8 and 11): an
//! uninstrumented search plus construction of the replacement node(s).
//! Plans own their freshly built nodes until they are published; dropping
//! an unpublished plan (an aborted attempt) frees them. It drops no value:
//! the nodes hold bitwise copies of values owned by the live list and by
//! the batch's ops (see `node.rs`, "Who owns a value").
//!
//! # One plan shape: the [`ChainSegment`]
//!
//! Every variant plans a write as a [`ListPlan`] of [`ChainSegment`]s: a
//! run of adjacent dying nodes, the fresh chain that replaces it, and the
//! search window the replacement is validated against. The paper's split
//! (one node -> two) and remove-and-merge (two nodes -> one) are the
//! one-op case, [`one_op_plan`]; [`plan_multi`] is the k-op case. The
//! variants differ only in how they synchronise the same replacement:
//!
//! - **LT** plans outside any transaction; one transaction validates and
//!   marks every segment (`validate_segment` / `mark_segment` in
//!   `variants::common`), and the pointer surgery (`wire::wire_chain` +
//!   `wire::publish_segment`) runs after commit as plain atomic stores.
//! - **COP** plans outside the transaction, which validates each segment
//!   and performs the surgery with transactional writes
//!   (`wire::wire_segment_tx`).
//! - **TM** plans inside its transaction, from a transactional search,
//!   then validates and wires exactly as COP does.
//! - **rwlock** plans, wires and publishes under its write lock.
//!
//! # Multi-op plans: the chain rebuild
//!
//! [`plan_multi`] generalizes the one-op plan to **k operations against
//! one list, committed in a single locking transaction**. The algorithm:
//!
//! 1. **Locate** — sort the batch's keys and run one uninstrumented
//!    predecessor search per distinct key, grouping ops by the node whose
//!    range contains them ("affected" nodes).
//! 2. **Segment** — affected nodes that are adjacent on the level-0 chain
//!    form one *segment*; each segment keeps the search window of its
//!    smallest key. Segments are the unit of replacement.
//! 3. **Interference substitution** — same-commit segments can interfere:
//!    a tall dying node of one segment may be the level-i predecessor of a
//!    later segment, and two segments may share one *live* predecessor
//!    slot at a level (when the earlier chain grows taller than its old
//!    run). Wiring them independently would publish pointers into
//!    just-retired nodes, or let the later swing orphan the earlier chain.
//!    Instead the later segment's wiring *substitutes*: its predecessor
//!    swing at that level targets the earlier segment's replacement chain
//!    (the last new node taller than the level), which the single wiring
//!    thread has already wired by the time the later segment swings
//!    (segments wire in key order). The transaction still validates and
//!    marks the *old* window pointers, in two passes (validate everything,
//!    then mark everything) so a shared window TVar is never read after
//!    another segment marked it.
//! 4. **Rebuild** — per segment, run the segment's ops *in batch input
//!    order* (duplicate keys keep sequential semantics) over the keys they
//!    touch, which gives each op's previous value and each touched key's
//!    final state; then copy the old nodes' immutable data once, splicing
//!    those final states in, and re-chunk the result into a fresh chain of
//!    `ceil(total / K)` balanced nodes: every node but the last takes a
//!    fresh random level and a high bound equal to its largest key; the
//!    last keeps the old segment's high bound and its maximum level, so
//!    chains covering the tail sentinel preserve full-height termination.
//!    This is the general form of the paper's split (1 node -> 2) and
//!    merge (2 nodes -> 1); a segment whose ops are all absent-key removes
//!    is dropped, leaving the list untouched.
//!
//! All of the above runs *outside* any transaction — the paper's central
//! lesson.

use crate::node::{build_remove, build_update, free_node, internal_key, random_level, Node, Pairs};
use crate::params::Params;
use crate::raw::{RawLeapList, SearchWindow};
use crate::variants::common::ValidatedSegment;
use std::mem::ManuallyDrop;

/// One component of a multi-op batch against a single list, in internal
/// key space. A `Put` owns its value for the whole batch: every planning
/// attempt copies it bitwise into its nodes, so a discarded attempt leaves
/// it intact for the next, and [`settle`] hands it over once a commit
/// publishes it. A batch that never commits drops it ([`Unsettled`]).
pub(crate) enum ListOp<V> {
    /// Insert or update `ik -> value`.
    Put(u64, ManuallyDrop<V>),
    /// Remove `ik`.
    Del(u64),
}

impl<V> ListOp<V> {
    /// A `Put` of public `key`, taking `value` over.
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX` (reserved for the tail sentinel).
    pub fn put(key: u64, value: V) -> Self {
        assert!(key < u64::MAX, "key u64::MAX is reserved");
        ListOp::Put(internal_key(key), ManuallyDrop::new(value))
    }

    /// A `Del` of public `key`.
    ///
    /// # Panics
    ///
    /// As for [`ListOp::put`].
    pub fn del(key: u64) -> Self {
        assert!(key < u64::MAX, "key u64::MAX is reserved");
        ListOp::Del(internal_key(key))
    }

    /// The internal key the op targets.
    pub fn ik(&self) -> u64 {
        match self {
            ListOp::Put(ik, _) => *ik,
            ListOp::Del(ik) => *ik,
        }
    }
}

/// A write loop's ops while their `Put` values still belong to the batch.
/// Dropped before a commit took the values over — a retry budget unwinding
/// out of the loop — it drops each of them, so every value is dropped once
/// whether or not its batch committed.
pub(crate) struct Unsettled<V>(pub Vec<ListOp<V>>);

impl<V> Unsettled<V> {
    /// The batch committed: its values now belong to the nodes that carry
    /// them, or to [`settle`].
    pub fn committed(mut self) -> Vec<ListOp<V>> {
        std::mem::take(&mut self.0)
    }
}

impl<V> Drop for Unsettled<V> {
    fn drop(&mut self) {
        for op in &mut self.0 {
            if let ListOp::Put(_, v) = op {
                // SAFETY: no commit took this value over (`committed`
                // empties the vector first), so the batch still owns it,
                // and each op is visited once.
                unsafe { ManuallyDrop::drop(v) };
            }
        }
    }
}

/// Hands a committed group's values over to its list. A `Put` that no
/// later op of the group touches left its value in a published node, which
/// now owns it; any other `Put` value was overwritten or removed within the
/// group, never reached a node, and is dropped here.
pub(crate) fn settle<V>(mut ops: Vec<ListOp<V>>) {
    if !std::mem::needs_drop::<V>() || ops.len() < 2 {
        return;
    }
    let mut order: Vec<usize> = (0..ops.len()).collect();
    order.sort_unstable_by_key(|&i| (ops[i].ik(), i));
    for w in order.windows(2) {
        if ops[w[0]].ik() == ops[w[1]].ik() {
            if let ListOp::Put(_, v) = &mut ops[w[0]] {
                // SAFETY: a later op of the group replaced or removed this
                // value before any node could carry it, and each index is
                // `w[0]` of one window only, so it is dropped once; `ops`
                // is discarded right after without touching it again.
                unsafe { ManuallyDrop::drop(v) };
            }
        }
    }
}

/// A short list of `Copy` items, inline up to `N` and on the heap past
/// that: the node runs of a one-op plan (one or two nodes each) and their
/// validated pointers cost no allocation.
pub(crate) enum ShortVec<T: Copy, const N: usize> {
    Inline(usize, [T; N]),
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> ShortVec<T, N> {
    /// An empty list; `fill` only initialises the unused inline slots.
    pub fn new(fill: T) -> Self {
        ShortVec::Inline(0, [fill; N])
    }

    /// Appends `item`, moving the list to the heap once `N` are inline.
    pub fn push(&mut self, item: T) {
        match self {
            ShortVec::Inline(len, items) if *len < N => {
                items[*len] = item;
                *len += 1;
            }
            ShortVec::Inline(_, items) => {
                let mut spilled = items.to_vec();
                spilled.push(item);
                *self = ShortVec::Heap(spilled);
            }
            ShortVec::Heap(v) => v.push(item),
        }
    }
}

impl<T: Copy, const N: usize> From<Vec<T>> for ShortVec<T, N> {
    fn from(v: Vec<T>) -> Self {
        ShortVec::Heap(v)
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a ShortVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy, const N: usize> std::ops::Deref for ShortVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            ShortVec::Inline(len, items) => &items[..*len],
            ShortVec::Heap(v) => v,
        }
    }
}

/// A run of node pointers; a one-op plan's fits inline.
pub(crate) type NodeRun<V> = ShortVec<*mut Node<V>, 2>;

/// One contiguous run of nodes being replaced by a freshly built chain.
/// The segment owns its new chain until the commit publishes it; dropping
/// an unpublished segment (an aborted attempt) frees the chain.
pub(crate) struct ChainSegment<V> {
    /// Window of the segment's smallest op key; `w.na[0] == old[0]`.
    pub w: SearchWindow<V>,
    /// The adjacent nodes being replaced, in chain order (non-empty).
    pub old: NodeRun<V>,
    /// The replacement chain, in key order (non-empty).
    pub new: NodeRun<V>,
    /// Maximum tower height among `old`.
    pub old_max: usize,
    /// Maximum tower height among `new` (`>= old_max` by construction:
    /// the last chain node keeps `old_max`), which is the height the
    /// predecessor wiring covers.
    pub wire_height: usize,
    /// Wiring substitutions `(i, node)`: the level-`i` swing targets
    /// **an earlier segment's replacement `node`** instead of `w.pa[i]`
    /// when `w.pa[i]` (or that segment's exit into this one) is a node
    /// dying in the same commit; the latest entry for a level wins. Empty
    /// for a one-op plan. Validation and marking always use the old window
    /// (`w.pa`); only the post-commit swing uses [`ChainSegment::pa_wire`].
    pub subst: Vec<(usize, *mut Node<V>)>,
    /// Per dying node, in `old`'s order, the slots whose values this
    /// segment overwrites or removes: they leave the list with that node
    /// ([`Node::set_departed`]). Nodes past the end of the list lose none;
    /// it is empty when `V` needs no drop.
    pub departed: Vec<Vec<usize>>,
    /// LT's validation of this segment, captured by the first pass of its
    /// transaction for the marking pass; `None` until then.
    pub validated: Option<ValidatedSegment<V>>,
    published: bool,
}

impl<V> ChainSegment<V> {
    /// The node whose level-`i` pointer the wiring swings onto the chain:
    /// `w.pa[i]`, unless substituted.
    pub fn pa_wire(&self, i: usize) -> *mut Node<V> {
        let sub = self.subst.iter().rev().find(|&&(level, _)| level == i);
        sub.map_or(self.w.pa[i], |&(_, node)| node)
    }

    /// Marks the new chain as reachable, so the segment's drop no longer
    /// owns it.
    pub fn mark_published(&mut self) {
        self.published = true;
    }
}

impl<V> Drop for ChainSegment<V> {
    fn drop(&mut self) {
        if !self.published {
            for &c in &self.new {
                // SAFETY: unpublished nodes are exclusively ours.
                unsafe { free_node(c) };
            }
        }
    }
}

/// Everything a k-op batch against one list needs to validate, lock and
/// wire: the segments to replace plus the per-op previous values.
pub(crate) struct ListPlan<V> {
    /// Segments in key order; empty when every op was an absent-key remove.
    pub segments: Vec<ChainSegment<V>>,
    /// Previous value per op, in batch input order.
    pub results: Vec<Option<V>>,
}

/// A one-op plan: the segment replacing the op's node (none for an
/// absent-key remove, which leaves the list untouched) and the key's
/// previous value.
pub(crate) type OneOp<V> = (Option<ChainSegment<V>>, Option<V>);

/// The one-op plan for `op` on the node `w.target()`, in the paper's node
/// shapes: an update replaces the node by one node, or by two when it is
/// full (Fig. 8's split); a remove replaces it without the key, absorbing
/// its level-0 successor `succ` when `n0.count + n1.count <= K` (Fig. 11's
/// merge). At most one value departs, from the first dying node.
///
/// # Safety
///
/// `w` and `succ` (null, or `w.target()`'s level-0 successor) were read
/// under the caller's epoch guard, or under a lock that excludes
/// reclamation, and stay protected while the plan's pointers are used.
pub(crate) unsafe fn one_op_plan<V: Clone>(
    params: &Params,
    w: SearchWindow<V>,
    succ: *mut Node<V>,
    op: &ListOp<V>,
) -> OneOp<V> {
    let n = w.target();
    // SAFETY: this fn's contract; `data`, `level` and `high` are immutable.
    let (node, succ_ref) = unsafe { (&*n, succ.as_ref()) };
    let mut old = NodeRun::new(std::ptr::null_mut());
    let mut new = NodeRun::new(std::ptr::null_mut());
    old.push(n);
    let (result, departed) = match op {
        ListOp::Put(ik, v) => {
            let b = build_update(node, *ik, v, params, &mut rand::thread_rng());
            new.push(b.n0);
            if let Some(n1) = b.n1 {
                new.push(n1);
            }
            (b.old_value, b.overwritten)
        }
        ListOp::Del(ik) => {
            let absorbed = succ_ref.filter(|s| node.count() + s.count() <= params.node_size);
            let Some(b) = build_remove(node, absorbed, *ik) else {
                return (None, None);
            };
            if absorbed.is_some() {
                old.push(succ);
            }
            new.push(b.n_new);
            (Some(b.old_value), Some(b.removed))
        }
    };
    // SAFETY: plan-owned unpublished nodes and guarded old nodes; `level`
    // is immutable.
    let level = |p: &*mut Node<V>| unsafe { &**p }.level;
    let seg = ChainSegment {
        old_max: old.iter().map(level).max().unwrap_or(0),
        wire_height: new.iter().map(level).max().unwrap_or(0),
        subst: Vec::new(),
        w,
        old,
        new,
        departed: match departed {
            Some(s) if std::mem::needs_drop::<V>() => vec![vec![s]],
            _ => Vec::new(),
        },
        validated: None,
        published: false,
    };
    (Some(seg), result)
}

/// The one-op plan for `op` from an uninstrumented search (paper Figs. 8
/// and 11): retries internally while a remove's neighbourhood is
/// mid-replacement. The LT, COP and rwlock variants plan single ops here;
/// the transaction (or lock) then validates the plan like any segment.
///
/// # Safety
///
/// Same contract as [`plan_multi`].
pub(crate) unsafe fn plan_single<V: Clone>(raw: &RawLeapList<V>, op: &ListOp<V>) -> OneOp<V> {
    let mut retries = 0u32;
    loop {
        retries += 1;
        if retries > 16 {
            // Some releaser is mid-flight; let it run (see
            // `search_predecessors`).
            std::thread::yield_now();
        }
        // SAFETY: caller holds the epoch guard (this fn's `# Safety`
        // contract).
        let w = unsafe { raw.search_predecessors(op.ik()) };
        // SAFETY: observed live by the search; the guard keeps it allocated.
        let n = unsafe { &*w.target() };
        let succ = match op {
            ListOp::Del(ik) if n.index_of(*ik).is_some() => {
                // Retry while a committed update is mid-release on the
                // successor (paper lines 159-162), or while either node
                // already died (lines 169-170): validation would abort.
                let s = n.next[0].naked_load();
                // SAFETY: a committed pointer read under the guard.
                let next = unsafe { s.as_ptr().as_ref() };
                let dead_succ = next.is_some_and(|s| !s.live.naked_load());
                if s.is_marked() || !n.live.naked_load() || dead_succ {
                    std::hint::spin_loop();
                    continue;
                }
                s.as_ptr()
            }
            _ => std::ptr::null_mut(),
        };
        // SAFETY: `w` and `succ` were read under the caller's guard.
        return unsafe { one_op_plan(&raw.params, w, succ, op) };
    }
}

/// The last replacement-chain node taller than level `i` — the node that
/// owns the segment's level-`i` exit after wiring, and therefore the
/// substitution target for a later segment swinging at that level.
fn last_new_above<V>(seg: &ChainSegment<V>, i: usize) -> *mut Node<V> {
    let taller = seg
        .new
        .iter()
        .rev()
        // SAFETY: deref of a plan-owned unpublished node; `level` is
        // immutable after alloc.
        .find(|&&c| unsafe { &*c }.level > i);
    // INVARIANT: callers pass i < wire_height == max(new levels), so a
    // strictly taller chain node always exists.
    *taller.expect("a taller chain node exists below wire_height")
}

/// An affected-node run still under construction.
struct SegDraft<'a, V> {
    nodes: Vec<*mut Node<V>>,
    w: SearchWindow<V>,
    /// What each distinct key this segment's ops touch maps to once they
    /// have all applied (`None` = absent), ascending by key.
    edits: Vec<(u64, Option<&'a V>)>,
    /// Whether any op changes the segment (anything but an absent-key
    /// remove).
    changed: bool,
    /// Planned population after this segment's ops apply.
    count: usize,
    /// Planned replacement-chain levels (last entry = the old chain's
    /// maximum level); `max(levels)` is the wiring height the
    /// interference check must respect.
    levels: Vec<usize>,
}

impl<V> SegDraft<'_, V> {
    fn wire_height(&self) -> usize {
        // INVARIANT: `plan_shape` always pushes at least one level before
        // this is read.
        *self.levels.iter().max().expect("chains are non-empty")
    }
}

/// Draws the replacement chain's shape for a segment holding `count`
/// pairs: `ceil(count / K)` nodes, every one but the last at a fresh
/// random level, the last keeping the old chain's maximum level. Drawing
/// the levels *before* the interference check pins the wiring height, so
/// the check can be scoped to levels the wiring will actually touch.
fn plan_shape<V, R: rand::Rng + ?Sized>(
    nodes: &[*mut Node<V>],
    count: usize,
    node_size: usize,
    max_level: usize,
    rng: &mut R,
) -> Vec<usize> {
    let old_max = nodes
        .iter()
        // SAFETY: nodes are guard-protected (plan_multi contract) and
        // `level` is immutable after alloc.
        .map(|&o| unsafe { &*o }.level)
        .max()
        // INVARIANT: segment drafts are created around one node and only
        // ever grow.
        .expect("segments are non-empty");
    let r = if count <= node_size {
        1
    } else {
        count.div_ceil(node_size)
    };
    let mut levels = Vec::with_capacity(r);
    for _ in 0..r - 1 {
        levels.push(random_level(max_level, rng));
    }
    levels.push(old_max);
    levels
}

/// Builds a multi-op plan for one list: locate, segment, merge
/// interference, rebuild (see the module docs). Retries internally while
/// the observed neighbourhood is mid-replacement; the returned plan may
/// still be stale, in which case the LT validation aborts and the caller
/// re-plans.
///
/// # Safety
///
/// Caller holds an epoch guard and keeps it for as long as the plan's raw
/// pointers are used.
pub(crate) unsafe fn plan_multi<V: Clone>(raw: &RawLeapList<V>, ops: &[ListOp<V>]) -> ListPlan<V> {
    // One op per list is the hottest case by far (every `update`/`remove`
    // and every single-key store write): skip the grouping machinery.
    if let [op] = ops {
        // SAFETY: forwards this fn's own guard contract.
        let (seg, result) = unsafe { plan_single(raw, op) };
        return ListPlan {
            segments: seg.into_iter().collect(),
            results: vec![result],
        };
    }
    let mut retries = 0u32;
    'retry: loop {
        retries += 1;
        if retries > 16 {
            // Some releaser is mid-flight; let it run.
            std::thread::yield_now();
        }
        // 1. Locate the target node of every distinct key, ascending, so
        //    affected nodes come out in chain order (torn observations are
        //    caught by the transactional validation).
        let mut keys: Vec<u64> = ops.iter().map(ListOp::ik).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut key_node: Vec<(u64, *mut Node<V>)> = Vec::with_capacity(keys.len());
        let mut segs: Vec<SegDraft<'_, V>> = Vec::new();
        for &ik in &keys {
            // SAFETY: caller holds the epoch guard (this fn's `# Safety`
            // contract).
            let w = unsafe { raw.search_predecessors(ik) };
            let n = w.target();
            // SAFETY: observed live by the search; guard keeps it allocated.
            if !unsafe { &*n }.live.naked_load() {
                continue 'retry;
            }
            key_node.push((ik, n));
            // 2. Segment: extend the last run when this key lands in the
            //    same node or in its immediate level-0 successor.
            if let Some(s) = segs.last_mut() {
                // INVARIANT: drafts are pushed with one node and never
                // emptied.
                let last = *s.nodes.last().expect("runs are non-empty");
                if last == n {
                    continue;
                }
                // SAFETY: `last` was observed live under the guard above.
                let nxt = unsafe { &*last }.next[0].naked_load();
                if nxt.is_marked() {
                    continue 'retry;
                }
                if nxt.as_ptr() == n {
                    s.nodes.push(n);
                    continue;
                }
            }
            segs.push(SegDraft {
                nodes: vec![n],
                w,
                edits: Vec::new(),
                changed: false,
                count: 0,
                levels: Vec::new(),
            });
        }
        // Each op's target node, in op order (keys ascend in `key_node`).
        let op_nodes: Vec<*mut Node<V>> = ops
            .iter()
            .map(|op| {
                let i = key_node
                    .binary_search_by_key(&op.ik(), |(k, _)| *k)
                    // INVARIANT: `keys` is the sorted dedup of every op key
                    // and the locate loop pushed one entry per key (or
                    // retried).
                    .expect("every op key was located");
                key_node[i].1
            })
            .collect();
        // 2b. Run each segment's ops, in batch input order so duplicate
        //     keys keep sequential semantics, over the keys they touch
        //     alone (one intra-node probe per distinct key — no data is
        //     copied yet). That yields every op's previous value, each
        //     touched key's final state and the segment's population, hence
        //     its chain shape. When the ops shrink the segment and the
        //     residual plus its level-0 successor fits one node, the
        //     successor is absorbed so the rebuild merges them — the k-op
        //     generalization of the paper's remove-and-merge (Fig. 11),
        //     skipped (it is only an optimization) whenever the successor
        //     cannot be read cleanly.
        let mut results: Vec<Option<V>> = Vec::new();
        results.resize_with(ops.len(), || None);
        let mut rng = rand::thread_rng();
        for s in segs.iter_mut() {
            // SAFETY: guard-protected; counts and data immutable.
            let mut count: usize = s.nodes.iter().map(|&o| unsafe { &*o }.count()).sum();
            let mut shrank = false;
            for (i, (op, &n)) in ops.iter().zip(&op_nodes).enumerate() {
                if !s.nodes.contains(&n) {
                    continue;
                }
                let ik = op.ik();
                let slot = match s.edits.iter().position(|(k, _)| *k == ik) {
                    Some(slot) => slot,
                    None => {
                        // SAFETY: affected node observed live under the
                        // guard; `data` is immutable, and the guard outlives
                        // the plan (this fn's contract), so the borrowed
                        // value does too.
                        let node = unsafe { &*n };
                        let here = node.index_of(ik).map(|p| &node.data[p].1);
                        s.edits.push((ik, here));
                        s.edits.len() - 1
                    }
                };
                let state = &mut s.edits[slot].1;
                results[i] = state.cloned();
                match op {
                    ListOp::Put(_, v) => {
                        if state.replace(&**v).is_none() {
                            count += 1;
                        }
                        s.changed = true;
                    }
                    ListOp::Del(_) => {
                        if state.take().is_some() {
                            count -= 1;
                            shrank = true;
                            s.changed = true;
                        }
                    }
                }
            }
            s.edits.sort_unstable_by_key(|(k, _)| *k);
            if shrank {
                // INVARIANT: drafts are pushed with one node and never
                // emptied.
                let last = *s.nodes.last().expect("segments are non-empty");
                // SAFETY: guard-protected pointers.
                let nxt = unsafe { &*last }.next[0].naked_load();
                if !nxt.is_marked() && !nxt.as_ptr().is_null() {
                    let succ = nxt.as_ptr();
                    // SAFETY: unmarked committed non-null pointer read under
                    // the guard.
                    let succ_ref = unsafe { &*succ };
                    if succ_ref.live.naked_load()
                        && count + succ_ref.count() <= raw.params.node_size
                    {
                        // The successor is unaffected by construction (an
                        // affected immediate successor would already be in
                        // this segment).
                        s.nodes.push(succ);
                        count += succ_ref.count();
                    }
                }
            }
            s.count = count;
            s.levels = plan_shape(
                &s.nodes,
                count,
                raw.params.node_size,
                raw.params.max_level,
                &mut rng,
            );
        }
        // A torn observation can land one node in two segments; replacing
        // a node twice in one commit is never sound, so start over.
        {
            let mut all: Vec<*mut Node<V>> =
                segs.iter().flat_map(|s| s.nodes.iter().copied()).collect();
            let n_all = all.len();
            all.sort_unstable();
            all.dedup();
            if all.len() != n_all {
                continue 'retry;
            }
        }
        // 4. Rebuild each segment's chain to the planned shape: one pass
        //    over the old nodes' pairs, splicing the edits in where they
        //    fall, into a buffer of exactly the planned population. Edit
        //    keys lie in the key range of the node they were located in,
        //    and a live-or-dead node's range never changes, so cutting the
        //    ascending edits at each node's `high` keeps the output sorted
        //    whatever the locate loop raced with.
        //    Every pair is copied bitwise; a key present in an old node whose
        //    edit replaces or removes it departs with that node.
        let track = std::mem::needs_drop::<V>();
        let mut segments: Vec<ChainSegment<V>> = Vec::with_capacity(segs.len());
        for sd in segs {
            if !sd.changed {
                // Only absent-key removes hit this segment: the list is
                // left untouched (the paper's `changed[j] = false`).
                continue;
            }
            let mut data = Pairs::with_capacity(sd.count);
            let mut departed = Vec::new();
            let mut edits = sd.edits.iter().peekable();
            for &o in &sd.nodes {
                // SAFETY: guard-protected node pointer; `data` and `high`
                // are immutable.
                let node = unsafe { &*o };
                let mut from = 0;
                let mut gone = Vec::new();
                while let Some(&(ik, state)) = edits.next_if(|(ik, _)| *ik <= node.high) {
                    let (upto, resume) = match node.search(ik) {
                        Ok(p) => {
                            if track {
                                gone.push(p);
                            }
                            (p, p + 1)
                        }
                        Err(p) => (p, p),
                    };
                    data.copy_from(&node.data[from..upto]);
                    if let Some(v) = state {
                        data.push(ik, v);
                    }
                    from = resume;
                }
                data.copy_from(&node.data[from..]);
                if track {
                    departed.push(gone);
                }
            }
            // INVARIANT: every edit key is at most the `high` of the node it
            // was located in, which is one of `sd.nodes`; and step 2b counted
            // exactly these edits against these (immutable) nodes.
            assert!(edits.next().is_none(), "edits lie within the segment");
            assert_eq!(data.len(), sd.count, "step 2b simulated these edits");
            let r = sd.levels.len();
            // INVARIANT: `plan_shape` always pushes at least one level.
            let old_max = *sd.levels.last().expect("chains are non-empty");
            // SAFETY: guard-protected node; `high` is immutable.
            // INVARIANT: drafts are pushed with one node and never emptied.
            let last_high = unsafe { &**sd.nodes.last().expect("non-empty") }.high;
            let wire_height = sd.wire_height();
            let mut new_nodes = Vec::with_capacity(r);
            if r == 1 {
                // Common case: the whole segment collapses into one node,
                // whose data was just built at its final length.
                new_nodes.push(Node::alloc(last_high, old_max, data));
            } else {
                let total = data.len();
                let (base, extra) = (total / r, total % r);
                let mut rest = data;
                for (j, &level) in sd.levels.iter().enumerate() {
                    let len = base + usize::from(j < extra);
                    let tail = rest.split_off(len.min(rest.len()));
                    let chunk = rest;
                    rest = tail;
                    let high = if j == r - 1 {
                        // The last chain node keeps the segment's upper
                        // bound (and, via plan_shape, its tallest tower),
                        // so the wiring height covers every incoming
                        // pointer and tail chains stay full-height.
                        last_high
                    } else {
                        // INVARIANT: r = ceil(total/K) <= total, so every
                        // chunk receives base = total/r >= 1 keys.
                        chunk.last().expect("non-last chunks are non-empty").0
                    };
                    new_nodes.push(Node::alloc(high, level, chunk));
                }
            }
            segments.push(ChainSegment {
                subst: Vec::new(),
                w: sd.w,
                old: sd.nodes.into(),
                new: new_nodes.into(),
                old_max,
                wire_height,
                departed,
                validated: None,
                published: false,
            });
        }
        // 5. Interference substitution (see the module docs). Segments are
        //    in key order, which is also wiring order, so an earlier
        //    segment's chain is always in place by the time a later
        //    segment swings into it. Scanning `a` in ascending order makes
        //    the nearest earlier segment win when several could own a
        //    level (P -> a_new -> b_new -> c_new threads through each).
        for a in 0..segments.len() {
            for b in a + 1..segments.len() {
                for i in 0..segments[b].wire_height {
                    // The later segment must swing into the earlier one's
                    // replacement chain when (1) its level-i predecessor
                    // is one of the earlier segment's dying nodes, or
                    // (2) both segments would swing the *same live*
                    // predecessor slot — the earlier chain owns the level
                    // after its swing, and writing the shared slot twice
                    // would orphan it (and with it every key it holds:
                    // later window validations against the orphan would
                    // abort forever).
                    let redirect = segments[a].old.contains(&segments[b].w.pa[i])
                        || (i < segments[a].wire_height
                            && segments[b].w.pa[i] == segments[a].w.pa[i]);
                    if redirect {
                        let sub = last_new_above(&segments[a], i);
                        segments[b].subst.push((i, sub));
                    }
                }
            }
        }
        return ListPlan { segments, results };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw() -> RawLeapList<u64> {
        RawLeapList::new(Params {
            node_size: 4,
            max_level: 4,
        })
    }

    // These tests are single-threaded, so nothing can retire a node while a
    // plan borrows it: the epoch-guard contract on the plan_* entry points
    // is vacuously satisfied, and plan-owned nodes live until the plan
    // drops. The helpers centralize that argument.

    fn plan_single_t<V: Clone>(l: &RawLeapList<V>, op: &ListOp<V>) -> OneOp<V> {
        // SAFETY: single-threaded test; see the module comment above.
        unsafe { plan_single(l, op) }
    }

    fn plan_multi_t<V: Clone>(l: &RawLeapList<V>, ops: &[ListOp<V>]) -> ListPlan<V> {
        // SAFETY: single-threaded test; see the module comment above.
        unsafe { plan_multi(l, ops) }
    }

    fn put<V>(ik: u64, v: V) -> ListOp<V> {
        ListOp::Put(ik, ManuallyDrop::new(v))
    }

    /// Drops every op value, as a batch that never committed would.
    fn drop_ops<V>(ops: Vec<ListOp<V>>) {
        for op in ops {
            if let ListOp::Put(_, v) = op {
                drop(ManuallyDrop::into_inner(v));
            }
        }
    }

    fn nref<'a, V>(p: *mut Node<V>) -> &'a Node<V> {
        // SAFETY: test nodes are plan-owned and unpublished; the plan (and
        // the list itself) outlive every reference the tests take.
        unsafe { &*p }
    }

    #[test]
    fn short_vec_spills_past_its_inline_capacity() {
        let mut v: ShortVec<u32, 2> = ShortVec::new(0);
        assert!(v.is_empty());
        for x in 1..=5 {
            v.push(x);
            assert_eq!(*v, (1..=x).collect::<Vec<_>>()[..]);
        }
        assert!(matches!(v, ShortVec::Heap(_)));
    }

    #[test]
    fn plan_single_put_on_empty_list_targets_tail() {
        let l = raw();
        let op = put(100, 7u64);
        let (seg, old_value) = plan_single_t(&l, &op);
        assert_eq!(old_value, None);
        let seg = seg.expect("an update always replaces a node");
        assert_eq!((seg.old.len(), seg.new.len()), (1, 1), "no split");
        let n0 = nref(seg.new[0]);
        assert_eq!(n0.high, u64::MAX, "replacement of the tail keeps +inf");
        assert_eq!(n0.data.to_vec(), vec![(100, 7)]);
        assert_eq!(seg.wire_height, seg.old_max);
        // Dropping the unpublished plan must free n0 (checked by miri/asan
        // and the leak-count integration tests).
    }

    #[test]
    fn plan_single_absent_remove_touches_nothing() {
        let l = raw();
        let (seg, old_value) = plan_single_t(&l, &ListOp::Del(55));
        assert!(seg.is_none());
        assert_eq!(old_value, None);
    }

    #[test]
    fn plan_single_remove_merges_with_successor() {
        let l = raw();
        let head = l.head();
        let a = Node::alloc(40, 1, vec![(10, 1u64), (20, 2)].into());
        // SAFETY: single-threaded test; `a` is linked in by hand, unlinked
        // again below before the list drops, and freed once at the end.
        let tail = unsafe {
            let tail = (*head).next[0].naked_load().as_ptr();
            (*a).next[0].naked_store(leap_stm::TaggedPtr::new(tail));
            (*head).next[0].naked_store(leap_stm::TaggedPtr::new(a));
            (*a).live.naked_store(true);
            tail
        };
        // `a` keeps one pair and the empty tail fits beside it (1 + 0 <= K).
        let (seg, old_value) = plan_single_t(&l, &ListOp::Del(10));
        assert_eq!(old_value, Some(1));
        let seg = seg.expect("a present key is removed");
        assert_eq!(*seg.old, [a, tail], "the successor is absorbed");
        let n = nref(seg.new[0]);
        assert_eq!(n.data.to_vec(), vec![(20, 2)]);
        assert_eq!(
            (n.high, n.level),
            (u64::MAX, 4),
            "the tail's bound and tower"
        );
        assert_eq!((seg.old_max, seg.wire_height), (4, 4));
        drop(seg);
        // SAFETY: as above.
        unsafe {
            (*head).next[0].naked_store(leap_stm::TaggedPtr::new(tail));
            free_node(a);
        }
    }

    /// Shared `[clones, drops]` counters of a [`D`] family.
    type Counts = std::sync::Arc<[std::sync::atomic::AtomicUsize; 2]>;

    /// Drop-counting value type for the discard tests: a clone or a drop
    /// bumps the shared counters.
    struct D(Counts);
    impl Clone for D {
        fn clone(&self) -> Self {
            self.0[0].fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            D(self.0.clone())
        }
    }
    impl Drop for D {
        fn drop(&mut self) {
            self.0[1].fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    fn counts(c: &Counts) -> (usize, usize) {
        let o = std::sync::atomic::Ordering::SeqCst;
        (c[0].load(o), c[1].load(o))
    }

    #[test]
    fn unpublished_plans_free_their_nodes() {
        // The discarded node holds a bitwise copy of the caller's value: it
        // is freed (ASan / Miri check the allocation) without cloning or
        // dropping that value, which the caller still owns.
        let c = Counts::default();
        let l: RawLeapList<D> = RawLeapList::new(Params {
            node_size: 4,
            max_level: 4,
        });
        let op = put(9, D(c.clone()));
        drop(plan_single_t(&l, &op));
        assert_eq!(
            counts(&c),
            (0, 0),
            "a discarded plan clones and drops nothing"
        );
        drop_ops(vec![op]);
        assert_eq!(counts(&c), (0, 1));
    }

    #[test]
    fn plan_multi_groups_ops_into_one_tail_segment() {
        let l = raw();
        let ops = [put(10, 1u64), put(30, 3), put(20, 2)];
        let p = plan_multi_t(&l, &ops);
        assert_eq!(p.results, vec![None, None, None]);
        assert_eq!(p.segments.len(), 1, "empty list: everything hits the tail");
        let seg = &p.segments[0];
        assert_eq!(seg.old.len(), 1);
        assert_eq!(seg.new.len(), 1, "3 keys fit one K=4 node");
        let n = nref(seg.new[0]);
        assert_eq!(
            n.data.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![10, 20, 30],
            "rebuilt data is sorted regardless of op order"
        );
        assert_eq!(n.high, u64::MAX, "tail replacement keeps +inf");
        assert_eq!(seg.wire_height, seg.old_max);
    }

    #[test]
    fn plan_multi_duplicate_keys_keep_sequential_semantics() {
        let l = raw();
        let ops = [put(5, 7u64), put(5, 8), ListOp::Del(5), put(5, 9)];
        let p = plan_multi_t(&l, &ops);
        assert_eq!(p.results, vec![None, Some(7), Some(8), None]);
        let n = nref(p.segments[0].new[0]);
        assert_eq!(n.data.to_vec(), vec![(5, 9)], "last op wins");
    }

    #[test]
    fn plan_multi_absent_removes_touch_nothing() {
        let l = raw();
        let ops: [ListOp<u64>; 2] = [ListOp::Del(4), ListOp::Del(9)];
        let p = plan_multi_t(&l, &ops);
        assert!(p.segments.is_empty(), "no change, no replacement");
        assert_eq!(p.results, vec![None, None]);
    }

    #[test]
    fn plan_multi_rechunks_overflow_into_a_balanced_chain() {
        let l = raw(); // node_size 4
        let ops: Vec<ListOp<u64>> = (0..10).map(|i| put(i * 2 + 1, i)).collect();
        let p = plan_multi_t(&l, &ops);
        assert_eq!(p.segments.len(), 1);
        let seg = &p.segments[0];
        assert_eq!(seg.new.len(), 3, "10 keys / K=4 -> 3 nodes");
        let mut collected = Vec::new();
        let mut prev_high = 0u64;
        for (j, &c) in seg.new.iter().enumerate() {
            let n = nref(c);
            assert!(n.count() <= 4, "chunk exceeds K");
            assert!(n.count() >= 3, "chunks are balanced");
            for (k, _) in n.data.iter() {
                assert!(*k > prev_high, "keys below a previous high bound");
                assert!(*k <= n.high);
                collected.push(*k);
            }
            prev_high = n.high;
            if j + 1 == seg.new.len() {
                assert_eq!(n.high, u64::MAX, "last chain node keeps old high");
                assert_eq!(n.level, seg.old_max);
            }
        }
        assert_eq!(collected, (0..10u64).map(|i| i * 2 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn unpublished_multi_plans_free_their_chains() {
        let c = Counts::default();
        let l: RawLeapList<D> = RawLeapList::new(Params {
            node_size: 4,
            max_level: 4,
        });
        // Six puts re-chunk into a two-node chain.
        let ops: Vec<ListOp<D>> = (1..=6).map(|k| put(k, D(c.clone()))).collect();
        // Two discarded attempts: the chains are freed, and the op values
        // stay with the ops for the next attempt.
        for _ in 0..2 {
            let p = plan_multi_t(&l, &ops);
            assert_eq!(p.segments[0].new.len(), 2);
            drop(p);
            assert_eq!(counts(&c), (0, 0), "a discarded chain drops nothing");
        }
        drop_ops(ops);
        assert_eq!(counts(&c), (0, 6));
    }

    #[test]
    fn multi_plan_records_each_departure_on_its_dying_node() {
        let c = Counts::default();
        let l: RawLeapList<D> = RawLeapList::new(Params {
            node_size: 4,
            max_level: 4,
        });
        let head = l.head();
        let pairs = vec![(10, D(c.clone())), (20, D(c.clone()))];
        let a = Node::alloc(40, 1, pairs.into());
        // SAFETY: single-threaded test; `a` is linked in by hand, unlinked
        // again below before the list drops, and freed once at the end.
        let tail = unsafe {
            let tail = (*head).next[0].naked_load().as_ptr();
            (*a).next[0].naked_store(leap_stm::TaggedPtr::new(tail));
            (*head).next[0].naked_store(leap_stm::TaggedPtr::new(a));
            (*a).live.naked_store(true);
            tail
        };
        // Overwrite 20, remove 10, insert 50 past `a` into the tail.
        let ops = [
            put(20, D(c.clone())),
            ListOp::Del(10),
            put(50, D(c.clone())),
        ];
        let p = plan_multi_t(&l, &ops);
        let seg = &p.segments[0];
        assert_eq!(*seg.old, [a, tail], "a and the tail form one run");
        assert_eq!(
            seg.departed,
            vec![vec![0, 1], vec![]],
            "both of a's values leave with a"
        );
        assert_eq!(p.results.len(), 3);
        drop(p);
        assert_eq!(
            counts(&c).1,
            2,
            "only the two returned old values were dropped"
        );
        // SAFETY: as above; `a` is unlinked and owns the values it was
        // built from.
        unsafe {
            (*head).next[0].naked_store(leap_stm::TaggedPtr::new(tail));
            (*a).drop_values();
            free_node(a);
        }
        drop_ops(ops.into());
        assert_eq!(counts(&c), (2, 6));
    }
}
