//! Version bundles on level-0 forward links — the *bundled references*
//! technique (Nelson-Slivon et al., "Bundled References: An Abstraction
//! for Highly-Concurrent Linearizable Range Queries").
//!
//! Each node's level-0 next pointer carries a short, timestamped history
//! of its past values: a singly-linked chain of [`BundleEntry`]s in
//! strictly descending commit-timestamp order, newest first. A committed
//! update appends one entry (its commit timestamp `wv`, the post-swing
//! successor) to the level-0 predecessor's bundle during the post-commit
//! wiring window, and seeds every freshly published node's bundle with
//! `(wv, wired successor)`. A reader holding a pinned snapshot timestamp
//! `ts` (see [`StmDomain::pin_snapshot`](leap_stm::StmDomain)) resolves
//! each link through the newest entry with `entry.ts <= ts` and thereby
//! walks the list exactly as it was at `ts` — with **no transaction and no
//! retries** against concurrent commits.
//!
//! # Why appends need no synchronization of their own
//!
//! Bundle mutation happens only inside the post-commit wiring window of
//! the committing LT transaction, which holds the marked-pointer lease on
//! the level-0 predecessor (the transaction marked `pa[0].next[0]`, so no
//! other commit can validate — let alone mark — that window until the
//! swing publishes the replacement). Appends on one bundle are therefore
//! serialized by the same lease that serializes the pointer swings, and
//! cross-commit entries arrive in commit order — descending `ts` from the
//! head. Two segments of the *same* commit can target one bundle (plan
//! interference substitution); the second append observes the head entry
//! already carrying its own `wv` and replaces it instead of stacking a
//! duplicate timestamp.
//!
//! # Reclamation
//!
//! Entries older than the newest one at-or-below the domain's
//! [`prune_bound`](leap_stm::StmDomain::prune_bound) are unreachable by
//! every present and future snapshot, and are cut from the chain on the
//! next append (the *bounded depth* property: the chain holds one entry
//! per commit younger than the oldest live pin, plus one). Cut tails and
//! replaced heads are handed to `crates/ebr` so readers mid-traversal
//! stay safe; a node's residual chain is freed with the node itself.

use crate::node::{public_key, Node};
use crate::raw::RawLeapList;
use leap_ebr::Guard;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicPtr, Ordering};

/// One timestamped version of a level-0 forward link.
pub(crate) struct BundleEntry<V> {
    /// Commit timestamp this link value was installed at.
    ts: u64,
    /// The level-0 successor as of `ts`.
    ptr: *mut Node<V>,
    /// Next-older entry (strictly smaller `ts`), null at the chain's end.
    next: AtomicPtr<BundleEntry<V>>,
}

// SAFETY: an entry owns only its own allocation; the node behind `ptr` is
// managed by the list's own EBR protocol. Sending an entry between threads
// (for deferred reclamation) touches nothing it does not own.
unsafe impl<V> Send for BundleEntry<V> {}

impl<V> BundleEntry<V> {
    fn alloc(ts: u64, ptr: *mut Node<V>, next: *mut BundleEntry<V>) -> *mut Self {
        Box::into_raw(Box::new(BundleEntry {
            ts,
            ptr,
            next: AtomicPtr::new(next),
        }))
    }
}

/// The timestamped version list riding on a node's level-0 forward link.
pub(crate) struct Bundle<V> {
    head: AtomicPtr<BundleEntry<V>>,
}

impl<V> Bundle<V> {
    pub(crate) fn new() -> Self {
        Bundle {
            head: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Seeds a freshly published (or sentinel) node's bundle with its
    /// first version. Exclusive access: the node is not yet reachable by
    /// snapshot readers (its `created_ts` store has not been ordered
    /// before any pinnable timestamp — see the wiring watermark).
    pub(crate) fn seed(&self, ts: u64, ptr: *mut Node<V>) {
        // ORDERING: debug-only sanity read under exclusive access; no
        // publication depends on it.
        debug_assert!(self.head.load(Ordering::Relaxed).is_null());
        self.head.store(
            BundleEntry::alloc(ts, ptr, std::ptr::null_mut()),
            Ordering::Release,
        );
    }

    /// Appends version `(ts, ptr)` under the marked-pointer lease (see the
    /// module docs), pruning entries unreachable below `bound`, and
    /// returns the resulting chain depth.
    ///
    /// If the head already carries `ts` (a later segment of the same
    /// commit re-swung this link), the head is *replaced*, keeping the
    /// descending-`ts` invariant.
    ///
    /// # Safety
    ///
    /// Caller must hold the wiring lease for this bundle's node and the
    /// epoch guard `guard`.
    pub(crate) unsafe fn append(
        &self,
        ts: u64,
        ptr: *mut Node<V>,
        bound: u64,
        guard: &Guard,
    ) -> usize
    where
        V: 'static,
    {
        let head = self.head.load(Ordering::Acquire);
        // SAFETY: entries are freed only through the guard's epoch, so the
        // non-null head (and its fields) stay valid for all three reads
        // below.
        let (next, replaced) = if !head.is_null() && unsafe { (*head).ts } == ts {
            // Same-commit replacement: skip the stale head.
            // SAFETY: same non-null guard-protected head as above.
            (unsafe { (*head).next.load(Ordering::Acquire) }, Some(head))
        } else {
            // SAFETY: same guard-protected head; null short-circuits.
            debug_assert!(head.is_null() || unsafe { (*head).ts } < ts);
            (head, None)
        };
        let fresh = BundleEntry::alloc(ts, ptr, next);
        self.head.store(fresh, Ordering::Release);
        if let Some(old) = replaced {
            // Deferred only after the new head published, so a reader that
            // pins between the deferral and the store cannot load `old`.
            // SAFETY: `old` is now unreachable from the chain; concurrent
            // readers already holding it are covered by the deferral.
            unsafe { guard.defer_drop_box(old) };
        }
        // Prune: keep every entry with `ts > bound` plus the newest entry
        // at-or-below `bound` (the version visible at the oldest pin); cut
        // and defer everything older.
        let mut depth = 1usize;
        let mut cur = fresh;
        loop {
            // SAFETY: reachable entries are live under the guard.
            let nxt = unsafe { (*cur).next.load(Ordering::Acquire) };
            if nxt.is_null() {
                return depth;
            }
            // SAFETY: `cur` is reachable, hence live under the guard.
            if unsafe { (*cur).ts } <= bound {
                // `cur` is the newest entry at-or-below the bound: nothing
                // older is visible to any present or future pin.
                // SAFETY: `cur` is live; cutting here only hides entries no
                // pin can resolve onto.
                unsafe { (*cur).next.store(std::ptr::null_mut(), Ordering::Release) };
                let mut dead = nxt;
                while !dead.is_null() {
                    // SAFETY: the cut tail is unreachable from the chain but
                    // not yet freed; in-flight readers are covered by the
                    // deferral.
                    let dn = unsafe { (*dead).next.load(Ordering::Acquire) };
                    // SAFETY: `dead` was just unlinked; the epoch deferral
                    // covers readers that still hold it.
                    unsafe { guard.defer_drop_box(dead) };
                    dead = dn;
                }
                return depth;
            }
            depth += 1;
            cur = nxt;
        }
    }

    /// The level-0 successor visible at `ts`: the newest entry with
    /// `entry.ts <= ts`, or null if every recorded version is newer (the
    /// node itself is then not visible at `ts` either).
    ///
    /// # Safety
    ///
    /// Caller must hold an epoch guard pinned before `ts` was pinned on
    /// the domain, so neither the entries nor the node behind the returned
    /// pointer can be reclaimed underneath it.
    pub(crate) unsafe fn resolve(&self, ts: u64) -> *mut Node<V> {
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: reachable entries are live under the caller's guard.
            let e = unsafe { &*cur };
            if e.ts <= ts {
                return e.ptr;
            }
            cur = e.next.load(Ordering::Acquire);
        }
        std::ptr::null_mut()
    }

    /// Current chain depth (diagnostics).
    #[cfg(test)]
    pub(crate) fn depth(&self) -> usize {
        let mut n = 0;
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            n += 1;
            // SAFETY: called under a guard (diagnostics) or exclusively.
            cur = unsafe { &*cur }.next.load(Ordering::Acquire);
        }
        n
    }
}

impl<V> Drop for Bundle<V> {
    fn drop(&mut self) {
        // Exclusive access: the owning node is being freed (unpublished,
        // or unlinked and past its grace period).
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: `&mut self` proves exclusive access; every chain
            // entry is owned by this bundle and freed exactly once here.
            let mut e = unsafe { Box::from_raw(cur) };
            cur = *e.next.get_mut();
        }
    }
}

/// Timestamp-aware limbo for retired nodes — the reclamation half of the
/// bundled-references design.
///
/// Epoch-based reclamation alone cannot protect snapshot readers: EBR's
/// safety argument assumes a reader can only reach objects through the
/// *live* structure at pin time, but a bundle walk deliberately resolves
/// links **back in time** onto nodes retired by commits younger than the
/// pinned timestamp. Deferring such a node straight to EBR frees it two
/// epoch advances later even while a pinned snapshot still needs it.
///
/// So retirement is two-staged: committed batches *park* their dying
/// nodes here, tagged with the retiring commit's `wv`, and later drains
/// hand a parked node to the EBR deferral queue only once the domain's
/// [`prune_bound`](leap_stm::StmDomain::prune_bound) has reached `wv` —
/// at that point every live pin has `ts >= wv` (the node, retired at
/// `wv`, is invisible at every such `ts`) and the watermark guarantees
/// every future pin will too. The EBR grace period then covers plain
/// transaction-free readers that found the node through the live list
/// just before it was unlinked.
///
/// Parked nodes are bounded by the write volume per pin lifetime (the
/// same bound as bundle depth); with no pins live the next committed
/// batch drains everything, and the list's drop frees any residue. They
/// sit in a min-heap on the retiring `wv`, so a drain examines only the
/// nodes it frees plus the one it stops at: parks arrive out of `wv`
/// order across threads (each parks after its wiring ticket drops), and a
/// pin held across N commits would otherwise cost O(N) per commit.
///
/// A parked node carries the values that left the list at its retiring
/// commit ([`Node::set_departed`]): they are dropped when the node is
/// freed, so a snapshot that walks back onto it still reads them intact,
/// and nothing else of its contents is dropped — every other pair is a
/// bitwise copy of a value a younger node owns.
pub(crate) struct Limbo<V> {
    parked: std::sync::Mutex<Parked<V>>,
    /// Heap entries drains have looked at (tests: the O(drained) bound).
    #[cfg(test)]
    examined: std::sync::atomic::AtomicUsize,
}

/// Parked nodes with their retiring `wv`, smallest `wv` on top.
type Parked<V> = BinaryHeap<Reverse<(u64, *mut Node<V>)>>;

// SAFETY: the limbo owns unlinked nodes outright; parking and draining
// move raw pointers whose referents no other structure mutates.
unsafe impl<V: Send> Send for Limbo<V> {}
// SAFETY: all shared state sits behind the internal mutex.
unsafe impl<V: Send> Sync for Limbo<V> {}

impl<V> Limbo<V> {
    pub(crate) fn new() -> Self {
        Limbo {
            parked: std::sync::Mutex::new(BinaryHeap::new()),
            #[cfg(test)]
            examined: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Parks `retired` (dying nodes of a commit stamped `wv`), then frees
    /// — via EBR deferral under `guard` — every parked node whose
    /// retirement timestamp is at-or-below `bound`.
    ///
    /// # Safety
    ///
    /// Every pointer in `retired` must be unlinked from the live list,
    /// have `retired_ts == wv`, and be owned by the caller; `bound` must
    /// come from the list's domain's `prune_bound()` read **after** the
    /// commit's wiring window closed.
    pub(crate) unsafe fn park_and_drain(
        &self,
        wv: u64,
        retired: impl IntoIterator<Item = *mut Node<V>>,
        bound: u64,
        guard: &Guard,
    ) where
        V: Send + 'static,
    {
        // INVARIANT: no code path panics while holding this lock.
        let mut parked = self.parked.lock().expect("limbo poisoned");
        parked.extend(retired.into_iter().map(|n| Reverse((wv, n))));
        while let Some(&Reverse((retired_at, node))) = parked.peek() {
            #[cfg(test)]
            // ORDERING: test-only tally read after the drains it counts.
            self.examined.fetch_add(1, Ordering::Relaxed);
            if retired_at > bound {
                break;
            }
            parked.pop();
            // SAFETY: no live pin can resolve onto a node retired
            // at-or-below the bound (see type docs); the deferral covers
            // readers that reached it pre-unlink.
            unsafe { guard.defer_drop_box(node) };
        }
    }

    /// Number of nodes awaiting a safe retirement bound (diagnostics).
    #[cfg(test)]
    pub(crate) fn parked(&self) -> usize {
        self.parked.lock().expect("limbo poisoned").len()
    }

    /// Heap entries examined by every drain so far (diagnostics).
    #[cfg(test)]
    pub(crate) fn examined(&self) -> usize {
        // ORDERING: test-only tally; the caller's own drains precede it.
        self.examined.load(Ordering::Relaxed)
    }
}

impl<V> Drop for Limbo<V> {
    fn drop(&mut self) {
        // Exclusive access: the owning list is being dropped, so no
        // snapshot over it can still be live.
        // INVARIANT: no code path panics while holding this lock.
        for &Reverse((_, node)) in self.parked.get_mut().expect("limbo poisoned").iter() {
            // SAFETY: parked nodes are unlinked and owned by the limbo;
            // freeing one drops only its departures.
            unsafe { crate::node::free_node(node) };
        }
    }
}

/// Stamps one committed segment: seeds every replacement node's
/// `created_ts` and bundle, retires the dying run (stamping `retired_ts`
/// and recording the values that leave with each node), and appends the
/// *about-to-be-swung* first chain node to the level-0 predecessor's
/// bundle. Returns the predecessor bundle's resulting depth (the store's
/// `bundle_depth` stat).
///
/// Must run after [`wire_chain`](crate::wire::wire_chain) and **before**
/// [`publish_segment`](crate::wire::publish_segment) for the same
/// segment: the predecessor's level-0 pointer is still marked here, so
/// the wiring lease covering the bundle append is still held — the
/// publish swing is what releases it, and a foreign commit appending to
/// the same bundle afterwards necessarily carries a larger `wv`
/// (descending order preserved). Within the commit's wiring window
/// (before the [`WiringTicket`](leap_stm::WiringTicket) drops) the
/// intermediate states below — nodes stamped but unpublished, a
/// same-commit bundle entry pointing at a same-commit dying node — are
/// unobservable at any pinnable timestamp.
///
/// # Safety
///
/// Same contract as `wire_chain`, plus `guard` must be the epoch guard
/// the plan was built under.
pub(crate) unsafe fn stamp_segment<V: 'static>(
    seg: &crate::plan::ChainSegment<V>,
    wv: u64,
    bound: u64,
    guard: &Guard,
) -> usize {
    // SAFETY: (whole block) segment pointers are valid under the caller's
    // guard; the dying nodes' links are frozen (marked), the new chain is
    // unpublished (exclusive), and the predecessor's bundle is covered by
    // the still-held wiring lease (see above).
    unsafe {
        for &c in &seg.new {
            let cn = &*c;
            cn.bundle
                .seed(wv, cn.next[0].naked_load().unmarked().as_ptr());
            cn.created_ts.store(wv, Ordering::Release);
        }
        for &o in &seg.old {
            (*o).retired_ts.store(wv, Ordering::Release);
        }
        for (&o, slots) in seg.old.iter().zip(&seg.departed) {
            (*o).set_departed(slots);
        }
        // The level-0 swing target `publish_segment` will install: every
        // node has level >= 1, so it is the first chain node.
        let first = seg.new[0];
        (*seg.pa_wire(0)).bundle.append(wv, first, bound, guard)
    }
}

/// Collects up to `limit` pairs with internal keys in `[ilo, ihi]` from
/// the list **as it was at snapshot timestamp `ts`**: a transaction-free,
/// retry-free level-0 walk that resolves every forward link through its
/// bundle.
///
/// The walk starts from the live predecessor window of `ilo` — the lowest
/// window node already published at `ts` (windows near a hot write point
/// may be younger than the snapshot; higher-level predecessors are
/// statistically older) — and falls back to the head sentinel, which is
/// never replaced.
///
/// # Safety
///
/// Caller must hold an epoch guard pinned **before** `ts` was pinned on
/// the list's domain, and `ts` must be at most the domain's
/// [`snapshot_ts`](leap_stm::StmDomain::snapshot_ts) with a live
/// [`SnapshotPin`](leap_stm::SnapshotPin) at-or-below `ts` (so bundle
/// pruning preserves every version visible at `ts`).
pub(crate) unsafe fn snapshot_collect<V: Clone>(
    raw: &RawLeapList<V>,
    ts: u64,
    ilo: u64,
    ihi: u64,
    limit: usize,
    out: &mut Vec<(u64, V)>,
) {
    debug_assert!(ilo >= 1 && ilo <= ihi && limit > 0);
    // SAFETY: traversal under the caller's guard.
    let w = unsafe { raw.search_predecessors(ilo) };
    let mut cur = raw.head();
    for i in 0..raw.params.max_level {
        let pa = w.pa[i];
        // A live predecessor created at-or-before `ts` is on the snapshot
        // chain: live-now means no commit with wv <= ts retired it (the
        // watermark orders completed wirings before pinnable timestamps).
        // SAFETY: `pa` came from a search under the caller's guard.
        if unsafe { &*pa }.created_ts.load(Ordering::Acquire) <= ts {
            cur = pa;
            break;
        }
    }
    let start = out.len();
    loop {
        // SAFETY: nodes on the snapshot chain at `ts` stay allocated under
        // the caller's guard (retirements after the guard's pin are
        // deferred; earlier retirements are invisible at `ts`).
        let node = unsafe { &*cur };
        debug_assert!(node.visible_at(ts), "snapshot walk left the ts-chain");
        for (k, v) in node.data.iter() {
            if *k >= ilo && *k <= ihi {
                out.push((public_key(*k), v.clone()));
                if out.len() - start == limit {
                    return;
                }
            }
        }
        if node.high >= ihi {
            return;
        }
        // SAFETY: resolution under the caller's guard; a node visible at
        // `ts` was stamped (seeded) at-or-before `ts`, so the resolved
        // successor is non-null.
        let nxt = unsafe { node.bundle.resolve(ts) };
        debug_assert!(!nxt.is_null(), "visible node lacks a version at ts");
        cur = nxt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leap_ebr::pin;

    fn node(high: u64) -> *mut Node<u64> {
        Node::alloc(high, 1, Vec::new().into())
    }

    #[test]
    fn resolve_picks_newest_at_or_below() {
        let g = pin();
        let b: Bundle<u64> = Bundle::new();
        let (n1, n2, n3) = (node(1), node(2), node(3));
        b.seed(2, n1);
        // SAFETY: single-threaded test; this path owns every node and entry.
        unsafe {
            assert_eq!(b.append(5, n2, 0, &g), 2);
            assert_eq!(b.append(9, n3, 0, &g), 3);
            assert!(b.resolve(1).is_null(), "older than every version");
            assert_eq!(b.resolve(2), n1);
            assert_eq!(b.resolve(4), n1);
            assert_eq!(b.resolve(5), n2);
            assert_eq!(b.resolve(8), n2);
            assert_eq!(b.resolve(9), n3);
            assert_eq!(b.resolve(u64::MAX), n3);
            crate::node::free_node(n1);
            crate::node::free_node(n2);
            crate::node::free_node(n3);
        }
    }

    #[test]
    fn same_ts_append_replaces_head() {
        let g = pin();
        let b: Bundle<u64> = Bundle::new();
        let (n1, n2, n3) = (node(1), node(2), node(3));
        b.seed(3, n1);
        // SAFETY: single-threaded test; this path owns every node and entry.
        unsafe {
            assert_eq!(b.append(7, n2, 0, &g), 2);
            // A later same-commit segment re-swings the link.
            assert_eq!(b.append(7, n3, 0, &g), 2, "replacement must not stack");
            assert_eq!(b.resolve(7), n3);
            assert_eq!(b.resolve(6), n1, "older version survives replacement");
            crate::node::free_node(n1);
            crate::node::free_node(n2);
            crate::node::free_node(n3);
        }
    }

    #[test]
    fn prune_keeps_version_visible_at_bound() {
        let g = pin();
        let b: Bundle<u64> = Bundle::new();
        let nodes: Vec<_> = (0..6).map(node).collect();
        b.seed(10, nodes[0]);
        // SAFETY: single-threaded test; this path owns every node and entry.
        unsafe {
            b.append(20, nodes[1], 0, &g);
            b.append(30, nodes[2], 0, &g);
            // Bound 25: entry at 20 is the version visible at 25 — keep
            // it, cut the one at 10.
            assert_eq!(b.append(40, nodes[3], 25, &g), 3);
            assert_eq!(b.resolve(25), nodes[1], "bound's version preserved");
            assert!(b.resolve(15).is_null(), "pre-bound history pruned");
            // Bound at the newest entry collapses to depth 2 (fresh + it).
            assert_eq!(b.append(50, nodes[4], 40, &g), 2);
            assert_eq!(b.depth(), 2);
            for n in nodes {
                crate::node::free_node(n);
            }
        }
    }
}
