//! The shared physical Leap-List: sentinels, the uninstrumented (COP)
//! predecessor search of Fig. 3, and structural helpers used by every
//! synchronization variant.

use crate::node::{free_node, Node, Pairs, MAX_LEVEL_CAP};
use crate::params::Params;
use leap_stm::TaggedPtr;

/// Result of the predecessor search: for each level `i`, `pa[i]` is the
/// last node with `high < ik` and `na[i] = pa[i].next[i]` is the first with
/// `high >= ik` (paper Fig. 3).
pub(crate) struct SearchWindow<V> {
    pub pa: [*mut Node<V>; MAX_LEVEL_CAP],
    pub na: [*mut Node<V>; MAX_LEVEL_CAP],
}

impl<V> SearchWindow<V> {
    pub(crate) fn empty() -> Self {
        SearchWindow {
            pa: [std::ptr::null_mut(); MAX_LEVEL_CAP],
            na: [std::ptr::null_mut(); MAX_LEVEL_CAP],
        }
    }

    /// The node whose range contains the searched key.
    pub fn target(&self) -> *mut Node<V> {
        self.na[0]
    }
}

/// The raw structure shared by all variants. Synchronization (transactions,
/// locks) lives in the variant wrappers; `RawLeapList` only knows the
/// memory layout and the traversal.
pub(crate) struct RawLeapList<V> {
    head: *mut Node<V>,
    pub params: Params,
}

// SAFETY: the raw list is a set of heap nodes reached through atomic
// (TVar) pointers; all shared mutation goes through those atomics and the
// variant-level synchronization protocols.
unsafe impl<V: Send + Sync> Send for RawLeapList<V> {}
// SAFETY: as above — shared access is mediated by the same atomics.
unsafe impl<V: Send + Sync> Sync for RawLeapList<V> {}

impl<V> RawLeapList<V> {
    /// Builds the two-sentinel empty list of §2.1: a head whose range is
    /// bounded above by the minimum (internal 0) and an empty tail covering
    /// `(0, +inf]` at full height so every level terminates at a node with
    /// `high == u64::MAX`.
    pub fn new(params: Params) -> Self {
        params.validate();
        let head = Node::alloc(0, params.max_level, Pairs::with_capacity(0));
        let tail = Node::alloc(u64::MAX, params.max_level, Pairs::with_capacity(0));
        // SAFETY: both sentinels were just allocated and are unpublished;
        // this constructor has exclusive access.
        unsafe {
            for i in 0..params.max_level {
                (*head).next[i].naked_store(TaggedPtr::new(tail));
            }
            (*head).live.naked_store(true);
            (*tail).live.naked_store(true);
            // Seed the sentinels at timestamp 0 so every snapshot — however
            // old its pin — can start at the head and resolve its way to
            // the tail. (The head is never replaced; a replaced tail's
            // successor gets stamped like any other node.)
            (*head)
                .created_ts
                .store(0, std::sync::atomic::Ordering::Release);
            (*tail)
                .created_ts
                .store(0, std::sync::atomic::Ordering::Release);
            (*head).bundle.seed(0, tail);
        }
        RawLeapList { head, params }
    }

    pub fn head(&self) -> *mut Node<V> {
        self.head
    }

    /// The paper's Search Predecessors (Fig. 3): an uninstrumented
    /// traversal that restarts whenever it meets a marked pointer or a
    /// non-live node, so it only ever walks committed, valid nodes.
    ///
    /// Pointers are read nakedly: the paper (§2) also tried reading each
    /// one in a single-location read transaction and found it slower under
    /// GCC-TM, and so do the measurements in EXPERIMENTS.md ("One
    /// traversal, one STM mode").
    ///
    /// # Safety
    ///
    /// The caller must hold an epoch guard (or otherwise exclude
    /// reclamation) for the duration of the call and for as long as it
    /// dereferences the returned pointers.
    pub unsafe fn search_predecessors(&self, ik: u64) -> SearchWindow<V> {
        debug_assert!(ik >= 1);
        let mut retries = 0u32;
        'retry: loop {
            // A marked pointer / dead node means some committed update is
            // mid-release. On oversubscribed hosts the releasing thread may
            // be descheduled, so hot-spinning here burns its time slice:
            // yield after a few attempts.
            retries += 1;
            if retries > 16 {
                std::thread::yield_now();
            }
            let mut w = SearchWindow::empty();
            let mut x = self.head;
            for i in (0..self.params.max_level).rev() {
                let x_next;
                loop {
                    // SAFETY: x is the head or a node observed live below;
                    // the guard keeps it allocated.
                    let slot = &unsafe { &*x }.next[i];
                    let nxt = slot.naked_load();
                    if nxt.is_marked() {
                        continue 'retry;
                    }
                    let n = nxt.as_ptr();
                    debug_assert!(!n.is_null(), "levels always end at the tail");
                    // SAFETY: unmarked committed pointer under guard.
                    if !unsafe { &*n }.live.naked_load() {
                        continue 'retry;
                    }
                    // SAFETY: same pointer, observed live just above.
                    if unsafe { &*n }.high >= ik {
                        x_next = n;
                        break;
                    }
                    x = n;
                }
                w.pa[i] = x;
                w.na[i] = x_next;
            }
            return w;
        }
    }

    /// Walks level 0 (single-threaded callers only: tests, `Drop`, `len`).
    ///
    /// # Safety
    ///
    /// No concurrent mutation may be in flight.
    pub unsafe fn for_each_node(&self, mut f: impl FnMut(&Node<V>)) {
        let mut cur = self.head;
        while !cur.is_null() {
            // SAFETY: exclusive access per contract.
            let node = unsafe { &*cur };
            f(node);
            cur = node.next[0].naked_load().as_ptr();
        }
    }

    /// Total number of keys (O(n); walks level 0 with naked loads).
    pub fn len_unsynced(&self) -> usize {
        let mut n = 0;
        // SAFETY: count is advisory; nodes stay allocated under the
        // caller's guard (variants pin before calling).
        unsafe { self.for_each_node(|node| n += node.count()) };
        n
    }
}

impl<V> Drop for RawLeapList<V> {
    fn drop(&mut self) {
        // Exclusive access: free every node linked at level 0, with the
        // values it holds — the live chain owns every value still in the
        // list. Replaced (unlinked) nodes are owned by the EBR deferral
        // queues and drop only their departures.
        let mut cur = self.head;
        while !cur.is_null() {
            // SAFETY: `&mut self` proves exclusive access; every level-0
            // linked node is owned by the list.
            let next = unsafe { &*cur }.next[0].naked_load().as_ptr();
            // SAFETY: `cur` was unlinked from nothing — the whole list dies
            // here, each live value sits in exactly one live node, and each
            // node is freed exactly once.
            unsafe {
                (*cur).drop_values();
                free_node(cur);
            }
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params {
            node_size: 4,
            max_level: 4,
        }
    }

    #[test]
    fn empty_list_has_two_sentinels() {
        let l: RawLeapList<u64> = RawLeapList::new(params());
        let mut highs = Vec::new();
        // SAFETY: single-threaded test; no concurrent mutation.
        unsafe { l.for_each_node(|n| highs.push(n.high)) };
        assert_eq!(highs, vec![0, u64::MAX]);
        assert_eq!(l.len_unsynced(), 0);
    }

    #[test]
    fn search_on_empty_list_returns_tail_at_every_level() {
        let l: RawLeapList<u64> = RawLeapList::new(params());
        // SAFETY: single-threaded test; nothing reclaims nodes.
        let w = unsafe { l.search_predecessors(500) };
        let head = l.head();
        for i in 0..4 {
            assert_eq!(w.pa[i], head);
            // SAFETY: sentinel nodes live as long as the list.
            assert_eq!(unsafe { &*w.na[i] }.high, u64::MAX);
        }
        assert_eq!(w.target(), w.na[0]);
    }

    #[test]
    fn search_skips_low_nodes() {
        // Hand-build head -> A(high=10,l2) -> tail and search beyond A.
        let l: RawLeapList<u64> = RawLeapList::new(params());
        let head = l.head();
        // SAFETY: single-threaded test; the hand-built nodes are owned by
        // the list (freed by its drop) and nothing reclaims concurrently.
        unsafe {
            let tail = (*head).next[0].naked_load().as_ptr();
            let a = Node::alloc(10, 2, vec![(5, 50u64)].into());
            for i in 0..2 {
                (*a).next[i].naked_store(TaggedPtr::new(tail));
                (*head).next[i].naked_store(TaggedPtr::new(a));
            }
            (*a).live.naked_store(true);

            let w = l.search_predecessors(7);
            assert_eq!(w.na[0], a, "key 7 belongs to A's range");
            assert_eq!(w.pa[0], head);

            let w2 = l.search_predecessors(11);
            assert_eq!(w2.na[0], tail, "key 11 is past A");
            assert_eq!(w2.pa[0], a);
            assert_eq!(w2.pa[3], head, "A is only level 2: upper pa is head");
            assert_eq!(w2.na[3], tail);
        }
        assert_eq!(l.len_unsynced(), 1);
    }
}
