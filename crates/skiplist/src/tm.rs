//! *Skip-tm*: a skip-list whose every operation — traversal included — runs
//! inside one `leap-stm` transaction, reproducing the paper's
//! GCC-TM-wrapped skip-list baseline. Operations are linearizable (range
//! queries return true snapshots) but pay one instrumented read per pointer
//! hop, which is exactly the overhead the evaluation quantifies.

use crate::level::{random_level, MAX_LEVEL};
use leap_ebr::pin;
use leap_stm::{atomically, StmDomain, TVar, TaggedPtr, TxResult, Txn};

struct Node {
    key: u64,
    value: TVar<u64>,
    next: Box<[TVar<TaggedPtr<Node>>]>,
}

impl Node {
    fn new(key: u64, value: u64, height: usize) -> Box<Node> {
        Box::new(Node {
            key,
            value: TVar::new(value),
            next: (0..height).map(|_| TVar::new(TaggedPtr::null())).collect(),
        })
    }
}

/// A transactional skip-list map from `u64` keys to `u64` values — the
/// paper's *Skip-tm* baseline.
///
/// # Example
///
/// ```
/// use leap_skiplist::TmSkipList;
/// let m = TmSkipList::new();
/// m.insert(3, 30);
/// m.insert(4, 40);
/// assert_eq!(m.lookup(3), Some(30));
/// assert_eq!(m.range_query(0, 10), vec![(3, 30), (4, 40)]);
/// assert_eq!(m.remove(4), Some(40));
/// ```
pub struct TmSkipList {
    head: Box<Node>,
    domain: StmDomain,
    max_level: usize,
}

/// A node an `insert` attempt has wired in but not yet published: it is
/// freed if the attempt is dropped (a body error, a failed commit or a
/// retry-budget unwind) and forgotten once the commit publishes it.
struct Unlinked(*mut Node);

impl Drop for Unlinked {
    fn drop(&mut self) {
        // SAFETY: the attempt that made the node did not commit, so it was
        // never visible; this thread still owns it exclusively.
        drop(unsafe { Box::from_raw(self.0) });
    }
}

impl TmSkipList {
    /// Creates an empty list with its own transactional domain.
    pub fn new() -> Self {
        Self::with_max_level(MAX_LEVEL)
    }

    /// Creates an empty list with towers capped at `max_level`.
    ///
    /// # Panics
    ///
    /// Panics if `max_level` is 0 or exceeds [`MAX_LEVEL`].
    pub fn with_max_level(max_level: usize) -> Self {
        assert!((1..=MAX_LEVEL).contains(&max_level));
        TmSkipList {
            head: Node::new(0, 0, max_level),
            domain: StmDomain::new(),
            max_level,
        }
    }

    /// The transactional domain (for statistics).
    pub fn domain(&self) -> &StmDomain {
        &self.domain
    }

    /// Fully instrumented predecessor search.
    ///
    /// # Safety
    ///
    /// Caller holds an epoch guard; every dereferenced node stays alive
    /// because removal defers reclamation.
    unsafe fn search<'t>(
        &'t self,
        tx: &mut Txn<'t>,
        key: u64,
        preds: &mut [*const Node; MAX_LEVEL],
        succs: &mut [TaggedPtr<Node>; MAX_LEVEL],
    ) -> TxResult<Option<*mut Node>> {
        let mut pred: *const Node = &*self.head;
        for l in (0..self.max_level).rev() {
            // SAFETY: pred reachable under guard; the transaction validates
            // every pointer read at commit.
            let mut curr: TaggedPtr<Node> =
                // SAFETY: same guard-protected `pred` as the comment above.
                tx.read(unsafe { &*(&(*pred).next[l] as *const TVar<TaggedPtr<Node>>) })?;
            // SAFETY: non-null validated successors, guard-protected; `key`
            // is immutable.
            while !curr.is_null() && unsafe { &*curr.as_ptr() }.key < key {
                pred = curr.as_ptr();
                // SAFETY: `pred` was just observed reachable under the guard.
                curr = tx.read(unsafe { &*(&(*pred).next[l] as *const TVar<TaggedPtr<Node>>) })?;
            }
            preds[l] = pred;
            succs[l] = curr;
        }
        let f = succs[0];
        // SAFETY: non-null level-0 successor found under the guard.
        Ok(if !f.is_null() && unsafe { &*f.as_ptr() }.key == key {
            Some(f.as_ptr())
        } else {
            None
        })
    }

    /// Inserts or updates `key -> value` atomically. Returns `true` if a
    /// new node was inserted.
    pub fn insert(&self, key: u64, value: u64) -> bool {
        let _guard = pin();
        let top = random_level(self.max_level, &mut rand::thread_rng());
        let mut preds = [std::ptr::null(); MAX_LEVEL];
        let mut succs = [TaggedPtr::null(); MAX_LEVEL];
        let linked = atomically(&self.domain, |tx| {
            // SAFETY: `_guard` pins the epoch for the whole attempt.
            if let Some(n) = unsafe { self.search(tx, key, &mut preds, &mut succs) }? {
                // SAFETY: node alive under guard.
                tx.write(unsafe { &(*n).value }, value)?;
                return Ok(None);
            }
            let node = Node::new(key, value, top);
            // Pre-publication stores: the node is private until the
            // predecessor writes commit.
            for (l, nxt) in node.next.iter().enumerate() {
                nxt.naked_store(succs[l]);
            }
            let node = Unlinked(Box::into_raw(node));
            for (l, pred) in preds.iter().enumerate().take(top) {
                // SAFETY: `pred` was filled by the search under the guard.
                tx.write(unsafe { &(**pred).next[l] }, TaggedPtr::new(node.0))?;
            }
            Ok(Some(node))
        });
        // The commit published the node: the list owns it now.
        linked.map(std::mem::forget).is_some()
    }

    /// Removes `key` atomically, returning its value.
    pub fn remove(&self, key: u64) -> Option<u64> {
        let guard = pin();
        let mut preds = [std::ptr::null(); MAX_LEVEL];
        let mut succs = [TaggedPtr::null(); MAX_LEVEL];
        let (value, n) = atomically(&self.domain, |tx| {
            // SAFETY: `guard` pins the epoch for the whole attempt.
            let Some(n) = unsafe { self.search(tx, key, &mut preds, &mut succs) }? else {
                return Ok(None);
            };
            // SAFETY: node alive under guard.
            let node = unsafe { &*n };
            let value = tx.read(&node.value)?;
            for l in 0..node.next.len() {
                debug_assert_eq!(succs[l].as_ptr(), n, "tm list links all levels");
                let after = tx.read(&node.next[l])?;
                // SAFETY: `preds[l]` was filled by the search under the
                // guard.
                tx.write(unsafe { &(*preds[l]).next[l] }, after)?;
            }
            Ok(Some((value, n)))
        })?;
        // SAFETY: the committed writes unlinked `n` at every level; the
        // grace period covers readers.
        unsafe { guard.defer_drop_box(n) };
        Some(value)
    }

    /// Transactional lookup (consistent but fully instrumented).
    pub fn lookup(&self, key: u64) -> Option<u64> {
        let _guard = pin();
        let mut preds = [std::ptr::null(); MAX_LEVEL];
        let mut succs = [TaggedPtr::null(); MAX_LEVEL];
        atomically(&self.domain, |tx| {
            // SAFETY: `_guard` pins the epoch for the whole attempt.
            match unsafe { self.search(tx, key, &mut preds, &mut succs) }? {
                None => Ok(None),
                // SAFETY: found node alive under the guard.
                Some(n) => Ok(Some(tx.read(unsafe { &(*n).value })?)),
            }
        })
    }

    /// Linearizable range query: one transaction spanning every key in
    /// `[lo, hi]` — the paper's direct-STM approach whose cost motivates
    /// the Leap-List design.
    pub fn range_query(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let _guard = pin();
        let mut preds = [std::ptr::null(); MAX_LEVEL];
        let mut succs = [TaggedPtr::null(); MAX_LEVEL];
        atomically(&self.domain, |tx| {
            // SAFETY: `_guard` pins the epoch for the whole attempt.
            unsafe { self.search(tx, lo, &mut preds, &mut succs) }?;
            let mut out = Vec::new();
            let mut curr = succs[0];
            while !curr.is_null() {
                // SAFETY: nodes alive under guard; reads validated.
                let c = unsafe { &*curr.as_ptr() };
                if c.key > hi {
                    break;
                }
                out.push((c.key, tx.read(&c.value)?));
                curr = tx.read(&c.next[0])?;
            }
            Ok(out)
        })
    }

    /// Number of keys (O(n); test/diagnostic helper).
    pub fn len(&self) -> usize {
        self.range_query(0, u64::MAX).len()
    }

    /// Whether the list holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for TmSkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for TmSkipList {
    fn drop(&mut self) {
        let mut curr = self.head.next[0].naked_load().as_ptr();
        while !curr.is_null() {
            // SAFETY: `&mut self` proves exclusive access; linked nodes are
            // owned by the list.
            let next = unsafe { &*curr }.next[0].naked_load().as_ptr();
            // SAFETY: each linked node is freed exactly once here.
            drop(unsafe { Box::from_raw(curr) });
            curr = next;
        }
    }
}

impl std::fmt::Debug for TmSkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TmSkipList")
            .field("max_level", &self.max_level)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leap_stm::{with_retry_budget, RetryPolicy, StmFaultPoint, Timeout};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Attaches a fault hook to `m`'s domain that fails the next `n`
    /// commits, where `n` is the returned counter's value.
    fn failing_commits(m: &TmSkipList) -> Arc<AtomicU64> {
        let left = Arc::new(AtomicU64::new(0));
        let hook_left = left.clone();
        assert!(m.domain().set_fault_hook(Arc::new(move |p| {
            p == StmFaultPoint::Commit
                && hook_left
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
        })));
        left
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let m = TmSkipList::new();
        assert_eq!(m.lookup(5), None);
        assert!(m.insert(5, 50));
        assert!(!m.insert(5, 51));
        assert_eq!(m.lookup(5), Some(51));
        assert_eq!(m.remove(5), Some(51));
        assert_eq!(m.remove(5), None);
    }

    #[test]
    fn range_query_is_sorted_and_bounded() {
        let m = TmSkipList::new();
        for k in [9u64, 2, 7, 4, 11] {
            m.insert(k, k * 3);
        }
        assert_eq!(m.range_query(3, 9), vec![(4, 12), (7, 21), (9, 27)]);
        assert_eq!(m.range_query(100, 200), vec![]);
    }

    #[test]
    fn remove_interior_preserves_links() {
        let m = TmSkipList::new();
        for k in 0..32u64 {
            m.insert(k, k);
        }
        for k in (0..32u64).filter(|k| k % 3 == 0) {
            assert_eq!(m.remove(k), Some(k));
        }
        let remaining: Vec<u64> = m.range_query(0, 100).iter().map(|(k, _)| *k).collect();
        let expected: Vec<u64> = (0..32).filter(|k| k % 3 != 0).collect();
        assert_eq!(remaining, expected);
    }

    #[test]
    fn stats_visible_through_domain() {
        let m = TmSkipList::new();
        m.insert(1, 1);
        m.lookup(1);
        let s = m.domain().stats();
        assert!(s.total_commits() >= 2);
    }

    #[test]
    fn failed_commits_retry_and_take_effect_once() {
        let m = TmSkipList::new();
        let fail = failing_commits(&m);
        // The first attempt's node is freed with its failed commit; the
        // retry publishes a fresh one.
        fail.store(1, Ordering::SeqCst);
        assert!(m.insert(7, 70));
        fail.store(1, Ordering::SeqCst);
        assert_eq!(m.remove(3), None);
        fail.store(1, Ordering::SeqCst);
        assert!(m.insert(3, 30));
        assert_eq!(m.range_query(0, 100), vec![(3, 30), (7, 70)]);
        fail.store(1, Ordering::SeqCst);
        assert_eq!(m.remove(7), Some(70));
        assert_eq!(m.remove(7), None);
        assert_eq!(m.range_query(0, 100), vec![(3, 30)]);
        assert_eq!(fail.load(Ordering::SeqCst), 0, "every armed fault fired");
        assert_eq!(m.domain().stats().conflict_commit_aborts, 4);
    }

    #[test]
    fn timed_out_inserts_leave_the_list_empty() {
        let m = TmSkipList::new();
        let fail = failing_commits(&m);
        fail.store(u64::MAX, Ordering::SeqCst);
        for k in 0..4 {
            let policy = RetryPolicy::default().max_attempts(3);
            let out = with_retry_budget(policy, || m.insert(k, k * 10));
            assert_eq!(out, Err(Timeout { attempts: 3 }), "key {k}");
        }
        fail.store(0, Ordering::SeqCst);
        assert!(m.is_empty());
        assert!(m.insert(1, 10), "the list stays usable");
        assert_eq!(m.range_query(0, 10), vec![(1, 10)]);
    }
}
