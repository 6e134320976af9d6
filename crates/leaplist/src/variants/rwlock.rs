//! **Leap-rwlock** — the coarse reader-writer-lock baseline (paper §3):
//! lookups and range queries take the read lock, updates and removes the
//! write lock. Read-side scalability is fine; any modification serializes
//! the whole list, which is exactly the bottleneck the evaluation shows.

use crate::node::{free_node, internal_key};
use crate::plan::{plan_single, ListOp};
use crate::raw::RawLeapList;
use crate::variants::common;
use crate::wire::{publish_segment, wire_chain};
use crate::Params;
use parking_lot::RwLock;

/// A Leap-List guarded by one reader-writer lock.
///
/// No epochs and no transactions: the write lock excludes every reader, so
/// replaced nodes are freed immediately.
///
/// # Example
///
/// ```
/// use leaplist::{LeapListRwlock, Params};
/// let list: LeapListRwlock<u64> = LeapListRwlock::new(Params::default());
/// list.update(8, 80);
/// assert_eq!(list.lookup(8), Some(80));
/// assert_eq!(list.range_query(0, 10), vec![(8, 80)]);
/// ```
pub struct LeapListRwlock<V> {
    inner: RwLock<RawLeapList<V>>,
}

impl<V: Clone + Send + Sync + 'static> LeapListRwlock<V> {
    /// Creates an empty list.
    pub fn new(params: Params) -> Self {
        LeapListRwlock {
            inner: RwLock::new(RawLeapList::new(params)),
        }
    }

    /// Creates `n` independent lists (the rwlock variant needs no shared
    /// domain; this mirrors the other variants' constructors).
    pub fn group(n: usize, params: Params) -> Vec<Self> {
        (0..n).map(|_| Self::new(params.clone())).collect()
    }

    /// Inserts or updates `key -> value` under the write lock.
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX`.
    pub fn update(&self, key: u64, value: V) -> Option<V> {
        Self::write(&[self], vec![ListOp::put(key, value)]).remove(0)
    }

    /// Removes `key` under the write lock.
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX`.
    pub fn remove(&self, key: u64) -> Option<V> {
        Self::write(&[self], vec![ListOp::del(key)]).remove(0)
    }

    /// Applies all `(key, value)` updates to the given lists as one atomic
    /// action by taking every write lock (in address order, to avoid
    /// deadlock against concurrent batches).
    ///
    /// # Panics
    ///
    /// Panics if slices differ in length, a key is `u64::MAX`, or a list
    /// repeats; in every case before any list is written.
    pub fn update_batch(lists: &[&Self], keys: &[u64], values: &[V]) -> Vec<Option<V>> {
        assert_eq!(keys.len(), values.len());
        let ops = keys
            .iter()
            .zip(values)
            .map(|(&k, v)| ListOp::put(k, v.clone()));
        Self::write(lists, ops.collect())
    }

    /// Removes all `keys` from the given lists as one atomic action.
    ///
    /// # Panics
    ///
    /// As for [`LeapListRwlock::update_batch`].
    pub fn remove_batch(lists: &[&Self], keys: &[u64]) -> Vec<Option<V>> {
        Self::write(lists, keys.iter().map(|&k| ListOp::del(k)).collect())
    }

    /// The one write path: `ops[j]` against `lists[j]`, under every write
    /// lock. Each op is planned as a one-op segment, wired and published
    /// in place, and its dying nodes are freed at once: the locks exclude
    /// every reader. The ops arrive checked, so nothing panics between the
    /// first write and the last.
    fn write(lists: &[&Self], ops: Vec<ListOp<V>>) -> Vec<Option<V>> {
        assert_eq!(lists.len(), ops.len());
        let _guards = Self::lock_all(lists);
        lists
            .iter()
            .zip(&ops)
            .map(|(l, op)| {
                // SAFETY: all write locks are held: they exclude every other
                // access, which subsumes the epoch-guard contract of the
                // plan and the wiring lease; nothing is mid-release, and the
                // unlinked nodes are unreachable, so they are freed at once.
                unsafe {
                    let plan = plan_single(&*l.inner.data_ptr(), op);
                    if let Some(seg) = &plan.0 {
                        wire_chain(seg);
                        publish_segment(seg);
                    }
                    common::retire_plan(plan, |o| free_node(o))
                }
            })
            .collect()
    }

    fn lock_all<'a>(lists: &[&'a Self]) -> Vec<parking_lot::RwLockWriteGuard<'a, RawLeapList<V>>> {
        let mut order: Vec<&'a Self> = lists.to_vec();
        order.sort_by_key(|l| *l as *const Self as usize);
        for w in order.windows(2) {
            assert!(
                !std::ptr::eq(w[0] as *const Self, w[1] as *const Self),
                "a list may appear only once per batch"
            );
        }
        order.iter().map(|l| l.inner.write()).collect()
    }

    /// Lookup under the read lock.
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX`.
    pub fn lookup(&self, key: u64) -> Option<V> {
        assert!(key < u64::MAX, "key u64::MAX is reserved");
        let raw = self.inner.read();
        // SAFETY: the read lock excludes writers (and thus reclamation).
        unsafe { common::cop_lookup(&raw, internal_key(key)) }
    }

    /// Range query under the read lock (no transaction needed: the lock
    /// itself provides the snapshot).
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
        let raw = self.inner.read();
        // SAFETY: read lock held throughout.
        unsafe {
            let w = raw.search_predecessors(ilo);
            let mut nodes = Vec::new();
            let mut n = w.target();
            loop {
                nodes.push(n);
                if (*n).high >= ihi {
                    break;
                }
                n = (*n).next[0].naked_load().as_ptr();
            }
            common::extract_pairs(&nodes, ilo, ihi)
        }
    }

    /// Exact number of keys (under the read lock).
    pub fn len(&self) -> usize {
        self.inner.read().len_unsynced()
    }

    /// Whether the list holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V: Clone + Send + Sync + 'static> std::fmt::Debug for LeapListRwlock<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeapListRwlock")
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
    fn roundtrip_with_splits_and_merges() {
        let l: LeapListRwlock<u64> = LeapListRwlock::new(small());
        for k in 0..50u64 {
            assert_eq!(l.update(k, k * 7), None);
        }
        assert_eq!(l.len(), 50);
        for k in 0..50u64 {
            assert_eq!(l.lookup(k), Some(k * 7));
        }
        for k in 0..45u64 {
            assert_eq!(l.remove(k), Some(k * 7));
        }
        assert_eq!(l.len(), 5);
        assert_eq!(l.range_query(0, 100).len(), 5);
    }

    #[test]
    fn batch_locks_in_address_order() {
        let lists = LeapListRwlock::<u64>::group(3, small());
        // Scramble the reference order: lock_all must still work.
        let refs = vec![&lists[2], &lists[0], &lists[1]];
        let old = LeapListRwlock::update_batch(&refs, &[1, 1, 1], &[10, 20, 30]);
        assert_eq!(old, vec![None; 3]);
        assert_eq!(lists[2].lookup(1), Some(10));
        assert_eq!(lists[0].lookup(1), Some(20));
        assert_eq!(lists[1].lookup(1), Some(30));
    }

    #[test]
    fn batch_with_a_reserved_key_writes_no_list() {
        let lists = LeapListRwlock::<u64>::group(2, small());
        let refs = [&lists[0], &lists[1]];
        let update = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            LeapListRwlock::update_batch(&refs, &[1, u64::MAX], &[10, 20])
        }));
        assert!(update.is_err(), "the reserved key panics");
        assert_eq!(lists[0].lookup(1), None, "the first list was not written");
        lists[0].update(2, 20);
        let remove = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            LeapListRwlock::remove_batch(&refs, &[2, u64::MAX])
        }));
        assert!(remove.is_err(), "the reserved key panics");
        assert_eq!(
            lists[0].lookup(2),
            Some(20),
            "the first list was not written"
        );
    }

    #[test]
    fn remove_absent_returns_none() {
        let l: LeapListRwlock<u64> = LeapListRwlock::new(small());
        assert_eq!(l.remove(3), None);
        l.update(3, 1);
        assert_eq!(l.remove(3), Some(1));
        assert_eq!(l.remove(3), None);
    }
}
