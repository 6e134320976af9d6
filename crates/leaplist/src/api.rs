//! A uniform object-safe interface over the four synchronization variants,
//! used by the benchmark harness and examples to swap algorithms.

use crate::{LeapListCop, LeapListLt, LeapListRwlock, LeapListTm};

/// One component of a mixed multi-list batch
/// ([`LeapListLt::apply_batch`]).
///
/// # Example
///
/// ```
/// use leaplist::{BatchOp, LeapListLt, Params};
/// let lists = LeapListLt::<u64>::group(2, Params::default());
/// let refs: Vec<&_> = lists.iter().collect();
/// lists[0].update(5, 50);
/// // Atomically: remove key 5 from list 0 AND insert key 6 into list 1.
/// let old = LeapListLt::apply_batch(
///     &refs,
///     &[BatchOp::Remove(5), BatchOp::Update(6, 60)],
/// );
/// assert_eq!(old, vec![Some(50), None]);
/// ```
#[derive(Debug, Clone)]
pub enum BatchOp<V> {
    /// Insert or update `key -> value` in the corresponding list.
    Update(u64, V),
    /// Remove `key` from the corresponding list.
    Remove(u64),
}

/// The abstract dictionary-with-range-queries of the paper (§1): `Update`,
/// `Remove`, `Lookup` and `Range-Query`, all linearizable.
///
/// # Example
///
/// ```
/// use leaplist::{LeapListLt, Params, RangeMap};
/// fn fill(map: &dyn RangeMap<u64>) {
///     map.update(1, 10);
///     map.update(2, 20);
/// }
/// let l: LeapListLt<u64> = LeapListLt::new(Params::default());
/// fill(&l);
/// assert_eq!(l.range_query(0, 9), vec![(1, 10), (2, 20)]);
/// ```
pub trait RangeMap<V>: Send + Sync {
    /// Inserts or updates `key -> value`; returns the previous value.
    fn update(&self, key: u64, value: V) -> Option<V>;
    /// Removes `key`; returns its value if present.
    fn remove(&self, key: u64) -> Option<V>;
    /// Returns the value bound to `key`.
    fn lookup(&self, key: u64) -> Option<V>;
    /// Returns all pairs with keys in `[lo, hi]`, from one consistent
    /// snapshot, in ascending key order.
    fn range_query(&self, lo: u64, hi: u64) -> Vec<(u64, V)>;
    /// Number of keys (may be approximate under concurrency).
    fn len(&self) -> usize;
    /// Whether the map holds no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

macro_rules! impl_range_map {
    ($ty:ident) => {
        impl<V: Clone + Send + Sync + 'static> RangeMap<V> for $ty<V> {
            fn update(&self, key: u64, value: V) -> Option<V> {
                $ty::update(self, key, value)
            }
            fn remove(&self, key: u64) -> Option<V> {
                $ty::remove(self, key)
            }
            fn lookup(&self, key: u64) -> Option<V> {
                $ty::lookup(self, key)
            }
            fn range_query(&self, lo: u64, hi: u64) -> Vec<(u64, V)> {
                $ty::range_query(self, lo, hi)
            }
            fn len(&self) -> usize {
                $ty::len(self)
            }
        }
    };
}

impl_range_map!(LeapListLt);
impl_range_map!(LeapListCop);
impl_range_map!(LeapListTm);
impl_range_map!(LeapListRwlock);

macro_rules! impl_collect {
    ($ty:ident) => {
        impl<V: Clone + Send + Sync + 'static> FromIterator<(u64, V)> for $ty<V> {
            /// Builds a list with default [`Params`](crate::Params) from
            /// `(key, value)` pairs (later duplicates win, as with
            /// `update`).
            fn from_iter<I: IntoIterator<Item = (u64, V)>>(iter: I) -> Self {
                let list = $ty::new(crate::Params::default());
                for (k, v) in iter {
                    list.update(k, v);
                }
                list
            }
        }

        impl<V: Clone + Send + Sync + 'static> Extend<(u64, V)> for $ty<V> {
            fn extend<I: IntoIterator<Item = (u64, V)>>(&mut self, iter: I) {
                for (k, v) in iter {
                    self.update(k, v);
                }
            }
        }
    };
}

impl_collect!(LeapListLt);
impl_collect!(LeapListCop);
impl_collect!(LeapListTm);
impl_collect!(LeapListRwlock);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Params;

    fn exercise(map: &dyn RangeMap<u64>) {
        assert!(map.is_empty());
        assert_eq!(map.update(4, 40), None);
        assert_eq!(map.update(2, 20), None);
        assert_eq!(map.lookup(4), Some(40));
        assert_eq!(map.range_query(0, 10), vec![(2, 20), (4, 40)]);
        assert_eq!(map.remove(2), Some(20));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn all_variants_behind_one_interface() {
        let p = Params {
            node_size: 4,
            max_level: 4,
        };
        exercise(&LeapListLt::<u64>::new(p.clone()));
        exercise(&LeapListCop::<u64>::new(p.clone()));
        exercise(&LeapListTm::<u64>::new(p.clone()));
        exercise(&LeapListRwlock::<u64>::new(p));
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut l: LeapListLt<u64> = (0..10u64).map(|k| (k, k * 2)).collect();
        assert_eq!(l.len(), 10);
        assert_eq!(l.lookup(4), Some(8));
        l.extend([(20, 1), (21, 2)]);
        assert_eq!(l.len(), 12);
        // Later duplicates win.
        let l2: LeapListRwlock<u64> = [(1, 1), (1, 9)].into_iter().collect();
        assert_eq!(l2.lookup(1), Some(9));
    }

    #[test]
    fn extremes_and_counts() {
        let l: LeapListLt<u64> = LeapListLt::new(Params {
            node_size: 3,
            max_level: 4,
        });
        assert_eq!(l.first_key_value(), None);
        assert_eq!(l.last_key_value(), None);
        assert_eq!(l.count_range(0, 100), 0);
        for k in [5u64, 50, 20, 80, 35] {
            l.update(k, k + 1);
        }
        assert_eq!(l.first_key_value(), Some((5, 6)));
        assert_eq!(l.last_key_value(), Some((80, 81)));
        assert_eq!(l.count_range(10, 60), 3);
        assert_eq!(l.count_range(81, 100), 0);
        assert!(l.contains_key(35));
        assert!(!l.contains_key(36));
        // Remove the extremes; the answers must follow.
        l.remove(5);
        l.remove(80);
        assert_eq!(l.first_key_value(), Some((20, 21)));
        assert_eq!(l.last_key_value(), Some((50, 51)));
        // Empty the list entirely: the trailing-empty-node fallback path.
        for k in [20u64, 35, 50] {
            l.remove(k);
        }
        assert_eq!(l.last_key_value(), None);
        assert_eq!(l.first_key_value(), None);
    }
}
