//! A uniform object-safe interface over the four synchronization variants,
//! used by the test suites (model, concurrency, value ownership,
//! integration) and the quickstart example to swap algorithms. The
//! `figures` harness drives the variants through
//! `leap_bench::target::BenchTarget` instead.

use crate::{LeapListCop, LeapListLt, LeapListRwlock, LeapListTm};

/// One op of a mixed multi-list batch
/// ([`LeapListLt::apply_batch_grouped`]).
///
/// # Example
///
/// ```
/// use leaplist::{BatchOp, LeapListLt, Params};
/// let lists = LeapListLt::<u64>::group(2, Params::default());
/// let refs: Vec<&_> = lists.iter().collect();
/// lists[0].update(5, 50);
/// // Atomically: remove key 5 from list 0 AND insert key 6 into list 1.
/// let old = LeapListLt::apply_batch_grouped(
///     &refs,
///     &[&[BatchOp::Remove(5)], &[BatchOp::Update(6, 60)]],
/// );
/// assert_eq!(old, vec![vec![Some(50)], vec![None]]);
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
}
