//! The four Leap-List variants behind one interface — `group` and the
//! paper's composite multi-list batches — so a scenario is written once
//! and run against each variant.

use leaplist::{LeapListCop, LeapListLt, LeapListRwlock, LeapListTm, Params, RangeMap};

pub trait Variant<V>: RangeMap<V> + Sized + 'static {
    fn group(n: usize, params: Params) -> Vec<Self>;
    fn update_batch(lists: &[&Self], keys: &[u64], values: &[V]) -> Vec<Option<V>>;
    fn remove_batch(lists: &[&Self], keys: &[u64]) -> Vec<Option<V>>;
}

macro_rules! variant {
    ($($ty:ident),*) => {$(
        impl<V: Clone + Send + Sync + 'static> Variant<V> for $ty<V> {
            fn group(n: usize, params: Params) -> Vec<Self> {
                $ty::group(n, params)
            }
            fn update_batch(lists: &[&Self], keys: &[u64], values: &[V]) -> Vec<Option<V>> {
                $ty::update_batch(lists, keys, values)
            }
            fn remove_batch(lists: &[&Self], keys: &[u64]) -> Vec<Option<V>> {
                $ty::remove_batch(lists, keys)
            }
        }
    )*};
}
variant!(LeapListLt, LeapListCop, LeapListTm, LeapListRwlock);
