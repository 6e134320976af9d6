//! Adapters exposing each evaluated algorithm through one dyn-safe
//! interface, so the driver and figure sweeps are algorithm-agnostic.

use leap_skiplist::{CasSkipList, TmSkipList};
use leaplist::{LeapListCop, LeapListLt, LeapListRwlock, LeapListTm, Params};
use std::sync::Arc;

/// The algorithms measured in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Leap-LT (the paper's proposal).
    LeapLt,
    /// Leap-tm (every op in a transaction).
    LeapTm,
    /// Leap-COP.
    LeapCop,
    /// Leap-rwlock.
    LeapRwlock,
    /// Skip-cas (Fraser-style lock-free skip-list).
    SkipCas,
    /// Skip-tm (transaction-wrapped skip-list).
    SkipTm,
}

impl Algo {
    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Algo::LeapLt => "Leap-LT",
            Algo::LeapTm => "Leap-tm",
            Algo::LeapCop => "Leap-COP",
            Algo::LeapRwlock => "Leap-rwlock",
            Algo::SkipCas => "Skiplist-cas",
            Algo::SkipTm => "Skiplist-tm",
        }
    }

    /// The four Leap-List variants (Figs. 14-16).
    pub fn leap_variants() -> [Algo; 4] {
        [Algo::LeapTm, Algo::LeapRwlock, Algo::LeapCop, Algo::LeapLt]
    }

    /// The Fig. 17 series: skip-list baselines plus Leap-LT.
    pub fn skiplist_comparison() -> [Algo; 3] {
        [Algo::SkipTm, Algo::SkipCas, Algo::LeapLt]
    }
}

/// A benchmark target: `L` lists of one algorithm.
///
/// Modifications are composite over all `L` lists (the paper's
/// `Update(ll, k, v, s)` / `Remove(ll, k, s)`); lookups and range queries
/// address one list. Throughput counts one composite modification as one
/// operation, as the paper does.
pub trait BenchTarget: Send + Sync {
    /// Algorithm label.
    fn name(&self) -> &'static str;
    /// Number of lists (`L`).
    fn lists(&self) -> usize;
    /// Inserts keys `0..elements` (value = key) into every list.
    fn prefill(&self, elements: u64);
    /// Composite update: `keys[j] -> values[j]` in list `j`.
    fn update(&self, keys: &[u64], values: &[u64]);
    /// Composite remove.
    fn remove(&self, keys: &[u64]);
    /// Single-list lookup; returns whether the key was present.
    fn lookup(&self, list: usize, key: u64) -> bool;
    /// Single-list range query; returns the number of pairs collected.
    fn range_query(&self, list: usize, lo: u64, hi: u64) -> usize;
}

macro_rules! leap_target {
    ($wrapper:ident, $list:ident, $label:expr) => {
        struct $wrapper {
            lists: Vec<$list<u64>>,
        }

        impl BenchTarget for $wrapper {
            fn name(&self) -> &'static str {
                $label
            }
            fn lists(&self) -> usize {
                self.lists.len()
            }
            fn prefill(&self, elements: u64) {
                for l in &self.lists {
                    for k in 0..elements {
                        l.update(k, k);
                    }
                }
            }
            fn update(&self, keys: &[u64], values: &[u64]) {
                let refs: Vec<&$list<u64>> = self.lists.iter().collect();
                $list::update_batch(&refs, keys, values);
            }
            fn remove(&self, keys: &[u64]) {
                let refs: Vec<&$list<u64>> = self.lists.iter().collect();
                $list::remove_batch(&refs, keys);
            }
            fn lookup(&self, list: usize, key: u64) -> bool {
                self.lists[list].lookup(key).is_some()
            }
            fn range_query(&self, list: usize, lo: u64, hi: u64) -> usize {
                self.lists[list].range_query(lo, hi).len()
            }
        }
    };
}

leap_target!(LtTarget, LeapListLt, "Leap-LT");
leap_target!(TmTarget, LeapListTm, "Leap-tm");
leap_target!(CopTarget, LeapListCop, "Leap-COP");
leap_target!(RwlockTarget, LeapListRwlock, "Leap-rwlock");

struct SkipCasTarget {
    list: CasSkipList,
}

impl BenchTarget for SkipCasTarget {
    fn name(&self) -> &'static str {
        "Skiplist-cas"
    }
    fn lists(&self) -> usize {
        1
    }
    fn prefill(&self, elements: u64) {
        for k in 0..elements {
            self.list.insert(k, k);
        }
    }
    fn update(&self, keys: &[u64], values: &[u64]) {
        self.list.insert(keys[0], values[0]);
    }
    fn remove(&self, keys: &[u64]) {
        self.list.remove(keys[0]);
    }
    fn lookup(&self, _list: usize, key: u64) -> bool {
        self.list.lookup(key).is_some()
    }
    fn range_query(&self, _list: usize, lo: u64, hi: u64) -> usize {
        // Non-linearizable, as measured in the paper (§3.1).
        self.list.range_query_inconsistent(lo, hi).len()
    }
}

struct SkipTmTarget {
    list: TmSkipList,
}

impl BenchTarget for SkipTmTarget {
    fn name(&self) -> &'static str {
        "Skiplist-tm"
    }
    fn lists(&self) -> usize {
        1
    }
    fn prefill(&self, elements: u64) {
        for k in 0..elements {
            self.list.insert(k, k);
        }
    }
    fn update(&self, keys: &[u64], values: &[u64]) {
        self.list.insert(keys[0], values[0]);
    }
    fn remove(&self, keys: &[u64]) {
        self.list.remove(keys[0]);
    }
    fn lookup(&self, _list: usize, key: u64) -> bool {
        self.list.lookup(key).is_some()
    }
    fn range_query(&self, _list: usize, lo: u64, hi: u64) -> usize {
        self.list.range_query(lo, hi).len()
    }
}

/// Builds a target of `lists` lists with the given Leap-List parameters
/// (skip-list targets ignore `params` and always have one list).
pub fn make_target(algo: Algo, lists: usize, params: Params) -> Arc<dyn BenchTarget> {
    match algo {
        Algo::LeapLt => Arc::new(LtTarget {
            lists: LeapListLt::group(lists, params),
        }),
        Algo::LeapTm => Arc::new(TmTarget {
            lists: LeapListTm::group(lists, params),
        }),
        Algo::LeapCop => Arc::new(CopTarget {
            lists: LeapListCop::group(lists, params),
        }),
        Algo::LeapRwlock => Arc::new(RwlockTarget {
            lists: LeapListRwlock::group(lists, params),
        }),
        Algo::SkipCas => Arc::new(SkipCasTarget {
            list: CasSkipList::new(),
        }),
        Algo::SkipTm => Arc::new(SkipTmTarget {
            list: TmSkipList::new(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_targets_roundtrip() {
        for algo in [
            Algo::LeapLt,
            Algo::LeapTm,
            Algo::LeapCop,
            Algo::LeapRwlock,
            Algo::SkipCas,
            Algo::SkipTm,
        ] {
            let lists = if matches!(algo, Algo::SkipCas | Algo::SkipTm) {
                1
            } else {
                4
            };
            let t = make_target(
                algo,
                lists,
                Params {
                    node_size: 8,
                    max_level: 6,
                    ..Params::default()
                },
            );
            assert_eq!(t.lists(), lists);
            t.prefill(50);
            assert!(t.lookup(0, 25), "{} missing prefilled key", t.name());
            let keys: Vec<u64> = (0..lists as u64).map(|i| 100 + i).collect();
            let vals = vec![7u64; lists];
            t.update(&keys, &vals);
            assert!(t.lookup(0, 100), "{}", t.name());
            assert!(t.range_query(0, 0, 200) >= 51, "{}", t.name());
            t.remove(&keys);
            assert!(!t.lookup(0, 100), "{}", t.name());
        }
    }
}
