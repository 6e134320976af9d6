//! Adapters exposing each evaluated algorithm through one dyn-safe
//! interface, so the driver and figure sweeps are algorithm-agnostic.

use leap_memdb::{Backend, RowId, Schema, Table};
use leap_skiplist::{CasSkipList, TmSkipList};
use leap_store::{LeapStore, Partitioning, RebalanceAction, RebalancePolicy, StoreConfig};
use leaplist::{LeapListCop, LeapListLt, LeapListRwlock, LeapListTm, Params};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The algorithms measured in the paper's evaluation, plus the LeapStore
/// service layer built on top of them.
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
    /// LeapStore: range-partitioned shards over Leap-LT, with cross-shard
    /// atomic batches and linearizable cross-shard range queries.
    LeapStore,
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
            Algo::LeapStore => "LeapStore",
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
    /// Target-specific statistics as one JSON object (shard-level abort
    /// rates for LeapStore); `None` for targets without a stats surface.
    fn stats_json(&self) -> Option<String> {
        None
    }
    /// Advances the target's shard rebalancer by one bounded action;
    /// returns whether anything happened. `false` for targets without
    /// online resharding — a background driver can poll this and sleep
    /// when idle.
    fn rebalance_step(&self) -> bool {
        false
    }
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

/// LeapStore as a bench target: `lists` is the shard count; the keyspace
/// is one logical dictionary, not `L` replicas. A composite "update" is a
/// cross-shard `multi_put`, a composite "remove" a cross-shard
/// `multi_delete` — the store's multi-shard transactions. Lookups and
/// range queries ignore the `list` argument (the router decides placement).
struct StoreTarget {
    store: LeapStore<u64>,
    shards: usize,
    /// Route range queries through the pinned-timestamp paged scan
    /// (`scan_snapshot_pages`) instead of the transactional `range`, so
    /// the series measures the version-bundle read path.
    snapshot_scans: bool,
}

impl BenchTarget for StoreTarget {
    fn name(&self) -> &'static str {
        "LeapStore"
    }
    fn lists(&self) -> usize {
        self.shards
    }
    fn prefill(&self, elements: u64) {
        for k in 0..elements {
            self.store.put(k, k);
        }
    }
    fn update(&self, keys: &[u64], values: &[u64]) {
        let entries: Vec<(u64, u64)> = keys.iter().copied().zip(values.iter().copied()).collect();
        self.store.multi_put(&entries);
    }
    fn remove(&self, keys: &[u64]) {
        self.store.multi_delete(keys);
    }
    fn lookup(&self, _list: usize, key: u64) -> bool {
        self.store.get(key).is_some()
    }
    fn range_query(&self, _list: usize, lo: u64, hi: u64) -> usize {
        if self.snapshot_scans {
            // Pin once, then page at the pinned timestamp: no retries
            // against concurrent commits, even mid-migration.
            self.store
                .scan_snapshot_pages(lo, hi, 128)
                .map(|page| page.len())
                .sum()
        } else {
            self.store.range(lo, hi).len()
        }
    }
    fn stats_json(&self) -> Option<String> {
        Some(self.store.stats().to_json())
    }
    fn rebalance_step(&self) -> bool {
        self.store.rebalance_step() != RebalanceAction::Idle
    }
}

/// The paper's closing application as a bench target: a `leap-memdb`
/// [`Table`] (`["user", "age"]`, age indexed) on either backend. The
/// driver's abstract ops map onto table operations:
///
/// * composite "update" — `update_column` of the **indexed** `age`
///   column on the row derived from the first key (the index-move path:
///   remove + insert + primary rewrite, one transaction);
/// * composite "remove" — `update_column` of the non-indexed `user`
///   column (covering-entry rewrite, one transaction), so the population
///   stays fixed while "modify" splits 50/50 between the two shapes;
/// * lookup — primary-key `get`;
/// * range query — `scan_by` over the age index (odd-numbered windows
///   run through the paged `scan_by_pages` cursor instead).
struct MemdbTarget {
    table: Table,
    /// Ages are drawn modulo this domain (the workload's key range).
    age_domain: u64,
    /// Rows created by prefill (ids `1..=rows`); 0 until prefilled.
    rows: AtomicU64,
    name: &'static str,
}

impl MemdbTarget {
    fn row(&self, key: u64) -> RowId {
        let rows = self.rows.load(Ordering::Relaxed).max(1);
        RowId(1 + key % rows)
    }
}

impl BenchTarget for MemdbTarget {
    fn name(&self) -> &'static str {
        self.name
    }
    fn lists(&self) -> usize {
        1
    }
    fn prefill(&self, elements: u64) {
        for i in 0..elements {
            self.table
                .insert(&[i, i % self.age_domain])
                .expect("valid row");
        }
        self.rows.fetch_add(elements, Ordering::Relaxed);
    }
    fn update(&self, keys: &[u64], values: &[u64]) {
        // Indexed-column update: the covering entry moves between age
        // buckets inside ONE transaction (a no-op move when the drawn age
        // equals the current one — still a full index-maintenance batch).
        let _ = self
            .table
            .update_column(self.row(keys[0]), "age", values[0] % self.age_domain);
    }
    fn remove(&self, keys: &[u64]) {
        // Non-indexed rewrite: all covering entries carry the new row.
        let _ = self.table.update_column(self.row(keys[0]), "user", keys[0]);
    }
    fn lookup(&self, _list: usize, key: u64) -> bool {
        self.table.get(self.row(key)).is_some()
    }
    fn range_query(&self, _list: usize, lo: u64, hi: u64) -> usize {
        let lo = lo.min(self.table.max_indexed_value());
        if hi % 2 == 1 {
            // The paged route: each page is one bounded transaction.
            self.table
                .scan_by_pages("age", lo, hi, 128)
                .expect("age is indexed")
                .map(|page| page.len())
                .sum()
        } else {
            self.table
                .scan_by("age", lo, hi)
                .expect("age is indexed")
                .len()
        }
    }
    fn stats_json(&self) -> Option<String> {
        self.table.store().map(|s| s.stats().to_json())
    }
    fn rebalance_step(&self) -> bool {
        self.table
            .store()
            .is_some_and(|s| s.rebalance_step() != RebalanceAction::Idle)
    }
}

/// Builds a memdb table target. `sharded` selects the LeapStore backend
/// (prefix-tagged subspaces, aggressive rebalance policy so a background
/// driver polling [`BenchTarget::rebalance_step`] splits index-heavy
/// shards); otherwise the raw per-index Leap-List backend. `age_domain`
/// should match the workload's key range so scans and updates hit the
/// populated part of the index.
///
/// `shards` (sharded backend only): `None` places each subspace on its
/// own shard — balanced from the start; `Some(n)` slices the tagged
/// keyspace into `n` even strides, which **concentrates** each
/// subspace's populated low end onto one shard (live keys sit far below
/// a stride boundary) — the skewed layout the `Memdb-reshard` series
/// hands a background rebalancer to repair via median-key splits.
pub fn make_memdb_target(
    sharded: bool,
    shards: Option<usize>,
    age_domain: u64,
    params: Params,
) -> Arc<dyn BenchTarget> {
    let schema = Schema::new(&["user", "age"]).with_index("age");
    let backend = if sharded {
        Backend::Sharded {
            params,
            shards,
            rebalance: RebalancePolicy {
                chunk: 256,
                split_ratio: 1.5,
                merge_ratio: 0.4,
                min_split_keys: 128,
                max_shards: 32,
                ..RebalancePolicy::default()
            },
        }
    } else {
        Backend::RawLists(params)
    };
    Arc::new(MemdbTarget {
        table: Table::with_backend(schema, backend),
        age_domain: age_domain.max(1),
        rows: AtomicU64::new(0),
        name: if sharded {
            "Memdb-sharded"
        } else {
            "Memdb-raw"
        },
    })
}

/// Builds a LeapStore target with explicit placement configuration: use
/// this when the workload's key range is known, so range partitioning can
/// slice it evenly (`make_target` defaults to hash partitioning, which
/// needs no key-space knowledge).
pub fn make_store_target(
    shards: usize,
    partitioning: Partitioning,
    key_space: u64,
    params: Params,
) -> Arc<dyn BenchTarget> {
    Arc::new(StoreTarget {
        store: LeapStore::new(
            StoreConfig::new(shards, partitioning)
                .with_key_space(key_space)
                .with_params(params),
        ),
        shards,
        snapshot_scans: false,
    })
}

/// Builds a range-partitioned LeapStore target with an **aggressive
/// rebalancing policy**, for the resharding benchmark series. The
/// declared key space is `shards ×` the workload's key range, so the
/// initial table concentrates the whole workload (prefill and all
/// sampled keys) on shard 0 — the hot-shard scenario a background thread
/// driving [`BenchTarget::rebalance_step`] must repair, splitting the hot
/// shard (and re-merging cold pairs) while the measured threads run.
pub fn make_reshard_store_target(
    shards: usize,
    key_space: u64,
    params: Params,
) -> Arc<dyn BenchTarget> {
    Arc::new(StoreTarget {
        store: LeapStore::new(
            StoreConfig::new(shards, Partitioning::Range)
                .with_key_space(key_space.saturating_mul(shards as u64))
                .with_params(params)
                .with_rebalancing(RebalancePolicy {
                    chunk: 256,
                    split_ratio: 1.5,
                    merge_ratio: 0.4,
                    min_split_keys: 128,
                    max_shards: 32,
                    ..RebalancePolicy::default()
                }),
        ),
        shards,
        snapshot_scans: false,
    })
}

/// Builds the `Store-scan-snapshot` target: the same hot-shard layout and
/// aggressive rebalancing policy as [`make_reshard_store_target`], but
/// every range query runs as a **snapshot-isolated paged scan** —
/// `scan_snapshot_pages` pins the commit timestamp on the first page and
/// serves every later page from the version bundles at that instant. The
/// series demonstrates that long scans neither retry against concurrent
/// commits nor abort across in-flight migrations: scan tails stay flat
/// while the write mix and the background rebalancer run.
pub fn make_snapshot_store_target(
    shards: usize,
    key_space: u64,
    params: Params,
) -> Arc<dyn BenchTarget> {
    Arc::new(StoreTarget {
        store: LeapStore::new(
            StoreConfig::new(shards, Partitioning::Range)
                .with_key_space(key_space.saturating_mul(shards as u64))
                .with_params(params)
                .with_rebalancing(RebalancePolicy {
                    chunk: 256,
                    split_ratio: 1.5,
                    merge_ratio: 0.4,
                    min_split_keys: 128,
                    max_shards: 32,
                    ..RebalancePolicy::default()
                }),
        ),
        shards,
        snapshot_scans: true,
    })
}

/// Builds a target of `lists` lists with the given Leap-List parameters
/// (skip-list targets ignore `params` and always have one list; the
/// LeapStore target interprets `lists` as its shard count).
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
        Algo::LeapStore => Arc::new(StoreTarget {
            store: LeapStore::new(StoreConfig::new(lists, Partitioning::Hash).with_params(params)),
            shards: lists,
            snapshot_scans: false,
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
            Algo::LeapStore,
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
            let expect_stats = algo == Algo::LeapStore;
            assert_eq!(t.stats_json().is_some(), expect_stats, "{}", t.name());
        }
    }

    #[test]
    fn store_target_reports_shard_stats() {
        let t = make_store_target(
            4,
            Partitioning::Range,
            1_000,
            Params {
                node_size: 8,
                max_level: 6,
                ..Params::default()
            },
        );
        t.prefill(100);
        t.update(&[10, 300, 600, 900], &[1, 2, 3, 4]);
        assert!(t.lookup(0, 600));
        assert!(t.range_query(0, 0, 999) >= 100);
        let json = t.stats_json().expect("store target has stats");
        assert!(
            json.contains("\"shard\":3"),
            "all four shards reported: {json}"
        );
        assert!(json.contains("abort_rate"));
    }

    #[test]
    fn snapshot_store_target_scans_at_a_pinned_timestamp() {
        let t = make_snapshot_store_target(
            4,
            1_000,
            Params {
                node_size: 8,
                max_level: 6,
                ..Params::default()
            },
        );
        t.prefill(300);
        assert_eq!(t.range_query(0, 0, 999), 300, "paged snapshot scan");
        t.update(&[50, 60], &[1, 2]);
        let json = t.stats_json().expect("store target has stats");
        assert!(
            json.contains("\"snapshot_scans\":1"),
            "range queries ride the snapshot path: {json}"
        );
        assert!(json.contains("\"bundle_depth\":"), "{json}");
        assert!(
            json.contains("\"snapshot_page\":{"),
            "snapshot pages are timed per-op: {json}"
        );
    }
}
