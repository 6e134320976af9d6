//! Ablation benches for the paper's design choices:
//!
//! 1. intra-node **trie vs binary search**, at node level: the paper
//!    embeds a String-B-tree-style trie in every node; our nodes binary
//!    search their sorted pairs instead (root README, "Departures from the
//!    paper"), so no list can be configured with a trie any more. The
//!    panel compares `leaplist::Trie::get` with `binary_search_index` on
//!    sorted `u64` arrays of 150 / 300 / 1024 keys — hits and misses,
//!    cache-hot (one array) and cache-cold (strided over 16 MiB of arrays)
//!    — and times `Trie::build` (`trie_build/<n>` is one build of `n` keys;
//!    divide by `n` for the per-key cost a node replacement used to pay);
//! 2. **node size K** (the paper picked K=300 experimentally);
//! 3. STM commit strategy for Leap-LT: **write-back vs write-through**
//!    (GCC-TM, the paper's substrate, is write-through).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use leap_stm::{Mode, StmDomain};
use leaplist::{binary_search_index, LeapListLt, Params, Trie};
use std::sync::Arc;
use std::time::Duration;

const PREFILL: u64 = 20_000;

fn group_cfg<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name.to_string());
    g.sample_size(15)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    g
}

/// Bytes of keys the cache-cold probes stride over: four times this host
/// class's 4 MiB L2, so consecutive probes land on lines L2 no longer holds.
const COLD_KEY_BYTES: usize = 16 << 20;

/// `n` sorted keys with irregular gaps (so crit-bit depths vary the way
/// they do over real node contents), offset per array.
fn node_keys(n: usize, array: u64) -> Vec<u64> {
    let base = array * 1_000_003;
    (0..n as u64)
        .map(|i| base + i * 37 + (i % 3) * 11)
        .collect()
}

fn trie_vs_binary_search(c: &mut Criterion) {
    let mut g = group_cfg(c, "ablation_intra_node");
    for n in [150usize, 300, 1024] {
        let arrays: Vec<Vec<u64>> = (0..(COLD_KEY_BYTES / (8 * n)) as u64)
            .map(|a| node_keys(n, a))
            .collect();
        let tries: Vec<Trie> = arrays.iter().map(|keys| Trie::build(keys)).collect();
        g.bench_function(BenchmarkId::new("trie_build", n), |b| {
            b.iter(|| std::hint::black_box(Trie::build(std::hint::black_box(&arrays[0]))))
        });
        // `hit` probes a stored key, `miss` the gap just above it. `hot`
        // re-reads one array; `cold` steps through all of them with a
        // stride the prefetcher cannot follow.
        for (temp, stride) in [("hot", 0usize), ("cold", 7919)] {
            for (outcome, bump) in [("hit", 0u64), ("miss", 1)] {
                let (mut a, mut i) = (0usize, 0usize);
                let mut next_probe = || {
                    a = (a + stride) % arrays.len();
                    i = (i + 131) % n;
                    (a, arrays[a][i] + bump)
                };
                g.bench_function(
                    BenchmarkId::new(format!("trie_get_{temp}_{outcome}"), n),
                    |b| {
                        b.iter(|| {
                            let (a, key) = next_probe();
                            std::hint::black_box(tries[a].get(&arrays[a], key))
                        })
                    },
                );
                g.bench_function(
                    BenchmarkId::new(format!("binary_search_{temp}_{outcome}"), n),
                    |b| {
                        b.iter(|| {
                            let (a, key) = next_probe();
                            std::hint::black_box(binary_search_index(&arrays[a], key))
                        })
                    },
                );
            }
        }
    }
    g.finish();
}

fn node_size_sweep(c: &mut Criterion) {
    let mut g = group_cfg(c, "ablation_node_size");
    for node_size in [8usize, 32, 128, 300, 1024] {
        let p = Params {
            node_size,
            max_level: 10,
            ..Params::default()
        };
        let l: LeapListLt<u64> = LeapListLt::new(p);
        for k in 0..PREFILL {
            l.update(k, k);
        }
        let mut k = 0u64;
        g.bench_function(BenchmarkId::new("range_query_1500", node_size), |b| {
            b.iter(|| {
                k = (k + 7919) % (PREFILL - 1500);
                std::hint::black_box(l.range_query(k, k + 1500).len())
            })
        });
        g.bench_function(BenchmarkId::new("update", node_size), |b| {
            b.iter(|| {
                k = (k + 7919) % PREFILL;
                std::hint::black_box(l.update(k, k))
            })
        });
    }
    g.finish();
}

fn write_back_vs_write_through(c: &mut Criterion) {
    let mut g = group_cfg(c, "ablation_stm_mode");
    for (label, mode) in [
        ("write_back", Mode::WriteBack),
        ("write_through", Mode::WriteThrough),
    ] {
        let domain = Arc::new(StmDomain::with_config(mode, 16));
        let l: LeapListLt<u64> = LeapListLt::with_domain(Params::default(), domain);
        for k in 0..PREFILL {
            l.update(k, k);
        }
        let mut k = 0u64;
        g.bench_function(BenchmarkId::new("update", label), |b| {
            b.iter(|| {
                k = (k + 7919) % PREFILL;
                std::hint::black_box(l.update(k, k))
            })
        });
        g.bench_function(BenchmarkId::new("range_query_1500", label), |b| {
            b.iter(|| {
                k = (k + 7919) % (PREFILL - 1500);
                std::hint::black_box(l.range_query(k, k + 1500).len())
            })
        });
    }
    g.finish();
}

fn traversal_styles(c: &mut Criterion) {
    use leaplist::Traversal;
    let mut g = group_cfg(c, "ablation_traversal");
    for (label, traversal) in [
        ("mark_check", Traversal::MarkCheck),
        ("single_loc_read", Traversal::SingleLocationRead),
    ] {
        let l: LeapListLt<u64> = LeapListLt::new(Params {
            traversal,
            ..Params::default()
        });
        for k in 0..PREFILL {
            l.update(k, k);
        }
        let mut k = 0u64;
        g.bench_function(BenchmarkId::new("lookup", label), |b| {
            b.iter(|| {
                k = (k + 7919) % PREFILL;
                std::hint::black_box(l.lookup(k))
            })
        });
        g.bench_function(BenchmarkId::new("update", label), |b| {
            b.iter(|| {
                k = (k + 7919) % PREFILL;
                std::hint::black_box(l.update(k, k))
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    trie_vs_binary_search,
    node_size_sweep,
    write_back_vs_write_through,
    traversal_styles
);
criterion_main!(benches);
