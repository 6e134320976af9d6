//! Ablation benches for the paper's design choices:
//!
//! 1. intra-node **trie vs binary search** (the String-B-tree trie is the
//!    paper's intra-node index);
//! 2. **node size K** (the paper picked K=300 experimentally);
//! 3. STM commit strategy for Leap-LT: **write-back vs write-through**
//!    (GCC-TM, the paper's substrate, is write-through).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use leap_stm::{Mode, StmDomain};
use leaplist::{LeapListLt, Params};
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

fn trie_vs_binary_search(c: &mut Criterion) {
    let mut g = group_cfg(c, "ablation_intra_node");
    for (label, use_trie) in [("trie", true), ("binary_search", false)] {
        for node_size in [300usize, 1024] {
            let p = Params {
                node_size,
                max_level: 10,
                use_trie,
                ..Params::default()
            };
            let l: LeapListLt<u64> = LeapListLt::new(p);
            for k in 0..PREFILL {
                l.update(k, k);
            }
            let mut k = 0u64;
            g.bench_function(
                BenchmarkId::new(format!("lookup_{label}"), node_size),
                |b| {
                    b.iter(|| {
                        k = (k + 7919) % PREFILL;
                        std::hint::black_box(l.lookup(k))
                    })
                },
            );
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
            use_trie: true,
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
