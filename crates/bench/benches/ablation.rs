//! Ablation bench for the paper's node size **K** (the paper picked
//! K=300 experimentally).
//!
//! Three other design choices have no panel because only one side is
//! left in the code: the paper's intra-node trie (the root README's
//! "Nodes carry no trie"), GCC-TM's write-through STM and the
//! single-location-read COP traversal (EXPERIMENTS.md, "One traversal,
//! one STM mode", keeps their last numbers).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use leaplist::{LeapListLt, Params};
use std::time::Duration;

const PREFILL: u64 = 20_000;

fn node_size_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_node_size");
    g.sample_size(15)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for node_size in [8usize, 32, 128, 300, 1024] {
        let p = Params {
            node_size,
            max_level: 10,
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

criterion_group!(benches, node_size_sweep);
criterion_main!(benches);
