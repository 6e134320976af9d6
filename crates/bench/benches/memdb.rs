//! Criterion micro-benchmarks for the memdb application layer: row
//! mutations and index scans on both table backends, the repo's only
//! raw-vs-sharded comparison. The interesting one is `update_age`
//! (indexed-column update: covering entry moves between buckets in ONE
//! transaction) raw vs sharded.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use leap_memdb::{Backend, RowId, Schema, Table};
use leap_store::RebalancePolicy;
use leaplist::Params;
use std::time::Duration;

const ROWS: u64 = 10_000;
const AGE_DOM: u64 = 1_000;

fn table(sharded: bool) -> Table {
    let schema = Schema::new(&["user", "age"]).with_index("age");
    let backend = if sharded {
        Backend::Sharded {
            params: Params::default(),
            shards: None,
            rebalance: RebalancePolicy::default(),
        }
    } else {
        Backend::RawLists(Params::default())
    };
    let t = Table::with_backend(schema, backend);
    for i in 0..ROWS {
        t.insert(&[i, i % AGE_DOM]).expect("valid row");
    }
    t
}

fn bench_backend(c: &mut Criterion, label: &str, sharded: bool) {
    let t = table(sharded);
    let mut group = c.benchmark_group("memdb");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    let mut k = 0u64;
    group.bench_function(BenchmarkId::new("get", label), |b| {
        b.iter(|| {
            k = (k + 7919) % ROWS;
            std::hint::black_box(t.get(RowId(1 + k)))
        })
    });
    group.bench_function(BenchmarkId::new("update_age", label), |b| {
        b.iter(|| {
            k = (k + 7919) % ROWS;
            std::hint::black_box(t.update_column(RowId(1 + k % ROWS), "age", k % AGE_DOM))
        })
    });
    group.bench_function(BenchmarkId::new("update_user", label), |b| {
        b.iter(|| {
            k = (k + 7919) % ROWS;
            std::hint::black_box(t.update_column(RowId(1 + k % ROWS), "user", k))
        })
    });
    group.bench_function(BenchmarkId::new("scan_by_50", label), |b| {
        b.iter(|| {
            k = (k + 7919) % (AGE_DOM - 50);
            std::hint::black_box(t.scan_by("age", k, k + 49).expect("indexed").len())
        })
    });
    group.bench_function(BenchmarkId::new("scan_by_pages_50", label), |b| {
        b.iter(|| {
            k = (k + 7919) % (AGE_DOM - 50);
            let pages = t
                .scan_by_pages("age", k, k + 49, 64)
                .expect("indexed")
                .map(|p| p.len())
                .sum::<usize>();
            std::hint::black_box(pages)
        })
    });
    group.bench_function(BenchmarkId::new("insert_delete", label), |b| {
        b.iter(|| {
            let id = t.insert(&[7, 7]).expect("valid row");
            std::hint::black_box(t.delete(id).expect("live row"))
        })
    });
    group.finish();
}

fn bench_memdb(c: &mut Criterion) {
    bench_backend(c, "raw", false);
    bench_backend(c, "sharded", true);
}

criterion_group!(benches, bench_memdb);
criterion_main!(benches);
