//! Criterion micro-benchmarks for the memdb application layer: row
//! mutations and index scans on one table. The interesting one is
//! `update_age` (indexed-column update: the covering entry moves between
//! buckets in ONE transaction). Every table is one sharded `LeapStore`,
//! so each op is one series; there is no layout comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use leap_memdb::{RowId, Schema, Table};
use std::time::Duration;

const ROWS: u64 = 10_000;
const AGE_DOM: u64 = 1_000;

fn table() -> Table {
    let t = Table::new(Schema::new(&["user", "age"]).with_index("age"));
    for i in 0..ROWS {
        t.insert(&[i, i % AGE_DOM]).expect("valid row");
    }
    t
}

fn bench_memdb(c: &mut Criterion) {
    let t = table();
    let mut group = c.benchmark_group("memdb");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    let mut k = 0u64;
    group.bench_function("get", |b| {
        b.iter(|| {
            k = (k + 7919) % ROWS;
            std::hint::black_box(t.get(RowId(1 + k)))
        })
    });
    group.bench_function("update_age", |b| {
        b.iter(|| {
            k = (k + 7919) % ROWS;
            std::hint::black_box(t.update_column(RowId(1 + k % ROWS), "age", k % AGE_DOM))
        })
    });
    group.bench_function("update_user", |b| {
        b.iter(|| {
            k = (k + 7919) % ROWS;
            std::hint::black_box(t.update_column(RowId(1 + k % ROWS), "user", k))
        })
    });
    group.bench_function("scan_by_50", |b| {
        b.iter(|| {
            k = (k + 7919) % (AGE_DOM - 50);
            std::hint::black_box(t.scan_by("age", k, k + 49).expect("indexed").len())
        })
    });
    group.bench_function("scan_by_pages_50", |b| {
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
    group.bench_function("insert_delete", |b| {
        b.iter(|| {
            let id = t.insert(&[7, 7]).expect("valid row");
            std::hint::black_box(t.delete(id).expect("live row"))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_memdb);
criterion_main!(benches);
