//! Observability demo: drive a sharded store through puts, gets, a
//! cross-shard batch and a live shard split, then scrape everything the
//! `leap-obs` core recorded — once as one JSON document
//! (`LeapStore::stats`), once as Prometheus text (what a scrape endpoint
//! would serve), plus a table-level registry from `leap-memdb`.
//!
//! ```sh
//! cargo run --release --example obs_dump
//! cargo run --release --example obs_dump | grep '^store_op_put_ns'
//! ```

use leap_memdb::{Schema, Table};
use leap_store::{LeapStore, Partitioning, StoreConfig};
use std::sync::Arc;

fn main() {
    // A 2-shard range store; observability is on by default.
    let store = Arc::new(LeapStore::<u64>::new(
        StoreConfig::new(2, Partitioning::Range).with_key_space(10_000),
    ));

    // Direct ops feed the per-op-kind latency histograms...
    for k in 0..2_000u64 {
        store.put(k, k * 3);
    }
    for k in (0..2_000u64).step_by(7) {
        let _ = store.get(k);
    }
    let _ = store.range(100, 400);
    // ...a cross-shard batch is one `store_op_apply_ns` sample...
    let batch: Vec<(u64, u64)> = (0..8u64).map(|i| (i * 1_250 + 7, i)).collect();
    store.multi_put(&batch);

    // ...and a live split writes `migration_begin` -> `migration_chunk`*
    // -> `migration_complete` (with the new routing epoch) onto the same
    // timeline.
    store.split_shard(0, 1_000).expect("split shard 0");
    store.rebalance_until_idle();

    let stats = store.stats();
    println!("== store stats (JSON, one scrape) ==");
    println!("{}", stats.to_json());
    println!();
    println!("== store stats (Prometheus text) ==");
    print!("{}", stats.to_prometheus());

    // The table layer keeps its own registry of op histograms.
    let table = Table::new(
        Schema::new(&["user", "age", "score"])
            .with_index("age")
            .with_index("score"),
    );
    for i in 0..500u64 {
        table.insert(&[i, i % 90, i % 100]).unwrap();
    }
    let _ = table.scan_by("age", 18, 65).unwrap();
    println!();
    println!("== table registry (JSON) ==");
    println!("{}", table.obs().registry().snapshot_json().render());
    println!();
    println!("== table registry (Prometheus text) ==");
    print!("{}", table.obs().registry().to_prometheus());
}
