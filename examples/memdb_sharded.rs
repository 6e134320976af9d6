//! The paper's in-memory database riding LeapStore: a table whose
//! primary and secondary indexes live in prefix-tagged subspaces of one
//! sharded store, so index maintenance is a single cross-shard
//! transaction and a background rebalancer can split index-heavy shards
//! while queries run.
//!
//! ```text
//! cargo run --release --example memdb_sharded
//! ```

use leap_memdb::{Schema, Table, TableConfig};
use leap_store::{RebalancePolicy, Rebalancer};
use std::time::Duration;

fn main() {
    // user (free-form), age (indexed), score (indexed): one store, three
    // subspaces, six shards. Even strides over the tagged keyspace put
    // each subspace's populated low end on one shard and leave every
    // other shard empty — a skew the rebalancer has to repair.
    let table = Table::with_config(
        Schema::new(&["user", "age", "score"])
            .with_index("age")
            .with_index("score"),
        TableConfig {
            shards: Some(6),
            rebalance: RebalancePolicy {
                chunk: 512,
                split_ratio: 1.5,
                min_split_keys: 256,
                ..RebalancePolicy::default()
            },
            ..TableConfig::default()
        },
    );

    for i in 0..30_000u64 {
        table
            .insert(&[i, i % 90, (i * 7) % 1_000])
            .expect("valid row");
    }
    println!("table: {table:?}");
    println!("\nper-subspace placement before rebalancing:");
    for ss in table.subspace_stats() {
        println!(
            "  subspace {} ({}): {:>6} keys on shards {:?}",
            ss.tag,
            match ss.tag {
                0 => "primary",
                1 => "age idx",
                _ => "score idx",
            },
            ss.keys,
            ss.shards
        );
    }

    // A background rebalancer splits the key-heavy shards (median-key
    // splits) while the table keeps answering queries.
    let store = table.store().expect("every table has a store").clone();
    let rebalancer = Rebalancer::spawn(store.clone(), Duration::from_millis(1));
    let expect_thirties = (0..30_000u64)
        .filter(|i| (30..=39).contains(&(i % 90)))
        .count();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let mut snapshots = 0u64;
    while store.stats().migrations_completed < 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "rebalancer made no progress"
        );
        // Queries during migration: every scan is one consistent
        // snapshot including both sides of the in-flight overlay.
        let thirties = table.count_by("age", 30, 39).expect("indexed");
        assert_eq!(thirties, expect_thirties, "scan racing the rebalancer");
        snapshots += 1;
    }
    let actions = rebalancer.stop().expect("rebalancer survived the run");
    println!("\nrebalancer: {actions} actions, {snapshots} racing snapshots checked");

    println!("\nper-subspace placement after rebalancing:");
    for ss in table.subspace_stats() {
        println!(
            "  subspace {}: {:>6} keys on shards {:?}",
            ss.tag, ss.keys, ss.shards
        );
    }
    let st = store.stats();
    println!(
        "\nstore: epoch={} migrations={} key_spread={} abort_rate={:.4}",
        st.epoch,
        st.migrations_completed,
        st.key_spread(),
        st.abort_rate()
    );

    // An indexed-column update is ONE store transaction: the age entry
    // moves buckets, the primary and score entries rewrite, atomically.
    let commits_before = store.stats().stm.total_commits();
    let id = table.insert(&[99_999, 30, 500]).expect("valid row");
    table.update_column(id, "age", 60).expect("live row");
    println!(
        "\nindexed-column update: {} store transaction(s)",
        store.stats().stm.total_commits() - commits_before - 1 // minus the insert
    );

    // Paged index scans route through the store's cursor.
    let mut pages = 0usize;
    let mut rows = 0usize;
    for page in table
        .scan_by_pages("score", 0, 499, 1_024)
        .expect("indexed")
    {
        pages += 1;
        rows += page.len();
    }
    println!("paged score scan: {rows} rows over {pages} bounded pages");
}
