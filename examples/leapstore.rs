//! LeapStore demo: a sharded range-store with cross-shard transactions,
//! linearizable cross-shard range queries, an admission-gated batcher,
//! the per-shard statistics surface — and live resharding: a zipfian load
//! makes one shard hot, and an online split migrates half of it away while
//! the store keeps serving.
//!
//! ```sh
//! cargo run --release --example leapstore
//! ```

use leap_bench::rng::Rng64;
use leap_bench::zipf::Zipf;
use leap_store::{BatchOp, Batcher, LeapStore, Partitioning, RebalanceAction, StoreConfig};
use std::sync::Arc;

fn main() {
    // A 4-shard store slicing the keyspace [0, 1M) contiguously: range
    // queries only visit the shards overlapping the queried interval.
    let store = Arc::new(LeapStore::<u64>::new(
        StoreConfig::new(4, Partitioning::Range).with_key_space(1_000_000),
    ));

    // Single-key operations route to one shard each.
    for k in (0..1_000_000).step_by(10_007) {
        store.put(k, k / 1_000);
    }
    println!(
        "loaded {} keys across {} shards",
        store.len(),
        store.shards()
    );

    // A cross-shard batch: all four writes commit as ONE transaction. A
    // concurrent range query sees all of them or none of them.
    let old = store.multi_put(&[(5, 1), (260_000, 2), (510_000, 3), (760_000, 4)]);
    println!("multi_put previous values: {old:?}");

    // Mixed batch: move a key between shards atomically (delete + insert),
    // the index-maintenance shape the paper's §4 database needs.
    store.apply(&[BatchOp::Remove(5), BatchOp::Update(990_000, 1)]);
    assert_eq!(store.get(5), None);
    assert_eq!(store.get(990_000), Some(1));

    // Linearizable cross-shard range query: one consistent snapshot even
    // though it spans two shards.
    let page = store.range(200_000, 300_000);
    println!(
        "range [200k, 300k]: {} keys, first={:?}, last={:?}",
        page.len(),
        page.first(),
        page.last()
    );
    assert!(page.windows(2).all(|w| w[0].0 < w[1].0));

    // The batcher's admission gate: worker threads submit single-key ops
    // straight to the store, but at most two at a time. A submitter that
    // finds the gate full gets a typed `Overloaded` back instead of
    // queueing, and decides itself what to do with the op (here: drop it).
    let batcher = Arc::new(Batcher::new(store.clone()).with_admission(2));
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let b = batcher.clone();
            std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    let _ = b.try_put(t * 250_000 + i, i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let bs = batcher.stats();
    println!(
        "batcher: {} ops admitted, {} shed at the gate (bound 2)",
        bs.ops, bs.shed
    );
    assert_eq!(bs.ops + bs.shed, 4 * 2_000);

    // The stats surface: per-shard op counters plus the shared domain's
    // commit/abort counters (one JSON object for dashboards).
    let stats = store.stats();
    println!("\nper-shard statistics:\n{stats}");
    println!("\njson: {}", stats.to_json());

    // ── Live resharding ────────────────────────────────────────────────
    // A zipfian (θ = 0.99) load over the low keys piles almost everything
    // onto shard 0's interval: the classic hot shard.
    let zipf = Zipf::new(200_000, 0.99);
    let mut rng = Rng64::new(0x5EED);
    for _ in 0..30_000 {
        store.put(zipf.sample(&mut rng), 7);
    }
    let before = store.stats();
    println!("\nbefore split (key_spread = {}):", before.key_spread());
    for s in before.shards.iter().filter(|s| s.owned) {
        println!("  shard {:>2}: {:>6} keys", s.shard, s.keys);
    }

    // Split the hot shard at the middle of its interval. The migration is
    // online: keys move in bounded single-transaction chunks, and every
    // `rebalance_step` in between leaves the store fully serving — the
    // range query below runs mid-migration and stays consistent.
    let hot = before
        .shards
        .iter()
        .filter(|s| s.owned)
        .max_by_key(|s| s.keys)
        .expect("some shard owns keys")
        .shard;
    let (lo, hi) = store.router().shard_interval(hot).expect("hot owns keys");
    let dst = store.split_shard(hot, lo + (hi - lo) / 8).expect("split");
    println!("\nsplitting hot shard {hot} -> {dst} (online, chunked):");
    let mut chunks = 0;
    loop {
        match store.rebalance_step() {
            RebalanceAction::Moved { keys, .. } => {
                chunks += 1;
                if chunks % 20 == 0 {
                    let mid = store.range(0, 1_000);
                    println!(
                        "  ...{chunks} chunks in, {keys} keys/chunk, range [0,1000] \
                         still consistent ({} keys)",
                        mid.len()
                    );
                }
            }
            RebalanceAction::Completed { epoch } => {
                println!("  migration complete: routing epoch {epoch}");
                break;
            }
            other => {
                println!("  {other:?}");
                break;
            }
        }
    }

    let after = store.stats();
    println!("\nafter split (key_spread = {}):", after.key_spread());
    for s in after.shards.iter().filter(|s| s.owned) {
        println!("  shard {:>2}: {:>6} keys", s.shard, s.keys);
    }
    assert!(after.key_spread() < before.key_spread());

    // Paged scans keep working across the epoch change: each page is one
    // bounded linearizable transaction with a resume key.
    let mut pages = 0;
    let mut scanned = 0;
    for page in store.scan_pages(0, 999_999, 4_096) {
        pages += 1;
        scanned += page.len();
    }
    println!("\ncursor scan: {scanned} keys in {pages} pages of <= 4096");
    assert_eq!(scanned, store.len());
}
