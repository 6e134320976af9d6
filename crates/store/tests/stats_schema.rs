//! The schema of the store's two stats renderings, checked where the
//! schema is defined: after puts, a range, one split driven to completion
//! and one pinned-timestamp scan, [`StoreStats::to_json`] is one balanced
//! object carrying every key dashboards and post-processing read, and
//! [`StoreStats::to_prometheus`] names the same counters — on one page
//! that carries every series of the store's registry, each exactly once.
//!
//! [`StoreStats::to_json`]: leap_store::StoreStats::to_json
//! [`StoreStats::to_prometheus`]: leap_store::StoreStats::to_prometheus

use leap_store::{LeapStore, Partitioning, RebalancePolicy, StoreConfig};
use leaplist::Params;

/// Whether `s` is exactly one `{...}` object whose braces and brackets
/// nest and close and whose strings terminate.
fn is_one_balanced_object(s: &str) -> bool {
    if !s.starts_with('{') {
        return false;
    }
    let mut open = Vec::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => loop {
                match chars.next() {
                    Some('\\') => {
                        chars.next();
                    }
                    Some('"') => break,
                    Some(_) => {}
                    None => return false,
                }
            },
            '{' | '[' => open.push(c),
            '}' | ']' => {
                if open.pop() != Some(if c == '}' { '{' } else { '[' }) {
                    return false;
                }
                if open.is_empty() {
                    // The object closed: nothing may follow it.
                    return chars.next().is_none();
                }
            }
            _ => {}
        }
    }
    false
}

#[test]
fn the_checker_refuses_what_it_must() {
    assert!(is_one_balanced_object("{\"a\":[1,{\"b\":\"}\\\"\"}]}"));
    for bad in [
        "",
        "[1]",
        "{\"a\":1}}",
        "{{\"a\":1}",
        "{\"a\":[1}",
        "{\"a\":\"x}",
        "{} {}",
    ] {
        assert!(!is_one_balanced_object(bad), "{bad}");
    }
}

#[test]
fn stats_json_and_prometheus_carry_every_schema_key() {
    // Auto-actions off: the one explicit split is the only migration.
    let store: LeapStore<u64> = LeapStore::new(
        StoreConfig::new(2, Partitioning::Range)
            .with_key_space(1_000)
            .with_params(Params {
                node_size: 4,
                max_level: 6,
            })
            .with_rebalancing(RebalancePolicy {
                chunk: 16,
                min_split_keys: 1_000_000,
                merge_ratio: 0.0,
                ..RebalancePolicy::default()
            }),
    );
    for k in 0..200u64 {
        store.put(k, k);
    }
    assert_eq!(store.range(0, 999).len(), 200);
    store.split_shard(0, 100).expect("split shard 0");
    store.rebalance_until_idle();
    let scanned: usize = store
        .scan_snapshot_pages(0, 999, 256)
        .map(|page| page.len())
        .sum();
    assert_eq!(scanned, 200);

    let stats = store.stats();
    assert!(stats.obs.is_some(), "obs is on by default");
    assert_eq!(stats.migrations_completed, 1);
    assert_eq!(stats.snapshot_scans, 1);

    let json = stats.to_json();
    assert!(is_one_balanced_object(&json), "{json}");
    for key in [
        "op_latency",
        "p999_ns",
        "txn_retries",
        "events",
        "conflict_read_aborts",
        "conflict_commit_aborts",
        "shed_ops",
        "timeouts",
        "snapshot_scans",
        "bundle_depth",
    ] {
        assert!(json.contains(&format!("\"{key}\":")), "{key}: {json}");
    }
    assert!(!json.contains("aborted_migrations"), "{json}");
    assert!(json.contains("\"snapshot_scans\":1,"), "{json}");
    assert!(json.contains("\"migrations_completed\":1,"), "{json}");
    assert!(json.contains("\"kind\":\"migration_complete\""), "{json}");
    for op in ["put", "range", "snapshot_page"] {
        assert!(
            !json.contains(&format!("\"{op}\":{{\"count\":0,")),
            "{op} was served, so it has latency samples: {json}"
        );
    }

    let prom = stats.to_prometheus();
    for series in [
        "store_op_put_ns_count 200\n",
        "# TYPE store_op_snapshot_page_ns histogram\n",
        "# TYPE stm_txn_retries histogram\n",
        "store_events_published ",
        "store_events_dropped 0\n",
        "stm_aborts{cause=\"conflict_read\"} ",
        "stm_aborts{cause=\"conflict_commit\"} ",
        "store_migrations_completed 1\n",
        "store_shed_ops 0\n",
        "stm_timeouts 0\n",
        "store_snapshot_scans 1\n",
        "# TYPE store_bundle_depth gauge\n",
    ] {
        assert!(prom.contains(series), "{series:?}: {prom}");
    }
    assert!(!prom.contains("store_migrations_aborted"), "{prom}");

    // One page: no series declared twice, and every series the store's
    // registry renders — the view counters included — is on it.
    let declared: Vec<&str> = prom.lines().filter(|l| l.starts_with("# TYPE ")).collect();
    let mut seen = std::collections::HashSet::new();
    for line in &declared {
        let name = line
            .split_whitespace()
            .nth(2)
            .expect("a TYPE line names a series");
        assert!(seen.insert(name), "{name} declared twice: {prom}");
    }
    for series in ["store_view_swaps", "store_stamp_retries"] {
        assert!(
            prom.contains(&format!("# TYPE {series} counter\n{series} ")),
            "{series}: {prom}"
        );
    }
    let obs = store.obs().expect("obs on by default");
    for line in obs
        .registry()
        .to_prometheus()
        .lines()
        .filter(|l| l.starts_with("# TYPE "))
    {
        assert!(declared.contains(&line), "{line} missing: {prom}");
    }
    // At quiescence the ring's loss accounting is exact, not estimated.
    let published = format!("\nstore_events_published {}\n", obs.events().published());
    assert!(prom.contains(&published), "{published:?}: {prom}");
}
