//! Prometheus exposition conformance for the table + store registries.
//!
//! The scrape surface is consumed by an external system, so its contract
//! is pinned here: histogram buckets must be cumulative and monotone in
//! `le`, `_sum`/`_count` must agree with the JSON snapshot of the same
//! instruments, and scraping a table's registry beside the
//! backing store's registry — or beside the store's one complete page,
//! `stats().to_prometheus()` — must never produce a duplicate series.

use leap_memdb::{Schema, Table};
use std::collections::HashSet;

/// One parsed histogram block: `(le, cumulative_count)` bucket pairs in
/// file order, plus the trailing sum and count samples.
struct HistBlock {
    buckets: Vec<(f64, u64)>,
    sum: u64,
    count: u64,
}

/// Parses every `# TYPE <name> histogram` block out of a Prometheus text
/// page. Panics on malformed lines — the point of the test.
fn parse_histograms(page: &str) -> Vec<(String, HistBlock)> {
    let mut out: Vec<(String, HistBlock)> = Vec::new();
    let mut current: Option<(String, HistBlock)> = None;
    for line in page.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            if let Some(done) = current.take() {
                out.push(done);
            }
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE line names a series");
            if parts.next() == Some("histogram") {
                current = Some((
                    name.to_string(),
                    HistBlock {
                        buckets: Vec::new(),
                        sum: 0,
                        count: 0,
                    },
                ));
            }
            continue;
        }
        let Some((name, block)) = current.as_mut() else {
            continue;
        };
        if let Some(rest) = line.strip_prefix(&format!("{name}_bucket{{le=\"")) {
            let (le, tail) = rest.split_once("\"}").expect("closing le quote: {line}");
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse()
                    .unwrap_or_else(|_| panic!("numeric le in {line}"))
            };
            let cum = tail
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("numeric bucket value in {line}"));
            block.buckets.push((le, cum));
        } else if let Some(v) = line.strip_prefix(&format!("{name}_sum ")) {
            block.sum = v.trim().parse().expect("numeric _sum");
        } else if let Some(v) = line.strip_prefix(&format!("{name}_count ")) {
            block.count = v.trim().parse().expect("numeric _count");
        }
    }
    if let Some(done) = current.take() {
        out.push(done);
    }
    out
}

/// Every `# TYPE`-declared series name on a page.
fn series_names(page: &str) -> Vec<String> {
    page.lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

fn exercised_table() -> Table {
    let schema = Schema::new(&["user", "age"]).with_index("age");
    let table = Table::new(schema);
    let mut ids = Vec::new();
    for i in 0..40 {
        ids.push(table.insert(&[1000 + i, i % 7]).expect("insert"));
    }
    for &id in &ids {
        assert!(table.get(id).is_some());
    }
    table.update_column(ids[0], "age", 50).expect("update");
    table.delete(ids[1]).expect("delete");
    assert!(!table.scan_by("age", 0, 100).expect("scan").is_empty());
    assert!(!table.is_empty());
    table
}

#[test]
fn buckets_are_cumulative_and_monotone_in_le() {
    let table = exercised_table();
    let store = table.store().expect("every table has a store");
    for page in [
        table.obs().registry().to_prometheus(),
        store
            .obs()
            .expect("obs on by default")
            .registry()
            .to_prometheus(),
    ] {
        let hists = parse_histograms(&page);
        assert!(!hists.is_empty(), "page declares histograms:\n{page}");
        for (name, block) in hists {
            assert!(
                !block.buckets.is_empty(),
                "{name} has at least the +Inf bucket"
            );
            for pair in block.buckets.windows(2) {
                assert!(
                    pair[0].0 < pair[1].0,
                    "{name}: le strictly increasing ({} then {})",
                    pair[0].0,
                    pair[1].0
                );
                assert!(
                    pair[0].1 <= pair[1].1,
                    "{name}: cumulative counts non-decreasing"
                );
            }
            let last = block.buckets.last().expect("nonempty");
            assert!(last.0.is_infinite(), "{name}: final bucket is +Inf");
            assert_eq!(
                last.1, block.count,
                "{name}: +Inf bucket carries every sample"
            );
        }
    }
}

#[test]
fn sum_and_count_match_the_json_snapshot() {
    let table = exercised_table();
    // Table-level: each `table_op_<kind>_ns` block must agree with the
    // same instrument's structured snapshot (no ops run between the two
    // reads, so the values are exactly equal).
    let hists = parse_histograms(&table.obs().registry().to_prometheus());
    let snap = table.obs().snapshot();
    for (kind, h) in &snap.op_latency {
        let name = format!("table_op_{kind}_ns");
        let block = &hists
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} missing from exposition"))
            .1;
        assert_eq!(block.count, h.count, "{name}: _count matches snapshot");
        assert_eq!(block.sum, h.sum, "{name}: _sum matches snapshot");
    }
    // And the JSON rendering itself carries the same counts.
    let json = snap.to_json();
    for (kind, h) in &snap.op_latency {
        assert!(
            json.contains(&format!("\"{kind}\":{{\"count\":{}", h.count)),
            "JSON snapshot disagrees on {kind}: {json}"
        );
    }
}

#[test]
fn no_duplicate_series_across_table_and_store_registries() {
    let table = exercised_table();
    let store = table.store().expect("every table has a store");
    let table_page = table.obs().registry().to_prometheus();
    let store_registry_page = store
        .obs()
        .expect("obs on by default")
        .registry()
        .to_prometheus();
    let store_stats_page = store.stats().to_prometheus();
    for store_page in [&store_registry_page, &store_stats_page] {
        let mut seen = HashSet::new();
        for name in series_names(&table_page)
            .into_iter()
            .chain(series_names(store_page))
        {
            assert!(
                seen.insert(name.clone()),
                "series {name} declared twice across the combined scrape"
            );
        }
        // The two layers are distinguishable by prefix, which is what keeps
        // the combined page collision-free by construction.
        assert!(seen.iter().any(|n| n.starts_with("table_op_")));
        assert!(seen.iter().any(|n| n.starts_with("store_op_")));
    }
    // The stats page is the complete one: shard series beside every
    // registry series.
    assert!(store_stats_page.contains("# TYPE store_shard_keys gauge\n"));
    assert!(store_stats_page.contains("# TYPE store_view_swaps counter\n"));
}
