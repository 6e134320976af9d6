//! Table-level observability: per-op-kind latency histograms — the same
//! [`leap_obs::OpLatency`] table the store keeps — registered in one
//! [`leap_obs::Registry`], so a table scrape (JSON or Prometheus) sits
//! beside the backing store's one page (`StoreStats::to_prometheus`)
//! without sharing a series name.
//!
//! Every table op is microsecond-scale — each commits at least one
//! transaction, or walks an index snapshot — so unlike the store's
//! sampled get path every call records a sample.
//!
//! # Series names
//!
//! `table_op_insert_ns`, `table_op_delete_ns`, `table_op_get_ns`,
//! `table_op_update_ns`, `table_op_scan_ns`, `table_op_scan_page_ns`,
//! `table_op_count_ns`, `table_op_snapshot_page_ns` (pinned-timestamp
//! pages served by [`crate::TableSnapshotScan`]).

use leap_obs::{HistSnapshot, Json, OpLatency, Registry};
use std::sync::Arc;
use std::time::Instant;

/// The op-kind order every snapshot reports, paired with each kind's
/// registry series name.
const OP_KINDS: [(&str, &str); 8] = [
    ("insert", "table_op_insert_ns"),
    ("delete", "table_op_delete_ns"),
    ("get", "table_op_get_ns"),
    ("update", "table_op_update_ns"),
    ("scan", "table_op_scan_ns"),
    ("scan_page", "table_op_scan_page_ns"),
    ("count", "table_op_count_ns"),
    ("snapshot_page", "table_op_snapshot_page_ns"),
];

/// A table's op-latency table, one histogram per [`OP_KINDS`] entry.
type OpTable = OpLatency<{ OP_KINDS.len() }>;

/// Index into a table's op-latency table (kept in [`OP_KINDS`] order).
#[derive(Debug, Clone, Copy)]
pub(crate) enum TableOp {
    Insert = 0,
    Delete = 1,
    Get = 2,
    Update = 3,
    Scan = 4,
    ScanPage = 5,
    Count = 6,
    SnapshotPage = 7,
}

/// A table's instrument set: one latency histogram per op kind (see the
/// module docs for series names), all living in one registry.
#[derive(Debug)]
pub struct TableObs {
    registry: Arc<Registry>,
    /// Per-op-kind latency histograms, in [`OP_KINDS`] order.
    ops: OpTable,
}

impl TableObs {
    pub(crate) fn new() -> Self {
        let registry = Arc::new(Registry::new());
        let ops = OpTable::new(&registry, OP_KINDS);
        TableObs { registry, ops }
    }

    /// The registry holding every series — scrape it directly via
    /// [`Registry::snapshot_json`] / [`Registry::to_prometheus`].
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Times `f` and records the sample under `op`. The op kind also
    /// rides as the leap-trace op-context label, so any store span begun
    /// under `f` carries which table op drove it.
    #[inline]
    pub(crate) fn timed<T>(&self, op: TableOp, f: impl FnOnce() -> T) -> T {
        let _ctx = leap_obs::trace::op_context(self.ops.kind(op as usize));
        let start = Instant::now();
        let r = f();
        self.ops
            .record(op as usize, start.elapsed().as_nanos() as u64);
        r
    }

    /// A point-in-time copy of every op histogram.
    pub fn snapshot(&self) -> TableObsSnapshot {
        TableObsSnapshot {
            op_latency: self.ops.snapshot(),
        }
    }
}

/// A point-in-time copy of a table's op-latency histograms.
#[derive(Debug, Clone)]
pub struct TableObsSnapshot {
    /// Per-op-kind latency snapshots, in a fixed kind order (insert,
    /// delete, get, update, scan, scan_page, count, snapshot_page).
    pub op_latency: Vec<(&'static str, HistSnapshot)>,
}

impl TableObsSnapshot {
    /// The snapshot as one JSON object, keyed by op kind:
    /// `{"op_latency":{"insert":{"count",..},..}}`.
    pub fn to_json_value(&self) -> Json {
        Json::obj().field("op_latency", OpTable::to_json(&self.op_latency))
    }

    /// [`Self::to_json_value`], rendered.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reports_all_kinds_in_order() {
        let obs = TableObs::new();
        obs.timed(TableOp::Insert, || std::hint::black_box(1 + 1));
        obs.timed(TableOp::Count, || std::hint::black_box(2 + 2));
        obs.timed(TableOp::SnapshotPage, || std::hint::black_box(3 + 3));
        let snap = obs.snapshot();
        let kinds: Vec<&str> = snap.op_latency.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            kinds,
            vec![
                "insert",
                "delete",
                "get",
                "update",
                "scan",
                "scan_page",
                "count",
                "snapshot_page"
            ]
        );
        assert_eq!(snap.op_latency[0].1.count, 1);
        assert_eq!(snap.op_latency[6].1.count, 1);
        assert_eq!(snap.op_latency[7].1.count, 1);
        let json = snap.to_json();
        assert!(
            json.starts_with("{\"op_latency\":{\"insert\":{\"count\":1"),
            "{json}"
        );
        // The registry renders the same series under their public names.
        let reg = obs.registry().snapshot_json().render();
        assert!(reg.contains("\"table_op_insert_ns\""), "{reg}");
        let prom = obs.registry().to_prometheus();
        assert!(
            prom.contains("# TYPE table_op_insert_ns histogram"),
            "{prom}"
        );
    }
}
