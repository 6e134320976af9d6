//! Store-level observability: per-op-kind latency histograms (one
//! [`leap_obs::OpLatency`] table), the shared STM retry histogram, and the
//! migration/drain event timeline — all registered in one
//! [`leap_obs::Registry`]. The registry renders every one of these series;
//! [`crate::StoreStats::to_prometheus`] puts that page beside the shard,
//! STM and migration series the stats snapshot owns, so one scrape covers
//! the whole store with each series exactly once.
//!
//! Enabled by default ([`crate::StoreConfig::obs`]); when disabled the
//! store carries no instruments at all and every hot path's overhead is a
//! single predictable `Option` branch.
//!
//! # Sampling
//!
//! Point lookups run in well under 100 ns, so timing every one of them
//! (two `Instant::now` calls, ~40 ns) would dominate the op itself.
//! [`sample_get`] therefore thins the get path to one timed call per
//! period via a thread-local tick; the histogram still converges on the
//! true distribution while the mean overhead stays in the low
//! single-percent range. The period is configurable
//! ([`crate::StoreConfig::with_sample_period`], default
//! [`GET_SAMPLE_PERIOD`]; `1` = every op, `0` = never) and doubles as the
//! leap-trace head-sampling rate. Every other op kind is
//! microsecond-scale (each commits at least one transaction) and records
//! every sample.
//!
//! # Series names
//!
//! Histograms: `store_op_get_ns`, `store_op_put_ns`, `store_op_delete_ns`,
//! `store_op_apply_ns`, `store_op_range_ns`, `store_op_scan_page_ns`,
//! `store_op_len_ns` (the `count_range`/`len` snapshot count walks),
//! `store_op_snapshot_page_ns` (pinned-timestamp pages served by
//! [`crate::SnapshotCursor`]) and `stm_txn_retries` (attempts per
//! committed transaction, via [`leap_stm::StmRecorder`]). Event ring:
//! `store_events`, fixed at [`leap_obs::DEFAULT_RING_CAPACITY`] (1 024)
//! events and scraped as `store_events_published` / `_dropped`. Counters:
//! `store_view_swaps` (routing views published
//! — every migration begin and complete and every new slot) and `store_stamp_retries` (stamped reads re-planned because
//! a view was published under them); together they price the global
//! read stamp.

use leap_obs::{
    Counter, EventRing, HistSnapshot, Histogram, Json, OpLatency, Registry, RingSnapshot,
    DEFAULT_RING_CAPACITY,
};
use std::cell::Cell;
use std::sync::Arc;

/// Default get-sampling period: one get in this many is timed (see the
/// module docs).
pub const GET_SAMPLE_PERIOD: u32 = 32;

thread_local! {
    static GET_TICK: Cell<u32> = const { Cell::new(0) };
}

/// Whether this call of the get path should be timed: true once per
/// `period` calls on each thread (`1` = always, `0` = never).
#[inline]
pub(crate) fn sample_get(period: u32) -> bool {
    if period == 0 {
        return false;
    }
    GET_TICK.with(|t| {
        let v = t.get().wrapping_add(1);
        t.set(v);
        v % period == 0
    })
}

/// The op-kind order every snapshot reports, paired with each kind's
/// registry series name.
const OP_KINDS: [(&str, &str); 8] = [
    ("get", "store_op_get_ns"),
    ("put", "store_op_put_ns"),
    ("delete", "store_op_delete_ns"),
    ("apply", "store_op_apply_ns"),
    ("range", "store_op_range_ns"),
    ("scan_page", "store_op_scan_page_ns"),
    ("len", "store_op_len_ns"),
    ("snapshot_page", "store_op_snapshot_page_ns"),
];

/// The store's op-latency table, one histogram per [`OP_KINDS`] entry.
type OpTable = OpLatency<{ OP_KINDS.len() }>;

/// The store's instrument set (see the module docs for the series names).
/// Held behind `Arc` by the store; the [`crate::Batcher`]'s sheds and the
/// migration steps record through the same instance.
#[derive(Debug)]
pub struct StoreObs {
    registry: Arc<Registry>,
    /// Per-op-kind latency histograms, in [`OP_KINDS`] order.
    ops: OpTable,
    /// Attempts per committed transaction (1 = first try), recorded by
    /// the domain's [`leap_stm::StmRecorder`].
    pub(crate) txn_retries: Arc<Histogram>,
    /// The migration/drain timeline.
    events: Arc<EventRing>,
    /// Routing views published (`store_view_swaps`), bumped by the router.
    pub(crate) view_swaps: Arc<Counter>,
    /// Stamped reads re-planned because the view moved under them
    /// (`store_stamp_retries`).
    pub(crate) stamp_retries: Arc<Counter>,
}

/// Index into the op-latency table per op kind (kept in [`OP_KINDS`]
/// order).
#[derive(Debug, Clone, Copy)]
pub(crate) enum OpKind {
    Get = 0,
    Put = 1,
    Delete = 2,
    Apply = 3,
    Range = 4,
    ScanPage = 5,
    Len = 6,
    SnapshotPage = 7,
}

impl StoreObs {
    /// A fresh instrument set.
    pub(crate) fn new() -> Self {
        let registry = Arc::new(Registry::new());
        StoreObs {
            ops: OpTable::new(&registry, OP_KINDS),
            txn_retries: registry.histogram("stm_txn_retries"),
            events: registry.ring("store_events", DEFAULT_RING_CAPACITY),
            view_swaps: registry.counter("store_view_swaps"),
            stamp_retries: registry.counter("store_stamp_retries"),
            registry,
        }
    }

    /// The registry holding every series — scrape it directly via
    /// [`Registry::snapshot_json`] / [`Registry::to_prometheus`].
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The migration/drain event timeline.
    pub fn events(&self) -> &Arc<EventRing> {
        &self.events
    }

    /// Records one op latency sample.
    #[inline]
    pub(crate) fn record_op(&self, kind: OpKind, ns: u64) {
        self.ops.record(kind as usize, ns);
    }

    /// A point-in-time copy of every instrument.
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            op_latency: self.ops.snapshot(),
            txn_retries: self.txn_retries.snapshot(),
            events: self.events.snapshot(),
            registry_page: self.registry.to_prometheus(),
        }
    }
}

/// A point-in-time copy of a store's instruments, carried by
/// [`crate::StoreStats`] when observability is enabled.
#[derive(Debug, Clone)]
pub struct ObsSnapshot {
    /// Per-op-kind latency snapshots, in a fixed kind order
    /// (get, put, delete, apply, range, scan_page, len, snapshot_page).
    pub op_latency: Vec<(&'static str, HistSnapshot)>,
    /// Attempts per committed transaction.
    pub txn_retries: HistSnapshot,
    /// The surviving event timeline plus the monotone dropped counter.
    pub events: RingSnapshot,
    /// Every registry series as Prometheus text, rendered by the registry
    /// at snapshot time ([`crate::StoreStats::to_prometheus`] serves it).
    pub(crate) registry_page: String,
}

impl ObsSnapshot {
    /// The per-op-kind latencies as one JSON object
    /// (`{"get":{"count",..},"put":..}`).
    pub fn op_latency_json(&self) -> Json {
        OpTable::to_json(&self.op_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_ticks_once_per_period() {
        let hits = (0..(GET_SAMPLE_PERIOD * 3))
            .filter(|_| sample_get(GET_SAMPLE_PERIOD))
            .count();
        assert_eq!(hits, 3, "one sample per period per thread");
    }

    /// Satellite: the sampling knob's extremes — period 1 records every
    /// op, period 0 records none.
    #[test]
    fn sampling_rate_one_records_every_op_and_zero_none() {
        let every = (0..100).filter(|_| sample_get(1)).count();
        assert_eq!(every, 100, "period 1 = every op");
        let none = (0..100).filter(|_| sample_get(0)).count();
        assert_eq!(none, 0, "period 0 = no ops, and no tick consumed");
    }

    #[test]
    fn snapshot_reports_all_kinds_in_order() {
        let obs = StoreObs::new();
        obs.record_op(OpKind::Get, 100);
        obs.record_op(OpKind::Len, 5_000);
        obs.record_op(OpKind::SnapshotPage, 7_000);
        let snap = obs.snapshot();
        let kinds: Vec<&str> = snap.op_latency.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            kinds,
            vec![
                "get",
                "put",
                "delete",
                "apply",
                "range",
                "scan_page",
                "len",
                "snapshot_page"
            ]
        );
        assert_eq!(snap.op_latency[0].1.count, 1);
        assert_eq!(snap.op_latency[6].1.max, 5_000);
        assert_eq!(snap.op_latency[7].1.max, 7_000);
        let json = snap.op_latency_json().render();
        assert!(json.contains("\"get\":{\"count\":1"), "{json}");
        // The registry carries the same series under their public names.
        let reg = obs.registry().snapshot_json().render();
        assert!(reg.contains("\"store_op_get_ns\""), "{reg}");
        assert!(reg.contains("\"stm_txn_retries\""), "{reg}");
        assert!(reg.contains("\"store_events\""), "{reg}");
    }
}
