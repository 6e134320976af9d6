//! The instrument registry: names counters, gauges, histograms and event
//! rings, and renders one coherent snapshot as JSON or Prometheus text.
//!
//! Registration (`counter()` / `histogram()` / …) takes a mutex and is
//! get-or-create by name — call it at setup, hold the returned `Arc`, and
//! record through the `Arc` on the hot path (lock-free). Snapshotting
//! walks the registry under the same mutexes; it never blocks recorders.
//!
//! [`OpLatency`] is the one per-op-kind latency table built on it (the
//! store's `store_op_*_ns` and a memdb table's `table_op_*_ns`).

use crate::counter::{Counter, Gauge};
use crate::events::EventRing;
use crate::hist::{HistSnapshot, Histogram};
use crate::json::Json;
use std::sync::{Arc, Mutex};

/// A named collection of instruments (see module docs).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
    gauges: Mutex<Vec<(String, Arc<Gauge>)>>,
    hists: Mutex<Vec<(String, Arc<Histogram>)>>,
    rings: Mutex<Vec<(String, Arc<EventRing>)>>,
}

fn get_or_insert<T>(
    list: &Mutex<Vec<(String, Arc<T>)>>,
    name: &str,
    mk: impl FnOnce() -> T,
) -> Arc<T> {
    // INVARIANT: no code path panics while holding a registry lock.
    let mut list = list.lock().expect("registry poisoned");
    if let Some((_, v)) = list.iter().find(|(n, _)| n == name) {
        return v.clone();
    }
    let v = Arc::new(mk());
    list.push((name.to_string(), v.clone()));
    v
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name` (created on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name, Counter::new)
    }

    /// The gauge named `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name, Gauge::new)
    }

    /// The histogram named `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.hists, name, Histogram::new)
    }

    /// The event ring named `name` (created with `capacity` on first use;
    /// an existing ring keeps its original capacity).
    pub fn ring(&self, name: &str, capacity: usize) -> Arc<EventRing> {
        get_or_insert(&self.rings, name, || EventRing::new(capacity))
    }

    /// One coherent snapshot of every instrument as a JSON tree:
    /// `{"counters":{..},"gauges":{..},"histograms":{..},"events":{..}}`.
    /// Histograms carry count/mean/max and the standard quantiles (`_ns`
    /// keys — the stack records latencies in nanoseconds); event entries
    /// carry `capacity`, the monotone `dropped` counter and the surviving
    /// timeline.
    pub fn snapshot_json(&self) -> Json {
        Json::obj()
            .field(
                "counters",
                Json::Obj(each(&self.counters, |c| Json::U64(c.get()))),
            )
            .field(
                "gauges",
                Json::Obj(each(&self.gauges, |g| Json::I64(g.get()))),
            )
            .field(
                "histograms",
                Json::Obj(each(&self.hists, |h| h.snapshot().to_json_ns())),
            )
            .field(
                "events",
                Json::Obj(each(&self.rings, |r| r.snapshot().to_json())),
            )
    }

    /// The snapshot in Prometheus text exposition format: counters and
    /// gauges as single samples, histograms as cumulative `_bucket{le=..}`
    /// series (non-empty buckets only) plus `_sum`/`_count`, and each
    /// event ring's monotone loss accounting as `_published`/`_dropped`
    /// counters (the timeline itself is a JSON-side concept).
    pub fn to_prometheus(&self) -> String {
        let sample = |name: &str, kind: &str, v: &dyn std::fmt::Display| {
            let n = sanitize(name);
            format!("# TYPE {n} {kind}\n{n} {v}\n")
        };
        let mut out = Vec::new();
        for (n, c) in each(&self.counters, |c| c.get()) {
            out.push(sample(&n, "counter", &c));
        }
        for (n, g) in each(&self.gauges, |g| g.get()) {
            out.push(sample(&n, "gauge", &g));
        }
        for (n, h) in each(&self.hists, |h| h.snapshot()) {
            out.push(h.to_prometheus(&sanitize(&n)));
        }
        for (n, (published, dropped)) in each(&self.rings, |r| (r.published(), r.dropped())) {
            out.push(sample(&format!("{n}_published"), "counter", &published));
            out.push(sample(&format!("{n}_dropped"), "counter", &dropped));
        }
        out.concat()
    }
}

/// `(name, read(instrument))` for every instrument of one list, in
/// registration order, read under the list's lock.
fn each<T, R>(list: &Mutex<Vec<(String, Arc<T>)>>, read: impl Fn(&T) -> R) -> Vec<(String, R)> {
    // INVARIANT: no code path panics while holding a registry lock.
    let list = list.lock().expect("registry poisoned");
    list.iter().map(|(n, v)| (n.clone(), read(v))).collect()
}

/// A fixed table of per-op-kind latency histograms, one registry series
/// per kind: the embedder names each `(kind, series)` pair, records by
/// kind index on the hot path (one lock-free histogram record), and gets
/// back `(kind, snapshot)` pairs in table order plus their JSON object
/// (`{"<kind>":{"count",..},..}`).
#[derive(Debug)]
pub struct OpLatency<const N: usize> {
    kinds: [&'static str; N],
    hists: [Arc<Histogram>; N],
}

impl<const N: usize> OpLatency<N> {
    /// Registers one histogram per `(kind, series)` pair in `registry`.
    pub fn new(registry: &Registry, table: [(&'static str, &'static str); N]) -> Self {
        OpLatency {
            kinds: table.map(|(kind, _)| kind),
            hists: table.map(|(_, series)| registry.histogram(series)),
        }
    }

    /// The name of kind `i`.
    pub fn kind(&self, i: usize) -> &'static str {
        self.kinds[i]
    }

    /// Records one latency sample for kind `i`.
    #[inline]
    pub fn record(&self, i: usize, ns: u64) {
        self.hists[i].record(ns);
    }

    /// Every kind's latency snapshot, in table order.
    pub fn snapshot(&self) -> Vec<(&'static str, HistSnapshot)> {
        self.kinds
            .iter()
            .zip(&self.hists)
            .map(|(&kind, h)| (kind, h.snapshot()))
            .collect()
    }

    /// A [`OpLatency::snapshot`] as one JSON object keyed by kind.
    pub fn to_json(snapshot: &[(&'static str, HistSnapshot)]) -> Json {
        Json::Obj(
            snapshot
                .iter()
                .map(|(kind, snap)| (kind.to_string(), snap.to_json_ns()))
                .collect(),
        )
    }
}

/// Maps a registry name onto the Prometheus metric-name alphabet
/// (`[a-zA-Z0-9_:]`; everything else becomes `_`).
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;

    #[test]
    fn registration_is_get_or_create_by_name() {
        let r = Registry::new();
        let a = r.counter("ops");
        let b = r.counter("ops");
        assert!(Arc::ptr_eq(&a, &b));
        a.add(2);
        b.inc();
        assert_eq!(r.counter("ops").get(), 3);
        let h1 = r.histogram("lat");
        let h2 = r.histogram("lat");
        assert!(Arc::ptr_eq(&h1, &h2));
        let ring = r.ring("timeline", 4);
        assert!(Arc::ptr_eq(&ring, &r.ring("timeline", 999)));
        assert_eq!(r.ring("timeline", 999).capacity(), 4, "first capacity wins");
    }

    #[test]
    fn snapshot_json_carries_every_instrument() {
        let r = Registry::new();
        r.counter("store.gets").add(5);
        r.gauge("inflight").set(-2);
        let h = r.histogram("get_ns");
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        r.ring("timeline", 8)
            .push(EventKind::Shed { ops: 1, queued: 3 });
        let json = r.snapshot_json().render();
        assert!(json.contains("\"store.gets\":5"), "{json}");
        assert!(json.contains("\"inflight\":-2"), "{json}");
        assert!(json.contains("\"p999_ns\":"), "{json}");
        assert!(json.contains("\"max_ns\":30"), "{json}");
        assert!(json.contains("\"kind\":\"shed\""), "{json}");
        assert!(json.contains("\"dropped\":0"), "{json}");
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let r = Registry::new();
        r.counter("store.gets").add(5);
        r.gauge("inflight").set(7);
        let h = r.histogram("get-ns");
        for v in 1..=100u64 {
            h.record(v);
        }
        r.ring("timeline", 8)
            .push(EventKind::Shed { ops: 1, queued: 1 });
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE store_gets counter\nstore_gets 5\n"));
        assert!(text.contains("# TYPE inflight gauge\ninflight 7\n"));
        assert!(text.contains("# TYPE get_ns histogram\n"));
        assert!(text.contains("get_ns_bucket{le=\"+Inf\"} 100\n"));
        assert!(text.contains("get_ns_sum 5050\nget_ns_count 100\n"));
        assert!(text.contains("timeline_published 1\n"));
        assert!(text.contains("timeline_dropped 0\n"));
        // Cumulative buckets are non-decreasing.
        let mut prev = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{le=\"")) {
            if line.contains("+Inf") {
                continue;
            }
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= prev, "{line}");
            prev = v;
        }
    }
}
