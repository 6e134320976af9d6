//! leap-obs: the observability substrate for the Leap-List stack.
//!
//! A dependency-free, lock-free metrics core shared by every crate in the
//! workspace:
//!
//! * [`Counter`] / [`Gauge`] — cache-line-striped atomic counters for
//!   hot-path event counting without cross-core bouncing.
//! * [`Histogram`] — log-linear (HDR-style) latency histograms: fixed
//!   memory, lock-free concurrent recording, exact-rank
//!   p50/p95/p99/p99.9/max within one bucket width of the true quantile.
//! * [`EventRing`] — a fixed-capacity structured timeline of
//!   [`Event`]s (migration begin/chunk/complete, epoch flips, batcher
//!   drains, policy decisions, poisoned ops). Overflow drops the
//!   **oldest** events and exposes a monotone `dropped` counter in every
//!   snapshot: loss is always visible, never silent.
//! * [`Json`] — a serde-free JSON tree with unit-tested escaping, so the
//!   stack has exactly one JSON emitter instead of per-crate format
//!   strings.
//! * [`Registry`] — names the instruments above and renders one coherent
//!   snapshot as JSON ([`Registry::snapshot_json`]) or Prometheus text
//!   exposition ([`Registry::to_prometheus`]); [`OpLatency`] is the
//!   per-op-kind latency table the store and memdb tables register in it.
//! * [`trace`] — leap-trace: per-op causal spans (queue/combine/commit
//!   phases, STM abort causes per attempt, migration-interference marks)
//!   with head sampling plus tail capture, exported as Chrome trace-event
//!   JSON.
//!
//! Recording never blocks: counters and histograms are plain atomic
//! fetch-adds; the event ring and the span store are encoders over one
//! drop-oldest ring that claims slots with a per-slot sequence protocol
//! (writers to *different* slots never interact, and a reader never
//! blocks a writer). Registration and snapshotting take a mutex — they
//! are off the hot path by construction.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod counter;
mod events;
mod hist;
mod json;
mod registry;
mod ring;
pub mod trace;

pub use counter::{stripe_of, Counter, Gauge, STRIPES};
pub use events::{Event, EventKind, EventRing, RingSnapshot, DEFAULT_RING_CAPACITY};
pub use hist::{HistSnapshot, Histogram};
pub use json::Json;
pub use registry::{OpLatency, Registry};
pub use trace::{
    AbortCause, OpClass, OpOutcome, Span, SpanGuard, SpanSnapshot, TraceConfig, Tracer,
    DEFAULT_SPAN_RING_CAPACITY,
};
