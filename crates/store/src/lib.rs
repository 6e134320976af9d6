//! # leap-store — LeapStore, a sharded range-store over Leap-List shards
//!
//! The paper's closing ambition (§4) is an in-memory database whose index
//! structures are Leap-Lists; its headline primitive is a transaction that
//! spans *multiple* lists atomically. This crate builds the service layer
//! between the data structure and that goal: a store that partitions the
//! `u64` keyspace across `N` [`leaplist::LeapListLt`] shards sharing **one
//! transactional domain**, and keeps the paper's guarantees at store
//! scope:
//!
//! * **Cross-shard atomic batches** — [`LeapStore::multi_put`] /
//!   [`LeapStore::apply`] commit through one multi-list transaction
//!   (`apply_batch_grouped`), so concurrent readers see all of a batch or
//!   none of it — **including batches that map several keys to one shard**:
//!   each shard's ops become one multi-op chain-rebuild plan, so there is
//!   no serialized slow path.
//! * **Linearizable cross-shard range queries** — [`LeapStore::range`]
//!   assembles per-shard snapshots *inside one transaction*
//!   ([`leaplist::LeapListLt::range_page_group`]): the merged result is a
//!   single consistent snapshot of the whole keyspace.
//! * **Contiguous placement** — [`Router`] gives each shard a contiguous
//!   key interval, so a range query visits only the overlapping shards.
//! * **Live resharding** — placement is an epoch-versioned
//!   routing table ([`RoutingEpoch`]): [`LeapStore::split_shard`] /
//!   [`LeapStore::merge_shards`] migrate key sub-ranges between shards in
//!   bounded single-transaction chunks while reads and writes proceed,
//!   moved one step per [`LeapStore::rebalance_step`] call, which also
//!   starts the splits and merges a [`RebalancePolicy`] asks for. Nothing
//!   moves unless the caller steps it.
//! * **Paged scans** — [`LeapStore::scan_pages`] returns a [`Cursor`] yielding
//!   bounded pages, each one linearizable transaction with a resume key:
//!   huge scans without huge transactions, stable across resharding.
//! * **Snapshot-isolated scans** — [`LeapStore::scan_snapshot_pages`] returns a
//!   [`SnapshotCursor`] that pins the global commit timestamp once and
//!   serves **every** page from the shards' version bundles at that
//!   timestamp: the whole multi-page scan is one consistent snapshot,
//!   retry-free under concurrent commits and in-flight migrations.
//! * **Admission control** — [`Batcher`] is a gate in front of the
//!   store's single-key puts and deletes: it bounds the ops in flight
//!   through it and sheds an op at the bound with a typed
//!   [`StoreError::Overloaded`], never a silent block.
//! * **Fault model & graceful degradation** — a deterministic, seeded
//!   fault-injection subsystem ([`leap_fault`], zero-cost when unarmed)
//!   drives the recovery machinery: a dropped migration chunk leaves the
//!   frontier in place for the next [`LeapStore::rebalance_step`] to
//!   retry, any op run through [`LeapStore::bounded`] returns a typed
//!   [`StoreError::Timeout`] once its [`RetryPolicy`] is spent instead of
//!   livelocking.
//! * **Observability** — [`LeapStore::stats`] exposes per-shard op and
//!   key counters, routing epoch and migration progress, the shared
//!   domain's commit/abort counters with **abort-cause attribution**
//!   ([`leap_stm::StatsSnapshot`]), per-op-kind latency histograms, the
//!   per-transaction retry histogram and a structured migration/shed
//!   event timeline ([`StoreObs`], on by default) — renderable as JSON
//!   ([`StoreStats::to_json`]) or Prometheus text
//!   ([`StoreStats::to_prometheus`]).
//!
//! # Quickstart
//!
//! ```
//! use leap_store::{LeapStore, Partitioning, StoreConfig};
//!
//! let store: LeapStore<String> =
//!     LeapStore::new(StoreConfig::new(4, Partitioning::Range).with_key_space(10_000));
//! store.put(1001, "alice".into());
//! store.put(7002, "bob".into());
//! store.multi_put(&[(1002, "carol".into()), (7003, "dave".into())]); // atomic
//! let page = store.range(1000, 2000); // one consistent snapshot
//! assert_eq!(page.len(), 2);
//! assert_eq!(store.stats().shards.len(), 4);
//! ```

#![deny(missing_docs)]

mod batch;
mod cursor;
mod error;
mod obs;
mod rebalance;
mod router;
mod stats;
mod store;
mod subspace;

pub use batch::{Batcher, BatcherStats};
pub use cursor::{Cursor, SnapshotCursor};
pub use error::StoreError;
pub use obs::{ObsSnapshot, StoreObs, GET_SAMPLE_PERIOD};
pub use rebalance::{RebalanceAction, RebalanceError, RebalancePolicy};
pub use router::{MigrationView, Partitioning, Router, RoutingEpoch};
pub use stats::{ShardStats, StoreStats};
pub use store::{LeapStore, ShardSlot, StoreConfig};
pub use subspace::{Subspace, SubspaceStats, MAX_PAYLOAD, PAYLOAD_BITS, TAG_BITS};

// Re-exported so store users can build mixed batches without importing
// leaplist directly.
pub use leaplist::BatchOp;
// Re-exported so callers can build fault plans and the policies that
// `LeapStore::bounded` takes without importing the leaf crates directly.
pub use leap_fault::{FaultInjector, FaultPlan, FaultPoint};
pub use leap_stm::RetryPolicy;
