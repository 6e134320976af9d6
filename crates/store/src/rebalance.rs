//! Online shard migration: splitting hot shards, merging cold ones, and
//! the bounded-chunk driver that moves keys while the store serves reads
//! and writes.
//!
//! # Protocol
//!
//! A migration moves a **suffix** `[lo, hi]` of the source shard's owned
//! interval into a destination shard (a fresh slot for a split, the
//! adjacent neighbour for a merge). At most one migration is in flight at
//! a time (see `router.rs`): the step driver moves one bounded chunk per
//! call, so a second migration could only interleave with the first, and
//! the policy takes its load census only when nothing is in flight. Each
//! migration proceeds in three phases:
//!
//! 1. **Begin** — the router publishes a view carrying a
//!    [`crate::MigrationView`] overlay under its exclusive writer gate:
//!    once `begin` returns, every write routes through the overlay. Table
//!    ownership does *not* change yet.
//! 2. **Drain** — [`LeapStore::rebalance_step`] moves up to
//!    `policy.chunk` keys per call: one page read off the source
//!    ([`leaplist::LeapListLt::range_page`]) followed by **one**
//!    cross-list transaction deleting the page from the source and
//!    inserting it into the destination. Readers therefore never observe
//!    a key absent or doubled; writers to the migrating range hold the
//!    same per-migration lock as the chunk mover and commit their own
//!    cross-list transactions (remove-from-source + write-destination), so
//!    a racing write can neither be clobbered by a stale chunk nor strand
//!    a second copy in the source.
//! 3. **Complete** — when a page comes back empty the range is drained;
//!    the router publishes the view with the next [`crate::RoutingEpoch`]
//!    (ownership flips to the destination) and without the overlay, again
//!    under the exclusive writer gate. A source emptied entirely (merge)
//!    parks in the free-slot pool for the next split to reuse.
//!
//! Linearizable multi-shard reads do not lock anything: they plan off the
//! routing view they pinned, include both sides of the migration when it
//! overlaps their range in their single snapshot transaction, and
//! retry only if a new view was published in between (rare lifecycle
//! events — begin, complete, abort — never per-chunk events).

use crate::router::Partitioning;
use crate::store::LeapStore;
use leap_fault::FaultPoint;
use leap_obs::EventKind;
use leaplist::{BatchOp, LeapListLt};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};
use std::time::Duration;

/// Why a split, merge or rebalance step could not proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceError {
    /// Hash partitioning scatters keys; there are no contiguous
    /// sub-ranges to migrate.
    HashPartitioning,
    /// A migration is already in flight; the store runs one at a time.
    MigrationInFlight,
    /// A shard index was out of bounds, or source equals destination.
    BadShard,
    /// The split key is outside the source shard's owned interval.
    BadSplitKey,
    /// The destination's owned interval is not adjacent to the migrating
    /// range (the table keeps each shard's key set contiguous).
    NonAdjacent,
    /// The source shard owns no interval (already merged away).
    NothingToMove,
    /// A [`RebalancePolicy`] field combination is rejected (see
    /// [`RebalancePolicy::validate`]); the message names the offence.
    InvalidPolicy(&'static str),
    /// The referenced migration is not installed (wrong id, already
    /// completed, or already aborted).
    NoSuchMigration,
}

impl std::fmt::Display for RebalanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            RebalanceError::HashPartitioning => "hash partitioning cannot be resharded",
            RebalanceError::MigrationInFlight => "a migration is already in flight",
            RebalanceError::BadShard => "shard index out of bounds or source == destination",
            RebalanceError::BadSplitKey => "split key outside the source shard's interval",
            RebalanceError::NonAdjacent => "destination interval not adjacent to the range",
            RebalanceError::NothingToMove => "source shard owns no interval",
            RebalanceError::InvalidPolicy(why) => return write!(f, "invalid policy: {why}"),
            RebalanceError::NoSuchMigration => "no such in-flight migration",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for RebalanceError {}

/// Tuning for [`LeapStore::rebalance_step`]'s automatic decisions and for
/// the chunked drain.
///
/// The split/merge thresholds act on a per-shard **load score**, not the
/// raw key count: `score = keys + op_weight × op_rate`, where `op_rate`
/// is a decaying average of the operations (gets, puts, deletes, range
/// visits, batch parts) the shard served since the previous policy
/// census. A read-hot shard therefore splits even when its key count is
/// unremarkable — the signal [`crate::ShardStats`] always carried but
/// the policy previously ignored.
#[derive(Debug, Clone)]
pub struct RebalancePolicy {
    /// Maximum keys moved per [`LeapStore::rebalance_step`] call — the
    /// bound on how long the per-migration write lock is held.
    pub chunk: usize,
    /// Auto-split a shard whose load score exceeds `split_ratio ×` the
    /// mean over interval-owning shards. Must exceed both `1.0` and
    /// `2 × merge_ratio` (see [`RebalancePolicy::validate`]).
    pub split_ratio: f64,
    /// Auto-merge two adjacent shards whose combined load score is below
    /// `merge_ratio ×` the mean.
    pub merge_ratio: f64,
    /// Never auto-split a shard holding fewer keys than this.
    pub min_split_keys: usize,
    /// Never auto-split once this many shards own intervals.
    pub max_shards: usize,
    /// Weight of the op-rate term in the load score (`0.0` restores the
    /// pure key-count policy).
    pub op_weight: f64,
    /// Not a live knob: the store runs one migration at a time, so the
    /// default is 1 and [`RebalancePolicy::validate`] rejects every other
    /// value. The field stays only because `benchmark/` sets it in a
    /// struct literal.
    pub max_concurrent_migrations: usize,
    /// Stuck-migration watchdog: once a migration's frontier has failed to
    /// advance for this many consecutive drain steps (e.g. injected chunk
    /// faults), [`LeapStore::rebalance_step`] force-resolves it —
    /// completing it forward if its source range is already drained,
    /// rolling it back otherwise — so a wedged migration can never refuse
    /// every later one ([`RebalanceError::MigrationInFlight`]) forever.
    /// `0` disables the watchdog.
    pub watchdog_stalls: u32,
}

impl Default for RebalancePolicy {
    fn default() -> Self {
        RebalancePolicy {
            chunk: 128,
            split_ratio: 2.0,
            merge_ratio: 0.5,
            min_split_keys: 64,
            max_shards: 64,
            op_weight: 0.25,
            max_concurrent_migrations: 1,
            watchdog_stalls: 8,
        }
    }
}

impl RebalancePolicy {
    /// Checks the field combination for configurations that cannot
    /// converge. [`LeapStore::new`] calls this and panics on `Err`, so a
    /// store can never be constructed with a thrash-prone policy.
    ///
    /// The load-bearing rule is `split_ratio > 2 × merge_ratio`: a merged
    /// pair's score is below `merge_ratio × mean`, so under the rule it
    /// can never immediately exceed `split_ratio × mean'` again, and a
    /// split shard's halves (whose combined score *exceeded*
    /// `split_ratio × mean`) can never immediately re-qualify as a merge
    /// pair — the split/merge cycle that livelocks
    /// [`LeapStore::rebalance_until_idle`] on borderline layouts.
    ///
    /// # Errors
    ///
    /// [`RebalanceError::InvalidPolicy`] naming the offending rule.
    pub fn validate(&self) -> Result<(), RebalanceError> {
        if self.chunk == 0 {
            return Err(RebalanceError::InvalidPolicy("chunk must be at least 1"));
        }
        if !self.split_ratio.is_finite() || self.split_ratio <= 1.0 {
            return Err(RebalanceError::InvalidPolicy(
                "split_ratio must be finite and greater than 1.0",
            ));
        }
        if !self.merge_ratio.is_finite() || self.merge_ratio < 0.0 {
            return Err(RebalanceError::InvalidPolicy(
                "merge_ratio must be finite and non-negative",
            ));
        }
        if self.split_ratio <= 2.0 * self.merge_ratio {
            return Err(RebalanceError::InvalidPolicy(
                "split_ratio must exceed 2 * merge_ratio (split/merge thresholds overlap)",
            ));
        }
        if !self.op_weight.is_finite() || self.op_weight < 0.0 {
            return Err(RebalanceError::InvalidPolicy(
                "op_weight must be finite and non-negative",
            ));
        }
        if self.max_shards == 0 {
            return Err(RebalanceError::InvalidPolicy(
                "max_shards must be at least 1",
            ));
        }
        if self.max_concurrent_migrations != 1 {
            return Err(RebalanceError::InvalidPolicy(
                "max_concurrent_migrations must be 1 (one migration at a time)",
            ));
        }
        Ok(())
    }
}

/// What one [`LeapStore::rebalance_step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceAction {
    /// Nothing to do: no migration in flight and the load is balanced
    /// (or the store is hash-partitioned).
    Idle,
    /// Started splitting `shard` at key `at`; keys `>= at` will migrate
    /// into `dst`.
    SplitStarted {
        /// The hot shard being split.
        shard: usize,
        /// First key of the migrating upper half.
        at: u64,
        /// Destination slot.
        dst: usize,
    },
    /// Started merging `src`'s whole interval into its neighbour `dst`.
    MergeStarted {
        /// The cold shard being drained.
        src: usize,
        /// The adjacent shard absorbing it.
        dst: usize,
    },
    /// Moved `keys` keys of the in-flight migration in one transaction.
    Moved {
        /// Migration source.
        src: usize,
        /// Migration destination.
        dst: usize,
        /// Keys moved by this chunk.
        keys: usize,
    },
    /// The in-flight migration drained; routing epoch `epoch` installed.
    Completed {
        /// The new routing-table version.
        epoch: u64,
    },
    /// An injected fault dropped this step's chunk: nothing moved and the
    /// migration's stall counter grew (the watchdog force-resolves it once
    /// the counter crosses [`RebalancePolicy::watchdog_stalls`]).
    ChunkFailed {
        /// Migration source.
        src: usize,
        /// Migration destination.
        dst: usize,
        /// Consecutive no-progress steps so far.
        stalls: u32,
    },
    /// The watchdog force-resolved a stuck migration by rolling it back
    /// (forward completion reports [`RebalanceAction::Completed`] instead).
    Aborted {
        /// The aborted migration's id.
        id: u64,
        /// Keys swept from the destination back into the source.
        moved_back: u64,
    },
}

/// How [`LeapStore::abort_migration`] resolved a migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortOutcome {
    /// The source range was already drained, so the cheapest safe
    /// resolution was forward: the migration completed and the routing
    /// epoch flipped.
    Completed {
        /// The new routing-table version.
        epoch: u64,
    },
    /// Destination keys were swept back into the source in bounded chunks
    /// and the overlay removed; ownership never changed.
    RolledBack {
        /// Keys moved back from the destination.
        moved_back: u64,
    },
}

impl<V: Clone + Send + Sync + 'static> LeapStore<V> {
    /// Begins splitting `shard`: keys at or above `at` (a key strictly
    /// inside the shard's owned interval) will migrate to a fresh slot,
    /// whose index is returned. The split is **online**: keys move in
    /// bounded chunks as [`LeapStore::rebalance_step`] is driven; reads
    /// and writes proceed throughout. Range partitioning only.
    pub fn split_shard(&self, shard: usize, at: u64) -> Result<usize, RebalanceError> {
        let _step = self
            .step_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.split_locked(shard, at)
    }

    fn split_locked(&self, shard: usize, at: u64) -> Result<usize, RebalanceError> {
        if self.router().mode() != Partitioning::Range {
            return Err(RebalanceError::HashPartitioning);
        }
        if shard >= self.shards() {
            return Err(RebalanceError::BadShard);
        }
        let (lo, hi) = self
            .router()
            .shard_interval(shard)
            .ok_or(RebalanceError::NothingToMove)?;
        // A split must leave both sides non-empty intervals.
        if !(lo + 1..=hi).contains(&at) {
            return Err(RebalanceError::BadSplitKey);
        }
        let dst = self.allocate_slot();
        match self.router().begin_migration(shard, dst, at) {
            Ok(m) => {
                self.emit(EventKind::MigrationBegin {
                    id: m.id,
                    src: m.src as u64,
                    dst: m.dst as u64,
                    lo: m.lo,
                    hi: m.hi,
                });
                Ok(dst)
            }
            Err(e) => {
                // The freshly allocated slot owns nothing and is empty:
                // park it for reuse.
                self.free_slots
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(dst);
                Err(e)
            }
        }
    }

    /// Begins merging `src`'s whole owned interval into `dst`, which must
    /// own the adjacent interval. Online, like [`LeapStore::split_shard`];
    /// when the drain completes `src` owns nothing and its slot is
    /// recycled for future splits.
    pub fn merge_shards(&self, src: usize, dst: usize) -> Result<(), RebalanceError> {
        let _step = self
            .step_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.merge_locked(src, dst)
    }

    fn merge_locked(&self, src: usize, dst: usize) -> Result<(), RebalanceError> {
        if self.router().mode() != Partitioning::Range {
            return Err(RebalanceError::HashPartitioning);
        }
        if src >= self.shards() || dst >= self.shards() {
            return Err(RebalanceError::BadShard);
        }
        let (lo, _hi) = self
            .router()
            .shard_interval(src)
            .ok_or(RebalanceError::NothingToMove)?;
        let m = self.router().begin_migration(src, dst, lo)?;
        self.emit(EventKind::MigrationBegin {
            id: m.id,
            src: m.src as u64,
            dst: m.dst as u64,
            lo: m.lo,
            hi: m.hi,
        });
        Ok(())
    }

    /// Advances resharding by one bounded action and reports it:
    ///
    /// * a migration in flight → move one chunk of it (`policy.chunk`
    ///   keys, one cross-list transaction), complete it if its range has
    ///   drained, or force-resolve it once the watchdog finds it stuck;
    /// * otherwise, under range partitioning → consult the
    ///   [`RebalancePolicy`] against per-shard load scores (key counts
    ///   plus a decaying op rate) and start a split of the hottest
    ///   eligible shard or a merge of the coldest adjacent pair;
    /// * otherwise → [`RebalanceAction::Idle`].
    ///
    /// The load census therefore only runs with nothing in flight, when
    /// every key counts toward the shard that owns its interval.
    ///
    /// Deterministic and re-entrant: concurrent callers serialize, so a
    /// test can interleave steps with its own ops one at a time.
    pub fn rebalance_step(&self) -> RebalanceAction {
        let _step = self
            .step_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let inflight = self.router().pin().overlay().cloned();
        let Some(m) = inflight else {
            return match self.router().mode() {
                Partitioning::Range => self.policy_action().unwrap_or(RebalanceAction::Idle),
                Partitioning::Hash => RebalanceAction::Idle,
            };
        };
        // Stuck-migration watchdog: a frontier that has not advanced for
        // `watchdog_stalls` consecutive steps is force-resolved, so it
        // cannot refuse every later migration forever.
        let threshold = self.policy.watchdog_stalls;
        // ORDERING: stall counter read under the step lock that also
        // guards every write to it.
        if threshold > 0 && m.stalls.load(Ordering::Relaxed) >= threshold {
            return match self.abort_locked(&m) {
                Ok(AbortOutcome::Completed { epoch }) => RebalanceAction::Completed { epoch },
                Ok(AbortOutcome::RolledBack { moved_back }) => RebalanceAction::Aborted {
                    id: m.id,
                    moved_back,
                },
                // Unreachable while we hold the step lock (the overlay
                // cannot vanish under us), but never panic the driver.
                Err(_) => RebalanceAction::Idle,
            };
        }
        self.drain_step(&m)
    }

    /// One bounded drain action on migration `m`: move a chunk, or
    /// complete it when the range has drained.
    fn drain_step(&self, m: &Arc<crate::router::MigrationState>) -> RebalanceAction {
        // Injected chunk fault: drop the step before touching any lock —
        // the failure mode of a chunk mover that crashed mid-flight — and
        // grow the stall counter the watchdog acts on.
        if let Some(f) = self.faults.as_deref() {
            if f.should_fire(FaultPoint::MigrationChunk) {
                // ORDERING: written under the step lock (our caller holds it).
                let stalls = m.stalls.fetch_add(1, Ordering::Relaxed) + 1;
                return RebalanceAction::ChunkFailed {
                    src: m.src,
                    dst: m.dst,
                    stalls,
                };
            }
        }
        let (src, dst) = (self.list(m.src), self.list(m.dst));
        let chunk = self.policy.chunk.max(1);
        let guard = m.write_lock.lock().unwrap_or_else(PoisonError::into_inner);
        // ORDERING: the frontier only moves under `write_lock`, held here.
        let frontier = m.frontier.load(Ordering::Relaxed);
        let page = src.range_page(frontier, m.hi, chunk);
        if page.is_empty() {
            // Drained. In-range writes go to dst (they hold the same
            // write lock and commit cross-list), so the source range
            // stays empty after we release the lock; ownership can
            // flip safely.
            drop(guard);
            return self.complete_locked(m);
        }
        // One transaction: the page leaves src and lands in dst, so a
        // concurrent snapshot (which visits both lists in one
        // transaction of its own) sees each key exactly once.
        let rm: Vec<BatchOp<V>> = page.iter().map(|(k, _)| BatchOp::Remove(*k)).collect();
        let ins: Vec<BatchOp<V>> = page
            .iter()
            .map(|(k, v)| BatchOp::Update(*k, v.clone()))
            .collect();
        LeapListLt::apply_batch_grouped(&[&*src, &*dst], &[&rm, &ins]);
        // INVARIANT: the empty-page case returned above.
        let last = page.last().expect("non-empty page").0;
        // ORDERING: frontier/moved/stalls are all written under `write_lock`
        // (held), and readers take the same lock or tolerate staleness.
        m.frontier.store(last + 1, Ordering::Relaxed);
        // ORDERING: monotonic stat counter; no publication rides on it.
        m.moved.fetch_add(page.len() as u64, Ordering::Relaxed);
        // ORDERING: reset under the step/write locks that guard it.
        m.stalls.store(0, Ordering::Relaxed);
        self.emit(EventKind::MigrationChunk {
            id: m.id,
            moved: page.len() as u64,
        });
        RebalanceAction::Moved {
            src: m.src,
            dst: m.dst,
            keys: page.len(),
        }
    }

    /// Completes migration `m` — flips ownership, recycles/shields slots,
    /// emits the lifecycle events. Caller holds the step lock and has
    /// verified the source range is drained. Shared by the drain driver
    /// and forward-completing aborts.
    fn complete_locked(&self, m: &Arc<crate::router::MigrationState>) -> RebalanceAction {
        let epoch = match self.router().complete_migration(m) {
            Ok(epoch) => epoch,
            // Unreachable under the step lock (aborts serialize on it
            // too, so the overlay cannot have been resolved by someone
            // else), but a missing overlay must not panic the driver.
            Err(_) => return RebalanceAction::Idle,
        };
        // ORDERING: monotonic stat counter; no publication rides on it.
        let done = self.migrations_completed.fetch_add(1, Ordering::Relaxed) + 1;
        if self.router().shard_interval(m.src).is_none() {
            // The source emptied entirely: this was a merge; park the
            // slot for the next split to reuse.
            self.free_slots
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(m.src);
        } else {
            // The source kept its lower half: this was a split. Shield
            // the fresh pair from immediate re-merging (hysteresis —
            // see `policy_action`); the shield expires once other
            // migrations complete, so a pair that later goes genuinely
            // cold can still merge.
            let pair = (m.src.min(m.dst), m.src.max(m.dst));
            let mut recent = self
                .recent_splits
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            recent.retain(|(p, _)| *p != pair);
            recent.push_front((pair, done));
            recent.truncate(8);
        }
        // Both events while still under the step lock, so every
        // migration's timeline reads begin -> chunks -> complete with
        // the epoch flip adjacent to its completion.
        self.emit(EventKind::MigrationComplete { id: m.id, epoch });
        self.emit(EventKind::EpochFlip { epoch });
        RebalanceAction::Completed { epoch }
    }

    /// Resolves the in-flight migration `id` without requiring its drain
    /// to finish: if the source range is already empty the migration
    /// completes forward (cheapest safe resolution); otherwise every key
    /// the drain copied into the destination is swept back into the
    /// source in bounded chunks and the overlay is removed with **no**
    /// ownership change — as if the migration had never begun. Reads and
    /// writes proceed throughout, exactly as during a forward drain.
    ///
    /// This is the recovery path for cancelled or crashed migrations: a
    /// partially-drained overlay never stays wedged, and the next
    /// migration may begin either way.
    ///
    /// # Errors
    ///
    /// [`RebalanceError::NoSuchMigration`] if `id` is not an in-flight
    /// migration (wrong id, already completed, or already aborted).
    pub fn abort_migration(&self, id: u64) -> Result<AbortOutcome, RebalanceError> {
        let _step = self
            .step_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let m = self
            .router()
            .overlay_by_id(id)
            .ok_or(RebalanceError::NoSuchMigration)?;
        self.abort_locked(&m)
    }

    /// The abort body; caller holds the step lock.
    fn abort_locked(
        &self,
        m: &Arc<crate::router::MigrationState>,
    ) -> Result<AbortOutcome, RebalanceError> {
        let (src, dst) = (self.list(m.src), self.list(m.dst));
        let drained = {
            let _guard = m.write_lock.lock().unwrap_or_else(PoisonError::into_inner);
            src.range_page(m.lo, m.hi, 1).is_empty()
        };
        if drained {
            // The range already drained (and in-range writes land in dst,
            // so it stays drained): completing forward is strictly
            // cheaper than sweeping it all back, and equally final for
            // the caller.
            return match self.complete_locked(m) {
                RebalanceAction::Completed { epoch } => Ok(AbortOutcome::Completed { epoch }),
                _ => Err(RebalanceError::NoSuchMigration),
            };
        }
        // Flip the overlay into the aborting state under the exclusive
        // gate — never while holding the write lock, which writers take
        // *inside* the gate: every in-flight in-range write has committed
        // (so whatever it put in dst happens-before the sweep below), and
        // every later write routes source-ward again (see `put_inner`).
        // The flip publishes a new view, which invalidates concurrent
        // stamped reads.
        self.router().begin_abort(m);
        // Sweep dst's copy of [lo, hi] back into src in bounded chunks,
        // holding the write lock only per chunk. A writer interleaving
        // between chunks removes its key from dst (aborting direction),
        // so a swept page can never clobber a newer source value.
        let chunk = self.policy.chunk.max(1);
        let mut cursor = m.lo;
        let mut moved_back = 0u64;
        loop {
            let guard = m.write_lock.lock().unwrap_or_else(PoisonError::into_inner);
            let page = dst.range_page(cursor, m.hi, chunk);
            let Some(&(last, _)) = page.last() else {
                drop(guard);
                break;
            };
            let rm: Vec<BatchOp<V>> = page.iter().map(|(k, _)| BatchOp::Remove(*k)).collect();
            let ins: Vec<BatchOp<V>> = page
                .iter()
                .map(|(k, v)| BatchOp::Update(*k, v.clone()))
                .collect();
            LeapListLt::apply_batch_grouped(&[&*dst, &*src], &[&rm, &ins]);
            moved_back += page.len() as u64;
            drop(guard);
            if last == m.hi {
                break;
            }
            cursor = last + 1;
        }
        self.router().cancel_migration(m)?;
        if self.router().shard_interval(m.dst).is_none() {
            // The destination owned nothing but the aborted range (a
            // fresh split target): it is empty again after the sweep, so
            // park it for the next split instead of leaking the slot.
            self.free_slots
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(m.dst);
        }
        // ORDERING: monotonic stat counter; no publication rides on it.
        self.aborted_migrations.fetch_add(1, Ordering::Relaxed);
        self.emit(EventKind::MigrationAbort {
            id: m.id,
            moved_back,
        });
        // The abort also lands in the trace ring as an always-retained
        // failure span naming the overlay, so a latency investigation sees
        // the rollback next to the ops it interfered with.
        if let Some(t) = self.tracer() {
            t.emit_failure(
                leap_obs::OpClass::Migration,
                leap_obs::OpOutcome::MigrationAbort,
                m.lo,
                m.src as u32,
                m.id,
            );
        }
        Ok(AbortOutcome::RolledBack { moved_back })
    }

    /// Consults the policy for a new migration to start. The caller holds
    /// the step lock and has seen no migration in flight. Returns `None`
    /// when no threshold trips.
    fn policy_action(&self) -> Option<RebalanceAction> {
        // Load census over interval-owning shards, in key order: keys plus
        // the decaying op rate (see `RebalancePolicy` docs).
        let loads: Vec<(usize, u64, u64, u64)> = self
            .router()
            .routing()
            .intervals()
            .into_iter()
            .map(|(s, lo, hi)| (s, lo, hi, self.list(s).len() as u64))
            .collect();
        let rates = self.op_rate_census();
        let score = |&(s, _, _, keys): &(usize, u64, u64, u64)| {
            keys as f64 + self.policy.op_weight * rates[s]
        };
        let mean = loads.iter().map(score).sum::<f64>() / loads.len() as f64;
        // Split the hottest eligible shard when it dominates the mean.
        if loads.len() < self.policy.max_shards {
            let candidate = loads
                .iter()
                .filter(|&&(_, lo, hi, keys)| {
                    lo < hi && keys as usize >= self.policy.min_split_keys.max(2)
                })
                .max_by(|a, b| score(a).total_cmp(&score(b)));
            if let Some(&(s, lo, hi, keys)) = candidate {
                if score(&(s, lo, hi, keys)) > self.policy.split_ratio * mean {
                    // Split at the median key: the last key of the first
                    // half, found with one bounded page.
                    let half = (keys as usize / 2).max(1);
                    let page = self.list(s).range_page(lo, hi, half);
                    if let Some(&(median, _)) = page.last() {
                        let at = (median + 1).clamp(lo + 1, hi);
                        if let Ok(dst) = self.split_locked(s, at) {
                            self.emit(EventKind::PolicySplit {
                                shard: s as u64,
                                load: score(&(s, lo, hi, keys)) as u64,
                            });
                            return Some(RebalanceAction::SplitStarted { shard: s, at, dst });
                        }
                    }
                }
            }
        }
        // Merge the coldest adjacent pair when both are near-empty —
        // unless the pair was just created by a split (hysteresis: a
        // borderline layout must not thrash split-then-merge forever).
        // "Just" means no two other migrations have completed since, so
        // the shield cannot starve a pair that later goes cold for good.
        if loads.len() >= 2 {
            // ORDERING: hysteresis heuristic; a stale count only delays a merge.
            let done = self.migrations_completed.load(Ordering::Relaxed);
            let recent: Vec<(usize, usize)> = self
                .recent_splits
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .filter(|&&(_, at)| done.saturating_sub(at) < 2)
                .map(|&(p, _)| p)
                .collect();
            let candidate = loads
                .windows(2)
                .filter(|w| !recent.contains(&(w[0].0.min(w[1].0), w[0].0.max(w[1].0))))
                .min_by(|a, b| {
                    (score(&a[0]) + score(&a[1])).total_cmp(&(score(&b[0]) + score(&b[1])))
                });
            if let Some(w) =
                candidate.filter(|w| score(&w[0]) + score(&w[1]) < self.policy.merge_ratio * mean)
            {
                // Drain the smaller half into the bigger one.
                let (src, dst) = if w[0].3 <= w[1].3 {
                    (w[0].0, w[1].0)
                } else {
                    (w[1].0, w[0].0)
                };
                if self.merge_locked(src, dst).is_ok() {
                    self.emit(EventKind::PolicyMerge {
                        left: dst as u64,
                        right: src as u64,
                    });
                    return Some(RebalanceAction::MergeStarted { src, dst });
                }
            }
        }
        None
    }

    /// Drives [`LeapStore::rebalance_step`] until it reports
    /// [`RebalanceAction::Idle`]; returns the number of migrations
    /// completed. Intended for deterministic tests and quiesce points —
    /// a live system runs a [`Rebalancer`] instead.
    pub fn rebalance_until_idle(&self) -> u64 {
        let mut completed = 0;
        loop {
            match self.rebalance_step() {
                RebalanceAction::Idle => return completed,
                RebalanceAction::Completed { .. } => completed += 1,
                _ => {}
            }
        }
    }
}

/// The [`Rebalancer`] worker thread died: it recorded
/// [`RebalancerDied::panics`] panics and gave up after too many in a row
/// (or the thread could not be joined). The store itself is intact —
/// rebalancing simply stopped being driven; spawn a fresh rebalancer or
/// drive [`LeapStore::rebalance_step`] directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalancerDied {
    /// Worker panics recorded before the thread gave up.
    pub panics: u64,
}

impl std::fmt::Display for RebalancerDied {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rebalancer worker died after {} recorded panic(s)",
            self.panics
        )
    }
}

impl std::error::Error for RebalancerDied {}

/// A background thread driving [`LeapStore::rebalance_step`]: sleeps
/// `interval` whenever the store reports [`RebalanceAction::Idle`],
/// otherwise steps again immediately. Stopped (and joined) explicitly via
/// [`Rebalancer::stop`] or implicitly on drop.
///
/// Each step runs under `catch_unwind`: a panicking step is **recorded**
/// (an [`EventKind::RebalancerPanic`] event plus the [`Rebalancer::panics`]
/// counter) rather than silently killing the thread, and the worker keeps
/// driving. Only after [`Rebalancer::MAX_CONSECUTIVE_PANICS`] panics with
/// no successful step in between does the worker declare itself dead —
/// surfaced as `Err(RebalancerDied)` from [`Rebalancer::stop`] and by
/// [`Rebalancer::is_dead`], never swallowed.
///
/// # Example
///
/// ```
/// use leap_store::{LeapStore, Partitioning, Rebalancer, StoreConfig};
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let store = Arc::new(LeapStore::<u64>::new(
///     StoreConfig::new(2, Partitioning::Range).with_key_space(1_000),
/// ));
/// let rebalancer = Rebalancer::spawn(store.clone(), Duration::from_millis(1));
/// store.put(5, 50);
/// let steps = rebalancer.stop().expect("worker healthy");
/// assert_eq!(store.get(5), Some(50));
/// assert!(steps < u64::MAX);
/// ```
pub struct Rebalancer {
    stop: Arc<AtomicBool>,
    died: Arc<AtomicBool>,
    panics: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<u64>>,
}

/// Quiet unwind payload for injected `RebalancerTick` faults: thrown with
/// `resume_unwind` so the panic hook (and its stderr backtrace) is
/// bypassed — deterministic chaos runs stay readable.
struct InjectedTickFault;

impl Rebalancer {
    /// Consecutive panicking steps after which the worker stops retrying
    /// and declares itself dead. Deliberately small: a step that panics
    /// this many times in a row is deterministic breakage, not a race.
    pub const MAX_CONSECUTIVE_PANICS: u32 = 8;

    /// Spawns the driver thread over `store`.
    pub fn spawn<V: Clone + Send + Sync + 'static>(
        store: Arc<LeapStore<V>>,
        interval: Duration,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let died = Arc::new(AtomicBool::new(false));
        let panics = Arc::new(AtomicU64::new(0));
        let (flag, dead, count) = (stop.clone(), died.clone(), panics.clone());
        let handle = std::thread::spawn(move || {
            let mut actions = 0u64;
            let mut consecutive = 0u32;
            // ORDERING: stop flag; the join in `stop`/`drop` is the sync point.
            while !flag.load(Ordering::Relaxed) {
                let step = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(f) = store.faults.as_deref() {
                        if f.should_fire(FaultPoint::RebalancerTick) {
                            std::panic::resume_unwind(Box::new(InjectedTickFault));
                        }
                    }
                    store.rebalance_step()
                }));
                match step {
                    Ok(RebalanceAction::Idle) => {
                        consecutive = 0;
                        std::thread::sleep(interval);
                    }
                    Ok(_) => {
                        consecutive = 0;
                        actions += 1;
                    }
                    Err(_) => {
                        // ORDERING: monotonic stat counter; no publication rides on it.
                        let total = count.fetch_add(1, Ordering::Relaxed) + 1;
                        store.emit(EventKind::RebalancerPanic { panics: total });
                        consecutive += 1;
                        if consecutive >= Rebalancer::MAX_CONSECUTIVE_PANICS {
                            dead.store(true, Ordering::Release);
                            break;
                        }
                    }
                }
            }
            actions
        });
        Rebalancer {
            stop,
            died,
            panics,
            handle: Some(handle),
        }
    }

    /// Worker panics recorded so far (injected tick faults plus real
    /// panics out of `rebalance_step`).
    pub fn panics(&self) -> u64 {
        // ORDERING: monotonic stat counter; no publication rides on it.
        self.panics.load(Ordering::Relaxed)
    }

    /// Whether the worker has given up after
    /// [`Rebalancer::MAX_CONSECUTIVE_PANICS`] consecutive panics.
    pub fn is_dead(&self) -> bool {
        self.died.load(Ordering::Acquire)
    }

    /// Signals the thread and joins it; returns how many non-idle actions
    /// (chunks moved, splits/merges started, completions, aborts) it
    /// performed.
    ///
    /// # Errors
    ///
    /// [`RebalancerDied`] if the worker declared itself dead (too many
    /// consecutive panics) or could not be joined cleanly — a worker
    /// death is never swallowed into a fake action count.
    pub fn stop(mut self) -> Result<u64, RebalancerDied> {
        // ORDERING: the worker only polls this flag; `join` below is the
        // synchronization point for everything it did.
        self.stop.store(true, Ordering::Relaxed);
        let joined = self
            .handle
            .take()
            // INVARIANT: only `stop` (consuming self) and `drop` take the
            // handle, and `stop` cannot run after either.
            .expect("handle present until stop/drop")
            .join();
        // ORDERING: monotonic stat counter; no publication rides on it.
        let panics = self.panics.load(Ordering::Relaxed);
        if self.died.load(Ordering::Acquire) {
            return Err(RebalancerDied { panics });
        }
        joined.map_err(|_| RebalancerDied { panics })
    }
}

impl Drop for Rebalancer {
    fn drop(&mut self) {
        // ORDERING: stop flag; `join` below synchronizes with the worker.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use leaplist::Params;

    fn cfg(shards: usize) -> StoreConfig {
        StoreConfig::new(shards, Partitioning::Range)
            .with_key_space(1_000)
            .with_params(Params {
                node_size: 4,
                max_level: 6,
                ..Params::default()
            })
            .with_rebalancing(RebalancePolicy {
                chunk: 16,
                ..RebalancePolicy::default()
            })
    }

    #[test]
    fn split_migrates_and_flips_ownership() {
        let store: LeapStore<u64> = LeapStore::new(cfg(2));
        for k in 0..100u64 {
            store.put(k, k * 3);
        }
        // All 100 keys sit in shard 0 ([0, 499]).
        assert_eq!(store.shard(0).len(), 100);
        let dst = store.split_shard(0, 50).expect("valid split");
        assert_eq!(dst, 2, "fresh slot appended");
        assert_eq!(store.router().migration().unwrap().lo, 50);
        // Reads and writes work mid-migration, chunk by chunk.
        let mut moved_some = false;
        loop {
            match store.rebalance_step() {
                RebalanceAction::Moved { keys, .. } => {
                    moved_some = true;
                    assert!(keys <= 16, "chunk bound respected");
                    assert_eq!(store.get(75), Some(225), "mid-migration read");
                    assert_eq!(store.range(0, 999).len(), 100);
                }
                RebalanceAction::Completed { epoch } => {
                    assert_eq!(epoch, 1);
                    break;
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert!(moved_some);
        assert_eq!(store.router().epoch(), 1);
        assert_eq!(store.router().shard_of(75), 2);
        assert_eq!(store.router().shard_of(25), 0);
        assert_eq!(store.shard(0).len(), 50);
        assert_eq!(store.shard(2).len(), 50);
        assert_eq!(store.range(0, 999).len(), 100);
        for k in 0..100u64 {
            assert_eq!(store.get(k), Some(k * 3), "key {k}");
        }
        let st = store.stats();
        assert_eq!(st.migrations_completed, 1);
        assert_eq!(st.epoch, 1);
    }

    #[test]
    fn writes_during_migration_land_in_the_destination() {
        let store: LeapStore<u64> = LeapStore::new(cfg(2));
        for k in 0..64u64 {
            store.put(k, 1);
        }
        store.split_shard(0, 32).expect("split");
        // One chunk only: the migration stays in flight.
        assert!(matches!(
            store.rebalance_step(),
            RebalanceAction::Moved { .. }
        ));
        // Overwrite a migrating-range key and insert a fresh one: both
        // must route through the overlay into the destination.
        assert_eq!(store.put(40, 2), Some(1));
        assert_eq!(store.delete(45), Some(1));
        assert_eq!(store.put(460, 9), None, "fresh in-range key");
        assert_eq!(store.get(40), Some(2));
        assert_eq!(store.get(45), None);
        let before = store.range(0, 999);
        store.rebalance_until_idle();
        assert_eq!(store.range(0, 999), before, "completion moves no data");
        assert_eq!(store.get(40), Some(2));
        assert_eq!(store.get(460), Some(9));
        assert_eq!(store.shard(0).range_query(32, 499), vec![], "src drained");
    }

    #[test]
    fn merge_drains_into_neighbour_and_recycles_the_slot() {
        let store: LeapStore<u64> = LeapStore::new(cfg(4));
        for k in 0..200u64 {
            store.put(k * 5 % 1000, k);
        }
        let len_before = store.len();
        store.merge_shards(1, 0).expect("adjacent merge");
        store.rebalance_until_idle();
        assert_eq!(store.router().shard_interval(1), None);
        assert_eq!(store.len(), len_before);
        assert!(store.shard(1).is_empty());
        // The freed slot is reused by the next split.
        let dst = store.split_shard(0, 250).expect("resplit");
        assert_eq!(dst, 1, "merge-emptied slot recycled");
        store.rebalance_until_idle();
        assert_eq!(store.len(), len_before);
        assert_eq!(store.router().shard_of(300), 1);
    }

    #[test]
    fn policy_splits_hot_and_merges_cold() {
        let store: LeapStore<u64> = LeapStore::new(cfg(4));
        // Pile 300 keys into shard 0's interval, 2 into shard 1's.
        for k in 0..240u64 {
            store.put(k, k);
        }
        store.put(300, 1);
        store.put(600, 1);
        let spread_before = store.stats().key_spread();
        let completed = store.rebalance_until_idle();
        assert!(completed >= 1, "policy must have acted");
        let st = store.stats();
        assert!(
            st.key_spread() < spread_before,
            "spread must narrow: {} -> {}",
            spread_before,
            st.key_spread()
        );
        assert_eq!(store.len(), 242);
        assert_eq!(store.range(0, 999).len(), 242);
    }

    #[test]
    fn rebalance_errors_are_reported() {
        let store: LeapStore<u64> = LeapStore::new(cfg(2));
        assert_eq!(store.split_shard(9, 10), Err(RebalanceError::BadShard));
        assert_eq!(store.split_shard(0, 0), Err(RebalanceError::BadSplitKey));
        assert_eq!(
            store.split_shard(0, 700),
            Err(RebalanceError::BadSplitKey),
            "split key inside shard 1's interval"
        );
        assert_eq!(store.merge_shards(9, 0), Err(RebalanceError::BadShard));
        assert_eq!(store.merge_shards(0, 9), Err(RebalanceError::BadShard));
        let hash: LeapStore<u64> = LeapStore::new(StoreConfig::new(2, Partitioning::Hash));
        assert_eq!(
            hash.split_shard(0, 10),
            Err(RebalanceError::HashPartitioning)
        );
        assert_eq!(
            hash.merge_shards(0, 1),
            Err(RebalanceError::HashPartitioning)
        );
        assert_eq!(hash.rebalance_step(), RebalanceAction::Idle);
        assert_eq!(store.split_shard(0, 100), Ok(2));
        let id = store.router().migration().expect("in flight").id;
        assert_eq!(
            store.split_shard(0, 200),
            Err(RebalanceError::MigrationInFlight),
            "the source is already migrating"
        );
        assert_eq!(
            store.split_shard(1, 600),
            Err(RebalanceError::MigrationInFlight),
            "one migration at a time, even on other slots"
        );
        assert_eq!(
            store.merge_shards(1, 0),
            Err(RebalanceError::MigrationInFlight)
        );
        assert_eq!(store.router().migration().map(|m| m.id), Some(id));
        // The first refused split allocated slot 3 and parked it; the
        // second took it from the pool and parked it again.
        assert_eq!(store.shards(), 4, "refused splits grow the slots once");
        store.rebalance_until_idle();
        assert!(store.router().migration().is_none());
        assert_eq!(
            store.split_shard(1, 600),
            Ok(3),
            "the parked slot is reused"
        );
        assert_eq!(store.shards(), 4);
        assert!(format!("{}", RebalanceError::NonAdjacent).contains("adjacent"));
        assert!(format!("{}", RebalanceError::MigrationInFlight).contains("in flight"));
    }

    #[test]
    fn invalid_policies_are_rejected_at_construction() {
        assert!(RebalancePolicy::default().validate().is_ok());
        let bad = [
            RebalancePolicy {
                chunk: 0,
                ..RebalancePolicy::default()
            },
            RebalancePolicy {
                split_ratio: 1.0,
                ..RebalancePolicy::default()
            },
            RebalancePolicy {
                split_ratio: f64::NAN,
                ..RebalancePolicy::default()
            },
            RebalancePolicy {
                merge_ratio: -0.1,
                ..RebalancePolicy::default()
            },
            // The thrash overlap: a merged pair could immediately
            // re-qualify for splitting.
            RebalancePolicy {
                split_ratio: 1.2,
                merge_ratio: 0.7,
                ..RebalancePolicy::default()
            },
            RebalancePolicy {
                op_weight: -1.0,
                ..RebalancePolicy::default()
            },
            RebalancePolicy {
                max_shards: 0,
                ..RebalancePolicy::default()
            },
            RebalancePolicy {
                max_concurrent_migrations: 0,
                ..RebalancePolicy::default()
            },
            RebalancePolicy {
                max_concurrent_migrations: 2,
                ..RebalancePolicy::default()
            },
        ];
        for p in bad {
            let err = p.validate().expect_err("policy must be rejected");
            assert!(matches!(err, RebalanceError::InvalidPolicy(_)), "{p:?}");
            assert!(err.to_string().contains("invalid policy"), "{err}");
        }
        let caught = std::panic::catch_unwind(|| {
            LeapStore::<u64>::new(StoreConfig::new(2, Partitioning::Range).with_rebalancing(
                RebalancePolicy {
                    split_ratio: 1.2,
                    merge_ratio: 0.7,
                    ..RebalancePolicy::default()
                },
            ))
        });
        assert!(
            caught.is_err(),
            "the store must refuse a thrash-prone policy"
        );
    }

    /// The borderline layout that livelocked `rebalance_until_idle` when
    /// split and merge thresholds could overlap: with validated ratios
    /// plus the just-split hysteresis, the pass must terminate (bounded
    /// action count) and leave the map intact.
    #[test]
    fn rebalance_until_idle_terminates_on_borderline_layouts() {
        // The tightest legal ratio pair around the default: merge just
        // under split / 2.
        let store: LeapStore<u64> = LeapStore::new(
            StoreConfig::new(2, Partitioning::Range)
                .with_key_space(1_000)
                .with_params(Params {
                    node_size: 4,
                    max_level: 6,
                    ..Params::default()
                })
                .with_rebalancing(RebalancePolicy {
                    chunk: 8,
                    split_ratio: 1.02,
                    merge_ratio: 0.5,
                    min_split_keys: 2,
                    max_shards: 64,
                    op_weight: 0.0,
                    ..RebalancePolicy::default()
                }),
        );
        // Everything on shard 0, nothing on shard 1: shard 0's count sits
        // just above split_ratio x mean, and after any split the cold
        // remainder pairs hover around merge_ratio x mean.
        for k in 0..128u64 {
            store.put(k, k);
        }
        let mut actions = 0u64;
        loop {
            match store.rebalance_step() {
                RebalanceAction::Idle => break,
                _ => actions += 1,
            }
            assert!(
                actions < 10_000,
                "rebalance livelocked on a borderline layout"
            );
        }
        assert!(store.router().migration().is_none());
        assert_eq!(store.len(), 128);
        assert_eq!(store.range(0, 999).len(), 128);
    }

    /// The abort headline: a mid-drain migration rolls back completely —
    /// the destination is swept empty, ownership never flips, and the
    /// visible map equals the model *including* writes that raced the
    /// migration into the destination.
    #[test]
    fn abort_rolls_back_a_mid_drain_migration() {
        let store: LeapStore<u64> = LeapStore::new(cfg(2));
        for k in 0..100u64 {
            store.put(k, k * 7);
        }
        store.split_shard(0, 50).expect("valid split");
        let id = store.router().migration().unwrap().id;
        // Move one chunk, then edit on both sides of the frontier so the
        // sweep has migrated, overwritten and fresh values to restore.
        assert!(matches!(
            store.rebalance_step(),
            RebalanceAction::Moved { .. }
        ));
        assert_eq!(store.put(60, 601), Some(60 * 7), "mid-migration rewrite");
        assert_eq!(store.put(450, 5), None, "fresh in-range key");
        assert_eq!(store.delete(55), Some(55 * 7));
        match store.abort_migration(id) {
            Ok(AbortOutcome::RolledBack { moved_back }) => {
                assert!(moved_back > 0, "the moved chunk must sweep back")
            }
            other => panic!("expected a rollback, got {other:?}"),
        }
        // No table flip, overlay gone, destination fully swept.
        assert_eq!(store.router().epoch(), 0);
        assert!(store.router().migration().is_none());
        assert!(store.shard(2).is_empty(), "destination swept empty");
        assert_eq!(store.router().shard_of(300), 0);
        // Model equivalence, mid-migration edits included.
        let mut model: std::collections::BTreeMap<u64, u64> =
            (0..100u64).map(|k| (k, k * 7)).collect();
        model.insert(60, 601);
        model.insert(450, 5);
        model.remove(&55);
        assert_eq!(store.range(0, 999), model.into_iter().collect::<Vec<_>>());
        let st = store.stats();
        assert_eq!(st.aborted_migrations, 1);
        assert_eq!(st.migrations_completed, 0);
        assert!(matches!(
            store.abort_migration(id),
            Err(RebalanceError::NoSuchMigration)
        ));
        // The abort is on the event timeline with its rollback size.
        let snap = store.obs().expect("obs on by default").snapshot();
        assert!(snap
            .events
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::MigrationAbort { id: i, .. } if i == id)));
        // The same range is immediately re-splittable and drains clean.
        store.split_shard(0, 50).expect("slots free after abort");
        loop {
            match store.rebalance_step() {
                RebalanceAction::Completed { .. } => break,
                RebalanceAction::Moved { .. } => {}
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert_eq!(store.router().shard_of(300), 2);
        assert_eq!(store.len(), 100);
    }

    /// Aborting a migration whose range already drained (here: vacuously,
    /// the range holds no keys) resolves *forward* — completing is
    /// strictly cheaper than sweeping and equally final for the caller.
    #[test]
    fn abort_forward_completes_a_drained_migration() {
        let store: LeapStore<u64> = LeapStore::new(cfg(2));
        for k in 0..40u64 {
            store.put(k, k);
        }
        // [400, 499] holds no keys: nothing to drain, nothing to sweep.
        store.split_shard(0, 400).expect("valid split");
        let id = store.router().migration().unwrap().id;
        match store.abort_migration(id) {
            Ok(AbortOutcome::Completed { epoch }) => assert_eq!(epoch, 1),
            other => panic!("expected forward completion, got {other:?}"),
        }
        assert_eq!(store.router().epoch(), 1);
        assert_eq!(store.router().shard_of(450), 2, "ownership flipped");
        let st = store.stats();
        assert_eq!(st.aborted_migrations, 0, "a completion, not an abort");
        assert_eq!(st.migrations_completed, 1);
        assert!(matches!(
            store.abort_migration(77),
            Err(RebalanceError::NoSuchMigration)
        ));
    }

    /// The stuck-migration watchdog: when every chunk fails (here by
    /// injection), the stall counter climbs to the policy threshold and
    /// the next step force-resolves the migration by abort instead of
    /// retrying forever.
    #[test]
    fn watchdog_force_aborts_a_stuck_migration() {
        let plan = leap_fault::FaultPlan::new(42).always(FaultPoint::MigrationChunk);
        let store: LeapStore<u64> =
            LeapStore::new(cfg(2).with_faults(plan).with_rebalancing(RebalancePolicy {
                chunk: 16,
                watchdog_stalls: 3,
                ..RebalancePolicy::default()
            }));
        for k in 0..80u64 {
            store.put(k, k + 1);
        }
        store.split_shard(0, 40).expect("valid split");
        // Every chunk fails by injection: each step reports the stall...
        for expect in 1..=3u32 {
            match store.rebalance_step() {
                RebalanceAction::ChunkFailed {
                    src: 0,
                    dst: 2,
                    stalls,
                } => assert_eq!(stalls, expect),
                other => panic!("expected an injected chunk failure, got {other:?}"),
            }
        }
        // ...and once stalls reach the threshold, the watchdog aborts.
        match store.rebalance_step() {
            RebalanceAction::Aborted { moved_back, .. } => {
                assert_eq!(moved_back, 0, "no chunk ever moved")
            }
            other => panic!("expected a watchdog abort, got {other:?}"),
        }
        assert!(store.router().migration().is_none());
        assert_eq!(store.router().epoch(), 0);
        assert_eq!(store.stats().aborted_migrations, 1);
        assert_eq!(store.len(), 80, "no keys lost to the stuck migration");
        assert_eq!(store.get(60), Some(61));
    }

    /// Worker-death containment: a rebalancer whose every tick panics
    /// (injected) records the panics, declares itself dead after the
    /// consecutive-panic cap, and surfaces that out of `stop()` as a
    /// typed error — while the store itself stays fully usable.
    #[test]
    fn rebalancer_reports_its_own_death() {
        let plan = leap_fault::FaultPlan::new(7).always(FaultPoint::RebalancerTick);
        let store: Arc<LeapStore<u64>> = Arc::new(LeapStore::new(cfg(2).with_faults(plan)));
        let reb = Rebalancer::spawn(store.clone(), Duration::from_millis(1));
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !reb.is_dead() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(reb.is_dead(), "the worker must declare its own death");
        assert!(reb.panics() >= u64::from(Rebalancer::MAX_CONSECUTIVE_PANICS));
        let err = reb.stop().expect_err("death must surface out of stop()");
        assert!(err.panics >= u64::from(Rebalancer::MAX_CONSECUTIVE_PANICS));
        assert!(err.to_string().contains("died"), "{err}");
        // The store outlives its dead driver: ops and manual rebalancing
        // still work (the tick fault only arms the worker thread's path).
        store.put(10, 1);
        assert_eq!(store.get(10), Some(1));
        let panics_seen = store
            .obs()
            .expect("obs on by default")
            .snapshot()
            .events
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RebalancerPanic { .. }))
            .count();
        assert!(panics_seen > 0, "panics must land on the event timeline");
    }

    /// The published-view contract under churn: readers `get` preloaded
    /// keys — no lock, borrowed lists — while one thread cycles split /
    /// drain / merge and split / abort, each step publishing views. Every
    /// get must return the model value (a miss that raced a swap retries),
    /// and at quiescence every retired view has been freed: exactly the
    /// current one is live.
    #[test]
    fn readers_stay_exact_while_views_churn_and_retired_views_are_freed() {
        const KEYS: u64 = 400;
        const READERS: u64 = 3;
        const ROUNDS: usize = 40;
        // Thresholds no load can trip: only the explicit calls reshard.
        let store: LeapStore<u64> = LeapStore::new(cfg(2).with_rebalancing(RebalancePolicy {
            chunk: 16,
            split_ratio: 1e9,
            merge_ratio: 0.0,
            ..RebalancePolicy::default()
        }));
        for k in 0..KEYS {
            store.put(k, k * 7);
        }
        let stop = AtomicBool::new(false);
        let start = std::sync::Barrier::new(READERS as usize + 1);
        let drain = |store: &LeapStore<u64>| loop {
            match store.rebalance_step() {
                RebalanceAction::Completed { .. } => break,
                RebalanceAction::Moved { .. } => {}
                other => panic!("unexpected action {other:?}"),
            }
        };
        let gets = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..READERS)
                .map(|t| {
                    let (store, stop, start) = (&store, &stop, &start);
                    scope.spawn(move || {
                        start.wait();
                        let (mut k, mut gets) = (t, 0u64);
                        while !stop.load(Ordering::Acquire) {
                            assert_eq!(store.get(k % KEYS), Some(k % KEYS * 7));
                            k += 7;
                            gets += 1;
                        }
                        gets
                    })
                })
                .collect();
            start.wait();
            for round in 0..ROUNDS {
                let dst = store.split_shard(0, KEYS / 2).expect("valid split");
                if round % 2 == 0 {
                    drain(&store);
                    store.merge_shards(dst, 0).expect("adjacent merge");
                    drain(&store);
                } else {
                    assert!(matches!(
                        store.rebalance_step(),
                        RebalanceAction::Moved { .. }
                    ));
                    let id = store.router().migration().expect("in flight").id;
                    assert!(matches!(
                        store.abort_migration(id),
                        Ok(AbortOutcome::RolledBack { .. })
                    ));
                }
            }
            stop.store(true, Ordering::Release);
            readers
                .into_iter()
                .map(|r| r.join().expect("reader panicked"))
                .sum::<u64>()
        });
        assert!(gets > 0);
        assert!(store.router().migration().is_none());
        assert_eq!(store.shard(0).len() as u64, KEYS, "everything merged back");
        let swaps = store
            .obs()
            .expect("obs on by default")
            .registry()
            .counter("store_view_swaps")
            .get();
        // One new slot; begin + complete twice per even round; begin,
        // rollback flip and cancel per odd round.
        assert_eq!(swaps as usize, 1 + ROUNDS / 2 * 4 + ROUNDS / 2 * 3);
        crate::router::reclaim_until(|| store.router().live_views() == 1);
    }

    /// Op-rate awareness: a shard that is read-hot but key-light must
    /// split once its op rate dominates, even though its key count alone
    /// never crosses the threshold.
    #[test]
    fn policy_splits_read_hot_shard() {
        let store: LeapStore<u64> = LeapStore::new(
            StoreConfig::new(4, Partitioning::Range)
                .with_key_space(1_000)
                .with_params(Params {
                    node_size: 4,
                    max_level: 6,
                    ..Params::default()
                })
                .with_rebalancing(RebalancePolicy {
                    chunk: 16,
                    split_ratio: 2.0,
                    merge_ratio: 0.0,
                    min_split_keys: 8,
                    max_shards: 8,
                    op_weight: 1.0,
                    ..RebalancePolicy::default()
                }),
        );
        // Perfectly even key placement: 16 keys per shard.
        for k in 0..64u64 {
            store.put(k * 15, k);
        }
        // Drain the prefill deltas so the op census starts level.
        while store.rebalance_step() != RebalanceAction::Idle {}
        let epoch = store.router().epoch();
        // Hammer shard 1's interval with reads: keys alone would never
        // trip split_ratio (every shard holds 1/4 of the keys).
        for _ in 0..4_000 {
            store.get(300);
            store.range(260, 400);
        }
        let acted = (0..64)
            .map(|_| store.rebalance_step())
            .any(|a| matches!(a, RebalanceAction::SplitStarted { shard: 1, .. }));
        assert!(acted, "read-hot shard 1 must split on op rate");
        store.rebalance_until_idle();
        assert!(store.router().epoch() > epoch);
        assert_eq!(store.len(), 64, "splits move keys, never lose them");
    }
}
