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
//! events — begin, complete — never per-chunk events).
//!
//! A migration only ends by completing. A chunk that fails (an injected
//! `migration_chunk` fault drops it before any lock is taken) leaves the
//! frontier where it was, and the next step retries from there.

use crate::store::LeapStore;
use leap_fault::FaultPoint;
use leap_obs::EventKind;
use leaplist::{BatchOp, LeapListLt};
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};

/// Why a split, merge or rebalance step could not proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceError {
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
}

impl std::fmt::Display for RebalanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            RebalanceError::MigrationInFlight => "a migration is already in flight",
            RebalanceError::BadShard => "shard index out of bounds or source == destination",
            RebalanceError::BadSplitKey => "split key outside the source shard's interval",
            RebalanceError::NonAdjacent => "destination interval not adjacent to the range",
            RebalanceError::NothingToMove => "source shard owns no interval",
            RebalanceError::InvalidPolicy(why) => return write!(f, "invalid policy: {why}"),
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
    /// Nothing to do: no migration in flight and the load is balanced.
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
    /// An injected fault dropped this step's chunk: nothing moved, the
    /// frontier stays where it was, and the next step retries from it.
    ChunkFailed {
        /// Migration source.
        src: usize,
        /// Migration destination.
        dst: usize,
    },
}

impl<V: Clone + Send + Sync + 'static> LeapStore<V> {
    /// Begins splitting `shard`: keys at or above `at` (a key strictly
    /// inside the shard's owned interval) will migrate to a fresh slot,
    /// whose index is returned. The split is **online**: keys move in
    /// bounded chunks as [`LeapStore::rebalance_step`] is driven; reads
    /// and writes proceed throughout.
    pub fn split_shard(&self, shard: usize, at: u64) -> Result<usize, RebalanceError> {
        let _step = self
            .step_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.split_locked(shard, at)
    }

    fn split_locked(&self, shard: usize, at: u64) -> Result<usize, RebalanceError> {
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
    ///   keys, one cross-list transaction), or complete it if its range
    ///   has drained;
    /// * otherwise → consult the [`RebalancePolicy`] against per-shard
    ///   load scores (key counts plus a decaying op rate) and start a split
    ///   of the hottest eligible shard or a merge of the coldest adjacent
    ///   pair, or report [`RebalanceAction::Idle`] if neither is due.
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
        match inflight {
            Some(m) => self.drain_step(&m),
            None => self.policy_action().unwrap_or(RebalanceAction::Idle),
        }
    }

    /// One bounded drain action on migration `m`: move a chunk, or
    /// complete it when the range has drained.
    fn drain_step(&self, m: &Arc<crate::router::MigrationState>) -> RebalanceAction {
        // Injected chunk fault: drop the step before touching any lock —
        // the failure mode of a chunk mover that crashed mid-flight. The
        // frontier has not moved, so the next step retries the chunk.
        if let Some(f) = self.faults.as_deref() {
            if f.should_fire(FaultPoint::MigrationChunk) {
                return RebalanceAction::ChunkFailed {
                    src: m.src,
                    dst: m.dst,
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
        // ORDERING: frontier/moved are both written under `write_lock`
        // (held), and readers take the same lock or tolerate staleness.
        m.frontier.store(last + 1, Ordering::Relaxed);
        // ORDERING: monotonic stat counter; no publication rides on it.
        m.moved.fetch_add(page.len() as u64, Ordering::Relaxed);
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
    /// emits the lifecycle events. Caller holds the step lock, read `m` as
    /// the installed overlay under it, and has verified the source range
    /// is drained.
    fn complete_locked(&self, m: &Arc<crate::router::MigrationState>) -> RebalanceAction {
        let epoch = self.router().complete_migration(m);
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
        // Still under the step lock, so every migration's timeline reads
        // begin -> chunks -> complete, and the completion carries the
        // routing epoch it installed.
        self.emit(EventKind::MigrationComplete { id: m.id, epoch });
        RebalanceAction::Completed { epoch }
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
    /// completed. For deterministic tests and quiesce points; a caller
    /// that serves traffic meanwhile calls [`LeapStore::rebalance_step`]
    /// from a loop of its own instead.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Partitioning;
    use crate::store::StoreConfig;
    use leaplist::Params;
    use std::sync::atomic::AtomicBool;

    fn cfg(shards: usize) -> StoreConfig {
        StoreConfig::new(shards, Partitioning::Range)
            .with_key_space(1_000)
            .with_params(Params {
                node_size: 4,
                max_level: 6,
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

    /// A dropped chunk resumes: while injected faults drop every chunk,
    /// each step reports the failure and leaves the frontier and the
    /// destination untouched; once the fault budget is spent, the drain
    /// picks up from the same frontier and completes.
    #[test]
    fn a_failed_chunk_resumes_from_the_frontier() {
        let plan = leap_fault::FaultPlan::new(42)
            .always(FaultPoint::MigrationChunk)
            .with_budget(FaultPoint::MigrationChunk, 3);
        let store: LeapStore<u64> = LeapStore::new(cfg(2).with_faults(plan));
        for k in 0..80u64 {
            store.put(k, k + 1);
        }
        store.split_shard(0, 40).expect("valid split");
        for _ in 0..3 {
            assert_eq!(
                store.rebalance_step(),
                RebalanceAction::ChunkFailed { src: 0, dst: 2 }
            );
            assert_eq!(store.router().migration().expect("in flight").moved, 0);
            assert!(store.shard(2).is_empty(), "a dropped chunk moves nothing");
        }
        let mut completed = None;
        while completed.is_none() {
            match store.rebalance_step() {
                RebalanceAction::Moved { .. } => {}
                RebalanceAction::Completed { epoch } => completed = Some(epoch),
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert_eq!(completed, Some(1));
        assert!(store.router().migration().is_none());
        assert_eq!(store.shard(2).len(), 40);
        for k in 0..80u64 {
            assert_eq!(store.get(k), Some(k + 1), "key {k}");
        }
    }

    /// The published-view contract under churn: readers `get` preloaded
    /// keys — no lock, borrowed lists — while one thread cycles split /
    /// drain / merge, each step publishing views (odd rounds first move
    /// one chunk on its own, with the readers straddling the overlay). Every
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
                if round % 2 == 1 {
                    assert!(matches!(
                        store.rebalance_step(),
                        RebalanceAction::Moved { .. }
                    ));
                }
                drain(&store);
                store.merge_shards(dst, 0).expect("adjacent merge");
                drain(&store);
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
        // One new slot, then begin + complete twice per round.
        assert_eq!(swaps as usize, 1 + ROUNDS * 4);
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
