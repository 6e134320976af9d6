//! The shard router: deterministic key → shard placement, the inverse
//! question a range query asks — *which shards can hold keys in
//! `[lo, hi]`?* — and the one place the store's routing state lives.
//!
//! # One published view
//!
//! Everything an operation needs to route — the epoch-versioned table
//! ([`RoutingEpoch`]), the in-flight migration overlay
//! ([`MigrationState`], if any) and the shard slots themselves — is
//! one immutable [`RoutingView`] published through a single atomic
//! pointer. An operation pins the `leap-ebr` epoch (the pin the list walk
//! takes anyway; nested pins are free), loads the pointer and routes off
//! plain borrowed data: no lock, no reference-count traffic, no store to
//! any line another thread uses.
//!
//! Every routing change — a migration beginning or completing, a slot
//! being added — builds the successor view and swaps the pointer while holding the
//! writer **gate** exclusively; the replaced view is retired through the
//! epoch collector, so a pinned reader keeps borrowing it safely. That
//! makes the pointer itself the read stamp: a reader that finds the same
//! pointer after its lookup or snapshot transaction as before it (same
//! pointer under one pin means same view — a retired view cannot be freed
//! and its address reused while the pin lives) knows no routing change
//! happened in between, and otherwise re-plans ([`Pinned::is_current`]).
//! The stamp is global: a migration of a range the read does not touch
//! also forces a retry, which costs a re-plan a few times per migration —
//! the `store_view_swaps` and `store_stamp_retries` counters measure it.
//!
//! Writers hold the gate shared for their whole op, so the view they
//! load cannot be replaced under them and needs no re-check; the
//! exclusive holder thereby also drains every write that routed under the
//! previous view before the migration driver trusts the new one.
//!
//! At most **one** migration is in flight: beginning a second while one
//! is installed fails with [`RebalanceError::MigrationInFlight`]. The
//! rebalance driver moves one chunk per step anyway, so a second overlay
//! could only interleave with the first, never run beside it.

use crate::rebalance::RebalanceError;
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// How the keyspace is partitioned across shards. The store has one
/// layout, contiguous ranges, so this enum is kept for `benchmark/` only:
/// it still passes `Partitioning::Range` to [`StoreConfig::new`].
///
/// [`StoreConfig::new`]: crate::StoreConfig::new
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// Contiguous slices of the keyspace: a range query visits only the
    /// shards whose slice overlaps it, at the cost of load skew when the
    /// workload is skewed — which live resharding repairs online.
    Range,
}

/// One version of the routing table: interval `i` is
/// `[starts[i], starts[i+1])` (the last interval extends to the end of the
/// keyspace) and is owned by shard slot `owners[i]`.
///
/// Tables are immutable; resharding installs a whole new table with
/// `epoch + 1`. Every live slot owns **at most one contiguous interval**
/// (slots emptied by a merge own none until a later split reuses them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingEpoch {
    /// Version counter; bumped by every completed split or merge.
    pub epoch: u64,
    /// Ascending interval starts; `starts[0] == 0`.
    starts: Vec<u64>,
    /// Owning shard slot per interval.
    owners: Vec<usize>,
}

impl RoutingEpoch {
    fn initial(shards: usize, key_space: u64) -> Self {
        // Stride >= 1 keeps the starts strictly ascending even in the
        // degenerate key_space < shards geometry, matching the arithmetic
        // router this table replaced.
        let stride = (key_space / shards as u64).max(1);
        RoutingEpoch {
            epoch: 0,
            starts: (0..shards as u64).map(|s| s * stride).collect(),
            owners: (0..shards).collect(),
        }
    }

    /// Index of the interval holding `key`.
    fn interval_index(&self, key: u64) -> usize {
        self.starts.partition_point(|s| *s <= key) - 1
    }

    /// The slot owning `key`.
    pub fn owner_of(&self, key: u64) -> usize {
        self.owners[self.interval_index(key)]
    }

    /// The inclusive end of interval `i` (the last interval runs to
    /// `u64::MAX - 1`; `u64::MAX` is the reserved sentinel key).
    fn interval_end(&self, i: usize) -> u64 {
        if i + 1 < self.starts.len() {
            self.starts[i + 1] - 1
        } else {
            u64::MAX - 1
        }
    }

    /// The contiguous interval slot `s` owns, if any.
    pub fn interval_of(&self, s: usize) -> Option<(u64, u64)> {
        self.owners
            .iter()
            .position(|&o| o == s)
            .map(|i| (self.starts[i], self.interval_end(i)))
    }

    /// `(slot, lo, hi)` for every interval overlapping `[lo, hi]`, in key
    /// order, each clipped to the query.
    pub fn overlapping(&self, lo: u64, hi: u64) -> Vec<(usize, u64, u64)> {
        if lo > hi {
            return Vec::new();
        }
        let first = self.interval_index(lo);
        let last = self.interval_index(hi);
        (first..=last)
            .map(|i| {
                (
                    self.owners[i],
                    self.starts[i].max(lo),
                    self.interval_end(i).min(hi),
                )
            })
            .collect()
    }

    /// All `(slot, lo, hi)` intervals, in key order (diagnostics).
    pub fn intervals(&self) -> Vec<(usize, u64, u64)> {
        (0..self.starts.len())
            .map(|i| (self.owners[i], self.starts[i], self.interval_end(i)))
            .collect()
    }

    /// The table after moving ownership of `[lo, hi]` — a suffix of
    /// `src`'s interval — to `dst`, with adjacent same-owner intervals
    /// coalesced and the epoch bumped.
    fn transferred(&self, lo: u64, hi: u64, src: usize, dst: usize) -> Self {
        let i = self.interval_index(lo);
        debug_assert_eq!(self.owners[i], src, "migration source must own lo");
        debug_assert_eq!(self.interval_end(i), hi, "migrations move suffixes");
        let mut starts = self.starts.clone();
        let mut owners = self.owners.clone();
        if starts[i] == lo {
            owners[i] = dst;
        } else {
            starts.insert(i + 1, lo);
            owners.insert(i + 1, dst);
        }
        // Coalesce: a transfer can make neighbours share an owner.
        let mut cs: Vec<u64> = Vec::with_capacity(starts.len());
        let mut co: Vec<usize> = Vec::with_capacity(owners.len());
        for (s, o) in starts.into_iter().zip(owners) {
            if co.last() == Some(&o) {
                continue;
            }
            cs.push(s);
            co.push(o);
        }
        RoutingEpoch {
            epoch: self.epoch + 1,
            starts: cs,
            owners: co,
        }
    }
}

/// An in-flight key migration: the overlay the router superimposes on
/// the current [`RoutingEpoch`] while `[lo, hi]` moves from `src` to
/// `dst`.
///
/// Invariant maintained by the store: at every instant each key in
/// `[lo, hi]` is present in **exactly one** of the two lists (moves and
/// in-range writes are single cross-list transactions), so readers that
/// consult source-then-destination never see a key absent or doubled.
#[derive(Debug)]
pub struct MigrationState {
    /// Unique, monotone overlay identity: the sequence number of the view
    /// that installed it (never reused, never 0).
    pub(crate) id: u64,
    /// Slot keys migrate out of (the current table owner of `[lo, hi]`).
    pub src: usize,
    /// Slot keys migrate into (owner once the next epoch installs).
    pub dst: usize,
    /// First key of the migrating sub-range.
    pub lo: u64,
    /// Last key (inclusive) of the migrating sub-range.
    pub hi: u64,
    /// Keys at or above `lo` and below the frontier have been drained from
    /// `src` (advisory — routing correctness never depends on it).
    pub(crate) frontier: AtomicU64,
    /// Keys moved so far.
    pub(crate) moved: AtomicU64,
    /// Serializes the chunk mover against writers targeting `[lo, hi]`:
    /// both read the source's current state and commit a cross-list
    /// transaction, which must not interleave (a chunk move committing a
    /// stale value over a racing write would lose the write).
    pub(crate) write_lock: Mutex<()>,
}

/// A read-only snapshot of an in-flight migration (stats, tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationView {
    /// Migration id: the sequence number of the view that installed it
    /// (unique, never reused).
    pub id: u64,
    /// Source slot.
    pub src: usize,
    /// Destination slot.
    pub dst: usize,
    /// Migrating sub-range start.
    pub lo: u64,
    /// Migrating sub-range end (inclusive).
    pub hi: u64,
    /// Keys moved so far.
    pub moved: u64,
}

/// Counts the live [`RoutingView`]s of one router, so tests can show
/// every retired view is freed exactly once.
#[cfg(test)]
#[derive(Debug)]
struct LiveCount(Arc<std::sync::atomic::AtomicUsize>);

#[cfg(test)]
impl Clone for LiveCount {
    fn clone(&self) -> Self {
        self.0.fetch_add(1, Ordering::SeqCst);
        LiveCount(self.0.clone())
    }
}

#[cfg(test)]
impl Drop for LiveCount {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One immutable version of the store's whole routing state (see the
/// module docs). `S` is the per-slot payload the store hangs off each
/// shard slot (its list and counters); a bare [`Router`] carries `()`.
#[derive(Debug, Clone)]
pub(crate) struct RoutingView<S> {
    /// Publish count: 0 for the construction-time view, +1 per swap.
    /// Doubles as the id source for migrations (unique, never reused).
    seq: u64,
    /// Current routing table.
    table: Arc<RoutingEpoch>,
    /// The in-flight migration, if any.
    overlay: Option<Arc<MigrationState>>,
    /// Shard slots; grows when a split allocates one, never shrinks.
    slots: Vec<S>,
    #[cfg(test)]
    _live: LiveCount,
}

impl<S> RoutingView<S> {
    /// The routing table of this view.
    pub(crate) fn table(&self) -> &Arc<RoutingEpoch> {
        &self.table
    }

    /// The in-flight migration, if any.
    pub(crate) fn overlay(&self) -> Option<&Arc<MigrationState>> {
        self.overlay.as_ref()
    }

    /// The shard slots.
    pub(crate) fn slots(&self) -> &[S] {
        &self.slots
    }

    /// The slot owning `key` **per the table** (an in-flight migration
    /// does not change ownership until it completes).
    pub(crate) fn owner_of(&self, key: u64) -> usize {
        self.table.owner_of(key)
    }

    /// The in-flight migration, if its range covers `key`.
    pub(crate) fn overlay_for(&self, key: u64) -> Option<&Arc<MigrationState>> {
        self.overlay().filter(|m| (m.lo..=m.hi).contains(&key))
    }

    /// The slots a linearizable `[lo, hi]` read must visit: the table's
    /// ([`RoutingEpoch::overlapping`]), plus the in-flight migration's
    /// destination clipped to its migrating sub-range when that overlaps
    /// the query. The flag is whether the merged result needs sorting: the
    /// table's slots concatenate in key order, but an overlay's destination
    /// keys interleave with the source interval's.
    pub(crate) fn visit_plan(&self, lo: u64, hi: u64) -> (Vec<(usize, u64, u64)>, bool) {
        let mut plan = self.table.overlapping(lo, hi);
        let mut sort = false;
        if let Some(m) = self.overlay().filter(|m| m.lo <= hi && lo <= m.hi) {
            plan.push((m.dst, m.lo.max(lo), m.hi.min(hi)));
            sort = true;
        }
        (plan, sort)
    }

    /// A snapshot of the in-flight migration, if any.
    pub(crate) fn migration_view(&self) -> Option<MigrationView> {
        self.overlay().map(|m| MigrationView {
            id: m.id,
            src: m.src,
            dst: m.dst,
            lo: m.lo,
            hi: m.hi,
            // ORDERING: progress gauge; staleness only lags the report.
            moved: m.moved.load(Ordering::Relaxed),
        })
    }
}

impl<S: Clone> RoutingView<S> {
    /// A copy of this view carrying the next sequence number, for the
    /// caller to edit and [`Router::publish`].
    fn successor(&self) -> Self {
        RoutingView {
            seq: self.seq + 1,
            ..self.clone()
        }
    }
}

/// The published view pointer, alone on its cache-line pair: every read
/// loads it, so it must not share a line with the gate word that every
/// write locks and unlocks.
#[repr(align(128))]
struct Published<S>(AtomicPtr<RoutingView<S>>);

/// An epoch pin plus the routing view it protects: what every store
/// operation routes through. Dereferences to the [`RoutingView`].
pub(crate) struct Pinned<'r, S> {
    router: &'r Router<S>,
    /// Loaded from `router.view` under `_guard`, so valid while it lives.
    view: *const RoutingView<S>,
    _guard: leap_ebr::Guard,
}

impl<S> std::ops::Deref for Pinned<'_, S> {
    type Target = RoutingView<S>;

    fn deref(&self) -> &RoutingView<S> {
        // SAFETY: `view` was loaded from the router's pointer after
        // `_guard` pinned the epoch; a view is only freed through
        // `defer_drop_box` after being swapped out, i.e. not before every
        // guard pinned at the swap — ours included — has dropped.
        unsafe { &*self.view }
    }
}

impl<S> Pinned<'_, S> {
    /// Whether the router still publishes this view — the read stamp.
    /// Call it **after** the reads it validates: equal pointers under one
    /// pin prove no routing change was published in between.
    pub(crate) fn is_current(&self) -> bool {
        // ORDERING: the Acquire fence keeps the caller's preceding list
        // reads from sinking below the pointer reload (the seqlock reader
        // recipe); the reload itself pairs with `publish`'s Release swap.
        fence(Ordering::Acquire);
        std::ptr::eq(self.router.view.0.load(Ordering::Acquire), self.view)
    }

    /// Re-loads the router's current view under the same pin.
    pub(crate) fn refresh(&mut self) {
        // ORDERING: Acquire pairs with `publish`'s Release swap.
        self.view = self.router.view.0.load(Ordering::Acquire);
    }
}

/// Routes keys to shard slots.
///
/// # Example
///
/// ```
/// use leap_store::Router;
/// let r = Router::new(4, 1000);
/// assert_eq!(r.shard_of(0), 0);
/// assert_eq!(r.shard_of(999), 3);
/// assert_eq!(r.shards_for_range(0, 249), vec![0]);
/// assert_eq!(r.shards_for_range(200, 600), vec![0, 1, 2]);
/// assert_eq!(r.epoch(), 0);
/// ```
pub struct Router<S = ()> {
    /// The current [`RoutingView`]; never null. Swapped only by
    /// [`Router::publish`], read only through [`Router::pin`].
    view: Published<S>,
    /// Writer gate: every write holds it shared for the whole op; every
    /// view swap holds it exclusively. This serializes publishers and
    /// drains writes that routed under the old view before the migration
    /// driver trusts the new one.
    gate: RwLock<()>,
    /// Bumped once per view swap (`store_view_swaps`), when wired.
    swaps: Option<Arc<leap_obs::Counter>>,
    #[cfg(test)]
    live: Arc<std::sync::atomic::AtomicUsize>,
    /// The router owns its views: `Send`/`Sync` exactly when `S` is.
    _owns: PhantomData<Box<RoutingView<S>>>,
}

impl Router {
    /// Creates a router over `shards` shards. `key_space` bounds the keys
    /// sliced evenly into contiguous intervals; keys at or beyond it fall
    /// in the trailing shards (exactly the last shard whenever
    /// `key_space >= shards`, the non-degenerate configuration).
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `key_space` is zero.
    pub fn new(shards: usize, key_space: u64) -> Self {
        Router::with_slots(key_space, vec![(); shards], None)
    }
}

impl<S: Clone + Send + Sync + 'static> Router<S> {
    /// A router whose initial view carries one slot per element of
    /// `slots`; `swaps`, when given, counts every later view swap.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty or `key_space` is zero.
    pub(crate) fn with_slots(
        key_space: u64,
        slots: Vec<S>,
        swaps: Option<Arc<leap_obs::Counter>>,
    ) -> Self {
        assert!(!slots.is_empty(), "a store needs at least one shard");
        assert!(key_space > 0, "key_space must be non-zero");
        #[cfg(test)]
        let live = Arc::new(std::sync::atomic::AtomicUsize::new(1));
        let first = RoutingView {
            seq: 0,
            table: Arc::new(RoutingEpoch::initial(slots.len(), key_space)),
            overlay: None,
            slots,
            #[cfg(test)]
            _live: LiveCount(live.clone()),
        };
        Router {
            view: Published(AtomicPtr::new(Box::into_raw(Box::new(first)))),
            gate: RwLock::new(()),
            swaps,
            #[cfg(test)]
            live,
            _owns: PhantomData,
        }
    }

    /// Pins the epoch and loads the current view — the first step of
    /// every store operation.
    pub(crate) fn pin(&self) -> Pinned<'_, S> {
        let guard = leap_ebr::pin();
        Pinned {
            router: self,
            // ORDERING: Acquire pairs with `publish`'s Release swap, so the
            // view's contents are visible; loaded after the pin, which is
            // what lets `Pinned::deref` borrow it.
            view: self.view.0.load(Ordering::Acquire),
            _guard: guard,
        }
    }

    /// Installs `next` as the current view and retires its predecessor
    /// through the epoch collector. The caller must hold the gate
    /// exclusively, which makes it the only publisher.
    fn publish(&self, next: RoutingView<S>, _gate: &RwLockWriteGuard<'_, ()>) {
        let new = Box::into_raw(Box::new(next));
        let guard = leap_ebr::pin();
        // ORDERING: Release publishes the new view's contents to the
        // Acquire loads in `pin` / `Pinned`; Acquire orders the retired
        // view's own publication before its deferred drop.
        let old = self.view.0.swap(new, Ordering::AcqRel);
        // SAFETY: `old` came from `Box::into_raw` (in `with_slots` or an
        // earlier `publish`) and the swap made it unreachable for every
        // later pin; the exclusive gate rules out a second publisher
        // retiring the same pointer, and no `Box` is ever rebuilt from it
        // elsewhere (`Drop` frees only the then-current view).
        unsafe { guard.defer_drop_box(old) };
        if let Some(swaps) = &self.swaps {
            swaps.inc();
        }
    }

    fn gate_exclusive(&self) -> RwLockWriteGuard<'_, ()> {
        self.gate.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Shared hold on the writer gate for the duration of one write: the
    /// view the write loads cannot be replaced until it is released.
    pub(crate) fn enter_write(&self) -> RwLockReadGuard<'_, ()> {
        self.gate.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of shard slots (including any emptied by merges and not yet
    /// reused by splits).
    pub fn shards(&self) -> usize {
        self.pin().slots.len()
    }

    /// The current routing-table version (0 until the first completed
    /// split or merge).
    pub fn epoch(&self) -> u64 {
        self.pin().table.epoch
    }

    /// A snapshot of the current routing table.
    pub fn routing(&self) -> Arc<RoutingEpoch> {
        self.pin().table.clone()
    }

    /// A snapshot of the in-flight migration, if one is running.
    pub fn migration(&self) -> Option<MigrationView> {
        self.pin().migration_view()
    }

    /// The shard owning `key` **per the current table** (an in-flight
    /// migration does not change ownership until it completes). Total:
    /// every key maps to exactly one slot.
    pub fn shard_of(&self, key: u64) -> usize {
        self.pin().owner_of(key)
    }

    /// Every shard that may hold a key in `[lo, hi]` per the current
    /// table, in key order (which is ascending slot order until the first
    /// reshard permutes interval ownership). Empty when `lo > hi`. Does
    /// **not** include an in-flight migration's destination — linearizable
    /// reads use the view's overlay-aware visit plan.
    pub fn shards_for_range(&self, lo: u64, hi: u64) -> Vec<usize> {
        let plan = self.pin().table.overlapping(lo, hi);
        plan.into_iter().map(|(s, _, _)| s).collect()
    }

    /// Every shard a scan of `subspace` visits per the current table — the
    /// placement question a prefix-tagged index asks. Equivalent to
    /// [`Router::shards_for_range`] over the subspace's key interval.
    pub fn shards_for_subspace(&self, subspace: &crate::Subspace) -> Vec<usize> {
        self.shards_for_range(subspace.lo(), subspace.hi())
    }

    /// The inclusive key interval slot `s` owns per the current table.
    /// `None` for slots that currently own no interval (emptied by a
    /// merge).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of bounds.
    pub fn shard_interval(&self, s: usize) -> Option<(u64, u64)> {
        let view = self.pin();
        assert!(s < view.slots.len(), "shard {s} out of bounds");
        view.table.interval_of(s)
    }

    /// Publishes a view with `slot` appended as a new (initially
    /// interval-less) shard slot; returns its index.
    pub(crate) fn add_slot(&self, slot: S) -> usize {
        let gate = self.gate_exclusive();
        let mut next = self.pin().successor();
        next.slots.push(slot);
        let index = next.slots.len() - 1;
        self.publish(next, &gate);
        index
    }

    /// Installs a migration overlay for `[lo, hi]`, a suffix of `src`'s
    /// owned interval, headed for `dst`. Fails while another migration is
    /// in flight, when the geometry is wrong, or when the
    /// transfer would leave `dst` owning a non-contiguous key set.
    pub(crate) fn begin_migration(
        &self,
        src: usize,
        dst: usize,
        lo: u64,
    ) -> Result<Arc<MigrationState>, RebalanceError> {
        // Exclusive gate: after this returns, every in-flight write that
        // routed under the previous view has committed, so the chunk
        // mover can trust that all in-range writes go through the new
        // overlay.
        let gate = self.gate_exclusive();
        let cur = self.pin();
        let slots = cur.slots.len();
        if src >= slots || dst >= slots || src == dst {
            return Err(RebalanceError::BadShard);
        }
        if cur.overlay.is_some() {
            return Err(RebalanceError::MigrationInFlight);
        }
        let (slo, shi) = cur
            .table
            .interval_of(src)
            .ok_or(RebalanceError::NothingToMove)?;
        if !(slo..=shi).contains(&lo) {
            return Err(RebalanceError::BadSplitKey);
        }
        // dst must stay contiguous: it owns nothing, or its interval abuts
        // the migrating range (shi <= u64::MAX - 1, so shi + 1 is safe).
        if let Some((dlo, dhi)) = cur.table.interval_of(dst) {
            let abuts = dlo == shi + 1 || (lo > 0 && dhi == lo - 1);
            if !abuts {
                return Err(RebalanceError::NonAdjacent);
            }
        }
        let mut next = cur.successor();
        let m = Arc::new(MigrationState {
            id: next.seq,
            src,
            dst,
            lo,
            hi: shi,
            frontier: AtomicU64::new(lo),
            moved: AtomicU64::new(0),
            write_lock: Mutex::new(()),
        });
        next.overlay = Some(m.clone());
        self.publish(next, &gate);
        Ok(m)
    }

    /// Publishes the post-migration view: table at epoch + 1 with
    /// `[m.lo, m.hi]` owned by `m.dst`, and `m` gone as the overlay. The
    /// caller must have fully drained `[m.lo, m.hi]` out of the
    /// source list first. Returns the new epoch.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not the installed overlay.
    pub(crate) fn complete_migration(&self, m: &Arc<MigrationState>) -> u64 {
        // Exclusive gate: writes that routed under the overlay have
        // committed before ownership flips; later writes route directly
        // to the destination.
        let gate = self.gate_exclusive();
        let cur = self.pin();
        // INVARIANT: only the store's step driver completes a migration,
        // under its step lock and on the overlay it read under that lock;
        // nothing else removes an overlay, so `m` is still installed.
        assert!(
            cur.overlay.as_ref().is_some_and(|o| Arc::ptr_eq(o, m)),
            "completing a migration that is not installed"
        );
        let mut next = cur.successor();
        next.overlay = None;
        next.table = Arc::new(next.table.transferred(m.lo, m.hi, m.src, m.dst));
        let epoch = next.table.epoch;
        self.publish(next, &gate);
        epoch
    }

    /// Views of this router not yet freed (the current one included).
    #[cfg(test)]
    pub(crate) fn live_views(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }
}

impl<S> Drop for Router<S> {
    fn drop(&mut self) {
        // SAFETY: the pointer is never null and came from `Box::into_raw`;
        // `&mut self` proves no `Pinned` borrows it, and retired views
        // were swapped out of this field, so this frees the last one once.
        drop(unsafe { Box::from_raw(*self.view.0.get_mut()) });
    }
}

impl<S: Clone + Send + Sync + 'static> std::fmt::Debug for Router<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let view = self.pin();
        f.debug_struct("Router")
            .field("seq", &view.seq)
            .field("epoch", &view.table.epoch)
            .field("shards", &view.slots.len())
            .field("migration", &view.migration_view())
            .finish()
    }
}

/// Drives epoch reclamation from the calling (unpinned) thread until
/// `done` holds; other tests' transient pins only delay it.
#[cfg(test)]
pub(crate) fn reclaim_until(done: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while !done() {
        assert!(
            std::time::Instant::now() < deadline,
            "retired views never freed"
        );
        leap_ebr::pin().flush();
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_mode_is_contiguous_and_total() {
        let r = Router::new(8, 1 << 20);
        let mut last = 0;
        for k in (0..(1u64 << 20)).step_by(997) {
            let s = r.shard_of(k);
            assert!(s < 8);
            assert!(s >= last, "shard ids must be monotone in the key");
            last = s;
        }
        // Keys beyond the declared key space clamp to the last shard.
        assert_eq!(r.shard_of(u64::MAX - 1), 7);
    }

    #[test]
    fn range_queries_visit_overlapping_shards_only() {
        let r = Router::new(4, 1000);
        assert_eq!(r.shards_for_range(0, 999), vec![0, 1, 2, 3]);
        assert_eq!(r.shards_for_range(250, 499), vec![1]);
        assert_eq!(r.shards_for_range(5, 3), Vec::<usize>::new());
    }

    #[test]
    fn intervals_tile_the_keyspace() {
        let r = Router::new(5, 100);
        let mut next = 0u64;
        for s in 0..5 {
            let (lo, hi) = r.shard_interval(s).unwrap();
            assert_eq!(lo, next);
            assert!(hi >= lo);
            next = hi + 1;
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        Router::new(0, 100);
    }

    #[test]
    fn split_then_merge_roundtrips_the_table() {
        let r = Router::new(2, 1000);
        assert_eq!(r.epoch(), 0);
        // Split shard 0's [0, 499] at 250 into a fresh slot.
        let s = r.add_slot(());
        assert_eq!(s, 2);
        let m = r.begin_migration(0, 2, 250).expect("valid split");
        assert_eq!((m.lo, m.hi), (250, 499));
        assert_eq!(r.shard_of(300), 0, "ownership flips only at completion");
        assert!(r.migration().is_some());
        assert_eq!(r.complete_migration(&m), 1);
        assert_eq!(r.shard_of(300), 2);
        assert_eq!(r.shard_of(200), 0);
        assert_eq!(r.shard_of(700), 1);
        assert_eq!(r.shards_for_range(0, 999), vec![0, 2, 1]);
        assert!(r.migration().is_none());
        // Merge slot 2 back into slot 0 (adjacent on the left).
        let m = r.begin_migration(2, 0, 250).expect("valid merge");
        assert_eq!(r.complete_migration(&m), 2);
        assert_eq!(r.shard_of(300), 0);
        assert_eq!(r.shard_interval(2), None, "slot 2 owns nothing now");
        assert_eq!(
            r.routing().intervals(),
            vec![(0, 0, 499), (1, 500, u64::MAX - 1)],
            "coalesced back to two intervals"
        );
    }

    #[test]
    fn migration_rejects_bad_geometry() {
        let r = Router::new(4, 1000);
        assert!(matches!(
            r.begin_migration(0, 0, 10),
            Err(RebalanceError::BadShard)
        ));
        assert!(matches!(
            r.begin_migration(0, 9, 10),
            Err(RebalanceError::BadShard)
        ));
        assert!(matches!(
            r.begin_migration(0, 2, 100),
            Err(RebalanceError::NonAdjacent),
        ));
        assert!(matches!(
            r.begin_migration(0, 1, 900),
            Err(RebalanceError::BadSplitKey)
        ));
        let m = r.begin_migration(0, 1, 100).expect("suffix into neighbour");
        // A second migration is refused while one is in flight, whether it
        // shares a slot or not, and the refusal publishes nothing.
        let stamp = r.pin();
        for (src, dst, lo) in [(1, 2, 300), (0, 3, 100), (2, 3, 600)] {
            assert!(matches!(
                r.begin_migration(src, dst, lo),
                Err(RebalanceError::MigrationInFlight)
            ));
        }
        assert!(stamp.is_current(), "a refused begin publishes no view");
        drop(stamp);
        assert_eq!(r.migration().map(|v| v.id), Some(m.id));
        r.complete_migration(&m);
        let m2 = r.begin_migration(2, 3, 600).expect("free once m completed");
        r.complete_migration(&m2);
        assert_eq!(r.shard_of(150), 1);
        assert_eq!(r.shard_of(650), 3);
    }

    /// Every routing change publishes a new view, so a stamp taken before
    /// it fails afterwards — including changes to a disjoint range (the
    /// stamp is global). Migration ids are never reused.
    #[test]
    fn every_routing_change_moves_the_view_identity() {
        let r = Router::new(4, 1000);
        let mut stamp = r.pin();
        assert!(stamp.is_current());
        let a = r.begin_migration(0, 1, 100).expect("overlay A [100,249]");
        assert!(!stamp.is_current(), "begin moves the view");
        stamp.refresh();
        assert!(stamp.is_current());
        assert_eq!(stamp.overlay_for(120).map(|m| m.id), Some(a.id));
        assert!(stamp.overlay_for(99).is_none() && stamp.overlay_for(250).is_none());
        assert!(matches!(
            r.begin_migration(2, 3, 600),
            Err(RebalanceError::MigrationInFlight)
        ));
        assert!(stamp.is_current(), "a refused begin does not move it");
        r.complete_migration(&a);
        assert!(!stamp.is_current(), "completion moves it");
        stamp.refresh();
        let b = r.begin_migration(2, 3, 600).expect("overlay B [600,749]");
        assert!(!stamp.is_current(), "a begin of another range moves it too");
        stamp.refresh();
        r.complete_migration(&b);
        assert!(!stamp.is_current(), "completing it moves it again");
        stamp.refresh();
        r.add_slot(());
        assert!(!stamp.is_current(), "a new slot moves it");
        let a2 = r.begin_migration(1, 0, 100).expect("merge back");
        r.complete_migration(&a2);
        let a3 = r.begin_migration(0, 1, 100).expect("same shape as A");
        assert!(
            a.id < a2.id && a2.id < a3.id,
            "ids are monotone, never reused"
        );
        r.complete_migration(&a3);
    }

    /// The publish/retire cycle: a replaced view stays readable through a
    /// pin taken before the swap, is freed once that pin is gone and the
    /// epoch has moved on, and the router's drop frees the last one.
    #[test]
    fn views_are_published_and_retired_exactly_once() {
        let r = Router::new(2, 1000);
        assert_eq!(r.live_views(), 1);
        let old = r.pin();
        let s = r.add_slot(());
        let m = r.begin_migration(0, s, 250).expect("valid split");
        r.complete_migration(&m);
        assert_eq!(r.live_views(), 4, "three swaps, nothing freed under a pin");
        assert_eq!((old.slots().len(), old.table().epoch), (2, 0));
        assert!(old.overlay().is_none(), "the pinned view is unchanged");
        drop(old);
        reclaim_until(|| r.live_views() == 1);
        assert_eq!((r.shards(), r.epoch()), (3, 1));
        let live = r.live.clone();
        drop(r);
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn degenerate_key_space_still_tiles() {
        // key_space < shards: stride clamps to 1, keys 0..7 spread over
        // the slots one apiece, the tail clamps to the last slot — the
        // arithmetic router's historical behavior.
        let r = Router::new(8, 3);
        for s in 0..8 {
            assert!(r.shard_interval(s).is_some());
        }
        assert_eq!(r.shard_of(5), 5);
        assert_eq!(r.shard_of(u64::MAX - 1), 7);
    }
}
