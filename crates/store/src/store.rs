//! The store proper: Leap-List shards on one transactional domain, routed
//! through the router's single published view (`router.rs`). Every
//! operation starts the same way — pin the epoch, load the view — and then
//! works off borrowed data: the table, the in-flight overlay and the shard
//! lists themselves all come out of that one immutable value.
//!
//! * A **read** takes no lock and writes no shared line: its op counter
//!   is a per-thread stripe row, its list is borrowed from the view, and
//!   its stamp is the view pointer — re-loaded after the lookup or the
//!   snapshot transaction; an unchanged pointer proves no routing change
//!   was published in between, anything else re-plans.
//! * A **write** additionally holds the router's gate shared, which keeps
//!   the view it loaded current for the whole op — no re-check at all.
//!
//! Every batch — including one mapping several keys to a single shard —
//! commits through **one** multi-list transaction
//! (`LeapListLt::apply_batch_grouped`), and the shard set itself can
//! change online: each [`LeapStore::rebalance_step`] call migrates one
//! bounded chunk of a key sub-range between shards in a cross-list
//! transaction while readers and writers proceed (see `rebalance.rs` for
//! the protocol).

use crate::error::StoreError;
use crate::obs::{OpKind, StoreObs};
use crate::rebalance::RebalancePolicy;
use crate::router::{MigrationState, Partitioning, Pinned, Router};
use crate::stats::{CounterRow, ShardCounters, ShardStats, StoreStats};
use leap_fault::{FaultInjector, FaultPlan, FaultPoint};
use leap_stm::{RetryPolicy, StmDomain, StmFaultPoint, StmRecorder};
use leaplist::{BatchOp, LeapListLt, Params};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Construction parameters for a [`LeapStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Number of Leap-List shards at construction (splits may add more).
    pub shards: usize,
    /// Expected key upper bound (exclusive): the shards own `[0,
    /// key_space)` in equal contiguous strides; keys at or beyond it fall
    /// in the trailing shards (exactly the last shard whenever
    /// `key_space >= shards`). The default is `u64::MAX`: without an
    /// explicit key space every key below `u64::MAX / shards` (about 2⁶¹
    /// with the default 8 shards) starts in shard 0 until the rebalancer
    /// splits it.
    pub key_space: u64,
    /// Per-shard Leap-List structure parameters.
    pub params: Params,
    /// Policy driving [`LeapStore::rebalance_step`] (chunk size, split and
    /// merge thresholds).
    pub rebalance: RebalancePolicy,
    /// Whether the store carries observability instruments ([`StoreObs`]:
    /// per-op latency histograms, the STM retry histogram and the event
    /// timeline of the last [`leap_obs::DEFAULT_RING_CAPACITY`] events).
    /// On by default; when off the hot paths' only overhead is one
    /// `Option` branch.
    pub obs: bool,
    /// Per-thread sampling period shared by the `get` latency histogram
    /// and leap-trace head sampling: 1 op in `sample_period` is elected
    /// (`1` = every op, `0` = never). Default
    /// [`crate::obs::GET_SAMPLE_PERIOD`].
    pub sample_period: u32,
    /// Arms leap-trace per-op spans ([`leap_obs::TraceConfig`]): phase
    /// breakdowns, STM abort causes per attempt and
    /// migration-interference marks, head-sampled at `sample_period`
    /// plus tail capture above the SLO threshold. `None` (the default)
    /// keeps tracing entirely off the hot paths.
    pub trace: Option<leap_obs::TraceConfig>,
    /// Deterministic fault-injection schedule ([`leap_fault::FaultPlan`]),
    /// `None` in production. When set, the store builds one
    /// [`FaultInjector`] shared by every injection point (STM
    /// commit/validate, migration chunks, batcher admission, rebalancer
    /// ticks); when unset the hot paths carry only an `Option` branch.
    pub faults: Option<FaultPlan>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            shards: 8,
            key_space: u64::MAX,
            params: Params::default(),
            rebalance: RebalancePolicy::default(),
            obs: true,
            sample_period: crate::obs::GET_SAMPLE_PERIOD,
            trace: None,
            faults: None,
        }
    }
}

impl StoreConfig {
    /// A config with the given shard count. The store is always range
    /// partitioned; the second argument is kept for `benchmark/` only.
    pub fn new(shards: usize, _partitioning: Partitioning) -> Self {
        StoreConfig {
            shards,
            ..Default::default()
        }
    }

    /// Sets the expected key upper bound (exclusive).
    pub fn with_key_space(mut self, key_space: u64) -> Self {
        self.key_space = key_space;
        self
    }

    /// Sets the per-shard Leap-List parameters.
    pub fn with_params(mut self, params: Params) -> Self {
        self.params = params;
        self
    }

    /// Sets the rebalancing policy (see [`RebalancePolicy`]). The policy
    /// only acts when the caller drives [`LeapStore::rebalance_step`].
    pub fn with_rebalancing(mut self, rebalance: RebalancePolicy) -> Self {
        self.rebalance = rebalance;
        self
    }

    /// Enables or disables observability instruments (default: enabled).
    pub fn with_obs(mut self, obs: bool) -> Self {
        self.obs = obs;
        self
    }

    /// Sets the shared sampling period for the `get` latency histogram
    /// and trace head sampling (`1` = every op, `0` = never; default
    /// [`crate::obs::GET_SAMPLE_PERIOD`]).
    pub fn with_sample_period(mut self, period: u32) -> Self {
        self.sample_period = period;
        self
    }

    /// Arms leap-trace per-op spans (see [`StoreConfig::trace`]).
    pub fn with_tracing(mut self, trace: leap_obs::TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Arms deterministic fault injection with `plan` (chaos tests only;
    /// see [`leap_fault`]). The same seed always yields the same fire
    /// schedule at every injection point.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// One multi-shard read plan: the lists to visit in one snapshot
/// transaction, their (clipped) per-list key ranges, and whether the
/// merged result needs sorting.
pub(crate) type VisitPlan<V> = (Vec<Arc<LeapListLt<V>>>, Vec<(u64, u64)>, bool);

/// The first `limit` pairs of a multi-shard page: contiguous shards
/// concatenate in key order, and only a migration overlay's destination
/// interleaves and needs the sort.
pub(crate) fn merge_page<V>(
    pairs: impl IntoIterator<Item = (u64, V)>,
    sort: bool,
    limit: usize,
) -> Vec<(u64, V)> {
    let mut page: Vec<(u64, V)> = pairs.into_iter().collect();
    if sort {
        page.sort_unstable_by_key(|(k, _)| *k);
    }
    page.truncate(limit);
    page
}

/// One shard slot — the Leap-List and its op counters — as carried by
/// the router's published view ([`LeapStore::router`]'s slot payload).
/// Opaque: reach the list through [`LeapStore::shard`] and the counters
/// through [`LeapStore::stats`].
pub struct ShardSlot<V> {
    pub(crate) list: Arc<LeapListLt<V>>,
    pub(crate) counters: Arc<ShardCounters>,
}

impl<V> ShardSlot<V> {
    fn new(list: LeapListLt<V>) -> Self {
        ShardSlot {
            list: Arc::new(list),
            counters: Arc::new(ShardCounters::default()),
        }
    }
}

impl<V> Clone for ShardSlot<V> {
    fn clone(&self) -> Self {
        ShardSlot {
            list: self.list.clone(),
            counters: self.counters.clone(),
        }
    }
}

/// The pinned routing view a store operation works off.
type View<'a, V> = Pinned<'a, ShardSlot<V>>;

/// A sharded, concurrent range-store over Leap-List shards sharing one
/// transactional domain, with **online resharding**.
///
/// * [`LeapStore::get`] / [`LeapStore::put`] / [`LeapStore::delete`] —
///   single-key operations routed to one shard (or, mid-migration, to the
///   source/destination pair as one cross-list transaction).
/// * [`LeapStore::multi_put`] / [`LeapStore::apply`] — cross-shard batches
///   applied as **one linearizable action**.
/// * [`LeapStore::range`] — a cross-shard range query assembled from
///   per-shard snapshots taken inside **one** transaction
///   ([`LeapListLt::range_page_group`]), so the combined result is a
///   single consistent snapshot: it can never observe part of a batch —
///   or half of a shard migration.
/// * [`LeapStore::scan_pages`] — a paged cursor over a range: each page is one
///   bounded linearizable transaction with a resume key, so scanning a
///   million keys never materializes them in one transaction.
/// * [`LeapStore::scan_snapshot_pages`] — a paged cursor whose every page reads
///   at **one** pinned commit timestamp via the shards' version bundles:
///   the whole scan is one consistent snapshot, and pages never retry
///   against concurrent commits or migrations.
/// * [`LeapStore::split_shard`] / [`LeapStore::merge_shards`] /
///   [`LeapStore::rebalance_step`] — online shard migration, one bounded
///   chunk per step, driven by the caller.
///
/// # Batch atomicity
///
/// Every batch commits through a single multi-list transaction
/// ([`LeapListLt::apply_batch_grouped`]): ops are grouped per shard in
/// input order, each shard's group becomes one chain-rebuild plan, and one
/// locking transaction validates and acquires every affected chain across
/// every shard. A batch mapping two or more keys to one shard therefore
/// costs the same protocol as the one-key-per-shard case — there is no
/// seqlock, no writer-phase lock and no multi-round fallback; readers and
/// other writers proceed concurrently throughout.
///
/// # Example
///
/// ```
/// use leap_store::{LeapStore, Partitioning, StoreConfig};
///
/// let store: LeapStore<u64> =
///     LeapStore::new(StoreConfig::new(4, Partitioning::Range).with_key_space(1000));
/// store.put(10, 100);
/// store.put(600, 900);
/// // Atomic across shards:
/// store.multi_put(&[(20, 1), (400, 2), (800, 3)]);
/// assert_eq!(store.get(400), Some(2));
/// assert_eq!(store.range(0, 999).len(), 5);
/// ```
pub struct LeapStore<V> {
    /// Placement **and** the shard slots themselves, as one published
    /// view; slots grow when a split allocates one and never shrink
    /// (merged-away slots are recycled through `free_slots`).
    router: Router<ShardSlot<V>>,
    domain: Arc<StmDomain>,
    params: Params,
    pub(crate) policy: RebalancePolicy,
    /// Slots emptied by completed merges, reusable by the next split.
    pub(crate) free_slots: Mutex<Vec<usize>>,
    /// Serializes rebalance steps and split/merge initiation.
    pub(crate) step_lock: Mutex<()>,
    /// Pairs created by recently completed splits with the completion
    /// count at the time, shielded from immediate auto-merging (policy
    /// hysteresis; the shield expires after later completions); newest
    /// first, capped.
    pub(crate) recent_splits: Mutex<VecDeque<((usize, usize), u64)>>,
    /// Per-slot op-rate state for the policy's load score: the op totals
    /// seen at the last census and the decaying average of the deltas.
    op_census: Mutex<(Vec<u64>, Vec<f64>)>,
    /// Batches that mapped at least two keys to one shard — the load that
    /// the seed's seqlock slow path serialized and that now commits in a
    /// single transaction.
    collision_batches: AtomicU64,
    pub(crate) migrations_completed: AtomicU64,
    /// Operations refused by the batcher's admission gate, at its bound or
    /// by an injected `admission` fault (each one surfaced to its caller
    /// as [`StoreError::Overloaded`], never silently).
    pub(crate) shed_ops: AtomicU64,
    /// Snapshot-isolated scans started ([`LeapStore::scan_snapshot_pages`]
    /// cursors pinned).
    pub(crate) snapshot_scans: AtomicU64,
    /// Deterministic fault injector shared by every injection point;
    /// `None` (a single branch on the hot paths) in production.
    pub(crate) faults: Option<Arc<FaultInjector>>,
    /// Observability instruments ([`StoreConfig::obs`], on by default):
    /// per-op latency histograms, the STM retry histogram and the
    /// migration/drain event timeline.
    obs: Option<Arc<StoreObs>>,
    /// Shared `get`-histogram / trace head-sampling period
    /// ([`StoreConfig::sample_period`]).
    sample_period: u32,
    /// leap-trace span layer ([`StoreConfig::trace`]); `None` keeps every
    /// op boundary at one `Option` branch.
    tracer: Option<Arc<leap_obs::Tracer>>,
}

impl<V: Clone + Send + Sync + 'static> LeapStore<V> {
    /// Creates an empty store: `config.shards` Leap-Lists sharing one
    /// fresh transactional domain.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` or `config.key_space` is zero, or if
    /// `config.rebalance` fails [`RebalancePolicy::validate`] — a
    /// thrash-prone policy (e.g. overlapping split/merge thresholds) is
    /// rejected at construction rather than livelocking
    /// [`LeapStore::rebalance_until_idle`] later.
    pub fn new(config: StoreConfig) -> Self {
        if let Err(e) = config.rebalance.validate() {
            // INVARIANT: documented constructor panic — a thrash-prone
            // policy must fail loudly at build time, not livelock later.
            panic!("rejected rebalance policy: {e}");
        }
        let domain = Arc::new(StmDomain::new());
        let slots: Vec<ShardSlot<V>> = (0..config.shards)
            .map(|_| {
                ShardSlot::new(LeapListLt::with_domain(
                    config.params.clone(),
                    domain.clone(),
                ))
            })
            .collect();
        let obs = config.obs.then(|| {
            let obs = Arc::new(StoreObs::new());
            // The domain reports attempts-per-commit straight into the
            // store's retry histogram. A domain records to at most one
            // recorder for its lifetime; only the first store sharing a
            // domain wires one (set_recorder is first-wins).
            domain.set_recorder(StmRecorder::new(obs.txn_retries.clone()));
            obs
        });
        // The router owns the shard-count and key-space validation.
        let router = Router::with_slots(
            config.key_space,
            slots,
            obs.as_ref().map(|o| o.view_swaps.clone()),
        );
        let tracer = config
            .trace
            .as_ref()
            .map(|t| Arc::new(leap_obs::Tracer::from_config(t, config.sample_period)));
        let faults = config.faults.map(|plan| Arc::new(FaultInjector::new(plan)));
        if let Some(f) = &faults {
            // Route the domain's STM fault points through the shared
            // injector so one seeded plan drives every layer.
            // set_fault_hook is first-wins, like set_recorder: only the
            // first store sharing a domain arms it.
            let hook = f.clone();
            domain.set_fault_hook(Arc::new(move |point| match point {
                StmFaultPoint::Commit => hook.should_fire(FaultPoint::StmCommit),
                StmFaultPoint::Validate => hook.should_fire(FaultPoint::StmValidate),
            }));
        }
        LeapStore {
            router,
            domain,
            params: config.params,
            policy: config.rebalance,
            free_slots: Mutex::new(Vec::new()),
            step_lock: Mutex::new(()),
            recent_splits: Mutex::new(VecDeque::new()),
            op_census: Mutex::new((Vec::new(), Vec::new())),
            collision_batches: AtomicU64::new(0),
            migrations_completed: AtomicU64::new(0),
            shed_ops: AtomicU64::new(0),
            snapshot_scans: AtomicU64::new(0),
            faults,
            obs,
            sample_period: config.sample_period,
            tracer,
        }
    }

    /// The fault injector, when the store was built
    /// [`StoreConfig::with_faults`] — chaos tests read per-point
    /// visit/fire tallies off it.
    pub fn faults(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// The store's observability instruments, if enabled
    /// ([`StoreConfig::obs`]). The registry behind it renders the full
    /// series set as JSON or Prometheus text.
    pub fn obs(&self) -> Option<&Arc<StoreObs>> {
        self.obs.as_ref()
    }

    /// The leap-trace span layer, if armed ([`StoreConfig::with_tracing`]).
    /// Snapshot it for the retained spans, their Chrome trace-event export
    /// and the drop counter.
    pub fn tracer(&self) -> Option<&Arc<leap_obs::Tracer>> {
        self.tracer.as_ref()
    }

    /// Begins a leap-trace span for a public op when tracing is armed; the
    /// returned guard measures, applies the retention rule and publishes
    /// on drop. Declare it right after pinning so it brackets the whole
    /// op. The span's shard label comes off the view the op already
    /// loaded, and only when a tracer is armed.
    #[inline]
    fn span_keyed(
        &self,
        kind: leap_obs::OpClass,
        key: u64,
        view: &View<'_, V>,
    ) -> leap_obs::SpanGuard<'_> {
        match &self.tracer {
            Some(t) => t.begin(kind, key, view.owner_of(key) as u32),
            None => leap_obs::SpanGuard::inactive(),
        }
    }

    /// [`Self::span_keyed`] for call sites with no view loaded: routes the
    /// label on its own, and only when a tracer is armed.
    #[inline]
    pub(crate) fn span_routed(&self, kind: leap_obs::OpClass, key: u64) -> leap_obs::SpanGuard<'_> {
        match &self.tracer {
            Some(t) => t.begin(kind, key, self.router.shard_of(key) as u32),
            None => leap_obs::SpanGuard::inactive(),
        }
    }

    /// Counts one stamped read re-planned because a routing change was
    /// published under it; `overlay` names the migration in the way (0
    /// when unknown) on the active trace span.
    fn note_stamp_retry(&self, overlay: u64) {
        if let Some(obs) = &self.obs {
            obs.stamp_retries.inc();
        }
        leap_obs::trace::note_stamp_retry(overlay);
    }

    /// Appends one event to the timeline when observability is on.
    #[inline]
    pub(crate) fn emit(&self, kind: leap_obs::EventKind) {
        if let Some(obs) = &self.obs {
            obs.events().push(kind);
        }
    }

    /// Records one op shed by the batcher's admission gate, with `queued`
    /// ops in flight through it, against the store's counter and timeline.
    pub(crate) fn note_shed(&self, queued: usize) {
        // ORDERING: monotonic stat counter; no publication rides on it.
        self.shed_ops.fetch_add(1, Ordering::Relaxed);
        self.emit(leap_obs::EventKind::Shed {
            ops: 1,
            queued: queued as u64,
        });
    }

    /// Times `f` into the `kind` histogram when observability is on.
    #[inline]
    fn timed<T>(&self, kind: OpKind, f: impl FnOnce() -> T) -> T {
        match &self.obs {
            Some(obs) => {
                let start = Instant::now();
                let r = f();
                obs.record_op(kind, start.elapsed().as_nanos() as u64);
                r
            }
            None => f(),
        }
    }

    /// The router (placement inspection: epochs, intervals, migrations).
    pub fn router(&self) -> &Router<ShardSlot<V>> {
        &self.router
    }

    /// Times `f` into the active leap-trace span's commit phase — the
    /// shard transaction(s) an op runs, retries included. One
    /// thread-local check when no span is active.
    #[inline]
    fn commit_phase<T>(f: impl FnOnce() -> T) -> T {
        if leap_obs::trace::in_span() {
            let start = Instant::now();
            let r = f();
            leap_obs::trace::note_commit_phase(start.elapsed().as_nanos() as u64);
            r
        } else {
            f()
        }
    }

    /// Number of shard slots (including any emptied by merges and not yet
    /// reused by splits).
    pub fn shards(&self) -> usize {
        self.router.shards()
    }

    /// Read access to one shard's Leap-List (diagnostics and tests).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of bounds.
    pub fn shard(&self, s: usize) -> Arc<LeapListLt<V>> {
        self.list(s)
    }

    /// The shared transactional domain.
    pub fn domain(&self) -> &Arc<StmDomain> {
        &self.domain
    }

    pub(crate) fn list(&self, s: usize) -> Arc<LeapListLt<V>> {
        self.router.pin().slots()[s].list.clone()
    }

    /// Allocates a shard slot for a split destination: reuses a slot a
    /// completed merge emptied, or publishes a view with one more slot.
    /// Returns the slot index.
    pub(crate) fn allocate_slot(&self) -> usize {
        if let Some(s) = self
            .free_slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
        {
            debug_assert!(self.list(s).is_empty(), "free slots must be drained");
            return s;
        }
        self.router.add_slot(ShardSlot::new(LeapListLt::with_domain(
            self.params.clone(),
            self.domain.clone(),
        )))
    }

    /// The per-slot op-rate signal for the rebalance policy: a decaying
    /// average (halved each census, then fed the new delta) of the
    /// operations each slot served since the previous census.
    pub(crate) fn op_rate_census(&self) -> Vec<f64> {
        let view = self.router.pin();
        let slots = view.slots();
        let mut census = self
            .op_census
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (last, ema) = &mut *census;
        last.resize(slots.len(), 0);
        ema.resize(slots.len(), 0.0);
        for (s, slot) in slots.iter().enumerate() {
            let total = slot.counters.snapshot(s, 0, true).total_ops();
            let delta = total.saturating_sub(last[s]);
            last[s] = total;
            ema[s] = ema[s] / 2.0 + delta as f64;
        }
        ema.clone()
    }

    /// Point lookup: pin, load the view, route, look the key up in the
    /// borrowed list. During a migration of the key's sub-range the lookup
    /// consults source-then-destination; a miss re-checks that no routing
    /// change was published mid-lookup (and retries if one was), so the
    /// result is always explained by some linearization.
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX`.
    pub fn get(&self, key: u64) -> Option<V> {
        // Timing every point get would dominate the op. Sample 1 in
        // `sample_period` per thread — and only a sampled get begins a
        // trace span (the span's own two `Instant` reads would otherwise
        // blow the overhead budget at point-get scale); the shared tick
        // already elected it, so the span is marked head-sampled directly.
        match &self.obs {
            Some(obs) if crate::obs::sample_get(self.sample_period) => {
                let start = Instant::now();
                let mut view = self.router.pin();
                let _span = match &self.tracer {
                    Some(t) => {
                        t.begin_elected(leap_obs::OpClass::Get, key, view.owner_of(key) as u32)
                    }
                    None => leap_obs::SpanGuard::inactive(),
                };
                let r = self.get_inner(&mut view, key);
                obs.record_op(OpKind::Get, start.elapsed().as_nanos() as u64);
                r
            }
            _ => self.get_inner(&mut self.router.pin(), key),
        }
    }

    fn get_inner(&self, view: &mut View<'_, V>, key: u64) -> Option<V> {
        loop {
            let slots = view.slots();
            let (res, overlay_id) = match view.overlay_for(key) {
                Some(m) => {
                    CounterRow::bump(&slots[m.src].counters.row().gets);
                    // Keys move atomically in one direction, src -> dst.
                    // Probing the source first means a miss there reads
                    // "absent or already moved", and the destination
                    // lookup happens after — so a present key is always
                    // found.
                    let res = slots[m.src]
                        .list
                        .lookup(key)
                        .or_else(|| slots[m.dst].list.lookup(key));
                    (res, m.id)
                }
                None => {
                    let slot = &slots[view.owner_of(key)];
                    CounterRow::bump(&slot.counters.row().gets);
                    (slot.list.lookup(key), 0)
                }
            };
            if res.is_some() || view.is_current() {
                return res;
            }
            self.note_stamp_retry(overlay_id);
            view.refresh();
        }
    }

    /// Inserts or updates `key -> value`; returns the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX`.
    pub fn put(&self, key: u64, value: V) -> Option<V> {
        let mut view = self.router.pin();
        let _span = self.span_keyed(leap_obs::OpClass::Put, key, &view);
        self.timed(OpKind::Put, || {
            self.write_key(&mut view, BatchOp::Update(key, value), false)
        })
    }

    /// Removes `key`; returns its value if present.
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX`.
    pub fn delete(&self, key: u64) -> Option<V> {
        let mut view = self.router.pin();
        let _span = self.span_keyed(leap_obs::OpClass::Delete, key, &view);
        self.timed(OpKind::Delete, || {
            self.write_key(&mut view, BatchOp::Remove(key), false)
        })
    }

    /// Enters the writer gate and re-loads `view` under it: until the
    /// returned guard drops no view can be published, so what the write
    /// routes by — table and overlay — stays exact for the whole op.
    fn enter_write(&self, view: &mut View<'_, V>) -> std::sync::RwLockReadGuard<'_, ()> {
        let gate = self.router.enter_write();
        view.refresh();
        gate
    }

    /// Runs the cross-list transaction `f` of a write that touches
    /// overlay `m`'s migration under its write lock — which the chunk
    /// mover also holds, so it cannot clobber this write with a stale
    /// value — noting lock wait/hold and commit time on the active trace
    /// span. The store's one acquisition site of that lock.
    fn under_overlay_lock<T>(m: &MigrationState, f: impl FnOnce() -> T) -> T {
        let traced = leap_obs::trace::in_span();
        let lock_requested = traced.then(Instant::now);
        let _l = m.write_lock.lock().unwrap_or_else(PoisonError::into_inner);
        let lock_acquired = traced.then(Instant::now);
        let r = Self::commit_phase(f);
        if let (Some(req), Some(acq)) = (lock_requested, lock_acquired) {
            leap_obs::trace::note_overlay_lock(
                m.id,
                acq.saturating_duration_since(req).as_nanos() as u64,
                acq.elapsed().as_nanos() as u64,
            );
        }
        r
    }

    /// The one single-key write, behind [`LeapStore::put`],
    /// [`LeapStore::delete`] and a one-op [`LeapStore::apply`]. A settled
    /// key's op moves straight into its shard's list. A migrating key's
    /// source copy is removed and its op applied on the destination in one
    /// cross-list transaction under the overlay lock, so the key has a
    /// single home from then on. The previous value is whichever list held
    /// the key (at most one does, by the migration invariant).
    ///
    /// Counts the op as its shard's `puts` or `deletes` (the source's,
    /// mid-migration), or, as a batch part (`part`), in `batch_parts` of
    /// every shard it touches, as the grouping path counts a batch.
    fn write_key(&self, view: &mut View<'_, V>, op: BatchOp<V>, part: bool) -> Option<V> {
        let key = Self::key_of(&op);
        assert!(key < u64::MAX, "key u64::MAX is reserved");
        let pick: fn(&CounterRow) -> &AtomicU64 = match (part, &op) {
            (true, _) => |r| &r.batch_parts,
            (false, BatchOp::Update(..)) => |r| &r.puts,
            (false, BatchOp::Remove(_)) => |r| &r.deletes,
        };
        let _w = self.enter_write(view);
        let slots = view.slots();
        match view.overlay_for(key) {
            None => {
                // No commit_phase here: a direct write is one transaction
                // with no lock around it, so the phase would re-measure
                // what the span total already says — two clock reads on
                // the hottest write path for nothing. The phase is timed
                // where it genuinely diverges: migrating writes, under
                // the overlay lock.
                let slot = &slots[view.owner_of(key)];
                CounterRow::bump(pick(slot.counters.row()));
                match op {
                    BatchOp::Update(k, v) => slot.list.update(k, v),
                    BatchOp::Remove(k) => slot.list.remove(k),
                }
            }
            Some(m) => {
                CounterRow::bump(pick(slots[m.src].counters.row()));
                if part {
                    CounterRow::bump(pick(slots[m.dst].counters.row()));
                }
                let (src, dst) = (&*slots[m.src].list, &*slots[m.dst].list);
                let mut res = Self::under_overlay_lock(m, || {
                    LeapListLt::apply_batch_grouped(&[src, dst], &[&[BatchOp::Remove(key)], &[op]])
                });
                // INVARIANT: each group above holds exactly one op, and
                // apply_batch_grouped returns one result per op.
                let dst_prev = res[1].pop().expect("one op in dst group");
                // INVARIANT: as above — one op, one result.
                let src_prev = res[0].pop().expect("one op in src group");
                src_prev.or(dst_prev)
            }
        }
    }

    /// Inserts all `(key, value)` pairs as **one linearizable action**
    /// across their shards; returns previous values in input order.
    ///
    /// # Panics
    ///
    /// Panics if any key is `u64::MAX`.
    pub fn multi_put(&self, entries: &[(u64, V)]) -> Vec<Option<V>> {
        let ops: Vec<BatchOp<V>> = entries
            .iter()
            .map(|(k, v)| BatchOp::Update(*k, v.clone()))
            .collect();
        self.apply(&ops)
    }

    /// Applies a mixed put/delete batch as one linearizable action;
    /// returns previous values in input order. Ops sharing a shard apply
    /// in input order within the single commit (so a batch may put and
    /// then delete the same key). Ops on migrating keys re-group onto the
    /// in-flight migration's source/destination pair, and the batch still
    /// commits as one transaction.
    ///
    /// # Panics
    ///
    /// Panics if any key is `u64::MAX`.
    pub fn apply(&self, ops: &[BatchOp<V>]) -> Vec<Option<V>> {
        let mut view = self.router.pin();
        let _span = self.span_keyed(
            leap_obs::OpClass::Apply,
            ops.first().map(Self::key_of).unwrap_or(0),
            &view,
        );
        self.timed(OpKind::Apply, || match ops {
            [] => Vec::new(),
            // A one-op batch is a single-key write: no grouping vectors.
            [op] => vec![self.write_key(&mut view, op.clone(), true)],
            _ => self.apply_inner(&mut view, ops),
        })
    }

    fn key_of(op: &BatchOp<V>) -> u64 {
        match op {
            BatchOp::Update(k, _) => *k,
            BatchOp::Remove(k) => *k,
        }
    }

    fn apply_inner(&self, view: &mut View<'_, V>, ops: &[BatchOp<V>]) -> Vec<Option<V>> {
        // Validate every key before touching any shard, so a documented
        // caller error cannot panic with part of the batch planned.
        for op in ops {
            assert!(Self::key_of(op) < u64::MAX, "key u64::MAX is reserved");
        }
        let _w = self.enter_write(view);
        let slots = view.slots();
        // Group ops per shard slot, preserving input order within each
        // group. A migrating key contributes a Remove to the overlay's
        // source group and its op to the destination group: the batch
        // stays one transaction, and the key's previous value is whichever
        // of the two groups saw it (exactly one can, by the migration
        // invariant).
        let mut groups: Vec<Vec<BatchOp<V>>> = vec![Vec::new(); slots.len()];
        // Where each op's previous value comes from:
        // (slot, index) plus, for migrating keys, the source-side remove.
        struct OpSource {
            slot: usize,
            idx: usize,
            src: Option<(usize, usize)>,
        }
        let mut sources: Vec<OpSource> = Vec::with_capacity(ops.len());
        for op in ops {
            let k = Self::key_of(op);
            if let Some(m) = view.overlay_for(k) {
                groups[m.src].push(BatchOp::Remove(k));
                let src = Some((m.src, groups[m.src].len() - 1));
                groups[m.dst].push(op.clone());
                sources.push(OpSource {
                    slot: m.dst,
                    idx: groups[m.dst].len() - 1,
                    src,
                });
            } else {
                let s = view.owner_of(k);
                groups[s].push(op.clone());
                sources.push(OpSource {
                    slot: s,
                    idx: groups[s].len() - 1,
                    src: None,
                });
            }
        }
        if groups.iter().any(|g| g.len() >= 2) {
            // ORDERING: monotonic stat counter; no publication rides on it.
            self.collision_batches.fetch_add(1, Ordering::Relaxed);
        }
        let mut lists: Vec<&LeapListLt<V>> = Vec::new();
        let mut shard_ops: Vec<&[BatchOp<V>]> = Vec::new();
        // results_of[slot] = index into `results` for that slot's group.
        let mut results_of: Vec<Option<usize>> = vec![None; slots.len()];
        for (s, g) in groups.iter().enumerate() {
            if !g.is_empty() {
                slots[s]
                    .counters
                    .row()
                    .batch_parts
                    // ORDERING: monotonic stat counter; no publication rides on it.
                    .fetch_add(g.len() as u64, Ordering::Relaxed);
                results_of[s] = Some(lists.len());
                lists.push(&slots[s].list);
                shard_ops.push(g);
            }
        }
        // One multi-list transaction over every touched shard, regardless
        // of key -> shard collisions. A batch that touches the migrating
        // range, or writes the overlay's destination directly
        // (conservatively), serializes against the chunk mover by taking
        // the overlay's write lock.
        let commit = || LeapListLt::apply_batch_grouped(&lists, &shard_ops);
        let results = match view
            .overlay()
            .filter(|m| sources.iter().any(|s| s.src.is_some() || s.slot == m.dst))
        {
            Some(m) => Self::under_overlay_lock(m, commit),
            None => commit(),
        };
        sources
            .iter()
            .map(|src| {
                // INVARIANT: every op source was assigned a group when
                // the plan was built; `results_of` mirrors that plan.
                let own_group = results_of[src.slot].expect("op slot has a group");
                let own = results[own_group][src.idx].clone();
                match src.src {
                    None => own,
                    Some((s, i)) => {
                        // INVARIANT: as above — the migration source
                        // slot was planned into a group too.
                        let g = results_of[s].expect("src slot has a group");
                        let removed = results[g][i].clone();
                        removed.or(own)
                    }
                }
            })
            .collect()
    }

    /// Runs `f` — typically one store op, `|| store.put(k, v)` — under a
    /// bounded retry budget: the stack's one bounded-retry entry point.
    /// Every failed transactional attempt inside `f` charges `policy`
    /// ([`leap_stm::with_retry_budget`]); once it is spent the op is
    /// abandoned with [`StoreError::Timeout`] instead of retrying
    /// forever. The timeout is counted on the domain and emitted as
    /// [`leap_obs::EventKind::TxnDeadline`], and the op's own trace span
    /// is retained with outcome `timeout`.
    ///
    /// The store is unchanged by the abandoned op: every aborted
    /// transaction rolled back, so a batch never applies a prefix. A
    /// [`LeapStore::get`] runs no transaction and never times out.
    ///
    /// # Errors
    ///
    /// [`StoreError::Timeout`] once `policy` is exhausted.
    ///
    /// # Example
    ///
    /// ```
    /// use leap_store::{LeapStore, Partitioning, RetryPolicy, StoreConfig};
    ///
    /// let store: LeapStore<u64> =
    ///     LeapStore::new(StoreConfig::new(2, Partitioning::Range).with_key_space(100));
    /// let policy = RetryPolicy::default().max_attempts(8);
    /// assert_eq!(store.bounded(policy, || store.put(7, 70)), Ok(None));
    /// assert_eq!(store.bounded(policy, || store.get(7)), Ok(Some(70)));
    /// ```
    pub fn bounded<R>(&self, policy: RetryPolicy, f: impl FnOnce() -> R) -> Result<R, StoreError> {
        leap_stm::with_retry_budget(policy, f).map_err(|t| {
            self.domain.record_timeout();
            self.emit(leap_obs::EventKind::TxnDeadline {
                attempts: t.attempts,
            });
            t.into()
        })
    }

    /// Linearizable cross-shard range query: all pairs with keys in
    /// `[lo, hi]`, ascending, from **one** consistent snapshot (one
    /// transaction spans every visited shard — including both sides of an
    /// in-flight migration).
    ///
    /// Returns an empty vector when `lo > hi`.
    ///
    /// # Panics
    ///
    /// Panics if `hi == u64::MAX`.
    pub fn range(&self, lo: u64, hi: u64) -> Vec<(u64, V)> {
        let mut view = self.router.pin();
        let _span = self.span_keyed(leap_obs::OpClass::Range, lo, &view);
        self.timed(OpKind::Range, || {
            self.read_page(&mut view, lo, hi, usize::MAX)
        })
    }

    /// One bounded page of `[lo, hi]`: the first at-most-`limit` pairs, in
    /// one linearizable transaction. The engine under [`LeapStore::scan_pages`].
    pub(crate) fn range_page_merged(&self, lo: u64, hi: u64, limit: usize) -> Vec<(u64, V)> {
        let mut view = self.router.pin();
        let _span = self.span_keyed(leap_obs::OpClass::ScanPage, lo, &view);
        self.timed(OpKind::ScanPage, || {
            self.read_page(&mut view, lo, hi, limit)
        })
    }

    /// The first at-most-`limit` pairs of `[lo, hi]` from one
    /// linearizable cross-shard transaction ([`LeapListLt::range_page_group`]);
    /// `usize::MAX` reads the whole range.
    fn read_page(&self, view: &mut View<'_, V>, lo: u64, hi: u64, limit: usize) -> Vec<(u64, V)> {
        if lo > hi {
            return Vec::new();
        }
        let (per_shard, _, sort) = self.planned(view, lo, hi, |lists, ranges| {
            LeapListLt::range_page_group(lists, ranges, limit)
        });
        // Each list returned its first `limit` pairs, so the globally
        // first `limit` pairs are all present in the merge.
        merge_page(per_shard.into_iter().flatten(), sort, limit)
    }

    /// Number of keys in `[lo, hi]` from one consistent cross-shard
    /// snapshot, with no value clones and no node buffering
    /// ([`LeapListLt::count_range_group`]).
    ///
    /// # Panics
    ///
    /// Panics if `hi == u64::MAX`.
    pub fn count_range(&self, lo: u64, hi: u64) -> usize {
        let mut view = self.router.pin();
        let _span = self.span_keyed(leap_obs::OpClass::Len, lo, &view);
        self.timed(OpKind::Len, || {
            if lo > hi {
                return 0;
            }
            let (counts, _, _) = self.planned(&mut view, lo, hi, LeapListLt::count_range_group);
            counts.iter().sum()
        })
    }

    /// The one re-plan loop of a multi-shard read of `[lo, hi]`: plans the
    /// lists to visit off `view` (the table's, plus both sides of the
    /// in-flight migration when it overlaps the range — bumping each
    /// visited shard's range counter), runs `read` over them, and re-plans
    /// until the view it planned against is still the published one
    /// afterwards, i.e. until the visited list set was exhaustive for the
    /// whole read. Returns the read's result, the plan it ran against and
    /// whether the merged result needs sorting.
    ///
    /// # Panics
    ///
    /// Panics if `hi == u64::MAX`.
    fn planned<T>(
        &self,
        view: &mut View<'_, V>,
        lo: u64,
        hi: u64,
        read: impl Fn(&[&LeapListLt<V>], &[(u64, u64)]) -> T,
    ) -> (T, Vec<(usize, u64, u64)>, bool) {
        assert!(hi < u64::MAX, "key u64::MAX is reserved");
        loop {
            let (plan, sort) = view.visit_plan(lo, hi);
            let slots = view.slots();
            let (lists, ranges): (Vec<&LeapListLt<V>>, Vec<(u64, u64)>) = plan
                .iter()
                .map(|&(s, l, h)| {
                    CounterRow::bump(&slots[s].counters.row().ranges);
                    (&*slots[s].list, (l, h))
                })
                .unzip();
            let out = read(&lists, &ranges);
            if view.is_current() {
                return (out, plan, sort);
            }
            self.note_stamp_retry(0);
            view.refresh();
        }
    }

    /// Pins a snapshot timestamp and captures the `[lo, hi]` visit plan
    /// that goes with it — the one-time setup behind
    /// [`LeapStore::scan_snapshot_pages`]. Every later page reads the captured
    /// lists at the pinned timestamp with **no** stamp checks: commits
    /// and migrations after the pin carry larger write versions and are
    /// invisible by construction.
    ///
    /// The stamp bracket here is the only race window: a migration
    /// overlapping `[lo, hi]` that begins and moves keys between the view
    /// load and the pin leaves a plan that routes the migrating range
    /// only to its source, while those moves — committed *before* the
    /// pinned timestamp — are visible only on the destination side. The
    /// pin is the read of [`LeapStore::planned`]'s loop, so it falls
    /// between the view load and the `is_current` re-check; a view still
    /// current after the pin proves no migration began or completed
    /// inside the bracket, which rules that out:
    ///
    /// * completed before the bracket — every move's wiring finished
    ///   before the pin, so the moved keys are visible in the destination
    ///   at the pinned timestamp, and the plan routes there;
    /// * in flight across the bracket — the plan carries both sides, and
    ///   each key is visible on exactly one of them at any timestamp
    ///   (moves are single cross-list commits);
    /// * begun after the bracket — its moves are newer than the pin, so
    ///   the source (still in the captured plan) shows every key.
    pub(crate) fn pinned_snapshot_plan(
        &self,
        lo: u64,
        hi: u64,
    ) -> (leaplist::ListSnapshot, VisitPlan<V>) {
        let mut view = self.router.pin();
        let (snap, plan, sort) = self.planned(&mut view, lo, hi, |_, _| {
            leaplist::ListSnapshot::pin(&self.domain)
        });
        // ORDERING: monotonic stat counter; no publication rides on it.
        self.snapshot_scans.fetch_add(1, Ordering::Relaxed);
        let slots = view.slots();
        let (lists, clips) = plan
            .into_iter()
            .map(|(s, l, h)| (slots[s].list.clone(), (l, h)))
            .unzip();
        (snap, (lists, clips, sort))
    }

    /// Times one snapshot page into the `snapshot_page` histogram (the
    /// cursor calls this; the plan and timestamp are already captured).
    pub(crate) fn timed_snapshot_page<T>(&self, f: impl FnOnce() -> T) -> T {
        let _span = self.span_routed(leap_obs::OpClass::ScanPage, 0);
        self.timed(OpKind::SnapshotPage, f)
    }

    /// Number of keys, from one consistent snapshot (routed through the
    /// count-only transactional walk — no value clones).
    pub fn len(&self) -> usize {
        self.count_range(0, u64::MAX - 1)
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-subspace load view for stores carving their keyspace into
    /// prefix-tagged subspaces ([`crate::Subspace`]): each entry reports
    /// the subspace's key count (one consistent snapshot per subspace)
    /// and the shard slots a scan of it visits under the current routing
    /// table — the signal for judging whether an index subspace has grown
    /// shard-heavy and is worth a targeted split.
    pub fn subspace_stats(&self, subspaces: &[crate::Subspace]) -> Vec<crate::SubspaceStats> {
        subspaces
            .iter()
            .map(|ss| crate::SubspaceStats {
                tag: ss.tag(),
                keys: self.count_range(ss.lo(), ss.hi()),
                shards: self.router.shards_for_subspace(ss),
            })
            .collect()
    }

    /// A point-in-time statistics snapshot: per-shard op counters and key
    /// counts, routing epoch and migration progress, plus the shared
    /// domain's commit/abort counters.
    pub fn stats(&self) -> StoreStats {
        let view = self.router.pin();
        let shards: Vec<ShardStats> = view
            .slots()
            .iter()
            .enumerate()
            .map(|(s, slot)| {
                let owned = view.table().interval_of(s).is_some();
                slot.counters.snapshot(s, slot.list.len() as u64, owned)
            })
            .collect();
        // ORDERING: monotonic stat counters; a snapshot only needs
        // eventually-consistent values.
        let ld = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        let completed = ld(&self.migrations_completed);
        StoreStats {
            shards,
            stm: self.domain.stats(),
            collision_batches: ld(&self.collision_batches),
            epoch: view.table().epoch,
            migration: view.migration_view(),
            // Every migration that began is in flight or completed.
            peak_concurrent_migrations: u64::from(view.overlay().is_some() || completed > 0),
            migrations_completed: completed,
            aborted_migrations: 0,
            shed_ops: ld(&self.shed_ops),
            snapshot_scans: ld(&self.snapshot_scans),
            bundle_depth: view
                .slots()
                .iter()
                .map(|slot| slot.list.max_bundle_depth())
                .max()
                .unwrap_or(1),
            obs: self.obs.as_ref().map(|o| o.snapshot()),
        }
    }
}

impl<V: Clone + Send + Sync + 'static> std::fmt::Debug for LeapStore<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Cheap per-shard length sum, NOT the exact transactional count:
        // debug-printing a large store must not walk a snapshot
        // transaction (which can retry under write contention).
        let approx_len: usize = self.router.pin().slots().iter().map(|s| s.list.len()).sum();
        f.debug_struct("LeapStore")
            .field("shards", &self.shards())
            .field("epoch", &self.router.epoch())
            .field("approx_len", &approx_len)
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn cfg(shards: usize) -> StoreConfig {
        StoreConfig::new(shards, Partitioning::Range)
            .with_key_space(1_000)
            .with_params(Params {
                node_size: 4,
                max_level: 6,
            })
            .with_rebalancing(RebalancePolicy {
                chunk: 8,
                ..RebalancePolicy::default()
            })
    }

    /// The two modes the `*_both_modes` tests run in: settled contiguous
    /// shards, and a split of shard 0 at `at` in flight. With more than a
    /// chunk of keys at or above `at` in shard 0, one chunk is moved, so
    /// those keys sit partly in the source and partly in the destination
    /// and a read across them must sort.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Layout {
        Settled,
        Migrating { at: u64 },
    }

    pub(crate) fn enter(store: &LeapStore<u64>, layout: Layout) {
        if let Layout::Migrating { at } = layout {
            store.split_shard(0, at).expect("valid split");
            if !store.is_empty() {
                // An empty range would drain and complete in one step.
                store.rebalance_step();
            }
            assert!(store.router().migration().is_some(), "split in flight");
        }
    }

    #[test]
    fn single_key_roundtrip_both_modes() {
        for mode in [Layout::Settled, Layout::Migrating { at: 5 }] {
            let store: LeapStore<u64> = LeapStore::new(cfg(4));
            enter(&store, mode);
            assert!(store.is_empty());
            assert_eq!(store.put(7, 70), None);
            assert_eq!(store.put(7, 71), Some(70));
            assert_eq!(store.get(7), Some(71));
            assert_eq!(store.delete(7), Some(71));
            assert_eq!(store.get(7), None);
            assert_eq!(store.delete(7), None);
        }
    }

    #[test]
    fn range_merges_across_shards_sorted() {
        for mode in [Layout::Settled, Layout::Migrating { at: 120 }] {
            let store: LeapStore<u64> = LeapStore::new(cfg(4));
            for k in (0..100u64).rev() {
                store.put(k * 10, k);
            }
            enter(&store, mode);
            let r = store.range(100, 200);
            assert_eq!(
                r,
                (10..=20).map(|k| (k * 10, k)).collect::<Vec<_>>(),
                "mode {mode:?}"
            );
            assert_eq!(store.range(5, 3), vec![]);
            assert_eq!(store.count_range(100, 200), 11);
            assert_eq!(store.len(), 100);
            assert_eq!(
                store.range(0, 999),
                (0..100u64).map(|k| (k * 10, k)).collect::<Vec<_>>(),
                "mode {mode:?}: every shard's keys, in order"
            );
        }
    }

    #[test]
    fn distinct_shard_batch_hits_each_shard_once() {
        let store: LeapStore<u64> = LeapStore::new(cfg(4));
        // key_space 1000 over 4 shards: strides of 250.
        let old = store.multi_put(&[(10, 1), (260, 2), (510, 3), (760, 4)]);
        assert_eq!(old, vec![None; 4]);
        assert_eq!(
            store.stats().collision_batches,
            0,
            "distinct shards → no collision"
        );
        let old = store.apply(&[
            BatchOp::Remove(10),
            BatchOp::Remove(260),
            BatchOp::Remove(999),
        ]);
        assert_eq!(old, vec![Some(1), Some(2), None]);
    }

    #[test]
    fn same_shard_collisions_commit_in_one_transaction_in_order() {
        let store: LeapStore<u64> = LeapStore::new(cfg(4));
        let commits_before = store.stats().stm.total_commits();
        // All four keys land in shard 0 (0..250).
        let old = store.multi_put(&[(1, 10), (2, 20), (1, 11), (3, 30)]);
        assert_eq!(old, vec![None, None, Some(10), None]);
        assert_eq!(store.get(1), Some(11), "later op on same key wins");
        assert_eq!(store.stats().collision_batches, 1);
        assert_eq!(
            store.stats().stm.total_commits(),
            commits_before + 1,
            "a collision batch is exactly one transaction, not rounds"
        );
        // Mixed put+delete of one key, in order: delete sees the put.
        let old = store.apply(&[BatchOp::Update(9, 90), BatchOp::Remove(9)]);
        assert_eq!(old, vec![None, Some(90)]);
        assert_eq!(store.get(9), None);
    }

    #[test]
    fn collision_batch_overflowing_one_node_still_lands_whole() {
        let store: LeapStore<u64> = LeapStore::new(cfg(4));
        // 20 keys in shard 0 with node_size 4: the chain rebuild must
        // split into several nodes inside one commit.
        let entries: Vec<(u64, u64)> = (0..20u64).map(|k| (k, k * 2)).collect();
        let old = store.multi_put(&entries);
        assert_eq!(old, vec![None; 20]);
        for k in 0..20u64 {
            assert_eq!(store.get(k), Some(k * 2));
        }
        assert_eq!(store.range(0, 999).len(), 20);
        for s in store.shard(0).node_sizes() {
            assert!(s <= 4, "chain rebuild exceeded K");
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let store: LeapStore<u64> = LeapStore::new(cfg(2));
        assert_eq!(store.multi_put(&[]), vec![]);
        assert_eq!(store.stats().collision_batches, 0);
    }

    #[test]
    fn stats_count_routed_ops() {
        let store: LeapStore<u64> = LeapStore::new(cfg(2));
        store.put(1, 1);
        store.put(600, 2);
        store.get(1);
        store.delete(600);
        store.range(0, 999);
        let st = store.stats();
        assert_eq!(st.shards.iter().map(|s| s.puts).sum::<u64>(), 2);
        assert_eq!(st.shards.iter().map(|s| s.gets).sum::<u64>(), 1);
        assert_eq!(st.shards.iter().map(|s| s.deletes).sum::<u64>(), 1);
        assert_eq!(st.shards.iter().map(|s| s.ranges).sum::<u64>(), 2);
        assert_eq!(st.shards.iter().map(|s| s.keys).sum::<u64>(), 1);
        assert!(st.shards.iter().all(|s| s.owned));
        assert_eq!(st.epoch, 0);
        assert!(st.migration.is_none());
        assert_eq!(st.peak_concurrent_migrations, 0);
        assert!(st.stm.total_commits() > 0, "ops commit through the domain");
        assert!(st.to_json().contains("\"stm\""));
    }

    #[test]
    fn subspace_stats_count_tagged_regions() {
        use crate::Subspace;
        let (a, b) = (Subspace::new(0), Subspace::new(1));
        let store: LeapStore<u64> = LeapStore::new(
            StoreConfig::new(4, Partitioning::Range).with_key_space(Subspace::key_space(2)),
        );
        // Two shards per subspace: the boundary halves the tagged region.
        for p in 0..10u64 {
            store.put(a.key(p), p);
        }
        for p in 0..4u64 {
            store.put(b.key(p), p);
        }
        let st = store.subspace_stats(&[a, b]);
        assert_eq!(st[0].tag, 0);
        assert_eq!(st[0].keys, 10);
        assert_eq!(st[1].keys, 4);
        assert_eq!(st[0].shards, vec![0, 1], "subspace 0 spans slots 0-1");
        assert_eq!(st[1].shards, vec![2, 3]);
        assert_eq!(store.router().shards_for_subspace(&a), vec![0, 1]);
        // Range over one subspace never leaks the neighbour's keys.
        let (lo, hi) = a.range(0, u64::MAX);
        assert_eq!(store.range(lo, hi).len(), 10);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn max_key_rejected_in_batches() {
        let store: LeapStore<u64> = LeapStore::new(cfg(2));
        store.multi_put(&[(u64::MAX, 1)]);
    }

    /// A value whose shared clone counter detonates on exactly the
    /// `fuse`-th clone (0 = never). Fuse 2 is calibrated to `apply` on a
    /// migrating key: clone 1 is the per-shard grouping, clone 2 the copy
    /// `apply_batch_grouped` takes into the lists — which runs *while the
    /// migration overlay's write lock is held*. At detonation the bomb
    /// records whether `lock` was held, so the test can check that it
    /// went off under the lock.
    #[derive(Debug)]
    struct StagedBomb {
        clones: Arc<AtomicU64>,
        fuse: u64,
        val: u64,
        lock: Option<Arc<MigrationState>>,
        fired_under_lock: Arc<std::sync::atomic::AtomicBool>,
    }
    impl StagedBomb {
        fn healthy(val: u64) -> Self {
            StagedBomb {
                clones: Arc::new(AtomicU64::new(0)),
                fuse: 0,
                val,
                lock: None,
                fired_under_lock: Arc::default(),
            }
        }
    }
    impl Clone for StagedBomb {
        fn clone(&self) -> Self {
            let n = self.clones.fetch_add(1, Ordering::Relaxed) + 1;
            if self.fuse != 0 && n == self.fuse {
                // `try_lock` on a mutex this thread holds reports
                // `WouldBlock`; it never deadlocks.
                let held = self
                    .lock
                    .as_ref()
                    .is_some_and(|m| m.write_lock.try_lock().is_err());
                self.fired_under_lock.store(held, Ordering::Relaxed);
                panic!("staged bomb detonated on clone {n}");
            }
            StagedBomb {
                clones: self.clones.clone(),
                fuse: self.fuse,
                val: self.val,
                lock: self.lock.clone(),
                fired_under_lock: self.fired_under_lock.clone(),
            }
        }
    }

    /// A clone that panics inside `apply` while the batch holds the
    /// migration overlay's write lock must release the lock on unwind,
    /// land no op of the batch, and leave the migration completable.
    #[test]
    fn panicking_clone_mid_migration_releases_the_overlay_lock() {
        use crate::rebalance::RebalanceAction;
        let store = Arc::new(LeapStore::<StagedBomb>::new(
            StoreConfig::new(2, Partitioning::Range)
                .with_key_space(1_000)
                .with_rebalancing(RebalancePolicy {
                    chunk: 8,
                    ..RebalancePolicy::default()
                }),
        ));
        for k in 0..40u64 {
            store.put(k, StagedBomb::healthy(k));
        }
        // Split [20, 499] away and move one chunk: the migration is live,
        // its overlay routes in-range writes.
        store.split_shard(0, 20).expect("valid split");
        assert!(matches!(
            store.rebalance_step(),
            RebalanceAction::Moved { .. }
        ));
        let overlay = store.router.pin().overlay().cloned();
        assert!(overlay.is_some(), "the split is in flight");
        // Both ops target migrating keys: `apply` takes the overlay write
        // lock, then the bomb detonates on the clone into the lists.
        let bomb = StagedBomb {
            fuse: 2,
            lock: overlay,
            ..StagedBomb::healthy(300)
        };
        let fired = bomb.fired_under_lock.clone();
        let panicked = {
            let store = store.clone();
            std::thread::spawn(move || {
                store.apply(&[
                    BatchOp::Update(25, StagedBomb::healthy(250)),
                    BatchOp::Update(30, bomb),
                ])
            })
            .join()
        };
        assert!(panicked.is_err(), "the armed clone must panic the apply");
        assert!(
            fired.load(Ordering::Relaxed),
            "the bomb went off under the overlay lock"
        );
        // The overlay write lock was released on unwind: in-range ops
        // proceed, from this thread, without deadlock.
        let prev = store.put(25, StagedBomb::healthy(251));
        assert_eq!(prev.map(|v| v.val), Some(25), "the batch never landed");
        assert_eq!(store.get(25).map(|v| v.val), Some(251));
        assert_eq!(store.get(30).map(|v| v.val), Some(30), "bomb never landed");
        // The migration itself is still healthy and completes.
        store.rebalance_until_idle();
        assert!(store.router().migration().is_none());
        assert!(store.router().epoch() >= 1);
        for k in 0..40u64 {
            let want = if k == 25 { 251 } else { k };
            assert_eq!(store.get(k).map(|v| v.val), Some(want), "key {k}");
        }
    }

    #[test]
    fn bounded_times_out_every_retrying_op_and_leaves_the_store_unchanged() {
        let store: LeapStore<u64> = LeapStore::new(cfg(2));
        // key_space 1000 over 2 shards: [0, 500) and [500, 1000).
        for k in 0..20u64 {
            store.put(k * 50, k);
        }
        let contents = store.range(0, 999);
        // Arm the faults after the load: from here every commit fails
        // until five ops' worth of three attempts each are spent.
        let faults = Arc::new(FaultInjector::new(
            FaultPlan::new(1)
                .always(FaultPoint::StmCommit)
                .with_budget(FaultPoint::StmCommit, 15),
        ));
        let hook = faults.clone();
        assert!(store.domain.set_fault_hook(Arc::new(move |point| {
            point == StmFaultPoint::Commit && hook.should_fire(FaultPoint::StmCommit)
        })));
        let policy = RetryPolicy::default().max_attempts(3);
        let cross_shard = [BatchOp::Update(1, 9), BatchOp::Remove(600)];
        fn timed_out<R>(r: Result<R, StoreError>) -> bool {
            r.err() == Some(StoreError::Timeout { attempts: 3 })
        }

        assert!(timed_out(store.bounded(policy, || store.put(1, 9))));
        assert!(timed_out(store.bounded(policy, || store.delete(50))));
        assert!(timed_out(
            store.bounded(policy, || store.apply(&cross_shard))
        ));
        assert!(timed_out(store.bounded(policy, || store.range(0, 999))));
        assert!(timed_out(
            store.bounded(policy, || store.count_range(0, 999))
        ));
        // A get runs no transaction, so it cannot time out.
        assert_eq!(store.bounded(policy, || store.get(50)), Ok(Some(1)));
        assert_eq!(faults.fires(FaultPoint::StmCommit), 15);
        assert_eq!(store.stats().stm.timeouts, 5);
        assert_eq!(
            store.range(0, 999),
            contents,
            "a timed-out op wrote nothing"
        );

        // The fault budget is spent: the same ops now commit.
        assert_eq!(store.bounded(policy, || store.put(1, 9)), Ok(None));
        assert_eq!(store.bounded(policy, || store.delete(50)), Ok(Some(1)));
        assert_eq!(
            store.bounded(policy, || store.apply(&cross_shard)),
            Ok(vec![Some(9), Some(12)])
        );
        assert_eq!(store.bounded(policy, || store.count_range(0, 999)), Ok(19));
        assert_eq!(
            store.bounded(policy, || store.range(0, 99)),
            Ok(vec![(0, 0), (1, 9)])
        );
        assert_eq!(store.stats().stm.timeouts, 5);
    }

    /// Without an explicit key space (`u64::MAX`), small keys all start
    /// in shard 0; the rebalancer then spreads them.
    #[test]
    fn default_key_space_starts_in_shard_0_until_rebalanced() {
        let store: LeapStore<u64> = LeapStore::new(StoreConfig::default());
        for k in 0..1_000u64 {
            store.put(k, k);
        }
        let keys = |st: &StoreStats| -> Vec<u64> { st.shards.iter().map(|s| s.keys).collect() };
        let before = keys(&store.stats());
        assert_eq!(before[0], 1_000, "{before:?}");
        assert_eq!(before.iter().sum::<u64>(), 1_000);
        store.rebalance_until_idle();
        let after = keys(&store.stats());
        assert!(
            after.iter().filter(|&&n| n > 0).count() >= 2,
            "the rebalancer split shard 0: {after:?}"
        );
        for k in 0..1_000u64 {
            assert_eq!(store.get(k), Some(k), "key {k}");
        }
    }
}
