//! The batching front-end: a flat-combining funnel that coalesces
//! independent single-key operations arriving on many worker threads into
//! grouped [`LeapStore::apply`] calls, so `k` concurrent puts cost one
//! multi-list transaction instead of `k` — and, with the multi-op chain
//! rebuild underneath, even `k` puts to the *same* shard form one
//! transaction.
//!
//! Under lock contention the combiner lock itself creates batches (ops
//! pile up behind the holder). On hosts with few cores, threads interleave
//! instead of contending, so the combiner additionally waits an **adaptive
//! window** before draining: the window doubles whenever waiting actually
//! coalesced ops and halves toward zero when the combiner found itself
//! alone, so an idle caller never pays latency for company that is not
//! coming.
//!
//! The window is additionally **latency-aware**: the combiner times every
//! drain, and a coalesced drain only doubles the window when its latency
//! did not degrade against the previous drain's — batching that makes the
//! underlying transactions slower (e.g. chain rebuilds colliding on one
//! node) stops growing instead of compounding. Each drain's latency is
//! published in its `batcher_drain` timeline event (`drain_ns`), and its
//! grouped apply is one sample of the store's `apply` latency histogram.

use crate::error::StoreError;
use crate::store::LeapStore;
use leap_fault::FaultPoint;
use leap_obs::EventKind;
use leaplist::BatchOp;
use std::any::Any;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

/// Smallest non-zero combining window.
const WINDOW_BASE_NS: u64 = 1_000;
/// Largest combining window (well under any op's transaction cost at
/// contention levels that reach it).
const WINDOW_MAX_NS: u64 = 20_000;
/// Queue population at which the combiner stops waiting and drains.
const COALESCE_CAP: usize = 8;

/// Next combining window: double (from at least the base) whenever the
/// drain actually coalesced **and** did not run slower than the previous
/// drain (25% tolerance — waiting longer to build batches that commit
/// slower is a loss on both axes); hold when coalescing degraded latency;
/// decay toward zero when the combiner was alone.
fn next_window(cur: u64, batch: usize, drain_ns: u64, prev_drain_ns: u64) -> u64 {
    if batch < 2 {
        return cur / 2;
    }
    let degraded = prev_drain_ns > 0 && drain_ns > prev_drain_ns.saturating_add(prev_drain_ns / 4);
    if degraded {
        cur
    } else {
        cur.saturating_mul(2).clamp(WINDOW_BASE_NS, WINDOW_MAX_NS)
    }
}

/// Panic payload re-raised to the submitter of an op that poisoned a
/// combined batch (its `V: Clone` panicked while the combiner probed it):
/// carries the op's index within the combined batch plus the original
/// panic payload, so the owner knows exactly which op died — and every
/// other op in the batch proceeds unharmed.
pub struct PoisonedOp {
    /// The op's position in the combined batch that the combiner drained.
    pub index: usize,
    /// The original panic payload from the poisoned clone.
    pub payload: Box<dyn Any + Send>,
}

impl std::fmt::Debug for PoisonedOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoisonedOp")
            .field("index", &self.index)
            .finish_non_exhaustive()
    }
}

/// How a combined op ended.
enum Outcome<V> {
    /// The grouped `apply` committed; this is the op's previous value.
    Done(Option<V>),
    /// This op's value poisoned the batch probe; the rest of the batch
    /// ran without it. The owner re-raises with the op's batch index.
    Poisoned(PoisonedOp),
    /// The combiner panicked mid-`apply` (after the probe): the op's fate
    /// is unknown, so the waiting submitter re-raises.
    Aborted,
    /// An injected drain fault dropped the whole batch before any apply:
    /// the op was never attempted and the owner reports
    /// [`StoreError::Overloaded`].
    Shed {
        /// Queue population observed when the drain was shed.
        queued: usize,
    },
}

/// One submitted op's result slot, filled by whichever thread combines it.
struct Slot<V> {
    result: Mutex<Option<Outcome<V>>>,
    /// Leap-trace phase breakdown (ns), written by the combiner before it
    /// settles the outcome: time queued, time combining (probe), time in
    /// the grouped apply. The result mutex orders these relaxed writes
    /// for the waiter reading them back.
    queue_ns: AtomicU64,
    combine_ns: AtomicU64,
    commit_ns: AtomicU64,
}

impl<V> Slot<V> {
    fn empty() -> Self {
        Slot {
            result: Mutex::new(None),
            queue_ns: AtomicU64::new(0),
            combine_ns: AtomicU64::new(0),
            commit_ns: AtomicU64::new(0),
        }
    }
}

struct Pending<V> {
    op: BatchOp<V>,
    slot: Arc<Slot<V>>,
    /// When the op entered the queue — the start of its queue-wait phase.
    enqueued: Instant,
}

/// Locks a slot, recovering from poison (a panicking peer must not wedge
/// the batcher for everyone else).
fn lock_slot<V>(slot: &Slot<V>) -> std::sync::MutexGuard<'_, Option<Outcome<V>>> {
    slot.result
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Point-in-time counters for a [`Batcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatcherStats {
    /// Combined `apply` calls issued.
    pub batches: u64,
    /// Operations carried by those calls.
    pub ops: u64,
    /// Largest single combined batch.
    pub max_batch: u64,
    /// Current adaptive combining window in nanoseconds (0 = drain
    /// immediately).
    pub window_ns: u64,
    /// Operations shed — refused at the admission gate or dropped by an
    /// injected drain fault. Every shed op surfaced a typed
    /// [`StoreError::Overloaded`] to its submitter.
    pub shed: u64,
}

impl BatcherStats {
    /// Mean ops per combined call (1.0 means no coalescing happened).
    pub fn avg_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.ops as f64 / self.batches as f64
        }
    }
}

/// A flat-combining batcher over a shared [`LeapStore`].
///
/// Threads call [`Batcher::put`] / [`Batcher::delete`] as if they were the
/// store's own methods; internally each call enqueues the op and then
/// either *combines* (drains every queued op into one grouped
/// [`LeapStore::apply`]) or finds its op already combined by another
/// thread. Under contention this turns `k` single-key transactions into
/// one `k`-op transaction — the multi-list composite the paper builds,
/// including several ops per shard.
///
/// # Example
///
/// ```
/// use leap_store::{Batcher, LeapStore, StoreConfig};
/// use std::sync::Arc;
///
/// let store = Arc::new(LeapStore::<u64>::new(StoreConfig::default()));
/// let batcher = Batcher::new(store.clone());
/// assert_eq!(batcher.put(5, 50), None);
/// assert_eq!(batcher.put(5, 51), Some(50));
/// assert_eq!(batcher.delete(5), Some(51));
/// assert!(batcher.stats().batches >= 3);
/// ```
pub struct Batcher<V> {
    store: Arc<LeapStore<V>>,
    queue: Mutex<Vec<Pending<V>>>,
    /// Approximate queue population, readable without the queue lock (the
    /// adaptive wait polls it).
    queue_len: AtomicUsize,
    /// Admission bound: ops arriving while `queue_len` is at this depth
    /// are refused with [`StoreError::Overloaded`] instead of enqueued
    /// (`usize::MAX` = unbounded, the default).
    max_depth: usize,
    /// How long a submitter waits for the combiner lock before declaring
    /// it wedged and withdrawing its op (`None` = wait forever, the
    /// default).
    wedge_timeout: Option<Duration>,
    /// Ops shed (admission refusals plus injected drain drops).
    shed: AtomicU64,
    combiner: Mutex<()>,
    window_ns: AtomicU64,
    batches: AtomicU64,
    ops: AtomicU64,
    max_batch: AtomicU64,
    /// Latency of the most recent drain (the doubling guard's baseline).
    prev_drain_ns: AtomicU64,
}

impl<V: Clone + Send + Sync + 'static> Batcher<V> {
    /// Creates a batcher front-end for `store`.
    pub fn new(store: Arc<LeapStore<V>>) -> Self {
        Batcher {
            store,
            queue: Mutex::new(Vec::new()),
            queue_len: AtomicUsize::new(0),
            max_depth: usize::MAX,
            wedge_timeout: None,
            shed: AtomicU64::new(0),
            combiner: Mutex::new(()),
            window_ns: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            prev_drain_ns: AtomicU64::new(0),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<LeapStore<V>> {
        &self.store
    }

    /// Caps the admission queue at `max_depth` queued ops (clamped to at
    /// least 1): an op arriving at a full queue is refused with
    /// [`StoreError::Overloaded`] — shed at the door, never a silent
    /// block behind a backlog that is not draining. Default: unbounded.
    pub fn with_admission(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth.max(1);
        self
    }

    /// Bounds how long a submitter waits for the combiner lock before
    /// declaring the combiner wedged: past `timeout`, an op still in the
    /// queue (not yet claimed by any combiner) is withdrawn and the
    /// caller gets [`StoreError::CombinerWedged`]. An op a combiner has
    /// already claimed is waited out — its fate is the batch's. Default:
    /// wait forever.
    pub fn with_wedge_timeout(mut self, timeout: Duration) -> Self {
        self.wedge_timeout = Some(timeout);
        self
    }

    /// Inserts or updates `key -> value` (possibly batched with other
    /// threads' ops); returns the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX`, with a [`PoisonedOp`] payload if
    /// this op's `V: Clone` panicked inside a combined batch, or on
    /// admission refusal / combiner wedge when the batcher was built
    /// with [`Batcher::with_admission`] / [`Batcher::with_wedge_timeout`]
    /// (use [`Batcher::try_put`] to handle degradation as a value).
    pub fn put(&self, key: u64, value: V) -> Option<V> {
        self.try_put(key, value)
            // INVARIANT: documented panic — degradation surfaces here by
            // contract; `try_put` is the non-panicking form.
            .unwrap_or_else(|e| panic!("batcher op refused: {e}; use try_put to handle this"))
    }

    /// Removes `key` (possibly batched); returns its value if present.
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX`; see [`Batcher::put`] for the
    /// degradation panics.
    pub fn delete(&self, key: u64) -> Option<V> {
        self.try_delete(key)
            // INVARIANT: documented panic — degradation surfaces here by
            // contract; `try_delete` is the non-panicking form.
            .unwrap_or_else(|e| panic!("batcher op refused: {e}; use try_delete to handle this"))
    }

    /// [`Batcher::put`] with graceful degradation: admission refusals,
    /// injected drain sheds and combiner wedges come back as typed
    /// errors instead of panics.
    ///
    /// # Errors
    ///
    /// [`StoreError::Overloaded`] when the queue is at its admission
    /// bound (or an injected fault shed the drain);
    /// [`StoreError::CombinerWedged`] when the combiner lock stayed held
    /// past the configured wedge timeout.
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX` (caller error, not degradation).
    pub fn try_put(&self, key: u64, value: V) -> Result<Option<V>, StoreError> {
        self.try_submit(BatchOp::Update(key, value))
    }

    /// [`Batcher::delete`] with graceful degradation; see
    /// [`Batcher::try_put`].
    ///
    /// # Errors
    ///
    /// As [`Batcher::try_put`].
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX`.
    pub fn try_delete(&self, key: u64) -> Result<Option<V>, StoreError> {
        self.try_submit(BatchOp::Remove(key))
    }

    /// Coalescing counters.
    pub fn stats(&self) -> BatcherStats {
        // ORDERING: monotonic stat counters (window_ns is a tuning knob);
        // readers only need eventually-consistent values.
        let ld = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        BatcherStats {
            batches: ld(&self.batches),
            ops: ld(&self.ops),
            max_batch: ld(&self.max_batch),
            window_ns: ld(&self.window_ns),
            shed: ld(&self.shed),
        }
    }

    /// Turns a filled outcome into the submitter's result — previous
    /// value, typed shed error, or the re-raised poison/abort panic.
    fn settle(&self, outcome: Outcome<V>) -> Result<Option<V>, StoreError> {
        match outcome {
            Outcome::Done(r) => Ok(r),
            Outcome::Shed { queued } => {
                leap_obs::trace::note_outcome(leap_obs::OpOutcome::Overloaded);
                Err(StoreError::Overloaded { queued })
            }
            Outcome::Poisoned(p) => {
                leap_obs::trace::note_outcome(leap_obs::OpOutcome::Poisoned);
                std::panic::panic_any(p)
            }
            Outcome::Aborted => {
                leap_obs::trace::note_outcome(leap_obs::OpOutcome::Aborted);
                // INVARIANT: documented panic propagation — the combiner
                // aborted under us and re-raised; we cannot report a result.
                panic!("a combining peer panicked mid-batch; this op's fate is unknown")
            }
        }
    }

    /// Acquires the combiner lock bounded by `timeout`: `Ok(Some(guard))`
    /// on acquisition; `Ok(None)` when a combiner settled our slot while
    /// we waited (no lock needed); `Err(CombinerWedged)` once the
    /// deadline passes with the op still **unclaimed** in the queue —
    /// the op is withdrawn under the queue lock first, so no later
    /// combiner can apply it after the caller gave up. An op a combiner
    /// already claimed is waited out: its slot will be filled, and
    /// withdrawing would race the in-flight drain.
    fn acquire_combiner_within(
        &self,
        slot: &Arc<Slot<V>>,
        timeout: Duration,
    ) -> Result<Option<MutexGuard<'_, ()>>, StoreError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.combiner.try_lock() {
                Ok(g) => return Ok(Some(g)),
                Err(TryLockError::Poisoned(p)) => return Ok(Some(p.into_inner())),
                Err(TryLockError::WouldBlock) => {}
            }
            if lock_slot(slot).is_some() {
                return Ok(None);
            }
            if Instant::now() >= deadline {
                let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
                if let Some(pos) = q.iter().position(|p| Arc::ptr_eq(&p.slot, slot)) {
                    q.remove(pos);
                    drop(q);
                    // ORDERING: approximate depth counter for admission only.
                    self.queue_len.fetch_sub(1, Ordering::Relaxed);
                    // ORDERING: monotonic stat counter; no publication rides on it.
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    leap_obs::trace::note_outcome(leap_obs::OpOutcome::Wedged);
                    return Err(StoreError::CombinerWedged);
                }
            }
            std::thread::yield_now();
        }
    }

    fn try_submit(&self, op: BatchOp<V>) -> Result<Option<V>, StoreError> {
        // Validate before enqueueing: a documented caller error must panic
        // here, in the caller's frame, not inside a combiner that is
        // carrying other threads' ops (whose slots would never be filled).
        let key = match &op {
            BatchOp::Update(k, _) => *k,
            BatchOp::Remove(k) => *k,
        };
        assert!(key < u64::MAX, "key u64::MAX is reserved");
        // The whole submission is one traced op: queue wait, combining and
        // the grouped apply all land in this span's phase breakdown (the
        // combiner's inner `store.apply` begin is nested, hence inert).
        // No view is loaded here (the combiner's apply loads one later,
        // possibly on another thread), so the label routes on its own.
        let _span = self.store.span_routed(leap_obs::OpClass::Batch, key);
        // Admission control: a full queue refuses the op at the door —
        // the caller learns *now* that the batcher is not keeping up,
        // instead of blocking behind a backlog that is not draining.
        // ORDERING: admission is advisory — a slightly stale depth only
        // shifts the refusal point by a few ops.
        let queued = self.queue_len.load(Ordering::Relaxed);
        if queued >= self.max_depth {
            // ORDERING: monotonic stat counter; no publication rides on it.
            self.shed.fetch_add(1, Ordering::Relaxed);
            self.store.note_shed(1, queued);
            leap_obs::trace::note_outcome(leap_obs::OpOutcome::Overloaded);
            return Err(StoreError::Overloaded { queued });
        }
        let slot = Arc::new(Slot::empty());
        {
            let mut queue = self
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // Counted under the queue lock, before the push: a combiner
            // (which drains under the same lock) must never subtract an
            // op before it was added — the depth would wrap to
            // `usize::MAX` and refuse a bystander's op.
            // ORDERING: approximate depth counter for admission only.
            self.queue_len.fetch_add(1, Ordering::Relaxed);
            queue.push(Pending {
                op,
                slot: slot.clone(),
                enqueued: Instant::now(),
            });
        }
        // While another thread holds the combiner lock it is (or soon will
        // be) draining the queue — ops pile up behind it and the next
        // holder combines them all. Blocking here is the coalescing (bounded
        // by the wedge timeout when one is configured).
        let guard = match self.wedge_timeout {
            None => Some(
                self.combiner
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            ),
            Some(t) => self.acquire_combiner_within(&slot, t)?,
        };
        if let Some(outcome) = lock_slot(&slot).take() {
            // A combiner carried our op; it wrote the phase breakdown into
            // the slot before settling (the mutex above orders the reads).
            leap_obs::trace::note_batch_phases(
                // ORDERING: the slot-mutex acquire above ordered this write.
                slot.queue_ns.load(Ordering::Relaxed),
                // ORDERING: as above — ordered by the slot mutex.
                slot.combine_ns.load(Ordering::Relaxed),
                // ORDERING: as above — ordered by the slot mutex.
                slot.commit_ns.load(Ordering::Relaxed),
            );
            return self.settle(outcome);
        }
        // INVARIANT: a `None` guard means a combiner settled our slot, and
        // we just observed the slot empty under its mutex.
        let _c = guard.expect("unfilled slot implies the combiner lock is held");
        // Wait-a-little: when recent drains coalesced, give stragglers a
        // moment to enqueue before draining (see the module docs). The
        // wait yields rather than pure-spins: on the few-core hosts this
        // window exists for, the stragglers need this CPU to enqueue at
        // all.
        // ORDERING: tuning knob owned by the combiner lock we hold.
        let window = self.window_ns.load(Ordering::Relaxed);
        if window > 0 {
            let deadline = Instant::now() + Duration::from_nanos(window);
            // ORDERING: approximate depth probe; stragglers we miss are
            // simply carried by the next drain.
            while self.queue_len.load(Ordering::Relaxed) < COALESCE_CAP && Instant::now() < deadline
            {
                std::thread::yield_now();
            }
        }
        let drained: Vec<Pending<V>> = {
            let mut q = self
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::take(&mut *q)
        };
        debug_assert!(!drained.is_empty(), "our own op must still be queued");
        // ORDERING: approximate depth counter for admission only.
        self.queue_len.fetch_sub(drained.len(), Ordering::Relaxed);
        let drain_size = drained.len();
        // Every drained op's queue-wait phase ends here.
        let pickup = Instant::now();
        // Injected drain fault: the whole batch is dropped before any
        // apply — but never silently. Every carried peer's slot gets a
        // typed Shed outcome and our own op reports Overloaded, so each
        // submitter knows its op did not run.
        if let Some(f) = self.store.faults() {
            if f.should_fire(FaultPoint::BatcherDrain) {
                // ORDERING: diagnostic depth for the error payload.
                let queued = self.queue_len.load(Ordering::Relaxed);
                self.store.note_shed(drain_size as u64, queued);
                // ORDERING: monotonic stat counter; no publication rides on it.
                self.shed.fetch_add(drain_size as u64, Ordering::Relaxed);
                for p in &drained {
                    if !Arc::ptr_eq(&p.slot, &slot) {
                        p.slot.queue_ns.store(
                            pickup.saturating_duration_since(p.enqueued).as_nanos() as u64,
                            // ORDERING: the slot mutex below publishes it.
                            Ordering::Relaxed,
                        );
                        *lock_slot(&p.slot) = Some(Outcome::Shed { queued });
                    }
                }
                // No apply ran, so there is no latency signal; decay the
                // window as if the combiner were alone.
                // ORDERING: tuning knob owned by the combiner lock we hold.
                let window = self.window_ns.load(Ordering::Relaxed);
                self.window_ns
                    // ORDERING: as above — combiner-lock owned.
                    .store(next_window(window, 1, 0, 0), Ordering::Relaxed);
                leap_obs::trace::note_outcome(leap_obs::OpOutcome::Overloaded);
                return Err(StoreError::Overloaded { queued });
            }
        }
        // Probe every op's clone before combining a multi-op batch: a
        // panicking `V::Clone` (the only way `apply` can panic pre-commit
        // after up-front key validation) is caught here with its batch
        // index, poisons only its own slot, and the rest of the batch
        // proceeds without it. Solo drains skip the probe — the combiner
        // IS the submitter, so a panicking clone inside `apply` already
        // unwinds to the right thread with no peers to protect.
        let probe = drained.len() > 1;
        let mut ops: Vec<BatchOp<V>> = Vec::with_capacity(drained.len());
        let mut slots: Vec<Arc<Slot<V>>> = Vec::with_capacity(drained.len());
        let mut enqueues: Vec<Instant> = Vec::with_capacity(drained.len());
        let mut own_poison: Option<PoisonedOp> = None;
        for (index, p) in drained.into_iter().enumerate() {
            let poisoned = probe
                && std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.op.clone()))
                    .map_err(|payload| {
                        self.store.emit(EventKind::PoisonedOp {
                            index: index as u64,
                        });
                        let poisoned = PoisonedOp { index, payload };
                        if Arc::ptr_eq(&p.slot, &slot) {
                            own_poison = Some(poisoned);
                        } else {
                            *lock_slot(&p.slot) = Some(Outcome::Poisoned(poisoned));
                        }
                    })
                    .is_err();
            if !poisoned {
                ops.push(p.op);
                slots.push(p.slot);
                enqueues.push(p.enqueued);
            }
        }
        let mut own = None;
        if !ops.is_empty() {
            // If apply still panics (e.g. a clone that fails only on its
            // second call), tell every carried peer before re-raising, so
            // none of them waits on a slot that will never be filled.
            let drain_started = Instant::now();
            let results =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.store.apply(&ops)))
                    .unwrap_or_else(|payload| {
                        for p in &slots {
                            *lock_slot(p) = Some(Outcome::Aborted);
                        }
                        std::panic::resume_unwind(payload);
                    });
            // Latency-aware window adaptation: a coalesced drain that ran
            // slower than the previous one holds the window instead of
            // doubling it (see `next_window`).
            let drain_ns = drain_started.elapsed().as_nanos() as u64;
            // ORDERING: baseline handed over under the combiner lock.
            let prev_ns = self.prev_drain_ns.load(Ordering::Relaxed);
            self.window_ns.store(
                next_window(window, drain_size, drain_ns, prev_ns),
                // ORDERING: tuning knob owned by the combiner lock we hold.
                Ordering::Relaxed,
            );
            // ORDERING: read only by the next combiner; the combiner mutex
            // orders the hand-off.
            self.prev_drain_ns.store(drain_ns, Ordering::Relaxed);
            self.store.emit(EventKind::BatcherDrain {
                ops: ops.len() as u64,
                drain_ns,
                window_ns: window,
            });
            // ORDERING: monotonic stat counter; no publication rides on it.
            self.batches.fetch_add(1, Ordering::Relaxed);
            // ORDERING: monotonic stat counter; no publication rides on it.
            self.ops.fetch_add(ops.len() as u64, Ordering::Relaxed);
            self.max_batch
                // ORDERING: eventual high-water mark; readers tolerate lag.
                .fetch_max(ops.len() as u64, Ordering::Relaxed);
            // Phase breakdown shared by every op in the batch: combine is
            // the probe (pickup -> apply), commit is the grouped apply;
            // queue wait is per-op. Peers get theirs via the slot, our own
            // op annotates the open span directly.
            let combine_ns = drain_started.saturating_duration_since(pickup).as_nanos() as u64;
            for ((p, r), enq) in slots.into_iter().zip(results).zip(enqueues) {
                let queue_ns = pickup.saturating_duration_since(enq).as_nanos() as u64;
                if Arc::ptr_eq(&p, &slot) {
                    leap_obs::trace::note_batch_phases(queue_ns, combine_ns, drain_ns);
                    own = Some(r);
                } else {
                    // ORDERING: the slot mutex below publishes this write.
                    p.queue_ns.store(queue_ns, Ordering::Relaxed);
                    // ORDERING: as above — published by the slot mutex.
                    p.combine_ns.store(combine_ns, Ordering::Relaxed);
                    // ORDERING: as above — published by the slot mutex.
                    p.commit_ns.store(drain_ns, Ordering::Relaxed);
                    *lock_slot(&p) = Some(Outcome::Done(r));
                }
            }
        }
        if ops.is_empty() {
            // Every drained op was poisoned: no apply ran, so there is no
            // latency signal; decay as if the combiner were alone.
            self.window_ns
                // ORDERING: tuning knob owned by the combiner lock we hold.
                .store(next_window(window, 1, 0, 0), Ordering::Relaxed);
        }
        if let Some(poisoned) = own_poison {
            std::panic::panic_any(poisoned);
        }
        // INVARIANT: our op is withdrawn from the queue only on the error
        // paths above; otherwise it is in `ops` and `apply` returned for it.
        Ok(own.expect("the drain carried our own op"))
    }
}

impl<V: Clone + Send + Sync + 'static> std::fmt::Debug for Batcher<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("Batcher")
            .field("batches", &s.batches)
            .field("ops", &s.ops)
            .field("avg_batch", &s.avg_batch())
            .field("window_ns", &s.window_ns)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Partitioning;
    use crate::store::StoreConfig;

    #[test]
    fn sequential_ops_behave_like_the_store() {
        let store = Arc::new(LeapStore::<u64>::new(StoreConfig::new(
            4,
            Partitioning::Hash,
        )));
        let b = Batcher::new(store.clone());
        assert_eq!(b.put(1, 10), None);
        assert_eq!(b.put(1, 11), Some(10));
        assert_eq!(b.delete(1), Some(11));
        assert_eq!(b.delete(1), None);
        assert_eq!(store.get(1), None);
        let s = b.stats();
        assert_eq!(s.ops, 4);
        assert!(
            (s.avg_batch() - 1.0).abs() < 1e-9,
            "no contention, no coalescing"
        );
        assert_eq!(
            s.window_ns, 0,
            "solo drains must keep the adaptive window closed"
        );
        assert_eq!(BatcherStats::default().avg_batch(), 0.0);
    }

    #[test]
    fn window_doubles_on_coalescing_and_decays_alone() {
        // Growth: any coalesced drain opens the window from zero…
        assert_eq!(next_window(0, 2, 100, 100), WINDOW_BASE_NS);
        // …then doubles…
        assert_eq!(next_window(WINDOW_BASE_NS, 3, 100, 100), 2 * WINDOW_BASE_NS);
        // …up to the cap.
        assert_eq!(next_window(WINDOW_MAX_NS, 9, 100, 100), WINDOW_MAX_NS);
        assert_eq!(next_window(u64::MAX, 2, 100, 100), WINDOW_MAX_NS);
        // Decay: solo drains halve toward zero and stay there.
        assert_eq!(next_window(WINDOW_BASE_NS, 1, 100, 100), WINDOW_BASE_NS / 2);
        assert_eq!(next_window(1, 1, 100, 100), 0);
        assert_eq!(next_window(0, 1, 100, 100), 0);
        assert_eq!(next_window(0, 0, 100, 100), 0);
    }

    #[test]
    fn window_holds_when_latency_degrades() {
        // A coalesced drain 25%+ slower than the previous one holds the
        // window instead of doubling.
        assert_eq!(next_window(WINDOW_BASE_NS, 4, 126, 100), WINDOW_BASE_NS);
        // Within tolerance (or faster): doubling proceeds.
        assert_eq!(next_window(WINDOW_BASE_NS, 4, 125, 100), 2 * WINDOW_BASE_NS);
        assert_eq!(next_window(WINDOW_BASE_NS, 4, 60, 100), 2 * WINDOW_BASE_NS);
        // No baseline yet: doubling proceeds.
        assert_eq!(next_window(WINDOW_BASE_NS, 4, 500, 0), 2 * WINDOW_BASE_NS);
        // Degradation never blocks the solo decay path.
        assert_eq!(next_window(WINDOW_BASE_NS, 1, 900, 100), WINDOW_BASE_NS / 2);
    }

    #[test]
    fn drain_latency_lands_in_timeline_and_apply_histogram() {
        let store = Arc::new(LeapStore::<u64>::new(StoreConfig::new(
            2,
            Partitioning::Hash,
        )));
        let obs = store.obs().expect("obs on by default");
        let b = Batcher::new(store.clone());
        for k in 0..100u64 {
            // A solo put is one drain: the latency it timed (the window's
            // new baseline) rides in the newest timeline event.
            b.put(k, k);
            let drain_ns = b.prev_drain_ns.load(Ordering::Relaxed);
            let newest = obs.events().snapshot().events.pop();
            assert_eq!(
                newest.map(|e| e.kind),
                Some(EventKind::BatcherDrain {
                    ops: 1,
                    drain_ns,
                    window_ns: 0
                }),
                "drain {k}"
            );
        }
        // Every drain's grouped apply is one `store_op_apply_ns` sample.
        let drains = b.stats().batches;
        assert_eq!(drains, 100);
        let apply = obs
            .snapshot()
            .op_latency
            .into_iter()
            .find(|(k, _)| *k == "apply");
        assert_eq!(apply.map(|(_, h)| h.count), Some(drains));
    }

    #[test]
    fn reserved_key_panic_does_not_wedge_the_batcher() {
        let store = Arc::new(LeapStore::<u64>::new(StoreConfig::new(
            2,
            Partitioning::Hash,
        )));
        let b = Arc::new(Batcher::new(store.clone()));
        let panicked = {
            let b = b.clone();
            std::thread::spawn(move || {
                b.put(u64::MAX, 1);
            })
            .join()
        };
        assert!(panicked.is_err(), "reserved key must panic");
        // The panic happened before any lock was taken: the batcher (and
        // its combiner mutex) must still serve every other thread.
        assert_eq!(b.put(7, 70), None);
        assert_eq!(b.delete(7), Some(70));
        assert_eq!(b.stats().ops, 2, "the rejected op was never enqueued");
    }

    /// A value whose Clone panics when armed: the only way a combined
    /// batch can die after up-front key validation.
    #[derive(Debug, PartialEq)]
    struct Bomb(u64, bool);
    impl Clone for Bomb {
        fn clone(&self) -> Self {
            assert!(!self.1, "armed bomb cloned");
            Bomb(self.0, false)
        }
    }

    #[test]
    fn solo_bomb_panics_in_its_own_frame_and_batcher_survives() {
        let store = Arc::new(LeapStore::<Bomb>::new(StoreConfig::new(
            2,
            Partitioning::Hash,
        )));
        let b = Arc::new(Batcher::new(store.clone()));
        let panicked = {
            let b = b.clone();
            std::thread::spawn(move || {
                b.put(3, Bomb(30, true));
            })
            .join()
        };
        // A solo drain has no peers to protect: the original panic payload
        // reaches the submitter unwrapped (no probe ran).
        let payload = panicked.expect_err("armed bomb must panic");
        assert!(
            payload.downcast_ref::<PoisonedOp>().is_none(),
            "solo drains skip the probe"
        );
        // The combiner marked no stray slots; the batcher still serves.
        assert!(b.put(4, Bomb(40, false)).is_none());
        assert_eq!(store.get(4), Some(Bomb(40, false)));
    }

    #[test]
    fn poisoned_op_does_not_take_down_its_batch_peers() {
        let store = Arc::new(LeapStore::<Bomb>::new(StoreConfig::new(
            2,
            Partitioning::Hash,
        )));
        let b = Batcher::new(store.clone());
        // Plant a peer's armed op directly in the queue (as if a thread
        // had enqueued it and were waiting on the combiner lock), then
        // combine via a healthy own op: the drain carries both.
        let peer_slot = Arc::new(Slot::empty());
        b.queue.lock().unwrap().push(Pending {
            op: BatchOp::Update(9, Bomb(90, true)),
            slot: peer_slot.clone(),
            enqueued: Instant::now(),
        });
        b.queue_len.fetch_add(1, Ordering::Relaxed);
        assert_eq!(b.put(5, Bomb(50, false)), None, "healthy op lands");
        assert_eq!(store.get(5), Some(Bomb(50, false)));
        assert_eq!(store.get(9), None, "poisoned op was never applied");
        match lock_slot(&peer_slot).take() {
            Some(Outcome::Poisoned(p)) => {
                assert_eq!(p.index, 0, "the planted bomb was first in the drain");
                assert!(
                    p.payload.downcast_ref::<String>().is_some()
                        || p.payload.downcast_ref::<&str>().is_some(),
                    "original panic payload is preserved"
                );
                assert!(format!("{p:?}").contains("index: 0"));
            }
            _ => panic!("peer slot must carry the poisoned-op report"),
        }
        let s = b.stats();
        assert_eq!(s.ops, 1, "only the healthy op counted");
        assert!(s.max_batch >= 1);
    }

    #[test]
    fn admission_refuses_ops_at_the_bound() {
        let store = Arc::new(LeapStore::<u64>::new(StoreConfig::new(
            2,
            Partitioning::Hash,
        )));
        let b = Batcher::new(store.clone()).with_admission(1);
        // Plant a queued op (as if its thread were parked on the combiner
        // lock): the queue sits at the bound, so the next arrival is shed
        // at the door instead of blocking behind it.
        let parked = Arc::new(Slot::empty());
        b.queue.lock().unwrap().push(Pending {
            op: BatchOp::Update(1, 10),
            slot: parked.clone(),
            enqueued: Instant::now(),
        });
        b.queue_len.fetch_add(1, Ordering::Relaxed);
        match b.try_put(2, 20) {
            Err(StoreError::Overloaded { queued }) => assert_eq!(queued, 1),
            other => panic!("expected an admission refusal, got {other:?}"),
        }
        assert_eq!(store.get(2), None, "the shed op never ran");
        assert_eq!(b.stats().shed, 1);
        assert_eq!(store.stats().shed_ops, 1, "shed surfaces in store stats");
        // The infallible front-end panics with the typed error's message.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.put(2, 20)));
        let payload = panicked.expect_err("put must refuse at the bound");
        let msg = payload.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("overloaded"), "{msg}");
        assert!(msg.contains("try_put"), "{msg}");
        // Un-park the planted op: admission opens again.
        b.queue.lock().unwrap().clear();
        b.queue_len.fetch_sub(1, Ordering::Relaxed);
        assert_eq!(b.try_put(2, 20).unwrap(), None);
        assert_eq!(store.get(2), Some(20));
        // Every shed op landed on the store's event timeline.
        let snap = store.obs().expect("obs on by default").events().snapshot();
        assert!(snap
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Shed { ops: 1, queued: 1 })));
    }

    #[test]
    fn wedged_combiner_times_out_with_a_typed_error() {
        let store = Arc::new(LeapStore::<u64>::new(StoreConfig::new(
            2,
            Partitioning::Hash,
        )));
        let b = Arc::new(Batcher::new(store.clone()).with_wedge_timeout(Duration::from_millis(20)));
        // Wedge the combiner: hold its lock so no drain can ever run.
        let held = b.combiner.lock().unwrap();
        let res = {
            let b = b.clone();
            std::thread::spawn(move || b.try_put(3, 30)).join().unwrap()
        };
        assert!(matches!(res, Err(StoreError::CombinerWedged)), "{res:?}");
        // The op was withdrawn under the queue lock: no later combiner
        // can apply it after its caller gave up.
        assert_eq!(b.queue_len.load(Ordering::Relaxed), 0);
        assert!(b.queue.lock().unwrap().is_empty());
        assert_eq!(b.stats().shed, 1);
        assert_eq!(store.get(3), None);
        drop(held);
        // Wedge gone: the same op goes through within the same timeout.
        assert_eq!(b.try_put(3, 30).unwrap(), None);
        assert_eq!(store.get(3), Some(30));
    }

    #[test]
    fn injected_drain_fault_sheds_the_whole_batch() {
        let plan = leap_fault::FaultPlan::new(11)
            .always(FaultPoint::BatcherDrain)
            .with_budget(FaultPoint::BatcherDrain, 1);
        let store = Arc::new(LeapStore::<u64>::new(
            StoreConfig::new(2, Partitioning::Hash).with_faults(plan),
        ));
        let b = Batcher::new(store.clone());
        // Plant a peer so the shed batch carries more than our own op.
        let peer = Arc::new(Slot::empty());
        b.queue.lock().unwrap().push(Pending {
            op: BatchOp::Update(8, 80),
            slot: peer.clone(),
            enqueued: Instant::now(),
        });
        b.queue_len.fetch_add(1, Ordering::Relaxed);
        // The first drain hits the injected fault: nothing applies, and
        // every submitter learns it — us via the typed error, the peer
        // via its slot.
        assert!(matches!(
            b.try_put(4, 40),
            Err(StoreError::Overloaded { .. })
        ));
        assert!(matches!(
            lock_slot(&peer).take(),
            Some(Outcome::Shed { .. })
        ));
        assert_eq!(store.get(4), None);
        assert_eq!(store.get(8), None);
        assert_eq!(b.stats().shed, 2, "both carried ops count as shed");
        assert_eq!(store.stats().shed_ops, 2);
        // The budget is spent: the next drain applies normally.
        assert_eq!(b.try_put(4, 40).unwrap(), None);
        assert_eq!(store.get(4), Some(40));
    }

    /// A value whose shared clone counter detonates on exactly the
    /// `fuse`-th clone (0 = never). Fuse 3 is calibrated to the combined
    /// write path: clone 1 is the combiner's probe, clone 2 the batch
    /// grouping, clone 3 the plan build inside `apply_batch_grouped` —
    /// which runs *while the migration overlay's write lock is held*.
    #[derive(Debug)]
    struct StagedBomb {
        clones: Arc<AtomicU64>,
        fuse: u64,
        val: u64,
    }
    impl StagedBomb {
        fn healthy(val: u64) -> Self {
            StagedBomb {
                clones: Arc::new(AtomicU64::new(0)),
                fuse: 0,
                val,
            }
        }
    }
    impl Clone for StagedBomb {
        fn clone(&self) -> Self {
            let n = self.clones.fetch_add(1, Ordering::Relaxed) + 1;
            assert!(
                self.fuse == 0 || n != self.fuse,
                "staged bomb detonated on clone {n}"
            );
            StagedBomb {
                clones: self.clones.clone(),
                fuse: self.fuse,
                val: self.val,
            }
        }
    }

    /// Poisoned-op isolation during a *live migration*: a clone that
    /// panics inside the grouped apply — after the probe, while the
    /// drain holds the migration overlay's write lock — must release
    /// the lock on unwind, report the peers, and leave the migration
    /// fully completable.
    #[test]
    fn poisoned_op_mid_migration_releases_overlay_locks() {
        use crate::rebalance::{RebalanceAction, RebalancePolicy};
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
        let b = Arc::new(Batcher::new(store.clone()));
        // A healthy peer op on a migrating key, parked in the queue.
        let peer = Arc::new(Slot::empty());
        b.queue.lock().unwrap().push(Pending {
            op: BatchOp::Update(25, StagedBomb::healthy(250)),
            slot: peer.clone(),
            enqueued: Instant::now(),
        });
        b.queue_len.fetch_add(1, Ordering::Relaxed);
        // The bomb targets a migrating key too: the grouped apply takes
        // the overlay write lock, then detonates on the plan-build clone.
        let bomb = StagedBomb {
            clones: Arc::new(AtomicU64::new(0)),
            fuse: 3,
            val: 300,
        };
        let panicked = {
            let b = b.clone();
            std::thread::spawn(move || b.put(30, bomb)).join()
        };
        assert!(panicked.is_err(), "the armed clone must panic the drain");
        // The peer was told its fate (mid-apply abort, not silence)...
        assert!(matches!(lock_slot(&peer).take(), Some(Outcome::Aborted)));
        // ...and the overlay write lock was released on unwind: in-range
        // ops proceed, from this thread, without deadlock.
        let prev = store.put(25, StagedBomb::healthy(251));
        assert_eq!(prev.map(|v| v.val), Some(25), "peer's update never landed");
        assert_eq!(store.get(25).map(|v| v.val), Some(251));
        assert_eq!(store.get(30).map(|v| v.val), Some(30), "bomb never landed");
        // The migration itself is still healthy and completes.
        store.rebalance_until_idle();
        assert!(store.router().migrations().is_empty());
        assert!(store.router().epoch() >= 1);
        for k in 0..40u64 {
            let want = if k == 25 { 251 } else { k };
            assert_eq!(store.get(k).map(|v| v.val), Some(want), "key {k}");
        }
    }

    #[test]
    fn concurrent_ops_all_land_and_coalesce() {
        let store = Arc::new(LeapStore::<u64>::new(StoreConfig::new(
            8,
            Partitioning::Hash,
        )));
        let b = Arc::new(Batcher::new(store.clone()));
        let threads = 4;
        let per = 200u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let b = b.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        let k = t * per + i;
                        assert_eq!(b.put(k, k + 1), None, "keys are disjoint per thread");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for k in 0..threads * per {
            assert_eq!(store.get(k), Some(k + 1));
        }
        let s = b.stats();
        assert_eq!(s.ops, threads * per);
        assert!(s.batches <= s.ops, "combined calls never exceed ops");
    }
}
