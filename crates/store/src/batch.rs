//! The admission gate in front of a shared [`LeapStore`]: single-key puts
//! and deletes run directly on the store, but no more than a configured
//! number at a time. An op arriving at the bound is refused with a typed
//! [`StoreError::Overloaded`] — shed at the door, never a silent block.
//! The gate combines nothing: atomic multi-key writes come from
//! [`LeapStore::apply`], one multi-list transaction for `k` ops.

use crate::error::StoreError;
use crate::store::LeapStore;
use leap_fault::FaultPoint;
use leap_obs::{OpClass, OpOutcome};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Point-in-time counters for a [`Batcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatcherStats {
    /// Operations admitted and run on the store.
    pub ops: u64,
    /// Operations shed — refused at the admission bound or by an injected
    /// `admission` fault. Every shed op surfaced a typed
    /// [`StoreError::Overloaded`] to its submitter.
    pub shed: u64,
    /// Equal to `ops`: every admitted op runs on its own. Kept only until
    /// a `benchmark/` change drops its `batcher.batches` row.
    pub batches: u64,
    /// 1 once any op ran, else 0. Kept only until a `benchmark/` change
    /// drops its `batcher.max_batch` row.
    pub max_batch: u64,
    /// Always 0: there is no combining window. Kept only until a
    /// `benchmark/` change drops its `batcher.window_ns_end` row.
    pub window_ns: u64,
}

impl BatcherStats {
    /// `ops / batches`: 1.0 once any op ran, else 0.0. Kept only until a
    /// `benchmark/` change drops its `batcher.avg_batch` row.
    pub fn avg_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.ops as f64 / self.batches as f64
        }
    }
}

/// An admission gate over a shared [`LeapStore`].
///
/// [`Batcher::try_put`] / [`Batcher::try_delete`] run the store's own
/// [`LeapStore::put`] / [`LeapStore::delete`] while fewer than the
/// [`Batcher::with_admission`] bound of ops are in flight through the
/// gate, and refuse the op otherwise.
///
/// # Example
///
/// ```
/// use leap_store::{Batcher, LeapStore, StoreConfig};
/// use std::sync::Arc;
///
/// let store = Arc::new(LeapStore::<u64>::new(StoreConfig::default()));
/// let batcher = Batcher::new(store.clone()).with_admission(64);
/// assert_eq!(batcher.try_put(5, 50), Ok(None));
/// assert_eq!(batcher.try_put(5, 51), Ok(Some(50)));
/// assert_eq!(batcher.try_delete(5), Ok(Some(51)));
/// assert_eq!(batcher.stats().ops, 3);
/// ```
pub struct Batcher<V> {
    store: Arc<LeapStore<V>>,
    /// Ops admitted and not yet finished.
    in_flight: AtomicUsize,
    /// Admission bound: an op arriving with this many in flight is
    /// refused (`usize::MAX` = unbounded, the default).
    max_depth: usize,
    ops: AtomicU64,
    shed: AtomicU64,
}

/// Holds one unit of the in-flight count; releases it on every exit,
/// unwinding included.
struct Admitted<'a>(&'a AtomicUsize);

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        // ORDERING: the count publishes nothing; the RMW alone keeps it exact.
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl<V: Clone + Send + Sync + 'static> Batcher<V> {
    /// Creates an unbounded gate in front of `store`.
    pub fn new(store: Arc<LeapStore<V>>) -> Self {
        Batcher {
            store,
            in_flight: AtomicUsize::new(0),
            max_depth: usize::MAX,
            ops: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<LeapStore<V>> {
        &self.store
    }

    /// Caps the ops in flight through the gate at `max_depth` (clamped to
    /// at least 1): an op arriving at the bound is refused with
    /// [`StoreError::Overloaded`]. Default: unbounded.
    pub fn with_admission(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth.max(1);
        self
    }

    /// Inserts or updates `key -> value` through the gate; returns the
    /// previous value.
    ///
    /// # Errors
    ///
    /// [`StoreError::Overloaded`] when the gate is at its admission bound
    /// or an injected `admission` fault fired; the op did not run.
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX` (caller error, not degradation).
    pub fn try_put(&self, key: u64, value: V) -> Result<Option<V>, StoreError> {
        self.admit(OpClass::Put, key, |s| s.put(key, value))
    }

    /// Removes `key` through the gate; returns its value if present.
    ///
    /// # Errors
    ///
    /// As [`Batcher::try_put`].
    ///
    /// # Panics
    ///
    /// Panics if `key == u64::MAX`.
    pub fn try_delete(&self, key: u64) -> Result<Option<V>, StoreError> {
        self.admit(OpClass::Delete, key, |s| s.delete(key))
    }

    /// Admission counters.
    pub fn stats(&self) -> BatcherStats {
        // ORDERING: monotonic stat counters; readers only need
        // eventually-consistent values.
        let ops = self.ops.load(Ordering::Relaxed);
        BatcherStats {
            ops,
            // ORDERING: as above.
            shed: self.shed.load(Ordering::Relaxed),
            batches: ops,
            max_batch: ops.min(1),
            window_ns: 0,
        }
    }

    /// Runs `op` on the store if the gate admits it. The op's span is
    /// opened here, so a refusal is traced too and the store op under it
    /// is nested (inert).
    fn admit(
        &self,
        kind: OpClass,
        key: u64,
        op: impl FnOnce(&LeapStore<V>) -> Option<V>,
    ) -> Result<Option<V>, StoreError> {
        // A caller error panics before it takes a place at the gate.
        assert!(key < u64::MAX, "key u64::MAX is reserved");
        let _span = self.store.span_routed(kind, key);
        // ORDERING: the count publishes nothing; the RMW alone keeps it exact.
        let queued = self.in_flight.fetch_add(1, Ordering::Relaxed);
        let _admitted = Admitted(&self.in_flight);
        if queued >= self.max_depth
            || self
                .store
                .faults()
                .is_some_and(|f| f.should_fire(FaultPoint::Admission))
        {
            // ORDERING: monotonic stat counter; no publication rides on it.
            self.shed.fetch_add(1, Ordering::Relaxed);
            self.store.note_shed(queued);
            leap_obs::trace::note_outcome(OpOutcome::Overloaded);
            return Err(StoreError::Overloaded { queued });
        }
        let prev = op(&self.store);
        // ORDERING: monotonic stat counter; no publication rides on it.
        self.ops.fetch_add(1, Ordering::Relaxed);
        Ok(prev)
    }
}

impl<V: Clone + Send + Sync + 'static> std::fmt::Debug for Batcher<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher")
            .field("max_depth", &self.max_depth)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Partitioning;
    use crate::store::StoreConfig;
    use leap_obs::EventKind;

    #[test]
    fn sequential_ops_behave_like_the_store() {
        let store = Arc::new(LeapStore::<u64>::new(
            StoreConfig::new(4, Partitioning::Range).with_key_space(100),
        ));
        let b = Batcher::new(store.clone());
        assert_eq!(b.try_put(1, 10), Ok(None));
        assert_eq!(b.try_put(1, 11), Ok(Some(10)));
        assert_eq!(b.try_delete(1), Ok(Some(11)));
        assert_eq!(b.try_delete(1), Ok(None));
        assert_eq!(store.get(1), None);
        let s = b.stats();
        assert_eq!((s.ops, s.batches, s.max_batch, s.window_ns), (4, 4, 1, 0));
        assert!((s.avg_batch() - 1.0).abs() < 1e-9);
        assert_eq!(BatcherStats::default().avg_batch(), 0.0);
        assert_eq!(b.in_flight.load(Ordering::Relaxed), 0, "every op left");
    }

    #[test]
    fn reserved_key_panic_does_not_wedge_the_batcher() {
        let store = Arc::new(LeapStore::<u64>::new(
            StoreConfig::new(2, Partitioning::Range).with_key_space(100),
        ));
        let b = Arc::new(Batcher::new(store.clone()).with_admission(1));
        let panicked = {
            let b = b.clone();
            std::thread::spawn(move || {
                let _ = b.try_put(u64::MAX, 1);
            })
            .join()
        };
        assert!(panicked.is_err(), "reserved key must panic");
        // The panic happened before admission: the one place at the gate
        // is still free for every other thread.
        assert_eq!(b.try_put(7, 70), Ok(None));
        assert_eq!(b.try_delete(7), Ok(Some(70)));
        assert_eq!(b.stats().ops, 2, "the rejected op was never admitted");
    }

    #[test]
    fn admission_refuses_ops_at_the_bound() {
        let store = Arc::new(LeapStore::<u64>::new(
            StoreConfig::new(2, Partitioning::Range).with_key_space(100),
        ));
        let b = Batcher::new(store.clone()).with_admission(1);
        // Plant an in-flight op (as if its thread were inside the store):
        // the gate sits at the bound, so the next arrival is shed at the
        // door instead of running beside it.
        b.in_flight.fetch_add(1, Ordering::Relaxed);
        match b.try_put(2, 20) {
            Err(StoreError::Overloaded { queued }) => assert_eq!(queued, 1),
            other => panic!("expected an admission refusal, got {other:?}"),
        }
        assert_eq!(store.get(2), None, "the shed op never ran");
        assert_eq!(b.stats().shed, 1);
        assert_eq!(b.stats().ops, 0);
        assert_eq!(store.stats().shed_ops, 1, "shed surfaces in store stats");
        assert_eq!(b.in_flight.load(Ordering::Relaxed), 1, "refusal let go");
        // The planted op finishes: admission opens again.
        b.in_flight.fetch_sub(1, Ordering::Relaxed);
        assert_eq!(b.try_put(2, 20), Ok(None));
        assert_eq!(store.get(2), Some(20));
        // The shed op landed on the store's event timeline.
        let snap = store.obs().expect("obs on by default").events().snapshot();
        assert!(snap
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Shed { ops: 1, queued: 1 })));
    }

    #[test]
    fn injected_admission_fault_sheds_the_op() {
        let plan = leap_fault::FaultPlan::new(11)
            .always(FaultPoint::Admission)
            .with_budget(FaultPoint::Admission, 1);
        let store = Arc::new(LeapStore::<u64>::new(
            StoreConfig::new(2, Partitioning::Range)
                .with_key_space(100)
                .with_faults(plan),
        ));
        let b = Batcher::new(store.clone());
        // The first admission hits the injected fault: the op never runs,
        // and its submitter learns it through the typed error.
        assert_eq!(b.try_put(4, 40), Err(StoreError::Overloaded { queued: 0 }));
        assert_eq!(store.get(4), None);
        assert_eq!(b.stats().shed, 1);
        assert_eq!(store.stats().shed_ops, 1);
        // The budget is spent: the next op runs normally.
        assert_eq!(b.try_put(4, 40), Ok(None));
        assert_eq!(store.get(4), Some(40));
        assert_eq!(b.in_flight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn concurrent_ops_all_land() {
        let store = Arc::new(LeapStore::<u64>::new(
            StoreConfig::new(8, Partitioning::Range).with_key_space(800),
        ));
        let b = Arc::new(Batcher::new(store.clone()));
        let threads = 4;
        let per = 200u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let b = b.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        let k = t * per + i;
                        assert_eq!(b.try_put(k, k + 1), Ok(None), "keys are disjoint");
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
        assert_eq!(b.stats().ops, threads * per);
        assert_eq!(b.in_flight.load(Ordering::Relaxed), 0);
        let busy = store.stats().shards.iter().filter(|s| s.puts > 0).count();
        assert_eq!(busy, 8, "the key space spreads the puts over every shard");
    }
}
