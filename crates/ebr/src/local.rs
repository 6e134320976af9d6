//! Thread-local participation: handles, pin bookkeeping and garbage bags.

use crate::collector::Inner;
use crate::guard::Guard;
use crate::participant::Participant;
use crate::{COLLECT_THRESHOLD, PINS_BETWEEN_COLLECT, SAFE_EPOCH_DISTANCE};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

/// A type-erased deferred destructor: a data pointer and the function
/// that consumes it. [`Guard`] builds every one (the shims live in
/// `guard.rs`), so a node deferral costs no allocation of its own.
pub(crate) struct Deferred {
    data: *mut (),
    // SAFETY: sound to call once with `data` (`Deferred::new`'s contract).
    call: unsafe fn(*mut ()),
}

// SAFETY: `Guard` only builds deferrals whose payload is `Send` (the
// closure of `defer`, the `T: Send` box of `defer_drop_box`), so running
// `call(data)` on another thread moves nothing that may not move.
unsafe impl Send for Deferred {}

impl Deferred {
    /// # Safety
    ///
    /// `call(data)` must be sound to run once, on any thread, at any time
    /// after the grace period.
    pub(crate) unsafe fn new(data: *mut (), call: unsafe fn(*mut ())) -> Self {
        Deferred { data, call }
    }

    pub(crate) fn call(self) {
        // SAFETY: `new`'s contract; `self` is consumed, so this runs once.
        unsafe { (self.call)(self.data) }
    }
}

pub(crate) struct LocalInner {
    pub(crate) collector: Arc<Inner>,
    participant: &'static Participant,
    pin_depth: Cell<u32>,
    pins_since_collect: Cell<u32>,
    garbage: RefCell<Vec<(u64, Deferred)>>,
    /// `collect`'s buffer of ripe deferrals, kept between calls.
    ready: Cell<Vec<Deferred>>,
}

impl LocalInner {
    pub(crate) fn pin(self: &Rc<Self>) -> Guard {
        let depth = self.pin_depth.get();
        self.pin_depth.set(depth + 1);
        if depth == 0 {
            let epoch = self.collector.registry.epoch();
            self.participant.set_pinned(epoch);
            let pins = self.pins_since_collect.get() + 1;
            self.pins_since_collect.set(pins);
            if pins >= PINS_BETWEEN_COLLECT {
                self.pins_since_collect.set(0);
                self.collect();
            }
        }
        Guard::new(self.clone())
    }

    pub(crate) fn unpin(&self) {
        let depth = self.pin_depth.get();
        debug_assert!(depth > 0, "unpin without matching pin");
        self.pin_depth.set(depth - 1);
        if depth == 1 {
            self.participant.set_unpinned();
        }
    }

    pub(crate) fn is_pinned(&self) -> bool {
        self.pin_depth.get() > 0
    }

    pub(crate) fn defer(&self, d: Deferred) {
        // SeqCst fence so that the unlink preceding this defer is ordered
        // before our read of the global epoch (see crate-level safety note).
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
        let epoch = self.collector.registry.epoch();
        let len = {
            let mut g = self.garbage.borrow_mut();
            g.push((epoch, d));
            g.len()
        };
        if len >= COLLECT_THRESHOLD {
            self.collect();
        }
    }

    /// Attempts to advance the epoch, then reclaims everything old enough.
    ///
    /// Note this may run destructors while the owner is pinned; destructors
    /// must not pin/defer on this same handle re-entrantly at `collect` time
    /// (they may defer onto *other* handles). Plain `drop(Box)` deferrals,
    /// which is all the data-structure crates use, are always fine.
    pub(crate) fn collect(&self) {
        let global = self.collector.registry.try_advance();
        // Garbage is pushed in epoch order (the global epoch only grows),
        // so the ripe deferrals are a prefix. A re-entrant `collect` from a
        // destructor finds `ready` empty and just allocates its own.
        let mut ready = self.ready.take();
        {
            let mut g = self.garbage.borrow_mut();
            let ripe = g.partition_point(|(epoch, _)| *epoch + SAFE_EPOCH_DISTANCE <= global);
            ready.extend(g.drain(..ripe).map(|(_, d)| d));
        }
        for d in ready.drain(..) {
            d.call();
        }
        self.ready.set(ready);
        self.collector.drain_orphans(global);
    }

    fn garbage_len(&self) -> usize {
        self.garbage.borrow().len()
    }
}

impl Drop for LocalInner {
    fn drop(&mut self) {
        debug_assert_eq!(self.pin_depth.get(), 0, "handle dropped while pinned");
        // Orphan leftover garbage so another handle (or the collector's own
        // drop) reclaims it later.
        let garbage = std::mem::take(&mut *self.garbage.borrow_mut());
        if !garbage.is_empty() {
            self.collector
                .orphans
                .lock()
                // INVARIANT: no code path panics while holding this lock.
                .expect("orphan list poisoned")
                .extend(garbage);
        }
        self.participant.release();
    }
}

/// A per-thread handle onto a [`Collector`](crate::Collector).
///
/// Handles are cheap to pin and are **not** `Send`: each thread registers its
/// own. Dropping the handle unregisters the thread; any garbage it still
/// holds is handed to the collector for later reclamation.
///
/// # Example
///
/// ```
/// let collector = leap_ebr::Collector::new();
/// let handle = collector.register();
/// {
///     let guard = handle.pin();
///     assert!(handle.is_pinned());
///     guard.defer(|| ());
/// }
/// assert!(!handle.is_pinned());
/// ```
pub struct LocalHandle {
    pub(crate) inner: Rc<LocalInner>,
}

impl LocalHandle {
    pub(crate) fn new(collector: Arc<Inner>) -> Self {
        // The registry leaks participant records, so extending the reference
        // to 'static is sound: the referent is never deallocated.
        let participant: &'static Participant =
            // SAFETY: registry records are intentionally leaked (never
            // freed), so extending the reference to 'static is sound.
            unsafe { &*(collector.registry.acquire() as *const Participant) };
        LocalHandle {
            inner: Rc::new(LocalInner {
                collector,
                participant,
                pin_depth: Cell::new(0),
                pins_since_collect: Cell::new(0),
                garbage: RefCell::new(Vec::new()),
                ready: Cell::new(Vec::new()),
            }),
        }
    }

    /// Pins the current epoch. Shared objects read while the returned
    /// [`Guard`] is alive will not be reclaimed underneath the caller.
    /// Nested pins are permitted and cheap.
    pub fn pin(&self) -> Guard {
        self.inner.pin()
    }

    /// Whether the thread currently holds at least one guard from this
    /// handle.
    pub fn is_pinned(&self) -> bool {
        self.inner.is_pinned()
    }

    /// Eagerly attempts epoch advancement and reclamation.
    pub fn collect(&self) {
        self.inner.collect()
    }

    /// Number of deferrals queued locally (diagnostics / tests).
    pub fn garbage_len(&self) -> usize {
        self.inner.garbage_len()
    }

    /// Repeatedly advances the epoch and collects until this handle holds no
    /// garbage. Only meaningful when no other thread is pinned indefinitely;
    /// intended for tests and teardown paths.
    pub fn advance_until_quiescent(&self) {
        for _ in 0..64 {
            self.collect();
            if self.inner.garbage_len() == 0 {
                // One extra round so orphans two epochs back drain too.
                self.collect();
                return;
            }
        }
        // INVARIANT: diagnostic API — documented to panic when a foreign
        // pin blocks the epoch; deadlocking silently would hide the bug.
        panic!("epoch cannot advance: another participant is pinned");
    }
}

impl std::fmt::Debug for LocalHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalHandle")
            .field("pinned", &self.is_pinned())
            .field("garbage", &self.garbage_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::Collector;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn nested_pins_unpin_once() {
        let c = Collector::new();
        let h = c.register();
        let g1 = h.pin();
        let g2 = h.pin();
        drop(g1);
        assert!(h.is_pinned());
        drop(g2);
        assert!(!h.is_pinned());
    }

    #[test]
    fn deferred_not_run_while_epoch_held_back() {
        let c = Collector::new();
        let h1 = c.register();
        let h2 = c.register();
        let ran = Arc::new(AtomicUsize::new(0));

        let _blocker = h2.pin(); // pins epoch 0 and never refreshes

        {
            let g = h1.pin();
            let r = ran.clone();
            g.defer(move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
        }
        for _ in 0..16 {
            h1.collect();
        }
        assert_eq!(
            ran.load(Ordering::SeqCst),
            0,
            "garbage freed under a live pin"
        );
    }

    #[test]
    fn deferred_runs_after_grace_period() {
        let c = Collector::new();
        let h = c.register();
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let g = h.pin();
            let r = ran.clone();
            g.defer(move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
        }
        h.advance_until_quiescent();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn orphaned_garbage_is_reclaimed_by_other_handles() {
        let c = Collector::new();
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let h = c.register();
            let g = h.pin();
            let r = ran.clone();
            g.defer(move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
            drop(g);
            // Handle dropped with garbage still queued -> orphaned.
        }
        let h2 = c.register();
        h2.advance_until_quiescent();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn orphaned_garbage_reclaimed_on_collector_drop() {
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let c = Collector::new();
            let h = c.register();
            let g = h.pin();
            let r = ran.clone();
            g.defer(move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
            drop(g);
            drop(h);
        }
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn garbage_len_reports_queue() {
        let c = Collector::new();
        let h = c.register();
        let g = h.pin();
        assert_eq!(h.garbage_len(), 0);
        g.defer(|| ());
        g.defer(|| ());
        assert_eq!(h.garbage_len(), 2);
    }
}
