//! RAII pin guards.

use crate::local::{Deferred, LocalInner};
use std::rc::Rc;

/// Witness that the current thread is pinned.
///
/// While a `Guard` is alive, objects reachable from the shared structure at
/// pin time will not be reclaimed. Obtain one from
/// [`LocalHandle::pin`](crate::LocalHandle::pin) or the process-wide
/// [`pin`](crate::pin).
///
/// # Example
///
/// ```
/// let guard = leap_ebr::pin();
/// // ... traverse shared nodes ...
/// guard.defer(|| { /* destructor for an unlinked node */ });
/// ```
pub struct Guard {
    local: Rc<LocalInner>,
}

impl Guard {
    pub(crate) fn new(local: Rc<LocalInner>) -> Self {
        Guard { local }
    }

    /// Schedules `f` to run after all currently-pinned threads unpin.
    ///
    /// The closure runs at an unspecified later time on an unspecified
    /// thread participating in the same collector.
    pub fn defer<F: FnOnce() + Send + 'static>(&self, f: F) {
        /// Runs and frees the boxed closure behind `data`.
        ///
        /// # Safety
        ///
        /// `data` came from `Box::<F>::into_raw` and is consumed here once.
        unsafe fn call_box<F: FnOnce()>(data: *mut ()) {
            // SAFETY: this fn's contract.
            let f = unsafe { Box::from_raw(data.cast::<F>()) };
            f();
        }
        let data = Box::into_raw(Box::new(f)).cast::<()>();
        // SAFETY: `data` is a fresh `Box<F>` with `F: Send + 'static`, and
        // the collector calls the deferral exactly once.
        let deferred = unsafe { Deferred::new(data, call_box::<F>) };
        self.local.defer(deferred);
    }

    /// Schedules the boxed value behind `ptr` to be dropped after the grace
    /// period.
    ///
    /// # Safety
    ///
    /// `ptr` must have been produced by [`Box::into_raw`] (or
    /// `Box::leak`) with the same `T`, must not be used to create another
    /// `Box`, and no new references to it may be created after this call
    /// (it must already be unreachable from the shared structure for
    /// threads that pin later).
    pub unsafe fn defer_drop_box<T: Send + 'static>(&self, ptr: *mut T) {
        /// Drops the box behind `data`: the monomorphised shim that lets a
        /// node deferral store a bare pointer instead of a boxed closure.
        ///
        /// # Safety
        ///
        /// `data` came from `Box::<T>::into_raw` and is consumed here once.
        unsafe fn drop_box<T>(data: *mut ()) {
            // SAFETY: this fn's contract.
            drop(unsafe { Box::from_raw(data.cast::<T>()) });
        }
        // SAFETY: contract forwarded from `defer_drop_box`; `T: Send +
        // 'static`, and the collector calls the deferral exactly once.
        let deferred = unsafe { Deferred::new(ptr.cast::<()>(), drop_box::<T>) };
        self.local.defer(deferred);
    }

    /// Eagerly attempts epoch advancement and reclamation (of *older*
    /// garbage; anything deferred under this guard stays queued).
    pub fn flush(&self) {
        self.local.collect();
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.local.unpin();
    }
}

impl std::fmt::Debug for Guard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Guard").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use crate::Collector;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn defer_drop_box_frees_exactly_once() {
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let c = Collector::new();
        let h = c.register();
        {
            let g = h.pin();
            let ptr = Box::into_raw(Box::new(Counted(drops.clone())));
            // SAFETY: `ptr` was never shared; the deferral is its only owner.
            unsafe { g.defer_drop_box(ptr) };
        }
        h.advance_until_quiescent();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn flush_does_not_free_own_epoch_garbage() {
        let c = Collector::new();
        let h = c.register();
        let ran = Arc::new(AtomicUsize::new(0));
        let g = h.pin();
        let r = ran.clone();
        g.defer(move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        g.flush();
        g.flush();
        assert_eq!(
            ran.load(Ordering::SeqCst),
            0,
            "own-epoch garbage must survive while pinned"
        );
    }
}
