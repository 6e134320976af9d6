//! Per-thread participant records and the global registry.
//!
//! Records are pushed onto a lock-free stack once and never freed; when a
//! thread unregisters, its record is marked unowned and may be adopted by a
//! later thread, so the registry size is bounded by the peak number of
//! simultaneously registered threads.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

/// State encoding: bit 0 = active (pinned), bits 1.. = epoch at pin time.
///
/// Aligned to two cache lines (the adjacent-line prefetcher pairs them) so
/// two threads' pin words — written on every outermost pin and unpin —
/// never share a line.
#[repr(align(128))]
pub(crate) struct Participant {
    state: AtomicU64,
    owned: AtomicBool,
    next: AtomicPtr<Participant>,
}

impl Participant {
    fn new() -> Self {
        Participant {
            state: AtomicU64::new(0),
            owned: AtomicBool::new(true),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Marks this participant as pinned at `epoch`.
    pub(crate) fn set_pinned(&self, epoch: u64) {
        // ORDERING: the SeqCst fence right below globally orders this store
        // against other threads' epoch reads; Relaxed is enough here.
        self.state.store((epoch << 1) | 1, Ordering::Relaxed);
        // Make the pin visible before any subsequent structure loads, and
        // order it against epoch reads by other threads (SC fence pairing
        // with the fences in `Registry::try_advance` and `Guard::defer`).
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    /// Marks this participant as no longer pinned.
    pub(crate) fn set_unpinned(&self) {
        // ORDERING: only this thread writes its own state; the Release
        // store below publishes the cleared active bit.
        let epoch = self.state.load(Ordering::Relaxed) >> 1;
        self.state.store(epoch << 1, Ordering::Release);
    }

    /// Returns `(active, epoch)`.
    pub(crate) fn load_state(&self) -> (bool, u64) {
        let s = self.state.load(Ordering::SeqCst);
        (s & 1 == 1, s >> 1)
    }

    /// Releases ownership so another thread may adopt this record.
    pub(crate) fn release(&self) {
        // ORDERING: debug-only self-read of a thread-local state word.
        debug_assert_eq!(self.state.load(Ordering::Relaxed) & 1, 0);
        self.owned.store(false, Ordering::Release);
    }
}

/// Lock-free, grow-only registry of participants.
pub(crate) struct Registry {
    head: AtomicPtr<Participant>,
    /// Global epoch counter (monotonically increasing, never wraps in
    /// practice: 2^63 pins would take centuries).
    epoch: AtomicU64,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Registry {
            head: AtomicPtr::new(std::ptr::null_mut()),
            epoch: AtomicU64::new(0),
        }
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Registers the calling thread, reusing an unowned record if possible.
    pub(crate) fn acquire(&self) -> &Participant {
        // Try to adopt an abandoned record first.
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: records are pushed once and never freed (leaked).
            let p = unsafe { &*cur };
            if p.owned
                // ORDERING: the failure load carries no data we act on;
                // success is AcqRel, pairing with `release()`.
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return p;
            }
            cur = p.next.load(Ordering::Acquire);
        }
        // None available: allocate a fresh record and push it. Records are
        // intentionally leaked; the registry is bounded by peak thread count.
        let boxed = Box::leak(Box::new(Participant::new()));
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            // ORDERING: the AcqRel CAS below publishes `next` together with
            // the new head.
            boxed.next.store(head, Ordering::Relaxed);
            match self.head.compare_exchange_weak(
                head,
                boxed as *mut _,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return boxed,
                Err(h) => head = h,
            }
        }
    }

    /// Attempts to advance the global epoch. Succeeds only when every owned,
    /// active participant is pinned at the current epoch. Returns the epoch
    /// after the attempt.
    pub(crate) fn try_advance(&self) -> u64 {
        let global = self.epoch.load(Ordering::SeqCst);
        std::sync::atomic::fence(Ordering::SeqCst);
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: records are pushed once and never freed (leaked).
            let p = unsafe { &*cur };
            if p.owned.load(Ordering::Acquire) {
                let (active, epoch) = p.load_state();
                if active && epoch != global {
                    // A straggler is still in the previous epoch.
                    return global;
                }
            }
            cur = p.next.load(Ordering::Acquire);
        }
        // Everyone has caught up; move the epoch forward. A failed CAS means
        // someone else advanced concurrently, which is just as good.
        let _ = self
            .epoch
            .compare_exchange(global, global + 1, Ordering::SeqCst, Ordering::SeqCst);
        self.epoch.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn participants_never_share_a_cache_line() {
        assert_eq!(std::mem::align_of::<Participant>(), 128);
        assert_eq!(std::mem::size_of::<Participant>() % 128, 0);
    }

    #[test]
    fn participant_state_roundtrip() {
        let p = Participant::new();
        assert_eq!(p.load_state(), (false, 0));
        p.set_pinned(7);
        assert_eq!(p.load_state(), (true, 7));
        p.set_unpinned();
        assert_eq!(p.load_state(), (false, 7));
    }

    #[test]
    fn registry_reuses_released_records() {
        let reg = Registry::new();
        let a = reg.acquire() as *const Participant;
        // SAFETY: `a` points at a leaked, never-freed registry record.
        unsafe { (*a).release() };
        let b = reg.acquire() as *const Participant;
        assert_eq!(a, b, "released record should be adopted");
    }

    #[test]
    fn registry_allocates_when_all_owned() {
        let reg = Registry::new();
        let a = reg.acquire() as *const Participant;
        let b = reg.acquire() as *const Participant;
        assert_ne!(a, b);
    }

    #[test]
    fn advance_blocked_by_stale_active_participant() {
        let reg = Registry::new();
        let p = reg.acquire();
        p.set_pinned(0);
        // p is pinned at epoch 0 == global, so one advance succeeds...
        assert_eq!(reg.try_advance(), 1);
        // ...but a second is blocked because p is now stale (still at 0).
        assert_eq!(reg.try_advance(), 1);
        p.set_unpinned();
        assert_eq!(reg.try_advance(), 2);
    }

    #[test]
    fn advance_ignores_unowned_records() {
        let reg = Registry::new();
        let p = reg.acquire();
        p.set_pinned(0);
        assert_eq!(reg.try_advance(), 1);
        p.set_unpinned();
        p.release();
        // The released record is stale but unowned: it must not block.
        assert_eq!(reg.try_advance(), 2);
        assert_eq!(reg.try_advance(), 3);
    }
}
