//! The shared collector: global epoch, registry and orphaned garbage.

use crate::local::{Deferred, LocalHandle};
use crate::participant::Registry;
use crate::SAFE_EPOCH_DISTANCE;
use std::sync::{Arc, Mutex};

pub(crate) struct Inner {
    pub(crate) registry: Registry,
    /// Garbage abandoned by unregistered threads, adopted by whichever
    /// handle collects next.
    pub(crate) orphans: Mutex<Vec<(u64, Deferred)>>,
}

impl Inner {
    /// Runs every orphaned deferral whose epoch is old enough.
    pub(crate) fn drain_orphans(&self, global: u64) {
        // try_lock: reclamation is best-effort; a contended lock just means
        // another thread is already draining.
        let Ok(mut orphans) = self.orphans.try_lock() else {
            return;
        };
        let ready: Vec<Deferred> = orphans
            .extract_if(.., |(epoch, _)| *epoch + SAFE_EPOCH_DISTANCE <= global)
            .map(|(_, d)| d)
            .collect();
        drop(orphans);
        for d in ready {
            d.call();
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // No handles remain (they hold Arcs), so everything is reclaimable.
        // INVARIANT: no code path panics while holding this lock.
        let orphans = std::mem::take(self.orphans.get_mut().unwrap());
        for (_, d) in orphans {
            d.call();
        }
    }
}

/// An epoch-based garbage collector domain.
///
/// Structures that share a `Collector` share grace periods. Cloning is cheap
/// (reference counted). Threads participate by calling [`Collector::register`]
/// and pinning the returned [`LocalHandle`].
///
/// # Example
///
/// ```
/// let collector = leap_ebr::Collector::new();
/// let handle = collector.register();
/// let guard = handle.pin();
/// guard.defer(|| { /* free something */ });
/// ```
#[derive(Clone)]
pub struct Collector {
    pub(crate) inner: Arc<Inner>,
}

impl Collector {
    /// Creates a new, independent collector domain.
    pub fn new() -> Self {
        Collector {
            inner: Arc::new(Inner {
                registry: Registry::new(),
                orphans: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Registers the calling thread and returns its local handle.
    pub fn register(&self) -> LocalHandle {
        LocalHandle::new(self.inner.clone())
    }

    /// Current global epoch (monotonic). Mostly useful for diagnostics and
    /// tests.
    pub fn epoch(&self) -> u64 {
        self.inner.registry.epoch()
    }
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("epoch", &self.epoch())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_clone_shares_epoch() {
        let a = Collector::new();
        let b = a.clone();
        let h = a.register();
        h.advance_until_quiescent();
        assert_eq!(a.epoch(), b.epoch());
        assert!(a.epoch() > 0);
    }

    #[test]
    fn independent_collectors_have_independent_epochs() {
        let a = Collector::new();
        let b = Collector::new();
        let h = a.register();
        h.advance_until_quiescent();
        assert!(a.epoch() > 0);
        assert_eq!(b.epoch(), 0);
    }

    #[test]
    fn debug_is_nonempty() {
        let c = Collector::new();
        assert!(!format!("{c:?}").is_empty());
    }
}
