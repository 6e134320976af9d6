//! Striped atomic counters and gauges.
//!
//! A [`Counter`] spreads increments over several cache-line-padded
//! stripes, indexed by a per-thread slot, so concurrent hot-path bumps
//! from different cores do not bounce one cache line. Reads sum the
//! stripes; they are monotone but not a point-in-time snapshot of a
//! single instant (the usual statistical-counter contract).

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Stripes per counter. A power of two; more than typical core counts
/// collide on, small enough that summing stays cheap.
pub const STRIPES: usize = 16;

/// Pads an atomic to its own cache line.
#[repr(align(128))]
struct PaddedU64(AtomicU64);

/// The calling thread's stripe slot in `0..STRIPES`, assigned round-robin
/// on first use. Public so other striped instruments (the store's
/// per-shard counter rows) spread threads exactly as [`Counter`] does.
pub fn stripe_of() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        // ORDERING: round-robin ticket; uniqueness comes from the RMW,
        // not from ordering.
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    STRIPE.with(|s| *s) & (STRIPES - 1)
}

/// A monotone event counter, striped to avoid write contention.
///
/// ```
/// let c = leap_obs::Counter::new();
/// c.add(3);
/// c.inc();
/// assert_eq!(c.get(), 4);
/// ```
pub struct Counter {
    stripes: Box<[PaddedU64]>,
}

impl Counter {
    /// A fresh zero counter.
    pub fn new() -> Self {
        Counter {
            stripes: (0..STRIPES).map(|_| PaddedU64(AtomicU64::new(0))).collect(),
        }
    }

    /// Adds `n`. The stripe saturates at `u64::MAX` instead of wrapping,
    /// so sustained runs can never report a counter going backwards.
    #[inline]
    pub fn add(&self, n: u64) {
        let _ = self.stripes[stripe_of()]
            .0
            // ORDERING: monotone stat stripe; readers sum stripes and
            // only need an eventually-consistent total.
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(n))
            });
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total (saturating sum over stripes).
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            // ORDERING: eventually-consistent stat read; no publication
            // rides on the per-stripe values.
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::saturating_add)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A signed point-in-time gauge (single atomic — gauges are read as often
/// as written, so striping would not help).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh zero gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        // ORDERING: diagnostic gauge; no publication rides on it.
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        // ORDERING: diagnostic gauge; the RMW keeps deltas exact.
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        // ORDERING: diagnostic gauge read; staleness is acceptable.
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(Counter::new());
        let threads = 8;
        let per = 10_000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..per {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), threads * per);
    }

    /// Satellite: near-`u64::MAX` additions saturate — the counter pins
    /// at `u64::MAX` and never wraps backwards.
    #[test]
    fn counter_saturates_at_max_instead_of_wrapping() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        let before = c.get();
        c.add(u64::MAX);
        c.add(5);
        let after = c.get();
        assert!(after >= before, "saturating add is monotone");
        assert_eq!(after, u64::MAX);
    }

    #[test]
    fn gauge_tracks_sets_and_deltas() {
        let g = Gauge::new();
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }
}
