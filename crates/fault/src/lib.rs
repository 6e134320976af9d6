//! Deterministic fault injection for the Leap-List stack.
//!
//! A [`FaultPlan`] names a seed and, per [`FaultPoint`], a firing rate (in
//! parts per million of visits) and an optional budget (maximum number of
//! fires). An armed [`FaultInjector`] evaluates the plan with a seeded
//! [SplitMix64] hash over `(seed, point, visit#)`, so a given seed produces
//! the same fire/no-fire decision sequence at every point on every run —
//! chaos-suite failures reproduce from the seed alone.
//!
//! Injection is opt-in and costless when off: components hold an
//! `Option<Arc<FaultInjector>>` and the disabled path is a single `None`
//! branch; no global state, no clock reads, no allocation.
//!
//! # Injection points
//!
//! | name | fires inside |
//! |------|--------------|
//! | `stm_commit` | `Txn::commit` entry — the transaction aborts as a commit-time conflict |
//! | `stm_validate` | commit-time read validation — validation reports failure |
//! | `migration_chunk` | a migration chunk transaction — the chunk is dropped, its frontier stays put, and the next rebalance step retries it |
//! | `admission` | the `Batcher`'s admission gate — the op is refused with `Overloaded` before it runs |
//!
//! (`Txn::commit` is `leap_stm::Txn::commit`; this crate only names the
//! points, the components owning each site decide what a fire means.)
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c
//!
//! # Example
//!
//! ```
//! use leap_fault::{FaultInjector, FaultPlan, FaultPoint};
//! let plan = FaultPlan::new(42)
//!     .with_rate(FaultPoint::StmCommit, 250_000) // 25 % of commits
//!     .with_budget(FaultPoint::StmCommit, 3);    // ...but at most 3 total
//! let inj = FaultInjector::new(plan);
//! let fired = (0..1000).filter(|_| inj.should_fire(FaultPoint::StmCommit)).count();
//! assert_eq!(fired, 3, "budget caps the schedule");
//! // Same seed, same visits => same decisions.
//! let again = FaultInjector::new(FaultPlan::new(42).with_rate(FaultPoint::StmCommit, 250_000));
//! let a: Vec<bool> = (0..64).map(|_| again.should_fire(FaultPoint::StmCommit)).collect();
//! let b = FaultInjector::new(FaultPlan::new(42).with_rate(FaultPoint::StmCommit, 250_000));
//! let c: Vec<bool> = (0..64).map(|_| b.should_fire(FaultPoint::StmCommit)).collect();
//! assert_eq!(a, c);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};

/// One fire decision per million visits at the maximum rate.
pub const RATE_SCALE: u64 = 1_000_000;

/// A named place in the stack where a fault may be injected. See the crate
/// docs for what a fire means at each point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// Entry of `Txn::commit`: forced commit-time conflict abort.
    StmCommit = 0,
    /// Commit-time read validation: forced validation failure.
    StmValidate = 1,
    /// One migration drain chunk: the chunk transaction is skipped.
    MigrationChunk = 2,
    /// The `Batcher`'s admission gate: the op is refused before it runs.
    Admission = 3,
}

/// Number of distinct injection points.
pub const POINTS: usize = 4;

impl FaultPoint {
    /// Every injection point, in tag order.
    pub const ALL: [FaultPoint; POINTS] = [
        FaultPoint::StmCommit,
        FaultPoint::StmValidate,
        FaultPoint::MigrationChunk,
        FaultPoint::Admission,
    ];

    /// The point's stable snake_case name (used in docs, stats, and CI
    /// output).
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::StmCommit => "stm_commit",
            FaultPoint::StmValidate => "stm_validate",
            FaultPoint::MigrationChunk => "migration_chunk",
            FaultPoint::Admission => "admission",
        }
    }
}

impl std::fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A seeded, declarative fault schedule: per-point firing rates and budgets.
///
/// The plan is inert data; arm it with [`FaultInjector::new`]. Rates are in
/// visits per [`RATE_SCALE`] (`1_000_000` = fire on every visit); budgets
/// cap the total number of fires at a point (`u64::MAX` = unlimited).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    rates: [u64; POINTS],
    budgets: [u64; POINTS],
}

impl FaultPlan {
    /// An empty plan (no point ever fires) under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rates: [0; POINTS],
            budgets: [u64::MAX; POINTS],
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets `point`'s firing rate in parts per million of visits, clamped
    /// to [`RATE_SCALE`].
    pub fn with_rate(mut self, point: FaultPoint, rate_ppm: u64) -> Self {
        self.rates[point as usize] = rate_ppm.min(RATE_SCALE);
        self
    }

    /// Makes `point` fire on every visit (rate = [`RATE_SCALE`]).
    pub fn always(self, point: FaultPoint) -> Self {
        self.with_rate(point, RATE_SCALE)
    }

    /// Caps `point` at `max_fires` total fires.
    pub fn with_budget(mut self, point: FaultPoint, max_fires: u64) -> Self {
        self.budgets[point as usize] = max_fires;
        self
    }

    /// The configured rate for `point` (parts per million).
    pub fn rate(&self, point: FaultPoint) -> u64 {
        self.rates[point as usize]
    }

    /// The configured budget for `point` (`u64::MAX` = unlimited).
    pub fn budget(&self, point: FaultPoint) -> u64 {
        self.budgets[point as usize]
    }
}

/// SplitMix64: a tiny, high-quality 64-bit mixer. Deterministic and
/// dependency-free, which is the whole point here.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-point visit/fire counters for one armed schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PointStats {
    /// Times [`FaultInjector::should_fire`] was asked about the point.
    pub visits: u64,
    /// Times it answered "fire".
    pub fires: u64,
}

/// An armed [`FaultPlan`]: answers "should this visit fail?" with a
/// decision that is a pure function of `(seed, point, visit#)`.
///
/// Thread-safe; per-point visit numbering is a single relaxed
/// `fetch_add`. Under concurrency the *assignment* of visit numbers to
/// threads is scheduling-dependent, but the decision *sequence* per point
/// is fixed by the seed — the total number of fires in N visits is exact.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    visits: [AtomicU64; POINTS],
    fires: [AtomicU64; POINTS],
}

impl FaultInjector {
    /// Arms a plan with fresh counters.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            visits: Default::default(),
            fires: Default::default(),
        }
    }

    /// The plan this injector evaluates.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Records one visit to `point` and decides whether it should fail.
    ///
    /// Visits past the point's budget never fire; a zero-rate point costs
    /// one relaxed load.
    #[inline]
    pub fn should_fire(&self, point: FaultPoint) -> bool {
        let i = point as usize;
        let rate = self.plan.rates[i];
        if rate == 0 {
            return false;
        }
        // ORDERING: per-point visit ticket; the RMW keeps tickets unique
        // and the deterministic hash below only needs *a* ticket, not a
        // globally ordered one.
        let n = self.visits[i].fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(
            self.plan.seed.wrapping_mul(0xA076_1D64_78BD_642F)
                ^ (i as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB)
                ^ n,
        );
        if h % RATE_SCALE >= rate {
            return false;
        }
        // Charge the fire against the budget; once spent, the schedule goes
        // quiet (the counter never records more fires than the budget).
        let budget = self.plan.budgets[i];
        // ORDERING: the budget is enforced by the CAS itself (never more
        // successful increments than `budget`); no other data is published
        // on a fire, so Relaxed everywhere suffices.
        let mut cur = self.fires[i].load(Ordering::Relaxed);
        loop {
            if cur >= budget {
                return false;
            }
            match self.fires[i].compare_exchange_weak(
                cur,
                cur + 1,
                // ORDERING: as above — counting RMW, no publication.
                Ordering::Relaxed,
                // ORDERING: failure value just reseeds the loop.
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Counters for one point.
    pub fn stats(&self, point: FaultPoint) -> PointStats {
        let i = point as usize;
        PointStats {
            // ORDERING: diagnostic counter read; staleness is acceptable.
            visits: self.visits[i].load(Ordering::Relaxed),
            // ORDERING: as above — diagnostic counter read.
            fires: self.fires[i].load(Ordering::Relaxed),
        }
    }

    /// Total fires at `point` so far.
    pub fn fires(&self, point: FaultPoint) -> u64 {
        // ORDERING: diagnostic counter read; staleness is acceptable.
        self.fires[point as usize].load(Ordering::Relaxed)
    }

    /// `(name, visits, fires)` for every point, in tag order — handy for
    /// chaos-suite failure messages.
    pub fn report(&self) -> Vec<(&'static str, u64, u64)> {
        FaultPoint::ALL
            .iter()
            .map(|&p| {
                let s = self.stats(p);
                (p.name(), s.visits, s.fires)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn zero_rate_never_fires() {
        let inj = FaultInjector::new(FaultPlan::new(7));
        for _ in 0..1000 {
            assert!(!inj.should_fire(FaultPoint::MigrationChunk));
        }
        assert_eq!(inj.stats(FaultPoint::MigrationChunk).fires, 0);
        // Zero-rate points do not even count visits (disabled fast path).
        assert_eq!(inj.stats(FaultPoint::MigrationChunk).visits, 0);
    }

    #[test]
    fn always_fires_until_budget_spent() {
        let plan = FaultPlan::new(1)
            .always(FaultPoint::Admission)
            .with_budget(FaultPoint::Admission, 5);
        let inj = FaultInjector::new(plan);
        let fired = (0..100)
            .filter(|_| inj.should_fire(FaultPoint::Admission))
            .count();
        assert_eq!(fired, 5);
        assert_eq!(inj.fires(FaultPoint::Admission), 5);
        assert_eq!(inj.stats(FaultPoint::Admission).visits, 100);
    }

    #[test]
    fn same_seed_same_schedule_distinct_seeds_differ() {
        let mk = |seed| {
            let inj =
                FaultInjector::new(FaultPlan::new(seed).with_rate(FaultPoint::StmCommit, 300_000));
            (0..256)
                .map(|_| inj.should_fire(FaultPoint::StmCommit))
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(99), mk(99), "replay is exact");
        assert_ne!(mk(99), mk(100), "seeds decorrelate");
    }

    #[test]
    fn points_are_decorrelated_under_one_seed() {
        let plan = FaultPlan::new(5)
            .with_rate(FaultPoint::StmCommit, 500_000)
            .with_rate(FaultPoint::StmValidate, 500_000);
        let inj = FaultInjector::new(plan);
        let a: Vec<bool> = (0..256)
            .map(|_| inj.should_fire(FaultPoint::StmCommit))
            .collect();
        let b: Vec<bool> = (0..256)
            .map(|_| inj.should_fire(FaultPoint::StmValidate))
            .collect();
        assert_ne!(a, b, "per-point streams must not mirror each other");
    }

    #[test]
    fn rate_is_roughly_respected() {
        let inj = FaultInjector::new(
            FaultPlan::new(1234).with_rate(FaultPoint::MigrationChunk, 100_000), // 10 %
        );
        let fired = (0..20_000)
            .filter(|_| inj.should_fire(FaultPoint::MigrationChunk))
            .count();
        // 10 % of 20k = 2000; allow a wide deterministic band.
        assert!((1500..2500).contains(&fired), "fired {fired} of 20000");
    }

    #[test]
    fn concurrent_visits_respect_budget_exactly() {
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::new(77)
                .always(FaultPoint::StmCommit)
                .with_budget(FaultPoint::StmCommit, 40),
        ));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let inj = inj.clone();
                std::thread::spawn(move || {
                    (0..1000)
                        .filter(|_| inj.should_fire(FaultPoint::StmCommit))
                        .count()
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 40, "budget is exact even under races");
    }

    #[test]
    fn names_are_stable_and_unique() {
        let names: Vec<_> = FaultPoint::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec!["stm_commit", "stm_validate", "migration_chunk", "admission"]
        );
        assert_eq!(format!("{}", FaultPoint::StmCommit), "stm_commit");
    }

    #[test]
    fn report_lists_every_point_in_order() {
        let inj = FaultInjector::new(FaultPlan::new(3).always(FaultPoint::StmValidate));
        let _ = inj.should_fire(FaultPoint::StmValidate);
        let rep = inj.report();
        assert_eq!(rep.len(), POINTS);
        assert_eq!(rep[1], ("stm_validate", 1, 1));
    }
}
