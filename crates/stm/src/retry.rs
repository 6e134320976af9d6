//! Retry loops, contention backoff, and bounded-retry budgets.

use crate::domain::StmDomain;
use crate::txn::{TxResult, Txn};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Bounds for a retry loop: give up after a wall-clock deadline and/or a
/// maximum number of attempts, whichever comes first. The default policy is
/// unbounded (equivalent to [`atomically`]).
///
/// # Example
///
/// ```
/// use leap_stm::RetryPolicy;
/// use std::time::Duration;
/// let p = RetryPolicy::default()
///     .max_attempts(100)
///     .timeout(Duration::from_millis(5));
/// assert!(!p.is_unbounded());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RetryPolicy {
    max_attempts: Option<u64>,
    deadline: Option<Instant>,
}

impl RetryPolicy {
    /// Gives up after `n` attempts (`n` is clamped to at least 1).
    pub fn max_attempts(mut self, n: u64) -> Self {
        self.max_attempts = Some(n.max(1));
        self
    }

    /// Gives up once `deadline` passes.
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Gives up `timeout` from now (convenience over [`RetryPolicy::deadline`]).
    pub fn timeout(self, timeout: Duration) -> Self {
        self.deadline(Instant::now() + timeout)
    }

    /// Whether this policy never gives up.
    pub fn is_unbounded(&self) -> bool {
        self.max_attempts.is_none() && self.deadline.is_none()
    }
}

/// A bounded retry loop gave up: the transaction kept aborting until the
/// policy's deadline or attempt budget ran out. Carries how many attempts
/// were made; the transactional state is unchanged (every attempt rolled
/// back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeout {
    /// Failed attempts made before giving up.
    pub attempts: u64,
}

impl std::fmt::Display for Timeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "transaction retry budget exhausted after {} attempts",
            self.attempts
        )
    }
}

impl std::error::Error for Timeout {}

/// Thread-local retry budget installed by [`with_retry_budget`] and ticked
/// by [`Backoff::snooze`]: `deadline`/`attempts_left` mirror the policy,
/// `used` counts snoozes taken under the budget.
#[derive(Debug, Clone, Copy)]
struct BudgetState {
    deadline: Option<Instant>,
    attempts_left: u64,
    used: u64,
}

thread_local! {
    static RETRY_BUDGET: Cell<Option<BudgetState>> = const { Cell::new(None) };
}

/// Unwind payload used to abandon a hand-rolled retry loop mid-flight. Not
/// a panic in the error sense: [`with_retry_budget`] catches it (via
/// `resume_unwind`, so the panic hook never runs) and turns it into a typed
/// [`Timeout`].
struct TimeoutUnwind(Timeout);

/// Charges one retry against the installed budget, if any; once the budget
/// is spent, marks the active trace span timed out and unwinds with a
/// [`TimeoutUnwind`].
#[inline]
fn budget_tick() {
    RETRY_BUDGET.with(|cell| {
        let Some(mut s) = cell.get() else { return };
        s.used += 1;
        let exhausted =
            s.used >= s.attempts_left || s.deadline.is_some_and(|d| Instant::now() >= d);
        if exhausted {
            // Disarm before unwinding so backoffs run during cleanup (or
            // in an outer scope after recovery) don't re-trigger.
            cell.set(None);
            // Mark the op's span while it is still open: it drops during
            // the unwind with the timeout already attributed.
            leap_obs::trace::note_abort(leap_obs::trace::AbortCause::Timeout);
            leap_obs::trace::note_outcome(leap_obs::OpOutcome::Timeout);
            std::panic::resume_unwind(Box::new(TimeoutUnwind(Timeout { attempts: s.used })));
        }
        cell.set(Some(s));
    });
}

/// Bounded exponential backoff used between transaction attempts.
///
/// Spins for short waits and yields to the scheduler once the wait grows,
/// which matters on over-subscribed machines (the evaluation oversubscribes
/// cores heavily).
///
/// # Example
///
/// ```
/// let mut b = leap_stm::Backoff::new();
/// b.snooze();
/// b.snooze();
/// assert!(b.attempts() == 2);
/// ```
#[derive(Debug, Default)]
pub struct Backoff {
    attempt: u32,
}

impl Backoff {
    /// Spin limit exponent after which we yield instead of spinning.
    const SPIN_LIMIT: u32 = 6;
    /// Hard cap on the exponent.
    const CAP: u32 = 12;

    /// Creates a fresh backoff.
    pub fn new() -> Self {
        Backoff { attempt: 0 }
    }

    /// Number of times [`Backoff::snooze`] has been called.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Waits an exponentially growing amount before the next attempt.
    ///
    /// Also charges one retry against the thread's installed
    /// [`with_retry_budget`] scope, if any; when that budget is spent the
    /// enclosing scope returns [`Timeout`] instead of retrying further.
    pub fn snooze(&mut self) {
        budget_tick();
        let e = self.attempt.min(Self::CAP);
        if e <= Self::SPIN_LIMIT {
            for _ in 0..(1u32 << e) {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        self.attempt += 1;
    }
}

/// Runs `body` in a transaction, retrying with backoff until it commits,
/// and returns the body's result.
///
/// The closure may be executed many times; it must be idempotent apart from
/// its transactional effects. Operations that also have a non-transactional
/// prefix to re-execute (COP) should hand-roll the loop with [`Txn::begin`].
///
/// # Example
///
/// ```
/// use leap_stm::{atomically, StmDomain, TVar};
/// let d = StmDomain::new();
/// let v = TVar::new(0u64);
/// let seen = atomically(&d, |tx| {
///     let x = tx.read(&v)?;
///     tx.write(&v, x + 1)?;
///     Ok(x)
/// });
/// assert_eq!(seen, 0);
/// assert_eq!(v.naked_load(), 1);
/// ```
pub fn atomically<'d, R>(
    domain: &'d StmDomain,
    mut body: impl FnMut(&mut Txn<'d>) -> TxResult<R>,
) -> R {
    let mut backoff = Backoff::new();
    loop {
        let mut tx = Txn::begin(domain);
        match body(&mut tx) {
            Ok(r) => {
                if tx.commit().is_ok() {
                    if let Some(rec) = domain.recorder() {
                        // attempts() counts snoozes = failed tries.
                        rec.record_attempts(u64::from(backoff.attempts()) + 1);
                    }
                    return r;
                }
            }
            Err(_) => drop(tx),
        }
        backoff.snooze();
    }
}

/// Runs `f` with a thread-local retry budget installed: every
/// [`Backoff::snooze`] on this thread (i.e. every failed transactional
/// attempt, including those inside hand-rolled loops such as the Leap-List
/// operations) charges the budget, and once it is spent the innermost
/// `with_retry_budget` scope returns `Err(Timeout)` instead of letting the
/// loop spin on.
///
/// This is how layers above bound operations whose retry loops they do not
/// own: wrap the whole call. Interrupted attempts roll back through the
/// normal [`Txn`] drop path, so the transactional state is unchanged on
/// timeout. Scopes nest; each installs its own budget and restores the
/// outer one on exit. An unbounded policy makes this a plain call.
///
/// The active trace span, if any, is marked timed out before the unwind.
/// Counting the timeout on a domain ([`StmDomain::record_timeout`]) is the
/// caller's job, because this function cannot know which domain(s) `f`
/// touched. The store-level form that does both is `LeapStore::bounded`.
///
/// # Errors
///
/// [`Timeout`] when the budget ran out before `f` returned.
///
/// # Example
///
/// ```
/// use leap_stm::{with_retry_budget, RetryPolicy};
/// // Unbounded budget: just runs the closure.
/// let out = with_retry_budget(RetryPolicy::default(), || 21 * 2);
/// assert_eq!(out, Ok(42));
/// ```
pub fn with_retry_budget<R>(policy: RetryPolicy, f: impl FnOnce() -> R) -> Result<R, Timeout> {
    if policy.is_unbounded() {
        return Ok(f());
    }
    let state = BudgetState {
        deadline: policy.deadline,
        attempts_left: policy.max_attempts.unwrap_or(u64::MAX),
        used: 0,
    };
    let prev = RETRY_BUDGET.with(|cell| cell.replace(Some(state)));
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    RETRY_BUDGET.with(|cell| cell.set(prev));
    match out {
        Ok(r) => Ok(r),
        Err(payload) => match payload.downcast::<TimeoutUnwind>() {
            Ok(t) => Err(t.0),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StmFaultPoint, TVar};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// Attaches a fault hook that fails the next commit once `arm` is set,
    /// then disarms itself.
    fn fail_one_commit(d: &StmDomain) -> Arc<AtomicBool> {
        let arm = Arc::new(AtomicBool::new(false));
        let hook_arm = arm.clone();
        assert!(d.set_fault_hook(Arc::new(move |p| {
            p == StmFaultPoint::Commit && hook_arm.swap(false, Ordering::SeqCst)
        })));
        arm
    }

    #[test]
    fn backoff_grows() {
        let mut b = Backoff::new();
        for _ in 0..20 {
            b.snooze();
        }
        assert_eq!(b.attempts(), 20);
    }

    #[test]
    fn atomically_commits() {
        let d = StmDomain::new();
        let v = TVar::new(10u64);
        atomically(&d, |tx| {
            let x = tx.read(&v)?;
            tx.write(&v, x + 5)
        });
        assert_eq!(v.naked_load(), 15);
    }

    #[test]
    fn atomically_retries_until_commit() {
        // Single-threaded determinism: an injected commit-time conflict
        // fails the first attempt, and the retry commits.
        let d = StmDomain::with_orec_bits(10);
        fail_one_commit(&d).store(true, Ordering::SeqCst);
        let v = TVar::new(0u64);
        let mut calls = 0;
        atomically(&d, |tx| {
            calls += 1;
            let x = tx.read(&v)?;
            tx.write(&v, x + 1)
        });
        assert_eq!(calls, 2);
        assert_eq!(v.naked_load(), 1, "the failed attempt published nothing");
        assert_eq!(d.stats().conflict_commit_aborts, 1);
    }

    #[test]
    fn retry_budget_bounds_a_hand_rolled_loop() {
        let d = StmDomain::new();
        let v = TVar::new(0u64);
        // A hand-rolled loop in the style of the Leap-List operations that
        // can never commit; the budget must cut it off.
        let r = with_retry_budget(RetryPolicy::default().max_attempts(5), || loop {
            let mut backoff = Backoff::new();
            let mut tx = Txn::begin(&d);
            let _ = tx.read(&v);
            let _ = tx.explicit_abort();
            drop(tx);
            backoff.snooze();
        });
        let t = r.expect_err("the loop never commits");
        assert_eq!(t.attempts, 5);
        // State untouched; the thread's budget is disarmed again.
        assert_eq!(v.naked_load(), 0);
        let mut b = Backoff::new();
        b.snooze();
        assert_eq!(b.attempts(), 1, "no budget armed outside the scope");
    }

    #[test]
    fn retry_budget_deadline_fires_without_attempt_cap() {
        let d = StmDomain::new();
        let v = TVar::new(0u64);
        // A deadline alone, with no attempt cap, cuts a never-committing
        // loop off.
        let policy = RetryPolicy::default().timeout(std::time::Duration::from_millis(10));
        let r = with_retry_budget(policy, || loop {
            let mut backoff = Backoff::new();
            let mut tx = Txn::begin(&d);
            let _ = tx.read(&v);
            let _ = tx.explicit_abort();
            drop(tx);
            backoff.snooze();
        });
        let t = r.expect_err("the deadline must fire");
        assert!(t.attempts >= 1);
        assert_eq!(v.naked_load(), 0);
    }

    #[test]
    fn retry_budget_scopes_nest_and_restore() {
        let inner = with_retry_budget(RetryPolicy::default().max_attempts(100), || {
            with_retry_budget(RetryPolicy::default().max_attempts(2), || {
                let mut b = Backoff::new();
                loop {
                    b.snooze();
                }
            })
        });
        // Inner scope timed out; outer scope survived and returned it.
        assert_eq!(inner, Ok(Err(Timeout { attempts: 2 })));
    }

    #[test]
    fn foreign_panics_pass_through_the_budget_scope() {
        let caught = std::panic::catch_unwind(|| {
            let _ = with_retry_budget(RetryPolicy::default().max_attempts(3), || {
                panic!("not a timeout")
            });
        });
        assert!(caught.is_err(), "real panics must not be swallowed");
    }

    #[test]
    fn timeout_formats_and_is_an_error() {
        let t = Timeout { attempts: 12 };
        let msg = format!("{t}");
        assert!(msg.contains("12 attempts"), "{msg}");
        let _: &dyn std::error::Error = &t;
    }

    #[test]
    fn recorder_sees_per_txn_attempt_counts() {
        use crate::StmRecorder;

        let d = StmDomain::with_orec_bits(10);
        let retries = Arc::new(leap_obs::Histogram::new());
        assert!(d.set_recorder(StmRecorder::new(retries.clone())));
        assert!(
            !d.set_recorder(StmRecorder::new(retries.clone())),
            "second attach is refused"
        );
        let fail_next = fail_one_commit(&d);

        let v = TVar::new(0u64);
        // First-try success.
        atomically(&d, |tx| {
            let x = tx.read(&v)?;
            tx.write(&v, x + 1)
        });
        // One forced retry: the first commit attempt fails.
        fail_next.store(true, Ordering::SeqCst);
        atomically(&d, |tx| tx.write(&v, 1));
        let s = retries.snapshot();
        assert_eq!(s.count, 2, "two successful transactions recorded");
        assert_eq!(s.quantile_permille(1), 1, "one committed first try");
        assert!(s.max >= 2, "the other needed at least one retry: {}", s.max);
    }
}
