//! Transactions: TL2-style write-back.

use crate::domain::{orec_is_locked, orec_version, StmDomain, StmFaultPoint};
use crate::tvar::TVar;
use crate::word::Word;
use std::cell::Cell;
use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Why a transactional operation could not proceed.
///
/// An `Abort` is not an error in the application sense: the enclosing retry
/// loop ([`atomically`](crate::atomically) or a hand-written one, as in the
/// Leap-List operations) re-executes the transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Abort {
    /// A conflicting transaction owns or has updated a location we touched.
    Conflict,
    /// The program requested an abort (the paper's `tx_abort`, e.g. when a
    /// COP validation discovers the read-only prefix is stale).
    Explicit,
}

impl std::fmt::Display for Abort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Abort::Conflict => write!(f, "transaction aborted: conflict"),
            Abort::Explicit => write!(f, "transaction aborted: explicit"),
        }
    }
}

impl std::error::Error for Abort {}

/// Result type of transactional operations.
pub type TxResult<T> = Result<T, Abort>;

struct WriteEntry {
    addr: usize,
    cell: *const AtomicUsize,
    val: usize,
    orec: u32,
}

/// How many times commit spins on a locked orec before giving up.
const LOCK_SPIN_LIMIT: u32 = 64;

/// Largest capacity a set may have and still go back to the pool: one
/// huge transaction must not pin its buffers to the thread for good.
const POOL_CAP: usize = 4096;

/// A transaction's read, write and commit-lock sets. Each thread keeps one
/// cleared, boxed set of buffers between transactions, so a transaction
/// grows its sets from the last one's capacity instead of from empty. The
/// box makes taking and returning the sets one pointer move.
#[derive(Default)]
struct Sets {
    read: Vec<u32>,
    write: Vec<WriteEntry>,
    locks: Vec<(u32, u64)>,
}

thread_local! {
    static POOL: Cell<Option<Box<Sets>>> = const { Cell::new(None) };
}

impl Sets {
    /// The thread's pooled sets, or fresh ones when another live
    /// transaction on this thread holds them (or the thread is exiting).
    fn take() -> Box<Sets> {
        POOL.try_with(Cell::take).ok().flatten().unwrap_or_default()
    }

    /// Clears the sets and pools them, dropping any that outgrew
    /// [`POOL_CAP`]. A no-op while the thread's locals are torn down.
    fn give_back(mut self: Box<Self>) {
        fn reset<T>(v: &mut Vec<T>) {
            v.clear();
            if v.capacity() > POOL_CAP {
                *v = Vec::new();
            }
        }
        reset(&mut self.read);
        reset(&mut self.write);
        reset(&mut self.locks);
        let _ = POOL.try_with(|p| p.set(Some(self)));
    }

    /// Capacity of the pooled read set, if the thread has pooled sets.
    #[cfg(test)]
    fn pooled_read_capacity() -> Option<usize> {
        POOL.with(|p| {
            let sets = p.take();
            let cap = sets.as_ref().map(|s| s.read.capacity());
            p.set(sets);
            cap
        })
    }
}

/// An in-flight transaction on some [`StmDomain`].
///
/// Create with [`Txn::begin`], finish with [`Txn::commit`]. Dropping a
/// transaction without committing discards its buffered writes.
///
/// The paper's operations use hand-written retry loops around `begin` /
/// `commit` because the non-transactional COP prefix must also be
/// re-executed on abort; [`atomically`](crate::atomically) packages the
/// common case.
///
/// # Example
///
/// ```
/// use leap_stm::{StmDomain, TVar, Txn};
/// let d = StmDomain::new();
/// let v = TVar::new(10u64);
/// loop {
///     let mut tx = Txn::begin(&d);
///     let body = (|| {
///         let x = tx.read(&v)?;
///         tx.write(&v, x * 2)
///     })();
///     if body.is_ok() && tx.commit().is_ok() {
///         break;
///     }
/// }
/// assert_eq!(v.naked_load(), 20);
/// ```
pub struct Txn<'d> {
    domain: &'d StmDomain,
    rv: u64,
    /// Read set, write set and commit lock list (`(orec, pre-lock word)`,
    /// sorted by orec), pooled per thread; handed back by `Drop` only.
    sets: ManuallyDrop<Box<Sets>>,
    completed: bool,
    explicit: bool,
    poisoned: bool,
    /// Whether the (non-explicit) failure was detected at commit time
    /// (lock acquisition / final validation) rather than while the body
    /// ran — drives the conflict-cause attribution in [`Stats`].
    commit_conflict: bool,
}

impl<'d> Txn<'d> {
    /// Starts a transaction: samples the global clock as the read version.
    pub fn begin(domain: &'d StmDomain) -> Self {
        Txn {
            domain,
            rv: domain.clock_load(),
            sets: ManuallyDrop::new(Sets::take()),
            completed: false,
            explicit: false,
            poisoned: false,
            commit_conflict: false,
        }
    }

    /// The domain this transaction runs on.
    pub fn domain(&self) -> &'d StmDomain {
        self.domain
    }

    /// Requests an explicit abort (the paper's `tx_abort`). Returns the
    /// [`Abort::Explicit`] value so call sites can write
    /// `return Err(tx.explicit_abort());`.
    pub fn explicit_abort(&mut self) -> Abort {
        self.explicit = true;
        self.poisoned = true;
        Abort::Explicit
    }

    fn conflict(&mut self) -> Abort {
        self.poisoned = true;
        Abort::Conflict
    }

    /// Transactional read.
    ///
    /// Returns the buffered value if this transaction already wrote `var`. The borrow of `var` must outlive the
    /// transaction's lifetime `'d` — in the Leap-List this is guaranteed by
    /// epoch pinning.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] if `var`'s ownership record is locked by another
    /// transaction or has advanced past this transaction's (extensible)
    /// read snapshot.
    // Inlined so the per-access barrier stays inline in the caller's
    // body whichever codegen unit rustc places the instantiation in.
    #[inline]
    pub fn read<T: Word>(&mut self, var: &'d TVar<T>) -> TxResult<T> {
        if self.poisoned {
            return Err(Abort::Conflict);
        }
        let addr = var.addr();
        // Read-after-write: serve from the redo buffer.
        if let Some(e) = self.sets.write.iter().rev().find(|e| e.addr == addr) {
            return Ok(T::from_word(e.val));
        }
        let oi = self.domain.orec_index(addr);
        let o1 = self.domain.orec_load(oi);
        if orec_is_locked(o1) {
            return Err(self.conflict());
        }
        let v = var.cell.load(Ordering::Acquire);
        let o2 = self.domain.orec_load(oi);
        if o2 != o1 {
            return Err(self.conflict());
        }
        if orec_version(o1) > self.rv {
            self.extend()?;
            // The stripe must not have moved while we extended.
            if self.domain.orec_load(oi) != o1 {
                return Err(self.conflict());
            }
        }
        self.sets.read.push(oi);
        Ok(T::from_word(v))
    }

    /// Transactional write: buffers the value until commit, so no other
    /// thread, naked or transactional, sees it before then.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] if the transaction is already poisoned.
    pub fn write<T: Word>(&mut self, var: &'d TVar<T>, value: T) -> TxResult<()> {
        if self.poisoned {
            return Err(Abort::Conflict);
        }
        let addr = var.addr();
        let val = value.to_word();
        if let Some(e) = self.sets.write.iter_mut().find(|e| e.addr == addr) {
            e.val = val;
        } else {
            self.sets.write.push(WriteEntry {
                addr,
                cell: &var.cell,
                val,
                orec: self.domain.orec_index(addr),
            });
        }
        Ok(())
    }

    /// Attempts to move the read snapshot forward (lazy snapshot extension):
    /// succeeds iff nothing read so far has changed.
    fn extend(&mut self) -> TxResult<()> {
        let new_rv = self.domain.clock_load();
        for &oi in &self.sets.read {
            let o = self.domain.orec_load(oi);
            if orec_is_locked(o) || orec_version(o) > self.rv {
                return Err(self.conflict());
            }
        }
        self.rv = new_rv;
        Ok(())
    }

    /// Validates the read set against snapshot `rv`. `mine` lists orecs this
    /// transaction has locked, sorted, together with their *pre-lock* words:
    /// for those we must validate the version as it was before we locked it
    /// (the lock itself does not vouch for the reads made earlier).
    fn validate_reads(&self, mine: &[(u32, u64)]) -> bool {
        if self.domain.fault_fires(StmFaultPoint::Validate) {
            return false;
        }
        for &oi in &self.sets.read {
            let o = self.domain.orec_load(oi);
            let version = if orec_is_locked(o) {
                match mine.binary_search_by_key(&oi, |(i, _)| *i) {
                    Ok(k) => orec_version(mine[k].1),
                    Err(_) => return false,
                }
            } else {
                orec_version(o)
            };
            if version > self.rv {
                return false;
            }
        }
        true
    }

    /// Attempts to commit.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] if commit-time locking or read validation fails;
    /// the transaction is rolled back and all its effects discarded.
    pub fn commit(self) -> Result<(), Abort> {
        self.commit_stamped().map(|_| ())
    }

    /// Attempts to commit and returns the commit timestamp: the global
    /// clock value this commit installed (the version its write stripes
    /// were released at). A read-only transaction performs no clock bump
    /// and returns its read snapshot instead — the newest timestamp its
    /// reads are consistent at. Version-bundle stamping uses the returned
    /// value to tag the structures the commit published.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] exactly as [`Txn::commit`].
    pub fn commit_stamped(mut self) -> Result<u64, Abort> {
        if self.poisoned {
            // The Drop impl discards the writes and counts the abort.
            return Err(Abort::Conflict);
        }
        if self.domain.fault_fires(StmFaultPoint::Commit) {
            // Injected commit-time conflict: the Drop impl discards the
            // writes and attributes the abort like any other commit conflict.
            self.commit_conflict = true;
            return Err(Abort::Conflict);
        }
        if self.sets.write.is_empty() {
            self.completed = true;
            self.domain
                .stats
                .read_only_commits
                // ORDERING: monotonic stat counter; no publication rides on it.
                .fetch_add(1, Ordering::Relaxed);
            return Ok(self.rv);
        }
        // Lock the write stripes in sorted order (deadlock avoidance with
        // bounded spinning as a safety net).
        let Sets { write, locks, .. } = &mut **self.sets;
        locks.extend(write.iter().map(|e| (e.orec, 0)));
        locks.sort_unstable_by_key(|(oi, _)| *oi);
        locks.dedup_by_key(|(oi, _)| *oi);
        let mut acquired = 0usize;
        'locking: for i in 0..self.sets.locks.len() {
            let oi = self.sets.locks[i].0;
            let mut spins = 0;
            loop {
                let o = self.domain.orec_load(oi);
                if !orec_is_locked(o) && self.domain.orec_try_lock(oi, o) {
                    self.sets.locks[i].1 = o;
                    acquired = i + 1;
                    continue 'locking;
                }
                spins += 1;
                if spins > LOCK_SPIN_LIMIT {
                    for &(oj, old) in &self.sets.locks[..acquired] {
                        self.domain.orec_restore(oj, old);
                    }
                    self.commit_conflict = true;
                    self.record_abort();
                    return Err(Abort::Conflict);
                }
                std::hint::spin_loop();
            }
        }
        let wv = self.domain.clock_bump();
        if self.rv + 1 != wv && !self.validate_reads(&self.sets.locks) {
            for &(oi, old) in &self.sets.locks {
                self.domain.orec_restore(oi, old);
            }
            self.commit_conflict = true;
            self.record_abort();
            return Err(Abort::Conflict);
        }
        // Publish the redo buffer, then release stripes at the new version.
        for e in &self.sets.write {
            // SAFETY: `cell` points into a TVar the caller kept alive for
            // 'd (enforced by `read`/`write` borrow lifetimes).
            unsafe { (*e.cell).store(e.val, Ordering::Release) };
        }
        for &(oi, _) in &self.sets.locks {
            self.domain.orec_unlock_to(oi, wv);
        }
        self.completed = true;
        // ORDERING: monotonic stat counter; no publication rides on it.
        self.domain.stats.commits.fetch_add(1, Ordering::Relaxed);
        Ok(wv)
    }

    fn record_abort(&mut self) {
        self.completed = true;
        let (ctr, cause) = if self.explicit {
            (
                &self.domain.stats.explicit_aborts,
                leap_obs::trace::AbortCause::Explicit,
            )
        } else if self.commit_conflict {
            (
                &self.domain.stats.conflict_commit_aborts,
                leap_obs::trace::AbortCause::ConflictCommit,
            )
        } else {
            // Encounter-time: a read/write/extension conflicted (or the
            // transaction was dropped uncommitted, which is accounted the
            // same way — the body never reached commit).
            (
                &self.domain.stats.conflict_read_aborts,
                leap_obs::trace::AbortCause::ConflictRead,
            )
        };
        // ORDERING: monotonic stat counter; no publication rides on it.
        ctr.fetch_add(1, Ordering::Relaxed);
        // Same attribution feeds the active leap-trace span, if one is
        // open on this thread (a no-op otherwise).
        leap_obs::trace::note_abort(cause);
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if !self.completed {
            self.record_abort();
        }
        // SAFETY: `sets` is taken once, here, and `self` is never used
        // again.
        unsafe { ManuallyDrop::take(&mut self.sets) }.give_back();
    }
}

impl std::fmt::Debug for Txn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Txn")
            .field("rv", &self.rv)
            .field("reads", &self.sets.read.len())
            .field("writes", &self.sets.write.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> StmDomain {
        StmDomain::with_orec_bits(10)
    }

    #[test]
    fn read_own_write() {
        let d = domain();
        let v = TVar::new(1u64);
        let mut tx = Txn::begin(&d);
        tx.write(&v, 5).unwrap();
        assert_eq!(tx.read(&v).unwrap(), 5);
        tx.commit().unwrap();
        assert_eq!(v.naked_load(), 5);
    }

    #[test]
    fn write_skew_on_same_var_is_detected() {
        let d = domain();
        let v = TVar::new(0u64);
        let mut t1 = Txn::begin(&d);
        let _ = t1.read(&v).unwrap();

        // t2 commits an update to v while t1 is live.
        let mut t2 = Txn::begin(&d);
        let x = t2.read(&v).unwrap();
        t2.write(&v, x + 1).unwrap();
        t2.commit().unwrap();

        // t1 read v before t2's commit; writing based on it must fail.
        let r = t1.write(&v, 99).and_then(|_| t1.commit());
        assert_eq!(r, Err(Abort::Conflict));
        assert_eq!(v.naked_load(), 1, "t1 must not clobber t2's update");
    }

    #[test]
    fn wb_naked_reader_never_sees_uncommitted() {
        let d = domain();
        let v = TVar::new(7u64);
        let mut t1 = Txn::begin(&d);
        t1.write(&v, 1234).unwrap();
        assert_eq!(v.naked_load(), 7, "write-back must buffer until commit");
        drop(t1);
        assert_eq!(v.naked_load(), 7);
    }

    #[test]
    fn snapshot_extension_allows_reading_newer_vars() {
        let d = domain();
        let a = TVar::new(0u64);
        let b = TVar::new(0u64);
        let mut t1 = Txn::begin(&d);
        // Another transaction commits to b after t1 began.
        let mut t2 = Txn::begin(&d);
        t2.write(&b, 42).unwrap();
        t2.commit().unwrap();
        // t1 has an empty read set, so extension succeeds.
        assert_eq!(t1.read(&b).unwrap(), 42);
        assert_eq!(t1.read(&a).unwrap(), 0);
        t1.commit().unwrap();
    }

    #[test]
    fn snapshot_extension_fails_when_reads_are_stale() {
        let d = domain();
        let a = TVar::new(0u64);
        let b = TVar::new(0u64);
        let mut t1 = Txn::begin(&d);
        assert_eq!(t1.read(&a).unwrap(), 0);
        // t2 commits to BOTH a and b: t1's read of a is now stale.
        let mut t2 = Txn::begin(&d);
        t2.write(&a, 1).unwrap();
        t2.write(&b, 1).unwrap();
        t2.commit().unwrap();
        assert_eq!(
            t1.read(&b),
            Err(Abort::Conflict),
            "extension must fail, a changed"
        );
    }

    #[test]
    fn explicit_abort_counts_and_poisons() {
        let d = domain();
        let v = TVar::new(0u64);
        let mut tx = Txn::begin(&d);
        tx.write(&v, 9).unwrap();
        let a = tx.explicit_abort();
        assert_eq!(a, Abort::Explicit);
        assert_eq!(tx.read(&v), Err(Abort::Conflict), "poisoned tx");
        drop(tx);
        assert_eq!(v.naked_load(), 0);
        assert_eq!(d.stats().explicit_aborts, 1);
    }

    #[test]
    fn commit_stamped_returns_the_installed_version() {
        let d = domain();
        let v = TVar::new(0u64);
        let mut tx = Txn::begin(&d);
        tx.write(&v, 1).unwrap();
        let wv = tx.commit_stamped().unwrap();
        assert_eq!(wv, d.clock());
        // A second writing commit gets a strictly newer stamp.
        let mut tx = Txn::begin(&d);
        tx.write(&v, 2).unwrap();
        let wv2 = tx.commit_stamped().unwrap();
        assert!(wv2 > wv);
        // Read-only commits return the read snapshot without bumping.
        let clock = d.clock();
        let mut tx = Txn::begin(&d);
        assert_eq!(tx.read(&v).unwrap(), 2);
        assert_eq!(tx.commit_stamped().unwrap(), clock);
        assert_eq!(d.clock(), clock);
    }

    #[test]
    fn read_only_commit_counted() {
        let d = domain();
        let v = TVar::new(3u64);
        let mut tx = Txn::begin(&d);
        assert_eq!(tx.read(&v).unwrap(), 3);
        tx.commit().unwrap();
        assert_eq!(d.stats().read_only_commits, 1);
        assert_eq!(d.stats().commits, 0);
    }

    #[test]
    fn orec_collisions_are_safe() {
        // 2 orecs: nearly everything collides. Transactions must still be
        // serializable (no lost updates), just with more false conflicts.
        let d = StmDomain::with_orec_bits(1);
        let vars: Vec<TVar<u64>> = (0..8).map(|_| TVar::new(0)).collect();
        for i in 0..64u64 {
            let vi = (i % 8) as usize;
            loop {
                let mut tx = Txn::begin(&d);
                let body = (|| {
                    let x = tx.read(&vars[vi])?;
                    tx.write(&vars[vi], x + 1)
                })();
                if body.is_ok() && tx.commit().is_ok() {
                    break;
                }
            }
        }
        let total: u64 = vars.iter().map(|v| v.naked_load()).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn conflict_causes_are_attributed_read_vs_commit() {
        let d = domain();
        let v = TVar::new(0u64);
        let mut t1 = Txn::begin(&d);
        let _ = t1.read(&v).unwrap();
        let mut t2 = Txn::begin(&d);
        let x = t2.read(&v).unwrap();
        t2.write(&v, x + 1).unwrap();
        t2.commit().unwrap();
        // t1's snapshot is stale; the buffered write goes through and the
        // commit-time validation catches it.
        let r = t1.write(&v, 99).and_then(|_| t1.commit());
        assert_eq!(r, Err(Abort::Conflict));

        let s = d.stats();
        assert_eq!(
            s.conflict_aborts,
            s.conflict_read_aborts + s.conflict_commit_aborts,
            "sum invariant"
        );
        assert_eq!(s.conflict_aborts, 1);
        assert_eq!(
            s.conflict_commit_aborts, 1,
            "stale reads are detected at commit validation"
        );
    }

    /// Holds `var`'s orec locked, as a committing writer would, until
    /// dropped.
    struct OrecHold<'d> {
        domain: &'d StmDomain,
        idx: u32,
        old: u64,
    }

    impl<'d> OrecHold<'d> {
        fn lock<T: Word>(domain: &'d StmDomain, var: &TVar<T>) -> Self {
            let idx = domain.orec_index(var.addr());
            let old = domain.orec_load(idx);
            assert!(domain.orec_try_lock(idx, old));
            OrecHold { domain, idx, old }
        }
    }

    impl Drop for OrecHold<'_> {
        fn drop(&mut self) {
            self.domain.orec_restore(self.idx, self.old);
        }
    }

    #[test]
    fn encounter_conflicts_count_as_read_aborts() {
        let d = domain();
        let v = TVar::new(0u64);
        let hold = OrecHold::lock(&d, &v);
        let mut t2 = Txn::begin(&d);
        assert_eq!(t2.read(&v), Err(Abort::Conflict), "orec is locked");
        drop(t2);
        let s = d.stats();
        assert_eq!(s.conflict_read_aborts, 1);
        assert_eq!(s.conflict_commit_aborts, 0);
        drop(hold);
        let mut t3 = Txn::begin(&d);
        t3.write(&v, 1).unwrap();
        t3.commit().unwrap();
    }

    #[test]
    fn commit_after_poison_fails_and_rolls_back() {
        let d = domain();
        let v = TVar::new(5u64);
        let w = TVar::new(5u64);
        let mut t1 = Txn::begin(&d);
        t1.write(&v, 6).unwrap();
        // Force a conflict: a committing writer holds w's orec.
        let hold = OrecHold::lock(&d, &w);
        assert_eq!(t1.read(&w), Err(Abort::Conflict));
        drop(hold);
        assert_eq!(t1.write(&w, 8), Err(Abort::Conflict), "poisoned t1");
        assert_eq!(t1.commit(), Err(Abort::Conflict));
        assert_eq!(v.naked_load(), 5, "poisoned t1 must not publish v");
        assert_eq!(w.naked_load(), 5);
    }

    #[test]
    fn two_live_txns_on_one_thread_both_commit() {
        let d = StmDomain::new();
        let (a, b) = (TVar::new(1u64), TVar::new(10u64));
        let mut t1 = Txn::begin(&d);
        let mut t2 = Txn::begin(&d);
        let x = t1.read(&a).unwrap();
        let y = t2.read(&b).unwrap();
        t1.write(&a, x + 1).unwrap();
        t2.write(&b, y + 1).unwrap();
        assert_eq!(t2.read(&b).unwrap(), 11, "t2 reads its own write");
        assert_eq!(t1.read(&a).unwrap(), 2, "t1 reads its own write");
        t2.commit().unwrap();
        t1.commit().unwrap();
        assert_eq!((a.naked_load(), b.naked_load()), (2, 11));
        // Both sets went back to the pool cleared: the next transaction
        // sees none of their entries.
        let mut t3 = Txn::begin(&d);
        assert!(t3.sets.read.is_empty() && t3.sets.write.is_empty() && t3.sets.locks.is_empty());
        t3.write(&a, 5).unwrap();
        t3.commit().unwrap();
        assert_eq!(a.naked_load(), 5);
    }

    #[test]
    fn txn_in_a_thread_local_destructor_does_not_panic() {
        use std::sync::atomic::AtomicBool;
        static COMMITTED: AtomicBool = AtomicBool::new(false);
        struct TxnOnDrop;
        impl Drop for TxnOnDrop {
            fn drop(&mut self) {
                let d = StmDomain::new();
                let v = TVar::new(1u64);
                let mut tx = Txn::begin(&d);
                tx.write(&v, 2).unwrap();
                tx.commit().unwrap();
                COMMITTED.store(v.naked_load() == 2, Ordering::SeqCst);
            }
        }
        thread_local! {
            static LATE: TxnOnDrop = const { TxnOnDrop };
        }
        // Both registration orders: the destructor's transaction runs
        // before and after the pool itself is torn down.
        for late_first in [true, false] {
            COMMITTED.store(false, Ordering::SeqCst);
            std::thread::spawn(move || {
                if late_first {
                    LATE.with(|_| ());
                }
                let d = StmDomain::new();
                let v = TVar::new(0u64);
                let mut tx = Txn::begin(&d);
                tx.write(&v, 1).unwrap();
                tx.commit().unwrap();
                if !late_first {
                    LATE.with(|_| ());
                }
            })
            .join()
            .unwrap();
            assert!(COMMITTED.load(Ordering::SeqCst), "late_first {late_first}");
        }
    }

    #[test]
    fn an_oversized_read_set_is_not_pooled() {
        let d = StmDomain::new();
        let v = TVar::new(3u64);
        let mut tx = Txn::begin(&d);
        for _ in 0..100_000 {
            assert_eq!(tx.read(&v).unwrap(), 3);
        }
        tx.commit().unwrap();
        assert_eq!(Sets::pooled_read_capacity(), Some(0), "dropped, not pooled");
        let mut tx = Txn::begin(&d);
        for _ in 0..32 {
            tx.read(&v).unwrap();
        }
        tx.commit().unwrap();
        let kept = Sets::pooled_read_capacity().unwrap();
        assert!(
            (32..=POOL_CAP).contains(&kept),
            "a small set is kept: {kept}"
        );
    }
}
