//! Commit/abort statistics, used by the evaluation harness.

use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Default)]
pub(crate) struct Stats {
    pub(crate) commits: AtomicU64,
    pub(crate) read_only_commits: AtomicU64,
    /// Conflicts detected while the body ran (a read/write/extension hit
    /// a locked or too-new ownership record).
    pub(crate) conflict_read_aborts: AtomicU64,
    /// Conflicts detected at commit time (write-lock acquisition or final
    /// read-set validation failed).
    pub(crate) conflict_commit_aborts: AtomicU64,
    pub(crate) explicit_aborts: AtomicU64,
    /// Bounded retry loops that gave up: [`crate::with_retry_budget`]
    /// timeouts that their caller attributed to this domain with
    /// [`crate::StmDomain::record_timeout`].
    pub(crate) timeouts: AtomicU64,
}

impl Stats {
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        // ORDERING: monotonic stat counters; a snapshot only needs
        // eventually-consistent values, no publication rides on them.
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let conflict_read = ld(&self.conflict_read_aborts);
        let conflict_commit = ld(&self.conflict_commit_aborts);
        StatsSnapshot {
            commits: ld(&self.commits),
            read_only_commits: ld(&self.read_only_commits),
            conflict_aborts: conflict_read + conflict_commit,
            conflict_read_aborts: conflict_read,
            conflict_commit_aborts: conflict_commit,
            explicit_aborts: ld(&self.explicit_aborts),
            timeouts: ld(&self.timeouts),
        }
    }
}

/// A point-in-time copy of a domain's transaction counters.
///
/// Retrieved with [`StmDomain::stats`](crate::StmDomain::stats). Counters
/// are updated with relaxed atomics; totals are exact once all transactions
/// have finished, and advisory while they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Transactions that committed after performing at least one write.
    pub commits: u64,
    /// Transactions that committed without writing.
    pub read_only_commits: u64,
    /// Aborts caused by conflicts (locked or too-new ownership records) —
    /// always the sum of [`StatsSnapshot::conflict_read_aborts`] and
    /// [`StatsSnapshot::conflict_commit_aborts`].
    pub conflict_aborts: u64,
    /// Conflict aborts detected **while the body ran**: a read, an
    /// in-place write, or a snapshot extension found an ownership record
    /// locked or newer than the read version.
    pub conflict_read_aborts: u64,
    /// Conflict aborts detected **at commit**: write-lock acquisition or
    /// the final read-set validation failed.
    pub conflict_commit_aborts: u64,
    /// Aborts requested by the program (`tx_abort` in the paper's
    /// pseudocode, e.g. a COP validation failure).
    pub explicit_aborts: u64,
    /// Bounded retry loops that exhausted their deadline or attempt budget
    /// and surfaced a typed [`Timeout`](crate::Timeout) instead of
    /// spinning. Not an abort category: the individual attempts are already
    /// counted under the abort counters above.
    pub timeouts: u64,
}

impl StatsSnapshot {
    /// Total commit count (writing + read-only).
    pub fn total_commits(&self) -> u64 {
        self.commits + self.read_only_commits
    }

    /// Total abort count (conflict + explicit).
    pub fn total_aborts(&self) -> u64 {
        self.conflict_aborts + self.explicit_aborts
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "commits={} (ro={}) aborts={} (conflict={} [read={}, commit={}], explicit={}) timeouts={}",
            self.total_commits(),
            self.read_only_commits,
            self.total_aborts(),
            self.conflict_aborts,
            self.conflict_read_aborts,
            self.conflict_commit_aborts,
            self.explicit_aborts,
            self.timeouts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_sums() {
        let s = StatsSnapshot {
            commits: 3,
            read_only_commits: 2,
            conflict_aborts: 4,
            conflict_read_aborts: 3,
            conflict_commit_aborts: 1,
            explicit_aborts: 1,
            timeouts: 2,
        };
        assert_eq!(s.total_commits(), 5);
        assert_eq!(s.total_aborts(), 5);
        assert!(format!("{s}").contains("commits=5"));
        assert!(format!("{s}").contains("read=3, commit=1"));
        assert!(format!("{s}").contains("timeouts=2"));
    }

    #[test]
    fn internal_counters_split_conflict_causes() {
        let raw = Stats::default();
        raw.conflict_read_aborts.store(7, Ordering::Relaxed);
        raw.conflict_commit_aborts.store(2, Ordering::Relaxed);
        let s = raw.snapshot();
        assert_eq!(s.conflict_aborts, 9, "public sum stays backward-compatible");
        assert_eq!(s.conflict_read_aborts, 7);
        assert_eq!(s.conflict_commit_aborts, 2);
    }
}
