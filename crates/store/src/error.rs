//! The store's graceful-degradation error surface: typed errors returned
//! by the bounded (`*_within`) operations and the [`crate::Batcher`]
//! admission gate, instead of unbounded retry loops or silent blocking.

/// Why a store operation was refused or gave up instead of blocking or
/// livelocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// The operation's [`leap_stm::RetryPolicy`] budget ran out before a
    /// transaction committed (pathological contention or injected
    /// faults). The store state is untouched by the failed attempt.
    Timeout {
        /// Transaction attempts consumed before giving up.
        attempts: u64,
    },
    /// The batcher's admission gate already had its configured number of
    /// ops in flight (or an injected `admission` fault fired): the op was
    /// refused at the door and did not run.
    Overloaded {
        /// Ops in flight through the gate at refusal time.
        queued: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Timeout { attempts } => {
                write!(
                    f,
                    "transaction retry budget exhausted after {attempts} attempts"
                )
            }
            StoreError::Overloaded { queued } => {
                write!(f, "batcher overloaded ({queued} ops in flight); op shed")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<leap_stm::Timeout> for StoreError {
    fn from(t: leap_stm::Timeout) -> Self {
        StoreError::Timeout {
            attempts: t.attempts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_degradation() {
        assert!(StoreError::Timeout { attempts: 9 }
            .to_string()
            .contains("9 attempts"));
        assert!(StoreError::Overloaded { queued: 4 }
            .to_string()
            .contains("4 ops in flight"));
        let from: StoreError = leap_stm::Timeout { attempts: 3 }.into();
        assert_eq!(from, StoreError::Timeout { attempts: 3 });
        let dyn_err: &dyn std::error::Error = &StoreError::Overloaded { queued: 1 };
        assert!(dyn_err.source().is_none());
    }
}
