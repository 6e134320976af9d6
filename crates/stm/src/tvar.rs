//! Transactional variables.

use crate::word::Word;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A word-sized shared variable usable both inside transactions
/// ([`Txn::read`](crate::Txn::read) / [`Txn::write`](crate::Txn::write))
/// and through *naked* atomic access (COP traversals, LT release phases).
///
/// # Example
///
/// ```
/// use leap_stm::{atomically, StmDomain, TVar};
/// let d = StmDomain::new();
/// let v = TVar::new(1u64);
/// atomically(&d, |tx| {
///     let x = tx.read(&v)?;
///     tx.write(&v, x + 1)
/// });
/// assert_eq!(v.naked_load(), 2);
/// ```
#[repr(transparent)]
pub struct TVar<T> {
    pub(crate) cell: AtomicUsize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Word> TVar<T> {
    /// Creates a variable holding `value`.
    pub fn new(value: T) -> Self {
        TVar {
            cell: AtomicUsize::new(value.to_word()),
            _marker: PhantomData,
        }
    }

    /// Uninstrumented atomic load (acquire ordering).
    ///
    /// This is the access used by the read-only prefix of a COP operation:
    /// no orec is consulted. Transactions publish their writes only at
    /// commit, so the value is always a committed one.
    #[inline]
    pub fn naked_load(&self) -> T {
        T::from_word(self.cell.load(Ordering::Acquire))
    }

    /// Uninstrumented atomic store (release ordering). Used by the LT
    /// release-and-update phase, after the locking transaction committed.
    #[inline]
    pub fn naked_store(&self, value: T) {
        self.cell.store(value.to_word(), Ordering::Release);
    }

    /// Uninstrumented compare-and-swap on the word representation.
    ///
    /// Used by lock-free structures (the paper's Skip-cas baseline) that
    /// share the [`TVar`]/[`TaggedPtr`](crate::TaggedPtr) machinery without
    /// running transactions.
    ///
    /// # Errors
    ///
    /// Returns the observed value if it differs from `current`.
    #[inline]
    pub fn naked_compare_exchange(&self, current: T, new: T) -> Result<T, T> {
        self.cell
            .compare_exchange(
                current.to_word(),
                new.to_word(),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .map(T::from_word)
            .map_err(T::from_word)
    }

    #[inline]
    pub(crate) fn addr(&self) -> usize {
        &self.cell as *const AtomicUsize as usize
    }
}

impl<T: Word + std::fmt::Debug> std::fmt::Debug for TVar<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("TVar").field(&self.naked_load()).finish()
    }
}

impl<T: Word + Default> Default for TVar<T> {
    fn default() -> Self {
        TVar::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaggedPtr;

    #[test]
    fn naked_roundtrip() {
        let v = TVar::new(5u64);
        assert_eq!(v.naked_load(), 5);
        v.naked_store(9);
        assert_eq!(v.naked_load(), 9);
    }

    #[test]
    fn tagged_ptr_var() {
        let node = Box::into_raw(Box::new(77u64));
        let v: TVar<TaggedPtr<u64>> = TVar::new(TaggedPtr::new(node));
        assert!(!v.naked_load().is_marked());
        v.naked_store(v.naked_load().marked());
        assert!(v.naked_load().is_marked());
        assert_eq!(v.naked_load().as_ptr(), node);
        // SAFETY: the test owns `node`; freed exactly once.
        drop(unsafe { Box::from_raw(node) });
    }

    #[test]
    fn tvar_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TVar<u64>>();
        assert_send_sync::<TVar<TaggedPtr<u64>>>();
    }
}
