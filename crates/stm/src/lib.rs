//! # leap-stm — word-based software transactional memory
//!
//! Substrate crate for the Leap-List reproduction (PODC 2013). The paper
//! implements Leap-List on top of GCC 4.7's experimental transactional
//! memory (GCC-TM), a word-based STM whose default configuration is
//! *weakly isolated* and *write-through*. This crate keeps that
//! programming model — transactional and naked access to the same words —
//! on a TL2-style write-back engine instead:
//!
//! * [`TVar<T>`] — a transactional word (any [`Word`]-sized value: integers,
//!   booleans, tagged pointers). Supports both *instrumented* access inside
//!   a transaction and *naked* (uninstrumented) atomic access, which is what
//!   Consistency-Oblivious Programming (COP) traversals use.
//! * [`StmDomain`] — a transactional domain: a global version clock plus a
//!   striped table of versioned write-locks (ownership records, "orecs").
//! * [`Txn`] — a transaction with TL2-style lazy versioning. Reads are
//!   validated against the orecs and the read snapshot is extended lazily;
//!   writes are buffered and published at commit while the orec locks are
//!   held. Naked readers therefore never observe tentative data, which is
//!   stronger than GCC-TM's write-through weak isolation: the paper's
//!   marked-pointer protocol is still what makes a naked traversal
//!   consistent, but it never has to step around another transaction's
//!   uncommitted store.
//! * [`atomically`] — a retry loop with bounded exponential backoff: the
//!   whole-operation transactions of Leap-tm and Skip-tm run through it.
//!   Three Leap-List loops stay hand-rolled with [`Txn::begin`]: COP's
//!   write and the shared range read, whose uninstrumented prefix must
//!   run before each transaction begins, and LT's write, which takes a
//!   wiring ticket before its stamped commit.
//! * [`with_retry_budget`] — bounds every retry loop inside a call
//!   (including hand-rolled ones) by a [`RetryPolicy`] (deadline and/or
//!   attempt budget), surfacing a typed [`Timeout`] instead of spinning
//!   forever under pathological contention.
//!
//! # Example: atomic transfer
//!
//! ```
//! use leap_stm::{atomically, StmDomain, TVar};
//!
//! let domain = StmDomain::new();
//! let a = TVar::new(100u64);
//! let b = TVar::new(0u64);
//!
//! atomically(&domain, |tx| {
//!     let av = tx.read(&a)?;
//!     let bv = tx.read(&b)?;
//!     tx.write(&a, av - 30)?;
//!     tx.write(&b, bv + 30)?;
//!     Ok(())
//! });
//!
//! assert_eq!(a.naked_load(), 70);
//! assert_eq!(b.naked_load(), 30);
//! ```
//!
//! # Locking Transactions (LT)
//!
//! The paper's LT technique uses a transaction *only* to validate state and
//! acquire logical locks (mark pointers, clear `live` bits); the actual data
//! movement happens after commit through naked stores. This crate supports
//! that pattern directly: transactional reads/writes for the validation and
//! lock acquisition, then [`TVar::naked_store`] for the release phase.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(not(target_pointer_width = "64"))]
compile_error!("leap-stm requires a 64-bit target (word == u64)");

mod domain;
mod recorder;
mod retry;
mod stats;
mod tagged;
mod tvar;
mod txn;
mod word;

pub use domain::{
    SnapshotPin, StmDomain, StmFaultHook, StmFaultPoint, WiringTicket, DEFAULT_OREC_BITS,
};
pub use recorder::StmRecorder;
pub use retry::{atomically, with_retry_budget, Backoff, RetryPolicy, Timeout};
pub use stats::StatsSnapshot;
pub use tagged::TaggedPtr;
pub use tvar::TVar;
pub use txn::{Abort, TxResult, Txn};
pub use word::Word;

/// A transactional tagged-pointer cell: the building block for the
/// marked-pointer protocol of the Leap-List.
pub type TPtr<T> = TVar<TaggedPtr<T>>;
