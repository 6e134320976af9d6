//! The *release-and-update* phase (paper Figs. 10 and 13): the replacement
//! chain of a validated [`ChainSegment`] is laid out, the predecessors are
//! swung onto it and it is made live. The paper's two wirings — an update's
//! split and a remove's merge — are the one-op case of the same chain
//! layout, and the variants differ only in who performs the stores:
//!
//! - [`wire_chain`] + [`publish_segment`]: plain (naked) atomic stores
//!   after the LT transaction committed (old nodes dead, window pointers
//!   marked), with bundle stamping in between; the rwlock variant runs the
//!   same two under its write lock.
//! - [`wire_segment_tx`]: the COP and TM variants perform the predecessor
//!   swing and the `live = false` of the dying run as transactional
//!   writes, inside the transaction that validated the segment.
//!
//! Safety of LT's naked stores rests on the marked-pointer lease: every
//! `TVar` written here was marked inside the committed LT transaction, so
//! no concurrent transaction can validate a read of it (the mark is an
//! explicit-abort trigger and the orec version moved), and no other release
//! phase can own it (its transaction would have had to mark it first).

use crate::node::Node;
use crate::plan::ChainSegment;
use crate::variants::common::ValidatedSegment;
use leap_stm::{TaggedPtr, TxResult, Txn};

/// Lays out `seg`'s replacement chain: at each level `i`, every chain node
/// points at the next chain node taller than `i`, and the last one at
/// `exit(i)`, the dying run's external successor at that level. The chain
/// is unpublished (no shared pointer leads to it), so the stores are
/// exclusive.
///
/// # Safety
///
/// `seg`'s chain is unpublished and its pointers are valid under the
/// caller's guard (or lock).
unsafe fn lay_out_chain<V>(seg: &ChainSegment<V>, exit: impl Fn(usize) -> TaggedPtr<Node<V>>) {
    // SAFETY: this fn's contract; `level` is immutable after alloc.
    unsafe {
        for (j, &c) in seg.new.iter().enumerate() {
            let cn = &*c;
            for i in 0..cn.level {
                let ptr = match seg.new[j + 1..].iter().find(|&&d| (*d).level > i) {
                    Some(&d) => TaggedPtr::new(d),
                    None => exit(i),
                };
                cn.next[i].naked_store(ptr);
            }
        }
    }
}

/// The first replacement-chain node taller than level `i`: the target of
/// the level-`i` predecessor swing.
///
/// # Safety
///
/// `seg`'s pointers are valid under the caller's guard (or lock), and
/// `i < seg.wire_height`.
unsafe fn first_new_above<V>(seg: &ChainSegment<V>, i: usize) -> *mut Node<V> {
    // SAFETY: this fn's contract; `level` is immutable after alloc.
    let first = seg.new.iter().find(|&&d| unsafe { &*d }.level > i);
    // INVARIANT: i < wire_height == max level over the chain, so a witness
    // node exists.
    *first.expect("wire_height is the chain's maximum level")
}

/// Phase 1 of post-commit wiring: the replacement chain's internal and exit
/// pointers. The exits are read from the frozen dying nodes below the old
/// chain's height, and from the validated window (`na[i]`) above it. The
/// predecessor swing (`pa[i]` → first taller-than-`i` chain node) happens
/// in phase 2, [`publish_segment`] — version-bundle stamping slots in
/// between, because bundle appends are only safe while the level-0 window
/// pointer is still marked (the lease), and the publish swing is precisely
/// what ends it.
///
/// # Safety
///
/// Must only be called once, after the segment's LT transaction committed
/// (or under a lock excluding every other access), while holding the epoch
/// guard used for the plan. The dying run and the predecessor window were
/// marked by the committed transaction, so every store below runs under the
/// marked-pointer lease.
pub(crate) unsafe fn wire_chain<V>(seg: &ChainSegment<V>) {
    let exit = |i: usize| -> TaggedPtr<Node<V>> {
        // SAFETY: segment pointers valid under the caller's guard; the
        // dying nodes' outgoing pointers are frozen (marked), so naked
        // reads are stable.
        unsafe {
            match seg.old.iter().rev().find(|&&o| (*o).level > i) {
                Some(&o) => (*o).next[i].naked_load().unmarked(),
                None => TaggedPtr::new(seg.w.na[i]),
            }
        }
    };
    // SAFETY: the chain is still unpublished (this fn's contract).
    unsafe { lay_out_chain(seg, exit) };
}

/// Phase 2 of post-commit wiring: swing the predecessors and raise the
/// `live` flags — this is what publishes the chain, and what releases the
/// marked-pointer lease on the level-0 window. Any bundle stamping for
/// the segment must have completed before this call.
///
/// The swing target is `pa_wire(i)` — the window's `pa[i]` unless the
/// plan substituted an earlier same-commit segment's replacement node for
/// it (already wired: segments wire in key order).
///
/// # Safety
///
/// As for [`wire_chain`], which must already have run for `seg`.
pub(crate) unsafe fn publish_segment<V>(seg: &ChainSegment<V>) {
    // SAFETY: as for `wire_chain`.
    unsafe {
        for i in 0..seg.wire_height {
            let first = first_new_above(seg, i);
            (*seg.pa_wire(i)).next[i].naked_store(TaggedPtr::new(first));
        }
        for &c in &seg.new {
            (*c).live.naked_store(true);
        }
    }
}

/// Transactional wiring of a validated segment (the COP and TM variants,
/// which perform the pointer surgery *inside* the transaction): the chain
/// is laid out as [`wire_chain`] does, with its exits taken from the
/// validated pointers `v`, and made live; then the predecessor swings and
/// the dying run's `live = false` are transactional writes. The chain's
/// own fields are written naked — nothing reaches it before the swing
/// commits — which is only sound under a write-back domain (asserted at
/// construction of both variants).
///
/// # Safety
///
/// `v` is `seg`'s validation in this same `tx`; `seg`'s chain is
/// unpublished and its pointers guard-protected.
pub(crate) unsafe fn wire_segment_tx<'t, V: 'static>(
    tx: &mut Txn<'t>,
    seg: &ChainSegment<V>,
    v: &ValidatedSegment<V>,
) -> TxResult<()> {
    // SAFETY: this fn's contract: `v` validated `seg` in `tx`, the chain is
    // exclusive until the commit publishes it, and every pointer below is
    // guard-protected.
    unsafe {
        lay_out_chain(seg, |i| v.exit(seg, i));
        for &c in &seg.new {
            (*c).live.naked_store(true);
        }
        for i in 0..seg.wire_height {
            let first = first_new_above(seg, i);
            tx.write(&(*seg.pa_wire(i)).next[i], TaggedPtr::new(first))?;
        }
        for &o in &seg.old {
            tx.write(&(*o).live, false)?;
        }
    }
    Ok(())
}
