//! Allocation budget of the write path's bookkeeping.
//!
//! A single-key write allocates only its data — the replacement node, its
//! `next` array, its pair buffer and two bundle entries — and no
//! bookkeeping: the STM's read, write and lock sets come from a
//! per-thread pool, a node deferral stores a bare pointer, and LT keeps a
//! one-list, one-op write's op group, plan, segment and result inline.
//! This binary swaps in a global allocator that counts every allocation
//! and reallocation into a thread-local, so tests running in parallel on
//! other threads do not skew each other's counts.

use leap_stm::{StmDomain, TVar, Txn};
use leaplist::{LeapListLt, Params};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn tick() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the thread-local tally is a const-initialised `Cell` that
// never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `GlobalAlloc`'s contract, forwarded to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `GlobalAlloc`'s contract, forwarded to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: `GlobalAlloc`'s contract, forwarded to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        // SAFETY: forwarded caller contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: `GlobalAlloc`'s contract, forwarded to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded caller contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn txn_32r_32w(d: &StmDomain, vars: &[TVar<u64>]) {
    let mut tx = Txn::begin(d);
    let mut sum = 0;
    for v in &vars[..32] {
        sum += tx.read(v).unwrap();
    }
    for v in &vars[32..] {
        tx.write(v, sum).unwrap();
    }
    tx.commit().unwrap();
}

#[test]
fn a_32_read_32_write_txn_allocates_nothing() {
    let d = StmDomain::new();
    let vars: Vec<TVar<u64>> = (0..64).map(TVar::new).collect();
    txn_32r_32w(&d, &vars);
    assert_eq!(allocs_in(|| txn_32r_32w(&d, &vars)), 0);
}

#[test]
fn defer_drop_box_allocates_nothing() {
    let collector = leap_ebr::Collector::new();
    let handle = collector.register();
    let boxes: Vec<*mut u64> = (0..4_096).map(|i| Box::into_raw(Box::new(i))).collect();
    let (warm, counted) = boxes.split_at(1_024);
    let defer_all = |ptrs: &[*mut u64]| {
        for &p in ptrs {
            let guard = handle.pin();
            // SAFETY: `p` came from `Box::into_raw` and is deferred once.
            unsafe { guard.defer_drop_box(p) };
        }
    };
    defer_all(warm);
    assert_eq!(allocs_in(|| defer_all(counted)), 0);
    handle.advance_until_quiescent();
}

#[test]
fn lookup_allocates_nothing() {
    let list: LeapListLt<u64> = LeapListLt::new(Params::default());
    for k in 0..1_000 {
        list.update(k, k);
    }
    assert_eq!(list.lookup(7), Some(7));
    assert_eq!(
        allocs_in(|| {
            for k in 0..1_000 {
                assert_eq!(list.lookup(k), Some(k));
            }
        }),
        0
    );
}

#[test]
fn update_overwrite_stays_within_budget() {
    // One node (K = 300 holds every key), overwritten in place.
    let list: LeapListLt<u64> = LeapListLt::new(Params::default());
    for k in 0..16 {
        list.update(k, k);
    }
    for i in 0..1_000 {
        list.update(i % 16, i);
    }
    const N: u64 = 10_000;
    let total = allocs_in(|| {
        for i in 0..N {
            list.update(i % 16, i);
        }
    });
    let per_update = total as f64 / N as f64;
    // Measured 5.0 (release and debug alike) plus half an allocation.
    assert!(
        per_update <= 5.5,
        "update allocates {per_update:.1} times per overwrite (budget 5.5)"
    );
    assert_eq!(list.lookup(15), Some(N - 1));
}
