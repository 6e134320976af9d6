//! Allocation budget of the store's single-key writes.
//!
//! On a settled store a `put`, a `delete` and a one-op `apply` each run
//! one list write, which allocates only its data (replacement node,
//! `next` array, pair buffer, two bundle entries), and the store adds
//! nothing on top but a one-op `apply`'s result vector. Each budget is
//! the count measured when it was set (5.0, 5.0 and 6.0 per op, release
//! and debug alike) plus half an allocation, so one extra `Vec` per op
//! breaks it.
//!
//! This binary swaps in a global allocator that counts every allocation
//! and reallocation into a thread-local, so tests running in parallel on
//! other threads do not skew each other's counts.

use leap_store::{BatchOp, LeapStore, Partitioning, StoreConfig};
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

const KEYS: u64 = 4_096;
const N: u64 = 10_000;

/// Allocations (and reallocations) `f` makes on this thread.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

/// A settled four-shard store holding every even key below [`KEYS`],
/// warmed by a round of overwrites so the thread's pools are primed.
fn settled() -> LeapStore<u64> {
    let store = LeapStore::new(StoreConfig::new(4, Partitioning::Range).with_key_space(KEYS));
    for k in (0..KEYS).step_by(2) {
        store.put(k, k);
    }
    for k in (0..KEYS).step_by(2) {
        store.put(k, k + 1);
    }
    assert!(store.router().migration().is_none(), "nothing migrates");
    store
}

/// The `i`-th key written: even, so present in [`settled`], and spread
/// over every shard.
fn key(i: u64) -> u64 {
    (i * 2 * 7919) % KEYS
}

fn assert_within(what: &str, total: u64, budget: f64) {
    let per_op = total as f64 / N as f64;
    assert!(
        per_op <= budget,
        "{what} allocates {per_op:.2} times per op (budget {budget})"
    );
}

#[test]
fn put_overwrite_stays_within_budget() {
    let store = settled();
    let (_, total) = allocs_in(|| {
        for i in 0..N {
            assert!(store.put(key(i), i).is_some());
        }
    });
    assert_within("put", total, 5.5);
}

#[test]
fn delete_stays_within_budget() {
    let store = settled();
    // Every delete removes a present key; the put that restores it is
    // not counted.
    let mut total = 0;
    for i in 0..N {
        let (prev, n) = allocs_in(|| store.delete(key(i)));
        assert!(prev.is_some());
        total += n;
        store.put(key(i), i);
    }
    assert_within("delete", total, 5.5);
}

#[test]
fn single_op_apply_stays_within_budget() {
    let store = settled();
    let (_, total) = allocs_in(|| {
        for i in 0..N {
            let prev = store.apply(&[BatchOp::Update(key(i), i)]);
            assert!(prev[0].is_some());
        }
    });
    assert_within("one-op apply", total, 6.5);
}
