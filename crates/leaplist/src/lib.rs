//! # leaplist — TM-supported linearizable range queries
//!
//! A Rust reproduction of **"Leaplist: Lessons Learned in Designing
//! TM-Supported Range Queries"** (Avni, Shavit, Suissa — PODC 2013).
//!
//! A Leap-List is a skip-list whose nodes are *fat*: each node stores up to
//! `K` immutable, sorted key-value pairs covering a key range, searched by
//! binary search. (The paper also embeds a bitwise trie in each node for
//! intra-node lookup; with `u64` keys it cost more than it saved, so nodes
//! here carry none — the root README's "Nodes carry no trie" records the
//! measurement.) Because node contents never mutate
//! (nodes are replaced wholesale, splitting or merging as they grow and
//! shrink), a linearizable range query only has to validate one pointer per
//! `K` keys instead of protecting every key — which is how it beats a
//! skip-list's range scan by an order of magnitude while staying
//! consistent.
//!
//! The crate provides the paper's four synchronization schemes as separate
//! types sharing one physical layout:
//!
//! | Type | Paper name | Scheme |
//! |------|-----------|--------|
//! | [`LeapListLt`] | Leap-LT | COP search + Locking Transactions (the proposal) |
//! | [`LeapListCop`] | Leap-COP | COP search + fully transactional writes |
//! | [`LeapListTm`] | Leap-tm | every operation inside one transaction |
//! | [`LeapListRwlock`] | Leap-rwlock | one reader-writer lock per list |
//!
//! All four implement [`RangeMap`] and offer the paper's composite
//! multi-list `update_batch` / `remove_batch` (one linearizable action
//! across `L` lists — the motivating use case is updating several database
//! table indexes atomically). They also share one plan shape: every write
//! replaces a run of nodes by a freshly built chain, and the variants
//! differ only in how they synchronise that replacement.
//!
//! # Quickstart
//!
//! ```
//! use leaplist::{LeapListLt, Params};
//!
//! let index: LeapListLt<String> = LeapListLt::new(Params::default());
//! index.update(1001, "alice".to_string());
//! index.update(1002, "bob".to_string());
//! index.update(1007, "carol".to_string());
//!
//! // Linearizable range query: a consistent snapshot of [1000, 1005].
//! let page = index.range_query(1000, 1005);
//! assert_eq!(page.len(), 2);
//! assert_eq!(page[0].1, "alice");
//! ```
//!
//! # Keys
//!
//! Keys are `u64`; the value `u64::MAX` is reserved for the tail sentinel
//! (operations panic on it). Values are any `Clone + Send + Sync`
//! type.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod api;
mod bundle;
mod node;
mod params;
mod plan;
mod raw;
mod variants;
mod wire;

pub use api::{BatchOp, RangeMap};
pub use params::Params;
pub use variants::cop::LeapListCop;
pub use variants::lt::{LeapListLt, ListSnapshot};
pub use variants::rwlock::LeapListRwlock;
pub use variants::tm::LeapListTm;

/// The largest usable key (`u64::MAX` is reserved for the tail sentinel).
pub const MAX_KEY: u64 = u64::MAX - 1;
