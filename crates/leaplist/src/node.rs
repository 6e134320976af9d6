//! The Leap-List "fat" node (paper Fig. 2) and the pure functions that
//! derive replacement nodes for updates, removes, splits and merges.
//!
//! A node owns up to `K` **immutable** key-value pairs covering the key
//! range `(pred.high, high]`. Mutation never edits a node in place: the
//! node is replaced wholesale by one (update / remove / merge) or two
//! (split) freshly built nodes, which is what makes range queries cheap —
//! a consistent set of node pointers *is* a consistent set of keys.
//!
//! **Departure from the paper:** the paper's node also embeds an immutable
//! bitwise trie over its keys (§1.2, §2.1). Ours does not: keys here are
//! `u64`s, a binary search over the sorted pairs is faster than the trie
//! walk, and rebuilding the trie was about half of every replacement build
//! (root README, "Departures from the paper"). The trie survives as a
//! library item in `trie.rs`, measured by `benches/ablation.rs`.
//!
//! Replacement `data` is assembled at its final length from slices of the
//! source node(s), so a build is one allocation and one copy per new node.
//!
//! # Who owns a value
//!
//! That copy is **bitwise** ([`Pairs::copy_from`]): no `V::clone` runs, so a
//! value sits in every node version that carried it — the live one, and
//! older ones a pinned snapshot may still walk back onto — while exactly
//! one owner drops it. A node never drops the values it holds; a value is
//! dropped at exactly one of three points:
//!
//! - **Plan discarded** (abort, failed validation, retry): nothing. The new
//!   nodes hold copies of live nodes' values and of the batch's own op
//!   values, which the batch keeps for its next attempt.
//! - **Value leaves at a commit** (overwritten, or removed and not carried
//!   into the replacement): the commit records its slot on the dying node
//!   ([`Node::set_departed`]), and the node drops it when it is freed —
//!   after the same `Limbo` / `prune_bound()` wait and EBR grace that keep
//!   the node itself readable.
//! - **List dropped**: every value of the live chain, by
//!   [`Node::drop_values`].
//!
//! Returned old values, `get` and range reads still clone: the caller owns
//! what it is given.

use crate::bundle::Bundle;
use crate::params::Params;
use leap_stm::{TPtr, TVar, TaggedPtr};
use rand::Rng;
use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Hard cap on tower heights (the paper's experiments use 10).
pub const MAX_LEVEL_CAP: usize = 32;

/// Internal keys are public keys shifted by one so that the head sentinel's
/// `high == 0` sits below every key and the tail sentinel's
/// `high == u64::MAX` (the paper's +inf) sits above.
#[inline]
pub(crate) fn internal_key(key: u64) -> u64 {
    debug_assert!(key < u64::MAX);
    key + 1
}

#[inline]
pub(crate) fn public_key(ik: u64) -> u64 {
    debug_assert!(ik > 0);
    ik - 1
}

/// A Leap-List node. All fields except `live` and `next` are immutable
/// after publication.
pub(crate) struct Node<V> {
    /// Upper bound (inclusive) of this node's internal-key range.
    pub high: u64,
    /// COP validity mark: false while the node is being replaced or once it
    /// has been replaced.
    pub live: TVar<bool>,
    /// Tower height; `next.len() == level`.
    pub level: usize,
    /// Forward pointers, one per level; the low bit is the transactionally
    /// written mark of the paper's protocol.
    pub next: Box<[TPtr<Node<V>>]>,
    /// Sorted, immutable internal-key/value pairs. The node does not own
    /// these values (see the module docs): freeing it drops only the ones
    /// recorded in `departed`.
    pub data: Pairs<V>,
    /// Slots of `data` whose values left the list with this node, set once
    /// by the commit that unlinked it ([`Node::set_departed`]).
    departed: OnceLock<Box<[usize]>>,
    /// Commit timestamp that published this node; `u64::MAX` until the
    /// publishing commit's post-commit stamping (sentinels are seeded 0).
    pub created_ts: AtomicU64,
    /// Commit timestamp that unlinked this node; `u64::MAX` while live.
    pub retired_ts: AtomicU64,
    /// Timestamped version history of `next[0]` (see `bundle.rs`).
    pub bundle: Bundle<V>,
}

impl<V> Node<V> {
    /// Allocates an unpublished (non-live) node; returns a raw pointer
    /// owned by the caller until it is wired into the list. `data` is
    /// shrunk to its length: a chain rebuild's `split_off` leaves each
    /// chunk with the capacity of the whole remaining buffer.
    pub fn alloc(high: u64, level: usize, mut data: Pairs<V>) -> *mut Node<V> {
        debug_assert!((1..=MAX_LEVEL_CAP).contains(&level));
        debug_assert!(data.windows(2).all(|w| w[0].0 < w[1].0));
        data.0.shrink_to_fit();
        Box::into_raw(Box::new(Node {
            high,
            live: TVar::new(false),
            level,
            next: (0..level).map(|_| TVar::new(TaggedPtr::null())).collect(),
            data,
            departed: OnceLock::new(),
            created_ts: AtomicU64::new(u64::MAX),
            retired_ts: AtomicU64::new(u64::MAX),
            bundle: Bundle::new(),
        }))
    }

    /// Whether this node is on the snapshot chain at timestamp `ts`:
    /// published at-or-before `ts` and not yet retired at `ts`.
    pub fn visible_at(&self, ts: u64) -> bool {
        self.created_ts.load(Ordering::Acquire) <= ts
            && ts < self.retired_ts.load(Ordering::Acquire)
    }

    /// Number of key-value pairs stored.
    pub fn count(&self) -> usize {
        self.data.len()
    }

    /// Binary search for internal key `ik`: `Ok(i)` when `data[i]` holds
    /// it, otherwise `Err(i)` with the position it would be inserted at.
    pub fn search(&self, ik: u64) -> Result<usize, usize> {
        self.data.binary_search_by_key(&ik, |(k, _)| *k)
    }

    /// Index of internal key `ik` in `data`, if present.
    pub fn index_of(&self, ik: u64) -> Option<usize> {
        self.search(ik).ok()
    }

    /// Records the values that leave the list with this node: the `slots`
    /// of `data` its retiring commit overwrote or removed. They are dropped
    /// when the node is freed, and by nothing else. Called once, by the
    /// commit that unlinked the node, before it is handed to reclamation.
    /// A no-op when `V` needs no drop.
    pub fn set_departed(&self, slots: &[usize]) {
        if !std::mem::needs_drop::<V>() || slots.is_empty() {
            return;
        }
        let first = self.departed.set(slots.into()).is_ok();
        debug_assert!(first, "a node is retired by exactly one commit");
    }

    /// Drops every value this node holds; the list's own drop calls it on
    /// each node of the live chain, which owns its values outright.
    ///
    /// # Safety
    ///
    /// The node must be on the live chain of a list being dropped: no
    /// other node owns these values, and nothing reads them afterwards.
    pub unsafe fn drop_values(&mut self) {
        for pair in self.data.0.iter_mut() {
            // SAFETY: contract forwarded from this fn's `# Safety` section;
            // each slot is dropped once, here.
            unsafe { ManuallyDrop::drop(pair) };
        }
    }
}

impl<V> Drop for Node<V> {
    fn drop(&mut self) {
        if let Some(slots) = self.departed.take() {
            for &i in slots.iter() {
                // SAFETY: `set_departed` recorded `i` at the one commit that
                // took this value out of the list; every later node version
                // was built without it, so this is its only drop, and the
                // node is freed only once no reader can reach it.
                unsafe { ManuallyDrop::drop(&mut self.data.0[i]) };
            }
        }
    }
}

/// A node's sorted pairs, stored so that they are never dropped with the
/// node (see the module docs). Pairs are copied in bitwise, never cloned.
pub(crate) struct Pairs<V>(Vec<ManuallyDrop<(u64, V)>>);

impl<V> Pairs<V> {
    /// An empty buffer with room for exactly `n` pairs; the write path
    /// sizes every buffer to its final length.
    pub fn with_capacity(n: usize) -> Self {
        Pairs(Vec::with_capacity(n))
    }

    /// Appends a bitwise copy of `src`. The copies are not owned by this
    /// buffer: the values stay with whoever owned them before.
    pub fn copy_from(&mut self, src: &[(u64, V)]) {
        self.0.reserve(src.len());
        let len = self.0.len();
        // SAFETY: `reserve` made room for `src.len()` more elements past
        // `len`; `ManuallyDrop<T>` is `repr(transparent)` over `T`, so the
        // destination has `(u64, V)`'s layout; a fresh allocation cannot
        // overlap `src`; and the copied values are never dropped through
        // this buffer, so no value gains a second owner.
        unsafe {
            let dst = self.0.as_mut_ptr().add(len).cast::<(u64, V)>();
            std::ptr::copy_nonoverlapping(src.as_ptr(), dst, src.len());
            self.0.set_len(len + src.len());
        }
    }

    /// Appends `(ik, value)` as a bitwise copy of `value`, which stays owned
    /// by the caller (see `copy_from`).
    pub fn push(&mut self, ik: u64, value: &V) {
        // SAFETY: `ptr::read` of a valid `&V` makes a bitwise copy, which
        // goes straight into `ManuallyDrop` and is never dropped through
        // this buffer, so the value keeps its one owner.
        let copy = unsafe { std::ptr::read(value) };
        self.0.push(ManuallyDrop::new((ik, copy)));
    }

    /// `head ++ [(ik, value)] ++ tail` in one allocation of exactly that
    /// length, every pair copied bitwise.
    fn spliced(head: &[(u64, V)], ik: u64, value: &V, tail: &[(u64, V)]) -> Self {
        let mut data = Pairs::with_capacity(head.len() + 1 + tail.len());
        data.copy_from(head);
        data.push(ik, value);
        data.copy_from(tail);
        data
    }

    /// A bitwise copy of `src` in a buffer of exactly its length.
    fn copied(src: &[(u64, V)]) -> Self {
        let mut data = Pairs::with_capacity(src.len());
        data.copy_from(src);
        data
    }

    /// Splits off `self[at..]` (moved bitwise, as `Vec::split_off` does).
    pub fn split_off(&mut self, at: usize) -> Self {
        Pairs(self.0.split_off(at))
    }
}

impl<V> std::ops::Deref for Pairs<V> {
    type Target = [(u64, V)];

    fn deref(&self) -> &[(u64, V)] {
        // SAFETY: `ManuallyDrop<T>` is `repr(transparent)` over `T`, so the
        // buffer's elements have `(u64, V)`'s layout; a shared view drops
        // nothing.
        unsafe { std::slice::from_raw_parts(self.0.as_ptr().cast::<(u64, V)>(), self.0.len()) }
    }
}

/// Takes ownership of `pairs` into a node, for tests that build nodes by
/// hand. Like any pairs, they are dropped only as departures or by the
/// list's drop.
#[cfg(test)]
impl<V> From<Vec<(u64, V)>> for Pairs<V> {
    fn from(pairs: Vec<(u64, V)>) -> Self {
        Pairs(pairs.into_iter().map(ManuallyDrop::new).collect())
    }
}

/// Frees an unpublished or unlinked node.
///
/// # Safety
///
/// `ptr` must come from [`Node::alloc`] and be unreachable by other threads
/// (never published, or unlinked and past its grace period).
pub(crate) unsafe fn free_node<V>(ptr: *mut Node<V>) {
    // SAFETY: contract forwarded from this fn's `# Safety` section — `ptr`
    // is a `Node::alloc` box no other thread can reach.
    // lint:allow(reclamation-discipline): this is the single dealloc
    // primitive; every *published* node reaches it only via the
    // Limbo/prune_bound path in bundle.rs (or EBR grace), and unpublished
    // plan nodes are caller-owned by the `# Safety` contract.
    drop(unsafe { Box::from_raw(ptr) });
}

/// Draws a tower height in `1..=max` (geometric, p = 1/2).
pub(crate) fn random_level<R: Rng + ?Sized>(max: usize, rng: &mut R) -> usize {
    let bits: u64 = rng.gen();
    ((bits.trailing_ones() as usize) + 1).min(max)
}

/// The data layout for an update's replacement node(s) (paper Fig. 8 /
/// `CreateNewNodes`).
pub(crate) struct UpdateBuild<V> {
    /// Lower (or only) replacement node.
    pub n0: *mut Node<V>,
    /// Upper replacement node if the update split.
    pub n1: Option<*mut Node<V>>,
    /// Previous value if `ik` was already present.
    pub old_value: Option<V>,
    /// Slot of `n` whose value the update overwrites (it departs with `n`).
    pub overwritten: Option<usize>,
}

/// Builds the replacement node(s) for updating `ik -> value` in `n`. The
/// new pair is a bitwise copy of `*value`, which stays owned by the caller
/// until the commit that publishes it.
///
/// Splits when the node already holds `params.node_size` pairs (paper
/// Fig. 8 line 82): the lower half receives a fresh random level and a high
/// bound equal to its largest key; the upper half keeps the old node's
/// level and high bound.
pub(crate) fn build_update<V: Clone, R: Rng + ?Sized>(
    n: &Node<V>,
    ik: u64,
    value: &V,
    params: &Params,
    rng: &mut R,
) -> UpdateBuild<V> {
    debug_assert!(ik <= n.high);
    // The replacement contents are `head ++ [(ik, value)] ++ tail`, with the
    // overwritten pair (if any) left out between the two.
    let (head, tail, overwritten) = match n.search(ik) {
        Ok(i) => (&n.data[..i], &n.data[i + 1..], Some(i)),
        Err(i) => (&n.data[..i], &n.data[i..], None),
    };
    let old_value = overwritten.map(|i| n.data[i].1.clone());
    if n.count() == params.node_size {
        // Split (at most one, only at this node — paper §1.2): the lower
        // half takes the first `mid` pairs of the replacement contents, and
        // each half is copied straight from the source.
        let mid = (head.len() + 1 + tail.len()) / 2;
        let (lower, upper) = if head.len() < mid {
            let cut = mid - head.len() - 1;
            (
                Pairs::spliced(head, ik, value, &tail[..cut]),
                Pairs::copied(&tail[cut..]),
            )
        } else {
            (
                Pairs::copied(&head[..mid]),
                Pairs::spliced(&head[mid..], ik, value, tail),
            )
        };
        // INVARIANT: a split fires only at count == node_size, and
        // `Params::validate` rejects node_size < 2, so the contents hold at
        // least 2 pairs and the lower half holds mid = len/2 >= 1 of them.
        let lower_high = lower.last().expect("split halves are non-empty").0;
        let l0 = random_level(params.max_level, rng);
        let l1 = n.level;
        let n0 = Node::alloc(lower_high, l0, lower);
        let n1 = Node::alloc(n.high, l1, upper);
        UpdateBuild {
            n0,
            n1: Some(n1),
            old_value,
            overwritten,
        }
    } else {
        let n0 = Node::alloc(n.high, n.level, Pairs::spliced(head, ik, value, tail));
        UpdateBuild {
            n0,
            n1: None,
            old_value,
            overwritten,
        }
    }
}

/// The data layout for a remove's replacement node (paper Fig. 11 /
/// `RemoveAndMerge`).
pub(crate) struct RemoveBuild<V> {
    pub n_new: *mut Node<V>,
    pub old_value: V,
    /// Slot of `n0` whose value the remove takes out (it departs with `n0`).
    pub removed: usize,
}

/// Builds the replacement for removing `ik` from `n0`, merging in the
/// contents of `absorbed`, its level-0 successor, when given (the caller
/// checked that the combined population fits in one node).
///
/// Returns `None` if `ik` is not present in `n0` (the caller treats the
/// list as unchanged).
pub(crate) fn build_remove<V: Clone>(
    n0: &Node<V>,
    absorbed: Option<&Node<V>>,
    ik: u64,
) -> Option<RemoveBuild<V>> {
    let pos = n0.index_of(ik)?;
    let mut data = Pairs::with_capacity(n0.count() - 1 + absorbed.map_or(0, Node::count));
    data.copy_from(&n0.data[..pos]);
    data.copy_from(&n0.data[pos + 1..]);
    let (high, level) = match absorbed {
        Some(n1) => {
            data.copy_from(&n1.data);
            (n1.high, n0.level.max(n1.level))
        }
        None => (n0.high, n0.level),
    };
    Some(RemoveBuild {
        n_new: Node::alloc(high, level, data),
        old_value: n0.data[pos].1.clone(),
        removed: pos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;

    fn mk_node(keys: &[u64], level: usize, high: u64) -> *mut Node<u64> {
        let data: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k * 10)).collect();
        Node::alloc(high, level, data.into())
    }

    /// Borrow a test-owned node. Centralizes the one safety argument every
    /// test here relies on instead of repeating it per deref.
    fn node_ref<'a>(p: *mut Node<u64>) -> &'a Node<u64> {
        // SAFETY: nodes in this module come from `Node::alloc` and are never
        // wired into a list, so the pointer is exclusively owned by the test
        // thread and stays valid until its explicit `free` below.
        unsafe { &*p }
    }

    fn free(p: *mut Node<u64>) {
        // SAFETY: same exclusive-ownership argument as `node_ref`; every
        // test frees each pointer exactly once, at the end, after its last
        // borrow died.
        unsafe { free_node(p) }
    }

    fn keys_of(n: &Node<u64>) -> Vec<u64> {
        n.data.iter().map(|(k, _)| *k).collect()
    }

    #[test]
    fn alloc_and_index() {
        let n = mk_node(&[5, 9, 12], 3, 100);
        let node = node_ref(n);
        assert_eq!(node.count(), 3);
        assert_eq!(node.index_of(9), Some(1));
        assert_eq!(node.index_of(10), None);
        assert_eq!(node.index_of(12), Some(2));
        assert!(!node.live.naked_load());
        free(n);
    }

    #[test]
    fn index_of_probes_every_position() {
        let empty = mk_node(&[], 1, 100);
        assert_eq!(node_ref(empty).index_of(7), None);
        assert_eq!(node_ref(empty).search(7), Err(0));
        free(empty);

        let single = mk_node(&[7], 1, 100);
        assert_eq!(node_ref(single).index_of(7), Some(0));
        assert_eq!(node_ref(single).index_of(6), None);
        assert_eq!(node_ref(single).index_of(8), None);
        free(single);

        let keys: Vec<u64> = (1..=300).map(|i| i * 3).collect();
        let full = mk_node(&keys, 2, u64::MAX);
        let node = node_ref(full);
        assert_eq!(node.index_of(3), Some(0), "first");
        assert_eq!(node.index_of(900), Some(299), "last");
        assert_eq!(node.index_of(450), Some(149), "middle");
        assert_eq!(node.index_of(451), None, "between two keys");
        assert_eq!(node.search(451), Err(150));
        assert_eq!(node.index_of(2), None, "below the first key");
        assert_eq!(node.search(2), Err(0));
        assert_eq!(node.index_of(901), None, "above the last key");
        assert_eq!(node.search(901), Err(300));
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(node.index_of(k), Some(i));
        }
        free(full);
    }

    type Pairs = Vec<(u64, u64)>;

    /// The replacement contents as the multi-pass build derived them: clone
    /// the node, insert or overwrite in place, then cut at `len / 2` when
    /// the source was full. The one-pass build must agree with it.
    fn update_reference(
        src: &[(u64, u64)],
        ik: u64,
        value: u64,
        node_size: usize,
    ) -> (Pairs, Option<Pairs>, Option<u64>) {
        let mut data = src.to_vec();
        let old = match data.binary_search_by_key(&ik, |(k, _)| *k) {
            Ok(i) => Some(std::mem::replace(&mut data[i], (ik, value)).1),
            Err(i) => {
                data.insert(i, (ik, value));
                None
            }
        };
        if src.len() == node_size {
            let upper = data.split_off(data.len() / 2);
            (data, Some(upper), old)
        } else {
            (data, None, old)
        }
    }

    #[test]
    fn build_update_matches_the_multi_pass_reference() {
        let mut rng = rand::thread_rng();
        // Below, at and (for the split) on both sides of the cut, for an
        // even and an odd node size; every probe position of each node.
        for node_size in [2usize, 4, 5, 8] {
            let p = Params {
                node_size,
                max_level: 6,
                ..Params::default()
            };
            for len in 0..=node_size {
                let keys: Vec<u64> = (1..=len as u64).map(|i| i * 10).collect();
                let n = mk_node(&keys, 3, 1000);
                // Front, every gap, every present key, end.
                for ik in 1..=(len as u64 * 10 + 5) {
                    let b = build_update(node_ref(n), ik, &7, &p, &mut rng);
                    let (lower, upper, old) = update_reference(&node_ref(n).data, ik, 7, node_size);
                    assert_eq!(b.old_value, old, "K={node_size} len={len} ik={ik}");
                    let n0 = node_ref(b.n0);
                    assert_eq!(n0.data.to_vec(), lower, "K={node_size} len={len} ik={ik}");
                    match (b.n1, upper) {
                        (Some(n1), Some(upper)) => {
                            let n1 = node_ref(n1);
                            assert_eq!(n1.data.to_vec(), upper, "K={node_size} ik={ik}");
                            assert_eq!(n0.high, lower.last().unwrap().0);
                            assert_eq!((n1.high, n1.level), (1000, 3));
                            free(b.n1.unwrap());
                        }
                        (None, None) => {
                            assert_eq!((n0.high, n0.level), (1000, 3));
                        }
                        (got, want) => panic!(
                            "K={node_size} len={len} ik={ik}: split {} but reference {}",
                            got.is_some(),
                            want.is_some()
                        ),
                    }
                    free(b.n0);
                }
                free(n);
            }
        }
    }

    #[test]
    fn build_update_split_places_the_new_key_in_either_half() {
        let p = Params {
            node_size: 4,
            max_level: 6,
            ..Params::default()
        };
        let mut rng = rand::thread_rng();
        let n = mk_node(&[10, 20, 30, 40], 3, 1000);
        for (ik, lower, upper) in [
            (5u64, vec![5, 10], vec![20, 30, 40]),
            (15, vec![10, 15], vec![20, 30, 40]),
            (25, vec![10, 20], vec![25, 30, 40]),
            (45, vec![10, 20], vec![30, 40, 45]),
            // Overwriting a key of a full node splits too (4 pairs, 2/2).
            (20, vec![10, 20], vec![30, 40]),
            (30, vec![10, 20], vec![30, 40]),
        ] {
            let b = build_update(node_ref(n), ik, &1, &p, &mut rng);
            let n1 = b.n1.expect("full node must split");
            assert_eq!(keys_of(node_ref(b.n0)), lower, "ik={ik}");
            assert_eq!(keys_of(node_ref(n1)), upper, "ik={ik}");
            let new_pair = node_ref(b.n0)
                .data
                .iter()
                .chain(node_ref(n1).data.iter())
                .find(|(k, _)| *k == ik);
            assert_eq!(new_pair, Some(&(ik, 1)), "new value stored once");
            free(b.n0);
            free(n1);
        }
        free(n);
    }

    #[test]
    fn build_update_inserts_and_replaces() {
        let p = Params {
            node_size: 8,
            ..Params::default()
        };
        let mut rng = rand::thread_rng();
        let n = mk_node(&[2, 4, 6], 2, 100);
        // Insert new key.
        let b = build_update(node_ref(n), 5, &50, &p, &mut rng);
        assert!(b.n1.is_none());
        assert_eq!(b.old_value, None);
        let n0 = node_ref(b.n0);
        assert_eq!(
            n0.data.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![2, 4, 5, 6]
        );
        assert_eq!(n0.high, 100);
        assert_eq!(n0.level, 2);
        // Replace existing key.
        let b2 = build_update(n0, 4, &999, &p, &mut rng);
        assert_eq!(b2.old_value, Some(40));
        let n02 = node_ref(b2.n0);
        assert_eq!(n02.data[1], (4, 999));
        free(n);
        free(b.n0);
        free(b2.n0);
    }

    #[test]
    fn build_update_splits_full_node() {
        let p = Params {
            node_size: 4,
            max_level: 6,
            ..Params::default()
        };
        let mut rng = rand::thread_rng();
        let n = mk_node(&[10, 20, 30, 40], 3, 1000);
        let b = build_update(node_ref(n), 25, &1, &p, &mut rng);
        let n0 = node_ref(b.n0);
        let n1 = node_ref(b.n1.expect("full node must split"));
        // 5 keys split 2/3.
        assert_eq!(
            n0.data.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![10, 20]
        );
        assert_eq!(
            n1.data.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![25, 30, 40]
        );
        assert_eq!(n0.high, 20, "lower high = its largest key");
        assert_eq!(n1.high, 1000, "upper keeps the old high");
        assert_eq!(n1.level, 3, "upper keeps the old level");
        free(n);
        free(b.n0);
        free(b.n1.unwrap());
    }

    #[test]
    fn build_remove_without_merge() {
        let n = mk_node(&[1, 2, 3], 2, 50);
        let b = build_remove(node_ref(n), None, 2).expect("present");
        assert_eq!(b.old_value, 20);
        let nn = node_ref(b.n_new);
        assert_eq!(
            nn.data.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(nn.high, 50);
        assert_eq!(nn.level, 2);
        free(n);
        free(b.n_new);
    }

    #[test]
    fn build_remove_merges_with_successor() {
        let a = mk_node(&[1, 2], 2, 10);
        let b_ = mk_node(&[15, 18], 4, 20);
        let r = build_remove(node_ref(a), Some(node_ref(b_)), 1).unwrap();
        let nn = node_ref(r.n_new);
        assert_eq!(
            nn.data.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![2, 15, 18]
        );
        assert_eq!(nn.high, 20, "merged node takes the successor's high");
        assert_eq!(nn.level, 4, "merged node takes the max level");
        free(a);
        free(b_);
        free(r.n_new);
    }

    #[test]
    fn build_remove_matches_filter_and_append_at_every_position() {
        let keys: Vec<u64> = (1..=6).map(|i| i * 10).collect();
        let a = mk_node(&keys, 2, 100);
        let succ = mk_node(&[150, 180], 4, 200);
        for &ik in &keys {
            for merge in [false, true] {
                let r = build_remove(node_ref(a), merge.then(|| node_ref(succ)), ik).unwrap();
                let mut want: Vec<(u64, u64)> = keys
                    .iter()
                    .filter(|&&k| k != ik)
                    .map(|&k| (k, k * 10))
                    .collect();
                if merge {
                    want.extend([(150, 1500), (180, 1800)]);
                }
                let nn = node_ref(r.n_new);
                assert_eq!(nn.data.to_vec(), want, "ik={ik} merge={merge}");
                assert_eq!(r.old_value, ik * 10);
                assert_eq!((nn.high, nn.level), if merge { (200, 4) } else { (100, 2) });
                free(r.n_new);
            }
        }
        free(a);
        free(succ);
    }

    #[test]
    fn build_remove_missing_key_is_none() {
        let n = mk_node(&[1, 2, 3], 2, 50);
        assert!(build_remove(node_ref(n), None, 7).is_none());
        free(n);
    }

    #[test]
    fn build_remove_last_key_leaves_empty_node() {
        let n = mk_node(&[4], 1, 50);
        let b = build_remove(node_ref(n), None, 4).unwrap();
        let nn = node_ref(b.n_new);
        assert_eq!(
            nn.count(),
            0,
            "empty nodes are legal (like the initial tail)"
        );
        free(n);
        free(b.n_new);
    }

    #[test]
    fn internal_key_mapping() {
        assert_eq!(internal_key(0), 1);
        assert_eq!(public_key(internal_key(12345)), 12345);
        assert_eq!(internal_key(u64::MAX - 1), u64::MAX);
    }

    #[test]
    fn random_level_bounds() {
        let mut rng = rand::thread_rng();
        for _ in 0..5_000 {
            let l = random_level(10, &mut rng);
            assert!((1..=10).contains(&l));
        }
    }
}
