//! The paged scan APIs: bounded pages over `[lo, hi]` with a resume key,
//! so a million-key scan never materializes in one transaction and never
//! holds a transaction open between pages. Two consistency modes:
//!
//! * **Per-page linearizable** ([`Cursor`], via [`LeapStore::scan_pages`]):
//!   each page is one linearizable cross-shard transaction
//!   ([`leaplist::LeapListLt::range_page_group`]). Pages are individually
//!   consistent but the scan as a whole is not one snapshot — a writer
//!   landing between pages is seen by later pages only. Pages keep
//!   working while a [`crate::Rebalancer`] moves the very keys being
//!   scanned — each page's plan includes both sides of the overlay when
//!   it overlaps, and it retries only when a migration begins or
//!   completes mid-page, never per chunk moved. This is also the primitive
//!   the migration driver itself pages with.
//!
//! * **Pinned snapshot** ([`SnapshotCursor`], via
//!   [`LeapStore::scan_snapshot_pages`]): the first cursor operation pins the
//!   global commit timestamp once; **every** page then reads the version
//!   bundles at that timestamp. The whole multi-page scan is one
//!   consistent snapshot — across pages, across concurrent batches, and
//!   across in-flight migrations (a migrated key is visible on exactly
//!   one side of the overlay at any timestamp). Pages never retry and
//!   can never be aborted by concurrent commits; the cost is that the
//!   live cursor holds back version-bundle pruning and node reclamation
//!   (drop it promptly). The handle embeds a thread-local epoch guard,
//!   so it is neither `Send` nor `Sync`.

use crate::store::{merge_page, LeapStore, VisitPlan};
use leaplist::{LeapListLt, ListSnapshot};
use std::sync::Arc;

/// Where a scan of `[.., hi]` resumes after `page`: a full page may have
/// more behind it, so past its last key; a short page proves every
/// visited shard was exhausted.
fn resume_after<V>(page: &[(u64, V)], page_size: usize, hi: u64) -> Option<u64> {
    match page.last() {
        Some(&(last, _)) if page.len() == page_size && last < hi => Some(last + 1),
        _ => None,
    }
}

/// A resumable, paged scan over `[lo, hi]` of a [`LeapStore`], in the
/// per-page linearizable mode.
///
/// Every [`Cursor::next_page`] is one linearizable snapshot transaction of
/// at most `page_size` pairs; between pages the store runs free, so a
/// concurrent writer may change keys the cursor has not reached yet (the
/// usual cursor contract — each page is internally consistent, the scan as
/// a whole is not one snapshot). When the whole scan must be one
/// snapshot, use [`LeapStore::scan_snapshot_pages`] instead.
///
/// # Example
///
/// ```
/// use leap_store::{LeapStore, Partitioning, StoreConfig};
///
/// let store: LeapStore<u64> =
///     LeapStore::new(StoreConfig::new(4, Partitioning::Range).with_key_space(1_000));
/// for k in 0..100 {
///     store.put(k, k);
/// }
/// let mut seen = Vec::new();
/// for page in store.scan_pages(0, 999, 16) {
///     assert!(page.len() <= 16);
///     seen.extend(page);
/// }
/// assert_eq!(seen.len(), 100);
/// assert!(seen.windows(2).all(|w| w[0].0 < w[1].0));
/// ```
pub struct Cursor<'a, V> {
    store: &'a LeapStore<V>,
    hi: u64,
    /// Next key to resume from; `None` once exhausted.
    next: Option<u64>,
    page_size: usize,
}

impl<'a, V: Clone + Send + Sync + 'static> Cursor<'a, V> {
    pub(crate) fn new(store: &'a LeapStore<V>, lo: u64, hi: u64, page_size: usize) -> Self {
        assert!(hi < u64::MAX, "key u64::MAX is reserved");
        assert!(page_size > 0, "a page must hold at least one pair");
        Cursor {
            store,
            hi,
            next: (lo <= hi).then_some(lo),
            page_size,
        }
    }

    /// The next page: at most `page_size` ascending pairs from one
    /// linearizable snapshot, or `None` when the range is exhausted.
    /// Never returns an empty page.
    pub fn next_page(&mut self) -> Option<Vec<(u64, V)>> {
        let lo = self.next?;
        let page = self.store.range_page_merged(lo, self.hi, self.page_size);
        self.next = resume_after(&page, self.page_size, self.hi);
        (!page.is_empty()).then_some(page)
    }

    /// Where the next page resumes (`None` once exhausted). Persist this
    /// to continue a scan later with a fresh cursor over
    /// `[resume_key, hi]`.
    pub fn resume_key(&self) -> Option<u64> {
        self.next
    }
}

impl<V: Clone + Send + Sync + 'static> Iterator for Cursor<'_, V> {
    type Item = Vec<(u64, V)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_page()
    }
}

/// A snapshot-isolated paged scan over `[lo, hi]` of a [`LeapStore`]:
/// every page observes exactly the commits at-or-before one pinned
/// timestamp, chosen when the cursor was created.
///
/// The cursor captures its shard visit plan (including both sides of
/// the in-flight migration when it overlaps) **once**, together with the
/// timestamp; pages then walk the shards' version bundles with no
/// transactions, no retries, and no sensitivity to concurrent commits or
/// migrations. The resume key always comes from the snapshot-visible
/// page, so a key deleted — or a whole node replaced — after the pin
/// can never derail the scan.
///
/// The captured `Arc`s keep the visited lists alive even if a migration
/// completes and recycles a source slot mid-scan, and the embedded
/// [`ListSnapshot`] holds back bundle pruning and node reclamation while
/// the cursor lives: drop it as soon as the scan finishes. Not `Send`
/// (the snapshot embeds a thread-local epoch guard).
///
/// # Example
///
/// ```
/// use leap_store::{LeapStore, Partitioning, StoreConfig};
///
/// let store: LeapStore<u64> =
///     LeapStore::new(StoreConfig::new(4, Partitioning::Range).with_key_space(1_000));
/// for k in 0..100 {
///     store.put(k, k);
/// }
/// let mut scan = store.scan_snapshot_pages(0, 999, 16);
/// let first = scan.next_page().expect("first page");
/// // Writers landing after the pin are invisible to every later page:
/// store.put(500, 999);
/// let rest: Vec<_> = scan.flatten().collect();
/// assert_eq!(first.len() + rest.len(), 100);
/// assert!(rest.iter().all(|&(_, v)| v != 999));
/// ```
pub struct SnapshotCursor<'a, V> {
    store: &'a LeapStore<V>,
    /// The pinned timestamp plus the epoch guard and prune hold-back.
    snap: ListSnapshot,
    /// The captured visit plan: every list that can hold a `[lo, hi]` key
    /// visible at the timestamp, with per-list clipped ranges.
    lists: Vec<Arc<LeapListLt<V>>>,
    clips: Vec<(u64, u64)>,
    /// Whether merged pages interleave (a migration overlay was in the
    /// plan) and need sorting.
    sort: bool,
    hi: u64,
    /// Next key to resume from; `None` once exhausted.
    next: Option<u64>,
    page_size: usize,
}

impl<'a, V: Clone + Send + Sync + 'static> SnapshotCursor<'a, V> {
    pub(crate) fn new(store: &'a LeapStore<V>, lo: u64, hi: u64, page_size: usize) -> Self {
        assert!(hi < u64::MAX, "key u64::MAX is reserved");
        assert!(page_size > 0, "a page must hold at least one pair");
        let (snap, (lists, clips, sort)): (ListSnapshot, VisitPlan<V>) =
            store.pinned_snapshot_plan(lo, hi);
        SnapshotCursor {
            store,
            snap,
            lists,
            clips,
            sort,
            hi,
            next: (lo <= hi).then_some(lo),
            page_size,
        }
    }

    /// The pinned snapshot timestamp every page reads at.
    pub fn ts(&self) -> u64 {
        self.snap.ts()
    }

    /// The next page: at most `page_size` ascending pairs, **as of the
    /// pinned timestamp**, or `None` when the range is exhausted at the
    /// snapshot. Never returns an empty page, never retries.
    pub fn next_page(&mut self) -> Option<Vec<(u64, V)>> {
        let lo = self.next?;
        let page = self.store.timed_snapshot_page(|| {
            let mut merged: Vec<(u64, V)> = Vec::new();
            for (list, &(clo, chi)) in self.lists.iter().zip(&self.clips) {
                let from = clo.max(lo);
                if from > chi {
                    continue;
                }
                // Appends at most `page_size` pairs per list; the
                // globally first `page_size` are all among them.
                list.snapshot_page_into(&self.snap, from, chi, self.page_size, &mut merged);
            }
            merge_page(merged, self.sort, self.page_size)
        });
        // The resume key comes from the snapshot-visible page: a boundary
        // key deleted (or its node replaced) after the pin is still the
        // correct place to resume from, because every later page reads at
        // the same timestamp.
        self.next = resume_after(&page, self.page_size, self.hi);
        (!page.is_empty()).then_some(page)
    }

    /// Where the next page resumes (`None` once exhausted). Unlike
    /// [`Cursor::resume_key`], persisting this across cursors does not
    /// extend the snapshot: a fresh snapshot cursor pins a fresh
    /// timestamp.
    pub fn resume_key(&self) -> Option<u64> {
        self.next
    }
}

impl<V: Clone + Send + Sync + 'static> Iterator for SnapshotCursor<'_, V> {
    type Item = Vec<(u64, V)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_page()
    }
}

impl<V: Clone + Send + Sync + 'static> LeapStore<V> {
    /// A paged scan of `[lo, hi]` yielding at most `page_size` pairs per
    /// page. See [`Cursor`].
    ///
    /// # Panics
    ///
    /// Panics if `hi == u64::MAX` or `page_size` is zero.
    pub fn scan_pages(&self, lo: u64, hi: u64, page_size: usize) -> Cursor<'_, V> {
        Cursor::new(self, lo, hi, page_size)
    }

    /// A snapshot-isolated paged scan of `[lo, hi]` yielding at most
    /// `page_size` pairs per page. See [`SnapshotCursor`].
    ///
    /// # Panics
    ///
    /// Panics if `hi == u64::MAX` or `page_size` is zero.
    pub fn scan_snapshot_pages(&self, lo: u64, hi: u64, page_size: usize) -> SnapshotCursor<'_, V> {
        SnapshotCursor::new(self, lo, hi, page_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::{cfg, enter, Layout};

    fn store() -> LeapStore<u64> {
        LeapStore::new(cfg(4))
    }

    #[test]
    fn pages_tile_the_range_in_both_modes() {
        for mode in [Layout::Settled, Layout::Migrating { at: 100 }] {
            let s = store();
            for k in 0..150u64 {
                s.put(k * 3, k);
            }
            enter(&s, mode);
            for page_size in [1usize, 7, 64, 1_000] {
                let mut seen = Vec::new();
                let mut pages = 0;
                for page in s.scan_pages(0, 999, page_size) {
                    assert!(page.len() <= page_size, "{mode:?}");
                    assert!(page.windows(2).all(|w| w[0].0 < w[1].0));
                    seen.extend(page);
                    pages += 1;
                }
                assert_eq!(seen, s.range(0, 999), "{mode:?} page_size {page_size}");
                assert!(pages >= seen.len() / page_size, "{mode:?}");
            }
        }
    }

    #[test]
    fn cursor_respects_bounds_and_resumes() {
        let s = store();
        for k in 0..50u64 {
            s.put(k, k);
        }
        let mut c = s.scan_pages(10, 29, 8);
        let p1 = c.next_page().expect("first page");
        assert_eq!(p1.first().unwrap().0, 10);
        assert_eq!(p1.len(), 8);
        assert_eq!(c.resume_key(), Some(18));
        // A fresh cursor from the resume key continues seamlessly.
        let rest: Vec<_> = s.scan_pages(18, 29, 8).flatten().collect();
        assert_eq!(rest.first().unwrap().0, 18);
        assert_eq!(rest.last().unwrap().0, 29);
        // Exhaustion: no empty trailing page.
        let mut c = s.scan_pages(40, 49, 10);
        assert_eq!(c.next_page().unwrap().len(), 10);
        assert_eq!(c.next_page(), None);
        assert_eq!(c.resume_key(), None);
        // Empty and inverted ranges yield no pages.
        assert_eq!(s.scan_pages(600, 999, 256).next(), None);
        assert_eq!(s.scan_pages(30, 10, 256).next(), None);
        assert_eq!(s.scan_pages(30, 10, 256).resume_key(), None);
    }

    #[test]
    fn cursor_sees_each_key_once_across_a_split() {
        let s = store();
        for k in 0..120u64 {
            s.put(k, k);
        }
        let mut c = s.scan_pages(0, 999, 32);
        let p1 = c.next_page().expect("page before split");
        // Reshard mid-scan: split the hot shard, drain it fully.
        s.split_shard(0, 60).expect("split");
        s.rebalance_until_idle();
        let mut seen: Vec<_> = p1;
        for page in c {
            seen.extend(page);
        }
        assert_eq!(
            seen,
            (0..120u64).map(|k| (k, k)).collect::<Vec<_>>(),
            "no key lost or doubled across the epoch change"
        );
    }

    #[test]
    #[should_panic(expected = "at least one pair")]
    fn zero_page_size_rejected() {
        let s = store();
        s.scan_pages(0, 10, 0);
    }

    #[test]
    fn snapshot_pages_ignore_later_writes_in_both_modes() {
        for mode in [Layout::Settled, Layout::Migrating { at: 20 }] {
            let s = store();
            for k in 0..100u64 {
                s.put(k, k);
            }
            enter(&s, mode);
            let expected: Vec<_> = (0..100u64).map(|k| (k, k)).collect();
            let mut scan = s.scan_snapshot_pages(0, 999, 16);
            let mut seen = scan.next_page().expect("first page");
            // Concurrent-looking churn after the pin: overwrite scanned
            // and unscanned keys, delete some, insert new ones.
            for k in 0..100u64 {
                s.put(k, k + 1_000);
            }
            s.delete(17);
            s.put(500, 1);
            for page in scan {
                assert!(page.len() <= 16);
                seen.extend(page);
            }
            assert_eq!(seen, expected, "{mode:?}: the pin froze the view");
            // A fresh snapshot sees the new state.
            let now: Vec<_> = s.scan_snapshot_pages(0, 999, 256).flatten().collect();
            assert_eq!(now.len(), 100, "100 keys - 1 deleted + 1 inserted");
            assert!(now.iter().any(|&(k, v)| k == 0 && v == 1_000));
            assert!(!now.iter().any(|&(k, _)| k == 17));
            assert!(now.iter().any(|&(k, v)| k == 500 && v == 1));
            assert_eq!(s.stats().snapshot_scans, 2, "{mode:?}");
        }
    }

    /// Satellite: the resume key at a page boundary must come from the
    /// snapshot-visible page. Delete the boundary key (and its whole
    /// neighbourhood, forcing node replacements) after the pin: the next
    /// page must resume exactly past the snapshot's boundary key and
    /// still see every pre-pin key.
    #[test]
    fn snapshot_resume_key_survives_boundary_deletion() {
        let s = store();
        for k in 0..60u64 {
            s.put(k, k);
        }
        let mut scan = s.scan_snapshot_pages(0, 999, 10);
        let p1 = scan.next_page().expect("page 1");
        assert_eq!(p1.last().unwrap().0, 9);
        assert_eq!(scan.resume_key(), Some(10));
        // Kill the boundary key, the resume key itself, and everything
        // around them — the live list no longer contains any of them.
        for k in 5..25u64 {
            s.delete(k);
        }
        let mut seen = p1;
        for page in scan {
            seen.extend(page);
        }
        assert_eq!(
            seen,
            (0..60u64).map(|k| (k, k)).collect::<Vec<_>>(),
            "post-pin deletions must not derail the resume key"
        );
    }

    /// Snapshot consistency across an in-flight migration: pin while a
    /// rebalance is mid-drain, finish the migration, then read the
    /// remaining pages — every key appears exactly once with its pinned
    /// value, whether it moved before or after the pin.
    #[test]
    fn snapshot_pages_span_a_completing_migration() {
        let s = store();
        for k in 0..120u64 {
            s.put(k, k);
        }
        // Start a split of shard 0 and drain only part of it, so the
        // overlay is live with keys on both sides.
        s.split_shard(0, 60).expect("split");
        s.rebalance_step();
        let mut scan = s.scan_snapshot_pages(0, 999, 32);
        let p1 = scan.next_page().expect("page before completion");
        // Post-pin: finish the drain, flip the table, overwrite freely.
        s.rebalance_until_idle();
        for k in 0..120u64 {
            s.put(k, k + 500);
        }
        let mut seen = p1;
        for page in scan {
            seen.extend(page);
        }
        assert_eq!(
            seen,
            (0..120u64).map(|k| (k, k)).collect::<Vec<_>>(),
            "one copy per key, at the pinned value, across the migration"
        );
    }

    #[test]
    fn snapshot_cursor_reports_ts_and_empty_ranges() {
        let s = store();
        s.put(3, 30);
        let scan = s.scan_snapshot_pages(10, 20, 256);
        assert!(scan.ts() > 0, "commits moved the clock before the pin");
        assert_eq!(scan.count(), 0, "no pages in an empty sub-range");
        assert_eq!(
            s.scan_snapshot_pages(30, 10, 256).next(),
            None,
            "inverted range"
        );
        let depth = s.stats().bundle_depth;
        assert!(depth >= 1, "bundle depth gauge starts at 1, got {depth}");
    }

    /// A live `SnapshotCursor` holds an epoch guard for its whole life, so
    /// a routing change that waited for pre-existing pins to drain would
    /// wait on the very thread making it. Resharding from the thread that
    /// holds the cursor must finish, and the scan must still equal the
    /// model at its pin.
    #[test]
    fn snapshot_cursor_holder_can_reshard_without_waiting_on_itself() {
        let s = store();
        for k in 0..200u64 {
            s.put(k * 2, k);
        }
        let model = s.range(0, 999);
        let mut scan = s.scan_snapshot_pages(0, 999, 16);
        let mut seen = scan.next_page().expect("first page");
        s.split_shard(0, 100).expect("valid split");
        s.rebalance_until_idle();
        assert!(s.router().epoch() >= 1, "the split completed under the pin");
        s.put(1, 999);
        seen.extend(scan.flatten());
        assert_eq!(seen, model, "later pages still read at the pin");
    }
}
