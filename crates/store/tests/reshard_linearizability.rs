//! History-checked linearizability tests for live resharding: concurrent
//! `put`/`delete`/`multi_put`/`range`/`Cursor` traffic while shards split
//! and merge underneath.
//!
//! Every worker records each operation's invocation and response through
//! a `leap_history::Session`; after the run, the offline checker searches
//! for a real-time-respecting serialization of the **complete history**
//! against a sequential map model — the dbcop methodology. A lost or
//! doubled key, a torn batch inside any snapshot, or a stale read under
//! the migration overlay all surface as "no serialization exists",
//! without hand-picked sentinel invariants.
//!
//! Cursor pages map exactly onto range events: a page is the *complete*
//! content of `[resume key, last returned key]` (a full page) or of
//! `[resume key, hi]` (the final short page) from one linearizable
//! transaction, so each page is recorded as a `Range` over the interval
//! it proves.
//!
//! Pinned-timestamp scans (`scan_snapshot`) map differently: the WHOLE
//! multi-page scan is one `SnapshotScan` event carrying its pinned
//! timestamp, and `check_snapshot_isolation` demands the merged pages
//! reflect a single instant with monotone pins across real time.
//!
//! Structural rebalance effects (epochs advancing, the key-count spread
//! narrowing) stay asserted directly.

use leap_history::{check, check_snapshot_isolation, Op, Recorder, Ret, Session};
use leap_store::{
    LeapStore, Partitioning, RebalanceAction, RebalancePolicy, Rebalancer, StoreConfig,
};
use leaplist::Params;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const KEY_SPACE: u64 = 4_000;
/// Keys a worker may touch (draws skew toward the hot shard-0 interval).
fn draw_key(x: u64) -> u64 {
    if x.is_multiple_of(3) {
        x % KEY_SPACE
    } else {
        x % 1_000
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Builds the store and prefills it: shard 0's interval `[0, 999]` fully
/// populated (the hot pile), the rest sparse. Returns the initial model.
///
/// `auto` selects the rebalance policy: `true` lets it self-start splits
/// and merges (the background-`Rebalancer` scenario); `false` raises the
/// thresholds out of reach, so the only migrations are the ones the test
/// drives explicitly — keeping its structural assertions exact.
fn build_store(chunk: usize, auto: bool) -> (Arc<LeapStore<u64>>, BTreeMap<u64, u64>) {
    let policy = if auto {
        RebalancePolicy {
            chunk,
            split_ratio: 1.5,
            min_split_keys: 256,
            ..RebalancePolicy::default()
        }
    } else {
        RebalancePolicy {
            chunk,
            split_ratio: 1e9,
            merge_ratio: 0.0,
            ..RebalancePolicy::default()
        }
    };
    let store = Arc::new(LeapStore::<u64>::new(
        StoreConfig::new(4, Partitioning::Range)
            .with_key_space(KEY_SPACE)
            .with_params(Params {
                node_size: 8,
                max_level: 8,
                ..Params::default()
            })
            .with_rebalancing(policy),
    ));
    let mut initial = BTreeMap::new();
    for k in (0..1_000u64).chain((1_000..KEY_SPACE).step_by(5)) {
        store.put(k, k);
        initial.insert(k, k);
    }
    (store, initial)
}

/// A put/delete/batch writer: runs until `stop` (but at least `min_ops`
/// and at most `max_ops` operations, keeping the history bounded).
fn writer(
    store: Arc<LeapStore<u64>>,
    mut session: Session,
    stop: Arc<AtomicBool>,
    t: u64,
    min_ops: usize,
    max_ops: usize,
) {
    let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t + 1) | 1;
    for i in 0..max_ops {
        if i >= min_ops && stop.load(Ordering::Relaxed) {
            break;
        }
        // Unique written values let the checker identify writers exactly.
        let v = (t + 1) << 40 | i as u64;
        let a = draw_key(xorshift(&mut x));
        match xorshift(&mut x) % 3 {
            0 => {
                session.put(a, v, || store.put(a, v));
            }
            1 => {
                session.delete(a, || store.delete(a));
            }
            _ => {
                let b = draw_key(xorshift(&mut x));
                let c = draw_key(xorshift(&mut x));
                let mut entries: Vec<(u64, u64)> = vec![(a, v), (b, v), (c, v)];
                entries.dedup_by_key(|e| e.0);
                let parts = entries.iter().map(|&(k, v)| (k, Some(v))).collect();
                session.batch(parts, || store.multi_put(&entries));
            }
        }
    }
}

/// A snapshot reader: windowed `range` queries.
fn range_reader(
    store: Arc<LeapStore<u64>>,
    mut session: Session,
    stop: Arc<AtomicBool>,
    t: u64,
    min_ops: usize,
    max_ops: usize,
) {
    let mut x = 0xA076_1D64_78BD_642Fu64.wrapping_mul(t + 3) | 1;
    for i in 0..max_ops {
        if i >= min_ops && stop.load(Ordering::Relaxed) {
            break;
        }
        let lo = xorshift(&mut x) % (KEY_SPACE - 500);
        let hi = lo + 499;
        session.range(lo, hi, || store.range(lo, hi));
    }
}

/// A paged reader: each cursor page is one linearizable transaction over
/// the interval it proves — recorded as a `Range` of that interval.
fn cursor_reader(
    store: Arc<LeapStore<u64>>,
    mut session: Session,
    stop: Arc<AtomicBool>,
    min_scans: usize,
    max_scans: usize,
) {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..max_scans {
        if i >= min_scans && stop.load(Ordering::Relaxed) {
            break;
        }
        let lo = xorshift(&mut x) % (KEY_SPACE - 1_000);
        let hi = lo + 999;
        let mut cursor = store.scan_pages(lo, hi, 128);
        let mut resume = lo;
        loop {
            let page_start = resume;
            // Two-phase recording: the invocation stamp must precede the
            // page's transaction, and the claimed interval is only known
            // from the page's content afterwards.
            let inv = session.invoke();
            let Some(page) = cursor.next_page() else {
                // Exhausted: an empty FIRST page proves [lo, hi] empty
                // (a short page already proved its own tail empty).
                if page_start == lo {
                    session.resolve(inv, Op::Range(lo, hi), Ret::Snapshot(Vec::new()));
                }
                break;
            };
            let full = page.len() == 128;
            let last = page.last().expect("pages are never empty").0;
            let proved_hi = if full { last } else { hi };
            session.resolve(inv, Op::Range(page_start, proved_hi), Ret::Snapshot(page));
            match cursor.resume_key() {
                Some(r) => resume = r,
                None => break,
            }
        }
    }
}

/// A pinned-snapshot reader: each whole multi-page `scan_snapshot` is
/// recorded as ONE `SnapshotScan` event — pin, drive every page, merge —
/// so the checker demands the pages jointly reflect a single instant.
fn snapshot_reader(
    store: Arc<LeapStore<u64>>,
    mut session: Session,
    stop: Arc<AtomicBool>,
    t: u64,
    min_scans: usize,
    max_scans: usize,
) {
    let mut x = 0x9E6D_7A2C_3F8B_0142u64.wrapping_mul(t + 5) | 1;
    for i in 0..max_scans {
        if i >= min_scans && stop.load(Ordering::Relaxed) {
            break;
        }
        let lo = xorshift(&mut x) % (KEY_SPACE - 1_000);
        let hi = lo + 999;
        session.snapshot_scan(lo, hi, || {
            let mut cursor = store.scan_snapshot_pages(lo, hi, 128);
            let ts = cursor.ts();
            let mut merged = Vec::new();
            while let Some(page) = cursor.next_page() {
                merged.extend(page);
            }
            (ts, merged)
        });
    }
}

/// The acceptance scenario: concurrent put/delete/batch/range/Cursor
/// traffic while the driver splits the hot shard and merges a cold
/// adjacent pair, chunk by chunk; the full recorded history must be
/// strictly serializable, the epoch must advance twice, and the
/// key-count spread must strictly narrow.
#[test]
fn concurrent_traffic_survives_split_and_merge() {
    let (store, initial) = build_store(64, false);
    let spread_before = store.stats().key_spread();
    let rec = Recorder::new();
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for t in 0..2u64 {
        let (s, ses, st) = (store.clone(), rec.session(), stop.clone());
        workers.push(std::thread::spawn(move || writer(s, ses, st, t, 40, 150)));
    }
    for t in 0..2u64 {
        let (s, ses, st) = (store.clone(), rec.session(), stop.clone());
        workers.push(std::thread::spawn(move || {
            range_reader(s, ses, st, t, 10, 40)
        }));
    }
    {
        let (s, ses, st) = (store.clone(), rec.session(), stop.clone());
        workers.push(std::thread::spawn(move || cursor_reader(s, ses, st, 3, 12)));
    }

    // The rebalance driver (unrecorded — shard moves are not map ops):
    // split the hot shard, then merge the coldest adjacent pair, pacing
    // the chunked drain so worker traffic interleaves with the overlay.
    let hot = {
        let st = store.stats();
        st.shards
            .iter()
            .filter(|s| s.owned)
            .max_by_key(|s| s.keys)
            .expect("some shard owns keys")
            .shard
    };
    assert_eq!(hot, 0, "the prefill made shard 0 hot");
    let (lo, hi) = store.router().shard_interval(hot).expect("hot owns");
    let dst = store
        .split_shard(hot, (lo + hi) / 2)
        .expect("hot split begins");
    let mut completions = 0;
    loop {
        match store.rebalance_step() {
            RebalanceAction::Completed { .. } => {
                completions += 1;
                break;
            }
            RebalanceAction::Moved { .. } => std::thread::sleep(Duration::from_millis(1)),
            other => panic!("unexpected action during split drain: {other:?}"),
        }
    }
    assert!(!store.shard(dst).is_empty(), "split moved keys into {dst}");
    let intervals = store.router().routing().intervals();
    let (i, _) = intervals
        .windows(2)
        .enumerate()
        .map(|(i, w)| (i, store.shard(w[0].0).len() + store.shard(w[1].0).len()))
        .min_by_key(|&(_, keys)| keys)
        .expect("at least two intervals");
    let (cold_src, cold_dst) = (intervals[i].0, intervals[i + 1].0);
    store
        .merge_shards(cold_src, cold_dst)
        .expect("adjacent cold merge begins");
    loop {
        match store.rebalance_step() {
            RebalanceAction::Completed { .. } => {
                completions += 1;
                break;
            }
            RebalanceAction::Moved { .. } => std::thread::sleep(Duration::from_millis(1)),
            other => panic!("unexpected action during merge drain: {other:?}"),
        }
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }

    // A final quiescent full snapshot joins the history: the checker then
    // certifies totality, not just windowed views.
    {
        let mut session = rec.session();
        session.range(0, KEY_SPACE - 1, || store.range(0, KEY_SPACE - 1));
        // At quiescence a whole paged scan is one snapshot too.
        session.range(0, KEY_SPACE - 1, || {
            store.scan_pages(0, KEY_SPACE - 1, 333).flatten().collect()
        });
    }
    let history = rec.history();
    assert!(history.len() > 150, "history too small: {}", history.len());
    let report = check(&history, &initial)
        .unwrap_or_else(|v| panic!("reshard history is not serializable:\n{v}"));
    assert_eq!(report.events, history.len());

    // Structural rebalance assertions.
    assert_eq!(completions, 2);
    let st = store.stats();
    assert_eq!(st.migrations_completed, 2);
    assert_eq!(st.epoch, 2);
    assert!(st.migrations.is_empty());
    assert_eq!(store.router().shard_interval(cold_src), None);
    assert!(
        st.key_spread() < spread_before,
        "spread must strictly narrow: {} -> {}",
        spread_before,
        st.key_spread()
    );
}

/// Two **concurrent disjoint migrations** under full traffic: shard 0 and
/// shard 2 split at the same time (slot-disjoint overlays, both provably
/// in flight), their chunk drains interleaving round-robin, while writers
/// and snapshot readers run — and a dedicated cursor repeatedly scans a
/// window that **straddles both migrating ranges**, each page recorded as
/// the `Range` it proves. The complete history must be strictly
/// serializable; structurally, the peak migration concurrency must reach
/// 2 and both epochs must install.
#[test]
fn two_concurrent_migrations_vs_straddling_cursor() {
    let (store, initial) = build_store(64, false);
    let rec = Recorder::new();
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for t in 0..2u64 {
        let (s, ses, st) = (store.clone(), rec.session(), stop.clone());
        workers.push(std::thread::spawn(move || writer(s, ses, st, t, 40, 150)));
    }
    {
        let (s, ses, st) = (store.clone(), rec.session(), stop.clone());
        workers.push(std::thread::spawn(move || {
            range_reader(s, ses, st, 11, 10, 40)
        }));
    }
    // The straddling cursor: [400, 2700] covers both migrating ranges
    // ([500, 999] out of shard 0 and [2500, 2999] out of shard 2) plus
    // the stable interval between them.
    {
        let (s, mut session, st) = (store.clone(), rec.session(), stop.clone());
        workers.push(std::thread::spawn(move || {
            for i in 0..40usize {
                if i >= 4 && st.load(Ordering::Relaxed) {
                    break;
                }
                let (lo, hi) = (400u64, 2_700u64);
                let mut cursor = s.scan_pages(lo, hi, 128);
                let mut resume = lo;
                loop {
                    let page_start = resume;
                    let inv = session.invoke();
                    let Some(page) = cursor.next_page() else {
                        if page_start == lo {
                            session.resolve(inv, Op::Range(lo, hi), Ret::Snapshot(Vec::new()));
                        }
                        break;
                    };
                    let full = page.len() == 128;
                    let last = page.last().expect("pages are never empty").0;
                    let proved_hi = if full { last } else { hi };
                    session.resolve(inv, Op::Range(page_start, proved_hi), Ret::Snapshot(page));
                    match cursor.resume_key() {
                        Some(r) => resume = r,
                        None => break,
                    }
                }
            }
        }));
    }

    // Begin BOTH migrations before draining either: slot-disjoint, so the
    // overlay set holds two at once.
    store.split_shard(0, 500).expect("split hot shard 0");
    store
        .split_shard(2, 2_500)
        .expect("split shard 2 concurrently");
    assert_eq!(
        store.stats().concurrent_migrations(),
        2,
        "both overlays installed before any chunk moved"
    );
    // Drain round-robin, pacing chunks so worker traffic and cursor pages
    // interleave with both overlays in flight.
    let mut completions = 0;
    while completions < 2 {
        match store.rebalance_step() {
            RebalanceAction::Completed { .. } => completions += 1,
            RebalanceAction::Moved { .. } => std::thread::sleep(Duration::from_millis(1)),
            RebalanceAction::SplitStarted { .. } | RebalanceAction::MergeStarted { .. } => {}
            RebalanceAction::Idle => panic!("idle with migrations outstanding"),
            // No fault plan is armed, so a drain can neither fail nor
            // trip the watchdog.
            RebalanceAction::ChunkFailed { .. } | RebalanceAction::Aborted { .. } => {
                panic!("chunk failure without an armed fault plan")
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }
    // Quiesce whatever the policy may have additionally started, then
    // record a final full snapshot so the checker certifies totality.
    store.rebalance_until_idle();
    {
        let mut session = rec.session();
        session.range(0, KEY_SPACE - 1, || store.range(0, KEY_SPACE - 1));
    }
    let history = rec.history();
    let report = check(&history, &initial)
        .unwrap_or_else(|v| panic!("two-migration history is not serializable:\n{v}"));
    assert_eq!(report.events, history.len());
    let st = store.stats();
    assert!(
        st.peak_concurrent_migrations >= 2,
        "two migrations must have been in flight at once"
    );
    assert!(st.migrations_completed >= 2);
    assert!(st.epoch >= 2);
    assert!(st.migrations.is_empty());
}

/// The background [`Rebalancer`] under skewed load: policy-driven splits
/// must fire on their own while every recorded read and write stays
/// strictly serializable.
#[test]
fn background_rebalancer_balances_skewed_load() {
    let (store, initial) = build_store(128, true);
    let spread_before = store.stats().key_spread();
    let rec = Recorder::new();
    let stop = Arc::new(AtomicBool::new(false));
    let rebalancer = Rebalancer::spawn(store.clone(), Duration::from_millis(1));
    let mut workers = Vec::new();
    for t in 0..2u64 {
        let (s, ses, st) = (store.clone(), rec.session(), stop.clone());
        workers.push(std::thread::spawn(move || writer(s, ses, st, t, 40, 150)));
    }
    {
        let (s, ses, st) = (store.clone(), rec.session(), stop.clone());
        workers.push(std::thread::spawn(move || {
            range_reader(s, ses, st, 7, 10, 40)
        }));
    }
    // Give the rebalancer time to split the hot shard at least once.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while store.stats().migrations_completed == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }
    let actions = rebalancer.stop().expect("rebalancer survived the run");
    let history = rec.history();
    check(&history, &initial)
        .unwrap_or_else(|v| panic!("rebalancer history is not serializable:\n{v}"));
    let st = store.stats();
    assert!(
        st.migrations_completed >= 1,
        "policy never split the hot shard (actions: {actions})"
    );
    assert!(st.key_spread() < spread_before);
}

/// Tentpole acceptance: whole multi-page `scan_snapshot`s race
/// put/delete/batch writers AND a background [`Rebalancer`]'s
/// policy-driven migrations. The recorded history must satisfy snapshot
/// isolation — every scan one atomic read of its pinned instant,
/// timestamps never running backwards, equal-timestamp scans agreeing —
/// while the writers themselves stay strictly serializable.
#[test]
fn snapshot_scans_race_writers_and_background_rebalancer() {
    let (store, initial) = build_store(128, true);
    let rec = Recorder::new();
    let stop = Arc::new(AtomicBool::new(false));
    let rebalancer = Rebalancer::spawn(store.clone(), Duration::from_millis(1));
    let mut workers = Vec::new();
    for t in 0..2u64 {
        let (s, ses, st) = (store.clone(), rec.session(), stop.clone());
        workers.push(std::thread::spawn(move || writer(s, ses, st, t, 40, 150)));
    }
    for t in 0..2u64 {
        let (s, ses, st) = (store.clone(), rec.session(), stop.clone());
        workers.push(std::thread::spawn(move || {
            snapshot_reader(s, ses, st, t, 6, 30)
        }));
    }
    // Give the rebalancer time to split the hot shard at least once, so
    // scans demonstrably span policy-driven migrations.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while store.stats().migrations_completed == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }
    rebalancer.stop().expect("rebalancer survived the run");
    let history = rec.history();
    check_snapshot_isolation(&history, &initial)
        .unwrap_or_else(|v| panic!("snapshot-scan history violates snapshot isolation:\n{v}"));
    let st = store.stats();
    assert!(
        st.snapshot_scans >= 12,
        "both readers ran their minimum scans: {}",
        st.snapshot_scans
    );
    assert!(
        st.bundle_depth >= 2,
        "writers deepened the version bundles: {}",
        st.bundle_depth
    );
}
