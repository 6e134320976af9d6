//! # leap-history — record concurrent histories, check them offline
//!
//! The dbcop lineage of database testing (Biswas & Enea's dbcop, the
//! checkers behind Bundled References and Skip Hash) validates
//! linearizable range-query claims the honest way: record every
//! operation's **invocation and response** from a real concurrent run,
//! then verify offline that the history has a serialization — a total
//! order of the operations that (a) respects real time (an operation that
//! returned before another was invoked must precede it) and (b) replays
//! correctly against the sequential model. Because every operation here
//! is a single atomic action, that property is **strict serializability
//! = linearizability**, which implies plain serializability.
//!
//! This crate is the test-support half of that methodology for the
//! LeapStore / leap-memdb stack:
//!
//! * [`Recorder`] / [`Session`] — one session per worker thread; each
//!   operation is stamped with invocation/response times drawn from one
//!   global atomic clock and logged locally (no cross-thread contention
//!   beyond the clock).
//! * [`check`] — a Wing&Gong-style search with memoization: explore
//!   linearization orders lazily, one per-session frontier at a time,
//!   replaying candidate operations against a [`BTreeMap`] model and
//!   pruning orders whose replay contradicts a recorded response.
//!
//! The model is a map from `u64` keys to **packed fixed-width tuples** in
//! a `u64` — exactly the shape of `leap-memdb` rows (and a plain store
//! value is the trivial one-field tuple). [`Op::Rmw`] and
//! [`Op::FieldRange`] express a table's `update_column` and `scan_by` in
//! that encoding; plain stores use [`Op::Put`]/[`Op::Get`]/[`Op::Range`]/
//! [`Op::Batch`].
//!
//! # Snapshot isolation
//!
//! The stack's pinned-timestamp scans (`LeapStore::scan_snapshot_pages`,
//! `Table::scan_by_snapshot`) claim more than per-page consistency: the
//! **whole multi-page scan** observes one instant. [`check_snapshot_isolation`]
//! verifies that claim from a recorded run. Each scan is recorded as ONE
//! event via [`Session::snapshot_scan`] — invocation stamped before the
//! timestamp is pinned, response after the last page, result the merged
//! pages plus the pinned timestamp. The checker then requires (a) a
//! serialization in which every scan is one **atomic** range read — a
//! paged scan whose pages mixed two instants has no such serialization —
//! where writes respect real time strictly and a scan may only trail it
//! (the pin can lag a just-responded write while an earlier commit is
//! still wiring: SI, not strict serializability, on the read path),
//! (b) pinned timestamps that never run backwards across real time, and
//! (c) identical results from scans that pinned the same timestamp over
//! the same range.
//!
//! # Example
//!
//! ```
//! use leap_history::{check, Op, Recorder};
//! use std::collections::BTreeMap;
//! use std::sync::Mutex;
//!
//! let map = Mutex::new(BTreeMap::new());
//! let rec = Recorder::new();
//! let mut s = rec.session();
//! s.put(3, 30, || map.lock().unwrap().insert(3, 30));
//! s.range(0, 9, || {
//!     map.lock().unwrap().range(0..=9).map(|(&k, &v)| (k, v)).collect()
//! });
//! drop(s);
//! let report = check(&rec.history(), &BTreeMap::new()).unwrap();
//! assert_eq!(report.events, 2);
//! ```

#![deny(missing_docs)]

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// One fixed-width bit-field of a packed tuple value: bits
/// `[shift, shift + width)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    /// Bit offset of the field.
    pub shift: u32,
    /// Field width in bits (1..=64).
    pub width: u32,
}

impl Field {
    /// A field at `shift` of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if the field does not fit in 64 bits.
    pub fn new(shift: u32, width: u32) -> Self {
        assert!(width >= 1 && shift + width <= 64, "field out of bounds");
        Field { shift, width }
    }

    fn mask(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            ((1u64 << self.width) - 1) << self.shift
        }
    }

    /// Extracts the field from a packed value.
    pub fn of(&self, v: u64) -> u64 {
        (v & self.mask()) >> self.shift
    }

    /// The packed value with this field replaced by `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` does not fit the field.
    pub fn set(&self, v: u64, to: u64) -> u64 {
        assert!(
            self.width == 64 || to < (1u64 << self.width),
            "value {to} exceeds {} bits",
            self.width
        );
        (v & !self.mask()) | (to << self.shift)
    }
}

/// One recorded operation (what was asked).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Point read of `key`.
    Get(u64),
    /// Write `key -> value`; responds with the previous value.
    Put(u64, u64),
    /// Remove `key`; responds with the removed value.
    Delete(u64),
    /// Snapshot of all pairs with keys in `[lo, hi]`, ascending.
    Range(u64, u64),
    /// One atomic batch, applied in order: `Some(v)` puts, `None`
    /// deletes; responds with per-component previous values.
    Batch(Vec<(u64, Option<u64>)>),
    /// Read-modify-write of one field of `key`'s packed tuple; responds
    /// with the **new** full tuple, or `None` if the key was absent (in
    /// which case nothing changed).
    Rmw {
        /// The key whose tuple is rewritten.
        key: u64,
        /// The field replaced.
        field: Field,
        /// The field's new value.
        to: u64,
    },
    /// Snapshot of all pairs whose tuple `field` lies in `[lo, hi]`,
    /// ordered by `(field value, key)` — a secondary-index scan.
    FieldRange {
        /// The field scanned.
        field: Field,
        /// Lowest matching field value.
        lo: u64,
        /// Highest matching field value (inclusive).
        hi: u64,
    },
    /// A whole multi-page snapshot-isolated scan of `[lo, hi]`, collapsed
    /// to one event: the response is the merged pages, which must all
    /// have read the database at the one pinned commit timestamp `ts`.
    /// Replays exactly like [`Op::Range`], except the search may place it
    /// **before its invocation**: a pinned snapshot is allowed to trail
    /// writes that committed with a higher timestamp while an earlier
    /// commit was still wiring — snapshot isolation, not strict
    /// serializability, on the read path. `ts` additionally feeds the
    /// axioms of [`check_snapshot_isolation`].
    SnapshotScan {
        /// Lowest key scanned.
        lo: u64,
        /// Highest key scanned (inclusive).
        hi: u64,
        /// The commit timestamp the scan pinned.
        ts: u64,
    },
}

/// One recorded response (what came back).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ret {
    /// A single optional value (get result, put/delete previous, rmw new).
    Value(Option<u64>),
    /// A consistent snapshot of pairs.
    Snapshot(Vec<(u64, u64)>),
    /// Per-component previous values of a batch.
    Values(Vec<Option<u64>>),
}

/// One operation with its response and its invocation/response stamps
/// from the recorder's global clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The operation.
    pub op: Op,
    /// Its recorded response.
    pub ret: Ret,
    /// Clock value drawn at invocation.
    pub inv: u64,
    /// Clock value drawn at response.
    pub res: u64,
}

/// A complete recorded history: one event sequence per session (thread),
/// each in program order.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Per-session event logs.
    pub sessions: Vec<Vec<Event>>,
}

impl History {
    /// Total number of recorded events.
    pub fn len(&self) -> usize {
        self.sessions.iter().map(Vec::len).sum()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The shared recording context: a global invocation/response clock plus
/// the collected session logs.
#[derive(Debug, Default)]
pub struct Recorder {
    clock: AtomicU64,
    log: Mutex<Vec<Vec<Event>>>,
}

impl Recorder {
    /// A fresh recorder.
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder::default())
    }

    /// Opens a session. Each concurrent worker records through its own
    /// session; the session's events flush into the recorder when the
    /// session drops.
    pub fn session(self: &Arc<Self>) -> Session {
        Session {
            recorder: self.clone(),
            events: Vec::new(),
        }
    }

    /// The history recorded so far. Call after every session has been
    /// dropped (events flush on session drop).
    pub fn history(&self) -> History {
        History {
            sessions: self
                .log
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::AcqRel)
    }
}

/// One thread's recording handle (see [`Recorder::session`]).
#[derive(Debug)]
pub struct Session {
    recorder: Arc<Recorder>,
    events: Vec<Event>,
}

impl Session {
    /// Stamps an invocation. Pair with [`Session::resolve`] for
    /// operations whose [`Op`] is only known after the call returns
    /// (e.g. an insert that allocates its row id).
    pub fn invoke(&self) -> u64 {
        self.recorder.tick()
    }

    /// Records `op` with response `ret`, stamping the response time now.
    pub fn resolve(&mut self, inv: u64, op: Op, ret: Ret) {
        let res = self.recorder.tick();
        debug_assert!(inv < res, "resolve before invoke");
        self.events.push(Event { op, ret, inv, res });
    }

    /// Runs and records a point read.
    pub fn get(&mut self, key: u64, f: impl FnOnce() -> Option<u64>) -> Option<u64> {
        let inv = self.invoke();
        let got = f();
        self.resolve(inv, Op::Get(key), Ret::Value(got));
        got
    }

    /// Runs and records a put (the closure returns the previous value).
    pub fn put(&mut self, key: u64, value: u64, f: impl FnOnce() -> Option<u64>) -> Option<u64> {
        let inv = self.invoke();
        let prev = f();
        self.resolve(inv, Op::Put(key, value), Ret::Value(prev));
        prev
    }

    /// Runs and records a delete (the closure returns the removed value).
    pub fn delete(&mut self, key: u64, f: impl FnOnce() -> Option<u64>) -> Option<u64> {
        let inv = self.invoke();
        let prev = f();
        self.resolve(inv, Op::Delete(key), Ret::Value(prev));
        prev
    }

    /// Runs and records a range snapshot.
    pub fn range(&mut self, lo: u64, hi: u64, f: impl FnOnce() -> Vec<(u64, u64)>) {
        let inv = self.invoke();
        let snap = f();
        self.resolve(inv, Op::Range(lo, hi), Ret::Snapshot(snap));
    }

    /// Runs and records an atomic batch (the closure returns per-component
    /// previous values, in input order).
    pub fn batch(&mut self, parts: Vec<(u64, Option<u64>)>, f: impl FnOnce() -> Vec<Option<u64>>) {
        let inv = self.invoke();
        let prevs = f();
        self.resolve(inv, Op::Batch(parts), Ret::Values(prevs));
    }

    /// Runs and records a field read-modify-write (the closure returns
    /// the new full tuple, or `None` if the key was absent).
    pub fn rmw(
        &mut self,
        key: u64,
        field: Field,
        to: u64,
        f: impl FnOnce() -> Option<u64>,
    ) -> Option<u64> {
        let inv = self.invoke();
        let new = f();
        self.resolve(inv, Op::Rmw { key, field, to }, Ret::Value(new));
        new
    }

    /// Runs and records a whole snapshot-isolated paged scan as ONE
    /// event: the closure pins the timestamp, drives **every** page, and
    /// returns `(pinned ts, merged pages)`; the invocation stamp
    /// precedes the pin and the response stamp follows the last page.
    /// Returns the pinned timestamp.
    pub fn snapshot_scan(
        &mut self,
        lo: u64,
        hi: u64,
        f: impl FnOnce() -> (u64, Vec<(u64, u64)>),
    ) -> u64 {
        let inv = self.invoke();
        let (ts, snap) = f();
        self.resolve(inv, Op::SnapshotScan { lo, hi, ts }, Ret::Snapshot(snap));
        ts
    }

    /// Runs and records a secondary-index scan: all pairs whose `field`
    /// lies in `[lo, hi]`, ordered by `(field value, key)`.
    pub fn field_range(
        &mut self,
        field: Field,
        lo: u64,
        hi: u64,
        f: impl FnOnce() -> Vec<(u64, u64)>,
    ) {
        let inv = self.invoke();
        let snap = f();
        self.resolve(inv, Op::FieldRange { field, lo, hi }, Ret::Snapshot(snap));
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.recorder
            .log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(std::mem::take(&mut self.events));
    }
}

/// Statistics of a successful check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckReport {
    /// Events in the history.
    pub events: usize,
    /// Search states explored before a serialization was found.
    pub states: usize,
}

/// Why a check failed.
#[derive(Debug, Clone)]
pub enum Violation {
    /// No serialization exists: every real-time-respecting order
    /// contradicts some recorded response. Carries the frontier events
    /// (one per unfinished session) at the search's deepest progress —
    /// the operations among which the contradiction lives.
    NotSerializable {
        /// Events linearized at the deepest point reached.
        depth: usize,
        /// Total events.
        events: usize,
        /// The per-session next events at the deepest stuck frontier.
        frontier: Vec<Event>,
    },
    /// The state budget was exhausted before the search concluded —
    /// shrink the workload (fewer ops/threads) rather than raising it.
    BudgetExhausted {
        /// States explored.
        states: usize,
    },
    /// Two snapshot scans' pinned timestamps contradict real time: the
    /// first finished before the second began yet pinned a **later**
    /// timestamp — the snapshot clock ran backwards.
    SnapshotRegression {
        /// The scan that finished first.
        earlier: Box<Event>,
        /// The later scan, which pinned the smaller timestamp.
        later: Box<Event>,
    },
    /// Two snapshot scans pinned the **same** timestamp over the same
    /// range but observed different states — the pinned instant is not a
    /// single consistent cut.
    SnapshotDivergence {
        /// One of the scans.
        a: Box<Event>,
        /// The other.
        b: Box<Event>,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::NotSerializable {
                depth,
                events,
                frontier,
            } => {
                writeln!(
                    f,
                    "history is not serializable: stuck after {depth}/{events} events; frontier:"
                )?;
                for e in frontier {
                    writeln!(f, "  [{}..{}] {:?} -> {:?}", e.inv, e.res, e.op, e.ret)?;
                }
                Ok(())
            }
            Violation::BudgetExhausted { states } => {
                write!(f, "checker state budget exhausted after {states} states")
            }
            Violation::SnapshotRegression { earlier, later } => {
                writeln!(f, "snapshot timestamps ran backwards across real time:")?;
                writeln!(f, "  [{}..{}] {:?}", earlier.inv, earlier.res, earlier.op)?;
                write!(f, "  [{}..{}] {:?}", later.inv, later.res, later.op)
            }
            Violation::SnapshotDivergence { a, b } => {
                writeln!(
                    f,
                    "equal-timestamp snapshot scans observed different states:"
                )?;
                writeln!(f, "  [{}..{}] {:?} -> {:?}", a.inv, a.res, a.op, a.ret)?;
                write!(f, "  [{}..{}] {:?} -> {:?}", b.inv, b.res, b.op, b.ret)
            }
        }
    }
}

/// Default state budget for [`check`] (see
/// [`Violation::BudgetExhausted`]).
pub const DEFAULT_STATE_BUDGET: usize = 1 << 22;

/// Applies `op` to `model` if the recorded `ret` matches the model's
/// answer; returns the undo list on success.
fn replay(op: &Op, ret: &Ret, model: &mut BTreeMap<u64, u64>) -> Option<Vec<(u64, Option<u64>)>> {
    match (op, ret) {
        (Op::Get(k), Ret::Value(got)) => (model.get(k).copied() == *got).then(Vec::new),
        (Op::Put(k, v), Ret::Value(prev)) => {
            let old = model.get(k).copied();
            if old != *prev {
                return None;
            }
            model.insert(*k, *v);
            Some(vec![(*k, old)])
        }
        (Op::Delete(k), Ret::Value(prev)) => {
            let old = model.get(k).copied();
            if old != *prev {
                return None;
            }
            model.remove(k);
            Some(vec![(*k, old)])
        }
        (Op::Range(lo, hi), Ret::Snapshot(snap))
        | (Op::SnapshotScan { lo, hi, .. }, Ret::Snapshot(snap)) => {
            let mut want = model.range(lo..=hi).map(|(&k, &v)| (k, v));
            let mut got = snap.iter().copied();
            loop {
                match (want.next(), got.next()) {
                    (None, None) => return Some(Vec::new()),
                    (w, g) if w == g => continue,
                    _ => return None,
                }
            }
        }
        (Op::Batch(parts), Ret::Values(prevs)) => {
            if parts.len() != prevs.len() {
                return None;
            }
            let mut undo = Vec::with_capacity(parts.len());
            for ((k, v), want_prev) in parts.iter().zip(prevs) {
                let old = model.get(k).copied();
                if old != *want_prev {
                    // Roll back the components already applied.
                    for (k, old) in undo.into_iter().rev() {
                        restore(model, k, old);
                    }
                    return None;
                }
                undo.push((*k, old));
                match v {
                    Some(v) => {
                        model.insert(*k, *v);
                    }
                    None => {
                        model.remove(k);
                    }
                }
            }
            Some(undo)
        }
        (Op::Rmw { key, field, to }, Ret::Value(new)) => match model.get(key).copied() {
            None => new.is_none().then(Vec::new),
            Some(old) => {
                let updated = field.set(old, *to);
                if *new != Some(updated) {
                    return None;
                }
                model.insert(*key, updated);
                Some(vec![(*key, Some(old))])
            }
        },
        (Op::FieldRange { field, lo, hi }, Ret::Snapshot(snap)) => {
            let mut want: Vec<(u64, u64)> = model
                .iter()
                .filter(|(_, &v)| (*lo..=*hi).contains(&field.of(v)))
                .map(|(&k, &v)| (k, v))
                .collect();
            want.sort_by_key(|&(k, v)| (field.of(v), k));
            (want == *snap).then(Vec::new)
        }
        _ => None, // Op/Ret shape mismatch: the recording itself is broken.
    }
}

fn restore(model: &mut BTreeMap<u64, u64>, k: u64, old: Option<u64>) {
    match old {
        Some(v) => {
            model.insert(k, v);
        }
        None => {
            model.remove(&k);
        }
    }
}

/// Checks that `history` is strictly serializable (linearizable) against
/// a sequential map starting from `initial`, with the default state
/// budget. See the crate docs for the algorithm.
///
/// # Errors
///
/// [`Violation::NotSerializable`] when no valid order exists,
/// [`Violation::BudgetExhausted`] when the search grew too large.
pub fn check(history: &History, initial: &BTreeMap<u64, u64>) -> Result<CheckReport, Violation> {
    check_bounded(history, initial, DEFAULT_STATE_BUDGET)
}

/// Checks the stack's **snapshot-isolation** claims over a history of
/// writers racing whole multi-page scans recorded via
/// [`Session::snapshot_scan`] (see the crate docs):
///
/// 1. **Scan atomicity** — the history must serialize with every scan as
///    one atomic range read, writes strictly real-time-ordered, scans
///    allowed to read slightly in the past (delegates to [`check`]; a
///    scan whose pages mixed two instants has no serialization).
/// 2. **Pin monotonicity** — a scan that responded before another was
///    invoked must pin a timestamp no later than the other's.
/// 3. **Pin determinism** — scans that pinned the same timestamp must
///    agree exactly on the intersection of their ranges.
///
/// # Errors
///
/// [`Violation::SnapshotRegression`] / [`Violation::SnapshotDivergence`]
/// on a timestamp-axiom breach, otherwise as for [`check`].
pub fn check_snapshot_isolation(
    history: &History,
    initial: &BTreeMap<u64, u64>,
) -> Result<CheckReport, Violation> {
    let scans: Vec<&Event> = history
        .sessions
        .iter()
        .flatten()
        .filter(|e| matches!(e.op, Op::SnapshotScan { .. }))
        .collect();
    fn parts(e: &Event) -> (u64, u64, u64, &Vec<(u64, u64)>) {
        match (&e.op, &e.ret) {
            (&Op::SnapshotScan { lo, hi, ts }, Ret::Snapshot(snap)) => (lo, hi, ts, snap),
            _ => unreachable!("filtered to snapshot scans"),
        }
    }
    for (i, &a) in scans.iter().enumerate() {
        let (alo, ahi, ats, asnap) = parts(a);
        for &b in &scans[i + 1..] {
            let (blo, bhi, bts, bsnap) = parts(b);
            if a.res < b.inv && ats > bts {
                return Err(Violation::SnapshotRegression {
                    earlier: Box::new(a.clone()),
                    later: Box::new(b.clone()),
                });
            }
            if b.res < a.inv && bts > ats {
                return Err(Violation::SnapshotRegression {
                    earlier: Box::new(b.clone()),
                    later: Box::new(a.clone()),
                });
            }
            let (ilo, ihi) = (alo.max(blo), ahi.min(bhi));
            if ats == bts && ilo <= ihi {
                let clip = |snap: &[(u64, u64)]| -> Vec<(u64, u64)> {
                    snap.iter()
                        .copied()
                        .filter(|&(k, _)| (ilo..=ihi).contains(&k))
                        .collect()
                };
                if clip(asnap) != clip(bsnap) {
                    return Err(Violation::SnapshotDivergence {
                        a: Box::new(a.clone()),
                        b: Box::new(b.clone()),
                    });
                }
            }
        }
    }
    check(history, initial)
}

/// [`check`] with an explicit state budget.
///
/// # Errors
///
/// As for [`check`].
pub fn check_bounded(
    history: &History,
    initial: &BTreeMap<u64, u64>,
    budget: usize,
) -> Result<CheckReport, Violation> {
    let sessions: Vec<&[Event]> = history
        .sessions
        .iter()
        .map(Vec::as_slice)
        .filter(|s| !s.is_empty())
        .collect();
    let events: usize = sessions.iter().map(|s| s.len()).sum();
    let mut search = Search {
        sessions,
        model: initial.clone(),
        heads: Vec::new(),
        seen: HashSet::new(),
        states: 0,
        budget,
        deepest: 0,
        deepest_heads: Vec::new(),
    };
    search.heads = vec![0; search.sessions.len()];
    match search.dfs(0) {
        Ok(true) => Ok(CheckReport {
            events,
            states: search.states,
        }),
        Ok(false) => {
            let frontier = search
                .sessions
                .iter()
                .zip(&search.deepest_heads)
                .filter_map(|(s, &h)| s.get(h).cloned())
                .collect();
            Err(Violation::NotSerializable {
                depth: search.deepest,
                events,
                frontier,
            })
        }
        Err(()) => Err(Violation::BudgetExhausted {
            states: search.states,
        }),
    }
}

/// One visited search state: the per-session frontier plus a 128-bit
/// fingerprint of the model's contents when it was reached. The
/// fingerprint keeps memo memory proportional to the state count (tens
/// of bytes per state instead of a full map clone); a collision could
/// only make the search *skip* a state — at ~2⁻¹²⁸ per pair it is far
/// below any realistic flakiness budget.
type SeenState = (Vec<usize>, u64, u64);

/// Two independent FNV/xxhash-style folds over the map's `(key, value)`
/// stream (order is canonical — `BTreeMap` iterates sorted).
fn model_fingerprint(model: &BTreeMap<u64, u64>) -> (u64, u64) {
    let (mut h1, mut h2) = (0xcbf2_9ce4_8422_2325u64, 0x9e37_79b9_7f4a_7c15u64);
    for (&k, &v) in model {
        for w in [k, v] {
            h1 = (h1 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
            h2 = (h2 ^ w.rotate_left(17)).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        }
    }
    (h1, h2)
}

struct Search<'a> {
    sessions: Vec<&'a [Event]>,
    model: BTreeMap<u64, u64>,
    heads: Vec<usize>,
    /// Visited (heads, model) states — orders that converge to the same
    /// frontier and map need exploring only once.
    seen: HashSet<SeenState>,
    states: usize,
    budget: usize,
    deepest: usize,
    deepest_heads: Vec<usize>,
}

impl Search<'_> {
    /// Returns `Ok(true)` if the remaining events linearize, `Ok(false)`
    /// if not, `Err(())` on budget exhaustion.
    fn dfs(&mut self, done: usize) -> Result<bool, ()> {
        if done > self.deepest {
            self.deepest = done;
            self.deepest_heads = self.heads.clone();
        }
        // Minimal events: each session's next event, except those whose
        // invocation lies after some other pending event's response
        // (that event must be linearized first). The minimum pending
        // response bounds the candidates: within a session inv/res are
        // increasing, so only heads can be minimal.
        let mut min_res = u64::MAX;
        let mut exhausted = true;
        for (s, &h) in self.sessions.iter().zip(&self.heads) {
            if let Some(e) = s.get(h) {
                exhausted = false;
                min_res = min_res.min(e.res);
            }
        }
        if exhausted {
            return Ok(true);
        }
        self.states += 1;
        if self.states > self.budget {
            return Err(());
        }
        for i in 0..self.sessions.len() {
            let Some(e) = self.sessions[i].get(self.heads[i]) else {
                continue;
            };
            // A snapshot scan's read point is its PIN, which may trail a
            // write that responded just before the scan was invoked (the
            // pin excludes commits above a still-wiring transaction), so
            // a scan may linearize before its invocation. Every other op
            // respects real time strictly.
            let stale_ok = matches!(e.op, Op::SnapshotScan { .. });
            if !stale_ok && e.inv > min_res {
                continue; // Blocked behind a pending response.
            }
            let Some(undo) = replay(&e.op, &e.ret, &mut self.model) else {
                continue; // This order contradicts the recorded response.
            };
            self.heads[i] += 1;
            let (h1, h2) = model_fingerprint(&self.model);
            let novel = self.seen.insert((self.heads.clone(), h1, h2));
            let found = if novel { self.dfs(done + 1)? } else { false };
            if found {
                return Ok(true);
            }
            self.heads[i] -= 1;
            for (k, old) in undo.into_iter().rev() {
                restore(&mut self.model, k, old);
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(op: Op, ret: Ret, inv: u64, res: u64) -> Event {
        Event { op, ret, inv, res }
    }

    #[test]
    fn fields_pack_and_unpack() {
        let age = Field::new(0, 28);
        let user = Field::new(28, 28);
        let v = user.set(age.set(0, 33), 1001);
        assert_eq!(age.of(v), 33);
        assert_eq!(user.of(v), 1001);
        assert_eq!(age.set(v, 34), user.set(age.set(0, 34), 1001));
        let whole = Field::new(0, 64);
        assert_eq!(whole.of(u64::MAX), u64::MAX);
        assert_eq!(whole.set(3, u64::MAX), u64::MAX);
    }

    #[test]
    fn sequential_history_passes() {
        let rec = Recorder::new();
        let mut s = rec.session();
        assert_eq!(s.put(1, 10, || None), None);
        assert_eq!(s.get(1, || Some(10)), Some(10));
        assert_eq!(s.delete(1, || Some(10)), Some(10));
        s.range(0, 9, Vec::new);
        drop(s);
        let h = rec.history();
        assert_eq!(h.len(), 4);
        assert!(!h.is_empty());
        let report = check(&h, &BTreeMap::new()).expect("valid history");
        assert_eq!(report.events, 4);
    }

    #[test]
    fn stale_read_is_rejected() {
        let rec = Recorder::new();
        let mut s = rec.session();
        s.put(1, 10, || None);
        s.get(1, || None); // Lost update: the read missed the put.
        drop(s);
        let err = check(&rec.history(), &BTreeMap::new()).unwrap_err();
        let Violation::NotSerializable { depth, events, .. } = err else {
            panic!("expected NotSerializable");
        };
        assert_eq!((depth, events), (1, 2));
    }

    #[test]
    fn concurrent_ops_may_linearize_either_way() {
        // Two overlapping puts to one key; a later read sees one of them.
        // Whichever the read saw, an order exists.
        for winner in [10u64, 20u64] {
            // The puts overlap in time, so either may linearize first; the
            // loser's write is the winner's recorded previous value.
            let h = History {
                sessions: vec![
                    vec![ev(
                        Op::Put(1, 10),
                        Ret::Value((winner == 10).then_some(20)),
                        0,
                        10,
                    )],
                    vec![
                        ev(
                            Op::Put(1, 20),
                            Ret::Value((winner == 20).then_some(10)),
                            1,
                            9,
                        ),
                        ev(Op::Get(1), Ret::Value(Some(winner)), 11, 12),
                    ],
                ],
            };
            check(&h, &BTreeMap::new())
                .unwrap_or_else(|v| panic!("winner {winner} should serialize: {v}"));
        }
    }

    #[test]
    fn real_time_order_is_enforced() {
        // The put RESPONDED before the get was INVOKED, so the get cannot
        // be ordered first even though that would explain its result.
        let h = History {
            sessions: vec![
                vec![ev(Op::Put(1, 10), Ret::Value(None), 0, 1)],
                vec![ev(Op::Get(1), Ret::Value(None), 2, 3)],
            ],
        };
        assert!(matches!(
            check(&h, &BTreeMap::new()),
            Err(Violation::NotSerializable { .. })
        ));
    }

    #[test]
    fn torn_batch_snapshot_is_rejected() {
        // A batch writes keys 1 and 2 atomically; a concurrent range saw
        // only half of it — no serialization explains that.
        let h = History {
            sessions: vec![
                vec![ev(
                    Op::Batch(vec![(1, Some(11)), (2, Some(22))]),
                    Ret::Values(vec![None, None]),
                    0,
                    5,
                )],
                vec![ev(Op::Range(0, 9), Ret::Snapshot(vec![(1, 11)]), 1, 4)],
            ],
        };
        assert!(matches!(
            check(&h, &BTreeMap::new()),
            Err(Violation::NotSerializable { .. })
        ));
        // Seeing all or none of it is fine.
        for snap in [vec![], vec![(1, 11), (2, 22)]] {
            let h = History {
                sessions: vec![
                    vec![ev(
                        Op::Batch(vec![(1, Some(11)), (2, Some(22))]),
                        Ret::Values(vec![None, None]),
                        0,
                        5,
                    )],
                    vec![ev(Op::Range(0, 9), Ret::Snapshot(snap), 1, 4)],
                ],
            };
            check(&h, &BTreeMap::new()).expect("atomic view serializes");
        }
    }

    #[test]
    fn rmw_and_field_range_replay() {
        let age = Field::new(0, 28);
        let rec = Recorder::new();
        let mut s = rec.session();
        s.put(7, age.set(0, 30), || None);
        assert_eq!(
            s.rmw(7, age, 31, || Some(age.set(0, 31))),
            Some(age.set(0, 31))
        );
        s.field_range(age, 0, 100, || vec![(7, age.set(0, 31))]);
        s.rmw(99, age, 1, || None); // Absent key: no-op, returns None.
        drop(s);
        check(&rec.history(), &BTreeMap::new()).expect("rmw history valid");

        // A field scan ordered by (field, key), with a wrong order, fails.
        let h = History {
            sessions: vec![vec![
                ev(Op::Put(1, 5), Ret::Value(None), 0, 1),
                ev(Op::Put(2, 4), Ret::Value(None), 2, 3),
                ev(
                    Op::FieldRange {
                        field: age,
                        lo: 0,
                        hi: 10,
                    },
                    // Correct order is (2,4) then (1,5) — by field value.
                    Ret::Snapshot(vec![(1, 5), (2, 4)]),
                    4,
                    5,
                ),
            ]],
        };
        assert!(check(&h, &BTreeMap::new()).is_err());
    }

    #[test]
    fn batch_mismatch_rolls_back_cleanly() {
        // First batch succeeds; second batch's recorded prevs are wrong on
        // the SECOND component, forcing a mid-batch rollback (exercising
        // the partial-undo path) before the search concludes.
        let h = History {
            sessions: vec![
                vec![ev(
                    Op::Batch(vec![(1, Some(1)), (2, None)]),
                    Ret::Values(vec![None, None]),
                    0,
                    1,
                )],
                vec![ev(
                    Op::Batch(vec![(3, Some(3)), (1, Some(9))]),
                    Ret::Values(vec![None, None]), // Wrong: prev of 1 is Some(1).
                    2,
                    3,
                )],
            ],
        };
        assert!(check(&h, &BTreeMap::new()).is_err());
    }

    #[test]
    fn budget_exhaustion_reports() {
        let h = History {
            sessions: vec![
                vec![ev(Op::Put(1, 1), Ret::Value(None), 0, 10)],
                vec![ev(Op::Put(2, 2), Ret::Value(None), 1, 9)],
            ],
        };
        assert!(matches!(
            check_bounded(&h, &BTreeMap::new(), 0),
            Err(Violation::BudgetExhausted { .. })
        ));
        assert!(format!("{}", Violation::BudgetExhausted { states: 1 }).contains("budget"));
    }

    #[test]
    fn initial_state_is_respected() {
        let mut init = BTreeMap::new();
        init.insert(5, 50);
        let rec = Recorder::new();
        let mut s = rec.session();
        s.get(5, || Some(50));
        s.delete(5, || Some(50));
        drop(s);
        check(&rec.history(), &init).expect("initial state visible");
    }

    #[test]
    fn many_threads_of_commuting_ops_stay_cheap() {
        // 4 sessions × 64 ops on disjoint keys, fully overlapped in time:
        // memoization must keep the state count near-linear, not 4^64.
        let sessions: Vec<Vec<Event>> = (0..4u64)
            .map(|t| {
                (0..64u64)
                    .map(|i| {
                        ev(
                            Op::Put(t * 1000 + i, i),
                            Ret::Value(None),
                            t + i * 8,
                            t + i * 8 + 4,
                        )
                    })
                    .collect()
            })
            .collect();
        let h = History { sessions };
        let report = check(&h, &BTreeMap::new()).expect("commuting ops serialize");
        assert!(
            report.states < 100_000,
            "memoization failed: {} states",
            report.states
        );
    }

    #[test]
    fn snapshot_scan_records_and_serializes_atomically() {
        let map = Mutex::new(BTreeMap::from([(1u64, 10u64), (2, 20)]));
        let rec = Recorder::new();
        let mut s = rec.session();
        let ts = s.snapshot_scan(0, 9, || {
            (
                7,
                map.lock().unwrap().iter().map(|(&k, &v)| (k, v)).collect(),
            )
        });
        assert_eq!(ts, 7);
        s.put(3, 30, || map.lock().unwrap().insert(3, 30));
        s.snapshot_scan(0, 9, || {
            (
                9,
                map.lock().unwrap().iter().map(|(&k, &v)| (k, v)).collect(),
            )
        });
        drop(s);
        let init = BTreeMap::from([(1, 10), (2, 20)]);
        let report = check_snapshot_isolation(&rec.history(), &init).expect("valid SI history");
        assert_eq!(report.events, 3);
    }

    #[test]
    fn torn_snapshot_scan_is_rejected() {
        // A batch replaces keys 1 and 2 atomically; the scan's merged
        // pages mixed the old value of 2 with the new value of 1 — the
        // exact tear pinned-timestamp scans exist to rule out.
        let h = History {
            sessions: vec![
                vec![ev(
                    Op::Batch(vec![(1, Some(11)), (2, Some(22))]),
                    Ret::Values(vec![Some(10), Some(20)]),
                    0,
                    5,
                )],
                vec![ev(
                    Op::SnapshotScan {
                        lo: 0,
                        hi: 9,
                        ts: 3,
                    },
                    Ret::Snapshot(vec![(1, 11), (2, 20)]),
                    1,
                    4,
                )],
            ],
        };
        let init = BTreeMap::from([(1, 10), (2, 20)]);
        assert!(matches!(
            check_snapshot_isolation(&h, &init),
            Err(Violation::NotSerializable { .. })
        ));
    }

    #[test]
    fn snapshot_scan_may_read_slightly_in_the_past() {
        // The put RESPONDED before the scan was invoked, yet the scan
        // missed it. As a plain Range that is a stale read; a pinned
        // snapshot is allowed to trail (its pin excludes commits above a
        // still-wiring transaction).
        let put = ev(Op::Put(1, 10), Ret::Value(None), 0, 1);
        let h = History {
            sessions: vec![
                vec![put.clone()],
                vec![ev(
                    Op::SnapshotScan {
                        lo: 0,
                        hi: 9,
                        ts: 0,
                    },
                    Ret::Snapshot(Vec::new()),
                    2,
                    3,
                )],
            ],
        };
        check_snapshot_isolation(&h, &BTreeMap::new()).expect("SI permits the trailing pin");
        let h = History {
            sessions: vec![
                vec![put],
                vec![ev(Op::Range(0, 9), Ret::Snapshot(Vec::new()), 2, 3)],
            ],
        };
        assert!(matches!(
            check(&h, &BTreeMap::new()),
            Err(Violation::NotSerializable { .. })
        ));
    }

    #[test]
    fn snapshot_timestamp_regression_is_rejected() {
        // Both scans read the empty map consistently (plain check would
        // pass), but the second scan — strictly later in real time —
        // pinned a SMALLER timestamp: the snapshot clock ran backwards.
        let h = History {
            sessions: vec![vec![
                ev(
                    Op::SnapshotScan {
                        lo: 0,
                        hi: 9,
                        ts: 7,
                    },
                    Ret::Snapshot(Vec::new()),
                    0,
                    1,
                ),
                ev(
                    Op::SnapshotScan {
                        lo: 0,
                        hi: 9,
                        ts: 3,
                    },
                    Ret::Snapshot(Vec::new()),
                    2,
                    3,
                ),
            ]],
        };
        let err = check_snapshot_isolation(&h, &BTreeMap::new()).unwrap_err();
        assert!(matches!(err, Violation::SnapshotRegression { .. }), "{err}");
        assert!(err.to_string().contains("ran backwards"), "{err}");
    }

    #[test]
    fn equal_timestamp_snapshot_divergence_is_rejected() {
        // Two scans pinned the SAME timestamp; each result alone is
        // explainable (a put overlaps both), but one instant cannot hold
        // both states — they must agree on the ranges' intersection.
        let h = History {
            sessions: vec![
                vec![ev(Op::Put(1, 2), Ret::Value(Some(1)), 0, 20)],
                vec![ev(
                    Op::SnapshotScan {
                        lo: 0,
                        hi: 9,
                        ts: 5,
                    },
                    Ret::Snapshot(vec![(1, 1)]),
                    1,
                    4,
                )],
                vec![ev(
                    Op::SnapshotScan {
                        lo: 1,
                        hi: 15,
                        ts: 5,
                    },
                    Ret::Snapshot(vec![(1, 2)]),
                    2,
                    6,
                )],
            ],
        };
        let init = BTreeMap::from([(1, 1)]);
        let err = check_snapshot_isolation(&h, &init).unwrap_err();
        assert!(matches!(err, Violation::SnapshotDivergence { .. }), "{err}");
        // Disjoint ranges at one timestamp never conflict.
        let h = History {
            sessions: vec![
                vec![ev(Op::Put(1, 2), Ret::Value(Some(1)), 0, 20)],
                vec![ev(
                    Op::SnapshotScan {
                        lo: 0,
                        hi: 9,
                        ts: 5,
                    },
                    Ret::Snapshot(vec![(1, 1)]),
                    1,
                    4,
                )],
                vec![ev(
                    Op::SnapshotScan {
                        lo: 10,
                        hi: 15,
                        ts: 5,
                    },
                    Ret::Snapshot(Vec::new()),
                    2,
                    6,
                )],
            ],
        };
        check_snapshot_isolation(&h, &init).expect("disjoint ranges cannot diverge");
    }
}
