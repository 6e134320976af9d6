//! Transactional domains: the global version clock and the orec table.

use crate::recorder::StmRecorder;
use crate::stats::Stats;
use crate::StatsSnapshot;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Default log2 of the ownership-record table size (2^16 orecs = 512 KiB).
pub const DEFAULT_OREC_BITS: u32 = 16;

/// Capacity of the wiring and snapshot-pin registries. Bounded by the
/// number of threads concurrently inside post-commit wiring (or holding a
/// snapshot pin), so a fixed array sized well past any realistic thread
/// count never blocks in practice; a full registry spins until a slot
/// frees. Each slot has a cache line of its own, so a registry uses
/// 8 KiB; a scan costs one load per slot in use (below the registry's
/// high-water mark), not one per slot.
const REGISTRY_SLOTS: usize = 128;

/// Registry slot value meaning "free".
const SLOT_FREE: u64 = u64::MAX;

/// One registry slot on a cache line of its own.
#[repr(align(64))]
struct Slot(AtomicU64);

/// A fixed array of timestamp slots with CAS acquisition. Used twice: the
/// *wiring* registry (writers publish the clock value they sampled before
/// commit, for the duration of their post-commit wiring) and the
/// *snapshot-pin* registry (readers publish their pinned timestamp for the
/// duration of a snapshot scan).
///
/// `used` is a monotone high-water mark: every slot ever claimed lies
/// below it, because a claim loads or raises it (SeqCst) to cover the
/// slot *before* its CAS. A scan
/// loads `used` and then reads only `slots[..used]`, so it costs the
/// slots in use, not the capacity. A claim tries the slots in use first,
/// starting from the calling thread's home slot ([`leap_obs::stripe_of`]
/// folded into them), so `used` grows only when every slot in use is
/// held at once, and two writers mostly keep to different lines.
struct SlotRegistry {
    slots: Box<[Slot]>,
    used: AtomicUsize,
    /// Slots every scan has read (tests: the O(slots in use) bound).
    #[cfg(test)]
    examined: AtomicUsize,
}

impl SlotRegistry {
    fn new() -> Self {
        SlotRegistry {
            slots: (0..REGISTRY_SLOTS)
                .map(|_| Slot(AtomicU64::new(SLOT_FREE)))
                .collect(),
            used: AtomicUsize::new(0),
            #[cfg(test)]
            examined: AtomicUsize::new(0),
        }
    }

    /// Claims a free slot and stores `value` (SeqCst — see the ordering
    /// proof on [`StmDomain::snapshot_ts`]). Spins while the registry is
    /// full.
    fn acquire(&self, value: u64) -> usize {
        debug_assert_ne!(value, SLOT_FREE, "SLOT_FREE is reserved");
        let home = leap_obs::stripe_of();
        loop {
            // ORDERING: SeqCst, so a claim below this value is ordered
            // after the raise that made `used` cover it (snapshot_ts proof).
            let used = self.used.load(Ordering::SeqCst);
            for k in 0..REGISTRY_SLOTS {
                // The slots in use, from the home slot on; then the next
                // slot above them.
                let i = if k < used { (home + k) % used } else { k };
                if i >= used {
                    // ORDERING: the SeqCst raise precedes the claim below
                    // in the total order (snapshot_ts proof). Claims below
                    // `used`, the steady state, write nothing here.
                    self.used.fetch_max(i + 1, Ordering::SeqCst);
                }
                let s = &self.slots[i].0;
                // ORDERING: the Relaxed load is an optimistic filter and the
                // CAS failure value is discarded; the SeqCst success is the
                // claim the snapshot_ts proof relies on.
                if s.load(Ordering::Relaxed) == SLOT_FREE
                    // ORDERING: the CAS failure value is discarded (scan moves on).
                    && s.compare_exchange(SLOT_FREE, value, Ordering::SeqCst, Ordering::Relaxed)
                        .is_ok()
                {
                    return i;
                }
            }
            std::thread::yield_now();
        }
    }

    /// Overwrites an owned slot's value.
    fn set(&self, idx: usize, value: u64) {
        debug_assert_ne!(value, SLOT_FREE, "SLOT_FREE is reserved");
        self.slots[idx].0.store(value, Ordering::SeqCst);
    }

    fn release(&self, idx: usize) {
        self.slots[idx].0.store(SLOT_FREE, Ordering::SeqCst);
    }

    /// The smallest occupied slot value, if any slot is occupied. Reads
    /// `used` first (SeqCst, after whatever the caller loaded before), then
    /// the slots below it.
    fn min_occupied(&self) -> Option<u64> {
        // ORDERING: SeqCst, after the caller's clock load (snapshot_ts proof).
        let used = self.used.load(Ordering::SeqCst);
        #[cfg(test)]
        // ORDERING: test-only tally read after the scans it counts.
        self.examined.fetch_add(used, Ordering::Relaxed);
        let min = self.slots[..used]
            .iter()
            .map(|s| s.0.load(Ordering::SeqCst))
            .min()
            .unwrap_or(SLOT_FREE);
        (min != SLOT_FREE).then_some(min)
    }
}

/// Places inside the STM engine where an attached fault hook may force a
/// failure (see [`StmDomain::set_fault_hook`]). The hook decides *whether*
/// the visit fails; the engine decides what failing means:
/// [`StmFaultPoint::Commit`] aborts the commit as a commit-time conflict,
/// [`StmFaultPoint::Validate`] fails the commit-time read validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmFaultPoint {
    /// Entry of [`Txn::commit`](crate::Txn::commit).
    Commit,
    /// Commit-time read-set validation (only reached when a concurrent
    /// commit moved the clock, i.e. under real contention).
    Validate,
}

/// A fault hook: returns `true` when the visited point should fail. Wired
/// by the store layer to a `leap-fault` injector; this crate only defines
/// the seam so it stays dependency-free.
pub type StmFaultHook = Arc<dyn Fn(StmFaultPoint) -> bool + Send + Sync>;

/// Ownership-record (versioned write-lock) encoding:
/// bit 0 = locked, bits 1.. = version number.
#[inline]
pub(crate) fn orec_is_locked(o: u64) -> bool {
    o & 1 == 1
}

#[inline]
pub(crate) fn orec_version(o: u64) -> u64 {
    o >> 1
}

#[inline]
pub(crate) fn orec_make(version: u64) -> u64 {
    version << 1
}

/// A transactional memory domain: one global version clock plus a striped
/// table of ownership records. Transactions from the same domain
/// synchronize with each other; [`TVar`](crate::TVar)s may be used with any
/// domain (the orec is chosen by hashing the variable's address).
///
/// # Example
///
/// ```
/// use leap_stm::StmDomain;
/// let d = StmDomain::new();
/// let small = StmDomain::with_orec_bits(8);
/// assert_eq!(small.orec_count(), 256);
/// assert_eq!(d.clock(), 0);
/// ```
pub struct StmDomain {
    clock: AtomicU64,
    orecs: Box<[AtomicU64]>,
    shift: u32,
    pub(crate) stats: Stats,
    /// Optional observability hooks; absent = zero-cost disabled path
    /// (one relaxed load on the retry loop's commit).
    recorder: OnceLock<StmRecorder>,
    /// Optional fault-injection hook; absent = one relaxed load per commit.
    fault_hook: OnceLock<StmFaultHook>,
    /// Writers mid-wiring: each slot holds the clock value the writer
    /// sampled *before* its commit bumped the clock, so every occupied
    /// slot is strictly below that writer's commit timestamp.
    wiring: SlotRegistry,
    /// Active snapshot pins: each slot holds a reader's pinned timestamp.
    pins: SlotRegistry,
}

impl StmDomain {
    /// Creates a domain with the default orec table size.
    pub fn new() -> Self {
        Self::with_orec_bits(DEFAULT_OREC_BITS)
    }

    /// Creates a domain with `2^orec_bits` ownership records. Small tables
    /// are useful in tests to force orec collisions (false conflicts).
    ///
    /// # Panics
    ///
    /// Panics if `orec_bits` is 0 or greater than 28.
    pub fn with_orec_bits(orec_bits: u32) -> Self {
        assert!((1..=28).contains(&orec_bits), "orec_bits must be in 1..=28");
        let n = 1usize << orec_bits;
        let orecs = (0..n).map(|_| AtomicU64::new(0)).collect();
        StmDomain {
            clock: AtomicU64::new(0),
            orecs,
            shift: 64 - orec_bits,
            stats: Stats::default(),
            recorder: OnceLock::new(),
            fault_hook: OnceLock::new(),
            wiring: SlotRegistry::new(),
            pins: SlotRegistry::new(),
        }
    }

    /// Attaches observability hooks (at most once per domain). Returns
    /// `false` — and leaves the existing recorder in place — if one was
    /// already attached.
    pub fn set_recorder(&self, recorder: StmRecorder) -> bool {
        self.recorder.set(recorder).is_ok()
    }

    /// The attached recorder, if any. Costs one relaxed atomic load when
    /// none is attached — the entire disabled-path overhead.
    #[inline]
    pub fn recorder(&self) -> Option<&StmRecorder> {
        self.recorder.get()
    }

    /// Attaches a fault-injection hook (at most once per domain). Returns
    /// `false` — and leaves the existing hook in place — if one was already
    /// attached. With no hook attached, every injection check is a single
    /// relaxed load.
    pub fn set_fault_hook(&self, hook: StmFaultHook) -> bool {
        self.fault_hook.set(hook).is_ok()
    }

    /// Whether the attached fault hook (if any) wants `point` to fail.
    #[inline]
    pub(crate) fn fault_fires(&self, point: StmFaultPoint) -> bool {
        match self.fault_hook.get() {
            None => false,
            Some(h) => h(point),
        }
    }

    /// Counts one bounded-retry timeout against this domain. Public so
    /// callers that bound retry loops through
    /// [`with_retry_budget`](crate::with_retry_budget) can attribute their
    /// timeouts to the domain they ran against; `LeapStore::bounded` is
    /// the store-level form and calls it.
    pub fn record_timeout(&self) {
        // ORDERING: monotonic stat counter; no publication rides on it.
        self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value of the global version clock.
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// A copy of the commit/abort counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    #[inline]
    pub(crate) fn clock_load(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    #[inline]
    pub(crate) fn clock_bump(&self) -> u64 {
        // SeqCst (not just AcqRel): the snapshot watermark's correctness
        // argument places the bump in the single total order together with
        // the wiring-slot stores and the reader's clock-then-slots loads —
        // see `snapshot_ts`.
        self.clock.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Registers this thread as *wiring*: about to commit a transaction
    /// whose structural effects (naked pointer swings, version-bundle
    /// stamps) are published after the commit itself. Call **before**
    /// [`Txn::commit`](crate::Txn::commit); drop the ticket only after
    /// every post-commit store is done. While the ticket is live,
    /// [`StmDomain::snapshot_ts`] stays below the commit's timestamp, so
    /// no snapshot reader can observe the half-wired state.
    pub fn begin_wiring(&self) -> WiringTicket<'_> {
        let idx = self.wiring.acquire(self.clock());
        WiringTicket { domain: self, idx }
    }

    /// The newest timestamp at which every commit is **fully wired**: the
    /// clock, held back below the commit timestamp of any writer still
    /// inside its post-commit wiring window.
    ///
    /// Correctness hinges on the load order — clock **first**, then the
    /// registry's high-water mark `used`, then the wiring slots below it,
    /// all SeqCst. Suppose a writer W with commit timestamp `wv ≤ ts` were
    /// still wiring when this returned `ts`. W claimed its slot `i`
    /// (holding `c`, the clock it sampled before commit, so `c < wv`)
    /// before bumping the clock, and before that claim it loaded or raised
    /// `used` to at least `i + 1`; the bump precedes our clock load (we
    /// observed `wv`), which precedes our load of `used`, which precedes
    /// our slot scan. In the SeqCst total order W's raise therefore
    /// precedes our load of `used` — which, being monotone, reads at least
    /// `i + 1`, so the scan covers slot `i` — and W's claim precedes the
    /// scan, so we saw the slot occupied and returned `ts ≤ c < wv` — a
    /// contradiction. (The reverse order — slots first — admits a racing
    /// writer that registers and commits between the two loads and is
    /// unsound.) The returned value is monotone non-decreasing.
    pub fn snapshot_ts(&self) -> u64 {
        let clk = self.clock();
        match self.wiring.min_occupied() {
            Some(c) => clk.min(c),
            None => clk,
        }
    }

    /// Pins a snapshot timestamp for the lifetime of the returned guard:
    /// version-bundle pruning and retired-node reclamation will preserve
    /// everything visible at the pin's timestamp (and newer) until the pin
    /// drops. The timestamp is [`StmDomain::snapshot_ts`], sampled after
    /// the pin is registered so a concurrent pruner can never slip past
    /// it (the slot transiently holds 0 — maximally conservative — until
    /// the real timestamp replaces it). A pruner that loads the pin
    /// registry's `used` before the claim raised it to cover the slot
    /// ordered its own [`StmDomain::snapshot_ts`] before the pin's, so the
    /// pin's timestamp is at least that pruner's bound; otherwise its scan
    /// covers the slot, exactly as in the `snapshot_ts` proof.
    pub fn pin_snapshot(self: &Arc<Self>) -> SnapshotPin {
        let idx = self.pins.acquire(0);
        let ts = self.snapshot_ts();
        self.pins.set(idx, ts);
        SnapshotPin {
            domain: self.clone(),
            idx,
            ts,
        }
    }

    /// The oldest timestamp any live [`SnapshotPin`] holds, if any.
    pub fn oldest_pinned(&self) -> Option<u64> {
        self.pins.min_occupied()
    }

    /// The bound below which superseded versions are unreachable: no live
    /// pin — and, by monotonicity of [`StmDomain::snapshot_ts`], no
    /// *future* pin — can carry a timestamp below it. Version-bundle
    /// pruning keeps the newest entry at-or-below this bound plus
    /// everything above it; retired nodes whose retirement timestamp is
    /// at-or-below it are invisible to every present and future snapshot.
    pub fn prune_bound(&self) -> u64 {
        let ts = self.snapshot_ts();
        match self.oldest_pinned() {
            Some(p) => p.min(ts),
            None => ts,
        }
    }

    /// Maps a variable address to its orec index (Fibonacci hashing on the
    /// word address).
    #[inline]
    pub(crate) fn orec_index(&self, addr: usize) -> u32 {
        (((addr >> 3) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as u32
    }

    #[inline]
    pub(crate) fn orec_load(&self, idx: u32) -> u64 {
        self.orecs[idx as usize].load(Ordering::Acquire)
    }

    /// Attempts to lock an orec that currently holds `expected` (which must
    /// be unlocked).
    #[inline]
    pub(crate) fn orec_try_lock(&self, idx: u32, expected: u64) -> bool {
        debug_assert!(!orec_is_locked(expected));
        self.orecs[idx as usize]
            // ORDERING: the failure value is discarded (caller just retries
            // or aborts); success is AcqRel, pairing with `orec_unlock_to`.
            .compare_exchange(expected, expected | 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    /// Unlocks an orec, installing a new version.
    #[inline]
    pub(crate) fn orec_unlock_to(&self, idx: u32, version: u64) {
        self.orecs[idx as usize].store(orec_make(version), Ordering::Release);
    }

    /// Unlocks an orec, restoring the exact pre-lock word (used on abort).
    #[inline]
    pub(crate) fn orec_restore(&self, idx: u32, old: u64) {
        debug_assert!(!orec_is_locked(old));
        self.orecs[idx as usize].store(old, Ordering::Release);
    }

    /// Number of ownership records (for diagnostics).
    pub fn orec_count(&self) -> usize {
        self.orecs.len()
    }
}

/// RAII registration in the wiring registry ([`StmDomain::begin_wiring`]):
/// while live, [`StmDomain::snapshot_ts`] cannot advance to (or past) the
/// commit timestamp of the transaction committed under it. Dropping it —
/// on the success path after the last post-commit store, or implicitly on
/// an abort path — releases the watermark.
#[must_use = "dropping the ticket immediately un-fences the wiring window"]
pub struct WiringTicket<'d> {
    domain: &'d StmDomain,
    idx: usize,
}

impl Drop for WiringTicket<'_> {
    fn drop(&mut self) {
        self.domain.wiring.release(self.idx);
    }
}

impl std::fmt::Debug for WiringTicket<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WiringTicket")
            .field("idx", &self.idx)
            .finish()
    }
}

/// An owned snapshot pin ([`StmDomain::pin_snapshot`]): carries the pinned
/// timestamp and, while live, prevents reclamation of any version visible
/// at it. Holds the domain alive; dropping releases the pin.
#[must_use = "the snapshot is only protected while the pin is held"]
pub struct SnapshotPin {
    domain: Arc<StmDomain>,
    idx: usize,
    ts: u64,
}

impl SnapshotPin {
    /// The pinned snapshot timestamp.
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// Whether this pin was taken on `domain` (callers that mix domains
    /// can assert a pin matches the structure they traverse).
    pub fn pinned_on(&self, domain: &StmDomain) -> bool {
        std::ptr::eq(&*self.domain, domain)
    }
}

impl Drop for SnapshotPin {
    fn drop(&mut self) {
        self.domain.pins.release(self.idx);
    }
}

impl std::fmt::Debug for SnapshotPin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotPin").field("ts", &self.ts).finish()
    }
}

impl Default for StmDomain {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for StmDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StmDomain")
            .field("clock", &self.clock())
            .field("orecs", &self.orecs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TVar, Txn};

    #[test]
    fn orec_encoding() {
        assert!(!orec_is_locked(orec_make(5)));
        assert!(orec_is_locked(orec_make(5) | 1));
        assert_eq!(orec_version(orec_make(5)), 5);
        assert_eq!(orec_version(orec_make(5) | 1), 5);
    }

    #[test]
    fn clock_bumps_monotonically() {
        let d = StmDomain::new();
        let a = d.clock_bump();
        let b = d.clock_bump();
        assert!(b > a);
        assert_eq!(d.clock(), b);
    }

    #[test]
    fn orec_index_in_range_and_deterministic() {
        let d = StmDomain::with_orec_bits(4);
        for addr in (0..4096usize).step_by(8) {
            let i = d.orec_index(addr);
            assert!((i as usize) < d.orec_count());
            assert_eq!(i, d.orec_index(addr));
        }
    }

    #[test]
    fn lock_unlock_cycle() {
        let d = StmDomain::new();
        let idx = 3;
        let o = d.orec_load(idx);
        assert!(d.orec_try_lock(idx, o));
        assert!(orec_is_locked(d.orec_load(idx)));
        // Double lock fails.
        assert!(!d.orec_try_lock(idx, o));
        d.orec_unlock_to(idx, 9);
        assert_eq!(orec_version(d.orec_load(idx)), 9);
        assert!(!orec_is_locked(d.orec_load(idx)));
    }

    #[test]
    fn restore_returns_original_version() {
        let d = StmDomain::new();
        let idx = 5;
        d.orec_unlock_to(idx, 42);
        let o = d.orec_load(idx);
        assert!(d.orec_try_lock(idx, o));
        d.orec_restore(idx, o);
        assert_eq!(d.orec_load(idx), o);
    }

    #[test]
    #[should_panic(expected = "orec_bits")]
    fn rejects_zero_orec_bits() {
        let _ = StmDomain::with_orec_bits(0);
    }

    #[test]
    fn wiring_ticket_holds_snapshot_ts_below_commit() {
        let d = StmDomain::new();
        // No writers wiring: the watermark is the clock.
        assert_eq!(d.snapshot_ts(), d.clock());
        let ticket = d.begin_wiring();
        let before = d.clock();
        let wv = d.clock_bump(); // "commit"
        assert_eq!(wv, before + 1);
        // Mid-wiring: the watermark stays strictly below wv.
        assert!(d.snapshot_ts() < wv);
        assert_eq!(d.snapshot_ts(), before);
        drop(ticket);
        assert_eq!(d.snapshot_ts(), wv);
    }

    #[test]
    fn snapshot_ts_is_min_over_concurrent_wirers() {
        let d = StmDomain::new();
        let t1 = d.begin_wiring(); // holds clock=0
        d.clock_bump();
        let t2 = d.begin_wiring(); // holds clock=1
        d.clock_bump();
        assert_eq!(d.snapshot_ts(), 0);
        drop(t1);
        assert_eq!(d.snapshot_ts(), 1);
        drop(t2);
        assert_eq!(d.snapshot_ts(), 2);
    }

    #[test]
    fn snapshot_pin_sets_prune_bound() {
        let d = Arc::new(StmDomain::new());
        d.clock_bump();
        d.clock_bump();
        assert_eq!(d.oldest_pinned(), None);
        assert_eq!(d.prune_bound(), 2);
        let pin = d.pin_snapshot();
        assert_eq!(pin.ts(), 2);
        assert!(pin.pinned_on(&d));
        d.clock_bump();
        // The pin holds the bound back even as the clock moves on.
        assert_eq!(d.prune_bound(), 2);
        let pin2 = d.pin_snapshot();
        assert_eq!(pin2.ts(), 3);
        drop(pin);
        assert_eq!(d.prune_bound(), 3);
        drop(pin2);
        assert_eq!(d.prune_bound(), 3);
        assert_eq!(d.oldest_pinned(), None);
    }

    #[test]
    fn pin_under_wiring_sees_held_back_ts() {
        let d = Arc::new(StmDomain::new());
        let ticket = d.begin_wiring();
        let wv = d.clock_bump();
        let pin = d.pin_snapshot();
        assert!(pin.ts() < wv, "a pin taken mid-wiring must not see wv");
        drop(ticket);
        let pin2 = d.pin_snapshot();
        assert_eq!(pin2.ts(), wv);
        // prune_bound respects the older pin.
        assert_eq!(d.prune_bound(), pin.ts());
    }

    /// Slots the scans of both registries have read so far.
    fn examined(d: &StmDomain) -> usize {
        // ORDERING: test-only tallies; this thread's own scans precede it.
        d.wiring.examined.load(Ordering::Relaxed) + d.pins.examined.load(Ordering::Relaxed)
    }

    #[test]
    fn prune_bound_scans_only_the_slots_in_use() {
        let d = Arc::new(StmDomain::new());
        let both_wired = Arc::new(std::sync::Barrier::new(2));
        let wirers: Vec<_> = (0..2)
            .map(|_| {
                let (d, both_wired) = (d.clone(), both_wired.clone());
                std::thread::spawn(move || {
                    let ticket = d.begin_wiring();
                    d.clock_bump();
                    both_wired.wait();
                    drop(ticket);
                })
            })
            .collect();
        for w in wirers {
            w.join().unwrap();
        }
        let before = examined(&d);
        assert_eq!(d.prune_bound(), 2);
        let scanned = examined(&d) - before;
        assert!(scanned <= 4, "one prune_bound read {scanned} slots");
    }

    #[test]
    fn a_claim_at_slot_100_is_seen() {
        let d = StmDomain::new();
        for _ in 0..50 {
            d.clock_bump();
        }
        let held: Vec<_> = (0..100)
            .map(|_| (d.wiring.acquire(40), d.pins.acquire(40)))
            .collect();
        let (w, p) = (d.wiring.acquire(7), d.pins.acquire(7));
        assert_eq!((w, p), (100, 100), "every slot below is held");
        assert_eq!(d.snapshot_ts(), 7);
        assert_eq!(d.oldest_pinned(), Some(7));
        d.wiring.release(w);
        d.pins.release(p);
        assert_eq!(d.snapshot_ts(), 40);
        assert_eq!(d.oldest_pinned(), Some(40));
        for (w, p) in held {
            d.wiring.release(w);
            d.pins.release(p);
        }
        assert_eq!(d.snapshot_ts(), 50);
        assert_eq!(d.oldest_pinned(), None);
    }

    /// Writers commit under wiring tickets while a helper parks tickets
    /// and a pin on the low slots and releases them, so later claims land
    /// above gaps and `used` grows mid-run. The watermark never passes a
    /// commit whose wiring is unfinished, and a live pin holds every
    /// prune bound at or below its timestamp.
    #[test]
    fn watermark_and_pins_hold_while_the_registries_grow() {
        use std::sync::atomic::AtomicBool;
        let (writers, iters) = if cfg!(miri) { (1, 300) } else { (2, 100_000) };
        let d = Arc::new(StmDomain::new());
        // The largest commit timestamp whose wiring finished.
        let done = Arc::new(AtomicU64::new(0));
        // The helper's parked pin: `seq` is odd while it is live, and
        // `held` is its timestamp.
        let seq = Arc::new(AtomicU64::new(0));
        let held = Arc::new(AtomicU64::new(0));
        let running = Arc::new(AtomicBool::new(true));
        let helper = {
            let (d, seq, held, running) = (d.clone(), seq.clone(), held.clone(), running.clone());
            std::thread::spawn(move || {
                while running.load(Ordering::SeqCst) {
                    let tickets: Vec<_> = (0..3).map(|_| d.begin_wiring()).collect();
                    let pin = d.pin_snapshot();
                    held.store(pin.ts(), Ordering::SeqCst);
                    seq.fetch_add(1, Ordering::SeqCst);
                    for _ in 0..20 {
                        std::thread::yield_now();
                    }
                    drop(tickets);
                    seq.fetch_add(1, Ordering::SeqCst);
                    drop(pin);
                    std::thread::yield_now();
                }
            })
        };
        let writers: Vec<_> = (0..writers)
            .map(|_| {
                let (d, done) = (d.clone(), done.clone());
                std::thread::spawn(move || {
                    let var = TVar::new(0u64);
                    for i in 0..iters {
                        let ticket = d.begin_wiring();
                        let mut tx = Txn::begin(&d);
                        tx.write(&var, i).unwrap();
                        if let Ok(wv) = tx.commit_stamped() {
                            done.fetch_max(wv, Ordering::SeqCst);
                        }
                        drop(ticket);
                    }
                })
            })
            .collect();
        let mut checks = 0u64;
        while writers.iter().any(|w| !w.is_finished()) || checks == 0 {
            let ts = d.snapshot_ts();
            let finished = done.load(Ordering::SeqCst);
            assert!(
                ts <= finished,
                "snapshot_ts {ts} passed unfinished wiring ({finished})"
            );
            let own = d.pin_snapshot();
            let s1 = seq.load(Ordering::SeqCst);
            let parked = held.load(Ordering::SeqCst);
            let bound = d.prune_bound();
            if s1 % 2 == 1 && seq.load(Ordering::SeqCst) == s1 {
                assert!(
                    bound <= parked,
                    "prune_bound {bound} passed a live pin at {parked}"
                );
            }
            assert!(
                bound <= own.ts(),
                "prune_bound {bound} passed a live pin at {}",
                own.ts()
            );
            drop(own);
            checks += 1;
        }
        running.store(false, Ordering::SeqCst);
        for w in writers {
            w.join().unwrap();
        }
        helper.join().unwrap();
        assert_eq!(d.snapshot_ts(), d.clock());
        assert_eq!(d.oldest_pinned(), None);
    }

    #[test]
    fn registry_slots_recycle() {
        let d = StmDomain::new();
        // Far more acquire/release cycles than slots: indexes recycle.
        for _ in 0..1000 {
            let t = d.begin_wiring();
            drop(t);
        }
        assert_eq!(d.snapshot_ts(), d.clock());
    }
}
