//! `open_reshard`: an open-loop generator over the `Batcher` beside one
//! closed-loop range / snapshot-scan reader that also drives live
//! resharding (ROADMAP direction 1(d)).
//!
//! Thread 0 issues `Batcher::try_put` / `try_delete` / `LeapStore::get`
//! on a schedule at four fixed rates and times each op from when it was
//! due. Thread 1 alternates `range` and a full snapshot scan, and every
//! 64 iterations makes one `rebalance_step()` call, starting the next
//! entry of a fixed cyclic split / merge schedule when none is in flight.
//! Driving migration from the reader keeps threads = cores and makes
//! migration work a function of reader progress.

use crate::check::{value, Checker, Model};
use crate::gen::{below, Mix, OpStream, RawOp};
use crate::kv::{own, KvSpec, ThreadOutcome};
use crate::lane::{
    Lane, PerSlice, SlicePlan, GET_EACH, RANGE, REBALANCE, SNAP_PAGE, TRY_DELETE, TRY_PUT,
};
use crate::stats::{median, percentile_of};
use leap_store::{Batcher, LeapStore, RebalanceAction};
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub const LABEL: u64 = 3;
pub const KEY_SPACE: u64 = 1 << 19;
/// The store and key stream of this workload, in the terms the preload
/// and the ladder share with the closed-loop workloads.
pub const SPEC: KvSpec = KvSpec {
    label: LABEL,
    key_space: KEY_SPACE,
    load_all: false,
    zipf_theta: None,
    mix: GEN_MIX,
    audit_every: 0,
};
/// The base rate of the open loop, ops/s; the four phases run at
/// `R0/4, R0/2, R0, 2*R0`. ISSUE 13 proposed 60 000 from a probe without
/// a concurrent reader and allowed one rescaling by a power of two: beside
/// the reader the generator keeps up at 15 000 ops/s (1-7 % of ops start
/// late) and falls behind at 30 000 (9-49 %), so the four rates now
/// straddle that knee.
pub const R0: f64 = 15_000.0;
pub const RATE_FACTORS: [f64; 4] = [0.25, 0.5, 1.0, 2.0];
/// The latency limit on the per-rate p90 from due time, and the share of
/// ops that may start late (a period or more after they were due, or
/// never). A `try_put` alone takes 15 us at the median and 30-50 us at
/// p90 here whatever the rate, so the 50 us limit ISSUE 13 proposed would
/// measure the service time; these limits lie between what 15 000 and
/// 30 000 ops/s showed in every probe run (README, "Open-loop rates").
pub const SLO_P90_NS: f64 = 250_000.0;
pub const SLO_LATE_RATIO: f64 = 0.08;
/// Admission depth of the batcher.
pub const ADMISSION: usize = 1024;
const GEN_MIX: Mix = &[(TRY_PUT, 50), (TRY_DELETE, 20), (GET_EACH, 30)];
const RANGE_SPAN: u64 = 400;
const SCAN_SPAN: u64 = 4000;
pub const PAGE: usize = 256;
const STEP_EVERY: u64 = 64;

/// The rate phase (index into [`RATE_FACTORS`]) of measured slice `i`: the
/// rates take turns of two slices (in a traced run one untraced and one
/// traced), so every phase samples the whole run and a slow spell of the
/// host lands on a few slices of each phase, where the per-phase median
/// discards it, not on the whole of one phase.
pub fn phase_of(i: usize) -> usize {
    i / 2 % 4
}

/// The mean over rate phases `phases` of the per-phase median: the slices
/// of different phases differ by design (the reader slows as the
/// generator's rate rises), and a median across all of them would sit on
/// the boundary between two phases and jump from one to the other.
fn mean_of_phase_medians(series: &PerSlice, phases: std::ops::Range<usize>) -> f64 {
    let n = phases.len() as f64;
    let medians = phases.map(|phase| {
        let of_phase: Vec<f64> = series
            .values
            .iter()
            .filter(|v| phase_of(v.0) == phase)
            .map(|v| v.1)
            .collect();
        median(&of_phase)
    });
    medians.sum::<f64>() / n
}

/// What the reader did, over all four rates.
pub fn phase_mean(series: &PerSlice) -> f64 {
    mean_of_phase_medians(series, 0..4)
}

/// The generator's service times, over the two loaded rates (`R0` and
/// `2 R0`, where it is busy a sixth to a third of the time). At the two
/// light rates an op starts on cold caches and its time is the host's
/// memory latency: a `get` takes 3.0 us there against 1.9 us at `2 R0`,
/// and the four-rate mean swung 35 % with the host's speed, past any
/// bound.
pub fn loaded_phase_mean(series: &PerSlice) -> f64 {
    mean_of_phase_medians(series, 2..4)
}

/// What one open-loop slice did.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct OpenSlice {
    pub started: u64,
    /// Ops the generator started at least one arrival period late.
    pub late: u64,
    /// Ops due in the slice that it ended before starting.
    pub dropped: u64,
    /// Completion minus due time of every started op, ns.
    pub from_due: Vec<u32>,
}

/// Runs one open-loop slice: op `j` is due `j / rate` after `begin`, waits
/// (spinning) until then, and is timed from its due time, so a stall is
/// charged to every op it delays. Ops still unstarted at `begin + len`
/// are dropped. `op` returns the kind it ran (the root span's name);
/// `clock` is `Instant::now` (the tests pass one they advance themselves).
pub fn open_slice(
    lane: &mut Lane,
    begin: Instant,
    len: Duration,
    rate: f64,
    clock: impl Fn() -> Instant,
    mut op: impl FnMut(&mut Lane) -> usize,
) -> OpenSlice {
    let period_ns = 1e9 / rate;
    let due_count = (rate * len.as_secs_f64()) as u64;
    let end = begin + len;
    let mut out = OpenSlice::default();
    for j in 0..due_count {
        let due = begin + Duration::from_nanos((j as f64 * period_ns) as u64);
        let mut now = clock();
        if now >= end {
            out.dropped = due_count - j;
            break;
        }
        while now < due {
            std::hint::spin_loop();
            now = clock();
        }
        let late_by = now - due;
        out.late += u64::from(late_by.as_nanos() as f64 >= period_ns);
        let start_ns = lane.now_ns();
        let due_ns = start_ns.saturating_sub(late_by.as_nanos() as u64);
        lane.begin_op();
        lane.op_started_at(due_ns);
        lane.child_span("loadgen.wait", due_ns, start_ns);
        let kind = op(lane);
        lane.end_op(kind);
        let from_due = (clock() - due).as_nanos();
        out.from_due.push(from_due.min(u128::from(u32::MAX)) as u32);
        out.started += 1;
    }
    while clock() < end {
        std::hint::spin_loop();
    }
    out
}

/// The generator thread's results beside its lane.
pub struct Generator {
    pub outcome: ThreadOutcome,
    /// One entry per slice of the plan, warm-up included.
    pub slices: Vec<OpenSlice>,
    /// Ops the batcher refused (admission) or failed.
    pub refused: u64,
}

/// The reader thread's results beside its lane.
pub struct Reader {
    pub outcome: ThreadOutcome,
    pub pages: u64,
    pub page_keys: u64,
    pub keys_moved: u64,
    /// Duration of every `rebalance_step()` call that moved a chunk.
    pub step_ns: Vec<u32>,
}

/// The fixed cyclic migration schedule: split base shard `s` at the
/// midpoint of its interval, merge the new shard back, next `s`.
struct Schedule {
    entry: usize,
    split_off: Option<usize>,
}

impl Schedule {
    /// Starts the next entry; `Err` names what the store refused.
    fn start_next(&mut self, store: &LeapStore<u64>) -> Result<(), String> {
        let shard = self.entry / 2 % crate::kv::SHARDS;
        let result = match self.split_off.take() {
            None => {
                let (lo, hi) = store
                    .router()
                    .shard_interval(shard)
                    .ok_or_else(|| format!("shard {shard} owns no interval"))?;
                // The last shard's interval runs to the end of the key type.
                let at = lo + (hi.min(KEY_SPACE - 1) - lo) / 2;
                store
                    .split_shard(shard, at)
                    .map(|new| self.split_off = Some(new))
            }
            Some(new) => store.merge_shards(new, shard),
        };
        self.entry += 1;
        result.map_err(|e| format!("schedule entry {} on shard {shard}: {e}", self.entry - 1))
    }
}

/// Runs both threads through every slice of `plan`. `models[0]` is the
/// generator's model of the even keys; `models[1]` holds the odd keys,
/// which nobody mutates, so every read must return them exactly.
pub fn run(
    batcher: &Batcher<u64>,
    mut models: Vec<Model>,
    seed: u64,
    plan: &SlicePlan,
) -> (Generator, Reader) {
    let store: &LeapStore<u64> = batcher.store();
    let clock = Instant::now();
    let barrier = Barrier::new(2);
    // INVARIANT: the caller passes one model per thread.
    let static_model = models.pop().expect("two models");
    // INVARIANT: as above.
    let gen_model = models.pop().expect("two models");
    std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            crate::sys::pin_thread(0);
            barrier.wait();
            generate(batcher, gen_model, seed, plan, clock)
        });
        let reader = scope.spawn(|| {
            crate::sys::pin_thread(1);
            barrier.wait();
            read(store, static_model, seed, plan, clock)
        });
        // INVARIANT: a load thread panics only on a bug in this benchmark
        // or a crash in the store; either must stop the run.
        let generator = generator.join().expect("generator thread panicked");
        // INVARIANT: as above.
        (generator, reader.join().expect("reader thread panicked"))
    })
}

fn generate(
    batcher: &Batcher<u64>,
    mut model: Model,
    seed: u64,
    plan: &SlicePlan,
    clock: Instant,
) -> Generator {
    let store = batcher.store();
    let mut lane = Lane::new(0, clock);
    let mut checker = Checker::default();
    let mut stream = OpStream::new(seed, LABEL, 0, GEN_MIX);
    let mut slices = Vec::with_capacity(plan.total());
    let mut refused = 0u64;
    for i in 0..plan.total() {
        let measured = i.saturating_sub(plan.warmup);
        let rate = R0 * RATE_FACTORS[phase_of(measured)];
        let begin = clock
            + if i == 0 {
                Duration::ZERO
            } else {
                plan.end_of(i - 1)
            };
        lane.begin_slice(plan.is_traced(i));
        let slice = open_slice(&mut lane, begin, plan.slice, rate, Instant::now, |lane| {
            let RawOp { kind, a, .. } = stream.next_op();
            let key = below(a, KEY_SPACE);
            checker.attempted += 1;
            match kind {
                GET_EACH => {
                    let got = lane.call(GET_EACH, || store.get(key));
                    if model.owns(key) {
                        checker.previous("get", key, got, model.get(key));
                    } else {
                        checker.get(key, got);
                    }
                }
                TRY_PUT => {
                    let key = own(key, 0);
                    model.seq += 1;
                    let v = value(key, false, model.seq);
                    match lane.call(TRY_PUT, || batcher.try_put(key, v)) {
                        Ok(got) => {
                            checker.previous("try_put", key, got, model.put(key, v));
                        }
                        Err(e) => {
                            refused += 1;
                            checker.fail(format!("try_put({key}) refused: {e}"));
                        }
                    }
                }
                _ => {
                    let key = own(key, 0);
                    match lane.call(TRY_DELETE, || batcher.try_delete(key)) {
                        Ok(got) => {
                            checker.previous("try_delete", key, got, model.delete(key));
                        }
                        Err(e) => {
                            refused += 1;
                            checker.fail(format!("try_delete({key}) refused: {e}"));
                        }
                    }
                }
            }
            kind
        });
        lane.end_slice(slice.started, plan.slice, plan.is_warmup(i));
        slices.push(slice);
    }
    Generator {
        outcome: ThreadOutcome {
            lane,
            model,
            checker,
        },
        slices,
        refused,
    }
}

/// Checks that a read of `[lo, hi]` returned every odd key the model
/// holds there, with the model's value (nobody writes odd keys).
fn check_static(
    checker: &mut Checker,
    model: &Model,
    what: &str,
    lo: u64,
    hi: u64,
    got: impl Iterator<Item = (u64, u64)>,
) {
    let mut got = got.filter(|e| e.0 % 2 == 1);
    let mut key = lo | 1;
    while key <= hi {
        if let Some(v) = model.get(key) {
            match got.next() {
                Some(e) if e == (key, v) => {}
                other => {
                    checker.fail(format!(
                        "{what}({lo}, {hi}): expected untouched key {key}, found {other:?}"
                    ));
                    return;
                }
            }
        }
        key += 2;
    }
    if let Some(extra) = got.next() {
        checker.fail(format!(
            "{what}({lo}, {hi}): unexpected odd key {}",
            extra.0
        ));
    }
}

fn read(
    store: &LeapStore<u64>,
    model: Model,
    seed: u64,
    plan: &SlicePlan,
    clock: Instant,
) -> Reader {
    let mut lane = Lane::new(1, clock);
    let mut checker = Checker::default();
    // Only the draws are used: the reader's op sequence is fixed.
    let mut stream = OpStream::new(seed, LABEL, 1, &[(RANGE, 100)]);
    let mut schedule = Schedule {
        entry: 0,
        split_off: None,
    };
    let (mut pages, mut page_keys, mut keys_moved) = (0u64, 0u64, 0u64);
    let mut step_ns = Vec::new();
    let mut iteration = 0u64;
    lane.run_closed(plan, clock, |lane| {
        iteration += 1;
        let draw = stream.next_op().a;
        checker.attempted += 1;
        if iteration.is_multiple_of(STEP_EVERY) {
            lane.begin_op();
            if store.router().migration().is_none() {
                if let Err(e) = schedule.start_next(store) {
                    checker.fail(e);
                }
            }
            let start_ns = lane.now_ns();
            let action = store.rebalance_step();
            let end_ns = lane.now_ns();
            lane.child_span("rebalance.step", start_ns, end_ns);
            if let RebalanceAction::Moved { keys, .. } = action {
                keys_moved += keys as u64;
                step_ns.push((end_ns - start_ns).min(u64::from(u32::MAX)) as u32);
            }
            lane.end_op(REBALANCE);
        } else if iteration.is_multiple_of(2) {
            let lo = below(draw, KEY_SPACE - RANGE_SPAN);
            let hi = lo + RANGE_SPAN;
            lane.begin_op();
            let got = lane.call(RANGE, || store.range(lo, hi));
            lane.units += got.len() as u64;
            if checker.range("range", lo, hi, &got) {
                check_static(&mut checker, &model, "range", lo, hi, got.into_iter());
            }
            lane.end_op(RANGE);
        } else {
            let lo = below(draw, KEY_SPACE - SCAN_SPAN);
            let hi = lo + SCAN_SPAN;
            lane.begin_op();
            let mut cursor = store.scan_snapshot_pages(lo, hi, PAGE);
            let mut all: Vec<(u64, u64)> = Vec::with_capacity(SCAN_SPAN as usize);
            while let Some(page) = lane.call(SNAP_PAGE, || cursor.next_page()) {
                pages += 1;
                page_keys += page.len() as u64;
                if page.len() > PAGE {
                    checker.fail(format!(
                        "snapshot page of {} keys, limit {PAGE}",
                        page.len()
                    ));
                }
                all.extend(page);
            }
            drop(cursor);
            lane.units += all.len() as u64;
            // Checked as one result: pages of one cursor must neither
            // overlap nor skip, whatever migrated between them.
            if checker.range("scan_snapshot", lo, hi, &all) {
                check_static(
                    &mut checker,
                    &model,
                    "scan_snapshot",
                    lo,
                    hi,
                    all.into_iter(),
                );
            }
            lane.end_op(SNAP_PAGE);
        }
    });
    Reader {
        outcome: ThreadOutcome {
            lane,
            model,
            checker,
        },
        pages,
        page_keys,
        keys_moved,
        step_ns,
    }
}

/// Per-rate figures of the open loop over the untraced measured slices.
#[derive(Debug, Clone, Default)]
pub struct RateStats {
    pub rate: f64,
    pub p50_ns: f64,
    pub p90_ns: f64,
    pub p99_ns: f64,
    pub late_ratio: f64,
    pub dropped: u64,
    pub samples: u64,
}

impl RateStats {
    pub fn in_slo(&self) -> bool {
        self.samples > 0 && self.p90_ns <= SLO_P90_NS && self.late_ratio <= SLO_LATE_RATIO
    }
}

/// Median-of-slice from-due percentiles per rate phase.
pub fn rate_stats(slices: &mut [OpenSlice], plan: &SlicePlan) -> Vec<RateStats> {
    let mut out: Vec<RateStats> = RATE_FACTORS
        .iter()
        .map(|f| RateStats {
            rate: R0 * f,
            ..RateStats::default()
        })
        .collect();
    let mut per_phase: Vec<[Vec<f64>; 3]> = vec![Default::default(); 4];
    // A dropped op is due and late: it never started.
    let (mut due, mut late) = ([0u64; 4], [0u64; 4]);
    for (i, slice) in slices.iter_mut().enumerate() {
        if plan.is_warmup(i) || plan.is_traced(i) {
            continue;
        }
        let phase = phase_of(i - plan.warmup);
        out[phase].dropped += slice.dropped;
        out[phase].samples += slice.from_due.len() as u64;
        due[phase] += slice.started + slice.dropped;
        late[phase] += slice.late + slice.dropped;
        if !slice.from_due.is_empty() {
            for (q, p) in [0.5, 0.9, 0.99].into_iter().enumerate() {
                per_phase[phase][q].push(percentile_of(&mut slice.from_due, p));
            }
        }
    }
    for (phase, stats) in out.iter_mut().enumerate() {
        stats.p50_ns = median(&per_phase[phase][0]);
        stats.p90_ns = median(&per_phase[phase][1]);
        stats.p99_ns = median(&per_phase[phase][2]);
        stats.late_ratio = late[phase] as f64 / due[phase].max(1) as f64;
    }
    out
}

/// The highest rate that meets the limit with every lower rate meeting it
/// too (0 when the lowest does not).
pub fn max_rate_in_slo(rates: &[RateStats]) -> f64 {
    rates
        .iter()
        .take_while(|r| r.in_slo())
        .last()
        .map_or(0.0, |r| r.rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_mean_weighs_the_four_phases_equally() {
        let series = PerSlice {
            values: vec![
                (0, 10.0),
                (1, 12.0),
                (2, 20.0),
                (3, 20.0),
                (4, 30.0),
                (6, 40.0),
                (7, 44.0),
                (8, 14.0),
            ],
            samples: 8,
        };
        // Medians 12, 20, 30, 42 over slices {0,1,8} {2,3} {4} {6,7}.
        assert_eq!(phase_mean(&series), (12.0 + 20.0 + 30.0 + 42.0) / 4.0);
        assert_eq!(loaded_phase_mean(&series), (30.0 + 42.0) / 2.0);
    }

    #[test]
    fn phases_take_turns_of_two_slices() {
        let phases: Vec<usize> = (0..10).map(phase_of).collect();
        assert_eq!(phases, [0, 0, 1, 1, 2, 2, 3, 3, 0, 0]);
    }

    /// A clock the tests advance: every reading costs 1 us, and a fake op
    /// adds its service time, so a slice plays out the same on any host.
    struct FakeClock {
        base: Instant,
        elapsed: std::cell::Cell<Duration>,
    }

    impl FakeClock {
        fn new() -> Self {
            FakeClock {
                base: Instant::now(),
                elapsed: std::cell::Cell::new(Duration::ZERO),
            }
        }

        fn advance(&self, by: Duration) {
            self.elapsed.set(self.elapsed.get() + by);
        }

        fn now(&self) -> Instant {
            self.advance(Duration::from_micros(1));
            self.base + self.elapsed.get()
        }
    }

    /// Runs one 40 ms slice at 10 k ops/s (100 us period) of a fake op
    /// taking 10 us, stalling 5 ms in op `stall_at`.
    fn fake_slice(stall_at: Option<u64>) -> OpenSlice {
        let mut lane = Lane::new(0, Instant::now());
        lane.begin_slice(false);
        let clock = FakeClock::new();
        let mut j = 0u64;
        open_slice(
            &mut lane,
            clock.base,
            Duration::from_millis(40),
            10_000.0,
            || clock.now(),
            |_| {
                let busy = if Some(j) == stall_at { 5_000 } else { 10 };
                clock.advance(Duration::from_micros(busy));
                j += 1;
                GET_EACH
            },
        )
    }

    #[test]
    fn a_stall_is_charged_to_the_ops_it_delays() {
        let calm = fake_slice(None);
        let stalled = fake_slice(Some(100));
        assert_eq!((calm.started, calm.dropped, calm.late), (400, 0, 0));
        assert_eq!((stalled.started, stalled.dropped), (400, 0));
        assert!(calm.from_due.iter().all(|&ns| ns < 20_000));
        // The op after the stall was due 100 us into it and started when
        // it ended: about 4.9 ms late, though its own service took 10 us.
        assert!(
            (4_900_000..4_930_000).contains(&stalled.from_due[101]),
            "{}",
            stalled.from_due[101]
        );
        // 4.9 ms of backlog at a 100 us period drains at 12 us per op
        // (10 us of service and two clock readings): the next 55 ops
        // start a period or more late, and nothing before the stall does.
        assert!((53..=56).contains(&stalled.late), "{}", stalled.late);
        assert!(stalled.from_due[..100].iter().all(|&ns| ns < 20_000));
    }

    #[test]
    fn ops_not_started_before_the_slice_ends_are_dropped() {
        let mut lane = Lane::new(0, Instant::now());
        lane.begin_slice(false);
        let clock = FakeClock::new();
        // 1 M ops/s of a 50 us op: about one op in fifty fits.
        let s = open_slice(
            &mut lane,
            clock.base,
            Duration::from_millis(5),
            1e6,
            || clock.now(),
            |_| {
                clock.advance(Duration::from_micros(50));
                GET_EACH
            },
        );
        assert_eq!(s.started + s.dropped, 5000);
        assert!((90..=100).contains(&s.started), "{}", s.started);
        // Even the first: one reading of the clock takes a period.
        assert_eq!(s.late, s.started);
    }

    #[test]
    fn slo_verdict_needs_every_lower_rate_to_pass() {
        let pass = |rate| RateStats {
            rate,
            p90_ns: 20_000.0,
            samples: 100,
            ..RateStats::default()
        };
        let slow = |rate| RateStats {
            p90_ns: 300_000.0,
            ..pass(rate)
        };
        assert_eq!(
            max_rate_in_slo(&[pass(1.0), pass(2.0), slow(4.0), slow(8.0)]),
            2.0
        );
        assert_eq!(
            max_rate_in_slo(&[pass(1.0), slow(2.0), pass(4.0), slow(8.0)]),
            1.0
        );
        assert_eq!(max_rate_in_slo(&[slow(1.0), pass(2.0)]), 0.0);
        let late = RateStats {
            late_ratio: 0.2,
            ..pass(4.0)
        };
        assert_eq!(max_rate_in_slo(&[pass(2.0), late]), 2.0);
    }

    #[test]
    fn untouched_keys_must_all_come_back() {
        let mut model = Model::new(1, 32);
        for k in [3, 7, 9] {
            model.put(k, value(k, false, 0));
        }
        let pair = |k| (k, value(k, false, 0));
        let mut c = Checker::default();
        check_static(
            &mut c,
            &model,
            "range",
            0,
            10,
            [pair(3), pair(4), pair(7), pair(9)].into_iter(),
        );
        check_static(&mut c, &model, "range", 4, 8, [pair(7)].into_iter());
        assert_eq!(c.failed, 0);
        check_static(
            &mut c,
            &model,
            "range",
            0,
            10,
            [pair(3), pair(9)].into_iter(),
        );
        check_static(
            &mut c,
            &model,
            "range",
            0,
            10,
            [pair(3), pair(5), pair(7), pair(9)].into_iter(),
        );
        check_static(
            &mut c,
            &model,
            "range",
            0,
            10,
            [pair(3), (7, 1), pair(9)].into_iter(),
        );
        assert_eq!(c.failed, 3);
    }
}
