//! One run of one workload in one mode: set-up, the sliced load phase,
//! the end-of-run comparison, and the assembly of the metrics. The traced
//! mode adds the counters, the ladder and the span file.

use crate::check::{Checker, Model};
use crate::kv::{self, KvSpec};
use crate::ladder;
use crate::lane::{self, Lane, PerSlice, Pick, SlicePlan};
use crate::memdb;
use crate::open;
use crate::report::RunResult;
use crate::stats::{percentile_of, quantile, Metric};
use crate::sys::{anon_rss_bytes, pin_thread};
use leap_store::{Batcher, LeapStore, StoreStats};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Slice length; a run of `s` seconds measures `2 s` slices after
/// [`WARMUP_SLICES`] discarded ones.
pub const SLICE: Duration = Duration::from_millis(500);
pub const WARMUP_SLICES: usize = 2;
/// Most set-ups per untraced run, and the time they may take together
/// before the last one starts. `setup_s` is their lower quartile: a
/// set-up is the same single-threaded work every time, and on the
/// measurement host a repetition runs at its usual speed or, for spells of
/// 0.1-1 s that fill 10-85 % of a run, 25-50 % slower, or now and then
/// 20 % faster (README, "Host noise"). The median follows the share of
/// slow spells and the minimum the rare fast ones; the lower quartile sits
/// in the usual speed unless slow spells fill three quarters of the run.
const SETUP_REPS: usize = 63;
const SETUP_BUDGET: Duration = Duration::from_millis(2500);

pub fn plan(seconds: u64, trace: bool) -> SlicePlan {
    SlicePlan {
        warmup: WARMUP_SLICES,
        measured: (seconds as usize * 2).max(4),
        slice: SLICE,
        trace,
    }
}

/// What the set-ups of one run cost.
struct SetupCost {
    seconds: Vec<f64>,
    /// Resident-set growth over the first set-up.
    mem_bytes: u64,
}

/// Builds the workload's store at least twice when `repeat` (each time
/// after dropping the one before) and keeps the last. Cheap set-ups are
/// repeated up to [`SETUP_REPS`] times within [`SETUP_BUDGET`].
fn setup<T>(repeat: bool, build: impl Fn() -> T) -> (T, SetupCost) {
    pin_thread(0);
    let before = anon_rss_bytes();
    let began = Instant::now();
    let mut built = build();
    let mut seconds = vec![began.elapsed().as_secs_f64()];
    let mem_bytes = anon_rss_bytes().saturating_sub(before);
    while repeat
        && (seconds.len() < 2 || (seconds.len() < SETUP_REPS && began.elapsed() < SETUP_BUDGET))
    {
        drop(built);
        let t0 = Instant::now();
        built = build();
        seconds.push(t0.elapsed().as_secs_f64());
    }
    (built, SetupCost { seconds, mem_bytes })
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

fn count(name: &'static str, value: u64) -> Metric {
    metric(name, value as f64, "count", 1)
}

/// Summarises a per-slice series into the reported value.
type Across<'a> = &'a dyn Fn(&PerSlice) -> f64;

/// The end-to-end metrics every workload reports; `across.0` summarises
/// the throughput series, `across.1` the latency series.
fn end_to_end(
    setup: &SetupCost,
    live_keys: usize,
    closed: &[&Lane],
    get: (&[&Lane], usize),
    put: (&[&Lane], usize),
    across: (Across, Across),
) -> Vec<Metric> {
    let series =
        |name, unit, s: PerSlice, across: Across| metric(name, across(&s), unit, s.samples);
    vec![
        metric(
            "setup_s",
            quantile(&setup.seconds, 0.25),
            "s",
            setup.seconds.len() as u64,
        ),
        series(
            "throughput_ops_s",
            "1/s",
            lane::throughput(closed, Pick::Untraced),
            across.0,
        ),
        series(
            "get_p50_ns",
            "ns",
            lane::latency(get.0, get.1, 0.5),
            across.1,
        ),
        series(
            "put_p50_ns",
            "ns",
            lane::latency(put.0, put.1, 0.5),
            across.1,
        ),
        metric(
            "mem_bytes_per_key",
            setup.mem_bytes as f64 / live_keys.max(1) as f64,
            "B",
            1,
        ),
    ]
}

/// The tails and op-specific figures of the load phase, from the untraced
/// slices of a traced run: `(name, kind, quantile)`.
fn op_latencies(lanes: &[&Lane], rows: &[(&'static str, usize, f64)], out: &mut Vec<Metric>) {
    for &(name, kind, p) in rows {
        let s = lane::latency(lanes, kind, p);
        out.push(metric(name, s.median(), "ns", s.samples));
    }
}

/// Counters of the store and its domain over the load phase.
fn store_counters<V: Clone + Send + Sync + 'static>(
    store: &LeapStore<V>,
    before: &StoreStats,
    out: &mut Vec<Metric>,
) -> StoreStats {
    let after = store.stats();
    let (s0, s1) = (&before.stm, &after.stm);
    let commits = s1.total_commits() - s0.total_commits();
    out.push(count("stm.commits", s1.commits - s0.commits));
    out.push(count(
        "stm.ro_commits",
        s1.read_only_commits - s0.read_only_commits,
    ));
    out.push(metric(
        "stm.aborts_per_commit",
        (s1.total_aborts() - s0.total_aborts()) as f64 / commits.max(1) as f64,
        "ratio",
        commits,
    ));
    out.push(count(
        "stm.conflict_read_aborts",
        s1.conflict_read_aborts - s0.conflict_read_aborts,
    ));
    out.push(count(
        "stm.conflict_commit_aborts",
        s1.conflict_commit_aborts - s0.conflict_commit_aborts,
    ));
    out.push(count("stm.timeouts", s1.timeouts - s0.timeouts));
    let domain = store.domain();
    out.push(count(
        "stm.prune_lag_end",
        domain.clock().saturating_sub(domain.prune_bound()),
    ));
    out.push(count("leaplist.bundle_depth_max", after.bundle_depth));
    let nodes: Vec<usize> = (0..store.shards())
        .flat_map(|s| store.shard(s).node_sizes())
        .collect();
    let node_size = leaplist::Params::default().node_size;
    out.push(metric(
        "leaplist.node_fill",
        nodes.iter().sum::<usize>() as f64 / (nodes.len().max(1) * node_size) as f64,
        "ratio",
        nodes.len() as u64,
    ));
    out.push(count("router.epoch_end", after.epoch));
    out.push(count(
        "store.collision_batches",
        after.collision_batches - before.collision_batches,
    ));
    let ops: Vec<u64> = after
        .shards
        .iter()
        .map(|s| s.total_ops() - before.shards.get(s.shard).map_or(0, |b| b.total_ops()))
        .filter(|&d| d > 0)
        .collect();
    let mean = ops.iter().sum::<u64>() as f64 / ops.len().max(1) as f64;
    out.push(metric(
        "store.shard_ops_imbalance",
        ops.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0),
        "ratio",
        ops.len() as u64,
    ));
    out.push(count(
        "cursor.snapshot_scans",
        after.snapshot_scans - before.snapshot_scans,
    ));
    out.push(count(
        "rebalance.migrations_completed",
        after.migrations_completed - before.migrations_completed,
    ));
    out.push(count(
        "rebalance.aborted_migrations",
        after.aborted_migrations - before.aborted_migrations,
    ));
    out.push(count(
        "rebalance.peak_concurrent",
        after.peak_concurrent_migrations,
    ));
    after
}

/// What the traced mode adds for every workload: resident-set growth over
/// the load phase (less the benchmark's own buffers), the tracing
/// overhead, and the span file.
fn trace_common(
    workload: &str,
    lanes: &[&Lane],
    closed: &[&Lane],
    rss_growth: u64,
    out: &mut Vec<Metric>,
) {
    let buffers: u64 = lanes.iter().map(|l| l.buffer_bytes()).sum();
    out.push(metric(
        "ebr.rss_growth_mib",
        rss_growth.saturating_sub(buffers) as f64 / (1 << 20) as f64,
        "MiB",
        1,
    ));
    let traced = lane::throughput(closed, Pick::Traced);
    let untraced = lane::throughput(closed, Pick::Untraced).median();
    out.push(metric(
        "trace.overhead_ratio",
        traced.median() / untraced.max(f64::MIN_POSITIVE),
        "ratio",
        traced.samples,
    ));
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.json"));
    match lane::write_spans(&path, lanes) {
        Ok(n) => eprintln!("wrote {n} spans to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn finish(checker: Checker, metrics: Vec<Metric>, trace: bool) -> RunResult {
    RunResult {
        attempted: checker.attempted.max(1),
        failed: checker.failed,
        first_violation: checker.first,
        metrics: crate::report::complete(&metrics, trace),
    }
}

fn merged(parts: &[&Checker]) -> Checker {
    let mut all = Checker::default();
    for c in parts {
        all.merge(c);
    }
    all
}

/// `point_read` and `write_batch`.
pub fn run_kv(name: &str, spec: &KvSpec, seed: u64, seconds: u64, trace: bool) -> RunResult {
    let plan = plan(seconds, trace);
    let sampled = spec.mix.iter().any(|m| m.0 == lane::GET);
    let get = if sampled { lane::GET } else { lane::GET_EACH };
    let loaded = kv::loaded_keys(spec, seed);
    let (store, setup) = setup(!trace, || {
        kv::build_store(kv::store_config(spec.key_space), &loaded)
    });
    let store = Arc::new(store);
    let models = kv::preload_models(spec.key_space, &loaded);
    let before = store.stats();
    let rss = anon_rss_bytes();
    let out = kv::run_closed(&*store, spec, models, seed, &plan);
    let rss_growth = anon_rss_bytes().saturating_sub(rss);
    let mut checker = merged(&out.iter().map(|t| &t.checker).collect::<Vec<_>>());
    let models: Vec<&Model> = out.iter().map(|t| &t.model).collect();
    kv::verify(&*store, spec.key_space, &models, &mut checker);
    let lanes: Vec<&Lane> = out.iter().map(|t| &t.lane).collect();
    if !trace {
        let e2e = end_to_end(
            &setup,
            loaded.len(),
            &lanes,
            (&lanes, get),
            (&lanes, lane::PUT),
            (&PerSlice::median, &PerSlice::median),
        );
        return finish(checker, e2e, false);
    }
    let mut layer = Vec::new();
    store_counters(&store, &before, &mut layer);
    trace_common(name, &lanes, &lanes, rss_growth, &mut layer);
    op_latencies(
        &lanes,
        &[
            ("op.get_p99_ns", get, 0.99),
            ("op.put_p99_ns", lane::PUT, 0.99),
            ("op.batch8_p50_ns", lane::APPLY8, 0.5),
        ],
        &mut layer,
    );
    layer.extend(ladder::kv_ladder(&store, spec, seed));
    finish(checker, layer, true)
}

/// `open_reshard`.
pub fn run_open(name: &str, seed: u64, seconds: u64, trace: bool) -> RunResult {
    let plan = plan(seconds, trace);
    let spec = &open::SPEC;
    let loaded = kv::loaded_keys(spec, seed);
    let (store, setup) = setup(!trace, || {
        kv::build_store(kv::store_config(spec.key_space), &loaded)
    });
    let store = Arc::new(store);
    let batcher = Batcher::new(store.clone()).with_admission(open::ADMISSION);
    let models = kv::preload_models(spec.key_space, &loaded);
    let before = store.stats();
    let rss = anon_rss_bytes();
    let (mut generator, reader) = open::run(&batcher, models, seed, &plan);
    let rss_growth = anon_rss_bytes().saturating_sub(rss);
    // Finish the migration in flight: the end-of-run comparison and the
    // ladder want a store at rest.
    store.rebalance_until_idle();
    let mut checker = merged(&[&generator.outcome.checker, &reader.outcome.checker]);
    let models = [&generator.outcome.model, &reader.outcome.model];
    kv::verify(&*store, spec.key_space, &models, &mut checker);
    let (gen_lane, read_lane) = (&generator.outcome.lane, &reader.outcome.lane);
    if !trace {
        let e2e = end_to_end(
            &setup,
            loaded.len(),
            &[read_lane],
            (&[gen_lane], lane::GET_EACH),
            (&[gen_lane], lane::TRY_PUT),
            (&open::phase_mean, &open::loaded_phase_mean),
        );
        return finish(checker, e2e, false);
    }
    let mut layer = Vec::new();
    store_counters(&store, &before, &mut layer);
    trace_common(
        name,
        &[gen_lane, read_lane],
        &[read_lane],
        rss_growth,
        &mut layer,
    );

    let rates = open::rate_stats(&mut generator.slices, &plan);
    const P50: [&str; 4] = [
        "loadgen.open_p50_ns_r1",
        "loadgen.open_p50_ns_r2",
        "loadgen.open_p50_ns_r3",
        "loadgen.open_p50_ns_r4",
    ];
    const P99: [&str; 4] = [
        "loadgen.open_p99_ns_r1",
        "loadgen.open_p99_ns_r2",
        "loadgen.open_p99_ns_r3",
        "loadgen.open_p99_ns_r4",
    ];
    for (i, r) in rates.iter().enumerate() {
        layer.push(metric(P50[i], r.p50_ns, "ns", r.samples));
        layer.push(metric(P99[i], r.p99_ns, "ns", r.samples));
    }
    // The SLO phase: R0 / 2.
    layer.push(metric(
        "loadgen.open_p90_ns",
        rates[1].p90_ns,
        "ns",
        rates[1].samples,
    ));
    layer.push(metric(
        "loadgen.late_start_ratio",
        rates[1].late_ratio,
        "ratio",
        rates[1].samples,
    ));
    layer.push(count(
        "loadgen.dropped_ops",
        rates.iter().map(|r| r.dropped).sum(),
    ));
    layer.push(metric(
        "loadgen.max_rate_in_slo_ops_s",
        open::max_rate_in_slo(&rates),
        "1/s",
        4,
    ));

    let b = batcher.stats();
    layer.push(count("batcher.batches", b.batches));
    layer.push(metric(
        "batcher.avg_batch",
        b.avg_batch(),
        "ratio",
        b.batches,
    ));
    layer.push(count("batcher.max_batch", b.max_batch));
    layer.push(metric("batcher.window_ns_end", b.window_ns as f64, "ns", 1));
    layer.push(count("batcher.shed", b.shed + generator.refused));

    layer.push(count("cursor.pages", reader.pages));
    layer.push(metric(
        "cursor.keys_per_page",
        reader.page_keys as f64 / reader.pages.max(1) as f64,
        "ratio",
        reader.pages,
    ));
    let mut steps = reader.step_ns.clone();
    layer.push(metric(
        "rebalance.step_ns",
        percentile_of(&mut steps, 0.5),
        "ns",
        steps.len() as u64,
    ));
    layer.push(count("rebalance.keys_moved", reader.keys_moved));
    op_latencies(
        &[gen_lane],
        &[
            ("op.get_p99_ns", lane::GET_EACH, 0.99),
            ("op.put_p99_ns", lane::TRY_PUT, 0.99),
        ],
        &mut layer,
    );
    op_latencies(
        &[read_lane],
        &[
            ("op.range_p50_ns", lane::RANGE, 0.5),
            ("op.snapshot_page_p50_ns", lane::SNAP_PAGE, 0.5),
        ],
        &mut layer,
    );
    let keys = lane::unit_rate(&[read_lane], Pick::Untraced);
    layer.push(metric(
        "op.scan_keys_per_s",
        open::phase_mean(&keys),
        "1/s",
        keys.samples,
    ));
    layer.extend(ladder::kv_ladder(&store, spec, seed));
    finish(checker, layer, true)
}

/// `memdb_oltp`.
pub fn run_memdb(name: &str, seed: u64, seconds: u64, trace: bool) -> RunResult {
    let plan = plan(seconds, trace);
    let ((table, models), setup) = setup(!trace, || memdb::build(seed, memdb::ROWS));
    // INVARIANT: `memdb::build` makes a sharded table, which has a store.
    let store = table.store().expect("sharded table").clone();
    let before = store.stats();
    let rss = anon_rss_bytes();
    let out = memdb::run_closed(&table, models, seed, &plan);
    let rss_growth = anon_rss_bytes().saturating_sub(rss);
    let mut checker = merged(&out.iter().map(|t| &t.2).collect::<Vec<_>>());
    let models: Vec<&memdb::RowModel> = out.iter().map(|t| &t.1).collect();
    memdb::verify(&table, &models, &mut checker);
    let lanes: Vec<&Lane> = out.iter().map(|t| &t.0).collect();
    if !trace {
        let e2e = end_to_end(
            &setup,
            memdb::ROWS as usize,
            &lanes,
            (&lanes, lane::ROW_GET),
            (&lanes, lane::ROW_UPDATE),
            (&PerSlice::median, &PerSlice::median),
        );
        return finish(checker, e2e, false);
    }
    let mut layer = Vec::new();
    let after = store_counters(&store, &before, &mut layer);
    // Every table mutation is one write commit carrying one part per
    // index entry it touches.
    let parts = |s: &StoreStats| s.shards.iter().map(|s| s.batch_parts).sum::<u64>();
    let writes = after.stm.commits - before.stm.commits;
    layer.push(metric(
        "memdb.batch_parts_per_update",
        (parts(&after) - parts(&before)) as f64 / writes.max(1) as f64,
        "ratio",
        writes,
    ));
    trace_common(name, &lanes, &lanes, rss_growth, &mut layer);
    op_latencies(
        &lanes,
        &[
            ("op.get_p99_ns", lane::ROW_GET, 0.99),
            ("op.put_p99_ns", lane::ROW_UPDATE, 0.99),
            ("op.index_scan_p50_ns", lane::INDEX_SCAN, 0.5),
        ],
        &mut layer,
    );
    let live: Vec<u64> = models
        .iter()
        .flat_map(|m| m.live_ids().iter().copied())
        .collect();
    layer.extend(ladder::memdb_ladder(&table, &live, seed));
    finish(checker, layer, true)
}

/// Runs workload `name`; `None` if there is no such workload.
pub fn run(name: &str, seed: u64, seconds: u64, trace: bool) -> Option<RunResult> {
    Some(match name {
        "point_read" => run_kv(name, &kv::POINT_READ, seed, seconds, trace),
        "write_batch" => run_kv(name, &kv::WRITE_BATCH, seed, seconds, trace),
        "open_reshard" => run_open(name, seed, seconds, trace),
        "memdb_oltp" => run_memdb(name, seed, seconds, trace),
        _ => return None,
    })
}
