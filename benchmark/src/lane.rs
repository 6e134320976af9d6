//! Per-thread measurement: the op kinds, a `Lane` that times calls into
//! the layers (latency samples in untraced slices, spans in traced ones),
//! the slice plan, and the slice-median aggregation over lanes.
//!
//! All timing is done here, around the calls, from outside the crates.

use crate::stats::{median, percentile_of};
use std::io::Write;
use std::time::{Duration, Instant};

/// What a kind of operation is called in spans, and how often its latency
/// is sampled in untraced slices.
pub struct KindInfo {
    /// Root span `op.<op>`.
    pub op: &'static str,
    /// Child span `<layer>.<call>` around the call into the layer.
    pub call: &'static str,
    /// Latency-time 1 op in `sample_every` (a power of two) by op index:
    /// sub-microsecond calls are sampled so that two `Instant::now()`
    /// (about 26 ns each) stay off the fast path.
    pub sample_every: u64,
}

macro_rules! kinds {
    ($($id:ident = ($op:literal, $call:literal, $every:literal);)*) => {
        kinds!(@consts 0usize; $($id)*);
        pub const KINDS: &[KindInfo] = &[
            $(KindInfo { op: $op, call: $call, sample_every: $every },)*
        ];
    };
    (@consts $n:expr; $head:ident $($tail:ident)*) => {
        pub const $head: usize = $n;
        kinds!(@consts $n + 1; $($tail)*);
    };
    (@consts $n:expr;) => {};
}

kinds! {
    // The sampled get is for the workload where gets are sub-microsecond
    // and nearly every op; elsewhere a get is timed every time.
    GET = ("op.get", "store.get", 16);
    PUT = ("op.put", "store.put", 1);
    DELETE = ("op.delete", "store.delete", 1);
    APPLY8 = ("op.apply8", "store.apply", 1);
    AUDIT = ("op.audit_range", "store.range", 1);
    RANGE = ("op.range", "store.range", 1);
    SNAP_PAGE = ("op.scan_snapshot", "cursor.next_page", 1);
    REBALANCE = ("op.rebalance", "rebalance.step", 1);
    TRY_PUT = ("op.put", "batcher.try_put", 1);
    TRY_DELETE = ("op.delete", "batcher.try_delete", 1);
    GET_EACH = ("op.get", "store.get", 1);
    ROW_GET = ("op.get", "memdb.get", 1);
    ROW_UPDATE = ("op.update", "memdb.update_column", 1);
    ROW_INSERT = ("op.insert", "memdb.insert", 1);
    ROW_DELETE = ("op.delete", "memdb.delete", 1);
    INDEX_SCAN = ("op.scan_by", "memdb.scan_by", 1);
    INDEX_SNAP = ("op.scan_by_snapshot", "memdb.scan_by_snapshot", 1);
}

/// One recorded span. `parent` is the id of the op's root span (`None`
/// for the root itself); ids are per thread, in emission order.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub op_id: u64,
    pub thread: u8,
}

/// Spans kept per thread; older ones are overwritten (the file is a
/// sample for reading, the counts and ratios come from every op).
const SPAN_RING: usize = 1 << 15;

/// How a run is cut into slices.
#[derive(Debug, Clone)]
pub struct SlicePlan {
    pub warmup: usize,
    pub measured: usize,
    pub slice: Duration,
    /// Traced run: odd measured slices record spans, even ones run
    /// untraced, so one run yields the per-layer numbers and the tracing
    /// overhead from interleaved slices of the same store.
    pub trace: bool,
}

impl SlicePlan {
    pub fn total(&self) -> usize {
        self.warmup + self.measured
    }

    pub fn is_warmup(&self, i: usize) -> bool {
        i < self.warmup
    }

    pub fn is_traced(&self, i: usize) -> bool {
        self.trace && i >= self.warmup && (i - self.warmup) % 2 == 1
    }

    pub fn end_of(&self, i: usize) -> Duration {
        self.slice * (i as u32 + 1)
    }
}

#[derive(Debug, Clone)]
struct SliceRec {
    ops: u64,
    /// Workload-defined work units (keys returned by the reader).
    units: u64,
    elapsed_ns: u64,
    traced: bool,
    warmup: bool,
    /// End offset of this slice's samples, per kind.
    marks: Vec<usize>,
}

/// One load thread's measuring context.
pub struct Lane {
    pub thread: u8,
    clock: Instant,
    tracing: bool,
    op_id: u64,
    op_start_ns: u64,
    root_id: u64,
    next_span: u64,
    /// Work units of the current slice (see [`SliceRec::units`]).
    pub units: u64,
    samples: Vec<Vec<u32>>,
    slices: Vec<SliceRec>,
    spans: Vec<Span>,
}

impl Lane {
    /// `clock` is the origin shared by every lane of the run, so span
    /// timestamps of different threads are comparable.
    pub fn new(thread: u8, clock: Instant) -> Self {
        Lane {
            thread,
            clock,
            tracing: false,
            op_id: 0,
            op_start_ns: 0,
            root_id: 0,
            next_span: 0,
            units: 0,
            samples: KINDS.iter().map(|_| Vec::new()).collect(),
            slices: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    pub fn op_id(&self) -> u64 {
        self.op_id
    }

    fn push_span(&mut self, span: Span) {
        if self.spans.len() < SPAN_RING {
            self.spans.push(span);
        } else {
            let at = (span.id % SPAN_RING as u64) as usize;
            self.spans[at] = span;
        }
    }

    /// Starts the next op (its index is the op id spans share).
    #[inline]
    pub fn begin_op(&mut self) {
        self.op_id += 1;
        if self.tracing {
            self.root_id = self.next_span;
            self.next_span += 1;
            self.op_start_ns = self.now_ns();
        }
    }

    /// Ends the op: in a traced slice, records its root span `name`.
    #[inline]
    pub fn end_op(&mut self, kind: usize) {
        if self.tracing {
            let end_ns = self.now_ns();
            self.push_span(Span {
                id: self.root_id,
                name: KINDS[kind].op,
                start_ns: self.op_start_ns,
                end_ns,
                parent: None,
                op_id: self.op_id,
                thread: self.thread,
            });
        }
    }

    /// Records a child span of the current op from explicit timestamps
    /// (the open loop's `loadgen.wait`).
    pub fn child_span(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.tracing {
            let id = self.next_span;
            self.next_span += 1;
            self.push_span(Span {
                id,
                name,
                start_ns,
                end_ns,
                parent: Some(self.root_id),
                op_id: self.op_id,
                thread: self.thread,
            });
        }
    }

    /// Moves the op's root start back to `start_ns` (an open-loop op
    /// starts when it was due, not when the generator got to it).
    pub fn op_started_at(&mut self, start_ns: u64) {
        self.op_start_ns = start_ns;
    }

    /// Runs one call into a layer: a span in a traced slice, a latency
    /// sample (1 in `sample_every`) in an untraced one.
    #[inline]
    pub fn call<R>(&mut self, kind: usize, f: impl FnOnce() -> R) -> R {
        if self.tracing {
            let start_ns = self.now_ns();
            let r = f();
            let end_ns = self.now_ns();
            self.child_span(KINDS[kind].call, start_ns, end_ns);
            r
        } else if self.op_id & (KINDS[kind].sample_every - 1) == 0 {
            let t0 = Instant::now();
            let r = f();
            let ns = t0.elapsed().as_nanos();
            self.samples[kind].push(ns.min(u128::from(u32::MAX)) as u32);
            r
        } else {
            f()
        }
    }

    pub fn begin_slice(&mut self, traced: bool) {
        self.tracing = traced;
        self.units = 0;
    }

    pub fn end_slice(&mut self, ops: u64, elapsed: Duration, warmup: bool) {
        self.slices.push(SliceRec {
            ops,
            units: self.units,
            elapsed_ns: elapsed.as_nanos() as u64,
            traced: self.tracing,
            warmup,
            marks: self.samples.iter().map(Vec::len).collect(),
        });
        self.tracing = false;
    }

    /// Bytes of measurement buffers this lane holds (subtracted from the
    /// run's resident-set growth).
    pub fn buffer_bytes(&self) -> u64 {
        let samples: usize = self.samples.iter().map(|s| s.capacity() * 4).sum();
        (samples + self.spans.capacity() * std::mem::size_of::<Span>()) as u64
    }

    /// Closed loop: runs `op` back to back through every slice of `plan`,
    /// whose slice `i` ends `plan.end_of(i)` after `start`.
    pub fn run_closed(&mut self, plan: &SlicePlan, start: Instant, mut op: impl FnMut(&mut Lane)) {
        for i in 0..plan.total() {
            self.begin_slice(plan.is_traced(i));
            let deadline = start + plan.end_of(i);
            let began = Instant::now();
            let mut ops = 0u64;
            loop {
                op(self);
                ops += 1;
                if ops.is_multiple_of(16) && Instant::now() >= deadline {
                    break;
                }
            }
            self.end_slice(ops, began.elapsed(), plan.is_warmup(i));
        }
    }
}

/// Which measured slices a statistic is taken over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    Untraced,
    Traced,
}

/// One statistic per measured slice: `(measured-slice index, value)`
/// pairs and the number of raw observations behind them.
#[derive(Debug, Clone, Default)]
pub struct PerSlice {
    pub values: Vec<(usize, f64)>,
    pub samples: u64,
}

impl PerSlice {
    /// Median over the slices: every timing metric of a closed loop is
    /// the median over slices of the per-slice statistic.
    pub fn median(&self) -> f64 {
        median(&self.values.iter().map(|v| v.1).collect::<Vec<_>>())
    }
}

/// The measured-slice index of slice `i` when it is measured and `pick`ed.
fn picked(lane: &Lane, i: usize, pick: Pick) -> Option<usize> {
    let s = &lane.slices[i];
    (!s.warmup && s.traced == (pick == Pick::Traced))
        .then(|| lane.slices[..i].iter().filter(|s| !s.warmup).count())
}

/// The per-slice `p`-quantile of `kind`'s latency samples over the
/// untraced measured slices, the given lanes pooled per slice.
pub fn latency(lanes: &[&Lane], kind: usize, p: f64) -> PerSlice {
    let n = lanes.iter().map(|l| l.slices.len()).min().unwrap_or(0);
    let mut out = PerSlice::default();
    for i in 0..n {
        let Some(index) = picked(lanes[0], i, Pick::Untraced) else {
            continue;
        };
        let mut pool: Vec<u32> = Vec::new();
        for lane in lanes {
            let from = if i == 0 {
                0
            } else {
                lane.slices[i - 1].marks[kind]
            };
            pool.extend_from_slice(&lane.samples[kind][from..lane.slices[i].marks[kind]]);
        }
        if !pool.is_empty() {
            out.samples += pool.len() as u64;
            out.values.push((index, percentile_of(&mut pool, p)));
        }
    }
    out
}

/// Completed ops per second per picked slice, summed over the lanes (each
/// lane's count over its own slice wall time).
pub fn throughput(lanes: &[&Lane], pick: Pick) -> PerSlice {
    rate(lanes, pick, |s| s.ops)
}

/// As [`throughput`], for the workload-defined work units.
pub fn unit_rate(lanes: &[&Lane], pick: Pick) -> PerSlice {
    rate(lanes, pick, |s| s.units)
}

fn rate(lanes: &[&Lane], pick: Pick, count: impl Fn(&SliceRec) -> u64) -> PerSlice {
    let n = lanes.iter().map(|l| l.slices.len()).min().unwrap_or(0);
    let mut out = PerSlice::default();
    for i in 0..n {
        let Some(index) = picked(lanes[0], i, pick) else {
            continue;
        };
        let mut sum = 0.0;
        for lane in lanes {
            let s = &lane.slices[i];
            sum += count(s) as f64 * 1e9 / s.elapsed_ns.max(1) as f64;
            out.samples += count(s);
        }
        out.values.push((index, sum));
    }
    out
}

/// Writes the lanes' spans as one JSON array.
pub fn write_spans(path: &std::path::Path, lanes: &[&Lane]) -> std::io::Result<u64> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0u64;
    out.write_all(b"[")?;
    for lane in lanes {
        let mut spans: Vec<&Span> = lane.spans.iter().collect();
        spans.sort_unstable_by_key(|s| s.id);
        for s in spans {
            if written > 0 {
                out.write_all(b",")?;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"op_id\":{},\"thread\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id, parent, s.op_id, s.thread
            )?;
            written += 1;
        }
    }
    out.write_all(b"\n]\n")?;
    out.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(trace: bool) -> SlicePlan {
        SlicePlan {
            warmup: 1,
            measured: 4,
            slice: Duration::from_millis(5),
            trace,
        }
    }

    #[test]
    fn traced_plan_alternates_after_warmup() {
        let p = plan(true);
        let traced: Vec<bool> = (0..p.total()).map(|i| p.is_traced(i)).collect();
        assert_eq!(traced, [false, false, true, false, true]);
        assert!((0..5).all(|i| !plan(false).is_traced(i)));
    }

    #[test]
    fn closed_loop_counts_samples_and_spans() {
        let clock = Instant::now();
        let mut lane = Lane::new(0, clock);
        lane.run_closed(&plan(true), clock, |l| {
            l.begin_op();
            l.call(PUT, || std::hint::black_box(1 + 1));
            l.end_op(PUT);
        });
        let lanes = [&lane];
        let untraced = throughput(&lanes, Pick::Untraced);
        assert!(untraced.median() > 0.0 && untraced.samples > 0);
        assert_eq!(
            untraced.values.iter().map(|v| v.0).collect::<Vec<_>>(),
            [0, 2]
        );
        // PUT is timed every time in untraced slices, never in traced ones.
        let p50 = latency(&lanes, PUT, 0.5);
        assert_eq!(p50.samples, untraced.samples);
        assert_eq!(p50.values.len(), 2);
        let traced = throughput(&lanes, Pick::Traced);
        assert_eq!(
            traced.values.iter().map(|v| v.0).collect::<Vec<_>>(),
            [1, 3]
        );
        let traced_ops = traced.samples;
        // Two spans per traced op (root + call), the ring keeps the newest.
        assert_eq!(lane.next_span, traced_ops * 2);
        let root = lane.spans.iter().find(|s| s.parent.is_none()).unwrap();
        let child = lane
            .spans
            .iter()
            .find(|s| s.parent == Some(root.id))
            .unwrap();
        assert_eq!((root.name, child.name), ("op.put", "store.put"));
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        assert_eq!(root.op_id, child.op_id);
    }

    #[test]
    fn sampled_kinds_time_one_op_in_sixteen() {
        let clock = Instant::now();
        let mut lane = Lane::new(0, clock);
        lane.begin_slice(false);
        for _ in 0..160 {
            lane.begin_op();
            lane.call(GET, || ());
        }
        lane.end_slice(160, Duration::from_millis(1), false);
        assert_eq!(latency(&[&lane], GET, 0.5).samples, 10);
    }
}
