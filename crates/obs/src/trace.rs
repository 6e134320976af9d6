//! leap-trace: per-operation causal spans for the store stack.
//!
//! Aggregate histograms (PR 6) say *that* an op took 9 ms; a span says
//! *where* the time went. Each traced op carries one [`Span`]: a trace
//! id, the op kind and key/shard, a nanosecond-stamped commit phase (the
//! transaction of a `put` / `delete` on a migrating key), per-attempt
//! STM retry annotations (the abort cause of every aborted attempt,
//! reusing the read/commit/explicit attribution), and
//! migration-interference marks (which overlay id forced a stamp retry,
//! how long the per-migration write lock was waited on and held).
//!
//! # Sampling and tail capture
//!
//! Spans are **head-sampled** at a configurable 1-in-N per-thread rate
//! (the same knob as the store's sampled `get` histogram) **plus
//! tail-captured**: when tracing is armed every op is measured, and any
//! op slower than the configured SLO threshold — or ending in a typed
//! failure (timeout, shed) — is always retained, so the p99 spikes
//! self-document. Arming follows the same
//! zero-cost-when-absent pattern as `StmRecorder`/`FaultPlan`: with no
//! tracer configured the hot paths carry a single `Option` branch, and
//! the cross-crate annotation hooks ([`note_abort`] and friends) are one
//! thread-local check when no span is active.
//!
//! # Storage and export
//!
//! Retained spans are encoded as 14 words each into the crate's one
//! drop-oldest ring (`ring.rs`, the event ring's slot protocol) of
//! [`DEFAULT_SPAN_RING_CAPACITY`] spans, with an exact monotone `dropped`
//! counter — loss is visible, never silent. A [`SpanSnapshot`] exports as
//! plain JSON ([`SpanSnapshot::to_json`]), as Chrome trace-event JSON
//! loadable in Perfetto ([`SpanSnapshot::to_chrome_trace`]), or — per
//! span — as a text breakdown for test assertions ([`Span::render_text`]).
//!
//! # Propagation
//!
//! The active span lives in a thread-local: the store begins it at the
//! public op boundary, and the layers below (STM engine, migration write
//! path) annotate it through free functions without any dependency on
//! the store — the same direction of travel as the STM retry budget.
//! Only the **outermost** op on a thread owns a span; nested begins
//! (e.g. the store `put` under a `Batcher::try_put` span) are inert, so
//! the outer span absorbs its inner STM annotations.

use crate::json::Json;
use crate::ring::Ring;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Spans a [`Tracer`] built from a [`TraceConfig`] retains.
pub const DEFAULT_SPAN_RING_CAPACITY: usize = 512;

/// Words per span entry (the fixed wire encoding of one span).
const SPAN_WORDS: usize = 14;

/// Most abort causes encoded positionally in the per-attempt sequence;
/// later aborts still count in the per-cause totals.
const CAUSE_SEQ_CAP: u32 = 16;

/// Why one STM attempt aborted — the per-attempt annotation
/// [`note_abort`] records, mirroring the domain's abort attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// Encounter-time conflict (a read/write/extension saw a locked or
    /// newer orec).
    ConflictRead,
    /// Commit-time conflict (read-set validation failed at commit).
    ConflictCommit,
    /// The transaction body requested the abort.
    Explicit,
    /// A bounded retry budget expired mid-attempt.
    Timeout,
}

impl AbortCause {
    /// Stable wire code (1-based; 0 means "no abort" in the sequence).
    fn code(self) -> u64 {
        match self {
            AbortCause::ConflictRead => 1,
            AbortCause::ConflictCommit => 2,
            AbortCause::Explicit => 3,
            AbortCause::Timeout => 4,
        }
    }

    fn from_code(code: u64) -> Option<AbortCause> {
        match code {
            1 => Some(AbortCause::ConflictRead),
            2 => Some(AbortCause::ConflictCommit),
            3 => Some(AbortCause::Explicit),
            4 => Some(AbortCause::Timeout),
            _ => None,
        }
    }

    /// Human-readable cause name (matches the stats snapshot's abort
    /// attribution vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            AbortCause::ConflictRead => "conflict_read",
            AbortCause::ConflictCommit => "conflict_commit",
            AbortCause::Explicit => "explicit",
            AbortCause::Timeout => "timeout",
        }
    }
}

/// What kind of operation a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Point lookup.
    Get,
    /// Single-key insert/update.
    Put,
    /// Single-key removal.
    Delete,
    /// Cross-shard batch.
    Apply,
    /// Cross-shard range query.
    Range,
    /// One bounded scan page.
    ScanPage,
    /// Transactional key count.
    Len,
}

impl OpClass {
    fn code(self) -> u64 {
        match self {
            OpClass::Get => 0,
            OpClass::Put => 1,
            OpClass::Delete => 2,
            OpClass::Apply => 3,
            OpClass::Range => 4,
            OpClass::ScanPage => 5,
            OpClass::Len => 6,
        }
    }

    fn name_of(code: u64) -> &'static str {
        match code {
            0 => "get",
            1 => "put",
            2 => "delete",
            3 => "apply",
            4 => "range",
            5 => "scan_page",
            6 => "len",
            _ => "unknown",
        }
    }
}

/// How a traced op ended. Anything other than [`OpOutcome::Ok`] is always
/// retained, independent of sampling and the SLO threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOutcome {
    /// The op completed normally.
    Ok,
    /// A bounded retry budget expired (`StoreError::Timeout` from
    /// `LeapStore::bounded`); the budget marks it just before unwinding
    /// out of the op.
    Timeout,
    /// The batcher's admission gate refused the op
    /// (`StoreError::Overloaded`).
    Overloaded,
}

impl OpOutcome {
    fn code(self) -> u64 {
        match self {
            OpOutcome::Ok => 0,
            OpOutcome::Timeout => 1,
            OpOutcome::Overloaded => 2,
        }
    }

    fn name_of(code: u64) -> &'static str {
        match code {
            0 => "ok",
            1 => "timeout",
            2 => "overloaded",
            _ => "unknown",
        }
    }
}

/// Construction parameters for a [`Tracer`] (the store threads this
/// through its own config). Head sampling uses the embedding layer's
/// period (the store's `sample_period`), passed to [`Tracer::from_config`].
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Tail-capture SLO threshold: any op slower than this many
    /// nanoseconds is always retained, sampled or not.
    pub slo_ns: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { slo_ns: 1_000_000 }
    }
}

impl TraceConfig {
    /// Sets the tail-capture SLO threshold in nanoseconds.
    pub fn with_slo_ns(mut self, slo_ns: u64) -> Self {
        self.slo_ns = slo_ns;
        self
    }
}

/// The thread-local span under construction. Only the outermost traced
/// op on a thread owns one; annotation hooks mutate it lock-free.
struct ActiveSpan {
    trace_id: u64,
    kind: u64,
    ctx: [u64; 2],
    key: u64,
    shard: u32,
    start: Instant,
    sampled: bool,
    retries: u32,
    cause_seq: u64,
    cause_counts: [u32; 4],
    stamp_retries: u32,
    overlay: u64,
    lock_wait_ns: u64,
    lock_hold_ns: u64,
    commit_ns: u64,
    outcome: u64,
}

impl ActiveSpan {
    /// A span with no annotations yet, starting now.
    fn new(
        trace_id: u64,
        kind: OpClass,
        key: u64,
        shard: u32,
        sampled: bool,
        ctx: [u64; 2],
    ) -> Self {
        ActiveSpan {
            trace_id,
            kind: kind.code(),
            ctx,
            key,
            shard,
            start: Instant::now(),
            sampled,
            retries: 0,
            cause_seq: 0,
            cause_counts: [0; 4],
            stamp_retries: 0,
            overlay: 0,
            lock_wait_ns: 0,
            lock_hold_ns: 0,
            commit_ns: 0,
            outcome: 0,
        }
    }

    /// The span's fixed 14-word ring entry ([`Span::decode`] reads it
    /// back), its start stamped relative to the tracer's `origin`.
    fn encode(&self, origin: Instant, total_ns: u64, tail: bool) -> [u64; SPAN_WORDS] {
        let flags = u64::from(self.sampled) | (u64::from(tail) << 1);
        let meta = (self.kind & 0xff)
            | ((self.outcome & 0xff) << 8)
            | ((flags & 0xff) << 16)
            | ((self.shard as u64) << 32);
        let counts = self
            .cause_counts
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &c)| {
                acc | ((u64::from(c.min(0xffff))) << (16 * i))
            });
        [
            self.trace_id,
            meta,
            self.key,
            self.start.saturating_duration_since(origin).as_nanos() as u64,
            total_ns,
            self.commit_ns,
            u64::from(self.retries) | (u64::from(self.stamp_retries) << 32),
            self.cause_seq,
            counts,
            self.overlay,
            self.lock_wait_ns,
            self.lock_hold_ns,
            self.ctx[0],
            self.ctx[1],
        ]
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveSpan>> = const { RefCell::new(None) };
    /// Per-thread head-sampling tick (shared across tracers, like the
    /// store's get-sampling tick).
    static TRACE_TICK: Cell<u32> = const { Cell::new(0) };
    /// The 16-byte op-context label ([`op_context`]) the next begun span
    /// inherits — how a memdb `Table` op rides the store span under it.
    static CTX: Cell<[u64; 2]> = const { Cell::new([0; 2]) };
}

/// Whether the current thread has an active span (cheap: one
/// thread-local check). Lets hot paths skip `Instant::now` bookkeeping
/// that only feeds annotations.
#[inline]
pub fn in_span() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Encodes up to 16 bytes of `name` into the fixed context words
/// (little-endian, NUL-padded).
fn encode_ctx(name: &str) -> [u64; 2] {
    let mut bytes = [0u8; 16];
    for (dst, src) in bytes.iter_mut().zip(name.bytes()) {
        *dst = src;
    }
    [
        // INVARIANT: a 16-byte array always splits into two 8-byte halves.
        u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")),
        // INVARIANT: as above — the slice is exactly 8 bytes.
        u64::from_le_bytes(bytes[8..].try_into().expect("8 bytes")),
    ]
}

fn decode_ctx(ctx: [u64; 2]) -> String {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&ctx[0].to_le_bytes());
    bytes[8..].copy_from_slice(&ctx[1].to_le_bytes());
    let len = bytes.iter().position(|&b| b == 0).unwrap_or(16);
    String::from_utf8_lossy(&bytes[..len]).into_owned()
}

/// Restores the previous op-context label on drop (see [`op_context`]).
pub struct CtxGuard {
    prev: [u64; 2],
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.set(self.prev));
    }
}

/// Labels the *next* span begun on this thread with `name` (first 16
/// bytes) until the guard drops — the hook a higher layer (memdb's
/// `Table`) uses to make its op kind ride the store span executing it.
pub fn op_context(name: &str) -> CtxGuard {
    let prev = CTX.with(|c| c.replace(encode_ctx(name)));
    CtxGuard { prev }
}

/// Records one aborted STM attempt against the active span, if any.
/// Called by the STM engine's abort-attribution chokepoint, so every
/// retry of a traced op annotates its cause in attempt order.
#[inline]
pub fn note_abort(cause: AbortCause) {
    ACTIVE.with(|a| {
        if let Some(s) = a.borrow_mut().as_mut() {
            if s.retries < CAUSE_SEQ_CAP {
                s.cause_seq |= cause.code() << (4 * s.retries);
            }
            s.retries = s.retries.saturating_add(1);
            let i = (cause.code() - 1) as usize;
            s.cause_counts[i] = s.cause_counts[i].saturating_add(1);
        }
    });
}

/// Records that a migration overlay's stamp changed mid-read and forced
/// the op to retry its plan; `overlay` is the interfering migration's id
/// (0 when the overlay had already completed and only the stamp remains).
#[inline]
pub fn note_stamp_retry(overlay: u64) {
    ACTIVE.with(|a| {
        if let Some(s) = a.borrow_mut().as_mut() {
            s.stamp_retries = s.stamp_retries.saturating_add(1);
            if overlay != 0 {
                s.overlay = overlay;
            }
        }
    });
}

/// Records a migration write-lock acquisition on the op's write path:
/// the overlay id, how long the lock was waited for, and how long it was
/// held.
#[inline]
pub fn note_overlay_lock(overlay: u64, wait_ns: u64, hold_ns: u64) {
    ACTIVE.with(|a| {
        if let Some(s) = a.borrow_mut().as_mut() {
            s.overlay = overlay;
            s.lock_wait_ns = s.lock_wait_ns.saturating_add(wait_ns);
            s.lock_hold_ns = s.lock_hold_ns.saturating_add(hold_ns);
        }
    });
}

/// Adds `ns` to the span's commit phase (time inside the shard
/// transaction, including its retries).
#[inline]
pub fn note_commit_phase(ns: u64) {
    ACTIVE.with(|a| {
        if let Some(s) = a.borrow_mut().as_mut() {
            s.commit_ns = s.commit_ns.saturating_add(ns);
        }
    });
}

/// Marks the active span's outcome (typed failures are always retained).
#[inline]
pub fn note_outcome(outcome: OpOutcome) {
    ACTIVE.with(|a| {
        if let Some(s) = a.borrow_mut().as_mut() {
            s.outcome = outcome.code();
        }
    });
}

/// Ends the active span on drop: measures the total, applies the
/// retention rule (head-sampled, over-SLO, or failed) and publishes to
/// the ring. Inert when the thread already had a span (nested op) —
/// the outermost guard owns it.
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
}

impl SpanGuard<'_> {
    /// A guard that does nothing on drop (tracing off, or nested op).
    pub fn inactive() -> Self {
        SpanGuard { tracer: None }
    }

    /// Whether this guard owns the thread's active span.
    pub fn is_active(&self) -> bool {
        self.tracer.is_some()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            if let Some(span) = ACTIVE.with(|a| a.borrow_mut().take()) {
                t.finish(span);
            }
        }
    }
}

/// The armed span layer: owns the ring, the sampling/SLO knobs and the
/// trace-id source. One per store; absent entirely when tracing is off.
pub struct Tracer {
    ring: Ring<SPAN_WORDS>,
    sample_period: u32,
    slo_ns: u64,
    next_id: AtomicU64,
    origin: Instant,
}

impl Tracer {
    /// A tracer head-sampling 1 in `sample_period` ops per thread
    /// (`0` = head sampling off), tail-capturing ops slower than
    /// `slo_ns`, retaining the last `capacity` spans.
    pub fn new(sample_period: u32, slo_ns: u64, capacity: usize) -> Self {
        Tracer {
            ring: Ring::new(capacity),
            sample_period,
            slo_ns,
            next_id: AtomicU64::new(1),
            origin: Instant::now(),
        }
    }

    /// Builds from a [`TraceConfig`] and the embedding layer's
    /// head-sampling period, retaining the last
    /// [`DEFAULT_SPAN_RING_CAPACITY`] spans.
    pub fn from_config(cfg: &TraceConfig, sample_period: u32) -> Self {
        Tracer::new(sample_period, cfg.slo_ns, DEFAULT_SPAN_RING_CAPACITY)
    }

    /// The tail-capture SLO threshold in nanoseconds.
    pub fn slo_ns(&self) -> u64 {
        self.slo_ns
    }

    /// The head-sampling period (0 = head sampling off).
    pub fn sample_period(&self) -> u32 {
        self.sample_period
    }

    /// A point-in-time copy of the retained spans: survivors oldest
    /// first, plus the exact dropped counter. Slots mid-write are skipped
    /// (they appear in the next snapshot).
    pub fn snapshot(&self) -> SpanSnapshot {
        let (entries, dropped) = self.ring.read();
        SpanSnapshot {
            spans: entries
                .into_iter()
                .map(|(seq, words)| Span::decode(seq, words))
                .collect(),
            dropped,
            capacity: self.ring.capacity(),
        }
    }

    /// Whether this thread's head-sampling tick elects the next op.
    fn head_sampled(&self) -> bool {
        if self.sample_period == 0 {
            return false;
        }
        TRACE_TICK.with(|t| {
            let v = t.get();
            t.set(v.wrapping_add(1));
            v % self.sample_period == 0
        })
    }

    /// Begins a span for an op of `kind` on `key`/`shard`. Every op is
    /// measured while tracing is armed (tail capture needs the total);
    /// retention is decided when the guard drops. Returns an inert guard
    /// when this thread already runs a traced op — the outermost span
    /// absorbs nested annotations.
    pub fn begin(&self, kind: OpClass, key: u64, shard: u32) -> SpanGuard<'_> {
        if in_span() {
            // Don't consume a sampling tick for a nested (inert) begin.
            return SpanGuard::inactive();
        }
        let sampled = self.head_sampled();
        self.begin_with(kind, key, shard, sampled)
    }

    /// Like [`Tracer::begin`] for a caller that already ran a shared
    /// sampling tick and elected this op: the span is marked head-sampled
    /// without consuming this tracer's own tick (the store's `get` path,
    /// which pre-thins ops before paying for any timing at all).
    pub fn begin_elected(&self, kind: OpClass, key: u64, shard: u32) -> SpanGuard<'_> {
        self.begin_with(kind, key, shard, true)
    }

    fn begin_with(&self, kind: OpClass, key: u64, shard: u32, sampled: bool) -> SpanGuard<'_> {
        if in_span() {
            return SpanGuard::inactive();
        }
        // ORDERING: id allocator; uniqueness comes from the RMW.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = ActiveSpan::new(id, kind, key, shard, sampled, CTX.with(Cell::get));
        ACTIVE.with(|a| *a.borrow_mut() = Some(span));
        SpanGuard { tracer: Some(self) }
    }

    /// Finishes `span`: total time, retention rule, publish.
    fn finish(&self, span: ActiveSpan) {
        let total_ns = span.start.elapsed().as_nanos() as u64;
        let tail = total_ns >= self.slo_ns;
        if !(span.sampled || tail || span.outcome != 0) {
            return;
        }
        self.ring.push(span.encode(self.origin, total_ns, tail));
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("sample_period", &self.sample_period)
            .field("slo_ns", &self.slo_ns)
            .field("ring", &self.ring)
            .finish()
    }
}

/// One retained span, decoded from the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Ring sequence number (monotone publication order).
    pub seq: u64,
    /// Unique trace id within the tracer.
    pub trace_id: u64,
    /// Op kind name (`get`, `put`, …, `len`).
    pub kind: &'static str,
    /// Outcome name (`ok`, `timeout` or `overloaded`).
    pub outcome: &'static str,
    /// Whether head sampling elected this span.
    pub sampled: bool,
    /// Whether the op breached the SLO threshold (tail capture).
    pub tail: bool,
    /// The op's key (first key for batches; range start for scans).
    pub key: u64,
    /// The routed shard at span start.
    pub shard: u32,
    /// Span start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Total measured latency in nanoseconds.
    pub total_ns: u64,
    /// Commit phase: the cross-list transaction (retries included) of a
    /// `put` / `delete` on a migrating key, run under the overlay lock.
    /// Every other op leaves it 0.
    pub commit_ns: u64,
    /// Aborted STM attempts under this span.
    pub retries: u32,
    /// Overlay-stamp retries the op's read plan suffered.
    pub stamp_retries: u32,
    /// Per-attempt abort causes, first 16 attempts in order (later
    /// aborts count only in `cause_counts`).
    pub causes: Vec<AbortCause>,
    /// Total aborts by cause: `[conflict_read, conflict_commit,
    /// explicit, timeout]`.
    pub cause_counts: [u32; 4],
    /// Last interfering migration overlay id (0 = none).
    pub overlay: u64,
    /// Time spent waiting on a migration write lock.
    pub lock_wait_ns: u64,
    /// Time spent holding a migration write lock.
    pub lock_hold_ns: u64,
    /// Op-context label from the embedding layer (e.g. the memdb table
    /// op riding this store span), empty when none.
    pub ctx: String,
}

impl Span {
    fn decode(seq: u64, w: [u64; SPAN_WORDS]) -> Span {
        let meta = w[1];
        let retries = (w[6] & 0xffff_ffff) as u32;
        let mut causes = Vec::new();
        for i in 0..retries.min(CAUSE_SEQ_CAP) {
            if let Some(c) = AbortCause::from_code((w[7] >> (4 * i)) & 0xf) {
                causes.push(c);
            }
        }
        let mut cause_counts = [0u32; 4];
        for (i, c) in cause_counts.iter_mut().enumerate() {
            *c = ((w[8] >> (16 * i)) & 0xffff) as u32;
        }
        Span {
            seq,
            trace_id: w[0],
            kind: OpClass::name_of(meta & 0xff),
            outcome: OpOutcome::name_of((meta >> 8) & 0xff),
            sampled: (meta >> 16) & 1 == 1,
            tail: (meta >> 17) & 1 == 1,
            key: w[2],
            shard: (meta >> 32) as u32,
            start_ns: w[3],
            total_ns: w[4],
            commit_ns: w[5],
            retries,
            stamp_retries: (w[6] >> 32) as u32,
            causes,
            cause_counts,
            overlay: w[9],
            lock_wait_ns: w[10],
            lock_hold_ns: w[11],
            ctx: decode_ctx([w[12], w[13]]),
        }
    }

    /// Unattributed remainder: total minus the commit phase (floored at
    /// zero) — routing, lock waits, plan retries. The commit phase plus
    /// this always sum to [`Span::total_ns`].
    pub fn other_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.commit_ns)
    }

    /// The span as one JSON object (the `spans` array entry format).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj()
            .field("trace_id", Json::U64(self.trace_id))
            .field("kind", Json::str(self.kind))
            .field("outcome", Json::str(self.outcome))
            .field("sampled", Json::Bool(self.sampled))
            .field("tail", Json::Bool(self.tail))
            .field("key", Json::U64(self.key))
            .field("shard", Json::U64(u64::from(self.shard)))
            .field("start_ns", Json::U64(self.start_ns))
            .field("total_ns", Json::U64(self.total_ns))
            .field(
                "phases",
                Json::obj()
                    .field("commit_ns", Json::U64(self.commit_ns))
                    .field("other_ns", Json::U64(self.other_ns())),
            )
            .field(
                "stm",
                Json::obj()
                    .field("retries", Json::U64(u64::from(self.retries)))
                    .field(
                        "causes",
                        Json::Arr(self.causes.iter().map(|c| Json::str(c.name())).collect()),
                    ),
            )
            .field(
                "migration",
                Json::obj()
                    .field("overlay", Json::U64(self.overlay))
                    .field("stamp_retries", Json::U64(u64::from(self.stamp_retries)))
                    .field("lock_wait_ns", Json::U64(self.lock_wait_ns))
                    .field("lock_hold_ns", Json::U64(self.lock_hold_ns)),
            );
        if !self.ctx.is_empty() {
            obj = obj.field("ctx", Json::str(&self.ctx));
        }
        obj
    }

    /// A multi-line text breakdown of the span — the per-trace renderer
    /// tests assert against.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "trace {} {} key={} shard={} outcome={} total={}ns{}{}",
            self.trace_id,
            self.kind,
            self.key,
            self.shard,
            self.outcome,
            self.total_ns,
            if self.sampled { " sampled" } else { "" },
            if self.tail { " tail" } else { "" },
        );
        if !self.ctx.is_empty() {
            out.push_str(&format!(" ctx={}", self.ctx));
        }
        out.push_str(&format!(
            "\n  phases: commit={}ns other={}ns",
            self.commit_ns,
            self.other_ns()
        ));
        if self.retries > 0 {
            let names: Vec<&str> = self.causes.iter().map(|c| c.name()).collect();
            let tail = self.retries.saturating_sub(self.causes.len() as u32);
            out.push_str(&format!(
                "\n  stm: retries={} causes=[{}]{}",
                self.retries,
                names.join(", "),
                if tail > 0 {
                    format!(" +{tail} more")
                } else {
                    String::new()
                }
            ));
        }
        if self.overlay != 0 || self.stamp_retries > 0 {
            out.push_str(&format!(
                "\n  migration: overlay={} stamp_retries={} lock_wait={}ns lock_hold={}ns",
                self.overlay, self.stamp_retries, self.lock_wait_ns, self.lock_hold_ns
            ));
        }
        out
    }
}

/// A point-in-time view of the span ring.
#[derive(Debug, Clone)]
pub struct SpanSnapshot {
    /// Surviving spans, oldest first.
    pub spans: Vec<Span>,
    /// Spans dropped to overflow (exact, monotone).
    pub dropped: u64,
    /// The ring's fixed capacity.
    pub capacity: usize,
}

impl SpanSnapshot {
    /// The snapshot as `{"capacity":..,"dropped":..,"spans":[..]}`.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("capacity", Json::U64(self.capacity as u64))
            .field("dropped", Json::U64(self.dropped))
            .field(
                "spans",
                Json::Arr(self.spans.iter().map(Span::to_json).collect()),
            )
    }

    /// The snapshot as Chrome trace-event JSON (the `traceEvents` array
    /// format Perfetto and `chrome://tracing` load): one complete
    /// (`"ph":"X"`) event per span on its shard's track, with a child
    /// slice for a nonzero commit phase and the annotations in `args`.
    pub fn to_chrome_trace(&self) -> String {
        let mut events = Vec::new();
        for s in &self.spans {
            let us = |ns: u64| Json::fixed(ns as f64 / 1000.0, 3);
            let mut args = Json::obj()
                .field("trace_id", Json::U64(s.trace_id))
                .field("key", Json::U64(s.key))
                .field("outcome", Json::str(s.outcome))
                .field("retries", Json::U64(u64::from(s.retries)))
                .field(
                    "causes",
                    Json::Arr(s.causes.iter().map(|c| Json::str(c.name())).collect()),
                )
                .field("overlay", Json::U64(s.overlay))
                .field("stamp_retries", Json::U64(u64::from(s.stamp_retries)));
            if !s.ctx.is_empty() {
                args = args.field("ctx", Json::str(&s.ctx));
            }
            events.push(
                Json::obj()
                    .field("name", Json::str(s.kind))
                    .field("cat", Json::str("leapstore"))
                    .field("ph", Json::str("X"))
                    .field("ts", us(s.start_ns))
                    .field("dur", us(s.total_ns.max(1)))
                    .field("pid", Json::U64(1))
                    .field("tid", Json::U64(u64::from(s.shard)))
                    .field("args", args),
            );
            // Child slice: the commit phase, under the op slice.
            if s.commit_ns > 0 {
                events.push(
                    Json::obj()
                        .field("name", Json::str("commit"))
                        .field("cat", Json::str("leapstore_phase"))
                        .field("ph", Json::str("X"))
                        .field("ts", us(s.start_ns))
                        .field("dur", us(s.commit_ns))
                        .field("pid", Json::U64(1))
                        .field("tid", Json::U64(u64::from(s.shard))),
                );
            }
        }
        Json::obj()
            .field("traceEvents", Json::Arr(events))
            .field("displayTimeUnit", Json::str("ns"))
            .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_active() {
        // Tests on one thread: make sure no span leaks between them.
        ACTIVE.with(|a| *a.borrow_mut() = None);
        CTX.with(|c| c.set([0; 2]));
        TRACE_TICK.with(|t| t.set(0));
    }

    #[test]
    fn head_sampling_rate_one_records_every_op_and_zero_none() {
        drain_active();
        let every = Tracer::new(1, u64::MAX, 16);
        for k in 0..5 {
            let _g = every.begin(OpClass::Put, k, 0);
        }
        assert_eq!(every.snapshot().spans.len(), 5, "period 1 = every op");

        drain_active();
        let never = Tracer::new(0, u64::MAX, 16);
        for k in 0..5 {
            let _g = never.begin(OpClass::Put, k, 0);
        }
        assert_eq!(
            never.snapshot().spans.len(),
            0,
            "period 0 = head sampling off, nothing under SLO"
        );
    }

    #[test]
    fn tail_capture_retains_unsampled_slow_ops() {
        drain_active();
        // SLO 0: every measured op breaches it, sampled or not.
        let t = Tracer::new(0, 0, 16);
        {
            let _g = t.begin(OpClass::Range, 10, 2);
        }
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 1);
        let s = &snap.spans[0];
        assert!(s.tail && !s.sampled);
        assert_eq!(s.kind, "range");
        assert_eq!(s.key, 10);
        assert_eq!(s.shard, 2);
    }

    #[test]
    fn failures_always_retained_and_annotations_land() {
        drain_active();
        let t = Tracer::new(0, u64::MAX, 16);
        {
            let _g = t.begin(OpClass::Put, 7, 1);
            note_abort(AbortCause::ConflictCommit);
            note_abort(AbortCause::ConflictCommit);
            note_abort(AbortCause::ConflictRead);
            note_stamp_retry(3);
            note_overlay_lock(3, 50, 900);
            note_commit_phase(1_000);
            note_outcome(OpOutcome::Timeout);
            // The noted phases must fit inside the measured total for the
            // sum invariant below to be meaningful.
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 1, "failed op retained despite sampling");
        let s = &snap.spans[0];
        assert_eq!(s.outcome, "timeout");
        assert_eq!(s.retries, 3);
        assert_eq!(
            s.causes,
            vec![
                AbortCause::ConflictCommit,
                AbortCause::ConflictCommit,
                AbortCause::ConflictRead
            ]
        );
        assert_eq!(s.cause_counts, [1, 2, 0, 0]);
        assert_eq!(s.overlay, 3);
        assert_eq!(s.stamp_retries, 1);
        assert_eq!((s.lock_wait_ns, s.lock_hold_ns), (50, 900));
        assert_eq!(s.commit_ns, 1_000);
        assert_eq!(
            s.commit_ns + s.other_ns(),
            s.total_ns,
            "phases always sum to the measured total"
        );
        let text = s.render_text();
        assert!(text.contains("outcome=timeout"), "{text}");
        assert!(
            text.contains("causes=[conflict_commit, conflict_commit, conflict_read]"),
            "{text}"
        );
        assert!(text.contains("overlay=3"), "{text}");
    }

    #[test]
    fn nested_begin_is_inert_and_outer_span_absorbs_annotations() {
        drain_active();
        let t = Tracer::new(1, u64::MAX, 16);
        {
            let _outer = t.begin(OpClass::Put, 1, 0);
            {
                let inner = t.begin(OpClass::Apply, 2, 0);
                assert!(!inner.is_active());
                note_abort(AbortCause::Explicit);
            }
            // The inner guard dropping must not have closed the outer span.
            assert!(in_span());
        }
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].kind, "put");
        assert_eq!(snap.spans[0].retries, 1);
        assert_eq!(snap.spans[0].causes, vec![AbortCause::Explicit]);
    }

    #[test]
    fn op_context_rides_the_span_and_restores() {
        drain_active();
        let t = Tracer::new(1, u64::MAX, 4);
        {
            let _c = op_context("scan_page");
            let _g = t.begin(OpClass::Range, 5, 0);
        }
        {
            let _g = t.begin(OpClass::Get, 6, 0);
        }
        let snap = t.snapshot();
        assert_eq!(snap.spans[0].ctx, "scan_page");
        assert_eq!(snap.spans[1].ctx, "", "context guard restored on drop");
        let text = snap.spans[0].render_text();
        assert!(text.contains("ctx=scan_page"), "{text}");
    }

    #[test]
    fn batch_phases_and_chrome_export() {
        drain_active();
        let t = Tracer::new(1, u64::MAX, 4);
        // A cross-shard batch span with a commit phase, beside a get
        // span without one.
        {
            let _g = t.begin(OpClass::Apply, 42, 3);
            note_commit_phase(300);
        }
        {
            let _g = t.begin(OpClass::Get, 43, 3);
        }
        let snap = t.snapshot();
        assert_eq!(snap.spans[0].commit_ns, 300);
        let chrome = snap.to_chrome_trace();
        assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");
        assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
        assert!(chrome.contains("\"name\":\"apply\""), "{chrome}");
        assert!(chrome.contains("\"name\":\"get\""), "{chrome}");
        // One child slice, for the one span with a commit phase.
        assert_eq!(chrome.matches("\"name\":\"commit\"").count(), 1, "{chrome}");
        // Also valid as the plain JSON snapshot.
        let json = snap.to_json().render();
        assert!(json.contains("\"commit_ns\":300"), "{json}");
    }

    #[test]
    fn annotations_without_a_span_are_noops() {
        drain_active();
        note_abort(AbortCause::Timeout);
        note_stamp_retry(1);
        note_overlay_lock(1, 1, 1);
        note_commit_phase(1);
        note_outcome(OpOutcome::Overloaded);
        assert!(!in_span());
    }
}
