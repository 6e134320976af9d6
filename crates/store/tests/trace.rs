//! Deterministic leap-trace integration: a fault-injected retry storm
//! must produce a tail-captured span whose phase breakdown sums to the
//! measured latency and names the STM abort causes and the overlay that
//! interfered; head sampling must gate the get path exactly; typed
//! failures must be retained even when sampling and the SLO would both
//! drop them.

use leap_obs::{AbortCause, TraceConfig};
use leap_store::{
    FaultPlan, FaultPoint, LeapStore, Partitioning, RetryPolicy, StoreConfig, StoreError,
};

const KEY_SPACE: u64 = 1_024;

/// The acceptance scenario: the very first op is a put into a migrating
/// range whose first three commit attempts are failed by injection. The
/// span must be tail-captured (SLO 0) and carry the whole story — three
/// commit-conflict retries, the overlay id that held the write lock, a
/// nonzero commit phase, and phases that sum exactly to the total.
#[test]
fn retry_storm_put_is_tail_captured_with_full_phase_breakdown() {
    let plan = FaultPlan::new(1)
        .always(FaultPoint::StmCommit)
        .with_budget(FaultPoint::StmCommit, 3);
    let store: LeapStore<u64> = LeapStore::new(
        StoreConfig::new(2, Partitioning::Range)
            .with_key_space(KEY_SPACE)
            .with_faults(plan)
            // SLO 0: every finished op is over-threshold, so retention
            // needs no sampling luck. Head sampling off proves the tail
            // path alone captured it.
            .with_sample_period(0)
            .with_tracing(TraceConfig::default().with_slo_ns(0)),
    );
    // Live overlay over [100, 511], never stepped: key 200 stays in the
    // migrating range for the whole test.
    store.split_shard(0, 100).expect("split");
    let m = store.router().migration().expect("overlay is live");

    assert_eq!(store.put(200, 7), None);
    assert_eq!(store.get(200), Some(7));

    let snap = store.tracer().expect("tracing armed").snapshot();
    assert_eq!(snap.dropped, 0, "nothing evicted in a two-op run");
    let span = snap
        .spans
        .iter()
        .find(|s| s.kind == "put" && s.key == 200)
        .expect("put span retained");

    // Retained by tail capture, not sampling, with a healthy outcome.
    assert!(span.tail, "SLO 0 marks every op as tail");
    assert!(!span.sampled, "head sampling was off");
    assert_eq!(span.outcome, "ok");

    // The retry storm is attributed: three injected commit failures,
    // each named as a commit conflict.
    assert_eq!(span.retries, 3, "budgeted faults all landed on this op");
    assert_eq!(span.causes, vec![AbortCause::ConflictCommit; 3]);

    // Migration interference: the overlay id that held the write lock.
    assert_eq!(span.overlay, m.id, "overlay id recorded on the write path");
    assert!(span.lock_hold_ns > 0, "migration lock hold time measured");

    // Phase breakdown sums exactly to the measured latency.
    assert!(span.commit_ns > 0, "commit phase timed");
    assert_eq!(
        span.commit_ns + span.other_ns(),
        span.total_ns,
        "phases + remainder account for the whole span"
    );

    // The text renderer tells the same story...
    let text = span.render_text();
    for needle in ["conflict_commit", "retries=3", &format!("overlay={}", m.id)] {
        assert!(
            text.contains(needle),
            "render_text missing {needle}:\n{text}"
        );
    }
    // ...and the Chrome export is a complete trace-event document.
    let chrome = snap.to_chrome_trace();
    for needle in [
        "\"traceEvents\":[",
        "\"ph\":\"X\"",
        "\"name\":\"put\"",
        "\"dur\":",
    ] {
        assert!(chrome.contains(needle), "chrome trace missing {needle}");
    }
}

/// Head sampling gates the get path exactly: period 1 elects every get,
/// period 0 (with a huge SLO and no failures) retains nothing at all.
#[test]
fn get_spans_follow_the_shared_sampling_knob() {
    let every = |period: u32| -> LeapStore<u64> {
        LeapStore::new(
            StoreConfig::new(2, Partitioning::Range)
                .with_key_space(KEY_SPACE)
                .with_sample_period(period)
                .with_tracing(TraceConfig::default().with_slo_ns(u64::MAX)),
        )
    };
    let store = every(1);
    store.put(9, 90);
    for _ in 0..4 {
        assert_eq!(store.get(9), Some(90));
    }
    let snap = store.tracer().expect("tracing armed").snapshot();
    let gets: Vec<_> = snap.spans.iter().filter(|s| s.kind == "get").collect();
    assert_eq!(gets.len(), 4, "period 1 elects every get");
    assert!(gets.iter().all(|s| s.sampled && s.key == 9));

    let store = every(0);
    store.put(9, 90);
    for _ in 0..4 {
        assert_eq!(store.get(9), Some(90));
    }
    let snap = store.tracer().expect("tracing armed").snapshot();
    assert!(
        snap.spans.is_empty(),
        "period 0 + SLO MAX + no failures retains nothing: {:?}",
        snap.spans
    );
}

/// A typed failure is always retained: with sampling off and an SLO no
/// op can exceed, a bounded put that exhausts its retry budget must
/// still land in the ring — outcome `timeout`, every attempt's abort
/// cause named, including the deadline itself.
#[test]
fn timed_out_op_is_retained_despite_sampling_and_slo() {
    let store: LeapStore<u64> = LeapStore::new(
        StoreConfig::new(2, Partitioning::Range)
            .with_key_space(KEY_SPACE)
            .with_faults(FaultPlan::new(7).always(FaultPoint::StmCommit))
            .with_sample_period(0)
            .with_tracing(TraceConfig::default().with_slo_ns(u64::MAX)),
    );
    match store.bounded(RetryPolicy::default().max_attempts(4), || store.put(5, 50)) {
        Err(StoreError::Timeout { attempts }) => assert!(attempts >= 4),
        other => panic!("expected Timeout, got {other:?}"),
    }
    let snap = store.tracer().expect("tracing armed").snapshot();
    let span = snap
        .spans
        .iter()
        .find(|s| s.kind == "put" && s.key == 5)
        .expect("failed op retained");
    assert_eq!(span.outcome, "timeout");
    assert!(
        !span.sampled && !span.tail,
        "retained purely for the failure"
    );
    assert!(span.retries >= 4, "every attempt counted: {}", span.retries);
    assert!(span.causes.contains(&AbortCause::ConflictCommit));
    assert!(
        span.causes.contains(&AbortCause::Timeout),
        "the deadline itself is attributed: {:?}",
        span.causes
    );
}
