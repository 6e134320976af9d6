//! Paired leap-trace overhead measurement: alternates small batches
//! between a traced store (default head sampling) and an untraced one,
//! flipping the order every round, so slow host drift — which swamps a
//! few-percent delta between two back-to-back runs on a busy box —
//! cancels out of the comparison. This is the measurement the ≤5%
//! tracing budget is checked against.
//!
//! ```sh
//! cargo run --release -p leap-bench --example trace_overhead_paired
//! ```

use leap_store::{LeapStore, Partitioning, StoreConfig};
use std::time::Instant;

const PREFILL: u64 = 10_000;
const ROUNDS: usize = 400;
const BATCH: u64 = 500;

fn store(traced: bool) -> LeapStore<u64> {
    let mut config = StoreConfig::new(4, Partitioning::Range).with_key_space(PREFILL);
    if traced {
        config = config.with_tracing(leap_obs::TraceConfig::default());
    }
    let s = LeapStore::new(config);
    for k in 0..PREFILL {
        s.put(k, k);
    }
    s
}

/// Runs `op` against the traced/untraced pair in alternating,
/// order-flipping batches; returns (traced ns/op, untraced ns/op).
fn paired(
    on: &LeapStore<u64>,
    off: &LeapStore<u64>,
    mut op: impl FnMut(&LeapStore<u64>, u64),
) -> (u128, u128) {
    let (mut t_on, mut t_off) = (0u128, 0u128);
    let mut k = 0u64;
    for round in 0..ROUNDS {
        for phase in 0..2 {
            let traced_first = round.is_multiple_of(2);
            let use_on = (phase == 0) == traced_first;
            let s = if use_on { on } else { off };
            let t0 = Instant::now();
            for _ in 0..BATCH {
                k = (k + 7919) % PREFILL;
                op(s, k);
            }
            let dt = t0.elapsed().as_nanos();
            if use_on {
                t_on += dt;
            } else {
                t_off += dt;
            }
        }
    }
    let n = (ROUNDS as u128) * (BATCH as u128);
    (t_on / n, t_off / n)
}

fn report(label: &str, on_ns: u128, off_ns: u128) {
    println!(
        "{label}  on: {on_ns} ns/op   off: {off_ns} ns/op   delta {:+.2}%",
        (on_ns as f64 / off_ns as f64 - 1.0) * 100.0
    );
}

fn main() {
    let on = store(true);
    let off = store(false);
    let (p_on, p_off) = paired(&on, &off, |s, k| {
        std::hint::black_box(s.put(k, k));
    });
    report("put", p_on, p_off);
    let (g_on, g_off) = paired(&on, &off, |s, k| {
        std::hint::black_box(s.get(k));
    });
    report("get", g_on, g_off);
}
