//! Paired leap-trace overhead measurement: alternates small batches
//! between a traced store (default head sampling) and an untraced one,
//! flipping the order every round, so slow host drift — which swamps a
//! few-percent delta between two back-to-back runs on a busy box —
//! cancels out of the comparison. It prints the quartiles of the
//! per-round traced/untraced time ratio, for put and for get.
//!
//! Four runs on a 2-vCPU KVM guest read median overheads of +3.6 to
//! +7.3 % for put and -2.1 to +4.7 % for get. The spread within a run is
//! wider than that: put quartiles ran from -2.6 to +14.2 %, get quartiles
//! from -4.9 to +8.6 %. Tracing costs puts a few percent; the runs do not
//! show a fixed bound.
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
/// order-flipping batches; returns each round's traced/untraced time
/// ratio, sorted.
fn paired(
    on: &LeapStore<u64>,
    off: &LeapStore<u64>,
    mut op: impl FnMut(&LeapStore<u64>, u64),
) -> Vec<f64> {
    let mut ratios = Vec::with_capacity(ROUNDS);
    let mut k = 0u64;
    for round in 0..ROUNDS {
        let (mut t_on, mut t_off) = (0u128, 0u128);
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
        ratios.push(t_on as f64 / t_off as f64);
    }
    ratios.sort_by(f64::total_cmp);
    ratios
}

/// Prints the quartiles of the sorted per-round ratios as overheads.
fn report(label: &str, ratios: &[f64]) {
    let q = |p: f64| (ratios[((ratios.len() - 1) as f64 * p).round() as usize] - 1.0) * 100.0;
    println!(
        "{label}  traced/untraced per round ({} rounds): q1 {:+.2}%  median {:+.2}%  q3 {:+.2}%",
        ratios.len(),
        q(0.25),
        q(0.5),
        q(0.75)
    );
}

fn main() {
    let on = store(true);
    let off = store(false);
    let put = paired(&on, &off, |s, k| {
        std::hint::black_box(s.put(k, k));
    });
    report("put", &put);
    let get = paired(&on, &off, |s, k| {
        std::hint::black_box(s.get(k));
    });
    report("get", &get);
}
