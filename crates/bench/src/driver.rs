//! Timed multi-thread throughput driver: the measurement loop behind every
//! figure (paper §3: "Each experiment execution is set to 10 seconds, and
//! is repeated three times; we show the average").

use crate::rng::Rng64;
use crate::target::BenchTarget;
use crate::workload::{OpKind, Workload};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One timed run's configuration.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Worker thread count.
    pub threads: usize,
    /// Measured duration per repetition.
    pub duration: Duration,
    /// Number of repetitions averaged.
    pub repeats: usize,
    /// Base RNG seed (each thread derives its own).
    pub seed: u64,
}

impl Default for RunCfg {
    fn default() -> Self {
        RunCfg {
            threads: 1,
            duration: Duration::from_millis(300),
            repeats: 1,
            seed: 0xC0FF_EE00,
        }
    }
}

/// Runs the workload against the target and returns average throughput in
/// operations per second (one composite modification = one operation).
///
/// # Panics
///
/// Panics if `cfg.repeats` is 0: the average of no runs is not a number.
pub fn run_throughput(target: &Arc<dyn BenchTarget>, wl: &Workload, cfg: &RunCfg) -> f64 {
    assert!(cfg.repeats >= 1, "RunCfg::repeats must be at least 1");
    let mut total = 0.0;
    for rep in 0..cfg.repeats {
        total += run_once(target, wl, cfg, cfg.seed ^ (rep as u64) << 32);
    }
    total / cfg.repeats as f64
}

fn run_once(target: &Arc<dyn BenchTarget>, wl: &Workload, cfg: &RunCfg, seed: u64) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(cfg.threads + 1));
    let lists = target.lists();
    let mut handles = Vec::with_capacity(cfg.threads);
    for t in 0..cfg.threads {
        let target = target.clone();
        let stop = stop.clone();
        let barrier = barrier.clone();
        let wl = wl.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = Rng64::new(seed.wrapping_add(t as u64 * 0x9E37_79B9_7F4A_7C15));
            let mut keys = vec![0u64; lists];
            let mut values = vec![0u64; lists];
            let mut ops = 0u64;
            barrier.wait();
            while !stop.load(Ordering::Relaxed) {
                // Batch the stop check to keep it off the hot path.
                for _ in 0..32 {
                    match wl.sample_kind(&mut rng) {
                        OpKind::Update => {
                            wl.sample_batch_keys(&mut rng, &mut keys);
                            for v in values.iter_mut() {
                                *v = rng.next_u64();
                            }
                            target.update(&keys, &values);
                        }
                        OpKind::Remove => {
                            wl.sample_batch_keys(&mut rng, &mut keys);
                            target.remove(&keys);
                        }
                        OpKind::Lookup => {
                            let list = rng.below(lists as u64) as usize;
                            let k = wl.sample_key(&mut rng);
                            std::hint::black_box(target.lookup(list, k));
                        }
                        OpKind::RangeQuery => {
                            let list = rng.below(lists as u64) as usize;
                            let (lo, hi) = wl.sample_range(&mut rng);
                            std::hint::black_box(target.range_query(list, lo, hi));
                        }
                    }
                    ops += 1;
                }
            }
            ops
        }));
    }
    barrier.wait();
    let started = Instant::now();
    std::thread::sleep(cfg.duration);
    stop.store(true, Ordering::Relaxed);
    let mut ops = 0u64;
    for h in handles {
        ops += h.join().expect("worker panicked");
    }
    let elapsed = started.elapsed().as_secs_f64();
    ops as f64 / elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{make_target, Algo};
    use crate::workload::Mix;
    use leaplist::Params;

    #[test]
    fn driver_measures_positive_throughput() {
        let t = make_target(
            Algo::LeapLt,
            2,
            Params {
                node_size: 16,
                max_level: 6,
                ..Params::default()
            },
        );
        t.prefill(500);
        let wl = Workload {
            mix: Mix::read_dominated(),
            key_range: 1_000,
            span_min: 10,
            span_max: 50,
        };
        let cfg = RunCfg {
            threads: 2,
            duration: Duration::from_millis(60),
            repeats: 1,
            seed: 7,
        };
        let ops = run_throughput(&t, &wl, &cfg);
        assert!(ops > 100.0, "implausibly low throughput: {ops}");
    }

    #[test]
    fn driver_works_for_skiplist_targets() {
        let t = make_target(Algo::SkipCas, 1, Params::default());
        t.prefill(200);
        let wl = Workload {
            mix: Mix::write_only(),
            key_range: 500,
            span_min: 10,
            span_max: 20,
        };
        let cfg = RunCfg {
            threads: 2,
            duration: Duration::from_millis(50),
            repeats: 1,
            seed: 3,
        };
        assert!(run_throughput(&t, &wl, &cfg) > 100.0);
    }
    #[test]
    #[should_panic(expected = "repeats must be at least 1")]
    fn zero_repeats_is_refused_not_averaged_to_nan() {
        let t = make_target(Algo::SkipCas, 1, Params::default());
        let cfg = RunCfg {
            repeats: 0,
            ..RunCfg::default()
        };
        run_throughput(&t, &Workload::paper(Mix::lookup_only(), 100), &cfg);
    }
}
