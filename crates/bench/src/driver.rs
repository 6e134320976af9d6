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
pub fn run_throughput(target: &Arc<dyn BenchTarget>, wl: &Workload, cfg: &RunCfg) -> f64 {
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

/// Per-operation latency percentiles (nanoseconds), measured by sampling
/// one in every 16 operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyReport {
    /// Median.
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile (the tail the event timeline explains).
    pub p999_ns: u64,
    /// Arithmetic mean of the samples.
    pub mean_ns: u64,
    /// Number of latency samples taken.
    pub samples: usize,
}

impl std::fmt::Display for LatencyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p50={}ns p95={}ns p99={}ns p99.9={}ns mean={}ns (n={})",
            self.p50_ns, self.p95_ns, self.p99_ns, self.p999_ns, self.mean_ns, self.samples
        )
    }
}

/// Like [`run_throughput`] but additionally samples per-operation
/// latencies (1/16 of operations, to keep the probe off the hot path) and
/// reports percentiles across all threads and repetitions.
pub fn run_latency(target: &Arc<dyn BenchTarget>, wl: &Workload, cfg: &RunCfg) -> LatencyReport {
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(cfg.threads + 1));
    let lists = target.lists();
    let mut handles = Vec::with_capacity(cfg.threads);
    for t in 0..cfg.threads {
        let target = target.clone();
        let stop = stop.clone();
        let barrier = barrier.clone();
        let wl = wl.clone();
        let seed = cfg.seed.wrapping_add(t as u64 * 0x9E37_79B9_7F4A_7C15);
        handles.push(std::thread::spawn(move || {
            let mut rng = Rng64::new(seed);
            let mut keys = vec![0u64; lists];
            let mut values = vec![0u64; lists];
            let mut lat = Vec::with_capacity(1 << 14);
            let mut i = 0u64;
            barrier.wait();
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..16 {
                    i += 1;
                    let probe = i.is_multiple_of(16);
                    let start = probe.then(Instant::now);
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
                    if let Some(s) = start {
                        lat.push(s.elapsed().as_nanos() as u64);
                    }
                }
            }
            lat
        }));
    }
    barrier.wait();
    std::thread::sleep(cfg.duration);
    stop.store(true, Ordering::Relaxed);
    let mut all: Vec<u64> = Vec::new();
    for h in handles {
        all.extend(h.join().expect("worker panicked"));
    }
    all.sort_unstable();
    let pick = |q: f64| -> u64 {
        if all.is_empty() {
            0
        } else {
            all[((all.len() - 1) as f64 * q) as usize]
        }
    };
    let mean = if all.is_empty() {
        0
    } else {
        all.iter().sum::<u64>() / all.len() as u64
    };
    LatencyReport {
        p50_ns: pick(0.50),
        p95_ns: pick(0.95),
        p99_ns: pick(0.99),
        p999_ns: pick(0.999),
        mean_ns: mean,
        samples: all.len(),
    }
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
            key_dist: Default::default(),
            batch_keys: Default::default(),
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
            key_dist: Default::default(),
            batch_keys: Default::default(),
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
    fn latency_report_has_ordered_percentiles() {
        let t = make_target(Algo::LeapLt, 1, Params::default());
        t.prefill(500);
        let wl = Workload::paper(Mix::lookup_only(), 500);
        let cfg = RunCfg {
            threads: 1,
            duration: Duration::from_millis(80),
            repeats: 1,
            seed: 11,
        };
        let r = run_latency(&t, &wl, &cfg);
        assert!(r.samples > 10, "too few samples: {r}");
        assert!(
            r.p50_ns <= r.p95_ns && r.p95_ns <= r.p99_ns && r.p99_ns <= r.p999_ns,
            "{r}"
        );
        assert!(r.mean_ns > 0);
    }

    #[test]
    fn driver_runs_leapstore_mixed_scenario() {
        // The LeapStore service scenario: point gets, cross-shard ranges,
        // and multi-shard transactions, against the sharded store target.
        let t = make_target(
            Algo::LeapStore,
            4,
            Params {
                node_size: 16,
                max_level: 6,
                ..Params::default()
            },
        );
        t.prefill(500);
        let wl = Workload {
            mix: Mix::store_mixed(),
            key_range: 1_000,
            span_min: 10,
            span_max: 50,
            key_dist: Default::default(),
            batch_keys: Default::default(),
        };
        let cfg = RunCfg {
            threads: 2,
            duration: Duration::from_millis(60),
            repeats: 1,
            seed: 23,
        };
        assert!(run_throughput(&t, &wl, &cfg) > 100.0);
        let json = t.stats_json().expect("store target exposes stats");
        assert!(
            json.contains("\"stm\""),
            "stats carry domain counters: {json}"
        );
    }

    #[test]
    fn colliding_workload_drives_collision_batches() {
        // Adjacent-key batches on range partitioning: essentially every
        // multi-shard txn collides onto one shard, exercising the
        // multi-op chain-rebuild path end to end.
        let t = crate::target::make_store_target(
            4,
            leap_store::Partitioning::Range,
            1_000,
            Params {
                node_size: 16,
                max_level: 6,
                ..Params::default()
            },
        );
        t.prefill(500);
        let wl = Workload::colliding(Mix::write_only(), 1_000);
        let cfg = RunCfg {
            threads: 2,
            duration: Duration::from_millis(60),
            repeats: 1,
            seed: 17,
        };
        assert!(run_throughput(&t, &wl, &cfg) > 100.0);
        let json = t.stats_json().expect("store target exposes stats");
        let collisions: u64 = json
            .split("\"collision_batches\":")
            .nth(1)
            .and_then(|s| s.split(&[',', '}'][..]).next())
            .and_then(|s| s.parse().ok())
            .expect("stats carry collision_batches");
        assert!(collisions > 0, "adjacent keys must collide: {json}");
    }

    #[test]
    fn zipfian_workload_runs() {
        let t = make_target(Algo::LeapLt, 1, Params::default());
        t.prefill(1_000);
        let wl = Workload::zipfian(Mix::read_dominated(), 1_000, 0.99);
        let cfg = RunCfg {
            threads: 2,
            duration: Duration::from_millis(60),
            repeats: 1,
            seed: 5,
        };
        assert!(run_throughput(&t, &wl, &cfg) > 100.0);
    }
}
