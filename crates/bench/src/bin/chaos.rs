//! Deterministic chaos driver: one seeded run of a mixed workload against
//! a [`leap_store::LeapStore`] with **every fault point armed** —
//! injected stm commit/validation aborts, failing migration chunks and
//! shed batcher admissions — then a convergence and model-equivalence
//! check.
//!
//! ```text
//! chaos [--seed N] [--ops N] [--shards N]
//! ```
//!
//! The run is fully deterministic in `--seed` (workload and fault
//! schedule both derive from it). On success it prints the injector's
//! per-point visit/fire report and the store stats JSON; on divergence
//! it prints the failing seed and exits 1, so CI failures are replayable
//! verbatim.

use leap_bench::rng::Rng64;
use leap_store::{
    Batcher, FaultPlan, FaultPoint, LeapStore, Partitioning, RebalancePolicy, RetryPolicy,
    StoreConfig, StoreError,
};
use std::collections::BTreeMap;
use std::sync::Arc;

const KEY_SPACE: u64 = 100_000;

fn plan_for(seed: u64) -> FaultPlan {
    // Rates are parts-per-million; budgets bound every point so the tail
    // of the run (and the final convergence pass) always terminates.
    FaultPlan::new(seed)
        .with_rate(FaultPoint::StmCommit, 5_000)
        .with_budget(FaultPoint::StmCommit, 500)
        .with_rate(FaultPoint::StmValidate, 5_000)
        .with_budget(FaultPoint::StmValidate, 500)
        .with_rate(FaultPoint::MigrationChunk, 100_000)
        .with_budget(FaultPoint::MigrationChunk, 200)
        .with_rate(FaultPoint::Admission, 50_000)
        .with_budget(FaultPoint::Admission, 200)
}

fn run(seed: u64, ops: u64, shards: usize) -> Result<(), String> {
    let store: Arc<LeapStore<u64>> = Arc::new(LeapStore::new(
        StoreConfig::new(shards, Partitioning::Range)
            .with_key_space(KEY_SPACE)
            .with_rebalancing(RebalancePolicy {
                chunk: 64,
                ..RebalancePolicy::default()
            })
            .with_faults(plan_for(seed)),
    ));
    let batcher = Batcher::new(store.clone()).with_admission(64);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rng = Rng64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let policy = RetryPolicy::default().max_attempts(64);
    let (mut shed, mut timeouts) = (0u64, 0u64);
    for i in 0..ops {
        let key = rng.next_u64() % KEY_SPACE;
        let val = rng.next_u64();
        match rng.next_u64() % 100 {
            // Plain ops ride the store's internal (unbounded) retry: an
            // injected stm fault costs a retry, never an outcome.
            0..=34 => {
                let prev = store.put(key, val);
                if model.insert(key, val) != prev {
                    return Err(format!("put({key}) returned a stale previous value"));
                }
            }
            35..=54 => {
                if store.get(key) != model.get(&key).copied() {
                    return Err(format!("get({key}) diverged from the model"));
                }
            }
            55..=64 => {
                let prev = store.delete(key);
                if model.remove(&key) != prev {
                    return Err(format!("delete({key}) returned a stale value"));
                }
            }
            // Gated ops degrade gracefully: a shed admission reports
            // Overloaded and the op provably did not run.
            65..=79 => match batcher.try_put(key, val) {
                Ok(prev) => {
                    if model.insert(key, val) != prev {
                        return Err(format!("batched put({key}) stale previous value"));
                    }
                }
                Err(StoreError::Overloaded { .. }) => shed += 1,
                Err(e) => return Err(format!("unexpected batcher error: {e}")),
            },
            // Bounded ops trade livelock for a typed Timeout; nothing
            // commits on the timeout path, so the model is untouched.
            80..=89 => match store.bounded(policy, || store.put(key, val)) {
                Ok(prev) => {
                    if model.insert(key, val) != prev {
                        return Err(format!("bounded put({key}) stale previous value"));
                    }
                }
                Err(StoreError::Timeout { .. }) => timeouts += 1,
                Err(e) => return Err(format!("unexpected bounded-op error: {e}")),
            },
            _ => {
                let hi = (key + 1 + rng.next_u64() % 512).min(KEY_SPACE - 1);
                let got = store.range(key, hi);
                let want: Vec<(u64, u64)> = model.range(key..=hi).map(|(k, v)| (*k, *v)).collect();
                if got != want {
                    return Err(format!("range({key}, {hi}) diverged from the model"));
                }
            }
        }
        // Drive resharding (and its injected chunk failures, which the
        // next step retries) from the same deterministic loop.
        if i % 64 == 0 {
            store.rebalance_step();
        }
    }
    // Convergence: every migration completes, because the chunk-fault
    // budget is finite and a failed chunk is retried from its frontier.
    store.rebalance_until_idle();
    if store.router().migration().is_some() {
        return Err("migrations still in flight after rebalance_until_idle".into());
    }
    let got = store.range(0, KEY_SPACE - 1);
    let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    if got != want {
        return Err(format!(
            "final state diverged: store holds {} keys, model {}",
            got.len(),
            want.len()
        ));
    }
    let stats = store.stats();
    println!(
        "chaos: converged — {} keys, epoch {}, {} migrations completed",
        store.len(),
        stats.epoch,
        stats.migrations_completed
    );
    println!("chaos: driver-observed shed={shed} timeouts={timeouts}");
    if let Some(inj) = store.faults() {
        for (name, visits, fires) in inj.report() {
            println!("fault {name}: visits={visits} fires={fires}");
        }
    }
    println!("stats chaos {}", stats.to_json());
    Ok(())
}

fn main() {
    let mut seed = 1u64;
    let mut ops = 50_000u64;
    let mut shards = 4usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut grab = |what: &str| {
            it.next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| {
                    eprintln!("chaos: {what} needs a numeric argument");
                    std::process::exit(2);
                })
        };
        match a.as_str() {
            "--seed" => seed = grab("--seed"),
            "--ops" => ops = grab("--ops"),
            "--shards" => shards = grab("--shards").max(1) as usize,
            "--help" | "-h" => {
                eprintln!("usage: chaos [--seed N] [--ops N] [--shards N]");
                return;
            }
            other => {
                eprintln!("chaos: unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    println!("chaos: seed={seed} ops={ops} shards={shards}");
    if let Err(why) = run(seed, ops, shards) {
        eprintln!("chaos seed {seed} failed: {why}");
        std::process::exit(1);
    }
}
