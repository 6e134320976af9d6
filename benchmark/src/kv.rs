//! The closed-loop key-value workloads (`point_read`, `write_batch`):
//! store construction and preload, the per-thread op loop with its
//! sequential model, and the end-of-run comparison of models and store.
//!
//! The op loop is written against [`Kv`] so the tests can put a faulty
//! wrapper between it and the store and see the checker object.

use crate::check::{partner, value, Checker, Model};
use crate::gen::{below, stream_seed, unit, Mix, OpStream, SplitMix64, Zipf};
use crate::lane::{Lane, SlicePlan, APPLY8, AUDIT, DELETE, GET, GET_EACH, PUT};
use leap_store::{BatchOp, LeapStore, Partitioning, RebalancePolicy, StoreConfig};
use std::sync::Barrier;
use std::time::Instant;

/// Load threads of every workload: this host has 2 cores, and a run never
/// has more runnable threads than cores.
pub const THREADS: u64 = 2;
/// Shards of every `LeapStore<u64>` workload (range-partitioned).
pub const SHARDS: usize = 4;

/// The calls the closed-loop workloads make.
pub trait Kv: Sync {
    fn get(&self, key: u64) -> Option<u64>;
    fn put(&self, key: u64, v: u64) -> Option<u64>;
    fn delete(&self, key: u64) -> Option<u64>;
    fn apply(&self, ops: &[BatchOp<u64>]) -> Vec<Option<u64>>;
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)>;
    fn len(&self) -> usize;
}

impl Kv for LeapStore<u64> {
    fn get(&self, key: u64) -> Option<u64> {
        LeapStore::get(self, key)
    }
    fn put(&self, key: u64, v: u64) -> Option<u64> {
        LeapStore::put(self, key, v)
    }
    fn delete(&self, key: u64) -> Option<u64> {
        LeapStore::delete(self, key)
    }
    fn apply(&self, ops: &[BatchOp<u64>]) -> Vec<Option<u64>> {
        LeapStore::apply(self, ops)
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        LeapStore::range(self, lo, hi)
    }
    fn len(&self) -> usize {
        LeapStore::len(self)
    }
}

/// What distinguishes one closed-loop key-value workload from another.
#[derive(Debug, Clone)]
pub struct KvSpec {
    /// Stream label (keeps the workloads' op streams apart).
    pub label: u64,
    /// Keys are drawn from `[0, key_space)`; a power of two.
    pub key_space: u64,
    /// Preload every key, or a seeded random half.
    pub load_all: bool,
    /// Zipf skew of the key draw (ranks scrambled across the key space),
    /// or uniform.
    pub zipf_theta: Option<f64>,
    pub mix: Mix,
    /// Every `audit_every`-th op is followed by one 64-key `range` around
    /// its key, the read beside the 8-key batches that lets the checker
    /// see a torn batch (0 = never; a workload without batches has
    /// nothing to tear).
    pub audit_every: u64,
}

pub const POINT_READ: KvSpec = KvSpec {
    label: 1,
    key_space: 1 << 16,
    load_all: true,
    zipf_theta: None,
    mix: &[(GET, 95), (PUT, 5)],
    audit_every: 0,
};

pub const WRITE_BATCH: KvSpec = KvSpec {
    label: 2,
    key_space: 1 << 20,
    load_all: false,
    zipf_theta: Some(0.99),
    mix: &[(PUT, 30), (DELETE, 30), (APPLY8, 25), (GET_EACH, 15)],
    audit_every: 512,
};

/// Maps draws to keys for one workload.
pub struct KeyDraw {
    key_space: u64,
    zipf: Option<Zipf>,
}

impl KeyDraw {
    pub fn new(spec: &KvSpec) -> Self {
        assert!(
            spec.key_space.is_power_of_two(),
            "key space must be a power of two"
        );
        KeyDraw {
            key_space: spec.key_space,
            zipf: spec.zipf_theta.map(|t| Zipf::new(spec.key_space, t)),
        }
    }

    /// The key for one raw draw: uniform, or a zipf rank scrambled across
    /// the key space by an odd multiplier (a bijection modulo a power of
    /// two), so the hot keys do not share nodes.
    pub fn key(&self, draw: u64) -> u64 {
        match &self.zipf {
            None => below(draw, self.key_space),
            Some(z) => z.rank(unit(draw)).wrapping_mul(0x9E37_79B1) & (self.key_space - 1),
        }
    }
}

/// The key of `thread`'s parity nearest to `key`.
pub fn own(key: u64, thread: u64) -> u64 {
    key & !1 | thread
}

/// The keys a run preloads, ascending.
pub fn loaded_keys(spec: &KvSpec, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(stream_seed(seed, spec.label, 0xF00D));
    (0..spec.key_space)
        .filter(|_| spec.load_all || rng.next_u64() >> 63 == 0)
        .collect()
}

/// The store configuration of every `LeapStore<u64>` workload: 4 range
/// shards, default `Params` (K = 300), obs on (the shipped default), and
/// a rebalance policy that never acts on its own, so the only migrations
/// are the ones a workload starts.
pub fn store_config(key_space: u64) -> StoreConfig {
    StoreConfig::new(SHARDS, Partitioning::Range)
        .with_key_space(key_space)
        .with_rebalancing(RebalancePolicy {
            split_ratio: 1e12,
            merge_ratio: 0.0,
            max_concurrent_migrations: 1,
            ..RebalancePolicy::default()
        })
}

/// Builds a store and preloads `keys` (ascending) single-threaded, in
/// 128-key batches, with sequence-0 values.
pub fn build_store(config: StoreConfig, keys: &[u64]) -> LeapStore<u64> {
    let store = LeapStore::new(config);
    let mut batch = Vec::with_capacity(128);
    for chunk in keys.chunks(128) {
        batch.clear();
        batch.extend(chunk.iter().map(|&k| (k, value(k, false, 0))));
        store.multi_put(&batch);
    }
    store
}

/// One thread's state after a run.
pub struct ThreadOutcome {
    pub lane: Lane,
    pub model: Model,
    pub checker: Checker,
}

/// The models of a freshly preloaded store.
pub fn preload_models(key_space: u64, loaded: &[u64]) -> Vec<Model> {
    let mut models: Vec<Model> = (0..THREADS).map(|t| Model::new(t, key_space)).collect();
    for &k in loaded {
        models[(k % 2) as usize].put(k, value(k, false, 0));
    }
    models
}

/// The 8 ops of one batch: 4 puts of distinct own keys stamped with one
/// sequence number, each beside the delete of its [`partner`].
pub fn batch_ops(draw: &KeyDraw, thread: u64, seed: u64, seq: u64) -> Vec<BatchOp<u64>> {
    let mut rng = SplitMix64::new(seed);
    let mut ops: Vec<BatchOp<u64>> = Vec::with_capacity(8);
    let mut bases = [u64::MAX; 4];
    let mut n = 0;
    while n < 4 {
        let base = own(draw.key(rng.next_u64()), thread);
        if bases[..n].iter().any(|&b| b == base || b == partner(base)) {
            continue;
        }
        bases[n] = base;
        n += 1;
        ops.push(BatchOp::Update(base, value(base, true, seq)));
        ops.push(BatchOp::Remove(partner(base)));
    }
    ops
}

/// Runs `spec`'s closed loop on `store` with [`THREADS`] threads through
/// every slice of `plan`.
pub fn run_closed<S: Kv>(
    store: &S,
    spec: &KvSpec,
    models: Vec<Model>,
    seed: u64,
    plan: &SlicePlan,
) -> Vec<ThreadOutcome> {
    let draw = KeyDraw::new(spec);
    let clock = Instant::now();
    let barrier = Barrier::new(models.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = models
            .into_iter()
            .enumerate()
            .map(|(t, mut model)| {
                let (draw, barrier) = (&draw, &barrier);
                scope.spawn(move || {
                    crate::sys::pin_thread(t);
                    let t = t as u64;
                    let mut lane = Lane::new(t as u8, clock);
                    let mut checker = Checker::default();
                    let mut stream = OpStream::new(seed, spec.label, t, spec.mix);
                    barrier.wait();
                    lane.run_closed(plan, clock, |lane| {
                        one_op(
                            store,
                            spec,
                            draw,
                            &mut stream,
                            &mut model,
                            &mut checker,
                            lane,
                        );
                    });
                    ThreadOutcome {
                        lane,
                        model,
                        checker,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            // INVARIANT: a load thread panics only on a bug in this
            // benchmark or a crash in the store; either must stop the run.
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

fn one_op<S: Kv>(
    store: &S,
    spec: &KvSpec,
    draw: &KeyDraw,
    stream: &mut OpStream,
    model: &mut Model,
    checker: &mut Checker,
    lane: &mut Lane,
) {
    let op = stream.next_op();
    let thread = u64::from(lane.thread);
    let key = draw.key(op.a);
    lane.begin_op();
    checker.attempted += 1;
    match op.kind {
        GET | GET_EACH => {
            let got = lane.call(op.kind, || store.get(key));
            if model.owns(key) {
                checker.previous("get", key, got, model.get(key));
            } else {
                checker.get(key, got);
            }
        }
        PUT => {
            let key = own(key, thread);
            model.seq += 1;
            let v = value(key, false, model.seq);
            let got = lane.call(PUT, || store.put(key, v));
            checker.previous("put", key, got, model.put(key, v));
        }
        DELETE => {
            let key = own(key, thread);
            model.seq += 1;
            let got = lane.call(DELETE, || store.delete(key));
            checker.previous("delete", key, got, model.delete(key));
        }
        _ => {
            model.seq += 1;
            let ops = batch_ops(draw, thread, op.b, model.seq);
            let got = lane.call(APPLY8, || store.apply(&ops));
            if got.len() != ops.len() {
                checker.fail(format!(
                    "apply of {} ops returned {} results",
                    ops.len(),
                    got.len()
                ));
            }
            for (op, got) in ops.iter().zip(got) {
                match *op {
                    BatchOp::Update(k, v) => checker.previous("apply put", k, got, model.put(k, v)),
                    BatchOp::Remove(k) => checker.previous("apply delete", k, got, model.delete(k)),
                };
            }
        }
    }
    lane.end_op(op.kind);
    if spec.audit_every != 0 && lane.op_id().is_multiple_of(spec.audit_every) {
        let (lo, hi) = (key.saturating_sub(32), (key + 31).min(spec.key_space - 1));
        lane.begin_op();
        checker.attempted += 1;
        let got = lane.call(AUDIT, || store.range(lo, hi));
        checker.range("range", lo, hi, &got);
        lane.end_op(AUDIT);
    }
}

/// End of run: every thread's model equals the store on its own keys and
/// `len()` equals the models' sum. Each differing key is a failed op.
pub fn verify<S: Kv>(store: &S, key_space: u64, models: &[&Model], checker: &mut Checker) {
    const PAGE: u64 = 1 << 14;
    let mut expected: Vec<_> = models.iter().map(|m| m.entries().peekable()).collect();
    for lo in (0..key_space).step_by(PAGE as usize) {
        let hi = lo + PAGE - 1;
        let got = store.range(lo, hi);
        checker.range("final range", lo, hi, &got);
        for (k, v) in got {
            let model = &mut expected[(k % 2) as usize];
            while model.peek().is_some_and(|e| e.0 < k) {
                // INVARIANT: `peek` just returned `Some`.
                let (missing, _) = model.next().expect("peeked entry");
                checker.fail(format!(
                    "final: key {missing} is in its writer's model, not in the store"
                ));
            }
            match model.peek() {
                Some(&(mk, mv)) if mk == k => {
                    if mv != v {
                        checker.fail(format!(
                            "final: key {k} holds {v:#x}, its writer's model {mv:#x}"
                        ));
                    }
                    model.next();
                }
                _ => checker.fail(format!(
                    "final: key {k} is in the store, not in its writer's model"
                )),
            }
        }
    }
    for model in &mut expected {
        for (missing, _) in model {
            checker.fail(format!(
                "final: key {missing} is in its writer's model, not in the store"
            ));
        }
    }
    let live: usize = models.iter().map(|m| m.live).sum();
    if store.len() != live {
        checker.fail(format!(
            "final: len() is {}, the models hold {live}",
            store.len()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    const SMALL: KvSpec = KvSpec {
        label: 9,
        key_space: 1 << 10,
        load_all: false,
        zipf_theta: Some(0.99),
        mix: &[(PUT, 30), (DELETE, 30), (APPLY8, 25), (GET_EACH, 15)],
        audit_every: 8,
    };

    fn plan() -> SlicePlan {
        SlicePlan {
            warmup: 0,
            measured: 2,
            slice: Duration::from_millis(30),
            trace: false,
        }
    }

    /// Runs the small workload through `wrap(store)` and returns the
    /// merged checker, end-of-run comparison included.
    fn run_through<W: Kv>(wrap: impl FnOnce(LeapStore<u64>) -> W) -> Checker {
        let loaded = loaded_keys(&SMALL, 5);
        let store = wrap(build_store(store_config(SMALL.key_space), &loaded));
        let models = preload_models(SMALL.key_space, &loaded);
        let out = run_closed(&store, &SMALL, models, 5, &plan());
        let mut checker = Checker::default();
        for t in &out {
            checker.merge(&t.checker);
        }
        let models: Vec<&Model> = out.iter().map(|t| &t.model).collect();
        verify(&store, SMALL.key_space, &models, &mut checker);
        checker
    }

    /// Passes every call through, misbehaving once where `fault` says.
    struct Faulty {
        inner: LeapStore<u64>,
        fault: Fault,
        calls: AtomicU64,
    }

    #[derive(PartialEq)]
    enum Fault {
        None,
        DropOnePut,
        UnsortedRange,
        TearBatches,
    }

    impl Faulty {
        fn nth_call(&self) -> u64 {
            self.calls.fetch_add(1, Ordering::SeqCst)
        }
    }

    impl Kv for Faulty {
        fn get(&self, key: u64) -> Option<u64> {
            self.inner.get(key)
        }
        fn put(&self, key: u64, v: u64) -> Option<u64> {
            if self.fault == Fault::DropOnePut && self.nth_call() == 10 {
                return self.inner.get(key);
            }
            self.inner.put(key, v)
        }
        fn delete(&self, key: u64) -> Option<u64> {
            self.inner.delete(key)
        }
        fn apply(&self, ops: &[BatchOp<u64>]) -> Vec<Option<u64>> {
            if self.fault == Fault::TearBatches {
                // Commit the first put apart from the delete beside it.
                let mut out = self.inner.apply(&ops[..1]);
                std::thread::yield_now();
                out.extend(self.inner.apply(&ops[1..]));
                return out;
            }
            self.inner.apply(ops)
        }
        fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
            let mut got = self.inner.range(lo, hi);
            if self.fault == Fault::UnsortedRange && got.len() >= 2 && self.nth_call() == 3 {
                got.swap(0, 1);
            }
            got
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    fn faulty(fault: Fault) -> impl FnOnce(LeapStore<u64>) -> Faulty {
        move |inner| Faulty {
            inner,
            fault,
            calls: AtomicU64::new(0),
        }
    }

    #[test]
    fn a_correct_store_passes() {
        let c = run_through(faulty(Fault::None));
        assert!(c.attempted > 100);
        assert_eq!((c.failed, c.first), (0, None));
    }

    #[test]
    fn a_dropped_put_is_reported() {
        let c = run_through(faulty(Fault::DropOnePut));
        assert!(c.failed > 0, "a lost put must fail the run");
    }

    #[test]
    fn an_unsorted_range_is_reported() {
        let c = run_through(faulty(Fault::UnsortedRange));
        assert!(c.first.is_some_and(|m| m.contains("not ascending")));
    }

    #[test]
    fn a_torn_batch_is_reported() {
        // A reader has to land between the two halves; with audits every
        // 8 ops on 1024 zipf keys that happens within a few runs.
        let torn = (0..20).any(|_| {
            run_through(faulty(Fault::TearBatches))
                .first
                .is_some_and(|m| m.contains("torn batch"))
        });
        assert!(torn, "no audit range saw a torn batch");
    }

    #[test]
    fn batches_hold_four_distinct_puts_beside_their_partners() {
        let draw = KeyDraw::new(&SMALL);
        for seed in 0..200 {
            let ops = batch_ops(&draw, 1, seed, 7);
            let mut keys: Vec<u64> = ops
                .iter()
                .map(|op| match *op {
                    BatchOp::Update(k, v) => {
                        assert_eq!(v, value(k, true, 7));
                        k
                    }
                    BatchOp::Remove(k) => k,
                })
                .collect();
            assert!(keys.iter().all(|k| k % 2 == 1));
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), 8, "8 distinct keys");
        }
    }

    #[test]
    fn zipf_keys_are_scrambled_over_the_key_space() {
        let draw = KeyDraw::new(&WRITE_BATCH);
        let mut rng = SplitMix64::new(1);
        let keys: Vec<u64> = (0..1000).map(|_| draw.key(rng.next_u64())).collect();
        assert!(keys.iter().all(|&k| k < WRITE_BATCH.key_space));
        let upper_half = keys
            .iter()
            .filter(|&&k| k >= WRITE_BATCH.key_space / 2)
            .count();
        assert!(
            (300..700).contains(&upper_half),
            "hot ranks land on both halves"
        );
    }
}
