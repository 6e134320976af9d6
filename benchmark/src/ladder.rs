//! The layer ladder: a single-threaded replay of the first 65 536 keys of
//! a workload's own stream against that workload's own populated store,
//! calling each layer's public function in turn and timing every call
//! from outside.
//!
//! `X_ns` rows are the p50 of per-call times less the p50 cost of the
//! timer itself. `X_self_ns` rows are the p50 of per-key differences
//! between a call and the call one layer down on the same key and shard,
//! taken back to back in alternating order after an untimed touch of the
//! key, so the data the lower layer fetches is equally warm for both and
//! what remains is the upper layer's own work.

use crate::kv::{batch_ops, build_store, store_config, KeyDraw, KvSpec};
use crate::stats::{median, percentile_of, Metric};
use leap_memdb::{RowId, Table};
use leap_stm::{StmDomain, TVar, Txn};
use leap_store::{BatchOp, Batcher, LeapStore, Subspace};
use leaplist::LeapListLt;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls timed per sub-microsecond row.
pub const LIGHT: usize = 1 << 16;
/// Calls timed per microsecond-scale row.
pub const HEAVY: usize = 1 << 12;

fn time_ns(f: impl FnOnce()) -> u32 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32
}

fn each(n: usize, mut f: impl FnMut(usize)) -> Vec<u32> {
    (0..n).map(|i| time_ns(|| f(i))).collect()
}

/// Per-call times of two calls made back to back on the same input, in
/// alternating order, each after `prep` on that input.
struct Paired {
    upper: Vec<u32>,
    lower: Vec<u32>,
    diff: Vec<f64>,
}

fn paired<T>(
    n: usize,
    mut prep: impl FnMut(usize) -> T,
    mut upper: impl FnMut(&mut T),
    mut lower: impl FnMut(&mut T),
) -> Paired {
    let mut out = Paired {
        upper: Vec::with_capacity(n),
        lower: Vec::with_capacity(n),
        diff: Vec::with_capacity(n),
    };
    for i in 0..n {
        let (u, l);
        if i % 2 == 0 {
            let mut t = prep(i);
            u = time_ns(|| upper(&mut t));
            let mut t = prep(i);
            l = time_ns(|| lower(&mut t));
        } else {
            let mut t = prep(i);
            l = time_ns(|| lower(&mut t));
            let mut t = prep(i);
            u = time_ns(|| upper(&mut t));
        }
        out.upper.push(u);
        out.lower.push(l);
        out.diff.push(f64::from(u) - f64::from(l));
    }
    out
}

/// Collects ladder rows; absolute rows have the timer's own cost removed.
struct Rows {
    timer_ns: f64,
    out: Vec<Metric>,
}

impl Rows {
    fn new() -> Self {
        let timer_ns = percentile_of(&mut each(LIGHT, |_| ()), 0.5);
        Rows {
            timer_ns,
            out: Vec::new(),
        }
    }

    fn abs(&mut self, name: &'static str, mut samples: Vec<u32>) {
        let value = (percentile_of(&mut samples, 0.5) - self.timer_ns).max(0.0);
        self.out.push(Metric {
            name,
            value,
            unit: "ns",
            samples: samples.len() as u64,
        });
    }

    fn diff(&mut self, name: &'static str, diffs: Vec<f64>) {
        self.out.push(Metric {
            name,
            value: median(&diffs),
            unit: "ns",
            samples: diffs.len() as u64,
        });
    }

    fn ratio(&mut self, name: &'static str, value: f64, samples: u64) {
        self.out.push(Metric {
            name,
            value,
            unit: "ratio",
            samples,
        });
    }
}

fn shard_of(store: &LeapStore<u64>, key: u64) -> Arc<LeapListLt<u64>> {
    store.shard(store.router().shard_of(key))
}

/// Gets per second of `threads` threads replaying `keys` for `run`.
fn gets_per_s(store: &LeapStore<u64>, keys: &[u64], threads: usize, run: Duration) -> f64 {
    let total: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    // The ladder's thread is pinned and its mask inherited.
                    crate::sys::pin_thread(t);
                    let t0 = Instant::now();
                    let mut done = 0u64;
                    let mut i = t * keys.len() / threads;
                    while t0.elapsed() < run {
                        for _ in 0..256 {
                            black_box(store.get(keys[i % keys.len()]));
                            i += 1;
                        }
                        done += 256;
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            // INVARIANT: the closure above cannot panic short of a store crash.
            .map(|h| h.join().expect("get thread"))
            .sum()
    });
    total as f64 / run.as_secs_f64()
}

/// The ladder of a `LeapStore<u64>` workload. Runs after the end-of-run
/// comparison, because it writes to the store.
pub fn kv_ladder(store: &Arc<LeapStore<u64>>, spec: &KvSpec, seed: u64) -> Vec<Metric> {
    let draw = KeyDraw::new(spec);
    let mut stream = crate::gen::OpStream::new(seed, spec.label, 0, spec.mix);
    let keys: Vec<u64> = (0..LIGHT).map(|_| draw.key(stream.next_op().a)).collect();
    let top = spec.key_space - 1;
    let v = |k: u64, i: usize| crate::check::value(k, false, i as u64);
    let mut rows = Rows::new();

    // stm: a bare transaction on a private domain.
    let domain = StmDomain::new();
    let cell = TVar::new(0u64);
    rows.abs(
        "stm.txn_ro_1r_ns",
        each(LIGHT, |_| {
            let mut tx = Txn::begin(&domain);
            black_box(tx.read(&cell).ok());
            black_box(tx.commit().ok());
        }),
    );
    rows.abs(
        "stm.txn_1w_ns",
        each(LIGHT, |i| {
            let mut tx = Txn::begin(&domain);
            black_box(tx.write(&cell, i as u64).ok());
            black_box(tx.commit().ok());
        }),
    );

    // ebr: pin + unpin, and one deferral under a guard pinned for it (as
    // an op does; a guard held across deferrals would block reclamation).
    rows.abs(
        "ebr.pin_ns",
        each(LIGHT, |_| drop(black_box(leap_ebr::pin()))),
    );
    rows.abs(
        "ebr.defer_ns",
        (0..LIGHT)
            .map(|_| {
                let guard = leap_ebr::pin();
                time_ns(|| guard.defer(|| ()))
            })
            .collect(),
    );

    // router.
    let router = store.router();
    rows.abs(
        "router.shard_of_ns",
        each(LIGHT, |i| {
            black_box(router.shard_of(keys[i]));
        }),
    );
    rows.abs(
        "router.shards_for_range_ns",
        each(LIGHT, |i| {
            black_box(router.shards_for_range(keys[i], (keys[i] + 400).min(top)));
        }),
    );

    // Point reads: one pass per layer over the stream (each key as cold as
    // the workload finds it), then the warm pairs for the store's own time.
    let lists: Vec<Arc<LeapListLt<u64>>> = keys.iter().map(|&k| shard_of(store, k)).collect();
    rows.abs(
        "leaplist.lookup_ns",
        each(LIGHT, |i| {
            black_box(lists[i].lookup(keys[i]));
        }),
    );
    rows.abs(
        "store.get_ns",
        each(LIGHT, |i| {
            black_box(store.get(keys[i]));
        }),
    );
    let p = paired(
        LIGHT,
        |i| {
            black_box(lists[i].lookup(keys[i]));
            i
        },
        |&mut i| {
            black_box(store.get(keys[i]));
        },
        |&mut i| {
            black_box(lists[i].lookup(keys[i]));
        },
    );
    rows.diff("store.get_self_ns", p.diff);

    // Single-key writes; the key is present before every timed call, so
    // both layers overwrite.
    let present = |i: usize| {
        store.put(keys[i], v(keys[i], i));
        i
    };
    let p = paired(
        HEAVY,
        present,
        |&mut i| {
            black_box(store.put(keys[i], v(keys[i], i + 1)));
        },
        |&mut i| {
            black_box(lists[i].update(keys[i], v(keys[i], i + 2)));
        },
    );
    rows.abs("store.put_ns", p.upper);
    rows.abs("leaplist.update_ns", p.lower);
    rows.diff("store.put_self_ns", p.diff);
    let p = paired(
        HEAVY,
        present,
        |&mut i| {
            black_box(store.delete(keys[i]));
        },
        |&mut i| {
            black_box(lists[i].remove(keys[i]));
        },
    );
    rows.abs("store.delete_ns", p.upper);
    rows.abs("leaplist.remove_ns", p.lower);

    // 8-key batches (4 puts + 4 deletes), every key present beforehand;
    // the list-level call gets the ops already grouped by shard.
    type Grouped = (
        Vec<BatchOp<u64>>,
        Vec<Arc<LeapListLt<u64>>>,
        Vec<Vec<BatchOp<u64>>>,
    );
    let p = paired(
        HEAVY,
        |i| -> Grouped {
            let ops = batch_ops(&draw, 0, keys[i], i as u64);
            let mut shards: Vec<usize> = Vec::new();
            let mut grouped: Vec<Vec<BatchOp<u64>>> = Vec::new();
            for op in &ops {
                let key = match *op {
                    BatchOp::Update(k, _) | BatchOp::Remove(k) => k,
                };
                store.put(key, v(key, i));
                let s = router.shard_of(key);
                let at = shards.iter().position(|&x| x == s).unwrap_or_else(|| {
                    shards.push(s);
                    grouped.push(Vec::new());
                    shards.len() - 1
                });
                grouped[at].push(op.clone());
            }
            (
                ops,
                shards.iter().map(|&s| store.shard(s)).collect(),
                grouped,
            )
        },
        |t| {
            black_box(store.apply(&t.0));
        },
        |t| {
            let lists: Vec<&LeapListLt<u64>> = t.1.iter().map(|l| &**l).collect();
            let ops: Vec<&[BatchOp<u64>]> = t.2.iter().map(Vec::as_slice).collect();
            black_box(LeapListLt::apply_batch_grouped(&lists, &ops));
        },
    );
    rows.abs("store.apply8_ns", p.upper);
    rows.abs("leaplist.apply8_ns", p.lower);
    rows.diff("store.apply8_self_ns", p.diff);

    // Ranges of about 200 keys, and 256-key pages.
    let span = |i: usize| (keys[i].min(top - 400), keys[i].min(top - 400) + 400);
    let p = paired(
        HEAVY,
        |i| i,
        |&mut i| {
            black_box(store.range(span(i).0, span(i).1));
        },
        |&mut i| {
            black_box(lists[i].range_query(span(i).0, span(i).1));
        },
    );
    rows.abs("store.range200_ns", p.upper);
    rows.abs("leaplist.range200_ns", p.lower);
    rows.diff("store.range_self_ns", p.diff);
    let scan = |i: usize| (keys[i].min(top - 4000), keys[i].min(top - 4000) + 4000);
    rows.abs(
        "cursor.page256_ns",
        each(HEAVY, |i| {
            black_box(store.scan_pages(scan(i).0, scan(i).1, 256).next_page());
        }),
    );
    let p = paired(
        HEAVY,
        |i| {
            let (lo, hi) = scan(i);
            (
                store.scan_snapshot_pages(lo, hi, 256),
                lists[i].pin_snapshot(),
                i,
            )
        },
        |t| {
            black_box(t.0.next_page());
        },
        |t| {
            let (lo, hi) = scan(t.2);
            black_box(lists[t.2].snapshot_page(&t.1, lo, hi, 256));
        },
    );
    rows.abs("cursor.snapshot_page256_ns", p.upper);
    rows.abs("leaplist.snapshot_page256_ns", p.lower);
    rows.diff("cursor.snapshot_page_self_ns", p.diff);

    // batcher over the store, one submitter.
    let batcher = Batcher::new(store.clone()).with_admission(crate::open::ADMISSION);
    let p = paired(
        HEAVY,
        present,
        |&mut i| {
            black_box(batcher.try_put(keys[i], v(keys[i], i + 1)).ok());
        },
        |&mut i| {
            black_box(store.put(keys[i], v(keys[i], i + 2)));
        },
    );
    rows.abs("batcher.put_ns", p.upper);
    rows.diff("batcher.put_self_ns", p.diff);

    // Shared-line cost of a get: 2 threads against twice 1 thread.
    let run = Duration::from_millis(200);
    let one = gets_per_s(store, &keys, 1, run);
    let two = gets_per_s(store, &keys, 2, run);
    rows.ratio(
        "store.get_scaling_2t",
        two / (2.0 * one),
        (one * 0.2) as u64,
    );

    // obs: the same calls on two fresh stores of this store's contents,
    // built alike but for `with_obs`.
    let contents: Vec<u64> = (0..spec.key_space)
        .step_by(1 << 14)
        .flat_map(|lo| store.range(lo, lo + (1 << 14) - 1))
        .map(|e| e.0)
        .collect();
    let on = build_store(store_config(spec.key_space), &contents);
    let off = build_store(store_config(spec.key_space).with_obs(false), &contents);
    let p = paired(
        LIGHT,
        |i| {
            black_box((on.get(keys[i]), off.get(keys[i])));
            i
        },
        |&mut i| {
            black_box(on.get(keys[i]));
        },
        |&mut i| {
            black_box(off.get(keys[i]));
        },
    );
    rows.diff("obs.get_cost_ns", p.diff);
    let p = paired(
        HEAVY,
        |i| {
            on.put(keys[i], v(keys[i], i));
            off.put(keys[i], v(keys[i], i));
            i
        },
        |&mut i| {
            black_box(on.put(keys[i], v(keys[i], i + 1)));
        },
        |&mut i| {
            black_box(off.put(keys[i], v(keys[i], i + 1)));
        },
    );
    rows.diff("obs.put_cost_ns", p.diff);
    rows.out
}

/// The ladder of `memdb_oltp`: the table's calls over `live` row ids, and
/// the table's own share of a get against `LeapStore::get` on the row's
/// primary key.
pub fn memdb_ladder(table: &Table, live: &[u64], seed: u64) -> Vec<Metric> {
    let mut rows = Rows::new();
    let mut rng =
        crate::gen::SplitMix64::new(crate::gen::stream_seed(seed, crate::memdb::LABEL, 7));
    let ids: Vec<u64> = (0..LIGHT)
        .map(|_| live[rng.below(live.len() as u64) as usize])
        .collect();
    let primary = Subspace::new(0);
    if let Some(store) = table.store() {
        rows.abs(
            "store.get_ns",
            each(LIGHT, |i| {
                black_box(store.get(primary.key(ids[i])));
            }),
        );
        let p = paired(
            LIGHT,
            |i| {
                black_box(store.get(primary.key(ids[i])));
                i
            },
            |&mut i| {
                black_box(table.get(RowId(ids[i])));
            },
            |&mut i| {
                black_box(store.get(primary.key(ids[i])));
            },
        );
        rows.diff("memdb.get_self_ns", p.diff);
    }
    rows.abs(
        "memdb.get_ns",
        each(LIGHT, |i| {
            black_box(table.get(RowId(ids[i])));
        }),
    );
    rows.abs(
        "memdb.update_column_ns",
        each(HEAVY, |i| {
            black_box(
                table
                    .update_column(RowId(ids[i]), "a", rng.below(crate::memdb::A_SPACE))
                    .ok(),
            );
        }),
    );
    let mut inserted = Vec::with_capacity(HEAVY);
    let mut rng = crate::gen::SplitMix64::new(seed);
    rows.abs(
        "memdb.insert_ns",
        each(HEAVY, |_| {
            let row = [rng.below(crate::memdb::A_SPACE), rng.below(1 << 27), 0];
            inserted.extend(table.insert(&row).ok());
        }),
    );
    for id in inserted {
        // Untimed: keeps the table at its size for the scans below.
        black_box(table.delete(id).ok());
    }
    rows.abs(
        "memdb.scan_by100_ns",
        each(HEAVY, |_| {
            let lo = rng.below(crate::memdb::A_SPACE - crate::memdb::SCAN_SPAN);
            black_box(table.scan_by("a", lo, lo + crate::memdb::SCAN_SPAN).ok());
        }),
    );
    rows.out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_alternates_order_and_differences_line_up() {
        let mut order = Vec::new();
        let log = std::cell::RefCell::new(&mut order);
        let p = paired(
            4,
            |i| i,
            |_| log.borrow_mut().push('u'),
            |_| log.borrow_mut().push('l'),
        );
        assert_eq!(order, ['u', 'l', 'l', 'u', 'u', 'l', 'l', 'u']);
        assert_eq!(p.diff.len(), 4);
        for i in 0..4 {
            assert_eq!(p.diff[i], f64::from(p.upper[i]) - f64::from(p.lower[i]));
        }
    }

    #[test]
    fn self_time_of_a_wrapper_is_what_it_adds() {
        let spin = |us: u64| {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_micros(us) {
                std::hint::spin_loop();
            }
        };
        let p = paired(200, |i| i, |_| spin(30), |_| spin(10));
        let mut rows = Rows::new();
        rows.diff("x_self_ns", p.diff);
        rows.abs("x_ns", p.upper);
        assert!(
            (15_000.0..25_000.0).contains(&rows.out[0].value),
            "{:?}",
            rows.out[0]
        );
        assert!(
            (29_000.0..40_000.0).contains(&rows.out[1].value),
            "{:?}",
            rows.out[1]
        );
    }
}
