//! The per-shard statistics surface: operation counters kept by the store,
//! per-shard key counts and interval ownership (the signals the rebalancer
//! acts on), routing-epoch and migration progress, plus the transaction
//! commit/abort counters re-exported from the shared `leap_stm` domain.
//!
//! Rendered through the `leap_obs` JSON emitter ([`StoreStats::to_json`])
//! or as Prometheus text ([`StoreStats::to_prometheus`]); when the store's
//! observability instruments are enabled the snapshot additionally carries
//! per-op-kind latency histograms, the per-transaction retry histogram and
//! the migration/drain event timeline, and the Prometheus page carries
//! every instrument series as the store's registry renders it.

use crate::obs::ObsSnapshot;
use crate::router::MigrationView;
use leap_obs::Json;
use leap_stm::StatsSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};

/// One stripe of a shard's live operation counters. A whole row sits on
/// its own cache-line pair, so threads on different stripes never write a
/// line another thread uses.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct CounterRow {
    pub gets: AtomicU64,
    pub puts: AtomicU64,
    pub deletes: AtomicU64,
    pub ranges: AtomicU64,
    /// Components of multi-key batches applied to this shard.
    pub batch_parts: AtomicU64,
}

impl CounterRow {
    pub(crate) fn bump(counter: &AtomicU64) {
        // ORDERING: monotonic stat counter; no publication rides on it.
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Live operation counters for one shard: one [`CounterRow`] per
/// [`leap_obs::STRIPES`] stripe, each thread bumping the row
/// [`leap_obs::stripe_of`] assigns it (relaxed atomics; advisory while
/// operations run, exact at quiescence).
#[derive(Debug)]
pub(crate) struct ShardCounters {
    rows: [CounterRow; leap_obs::STRIPES],
}

impl Default for ShardCounters {
    fn default() -> Self {
        ShardCounters {
            rows: std::array::from_fn(|_| CounterRow::default()),
        }
    }
}

impl ShardCounters {
    /// The calling thread's row.
    #[inline]
    pub(crate) fn row(&self) -> &CounterRow {
        &self.rows[leap_obs::stripe_of()]
    }

    pub(crate) fn snapshot(&self, shard: usize, keys: u64, owned: bool) -> ShardStats {
        // ORDERING: monotonic stat counters; a snapshot only needs
        // eventually-consistent values.
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let sum = |pick: fn(&CounterRow) -> &AtomicU64| self.rows.iter().map(|r| ld(pick(r))).sum();
        ShardStats {
            shard,
            gets: sum(|r| &r.gets),
            puts: sum(|r| &r.puts),
            deletes: sum(|r| &r.deletes),
            ranges: sum(|r| &r.ranges),
            batch_parts: sum(|r| &r.batch_parts),
            keys,
            owned,
        }
    }
}

/// A point-in-time copy of one shard's operation counters and load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Point lookups routed here.
    pub gets: u64,
    /// Single-key puts routed here.
    pub puts: u64,
    /// Single-key deletes routed here.
    pub deletes: u64,
    /// Range queries that visited this shard.
    pub ranges: u64,
    /// Multi-key batch components applied to this shard.
    pub batch_parts: u64,
    /// Keys currently held (approximate while operations run).
    pub keys: u64,
    /// Whether the shard owns a key interval in the current routing
    /// epoch (false for slots a merge emptied that no split has reused
    /// yet).
    pub owned: bool,
}

impl ShardStats {
    /// All operations that touched this shard.
    pub fn total_ops(&self) -> u64 {
        self.gets + self.puts + self.deletes + self.ranges + self.batch_parts
    }
}

/// A point-in-time statistics snapshot for a whole store.
///
/// `stm` aggregates the **shared** transactional domain: cross-shard
/// atomicity requires every shard to run on one domain, so commit/abort
/// counts are store-wide by construction (a per-shard abort count would
/// claim a precision the substrate cannot provide).
#[derive(Debug, Clone, Default)]
pub struct StoreStats {
    /// Per-shard operation counters and key counts.
    pub shards: Vec<ShardStats>,
    /// Commit/abort counters of the shared STM domain.
    pub stm: StatsSnapshot,
    /// Batches that mapped at least two keys to one shard. These commit
    /// through the same single multi-list transaction as any other batch
    /// (the multi-op chain rebuild); the counter tracks how collision-heavy
    /// the workload is.
    pub collision_batches: u64,
    /// Current routing-table version (0 until the first completed split
    /// or merge).
    pub epoch: u64,
    /// The in-flight migration (`None` when no reshard is running).
    pub migration: Option<MigrationView>,
    /// 1 once any migration has begun (in flight or completed), else 0. Kept only because `benchmark/` reports it as
    /// `rebalance.peak_concurrent`: the store runs one migration at a
    /// time, so there is no concurrency to measure.
    pub peak_concurrent_migrations: u64,
    /// Migrations (splits and merges) completed since construction.
    pub migrations_completed: u64,
    /// Always 0: a migration only ends by completing. Kept only because
    /// `benchmark/` reports it as `rebalance.aborted_migrations`; no
    /// rendering of the stats includes it.
    pub aborted_migrations: u64,
    /// Operations refused by the batcher's admission gate, at its bound or
    /// by an injected `admission` fault; each surfaced to its caller as
    /// [`crate::StoreError::Overloaded`].
    pub shed_ops: u64,
    /// Snapshot-isolated scans started ([`crate::LeapStore::scan_snapshot`]
    /// cursors pinned) since construction.
    pub snapshot_scans: u64,
    /// High-water mark of any shard's level-0 version-bundle depth: 1 when
    /// no commit ever ran under a live snapshot pin; bounded by
    /// commits-per-pin-lifetime (bundles prune back on append once the
    /// pin drops).
    pub bundle_depth: u64,
    /// Instrument snapshot (latency histograms, retry histogram, event
    /// timeline) when the store was built with observability enabled.
    pub obs: Option<ObsSnapshot>,
}

impl StoreStats {
    /// Aborts per committed transaction (0.0 when nothing committed) — the
    /// contention signal the evaluation tracks.
    pub fn abort_rate(&self) -> f64 {
        let commits = self.stm.total_commits();
        if commits == 0 {
            0.0
        } else {
            self.stm.total_aborts() as f64 / commits as f64
        }
    }

    /// Key-count spread over interval-owning shards: `max keys − min
    /// keys`. The balance signal the rebalancer narrows; 0 when fewer
    /// than two shards own intervals.
    pub fn key_spread(&self) -> u64 {
        let owned = self.shards.iter().filter(|s| s.owned);
        match (
            owned.clone().map(|s| s.keys).max(),
            owned.map(|s| s.keys).min(),
        ) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        }
    }

    /// Relative key-count spread over interval-owning shards: the hottest
    /// shard's key count divided by the mean (`1.0` = perfectly even).
    ///
    /// Defined on every input — no `NaN` and no division by zero: an
    /// empty store (every owned shard at 0 keys), a store with no owned
    /// slots at all, and a layout whose only populated slot was emptied
    /// by a merge (`owned == false`, excluded from the census) all
    /// report `1.0`, the "nothing to narrow" value.
    pub fn key_spread_ratio(&self) -> f64 {
        let owned: Vec<u64> = self
            .shards
            .iter()
            .filter(|s| s.owned)
            .map(|s| s.keys)
            .collect();
        let total: u64 = owned.iter().sum();
        if owned.is_empty() || total == 0 {
            return 1.0;
        }
        // INVARIANT: the empty case returned 1.0 just above.
        let max = *owned.iter().max().expect("non-empty") as f64;
        max / (total as f64 / owned.len() as f64)
    }

    /// The snapshot as a `leap_obs` JSON tree — see
    /// [`StoreStats::to_json`] for the field contract.
    pub fn to_json_value(&self) -> Json {
        let shards: Vec<Json> = self
            .shards
            .iter()
            .map(|s| {
                Json::obj()
                    .field("shard", Json::U64(s.shard as u64))
                    .field("gets", Json::U64(s.gets))
                    .field("puts", Json::U64(s.puts))
                    .field("deletes", Json::U64(s.deletes))
                    .field("ranges", Json::U64(s.ranges))
                    .field("batch_parts", Json::U64(s.batch_parts))
                    .field("keys", Json::U64(s.keys))
                    .field("owned", Json::Bool(s.owned))
            })
            .collect();
        let stm = Json::obj()
            .field("commits", Json::U64(self.stm.commits))
            .field("read_only_commits", Json::U64(self.stm.read_only_commits))
            .field("conflict_aborts", Json::U64(self.stm.conflict_aborts))
            .field("explicit_aborts", Json::U64(self.stm.explicit_aborts))
            .field(
                "conflict_read_aborts",
                Json::U64(self.stm.conflict_read_aborts),
            )
            .field(
                "conflict_commit_aborts",
                Json::U64(self.stm.conflict_commit_aborts),
            )
            .field("timeouts", Json::U64(self.stm.timeouts));
        let mut out = Json::obj()
            .field("shards", Json::Arr(shards))
            .field("stm", stm)
            .field("collision_batches", Json::U64(self.collision_batches))
            .field("abort_rate", Json::fixed(self.abort_rate(), 6))
            .field("epoch", Json::U64(self.epoch))
            .field("migrations_completed", Json::U64(self.migrations_completed))
            .field(
                "concurrent_migrations",
                Json::U64(u64::from(self.migration.is_some())),
            )
            .field(
                "peak_concurrent_migrations",
                Json::U64(self.peak_concurrent_migrations),
            )
            .field("key_spread", Json::U64(self.key_spread()))
            .field("key_spread_ratio", Json::fixed(self.key_spread_ratio(), 4))
            .field("shed_ops", Json::U64(self.shed_ops))
            .field("snapshot_scans", Json::U64(self.snapshot_scans))
            .field("bundle_depth", Json::U64(self.bundle_depth));
        if let Some(obs) = &self.obs {
            out = out
                .field("op_latency", obs.op_latency_json())
                .field("txn_retries", obs.txn_retries.to_json_ns())
                .field("events", obs.events.to_json());
        }
        out
    }

    /// Renders the snapshot as one compact `{...}` JSON object. The legacy
    /// keys (shard counters, stm commits/aborts, rates, migration
    /// progress) keep their historical order and formatting; stores with
    /// observability enabled append `op_latency` (per-op-kind latency
    /// histograms), `txn_retries` (attempts per committed transaction) and
    /// `events` (the migration/drain timeline).
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// The snapshot in Prometheus text exposition format: per-shard op
    /// counters as labelled series, the domain's commit/abort counters
    /// with abort-cause labels, migration/epoch gauges, and (when
    /// observability is enabled) the store registry's own page — the op
    /// and retry histograms, the view counters and the event ring's exact
    /// loss accounting. Each series appears exactly once.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (metric, pick) in [
            (
                "store_shard_gets",
                (|s: &ShardStats| s.gets) as fn(&ShardStats) -> u64,
            ),
            ("store_shard_puts", |s| s.puts),
            ("store_shard_deletes", |s| s.deletes),
            ("store_shard_ranges", |s| s.ranges),
            ("store_shard_batch_parts", |s| s.batch_parts),
            ("store_shard_keys", |s| s.keys),
        ] {
            out.push_str(&format!("# TYPE {metric} gauge\n"));
            for s in &self.shards {
                out.push_str(&format!("{metric}{{shard=\"{}\"}} {}\n", s.shard, pick(s)));
            }
        }
        out.push_str(&format!(
            "# TYPE stm_commits counter\nstm_commits{{kind=\"write\"}} {}\nstm_commits{{kind=\"read_only\"}} {}\n",
            self.stm.commits, self.stm.read_only_commits
        ));
        out.push_str(&format!(
            "# TYPE stm_aborts counter\nstm_aborts{{cause=\"conflict_read\"}} {}\nstm_aborts{{cause=\"conflict_commit\"}} {}\nstm_aborts{{cause=\"explicit\"}} {}\n",
            self.stm.conflict_read_aborts, self.stm.conflict_commit_aborts, self.stm.explicit_aborts
        ));
        out.push_str(&format!(
            "# TYPE store_epoch gauge\nstore_epoch {}\n",
            self.epoch
        ));
        out.push_str(&format!(
            "# TYPE store_migrations_completed counter\nstore_migrations_completed {}\n",
            self.migrations_completed
        ));
        out.push_str(&format!(
            "# TYPE store_migrations_in_flight gauge\nstore_migrations_in_flight {}\n",
            u64::from(self.migration.is_some())
        ));
        out.push_str(&format!(
            "# TYPE store_shed_ops counter\nstore_shed_ops {}\n",
            self.shed_ops
        ));
        out.push_str(&format!(
            "# TYPE store_snapshot_scans counter\nstore_snapshot_scans {}\n",
            self.snapshot_scans
        ));
        out.push_str(&format!(
            "# TYPE store_bundle_depth gauge\nstore_bundle_depth {}\n",
            self.bundle_depth
        ));
        out.push_str(&format!(
            "# TYPE stm_timeouts counter\nstm_timeouts {}\n",
            self.stm.timeouts
        ));
        if let Some(obs) = &self.obs {
            out.push_str(&obs.registry_page);
        }
        out
    }
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:>6} {:>10} {:>10} {:>10} {:>10} {:>12} {:>10} {:>6}",
            "shard", "gets", "puts", "deletes", "ranges", "batch_parts", "keys", "owned"
        )?;
        for s in &self.shards {
            writeln!(
                f,
                "{:>6} {:>10} {:>10} {:>10} {:>10} {:>12} {:>10} {:>6}",
                s.shard, s.gets, s.puts, s.deletes, s.ranges, s.batch_parts, s.keys, s.owned
            )?;
        }
        if let Some(m) = &self.migration {
            writeln!(
                f,
                "migrating [{}, {}] shard {} -> {} ({} keys moved)",
                m.lo, m.hi, m.src, m.dst, m.moved
            )?;
        }
        write!(
            f,
            "stm: {} | collision_batches={} | abort_rate={:.4} | epoch={} | migrations={} (in flight {}) | shed_ops={} | key_spread={} ({:.2}x mean) | snapshot_scans={} (bundle_depth {})",
            self.stm,
            self.collision_batches,
            self.abort_rate(),
            self.epoch,
            self.migrations_completed,
            u64::from(self.migration.is_some()),
            self.shed_ops,
            self.key_spread(),
            self.key_spread_ratio(),
            self.snapshot_scans,
            self.bundle_depth,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_and_rates_divide() {
        let stats = StoreStats {
            shards: vec![
                ShardStats {
                    shard: 0,
                    gets: 1,
                    puts: 2,
                    deletes: 3,
                    ranges: 4,
                    batch_parts: 5,
                    keys: 40,
                    owned: true,
                },
                ShardStats {
                    keys: 10,
                    owned: true,
                    shard: 1,
                    ..ShardStats::default()
                },
                ShardStats {
                    keys: 0,
                    owned: false,
                    shard: 2,
                    ..ShardStats::default()
                },
            ],
            stm: StatsSnapshot {
                commits: 8,
                read_only_commits: 2,
                conflict_aborts: 4,
                conflict_read_aborts: 3,
                conflict_commit_aborts: 1,
                explicit_aborts: 1,
                timeouts: 2,
            },
            collision_batches: 7,
            epoch: 3,
            migration: Some(MigrationView {
                id: 1,
                src: 0,
                dst: 2,
                lo: 100,
                hi: 199,
                moved: 12,
            }),
            peak_concurrent_migrations: 1,
            migrations_completed: 3,
            aborted_migrations: 0,
            shed_ops: 6,
            snapshot_scans: 5,
            bundle_depth: 4,
            obs: None,
        };
        assert_eq!(stats.shards[0].total_ops(), 15);
        assert!((stats.abort_rate() - 0.5).abs() < 1e-9);
        assert_eq!(
            stats.key_spread(),
            30,
            "unowned slots must not drag the spread"
        );
        let json = stats.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches("\"shard\":").count(), 3);
        assert!(json.contains("\"collision_batches\":7"));
        assert!(json.contains("\"keys\":40"));
        assert!(json.contains("\"owned\":false"));
        assert!(json.contains("\"epoch\":3"));
        assert!(json.contains("\"migrations_completed\":3"));
        assert!(json.contains("\"concurrent_migrations\":1"));
        assert!(json.contains("\"peak_concurrent_migrations\":1"));
        assert!(json.contains("\"key_spread\":30"));
        assert!(json.contains("\"key_spread_ratio\":1.6000"));
        assert!(json.contains("\"shed_ops\":6"));
        assert!(json.contains("\"snapshot_scans\":5"));
        assert!(json.contains("\"bundle_depth\":4"));
        assert!(json.contains("\"timeouts\":2"));
        assert!(json.contains("\"abort_rate\":0.500000"));
        assert!(
            json.contains(
                "\"explicit_aborts\":1,\"conflict_read_aborts\":3,\"conflict_commit_aborts\":1"
            ),
            "cause breakdown appends after the legacy stm keys: {json}"
        );
        assert!(
            !json.contains("\"op_latency\""),
            "no obs snapshot, no obs keys"
        );
        assert_eq!(StoreStats::default().abort_rate(), 0.0);
        assert_eq!(StoreStats::default().key_spread(), 0);
        let text = format!("{stats}");
        assert!(text.contains("abort_rate=0.5000"));
        assert!(text.contains("collision_batches=7"));
        assert!(text.contains("migrating [100, 199] shard 0 -> 2"));
        assert!(text.contains("migrations=3 (in flight 1) |"));
        assert!(stats
            .to_prometheus()
            .contains("store_migrations_in_flight 1\n"));
        assert!(text.contains("key_spread=30"));
        assert!(text.contains("snapshot_scans=5 (bundle_depth 4)"));
    }

    /// The division path of the relative spread: every degenerate census
    /// — empty store, no owned slot, a merge-emptied slot (`owned ==
    /// false`) holding stale keys — must yield a defined finite value,
    /// never `NaN` or a panic.
    #[test]
    fn key_spread_ratio_is_defined_on_degenerate_stores() {
        // Zero shards at all (Default).
        assert_eq!(StoreStats::default().key_spread_ratio(), 1.0);
        // All-empty owned shards (a fresh store).
        let fresh = StoreStats {
            shards: (0..4)
                .map(|s| ShardStats {
                    shard: s,
                    owned: true,
                    ..ShardStats::default()
                })
                .collect(),
            ..StoreStats::default()
        };
        assert_eq!(fresh.key_spread_ratio(), 1.0);
        assert!(fresh.to_json().contains("\"key_spread_ratio\":1.0000"));
        // No slot owns an interval at all.
        let unowned = StoreStats {
            shards: vec![ShardStats {
                keys: 9,
                owned: false,
                ..ShardStats::default()
            }],
            ..StoreStats::default()
        };
        assert_eq!(unowned.key_spread_ratio(), 1.0);
        // A merge emptied slot 1 (owned == false): excluded, so the two
        // live shards with 10 and 30 keys give max/mean = 30/20.
        let merged = StoreStats {
            shards: vec![
                ShardStats {
                    shard: 0,
                    keys: 10,
                    owned: true,
                    ..ShardStats::default()
                },
                ShardStats {
                    shard: 1,
                    keys: 0,
                    owned: false,
                    ..ShardStats::default()
                },
                ShardStats {
                    shard: 2,
                    keys: 30,
                    owned: true,
                    ..ShardStats::default()
                },
            ],
            ..StoreStats::default()
        };
        assert!((merged.key_spread_ratio() - 1.5).abs() < 1e-9);
        assert!(merged.key_spread_ratio().is_finite());
    }

    /// A live store's snapshot carries the instrument keys and both render
    /// targets agree on the headline numbers.
    #[test]
    fn obs_backed_snapshot_renders_json_and_prometheus() {
        use crate::router::Partitioning;
        use crate::store::StoreConfig;
        let store: crate::LeapStore<u64> =
            crate::LeapStore::new(StoreConfig::new(2, Partitioning::Range).with_key_space(50));
        for k in 0..50u64 {
            store.put(k, k);
        }
        assert_eq!(store.len(), 50);
        let stats = store.stats();
        assert!(
            stats.shards.iter().all(|s| s.puts > 0),
            "both shards served puts: {:?}",
            stats.shards
        );
        let obs = stats.obs.as_ref().expect("obs on by default");
        assert!(
            obs.op_latency
                .iter()
                .any(|(k, s)| *k == "put" && s.count == 50),
            "every put recorded a latency sample"
        );
        assert!(
            obs.txn_retries.count >= 50,
            "the recorder saw every committed transaction"
        );
        let json = stats.to_json();
        assert!(
            json.contains("\"op_latency\":{\"get\":{\"count\":"),
            "{json}"
        );
        assert!(json.contains("\"txn_retries\":{\"count\":"), "{json}");
        assert!(json.contains("\"events\":{\"capacity\":"), "{json}");
        assert!(json.contains("\"p999_ns\":"), "{json}");
        let prom = stats.to_prometheus();
        assert!(prom.contains("# TYPE store_shard_puts gauge\n"), "{prom}");
        assert!(prom.contains("stm_commits{kind=\"write\"} "), "{prom}");
        assert!(
            prom.contains("stm_aborts{cause=\"conflict_read\"} "),
            "{prom}"
        );
        assert!(
            prom.contains("# TYPE store_op_put_ns histogram\n"),
            "{prom}"
        );
        assert!(prom.contains("store_op_put_ns_count 50\n"), "{prom}");
        assert!(
            prom.contains("# TYPE stm_txn_retries histogram\n"),
            "{prom}"
        );
        let registry_page = store.obs().expect("obs on").registry().to_prometheus();
        assert!(
            prom.ends_with(&registry_page),
            "the registry's own page closes the scrape: {prom}"
        );
        assert!(prom.contains("store_snapshot_scans 0\n"), "{prom}");
        assert!(prom.contains("# TYPE store_bundle_depth gauge\n"), "{prom}");
        // A store built without obs renders neither instrument block.
        let plain: crate::LeapStore<u64> =
            crate::LeapStore::new(StoreConfig::new(2, Partitioning::Range).with_obs(false));
        plain.put(1, 1);
        let pstats = plain.stats();
        assert!(pstats.obs.is_none());
        assert!(!pstats.to_json().contains("op_latency"));
        assert!(!pstats.to_prometheus().contains("store_op_put_ns"));
    }

    /// Striped rows lose nothing: after 8 threads (two per shard, on
    /// whatever stripes they drew) run known op counts, every per-shard
    /// counter is exact.
    #[test]
    fn per_shard_counters_are_exact_at_quiescence() {
        use crate::router::Partitioning;
        use crate::store::StoreConfig;
        use crate::BatchOp;
        const N: u64 = 50;
        let store: crate::LeapStore<u64> =
            crate::LeapStore::new(StoreConfig::new(4, Partitioning::Range).with_key_space(1_000));
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let (store, start) = (&store, &start);
                scope.spawn(move || {
                    // Shard `t % 4` owns [base, base + 249].
                    let base = (t % 4) * 250 + (t / 4) * 100;
                    start.wait();
                    for i in 0..N {
                        store.put(base + i, i);
                        store.get(base + i);
                        store.get(base + i);
                        store.range(base, base + 10);
                        store.apply(&[BatchOp::Update(base + 60, i), BatchOp::Remove(base + 61)]);
                        store.apply(&[BatchOp::Update(base + 62, i)]);
                        if i % 2 == 0 {
                            store.delete(base + i);
                        }
                    }
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.shards.len(), 4);
        for s in &stats.shards {
            let got = (s.gets, s.puts, s.deletes, s.ranges, s.batch_parts);
            assert_eq!(got, (4 * N, 2 * N, N, 2 * N, 6 * N), "shard {}", s.shard);
        }
    }
}
