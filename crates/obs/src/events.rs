//! A fixed-capacity, lock-free structured event timeline.
//!
//! The ring records [`Event`]s — small structured facts with a global
//! sequence number and a monotonic timestamp — from any thread without
//! blocking. It is an encoder over the crate's one drop-oldest ring
//! (`ring.rs`, which documents the slot protocol): capacity is fixed at
//! construction; on overflow the ring **drops the oldest events** and
//! the loss is *never silent*: every [`RingSnapshot`] carries a monotone
//! [`RingSnapshot::dropped`] counter (`total events published −
//! capacity`, floored at zero), so a consumer can always tell how much of
//! the timeline it missed.

use crate::ring::Ring;
use std::time::Instant;

/// Default ring capacity: ample for full migration timelines (a reshard
/// emits begin + one event per chunk + complete per migration) without
/// drops, small enough to snapshot cheaply.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// Payload words per event (the widest [`EventKind`] uses 5).
const WORDS: usize = 5;

/// Words per ring entry: `at_ns`, the kind tag, then the payload — with
/// the ring's sequence word, an 8-word slot.
const SLOT_WORDS: usize = 2 + WORDS;

/// Payload field names per kind tag (see [`EventKind::encode`]), in
/// declaration order.
const FIELDS: [&[&str]; 7] = [
    &["id", "src", "dst", "lo", "hi"],
    &["id", "moved"],
    &["id", "epoch"],
    &["shard", "load"],
    &["left", "right"],
    &["attempts"],
    &["ops", "queued"],
];

/// What happened — the structured payload of one [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A shard migration was installed: `id` is the migration's unique
    /// monotone id, moving `[lo, hi]` from slot `src` to slot `dst`.
    MigrationBegin {
        /// Unique monotone migration id.
        id: u64,
        /// Source shard slot.
        src: u64,
        /// Destination shard slot.
        dst: u64,
        /// First key of the migrated interval.
        lo: u64,
        /// Last key (inclusive) of the migrated interval.
        hi: u64,
    },
    /// One drain chunk of migration `id` moved `moved` keys.
    MigrationChunk {
        /// Migration id the chunk belongs to.
        id: u64,
        /// Keys moved by this chunk.
        moved: u64,
    },
    /// Migration `id` completed; the routing table now has version
    /// `epoch`.
    MigrationComplete {
        /// Migration id that completed.
        id: u64,
        /// Routing epoch installed by the completion.
        epoch: u64,
    },
    /// The rebalance policy decided to split shard `shard` (its weighted
    /// load estimate at decision time rides along).
    PolicySplit {
        /// Shard slot being split.
        shard: u64,
        /// Weighted load (keys + op-rate term) that triggered the split.
        load: u64,
    },
    /// The rebalance policy decided to merge two adjacent shards.
    PolicyMerge {
        /// Left (surviving) shard slot.
        left: u64,
        /// Right (drained) shard slot.
        right: u64,
    },
    /// An op run through `LeapStore::bounded` gave up after `attempts`
    /// attempts and surfaced a typed `Timeout` instead of spinning.
    TxnDeadline {
        /// Failed attempts made before the deadline/budget cut the op off.
        attempts: u64,
    },
    /// The batcher's admission gate shed `ops` operation(s) with `queued`
    /// ops in flight through it (the bound was reached, or an injected
    /// `admission` fault fired) — the submitters got a typed `Overloaded`
    /// error.
    Shed {
        /// Operations shed.
        ops: u64,
        /// Ops in flight at the gate when shedding.
        queued: u64,
    },
}

impl EventKind {
    /// Stable lowercase name (JSON `"kind"` field / Prometheus label).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::MigrationBegin { .. } => "migration_begin",
            EventKind::MigrationChunk { .. } => "migration_chunk",
            EventKind::MigrationComplete { .. } => "migration_complete",
            EventKind::PolicySplit { .. } => "policy_split",
            EventKind::PolicyMerge { .. } => "policy_merge",
            EventKind::TxnDeadline { .. } => "txn_deadline",
            EventKind::Shed { .. } => "shed",
        }
    }

    /// The kind's named payload fields, in declaration order.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        let (tag, words) = self.encode();
        FIELDS[tag as usize].iter().copied().zip(words).collect()
    }

    /// Encodes the kind as its tag (an index into [`FIELDS`]) and its
    /// payload fields in declaration order, zero-padded.
    fn encode(&self) -> (u64, [u64; WORDS]) {
        let mut w = [0u64; WORDS];
        let tag = match *self {
            EventKind::MigrationBegin {
                id,
                src,
                dst,
                lo,
                hi,
            } => {
                w = [id, src, dst, lo, hi];
                0
            }
            EventKind::MigrationChunk { id, moved } => {
                w[0] = id;
                w[1] = moved;
                1
            }
            EventKind::MigrationComplete { id, epoch } => {
                w[0] = id;
                w[1] = epoch;
                2
            }
            EventKind::PolicySplit { shard, load } => {
                w[0] = shard;
                w[1] = load;
                3
            }
            EventKind::PolicyMerge { left, right } => {
                w[0] = left;
                w[1] = right;
                4
            }
            EventKind::TxnDeadline { attempts } => {
                w[0] = attempts;
                5
            }
            EventKind::Shed { ops, queued } => {
                w[0] = ops;
                w[1] = queued;
                6
            }
        };
        (tag, w)
    }

    fn decode(tag: u64, w: [u64; WORDS]) -> Option<EventKind> {
        Some(match tag {
            0 => EventKind::MigrationBegin {
                id: w[0],
                src: w[1],
                dst: w[2],
                lo: w[3],
                hi: w[4],
            },
            1 => EventKind::MigrationChunk {
                id: w[0],
                moved: w[1],
            },
            2 => EventKind::MigrationComplete {
                id: w[0],
                epoch: w[1],
            },
            3 => EventKind::PolicySplit {
                shard: w[0],
                load: w[1],
            },
            4 => EventKind::PolicyMerge {
                left: w[0],
                right: w[1],
            },
            5 => EventKind::TxnDeadline { attempts: w[0] },
            6 => EventKind::Shed {
                ops: w[0],
                queued: w[1],
            },
            _ => return None,
        })
    }
}

/// One published timeline entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global publication sequence number (0-based, gap-free across the
    /// ring's lifetime; snapshots list surviving events in `seq` order).
    pub seq: u64,
    /// Nanoseconds since the ring was created (monotonic clock).
    pub at_ns: u64,
    /// The structured payload.
    pub kind: EventKind,
}

impl Event {
    /// The event as a JSON object:
    /// `{"seq":..,"at_ns":..,"kind":"..",<payload fields>}`.
    pub fn to_json(&self) -> crate::Json {
        let mut obj = crate::Json::obj()
            .field("seq", crate::Json::U64(self.seq))
            .field("at_ns", crate::Json::U64(self.at_ns))
            .field("kind", crate::Json::str(self.kind.name()));
        for (k, v) in self.kind.fields() {
            obj = obj.field(k, crate::Json::U64(v));
        }
        obj
    }
}

/// A point-in-time view of the ring: surviving events in sequence order,
/// plus the monotone drop counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingSnapshot {
    /// Surviving events, oldest first (strictly increasing `seq`).
    pub events: Vec<Event>,
    /// Events dropped since creation (total published − capacity, floored
    /// at zero). Monotone: it never decreases between snapshots.
    pub dropped: u64,
    /// The ring's fixed capacity.
    pub capacity: usize,
}

impl RingSnapshot {
    /// The snapshot as the registry's standard JSON timeline object:
    /// `{"capacity":..,"dropped":..,"events":[..]}`.
    pub fn to_json(&self) -> crate::Json {
        crate::Json::obj()
            .field("capacity", crate::Json::U64(self.capacity as u64))
            .field("dropped", crate::Json::U64(self.dropped))
            .field(
                "events",
                crate::Json::Arr(self.events.iter().map(Event::to_json).collect()),
            )
    }
}

/// The fixed-capacity event ring (see module docs for the drop-oldest
/// overflow contract).
#[derive(Debug)]
pub struct EventRing {
    ring: Ring<SLOT_WORDS>,
    origin: Instant,
}

impl EventRing {
    /// A ring holding the last `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        EventRing {
            ring: Ring::new(capacity),
            origin: Instant::now(),
        }
    }

    /// The ring's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Total events ever published (dropped ones included).
    pub fn published(&self) -> u64 {
        self.ring.published()
    }

    /// Events lost to overflow so far: monotone, `published − capacity`
    /// floored at zero.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Publishes one event; returns its sequence number. Never blocks on
    /// readers; on overflow the oldest event is overwritten.
    pub fn push(&self, kind: EventKind) -> u64 {
        let at_ns = self.origin.elapsed().as_nanos() as u64;
        let (tag, [a, b, c, d, e]) = kind.encode();
        self.ring.push([at_ns, tag, a, b, c, d, e])
    }

    /// A point-in-time snapshot: surviving events in sequence order plus
    /// the monotone dropped counter. Slots mid-write at snapshot time are
    /// skipped (they will appear in the next snapshot).
    pub fn snapshot(&self) -> RingSnapshot {
        let (entries, dropped) = self.ring.read();
        let events = entries
            .into_iter()
            .filter_map(|(seq, [at_ns, tag, a, b, c, d, e])| {
                let kind = EventKind::decode(tag, [a, b, c, d, e])?;
                Some(Event { seq, at_ns, kind })
            })
            .collect();
        RingSnapshot {
            events,
            dropped,
            capacity: self.capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_every_kind() {
        let kinds = [
            EventKind::MigrationBegin {
                id: 1,
                src: 2,
                dst: 3,
                lo: 4,
                hi: 5,
            },
            EventKind::MigrationChunk { id: 1, moved: 128 },
            EventKind::MigrationComplete { id: 1, epoch: 9 },
            EventKind::PolicySplit { shard: 0, load: 77 },
            EventKind::PolicyMerge { left: 1, right: 2 },
            EventKind::TxnDeadline { attempts: 64 },
            EventKind::Shed { ops: 5, queued: 33 },
        ];
        let ring = EventRing::new(16);
        for k in kinds {
            ring.push(k);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events.len(), kinds.len());
        for (i, (e, k)) in snap.events.iter().zip(kinds).enumerate() {
            assert_eq!(e.seq, i as u64, "gap-free sequence");
            assert_eq!(e.kind, k, "payload survives encode/decode");
            // Named fields follow the variant's declaration, as its
            // derived Debug spells it.
            let listed: Vec<String> = k
                .fields()
                .iter()
                .map(|(n, v)| format!("{n}: {v}"))
                .collect();
            let debug = format!("{k:?}");
            assert!(
                debug.ends_with(&format!("{{ {} }}", listed.join(", "))),
                "{debug}"
            );
        }
        // Timestamps are monotone non-decreasing in sequence order.
        for w in snap.events.windows(2) {
            assert!(w[0].at_ns <= w[1].at_ns);
        }
    }
}
