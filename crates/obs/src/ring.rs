//! The one drop-oldest ring behind [`crate::EventRing`] and the
//! [`crate::Tracer`]'s span store: a fixed number of `W`-word slots, a
//! global publication counter, and an exact monotone `dropped` count
//! (`published − capacity`, floored at zero) — loss is always visible,
//! never silent. The encoders above it own what the words mean.
//!
//! # Protocol
//!
//! Publishing claims a global ticket `t` with one `fetch_add` on `head`,
//! then owns slot `t % capacity` via a per-slot sequence word: the slot
//! is CASed from its previous state to `2t+1` ("ticket t writing"), the
//! payload words are stored, and the sequence is released as `2t+2`
//! ("ticket t complete"). A writer that finds the slot already claimed by
//! a *newer* ticket abandons its write (its entry is part of the dropped
//! prefix by then); a writer that finds an *older* ticket mid-write spins
//! for the handful of stores that write takes. All payload words are
//! plain atomics, so even a misbehaving interleaving cannot produce
//! undefined behavior — a reader validates the sequence word before and
//! after reading the payload and discards torn slots. Writers to
//! different slots never interact, and a reader never blocks a writer.

use std::sync::atomic::{AtomicU64, Ordering};

struct Slot<const W: usize> {
    /// `2t+1` = ticket `t` writing, `2t+2` = ticket `t` complete,
    /// `0` = never written.
    seq: AtomicU64,
    words: [AtomicU64; W],
}

/// A fixed-capacity drop-oldest ring of `W`-word entries (see the module
/// docs for the slot protocol).
pub(crate) struct Ring<const W: usize> {
    slots: Box<[Slot<W>]>,
    head: AtomicU64,
}

impl<const W: usize> Ring<W> {
    /// A ring retaining the last `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a ring must hold at least one entry");
        Ring {
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
            head: AtomicU64::new(0),
        }
    }

    /// The ring's fixed capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total entries ever published (dropped ones included).
    pub(crate) fn published(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Entries lost to overflow so far: monotone, `published − capacity`
    /// floored at zero.
    pub(crate) fn dropped(&self) -> u64 {
        self.published().saturating_sub(self.capacity() as u64)
    }

    /// Publishes one entry; returns its sequence number. Never blocks on
    /// readers; on overflow the oldest entry is overwritten.
    pub(crate) fn push(&self, words: [u64; W]) -> u64 {
        let ticket = self.head.fetch_add(1, Ordering::AcqRel);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        let busy = 2 * ticket + 1;
        let mut cur = slot.seq.load(Ordering::Acquire);
        loop {
            if cur >= busy {
                // A newer ticket owns this slot: our entry is already part
                // of the dropped prefix — abandon the write.
                return ticket;
            }
            if cur & 1 == 1 {
                // An older ticket is mid-write (a handful of stores): wait
                // it out rather than tearing its payload.
                std::hint::spin_loop();
                cur = slot.seq.load(Ordering::Acquire);
                continue;
            }
            match slot
                .seq
                .compare_exchange_weak(cur, busy, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
        for (dst, w) in slot.words.iter().zip(words) {
            // ORDERING: payload writes are Relaxed; the Release store of
            // `seq` below publishes them, and readers re-check `seq`
            // (Acquire) after reading to discard torn slots.
            dst.store(w, Ordering::Relaxed);
        }
        slot.seq.store(busy + 1, Ordering::Release);
        ticket
    }

    /// A point-in-time read: the surviving `(seq, words)` entries oldest
    /// first, plus the exact dropped count at that moment. Slots mid-write
    /// are skipped (they appear in the next read).
    pub(crate) fn read(&self) -> (Vec<(u64, [u64; W])>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let lo = head.saturating_sub(cap);
        let mut entries = Vec::with_capacity((head - lo) as usize);
        for ticket in lo..head {
            let slot = &self.slots[(ticket % cap) as usize];
            let done = 2 * ticket + 2;
            if slot.seq.load(Ordering::Acquire) != done {
                continue; // mid-write, or already overwritten by a newer ticket
            }
            // ORDERING: the `seq` Acquire load above ordered the writer's
            // payload before these reads; the re-check below discards
            // anything torn by a concurrent overwrite.
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            if slot.seq.load(Ordering::Acquire) != done {
                continue; // torn by a concurrent overwrite — discard
            }
            entries.push((ticket, words));
        }
        (entries, lo)
    }
}

impl<const W: usize> std::fmt::Debug for Ring<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity())
            .field("published", &self.published())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Overflow drops the OLDEST entries and says so — the `dropped`
    /// counter is exact and monotone, never silent.
    #[test]
    fn overflow_drops_oldest_with_monotone_counter() {
        let ring = Ring::<2>::new(4);
        for i in 0..10u64 {
            ring.push([i, !i]);
        }
        let (entries, dropped) = ring.read();
        assert_eq!(dropped, 6, "10 published - capacity 4");
        assert_eq!(ring.capacity(), 4);
        let seqs: Vec<u64> = entries.iter().map(|e| e.0).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "the newest survive, oldest drop");
        for (seq, words) in &entries {
            assert_eq!(*words, [*seq, !*seq], "payload rides with its ticket");
        }
        // More pushes: dropped only grows.
        ring.push([10, !10]);
        assert_eq!(ring.read().1, 7);
        assert_eq!(ring.dropped(), 7);
    }

    /// At every fill level, before and after the ring wraps, the survivors
    /// are exactly the newest `min(published, capacity)` entries and
    /// `dropped` is exactly `published − capacity`, floored at zero.
    #[test]
    fn ring_drops_oldest_with_exact_counter() {
        const CAP: u64 = 4;
        let ring = Ring::<1>::new(CAP as usize);
        assert_eq!(ring.read(), (Vec::new(), 0), "an empty ring reads empty");
        for n in 1..=3 * CAP {
            assert_eq!(ring.push([n]), n - 1, "tickets are gap-free");
            let (entries, dropped) = ring.read();
            assert_eq!(dropped, n.saturating_sub(CAP), "published {n}");
            assert_eq!(ring.published(), n);
            let want: Vec<(u64, [u64; 1])> = (dropped..n).map(|s| (s, [s + 1])).collect();
            assert_eq!(entries, want, "survivors are the newest, in order");
        }
    }

    #[test]
    fn concurrent_publishers_never_tear_events() {
        // Tiny and at the widest encoder's width: constant overflow, and
        // the longest payload write a concurrent overwrite could tear.
        let ring = Arc::new(Ring::<16>::new(8));
        let threads = 4u64;
        let per = 2_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        // Every word redundantly encodes the writer, so a
                        // torn entry would read back as a mixed payload.
                        ring.push([t * 1_000_000 + i; 16]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (entries, dropped) = ring.read();
        assert_eq!(ring.published(), threads * per);
        assert_eq!(dropped, threads * per - 8);
        let mut prev = None;
        for (seq, words) in &entries {
            assert!(
                words.iter().all(|&w| w == words[0]),
                "torn payload detected"
            );
            if let Some(p) = prev {
                assert!(*seq > p, "a read must be in sequence order");
            }
            prev = Some(*seq);
        }
    }
}
