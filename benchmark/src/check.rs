//! Output checking for the key-value workloads: the value encoding, the
//! violation log, and the result checks every run applies in both modes.
//!
//! Thread `t` mutates only keys with `key % 2 == t`, so each thread keeps
//! an exact sequential model of its own keys ([`Model`]) and every value
//! it reads back from a mutation must equal that model.

/// A store value: the key it was written under, whether an 8-key batch
/// wrote it, and its writer's per-thread sequence number (0 = preload).
///
/// ```text
/// | key: 20 bits | batch: 1 bit | seq: 43 bits |
/// ```
pub fn value(key: u64, batch: bool, seq: u64) -> u64 {
    debug_assert!(key < 1 << 20 && seq < 1 << 43);
    key << 44 | u64::from(batch) << 43 | seq
}

pub fn key_of(v: u64) -> u64 {
    v >> 44
}

pub fn is_batch(v: u64) -> bool {
    v >> 43 & 1 == 1
}

pub fn seq_of(v: u64) -> u64 {
    v & ((1 << 43) - 1)
}

/// The key an 8-key batch deletes beside putting `key`: the neighbouring
/// key of the same parity (so of the same writer). The relation is
/// symmetric, which lets any reader that sees both keys check the batch.
pub fn partner(key: u64) -> u64 {
    key ^ 2
}

/// Counts attempted and violating ops and keeps the first violation.
#[derive(Debug, Default, Clone)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub first: Option<String>,
}

impl Checker {
    /// Records one violating op.
    #[cold]
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first.get_or_insert(what);
    }

    pub fn merge(&mut self, other: &Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first.is_none() {
            self.first.clone_from(&other.first);
        }
    }

    /// A `get` returns nothing or a value written under the key asked for.
    #[inline]
    pub fn get(&mut self, key: u64, got: Option<u64>) -> bool {
        match got {
            Some(v) if key_of(v) != key => {
                self.fail(format!("get({key}) returned a value of key {}", key_of(v)));
                false
            }
            _ => true,
        }
    }

    /// A mutation of an own key returns exactly what the model held.
    #[inline]
    pub fn previous(&mut self, what: &str, key: u64, got: Option<u64>, model: Option<u64>) -> bool {
        if got != model {
            self.fail(format!(
                "{what}({key}) returned previous {got:?}, the writer's model holds {model:?}"
            ));
        }
        got == model
    }

    /// A range or page result is strictly ascending, inside `[lo, hi]`,
    /// holds values written under their keys, and shows every 8-key batch
    /// whole: where it holds both a key and its [`partner`], a batch-put
    /// value with sequence `s` on one means the batch's delete of the
    /// other is visible too, so the other was written after `s`.
    pub fn range(&mut self, what: &str, lo: u64, hi: u64, got: &[(u64, u64)]) -> bool {
        let mut prev: Option<u64> = None;
        for (i, &(k, v)) in got.iter().enumerate() {
            if prev.is_some_and(|p| p >= k) {
                self.fail(format!("{what}({lo}, {hi}): keys not ascending at {k}"));
                return false;
            }
            prev = Some(k);
            if k < lo || k > hi {
                self.fail(format!("{what}({lo}, {hi}): key {k} out of bounds"));
                return false;
            }
            if key_of(v) != k {
                self.fail(format!(
                    "{what}({lo}, {hi}): key {k} holds a value of key {}",
                    key_of(v)
                ));
                return false;
            }
            // The partner k + 2 sits at most two places ahead (k + 1 may
            // lie between); k's lower partner was handled from its side.
            if k & 2 == 0 {
                let other = got[i + 1..].iter().take(2).find(|e| e.0 == partner(k));
                if let Some(&(_, w)) = other {
                    let torn = (is_batch(v) && seq_of(w) < seq_of(v))
                        || (is_batch(w) && seq_of(v) < seq_of(w));
                    if torn {
                        self.fail(format!(
                            "{what}({lo}, {hi}): torn batch on keys {k}/{}: seq {} beside seq {}",
                            partner(k),
                            seq_of(v),
                            seq_of(w)
                        ));
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// One writer's sequential model of its own keys (`key % 2 == thread`).
#[derive(Debug, Clone)]
pub struct Model {
    thread: u64,
    /// Indexed by `key / 2`; [`ABSENT`] when the key is not stored.
    slots: Vec<u64>,
    pub live: usize,
    pub seq: u64,
}

const ABSENT: u64 = u64::MAX;

impl Model {
    pub fn new(thread: u64, key_space: u64) -> Self {
        Model {
            thread,
            slots: vec![ABSENT; (key_space / 2) as usize],
            live: 0,
            seq: 0,
        }
    }

    pub fn owns(&self, key: u64) -> bool {
        key % 2 == self.thread
    }

    pub fn get(&self, key: u64) -> Option<u64> {
        let v = self.slots[(key / 2) as usize];
        (v != ABSENT).then_some(v)
    }

    /// Stores `v` under `key`, returning what the model held.
    pub fn put(&mut self, key: u64, v: u64) -> Option<u64> {
        let old = std::mem::replace(&mut self.slots[(key / 2) as usize], v);
        self.live += usize::from(old == ABSENT);
        (old != ABSENT).then_some(old)
    }

    pub fn delete(&mut self, key: u64) -> Option<u64> {
        let old = std::mem::replace(&mut self.slots[(key / 2) as usize], ABSENT);
        self.live -= usize::from(old != ABSENT);
        (old != ABSENT).then_some(old)
    }

    /// The model's `(key, value)` pairs in key order.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != ABSENT)
            .map(|(i, &v)| (i as u64 * 2 + self.thread, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips() {
        let v = value(1_048_575, true, (1 << 43) - 1);
        assert_eq!(
            (key_of(v), is_batch(v), seq_of(v)),
            (1_048_575, true, (1 << 43) - 1)
        );
        let v = value(12, false, 7);
        assert_eq!((key_of(v), is_batch(v), seq_of(v)), (12, false, 7));
        assert_eq!(partner(partner(12)), 12);
        assert_eq!(partner(12) % 2, 0);
    }

    #[test]
    fn range_check_accepts_clean_and_flags_broken_results() {
        let ok = [
            (4, value(4, true, 9)),
            (5, value(5, false, 0)),
            (6, value(6, false, 12)),
        ];
        let mut c = Checker::default();
        assert!(c.range("range", 0, 10, &ok));
        assert!(c.range("range", 0, 10, &[]));
        assert_eq!(c.failed, 0);

        let unsorted = [(6, value(6, false, 1)), (4, value(4, false, 1))];
        assert!(!c.range("range", 0, 10, &unsorted));
        assert!(!c.range("range", 5, 10, &[(4, value(4, false, 1))]));
        assert!(!c.range("range", 0, 10, &[(4, value(5, false, 1))]));
        // Batch 9 put key 4 and deleted key 6, yet key 6 shows the older
        // write 3: the reader saw half of the batch.
        let torn = [(4, value(4, true, 9)), (6, value(6, false, 3))];
        assert!(!c.range("range", 0, 10, &torn));
        let torn_other_side = [(4, value(4, false, 3)), (6, value(6, true, 9))];
        assert!(!c.range("range", 0, 10, &torn_other_side));
        assert_eq!(c.failed, 5);
        assert!(c
            .first
            .as_deref()
            .is_some_and(|m| m.contains("not ascending")));
    }

    #[test]
    fn model_tracks_own_keys() {
        let mut m = Model::new(1, 16);
        assert!(m.owns(3) && !m.owns(4));
        assert_eq!(m.put(3, 30), None);
        assert_eq!(m.put(3, 31), Some(30));
        assert_eq!(m.put(15, 150), None);
        assert_eq!(m.live, 2);
        assert_eq!(m.entries().collect::<Vec<_>>(), [(3, 31), (15, 150)]);
        assert_eq!(m.delete(3), Some(31));
        assert_eq!(m.delete(3), None);
        assert_eq!((m.get(3), m.get(15), m.live), (None, Some(150), 1));
    }
}
