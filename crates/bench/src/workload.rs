//! Operation-mix generation matching the paper's workload descriptions
//! (§3 "Settings"): percentages of lookup / range-query / modify
//! operations, a uniform key space, and range-query spans drawn uniformly
//! from 1000..=2000 keys.

use crate::rng::Rng64;

/// An operation drawn from the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Composite update over the `L` lists.
    Update,
    /// Composite remove over the `L` lists.
    Remove,
    /// Single-list lookup.
    Lookup,
    /// Single-list range query.
    RangeQuery,
}

/// Percentages of each operation class. "Modify" operations split evenly
/// between updates and removes, as in the paper's write workloads.
///
/// # Example
///
/// ```
/// use leap_bench::workload::Mix;
/// let m = Mix::new(40, 40, 20);
/// assert_eq!(m.lookup_pct + m.range_pct + m.modify_pct, 100);
/// assert_eq!(Mix::write_only().modify_pct, 100);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Percent of lookups.
    pub lookup_pct: u32,
    /// Percent of range queries.
    pub range_pct: u32,
    /// Percent of modifications (updates + removes, split 50/50).
    pub modify_pct: u32,
}

impl Mix {
    /// Creates a mix.
    ///
    /// # Panics
    ///
    /// Panics unless the percentages sum to 100.
    pub fn new(lookup_pct: u32, range_pct: u32, modify_pct: u32) -> Self {
        assert_eq!(
            lookup_pct + range_pct + modify_pct,
            100,
            "mix must sum to 100"
        );
        Mix {
            lookup_pct,
            range_pct,
            modify_pct,
        }
    }

    /// The paper's 100%-modify workload (Figs. 14a, 15a, 17a).
    pub fn write_only() -> Self {
        Mix::new(0, 0, 100)
    }

    /// The paper's read-dominated workload: 40% lookup, 40% range-query,
    /// 20% modify (Figs. 14b, 17b).
    pub fn read_dominated() -> Self {
        Mix::new(40, 40, 20)
    }

    /// 100% lookups (Figs. 15b, 17c).
    pub fn lookup_only() -> Self {
        Mix::new(100, 0, 0)
    }

    /// 100% range queries (Fig. 17d).
    pub fn range_only() -> Self {
        Mix::new(0, 100, 0)
    }
}

/// A complete workload description.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Operation mix.
    pub mix: Mix,
    /// Keys are drawn from `[0, key_range)` (paper: 0..100000).
    pub key_range: u64,
    /// Minimum range-query span (paper: 1000).
    pub span_min: u64,
    /// Maximum range-query span (paper: 2000).
    pub span_max: u64,
}

impl Workload {
    /// The paper's standard settings over a given mix and key range.
    pub fn paper(mix: Mix, key_range: u64) -> Self {
        Workload {
            mix,
            key_range,
            span_min: 1000,
            span_max: 2000,
        }
    }

    /// Fills `keys` with one independent key per list — the paper's
    /// composite `Update` / `Remove`.
    pub fn sample_batch_keys(&self, rng: &mut Rng64, keys: &mut [u64]) {
        for k in keys.iter_mut() {
            *k = self.sample_key(rng);
        }
    }

    /// Draws the next operation kind.
    pub fn sample_kind(&self, rng: &mut Rng64) -> OpKind {
        let p = rng.below(100) as u32;
        if p < self.mix.lookup_pct {
            OpKind::Lookup
        } else if p < self.mix.lookup_pct + self.mix.range_pct {
            OpKind::RangeQuery
        } else if rng.below(2) == 0 {
            OpKind::Update
        } else {
            OpKind::Remove
        }
    }

    /// Draws a key, uniform over the key range.
    pub fn sample_key(&self, rng: &mut Rng64) -> u64 {
        rng.below(self.key_range)
    }

    /// Draws a range `[lo, hi]` whose span is uniform in
    /// `[span_min, span_max]`.
    pub fn sample_range(&self, rng: &mut Rng64) -> (u64, u64) {
        let span = self.span_min + rng.below(self.span_max - self.span_min + 1);
        let lo = rng.below(self.key_range);
        (lo, lo + span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_frequencies_are_close() {
        let wl = Workload::paper(Mix::read_dominated(), 100_000);
        let mut rng = Rng64::new(1);
        let mut counts = [0usize; 4];
        let n = 100_000;
        for _ in 0..n {
            match wl.sample_kind(&mut rng) {
                OpKind::Update => counts[0] += 1,
                OpKind::Remove => counts[1] += 1,
                OpKind::Lookup => counts[2] += 1,
                OpKind::RangeQuery => counts[3] += 1,
            }
        }
        let pct = |c: usize| c * 100 / n;
        assert!(
            (8..=12).contains(&pct(counts[0])),
            "updates {}",
            pct(counts[0])
        );
        assert!(
            (8..=12).contains(&pct(counts[1])),
            "removes {}",
            pct(counts[1])
        );
        assert!(
            (37..=43).contains(&pct(counts[2])),
            "lookups {}",
            pct(counts[2])
        );
        assert!(
            (37..=43).contains(&pct(counts[3])),
            "ranges {}",
            pct(counts[3])
        );
    }

    #[test]
    fn spans_within_paper_bounds() {
        let wl = Workload::paper(Mix::range_only(), 100_000);
        let mut rng = Rng64::new(2);
        for _ in 0..10_000 {
            let (lo, hi) = wl.sample_range(&mut rng);
            let span = hi - lo;
            assert!((1000..=2000).contains(&span), "span {span}");
            assert!(lo < 100_000);
        }
    }

    #[test]
    #[should_panic(expected = "sum to 100")]
    fn bad_mix_rejected() {
        Mix::new(50, 50, 50);
    }
}
