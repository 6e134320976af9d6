//! Percentile and slice-median maths, and the metric record every result
//! is reported as.

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many raw observations the value summarises.
    pub samples: u64,
}

/// The `p`-quantile (`0.0..=1.0`) of an ascending slice, linearly
/// interpolated between the two nearest order statistics; 0 when empty.
pub fn percentile(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    let frac = pos - lo as f64;
    f64::from(sorted[lo]) * (1.0 - frac) + f64::from(sorted[hi]) * frac
}

/// Sorts `samples` in place and returns its `p`-quantile.
pub fn percentile_of(samples: &mut [u32], p: f64) -> f64 {
    samples.sort_unstable();
    percentile(samples, p)
}

/// The `p`-quantile (`0.0..=1.0`) of unsorted values, linearly
/// interpolated between the two nearest order statistics; 0 when empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    let frac = pos - lo as f64;
    v[lo] * (1.0 - frac) + v[hi] * frac
}

/// Median of per-slice statistics (mean of the two middle values for an
/// even count); 0 when empty. Every timing metric is the median over
/// slices of the per-slice statistic, so one stalled slice cannot move it.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_arrays() {
        let v: Vec<u32> = (1..=101).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.99), 100.0);
        assert_eq!(percentile(&v, 1.0), 101.0);
        // Interpolates between order statistics.
        assert_eq!(percentile(&[10, 20], 0.5), 15.0);
        assert_eq!(percentile(&[10, 20, 40, 80], 0.9), 68.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        let mut unsorted = [9, 1, 5];
        assert_eq!(percentile_of(&mut unsorted, 0.5), 5.0);
    }

    #[test]
    fn slice_median_ignores_one_stalled_slice() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[100.0, 101.0, 99.0, 5_000_000.0, 100.5]), 100.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[10.0, 20.0], 0.25), 12.5);
        assert_eq!(median(&[5.0, -3.0, 1.0]), 1.0);
    }
}
