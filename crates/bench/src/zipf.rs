//! Zipfian key distribution (YCSB-style, Gray et al.'s quick method).
//!
//! The paper's workloads draw keys uniformly, and so does every panel in
//! [`crate::figures`]. Real database index traffic is skewed — hot keys
//! concentrate conflicts on a few Leap-List nodes — and
//! `examples/leapstore.rs` uses this sampler to build such a load.

use crate::rng::Rng64;

/// Precomputed zipfian sampler over `1..=n` with skew `theta`
/// (0 < theta < 1; 0.99 is the YCSB default).
///
/// # Example
///
/// ```
/// use leap_bench::rng::Rng64;
/// use leap_bench::zipf::Zipf;
/// let z = Zipf::new(1000, 0.99);
/// let mut rng = Rng64::new(1);
/// let k = z.sample(&mut rng);
/// assert!((1..=1000).contains(&k));
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Builds the sampler. O(n) precomputation of the harmonic term.
    ///
    /// # Panics
    ///
    /// Panics unless `n >= 1` and `0.0 < theta < 1.0`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 1);
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Draws a rank in `1..=n` (rank 1 is the hottest).
    pub fn sample(&self, rng: &mut Rng64) -> u64 {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 1;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 2;
        }
        let r = 1.0 + (self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha);
        (r as u64).clamp(1, self.n)
    }

    /// Key-space size.
    pub fn n(&self) -> u64 {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(500, 0.99);
        let mut rng = Rng64::new(3);
        for _ in 0..50_000 {
            let s = z.sample(&mut rng);
            assert!((1..=500).contains(&s));
        }
    }

    #[test]
    fn distribution_is_skewed() {
        let z = Zipf::new(10_000, 0.99);
        let mut rng = Rng64::new(9);
        let n = 200_000;
        let hot = (0..n).filter(|_| z.sample(&mut rng) <= 100).count();
        // Under uniform, ranks 1..=100 of 10k would get ~1% of draws; with
        // theta=0.99 they get a large plurality.
        assert!(
            hot > n / 4,
            "zipf(0.99) should send >25% of draws to the top 1% ({hot}/{n})"
        );
    }

    #[test]
    fn rank_frequencies_are_monotone() {
        let z = Zipf::new(64, 0.9);
        let mut rng = Rng64::new(77);
        let mut counts = [0u64; 65];
        for _ in 0..400_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Allow sampling noise, but rank 1 must clearly beat rank 8,
        // rank 8 must beat rank 64.
        assert!(counts[1] > counts[8]);
        assert!(counts[8] > counts[64]);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn rejects_bad_theta() {
        Zipf::new(10, 1.5);
    }
}
