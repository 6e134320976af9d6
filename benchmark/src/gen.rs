//! Seeded input generation: the benchmark's own splitmix64 and zipf
//! generators and the per-thread op streams built from them.
//!
//! Nothing here depends on `leap-bench` or `vendor/rand`, so a later
//! change to either cannot move the yardstick. An op stream is a pure
//! function of `(seed, workload, thread, op index)`.

/// splitmix64 (Steele, Lea, Flood 2014): one add and three xor-shift
/// multiplies per draw, full 64-bit period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        finalize(self.0)
    }

    /// Uniform in `[0, n)` by multiply-shift (bias below 2^-40 for the
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        below(self.next_u64(), n)
    }
}

fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps one 64-bit draw to `[0, n)`.
pub fn below(draw: u64, n: u64) -> u64 {
    ((u128::from(draw) * u128::from(n)) >> 64) as u64
}

/// Maps one 64-bit draw to `[0, 1)`.
pub fn unit(draw: u64) -> f64 {
    (draw >> 11) as f64 / (1u64 << 53) as f64
}

/// Derives an independent stream seed from a seed and two stream labels.
pub fn stream_seed(seed: u64, workload: u64, lane: u64) -> u64 {
    finalize(finalize(seed ^ 0xA076_1D64_78BD_642F).wrapping_add(workload << 32 | lane))
}

/// Zipfian ranks over `[0, n)` with skew `theta` (Gray et al., "Quickly
/// generating billion-record synthetic databases", the YCSB generator):
/// rank 0 is the most popular.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    /// The rank for a uniform draw `u` in `[0, 1)`.
    pub fn rank(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// One generated operation: which entry of the workload's mix it is, plus
/// two raw draws the workload maps to keys, row ids or values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawOp {
    pub kind: usize,
    pub a: u64,
    pub b: u64,
}

/// A workload's operation mix: `(kind, percent)` entries summing to 100.
pub type Mix = &'static [(usize, u64)];

/// The op stream of one load thread.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SplitMix64,
    mix: Mix,
}

impl OpStream {
    pub fn new(seed: u64, workload: u64, thread: u64, mix: Mix) -> Self {
        debug_assert_eq!(mix.iter().map(|m| m.1).sum::<u64>(), 100);
        OpStream {
            rng: SplitMix64::new(stream_seed(seed, workload, thread)),
            mix,
        }
    }

    pub fn next_op(&mut self) -> RawOp {
        let mut pick = self.rng.below(100);
        let mut kind = self.mix[0].0;
        for &(k, pct) in self.mix {
            kind = k;
            if pick < pct {
                break;
            }
            pick -= pct;
        }
        RawOp {
            kind,
            a: self.rng.next_u64(),
            b: self.rng.next_u64(),
        }
    }

    /// The first `n` ops as bytes (the determinism tests compare these).
    #[cfg(test)]
    pub fn bytes(mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n * 17);
        for _ in 0..n {
            let op = self.next_op();
            out.push(op.kind as u8);
            out.extend_from_slice(&op.a.to_le_bytes());
            out.extend_from_slice(&op.b.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = &[(0, 95), (1, 5)];

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = OpStream::new(7, 1, 0, MIX).bytes(4096);
        let b = OpStream::new(7, 1, 0, MIX).bytes(4096);
        assert_eq!(a, b, "same seed must give a byte-identical op stream");
        assert_ne!(a, OpStream::new(8, 1, 0, MIX).bytes(4096), "seed");
        assert_ne!(a, OpStream::new(7, 2, 0, MIX).bytes(4096), "workload");
        assert_ne!(a, OpStream::new(7, 1, 1, MIX).bytes(4096), "thread");
    }

    #[test]
    fn mix_shares_are_respected() {
        let mut s = OpStream::new(3, 0, 0, MIX);
        let puts = (0..100_000).filter(|_| s.next_op().kind == 1).count();
        assert!((4_500..5_500).contains(&puts), "5% puts, got {puts}");
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut rng = SplitMix64::new(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let z = Zipf::new(1 << 16, 0.99);
        let mut rng = SplitMix64::new(9);
        let n = 200_000;
        let mut top = 0;
        let mut first_percent = 0;
        for _ in 0..n {
            let r = z.rank(unit(rng.next_u64()));
            assert!(r < 1 << 16);
            top += usize::from(r == 0);
            first_percent += usize::from(r < 655);
        }
        // zeta(65536, 0.99) is about 11.7: rank 0 draws about 8.5%.
        assert!((14_000..20_000).contains(&top), "rank 0 share: {top}");
        assert!(
            first_percent > n / 2,
            "1% of ranks draw over half: {first_percent}"
        );
    }
}
