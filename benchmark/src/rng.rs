//! The benchmark's only source of randomness: every generated input is
//! a pure function of `--seed`.

/// SplitMix64 (Steele, Lea, Flood 2014): tiny, fast, and good enough to
/// decorrelate workload inputs. Not for anything adversarial.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`; `stream` separates the independent
    /// inputs one workload draws (conditions, shuffles, jitter seeds).
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        let mut rng = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive. The modulo bias is
    /// below 2⁻⁴⁰ for every `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let draw = |seed, stream| {
            let mut r = SplitMix64::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1991, 0), draw(1991, 0));
        assert_ne!(draw(1991, 0), draw(1992, 0));
        assert_ne!(draw(1991, 0), draw(1991, 1));
    }

    #[test]
    fn shuffle_permutes_and_uniform_stays_in_range() {
        let mut r = SplitMix64::new(7, 0);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
        assert!((0..1000).all(|_| (1.5..2.5).contains(&r.uniform(1.5, 2.5))));
    }
}
