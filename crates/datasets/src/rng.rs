//! A tiny deterministic PRNG for program generation.
//!
//! Benchmark generation must be bit-reproducible across platforms, library
//! versions and time — a benchmark URI is a *name* for a program, forever.
//! We therefore use our own SplitMix64 rather than an external generator
//! whose stream might change between releases.

/// SplitMix64: fast, high-quality 64-bit PRNG with a 64-bit state.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Multiply-shift bounded rejection-free mapping (slightly biased for
        // enormous n, irrelevant at our ranges and fully deterministic).
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform usize in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform value in `[lo, hi]` (inclusive).
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        lo.wrapping_add(self.below((hi - lo + 1) as u64) as i64)
    }

    /// True with probability `p` (0.0..=1.0).
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Uniform f64 in [0, 1).
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Picks a uniformly random element of a slice.
    ///
    /// # Panics
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.index(xs.len())]
    }
}

#[cfg(test)]
impl SplitMix64 {
    /// Picks an index according to integer weights.
    ///
    /// # Panics
    /// Panics if weights sum to zero.
    fn pick_weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|w| *w as u64).sum();
        assert!(total > 0, "all weights zero");
        let mut x = self.below(total);
        for (i, w) in weights.iter().enumerate() {
            if x < *w as u64 {
                return i;
            }
            x -= *w as u64;
        }
        weights.len() - 1
    }
}

/// Derives a stream seed from a dataset name and element index, so that
/// every (dataset, index) pair names a unique deterministic program.
pub fn derive_seed(dataset: &str, index: u64) -> u64 {
    let mut h = cg_ir::fnv1a(dataset.as_bytes());
    h ^= index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // One extra mix round.
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(1);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
        }
    }

    #[test]
    fn derive_seed_distinguishes_inputs() {
        assert_ne!(derive_seed("a", 0), derive_seed("a", 1));
        assert_ne!(derive_seed("a", 0), derive_seed("b", 0));
    }

    #[test]
    fn pick_weighted_is_in_range() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            let i = r.pick_weighted(&[1, 0, 5]);
            assert!(i == 0 || i == 2);
        }
    }
}
