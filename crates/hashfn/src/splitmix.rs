//! SplitMix64: the minimal splittable pseudo-random generator and mixer.
//!
//! SplitMix64 (Steele, Lea & Flood, *Fast Splittable Pseudorandom Number
//! Generators*, OOPSLA 2014; constants per Vigna's reference code) advances
//! a 64-bit state by the golden-gamma constant and scrambles it through two
//! xor-shift-multiply rounds. It is the workspace's universal seeding and
//! integer-mixing primitive: every deterministic random stream in the
//! repository bottoms out here.

/// The golden-gamma increment, `floor(2^64 / phi)`, made odd.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 output step applied to `x` as a pure function.
///
/// This is a bijective finalizer of full 64-bit avalanche quality and can
/// be used as a standalone integer hash.
///
/// ```
/// use hdhash_hashfn::splitmix::splitmix64;
/// assert_ne!(splitmix64(1), splitmix64(2));
/// ```
#[inline]
#[must_use]
pub const fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A splittable pseudo-random stream with SplitMix64 state transitions,
/// drawn from through [`next_u64`](SplitMix64::next_u64).
///
/// # Examples
///
/// ```
/// use hdhash_hashfn::SplitMix64;
///
/// let mut rng = SplitMix64::new(0xDEADBEEF);
/// let a = rng.next_u64();
/// let b = rng.next_u64();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator seeded with `seed`.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next pseudo-random 64-bit word and advances the state.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a pseudo-random value below `bound` without modulo bias.
    ///
    /// Uses Lemire's multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniformly random `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Splits off an independent child generator.
    ///
    /// The child is seeded from the next output of this stream, which is the
    /// construction recommended by the SplitMix authors for statistically
    /// independent substreams.
    pub fn split(&mut self) -> Self {
        Self::new(self.next_u64())
    }

    /// The current internal state, exposed for checkpointing experiments.
    #[must_use]
    pub const fn state(&self) -> u64 {
        self.state
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference outputs from Vigna's `splitmix64.c` seeded with 0:
    /// the first three outputs of the sequential generator.
    #[test]
    fn matches_reference_sequence_seed0() {
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    /// Regression vector (computed by this implementation, whose seed-0
    /// stream matches Vigna's reference exactly).
    #[test]
    fn matches_regression_sequence_seed1234567() {
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 0x599E_D017_FB08_FC85);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(99);
        for bound in [1u64, 2, 3, 7, 100, 2048] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_small_range() {
        let mut rng = SplitMix64::new(5);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.next_below(4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(1).next_below(0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(77);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn split_streams_diverge() {
        let mut parent = SplitMix64::new(42);
        let mut a = parent.split();
        let mut b = parent.split();
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn finalizer_is_deterministic_and_spreads() {
        let a = splitmix64(0);
        let b = splitmix64(1);
        assert_eq!(a, splitmix64(0));
        assert!((a ^ b).count_ones() > 16, "avalanche too weak");
    }
}
