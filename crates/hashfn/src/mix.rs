//! Standalone 64-bit integer finalizers ("mixers").
//!
//! A finalizer is a bijective scrambling of a 64-bit word with full
//! avalanche: flipping any input bit flips each output bit with probability
//! ≈ 1/2. Rendezvous hashing combines a server's pre-hash with a request's
//! hash through [`mix64`], the consistent-hashing treap derives node
//! priorities from [`mix64`] and [`rrmxmx`], and the hierarchical HD table
//! assigns servers to groups with [`mix64`].

/// The default 64-bit mixer: `moremur` (Pelle Evensen's strengthened
/// MurmurHash3 finalizer).
///
/// ```
/// use hdhash_hashfn::mix64;
/// assert_ne!(mix64(0x1), mix64(0x2));
/// assert_eq!(mix64(7), mix64(7));
/// ```
#[inline]
#[must_use]
pub const fn mix64(x: u64) -> u64 {
    moremur(x)
}

/// Pelle Evensen's `moremur` mixer: two multiply rounds with xor-shifts,
/// measurably stronger avalanche than `fmix64` on low-entropy inputs.
#[inline]
#[must_use]
pub const fn moremur(mut x: u64) -> u64 {
    x ^= x >> 27;
    x = x.wrapping_mul(0x3C79_AC49_2BA7_B653);
    x ^= x >> 33;
    x = x.wrapping_mul(0x1C69_B3F7_4AC4_AE35);
    x ^ (x >> 27)
}

/// The `rrmxmx` mixer (also by Evensen): rotate-rotate-multiply structure,
/// useful as a second independent mixing family.
#[inline]
#[must_use]
pub const fn rrmxmx(mut x: u64) -> u64 {
    x ^= x.rotate_right(49) ^ x.rotate_right(24);
    x = x.wrapping_mul(0x9FB2_1C65_1E98_DF25);
    x ^= x >> 28;
    x = x.wrapping_mul(0x9FB2_1C65_1E98_DF25);
    x ^ (x >> 28)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avalanche_score(f: fn(u64) -> u64, samples: u64) -> f64 {
        // Mean fraction of flipped output bits over single-bit input flips.
        let mut total = 0u64;
        let mut count = 0u64;
        for i in 0..samples {
            let x = crate::splitmix::splitmix64(i);
            let fx = f(x);
            for bit in 0..64 {
                total += u64::from((fx ^ f(x ^ (1 << bit))).count_ones());
                count += 64;
            }
        }
        total as f64 / count as f64
    }

    #[test]
    fn moremur_avalanche_is_near_half() {
        let score = avalanche_score(moremur, 64);
        assert!((score - 0.5).abs() < 0.02, "avalanche {score}");
    }

    #[test]
    fn rrmxmx_avalanche_is_near_half() {
        let score = avalanche_score(rrmxmx, 64);
        assert!((score - 0.5).abs() < 0.02, "avalanche {score}");
    }

    #[test]
    fn mixers_are_injective_on_sample() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(moremur(i)));
        }
    }

    #[test]
    fn families_are_distinct() {
        for i in [1u64, 2, 3, 1000, u64::MAX] {
            assert_ne!(moremur(i), rrmxmx(i));
        }
    }

    #[test]
    fn mix64_is_moremur() {
        assert_eq!(mix64(12345), moremur(12345));
    }
}
