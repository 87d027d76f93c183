//! XXH64 implemented from the published specification.
//!
//! XXH64 (Yann Collet) processes the input in 32-byte stripes through four
//! accumulator lanes, merges them, absorbs the tail, and applies an
//! avalanche finalizer. It is the workspace's table hash `h(·)`: fast,
//! well-distributed and seedable.

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

/// The XXH64 hash function.
///
/// # Examples
///
/// ```
/// use hdhash_hashfn::XxHash64;
///
/// // Official test vector: XXH64("", seed=0) = 0xEF46DB3751D8E999.
/// assert_eq!(XxHash64::new().hash_bytes(b""), 0xEF46_DB37_51D8_E999);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct XxHash64 {
    seed: u64,
}

impl XxHash64 {
    /// Creates an XXH64 hasher with seed 0.
    #[must_use]
    pub const fn new() -> Self {
        Self { seed: 0 }
    }

    /// Creates an XXH64 hasher with the given seed.
    #[must_use]
    pub const fn with_seed(seed: u64) -> Self {
        Self { seed }
    }

    /// Hashes a byte string to a 64-bit word under this hasher's seed.
    #[inline]
    #[must_use]
    pub fn hash_bytes(&self, bytes: &[u8]) -> u64 {
        Self::hash_with_seed(self.seed, bytes)
    }

    #[inline]
    fn round(acc: u64, input: u64) -> u64 {
        acc.wrapping_add(input.wrapping_mul(PRIME64_2))
            .rotate_left(31)
            .wrapping_mul(PRIME64_1)
    }

    #[inline]
    fn merge_round(acc: u64, val: u64) -> u64 {
        (acc ^ Self::round(0, val))
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4)
    }

    #[inline]
    fn avalanche(mut h: u64) -> u64 {
        h ^= h >> 33;
        h = h.wrapping_mul(PRIME64_2);
        h ^= h >> 29;
        h = h.wrapping_mul(PRIME64_3);
        h ^ (h >> 32)
    }

    fn hash_with_seed(seed: u64, input: &[u8]) -> u64 {
        let len = input.len();
        let mut h: u64;
        let mut rest = input;

        if len >= 32 {
            let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
            let mut v2 = seed.wrapping_add(PRIME64_2);
            let mut v3 = seed;
            let mut v4 = seed.wrapping_sub(PRIME64_1);

            while rest.len() >= 32 {
                v1 = Self::round(v1, read_u64(&rest[0..8]));
                v2 = Self::round(v2, read_u64(&rest[8..16]));
                v3 = Self::round(v3, read_u64(&rest[16..24]));
                v4 = Self::round(v4, read_u64(&rest[24..32]));
                rest = &rest[32..];
            }

            h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            h = Self::merge_round(h, v1);
            h = Self::merge_round(h, v2);
            h = Self::merge_round(h, v3);
            h = Self::merge_round(h, v4);
        } else {
            h = seed.wrapping_add(PRIME64_5);
        }

        h = h.wrapping_add(len as u64);

        while rest.len() >= 8 {
            let k1 = Self::round(0, read_u64(&rest[..8]));
            h = (h ^ k1).rotate_left(27).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            let k = u64::from(read_u32(&rest[..4]));
            h = (h ^ k.wrapping_mul(PRIME64_1))
                .rotate_left(23)
                .wrapping_mul(PRIME64_2)
                .wrapping_add(PRIME64_3);
            rest = &rest[4..];
        }
        for &byte in rest {
            h = (h ^ u64::from(byte).wrapping_mul(PRIME64_5))
                .rotate_left(11)
                .wrapping_mul(PRIME64_1);
        }

        Self::avalanche(h)
    }
}

#[inline]
fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte slice"))
}

#[inline]
fn read_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("4-byte slice"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Official XXH64 sanity vectors from the xxHash repository
    /// (`xxhsum --benchAll` sanity checks and widely mirrored test suites).
    #[test]
    fn known_answer_vectors() {
        let h0 = XxHash64::new();
        assert_eq!(h0.hash_bytes(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(h0.hash_bytes(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(h0.hash_bytes(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            h0.hash_bytes(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn seeded_vectors() {
        // XXH64("", seed=1) regression vector (implementation validated by
        // the official seed-0 vectors above).
        assert_eq!(XxHash64::with_seed(1).hash_bytes(b""), 0xD5AF_BA13_36A3_BE4B);
        // Seeds must change the output for all lengths.
        for len in 0..70usize {
            let data = vec![0xABu8; len];
            assert_ne!(
                XxHash64::with_seed(0).hash_bytes(&data),
                XxHash64::with_seed(1).hash_bytes(&data),
                "seed had no effect at length {len}"
            );
        }
    }

    #[test]
    fn exercises_all_tail_paths() {
        // Lengths crossing stripe (32), lane (8) and word (4) boundaries.
        let data: Vec<u8> = (0..100u8).collect();
        let h = XxHash64::new();
        let mut outputs = std::collections::HashSet::new();
        for len in 0..data.len() {
            assert!(outputs.insert(h.hash_bytes(&data[..len])), "collision at length {len}");
        }
    }

    #[test]
    fn long_input_stable() {
        let data = vec![0x5Au8; 4096];
        let a = XxHash64::with_seed(7).hash_bytes(&data);
        let b = XxHash64::with_seed(7).hash_bytes(&data);
        assert_eq!(a, b);
    }
}
