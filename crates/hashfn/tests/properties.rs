//! Property-based tests for the table hash and the seeding generator.

use hdhash_hashfn::{SplitMix64, XxHash64};
use proptest::prelude::*;

proptest! {
    /// Hashing is a pure function: equal inputs give equal outputs.
    #[test]
    fn deterministic(data in proptest::collection::vec(any::<u8>(), 0..256), seed in any::<u64>()) {
        let h = XxHash64::with_seed(seed);
        prop_assert_eq!(h.hash_bytes(&data), h.hash_bytes(&data));
    }

    /// Appending a byte essentially never preserves the digest
    /// (collision would require a 1-in-2^64 event; treat as failure).
    #[test]
    fn extension_changes_digest(data in proptest::collection::vec(any::<u8>(), 0..128), tail in any::<u8>()) {
        let h = XxHash64::new();
        let mut extended = data.clone();
        extended.push(tail);
        prop_assert_ne!(h.hash_bytes(&data), h.hash_bytes(&extended));
    }

    /// Distinct `u64` keys, hashed as the tables hash them (little-endian
    /// bytes), collide essentially never.
    #[test]
    fn distinct_u64_keys_do_not_collide(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let h = XxHash64::new();
        prop_assert_ne!(h.hash_bytes(&a.to_le_bytes()), h.hash_bytes(&b.to_le_bytes()));
    }

    /// SplitMix64's bounded sampler respects its bound for arbitrary bounds.
    #[test]
    fn next_below_in_range(seed in any::<u64>(), bound in 1u64..=u64::MAX) {
        let mut rng = SplitMix64::new(seed);
        let x = rng.next_below(bound);
        prop_assert!(x < bound);
    }
}
