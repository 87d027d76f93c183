//! The circular-hypervector codebook and the `Enc` function (Eq. 1).

use std::sync::Arc;

use hdhash_hashfn::XxHash64;
use hdhash_hdc::basis::{CircularBasis, FlipStrategy};
use hdhash_hdc::{Hypervector, Rng};

/// The set `C = {c₁, …, cₙ}` of circular-hypervectors together with the
/// conventional hash `h(·)`, implementing `Enc(x) = C[h(x) mod n]`.
///
/// Both servers and requests are encoded through the same codebook, so two
/// inputs whose hashes land on nearby circle nodes receive similar
/// hypervectors — the geometric foundation of HD hashing.
///
/// The basis is immutable once generated and shared behind an [`Arc`], so
/// cloning a codebook — and therefore cloning a whole
/// [`HdHashTable`](crate::HdHashTable), as the serving layer's
/// epoch-snapshot publication does per reconfiguration — never copies the
/// `n × d`-bit basis, only bumps one reference count. `h` is XXH64 at
/// seed 0.
///
/// # Examples
///
/// ```
/// use hdhash_core::Codebook;
///
/// let codebook = Codebook::generate(64, 4096, 7);
/// let (slot, hv) = codebook.encode(b"server-1");
/// assert!(slot < 64);
/// assert_eq!(hv.dimension(), 4096);
/// ```
#[derive(Clone)]
pub struct Codebook {
    basis: Arc<CircularBasis>,
    hasher: XxHash64,
}

impl core::fmt::Debug for Codebook {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Codebook")
            .field("n", &self.basis.len())
            .field("d", &self.basis.dimension())
            .finish()
    }
}

impl Codebook {
    /// Generates a codebook of `n` circular-hypervectors of dimension `d`
    /// using the default construction, seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the circular basis parameters are invalid (`n < 2` or
    /// `d < 2·n`); construct via [`HdConfig`](crate::HdConfig) for
    /// validated building.
    #[must_use]
    pub fn generate(n: usize, d: usize, seed: u64) -> Self {
        Self::generate_with(n, d, FlipStrategy::Partition, seed)
    }

    /// Generates a codebook with an explicit flip strategy.
    ///
    /// # Panics
    ///
    /// Panics if the circular basis parameters are invalid.
    #[must_use]
    pub fn generate_with(n: usize, d: usize, strategy: FlipStrategy, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let basis = CircularBasis::generate_with_strategy(n, d, strategy, &mut rng)
            .expect("validated codebook parameters");
        Self { basis: Arc::new(basis), hasher: XxHash64::with_seed(0) }
    }

    /// Codebook cardinality `n`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.basis.len()
    }

    /// Whether the codebook is empty (never true once constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.basis.is_empty()
    }

    /// Hypervector dimensionality `d`.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.basis.dimension()
    }

    /// The circle slot an input hashes to: `h(x) mod n`.
    #[must_use]
    pub fn slot_of(&self, bytes: &[u8]) -> usize {
        (self.hasher.hash_bytes(bytes) % self.len() as u64) as usize
    }

    /// `Enc(x)`: the slot and its hypervector (Eq. 1).
    #[must_use]
    pub fn encode(&self, bytes: &[u8]) -> (usize, &Hypervector) {
        let slot = self.slot_of(bytes);
        (slot, &self.basis[slot])
    }

    /// The hypervector at a specific slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= n`.
    #[must_use]
    pub fn hypervector(&self, slot: usize) -> &Hypervector {
        &self.basis[slot]
    }

    /// Circular distance between two slots.
    #[must_use]
    pub fn circular_distance(&self, a: usize, b: usize) -> usize {
        self.basis.circular_distance(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdhash_hdc::similarity::cosine;

    #[test]
    fn encode_is_deterministic_and_in_range() {
        let cb = Codebook::generate(32, 2048, 3);
        assert_eq!(cb.len(), 32);
        assert!(!cb.is_empty());
        assert_eq!(cb.dimension(), 2048);
        for key in 0..200u64 {
            let (s1, h1) = cb.encode(&key.to_le_bytes());
            let (s2, h2) = cb.encode(&key.to_le_bytes());
            assert_eq!(s1, s2);
            assert_eq!(h1, h2);
            assert!(s1 < 32);
        }
    }

    #[test]
    fn nearby_slots_are_similar() {
        let cb = Codebook::generate(64, 8192, 4);
        for slot in 0..64 {
            let here = cb.hypervector(slot);
            let next = cb.hypervector((slot + 1) % 64);
            let far = cb.hypervector((slot + 32) % 64);
            assert!(cosine(here, next) > cosine(here, far));
        }
    }

    #[test]
    fn slots_cover_range_uniformly() {
        let cb = Codebook::generate(16, 1024, 5);
        let mut counts = [0usize; 16];
        for key in 0..16_000u64 {
            counts[cb.slot_of(&key.to_le_bytes())] += 1;
        }
        for (slot, &c) in counts.iter().enumerate() {
            assert!((800..1200).contains(&c), "slot {slot} count {c}");
        }
    }

    #[test]
    fn same_seed_same_codebook() {
        let a = Codebook::generate(8, 512, 42);
        let b = Codebook::generate(8, 512, 42);
        for slot in 0..8 {
            assert_eq!(a.hypervector(slot), b.hypervector(slot));
        }
    }

    #[test]
    fn different_seed_different_codebook() {
        let a = Codebook::generate(8, 512, 1);
        let b = Codebook::generate(8, 512, 2);
        assert_ne!(a.hypervector(0), b.hypervector(0));
    }

    #[test]
    fn clone_shares_basis_storage() {
        let a = Codebook::generate(16, 1024, 9);
        let b = a.clone();
        // The clone answers identically…
        for key in 0..100u64 {
            assert_eq!(a.slot_of(&key.to_le_bytes()), b.slot_of(&key.to_le_bytes()));
        }
        for slot in 0..16 {
            assert_eq!(a.hypervector(slot), b.hypervector(slot));
        }
        // …without duplicating the n × d basis (Arc-shared).
        assert!(std::sync::Arc::ptr_eq(&a.basis, &b.basis));
    }

    #[test]
    fn circular_distance_delegates() {
        let cb = Codebook::generate(10, 512, 6);
        assert_eq!(cb.circular_distance(0, 9), 1);
        assert_eq!(cb.circular_distance(0, 5), 5);
    }
}
