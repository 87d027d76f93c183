//! Bit-packed dense binary hypervectors.
//!
//! A hypervector is a point in `{0,1}^d` with `d` in the thousands (the
//! paper and the HDC literature default to `d = 10_000`). Bits are packed
//! 64 per machine word so that binding (XOR) and Hamming distance
//! (XOR + popcount) are 64-way word-parallel — the CPU analogue of the
//! dimension-independent parallelism HDC hardware provides.

use crate::rng::Rng;

/// Error returned when two hypervectors of different dimensionality are
/// combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimensionMismatchError {
    /// Dimension of the left operand.
    pub left: usize,
    /// Dimension of the right operand.
    pub right: usize,
}

impl core::fmt::Display for DimensionMismatchError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "hypervector dimensions differ: {} vs {}", self.left, self.right)
    }
}

impl std::error::Error for DimensionMismatchError {}

/// A dense binary hypervector of fixed dimension `d`.
///
/// Bits beyond `d` in the last storage word are kept at zero (a maintained
/// invariant), so popcount-based distances never see garbage.
///
/// # Examples
///
/// ```
/// use hdhash_hdc::{Hypervector, Rng};
///
/// let mut rng = Rng::new(1);
/// let a = Hypervector::random(10_000, &mut rng);
/// let b = Hypervector::random(10_000, &mut rng);
/// // Random hypervectors are ~orthogonal: distance concentrates at d/2.
/// let dist = a.hamming_distance(&b);
/// assert!((4_700..5_300).contains(&dist));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Hypervector {
    dimension: usize,
    words: Vec<u64>,
}

impl Hypervector {
    /// Creates the all-zero hypervector of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn zeros(d: usize) -> Self {
        assert!(d > 0, "hypervector dimension must be positive");
        Self { dimension: d, words: vec![0; d.div_ceil(64)] }
    }

    /// Creates the all-one hypervector of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn ones(d: usize) -> Self {
        let mut hv = Self::zeros(d);
        for w in &mut hv.words {
            *w = u64::MAX;
        }
        hv.mask_tail();
        hv
    }

    /// Samples a hypervector uniformly from `{0,1}^d`.
    ///
    /// This is the paper's `random_hypervector(d)` (Algorithm 1, line 2).
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn random(d: usize, rng: &mut Rng) -> Self {
        let mut hv = Self::zeros(d);
        for w in &mut hv.words {
            *w = rng.next_u64();
        }
        hv.mask_tail();
        hv
    }

    /// The dimensionality `d`.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// The number of 64-bit storage words.
    #[must_use]
    pub fn word_len(&self) -> usize {
        self.words.len()
    }

    /// Read-only view of the packed words.
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Returns bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= d`.
    #[must_use]
    pub fn bit(&self, index: usize) -> bool {
        assert!(index < self.dimension, "bit index {index} out of range");
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Sets bit `index` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= d`.
    pub fn set_bit(&mut self, index: usize, value: bool) {
        assert!(index < self.dimension, "bit index {index} out of range");
        let mask = 1u64 << (index % 64);
        if value {
            self.words[index / 64] |= mask;
        } else {
            self.words[index / 64] &= !mask;
        }
    }

    /// Flips bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= d`.
    pub fn flip_bit(&mut self, index: usize) {
        assert!(index < self.dimension, "bit index {index} out of range");
        self.words[index / 64] ^= 1u64 << (index % 64);
    }

    /// Flips every bit listed in `indices`.
    ///
    /// Duplicate indices cancel pairwise (XOR semantics).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn flip_bits<I: IntoIterator<Item = usize>>(&mut self, indices: I) {
        for i in indices {
            self.flip_bit(i);
        }
    }

    /// Number of set bits, via the runtime-dispatched popcount kernel.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        hdhash_simdkernels::popcount_words(&self.words)
    }

    /// Hamming distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ; use [`try_hamming_distance`] for the
    /// fallible variant.
    ///
    /// [`try_hamming_distance`]: Hypervector::try_hamming_distance
    #[must_use]
    pub fn hamming_distance(&self, other: &Self) -> usize {
        self.try_hamming_distance(other).expect("dimension mismatch")
    }

    /// Hamming distance to `other`.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if the dimensions differ.
    pub fn try_hamming_distance(&self, other: &Self) -> Result<usize, DimensionMismatchError> {
        self.check_dims(other)?;
        Ok(hdhash_simdkernels::hamming_distance_words(&self.words, &other.words))
    }

    /// Hamming distance to `other`, abandoning the scan as soon as the
    /// running count exceeds `limit`.
    ///
    /// Returns `Some(distance)` when `distance <= limit`, `None` once the
    /// partial count passes `limit` (without finishing the scan). This is
    /// the kernel behind best-so-far pruning in nearest-neighbour search:
    /// most candidates are abandoned after a fraction of their words.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use hdhash_hdc::{Hypervector, Rng};
    ///
    /// let mut rng = Rng::new(9);
    /// let a = Hypervector::random(10_000, &mut rng);
    /// let b = Hypervector::random(10_000, &mut rng);
    /// let d = a.hamming_distance(&b);
    /// assert_eq!(a.hamming_distance_within(&b, d), Some(d));
    /// assert_eq!(a.hamming_distance_within(&b, d - 1), None);
    /// ```
    #[must_use]
    pub fn hamming_distance_within(&self, other: &Self, limit: usize) -> Option<usize> {
        assert_eq!(self.dimension, other.dimension, "dimension mismatch");
        hamming_words_within(&self.words, &other.words, limit)
    }

    /// In-place XOR (the HDC *bind* operation).
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if the dimensions differ.
    pub fn xor_assign(&mut self, other: &Self) -> Result<(), DimensionMismatchError> {
        self.check_dims(other)?;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
        Ok(())
    }

    /// Returns `self XOR other` as a new hypervector.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if the dimensions differ.
    pub fn xor(&self, other: &Self) -> Result<Self, DimensionMismatchError> {
        let mut out = self.clone();
        out.xor_assign(other)?;
        Ok(out)
    }

    /// Inverts every bit (maps to the antipodal point).
    pub fn invert(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Iterator over the bits as `bool`s, LSB-first per word.
    pub fn iter_bits(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.dimension).map(move |i| self.bit(i))
    }

    /// Serializes to little-endian bytes (`ceil(d/8)` of them), LSB-first.
    ///
    /// Round-trips through [`from_bytes`](Hypervector::from_bytes); a
    /// stable wire format for persisting codebooks.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.dimension.div_ceil(8));
        for word in &self.words {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.truncate(self.dimension.div_ceil(8));
        out
    }

    /// Deserializes from the [`to_bytes`](Hypervector::to_bytes) format.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] (with `right` holding the byte
    /// capacity in bits) when `bytes` is too short for `d`, or when unused
    /// trailing bits are non-zero (corrupt input).
    pub fn from_bytes(d: usize, bytes: &[u8]) -> Result<Self, DimensionMismatchError> {
        assert!(d > 0, "hypervector dimension must be positive");
        if bytes.len() != d.div_ceil(8) {
            return Err(DimensionMismatchError { left: d, right: bytes.len() * 8 });
        }
        let mut hv = Self::zeros(d);
        for (i, chunk) in bytes.chunks(8).enumerate() {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            hv.words[i] = u64::from_le_bytes(word);
        }
        // Reject garbage in the unused tail rather than silently masking.
        let mut clean = hv.clone();
        clean.mask_tail();
        if clean != hv {
            return Err(DimensionMismatchError { left: d, right: bytes.len() * 8 });
        }
        Ok(hv)
    }

    /// Builds a hypervector directly from packed words (crate-internal:
    /// the word-parallel kernels assemble results word-wise).
    ///
    /// The caller must supply exactly `d.div_ceil(64)` words; the tail is
    /// re-masked here so the invariant can never leak.
    pub(crate) fn from_words(d: usize, words: Vec<u64>) -> Self {
        assert!(d > 0, "hypervector dimension must be positive");
        assert_eq!(words.len(), d.div_ceil(64), "word count mismatch");
        let mut hv = Self { dimension: d, words };
        hv.mask_tail();
        hv
    }

    fn check_dims(&self, other: &Self) -> Result<(), DimensionMismatchError> {
        if self.dimension == other.dimension {
            Ok(())
        } else {
            Err(DimensionMismatchError { left: self.dimension, right: other.dimension })
        }
    }

    /// Zeroes the unused bits of the last storage word (invariant keeper).
    fn mask_tail(&mut self) {
        let used = self.dimension % 64;
        if used != 0 {
            let last = self.words.len() - 1;
            self.words[last] &= (1u64 << used) - 1;
        }
    }
}

/// Word-level early-exit Hamming kernel shared by [`Hypervector`] and the
/// batched lookup engine: XOR + popcount in blocks of sixteen words
/// (1024 dimensions), checking the abandonment bound between blocks.
///
/// Delegates to `hdhash-simdkernels`, which installs the widest kernel
/// the running CPU supports (AVX2 where detected, portable scalar
/// otherwise) on first use.
#[inline]
pub(crate) fn hamming_words_within(a: &[u64], b: &[u64], limit: usize) -> Option<usize> {
    hdhash_simdkernels::hamming_within_words(a, b, limit)
}

impl core::fmt::Debug for Hypervector {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print ten thousand bits; show dimension, weight and a prefix.
        let prefix: String =
            self.iter_bits().take(16).map(|b| if b { '1' } else { '0' }).collect();
        write!(
            f,
            "Hypervector {{ d: {}, weight: {}, bits: {}… }}",
            self.dimension,
            self.count_ones(),
            prefix
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones_weights() {
        for d in [1usize, 63, 64, 65, 100, 10_000] {
            assert_eq!(Hypervector::zeros(d).count_ones(), 0);
            assert_eq!(Hypervector::ones(d).count_ones(), d, "d={d}");
        }
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dimension_panics() {
        let _ = Hypervector::zeros(0);
    }

    #[test]
    fn random_weight_concentrates() {
        let mut rng = Rng::new(4);
        let hv = Hypervector::random(10_000, &mut rng);
        let w = hv.count_ones();
        assert!((4_700..5_300).contains(&w), "weight {w}");
    }

    #[test]
    fn tail_bits_stay_zero() {
        let mut rng = Rng::new(8);
        for d in [1usize, 63, 65, 127, 130] {
            let mut hv = Hypervector::random(d, &mut rng);
            hv.invert();
            let last = *hv.as_words().last().expect("non-empty");
            let used = d % 64;
            if used != 0 {
                assert_eq!(last >> used, 0, "tail garbage at d={d}");
            }
            assert!(hv.count_ones() <= d);
        }
    }

    #[test]
    fn bit_set_get_roundtrip() {
        let mut hv = Hypervector::zeros(130);
        for i in [0usize, 1, 63, 64, 65, 128, 129] {
            assert!(!hv.bit(i));
            hv.set_bit(i, true);
            assert!(hv.bit(i));
            hv.flip_bit(i);
            assert!(!hv.bit(i));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        let _ = Hypervector::zeros(10).bit(10);
    }

    #[test]
    fn flip_bits_xor_semantics() {
        let mut hv = Hypervector::zeros(100);
        hv.flip_bits([3, 3, 5]);
        assert!(!hv.bit(3), "double flip should cancel");
        assert!(hv.bit(5));
        assert_eq!(hv.count_ones(), 1);
    }

    #[test]
    fn hamming_distance_basics() {
        let a = Hypervector::zeros(256);
        let b = Hypervector::ones(256);
        assert_eq!(a.hamming_distance(&b), 256);
        assert_eq!(a.hamming_distance(&a), 0);
        let mut c = a.clone();
        c.flip_bits([0, 100, 255]);
        assert_eq!(a.hamming_distance(&c), 3);
    }

    #[test]
    fn dimension_mismatch_is_error() {
        let a = Hypervector::zeros(64);
        let b = Hypervector::zeros(65);
        let err = a.try_hamming_distance(&b).expect_err("should mismatch");
        assert_eq!(err, DimensionMismatchError { left: 64, right: 65 });
        assert!(err.to_string().contains("64"));
    }

    #[test]
    fn xor_is_involution() {
        let mut rng = Rng::new(12);
        let a = Hypervector::random(1000, &mut rng);
        let b = Hypervector::random(1000, &mut rng);
        let bound = a.xor(&b).expect("dims");
        let unbound = bound.xor(&b).expect("dims");
        assert_eq!(unbound, a);
    }

    #[test]
    fn invert_is_antipodal() {
        let mut rng = Rng::new(13);
        let a = Hypervector::random(777, &mut rng);
        let mut b = a.clone();
        b.invert();
        assert_eq!(a.hamming_distance(&b), 777);
    }

    #[test]
    fn debug_is_compact_and_nonempty() {
        let hv = Hypervector::zeros(10_000);
        let s = format!("{hv:?}");
        assert!(s.contains("d: 10000"));
        assert!(s.len() < 120, "debug output too long: {}", s.len());
    }

    #[test]
    fn byte_serialization_roundtrips() {
        let mut rng = Rng::new(15);
        for d in [1usize, 7, 8, 9, 63, 64, 65, 1000, 10_000] {
            let hv = Hypervector::random(d, &mut rng);
            let bytes = hv.to_bytes();
            assert_eq!(bytes.len(), d.div_ceil(8));
            let back = Hypervector::from_bytes(d, &bytes).expect("roundtrip");
            assert_eq!(back, hv, "d={d}");
        }
    }

    #[test]
    fn from_bytes_rejects_bad_input() {
        // Wrong length.
        assert!(Hypervector::from_bytes(64, &[0u8; 7]).is_err());
        assert!(Hypervector::from_bytes(64, &[0u8; 9]).is_err());
        // Garbage in the unused tail bits (d=4 uses the low nibble only).
        assert!(Hypervector::from_bytes(4, &[0xF0]).is_err());
        assert!(Hypervector::from_bytes(4, &[0x0F]).is_ok());
    }

    #[test]
    fn iter_bits_matches_bit() {
        let mut rng = Rng::new(14);
        let hv = Hypervector::random(130, &mut rng);
        let collected: Vec<bool> = hv.iter_bits().collect();
        for (i, &b) in collected.iter().enumerate() {
            assert_eq!(b, hv.bit(i));
        }
    }
}
