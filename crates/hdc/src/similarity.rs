//! Similarity metrics between hypervectors.
//!
//! The paper's Eq. 2 assigns a request to `argmax_s δ(Enc(s), Enc(r))`
//! where `δ` is "a given similarity metric between a pair of hypervectors
//! such as inverse Hamming distance or the cosine similarity". Both are
//! provided here. For dense binary vectors interpreted as bipolar (±1)
//! vectors the two induce the same ranking: `cos(a, b) = 1 − 2·ham/d`.

use crate::hypervector::Hypervector;

/// Which `δ` the arg-max of Eq. 2 uses.
///
/// For dense binary hypervectors these metrics are affinely related and
/// rank identically; both are offered because the paper names both and the
/// ablation benches compare their cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimilarityMetric {
    /// Inverse Hamming similarity `1 − ham/d` in `[0, 1]`.
    #[default]
    InverseHamming,
    /// Bipolar cosine similarity `1 − 2·ham/d` in `[−1, 1]`.
    Cosine,
}

impl SimilarityMetric {
    /// Evaluates the metric.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn evaluate(self, a: &Hypervector, b: &Hypervector) -> f64 {
        match self {
            SimilarityMetric::InverseHamming => inverse_hamming(a, b),
            SimilarityMetric::Cosine => cosine(a, b),
        }
    }

    /// Converts an integer Hamming distance into this metric's score.
    ///
    /// Bit-identical to [`evaluate`](Self::evaluate) (same floating-point
    /// expression over the same integers), which lets distance-only search
    /// kernels defer the float conversion to the single winning candidate.
    #[must_use]
    pub fn score_from_distance(self, distance: usize, dimension: usize) -> f64 {
        match self {
            SimilarityMetric::InverseHamming => {
                1.0 - distance as f64 / dimension as f64
            }
            SimilarityMetric::Cosine => 1.0 - 2.0 * distance as f64 / dimension as f64,
        }
    }
}

impl core::fmt::Display for SimilarityMetric {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimilarityMetric::InverseHamming => f.write_str("inverse-hamming"),
            SimilarityMetric::Cosine => f.write_str("cosine"),
        }
    }
}

/// Hamming distance (number of differing bits).
///
/// # Panics
///
/// Panics if the dimensions differ.
#[must_use]
pub fn hamming(a: &Hypervector, b: &Hypervector) -> usize {
    a.hamming_distance(b)
}

/// Inverse (normalized) Hamming similarity: `1 − ham(a, b) / d ∈ [0, 1]`.
///
/// # Panics
///
/// Panics if the dimensions differ.
///
/// # Examples
///
/// ```
/// use hdhash_hdc::{similarity::inverse_hamming, Hypervector};
///
/// let a = Hypervector::zeros(100);
/// assert_eq!(inverse_hamming(&a, &a), 1.0);
/// ```
#[must_use]
pub fn inverse_hamming(a: &Hypervector, b: &Hypervector) -> f64 {
    1.0 - hamming(a, b) as f64 / a.dimension() as f64
}

/// Bipolar cosine similarity.
///
/// Interpreting bits `{0, 1}` as bipolar `{−1, +1}` coordinates, the cosine
/// of the angle between two hypervectors is exactly `1 − 2·ham(a, b)/d`.
/// Identical vectors score `1`, antipodal vectors `−1`, and independent
/// random vectors concentrate near `0` — the scale used in the paper's
/// Figure 2 heatmaps.
///
/// # Panics
///
/// Panics if the dimensions differ.
#[must_use]
pub fn cosine(a: &Hypervector, b: &Hypervector) -> f64 {
    1.0 - 2.0 * hamming(a, b) as f64 / a.dimension() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn identical_vectors_max_similarity() {
        let mut rng = Rng::new(40);
        let a = Hypervector::random(1000, &mut rng);
        assert_eq!(hamming(&a, &a), 0);
        assert_eq!(inverse_hamming(&a, &a), 1.0);
        assert_eq!(cosine(&a, &a), 1.0);
    }

    #[test]
    fn antipodal_vectors_min_similarity() {
        let a = Hypervector::zeros(640);
        let b = Hypervector::ones(640);
        assert_eq!(inverse_hamming(&a, &b), 0.0);
        assert_eq!(cosine(&a, &b), -1.0);
    }

    #[test]
    fn random_pairs_concentrate_at_zero_cosine() {
        let mut rng = Rng::new(41);
        for _ in 0..10 {
            let a = Hypervector::random(10_000, &mut rng);
            let b = Hypervector::random(10_000, &mut rng);
            let c = cosine(&a, &b);
            assert!(c.abs() < 0.06, "cosine {c} too far from 0");
        }
    }

    #[test]
    fn metrics_rank_identically() {
        let mut rng = Rng::new(42);
        let probe = Hypervector::random(4096, &mut rng);
        let candidates: Vec<Hypervector> =
            (0..20).map(|_| Hypervector::random(4096, &mut rng)).collect();
        let best_ih = candidates
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                inverse_hamming(&probe, a).partial_cmp(&inverse_hamming(&probe, b)).expect("finite")
            })
            .map(|(i, _)| i);
        let best_cos = candidates
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                cosine(&probe, a).partial_cmp(&cosine(&probe, b)).expect("finite")
            })
            .map(|(i, _)| i);
        assert_eq!(best_ih, best_cos);
    }

    #[test]
    fn cosine_affine_relation_to_hamming() {
        let mut rng = Rng::new(43);
        let a = Hypervector::random(2048, &mut rng);
        let mut b = a.clone();
        b.flip_bits(rng.distinct_indices(512, 2048));
        assert_eq!(hamming(&a, &b), 512);
        let expected = 1.0 - 2.0 * 512.0 / 2048.0;
        assert!((cosine(&a, &b) - expected).abs() < 1e-12);
        assert!((inverse_hamming(&a, &b) - (1.0 - 512.0 / 2048.0)).abs() < 1e-12);
    }

    #[test]
    fn metric_enum_dispatch() {
        let mut rng = Rng::new(44);
        let a = Hypervector::random(512, &mut rng);
        let b = Hypervector::random(512, &mut rng);
        assert_eq!(SimilarityMetric::Cosine.evaluate(&a, &b), cosine(&a, &b));
        assert_eq!(
            SimilarityMetric::InverseHamming.evaluate(&a, &b),
            inverse_hamming(&a, &b)
        );
        assert_eq!(SimilarityMetric::default(), SimilarityMetric::InverseHamming);
        assert_eq!(SimilarityMetric::Cosine.to_string(), "cosine");
    }
}
