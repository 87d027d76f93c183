//! Incremental membership maintenance: counter-plane centroids.
//!
//! Online HDC systems keep a *bundled summary* of a changing membership —
//! a classifier's per-class prototype, for one — and the naive discipline re-bundles the full membership on every change:
//! `O(n · d)` scalar work to add or remove one member. This module makes
//! that churn incremental by standing the summary on
//! [`MajorityBundler`]'s transposed counter
//! planes: adding a member is a ripple-carry plane update, removing one is
//! the ripple-borrow inverse — both `O(words · log n)` bitwise ops — and
//! the majority readout is the bit-sliced comparator, never a per-bit
//! loop.
//!
//! [`MembershipCentroid`] reproduces, **bit for bit**, the prototype the
//! integer-counter [`BundleAccumulator`](crate::accumulator::BundleAccumulator)
//! would compute from scratch over the same multiset (bipolar threshold,
//! exact-tie resolution by dimension-index parity). The property suite
//! (`tests/incremental_maintenance.rs`) drives random add/remove
//! interleavings against the from-scratch construction to pin that claim.

use crate::hypervector::{DimensionMismatchError, Hypervector};
use crate::ops::MajorityBundler;

/// An incrementally maintained majority centroid over a changing
/// membership of hypervectors.
///
/// Semantics match thresholding the bipolar counters of a
/// [`BundleAccumulator`](crate::accumulator::BundleAccumulator) holding
/// the same multiset: bit `i` of [`read`](Self::read) is 1 iff more
/// members vote 1 than 0 in dimension `i`, with exact ties (even member
/// counts only) resolved by the fixed dimension-index parity pattern.
/// The empty centroid reads as the parity pattern itself, again matching
/// the accumulator.
///
/// # Examples
///
/// ```
/// use hdhash_hdc::{maintenance::MembershipCentroid, Hypervector, Rng};
///
/// let mut rng = Rng::new(5);
/// let members: Vec<Hypervector> =
///     (0..5).map(|_| Hypervector::random(2048, &mut rng)).collect();
/// let mut centroid = MembershipCentroid::new(2048);
/// for hv in &members {
///     centroid.add(hv)?;
/// }
/// let with_all = centroid.read();
/// // Removing and re-adding a member is an exact no-op.
/// centroid.remove(&members[2])?;
/// centroid.add(&members[2])?;
/// assert_eq!(centroid.read(), with_all);
/// # Ok::<(), hdhash_hdc::DimensionMismatchError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MembershipCentroid {
    bundler: MajorityBundler,
    /// The fixed exact-tie pattern: bit `i` set iff `i` is even — the
    /// same unbiased, RNG-free tie-break the integer accumulator uses.
    parity: Hypervector,
}

impl MembershipCentroid {
    /// Creates an empty centroid for dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn new(d: usize) -> Self {
        let mut parity = Hypervector::zeros(d);
        for i in (0..d).step_by(2) {
            parity.set_bit(i, true);
        }
        Self { bundler: MajorityBundler::new(d), parity }
    }

    /// Dimensionality.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.bundler.dimension()
    }

    /// Current member count.
    #[must_use]
    pub fn members(&self) -> usize {
        self.bundler.members()
    }

    /// Whether no members are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bundler.members() == 0
    }

    /// Adds one member's votes (`O(words · log n)` plane update).
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] on dimension mismatch.
    pub fn add(&mut self, hv: &Hypervector) -> Result<(), DimensionMismatchError> {
        self.bundler.add(hv)
    }

    /// Removes one previously added member's votes (`O(words · log n)`
    /// ripple-borrow plane update).
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] on dimension mismatch.
    ///
    /// # Panics
    ///
    /// Panics if the centroid is empty or `hv` was never added (counter
    /// underflow).
    pub fn remove(&mut self, hv: &Hypervector) -> Result<(), DimensionMismatchError> {
        self.bundler.subtract(hv)
    }

    /// Clears the membership, keeping plane storage for reuse.
    pub fn clear(&mut self) {
        self.bundler.reset();
    }

    /// Reads out the current majority centroid (bit-sliced comparator,
    /// `O(words · log n)`).
    ///
    /// Byte-identical to `BundleAccumulator::to_hypervector()` over the
    /// same multiset; the empty centroid reads as the parity pattern.
    #[must_use]
    pub fn read(&self) -> Hypervector {
        if self.bundler.members() == 0 {
            return self.parity.clone();
        }
        // A bipolar tie (as many 1-votes as 0-votes) only exists for even
        // member counts. For odd counts the comparator's `count == ⌊m/2⌋`
        // case means the 0-votes won by one, so no tie vector may apply.
        let tie =
            if self.bundler.members().is_multiple_of(2) { Some(&self.parity) } else { None };
        self.bundler.majority(tie)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::BundleAccumulator;
    use crate::rng::Rng;

    fn from_scratch(members: &[Hypervector], d: usize) -> Hypervector {
        let mut acc = BundleAccumulator::new(d);
        for hv in members {
            acc.add(hv).expect("dims");
        }
        acc.to_hypervector()
    }

    #[test]
    fn matches_accumulator_for_odd_and_even_counts() {
        let mut rng = Rng::new(1);
        for d in [63usize, 64, 65, 130, 1000] {
            let members: Vec<Hypervector> =
                (0..6).map(|_| Hypervector::random(d, &mut rng)).collect();
            let mut centroid = MembershipCentroid::new(d);
            for (i, hv) in members.iter().enumerate() {
                centroid.add(hv).expect("dims");
                assert_eq!(
                    centroid.read(),
                    from_scratch(&members[..=i], d),
                    "d={d} count={}",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn empty_reads_parity() {
        let centroid = MembershipCentroid::new(10);
        let hv = centroid.read();
        for i in 0..10 {
            assert_eq!(hv.bit(i), i % 2 == 0);
        }
        assert!(centroid.is_empty());
        assert_eq!(centroid.dimension(), 10);
    }

    #[test]
    fn remove_undoes_add_exactly() {
        let mut rng = Rng::new(2);
        let d = 512;
        let keep: Vec<Hypervector> = (0..3).map(|_| Hypervector::random(d, &mut rng)).collect();
        let churn: Vec<Hypervector> = (0..4).map(|_| Hypervector::random(d, &mut rng)).collect();
        let mut centroid = MembershipCentroid::new(d);
        for hv in &keep {
            centroid.add(hv).expect("dims");
        }
        let baseline = centroid.read();
        for hv in &churn {
            centroid.add(hv).expect("dims");
        }
        for hv in &churn {
            centroid.remove(hv).expect("dims");
        }
        assert_eq!(centroid.members(), 3);
        assert_eq!(centroid.read(), baseline);
    }

    #[test]
    fn clear_resets_membership() {
        let mut rng = Rng::new(3);
        let mut centroid = MembershipCentroid::new(128);
        let a = Hypervector::random(128, &mut rng);
        centroid.add(&a).expect("dims");
        centroid.clear();
        assert!(centroid.is_empty());
        let b = Hypervector::random(128, &mut rng);
        centroid.add(&b).expect("dims");
        assert_eq!(centroid.read(), b, "stale planes leaked through clear");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn removing_a_stranger_panics() {
        let d = 64;
        let mut centroid = MembershipCentroid::new(d);
        centroid.add(&Hypervector::zeros(d)).expect("dims");
        let _ = centroid.remove(&Hypervector::ones(d));
    }

    #[test]
    fn dimension_mismatch_errors() {
        let mut centroid = MembershipCentroid::new(64);
        assert!(centroid.add(&Hypervector::zeros(65)).is_err());
        assert!(centroid.is_empty());
    }
}
