//! Incremental membership maintenance: counter-plane centroids.
//!
//! Online HDC systems keep a *bundled summary* of a changing membership —
//! a classifier's per-class prototype, a hash table's pool signature — and
//! the naive discipline re-bundles the full membership on every change:
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

/// The outcome of comparing two membership signatures
/// ([`signature_diff`]): the raw Hamming distance plus the verdict at the
/// caller's divergence threshold.
///
/// Anti-entropy protocols gossip the `d`-bit signature instead of member
/// lists; a delta with `diverged == false` means the replicas' slot-level
/// routing state agrees (for identical memberships the distance is exactly
/// zero — the centroid is a pure function of the encoding multiset), while
/// `diverged == true` triggers the expensive member-list exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureDelta {
    /// Exact Hamming distance between the two signatures.
    pub distance: usize,
    /// Dimensionality both signatures share.
    pub dimension: usize,
    /// The divergence threshold the verdict was taken at.
    pub threshold: usize,
    /// `distance > threshold`: the memberships should reconcile.
    pub diverged: bool,
}

impl SignatureDelta {
    /// The distance as a fraction of the dimension, in `[0, 1]`.
    #[must_use]
    pub fn normalized(&self) -> f64 {
        self.distance as f64 / self.dimension as f64
    }
}

/// Compares two membership signatures (as read from
/// [`MembershipCentroid::read`] or a table's `membership_signature()`),
/// returning the Hamming distance and a divergence verdict at `threshold`.
///
/// Identical membership multisets produce **identical** signatures, so
/// `distance == 0` and any threshold reports agreement — the protocol has
/// no false positives by construction. A single-member difference in a
/// high-dimensional pool perturbs on the order of `d / 2n` bits or more
/// (each member's votes touch every dimension), so small thresholds (a few
/// dozen bits at `d = 10_000`) keep false negatives out of reach; the
/// property suite in this module pins both directions.
///
/// # Examples
///
/// ```
/// use hdhash_hdc::{maintenance::signature_diff, Hypervector, MembershipCentroid, Rng};
///
/// let mut rng = Rng::new(3);
/// let members: Vec<Hypervector> =
///     (0..8).map(|_| Hypervector::random(4096, &mut rng)).collect();
/// let mut local = MembershipCentroid::new(4096);
/// let mut remote = MembershipCentroid::new(4096);
/// for hv in &members {
///     local.add(hv)?;
///     remote.add(hv)?;
/// }
/// // Identical memberships: distance is exactly zero at any threshold.
/// assert!(!signature_diff(&local.read(), &remote.read(), 0)?.diverged);
/// // One extra member on the remote: the delta trips the threshold.
/// remote.add(&Hypervector::random(4096, &mut rng))?;
/// assert!(signature_diff(&local.read(), &remote.read(), 32)?.diverged);
/// # Ok::<(), hdhash_hdc::DimensionMismatchError>(())
/// ```
///
/// # Errors
///
/// Returns [`DimensionMismatchError`] when the signatures disagree on `d`.
pub fn signature_diff(
    a: &Hypervector,
    b: &Hypervector,
    threshold: usize,
) -> Result<SignatureDelta, DimensionMismatchError> {
    if a.dimension() != b.dimension() {
        return Err(DimensionMismatchError { left: a.dimension(), right: b.dimension() });
    }
    let distance = a.hamming_distance(b);
    Ok(SignatureDelta {
        distance,
        dimension: a.dimension(),
        threshold,
        diverged: distance > threshold,
    })
}

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

    #[test]
    fn signature_diff_no_false_positives_at_d10k() {
        // Two replicas that reached the same 32-member pool through
        // different interleavings read byte-identical signatures: distance
        // is exactly 0 and no threshold — including 0 — reports divergence.
        let d = 10_000;
        let mut rng = Rng::new(17);
        let members: Vec<Hypervector> =
            (0..32).map(|_| Hypervector::random(d, &mut rng)).collect();
        let mut a = MembershipCentroid::new(d);
        for hv in &members {
            a.add(hv).expect("dims");
        }
        // Replica b: add in reverse, churn one member in and out.
        let mut b = MembershipCentroid::new(d);
        for hv in members.iter().rev() {
            b.add(hv).expect("dims");
        }
        b.remove(&members[5]).expect("present");
        b.add(&members[5]).expect("dims");
        for threshold in [0usize, 10, 500] {
            let delta = signature_diff(&a.read(), &b.read(), threshold).expect("dims");
            assert_eq!(delta.distance, 0);
            assert!(!delta.diverged, "identical memberships must never diverge");
            assert_eq!(delta.normalized(), 0.0);
        }
    }

    #[test]
    fn signature_diff_no_false_negatives_at_d10k() {
        // Replicas differing by one member of 32 at d = 10k: the distance
        // lands far above any sane threshold, so the mismatch is caught.
        let d = 10_000;
        let mut rng = Rng::new(18);
        let members: Vec<Hypervector> =
            (0..32).map(|_| Hypervector::random(d, &mut rng)).collect();
        let straggler = Hypervector::random(d, &mut rng);
        let mut a = MembershipCentroid::new(d);
        let mut b = MembershipCentroid::new(d);
        for hv in &members {
            a.add(hv).expect("dims");
            b.add(hv).expect("dims");
        }
        b.add(&straggler).expect("dims");
        let delta = signature_diff(&a.read(), &b.read(), 64).expect("dims");
        assert!(
            delta.distance > 64,
            "one of 33 members must perturb ≫ 64 bits, got {}",
            delta.distance
        );
        assert!(delta.diverged);
        assert_eq!(delta.dimension, d);
        assert_eq!(delta.threshold, 64);
    }

    #[test]
    fn signature_diff_threshold_boundary_and_errors() {
        let d = 256;
        let a = Hypervector::zeros(d);
        let mut b = Hypervector::zeros(d);
        b.flip_bits([0, 1, 2]);
        // distance == threshold is still agreement; one past it diverges.
        let at = signature_diff(&a, &b, 3).expect("dims");
        assert_eq!((at.distance, at.diverged), (3, false));
        let past = signature_diff(&a, &b, 2).expect("dims");
        assert_eq!((past.distance, past.diverged), (3, true));
        assert!(signature_diff(&a, &Hypervector::zeros(255), 0).is_err());
    }
}
