//! Exactness of incremental membership maintenance: counter-plane
//! add/remove must be **byte-identical** to from-scratch re-bundling over
//! any interleaving of additions and retractions — the property that lets
//! the classifier update `O(log n)` planes per membership change instead
//! of re-bundling the full membership.

use hdhash_hdc::accumulator::BundleAccumulator;
use hdhash_hdc::maintenance::MembershipCentroid;
use hdhash_hdc::ops::MajorityBundler;
use hdhash_hdc::{CentroidClassifier, Hypervector, Rng};
use proptest::prelude::*;

/// Dimensions biased toward word-boundary edge cases.
fn dims() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(63), Just(64), Just(65), Just(129), 2usize..500, Just(10_000)]
}

/// An interleaving script: `(slot, remove)` pairs over a small pool of
/// candidate hypervectors. Adds push the slot's vector; removes retract
/// the earliest still-present copy (skipped when none is present).
fn scripts() -> impl Strategy<Value = Vec<(u8, bool)>> {
    prop::collection::vec((0u8..6, any::<bool>()), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The incremental centroid equals the integer-counter accumulator
    /// rebuilt from scratch after every single step of any add/remove
    /// interleaving — odd counts, even counts (parity ties) and the
    /// empty membership included.
    #[test]
    fn centroid_equals_from_scratch_rebundle(
        seed in any::<u64>(),
        d in dims(),
        script in scripts(),
    ) {
        let mut rng = Rng::new(seed);
        let pool: Vec<Hypervector> =
            (0..6).map(|_| Hypervector::random(d, &mut rng)).collect();
        let mut centroid = MembershipCentroid::new(d);
        let mut present: Vec<usize> = Vec::new(); // pool indices, add order
        for &(slot, remove) in &script {
            let slot = slot as usize;
            if remove {
                let Some(pos) = present.iter().position(|&p| p == slot) else {
                    continue;
                };
                present.remove(pos);
                centroid.remove(&pool[slot]).unwrap();
            } else {
                present.push(slot);
                centroid.add(&pool[slot]).unwrap();
            }
            // From-scratch reference over the current multiset.
            let mut scratch = BundleAccumulator::new(d);
            for &p in &present {
                scratch.add(&pool[p]).unwrap();
            }
            prop_assert_eq!(centroid.members(), present.len());
            prop_assert_eq!(
                centroid.read().to_bytes(),
                scratch.to_hypervector().to_bytes(),
                "diverged at members={}",
                present.len()
            );
        }
    }

    /// `MajorityBundler::subtract` is the exact inverse of `add`: after
    /// adding a base set plus churn and retracting the churn (in any
    /// order), the majority readout equals the base-only bundler's.
    #[test]
    fn bundler_subtract_inverts_add(
        seed in any::<u64>(),
        d in dims(),
        base_n in 1usize..8,
        churn_n in 1usize..8,
    ) {
        let mut rng = Rng::new(seed);
        let base: Vec<Hypervector> =
            (0..base_n).map(|_| Hypervector::random(d, &mut rng)).collect();
        let churn: Vec<Hypervector> =
            (0..churn_n).map(|_| Hypervector::random(d, &mut rng)).collect();
        let mut churned = MajorityBundler::new(d);
        for hv in &base {
            churned.add(hv).unwrap();
        }
        for hv in &churn {
            churned.add(hv).unwrap();
        }
        // Retract in reverse order (any order works; reverse is one).
        for hv in churn.iter().rev() {
            churned.subtract(hv).unwrap();
        }
        let mut clean = MajorityBundler::new(d);
        for hv in &base {
            clean.add(hv).unwrap();
        }
        prop_assert_eq!(churned.members(), base_n);
        prop_assert_eq!(
            churned.majority(None).to_bytes(),
            clean.majority(None).to_bytes()
        );
    }

    /// Classifier prototypes under observe/forget churn equal a
    /// classifier trained from scratch on the surviving observations.
    #[test]
    fn classifier_churn_equals_from_scratch(
        seed in any::<u64>(),
        d in dims(),
        script in scripts(),
    ) {
        let mut rng = Rng::new(seed);
        // Two labels, three observation variants each.
        let pool: Vec<(u8, Hypervector)> = (0..6u8)
            .map(|i| (i % 2, Hypervector::random(d, &mut rng)))
            .collect();
        let mut churned: CentroidClassifier<u8> = CentroidClassifier::new(d);
        let mut present: Vec<usize> = Vec::new();
        for &(slot, remove) in &script {
            let slot = slot as usize;
            let (label, hv) = &pool[slot];
            if remove {
                let Some(pos) = present.iter().position(|&p| p == slot) else {
                    continue;
                };
                present.remove(pos);
                prop_assert!(churned.forget(label, hv).unwrap());
            } else {
                present.push(slot);
                churned.observe(*label, hv).unwrap();
            }
        }
        let mut scratch: CentroidClassifier<u8> = CentroidClassifier::new(d);
        for &p in &present {
            let (label, hv) = &pool[p];
            scratch.observe(*label, hv).unwrap();
        }
        prop_assert_eq!(churned.observation_count(), present.len());
        prop_assert_eq!(churned.class_count(), scratch.class_count());
        for label in [0u8, 1] {
            let a = churned.prototype(&label).map(|hv| hv.to_bytes());
            let b = scratch.prototype(&label).map(|hv| hv.to_bytes());
            prop_assert_eq!(a, b, "label {} prototype diverged", label);
        }
    }
}
