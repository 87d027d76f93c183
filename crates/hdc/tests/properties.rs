//! Property-based tests for the HDC substrate invariants.

use hdhash_hdc::accumulator::BundleAccumulator;
use hdhash_hdc::basis::{CircularBasis, FlipStrategy, LevelBasis, RandomBasis};
use hdhash_hdc::ops::{bind, bundle, permute, transformation};
use hdhash_hdc::similarity::{cosine, hamming, inverse_hamming};
use hdhash_hdc::{Hypervector, Rng};
use proptest::prelude::*;

fn dims() -> impl Strategy<Value = usize> {
    prop_oneof![Just(64usize), Just(65), 2usize..512, Just(1000)]
}

proptest! {
    /// Bind is an involution: (a ⊕ b) ⊕ b = a.
    #[test]
    fn bind_involution(seed in any::<u64>(), d in dims()) {
        let mut rng = Rng::new(seed);
        let a = Hypervector::random(d, &mut rng);
        let b = Hypervector::random(d, &mut rng);
        let roundtrip = bind(&bind(&a, &b).unwrap(), &b).unwrap();
        prop_assert_eq!(roundtrip, a);
    }

    /// Bind is commutative and associative.
    #[test]
    fn bind_algebra(seed in any::<u64>(), d in dims()) {
        let mut rng = Rng::new(seed);
        let a = Hypervector::random(d, &mut rng);
        let b = Hypervector::random(d, &mut rng);
        let c = Hypervector::random(d, &mut rng);
        prop_assert_eq!(bind(&a, &b).unwrap(), bind(&b, &a).unwrap());
        let left = bind(&bind(&a, &b).unwrap(), &c).unwrap();
        let right = bind(&a, &bind(&b, &c).unwrap()).unwrap();
        prop_assert_eq!(left, right);
    }

    /// Binding preserves pairwise distance.
    #[test]
    fn bind_isometry(seed in any::<u64>(), d in dims()) {
        let mut rng = Rng::new(seed);
        let a = Hypervector::random(d, &mut rng);
        let b = Hypervector::random(d, &mut rng);
        let c = Hypervector::random(d, &mut rng);
        let before = hamming(&a, &b);
        let after = hamming(&bind(&a, &c).unwrap(), &bind(&b, &c).unwrap());
        prop_assert_eq!(before, after);
    }

    /// Hamming distance is a metric: symmetry + triangle inequality.
    #[test]
    fn hamming_is_metric(seed in any::<u64>(), d in dims()) {
        let mut rng = Rng::new(seed);
        let a = Hypervector::random(d, &mut rng);
        let b = Hypervector::random(d, &mut rng);
        let c = Hypervector::random(d, &mut rng);
        prop_assert_eq!(hamming(&a, &b), hamming(&b, &a));
        prop_assert!(hamming(&a, &c) <= hamming(&a, &b) + hamming(&b, &c));
        prop_assert_eq!(hamming(&a, &a), 0);
    }

    /// Similarity bounds: inverse Hamming in [0,1], cosine in [-1,1], and
    /// the affine relation between them holds exactly.
    #[test]
    fn similarity_bounds(seed in any::<u64>(), d in dims()) {
        let mut rng = Rng::new(seed);
        let a = Hypervector::random(d, &mut rng);
        let b = Hypervector::random(d, &mut rng);
        let ih = inverse_hamming(&a, &b);
        let cs = cosine(&a, &b);
        prop_assert!((0.0..=1.0).contains(&ih));
        prop_assert!((-1.0..=1.0).contains(&cs));
        prop_assert!((cs - (2.0 * ih - 1.0)).abs() < 1e-12);
    }

    /// Permutation is a weight-preserving bijection with inverse rotation.
    #[test]
    fn permute_bijection(seed in any::<u64>(), d in dims(), shift in 0usize..2000) {
        let mut rng = Rng::new(seed);
        let a = Hypervector::random(d, &mut rng);
        let p = permute(&a, shift);
        prop_assert_eq!(p.count_ones(), a.count_ones());
        prop_assert_eq!(permute(&p, d - (shift % d)), a);
    }

    /// A transformation-hypervector has exactly the requested weight and
    /// moves a vector exactly that far.
    #[test]
    fn transformation_weight(seed in any::<u64>(), d in 8usize..512, frac in 0usize..8) {
        let mut rng = Rng::new(seed);
        let flips = (d * frac / 8).min(d);
        let t = transformation(d, flips, &mut rng);
        prop_assert_eq!(t.count_ones(), flips);
        let a = Hypervector::random(d, &mut rng);
        prop_assert_eq!(hamming(&a, &bind(&a, &t).unwrap()), flips);
    }

    /// Bundling odd sets: the majority is at least as close to every input
    /// as a random vector would be (distance strictly below d/2 + slack).
    #[test]
    fn bundle_similar_to_inputs(seed in any::<u64>(), k in 1usize..4) {
        let d = 2048;
        let count = 2 * k + 1;
        let mut rng = Rng::new(seed);
        let inputs: Vec<Hypervector> = (0..count).map(|_| Hypervector::random(d, &mut rng)).collect();
        let refs: Vec<&Hypervector> = inputs.iter().collect();
        let m = bundle(&refs, &mut rng).unwrap();
        for hv in &inputs {
            prop_assert!(hamming(&m, hv) < d / 2);
        }
    }

    /// Circular bases close the circle and are symmetric for any even n,
    /// with either strategy.
    #[test]
    fn circular_invariants(seed in any::<u64>(), half in 1usize..12, literal in any::<bool>()) {
        let n = 2 * half;
        let d = 4096;
        let mut rng = Rng::new(seed);
        let strategy = if literal {
            CircularBasis::paper_strategy(n, d)
        } else {
            FlipStrategy::Partition
        };
        let basis = CircularBasis::generate_with_strategy(n, d, strategy, &mut rng).unwrap();
        prop_assert_eq!(basis.len(), n);
        // Every member has the right dimension; wraparound edge exists.
        let wrap = hamming(&basis[n - 1], &basis[0]);
        let step = hamming(&basis[0], &basis[1]);
        // Both edges are single transformations: comparable weight.
        let tol = d / 8;
        prop_assert!(wrap <= step + tol && step <= wrap + tol,
            "wrap {} vs step {}", wrap, step);
    }

    /// Odd-cardinality circular sets obey the footnote and stay circular.
    #[test]
    fn circular_odd_footnote(seed in any::<u64>(), k in 1usize..8) {
        let n = 2 * k + 1;
        let d = 8192;
        let mut rng = Rng::new(seed);
        let basis = CircularBasis::generate(n, d, &mut rng).unwrap();
        prop_assert_eq!(basis.len(), n);
        let p: Vec<f64> = (0..n).map(|j| cosine(&basis[0], &basis[j])).collect();
        // Circular symmetry within loose tolerance.
        for j in 1..n {
            prop_assert!((p[j] - p[n - j]).abs() < 0.15, "profile {:?}", p);
        }
    }

    /// Level bases are monotone (partition strategy: exactly).
    #[test]
    fn level_monotone(seed in any::<u64>(), m in 2usize..16) {
        let d = 4096;
        let mut rng = Rng::new(seed);
        let basis = LevelBasis::generate(m, d, &mut rng).unwrap();
        let dists: Vec<usize> = (0..m).map(|j| hamming(&basis[0], &basis[j])).collect();
        for w in dists.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
        prop_assert_eq!(*dists.last().unwrap(), d / 2);
    }

    /// Random bases stay quasi-orthogonal.
    #[test]
    fn random_basis_orthogonality(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let basis = RandomBasis::generate(8, 8192, &mut rng).unwrap();
        for i in 0..8 {
            for j in (i + 1)..8 {
                prop_assert!(cosine(&basis[i], &basis[j]).abs() < 0.1);
            }
        }
    }
}

fn random_set(count: usize, d: usize, seed: u64) -> Vec<Hypervector> {
    let mut rng = Rng::new(seed);
    (0..count).map(|_| Hypervector::random(d, &mut rng)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The accumulator is a commutative group action: any interleaving of
    /// adds/subtracts with a net-zero churn returns to baseline.
    #[test]
    fn accumulator_group_property(seed in any::<u64>(), churn in 1usize..6) {
        let base = random_set(3, 1024, seed);
        let extra = random_set(churn, 1024, seed ^ 7);
        let mut acc = BundleAccumulator::new(1024);
        for hv in &base {
            acc.add(hv).expect("dims");
        }
        let baseline = acc.clone();
        // Interleave: add all extras, then retract them in reverse.
        for hv in &extra {
            acc.add(hv).expect("dims");
        }
        for hv in extra.iter().rev() {
            acc.subtract(hv).expect("dims");
        }
        prop_assert_eq!(acc, baseline);
    }

    /// Accumulator thresholding agrees with one-shot majority for any odd
    /// member count.
    #[test]
    fn accumulator_majority_agreement(seed in any::<u64>(), k in 0usize..4) {
        let inputs = random_set(2 * k + 1, 2048, seed);
        let mut acc = BundleAccumulator::new(2048);
        for hv in &inputs {
            acc.add(hv).expect("dims");
        }
        let refs: Vec<&Hypervector> = inputs.iter().collect();
        let mut rng = Rng::new(seed);
        let majority = hdhash_hdc::ops::bundle(&refs, &mut rng).expect("dims");
        prop_assert_eq!(acc.to_hypervector(), majority);
    }

    /// Byte round-trip across arbitrary dimensions.
    #[test]
    fn hypervector_bytes_roundtrip(seed in any::<u64>(), d in 1usize..600) {
        let mut rng = Rng::new(seed);
        let hv = Hypervector::random(d, &mut rng);
        let back = Hypervector::from_bytes(d, &hv.to_bytes()).expect("roundtrip");
        prop_assert_eq!(back, hv);
    }
}
