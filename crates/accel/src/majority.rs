//! Binarized bundling: majority by a tree of 3-input majority gates.
//!
//! Bundling `k` hypervectors exactly requires, per dimension, a counter
//! wide enough to hold `k` votes and a final threshold — `k − 1`
//! full-adder equivalents per bit. Schmuck et al.'s *binarized bundling*
//! replaces the counters with a tree of single-gate 3-input majorities
//! evaluated on **binary partial results**: far cheaper (one gate per
//! reduction step, no carries) at the cost of *fidelity* — the tree
//! result is a good but inexact approximation of the true bitwise
//! majority. This module implements both, quantifies the hardware saving
//! ([`BundlingCost`]) and exposes the fidelity for measurement
//! ([`agreement`]), which the tests pin to its analytic expectations.

use hdhash_hdc::{DimensionMismatchError, Hypervector};

/// The 3-input bitwise majority `(a∧b) ∨ (b∧c) ∨ (a∧c)` — one gate per
/// dimension in hardware, three AND/OR word operations here.
///
/// # Errors
///
/// Returns [`DimensionMismatchError`] if dimensions differ.
///
/// # Examples
///
/// ```
/// use hdhash_accel::majority::maj3;
/// use hdhash_hdc::Hypervector;
///
/// let a = Hypervector::ones(64);
/// let b = Hypervector::ones(64);
/// let c = Hypervector::zeros(64);
/// assert_eq!(maj3(&a, &b, &c)?, Hypervector::ones(64));
/// # Ok::<(), hdhash_hdc::DimensionMismatchError>(())
/// ```
pub fn maj3(
    a: &Hypervector,
    b: &Hypervector,
    c: &Hypervector,
) -> Result<Hypervector, DimensionMismatchError> {
    let d = a.dimension();
    for hv in [b, c] {
        if hv.dimension() != d {
            return Err(DimensionMismatchError { left: d, right: hv.dimension() });
        }
    }
    let mut out = Hypervector::zeros(d);
    for i in 0..d {
        let votes = u8::from(a.bit(i)) + u8::from(b.bit(i)) + u8::from(c.bit(i));
        out.set_bit(i, votes >= 2);
    }
    Ok(out)
}

/// Exact bitwise majority of an **odd** number of hypervectors (the
/// counter-based reference the binarized tree approximates).
///
/// # Errors
///
/// Returns [`DimensionMismatchError`] if any dimension differs from the
/// first.
///
/// # Panics
///
/// Panics if `inputs` is empty or has an even length — the hardware
/// comparison is only meaningful where the exact majority is tie-free.
pub fn exact_majority(inputs: &[&Hypervector]) -> Result<Hypervector, DimensionMismatchError> {
    assert!(!inputs.is_empty(), "majority of zero hypervectors is undefined");
    assert!(inputs.len() % 2 == 1, "exact majority requires an odd input count");
    let d = inputs[0].dimension();
    for hv in inputs {
        if hv.dimension() != d {
            return Err(DimensionMismatchError { left: d, right: hv.dimension() });
        }
    }
    let half = inputs.len() / 2;
    let mut out = Hypervector::zeros(d);
    for i in 0..d {
        let votes = inputs.iter().filter(|hv| hv.bit(i)).count();
        out.set_bit(i, votes > half);
    }
    Ok(out)
}

/// Binarized bundling: reduce the inputs with a tree of [`maj3`] gates.
///
/// Levels consume operands three at a time; one or two leftovers pass to
/// the next level. When exactly two operands remain, the final gate votes
/// with `tie`, the auxiliary random vector of the binarized-bundling
/// scheme (for odd input counts the tie vector never decides alone — it
/// only arbitrates the two-operand tail the tree structure produces).
///
/// # Errors
///
/// Returns [`DimensionMismatchError`] if any dimension differs.
///
/// # Panics
///
/// Panics if `inputs` is empty.
pub fn binarized_bundle(
    inputs: &[&Hypervector],
    tie: &Hypervector,
) -> Result<Hypervector, DimensionMismatchError> {
    assert!(!inputs.is_empty(), "bundle of zero hypervectors is undefined");
    let d = inputs[0].dimension();
    for hv in inputs.iter().copied().chain([tie]) {
        if hv.dimension() != d {
            return Err(DimensionMismatchError { left: d, right: hv.dimension() });
        }
    }
    let mut level: Vec<Hypervector> = inputs.iter().map(|hv| (*hv).clone()).collect();
    while level.len() > 1 {
        if level.len() == 2 {
            return maj3(&level[0], &level[1], tie);
        }
        let mut next = Vec::with_capacity(level.len().div_ceil(3));
        for chunk in level.chunks(3) {
            match chunk {
                [a, b, c] => next.push(maj3(a, b, c)?),
                rest => next.extend(rest.iter().cloned()),
            }
        }
        level = next;
    }
    Ok(level.remove(0))
}

/// Fraction of agreeing bits between two hypervectors (`1.0` = equal).
///
/// # Panics
///
/// Panics if dimensions differ.
#[must_use]
pub fn agreement(a: &Hypervector, b: &Hypervector) -> f64 {
    assert_eq!(a.dimension(), b.dimension(), "agreement requires equal dimensions");
    1.0 - a.hamming_distance(b) as f64 / a.dimension() as f64
}

/// Per-dimension hardware cost of bundling `k` vectors both ways.
///
/// # Examples
///
/// ```
/// use hdhash_accel::majority::BundlingCost;
///
/// let cost = BundlingCost::for_inputs(27);
/// // The binarized tree halves the logic of the counters it replaces —
/// // and a maj3 gate is one cell where a full adder is several.
/// assert!(cost.maj3_gates_per_bit * 2 <= cost.counter_fa_per_bit);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BundlingCost {
    /// Inputs being bundled.
    pub inputs: usize,
    /// Full-adder equivalents per dimension for the exact counter
    /// (`k − 1` increments).
    pub counter_fa_per_bit: usize,
    /// 3-input majority gates per dimension for the binarized tree.
    pub maj3_gates_per_bit: usize,
}

impl BundlingCost {
    /// Costs for bundling `k` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn for_inputs(k: usize) -> Self {
        assert!(k > 0, "bundling zero inputs is undefined");
        // Walk the same level structure binarized_bundle uses.
        let mut gates = 0usize;
        let mut len = k;
        while len > 1 {
            if len == 2 {
                gates += 1;
                len = 1;
            } else {
                gates += len / 3;
                len = len / 3 + len % 3;
            }
        }
        Self { inputs: k, counter_fa_per_bit: k - 1, maj3_gates_per_bit: gates }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdhash_hdc::Rng;

    fn random_set(k: usize, d: usize, seed: u64) -> Vec<Hypervector> {
        let mut rng = Rng::new(seed);
        (0..k).map(|_| Hypervector::random(d, &mut rng)).collect()
    }

    #[test]
    fn maj3_truth_table() {
        let o = Hypervector::ones(8);
        let z = Hypervector::zeros(8);
        assert_eq!(maj3(&o, &o, &o).expect("dims"), o);
        assert_eq!(maj3(&o, &o, &z).expect("dims"), o);
        assert_eq!(maj3(&o, &z, &z).expect("dims"), z);
        assert_eq!(maj3(&z, &z, &z).expect("dims"), z);
    }

    #[test]
    fn maj3_dimension_mismatch_errors() {
        let a = Hypervector::zeros(8);
        let b = Hypervector::zeros(9);
        assert!(maj3(&a, &a, &b).is_err());
        assert!(maj3(&a, &b, &a).is_err());
    }

    #[test]
    fn three_inputs_binarized_equals_exact() {
        // One gate *is* the exact majority of three.
        let set = random_set(3, 2048, 70);
        let refs: Vec<&Hypervector> = set.iter().collect();
        let tie = Hypervector::random(2048, &mut Rng::new(71));
        assert_eq!(
            binarized_bundle(&refs, &tie).expect("dims"),
            exact_majority(&refs).expect("dims")
        );
    }

    #[test]
    fn single_input_is_identity() {
        let set = random_set(1, 256, 72);
        let tie = Hypervector::zeros(256);
        assert_eq!(binarized_bundle(&[&set[0]], &tie).expect("dims"), set[0]);
    }

    #[test]
    fn nine_inputs_fidelity_matches_analysis() {
        // For nine iid uniform inputs the two-level maj3 tree agrees with
        // the exact majority on a clear supermajority of dimensions —
        // the documented fidelity trade of binarized bundling.
        let set = random_set(9, 10_000, 73);
        let refs: Vec<&Hypervector> = set.iter().collect();
        let tie = Hypervector::random(10_000, &mut Rng::new(74));
        let tree = binarized_bundle(&refs, &tie).expect("dims");
        let exact = exact_majority(&refs).expect("dims");
        let a = agreement(&tree, &exact);
        assert!(a > 0.70, "tree majority lost too much fidelity: {a:.3}");
        assert!(a < 1.00, "nine inputs cannot agree perfectly");
    }

    #[test]
    fn bundle_remains_similar_to_every_input() {
        // P(tree output = input bit) ≈ 0.625 for 9 inputs (¾ per maj3
        // level), well above the 0.5 of an unrelated vector.
        let set = random_set(9, 10_000, 75);
        let refs: Vec<&Hypervector> = set.iter().collect();
        let tie = Hypervector::random(10_000, &mut Rng::new(76));
        let tree = binarized_bundle(&refs, &tie).expect("dims");
        for (i, hv) in set.iter().enumerate() {
            let a = agreement(&tree, hv);
            assert!(a > 0.55, "input {i} decorrelated from its bundle: {a:.3}");
        }
        let unrelated = Hypervector::random(10_000, &mut Rng::new(77));
        assert!(agreement(&tree, &unrelated) < 0.55);
    }

    #[test]
    fn even_counts_use_the_tie_vector() {
        let set = random_set(2, 4096, 78);
        let tie = Hypervector::random(4096, &mut Rng::new(79));
        let out = binarized_bundle(&[&set[0], &set[1]], &tie).expect("dims");
        assert_eq!(out, maj3(&set[0], &set[1], &tie).expect("dims"));
    }

    #[test]
    #[should_panic(expected = "odd input count")]
    fn exact_majority_rejects_even_counts() {
        let set = random_set(4, 64, 80);
        let refs: Vec<&Hypervector> = set.iter().collect();
        let _ = exact_majority(&refs);
    }

    #[test]
    fn cost_model_counts_the_actual_tree() {
        // k=9: two full levels of 3 gates and 1 gate -> 3 + 1 = 4 gates.
        let c = BundlingCost::for_inputs(9);
        assert_eq!(c.maj3_gates_per_bit, 4);
        assert_eq!(c.counter_fa_per_bit, 8);
        // k=27: 9 + 3 + 1 = 13 gates vs 26 FA.
        let c = BundlingCost::for_inputs(27);
        assert_eq!(c.maj3_gates_per_bit, 13);
        assert_eq!(c.counter_fa_per_bit, 26);
        // Degenerate sizes.
        assert_eq!(BundlingCost::for_inputs(1).maj3_gates_per_bit, 0);
        assert_eq!(BundlingCost::for_inputs(2).maj3_gates_per_bit, 1);
    }

    #[test]
    fn cost_saving_grows_with_inputs() {
        for k in [9usize, 27, 81, 243] {
            let c = BundlingCost::for_inputs(k);
            assert!(
                c.maj3_gates_per_bit < c.counter_fa_per_bit / 2 + 1,
                "no saving at k={k}: {c:?}"
            );
        }
    }
}
