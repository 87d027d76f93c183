//! A deep adder tree reducing `d` one-bit inputs to their sum (popcount).
//!
//! After the XOR stage of the combinational associative memory, the
//! Hamming distance of a probe against one stored vector is the population
//! count of `d` difference bits. Schmuck et al. compute it with a balanced
//! binary tree of ripple-carry adders whose width grows by one bit per
//! level ("deep adder trees") — `d - 1` adder nodes, `⌈log₂ d⌉` levels,
//! and a critical path that grows only *logarithmically* in `d`. That
//! logarithmic depth is the entire hardware case for the paper's `O(1)`
//! lookup: the whole reduction is combinational, no loop, no cycles.
//!
//! [`AdderTree`] is both the **cost model** (node counts, full-adder
//! equivalents, critical path) and a **functional simulator**
//! ([`AdderTree::reduce`]) whose dataflow mirrors the hardware exactly and
//! is tested to agree with a plain software popcount.

/// Structural model of a balanced binary adder tree over `inputs` one-bit
/// operands.
///
/// # Examples
///
/// ```
/// use hdhash_accel::AdderTree;
///
/// let tree = AdderTree::new(10_000);
/// assert_eq!(tree.depth(), 14);          // ⌈log₂ 10000⌉
/// assert_eq!(tree.node_count(), 9_999);  // one adder per reduction
/// // The final sum of 10k one-bit inputs needs 14 bits.
/// assert_eq!(tree.output_bits(), 14);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdderTree {
    inputs: usize,
}

impl AdderTree {
    /// Models a tree over `inputs` one-bit operands.
    ///
    /// # Panics
    ///
    /// Panics if `inputs == 0`.
    #[must_use]
    pub fn new(inputs: usize) -> Self {
        assert!(inputs > 0, "an adder tree needs at least one input");
        Self { inputs }
    }

    /// Number of one-bit inputs.
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of reduction levels, `⌈log₂ inputs⌉`.
    #[must_use]
    pub fn depth(&self) -> usize {
        usize::BITS as usize - (self.inputs - 1).leading_zeros() as usize
    }

    /// Total adder nodes (`inputs − 1`): each node reduces two operands to
    /// one.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.inputs - 1
    }

    /// Bit-width of the final sum, `⌈log₂(inputs + 1)⌉`.
    #[must_use]
    pub fn output_bits(&self) -> usize {
        (usize::BITS - self.inputs.leading_zeros()) as usize
    }

    /// Total full-adder equivalents across all nodes.
    ///
    /// A node at level `l` (1-based) adds two `l`-bit operands with an
    /// `l`-bit ripple-carry adder (`l` full adders, carry-out becomes the
    /// new MSB). Level widths are capped at [`Self::output_bits`]: sums
    /// can never exceed the input count, so top-of-tree adders do not keep
    /// widening.
    #[must_use]
    pub fn fa_equivalents(&self) -> usize {
        let cap = self.output_bits();
        let mut operands = self.inputs;
        let mut width = 1usize; // operand width entering the level
        let mut total = 0usize;
        while operands > 1 {
            total += (operands / 2) * width.min(cap);
            operands = operands.div_ceil(2);
            width += 1;
        }
        total
    }

    /// Critical path through the tree, in full-adder delays.
    ///
    /// In a ripple-carry adder tree the LSB of each level is valid one
    /// full-adder delay after its inputs' LSBs, so the carry ripple of a
    /// level overlaps the levels above it; only the final adder's ripple
    /// is fully exposed. The standard estimate is
    /// `depth + output_bits − 1`.
    #[must_use]
    pub fn critical_path_fa(&self) -> usize {
        if self.inputs == 1 {
            return 0;
        }
        self.depth() + self.output_bits() - 1
    }

    /// Functionally reduces `values` exactly as the tree wires do:
    /// pairwise, level by level, odd operand passing through.
    ///
    /// The result is tested to equal a plain sum — that equality is the
    /// functional-correctness contract of the hardware model.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the modelled input count.
    #[must_use]
    pub fn reduce(&self, values: &[u64]) -> u64 {
        assert_eq!(values.len(), self.inputs, "operand count differs from the model");
        let mut level: Vec<u64> = values.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                next.push(pair.iter().sum());
            }
            level = next;
        }
        level[0]
    }

    /// Reduces the bits of packed `words` (a hypervector's storage, `d`
    /// significant bits) through the tree.
    ///
    /// # Panics
    ///
    /// Panics if `words` holds fewer than `inputs` bits.
    #[must_use]
    pub fn popcount(&self, words: &[u64]) -> u64 {
        assert!(
            words.len() * 64 >= self.inputs,
            "words provide {} bits, tree needs {}",
            words.len() * 64,
            self.inputs
        );
        let bits: Vec<u64> =
            (0..self.inputs).map(|i| (words[i / 64] >> (i % 64)) & 1).collect();
        self.reduce(&bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn structural_numbers_for_known_sizes() {
        let t = AdderTree::new(1);
        assert_eq!((t.depth(), t.node_count(), t.output_bits()), (0, 0, 1));
        assert_eq!(t.critical_path_fa(), 0);

        let t = AdderTree::new(2);
        assert_eq!((t.depth(), t.node_count(), t.output_bits()), (1, 1, 2));

        let t = AdderTree::new(64);
        assert_eq!((t.depth(), t.node_count(), t.output_bits()), (6, 63, 7));

        let t = AdderTree::new(10_000);
        assert_eq!((t.depth(), t.node_count(), t.output_bits()), (14, 9_999, 14));
    }

    #[test]
    fn critical_path_is_logarithmic() {
        // The load-bearing property for the paper's O(1) claim: doubling d
        // adds O(1) levels, it does not double the path.
        let small = AdderTree::new(1_024).critical_path_fa();
        let large = AdderTree::new(1_048_576).critical_path_fa();
        assert!(large < 3 * small, "path must grow logarithmically: {small} -> {large}");
    }

    #[test]
    fn fa_equivalents_bounded_and_monotone() {
        // d-1 nodes of width >= 1 gives a lower bound; width <= output_bits
        // gives an upper bound.
        for d in [2usize, 3, 64, 1000, 10_000] {
            let t = AdderTree::new(d);
            let fa = t.fa_equivalents();
            assert!(fa >= t.node_count(), "d={d}");
            assert!(fa <= t.node_count() * t.output_bits(), "d={d}");
        }
        assert!(AdderTree::new(10_000).fa_equivalents() > AdderTree::new(1_000).fa_equivalents());
    }

    #[test]
    fn reduce_handles_odd_widths() {
        let t = AdderTree::new(5);
        assert_eq!(t.reduce(&[1, 2, 3, 4, 5]), 15);
        let t = AdderTree::new(7);
        assert_eq!(t.reduce(&[1; 7]), 7);
    }

    #[test]
    fn popcount_counts_only_significant_bits() {
        // 70 significant bits over two words; the tail of word 1 is noise
        // that the tree must never see.
        let words = [u64::MAX, u64::MAX];
        assert_eq!(AdderTree::new(70).popcount(&words), 70);
        assert_eq!(AdderTree::new(128).popcount(&words), 128);
        assert_eq!(AdderTree::new(1).popcount(&words), 1);
    }

    #[test]
    #[should_panic(expected = "operand count")]
    fn reduce_wrong_arity_panics() {
        let _ = AdderTree::new(4).reduce(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn zero_inputs_panics() {
        let _ = AdderTree::new(0);
    }

    proptest! {
        #[test]
        fn reduce_equals_sum(values in prop::collection::vec(0u64..1000, 1..200)) {
            let t = AdderTree::new(values.len());
            prop_assert_eq!(t.reduce(&values), values.iter().sum::<u64>());
        }

        #[test]
        fn popcount_equals_software_popcount(words in prop::collection::vec(any::<u64>(), 1..8),
                                             cut in 0usize..63) {
            let d = words.len() * 64 - cut;
            let t = AdderTree::new(d);
            let expected: u64 = (0..d).map(|i| (words[i / 64] >> (i % 64)) & 1).sum();
            prop_assert_eq!(t.popcount(&words), expected);
        }

        #[test]
        fn depth_is_ceil_log2(d in 1usize..100_000) {
            let t = AdderTree::new(d);
            prop_assert!(1usize << t.depth() >= d);
            if t.depth() > 0 {
                prop_assert!(1usize << (t.depth() - 1) < d);
            }
        }
    }
}
