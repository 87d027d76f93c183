//! A winner-take-all comparator tree selecting the arg-min distance.
//!
//! The last stage of the combinational associative memory compares the `k`
//! Hamming distances produced by the adder trees and outputs the index of
//! the smallest — Eq. 2's arg-max similarity, expressed over distances.
//! A balanced binary tree of compare-and-select nodes does this in
//! `⌈log₂ k⌉` levels with `k − 1` comparators, so — like the adder tree —
//! the critical path grows logarithmically and the whole selection stays
//! inside the same combinational cycle.
//!
//! Ties break toward the **lower index**, matching the software
//! tie-break (earliest-inserted entry) in
//! [`hdhash_hdc::AssociativeMemory`], so hardware and software return
//! bit-identical winners. That equality is asserted by the datapath tests.

/// Structural model of a `k`-leaf comparator tree over `score_bits`-wide
/// operands.
///
/// # Examples
///
/// ```
/// use hdhash_accel::ComparatorTree;
///
/// // 512 servers, 14-bit distances (d = 10_000).
/// let tree = ComparatorTree::new(512, 14);
/// assert_eq!(tree.depth(), 9);
/// assert_eq!(tree.node_count(), 511);
/// let (winner, best) = ComparatorTree::new(4, 14).argmin(&[9, 4, 7, 4]);
/// assert_eq!((winner, best), (1, 4)); // tie 1 vs 3 -> lower index
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComparatorTree {
    entries: usize,
    score_bits: usize,
}

impl ComparatorTree {
    /// Models a tree over `entries` scores of `score_bits` bits each.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0` or `score_bits == 0`.
    #[must_use]
    pub fn new(entries: usize, score_bits: usize) -> Self {
        assert!(entries > 0, "a comparator tree needs at least one entry");
        assert!(score_bits > 0, "scores must be at least one bit wide");
        Self { entries, score_bits }
    }

    /// Number of competing scores.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Operand width in bits.
    #[must_use]
    pub fn score_bits(&self) -> usize {
        self.score_bits
    }

    /// Number of compare-and-select levels, `⌈log₂ entries⌉`.
    #[must_use]
    pub fn depth(&self) -> usize {
        usize::BITS as usize - (self.entries - 1).leading_zeros() as usize
    }

    /// Total compare-and-select nodes (`entries − 1`).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.entries - 1
    }

    /// Critical path in single-bit compare stages.
    ///
    /// Each node resolves its magnitude comparison with a ripple over the
    /// operand width before selecting, so one node costs `score_bits`
    /// stages and the path is `depth · score_bits`.
    #[must_use]
    pub fn critical_path_stages(&self) -> usize {
        self.depth() * self.score_bits
    }

    /// Functionally selects the minimum score exactly as the tree wires
    /// do: pairwise, level by level, ties toward the lower index. Returns
    /// `(index, score)`.
    ///
    /// # Panics
    ///
    /// Panics if `scores.len()` differs from the modelled entry count, or
    /// if any score needs more than `score_bits` bits (a hardware
    /// overflow the model refuses to hide).
    #[must_use]
    pub fn argmin(&self, scores: &[u64]) -> (usize, u64) {
        assert_eq!(scores.len(), self.entries, "score count differs from the model");
        let limit = if self.score_bits >= 64 { u64::MAX } else { (1u64 << self.score_bits) - 1 };
        let mut level: Vec<(usize, u64)> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                assert!(s <= limit, "score {s} overflows {} bits", self.score_bits);
                (i, s)
            })
            .collect();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                next.push(match pair {
                    [a, b] => {
                        // Strict '<' keeps ties on the left (lower index).
                        if b.1 < a.1 {
                            *b
                        } else {
                            *a
                        }
                    }
                    [a] => *a,
                    _ => unreachable!("chunks(2) yields one or two items"),
                });
            }
            level = next;
        }
        level[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn structure_for_known_sizes() {
        let t = ComparatorTree::new(1, 8);
        assert_eq!((t.depth(), t.node_count()), (0, 0));
        assert_eq!(t.critical_path_stages(), 0);

        let t = ComparatorTree::new(2048, 14);
        assert_eq!((t.depth(), t.node_count()), (11, 2047));
        assert_eq!(t.critical_path_stages(), 11 * 14);
        assert_eq!(t.entries(), 2048);
        assert_eq!(t.score_bits(), 14);
    }

    #[test]
    fn single_entry_wins_trivially() {
        assert_eq!(ComparatorTree::new(1, 4).argmin(&[13]), (0, 13));
    }

    #[test]
    fn ties_resolve_to_lowest_index_everywhere() {
        // All-equal scores: index 0 must survive every level.
        for n in [2usize, 3, 5, 8, 17] {
            let t = ComparatorTree::new(n, 8);
            assert_eq!(t.argmin(&vec![42; n]), (0, 42), "n={n}");
        }
        // A tie in the right subtree resolves locally to the lower index.
        let t = ComparatorTree::new(4, 8);
        assert_eq!(t.argmin(&[9, 7, 7, 9]), (1, 7));
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn overflowing_score_panics() {
        let _ = ComparatorTree::new(2, 4).argmin(&[3, 16]);
    }

    #[test]
    #[should_panic(expected = "score count")]
    fn wrong_arity_panics() {
        let _ = ComparatorTree::new(3, 8).argmin(&[1, 2]);
    }

    #[test]
    fn wide_scores_do_not_overflow_the_limit_mask() {
        let t = ComparatorTree::new(2, 64);
        assert_eq!(t.argmin(&[u64::MAX, 5]), (1, 5));
    }

    proptest! {
        #[test]
        fn argmin_matches_linear_scan(scores in prop::collection::vec(0u64..10_000, 1..300)) {
            let t = ComparatorTree::new(scores.len(), 14);
            let (idx, best) = t.argmin(&scores);
            let linear = scores
                .iter()
                .enumerate()
                .min_by_key(|&(i, &s)| (s, i))
                .map(|(i, &s)| (i, s))
                .expect("non-empty");
            prop_assert_eq!((idx, best), linear);
        }

        #[test]
        fn depth_is_ceil_log2(k in 1usize..10_000) {
            let t = ComparatorTree::new(k, 8);
            prop_assert!(1usize << t.depth() >= k);
            if t.depth() > 0 {
                prop_assert!(1usize << (t.depth() - 1) < k);
            }
        }
    }
}
