//! Basis-hypervector families (paper Section 4).
//!
//! Encoding starts from a set of *basis-hypervectors* representing atomic
//! pieces of information. The paper describes three families, distinguished
//! by the correlation structure they impose (visualized in its Figure 2):
//!
//! * [`RandomBasis`] — independently sampled, mutually quasi-orthogonal;
//!   appropriate for categorical data.
//! * [`LevelBasis`] — linearly correlated; similarity decays with distance
//!   between levels; appropriate for scalar data.
//! * [`CircularBasis`] — the paper's novel contribution: correlation is
//!   circular, i.e. similarity decays with *circular* distance and there is
//!   no discontinuity between the last and first element (Algorithm 1).

mod circular;
mod level;
mod random;

pub use circular::CircularBasis;
pub use level::LevelBasis;
pub use random::RandomBasis;



/// How the sparse transformation-hypervectors of Algorithm 1 sample their
/// flipped bit positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[derive(Default)]
pub enum FlipStrategy {
    /// Literal Algorithm 1: every transformation-hypervector flips
    /// `flips_per_step` random bits, sampled independently per step, so
    /// later steps may re-flip earlier bits. The similarity profile decays
    /// monotonically *in expectation*.
    Independent {
        /// Bits flipped by each transformation (the paper's `d/m`).
        flips_per_step: usize,
    },
    /// Exact construction: a random set of `d/2` bit positions is
    /// partitioned across the steps of the half-circle (or level chain), so
    /// the similarity profile is exactly linear and the extreme elements
    /// are exactly quasi-orthogonal. This reproduces the clean profiles of
    /// the paper's Figure 2 and is the default.
    #[default]
    Partition,
}


/// Error building a basis set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisError {
    /// The requested cardinality is too small for the family.
    CardinalityTooSmall {
        /// Requested number of hypervectors.
        requested: usize,
        /// Minimum supported by the family.
        minimum: usize,
    },
    /// The dimension is zero or too small to allocate the requested flips.
    DimensionTooSmall {
        /// Requested dimensionality.
        dimension: usize,
        /// Basis cardinality it must accommodate.
        cardinality: usize,
    },
    /// An `Independent` strategy requested more flips per step than `d`.
    FlipsExceedDimension {
        /// Requested flips per step.
        flips: usize,
        /// Dimensionality.
        dimension: usize,
    },
}

impl core::fmt::Display for BasisError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BasisError::CardinalityTooSmall { requested, minimum } => {
                write!(f, "basis cardinality {requested} below minimum {minimum}")
            }
            BasisError::DimensionTooSmall { dimension, cardinality } => {
                write!(f, "dimension {dimension} too small for {cardinality} basis hypervectors")
            }
            BasisError::FlipsExceedDimension { flips, dimension } => {
                write!(f, "flips per step {flips} exceeds dimension {dimension}")
            }
        }
    }
}

impl std::error::Error for BasisError {}

/// Splits `positions` into `parts` nearly equal contiguous chunks.
///
/// Used by the `Partition` strategy: every chunk becomes one
/// transformation-hypervector. Chunk sizes differ by at most one.
pub(crate) fn partition_chunks(positions: &[usize], parts: usize) -> Vec<Vec<usize>> {
    assert!(parts > 0, "cannot partition into zero parts");
    let base = positions.len() / parts;
    let extra = positions.len() % parts;
    let mut out = Vec::with_capacity(parts);
    let mut offset = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(positions[offset..offset + len].to_vec());
        offset += len;
    }
    out
}

/// Common accessor surface shared by the three basis families.
macro_rules! basis_accessors {
    ($ty:ident) => {
        impl $ty {
            /// The generated hypervectors, in order.
            #[must_use]
            pub fn hypervectors(&self) -> &[Hypervector] {
                &self.hypervectors
            }

            /// Consumes the basis and returns the hypervectors.
            #[must_use]
            pub fn into_hypervectors(self) -> Vec<Hypervector> {
                self.hypervectors
            }

            /// Number of hypervectors in the set.
            #[must_use]
            pub fn len(&self) -> usize {
                self.hypervectors.len()
            }

            /// Whether the set is empty (never true for a built basis).
            #[must_use]
            pub fn is_empty(&self) -> bool {
                self.hypervectors.is_empty()
            }

            /// Dimensionality `d` of every member.
            #[must_use]
            pub fn dimension(&self) -> usize {
                self.dimension
            }

            /// The hypervector at `index`, if in range.
            #[must_use]
            pub fn get(&self, index: usize) -> Option<&Hypervector> {
                self.hypervectors.get(index)
            }
        }

        impl core::ops::Index<usize> for $ty {
            type Output = Hypervector;

            fn index(&self, index: usize) -> &Hypervector {
                &self.hypervectors[index]
            }
        }
    };
}

pub(crate) use basis_accessors;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_chunks_cover_everything() {
        let positions: Vec<usize> = (0..103).collect();
        let chunks = partition_chunks(&positions, 10);
        assert_eq!(chunks.len(), 10);
        let total: usize = chunks.iter().map(Vec::len).sum();
        assert_eq!(total, 103);
        // Sizes differ by at most one.
        let min = chunks.iter().map(Vec::len).min().expect("non-empty");
        let max = chunks.iter().map(Vec::len).max().expect("non-empty");
        assert!(max - min <= 1);
        // No element lost or duplicated.
        let mut flat: Vec<usize> = chunks.into_iter().flatten().collect();
        flat.sort_unstable();
        assert_eq!(flat, positions);
    }

    #[test]
    fn partition_single_part() {
        let positions = vec![5, 7, 9];
        let chunks = partition_chunks(&positions, 1);
        assert_eq!(chunks, vec![vec![5, 7, 9]]);
    }

    #[test]
    fn error_display() {
        let e = BasisError::CardinalityTooSmall { requested: 1, minimum: 2 };
        assert!(e.to_string().contains("below minimum"));
        let e = BasisError::DimensionTooSmall { dimension: 4, cardinality: 100 };
        assert!(e.to_string().contains("too small"));
        let e = BasisError::FlipsExceedDimension { flips: 20, dimension: 10 };
        assert!(e.to_string().contains("exceeds"));
    }

    #[test]
    fn default_strategy_is_partition() {
        assert_eq!(FlipStrategy::default(), FlipStrategy::Partition);
    }
}
