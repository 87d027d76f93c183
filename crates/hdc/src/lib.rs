//! # hdhash-hdc — a hyperdimensional computing substrate
//!
//! Hyperdimensional Computing (HDC, Kanerva 2009) represents information as
//! very wide random vectors ("hypervectors", typically 10 000 bits) and
//! manipulates them with three dimension-independent operations: *binding*
//! (elementwise XOR for dense binary vectors), *bundling* (bitwise majority)
//! and *permutation* (cyclic rotation). Because information is spread
//! holographically over all dimensions, hypervector representations are
//! inherently robust to bit errors — the property the paper
//! ("Hyperdimensional Hashing", DAC 2022) exploits to build a fault-tolerant
//! dynamic hash table.
//!
//! This crate is a complete, self-contained HDC substrate:
//!
//! * [`Hypervector`] — bit-packed dense binary hypervectors over `u64` words;
//! * [`ops`] — bind / bundle / permute / bit flips;
//! * [`similarity`] — Hamming distance, normalized (inverse) Hamming
//!   similarity and the ±1 ("bipolar") cosine similarity;
//! * [`basis`] — the three basis-hypervector families of the paper's
//!   Section 4: random, level and **circular** hypervectors (Algorithm 1,
//!   including the odd-cardinality footnote);
//! * [`accumulator`] — incremental integer-counter bundling ("binarized
//!   bundling", Schmuck et al. \[18\]) for online prototypes;
//! * [`classifier`] — the centroid HDC classifier (VoiceHD-style), used
//!   to evaluate the paper's future-work claim that circular bases
//!   improve ML on periodic features;
//! * [`maintenance`] — incremental counter-plane membership centroids:
//!   add/remove one member in `O(words · log n)` bitwise ops, byte-
//!   identical to from-scratch re-bundling (the substrate behind
//!   classifier prototypes);
//! * [`memory`] — an associative memory implementing HDC *inference*
//!   (`argmax` similarity, Eq. 2 of the paper) with serial and
//!   multi-threaded search paths (the paper's GPU substitute);
//! * [`batch`] — the [`BatchLookup`] engine behind every memory scan: one
//!   contiguous row-major word matrix and one early-abandon sweep (plain,
//!   ranged, quantized and batched queries) over the dispatched SIMD
//!   distance kernel;
//! * [`noise`] — seeded bit-error injection into stored hypervectors
//!   (single-event upsets and multi-cell burst upsets);
//! * [`profile`] — pairwise similarity matrices (paper Figure 2).
//!
//! ## Quick example
//!
//! ```
//! use hdhash_hdc::{basis::CircularBasis, similarity::cosine, Hypervector, Rng};
//!
//! let mut rng = Rng::new(7);
//! // Twelve hypervectors arranged on a circle in 10k-dimensional space.
//! let basis = CircularBasis::generate(12, 10_000, &mut rng).expect("valid parameters");
//! let c: &[Hypervector] = basis.hypervectors();
//! // Neighbours on the circle are similar; antipodes are dissimilar.
//! assert!(cosine(&c[0], &c[1]) > cosine(&c[0], &c[6]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accumulator;
pub mod basis;
pub mod batch;
pub mod classifier;
pub mod hypervector;
pub mod maintenance;
pub mod memory;
pub mod noise;
pub mod ops;
pub mod profile;
pub mod rng;
pub mod similarity;

pub use batch::BatchLookup;
pub use classifier::CentroidClassifier;
pub use maintenance::MembershipCentroid;
pub use hypervector::{DimensionMismatchError, Hypervector};
pub use memory::{AssociativeMemory, EngineOptions, SearchStrategy};
pub use rng::Rng;
pub use similarity::SimilarityMetric;
