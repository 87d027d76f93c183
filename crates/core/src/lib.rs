//! # hdhash-core — Hyperdimensional (HD) hashing
//!
//! The primary contribution of *"Hyperdimensional Hashing: A Robust and
//! Efficient Dynamic Hash Table"* (Heddes et al., DAC 2022): a dynamic hash
//! table built on Hyperdimensional Computing.
//!
//! ## The algorithm (paper Section 3)
//!
//! Let `S` be the servers, `R` the requests and `C = {c₁, …, cₙ}` a set of
//! `n > k` **circular-hypervectors**. With a conventional hash function
//! `h(·)`, every server and request is *encoded* onto the circle:
//!
//! ```text
//! Enc(x) = C[h(x) mod n]                                   (Eq. 1)
//! ```
//!
//! and each request `rᵢ` is mapped to the server
//!
//! ```text
//! sⱼ = argmax_{s ∈ S} δ(Enc(s), Enc(rᵢ))                   (Eq. 2)
//! ```
//!
//! where `δ` is a hypervector similarity metric. Inverse Hamming and
//! cosine both decrease with Hamming distance, so they pick the same
//! server; the table scores with inverse Hamming. Because
//! circular-hypervector similarity decays with circular distance, Eq. 2 assigns each request to the server at the *nearest
//! circle node* — like consistent hashing, but direction-insensitive, and
//! computed as an HDC associative-memory inference that special hardware
//! can execute in `O(1)`.
//!
//! Crucially, the stored state is hypervectors: flipping a handful of the
//! ~`10⁴` bits of an encoding barely changes any similarity, so the arg-max
//! — and therefore every assignment — is unaffected. This is the paper's
//! robustness result (Figure 5: 0% mismatches for HD hashing).
//!
//! ## Quick start
//!
//! ```
//! use hdhash_core::HdHashTable;
//! use hdhash_table::{DynamicHashTable, RequestKey, ServerId};
//!
//! let mut table = HdHashTable::builder().dimension(10_000).codebook_size(64).build()?;
//! for id in 0..8 {
//!     table.join(ServerId::new(id))?;
//! }
//! let owner = table.lookup(RequestKey::new(1234))?;
//! assert!(table.contains(owner));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounded;
pub mod codebook;
pub mod config;
pub mod hierarchical;
pub mod table;
pub mod weighted;

pub use bounded::BoundedHdTable;
pub use codebook::Codebook;
pub use config::{HdConfig, HdConfigBuilder, HdConfigError};
pub use hierarchical::HierarchicalHdTable;
pub use table::HdHashTable;
pub use weighted::WeightedHdTable;
