//! # hdhash-ring — consistent hashing on the unit circle
//!
//! Consistent hashing (Karger et al., STOC 1997) maps both servers and
//! requests onto a circular interval; each request is assigned to the first
//! server that succeeds it clockwise. Joins and leaves each move only the
//! keys of one arc — the "minimal disruption" property that made the
//! algorithm the backbone of Akamai, Dynamo and Maglev-style systems.
//!
//! This crate provides:
//!
//! * [`ConsistentTable`] — the classic ring with `O(log n)` successor
//!   lookups and optional virtual nodes;
//! * [`JumpTable`] — jump consistent hashing (Lamping & Veach, 2014) over
//!   a stored bucket → server array;
//! * [`Treap`] — the from-scratch `O(log n)` search tree
//!   the ring is stored in;
//! * a [`NoisyTable`](hdhash_table::NoisyTable) implementation whose
//!   vulnerable state surface is the search structure itself (positions
//!   *and* child links). One corrupted child link misroutes an entire
//!   subtree — the amplification behind consistent hashing's poor showing
//!   in the paper's Figure 5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod jump;
pub mod ring;
pub mod treap;

pub use jump::JumpTable;
pub use ring::ConsistentTable;
pub use treap::Treap;
