//! # hdhash-hashfn — the table hash, the seeding generator and the mixers
//!
//! Every hashing algorithm reproduced in this workspace (modular,
//! consistent, rendezvous, Maglev, jump and hyperdimensional hashing)
//! places servers and requests through a conventional hash `h(·)`; for HD
//! hashing it is the `h` of `Enc(x) = C[h(x) mod n]` (the paper's Eq. 1).
//! The paper simply assumes such a function exists; this crate implements
//! the one every table uses, plus the small integer primitives the rest of
//! the workspace seeds and scrambles with:
//!
//! * [`XxHash64`] — a from-spec implementation of XXH64, the table hash.
//!   Every table holds one (seed 0; Maglev derives its skip from a second
//!   one at seed `0x5EED`) and calls [`XxHash64::hash_bytes`] directly.
//! * [`SplitMix64`] — the tiny state-mixing generator of Steele et al.,
//!   used throughout the workspace for seeding and random streams.
//! * [`mix64`] / [`rrmxmx`] — bijective 64-bit finalizers for combining
//!   and scrambling words that are already hashes or counters.
//!
//! ```
//! use hdhash_hashfn::XxHash64;
//!
//! let h = XxHash64::with_seed(42);
//! let a = h.hash_bytes(b"server-1");
//! let b = h.hash_bytes(b"server-2");
//! assert_ne!(a, b);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mix;
pub mod splitmix;
pub mod xxhash;

pub use mix::{mix64, moremur, rrmxmx};
pub use splitmix::SplitMix64;
pub use xxhash::XxHash64;
