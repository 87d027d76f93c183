//! # hdhash-rendezvous — rendezvous (highest random weight) hashing
//!
//! Rendezvous hashing (Thaler & Ravishankar, 1998) assigns request `r` to
//! `argmax_{s ∈ S} h(s, r)`: each lookup scores every server against the
//! request and takes the maximum, giving `O(n)` lookups but perfectly
//! uniform (pseudo-random) distribution and minimal disruption on
//! membership change — when a server leaves, only the requests it was
//! winning move (to their runner-up).
//!
//! This crate provides:
//!
//! * [`RendezvousTable`] — the classic HRW table, hashing with XXH64 and
//!   combining each (server, request) pair through [`hdhash_hashfn::mix64`];
//! * a [`NoisyTable`](hdhash_table::NoisyTable) implementation whose
//!   vulnerable state surface is the *stored per-server pre-hash words*:
//!   corrupting one changes all of that server's weights, so it loses its
//!   won set (~1/n of requests) and steals roughly as much elsewhere —
//!   ≈ 2/n mismatch per corrupted word, the mild degradation the paper
//!   reports in Figure 5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hrw;

pub use hrw::RendezvousTable;
