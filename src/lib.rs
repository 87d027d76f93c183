//! # hdhash — Hyperdimensional Hashing
//!
//! A from-scratch Rust reproduction of *“Hyperdimensional Hashing: A Robust
//! and Efficient Dynamic Hash Table”* (Heddes, Nunes, Givargis, Nicolau,
//! Veidenbaum — DAC 2022): a dynamic request→server hash table built on
//! Hyperdimensional Computing, compared against modular, consistent and
//! rendezvous hashing, with the paper's full emulation framework and every
//! figure regenerable from this workspace.
//!
//! This crate is the facade: it re-exports the workspace members under one
//! roof and hosts the runnable examples and cross-crate integration tests.
//!
//! ## Crates
//!
//! * [`hashfn`] — the table hash (XXH64), the SplitMix64 generator and
//!   64-bit mixers, all from their published specifications;
//! * [`hdc`] — the hyperdimensional computing substrate: bit-packed
//!   hypervectors, bind/bundle/permute, similarity metrics, random /
//!   level / **circular** basis-hypervectors (the paper's Algorithm 1),
//!   associative memory, noise injection;
//! * [`simdkernels`] — the workspace's single non-`forbid(unsafe)` leaf:
//!   runtime-dispatched XOR+popcount distance kernels (AVX2 where the
//!   CPU has it, portable scalar everywhere else);
//! * [`table`] — the `DynamicHashTable` contract, strongly typed ids,
//!   the modular-hashing baseline and remap metrics;
//! * [`ring`] — consistent hashing over a from-scratch treap (with
//!   optional virtual nodes) and jump consistent hash;
//! * [`maglev`] — Maglev lookup-table hashing (the paper's reference \[3\]);
//! * [`rendezvous`] — rendezvous / highest-random-weight hashing;
//! * [`core`] — **HD hashing**, the paper's contribution: circular
//!   hypervector codebook, `Enc(x) = C[h(x) mod n]`, similarity arg-max
//!   with a provable robustness quantum, hierarchical and weighted
//!   extensions;
//! * [`emulator`] — the paper's two-module emulation framework: request
//!   generator, buffered hash-table module, noise plans (including the
//!   field-study correlated error process), workload traces, χ²
//!   statistics, and the Figure 4/5/6/7 experiment runners;
//! * [`accel`] — a gate-level cost model of the HDC inference accelerator
//!   the paper's `O(1)` claim cites (Schmuck et al. \[18\]): CA90
//!   rematerialization, combinational associative memory, binarized
//!   bundling, and the Figure 4 hardware projection;
//! * [`serve`] — the batch-coalescing serving layer: one bounded request
//!   queue, coalescing workers serving each lookup from its epoch's
//!   per-slot route table (the HD scan fills each entry once), one
//!   epoch-published routing table so membership reconfiguration never
//!   blocks readers, and tickets redeemed by blocking, bounded or
//!   non-blocking waits.
//!
//! ## Quick start
//!
//! ```
//! use hdhash::prelude::*;
//!
//! let mut table = HdHashTable::builder().dimension(4096).codebook_size(128).build()?;
//! for id in 0..16 {
//!     table.join(ServerId::new(id))?;
//! }
//! let owner = table.lookup(RequestKey::new(42))?;
//! assert!(table.contains(owner));
//!
//! // Memory errors do not move requests (the paper's headline):
//! table.inject_bit_flips(10, 7);
//! assert_eq!(table.lookup(RequestKey::new(42))?, owner);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for complete scenarios (load balancing, web caching,
//! P2P churn, periodic data encoding) and `crates/bench` for the
//! figure-regeneration harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hdhash_accel as accel;
pub use hdhash_core as core;
pub use hdhash_emulator as emulator;
pub use hdhash_hashfn as hashfn;
pub use hdhash_maglev as maglev;
pub use hdhash_obs as obs;
pub use hdhash_hdc as hdc;
pub use hdhash_rendezvous as rendezvous;
pub use hdhash_ring as ring;
pub use hdhash_serve as serve;
pub use hdhash_simdkernels as simdkernels;
pub use hdhash_table as table;

/// The most common imports in one place.
pub mod prelude {
    pub use hdhash_accel::{CombinationalAm, ExecutionModel, LookupSchedule, TechnologyParams};
    pub use hdhash_core::{
        BoundedHdTable, HdConfig, HdHashTable, HierarchicalHdTable, WeightedHdTable,
    };
    pub use hdhash_emulator::{
        AlgorithmKind, Generator, HashTableModule, NoisePlan, Trace, Workload,
    };
    pub use hdhash_hdc::{
        CentroidClassifier, Hypervector, MembershipCentroid, Rng, SimilarityMetric,
    };
    pub use hdhash_maglev::MaglevTable;
    pub use hdhash_rendezvous::RendezvousTable;
    pub use hdhash_ring::ConsistentTable;
    pub use hdhash_serve::{ServeConfig, ServeEngine, Ticket};
    pub use hdhash_table::{
        remap_fraction, Assignment, DynamicHashTable, ModularTable, NoisyTable, RequestKey,
        ServerId, TableError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let mut table = ConsistentTable::new();
        table.join(ServerId::new(1)).expect("fresh server");
        assert_eq!(table.lookup(RequestKey::new(1)).expect("non-empty"), ServerId::new(1));
        let _ = AlgorithmKind::Hd;
        let _ = SimilarityMetric::Cosine;
    }
}
