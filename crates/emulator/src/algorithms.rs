//! Factory over every hashing algorithm in the workspace.
//!
//! The emulator (and the figure harnesses) select algorithms by
//! [`AlgorithmKind`] and receive a boxed [`NoisyTable`], so every
//! experiment runs the exact same driver code over all competitors.

use hdhash_core::HdHashTable;
use hdhash_maglev::MaglevTable;
use hdhash_rendezvous::RendezvousTable;
use hdhash_ring::{ConsistentTable, JumpTable};
use hdhash_table::{ModularTable, NoisyTable};

/// The algorithms the paper compares (plus this repo's extras).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AlgorithmKind {
    /// `h(r) mod n` (paper §1 baseline).
    Modular,
    /// Consistent hashing (paper §2.1).
    Consistent,
    /// Rendezvous / HRW hashing (paper §2.2).
    Rendezvous,
    /// HD hashing with serial inference (paper §3).
    Hd,
    /// HD hashing with the multi-threaded inference path (the paper's GPU
    /// substitute).
    HdParallel,
    /// Maglev lookup-table hashing (paper reference \[3\]; this repo's
    /// extra baseline).
    Maglev,
    /// Jump consistent hash (near-zero state; this repo's extra baseline).
    /// Arbitrary leaves shuffle more keys than ring/HRW (documented trade).
    Jump,
}

impl AlgorithmKind {
    /// All algorithms in presentation order.
    pub const ALL: [AlgorithmKind; 7] = [
        AlgorithmKind::Modular,
        AlgorithmKind::Consistent,
        AlgorithmKind::Rendezvous,
        AlgorithmKind::Hd,
        AlgorithmKind::HdParallel,
        AlgorithmKind::Maglev,
        AlgorithmKind::Jump,
    ];

    /// The three algorithms of the paper's figures.
    pub const PAPER: [AlgorithmKind; 3] =
        [AlgorithmKind::Consistent, AlgorithmKind::Rendezvous, AlgorithmKind::Hd];

    /// Short lowercase name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::Modular => "modular",
            AlgorithmKind::Consistent => "consistent",
            AlgorithmKind::Rendezvous => "rendezvous",
            AlgorithmKind::Hd => "hd",
            AlgorithmKind::HdParallel => "hd-parallel",
            AlgorithmKind::Maglev => "maglev",
            AlgorithmKind::Jump => "jump",
        }
    }

    /// Builds an empty table sized so that up to `max_servers` servers can
    /// join (relevant for HD hashing's `n > k` codebook requirement).
    ///
    /// HD tables use a codebook of the next power of two above
    /// `2 · max_servers` and a dimension of at least 10 000 bits (padded to
    /// the quantum grid; see `hdhash_core`).
    ///
    /// # Panics
    ///
    /// Panics if `max_servers == 0`.
    #[must_use]
    pub fn build(self, max_servers: usize) -> Box<dyn NoisyTable + Send> {
        assert!(max_servers > 0, "a table for zero servers is useless");
        match self {
            AlgorithmKind::Modular => Box::new(ModularTable::new()),
            AlgorithmKind::Consistent => Box::new(ConsistentTable::new()),
            AlgorithmKind::Rendezvous => Box::new(RendezvousTable::new()),
            AlgorithmKind::Hd => Box::new(Self::hd_table(max_servers, false)),
            AlgorithmKind::HdParallel => Box::new(Self::hd_table(max_servers, true)),
            AlgorithmKind::Maglev => {
                // M ≫ N: at least ~32 slots per server, prime-rounded.
                Box::new(MaglevTable::with_table_size((32 * max_servers).max(2053)))
            }
            AlgorithmKind::Jump => Box::new(JumpTable::new()),
        }
    }

    fn hd_table(max_servers: usize, parallel: bool) -> HdHashTable {
        // Codebook: the next power of two above 2·k (comfortably n > k).
        // Dimension: at least the paper's 10 000 bits, and at least 24 bits
        // of quantum per circle node so the table provably tolerates the
        // paper's full 0–10 bit-error range (including 10-bit MCU bursts
        // landing on a single stored hypervector).
        let codebook = (2 * max_servers).next_power_of_two().max(8);
        let dimension = (24 * codebook).max(10_000);
        let builder = HdHashTable::builder().dimension(dimension).codebook_size(codebook);
        let builder = if parallel {
            builder.search(hdhash_hdc::SearchStrategy::Parallel { threads: 8 })
        } else {
            builder
        };
        builder.build().expect("factory parameters are valid")
    }
}

impl core::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdhash_table::{RequestKey, ServerId};

    #[test]
    fn every_algorithm_builds_and_serves() {
        for kind in AlgorithmKind::ALL {
            let mut table = kind.build(32);
            for i in 0..32 {
                table.join(ServerId::new(i)).expect("fresh server");
            }
            let owner = table.lookup(RequestKey::new(5)).expect("non-empty");
            assert!(table.contains(owner), "{kind}");
            assert_eq!(table.server_count(), 32);
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> =
            AlgorithmKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), AlgorithmKind::ALL.len());
        assert_eq!(AlgorithmKind::Hd.to_string(), "hd");
    }

    #[test]
    fn hd_codebook_scales_with_max_servers() {
        let mut table = AlgorithmKind::Hd.build(2048);
        for i in 0..2048 {
            table.join(ServerId::new(i)).expect("codebook sized for 2048 servers");
        }
        assert_eq!(table.server_count(), 2048);
    }

    #[test]
    fn paper_subset_is_consistent_rendezvous_hd() {
        assert_eq!(
            AlgorithmKind::PAPER.map(|k| k.name()),
            ["consistent", "rendezvous", "hd"]
        );
    }

    #[test]
    #[should_panic(expected = "useless")]
    fn zero_capacity_panics() {
        let _ = AlgorithmKind::Hd.build(0);
    }
}
