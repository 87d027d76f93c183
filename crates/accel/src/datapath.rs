//! The combinational associative memory: one lookup, one clock cycle.
//!
//! This is the headline structure of Schmuck et al. that the paper's
//! `O(1)` claim stands on. For `k` stored hypervectors of dimension `d`
//! the datapath instantiates, fully in parallel:
//!
//! ```text
//! probe ──┬─ XOR (d gates) ── adder tree (d−1 nodes) ──┐
//!         ├─ XOR (d gates) ── adder tree (d−1 nodes) ──┤  comparator
//!         ┆        …                    …              ├─ tree (k−1) ── winner
//!         └─ XOR (d gates) ── adder tree (d−1 nodes) ──┘
//! ```
//!
//! No stage stores state, so the winner settles one critical-path delay
//! after the probe arrives: a *single clock cycle* at any frequency whose
//! period exceeds that path. [`CombinationalAm`] computes real answers
//! through exactly this dataflow (tested bit-identical to the software
//! scan in [`hdhash_hdc::AssociativeMemory`]) and reports the timing, area
//! and energy of the modelled hardware.

use hdhash_hdc::{DimensionMismatchError, Hypervector};

use crate::adder_tree::AdderTree;
use crate::comparator::ComparatorTree;
use crate::tech::TechnologyParams;

/// The winner of one inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inference {
    /// Index of the most similar stored vector (lowest index on ties).
    pub index: usize,
    /// Its Hamming distance from the probe.
    pub distance: u64,
}

/// Critical-path timing of one combinational lookup, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingReport {
    /// Delay of the XOR difference stage.
    pub xor_ps: f64,
    /// Delay of the popcount adder tree.
    pub adder_tree_ps: f64,
    /// Delay of the arg-min comparator tree.
    pub comparator_ps: f64,
}

impl TimingReport {
    /// Total critical path: the three stages are in series.
    #[must_use]
    pub fn critical_path_ps(&self) -> f64 {
        self.xor_ps + self.adder_tree_ps + self.comparator_ps
    }

    /// Highest clock at which the lookup still completes in one cycle,
    /// capped by what the platform can distribute.
    #[must_use]
    pub fn max_frequency_hz(&self) -> f64 {
        1.0e12 / self.critical_path_ps()
    }
}

/// Gate-count area summary of the datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaReport {
    /// Two-input XOR gates in the difference stage (`k · d`).
    pub xor_gates: usize,
    /// Full-adder equivalents across all `k` adder trees.
    pub fa_equivalents: usize,
    /// Compare-and-select nodes in the arg-min tree (`k − 1`).
    pub comparator_nodes: usize,
    /// Bits of stored-vector memory with a plain codebook ROM (`k · d`).
    pub storage_bits: usize,
    /// Bits of stored-vector memory with CA90 rematerialization (one
    /// `d`-bit seed; see [`crate::ca90`]).
    pub rematerialized_storage_bits: usize,
}

/// First-order per-lookup switching activity (`α = 1` for XOR outputs
/// that actually differ, `α = ½` for arithmetic nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnergyActivity {
    /// XOR outputs that toggled — exactly the sum of all `k` Hamming
    /// distances for this probe.
    pub xor_toggles: u64,
    /// Adder-tree node toggles under the `α = ½` convention.
    pub adder_toggles: u64,
    /// Comparator node toggles (each node re-evaluates once per probe).
    pub comparator_toggles: u64,
}

impl EnergyActivity {
    /// Total toggles.
    #[must_use]
    pub fn total_toggles(&self) -> u64 {
        self.xor_toggles + self.adder_toggles + self.comparator_toggles
    }

    /// Energy of this lookup under a technology corner, in femtojoules.
    #[must_use]
    pub fn energy_fj(&self, tech: &TechnologyParams) -> f64 {
        self.total_toggles() as f64 * tech.switch_energy_fj
    }
}

/// A fully combinational associative memory over `k` stored hypervectors.
///
/// # Examples
///
/// ```
/// use hdhash_accel::datapath::CombinationalAm;
/// use hdhash_hdc::{Hypervector, Rng};
///
/// let mut rng = Rng::new(8);
/// let stored: Vec<Hypervector> =
///     (0..8).map(|_| Hypervector::random(1024, &mut rng)).collect();
/// let am = CombinationalAm::new(1024, stored)?;
/// let probe = Hypervector::random(1024, &mut rng);
/// let hit = am.infer(&probe).expect("non-empty");
/// assert!(hit.index < 8);
/// # Ok::<(), hdhash_hdc::DimensionMismatchError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CombinationalAm {
    dimension: usize,
    stored: Vec<Hypervector>,
}

impl CombinationalAm {
    /// Builds the datapath around `stored` vectors of dimension `d`.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if any stored vector has the
    /// wrong dimension.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn new(d: usize, stored: Vec<Hypervector>) -> Result<Self, DimensionMismatchError> {
        assert!(d > 0, "dimension must be positive");
        for hv in &stored {
            if hv.dimension() != d {
                return Err(DimensionMismatchError { left: d, right: hv.dimension() });
            }
        }
        Ok(Self { dimension: d, stored })
    }

    /// The hypervector dimension `d`.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// The number of stored vectors `k`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stored.len()
    }

    /// Whether the memory holds no vectors.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stored.is_empty()
    }

    /// The per-entry popcount tree.
    #[must_use]
    pub fn adder_tree(&self) -> AdderTree {
        AdderTree::new(self.dimension)
    }

    /// The arg-min selection tree (defined for non-empty memories).
    #[must_use]
    pub fn comparator_tree(&self) -> Option<ComparatorTree> {
        if self.stored.is_empty() {
            None
        } else {
            Some(ComparatorTree::new(self.stored.len(), self.adder_tree().output_bits()))
        }
    }

    /// All `k` Hamming distances, computed through the modelled adder
    /// trees (not a software popcount).
    ///
    /// # Panics
    ///
    /// Panics if `probe` has the wrong dimension.
    #[must_use]
    pub fn distances(&self, probe: &Hypervector) -> Vec<u64> {
        assert_eq!(probe.dimension(), self.dimension, "probe dimension mismatch");
        let tree = self.adder_tree();
        self.stored
            .iter()
            .map(|hv| {
                let diff = probe.xor(hv).expect("dimensions checked at construction");
                tree.popcount(diff.as_words())
            })
            .collect()
    }

    /// One combinational inference: XOR stage, adder trees, comparator
    /// tree. Returns `None` on an empty memory.
    ///
    /// # Panics
    ///
    /// Panics if `probe` has the wrong dimension.
    #[must_use]
    pub fn infer(&self, probe: &Hypervector) -> Option<Inference> {
        let comparator = self.comparator_tree()?;
        let distances = self.distances(probe);
        let (index, distance) = comparator.argmin(&distances);
        Some(Inference { index, distance })
    }

    /// Critical-path timing under a technology corner.
    ///
    /// Purely structural — see [`CombinationalAm::timing_for`].
    #[must_use]
    pub fn timing(&self, tech: &TechnologyParams) -> TimingReport {
        Self::timing_for(self.stored.len().max(1), self.dimension, tech)
    }

    /// Timing for a datapath of `k` entries and dimension `d` without
    /// materializing one (all three stage delays are functions of the
    /// shape alone).
    #[must_use]
    pub fn timing_for(k: usize, d: usize, tech: &TechnologyParams) -> TimingReport {
        let adder = AdderTree::new(d);
        let comparator = ComparatorTree::new(k.max(1), adder.output_bits());
        TimingReport {
            xor_ps: tech.xor_delay_ps,
            adder_tree_ps: adder.critical_path_fa() as f64 * tech.fa_delay_ps,
            comparator_ps: comparator.critical_path_stages() as f64
                * tech.compare_delay_per_bit_ps,
        }
    }

    /// Gate-count area of the instantiated datapath.
    #[must_use]
    pub fn area(&self) -> AreaReport {
        Self::area_for(self.stored.len(), self.dimension)
    }

    /// Area for a datapath of `k` entries and dimension `d`.
    #[must_use]
    pub fn area_for(k: usize, d: usize) -> AreaReport {
        let adder = AdderTree::new(d);
        AreaReport {
            xor_gates: k * d,
            fa_equivalents: k * adder.fa_equivalents(),
            comparator_nodes: k.saturating_sub(1),
            storage_bits: k * d,
            rematerialized_storage_bits: d,
        }
    }

    /// Switching activity of one lookup with this probe.
    ///
    /// XOR toggles are exact (outputs that differ from zero are exactly
    /// the difference bits); arithmetic stages use the first-order
    /// `α = ½` activity convention of hand energy estimates.
    ///
    /// # Panics
    ///
    /// Panics if `probe` has the wrong dimension.
    #[must_use]
    pub fn activity(&self, probe: &Hypervector) -> EnergyActivity {
        let distances = self.distances(probe);
        let adder = self.adder_tree();
        EnergyActivity {
            xor_toggles: distances.iter().sum(),
            adder_toggles: (self.stored.len() * adder.node_count()) as u64 / 2,
            comparator_toggles: self.stored.len().saturating_sub(1) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdhash_hdc::{AssociativeMemory, Rng};

    fn filled(k: usize, d: usize, seed: u64) -> (CombinationalAm, Vec<Hypervector>) {
        let mut rng = Rng::new(seed);
        let stored: Vec<Hypervector> = (0..k).map(|_| Hypervector::random(d, &mut rng)).collect();
        (CombinationalAm::new(d, stored.clone()).expect("uniform dimensions"), stored)
    }

    #[test]
    fn infer_matches_software_associative_memory() {
        // The central contract: the gate-level dataflow and the software
        // scan return the same winner for the same state.
        let (am, stored) = filled(33, 1024, 60);
        let mut software = AssociativeMemory::new(1024);
        for (i, hv) in stored.iter().enumerate() {
            software.insert(i, hv.clone()).expect("dims");
        }
        let mut rng = Rng::new(61);
        for _ in 0..50 {
            let probe = Hypervector::random(1024, &mut rng);
            let hw = am.infer(&probe).expect("non-empty");
            let sw = software.nearest(&probe).expect("non-empty");
            assert_eq!(hw.index, sw.key);
        }
    }

    #[test]
    fn distances_equal_hamming() {
        let (am, stored) = filled(9, 500, 62);
        let probe = Hypervector::random(500, &mut Rng::new(63));
        let through_trees = am.distances(&probe);
        for (i, hv) in stored.iter().enumerate() {
            assert_eq!(through_trees[i], probe.hamming_distance(hv) as u64);
        }
    }

    #[test]
    fn exact_probe_hits_itself_at_distance_zero() {
        let (am, stored) = filled(16, 2048, 64);
        for (i, hv) in stored.iter().enumerate() {
            let hit = am.infer(hv).expect("non-empty");
            assert_eq!((hit.index, hit.distance), (i, 0));
        }
    }

    #[test]
    fn empty_memory_infers_none() {
        let am = CombinationalAm::new(64, Vec::new()).expect("no vectors to mismatch");
        assert!(am.is_empty());
        assert!(am.infer(&Hypervector::zeros(64)).is_none());
        assert!(am.comparator_tree().is_none());
    }

    #[test]
    fn construction_rejects_mixed_dimensions() {
        let stored = vec![Hypervector::zeros(64), Hypervector::zeros(65)];
        assert!(CombinationalAm::new(64, stored).is_err());
    }

    #[test]
    fn timing_grows_logarithmically_in_k_and_d() {
        let tech = TechnologyParams::asic_22nm();
        let base = CombinationalAm::timing_for(64, 1024, &tech).critical_path_ps();
        let wide = CombinationalAm::timing_for(64, 16_384, &tech).critical_path_ps();
        let tall = CombinationalAm::timing_for(2048, 1024, &tech).critical_path_ps();
        // 16x the dimension and 32x the pool each cost well under 2x delay
        // (log depth) — the hardware version of the paper's O(1) claim.
        assert!(wide < 2.0 * base, "d-scaling not logarithmic: {base} -> {wide}");
        assert!(tall < 2.0 * base, "k-scaling not logarithmic: {base} -> {tall}");
    }

    #[test]
    fn single_cycle_at_plausible_frequency() {
        // The paper's configuration: 512 servers, 10k-bit hypervectors.
        let tech = TechnologyParams::fpga_28nm();
        let timing = CombinationalAm::timing_for(512, 10_000, &tech);
        let mhz = timing.max_frequency_hz() / 1.0e6;
        // A deep combinational path — tens of MHz on FPGA is the expected
        // order; it must be a usable clock, not sub-MHz.
        assert!(mhz > 10.0, "combinational clock too slow: {mhz:.1} MHz");
        assert!(mhz < 1000.0, "model too optimistic: {mhz:.1} MHz");
    }

    #[test]
    fn area_accounts_rematerialization_saving() {
        let area = CombinationalAm::area_for(512, 10_000);
        assert_eq!(area.xor_gates, 512 * 10_000);
        assert_eq!(area.storage_bits, 5_120_000);
        assert_eq!(area.rematerialized_storage_bits, 10_000);
        assert_eq!(area.comparator_nodes, 511);
        assert!(area.fa_equivalents > 512 * 9_999);
    }

    #[test]
    fn activity_scales_with_probe_distance() {
        let (am, stored) = filled(8, 4096, 65);
        // Probing with a stored vector floors the XOR toggles relative to
        // a random probe.
        let near = am.activity(&stored[0]);
        let far = am.activity(&Hypervector::random(4096, &mut Rng::new(66)));
        assert!(near.xor_toggles < far.xor_toggles);
        assert!(near.total_toggles() > 0);
        let tech = TechnologyParams::asic_7nm();
        assert!(far.energy_fj(&tech) > near.energy_fj(&tech));
    }

    #[test]
    fn timing_report_stage_sum() {
        let tech = TechnologyParams::asic_22nm();
        let t = CombinationalAm::timing_for(100, 1000, &tech);
        let sum = t.xor_ps + t.adder_tree_ps + t.comparator_ps;
        assert!((t.critical_path_ps() - sum).abs() < 1e-9);
        assert!(t.max_frequency_hz() > 0.0);
    }
}
