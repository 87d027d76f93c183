//! Execution schedules: how the datapath is clocked.
//!
//! The same gate-level datapath ([`crate::datapath`]) can be driven three
//! ways, trading clock frequency against cycles per lookup:
//!
//! * **Combinational** — the entire inference settles in one (long) cycle:
//!   Schmuck et al.'s demonstrated single-clock-cycle associative memory
//!   and the paper's `O(1)` reference point.
//! * **Pipelined** — registers split the critical path into `stages`;
//!   the clock shortens, a lookup takes `stages` cycles of latency, but a
//!   new lookup *starts every cycle* (initiation interval 1), so the
//!   streaming throughput matches the shorter clock.
//! * **Word-serial** — a small ALU array processes the hypervectors
//!   64-bit-word by word, the discipline a CPU/GPU emulation is stuck
//!   with; cycles per lookup grow linearly in `k · d`. This is the model
//!   of the *software* implementations the paper measures, included so
//!   projections can show all three regimes on one axis.

use crate::datapath::CombinationalAm;
use crate::tech::TechnologyParams;

/// How the datapath is clocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionModel {
    /// One combinational cycle per lookup (the paper's reference point).
    Combinational,
    /// `stages` pipeline registers across the critical path; initiation
    /// interval of one cycle.
    Pipelined {
        /// Number of pipeline stages (clamped to at least 1).
        stages: usize,
    },
    /// `lanes` 64-bit word operations per cycle over the whole memory —
    /// the software-equivalent regime.
    WordSerial {
        /// Word operations per cycle (clamped to at least 1).
        lanes: usize,
    },
}

impl core::fmt::Display for ExecutionModel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExecutionModel::Combinational => f.write_str("combinational"),
            ExecutionModel::Pipelined { stages } => write!(f, "pipelined({stages})"),
            ExecutionModel::WordSerial { lanes } => write!(f, "word-serial({lanes})"),
        }
    }
}

/// A concrete clocking plan for one datapath shape under one technology
/// corner.
///
/// # Examples
///
/// ```
/// use hdhash_accel::{ExecutionModel, LookupSchedule, TechnologyParams};
///
/// let tech = TechnologyParams::fpga_28nm();
/// let single = LookupSchedule::plan(ExecutionModel::Combinational, 512, 10_000, &tech);
/// assert_eq!(single.latency_cycles, 1);
/// let piped = LookupSchedule::plan(ExecutionModel::Pipelined { stages: 8 }, 512, 10_000, &tech);
/// // Pipelining never slows the stream down.
/// assert!(piped.time_per_lookup_ps() <= single.time_per_lookup_ps());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LookupSchedule {
    /// The clocking discipline.
    pub model: ExecutionModel,
    /// Clock period, in picoseconds.
    pub cycle_time_ps: f64,
    /// Cycles from probe to winner for one lookup.
    pub latency_cycles: u64,
    /// Cycles between consecutive lookup starts in a stream.
    pub initiation_interval_cycles: u64,
}

impl LookupSchedule {
    /// Plans a schedule for `k` stored vectors of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `d == 0`.
    #[must_use]
    pub fn plan(model: ExecutionModel, k: usize, d: usize, tech: &TechnologyParams) -> Self {
        assert!(k > 0, "a schedule for an empty memory is undefined");
        assert!(d > 0, "dimension must be positive");
        let critical_path_ps = CombinationalAm::timing_for(k, d, tech).critical_path_ps();
        let platform_period_ps = 1.0e12 / tech.max_platform_clock_hz;
        match model {
            ExecutionModel::Combinational => Self {
                model,
                cycle_time_ps: critical_path_ps.max(platform_period_ps),
                latency_cycles: 1,
                initiation_interval_cycles: 1,
            },
            ExecutionModel::Pipelined { stages } => {
                let stages = stages.max(1);
                Self {
                    model,
                    cycle_time_ps: (critical_path_ps / stages as f64).max(platform_period_ps),
                    latency_cycles: stages as u64,
                    initiation_interval_cycles: 1,
                }
            }
            ExecutionModel::WordSerial { lanes } => {
                let lanes = lanes.max(1);
                let word_ops = k as u64 * d.div_ceil(64) as u64;
                let cycles = word_ops.div_ceil(lanes as u64).max(1);
                Self {
                    model,
                    cycle_time_ps: platform_period_ps,
                    latency_cycles: cycles,
                    initiation_interval_cycles: cycles,
                }
            }
        }
    }

    /// Probe-to-winner latency of one lookup, in picoseconds.
    #[must_use]
    pub fn latency_ps(&self) -> f64 {
        self.latency_cycles as f64 * self.cycle_time_ps
    }

    /// Steady-state time per lookup in a request stream, in picoseconds
    /// (initiation interval × clock period).
    #[must_use]
    pub fn time_per_lookup_ps(&self) -> f64 {
        self.initiation_interval_cycles as f64 * self.cycle_time_ps
    }

    /// Steady-state lookups per second.
    #[must_use]
    pub fn throughput_per_s(&self) -> f64 {
        1.0e12 / self.time_per_lookup_ps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: usize = 512;
    const D: usize = 10_000;

    #[test]
    fn combinational_cycle_covers_the_critical_path() {
        let tech = TechnologyParams::fpga_28nm();
        let cp = CombinationalAm::timing_for(K, D, &tech).critical_path_ps();
        let s = LookupSchedule::plan(ExecutionModel::Combinational, K, D, &tech);
        assert!(s.cycle_time_ps >= cp);
        assert_eq!(s.latency_cycles, 1);
        assert_eq!(s.initiation_interval_cycles, 1);
    }

    #[test]
    fn pipelining_trades_latency_for_throughput() {
        let tech = TechnologyParams::asic_22nm();
        let single = LookupSchedule::plan(ExecutionModel::Combinational, K, D, &tech);
        let piped = LookupSchedule::plan(ExecutionModel::Pipelined { stages: 8 }, K, D, &tech);
        assert!(piped.latency_cycles > single.latency_cycles);
        assert!(piped.throughput_per_s() >= single.throughput_per_s());
        assert!(piped.cycle_time_ps < single.cycle_time_ps);
    }

    #[test]
    fn platform_clock_caps_pipelining() {
        let tech = TechnologyParams::asic_7nm();
        // Absurd over-pipelining cannot beat the platform clock.
        let s = LookupSchedule::plan(ExecutionModel::Pipelined { stages: 10_000 }, K, D, &tech);
        let platform_period = 1.0e12 / tech.max_platform_clock_hz;
        assert!((s.cycle_time_ps - platform_period).abs() < 1e-9);
    }

    #[test]
    fn word_serial_scales_linearly_in_pool_size() {
        let tech = TechnologyParams::asic_22nm();
        let model = ExecutionModel::WordSerial { lanes: 8 };
        let small = LookupSchedule::plan(model, 64, D, &tech);
        let large = LookupSchedule::plan(model, 2048, D, &tech);
        let ratio = large.time_per_lookup_ps() / small.time_per_lookup_ps();
        assert!((31.0..33.0).contains(&ratio), "expected ~32x, got {ratio:.2}x");
    }

    #[test]
    fn combinational_is_flat_in_pool_size() {
        // The hardware restatement of the paper's O(1) claim.
        let tech = TechnologyParams::fpga_28nm();
        let small = LookupSchedule::plan(ExecutionModel::Combinational, 2, D, &tech);
        let large = LookupSchedule::plan(ExecutionModel::Combinational, 2048, D, &tech);
        let ratio = large.time_per_lookup_ps() / small.time_per_lookup_ps();
        assert!(ratio < 2.0, "combinational lookup must stay near-flat, got {ratio:.2}x");
    }

    #[test]
    fn degenerate_parameters_are_clamped() {
        let tech = TechnologyParams::fpga_28nm();
        let s = LookupSchedule::plan(ExecutionModel::Pipelined { stages: 0 }, 1, 1, &tech);
        assert_eq!(s.latency_cycles, 1);
        let s = LookupSchedule::plan(ExecutionModel::WordSerial { lanes: 0 }, 1, 1, &tech);
        assert_eq!(s.latency_cycles, 1);
    }

    #[test]
    fn display_names() {
        assert_eq!(ExecutionModel::Combinational.to_string(), "combinational");
        assert_eq!(ExecutionModel::Pipelined { stages: 4 }.to_string(), "pipelined(4)");
        assert_eq!(ExecutionModel::WordSerial { lanes: 2 }.to_string(), "word-serial(2)");
    }

    #[test]
    #[should_panic(expected = "empty memory")]
    fn empty_memory_schedule_panics() {
        let _ = LookupSchedule::plan(
            ExecutionModel::Combinational,
            0,
            64,
            &TechnologyParams::fpga_28nm(),
        );
    }
}
