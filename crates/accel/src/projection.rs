//! Projecting the paper's Figure 4 onto modelled HDC hardware.
//!
//! Figure 4 plots average request-handling time against pool size for
//! consistent, rendezvous and HD hashing, with HD measured on a GPU
//! stand-in for real HDC hardware; Section 5.2 then argues accelerators
//! would flatten HD's curve to a constant. This module computes that
//! projected curve from the gate-level model, so the benchmark harness
//! can print the measured CPU series and the projected hardware series
//! side by side — making the substitution (GPU → cycle model) explicit
//! and auditable rather than a verbal claim.

use crate::tech::TechnologyParams;
use crate::timing::{ExecutionModel, LookupSchedule};

/// One projected point of the Figure 4 curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectionPoint {
    /// Pool size `k` (stored server hypervectors).
    pub servers: usize,
    /// Steady-state seconds per request on the modelled hardware.
    pub seconds_per_request: f64,
}

/// Projects steady-state request-handling time for each pool size.
///
/// `dimension` is the hypervector width (the paper's default is 10 000)
/// and `model` selects the clocking discipline — use
/// [`ExecutionModel::Combinational`] for the paper's single-cycle claim.
///
/// # Panics
///
/// Panics if any pool size or the dimension is zero.
///
/// # Examples
///
/// ```
/// use hdhash_accel::projection::project_figure4;
/// use hdhash_accel::{ExecutionModel, TechnologyParams};
///
/// let points = project_figure4(
///     &[2, 32, 512, 2048],
///     10_000,
///     ExecutionModel::Combinational,
///     &TechnologyParams::fpga_28nm(),
/// );
/// // Single-cycle hardware: the curve is flat where software is O(n).
/// let first = points.first().expect("non-empty").seconds_per_request;
/// let last = points.last().expect("non-empty").seconds_per_request;
/// assert!(last / first < 2.0);
/// ```
#[must_use]
pub fn project_figure4(
    pool_sizes: &[usize],
    dimension: usize,
    model: ExecutionModel,
    tech: &TechnologyParams,
) -> Vec<ProjectionPoint> {
    pool_sizes
        .iter()
        .map(|&k| ProjectionPoint {
            servers: k,
            seconds_per_request: LookupSchedule::plan(model, k, dimension, tech)
                .time_per_lookup_ps()
                / 1.0e12,
        })
        .collect()
}

/// The speedup of a projected hardware point over a measured software
/// time for the same pool size.
///
/// # Panics
///
/// Panics if `software_seconds_per_request` is not positive and finite.
#[must_use]
pub fn speedup_over_software(point: ProjectionPoint, software_seconds_per_request: f64) -> f64 {
    assert!(
        software_seconds_per_request.is_finite() && software_seconds_per_request > 0.0,
        "software time must be positive"
    );
    software_seconds_per_request / point.seconds_per_request
}

#[cfg(test)]
mod tests {
    use super::*;

    const POOLS: [usize; 11] = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

    #[test]
    fn combinational_projection_is_flat() {
        let points = project_figure4(
            &POOLS,
            10_000,
            ExecutionModel::Combinational,
            &TechnologyParams::fpga_28nm(),
        );
        assert_eq!(points.len(), POOLS.len());
        let first = points[0].seconds_per_request;
        let last = points[POOLS.len() - 1].seconds_per_request;
        assert!(last / first < 2.0, "single-cycle curve must be near-flat");
        // Every point is a usable sub-microsecond lookup.
        for p in &points {
            assert!(p.seconds_per_request < 1.0e-6, "{p:?}");
            assert!(p.seconds_per_request > 0.0, "{p:?}");
        }
    }

    #[test]
    fn word_serial_projection_is_linear() {
        let points = project_figure4(
            &POOLS,
            10_000,
            ExecutionModel::WordSerial { lanes: 8 },
            &TechnologyParams::asic_22nm(),
        );
        let first = points[0].seconds_per_request;
        let last = points[POOLS.len() - 1].seconds_per_request;
        let ratio = last / first;
        assert!(
            (512.0..2048.0).contains(&ratio),
            "word-serial must scale ~1024x over the sweep, got {ratio:.0}x"
        );
    }

    #[test]
    fn pipelined_throughput_beats_combinational() {
        let tech = TechnologyParams::asic_22nm();
        let single =
            project_figure4(&[512], 10_000, ExecutionModel::Combinational, &tech)[0];
        let piped =
            project_figure4(&[512], 10_000, ExecutionModel::Pipelined { stages: 8 }, &tech)[0];
        assert!(piped.seconds_per_request <= single.seconds_per_request);
    }

    #[test]
    fn speedup_is_ratio() {
        let point = ProjectionPoint { servers: 512, seconds_per_request: 1.0e-8 };
        let speedup = speedup_over_software(point, 1.0e-5);
        assert!((speedup - 1000.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn speedup_rejects_nonpositive_software_time() {
        let point = ProjectionPoint { servers: 1, seconds_per_request: 1.0e-9 };
        let _ = speedup_over_software(point, 0.0);
    }

    #[test]
    fn corners_preserve_ordering() {
        // Faster corners give faster lookups at identical shape.
        let fpga = project_figure4(&[512], 10_000, ExecutionModel::Combinational,
                                   &TechnologyParams::fpga_28nm())[0];
        let asic = project_figure4(&[512], 10_000, ExecutionModel::Combinational,
                                   &TechnologyParams::asic_22nm())[0];
        assert!(asic.seconds_per_request < fpga.seconds_per_request);
    }
}
