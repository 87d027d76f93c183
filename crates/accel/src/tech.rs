//! Technology corners for the hardware cost model.
//!
//! Every delay, area and energy figure in this crate is expressed in
//! *technology-independent units* (full-adder delays, gate counts, gate
//! switches) and converted to physical units through a
//! [`TechnologyParams`] corner. The presets are order-of-magnitude
//! figures for the platforms the HDC hardware literature targets — a
//! mid-range FPGA (Schmuck et al. demonstrate their combinational
//! associative memory on an FPGA) and standard-cell ASIC processes —
//! not vendor datasheet values. The *shape* of every projection (how
//! lookup time scales with `k` and `d`) is independent of the corner;
//! only absolute numbers move.

/// Physical parameters of one implementation technology.
///
/// # Examples
///
/// ```
/// use hdhash_accel::TechnologyParams;
///
/// let fpga = TechnologyParams::fpga_28nm();
/// let asic = TechnologyParams::asic_22nm();
/// // ASIC gates are faster than FPGA LUT + routing hops.
/// assert!(asic.fa_delay_ps < fpga.fa_delay_ps);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TechnologyParams {
    /// Human-readable corner name.
    pub name: String,
    /// Delay of one full-adder stage, in picoseconds (includes local
    /// routing for FPGA corners).
    pub fa_delay_ps: f64,
    /// Delay of one 2-input XOR gate, in picoseconds.
    pub xor_delay_ps: f64,
    /// Delay of one `w`-bit compare-and-select node per bit, in
    /// picoseconds (the comparator is a ripple structure in `w`).
    pub compare_delay_per_bit_ps: f64,
    /// Energy of one gate output toggle, in femtojoules.
    pub switch_energy_fj: f64,
    /// Highest clock the platform can distribute regardless of logic
    /// depth, in hertz (pipelining cannot exceed this).
    pub max_platform_clock_hz: f64,
}

impl TechnologyParams {
    /// A 28 nm FPGA corner (6-LUT fabric, carry chains): the platform of
    /// Schmuck et al.'s demonstrated single-cycle associative memory.
    #[must_use]
    pub fn fpga_28nm() -> Self {
        Self {
            name: "fpga-28nm".to_string(),
            fa_delay_ps: 600.0,
            xor_delay_ps: 450.0,
            compare_delay_per_bit_ps: 60.0,
            switch_energy_fj: 15.0,
            max_platform_clock_hz: 500.0e6,
        }
    }

    /// A 22 nm standard-cell ASIC corner — the feature size of the
    /// paper's soft-error discussion (Ibe et al.).
    #[must_use]
    pub fn asic_22nm() -> Self {
        Self {
            name: "asic-22nm".to_string(),
            fa_delay_ps: 40.0,
            xor_delay_ps: 25.0,
            compare_delay_per_bit_ps: 8.0,
            switch_energy_fj: 0.8,
            max_platform_clock_hz: 3.0e9,
        }
    }

    /// An aggressive 7 nm ASIC corner, bounding what a modern process
    /// could reach.
    #[must_use]
    pub fn asic_7nm() -> Self {
        Self {
            name: "asic-7nm".to_string(),
            fa_delay_ps: 12.0,
            xor_delay_ps: 8.0,
            compare_delay_per_bit_ps: 2.5,
            switch_energy_fj: 0.15,
            max_platform_clock_hz: 5.0e9,
        }
    }

    /// All built-in corners, slowest first.
    #[must_use]
    pub fn presets() -> Vec<TechnologyParams> {
        vec![Self::fpga_28nm(), Self::asic_22nm(), Self::asic_7nm()]
    }
}

impl Default for TechnologyParams {
    /// Defaults to the FPGA corner — the only platform the cited work
    /// actually demonstrated.
    fn default() -> Self {
        Self::fpga_28nm()
    }
}

impl core::fmt::Display for TechnologyParams {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_are_ordered_by_speed() {
        let fpga = TechnologyParams::fpga_28nm();
        let asic22 = TechnologyParams::asic_22nm();
        let asic7 = TechnologyParams::asic_7nm();
        assert!(fpga.fa_delay_ps > asic22.fa_delay_ps);
        assert!(asic22.fa_delay_ps > asic7.fa_delay_ps);
        assert!(fpga.switch_energy_fj > asic7.switch_energy_fj);
        assert!(fpga.max_platform_clock_hz < asic7.max_platform_clock_hz);
    }

    #[test]
    fn all_parameters_positive() {
        for corner in TechnologyParams::presets() {
            assert!(corner.fa_delay_ps > 0.0, "{corner}");
            assert!(corner.xor_delay_ps > 0.0, "{corner}");
            assert!(corner.compare_delay_per_bit_ps > 0.0, "{corner}");
            assert!(corner.switch_energy_fj > 0.0, "{corner}");
            assert!(corner.max_platform_clock_hz > 0.0, "{corner}");
        }
    }

    #[test]
    fn default_is_the_demonstrated_platform() {
        assert_eq!(TechnologyParams::default(), TechnologyParams::fpga_28nm());
        assert_eq!(TechnologyParams::default().to_string(), "fpga-28nm");
    }
}
