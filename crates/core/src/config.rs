//! Configuration for HD hash tables.

use hdhash_hdc::basis::FlipStrategy;
use hdhash_hdc::{EngineOptions, SearchStrategy};

/// Validated configuration for an [`HdHashTable`](crate::HdHashTable).
///
/// Obtained through [`HdConfig::builder`]. The defaults reproduce the
/// paper's setup: ~10 000 dimensions, a codebook of `n = 512`
/// circular-hypervectors (room for 511 servers, honouring `n > k`),
/// inverse-Hamming similarity and serial search.
///
/// ## Dimension padding and the robustness quantum
///
/// The requested dimension is rounded **up** to the next multiple of
/// `2 · n`. With the default partitioned circular construction the
/// similarity profile then advances in *exact* steps of the quantum
/// `c = d / n` bits per circle node, and the table's quantized arg-max
/// (see [`HdHashTable`](crate::HdHashTable)) is provably unaffected by any
/// corruption of fewer than `c / 2` bits per stored hypervector — the
/// structural form of the paper's robustness result. The default
/// `d = 10_000` therefore becomes `10_240` with `n = 512` (`c = 20`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HdConfig {
    pub(crate) dimension: usize,
    pub(crate) codebook_size: usize,
    pub(crate) search: SearchStrategy,
    pub(crate) flip_strategy: FlipStrategy,
    pub(crate) seed: u64,
}

impl HdConfig {
    /// Starts building a configuration from the paper's defaults.
    #[must_use]
    pub fn builder() -> HdConfigBuilder {
        HdConfigBuilder::default()
    }

    /// Hypervector dimensionality `d`.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// Codebook cardinality `n` (the number of circle nodes).
    #[must_use]
    pub fn codebook_size(&self) -> usize {
        self.codebook_size
    }

    /// The associative-memory search strategy.
    #[must_use]
    pub fn search(&self) -> SearchStrategy {
        self.search
    }

    /// The circular-hypervector construction strategy.
    #[must_use]
    pub fn flip_strategy(&self) -> FlipStrategy {
        self.flip_strategy
    }

    /// The seed all randomness derives from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The robustness quantum `c = d / n`: the exact Hamming-distance step
    /// between adjacent circle nodes. Assignments tolerate any corruption
    /// below `c / 2` bits per stored hypervector.
    #[must_use]
    pub fn quantum(&self) -> usize {
        self.dimension / self.codebook_size
    }
}

impl Default for HdConfig {
    fn default() -> Self {
        HdConfig::builder().build_config().expect("defaults are valid")
    }
}

/// Builder for [`HdConfig`].
///
/// # Examples
///
/// ```
/// use hdhash_core::HdConfig;
///
/// let config = HdConfig::builder()
///     .dimension(4096)
///     .codebook_size(256)
///     .seed(7)
///     .build_config()?;
/// assert_eq!(config.dimension(), 4096);
/// # Ok::<(), hdhash_core::HdConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HdConfigBuilder {
    dimension: usize,
    codebook_size: usize,
    search: SearchStrategy,
    flip_strategy: Option<FlipStrategy>,
    seed: u64,
}

impl Default for HdConfigBuilder {
    fn default() -> Self {
        Self {
            dimension: 10_000,
            codebook_size: 512,
            search: SearchStrategy::Serial,
            flip_strategy: None,
            seed: 0x4844_4153_4821, // "HDHASH!"
        }
    }
}

impl HdConfigBuilder {
    /// Sets the *minimum* hypervector dimensionality `d` (paper default:
    /// 10 000). The built configuration rounds this up to the next multiple
    /// of `2 · n` so that circle steps are exact quanta; see
    /// [`HdConfig::quantum`].
    #[must_use]
    pub fn dimension(mut self, d: usize) -> Self {
        self.dimension = d;
        self
    }

    /// Sets the codebook cardinality `n`. Must exceed the number of
    /// servers that will ever be live at once (`n > k`).
    #[must_use]
    pub fn codebook_size(mut self, n: usize) -> Self {
        self.codebook_size = n;
        self
    }

    /// Sets the associative-memory search strategy.
    #[must_use]
    pub fn search(mut self, search: SearchStrategy) -> Self {
        self.search = search;
        self
    }

    /// Overrides the circular-basis construction strategy (default:
    /// [`FlipStrategy::Partition`]).
    #[must_use]
    pub fn flip_strategy(mut self, strategy: FlipStrategy) -> Self {
        self.flip_strategy = Some(strategy);
        self
    }

    /// Sets the deterministic seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Accepts lookup-engine options and changes nothing: the engine has
    /// a single layout and scan, so [`EngineOptions`] has nothing to set.
    #[must_use]
    pub fn engine_options(self, _options: EngineOptions) -> Self {
        self
    }

    /// Validates and produces the configuration.
    ///
    /// The dimension is rounded up to the next multiple of `2 · n`
    /// (at least `2 · n`), guaranteeing equal circle steps.
    ///
    /// # Errors
    ///
    /// [`HdConfigError::CodebookTooSmall`] if `n < 2`.
    pub fn build_config(self) -> Result<HdConfig, HdConfigError> {
        if self.codebook_size < 2 {
            return Err(HdConfigError::CodebookTooSmall { requested: self.codebook_size });
        }
        let step = 2 * self.codebook_size;
        let padded = self.dimension.div_ceil(step).max(1) * step;
        Ok(HdConfig {
            dimension: padded,
            codebook_size: self.codebook_size,
            search: self.search,
            flip_strategy: self.flip_strategy.unwrap_or(FlipStrategy::Partition),
            seed: self.seed,
        })
    }

    /// Validates the configuration and builds a ready
    /// [`HdHashTable`](crate::HdHashTable) in one step.
    ///
    /// # Errors
    ///
    /// Same as [`build_config`](HdConfigBuilder::build_config).
    pub fn build(self) -> Result<crate::HdHashTable, HdConfigError> {
        Ok(crate::HdHashTable::with_config(self.build_config()?))
    }
}

/// Invalid [`HdConfig`] parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum HdConfigError {
    /// The codebook must contain at least two hypervectors.
    CodebookTooSmall {
        /// Requested codebook size.
        requested: usize,
    },
}

impl core::fmt::Display for HdConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HdConfigError::CodebookTooSmall { requested } => {
                write!(f, "codebook size {requested} below minimum 2")
            }
        }
    }
}

impl std::error::Error for HdConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = HdConfig::default();
        // 10_000 padded up to the next multiple of 2·512.
        assert_eq!(c.dimension(), 10_240);
        assert_eq!(c.codebook_size(), 512);
        assert_eq!(c.quantum(), 20);
        assert_eq!(c.search(), SearchStrategy::Serial);
        assert_eq!(c.flip_strategy(), FlipStrategy::Partition);
    }

    #[test]
    fn builder_sets_everything() {
        let c = HdConfig::builder()
            .dimension(8192)
            .codebook_size(128)
            .search(SearchStrategy::Parallel { threads: 4 })
            .flip_strategy(FlipStrategy::Independent { flips_per_step: 10 })
            .seed(99)
            .build_config()
            .expect("valid");
        assert_eq!(c.dimension(), 8192); // already a multiple of 256
        assert_eq!(c.codebook_size(), 128);
        assert_eq!(c.quantum(), 64);
        assert_eq!(c.search(), SearchStrategy::Parallel { threads: 4 });
        assert_eq!(c.flip_strategy(), FlipStrategy::Independent { flips_per_step: 10 });
        assert_eq!(c.seed(), 99);
    }

    #[test]
    fn dimension_pads_up_to_quantum_grid() {
        let c = HdConfig::builder()
            .dimension(100)
            .codebook_size(64)
            .build_config()
            .expect("valid");
        assert_eq!(c.dimension(), 128);
        assert_eq!(c.quantum(), 2);
        // Zero rounds up to the minimum viable dimension.
        let c = HdConfig::builder().dimension(0).codebook_size(8).build_config().expect("valid");
        assert_eq!(c.dimension(), 16);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert_eq!(
            HdConfig::builder().codebook_size(1).build_config(),
            Err(HdConfigError::CodebookTooSmall { requested: 1 })
        );
    }

    #[test]
    fn error_display() {
        assert!(HdConfigError::CodebookTooSmall { requested: 1 }
            .to_string()
            .contains("below minimum"));
    }
}
