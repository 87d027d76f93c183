//! Serving-engine configuration.

use crate::ServeError;
use hdhash_hdc::EngineOptions;
use hdhash_obs::TraceConfig;

/// Shape of a [`ServeEngine`](crate::ServeEngine): how many workers
/// coalesce the traffic, and the geometry of the one HD table they route
/// through.
///
/// Every field has a production-flavoured default; override with struct
/// update syntax:
///
/// ```
/// use hdhash_serve::ServeConfig;
///
/// let config = ServeConfig { workers: 4, ..ServeConfig::default() };
/// assert!(config.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Always 1: the engine routes every key through one published table,
    /// and [`validate`](Self::validate) rejects any other value. The field
    /// stays only because the `perfbench/` benchmark, which is kept
    /// unchanged between versions, sets and reads it.
    pub shards: usize,
    /// Worker threads draining the request queue into coalesced batches.
    pub workers: usize,
    /// Maximum jobs one worker drains into a single coalesced batch (the
    /// paper batches 256 requests per GPU dispatch; the CPU sweet spot is
    /// smaller).
    pub batch_capacity: usize,
    /// Bound of the request queue — the backpressure knob: a full queue
    /// rejects submissions with
    /// [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Hypervector dimension of the table.
    pub dimension: usize,
    /// Codebook cardinality `n` of the table.
    pub codebook_size: usize,
    /// Seed of the table's codebook basis. Slot assignment does not depend
    /// on it (the table hashes keys and servers with one fixed hash), so
    /// replicas that share the dimension and codebook size place a given
    /// id on the same codebook slot whatever their seeds.
    pub seed: u64,
    /// Lookup-engine options for the table. The engine has a
    /// single layout and scan, so [`EngineOptions`] has no fields and this
    /// one changes nothing.
    pub engine: EngineOptions,
    /// Request-path tracing (disabled by default; see
    /// [`hdhash_obs::Tracer`] and `docs/OBSERVABILITY.md`).
    pub trace: TraceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            workers: 2,
            batch_capacity: 64,
            queue_capacity: 4096,
            dimension: 4096,
            codebook_size: 256,
            seed: 0x5E27E,
            engine: EngineOptions,
            trace: TraceConfig::disabled(),
        }
    }
}

impl ServeConfig {
    /// Validates the structural fields (the HD-table geometry is validated
    /// again, more precisely, by `HdConfig` when the table is built).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.shards != 1 {
            return Err(ServeError::InvalidConfig(format!(
                "shards must be 1 (the engine keeps one routing table), got {}",
                self.shards
            )));
        }
        let field_positive = [
            ("workers", self.workers),
            ("batch_capacity", self.batch_capacity),
            ("queue_capacity", self.queue_capacity),
            ("dimension", self.dimension),
            ("codebook_size", self.codebook_size),
        ];
        for (name, value) in field_positive {
            if value == 0 {
                return Err(ServeError::InvalidConfig(format!("{name} must be positive")));
            }
        }
        if self.dimension < 2 * self.codebook_size {
            return Err(ServeError::InvalidConfig(format!(
                "dimension {} must be at least 2 × codebook_size {}",
                self.dimension, self.codebook_size
            )));
        }
        if self.trace.enabled {
            if self.trace.sample_every == 0 {
                return Err(ServeError::InvalidConfig(
                    "trace.sample_every must be positive when tracing is enabled".into(),
                ));
            }
            if self.trace.ring_capacity == 0 {
                return Err(ServeError::InvalidConfig(
                    "trace.ring_capacity must be positive when tracing is enabled".into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_fields_are_rejected() {
        for field in 0..6 {
            let mut c = ServeConfig::default();
            match field {
                0 => c.shards = 0,
                1 => c.workers = 0,
                2 => c.batch_capacity = 0,
                3 => c.queue_capacity = 0,
                4 => c.dimension = 0,
                _ => c.codebook_size = 0,
            }
            assert!(matches!(c.validate(), Err(ServeError::InvalidConfig(_))), "field {field}");
        }
    }

    #[test]
    fn shards_accepts_only_one() {
        assert_eq!(ServeConfig::default().shards, 1);
        for shards in [2, 4, usize::MAX] {
            let c = ServeConfig { shards, ..ServeConfig::default() };
            assert!(matches!(c.validate(), Err(ServeError::InvalidConfig(_))), "shards {shards}");
        }
    }

    #[test]
    fn undersized_dimension_is_rejected() {
        let c = ServeConfig { dimension: 256, codebook_size: 256, ..ServeConfig::default() };
        assert!(matches!(c.validate(), Err(ServeError::InvalidConfig(_))));
    }

    #[test]
    fn enabled_tracing_validates_its_knobs() {
        let good = ServeConfig { trace: TraceConfig::sampled(64), ..ServeConfig::default() };
        assert!(good.validate().is_ok());
        let zero_rate = ServeConfig {
            trace: TraceConfig { enabled: true, sample_every: 0, ring_capacity: 16 },
            ..ServeConfig::default()
        };
        assert!(matches!(zero_rate.validate(), Err(ServeError::InvalidConfig(_))));
        let zero_ring = ServeConfig {
            trace: TraceConfig { enabled: true, sample_every: 1, ring_capacity: 0 },
            ..ServeConfig::default()
        };
        assert!(matches!(zero_ring.validate(), Err(ServeError::InvalidConfig(_))));
        // Disabled tracing skips the knob checks entirely.
        let off = ServeConfig {
            trace: TraceConfig { enabled: false, sample_every: 0, ring_capacity: 0 },
            ..ServeConfig::default()
        };
        assert!(off.validate().is_ok());
    }
}
