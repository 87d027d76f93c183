//! Weighted HD hashing: heterogeneous server capacities through replicas.
//!
//! Real pools are rarely homogeneous — a deployment mixes instance sizes,
//! and load balancers weight servers by capacity. Consistent hashing
//! solves this with *virtual nodes* (each server occupies several ring
//! positions); the same idea transfers directly to HD hashing: a server
//! of weight `w` is encoded `w` times, at slots `h(s ‖ 0), …, h(s ‖ w−1)`,
//! and the arg-max of Eq. 2 runs over all stored *replicas*. A request is
//! served by whichever server owns the winning replica, so expected load
//! is proportional to replica count — i.e. to weight.
//!
//! Replicas also serve homogeneous pools: more replicas per server means
//! more, shorter arcs on the circle and a tighter load distribution (the
//! same reason consistent-hashing deployments run tens of virtual nodes
//! per server). The `ablation` bench quantifies this for both algorithms.
//!
//! The robustness story is unchanged: stored state is hypervectors on the
//! quantum grid, and the quantized arg-max tolerates any corruption below
//! half a quantum per replica, exactly as in [`crate::HdHashTable`].

use hdhash_hdc::{noise, AssociativeMemory, Rng};
use hdhash_table::{DynamicHashTable, NoisyTable, RequestKey, ServerId, TableError};

use crate::codebook::Codebook;
use crate::config::HdConfig;

/// One stored replica: which server owns it and its replica index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Replica {
    server: ServerId,
    index: u32,
    slot: usize,
}

/// A weighted HD hash table.
///
/// [`DynamicHashTable::join`] adds a server with weight 1;
/// [`WeightedHdTable::join_weighted`] chooses the weight. All other
/// behaviour (quantized robustness, noise surface, batch lookups through
/// the shared trait) matches [`crate::HdHashTable`].
///
/// # Examples
///
/// ```
/// use hdhash_core::WeightedHdTable;
/// use hdhash_table::{DynamicHashTable, RequestKey, ServerId};
///
/// let mut table = WeightedHdTable::builder().dimension(4096).codebook_size(256).build_config()
///     .map(WeightedHdTable::with_config)?;
/// table.join_weighted(ServerId::new(0), 1)?;
/// table.join_weighted(ServerId::new(1), 3)?; // 3x the capacity
/// let owner = table.lookup(RequestKey::new(42))?;
/// assert!(table.contains(owner));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct WeightedHdTable {
    config: HdConfig,
    codebook: Codebook,
    /// Stored replica encodings — the noise surface.
    memory: AssociativeMemory<(ServerId, u32)>,
    /// Clean replica records, in join order.
    replicas: Vec<Replica>,
    /// Per-server weights, in join order.
    weights: Vec<(ServerId, u32)>,
}

impl WeightedHdTable {
    /// Starts a configuration builder (same parameters as
    /// [`crate::HdHashTable`]).
    #[must_use]
    pub fn builder() -> crate::config::HdConfigBuilder {
        HdConfig::builder()
    }

    /// Creates a table from a validated configuration.
    #[must_use]
    pub fn with_config(config: HdConfig) -> Self {
        let codebook = Codebook::generate_with(
            config.codebook_size,
            config.dimension,
            config.flip_strategy,
            config.seed,
        );
        let memory = AssociativeMemory::new(config.dimension).with_strategy(config.search);
        Self { config, codebook, memory, replicas: Vec::new(), weights: Vec::new() }
    }

    /// Creates a table with the default configuration.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(HdConfig::default())
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &HdConfig {
        &self.config
    }

    /// The weight a server joined with, if present.
    #[must_use]
    pub fn weight_of(&self, server: ServerId) -> Option<u32> {
        self.weights.iter().find(|&&(s, _)| s == server).map(|&(_, w)| w)
    }

    /// Total replicas currently stored.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Adds a server holding `weight` replicas.
    ///
    /// # Errors
    ///
    /// * [`TableError::ZeroWeight`] if `weight == 0`;
    /// * [`TableError::ServerAlreadyPresent`] if the server already joined;
    /// * [`TableError::CapacityExhausted`] if the added replicas would
    ///   fill the codebook (the `n > k` requirement counts replicas here).
    pub fn join_weighted(&mut self, server: ServerId, weight: u32) -> Result<(), TableError> {
        if weight == 0 {
            return Err(TableError::ZeroWeight(server));
        }
        if self.weights.iter().any(|&(s, _)| s == server) {
            return Err(TableError::ServerAlreadyPresent(server));
        }
        if self.replicas.len() + weight as usize >= self.codebook.len() {
            return Err(TableError::CapacityExhausted {
                servers: self.replicas.len(),
                capacity: self.codebook.len() - 1,
            });
        }
        for index in 0..weight {
            let bytes = Self::replica_bytes(server, index);
            let (slot, hv) = self.codebook.encode(&bytes);
            let hv = hv.clone();
            self.replicas.push(Replica { server, index, slot });
            self.memory
                .insert((server, index), hv)
                .expect("codebook dimension matches memory");
        }
        self.weights.push((server, weight));
        Ok(())
    }

    /// The codebook slots a server's replicas occupy, if joined.
    #[must_use]
    pub fn slots_of_server(&self, server: ServerId) -> Option<Vec<usize>> {
        if !self.weights.iter().any(|&(s, _)| s == server) {
            return None;
        }
        Some(
            self.replicas
                .iter()
                .filter(|r| r.server == server)
                .map(|r| r.slot)
                .collect(),
        )
    }

    fn replica_bytes(server: ServerId, index: u32) -> Vec<u8> {
        let mut bytes = server.to_bytes().to_vec();
        bytes.extend_from_slice(&index.to_le_bytes());
        bytes
    }

    /// Resolves one request over all replicas (Eq. 2).
    fn resolve(&self, request: RequestKey) -> Result<ServerId, TableError> {
        let (_, probe) = self.codebook.encode(&request.to_bytes());
        if self.memory.is_empty() {
            return Err(TableError::EmptyPool);
        }
        match self.config.flip_strategy {
            hdhash_hdc::basis::FlipStrategy::Partition => {
                // Quantized arg-max with a deterministic tie-break on
                // (server, replica) — see HdHashTable::lookup_slot.
                let c = self.config.quantum();
                self.memory
                    .nearest_quantized_by(probe, c, |&(server, index)| (server.get(), index))
                    .map(|(server, _)| server)
                    .ok_or(TableError::EmptyPool)
            }
            hdhash_hdc::basis::FlipStrategy::Independent { .. } => {
                self.memory.nearest(probe).map(|m| m.key.0).ok_or(TableError::EmptyPool)
            }
        }
    }

    fn rebuild_memory(&mut self) {
        let mut memory =
            AssociativeMemory::new(self.config.dimension).with_strategy(self.config.search);
        for replica in &self.replicas {
            memory
                .insert(
                    (replica.server, replica.index),
                    self.codebook.hypervector(replica.slot).clone(),
                )
                .expect("codebook dimension matches memory");
        }
        self.memory = memory;
    }
}

impl Default for WeightedHdTable {
    fn default() -> Self {
        Self::new()
    }
}

impl DynamicHashTable for WeightedHdTable {
    fn join(&mut self, server: ServerId) -> Result<(), TableError> {
        self.join_weighted(server, 1)
    }

    fn leave(&mut self, server: ServerId) -> Result<(), TableError> {
        let idx = self
            .weights
            .iter()
            .position(|&(s, _)| s == server)
            .ok_or(TableError::ServerNotFound(server))?;
        self.weights.remove(idx);
        self.replicas.retain(|r| r.server != server);
        self.memory.remove_where(|&(s, _)| s == server);
        Ok(())
    }

    fn lookup(&self, request: RequestKey) -> Result<ServerId, TableError> {
        self.resolve(request)
    }

    fn server_count(&self) -> usize {
        self.weights.len()
    }

    fn servers(&self) -> Vec<ServerId> {
        self.weights.iter().map(|&(s, _)| s).collect()
    }

    fn algorithm_name(&self) -> &'static str {
        "hd-weighted"
    }
}

impl NoisyTable for WeightedHdTable {
    fn inject_bit_flips(&mut self, count: usize, seed: u64) -> usize {
        let mut rng = Rng::new(seed);
        noise::flip_random_bits(&mut self.memory, count, &mut rng)
    }

    fn inject_burst(&mut self, length: usize, seed: u64) -> usize {
        let mut rng = Rng::new(seed);
        noise::flip_burst(&mut self.memory, length, &mut rng)
    }

    fn clear_noise(&mut self) {
        self.rebuild_memory();
    }

    fn noise_surface_bits(&self) -> usize {
        self.memory.len() * self.config.dimension
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdhash_table::{remap_fraction, Assignment};

    fn table() -> WeightedHdTable {
        WeightedHdTable::with_config(
            WeightedHdTable::builder()
                .dimension(8192)
                .codebook_size(512)
                .seed(21)
                .build_config()
                .expect("valid config"),
        )
    }

    fn keys(n: u64) -> Vec<RequestKey> {
        (0..n).map(RequestKey::new).collect()
    }

    #[test]
    fn weight_lifecycle_and_errors() {
        let mut t = table();
        assert_eq!(t.join_weighted(ServerId::new(1), 0), Err(TableError::ZeroWeight(ServerId::new(1))));
        t.join_weighted(ServerId::new(1), 3).expect("fresh");
        assert_eq!(t.weight_of(ServerId::new(1)), Some(3));
        assert_eq!(t.replica_count(), 3);
        assert_eq!(t.server_count(), 1);
        assert_eq!(
            t.join_weighted(ServerId::new(1), 1),
            Err(TableError::ServerAlreadyPresent(ServerId::new(1)))
        );
        t.leave(ServerId::new(1)).expect("present");
        assert_eq!(t.replica_count(), 0);
        assert_eq!(t.weight_of(ServerId::new(1)), None);
        assert_eq!(t.lookup(RequestKey::new(0)), Err(TableError::EmptyPool));
    }

    #[test]
    fn default_join_is_weight_one() {
        let mut t = table();
        t.join(ServerId::new(7)).expect("fresh");
        assert_eq!(t.weight_of(ServerId::new(7)), Some(1));
        assert_eq!(t.algorithm_name(), "hd-weighted");
        assert_eq!(t.slots_of_server(ServerId::new(7)).expect("joined").len(), 1);
        assert!(t.slots_of_server(ServerId::new(8)).is_none());
    }

    #[test]
    fn load_tracks_weight() {
        // Eight weight-1 servers and eight weight-4 servers: the heavy
        // group holds 32 of 40 replicas, so its aggregate share of the
        // stream must approach 32/40 = 0.8. (Aggregating over a group
        // averages out the high variance of individual arc lengths.)
        let mut t = table();
        for id in 0..8u64 {
            t.join_weighted(ServerId::new(id), 1).expect("fresh");
        }
        for id in 8..16u64 {
            t.join_weighted(ServerId::new(id), 4).expect("fresh");
        }
        let loads =
            Assignment::capture(&t, keys(20_000)).expect("non-empty").load_by_server();
        let light: usize =
            (0..8u64).map(|id| *loads.get(&ServerId::new(id)).unwrap_or(&0)).sum();
        let heavy: usize =
            (8..16u64).map(|id| *loads.get(&ServerId::new(id)).unwrap_or(&0)).sum();
        let share = heavy as f64 / (light + heavy) as f64;
        assert!((0.65..0.92).contains(&share), "heavy-group share {share:.3}");
    }

    #[test]
    fn equal_weights_split_roughly_evenly() {
        let mut t = table();
        for id in 0..8u64 {
            t.join_weighted(ServerId::new(id), 8).expect("fresh");
        }
        let loads =
            Assignment::capture(&t, keys(32_000)).expect("non-empty").load_by_server();
        for id in 0..8u64 {
            let share = *loads.get(&ServerId::new(id)).unwrap_or(&0) as f64 / 32_000.0;
            // Fair share is 1/8 = 0.125; 8 replicas each tighten the arcs.
            assert!((0.04..0.25).contains(&share), "server {id} share {share:.3}");
        }
    }

    #[test]
    fn replicas_improve_uniformity() {
        // The virtual-node effect: more replicas per server pull the load
        // distribution toward uniform. Measured by max/min load ratio.
        let spread = |weight: u32| {
            let mut t = table();
            for id in 0..8u64 {
                t.join_weighted(ServerId::new(id), weight).expect("fresh");
            }
            let loads =
                Assignment::capture(&t, keys(24_000)).expect("non-empty").load_by_server();
            let max = loads.values().copied().max().unwrap_or(0) as f64;
            let min = loads.values().copied().min().unwrap_or(0).max(1) as f64;
            max / min
        };
        let coarse = spread(1);
        let fine = spread(16);
        assert!(
            fine < coarse,
            "16 replicas should beat 1 replica on balance: {fine:.2} vs {coarse:.2}"
        );
    }

    #[test]
    fn robustness_holds_with_replicas() {
        let mut t = table();
        for id in 0..6u64 {
            t.join_weighted(ServerId::new(id), 4).expect("fresh");
        }
        let reference = Assignment::capture(&t, keys(2000)).expect("non-empty");
        for flips in [1usize, 5, 10] {
            t.inject_bit_flips(flips, flips as u64 + 7);
            let noisy = Assignment::capture(&t, keys(2000)).expect("non-empty");
            assert_eq!(remap_fraction(&reference, &noisy), 0.0, "{flips} flips mismatched");
        }
        t.clear_noise();
        let restored = Assignment::capture(&t, keys(2000)).expect("non-empty");
        assert_eq!(remap_fraction(&reference, &restored), 0.0);
    }

    #[test]
    fn leave_moves_only_the_leavers_requests() {
        let mut t = table();
        for id in 0..8u64 {
            t.join_weighted(ServerId::new(id), 3).expect("fresh");
        }
        let before = Assignment::capture(&t, keys(4000)).expect("non-empty");
        let victim = ServerId::new(3);
        t.leave(victim).expect("present");
        let after = Assignment::capture(&t, keys(4000)).expect("non-empty");
        for (r, s_before) in before.iter() {
            if s_before != victim {
                assert_eq!(after.server_of(r), Some(s_before), "{r} moved without cause");
            }
        }
    }

    #[test]
    fn capacity_counts_replicas() {
        let mut t = WeightedHdTable::with_config(
            WeightedHdTable::builder()
                .dimension(64)
                .codebook_size(8)
                .build_config()
                .expect("valid config"),
        );
        t.join_weighted(ServerId::new(0), 5).expect("fits");
        assert_eq!(
            t.join_weighted(ServerId::new(1), 3),
            Err(TableError::CapacityExhausted { servers: 5, capacity: 7 })
        );
        // A smaller weight still fits.
        t.join_weighted(ServerId::new(1), 2).expect("fits");
        assert_eq!(t.replica_count(), 7);
    }

    #[test]
    fn noise_surface_counts_replica_bits() {
        let mut t = table();
        t.join_weighted(ServerId::new(0), 5).expect("fresh");
        assert_eq!(t.noise_surface_bits(), 5 * t.config().dimension());
    }

    #[test]
    fn deterministic_across_instances() {
        let build = || {
            let mut t = table();
            for id in 0..5u64 {
                t.join_weighted(ServerId::new(id), (id % 3 + 1) as u32).expect("fresh");
            }
            t
        };
        let a = build();
        let b = build();
        for k in 0..300u64 {
            assert_eq!(
                a.lookup(RequestKey::new(k)).expect("non-empty"),
                b.lookup(RequestKey::new(k)).expect("non-empty")
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Replica bookkeeping is exact for any weight assignment,
            /// and every lookup lands on a joined server.
            #[test]
            fn bookkeeping_and_membership_hold(
                weights in prop::collection::vec(1u32..6, 1..12),
                probes in prop::collection::vec(any::<u64>(), 1..40),
            ) {
                let mut t = table();
                let mut expected_replicas = 0usize;
                for (id, &w) in weights.iter().enumerate() {
                    t.join_weighted(ServerId::new(id as u64), w).expect("within capacity");
                    expected_replicas += w as usize;
                }
                prop_assert_eq!(t.replica_count(), expected_replicas);
                prop_assert_eq!(t.server_count(), weights.len());
                prop_assert_eq!(
                    t.noise_surface_bits(),
                    expected_replicas * t.config().dimension()
                );
                let servers = t.servers();
                for &p in &probes {
                    let owner = t.lookup(RequestKey::new(p)).expect("non-empty pool");
                    prop_assert!(servers.contains(&owner));
                }
            }

            /// Leaving any one server never moves another server's keys.
            #[test]
            fn leave_is_minimally_disruptive(
                weights in prop::collection::vec(1u32..4, 2..8),
                victim_index in 0usize..8,
            ) {
                let mut t = table();
                for (id, &w) in weights.iter().enumerate() {
                    t.join_weighted(ServerId::new(id as u64), w).expect("within capacity");
                }
                let victim = ServerId::new((victim_index % weights.len()) as u64);
                let keys: Vec<RequestKey> = (0..500).map(RequestKey::new).collect();
                let before = Assignment::capture(&t, keys.iter().copied()).expect("non-empty");
                t.leave(victim).expect("present");
                if t.server_count() == 0 {
                    return Ok(());
                }
                let after = Assignment::capture(&t, keys.iter().copied()).expect("non-empty");
                for (r, s) in before.iter() {
                    if s != victim {
                        prop_assert_eq!(after.server_of(r), Some(s));
                    }
                }
            }
        }
    }
}
