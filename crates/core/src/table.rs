//! The HD hash table (paper Section 3).

use hdhash_hdc::{noise, AssociativeMemory, Hypervector, MembershipCentroid, Rng};
use hdhash_table::{DynamicHashTable, NoisyTable, RequestKey, ServerId, TableError};

use crate::codebook::Codebook;
use crate::config::HdConfig;

/// The hyperdimensional dynamic hash table.
///
/// Joining a server encodes it through the codebook (Eq. 1) and stores the
/// resulting hypervector in an associative memory; looking up a request
/// encodes the request the same way and returns the server whose stored
/// hypervector is most similar (Eq. 2). Geometrically, every request is
/// routed to the server on the *nearest circle node* — like consistent
/// hashing, but without a preferred direction of rotation (see the paper's
/// Figure 1), and executed as an HDC inference.
///
/// ## Noise model and the robustness guarantee
///
/// The vulnerable state surface is the stored server hypervectors — the
/// memory a deployment actually keeps per server (`k · d` bits). With the
/// default partitioned circular codebook every clean request↔server
/// distance is an exact multiple of the quantum `c = d / n`
/// ([`HdConfig::quantum`]), and the arg-max compares distances *rounded to
/// that grid* (the thresholded associative-memory discipline of the
/// HDC-hardware literature the paper builds on — Schmuck et al. \[18\]).
/// Corrupting fewer than `c / 2` bits of any stored hypervector therefore
/// cannot change a single quantized comparison, so every assignment is
/// **provably identical** to the clean table's: the structural form of the
/// paper's Figure 5 result (0% mismatches for HD hashing). With the
/// defaults (`c = 20`) the table tolerates nine flipped bits per stored
/// vector — covering the paper's entire 0–10 flip sweep, since flips are
/// spread over the whole memory.
///
/// With the literal Algorithm 1 construction
/// ([`FlipStrategy::Independent`](hdhash_hdc::basis::FlipStrategy)) clean
/// distances are not grid-aligned and the table falls back to the raw
/// arg-max of Eq. 2, which is robust with overwhelming probability but not
/// by construction.
///
/// ## Collisions
///
/// Two servers whose hashes land on the same codebook slot receive
/// identical encodings; the arg-max then resolves ties toward the smaller
/// server identifier (membership-order independent). Keeping `n ≫ k`
/// makes collisions rare, mirroring the paper's `n > k` requirement.
///
/// # Examples
///
/// ```
/// use hdhash_core::HdHashTable;
/// use hdhash_table::{DynamicHashTable, NoisyTable, RequestKey, ServerId};
///
/// let mut table = HdHashTable::builder().dimension(4096).codebook_size(128).build()?;
/// for id in 0..16 {
///     table.join(ServerId::new(id))?;
/// }
/// let before = table.lookup(RequestKey::new(77))?;
/// // Ten bit errors in stored state: assignment is unaffected.
/// table.inject_bit_flips(10, 1);
/// assert_eq!(table.lookup(RequestKey::new(77))?, before);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct HdHashTable {
    config: HdConfig,
    codebook: Codebook,
    /// Stored server encodings — the noise surface.
    memory: AssociativeMemory<ServerId>,
    /// Clean membership with each server's codebook slot, in join order.
    members: Vec<(ServerId, usize)>,
}

impl HdHashTable {
    /// Starts a builder with the paper's default parameters.
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
        Self { config, codebook, memory, members: Vec::new() }
    }

    /// Creates a table with the default configuration (`d = 10_240`,
    /// `n = 512`; see [`HdConfig`]).
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(HdConfig::default())
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &HdConfig {
        &self.config
    }

    /// The codebook backing `Enc`.
    #[must_use]
    pub fn codebook(&self) -> &Codebook {
        &self.codebook
    }

    /// The codebook slot a server occupies, if joined.
    #[must_use]
    pub fn slot_of_server(&self, server: ServerId) -> Option<usize> {
        self.members.iter().find(|&&(s, _)| s == server).map(|&(_, slot)| slot)
    }

    /// The codebook slot a request encodes to.
    #[must_use]
    pub fn slot_of_request(&self, request: RequestKey) -> usize {
        self.codebook.slot_of(&request.to_bytes())
    }

    /// The pool's **membership signature**: the majority centroid of the
    /// clean member encodings, bundled on demand (`O(k · words · log k)`
    /// for `k` members).
    ///
    /// The signature is a pure function of the member *encoding
    /// multiset* — two tables that reached the same membership through
    /// any interleaving of joins and leaves read identical signatures,
    /// byte for byte (`crates/core/tests/churn_equivalence.rs`). It is a
    /// lossy summary of the routing geometry, not an identity for the
    /// membership: distinct servers whose hashes collide on one codebook
    /// slot contribute identical vectors, and the majority can absorb a
    /// small difference in members, so different memberships can read
    /// the same signature. Noise injection never perturbs it (it bundles
    /// clean codebook encodings).
    #[must_use]
    pub fn membership_signature(&self) -> Hypervector {
        let mut centroid = MembershipCentroid::new(self.config.dimension);
        for &(_, slot) in &self.members {
            centroid
                .add(self.codebook.hypervector(slot))
                .expect("codebook dimension matches centroid");
        }
        centroid.read()
    }

    /// The live member ids, **sorted** — the canonical set representation
    /// replica reconciliation exchanges and compares (join order, which
    /// [`DynamicHashTable::servers`] preserves, is replica-local and must
    /// not leak into cross-replica comparisons).
    #[must_use]
    pub fn member_ids(&self) -> Vec<ServerId> {
        let mut ids: Vec<ServerId> = self.members.iter().map(|&(s, _)| s).collect();
        ids.sort_unstable();
        ids
    }

    /// Drives this table's membership to exactly `target`: members absent
    /// from `target` leave, members present only in `target` join. The
    /// anti-entropy delta-application hook — each move is one ordinary
    /// join or leave, never a rebuild.
    ///
    /// Duplicate ids in `target` are ignored (a membership is a set).
    /// Returns `(joined, left)` move counts; `(0, 0)` means the table
    /// already matched.
    ///
    /// # Errors
    ///
    /// Returns the first failing move (only
    /// [`TableError::CapacityExhausted`] is reachable: the departures and
    /// arrivals are computed from live state, and departures run first to
    /// free slots). Moves already applied stay applied; re-running with
    /// the same target resumes where it failed.
    pub fn reconcile_members(&mut self, target: &[ServerId]) -> Result<(usize, usize), TableError> {
        let want: std::collections::BTreeSet<ServerId> = target.iter().copied().collect();
        let have: std::collections::BTreeSet<ServerId> =
            self.members.iter().map(|&(s, _)| s).collect();
        let mut left = 0;
        for &server in have.difference(&want) {
            self.leave(server)?;
            left += 1;
        }
        let mut joined = 0;
        for &server in want.difference(&have) {
            self.join(server)?;
            joined += 1;
        }
        Ok((joined, left))
    }

    /// Resolves a codebook slot (Eq. 2 for every request that encodes to
    /// it): the unit every lookup reduces to, since `Enc` factors through
    /// the slot. `lookup(k)` is `lookup_slot(slot_of_request(k))`, so an
    /// epoch's whole routing function is this method over `n` slots —
    /// which is what the serving layer's per-epoch route table caches.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::EmptyPool`] when no members are live.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not below the codebook size.
    pub fn lookup_slot(&self, slot: usize) -> Result<ServerId, TableError> {
        let probe = self.codebook.hypervector(slot);
        if self.memory.is_empty() {
            return Err(TableError::EmptyPool);
        }
        match self.config.flip_strategy {
            hdhash_hdc::basis::FlipStrategy::Partition => {
                // Quantized arg-max: distances are rounded to the grid
                // c = d/n on which all clean distances sit exactly, with a
                // deterministic, membership-order-independent tie-break on
                // the server identifier (so leave + rejoin is an exact
                // no-op). See the type-level docs for the robustness
                // guarantee. The scan runs on the associative memory's
                // contiguous-matrix engine with early abandonment.
                let c = self.config.quantum();
                self.memory
                    .nearest_quantized_by(probe, c, |server| server.get())
                    .ok_or(TableError::EmptyPool)
            }
            hdhash_hdc::basis::FlipStrategy::Independent { .. } => {
                // Raw Eq. 2 arg-max for the literal Algorithm 1 codebook.
                self.memory.nearest(probe).map(|m| m.key).ok_or(TableError::EmptyPool)
            }
        }
    }

    fn rebuild_memory(&mut self) {
        let mut memory =
            AssociativeMemory::new(self.config.dimension).with_strategy(self.config.search);
        for &(server, slot) in &self.members {
            memory
                .insert(server, self.codebook.hypervector(slot).clone())
                .expect("codebook dimension matches memory");
        }
        self.memory = memory;
    }
}

impl Default for HdHashTable {
    fn default() -> Self {
        Self::new()
    }
}

impl DynamicHashTable for HdHashTable {
    fn join(&mut self, server: ServerId) -> Result<(), TableError> {
        if self.members.iter().any(|&(s, _)| s == server) {
            return Err(TableError::ServerAlreadyPresent(server));
        }
        // The paper requires n > k: reject joins that would fill the circle.
        if self.members.len() + 1 >= self.codebook.len() {
            return Err(TableError::CapacityExhausted {
                servers: self.members.len(),
                capacity: self.codebook.len() - 1,
            });
        }
        let (slot, hv) = self.codebook.encode(&server.to_bytes());
        let hv = hv.clone();
        self.members.push((server, slot));
        self.memory.insert(server, hv).expect("codebook dimension matches memory");
        Ok(())
    }

    fn leave(&mut self, server: ServerId) -> Result<(), TableError> {
        let idx = self
            .members
            .iter()
            .position(|&(s, _)| s == server)
            .ok_or(TableError::ServerNotFound(server))?;
        self.members.remove(idx);
        self.memory.remove_where(|&s| s == server);
        Ok(())
    }

    fn lookup(&self, request: RequestKey) -> Result<ServerId, TableError> {
        self.lookup_slot(self.slot_of_request(request))
    }

    fn lookup_batch(&self, requests: &[RequestKey]) -> Vec<Result<ServerId, TableError>> {
        // The paper reduces its GPU's dispatch overhead by mapping requests
        // in batches of 256. On the CPU the decisive batching lever is that
        // `Enc` factors through the codebook slot: a batch of thousands of
        // requests touches at most `n` distinct slots (far fewer under
        // skewed traffic), so each distinct slot is resolved once against
        // the associative memory and the verdict is shared across the
        // batch. Slot resolutions use the memory engine's batched
        // contiguous-matrix scan.
        let slots: Vec<usize> =
            requests.iter().map(|r| self.codebook.slot_of(&r.to_bytes())).collect();
        let mut verdicts: std::collections::HashMap<usize, Result<ServerId, TableError>> =
            std::collections::HashMap::new();
        let mut distinct: Vec<usize> = Vec::new();
        for &slot in &slots {
            if let std::collections::hash_map::Entry::Vacant(e) = verdicts.entry(slot) {
                e.insert(Err(TableError::EmptyPool));
                distinct.push(slot);
            }
        }
        if !self.memory.is_empty() {
            let probes: Vec<&hdhash_hdc::Hypervector> =
                distinct.iter().map(|&s| self.codebook.hypervector(s)).collect();
            match self.config.flip_strategy {
                hdhash_hdc::basis::FlipStrategy::Partition => {
                    // Quantized arg-max over all distinct probes in one
                    // batched call (one thread scope per batch under the
                    // parallel strategy, not one per slot).
                    let c = self.config.quantum();
                    let keys = self
                        .memory
                        .nearest_quantized_batch_by(&probes, c, |server| server.get());
                    for (slot, key) in distinct.iter().zip(keys) {
                        verdicts.insert(*slot, key.ok_or(TableError::EmptyPool));
                    }
                }
                hdhash_hdc::basis::FlipStrategy::Independent { .. } => {
                    // Raw arg-max path: one early-abandon sweep per
                    // distinct probe.
                    for (slot, matched) in
                        distinct.iter().zip(self.memory.nearest_batch(&probes))
                    {
                        verdicts
                            .insert(*slot, matched.map(|m| m.key).ok_or(TableError::EmptyPool));
                    }
                }
            }
        }
        slots.into_iter().map(|slot| verdicts[&slot]).collect()
    }

    fn server_count(&self) -> usize {
        self.members.len()
    }

    fn servers(&self) -> Vec<ServerId> {
        self.members.iter().map(|&(s, _)| s).collect()
    }

    fn algorithm_name(&self) -> &'static str {
        "hd"
    }
}

impl NoisyTable for HdHashTable {
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

    fn small_table(servers: u64) -> HdHashTable {
        // d = 4096, n = 128: quantum c = 32, so assignments provably
        // tolerate up to 15 corrupted bits per stored hypervector.
        let mut t = HdHashTable::builder()
            .dimension(4096)
            .codebook_size(128)
            .seed(11)
            .build()
            .expect("valid config");
        for i in 0..servers {
            t.join(ServerId::new(i)).expect("fresh server");
        }
        t
    }

    fn keys(n: u64) -> Vec<RequestKey> {
        (0..n).map(RequestKey::new).collect()
    }

    #[test]
    fn lifecycle_and_errors() {
        let mut t = small_table(0);
        assert_eq!(t.lookup(RequestKey::new(0)), Err(TableError::EmptyPool));
        t.join(ServerId::new(9)).expect("fresh");
        assert_eq!(
            t.join(ServerId::new(9)),
            Err(TableError::ServerAlreadyPresent(ServerId::new(9)))
        );
        assert_eq!(t.lookup(RequestKey::new(0)).expect("non-empty"), ServerId::new(9));
        t.leave(ServerId::new(9)).expect("present");
        assert_eq!(t.leave(ServerId::new(9)), Err(TableError::ServerNotFound(ServerId::new(9))));
    }

    #[test]
    fn lookup_routes_to_nearest_circle_node() {
        // The geometric contract: the winning server is one whose codebook
        // slot minimizes circular distance to the request's slot.
        let t = small_table(24);
        for k in 0..500u64 {
            let request = RequestKey::new(k);
            let winner = t.lookup(request).expect("non-empty");
            let r_slot = t.slot_of_request(request);
            let w_slot = t.slot_of_server(winner).expect("winner joined");
            let w_dist = t.codebook().circular_distance(r_slot, w_slot);
            let min_dist = t
                .servers()
                .into_iter()
                .map(|s| {
                    t.codebook()
                        .circular_distance(r_slot, t.slot_of_server(s).expect("joined"))
                })
                .min()
                .expect("non-empty");
            assert_eq!(w_dist, min_dist, "request {k} routed past a nearer server");
        }
    }

    #[test]
    fn headline_robustness_no_mismatch_under_bit_errors() {
        // The paper's central claim (Fig. 5): bit errors leave HD hashing
        // unaffected. Exercise well past the paper's 10-flip range.
        let mut t = small_table(64);
        let reference = Assignment::capture(&t, keys(2000)).expect("non-empty");
        for flips in [1usize, 5, 10, 50, 100] {
            t.inject_bit_flips(flips, flips as u64 + 1000);
            let noisy = Assignment::capture(&t, keys(2000)).expect("non-empty");
            assert_eq!(
                remap_fraction(&reference, &noisy),
                0.0,
                "HD mismatched under {flips} accumulated flips"
            );
        }
        t.clear_noise();
        let restored = Assignment::capture(&t, keys(2000)).expect("non-empty");
        assert_eq!(remap_fraction(&reference, &restored), 0.0);
    }

    #[test]
    fn burst_robustness() {
        let mut t = small_table(64);
        let reference = Assignment::capture(&t, keys(1000)).expect("non-empty");
        for seed in 0..4u64 {
            t.inject_burst(10, seed);
        }
        let noisy = Assignment::capture(&t, keys(1000)).expect("non-empty");
        assert_eq!(remap_fraction(&reference, &noisy), 0.0, "10-bit MCUs must not mismatch");
    }

    #[test]
    fn minimal_disruption_on_join() {
        let mut t = small_table(32);
        let before = Assignment::capture(&t, keys(4000)).expect("non-empty");
        t.join(ServerId::new(555)).expect("fresh");
        let after = Assignment::capture(&t, keys(4000)).expect("non-empty");
        for (r, s_before) in before.iter() {
            let s_after = after.server_of(r).expect("captured");
            assert!(
                s_after == s_before || s_after == ServerId::new(555),
                "{r} moved between elder servers"
            );
        }
        assert!(remap_fraction(&before, &after) < 0.2);
    }

    #[test]
    fn minimal_disruption_on_leave() {
        let mut t = small_table(32);
        let before = Assignment::capture(&t, keys(4000)).expect("non-empty");
        let victim = ServerId::new(5);
        t.leave(victim).expect("present");
        let after = Assignment::capture(&t, keys(4000)).expect("non-empty");
        for (r, s_before) in before.iter() {
            if s_before != victim {
                assert_eq!(after.server_of(r), Some(s_before), "{r} moved without cause");
            }
        }
    }

    #[test]
    fn distribution_roughly_uniform() {
        let t = small_table(16);
        let loads = Assignment::capture(&t, keys(16_000)).expect("non-empty").load_by_server();
        // Load shares follow arc lengths between occupied slots — not
        // perfectly even, but every server must get meaningful traffic.
        assert_eq!(loads.values().sum::<usize>(), 16_000);
        assert!(loads.len() >= 14, "most servers should win some requests");
    }

    #[test]
    fn capacity_is_enforced() {
        let mut t = HdHashTable::builder()
            .dimension(64)
            .codebook_size(4)
            .build()
            .expect("valid config");
        t.join(ServerId::new(0)).expect("fresh");
        t.join(ServerId::new(1)).expect("fresh");
        t.join(ServerId::new(2)).expect("fresh");
        assert_eq!(
            t.join(ServerId::new(3)),
            Err(TableError::CapacityExhausted { servers: 3, capacity: 3 })
        );
    }

    #[test]
    fn deterministic_across_instances() {
        let a = small_table(20);
        let b = small_table(20);
        for k in 0..300u64 {
            assert_eq!(
                a.lookup(RequestKey::new(k)).expect("non-empty"),
                b.lookup(RequestKey::new(k)).expect("non-empty")
            );
        }
    }

    #[test]
    fn lookup_batch_matches_individual_lookups() {
        let t = small_table(24);
        let requests = keys(2000);
        let batched = t.lookup_batch(&requests);
        assert_eq!(batched.len(), requests.len());
        for (&r, batch_result) in requests.iter().zip(&batched) {
            assert_eq!(*batch_result, t.lookup(r), "request {r} diverged in batch");
        }
        // Empty pool: every slot fails identically.
        let empty = small_table(0);
        for result in empty.lookup_batch(&keys(10)) {
            assert_eq!(result, Err(TableError::EmptyPool));
        }
        // The parallel strategy batches through one thread scope and must
        // agree with the serial table exactly.
        let mut parallel = HdHashTable::builder()
            .dimension(4096)
            .codebook_size(128)
            .seed(11)
            .search(hdhash_hdc::SearchStrategy::Parallel { threads: 4 })
            .build()
            .expect("valid config");
        for i in 0..24 {
            parallel.join(ServerId::new(i)).expect("fresh server");
        }
        assert_eq!(parallel.lookup_batch(&requests), batched);
    }

    #[test]
    fn lookup_batch_matches_for_literal_codebook() {
        // The Independent strategy takes the multi-probe engine path.
        let mut t = HdHashTable::builder()
            .dimension(4096)
            .codebook_size(128)
            .seed(13)
            .flip_strategy(hdhash_hdc::basis::FlipStrategy::Independent {
                flips_per_step: 32,
            })
            .build()
            .expect("valid config");
        for i in 0..24 {
            t.join(ServerId::new(i)).expect("fresh server");
        }
        let requests = keys(600);
        for (&r, batch_result) in requests.iter().zip(t.lookup_batch(&requests)) {
            assert_eq!(batch_result, t.lookup(r));
        }
    }

    #[test]
    fn lookup_slot_is_lookup_through_the_slot() {
        let literal = hdhash_hdc::basis::FlipStrategy::Independent { flips_per_step: 32 };
        for strategy in [hdhash_hdc::basis::FlipStrategy::Partition, literal] {
            let mut t = HdHashTable::builder()
                .dimension(4096)
                .codebook_size(128)
                .seed(17)
                .flip_strategy(strategy)
                .build()
                .expect("valid config");
            assert_eq!(t.lookup_slot(0), Err(TableError::EmptyPool), "{strategy:?}");
            for i in 0..24 {
                t.join(ServerId::new(i)).expect("fresh server");
            }
            for r in keys(1000) {
                assert_eq!(t.lookup_slot(t.slot_of_request(r)), t.lookup(r), "{strategy:?} {r}");
            }
        }
    }

    #[test]
    fn parallel_search_matches_serial() {
        let serial = small_table(48);
        let mut parallel = HdHashTable::builder()
            .dimension(4096)
            .codebook_size(128)
            .seed(11)
            .search(hdhash_hdc::SearchStrategy::Parallel { threads: 4 })
            .build()
            .expect("valid config");
        for i in 0..48 {
            parallel.join(ServerId::new(i)).expect("fresh");
        }
        for k in 0..500u64 {
            assert_eq!(
                serial.lookup(RequestKey::new(k)).expect("non-empty"),
                parallel.lookup(RequestKey::new(k)).expect("non-empty")
            );
        }
    }

    #[test]
    fn collision_tie_breaks_to_first_joiner() {
        // Force a collision with a tiny codebook.
        let mut t = HdHashTable::builder()
            .dimension(64)
            .codebook_size(2)
            .build()
            .expect("valid config");
        t.join(ServerId::new(0)).expect("fresh");
        // Any further join would fill the circle (n must stay > k), so the
        // collision scenario is exercised through capacity here.
        assert!(t.join(ServerId::new(1)).is_err());
        assert_eq!(t.server_count(), 1);
    }

    #[test]
    fn clone_is_an_independent_snapshot() {
        // The serving layer applies each change to a clone of the
        // published table: clone and original must answer identically at
        // the moment of the clone, and each must stay frozen while the
        // other churns.
        let mut t = small_table(16);
        let snapshot = t.clone();
        let frozen: Vec<ServerId> =
            keys(200).iter().map(|&k| snapshot.lookup(k).expect("non-empty")).collect();
        t.join(ServerId::new(900)).expect("fresh");
        t.leave(ServerId::new(3)).expect("present");
        t.inject_bit_flips(50, 77);
        assert_eq!(snapshot.server_count(), 16);
        assert_eq!(t.server_count(), 16);
        for (&k, &want) in keys(200).iter().zip(&frozen) {
            assert_eq!(snapshot.lookup(k).expect("non-empty"), want);
        }
        assert_eq!(
            snapshot.membership_signature(),
            small_table(16).membership_signature(),
            "snapshot signature must match an identically built table"
        );
    }

    #[test]
    fn member_ids_are_sorted_and_join_order_free() {
        let mut a = small_table(0);
        let mut b = small_table(0);
        for id in [5u64, 1, 9, 3] {
            a.join(ServerId::new(id)).expect("fresh");
        }
        for id in [3u64, 9, 1, 5] {
            b.join(ServerId::new(id)).expect("fresh");
        }
        let want: Vec<ServerId> = [1u64, 3, 5, 9].into_iter().map(ServerId::new).collect();
        assert_eq!(a.member_ids(), want);
        assert_eq!(a.member_ids(), b.member_ids());
        assert_eq!(a.membership_signature(), b.membership_signature());
    }

    #[test]
    fn reconcile_members_converges_to_target() {
        let mut t = small_table(6); // members 0..6
        let target: Vec<ServerId> =
            [2u64, 4, 5, 40, 41].into_iter().map(ServerId::new).collect();
        let (joined, left) = t.reconcile_members(&target).expect("capacity fits");
        assert_eq!((joined, left), (2, 3)); // +{40,41}, -{0,1,3}
        assert_eq!(t.member_ids(), target);
        // Fixed point: reconciling again moves nothing and burns nothing.
        let sig = t.membership_signature();
        assert_eq!(t.reconcile_members(&target).expect("no-op"), (0, 0));
        assert_eq!(t.membership_signature(), sig);
        // The reconciled table is byte-identical to one built directly.
        let mut direct = small_table(0);
        for &s in &target {
            direct.join(s).expect("fresh");
        }
        assert_eq!(t.membership_signature(), direct.membership_signature());
        for k in 0..200u64 {
            assert_eq!(t.lookup(RequestKey::new(k)), direct.lookup(RequestKey::new(k)));
        }
    }

    #[test]
    fn reconcile_members_ignores_duplicate_targets() {
        let mut t = small_table(2);
        let target: Vec<ServerId> =
            [7u64, 7, 0].into_iter().map(ServerId::new).collect();
        assert_eq!(t.reconcile_members(&target).expect("fits"), (1, 1));
        assert_eq!(t.member_ids(), vec![ServerId::new(0), ServerId::new(7)]);
    }

    #[test]
    fn noise_surface_scales_with_membership() {
        let t = small_table(8);
        assert_eq!(t.noise_surface_bits(), 8 * 4096);
        assert_eq!(t.algorithm_name(), "hd");
        assert_eq!(t.config().codebook_size(), 128);
        assert_eq!(t.config().quantum(), 32);
    }
}
