//! The consistent hashing table over a treap-backed ring.

use hdhash_hashfn::{SplitMix64, XxHash64};
use hdhash_table::{DynamicHashTable, NoisyTable, RequestKey, ServerId, TableError};

use crate::treap::Treap;

/// Consistent hashing on the `u64` circle with `O(log n)` lookups.
///
/// Servers are hashed to points on the circle (the fixed-point analogue of
/// the paper's unit interval `[0, 1]`); a request is assigned to the first
/// server position that succeeds its own hash clockwise. The ring is
/// stored as a balanced search tree ([`Treap`]) — the classical `std::map`
/// style implementation behind the paper's `O(log n)` lookup bound.
///
/// ## Virtual nodes
///
/// With `vnodes > 1`, each server owns several ring positions (derived by
/// re-hashing `(server, replica)`), which tightens the load distribution
/// at the cost of a larger ring. The paper's setup corresponds to one node
/// per server (the default); study 3 of the `ablation` bin explores the
/// trade-off.
///
/// ## Noise model
///
/// The vulnerable state surface is the search structure itself: per ring
/// node, the stored 64-bit position and the two 32-bit child links. A
/// corrupted *position* relocates one virtual node (local damage, like
/// rendezvous hashing); a corrupted *child link* detaches or misroutes an
/// entire subtree, so a single bit error can move ~`2·ln n / n` of all
/// requests. This pointer amplification is why consistent hashing degrades
/// far faster than rendezvous hashing in the paper's Figure 5.
///
/// # Examples
///
/// ```
/// use hdhash_ring::ConsistentTable;
/// use hdhash_table::{DynamicHashTable, RequestKey, ServerId};
///
/// let mut ring = ConsistentTable::new();
/// for id in 0..4 {
///     ring.join(ServerId::new(id))?;
/// }
/// let owner = ring.lookup(RequestKey::new(123))?;
/// assert!(ring.contains(owner));
/// # Ok::<(), hdhash_table::TableError>(())
/// ```
pub struct ConsistentTable {
    hasher: XxHash64,
    vnodes: usize,
    /// Clean membership in join order.
    members: Vec<ServerId>,
    /// The stored ring: a treap over `(position, server)`; its node bits
    /// are what noise corrupts.
    ring: Treap,
}

impl ConsistentTable {
    /// Creates an empty ring hashed with XXH64 and a single node per
    /// server, matching the paper's setup.
    #[must_use]
    pub fn new() -> Self {
        Self { hasher: XxHash64::with_seed(0), vnodes: 1, members: Vec::new(), ring: Treap::new() }
    }

    /// Creates an empty ring with `vnodes` virtual nodes per server.
    ///
    /// # Panics
    ///
    /// Panics if `vnodes == 0`.
    #[must_use]
    pub fn with_vnodes(vnodes: usize) -> Self {
        assert!(vnodes > 0, "at least one virtual node per server is required");
        let mut t = Self::new();
        t.vnodes = vnodes;
        t
    }

    /// Number of virtual nodes per server.
    #[must_use]
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// The ring position of a request's hash.
    fn request_point(&self, request: RequestKey) -> u64 {
        self.hasher.hash_bytes(&request.to_bytes())
    }

    /// The ring positions of a server's virtual nodes.
    fn server_points(&self, server: ServerId) -> Vec<u64> {
        (0..self.vnodes)
            .map(|replica| {
                let mut buf = [0u8; 16];
                buf[..8].copy_from_slice(&server.to_bytes());
                buf[8..].copy_from_slice(&(replica as u64).to_le_bytes());
                self.hasher.hash_bytes(&buf)
            })
            .collect()
    }

    /// All clean `(position, server)` points, sorted (test/ablation aid).
    #[must_use]
    pub fn clean_points(&self) -> Vec<(u64, ServerId)> {
        let mut points: Vec<(u64, ServerId)> = self
            .members
            .iter()
            .flat_map(|&s| self.server_points(s).into_iter().map(move |p| (p, s)))
            .collect();
        points.sort_unstable_by_key(|&(p, s)| (p, s.get()));
        points
    }

    fn rebuild(&mut self) {
        let mut ring = Treap::new();
        for &server in &self.members {
            for p in self.server_points(server) {
                ring.insert(p, server);
            }
        }
        self.ring = ring;
    }
}

impl Default for ConsistentTable {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for ConsistentTable {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ConsistentTable")
            .field("servers", &self.members.len())
            .field("vnodes", &self.vnodes)
            .field("ring_points", &self.ring.len())
            .finish()
    }
}

impl DynamicHashTable for ConsistentTable {
    fn join(&mut self, server: ServerId) -> Result<(), TableError> {
        if self.members.contains(&server) {
            return Err(TableError::ServerAlreadyPresent(server));
        }
        self.members.push(server);
        // The treap is history independent, so incremental inserts yield
        // exactly the rebuild's tree.
        for p in self.server_points(server) {
            self.ring.insert(p, server);
        }
        Ok(())
    }

    fn leave(&mut self, server: ServerId) -> Result<(), TableError> {
        let idx = self
            .members
            .iter()
            .position(|&s| s == server)
            .ok_or(TableError::ServerNotFound(server))?;
        self.members.remove(idx);
        self.rebuild();
        Ok(())
    }

    fn lookup(&self, request: RequestKey) -> Result<ServerId, TableError> {
        self.ring.successor(self.request_point(request)).ok_or(TableError::EmptyPool)
    }

    fn server_count(&self) -> usize {
        self.members.len()
    }

    fn servers(&self) -> Vec<ServerId> {
        self.members.clone()
    }

    fn algorithm_name(&self) -> &'static str {
        "consistent"
    }
}

impl NoisyTable for ConsistentTable {
    fn inject_bit_flips(&mut self, count: usize, seed: u64) -> usize {
        if self.ring.is_empty() {
            return 0;
        }
        let mut rng = SplitMix64::new(seed);
        let surface = self.ring.surface_bits() as u64;
        for _ in 0..count {
            self.ring.flip_surface_bit(rng.next_below(surface) as usize);
        }
        count
    }

    fn inject_burst(&mut self, length: usize, seed: u64) -> usize {
        if self.ring.is_empty() || length == 0 {
            return 0;
        }
        let mut rng = SplitMix64::new(seed);
        let surface = self.ring.surface_bits();
        let start = rng.next_below(surface as u64) as usize;
        let end = (start + length).min(surface);
        for bit in start..end {
            self.ring.flip_surface_bit(bit);
        }
        end - start
    }

    fn clear_noise(&mut self) {
        self.rebuild();
    }

    fn noise_surface_bits(&self) -> usize {
        self.ring.surface_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdhash_table::{remap_fraction, Assignment};

    fn filled(n: u64) -> ConsistentTable {
        let mut t = ConsistentTable::new();
        for i in 0..n {
            t.join(ServerId::new(i)).expect("fresh server");
        }
        t
    }

    fn keys(n: u64) -> Vec<RequestKey> {
        (0..n).map(RequestKey::new).collect()
    }

    #[test]
    fn lifecycle_and_errors() {
        let mut t = ConsistentTable::new();
        assert_eq!(t.lookup(RequestKey::new(0)), Err(TableError::EmptyPool));
        t.join(ServerId::new(1)).expect("fresh");
        assert_eq!(
            t.join(ServerId::new(1)),
            Err(TableError::ServerAlreadyPresent(ServerId::new(1)))
        );
        assert_eq!(t.lookup(RequestKey::new(0)).expect("non-empty"), ServerId::new(1));
        t.leave(ServerId::new(1)).expect("present");
        assert_eq!(t.leave(ServerId::new(1)), Err(TableError::ServerNotFound(ServerId::new(1))));
    }

    #[test]
    fn single_server_owns_everything() {
        let t = filled(1);
        for k in 0..200u64 {
            assert_eq!(t.lookup(RequestKey::new(k)).expect("non-empty"), ServerId::new(0));
        }
    }

    #[test]
    fn lookup_matches_linear_scan_reference() {
        // The treap successor must agree with the definitional "smallest
        // position >= point, else wrap to global minimum" scan.
        let t = filled(32);
        let points = t.clean_points();
        for k in 0..2000u64 {
            let point = t.request_point(RequestKey::new(k));
            let reference = points
                .iter()
                .find(|&&(p, _)| p >= point)
                .or_else(|| points.first())
                .map(|&(_, s)| s)
                .expect("non-empty");
            assert_eq!(t.lookup(RequestKey::new(k)).expect("non-empty"), reference);
        }
    }

    #[test]
    fn minimal_disruption_on_leave() {
        // Only keys owned by the departing server may move.
        let mut t = filled(64);
        let before = Assignment::capture(&t, keys(5000)).expect("non-empty");
        let victim = ServerId::new(13);
        t.leave(victim).expect("present");
        let after = Assignment::capture(&t, keys(5000)).expect("non-empty");
        for (r, s_before) in before.iter() {
            if s_before != victim {
                assert_eq!(after.server_of(r), Some(s_before), "{r} moved without cause");
            }
        }
    }

    #[test]
    fn minimal_disruption_on_join() {
        // Keys either stay or move to the newcomer — never between elders.
        let mut t = filled(64);
        let before = Assignment::capture(&t, keys(5000)).expect("non-empty");
        let newcomer = ServerId::new(999);
        t.join(newcomer).expect("fresh");
        let after = Assignment::capture(&t, keys(5000)).expect("non-empty");
        for (r, s_before) in before.iter() {
            let s_after = after.server_of(r).expect("captured");
            assert!(
                s_after == s_before || s_after == newcomer,
                "{r} moved {s_before} -> {s_after}, not to newcomer"
            );
        }
        // And the expected moved fraction is ~1/(n+1).
        let moved = remap_fraction(&before, &after);
        assert!(moved < 0.10, "join moved too much: {moved}");
    }

    #[test]
    fn vnodes_tighten_distribution() {
        let spread = |t: &ConsistentTable| {
            let loads = Assignment::capture(t, keys(20_000))
                .expect("non-empty")
                .load_by_server();
            let max = *loads.values().max().expect("non-empty") as f64;
            let min = *loads.values().min().unwrap_or(&0) as f64;
            max / min.max(1.0)
        };
        let mut plain = ConsistentTable::new();
        let mut virt = ConsistentTable::with_vnodes(64);
        for i in 0..16 {
            plain.join(ServerId::new(i)).expect("fresh");
            virt.join(ServerId::new(i)).expect("fresh");
        }
        assert_eq!(virt.vnodes(), 64);
        assert!(spread(&virt) < spread(&plain), "virtual nodes should even the load");
    }

    #[test]
    #[should_panic(expected = "at least one virtual node")]
    fn zero_vnodes_panics() {
        let _ = ConsistentTable::with_vnodes(0);
    }

    #[test]
    fn noise_corrupts_and_clear_restores() {
        let mut t = filled(128);
        let reference = Assignment::capture(&t, keys(3000)).expect("non-empty");
        t.inject_bit_flips(10, 99);
        let noisy = Assignment::capture(&t, keys(3000)).expect("non-empty");
        // The paper's central negative result for consistent hashing: bit
        // errors in the ring cause mismatches.
        assert!(remap_fraction(&reference, &noisy) > 0.0, "flips must corrupt something");
        t.clear_noise();
        let restored = Assignment::capture(&t, keys(3000)).expect("non-empty");
        assert_eq!(remap_fraction(&reference, &restored), 0.0);
    }

    #[test]
    fn noise_damage_exceeds_rendezvous_scale() {
        // Pointer amplification: averaged over seeds, 10 bit errors should
        // move clearly more than the ~2·flips/n arc damage a positional
        // model would predict (the paper's Figure 5 gap).
        let t = filled(512);
        let reference = Assignment::capture(&t, keys(4000)).expect("non-empty");
        let mut total = 0.0;
        let seeds = 10;
        for seed in 0..seeds {
            let mut noisy_table = filled(512);
            noisy_table.inject_bit_flips(10, seed);
            let noisy = Assignment::capture(&noisy_table, keys(4000)).expect("non-empty");
            total += remap_fraction(&reference, &noisy);
        }
        let mean = total / seeds as f64;
        let positional_scale = 2.0 * 10.0 / 512.0;
        assert!(
            mean > positional_scale,
            "expected pointer amplification: mean {mean} vs positional {positional_scale}"
        );
    }

    #[test]
    fn noise_surface_accounting() {
        let t = filled(8);
        assert_eq!(t.noise_surface_bits(), 8 * crate::treap::NODE_SURFACE_BITS);
        let mut empty = ConsistentTable::new();
        assert_eq!(empty.inject_bit_flips(4, 0), 0);
        assert_eq!(empty.inject_burst(4, 0), 0);
        let mut t = filled(2);
        assert_eq!(t.inject_burst(0, 0), 0);
        assert!(t.inject_burst(10, 3) <= 10);
    }

    #[test]
    fn incremental_join_equals_rebuild() {
        let mut incremental = ConsistentTable::new();
        for i in 0..40 {
            incremental.join(ServerId::new(i * 7 + 1)).expect("fresh");
        }
        let mut rebuilt = ConsistentTable::new();
        rebuilt.members = incremental.members.clone();
        rebuilt.rebuild();
        assert_eq!(
            incremental.ring.entries_in_order(),
            rebuilt.ring.entries_in_order()
        );
        for k in 0..1000u64 {
            assert_eq!(
                incremental.lookup(RequestKey::new(k)).expect("non-empty"),
                rebuilt.lookup(RequestKey::new(k)).expect("non-empty")
            );
        }
    }

    #[test]
    fn debug_output() {
        let t = filled(3);
        let s = format!("{t:?}");
        assert!(s.contains("servers: 3") && s.contains("vnodes: 1"));
    }
}
