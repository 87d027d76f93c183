//! HD hashing with bounded loads (the paper's reference \[13\] transferred
//! to hyperspace).
//!
//! Plain HD hashing, like the classic ring, can overload a server whose
//! circle neighbourhood happens to be sparse. Mirrokni, Thorup &
//! Zadimoghaddam's bounded-loads refinement of consistent hashing
//! ("Consistent Hashing with Bounded Loads", SODA 2018) caps every server
//! at `⌈(1 + ε) · average⌉` items, sending an item past full servers along
//! the ring. This module transfers the idea to HD hashing: a request walks
//! the *similarity ranking* of Eq. 2 — most similar server first — past
//! full servers until one has spare capacity.
//! Because the ranking is computed from the same quantized hypervector
//! distances as the plain table, the robustness guarantee carries over:
//! sub-quantum corruption cannot reorder the ranking, so placements are
//! bit-stable under the paper's entire noise sweep.
//!
//! Like the ring version, this is a *stateful* assignment structure
//! (an overflowed item must keep resolving where it was parked), so it
//! exposes `assign`/`release` rather than the read-only lookup trait.

use std::collections::HashMap;

use hdhash_table::{RequestKey, ServerId, TableError};

use crate::config::HdConfig;
use crate::table::HdHashTable;
use hdhash_table::DynamicHashTable;

/// An HD hash table assigning stateful items under a load cap of
/// `⌈(1 + epsilon) · items / servers⌉` per server.
///
/// # Examples
///
/// ```
/// use hdhash_core::BoundedHdTable;
/// use hdhash_table::{RequestKey, ServerId};
///
/// let mut table = BoundedHdTable::new(0.25);
/// for id in 0..4 {
///     table.join(ServerId::new(id))?;
/// }
/// for k in 0..100 {
///     table.assign(RequestKey::new(k))?;
/// }
/// // No server exceeds the cap ⌈1.25 · 100 / 4⌉ = 32.
/// assert!(table.loads().values().all(|&l| l <= 32));
/// # Ok::<(), hdhash_table::TableError>(())
/// ```
#[derive(Debug)]
pub struct BoundedHdTable {
    inner: HdHashTable,
    epsilon: f64,
    placements: HashMap<RequestKey, ServerId>,
    loads: HashMap<ServerId, usize>,
}

impl BoundedHdTable {
    /// Creates an empty table with load slack `epsilon` and the default
    /// HD configuration.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not finite and positive.
    #[must_use]
    pub fn new(epsilon: f64) -> Self {
        Self::with_config(HdConfig::default(), epsilon)
    }

    /// Creates an empty table from a validated HD configuration.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not finite and positive.
    #[must_use]
    pub fn with_config(config: HdConfig, epsilon: f64) -> Self {
        assert!(epsilon.is_finite() && epsilon > 0.0, "epsilon must be positive");
        Self {
            inner: HdHashTable::with_config(config),
            epsilon,
            placements: HashMap::new(),
            loads: HashMap::new(),
        }
    }

    /// The load slack `ε`.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Current per-server item counts.
    #[must_use]
    pub fn loads(&self) -> &HashMap<ServerId, usize> {
        &self.loads
    }

    /// Items currently placed.
    #[must_use]
    pub fn item_count(&self) -> usize {
        self.placements.len()
    }

    /// Live servers.
    #[must_use]
    pub fn server_count(&self) -> usize {
        self.inner.server_count()
    }

    /// The cap that would apply if one more item were assigned now.
    #[must_use]
    pub fn capacity_per_server(&self) -> usize {
        let servers = self.inner.server_count().max(1);
        let average = (self.placements.len() + 1) as f64 / servers as f64;
        ((1.0 + self.epsilon) * average).ceil() as usize
    }

    /// Adds a server.
    ///
    /// # Errors
    ///
    /// Propagates [`TableError::ServerAlreadyPresent`] and
    /// [`TableError::CapacityExhausted`] from the HD table.
    pub fn join(&mut self, server: ServerId) -> Result<(), TableError> {
        self.inner.join(server)?;
        self.loads.entry(server).or_insert(0);
        Ok(())
    }

    /// Removes a server; its items are re-assigned under the cap.
    ///
    /// # Errors
    ///
    /// Propagates [`TableError::ServerNotFound`].
    pub fn leave(&mut self, server: ServerId) -> Result<(), TableError> {
        self.inner.leave(server)?;
        self.loads.remove(&server);
        let orphans: Vec<RequestKey> = self
            .placements
            .iter()
            .filter(|&(_, &s)| s == server)
            .map(|(&r, _)| r)
            .collect();
        for r in &orphans {
            self.placements.remove(r);
        }
        for r in orphans {
            // Pool may be empty now; drop the item in that case.
            let _ = self.assign(r);
        }
        Ok(())
    }

    /// Places an item: the most similar server with spare capacity, per
    /// the quantized ranking of Eq. 2. Re-assigning a placed item returns
    /// its existing placement.
    ///
    /// # Errors
    ///
    /// [`TableError::EmptyPool`] if no servers are live.
    pub fn assign(&mut self, request: RequestKey) -> Result<ServerId, TableError> {
        if let Some(&placed) = self.placements.get(&request) {
            return Ok(placed);
        }
        let cap = self.capacity_per_server();
        let ranking = self.ranking(request)?;
        // Every ranking position is checked; with cap ≥ ⌈(items+1)/servers⌉
        // at least one server must have room.
        let server = ranking
            .into_iter()
            .find(|s| self.loads.get(s).copied().unwrap_or(0) < cap)
            .expect("cap exceeds the average load, so some server has room");
        self.placements.insert(request, server);
        *self.loads.entry(server).or_insert(0) += 1;
        Ok(server)
    }

    /// Removes an item; returns where it was placed, if it was.
    ///
    /// Like the ring variant, releases do not rebalance: a server's load
    /// may exceed the *instantaneous* cap after the pool of items shrinks,
    /// but never the cap that was in force when its items were placed.
    pub fn release(&mut self, request: RequestKey) -> Option<ServerId> {
        let server = self.placements.remove(&request)?;
        if let Some(load) = self.loads.get_mut(&server) {
            *load = load.saturating_sub(1);
        }
        Some(server)
    }

    /// Where an item is currently placed.
    #[must_use]
    pub fn placement_of(&self, request: RequestKey) -> Option<ServerId> {
        self.placements.get(&request).copied()
    }

    /// All live servers ordered by the quantized similarity ranking for
    /// `request` (Eq. 2's arg-max, extended to a full ordering).
    ///
    /// # Errors
    ///
    /// [`TableError::EmptyPool`] if no servers are live.
    pub fn ranking(&self, request: RequestKey) -> Result<Vec<ServerId>, TableError> {
        let servers = self.inner.servers();
        if servers.is_empty() {
            return Err(TableError::EmptyPool);
        }
        let r_slot = self.inner.slot_of_request(request);
        let mut ranked: Vec<(usize, ServerId)> = servers
            .into_iter()
            .map(|s| {
                let s_slot = self.inner.slot_of_server(s).expect("listed server is joined");
                // With the partitioned codebook the quantized hypervector
                // distance is exactly `quantum · circular_distance`, so
                // ordering by slot distance is ordering by Eq. 2 — no
                // hypervector scan needed for the full ranking.
                (self.inner.codebook().circular_distance(r_slot, s_slot), s)
            })
            .collect();
        ranked.sort_by_key(|&(d, s)| (d, s.get()));
        Ok(ranked.into_iter().map(|(_, s)| s).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(servers: u64, epsilon: f64) -> BoundedHdTable {
        let config = HdConfig::builder()
            .dimension(4096)
            .codebook_size(256)
            .seed(61)
            .build_config()
            .expect("valid config");
        let mut t = BoundedHdTable::with_config(config, epsilon);
        for id in 0..servers {
            t.join(ServerId::new(id)).expect("fresh server");
        }
        t
    }

    #[test]
    fn cap_is_never_exceeded() {
        let mut t = table(8, 0.25);
        for k in 0..800u64 {
            t.assign(RequestKey::new(k)).expect("non-empty pool");
        }
        let cap = (1.25f64 * 800.0 / 8.0).ceil() as usize + 1;
        assert!(
            t.loads().values().all(|&l| l <= cap),
            "cap {cap} exceeded: {:?}",
            t.loads()
        );
        assert_eq!(t.item_count(), 800);
        assert_eq!(t.loads().values().sum::<usize>(), 800);
    }

    #[test]
    fn tighter_epsilon_flattens_loads() {
        let spread = |epsilon: f64| {
            let mut t = table(8, epsilon);
            for k in 0..2000u64 {
                t.assign(RequestKey::new(k)).expect("non-empty pool");
            }
            let max = *t.loads().values().max().expect("servers joined");
            let min = *t.loads().values().min().expect("servers joined");
            max - min
        };
        assert!(spread(0.01) <= spread(10.0), "tight caps must flatten the distribution");
        // Near-zero slack bounds the spread by the cap's growth during the
        // arrival sequence: max ≤ ⌈1.01·250⌉ = 253, min ≥ 2000 − 7·253.
        assert!(spread(0.01) <= 24, "spread {}", spread(0.01));
    }

    #[test]
    fn assignment_is_sticky() {
        let mut t = table(4, 0.5);
        let first = t.assign(RequestKey::new(7)).expect("non-empty pool");
        for k in 0..200u64 {
            t.assign(RequestKey::new(1000 + k)).expect("non-empty pool");
        }
        assert_eq!(t.assign(RequestKey::new(7)).expect("non-empty pool"), first);
        assert_eq!(t.placement_of(RequestKey::new(7)), Some(first));
    }

    #[test]
    fn release_frees_capacity() {
        let mut t = table(2, 0.5);
        let placed = t.assign(RequestKey::new(1)).expect("non-empty pool");
        assert_eq!(t.release(RequestKey::new(1)), Some(placed));
        assert_eq!(t.release(RequestKey::new(1)), None);
        assert_eq!(t.item_count(), 0);
        assert_eq!(t.loads()[&placed], 0);
    }

    #[test]
    fn leave_reassigns_orphans_under_cap() {
        let mut t = table(6, 0.25);
        for k in 0..600u64 {
            t.assign(RequestKey::new(k)).expect("non-empty pool");
        }
        let victim = ServerId::new(2);
        let moved_items: Vec<RequestKey> = (0..600u64)
            .map(RequestKey::new)
            .filter(|&r| t.placement_of(r) == Some(victim))
            .collect();
        t.leave(victim).expect("present");
        assert_eq!(t.item_count(), 600, "orphans must be re-placed");
        let cap = (1.25f64 * 600.0 / 5.0).ceil() as usize + 1;
        assert!(t.loads().values().all(|&l| l <= cap));
        // Non-orphaned items did not move.
        for k in 0..600u64 {
            let r = RequestKey::new(k);
            if !moved_items.contains(&r) {
                assert_ne!(t.placement_of(r), Some(victim));
            }
        }
    }

    #[test]
    fn empty_pool_errors() {
        let mut t = BoundedHdTable::new(0.5);
        assert_eq!(t.assign(RequestKey::new(1)), Err(TableError::EmptyPool));
        assert_eq!(t.ranking(RequestKey::new(1)), Err(TableError::EmptyPool));
    }

    #[test]
    fn ranking_starts_at_the_plain_tables_winner() {
        // Without load pressure the bounded table's first choice is the
        // plain HD table's arg-max.
        let t = table(16, 5.0);
        let mut plain = HdHashTable::with_config(
            HdConfig::builder()
                .dimension(4096)
                .codebook_size(256)
                .seed(61)
                .build_config()
                .expect("valid config"),
        );
        for id in 0..16 {
            plain.join(ServerId::new(id)).expect("fresh server");
        }
        for k in 0..300u64 {
            let r = RequestKey::new(k);
            assert_eq!(
                t.ranking(r).expect("non-empty pool")[0],
                plain.lookup(r).expect("non-empty pool"),
                "ranking head diverged at request {k}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn zero_epsilon_panics() {
        let _ = BoundedHdTable::new(0.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// The cap invariant survives any interleaving of assigns and
            /// releases, and load accounting stays exact. Releases do not
            /// rebalance, so the binding cap is the largest one in force
            /// at any assignment, not the instantaneous one.
            #[test]
            fn cap_invariant_under_arbitrary_operations(
                ops in prop::collection::vec((any::<u64>(), any::<bool>()), 1..200),
                epsilon in 0.05f64..4.0,
            ) {
                let mut t = table(6, epsilon);
                let mut live = std::collections::HashSet::new();
                let mut binding_cap = 0usize;
                for &(key, release) in &ops {
                    let key = RequestKey::new(key % 64); // force reuse
                    if release {
                        let released = t.release(key);
                        prop_assert_eq!(released.is_some(), live.remove(&key));
                    } else {
                        binding_cap = binding_cap.max(t.capacity_per_server());
                        t.assign(key).expect("non-empty pool");
                        live.insert(key);
                    }
                }
                prop_assert_eq!(t.item_count(), live.len());
                prop_assert_eq!(t.loads().values().sum::<usize>(), live.len());
                for (&server, &load) in t.loads() {
                    prop_assert!(
                        load <= binding_cap,
                        "{server} at {load} > binding cap {binding_cap}"
                    );
                }
                // Every placed item still resolves to where it was put.
                for &key in &live {
                    prop_assert!(t.placement_of(key).is_some());
                }
            }

            /// Rankings are permutations of the live pool for any request.
            #[test]
            fn ranking_is_a_permutation(key in any::<u64>()) {
                let t = table(10, 1.0);
                let ranking = t.ranking(RequestKey::new(key)).expect("non-empty pool");
                prop_assert_eq!(ranking.len(), 10);
                let unique: std::collections::HashSet<_> = ranking.iter().collect();
                prop_assert_eq!(unique.len(), 10);
            }
        }
    }
}
