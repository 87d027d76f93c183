//! Modular hashing: the `h(r) mod n` baseline.
//!
//! "The simplest hash table solves the mapping problem using modular
//! hashing. Despite having a great lookup time complexity of O(1), a change
//! in table size (number of available resources) requires virtually all
//! requests to be redistributed due to the modulo operation." (paper, §1)
//!
//! This implementation exists to quantify that statement (the remap
//! experiments) and to serve as the simplest [`DynamicHashTable`] for
//! emulator plumbing tests.

use hdhash_hashfn::XxHash64;

use crate::error::TableError;
use crate::ids::{RequestKey, ServerId};
use crate::traits::{DynamicHashTable, NoisyTable};

/// The `h(r) mod n` hash table.
///
/// Servers occupy a dense slot array in join order; a request hashes to a
/// slot index. The *vulnerable state surface* for noise experiments is the
/// stored slot array itself (the 64-bit server identifiers).
///
/// # Examples
///
/// ```
/// use hdhash_table::{DynamicHashTable, ModularTable, RequestKey, ServerId};
///
/// let mut table = ModularTable::new();
/// table.join(ServerId::new(0))?;
/// table.join(ServerId::new(1))?;
/// let owner = table.lookup(RequestKey::new(7))?;
/// assert!(table.contains(owner));
/// # Ok::<(), hdhash_table::TableError>(())
/// ```
pub struct ModularTable {
    hasher: XxHash64,
    /// Clean membership list, in join order.
    servers: Vec<ServerId>,
    /// The stored slot array lookups actually read; noise corrupts this.
    slots: Vec<u64>,
}

impl ModularTable {
    /// Creates an empty table whose requests are hashed with XXH64.
    #[must_use]
    pub fn new() -> Self {
        Self { hasher: XxHash64::with_seed(0), servers: Vec::new(), slots: Vec::new() }
    }

    /// Re-derives the whole slot array from the clean membership list —
    /// the noise-scrub path ([`NoisyTable::clear_noise`]). Membership
    /// changes never call this: [`join`](DynamicHashTable::join) appends
    /// one slot and [`leave`](DynamicHashTable::leave) removes one, so
    /// churn is incremental and, deliberately, does not scrub noise
    /// injected into *other* slots (a join on real hardware does not
    /// repair unrelated corrupted memory).
    fn rebuild_slots(&mut self) {
        self.slots = self.servers.iter().map(|s| s.get()).collect();
    }
}

impl Default for ModularTable {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for ModularTable {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ModularTable").field("servers", &self.servers.len()).finish()
    }
}

impl DynamicHashTable for ModularTable {
    fn join(&mut self, server: ServerId) -> Result<(), TableError> {
        if self.servers.contains(&server) {
            return Err(TableError::ServerAlreadyPresent(server));
        }
        self.servers.push(server);
        self.slots.push(server.get());
        Ok(())
    }

    fn leave(&mut self, server: ServerId) -> Result<(), TableError> {
        let idx = self
            .servers
            .iter()
            .position(|&s| s == server)
            .ok_or(TableError::ServerNotFound(server))?;
        self.servers.remove(idx);
        // Remove the matching stored slot by index (it may be corrupted
        // by injected noise; index, not value, is the correspondence).
        self.slots.remove(idx);
        Ok(())
    }

    fn lookup(&self, request: RequestKey) -> Result<ServerId, TableError> {
        if self.slots.is_empty() {
            return Err(TableError::EmptyPool);
        }
        let idx = (self.hasher.hash_bytes(&request.to_bytes()) % self.slots.len() as u64) as usize;
        Ok(ServerId::new(self.slots[idx]))
    }

    fn server_count(&self) -> usize {
        self.servers.len()
    }

    fn servers(&self) -> Vec<ServerId> {
        self.servers.clone()
    }

    fn algorithm_name(&self) -> &'static str {
        "modular"
    }
}

impl NoisyTable for ModularTable {
    fn inject_bit_flips(&mut self, count: usize, seed: u64) -> usize {
        if self.slots.is_empty() {
            return 0;
        }
        let mut rng = hdhash_hashfn::SplitMix64::new(seed);
        let surface = self.noise_surface_bits() as u64;
        for _ in 0..count {
            let bit = rng.next_below(surface) as usize;
            self.slots[bit / 64] ^= 1u64 << (bit % 64);
        }
        count
    }

    fn inject_burst(&mut self, length: usize, seed: u64) -> usize {
        if self.slots.is_empty() || length == 0 {
            return 0;
        }
        let mut rng = hdhash_hashfn::SplitMix64::new(seed);
        let surface = self.noise_surface_bits();
        let start = rng.next_below(surface as u64) as usize;
        let end = (start + length).min(surface);
        for bit in start..end {
            self.slots[bit / 64] ^= 1u64 << (bit % 64);
        }
        end - start
    }

    fn clear_noise(&mut self) {
        self.rebuild_slots();
    }

    fn noise_surface_bits(&self) -> usize {
        self.slots.len() * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u64) -> ModularTable {
        let mut t = ModularTable::new();
        for i in 0..n {
            t.join(ServerId::new(i)).expect("fresh server");
        }
        t
    }

    #[test]
    fn join_leave_lookup_lifecycle() {
        let mut t = ModularTable::new();
        assert_eq!(t.lookup(RequestKey::new(1)), Err(TableError::EmptyPool));
        t.join(ServerId::new(10)).expect("fresh");
        assert_eq!(t.lookup(RequestKey::new(1)).expect("pool non-empty"), ServerId::new(10));
        assert_eq!(
            t.join(ServerId::new(10)),
            Err(TableError::ServerAlreadyPresent(ServerId::new(10)))
        );
        t.leave(ServerId::new(10)).expect("present");
        assert_eq!(
            t.leave(ServerId::new(10)),
            Err(TableError::ServerNotFound(ServerId::new(10)))
        );
        assert_eq!(t.server_count(), 0);
    }

    #[test]
    fn lookup_is_deterministic_and_in_pool() {
        let t = filled(16);
        for k in 0..1000u64 {
            let a = t.lookup(RequestKey::new(k)).expect("non-empty");
            let b = t.lookup(RequestKey::new(k)).expect("non-empty");
            assert_eq!(a, b);
            assert!(t.contains(a));
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let t = filled(8);
        let mut counts = std::collections::HashMap::new();
        for k in 0..8000u64 {
            *counts.entry(t.lookup(RequestKey::new(k)).expect("non-empty")).or_insert(0u32) += 1;
        }
        for (&server, &c) in &counts {
            assert!((800..1200).contains(&c), "{server} got {c}");
        }
    }

    #[test]
    fn resize_remaps_most_requests() {
        // The paper's motivation: adding one server to a modular table
        // remaps virtually all requests (expected fraction 1 - 1/(n+1)).
        let t1 = filled(16);
        let mut t2 = filled(16);
        t2.join(ServerId::new(999)).expect("fresh");
        let moved = (0..4000u64)
            .filter(|&k| {
                t1.lookup(RequestKey::new(k)).expect("non-empty")
                    != t2.lookup(RequestKey::new(k)).expect("non-empty")
            })
            .count();
        let fraction = moved as f64 / 4000.0;
        assert!(fraction > 0.85, "modular should remap nearly everything: {fraction}");
    }

    #[test]
    fn noise_changes_lookups_and_clear_restores() {
        let mut t = filled(64);
        let clean: Vec<ServerId> =
            (0..500).map(|k| t.lookup(RequestKey::new(k)).expect("non-empty")).collect();
        t.inject_bit_flips(10, 42);
        let noisy: Vec<ServerId> =
            (0..500).map(|k| t.lookup(RequestKey::new(k)).expect("non-empty")).collect();
        assert_ne!(clean, noisy, "10 flips in 64 slots should corrupt something");
        t.clear_noise();
        let restored: Vec<ServerId> =
            (0..500).map(|k| t.lookup(RequestKey::new(k)).expect("non-empty")).collect();
        assert_eq!(clean, restored);
    }

    #[test]
    fn burst_injection_bounded() {
        let mut t = filled(4);
        assert_eq!(t.noise_surface_bits(), 256);
        let flipped = t.inject_burst(300, 7);
        assert!(flipped <= 256);
        assert_eq!(t.inject_burst(0, 7), 0);
        let mut empty = ModularTable::new();
        assert_eq!(empty.inject_bit_flips(5, 1), 0);
        assert_eq!(empty.inject_burst(5, 1), 0);
    }

    #[test]
    fn debug_shows_summary() {
        let t = filled(3);
        let s = format!("{t:?}");
        assert!(s.contains("servers: 3"));
    }
}
