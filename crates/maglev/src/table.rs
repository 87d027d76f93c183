//! The Maglev lookup table.

use hdhash_hashfn::{SplitMix64, XxHash64};
use hdhash_table::{DynamicHashTable, NoisyTable, RequestKey, ServerId, TableError};

use crate::prime::next_prime;

/// Sentinel for an unclaimed/corrupted-out-of-pool table entry.
const EMPTY: u64 = u64::MAX;

/// Maglev hashing: an `O(1)` lookup table populated from per-backend
/// preference permutations.
///
/// ## Construction (Eisenbud et al., §3.4)
///
/// Every backend `b` derives `offset = h₁(b) mod M` and
/// `skip = h₂(b) mod (M − 1) + 1`; its preference list is
/// `(offset + j · skip) mod M` for `j = 0, 1, …`. Backends take turns
/// claiming the next unclaimed slot on their list until all `M` slots are
/// owned. Because `M` is prime, every list is a full permutation, so the
/// loop terminates with each backend owning `≈ M/N` slots.
///
/// ## Noise model
///
/// The vulnerable state surface is the lookup table: `M` 64-bit entries
/// holding backend identifiers. A flipped bit corrupts exactly one entry,
/// sending only the `≈ 1/M` of requests that hash there to a wrong (often
/// non-live) backend — the *dilution* end of the robustness spectrum,
/// opposite the ring-tree's subtree amplification.
///
/// # Examples
///
/// ```
/// use hdhash_maglev::MaglevTable;
/// use hdhash_table::{DynamicHashTable, RequestKey, ServerId};
///
/// let mut maglev = MaglevTable::new();
/// for id in 0..4 {
///     maglev.join(ServerId::new(id))?;
/// }
/// let owner = maglev.lookup(RequestKey::new(7))?;
/// assert!(maglev.contains(owner));
/// # Ok::<(), hdhash_table::TableError>(())
/// ```
pub struct MaglevTable {
    /// `h₁`: hashes requests to slots and backends to their offsets.
    hasher: XxHash64,
    /// `h₂`: hashes backends to their skips.
    skip_hasher: XxHash64,
    table_size: usize,
    members: Vec<ServerId>,
    /// The lookup table (`EMPTY` when no servers have joined); this is the
    /// noise surface.
    lookup: Vec<u64>,
}

impl MaglevTable {
    /// Default table size: the Maglev paper's measurement configuration.
    pub const DEFAULT_TABLE_SIZE: usize = 65_537;

    /// Creates a table with the default size.
    #[must_use]
    pub fn new() -> Self {
        Self::with_table_size(Self::DEFAULT_TABLE_SIZE)
    }

    /// Creates a table whose lookup table has the smallest prime size
    /// `>= requested` (primality is required by the permutation scheme).
    ///
    /// # Panics
    ///
    /// Panics if `requested < 2`.
    #[must_use]
    pub fn with_table_size(requested: usize) -> Self {
        assert!(requested >= 2, "Maglev needs at least two slots");
        let table_size = next_prime(requested as u64) as usize;
        Self {
            hasher: XxHash64::with_seed(0),
            skip_hasher: XxHash64::with_seed(0x5EED),
            table_size,
            members: Vec::new(),
            lookup: Vec::new(),
        }
    }

    /// The (prime) lookup table size `M`.
    #[must_use]
    pub fn table_size(&self) -> usize {
        self.table_size
    }

    /// Per-backend slot counts — the balance the permutation scheme
    /// achieves (each should be within 2% of `M/N` per the Maglev paper).
    #[must_use]
    pub fn slot_counts(&self) -> std::collections::HashMap<ServerId, usize> {
        let mut counts = std::collections::HashMap::new();
        for &entry in &self.lookup {
            if entry != EMPTY {
                *counts.entry(ServerId::new(entry)).or_insert(0) += 1;
            }
        }
        counts
    }

    fn populate(&mut self) {
        if self.members.is_empty() {
            self.lookup.clear();
            return;
        }
        let m = self.table_size;
        // offset/skip per backend, from two independent hashes of its id.
        let params: Vec<(usize, usize)> = self
            .members
            .iter()
            .map(|s| {
                let h1 = self.hasher.hash_bytes(&s.to_bytes());
                let h2 = self.skip_hasher.hash_bytes(&s.to_bytes());
                ((h1 % m as u64) as usize, (h2 % (m as u64 - 1) + 1) as usize)
            })
            .collect();

        let mut next = vec![0usize; self.members.len()];
        let mut entry = vec![EMPTY; m];
        let mut filled = 0usize;
        'fill: loop {
            for (i, &(offset, skip)) in params.iter().enumerate() {
                // Advance to this backend's next unclaimed preference.
                let slot = loop {
                    let candidate = (offset + next[i] * skip) % m;
                    next[i] += 1;
                    if entry[candidate] == EMPTY {
                        break candidate;
                    }
                };
                entry[slot] = self.members[i].get();
                filled += 1;
                if filled == m {
                    break 'fill;
                }
            }
        }
        self.lookup = entry;
    }
}

impl Default for MaglevTable {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for MaglevTable {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MaglevTable")
            .field("servers", &self.members.len())
            .field("table_size", &self.table_size)
            .finish()
    }
}

impl DynamicHashTable for MaglevTable {
    fn join(&mut self, server: ServerId) -> Result<(), TableError> {
        if self.members.contains(&server) {
            return Err(TableError::ServerAlreadyPresent(server));
        }
        if self.members.len() + 1 > self.table_size {
            return Err(TableError::CapacityExhausted {
                servers: self.members.len(),
                capacity: self.table_size,
            });
        }
        self.members.push(server);
        self.populate();
        Ok(())
    }

    fn leave(&mut self, server: ServerId) -> Result<(), TableError> {
        let idx = self
            .members
            .iter()
            .position(|&s| s == server)
            .ok_or(TableError::ServerNotFound(server))?;
        self.members.remove(idx);
        self.populate();
        Ok(())
    }

    fn lookup(&self, request: RequestKey) -> Result<ServerId, TableError> {
        if self.lookup.is_empty() {
            return Err(TableError::EmptyPool);
        }
        let slot = (self.hasher.hash_bytes(&request.to_bytes()) % self.table_size as u64) as usize;
        Ok(ServerId::new(self.lookup[slot]))
    }

    fn server_count(&self) -> usize {
        self.members.len()
    }

    fn servers(&self) -> Vec<ServerId> {
        self.members.clone()
    }

    fn algorithm_name(&self) -> &'static str {
        "maglev"
    }
}

impl NoisyTable for MaglevTable {
    fn inject_bit_flips(&mut self, count: usize, seed: u64) -> usize {
        if self.lookup.is_empty() {
            return 0;
        }
        let mut rng = SplitMix64::new(seed);
        let surface = self.noise_surface_bits() as u64;
        for _ in 0..count {
            let bit = rng.next_below(surface) as usize;
            self.lookup[bit / 64] ^= 1u64 << (bit % 64);
        }
        count
    }

    fn inject_burst(&mut self, length: usize, seed: u64) -> usize {
        if self.lookup.is_empty() || length == 0 {
            return 0;
        }
        let mut rng = SplitMix64::new(seed);
        let surface = self.noise_surface_bits();
        let start = rng.next_below(surface as u64) as usize;
        let end = (start + length).min(surface);
        for bit in start..end {
            self.lookup[bit / 64] ^= 1u64 << (bit % 64);
        }
        end - start
    }

    fn clear_noise(&mut self) {
        self.populate();
    }

    fn noise_surface_bits(&self) -> usize {
        self.lookup.len() * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdhash_table::{remap_fraction, Assignment};

    fn filled(n: u64, table_size: usize) -> MaglevTable {
        let mut t = MaglevTable::with_table_size(table_size);
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
        let mut t = MaglevTable::with_table_size(211);
        assert_eq!(t.lookup(RequestKey::new(0)), Err(TableError::EmptyPool));
        t.join(ServerId::new(3)).expect("fresh");
        assert_eq!(
            t.join(ServerId::new(3)),
            Err(TableError::ServerAlreadyPresent(ServerId::new(3)))
        );
        assert_eq!(t.lookup(RequestKey::new(0)).expect("non-empty"), ServerId::new(3));
        t.leave(ServerId::new(3)).expect("present");
        assert_eq!(t.leave(ServerId::new(3)), Err(TableError::ServerNotFound(ServerId::new(3))));
    }

    #[test]
    fn table_size_rounds_to_prime() {
        assert_eq!(MaglevTable::with_table_size(100).table_size(), 101);
        assert_eq!(MaglevTable::with_table_size(65_536).table_size(), 65_537);
        assert_eq!(MaglevTable::new().table_size(), 65_537);
    }

    #[test]
    fn slots_are_near_perfectly_balanced() {
        // The Maglev paper's balance guarantee: slot shares within a few
        // percent of M/N.
        let t = filled(16, 4099);
        let counts = t.slot_counts();
        assert_eq!(counts.values().sum::<usize>(), 4099);
        let expected = 4099 / 16;
        for (&server, &count) in &counts {
            let dev = (count as f64 - expected as f64).abs() / expected as f64;
            assert!(dev < 0.05, "{server}: {count} vs {expected}");
        }
    }

    #[test]
    fn lookup_distribution_tracks_slots() {
        let t = filled(8, 2053);
        let loads =
            Assignment::capture(&t, keys(16_000)).expect("non-empty").load_by_server();
        for &load in loads.values() {
            let dev = (load as f64 - 2_000.0).abs() / 2_000.0;
            assert!(dev < 0.15, "load {load}");
        }
    }

    #[test]
    fn membership_change_disruption_is_small() {
        // Maglev trades *minimal* disruption for balance: a leave may move
        // a small number of non-victim keys, but the bulk must stay.
        let mut t = filled(16, 4099);
        let before = Assignment::capture(&t, keys(8_000)).expect("non-empty");
        t.leave(ServerId::new(5)).expect("present");
        let after = Assignment::capture(&t, keys(8_000)).expect("non-empty");
        let moved = remap_fraction(&before, &after);
        // Victim's share is 1/16 ≈ 6.25%; Maglev's extra churn should stay
        // within a small multiple of that.
        assert!(moved < 0.20, "too much disruption: {moved}");
        assert!(moved > 0.03, "victim's keys must move: {moved}");
    }

    #[test]
    fn noise_damage_is_diluted_and_restorable() {
        let mut t = filled(32, 4099);
        let reference = Assignment::capture(&t, keys(6_000)).expect("non-empty");
        t.inject_bit_flips(10, 4);
        let noisy = Assignment::capture(&t, keys(6_000)).expect("non-empty");
        let moved = remap_fraction(&reference, &noisy);
        // 10 corrupted entries of 4099: ≈ 0.24% of traffic.
        assert!(moved < 0.02, "Maglev corruption should be diluted: {moved}");
        t.clear_noise();
        let restored = Assignment::capture(&t, keys(6_000)).expect("non-empty");
        assert_eq!(remap_fraction(&reference, &restored), 0.0);
    }

    #[test]
    fn surfaces_and_edges() {
        let t = filled(4, 211);
        assert_eq!(t.noise_surface_bits(), 211 * 64);
        let mut empty = MaglevTable::with_table_size(211);
        assert_eq!(empty.inject_bit_flips(3, 0), 0);
        assert_eq!(empty.inject_burst(3, 0), 0);
        let mut t = filled(2, 211);
        assert_eq!(t.inject_burst(0, 1), 0);
        assert_eq!(t.algorithm_name(), "maglev");
        assert!(format!("{t:?}").contains("table_size"));
    }

    #[test]
    fn single_server_owns_all_slots() {
        let t = filled(1, 211);
        assert_eq!(t.slot_counts()[&ServerId::new(0)], 211);
    }

    #[test]
    fn deterministic() {
        let a = filled(12, 1031);
        let b = filled(12, 1031);
        for k in 0..500u64 {
            assert_eq!(
                a.lookup(RequestKey::new(k)).expect("non-empty"),
                b.lookup(RequestKey::new(k)).expect("non-empty")
            );
        }
    }
}
