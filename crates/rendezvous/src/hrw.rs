//! The classic highest-random-weight table.

use hdhash_hashfn::{mix64, SplitMix64, XxHash64};
use hdhash_table::{DynamicHashTable, NoisyTable, RequestKey, ServerId, TableError};

/// Rendezvous (HRW) hashing: `argmax_s h(s, r)`.
///
/// The table stores, for each live server, a 64-bit *pre-hash* of its
/// identifier. A lookup mixes the request's own hash with every stored
/// pre-hash through a strong finalizer and returns the server with the
/// maximum combined weight — `O(n)` per lookup, as the paper measures in
/// Figure 4.
///
/// ## Noise model
///
/// The stored pre-hash words are the vulnerable state surface. One
/// corrupted word re-randomizes that server's weight for *every* request:
/// the server loses the ~`1/n` of requests it used to win and wins a fresh
/// ~`1/n` elsewhere, so each corrupted word mismatches ≈ `2/n` of traffic.
///
/// # Examples
///
/// ```
/// use hdhash_rendezvous::RendezvousTable;
/// use hdhash_table::{DynamicHashTable, RequestKey, ServerId};
///
/// let mut table = RendezvousTable::new();
/// table.join(ServerId::new(1))?;
/// table.join(ServerId::new(2))?;
/// let owner = table.lookup(RequestKey::new(5))?;
/// assert!(table.contains(owner));
/// # Ok::<(), hdhash_table::TableError>(())
/// ```
pub struct RendezvousTable {
    hasher: XxHash64,
    /// `(server, stored pre-hash)` — the pre-hash is the noise surface.
    entries: Vec<(ServerId, u64)>,
}

impl RendezvousTable {
    /// Creates an empty table whose servers and requests are hashed with
    /// XXH64.
    #[must_use]
    pub fn new() -> Self {
        Self { hasher: XxHash64::with_seed(0), entries: Vec::new() }
    }

    fn prehash(&self, server: ServerId) -> u64 {
        self.hasher.hash_bytes(&server.to_bytes())
    }

    /// The combined weight `h(s, r)` from a stored pre-hash and a request
    /// hash — the standard mix-finalizer pair construction.
    #[inline]
    fn weight(server_prehash: u64, request_hash: u64) -> u64 {
        mix64(server_prehash ^ request_hash.rotate_left(32))
    }
}

impl Default for RendezvousTable {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for RendezvousTable {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RendezvousTable").field("servers", &self.entries.len()).finish()
    }
}

impl DynamicHashTable for RendezvousTable {
    fn join(&mut self, server: ServerId) -> Result<(), TableError> {
        if self.entries.iter().any(|&(s, _)| s == server) {
            return Err(TableError::ServerAlreadyPresent(server));
        }
        let pre = self.prehash(server);
        self.entries.push((server, pre));
        Ok(())
    }

    fn leave(&mut self, server: ServerId) -> Result<(), TableError> {
        let idx = self
            .entries
            .iter()
            .position(|&(s, _)| s == server)
            .ok_or(TableError::ServerNotFound(server))?;
        self.entries.remove(idx);
        Ok(())
    }

    fn lookup(&self, request: RequestKey) -> Result<ServerId, TableError> {
        let request_hash = self.hasher.hash_bytes(&request.to_bytes());
        self.entries
            .iter()
            .max_by_key(|&&(s, pre)| (Self::weight(pre, request_hash), s.get()))
            .map(|&(s, _)| s)
            .ok_or(TableError::EmptyPool)
    }

    fn server_count(&self) -> usize {
        self.entries.len()
    }

    fn servers(&self) -> Vec<ServerId> {
        self.entries.iter().map(|&(s, _)| s).collect()
    }

    fn algorithm_name(&self) -> &'static str {
        "rendezvous"
    }
}

impl NoisyTable for RendezvousTable {
    fn inject_bit_flips(&mut self, count: usize, seed: u64) -> usize {
        if self.entries.is_empty() {
            return 0;
        }
        let mut rng = SplitMix64::new(seed);
        let surface = self.noise_surface_bits() as u64;
        for _ in 0..count {
            let bit = rng.next_below(surface) as usize;
            self.entries[bit / 64].1 ^= 1u64 << (bit % 64);
        }
        count
    }

    fn inject_burst(&mut self, length: usize, seed: u64) -> usize {
        if self.entries.is_empty() || length == 0 {
            return 0;
        }
        let mut rng = SplitMix64::new(seed);
        let surface = self.noise_surface_bits();
        let start = rng.next_below(surface as u64) as usize;
        let end = (start + length).min(surface);
        for bit in start..end {
            self.entries[bit / 64].1 ^= 1u64 << (bit % 64);
        }
        end - start
    }

    fn clear_noise(&mut self) {
        for i in 0..self.entries.len() {
            let server = self.entries[i].0;
            self.entries[i].1 = self.prehash(server);
        }
    }

    fn noise_surface_bits(&self) -> usize {
        self.entries.len() * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdhash_table::{remap_fraction, Assignment};

    fn filled(n: u64) -> RendezvousTable {
        let mut t = RendezvousTable::new();
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
        let mut t = RendezvousTable::new();
        assert_eq!(t.lookup(RequestKey::new(0)), Err(TableError::EmptyPool));
        t.join(ServerId::new(4)).expect("fresh");
        assert_eq!(
            t.join(ServerId::new(4)),
            Err(TableError::ServerAlreadyPresent(ServerId::new(4)))
        );
        assert_eq!(t.lookup(RequestKey::new(0)).expect("non-empty"), ServerId::new(4));
        t.leave(ServerId::new(4)).expect("present");
        assert_eq!(t.leave(ServerId::new(4)), Err(TableError::ServerNotFound(ServerId::new(4))));
    }

    #[test]
    fn distribution_is_very_uniform() {
        // HRW's hallmark: per-server counts are pseudo-random uniform.
        let t = filled(16);
        let loads =
            Assignment::capture(&t, keys(32_000)).expect("non-empty").load_by_server();
        let expected = 32_000 / 16;
        for (&s, &load) in &loads {
            let dev = (load as f64 - expected as f64).abs() / expected as f64;
            assert!(dev < 0.15, "{s} load {load} deviates {dev}");
        }
    }

    #[test]
    fn minimal_disruption_on_leave() {
        let mut t = filled(32);
        let before = Assignment::capture(&t, keys(4000)).expect("non-empty");
        let victim = ServerId::new(7);
        t.leave(victim).expect("present");
        let after = Assignment::capture(&t, keys(4000)).expect("non-empty");
        for (r, s_before) in before.iter() {
            if s_before != victim {
                assert_eq!(after.server_of(r), Some(s_before));
            }
        }
    }

    #[test]
    fn minimal_disruption_on_join() {
        let mut t = filled(32);
        let before = Assignment::capture(&t, keys(4000)).expect("non-empty");
        let newcomer = ServerId::new(1000);
        t.join(newcomer).expect("fresh");
        let after = Assignment::capture(&t, keys(4000)).expect("non-empty");
        for (r, s_before) in before.iter() {
            let s_after = after.server_of(r).expect("captured");
            assert!(s_after == s_before || s_after == newcomer);
        }
        let moved = remap_fraction(&before, &after);
        assert!((0.005..0.10).contains(&moved), "expected ~1/33 moved, got {moved}");
    }

    #[test]
    fn noise_mismatch_is_mild_and_restorable() {
        let n = 128;
        let mut t = filled(n);
        let reference = Assignment::capture(&t, keys(5000)).expect("non-empty");
        t.inject_bit_flips(10, 77);
        let noisy = Assignment::capture(&t, keys(5000)).expect("non-empty");
        let frac = remap_fraction(&reference, &noisy);
        // ~≤ 2 · flips / n with slack; an order-of-magnitude envelope.
        assert!(frac > 0.0, "ten corrupted pre-hash words must move something");
        assert!(frac < 4.0 * 10.0 / n as f64, "mismatch too large: {frac}");
        t.clear_noise();
        let restored = Assignment::capture(&t, keys(5000)).expect("non-empty");
        assert_eq!(remap_fraction(&reference, &restored), 0.0);
    }

    #[test]
    fn noise_surface_and_edge_cases() {
        let t = filled(4);
        assert_eq!(t.noise_surface_bits(), 256);
        let mut empty = RendezvousTable::new();
        assert_eq!(empty.inject_bit_flips(3, 0), 0);
        assert_eq!(empty.inject_burst(3, 0), 0);
        let mut t = filled(2);
        assert_eq!(t.inject_burst(0, 1), 0);
        assert!(t.inject_burst(100, 1) <= 100);
    }

    #[test]
    fn lookup_deterministic() {
        let t = filled(64);
        for k in 0..500u64 {
            assert_eq!(
                t.lookup(RequestKey::new(k)).expect("non-empty"),
                t.lookup(RequestKey::new(k)).expect("non-empty")
            );
        }
    }

    #[test]
    fn debug_output() {
        assert!(format!("{:?}", filled(2)).contains("servers: 2"));
    }
}
