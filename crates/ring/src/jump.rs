//! Jump consistent hash (Lamping & Veach, 2014).
//!
//! A zero-memory consistent hash: `jump_hash(key, n)` computes the bucket
//! in `0..n` directly from the key with `O(log n)` arithmetic and *no
//! stored state at all*. When the pool grows from `n` to `n + 1`, exactly
//! `1/(n+1)` of keys move — optimal minimal disruption — but buckets can
//! only be added or removed **at the end**, so it suits storage shards
//! more than arbitrary-churn server pools.
//!
//! Included as the extreme point of the robustness spectrum: with no
//! stored bytes, there is nothing for a memory error to corrupt. The
//! [`JumpTable`] adapter keeps only the bucket→server array (its noise
//! surface), isolating exactly how much *state* costs under faults.

use hdhash_hashfn::{SplitMix64, XxHash64};
use hdhash_table::{DynamicHashTable, NoisyTable, RequestKey, ServerId, TableError};

/// The stateless jump consistent hash function: maps `key` to a bucket in
/// `0..buckets`.
///
/// # Panics
///
/// Panics if `buckets == 0`.
///
/// # Examples
///
/// ```
/// use hdhash_ring::jump::jump_hash;
///
/// let bucket = jump_hash(12345, 10);
/// assert!(bucket < 10);
/// // Growing the pool moves only ~1/11 of the keys.
/// let moved = (0..10_000u64)
///     .filter(|&k| jump_hash(k, 10) != jump_hash(k, 11))
///     .count();
/// assert!((700..1200).contains(&moved));
/// ```
#[must_use]
pub fn jump_hash(key: u64, buckets: u32) -> u32 {
    assert!(buckets > 0, "jump hash needs at least one bucket");
    // The original LCG-based formulation from the paper.
    let mut k = key;
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < i64::from(buckets) {
        b = j;
        k = k.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
        j = (((b.wrapping_add(1)) as f64) * ((1i64 << 31) as f64 / ((k >> 33).wrapping_add(1) as f64)))
            as i64;
    }
    b as u32
}

/// A dynamic hash table over jump consistent hashing.
///
/// Buckets map to servers through a stored array (join appends, leave
/// swaps the last bucket in — the only removal jump hashing supports
/// without global remapping). That array is the vulnerable noise surface;
/// the jump function itself is stateless.
///
/// # Examples
///
/// ```
/// use hdhash_ring::JumpTable;
/// use hdhash_table::{DynamicHashTable, RequestKey, ServerId};
///
/// let mut table = JumpTable::new();
/// table.join(ServerId::new(10))?;
/// table.join(ServerId::new(20))?;
/// let owner = table.lookup(RequestKey::new(5))?;
/// assert!(table.contains(owner));
/// # Ok::<(), hdhash_table::TableError>(())
/// ```
pub struct JumpTable {
    hasher: XxHash64,
    /// Bucket → server array, in join order; the noise surface.
    buckets: Vec<u64>,
    /// Clean shadow of the bucket array, used to restore after noise
    /// (the counterpart of the other tables' rebuilds from membership).
    clean: Vec<u64>,
}

impl JumpTable {
    /// Creates an empty table whose keys are hashed with XXH64.
    #[must_use]
    pub fn new() -> Self {
        Self { hasher: XxHash64::with_seed(0), buckets: Vec::new(), clean: Vec::new() }
    }
}

impl Default for JumpTable {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for JumpTable {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("JumpTable").field("servers", &self.buckets.len()).finish()
    }
}

impl DynamicHashTable for JumpTable {
    fn join(&mut self, server: ServerId) -> Result<(), TableError> {
        if self.clean.contains(&server.get()) {
            return Err(TableError::ServerAlreadyPresent(server));
        }
        self.clean.push(server.get());
        self.buckets.push(server.get());
        Ok(())
    }

    fn leave(&mut self, server: ServerId) -> Result<(), TableError> {
        let idx = self
            .clean
            .iter()
            .position(|&s| s == server.get())
            .ok_or(TableError::ServerNotFound(server))?;
        // Jump hashing only shrinks from the end: move the last server
        // into the vacated bucket (its keys remap to the moved server, and
        // the final bucket's keys redistribute — the documented trade).
        self.clean.swap_remove(idx);
        self.buckets = self.clean.clone();
        Ok(())
    }

    fn lookup(&self, request: RequestKey) -> Result<ServerId, TableError> {
        if self.buckets.is_empty() {
            return Err(TableError::EmptyPool);
        }
        let key = self.hasher.hash_bytes(&request.to_bytes());
        let bucket = jump_hash(key, self.buckets.len() as u32) as usize;
        Ok(ServerId::new(self.buckets[bucket]))
    }

    fn server_count(&self) -> usize {
        self.clean.len()
    }

    fn servers(&self) -> Vec<ServerId> {
        self.clean.iter().map(|&s| ServerId::new(s)).collect()
    }

    fn algorithm_name(&self) -> &'static str {
        "jump"
    }
}

impl NoisyTable for JumpTable {
    fn inject_bit_flips(&mut self, count: usize, seed: u64) -> usize {
        if self.buckets.is_empty() {
            return 0;
        }
        let mut rng = SplitMix64::new(seed);
        let surface = self.noise_surface_bits() as u64;
        for _ in 0..count {
            let bit = rng.next_below(surface) as usize;
            self.buckets[bit / 64] ^= 1u64 << (bit % 64);
        }
        count
    }

    fn inject_burst(&mut self, length: usize, seed: u64) -> usize {
        if self.buckets.is_empty() || length == 0 {
            return 0;
        }
        let mut rng = SplitMix64::new(seed);
        let surface = self.noise_surface_bits();
        let start = rng.next_below(surface as u64) as usize;
        let end = (start + length).min(surface);
        for bit in start..end {
            self.buckets[bit / 64] ^= 1u64 << (bit % 64);
        }
        end - start
    }

    fn clear_noise(&mut self) {
        self.buckets = self.clean.clone();
    }

    fn noise_surface_bits(&self) -> usize {
        self.buckets.len() * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jump_hash_matches_reference_vectors() {
        // Reference values from the Lamping–Veach paper's reference
        // implementation (widely mirrored in library test suites).
        assert_eq!(jump_hash(0, 1), 0);
        assert_eq!(jump_hash(0, 60), 0);
        assert_eq!(jump_hash(1, 1), 0);
        assert!(jump_hash(1, 60) < 60);
        // Stability: bucket never changes when later buckets are added
        // unless the key moves to the new bucket.
        for key in 0..500u64 {
            for n in 1..40u32 {
                let a = jump_hash(key, n);
                let b = jump_hash(key, n + 1);
                assert!(a == b || b == n, "key {key}: {a} -> {b} at n={n}");
            }
        }
    }

    #[test]
    fn minimal_disruption_is_optimal() {
        let moved = (0..20_000u64)
            .filter(|&k| jump_hash(k, 16) != jump_hash(k, 17))
            .count();
        let fraction = moved as f64 / 20_000.0;
        assert!((fraction - 1.0 / 17.0).abs() < 0.01, "moved {fraction}");
    }

    #[test]
    fn distribution_is_uniform() {
        let mut counts = [0usize; 16];
        for k in 0..32_000u64 {
            counts[jump_hash(hdhash_hashfn::mix64(k), 16) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((1_700..2_300).contains(&c), "bucket {i}: {c}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_panics() {
        let _ = jump_hash(1, 0);
    }

    #[test]
    fn table_lifecycle() {
        let mut t = JumpTable::new();
        assert_eq!(t.lookup(RequestKey::new(1)), Err(TableError::EmptyPool));
        t.join(ServerId::new(1)).expect("fresh");
        t.join(ServerId::new(2)).expect("fresh");
        assert_eq!(t.join(ServerId::new(1)), Err(TableError::ServerAlreadyPresent(ServerId::new(1))));
        assert!(t.contains(t.lookup(RequestKey::new(9)).expect("non-empty")));
        t.leave(ServerId::new(1)).expect("present");
        assert_eq!(t.leave(ServerId::new(1)), Err(TableError::ServerNotFound(ServerId::new(1))));
        assert_eq!(t.server_count(), 1);
        assert!(format!("{t:?}").contains("servers: 1"));
    }

    #[test]
    fn noise_corrupts_bucket_array() {
        let mut t = JumpTable::new();
        for i in 0..32 {
            t.join(ServerId::new(i)).expect("fresh");
        }
        let before: Vec<ServerId> =
            (0..2000).map(|k| t.lookup(RequestKey::new(k)).expect("non-empty")).collect();
        t.inject_bit_flips(10, 3);
        let after: Vec<ServerId> =
            (0..2000).map(|k| t.lookup(RequestKey::new(k)).expect("non-empty")).collect();
        assert_ne!(before, after, "bucket-array corruption must surface");
        assert_eq!(t.noise_surface_bits(), 32 * 64);
        t.clear_noise();
        let restored: Vec<ServerId> =
            (0..2000).map(|k| t.lookup(RequestKey::new(k)).expect("non-empty")).collect();
        assert_eq!(before, restored, "clear_noise must restore");
    }
}
