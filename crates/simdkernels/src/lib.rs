//! # hdhash-simdkernels — runtime-dispatched distance kernels
//!
//! The HD-hash hot path is one operation: XOR two packed `u64` rows and
//! popcount the result (Hamming distance). Every other crate in the
//! workspace is `#![forbid(unsafe_code)]`; this leaf crate is the single,
//! auditable exception, holding the feature-gated SIMD implementations of
//! that kernel behind a safe API.
//!
//! ## The dispatch ladder
//!
//! * **AVX-512** (`x86_64`, requires `avx512f` + `avx512vpopcntdq`) —
//!   512-bit XOR plus the native `vpopcntq` instruction: one popcount per
//!   eight words, no LUT dance;
//! * **AVX2** (`x86_64`) — 256-bit XOR plus the nibble-LUT popcount
//!   (`vpshufb` per-byte counts folded with `vpsadbw`), sixteen words per
//!   iteration;
//! * **scalar** — portable `u64::count_ones` in 16-word blocks, the exact
//!   kernel previously inlined in `hdhash-hdc`, and the behavioural
//!   specification every vector path must match bit-for-bit.
//!
//! Dispatch is resolved once per process and cached in a [`OnceLock`]:
//! the first call probes the CPU (`is_x86_feature_detected!`) and installs
//! function pointers; every later call is an indirect call with no
//! re-detection. Binaries therefore run on any x86-64 — no compile-time
//! `-C target-cpu` requirement — and still use the widest tier the host
//! exposes.
//!
//! Steering the ladder (CI portability jobs, A/B benchmarking):
//!
//! * `HDHASH_FORCE_SCALAR=1` (any non-empty value except `0`) — collapse
//!   to the scalar tier, checked once at dispatch time;
//! * `HDHASH_DISABLE_AVX512=1` (same convention) — cap the ladder at
//!   AVX2, the kill switch for the newest tier;
//! * compile time: the `force-scalar` cargo feature.
//!
//! [`kernel_name`] reports which kernel was installed; [`host_isa`]
//! reports what the hardware supports regardless of any kill switch (the
//! machine-capability stamp benchmarks record).
//!
//! ## Exactness
//!
//! All tiers compute the same integers: popcount is exact, so a vector
//! path is not an approximation of the scalar path — it is the same
//! function. `hamming_within_words` checks its abandonment bound at the
//! same 16-word block granularity in every implementation, and its
//! *result* (`Some(d)` iff `d <= limit`) is fully determined by the
//! inputs either way. The property suite in `tests/equivalence.rs` and
//! the in-crate cross-tier tests pin both claims.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::sync::OnceLock;

/// How many words one early-exit block spans (1024 dimensions): large
/// enough that the bound check is off the critical path, small enough that
/// abandonment saves most of a hopeless row.
pub const BLOCK_WORDS: usize = 16;

/// The installed kernel implementations.
struct Kernel {
    name: &'static str,
    distance: fn(&[u64], &[u64]) -> usize,
    within: fn(&[u64], &[u64], usize) -> Option<usize>,
    popcount: fn(&[u64]) -> usize,
}

static KERNEL: OnceLock<Kernel> = OnceLock::new();

fn kernel() -> &'static Kernel {
    KERNEL.get_or_init(|| {
        if scalar_forced() {
            return SCALAR;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if !avx512_disabled()
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
            {
                return Kernel {
                    name: "avx512",
                    distance: avx512::hamming_distance,
                    within: avx512::hamming_within,
                    popcount: avx512::popcount,
                };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Kernel {
                    name: "avx2",
                    distance: avx2::hamming_distance,
                    within: avx2::hamming_within,
                    popcount: avx2::popcount,
                };
            }
        }
        SCALAR
    })
}

const SCALAR: Kernel = Kernel {
    name: "scalar",
    distance: scalar::hamming_distance_words,
    within: scalar::hamming_within_words,
    popcount: scalar::popcount_words,
};

/// Whether the scalar fallback is forced (feature or environment).
fn scalar_forced() -> bool {
    if cfg!(feature = "force-scalar") {
        return true;
    }
    env_flag("HDHASH_FORCE_SCALAR")
}

/// Whether the AVX-512 tier is disabled by its kill switch (the ladder
/// then caps at AVX2).
#[cfg(target_arch = "x86_64")]
fn avx512_disabled() -> bool {
    env_flag("HDHASH_DISABLE_AVX512")
}

/// `true` iff the variable is set to a non-empty value other than `"0"`.
fn env_flag(name: &str) -> bool {
    match std::env::var_os(name) {
        Some(v) => !v.is_empty() && v != *"0",
        None => false,
    }
}

/// The name of the kernel the dispatcher installed for this process:
/// `"avx512"`, `"avx2"` or `"scalar"`.
#[must_use]
pub fn kernel_name() -> &'static str {
    kernel().name
}

/// The widest tier this *hardware* supports (`"avx512"`, `"avx2"` or
/// `"scalar"`), ignoring every kill switch — the machine-capability stamp
/// benchmark reports carry so a scalar-forced run is distinguishable from
/// a host that genuinely lacks the ISA.
#[must_use]
pub fn host_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
        {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

/// Hamming distance between two equal-length packed word rows
/// (XOR + popcount over every word).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn hamming_distance_words(a: &[u64], b: &[u64]) -> usize {
    assert_eq!(a.len(), b.len(), "word rows must have equal length");
    (kernel().distance)(a, b)
}

/// Hamming distance with early abandonment: returns `Some(distance)` when
/// `distance <= limit`, `None` as soon as the running count provably
/// exceeds `limit` (checked every [`BLOCK_WORDS`] words).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn hamming_within_words(a: &[u64], b: &[u64], limit: usize) -> Option<usize> {
    assert_eq!(a.len(), b.len(), "word rows must have equal length");
    (kernel().within)(a, b, limit)
}

/// Total population count of a packed word row (the dispatched kernel
/// behind `Hypervector::count_ones` and the maintenance readouts).
#[must_use]
pub fn popcount_words(words: &[u64]) -> usize {
    (kernel().popcount)(words)
}

/// Best-effort software prefetch of `words[index..]` into L1 (a no-op off
/// x86-64 or out of bounds). Scan loops drop hints a block ahead so the
/// next row block is in flight while the current one is counted.
#[inline]
pub fn prefetch_words(words: &[u64], index: usize) {
    #[cfg(target_arch = "x86_64")]
    if index < words.len() {
        // SAFETY: the pointer is in bounds and PREFETCHT0 has no
        // architectural effect — it cannot fault or write.
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                words.as_ptr().add(index).cast::<i8>(),
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (words, index);
    }
}

/// The portable kernels — always available, always correct, and the
/// specification the vector paths are property-tested against.
pub mod scalar {
    use super::BLOCK_WORDS;

    /// Scalar XOR + popcount over every word.
    ///
    /// # Panics
    ///
    /// Debug-asserts equal lengths (the public dispatcher asserts).
    #[must_use]
    pub fn hamming_distance_words(a: &[u64], b: &[u64]) -> usize {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones() as usize).sum()
    }

    /// Scalar early-exit distance: XOR + popcount in [`BLOCK_WORDS`]
    /// blocks, checking the abandonment bound between blocks so the hot
    /// loop stays branch-light and unrollable.
    #[must_use]
    pub fn hamming_within_words(a: &[u64], b: &[u64], limit: usize) -> Option<usize> {
        debug_assert_eq!(a.len(), b.len());
        let mut total = 0usize;
        let mut chunks_a = a.chunks_exact(BLOCK_WORDS);
        let mut chunks_b = b.chunks_exact(BLOCK_WORDS);
        for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
            let mut block = 0u32;
            for (x, y) in ca.iter().zip(cb) {
                block += (x ^ y).count_ones();
            }
            total += block as usize;
            if total > limit {
                return None;
            }
        }
        for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
            total += (x ^ y).count_ones() as usize;
        }
        if total <= limit {
            Some(total)
        } else {
            None
        }
    }

    /// Scalar population count of a word row.
    #[must_use]
    pub fn popcount_words(words: &[u64]) -> usize {
        words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// The AVX2 kernels (x86-64 only, installed after runtime detection).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::BLOCK_WORDS;
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_extract_epi64,
        _mm256_loadu_si256, _mm256_sad_epu8, _mm256_set1_epi8, _mm256_setr_epi8,
        _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_srli_epi16, _mm256_xor_si256,
    };

    /// Per-64-bit-lane popcount of one 256-bit vector: the classic
    /// nibble-LUT scheme — `vpshufb` maps each nibble to its population
    /// count, `vpsadbw` folds the 32 byte-counts into four u64 lane sums.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn popcount_epi64(v: __m256i) -> __m256i {
        #[rustfmt::skip]
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
        let counts =
            _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(counts, _mm256_setzero_si256())
    }

    /// XOR + per-lane popcount of one 4-word (256-bit) chunk.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn xor_popcount_chunk(a: &[u64], b: &[u64]) -> __m256i {
        debug_assert_eq!(a.len(), 4);
        debug_assert_eq!(b.len(), 4);
        // SAFETY: both chunks hold exactly four u64s (32 bytes), so the
        // unaligned 256-bit loads stay in bounds.
        let (va, vb) = unsafe {
            (
                _mm256_loadu_si256(a.as_ptr().cast()),
                _mm256_loadu_si256(b.as_ptr().cast()),
            )
        };
        popcount_epi64(_mm256_xor_si256(va, vb))
    }

    /// Horizontal sum of the four u64 lanes of an accumulator.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn horizontal_sum(acc: __m256i) -> u64 {
        (_mm256_extract_epi64(acc, 0) as u64)
            .wrapping_add(_mm256_extract_epi64(acc, 1) as u64)
            .wrapping_add(_mm256_extract_epi64(acc, 2) as u64)
            .wrapping_add(_mm256_extract_epi64(acc, 3) as u64)
    }

    #[target_feature(enable = "avx2")]
    fn distance_impl(a: &[u64], b: &[u64]) -> usize {
        let mut chunks_a = a.chunks_exact(4);
        let mut chunks_b = b.chunks_exact(4);
        let mut acc = _mm256_setzero_si256();
        for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
            acc = _mm256_add_epi64(acc, xor_popcount_chunk(ca, cb));
        }
        let mut total = horizontal_sum(acc) as usize;
        for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
            total += (x ^ y).count_ones() as usize;
        }
        total
    }

    #[target_feature(enable = "avx2")]
    fn within_impl(a: &[u64], b: &[u64], limit: usize) -> Option<usize> {
        let mut total = 0usize;
        let mut blocks_a = a.chunks_exact(BLOCK_WORDS);
        let mut blocks_b = b.chunks_exact(BLOCK_WORDS);
        for (ba, bb) in blocks_a.by_ref().zip(blocks_b.by_ref()) {
            let mut acc = _mm256_setzero_si256();
            for (ca, cb) in ba.chunks_exact(4).zip(bb.chunks_exact(4)) {
                acc = _mm256_add_epi64(acc, xor_popcount_chunk(ca, cb));
            }
            total += horizontal_sum(acc) as usize;
            if total > limit {
                return None;
            }
        }
        for (x, y) in blocks_a.remainder().iter().zip(blocks_b.remainder()) {
            total += (x ^ y).count_ones() as usize;
        }
        if total <= limit {
            Some(total)
        } else {
            None
        }
    }

    #[target_feature(enable = "avx2")]
    fn popcount_impl(words: &[u64]) -> usize {
        let mut chunks = words.chunks_exact(4);
        let mut acc = _mm256_setzero_si256();
        for chunk in chunks.by_ref() {
            // SAFETY: the chunk holds exactly four u64s (32 bytes).
            let v = unsafe { _mm256_loadu_si256(chunk.as_ptr().cast()) };
            acc = _mm256_add_epi64(acc, popcount_epi64(v));
        }
        let mut total = horizontal_sum(acc) as usize;
        for w in chunks.remainder() {
            total += w.count_ones() as usize;
        }
        total
    }

    /// Safe entry point: sound only when installed after AVX2 detection,
    /// which the dispatcher guarantees.
    pub fn hamming_distance(a: &[u64], b: &[u64]) -> usize {
        debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
        // SAFETY: the dispatcher only installs this function pointer after
        // `is_x86_feature_detected!("avx2")` returned true for this CPU.
        unsafe { distance_impl(a, b) }
    }

    /// Safe entry point: sound only when installed after AVX2 detection,
    /// which the dispatcher guarantees.
    pub fn hamming_within(a: &[u64], b: &[u64], limit: usize) -> Option<usize> {
        debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
        // SAFETY: as for `hamming_distance`.
        unsafe { within_impl(a, b, limit) }
    }

    /// Safe entry point: sound only when installed after AVX2 detection.
    pub fn popcount(words: &[u64]) -> usize {
        debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
        // SAFETY: as for `hamming_distance`.
        unsafe { popcount_impl(words) }
    }
}

/// The AVX-512 kernels (x86-64 only, installed after runtime detection of
/// `avx512f` **and** `avx512vpopcntdq`). Where AVX2 spends five
/// instructions per 256-bit popcount (the nibble-LUT dance), `vpopcntq`
/// counts a whole 512-bit vector — eight words — in one.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::BLOCK_WORDS;
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi64, _mm512_loadu_si512, _mm512_popcnt_epi64,
        _mm512_reduce_add_epi64, _mm512_setzero_si512, _mm512_xor_si512,
    };

    /// Whether both required features are present (the dispatcher's gate,
    /// re-asserted by every safe entry point in debug builds).
    fn detected() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
    }

    /// XOR + per-lane popcount of one 8-word (512-bit) chunk.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn xor_popcount_chunk(a: &[u64], b: &[u64]) -> __m512i {
        debug_assert_eq!(a.len(), 8);
        debug_assert_eq!(b.len(), 8);
        // SAFETY: both chunks hold exactly eight u64s (64 bytes), so the
        // unaligned 512-bit loads stay in bounds.
        let (va, vb) = unsafe {
            (
                _mm512_loadu_si512(a.as_ptr().cast()),
                _mm512_loadu_si512(b.as_ptr().cast()),
            )
        };
        _mm512_popcnt_epi64(_mm512_xor_si512(va, vb))
    }

    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn distance_impl(a: &[u64], b: &[u64]) -> usize {
        let mut chunks_a = a.chunks_exact(8);
        let mut chunks_b = b.chunks_exact(8);
        let mut acc = _mm512_setzero_si512();
        for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
            acc = _mm512_add_epi64(acc, xor_popcount_chunk(ca, cb));
        }
        let mut total = _mm512_reduce_add_epi64(acc) as usize;
        for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
            total += (x ^ y).count_ones() as usize;
        }
        total
    }

    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn within_impl(a: &[u64], b: &[u64], limit: usize) -> Option<usize> {
        let mut total = 0usize;
        let mut blocks_a = a.chunks_exact(BLOCK_WORDS);
        let mut blocks_b = b.chunks_exact(BLOCK_WORDS);
        for (ba, bb) in blocks_a.by_ref().zip(blocks_b.by_ref()) {
            // One 16-word block is exactly two 512-bit chunks.
            let acc = _mm512_add_epi64(
                xor_popcount_chunk(&ba[..8], &bb[..8]),
                xor_popcount_chunk(&ba[8..], &bb[8..]),
            );
            total += _mm512_reduce_add_epi64(acc) as usize;
            if total > limit {
                return None;
            }
        }
        for (x, y) in blocks_a.remainder().iter().zip(blocks_b.remainder()) {
            total += (x ^ y).count_ones() as usize;
        }
        if total <= limit {
            Some(total)
        } else {
            None
        }
    }

    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn popcount_impl(words: &[u64]) -> usize {
        let mut chunks = words.chunks_exact(8);
        let mut acc = _mm512_setzero_si512();
        for chunk in chunks.by_ref() {
            // SAFETY: the chunk holds exactly eight u64s (64 bytes).
            let v = unsafe { _mm512_loadu_si512(chunk.as_ptr().cast()) };
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
        }
        let mut total = _mm512_reduce_add_epi64(acc) as usize;
        for w in chunks.remainder() {
            total += w.count_ones() as usize;
        }
        total
    }

    /// Safe entry point: sound only when installed after AVX-512
    /// detection, which the dispatcher guarantees.
    pub fn hamming_distance(a: &[u64], b: &[u64]) -> usize {
        debug_assert!(detected());
        // SAFETY: the dispatcher only installs this function pointer after
        // `is_x86_feature_detected!` confirmed avx512f + avx512vpopcntdq.
        unsafe { distance_impl(a, b) }
    }

    /// Safe entry point: sound only when installed after AVX-512 detection.
    pub fn hamming_within(a: &[u64], b: &[u64], limit: usize) -> Option<usize> {
        debug_assert!(detected());
        // SAFETY: as for `hamming_distance`.
        unsafe { within_impl(a, b, limit) }
    }

    /// Safe entry point: sound only when installed after AVX-512 detection.
    pub fn popcount(words: &[u64]) -> usize {
        debug_assert!(detected());
        // SAFETY: as for `hamming_distance`.
        unsafe { popcount_impl(words) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic word patterns mixing dense, sparse and boundary
    /// values (no external RNG in this leaf crate).
    fn pattern(len: usize, seed: u64) -> Vec<u64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..len)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match i % 5 {
                    0 => state,
                    1 => 0,
                    2 => u64::MAX,
                    3 => state & 0x0101_0101_0101_0101,
                    _ => !state,
                }
            })
            .collect()
    }

    #[test]
    fn dispatched_distance_matches_scalar() {
        for len in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 64, 157, 160] {
            let a = pattern(len, 1);
            let b = pattern(len, 2);
            assert_eq!(
                hamming_distance_words(&a, &b),
                scalar::hamming_distance_words(&a, &b),
                "len={len}"
            );
        }
    }

    #[test]
    fn dispatched_within_matches_scalar_outcome() {
        for len in [0usize, 1, 7, 16, 17, 48, 157, 160] {
            let a = pattern(len, 3);
            let b = pattern(len, 4);
            let exact = scalar::hamming_distance_words(&a, &b);
            for limit in [0usize, exact / 2, exact.saturating_sub(1), exact, exact + 1, len * 64]
            {
                let want = if exact <= limit { Some(exact) } else { None };
                assert_eq!(hamming_within_words(&a, &b, limit), want, "len={len} limit={limit}");
                assert_eq!(
                    scalar::hamming_within_words(&a, &b, limit),
                    want,
                    "scalar len={len} limit={limit}"
                );
            }
        }
    }

    #[test]
    fn dispatched_popcount_matches_scalar() {
        for len in [0usize, 1, 4, 7, 8, 9, 16, 31, 157, 160] {
            let a = pattern(len, 5);
            assert_eq!(popcount_words(&a), scalar::popcount_words(&a), "len={len}");
        }
    }

    /// Every tier the host supports must agree with the scalar
    /// specification on every entry point — regardless of which tier the
    /// dispatcher installed for this process.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn all_supported_tiers_match_scalar_spec() {
        type Tier = (
            &'static str,
            fn(&[u64], &[u64]) -> usize,
            fn(&[u64], &[u64], usize) -> Option<usize>,
            fn(&[u64]) -> usize,
        );
        let mut tiers: Vec<Tier> = Vec::new();
        if std::arch::is_x86_feature_detected!("avx2") {
            tiers.push((
                "avx2",
                avx2::hamming_distance,
                avx2::hamming_within,
                avx2::popcount,
            ));
        }
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
        {
            tiers.push((
                "avx512",
                avx512::hamming_distance,
                avx512::hamming_within,
                avx512::popcount,
            ));
        }
        for (name, distance, within, popcount) in tiers {
            for len in [0usize, 1, 5, 8, 9, 16, 17, 31, 157, 160] {
                let a = pattern(len, 11);
                let b = pattern(len, 12);
                let exact = scalar::hamming_distance_words(&a, &b);
                assert_eq!(distance(&a, &b), exact, "{name} distance len={len}");
                assert_eq!(popcount(&a), scalar::popcount_words(&a), "{name} popcount");
                for limit in [0usize, exact.saturating_sub(1), exact, exact + 1] {
                    assert_eq!(
                        within(&a, &b, limit),
                        scalar::hamming_within_words(&a, &b, limit),
                        "{name} within len={len} limit={limit}"
                    );
                }
            }
        }
    }

    #[test]
    fn identical_rows_have_zero_distance() {
        let a = pattern(160, 9);
        assert_eq!(hamming_distance_words(&a, &a), 0);
        assert_eq!(hamming_within_words(&a, &a, 0), Some(0));
    }

    #[test]
    fn kernel_name_is_known() {
        let name = kernel_name();
        assert!(
            name == "avx512" || name == "avx2" || name == "scalar",
            "unexpected kernel {name}"
        );
        if std::env::var_os("HDHASH_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != *"0")
            || cfg!(feature = "force-scalar")
        {
            assert_eq!(name, "scalar", "forced scalar must win the dispatch");
        }
    }

    #[test]
    fn host_isa_is_at_least_the_installed_kernel() {
        let isa = host_isa();
        assert!(isa == "avx512" || isa == "avx2" || isa == "scalar", "unexpected isa {isa}");
        // The installed kernel never exceeds what the hardware supports.
        let rank = |t: &str| match t {
            "avx512" => 2,
            "avx2" => 1,
            _ => 0,
        };
        assert!(rank(kernel_name()) <= rank(isa), "installed kernel above hardware tier");
    }

    #[test]
    fn prefetch_is_a_safe_no_op() {
        let words = pattern(32, 20);
        prefetch_words(&words, 0);
        prefetch_words(&words, 31);
        prefetch_words(&words, 32); // out of bounds: silently skipped
        prefetch_words(&[], 0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn length_mismatch_panics() {
        let _ = hamming_distance_words(&[0], &[0, 1]);
    }
}
