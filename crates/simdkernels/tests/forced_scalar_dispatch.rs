//! `HDHASH_FORCE_SCALAR` must defeat **every** SIMD tier — AVX2 and
//! AVX-512 alike — before the `OnceLock` dispatcher first resolves.
//!
//! This lives in its own test binary on purpose: the dispatcher caches its
//! choice per process, so the env var has to be set before any kernel call
//! in this process, and no other test may share the binary. A single
//! `#[test]` keeps the harness from racing a second test past the set-up.

#[test]
fn force_scalar_env_defeats_every_tier() {
    // Safe to set: nothing in this process has touched the dispatcher yet,
    // and this is the only test in the binary.
    std::env::set_var("HDHASH_FORCE_SCALAR", "1");

    assert_eq!(
        hdhash_simdkernels::kernel_name(),
        "scalar",
        "forced-scalar dispatch must pick the portable tier on any host"
    );

    // The dispatched entry points must behave exactly like the scalar
    // reference module they now route to.
    let a: Vec<u64> = (0..96u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let b: Vec<u64> = (0..96u64).map(|i| !i.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)).collect();
    assert_eq!(
        hdhash_simdkernels::hamming_distance_words(&a, &b),
        hdhash_simdkernels::scalar::hamming_distance_words(&a, &b)
    );
    for limit in [0usize, 100, 3000, 96 * 64] {
        assert_eq!(
            hdhash_simdkernels::hamming_within_words(&a, &b, limit),
            hdhash_simdkernels::scalar::hamming_within_words(&a, &b, limit),
            "limit {limit}"
        );
    }
    assert_eq!(
        hdhash_simdkernels::popcount_words(&a),
        hdhash_simdkernels::scalar::popcount_words(&a)
    );

    // The hardware capability report ignores the kill switch: it stamps
    // benchmarks with what the machine *could* run.
    let isa = hdhash_simdkernels::host_isa();
    assert!(["scalar", "avx2", "avx512"].contains(&isa), "unexpected isa {isa}");
}
