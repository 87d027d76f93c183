//! Bit-error injection into stored hypervectors.
//!
//! The paper's robustness experiments (Figures 5 and 6) flip bits of the
//! values an algorithm keeps in memory. For HD hashing the vulnerable
//! state is the stored hypervectors themselves; this module corrupts an
//! [`AssociativeMemory`] in the two patterns the paper cites from the
//! DRAM-failure literature:
//!
//! * **single-event upsets (SEU)** — independent single-bit flips at
//!   uniformly random positions ([`flip_random_bits`]);
//! * **multi-cell upsets (MCU / burst errors)** — a run of adjacent bits
//!   flipped by one event ([`flip_burst`]), increasingly common at small
//!   feature sizes (45% of SEUs at 22 nm per Ibe et al.).

use crate::memory::AssociativeMemory;
use crate::rng::Rng;

/// Flips `count` bits at uniformly random (entry, position) coordinates of
/// the memory — the SEU model.
///
/// Returns the number of bits actually flipped (zero for an empty memory).
pub fn flip_random_bits<K: Clone + Send + Sync>(
    memory: &mut AssociativeMemory<K>,
    count: usize,
    rng: &mut Rng,
) -> usize {
    if memory.is_empty() {
        return 0;
    }
    let entries = memory.len();
    let d = memory.dimension();
    for _ in 0..count {
        let entry = rng.next_below(entries as u64) as usize;
        let bit = rng.next_below(d as u64) as usize;
        memory.flip_entry_bit(entry, bit);
    }
    count
}

/// Flips a burst of `length` *adjacent* bits starting at a random position
/// within one random entry — the MCU model.
///
/// The burst is truncated at the end of the hypervector (physical bursts do
/// not wrap across words of unrelated data). Returns the number of bits
/// actually flipped.
pub fn flip_burst<K: Clone + Send + Sync>(
    memory: &mut AssociativeMemory<K>,
    length: usize,
    rng: &mut Rng,
) -> usize {
    if memory.is_empty() || length == 0 {
        return 0;
    }
    let d = memory.dimension();
    let entry = rng.next_below(memory.len() as u64) as usize;
    let start = rng.next_below(d as u64) as usize;
    let end = (start + length).min(d);
    for bit in start..end {
        memory.flip_entry_bit(entry, bit);
    }
    end - start
}

/// The burst-size mixture reported by Ibe et al. for 22 nm SRAM: returns a
/// burst length sampled as 1 (89%), 4 (10%) or 8 (1%) bits.
pub fn ibe_burst_length(rng: &mut Rng) -> usize {
    let x = rng.next_f64();
    if x < 0.01 {
        8
    } else if x < 0.11 {
        4
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypervector::Hypervector;

    fn memory_with(n: usize, d: usize) -> AssociativeMemory<usize> {
        let mut rng = Rng::new(7);
        let mut mem = AssociativeMemory::new(d);
        for i in 0..n {
            mem.insert(i, Hypervector::random(d, &mut rng)).expect("dims");
        }
        mem
    }

    fn total_distance(a: &AssociativeMemory<usize>, b: &AssociativeMemory<usize>) -> usize {
        a.iter()
            .zip(b.iter())
            .map(|((_, x), (_, y))| {
                hdhash_simdkernels::hamming_distance_words(x.as_words(), y.as_words())
            })
            .sum()
    }

    #[test]
    fn seu_flips_expected_count() {
        let clean = memory_with(8, 1024);
        let mut noisy = clean.clone();
        let mut rng = Rng::new(100);
        let flipped = flip_random_bits(&mut noisy, 10, &mut rng);
        assert_eq!(flipped, 10);
        // Collisions (same coordinate twice) are possible but vanishingly
        // rare at this size; distance equals the injected count.
        assert_eq!(total_distance(&clean, &noisy), 10);
    }

    #[test]
    fn burst_is_contiguous_in_one_entry() {
        let clean = memory_with(4, 4096);
        let mut noisy = clean.clone();
        let mut rng = Rng::new(101);
        let flipped = flip_burst(&mut noisy, 10, &mut rng);
        assert!((1..=10).contains(&flipped));
        // Exactly one entry was touched.
        let touched: Vec<usize> = clean
            .iter()
            .zip(noisy.iter())
            .enumerate()
            .filter(|(_, ((_, x), (_, y)))| x != y)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(touched.len(), 1);
        // And the flipped bits are contiguous.
        let idx = touched[0];
        let row = |m: &AssociativeMemory<usize>| {
            let (_, words) = m.iter().nth(idx).expect("entry");
            Hypervector::from_words(4096, words.as_words().to_vec())
        };
        let (before, after) = (row(&clean), row(&noisy));
        let mut positions: Vec<usize> =
            (0..4096).filter(|&b| before.bit(b) != after.bit(b)).collect();
        positions.sort_unstable();
        assert_eq!(positions.len(), flipped);
        for w in positions.windows(2) {
            assert_eq!(w[1], w[0] + 1, "burst not contiguous: {positions:?}");
        }
    }

    #[test]
    fn burst_truncates_at_boundary() {
        let mut mem = memory_with(1, 64);
        // Try many seeds; whenever the start lands near the end, the burst
        // must truncate rather than wrap.
        for seed in 0..50 {
            let mut noisy = mem.clone();
            let mut rng = Rng::new(seed);
            let flipped = flip_burst(&mut noisy, 16, &mut rng);
            assert!((1..=16).contains(&flipped));
        }
        let _ = flip_random_bits(&mut mem, 0, &mut Rng::new(0));
    }

    #[test]
    fn empty_memory_is_noop() {
        let mut mem: AssociativeMemory<usize> = AssociativeMemory::new(128);
        let mut rng = Rng::new(3);
        assert_eq!(flip_random_bits(&mut mem, 5, &mut rng), 0);
        assert_eq!(flip_burst(&mut mem, 5, &mut rng), 0);
    }

    #[test]
    fn zero_length_burst_is_noop() {
        let clean = memory_with(2, 128);
        let mut noisy = clean.clone();
        assert_eq!(flip_burst(&mut noisy, 0, &mut Rng::new(9)), 0);
        assert_eq!(total_distance(&clean, &noisy), 0);
    }

    #[test]
    fn ibe_mixture_proportions() {
        let mut rng = Rng::new(500);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..10_000 {
            *counts.entry(ibe_burst_length(&mut rng)).or_insert(0usize) += 1;
        }
        let one = counts[&1] as f64 / 10_000.0;
        let four = counts[&4] as f64 / 10_000.0;
        let eight = counts[&8] as f64 / 10_000.0;
        assert!((one - 0.89).abs() < 0.02, "P(1)={one}");
        assert!((four - 0.10).abs() < 0.02, "P(4)={four}");
        assert!((eight - 0.01).abs() < 0.01, "P(8)={eight}");
    }

    #[test]
    fn noise_does_not_change_inference_at_scale() {
        // The paper's core robustness claim in miniature: ≤10 flipped bits
        // in 10k-dimensional storage never change the arg-max.
        let mut rng = Rng::new(102);
        let mut mem = AssociativeMemory::new(10_000);
        let mut probes = Vec::new();
        for i in 0..16usize {
            let hv = Hypervector::random(10_000, &mut rng);
            mem.insert(i, hv.clone()).expect("dims");
            probes.push(hv);
        }
        let mut noisy = mem.clone();
        flip_random_bits(&mut noisy, 10, &mut rng);
        for (i, probe) in probes.iter().enumerate() {
            assert_eq!(noisy.nearest(probe).expect("non-empty").key, i);
        }
    }
}
