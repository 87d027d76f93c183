//! Equivalence properties: the optimized word-parallel kernels must be
//! **byte-identical** to the naive bit-at-a-time reference implementations
//! (`hdhash_hdc::ops::reference`) on every input — random dimensions
//! included, and especially dimensions that are not multiples of 64, which
//! exercise the masked tail word of the packed representation.

use hdhash_hdc::basis::CircularBasis;
use hdhash_hdc::batch::Hit;
use hdhash_hdc::ops::{bundle, permute, reference, MajorityBundler};
use hdhash_hdc::{AssociativeMemory, BatchLookup, Hypervector, Rng};
use proptest::prelude::*;

/// Dimensions biased toward word-boundary edge cases.
fn dims() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(63),
        Just(64),
        Just(65),
        Just(127),
        Just(128),
        Just(129),
        2usize..700,
        Just(1000),
        Just(10_000),
    ]
}

/// A corrupted copy of `row` (`d / 25` flipped bits): the near-match
/// shape of HDC inference.
fn noisy_copy(row: &Hypervector, rng: &mut Rng) -> Hypervector {
    let d = row.dimension();
    let mut p = row.clone();
    p.flip_bits(rng.distinct_indices(d / 25, d));
    p
}

/// The reference argmin over `rows`: `(row, distance)`, lowest distance,
/// earliest row on ties.
fn reference_argmin<'a>(
    rows: impl IntoIterator<Item = &'a Hypervector>,
    probe: &Hypervector,
) -> Option<Hit> {
    rows.into_iter()
        .enumerate()
        .map(|(i, hv)| (reference::hamming(probe, hv), i))
        .min()
        .map(|(distance, row)| Hit { row, distance })
}

/// The reference quantized arg-max over `rows`: the minimum of
/// `(⌊(dist + c/2)/c⌋, order(row), row)`.
fn reference_quantized(
    rows: &[&Hypervector],
    probe: &Hypervector,
    quantum: usize,
    order: impl Fn(usize) -> usize,
) -> Option<(usize, usize, usize)> {
    rows.iter()
        .enumerate()
        .map(|(row, hv)| ((reference::hamming(probe, hv) + quantum / 2) / quantum, order(row), row))
        .min()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Word-parallel bundle == per-bit bundle, bit for bit, for odd and
    /// even input counts (even counts draw the same tie-break vector from
    /// identically seeded RNGs).
    #[test]
    fn bundle_equals_reference(seed in any::<u64>(), d in dims(), n in 1usize..18) {
        let mut rng = Rng::new(seed);
        let inputs: Vec<Hypervector> =
            (0..n).map(|_| Hypervector::random(d, &mut rng)).collect();
        let refs: Vec<&Hypervector> = inputs.iter().collect();
        let mut rng_fast = Rng::new(seed ^ 0x5EED);
        let mut rng_ref = Rng::new(seed ^ 0x5EED);
        let fast = bundle(&refs, &mut rng_fast).unwrap();
        let naive = reference::bundle(&refs, &mut rng_ref).unwrap();
        prop_assert_eq!(fast.to_bytes(), naive.to_bytes());
        // Identical RNG consumption keeps downstream draws reproducible.
        prop_assert_eq!(rng_fast.next_u64(), rng_ref.next_u64());
    }

    /// The streaming bundler agrees with one-shot bundle for odd counts
    /// (no tie vector involved) and survives reuse.
    #[test]
    fn streaming_bundler_equals_reference(seed in any::<u64>(), d in dims(), k in 0usize..6) {
        let n = 2 * k + 1;
        let mut rng = Rng::new(seed);
        let inputs: Vec<Hypervector> =
            (0..n).map(|_| Hypervector::random(d, &mut rng)).collect();
        let refs: Vec<&Hypervector> = inputs.iter().collect();
        let mut bundler = MajorityBundler::new(d);
        // Pollute, reset, then stream — reuse must leave no residue.
        bundler.add(&inputs[0]).unwrap();
        bundler.reset();
        for hv in &inputs {
            bundler.add(hv).unwrap();
        }
        let naive = reference::bundle(&refs, &mut Rng::new(0)).unwrap();
        prop_assert_eq!(bundler.majority(None).to_bytes(), naive.to_bytes());
    }

    /// Word-level rotation == per-bit rotation for arbitrary shifts,
    /// including shifts beyond `d`.
    #[test]
    fn permute_equals_reference(seed in any::<u64>(), d in dims(), shift in 0usize..30_000) {
        let mut rng = Rng::new(seed);
        let hv = Hypervector::random(d, &mut rng);
        prop_assert_eq!(
            permute(&hv, shift).to_bytes(),
            reference::permute(&hv, shift).to_bytes()
        );
    }

    /// The early-exit distance agrees exactly with the per-bit distance:
    /// `Some(dist)` iff `dist <= limit`, `None` otherwise.
    #[test]
    fn hamming_within_equals_reference(seed in any::<u64>(), d in dims(), frac in 0usize..9) {
        let mut rng = Rng::new(seed);
        let a = Hypervector::random(d, &mut rng);
        // Mix related and unrelated operands to cover both distance scales.
        let b = if frac % 2 == 0 {
            Hypervector::random(d, &mut rng)
        } else {
            let mut b = a.clone();
            b.flip_bits(rng.distinct_indices((d * frac / 16).min(d), d));
            b
        };
        let exact = reference::hamming(&a, &b);
        let limit = d * frac / 8;
        let within = a.hamming_distance_within(&b, limit);
        if exact <= limit {
            prop_assert_eq!(within, Some(exact));
        } else {
            prop_assert_eq!(within, None);
        }
        prop_assert_eq!(a.hamming_distance(&b), exact);
    }

    /// The engine returns exactly the reference argmin — lowest distance,
    /// earliest row on ties — for random populations and a batch of random
    /// and near-match probes, through both the single-probe and the batch
    /// entry point.
    #[test]
    fn batch_lookup_equals_naive_argmin(
        seed in any::<u64>(),
        d in dims(),
        n in 1usize..40,
        shapes in prop::collection::vec(any::<bool>(), 1..12),
    ) {
        let mut rng = Rng::new(seed);
        let rows: Vec<Hypervector> =
            (0..n).map(|_| Hypervector::random(d, &mut rng)).collect();
        let mut engine = BatchLookup::new(d);
        for hv in &rows {
            engine.push(hv).unwrap();
        }
        let probes: Vec<Hypervector> = shapes
            .iter()
            .map(|&noisy| {
                if noisy {
                    noisy_copy(&rows[rng.next_below(n as u64) as usize], &mut rng)
                } else {
                    Hypervector::random(d, &mut rng)
                }
            })
            .collect();
        let refs: Vec<&Hypervector> = probes.iter().collect();
        let mut batch = Vec::new();
        engine.nearest_batch_into(&refs, &mut batch);
        prop_assert_eq!(batch.len(), probes.len());
        for (probe, got) in probes.iter().zip(&batch) {
            let want = reference_argmin(&rows, probe);
            prop_assert_eq!(engine.nearest_one(probe), want);
            prop_assert_eq!(*got, want);
        }
    }

    /// The quantized arg-max equals the exhaustive reference
    /// `(q, order, row)` minimum on three probe shapes:
    ///
    /// * random and near-match probes against random rows;
    /// * codebook probes — the shape the table serves — where the rows are
    ///   members of one partitioned `CircularBasis` and the probe is any
    ///   node of it, so every distance is an exact multiple of the quantum
    ///   `c = d / nodes` and two members equidistant from the probe tie on
    ///   `q`.
    ///
    /// `order` collides on purpose, so ties on `q` are decided by `order`
    /// and ties on both by the row.
    #[test]
    fn quantized_equals_reference(
        seed in any::<u64>(),
        d in prop_oneof![Just(512usize), Just(1000), Just(4096), Just(10_240)],
        n in 9usize..48,
        quantum_div in 1usize..64,
        shapes in prop::collection::vec(0u8..3, 6..20),
    ) {
        let mut rng = Rng::new(seed);
        let order = |row: usize| row % 5;
        // Random rows under a quantum from the whole range.
        let quantum = (d / (quantum_div * 2).max(2)).max(1);
        let rows: Vec<Hypervector> =
            (0..n).map(|_| Hypervector::random(d, &mut rng)).collect();
        let mut engine = BatchLookup::new(d);
        for hv in &rows {
            engine.push(hv).unwrap();
        }
        let row_refs: Vec<&Hypervector> = rows.iter().collect();
        // Codebook rows: `n` of the `2n` nodes of a partitioned circle whose
        // dimension is padded to a multiple of `2 · 2n`, as the table does.
        let nodes = 2 * n;
        let padded = d.div_ceil(2 * nodes) * 2 * nodes;
        let basis = CircularBasis::generate(nodes, padded, &mut rng).unwrap();
        let code_quantum = padded / nodes;
        let members: Vec<&Hypervector> = rng
            .distinct_indices(n, nodes)
            .into_iter()
            .map(|slot| &basis[slot])
            .collect();
        let mut codebook_engine = BatchLookup::new(padded);
        for hv in &members {
            codebook_engine.push(hv).unwrap();
        }
        for &shape in &shapes {
            let (engine, rows, quantum, probe) = match shape {
                0 => (&engine, &row_refs, quantum, Hypervector::random(d, &mut rng)),
                1 => {
                    let victim = &rows[rng.next_below(n as u64) as usize];
                    (&engine, &row_refs, quantum, noisy_copy(victim, &mut rng))
                }
                _ => {
                    let node = basis[rng.next_below(nodes as u64) as usize].clone();
                    (&codebook_engine, &members, code_quantum, node)
                }
            };
            if shape == 2 {
                for hv in rows.iter() {
                    prop_assert_eq!(reference::hamming(&probe, hv) % quantum, 0);
                }
            }
            prop_assert_eq!(
                engine.nearest_quantized_by(&probe, quantum, 0, rows.len(), order),
                reference_quantized(rows, &probe, quantum, order),
                "shape {} diverged (d={}, q={})", shape, engine.dimension(), quantum
            );
        }
    }

    /// Row compaction under churn equals a fresh engine built from the
    /// surviving rows — matrix contents and scan results alike.
    #[test]
    fn retained_rows_equal_fresh_engine(
        seed in any::<u64>(),
        d in dims(),
        n in 1usize..30,
        keep_mask in prop::collection::vec(any::<bool>(), 30),
    ) {
        let mut rng = Rng::new(seed);
        let rows: Vec<Hypervector> =
            (0..n).map(|_| Hypervector::random(d, &mut rng)).collect();
        let mut engine = BatchLookup::new(d);
        for hv in &rows {
            engine.push(hv).unwrap();
        }
        engine.retain_rows(|row| keep_mask[row]);
        let survivors: Vec<&Hypervector> =
            rows.iter().enumerate().filter(|(i, _)| keep_mask[*i]).map(|(_, hv)| hv).collect();
        prop_assert_eq!(engine.len(), survivors.len());
        let mut fresh = BatchLookup::new(d);
        for hv in &survivors {
            fresh.push(hv).unwrap();
        }
        for (i, hv) in survivors.iter().enumerate() {
            prop_assert_eq!(engine.row(i), fresh.row(i));
            prop_assert_eq!(engine.row(i), hv.as_words());
        }
        let probe = Hypervector::random(d, &mut rng);
        prop_assert_eq!(engine.nearest_one(&probe), reference_argmin(survivors, &probe));
    }

    /// After row compaction the retained rows are exactly the kept ones,
    /// and every scan shape — plain argmin, batch, row range and quantized
    /// arg-max — equals the bit-at-a-time reference on non-×64
    /// dimensions. The dispatched kernel under all of this is whatever
    /// tier the host runs (scalar/AVX2/AVX-512), so a pass pins that tier
    /// against the reference too.
    #[test]
    fn scans_agree_with_reference_after_churn(
        seed in any::<u64>(),
        d in dims(),
        n in 1usize..30,
        keep_mask in prop::collection::vec(any::<bool>(), 30),
        noisy in any::<bool>(),
        cut in 0usize..30,
    ) {
        let mut rng = Rng::new(seed);
        let all_rows: Vec<Hypervector> =
            (0..n).map(|_| Hypervector::random(d, &mut rng)).collect();
        let mut engine = BatchLookup::new(d);
        for hv in &all_rows {
            engine.push(hv).unwrap();
        }
        engine.retain_rows(|row| keep_mask[row]);
        let rows: Vec<&Hypervector> = all_rows
            .iter()
            .enumerate()
            .filter(|(i, _)| keep_mask[*i])
            .map(|(_, hv)| hv)
            .collect();
        let probe = if noisy && !rows.is_empty() {
            noisy_copy(rows[rng.next_below(rows.len() as u64) as usize], &mut rng)
        } else {
            Hypervector::random(d, &mut rng)
        };
        let naive = reference_argmin(rows.iter().copied(), &probe);
        prop_assert_eq!(engine.nearest_one(&probe), naive);
        let mut out = Vec::new();
        engine.nearest_batch_into(&[&probe], &mut out);
        prop_assert_eq!(out[0], naive);
        prop_assert_eq!(engine.len(), rows.len());
        for (i, hv) in rows.iter().enumerate() {
            prop_assert_eq!(engine.row(i), hv.as_words());
        }
        // A row range `[cut, len)` resolves to the argmin of that range.
        let cut = cut.min(rows.len());
        let want_range = reference_argmin(rows[cut..].iter().copied(), &probe)
            .map(|h| Hit { row: h.row + cut, distance: h.distance });
        prop_assert_eq!(engine.nearest_in_range(&probe, cut, rows.len()), want_range);
        let order = |row: usize| row % 3;
        let quantum = (d / 8).max(1);
        prop_assert_eq!(
            engine.nearest_quantized_by(&probe, quantum, 0, rows.len(), order),
            reference_quantized(&rows, &probe, quantum, order)
        );
    }

    /// The associative memory's nearest (serial and parallel) equals the
    /// reference formulation: max similarity, earliest insert on ties.
    #[test]
    fn memory_nearest_equals_reference(seed in any::<u64>(), d in dims(), n in 1usize..30) {
        let mut rng = Rng::new(seed);
        let mut memory = AssociativeMemory::new(d);
        let mut rows = Vec::new();
        for i in 0..n {
            let hv = Hypervector::random(d, &mut rng);
            memory.insert(i, hv.clone()).unwrap();
            rows.push(hv);
        }
        let probe = Hypervector::random(d, &mut rng);
        let want = rows
            .iter()
            .enumerate()
            .map(|(i, hv)| (reference::hamming(&probe, hv), i))
            .min()
            .map(|(_, i)| i)
            .unwrap();
        prop_assert_eq!(memory.nearest(&probe).unwrap().key, want);
        let parallel = memory
            .clone()
            .with_strategy(hdhash_hdc::SearchStrategy::Parallel { threads: 3 });
        prop_assert_eq!(parallel.nearest(&probe).unwrap().key, want);
    }
}
