//! The nearest-neighbour engine: one contiguous row-major word matrix
//! under every associative-memory scan.
//!
//! [`BatchLookup`] keeps member hypervectors in one flat word matrix (one
//! `Vec<u64>`, row `r` at `r * row_words`), so a scan is a linear walk the
//! prefetcher can see coming instead of a pointer chase per candidate. It
//! is the only copy of the stored rows:
//! [`AssociativeMemory`](crate::memory::AssociativeMemory) keeps just the
//! keys beside it.
//!
//! Every query is one **early-abandon sweep** over a row range: rows are
//! scanned in order, each distance is counted through the dispatched
//! kernel in 16-word blocks, and a row is abandoned as soon as its running
//! count exceeds the best verdict so far. The sweep minimises
//! `(q, order(row), row)` with `q = ⌊(dist + c/2)/c⌋` for a quantum `c`;
//! its bound is quantum-aware, so a row that could still *tie* the best
//! level is counted to the end and the `order` tie-break sees it. The
//! plain arg-min is the `c = 1`, `order = ()` case: lowest distance,
//! earliest row on ties. The query shapes are thin calls into that sweep:
//!
//! * [`nearest_one`](BatchLookup::nearest_one) — the arg-min over all rows;
//! * [`nearest_in_range`](BatchLookup::nearest_in_range) — the arg-min over
//!   one row range (the shard primitive of the multi-threaded path);
//! * [`nearest_quantized_by`](BatchLookup::nearest_quantized_by) — the
//!   quantized arg-max of `hdhash-core`'s partitioned codebook;
//! * [`nearest_batch_into`](BatchLookup::nearest_batch_into) — one sweep
//!   per probe of a batch.
//!
//! None of them allocates; the batch call refills a caller-owned output
//! buffer.

use crate::hypervector::{hamming_words_within, DimensionMismatchError, Hypervector};

/// Rows of member hypervectors in one contiguous row-major word matrix,
/// scanned by Hamming distance.
///
/// Row indices are stable under [`push`](Self::push) (append) and shift
/// down under [`retain_rows`](Self::retain_rows); callers that key rows
/// (the associative memory) own the index↔key correspondence.
#[derive(Debug, Clone)]
pub struct BatchLookup {
    dimension: usize,
    row_words: usize,
    matrix: Vec<u64>,
}

/// A scan hit: row index and exact Hamming distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hit {
    /// Index of the winning row.
    pub row: usize,
    /// Its exact Hamming distance to the probe.
    pub distance: usize,
}

impl BatchLookup {
    /// An empty engine for dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn new(d: usize) -> Self {
        assert!(d > 0, "dimension must be positive");
        Self { dimension: d, row_words: d.div_ceil(64), matrix: Vec::new() }
    }

    /// Hypervector dimension of every row.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// Number of member rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.matrix.len() / self.row_words
    }

    /// Whether the engine holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.matrix.is_empty()
    }

    /// Appends a member row.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] on dimension mismatch.
    pub fn push(&mut self, hv: &Hypervector) -> Result<(), DimensionMismatchError> {
        if hv.dimension() != self.dimension {
            return Err(DimensionMismatchError { left: self.dimension, right: hv.dimension() });
        }
        self.matrix.extend_from_slice(hv.as_words());
        Ok(())
    }

    /// Drops every row whose index fails `keep`, compacting the matrix in
    /// place with one forward `copy_within` pass. `keep` is called once
    /// per row, in row order. Surviving rows keep their relative order, so
    /// the earliest-row tie-break still matches the owner's entry order.
    pub fn retain_rows<F: FnMut(usize) -> bool>(&mut self, mut keep: F) {
        let w = self.row_words;
        let mut kept = 0usize;
        for row in 0..self.len() {
            if keep(row) {
                if kept != row {
                    self.matrix.copy_within(row * w..(row + 1) * w, kept * w);
                }
                kept += 1;
            }
        }
        self.matrix.truncate(kept * w);
    }

    /// The packed words of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn row(&self, i: usize) -> &[u64] {
        assert!(i < self.len(), "row index out of range");
        &self.matrix[i * self.row_words..(i + 1) * self.row_words]
    }

    /// Flips one bit of row `i` (noise injection into the stored rows).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `bit` is out of range.
    pub(crate) fn flip_bit(&mut self, row: usize, bit: usize) {
        assert!(row < self.len() && bit < self.dimension, "row or bit out of range");
        self.matrix[row * self.row_words + bit / 64] ^= 1u64 << (bit % 64);
    }

    /// The one scan: minimises `(q, order(row), row)` over rows
    /// `[start, end)`, where `q = ⌊(dist + c/2)/c⌋` for `c = quantum`.
    ///
    /// Rows are swept in order with a software prefetch one row ahead.
    /// Once a best level `q` is known, a row is abandoned as soon as its
    /// running distance exceeds the largest distance that still maps to
    /// `q` — it can never improve `(q, order)`. Rows that could tie the
    /// level are counted to the end, so the `order` tie-break sees them.
    fn sweep<O: Ord>(
        &self,
        probe: &Hypervector,
        quantum: usize,
        start: usize,
        end: usize,
        order: impl Fn(usize) -> O,
    ) -> Option<(usize, O, usize)> {
        let probe_words = probe.as_words();
        let mut best: Option<(usize, O, usize)> = None;
        let mut limit = self.dimension;
        for row in start..end.min(self.len()) {
            hdhash_simdkernels::prefetch_words(&self.matrix, (row + 1) * self.row_words);
            let row_words = &self.matrix[row * self.row_words..(row + 1) * self.row_words];
            let Some(dist) = hamming_words_within(probe_words, row_words, limit) else {
                continue;
            };
            let q = (dist + quantum / 2) / quantum;
            let key_order = order(row);
            if best.as_ref().is_none_or(|(bq, bo, _)| (q, &key_order) < (*bq, bo)) {
                // The largest distance still mapping to level `q`.
                limit = (q * quantum + quantum - 1 - quantum / 2).min(self.dimension);
                best = Some((q, key_order, row));
            }
        }
        best
    }

    /// Nearest row to `probe` over all rows: lowest distance, earliest row
    /// on ties. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `probe` has the wrong dimension.
    #[must_use]
    pub fn nearest_one(&self, probe: &Hypervector) -> Option<Hit> {
        self.nearest_in_range(probe, 0, self.len())
    }

    /// Nearest row within `rows[start..end)`: lowest distance, earliest
    /// row on ties. `end` is clamped to the row count; an empty range
    /// yields `None`.
    ///
    /// # Panics
    ///
    /// Panics if `probe` has the wrong dimension.
    #[must_use]
    pub fn nearest_in_range(&self, probe: &Hypervector, start: usize, end: usize) -> Option<Hit> {
        assert_eq!(probe.dimension(), self.dimension, "probe dimension mismatch");
        // With a quantum of 1 the level is the distance itself.
        self.sweep(probe, 1, start, end, |_| ()).map(|(distance, (), row)| Hit { row, distance })
    }

    /// Quantized arg-max over `rows[start..end)`: distances are rounded
    /// to the grid `quantum` (`q = ⌊(dist + c/2)/c⌋`) and the minimum is
    /// taken over `(q, order(row), row)` — the deterministic,
    /// membership-order-independent tie-break `hdhash-core`'s partitioned
    /// codebook requires.
    ///
    /// Returns `(q, order(row), row)` of the winner, or `None` when the
    /// range is empty (`end` is clamped to the row count).
    ///
    /// # Panics
    ///
    /// Panics if `probe` has the wrong dimension or `quantum == 0`.
    #[must_use]
    pub fn nearest_quantized_by<O, F>(
        &self,
        probe: &Hypervector,
        quantum: usize,
        start: usize,
        end: usize,
        order: F,
    ) -> Option<(usize, O, usize)>
    where
        O: Ord,
        F: Fn(usize) -> O,
    {
        assert_eq!(probe.dimension(), self.dimension, "probe dimension mismatch");
        assert!(quantum > 0, "quantum must be positive");
        self.sweep(probe, quantum, start, end, order)
    }

    /// Resolves a batch of probes, one sweep per probe: slot `i` of `out`
    /// equals [`nearest_one`](Self::nearest_one) for `probes[i]`.
    ///
    /// Results land in `out` (cleared and refilled; reuse the buffer to
    /// keep the path allocation-free).
    ///
    /// # Panics
    ///
    /// Panics if any probe has the wrong dimension.
    pub fn nearest_batch_into(&self, probes: &[&Hypervector], out: &mut Vec<Option<Hit>>) {
        out.clear();
        out.extend(probes.iter().map(|probe| self.nearest_one(probe)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn engine_with(n: usize, d: usize, seed: u64) -> (BatchLookup, Vec<Hypervector>) {
        let mut rng = Rng::new(seed);
        let mut engine = BatchLookup::new(d);
        let mut rows = Vec::new();
        for _ in 0..n {
            let hv = Hypervector::random(d, &mut rng);
            engine.push(&hv).expect("dims");
            rows.push(hv);
        }
        (engine, rows)
    }

    fn naive_nearest(rows: &[Hypervector], probe: &Hypervector) -> Option<Hit> {
        rows.iter()
            .enumerate()
            .map(|(i, hv)| Hit { row: i, distance: probe.hamming_distance(hv) })
            .min_by_key(|h| (h.distance, h.row))
    }

    #[test]
    fn nearest_matches_naive_scan() {
        for d in [64usize, 65, 130, 1000] {
            let (engine, rows) = engine_with(40, d, d as u64);
            let mut rng = Rng::new(999);
            for _ in 0..25 {
                let probe = Hypervector::random(d, &mut rng);
                assert_eq!(engine.nearest_one(&probe), naive_nearest(&rows, &probe), "d={d}");
            }
        }
    }

    #[test]
    fn noisy_match_probes_agree_with_naive_scan() {
        // The probe is a corrupted copy of one row, the shape of real HDC
        // inference.
        for d in [512usize, 1000, 10_240] {
            let (engine, rows) = engine_with(200, d, 3 * d as u64 + 1);
            let mut rng = Rng::new(4242);
            for _ in 0..15 {
                let victim = rng.next_below(200) as usize;
                let mut probe = rows[victim].clone();
                probe.flip_bits(rng.distinct_indices(d / 20, d));
                let hit = engine.nearest_one(&probe);
                assert_eq!(hit, naive_nearest(&rows, &probe), "d={d}");
                assert_eq!(hit.expect("non-empty").row, victim);
            }
        }
    }

    #[test]
    fn in_range_matches_naive_scan_of_the_range() {
        let d = 1000;
        let (engine, rows) = engine_with(40, d, 31);
        let mut rng = Rng::new(32);
        for _ in 0..10 {
            let probe = Hypervector::random(d, &mut rng);
            for (start, end) in [(0usize, 40usize), (5, 25), (30, 40), (12, 13)] {
                let want = naive_nearest(&rows[start..end], &probe)
                    .map(|h| Hit { row: h.row + start, distance: h.distance });
                assert_eq!(engine.nearest_in_range(&probe, start, end), want, "{start}..{end}");
            }
            // Out-of-range end clamps; an empty range finds nothing.
            assert_eq!(engine.nearest_in_range(&probe, 0, 999), engine.nearest_one(&probe));
            assert!(engine.nearest_in_range(&probe, 20, 20).is_none());
            assert!(engine.nearest_in_range(&probe, 40, 45).is_none());
        }
    }

    #[test]
    fn batch_matches_single_probe() {
        let (engine, _) = engine_with(100, 320, 5);
        let mut rng = Rng::new(6);
        let probes: Vec<Hypervector> =
            (0..37).map(|_| Hypervector::random(320, &mut rng)).collect();
        let refs: Vec<&Hypervector> = probes.iter().collect();
        let mut out = vec![None; 3]; // stale contents must be replaced
        engine.nearest_batch_into(&refs, &mut out);
        assert_eq!(out.len(), probes.len());
        for (probe, got) in probes.iter().zip(&out) {
            assert_eq!(*got, engine.nearest_one(probe));
        }
    }

    /// Reference for the quantized arg-max: exhaustive `(q, order, row)`
    /// minimum over a row range.
    fn naive_quantized(
        rows: &[Hypervector],
        probe: &Hypervector,
        quantum: usize,
        start: usize,
        end: usize,
        order: impl Fn(usize) -> usize,
    ) -> Option<(usize, usize, usize)> {
        rows[start..end.min(rows.len())]
            .iter()
            .enumerate()
            .map(|(i, hv)| {
                let row = start + i;
                ((probe.hamming_distance(hv) + quantum / 2) / quantum, order(row), row)
            })
            .min()
    }

    #[test]
    fn quantized_matches_naive_on_both_probe_shapes() {
        let d = 10_240;
        let (engine, rows) = engine_with(64, d, 4040);
        let mut rng = Rng::new(4041);
        let order = |row: usize| row * 7 % 13; // collides → order tie-breaks matter
        for quantum in [32usize, 64, 160] {
            for i in 0..24 {
                let probe = if i % 2 == 0 {
                    Hypervector::random(d, &mut rng)
                } else {
                    let victim = rng.next_below(64) as usize;
                    let mut p = rows[victim].clone();
                    p.flip_bits(rng.distinct_indices(d / 20, d));
                    p
                };
                assert_eq!(
                    engine.nearest_quantized_by(&probe, quantum, 0, 64, order),
                    naive_quantized(&rows, &probe, quantum, 0, 64, order),
                    "quantum {quantum}, probe {i}"
                );
            }
        }
    }

    #[test]
    fn quantized_respects_row_ranges() {
        let d = 4096;
        let (engine, rows) = engine_with(40, d, 5050);
        let mut rng = Rng::new(5051);
        let order = |row: usize| row * 7 % 13;
        for _ in 0..10 {
            let probe = Hypervector::random(d, &mut rng);
            for (start, end) in [(0usize, 40usize), (5, 25), (30, 40), (12, 13), (20, 20)] {
                assert_eq!(
                    engine.nearest_quantized_by(&probe, 64, start, end, order),
                    naive_quantized(&rows, &probe, 64, start, end, order),
                    "range {start}..{end}"
                );
            }
            // Out-of-range end clamps; fully out-of-range start is None.
            assert_eq!(
                engine.nearest_quantized_by(&probe, 64, 0, 999, order),
                naive_quantized(&rows, &probe, 64, 0, 40, order)
            );
            assert!(engine.nearest_quantized_by(&probe, 64, 40, 45, order).is_none());
        }
    }

    #[test]
    fn ties_break_to_earliest_row() {
        let mut engine = BatchLookup::new(128);
        let hv = Hypervector::ones(128);
        engine.push(&hv).expect("dims");
        engine.push(&hv).expect("dims");
        let hit = engine.nearest_one(&hv).expect("non-empty");
        assert_eq!((hit.row, hit.distance), (0, 0));
    }

    #[test]
    fn rows_roundtrip() {
        let (engine, rows) = engine_with(9, 130, 11);
        assert_eq!(engine.len(), 9);
        for (i, hv) in rows.iter().enumerate() {
            assert_eq!(engine.row(i), hv.as_words());
        }
    }

    #[test]
    fn empty_engine_finds_nothing() {
        let engine = BatchLookup::new(64);
        let probe = Hypervector::zeros(64);
        assert!(engine.nearest_one(&probe).is_none());
        assert!(engine.is_empty());
        let mut out = vec![Some(Hit { row: 9, distance: 9 })];
        engine.nearest_batch_into(&[&probe], &mut out);
        assert_eq!(out, vec![None]);
    }

    #[test]
    fn push_rejects_wrong_dimension() {
        let mut engine = BatchLookup::new(64);
        assert!(engine.push(&Hypervector::zeros(65)).is_err());
        assert_eq!(engine.len(), 0);
        assert_eq!(engine.dimension(), 64);
    }

    #[test]
    fn retain_rows_compacts_in_place() {
        let (mut engine, rows) = engine_with(9, 130, 11);
        engine.retain_rows(|row| row % 3 != 1);
        assert_eq!(engine.len(), 6);
        let survivors: Vec<usize> = (0..9).filter(|r| r % 3 != 1).collect();
        for (new_row, &old_row) in survivors.iter().enumerate() {
            assert_eq!(engine.row(new_row), rows[old_row].as_words(), "row {old_row}");
        }
        // Scans agree with a freshly built engine over the survivors.
        let mut fresh = BatchLookup::new(130);
        for &old_row in &survivors {
            fresh.push(&rows[old_row]).expect("dims");
        }
        let mut rng = Rng::new(321);
        for _ in 0..10 {
            let probe = Hypervector::random(130, &mut rng);
            assert_eq!(engine.nearest_one(&probe), fresh.nearest_one(&probe));
        }
        // Dropping everything leaves an empty engine.
        engine.retain_rows(|_| false);
        assert!(engine.is_empty());
        assert_eq!(engine.matrix.len(), 0);
    }

    #[test]
    fn flip_bit_tracks_rows() {
        let (mut engine, rows) = engine_with(3, 130, 13);
        engine.flip_bit(2, 129);
        let mut expect = rows[2].clone();
        expect.flip_bit(129);
        assert_eq!(engine.row(2), expect.as_words());
    }
}
