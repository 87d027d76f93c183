//! Associative memory: HDC *inference* (Eq. 2 of the paper).
//!
//! An associative memory stores keyed hypervectors and answers
//! nearest-neighbour queries: given a probe hypervector, return the stored
//! key whose hypervector maximizes the similarity. This is the
//! operation Schmuck et al. show can be executed in a single clock cycle on
//! HDC accelerator hardware; on a CPU we provide two paths:
//!
//! * [`SearchStrategy::Serial`] — one thread scanning all entries;
//! * [`SearchStrategy::Parallel`] — the paper's *GPU substitute*:
//!   `crossbeam` scoped threads scanning disjoint shards of the memory
//!   (documented in DESIGN.md as the substitution for the TITAN Xp).
//!
//! Both paths run on the [`BatchLookup`] engine: member hypervectors live
//! in one contiguous row-major word matrix (no per-entry pointer chase),
//! which is the only copy of each stored row — the memory keeps the keys
//! beside it, key `i` owning row `i`. Every query is one early-abandon
//! sweep over integer Hamming distances (a row is dropped once it exceeds
//! the best so far), and the float similarity is computed once, for the
//! winner. The parallel path reuses a precomputed shard plan — rebuilt
//! when membership changes, not re-derived per query. Scores are
//! [`SimilarityMetric::InverseHamming`]; every [`SimilarityMetric`] is
//! monotone decreasing in Hamming distance, so the distance argmin *is*
//! the similarity argmax under any of them, ties (earliest insert)
//! included, and a metric choice could not change a single answer.

use crate::batch::{BatchLookup, Hit};
use crate::hypervector::{DimensionMismatchError, Hypervector};
use crate::similarity::SimilarityMetric;

/// How nearest-neighbour queries scan the memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchStrategy {
    /// Single-threaded scan.
    #[default]
    Serial,
    /// Multi-threaded scan over `threads` shards (the GPU substitute).
    Parallel {
        /// Number of worker threads (clamped to at least 1).
        threads: usize,
    },
}

/// Scan-engine options accepted by
/// [`AssociativeMemory::with_engine_options`].
///
/// The engine has one matrix layout and one scan, so there is nothing to
/// choose: the type has no fields and every constructor that takes it
/// ignores it. It remains so callers written against the options-taking
/// constructors (`HdConfigBuilder::engine_options` and
/// `ServeConfig::engine` in the table and serving crates) keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EngineOptions;

/// One stored row, borrowed from the memory's word matrix (the only copy
/// of an entry's hypervector), as [`AssociativeMemory::iter`] yields it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row<'a> {
    words: &'a [u64],
}

impl<'a> Row<'a> {
    /// The row's packed words, laid out as [`Hypervector::as_words`].
    #[must_use]
    pub fn as_words(&self) -> &'a [u64] {
        self.words
    }
}

/// A single stored match returned by a query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Match<K> {
    /// The stored key.
    pub key: K,
    /// The similarity score,
    /// [`SimilarityMetric::InverseHamming`] of the probe and the stored
    /// hypervector.
    pub similarity: f64,
}

/// An associative memory over keys of type `K`.
///
/// # Examples
///
/// ```
/// use hdhash_hdc::{AssociativeMemory, Hypervector, Rng};
///
/// let mut rng = Rng::new(11);
/// let mut memory = AssociativeMemory::new(10_000);
/// let a = Hypervector::random(10_000, &mut rng);
/// let b = Hypervector::random(10_000, &mut rng);
/// memory.insert("a", a.clone())?;
/// memory.insert("b", b)?;
/// let hit = memory.nearest(&a).expect("non-empty memory");
/// assert_eq!(hit.key, "a");
/// # Ok::<(), hdhash_hdc::DimensionMismatchError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AssociativeMemory<K> {
    dimension: usize,
    strategy: SearchStrategy,
    /// Keys in insertion order; key `i` owns row `i` of `engine`.
    keys: Vec<K>,
    /// The stored hypervectors, one row per key: the only copy.
    engine: BatchLookup,
    /// Precomputed `[start, end)` row ranges for the parallel path,
    /// rebuilt on membership or strategy change.
    shard_plan: Vec<(usize, usize)>,
}

impl<K: Clone + Send + Sync> AssociativeMemory<K> {
    /// Creates an empty memory for hypervectors of dimension `d` using
    /// serial search.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn new(d: usize) -> Self {
        assert!(d > 0, "dimension must be positive");
        Self {
            dimension: d,
            strategy: SearchStrategy::default(),
            keys: Vec::new(),
            engine: BatchLookup::new(d),
            shard_plan: Vec::new(),
        }
    }

    /// The same as [`new`](Self::new): [`EngineOptions`] has nothing to
    /// set.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn with_engine_options(d: usize, _options: EngineOptions) -> Self {
        Self::new(d)
    }

    /// Sets the search strategy (builder style).
    #[must_use]
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self.rebuild_shard_plan();
        self
    }

    /// The hypervector dimension this memory accepts.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// Number of stored entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the memory is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Stores an entry: the hypervector's words are copied into the row
    /// matrix.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] if the hypervector dimension does
    /// not match the memory.
    pub fn insert(&mut self, key: K, hv: Hypervector) -> Result<(), DimensionMismatchError> {
        self.engine.push(&hv)?;
        self.keys.push(key);
        self.rebuild_shard_plan();
        Ok(())
    }

    /// Removes all entries whose key satisfies the predicate; returns how
    /// many were removed.
    ///
    /// One forward pass compacts the keys and the row matrix together, in
    /// place and without reallocating ([`BatchLookup::retain_rows`]) —
    /// removing one server from a large memory never re-reads every stored
    /// hypervector.
    pub fn remove_where<F: FnMut(&K) -> bool>(&mut self, mut predicate: F) -> usize {
        let before = self.keys.len();
        let keys = &mut self.keys;
        let mut kept = 0;
        // `retain_rows` asks once per row, in row order, so each surviving
        // key moves down to the row its words move to.
        self.engine.retain_rows(|row| {
            let keep = !predicate(&keys[row]);
            if keep {
                keys.swap(kept, row);
                kept += 1;
            }
            keep
        });
        keys.truncate(kept);
        if kept < before {
            self.rebuild_shard_plan();
        }
        before - kept
    }

    /// Iterates over the stored entries in insertion order, each key with
    /// a view of its row.
    pub fn iter(&self) -> impl Iterator<Item = (&K, Row<'_>)> {
        self.keys
            .iter()
            .enumerate()
            .map(|(i, key)| (key, Row { words: self.engine.row(i) }))
    }

    /// Flips one bit of entry `index` (fault injection) in its stored row.
    ///
    /// # Panics
    ///
    /// Panics if `index` or `bit` is out of range.
    pub(crate) fn flip_entry_bit(&mut self, index: usize, bit: usize) {
        self.engine.flip_bit(index, bit);
    }

    /// Returns the entry whose hypervector is most similar to `probe`
    /// (Eq. 2: `argmax_s δ(Enc(s), Enc(r))`), or `None` if empty.
    ///
    /// Ties are broken toward the earliest-inserted entry, making the
    /// operation deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `probe` has the wrong dimension.
    #[must_use]
    pub fn nearest(&self, probe: &Hypervector) -> Option<Match<K>> {
        assert_eq!(probe.dimension(), self.dimension, "probe dimension mismatch");
        let hit = match self.strategy {
            SearchStrategy::Serial => self.engine.nearest_one(probe),
            SearchStrategy::Parallel { .. } => self.nearest_parallel(probe),
        }?;
        Some(self.hit_to_match(hit))
    }

    /// Resolves a whole probe batch, one sweep per probe; result `i`
    /// matches `nearest(probes[i])` exactly.
    ///
    /// Under [`SearchStrategy::Parallel`] the *probes* are sharded across
    /// the worker threads (each worker sweeps the full matrix per probe),
    /// which preserves per-probe determinism.
    ///
    /// # Panics
    ///
    /// Panics if any probe has the wrong dimension.
    #[must_use]
    pub fn nearest_batch(&self, probes: &[&Hypervector]) -> Vec<Option<Match<K>>> {
        let mut hits = Vec::new();
        match self.strategy {
            SearchStrategy::Serial => self.engine.nearest_batch_into(probes, &mut hits),
            SearchStrategy::Parallel { threads } => {
                let threads = threads.max(1).min(probes.len().max(1));
                let shard = probes.len().div_ceil(threads);
                if probes.len() <= shard {
                    self.engine.nearest_batch_into(probes, &mut hits);
                } else {
                    let mut shards: Vec<Vec<Option<Hit>>> =
                        vec![Vec::new(); probes.len().div_ceil(shard)];
                    crossbeam::thread::scope(|scope| {
                        for (chunk, slot) in probes.chunks(shard).zip(shards.iter_mut()) {
                            let engine = &self.engine;
                            scope.spawn(move |_| {
                                engine.nearest_batch_into(chunk, slot);
                            });
                        }
                    })
                    .expect("similarity workers do not panic");
                    hits = shards.into_iter().flatten().collect();
                }
            }
        }
        hits.into_iter().map(|h| h.map(|hit| self.hit_to_match(hit))).collect()
    }

    /// The quantized arg-max of `hdhash-core`'s partitioned codebook:
    /// distances are rounded to the grid `quantum` (`q = ⌊(dist + c/2)/c⌋`)
    /// and the minimum is taken over `(q, order(key))` — a deterministic,
    /// membership-order-independent tie-break.
    ///
    /// Early exit: once a best `q` is known, any candidate whose partial
    /// distance already exceeds the largest distance mapping to `q` is
    /// abandoned mid-scan.
    ///
    /// # Panics
    ///
    /// Panics if `probe` has the wrong dimension or `quantum == 0`.
    #[must_use]
    pub fn nearest_quantized_by<O, F>(
        &self,
        probe: &Hypervector,
        quantum: usize,
        order: F,
    ) -> Option<K>
    where
        O: Ord + Send,
        F: Fn(&K) -> O + Sync,
    {
        assert_eq!(probe.dimension(), self.dimension, "probe dimension mismatch");
        assert!(quantum > 0, "quantum must be positive");
        if self.keys.is_empty() {
            return None;
        }
        match self.strategy {
            SearchStrategy::Serial => self
                .quantized_in_range(probe, quantum, &order, 0, self.keys.len())
                .map(|(_, _, row)| self.keys[row].clone()),
            SearchStrategy::Parallel { .. } => {
                let mut results: Vec<Option<(usize, O, usize)>> =
                    (0..self.shard_plan.len()).map(|_| None).collect();
                crossbeam::thread::scope(|scope| {
                    for (&(start, end), slot) in
                        self.shard_plan.iter().zip(results.iter_mut())
                    {
                        let order = &order;
                        let this = &*self;
                        scope.spawn(move |_| {
                            *slot = this.quantized_in_range(probe, quantum, order, start, end);
                        });
                    }
                })
                .expect("similarity workers do not panic");
                results
                    .into_iter()
                    .flatten()
                    .min_by(|a, b| (a.0, &a.1, a.2).cmp(&(b.0, &b.1, b.2)))
                    .map(|(_, _, row)| self.keys[row].clone())
            }
        }
    }

    /// Batched form of [`nearest_quantized_by`](Self::nearest_quantized_by):
    /// result `i` matches the single-probe call for `probes[i]` exactly.
    ///
    /// Under [`SearchStrategy::Parallel`] the *probes* are sharded across
    /// one thread scope (each worker scanning the full matrix serially per
    /// probe) — batch callers like `hdhash-core`'s slot-deduplicated
    /// `lookup_batch` get one scope per batch instead of one per probe.
    ///
    /// # Panics
    ///
    /// Panics if any probe has the wrong dimension or `quantum == 0`.
    #[must_use]
    pub fn nearest_quantized_batch_by<O, F>(
        &self,
        probes: &[&Hypervector],
        quantum: usize,
        order: F,
    ) -> Vec<Option<K>>
    where
        O: Ord + Send,
        F: Fn(&K) -> O + Sync,
    {
        for probe in probes {
            assert_eq!(probe.dimension(), self.dimension, "probe dimension mismatch");
        }
        assert!(quantum > 0, "quantum must be positive");
        if self.keys.is_empty() {
            return probes.iter().map(|_| None).collect();
        }
        let resolve = |probe: &Hypervector| {
            self.quantized_in_range(probe, quantum, &order, 0, self.keys.len())
                .map(|(_, _, row)| self.keys[row].clone())
        };
        match self.strategy {
            SearchStrategy::Serial => probes.iter().map(|p| resolve(p)).collect(),
            SearchStrategy::Parallel { threads } => {
                let threads = threads.max(1).min(probes.len().max(1));
                let shard = probes.len().div_ceil(threads);
                if probes.len() <= shard {
                    return probes.iter().map(|p| resolve(p)).collect();
                }
                let mut shards: Vec<Vec<Option<K>>> =
                    vec![Vec::new(); probes.len().div_ceil(shard)];
                crossbeam::thread::scope(|scope| {
                    for (chunk, slot) in probes.chunks(shard).zip(shards.iter_mut()) {
                        let resolve = &resolve;
                        scope.spawn(move |_| {
                            *slot = chunk.iter().map(|p| resolve(p)).collect();
                        });
                    }
                })
                .expect("similarity workers do not panic");
                shards.into_iter().flatten().collect()
            }
        }
    }

    /// Quantized scan over one row range; returns `(q, order(key), row)`
    /// through [`BatchLookup::nearest_quantized_by`], the same sweep as the
    /// plain argmin with a quantum-aware bound.
    fn quantized_in_range<O: Ord, F: Fn(&K) -> O>(
        &self,
        probe: &Hypervector,
        quantum: usize,
        order: &F,
        start: usize,
        end: usize,
    ) -> Option<(usize, O, usize)> {
        self.engine.nearest_quantized_by(probe, quantum, start, end, |row| order(&self.keys[row]))
    }

    fn hit_to_match(&self, hit: Hit) -> Match<K> {
        Match {
            key: self.keys[hit.row].clone(),
            similarity: SimilarityMetric::InverseHamming
                .score_from_distance(hit.distance, self.dimension),
        }
    }

    /// Parallel single-probe scan over the precomputed shard plan: each
    /// worker prunes within its shard; the global winner is the
    /// `(distance, row)` minimum of the shard winners — identical to the
    /// serial result, tie-break included.
    fn nearest_parallel(&self, probe: &Hypervector) -> Option<Hit> {
        if self.keys.is_empty() {
            return None;
        }
        if self.shard_plan.len() == 1 {
            return self.engine.nearest_one(probe);
        }
        let mut results: Vec<Option<Hit>> = vec![None; self.shard_plan.len()];
        crossbeam::thread::scope(|scope| {
            for (&(start, end), slot) in self.shard_plan.iter().zip(results.iter_mut()) {
                let engine = &self.engine;
                scope.spawn(move |_| {
                    *slot = engine.nearest_in_range(probe, start, end);
                });
            }
        })
        .expect("similarity workers do not panic");
        results.into_iter().flatten().min_by_key(|h| (h.distance, h.row))
    }

    /// Rebuilds the `[start, end)` shard ranges for the current strategy
    /// and membership (the plan the parallel path reuses on every query).
    fn rebuild_shard_plan(&mut self) {
        self.shard_plan.clear();
        let threads = match self.strategy {
            SearchStrategy::Serial => 1,
            SearchStrategy::Parallel { threads } => threads.max(1),
        };
        let n = self.keys.len();
        if n == 0 {
            return;
        }
        let shard = n.div_ceil(threads);
        let mut start = 0;
        while start < n {
            let end = (start + shard).min(n);
            self.shard_plan.push((start, end));
            start = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn filled_memory(n: usize, d: usize, seed: u64) -> (AssociativeMemory<usize>, Vec<Hypervector>) {
        let mut rng = Rng::new(seed);
        let mut mem = AssociativeMemory::new(d);
        let mut hvs = Vec::new();
        for i in 0..n {
            let hv = Hypervector::random(d, &mut rng);
            mem.insert(i, hv.clone()).expect("dims");
            hvs.push(hv);
        }
        (mem, hvs)
    }

    fn stored(row: Row<'_>, d: usize) -> Hypervector {
        Hypervector::from_words(d, row.as_words().to_vec())
    }

    #[test]
    fn exact_probe_finds_itself() {
        let (mem, hvs) = filled_memory(50, 4096, 90);
        for (i, hv) in hvs.iter().enumerate() {
            assert_eq!(mem.nearest(hv).expect("non-empty").key, i);
        }
    }

    #[test]
    fn noisy_probe_still_finds_owner() {
        let (mem, hvs) = filled_memory(50, 10_000, 91);
        let mut rng = Rng::new(1234);
        // Even 2000 of 10000 bits flipped leaves the owner the clear winner.
        for (i, hv) in hvs.iter().enumerate().take(10) {
            let mut noisy = hv.clone();
            noisy.flip_bits(rng.distinct_indices(2000, 10_000));
            assert_eq!(mem.nearest(&noisy).expect("non-empty").key, i);
        }
    }

    #[test]
    fn empty_memory_returns_none() {
        let mem: AssociativeMemory<u32> = AssociativeMemory::new(64);
        let probe = Hypervector::zeros(64);
        assert!(mem.nearest(&probe).is_none());
        assert!(mem.is_empty());
    }

    #[test]
    fn parallel_matches_serial() {
        let (mem, _) = filled_memory(101, 2048, 92);
        let mut rng = Rng::new(5);
        for threads in [1usize, 2, 3, 8, 200] {
            let par = mem.clone().with_strategy(SearchStrategy::Parallel { threads });
            for _ in 0..20 {
                let probe = Hypervector::random(2048, &mut rng);
                let a = mem.nearest(&probe).expect("non-empty");
                let b = par.nearest(&probe).expect("non-empty");
                assert_eq!(a.key, b.key, "threads={threads}");
                assert!((a.similarity - b.similarity).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn batch_matches_single_probe_over_strategies() {
        let (mem, _) = filled_memory(60, 1024, 96);
        let mut rng = Rng::new(55);
        let probes: Vec<Hypervector> =
            (0..33).map(|_| Hypervector::random(1024, &mut rng)).collect();
        let refs: Vec<&Hypervector> = probes.iter().collect();
        for threads in [1usize, 3, 7] {
            let par = mem.clone().with_strategy(SearchStrategy::Parallel { threads });
            for m in [&mem, &par] {
                let batch = m.nearest_batch(&refs);
                assert_eq!(batch.len(), probes.len());
                for (probe, got) in probes.iter().zip(&batch) {
                    let single = m.nearest(probe).expect("non-empty");
                    let got = got.as_ref().expect("non-empty");
                    assert_eq!(got.key, single.key);
                    assert!((got.similarity - single.similarity).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn tie_break_is_first_inserted() {
        let mut mem = AssociativeMemory::new(128);
        let hv = Hypervector::ones(128);
        mem.insert("first", hv.clone()).expect("dims");
        mem.insert("second", hv.clone()).expect("dims");
        assert_eq!(mem.nearest(&hv).expect("non-empty").key, "first");
        let par = mem.clone().with_strategy(SearchStrategy::Parallel { threads: 2 });
        assert_eq!(par.nearest(&hv).expect("non-empty").key, "first");
    }

    #[test]
    fn quantized_argmax_matches_exhaustive() {
        let (mem, _) = filled_memory(40, 4096, 98);
        let mut rng = Rng::new(41);
        for threads in [0usize, 1, 4] {
            let m = if threads == 0 {
                mem.clone()
            } else {
                mem.clone().with_strategy(SearchStrategy::Parallel { threads })
            };
            for quantum in [32usize, 64] {
                for _ in 0..10 {
                    let probe = Hypervector::random(4096, &mut rng);
                    let got = m
                        .nearest_quantized_by(&probe, quantum, |&k| k)
                        .expect("non-empty");
                    let want = m
                        .iter()
                        .map(|(&k, row)| {
                            let d = probe.hamming_distance(&stored(row, 4096));
                            ((d + quantum / 2) / quantum, k)
                        })
                        .min()
                        .map(|(_, k)| k)
                        .expect("non-empty");
                    assert_eq!(got, want, "threads={threads} quantum={quantum}");
                }
            }
        }
    }

    #[test]
    fn quantized_batch_matches_single_probe() {
        let (mem, _) = filled_memory(30, 2048, 101);
        let mut rng = Rng::new(11);
        let probes: Vec<Hypervector> =
            (0..17).map(|_| Hypervector::random(2048, &mut rng)).collect();
        let refs: Vec<&Hypervector> = probes.iter().collect();
        for threads in [0usize, 2, 5] {
            let m = if threads == 0 {
                mem.clone()
            } else {
                mem.clone().with_strategy(SearchStrategy::Parallel { threads })
            };
            let batch = m.nearest_quantized_batch_by(&refs, 32, |&k| k);
            assert_eq!(batch.len(), probes.len());
            for (probe, got) in probes.iter().zip(batch) {
                assert_eq!(
                    got,
                    m.nearest_quantized_by(probe, 32, |&k| k),
                    "threads={threads}"
                );
            }
        }
        let empty: AssociativeMemory<usize> = AssociativeMemory::new(2048);
        assert_eq!(empty.nearest_quantized_batch_by(&refs, 32, |&k| k), vec![None; 17]);
    }

    #[test]
    fn insert_wrong_dimension_errors() {
        let mut mem = AssociativeMemory::new(100);
        let hv = Hypervector::zeros(101);
        assert!(mem.insert(0usize, hv).is_err());
    }

    #[test]
    fn remove_where_removes() {
        let (mut mem, hvs) = filled_memory(10, 256, 94);
        let removed = mem.remove_where(|&k| k % 2 == 0);
        assert_eq!(removed, 5);
        assert_eq!(mem.len(), 5);
        assert!(mem.iter().all(|(k, _)| k % 2 == 1));
        // The row matrix compacted in step with the keys.
        assert!(mem.iter().all(|(&k, row)| row.as_words() == hvs[k].as_words()));
        assert_eq!(mem.nearest(&hvs[3]).expect("non-empty").key, 3);
        assert_eq!(mem.nearest(&hvs[9]).expect("non-empty").key, 9);
    }

    #[test]
    #[should_panic(expected = "probe dimension mismatch")]
    fn probe_dimension_mismatch_panics() {
        let (mem, _) = filled_memory(3, 128, 95);
        let probe = Hypervector::zeros(64);
        let _ = mem.nearest(&probe);
    }

    #[test]
    fn similarity_scores_match_metric_evaluate() {
        let (mem, _) = filled_memory(20, 1000, 99);
        let parallel = mem.clone().with_strategy(SearchStrategy::Parallel { threads: 3 });
        let mut rng = Rng::new(7);
        for _ in 0..10 {
            let probe = Hypervector::random(1000, &mut rng);
            for m in [&mem, &parallel] {
                let hit = m.nearest(&probe).expect("non-empty");
                let winner = m
                    .iter()
                    .find(|(&k, _)| k == hit.key)
                    .map(|(_, row)| stored(row, 1000))
                    .expect("winner stored");
                assert_eq!(
                    hit.similarity,
                    SimilarityMetric::InverseHamming.evaluate(&probe, &winner)
                );
            }
        }
    }
}
