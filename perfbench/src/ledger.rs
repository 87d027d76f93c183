//! Isolated replays of the served key stream through each layer's public
//! calls: the codebook, the table (reads and writes), the associative
//! memory, the distance kernel, shard snapshots and the histogram. Keys
//! are grouped by the shard that served them, at the group sizes the
//! worker was observed to serve. Every loop is one span.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use hdhash_core::HdHashTable;
use hdhash_hdc::{AssociativeMemory, Hypervector};
use hdhash_obs::LogHistogram;
use hdhash_serve::{ServeConfig, ServeEngine};
use hdhash_simdkernels::hamming_distance_words;
use hdhash_table::{DynamicHashTable, RequestKey, ServerId};

use crate::oracle::Answer;
use crate::spans::{Span, Spans};
use crate::stats::median;

/// Keys replayed per layer (spread over the shards as served).
const REPLAY_KEYS: usize = 4096;
/// Probes for the kernel loop, each against every member row.
const KERNEL_PROBES: usize = 512;
/// Repeats of each timed loop; the median is reported.
const REPS: usize = 5;

/// Per-layer costs from the replays.
#[derive(Debug, Default)]
pub struct Ledger {
    pub slot_ns: f64,
    pub lookup_ns: f64,
    pub lookup_batch_ns_per_key: f64,
    pub distinct_slots_per_key: f64,
    pub snapshot_lookup_batch_ns_per_key: f64,
    pub snapshots_ns: f64,
    pub nearest_quantized_ns: f64,
    pub rows_per_probe: f64,
    pub hamming_ns_per_row: f64,
    pub hist_record_ns: f64,
    pub join_us: f64,
    pub leave_us: f64,
    pub clone_us: f64,
    pub signature_us: f64,
    /// Replayed keys on which the memory's arg-max and the table disagree.
    pub disagreements: u64,
}

struct Timer<'s> {
    spans: &'s mut Spans,
    root: u32,
}

impl Timer<'_> {
    /// Runs `f` (which makes `calls` calls) `REPS` times, one span each;
    /// returns the median nanoseconds per call.
    fn per_call<F: FnMut() -> u64>(&mut self, name: &'static str, calls: usize, mut f: F) -> f64 {
        let mut per_call = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let start = Instant::now();
            black_box(f());
            let end = Instant::now();
            let calls32 = u32::try_from(calls).unwrap_or(u32::MAX);
            self.spans.push(Span {
                name,
                start,
                end,
                parent: self.root,
                request: 0,
                calls: calls32,
            });
            per_call.push((end - start).as_nanos() as f64 / calls.max(1) as f64);
        }
        median(&per_call)
    }

    /// Times one call, as one span; returns its result and microseconds.
    fn once<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = black_box(f());
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.root,
            request: 0,
            calls: 1,
        });
        (out, (end - start).as_secs_f64() * 1e6)
    }
}

fn replica_table(config: &ServeConfig, shard: usize, members: &[ServerId]) -> HdHashTable {
    let mut table = HdHashTable::builder()
        .dimension(config.dimension)
        .codebook_size(config.codebook_size)
        .seed(config.seed.wrapping_add(shard as u64))
        .engine_options(config.engine)
        .build()
        .expect("the engine was built with this geometry");
    for &m in members {
        table.join(m).expect("a published member joins once");
    }
    table
}

/// Replays the keys of `served` (answers of a measured phase) through each
/// layer. `open_group` and `sat_group` are the shard-group sizes observed
/// in the open-loop and saturation phases; `service_ns` feeds the
/// histogram.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    engine: &ServeEngine,
    config: &ServeConfig,
    keys: &[RequestKey],
    served: &[Answer],
    open_group: usize,
    sat_group: usize,
    service_ns: &[u64],
    spans: &mut Spans,
) -> Ledger {
    let started = Instant::now();
    let root = spans.push(Span {
        name: "replay",
        start: started,
        end: started,
        parent: 0,
        request: 0,
        calls: 0,
    });
    let mut timer = Timer { spans, root };
    let snapshots = engine.snapshots();
    let shards = snapshots.len();
    let tables: Vec<HdHashTable> = snapshots
        .iter()
        .map(|s| replica_table(config, s.shard, &s.members))
        .collect();
    let mut by_shard: Vec<Vec<RequestKey>> = vec![Vec::new(); shards];
    for a in served.iter().take(REPLAY_KEYS) {
        by_shard[usize::from(a.shard)].push(keys[a.key as usize]);
    }
    let total: usize = by_shard.iter().map(Vec::len).sum();
    let pairs = || by_shard.iter().zip(&tables);
    let mut ledger = Ledger {
        slot_ns: timer.per_call("codebook.slot_of_request", total, || {
            pairs()
                .flat_map(|(ks, t)| ks.iter().map(|&k| t.slot_of_request(k) as u64))
                .sum()
        }),
        lookup_ns: timer.per_call("table.lookup", total, || {
            pairs()
                .flat_map(|(ks, t)| ks.iter().map(|&k| t.lookup(k).map_or(0, ServerId::get)))
                .sum()
        }),
        lookup_batch_ns_per_key: timer.per_call("table.lookup_batch", total, || {
            pairs()
                .flat_map(|(ks, t)| ks.chunks(sat_group.max(1)).map(|g| t.lookup_batch(g).len()))
                .sum::<usize>() as u64
        }),
        snapshot_lookup_batch_ns_per_key: timer.per_call(
            "shard.snapshot_lookup_batch",
            total,
            || {
                by_shard
                    .iter()
                    .zip(&snapshots)
                    .flat_map(|(ks, s)| {
                        ks.chunks(open_group.max(1))
                            .map(|g| s.lookup_batch(g).len())
                    })
                    .sum::<usize>() as u64
            },
        ),
        ..Ledger::default()
    };
    let (mut distinct, mut grouped) = (0usize, 0usize);
    for (ks, t) in pairs() {
        for group in ks.chunks(sat_group.max(1)) {
            distinct += group
                .iter()
                .map(|&k| t.slot_of_request(k))
                .collect::<HashSet<_>>()
                .len();
            grouped += group.len();
        }
    }
    ledger.distinct_slots_per_key = distinct as f64 / grouped.max(1) as f64;
    ledger.snapshots_ns = timer.per_call("ServeEngine::snapshots", 2000, || {
        (0..2000).map(|_| engine.snapshots().len() as u64).sum()
    });

    // The associative memory and the kernel, fed the rows the table stores:
    // each member's codebook vector, in join order.
    let memories: Vec<AssociativeMemory<ServerId>> = snapshots
        .iter()
        .zip(&tables)
        .map(|(s, t)| {
            let mut memory =
                AssociativeMemory::with_engine_options(config.dimension, config.engine);
            for &m in &s.members {
                let slot = t.slot_of_server(m).expect("joined");
                memory
                    .insert(m, t.codebook().hypervector(slot).clone())
                    .expect("same dimension");
            }
            memory
        })
        .collect();
    let probes: Vec<(usize, &Hypervector)> = by_shard
        .iter()
        .enumerate()
        .flat_map(|(i, ks)| {
            let t = &tables[i];
            ks.iter()
                .map(move |&k| (i, t.codebook().hypervector(t.slot_of_request(k))))
        })
        .collect();
    let quantum = tables[0].config().quantum();
    ledger.nearest_quantized_ns = timer.per_call(
        "AssociativeMemory::nearest_quantized_by",
        probes.len(),
        || {
            probes
                .iter()
                .map(|&(i, p)| {
                    memories[i]
                        .nearest_quantized_by(p, quantum, |s| s.get())
                        .map_or(0, ServerId::get)
                })
                .sum()
        },
    );
    ledger.rows_per_probe = probes
        .iter()
        .map(|&(i, _)| memories[i].len())
        .sum::<usize>() as f64
        / probes.len().max(1) as f64;
    for ((ks, t), memory) in pairs().zip(&memories) {
        for &k in ks {
            let probe = t.codebook().hypervector(t.slot_of_request(k));
            if memory.nearest_quantized_by(probe, quantum, |s| s.get()) != t.lookup(k).ok() {
                ledger.disagreements += 1;
            }
        }
    }
    let rows: Vec<Vec<&[u64]>> = memories
        .iter()
        .map(|m| m.iter().map(|(_, hv)| hv.as_words()).collect())
        .collect();
    let kernel_probes = &probes[..probes.len().min(KERNEL_PROBES)];
    let row_visits: usize = kernel_probes.iter().map(|&(i, _)| rows[i].len()).sum();
    ledger.hamming_ns_per_row = timer.per_call("hamming_distance_words", row_visits, || {
        kernel_probes
            .iter()
            .flat_map(|&(i, p)| {
                rows[i]
                    .iter()
                    .map(move |r| hamming_distance_words(p.as_words(), r))
            })
            .sum::<usize>() as u64
    });

    let histogram = LogHistogram::new();
    ledger.hist_record_ns = timer.per_call("LogHistogram::record", service_ns.len(), || {
        for &v in service_ns {
            histogram.record(v);
        }
        histogram.count()
    });

    // Writes, on replicas of the published tables.
    let mut clone_us = Vec::new();
    let mut signature_us = Vec::new();
    let mut join_us = Vec::new();
    let mut leave_us = Vec::new();
    for (s, t) in snapshots.iter().zip(&tables) {
        for _ in 0..REPS {
            let (copy, us) = timer.once("HdHashTable::clone", || t.clone());
            clone_us.push(us);
            drop(copy);
            signature_us.push(
                timer
                    .once("membership_signature", || t.membership_signature())
                    .1,
            );
        }
        let mut table = t.clone();
        let step = (s.members.len() / 8).max(1);
        for &m in s.members.iter().step_by(step) {
            let (left, us) = timer.once("HdHashTable::leave", || table.leave(m));
            left.expect("published member");
            leave_us.push(us);
            let (joined, us) = timer.once("HdHashTable::join", || table.join(m));
            joined.expect("just left");
            join_us.push(us);
        }
    }
    ledger.clone_us = median(&clone_us);
    ledger.signature_us = median(&signature_us);
    ledger.join_us = median(&join_us);
    ledger.leave_us = median(&leave_us);
    timer.spans.close(root, Instant::now());
    ledger
}
