//! Microbenchmarks of the word-parallel HDC kernels and the batched
//! lookup engine against their bit-at-a-time / pointer-chasing seed
//! formulations.
//!
//! Run with `cargo bench -p hdhash-bench --bench lookup_engine`.
//!
//! The acceptance bar for the kernel rewrite: ≥10× on `bundle`
//! (n = 16, d = 10 000) and a measurable win on single-probe `nearest`
//! at 1 000 members. `cargo run --release -p hdhash-bench --bin
//! bench_lookup` emits the same comparisons as `BENCH_lookup.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hdhash_hdc::ops::{bundle, permute, reference};
use hdhash_hdc::{AssociativeMemory, BatchLookup, Hypervector, Rng, SearchStrategy};

fn bundle_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("bundle_16x10k");
    let mut rng = Rng::new(1);
    let inputs: Vec<Hypervector> =
        (0..16).map(|_| Hypervector::random(10_000, &mut rng)).collect();
    let refs: Vec<&Hypervector> = inputs.iter().collect();
    group.throughput(Throughput::Elements(16 * 10_000));
    group.bench_function("word_parallel", |b| {
        let mut rng = Rng::new(2);
        b.iter(|| bundle(&refs, &mut rng).expect("same dimension"));
    });
    group.bench_function("reference_bitwise", |b| {
        let mut rng = Rng::new(2);
        b.iter(|| reference::bundle(&refs, &mut rng).expect("same dimension"));
    });
    group.finish();
}

fn permute_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("permute_10k");
    let mut rng = Rng::new(3);
    let hv = Hypervector::random(10_000, &mut rng);
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("word_rotation", |b| {
        b.iter(|| permute(&hv, 4097));
    });
    group.bench_function("reference_bitwise", |b| {
        b.iter(|| reference::permute(&hv, 4097));
    });
    group.finish();
}

fn nearest_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("nearest_1k_members_10k_d");
    let mut rng = Rng::new(4);
    let members: Vec<Hypervector> =
        (0..1_000).map(|_| Hypervector::random(10_240, &mut rng)).collect();
    let probe = Hypervector::random(10_240, &mut rng);

    let mut engine = BatchLookup::new(10_240);
    for hv in &members {
        engine.push(hv).expect("same dimension");
    }
    let mut memory = AssociativeMemory::new(10_240);
    for (i, hv) in members.iter().enumerate() {
        memory.insert(i, hv.clone()).expect("same dimension");
    }
    let parallel = memory.clone().with_strategy(SearchStrategy::Parallel { threads: 8 });

    group.throughput(Throughput::Elements(1_000));
    group.bench_function("engine_early_exit", |b| {
        b.iter(|| engine.nearest_one(&probe));
    });
    group.bench_function("memory_serial", |b| {
        b.iter(|| memory.nearest(&probe));
    });
    group.bench_function("memory_parallel8", |b| {
        b.iter(|| parallel.nearest(&probe));
    });
    group.bench_function("seed_scan_full_metric", |b| {
        // The seed's formulation: pointer-chase the entries, evaluate the
        // full float metric per candidate, no early exit.
        b.iter(|| {
            members
                .iter()
                .enumerate()
                .map(|(i, hv)| {
                    (i, 1.0 - probe.hamming_distance(hv) as f64 / 10_240.0)
                })
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(b.0.cmp(&a.0)))
        });
    });
    group.finish();
}

criterion_group!(benches, bundle_kernels, permute_kernels, nearest_kernels);
criterion_main!(benches);
