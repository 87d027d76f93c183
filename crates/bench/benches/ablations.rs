//! Timing ablations for DESIGN.md's design choices: the lookup cost of
//! dimension, codebook size and search strategy.
//!
//! Run with `cargo bench -p hdhash-bench --bench ablations`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdhash_core::HdHashTable;
use hdhash_hdc::SearchStrategy;
use hdhash_table::{DynamicHashTable, RequestKey, ServerId};

fn build(dimension: usize, codebook: usize, servers: u64) -> HdHashTable {
    let mut table = HdHashTable::builder()
        .dimension(dimension)
        .codebook_size(codebook)
        .seed(5)
        .build()
        .expect("valid config");
    for i in 0..servers {
        table.join(ServerId::new(i)).expect("fresh server");
    }
    table
}

fn dimension_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_dimension");
    for &d in &[1_000usize, 4_000, 10_000, 16_000] {
        let table = build(d, 256, 64);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            let mut key = 0u64;
            b.iter(|| {
                key = key.wrapping_add(1);
                table.lookup(RequestKey::new(key)).expect("non-empty pool")
            });
        });
    }
    group.finish();
}

fn codebook_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_codebook");
    for &n in &[128usize, 512, 2048] {
        let table = build(10_000, n, 64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut key = 0u64;
            b.iter(|| {
                key = key.wrapping_add(1);
                table.lookup(RequestKey::new(key)).expect("non-empty pool")
            });
        });
    }
    group.finish();
}

fn parallel_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_parallel");
    for (name, search) in [
        ("serial", SearchStrategy::Serial),
        ("threads4", SearchStrategy::Parallel { threads: 4 }),
        ("threads8", SearchStrategy::Parallel { threads: 8 }),
    ] {
        // Use the literal Algorithm 1 construction so lookups exercise the
        // configurable search strategy (the quantized path is serial).
        let mut table = HdHashTable::builder()
            .dimension(10_000)
            .codebook_size(2048)
            .flip_strategy(hdhash_hdc::basis::FlipStrategy::Independent { flips_per_step: 5 })
            .search(search)
            .seed(5)
            .build()
            .expect("valid config");
        for i in 0..1024 {
            table.join(ServerId::new(i)).expect("fresh server");
        }
        group.bench_function(name, |b| {
            let mut key = 0u64;
            b.iter(|| {
                key = key.wrapping_add(1);
                table.lookup(RequestKey::new(key)).expect("non-empty pool")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, dimension_cost, codebook_cost, parallel_cost);
criterion_main!(benches);
