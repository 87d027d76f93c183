//! Quality ablations for the design choices DESIGN.md calls out.
//!
//! Prints five studies:
//!
//! 1. **dimension** — HD robustness margin and mismatch rate vs `d`
//!    (justifies the ≥10k-bit default);
//! 2. **codebook** — HD uniformity (χ²) vs the codebook/server ratio;
//! 3. **vnodes** — consistent hashing χ² vs virtual-node count,
//!    contextualizing Figure 6;
//! 4. **replicas** — the same study for HD hashing via the weighted
//!    table (replicas are HD's virtual nodes);
//! 5. **bounded loads** — max/min load of plain vs bounded-load HD
//!    assignment across ε (paper reference \[13\] transferred to
//!    hyperspace).
//!
//! Usage: `ablation [lookups=20000] [servers=64] [seed=...]`

use hdhash_bench::Params;
use hdhash_core::{BoundedHdTable, HdConfig, HdHashTable, WeightedHdTable};
use hdhash_ring::ConsistentTable;
use hdhash_table::{Assignment, DynamicHashTable, NoisyTable, RequestKey, ServerId};

fn keys(lookups: usize, seed: u64) -> Vec<RequestKey> {
    let mut rng = hdhash_hashfn::SplitMix64::new(seed);
    (0..lookups).map(|_| RequestKey::new(rng.next_u64())).collect()
}

fn join_all<T: DynamicHashTable>(table: &mut T, servers: usize) {
    for i in 0..servers as u64 {
        table.join(ServerId::new(i)).expect("fresh server");
    }
}

fn chi_squared_of_loads(loads: &std::collections::HashMap<ServerId, usize>, servers: usize, lookups: usize) -> f64 {
    let mut counts = vec![0usize; servers];
    for (&s, &c) in loads {
        if (s.get() as usize) < servers {
            counts[s.get() as usize] = c;
        }
    }
    let expected = lookups as f64 / servers as f64;
    counts.iter().map(|&c| { let d = c as f64 - expected; d * d / expected }).sum()
}

fn main() {
    let params = Params::from_env();
    let lookups = params.get_usize("lookups", 20_000);
    let servers = params.get_usize("servers", 64);
    let seed = params.get_u64("seed", 0xAB1A);
    let workload = keys(lookups, seed);

    println!("# Ablation 1: dimension vs robustness (servers = {servers}, 10-bit bursts)");
    println!("dimension,quantum,tolerated_flips,mismatch_pct_at_10_flips");
    for d in [1_000usize, 2_000, 4_000, 10_000, 16_000] {
        let mut table = HdHashTable::builder()
            .dimension(d)
            .codebook_size(2 * servers)
            .seed(seed)
            .build()
            .expect("valid config");
        join_all(&mut table, servers);
        let quantum = table.config().quantum();
        let reference =
            Assignment::capture(&table, workload.iter().copied()).expect("non-empty");
        let mut mismatch = 0.0;
        let trials = 10;
        for t in 0..trials {
            table.inject_bit_flips(10, seed ^ t);
            let noisy =
                Assignment::capture(&table, workload.iter().copied()).expect("non-empty");
            mismatch += hdhash_table::remap_fraction(&reference, &noisy);
            table.clear_noise();
        }
        println!(
            "{d},{quantum},{},{:.4}",
            (quantum - 1) / 2,
            100.0 * mismatch / trials as f64
        );
    }

    println!();
    println!("# Ablation 2: codebook/server ratio vs uniformity (chi-squared, lower = flatter)");
    println!("ratio,codebook,chi_squared");
    for ratio in [2usize, 4, 8, 16, 32] {
        let mut table = HdHashTable::builder()
            .dimension(10_000)
            .codebook_size(ratio * servers)
            .seed(seed)
            .build()
            .expect("valid config");
        join_all(&mut table, servers);
        let loads = Assignment::capture(&table, workload.iter().copied())
            .expect("non-empty")
            .load_by_server();
        println!("{ratio},{},{:.2}", ratio * servers, chi_squared_of_loads(&loads, servers, lookups));
    }

    println!();
    println!("# Ablation 3: consistent hashing virtual nodes vs uniformity");
    println!("vnodes,chi_squared");
    for vnodes in [1usize, 4, 16, 64, 128] {
        let mut ring = ConsistentTable::with_vnodes(vnodes);
        join_all(&mut ring, servers);
        let loads = Assignment::capture(&ring, workload.iter().copied())
            .expect("non-empty")
            .load_by_server();
        println!("{vnodes},{:.2}", chi_squared_of_loads(&loads, servers, lookups));
    }

    println!();
    println!("# Ablation 4: HD hashing replicas (virtual nodes) vs uniformity");
    println!("replicas,chi_squared");
    for replicas in [1u32, 2, 4, 8, 16] {
        let codebook = (2 * servers * replicas as usize).next_power_of_two();
        let mut table = WeightedHdTable::with_config(
            HdConfig::builder()
                .dimension(10_000)
                .codebook_size(codebook)
                .seed(seed)
                .build_config()
                .expect("valid config"),
        );
        for i in 0..servers as u64 {
            table.join_weighted(ServerId::new(i), replicas).expect("fresh server");
        }
        let loads = Assignment::capture(&table, workload.iter().copied())
            .expect("non-empty")
            .load_by_server();
        println!("{replicas},{:.2}", chi_squared_of_loads(&loads, servers, lookups));
    }

    println!();
    println!("# Ablation 5: bounded-load HD assignment (epsilon vs max/min load)");
    println!("epsilon,max_load,min_load,cap");
    for &epsilon in &[0.05f64, 0.1, 0.25, 0.5, 1.0, 8.0] {
        let mut table = BoundedHdTable::with_config(
            HdConfig::builder()
                .dimension(10_000)
                .codebook_size(2 * servers)
                .seed(seed)
                .build_config()
                .expect("valid config"),
            epsilon,
        );
        for i in 0..servers as u64 {
            table.join(ServerId::new(i)).expect("fresh server");
        }
        for &k in &workload {
            table.assign(k).expect("non-empty pool");
        }
        let max = table.loads().values().copied().max().unwrap_or(0);
        let min = table.loads().values().copied().min().unwrap_or(0);
        println!("{epsilon},{max},{min},{}", table.capacity_per_server());
    }
}
