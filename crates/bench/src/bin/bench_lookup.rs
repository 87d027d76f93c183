//! Emits `BENCH_lookup.json`: wall-clock comparisons of the word-parallel
//! HDC kernels and the batched lookup engine against the seed's
//! bit-at-a-time / pointer-chasing formulations.
//!
//! ```text
//! cargo run --release -p hdhash-bench --bin bench_lookup
//! cargo run --release -p hdhash-bench --bin bench_lookup -- out=/tmp/B.json samples=30
//! ```
//!
//! The JSON's `comparisons` list is flat — each entry has the baseline
//! and optimized median ns/op and the speedup factor — so successive
//! changes can track the perf trajectory with a stable schema. On top of
//! that the report carries a `machine` stamp (dispatched kernel tier, host
//! ISA, cores). Re-run under `HDHASH_FORCE_SCALAR=1` for the scalar-tier
//! trajectory — the stamp names the tier that ran.

use std::time::Instant;

use hdhash_bench::{machine_stamp, Params};
use hdhash_core::HdHashTable;
use hdhash_hdc::maintenance::MembershipCentroid;
use hdhash_hdc::ops::{bundle, permute, reference, MajorityBundler};
use hdhash_hdc::{AssociativeMemory, BatchLookup, Hypervector, Rng};
use hdhash_table::{DynamicHashTable, RequestKey, ServerId};

/// Median ns/op over `samples` timed runs of `op` (each run amortized over
/// `iters` calls).
fn median_ns<F: FnMut()>(samples: usize, iters: usize, mut op: F) -> f64 {
    // One untimed warm-up run.
    op();
    let mut times: Vec<f64> = (0..samples.max(3))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                op();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

struct Comparison {
    name: &'static str,
    baseline: &'static str,
    optimized: &'static str,
    baseline_ns: f64,
    optimized_ns: f64,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.baseline_ns / self.optimized_ns
    }
}

fn main() {
    let params = Params::from_env();
    let samples = params.get_usize("samples", 15);
    let out_path = std::env::args()
        .skip(1)
        .find_map(|a| a.strip_prefix("out=").map(str::to_owned))
        .unwrap_or_else(|| "BENCH_lookup.json".to_owned());

    let mut comparisons: Vec<Comparison> = Vec::new();

    // --- bundle: n = 16, d = 10_000 (the acceptance-criteria case) ------
    let mut rng = Rng::new(1);
    let inputs: Vec<Hypervector> =
        (0..16).map(|_| Hypervector::random(10_000, &mut rng)).collect();
    let refs: Vec<&Hypervector> = inputs.iter().collect();
    let naive = median_ns(samples, 2, || {
        let mut r = Rng::new(2);
        std::hint::black_box(reference::bundle(&refs, &mut r).expect("dims"));
    });
    let fast = median_ns(samples, 50, || {
        let mut r = Rng::new(2);
        std::hint::black_box(bundle(&refs, &mut r).expect("dims"));
    });
    comparisons.push(Comparison {
        name: "bundle_n16_d10000",
        baseline: "per-bit majority count",
        optimized: "bit-sliced carry-save counter network",
        baseline_ns: naive,
        optimized_ns: fast,
    });

    // --- permute: d = 10_000, odd shift ---------------------------------
    let hv = Hypervector::random(10_000, &mut rng);
    let naive = median_ns(samples, 10, || {
        std::hint::black_box(reference::permute(&hv, 4097));
    });
    let fast = median_ns(samples, 200, || {
        std::hint::black_box(permute(&hv, 4097));
    });
    comparisons.push(Comparison {
        name: "permute_d10000",
        baseline: "per-bit rotation",
        optimized: "word-level rotation with carry",
        baseline_ns: naive,
        optimized_ns: fast,
    });

    // --- single-probe nearest: 1_000 members, d = 10_240 ----------------
    let d = 10_240;
    let members: Vec<Hypervector> =
        (0..1_000).map(|_| Hypervector::random(d, &mut rng)).collect();
    let mut memory = AssociativeMemory::new(d);
    let mut engine = BatchLookup::new(d);
    for (i, hv) in members.iter().enumerate() {
        engine.push(hv).expect("dims");
        memory.insert(i, hv.clone()).expect("dims");
    }
    let seed_scan = |probe: &Hypervector| {
        // The seed path: pointer-chase entries, full float metric each.
        members
            .iter()
            .enumerate()
            .map(|(i, hv)| (i, 1.0 - probe.hamming_distance(hv) as f64 / d as f64))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(b.0.cmp(&a.0)))
    };

    // The representative inference probe: a corrupted copy of a member
    // (every HDC lookup has a near match — that is the memory's contract).
    let mut noisy_probe = members[500].clone();
    noisy_probe.flip_bits(rng.distinct_indices(500, d));
    let naive = median_ns(samples, 20, || {
        std::hint::black_box(seed_scan(&noisy_probe));
    });
    let fast = median_ns(samples, 20, || {
        std::hint::black_box(engine.nearest_one(&noisy_probe));
    });
    comparisons.push(Comparison {
        name: "nearest_1000_members_d10240_noisy_probe",
        baseline: "entry-chasing full-metric scan",
        optimized: "early-abandon matrix sweep",
        baseline_ns: naive,
        optimized_ns: fast,
    });

    // Adversarial case: a uniformly random probe (no near match), where
    // abandonment has the least to work with.
    let random_probe = Hypervector::random(d, &mut rng);
    let naive = median_ns(samples, 20, || {
        std::hint::black_box(seed_scan(&random_probe));
    });
    let fast = median_ns(samples, 20, || {
        std::hint::black_box(engine.nearest_one(&random_probe));
    });
    comparisons.push(Comparison {
        name: "nearest_1000_members_d10240_random_probe",
        baseline: "entry-chasing full-metric scan",
        optimized: "early-abandon matrix sweep",
        baseline_ns: naive,
        optimized_ns: fast,
    });

    // --- SIMD vs scalar distance kernel: one d = 10_240 row pair --------
    let ka = Hypervector::random(d, &mut rng);
    let kb = Hypervector::random(d, &mut rng);
    let scalar_ns = median_ns(samples, 2000, || {
        std::hint::black_box(hdhash_simdkernels::scalar::hamming_distance_words(
            ka.as_words(),
            kb.as_words(),
        ));
    });
    let dispatched_ns = median_ns(samples, 2000, || {
        std::hint::black_box(hdhash_simdkernels::hamming_distance_words(
            ka.as_words(),
            kb.as_words(),
        ));
    });
    comparisons.push(Comparison {
        name: "hamming_kernel_d10240_simd_vs_scalar",
        baseline: "portable scalar popcount",
        optimized: "runtime-dispatched kernel (this host)",
        baseline_ns: scalar_ns,
        optimized_ns: dispatched_ns,
    });
    println!("dispatched distance kernel: {}", hdhash_simdkernels::kernel_name());

    // --- membership churn: replace 1 of 1024 members, d = 10_240 --------
    // Baseline: the old discipline — re-bundle the entire surviving
    // membership from scratch (using the word-parallel carry-save
    // bundler, i.e. the *strongest* from-scratch formulation) and read
    // the centroid out. Optimized: the incremental counter-plane update —
    // retract the leaver, add the joiner, read out.
    let churn_members: Vec<Hypervector> =
        (0..1024).map(|_| Hypervector::random(d, &mut rng)).collect();
    let joiner = Hypervector::random(d, &mut rng);
    let mut scratch_bundler = MajorityBundler::new(d);
    let naive = median_ns(samples, 2, || {
        scratch_bundler.reset();
        for hv in churn_members.iter().skip(1) {
            scratch_bundler.add(hv).expect("dims");
        }
        scratch_bundler.add(&joiner).expect("dims");
        std::hint::black_box(scratch_bundler.majority(None));
    });
    let mut centroid = MembershipCentroid::new(d);
    for hv in &churn_members {
        centroid.add(hv).expect("dims");
    }
    let fast = median_ns(samples, 50, || {
        // Two symmetric membership changes (swap out, swap back), each
        // with its readout, so the state is restored every iteration.
        centroid.remove(&churn_members[0]).expect("present");
        centroid.add(&joiner).expect("dims");
        std::hint::black_box(centroid.read());
        centroid.remove(&joiner).expect("present");
        centroid.add(&churn_members[0]).expect("dims");
        std::hint::black_box(centroid.read());
    });
    comparisons.push(Comparison {
        name: "churn_swap_1_of_1024_members_d10240",
        baseline: "from-scratch re-bundle of the membership",
        optimized: "incremental counter-plane update + readout",
        baseline_ns: naive,
        // Two swaps per iteration: halve to report one membership change.
        optimized_ns: fast / 2.0,
    });

    // --- end-to-end table batch: HD lookup of 10_000 keys, 512 servers --
    let mut table = HdHashTable::builder()
        .dimension(10_240)
        .codebook_size(1024)
        .seed(7)
        .build()
        .expect("valid config");
    for i in 0..512 {
        table.join(ServerId::new(i)).expect("fresh server");
    }
    let keys: Vec<RequestKey> = (0..10_000).map(RequestKey::new).collect();
    let naive = median_ns(samples.min(7), 1, || {
        let hits = keys.iter().filter(|&&k| table.lookup(k).is_ok()).count();
        std::hint::black_box(hits);
    });
    let fast = median_ns(samples.min(7), 1, || {
        let hits = table.lookup_batch(&keys).iter().filter(|r| r.is_ok()).count();
        std::hint::black_box(hits);
    });
    comparisons.push(Comparison {
        name: "hd_table_10000_lookups_512_servers",
        baseline: "one-by-one lookups",
        optimized: "slot-deduplicated batched lookups",
        baseline_ns: naive,
        optimized_ns: fast,
    });

    // --- report ----------------------------------------------------------
    let mut json = String::from("{\n  \"benchmark\": \"BENCH_lookup\",\n");
    json.push_str(&machine_stamp());
    json.push_str("  \"comparisons\": [\n");
    for (i, c) in comparisons.iter().enumerate() {
        json.push_str(&format!(
            "    {{\n      \"name\": \"{}\",\n      \"baseline\": \"{}\",\n      \
             \"optimized\": \"{}\",\n      \"baseline_ns_per_op\": {:.1},\n      \
             \"optimized_ns_per_op\": {:.1},\n      \"speedup\": {:.2}\n    }}{}\n",
            c.name,
            c.baseline,
            c.optimized,
            c.baseline_ns,
            c.optimized_ns,
            c.speedup(),
            if i + 1 == comparisons.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    for c in &comparisons {
        println!(
            "{:<42} {:>12.0} ns -> {:>12.0} ns   ({:.2}x)",
            c.name,
            c.baseline_ns,
            c.optimized_ns,
            c.speedup()
        );
    }
    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("wrote {out_path}");
}
