//! Emits `BENCH_serve.json`: closed-loop throughput of the serving engine
//! across a batch size × worker count grid.
//!
//! ```text
//! cargo run --release -p hdhash-bench --bin bench_serve
//! cargo run --release -p hdhash-bench --bin bench_serve -- quick=1
//! cargo run --release -p hdhash-bench --bin bench_serve -- out=/tmp/B.json requests=20000
//! ```
//!
//! Each grid point builds a fresh engine, replays an emulator-generated
//! uniform workload through `hdhash_serve::load::drive` (closed loop),
//! and reports completed-requests-per-second plus p50/p99 latency and the
//! mean coalesced batch fill. The JSON also records the dispatched
//! distance kernel (`HDHASH_FORCE_SCALAR` is honored end-to-end: the env
//! var flips the table's scan kernel to the portable scalar path, and
//! the `kernel` field proves which one ran) and the host's core count,
//! since worker scaling is meaningless past it.

use std::fmt::Write as _;

use hdhash_bench::Params;
use hdhash_emulator::{Generator, KeyDistribution, Workload};
use hdhash_serve::{drive, ServeConfig, ServeEngine, TraceConfig};
use hdhash_table::ServerId;

struct GridPoint {
    workers: usize,
    batch: usize,
    completed: usize,
    rejected: usize,
    throughput_rps: f64,
    p50_us: f64,
    p99_us: f64,
    mean_batch_fill: f64,
}

fn run_point(workers: usize, batch: usize, requests: usize, trace: TraceConfig) -> GridPoint {
    let mut engine = ServeEngine::new(ServeConfig {
        workers,
        batch_capacity: batch,
        queue_capacity: 8192,
        dimension: 4096,
        codebook_size: 256,
        seed: 0xBEE,
        trace,
        ..ServeConfig::default()
    })
    .expect("valid config");
    for id in 0..64u64 {
        engine.join(ServerId::new(id)).expect("fresh server");
    }
    let workload = Workload {
        initial_servers: 0,
        lookups: requests,
        keys: KeyDistribution::Uniform,
        seed: 0x5EED,
    };
    let stream = Generator::new(workload).lookup_requests();
    // Window sized to keep the queue busy without tripping backpressure.
    let report = drive(&engine, &stream, (batch * workers * 4).min(2048));
    engine.shutdown();
    let mean_batch_fill = engine.metrics().shards[0].mean_batch_fill;
    let latency = report.latency.expect("non-empty run");
    GridPoint {
        workers,
        batch,
        completed: report.completed,
        rejected: report.rejected,
        throughput_rps: report.throughput().requests_per_sec(),
        p50_us: latency.p50.as_secs_f64() * 1e6,
        p99_us: latency.p99.as_secs_f64() * 1e6,
        mean_batch_fill,
    }
}

fn main() {
    let params = Params::from_env();
    let quick = params.get_usize("quick", 0) != 0
        || std::env::args().any(|a| a == "--quick");
    let requests = params.get_usize("requests", if quick { 2_000 } else { 20_000 });
    let out_path = std::env::args()
        .skip(1)
        .find_map(|a| a.strip_prefix("out=").map(str::to_owned))
        .unwrap_or_else(|| "BENCH_serve.json".to_owned());
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    let worker_counts =
        params.get_usize_list("workers", if quick { &[2][..] } else { &[1, 2, 4][..] });
    let batch_sizes =
        params.get_usize_list("batches", if quick { &[64][..] } else { &[16, 64, 256][..] });

    let mut grid: Vec<GridPoint> = Vec::new();
    for &workers in &worker_counts {
        for &batch in &batch_sizes {
            let point = run_point(workers, batch, requests, TraceConfig::disabled());
            println!(
                "workers={:<2} batch={:<4} {:>12.0} req/s  \
                 p50 {:>8.1} us  p99 {:>8.1} us  fill {:>6.1}  rejected {}",
                point.workers,
                point.batch,
                point.throughput_rps,
                point.p50_us,
                point.p99_us,
                point.mean_batch_fill,
                point.rejected,
            );
            grid.push(point);
        }
    }

    // Tracing-overhead A/B on a representative mid-grid point: the
    // request-path tracer at its default 1/64 sampling rate vs tracing
    // fully disabled. Arms are interleaved and each keeps its best of 5
    // — closed-loop throughput on a shared host swings far more from
    // scheduler noise than from the one-atomic-per-request tracer, and
    // best-of-N is robust against that one-sided noise. The acceptance
    // bar for the telemetry layer is ≤5% regression.
    let (ab_workers, ab_batch) = (2, 64);
    // 4× the grid's request count per arm: each trial must run long
    // enough that a single descheduling blip can't move the number.
    let ab_requests = requests * 4;
    let ab_run = |trace: TraceConfig| -> f64 {
        run_point(ab_workers, ab_batch, ab_requests, trace).throughput_rps
    };
    // Paired trials: each trial runs both arms back to back and yields
    // one on/off throughput ratio, so slow host drift cancels; the
    // reported regression is the median ratio across trials.
    let (mut trace_off_rps, mut trace_on_rps) = (0.0f64, 0.0f64);
    let mut ratios: Vec<f64> = (0..9)
        .map(|_| {
            let off = ab_run(TraceConfig::disabled());
            let on = ab_run(TraceConfig::sampled(64));
            trace_off_rps = trace_off_rps.max(off);
            trace_on_rps = trace_on_rps.max(on);
            if off > 0.0 { on / off } else { 1.0 }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let trace_regression_pct = (1.0 - ratios[ratios.len() / 2]) * 100.0;
    println!(
        "tracing overhead @ workers={ab_workers} batch={ab_batch}: \
         best off {trace_off_rps:.0} req/s, best 1/64 sampled {trace_on_rps:.0} req/s, \
         median paired regression {trace_regression_pct:+.1}%"
    );

    let note = if cores < 4 {
        format!(
            "host has {cores} core(s): worker scaling is capped by the core count — \
             extra workers measure coalescing overhead, not parallel speedup"
        )
    } else {
        format!("host has {cores} cores; worker scaling is meaningful up to that width")
    };

    let mut json = String::from("{\n  \"benchmark\": \"BENCH_serve\",\n");
    let _ = writeln!(json, "  \"kernel\": \"{}\",", hdhash_simdkernels::kernel_name());
    let _ = writeln!(json, "  \"host_isa\": \"{}\",", hdhash_simdkernels::host_isa());
    let _ = writeln!(json, "  \"host_cores\": {cores},");
    let _ = writeln!(json, "  \"requests_per_point\": {requests},");
    let _ = writeln!(json, "  \"note\": \"{note}\",");
    let _ = writeln!(
        json,
        "  \"tracing_overhead\": {{\"workers\": {ab_workers}, \
         \"batch\": {ab_batch}, \"disabled_rps\": {trace_off_rps:.0}, \
         \"sampled_1_in_64_rps\": {trace_on_rps:.0}, \
         \"regression_pct\": {trace_regression_pct:.1}}},"
    );
    json.push_str(
        "  \"latency_note\": \"latency now feeds a lock-free 65-bucket log2 \
         histogram (atomic increments, bucket-accurate quantiles) instead of the previous \
         Mutex<Vec> reservoir that serialized every worker on the response path; the \
         tracing_overhead A/B above is measured on top of that histogram path\",\n",
    );
    json.push_str("  \"series\": [\n");
    for (i, p) in grid.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workers\": {}, \"batch\": {}, \"completed\": {}, \
             \"rejected\": {}, \"throughput_rps\": {:.0}, \"p50_us\": {:.1}, \
             \"p99_us\": {:.1}, \"mean_batch_fill\": {:.2}}}{}",
            p.workers,
            p.batch,
            p.completed,
            p.rejected,
            p.throughput_rps,
            p.p50_us,
            p.p99_us,
            p.mean_batch_fill,
            if i + 1 == grid.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");

    println!("kernel: {}", hdhash_simdkernels::kernel_name());
    // Surface the scaling caveat in the stdout summary too, so CI logs
    // are self-explanatory without opening the JSON.
    println!("note: {note}");
    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("wrote {out_path}");
}
