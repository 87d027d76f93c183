//! Open-loop serving benchmark for the HD-hash serving engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-uniform --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One generator thread (this process's main thread) drives a live
//! `ServeEngine` with the `ServeConfig` defaults and one worker, then checks
//! every served answer against an independent routing oracle, off the
//! clock. `--trace 0` times open-loop phases at a fixed offered rate and
//! prints the end-to-end metrics. `--trace 1` adds a closed-loop saturation
//! phase, records the benchmark's own spans around its calls into the
//! program, replays the served keys through each layer, and prints the
//! per-layer metrics. The last line of standard output is one JSON object;
//! a human-readable report goes to standard error and to `perfbench/out/`,
//! with the spans of a traced run. See `perfbench/README.md` for every
//! metric.

mod drive;
mod ledger;
mod oracle;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use hdhash_emulator::{KeyDistribution, KeySampler};
use hdhash_serve::{ServeConfig, ServeEngine};
use hdhash_table::{RequestKey, ServerId};

use drive::{Churn, Generator};
use oracle::Change;
use spans::Spans;
use stats::{median, quantile, quantile_f64};

/// One traffic mix. The offered rates are absolute, chosen so the worker
/// is 20-45% busy on the 2-vCPU AVX-512 probe host, which leaves headroom
/// for the host's slow spells; they are not fractions of a build's own
/// capacity.
struct Workload {
    name: &'static str,
    dimension: usize,
    codebook: usize,
    servers: u64,
    keys: KeyDistribution,
    /// Open-loop offered rate, requests per second.
    rate: f64,
    /// Interval between membership changes during lookup phases.
    churn_every: Option<Duration>,
}

const WORKLOADS: [Workload; 3] = [
    // The distance scan dominates each request: scan, kernel and table
    // changes must show here.
    Workload {
        name: "paper-uniform",
        dimension: 10_240,
        codebook: 512,
        servers: 256,
        keys: KeyDistribution::Uniform,
        rate: 30_000.0,
        churn_every: None,
    },
    // A small pool with skewed keys: the serving machinery dominates and a
    // scan-side change should show no change.
    Workload {
        name: "small-zipf",
        dimension: 2_048,
        codebook: 128,
        servers: 16,
        keys: KeyDistribution::Zipf {
            universe: 1_000_000,
            exponent: 1.1,
        },
        rate: 70_000.0,
        churn_every: None,
    },
    // Writes beside reads: shows whether a read-path gain moves cost into
    // reconfiguration. With a change every 50 ms, some processes on the
    // probe host settled for their whole life into a state where a tenth of
    // the lookups waited 1-3 ms; every 100 ms, none did outside spells of
    // host steal.
    Workload {
        name: "paper-churn",
        dimension: 10_240,
        codebook: 512,
        servers: 256,
        keys: KeyDistribution::Uniform,
        rate: 15_000.0,
        churn_every: Some(Duration::from_millis(100)),
    },
];

/// Engines per end-to-end run, each with its own memory placement.
const ROUNDS: usize = 2;
/// Timed open-loop segments per engine. Between two segments the benchmark
/// times membership changes on the idle engine, then set-ups. So every
/// figure samples the host all through the run: the probe host's speed
/// moves between levels ~1.4x apart for seconds at a time.
const SEGMENTS: usize = 10;
/// Open-loop time before any phase of an engine is timed. The first
/// seconds of a process read a p90 two orders of magnitude above the
/// steady state, for 1 to 6 s on the probe host, so the first engine warms
/// up longer.
const FIRST_WARMUP: Duration = Duration::from_millis(3000);
const WARMUP: Duration = Duration::from_millis(1000);
/// Untimed open loop at the start of each segment, after the set-ups and
/// changes between segments have cooled the caches.
const SETTLE: Duration = Duration::from_millis(100);
/// Keys generated up front; phases walk the stream cyclically.
const KEY_STREAM: usize = 1 << 20;
/// Consecutive membership changes summarised by one reconfiguration figure.
const RECONFIG_CHUNK: usize = 25;
/// Bursts of `RECONFIG_CHUNK` changes timed on the idle engine between two
/// segments. `reconfig_p50_us` times these on every workload: changes under
/// load on `paper-churn` read 1.0-1.3 ms, and the medians of two ten-run
/// sets of the same code 20 minutes apart differed by 34%, beyond any
/// bound a gate may have. Under load they show in the lookup figures and in
/// the traced run.
const IDLE_BURSTS: usize = 2;
/// The open-loop p50, CPU and reconfiguration figures are trimmed means of
/// their per-window (per-chunk) values, a tenth cut from each end. A
/// millisecond vCPU stall backs the queue up for a window or two, which the
/// cut drops; and where the host switches between speed levels for seconds
/// at a time, a mean follows the share of time spent at each level while a
/// median jumps from one level to the other. A window's p90 is moved a
/// hundredfold by such stalls, in up to a fifth of the windows of a run on
/// the probe host, so `lookup_p90_us` is the median of the per-window p90s.
const TRIM: f64 = 0.1;
/// Set-up time per run, spread over the gaps between segments; each gap
/// sets up at least once.
const SETUP_SECONDS: f64 = 1.0;
/// Windows in which the host took CPU time from the process, and the
/// window after each, are left out of the open-loop figures: they measure
/// the host. In a spell of steal on the probe host a sixth of the windows
/// stayed clean, and they read as in a quiet spell. When fewer than this
/// many are left, every window counts.
const CLEAN_MIN: usize = 24;
/// A run is invalid when the generator's p90 lateness exceeds this share
/// of the open-loop p50. Lateness is part of every timed latency, so past
/// this point the generator, not the system, sets the figures.
const LATE_SHARE: f64 = 0.25;
/// Spans kept by a traced run.
const SPAN_CAP: usize = 1 << 19;

const USAGE: &str = "usage: perfbench --workload <paper-uniform|small-zipf|paper-churn> \
--seed <n> --seconds <n> --trace <0|1> [--corrupt-oracle 1]";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    corrupt_oracle: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut corrupt) =
        (None, None, None, None, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 60)),
            "--trace" => trace = Some(number()? != 0),
            "--corrupt-oracle" => corrupt = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        corrupt_oracle: corrupt,
    })
}

/// Engine construction plus the initial joins: the set-up a deployment
/// pays before serving. Returns the engine, the joins' receipts and the
/// wall time in seconds.
fn setup(config: &ServeConfig, servers: u64) -> (ServeEngine, Vec<Change>, f64) {
    let start = Instant::now();
    let engine = ServeEngine::new(*config).expect("the workload's config is valid");
    let mut log = Vec::with_capacity(servers as usize);
    for id in 0..servers {
        let server = ServerId::new(id);
        let receipts = engine.join(server).expect("a fresh server joins");
        log.push(Change {
            join: true,
            server,
            receipts,
        });
    }
    (engine, log, start.elapsed().as_secs_f64())
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("{}", run(&args));
}

/// Counts over every engine of a run.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    verdict: oracle::Verdict,
    /// The generator's p90 lateness over the timed open loop.
    late_p90_ns: f64,
    /// The lateness beyond which the run is invalid.
    late_limit_ns: f64,
    /// Replayed keys on which the memory's arg-max and the table disagree.
    disagreements: u64,
    /// Whether pinning some engine's worker to its own CPU failed.
    unpinned: bool,
    /// Membership changes left untimed because of host steal.
    stolen_changes: u64,
}

/// Pins the generator to the first CPU the process may use and every other
/// thread, the measured engine's worker, to the second; whether both held.
/// Left to the scheduler, the woken worker was often placed on the spinning
/// generator's CPU while the other CPU idled: the two took turns on one CPU,
/// the generator was preempted ~900 times a second, and the figures moved
/// between levels ~1.4x apart for seconds at a time.
fn pin_measured() -> bool {
    let cpus = stats::allowed_cpus();
    cpus.len() >= 2 && stats::pin_generator(&cpus[..1]) && stats::pin_others(cpus[1])
}

/// Lets the generator, and the engines it sets up, use every CPU again, so
/// that a set-up's worker does not start on the generator's CPU.
fn unpin_generator() {
    stats::pin_generator(stats::allowed_cpus());
}

/// One engine's life in a run: the given set-up, a warm-up, `body` (the
/// timed phases), then the oracle check of every answer it served, off the
/// clock.
fn play<T>(
    args: &Args,
    config: &ServeConfig,
    keys: &[RequestKey],
    round: usize,
    (mut engine, log): (ServeEngine, Vec<Change>),
    totals: &mut Totals,
    body: impl FnOnce(&mut Generator<'_>) -> T,
) -> (T, Spans) {
    let w = args.workload;
    let churn = Churn::new(
        w.churn_every,
        w.servers,
        args.seed.wrapping_add(round as u64),
    );
    totals.unpinned |= !pin_measured();
    let first_key = round * keys.len() / ROUNDS;
    let spans = Spans::new(args.trace, SPAN_CAP);
    let mut generator = Generator::new(&engine, keys, first_key, churn, log, spans);
    let warmup = if round == 0 { FIRST_WARMUP } else { WARMUP };
    generator.open_loop(w.rate, warmup, false);
    let out = body(&mut generator);
    unpin_generator();
    let Generator {
        answers,
        log,
        spans,
        attempted,
        failed,
        stolen_changes,
        ..
    } = generator;
    totals.stolen_changes += stolen_changes;
    engine.shutdown();
    let mut answers = answers.into_vec();
    let verdict = oracle::check(
        config,
        &log,
        &mut answers,
        keys,
        args.corrupt_oracle && round == 0,
    );
    totals.attempted += attempted;
    totals.failed += failed + verdict.mismatched;
    totals.verdict.merge(&verdict);
    (out, spans)
}

/// Set-ups repeated for about `budget` seconds; returns the wall time of
/// each one during which the host took no CPU time.
fn setups(config: &ServeConfig, servers: u64, budget: f64) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while start.elapsed().as_secs_f64() < budget {
        let steal = stats::steal_ticks();
        let seconds = setup(config, servers).2;
        if stats::steal_ticks() == steal {
            times.push(seconds);
        }
    }
    times
}

/// Per-window (per-chunk) values of one run, pooled over its segments.
#[derive(Default)]
struct Windows {
    p50: Vec<f64>,
    p90: Vec<f64>,
    cpu: Vec<f64>,
    late: Vec<f64>,
    /// Per window: the host took no CPU time from the process during it or
    /// the window before, whose backlog it may inherit.
    clean: Vec<bool>,
    reconfig_p50: Vec<f64>,
    /// Every timed latency and lateness, ascending once the run ends.
    latency_ns: Vec<u64>,
    late_ns: Vec<u64>,
}

impl Windows {
    fn add(&mut self, open: &drive::OpenPhase, reconfig_ns: &[u64]) {
        let mut stolen_before = false;
        for window in &open.windows {
            self.p50.push(us(window.p50_ns));
            self.p90.push(us(window.p90_ns));
            self.cpu.push(us(window.cpu_ns_per_req));
            self.late.push(us(window.late_p90_ns));
            self.clean.push(!window.stolen && !stolen_before);
            stolen_before = window.stolen;
        }
        // A run too short for one full chunk summarises what it has.
        let chunk_len = RECONFIG_CHUNK.min(reconfig_ns.len().max(1));
        for chunk in reconfig_ns.chunks_exact(chunk_len) {
            let mut chunk = chunk.to_vec();
            chunk.sort_unstable();
            self.reconfig_p50.push(us(quantile(&chunk, 0.5)));
        }
        self.latency_ns.extend(&open.latency_ns);
        self.late_ns.extend(&open.late_ns);
    }

    /// Whether the clean windows are too few to stand for the run: then
    /// every window counts.
    fn too_few_clean(&self) -> bool {
        self.clean.iter().filter(|&&clean| clean).count() < CLEAN_MIN
    }

    /// The clean windows' entries of `values`, or all of them when the clean
    /// windows are too few.
    fn kept(&self, values: &[f64]) -> Vec<f64> {
        let every = self.too_few_clean();
        values
            .iter()
            .zip(&self.clean)
            .filter(|&(_, &clean)| clean || every)
            .map(|(&value, _)| value)
            .collect()
    }
}

/// The end-to-end metrics: `ROUNDS` engines, each timed through `SEGMENTS`
/// open-loop segments cut into windows. Bursts of membership changes on the
/// idle engine, then set-ups, are timed between the segments.
fn end_to_end(
    args: &Args,
    config: &ServeConfig,
    keys: &[RequestKey],
    mut first: Option<(ServeEngine, Vec<Change>)>,
    setup_s: &mut Vec<f64>,
    totals: &mut Totals,
    report: &mut String,
) -> Vec<Metric> {
    let w = args.workload;
    let gaps = ROUNDS * SEGMENTS;
    let segment = Duration::from_secs(args.seconds) / gaps as u32;
    let mut all = Windows::default();
    for round in 0..ROUNDS {
        let engine = first.take().unwrap_or_else(|| {
            let (engine, log, seconds) = setup(config, w.servers);
            setup_s.push(seconds);
            (engine, log)
        });
        let ((fill, repinned), _) = play(args, config, keys, round, engine, totals, |d| {
            let (mut fill, mut repinned) = (Vec::new(), true);
            for _ in 0..SEGMENTS {
                d.open_loop(w.rate, SETTLE, false);
                let open = d.open_loop(w.rate, segment, false);
                let reconfig_ns = d.reconfigure_idle(IDLE_BURSTS, RECONFIG_CHUNK);
                all.add(&open, &reconfig_ns);
                fill.push(open.fill);
                unpin_generator();
                setup_s.extend(setups(config, w.servers, SETUP_SECONDS / gaps as f64));
                repinned &= pin_measured();
            }
            (fill, repinned)
        });
        totals.unpinned |= !repinned;
        let _ = writeln!(report, "round {round}: batch fill per segment {fill:.2?}");
    }
    all.latency_ns.sort_unstable();
    all.late_ns.sort_unstable();
    let (p50, p90, cpu) = (all.kept(&all.p50), all.kept(&all.p90), all.kept(&all.cpu));
    let lookup_p50 = stats::trimmed_mean(&p50, TRIM);
    // The generator fell behind when more windows than the trim cuts had a
    // p90 lateness past the limit.
    totals.late_p90_ns = quantile_f64(&all.kept(&all.late), 1.0 - TRIM) * 1e3;
    totals.late_limit_ns = LATE_SHARE * lookup_p50 * 1e3;
    let _ = writeln!(
        report,
        "open loop: {} windows, {} of them after host steal and left out{}; over all timed \
         requests p50 {:.2} us, p90 {:.2} us, generator late p90 {:.2} us",
        all.p50.len(),
        all.p50.len() - p50.len(),
        if all.too_few_clean() {
            " (too few clean: every window counts)"
        } else {
            ""
        },
        us(quantile(&all.latency_ns, 0.5)),
        us(quantile(&all.latency_ns, 0.9)),
        us(quantile(&all.late_ns, 0.9)),
    );
    for (name, values) in [("p50", &p50), ("p90", &p90)] {
        let _ = writeln!(
            report,
            "lookup {name} over windows: trimmed mean {:.2} us; lower quartile {:.2} us, median \
             {:.2} us, upper quartile {:.2} us",
            stats::trimmed_mean(values, TRIM),
            quantile_f64(values, 0.25),
            quantile_f64(values, 0.5),
            quantile_f64(values, 0.75),
        );
    }
    let _ = writeln!(
        report,
        "windows: p50 us {:?}\nwindows: p90 us {:?}\nwindows: cpu us/req {:?}\n\
         windows: generator late p90 us {:?}\nwindows: clean {:?}\n\
         chunks: reconfig p50 us {:?}",
        all.p50, all.p90, all.cpu, all.late, all.clean, all.reconfig_p50,
    );
    vec![
        m("lookup_p50_us", lookup_p50, "us"),
        m("lookup_p90_us", median(&p90), "us"),
        m("cpu_us_per_req", stats::trimmed_mean(&cpu, TRIM), "us"),
        m(
            "reconfig_p50_us",
            stats::trimmed_mean(&all.reconfig_p50, TRIM),
            "us",
        ),
    ]
}

/// The per-layer metrics: one engine, an untraced open-loop phase, an
/// open-loop phase traced in every other window, a traced saturation phase,
/// then isolated replays of the served keys through each layer.
fn per_layer(
    args: &Args,
    config: &ServeConfig,
    keys: &[RequestKey],
    first: (ServeEngine, Vec<Change>),
    totals: &mut Totals,
    report: &mut String,
) -> (Vec<Metric>, Spans) {
    let w = args.workload;
    let seconds = Duration::from_secs(args.seconds);
    let shards = config.shards as f64;
    let ((open, mixed, sat, mut reconfig_ns, layers), spans) =
        play(args, config, keys, 0, first, totals, |d| {
            let open = d.open_loop(w.rate, seconds.mul_f64(0.3), false);
            let mixed = d.open_loop(w.rate, seconds.mul_f64(0.3), true);
            d.tracing = true;
            let sat = d.saturate(seconds.mul_f64(0.4));
            let reconfig_ns = if w.churn_every.is_some() {
                mixed.reconfig_ns.clone()
            } else {
                d.reconfigure_idle(IDLE_BURSTS * SEGMENTS, RECONFIG_CHUNK)
            };
            d.tracing = false;
            let group = |fill: f64| (fill.round() as usize).max(1);
            let served = d.answers.slice(mixed.answers.clone());
            let layers = ledger::replay(
                d.engine(),
                config,
                keys,
                &served,
                group(open.fill),
                group(sat.fill),
                &open.service_ns,
                &mut d.spans,
            );
            (open, mixed, sat, reconfig_ns, layers)
        });
    reconfig_ns.sort_unstable();
    totals.late_p90_ns = quantile(&open.late_ns, 0.9);
    totals.late_limit_ns = LATE_SHARE * quantile(&open.latency_ns, 0.5);
    totals.disagreements = layers.disagreements;
    let submit = spans.durations_ns("submit", mixed.spans_from..sat.spans_from);
    let reap = spans.durations_ns("try_response", mixed.spans_from..sat.spans_from);
    let cpu_ns = open.worker_cpu_ns as f64 / open.completed.max(1) as f64;
    let snapshot_load_ns = layers.snapshots_ns / shards;
    let unattributed =
        cpu_ns - snapshot_load_ns - layers.snapshot_lookup_batch_ns_per_key - layers.hist_record_ns;
    let submit_p50 = quantile(&submit, 0.5);
    let reap_p50 = quantile(&reap, 0.5);
    let over_1ms = open.latency_ns.iter().filter(|&&l| l > 1_000_000).count();
    let lat = &open.latency_ns;
    let metrics = vec![
        m(
            "simdkernels.hamming_ns_per_row",
            layers.hamming_ns_per_row,
            "ns",
        ),
        m(
            "memory.nearest_quantized_ns",
            layers.nearest_quantized_ns,
            "ns",
        ),
        m("memory.rows_per_probe", layers.rows_per_probe, "count"),
        m("codebook.slot_ns", layers.slot_ns, "ns"),
        m("table.lookup_ns", layers.lookup_ns, "ns"),
        m(
            "table.lookup_batch_ns_per_key",
            layers.lookup_batch_ns_per_key,
            "ns",
        ),
        m(
            "table.distinct_slots_per_key",
            layers.distinct_slots_per_key,
            "ratio",
        ),
        m("shard.snapshots_ns", layers.snapshots_ns, "ns"),
        m(
            "shard.snapshot_lookup_batch_ns_per_key",
            layers.snapshot_lookup_batch_ns_per_key,
            "ns",
        ),
        m(
            "shard.publish_us",
            us(quantile(&reconfig_ns, 0.5)) / shards,
            "us",
        ),
        m("reconfig_p90_us", us(quantile(&reconfig_ns, 0.9)), "us"),
        m("table.join_us", layers.join_us, "us"),
        m("table.leave_us", layers.leave_us, "us"),
        m("table.clone_us", layers.clone_us, "us"),
        m("table.signature_us", layers.signature_us, "us"),
        m("engine.submit_ns_p50", submit_p50, "ns"),
        m("engine.submit_ns_p90", quantile(&submit, 0.9), "ns"),
        m(
            "engine.service_us",
            us(quantile(&open.service_ns, 0.5)),
            "us",
        ),
        m("engine.unattributed_ns", unattributed, "ns"),
        m("engine.unattributed_frac", unattributed / cpu_ns, "ratio"),
        m(
            "engine.worker_busy_frac",
            sat.worker_cpu_ns as f64 / sat.wall.as_nanos().max(1) as f64,
            "ratio",
        ),
        m("request.reap_ns", reap_p50, "ns"),
        m("peak_rps", median(&sat.window_rps), "1/s"),
        m("scheduler.batch_fill", sat.fill, "count"),
        m(
            "scheduler.queue_depth_p90",
            quantile(&sat.queue_depth, 0.9),
            "count",
        ),
        m("obs.hist_record_ns", layers.hist_record_ns, "ns"),
        m("gen.late_p90_us", us(quantile(&open.late_ns, 0.9)), "us"),
        m(
            "gen.cpu_us_per_req",
            us(sat.generator_cpu_ns as f64 / sat.completed.max(1) as f64),
            "us",
        ),
        m("tail.p99_us", us(quantile(lat, 0.99)), "us"),
        m("tail.p999_us", us(quantile(lat, 0.999)), "us"),
        m(
            "tail.over_1ms_frac",
            over_1ms as f64 / lat.len().max(1) as f64,
            "ratio",
        ),
        m("tail.samples", lat.len() as f64, "count"),
        m(
            "trace.overhead_frac",
            trace_overhead(&mixed.windows),
            "ratio",
        ),
    ];
    let mut costs = [
        (
            "distance scan (ShardSnapshot::lookup_batch)",
            layers.snapshot_lookup_batch_ns_per_key,
        ),
        ("submit (ServeEngine::submit, generator)", submit_p50),
        ("reap (Ticket::try_response, generator)", reap_p50),
        (
            "snapshot load (Arc clone under the publish lock)",
            snapshot_load_ns,
        ),
        (
            "histogram record (LogHistogram::record)",
            layers.hist_record_ns,
        ),
        (
            "unattributed worker time (park/wake, fill, Arc ticket)",
            unattributed,
        ),
    ];
    costs.sort_by(|a, b| b.1.total_cmp(&a.1));
    let _ = writeln!(
        report,
        "ledger: worker cpu {cpu_ns:.0} ns/req; unattributed {unattributed:.0} ns ({:.1}% of \
         cpu_us_per_req)",
        100.0 * unattributed / cpu_ns
    );
    let _ = writeln!(
        report,
        "spans: {} kept, {} dropped",
        spans.len(),
        spans.dropped
    );
    for (rank, (name, ns)) in costs.iter().take(3).enumerate() {
        let _ = writeln!(
            report,
            "ledger: top cost {}: {name}: {ns:.0} ns/req",
            rank + 1
        );
    }
    let _ = writeln!(
        report,
        "tail: p99, p99.9 and the share over 1 ms are diagnostics, not gates: millisecond vCPU \
         stalls move them between identical runs"
    );
    (metrics, spans)
}

/// Tracing overhead from a phase traced in every other window: the median
/// p50 difference between neighbouring traced and untraced windows, over
/// the median untraced p50. Neighbours share the host's state, which drifts
/// over seconds.
fn trace_overhead(windows: &[drive::OpenWindow]) -> f64 {
    let differences: Vec<f64> = windows
        .windows(2)
        .filter(|pair| pair[1].index == pair[0].index + 1 && pair[0].traced != pair[1].traced)
        .filter(|pair| !pair[0].stolen && !pair[1].stolen)
        .map(|pair| {
            let sign = if pair[1].traced { 1.0 } else { -1.0 };
            sign * (pair[1].p50_ns - pair[0].p50_ns)
        })
        .collect();
    let untraced: Vec<f64> = windows
        .iter()
        .filter(|w| !w.traced)
        .map(|w| w.p50_ns)
        .collect();
    median(&differences) / median(&untraced)
}

/// Runs one workload and returns the result line.
fn run(args: &Args) -> String {
    let origin = Instant::now();
    let w = args.workload;
    let config = ServeConfig {
        workers: 1,
        dimension: w.dimension,
        codebook_size: w.codebook,
        ..ServeConfig::default()
    };
    let mut report = String::new();
    let _ = writeln!(
        report,
        "perfbench {} seed={} seconds={} trace={}\nmachine: kernel={} host_isa={} cores={} rustc={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        hdhash_simdkernels::kernel_name(),
        hdhash_simdkernels::host_isa(),
        std::thread::available_parallelism().map_or(0, usize::from),
        env!("PERFBENCH_RUSTC"),
    );

    // Read before any pin narrows the process's CPUs.
    let cpus = stats::allowed_cpus();

    // The first set-up's resident-set growth is read before the benchmark
    // allocates its key stream.
    // A tiny engine first creates the allocator arena a worker thread gets,
    // which the process pays once; whether the measured set-up's worker
    // paid it depended on thread timing and moved the figure in 64 KiB
    // steps.
    let tiny = ServeConfig {
        shards: 1,
        dimension: 64,
        codebook_size: 4,
        ..config
    };
    let (tiny, _, _) = setup(&tiny, 1);
    let _ = tiny.submit(RequestKey::new(0)).map(|ticket| ticket.wait());
    drop(tiny);
    let rss_before = stats::rss_kib();
    let (engine, log, first_setup) = setup(&config, w.servers);
    let setup_rss_mib = stats::rss_kib().saturating_sub(rss_before) as f64 / 1024.0;
    let mut setup_s = vec![first_setup];
    let mut sampler = KeySampler::new(w.keys, args.seed);
    let keys: Vec<RequestKey> = (0..KEY_STREAM).map(|_| sampler.next_key()).collect();

    let mut totals = Totals::default();
    let (mut metrics, spans) = if args.trace {
        per_layer(
            args,
            &config,
            &keys,
            (engine, log),
            &mut totals,
            &mut report,
        )
    } else {
        let metrics = end_to_end(
            args,
            &config,
            &keys,
            Some((engine, log)),
            &mut setup_s,
            &mut totals,
            &mut report,
        );
        (metrics, Spans::new(false, 0))
    };
    if args.trace {
        metrics.push(m(
            "failed_frac",
            totals.failed as f64 / totals.attempted.max(1) as f64,
            "ratio",
        ));
    } else {
        metrics.push(m("setup_s", median(&setup_s), "s"));
        metrics.push(m("setup_rss_mib", setup_rss_mib, "MiB"));
    }

    let Totals {
        attempted,
        failed,
        verdict,
        late_p90_ns,
        late_limit_ns,
        disagreements,
        unpinned,
        stolen_changes,
    } = totals;
    let _ = writeln!(
        report,
        "host steal: {stolen_changes} membership changes untimed"
    );
    if !unpinned {
        let _ = writeln!(
            report,
            "pinning: generator on CPU {}, each measured engine's worker on CPU {}",
            cpus[0], cpus[1]
        );
    } else {
        let _ = writeln!(
            report,
            "pinning: failed (CPUs {cpus:?}); threads left to the scheduler, figures noisier"
        );
    }
    let generator_kept_up = late_p90_ns <= late_limit_ns;
    let finite = metrics.iter().all(|x| x.value.is_finite());
    let correct = verdict.mismatched == 0
        && verdict.oracle_sound()
        && generator_kept_up
        && finite
        && disagreements == 0;
    let _ = writeln!(
        report,
        "oracle: {} answers checked, {} mismatched; self-check {} sampled, {} failed; {} receipts \
         disagreed\nfailed: {failed} of {attempted} attempted (failed_frac {})",
        verdict.checked,
        verdict.mismatched,
        verdict.self_checked,
        verdict.self_check_failed,
        verdict.receipt_failed,
        failed as f64 / attempted.max(1) as f64,
    );
    if !generator_kept_up {
        let _ = writeln!(
            report,
            "INVALID: the generator fell behind its schedule (p90 {:.1} us late, limit {:.1} us)",
            us(late_p90_ns),
            us(late_limit_ns),
        );
    }
    if disagreements > 0 {
        let _ = writeln!(
            report,
            "replay: memory and table disagree on {disagreements} keys"
        );
    }
    for x in &metrics {
        let _ = writeln!(report, "{} = {} {}", x.name, x.value, x.unit);
    }
    eprint!("{report}");
    write_outputs(args, &report, &spans, origin);

    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, x) in metrics.iter().enumerate() {
        let value = if x.value.is_finite() { x.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            x.name, x.unit
        );
    }
    json.push_str("}}");
    json
}

/// Writes the report, and a traced run's spans, under `perfbench/out/`.
fn write_outputs(args: &Args, report: &str, spans: &Spans, origin: Instant) {
    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.txt")), report))
        .and_then(|()| {
            if spans.enabled() {
                std::fs::write(
                    dir.join(format!("{stem}.spans.jsonl")),
                    spans.to_jsonl(origin),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", dir.display());
    }
}
