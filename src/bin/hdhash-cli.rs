//! `hdhash-cli` — an interactive / scriptable dynamic hash table shell.
//!
//! Drives any algorithm in the workspace through a tiny command language,
//! for demos and ad-hoc experiments:
//!
//! ```text
//! $ cargo run --release --bin hdhash-cli
//! > new hd 64            # also: modular|consistent|rendezvous|maglev|hd-parallel
//! > join 1 2 3 4
//! > lookup 42 99
//! > spread 10000         # route 10k keys, print load distribution + chi^2
//! > snapshot 10000       # remember the current assignment
//! > noise 10             # inject 10 bit errors
//! > diff 10000           # mismatch % against the snapshot
//! > clear                # clear injected noise
//! > leave 3
//! > stats
//! > quit
//! ```
//!
//! Commands are also accepted on stdin non-interactively:
//! `echo "new hd 8\njoin 1 2\nlookup 5" | hdhash-cli`.

use std::io::{BufRead, Write};

use hdhash::prelude::*;

/// The shell's mutable state.
struct Shell {
    table: Option<Box<dyn NoisyTable + Send>>,
    snapshot: Option<Assignment>,
    noise_seed: u64,
}

impl Shell {
    fn new() -> Self {
        Self { table: None, snapshot: None, noise_seed: 1 }
    }

    fn table_mut(&mut self) -> Result<&mut (dyn NoisyTable + Send), String> {
        match self.table.as_deref_mut() {
            Some(t) => Ok(t),
            None => Err("no table; run `new <algorithm> [capacity]` first".into()),
        }
    }

    fn table(&self) -> Result<&(dyn NoisyTable + Send), String> {
        match self.table.as_deref() {
            Some(t) => Ok(t),
            None => Err("no table; run `new <algorithm> [capacity]` first".into()),
        }
    }

    /// Executes one command line; returns the text to print or an error.
    fn execute(&mut self, line: &str) -> Result<String, String> {
        let mut parts = line.split_whitespace();
        let Some(command) = parts.next() else {
            return Ok(String::new());
        };
        let args: Vec<&str> = parts.collect();
        match command {
            "help" => Ok(HELP.trim().to_string()),
            "new" => self.cmd_new(&args),
            "join" => self.cmd_membership(&args, true),
            "leave" => self.cmd_membership(&args, false),
            "lookup" => self.cmd_lookup(&args),
            "spread" => self.cmd_spread(&args),
            "snapshot" => self.cmd_snapshot(&args),
            "diff" => self.cmd_diff(&args),
            "noise" => self.cmd_noise(&args, false),
            "burst" => self.cmd_noise(&args, true),
            "clear" => {
                self.table_mut()?.clear_noise();
                Ok("noise cleared".into())
            }
            "stats" => self.cmd_stats(),
            "serve" => Self::cmd_serve(&args),
            "replicate" => Self::cmd_replicate(&args),
            "accel" => self.cmd_accel(&args),
            other => Err(format!("unknown command `{other}`; try `help`")),
        }
    }

    fn cmd_new(&mut self, args: &[&str]) -> Result<String, String> {
        let name = args.first().ok_or("usage: new <algorithm> [capacity]")?;
        let capacity: usize = match args.get(1) {
            Some(c) => c.parse().map_err(|_| format!("bad capacity `{c}`"))?,
            None => 64,
        };
        let kind = AlgorithmKind::ALL
            .into_iter()
            .find(|k| k.name() == *name)
            .ok_or_else(|| {
                let names: Vec<&str> = AlgorithmKind::ALL.iter().map(|k| k.name()).collect();
                format!("unknown algorithm `{name}`; one of {names:?}")
            })?;
        self.table = Some(kind.build(capacity));
        self.snapshot = None;
        Ok(format!("created `{name}` table with capacity {capacity}"))
    }

    fn cmd_membership(&mut self, args: &[&str], join: bool) -> Result<String, String> {
        if args.is_empty() {
            return Err(format!("usage: {} <id>...", if join { "join" } else { "leave" }));
        }
        let mut applied = 0;
        for arg in args {
            let id: u64 = arg.parse().map_err(|_| format!("bad server id `{arg}`"))?;
            let result = if join {
                self.table_mut()?.join(ServerId::new(id))
            } else {
                self.table_mut()?.leave(ServerId::new(id))
            };
            result.map_err(|e| e.to_string())?;
            applied += 1;
        }
        Ok(format!(
            "{} {applied} server(s); pool size {}",
            if join { "joined" } else { "removed" },
            self.table()?.server_count()
        ))
    }

    fn cmd_lookup(&mut self, args: &[&str]) -> Result<String, String> {
        if args.is_empty() {
            return Err("usage: lookup <key>...".into());
        }
        let mut out = String::new();
        for arg in args {
            let key: u64 = arg.parse().map_err(|_| format!("bad key `{arg}`"))?;
            let server =
                self.table()?.lookup(RequestKey::new(key)).map_err(|e| e.to_string())?;
            out.push_str(&format!("r{key} -> {server}\n"));
        }
        out.pop();
        Ok(out)
    }

    fn workload(n: usize) -> Vec<RequestKey> {
        (0..n as u64).map(|k| RequestKey::new(hdhash::hashfn::mix64(k))).collect()
    }

    fn cmd_spread(&mut self, args: &[&str]) -> Result<String, String> {
        let n: usize = args.first().unwrap_or(&"10000").parse().map_err(|_| "bad count")?;
        let keys = Self::workload(n);
        let assignment =
            Assignment::capture(self.table()?, keys).map_err(|e| e.to_string())?;
        let loads = assignment.load_by_server();
        let servers = self.table()?.server_count();
        let counts: Vec<usize> = self
            .table()?
            .servers()
            .iter()
            .map(|s| loads.get(s).copied().unwrap_or(0))
            .collect();
        let chi2 = hdhash::emulator::stats::chi_squared_uniform(&counts);
        let max = counts.iter().max().copied().unwrap_or(0);
        let min = counts.iter().min().copied().unwrap_or(0);
        Ok(format!(
            "{n} keys over {servers} servers: min {min} / mean {:.0} / max {max}, chi^2 = {chi2:.1}",
            n as f64 / servers as f64
        ))
    }

    fn cmd_snapshot(&mut self, args: &[&str]) -> Result<String, String> {
        let n: usize = args.first().unwrap_or(&"10000").parse().map_err(|_| "bad count")?;
        let keys = Self::workload(n);
        self.snapshot =
            Some(Assignment::capture(self.table()?, keys).map_err(|e| e.to_string())?);
        Ok(format!("snapshot of {n} assignments taken"))
    }

    fn cmd_diff(&mut self, args: &[&str]) -> Result<String, String> {
        let n: usize = args.first().unwrap_or(&"10000").parse().map_err(|_| "bad count")?;
        let reference = self.snapshot.as_ref().ok_or("no snapshot; run `snapshot` first")?;
        let keys = Self::workload(n);
        let current = Assignment::capture(self.table()?, keys).map_err(|e| e.to_string())?;
        Ok(format!(
            "{:.3}% of assignments differ from the snapshot",
            100.0 * remap_fraction(reference, &current)
        ))
    }

    fn cmd_noise(&mut self, args: &[&str], burst: bool) -> Result<String, String> {
        let amount: usize = args.first().unwrap_or(&"10").parse().map_err(|_| "bad amount")?;
        let seed = match args.get(1) {
            Some(s) => s.parse().map_err(|_| "bad seed")?,
            None => {
                self.noise_seed += 1;
                self.noise_seed
            }
        };
        let flipped = if burst {
            self.table_mut()?.inject_burst(amount, seed)
        } else {
            self.table_mut()?.inject_bit_flips(amount, seed)
        };
        Ok(format!(
            "injected {flipped} bit error(s) ({}) with seed {seed}",
            if burst { "one burst" } else { "independent" }
        ))
    }

    fn cmd_stats(&mut self) -> Result<String, String> {
        let table = self.table()?;
        Ok(format!(
            "algorithm: {}\nservers:   {}\nsurface:   {} bits of vulnerable state",
            table.algorithm_name(),
            table.server_count(),
            table.noise_surface_bits()
        ))
    }

    /// `serve [workers] [requests] [--metrics <path>]`: runs a closed-loop
    /// burst through the serving engine and prints throughput plus
    /// batch-coalescing and latency metrics.
    /// With `--metrics`, tracing is sampled at 1/64 and the unified
    /// Prometheus exposition is rewritten to `path` every 200ms during the
    /// burst plus once at the end.
    fn cmd_serve(args: &[&str]) -> Result<String, String> {
        let (args, metrics_path) = split_metrics_flag(args)?;
        let parse = |i: usize, default: usize| -> Result<usize, String> {
            match args.get(i) {
                Some(v) => v.parse().map_err(|_| format!("bad number `{v}`")),
                None => Ok(default),
            }
        };
        let workers = parse(0, 2)?.max(1);
        let requests = parse(1, 20_000)?;
        if let Some(extra) = args.get(2) {
            return Err(format!("unexpected argument `{extra}`"));
        }
        let trace = if metrics_path.is_some() {
            hdhash::obs::TraceConfig::sampled(64)
        } else {
            hdhash::obs::TraceConfig::disabled()
        };
        let config = hdhash::serve::ServeConfig {
            workers,
            dimension: 4096,
            codebook_size: 256,
            trace,
            ..hdhash::serve::ServeConfig::default()
        };
        let mut engine =
            hdhash::serve::ServeEngine::new(config).map_err(|e| e.to_string())?;
        for id in 0..32u64 {
            engine.join(ServerId::new(id)).map_err(|e| e.to_string())?;
        }
        let workload = hdhash::emulator::Workload {
            initial_servers: 0,
            lookups: requests,
            ..hdhash::emulator::Workload::default()
        };
        let stream = hdhash::emulator::Generator::new(workload).lookup_requests();
        let dump = |engine: &hdhash::serve::ServeEngine, path: &str| {
            let mut snap = hdhash::obs::TelemetrySnapshot::new();
            hdhash::serve::telemetry::export_engine(&mut snap, &[], &engine.metrics());
            hdhash::serve::telemetry::export_tracer(&mut snap, &[], &engine.tracer().stats());
            std::fs::write(path, snap.to_prometheus())
        };
        let report = match metrics_path.as_deref() {
            None => hdhash::serve::drive(&engine, &stream, 512),
            Some(path) => {
                let done = std::sync::atomic::AtomicBool::new(false);
                std::thread::scope(|scope| {
                let report = scope.spawn(|| {
                    let report = hdhash::serve::drive(&engine, &stream, 512);
                    done.store(true, std::sync::atomic::Ordering::Release);
                    report
                });
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    let _ = dump(&engine, path);
                    std::thread::sleep(std::time::Duration::from_millis(200));
                }
                report.join().expect("drive thread panicked")
                })
            }
        };
        engine.shutdown();
        if let Some(path) = metrics_path.as_deref() {
            dump(&engine, path).map_err(|e| format!("write metrics to {path}: {e}"))?;
        }
        let metrics = engine.metrics();
        let mut out = format!(
            "served {} lookups with {} worker(s): {:.0} req/s, {} rejected\n",
            report.completed,
            workers,
            report.throughput().requests_per_sec(),
            report.rejected,
        );
        if let Some(latency) = report.latency {
            out.push_str(&format!(
                "latency p50 {:?} / p90 {:?} / p99 {:?} / max {:?}\n",
                latency.p50, latency.p90, latency.p99, latency.max
            ));
        }
        let table = &metrics.shards[0];
        out.push_str(&format!(
            "  table: epoch {}, {} member(s), {} served in {} batch(es), mean fill {:.1}\n",
            table.epoch, table.members, table.served, table.batches, table.mean_batch_fill
        ));
        if let Some(path) = metrics_path.as_deref() {
            out.push_str(&format!("telemetry exposition written to {path}\n"));
        }
        out.pop();
        Ok(out)
    }

    /// Anti-entropy demo: two replica engines diverge under local churn,
    /// then digest-driven gossip reconciles them round by round.
    fn cmd_replicate(args: &[&str]) -> Result<String, String> {
        use hdhash::serve::gossip::{
            converged, member_divergence, run_round, GossipConfig, GossipNode,
        };
        use hdhash::serve::replication::ReplicatedEngine;
        use hdhash::serve::transport::{InProcessNetwork, ReplicaId};
        use std::sync::Arc;

        let parse = |i: usize, default: usize| -> Result<usize, String> {
            match args.get(i) {
                Some(v) => v.parse().map_err(|_| format!("bad number `{v}`")),
                None => Ok(default),
            }
        };
        let churn_ops = parse(0, 24)?;
        if let Some(extra) = args.get(1) {
            return Err(format!("unexpected argument `{extra}`"));
        }
        let config = hdhash::serve::ServeConfig {
            workers: 1,
            dimension: 4096,
            codebook_size: 256,
            ..hdhash::serve::ServeConfig::default()
        };
        let network = InProcessNetwork::new();
        let peers = vec![ReplicaId::new(0), ReplicaId::new(1)];
        let mut replicas = Vec::new();
        let mut nodes = Vec::new();
        for &id in &peers {
            let replica = Arc::new(
                ReplicatedEngine::new(id, config).map_err(|e| e.to_string())?,
            );
            nodes.push(GossipNode::new(
                Arc::clone(&replica),
                network.endpoint(id),
                peers.clone(),
                GossipConfig::default(),
            ));
            replicas.push(replica);
        }
        // Shared base membership, then divergent churn on each replica.
        for id in 0..16u64 {
            for replica in &replicas {
                replica.join(ServerId::new(id)).map_err(|e| e.to_string())?;
            }
        }
        for op in 0..churn_ops as u64 {
            let replica = &replicas[(op % 2) as usize];
            let _ = if op % 3 == 0 {
                replica.leave(ServerId::new(op % 16))
            } else {
                replica.join(ServerId::new(100 + op))
            };
        }
        let divergence = || member_divergence(&[&replicas[0], &replicas[1]]);
        let mut out = format!(
            "2 replicas, {churn_ops} divergent ops; {} member id(s) differ\n",
            divergence(),
        );
        let mut rounds = 0;
        while !converged(&[&replicas[0], &replicas[1]]) {
            rounds += 1;
            if rounds > 16 {
                return Err("gossip failed to converge in 16 rounds".into());
            }
            run_round(&nodes);
            out.push_str(&format!(
                "round {rounds}: {} member id(s) differ\n",
                divergence(),
            ));
        }
        let metrics = nodes[0].metrics();
        out.push_str(&format!(
            "converged in {rounds} round(s): {} member(s), identical digests; \
             replica0 sent {} B ({} advert(s), {} sync(s), {} record(s) adopted)\n",
            replicas[0].member_ids().len(),
            metrics.bytes_sent,
            metrics.adverts_sent,
            metrics.syncs_sent,
            metrics.records_adopted,
        ));
        // Operational payoff: the converged replicas route a probe burst
        // identically.
        let mut agreeing = 0usize;
        for k in 0..64u64 {
            let a = replicas[0].submit(RequestKey::new(k)).map_err(|e| e.to_string())?.wait();
            let b = replicas[1].submit(RequestKey::new(k)).map_err(|e| e.to_string())?.wait();
            if a.result == b.result {
                agreeing += 1;
            }
        }
        out.push_str(&format!(
            "post-convergence probe: {agreeing}/64 lookups route identically"
        ));
        Ok(out)
    }

    fn cmd_accel(&mut self, args: &[&str]) -> Result<String, String> {
        // Pool size from the live table if present, else the argument,
        // else the paper's 512.
        let servers = match args.first() {
            Some(s) => s.parse().map_err(|_| format!("bad server count `{s}`"))?,
            None => match self.table.as_deref() {
                Some(t) if t.server_count() > 0 => t.server_count(),
                _ => 512,
            },
        };
        let dimension: usize = match args.get(1) {
            Some(d) => d.parse().map_err(|_| format!("bad dimension `{d}`"))?,
            None => 10_000,
        };
        let mut out = format!(
            "single-cycle HDC inference for {servers} servers, d = {dimension}:\n"
        );
        for tech in TechnologyParams::presets() {
            let schedule =
                LookupSchedule::plan(ExecutionModel::Combinational, servers, dimension, &tech);
            out.push_str(&format!(
                "  {:>10}: {:>8.1} ns/lookup ({:>7.1} MHz single-cycle clock)\n",
                tech.name,
                schedule.time_per_lookup_ps() / 1000.0,
                1.0e6 / schedule.cycle_time_ps,
            ));
        }
        out.pop();
        Ok(out)
    }
}

/// Splits a trailing `--metrics <path>` flag off a positional argv,
/// returning the remaining positionals and the path (if given).
fn split_metrics_flag<'a>(args: &[&'a str]) -> Result<(Vec<&'a str>, Option<String>), String> {
    let mut positional = Vec::new();
    let mut path = None;
    let mut it = args.iter();
    while let Some(&arg) = it.next() {
        if arg == "--metrics" {
            let p = it.next().ok_or("--metrics needs a <path> argument")?;
            path = Some((*p).to_string());
        } else {
            positional.push(arg);
        }
    }
    Ok((positional, path))
}

/// Entry point of `hdhash-cli stats [requests] [format]` — one unified
/// [`TelemetrySnapshot`](hdhash::obs::TelemetrySnapshot) spanning every
/// layer: a traced serving burst (engine + tracer), a 2-replica
/// in-process gossip convergence (gossip), a loopback TCP exchange
/// (tcp), and a seeded lossy chaos run (chaos). `format` is
/// `prometheus` (default) or `json`.
fn stats_main(args: &[String]) -> i32 {
    match run_stats(args) {
        Ok(out) => {
            println!("{out}");
            0
        }
        Err(e) => {
            eprintln!("stats error: {e}");
            1
        }
    }
}

fn run_stats(args: &[String]) -> Result<String, String> {
    use hdhash::obs::{TelemetrySnapshot, TraceConfig};
    use hdhash::serve::chaos::{ChaosNetwork, FaultPlan, LinkFaults};
    use hdhash::serve::gossip::{converged, run_round, GossipConfig, GossipMessage, GossipNode};
    use hdhash::serve::replication::ReplicatedEngine;
    use hdhash::serve::tcp::{TcpConfig, TcpNetwork};
    use hdhash::serve::telemetry;
    use hdhash::serve::transport::{InProcessNetwork, ReplicaId, Transport};
    use std::sync::Arc;
    use std::time::Duration;

    let requests: usize = match args.first() {
        Some(v) => v.parse().map_err(|_| format!("bad request count `{v}`"))?,
        None => 2_000,
    };
    let format = args.get(1).map_or("prometheus", String::as_str);
    if format != "prometheus" && format != "json" {
        return Err(format!("unknown format `{format}`; prometheus or json"));
    }
    let mut out = TelemetrySnapshot::new();

    // Engine + tracer: a closed-loop burst with every request sampled.
    let config = hdhash::serve::ServeConfig {
        workers: 2,
        dimension: 2048,
        codebook_size: 64,
        trace: TraceConfig::sampled(1),
        ..hdhash::serve::ServeConfig::default()
    };
    let mut engine = hdhash::serve::ServeEngine::new(config).map_err(|e| e.to_string())?;
    for id in 0..32u64 {
        engine.join(ServerId::new(id)).map_err(|e| e.to_string())?;
    }
    let workload = hdhash::emulator::Workload {
        initial_servers: 0,
        lookups: requests,
        ..hdhash::emulator::Workload::default()
    };
    let stream = hdhash::emulator::Generator::new(workload).lookup_requests();
    let _ = hdhash::serve::drive(&engine, &stream, 256);
    engine.shutdown();
    telemetry::export_engine(&mut out, &[], &engine.metrics());
    telemetry::export_tracer(&mut out, &[], &engine.tracer().stats());

    // Gossip: two in-process replicas diverge, then converge.
    let replica_config = hdhash::serve::ServeConfig {
        workers: 1,
        dimension: 1024,
        codebook_size: 32,
        ..hdhash::serve::ServeConfig::default()
    };
    let network = InProcessNetwork::new();
    let peers = vec![ReplicaId::new(0), ReplicaId::new(1)];
    let replicas: Vec<Arc<ReplicatedEngine>> = peers
        .iter()
        .map(|&id| {
            ReplicatedEngine::new(id, replica_config).map(Arc::new).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let nodes: Vec<_> = peers
        .iter()
        .zip(&replicas)
        .map(|(&id, replica)| {
            GossipNode::new(
                Arc::clone(replica),
                network.endpoint(id),
                peers.clone(),
                GossipConfig::default(),
            )
        })
        .collect();
    for id in 0..8u64 {
        replicas[0].join(ServerId::new(id)).map_err(|e| e.to_string())?;
    }
    for id in 5..12u64 {
        replicas[1].join(ServerId::new(id)).map_err(|e| e.to_string())?;
    }
    let mut rounds = 0;
    while !converged(&[&replicas[0], &replicas[1]]) {
        rounds += 1;
        if rounds > 32 {
            return Err("gossip failed to converge in 32 rounds".into());
        }
        run_round(&nodes);
    }
    for (i, node) in nodes.iter().enumerate() {
        let idx = i.to_string();
        telemetry::export_gossip(&mut out, &[("replica", idx.as_str())], &node.metrics());
    }

    // TCP: one advert across a real loopback socket pair.
    let a = TcpNetwork::bind(ReplicaId::new(0), "127.0.0.1:0", TcpConfig::default())
        .map_err(|e| e.to_string())?;
    let b = TcpNetwork::bind(ReplicaId::new(1), "127.0.0.1:0", TcpConfig::default())
        .map_err(|e| e.to_string())?;
    a.add_peer(ReplicaId::new(1), b.local_addr());
    let (ea, eb) = (a.endpoint(), b.endpoint());
    ea.send(
        ReplicaId::new(1),
        GossipMessage::Advert { round: 1, digest: 0, ack: None },
    )
    .map_err(|e| e.to_string())?;
    if eb.recv_timeout(Duration::from_secs(10)).is_none() {
        return Err("loopback TCP advert never arrived".into());
    }
    telemetry::export_tcp(&mut out, &[("replica", "0")], &a.stats());

    // Chaos: a seeded lossy link, counters reconciling by construction.
    let net = ChaosNetwork::new(FaultPlan::new(0x57A75).with_default_link(LinkFaults::lossy(250)));
    let ca = net.endpoint(ReplicaId::new(0));
    let cb = net.endpoint(ReplicaId::new(1));
    for round in 0..40 {
        ca.send(
            ReplicaId::new(1),
            GossipMessage::Advert { round, digest: 0, ack: None },
        )
        .map_err(|e| e.to_string())?;
    }
    while cb.try_recv().is_some() {}
    telemetry::export_chaos(&mut out, &[], &net.stats());

    Ok(if format == "json" { out.to_json() } else { out.to_prometheus() })
}

/// Entry point of `hdhash-cli simulate <scenario> [--seed N] [--metrics
/// <path>]` — runs one catalog scenario (see `docs/SCENARIOS.md`) through
/// the scenario engine and prints its per-phase trajectory. With
/// `--metrics`, tracing samples at 1/64 and the unified Prometheus
/// exposition is rewritten to `path` at every phase boundary (the
/// scenario clock is quiescent there, so the dump never perturbs the
/// deterministic counters). `SCENARIO_SEED` overrides the default seed;
/// `--seed` overrides both.
fn simulate_main(args: &[String]) -> i32 {
    match run_simulate(args) {
        Ok(out) => {
            println!("{out}");
            0
        }
        Err(e) => {
            eprintln!("simulate error: {e}");
            1
        }
    }
}

fn run_simulate(args: &[String]) -> Result<String, String> {
    use hdhash::serve::scenario::{self, catalog, Scenario, ScenarioConfig};

    let mut name = None;
    let mut seed = std::env::var("SCENARIO_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0x5CE4_A210);
    let mut metrics_path = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a <u64> argument")?;
                seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--metrics" => {
                metrics_path =
                    Some(it.next().ok_or("--metrics needs a <path> argument")?.clone());
            }
            other if name.is_none() => name = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let names: Vec<&str> = catalog().iter().map(|s| s.name).collect();
    let name = name.ok_or_else(|| {
        format!("usage: simulate <scenario> [--seed N] [--metrics path]; one of {names:?}")
    })?;
    let s = Scenario::by_name(&name)
        .ok_or_else(|| format!("unknown scenario `{name}`; one of {names:?}"))?;

    let mut config = ScenarioConfig::small();
    if metrics_path.is_some() {
        config.engine.trace = hdhash::obs::TraceConfig::sampled(64);
    }
    let mut out = format!(
        "scenario {name}: {} tick(s) × {} replica(s), seed {seed} \
         (replay: SCENARIO_SEED={seed} hdhash-cli simulate {name})\n",
        s.ticks, s.replicas
    );
    let report = scenario::run_with_observer(&s, &config, seed, |phase, engine| {
        out.push_str(&format!(
            "  phase {}: {:>6} offered, {:>6} done, {:>5} shed, members {:>3}, \
             epoch {:>3} (lag {}), {:>8.0} req/s",
            phase.phase,
            phase.arrivals,
            phase.completed,
            phase.shed,
            phase.members,
            phase.epoch_max,
            phase.epoch_lag,
            phase.throughput_rps(),
        ));
        if let Some(p99) = phase.latency.quantile(0.99) {
            out.push_str(&format!(", p99 {:.1} µs", p99 as f64 / 1e3));
        }
        out.push('\n');
        if let Some(path) = metrics_path.as_deref() {
            let mut snap = hdhash::obs::TelemetrySnapshot::new();
            let phase_label = phase.phase.to_string();
            let labels = [("scenario", name.as_str()), ("phase", phase_label.as_str())];
            hdhash::serve::telemetry::export_engine(&mut snap, &labels, &engine.metrics());
            hdhash::serve::telemetry::export_tracer(&mut snap, &labels, &engine.tracer().stats());
            if let Err(e) = std::fs::write(path, snap.to_prometheus()) {
                out.push_str(&format!("  (metrics write to {path} failed: {e})\n"));
            }
        }
    })
    .map_err(|e| e.to_string())?;
    out.push_str(&format!(
        "run fingerprint {:#018x}; {} completed, {} shed, {} hung, {} epoch mismatch(es)",
        report.fingerprint(),
        report.total(|p| p.completed),
        report.total(|p| p.shed),
        report.hung_tickets,
        report.epoch_mismatches,
    ));
    if s.replicas > 1 {
        out.push_str(&format!(
            "\nreplica set {} after {} recovery round(s)",
            if report.converged { "converged (identical members)" } else { "DIVERGED" },
            report.recovery_rounds,
        ));
    }
    if let Some(path) = metrics_path.as_deref() {
        out.push_str(&format!("\ntelemetry exposition written to {path}"));
    }
    Ok(out)
}

const HELP: &str = r"
commands:
  new <algorithm> [capacity]   create a table (modular|consistent|rendezvous|hd|hd-parallel|maglev)
  join <id>...                 add servers
  leave <id>...                remove servers
  lookup <key>...              route request keys
  spread [n]                   route n keys (default 10000), print balance + chi^2
  snapshot [n]                 remember the current assignment of n keys
  diff [n]                     mismatch %% of current assignment vs snapshot
  noise <bits> [seed]          inject independent bit errors into stored state
  burst <bits> [seed]          inject one adjacent-bit burst (MCU)
  clear                        repair all injected noise
  stats                        table summary
  serve [workers] [n]          closed-loop burst through the serving engine; add
                               --metrics <path> to sample tracing at 1/64 and
                               periodically dump the Prometheus exposition
  replicate [ops]              anti-entropy demo: diverge two replicas, gossip to convergence
  accel [servers] [d]          projected single-cycle lookup time on HDC hardware
  quit                         exit

process modes (argv, not shell commands):
  hdhash-cli stats [n] [format]    run traced bursts through every layer and
                                   print one unified telemetry snapshot
                                   (format: prometheus | json)
  hdhash-cli cluster [n] [churn]   spawn n replica processes gossiping over
                                   loopback TCP, churn, converge, SIGKILL one,
                                   restart it, and prove reconvergence; prints
                                   a per-replica telemetry table at teardown
  hdhash-cli cluster-replica ...   one replica process (spawned by `cluster`);
                                   add --metrics <path> [interval_ms] to
                                   periodically dump its Prometheus exposition
  hdhash-cli simulate <scenario>   run one catalog scenario (steady | diurnal |
                                   flash-crowd | zipf-hotspot | correlated-bursts |
                                   churn-storm | crash-rejoin) through the
                                   scenario engine; --seed N pins the run
                                   (SCENARIO_SEED env works too), --metrics
                                   <path> dumps the Prometheus exposition at
                                   every phase boundary
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("cluster") => std::process::exit(cluster::driver_main(&args[1..])),
        Some("cluster-replica") => std::process::exit(cluster::replica_main(&args[1..])),
        Some("stats") => std::process::exit(stats_main(&args[1..])),
        Some("simulate") => std::process::exit(simulate_main(&args[1..])),
        _ => {}
    }
    let stdin = std::io::stdin();
    let interactive = atty_stdin();
    let mut shell = Shell::new();
    if interactive {
        println!("hdhash-cli — type `help` for commands");
    }
    loop {
        if interactive {
            print!("> ");
            let _ = std::io::stdout().flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let line = line.trim();
        if line == "quit" || line == "exit" {
            break;
        }
        match shell.execute(line) {
            Ok(out) if out.is_empty() => {}
            Ok(out) => println!("{out}"),
            Err(err) => println!("error: {err}"),
        }
    }
}

/// Rough interactivity probe without extra dependencies: non-interactive
/// runs set `HDHASH_CLI_BATCH=1` or pipe stdin (detected by the first
/// failed prompt being harmless either way).
fn atty_stdin() -> bool {
    std::env::var_os("HDHASH_CLI_BATCH").is_none()
}

/// Multi-process cluster mode: a driver (`hdhash-cli cluster`) that
/// spawns N replica processes (`hdhash-cli cluster-replica`), each
/// running a [`ReplicatedEngine`](hdhash::serve::replication) gossiping
/// over framed loopback TCP, and a crash-recovery script: churn,
/// converge, SIGKILL one replica mid-churn, restart it on a fresh port,
/// and prove the cluster reconverges to identical membership digests.
///
/// The driver↔replica protocol is line-oriented over stdin/stdout (one
/// response line per command), so a supervisor harness — or a human with
/// a pipe — can drive a replica directly:
///
/// ```text
/// $ hdhash-cli cluster-replica 0 1024 128 1789 20
/// listening 40123            # OS-assigned loopback port
/// peer 1 127.0.0.1:40124     -> ok
/// start                      -> ok
/// join 7                     -> ok
/// members                    -> members 7
/// digest                     -> digest <32 hex digits>
/// metrics                    -> metrics frames_sent=… bytes_sent=…
/// quit                       -> bye
/// ```
mod cluster {
    use std::io::{BufRead, BufReader, Write};
    use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use hdhash::serve::gossip::{GossipConfig, GossipNode};
    use hdhash::serve::replication::ReplicatedEngine;
    use hdhash::serve::tcp::{TcpConfig, TcpEndpoint, TcpNetwork};
    use hdhash::serve::transport::ReplicaId;
    use hdhash::serve::ServeConfig;
    use hdhash::table::{RequestKey, ServerId};

    /// Rewrites the replica's whole Prometheus exposition to `path`
    /// (engine, gossip once started, TCP, tracer — all labeled with the
    /// replica id). Best-effort: a failed write is retried next tick.
    fn write_exposition(
        path: &str,
        replica: &ReplicatedEngine,
        endpoint: &TcpEndpoint,
        gossip: Option<&GossipNode<TcpEndpoint>>,
    ) {
        use hdhash::serve::telemetry;
        let mut snap = hdhash::obs::TelemetrySnapshot::new();
        let id = replica.id().get().to_string();
        let labels = [("replica", id.as_str())];
        telemetry::export_engine(&mut snap, &labels, &replica.engine().metrics());
        if let Some(node) = gossip {
            telemetry::export_gossip(&mut snap, &labels, &node.metrics());
        }
        telemetry::export_tcp(&mut snap, &labels, &endpoint.stats());
        telemetry::export_tracer(&mut snap, &labels, &replica.engine().tracer().stats());
        let _ = std::fs::write(path, snap.to_prometheus());
    }

    /// Socket deadlines tuned for loopback: fast enough that a SIGKILLed
    /// peer is noticed in tens of milliseconds, long enough to never
    /// false-positive on a loaded CI box.
    fn tcp_config() -> TcpConfig {
        TcpConfig {
            connect_timeout: Duration::from_millis(400),
            read_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_secs(1),
            reconnect_base: Duration::from_millis(25),
            reconnect_cap: Duration::from_millis(500),
            outbox_capacity: 1024,
        }
    }

    fn parse<T: std::str::FromStr>(args: &[String], at: usize, name: &str) -> Result<T, String> {
        let raw = args.get(at).ok_or_else(|| format!("missing argument <{name}>"))?;
        raw.parse().map_err(|_| format!("bad {name} `{raw}`"))
    }

    // ------------------------------------------------------------------
    // Replica process
    // ------------------------------------------------------------------

    /// Entry point of `hdhash-cli cluster-replica <id> <dimension>
    /// <codebook> <seed> <period_ms>`.
    pub fn replica_main(args: &[String]) -> i32 {
        match run_replica(args) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("cluster-replica error: {e}");
                1
            }
        }
    }

    fn run_replica(args: &[String]) -> Result<(), String> {
        let id: u64 = parse(args, 0, "id")?;
        let dimension: usize = parse(args, 1, "dimension")?;
        let codebook: usize = parse(args, 2, "codebook")?;
        let seed: u64 = parse(args, 3, "seed")?;
        let period_ms: u64 = parse(args, 4, "period_ms")?;
        // Optional: `--metrics <path> [interval_ms]` — a background
        // thread rewrites the whole Prometheus exposition to `path`
        // every interval (default 500ms), and tracing turns on at 1/64.
        let metrics_out = match args.iter().position(|a| a == "--metrics") {
            None => None,
            Some(at) => {
                let path = args
                    .get(at + 1)
                    .filter(|p| !p.starts_with("--"))
                    .ok_or("--metrics needs a <path> argument")?
                    .clone();
                let interval: u64 =
                    args.get(at + 2).map_or(Ok(500), |v| {
                        v.parse().map_err(|_| format!("bad interval `{v}`"))
                    })?;
                Some((path, Duration::from_millis(interval.max(20))))
            }
        };
        let local = ReplicaId::new(id);
        let network =
            TcpNetwork::bind(local, "127.0.0.1:0", tcp_config()).map_err(|e| e.to_string())?;
        let config = ServeConfig {
            workers: 1,
            queue_capacity: 256,
            dimension,
            codebook_size: codebook,
            seed,
            trace: if metrics_out.is_some() {
                hdhash::obs::TraceConfig::sampled(64)
            } else {
                hdhash::obs::TraceConfig::disabled()
            },
            ..ServeConfig::default()
        };
        let replica = Arc::new(ReplicatedEngine::new(local, config).map_err(|e| e.to_string())?);
        network.set_tracer(replica.engine().tracer());
        let mut stdout = std::io::stdout();
        let mut respond = |line: &str| -> Result<(), String> {
            writeln!(stdout, "{line}").and_then(|()| stdout.flush()).map_err(|e| e.to_string())
        };
        respond(&format!("listening {}", network.local_addr().port()))?;
        let mut gossip = None;
        // Shared view of the running gossip node for the metrics thread
        // (filled by `start`).
        let gossip_slot: Arc<std::sync::Mutex<Option<Arc<GossipNode<TcpEndpoint>>>>> =
            Arc::new(std::sync::Mutex::new(None));
        let stop_metrics = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let metrics_thread = metrics_out.map(|(path, interval)| {
            let replica = Arc::clone(&replica);
            // Stats-only endpoint: it never receives, so it doesn't
            // compete with the gossip node for inbox messages.
            let endpoint = network.endpoint();
            let slot = Arc::clone(&gossip_slot);
            let stop = Arc::clone(&stop_metrics);
            std::thread::spawn(move || {
                loop {
                    let node = slot.lock().expect("metrics slot poisoned").clone();
                    write_exposition(&path, &replica, &endpoint, node.as_deref());
                    if stop.load(std::sync::atomic::Ordering::Acquire) {
                        break;
                    }
                    std::thread::sleep(interval);
                }
            })
        });
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = line.map_err(|e| e.to_string())?;
            let mut parts = line.split_whitespace();
            let Some(command) = parts.next() else { continue };
            let args: Vec<&str> = parts.collect();
            let reply = match command {
                "peer" => match (args.first(), args.get(1)) {
                    (Some(peer), Some(addr)) => {
                        match (peer.parse::<u64>(), addr.parse::<std::net::SocketAddr>()) {
                            (Ok(peer), Ok(addr)) => {
                                network.add_peer(ReplicaId::new(peer), addr);
                                "ok".to_string()
                            }
                            _ => format!("err bad peer line `{line}`"),
                        }
                    }
                    _ => "err usage: peer <id> <ip:port>".to_string(),
                },
                "start" => {
                    if gossip.is_some() {
                        "err already started".to_string()
                    } else {
                        let node = GossipNode::new(
                            Arc::clone(&replica),
                            network.endpoint(),
                            network.peers(),
                            GossipConfig {
                                period: Duration::from_millis(period_ms),
                                ..GossipConfig::default()
                            },
                        )
                        .with_tracer(replica.engine().tracer());
                        let handle = node.spawn();
                        *gossip_slot.lock().expect("metrics slot poisoned") =
                            Some(handle.shared_node());
                        gossip = Some(handle);
                        "ok".to_string()
                    }
                }
                "join" | "leave" => match args.first().map(|a| a.parse::<u64>()) {
                    Some(Ok(server)) => {
                        let server = ServerId::new(server);
                        let outcome = if command == "join" {
                            replica.join(server)
                        } else {
                            replica.leave(server)
                        };
                        match outcome {
                            Ok(_) => "ok".to_string(),
                            Err(e) => format!("err {e}"),
                        }
                    }
                    _ => format!("err usage: {command} <server-id>"),
                },
                "members" => {
                    let ids: Vec<String> =
                        replica.member_ids().iter().map(|s| s.get().to_string()).collect();
                    format!("members {}", ids.join(" "))
                }
                "serve" => match args.first().map(|a| a.parse::<u64>()) {
                    Some(Ok(n)) => {
                        let (mut ok, mut failed) = (0u64, 0u64);
                        for k in 0..n {
                            match replica.submit(RequestKey::new(k)) {
                                Ok(ticket) => {
                                    if ticket.wait().result.is_ok() {
                                        ok += 1;
                                    } else {
                                        failed += 1;
                                    }
                                }
                                Err(_) => failed += 1,
                            }
                        }
                        format!("served {ok} {failed}")
                    }
                    _ => "err usage: serve <n>".to_string(),
                },
                "telemetry" => {
                    let metrics = replica.engine().metrics();
                    let p99_us =
                        metrics.shards[0].latency.as_ref().map_or(0, |l| l.p99.as_micros() as u64);
                    let (gossip_bytes, rounds) = match gossip.as_ref() {
                        Some(handle) => {
                            let m = handle.node().metrics();
                            (m.bytes_sent, m.rounds)
                        }
                        None => (0, 0),
                    };
                    format!(
                        "telemetry served={} p99_us={} gossip_bytes={} rounds={} reconnects={}",
                        metrics.completed,
                        p99_us,
                        gossip_bytes,
                        rounds,
                        network.stats().connections_reconnected,
                    )
                }
                "digest" => format!("digest {:032x}", replica.digest()),
                "metrics" => {
                    let s = network.stats();
                    format!(
                        "metrics frames_sent={} frames_received={} bytes_sent={} \
                         bytes_received={} connections_established={} connections_accepted={} \
                         connect_failures={} send_errors={} corrupt_frames={} partial_frames={} \
                         peer_backpressure_drops={}",
                        s.frames_sent,
                        s.frames_received,
                        s.bytes_sent,
                        s.bytes_received,
                        s.connections_established,
                        s.connections_accepted,
                        s.connect_failures,
                        s.send_errors,
                        s.corrupt_frames,
                        s.partial_frames,
                        s.peer_backpressure_drops,
                    )
                }
                "quit" => {
                    respond("bye")?;
                    break;
                }
                other => format!("err unknown command `{other}`"),
            };
            respond(&reply)?;
        }
        if let Some(handle) = gossip {
            let _ = handle.stop();
        }
        stop_metrics.store(true, std::sync::atomic::Ordering::Release);
        if let Some(thread) = metrics_thread {
            let _ = thread.join();
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Driver process
    // ------------------------------------------------------------------

    /// One spawned replica process, driven over its stdin/stdout pipe.
    struct Replica {
        id: u64,
        port: u16,
        child: Child,
        stdin: ChildStdin,
        lines: std::io::Lines<BufReader<ChildStdout>>,
    }

    impl Replica {
        fn spawn(id: u64, seed: u64, period_ms: u64) -> Result<Self, String> {
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            let mut child = Command::new(exe)
                .arg("cluster-replica")
                .args([
                    id.to_string(),
                    "1024".into(),
                    "128".into(),
                    seed.to_string(),
                    period_ms.to_string(),
                ])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn replica{id}: {e}"))?;
            let stdin = child.stdin.take().ok_or("no child stdin")?;
            let stdout = child.stdout.take().ok_or("no child stdout")?;
            let mut lines = BufReader::new(stdout).lines();
            let banner = lines
                .next()
                .ok_or_else(|| format!("replica{id} exited before its banner"))?
                .map_err(|e| e.to_string())?;
            let port = banner
                .strip_prefix("listening ")
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| format!("replica{id}: bad banner `{banner}`"))?;
            Ok(Self { id, port, child, stdin, lines })
        }

        fn addr(&self) -> String {
            format!("127.0.0.1:{}", self.port)
        }

        /// Sends one command line and reads its one response line.
        fn command(&mut self, command: &str) -> Result<String, String> {
            writeln!(self.stdin, "{command}")
                .and_then(|()| self.stdin.flush())
                .map_err(|e| format!("replica{}: write `{command}`: {e}", self.id))?;
            self.lines
                .next()
                .ok_or_else(|| format!("replica{}: eof after `{command}`", self.id))?
                .map_err(|e| e.to_string())
        }

        fn expect_ok(&mut self, command: &str) -> Result<(), String> {
            match self.command(command)? {
                ref ok if ok == "ok" => Ok(()),
                other => Err(format!("replica{}: `{command}` -> `{other}`", self.id)),
            }
        }

        /// Real SIGKILL — no shutdown handshake, no flushing.
        fn sigkill(&mut self) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }

        fn quit(&mut self) {
            let _ = self.command("quit");
            let _ = self.child.wait();
        }
    }

    impl Drop for Replica {
        fn drop(&mut self) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }

    /// Polls `digest` on every replica until the lines are identical.
    fn await_convergence(
        replicas: &mut [Replica],
        deadline: Duration,
    ) -> Result<(usize, String), String> {
        let start = Instant::now();
        let mut polls = 0;
        loop {
            polls += 1;
            let mut digests = Vec::with_capacity(replicas.len());
            for replica in replicas.iter_mut() {
                digests.push(replica.command("digest")?);
            }
            if digests.windows(2).all(|w| w[0] == w[1]) && digests[0].len() > "digest".len() {
                return Ok((polls, digests.remove(0)));
            }
            if start.elapsed() > deadline {
                return Err(format!(
                    "no convergence after {polls} polls ({}ms)",
                    start.elapsed().as_millis()
                ));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Entry point of `hdhash-cli cluster [replicas] [churn]`: the full
    /// crash-recovery story, exit code 0 only if every phase held.
    pub fn driver_main(args: &[String]) -> i32 {
        match run_driver(args) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("[cluster] FAILED: {e}");
                1
            }
        }
    }

    fn run_driver(args: &[String]) -> Result<(), String> {
        let n: u64 = args.first().map_or(Ok(3), |a| {
            a.parse().map_err(|_| format!("bad replica count `{a}`"))
        })?;
        let churn: u64 = args.get(1).map_or(Ok(24), |a| {
            a.parse().map_err(|_| format!("bad churn `{a}`"))
        })?;
        if n < 3 {
            return Err("need at least 3 replicas".into());
        }
        let (seed, period_ms) = (0x7EA_C1u64, 20u64);
        println!("[cluster] spawning {n} replica processes (churn={churn})");
        let mut replicas = Vec::new();
        for id in 0..n {
            let replica = Replica::spawn(id, seed, period_ms)?;
            println!("[cluster] replica{id} pid {} listening on {}", replica.child.id(), replica.addr());
            replicas.push(replica);
        }
        // Full-mesh wiring, then start gossip everywhere.
        let addrs: Vec<String> = replicas.iter().map(Replica::addr).collect();
        for (i, replica) in replicas.iter_mut().enumerate() {
            for (j, addr) in addrs.iter().enumerate() {
                if i != j {
                    replica.expect_ok(&format!("peer {j} {addr}"))?;
                }
            }
            replica.expect_ok("start")?;
        }
        // Divergent churn: disjoint server ranges per replica, plus a few
        // conflicting leaves, all applied concurrently with live gossip.
        println!("[cluster] phase 1: divergent churn ({churn} joins per replica)");
        for (i, replica) in replicas.iter_mut().enumerate() {
            let base = i as u64 * 100;
            for server in base..base + churn {
                replica.expect_ok(&format!("join {server}"))?;
            }
        }
        for server in 0..3u64 {
            replicas[0].expect_ok(&format!("leave {server}"))?;
        }
        let (polls, _) = await_convergence(&mut replicas, Duration::from_secs(60))?;
        println!("[cluster] phase 1: converged after {polls} digest polls");
        // SIGKILL the last replica mid-churn: more churn lands on the
        // survivors while the corpse still holds its old port.
        let victim = replicas.len() - 1;
        let victim_id = replicas[victim].id;
        println!("[cluster] phase 2: SIGKILL replica{victim_id}");
        replicas[victim].sigkill();
        for (i, replica) in replicas[..victim].iter_mut().enumerate() {
            let base = 1000 + i as u64 * 100;
            for server in base..base + churn / 2 {
                replica.expect_ok(&format!("join {server}"))?;
            }
        }
        let (polls, _) = await_convergence(&mut replicas[..victim], Duration::from_secs(60))?;
        println!("[cluster] phase 2: survivors reconverged after {polls} digest polls");
        // Restart the victim on a fresh OS-assigned port, re-wire the
        // survivors to it, and demand identical digests across the full
        // cluster again.
        let restarted = Replica::spawn(victim_id, seed, period_ms)?;
        println!(
            "[cluster] phase 3: replica{victim_id} restarted on {} (was {})",
            restarted.addr(),
            replicas[victim].addr()
        );
        replicas[victim] = restarted;
        let new_addr = replicas[victim].addr();
        for survivor in replicas[..victim].iter_mut() {
            survivor.expect_ok(&format!("peer {victim_id} {new_addr}"))?;
        }
        let survivor_lines: Vec<String> = addrs[..victim]
            .iter()
            .enumerate()
            .map(|(j, addr)| format!("peer {j} {addr}"))
            .collect();
        for line in &survivor_lines {
            replicas[victim].expect_ok(line)?;
        }
        replicas[victim].expect_ok("start")?;
        let (polls, digest) = await_convergence(&mut replicas, Duration::from_secs(120))?;
        println!(
            "[cluster] phase 3: full cluster reconverged after {polls} digest polls ({digest})"
        );
        // Serve a lookup burst on every replica so the teardown
        // telemetry has real latency numbers behind it.
        for replica in &mut replicas {
            let reply = replica.command("serve 256")?;
            if !reply.starts_with("served ") {
                return Err(format!("replica{}: `serve` -> `{reply}`", replica.id));
            }
        }
        // Wire ledger + orderly teardown.
        let mut total_bytes = 0u64;
        for replica in &mut replicas {
            let metrics = replica.command("metrics")?;
            println!("[cluster] replica{} {metrics}", replica.id);
            for field in metrics.split_whitespace() {
                if let Some(v) = field.strip_prefix("bytes_sent=") {
                    total_bytes += v.parse::<u64>().unwrap_or(0);
                }
            }
        }
        println!("[cluster] total measured wire bytes sent: {total_bytes}");
        // Per-replica telemetry summary: the first place to look when a
        // SIGKILL/restart run fails on CI.
        println!(
            "[cluster] telemetry summary: {:>8} {:>10} {:>8} {:>14} {:>8} {:>12}",
            "replica", "served", "p99_us", "gossip_bytes", "rounds", "reconnects"
        );
        for replica in &mut replicas {
            let line = replica.command("telemetry")?;
            let get = |key: &str| -> String {
                line.split_whitespace()
                    .find_map(|field| field.strip_prefix(key).and_then(|f| f.strip_prefix('=')))
                    .unwrap_or("?")
                    .to_string()
            };
            println!(
                "[cluster] telemetry summary: {:>8} {:>10} {:>8} {:>14} {:>8} {:>12}",
                replica.id,
                get("served"),
                get("p99_us"),
                get("gossip_bytes"),
                get("rounds"),
                get("reconnects"),
            );
        }
        for replica in &mut replicas {
            replica.quit();
        }
        println!("[cluster] ok: {n} processes, SIGKILL + restart, identical digests");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(script: &[&str]) -> Vec<Result<String, String>> {
        let mut shell = Shell::new();
        script.iter().map(|line| shell.execute(line)).collect()
    }

    #[test]
    fn happy_path_session() {
        let results = run(&[
            "new hd 16",
            "join 1 2 3 4",
            "lookup 42",
            "spread 1000",
            "snapshot 1000",
            "noise 10",
            "diff 1000",
            "clear",
            "stats",
        ]);
        for (i, r) in results.iter().enumerate() {
            assert!(r.is_ok(), "step {i}: {r:?}");
        }
        assert!(results[6].as_ref().expect("diff ok").starts_with("0.000%"));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let results = run(&[
            "lookup 1",          // no table yet
            "new bogus",         // unknown algorithm
            "new consistent 8",
            "join x",            // bad id
            "leave 77",          // not joined
            "lookup 1",          // empty pool
            "diff",              // no snapshot
            "frobnicate",        // unknown command
        ]);
        assert!(results[0].is_err());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
        assert!(results[3].is_err());
        assert!(results[4].is_err());
        assert!(results[5].is_err());
        assert!(results[6].is_err());
        assert!(results[7].is_err());
    }

    #[test]
    fn noise_then_diff_shows_consistent_corruption() {
        let mut shell = Shell::new();
        shell.execute("new consistent 64").expect("ok");
        shell
            .execute(&format!("join {}", (0..64).map(|i| i.to_string()).collect::<Vec<_>>().join(" ")))
            .expect("ok");
        shell.execute("snapshot 4000").expect("ok");
        shell.execute("noise 20 7").expect("ok");
        let diff = shell.execute("diff 4000").expect("ok");
        let pct: f64 = diff.split('%').next().expect("pct").parse().expect("number");
        assert!(pct > 0.0, "consistent hashing should corrupt: {diff}");
        shell.execute("clear").expect("ok");
        let healed = shell.execute("diff 4000").expect("ok");
        assert!(healed.starts_with("0.000%"), "{healed}");
    }

    #[test]
    fn help_and_empty_lines() {
        let mut shell = Shell::new();
        assert!(shell.execute("help").expect("ok").contains("commands"));
        assert_eq!(shell.execute("   ").expect("ok"), "");
    }

    #[test]
    fn serve_runs_a_closed_loop_burst() {
        let mut shell = Shell::new();
        let out = shell.execute("serve 2 500").expect("ok");
        assert!(out.contains("served 500 lookups with 2 worker(s)"), "{out}");
        assert!(out.contains("table: epoch 32, 32 member(s), 500 served"), "{out}");
        assert!(out.contains("latency p50"), "{out}");
        assert!(shell.execute("serve x").is_err());
        assert!(shell.execute("serve 2 100 bogus").is_err());
    }

    #[test]
    fn simulate_runs_a_catalog_scenario() {
        let out = run_simulate(&["steady".into(), "--seed".into(), "7".into()])
            .expect("catalog scenario runs");
        assert!(out.contains("scenario steady"), "{out}");
        assert!(out.contains("SCENARIO_SEED=7"), "{out}");
        assert!(out.contains("phase 0:"), "{out}");
        assert!(out.contains("run fingerprint"), "{out}");
        assert!(out.contains("0 hung"), "{out}");
        // Same seed ⇒ same printed fingerprint line.
        let rerun = run_simulate(&["steady".into(), "--seed".into(), "7".into()])
            .expect("rerun");
        let fp = |s: &str| {
            s.lines().find(|l| l.starts_with("run fingerprint")).map(str::to_owned)
        };
        assert_eq!(fp(&out), fp(&rerun));
        assert!(run_simulate(&["no-such-scenario".into()]).is_err());
        assert!(run_simulate(&[]).is_err());
    }

    #[test]
    fn accel_reports_all_corners() {
        let mut shell = Shell::new();
        // Works without a table (defaults to the paper's 512 servers)...
        let out = shell.execute("accel").expect("ok");
        assert!(out.contains("512 servers"));
        assert!(out.contains("fpga-28nm") && out.contains("asic-7nm"));
        // ...picks up the live pool size...
        shell.execute("new hd 16").expect("ok");
        shell.execute("join 1 2 3").expect("ok");
        assert!(shell.execute("accel").expect("ok").contains("3 servers"));
        // ...and accepts explicit shape arguments.
        assert!(shell.execute("accel 64 4096").expect("ok").contains("64 servers, d = 4096"));
        assert!(shell.execute("accel x").is_err());
    }
}
