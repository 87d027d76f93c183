//! A closed-loop serving demo: the emulator's generator feeds the serving
//! engine while membership churns through the epoch path.
//!
//! ```text
//! cargo run --release --example serving
//! cargo run --release --example serving -- trace.jsonl metrics.prom
//! ```
//!
//! The optional arguments turn the unified telemetry layer on: the
//! drained trace ring is written as JSONL to the first argument and a
//! Prometheus exposition covering every layer (engine, gossip, TCP,
//! tracer) is written to the second. CI's observability job
//! runs the example this way and validates both files offline (see
//! `docs/OBSERVABILITY.md`).
//!
//! Architecture exercised (see README "Serving layer"):
//!
//! ```text
//! generator ──► request queue ──► coalescing workers ──► table ──► metrics
//! ```
//!
//! The churn phase keeps a window of tickets in flight and redeems them
//! oldest first while a churn thread reconfigures the table.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hdhash::emulator::{Generator, KeyDistribution, Workload};
use hdhash::obs::{TraceConfig, TraceEvent, TelemetrySnapshot};
use hdhash::serve::gossip::{converged, GossipConfig, GossipNode};
use hdhash::serve::replication::ReplicatedEngine;
use hdhash::serve::tcp::{TcpConfig, TcpNetwork};
use hdhash::serve::telemetry::{export_engine, export_gossip, export_tcp, export_tracer};
use hdhash::serve::transport::ReplicaId;
use hdhash::serve::{drive, ServeConfig, ServeEngine};
use hdhash::table::{RequestKey, ServerId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let trace_out = args.next();
    let metrics_out = args.next();
    let telemetry_on = trace_out.is_some() || metrics_out.is_some();
    let trace =
        if telemetry_on { TraceConfig::sampled(64) } else { TraceConfig::disabled() };
    let config = ServeConfig {
        workers: 2,
        batch_capacity: 64,
        queue_capacity: 4096,
        dimension: 4096,
        codebook_size: 256,
        seed: 2022,
        trace,
        ..ServeConfig::default()
    };
    println!(
        "engine: {} workers, batch capacity {}, queue capacity {}",
        config.workers, config.batch_capacity, config.queue_capacity,
    );
    let mut engine = ServeEngine::new(config)?;

    // A fleet of 48 servers joins; every join publishes one epoch.
    for id in 0..48u64 {
        engine.join(ServerId::new(id))?;
    }
    println!("joined 48 servers; epoch {}", engine.snapshots()[0].epoch);

    // Phase 1: a Zipf-skewed closed-loop burst (web-style traffic).
    let workload = Workload {
        initial_servers: 0,
        lookups: 30_000,
        keys: KeyDistribution::Zipf { universe: 10_000, exponent: 1.1 },
        seed: 7,
    };
    let stream = Generator::new(workload).lookup_requests();
    let report = drive(&engine, &stream, 512);
    println!(
        "\nphase 1 — steady state: {} lookups in {:?} ({:.0} req/s, {} rejected)",
        report.completed,
        report.elapsed,
        report.throughput().requests_per_sec(),
        report.rejected,
    );
    if let Some(latency) = report.latency {
        println!(
            "  latency p50 {:?} / p90 {:?} / p99 {:?} / max {:?}",
            latency.p50, latency.p90, latency.p99, latency.max
        );
    }

    // Phase 2: churn — requests race membership changes through the epoch
    // path. Readers never block on the reconfigurations; responses carry
    // the epoch they were served at. A window of 64 tickets stays in
    // flight.
    let verdicts = std::thread::scope(|scope| {
        let engine = &engine;
        let churner = scope.spawn(move || {
            for id in 0..12u64 {
                engine.leave(ServerId::new(id)).expect("member");
                engine.join(ServerId::new(100 + id)).expect("fresh");
            }
        });
        let mut epochs_seen = std::collections::BTreeSet::new();
        let mut served = 0usize;
        let mut redeem = |ticket: hdhash::serve::Ticket| {
            let response = ticket.wait();
            assert!(response.result.is_ok(), "pool never empties during churn");
            epochs_seen.insert(response.epoch);
            served += 1;
        };
        let mut window = std::collections::VecDeque::new();
        for k in 0..10_000u64 {
            if window.len() >= 64 {
                redeem(window.pop_front().expect("non-empty window"));
            }
            window.push_back(
                engine
                    .submit(RequestKey::new(k.wrapping_mul(0x9E37_79B9)))
                    .expect("queue sized for the load"),
            );
        }
        window.into_iter().for_each(&mut redeem);
        churner.join().expect("churner");
        (served, epochs_seen.len())
    });
    println!(
        "\nphase 2 — churn race: {} lookups served across {} distinct epochs, \
         zero failures",
        verdicts.0, verdicts.1
    );

    engine.shutdown();
    let metrics = engine.metrics();
    let table = &metrics.shards[0];
    println!(
        "\ntable: epoch {}, {} members, {} served, {} batches, mean fill {:.1}",
        table.epoch, table.members, table.served, table.batches, table.mean_batch_fill
    );
    println!(
        "engine totals: {} submitted, {} completed, {} rejected",
        metrics.submitted, metrics.completed, metrics.rejected
    );

    // Phase 3: a 2-replica cluster gossips divergent membership over
    // loopback TCP until anti-entropy converges it. With telemetry on,
    // every layer shares one tracer per replica, so the drained ring
    // interleaves request, gossip, and transport lifecycles.
    let (events, snapshot) = replicated_phase(trace, &engine)?;
    println!(
        "\nphase 3 — replicated anti-entropy over TCP: converged; \
         {} trace events captured across all layers",
        events.len()
    );

    if let Some(path) = trace_out.as_deref() {
        std::fs::write(path, hdhash::obs::jsonl(&events))?;
        println!("trace JSONL written to {path} ({} events)", events.len());
    }
    if let Some(path) = metrics_out.as_deref() {
        std::fs::write(path, snapshot.to_prometheus())?;
        println!("telemetry exposition written to {path}");
    }
    Ok(())
}

/// Runs the 2-replica gossip-over-TCP phase and folds the whole
/// process — the phase-1/2 engine plus both replicas — into one
/// [`TelemetrySnapshot`] and one drained event list.
fn replicated_phase(
    trace: TraceConfig,
    front: &ServeEngine,
) -> Result<(Vec<TraceEvent>, TelemetrySnapshot), Box<dyn std::error::Error>> {
    let tcp = TcpConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_millis(100),
        write_timeout: Duration::from_secs(1),
        reconnect_base: Duration::from_millis(10),
        reconnect_cap: Duration::from_millis(200),
        outbox_capacity: 1024,
    };
    let networks: Vec<TcpNetwork> = (0..2)
        .map(|i| TcpNetwork::bind(ReplicaId::new(i), "127.0.0.1:0", tcp))
        .collect::<Result<_, _>>()?;
    let addrs: Vec<_> = networks.iter().map(TcpNetwork::local_addr).collect();
    for (i, network) in networks.iter().enumerate() {
        for (j, &addr) in addrs.iter().enumerate() {
            if i != j {
                network.add_peer(ReplicaId::new(j as u64), addr);
            }
        }
    }
    let config = ServeConfig {
        workers: 2,
        dimension: 1024,
        codebook_size: 32,
        trace,
        ..ServeConfig::default()
    };
    let peers: Vec<ReplicaId> = (0..2).map(ReplicaId::new).collect();
    let replicas: Vec<Arc<ReplicatedEngine>> = (0..2)
        .map(|i| Ok(Arc::new(ReplicatedEngine::new(ReplicaId::new(i), config)?)))
        .collect::<Result<_, hdhash::serve::ServeError>>()?;
    let nodes: Vec<GossipNode<_>> = replicas
        .iter()
        .zip(&networks)
        .map(|(replica, network)| {
            let tracer = replica.engine().tracer();
            network.set_tracer(Arc::clone(&tracer));
            GossipNode::new(
                Arc::clone(replica),
                network.endpoint(),
                peers.clone(),
                GossipConfig { period: Duration::from_millis(10), ..GossipConfig::default() },
            )
            .with_tracer(tracer)
        })
        .collect();

    // Divergent joins force a real sync exchange, not just adverts.
    for id in 0..10u64 {
        replicas[0].join(ServerId::new(id))?;
    }
    for id in 6..14u64 {
        replicas[1].join(ServerId::new(id))?;
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        for node in &nodes {
            node.tick();
        }
        std::thread::sleep(Duration::from_millis(20));
        for node in &nodes {
            node.pump();
        }
        let views: Vec<&ReplicatedEngine> = replicas.iter().map(Arc::as_ref).collect();
        if converged(&views) {
            break;
        }
        if Instant::now() >= deadline {
            return Err("replicas did not converge over TCP".into());
        }
    }
    // Convergence can land before the last sync responses are handled;
    // pump until both mailboxes stay idle so the trace records the
    // completed exchanges, not only their starts.
    loop {
        std::thread::sleep(Duration::from_millis(20));
        if nodes.iter().map(GossipNode::pump).sum::<usize>() == 0 {
            break;
        }
    }
    // A short lookup burst per replica so the per-replica engine metrics
    // in the exposition carry real traffic.
    for replica in &replicas {
        for k in 0..32u64 {
            let ticket = replica.submit(RequestKey::new(k))?;
            let _ = ticket.wait();
        }
    }

    let mut snapshot = TelemetrySnapshot::new();
    export_engine(&mut snapshot, &[("stage", "front")], &front.metrics());
    export_tracer(&mut snapshot, &[("stage", "front")], &front.tracer().stats());
    let mut events = front.tracer().drain();
    for (i, (replica, network)) in replicas.iter().zip(&networks).enumerate() {
        let idx = i.to_string();
        let labels: [(&str, &str); 1] = [("replica", idx.as_str())];
        export_engine(&mut snapshot, &labels, &replica.engine().metrics());
        export_gossip(&mut snapshot, &labels, &nodes[i].metrics());
        export_tcp(&mut snapshot, &labels, &network.stats());
        export_tracer(&mut snapshot, &labels, &replica.engine().tracer().stats());
        events.extend(replica.engine().tracer().drain());
    }
    Ok((events, snapshot))
}
