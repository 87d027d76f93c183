//! The unified telemetry contract, end to end: one
//! [`TelemetrySnapshot`] built from a live 2-replica TCP cluster plus a
//! chaos run covers **every** layer (engine, gossip, TCP, chaos,
//! tracer), the Prometheus exposition survives the vendored strict
//! parser, and the drained trace ring replays the whole request/gossip
//! lifecycle as parseable JSONL.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdhash_obs::{jsonlite, promparse, SpanKind, TelemetrySnapshot, TraceConfig};
use hdhash_serve::chaos::{ChaosNetwork, FaultPlan, LinkFaults};
use hdhash_serve::gossip::{converged, GossipConfig, GossipNode};
use hdhash_serve::replication::ReplicatedEngine;
use hdhash_serve::tcp::{TcpConfig, TcpNetwork};
use hdhash_serve::telemetry::{
    export_chaos, export_engine, export_gossip, export_tcp, export_tracer,
};
use hdhash_serve::transport::{ReplicaId, Transport};
use hdhash_serve::{GossipMessage, ServeConfig};
use hdhash_table::{RequestKey, ServerId};

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 512,
        dimension: 1024,
        codebook_size: 32,
        seed,
        // Sample every request: this suite asserts on event presence.
        trace: TraceConfig::sampled(1),
        ..ServeConfig::default()
    }
}

fn tcp_config() -> TcpConfig {
    TcpConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_millis(100),
        write_timeout: Duration::from_secs(1),
        reconnect_base: Duration::from_millis(10),
        reconnect_cap: Duration::from_millis(200),
        outbox_capacity: 1024,
    }
}

/// Sends a bit of traffic through a deterministic chaos plan so the
/// chaos counters are non-trivial.
fn run_chaos_traffic() -> hdhash_serve::ChaosStats {
    let plan = FaultPlan::new(0x7E1E).with_default_link(LinkFaults::lossy(250));
    let net = ChaosNetwork::new(plan);
    let a = net.endpoint(ReplicaId::new(0));
    let b = net.endpoint(ReplicaId::new(1));
    for round in 0..40 {
        a.send(
            ReplicaId::new(1),
            GossipMessage::Advert { round, digest: 0, ack: None },
        )
        .expect("registered");
    }
    while b.try_recv().is_some() {}
    net.stats()
}

#[test]
fn one_snapshot_covers_every_layer() {
    // --- live 2-replica cluster over loopback TCP, tracing every request.
    let networks: Vec<TcpNetwork> = (0..2)
        .map(|i| {
            TcpNetwork::bind(ReplicaId::new(i), "127.0.0.1:0", tcp_config()).expect("bind")
        })
        .collect();
    let addrs: Vec<_> = networks.iter().map(TcpNetwork::local_addr).collect();
    for (i, network) in networks.iter().enumerate() {
        for (j, &addr) in addrs.iter().enumerate() {
            if i != j {
                network.add_peer(ReplicaId::new(j as u64), addr);
            }
        }
    }
    let peers: Vec<ReplicaId> = (0..2).map(ReplicaId::new).collect();
    let replicas: Vec<Arc<ReplicatedEngine>> = (0..2)
        .map(|i| {
            Arc::new(
                ReplicatedEngine::new(ReplicaId::new(i), serve_config(0x0B5)).expect("valid"),
            )
        })
        .collect();
    let nodes: Vec<GossipNode<_>> = replicas
        .iter()
        .zip(&networks)
        .map(|(replica, network)| {
            // One tracer per replica, shared across engine, gossip, and
            // TCP so the drained ring interleaves all three layers.
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

    // Divergent histories force a real sync exchange (SyncStart →
    // SyncComplete), then serve traffic on replica 0. Only replica 0's
    // node ticks: its advert makes replica 1 send the one SyncRequest,
    // and replica 1 can converge only by handling the SyncResponse it is
    // tracking, so the loop cannot stop before SyncComplete is recorded.
    // If both nodes ticked, each replica could converge by merging the
    // other's SyncRequest and stop with both responses unhandled.
    for id in 0..10u64 {
        replicas[0].join(ServerId::new(id)).expect("fresh");
    }
    for id in 6..14u64 {
        replicas[1].join(ServerId::new(id)).expect("fresh");
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        nodes[0].tick();
        std::thread::sleep(Duration::from_millis(20));
        for node in &nodes {
            node.pump();
        }
        let views: Vec<&ReplicatedEngine> = replicas.iter().map(Arc::as_ref).collect();
        if converged(&views) {
            break;
        }
        assert!(Instant::now() < deadline, "no convergence over TCP");
    }
    for i in 0..50u64 {
        let ticket = replicas[0].submit(RequestKey::new(i)).expect("accepted");
        assert!(ticket.wait().result.is_ok());
    }
    // `wait()` returns when the ticket fills, but the worker bumps the
    // completed counter after filling the whole batch — give the
    // counter a bounded moment to settle before snapshotting.
    let settle = Instant::now() + Duration::from_secs(10);
    while replicas[0].engine().metrics().completed < 50 {
        assert!(Instant::now() < settle, "completed counter never reached 50");
        std::thread::sleep(Duration::from_millis(5));
    }

    // --- one unified snapshot across all layers.
    let chaos = run_chaos_traffic();
    let mut out = TelemetrySnapshot::new();
    for (i, (replica, network)) in replicas.iter().zip(&networks).enumerate() {
        let idx = i.to_string();
        let labels: [(&str, &str); 1] = [("replica", idx.as_str())];
        export_engine(&mut out, &labels, &replica.engine().metrics());
        export_gossip(&mut out, &labels, &nodes[i].metrics());
        export_tcp(&mut out, &labels, &network.stats());
        export_tracer(&mut out, &labels, &replica.engine().tracer().stats());
    }
    export_chaos(&mut out, &[], &chaos);

    // Engine, gossip, TCP, chaos, and tracer families all present with
    // real traffic behind them.
    assert_eq!(out.total("hdhash_engine_completed_total"), 50.0);
    assert!(out.total("hdhash_gossip_rounds_total") >= 2.0);
    assert!(out.total("hdhash_gossip_syncs_sent_total") >= 1.0);
    assert!(out.total("hdhash_tcp_frames_sent_total") >= 1.0);
    assert_eq!(out.total("hdhash_chaos_offered_total"), 40.0);
    assert!(out.total("hdhash_trace_events_recorded_total") >= 1.0);
    // The satellite counters are part of the unified surface even at 0.
    for name in [
        "hdhash_engine_panics_contained_total",
        "hdhash_gossip_sync_retries_total",
        "hdhash_gossip_sync_abandoned_total",
        "hdhash_tcp_peer_backpressure_drops_total",
    ] {
        assert!(out.get(name).is_some(), "{name} missing from snapshot");
    }

    // --- the Prometheus exposition survives the strict vendored parser.
    let text = out.to_prometheus();
    let parsed = promparse::parse(&text).expect("prometheus output parses");
    promparse::validate(&parsed).expect("prometheus output validates");

    // --- and the JSON form parses too.
    let json = jsonlite::parse(&out.to_json()).expect("snapshot JSON parses");
    assert!(
        !json.get("samples").and_then(|s| s.as_arr()).expect("samples array").is_empty()
    );

    // --- the drained trace ring replays the full lifecycle as JSONL.
    let mut kinds = BTreeSet::new();
    for replica in &replicas {
        let events = replica.engine().tracer().drain();
        let lines = hdhash_obs::jsonl(&events);
        for line in lines.lines() {
            let doc = jsonlite::parse(line).expect("JSONL line parses");
            let kind = doc.get("kind").and_then(|k| k.as_str()).expect("kind field");
            assert!(SpanKind::parse(kind).is_some(), "unknown span kind {kind}");
            kinds.insert(kind.to_string());
        }
    }
    for expected in [
        SpanKind::Submit,
        SpanKind::Pickup,
        SpanKind::BatchExec,
        SpanKind::ResponseFill,
        SpanKind::GossipRound,
        SpanKind::SyncStart,
        SpanKind::SyncComplete,
        SpanKind::TcpConnect,
        SpanKind::TcpAccept,
    ] {
        assert!(
            kinds.contains(expected.name()),
            "missing span kind {} in {kinds:?}",
            expected.name()
        );
    }
}
