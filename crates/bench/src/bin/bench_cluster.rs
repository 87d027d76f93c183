//! Emits `BENCH_cluster.json`: gossip convergence over **real loopback
//! TCP sockets** versus the in-process computed trajectory, per
//! replica-count × churn grid point.
//!
//! ```text
//! cargo run --release -p hdhash-bench --bin bench_cluster
//! cargo run --release -p hdhash-bench --bin bench_cluster -- quick=1
//! cargo run --release -p hdhash-bench --bin bench_cluster -- out=/tmp/B.json churn=16,64
//! ```
//!
//! Each point runs the **same deterministic churn script twice**:
//!
//! 1. *in-process* — `InProcessNetwork` driven by explicit lockstep
//!    rounds ([`run_round`]); its `bytes_sent` is the computed
//!    `wire_size` accounting the repo has reported since PR 4;
//! 2. *tcp* — one `TcpNetwork` per replica bound to an OS-assigned
//!    loopback port, full-mesh, the same gossip nodes driven
//!    tick/pump with real kernel delivery in between.
//!
//! After the TCP run quiesces, the bench **asserts** (not just reports)
//! the measured-bytes contract: kernel bytes written equal the gossip
//! layer's computed `wire_size` total plus exactly
//! [`FRAME_OVERHEAD`] bytes per
//! frame — the accounting and the wire agree to the byte, with the
//! division reported per point (`payload_bytes` + `frame_overhead_bytes`
//! = `measured_bytes`). Convergence rounds are reported for both
//! transports; TCP rounds may exceed the lockstep count by the rounds
//! that elapse while frames are in flight, which is itself the measured
//! cost of leaving the synchronous harness.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdhash_bench::Params;
use hdhash_serve::gossip::{converged, run_round, GossipConfig, GossipNode};
use hdhash_serve::replication::ReplicatedEngine;
use hdhash_serve::tcp::{TcpConfig, TcpEndpoint, TcpNetwork};
use hdhash_serve::transport::{InProcessEndpoint, InProcessNetwork, ReplicaId};
use hdhash_serve::wire::FRAME_OVERHEAD;
use hdhash_serve::ServeConfig;
use hdhash_table::ServerId;

/// Base membership shared by every replica before the churn.
const BASE_MEMBERS: u64 = 24;
/// Hypervector dimension of each replica's table.
const DIMENSION: usize = 2048;

fn replica(id: u64) -> Arc<ReplicatedEngine> {
    let config = ServeConfig {
        workers: 1,
        batch_capacity: 16,
        queue_capacity: 256,
        dimension: DIMENSION,
        codebook_size: 256,
        seed: 0x6055,
        ..ServeConfig::default()
    };
    Arc::new(ReplicatedEngine::new(ReplicaId::new(id), config).expect("valid config"))
}

/// The deterministic divergence script, identical for both transports:
/// shared base, then disjoint joins, contended-range conflicts and a few
/// leaves, spread across the replica set.
fn apply_churn(replicas: &[Arc<ReplicatedEngine>], churn_ops: usize) {
    for replica in replicas {
        for id in 0..BASE_MEMBERS {
            replica.join(ServerId::new(id)).expect("fresh");
        }
    }
    for op in 0..churn_ops {
        let op64 = op as u64;
        let owner = &replicas[op % replicas.len()];
        match op % 4 {
            0 | 1 => drop(owner.join(ServerId::new(1000 + op64))),
            2 => drop(owner.leave(ServerId::new(op64 % BASE_MEMBERS))),
            _ => {
                let contended = ServerId::new(3000 + op64 % 8);
                let other = &replicas[(op + 1) % replicas.len()];
                let _ = owner.join(contended);
                let _ = other.join(contended);
                let _ = other.leave(contended);
            }
        }
    }
}

struct TransportRun {
    rounds: usize,
    payload_bytes: u64,
    wall_ms: f64,
}

struct TcpRun {
    base: TransportRun,
    frames: u64,
    measured_bytes: u64,
    frame_overhead_bytes: u64,
}

struct Point {
    replicas: usize,
    churn_ops: usize,
    inprocess: TransportRun,
    tcp: TcpRun,
}

/// Lockstep in-process reference: the computed byte trajectory.
fn run_inprocess(n: usize, churn_ops: usize) -> TransportRun {
    let network = InProcessNetwork::new();
    let peers: Vec<ReplicaId> = (0..n as u64).map(ReplicaId::new).collect();
    let replicas: Vec<Arc<ReplicatedEngine>> = (0..n as u64).map(replica).collect();
    let nodes: Vec<GossipNode<InProcessEndpoint>> = replicas
        .iter()
        .enumerate()
        .map(|(i, r)| {
            GossipNode::new(
                Arc::clone(r),
                network.endpoint(ReplicaId::new(i as u64)),
                peers.clone(),
                GossipConfig::default(),
            )
        })
        .collect();
    apply_churn(&replicas, churn_ops);
    let views: Vec<&ReplicatedEngine> = replicas.iter().map(Arc::as_ref).collect();
    let started = Instant::now();
    let mut rounds = 0usize;
    while !converged(&views) {
        rounds += 1;
        assert!(rounds <= 128, "in-process run failed to converge");
        run_round(&nodes);
    }
    TransportRun {
        rounds,
        payload_bytes: nodes.iter().map(|n| n.metrics().bytes_sent).sum(),
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

/// The same script over real loopback sockets, with the measured-bytes
/// assertion after the wire quiesces.
fn run_tcp(n: usize, churn_ops: usize) -> TcpRun {
    let tcp_config = TcpConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_millis(100),
        write_timeout: Duration::from_secs(1),
        reconnect_base: Duration::from_millis(10),
        reconnect_cap: Duration::from_millis(200),
        outbox_capacity: 4096,
    };
    let networks: Vec<TcpNetwork> = (0..n as u64)
        .map(|i| {
            TcpNetwork::bind(ReplicaId::new(i), "127.0.0.1:0", tcp_config).expect("bind loopback")
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
    let peers: Vec<ReplicaId> = (0..n as u64).map(ReplicaId::new).collect();
    let replicas: Vec<Arc<ReplicatedEngine>> = (0..n as u64).map(replica).collect();
    let nodes: Vec<GossipNode<TcpEndpoint>> = replicas
        .iter()
        .zip(&networks)
        .map(|(r, network)| {
            GossipNode::new(Arc::clone(r), network.endpoint(), peers.clone(), GossipConfig::default())
        })
        .collect();
    apply_churn(&replicas, churn_ops);
    let views: Vec<&ReplicatedEngine> = replicas.iter().map(Arc::as_ref).collect();
    let started = Instant::now();
    let deadline = started + Duration::from_secs(120);
    let mut rounds = 0usize;
    while !converged(&views) {
        rounds += 1;
        assert!(Instant::now() < deadline, "tcp run failed to converge");
        for node in &nodes {
            node.tick();
        }
        // Give the kernel a delivery window, then drain what arrived.
        std::thread::sleep(Duration::from_millis(5));
        for node in &nodes {
            node.pump();
        }
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    // Quiesce: every queued frame must reach a socket before the ledger
    // is compared.
    let drain_deadline = Instant::now() + Duration::from_secs(60);
    while networks.iter().any(|nw| nw.pending_frames() > 0) {
        assert!(Instant::now() < drain_deadline, "outboxes never drained");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut payload_bytes = 0u64;
    let mut measured_bytes = 0u64;
    let mut frames = 0u64;
    for (network, node) in networks.iter().zip(&nodes) {
        let tcp = network.stats();
        let gossip = node.metrics();
        assert_eq!(tcp.peer_backpressure_drops, 0, "bench must not run into backpressure");
        assert_eq!(
            tcp.bytes_sent,
            gossip.bytes_sent + FRAME_OVERHEAD as u64 * tcp.frames_sent,
            "measured socket bytes must equal the wire_size accounting \
             plus exactly one frame header per frame"
        );
        payload_bytes += gossip.bytes_sent;
        measured_bytes += tcp.bytes_sent;
        frames += tcp.frames_sent;
    }
    TcpRun {
        base: TransportRun { rounds, payload_bytes, wall_ms },
        frames,
        measured_bytes,
        frame_overhead_bytes: FRAME_OVERHEAD as u64 * frames,
    }
}

fn main() {
    let params = Params::from_env();
    let quick = params.get_usize("quick", 0) != 0 || std::env::args().any(|a| a == "--quick");
    let out_path = std::env::args()
        .skip(1)
        .find_map(|a| a.strip_prefix("out=").map(str::to_owned))
        .unwrap_or_else(|| "BENCH_cluster.json".to_owned());
    let replica_counts =
        params.get_usize_list("replicas", if quick { &[3][..] } else { &[3, 5][..] });
    let churn_rates =
        params.get_usize_list("churn", if quick { &[16][..] } else { &[16, 64, 128][..] });

    let mut grid: Vec<Point> = Vec::new();
    for &n in &replica_counts {
        for &churn_ops in &churn_rates {
            let inprocess = run_inprocess(n, churn_ops);
            let tcp = run_tcp(n, churn_ops);
            println!(
                "replicas={n} churn={churn_ops:<4} rounds in-process={:<2} tcp={:<3} \
                 payload {:>7} B  measured {:>7} B (= payload + {} B × {} frames)  \
                 tcp wall {:>8.2} ms",
                inprocess.rounds,
                tcp.base.rounds,
                tcp.base.payload_bytes,
                tcp.measured_bytes,
                FRAME_OVERHEAD,
                tcp.frames,
                tcp.base.wall_ms,
            );
            grid.push(Point { replicas: n, churn_ops, inprocess, tcp });
        }
    }

    println!(
        "accounting holds on every point: measured bytes == computed wire_size total \
         + {FRAME_OVERHEAD}-byte frame header × frames (asserted, not rounded)"
    );

    let mut json = String::from("{\n  \"benchmark\": \"BENCH_cluster\",\n");
    let _ = writeln!(json, "  \"kernel\": \"{}\",", hdhash_simdkernels::kernel_name());
    let _ = writeln!(
        json,
        "  \"host_cores\": {},",
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    );
    let _ = writeln!(json, "  \"dimension\": {DIMENSION},");
    let _ = writeln!(json, "  \"base_members\": {BASE_MEMBERS},");
    let _ = writeln!(json, "  \"frame_overhead_bytes\": {FRAME_OVERHEAD},");
    let _ = writeln!(
        json,
        "  \"transport\": \"framed loopback TCP (magic/version/sender/len/crc32) vs in-process lockstep\","
    );
    let _ = writeln!(json, "  \"accounting_exact\": true,");
    json.push_str("  \"series\": [\n");
    for (i, p) in grid.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"replicas\": {}, \"churn_ops\": {}, \
             \"inprocess\": {{\"rounds_to_converge\": {}, \"bytes_on_wire\": {}, \"wall_ms\": {:.2}}}, \
             \"tcp\": {{\"rounds_to_converge\": {}, \"payload_bytes\": {}, \"frames\": {}, \
             \"frame_overhead_bytes\": {}, \"measured_bytes\": {}, \"wall_ms\": {:.2}}}}}{}",
            p.replicas,
            p.churn_ops,
            p.inprocess.rounds,
            p.inprocess.payload_bytes,
            p.inprocess.wall_ms,
            p.tcp.base.rounds,
            p.tcp.base.payload_bytes,
            p.tcp.frames,
            p.tcp.frame_overhead_bytes,
            p.tcp.measured_bytes,
            p.tcp.base.wall_ms,
            if i + 1 == grid.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("wrote {out_path}");
}
