//! Gossip over real sockets: the same anti-entropy protocol the
//! in-process suites pin — divergent replicas converging to identical
//! member sets and digests — run over framed loopback TCP
//! ([`TcpNetwork`]) instead of channel mailboxes. On top of convergence
//! it pins the measured-bytes contract: after the outboxes quiesce, the
//! bytes the kernel actually carried equal the gossip layer's
//! `wire_size` accounting plus exactly [`FRAME_OVERHEAD`] per frame —
//! the computed byte trajectory *is* the wire trajectory.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hdhash_serve::gossip::{converged, GossipConfig, GossipNode};
use hdhash_serve::replication::ReplicatedEngine;
use hdhash_serve::tcp::{TcpConfig, TcpEndpoint, TcpNetwork};
use hdhash_serve::transport::ReplicaId;
use hdhash_serve::wire::FRAME_OVERHEAD;
use hdhash_serve::ServeConfig;
use hdhash_table::ServerId;

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_capacity: 256,
        dimension: 1024,
        codebook_size: 32,
        seed,
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

/// Builds `n` replicas, each on its own [`TcpNetwork`] bound to an
/// OS-assigned loopback port, full-mesh wired.
fn tcp_cluster(
    n: u64,
) -> (Vec<TcpNetwork>, Vec<Arc<ReplicatedEngine>>, Vec<GossipNode<TcpEndpoint>>) {
    let networks: Vec<TcpNetwork> = (0..n)
        .map(|i| {
            TcpNetwork::bind(ReplicaId::new(i), "127.0.0.1:0", tcp_config()).expect("bind loopback")
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
    let peers: Vec<ReplicaId> = (0..n).map(ReplicaId::new).collect();
    let mut replicas = Vec::new();
    let mut nodes = Vec::new();
    for (i, network) in networks.iter().enumerate() {
        let id = ReplicaId::new(i as u64);
        let replica =
            Arc::new(ReplicatedEngine::new(id, serve_config(0x7C9)).expect("valid config"));
        nodes.push(GossipNode::new(
            Arc::clone(&replica),
            network.endpoint(),
            peers.clone(),
            GossipConfig { period: Duration::from_millis(10), ..GossipConfig::default() },
        ));
        replicas.push(replica);
    }
    (networks, replicas, nodes)
}

#[test]
fn divergent_replicas_converge_over_loopback_tcp() {
    let (networks, replicas, nodes) = tcp_cluster(3);
    // Divergent histories: overlapping joins plus a conflicting leave.
    for id in 0..12u64 {
        replicas[0].join(ServerId::new(id)).expect("fresh");
    }
    for id in 8..20u64 {
        replicas[1].join(ServerId::new(id)).expect("fresh");
    }
    for id in 4..6u64 {
        replicas[2].join(ServerId::new(id)).expect("fresh");
    }
    replicas[0].leave(ServerId::new(3)).expect("present");

    // Drive rounds until converged; socket delivery is asynchronous, so
    // each round gives the kernel a moment before pumping.
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
        assert!(Instant::now() < deadline, "no convergence over TCP within deadline");
    }

    // Identical member ids and digests on every replica.
    let published = |replica: &ReplicatedEngine| replica.engine().snapshots()[0].member_ids();
    for replica in &replicas[1..] {
        assert_eq!(replica.member_ids(), replicas[0].member_ids());
        assert_eq!(published(replica), published(&replicas[0]));
        assert_eq!(replica.digest(), replicas[0].digest());
    }

    // Quiesce the outboxes, then hold the accounting to the byte: what
    // the kernel carried == what `wire_size` computed, plus exactly one
    // frame header per frame. Any slack here means the codec and the
    // accounting have diverged.
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    while networks.iter().any(|n| n.pending_frames() > 0) {
        assert!(Instant::now() < drain_deadline, "outboxes never drained");
        std::thread::sleep(Duration::from_millis(10));
    }
    for (i, (network, node)) in networks.iter().zip(&nodes).enumerate() {
        let tcp = network.stats();
        let gossip = node.metrics();
        assert_eq!(tcp.peer_backpressure_drops, 0, "node {i}: unexpected eviction");
        assert!(tcp.frames_sent > 0, "node {i}: gossip never hit the wire");
        assert_eq!(
            tcp.bytes_sent,
            gossip.bytes_sent + FRAME_OVERHEAD as u64 * tcp.frames_sent,
            "node {i}: measured bytes must equal wire_size accounting + frame overhead"
        );
        assert_eq!(tcp.corrupt_frames, 0, "node {i}: self-talk must never corrupt");
        assert_eq!(tcp.partial_frames, 0, "node {i}: self-talk must never stall mid-frame");
    }
    // Every byte sent somewhere arrived somewhere: the cluster-wide
    // ledgers match once the wire is idle. An empty outbox can still have
    // its last frames in a socket buffer, so let the readers catch up.
    let sent: u64 = networks.iter().map(|n| n.stats().bytes_sent).sum();
    let received = || networks.iter().map(|n| n.stats().bytes_received).sum::<u64>();
    while received() < sent && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(sent, received(), "cluster-wide sent/received ledgers diverged");
}
