//! Permanent peer death, end to end: a peer that stops participating and
//! never comes back must walk the full detector ladder
//! (Alive → Suspect → Dead at the `SUSPECT_AFTER` and `DEAD_AFTER` round
//! boundaries), its in-flight sync exchange must drain through bounded
//! retries to `sync_abandoned` (never retrying forever), and once Dead it
//! must stop consuming fanout slots — the only traffic it sees afterwards
//! is the probe advert every `PROBE_PERIOD`-th round that would notice a
//! recovery. The survivors stay converged with each other throughout.

use std::sync::Arc;

use hdhash_serve::gossip::{
    converged, GossipConfig, GossipMessage, GossipNode, PeerHealth, DEAD_AFTER, SUSPECT_AFTER,
    SYNC_RETRY_CAP,
};
use hdhash_serve::replication::ReplicatedEngine;
use hdhash_serve::transport::{InProcessEndpoint, InProcessNetwork, ReplicaId, Transport};
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

struct DeadPeerCluster {
    network: Arc<InProcessNetwork>,
    replicas: Vec<Arc<ReplicatedEngine>>,
    nodes: Vec<GossipNode<InProcessEndpoint>>,
}

/// Three replicas; replica 2 holds extra members (so its one advert is
/// visibly divergent and provokes a sync exchange), then goes silent
/// forever after round 1.
fn cluster() -> DeadPeerCluster {
    let network = InProcessNetwork::new();
    let peers: Vec<ReplicaId> = (0..3).map(ReplicaId::new).collect();
    let mut replicas = Vec::new();
    let mut nodes = Vec::new();
    for i in 0..3u64 {
        let id = ReplicaId::new(i);
        let replica =
            Arc::new(ReplicatedEngine::new(id, serve_config(0xDEAD)).expect("valid config"));
        for server in 0..10u64 {
            replica.join(ServerId::new(server)).expect("fresh");
        }
        if i == 2 {
            for server in 20..24u64 {
                replica.join(ServerId::new(server)).expect("fresh");
            }
        }
        nodes.push(GossipNode::new(
            Arc::clone(&replica),
            network.endpoint(id),
            peers.clone(),
            GossipConfig::default(),
        ));
        replicas.push(replica);
    }
    DeadPeerCluster { network, replicas, nodes }
}

#[test]
fn silent_peer_walks_the_detector_ladder_and_syncs_drain_to_abandoned() {
    let DeadPeerCluster { network, replicas, nodes } = cluster();
    let dead_peer = ReplicaId::new(2);

    // Round 1: everyone speaks once. Replicas 0 and 1 hear replica 2's
    // divergent advert and open sync exchanges it will never answer.
    for node in &nodes {
        node.tick();
    }
    nodes[0].pump();
    nodes[1].pump();
    // Replica 2 never ticks or pumps again.
    assert_eq!(nodes[0].peer_health(dead_peer), PeerHealth::Alive, "heard this round");
    assert!(
        nodes[0].metrics().divergence_detections >= 1,
        "replica 2's advert must register as divergent"
    );

    // Rounds 2..=20: survivors keep gossiping; the detector must walk
    // Alive (heard at round 1, elapsed ≤ SUSPECT_AFTER = 3) → Suspect
    // (elapsed ≤ DEAD_AFTER = 8) → Dead, on exact boundaries.
    for round in 2..=20u64 {
        nodes[0].tick();
        nodes[1].tick();
        nodes[0].pump();
        nodes[1].pump();
        let elapsed = round - 1;
        let expected = if elapsed <= SUSPECT_AFTER {
            PeerHealth::Alive
        } else if elapsed <= DEAD_AFTER {
            PeerHealth::Suspect
        } else {
            PeerHealth::Dead
        };
        for node in &nodes[..2] {
            assert_eq!(
                node.peer_health(dead_peer),
                expected,
                "round {round}: elapsed {elapsed} must read {expected:?}"
            );
        }
    }

    // The sync exchanges opened at round 1 have used every retransmission
    // (backoff 2 + 4 + 8 rounds plus jitter: the last one by round 18),
    // and still wait for the final deadline, 30–34 rounds after round 1.
    for (i, node) in nodes[..2].iter().enumerate() {
        let metrics = node.metrics();
        assert_eq!(
            metrics.sync_retries,
            u64::from(SYNC_RETRY_CAP),
            "node {i}: the unanswered sync must be retransmitted up to the cap"
        );
        assert_eq!(metrics.sync_abandoned, 0, "node {i}: abandoned before its last deadline");
        assert!(metrics.retry_bytes > 0, "node {i}: retransmissions must be accounted");
        assert_eq!(metrics.peers_dead, 1, "node {i}: detector must report one dead peer");
    }

    // Survivors stayed converged with each other, and nothing of replica
    // 2's unexchanged extra members leaked across (adverts carry
    // digests, not records).
    assert!(converged(&[&replicas[0], &replicas[1]]), "survivors diverged");
    assert!(
        !replicas[0].member_ids().contains(&ServerId::new(20)),
        "no record exchange happened, so replica 2's extras must not appear"
    );

    // Dead peers stop consuming fanout slots: steal replica 2's mailbox
    // (re-registering an id replaces it) and observe exactly the probe
    // adverts — one redirected slot every PROBE_PERIOD-th round per
    // survivor — and nothing else. The retry chains abandon in this
    // window and send nothing more.
    let graveyard = network.endpoint(dead_peer);
    let probes_before: u64 = nodes[..2].iter().map(|n| n.metrics().probes_sent).sum();
    for _ in 21..=40u64 {
        nodes[0].tick();
        nodes[1].tick();
        nodes[0].pump();
        nodes[1].pump();
    }
    let probes_delta: u64 =
        nodes[..2].iter().map(|n| n.metrics().probes_sent).sum::<u64>() - probes_before;
    let mut delivered = 0u64;
    while let Some(envelope) = graveyard.try_recv() {
        assert!(
            matches!(envelope.message, GossipMessage::Advert { .. }),
            "a dead peer may only receive probe adverts, got {:?}",
            envelope.message
        );
        delivered += 1;
    }
    assert!(probes_delta >= 1, "probe rounds must keep testing the dead peer");
    assert_eq!(
        delivered, probes_delta,
        "every message to a dead peer must be a redirected probe slot"
    );

    // Bounded, never infinite: each chain drained to exactly one
    // abandonment without another retransmission.
    for (i, node) in nodes[..2].iter().enumerate() {
        let metrics = node.metrics();
        assert_eq!(
            metrics.sync_abandoned, 1,
            "node {i}: the retry chain must drain to exactly one abandonment"
        );
        assert_eq!(
            metrics.sync_retries,
            u64::from(SYNC_RETRY_CAP),
            "node {i}: retried past the cap"
        );
    }
}
