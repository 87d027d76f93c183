//! The chaos suite: replica gossip over a hostile, fault-injected
//! network.
//!
//! Every scenario is fully deterministic from the seed printed at the top
//! of its output (`chaos seed: 0x…`) — the fault plan, the gossip target
//! selection, and the retry jitter are all pure functions of seeds and
//! round ordinals, so a failure replays bit-for-bit.
//!
//! The two invariants this suite pins:
//!
//! * **Convergence after heal** — whatever the fault plan did (drops up
//!   to 50%, bounded delay, duplication, reordering, asymmetric
//!   partitions, crash/restart), once the network heals the replica set
//!   reaches identical member sets and digests within a bounded number of
//!   rounds.
//! * **No resurrection** — tombstone GC is gated on the *full* peer set
//!   (dead or partitioned peers included), so a removed member never
//!   reappears when a stale replica rejoins, no matter how long its acks
//!   were delayed.

use std::sync::Arc;
use std::time::Duration;

use hdhash_serve::chaos::{ChaosEndpoint, ChaosNetwork, FaultPlan, LinkFaults};
use hdhash_serve::gossip::{converged, GossipConfig, GossipNode, PeerHealth};
use hdhash_serve::replication::ReplicatedEngine;
use hdhash_serve::transport::ReplicaId;
use hdhash_serve::ServeConfig;
use hdhash_table::ServerId;

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_capacity: 512,
        dimension: 2048,
        codebook_size: 64,
        seed,
        ..ServeConfig::default()
    }
}

/// A replica set on a chaos network: each engine paired with its node.
type ChaosSet = Vec<(Arc<ReplicatedEngine>, GossipNode<ChaosEndpoint>)>;

/// Builds `n` replicas on one chaos network executing `plan`, full-mesh
/// peer lists.
fn chaos_set(n: u64, engine_seed: u64, plan: FaultPlan) -> (Arc<ChaosNetwork>, ChaosSet) {
    println!("chaos seed: {:#x}", plan.seed);
    let net = ChaosNetwork::new(plan);
    let peers: Vec<ReplicaId> = (0..n).map(ReplicaId::new).collect();
    let set = (0..n)
        .map(|i| {
            let id = ReplicaId::new(i);
            // Every replica shares the engine seed: identical codebook
            // geometry is what makes converged memberships route alike.
            let replica = Arc::new(
                ReplicatedEngine::new(id, serve_config(engine_seed))
                    .expect("valid config"),
            );
            let node = GossipNode::new(
                Arc::clone(&replica),
                net.endpoint(id),
                peers.clone(),
                GossipConfig { period: Duration::from_millis(50), ..GossipConfig::default() },
            );
            (replica, node)
        })
        .collect();
    (net, set)
}

/// One chaos round: the virtual clock advances (releasing held traffic),
/// every node adverts, then the set pumps until the mailboxes drain.
/// Delayed/reordered messages stay parked in the chaos layer's held queue
/// until a later round.
fn chaos_round(net: &ChaosNetwork, nodes: &[GossipNode<ChaosEndpoint>]) {
    net.advance_round();
    for node in nodes {
        node.tick();
    }
    loop {
        let moved: usize = nodes.iter().map(GossipNode::pump).sum();
        if moved == 0 {
            break;
        }
    }
}

/// Drives chaos rounds until the set converges or `max` rounds pass.
fn rounds_to_converge(
    net: &ChaosNetwork,
    nodes: &[GossipNode<ChaosEndpoint>],
    max: usize,
) -> Option<usize> {
    let replicas: Vec<&ReplicatedEngine> = nodes.iter().map(GossipNode::replica).collect();
    if converged(&replicas) {
        return Some(0);
    }
    for round in 1..=max {
        chaos_round(net, nodes);
        if converged(&replicas) {
            return Some(round);
        }
    }
    None
}

/// The merged logs, the published member ids and the digests agree
/// across the set, and each table serves its log's members.
fn assert_identical_members(replicas: &[&ReplicatedEngine]) {
    let view = |replica: &ReplicatedEngine| {
        let published = replica.engine().snapshots()[0].member_ids();
        (replica.member_ids(), published, replica.digest())
    };
    let (members, published, digest) = view(replicas[0]);
    assert_eq!(published, members, "the table trails the merged log");
    for replica in &replicas[1..] {
        let (their_members, their_published, their_digest) = view(replica);
        assert_eq!(their_members, members, "memberships diverged");
        assert_eq!(their_published, published, "published member ids differ");
        assert_eq!(their_digest, digest, "digests differ");
    }
}

/// Seeds divergent histories across the set: disjoint joins per replica
/// plus one removal, so reconciliation has real work on every link.
fn diverge(set: &[(Arc<ReplicatedEngine>, GossipNode<ChaosEndpoint>)]) {
    for (i, (replica, _)) in set.iter().enumerate() {
        for s in 0..3u64 {
            replica.join(ServerId::new(10 * i as u64 + s)).expect("fresh");
        }
    }
    set[0].0.leave(ServerId::new(1)).expect("present");
}

/// The expected converged membership after [`diverge`]: the union of all
/// joins minus the tombstoned member.
fn diverged_want(n: u64) -> Vec<ServerId> {
    (0..n)
        .flat_map(|i| (0..3u64).map(move |s| 10 * i + s))
        .filter(|&id| id != 1)
        .map(ServerId::new)
        .collect()
}

/// The headline grid: drop rate × replica count, each run under random
/// loss (plus duplication and reordering at the heaviest tier) for a
/// fixed fault window, then healed. Convergence after heal must be
/// bounded at every point — including 50% loss.
#[test]
fn convergence_after_heal_across_drop_rate_grid() {
    for &drop in &[100u16, 250, 500] {
        for &n in &[2u64, 3, 5] {
            let seed = 0xC4A0_5000 + u64::from(drop) * 100 + n;
            let faults = LinkFaults {
                drop_per_mille: drop,
                duplicate_per_mille: if drop == 500 { 100 } else { 0 },
                reorder_per_mille: if drop == 500 { 100 } else { 0 },
                ..LinkFaults::RELIABLE
            };
            let plan = FaultPlan::new(seed).with_default_link(faults);
            let (net, set) = chaos_set(n, 0x11_000 + seed, plan);
            diverge(&set);
            let nodes: Vec<GossipNode<ChaosEndpoint>> =
                set.into_iter().map(|(_, node)| node).collect();
            // The fault window: the set may or may not converge under
            // loss — no assertion here, the faults are the point.
            for _ in 0..10 {
                chaos_round(&net, &nodes);
            }
            net.heal();
            let rounds = rounds_to_converge(&net, &nodes, 48).unwrap_or_else(|| {
                panic!("drop={drop}‰ n={n} failed to converge after heal (seed {seed:#x})")
            });
            assert!(
                rounds <= 48,
                "drop={drop}‰ n={n}: {rounds} rounds after heal"
            );
            let replicas: Vec<&ReplicatedEngine> =
                nodes.iter().map(GossipNode::replica).collect();
            assert_identical_members(&replicas);
            assert_eq!(replicas[0].member_ids(), diverged_want(n), "drop={drop}‰ n={n}");
            let stats = net.stats();
            assert!(stats.reconciles(), "drop={drop}‰ n={n}: {stats:?}");
            if drop >= 250 {
                assert!(stats.dropped_random > 0, "the lossy plan actually dropped");
            }
        }
    }
}

/// An asymmetric partition (0 → 1 severed, 1 → 0 alive) layered over 50%
/// random loss: the hardest scenario the issue names. The detector must
/// steer traffic, retries must bound the bleeding, and heal must still
/// converge the set.
#[test]
fn asymmetric_partition_under_heavy_loss_converges_after_heal() {
    let seed = 0xA57_EC7;
    let r0 = ReplicaId::new(0);
    let r1 = ReplicaId::new(1);
    let plan = FaultPlan::new(seed)
        .with_default_link(LinkFaults::lossy(500))
        .with_partition_one_way(r0, r1, 2..14);
    let (net, set) = chaos_set(3, 0x22_000, plan);
    diverge(&set);
    let nodes: Vec<GossipNode<ChaosEndpoint>> =
        set.into_iter().map(|(_, node)| node).collect();
    for _ in 0..16 {
        chaos_round(&net, &nodes);
    }
    let mid_stats = net.stats();
    assert!(mid_stats.dropped_partition > 0, "the one-way partition fired");
    assert!(mid_stats.dropped_random > 0, "the loss plan fired");
    net.heal();
    let rounds = rounds_to_converge(&net, &nodes, 48)
        .unwrap_or_else(|| panic!("failed to converge after heal (seed {seed:#x})"));
    println!("asymmetric partition healed in {rounds} rounds");
    let replicas: Vec<&ReplicatedEngine> = nodes.iter().map(GossipNode::replica).collect();
    assert_identical_members(&replicas);
    assert_eq!(replicas[0].member_ids(), diverged_want(3));
    assert!(net.stats().reconciles());
    // The sync retry machinery actually ran under this much loss.
    let retries: u64 = nodes.iter().map(|n| n.metrics().sync_retries).sum();
    let retry_bytes: u64 = nodes.iter().map(|n| n.metrics().retry_bytes).sum();
    assert!(retries > 0, "50% loss without a single sync retry");
    assert!(retry_bytes > 0, "retries moved bytes");
}

/// No resurrection: a member removed while a replica is partitioned away
/// must stay removed after the partition heals. The tombstone's GC is
/// gated on the isolated replica's ack, so the stale "alive" record it
/// still holds loses the LWW merge instead of resurrecting the member.
#[test]
fn removed_member_stays_dead_across_a_partition() {
    let seed = 0x10_5EED;
    let r2 = ReplicaId::new(2);
    // Rounds 0..5 are clean (initial convergence); replica 2 is then cut
    // off from both peers for 15 rounds — long enough for the detector to
    // declare it Dead and for GC to fire if it (wrongly) ignored dead
    // peers.
    let plan = FaultPlan::new(seed)
        .with_partition(r2, ReplicaId::new(0), 5..20)
        .with_partition(r2, ReplicaId::new(1), 5..20);
    let (net, set) = chaos_set(3, 0x33_000, plan);
    // Shared base membership, installed on replica 0 and gossiped out.
    for id in 0..6u64 {
        set[0].0.join(ServerId::new(id)).expect("fresh");
    }
    let nodes: Vec<GossipNode<ChaosEndpoint>> =
        set.into_iter().map(|(_, node)| node).collect();
    let replicas: Vec<&ReplicatedEngine> = nodes.iter().map(GossipNode::replica).collect();
    let cleanly = rounds_to_converge(&net, &nodes, 5).expect("clean rounds converge");
    assert!(cleanly <= 5, "pre-partition convergence took {cleanly}");
    assert_eq!(replicas[2].member_ids().len(), 6, "replica 2 saw the base set");

    // Partition opens at round 5; remove member 3 while replica 2 is
    // unreachable.
    while net.round() < 6 {
        chaos_round(&net, &nodes);
    }
    replicas[0].leave(ServerId::new(3)).expect("present");
    for _ in 0..12 {
        chaos_round(&net, &nodes);
    }
    // Mid-partition checks: the connected majority agrees on the removal,
    // the isolated replica still has the stale member, and the detector
    // on a connected node reads the isolated one as Suspect or Dead.
    assert!(!replicas[0].member_ids().contains(&ServerId::new(3)));
    assert!(!replicas[1].member_ids().contains(&ServerId::new(3)));
    assert!(
        replicas[2].member_ids().contains(&ServerId::new(3)),
        "isolation kept the stale record alive on replica 2"
    );
    assert_ne!(
        nodes[0].peer_health(r2),
        PeerHealth::Alive,
        "the detector noticed the silence"
    );

    // Heal and converge: the stale record must lose, everywhere.
    net.heal();
    let rounds = rounds_to_converge(&net, &nodes, 48)
        .unwrap_or_else(|| panic!("failed to converge after heal (seed {seed:#x})"));
    println!("partition healed, converged in {rounds} rounds");
    assert_identical_members(&replicas);
    assert!(
        !replicas.iter().any(|r| r.member_ids().contains(&ServerId::new(3))),
        "resurrection: removed member came back after the partition healed"
    );
    assert!(net.stats().reconciles());
}

/// A replica crashes (process pause: sends and receipt blackholed, inbox
/// purged on poll) and restarts with stale in-memory state; membership
/// changes applied during the outage must reach it afterwards.
#[test]
fn crashed_replica_catches_up_after_restart() {
    let seed = 0xCA_5CADE;
    let plan = FaultPlan::new(seed).with_crash(ReplicaId::new(1), 2..10);
    let (net, set) = chaos_set(3, 0x44_000, plan);
    for id in 0..4u64 {
        set[0].0.join(ServerId::new(id)).expect("fresh");
    }
    let nodes: Vec<GossipNode<ChaosEndpoint>> =
        set.into_iter().map(|(_, node)| node).collect();
    let replicas: Vec<&ReplicatedEngine> = nodes.iter().map(GossipNode::replica).collect();
    // Rounds 0..2 clean; then the crash window opens.
    chaos_round(&net, &nodes);
    chaos_round(&net, &nodes);
    assert!(net.is_crashed(ReplicaId::new(1)));
    // Changes land while replica 1 is down.
    replicas[0].join(ServerId::new(40)).expect("fresh");
    replicas[0].leave(ServerId::new(2)).expect("present");
    for _ in 0..8 {
        chaos_round(&net, &nodes);
    }
    assert!(!net.is_crashed(ReplicaId::new(1)), "crash window closed");
    let rounds = rounds_to_converge(&net, &nodes, 32)
        .unwrap_or_else(|| panic!("restarted replica failed to catch up (seed {seed:#x})"));
    println!("restart caught up in {rounds} rounds");
    assert_identical_members(&replicas);
    let members = replicas[1].member_ids();
    assert!(members.contains(&ServerId::new(40)), "missed the join during its crash");
    assert!(!members.contains(&ServerId::new(2)), "missed the leave during its crash");
    let stats = net.stats();
    assert!(stats.dropped_crash > 0, "the crash window blackholed traffic");
    assert!(stats.reconciles());
}

/// Determinism end to end: the same seed drives the same fault sequence,
/// the same gossip traffic, and the same final state — the property that
/// makes every failure in this suite replayable from its printed seed.
#[test]
fn same_seed_replays_the_same_scenario() {
    let run = || {
        let plan = FaultPlan::new(0xD37_E2A).with_default_link(LinkFaults {
            drop_per_mille: 300,
            duplicate_per_mille: 100,
            delay_per_mille: 200,
            max_delay_rounds: 2,
            reorder_per_mille: 100,
            ..LinkFaults::RELIABLE
        });
        let (net, set) = chaos_set(3, 0x55_000, plan);
        diverge(&set);
        let nodes: Vec<GossipNode<ChaosEndpoint>> =
            set.into_iter().map(|(_, node)| node).collect();
        for _ in 0..12 {
            chaos_round(&net, &nodes);
        }
        net.heal();
        let rounds = rounds_to_converge(&net, &nodes, 48).expect("converges after heal");
        let digests: Vec<_> =
            nodes.iter().map(|n| n.replica().digest()).collect();
        let metrics: Vec<(u64, u64, u64)> = nodes
            .iter()
            .map(|n| {
                let m = n.metrics();
                (m.adverts_sent, m.syncs_sent, m.sync_retries)
            })
            .collect();
        (net.stats(), rounds, digests, metrics)
    };
    let first = run();
    let second = run();
    assert_eq!(first.0, second.0, "fault counters diverged between replays");
    assert_eq!(first.1, second.1, "convergence rounds diverged");
    assert_eq!(first.2, second.2, "final digests diverged");
    assert_eq!(first.3, second.3, "gossip traffic diverged");
}

/// Randomized soak: a fresh seed each run (printed for replay; pin it
/// with `CHAOS_SEED=0x…`). CI runs this a handful of times — over weeks
/// of CI history the soak walks a seed space no fixed grid covers.
#[test]
fn randomized_soak_converges_after_heal() {
    let seed = match std::env::var("CHAOS_SEED") {
        Ok(s) => {
            let s = s.trim().trim_start_matches("0x").to_owned();
            u64::from_str_radix(&s, 16).expect("CHAOS_SEED is hex")
        }
        Err(_) => {
            // Seed from wall time; the printed value is the replay handle.
            let now = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock after epoch");
            now.as_nanos() as u64
        }
    };
    println!("soak replay: CHAOS_SEED={seed:#x} cargo test -p hdhash-serve --test chaos randomized_soak");
    // Derive fault intensities from the seed itself, spanning mild to
    // hostile (up to 50% drop, delays, duplication, one random one-way
    // partition).
    let drop = 100 + (seed % 401) as u16; // 100..=500 ‰
    let n = 2 + (seed / 7) % 3; // 2..=4 replicas
    let victim = ReplicaId::new((seed / 11) % n);
    let other = ReplicaId::new(((seed / 11) % n + 1) % n);
    let plan = FaultPlan::new(seed)
        .with_default_link(LinkFaults {
            drop_per_mille: drop,
            duplicate_per_mille: 50,
            delay_per_mille: 150,
            max_delay_rounds: 3,
            reorder_per_mille: 50,
            ..LinkFaults::RELIABLE
        })
        .with_partition_one_way(victim, other, 3..9);
    let (net, set) = chaos_set(n, seed ^ 0x66_000, plan);
    diverge(&set);
    let nodes: Vec<GossipNode<ChaosEndpoint>> =
        set.into_iter().map(|(_, node)| node).collect();
    for _ in 0..12 {
        chaos_round(&net, &nodes);
    }
    net.heal();
    let rounds = rounds_to_converge(&net, &nodes, 64).unwrap_or_else(|| {
        panic!("soak failed to converge after heal — replay with CHAOS_SEED={seed:#x}")
    });
    println!("soak converged in {rounds} rounds (drop={drop}‰ n={n})");
    let replicas: Vec<&ReplicatedEngine> = nodes.iter().map(GossipNode::replica).collect();
    assert_identical_members(&replicas);
    assert_eq!(replicas[0].member_ids(), diverged_want(n));
    assert!(net.stats().reconciles(), "soak counters must reconcile: {:?}", net.stats());
}

/// Baseline: a fault-free plan through the full chaos stack behaves like
/// the plain in-process transport — quiescent pairs converge in a couple
/// of rounds, with zero retries and zero drops.
#[test]
fn reliable_plan_full_stack_is_transparent() {
    let plan = FaultPlan::new(1);
    let (net, set) = chaos_set(2, 0x99_000, plan);
    diverge(&set);
    let nodes: Vec<GossipNode<ChaosEndpoint>> =
        set.into_iter().map(|(_, node)| node).collect();
    let rounds = rounds_to_converge(&net, &nodes, 8).expect("reliable chaos converges");
    assert!(rounds <= 2, "quiescent pair took {rounds} rounds through the chaos stack");
    let replicas: Vec<&ReplicatedEngine> = nodes.iter().map(GossipNode::replica).collect();
    assert_identical_members(&replicas);
    assert_eq!(replicas[0].member_ids(), diverged_want(2));
    let stats = net.stats();
    assert_eq!(stats.dropped_total(), 0);
    assert_eq!(stats.in_flight, 0);
    assert!(stats.reconciles());
    assert_eq!(nodes.iter().map(|n| n.metrics().sync_retries).sum::<u64>(), 0);
}
