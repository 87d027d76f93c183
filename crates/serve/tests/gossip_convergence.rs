//! Replica convergence under gossip: quiescent sets converge in a bounded
//! number of rounds, and sets under **concurrent churn** (joins/leaves
//! racing the gossip scheduler threads) converge to identical member sets
//! and digests once the churn stops.
//!
//! CI runs this suite with `--test-threads=1` and repeats the soak test,
//! mirroring the concurrent-churn suite's discipline: the churn-vs-gossip
//! race inside each test is the only concurrency in play.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hdhash_serve::gossip::{converged, run_until_converged, GossipConfig, GossipNode};
use hdhash_serve::replication::ReplicatedEngine;
use hdhash_serve::transport::{InProcessEndpoint, InProcessNetwork, ReplicaId};
use hdhash_serve::ServeConfig;
use hdhash_table::{RequestKey, ServerId};

/// Soak rounds per test execution; CI multiplies by re-running the test.
const SOAK_ROUNDS: usize = 5;
/// Churn operations each replica applies per soak round.
const CHURN_OPS: usize = 40;

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

/// Builds `n` replicas on one in-process network, full-mesh peer lists
/// (the default fanout restricts how many are *adverted* per round once
/// `n` grows past it).
fn replica_set(
    n: u64,
    seed: u64,
    period: Duration,
) -> Vec<(Arc<ReplicatedEngine>, GossipNode<InProcessEndpoint>)> {
    replica_set_with_fanout(n, seed, period, GossipConfig::default().fanout)
}

fn replica_set_with_fanout(
    n: u64,
    seed: u64,
    period: Duration,
    fanout: usize,
) -> Vec<(Arc<ReplicatedEngine>, GossipNode<InProcessEndpoint>)> {
    let network = InProcessNetwork::new();
    let peers: Vec<ReplicaId> = (0..n).map(ReplicaId::new).collect();
    (0..n)
        .map(|i| {
            let id = ReplicaId::new(i);
            let replica = Arc::new(
                ReplicatedEngine::new(id, serve_config(seed)).expect("valid config"),
            );
            let node = GossipNode::new(
                Arc::clone(&replica),
                network.endpoint(id),
                peers.clone(),
                GossipConfig { period, fanout },
            );
            (replica, node)
        })
        .collect()
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

#[test]
fn two_quiescent_replicas_converge_in_bounded_rounds() {
    for seed in [1001u64, 1002, 1004] {
        let set = replica_set(2, seed, Duration::from_millis(50));
        let (a, b) = (&set[0].0, &set[1].0);
        // Divergent histories: overlapping joins, one conflicting leave.
        for id in 0..12u64 {
            a.join(ServerId::new(id)).expect("fresh");
        }
        for id in 8..20u64 {
            b.join(ServerId::new(id)).expect("fresh");
        }
        a.leave(ServerId::new(3)).expect("present");
        let nodes: Vec<GossipNode<InProcessEndpoint>> =
            set.into_iter().map(|(_, n)| n).collect();
        // One push-pull round must converge a quiescent pair.
        let rounds = run_until_converged(&nodes, 8).expect("must converge");
        assert!(rounds <= 2, "quiescent pair took {rounds} rounds (seed {seed})");
        let replicas: Vec<&ReplicatedEngine> =
            nodes.iter().map(GossipNode::replica).collect();
        assert_identical_members(&replicas);
        // The union minus the tombstoned member.
        let want: Vec<ServerId> =
            (0..20u64).filter(|&id| id != 3).map(ServerId::new).collect();
        assert_eq!(replicas[0].member_ids(), want);
    }
}

#[test]
fn three_replica_mesh_converges() {
    let set = replica_set(3, 7, Duration::from_millis(50));
    set[0].0.join(ServerId::new(1)).expect("fresh");
    set[1].0.join(ServerId::new(2)).expect("fresh");
    set[2].0.join(ServerId::new(3)).expect("fresh");
    set[2].0.leave(ServerId::new(3)).expect("present");
    let nodes: Vec<GossipNode<InProcessEndpoint>> =
        set.into_iter().map(|(_, n)| n).collect();
    let rounds = run_until_converged(&nodes, 8).expect("must converge");
    assert!(rounds <= 2, "3-mesh took {rounds} rounds");
    let replicas: Vec<&ReplicatedEngine> = nodes.iter().map(GossipNode::replica).collect();
    assert_identical_members(&replicas);
    assert_eq!(replicas[0].member_ids(), vec![ServerId::new(1), ServerId::new(2)]);
}

#[test]
fn six_replica_set_converges_under_restricted_fanout() {
    // 6 replicas, fanout 2: each round adverts to 2 of 5 peers (chosen by
    // the deterministic per-round shuffle), yet the epidemic still
    // converges — in more rounds than full mesh, but bounded.
    for fanout in [2usize, 3] {
        let set = replica_set_with_fanout(6, 60 + fanout as u64, Duration::from_millis(50), fanout);
        // Disjoint histories: replica i joins servers 10i..10i+3, and
        // replica 1 tombstones one of its own members so removal
        // propagation is exercised across the sparse rounds too.
        for (i, (replica, _)) in set.iter().enumerate() {
            for s in 0..3u64 {
                replica.join(ServerId::new(10 * i as u64 + s)).expect("fresh");
            }
        }
        set[1].0.leave(ServerId::new(11)).expect("present");
        let nodes: Vec<GossipNode<InProcessEndpoint>> =
            set.into_iter().map(|(_, n)| n).collect();
        let rounds = run_until_converged(&nodes, 64)
            .unwrap_or_else(|| panic!("6-replica fanout-{fanout} set failed to converge"));
        assert!(rounds <= 16, "fanout {fanout} took {rounds} rounds");
        let replicas: Vec<&ReplicatedEngine> =
            nodes.iter().map(GossipNode::replica).collect();
        assert_identical_members(&replicas);
        // Union of all joins minus the tombstoned member.
        let want: Vec<ServerId> = (0..6u64)
            .flat_map(|i| (0..3u64).map(move |s| 10 * i + s))
            .filter(|&id| id != 11)
            .map(ServerId::new)
            .collect();
        assert_eq!(replicas[0].member_ids(), want, "fanout {fanout}");
        // Sparse rounds really happened: with fanout f each tick sends f
        // adverts, not peers-1.
        for node in &nodes {
            let m = node.metrics();
            assert_eq!(m.adverts_sent, m.rounds * fanout as u64, "fanout {fanout}");
        }
    }
}

#[test]
fn lookups_agree_after_convergence() {
    let set = replica_set(2, 99, Duration::from_millis(50));
    set[0].0.join(ServerId::new(5)).expect("fresh");
    set[1].0.join(ServerId::new(6)).expect("fresh");
    let nodes: Vec<GossipNode<InProcessEndpoint>> =
        set.into_iter().map(|(_, n)| n).collect();
    run_until_converged(&nodes, 8).expect("must converge");
    // Converged replicas route every key identically — the operational
    // payoff of membership convergence.
    for k in 0..256u64 {
        let a = nodes[0].replica().submit(RequestKey::new(k)).expect("accepted").wait();
        let b = nodes[1].replica().submit(RequestKey::new(k)).expect("accepted").wait();
        assert_eq!(a.result, b.result, "key {k} routed differently");
    }
}

/// The soak: churn threads race the gossip scheduler threads, then churn
/// stops and the set must converge within a bounded window while workers
/// keep serving lookups.
#[test]
fn concurrent_churn_soak_converges() {
    for round in 0..SOAK_ROUNDS {
        let seed = 0xC0FFEE + round as u64;
        let set = replica_set(2, seed, Duration::from_millis(2));
        let (a, b) = (Arc::clone(&set[0].0), Arc::clone(&set[1].0));
        // Base membership both replicas agree on, so lookups always route.
        for id in 0..8u64 {
            a.join(ServerId::new(id)).expect("fresh");
        }
        let mut nodes = set.into_iter().map(|(_, n)| n);
        let handle_a = nodes.next().expect("two nodes").spawn();
        let handle_b = nodes.next().expect("two nodes").spawn();

        std::thread::scope(|scope| {
            // Two churners on disjoint id ranges plus a contended range,
            // racing the gossip threads.
            for (replica, base) in [(&a, 100u64), (&b, 200u64)] {
                scope.spawn(move || {
                    for op in 0..CHURN_OPS {
                        let id = base + (op as u64 % 10);
                        // Join/leave alternation; errors (already present /
                        // not found, depending on what gossip merged first)
                        // are part of the race and acceptable.
                        let _ = if op % 2 == 0 {
                            replica.join(ServerId::new(id))
                        } else {
                            replica.leave(ServerId::new(id))
                        };
                        // Contended id both replicas fight over.
                        let _ = if op % 3 == 0 {
                            replica.join(ServerId::new(50))
                        } else {
                            replica.leave(ServerId::new(50))
                        };
                        std::thread::yield_now();
                    }
                });
            }
            // A lookup client streams throughout the churn+gossip race.
            let a = &a;
            scope.spawn(move || {
                for k in 0..400u64 {
                    if let Ok(ticket) = a.submit(RequestKey::new(k)) {
                        let response = ticket.wait();
                        assert!(
                            response.result.is_ok(),
                            "base members 0..8 never leave, pool can't be empty"
                        );
                    }
                }
            });
        });

        // Churn stopped; the schedulers must now converge the set.
        let deadline = Instant::now() + Duration::from_secs(30);
        while !converged(&[&a, &b]) {
            assert!(
                Instant::now() < deadline,
                "soak round {round}: replicas failed to converge after churn stopped"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let node_a = handle_a.stop();
        let node_b = handle_b.stop();
        // Stopping drains in-flight messages; the set must still agree.
        assert!(converged(&[&a, &b]), "soak round {round}: diverged during shutdown");
        assert_identical_members(&[&a, &b]);
        // Base members survived every race.
        let members = a.member_ids();
        for id in 0..8u64 {
            assert!(members.contains(&ServerId::new(id)), "base member {id} lost");
        }
        let rounds = node_a.metrics().rounds + node_b.metrics().rounds;
        assert!(rounds >= 2, "schedulers barely ran ({rounds} rounds)");
    }
}

/// The member set S of the two regressions below: base 0–7 plus parts of
/// the soak's churn ranges.
fn reproducer_set() -> Vec<u64> {
    let mut ids: Vec<u64> = (0..8).collect();
    ids.extend([100, 101, 102, 103, 109, 200, 202, 204, 206, 207, 208]);
    ids
}

/// Two replicas of the soak's geometry (d = 2,048, n = 64), holding `a`
/// and `b`. Seeded 0xC0FFEF: the soak that found these sets ran two tables
/// per replica at seed 0xC0FFEE, and the second table's basis was
/// 0xC0FFEE + 1.
fn pair_holding(a: &[u64], b: &[u64]) -> Vec<GossipNode<InProcessEndpoint>> {
    let set = replica_set(2, 0xC0FFEF, Duration::from_millis(50));
    for (ids, (replica, _)) in [a, b].into_iter().zip(&set) {
        for &id in ids {
            replica.join(ServerId::new(id)).expect("fresh");
        }
    }
    set.into_iter().map(|(_, n)| n).collect()
}

/// One sync round must reconcile the pair to the union of its members.
fn assert_one_round_to_union(nodes: &[GossipNode<InProcessEndpoint>], union: &[u64]) {
    let replicas: Vec<&ReplicatedEngine> = nodes.iter().map(GossipNode::replica).collect();
    assert!(!converged(&replicas), "different member sets reported converged");
    assert_eq!(run_until_converged(nodes, 4), Some(1));
    assert_identical_members(&replicas);
    let mut want: Vec<u64> = union.to_vec();
    want.sort_unstable();
    assert_eq!(replicas[0].member_ids(), want.into_iter().map(ServerId::new).collect::<Vec<_>>());
}

/// S and S ∪ {50, 108} read the same majority-centroid signature at this
/// seed: the majority absorbs the two extra members. The digests differ.
#[test]
fn members_absorbed_by_the_majority_still_sync() {
    let s = reproducer_set();
    let mut wider = s.clone();
    wider.extend([50, 108]);
    let nodes = pair_holding(&s, &wider);
    assert_one_round_to_union(&nodes, &wider);
}

/// Ids 50 and 106 hash to the same codebook slot, so S ∪ {50} and
/// S ∪ {106} have identical encodings and signatures. The digests differ.
#[test]
fn slot_colliding_members_still_sync() {
    let s = reproducer_set();
    let (mut a, mut b) = (s.clone(), s.clone());
    a.push(50);
    b.push(106);
    let nodes = pair_holding(&a, &b);
    let mut union = a;
    union.push(106);
    assert_one_round_to_union(&nodes, &union);
}
