//! Emits `BENCH_gossip.json`: replica-set convergence cost across a churn
//! volume grid.
//!
//! ```text
//! cargo run --release -p hdhash-bench --bin bench_gossip
//! cargo run --release -p hdhash-bench --bin bench_gossip -- quick=1
//! cargo run --release -p hdhash-bench --bin bench_gossip -- out=/tmp/B.json churn=8,64
//! ```
//!
//! Each grid point builds two replica engines sharing a base membership,
//! applies `churn_ops` divergent membership operations (split between the
//! replicas: disjoint joins plus conflicting joins/leaves on a contended
//! range), then runs explicit gossip rounds until the published member
//! sets are identical. Reported per point:
//!
//! * `rounds_to_converge` — driver rounds (each: both nodes advert, the
//!   network drains); anti-entropy converges in O(1) rounds regardless of
//!   churn volume, which is the headline this series pins;
//! * `trajectory` — member ids in which the replicas differ
//!   ([`member_divergence`]) before each round, ending at 0;
//! * `bytes_on_wire` — protocol bytes under the documented frame
//!   accounting: adverts cost one 16-byte digest (plus the piggybacked
//!   seen-through ack) per adverted peer per round, member records move
//!   **only** for diverged state;
//! * `records_adopted`, `divergence_detections`, `wall_ms`.
//!
//! A second series (`six_replica_series`) runs a 6-replica set with
//! divergent per-replica histories under restricted gossip fanout
//! (`min(fanout, peers)` deterministically-seeded peers per round):
//! convergence stays bounded while per-round advert traffic drops from
//! `peers` to `fanout` messages per node.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use hdhash_bench::{telemetry_embed, Params};
use hdhash_obs::TelemetrySnapshot;
use hdhash_serve::gossip::{converged, member_divergence, run_round, GossipConfig, GossipNode};
use hdhash_serve::replication::ReplicatedEngine;
use hdhash_serve::telemetry::export_gossip;
use hdhash_serve::transport::{InProcessNetwork, ReplicaId};
use hdhash_serve::ServeConfig;
use hdhash_table::ServerId;

/// Base membership shared by both replicas before the churn.
const BASE_MEMBERS: u64 = 24;
/// Hypervector dimension of each replica's table.
const DIMENSION: usize = 2048;

struct GridPoint {
    churn_ops: usize,
    rounds_to_converge: usize,
    trajectory: Vec<u64>,
    advert_bytes_per_round: u64,
    bytes_on_wire: u64,
    records_adopted: u64,
    divergence_detections: u64,
    wall_ms: f64,
}

fn replica(id: u64) -> (Arc<ReplicatedEngine>, ReplicaId) {
    let replica_id = ReplicaId::new(id);
    let config = ServeConfig {
        workers: 1,
        batch_capacity: 16,
        queue_capacity: 256,
        dimension: DIMENSION,
        codebook_size: 256,
        seed: 0x6055,
        ..ServeConfig::default()
    };
    (
        Arc::new(ReplicatedEngine::new(replica_id, config).expect("valid config")),
        replica_id,
    )
}

fn run_point(churn_ops: usize, telemetry: &mut TelemetrySnapshot) -> GridPoint {
    let network = InProcessNetwork::new();
    let (a, a_id) = replica(0);
    let (b, b_id) = replica(1);
    let peers = vec![a_id, b_id];
    let node_a = GossipNode::new(
        Arc::clone(&a),
        network.endpoint(a_id),
        peers.clone(),
        GossipConfig::default(),
    );
    let node_b = GossipNode::new(
        Arc::clone(&b),
        network.endpoint(b_id),
        peers,
        GossipConfig::default(),
    );

    // Shared base membership, installed identically on both replicas.
    for id in 0..BASE_MEMBERS {
        a.join(ServerId::new(id)).expect("fresh");
        b.join(ServerId::new(id)).expect("fresh");
    }
    // Divergent churn: disjoint joins plus a contended range where the
    // replicas issue conflicting joins/leaves.
    for op in 0..churn_ops {
        let op64 = op as u64;
        match op % 4 {
            0 => drop(a.join(ServerId::new(1000 + op64))),
            1 => drop(b.join(ServerId::new(2000 + op64))),
            2 => {
                let id = ServerId::new(op64 % BASE_MEMBERS);
                let _ = a.leave(id);
            }
            _ => {
                let id = ServerId::new(3000 + op64 % 8);
                let _ = a.join(id);
                let _ = b.join(id);
                let _ = b.leave(id);
            }
        }
    }

    let nodes = [node_a, node_b];
    let started = Instant::now();
    let mut trajectory = vec![member_divergence(&[&a, &b])];
    let mut rounds = 0usize;
    while !converged(&[&a, &b]) {
        rounds += 1;
        assert!(rounds <= 64, "gossip failed to converge in 64 rounds");
        run_round(&nodes);
        trajectory.push(member_divergence(&[&a, &b]));
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let metrics = [nodes[0].metrics(), nodes[1].metrics()];
    // Fold this point's gossip counters into the run-wide unified
    // snapshot; the JSON embeds its validated totals.
    for (i, m) in metrics.iter().enumerate() {
        let (c, r) = (churn_ops.to_string(), i.to_string());
        export_gossip(telemetry, &[("churn", c.as_str()), ("replica", r.as_str())], m);
    }
    let advert_bytes_per_round = (16 + 13 + 9) * nodes.len() as u64;
    GridPoint {
        churn_ops,
        rounds_to_converge: rounds,
        trajectory,
        advert_bytes_per_round,
        bytes_on_wire: metrics.iter().map(|m| m.bytes_sent).sum(),
        records_adopted: metrics.iter().map(|m| m.records_adopted).sum(),
        divergence_detections: metrics.iter().map(|m| m.divergence_detections).sum(),
        wall_ms,
    }
}

struct FanoutPoint {
    replicas: usize,
    fanout: usize,
    rounds_to_converge: usize,
    adverts_per_node_per_round: u64,
    bytes_on_wire: u64,
    records_adopted: u64,
    wall_ms: f64,
}

/// 6 replicas with disjoint divergent histories, gossiping under a
/// restricted per-round fanout.
fn run_fanout_point(replicas: usize, fanout: usize) -> FanoutPoint {
    let network = InProcessNetwork::new();
    let peers: Vec<ReplicaId> = (0..replicas as u64).map(ReplicaId::new).collect();
    let set: Vec<(Arc<ReplicatedEngine>, _)> = (0..replicas as u64)
        .map(|i| {
            let (replica, id) = replica(i);
            let node = GossipNode::new(
                Arc::clone(&replica),
                network.endpoint(id),
                peers.clone(),
                GossipConfig { fanout, ..GossipConfig::default() },
            );
            (replica, node)
        })
        .collect();
    // Shared base plus disjoint per-replica joins and one removal, so
    // every pair diverges and removal propagation rides the sparse
    // rounds.
    for (i, (replica, _)) in set.iter().enumerate() {
        for id in 0..BASE_MEMBERS {
            replica.join(ServerId::new(id)).expect("fresh");
        }
        for s in 0..4u64 {
            replica.join(ServerId::new(1000 + 10 * i as u64 + s)).expect("fresh");
        }
    }
    set[0].0.leave(ServerId::new(3)).expect("present");

    let replicas_refs: Vec<&ReplicatedEngine> =
        set.iter().map(|(r, _)| r.as_ref()).collect();
    let nodes: Vec<_> = set.iter().map(|(_, n)| n).collect();
    let started = Instant::now();
    let mut rounds = 0usize;
    while !converged(&replicas_refs) {
        rounds += 1;
        assert!(rounds <= 128, "fanout {fanout} failed to converge in 128 rounds");
        for node in &nodes {
            node.tick();
        }
        loop {
            let moved: usize = nodes.iter().map(|n| n.pump()).sum();
            if moved == 0 {
                break;
            }
        }
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let metrics: Vec<_> = nodes.iter().map(|n| n.metrics()).collect();
    let total_rounds: u64 = metrics.iter().map(|m| m.rounds).sum();
    let total_adverts: u64 = metrics.iter().map(|m| m.adverts_sent).sum();
    FanoutPoint {
        replicas,
        fanout,
        rounds_to_converge: rounds,
        adverts_per_node_per_round: total_adverts.checked_div(total_rounds).unwrap_or(0),
        bytes_on_wire: metrics.iter().map(|m| m.bytes_sent).sum(),
        records_adopted: metrics.iter().map(|m| m.records_adopted).sum(),
        wall_ms,
    }
}

fn main() {
    let params = Params::from_env();
    let quick =
        params.get_usize("quick", 0) != 0 || std::env::args().any(|a| a == "--quick");
    let out_path = std::env::args()
        .skip(1)
        .find_map(|a| a.strip_prefix("out=").map(str::to_owned))
        .unwrap_or_else(|| "BENCH_gossip.json".to_owned());
    let churn_rates =
        params.get_usize_list("churn", if quick { &[8, 32][..] } else { &[0, 8, 32, 128][..] });

    let mut telemetry = TelemetrySnapshot::new();
    let mut grid: Vec<GridPoint> = Vec::new();
    for &churn_ops in &churn_rates {
        let point = run_point(churn_ops, &mut telemetry);
        println!(
            "churn={:<4} rounds={:<2} start-divergence={:<4} \
             wire {:>7} B  records {:>4}  {:>7.2} ms",
            point.churn_ops,
            point.rounds_to_converge,
            point.trajectory.first().copied().unwrap_or(0),
            point.bytes_on_wire,
            point.records_adopted,
            point.wall_ms,
        );
        grid.push(point);
    }

    let max_rounds = grid.iter().map(|p| p.rounds_to_converge).max().unwrap_or(0);
    println!(
        "convergence is bounded: every grid point converged within {max_rounds} round(s); \
         quiescent pairs pay only the {}-byte advert",
        grid.first().map_or(0, |p| p.advert_bytes_per_round),
    );

    // The 6-replica fanout series: full mesh (fanout ≥ peers) vs
    // restricted epidemic fan-out.
    let fanouts: &[usize] = if quick { &[2, 5] } else { &[2, 3, 5] };
    let mut fanout_grid: Vec<FanoutPoint> = Vec::new();
    for &fanout in fanouts {
        let point = run_fanout_point(6, fanout);
        println!(
            "replicas=6 fanout={:<2} rounds={:<3} adverts/node/round={:<2} wire {:>8} B  \
             records {:>4}  {:>7.2} ms",
            point.fanout,
            point.rounds_to_converge,
            point.adverts_per_node_per_round,
            point.bytes_on_wire,
            point.records_adopted,
            point.wall_ms,
        );
        fanout_grid.push(point);
    }

    let mut json = String::from("{\n  \"benchmark\": \"BENCH_gossip\",\n");
    let _ = writeln!(json, "  \"kernel\": \"{}\",", hdhash_simdkernels::kernel_name());
    let _ = writeln!(
        json,
        "  \"host_cores\": {},",
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    );
    let _ = writeln!(json, "  \"dimension\": {DIMENSION},");
    let _ = writeln!(json, "  \"base_members\": {BASE_MEMBERS},");
    let _ = writeln!(
        json,
        "  \"protocol\": \"advert one membership digest; push-pull LWW member records on divergence\","
    );
    let _ = writeln!(json, "  \"max_rounds_to_converge\": {max_rounds},");
    let _ = writeln!(
        json,
        "  \"telemetry\": {},",
        telemetry_embed::embed(
            &telemetry,
            &[
                "hdhash_gossip_rounds_total",
                "hdhash_gossip_syncs_sent_total",
                "hdhash_gossip_sync_retries_total",
                "hdhash_gossip_sync_abandoned_total",
                "hdhash_gossip_records_adopted_total",
                "hdhash_gossip_bytes_sent_total",
            ],
        )
    );
    json.push_str("  \"series\": [\n");
    for (i, p) in grid.iter().enumerate() {
        let trajectory = p
            .trajectory
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            json,
            "    {{\"churn_ops\": {}, \"rounds_to_converge\": {}, \
             \"advert_bytes_per_round\": {}, \"bytes_on_wire\": {}, \
             \"records_adopted\": {}, \"divergence_detections\": {}, \
             \"wall_ms\": {:.2}, \"trajectory\": [{}]}}{}",
            p.churn_ops,
            p.rounds_to_converge,
            p.advert_bytes_per_round,
            p.bytes_on_wire,
            p.records_adopted,
            p.divergence_detections,
            p.wall_ms,
            trajectory,
            if i + 1 == grid.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n  \"six_replica_series\": [\n");
    for (i, p) in fanout_grid.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"replicas\": {}, \"fanout\": {}, \"rounds_to_converge\": {}, \
             \"adverts_per_node_per_round\": {}, \"bytes_on_wire\": {}, \
             \"records_adopted\": {}, \"wall_ms\": {:.2}}}{}",
            p.replicas,
            p.fanout,
            p.rounds_to_converge,
            p.adverts_per_node_per_round,
            p.bytes_on_wire,
            p.records_adopted,
            p.wall_ms,
            if i + 1 == fanout_grid.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("wrote {out_path}");
}
