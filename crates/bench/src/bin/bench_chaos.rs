//! Emits `BENCH_chaos.json`: gossip convergence cost under injected
//! network faults, across a drop-rate × partition-duration × replica-count
//! grid.
//!
//! ```text
//! cargo run --release -p hdhash-bench --bin bench_chaos
//! cargo run --release -p hdhash-bench --bin bench_chaos -- quick=1
//! cargo run --release -p hdhash-bench --bin bench_chaos -- out=/tmp/B.json drop=250,500
//! ```
//!
//! Each grid point builds a replica set with divergent membership
//! histories on a [`ChaosNetwork`] whose fault plan drops
//! `drop_per_mille`‰ of traffic (plus bounded delay and duplication) and,
//! when `partition_rounds > 0`, cuts replica 0 → replica 1 one-way for
//! that many rounds. The set gossips under faults for up to
//! `FAULT_ROUNDS` rounds; if still diverged, the network heals and the
//! remaining rounds measure recovery. Reported per point:
//!
//! * `rounds_to_converge` — total chaos rounds until every replica
//!   publishes the same member ids (the paper-level invariant:
//!   convergence is bounded no matter what the fault plan did);
//! * `converged_under_faults` — whether retry plus redundant fanout
//!   converged the set before the heal (common below 50% loss);
//! * `sync_retries` / `retry_bytes` — bounded-retry traffic: timed-out
//!   sync exchanges retransmitted under jittered exponential backoff;
//! * `dropped_total`, `bytes_on_wire`, `wall_ms`.
//!
//! The whole run is deterministic from the printed `chaos seed`; every
//! fault decision, gossip target, and retry jitter derives from it.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use hdhash_bench::{telemetry_embed, Params};
use hdhash_obs::TelemetrySnapshot;
use hdhash_serve::chaos::{ChaosEndpoint, ChaosNetwork, FaultPlan, LinkFaults};
use hdhash_serve::gossip::{converged, GossipConfig, GossipNode};
use hdhash_serve::replication::ReplicatedEngine;
use hdhash_serve::telemetry::{export_chaos, export_gossip};
use hdhash_serve::transport::ReplicaId;
use hdhash_serve::ServeConfig;
use hdhash_table::ServerId;

/// Seed for every fault plan in the grid; printed so a point replays.
const CHAOS_SEED: u64 = 0xC4A0_5EED;
/// Engine seed shared by all replicas (identical codebook geometry is
/// what makes converged memberships route alike).
const ENGINE_SEED: u64 = 0x6055;
/// Members joined identically on every replica before the divergence.
const BASE_MEMBERS: u64 = 12;
/// Hostile rounds driven before the network heals.
const FAULT_ROUNDS: usize = 12;
/// Convergence-after-heal budget; the suite asserts the same bound.
const MAX_HEAL_ROUNDS: usize = 64;
/// Hypervector dimension of each replica's table.
const DIMENSION: usize = 2048;

struct ChaosPoint {
    replicas: usize,
    drop_per_mille: u16,
    partition_rounds: u64,
    rounds_to_converge: usize,
    converged_under_faults: bool,
    sync_retries: u64,
    sync_abandoned: u64,
    retry_bytes: u64,
    bytes_on_wire: u64,
    dropped_total: u64,
    delivered: u64,
    wall_ms: f64,
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        batch_capacity: 16,
        queue_capacity: 256,
        dimension: DIMENSION,
        codebook_size: 64,
        seed: ENGINE_SEED,
        ..ServeConfig::default()
    }
}

/// One chaos round: advance the virtual clock (releasing held traffic),
/// advert from every node, pump until the mailboxes drain.
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

fn run_point(
    replicas: usize,
    drop_per_mille: u16,
    partition_rounds: u64,
    telemetry: &mut TelemetrySnapshot,
) -> ChaosPoint {
    let mut plan = FaultPlan::new(CHAOS_SEED).with_default_link(LinkFaults {
        drop_per_mille,
        duplicate_per_mille: 50,
        delay_per_mille: 100,
        max_delay_rounds: 2,
        reorder_per_mille: 50,
        ..LinkFaults::RELIABLE
    });
    if partition_rounds > 0 {
        plan = plan.with_partition_one_way(ReplicaId::new(0), ReplicaId::new(1), 0..partition_rounds);
    }
    let net = ChaosNetwork::new(plan);
    let peers: Vec<ReplicaId> = (0..replicas as u64).map(ReplicaId::new).collect();
    let engines: Vec<Arc<ReplicatedEngine>> = (0..replicas as u64)
        .map(|i| {
            Arc::new(
                ReplicatedEngine::new(ReplicaId::new(i), serve_config())
                    .expect("valid config"),
            )
        })
        .collect();
    let nodes: Vec<GossipNode<ChaosEndpoint>> = engines
        .iter()
        .enumerate()
        .map(|(i, engine)| {
            let id = ReplicaId::new(i as u64);
            GossipNode::new(
                Arc::clone(engine),
                net.endpoint(id),
                peers.clone(),
                GossipConfig::default(),
            )
        })
        .collect();

    // Shared base membership, then divergent histories: disjoint joins
    // per replica plus one removal, so reconciliation (and the retry
    // machinery under loss) has real work on every link.
    for (i, engine) in engines.iter().enumerate() {
        for id in 0..BASE_MEMBERS {
            engine.join(ServerId::new(id)).expect("fresh");
        }
        for s in 0..4u64 {
            engine.join(ServerId::new(100 + 10 * i as u64 + s)).expect("fresh");
        }
    }
    engines[0].leave(ServerId::new(1)).expect("present");

    let replica_refs: Vec<&ReplicatedEngine> = engines.iter().map(Arc::as_ref).collect();

    // Drive chaos rounds until the member sets agree. The fault plan runs
    // for FAULT_ROUNDS; if the set is still diverged at that point the
    // network heals and the remaining rounds measure recovery. Retry and
    // redundant fanout usually converge the set *through* the faults —
    // `converged_under_faults` records when that happened.
    let started = Instant::now();
    let mut rounds = 0usize;
    let mut healed = false;
    while !converged(&replica_refs) {
        if rounds >= FAULT_ROUNDS && !healed {
            net.heal();
            healed = true;
        }
        rounds += 1;
        assert!(
            rounds <= FAULT_ROUNDS + MAX_HEAL_ROUNDS,
            "replicas={replicas} drop={drop_per_mille} partition={partition_rounds}: \
             no convergence within {MAX_HEAL_ROUNDS} healed rounds"
        );
        chaos_round(&net, &nodes);
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let stats = net.stats();
    assert!(stats.reconciles(), "fault counters must reconcile");
    let metrics: Vec<_> = nodes.iter().map(GossipNode::metrics).collect();
    // Fold this point's gossip + chaos counters into the run-wide
    // unified snapshot; the JSON embeds its validated totals.
    let (n, d, p) =
        (replicas.to_string(), drop_per_mille.to_string(), partition_rounds.to_string());
    for (i, m) in metrics.iter().enumerate() {
        let r = i.to_string();
        let labels = [
            ("replicas", n.as_str()),
            ("drop", d.as_str()),
            ("partition", p.as_str()),
            ("replica", r.as_str()),
        ];
        export_gossip(telemetry, &labels, m);
    }
    export_chaos(
        telemetry,
        &[("replicas", n.as_str()), ("drop", d.as_str()), ("partition", p.as_str())],
        &stats,
    );
    ChaosPoint {
        replicas,
        drop_per_mille,
        partition_rounds,
        rounds_to_converge: rounds,
        converged_under_faults: !healed,
        sync_retries: metrics.iter().map(|m| m.sync_retries).sum(),
        sync_abandoned: metrics.iter().map(|m| m.sync_abandoned).sum(),
        retry_bytes: metrics.iter().map(|m| m.retry_bytes).sum(),
        bytes_on_wire: metrics.iter().map(|m| m.bytes_sent).sum(),
        dropped_total: stats.dropped_total(),
        delivered: stats.delivered,
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
        .unwrap_or_else(|| "BENCH_chaos.json".to_owned());
    let drop_rates = params
        .get_usize_list("drop", if quick { &[250, 500][..] } else { &[100, 250, 500][..] });
    let partition_durations = params
        .get_usize_list("partition", if quick { &[0, 6][..] } else { &[0, 6, 12][..] });
    let replica_counts =
        params.get_usize_list("replicas", if quick { &[3][..] } else { &[2, 3, 5][..] });

    println!("chaos seed: {CHAOS_SEED:#x}");
    let mut telemetry = TelemetrySnapshot::new();
    let mut grid: Vec<ChaosPoint> = Vec::new();
    for &replicas in &replica_counts {
        for &drop in &drop_rates {
            for &partition in &partition_durations {
                let point = run_point(
                    replicas,
                    u16::try_from(drop).expect("drop rate fits in per-mille"),
                    partition as u64,
                    &mut telemetry,
                );
                println!(
                    "replicas={:<2} drop={:<4}‰ partition={:<3} rounds-to-converge={:<3} \
                     ({}) retries={:<3} retry {:>6} B  dropped {:>5}  wire {:>8} B  {:>7.2} ms",
                    point.replicas,
                    point.drop_per_mille,
                    point.partition_rounds,
                    point.rounds_to_converge,
                    if point.converged_under_faults { "under faults" } else { "after heal" },
                    point.sync_retries,
                    point.retry_bytes,
                    point.dropped_total,
                    point.bytes_on_wire,
                    point.wall_ms,
                );
                grid.push(point);
            }
        }
    }

    let max_rounds = grid.iter().map(|p| p.rounds_to_converge).max().unwrap_or(0);
    println!(
        "convergence after heal is bounded: worst grid point needed {max_rounds} round(s)"
    );

    let mut json = String::from("{\n  \"benchmark\": \"BENCH_chaos\",\n");
    let _ = writeln!(json, "  \"kernel\": \"{}\",", hdhash_simdkernels::kernel_name());
    let _ = writeln!(
        json,
        "  \"host_cores\": {},",
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    );
    let _ = writeln!(json, "  \"chaos_seed\": {CHAOS_SEED},");
    let _ = writeln!(json, "  \"dimension\": {DIMENSION},");
    let _ = writeln!(json, "  \"base_members\": {BASE_MEMBERS},");
    let _ = writeln!(json, "  \"fault_rounds\": {FAULT_ROUNDS},");
    let _ = writeln!(
        json,
        "  \"faults\": \"per-link drop + 50‰ duplicate + 100‰ delay (≤2 rounds) + \
         50‰ reorder; optional one-way partition 0→1\","
    );
    let _ = writeln!(json, "  \"max_rounds_to_converge\": {max_rounds},");
    let _ = writeln!(
        json,
        "  \"telemetry\": {},",
        telemetry_embed::embed(
            &telemetry,
            &[
                "hdhash_chaos_offered_total",
                "hdhash_chaos_delivered_total",
                "hdhash_chaos_dropped_random_total",
                "hdhash_chaos_dropped_partition_total",
                "hdhash_gossip_sync_retries_total",
                "hdhash_gossip_sync_abandoned_total",
            ],
        )
    );
    json.push_str("  \"series\": [\n");
    for (i, p) in grid.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"replicas\": {}, \"drop_per_mille\": {}, \"partition_rounds\": {}, \
             \"rounds_to_converge\": {}, \"converged_under_faults\": {}, \
             \"sync_retries\": {}, \"sync_abandoned\": {}, \
             \"retry_bytes\": {}, \"bytes_on_wire\": {}, \"dropped_total\": {}, \
             \"delivered\": {}, \"wall_ms\": {:.2}}}{}",
            p.replicas,
            p.drop_per_mille,
            p.partition_rounds,
            p.rounds_to_converge,
            p.converged_under_faults,
            p.sync_retries,
            p.sync_abandoned,
            p.retry_bytes,
            p.bytes_on_wire,
            p.dropped_total,
            p.delivered,
            p.wall_ms,
            if i + 1 == grid.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("wrote {out_path}");
}
