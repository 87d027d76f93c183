//! Property suite for the chaos transport decorator: under arbitrary
//! seeded fault plans and arbitrary traffic scripts, the fault counters
//! always **reconcile** (`offered + duplicated = delivered + dropped +
//! in_flight`) and a replay from the same seed reproduces the **identical
//! fault sequence** — same deliveries, same order, same counters.

use std::sync::Arc;

use hdhash_serve::chaos::{ChaosEndpoint, ChaosNetwork, FaultPlan, LinkFaults};
use hdhash_serve::gossip::GossipMessage;
use hdhash_serve::transport::{ReplicaId, Transport};
use proptest::prelude::*;

const REPLICAS: u64 = 3;

/// One scripted traffic step: a directed send, optionally followed by a
/// round advance (which releases held messages).
#[derive(Debug, Clone)]
struct Step {
    from: u64,
    to_offset: u64,
    advance: bool,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0..REPLICAS, 0..REPLICAS - 1, any::<bool>())
            .prop_map(|(from, to_offset, advance)| Step { from, to_offset, advance }),
        1..48,
    )
}

fn fault_plans() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0u16..600,
        0u16..400,
        0u16..400,
        1u64..4,
        0u16..400,
        any::<bool>(),
    )
        .prop_map(|(seed, drop, dup, delay, max_delay, reorder, partition)| {
            let mut plan = FaultPlan::new(seed).with_default_link(LinkFaults {
                drop_per_mille: drop,
                duplicate_per_mille: dup,
                delay_per_mille: delay,
                max_delay_rounds: max_delay,
                reorder_per_mille: reorder,
                ..LinkFaults::RELIABLE
            });
            if partition {
                plan = plan.with_partition_one_way(ReplicaId::new(0), ReplicaId::new(1), 2..6);
            }
            plan
        })
}

/// Replays `script` over a fresh network running `plan`; returns the
/// delivery log (receiver, sender, message round, chaos round) and the
/// final stats. Drains deterministically: every endpoint after each step,
/// again after each advance, and a final flush via `heal`.
fn run_script(
    plan: FaultPlan,
    script: &[Step],
) -> (Vec<(u64, u64, u64, u64)>, hdhash_serve::ChaosStats) {
    let net = ChaosNetwork::new(plan);
    let endpoints: Vec<ChaosEndpoint> =
        (0..REPLICAS).map(|i| net.endpoint(ReplicaId::new(i))).collect();
    let mut log = Vec::new();
    let drain = |endpoints: &[ChaosEndpoint], log: &mut Vec<(u64, u64, u64, u64)>,
                 net: &Arc<ChaosNetwork>| {
        for (i, endpoint) in endpoints.iter().enumerate() {
            while let Some(env) = endpoint.try_recv() {
                let GossipMessage::Advert { round, .. } = env.message else {
                    panic!("script sends only adverts");
                };
                log.push((i as u64, env.from.get(), round, net.round()));
            }
        }
    };
    for (ordinal, step) in script.iter().enumerate() {
        let to = ReplicaId::new((step.from + 1 + step.to_offset) % REPLICAS);
        let message = GossipMessage::Advert {
            round: ordinal as u64,
            digests: Vec::new(),
            ack: None,
        };
        endpoints[step.from as usize].send(to, message).expect("registered peer");
        assert!(net.stats().reconciles(), "mid-script reconcile failure");
        drain(&endpoints, &mut log, &net);
        if step.advance {
            net.advance_round();
            drain(&endpoints, &mut log, &net);
        }
    }
    // Flush everything still parked so the log captures the whole run.
    net.heal();
    drain(&endpoints, &mut log, &net);
    (log, net.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The conservation identity holds at every observation point of any
    /// scripted run, and after the final flush nothing is left in flight.
    #[test]
    fn counters_reconcile_under_arbitrary_plans(plan in fault_plans(), script in steps()) {
        let offered = script.len() as u64;
        let (log, stats) = run_script(plan, &script);
        prop_assert!(stats.reconciles(), "final stats must reconcile: {:?}", stats);
        prop_assert_eq!(stats.offered, offered);
        prop_assert_eq!(stats.in_flight, 0, "heal flushed the held queue");
        prop_assert_eq!(
            stats.delivered,
            log.len() as u64,
            "every delivered message was observed exactly once"
        );
        prop_assert_eq!(
            stats.offered + stats.duplicated,
            stats.delivered + stats.dropped_total()
        );
    }

    /// Determinism: the same plan (same seed) over the same script yields
    /// the identical delivery log and identical counters.
    #[test]
    fn same_seed_replays_identically(plan in fault_plans(), script in steps()) {
        let first = run_script(plan.clone(), &script);
        let second = run_script(plan, &script);
        prop_assert_eq!(first.0, second.0, "delivery sequences diverged");
        prop_assert_eq!(first.1, second.1, "fault counters diverged");
    }

    /// A different seed over the same script is allowed to differ — and
    /// with any fault probability present it almost always does; what must
    /// never differ is the conservation identity.
    #[test]
    fn different_seeds_still_reconcile(plan in fault_plans(), script in steps()) {
        let mut other = plan.clone();
        other.seed = plan.seed.wrapping_add(1);
        let (_, a) = run_script(plan, &script);
        let (_, b) = run_script(other, &script);
        prop_assert!(a.reconciles());
        prop_assert!(b.reconciles());
        prop_assert_eq!(a.offered, b.offered, "offered counts are script-driven");
    }
}
