//! Property suite for anti-entropy delta application: merging
//! [`MemberRecord`] deltas into a [`MembershipLog`] is **idempotent**
//! (applying the same delta twice equals applying it once) and
//! **order-independent** (two deltas in either order reach the same
//! state), and both properties carry through to the membership *digests*
//! when the merged log is applied to real engines — the
//! guarantee that lets gossip rounds overlap, retry and reorder freely
//! without ever un-converging a replica set.

use hdhash_serve::replication::{MemberRecord, MembershipLog, ReplicatedEngine};
use hdhash_serve::transport::ReplicaId;
use hdhash_serve::ServeConfig;
use hdhash_table::ServerId;
use proptest::prelude::*;

/// Small id/version spaces force collisions (the interesting cases: same
/// server in both deltas, version ties with conflicting liveness).
fn records() -> impl Strategy<Value = Vec<MemberRecord>> {
    prop::collection::vec(
        (0u8..10, 1u64..6, any::<bool>()).prop_map(|(id, version, alive)| MemberRecord {
            server: ServerId::new(u64::from(id)),
            version,
            alive,
        }),
        0..12,
    )
}

/// A base log built from local decisions over the same id space.
fn base_log() -> impl Strategy<Value = Vec<(u8, bool)>> {
    prop::collection::vec((0u8..10, any::<bool>()), 0..10)
}

fn build_log(script: &[(u8, bool)]) -> MembershipLog {
    let mut log = MembershipLog::new();
    for &(id, alive) in script {
        log.set_local(ServerId::new(u64::from(id)), alive);
    }
    log
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        batch_capacity: 8,
        queue_capacity: 64,
        dimension: 1024,
        codebook_size: 32,
        seed: 404,
        ..ServeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// merge(merge(L, D), D) == merge(L, D): re-delivered deltas (gossip
    /// retries, duplicated messages) change nothing.
    #[test]
    fn merge_is_idempotent(script in base_log(), delta in records()) {
        let mut once = build_log(&script);
        once.merge(&delta);
        let mut twice = build_log(&script);
        twice.merge(&delta);
        let after_first = twice.records();
        let outcome = twice.merge(&delta);
        prop_assert_eq!(outcome.adopted, 0, "second application adopted records");
        prop_assert!(!outcome.changed_membership());
        prop_assert_eq!(twice.records(), once.records());
        prop_assert_eq!(twice.records(), after_first);
    }

    /// merge(merge(L, D1), D2) == merge(merge(L, D2), D1): deltas commute,
    /// so replicas may receive gossip exchanges in any interleaving.
    #[test]
    fn merge_is_order_independent(
        script in base_log(),
        d1 in records(),
        d2 in records(),
    ) {
        let mut forward = build_log(&script);
        forward.merge(&d1);
        forward.merge(&d2);
        let mut backward = build_log(&script);
        backward.merge(&d2);
        backward.merge(&d1);
        prop_assert_eq!(forward.records(), backward.records());
        prop_assert_eq!(forward.alive_ids(), backward.alive_ids());
    }

    /// Merging a log's own records back into it is a fixed point.
    #[test]
    fn self_merge_is_identity(script in base_log()) {
        let mut log = build_log(&script);
        let snapshot = log.records();
        let outcome = log.merge(&snapshot);
        prop_assert_eq!(outcome.adopted, 0);
        prop_assert_eq!(log.records(), snapshot);
    }
}

/// Replica count of the tombstone-GC simulation. Three matters: the
/// resurrection hazard needs a *third* replica to deliver an
/// old-versioned record after another peer's acknowledgement — a pair
/// structurally cannot exhibit it.
const GC_REPLICAS: usize = 3;

/// One step of the tombstone-GC simulation (see
/// `gc_never_changes_the_converged_membership`).
#[derive(Debug, Clone, Copy)]
enum GcEvent {
    /// `set_local(server, alive)` on one replica.
    Op { replica: u8, server: u8, alive: bool },
    /// A full push–pull sync exchange between an ordered pair, with the
    /// seen-through bookkeeping the gossip layer performs.
    Sync { initiator: u8, responder: u8 },
    /// An advert from one replica to another carrying the piggybacked
    /// ack, followed by a GC attempt on the receiving side (exactly the
    /// gossip `tick`/`handle` order, GC gated on the full peer set).
    AckAndGc { from: u8, to: u8 },
}

fn gc_events() -> impl Strategy<Value = Vec<GcEvent>> {
    let n = GC_REPLICAS as u8;
    prop::collection::vec(
        prop_oneof![
            (0..n, 0u8..6, any::<bool>())
                .prop_map(|(replica, server, alive)| GcEvent::Op { replica, server, alive }),
            (0..n, 0..n).prop_map(|(initiator, responder)| GcEvent::Sync {
                initiator,
                responder
            }),
            (0..n, 0..n).prop_map(|(from, to)| GcEvent::AckAndGc { from, to }),
        ],
        0..40,
    )
}

/// An `GC_REPLICAS`-replica world: the logs plus the watermark
/// bookkeeping the gossip layer maintains (`merged_through[i][j]` =
/// replica `i` has merged `j`'s full capture as of `j`-LSN `s`).
struct GcWorld {
    logs: Vec<MembershipLog>,
    merged_through: [[u64; GC_REPLICAS]; GC_REPLICAS],
    /// When false, expiry events are ignored — the tombstones-forever
    /// reference world.
    gc_enabled: bool,
}

impl GcWorld {
    fn new(gc_enabled: bool) -> Self {
        Self {
            logs: (0..GC_REPLICAS).map(|_| MembershipLog::new()).collect(),
            merged_through: [[0; GC_REPLICAS]; GC_REPLICAS],
            gc_enabled,
        }
    }

    fn peer_id(replica: usize) -> ReplicaId {
        ReplicaId::new(replica as u64)
    }

    /// Every peer id except `of` — the GC gate set.
    fn peers_of(of: usize) -> Vec<ReplicaId> {
        (0..GC_REPLICAS).filter(|&i| i != of).map(Self::peer_id).collect()
    }

    /// Full push–pull between the pair: `initiator` sends its capture,
    /// `responder` merges and replies with the merged set; both sides
    /// note what they saw (in the *sender's* LSN units, as the protocol
    /// does).
    fn sync(&mut self, initiator: usize, responder: usize) {
        if initiator == responder {
            return;
        }
        let (stamp, records) = (self.logs[initiator].lsn(), self.logs[initiator].records());
        self.logs[responder].merge(&records);
        self.merged_through[responder][initiator] =
            self.merged_through[responder][initiator].max(stamp);
        let (stamp, records) = (self.logs[responder].lsn(), self.logs[responder].records());
        self.logs[initiator].merge(&records);
        self.merged_through[initiator][responder] =
            self.merged_through[initiator][responder].max(stamp);
    }

    /// Advert `from → to`: the receiver learns "`from` has seen my
    /// capture through LSN s" and then attempts GC gated on its **full**
    /// peer set (never a subset).
    fn ack_and_gc(&mut self, from: usize, to: usize) {
        if from == to {
            return;
        }
        let seen = self.merged_through[from][to];
        if seen > 0 {
            self.logs[to].record_ack(Self::peer_id(from), seen);
        }
        if self.gc_enabled {
            let _ = self.logs[to].expire_tombstones(&Self::peers_of(to));
        }
    }

    fn apply(&mut self, event: GcEvent) {
        match event {
            GcEvent::Op { replica, server, alive } => {
                let _ = self.logs[replica as usize]
                    .set_local(ServerId::new(u64::from(server)), alive);
            }
            GcEvent::Sync { initiator, responder } => {
                self.sync(initiator as usize, responder as usize);
            }
            GcEvent::AckAndGc { from, to } => self.ack_and_gc(from as usize, to as usize),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// **Expiry never resurrects a removed member.** Two 3-replica worlds
    /// replay an identical random interleaving of local ops, pairwise
    /// push–pull syncs, and ack adverts; one world honors the watermark
    /// GC, the other keeps every tombstone forever. Clocks, LSNs and
    /// version assignment evolve identically, so after both worlds
    /// converge the live memberships must be byte-equal — a stale join
    /// resurrected by a dropped tombstone (the three-replica hazard: an
    /// old-versioned record arriving *after* another peer's ack) would
    /// differ from the tombstones-forever reference.
    #[test]
    fn gc_never_changes_the_converged_membership(events in gc_events()) {
        let mut gc_world = GcWorld::new(true);
        let mut reference = GcWorld::new(false);
        for &event in &events {
            gc_world.apply(event);
            reference.apply(event);
        }
        // Converge both worlds: two rounds of all-pairs exchanges (one
        // round spreads every record everywhere; the second covers
        // chains through a middle replica), with GC still firing in the
        // GC world.
        for world in [&mut gc_world, &mut reference] {
            for _ in 0..2 {
                for a in 0..GC_REPLICAS {
                    for b in (a + 1)..GC_REPLICAS {
                        world.sync(a, b);
                    }
                }
            }
            for from in 0..GC_REPLICAS {
                for to in 0..GC_REPLICAS {
                    world.ack_and_gc(from, to);
                }
            }
        }
        // Within each world the whole set agrees...
        for i in 1..GC_REPLICAS {
            prop_assert_eq!(gc_world.logs[0].alive_ids(), gc_world.logs[i].alive_ids());
            prop_assert_eq!(reference.logs[0].alive_ids(), reference.logs[i].alive_ids());
        }
        // ...and across worlds the live membership is identical: GC
        // changed record retention, never a liveness verdict.
        prop_assert_eq!(gc_world.logs[0].alive_ids(), reference.logs[0].alive_ids());
        // Sanity: the GC world's logs never hold more records.
        for i in 0..GC_REPLICAS {
            prop_assert!(
                gc_world.logs[i].records().len() <= reference.logs[i].records().len()
            );
        }
    }
}

proptest! {
    // Engine-backed cases are heavier; fewer of them suffice (the pure
    // log properties above carry the combinatorial load).
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The engine-level statement of both properties: two replicas fed
    /// the same deltas twice and in opposite orders end with **equal**
    /// digests and member ids — delta application at the engine
    /// level inherits the log's idempotence and commutativity.
    #[test]
    fn digests_are_delta_order_and_repeat_invariant(
        d1 in records(),
        d2 in records(),
    ) {
        let a = ReplicatedEngine::new(ReplicaId::new(0), serve_config())
            .expect("valid config");
        let b = ReplicatedEngine::new(ReplicaId::new(1), serve_config())
            .expect("valid config");
        // a: D1, D2 — with D1 re-applied (gossip duplicate).
        a.merge(&d1).expect("capacity fits");
        a.merge(&d1).expect("capacity fits");
        a.merge(&d2).expect("capacity fits");
        // b: D2, D1.
        b.merge(&d2).expect("capacity fits");
        b.merge(&d1).expect("capacity fits");
        prop_assert_eq!(a.member_ids(), b.member_ids());
        prop_assert_eq!(a.digest(), b.digest());
        // And the engines themselves converged, not just the logs.
        prop_assert_eq!(
            a.engine().snapshots()[0].member_ids(),
            b.engine().snapshots()[0].member_ids()
        );
    }
}
