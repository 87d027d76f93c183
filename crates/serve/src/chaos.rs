//! Deterministic fault injection for the replica transport.
//!
//! [`ChaosNetwork`] decorates an [`InProcessNetwork`] with a seeded,
//! scriptable [`FaultPlan`]: per-link drop probability, bounded delay,
//! duplication, reordering, **asymmetric** partitions, and whole-replica
//! crash/restart windows. Every decision is a pure function of
//! `(seed, link, per-link sequence number)`, so a failing scenario replays
//! bit-for-bit from its printed seed — the property the chaos suite
//! (`tests/chaos.rs`) and `bench_chaos` are built on.
//!
//! Faults are expressed in **chaos rounds**, a virtual clock advanced by
//! the harness via [`ChaosNetwork::advance_round`]. Delayed and reordered
//! messages sit in a central held queue and are released at round
//! boundaries, which makes "in flight" observable: the fault counters
//! reconcile exactly,
//!
//! ```text
//!   offered + duplicated = delivered + dropped + in_flight
//! ```
//!
//! where `dropped` sums the random, partition, crash and disconnect drop
//! counters ([`ChaosStats::dropped_total`]). Messages purged from a
//! crashed replica's mailbox were already `delivered` to the wire and are
//! tallied separately ([`ChaosStats::purged_on_crash`]).
//!
//! The decorator is transparent to the gossip layer: [`ChaosEndpoint`]
//! implements [`Transport`], so a [`GossipNode`](crate::gossip::GossipNode)
//! wired over it cannot tell a hostile network from a healthy one — which
//! is exactly the point.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::gossip::GossipMessage;
use crate::transport::{
    Envelope, InProcessEndpoint, InProcessNetwork, ReplicaId, Transport, TransportError,
};

/// Per-directed-link fault probabilities, in per-mille (`0..=1000`).
///
/// Integer probabilities keep every decision exactly reproducible across
/// platforms — no floating point is involved anywhere in the fault path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFaults {
    /// Probability the message is silently dropped.
    pub drop_per_mille: u16,
    /// Probability the message is delivered twice (the duplicate copy is
    /// held to the next round, like a late retransmission).
    pub duplicate_per_mille: u16,
    /// Probability the message is held for a bounded number of rounds.
    pub delay_per_mille: u16,
    /// Upper bound on the delay, in rounds (`≥ 1` when delay fires; a
    /// configured `0` is treated as `1`).
    pub max_delay_rounds: u64,
    /// Probability the message is held past the rest of this round's
    /// traffic (delivered at the next round boundary — reordered relative
    /// to everything sent after it this round).
    pub reorder_per_mille: u16,
    /// Probability the send *fails at the sender* with
    /// [`TransportError::Timeout`] — modelling a write deadline expiring
    /// on a stalled connection (the TCP transport's
    /// `set_write_timeout` path). Unlike a silent drop, the sender
    /// observes the failure; the message is still lost.
    pub stall_per_mille: u16,
}

impl LinkFaults {
    /// No faults at all — the decorator becomes a pass-through.
    pub const RELIABLE: Self = Self {
        drop_per_mille: 0,
        duplicate_per_mille: 0,
        delay_per_mille: 0,
        max_delay_rounds: 0,
        reorder_per_mille: 0,
        stall_per_mille: 0,
    };

    /// A link that only drops, with probability `drop_per_mille`/1000.
    #[must_use]
    pub const fn lossy(drop_per_mille: u16) -> Self {
        Self { drop_per_mille, ..Self::RELIABLE }
    }

    /// Whether this configuration injects no faults.
    #[must_use]
    pub fn is_reliable(&self) -> bool {
        *self == Self::RELIABLE
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        Self::RELIABLE
    }
}

/// A one-way partition: messages `from → to` are dropped while the
/// chaos round is inside `rounds`. Symmetric partitions are two of these
/// (see [`FaultPlan::with_partition`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Sending side of the severed direction.
    pub from: ReplicaId,
    /// Receiving side of the severed direction.
    pub to: ReplicaId,
    /// Active round window (half-open, in chaos rounds).
    pub rounds: Range<u64>,
}

/// A whole-replica crash window: while the chaos round is inside
/// `rounds`, the replica sends nothing, receives nothing, and loses
/// whatever already sat in its mailbox the next time it polls. When the
/// window ends the replica "restarts" with its in-memory state intact
/// (process-pause semantics; durable-state restart is a transport-level
/// concern a socket layer would add).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashed replica.
    pub replica: ReplicaId,
    /// Active round window (half-open, in chaos rounds).
    pub rounds: Range<u64>,
}

/// A seeded, scriptable fault scenario for a [`ChaosNetwork`].
///
/// # Examples
///
/// 25% loss everywhere, a one-way partition of replica 0 from replica 1
/// for rounds 2..6, and replica 2 crashed for rounds 3..5:
///
/// ```
/// use hdhash_serve::chaos::{FaultPlan, LinkFaults};
/// use hdhash_serve::transport::ReplicaId;
///
/// let plan = FaultPlan::new(0xC0FFEE)
///     .with_default_link(LinkFaults::lossy(250))
///     .with_partition_one_way(ReplicaId::new(0), ReplicaId::new(1), 2..6)
///     .with_crash(ReplicaId::new(2), 3..5);
/// assert_eq!(plan.seed, 0xC0FFEE);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of every probabilistic decision; printing it is enough to
    /// replay the scenario.
    pub seed: u64,
    /// Faults applied to links without an explicit override.
    pub default_link: LinkFaults,
    /// Per-directed-link overrides `(from, to, faults)`.
    pub links: Vec<(ReplicaId, ReplicaId, LinkFaults)>,
    /// Scripted one-way partitions.
    pub partitions: Vec<Partition>,
    /// Scripted crash windows.
    pub crashes: Vec<CrashWindow>,
}

impl FaultPlan {
    /// A plan with no faults; add them with the builder methods.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            default_link: LinkFaults::RELIABLE,
            links: Vec::new(),
            partitions: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Sets the fault profile of every link without an override.
    #[must_use]
    pub fn with_default_link(mut self, faults: LinkFaults) -> Self {
        self.default_link = faults;
        self
    }

    /// Overrides the fault profile of the directed link `from → to`.
    #[must_use]
    pub fn with_link(mut self, from: ReplicaId, to: ReplicaId, faults: LinkFaults) -> Self {
        self.links.push((from, to, faults));
        self
    }

    /// Severs the directed link `from → to` for the given round window —
    /// the **asymmetric** partition primitive (`to` can still reach
    /// `from`).
    #[must_use]
    pub fn with_partition_one_way(
        mut self,
        from: ReplicaId,
        to: ReplicaId,
        rounds: Range<u64>,
    ) -> Self {
        self.partitions.push(Partition { from, to, rounds });
        self
    }

    /// Severs both directions between `a` and `b` for the round window.
    #[must_use]
    pub fn with_partition(self, a: ReplicaId, b: ReplicaId, rounds: Range<u64>) -> Self {
        self.with_partition_one_way(a, b, rounds.clone()).with_partition_one_way(b, a, rounds)
    }

    /// Crashes `replica` for the round window (no sends, no receipt,
    /// mailbox purged on poll).
    #[must_use]
    pub fn with_crash(mut self, replica: ReplicaId, rounds: Range<u64>) -> Self {
        self.crashes.push(CrashWindow { replica, rounds });
        self
    }

    /// The fault profile of the directed link `from → to`.
    #[must_use]
    pub fn link_faults(&self, from: ReplicaId, to: ReplicaId) -> LinkFaults {
        self.links
            .iter()
            .find(|(f, t, _)| *f == from && *t == to)
            .map_or(self.default_link, |(_, _, faults)| *faults)
    }

    /// Whether the directed link `from → to` is partitioned at `round`.
    #[must_use]
    pub fn partitioned(&self, from: ReplicaId, to: ReplicaId, round: u64) -> bool {
        self.partitions
            .iter()
            .any(|p| p.from == from && p.to == to && p.rounds.contains(&round))
    }

    /// Whether `replica` is inside a crash window at `round`.
    #[must_use]
    pub fn crashed(&self, replica: ReplicaId, round: u64) -> bool {
        self.crashes.iter().any(|c| c.replica == replica && c.rounds.contains(&round))
    }
}

/// Point-in-time fault counters, snapshotted by [`ChaosNetwork::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Messages handed to the chaos layer by senders.
    pub offered: u64,
    /// Extra copies created by duplication faults.
    pub duplicated: u64,
    /// Messages (or copies) that reached a mailbox.
    pub delivered: u64,
    /// Random per-link drops.
    pub dropped_random: u64,
    /// Drops by an active partition.
    pub dropped_partition: u64,
    /// Drops because an end of the link was crashed.
    pub dropped_crash: u64,
    /// Drops because the destination endpoint was gone (unregistered or
    /// dropped) when the chaos layer tried to deliver.
    pub dropped_disconnected: u64,
    /// Messages held for a bounded number of rounds.
    pub delayed: u64,
    /// Messages held past later same-round traffic.
    pub reordered: u64,
    /// Messages currently sitting in the held queue.
    pub in_flight: u64,
    /// Sends rejected with [`TransportError::Timeout`] by an injected
    /// stall — sender-visible loss, counted into
    /// [`dropped_total`](Self::dropped_total).
    pub stalled: u64,
    /// Mailbox messages discarded because their owner polled while
    /// crashed. These were already counted `delivered`, so they sit
    /// outside the reconciliation identity.
    pub purged_on_crash: u64,
}

impl ChaosStats {
    /// Every drop bucket summed.
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.dropped_random
            + self.dropped_partition
            + self.dropped_crash
            + self.dropped_disconnected
            + self.stalled
    }

    /// The conservation identity every snapshot must satisfy:
    /// `offered + duplicated = delivered + dropped + in_flight`.
    #[must_use]
    pub fn reconciles(&self) -> bool {
        self.offered + self.duplicated == self.delivered + self.dropped_total() + self.in_flight
    }
}

#[derive(Debug, Default)]
struct ChaosCounters {
    offered: AtomicU64,
    duplicated: AtomicU64,
    delivered: AtomicU64,
    dropped_random: AtomicU64,
    dropped_partition: AtomicU64,
    dropped_crash: AtomicU64,
    dropped_disconnected: AtomicU64,
    delayed: AtomicU64,
    reordered: AtomicU64,
    stalled: AtomicU64,
    purged_on_crash: AtomicU64,
}

/// A message parked in the held queue (delayed, reordered, or a late
/// duplicate copy).
#[derive(Debug)]
struct HeldMessage {
    release: u64,
    seq: u64,
    from: ReplicaId,
    to: ReplicaId,
    message: GossipMessage,
}

/// The chaos decorator over an [`InProcessNetwork`]: carve per-replica
/// [`ChaosEndpoint`]s with [`endpoint`](Self::endpoint), drive the virtual
/// clock with [`advance_round`](Self::advance_round), and stop all faults
/// with [`heal`](Self::heal).
#[derive(Debug)]
pub struct ChaosNetwork {
    inner: Arc<InProcessNetwork>,
    plan: FaultPlan,
    /// Current chaos round (virtual time; advanced by the harness).
    round: AtomicU64,
    /// Once set, every fault is disabled and held traffic is flushed.
    healed: AtomicBool,
    /// Per-directed-link message sequence numbers — the third input of
    /// every fault decision, so a link's fault sequence depends only on
    /// its own traffic order.
    link_seq: Mutex<BTreeMap<(u64, u64), u64>>,
    /// Tie-break for held-queue release order.
    hold_seq: AtomicU64,
    held: Mutex<Vec<HeldMessage>>,
    counters: ChaosCounters,
}

impl ChaosNetwork {
    /// Builds a chaos network executing `plan` over a fresh in-process
    /// network.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        Arc::new(Self {
            inner: InProcessNetwork::new(),
            plan,
            round: AtomicU64::new(0),
            healed: AtomicBool::new(false),
            link_seq: Mutex::new(BTreeMap::new()),
            hold_seq: AtomicU64::new(0),
            held: Mutex::new(Vec::new()),
            counters: ChaosCounters::default(),
        })
    }

    /// Registers `id` and returns its fault-injected endpoint.
    #[must_use]
    pub fn endpoint(self: &Arc<Self>, id: ReplicaId) -> ChaosEndpoint {
        ChaosEndpoint { net: Arc::clone(self), inner: self.inner.endpoint(id) }
    }

    /// The scripted scenario this network executes.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The current chaos round.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round.load(Ordering::Relaxed)
    }

    /// Messages currently parked in the held queue.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.held.lock().len() as u64
    }

    /// Whether [`heal`](Self::heal) has been called.
    #[must_use]
    pub fn is_healed(&self) -> bool {
        self.healed.load(Ordering::Acquire)
    }

    /// Whether `replica` is currently inside a crash window (always
    /// `false` after [`heal`](Self::heal)).
    #[must_use]
    pub fn is_crashed(&self, replica: ReplicaId) -> bool {
        !self.is_healed() && self.plan.crashed(replica, self.round())
    }

    /// Advances the virtual clock one round and releases held messages
    /// that came due (re-checking partitions and crashes at release
    /// time). Returns the new round.
    pub fn advance_round(&self) -> u64 {
        let round = self.round.fetch_add(1, Ordering::Relaxed) + 1;
        self.release_due(round);
        round
    }

    /// Disables every fault from now on and flushes the held queue —
    /// "the network went quiet"; the convergence-after-heal invariant is
    /// asserted after this call.
    pub fn heal(&self) {
        self.healed.store(true, Ordering::Release);
        self.release_due(u64::MAX);
    }

    /// Point-in-time fault counters.
    #[must_use]
    pub fn stats(&self) -> ChaosStats {
        let c = &self.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ChaosStats {
            offered: load(&c.offered),
            duplicated: load(&c.duplicated),
            delivered: load(&c.delivered),
            dropped_random: load(&c.dropped_random),
            dropped_partition: load(&c.dropped_partition),
            dropped_crash: load(&c.dropped_crash),
            dropped_disconnected: load(&c.dropped_disconnected),
            delayed: load(&c.delayed),
            reordered: load(&c.reordered),
            stalled: load(&c.stalled),
            in_flight: self.in_flight(),
            purged_on_crash: load(&c.purged_on_crash),
        }
    }

    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Applies the fault plan to one offered message. Fault checks run in
    /// a fixed order (crash, partition, then one probabilistic fault:
    /// drop > duplicate > delay > reorder), each consuming one draw from
    /// the link's decision stream so later checks stay aligned across
    /// replays regardless of which fault fires.
    fn dispatch(
        &self,
        from: ReplicaId,
        to: ReplicaId,
        message: GossipMessage,
    ) -> Result<(), TransportError> {
        Self::add(&self.counters.offered, 1);
        if self.is_healed() {
            return self.deliver(from, to, message);
        }
        let round = self.round();
        if self.plan.crashed(from, round) || self.plan.crashed(to, round) {
            Self::add(&self.counters.dropped_crash, 1);
            return Ok(());
        }
        if self.plan.partitioned(from, to, round) {
            Self::add(&self.counters.dropped_partition, 1);
            return Ok(());
        }
        let faults = self.plan.link_faults(from, to);
        if faults.is_reliable() {
            return self.deliver(from, to, message);
        }
        let mut state = self.decision_state(from, to);
        if per_mille(&mut state, faults.drop_per_mille) {
            Self::add(&self.counters.dropped_random, 1);
            return Ok(());
        }
        if per_mille(&mut state, faults.stall_per_mille) {
            // Sender-visible loss: the write deadline expired. Same
            // failure the TCP transport surfaces for a wedged peer.
            Self::add(&self.counters.stalled, 1);
            return Err(TransportError::Timeout(to));
        }
        if per_mille(&mut state, faults.duplicate_per_mille) {
            // The extra copy trails one round behind, like a late
            // retransmission; the original goes through normally.
            Self::add(&self.counters.duplicated, 1);
            self.hold(round + 1, from, to, message.clone());
        }
        if per_mille(&mut state, faults.delay_per_mille) {
            let span = faults.max_delay_rounds.max(1);
            let delay = 1 + draw(&mut state) % span;
            Self::add(&self.counters.delayed, 1);
            self.hold(round + delay, from, to, message);
            return Ok(());
        }
        if per_mille(&mut state, faults.reorder_per_mille) {
            // Held to the next round boundary: everything sent later this
            // round overtakes it.
            Self::add(&self.counters.reordered, 1);
            self.hold(round + 1, from, to, message);
            return Ok(());
        }
        self.deliver(from, to, message)
    }

    /// Seeds the per-message decision stream: a pure function of the
    /// plan seed, the directed link, and that link's message ordinal.
    fn decision_state(&self, from: ReplicaId, to: ReplicaId) -> u64 {
        let key = (from.get(), to.get());
        let seq = {
            let mut map = self.link_seq.lock();
            let entry = map.entry(key).or_insert(0);
            *entry += 1;
            *entry
        };
        let link = hdhash_hashfn::mix64(
            from.get().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ hdhash_hashfn::mix64(to.get()),
        );
        hdhash_hashfn::mix64(self.plan.seed ^ link ^ hdhash_hashfn::mix64(seq))
    }

    fn hold(&self, release: u64, from: ReplicaId, to: ReplicaId, message: GossipMessage) {
        let seq = self.hold_seq.fetch_add(1, Ordering::Relaxed);
        self.held.lock().push(HeldMessage { release, seq, from, to, message });
    }

    fn deliver(
        &self,
        from: ReplicaId,
        to: ReplicaId,
        message: GossipMessage,
    ) -> Result<(), TransportError> {
        match self.inner.route(from, to, message) {
            Ok(()) => {
                Self::add(&self.counters.delivered, 1);
                Ok(())
            }
            Err(err) => {
                Self::add(&self.counters.dropped_disconnected, 1);
                Err(err)
            }
        }
    }

    /// Releases held messages due at or before `round`, in hold order,
    /// re-checking receiver crash and partition state at release time (a
    /// message delayed *into* a partition window is lost, as it would be
    /// on a real wire).
    fn release_due(&self, round: u64) {
        let mut due: Vec<HeldMessage> = {
            let mut held = self.held.lock();
            let mut due = Vec::new();
            let mut keep = Vec::new();
            for entry in held.drain(..) {
                if entry.release <= round {
                    due.push(entry);
                } else {
                    keep.push(entry);
                }
            }
            *held = keep;
            due
        };
        due.sort_unstable_by_key(|m| m.seq);
        let healed = self.is_healed();
        for HeldMessage { from, to, message, .. } in due {
            if !healed && self.plan.crashed(to, round) {
                Self::add(&self.counters.dropped_crash, 1);
            } else if !healed && self.plan.partitioned(from, to, round) {
                Self::add(&self.counters.dropped_partition, 1);
            } else {
                // Disconnects are counted inside `deliver`; with no
                // caller to hand the error to, it ends there.
                let _ = self.deliver(from, to, message);
            }
        }
    }

    /// Discards everything in `inbox`, counting each message as purged —
    /// the "process restarted, inbox lost" half of crash semantics.
    fn purge_inbox(&self, inbox: &InProcessEndpoint) {
        while inbox.try_recv().is_some() {
            Self::add(&self.counters.purged_on_crash, 1);
        }
    }
}

/// Advances the decision stream one draw.
fn draw(state: &mut u64) -> u64 {
    *state = hdhash_hashfn::mix64(state.wrapping_add(0xD1B5_4A32_D192_ED03));
    *state
}

/// One probabilistic check: consumes a draw, fires with `p`/1000.
fn per_mille(state: &mut u64, p: u16) -> bool {
    draw(state) % 1000 < u64::from(p)
}

/// One replica's fault-injected connection to a [`ChaosNetwork`].
#[derive(Debug)]
pub struct ChaosEndpoint {
    net: Arc<ChaosNetwork>,
    inner: InProcessEndpoint,
}

impl ChaosEndpoint {
    /// The chaos network this endpoint is wired to.
    #[must_use]
    pub fn network(&self) -> &Arc<ChaosNetwork> {
        &self.net
    }
}

impl Transport for ChaosEndpoint {
    fn local(&self) -> ReplicaId {
        self.inner.local()
    }

    fn send(&self, to: ReplicaId, message: GossipMessage) -> Result<(), TransportError> {
        self.net.dispatch(self.local(), to, message)
    }

    fn try_recv(&self) -> Option<Envelope> {
        if self.net.is_crashed(self.local()) {
            self.net.purge_inbox(&self.inner);
            return None;
        }
        self.inner.try_recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        if self.net.is_crashed(self.local()) {
            self.net.purge_inbox(&self.inner);
            // A crashed process doesn't spin; model the blocking poll as
            // the timeout elapsing with nothing to show.
            std::thread::sleep(timeout);
            return None;
        }
        self.inner.recv_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn advert(round: u64) -> GossipMessage {
        GossipMessage::Advert { round, digests: Vec::new(), ack: None }
    }

    fn ids(n: u64) -> Vec<ReplicaId> {
        (0..n).map(ReplicaId::new).collect()
    }

    #[test]
    fn reliable_plan_is_a_pass_through() {
        let net = ChaosNetwork::new(FaultPlan::new(1));
        let r = ids(2);
        let a = net.endpoint(r[0]);
        let b = net.endpoint(r[1]);
        for round in 0..8 {
            a.send(r[1], advert(round)).expect("registered");
        }
        let mut got = 0;
        while let Some(envelope) = b.try_recv() {
            assert_eq!(envelope.from, r[0]);
            got += 1;
        }
        assert_eq!(got, 8);
        let stats = net.stats();
        assert_eq!(stats.offered, 8);
        assert_eq!(stats.delivered, 8);
        assert_eq!(stats.dropped_total(), 0);
        assert!(stats.reconciles());
    }

    #[test]
    fn drop_rate_drops_and_counters_reconcile() {
        let plan = FaultPlan::new(42).with_default_link(LinkFaults::lossy(500));
        let net = ChaosNetwork::new(plan);
        let r = ids(2);
        let a = net.endpoint(r[0]);
        let b = net.endpoint(r[1]);
        for round in 0..200 {
            a.send(r[1], advert(round)).expect("registered");
        }
        let mut got = 0;
        while b.try_recv().is_some() {
            got += 1;
        }
        let stats = net.stats();
        assert_eq!(stats.offered, 200);
        assert_eq!(stats.delivered, got);
        assert!(stats.dropped_random > 50, "~50% of 200 should drop");
        assert!(stats.dropped_random < 150);
        assert!(stats.reconciles(), "{stats:?}");
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let run = |seed: u64| -> (Vec<u64>, ChaosStats) {
            let plan = FaultPlan::new(seed).with_default_link(LinkFaults {
                drop_per_mille: 300,
                duplicate_per_mille: 150,
                delay_per_mille: 150,
                max_delay_rounds: 3,
                reorder_per_mille: 150,
                stall_per_mille: 100,
            });
            let net = ChaosNetwork::new(plan);
            let r = ids(2);
            let a = net.endpoint(r[0]);
            let b = net.endpoint(r[1]);
            let mut order = Vec::new();
            for round in 0..64 {
                let _ = a.send(r[1], advert(round));
                net.advance_round();
                while let Some(env) = b.try_recv() {
                    if let GossipMessage::Advert { round, .. } = env.message {
                        order.push(round);
                    }
                }
            }
            net.heal();
            while let Some(env) = b.try_recv() {
                if let GossipMessage::Advert { round, .. } = env.message {
                    order.push(round);
                }
            }
            (order, net.stats())
        };
        let (order_a, stats_a) = run(7);
        let (order_b, stats_b) = run(7);
        assert_eq!(order_a, order_b, "same seed must replay identically");
        assert_eq!(stats_a, stats_b);
        let (order_c, _) = run(8);
        assert_ne!(order_a, order_c, "different seed must differ somewhere");
        assert!(stats_a.reconciles());
        assert_eq!(stats_a.in_flight, 0, "heal flushed the held queue");
    }

    #[test]
    fn stall_fault_surfaces_timeout_at_the_sender() {
        let plan = FaultPlan::new(5).with_default_link(LinkFaults {
            stall_per_mille: 1000,
            ..LinkFaults::RELIABLE
        });
        let net = ChaosNetwork::new(plan);
        let r = ids(2);
        let a = net.endpoint(r[0]);
        let b = net.endpoint(r[1]);
        for round in 0..10 {
            // Every send fails loudly — the same error the TCP transport
            // returns for a wedged peer — and the message is lost.
            match a.send(r[1], advert(round)) {
                Err(TransportError::Timeout(peer)) => assert_eq!(peer, r[1]),
                other => panic!("expected Timeout, got {other:?}"),
            }
        }
        net.advance_round();
        assert!(b.try_recv().is_none(), "stalled sends must not deliver");
        let stats = net.stats();
        assert_eq!(stats.offered, 10);
        assert_eq!(stats.stalled, 10);
        assert_eq!(stats.delivered, 0);
        assert!(stats.reconciles(), "{stats:?}");
    }

    #[test]
    fn asymmetric_partition_severs_one_direction_only() {
        let r = ids(2);
        let plan = FaultPlan::new(3).with_partition_one_way(r[0], r[1], 0..10);
        let net = ChaosNetwork::new(plan);
        let a = net.endpoint(r[0]);
        let b = net.endpoint(r[1]);
        a.send(r[1], advert(1)).expect("registered");
        b.send(r[0], advert(2)).expect("registered");
        assert!(b.try_recv().is_none(), "a→b severed");
        assert!(a.try_recv().is_some(), "b→a open");
        // Past the window the direction heals.
        while net.round() < 10 {
            net.advance_round();
        }
        a.send(r[1], advert(3)).expect("registered");
        assert!(b.try_recv().is_some(), "partition window ended");
        let stats = net.stats();
        assert_eq!(stats.dropped_partition, 1);
        assert!(stats.reconciles());
    }

    #[test]
    fn crash_window_blackholes_and_purges() {
        let r = ids(2);
        let plan = FaultPlan::new(4).with_crash(r[1], 2..4);
        let net = ChaosNetwork::new(plan);
        let a = net.endpoint(r[0]);
        let b = net.endpoint(r[1]);
        // Delivered before the crash, but polled during it: purged.
        a.send(r[1], advert(1)).expect("registered");
        net.advance_round(); // round 1
        net.advance_round(); // round 2 — crash window opens
        assert!(net.is_crashed(r[1]));
        assert!(b.try_recv().is_none(), "crashed replica receives nothing");
        // Sent during the crash: dropped at dispatch.
        a.send(r[1], advert(2)).expect("registered");
        b.send(r[0], advert(3)).expect("registered");
        assert!(a.try_recv().is_none(), "crashed replica sends nothing");
        net.advance_round(); // round 3
        net.advance_round(); // round 4 — restart
        assert!(!net.is_crashed(r[1]));
        a.send(r[1], advert(5)).expect("registered");
        let envelope = b.try_recv().expect("restarted replica receives");
        assert!(matches!(envelope.message, GossipMessage::Advert { round: 5, .. }));
        let stats = net.stats();
        assert_eq!(stats.purged_on_crash, 1);
        assert_eq!(stats.dropped_crash, 2, "one inbound + one outbound");
        assert!(stats.reconciles());
    }

    #[test]
    fn delayed_messages_release_in_order_at_round_boundaries() {
        let r = ids(2);
        // Delay every message 1..=2 rounds, nothing else.
        let plan = FaultPlan::new(11).with_default_link(LinkFaults {
            delay_per_mille: 1000,
            max_delay_rounds: 2,
            ..LinkFaults::RELIABLE
        });
        let net = ChaosNetwork::new(plan);
        let a = net.endpoint(r[0]);
        let b = net.endpoint(r[1]);
        // One send per round: a 1–2 round delay can shift each message
        // but never reorder a stream spaced a full round apart (a later
        // send releases no earlier, and same-release-round messages keep
        // send order).
        let mut got = Vec::new();
        let drain = |got: &mut Vec<u64>| {
            while let Some(env) = b.try_recv() {
                if let GossipMessage::Advert { round, .. } = env.message {
                    got.push(round);
                }
            }
        };
        a.send(r[1], advert(0)).expect("registered");
        assert_eq!(net.stats().in_flight, 1, "held, not delivered");
        assert!(b.try_recv().is_none());
        assert!(net.stats().reconciles(), "in-flight balances the identity");
        net.advance_round();
        drain(&mut got);
        for round in 1..6 {
            a.send(r[1], advert(round)).expect("registered");
            net.advance_round();
            drain(&mut got);
        }
        // Two more rounds flush the tail (max delay is 2).
        net.advance_round();
        drain(&mut got);
        net.advance_round();
        drain(&mut got);
        assert_eq!(got.len(), 6, "all released within max delay");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(got, sorted, "1-2 round delays over a round-spaced stream stay sorted");
        assert_eq!(net.stats().in_flight, 0);
        assert!(net.stats().reconciles());
    }

    #[test]
    fn heal_disables_faults_and_flushes() {
        let r = ids(2);
        let plan = FaultPlan::new(5)
            .with_default_link(LinkFaults { delay_per_mille: 1000, max_delay_rounds: 30, ..LinkFaults::RELIABLE })
            .with_partition_one_way(r[0], r[1], 0..u64::MAX);
        let net = ChaosNetwork::new(plan);
        let a = net.endpoint(r[0]);
        let b = net.endpoint(r[1]);
        a.send(r[1], advert(1)).expect("registered"); // partition eats it
        b.send(r[0], advert(2)).expect("registered"); // delayed up to 30 rounds
        assert!(a.try_recv().is_none());
        net.heal();
        assert!(a.try_recv().is_some(), "heal flushed the delayed message");
        a.send(r[1], advert(3)).expect("registered");
        assert!(b.try_recv().is_some(), "healed network ignores the partition");
        let stats = net.stats();
        assert_eq!(stats.in_flight, 0);
        assert!(stats.reconciles());
    }
}
