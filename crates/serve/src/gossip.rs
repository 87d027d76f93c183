//! Digest-driven anti-entropy gossip between replica engines.
//!
//! Replicas periodically advert one exact membership **digest**
//! ([`ShardSnapshot::digest`], 16 bytes) instead of member lists: the
//! checksum-before-exchange step of anti-entropy (Demers et al.,
//! "Epidemic Algorithms for Replicated Database Maintenance", PODC 1987).
//! A receiver compares the advert against its own digest. Equal member
//! sets read equal digests and different ones read different digests (up
//! to a 128-bit hash collision), so the check has neither false positives
//! nor, in practice, false negatives. Only when the digests differ does
//! the expensive payload move: a push–pull record exchange
//! ([`MemberRecord`]s, last-writer-wins semantics) that both sides fold
//! in through [`ReplicatedEngine::merge`], reconciling the table via the
//! clone → epoch-publish path. Readers never block on a reconciliation.
//!
//! ```text
//!   A                                   B
//!   │ tick: Advert {digest}             │
//!   ├──────────────────────────────────►│  compare digests
//!   │                                   │  (agree → done, 1 message)
//!   │      SyncRequest {records of B}   │
//!   │◄──────────────────────────────────┤  differ → push B's records
//!   │ merge(B) ─ reconcile table        │
//!   │ SyncResponse {merged records}     │
//!   ├──────────────────────────────────►│  merge(A∪B) ─ reconcile table
//!   │                                   │
//! ```
//!
//! One full exchange converges a quiescent pair; under racing churn every
//! round re-adverts current state, so the protocol is memoryless across
//! rounds and self-heals lost or reordered messages.
//!
//! [`ShardSnapshot::digest`]: crate::shard::ShardSnapshot::digest

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdhash_obs::{SpanKind, Tracer};
use hdhash_table::ServerId;
use parking_lot::Mutex;

use crate::replication::{MemberRecord, ReplicatedEngine};
use crate::transport::{Envelope, ReplicaId, Transport};

/// The gossip wire protocol.
///
/// `wire_size` defines the byte accounting; the framed codec in
/// [`wire`](crate::wire) serializes to exactly this many bytes (a
/// property-tested invariant), so the in-process bytes-on-wire metrics
/// and the measured TCP byte counters describe the same protocol cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GossipMessage {
    /// Round opener: the sender's membership digest.
    Advert {
        /// The sender's round counter (diagnostic only — anti-entropy is
        /// memoryless across rounds).
        round: u64,
        /// The sender's published membership digest.
        digest: u128,
        /// Piggybacked seen-through confirmation: the highest capture
        /// LSN of the **destination's** log whose full record set the
        /// sender has merged — the tombstone-GC watermark input. `None`
        /// until a first sync exchange has happened.
        ack: Option<u64>,
    },
    /// The receiver's digest differed: it pushes its records, pulling the
    /// sender's in return.
    SyncRequest {
        /// Echo of the advert round.
        round: u64,
        /// The requester's log LSN when `records` was captured — what
        /// the responder will acknowledge having seen through (LSNs, not
        /// Lamport versions: a record adopted late can carry an old
        /// version, but never an old LSN).
        stamp: u64,
        /// The requesting replica's full record set (with tombstones).
        records: Vec<MemberRecord>,
    },
    /// The advert sender's reply: its records *after* folding in the
    /// request's, so the requester converges in one merge.
    SyncResponse {
        /// Echo of the advert round.
        round: u64,
        /// The responder's log LSN when `records` was captured.
        stamp: u64,
        /// The merged record set.
        records: Vec<MemberRecord>,
    },
}

/// Message-frame header: 1 tag byte + 8 round bytes + 4 length bytes.
const FRAME_HEADER: usize = 13;
/// One membership digest: 16 bytes.
const DIGEST_FIELD: usize = 16;
/// Optional ack on adverts: 1 presence byte + 8 value bytes.
const ACK_FIELD: usize = 9;
/// Capture-LSN stamp on sync payloads: 8 bytes.
const STAMP_FIELD: usize = 8;

impl GossipMessage {
    /// Serialized size of this message under the documented framing.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        match self {
            GossipMessage::Advert { .. } => FRAME_HEADER + ACK_FIELD + DIGEST_FIELD,
            GossipMessage::SyncRequest { records, .. }
            | GossipMessage::SyncResponse { records, .. } => {
                FRAME_HEADER + STAMP_FIELD + records.len() * MemberRecord::WIRE_SIZE
            }
        }
    }
}

/// Tuning knobs of a [`GossipNode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipConfig {
    /// Scheduler-thread round period (ignored by explicit
    /// [`GossipNode::tick`] callers).
    pub period: Duration,
    /// Peers adverted per round: each tick selects
    /// `min(fanout, peer count)` peers with a deterministic
    /// `(replica, round)`-seeded shuffle, so per-round traffic is
    /// `O(fanout)` instead of `O(peers)` and the set still converges in
    /// `O(log N)` expected rounds (classic epidemic dissemination). The
    /// default (3) keeps today's full-mesh behavior for replica sets of
    /// up to 4 — in particular every ≤3-replica set is unchanged.
    pub fanout: usize,
    /// Failure detector: rounds without hearing from a peer before it is
    /// considered [`PeerHealth::Suspect`].
    pub suspect_after: u64,
    /// Failure detector: rounds without hearing from a peer before it is
    /// considered [`PeerHealth::Dead`] and excluded from fanout
    /// selection (probes still reach it — see
    /// [`probe_period`](Self::probe_period)).
    pub dead_after: u64,
    /// Every `probe_period`-th round redirects one fanout slot to a dead
    /// peer (round-robin over the dead set), so a healed peer or mended
    /// partition is re-detected instead of shunned forever.
    pub probe_period: u64,
    /// Retry: base backoff (in rounds) before an unanswered
    /// `SyncRequest` is retransmitted. Attempt `n` waits
    /// `base · 2ⁿ + jitter` rounds, with deterministic per-peer jitter
    /// in `0..base`.
    pub sync_retry_rounds: u64,
    /// Retry: retransmissions attempted before an in-flight sync is
    /// abandoned (counted in [`GossipMetrics::sync_abandoned`]; the next
    /// divergent advert starts a fresh exchange).
    pub sync_retry_cap: u32,
}

impl Default for GossipConfig {
    fn default() -> Self {
        Self {
            period: Duration::from_millis(50),
            fanout: 3,
            suspect_after: 3,
            dead_after: 8,
            probe_period: 4,
            sync_retry_rounds: 2,
            sync_retry_cap: 3,
        }
    }
}

/// Failure-detector verdict on one peer, derived from how many rounds
/// have passed since a message from it was last received (never-heard
/// peers age from round 0). Any received message restores
/// [`Alive`](Self::Alive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerHealth {
    /// Heard from within [`GossipConfig::suspect_after`] rounds.
    Alive,
    /// Silent past `suspect_after` but within
    /// [`GossipConfig::dead_after`] rounds — still gossiped to.
    Suspect,
    /// Silent past `dead_after` rounds: excluded from fanout selection,
    /// reached only by periodic probes.
    Dead,
}

/// Monotone protocol counters, snapshotted by [`GossipNode::metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipMetrics {
    /// Rounds opened (ticks).
    pub rounds: u64,
    /// Adverts sent to peers.
    pub adverts_sent: u64,
    /// Adverts received from peers.
    pub adverts_received: u64,
    /// Adverts whose digest differed from the local one.
    pub divergence_detections: u64,
    /// Sync requests sent (this node detected divergence).
    pub syncs_sent: u64,
    /// Sync requests received (peer detected divergence).
    pub syncs_received: u64,
    /// Remote records adopted by merges (superseded local state).
    pub records_adopted: u64,
    /// Members that joined / left through merges.
    pub members_joined: u64,
    /// Members removed through merges.
    pub members_left: u64,
    /// Protocol bytes sent, under the documented frame accounting.
    pub bytes_sent: u64,
    /// Protocol bytes received.
    pub bytes_received: u64,
    /// Sends refused by the transport (unknown/disconnected peer).
    pub send_failures: u64,
    /// Merges the engine refused (capacity). Gossip checks no geometry: a
    /// peer with another dimension, codebook size or seed is not detected,
    /// because the digest covers member ids only.
    pub protocol_errors: u64,
    /// Tombstones expired by the seen-through watermark GC.
    pub tombstones_expired: u64,
    /// Unanswered sync requests retransmitted after their backoff
    /// deadline expired.
    pub sync_retries: u64,
    /// In-flight syncs given up on after
    /// [`GossipConfig::sync_retry_cap`] retransmissions.
    pub sync_abandoned: u64,
    /// Bytes spent on retransmitted sync requests (already included in
    /// [`bytes_sent`](Self::bytes_sent); broken out so `bench_chaos` can
    /// report the retry overhead per scenario).
    pub retry_bytes: u64,
    /// Fanout slots redirected to dead peers by the periodic probe.
    pub probes_sent: u64,
    /// Peers currently [`PeerHealth::Alive`] (point-in-time, not
    /// monotone).
    pub peers_alive: u64,
    /// Peers currently [`PeerHealth::Suspect`] (point-in-time).
    pub peers_suspect: u64,
    /// Peers currently [`PeerHealth::Dead`] (point-in-time).
    pub peers_dead: u64,
}

#[derive(Debug, Default)]
struct Counters {
    rounds: AtomicU64,
    adverts_sent: AtomicU64,
    adverts_received: AtomicU64,
    divergence_detections: AtomicU64,
    syncs_sent: AtomicU64,
    syncs_received: AtomicU64,
    records_adopted: AtomicU64,
    members_joined: AtomicU64,
    members_left: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    send_failures: AtomicU64,
    protocol_errors: AtomicU64,
    tombstones_expired: AtomicU64,
    sync_retries: AtomicU64,
    sync_abandoned: AtomicU64,
    retry_bytes: AtomicU64,
    probes_sent: AtomicU64,
}

impl Counters {
    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// One replica's gossip participant: owns the transport endpoint, knows
/// its peers, and runs rounds either explicitly ([`tick`](Self::tick) +
/// [`pump`](Self::pump), for deterministic tests and benches) or on a
/// scheduler thread ([`spawn`](Self::spawn)).
#[derive(Debug)]
pub struct GossipNode<T: Transport> {
    replica: Arc<ReplicatedEngine>,
    transport: T,
    peers: Vec<ReplicaId>,
    config: GossipConfig,
    round: AtomicU64,
    counters: Counters,
    /// Failure detector state: the local round at which each peer was
    /// last heard from (any message kind counts as a heartbeat — every
    /// round adverts, so silence is meaningful). Missing entry = never
    /// heard, aging from round 0.
    last_heard: Mutex<BTreeMap<ReplicaId, u64>>,
    /// In-flight sync exchanges awaiting a `SyncResponse`, keyed by the
    /// peer the request went to.
    outstanding: Mutex<BTreeMap<ReplicaId, OutstandingSync>>,
    /// Span sink for round / sync lifecycle events; disabled by default
    /// (every site is gated on [`Tracer::is_enabled`], so the cost is one
    /// branch per round when off). Install one with
    /// [`with_tracer`](Self::with_tracer).
    tracer: Arc<Tracer>,
}

/// Bookkeeping for one unanswered `SyncRequest`.
#[derive(Debug, Clone, Copy)]
struct OutstandingSync {
    /// Retransmissions performed so far.
    attempt: u32,
    /// Local round at which the next retransmission (or abandonment)
    /// fires.
    deadline: u64,
}

impl<T: Transport> GossipNode<T> {
    /// Wires a replica to its transport endpoint and peer list (`peers`
    /// should exclude the local replica; it is filtered regardless).
    #[must_use]
    pub fn new(
        replica: Arc<ReplicatedEngine>,
        transport: T,
        peers: Vec<ReplicaId>,
        config: GossipConfig,
    ) -> Self {
        let local = transport.local();
        let peers = peers.into_iter().filter(|&p| p != local).collect();
        Self {
            replica,
            transport,
            peers,
            config,
            round: AtomicU64::new(0),
            counters: Counters::default(),
            last_heard: Mutex::new(BTreeMap::new()),
            outstanding: Mutex::new(BTreeMap::new()),
            tracer: Arc::new(Tracer::disabled()),
        }
    }

    /// Installs a span sink for gossip lifecycle events (rounds, sync
    /// start / retry / complete / abandon). Builder-style so test and
    /// bench construction stays one expression.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// The replica id gossip events report as their lane (trace lanes are
    /// `u32`; replica ids are small integers in practice).
    #[allow(clippy::cast_possible_truncation)]
    fn trace_lane(&self) -> u32 {
        self.transport.local().get() as u32
    }

    /// The replica this node gossips for.
    #[must_use]
    pub fn replica(&self) -> &ReplicatedEngine {
        &self.replica
    }

    /// Opens one round: adverts the current digest to `min(fanout, peers)`
    /// deterministically selected peers (every peer on small sets — see
    /// [`GossipConfig::fanout`]). The digest costs 16 bytes per adverted
    /// peer — member lists never move unless the digests disagree. Each
    /// advert piggybacks the seen-through ack for its destination, and
    /// acknowledged tombstones are collected before the digest is read.
    pub fn tick(&self) {
        let round = self.round.fetch_add(1, Ordering::Relaxed) + 1;
        Counters::add(&self.counters.rounds, 1);
        let traced = self.tracer.is_enabled();
        let round_started = traced.then(Instant::now);
        // Opportunistic GC: expire whatever the whole peer set has
        // acknowledged by now (cheap no-op when nothing qualifies). The
        // gate is the *full* peer set, dead peers included — expiring a
        // tombstone a dead peer never acknowledged could let its stale
        // record resurrect the member when it heals.
        let expired = self.replica.collect_tombstones(&self.peers);
        Counters::add(&self.counters.tombstones_expired, expired as u64);
        self.retry_expired_syncs(round);
        let targets = self.round_targets(round);
        let digest = self.replica.digest();
        for &peer in &targets {
            let message =
                GossipMessage::Advert { round, digest, ack: self.replica.ack_for(peer) };
            if self.send(peer, message) {
                Counters::add(&self.counters.adverts_sent, 1);
            }
        }
        if let Some(started) = round_started {
            self.tracer.record_span(
                SpanKind::GossipRound,
                0,
                self.trace_lane(),
                round,
                targets.len() as u64,
                started,
            );
        }
    }

    /// The peers this round adverts to: all non-dead peers while their
    /// count is within `fanout`, otherwise `fanout` distinct non-dead
    /// peers drawn by a `(replica, round)`-seeded partial Fisher–Yates
    /// shuffle — deterministic (tests and benches can replay a round
    /// sequence), unbiased across rounds, and different per replica so
    /// two nodes don't mirror each other's choices.
    ///
    /// The failure detector shapes the pool: [`PeerHealth::Dead`] peers
    /// are excluded, except that every
    /// [`probe_period`](GossipConfig::probe_period)-th round redirects
    /// one slot to a dead peer (round-robin) so recovery is noticed. A
    /// fully dead pool falls back to every peer — an isolated node keeps
    /// gossiping blindly rather than going silent.
    fn round_targets(&self, round: u64) -> Vec<ReplicaId> {
        let (live, dead): (Vec<ReplicaId>, Vec<ReplicaId>) = self
            .peers
            .iter()
            .partition(|&&peer| self.health_at(peer, round) != PeerHealth::Dead);
        let all_dead = live.is_empty();
        let pool = if all_dead { self.peers.clone() } else { live };
        let k = self.config.fanout.min(pool.len());
        let mut targets = if k == pool.len() {
            pool
        } else {
            let mut pool = pool;
            let mut state = hdhash_hashfn::mix64(
                self.transport.local().get() ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            for i in 0..k {
                state = hdhash_hashfn::mix64(state.wrapping_add(0xD1B5_4A32_D192_ED03));
                #[allow(clippy::cast_possible_truncation)]
                let j = i + (state % (pool.len() - i) as u64) as usize;
                pool.swap(i, j);
            }
            pool.truncate(k);
            pool
        };
        if !all_dead
            && !dead.is_empty()
            && !targets.is_empty()
            && self.config.probe_period > 0
            && round.is_multiple_of(self.config.probe_period)
        {
            #[allow(clippy::cast_possible_truncation)]
            let probe = dead[((round / self.config.probe_period) as usize) % dead.len()];
            targets[0] = probe;
            Counters::add(&self.counters.probes_sent, 1);
        }
        targets
    }

    /// Detector verdict on `peer` as of the current round.
    #[must_use]
    pub fn peer_health(&self, peer: ReplicaId) -> PeerHealth {
        self.health_at(peer, self.round.load(Ordering::Relaxed))
    }

    /// Detector verdicts for every peer, in peer order.
    #[must_use]
    pub fn peer_states(&self) -> Vec<(ReplicaId, PeerHealth)> {
        let round = self.round.load(Ordering::Relaxed);
        self.peers.iter().map(|&p| (p, self.health_at(p, round))).collect()
    }

    fn health_at(&self, peer: ReplicaId, round: u64) -> PeerHealth {
        let heard = self.last_heard.lock().get(&peer).copied().unwrap_or(0);
        let elapsed = round.saturating_sub(heard);
        if elapsed <= self.config.suspect_after {
            PeerHealth::Alive
        } else if elapsed <= self.config.dead_after {
            PeerHealth::Suspect
        } else {
            PeerHealth::Dead
        }
    }

    /// Records a heartbeat: a message from `peer` arrived this round.
    fn note_heard(&self, peer: ReplicaId) {
        let round = self.round.load(Ordering::Relaxed);
        self.last_heard.lock().insert(peer, round);
    }

    /// Starts tracking an in-flight sync to `peer` (no-op if one is
    /// already outstanding — a retransmission chain is in progress).
    fn track_sync(&self, peer: ReplicaId) {
        let round = self.round.load(Ordering::Relaxed);
        let mut inserted = false;
        self.outstanding.lock().entry(peer).or_insert_with(|| {
            inserted = true;
            OutstandingSync { attempt: 0, deadline: round + self.retry_delay(peer, 0) }
        });
        if inserted && self.tracer.is_enabled() {
            self.tracer.record(SpanKind::SyncStart, 0, self.trace_lane(), peer.get(), round);
        }
    }

    /// Backoff before attempt `attempt`'s deadline: `base · 2^attempt`
    /// plus deterministic per-`(local, peer, attempt)` jitter in
    /// `0..base`, so a partitioned clique doesn't retransmit in
    /// lockstep.
    fn retry_delay(&self, peer: ReplicaId, attempt: u32) -> u64 {
        let base = self.config.sync_retry_rounds.max(1);
        let backoff = base << attempt.min(6);
        let jitter = hdhash_hashfn::mix64(
            self.transport.local().get()
                ^ peer.get().wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ u64::from(attempt),
        ) % base;
        backoff + jitter
    }

    /// Retransmits (or abandons) in-flight syncs whose deadline passed.
    /// Retransmissions carry a *fresh* capture of the local records —
    /// merge idempotence makes re-delivery harmless, and a newer capture
    /// can only help.
    fn retry_expired_syncs(&self, round: u64) {
        let mut retransmit = Vec::new();
        let mut abandoned = Vec::new();
        {
            let mut outstanding = self.outstanding.lock();
            let peers: Vec<ReplicaId> = outstanding.keys().copied().collect();
            for peer in peers {
                let Some(entry) = outstanding.get_mut(&peer) else { continue };
                if entry.deadline > round {
                    continue;
                }
                if entry.attempt >= self.config.sync_retry_cap {
                    let attempt = entry.attempt;
                    outstanding.remove(&peer);
                    abandoned.push((peer, attempt));
                } else {
                    entry.attempt += 1;
                    let attempt = entry.attempt;
                    entry.deadline = round + self.retry_delay(peer, attempt);
                    retransmit.push((peer, attempt));
                }
            }
        }
        Counters::add(&self.counters.sync_abandoned, abandoned.len() as u64);
        let traced = self.tracer.is_enabled();
        for &(peer, attempt) in &abandoned {
            if traced {
                self.tracer.record(
                    SpanKind::SyncAbandon,
                    0,
                    self.trace_lane(),
                    peer.get(),
                    u64::from(attempt),
                );
            }
        }
        for (peer, attempt) in retransmit {
            let (stamp, records) = self.replica.sync_payload();
            let message = GossipMessage::SyncRequest { round, stamp, records };
            let bytes = message.wire_size() as u64;
            if self.send(peer, message) {
                Counters::add(&self.counters.sync_retries, 1);
                Counters::add(&self.counters.retry_bytes, bytes);
                if traced {
                    self.tracer.record(
                        SpanKind::SyncRetry,
                        0,
                        self.trace_lane(),
                        peer.get(),
                        u64::from(attempt),
                    );
                }
            }
        }
    }

    /// Drains and handles every pending incoming message; returns how
    /// many were processed (0 ⇒ the mailbox was idle).
    pub fn pump(&self) -> usize {
        let mut handled = 0;
        while let Some(envelope) = self.transport.try_recv() {
            self.handle(envelope);
            handled += 1;
        }
        handled
    }

    /// Point-in-time protocol counters (plus the detector's current
    /// per-state peer counts).
    #[must_use]
    pub fn metrics(&self) -> GossipMetrics {
        let round = self.round.load(Ordering::Relaxed);
        let mut peers_alive = 0;
        let mut peers_suspect = 0;
        let mut peers_dead = 0;
        for &peer in &self.peers {
            match self.health_at(peer, round) {
                PeerHealth::Alive => peers_alive += 1,
                PeerHealth::Suspect => peers_suspect += 1,
                PeerHealth::Dead => peers_dead += 1,
            }
        }
        let c = &self.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        GossipMetrics {
            rounds: load(&c.rounds),
            adverts_sent: load(&c.adverts_sent),
            adverts_received: load(&c.adverts_received),
            divergence_detections: load(&c.divergence_detections),
            syncs_sent: load(&c.syncs_sent),
            syncs_received: load(&c.syncs_received),
            records_adopted: load(&c.records_adopted),
            members_joined: load(&c.members_joined),
            members_left: load(&c.members_left),
            bytes_sent: load(&c.bytes_sent),
            bytes_received: load(&c.bytes_received),
            send_failures: load(&c.send_failures),
            protocol_errors: load(&c.protocol_errors),
            tombstones_expired: load(&c.tombstones_expired),
            sync_retries: load(&c.sync_retries),
            sync_abandoned: load(&c.sync_abandoned),
            retry_bytes: load(&c.retry_bytes),
            probes_sent: load(&c.probes_sent),
            peers_alive,
            peers_suspect,
            peers_dead,
        }
    }

    /// Sends with byte/failure accounting; returns whether the transport
    /// accepted the message (callers count their own message kinds).
    fn send(&self, to: ReplicaId, message: GossipMessage) -> bool {
        let bytes = message.wire_size() as u64;
        match self.transport.send(to, message) {
            Ok(()) => {
                Counters::add(&self.counters.bytes_sent, bytes);
                true
            }
            Err(_) => {
                Counters::add(&self.counters.send_failures, 1);
                false
            }
        }
    }

    /// Merges a full record set sent by `from`, captured at `from`'s log
    /// LSN `stamp` — the merge doubles as the "seen through `stamp`"
    /// evidence the watermark exchange acknowledges back.
    fn merge_from(&self, from: ReplicaId, stamp: u64, records: &[MemberRecord]) {
        match self.replica.merge_from(from, stamp, records) {
            Ok(outcome) => {
                Counters::add(&self.counters.records_adopted, outcome.adopted as u64);
                Counters::add(&self.counters.members_joined, outcome.joined.len() as u64);
                Counters::add(&self.counters.members_left, outcome.left.len() as u64);
            }
            Err(_) => Counters::add(&self.counters.protocol_errors, 1),
        }
    }

    fn handle(&self, envelope: Envelope) {
        let Envelope { from, message } = envelope;
        Counters::add(&self.counters.bytes_received, message.wire_size() as u64);
        // Any message is a heartbeat: the detector only measures silence.
        self.note_heard(from);
        match message {
            GossipMessage::Advert { round, digest, ack } => {
                Counters::add(&self.counters.adverts_received, 1);
                if let Some(seen_through) = ack {
                    // The peer confirms it merged our records through our
                    // clock `seen_through` — watermark input for GC.
                    self.replica.record_ack(from, seen_through);
                }
                if digest == self.replica.digest() {
                    // Replicas agree — 1 message carrying one digest. An
                    // in-flight sync to this peer became moot.
                    self.outstanding.lock().remove(&from);
                    return;
                }
                Counters::add(&self.counters.divergence_detections, 1);
                let (stamp, records) = self.replica.sync_payload();
                let message = GossipMessage::SyncRequest { round, stamp, records };
                if self.send(from, message) {
                    Counters::add(&self.counters.syncs_sent, 1);
                    self.track_sync(from);
                }
            }
            GossipMessage::SyncRequest { round, stamp, records } => {
                Counters::add(&self.counters.syncs_received, 1);
                self.merge_from(from, stamp, &records);
                // The reply ships the *merged* records so the requester
                // converges in one merge; it counts toward bytes only —
                // the request/response pair is one sync exchange.
                let (stamp, records) = self.replica.sync_payload();
                let message = GossipMessage::SyncResponse { round, stamp, records };
                self.send(from, message);
            }
            GossipMessage::SyncResponse { round, stamp, records } => {
                // The exchange completed; stop any retransmission chain.
                let was_tracked = self.outstanding.lock().remove(&from).is_some();
                if was_tracked && self.tracer.is_enabled() {
                    self.tracer.record(SpanKind::SyncComplete, 0, self.trace_lane(), from.get(), round);
                }
                self.merge_from(from, stamp, &records);
            }
        }
    }
}

impl<T: Transport + Sync + 'static> GossipNode<T> {
    /// Moves the node onto a scheduler thread: between ticks (every
    /// `config.period`) it blocks on the transport and handles incoming
    /// traffic. Stop (and get the node back, e.g. for final metrics) with
    /// [`GossipHandle::stop`].
    #[must_use]
    pub fn spawn(self) -> GossipHandle<T> {
        let node = Arc::new(self);
        let worker = Arc::clone(&node);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(format!("hdhash-gossip-{}", node.transport.local()))
            .spawn(move || {
                while !flag.load(Ordering::Acquire) {
                    worker.tick();
                    let deadline = Instant::now() + worker.config.period;
                    loop {
                        let now = Instant::now();
                        if now >= deadline || flag.load(Ordering::Acquire) {
                            break;
                        }
                        if let Some(envelope) = worker.transport.recv_timeout(deadline - now)
                        {
                            worker.handle(envelope);
                        }
                    }
                }
                // Final drain so an in-flight push–pull settles.
                worker.pump();
            })
            .expect("spawn gossip scheduler");
        GossipHandle { node, stop, thread }
    }
}

/// Handle on a spawned gossip scheduler thread. The node itself stays
/// shared (`Arc`), so [`node`](Self::node) gives a live view — metrics,
/// peer states, trace drains — while the scheduler keeps running.
#[derive(Debug)]
pub struct GossipHandle<T: Transport> {
    node: Arc<GossipNode<T>>,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl<T: Transport> GossipHandle<T> {
    /// Live view of the running node — read metrics or peer health
    /// without stopping the scheduler.
    #[must_use]
    pub fn node(&self) -> &GossipNode<T> {
        &self.node
    }

    /// A shared handle on the running node, for observers (metrics
    /// dumpers) that outlive this borrow but not the scheduler.
    #[must_use]
    pub fn shared_node(&self) -> Arc<GossipNode<T>> {
        Arc::clone(&self.node)
    }

    /// Signals the scheduler to stop and returns the node after its final
    /// drain.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler thread itself panicked.
    #[must_use]
    pub fn stop(self) -> Arc<GossipNode<T>> {
        self.stop.store(true, Ordering::Release);
        self.thread.join().expect("gossip scheduler panicked");
        self.node
    }
}

/// The replica's published member ids, sorted.
fn published_members(replica: &ReplicatedEngine) -> Vec<ServerId> {
    replica.engine().snapshots()[0].member_ids()
}

/// Whether every replica publishes the same sorted member ids. This is
/// the exact check; adverts compare the digests of the same sets.
#[must_use]
pub fn converged(replicas: &[&ReplicatedEngine]) -> bool {
    let Some((first, rest)) = replicas.split_first() else {
        return true;
    };
    let reference = published_members(first);
    rest.iter().all(|r| published_members(r) == reference)
}

/// How far a replica set is from [`converged`], in members: the most
/// member ids any replica's published set differs by from replica 0's
/// (the size of the symmetric difference). 0 iff converged.
#[must_use]
pub fn member_divergence(replicas: &[&ReplicatedEngine]) -> u64 {
    let Some((first, rest)) = replicas.split_first() else {
        return 0;
    };
    let ours = published_members(first);
    let ours: BTreeSet<&ServerId> = ours.iter().collect();
    rest.iter()
        .map(|r| {
            let theirs = published_members(r);
            ours.symmetric_difference(&theirs.iter().collect()).count() as u64
        })
        .max()
        .unwrap_or(0)
}

/// Drives one explicit round across a node set: every node adverts
/// ([`tick`](GossipNode::tick)), then the set pumps until no message is
/// in flight. The single round primitive behind [`run_until_converged`],
/// the CLI `replicate` demo and `bench_gossip` — callers that want to
/// observe per-round state (member divergence, metrics) call this in
/// their own loop.
pub fn run_round<T: Transport>(nodes: &[GossipNode<T>]) {
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

/// Drives explicit rounds ([`run_round`]) until [`converged`] or
/// `max_rounds` is spent. Returns the number of rounds used. The
/// deterministic harness for tests and `bench_gossip`.
#[must_use]
pub fn run_until_converged<T: Transport>(
    nodes: &[GossipNode<T>],
    max_rounds: usize,
) -> Option<usize> {
    let replicas: Vec<&ReplicatedEngine> = nodes.iter().map(|n| n.replica()).collect();
    if converged(&replicas) {
        return Some(0);
    }
    for round in 1..=max_rounds {
        run_round(nodes);
        if converged(&replicas) {
            return Some(round);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcessNetwork;
    use crate::ServeConfig;

    fn config() -> ServeConfig {
        ServeConfig {
            workers: 1,
            batch_capacity: 16,
            queue_capacity: 128,
            dimension: 2048,
            codebook_size: 64,
            seed: 31,
            ..ServeConfig::default()
        }
    }

    fn pair() -> Vec<GossipNode<crate::transport::InProcessEndpoint>> {
        let network = InProcessNetwork::new();
        (0..2u64)
            .map(|i| {
                let id = ReplicaId::new(i);
                let endpoint = network.endpoint(id);
                let replica = Arc::new(
                    ReplicatedEngine::new(id, config()).expect("valid config"),
                );
                GossipNode::new(
                    replica,
                    endpoint,
                    vec![ReplicaId::new(0), ReplicaId::new(1)],
                    GossipConfig::default(),
                )
            })
            .collect()
    }

    #[test]
    fn wire_size_accounts_for_payloads() {
        let advert = GossipMessage::Advert { round: 1, digest: 7, ack: Some(4) };
        assert_eq!(advert.wire_size(), 13 + 9 + 16);
        let record = MemberRecord { server: ServerId::new(1), version: 2, alive: true };
        let request = GossipMessage::SyncRequest { round: 1, stamp: 9, records: vec![record; 3] };
        assert_eq!(request.wire_size(), 13 + 8 + 3 * 17);
        let response =
            GossipMessage::SyncResponse { round: 1, stamp: 9, records: vec![record] };
        assert_eq!(response.wire_size(), 13 + 8 + 17);
    }

    #[test]
    fn agreeing_replicas_exchange_only_adverts() {
        let nodes = pair();
        for node in &nodes {
            node.replica().join(ServerId::new(7)).expect("fresh");
        }
        assert_eq!(run_until_converged(&nodes, 4), Some(0), "already converged");
        nodes[0].tick();
        while nodes.iter().map(GossipNode::pump).sum::<usize>() > 0 {}
        let m0 = nodes[0].metrics();
        let m1 = nodes[1].metrics();
        assert_eq!(m0.adverts_sent, 1);
        assert_eq!(m1.adverts_received, 1);
        assert_eq!(m1.divergence_detections, 0);
        assert_eq!(m1.syncs_sent, 0);
        assert_eq!(m0.records_adopted + m1.records_adopted, 0);
        // Advert cost only: header + ack field + one 16-byte digest.
        assert_eq!(m0.bytes_sent, 13 + 9 + 16);
    }

    #[test]
    fn diverged_replicas_converge_in_one_round() {
        let nodes = pair();
        nodes[0].replica().join(ServerId::new(1)).expect("fresh");
        nodes[0].replica().join(ServerId::new(2)).expect("fresh");
        nodes[1].replica().join(ServerId::new(3)).expect("fresh");
        assert_eq!(run_until_converged(&nodes, 8), Some(1));
        let want: Vec<ServerId> = [1u64, 2, 3].into_iter().map(ServerId::new).collect();
        for node in &nodes {
            assert_eq!(node.replica().member_ids(), want);
        }
        let total = |f: fn(&GossipMetrics) -> u64| -> u64 {
            nodes.iter().map(|n| f(&n.metrics())).sum()
        };
        assert!(total(|m| m.divergence_detections) >= 1);
        assert!(total(|m| m.syncs_sent) >= 1);
        assert_eq!(total(|m| m.members_joined), 3, "1+2 to B, 3 to A");
        assert_eq!(total(|m| m.bytes_sent), total(|m| m.bytes_received));
        assert_eq!(total(|m| m.protocol_errors), 0);
    }

    #[test]
    fn leaves_propagate_as_tombstones() {
        let nodes = pair();
        nodes[0].replica().join(ServerId::new(1)).expect("fresh");
        nodes[0].replica().join(ServerId::new(2)).expect("fresh");
        assert!(run_until_converged(&nodes, 8).is_some());
        // A removal on one replica wins over the other's live record.
        nodes[1].replica().leave(ServerId::new(1)).expect("present");
        assert_eq!(run_until_converged(&nodes, 8), Some(1));
        let want = vec![ServerId::new(2)];
        for node in &nodes {
            assert_eq!(node.replica().member_ids(), want);
        }
    }

    #[test]
    fn fanout_selects_min_of_knob_and_peers_deterministically() {
        let network = InProcessNetwork::new();
        let peers: Vec<ReplicaId> = (0..9u64).map(ReplicaId::new).collect();
        let build = |fanout: usize| {
            let id = ReplicaId::new(0);
            GossipNode::new(
                Arc::new(ReplicatedEngine::new(id, config()).expect("valid config")),
                network.endpoint(id),
                peers.clone(),
                GossipConfig { fanout, ..GossipConfig::default() },
            )
        };
        // Fanout ≥ peers: full mesh, peer order preserved.
        let full = build(64);
        assert_eq!(full.round_targets(1), full.peers);
        assert_eq!(full.round_targets(1).len(), 8, "self filtered out");
        // Restricted fanout: exactly `fanout` distinct peers, stable for
        // a given round, different across rounds.
        let node = build(3);
        let round1 = node.round_targets(1);
        assert_eq!(round1.len(), 3);
        assert_eq!(round1, node.round_targets(1), "same round ⇒ same targets");
        let distinct: std::collections::HashSet<_> = round1.iter().collect();
        assert_eq!(distinct.len(), 3, "targets must be distinct");
        assert!(!round1.contains(&ReplicaId::new(0)), "never adverts to self");
        let varied = (1..40u64).map(|r| node.round_targets(r)).collect::<Vec<_>>();
        assert!(varied.iter().any(|t| t != &round1), "rounds must vary targets");
        // Every peer is eventually selected (unbiased over rounds).
        let mut seen = std::collections::HashSet::new();
        for targets in &varied {
            seen.extend(targets.iter().copied());
        }
        assert_eq!(seen.len(), 8, "all peers reached across rounds");
    }

    #[test]
    fn restricted_fanout_still_converges_a_pair() {
        let network = InProcessNetwork::new();
        let peers = vec![ReplicaId::new(0), ReplicaId::new(1)];
        let nodes: Vec<_> = (0..2u64)
            .map(|i| {
                let id = ReplicaId::new(i);
                GossipNode::new(
                    Arc::new(ReplicatedEngine::new(id, config()).expect("valid config")),
                    network.endpoint(id),
                    peers.clone(),
                    GossipConfig { fanout: 1, ..GossipConfig::default() },
                )
            })
            .collect();
        nodes[0].replica().join(ServerId::new(1)).expect("fresh");
        nodes[1].replica().join(ServerId::new(2)).expect("fresh");
        assert_eq!(run_until_converged(&nodes, 8), Some(1));
    }

    #[test]
    fn tombstones_are_garbage_collected_after_watermark_acks() {
        let nodes = pair();
        nodes[0].replica().join(ServerId::new(1)).expect("fresh");
        nodes[0].replica().join(ServerId::new(2)).expect("fresh");
        assert!(run_until_converged(&nodes, 8).is_some());
        nodes[0].replica().leave(ServerId::new(1)).expect("present");
        assert!(run_until_converged(&nodes, 8).is_some());
        // Converged with a tombstone on both sides.
        for node in &nodes {
            assert_eq!(node.replica().records().len(), 2, "live + tombstone");
        }
        // Two more advert rounds move the piggybacked acks (sync merges
        // already recorded seen-through on both sides); the tick-time GC
        // then drops the tombstone everywhere.
        for _ in 0..3 {
            run_round(&nodes);
        }
        let expired: u64 = nodes.iter().map(|n| n.metrics().tombstones_expired).sum();
        assert!(expired >= 2, "tombstone must expire on both replicas ({expired})");
        for node in &nodes {
            assert_eq!(node.replica().records().len(), 1, "tombstone collected");
            assert_eq!(node.replica().member_ids(), vec![ServerId::new(2)]);
        }
        // GC must not resurrect: further rounds keep the member dead and
        // the set converged.
        assert_eq!(run_until_converged(&nodes, 4), Some(0));
        for node in &nodes {
            assert!(!node.replica().member_ids().contains(&ServerId::new(1)));
        }
        // A fresh join of the same id still works (new version).
        nodes[0].replica().join(ServerId::new(1)).expect("fresh join after GC");
        assert!(run_until_converged(&nodes, 8).is_some());
        for node in &nodes {
            assert!(node.replica().member_ids().contains(&ServerId::new(1)));
        }
    }

    #[test]
    fn failure_detector_follows_silence_and_recovers() {
        let nodes = pair();
        let peer = ReplicaId::new(1);
        let cfg = nodes[0].config;
        assert_eq!(nodes[0].peer_health(peer), PeerHealth::Alive, "grace at round 0");
        // Silence: node 0 ticks alone, never hearing from node 1.
        for _ in 0..cfg.suspect_after + 1 {
            nodes[0].tick();
        }
        assert_eq!(nodes[0].peer_health(peer), PeerHealth::Suspect);
        while nodes[0].round.load(Ordering::Relaxed) <= cfg.dead_after {
            nodes[0].tick();
        }
        nodes[0].tick();
        assert_eq!(nodes[0].peer_health(peer), PeerHealth::Dead);
        let m = nodes[0].metrics();
        assert_eq!(m.peers_dead, 1);
        assert_eq!(m.peers_alive, 0);
        // Any received message revives the peer.
        nodes[1].tick();
        nodes[0].pump();
        assert_eq!(nodes[0].peer_health(peer), PeerHealth::Alive);
        assert_eq!(nodes[0].metrics().peers_alive, 1);
        assert_eq!(nodes[0].peer_states(), vec![(peer, PeerHealth::Alive)]);
    }

    #[test]
    fn round_targets_steer_away_from_dead_peers_but_probe_them() {
        let network = InProcessNetwork::new();
        let id = ReplicaId::new(0);
        let peers: Vec<ReplicaId> = (0..4u64).map(ReplicaId::new).collect();
        let node = GossipNode::new(
            Arc::new(ReplicatedEngine::new(id, config()).expect("valid config")),
            network.endpoint(id),
            peers,
            GossipConfig { fanout: 3, ..GossipConfig::default() },
        );
        // Peers 1 and 2 were heard recently; peer 3 has been silent since
        // round 0 and is long dead by round 20.
        node.round.store(20, Ordering::Relaxed);
        node.note_heard(ReplicaId::new(1));
        node.note_heard(ReplicaId::new(2));
        assert_eq!(node.peer_health(ReplicaId::new(3)), PeerHealth::Dead);
        // Non-probe round: the dead peer is excluded even though fanout
        // has room for it.
        let targets = node.round_targets(21);
        assert_eq!(targets, vec![ReplicaId::new(1), ReplicaId::new(2)]);
        // Probe round (divisible by probe_period): one slot redirects to
        // the dead peer.
        let probe_round = 24;
        let targets = node.round_targets(probe_round);
        assert!(targets.contains(&ReplicaId::new(3)), "probe must reach the dead peer");
        assert!(node.metrics().probes_sent >= 1);
        // All peers dead: fall back to blind gossip over everyone.
        node.round.store(200, Ordering::Relaxed);
        let targets = node.round_targets(201);
        assert_eq!(targets.len(), 3, "fanout-capped blind selection");
    }

    #[test]
    fn unanswered_syncs_retry_with_backoff_then_abandon() {
        let nodes = pair();
        // Divergence: node 0 has a member node 1 lacks.
        nodes[0].replica().join(ServerId::new(1)).expect("fresh");
        // Node 1 adverts; node 0 detects divergence and sends a
        // SyncRequest that node 1 never answers (it stops pumping).
        nodes[1].tick();
        nodes[0].pump();
        assert_eq!(nodes[0].metrics().syncs_sent, 1);
        assert_eq!(nodes[0].outstanding.lock().len(), 1);
        // Node 0 keeps ticking into silence; the retransmission chain
        // runs its course.
        let cfg = nodes[0].config;
        for _ in 0..8 * cfg.sync_retry_rounds * (1 << cfg.sync_retry_cap) {
            nodes[0].tick();
        }
        let m = nodes[0].metrics();
        assert_eq!(m.sync_retries, u64::from(cfg.sync_retry_cap), "capped retransmissions");
        assert_eq!(m.sync_abandoned, 1, "chain abandoned after the cap");
        assert!(m.retry_bytes > 0, "retry traffic is accounted");
        assert!(nodes[0].outstanding.lock().is_empty(), "no tracking leak");
        // The divergence is not lost: once node 1 answers again, the
        // normal advert cycle converges the pair.
        assert!(run_until_converged(&nodes, 8).is_some());
        assert_eq!(nodes[1].replica().member_ids(), vec![ServerId::new(1)]);
    }

    #[test]
    fn sync_response_clears_the_retransmission_chain() {
        let nodes = pair();
        nodes[0].replica().join(ServerId::new(9)).expect("fresh");
        assert_eq!(run_until_converged(&nodes, 8), Some(1));
        // The full exchange completed inside the round: nothing is left
        // outstanding and nothing was retried.
        for node in &nodes {
            assert!(node.outstanding.lock().is_empty());
            let m = node.metrics();
            assert_eq!(m.sync_retries, 0);
            assert_eq!(m.sync_abandoned, 0);
        }
    }

    #[test]
    fn scheduler_thread_converges_and_returns_the_node() {
        let network = InProcessNetwork::new();
        let gossip_config =
            GossipConfig { period: Duration::from_millis(2), ..GossipConfig::default() };
        let peers = vec![ReplicaId::new(0), ReplicaId::new(1)];
        let build = |i: u64| {
            let id = ReplicaId::new(i);
            let replica = Arc::new(
                ReplicatedEngine::new(id, config()).expect("valid config"),
            );
            (
                Arc::clone(&replica),
                GossipNode::new(replica, network.endpoint(id), peers.clone(), gossip_config),
            )
        };
        let (a_replica, a) = build(0);
        let (b_replica, b) = build(1);
        a_replica.join(ServerId::new(10)).expect("fresh");
        b_replica.join(ServerId::new(20)).expect("fresh");
        let handles = [a.spawn(), b.spawn()];
        let deadline = Instant::now() + Duration::from_secs(10);
        while !converged(&[&a_replica, &b_replica]) {
            assert!(Instant::now() < deadline, "gossip threads failed to converge");
            std::thread::sleep(Duration::from_millis(2));
        }
        let [a, b] = handles.map(GossipHandle::stop);
        assert_eq!(a.replica().member_ids(), b.replica().member_ids());
        assert!(a.metrics().rounds >= 1);
        assert!(b.metrics().adverts_received >= 1);
    }
}
