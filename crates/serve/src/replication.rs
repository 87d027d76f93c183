//! Replicated membership state: the versioned log gossip reconciles.
//!
//! A replica set runs one [`ServeEngine`] per replica; each replica
//! accepts local membership changes (joins/leaves) and must converge with
//! its peers without ever blocking readers. This module supplies the
//! convergent state machine underneath the gossip protocol:
//!
//! * [`MembershipLog`] — a last-writer-wins register per server id
//!   (`version`, `alive`), advanced by a replica-local Lamport clock.
//!   [`merge`](MembershipLog::merge) is **idempotent, commutative and
//!   associative** (a pointwise join in the `(version, alive)` lattice,
//!   removals winning version ties), so replicas exchanging records in any
//!   order, any number of times, reach the same log — the property the
//!   `replication_properties` suite pins.
//! * [`ReplicatedEngine`] — a [`ServeEngine`] paired with a log. Local
//!   joins/leaves write the log and the engine together; merging remote
//!   [`MemberRecord`]s drives the engine's table to the merged membership
//!   through the clone → epoch-publish path
//!   ([`ServeEngine::reconcile`]), so reconciliation is invisible to
//!   in-flight lookups.
//!
//! The log converges member *ids*. The table's membership **digest**
//! ([`ShardSnapshot::digest`](crate::shard::ShardSnapshot::digest)) is an
//! exact function of its member id set, so converged logs imply equal
//! digests, and unequal member sets read unequal digests — which is what
//! the gossip layer's cheap divergence check compares.

use std::collections::BTreeMap;

use parking_lot::Mutex;

use hdhash_table::{RequestKey, ServerId, TableError};

use crate::config::ServeConfig;
use crate::engine::ServeEngine;
use crate::request::Ticket;
use crate::shard::ShardReceipt;
use crate::transport::ReplicaId;
use crate::ServeError;

/// One server's replicated membership state: the payload unit of an
/// anti-entropy exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberRecord {
    /// The server the record describes.
    pub server: ServerId,
    /// Lamport version of the last membership change observed for this
    /// server; higher versions supersede lower ones.
    pub version: u64,
    /// Whether that last change was a join (`true`) or a leave (`false`).
    pub alive: bool,
}

impl MemberRecord {
    /// Serialized size on the wire: 8-byte server id + 8-byte version +
    /// 1 alive byte (the frame accounting a socket transport would use).
    pub const WIRE_SIZE: usize = 17;
}

/// What one [`MembershipLog::merge`] changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Remote records adopted (they superseded the local state).
    pub adopted: usize,
    /// Servers whose merged state flipped to alive.
    pub joined: Vec<ServerId>,
    /// Servers whose merged state flipped to dead.
    pub left: Vec<ServerId>,
}

impl MergeOutcome {
    /// Whether the merge changed the live membership (the engine
    /// reconciles its table, and its digest moves, iff this is true).
    #[must_use]
    pub fn changed_membership(&self) -> bool {
        !self.joined.is_empty() || !self.left.is_empty()
    }
}

/// A last-writer-wins membership register set with a Lamport clock.
///
/// Local changes go through [`set_local`](Self::set_local) (which bumps
/// the clock past everything merged so far, so a local op always
/// supersedes the state it was decided against); remote records come in
/// through [`merge`](Self::merge).
///
/// ## Tombstone garbage collection
///
/// Dead records must normally travel forever — a peer that never saw the
/// join still needs the leave to win over a third replica's stale join.
/// The log bounds that cost with a **seen-through watermark exchange**
/// expressed in *log sequence numbers* (LSN — see [`lsn`](Self::lsn)),
/// not Lamport versions: a record adopted from a peer can carry an old
/// version while the clock has long moved past it, so versions cannot
/// tell "was this tombstone in the set the peer acknowledged?". The LSN
/// can: it bumps on **every** mutation, local or adopted, and each record
/// remembers the LSN at which its current value landed.
///
/// When a peer confirms it has merged this log's full record set as
/// captured at LSN `s` (the confirmation gossip piggybacks on adverts),
/// the log notes `s` via [`record_ack`](Self::record_ack). A tombstone
/// whose current value landed at LSN `t ≤ s` was present in that capture,
/// so the peer's merged state for that server is `≥` the tombstone in the
/// LWW order — no stale join it could ever forward resurrects the member.
/// Once *every* peer of a closed replica set has acknowledged past `t`,
/// [`expire_tombstones`](Self::expire_tombstones) may drop it. The
/// soundness assumption is the standard one: the acknowledging peer list
/// covers the whole replica set (a replica outside it could still hold a
/// stale live record).
#[derive(Debug, Clone, Default)]
pub struct MembershipLog {
    /// server → (version, alive, LSN at which this value landed). A
    /// `BTreeMap` keeps every readout deterministically ordered.
    records: BTreeMap<ServerId, (u64, bool, u64)>,
    clock: u64,
    /// Log sequence number: bumps on every mutation (local decisions
    /// *and* adopted merge records), unlike the Lamport clock which only
    /// absorbs maxima.
    lsn: u64,
    /// peer → highest LSN `s` such that the peer has provably merged the
    /// full record set this log captured at LSN `s` (monotone).
    acked_through: BTreeMap<ReplicaId, u64>,
}

impl MembershipLog {
    /// An empty log at clock zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `server` is alive in the merged view.
    #[must_use]
    pub fn alive(&self, server: ServerId) -> bool {
        matches!(self.records.get(&server), Some(&(_, true, _)))
    }

    /// The live membership, sorted by id — the reconcile target.
    #[must_use]
    pub fn alive_ids(&self) -> Vec<ServerId> {
        self.records
            .iter()
            .filter_map(|(&server, &(_, alive, _))| alive.then_some(server))
            .collect()
    }

    /// Every record (alive and tombstoned), sorted by id — the sync
    /// payload. Tombstones must travel: a peer that never saw the join
    /// still needs the leave to win over a third replica's stale join.
    /// Capture [`lsn`](Self::lsn) alongside (under one lock) when the set
    /// is shipped for the watermark exchange.
    #[must_use]
    pub fn records(&self) -> Vec<MemberRecord> {
        self.records
            .iter()
            .map(|(&server, &(version, alive, _))| MemberRecord { server, version, alive })
            .collect()
    }

    /// The log's Lamport clock: `≥` every version it has seen.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The log sequence number: bumps on every mutation, local or
    /// adopted. This — not the Lamport clock — is the unit of the
    /// seen-through watermark exchange: a record adopted from a peer can
    /// carry a version far below the clock, but its *LSN* is always
    /// fresh, so "acknowledged through LSN `s`" really covers every
    /// record value that existed when the capture was taken.
    #[must_use]
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Records that `peer` has merged this log's full record set as
    /// captured at LSN `seen_through` (monotone — stale confirmations are
    /// ignored).
    pub fn record_ack(&mut self, peer: ReplicaId, seen_through: u64) {
        let entry = self.acked_through.entry(peer).or_insert(0);
        *entry = (*entry).max(seen_through);
    }

    /// The highest LSN every peer in `peers` has acknowledged, or `None`
    /// while any peer has yet to acknowledge at all. Dead records whose
    /// value landed at or below the watermark are safe to expire.
    #[must_use]
    pub fn gc_watermark(&self, peers: &[ReplicaId]) -> Option<u64> {
        peers.iter().map(|peer| self.acked_through.get(peer).copied()).try_fold(
            u64::MAX,
            |low, ack| Some(low.min(ack?)),
        )
    }

    /// Expires dead records acknowledged by every peer in `peers`: a
    /// tombstone whose value landed at LSN `≤`
    /// [`gc_watermark`](Self::gc_watermark) was present in a capture
    /// every peer has merged, so every peer's state for that server is at
    /// least the tombstone — dropping it cannot resurrect the member,
    /// even via a third replica forwarding old-versioned records later.
    /// Returns how many were dropped. Live records never expire, and an
    /// empty `peers` list (replica running solo) expires everything dead
    /// — there is no one left to resurrect it.
    pub fn expire_tombstones(&mut self, peers: &[ReplicaId]) -> usize {
        let Some(watermark) = self.gc_watermark(peers) else {
            return 0;
        };
        let before = self.records.len();
        self.records.retain(|_, &mut (_, alive, added)| alive || added > watermark);
        before - self.records.len()
    }

    /// Records a local membership decision, stamping it one past the
    /// clock (so it supersedes everything this replica has seen).
    /// Returns the version assigned.
    pub fn set_local(&mut self, server: ServerId, alive: bool) -> u64 {
        self.clock += 1;
        self.lsn += 1;
        self.records.insert(server, (self.clock, alive, self.lsn));
        self.clock
    }

    /// Merges remote records: per server, the higher version wins; on a
    /// version tie, `alive = false` wins (removals dominate — the
    /// deterministic, symmetric tie-break that makes the merge a lattice
    /// join). The clock absorbs every remote version so later local
    /// decisions supersede merged state; every adopted record bumps the
    /// LSN, so acknowledgements issued before the adoption never cover
    /// it.
    pub fn merge(&mut self, records: &[MemberRecord]) -> MergeOutcome {
        let mut outcome = MergeOutcome::default();
        for &record in records {
            self.clock = self.clock.max(record.version);
            let local = self.records.get(&record.server).copied();
            let remote_wins = match local {
                None => true,
                Some((version, alive, _)) => {
                    record.version > version
                        || (record.version == version && alive && !record.alive)
                }
            };
            if !remote_wins {
                continue;
            }
            outcome.adopted += 1;
            let was_alive = matches!(local, Some((_, true, _)));
            if record.alive && !was_alive {
                outcome.joined.push(record.server);
            } else if !record.alive && was_alive {
                outcome.left.push(record.server);
            }
            self.lsn += 1;
            self.records.insert(record.server, (record.version, record.alive, self.lsn));
        }
        outcome
    }
}

/// Guarded replica state: the log plus a flag marking that a previous
/// reconcile failed partway (e.g. capacity) and the engine may trail it.
#[derive(Debug, Default)]
struct LogState {
    log: MembershipLog,
    needs_reconcile: bool,
    /// peer → that peer's clock at the moment we merged its full record
    /// set — the "seen through" confirmation our next advert to the peer
    /// carries (the other half of the tombstone-GC watermark exchange).
    merged_through: BTreeMap<ReplicaId, u64>,
}

/// A [`ServeEngine`] that participates in a replica set.
///
/// Wraps the engine with a [`MembershipLog`]; local [`join`](Self::join) /
/// [`leave`](Self::leave) write both, [`merge`](Self::merge) folds in a
/// peer's records and reconciles the table through the epoch path.
/// Lookups ([`submit`](Self::submit)) pass straight through to the
/// engine's MPMC queue — replication never sits on the hot path.
///
/// # Examples
///
/// ```
/// use hdhash_serve::replication::ReplicatedEngine;
/// use hdhash_serve::transport::ReplicaId;
/// use hdhash_serve::ServeConfig;
/// use hdhash_table::ServerId;
///
/// let config = ServeConfig {
///     workers: 1,
///     dimension: 2048,
///     codebook_size: 64,
///     ..ServeConfig::default()
/// };
/// let a = ReplicatedEngine::new(ReplicaId::new(0), config)?;
/// let b = ReplicatedEngine::new(ReplicaId::new(1), config)?;
/// a.join(ServerId::new(1))?;
/// b.join(ServerId::new(2))?;
/// // One push-pull record exchange converges the membership…
/// b.merge(&a.records())?;
/// a.merge(&b.records())?;
/// assert_eq!(a.member_ids(), b.member_ids());
/// // …and therefore the digests.
/// assert_eq!(a.digest(), b.digest());
/// # Ok::<(), hdhash_serve::ServeError>(())
/// ```
#[derive(Debug)]
pub struct ReplicatedEngine {
    id: ReplicaId,
    engine: ServeEngine,
    state: Mutex<LogState>,
}

impl ReplicatedEngine {
    /// Builds a fresh engine for this replica.
    ///
    /// Replicas of one set must share the engine geometry (`dimension`,
    /// `codebook_size`, `seed`) for equal member sets to route alike. None
    /// of it is on the wire, so gossip cannot tell a replica of another
    /// geometry.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a rejected configuration.
    pub fn new(id: ReplicaId, config: ServeConfig) -> Result<Self, ServeError> {
        Ok(Self::from_engine(id, ServeEngine::new(config)?))
    }

    /// Wraps an existing engine. The engine's current members (if any)
    /// are seeded into the log as local joins.
    #[must_use]
    pub fn from_engine(id: ReplicaId, engine: ServeEngine) -> Self {
        let mut log = MembershipLog::new();
        for server in engine.snapshots()[0].member_ids() {
            log.set_local(server, true);
        }
        Self {
            id,
            engine,
            state: Mutex::new(LogState {
                log,
                needs_reconcile: false,
                merged_through: BTreeMap::new(),
            }),
        }
    }

    /// This replica's id.
    #[must_use]
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The engine under replication (metrics, snapshots, shutdown).
    #[must_use]
    pub fn engine(&self) -> &ServeEngine {
        &self.engine
    }

    /// Submits a lookup to the engine's queue (hot path, log untouched).
    ///
    /// # Errors
    ///
    /// See [`ServeEngine::submit`].
    pub fn submit(&self, key: RequestKey) -> Result<Ticket, ServeError> {
        self.engine.submit(key)
    }

    /// Locally joins `server`: logs the decision and applies it to the
    /// table through the epoch path.
    ///
    /// # Errors
    ///
    /// [`TableError::ServerAlreadyPresent`] (as [`ServeError::Table`])
    /// when the merged view already has the server alive, or the engine's
    /// capacity error.
    pub fn join(&self, server: ServerId) -> Result<Vec<ShardReceipt>, ServeError> {
        let mut state = self.state.lock();
        if state.log.alive(server) {
            return Err(ServeError::Table(TableError::ServerAlreadyPresent(server)));
        }
        let receipts = self.engine.join(server)?;
        state.log.set_local(server, true);
        Ok(receipts)
    }

    /// Locally removes `server`: logs the tombstone and applies it to the
    /// table through the epoch path.
    ///
    /// # Errors
    ///
    /// [`TableError::ServerNotFound`] (as [`ServeError::Table`]) when the
    /// merged view has no live record of the server.
    pub fn leave(&self, server: ServerId) -> Result<Vec<ShardReceipt>, ServeError> {
        let mut state = self.state.lock();
        if !state.log.alive(server) {
            return Err(ServeError::Table(TableError::ServerNotFound(server)));
        }
        let receipts = self.engine.leave(server)?;
        state.log.set_local(server, false);
        Ok(receipts)
    }

    /// The merged live membership, sorted by id.
    #[must_use]
    pub fn member_ids(&self) -> Vec<ServerId> {
        self.state.lock().log.alive_ids()
    }

    /// The full record set (including tombstones) — the sync payload a
    /// gossip exchange ships when the digests differ.
    #[must_use]
    pub fn records(&self) -> Vec<MemberRecord> {
        self.state.lock().log.records()
    }

    /// The published membership digest — the advert payload.
    #[must_use]
    pub fn digest(&self) -> u128 {
        self.engine.digest()
    }

    /// Whether the engine trails the log: a previous [`merge`](Self::merge)
    /// failed partway through applying the merged membership (only table
    /// capacity exhaustion is reachable). While set, every merge retries
    /// the application; the condition clears on its own only once the
    /// merged membership shrinks back under capacity (leaves arriving
    /// locally or via gossip). Operators should alarm on this: a replica
    /// set whose merged membership exceeds `codebook_size - 1` can detect
    /// divergence but never converge.
    #[must_use]
    pub fn pending_reconcile(&self) -> bool {
        self.state.lock().needs_reconcile
    }

    /// Folds a peer's records into the log and, when the live membership
    /// changed, reconciles the table to the merged view through the
    /// clone → epoch-publish path (readers never block).
    ///
    /// # Errors
    ///
    /// [`ServeError::Table`] when the reconcile fails. Only capacity
    /// exhaustion is reachable: the **union** of the replicas' live
    /// memberships must fit the table (`codebook_size - 1`), so size
    /// the codebook against the whole replica set, not one replica. The
    /// log keeps the merged state, [`pending_reconcile`](Self::pending_reconcile)
    /// reports the lag, and every subsequent merge retries the engine
    /// application — the wedge clears as soon as enough leaves merge in.
    pub fn merge(&self, records: &[MemberRecord]) -> Result<MergeOutcome, ServeError> {
        self.merge_locked(&mut self.state.lock(), records)
    }

    /// [`merge`](Self::merge), plus the watermark bookkeeping: the records
    /// arrived from `from`, whose log LSN was `stamp` when it captured its
    /// **full** record set — so after this merge we have provably seen
    /// everything `from` held at that capture, and our next advert to it
    /// can say so ([`ack_for`](Self::ack_for)).
    ///
    /// # Errors
    ///
    /// As [`merge`](Self::merge).
    pub fn merge_from(
        &self,
        from: ReplicaId,
        stamp: u64,
        records: &[MemberRecord],
    ) -> Result<MergeOutcome, ServeError> {
        let mut state = self.state.lock();
        let outcome = self.merge_locked(&mut state, records)?;
        let entry = state.merged_through.entry(from).or_insert(0);
        *entry = (*entry).max(stamp);
        Ok(outcome)
    }

    fn merge_locked(
        &self,
        state: &mut LogState,
        records: &[MemberRecord],
    ) -> Result<MergeOutcome, ServeError> {
        let outcome = state.log.merge(records);
        if outcome.changed_membership() || state.needs_reconcile {
            state.needs_reconcile = true;
            self.engine.reconcile(&state.log.alive_ids())?;
            state.needs_reconcile = false;
        }
        Ok(outcome)
    }

    /// The sync payload: the full record set plus the log LSN it was
    /// captured at, read under one lock so the stamp can never claim more
    /// than the records actually carry (a racing local op lands with a
    /// higher LSN than the stamp, which under-claims — safe).
    #[must_use]
    pub fn sync_payload(&self) -> (u64, Vec<MemberRecord>) {
        let state = self.state.lock();
        (state.log.lsn(), state.log.records())
    }

    /// The "seen through" confirmation to piggyback on the next advert to
    /// `peer`: the peer's capture LSN as of the last full record set we
    /// merged from it, or `None` if we never merged one.
    #[must_use]
    pub fn ack_for(&self, peer: ReplicaId) -> Option<u64> {
        self.state.lock().merged_through.get(&peer).copied()
    }

    /// Notes that `peer` has merged the record set we captured at LSN
    /// `seen_through` (from an advert's piggybacked ack).
    pub fn record_ack(&self, peer: ReplicaId, seen_through: u64) {
        self.state.lock().log.record_ack(peer, seen_through);
    }

    /// Expires tombstones every peer in `peers` has acknowledged
    /// ([`MembershipLog::expire_tombstones`]); returns how many were
    /// dropped. Pure log hygiene: the live membership, and therefore the
    /// engine and its digests, never move.
    pub fn collect_tombstones(&self, peers: &[ReplicaId]) -> usize {
        self.state.lock().log.expire_tombstones(peers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ServeConfig {
        ServeConfig {
            workers: 1,
            batch_capacity: 16,
            queue_capacity: 128,
            dimension: 2048,
            codebook_size: 64,
            seed: 77,
            ..ServeConfig::default()
        }
    }

    fn ids(raw: &[u64]) -> Vec<ServerId> {
        raw.iter().copied().map(ServerId::new).collect()
    }

    #[test]
    fn log_local_ops_and_readouts() {
        let mut log = MembershipLog::new();
        assert!(log.alive_ids().is_empty());
        let v1 = log.set_local(ServerId::new(5), true);
        let v2 = log.set_local(ServerId::new(3), true);
        assert!(v2 > v1);
        log.set_local(ServerId::new(5), false);
        assert_eq!(log.alive_ids(), ids(&[3]));
        assert!(!log.alive(ServerId::new(5)));
        // Tombstones stay in the record set.
        assert_eq!(log.records().len(), 2);
    }

    #[test]
    fn merge_prefers_higher_versions_and_dead_ties() {
        let mut log = MembershipLog::new();
        log.set_local(ServerId::new(1), true); // version 1
        // Lower version loses.
        let stale = MemberRecord { server: ServerId::new(1), version: 0, alive: false };
        assert_eq!(log.merge(&[stale]).adopted, 0);
        assert!(log.alive(ServerId::new(1)));
        // Equal version, dead wins.
        let tie = MemberRecord { server: ServerId::new(1), version: 1, alive: false };
        let outcome = log.merge(&[tie]);
        assert_eq!(outcome.adopted, 1);
        assert_eq!(outcome.left, ids(&[1]));
        assert!(!log.alive(ServerId::new(1)));
        // Symmetric direction: alive never beats dead at the same version.
        let back = MemberRecord { server: ServerId::new(1), version: 1, alive: true };
        assert_eq!(log.merge(&[back]).adopted, 0);
        // Higher version wins regardless of state.
        let newer = MemberRecord { server: ServerId::new(1), version: 9, alive: true };
        assert_eq!(log.merge(&[newer]).joined, ids(&[1]));
        // The clock absorbed the remote version: the next local decision
        // supersedes it.
        assert_eq!(log.set_local(ServerId::new(2), true), 10);
    }

    #[test]
    fn tombstones_expire_only_after_every_peer_acks() {
        let peers = [ReplicaId::new(1), ReplicaId::new(2)];
        let mut log = MembershipLog::new();
        log.set_local(ServerId::new(1), true); // v1
        log.set_local(ServerId::new(2), true); // v2
        log.set_local(ServerId::new(1), false); // v3: tombstone
        assert_eq!(log.clock(), 3);
        // No acks at all: no watermark, nothing expires.
        assert_eq!(log.gc_watermark(&peers), None);
        assert_eq!(log.expire_tombstones(&peers), 0);
        // One peer acked through the tombstone, the other not at all.
        log.record_ack(ReplicaId::new(1), 3);
        assert_eq!(log.expire_tombstones(&peers), 0);
        // Second peer acked, but only through v2 — the v3 tombstone stays.
        log.record_ack(ReplicaId::new(2), 2);
        assert_eq!(log.gc_watermark(&peers), Some(2));
        assert_eq!(log.expire_tombstones(&peers), 0);
        assert_eq!(log.records().len(), 2, "live + tombstone");
        // Ack catches up (stale re-ack is ignored, max wins): expires.
        log.record_ack(ReplicaId::new(2), 3);
        log.record_ack(ReplicaId::new(2), 1);
        assert_eq!(log.gc_watermark(&peers), Some(3));
        assert_eq!(log.expire_tombstones(&peers), 1);
        // The live record never expires; the tombstone is gone.
        assert_eq!(log.records().len(), 1);
        assert!(log.alive(ServerId::new(2)));
        assert!(!log.alive(ServerId::new(1)));
        // Idempotent.
        assert_eq!(log.expire_tombstones(&peers), 0);
    }

    #[test]
    fn expired_tombstone_cannot_resurrect_through_acked_peers() {
        // The soundness argument in miniature: B acked through the
        // tombstone version, meaning B's log holds the tombstone (or
        // newer) for that server — so whatever B sends afterwards can
        // never carry the stale join back.
        let a_id = ReplicaId::new(0);
        let b_id = ReplicaId::new(1);
        let mut a = MembershipLog::new();
        a.set_local(ServerId::new(7), true); // v1: join
        let mut b = MembershipLog::new();
        b.merge(&a.records()); // B saw the join
        a.set_local(ServerId::new(7), false); // v2: tombstone on A
        b.merge(&a.records()); // B holds the tombstone too
        a.record_ack(b_id, a.lsn()); // B confirmed seeing the full capture
        assert_eq!(a.expire_tombstones(&[b_id]), 1);
        assert!(a.records().is_empty());
        // B gossips its full set back to A: the tombstone re-arrives (at
        // its original version) but the member stays dead — and a
        // genuinely *new* join (fresh version) still works.
        a.merge(&b.records());
        assert!(!a.alive(ServerId::new(7)), "expiry must not resurrect");
        let v3 = a.set_local(ServerId::new(7), true);
        assert!(v3 > 2, "new joins version past everything seen");
        assert!(a.alive(ServerId::new(7)));
        b.record_ack(a_id, 0); // irrelevant ack path stays independent
    }

    #[test]
    fn late_adopted_tombstone_is_not_covered_by_earlier_acks() {
        // Three replicas P, Q, R. R tombstones X after Q saw the join;
        // P's peers ack P *before* P adopts the tombstone from R. The
        // acks are in LSN units, and the adoption lands at a fresh LSN,
        // so P must NOT expire the tombstone — Q still holds X alive and
        // would resurrect it through P's next merge. (Clock-unit acks
        // get this wrong: the tombstone's *version* is below the acked
        // clock even though neither ack covered it.)
        let q_id = ReplicaId::new(1);
        let r_id = ReplicaId::new(2);
        let mut p = MembershipLog::new();
        let mut q = MembershipLog::new();
        let mut r = MembershipLog::new();
        let x = ServerId::new(42);
        r.set_local(x, true); // R v1
        q.merge(&r.records()); // Q holds X alive @ v1
        r.set_local(x, false); // R v2: the tombstone
        // P does unrelated local work, pushing clock and LSN to 5.
        for id in 0..5u64 {
            p.set_local(ServerId::new(id), true);
        }
        // Both peers merge P's capture (LSN 5) and P learns the acks.
        p.record_ack(q_id, p.lsn());
        p.record_ack(r_id, p.lsn());
        // Now the tombstone arrives from R: version 2 (below P's clock of
        // 5), but its LSN on P is 6 — past both acks.
        p.merge(&r.records());
        assert_eq!(p.clock(), 5, "old-version adoption does not move the clock");
        assert_eq!(p.lsn(), 6, "but it does move the LSN");
        assert_eq!(p.gc_watermark(&[q_id, r_id]), Some(5));
        assert_eq!(
            p.expire_tombstones(&[q_id, r_id]),
            0,
            "tombstone adopted after the acks must survive"
        );
        // The guarded failure: Q's stale live record must keep losing.
        p.merge(&q.records());
        assert!(!p.alive(x), "tombstone retained ⇒ stale join cannot resurrect");
        // Once the peers re-ack a capture that includes the tombstone,
        // expiry is safe and proceeds.
        q.merge(&p.records());
        p.record_ack(q_id, p.lsn());
        p.record_ack(r_id, p.lsn());
        assert_eq!(p.expire_tombstones(&[q_id, r_id]), 1);
        assert!(!p.alive(x));
        // And Q, now holding the tombstone, can no longer resurrect.
        p.merge(&q.records());
        assert!(!p.alive(x));
    }

    #[test]
    fn solo_replica_expires_every_tombstone() {
        let mut log = MembershipLog::new();
        log.set_local(ServerId::new(1), true);
        log.set_local(ServerId::new(1), false);
        log.set_local(ServerId::new(2), false);
        // No peers — no one can resurrect anything.
        assert_eq!(log.expire_tombstones(&[]), 2);
        assert!(log.records().is_empty());
    }

    #[test]
    fn merge_is_idempotent_and_order_independent() {
        let mut base = MembershipLog::new();
        base.set_local(ServerId::new(1), true);
        base.set_local(ServerId::new(2), true);
        let d1 = vec![
            MemberRecord { server: ServerId::new(2), version: 7, alive: false },
            MemberRecord { server: ServerId::new(3), version: 4, alive: true },
        ];
        let d2 = vec![
            MemberRecord { server: ServerId::new(3), version: 5, alive: false },
            MemberRecord { server: ServerId::new(4), version: 2, alive: true },
        ];
        let mut a = base.clone();
        a.merge(&d1);
        a.merge(&d1); // twice
        a.merge(&d2);
        let mut b = base.clone();
        b.merge(&d2); // other order
        b.merge(&d1);
        assert_eq!(a.records(), b.records());
        assert_eq!(a.alive_ids(), ids(&[1, 4]));
    }

    #[test]
    fn replicated_local_ops_enforce_log_view() {
        let replica = ReplicatedEngine::new(ReplicaId::new(0), config()).expect("valid");
        replica.join(ServerId::new(1)).expect("fresh");
        assert_eq!(
            replica.join(ServerId::new(1)).unwrap_err(),
            ServeError::Table(TableError::ServerAlreadyPresent(ServerId::new(1)))
        );
        assert_eq!(
            replica.leave(ServerId::new(9)).unwrap_err(),
            ServeError::Table(TableError::ServerNotFound(ServerId::new(9)))
        );
        replica.leave(ServerId::new(1)).expect("present");
        assert!(replica.member_ids().is_empty());
        // The tombstone survives for gossip.
        assert_eq!(replica.records().len(), 1);
        assert!(!replica.records()[0].alive);
    }

    #[test]
    fn merge_applies_through_the_epoch_path() {
        let a = ReplicatedEngine::new(ReplicaId::new(0), config()).expect("valid");
        let b = ReplicatedEngine::new(ReplicaId::new(1), config()).expect("valid");
        a.join(ServerId::new(1)).expect("fresh");
        a.join(ServerId::new(2)).expect("fresh");
        b.join(ServerId::new(3)).expect("fresh");
        let epoch_before = b.engine().snapshots()[0].epoch;
        let outcome = b.merge(&a.records()).expect("capacity fits");
        assert_eq!(outcome.joined, ids(&[1, 2]));
        assert!(outcome.left.is_empty());
        assert_eq!(b.member_ids(), ids(&[1, 2, 3]));
        // Reconciliation published exactly one new epoch.
        let snapshot = &b.engine().snapshots()[0];
        assert_eq!(snapshot.epoch, epoch_before + 1);
        assert_eq!(snapshot.member_ids(), ids(&[1, 2, 3]));
        // A re-merge of the same records is a no-op: no epoch burned.
        let outcome = b.merge(&a.records()).expect("no-op");
        assert!(!outcome.changed_membership());
        assert_eq!(b.engine().snapshots()[0].member_ids(), ids(&[1, 2, 3]));
        // The other direction converges the pair.
        a.merge(&b.records()).expect("capacity fits");
        assert_eq!(a.member_ids(), b.member_ids());
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn capacity_overflow_wedges_visibly_and_recovers_on_shrink() {
        // Capacity 7 (codebook 8): each replica fits alone, the union
        // does not — the documented sizing mistake.
        let tiny = ServeConfig {
            workers: 1,
            batch_capacity: 8,
            queue_capacity: 64,
            dimension: 64,
            codebook_size: 8,
            seed: 5,
            ..ServeConfig::default()
        };
        let a = ReplicatedEngine::new(ReplicaId::new(0), tiny).expect("valid");
        let b = ReplicatedEngine::new(ReplicaId::new(1), tiny).expect("valid");
        for id in 0..5u64 {
            a.join(ServerId::new(id)).expect("fresh");
            b.join(ServerId::new(10 + id)).expect("fresh");
        }
        assert!(b.merge(&a.records()).is_err(), "union of 10 exceeds capacity 7");
        assert!(b.pending_reconcile(), "the wedge must be observable");
        // The log holds the merged view even though the engine trails it.
        assert_eq!(b.member_ids().len(), 10);
        // Enough leaves on A shrink the union under capacity; the next
        // merge retries the application and clears the wedge.
        for id in 0..4u64 {
            a.leave(ServerId::new(id)).expect("present");
        }
        b.merge(&a.records()).expect("union of 6 fits");
        assert!(!b.pending_reconcile());
        assert_eq!(b.member_ids().len(), 6);
        assert_eq!(b.engine().snapshots()[0].member_ids(), b.member_ids());
    }

    #[test]
    fn from_engine_seeds_the_log() {
        let engine = ServeEngine::new(config()).expect("valid");
        engine.join(ServerId::new(4)).expect("fresh");
        engine.join(ServerId::new(8)).expect("fresh");
        let replica = ReplicatedEngine::from_engine(ReplicaId::new(2), engine);
        assert_eq!(replica.id(), ReplicaId::new(2));
        assert_eq!(replica.member_ids(), ids(&[4, 8]));
        assert_eq!(replica.leave(ServerId::new(4)).expect("present").len(), 1);
    }
}
