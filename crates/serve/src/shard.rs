//! The engine's routing table, published as epoch-stamped snapshots.
//!
//! The engine holds one `Shard`: one HD hash table, inside its published
//! snapshot, an immutable `Arc<ShardSnapshot>` the lookup workers load. A
//! membership change never edits that table. Under the writer lock it clones
//! the published table (the codebook basis is `Arc`-shared, so the copy is
//! the member row matrix and the bookkeeping beside it), applies itself to
//! the clone and publishes the clone as the next epoch with a pointer
//! swap under a micro-lock. Readers therefore never wait on a
//! reconfiguration in progress, and a change that fails, even part-way,
//! drops its clone: nothing is published and no epoch is burnt.
//!
//! Every snapshot carries the epoch that published it; responses echo the
//! epoch, which is what lets the churn tests prove a response was computed
//! against a consistent membership (no torn reads).
//!
//! ## Route tables
//!
//! `Enc` factors through the codebook slot, so within one epoch a
//! snapshot's whole routing function has `n` inputs. Each snapshot caches
//! it: a **route table** of one atomic word per slot, allocated by the
//! epoch's first lookup and filled by the first lookup of each slot with
//! the verdict its own table returns ([`HdHashTable::lookup_slot`]). Every
//! later lookup of that slot is a hash and an array read. The table is
//! exact by construction: concurrent fills of one entry store the same
//! deterministic verdict, and no snapshot reads an entry another epoch
//! filled. Every publish starts the next epoch's table cold.
//!
//! A route entry has none of a stored row's noise tolerance: one wrong
//! entry mis-routes its whole slot.
//! [`scrub_routes`](ShardSnapshot::scrub_routes) re-derives every filled
//! entry from the stored rows.
//!
//! A snapshot's [`digest`](ShardSnapshot::digest) is the exact membership
//! identity replicas compare before they exchange member records.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use hdhash_core::HdHashTable;
use hdhash_hashfn::mix64;
use hdhash_table::{DynamicHashTable, RequestKey, ServerId, TableError};

/// One route entry per codebook slot: `0` while the slot is unresolved in
/// this epoch, else the winner's id plus one. `u64::MAX` has no encoding,
/// so a slot it wins is resolved by the scan on every lookup.
type Routes = Box<[AtomicU64]>;

const UNRESOLVED: u64 = 0;

/// The route-entry word for `server`, or `None` for `u64::MAX`.
fn encode(server: ServerId) -> Option<u64> {
    server.get().checked_add(1)
}

/// The server a route-entry word names, or `None` for an empty entry.
fn decode(word: u64) -> Option<ServerId> {
    word.checked_sub(1).map(ServerId::new)
}

/// An immutable, epoch-stamped view of the engine's table, shared with
/// the lookup workers behind an [`Arc`].
#[derive(Debug)]
pub struct ShardSnapshot {
    /// Always 0: the engine has one table. Kept because the `perfbench/`
    /// benchmark, which is kept unchanged between versions, reads it.
    pub shard: usize,
    /// Monotone publication counter (0 = the empty genesis snapshot,
    /// before any membership change).
    pub epoch: u64,
    /// The membership live in this epoch, in join order.
    pub members: Vec<ServerId>,
    table: HdHashTable,
    /// This epoch's route table (see the module docs), allocated by the
    /// first lookup.
    routes: OnceLock<Routes>,
}

impl ShardSnapshot {
    /// Routes a batch of keys through this epoch's route table, one
    /// [`lookup`](Self::lookup) per key.
    #[must_use]
    pub fn lookup_batch(&self, keys: &[RequestKey]) -> Vec<Result<ServerId, TableError>> {
        keys.iter().map(|&key| self.lookup(key)).collect()
    }

    /// Routes a single key: its slot's route entry, or the HD scan when
    /// the entry is still empty in this epoch. Always equal to
    /// `HdHashTable::lookup` on this epoch's table.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::EmptyPool`] when no members are live.
    pub fn lookup(&self, key: RequestKey) -> Result<ServerId, TableError> {
        self.route(key).0
    }

    /// [`lookup`](Self::lookup), also reporting whether the lookup missed
    /// the route table and ran the HD scan.
    pub(crate) fn route(&self, key: RequestKey) -> (Result<ServerId, TableError>, bool) {
        if self.members.is_empty() {
            return (Err(TableError::EmptyPool), false);
        }
        let slot = self.table.slot_of_request(key);
        let entry = &self.routes()[slot];
        if let Some(server) = decode(entry.load(Ordering::Relaxed)) {
            return (Ok(server), false);
        }
        let verdict = self.table.lookup_slot(slot);
        if let Some(word) = verdict.ok().and_then(encode) {
            entry.store(word, Ordering::Relaxed);
        }
        (verdict, true)
    }

    /// The route table, allocated empty on first use.
    fn routes(&self) -> &[AtomicU64] {
        self.routes.get_or_init(|| {
            (0..self.table.codebook().len()).map(|_| AtomicU64::new(UNRESOLVED)).collect()
        })
    }

    /// Re-resolves every filled route entry from the stored rows, rewrites
    /// each entry that disagrees, and returns how many did. Zero on a
    /// healthy snapshot; entries still empty are left empty.
    pub fn scrub_routes(&self) -> usize {
        let Some(routes) = self.routes.get() else {
            return 0;
        };
        let mut repaired = 0;
        for (slot, entry) in routes.iter().enumerate() {
            let word = entry.load(Ordering::Relaxed);
            if word == UNRESOLVED {
                continue;
            }
            let fresh = self.table.lookup_slot(slot).ok().and_then(encode).unwrap_or(UNRESOLVED);
            if fresh != word {
                entry.store(fresh, Ordering::Relaxed);
                repaired += 1;
            }
        }
        repaired
    }

    /// Whether `server` was live in this epoch.
    #[must_use]
    pub fn contains(&self, server: ServerId) -> bool {
        self.members.contains(&server)
    }

    /// The membership as a **sorted** id set — the canonical form replica
    /// reconciliation compares ([`members`](Self::members) keeps
    /// replica-local join order).
    #[must_use]
    pub fn member_ids(&self) -> Vec<ServerId> {
        self.table.member_ids()
    }

    /// An exact 128-bit digest of this epoch's member ids: the wrapping
    /// sum of a 128-bit mix of each id, an additive multiset hash (Clarke
    /// et al., ASIACRYPT 2003). Join order does not matter. Two different
    /// member sets read the same digest only through a 128-bit hash
    /// collision, so replicas that compare digests see every divergence.
    #[must_use]
    pub fn digest(&self) -> u128 {
        self.members.iter().fold(0u128, |sum, &server| sum.wrapping_add(mix128(server.get())))
    }
}

/// Two independently seeded 64-bit mixes of `id`, as one 128-bit value.
fn mix128(id: u64) -> u128 {
    let high = mix64(id ^ 0x9E37_79B9_7F4A_7C15);
    let low = mix64(id ^ 0xD1B5_4A32_D192_ED03);
    (u128::from(high) << 64) | u128::from(low)
}

/// Receipt of one published reconfiguration: the new epoch and the full
/// membership it serves. Churn drivers log receipts to validate responses
/// epoch-by-epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReceipt {
    /// Always 0, as [`ShardSnapshot::shard`].
    pub shard: usize,
    /// The epoch the change created.
    pub epoch: u64,
    /// Membership live from this epoch on (until the next receipt).
    pub members: Vec<ServerId>,
}

/// The published table: its snapshot, replaced whole by each change.
#[derive(Debug)]
pub(crate) struct Shard {
    /// Orders writers: a change clones, edits and publishes while holding
    /// it, so each epoch is built from the one before.
    writer: Mutex<()>,
    /// Reader side; the lock guards only the `Arc` pointer swap/clone.
    published: Mutex<Arc<ShardSnapshot>>,
}

impl Shard {
    pub(crate) fn new(table: HdHashTable) -> Self {
        let genesis = ShardSnapshot {
            shard: 0,
            epoch: 0,
            members: table.servers(),
            table,
            routes: OnceLock::new(),
        };
        Self { writer: Mutex::new(()), published: Mutex::new(Arc::new(genesis)) }
    }

    /// The current snapshot (readers: one `Arc` clone under a micro-lock).
    pub(crate) fn load(&self) -> Arc<ShardSnapshot> {
        Arc::clone(&self.published.lock())
    }

    /// Applies `change` to a clone of the published table and publishes
    /// the result as a new epoch. A failed change publishes nothing and
    /// burns no epoch.
    pub(crate) fn reconfigure<F>(&self, change: F) -> Result<ShardReceipt, TableError>
    where
        F: FnOnce(&mut HdHashTable) -> Result<(), TableError>,
    {
        self.publish_with(|table| change(table).map(|()| true))
            .map(|receipt| receipt.expect("a successful change publishes"))
    }

    /// Drives the membership to exactly `target` and publishes the result
    /// as a new epoch — the anti-entropy application path. A target the
    /// table already matches publishes nothing and burns no epoch
    /// (reconciliation is idempotent), hence the `Option`. A
    /// reconciliation that fails part-way publishes none of its moves.
    pub(crate) fn reconcile(
        &self,
        target: &[ServerId],
    ) -> Result<Option<ShardReceipt>, TableError> {
        self.publish_with(|table| {
            let (joined, left) = table.reconcile_members(target)?;
            Ok(joined + left > 0)
        })
    }

    /// Under the writer lock: clones the published table, lets `change`
    /// edit the clone, and publishes it as the next epoch when `change`
    /// returns `Ok(true)`. An error or `Ok(false)` drops the clone. The new
    /// epoch's route table starts cold.
    fn publish_with<F>(&self, change: F) -> Result<Option<ShardReceipt>, TableError>
    where
        F: FnOnce(&mut HdHashTable) -> Result<bool, TableError>,
    {
        let _writer = self.writer.lock();
        let current = self.load();
        let mut table = current.table.clone();
        if !change(&mut table)? {
            return Ok(None);
        }
        let epoch = current.epoch + 1;
        let members = table.servers();
        let receipt = ShardReceipt { shard: 0, epoch, members: members.clone() };
        *self.published.lock() = Arc::new(ShardSnapshot {
            shard: 0,
            epoch,
            members,
            table,
            routes: OnceLock::new(),
        });
        Ok(Some(receipt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> HdHashTable {
        HdHashTable::builder()
            .dimension(2048)
            .codebook_size(64)
            .seed(5)
            .build()
            .expect("valid config")
    }

    #[test]
    fn genesis_snapshot_is_epoch_zero_and_empty() {
        let shard = Shard::new(table());
        let snap = shard.load();
        assert_eq!((snap.shard, snap.epoch), (0, 0));
        assert!(snap.members.is_empty());
        assert_eq!(snap.lookup(RequestKey::new(1)), Err(TableError::EmptyPool));
    }

    #[test]
    fn reconfigure_publishes_new_epochs() {
        let shard = Shard::new(table());
        let r1 = shard.reconfigure(|t| t.join(ServerId::new(7))).expect("fresh");
        assert_eq!(r1.epoch, 1);
        assert_eq!(r1.members, vec![ServerId::new(7)]);
        let r2 = shard.reconfigure(|t| t.join(ServerId::new(8))).expect("fresh");
        assert_eq!(r2.epoch, 2);
        let snap = shard.load();
        assert_eq!(snap.epoch, 2);
        assert!(snap.contains(ServerId::new(7)) && snap.contains(ServerId::new(8)));
        assert!(snap.lookup(RequestKey::new(3)).is_ok());
    }

    #[test]
    fn failed_change_burns_no_epoch() {
        let shard = Shard::new(table());
        shard.reconfigure(|t| t.join(ServerId::new(1))).expect("fresh");
        let dup = shard.reconfigure(|t| t.join(ServerId::new(1)));
        assert_eq!(dup, Err(TableError::ServerAlreadyPresent(ServerId::new(1))));
        assert_eq!(shard.load().epoch, 1);
    }

    #[test]
    fn old_snapshots_stay_consistent_after_churn() {
        let shard = Shard::new(table());
        for id in 0..6 {
            shard.reconfigure(|t| t.join(ServerId::new(id))).expect("fresh");
        }
        let old = shard.load();
        let keys: Vec<RequestKey> = (0..64).map(RequestKey::new).collect();
        let before = old.lookup_batch(&keys);
        shard.reconfigure(|t| t.leave(ServerId::new(0))).expect("present");
        shard.reconfigure(|t| t.join(ServerId::new(99))).expect("fresh");
        // The retained old snapshot still answers from its own epoch.
        assert_eq!(old.lookup_batch(&keys), before);
        assert_eq!(old.epoch, 6);
        assert_eq!(shard.load().epoch, 8);
    }

    #[test]
    fn reconcile_publishes_only_on_change() {
        let shard = Shard::new(table());
        for id in 0..4 {
            shard.reconfigure(|t| t.join(ServerId::new(id))).expect("fresh");
        }
        let target: Vec<ServerId> = [1u64, 3, 7].into_iter().map(ServerId::new).collect();
        let receipt = shard.reconcile(&target).expect("fits").expect("moved");
        assert_eq!(receipt.epoch, 5);
        assert_eq!(shard.load().member_ids(), target);
        // Fixed point: no moves, no epoch, no publication.
        assert!(shard.reconcile(&target).expect("no-op").is_none());
        assert_eq!(shard.load().epoch, 5);
    }

    /// A table whose published snapshot holds `ids`, joined in order.
    fn shard_with(ids: &[u64]) -> Shard {
        let shard = Shard::new(table());
        for &id in ids {
            shard.reconfigure(|t| t.join(ServerId::new(id))).expect("fresh");
        }
        shard
    }

    /// Looks up keys until every codebook slot's route entry is filled.
    fn warm(snap: &ShardSnapshot) {
        for k in 0..4096 {
            let _ = snap.lookup(RequestKey::new(k));
        }
        assert!(snap.routes().iter().all(|e| e.load(Ordering::Relaxed) != UNRESOLVED));
    }

    #[test]
    fn routes_fill_lazily_with_the_table_verdict() {
        let shard = shard_with(&[0, 1, 2, 3, 4, 5]);
        let snap = shard.load();
        assert!(snap.routes.get().is_none(), "publication allocates no route table");
        let key = RequestKey::new(42);
        let (verdict, scanned) = snap.route(key);
        assert!(scanned, "the epoch's first lookup of a slot scans");
        assert_eq!(verdict, snap.table.lookup(key));
        assert_eq!(snap.route(key), (verdict, false), "the second reads the route entry");
        for k in 0..500 {
            let key = RequestKey::new(k);
            assert_eq!(snap.lookup(key), snap.table.lookup(key));
        }
        assert_eq!(Shard::new(table()).load().route(key), (Err(TableError::EmptyPool), false));
    }

    #[test]
    fn every_publish_starts_its_route_table_cold() {
        let shard = shard_with(&[0, 1, 2, 3, 4, 5]);
        // A leave, a join, and a reconcile that only removes members.
        for step in 0..3 {
            warm(&shard.load());
            let receipt = match step {
                0 => shard.reconfigure(|t| t.leave(ServerId::new(2))).map(Some),
                1 => shard.reconfigure(|t| t.join(ServerId::new(40))).map(Some),
                _ => shard.reconcile(&[ServerId::new(0), ServerId::new(40)]),
            };
            assert!(matches!(receipt, Ok(Some(_))), "step {step} publishes");
            let child = shard.load();
            assert!(child.routes.get().is_none(), "step {step} inherited routes");
            for k in 0..500 {
                let key = RequestKey::new(k);
                assert_eq!(child.lookup(key), child.table.lookup(key));
            }
        }
    }

    #[test]
    fn scrub_repairs_and_counts_a_wrong_route() {
        let shard = shard_with(&[0, 1, 2, 3]);
        let snap = shard.load();
        assert_eq!(snap.scrub_routes(), 0, "nothing to scrub before the first lookup");
        let key = RequestKey::new(9);
        let truth = snap.lookup(key).expect("populated");
        assert_eq!(snap.scrub_routes(), 0);
        let wrong = if truth == ServerId::new(0) { ServerId::new(1) } else { ServerId::new(0) };
        let slot = snap.table.slot_of_request(key);
        snap.routes()[slot].store(encode(wrong).expect("small id"), Ordering::Relaxed);
        assert_eq!(snap.lookup(key), Ok(wrong), "the planted entry is served");
        assert_eq!(snap.scrub_routes(), 1);
        assert_eq!(snap.lookup(key), Ok(truth));
        assert_eq!(snap.scrub_routes(), 0);
    }

    #[test]
    fn route_words_round_trip_every_storable_id() {
        for id in [0, 1, 106, u64::MAX - 1] {
            assert_eq!(encode(ServerId::new(id)).and_then(decode), Some(ServerId::new(id)));
        }
        assert_eq!(decode(UNRESOLVED), None);
        assert_eq!(encode(ServerId::new(u64::MAX)), None, "u64::MAX is always scanned");
    }

    #[test]
    fn digest_is_the_member_set_and_ignores_join_order() {
        let (a, b) = (Shard::new(table()), Shard::new(table()));
        assert_eq!(a.load().digest(), 0, "the empty set sums to zero");
        for id in [3u64, 50, 9] {
            a.reconfigure(|t| t.join(ServerId::new(id))).expect("fresh");
        }
        for id in [9u64, 3, 106] {
            b.reconfigure(|t| t.join(ServerId::new(id))).expect("fresh");
        }
        // 50 and 106 share a codebook slot, so only the ids tell them apart.
        let slot = |shard: &Shard, id| shard.load().table.slot_of_server(ServerId::new(id));
        assert_eq!(slot(&a, 50), slot(&b, 106));
        assert_ne!(a.load().digest(), b.load().digest());
        b.reconfigure(|t| t.leave(ServerId::new(106))).expect("present");
        b.reconfigure(|t| t.join(ServerId::new(50))).expect("fresh");
        assert_eq!(a.load().digest(), b.load().digest());
    }
}
