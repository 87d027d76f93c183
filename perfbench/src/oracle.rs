//! The independent routing oracle.
//!
//! The expected server for a key is the member on the nearest occupied
//! circle slot, the smaller id winning ties (between servers sharing a slot
//! and between slots at equal distance). It is computed per shard from
//! `slot_of_request`, `slot_of_server` and `Codebook::circular_distance` on
//! a table seeded `seed + shard`, as `ServeConfig` documents, and never
//! runs the distance scan. Each response names the epoch that served it;
//! the oracle replays the logged membership changes in order, checks each
//! one against the engine's `ShardReceipt`, and judges every response
//! against the membership of its own epoch. A sampled self-check compares
//! the oracle with `HdHashTable::lookup` so that a broken oracle shows.

use std::collections::HashMap;

use hdhash_core::HdHashTable;
use hdhash_serve::{ServeConfig, ShardReceipt};
use hdhash_table::{DynamicHashTable, RequestKey, ServerId};

/// One served lookup, as recorded on the clock: everything else is
/// recomputed after the timed phases.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Index of the key in the workload's key stream.
    pub key: u32,
    pub shard: u16,
    pub epoch: u32,
    pub server: u32,
}

/// One membership change the engine accepted, with its per-shard receipts.
#[derive(Debug, Clone)]
pub struct Change {
    pub join: bool,
    pub server: ServerId,
    pub receipts: Vec<ShardReceipt>,
}

/// What the check found.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    pub checked: u64,
    /// Answers naming another server than the oracle, or an epoch that no
    /// receipt published.
    pub mismatched: u64,
    pub self_checked: u64,
    /// Sampled keys where the oracle and `HdHashTable::lookup` disagree.
    pub self_check_failed: u64,
    /// Receipts whose epoch or membership disagree with the replayed log.
    pub receipt_failed: u64,
}

impl Verdict {
    pub fn merge(&mut self, other: &Verdict) {
        self.checked += other.checked;
        self.mismatched += other.mismatched;
        self.self_checked += other.self_checked;
        self.self_check_failed += other.self_check_failed;
        self.receipt_failed += other.receipt_failed;
    }

    /// Whether the oracle itself is trustworthy on this run.
    pub fn oracle_sound(&self) -> bool {
        self.self_check_failed == 0 && self.receipt_failed == 0
    }
}

/// Every how many answers of one epoch the oracle is checked against the
/// table's own scan (the first answer of each epoch is always checked).
const SELF_CHECK_EVERY: usize = 64;

/// One shard's oracle: a table mirroring the shard's membership through
/// the change log, and the slot of every member.
struct ShardOracle {
    table: HdHashTable,
    slots: HashMap<ServerId, usize>,
    memo: Vec<Option<ServerId>>,
}

impl ShardOracle {
    fn new(config: &ServeConfig, shard: usize) -> Self {
        let table = HdHashTable::builder()
            .dimension(config.dimension)
            .codebook_size(config.codebook_size)
            .seed(config.seed.wrapping_add(shard as u64))
            .engine_options(config.engine)
            .build()
            .expect("the engine was built with this geometry");
        Self {
            table,
            slots: HashMap::new(),
            memo: vec![None; config.codebook_size],
        }
    }

    fn apply(&mut self, change: &Change) -> bool {
        if change.join {
            if self.table.join(change.server).is_err() {
                return false;
            }
            let slot = self
                .table
                .slot_of_server(change.server)
                .expect("just joined");
            self.slots.insert(change.server, slot);
            true
        } else {
            self.slots.remove(&change.server);
            self.table.leave(change.server).is_ok()
        }
    }

    /// The nearest occupied slot's member for `slot`, ties to the smaller id.
    fn expected(&mut self, slot: usize) -> Option<ServerId> {
        if let Some(hit) = self.memo[slot] {
            return Some(hit);
        }
        let codebook = self.table.codebook();
        let best = self
            .slots
            .iter()
            .map(|(&server, &at)| (codebook.circular_distance(slot, at), server))
            .min()
            .map(|(_, server)| server);
        self.memo[slot] = best;
        best
    }

    /// Judges one epoch's answers against the current membership.
    fn judge(
        &mut self,
        answers: &[Answer],
        keys: &[RequestKey],
        verdict: &mut Verdict,
        corrupt: &mut bool,
    ) {
        self.memo.fill(None);
        for (i, answer) in answers.iter().enumerate() {
            let key = keys[answer.key as usize];
            let slot = self.table.slot_of_request(key);
            let mut expected = self.expected(slot);
            if std::mem::take(corrupt) {
                // Deliberate corruption of one oracle entry: proves that a
                // wrong entry surfaces as failed answers.
                expected = Some(ServerId::new(u64::from(u32::MAX)));
                self.memo[slot] = expected;
            }
            verdict.checked += 1;
            if expected.map(ServerId::get) != Some(u64::from(answer.server)) {
                verdict.mismatched += 1;
            }
            if i % SELF_CHECK_EVERY == 0 {
                verdict.self_checked += 1;
                if self.table.lookup(key).ok() != expected {
                    verdict.self_check_failed += 1;
                }
            }
        }
    }
}

/// Checks every answer against the oracle. `answers` is reordered.
pub fn check(
    config: &ServeConfig,
    log: &[Change],
    answers: &mut [Answer],
    keys: &[RequestKey],
    mut corrupt: bool,
) -> Verdict {
    answers.sort_unstable_by_key(|a| (a.shard, a.epoch));
    let mut verdict = Verdict::default();
    let mut rest: &[Answer] = answers;
    for shard in 0..config.shards {
        let here = rest
            .iter()
            .take_while(|a| usize::from(a.shard) == shard)
            .count();
        let (mut mine, tail) = rest.split_at(here);
        rest = tail;
        let mut oracle = ShardOracle::new(config, shard);
        let mut epoch = 0u64;
        for change in log {
            let served = mine
                .iter()
                .take_while(|a| u64::from(a.epoch) <= epoch)
                .count();
            let (now, later) = mine.split_at(served);
            // Answers at an epoch already passed cannot exist in sorted
            // order, so `now` holds exactly this epoch's answers.
            oracle.judge(now, keys, &mut verdict, &mut corrupt);
            mine = later;
            let receipt = &change.receipts[shard];
            let mut published = receipt.members.clone();
            published.sort_unstable();
            let applied = oracle.apply(change);
            if !applied
                || receipt.shard != shard
                || receipt.epoch != epoch + 1
                || oracle.table.member_ids() != published
            {
                verdict.receipt_failed += 1;
            }
            epoch = receipt.epoch;
        }
        let served = mine
            .iter()
            .take_while(|a| u64::from(a.epoch) <= epoch)
            .count();
        let (now, unknown) = mine.split_at(served);
        oracle.judge(now, keys, &mut verdict, &mut corrupt);
        verdict.checked += unknown.len() as u64;
        verdict.mismatched += unknown.len() as u64;
    }
    verdict.checked += rest.len() as u64;
    verdict.mismatched += rest.len() as u64;
    verdict
}
