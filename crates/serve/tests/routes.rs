//! Route suite: every verdict a snapshot serves from its per-epoch route
//! table equals the HD reference, `HdHashTable::lookup` on a table built
//! from the snapshot's member ids with the engine's seed.
//!
//! Seeded sequences of joins, leaves and reconciles run on two
//! geometries: d = 2,048 and n = 64, whose id pool holds 50 and 106 (they
//! share codebook slot 33, so their ties break by id) and `u64::MAX`; and
//! a codebook of 8, where changes fail at capacity. Keys are looked up
//! through `lookup`, `lookup_batch` and the engine before and after each
//! change. Every snapshot taken along the way stays under check, so an
//! old epoch must keep answering for itself while later epochs fill their
//! own tables, and `scrub_routes` must find nothing to repair on any of
//! them.
//!
//! CI runs this suite with `PROPTEST_CASES=256` and `--test-threads=1`.

use std::sync::Arc;

use hdhash_core::HdHashTable;
use hdhash_serve::{ServeConfig, ServeEngine, ShardSnapshot};
use hdhash_table::{DynamicHashTable, RequestKey, ServerId, TableError};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// d = 2,048, n = 64: ids 50 and 106 collide on slot 33.
const WIDE: Geometry = Geometry {
    dimension: 2048,
    codebook_size: 64,
    pool: &[0, 1, 2, 3, 4, 5, 6, 7, 50, 106, 200, 201, u64::MAX],
};

/// A codebook of 8 holds at most 7 members, so joins and reconciles fail
/// at capacity.
const NARROW: Geometry = Geometry {
    dimension: 1024,
    codebook_size: 8,
    pool: &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, u64::MAX],
};

struct Geometry {
    dimension: usize,
    codebook_size: usize,
    /// The ids changes draw from.
    pool: &'static [u64],
}

/// One membership change; ids are indices into the geometry's pool.
#[derive(Debug, Clone)]
enum Change {
    Join(usize),
    Leave(usize),
    /// Drives the table to the pool ids whose bits are set in `mask`.
    Reconcile { mask: u16 },
}

fn changes() -> impl Strategy<Value = Vec<Change>> {
    let change = prop_oneof![
        (0usize..16).prop_map(Change::Join),
        (0usize..16).prop_map(Change::Join),
        (0usize..16).prop_map(Change::Leave),
        any::<u16>().prop_map(|mask| Change::Reconcile { mask }),
    ];
    prop::collection::vec(change, 4..16)
}

fn config(geometry: &Geometry, seed: u64) -> ServeConfig {
    ServeConfig {
        workers: 1,
        batch_capacity: 8,
        queue_capacity: 256,
        dimension: geometry.dimension,
        codebook_size: geometry.codebook_size,
        seed,
        ..ServeConfig::default()
    }
}

/// The HD reference for `snapshot`: a fresh table with the engine's seed
/// holding the snapshot's member ids.
fn reference(config: &ServeConfig, snapshot: &ShardSnapshot) -> HdHashTable {
    let mut table = HdHashTable::builder()
        .dimension(config.dimension)
        .codebook_size(config.codebook_size)
        .seed(config.seed)
        .build()
        .expect("valid geometry");
    for server in snapshot.member_ids() {
        table.join(server).expect("distinct ids under capacity");
    }
    table
}

/// Every snapshot seen so far, each beside its own reference.
struct Held {
    config: ServeConfig,
    epochs: Vec<(Arc<ShardSnapshot>, HdHashTable)>,
}

impl Held {
    /// Takes the published snapshot under check, once per epoch.
    fn take(&mut self, engine: &ServeEngine) {
        let snapshot = Arc::clone(&engine.snapshots()[0]);
        if !self.epochs.iter().any(|(s, _)| s.epoch == snapshot.epoch) {
            let table = reference(&self.config, &snapshot);
            self.epochs.push((snapshot, table));
        }
    }

    /// Looks `keys` up on every held snapshot, through the engine on the
    /// published ones, and compares each verdict with the reference.
    fn check(&self, engine: &ServeEngine, keys: &[RequestKey]) -> Result<(), TestCaseError> {
        for (snapshot, table) in &self.epochs {
            let want: Vec<Result<ServerId, TableError>> =
                keys.iter().map(|&k| table.lookup(k)).collect();
            let epoch = snapshot.epoch;
            prop_assert_eq!(snapshot.lookup_batch(keys), want, "epoch {}", epoch);
            for (&key, want) in keys.iter().zip(&want) {
                let got = snapshot.lookup(key);
                prop_assert_eq!(got, *want, "epoch {} {}", epoch, key);
            }
        }
        for &key in keys {
            let response = engine.submit(key).expect("queue sized for one key").wait();
            prop_assert_eq!(response.shard, 0);
            let (snapshot, table) = self
                .epochs
                .iter()
                .find(|(s, _)| s.epoch == response.epoch)
                .expect("the engine served a held epoch");
            let want = table.lookup(key);
            prop_assert_eq!(response.result, want, "engine, {} epoch {}", key, snapshot.epoch);
        }
        for (snapshot, _) in &self.epochs {
            let repaired = snapshot.scrub_routes();
            prop_assert_eq!(repaired, 0, "epoch {} held a wrong route", snapshot.epoch);
        }
        Ok(())
    }
}

fn apply(engine: &ServeEngine, geometry: &Geometry, change: &Change) {
    let id = |index: usize| ServerId::new(geometry.pool[index % geometry.pool.len()]);
    // Failures are part of the drawn sequence (a join of a member, a
    // leave of a stranger, a move past capacity) and publish nothing.
    let _ = match *change {
        Change::Join(index) => engine.join(id(index)).map(drop),
        Change::Leave(index) => engine.leave(id(index)).map(drop),
        Change::Reconcile { mask } => {
            let target: Vec<ServerId> =
                (0..geometry.pool.len()).filter(|&i| mask & (1 << i) != 0).map(id).collect();
            engine.reconcile(&target).map(drop)
        }
    };
}

fn routes_match_the_reference(
    geometry: &Geometry,
    seed: u64,
    changes: &[Change],
    keys: &[u64],
) -> Result<(), TestCaseError> {
    let config = config(geometry, seed);
    let engine = ServeEngine::new(config).expect("valid config");
    let keys: Vec<RequestKey> = keys.iter().copied().map(RequestKey::new).collect();
    let mut held = Held { config, epochs: Vec::new() };
    held.take(&engine);
    held.check(&engine, &keys)?;
    for change in changes {
        apply(&engine, geometry, change);
        held.take(&engine);
        held.check(&engine, &keys)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn wide_codebook_routes_match_the_reference(
        seed in any::<u64>(),
        changes in changes(),
        keys in prop::collection::vec(any::<u64>(), 16..48),
    ) {
        routes_match_the_reference(&WIDE, seed, &changes, &keys)?;
    }

    #[test]
    fn narrow_codebook_routes_match_the_reference(
        seed in any::<u64>(),
        changes in changes(),
        keys in prop::collection::vec(any::<u64>(), 4..24),
    ) {
        routes_match_the_reference(&NARROW, seed, &changes, &keys)?;
    }
}

#[test]
fn ids_50_and_106_share_slot_33() {
    let config = config(&WIDE, 7);
    let engine = ServeEngine::new(config).expect("valid config");
    let table = reference(&config, &engine.snapshots()[0]);
    let slot = |id| table.codebook().slot_of(&ServerId::new(id).to_bytes());
    assert_eq!((slot(50), slot(106)), (33, 33));
}

#[test]
fn a_member_with_id_u64_max_routes_correctly() {
    let config = config(&WIDE, 3);
    let engine = ServeEngine::new(config).expect("valid config");
    let max = ServerId::new(u64::MAX);
    engine.join(max).expect("fresh");
    let keys: Vec<RequestKey> = (0..256).map(RequestKey::new).collect();
    let snapshot = &engine.snapshots()[0];
    for _ in 0..2 {
        assert!(snapshot.lookup_batch(&keys).iter().all(|v| *v == Ok(max)));
    }
    for id in [0, 50, 106] {
        engine.join(ServerId::new(id)).expect("fresh");
    }
    let mut held = Held { config, epochs: Vec::new() };
    held.take(&engine);
    held.check(&engine, &keys).expect("u64::MAX routes like any id");
    let wins: usize = held
        .epochs
        .iter()
        .map(|(s, _)| s.lookup_batch(&keys).iter().filter(|v| **v == Ok(max)).count())
        .sum();
    assert!(wins > 0, "u64::MAX should win some keys");
    engine.leave(ServerId::new(0)).expect("present");
    held.take(&engine);
    held.check(&engine, &keys).expect("u64::MAX survives a leave");
}

#[test]
fn threads_racing_to_fill_a_cold_snapshot_get_the_reference() {
    const THREADS: usize = 4;
    let config = config(&WIDE, 11);
    let engine = ServeEngine::new(config).expect("valid config");
    for id in [0, 1, 2, 3, 4, 5, 50, 106, u64::MAX] {
        engine.join(ServerId::new(id)).expect("fresh");
    }
    let keys: Vec<RequestKey> = (0..2000).map(RequestKey::new).collect();
    for round in 0..20u64 {
        // A join starts the published epoch cold.
        engine.join(ServerId::new(1000 + round)).expect("fresh");
        let snapshot = Arc::clone(&engine.snapshots()[0]);
        let table = reference(&config, &snapshot);
        let want: Vec<_> = keys.iter().map(|&k| table.lookup(k)).collect();
        let start = std::sync::Barrier::new(THREADS);
        let verdicts: Vec<Vec<_>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (snapshot, keys, start) = (&snapshot, &keys, &start);
                    scope.spawn(move || {
                        start.wait();
                        // Odd threads walk the keys backwards, so fills of
                        // one slot meet from both ends.
                        let mut order: Vec<usize> = (0..keys.len()).collect();
                        if t % 2 == 1 {
                            order.reverse();
                        }
                        let mut out = vec![Err(TableError::EmptyPool); keys.len()];
                        for i in order {
                            out[i] = snapshot.lookup(keys[i]);
                        }
                        out
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().expect("racer must not panic")).collect()
        });
        for (t, got) in verdicts.iter().enumerate() {
            assert_eq!(*got, want, "round {round}, thread {t}");
        }
        assert_eq!(snapshot.scrub_routes(), 0, "round {round}");
        assert_eq!(snapshot.lookup_batch(&keys), want, "round {round}: filled entries");
    }
}
