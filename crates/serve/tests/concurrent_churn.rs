//! Concurrent churn: lookups from four client threads racing a churn
//! thread that joins/leaves members through the epoch path.
//!
//! The property under test is the serving layer's consistency contract:
//! **every response carries the exact verdict of the epoch that served
//! it** — no torn reads, no response computed against a half-applied
//! membership, no route entry left over from another epoch. The epoch log
//! is reconstructible because every publication produces exactly one
//! receipt; the validator replays the receipts, rebuilds each epoch's HD
//! table from them, and checks every response's server against that
//! table's verdict for the response's key and against the membership live
//! at that exact epoch.
//!
//! CI runs this with `--test-threads=1`; the inner `ROUNDS` loop plus the
//! driver-side repetition give the "100 consecutive runs" soak the
//! acceptance criteria ask for.

use std::collections::HashMap;

use hdhash_core::HdHashTable;
use hdhash_serve::{ServeConfig, ServeEngine, ShardReceipt};
use hdhash_table::{DynamicHashTable, RequestKey, ServerId, TableError};

/// Full engine rounds per test execution (each round builds a fresh
/// engine, races clients against churn, validates every response).
const ROUNDS: usize = 4;
/// Lookup clients racing the churn thread.
const CLIENTS: usize = 4;
/// Lookups per client per round.
const LOOKUPS_PER_CLIENT: usize = 200;
/// Membership changes the churn thread applies per round.
const CHURN_OPS: usize = 30;

fn config(seed: u64) -> ServeConfig {
    ServeConfig {
        workers: 4,
        queue_capacity: 1024,
        dimension: 2048,
        codebook_size: 64,
        seed,
        ..ServeConfig::default()
    }
}

/// Epoch → membership in join order, reconstructed from receipts: one per
/// change.
fn log_receipts(log: &mut HashMap<u64, Vec<ServerId>>, receipts: &[ShardReceipt]) {
    for receipt in receipts {
        assert_eq!(receipt.shard, 0);
        let previous = log.insert(receipt.epoch, receipt.members.clone());
        assert!(previous.is_none(), "epoch {} published twice", receipt.epoch);
    }
}

/// The HD table the engine served in an epoch with `members`.
fn reference(config: &ServeConfig, members: &[ServerId]) -> HdHashTable {
    let mut table = HdHashTable::builder()
        .dimension(config.dimension)
        .codebook_size(config.codebook_size)
        .seed(config.seed)
        .build()
        .expect("valid geometry");
    for &server in members {
        table.join(server).expect("receipts list distinct members");
    }
    table
}

#[test]
fn lookups_race_churn_without_torn_reads() {
    for round in 0..ROUNDS {
        let config = config(round as u64 + 1);
        let engine = ServeEngine::new(config).expect("valid config");
        // Genesis: epoch 0 with no members.
        let mut epoch_log: HashMap<u64, Vec<ServerId>> = HashMap::from([(0, Vec::new())]);
        // Base membership before the race, so the pool is never empty.
        for id in 0..8u64 {
            let receipts = engine.join(ServerId::new(id)).expect("fresh");
            assert_eq!(receipts.len(), 1, "a join publishes one epoch");
            log_receipts(&mut epoch_log, &receipts);
        }

        let (churn_receipts, responses) = std::thread::scope(|scope| {
            let engine = &engine;
            let churner = scope.spawn(move || {
                // Alternate leave/join over a rolling window so membership
                // stays at 7–8 members throughout.
                let mut receipts = Vec::new();
                let mut next_leave = 0u64;
                let mut next_join = 8u64;
                for op in 0..CHURN_OPS {
                    let result = if op % 2 == 0 {
                        let r = engine.leave(ServerId::new(next_leave));
                        next_leave += 1;
                        r
                    } else {
                        let r = engine.join(ServerId::new(next_join));
                        next_join += 1;
                        r
                    };
                    receipts.extend(result.expect("churn ops target known members"));
                    std::thread::yield_now();
                }
                receipts
            });
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    scope.spawn(move || {
                        let mut collected = Vec::with_capacity(LOOKUPS_PER_CLIENT);
                        let mut window = std::collections::VecDeque::new();
                        for i in 0..LOOKUPS_PER_CLIENT {
                            let key = RequestKey::new(
                                (c * LOOKUPS_PER_CLIENT + i) as u64 * 31 + 7,
                            );
                            // Closed loop with a small in-flight window so
                            // batches actually coalesce.
                            if window.len() >= 8 {
                                let (key, ticket): (RequestKey, hdhash_serve::Ticket) =
                                    window.pop_front().expect("non-empty");
                                collected.push((key, ticket.wait()));
                            }
                            match engine.submit(key) {
                                Ok(ticket) => window.push_back((key, ticket)),
                                Err(e) => panic!("queue sized for the load: {e}"),
                            }
                        }
                        for (key, ticket) in window {
                            collected.push((key, ticket.wait()));
                        }
                        collected
                    })
                })
                .collect();
            let receipts = churner.join().expect("churner must not panic");
            let responses: Vec<_> = clients
                .into_iter()
                .flat_map(|c| c.join().expect("client must not panic"))
                .collect();
            (receipts, responses)
        });
        assert_eq!(churn_receipts.len(), CHURN_OPS, "round {round}: one receipt per change");
        log_receipts(&mut epoch_log, &churn_receipts);

        assert_eq!(
            responses.len(),
            CLIENTS * LOOKUPS_PER_CLIENT,
            "round {round}"
        );
        let mut references: HashMap<u64, HdHashTable> = HashMap::new();
        for (key, response) in &responses {
            assert_eq!(response.shard, 0, "round {round}");
            let members = epoch_log.get(&response.epoch).unwrap_or_else(|| {
                panic!("round {round}: response cites unknown epoch {}", response.epoch)
            });
            let table = references
                .entry(response.epoch)
                .or_insert_with(|| reference(&config, members));
            assert_eq!(
                response.result,
                table.lookup(*key),
                "round {round}: epoch {} answered {key} with a verdict its epoch's \
                 table does not give",
                response.epoch,
            );
            match response.result {
                Ok(server) => assert!(
                    members.contains(&server),
                    "round {round}: epoch {} routed to {server}, which was not live \
                     in that epoch (live: {members:?})",
                    response.epoch,
                ),
                Err(TableError::EmptyPool) => assert!(
                    members.is_empty(),
                    "round {round}: empty-pool verdict in a populated epoch"
                ),
                Err(other) => {
                    panic!("round {round}: unexpected verdict {other:?}")
                }
            }
        }

        // Post-race invariants: the table reached one epoch per change
        // and serves exactly the membership the churn left — ids below the
        // last leave are gone, the joins up to 8 + leaves live.
        let leaves = (CHURN_OPS / 2) as u64;
        let members: Vec<ServerId> = (leaves..8 + leaves).map(ServerId::new).collect();
        let final_epoch = 8 + CHURN_OPS as u64;
        let keys: Vec<RequestKey> = responses.iter().map(|&(key, _)| key).collect();
        let snapshot = &engine.snapshots()[0];
        assert_eq!(snapshot.epoch, final_epoch, "round {round}");
        assert_eq!(snapshot.member_ids(), members, "round {round}");
        let table = reference(&config, &snapshot.members);
        let want: Vec<_> = keys.iter().map(|&k| table.lookup(k)).collect();
        assert_eq!(snapshot.lookup_batch(&keys), want, "round {round}");
        assert_eq!(snapshot.scrub_routes(), 0, "round {round}: a wrong route entry");
    }
}

#[test]
fn reconfiguration_never_blocks_readers_for_long() {
    // A coarse liveness check: while a churn thread hammers
    // reconfigurations, single lookups keep completing (the publish path
    // is a pointer swap, not a rebuild-under-lock).
    let engine = ServeEngine::new(config(99)).expect("valid config");
    for id in 0..8u64 {
        engine.join(ServerId::new(id)).expect("fresh");
    }
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let engine = &engine;
        let stop = &stop;
        let churner = scope.spawn(move || {
            let mut id = 100u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                engine.join(ServerId::new(id)).expect("fresh");
                engine.leave(ServerId::new(id)).expect("present");
                id += 1;
            }
        });
        for k in 0..500u64 {
            let response = engine.submit(RequestKey::new(k)).expect("accepted").wait();
            assert!(response.result.is_ok());
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        churner.join().expect("churner must not panic");
    });
}

#[test]
fn backpressure_surfaces_queue_full() {
    // A 1-worker engine with a tiny queue and a slow open-loop client
    // burst: once the queue is at capacity, submits must reject with
    // QueueFull — and every *accepted* ticket must still resolve.
    let mut engine = ServeEngine::new(ServeConfig {
        workers: 1,
        queue_capacity: 8,
        dimension: 2048,
        codebook_size: 64,
        seed: 7,
        ..ServeConfig::default()
    })
    .expect("valid config");
    engine.join(ServerId::new(1)).expect("fresh");
    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for k in 0..5_000u64 {
        match engine.submit(RequestKey::new(k)) {
            Ok(ticket) => accepted.push(ticket),
            Err(hdhash_serve::ServeError::QueueFull) => rejected += 1,
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    let accepted_count = accepted.len() as u64;
    for ticket in accepted {
        assert!(ticket.wait().result.is_ok());
    }
    // An open-loop burst of 5000 against capacity 8 must trip
    // backpressure at least once on a single worker.
    assert!(rejected > 0, "backpressure never engaged");
    engine.shutdown();
    let metrics = engine.metrics();
    assert_eq!(metrics.rejected as usize, rejected);
    assert_eq!(metrics.submitted, accepted_count);
    assert_eq!(metrics.completed, accepted_count);
    assert_eq!(metrics.queue_depth, 0);
}

#[test]
fn stragglers_complete_at_shutdown() {
    // Submit a burst and shut down mid-flight: every accepted ticket must
    // resolve — jobs the workers never picked up are served by the
    // shutdown drain.
    for round in 0..20u64 {
        let mut engine = ServeEngine::new(ServeConfig {
            workers: 4,
            queue_capacity: 2048,
            dimension: 2048,
            codebook_size: 64,
            seed: 1000 + round,
            ..ServeConfig::default()
        })
        .expect("valid config");
        engine.join(ServerId::new(1)).expect("fresh");
        engine.join(ServerId::new(2)).expect("fresh");
        let tickets: Vec<_> = (0..600u64)
            .filter_map(|k| engine.submit(RequestKey::new(k)).ok())
            .collect();
        // No sleep: shutdown races the workers while the queue still holds
        // most of the burst.
        engine.shutdown();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let response = ticket.wait();
            assert!(response.result.is_ok(), "round {round}, ticket {i} must resolve");
        }
        let metrics = engine.metrics();
        assert_eq!(metrics.completed, metrics.submitted, "round {round}");
        assert_eq!(metrics.queue_depth, 0, "round {round}: nothing left queued");
    }
}
