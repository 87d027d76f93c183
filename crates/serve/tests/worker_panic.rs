//! Worker panic containment: a panicking lookup batch must resolve every
//! ticket with an error response and leave the engine serving.

use std::time::Duration;

use hdhash_serve::{ServeConfig, ServeEngine};
use hdhash_table::{RequestKey, ServerId, TableError};

fn engine(workers: usize) -> ServeEngine {
    let engine = ServeEngine::new(ServeConfig {
        workers,
        dimension: 2048,
        codebook_size: 64,
        seed: 77,
        ..ServeConfig::default()
    })
    .expect("valid config");
    for id in 0..6 {
        engine.join(ServerId::new(id)).expect("fresh server");
    }
    engine
}

/// Silences the default panic hook for the injected panic, so the test
/// log is not littered with intentional worker backtraces. Installed once
/// for the whole test binary — every test here injects panics.
fn quiet_panics() {
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        std::panic::set_hook(Box::new(|_| {}));
    });
}

#[test]
fn panicking_batch_resolves_every_ticket_and_engine_keeps_serving() {
    quiet_panics();
    let mut engine = engine(2);
    engine.inject_worker_panic(RequestKey::new(13));
    // A burst containing the armed key: the batch it lands in is
    // abandoned, everything else serves normally.
    let tickets: Vec<_> = (0..100u64)
        .map(|k| engine.submit(RequestKey::new(k)).expect("accepted"))
        .collect();
    let mut panicked = 0;
    let mut served = 0;
    for ticket in tickets {
        // Bounded wait: a hang here is exactly the bug containment exists
        // to prevent, so fail the test with a timeout instead.
        let response = ticket
            .wait_timeout(Duration::from_secs(30))
            .expect("every ticket resolves");
        match response.result {
            Err(TableError::WorkerPanicked) => panicked += 1,
            Ok(_) => served += 1,
            Err(other) => panic!("unexpected verdict {other}"),
        }
    }
    assert!(panicked >= 1, "the armed key's batch was backfilled");
    assert!(served >= 1, "the engine kept serving around the panic");

    // The worker survived: a fresh burst after the panic serves cleanly.
    let tickets: Vec<_> = (100..150u64)
        .map(|k| engine.submit(RequestKey::new(k)).expect("still accepting"))
        .collect();
    for ticket in tickets {
        let response = ticket
            .wait_timeout(Duration::from_secs(30))
            .expect("post-panic tickets resolve");
        assert!(response.result.is_ok(), "post-panic serving is clean");
    }

    engine.shutdown();
    let metrics = engine.metrics();
    assert_eq!(metrics.panics_contained, 1, "one injected panic, contained");
    assert_eq!(metrics.submitted, 150);
    assert_eq!(metrics.completed, 150, "backfilled tickets count as completed");
}

#[test]
fn single_worker_engine_survives_a_panic() {
    quiet_panics();
    // With one worker there is no sibling to hide behind: the same thread
    // must catch its own panic and loop back for the next pickup.
    let mut engine = engine(1);
    engine.inject_worker_panic(RequestKey::new(5));
    let first = engine.submit(RequestKey::new(5)).expect("accepted");
    let response = first
        .wait_timeout(Duration::from_secs(30))
        .expect("contained, not hung");
    assert_eq!(response.result, Err(TableError::WorkerPanicked));
    let second = engine.submit(RequestKey::new(6)).expect("still accepting");
    let response = second
        .wait_timeout(Duration::from_secs(30))
        .expect("the sole worker is still alive");
    assert!(response.result.is_ok());
    engine.shutdown();
    assert_eq!(engine.metrics().panics_contained, 1);
}
