//! The deterministic scenario regression suite (see `docs/SCENARIOS.md`).
//!
//! Every test prints the seed it ran with, so a failing log always
//! carries its own reproduction. The randomized soak honors
//! `SCENARIO_SEED=<n>` for bit-for-bit replay of a failure.

use hdhash_emulator::{AlgorithmKind, HashTableModule, Trace};
use hdhash_serve::scenario::{self, catalog, PhaseMetrics, Scenario, ScenarioConfig};
use hdhash_serve::{drive, ServeConfig, ServeEngine};

/// Seed used by the deterministic catalog tests (any value works; fixing
/// one keeps CI logs comparable across runs).
const CATALOG_SEED: u64 = 0xD1A6_2022;

/// The deterministic fields of a phase, as one comparable tuple (latency
/// and wall time are measurements and excluded — same rule as
/// [`hdhash_serve::ScenarioReport::fingerprint`]).
fn deterministic_fields(p: &PhaseMetrics) -> [u64; 14] {
    [
        p.phase as u64,
        p.arrivals,
        p.submitted,
        p.shed,
        p.completed,
        p.lookup_failures,
        p.timed_out,
        p.controls,
        p.control_failures,
        p.members,
        p.epoch_max,
        p.epoch_lag,
        p.divergence,
        p.digest_hash,
    ]
}

/// Runs one scenario and checks the catalog-wide invariants.
fn check_invariants(s: &Scenario, seed: u64) -> hdhash_serve::ScenarioReport {
    println!("scenario {} seed={seed} (replay: SCENARIO_SEED={seed})", s.name);
    let report = scenario::run(s, &ScenarioConfig::small(), seed).expect("catalog run");
    assert_eq!(report.hung_tickets, 0, "{}: no ticket may hang", s.name);
    assert_eq!(
        report.epoch_mismatches, 0,
        "{}: every response epoch must match the membership snapshot serving its tick",
        s.name
    );
    assert!(report.converged, "{}: replica set must end converged", s.name);
    assert!(
        report.replica_digests.windows(2).all(|w| w[0] == w[1]),
        "{}: converged ⇒ identical digest hashes",
        s.name
    );
    for phase in &report.phases {
        assert_eq!(
            phase.submitted + phase.shed,
            phase.arrivals,
            "{} phase {}: every offered lookup is submitted or shed",
            s.name,
            phase.phase
        );
        assert_eq!(
            phase.completed, phase.submitted,
            "{} phase {}: every submitted lookup completes",
            s.name, phase.phase
        );
        assert_eq!(phase.lookup_failures, 0, "{}: pool is never empty", s.name);
        assert_eq!(phase.control_failures, 0, "{}: scripted controls are valid", s.name);
        assert!(phase.members >= 1);
    }
    report
}

#[test]
fn catalog_invariants_hold_for_every_scenario() {
    for s in catalog() {
        check_invariants(&s, CATALOG_SEED);
    }
}

#[test]
fn same_seed_reruns_are_bit_identical() {
    // The churny scenarios are the ones with the most nondeterminism
    // surface (threaded reconfiguration, chaos transport, gossip).
    for name in ["churn-storm", "crash-rejoin"] {
        let s = Scenario::by_name(name).expect("catalog");
        let a = check_invariants(&s, CATALOG_SEED);
        let b = check_invariants(&s, CATALOG_SEED);
        assert_eq!(a.fingerprint(), b.fingerprint(), "{name}: fingerprints diverged");
        assert_eq!(a.phases.len(), b.phases.len());
        for (pa, pb) in a.phases.iter().zip(&b.phases) {
            assert_eq!(
                deterministic_fields(pa),
                deterministic_fields(pb),
                "{name} phase {}: per-phase metrics must replay bit-for-bit",
                pa.phase
            );
        }
        assert_eq!(a.replica_digests, b.replica_digests);
        // A different seed must actually change the run.
        let c = scenario::run(&s, &ScenarioConfig::small(), CATALOG_SEED ^ 1)
            .expect("other seed");
        assert_ne!(a.fingerprint(), c.fingerprint(), "{name}: seed must matter");
    }
}

#[test]
fn flash_crowd_sheds_at_peak_then_drains() {
    let s = Scenario::by_name("flash-crowd").expect("catalog");
    let report = check_invariants(&s, CATALOG_SEED);
    // peak ticks 16..24 with phase_ticks 8 ⇒ exactly phase 2 overloads.
    for phase in &report.phases {
        if phase.phase == 2 {
            assert!(phase.shed > 0, "the flash crowd must exceed the window");
        } else {
            assert_eq!(phase.shed, 0, "phase {}: off-peak load fits the window", phase.phase);
        }
        // The open loop never leaves a backlog across a phase: everything
        // submitted in the phase completed in the phase (drained).
        assert_eq!(phase.completed, phase.submitted);
    }
}

#[test]
fn crash_rejoin_diverges_then_reconverges() {
    let s = Scenario::by_name("crash-rejoin").expect("catalog");
    let report = check_invariants(&s, CATALOG_SEED);
    assert!(
        report.phases.iter().any(|p| p.divergence > 0 || p.epoch_lag > 0),
        "the crashed replica must visibly fall behind mid-run"
    );
    let last = report.phases.last().expect("phases");
    assert!(report.converged, "rejoin must reconverge");
    assert!(
        last.divergence == 0 || report.recovery_rounds > 0,
        "either the run ends converged or recovery rounds did the work"
    );
}

#[test]
fn randomized_soak_prints_its_replay_seed() {
    // A fresh seed per run widens coverage; SCENARIO_SEED pins it for
    // bit-for-bit replay of a CI failure.
    let seed = match std::env::var("SCENARIO_SEED") {
        Ok(v) => v.parse::<u64>().expect("SCENARIO_SEED must be a u64"),
        Err(_) => std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .subsec_nanos() as u64
            ^ 0x5eed_0bad_c0de,
    };
    println!(
        "soak seed={seed} — replay with: SCENARIO_SEED={seed} \
         cargo test -p hdhash-serve --test scenarios randomized_soak"
    );
    for name in ["steady", "diurnal", "churn-storm"] {
        let s = Scenario::by_name(name).expect("catalog");
        check_invariants(&s, seed);
    }
}

#[test]
fn recorded_trace_replays_identically_through_the_serve_driver() {
    // Record → write → parse → replay: the emulator ↔ serve seam.
    let s = Scenario::by_name("churn-storm").expect("catalog");
    let trace = s.trace(CATALOG_SEED);
    let text = trace.to_text();
    let parsed = Trace::from_text(&text).expect("round-trip parse");
    assert_eq!(parsed.requests(), trace.requests(), "text round-trip is lossless");
    assert_eq!(parsed.name(), trace.name());

    let engine_config = ServeConfig {
        workers: 2,
        queue_capacity: 4096,
        dimension: 2048,
        codebook_size: 64,
        seed: 9,
        ..ServeConfig::default()
    };
    let original = {
        let engine = ServeEngine::new(engine_config).expect("engine");
        drive(&engine, trace.requests(), 64).replay_report()
    };
    let reparsed = {
        let engine = ServeEngine::new(engine_config).expect("engine");
        drive(&engine, parsed.requests(), 64).replay_report()
    };
    assert_eq!(
        original.counters, reparsed.counters,
        "the parsed trace must replay to the same deterministic counters"
    );
    assert_eq!(original.counters.shed, 0, "large queue ⇒ nothing shed");
    assert_eq!(original.counters.timed_out, 0);
}

#[test]
fn trace_counters_agree_across_emulator_and_serve_worlds() {
    // The same recorded trace through both substrates: the paper-figure
    // emulator module and the live serving engine must agree on every
    // deterministic counter (assignments differ — the codebook geometries
    // are unrelated — but membership semantics are identical).
    let s = Scenario::by_name("churn-storm").expect("catalog");
    let trace = s.trace(CATALOG_SEED);

    let mut module = HashTableModule::new(AlgorithmKind::Hd.build(64));
    let emulated = trace.replay_report(&mut module);

    let engine = ServeEngine::new(ServeConfig {
        workers: 2,
        queue_capacity: 4096,
        dimension: 2048,
        codebook_size: 64,
        ..ServeConfig::default()
    })
    .expect("engine");
    let served = drive(&engine, trace.requests(), 64).replay_report();

    assert_eq!(
        emulated.counters, served.counters,
        "one trace, two worlds, one outcome"
    );
    assert!(served.latency.is_some(), "the serve driver records latency");
    assert!(emulated.latency.is_none(), "the module reports only aggregates");
}
