//! Emulator-driven load generation: feed a [`Generator`]'s request stream
//! through a [`ServeEngine`] closed-loop.
//!
//! The paper's emulator generates a request stream (joins, leaves,
//! lookups); this module is the adapter that replays such a stream against
//! the serving layer — control requests go through the epoch
//! reconfiguration path, lookups through the request queue — while keeping a
//! bounded number of lookups in flight (a closed loop, the way a fixed
//! client fleet drives a real service).
//!
//! [`Generator`]: hdhash_emulator::Generator

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use hdhash_emulator::replay::{ReplayCounters, ReplayReport};
use hdhash_emulator::{metrics::ThroughputSample, LatencyProfile, Request};

use crate::engine::ServeEngine;
use crate::request::Ticket;
use crate::ServeError;

/// Outcome of one [`drive`] run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Lookups accepted into the queue.
    pub submitted: usize,
    /// Lookups refused at capacity even after one drain-and-retry.
    pub rejected: usize,
    /// Lookups served to completion.
    pub completed: usize,
    /// Served lookups whose verdict was an error (e.g. empty pool).
    pub failures: usize,
    /// Control requests applied (joins + leaves).
    pub controls: usize,
    /// Control requests that failed (duplicate join, unknown leave).
    pub control_failures: usize,
    /// Accepted lookups whose response never arrived within the reap
    /// deadline ([`REAP_TIMEOUT`]); the tickets were abandoned. Always
    /// zero against a healthy engine — non-zero means a worker wedged or
    /// died uncontained.
    pub timed_out: usize,
    /// Wall time of the whole replay.
    pub elapsed: Duration,
    /// Submit-to-response latency profile over every completed lookup.
    pub latency: Option<LatencyProfile>,
}

impl LoadReport {
    /// Completed lookups over wall time.
    #[must_use]
    pub fn throughput(&self) -> ThroughputSample {
        ThroughputSample { requests: self.completed, elapsed: self.elapsed }
    }

    /// Converts to the substrate-neutral replay shape shared with the
    /// emulator module ([`hdhash_emulator::replay`]), so one recorded
    /// trace replayed on both sides can be compared counter for counter.
    #[must_use]
    pub fn replay_report(&self) -> ReplayReport {
        ReplayReport {
            counters: ReplayCounters {
                controls: self.controls,
                control_failures: self.control_failures,
                lookups: self.completed,
                lookup_failures: self.failures,
                shed: self.rejected,
                timed_out: self.timed_out,
            },
            elapsed: self.elapsed,
            latency: self.latency,
        }
    }
}

/// How long [`drive`] waits for any single outstanding response before
/// abandoning its ticket. Generous — orders of magnitude above a healthy
/// engine's worst latency — because its only job is turning a wedged
/// worker into a counted [`LoadReport::timed_out`] instead of a hung
/// replay.
pub const REAP_TIMEOUT: Duration = Duration::from_secs(30);

/// Replays `requests` against `engine`, keeping at most `window` lookups
/// outstanding (closed loop). Backpressured submissions drain one
/// outstanding ticket and retry once before counting as rejected.
///
/// Returns after every in-flight lookup has been reaped or has timed out
/// ([`REAP_TIMEOUT`] per ticket, counted in [`LoadReport::timed_out`]).
#[must_use]
pub fn drive(engine: &ServeEngine, requests: &[Request], window: usize) -> LoadReport {
    let window = window.max(1);
    let mut outstanding: VecDeque<Ticket> = VecDeque::with_capacity(window);
    let mut report = LoadReport {
        submitted: 0,
        rejected: 0,
        completed: 0,
        failures: 0,
        controls: 0,
        control_failures: 0,
        timed_out: 0,
        elapsed: Duration::ZERO,
        latency: None,
    };
    let mut latencies: Vec<Duration> = Vec::new();
    let started = Instant::now();

    // The deadline bounds the damage of a wedged worker: one counted
    // timeout per ticket instead of a replay that never returns.
    let reap = |ticket: Ticket, report: &mut LoadReport, latencies: &mut Vec<Duration>| {
        match ticket.wait_timeout(REAP_TIMEOUT) {
            Some(response) => {
                report.completed += 1;
                if response.result.is_err() {
                    report.failures += 1;
                }
                latencies.push(response.latency);
            }
            None => report.timed_out += 1,
        }
    };

    for request in requests {
        match *request {
            Request::Join(server) => {
                report.controls += 1;
                if engine.join(server).is_err() {
                    report.control_failures += 1;
                }
            }
            Request::Leave(server) => {
                report.controls += 1;
                if engine.leave(server).is_err() {
                    report.control_failures += 1;
                }
            }
            Request::Lookup(key) => {
                if outstanding.len() >= window {
                    let ticket = outstanding.pop_front().expect("non-empty window");
                    reap(ticket, &mut report, &mut latencies);
                }
                match engine.submit(key) {
                    Ok(ticket) => {
                        report.submitted += 1;
                        outstanding.push_back(ticket);
                    }
                    Err(ServeError::QueueFull) => {
                        // Drain the window, then retry once.
                        while let Some(ticket) = outstanding.pop_front() {
                            reap(ticket, &mut report, &mut latencies);
                        }
                        match engine.submit(key) {
                            Ok(ticket) => {
                                report.submitted += 1;
                                outstanding.push_back(ticket);
                            }
                            Err(_) => report.rejected += 1,
                        }
                    }
                    Err(_) => report.rejected += 1,
                }
            }
        }
    }
    while let Some(ticket) = outstanding.pop_front() {
        reap(ticket, &mut report, &mut latencies);
    }
    report.elapsed = started.elapsed();
    report.latency = LatencyProfile::from_durations(latencies);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use hdhash_emulator::{Generator, Workload};

    fn engine() -> ServeEngine {
        ServeEngine::new(ServeConfig {
            workers: 2,
            queue_capacity: 512,
            dimension: 2048,
            codebook_size: 64,
            seed: 9,
            ..ServeConfig::default()
        })
        .expect("valid config")
    }

    #[test]
    fn replays_generator_stream_end_to_end() {
        // A window of one keeps a single request in flight, so the workers
        // wait for work between every job.
        for window in [64, 1] {
            let mut engine = engine();
            let workload =
                Workload { initial_servers: 8, lookups: 400, ..Workload::default() };
            let requests = Generator::new(workload).requests();
            let report = drive(&engine, &requests, window);
            assert_eq!(report.controls, 8, "window {window}");
            assert_eq!(report.control_failures, 0);
            assert_eq!(report.submitted + report.rejected, 400);
            assert_eq!(report.completed, report.submitted);
            assert_eq!(report.timed_out, 0, "healthy engine never times out");
            assert_eq!(report.failures, 0, "pool is non-empty for every lookup");
            assert!(report.latency.is_some());
            assert!(report.throughput().requests_per_sec() > 0.0);
            engine.shutdown();
            let metrics = engine.metrics();
            assert_eq!(metrics.completed as usize, report.completed, "window {window}");
        }
    }

    #[test]
    fn churn_stream_keeps_serving() {
        let mut engine = engine();
        let workload = Workload { initial_servers: 6, lookups: 300, ..Workload::default() };
        let requests = Generator::new(workload).churn_requests(4);
        let report = drive(&engine, &requests, 32);
        // 6 initial joins plus churn events (leaves whose victim already
        // departed are skipped by the generator, so ≥ 2 of 4 remain).
        assert!(report.controls >= 6 + 2, "controls {}", report.controls);
        assert_eq!(report.completed, report.submitted);
        assert_eq!(report.failures, 0);
        engine.shutdown();
        // Every accepted control published exactly one epoch.
        let accepted = report.controls - report.control_failures;
        assert_eq!(engine.snapshots()[0].epoch, accepted as u64);
    }

    #[test]
    fn tiny_queue_still_completes_via_retry() {
        let mut engine = ServeEngine::new(ServeConfig {
            workers: 1,
            queue_capacity: 8,
            dimension: 2048,
            codebook_size: 64,
            seed: 10,
            ..ServeConfig::default()
        })
        .expect("valid config");
        engine.join(hdhash_table::ServerId::new(1)).expect("fresh server");
        let requests: Vec<Request> =
            (0..200u64).map(|k| Request::Lookup(hdhash_table::RequestKey::new(k))).collect();
        let report = drive(&engine, &requests, 16);
        assert_eq!(report.submitted + report.rejected, 200);
        assert_eq!(report.completed, report.submitted);
        assert!(report.completed > 0);
        engine.shutdown();
    }
}
