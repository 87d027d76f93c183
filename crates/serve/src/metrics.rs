//! Serving metrics: counters, batch fill, lock-free latency histogram.
//!
//! Latency used to live in a `Mutex<Vec<Duration>>` reservoir: every
//! batch took the lock to append and every snapshot cloned the whole
//! 4096-entry ring under it. It is now an atomic log2-bucketed
//! [`LogHistogram`] — `record_batch` is pure `fetch_add`s and a snapshot
//! reads 65 bucket counters, so neither side ever blocks the other.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use hdhash_emulator::LatencyProfile;
use hdhash_obs::{HistogramSnapshot, LogHistogram};

/// Writer-side metrics of the engine's table. Everything is `Relaxed` atomics
/// (monotone, heuristic) — including the latency distribution; nothing on
/// the batch path takes a lock.
#[derive(Debug, Default)]
pub(crate) struct ShardMetrics {
    served: AtomicU64,
    failed: AtomicU64,
    route_scans: AtomicU64,
    batches: AtomicU64,
    latency_ns: LogHistogram,
}

impl ShardMetrics {
    /// Accounts one coalesced batch: `fill`
    /// lookups, of which `failures` returned an error and `scans` missed
    /// the epoch's route table and ran the HD scan.
    pub(crate) fn record_batch(
        &self,
        fill: usize,
        failures: usize,
        scans: usize,
        latencies: &[Duration],
    ) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.served.fetch_add(fill as u64, Ordering::Relaxed);
        self.failed.fetch_add(failures as u64, Ordering::Relaxed);
        self.route_scans.fetch_add(scans as u64, Ordering::Relaxed);
        for sample in latencies {
            self.latency_ns.record(sample.as_nanos() as u64);
        }
    }

    pub(crate) fn snapshot(&self, epoch: u64, members: usize) -> ShardMetricsSnapshot {
        let batches = self.batches.load(Ordering::Relaxed);
        let served = self.served.load(Ordering::Relaxed);
        let hist = self.latency_ns.snapshot();
        let latency = profile_from_histogram(&hist);
        ShardMetricsSnapshot {
            shard: 0,
            epoch,
            members,
            served,
            failed: self.failed.load(Ordering::Relaxed),
            route_scans: self.route_scans.load(Ordering::Relaxed),
            batches,
            mean_batch_fill: if batches == 0 { 0.0 } else { served as f64 / batches as f64 },
            latency,
            latency_hist: hist,
        }
    }
}

/// Derive the classic p50/p90/p99/max profile from histogram buckets.
/// `None` before any traffic, like the reservoir behaved.
fn profile_from_histogram(hist: &HistogramSnapshot) -> Option<LatencyProfile> {
    if hist.count == 0 {
        return None;
    }
    let q = |q: f64| Duration::from_nanos(hist.quantile(q).unwrap_or(0));
    Some(LatencyProfile {
        samples: hist.count as usize,
        p50: q(0.50),
        p90: q(0.90),
        p99: q(0.99),
        max: Duration::from_nanos(hist.max),
    })
}

/// Point-in-time metrics of the engine's table.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMetricsSnapshot {
    /// Always 0, as [`ShardSnapshot::shard`](crate::ShardSnapshot::shard).
    pub shard: usize,
    /// The currently published epoch.
    pub epoch: u64,
    /// Members live in that epoch.
    pub members: usize,
    /// Lookups served (successful or failed verdicts alike).
    pub served: u64,
    /// Lookups whose verdict was an error (e.g. empty pool).
    pub failed: u64,
    /// Lookups that found their slot's route entry empty and ran the HD
    /// scan. `route_scans / served` is the route table's miss rate: each
    /// epoch pays at most one scan per codebook slot it serves (more only
    /// when threads race to fill one entry, or for a slot won by id
    /// `u64::MAX`, which has no route encoding).
    pub route_scans: u64,
    /// Coalesced batches executed.
    pub batches: u64,
    /// Mean lookups per batch, `served / batches` — the coalescing win;
    /// 1.0 means the queue never held more than one request at a time.
    pub mean_batch_fill: f64,
    /// p50/p90/p99/max over the full latency history, measured
    /// submit-to-response (queue wait included). Quantiles are log2-bucket
    /// estimates (error below one bucket width); `max` is exact. `None`
    /// before traffic.
    pub latency: Option<LatencyProfile>,
    /// The raw latency distribution in nanoseconds — the bucket state the
    /// quantiles derive from, exported whole by the telemetry layer.
    pub latency_hist: HistogramSnapshot,
}

/// Point-in-time metrics for the whole engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineMetrics {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests refused at capacity (the backpressure counter).
    pub rejected: u64,
    /// Requests served to completion — including requests backfilled with
    /// [`WorkerPanicked`](hdhash_table::TableError::WorkerPanicked) by
    /// panic containment (they resolved, with an error verdict).
    pub completed: u64,
    /// Worker panics caught and contained: each counts one abandoned
    /// batch whose pending tickets were backfilled with an error response
    /// while the worker kept serving. Zero in healthy operation.
    pub panics_contained: u64,
    /// Requests currently waiting in the request queue.
    pub queue_depth: usize,
    /// The table's metrics, as the only entry. A vector because the
    /// `perfbench/` benchmark, which is kept unchanged between versions,
    /// reads it as one.
    pub shards: Vec<ShardMetricsSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_accounting_accumulates() {
        let m = ShardMetrics::default();
        m.record_batch(3, 1, 2, &[Duration::from_micros(10); 3]);
        m.record_batch(5, 0, 1, &[Duration::from_micros(20); 5]);
        let snap = m.snapshot(7, 4);
        assert_eq!(snap.shard, 0);
        assert_eq!(snap.epoch, 7);
        assert_eq!(snap.members, 4);
        assert_eq!(snap.served, 8);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.route_scans, 3);
        assert_eq!(snap.batches, 2);
        assert!((snap.mean_batch_fill - 4.0).abs() < 1e-12);
        let latency = snap.latency.expect("samples recorded");
        assert_eq!(latency.samples, 8);
        assert_eq!(latency.max, Duration::from_micros(20));
        assert_eq!(snap.latency_hist.count, 8);
    }

    #[test]
    fn empty_metrics_have_no_profile() {
        let snap = ShardMetrics::default().snapshot(0, 0);
        assert!(snap.latency.is_none());
        assert_eq!(snap.mean_batch_fill, 0.0);
        assert_eq!(snap.latency_hist.count, 0);
    }

    #[test]
    fn histogram_snapshot_does_not_block_recording() {
        // The reservoir this replaced cloned 4096 samples under a lock per
        // snapshot; the histogram read must tolerate concurrent writers.
        use std::sync::Arc;
        let m = Arc::new(ShardMetrics::default());
        let writer = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    m.record_batch(1, 0, 0, &[Duration::from_nanos(i + 1)]);
                }
            })
        };
        for _ in 0..500 {
            let snap = m.snapshot(0, 1);
            // Monotone, internally consistent reads while writes race.
            assert!(snap.latency_hist.buckets.iter().sum::<u64>() <= 20_000);
        }
        writer.join().unwrap();
        let snap = m.snapshot(0, 1);
        assert_eq!(snap.served, 20_000);
        assert_eq!(snap.latency_hist.count, 20_000);
        assert_eq!(snap.latency.expect("traffic").max, Duration::from_nanos(20_000));
    }
}
