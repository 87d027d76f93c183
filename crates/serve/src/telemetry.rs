//! One [`TelemetrySnapshot`] across every layer of the serving stack.
//!
//! Each layer already exposes a point-in-time stats struct
//! ([`EngineMetrics`], [`GossipMetrics`], [`TcpStats`], [`ChaosStats`],
//! [`TracerStats`]); this module maps them all into one
//! [`TelemetrySnapshot`] under a stable `hdhash_*` naming scheme, so a
//! single call to [`TelemetrySnapshot::to_prometheus`] or
//! [`TelemetrySnapshot::to_json`] exports the whole system — engine,
//! gossip, TCP transport, chaos harness, and the tracer's own
//! bookkeeping — in one exposition.
//!
//! Every exporter takes a caller-supplied label set (typically
//! `[("replica", "3")]` in cluster contexts, empty for a single engine)
//! that is applied to each emitted sample, so snapshots from several
//! replicas can be merged into one exposition without name collisions.
//!
//! The full metric catalog is documented in `docs/OBSERVABILITY.md`.

use hdhash_obs::{TelemetrySnapshot, TracerStats};

use crate::chaos::ChaosStats;
use crate::gossip::GossipMetrics;
use crate::metrics::EngineMetrics;
use crate::tcp::TcpStats;

/// Appends the engine-layer samples (submission/completion counters,
/// queue depth, panic containment, and per-shard serving counters plus
/// the full latency histogram, labeled `shard="N"`).
pub fn export_engine(out: &mut TelemetrySnapshot, labels: &[(&str, &str)], m: &EngineMetrics) {
    out.push_counter(
        "hdhash_engine_submitted_total",
        "Requests accepted into the request queue",
        labels,
        m.submitted,
    );
    out.push_counter(
        "hdhash_engine_rejected_total",
        "Requests refused at queue capacity (backpressure)",
        labels,
        m.rejected,
    );
    out.push_counter(
        "hdhash_engine_completed_total",
        "Requests served to completion (error verdicts included)",
        labels,
        m.completed,
    );
    out.push_counter(
        "hdhash_engine_panics_contained_total",
        "Worker panics caught and contained by ticket backfill",
        labels,
        m.panics_contained,
    );
    out.push_gauge(
        "hdhash_engine_queue_depth",
        "Requests currently waiting in the request queue",
        labels,
        m.queue_depth as f64,
    );
    for shard in &m.shards {
        let idx = shard.shard.to_string();
        let mut shard_labels: Vec<(&str, &str)> = labels.to_vec();
        shard_labels.push(("shard", idx.as_str()));
        out.push_counter(
            "hdhash_shard_served_total",
            "Lookups served by this shard",
            &shard_labels,
            shard.served,
        );
        out.push_counter(
            "hdhash_shard_failed_total",
            "Lookups whose verdict was an error",
            &shard_labels,
            shard.failed,
        );
        out.push_counter(
            "hdhash_shard_route_scans_total",
            "Lookups that missed the epoch's route table and ran the HD scan",
            &shard_labels,
            shard.route_scans,
        );
        out.push_counter(
            "hdhash_shard_batches_total",
            "Coalesced batches executed against this shard",
            &shard_labels,
            shard.batches,
        );
        out.push_gauge(
            "hdhash_shard_epoch",
            "The shard's currently published membership epoch",
            &shard_labels,
            shard.epoch as f64,
        );
        out.push_gauge(
            "hdhash_shard_members",
            "Members live in the published epoch",
            &shard_labels,
            shard.members as f64,
        );
        out.push_gauge(
            "hdhash_shard_mean_batch_fill",
            "Mean lookups per coalesced batch (the coalescing win)",
            &shard_labels,
            shard.mean_batch_fill,
        );
        out.push_histogram(
            "hdhash_shard_latency_ns",
            "Submit-to-response latency distribution in nanoseconds",
            &shard_labels,
            shard.latency_hist,
        );
    }
}

/// Appends the gossip-layer samples: protocol counters (rounds, adverts,
/// syncs, bytes), the retry/abandon accounting, and the failure
/// detector's per-state peer counts.
pub fn export_gossip(out: &mut TelemetrySnapshot, labels: &[(&str, &str)], m: &GossipMetrics) {
    let counters: [(&str, &str, u64); 19] = [
        ("hdhash_gossip_rounds_total", "Gossip rounds opened", m.rounds),
        ("hdhash_gossip_adverts_sent_total", "Digest adverts sent", m.adverts_sent),
        ("hdhash_gossip_adverts_received_total", "Digest adverts received", m.adverts_received),
        (
            "hdhash_gossip_divergence_detections_total",
            "Adverts that revealed divergence",
            m.divergence_detections,
        ),
        (
            "hdhash_gossip_divergent_shards_total",
            "Shards found divergent across all detections",
            m.divergent_shards,
        ),
        ("hdhash_gossip_syncs_sent_total", "Sync requests sent", m.syncs_sent),
        ("hdhash_gossip_syncs_received_total", "Sync requests received", m.syncs_received),
        ("hdhash_gossip_records_adopted_total", "Member records adopted in merges", m.records_adopted),
        ("hdhash_gossip_members_joined_total", "Members learned via gossip", m.members_joined),
        ("hdhash_gossip_members_left_total", "Members removed via gossip", m.members_left),
        ("hdhash_gossip_bytes_sent_total", "Protocol bytes sent (wire accounting)", m.bytes_sent),
        ("hdhash_gossip_bytes_received_total", "Protocol bytes received", m.bytes_received),
        ("hdhash_gossip_send_failures_total", "Transport sends that failed", m.send_failures),
        (
            "hdhash_gossip_protocol_errors_total",
            "Adverts with another shard count plus refused merges",
            m.protocol_errors,
        ),
        (
            "hdhash_gossip_tombstones_expired_total",
            "Tombstones expired by the watermark GC",
            m.tombstones_expired,
        ),
        ("hdhash_gossip_sync_retries_total", "Sync requests retransmitted", m.sync_retries),
        (
            "hdhash_gossip_sync_abandoned_total",
            "In-flight syncs abandoned at the retry cap",
            m.sync_abandoned,
        ),
        ("hdhash_gossip_retry_bytes_total", "Bytes spent on retransmissions", m.retry_bytes),
        ("hdhash_gossip_probes_sent_total", "Fanout slots redirected to dead peers", m.probes_sent),
    ];
    for (name, help, value) in counters {
        out.push_counter(name, help, labels, value);
    }
    out.push_gauge(
        "hdhash_gossip_peers_alive",
        "Peers the failure detector currently reads as alive",
        labels,
        m.peers_alive as f64,
    );
    out.push_gauge(
        "hdhash_gossip_peers_suspect",
        "Peers the failure detector currently reads as suspect",
        labels,
        m.peers_suspect as f64,
    );
    out.push_gauge(
        "hdhash_gossip_peers_dead",
        "Peers the failure detector currently reads as dead",
        labels,
        m.peers_dead as f64,
    );
}

/// Appends the TCP-transport samples: connection lifecycle, framing, and
/// the slow-peer drop-oldest backpressure counter.
pub fn export_tcp(out: &mut TelemetrySnapshot, labels: &[(&str, &str)], m: &TcpStats) {
    let counters: [(&str, &str, u64); 12] = [
        (
            "hdhash_tcp_connections_established_total",
            "Outbound connections successfully dialed",
            m.connections_established,
        ),
        (
            "hdhash_tcp_connections_reconnected_total",
            "Established connections that replaced an earlier one",
            m.connections_reconnected,
        ),
        ("hdhash_tcp_connections_accepted_total", "Inbound connections accepted", m.connections_accepted),
        ("hdhash_tcp_connect_failures_total", "Outbound dials that failed", m.connect_failures),
        ("hdhash_tcp_frames_sent_total", "Frames written to sockets", m.frames_sent),
        ("hdhash_tcp_frames_received_total", "Frames decoded off sockets", m.frames_received),
        ("hdhash_tcp_bytes_sent_total", "Bytes written to sockets (frame overhead included)", m.bytes_sent),
        ("hdhash_tcp_bytes_received_total", "Bytes read off sockets", m.bytes_received),
        ("hdhash_tcp_send_errors_total", "Writes that broke the connection", m.send_errors),
        ("hdhash_tcp_corrupt_frames_total", "Frames rejected by validation", m.corrupt_frames),
        ("hdhash_tcp_partial_frames_total", "Connections condemned mid-frame", m.partial_frames),
        (
            "hdhash_tcp_peer_backpressure_drops_total",
            "Oldest frames dropped from a slow peer's bounded outbox",
            m.peer_backpressure_drops,
        ),
    ];
    for (name, help, value) in counters {
        out.push_counter(name, help, labels, value);
    }
}

/// Appends the chaos-harness samples: the fault plan's delivery /
/// drop / delay / reorder accounting.
pub fn export_chaos(out: &mut TelemetrySnapshot, labels: &[(&str, &str)], m: &ChaosStats) {
    let counters: [(&str, &str, u64); 10] = [
        ("hdhash_chaos_offered_total", "Messages offered to the chaos layer", m.offered),
        ("hdhash_chaos_duplicated_total", "Messages duplicated in flight", m.duplicated),
        ("hdhash_chaos_delivered_total", "Messages delivered to the inbox", m.delivered),
        ("hdhash_chaos_dropped_random_total", "Messages dropped by random loss", m.dropped_random),
        ("hdhash_chaos_dropped_partition_total", "Messages dropped by partitions", m.dropped_partition),
        ("hdhash_chaos_dropped_crash_total", "Messages dropped into crashed replicas", m.dropped_crash),
        (
            "hdhash_chaos_dropped_disconnected_total",
            "Messages dropped to unknown or disconnected peers",
            m.dropped_disconnected,
        ),
        ("hdhash_chaos_delayed_total", "Messages held for bounded delay", m.delayed),
        ("hdhash_chaos_reordered_total", "Messages delivered out of order", m.reordered),
        ("hdhash_chaos_purged_on_crash_total", "In-flight messages purged by crashes", m.purged_on_crash),
    ];
    for (name, help, value) in counters {
        out.push_counter(name, help, labels, value);
    }
    out.push_gauge(
        "hdhash_chaos_in_flight",
        "Messages currently held in the delay queue",
        labels,
        m.in_flight as f64,
    );
    out.push_gauge(
        "hdhash_chaos_stalled",
        "Messages parked against stalled (crashed) destinations",
        labels,
        m.stalled as f64,
    );
}

/// Appends the tracer's own bookkeeping: how many events were recorded
/// vs. dropped at ring capacity, and the request sampling accounting —
/// the honesty counters that say how complete the trace is.
pub fn export_tracer(out: &mut TelemetrySnapshot, labels: &[(&str, &str)], s: &TracerStats) {
    out.push_counter(
        "hdhash_trace_events_recorded_total",
        "Trace events accepted into the ring",
        labels,
        s.events_recorded,
    );
    out.push_counter(
        "hdhash_trace_events_dropped_total",
        "Trace events dropped because the ring was full",
        labels,
        s.events_dropped,
    );
    out.push_counter(
        "hdhash_trace_requests_sampled_total",
        "Requests that drew a trace id",
        labels,
        s.requests_sampled,
    );
    out.push_counter(
        "hdhash_trace_requests_seen_total",
        "Requests that passed through the sampling decision",
        labels,
        s.requests_seen,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gossip::GossipMetrics;
    use crate::metrics::EngineMetrics;

    fn zero_gossip() -> GossipMetrics {
        GossipMetrics {
            rounds: 3,
            adverts_sent: 6,
            adverts_received: 5,
            divergence_detections: 1,
            divergent_shards: 2,
            syncs_sent: 1,
            syncs_received: 1,
            records_adopted: 4,
            members_joined: 4,
            members_left: 0,
            bytes_sent: 1234,
            bytes_received: 1200,
            send_failures: 0,
            protocol_errors: 0,
            tombstones_expired: 0,
            sync_retries: 2,
            sync_abandoned: 1,
            retry_bytes: 90,
            probes_sent: 0,
            peers_alive: 2,
            peers_suspect: 1,
            peers_dead: 0,
        }
    }

    #[test]
    fn unified_snapshot_covers_every_layer_and_validates() {
        let mut out = TelemetrySnapshot::new();
        let engine = EngineMetrics {
            submitted: 100,
            rejected: 2,
            completed: 98,
            panics_contained: 1,
            queue_depth: 0,
            shards: Vec::new(),
        };
        export_engine(&mut out, &[("replica", "0")], &engine);
        export_gossip(&mut out, &[("replica", "0")], &zero_gossip());
        export_tcp(&mut out, &[("replica", "0")], &TcpStats::default());
        export_chaos(&mut out, &[], &ChaosStats::default());
        export_tracer(
            &mut out,
            &[],
            &TracerStats {
                events_recorded: 10,
                events_dropped: 3,
                requests_sampled: 5,
                requests_seen: 320,
            },
        );
        // The satellite counters the issue calls out must all be present.
        assert_eq!(out.total("hdhash_engine_panics_contained_total"), 1.0);
        assert_eq!(out.total("hdhash_gossip_sync_retries_total"), 2.0);
        assert_eq!(out.total("hdhash_gossip_sync_abandoned_total"), 1.0);
        assert_eq!(out.get("hdhash_tcp_peer_backpressure_drops_total"), Some(0.0));
        assert_eq!(out.total("hdhash_trace_events_dropped_total"), 3.0);
        // And the whole exposition must survive the vendored parser.
        let text = out.to_prometheus();
        let parsed = hdhash_obs::promparse::parse(&text).expect("parses");
        hdhash_obs::promparse::validate(&parsed).expect("validates");
        let bytes = parsed
            .series_named("hdhash_gossip_bytes_sent_total")
            .into_iter()
            .find(|s| s.label("replica") == Some("0"))
            .expect("labeled series present");
        assert_eq!(bytes.value, 1234.0);
    }

    #[test]
    fn shard_histograms_export_with_labels() {
        use crate::metrics::ShardMetricsSnapshot;
        use hdhash_obs::LogHistogram;
        let hist = LogHistogram::new();
        for v in [100, 200, 400, 800] {
            hist.record(v);
        }
        let mut out = TelemetrySnapshot::new();
        let engine = EngineMetrics {
            submitted: 4,
            rejected: 0,
            completed: 4,
            panics_contained: 0,
            queue_depth: 0,
            shards: vec![ShardMetricsSnapshot {
                shard: 7,
                epoch: 3,
                members: 8,
                served: 4,
                failed: 0,
                route_scans: 2,
                batches: 1,
                mean_batch_fill: 4.0,
                latency: None,
                latency_hist: hist.snapshot(),
            }],
        };
        export_engine(&mut out, &[], &engine);
        let snap = out.histogram("hdhash_shard_latency_ns").expect("histogram exported");
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 1500);
        let text = out.to_prometheus();
        assert!(text.contains("hdhash_shard_latency_ns_bucket{shard=\"7\",le=\"+Inf\"} 4"));
        assert!(text.contains("hdhash_shard_route_scans_total{shard=\"7\"} 2"));
        let parsed = hdhash_obs::promparse::parse(&text).expect("parses");
        hdhash_obs::promparse::validate(&parsed).expect("validates");
    }
}
