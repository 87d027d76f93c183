//! Unified telemetry for the hdhash workspace.
//!
//! Every layer of the serving system — the batch engine, the gossip
//! protocol, the TCP transport, and the chaos harness — reports through the
//! types in this crate, so one [`TelemetrySnapshot`] describes the whole
//! process and one exporter grammar covers every series.
//!
//! The crate has three parts:
//!
//! * **Metrics** — each layer keeps its counters as atomic fields of its
//!   own and exports them into a [`TelemetrySnapshot`] (the serving crate's
//!   `telemetry` module does this for the engine, gossip, TCP and chaos
//!   counters). Latencies go to a [`LogHistogram`], an atomic
//!   log2-bucketed design: `record` is a couple of `fetch_add`s and
//!   quantiles come from the bucket counts, so there is no lock and no
//!   sample-buffer clone anywhere near a hot path.
//! * **Tracing** — [`Tracer`] samples request-path [`TraceEvent`]s into a
//!   bounded ring (an `ArrayQueue`, which the offline `crossbeam` shim
//!   guards with a mutex). Overflow is explicit (an `events_dropped`
//!   counter); a full ring drops the event instead of waiting. Drained
//!   events export as JSON Lines or as Chrome trace-event JSON for
//!   flamegraph viewing.
//! * **Exporters** — [`TelemetrySnapshot`] renders to Prometheus text
//!   exposition ([`TelemetrySnapshot::to_prometheus`]) and JSON
//!   ([`TelemetrySnapshot::to_json`]). The [`promparse`] and [`jsonlite`]
//!   modules vendor offline parsers for both formats so CI can validate
//!   exports without network access, in the same spirit as the
//!   `crates/compat` shims.
//!
//! See `docs/OBSERVABILITY.md` for the metric catalog and trace schema.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
pub mod jsonlite;
pub mod promparse;
mod snapshot;
mod trace;

pub use hist::{bucket_index, bucket_upper_inclusive, HistogramSnapshot, LogHistogram, BUCKETS};
pub use snapshot::{MetricKind, MetricSample, MetricValue, TelemetrySnapshot};
pub use trace::{
    chrome_trace, jsonl, SpanKind, TraceConfig, TraceEvent, Tracer, TracerStats,
};
