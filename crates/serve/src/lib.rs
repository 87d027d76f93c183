//! # hdhash-serve — the batch-coalescing HD-hash serving layer
//!
//! The paper pitches the HD hash table as a dynamic hash table for
//! datacenter-scale request routing; everything below this crate is
//! single-caller, synchronous library code. `hdhash-serve` is the front
//! end that puts the workspace's performance layers — the HD scan over
//! the runtime-dispatched SIMD distance kernels, the per-epoch route
//! tables in front of it, and the one epoch-published routing table —
//! under real concurrent traffic:
//!
//! ```text
//!  generator ──► request queue ──► coalescing workers ──► table ──► metrics
//!  (emulator)    (bounded FIFO;    (pick up to B jobs,    (one       (depth,
//!   clients ──►   rejects at        one snapshot per       epoch      fill,
//!   submit())     capacity)         batch)                 snapshot)  p50/p99)
//!   wait ◄────────────────────────
//! ```
//!
//! * **One request path** — `submit` pushes onto a bounded FIFO queue
//!   under the same lock idle workers wait on; a worker takes up to 64
//!   jobs per pickup, and each
//!   [`Ticket`] resolves through a one-shot completion cell.
//! * **Batch coalescing** — each batch is served against one epoch
//!   snapshot of the table.
//! * **Per-epoch route tables** — `Enc` factors through the codebook
//!   slot, so a snapshot caches its routing function: one atomic route
//!   entry per slot, filled by the epoch's first lookup of the slot with
//!   the verdict of the HD scan (`HdHashTable::lookup_slot`). Later
//!   lookups of the slot read the entry. Every change starts the next
//!   epoch's table cold. See [`ShardSnapshot`] and
//!   [`ShardSnapshot::scrub_routes`].
//! * **Tickets** — [`Ticket`] resolves by blocking
//!   [`wait`](Ticket::wait), bounded
//!   [`wait_timeout`](Ticket::wait_timeout), or non-blocking
//!   [`try_response`](Ticket::try_response).
//! * **Epoch-based reconfiguration** — the engine holds one table, inside
//!   its published snapshot. A join or leave clones that table, applies
//!   itself to the clone, and publishes the clone as an immutable
//!   snapshot behind an `Arc` pointer-swap; a failed change publishes
//!   nothing. Readers clone the `Arc` and never wait on the
//!   reconfiguration work; every response reports the epoch it was served
//!   at.
//! * **Backpressure + metrics** — the bounded queue rejects at capacity
//!   (the caller sees [`ServeError::QueueFull`]), and the table's counters
//!   plus a lock-free [`LogHistogram`](hdhash_obs::LogHistogram) of
//!   latencies feed
//!   [`LatencyProfile`](hdhash_emulator::LatencyProfile)-based p50/p99
//!   snapshots.
//! * **Replica anti-entropy** — 2+ engines form a replica set:
//!   [`gossip`] nodes periodically advert one membership *digest* (16
//!   bytes, an exact additive multiset hash of the member ids) over a
//!   pluggable [`transport`], detect divergence by comparing it, and
//!   reconcile only diverged state through a
//!   last-writer-wins record exchange ([`replication`])
//!   applied via the same clone → epoch-publish path — replicas
//!   converge while readers keep streaming. Rounds advert to
//!   `min(fanout, peers)` deterministically selected peers, and a
//!   seen-through watermark exchange expires tombstones the whole peer
//!   set has acknowledged.
//! * **Failure model** — [`chaos`] decorates the transport with a
//!   seeded, scriptable fault plan (per-link drops, bounded delay,
//!   duplication, reordering, asymmetric partitions, crash/restart
//!   windows); the gossip layer answers with a heartbeat failure
//!   detector (per-peer [`PeerHealth`] steering fanout away from dead
//!   peers) and bounded jittered-backoff retry for in-flight sync
//!   exchanges — the chaos suite pins convergence-after-heal and
//!   no-resurrection under up to 50% loss.
//! * **Socket-native cluster** — [`wire`] frames every
//!   [`GossipMessage`] with a magic/version/CRC32 header (encoded length
//!   equals `wire_size`, property-tested), and [`tcp`] runs the same
//!   gossip over real loopback TCP: per-peer supervised writer threads
//!   with jittered exponential-backoff reconnect, read/write deadlines,
//!   partial/garbage-frame connection drops, and bounded drop-oldest
//!   outboxes for slow peers. The `hdhash-cli cluster` mode and
//!   `tests/cluster.rs` run ≥3 replica *processes* that reconverge to
//!   identical digests after a real SIGKILL + restart.
//!
//! ## Quick example
//!
//! ```
//! use hdhash_serve::{ServeConfig, ServeEngine};
//! use hdhash_table::{RequestKey, ServerId};
//!
//! let config = ServeConfig {
//!     workers: 2,
//!     dimension: 2048,
//!     codebook_size: 64,
//!     ..ServeConfig::default()
//! };
//! let mut engine = ServeEngine::new(config)?;
//! for id in 0..8 {
//!     engine.join(ServerId::new(id))?;
//! }
//! let ticket = engine.submit(RequestKey::new(42))?;
//! let response = ticket.wait();
//! assert!(response.result.is_ok());
//! assert!(response.epoch >= 1, "served from a published epoch");
//! engine.shutdown();
//! # Ok::<(), hdhash_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod config;
pub mod engine;
pub mod gossip;
pub mod load;
pub mod metrics;
pub mod replication;
pub mod request;
pub mod scenario;
pub mod shard;
pub mod tcp;
pub mod telemetry;
pub mod transport;
pub mod wire;

pub use chaos::{ChaosEndpoint, ChaosNetwork, ChaosStats, FaultPlan, LinkFaults};
pub use config::ServeConfig;
pub use engine::ServeEngine;
pub use gossip::{GossipConfig, GossipMessage, GossipMetrics, GossipNode, PeerHealth};
pub use load::{drive, LoadReport};
pub use metrics::{EngineMetrics, ShardMetricsSnapshot};
pub use replication::{MemberRecord, MembershipLog, ReplicatedEngine};
pub use request::{ServeResponse, Ticket};
pub use scenario::{
    ChurnShape, CrashSpec, PhaseMetrics, Scenario, ScenarioConfig, ScenarioReport,
};
pub use shard::{ShardReceipt, ShardSnapshot};
pub use tcp::{TcpConfig, TcpEndpoint, TcpNetwork, TcpStats};
pub use transport::{InProcessNetwork, ReplicaId, Transport, TransportError};
pub use wire::{FrameError, FRAME_OVERHEAD};

// Telemetry surface: the tracing/export types callers wire through
// [`ServeConfig::trace`] and the unified snapshot exporters live in
// [`hdhash_obs`]; re-export the common ones so downstream code only
// needs this crate.
pub use hdhash_obs::{
    SpanKind, TelemetrySnapshot, TraceConfig, TraceEvent, Tracer, TracerStats,
};

use hdhash_table::TableError;

/// Errors surfaced by the serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The configuration failed validation (message names the field).
    InvalidConfig(String),
    /// The request queue is at capacity — backpressure; retry after
    /// draining or shed the request.
    QueueFull,
    /// The engine has begun shutting down and accepts no new requests.
    ShuttingDown,
    /// A membership operation failed on the underlying table.
    Table(TableError),
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeError::InvalidConfig(msg) => write!(f, "invalid serve config: {msg}"),
            ServeError::QueueFull => write!(f, "request queue at capacity"),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::Table(e) => write!(f, "table operation failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<TableError> for ServeError {
    fn from(e: TableError) -> Self {
        ServeError::Table(e)
    }
}
