//! Request-path tracing: a bounded ring of structured span events, sampled
//! at a configurable rate. The ring is a `crossbeam::queue::ArrayQueue`;
//! the offline `crossbeam` shim implements it as a mutex-guarded
//! `VecDeque`, so each push and each pop takes one short lock.
//!
//! The ring never waits for room on a hot path: when it is full, new
//! events are counted in `events_dropped` and discarded whole — an event
//! is either entirely present or entirely absent, never torn. Drained
//! events export as JSON Lines ([`jsonl`]) or Chrome trace-event JSON
//! ([`chrome_trace`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crossbeam::queue::ArrayQueue;

/// Sampling and capacity knobs for a [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. Disabled tracing costs one branch per submit.
    pub enabled: bool,
    /// Sample one request in every `sample_every` submissions (1 = every
    /// request). Lifecycle events (connections, gossip rounds) are not
    /// request-scoped and are recorded whenever tracing is enabled.
    pub sample_every: u32,
    /// Ring capacity in events; overflow increments `events_dropped`.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { enabled: false, sample_every: 64, ring_capacity: 4096 }
    }
}

impl TraceConfig {
    /// Tracing off (the default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Tracing on at the given sampling rate, default ring capacity.
    pub fn sampled(sample_every: u32) -> Self {
        Self { enabled: true, sample_every: sample_every.max(1), ..Self::default() }
    }
}

/// What a [`TraceEvent`] describes. Each variant documents how the event's
/// `lane` / `subject` / `amount` fields are used (unused fields are 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A request entered the engine.
    Submit,
    /// A worker popped a batch. `lane` = worker, `subject` = batch length,
    /// `amount` = queue-wait µs of the first sampled job in the batch.
    Pickup,
    /// A batch executed against the table. Span: `dur_micros` covers the
    /// lookups. `lane` = worker, `amount` = batch length.
    BatchExec,
    /// A sampled request's ticket was filled. `lane` = worker,
    /// `amount` = total submit→fill latency in µs.
    ResponseFill,
    /// One gossip tick ran. Span: `dur_micros` covers the round.
    /// `lane` = replica, `subject` = round number, `amount` = peers
    /// targeted.
    GossipRound,
    /// A sync request was issued. `lane` = replica, `subject` = peer.
    SyncStart,
    /// An expired sync was retransmitted. `lane` = replica,
    /// `subject` = peer, `amount` = attempt number.
    SyncRetry,
    /// A sync response was applied. `lane` = replica, `subject` = peer.
    SyncComplete,
    /// A sync exhausted its retry budget. `lane` = replica,
    /// `subject` = peer, `amount` = attempts spent.
    SyncAbandon,
    /// A fresh outbound connection was established. `lane` = local
    /// replica, `subject` = peer.
    TcpConnect,
    /// An outbound connection was re-established after failure.
    /// `lane` = local replica, `subject` = peer, `amount` = attempt.
    TcpReconnect,
    /// A connection was condemned on a bad frame. `lane` = local replica,
    /// `subject` = peer, `amount` = 0 for a partial frame, 1 for a corrupt
    /// (CRC/garbage) frame.
    TcpCondemn,
    /// An inbound connection was accepted. `lane` = local replica.
    TcpAccept,
}

impl SpanKind {
    /// Every kind, for exhaustive iteration in tests and validators.
    pub const ALL: [SpanKind; 13] = [
        SpanKind::Submit,
        SpanKind::Pickup,
        SpanKind::BatchExec,
        SpanKind::ResponseFill,
        SpanKind::GossipRound,
        SpanKind::SyncStart,
        SpanKind::SyncRetry,
        SpanKind::SyncComplete,
        SpanKind::SyncAbandon,
        SpanKind::TcpConnect,
        SpanKind::TcpReconnect,
        SpanKind::TcpCondemn,
        SpanKind::TcpAccept,
    ];

    /// Stable wire name, used in both JSONL and Chrome exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Submit => "submit",
            SpanKind::Pickup => "pickup",
            SpanKind::BatchExec => "batch_exec",
            SpanKind::ResponseFill => "response_fill",
            SpanKind::GossipRound => "gossip_round",
            SpanKind::SyncStart => "sync_start",
            SpanKind::SyncRetry => "sync_retry",
            SpanKind::SyncComplete => "sync_complete",
            SpanKind::SyncAbandon => "sync_abandon",
            SpanKind::TcpConnect => "tcp_connect",
            SpanKind::TcpReconnect => "tcp_reconnect",
            SpanKind::TcpCondemn => "tcp_condemn",
            SpanKind::TcpAccept => "tcp_accept",
        }
    }

    /// Inverse of [`SpanKind::name`].
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// One structured trace event. Plain data, `Copy`, moved into and out of
/// the ring whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds since the tracer's epoch (its construction instant).
    pub ts_micros: u64,
    /// Span duration in microseconds (0 for instant events).
    pub dur_micros: u64,
    /// What happened.
    pub kind: SpanKind,
    /// Nonzero id linking events of one sampled request; 0 for lifecycle
    /// events not tied to a request.
    pub trace_id: u64,
    /// Worker / replica lane (see the [`SpanKind`] variant docs).
    pub lane: u32,
    /// Kind-specific subject (peer, victim, round, batch length — see
    /// variants).
    pub subject: u64,
    /// Kind-specific magnitude (latency µs, jobs moved, attempt number).
    pub amount: u64,
}

/// Monotone counters describing a tracer's activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TracerStats {
    /// Events successfully pushed into the ring (drained or still queued).
    pub events_recorded: u64,
    /// Events discarded because the ring was full.
    pub events_dropped: u64,
    /// Requests given a trace id by [`Tracer::sample`].
    pub requests_sampled: u64,
    /// Total requests offered to the sampler.
    pub requests_seen: u64,
}

/// A sampling trace collector over a bounded ring.
///
/// ```
/// use hdhash_obs::{SpanKind, TraceConfig, Tracer};
/// let t = Tracer::new(TraceConfig::sampled(1));
/// let id = t.sample().expect("1-in-1 sampling");
/// t.record(SpanKind::Submit, id, 0, 2, 0);
/// let events = t.drain();
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].kind, SpanKind::Submit);
/// assert_eq!(events[0].trace_id, id);
/// ```
#[derive(Debug)]
pub struct Tracer {
    config: TraceConfig,
    epoch: Instant,
    ring: ArrayQueue<TraceEvent>,
    recorded: AtomicU64,
    dropped: AtomicU64,
    sampled: AtomicU64,
    seen: AtomicU64,
    next_id: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Tracer {
    /// A tracer with the given configuration.
    pub fn new(config: TraceConfig) -> Self {
        Self {
            config,
            epoch: Instant::now(),
            // A zero-capacity ring is meaningless (ArrayQueue rejects it);
            // a disabled tracer still allocates one slot it never uses.
            ring: ArrayQueue::new(config.ring_capacity.max(1)),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
            seen: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
        }
    }

    /// A permanently-off tracer; every call is a cheap no-op.
    pub fn disabled() -> Self {
        Self::new(TraceConfig::disabled())
    }

    /// The configuration this tracer was built with.
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// Whether any event can ever be recorded.
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// The instant `ts_micros` values are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Sampling decision for a new request: `None` to leave it untraced,
    /// or a fresh nonzero trace id. One fetch_add when disabled-checking
    /// passes; zero work when tracing is off.
    pub fn sample(&self) -> Option<u64> {
        if !self.config.enabled {
            return None;
        }
        let seq = self.seen.fetch_add(1, Ordering::Relaxed);
        if self.config.sample_every > 1 && !seq.is_multiple_of(u64::from(self.config.sample_every)) {
            return None;
        }
        self.sampled.fetch_add(1, Ordering::Relaxed);
        Some(self.next_id.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Record an instant event (duration 0) stamped now.
    pub fn record(&self, kind: SpanKind, trace_id: u64, lane: u32, subject: u64, amount: u64) {
        if !self.config.enabled {
            return;
        }
        let ts = self.epoch.elapsed().as_micros() as u64;
        self.push(TraceEvent { ts_micros: ts, dur_micros: 0, kind, trace_id, lane, subject, amount });
    }

    /// Record a span that started at `started` and ends now.
    pub fn record_span(
        &self,
        kind: SpanKind,
        trace_id: u64,
        lane: u32,
        subject: u64,
        amount: u64,
        started: Instant,
    ) {
        if !self.config.enabled {
            return;
        }
        let ts = started.saturating_duration_since(self.epoch).as_micros() as u64;
        let dur = started.elapsed().as_micros() as u64;
        self.push(TraceEvent { ts_micros: ts, dur_micros: dur, kind, trace_id, lane, subject, amount });
    }

    fn push(&self, event: TraceEvent) {
        if self.ring.push(event).is_ok() {
            self.recorded.fetch_add(1, Ordering::Relaxed);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Pop every currently-queued event, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.ring.len());
        while let Some(ev) = self.ring.pop() {
            out.push(ev);
        }
        out
    }

    /// Events currently waiting in the ring.
    pub fn pending(&self) -> usize {
        self.ring.len()
    }

    /// Activity counters (recorded, dropped, sampled, seen).
    pub fn stats(&self) -> TracerStats {
        TracerStats {
            events_recorded: self.recorded.load(Ordering::Relaxed),
            events_dropped: self.dropped.load(Ordering::Relaxed),
            requests_sampled: self.sampled.load(Ordering::Relaxed),
            requests_seen: self.seen.load(Ordering::Relaxed),
        }
    }
}

/// Render events as JSON Lines: one self-contained JSON object per line.
pub fn jsonl(events: &[TraceEvent]) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        writeln!(
            out,
            "{{\"ts_us\":{},\"dur_us\":{},\"kind\":\"{}\",\"trace_id\":{},\"lane\":{},\"subject\":{},\"amount\":{}}}",
            ev.ts_micros, ev.dur_micros, ev.kind.name(), ev.trace_id, ev.lane, ev.subject, ev.amount,
        )
        .expect("write to String");
    }
    out
}

/// Render events as a Chrome trace-event JSON array (load it in
/// `chrome://tracing` or Perfetto). Spans become `ph: "X"` complete events;
/// the lane maps to the thread id so each worker/replica gets a row.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(events.len() * 128 + 2);
    out.push('[');
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
             \"args\":{{\"trace_id\":{},\"subject\":{},\"amount\":{}}}}}",
            ev.kind.name(), ev.lane, ev.ts_micros, ev.dur_micros,
            ev.trace_id, ev.subject, ev.amount,
        )
        .expect("write to String");
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert_eq!(t.sample(), None);
        t.record(SpanKind::Submit, 1, 0, 0, 0);
        t.record_span(SpanKind::BatchExec, 1, 0, 0, 0, Instant::now());
        assert_eq!(t.drain().len(), 0);
        assert_eq!(t.stats(), TracerStats::default());
    }

    #[test]
    fn sampling_rate_is_honored() {
        let t = Tracer::new(TraceConfig::sampled(4));
        let ids: Vec<_> = (0..100).map(|_| t.sample()).collect();
        let hits: Vec<u64> = ids.iter().flatten().copied().collect();
        assert_eq!(hits.len(), 25, "1 in 4 of 100");
        // Ids are distinct and nonzero.
        assert!(hits.iter().all(|&id| id != 0));
        let unique: std::collections::BTreeSet<_> = hits.iter().collect();
        assert_eq!(unique.len(), hits.len());
        let stats = t.stats();
        assert_eq!(stats.requests_seen, 100);
        assert_eq!(stats.requests_sampled, 25);
    }

    #[test]
    fn overflow_accounting_is_exact() {
        let config = TraceConfig { enabled: true, sample_every: 1, ring_capacity: 8 };
        let t = Tracer::new(config);
        for i in 0..30u64 {
            t.record(SpanKind::Submit, i + 1, 0, i, 0);
        }
        let stats = t.stats();
        assert_eq!(stats.events_recorded, 8);
        assert_eq!(stats.events_dropped, 22);
        let drained = t.drain();
        assert_eq!(drained.len(), 8);
        // Oldest events survive (drop-newest ring): ids 1..=8 in order.
        for (i, ev) in drained.iter().enumerate() {
            assert_eq!(ev.trace_id, i as u64 + 1);
        }
        // Drained + dropped == offered.
        assert_eq!(stats.events_recorded + stats.events_dropped, 30);
    }

    /// Multithreaded overfill: every drained event is internally consistent
    /// (all fields derived from the same id), and recorded + dropped
    /// exactly equals the number of pushes attempted.
    #[test]
    fn overflow_under_contention_never_tears_events() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 5_000;
        let config = TraceConfig { enabled: true, sample_every: 1, ring_capacity: 64 };
        let t = Arc::new(Tracer::new(config));
        let workers: Vec<_> = (0..THREADS)
            .map(|w| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let id = w * PER_THREAD + i + 1;
                        // Every field is a fixed function of the id; a torn
                        // event would break the invariant.
                        t.record(SpanKind::Submit, id, (id % 7) as u32, id * 3, id ^ 0xABCD);
                    }
                })
            })
            .collect();
        // Concurrent drainer, racing the producers.
        let drainer = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                for _ in 0..200 {
                    seen.extend(t.drain());
                    std::thread::yield_now();
                }
                seen
            })
        };
        for w in workers {
            w.join().unwrap();
        }
        let mut events = drainer.join().unwrap();
        events.extend(t.drain());
        for ev in &events {
            let id = ev.trace_id;
            assert_eq!(ev.lane, (id % 7) as u32, "torn lane for id {id}");
            assert_eq!(ev.subject, id * 3, "torn subject for id {id}");
            assert_eq!(ev.amount, id ^ 0xABCD, "torn amount for id {id}");
        }
        let stats = t.stats();
        assert_eq!(stats.events_recorded + stats.events_dropped, THREADS * PER_THREAD);
        assert_eq!(events.len() as u64, stats.events_recorded);
        assert!(stats.events_dropped > 0, "test must actually overflow");
    }

    #[test]
    fn span_kinds_roundtrip_names() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(SpanKind::parse("bogus"), None);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let t = Tracer::new(TraceConfig::sampled(1));
        let id = t.sample().unwrap();
        t.record(SpanKind::Submit, id, 0, 3, 0);
        t.record_span(SpanKind::BatchExec, id, 2, 3, 5, Instant::now());
        let text = jsonl(&t.drain());
        let mut kinds = Vec::new();
        for line in text.lines() {
            let v = crate::jsonlite::parse(line).expect("line parses");
            let kind = v.get("kind").and_then(|k| k.as_str()).expect("kind field");
            assert!(SpanKind::parse(kind).is_some(), "unknown kind {kind}");
            kinds.push(kind.to_string());
            assert!(v.get("ts_us").and_then(|x| x.as_f64()).is_some());
            assert!(v.get("trace_id").and_then(|x| x.as_f64()).is_some());
        }
        assert_eq!(kinds, ["submit", "batch_exec"]);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let t = Tracer::new(TraceConfig::sampled(1));
        let id = t.sample().unwrap();
        t.record_span(SpanKind::GossipRound, id, 1, 9, 2, Instant::now());
        let text = chrome_trace(&t.drain());
        let v = crate::jsonlite::parse(&text).expect("chrome trace parses");
        let arr = v.as_arr().expect("top-level array");
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("ph").and_then(|x| x.as_str()), Some("X"));
        assert_eq!(arr[0].get("name").and_then(|x| x.as_str()), Some("gossip_round"));
        assert_eq!(chrome_trace(&[]), "[]");
    }
}
