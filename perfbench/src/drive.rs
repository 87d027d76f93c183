//! The generator: one thread that drives a live `ServeEngine` in open loop
//! (requests sent on a fixed schedule and timed from when each was due),
//! in closed loop (1,024 callers with one request outstanding each), and
//! through membership changes. Every served answer is kept for the oracle.

use std::collections::VecDeque;
use std::ops::Range;
use std::time::{Duration, Instant};

use hdhash_hashfn::SplitMix64;
use hdhash_serve::{ServeEngine, ServeResponse, Ticket};
use hdhash_table::{RequestKey, ServerId};

use crate::oracle::{Answer, Change};
use crate::spans::{Span, Spans};
use crate::stats;

/// How long the generator waits for outstanding responses after a phase's
/// schedule ends before it counts them as timed out.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Windows with fewer completions are not summarised.
const MIN_WINDOW_SAMPLES: u64 = 500;

/// Pause hints the generator spins through after a pass that found no
/// response and sent nothing, so that its polling does not keep taking the
/// response cells' locks the worker needs (~1 µs on the probe host).
const IDLE_SPINS: usize = 16;

fn idle_pause() {
    for _ in 0..IDLE_SPINS {
        std::hint::spin_loop();
    }
}

/// Closed-loop callers in the saturation phase.
const CALLERS: usize = 1024;

/// Length of one measurement window. The probe host's vCPU speed swings by
/// up to ±25% over 0.1–2 s as other tenants contend for it, so phases are
/// cut into windows and each window is summarised on its own.
const WINDOW: Duration = Duration::from_millis(125);

/// Pause between two bursts of membership changes on an idle engine.
const BURST_GAP: Duration = Duration::from_millis(25);

/// A traced phase records the request spans of one request in this many.
const TRACE_SAMPLE: u64 = 128;

/// How often the traced saturation phase samples the queue depth.
const DEPTH_SAMPLE_EVERY: Duration = Duration::from_millis(2);

struct Pending {
    ticket: Ticket,
    due: Instant,
    key: u32,
    root: u32,
    request: u64,
}

/// The counters at one window edge of an open-loop phase.
#[derive(Debug, Clone, Copy)]
struct Mark {
    latencies: usize,
    sends: usize,
    worker_cpu_ns: u64,
    steal_ticks: u64,
    completed: u64,
    /// Whether the window that starts here is traced.
    traced: bool,
}

/// One open-loop window's figures.
#[derive(Debug, Clone, Copy)]
pub struct OpenWindow {
    /// Position of the window in its phase.
    pub index: usize,
    /// Whether the window's requests were traced.
    pub traced: bool,
    /// Whether the host took CPU time from the process during the window.
    pub stolen: bool,
    pub p50_ns: f64,
    pub p90_ns: f64,
    pub cpu_ns_per_req: f64,
    /// The generator's p90 lateness over the window's sends.
    pub late_p90_ns: f64,
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
pub struct OpenPhase {
    /// Due time to observed response, ascending; a refused or timed-out
    /// request reads `u64::MAX`, missing every latency limit.
    pub latency_ns: Vec<u64>,
    /// Send time minus due time, ascending.
    pub late_ns: Vec<u64>,
    /// `ServeResponse::latency` (submit to fill), ascending.
    pub service_ns: Vec<u64>,
    pub completed: u64,
    pub worker_cpu_ns: u64,
    /// Mean jobs per shard group the worker served.
    pub fill: f64,
    pub reconfig_ns: Vec<u64>,
    pub windows: Vec<OpenWindow>,
    pub answers: Range<usize>,
    pub spans_from: usize,
}

/// What one closed-loop saturation phase measured.
#[derive(Debug, Default)]
pub struct SatPhase {
    /// Completions per second in each `WINDOW` after the warm-up fifth.
    pub window_rps: Vec<f64>,
    /// Completions after the warm-up fifth.
    pub completed: u64,
    pub worker_cpu_ns: u64,
    /// CPU time of the generator thread after the warm-up fifth.
    pub generator_cpu_ns: u64,
    pub wall: Duration,
    pub fill: f64,
    pub queue_depth: Vec<u64>,
    pub spans_from: usize,
}

/// The churn schedule: alternately a seeded-random live member leaves and
/// a fresh id joins.
#[derive(Debug)]
pub struct Churn {
    /// Interval between changes during lookup phases; `None` for a
    /// read-only workload.
    pub every: Option<Duration>,
    rng: SplitMix64,
    live: Vec<ServerId>,
    next_id: u64,
    leave_next: bool,
}

impl Churn {
    pub fn new(every: Option<Duration>, servers: u64, seed: u64) -> Self {
        Self {
            every,
            rng: SplitMix64::new(seed ^ 0xC0FF_EE00_C4A2),
            live: (0..servers).map(ServerId::new).collect(),
            next_id: servers,
            leave_next: true,
        }
    }
}

/// Answers in fixed-size chunks, so that recording one on the clock never
/// copies a large buffer to grow it.
#[derive(Debug, Default)]
pub struct AnswerLog {
    chunks: Vec<Vec<Answer>>,
    len: usize,
}

impl AnswerLog {
    const CHUNK: usize = 1 << 16;

    fn push(&mut self, answer: Answer) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < Self::CHUNK => chunk.push(answer),
            _ => {
                let mut chunk = Vec::with_capacity(Self::CHUNK);
                chunk.push(answer);
                self.chunks.push(chunk);
            }
        }
        self.len += 1;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// A copy of the answers at positions `range`.
    pub fn slice(&self, range: Range<usize>) -> Vec<Answer> {
        self.chunks
            .iter()
            .flatten()
            .skip(range.start)
            .take(range.len())
            .copied()
            .collect()
    }

    /// All answers in one buffer, releasing the chunks as it goes.
    pub fn into_vec(self) -> Vec<Answer> {
        let mut all = Vec::with_capacity(self.len);
        for chunk in self.chunks {
            all.extend(chunk);
        }
        all
    }
}

/// Generator state shared by every phase of one run.
pub struct Generator<'a> {
    engine: &'a ServeEngine,
    keys: &'a [RequestKey],
    cursor: usize,
    request: u64,
    pub churn: Churn,
    pub answers: AnswerLog,
    pub log: Vec<Change>,
    pub spans: Spans,
    /// Whether the current phase records spans.
    pub tracing: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Membership changes left untimed because the host took CPU time
    /// during them.
    pub stolen_changes: u64,
}

/// Jobs served and shard groups executed so far, summed over shards.
fn served_and_batches(engine: &ServeEngine) -> (u64, u64) {
    let metrics = engine.metrics();
    metrics
        .shards
        .iter()
        .fold((0, 0), |(s, b), m| (s + m.served, b + m.batches))
}

fn fill_since(engine: &ServeEngine, before: (u64, u64)) -> f64 {
    let after = served_and_batches(engine);
    let batches = after.1 - before.1;
    if batches == 0 {
        0.0
    } else {
        (after.0 - before.0) as f64 / batches as f64
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

impl<'a> Generator<'a> {
    pub fn new(
        engine: &'a ServeEngine,
        keys: &'a [RequestKey],
        first_key: usize,
        churn: Churn,
        log: Vec<Change>,
        spans: Spans,
    ) -> Self {
        Self {
            engine,
            keys,
            cursor: first_key % keys.len(),
            request: 0,
            churn,
            answers: AnswerLog::default(),
            log,
            spans,
            tracing: false,
            attempted: 0,
            failed: 0,
            stolen_changes: 0,
        }
    }

    pub fn engine(&self) -> &'a ServeEngine {
        self.engine
    }

    fn span(&mut self, name: &'static str, start: Instant, end: Instant, parent: u32) -> u32 {
        if !self.tracing {
            return 0;
        }
        let request = self.request;
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
            calls: 1,
        })
    }

    /// Submits the next key of the stream; `None` if the engine refused it
    /// (counted as failed).
    fn submit(&mut self, due: Instant) -> Option<Pending> {
        let key = self.cursor;
        self.cursor = (self.cursor + 1) % self.keys.len();
        self.request += 1;
        self.attempted += 1;
        let sampled = self.request.is_multiple_of(TRACE_SAMPLE);
        let root = if sampled {
            self.span("request", due, due, 0)
        } else {
            0
        };
        let start = Instant::now();
        let result = self.engine.submit(self.keys[key]);
        if root != 0 {
            let end = Instant::now();
            self.span("submit", start, end, root);
        }
        match result {
            Ok(ticket) => Some(Pending {
                ticket,
                due,
                key: key as u32,
                root,
                request: self.request,
            }),
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    /// Polls one ticket; on a response, records the answer and returns it
    /// with the instant it was observed.
    fn reap(&mut self, pending: &Pending) -> Option<(ServeResponse, Instant)> {
        let start = if pending.root != 0 {
            Some(Instant::now())
        } else {
            None
        };
        let response = pending.ticket.try_response()?;
        let observed = Instant::now();
        if let Some(start) = start {
            let request = pending.request;
            self.spans.push(Span {
                name: "try_response",
                start,
                end: observed,
                parent: pending.root,
                request,
                calls: 1,
            });
            self.spans.close(pending.root, observed);
        }
        match response.result {
            Ok(server) => self.answers.push(Answer {
                key: pending.key,
                shard: response.shard as u16,
                epoch: response.epoch as u32,
                server: server.get() as u32,
            }),
            Err(_) => self.failed += 1,
        }
        Some((response, observed))
    }

    /// One membership change: a leave of a seeded-random live member or a
    /// join of a fresh id, alternately. Returns the call's wall time when
    /// the engine accepted it and the host took no CPU time during it.
    pub fn reconfigure(&mut self) -> Option<u64> {
        let churn = &mut self.churn;
        let join = !churn.leave_next || churn.live.len() <= 1;
        churn.leave_next = join;
        let server = if join {
            churn.next_id += 1;
            ServerId::new(churn.next_id - 1)
        } else {
            let victim = (churn.rng.next_u64() % churn.live.len() as u64) as usize;
            churn.live.swap_remove(victim)
        };
        self.attempted += 1;
        let steal_before = stats::steal_ticks();
        let start = Instant::now();
        let result = if join {
            self.engine.join(server)
        } else {
            self.engine.leave(server)
        };
        let end = Instant::now();
        let stolen = stats::steal_ticks() > steal_before;
        self.stolen_changes += u64::from(stolen);
        self.span(if join { "join" } else { "leave" }, start, end, 0);
        match result {
            Ok(receipts) => {
                if join {
                    self.churn.live.push(server);
                }
                self.log.push(Change {
                    join,
                    server,
                    receipts,
                });
                (!stolen).then(|| nanos(end - start))
            }
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    /// Membership changes on an otherwise idle engine, in `bursts` bursts
    /// of `per_burst` back-to-back changes `BURST_GAP` apart; returns each
    /// accepted call's wall time.
    pub fn reconfigure_idle(&mut self, bursts: usize, per_burst: usize) -> Vec<u64> {
        let mut times = Vec::with_capacity(bursts * per_burst);
        for _ in 0..bursts {
            times.extend((0..per_burst).filter_map(|_| self.reconfigure()));
            std::thread::sleep(BURST_GAP);
        }
        times
    }

    /// Open loop at `rate` requests per second for `duration`. Requests
    /// due while the generator was busy (a membership change in flight)
    /// are sent late and still timed from their due time. With
    /// `alternate`, tracing starts off and is switched at every window
    /// edge, so that neighbouring windows differ only in tracing.
    pub fn open_loop(&mut self, rate: f64, duration: Duration, alternate: bool) -> OpenPhase {
        let total = (rate * duration.as_secs_f64()).round() as u64;
        let period_ns = 1e9 / rate;
        let mut phase = OpenPhase {
            latency_ns: Vec::with_capacity(total as usize),
            late_ns: Vec::with_capacity(total as usize),
            service_ns: Vec::with_capacity(total as usize),
            spans_from: self.spans.len(),
            ..OpenPhase::default()
        };
        let answers_from = self.answers.len();
        let mut pending: Vec<Pending> = Vec::with_capacity(4096);
        let counters = served_and_batches(self.engine);
        let cpu_before = stats::other_threads_cpu_ns();
        let start = Instant::now();
        let mut next_change = self.churn.every.map(|every| start + every);
        let deadline = start + duration + DRAIN_TIMEOUT;
        let mut sent = 0u64;
        if alternate {
            self.tracing = false;
        }
        let mut marks = vec![Mark {
            latencies: 0,
            sends: 0,
            worker_cpu_ns: cpu_before,
            steal_ticks: stats::steal_ticks(),
            completed: 0,
            traced: self.tracing,
        }];
        let mut next_mark = start + WINDOW;
        loop {
            let now = Instant::now();
            if now >= next_mark && sent < total {
                if alternate {
                    self.tracing = !self.tracing;
                }
                marks.push(Mark {
                    latencies: phase.latency_ns.len(),
                    sends: phase.late_ns.len(),
                    worker_cpu_ns: stats::other_threads_cpu_ns(),
                    steal_ticks: stats::steal_ticks(),
                    completed: phase.completed,
                    traced: self.tracing,
                });
                next_mark += WINDOW;
            }
            let sent_before = sent;
            while sent < total {
                let due = start + Duration::from_nanos((sent as f64 * period_ns) as u64);
                if due > now {
                    break;
                }
                phase
                    .late_ns
                    .push(nanos(Instant::now().saturating_duration_since(due)));
                match self.submit(due) {
                    Some(p) => pending.push(p),
                    None => phase.latency_ns.push(u64::MAX),
                }
                sent += 1;
            }
            if let Some(at) = next_change {
                if now >= at && sent < total {
                    phase.reconfig_ns.extend(self.reconfigure());
                    next_change = self.churn.every.map(|every| at + every);
                }
            }
            let completed_before = phase.completed;
            let mut i = 0;
            while i < pending.len() {
                if let Some((response, observed)) = self.reap(&pending[i]) {
                    let done = pending.swap_remove(i);
                    phase
                        .latency_ns
                        .push(nanos(observed.saturating_duration_since(done.due)));
                    phase.service_ns.push(nanos(response.latency));
                    phase.completed += 1;
                } else {
                    i += 1;
                }
            }
            if sent == sent_before && phase.completed == completed_before {
                idle_pause();
            }
            if sent == total && pending.is_empty() {
                break;
            }
            if now > deadline {
                self.failed += pending.len() as u64;
                phase.latency_ns.extend(pending.iter().map(|_| u64::MAX));
                break;
            }
        }
        let cpu_after = stats::other_threads_cpu_ns();
        phase.worker_cpu_ns = cpu_after - cpu_before;
        phase.fill = fill_since(self.engine, counters);
        phase.answers = answers_from..self.answers.len();
        if alternate {
            self.tracing = false;
        }
        marks.push(Mark {
            latencies: phase.latency_ns.len(),
            sends: phase.late_ns.len(),
            worker_cpu_ns: cpu_after,
            steal_ticks: stats::steal_ticks(),
            completed: phase.completed,
            traced: false,
        });
        for (index, pair) in marks.windows(2).enumerate() {
            let (a, b) = (pair[0], pair[1]);
            let done = b.completed - a.completed;
            if done < MIN_WINDOW_SAMPLES {
                continue;
            }
            let mut window = phase.latency_ns[a.latencies..b.latencies].to_vec();
            window.sort_unstable();
            let mut late = phase.late_ns[a.sends..b.sends].to_vec();
            late.sort_unstable();
            phase.windows.push(OpenWindow {
                index,
                traced: a.traced,
                stolen: b.steal_ticks > a.steal_ticks,
                p50_ns: stats::quantile(&window, 0.5),
                p90_ns: stats::quantile(&window, 0.9),
                cpu_ns_per_req: (b.worker_cpu_ns - a.worker_cpu_ns) as f64 / done as f64,
                late_p90_ns: stats::quantile(&late, 0.9),
            });
        }
        phase.latency_ns.sort_unstable();
        phase.late_ns.sort_unstable();
        phase.service_ns.sort_unstable();
        phase
    }

    /// Closed loop: `CALLERS` callers, each with one request outstanding,
    /// for `duration`. The first fifth warms up; the rest is cut into
    /// `WINDOW`s, each reporting its completion rate.
    pub fn saturate(&mut self, duration: Duration) -> SatPhase {
        let mut phase = SatPhase {
            spans_from: self.spans.len(),
            ..SatPhase::default()
        };
        let mut ring: VecDeque<Pending> = VecDeque::with_capacity(CALLERS);
        let start = Instant::now();
        for _ in 0..CALLERS {
            ring.extend(self.submit(Instant::now()));
        }
        let warm_end = start + duration / 5;
        let windows = ((duration - duration / 5).as_nanos() / WINDOW.as_nanos()).max(1) as usize;
        let end = warm_end + WINDOW * windows as u32;
        let mut counts = vec![0u64; windows];
        let mut warm: Option<((u64, u64), u64, u64)> = None;
        let mut next_change = self.churn.every.map(|every| start + every);
        let mut next_sample = start;
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            if warm.is_none() && now >= warm_end {
                warm = Some((
                    served_and_batches(self.engine),
                    stats::other_threads_cpu_ns(),
                    stats::generator_cpu_ns(),
                ));
            }
            if let Some(at) = next_change {
                if now >= at {
                    self.reconfigure();
                    next_change = self.churn.every.map(|every| at + every);
                }
            }
            if self.tracing && now >= next_sample {
                phase
                    .queue_depth
                    .push(self.engine.metrics().queue_depth as u64);
                next_sample = now + DEPTH_SAMPLE_EVERY;
            }
            let mut reaped = false;
            while let Some(front) = ring.front() {
                let Some((_, observed)) = self.reap(front) else {
                    break;
                };
                reaped = true;
                ring.pop_front();
                if observed >= warm_end && observed < end {
                    let w = ((observed - warm_end).as_nanos() / WINDOW.as_nanos()) as usize;
                    counts[w.min(windows - 1)] += 1;
                }
                ring.extend(self.submit(observed));
            }
            if !reaped {
                idle_pause();
            }
        }
        let generator_cpu_after = stats::generator_cpu_ns();
        let (counters, cpu_before, generator_cpu_before) = warm.unwrap_or_else(|| {
            (
                served_and_batches(self.engine),
                stats::other_threads_cpu_ns(),
                generator_cpu_after,
            )
        });
        phase.worker_cpu_ns = stats::other_threads_cpu_ns() - cpu_before;
        phase.generator_cpu_ns = generator_cpu_after - generator_cpu_before;
        phase.completed = counts.iter().sum();
        phase.wall = end.saturating_duration_since(warm_end);
        phase.fill = fill_since(self.engine, counters);
        phase.window_rps = counts
            .iter()
            .map(|&c| c as f64 / WINDOW.as_secs_f64())
            .collect();
        // Drain off the clock: every outstanding caller still gets an
        // answer (or counts as timed out).
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while let Some(front) = ring.front() {
            if self.reap(front).is_some() {
                ring.pop_front();
            } else if Instant::now() > deadline {
                self.failed += ring.len() as u64;
                break;
            } else {
                std::hint::spin_loop();
            }
        }
        phase.queue_depth.sort_unstable();
        phase
    }
}
