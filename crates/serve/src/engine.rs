//! The serving engine: one bounded request queue, coalescing workers, one
//! published routing table.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use hdhash_core::HdHashTable;
use hdhash_obs::{SpanKind, Tracer};
use hdhash_table::{DynamicHashTable, RequestKey, ServerId, TableError};

use crate::config::ServeConfig;
use crate::metrics::{EngineMetrics, ShardMetrics};
use crate::request::{LookupJob, ServeResponse, Ticket};
use crate::shard::{Shard, ShardReceipt, ShardSnapshot};
use crate::ServeError;

/// The shared state workers and clients operate on.
#[derive(Debug)]
pub(crate) struct EngineCore {
    config: ServeConfig,
    /// Accepted jobs awaiting a worker, FIFO, bounded at
    /// [`ServeConfig::queue_capacity`] — the backpressure surface. Idle
    /// workers wait on `ready` under this lock. The lock also brackets
    /// the submit/shutdown race: the shutdown flag flips and every
    /// successful push happens under it, so a submission is either
    /// rejected with [`ServeError::ShuttingDown`] or guaranteed to be
    /// served.
    queue: Mutex<VecDeque<LookupJob>>,
    ready: Condvar,
    /// The routing table every worker reads and every change publishes.
    shard: Shard,
    metrics: ShardMetrics,
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    /// Worker panics caught and contained (batches backfilled with
    /// [`TableError::WorkerPanicked`] instead of hanging their tickets).
    panics_contained: AtomicU64,
    /// Fast-path flag for the fault-injection hook: workers only take the
    /// `panic_key` lock while a test has armed an injection.
    panic_armed: AtomicBool,
    /// The key whose batch the next serving worker panics on — the chaos
    /// test hook behind [`ServeEngine::inject_worker_panic`].
    panic_key: Mutex<Option<RequestKey>>,
    shutdown: AtomicBool,
    /// Request-path trace collector (per [`ServeConfig::trace`]; a cheap
    /// no-op when tracing is disabled).
    tracer: Arc<Tracer>,
}

impl EngineCore {
    fn new(config: ServeConfig) -> Result<Self, ServeError> {
        config.validate()?;
        let table = HdHashTable::builder()
            .dimension(config.dimension)
            .codebook_size(config.codebook_size)
            .seed(config.seed)
            .build()
            .map_err(|e| ServeError::InvalidConfig(e.to_string()))?;
        Ok(Self {
            tracer: Arc::new(Tracer::new(config.trace)),
            queue: Mutex::new(VecDeque::with_capacity(config.queue_capacity)),
            ready: Condvar::new(),
            shard: Shard::new(table),
            metrics: ShardMetrics::default(),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            panics_contained: AtomicU64::new(0),
            panic_armed: AtomicBool::new(false),
            panic_key: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            config,
        })
    }

    fn submit(&self, key: RequestKey) -> Result<Ticket, ServeError> {
        let (mut job, ticket) = LookupJob::new(key);
        job.trace_id = self.tracer.sample();
        if let Some(id) = job.trace_id {
            self.tracer.record(SpanKind::Submit, id, 0, 0, 0);
        }
        {
            let mut queue = self.queue.lock();
            if self.shutdown.load(Ordering::Acquire) {
                return Err(ServeError::ShuttingDown);
            }
            if queue.len() >= self.config.queue_capacity {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::QueueFull);
            }
            queue.push_back(job);
            self.ready.notify_one();
        }
        self.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(ticket)
    }

    /// Moves up to `batch_capacity` jobs, oldest first, into `batch`,
    /// waiting on `ready` while the queue is empty. Returns `false`
    /// instead once shutdown has begun and the queue is empty.
    ///
    /// No wakeup is lost: the emptiness check and the wait happen under
    /// the queue lock, and every push and the shutdown flip notify under
    /// that same lock.
    fn take_batch(&self, batch: &mut Vec<LookupJob>) -> bool {
        let mut queue = self.queue.lock();
        while queue.is_empty() {
            if self.shutdown.load(Ordering::Acquire) {
                return false;
            }
            self.ready.wait(&mut queue);
        }
        let take = queue.len().min(self.config.batch_capacity);
        batch.extend(queue.drain(..take));
        true
    }

    /// The worker loop: serves each batch
    /// [`take_batch`](Self::take_batch) hands over as one coalesced unit,
    /// and returns when `take_batch` reports shutdown.
    ///
    /// Panic containment: batch execution runs under `catch_unwind`, so a
    /// panicking lookup (or the injection hook) costs one batch — its
    /// pending tickets are backfilled with an error response — and the
    /// worker loops back for the next pickup instead of dying and silently
    /// shrinking the pool. `AssertUnwindSafe` is sound here: the only
    /// state crossing the boundary is the batch (fully backfilled and
    /// cleared by containment), the scratch vectors (cleared before
    /// reuse), and the engine core, whose shared state is lock-protected
    /// with poison-recovering mutexes.
    fn worker_loop(&self, worker: usize) {
        let mut batch: Vec<LookupJob> = Vec::with_capacity(self.config.batch_capacity);
        let mut latencies = Vec::new();
        while self.take_batch(&mut batch) {
            if self.tracer.is_enabled() {
                if let Some(sampled) = batch.iter().find(|job| job.trace_id.is_some()) {
                    self.tracer.record(
                        SpanKind::Pickup,
                        sampled.trace_id.unwrap_or(0),
                        worker as u32,
                        batch.len() as u64,
                        sampled.enqueued.elapsed().as_micros() as u64,
                    );
                }
            }
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.serve_batch(worker, &mut batch, &mut latencies);
            }));
            if outcome.is_err() {
                self.contain_panic(&mut batch);
            }
        }
    }

    /// Serves one coalesced batch against one epoch snapshot: every job is
    /// resolved through that snapshot's route table ([`ShardSnapshot`]).
    /// `latencies` is caller-owned scratch, reused across batches. A batch
    /// allocates nothing else on its own: a route hit is a slot hash and
    /// an array read, and a miss runs the serial HD scan, which allocates
    /// nothing. The only allocation is the route table itself (one word
    /// per codebook slot), made by the epoch's first lookup.
    fn serve_batch(
        &self,
        worker: usize,
        batch: &mut Vec<LookupJob>,
        latencies: &mut Vec<Duration>,
    ) {
        self.maybe_inject_panic(batch);
        // Trace work is gated on the batch actually containing a sampled
        // job, so at production sampling rates most batches pay one `any`
        // scan over a short slice and nothing else (and with tracing
        // disabled, one branch).
        let traced = self.tracer.is_enabled() && batch.iter().any(|job| job.trace_id.is_some());
        let started = if traced { Some(Instant::now()) } else { None };
        // One snapshot per batch: every response in it is computed against
        // a single consistent epoch.
        let snapshot = self.shard.load();
        latencies.clear();
        let (mut failures, mut scans) = (0, 0);
        for job in batch.iter() {
            let (result, scanned) = snapshot.route(job.key);
            scans += usize::from(scanned);
            if result.is_err() {
                failures += 1;
            }
            let latency = job.enqueued.elapsed();
            latencies.push(latency);
            job.cell.fill(ServeResponse { result, shard: 0, epoch: snapshot.epoch, latency });
            if let Some(id) = job.trace_id {
                self.tracer.record(
                    SpanKind::ResponseFill,
                    id,
                    worker as u32,
                    0,
                    latency.as_micros() as u64,
                );
            }
        }
        if let Some(started) = started {
            let id = batch.iter().find_map(|job| job.trace_id).unwrap_or(0);
            self.tracer.record_span(
                SpanKind::BatchExec,
                id,
                worker as u32,
                0,
                batch.len() as u64,
                started,
            );
        }
        self.metrics.record_batch(batch.len(), failures, scans, latencies);
        self.completed.fetch_add(batch.len() as u64, Ordering::Relaxed);
        batch.clear();
    }

    /// The fault-injection hook: panics before the batch is served when a
    /// test armed one of its keys via
    /// [`ServeEngine::inject_worker_panic`]. Firing disarms the hook, so
    /// exactly one panic is injected per arm. Panicking *before* any cell
    /// fill keeps the completion accounting exact — containment backfills
    /// (and counts) every job of the abandoned batch.
    fn maybe_inject_panic(&self, jobs: &[LookupJob]) {
        if !self.panic_armed.load(Ordering::Acquire) {
            return;
        }
        let mut armed = self.panic_key.lock();
        if let Some(key) = *armed {
            if jobs.iter().any(|job| job.key == key) {
                *armed = None;
                self.panic_armed.store(false, Ordering::Release);
                drop(armed);
                panic!("injected worker panic on {key:?}");
            }
        }
    }

    /// Panic containment: backfills every still-pending ticket of an
    /// abandoned batch with [`TableError::WorkerPanicked`], so a panicking
    /// lookup costs its batch an error response instead of hung clients.
    /// Cells the worker already filled are left untouched.
    fn contain_panic(&self, batch: &mut Vec<LookupJob>) {
        let mut backfilled = 0u64;
        for job in batch.iter() {
            let filled = job.cell.fill_if_pending(ServeResponse {
                result: Err(TableError::WorkerPanicked),
                // No snapshot produced this verdict; report the currently
                // published epoch for diagnostics.
                shard: 0,
                epoch: self.shard.load().epoch,
                latency: job.enqueued.elapsed(),
            });
            if filled {
                backfilled += 1;
            }
        }
        self.completed.fetch_add(backfilled, Ordering::Relaxed);
        self.panics_contained.fetch_add(1, Ordering::Relaxed);
        batch.clear();
    }
}

/// The batch-coalescing serving engine over one published routing table.
///
/// See the [crate docs](crate) for the architecture. Construction spawns
/// the worker threads; [`shutdown`](Self::shutdown) (or `Drop`) stops
/// them, serving every already-accepted request before returning.
///
/// # Examples
///
/// ```
/// use hdhash_serve::{ServeConfig, ServeEngine};
/// use hdhash_table::{RequestKey, ServerId};
///
/// let mut engine = ServeEngine::new(ServeConfig {
///     workers: 1,
///     dimension: 2048,
///     codebook_size: 64,
///     ..ServeConfig::default()
/// })?;
/// for id in 0..4 {
///     engine.join(ServerId::new(id))?;
/// }
/// let response = engine.submit(RequestKey::new(7))?.wait();
/// let server = response.result.expect("pool is non-empty");
/// assert!(engine.snapshots()[0].contains(server));
/// engine.shutdown();
/// # Ok::<(), hdhash_serve::ServeError>(())
/// ```
#[derive(Debug)]
pub struct ServeEngine {
    core: Arc<EngineCore>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServeEngine {
    /// Builds the table and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a rejected configuration.
    pub fn new(config: ServeConfig) -> Result<Self, ServeError> {
        let core = Arc::new(EngineCore::new(config)?);
        let workers = (0..config.workers)
            .map(|w| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("hdhash-serve-{w}"))
                    .spawn(move || core.worker_loop(w))
                    .expect("spawn serve worker")
            })
            .collect();
        Ok(Self { core, workers })
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.core.config
    }

    /// Submits a lookup. Returns a [`Ticket`] redeemable for the
    /// response, or rejects with [`ServeError::QueueFull`] (backpressure)
    /// or [`ServeError::ShuttingDown`].
    ///
    /// # Errors
    ///
    /// See above; no other failure modes.
    pub fn submit(&self, key: RequestKey) -> Result<Ticket, ServeError> {
        self.core.submit(key)
    }

    /// Joins `server` through the epoch path. The one receipt comes in a
    /// vector because the `perfbench/` benchmark, which is kept unchanged
    /// between versions, indexes it.
    ///
    /// # Errors
    ///
    /// The table's refusal (e.g. [`TableError::ServerAlreadyPresent`]); a
    /// refused join publishes nothing.
    pub fn join(&self, server: ServerId) -> Result<Vec<ShardReceipt>, ServeError> {
        Ok(vec![self.core.shard.reconfigure(|table| table.join(server))?])
    }

    /// Removes `server` through the epoch path; the receipt comes as in
    /// [`join`](Self::join).
    ///
    /// # Errors
    ///
    /// [`TableError::ServerNotFound`]; a refused leave publishes nothing.
    pub fn leave(&self, server: ServerId) -> Result<Vec<ShardReceipt>, ServeError> {
        Ok(vec![self.core.shard.reconfigure(|table| table.leave(server))?])
    }

    /// The currently published snapshot (epoch, members), as the only
    /// entry — a cheap `Arc` clone. A vector because the `perfbench/`
    /// benchmark, which is kept unchanged between versions, reads it as
    /// one.
    #[must_use]
    pub fn snapshots(&self) -> Vec<Arc<ShardSnapshot>> {
        vec![self.core.shard.load()]
    }

    /// The published membership digest ([`ShardSnapshot::digest`]) — the
    /// payload a gossip round adverts to peer replicas: 16 bytes, equal
    /// iff the member id sets are equal (up to a 128-bit hash collision).
    #[must_use]
    pub fn digest(&self) -> u128 {
        self.core.shard.load().digest()
    }

    /// Drives the membership to exactly `target` through the clone →
    /// epoch-publish path — the anti-entropy application hook. Readers
    /// never block; a target the table already matches publishes nothing
    /// (`Ok(None)`), so repeated reconciliation is idempotent and burns no
    /// epochs.
    ///
    /// # Errors
    ///
    /// [`ServeError::Table`] when the moves fail (only capacity
    /// exhaustion is reachable). A failed reconcile publishes nothing:
    /// the table keeps its epoch and members.
    pub fn reconcile(&self, target: &[ServerId]) -> Result<Option<ShardReceipt>, ServeError> {
        Ok(self.core.shard.reconcile(target)?)
    }

    /// Point-in-time engine and table metrics.
    #[must_use]
    pub fn metrics(&self) -> EngineMetrics {
        let snap = self.core.shard.load();
        EngineMetrics {
            submitted: self.core.submitted.load(Ordering::Relaxed),
            rejected: self.core.rejected.load(Ordering::Relaxed),
            completed: self.core.completed.load(Ordering::Relaxed),
            panics_contained: self.core.panics_contained.load(Ordering::Relaxed),
            queue_depth: self.core.queue.lock().len(),
            shards: vec![self.core.metrics.snapshot(snap.epoch, snap.members.len())],
        }
    }

    /// The engine's request-path tracer. Drain it for JSONL / Chrome
    /// trace export, or read [`Tracer::stats`] for sampling and overflow
    /// accounting. Shared with the workers — cheap `Arc` clone.
    #[must_use]
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.core.tracer)
    }

    /// Arms the fault-injection hook: the next worker batch containing
    /// `key` panics before serving any of its jobs. The panic is caught by
    /// the worker loop, every ticket of the abandoned batch resolves with
    /// [`TableError::WorkerPanicked`], and the worker keeps serving —
    /// [`EngineMetrics::panics_contained`] counts the event. Test-facing,
    /// but kept in the public surface so integration suites (and the chaos
    /// harness) can exercise containment on a real engine.
    pub fn inject_worker_panic(&self, key: RequestKey) {
        *self.core.panic_key.lock() = Some(key);
        self.core.panic_armed.store(true, Ordering::Release);
    }

    /// Stops accepting requests, joins the workers, and serves any
    /// still-queued jobs inline, so no accepted ticket is ever left
    /// hanging. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        {
            let _queue = self.core.queue.lock();
            self.core.shutdown.store(true, Ordering::Release);
            self.core.ready.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Stragglers: accepted before the flag flipped, not yet picked up.
        let mut batch: Vec<LookupJob> = self.core.queue.lock().drain(..).collect();
        if !batch.is_empty() {
            // The drain runs inline on the caller's thread; report it on
            // the lane one past the last worker.
            self.core.serve_batch(self.core.config.workers, &mut batch, &mut Vec::new());
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn test_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            batch_capacity: 16,
            queue_capacity: 256,
            dimension: 2048,
            codebook_size: 64,
            seed: 42,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serves_lookups_from_the_published_epoch() {
        let mut engine = ServeEngine::new(test_config()).expect("valid config");
        for id in 0..12 {
            engine.join(ServerId::new(id)).expect("fresh server");
        }
        let snapshots = engine.snapshots();
        assert_eq!(snapshots.len(), 1);
        let snapshot = &snapshots[0];
        let tickets: Vec<_> = (0..200u64)
            .map(|k| (k, engine.submit(RequestKey::new(k)).expect("accepted")))
            .collect();
        let mut servers_hit = std::collections::HashSet::new();
        for (k, ticket) in tickets {
            let response = ticket.wait();
            // Deterministic: the response equals a direct lookup against
            // the snapshot of the epoch that served it (static membership,
            // so that's the current snapshot).
            assert_eq!((response.shard, response.epoch), (0, snapshot.epoch));
            assert_eq!(response.result, snapshot.lookup(RequestKey::new(k)), "key {k}");
            let server = response.result.expect("non-empty pool");
            assert!(snapshot.contains(server));
            servers_hit.insert(server);
        }
        assert!(servers_hit.len() > 1, "keys must spread over the members");
        // Metrics are published after the response cells are filled; read
        // them only once the workers have quiesced.
        engine.shutdown();
        let metrics = engine.metrics();
        assert_eq!(metrics.submitted, 200);
        assert_eq!(metrics.completed, 200);
        assert_eq!(metrics.rejected, 0);
        assert_eq!(metrics.shards.len(), 1);
        let table = &metrics.shards[0];
        assert_eq!((table.shard, table.served, table.failed), (0, 200, 0));
        assert!(table.latency.is_some());
    }

    #[test]
    fn empty_pool_lookups_fail_but_complete() {
        let mut engine = ServeEngine::new(test_config()).expect("valid config");
        let ticket = engine.submit(RequestKey::new(5)).expect("accepted");
        let response = ticket.wait();
        assert_eq!(response.result, Err(TableError::EmptyPool));
        assert_eq!(response.epoch, 0, "genesis epoch");
        engine.shutdown();
        assert_eq!(engine.metrics().shards[0].failed, 1);
    }

    #[test]
    fn backpressure_rejects_at_capacity() {
        // White-box: an engine with no workers, so nothing drains the queue
        // until this test takes a batch or shuts the engine down.
        let config = ServeConfig { queue_capacity: 3, batch_capacity: 2, ..test_config() };
        let core = Arc::new(EngineCore::new(config).expect("valid config"));
        let mut engine = ServeEngine { core: Arc::clone(&core), workers: Vec::new() };
        engine.join(ServerId::new(1)).expect("fresh server");
        let mut tickets: Vec<Ticket> = (1..=3)
            .map(|k| engine.submit(RequestKey::new(k)).expect("below capacity"))
            .collect();
        assert_eq!(engine.submit(RequestKey::new(9)).unwrap_err(), ServeError::QueueFull);
        assert_eq!(core.rejected.load(Ordering::Relaxed), 1);
        assert_eq!(core.submitted.load(Ordering::Relaxed), 3);
        assert_eq!(engine.metrics().queue_depth, 3);
        // A pickup takes at most `batch_capacity` jobs, oldest first, and
        // frees their queue slots.
        let mut batch = Vec::new();
        assert!(core.take_batch(&mut batch));
        assert_eq!(batch.iter().map(|job| job.key.get()).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(core.queue.lock().front().map(|job| job.key.get()), Some(3));
        core.serve_batch(0, &mut batch, &mut Vec::new());
        tickets.push(engine.submit(RequestKey::new(4)).expect("a pickup frees capacity"));
        // Shutdown serves the stragglers inline and leaves nothing queued.
        engine.shutdown();
        let metrics = engine.metrics();
        assert_eq!((metrics.queue_depth, metrics.completed), (0, 4));
        for ticket in tickets {
            assert!(ticket.try_response().expect("served").result.is_ok());
        }
    }

    #[test]
    fn shutdown_serves_stragglers_and_rejects_new_submissions() {
        let mut engine = ServeEngine::new(test_config()).expect("valid config");
        engine.join(ServerId::new(1)).expect("fresh server");
        let tickets: Vec<_> = (0..50u64)
            .filter_map(|k| engine.submit(RequestKey::new(k)).ok())
            .collect();
        engine.shutdown();
        for ticket in tickets {
            // Every accepted ticket resolves — no hangs after shutdown.
            assert!(ticket.wait().result.is_ok());
        }
        assert_eq!(engine.submit(RequestKey::new(9)).unwrap_err(), ServeError::ShuttingDown);
        // Idempotent.
        engine.shutdown();
    }

    #[test]
    fn membership_errors_propagate() {
        let engine = ServeEngine::new(test_config()).expect("valid config");
        engine.join(ServerId::new(1)).expect("fresh server");
        assert_eq!(
            engine.join(ServerId::new(1)).unwrap_err(),
            ServeError::Table(TableError::ServerAlreadyPresent(ServerId::new(1)))
        );
        assert_eq!(
            engine.leave(ServerId::new(7)).unwrap_err(),
            ServeError::Table(TableError::ServerNotFound(ServerId::new(7)))
        );
    }

    #[test]
    fn receipts_track_epochs_and_final_members() {
        let engine = ServeEngine::new(test_config()).expect("valid config");
        let r1 = engine.join(ServerId::new(1)).expect("fresh server");
        assert_eq!(r1.len(), 1);
        assert!(r1.iter().all(|r| r.epoch == 1 && r.members == vec![ServerId::new(1)]));
        let r2 = engine.join(ServerId::new(2)).expect("fresh server");
        assert!(r2.iter().all(|r| r.epoch == 2 && r.members.len() == 2));
        let members = vec![ServerId::new(1), ServerId::new(2)];
        for snapshot in engine.snapshots() {
            assert_eq!((snapshot.epoch, &snapshot.members), (2, &members));
            assert_eq!(snapshot.member_ids(), members);
        }
    }

    /// A table that fills at seven members (codebook 8, `n > k`).
    fn tiny_config() -> ServeConfig {
        ServeConfig { codebook_size: 8, ..test_config() }
    }

    fn ids(range: std::ops::Range<u64>) -> Vec<ServerId> {
        range.map(ServerId::new).collect()
    }

    #[test]
    fn failed_reconcile_publishes_nothing() {
        let engine = ServeEngine::new(tiny_config()).expect("valid config");
        for id in 0..6 {
            engine.join(ServerId::new(id)).expect("fits");
        }
        // Eight members cannot fit: the reconcile fails after some moves,
        // and none of them may reach an epoch.
        let target: Vec<ServerId> = [ServerId::new(0)].into_iter().chain(ids(10..17)).collect();
        assert_eq!(
            engine.reconcile(&target),
            Err(ServeError::Table(TableError::CapacityExhausted { servers: 7, capacity: 7 }))
        );
        let snapshot = &engine.snapshots()[0];
        assert_eq!((snapshot.epoch, snapshot.member_ids()), (6, ids(0..6)));
        assert_eq!(
            engine.leave(ServerId::new(0)).expect("present"),
            vec![ShardReceipt { shard: 0, epoch: 7, members: ids(1..6) }]
        );
    }

    #[test]
    fn receipts_follow_only_successful_changes() {
        // A seeded mix of joins, leaves and reconciles on a table that
        // fills at seven members, so duplicate joins, leaves of absent
        // members and over-capacity reconciles fail along the way. The
        // model membership changes only when an operation returns `Ok`.
        let engine = ServeEngine::new(tiny_config()).expect("valid config");
        let mut model: BTreeSet<ServerId> = BTreeSet::new();
        let (mut epoch, mut failed, mut failed_reconciles) = (0, 0, 0);
        let mut rng = hdhash_hdc::Rng::new(15);
        for _ in 0..400 {
            let id = ServerId::new(rng.next_below(12));
            let mut next = model.clone();
            let result = match rng.next_below(3) {
                0 => {
                    next.insert(id);
                    engine.join(id).map(|receipts| receipts.into_iter().next())
                }
                1 => {
                    next.remove(&id);
                    engine.leave(id).map(|receipts| receipts.into_iter().next())
                }
                _ => {
                    next = (0..12).filter(|_| rng.next_below(2) == 0).map(ServerId::new).collect();
                    let target: Vec<ServerId> = next.iter().copied().collect();
                    let result = engine.reconcile(&target);
                    failed_reconciles += usize::from(result.is_err());
                    result
                }
            };
            match result {
                Ok(Some(receipt)) => {
                    model = next;
                    epoch += 1;
                    assert_eq!(receipt.epoch, epoch);
                    assert_eq!(receipt.members.iter().copied().collect::<BTreeSet<_>>(), model);
                }
                Ok(None) => assert_eq!(next, model, "only a no-op publishes nothing"),
                Err(_) => failed += 1,
            }
            let snapshot = &engine.snapshots()[0];
            assert_eq!(snapshot.epoch, epoch);
            assert_eq!(snapshot.member_ids(), model.iter().copied().collect::<Vec<_>>());
        }
        assert!(failed > failed_reconciles && failed_reconciles > 0, "{failed} failed");
    }

    #[test]
    fn reconcile_and_digest_expose_the_gossip_surface() {
        let engine = ServeEngine::new(test_config()).expect("valid config");
        engine.join(ServerId::new(1)).expect("fresh");
        engine.join(ServerId::new(2)).expect("fresh");
        let before = engine.digest();
        assert_eq!(before, engine.snapshots()[0].digest());
        // Reconcile to a different membership: the digest moves, and the
        // published snapshot serves the new member set.
        let target: Vec<ServerId> = [1u64, 5].into_iter().map(ServerId::new).collect();
        let receipt = engine.reconcile(&target).expect("fits").expect("moved");
        assert_eq!((receipt.shard, receipt.epoch), (0, 3));
        assert_ne!(engine.digest(), before);
        assert_eq!(engine.snapshots()[0].member_ids(), target);
        // Idempotent: same target again publishes nothing.
        assert!(engine.reconcile(&target).expect("no-op").is_none());
        assert_eq!(engine.snapshots()[0].epoch, 3);
        // The reconciled engine reads the digest of a directly built one.
        let direct = ServeEngine::new(test_config()).expect("valid config");
        direct.join(ServerId::new(1)).expect("fresh");
        direct.join(ServerId::new(5)).expect("fresh");
        assert_eq!(engine.digest(), direct.digest());
    }

    #[test]
    fn sampled_requests_produce_trace_events() {
        use hdhash_obs::TraceConfig;
        let config = ServeConfig {
            trace: TraceConfig { enabled: true, sample_every: 1, ring_capacity: 8192 },
            ..test_config()
        };
        let mut engine = ServeEngine::new(config).expect("valid config");
        engine.join(ServerId::new(1)).expect("fresh server");
        let tickets: Vec<_> = (0..100u64)
            .map(|k| engine.submit(RequestKey::new(k)).expect("accepted"))
            .collect();
        for ticket in tickets {
            let _ = ticket.wait();
        }
        engine.shutdown();
        let tracer = engine.tracer();
        let events = tracer.drain();
        let count = |k| events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(SpanKind::Submit), 100);
        assert_eq!(count(SpanKind::ResponseFill), 100);
        assert!(count(SpanKind::BatchExec) >= 1);
        assert!(count(SpanKind::Pickup) >= 1);
        // Every request-scoped event carries a nonzero trace id, and each
        // sampled request's Submit has a matching ResponseFill.
        let ids_of = |kind| -> std::collections::HashSet<u64> {
            events.iter().filter(|e| e.kind == kind).map(|e| e.trace_id).collect()
        };
        let submits = ids_of(SpanKind::Submit);
        assert_eq!(submits, ids_of(SpanKind::ResponseFill));
        assert!(!submits.contains(&0));
        assert_eq!(tracer.stats().events_dropped, 0);
    }

    #[test]
    fn disabled_tracing_stays_silent() {
        let mut engine = ServeEngine::new(test_config()).expect("valid config");
        engine.join(ServerId::new(1)).expect("fresh server");
        for k in 0..20u64 {
            let _ = engine.submit(RequestKey::new(k)).expect("accepted").wait();
        }
        engine.shutdown();
        let tracer = engine.tracer();
        assert_eq!(tracer.drain().len(), 0);
        assert_eq!(tracer.stats().requests_sampled, 0);
    }
}
