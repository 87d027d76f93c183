//! Request plumbing: tickets, responses and the completion cell.
//!
//! The completion cell is a one-shot slot shared between the submitting
//! client and the worker that eventually serves the request: the worker
//! fills it once, and the client blocks on [`Ticket::wait`] /
//! [`Ticket::wait_timeout`] or polls [`Ticket::try_response`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use hdhash_table::{RequestKey, ServerId, TableError};

/// The serving layer's answer to one submitted lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeResponse {
    /// The routing verdict from the shard's HD table.
    pub result: Result<ServerId, TableError>,
    /// Which shard served the request.
    pub shard: usize,
    /// The shard epoch whose membership snapshot produced the verdict —
    /// the handle the churn tests use to prove no torn reads.
    pub epoch: u64,
    /// Queue wait plus batch execution time, measured from `submit`.
    pub latency: Duration,
}

/// One-shot completion cell: `None` until a worker fills it, then the
/// response; the condvar releases blocked waiters on fill.
#[derive(Debug, Default)]
pub(crate) struct ResponseCell {
    response: Mutex<Option<ServeResponse>>,
    ready: Condvar,
}

impl ResponseCell {
    /// Stores the response and releases every blocked waiter. Calling
    /// twice is a contract violation.
    pub(crate) fn fill(&self, response: ServeResponse) {
        let filled = self.fill_if_pending(response);
        debug_assert!(filled, "a request is served exactly once");
    }

    /// As [`fill`](Self::fill), but a no-op when the cell is already
    /// filled. Returns whether this call filled the cell. The
    /// panic-containment path uses this to backfill every job of a
    /// partially-served batch without knowing which cells the worker
    /// filled before it panicked.
    pub(crate) fn fill_if_pending(&self, response: ServeResponse) -> bool {
        let mut slot = self.response.lock();
        if slot.is_some() {
            return false;
        }
        *slot = Some(response);
        self.ready.notify_all();
        true
    }

    fn wait(&self) -> ServeResponse {
        let mut slot = self.response.lock();
        loop {
            if let Some(response) = *slot {
                return response;
            }
            self.ready.wait(&mut slot);
        }
    }

    fn wait_timeout(&self, timeout: Duration) -> Option<ServeResponse> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.response.lock();
        loop {
            if let Some(response) = *slot {
                return Some(response);
            }
            let remaining = deadline.checked_duration_since(Instant::now())?;
            // Spurious wakeups loop back through the deadline check.
            let _ = self.ready.wait_for(&mut slot, remaining);
        }
    }

    fn try_get(&self) -> Option<ServeResponse> {
        *self.response.lock()
    }
}

/// A claim on a submitted request's eventual response.
///
/// Obtained from [`ServeEngine::submit`](crate::ServeEngine::submit).
/// Block on [`wait`](Self::wait) (closed-loop clients), bound the block
/// with [`wait_timeout`](Self::wait_timeout), or poll
/// [`try_response`](Self::try_response) (open-loop clients that batch
/// their own reaping).
///
/// ```
/// use std::time::Duration;
/// use hdhash_serve::{ServeConfig, ServeEngine};
/// use hdhash_table::{RequestKey, ServerId};
///
/// let mut engine = ServeEngine::new(ServeConfig {
///     shards: 1,
///     workers: 1,
///     dimension: 2048,
///     codebook_size: 64,
///     ..ServeConfig::default()
/// })?;
/// engine.join(ServerId::new(1))?;
/// let ticket = engine.submit(RequestKey::new(7))?;
/// let response = ticket.wait_timeout(Duration::from_secs(30)).expect("served");
/// assert_eq!(response.result, Ok(ServerId::new(1)));
/// assert_eq!(ticket.try_response(), Some(response));
/// engine.shutdown();
/// # Ok::<(), hdhash_serve::ServeError>(())
/// ```
#[derive(Debug)]
pub struct Ticket {
    cell: Arc<ResponseCell>,
}

impl Ticket {
    /// Blocks until the request is served. The engine guarantees every
    /// accepted request is eventually served — by a worker in steady
    /// state, or by the shutdown drain.
    #[must_use]
    pub fn wait(self) -> ServeResponse {
        self.cell.wait()
    }

    /// Blocks until the request is served or `timeout` elapses, whichever
    /// comes first. `None` means the deadline expired with the request
    /// still in flight — the ticket stays redeemable, so callers can
    /// retry, escalate, or abandon it.
    ///
    /// This is the chaos-harness-facing surface: under injected faults a
    /// response may be arbitrarily delayed, and a bounded wait turns a
    /// hung assertion into a diagnosable timeout.
    #[must_use]
    pub fn wait_timeout(&self, timeout: Duration) -> Option<ServeResponse> {
        self.cell.wait_timeout(timeout)
    }

    /// The response, if already served.
    #[must_use]
    pub fn try_response(&self) -> Option<ServeResponse> {
        self.cell.try_get()
    }
}

/// A queued lookup: the key, its shard (fixed at submit time so workers
/// never re-hash), the submit instant, and the client's completion cell.
#[derive(Debug)]
pub(crate) struct LookupJob {
    pub(crate) key: RequestKey,
    pub(crate) shard: usize,
    pub(crate) enqueued: Instant,
    pub(crate) cell: Arc<ResponseCell>,
    /// Nonzero id when this request was sampled for tracing; `None` for
    /// the (vast, at production sampling rates) untraced majority.
    pub(crate) trace_id: Option<u64>,
}

impl LookupJob {
    pub(crate) fn new(key: RequestKey, shard: usize) -> (Self, Ticket) {
        let cell = Arc::new(ResponseCell::default());
        let ticket = Ticket { cell: Arc::clone(&cell) };
        (Self { key, shard, enqueued: Instant::now(), cell, trace_id: None }, ticket)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response() -> ServeResponse {
        ServeResponse {
            result: Ok(ServerId::new(3)),
            shard: 1,
            epoch: 9,
            latency: Duration::from_micros(5),
        }
    }

    #[test]
    fn ticket_roundtrip() {
        let (job, ticket) = LookupJob::new(RequestKey::new(7), 1);
        assert_eq!(job.key, RequestKey::new(7));
        assert_eq!(job.shard, 1);
        assert!(ticket.try_response().is_none());
        job.cell.fill(response());
        assert_eq!(ticket.try_response(), Some(response()));
        assert_eq!(ticket.wait(), response());
    }

    #[test]
    fn wait_timeout_expires_then_redeems() {
        let (job, ticket) = LookupJob::new(RequestKey::new(8), 0);
        assert_eq!(ticket.wait_timeout(Duration::from_millis(5)), None);
        job.cell.fill(response());
        assert_eq!(ticket.wait_timeout(Duration::from_millis(5)), Some(response()));
        assert_eq!(ticket.wait(), response());
    }

    #[test]
    fn wait_timeout_wakes_on_fill_across_threads() {
        let (job, ticket) = LookupJob::new(RequestKey::new(9), 0);
        let got = std::thread::scope(|s| {
            let waiter = s.spawn(move || ticket.wait_timeout(Duration::from_secs(30)));
            std::thread::sleep(Duration::from_millis(10));
            job.cell.fill(response());
            waiter.join().expect("no panic")
        });
        assert_eq!(got, Some(response()));
    }

    #[test]
    fn fill_if_pending_is_idempotent() {
        let (job, ticket) = LookupJob::new(RequestKey::new(10), 0);
        assert!(job.cell.fill_if_pending(response()));
        // A second fill attempt must not clobber the first answer.
        let mut other = response();
        other.epoch = 99;
        assert!(!job.cell.fill_if_pending(other));
        assert_eq!(ticket.wait(), response());
    }

    #[test]
    fn wait_blocks_until_filled_across_threads() {
        let (job, ticket) = LookupJob::new(RequestKey::new(1), 0);
        let got = std::thread::scope(|s| {
            let waiter = s.spawn(move || ticket.wait());
            std::thread::sleep(Duration::from_millis(10));
            job.cell.fill(response());
            waiter.join().expect("no panic")
        });
        assert_eq!(got, response());
    }
}
