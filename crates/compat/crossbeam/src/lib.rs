//! Offline stand-in for the `crossbeam` crate.
//!
//! The build environment for this workspace has no crates.io access, so this
//! shim vendors the API slices the workspace uses — `crossbeam::thread::scope`
//! with `Scope::spawn` (on top of `std::thread::scope`, stable since Rust
//! 1.63, which post-dates crossbeam's scoped threads),
//! `crossbeam::queue::ArrayQueue` (a bounded MPMC queue, here a
//! mutex-guarded ring rather than crossbeam's lock-free array — same
//! contract, no `unsafe`; the trace ring) and `crossbeam::channel`
//! (unbounded MPMC channels with blocking, timed and non-blocking
//! receives — the gossip transport's mailbox plumbing).
//!
//! Semantics match the call sites' expectations:
//!
//! * `scope` returns `Ok(r)` when every spawned thread ran to completion;
//! * a panicking worker propagates the panic out of `scope` (callers here
//!   treat worker panics as fatal via `.expect(..)`, so re-panicking is an
//!   acceptable substitute for crossbeam's `Err` aggregation);
//! * `Scope::spawn` hands the scope back to the closure so nested spawns
//!   remain possible;
//! * `ArrayQueue::push` on a full queue hands the value back as `Err` —
//!   the signal the trace ring counts as a dropped event.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Scoped threads (`crossbeam::thread`).
pub mod thread {
    /// The result type of [`scope`]: mirrors `crossbeam::thread::Result`.
    pub type Result<T> = std::result::Result<T, Box<dyn std::any::Any + Send + 'static>>;

    /// A scope handle passed to the `scope` closure and to every spawned
    /// thread's closure.
    ///
    /// Unlike crossbeam this is a small `Copy` value wrapping the std scope
    /// reference, which lets the handle itself be sent into spawned threads
    /// without borrow gymnastics.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Clone for Scope<'scope, 'env> {
        fn clone(&self) -> Self {
            *self
        }
    }

    impl<'scope, 'env> Copy for Scope<'scope, 'env> {}

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread. The closure receives the scope handle,
        /// matching crossbeam's `|scope| ...` signature (most callers bind
        /// it as `|_|`).
        pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let handle = *self;
            self.inner.spawn(move || f(handle))
        }
    }

    /// Creates a scope in which threads borrowing from the environment can
    /// be spawned; all spawned threads are joined before `scope` returns.
    pub fn scope<'env, F, R>(f: F) -> Result<R>
    where
        F: for<'scope> FnOnce(Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(Scope { inner: s })))
    }
}

/// Bounded lock-based queues (`crossbeam::queue`).
pub mod queue {
    use std::collections::VecDeque;
    use std::sync::{Mutex, PoisonError};

    /// A bounded multi-producer multi-consumer queue.
    ///
    /// API-compatible with `crossbeam::queue::ArrayQueue` for the slice the
    /// workspace uses: `push` refuses (returning the value) once `capacity`
    /// elements are queued, `pop` returns `None` when empty, and every
    /// method takes `&self` so one queue can be shared across producer and
    /// consumer threads behind an `Arc`.
    ///
    /// The real crate's queue is a lock-free array; this shim guards a
    /// `VecDeque` with a [`std::sync::Mutex`] (recovered on poison, so a
    /// panicking peer never wedges the queue). Contention behaviour
    /// differs, the observable FIFO semantics do not.
    ///
    /// # Examples
    ///
    /// ```
    /// use crossbeam::queue::ArrayQueue;
    ///
    /// let q = ArrayQueue::new(2);
    /// assert!(q.push(1).is_ok());
    /// assert!(q.push(2).is_ok());
    /// assert_eq!(q.push(3), Err(3)); // full: value handed back
    /// assert_eq!(q.pop(), Some(1));
    /// ```
    #[derive(Debug)]
    pub struct ArrayQueue<T> {
        inner: Mutex<VecDeque<T>>,
        capacity: usize,
    }

    impl<T> ArrayQueue<T> {
        /// Creates an empty queue holding at most `capacity` elements.
        ///
        /// # Panics
        ///
        /// Panics if `capacity == 0` (matching crossbeam).
        #[must_use]
        pub fn new(capacity: usize) -> Self {
            assert!(capacity > 0, "capacity must be non-zero");
            Self { inner: Mutex::new(VecDeque::with_capacity(capacity)), capacity }
        }

        fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Appends `value`, or hands it back as `Err` if the queue is full.
        pub fn push(&self, value: T) -> Result<(), T> {
            let mut q = self.lock();
            if q.len() >= self.capacity {
                return Err(value);
            }
            q.push_back(value);
            Ok(())
        }

        /// Removes and returns the oldest element, or `None` when empty.
        pub fn pop(&self) -> Option<T> {
            self.lock().pop_front()
        }

        /// Number of queued elements.
        #[must_use]
        pub fn len(&self) -> usize {
            self.lock().len()
        }

        /// Whether the queue holds no elements.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.lock().is_empty()
        }

        /// Whether the queue is at capacity.
        #[must_use]
        pub fn is_full(&self) -> bool {
            self.lock().len() >= self.capacity
        }

        /// The fixed capacity bound.
        #[must_use]
        pub fn capacity(&self) -> usize {
            self.capacity
        }
    }
}

/// Multi-producer multi-consumer channels (`crossbeam::channel`).
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    /// Error returned by [`Sender::send`] when every [`Receiver`] has been
    /// dropped; the unsent value is handed back.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every [`Sender`] has been dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Outcome of a failed [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty (senders may still produce).
        Empty,
        /// The channel is empty and every sender has been dropped.
        Disconnected,
    }

    /// Outcome of a failed [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline passed with no message available.
        Timeout,
        /// The channel is empty and every sender has been dropped.
        Disconnected,
    }

    #[derive(Debug)]
    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    #[derive(Debug)]
    struct Chan<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    impl<T> Chan<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// The sending half of a channel; clone freely for more producers.
    #[derive(Debug)]
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half of a channel; clone freely for more consumers
    /// (each message is delivered to exactly one receiver).
    #[derive(Debug)]
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Creates an unbounded MPMC channel.
    #[must_use]
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1 }),
            ready: Condvar::new(),
        });
        (Sender { chan: Arc::clone(&chan) }, Receiver { chan })
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.lock().senders += 1;
            Self { chan: Arc::clone(&self.chan) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.chan.lock();
            state.senders -= 1;
            if state.senders == 0 {
                // Wake blocked receivers so they observe the disconnect.
                self.chan.ready.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueues `value`, failing only when no receiver remains.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.chan.lock();
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            state.queue.push_back(value);
            self.chan.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.lock().receivers += 1;
            Self { chan: Arc::clone(&self.chan) }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.chan.lock().receivers -= 1;
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.chan.lock();
            loop {
                if let Some(value) = state.queue.pop_front() {
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self
                    .chan
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Returns the next message without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.chan.lock();
            match state.queue.pop_front() {
                Some(value) => Ok(value),
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocks for at most `timeout` waiting for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.chan.lock();
            loop {
                if let Some(value) = state.queue.pop_front() {
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _timeout_result) = self
                    .chan
                    .ready
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                state = guard;
            }
        }

        /// Number of queued messages (racy, diagnostic only).
        #[must_use]
        pub fn len(&self) -> usize {
            self.chan.lock().queue.len()
        }

        /// Whether no message is queued (racy, diagnostic only).
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.chan.lock().queue.is_empty()
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn scope_joins_and_returns() {
        let data = [1u64, 2, 3, 4];
        let mut partials = vec![0u64; 2];
        let result = super::thread::scope(|scope| {
            for (chunk, slot) in data.chunks(2).zip(partials.iter_mut()) {
                scope.spawn(move |_| {
                    *slot = chunk.iter().sum();
                });
            }
            42
        })
        .expect("no panics");
        assert_eq!(result, 42);
        assert_eq!(partials, vec![3, 7]);
    }

    #[test]
    fn nested_spawn_through_handle() {
        let flag = std::sync::atomic::AtomicBool::new(false);
        super::thread::scope(|scope| {
            scope.spawn(|inner| {
                inner.spawn(|_| {
                    flag.store(true, std::sync::atomic::Ordering::SeqCst);
                });
            });
        })
        .expect("no panics");
        assert!(flag.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    fn queue_fifo_and_backpressure() {
        let q = super::queue::ArrayQueue::new(3);
        assert!(q.is_empty());
        assert!(!q.is_full());
        assert_eq!(q.capacity(), 3);
        for i in 0..3 {
            assert!(q.push(i).is_ok());
        }
        assert!(q.is_full());
        assert_eq!(q.len(), 3);
        assert_eq!(q.push(9), Err(9));
        assert_eq!(q.pop(), Some(0));
        assert!(q.push(9).is_ok());
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(9));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn channel_fifo_and_try_recv() {
        use super::channel::{unbounded, TryRecvError};
        let (tx, rx) = unbounded();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(1).expect("receiver alive");
        tx.send(2).expect("receiver alive");
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert!(rx.is_empty());
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert!(rx.recv().is_err());
    }

    #[test]
    fn channel_disconnect_and_timeout() {
        use super::channel::{unbounded, RecvTimeoutError, SendError};
        let (tx, rx) = unbounded();
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
        let (tx2, rx2) = unbounded::<u32>();
        drop(tx2);
        assert_eq!(
            rx2.recv_timeout(std::time::Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn channel_crosses_threads() {
        use super::channel::unbounded;
        let (tx, rx) = unbounded();
        let handle = std::thread::spawn(move || {
            for i in 0..100u32 {
                tx.send(i).expect("receiver alive");
            }
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(rx.recv().expect("sender alive"));
        }
        handle.join().expect("no panic");
        assert_eq!(got, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn channel_cloned_receivers_partition_messages() {
        use super::channel::unbounded;
        let (tx, rx_a) = unbounded();
        let rx_b = rx_a.clone();
        for i in 0..10u32 {
            tx.send(i).expect("receivers alive");
        }
        let mut seen = Vec::new();
        for i in 0..10 {
            let rx = if i % 2 == 0 { &rx_a } else { &rx_b };
            seen.push(rx.recv().expect("sender alive"));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn queue_mpmc_under_threads() {
        // 4 producers × 250 items drained by 2 consumers: every item
        // arrives exactly once.
        let q = std::sync::Arc::new(super::queue::ArrayQueue::new(64));
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let done = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        std::thread::scope(|s| {
            for p in 0..4u32 {
                let q = q.clone();
                let done = done.clone();
                s.spawn(move || {
                    for i in 0..250u32 {
                        let mut v = p * 1000 + i;
                        loop {
                            match q.push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                    done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                });
            }
            for _ in 0..2 {
                let q = q.clone();
                let seen = seen.clone();
                let done = done.clone();
                s.spawn(move || loop {
                    match q.pop() {
                        Some(v) => seen.lock().expect("unpoisoned").push(v),
                        None => {
                            if done.load(std::sync::atomic::Ordering::SeqCst) == 4
                                && q.is_empty()
                            {
                                return;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        let mut all = seen.lock().expect("unpoisoned").clone();
        all.sort_unstable();
        let expect: Vec<u32> =
            (0..4u32).flat_map(|p| (0..250u32).map(move |i| p * 1000 + i)).collect();
        assert_eq!(all, expect);
    }
}
