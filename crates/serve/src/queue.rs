//! Bounded multi-producer/multi-consumer request queue.
//!
//! `std`-only (Mutex + Condvar): producers never block — a full queue
//! rejects the push so admission control can surface backpressure to the
//! client immediately — while consumers block only on an *empty* queue.
//!
//! Batch formation is **work-conserving** when `max_wait == 0`. The
//! invariant then: *a consumer never waits while an item it may take is
//! queued.* A consumer that finds items takes what is queued now, up to
//! `max`, and leaves; batches larger than one form from the backlog that
//! accumulates while the previous batch computes, so batch size follows
//! load by itself — one at idle, `max` at saturation — and an unloaded
//! request never pays for company that is not coming. That path reads no
//! clock and parks on no timer.
//!
//! Passing `max_wait > 0` adds a *linger* on top of the same first step:
//! the consumer takes the backlog, then holds an unfilled batch open up
//! to that long for late arrivals. It buys larger batches at low load
//! and costs every such request up to `max_wait` of latency. The serve
//! tier's default is a short linger ([`crate::ServeConfig::max_wait`]
//! says why); the serve tests use long ones to force deterministic
//! co-batching.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushRejection {
    /// The queue held `capacity` items.
    Full,
    /// The queue was closed.
    Closed,
}

/// Outcome of a [`BoundedQueue::pop_batch_ticked`] call.
#[derive(Debug, PartialEq, Eq)]
pub enum PopTick<T> {
    /// At least one item arrived; a batch was formed as in
    /// [`BoundedQueue::pop_batch`].
    Batch(Vec<T>),
    /// Nothing arrived within the tick; the consumer gets control back
    /// (to heartbeat, in the serve workers) and should call again.
    Idle,
    /// The queue is closed and fully drained.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    /// The latency-sensitive lane: popped before `items` and never
    /// coalesced with them, so priority requests never ride in (or wait
    /// on) a throughput batch forming around them.
    priority: VecDeque<T>,
    closed: bool,
}

impl<T> Inner<T> {
    fn len(&self) -> usize {
        self.items.len() + self.priority.len()
    }
}

/// A bounded MPMC queue with non-blocking producers, batch-popping
/// consumers and a priority lane.
///
/// The capacity bound covers both lanes together (one admission-control
/// budget), but consumers always drain the priority lane first, and a
/// priority batch never mixes with normal-lane items or lingers, which
/// is what makes the lane useful for latency-sensitive batch-1 requests.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                priority: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (both lanes).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to enqueue without blocking; on rejection the item is
    /// handed back alongside the reason.
    ///
    /// # Errors
    ///
    /// [`PushRejection::Full`] at capacity, [`PushRejection::Closed`]
    /// after [`BoundedQueue::close`].
    #[allow(clippy::result_large_err)] // rejection intentionally returns the item
    pub fn try_push(&self, item: T) -> Result<(), (T, PushRejection)> {
        self.push_lane(item, false)
    }

    /// [`BoundedQueue::try_push`] into the priority lane: the item is
    /// popped before any normal-lane item, in a batch of priority items
    /// only, and cuts a consumer's linger short.
    ///
    /// # Errors
    ///
    /// As [`BoundedQueue::try_push`] — both lanes share one capacity.
    #[allow(clippy::result_large_err)] // rejection intentionally returns the item
    pub fn try_push_priority(&self, item: T) -> Result<(), (T, PushRejection)> {
        self.push_lane(item, true)
    }

    #[allow(clippy::result_large_err)]
    fn push_lane(&self, item: T, priority: bool) -> Result<(), (T, PushRejection)> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Err((item, PushRejection::Closed));
        }
        if inner.len() >= self.capacity {
            return Err((item, PushRejection::Full));
        }
        if priority {
            inner.priority.push_back(item);
        } else {
            inner.items.push_back(item);
        }
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pops a batch: blocks until at least one item is available (or the
    /// queue is closed *and* drained, returning `None`).
    ///
    /// Priority-lane items win: if any are queued, up to `max` of them
    /// are returned, never mixed with normal-lane items. Otherwise the
    /// consumer takes the normal-lane items queued *now*, up to `max`
    /// (a `max` of zero is treated as one). With `max_wait == 0` it
    /// returns them at once — work-conserving, no clock read. With
    /// `max_wait > 0` an unfilled batch is held open (the linger)
    /// until it holds `max` items, `max_wait` has elapsed, or a priority
    /// item arrives (the in-progress batch dispatches at once so the
    /// next pop can take the priority item without waiting out the
    /// linger).
    ///
    /// After `close()`, queued items keep being returned until the queue
    /// drains — shutdown is graceful, not lossy.
    pub fn pop_batch(&self, max: usize, max_wait: Duration) -> Option<Vec<T>> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if inner.len() > 0 {
                break;
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue poisoned");
        }
        Some(self.form_batch(inner, max, max_wait))
    }

    /// [`BoundedQueue::pop_batch`] with a bounded park: instead of
    /// blocking indefinitely on an empty queue, the consumer gets
    /// control back after `tick` with [`PopTick::Idle`]. This is how a
    /// serve worker parked on an idle queue still beats its heartbeat —
    /// the watchdog can then apply one uniform "stale heartbeat ⇒ hung"
    /// rule whether a worker is stuck in dispatch or healthy-but-idle.
    pub fn pop_batch_ticked(&self, max: usize, max_wait: Duration, tick: Duration) -> PopTick<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        let tick_deadline = Instant::now() + tick;
        loop {
            if inner.len() > 0 {
                break;
            }
            if inner.closed {
                return PopTick::Closed;
            }
            let now = Instant::now();
            if now >= tick_deadline {
                return PopTick::Idle;
            }
            let (guard, _) =
                self.not_empty.wait_timeout(inner, tick_deadline - now).expect("queue poisoned");
            inner = guard;
        }
        PopTick::Batch(self.form_batch(inner, max, max_wait))
    }

    /// Forms a batch starting from a non-empty queue whose lock the
    /// caller already holds (the shared tail of both pop entries).
    fn form_batch(
        &self,
        mut inner: MutexGuard<'_, Inner<T>>,
        max: usize,
        max_wait: Duration,
    ) -> Vec<T> {
        // A zero `max` would return an empty batch and leave the items
        // queued: a caller looping on empty batches would spin forever.
        let max = max.max(1);
        if !inner.priority.is_empty() {
            let take = max.min(inner.priority.len());
            let batch: Vec<T> = inner.priority.drain(..take).collect();
            if inner.len() > 0 {
                drop(inner);
                self.not_empty.notify_one();
            }
            return batch;
        }
        // Work-conserving: the backlog is the batch.
        let take = max.min(inner.items.len());
        let mut batch: Vec<T> = inner.items.drain(..take).collect();
        // Only a positive `max_wait` lingers: at zero no clock is read
        // and no timer is parked on.
        if !max_wait.is_zero() {
            let deadline = Instant::now() + max_wait;
            while batch.len() < max && !inner.closed && inner.priority.is_empty() {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _) =
                    self.not_empty.wait_timeout(inner, deadline - now).expect("queue poisoned");
                inner = guard;
                let take = (max - batch.len()).min(inner.items.len());
                batch.extend(inner.items.drain(..take));
            }
        }
        // Items may remain (batch clipped at `max`, or a priority arrival
        // cut the linger short): pass the baton so sibling consumers do
        // not sleep on a non-empty queue.
        if inner.len() > 0 {
            drop(inner);
            self.not_empty.notify_one();
        }
        batch
    }

    /// Drains every queued item without blocking, priority lane first —
    /// the bounded-drain shutdown path, which *answers* whatever is
    /// still queued at the drain deadline instead of waiting for the
    /// workers to compute it.
    pub fn drain_pending(&self) -> Vec<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        let mut out: Vec<T> = inner.priority.drain(..).collect();
        out.extend(inner.items.drain(..));
        out
    }

    /// Closes the queue: producers are rejected from now on, consumers
    /// drain what remains and then observe `None`.
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
    }

    /// Whether [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().expect("queue poisoned").closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rejects_when_full_and_when_closed() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        let (item, why) = q.try_push(3).unwrap_err();
        assert_eq!((item, why), (3, PushRejection::Full));
        assert_eq!(q.len(), 2);
        q.close();
        let (_, why) = q.try_push(4).unwrap_err();
        assert_eq!(why, PushRejection::Closed);
    }

    #[test]
    fn pop_batch_coalesces_up_to_max() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let batch = q.pop_batch(3, Duration::ZERO).unwrap();
        assert_eq!(batch, vec![0, 1, 2]);
        let rest = q.pop_batch(8, Duration::ZERO).unwrap();
        assert_eq!(rest, vec![3, 4]);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.pop_batch(4, Duration::ZERO), Some(vec![7]));
        assert_eq!(q.pop_batch(4, Duration::ZERO), None);
        assert!(q.is_closed());
    }

    #[test]
    fn blocked_consumer_wakes_on_push() {
        let q = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop_batch(4, Duration::from_millis(1)));
        // The consumer may or may not have parked yet; the push must wake
        // it either way.
        std::thread::sleep(Duration::from_millis(5));
        q.try_push(42).unwrap();
        let got = consumer.join().unwrap().unwrap();
        assert!(got.contains(&42));
    }

    #[test]
    fn lingering_consumer_picks_up_late_arrivals() {
        let q = Arc::new(BoundedQueue::new(8));
        q.try_push(1).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            q2.try_push(2).unwrap();
        });
        // Generous linger so the late push lands within the window even on
        // a loaded single-CPU host.
        let batch = q.pop_batch(2, Duration::from_secs(5)).unwrap();
        producer.join().unwrap();
        assert_eq!(batch, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = BoundedQueue::<i32>::new(0);
    }

    #[test]
    fn priority_items_pop_first_and_do_not_linger() {
        let q = BoundedQueue::new(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.try_push_priority(10).unwrap();
        // Even with a generous linger, the priority item returns alone and
        // immediately (a stuck linger here would hang the test).
        let started = Instant::now();
        let batch = q.pop_batch(8, Duration::from_secs(30)).unwrap();
        assert_eq!(batch, vec![10]);
        assert!(started.elapsed() < Duration::from_secs(5));
        // The normal lane is intact and still coalesces.
        let rest = q.pop_batch(8, Duration::ZERO).unwrap();
        assert_eq!(rest, vec![1, 2]);
    }

    #[test]
    fn both_lanes_share_one_capacity() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push_priority(2).unwrap();
        assert_eq!(q.len(), 2);
        let (_, why) = q.try_push(3).unwrap_err();
        assert_eq!(why, PushRejection::Full);
        let (_, why) = q.try_push_priority(4).unwrap_err();
        assert_eq!(why, PushRejection::Full);
    }

    #[test]
    fn ticked_pop_reports_idle_batches_and_closure() {
        let q = BoundedQueue::new(8);
        // Empty + open: the tick elapses and control comes back.
        let started = Instant::now();
        assert_eq!(q.pop_batch_ticked(4, Duration::ZERO, Duration::from_millis(5)), PopTick::Idle);
        assert!(started.elapsed() >= Duration::from_millis(5));
        // Items present: batches form exactly as in pop_batch.
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.try_push_priority(9).unwrap();
        assert_eq!(
            q.pop_batch_ticked(4, Duration::from_secs(30), Duration::from_secs(30)),
            PopTick::Batch(vec![9]),
            "priority items must pop first and without lingering"
        );
        assert_eq!(
            q.pop_batch_ticked(4, Duration::ZERO, Duration::from_secs(30)),
            PopTick::Batch(vec![1, 2])
        );
        // Closed + drained: terminal.
        q.close();
        assert_eq!(q.pop_batch_ticked(4, Duration::ZERO, Duration::from_secs(30)), PopTick::Closed);
    }

    #[test]
    fn ticked_pop_wakes_on_push_before_the_tick() {
        let q = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            q2.pop_batch_ticked(4, Duration::from_millis(1), Duration::from_secs(30))
        });
        std::thread::sleep(Duration::from_millis(5));
        q.try_push(42).unwrap();
        match consumer.join().unwrap() {
            PopTick::Batch(batch) => assert!(batch.contains(&42)),
            other => panic!("expected a batch, got {other:?}"),
        }
    }

    #[test]
    fn zero_max_still_takes_an_item() {
        // A `max` of zero used to return an empty batch with the item
        // still queued, so a consumer looping on empty batches spun
        // forever without serving it.
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.pop_batch(0, Duration::ZERO), Some(vec![1]));
        assert_eq!(
            q.pop_batch_ticked(0, Duration::ZERO, Duration::from_secs(30)),
            PopTick::Batch(vec![2])
        );
        q.try_push_priority(9).unwrap();
        assert_eq!(q.pop_batch(0, Duration::ZERO), Some(vec![9]));
        assert!(q.is_empty());
    }

    #[test]
    fn leaving_at_once_loses_no_baton() {
        // Two consumers, one item: whoever takes it leaves immediately
        // with a batch of one (no linger, although `max` is 16), and the
        // consumer still blocked must be woken by the next push.
        let q = Arc::new(BoundedQueue::new(4));
        let start = Arc::new(std::sync::Barrier::new(3));
        let (tx, rx) = std::sync::mpsc::channel();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let (q, start, tx) = (Arc::clone(&q), Arc::clone(&start), tx.clone());
                std::thread::spawn(move || {
                    start.wait();
                    tx.send(q.pop_batch(16, Duration::ZERO)).unwrap();
                })
            })
            .collect();
        start.wait();
        for item in [1, 2] {
            q.try_push(item).unwrap();
            // A lost wake-up would park the second consumer forever; the
            // timeout turns that hang into a failure.
            let got = rx.recv_timeout(Duration::from_secs(30)).expect("a consumer must wake");
            assert_eq!(got, Some(vec![item]));
        }
        for consumer in consumers {
            consumer.join().unwrap();
        }
    }

    #[test]
    fn the_backlog_is_the_batch() {
        // While the consumer is busy (not in a pop) the producer queues
        // `k` items; the next pop takes min(k, 16) of them in FIFO order
        // at once and the pop after takes the remainder. Channel
        // hand-offs order the two sides; nothing sleeps and nothing
        // lingers.
        let q = Arc::new(BoundedQueue::new(32));
        let (busy_tx, busy_rx) = std::sync::mpsc::channel();
        let (pushed_tx, pushed_rx) = std::sync::mpsc::channel();
        const BURSTS: [usize; 4] = [1, 5, 16, 20];
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            for k in BURSTS {
                busy_tx.send(()).unwrap();
                pushed_rx.recv().unwrap();
                let first = q2.pop_batch(16, Duration::ZERO).unwrap();
                assert_eq!(first, (0..k.min(16)).collect::<Vec<_>>(), "burst of {k}");
                if k > 16 {
                    let rest = q2.pop_batch(16, Duration::ZERO).unwrap();
                    assert_eq!(rest, (16..k).collect::<Vec<_>>(), "burst of {k}");
                }
                assert!(q2.is_empty());
            }
        });
        for k in BURSTS {
            busy_rx.recv().unwrap();
            for i in 0..k {
                q.try_push(i).unwrap();
            }
            pushed_tx.send(()).unwrap();
        }
        consumer.join().unwrap();
    }

    #[test]
    fn drain_pending_empties_both_lanes_without_blocking() {
        let q = BoundedQueue::new(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.try_push_priority(9).unwrap();
        assert_eq!(q.drain_pending(), vec![9, 1, 2], "priority lane drains first");
        assert!(q.is_empty());
        assert_eq!(q.drain_pending(), Vec::<i32>::new());
    }

    #[test]
    fn priority_arrival_cuts_a_linger_short() {
        let q = Arc::new(BoundedQueue::new(8));
        q.try_push(1).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            q2.try_push_priority(9).unwrap();
        });
        // The consumer starts a long linger on the normal item; the
        // priority arrival must dispatch the in-progress batch at once
        // (a 30 s linger that ran to completion would hang the test). If
        // the producer wins the race outright, the priority item simply
        // pops first — either way the two items must arrive in two
        // separate batches, never coalesced across lanes.
        let first = q.pop_batch(8, Duration::from_secs(30)).unwrap();
        producer.join().unwrap();
        let second = q.pop_batch(8, Duration::from_secs(30)).unwrap();
        let mut seen = [first, second];
        seen.sort();
        assert_eq!(seen, [vec![1], vec![9]]);
    }
}
