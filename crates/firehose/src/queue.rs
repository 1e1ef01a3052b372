//! Bounded SPSC channels between the generator and the shard workers,
//! with explicit backpressure accounting.
//!
//! One producer (the merge generator) and one consumer (a shard worker)
//! share each queue, and both sides move batches: the producer hands
//! over a buffer of updates per [`SpscQueue::push_batch`], the consumer
//! drains up to a batch per [`SpscQueue::pop_batch`]. The lock round
//! trip, the depth gauge and the condvar wake (on Linux a `futex`
//! syscall whether or not anyone waits) are therefore paid once per
//! hand-off in either direction, never once per update. That is also
//! why the ring is a plain mutex-guarded `VecDeque` rather than a
//! lock-free one: with two threads and the lock taken once per few
//! hundred updates, lock traffic is noise beside a single damping
//! decision, and the mutex/condvar pair gives the blocking full and
//! empty waits without a line of `unsafe`.
//!
//! Every backpressure event is *counted*: the report exposes how often
//! the producer blocked on a full queue and the deepest the queue ever
//! got, so a slow consumer shows up as data instead of mystery
//! latency.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

#[derive(Debug)]
struct Inner<T> {
    buf: VecDeque<T>,
    closed: bool,
}

/// A bounded single-producer single-consumer queue.
#[derive(Debug)]
pub struct SpscQueue<T> {
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    depth: AtomicUsize,
    max_depth: AtomicUsize,
    push_waits: AtomicU64,
    pushed: AtomicU64,
    batches: AtomicU64,
}

impl<T> SpscQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        SpscQueue {
            inner: Mutex::new(Inner {
                buf: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
            depth: AtomicUsize::new(0),
            max_depth: AtomicUsize::new(0),
            push_waits: AtomicU64::new(0),
            pushed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        }
    }

    /// Hands over every item of `items` in order, leaving it empty (its
    /// allocation stays with the caller). Blocks while the queue is
    /// full — that block is the backpressure signal, and each one is
    /// counted. A hand-off larger than the free room moves what fits
    /// and continues once the consumer has drained, so the depth never
    /// exceeds the capacity.
    pub fn push_batch(&self, items: &mut Vec<T>) {
        if items.is_empty() {
            return;
        }
        let mut rest = items.drain(..);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        while rest.len() > 0 {
            if inner.buf.len() >= self.capacity && !inner.closed {
                self.push_waits.fetch_add(1, Ordering::Relaxed);
                // What this call has already moved is not announced
                // yet, and the consumer may have parked on an empty
                // queue before it arrived: wake it before sleeping, or
                // neither side runs again.
                self.not_empty.notify_one();
                while inner.buf.len() >= self.capacity && !inner.closed {
                    inner = self.not_full.wait(inner).unwrap_or_else(|e| e.into_inner());
                }
            }
            // After `close` nothing blocks: the rest goes in as it is.
            let moved = if inner.closed {
                rest.len()
            } else {
                rest.len().min(self.capacity - inner.buf.len())
            };
            inner.buf.extend(rest.by_ref().take(moved));
            let depth = inner.buf.len();
            // Stored under the lock (as `pop_batch` does), so the gauge
            // always ends on the value of the last operation.
            self.depth.store(depth, Ordering::Relaxed);
            self.max_depth.fetch_max(depth, Ordering::Relaxed);
            self.pushed.fetch_add(moved as u64, Ordering::Relaxed);
            self.batches.fetch_add(1, Ordering::Relaxed);
        }
        drop(inner);
        self.not_empty.notify_one();
    }

    /// Moves up to `max` items into `out`. Blocks until at least one
    /// item is available or the queue is closed; returns `false` once
    /// the queue is closed *and* drained.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        while inner.buf.is_empty() && !inner.closed {
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
        if inner.buf.is_empty() {
            return false;
        }
        let take = inner.buf.len().min(max);
        out.extend(inner.buf.drain(..take));
        self.depth.store(inner.buf.len(), Ordering::Relaxed);
        drop(inner);
        self.not_full.notify_one();
        true
    }

    /// Marks the stream complete; consumers drain the remainder and
    /// then see end-of-stream.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Queue depth as of the last completed move in either direction
    /// (heartbeat gauge: exact whenever both sides are idle).
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Deepest the queue has ever been.
    pub fn max_depth(&self) -> usize {
        self.max_depth.load(Ordering::Relaxed)
    }

    /// How many times the producer found the queue full and had to
    /// sleep — the explicit backpressure count.
    pub fn push_waits(&self) -> u64 {
        self.push_waits.load(Ordering::Relaxed)
    }

    /// Total items ever enqueued.
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }

    /// Total moves into the ring, each under one lock acquisition: one
    /// per hand-off plus one per backpressure wait inside it. Against
    /// [`pushed`](Self::pushed) it says how well hand-offs amortise.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    /// Streams `0..n` through a fresh queue on two threads — the
    /// producer in hand-offs of `batch`, the consumer in drains of at
    /// most `limit` — and returns what arrived, with the queue.
    fn stream(capacity: usize, n: u64, batch: usize, limit: usize) -> (Vec<u64>, SpscQueue<u64>) {
        let q = SpscQueue::new(capacity);
        let seen = std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut pending = Vec::with_capacity(batch);
                for v in 0..n {
                    pending.push(v);
                    if pending.len() == batch {
                        q.push_batch(&mut pending);
                        assert!(pending.is_empty(), "a hand-off empties the buffer");
                    }
                }
                q.push_batch(&mut pending);
                q.close();
            });
            let mut seen = Vec::new();
            let mut out = Vec::new();
            while q.pop_batch(&mut out, limit) {
                assert!(out.len() <= limit);
                seen.append(&mut out);
            }
            seen
        });
        (seen, q)
    }

    /// What every two-thread run must leave behind.
    fn assert_accounting(q: &SpscQueue<u64>, capacity: usize, n: u64, batch: usize) {
        assert!(q.max_depth() <= capacity, "depth past the capacity");
        assert_eq!(q.pushed(), n, "pushed counts items, not hand-offs");
        assert_eq!(q.depth(), 0, "drained queue reports depth 0");
        let hand_offs = n.div_ceil(batch as u64);
        assert!(q.batches() >= hand_offs);
        assert!(
            q.batches() <= hand_offs + q.push_waits(),
            "{} moves for {hand_offs} hand-offs and {} waits",
            q.batches(),
            q.push_waits()
        );
    }

    #[test]
    fn fifo_through_batches() {
        let q: SpscQueue<u32> = SpscQueue::new(4);
        let mut items = vec![0, 1, 2, 3];
        q.push_batch(&mut items);
        assert!(items.is_empty());
        assert_eq!((q.depth(), q.pushed(), q.batches()), (4, 4, 1));
        q.push_batch(&mut items);
        assert_eq!(q.batches(), 1, "an empty hand-off is not a move");
        q.close();
        let mut out = Vec::new();
        assert!(q.pop_batch(&mut out, 3));
        assert_eq!(out, vec![0, 1, 2]);
        assert!(q.pop_batch(&mut out, 3));
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert!(!q.pop_batch(&mut out, 3), "closed and drained");
    }

    #[test]
    fn backpressure_blocks_and_is_counted() {
        // A 10-item hand-off cannot fit 2 slots: the producer has to
        // wait for the consumer whatever the scheduling.
        let (seen, q) = stream(2, 100, 10, 8);
        assert_eq!(seen, (0..100).collect::<Vec<u64>>());
        assert!(q.push_waits() > 0, "producer never blocked");
        assert_accounting(&q, 2, 100, 10);
    }

    #[test]
    fn partial_moves_keep_exact_fifo() {
        let (seen, q) = stream(3, 1000, 10, 256);
        assert_eq!(seen, (0..1000).collect::<Vec<u64>>());
        // ceil(10 / 3) moves per hand-off, each but the first after a wait.
        assert!(q.push_waits() >= 300, "{} waits", q.push_waits());
        assert_accounting(&q, 3, 1000, 10);
    }

    /// A hand-off larger than the queue with the consumer already
    /// asleep on the empty queue: the producer must wake it before
    /// sleeping itself. A deadlock fails the test instead of hanging it.
    #[test]
    fn oversized_hand_off_wakes_a_parked_consumer() {
        let q: Arc<SpscQueue<u32>> = Arc::new(SpscQueue::new(1));
        let (about_to_pop, popping) = mpsc::channel();
        let (done, finished) = mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                about_to_pop.send(()).expect("test thread listens");
                while q.pop_batch(&mut seen, 256) {}
                done.send(seen).expect("test thread listens");
            })
        };
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                popping.recv().expect("consumer announces itself");
                // Either order of park and push must finish; the pause
                // only makes the parked-first order the likely one.
                std::thread::sleep(Duration::from_millis(10));
                q.push_batch(&mut (0..10).collect());
                q.close();
            })
        };
        let seen = finished
            .recv_timeout(Duration::from_secs(20))
            .expect("deadlock: the parked consumer was never woken");
        assert_eq!(seen, (0..10).collect::<Vec<u32>>());
        consumer.join().unwrap();
        producer.join().unwrap();
        assert!(q.max_depth() <= 1);
    }

    /// Both sides store the depth gauge inside the critical section, so
    /// whichever side finishes last, the gauge ends on the truth.
    #[test]
    fn depth_gauge_is_exact_once_both_sides_are_idle() {
        for round in 0..200u64 {
            let q: SpscQueue<u64> = SpscQueue::new(64);
            let popped = std::thread::scope(|scope| {
                // 64 items in 64 slots: the producer never has to wait,
                // so the consumer may stop short of draining.
                scope.spawn(|| {
                    for chunk in 0..8 {
                        q.push_batch(&mut (chunk * 8..chunk * 8 + 8).collect());
                    }
                });
                let mut out = Vec::new();
                while (out.len() as u64) < 8 + round % 48 {
                    q.pop_batch(&mut out, 1 + (round % 5) as usize);
                }
                out.len()
            });
            assert_eq!(
                q.depth() as u64,
                q.pushed() - popped as u64,
                "round {round}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any capacity, hand-off size and drain limit: exact FIFO, the
        /// capacity respected, items and moves accounted for.
        #[test]
        fn two_thread_stream_is_exact_fifo(
            capacity in 1usize..40,
            batch in 1usize..70,
            limit in 1usize..70,
            n in 0u64..600,
        ) {
            let (seen, q) = stream(capacity, n, batch, limit);
            prop_assert_eq!(seen, (0..n).collect::<Vec<u64>>());
            assert_accounting(&q, capacity, n, batch);
        }
    }

    #[test]
    fn close_wakes_empty_consumer() {
        let q: Arc<SpscQueue<u8>> = Arc::new(SpscQueue::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                q.pop_batch(&mut out, 1)
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert!(!consumer.join().unwrap());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _: SpscQueue<u8> = SpscQueue::new(0);
    }
}
