//! The event queue.
//!
//! A simulation keeps every pending event in one [`EventQueue`]. Its
//! owner runs the loop: it reads the earliest pending event time with
//! [`EventQueue::next_time`], decides where to stop, and pops and
//! handles every event before that instant with
//! [`EventQueue::pop_before`]. The BGP model stops one minimum link
//! delay past the earliest event, and enforces its own horizon and
//! event budget (`rfd_bgp::Network`).
//!
//! Determinism comes from the **canonical event key**: a `u64` packing
//! `(source node, per-source sequence)` (see [`event_key`]). The queue
//! pops in `(time, key)` order (`TimerWheel::schedule_keyed`) whatever
//! order events were inserted in, so the order of processed events is a
//! pure function of the model.

use crate::time::SimTime;
use crate::wheel::TimerWheel;

/// Source id used in [`event_key`] for events injected by the
/// driver rather than created by a node (workload priming, link
/// schedules). `u32::MAX` sorts after every real node id, so at equal
/// timestamps injected events are processed after model-generated
/// ones.
pub const INJECTOR_SRC: u32 = u32::MAX;

/// Packs the canonical ordering key for one event: the creating node's
/// raw id in the high 32 bits, its per-source sequence number in the
/// low 32.
///
/// Keys are globally unique as long as each source keeps its own
/// monotone sequence (asserted here to stay below 2³²), and the order
/// `(time, key)` is then a total order on events.
#[inline]
pub fn event_key(src: u32, seq: u64) -> u64 {
    assert!(seq < (1 << 32), "per-source event sequence overflowed");
    (u64::from(src) << 32) | seq
}

/// The event queue and its clock, driven from outside: the owner pops
/// events with [`pop_before`](Self::pop_before), handles them, and
/// schedules what they cause. A clone is an independent copy of every
/// pending event and of the clock.
#[derive(Debug)]
pub struct EventQueue<E> {
    wheel: TimerWheel<E>,
    now: SimTime,
    processed: u64,
}

crate::clone_fields!(impl<E: Clone> Clone for EventQueue<E> { wheel, now, processed });

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            wheel: TimerWheel::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Schedules `event` at `at` under the canonical key (see
    /// [`event_key`]).
    pub fn schedule(&mut self, at: SimTime, key: u64, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled into the past: {at} < {}",
            self.now
        );
        self.wheel.schedule_keyed(at, key, event);
    }

    /// The earliest pending event time, if any.
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.wheel.peek_time()
    }

    /// Pops the earliest event if it is strictly before `end`,
    /// advancing the clock to it. Returns `(time, key, event)`.
    pub fn pop_before(&mut self, end: SimTime) -> Option<(SimTime, u64, E)> {
        let (at, key, event) = self.wheel.pop_keyed_before(end)?;
        self.now = at;
        self.processed += 1;
        Some((at, key, event))
    }

    /// The clock: the time of the last processed event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Overwrites the clock and processed count, for snapshot
    /// restore.
    pub fn set_clock(&mut self, now: SimTime, processed: u64) {
        self.now = now;
        self.processed = processed;
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending (live) events.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }
}

/// Why a run returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// The queue drained: no events remain.
    Quiescent,
    /// The earliest pending event lies beyond the horizon: the run did
    /// not finish, and its metrics describe a truncated workload.
    HorizonReached,
    /// The event budget was exhausted (runaway-model guard).
    BudgetExhausted,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn event_key_orders_by_source_then_sequence() {
        assert!(event_key(1, 5) < event_key(2, 0));
        assert!(event_key(2, 0) < event_key(2, 1));
        assert!(event_key(0, u32::MAX as u64) < event_key(1, 0));
        // Injected events sort after every node-created one.
        assert!(event_key(u32::MAX - 1, 0) < event_key(INJECTOR_SRC, 0));
    }

    #[test]
    #[should_panic(expected = "sequence overflowed")]
    fn event_key_rejects_sequence_overflow() {
        event_key(0, 1 << 32);
    }

    #[test]
    fn pop_before_respects_window_and_key_order() {
        let mut s = EventQueue::new();
        s.schedule(t(10), event_key(2, 0), "b");
        s.schedule(t(10), event_key(1, 0), "a");
        s.schedule(t(30), event_key(0, 0), "later");
        assert_eq!(s.next_time(), Some(t(10)));
        assert_eq!(s.pop_before(t(20)), Some((t(10), event_key(1, 0), "a")));
        assert_eq!(s.pop_before(t(20)), Some((t(10), event_key(2, 0), "b")));
        assert_eq!(s.pop_before(t(20)), None, "t=30 is outside the window");
        assert_eq!(s.now(), t(10));
        assert_eq!(s.processed(), 2);
        assert_eq!(s.pop_before(t(31)), Some((t(30), event_key(0, 0), "later")));
        assert!(s.is_empty());
    }
}
