//! The event queue and the window plan that drives it.
//!
//! A simulation keeps every pending event in one [`EventQueue`] and
//! advances it in windows planned by an [`EpochBarrier`]: the barrier
//! takes the earliest pending event time `t0`, and the model pops and
//! handles every event before `t0 + lookahead` (for the BGP model the
//! lookahead is the minimum link delay — see
//! `NetworkConfig::delay_range`). The barrier is where the horizon and
//! the event budget are enforced; the window count it keeps is a
//! statistic, not a synchronisation point.
//!
//! Determinism comes from the **canonical event key**: a `u64` packing
//! `(source node, per-source sequence)` (see [`event_key`]). The queue
//! pops in `(time, key)` order (`TimerWheel::schedule_keyed`) whatever
//! order events were inserted in, so the order of processed events is a
//! pure function of the model, and a snapshot that re-inserts the
//! pending events reproduces it exactly.

use crate::time::{SimDuration, SimTime};
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

/// The event queue and its clock, driven from outside by an
/// [`EpochBarrier`] window plan: the owner pops events with
/// [`pop_before`](Self::pop_before), handles them, and schedules what
/// they cause.
#[derive(Debug)]
pub struct EventQueue<E> {
    wheel: TimerWheel<E>,
    now: SimTime,
    processed: u64,
}

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
    /// [`event_key`]). Returns a raw id usable with
    /// [`cancel`](Self::cancel).
    pub fn schedule(&mut self, at: SimTime, key: u64, event: E) -> u64 {
        debug_assert!(
            at >= self.now,
            "scheduled into the past: {at} < {}",
            self.now
        );
        self.wheel.schedule_keyed(at, key, event)
    }

    /// Cancels a previously scheduled event by raw id. O(1).
    pub fn cancel(&mut self, id: u64) -> bool {
        self.wheel.cancel(id)
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

    /// Drains every pending event in canonical `(time, key)` order,
    /// re-schedules a clone of each, and returns the drained list.
    ///
    /// This is the snapshot capture path: pop order `(time, key)` is a
    /// pure function of the pending set, so re-inserting the events
    /// leaves future behavior byte-identical even though wheel-internal
    /// slot ids change. The clock and processed count are untouched.
    pub fn drain_pending(&mut self) -> Vec<(SimTime, u64, E)>
    where
        E: Clone,
    {
        let mut events = Vec::with_capacity(self.wheel.len());
        while let Some(entry) = self.wheel.pop_keyed() {
            events.push(entry);
        }
        for (at, key, event) in &events {
            self.wheel.schedule_keyed(*at, *key, event.clone());
        }
        events
    }

    /// Re-schedules events drained by
    /// [`drain_pending`](Self::drain_pending) (or decoded from a
    /// snapshot). Events may lie at or after arbitrary times —
    /// unlike [`schedule`](Self::schedule) this path does not assert
    /// against the clock, because a restored clock is set separately
    /// via [`set_clock`](Self::set_clock).
    pub fn restore_pending(&mut self, events: Vec<(SimTime, u64, E)>) {
        for (at, key, event) in events {
            self.wheel.schedule_keyed(at, key, event);
        }
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
    /// The earliest pending event lies beyond the horizon; it stays
    /// queued, so a later run with a later horizon continues from it.
    HorizonReached,
    /// The event budget was exhausted (runaway-model guard).
    BudgetExhausted,
}

/// What the driver should do next, as decided by
/// [`EpochBarrier::plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowPlan {
    /// Process every event before (exclusive) `end`.
    Run {
        /// Exclusive upper bound of the window.
        end: SimTime,
    },
    /// Stop: the run is over, for the given reason.
    Done(RunOutcome),
}

/// Plans the windows an [`EventQueue`] is advanced in.
///
/// The barrier owns the run limits (horizon, event budget) and the
/// lookahead; per window it takes the earliest pending event time and
/// returns the exclusive window end
/// `min(t0 + lookahead, horizon + 1µs)`. Capping at one past the
/// horizon makes the horizon exact: no event with `time > horizon` is
/// ever processed (the next plan reports
/// [`RunOutcome::HorizonReached`]), while events *at* the horizon still
/// run. The cap keeps `end > t0`, so every planned window makes
/// progress. Both sums saturate, so a horizon of [`SimTime::MAX`] means
/// "no horizon"; an event at `SimTime::MAX` itself is the one instant no
/// exclusive end can include, and counts as beyond any horizon.
#[derive(Debug)]
pub struct EpochBarrier {
    lookahead: SimDuration,
    horizon: SimTime,
    budget: u64,
    windows: u64,
}

impl EpochBarrier {
    /// Default cap on events per run; a guard against runaway models.
    pub const DEFAULT_EVENT_BUDGET: u64 = 500_000_000;

    /// Creates a barrier with the given lookahead, horizon and event
    /// budget. `lookahead` must be positive — a zero lookahead would
    /// plan empty windows forever.
    pub fn new(lookahead: SimDuration, horizon: SimTime, budget: u64) -> Self {
        assert!(
            lookahead > SimDuration::ZERO,
            "windows need a positive lookahead"
        );
        EpochBarrier {
            lookahead,
            horizon,
            budget,
            windows: 0,
        }
    }

    /// Number of windows planned so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Plans the next window given the earliest pending event time
    /// (`None` when the queue is empty) and the events processed so
    /// far in this run.
    pub fn plan(&mut self, min_next: Option<SimTime>, processed: u64) -> WindowPlan {
        let Some(t0) = min_next else {
            return WindowPlan::Done(RunOutcome::Quiescent);
        };
        if t0 > self.horizon {
            return WindowPlan::Done(RunOutcome::HorizonReached);
        }
        if processed >= self.budget {
            return WindowPlan::Done(RunOutcome::BudgetExhausted);
        }
        let natural = t0.saturating_add(self.lookahead);
        let cap = self.horizon.saturating_add(SimDuration::from_micros(1));
        let end = natural.min(cap);
        if end <= t0 {
            return WindowPlan::Done(RunOutcome::HorizonReached);
        }
        self.windows += 1;
        WindowPlan::Run { end }
    }
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

    #[test]
    fn barrier_plans_lookahead_windows() {
        let mut b = EpochBarrier::new(SimDuration::from_micros(100), t(1_000), 10);
        assert_eq!(b.plan(Some(t(40)), 0), WindowPlan::Run { end: t(140) });
        assert_eq!(b.plan(None, 1), WindowPlan::Done(RunOutcome::Quiescent));
        assert_eq!(b.windows(), 1);
    }

    #[test]
    fn barrier_caps_window_one_past_horizon() {
        let mut b = EpochBarrier::new(SimDuration::from_secs(1), t(1_000), 10);
        // An event exactly at the horizon still runs: end is horizon+1.
        assert_eq!(b.plan(Some(t(1_000)), 0), WindowPlan::Run { end: t(1_001) });
        // Beyond the horizon the event stays queued.
        assert_eq!(
            b.plan(Some(t(1_001)), 1),
            WindowPlan::Done(RunOutcome::HorizonReached)
        );
    }

    #[test]
    fn barrier_survives_a_horizon_at_simtime_max() {
        let mut b = EpochBarrier::new(SimDuration::from_secs(1), SimTime::MAX, 10);
        assert_eq!(
            b.plan(Some(t(40)), 0),
            WindowPlan::Run { end: t(1_000_040) },
            "the lookahead still bounds the window"
        );
        let late = t(u64::MAX - 5);
        assert_eq!(
            b.plan(Some(late), 1),
            WindowPlan::Run { end: SimTime::MAX },
            "both sums saturate instead of overflowing"
        );
        assert_eq!(
            b.plan(Some(SimTime::MAX), 2),
            WindowPlan::Done(RunOutcome::HorizonReached),
            "no exclusive end includes SimTime::MAX: stop, do not spin"
        );
        assert_eq!(b.windows(), 2);
    }

    #[test]
    fn barrier_reports_budget_exhaustion() {
        let mut b = EpochBarrier::new(SimDuration::from_micros(1), t(1_000), 2);
        assert_eq!(
            b.plan(Some(t(0)), 2),
            WindowPlan::Done(RunOutcome::BudgetExhausted)
        );
        assert!(matches!(b.plan(Some(t(0)), 1), WindowPlan::Run { .. }));
    }
}
