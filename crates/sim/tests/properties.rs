//! Property-based tests for the simulation kernel.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use proptest::prelude::*;
use rfd_sim::{event_key, DetRng, EventQueue, SimDuration, SimTime, TimerWheel};

/// Reference model of the agenda: a binary heap ordered by
/// `(time, insertion sequence)` with a tombstone set for cancellation.
/// Obviously right rather than fast; [`TimerWheel`] is pinned against it.
#[derive(Default)]
struct HeapScheduler<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    events: Vec<Option<E>>,
    cancelled: HashSet<u64>,
}

impl<E> HeapScheduler<E> {
    fn schedule(&mut self, at: SimTime, event: E) -> u64 {
        let seq = self.events.len() as u64;
        self.events.push(Some(event));
        self.heap.push(Reverse((at, seq)));
        seq
    }

    /// Cancels a handle that is still pending (the only kind the
    /// differential tests cancel); `false` on a repeat.
    fn cancel(&mut self, id: u64) -> bool {
        self.cancelled.insert(id)
    }

    /// Drops tombstoned entries from the front so the top is live.
    fn settle(&mut self) {
        while let Some(&Reverse((_, seq))) = self.heap.peek() {
            if !self.cancelled.remove(&seq) {
                break;
            }
            self.heap.pop();
        }
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.settle();
        let Reverse((at, seq)) = self.heap.pop()?;
        Some((at, self.events[seq as usize].take().expect("popped once")))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.settle();
        self.heap.peek().map(|&Reverse((at, _))| at)
    }

    fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }
}

proptest! {
    /// Events always pop in non-decreasing time order, regardless of the
    /// insertion order.
    #[test]
    fn wheel_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut s = TimerWheel::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((at, _)) = s.pop() {
            prop_assert!(at >= last);
            last = at;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Among events with equal timestamps, delivery preserves insertion
    /// order (FIFO).
    #[test]
    fn wheel_equal_times_fifo(n in 1usize..100, t in 0u64..1_000) {
        let mut s = TimerWheel::new();
        for i in 0..n {
            s.schedule(SimTime::from_micros(t), i);
        }
        let popped: Vec<usize> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(popped, (0..n).collect::<Vec<_>>());
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn wheel_cancellation_exact(
        times in proptest::collection::vec(0u64..10_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut s = TimerWheel::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, s.schedule(SimTime::from_micros(t), i)))
            .collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, id) in &ids {
            let cancelled = cancel_mask.get(*i).copied().unwrap_or(false);
            if cancelled {
                s.cancel(*id);
            } else {
                expect.push(*i);
            }
        }
        let mut popped: Vec<usize> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        popped.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(popped, expect);
    }

    /// The event queue delivers every scheduled event exactly once, in
    /// time order, and counts them.
    #[test]
    fn event_queue_delivers_all_once(times in proptest::collection::vec(0u64..100_000, 1..100)) {
        let mut queue = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            queue.schedule(SimTime::from_micros(t), event_key(0, i as u64), ());
        }
        let end = SimTime::from_micros(100_000);
        let seen: Vec<SimTime> =
            std::iter::from_fn(|| queue.pop_before(end).map(|(at, _, ())| at)).collect();
        prop_assert!(queue.is_empty());
        prop_assert_eq!(queue.processed() as usize, times.len());
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(
            seen,
            sorted.into_iter().map(SimTime::from_micros).collect::<Vec<_>>()
        );
    }

    /// Two engines with identical seeds and schedules produce identical
    /// random draw sequences (determinism).
    #[test]
    fn rng_determinism(seed in any::<u64>(), draws in 1usize..200) {
        let mut a = DetRng::from_seed(seed);
        let mut b = DetRng::from_seed(seed);
        for _ in 0..draws {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Uniform duration draws stay within bounds.
    #[test]
    fn rng_duration_in_bounds(seed in any::<u64>(), lo in 0u64..1000, span in 0u64..1000) {
        let mut rng = DetRng::from_seed(seed);
        let lo_d = SimDuration::from_micros(lo);
        let hi_d = SimDuration::from_micros(lo + span);
        for _ in 0..50 {
            let d = rng.duration_between(lo_d, hi_d);
            prop_assert!(d >= lo_d && d <= hi_d);
        }
    }

    /// SimTime arithmetic: (t + d) - d == t and ordering is preserved
    /// under shifting.
    #[test]
    fn time_arithmetic_consistent(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let time = SimTime::from_micros(t);
        let dur = SimDuration::from_micros(d);
        prop_assert_eq!((time + dur) - dur, time);
        prop_assert_eq!((time + dur) - time, dur);
        prop_assert!(time + dur >= time);
    }

    /// Differential test: [`TimerWheel`] and the reference
    /// [`HeapScheduler`] deliver identical `(time, payload)` streams
    /// under randomized interleavings of schedule, cancel (of live
    /// handles only — the model does not track delivered ones), and pop. Times are
    /// drawn from a coarse palette so FIFO ties are common.
    #[test]
    fn wheel_matches_heap_reference(
        ops in proptest::collection::vec(
            (0u8..8, 0u64..40, 0usize..64),
            1..300,
        )
    ) {
        let mut wheel = TimerWheel::new();
        let mut heap = HeapScheduler::default();
        // Live (not yet cancelled or popped) handles, keyed by payload.
        let mut live: Vec<(usize, u64, u64)> = Vec::new();
        let mut next_payload = 0usize;
        // Pops advance time, so remember the floor: scheduling in the
        // past is legal, but keep most inserts clustered for ties.
        for (sel, t_raw, idx) in ops {
            match sel {
                0..=4 => {
                    // Mix a coarse palette (multiples of 250 ms, forcing
                    // FIFO ties) with irregular fine-grained deadlines
                    // that straddle wheel rotation boundaries.
                    let at = if sel < 3 {
                        SimTime::from_micros(t_raw * 250_000)
                    } else {
                        SimTime::from_micros(t_raw * 77_251)
                    };
                    let p = next_payload;
                    next_payload += 1;
                    let idw = wheel.schedule(at, p);
                    let idh = heap.schedule(at, p);
                    live.push((p, idw, idh));
                }
                5 | 6 if !live.is_empty() => {
                    let (_, idw, idh) = live.swap_remove(idx % live.len());
                    prop_assert_eq!(wheel.cancel(idw), heap.cancel(idh));
                }
                _ => {
                    let a = wheel.pop();
                    let b = heap.pop();
                    prop_assert_eq!(a, b);
                    if let Some((_, p)) = a {
                        live.retain(|(lp, _, _)| *lp != p);
                    }
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
        }
        // Drain both to the end: every remaining event must come out in
        // the same (time, FIFO) order with the same payload.
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Same differential, but with timestamps spanning every wheel
    /// level and beyond its 76-hour top rotation (overflow map), plus
    /// behind-cursor inserts after pops.
    #[test]
    fn wheel_matches_heap_across_levels_and_overflow(
        ops in proptest::collection::vec(
            (0u8..6, 0u64..64, 0u32..46),
            1..200,
        )
    ) {
        let mut wheel = TimerWheel::new();
        let mut heap = HeapScheduler::default();
        for (sel, mant, shift) in ops {
            if sel < 4 {
                // mant << shift sweeps from microseconds to ~2000 hours,
                // crossing every level boundary and into overflow.
                let at = SimTime::from_micros(mant << shift.min(45));
                let p = (mant, shift);
                wheel.schedule(at, p);
                heap.schedule(at, p);
            } else {
                prop_assert_eq!(wheel.pop(), heap.pop());
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
