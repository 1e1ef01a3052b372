//! RFC 2439 reuse lists: the quantised alternative to exact reuse timers.
//!
//! RFC 2439 §4.8.7 suggests implementing route reuse with an array of
//! lists scanned at a fixed tick, rather than one timer per suppressed
//! route. A route whose penalty will cross the reuse threshold at time
//! `t` is appended to the list for the tick covering `t`; each tick, the
//! due lists are drained and every entry re-checked (reuse can be
//! delayed by up to one granularity tick).
//!
//! This is the firehose's production reuse scheduler
//! (`rfd-firehose`'s `ShardState` keeps one per shard); the simulated
//! routers arm exact timers on the DES `TimerWheel` instead. The two
//! stay separate by measurement, not by accident: the firehose moved
//! onto the wheel reproduces every pinned aggregate, but an armed
//! entry costs 36 bytes there against 4 here (a `u32` slot in a
//! bucket), so the ledger's `firehose_poisson` `peak_rss_mb` went
//! 26.9 → 34.1 MiB (+27 %, over the 0.25 bound). See DESIGN.md,
//! "Settled by measurement".
//!
//! The storage is the RFC's actual shape: a fixed ring of per-tick
//! buckets addressed modulo the ring length, so the common schedule and
//! drain operations are array indexing rather than ordered-map
//! traffic. Deadlines beyond the ring window (or, defensively, behind
//! the drain cursor) spill to an ordered overflow map and are promoted
//! into the ring as the cursor advances.

use std::collections::BTreeMap;

use rfd_sim::{SimDuration, SimTime};

/// Number of ring buckets. With the firehose's default 10 s tick the
/// window spans ~85 minutes — past the longest vendor max-hold-down —
/// so overflow is the rare path.
const RING_SLOTS: usize = 512;

/// A quantised reuse schedule over keys of type `K` (e.g. (peer, prefix)
/// pairs).
///
/// # Examples
///
/// ```
/// use rfd_core::ReuseList;
/// use rfd_sim::{SimDuration, SimTime};
///
/// let mut list: ReuseList<&str> = ReuseList::new(SimDuration::from_secs(10));
/// list.schedule("route-a", SimTime::from_secs(25));
/// // Nothing due at t=20 (the covering tick ends at 30)…
/// assert!(list.drain_due(SimTime::from_secs(20)).is_empty());
/// // …the entry is released by the tick at t=30.
/// assert_eq!(list.drain_due(SimTime::from_secs(30)), vec!["route-a"]);
/// ```
#[derive(Debug, Clone)]
pub struct ReuseList<K> {
    granularity: SimDuration,
    /// Ring bucket for tick `t` is `ring[t % RING_SLOTS]`, valid for
    /// ticks in `[base, base + RING_SLOTS)`.
    ring: Vec<Vec<K>>,
    /// First tick not yet drained; every ring entry's tick is ≥ `base`.
    base: u64,
    /// Entries outside the ring window, keyed by tick.
    overflow: BTreeMap<u64, Vec<K>>,
    len: usize,
}

impl<K> ReuseList<K> {
    /// Creates a reuse list with the given tick granularity.
    ///
    /// # Panics
    ///
    /// Panics if `granularity` is zero.
    pub fn new(granularity: SimDuration) -> Self {
        assert!(!granularity.is_zero(), "granularity must be positive");
        ReuseList {
            granularity,
            ring: std::iter::repeat_with(Vec::new).take(RING_SLOTS).collect(),
            base: 0,
            overflow: BTreeMap::new(),
            len: 0,
        }
    }

    /// The tick granularity.
    pub fn granularity(&self) -> SimDuration {
        self.granularity
    }

    /// Number of scheduled entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tick index whose *end* covers `at` — entries are released at the
    /// end of their tick so reuse never happens early.
    fn bucket_for(&self, at: SimTime) -> u64 {
        at.as_micros().div_ceil(self.granularity.as_micros())
    }

    /// Schedules `key` for reuse no earlier than `reuse_at`.
    pub fn schedule(&mut self, key: K, reuse_at: SimTime) {
        let tick = self.bucket_for(reuse_at);
        if tick >= self.base && tick < self.base + RING_SLOTS as u64 {
            self.ring[(tick % RING_SLOTS as u64) as usize].push(key);
        } else {
            self.overflow.entry(tick).or_default().push(key);
        }
        self.len += 1;
    }

    /// The next instant at which [`ReuseList::drain_due`] will release
    /// something, if any entries are scheduled.
    pub fn next_due(&self) -> Option<SimTime> {
        let mut best: Option<u64> = self.overflow.keys().next().copied();
        for tick in self.base..self.base + RING_SLOTS as u64 {
            if best.is_some_and(|b| b <= tick) {
                break;
            }
            if !self.ring[(tick % RING_SLOTS as u64) as usize].is_empty() {
                best = Some(tick);
                break;
            }
        }
        best.map(|b| SimTime::from_micros(b * self.granularity.as_micros()))
    }

    /// Removes and returns every entry whose tick has passed by `now`,
    /// in tick order, preserving scheduling order within each tick.
    pub fn drain_due(&mut self, now: SimTime) -> Vec<K> {
        let current = now.as_micros() / self.granularity.as_micros();
        let mut due = Vec::new();
        // Ticks behind the cursor only ever live in overflow.
        if self.base > 0 {
            self.drain_overflow_upto(current.min(self.base - 1), &mut due);
        }
        if current >= self.base {
            let last_ring = current.min(self.base + RING_SLOTS as u64 - 1);
            for tick in self.base..=last_ring {
                let slot = (tick % RING_SLOTS as u64) as usize;
                self.len -= self.ring[slot].len();
                let mut bucket = std::mem::take(&mut self.ring[slot]);
                due.append(&mut bucket);
            }
            // A jump past the whole window makes far overflow due too.
            self.drain_overflow_upto(current, &mut due);
            self.base = current + 1;
            self.promote_overflow();
        }
        due
    }

    /// Drains every overflow bucket with tick ≤ `upto` into `out`, in
    /// ascending tick order.
    fn drain_overflow_upto(&mut self, upto: u64, out: &mut Vec<K>) {
        let rest = match upto.checked_add(1) {
            Some(bound) => self.overflow.split_off(&bound),
            None => BTreeMap::new(),
        };
        for (_, mut entries) in std::mem::replace(&mut self.overflow, rest) {
            self.len -= entries.len();
            out.append(&mut entries);
        }
    }

    /// Moves overflow buckets that fall inside the (advanced) ring
    /// window into their ring slots. The target slots are always empty:
    /// every tick they previously covered is behind the new cursor and
    /// was just drained.
    fn promote_overflow(&mut self) {
        let end = self.base + RING_SLOTS as u64;
        while let Some((&tick, _)) = self.overflow.first_key_value() {
            if tick >= end {
                break;
            }
            let entries = self.overflow.remove(&tick).expect("first key exists");
            let slot = (tick % RING_SLOTS as u64) as usize;
            debug_assert!(self.ring[slot].is_empty(), "promoted into occupied slot");
            self.ring[slot] = entries;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn releases_at_tick_boundary_never_early() {
        let mut list: ReuseList<u32> = ReuseList::new(SimDuration::from_secs(15));
        list.schedule(1, t(31)); // covering tick ends at 45
        assert!(list.drain_due(t(31)).is_empty());
        assert!(list.drain_due(t(44)).is_empty());
        assert_eq!(list.drain_due(t(45)), vec![1]);
        assert!(list.is_empty());
    }

    #[test]
    fn exact_boundary_releases_on_time() {
        let mut list: ReuseList<u32> = ReuseList::new(SimDuration::from_secs(10));
        list.schedule(7, t(30)); // exactly at a boundary
        assert!(list.drain_due(t(29)).is_empty());
        assert_eq!(list.drain_due(t(30)), vec![7]);
    }

    #[test]
    fn drains_multiple_ticks_in_order() {
        let mut list: ReuseList<&str> = ReuseList::new(SimDuration::from_secs(10));
        list.schedule("late", t(35));
        list.schedule("early-a", t(12));
        list.schedule("early-b", t(17));
        assert_eq!(list.len(), 3);
        assert_eq!(list.drain_due(t(100)), vec!["early-a", "early-b", "late"]);
        assert_eq!(list.len(), 0);
    }

    #[test]
    fn next_due_reports_earliest_tick() {
        let mut list: ReuseList<u32> = ReuseList::new(SimDuration::from_secs(10));
        assert_eq!(list.next_due(), None);
        list.schedule(1, t(25));
        list.schedule(2, t(5));
        assert_eq!(list.next_due(), Some(t(10)));
    }

    #[test]
    fn quantisation_delay_is_bounded_by_granularity() {
        // Whatever the requested time, release happens within one tick.
        let g = SimDuration::from_secs(7);
        let mut list: ReuseList<u64> = ReuseList::new(g);
        for reuse_at in [1u64, 6, 7, 8, 13, 20, 21] {
            list.schedule(reuse_at, t(reuse_at));
        }
        let mut released: Vec<(u64, u64)> = Vec::new(); // (requested, released_at)
        for tick in 0..5u64 {
            let now = tick * 7;
            for k in list.drain_due(t(now)) {
                released.push((k, now));
            }
        }
        assert_eq!(released.len(), 7);
        for (requested, released_at) in released {
            assert!(released_at >= requested, "never early");
            assert!(
                released_at - requested < 7,
                "delay bounded by granularity: {requested} → {released_at}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_granularity_panics() {
        let _: ReuseList<u32> = ReuseList::new(SimDuration::ZERO);
    }

    #[test]
    fn far_future_entries_spill_to_overflow_and_come_back() {
        // One-second ticks: the ring window is RING_SLOTS seconds wide,
        // so a deadline two windows out must take the overflow path and
        // still release exactly on its tick.
        let g = SimDuration::from_secs(1);
        let mut list: ReuseList<&str> = ReuseList::new(g);
        let far = 2 * RING_SLOTS as u64 + 5;
        list.schedule("far", t(far));
        list.schedule("near", t(3));
        assert_eq!(list.next_due(), Some(t(3)));
        assert_eq!(list.drain_due(t(3)), vec!["near"]);
        // The cursor advanced; the far entry is still pending.
        assert_eq!(list.len(), 1);
        assert_eq!(list.next_due(), Some(t(far)));
        assert!(list.drain_due(t(far - 1)).is_empty());
        assert_eq!(list.drain_due(t(far)), vec!["far"]);
        assert!(list.is_empty());
    }

    #[test]
    fn fifo_order_survives_overflow_promotion() {
        // Two entries on the same far tick, scheduled before the cursor
        // advances, plus one scheduled after promotion: release order is
        // scheduling order.
        let g = SimDuration::from_secs(1);
        let mut list: ReuseList<u32> = ReuseList::new(g);
        let far = RING_SLOTS as u64 + 50;
        list.schedule(1, t(far));
        list.schedule(2, t(far));
        // Advance the cursor into the window that contains `far`.
        assert!(list.drain_due(t(100)).is_empty());
        list.schedule(3, t(far));
        assert_eq!(list.drain_due(t(far)), vec![1, 2, 3]);
    }

    #[test]
    fn entries_behind_the_cursor_release_on_next_drain() {
        let g = SimDuration::from_secs(10);
        let mut list: ReuseList<u32> = ReuseList::new(g);
        assert!(list.drain_due(t(500)).is_empty());
        // Defensive: a deadline earlier than the drained-to point still
        // comes out on the next drain, never lost.
        list.schedule(9, t(40));
        assert_eq!(list.len(), 1);
        assert_eq!(list.drain_due(t(500)), vec![9]);
        assert!(list.is_empty());
    }

    #[test]
    fn huge_time_jump_drains_ring_and_overflow_in_tick_order() {
        let g = SimDuration::from_secs(1);
        let mut list: ReuseList<&str> = ReuseList::new(g);
        list.schedule("ring", t(10));
        list.schedule("overflow", t(RING_SLOTS as u64 + 700));
        let drained = list.drain_due(t(10 * RING_SLOTS as u64));
        assert_eq!(drained, vec!["ring", "overflow"]);
        assert!(list.is_empty());
        assert_eq!(list.next_due(), None);
    }
}
