//! A hierarchical timer wheel absorbing the MRAI/reuse timer flood.
//!
//! The wheel is the event agenda: it pops in `(time, key)` order under
//! caller-supplied keys and cancels in O(1), while making the
//! schedule/pop flood cheap: scheduling hashes the deadline into one of
//! four levels of 64 slots (slot widths growing by 64× per level,
//! ~16 ms at level 0 to ~76 h of total span), and popping drains one
//! slot at a time into a small "front" heap that provides the exact
//! global ordering.
//!
//! * **Front heap** — all live entries with `at < cursor` live in a
//!   `BinaryHeap` ordered by `(at, key, slab index)`. Because every
//!   wheel/overflow entry is `≥ cursor`, the front minimum is the global
//!   minimum, so pop order is identical to a plain binary heap's. The
//!   heap only ever holds one drained slot's worth of entries (plus
//!   stragglers scheduled into the past), so its `log n` is tiny.
//! * **Slot lists** — each of the 256 slots is a chain of 64-byte blocks
//!   of slab indices in one shared arena, with a head index per slot and
//!   a free-block list. A drained block goes back on that list, so a
//!   wheel allocates only when its arena reaches a new peak, never per
//!   slot; a cascade reads its slot 14 indices per cache line.
//! * **Cancellation** — entries live in a slab with per-slot generation
//!   stamps; the raw `u64` id packs `(generation, slot)`. Cancel flips
//!   the slot state and drops the payload in O(1) — no tombstone set to
//!   grow under MRAI reprogramming churn.
//! * **Overflow** — deadlines beyond the top level's rotation go to an
//!   ordered set and are re-hashed into the wheel when the cursor
//!   reaches them (never at simulation scale: the span is ~76 hours).

use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of the level-0 slot width in µs (2^14 µs ≈ 16.4 ms).
const SHIFT0: u32 = 14;
/// log2 of the slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of levels. Total span 2^(14 + 6·4) µs ≈ 76 h.
const LEVELS: usize = 4;
/// Slab indices per arena block: 14 of them, a fill count and a link
/// make 64 bytes.
const BLOCK_LEN: usize = 14;
/// The end of a block chain.
const NIL: u32 = u32::MAX;

const fn shift(level: usize) -> u32 {
    SHIFT0 + SLOT_BITS * level as u32
}

/// Width of one slot at `level`, in µs.
const fn slot_size(level: usize) -> u64 {
    1 << shift(level)
}

/// Width of one full rotation at `level`, in µs.
const fn span(level: usize) -> u64 {
    slot_size(level) << SLOT_BITS
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Free,
    Live,
    Cancelled,
}

#[derive(Debug, Clone)]
struct SlabEntry<E> {
    at: u64,
    key: u64,
    gen: u32,
    state: SlotState,
    event: Option<E>,
}

/// One arena block of a slot's list (or of the free-block list).
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Block {
    idx: [u32; BLOCK_LEN],
    len: u32,
    /// The next block of the same chain, or [`NIL`].
    next: u32,
}

/// The wheel. The simulator drives it through
/// [`EventQueue`](crate::EventQueue); it is public so the property
/// tests can pin it against a reference binary-heap model directly.
#[derive(Debug)]
pub struct TimerWheel<E> {
    slab: Vec<SlabEntry<E>>,
    free: Vec<u32>,
    /// The block arena every slot list lives in.
    blocks: Vec<Block>,
    /// Head of the free-block chain.
    free_block: u32,
    /// `heads[level * SLOTS + slot]`: the slot's newest block, or [`NIL`].
    heads: [u32; LEVELS * SLOTS],
    /// Per-level bitmap of non-empty slots.
    occupancy: [u64; LEVELS],
    /// Deadlines beyond the top rotation, as `(at, key, slab index)`.
    overflow: BTreeSet<(u64, u64, u32)>,
    /// Entries with `at < cur`, ordered by `(at, key, slab index)`.
    front: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Cursor in µs: the wheel never holds an entry earlier than this.
    cur: u64,
    live: usize,
}

crate::clone_fields!(impl<E: Clone> Clone for TimerWheel<E> {
    slab, free, blocks, free_block, heads, occupancy, overflow, front, cur, live,
});

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        TimerWheel {
            slab: Vec::new(),
            free: Vec::new(),
            blocks: Vec::new(),
            free_block: NIL,
            heads: [NIL; LEVELS * SLOTS],
            occupancy: [0; LEVELS],
            overflow: BTreeSet::new(),
            front: BinaryHeap::new(),
            cur: 0,
            live: 0,
        }
    }

    /// Schedules `event` at `at` under a caller-supplied ordering key;
    /// the returned raw id packs `(generation, slab slot)`.
    ///
    /// Pop order is exactly `(at, key)` — the contract the simulator's
    /// canonical event order is built on. Entries sharing an `(at, key)`
    /// pair are all kept, in the wheel and past its span alike, and pop
    /// in slab-slot order (schedule order while no slot is recycled in
    /// between); [`event_key`] keys are unique by construction, so the
    /// simulator never relies on that.
    ///
    /// [`event_key`]: crate::event_key
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, event: E) -> u64 {
        let at_us = at.as_micros();
        let idx = self.alloc(at_us, key, event);
        if at_us < self.cur {
            // Behind the cursor (e.g. scheduling at "now" mid-slot):
            // straight to the front heap, preserving global order.
            self.front.push(Reverse((at_us, key, idx)));
        } else {
            self.place(idx, at_us, key);
        }
        let gen = self.slab[idx as usize].gen;
        (u64::from(gen) << 32) | u64::from(idx)
    }

    fn alloc(&mut self, at: u64, key: u64, event: E) -> u32 {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            let entry = &mut self.slab[idx as usize];
            entry.at = at;
            entry.key = key;
            entry.state = SlotState::Live;
            entry.event = Some(event);
            return idx;
        }
        let idx = u32::try_from(self.slab.len()).expect("timer wheel slab exhausted");
        self.slab.push(SlabEntry {
            at,
            key,
            gen: 1,
            state: SlotState::Live,
            event: Some(event),
        });
        idx
    }

    /// Hashes an entry with `at >= self.cur` into its level/slot (or
    /// overflow).
    fn place(&mut self, idx: u32, at: u64, key: u64) {
        debug_assert!(at >= self.cur);
        for level in 0..LEVELS {
            // End of the cursor's current rotation at this level;
            // entries confined to it can never alias a wrapped slot.
            let rot_end = (self.cur | (span(level) - 1)) + 1;
            if at < rot_end {
                let slot = ((at >> shift(level)) & (SLOTS as u64 - 1)) as usize;
                self.push_to(level * SLOTS + slot, idx);
                self.occupancy[level] |= 1 << slot;
                return;
            }
        }
        self.overflow.insert((at, key, idx));
    }

    /// Appends a slab index to list `list`, starting a block (a recycled
    /// one when the free-block chain has one) when the newest is full.
    fn push_to(&mut self, list: usize, idx: u32) {
        let head = self.heads[list];
        if let Some(block) = self.blocks.get_mut(head as usize) {
            if (block.len as usize) < BLOCK_LEN {
                block.idx[block.len as usize] = idx;
                block.len += 1;
                return;
            }
        }
        let mut fresh = Block {
            idx: [0; BLOCK_LEN],
            len: 1,
            next: head,
        };
        fresh.idx[0] = idx;
        self.heads[list] = if self.free_block == NIL {
            self.blocks.push(fresh);
            u32::try_from(self.blocks.len() - 1).expect("timer wheel arena exhausted")
        } else {
            let at = self.free_block;
            self.free_block = std::mem::replace(&mut self.blocks[at as usize], fresh).next;
            at
        };
    }

    /// Unlinks the first block of the detached chain `chain` onto the
    /// free-block list and returns a copy of it, so the caller can
    /// place its entries while the arena is free to reuse the block.
    fn pop_block(&mut self, chain: &mut u32) -> Option<Block> {
        let at = *chain;
        let block = *self.blocks.get(at as usize)?;
        *chain = block.next;
        self.blocks[at as usize].next = self.free_block;
        self.free_block = at;
        Some(block)
    }

    /// Cancels a raw id. O(1); returns `true` the first time a live
    /// entry is cancelled.
    pub fn cancel(&mut self, id: u64) -> bool {
        let idx = (id & u32::MAX as u64) as usize;
        let gen = (id >> 32) as u32;
        match self.slab.get_mut(idx) {
            Some(entry) if entry.gen == gen && entry.state == SlotState::Live => {
                entry.state = SlotState::Cancelled;
                entry.event = None;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Number of live (not cancelled, not delivered) entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Releases a slab slot, bumping its generation so stale ids miss.
    fn release(&mut self, idx: u32) {
        let entry = &mut self.slab[idx as usize];
        debug_assert!(entry.state != SlotState::Free);
        entry.state = SlotState::Free;
        entry.event = None;
        entry.gen = entry.gen.wrapping_add(1);
        self.free.push(idx);
    }

    /// Ensures the front heap's minimum is a live entry, advancing the
    /// wheel as needed. Returns that entry's `(at, key, idx)`.
    fn settle(&mut self) -> Option<(u64, u64, u32)> {
        loop {
            while let Some(&Reverse(key @ (_, _, idx))) = self.front.peek() {
                if self.slab[idx as usize].state == SlotState::Live {
                    return Some(key);
                }
                self.front.pop();
                self.release(idx);
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Removes and returns the earliest live event together with its
    /// ordering key.
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        let head = self.settle()?;
        Some(self.take(head))
    }

    /// Like [`pop_keyed`](Self::pop_keyed), but leaves the earliest
    /// live event queued (and returns `None`) unless it is strictly
    /// before `end`. One settle serves the check and the removal.
    pub fn pop_keyed_before(&mut self, end: SimTime) -> Option<(SimTime, u64, E)> {
        let head = self.settle()?;
        (head.0 < end.as_micros()).then(|| self.take(head))
    }

    /// Removes the entry [`settle`](Self::settle) just returned.
    fn take(&mut self, (at, key, idx): (u64, u64, u32)) -> (SimTime, u64, E) {
        self.front.pop();
        let event = self.slab[idx as usize].event.take().expect("live entry");
        self.release(idx);
        self.live -= 1;
        (SimTime::from_micros(at), key, event)
    }

    /// The timestamp of the earliest live event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.settle().map(|(at, _, _)| SimTime::from_micros(at))
    }

    /// Moves the wheel forward until the front heap has entries (one
    /// drained level-0 slot at a time) or everything is empty.
    ///
    /// The next slot to process is chosen across *all* levels by
    /// minimal absolute slot start — not "level 0 first". A higher
    /// level's slot can cover the cursor's own level-0 rotation (an
    /// entry parked there before the cursor crossed the rotation
    /// boundary), and its window then starts at or before the cursor,
    /// i.e. earlier than any level-0 candidate. Draining level 0 first
    /// would deliver newer entries ahead of it.
    fn advance(&mut self) -> bool {
        loop {
            if self.live == 0 {
                return false;
            }
            // (slot_start, level, slot) of the earliest occupied slot,
            // scanning each level from the cursor's slot (inclusive)
            // onward. Slots behind the cursor's rotation position are
            // provably empty: placement confines entries to the
            // cursor's rotation, and the cursor never passes an
            // occupied slot without processing it.
            let mut best: Option<(u64, usize, usize)> = None;
            for level in 0..LEVELS {
                let idx_l = ((self.cur >> shift(level)) & (SLOTS as u64 - 1)) as u32;
                let masked = self.occupancy[level] & (!0u64 << idx_l);
                if masked == 0 {
                    continue;
                }
                let slot = masked.trailing_zeros() as usize;
                let rot_base = self.cur & !(span(level) - 1);
                let slot_start = rot_base + slot as u64 * slot_size(level);
                // `<=`: on equal starts the higher (coarser) level
                // wins — its window contains the finer slot's, so it
                // must cascade before the finer slot drains.
                if best.is_none_or(|(start, _, _)| slot_start <= start) {
                    best = Some((slot_start, level, slot));
                }
            }
            // A slot whose window covers the cursor (start ≤ cur) may
            // hold entries earlier than anything else in the wheel —
            // including entries in *other* cursor-covering slots at
            // different levels — so every such slot must be cascaded
            // before any stray it spills into the front heap is allowed
            // to surface.
            if let Some((slot_start, level, slot)) = best {
                if level > 0 && slot_start <= self.cur {
                    self.cascade(slot_start, level, slot);
                    continue;
                }
            }
            if !self.front.is_empty() {
                // Strays from cursor-covering cascades; nothing in the
                // wheel precedes the cursor now, so they are the
                // global minimum.
                return true;
            }
            match best {
                Some((slot_start, 0, slot)) => {
                    // Drain the level-0 slot into the front heap.
                    self.occupancy[0] &= !(1 << slot);
                    let mut chain = std::mem::replace(&mut self.heads[slot], NIL);
                    let mut any = false;
                    while let Some(block) = self.pop_block(&mut chain) {
                        for &idx in &block.idx[..block.len as usize] {
                            let entry = &self.slab[idx as usize];
                            if entry.state == SlotState::Live {
                                self.front.push(Reverse((entry.at, entry.key, idx)));
                                any = true;
                            } else {
                                self.release(idx);
                            }
                        }
                    }
                    self.cur = slot_start + slot_size(0);
                    if any {
                        return true;
                    }
                }
                Some((slot_start, level, slot)) => {
                    // A future slot at a higher level: jump the cursor
                    // to its window and redistribute it downward.
                    self.cur = slot_start;
                    self.cascade(slot_start, level, slot);
                }
                None => {
                    // Wheel empty: pull the overflow horizon in. Every
                    // overflow key is beyond the cursor's top-level
                    // rotation, so no wheel entry can precede it.
                    let Some(&(at, _, _)) = self.overflow.first() else {
                        // Only cancelled debris was left.
                        debug_assert_eq!(self.live, 0);
                        return false;
                    };
                    self.cur = at;
                    let horizon = (self.cur | (span(LEVELS - 1) - 1)) + 1;
                    while self.overflow.first().is_some_and(|&(at, ..)| at < horizon) {
                        let (at, key, idx) = self.overflow.pop_first().expect("checked above");
                        if self.slab[idx as usize].state == SlotState::Live {
                            self.place(idx, at, key);
                        } else {
                            self.release(idx);
                        }
                    }
                }
            }
        }
    }

    /// Redistributes one higher-level slot into lower levels. Entries
    /// already earlier than the cursor (possible only when the slot's
    /// window covers the cursor) go straight to the front heap.
    fn cascade(&mut self, slot_start: u64, level: usize, slot: usize) {
        debug_assert!(level > 0 && self.cur >= slot_start);
        self.occupancy[level] &= !(1 << slot);
        let mut chain = std::mem::replace(&mut self.heads[level * SLOTS + slot], NIL);
        while let Some(block) = self.pop_block(&mut chain) {
            for &idx in &block.idx[..block.len as usize] {
                let entry = &self.slab[idx as usize];
                if entry.state != SlotState::Live {
                    self.release(idx);
                } else if entry.at < self.cur {
                    self.front.push(Reverse((entry.at, entry.key, idx)));
                } else {
                    let (at, key) = (entry.at, entry.key);
                    self.place(idx, at, key);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t_us(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// Pops everything left, as `(µs, key, event)`.
    fn drain<E>(w: &mut TimerWheel<E>) -> Vec<(u64, u64, E)> {
        std::iter::from_fn(|| w.pop_keyed())
            .map(|(at, key, e)| (at.as_micros(), key, e))
            .collect()
    }

    #[test]
    fn pops_across_level_boundaries_in_order() {
        let mut w = TimerWheel::new();
        // One entry per level, plus overflow.
        let times = [
            1u64,                 // level 0
            slot_size(1) * 3 + 7, // level 1
            slot_size(2) * 5 + 9, // level 2
            slot_size(3) * 2 + 3, // level 3
            span(LEVELS - 1) + 1, // overflow
        ];
        for (i, &at) in times.iter().enumerate() {
            w.schedule_keyed(t_us(at), i as u64, i);
        }
        let expect: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, i as u64, i))
            .collect();
        assert_eq!(drain(&mut w), expect);
    }

    #[test]
    fn schedule_behind_cursor_still_pops_in_global_order() {
        let mut w = TimerWheel::new();
        w.schedule_keyed(t_us(100), 1, "a");
        assert_eq!(w.pop_keyed().unwrap().2, "a");
        // The cursor has advanced past 100; an earlier deadline must
        // still pop before a later one, and a smaller key at the same
        // past instant first.
        w.schedule_keyed(t_us(10_000_000), 0, "future");
        w.schedule_keyed(t_us(50), 4, "late");
        w.schedule_keyed(t_us(50), 3, "early");
        assert_eq!(
            drain(&mut w),
            [(50, 3, "early"), (50, 4, "late"), (10_000_000, 0, "future")]
        );
    }

    #[test]
    fn generation_stamps_invalidate_delivered_ids() {
        let mut w = TimerWheel::new();
        let a = w.schedule_keyed(t_us(10), 0, 1);
        assert_eq!(w.pop_keyed(), Some((t_us(10), 0, 1)));
        // The slab slot is recycled; the old id's generation is stale.
        let b = w.schedule_keyed(t_us(20), 1, 2);
        assert!(
            !w.cancel(a),
            "delivered id must not cancel the recycled slot"
        );
        assert!(w.cancel(b));
        assert!(w.is_empty());
        assert_eq!(w.pop_keyed(), None);
    }

    #[test]
    fn cancel_is_exact_and_idempotent() {
        let mut w = TimerWheel::new();
        assert!(!w.cancel(42), "unknown id");
        let ids: Vec<u64> = (0..1000)
            .map(|i| w.schedule_keyed(t_us(i * 1_000_000), i, i))
            .collect();
        for &id in &ids[1..] {
            assert!(w.cancel(id));
        }
        assert!(!w.cancel(ids[1]), "double cancel reports false");
        assert_eq!(w.len(), 1, "len tracks live entries exactly");
        assert_eq!(w.peek_time(), Some(t_us(0)));
        assert_eq!(w.pop_keyed(), Some((t_us(0), 0, 0)));
        assert!(!w.cancel(ids[0]), "delivered id is stale");
        assert!(w.is_empty());
        assert_eq!(w.peek_time(), None);
    }

    #[test]
    fn cancelled_entries_are_skipped_at_every_layer() {
        let mut w = TimerWheel::new();
        let ids: Vec<u64> = [
            (5u64, 1),
            (slot_size(1) + 1, 0),
            (span(LEVELS - 1) + 10, 0), // overflow
            (7, 0),                     // same slot as the kept entry
        ]
        .iter()
        .map(|&(at, key)| w.schedule_keyed(t_us(at), key, at))
        .collect();
        w.schedule_keyed(t_us(7), 1, 7);
        for id in ids {
            assert!(w.cancel(id));
        }
        assert_eq!(w.len(), 1);
        assert_eq!(drain(&mut w), [(7, 1, 7)]);
    }

    #[test]
    fn keyed_entries_pop_in_time_then_key_order() {
        let mut w = TimerWheel::new();
        // Same instant, keys deliberately scheduled out of order; plus
        // entries across level boundaries and in the overflow region.
        let entries = [
            (500, 9u64, "t500/k9"),
            (500, 2, "t500/k2"),
            (500, 5, "t500/k5"),
            (slot_size(2) + 3, 1, "far"),
            (span(LEVELS - 1) + 8, 0, "overflow"),
            (3, 77, "first"),
        ];
        for &(at, key, tag) in &entries {
            w.schedule_keyed(t_us(at), key, tag);
        }
        let mut expect = entries.to_vec();
        expect.sort_unstable_by_key(|&(at, key, _)| (at, key));
        assert_eq!(drain(&mut w), expect);
    }

    #[test]
    fn pop_keyed_before_is_exclusive_and_leaves_the_head_queued() {
        let mut w = TimerWheel::new();
        let dead = w.schedule_keyed(t_us(5), 0, "cancelled");
        w.schedule_keyed(t_us(10), 2, "b");
        w.schedule_keyed(t_us(10), 1, "a");
        w.schedule_keyed(t_us(slot_size(1) + 4), 3, "far");
        assert!(w.cancel(dead));
        assert_eq!(w.pop_keyed_before(t_us(10)), None, "end is exclusive");
        assert_eq!(w.len(), 3, "a refused pop removes nothing");
        assert_eq!(w.pop_keyed_before(t_us(11)), Some((t_us(10), 1, "a")));
        assert_eq!(w.pop_keyed_before(t_us(11)), Some((t_us(10), 2, "b")));
        assert_eq!(w.pop_keyed_before(t_us(11)), None);
        assert_eq!(w.peek_time(), Some(t_us(slot_size(1) + 4)));
        assert_eq!(w.pop_keyed().unwrap().2, "far");
        assert_eq!(w.pop_keyed_before(SimTime::MAX), None, "empty wheel");
    }

    #[test]
    fn dense_same_slot_entries_pop_in_key_order() {
        let mut w = TimerWheel::new();
        let t = slot_size(0) * 3 + 100;
        for key in (0..50).rev() {
            w.schedule_keyed(t_us(t), key, key);
        }
        let expect: Vec<_> = (0..50).map(|key| (t, key, key)).collect();
        assert_eq!(drain(&mut w), expect);
    }

    #[test]
    fn duplicate_keys_keep_both_events_in_and_past_the_span() {
        for at in [SimTime::from_secs(1), SimTime::from_secs(100 * 3600)] {
            let mut w = TimerWheel::new();
            w.schedule_keyed(at, 7, "a");
            w.schedule_keyed(at, 7, "b");
            assert_eq!(w.len(), 2);
            assert_eq!(w.pop_keyed(), Some((at, 7, "a")), "at {at}");
            assert_eq!(w.pop_keyed(), Some((at, 7, "b")), "at {at}");
            assert_eq!((w.pop_keyed(), w.len()), (None, 0), "at {at}");
        }
    }

    #[test]
    fn recycled_blocks_keep_slot_lists_apart() {
        // More entries than one block holds, in two slots, drained and
        // refilled so the second round runs on recycled blocks.
        let mut w = TimerWheel::new();
        for round in 0..2u64 {
            let base = round * slot_size(2);
            for key in 0..40u64 {
                let at = base + (key % 2) * slot_size(1) + key;
                w.schedule_keyed(t_us(at), key, key);
            }
            let got: Vec<u64> = drain(&mut w).into_iter().map(|(_, k, _)| k).collect();
            let (even, odd): (Vec<u64>, Vec<u64>) = (0..40).partition(|k| k % 2 == 0);
            assert_eq!(got, [even, odd].concat(), "round {round}");
        }
        assert!(w.blocks.len() <= 4, "{} blocks", w.blocks.len());
    }
}
