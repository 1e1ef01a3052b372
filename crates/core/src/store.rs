//! SoA damper store: the hot-path engine behind per-route damping.
//!
//! A [`DamperStore`] holds the damping state of many (peer, prefix)
//! entries in parallel dense arrays — penalty, decay anchor, flags, and
//! reuse deadline — with free-list slot recycling, so that decay and
//! eviction sweeps walk cache-linear memory instead of chasing
//! per-entry heap boxes. It exposes the same operations as the
//! per-entry [`Damper`](crate::Damper) state machine, keyed by slot;
//! `Damper` stays beside it as the reference model the store is tested
//! against and as the engine of the analytic curves.
//!
//! The store runs in one of two decay modes:
//!
//! * [`DecayMode::Exact`] — penalties are `f64` values decayed with the
//!   closed-form exponential, replicating [`Damper`](crate::Damper)
//!   **bit for bit** (the store-vs-damper property test pins this).
//!   This is the default: golden experiment outputs are frozen against
//!   it.
//! * [`DecayMode::Bucketed`] — the RFC 2439 §4.8.6 production shape:
//!   penalties are fixed-point milli-units, update instants quantise to
//!   a decay tick, and decay is a [`DecayTable`] lookup (`powi` for
//!   beyond-table chunks) instead of `exp()` per touch. Fixed-point
//!   integers also make shard aggregation order-free. Transcendentals
//!   survive only where RFC 2439 needs them: computing a reuse deadline
//!   at suppression onset and at reuse-timer checks.

use std::sync::Arc;

use rfd_sim::{SimDuration, SimTime};

use crate::damper::{ChargeOutcome, ReuseCheck};
use crate::decay_table::{DecayTable, TickDiv};
use crate::params::DampingParams;
use crate::penalty::Penalty;
use crate::update::UpdateKind;

/// Slot is live (not on the free list).
const OCCUPIED: u8 = 1;
/// Route is suppressed.
const SUPPRESSED: u8 = 2;
/// Route is reachable — selects the reachable decay rate.
const REACHABLE: u8 = 4;

/// How the store computes decay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecayMode {
    /// Closed-form `exp()` per touch; bit-identical to
    /// [`Damper`](crate::Damper).
    Exact,
    /// Fixed-point milli-units with table-lookup decay on a quantised
    /// tick.
    Bucketed,
}

/// Precomputed bucketed-mode constants, shared between clones.
#[derive(Debug)]
struct Tables {
    /// Decay per tick while reachable.
    reachable: DecayTable,
    /// Decay per tick while unreachable (RFC 2439 §4.2 dual rate).
    unreachable: DecayTable,
    tick_us: u64,
    /// Timestamp-to-tick quantisation without a hardware divide.
    tick_div: TickDiv,
    cutoff_milli: u64,
    reuse_milli: u64,
    forgive_milli: u64,
    ceiling_milli: u64,
    /// Per-[`UpdateKind`] penalty increments in milli-units, indexed by
    /// [`Tables::kind_milli`] — saves a float multiply + round on every
    /// update.
    withdrawal_milli: u64,
    reannouncement_milli: u64,
    attribute_change_milli: u64,
    duplicate_milli: u64,
}

impl Tables {
    #[inline]
    fn kind_milli(&self, kind: UpdateKind) -> u64 {
        match kind {
            UpdateKind::Withdrawal => self.withdrawal_milli,
            UpdateKind::ReAnnouncement => self.reannouncement_milli,
            UpdateKind::AttributeChange => self.attribute_change_milli,
            UpdateKind::Duplicate => self.duplicate_milli,
        }
    }
}

/// The raw slot arrays of a [`DamperStore`], exported for
/// checkpointing and re-imported into a freshly constructed store of
/// the same mode and parameters (params and decay tables are rebuilt
/// from config on restore, never serialized).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DamperStoreState {
    /// Caller-provided identity of each slot.
    pub keys: Vec<u64>,
    /// Mode-dependent penalty words (f64 bits or milli-units).
    pub penalty: Vec<u64>,
    /// Mode-dependent decay anchors (µs or ticks).
    pub anchor: Vec<u64>,
    /// OCCUPIED | SUPPRESSED | REACHABLE flag bytes.
    pub flags: Vec<u8>,
    /// Armed reuse deadlines in µs (`u64::MAX` when none).
    pub reuse_deadline: Vec<u64>,
    /// Free-list of recycled slots (order matters: it fixes future
    /// allocation order).
    pub free: Vec<u32>,
}

/// A charge amount, pre-converted for the store's decay mode so the
/// shared charge path never re-quantises on the hot path.
enum ChargeAmount {
    /// Exact mode: raw penalty units.
    Value(f64),
    /// Bucketed mode: milli-units.
    Milli(u64),
}

/// SoA damping state for a population of RIB-IN entries.
///
/// # Examples
///
/// ```
/// use rfd_core::{DamperStore, DampingParams, UpdateKind};
/// use rfd_sim::SimTime;
///
/// let mut store = DamperStore::exact(DampingParams::cisco());
/// let slot = store.insert(42);
/// let t = |s| SimTime::from_secs(s);
/// for pulse in 0..3u64 {
///     store.record_update(slot, t(pulse * 120), UpdateKind::Withdrawal);
/// }
/// assert!(store.is_suppressed(slot), "third flap trips the cutoff");
/// ```
#[derive(Debug)]
pub struct DamperStore {
    params: DampingParams,
    /// `params.as_unreachable()`, precomputed once.
    unreachable_params: DampingParams,
    /// `Some` in bucketed mode.
    tables: Option<Arc<Tables>>,
    /// Caller-provided identity of each slot (e.g. packed peer/prefix).
    keys: Vec<u64>,
    /// Exact mode: `f64::to_bits` of the penalty. Bucketed mode:
    /// penalty in milli-units.
    penalty: Vec<u64>,
    /// Exact mode: anchor instant in µs. Bucketed mode: anchor tick.
    anchor: Vec<u64>,
    /// OCCUPIED | SUPPRESSED | REACHABLE.
    flags: Vec<u8>,
    /// Last armed reuse deadline in µs (`u64::MAX` when none).
    reuse_deadline: Vec<u64>,
    /// Recycled slots.
    free: Vec<u32>,
    live: usize,
}

rfd_sim::clone_fields!(impl Clone for DamperStore {
    params, unreachable_params, tables, keys, penalty, anchor, flags, reuse_deadline, free, live,
});

impl DamperStore {
    /// An exact-mode store: bit-identical to per-entry
    /// [`Damper`](crate::Damper) state machines.
    pub fn exact(params: DampingParams) -> Self {
        DamperStore {
            params,
            unreachable_params: params.as_unreachable(),
            tables: None,
            keys: Vec::new(),
            penalty: Vec::new(),
            anchor: Vec::new(),
            flags: Vec::new(),
            reuse_deadline: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// A bucketed-mode store with an explicit decay tick and table
    /// length (ticks beyond the table chunk through `powi`).
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero or `entries` is zero.
    pub fn bucketed(params: DampingParams, tick: SimDuration, entries: usize) -> Self {
        let unreachable_params = params.as_unreachable();
        let to_milli = |v: f64| (v * 1000.0).round() as u64;
        let reachable = DecayTable::new(&params, tick, entries);
        let tick_div = reachable.tick_div();
        let tables = Tables {
            reachable,
            unreachable: DecayTable::new(&unreachable_params, tick, entries),
            tick_us: tick.as_micros(),
            tick_div,
            cutoff_milli: to_milli(params.cutoff_threshold()),
            reuse_milli: to_milli(params.reuse_threshold()),
            forgive_milli: to_milli(params.forgive_threshold()),
            ceiling_milli: to_milli(params.penalty_ceiling()),
            withdrawal_milli: to_milli(params.withdrawal_penalty()),
            reannouncement_milli: to_milli(params.reannouncement_penalty()),
            attribute_change_milli: to_milli(params.attribute_change_penalty()),
            duplicate_milli: to_milli(params.duplicate_penalty()),
        };
        DamperStore {
            tables: Some(Arc::new(tables)),
            ..DamperStore::exact(params)
        }
    }

    /// A bucketed-mode store with the default 1 s decay tick and a
    /// table long enough that realistic decay intervals are single
    /// lookups.
    pub fn bucketed_default(params: DampingParams) -> Self {
        DamperStore::bucketed(params, SimDuration::from_secs(1), 4096)
    }

    /// The decay mode this store runs in.
    pub fn mode(&self) -> DecayMode {
        if self.tables.is_some() {
            DecayMode::Bucketed
        } else {
            DecayMode::Exact
        }
    }

    /// The damping parameters.
    pub fn params(&self) -> &DampingParams {
        &self.params
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever allocated (live + free).
    pub fn capacity(&self) -> usize {
        self.flags.len()
    }

    /// Allocates a fresh, undamped entry for `key`, recycling a free
    /// slot when one exists.
    pub fn insert(&mut self, key: u64) -> u32 {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            let i = slot as usize;
            self.keys[i] = key;
            self.penalty[i] = 0;
            self.anchor[i] = 0;
            self.flags[i] = OCCUPIED | REACHABLE;
            self.reuse_deadline[i] = u64::MAX;
            return slot;
        }
        let slot = u32::try_from(self.flags.len()).expect("store slot space exhausted");
        self.keys.push(key);
        self.penalty.push(0);
        self.anchor.push(0);
        self.flags.push(OCCUPIED | REACHABLE);
        self.reuse_deadline.push(u64::MAX);
        slot
    }

    /// Frees a slot for recycling.
    pub fn remove(&mut self, slot: u32) {
        self.check(slot);
        self.flags[slot as usize] = 0;
        self.free.push(slot);
        self.live -= 1;
    }

    /// The key the slot was inserted with.
    pub fn key(&self, slot: u32) -> u64 {
        self.check(slot);
        self.keys[slot as usize]
    }

    /// The key of an occupied slot; `None` for a free or out-of-range
    /// slot. Unlike [`key`](Self::key) it never panics, so it can vet a
    /// slot read from outside (a snapshot payload).
    pub fn occupant(&self, slot: u32) -> Option<u64> {
        let i = slot as usize;
        let occupied = self.flags.get(i).is_some_and(|f| f & OCCUPIED != 0);
        occupied.then(|| self.keys[i])
    }

    /// Whether the entry is currently suppressed.
    pub fn is_suppressed(&self, slot: u32) -> bool {
        self.check(slot);
        self.flags[slot as usize] & SUPPRESSED != 0
    }

    /// Number of currently suppressed entries (linear flag scan).
    pub fn suppressed_count(&self) -> usize {
        self.flags
            .iter()
            .filter(|&&f| f & (OCCUPIED | SUPPRESSED) == OCCUPIED | SUPPRESSED)
            .count()
    }

    /// The last reuse deadline handed out for this slot, if any.
    pub fn reuse_deadline(&self, slot: u32) -> Option<SimTime> {
        self.check(slot);
        let us = self.reuse_deadline[slot as usize];
        (us != u64::MAX).then(|| SimTime::from_micros(us))
    }

    fn check(&self, slot: u32) {
        assert!(
            self.flags
                .get(slot as usize)
                .is_some_and(|f| f & OCCUPIED != 0),
            "slot {slot} is not occupied"
        );
    }

    /// The decay parameters in effect for a slot right now.
    fn effective_params(&self, slot: u32) -> &DampingParams {
        if self.flags[slot as usize] & REACHABLE != 0 {
            &self.params
        } else {
            &self.unreachable_params
        }
    }

    fn effective_table<'a>(&self, tables: &'a Tables, slot: u32) -> &'a DecayTable {
        if self.flags[slot as usize] & REACHABLE != 0 {
            &tables.reachable
        } else {
            &tables.unreachable
        }
    }

    /// Exact-mode penalty, rehydrated from the SoA arrays.
    fn exact_penalty(&self, slot: u32) -> Penalty {
        let i = slot as usize;
        Penalty::from_parts(
            f64::from_bits(self.penalty[i]),
            SimTime::from_micros(self.anchor[i]),
        )
    }

    fn put_exact_penalty(&mut self, slot: u32, p: Penalty) {
        let i = slot as usize;
        self.penalty[i] = p.raw_value().to_bits();
        self.anchor[i] = p.updated_at().as_micros();
    }

    /// The decayed penalty value at `now`. In bucketed mode, `now`
    /// quantises down to the decay tick.
    pub fn penalty_at(&self, slot: u32, now: SimTime) -> f64 {
        self.check(slot);
        match &self.tables {
            None => self
                .exact_penalty(slot)
                .value_at(now, self.effective_params(slot)),
            Some(tables) => self.bucketed_value_milli(tables, slot, now) as f64 / 1000.0,
        }
    }

    /// The raw stored penalty and the instant it is exact at (the lazy
    /// decay anchor) — the shape the lifecycle ledger reports.
    pub fn stored_penalty(&self, slot: u32) -> (SimTime, f64) {
        self.check(slot);
        let i = slot as usize;
        match &self.tables {
            None => {
                let p = self.exact_penalty(slot);
                (p.updated_at(), p.raw_value())
            }
            Some(tables) => (
                SimTime::from_micros(self.anchor[i] * tables.tick_us),
                self.penalty[i] as f64 / 1000.0,
            ),
        }
    }

    /// Bucketed penalty in milli-units decayed to `now`'s tick.
    fn bucketed_value_milli(&self, tables: &Tables, slot: u32, now: SimTime) -> u64 {
        self.bucketed_state(tables, slot, now).1
    }

    /// `(now's tick, penalty decayed to that tick)` — one quantisation
    /// serving both the decay and the new anchor on the charge path.
    #[inline]
    fn bucketed_state(&self, tables: &Tables, slot: u32, now: SimTime) -> (u64, u64) {
        let i = slot as usize;
        let now_tick = tables.tick_div.div(now.as_micros());
        assert!(
            now_tick >= self.anchor[i],
            "penalty queried in the past: tick {now_tick} < {anchor}",
            anchor = self.anchor[i]
        );
        let decayed = self
            .effective_table(tables, slot)
            .decay_milli(self.penalty[i], now_tick - self.anchor[i]);
        (now_tick, decayed)
    }

    /// Charges the entry for one received update and applies the
    /// suppression rule, mirroring
    /// [`Damper::record_update`](crate::Damper::record_update):
    /// reachability flips exactly at update instants.
    pub fn record_update(&mut self, slot: u32, now: SimTime, kind: UpdateKind) -> ChargeOutcome {
        let amount = match &self.tables {
            Some(tables) => ChargeAmount::Milli(tables.kind_milli(kind)),
            None => ChargeAmount::Value(kind.penalty(&self.params)),
        };
        let outcome = self.charge_impl(slot, now, amount);
        let i = slot as usize;
        if kind == UpdateKind::Withdrawal {
            self.flags[i] &= !REACHABLE;
        } else {
            self.flags[i] |= REACHABLE;
        }
        outcome
    }

    /// Charges an explicit penalty amount.
    ///
    /// Exact mode reports `reuse_at` whenever the entry is suppressed,
    /// exactly like [`Damper::charge_raw`](crate::Damper::charge_raw).
    /// Bucketed mode computes the deadline (the one remaining
    /// logarithm) only at suppression onset — secondary charges on an
    /// already-suppressed entry return `reuse_at: None`, which no
    /// caller consumes.
    pub fn charge_raw(&mut self, slot: u32, now: SimTime, amount: f64) -> ChargeOutcome {
        let amount = if self.tables.is_some() {
            ChargeAmount::Milli((amount * 1000.0).round() as u64)
        } else {
            ChargeAmount::Value(amount)
        };
        self.charge_impl(slot, now, amount)
    }

    fn charge_impl(&mut self, slot: u32, now: SimTime, amount: ChargeAmount) -> ChargeOutcome {
        self.check(slot);
        let mut obs_span = rfd_obs::is_enabled().then(|| rfd_obs::span("damper.charge"));
        let i = slot as usize;
        let was_suppressed = self.flags[i] & SUPPRESSED != 0;
        let (value, suppressed) = match amount {
            ChargeAmount::Milli(amount_milli) => {
                let tables = self.tables.as_ref().expect("milli charge in exact mode");
                let (now_tick, decayed) = self.bucketed_state(tables, slot, now);
                let milli = (decayed + amount_milli).min(tables.ceiling_milli);
                let over_cutoff = milli > tables.cutoff_milli;
                self.penalty[i] = milli;
                self.anchor[i] = now_tick;
                (milli as f64 / 1000.0, was_suppressed || over_cutoff)
            }
            ChargeAmount::Value(amount) => {
                let mut p = self.exact_penalty(slot);
                let value = p.charge(now, amount, self.effective_params(slot));
                self.put_exact_penalty(slot, p);
                (
                    value,
                    was_suppressed || value > self.params.cutoff_threshold(),
                )
            }
        };
        if suppressed {
            self.flags[i] |= SUPPRESSED;
        }
        let newly_suppressed = suppressed && !was_suppressed;
        if let Some(span) = &mut obs_span {
            span.sim_time_us(now.as_micros());
            rfd_obs::inc("damper.charges");
            if newly_suppressed {
                rfd_obs::inc("damper.suppressions");
                rfd_obs::mark("damper.suppressed");
            }
        }
        let reuse_at = if suppressed && (self.tables.is_none() || newly_suppressed) {
            let at = now + self.time_until_reusable(slot, now);
            self.reuse_deadline[i] = at.as_micros();
            Some(at)
        } else {
            None
        };
        ChargeOutcome {
            penalty: value,
            newly_suppressed,
            reuse_at,
        }
    }

    /// Time until the penalty decays below the reuse threshold (zero if
    /// already below).
    pub fn time_until_reusable(&self, slot: u32, now: SimTime) -> SimDuration {
        self.check(slot);
        match &self.tables {
            None => self.exact_penalty(slot).time_until_below(
                now,
                self.params.reuse_threshold(),
                self.effective_params(slot),
            ),
            Some(tables) => {
                // The bucketed value is anchored at `now`'s tick start;
                // the closed-form wait runs from there, so the deadline
                // can sit up to one decay tick early of the exact one.
                let milli = self.bucketed_value_milli(tables, slot, now);
                if milli < tables.reuse_milli {
                    return SimDuration::ZERO;
                }
                let ratio = milli as f64 / tables.reuse_milli as f64;
                let secs = ratio.ln() / self.effective_params(slot).lambda();
                let anchor =
                    SimTime::from_micros(tables.tick_div.div(now.as_micros()) * tables.tick_us);
                let deadline =
                    anchor + SimDuration::from_secs_f64(secs) + SimDuration::from_micros(1);
                deadline.saturating_since(now)
            }
        }
    }

    /// If suppressed, the instant the penalty will cross the reuse
    /// threshold absent further charges.
    pub fn reuse_at(&self, slot: u32, now: SimTime) -> Option<SimTime> {
        if !self.is_suppressed(slot) {
            return None;
        }
        Some(now + self.time_until_reusable(slot, now))
    }

    /// Called when a reuse timer for this entry fires, mirroring
    /// [`Damper::on_reuse_due`](crate::Damper::on_reuse_due).
    ///
    /// # Panics
    ///
    /// Panics if the entry is not suppressed.
    pub fn on_reuse_due(&mut self, slot: u32, now: SimTime) -> ReuseCheck {
        self.check(slot);
        let i = slot as usize;
        assert!(
            self.flags[i] & SUPPRESSED != 0,
            "reuse timer fired for an unsuppressed entry"
        );
        let wait = self.time_until_reusable(slot, now);
        if wait.is_zero() {
            self.flags[i] &= !SUPPRESSED;
            self.reuse_deadline[i] = u64::MAX;
            rfd_obs::inc("damper.reuses");
            ReuseCheck::Released
        } else {
            let retry_at = now + wait;
            self.reuse_deadline[i] = retry_at.as_micros();
            rfd_obs::inc("damper.reuse_deferrals");
            ReuseCheck::StillSuppressed { retry_at }
        }
    }

    /// True when the penalty has decayed far enough that the damping
    /// state can be dropped.
    pub fn is_forgettable(&self, slot: u32, now: SimTime) -> bool {
        self.check(slot);
        if self.flags[slot as usize] & SUPPRESSED != 0 {
            return false;
        }
        match &self.tables {
            None => self
                .exact_penalty(slot)
                .is_negligible(now, self.effective_params(slot)),
            Some(tables) => self.bucketed_value_milli(tables, slot, now) < tables.forgive_milli,
        }
    }

    /// Exports the raw slot arrays for checkpointing. Pair with
    /// [`import_state`](Self::import_state) on a freshly built store of
    /// the same mode and parameters.
    pub fn export_state(&self) -> DamperStoreState {
        DamperStoreState {
            keys: self.keys.clone(),
            penalty: self.penalty.clone(),
            anchor: self.anchor.clone(),
            flags: self.flags.clone(),
            reuse_deadline: self.reuse_deadline.clone(),
            free: self.free.clone(),
        }
    }

    /// Overwrites the slot arrays with checkpointed state. The store
    /// must have been constructed with the same mode and parameters the
    /// exporter used; only the per-slot state travels.
    ///
    /// # Errors
    ///
    /// Returns a message when the arrays are mutually inconsistent
    /// (mismatched lengths, free list disagreeing with flags) — the
    /// shape a corrupt snapshot payload would produce.
    pub fn import_state(&mut self, state: DamperStoreState) -> Result<(), String> {
        let n = state.flags.len();
        if state.keys.len() != n
            || state.penalty.len() != n
            || state.anchor.len() != n
            || state.reuse_deadline.len() != n
        {
            return Err("damper store arrays have mismatched lengths".into());
        }
        let occupied = state.flags.iter().filter(|&&f| f & OCCUPIED != 0).count();
        if state.free.len() != n - occupied
            || state.free.iter().any(|&s| {
                state
                    .flags
                    .get(s as usize)
                    .is_none_or(|f| f & OCCUPIED != 0)
            })
        {
            return Err("damper store free list disagrees with slot flags".into());
        }
        self.keys = state.keys;
        self.penalty = state.penalty;
        self.anchor = state.anchor;
        self.flags = state.flags;
        self.reuse_deadline = state.reuse_deadline;
        self.free = state.free;
        self.live = occupied;
        Ok(())
    }

    /// Frees every forgettable slot, invoking `evicted(slot, key)` for
    /// each. The scan is cache-linear over the flag and penalty arrays.
    pub fn sweep_forgettable(&mut self, now: SimTime, mut evicted: impl FnMut(u32, u64)) -> usize {
        let mut count = 0;
        for i in 0..self.flags.len() {
            if self.flags[i] & (OCCUPIED | SUPPRESSED) != OCCUPIED {
                continue;
            }
            let slot = i as u32;
            if self.is_forgettable(slot, now) {
                let key = self.keys[i];
                self.remove(slot);
                evicted(slot, key);
                count += 1;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::damper::Damper;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn exact_store_matches_damper_bit_for_bit() {
        let params = DampingParams::cisco();
        let mut store = DamperStore::exact(params);
        let mut model = Damper::new(params);
        let slot = store.insert(7);
        let updates = [
            (0u64, UpdateKind::Withdrawal),
            (60, UpdateKind::ReAnnouncement),
            (120, UpdateKind::Withdrawal),
            (180, UpdateKind::ReAnnouncement),
            (240, UpdateKind::Withdrawal),
            (360, UpdateKind::AttributeChange),
        ];
        for (secs, kind) in updates {
            let a = store.record_update(slot, t(secs), kind);
            let b = model.record_update(t(secs), kind);
            assert_eq!(a.penalty.to_bits(), b.penalty.to_bits(), "at {secs}s");
            assert_eq!(a.newly_suppressed, b.newly_suppressed);
            assert_eq!(a.reuse_at, b.reuse_at);
            assert_eq!(store.is_suppressed(slot), model.is_suppressed());
            assert_eq!(store.stored_penalty(slot), model.stored_penalty());
        }
        let due = model.reuse_at(t(360)).expect("suppressed");
        assert_eq!(store.reuse_at(slot, t(360)), Some(due));
        assert_eq!(store.on_reuse_due(slot, due), model.on_reuse_due(due));
        assert_eq!(store.is_suppressed(slot), model.is_suppressed());
    }

    #[test]
    fn slot_recycling_reuses_freed_slots_with_fresh_state() {
        let mut store = DamperStore::exact(DampingParams::cisco());
        let a = store.insert(1);
        let b = store.insert(2);
        store.charge_raw(a, t(0), 3000.0);
        assert!(store.is_suppressed(a));
        store.remove(b);
        let c = store.insert(3);
        assert_eq!(c, b, "free list recycles the last freed slot");
        assert!(!store.is_suppressed(c));
        assert_eq!(store.penalty_at(c, t(0)), 0.0);
        assert_eq!(store.key(c), 3);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn bucketed_store_tracks_exact_within_tick_error() {
        let params = DampingParams::cisco();
        let mut bucketed = DamperStore::bucketed_default(params);
        let mut model = Damper::new(params);
        let slot = bucketed.insert(0);
        for pulse in 0..4u64 {
            let at = t(pulse * 119 + pulse); // off-tick instants
            let a = bucketed.record_update(slot, at, UpdateKind::Withdrawal);
            let b = model.record_update(at, UpdateKind::Withdrawal);
            assert!(
                (a.penalty - b.penalty).abs() < 5.0,
                "pulse {pulse}: {} vs {}",
                a.penalty,
                b.penalty
            );
            assert_eq!(a.newly_suppressed, b.newly_suppressed);
        }
        assert!(bucketed.is_suppressed(slot));
        // Release instants stay within one decay tick + the milli
        // rounding of each other.
        let exact_due = model.reuse_at(t(600)).unwrap();
        let bucket_due = bucketed.reuse_at(slot, t(600)).unwrap();
        let diff = if exact_due > bucket_due {
            exact_due - bucket_due
        } else {
            bucket_due - exact_due
        };
        assert!(
            diff <= SimDuration::from_secs(2),
            "exact {exact_due} vs bucketed {bucket_due}"
        );
    }

    #[test]
    fn bucketed_suppression_needs_to_exceed_cutoff() {
        let mut store = DamperStore::bucketed_default(DampingParams::cisco());
        let slot = store.insert(0);
        let out = store.charge_raw(slot, t(0), 2000.0);
        assert!(!out.newly_suppressed, "exactly at the cutoff is not over");
        let out = store.charge_raw(slot, t(0), 0.1);
        assert!(out.newly_suppressed);
        assert!(out.reuse_at.is_some());
    }

    #[test]
    fn bucketed_ceiling_clamps_in_milliunits() {
        let params = DampingParams::cisco();
        let mut store = DamperStore::bucketed_default(params);
        let slot = store.insert(0);
        for _ in 0..100 {
            store.charge_raw(slot, t(0), 10_000.0);
        }
        let (_, value) = store.stored_penalty(slot);
        assert_eq!(value, params.penalty_ceiling());
    }

    #[test]
    fn sweep_frees_only_forgettable_entries() {
        let params = DampingParams::cisco();
        let mut store = DamperStore::exact(params);
        let cold = store.insert(10); // never charged: forgettable
        let warm = store.insert(11);
        let hot = store.insert(12);
        store.charge_raw(warm, t(0), 1000.0); // decays below 375 by ~21 min
        store.charge_raw(hot, t(0), 3000.0); // suppressed: never evicted
        let mut seen = Vec::new();
        let n = store.sweep_forgettable(t(1400), |slot, key| seen.push((slot, key)));
        assert_eq!(n, 2);
        assert_eq!(seen, vec![(cold, 10), (warm, 11)]);
        assert!(store.is_suppressed(hot));
        assert_eq!(store.len(), 1);
        assert_eq!(store.suppressed_count(), 1);
    }

    #[test]
    fn dual_rate_decay_applies_while_unreachable() {
        let params = DampingParams::builder()
            .half_life_unreachable(SimDuration::from_mins(30))
            .build()
            .unwrap();
        let mut store = DamperStore::exact(params);
        let mut model = Damper::new(params);
        let slot = store.insert(0);
        store.record_update(slot, t(0), UpdateKind::Withdrawal);
        model.record_update(t(0), UpdateKind::Withdrawal);
        let probe = t(900);
        assert_eq!(
            store.penalty_at(slot, probe).to_bits(),
            model.penalty_at(probe).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "unsuppressed")]
    fn reuse_on_unsuppressed_slot_panics() {
        let mut store = DamperStore::exact(DampingParams::cisco());
        let slot = store.insert(0);
        store.on_reuse_due(slot, t(0));
    }

    #[test]
    #[should_panic(expected = "not occupied")]
    fn freed_slot_access_panics() {
        let mut store = DamperStore::exact(DampingParams::cisco());
        let slot = store.insert(0);
        store.remove(slot);
        store.is_suppressed(slot);
    }
}
