//! Per-shard damping state: one [`DamperStore`] plus the bucketed
//! reuse/decay sweep.
//!
//! Each shard owns the keys that hash to it and nothing else — no locks
//! on the hot path. Damping state lives in a dense
//! [`DamperStore`] (one array of 32-byte rows, so charge and sweep
//! loops walk flat memory instead of chasing a HashMap of per-key
//! state machines); the shard keeps only the
//! key → slot index beside it. Reuse timers and the forgotten-state
//! eviction sweep run at fixed *simulated-time* boundaries (multiples
//! of [`ShardOptions::reuse_tick`]): a boundary is processed when the
//! shard first sees an update at or past it, strictly before that
//! update is applied. Because the merged firehose delivers each shard's
//! updates in global time order, every key's interleaving of charges,
//! reuse checks and sweeps is a pure function of the key's own update
//! stream — independent of how many shards the state is partitioned
//! across. That is the determinism contract the engine's aggregate
//! report asserts (in exact *and* bucketed decay mode; only exact mode
//! additionally promises bit-identity with per-key [`Damper`]s).
//!
//! [`Damper`]: rfd_core::Damper

use rfd_core::{ChargeOutcome, DamperStore, DampingParams, DecayMode, ReuseCheck, ReuseList};
use rfd_sim::{SimDuration, SimTime};
use rfd_snap::MixMap;

use crate::report::Aggregate;
use crate::workload::Update;

/// Tunables for one shard's damping state, with the engine's historical
/// hard-coded values as defaults.
#[derive(Debug, Clone, Copy)]
pub struct ShardOptions {
    /// Damping parameters applied to every key.
    pub params: DampingParams,
    /// Reuse/sweep boundary granularity (simulated time). RFC 2439
    /// §4.8.7 suggests quantised reuse lists at a coarse tick; the 10 s
    /// default bounds the release delay while keeping sweeps rare.
    pub reuse_tick: SimDuration,
    /// Eviction sweeps run every `evict_every` reuse ticks (default 30,
    /// i.e. 5 simulated minutes at the default tick): scanning every
    /// slot is linear, so it is amortised over many updates.
    pub evict_every: u64,
    /// How penalties decay: [`DecayMode::Exact`] (closed-form `exp()`,
    /// bit-identical to [`Damper`](rfd_core::Damper)) or
    /// [`DecayMode::Bucketed`] (fixed-point table lookup on a 1 s tick).
    pub decay: DecayMode,
}

impl ShardOptions {
    /// The default options for the given parameters: 10 s reuse tick,
    /// eviction every 30 ticks, exact decay.
    pub fn new(params: DampingParams) -> Self {
        ShardOptions {
            params,
            reuse_tick: ShardState::TICK,
            evict_every: ShardState::EVICT_EVERY,
            decay: DecayMode::Exact,
        }
    }
}

/// The damping-state owner for one shard.
#[derive(Debug)]
pub struct ShardState {
    /// Dense damping state; slots are recycled through its free list.
    store: DamperStore,
    /// Packed key → store slot, under the seedless
    /// [`MixHasher`](rfd_snap::MixHasher): only ever point-probed
    /// (`get`/`insert`/`remove`), never iterated, so neither the hash
    /// function nor the table order can reach the aggregate.
    index: MixMap<u64, u32>,
    /// Suppressed slots bucketed by their next reuse check.
    reuse: ReuseList<u32>,
    tick: SimDuration,
    evict_every: u64,
    /// Next boundary index to process (boundary k = k · tick).
    next_tick: u64,
    agg: Aggregate,
}

impl ShardState {
    /// Default reuse/sweep boundary granularity (simulated seconds);
    /// see [`ShardOptions::reuse_tick`].
    pub const TICK: SimDuration = SimDuration::from_secs(10);
    /// Default eviction-sweep period in ticks; see
    /// [`ShardOptions::evict_every`].
    pub const EVICT_EVERY: u64 = 30;

    /// An empty shard with default options (exact decay, 10 s tick).
    pub fn new(params: DampingParams) -> Self {
        ShardState::with_options(ShardOptions::new(params))
    }

    /// An empty shard with explicit options.
    ///
    /// # Panics
    ///
    /// Panics if `reuse_tick` is zero or `evict_every` is zero (the
    /// engine validates both before construction).
    pub fn with_options(options: ShardOptions) -> Self {
        assert!(options.reuse_tick > SimDuration::ZERO, "zero reuse tick");
        assert!(options.evict_every > 0, "zero eviction period");
        let store = match options.decay {
            DecayMode::Exact => DamperStore::exact(options.params),
            DecayMode::Bucketed => DamperStore::bucketed_default(options.params),
        };
        ShardState {
            store,
            index: MixMap::default(),
            reuse: ReuseList::new(options.reuse_tick),
            tick: options.reuse_tick,
            evict_every: options.evict_every,
            next_tick: 1,
            agg: Aggregate::default(),
        }
    }

    /// Applies one update: advances boundary work up to `update.at`,
    /// then charges the damper (creating it on first sight) and records
    /// the decision in the aggregate. Returns the charge outcome.
    pub fn apply(&mut self, update: Update) -> ChargeOutcome {
        self.advance_boundaries(update.at);
        let key = update.key();
        let slot = match self.index.get(&key) {
            Some(&slot) => slot,
            None => self.insert(key),
        };
        let outcome = self.store.record_update(slot, update.at, update.kind);
        self.agg.updates += 1;
        // Nominal charge in integer milli-units: summing f64 penalties
        // in shard-dependent order would not be partition-invariant.
        self.agg.penalty_milli +=
            (update.kind.penalty(self.store.params()) * 1000.0).round() as u64;
        if outcome.newly_suppressed {
            self.agg.suppressions += 1;
            let reuse_at = outcome
                .reuse_at
                .expect("suppressed entries have a deadline");
            self.reuse.schedule(slot, reuse_at);
        }
        outcome
    }

    /// Runs the remaining boundary work through `end` (the simulated
    /// end of the firehose) and returns the shard's aggregate.
    pub fn finish(mut self, end: SimTime) -> Aggregate {
        self.advance_boundaries(end);
        self.agg.live_entries = self.store.len() as u64;
        self.agg.suppressed_at_end = self.store.suppressed_count() as u64;
        self.agg
    }

    /// Number of live damping-state entries.
    pub fn live_entries(&self) -> usize {
        self.store.len()
    }

    /// The decay mode the shard's store runs in.
    pub fn decay_mode(&self) -> DecayMode {
        self.store.mode()
    }

    /// The aggregate accumulated so far (finalised by
    /// [`ShardState::finish`]).
    pub fn aggregate(&self) -> &Aggregate {
        &self.agg
    }

    fn insert(&mut self, key: u64) -> u32 {
        let slot = self.store.insert(key);
        self.index.insert(key, slot);
        slot
    }

    /// Processes every boundary strictly required before an update at
    /// `now` may be applied (boundaries at instants ≤ `now`).
    fn advance_boundaries(&mut self, now: SimTime) {
        loop {
            let boundary = SimTime::from_micros(self.next_tick * self.tick.as_micros());
            if boundary > now {
                break;
            }
            self.process_boundary(boundary, self.next_tick);
            self.next_tick += 1;
        }
    }

    /// One boundary: drain due reuse checks, and on eviction ticks drop
    /// every forgettable entry (RFC 2439's state garbage collection).
    /// Suppressed entries are never forgettable, so reuse-list slots
    /// stay valid across sweeps.
    fn process_boundary(&mut self, at: SimTime, tick: u64) {
        for slot in self.reuse.drain_due(at) {
            match self.store.on_reuse_due(slot, at) {
                ReuseCheck::Released => self.agg.reuses += 1,
                ReuseCheck::StillSuppressed { retry_at } => {
                    self.agg.reuse_deferrals += 1;
                    self.reuse.schedule(slot, retry_at);
                }
            }
        }
        if tick.is_multiple_of(self.evict_every) {
            let index = &mut self.index;
            let evicted = self.store.sweep_forgettable(at, |_slot, key| {
                index.remove(&key);
            });
            self.agg.evictions += evicted as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::pack_key;
    use rfd_core::{Damper, UpdateKind};

    fn update(secs: u64, peer: u32, prefix: u32, kind: UpdateKind) -> Update {
        Update {
            at: SimTime::from_secs(secs),
            peer,
            prefix,
            kind,
        }
    }

    fn withdrawals(
        state: &mut ShardState,
        secs: &[u64],
        peer: u32,
        prefix: u32,
    ) -> Vec<ChargeOutcome> {
        secs.iter()
            .map(|&s| state.apply(update(s, peer, prefix, UpdateKind::Withdrawal)))
            .collect()
    }

    #[test]
    fn three_withdrawals_suppress_and_release_after_decay() {
        let mut state = ShardState::new(DampingParams::cisco());
        let outcomes = withdrawals(&mut state, &[0, 120, 240], 1, 7);
        assert_eq!(
            outcomes.iter().filter(|o| o.newly_suppressed).count(),
            1,
            "third withdrawal suppresses"
        );
        // An unrelated key far in the future advances the boundary work
        // past the reuse deadline (~2800 s → release well within 2 h).
        state.apply(update(7200, 2, 9, UpdateKind::Duplicate));
        let agg = state.finish(SimTime::from_secs(7200));
        assert_eq!(agg.suppressions, 1);
        assert_eq!(agg.reuses, 1, "reuse timer released the entry");
        assert_eq!(agg.updates, 4);
    }

    #[test]
    fn recharged_entry_defers_then_releases() {
        let mut state = ShardState::new(DampingParams::cisco());
        withdrawals(&mut state, &[0, 120, 240], 1, 7);
        // Secondary charge before the ~1920 s reuse deadline pushes the
        // penalty back above the threshold: the timer check defers.
        state.apply(update(1000, 1, 7, UpdateKind::Withdrawal));
        let agg = state.finish(SimTime::from_secs(12_000));
        assert_eq!(agg.suppressions, 1);
        assert!(agg.reuse_deferrals >= 1, "recharge deferred the release");
        assert_eq!(agg.reuses, 1, "eventually released");
    }

    #[test]
    fn forgettable_entries_are_evicted() {
        let mut state = ShardState::new(DampingParams::cisco());
        // One withdrawal: penalty 1000, forgettable (< 375) after
        // ~21.3 simulated minutes.
        state.apply(update(0, 1, 7, UpdateKind::Withdrawal));
        assert_eq!(state.live_entries(), 1);
        let agg = state.finish(SimTime::from_secs(3600));
        assert_eq!(agg.evictions, 1);
        assert_eq!(agg.live_entries, 0);
    }

    #[test]
    fn suppressed_entries_survive_sweeps() {
        let mut state = ShardState::new(DampingParams::cisco());
        withdrawals(&mut state, &[0, 120, 240], 1, 7);
        // Advance only 10 minutes: still suppressed, so still live.
        state.apply(update(600, 2, 9, UpdateKind::Duplicate));
        assert_eq!(state.live_entries(), 2);
        assert_eq!(state.aggregate().evictions, 0);
    }

    #[test]
    fn evicted_then_reflapping_key_behaves_like_fresh_state() {
        // The satellite contract: once evicted, a re-flapping prefix
        // must be indistinguishable from one never seen before. The
        // residual penalty a *non*-evicted entry would carry changes
        // the suppression point, so this also shows eviction is load-
        // bearing, not a no-op.
        let params = DampingParams::cisco();
        let flap_secs = [4000u64, 4001, 4002];

        // Evicted path: early withdrawal, decay past forgettable, an
        // eviction sweep (driven by another key's update), then re-flap.
        let mut evicted = ShardState::new(params);
        evicted.apply(update(0, 1, 7, UpdateKind::Withdrawal));
        evicted.apply(update(3000, 2, 9, UpdateKind::Duplicate));
        assert_eq!(evicted.aggregate().evictions, 1, "sweep dropped key 7");
        let evicted_outcomes = withdrawals(&mut evicted, &flap_secs, 1, 7);

        // Fresh path: the same re-flap against never-seen state.
        let mut fresh = ShardState::new(params);
        fresh.apply(update(3000, 2, 9, UpdateKind::Duplicate));
        let fresh_outcomes = withdrawals(&mut fresh, &flap_secs, 1, 7);

        assert_eq!(
            evicted_outcomes, fresh_outcomes,
            "evicted-then-reflapped key must match fresh state exactly"
        );

        // Control: without the eviction sweep the residual penalty
        // (~46 after 4000 s of decay) makes the second withdrawal
        // cross the cutoff — one pulse earlier than fresh state.
        let mut damper = Damper::new(params);
        damper.record_update(SimTime::ZERO, UpdateKind::Withdrawal);
        let mut residual_outcomes = Vec::new();
        for &s in &flap_secs {
            residual_outcomes
                .push(damper.record_update(SimTime::from_secs(s), UpdateKind::Withdrawal));
        }
        assert_ne!(
            residual_outcomes, fresh_outcomes,
            "without eviction the residual penalty changes behaviour"
        );
    }

    #[test]
    fn slots_are_reused_after_eviction() {
        let mut state = ShardState::new(DampingParams::cisco());
        for prefix in 0..8u32 {
            state.apply(update(0, 1, prefix, UpdateKind::Withdrawal));
        }
        assert_eq!(state.store.capacity(), 8);
        // All eight decay out; the next keys must fill freed slots.
        state.apply(update(3000, 2, 0, UpdateKind::Duplicate));
        assert_eq!(state.aggregate().evictions, 8);
        for prefix in 0..4u32 {
            state.apply(update(3000, 3, prefix, UpdateKind::Withdrawal));
        }
        assert_eq!(state.store.capacity(), 8, "free slots reused, not grown");
        assert!(state.index.contains_key(&pack_key(3, 2)));
    }

    #[test]
    fn aggregate_counts_nominal_penalty_in_milli_units() {
        let mut state = ShardState::new(DampingParams::cisco());
        state.apply(update(0, 1, 1, UpdateKind::Withdrawal)); // 1000
        state.apply(update(1, 1, 1, UpdateKind::AttributeChange)); // 500
        state.apply(update(2, 1, 1, UpdateKind::ReAnnouncement)); // 0
        assert_eq!(state.aggregate().penalty_milli, 1_500_000);
    }

    #[test]
    fn exact_shard_matches_the_per_key_damper_model() {
        // The refactor contract: in exact mode the store must give
        // the same charge outcomes a standalone Damper does, including
        // the reuse deadline carried by a suppression.
        let params = DampingParams::cisco();
        let mut state = ShardState::new(params);
        let mut model = Damper::new(params);
        for (i, secs) in [0u64, 60, 120, 180, 500].into_iter().enumerate() {
            let got = state.apply(update(secs, 1, 7, UpdateKind::Withdrawal));
            let want = model.record_update(SimTime::from_secs(secs), UpdateKind::Withdrawal);
            assert_eq!(got, want, "update {i}");
        }
    }

    #[test]
    fn bucketed_mode_exercises_the_same_lifecycle() {
        let mut options = ShardOptions::new(DampingParams::cisco());
        options.decay = DecayMode::Bucketed;
        let mut state = ShardState::with_options(options);
        assert_eq!(state.decay_mode(), DecayMode::Bucketed);
        let outcomes = withdrawals(&mut state, &[0, 120, 240], 1, 7);
        assert_eq!(outcomes.iter().filter(|o| o.newly_suppressed).count(), 1);
        state.apply(update(7200, 2, 9, UpdateKind::Duplicate));
        let agg = state.finish(SimTime::from_secs(7200));
        assert_eq!(agg.suppressions, 1);
        assert_eq!(agg.reuses, 1, "bucketed decay still releases");
    }

    #[test]
    fn custom_tick_and_eviction_period_shift_the_boundary_work() {
        // One withdrawal (penalty 1000) decays below forgive (375)
        // after ~1274 s at the Cisco 900 s half-life. A 1 s tick with
        // eviction every 2 ticks sweeps it within 2 s of that instant;
        // the default 10 s × 30 cadence has to wait for the 1500 s
        // boundary.
        let mut options = ShardOptions::new(DampingParams::cisco());
        options.reuse_tick = SimDuration::from_secs(1);
        options.evict_every = 2;
        let mut fine = ShardState::with_options(options);
        fine.apply(update(0, 1, 7, UpdateKind::Withdrawal));
        fine.apply(update(1282, 2, 9, UpdateKind::Duplicate));
        assert_eq!(fine.aggregate().evictions, 1, "fine cadence swept");

        let mut coarse = ShardState::new(DampingParams::cisco());
        coarse.apply(update(0, 1, 7, UpdateKind::Withdrawal));
        coarse.apply(update(1282, 2, 9, UpdateKind::Duplicate));
        assert_eq!(
            coarse.aggregate().evictions,
            0,
            "default sweep not due until 1500 s"
        );
    }

    #[test]
    #[should_panic(expected = "zero reuse tick")]
    fn zero_tick_is_rejected() {
        let mut options = ShardOptions::new(DampingParams::cisco());
        options.reuse_tick = SimDuration::ZERO;
        let _ = ShardState::with_options(options);
    }
}
