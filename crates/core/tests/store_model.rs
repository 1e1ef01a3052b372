//! Property tests pinning the SoA [`DamperStore`] to its predecessor,
//! the per-key [`Damper`] state machine, and bounding the bucketed
//! reuse path against exact timers.

use proptest::prelude::*;
use rfd_core::{Damper, DamperStore, DampingParams, ReuseCheck, ReuseList, UpdateKind};
use rfd_sim::{SimDuration, SimTime};

fn kind_from(i: u8) -> UpdateKind {
    match i % 3 {
        0 => UpdateKind::Withdrawal,
        1 => UpdateKind::ReAnnouncement,
        _ => UpdateKind::AttributeChange,
    }
}

proptest! {
    /// Exact-mode store vs a per-key `Damper` model on randomised
    /// update streams over several keys: every observable — penalty
    /// bits, suppression flags, reuse deadlines, forgettability, the
    /// stored anchor — must match bit for bit.
    #[test]
    fn exact_store_matches_per_key_damper_models(
        ops in proptest::collection::vec(
            (0usize..4, 1u64..600_000_000u64, 0u8..3, any::<bool>()),
            1..120,
        )
    ) {
        let params = DampingParams::cisco();
        let mut store = DamperStore::exact(params);
        let mut models: Vec<Damper> = (0..4).map(|_| Damper::new(params)).collect();
        let slots: Vec<u32> = (0..4).map(|k| store.insert(k as u64)).collect();
        let mut now = SimTime::ZERO;
        for (key, dt_us, kind, fire_reuse) in ops {
            now += SimDuration::from_micros(dt_us);
            let kind = kind_from(kind);
            let a = store.record_update(slots[key], now, kind);
            let b = models[key].record_update(now, kind);
            prop_assert_eq!(a.penalty.to_bits(), b.penalty.to_bits());
            prop_assert_eq!(a.newly_suppressed, b.newly_suppressed);
            prop_assert_eq!(a.reuse_at, b.reuse_at);
            prop_assert_eq!(store.is_suppressed(slots[key]), models[key].is_suppressed());
            let (anchor_a, value_a) = store.stored_penalty(slots[key]);
            let (anchor_b, value_b) = models[key].stored_penalty();
            prop_assert_eq!(anchor_a, anchor_b);
            prop_assert_eq!(value_a.to_bits(), value_b.to_bits());
            if fire_reuse && models[key].is_suppressed() {
                let due = models[key].reuse_at(now).expect("suppressed");
                prop_assert_eq!(store.reuse_at(slots[key], now), Some(due));
                let ra = store.on_reuse_due(slots[key], due);
                let rb = models[key].on_reuse_due(due);
                prop_assert_eq!(ra, rb);
                now = due;
            }
            prop_assert_eq!(
                store.is_forgettable(slots[key], now),
                models[key].is_forgettable(now)
            );
        }
    }

    /// Draining a suppressed population through a quantised `ReuseList`
    /// releases every route no earlier than its exact reuse instant and
    /// no later than one granularity tick after it.
    #[test]
    fn bucketed_reuse_release_error_at_most_one_tick(
        initial in 2001u64..12_000,
        g_secs in 1u64..120,
        extra in proptest::collection::vec((1u64..900, 0u64..2000), 0..4),
    ) {
        let params = DampingParams::cisco();
        let g = SimDuration::from_secs(g_secs);
        let mut damper = Damper::new(params);
        damper.charge_raw(SimTime::ZERO, initial as f64);
        prop_assert!(damper.is_suppressed());
        // Secondary charges while suppressed, at increasing instants.
        let mut last = SimTime::ZERO;
        for (dt_secs, amount) in extra {
            last += SimDuration::from_secs(dt_secs);
            damper.charge_raw(last, amount as f64);
        }
        // Exact timers would release at exactly this instant.
        let exact_release = damper.reuse_at(last).expect("still suppressed");
        // The quantised path: schedule on the reuse list and walk the
        // tick boundaries, re-checking (and re-arming) like the router.
        let mut quant = damper.clone();
        let mut list: ReuseList<()> = ReuseList::new(g);
        list.schedule((), exact_release);
        let mut released_at = None;
        let mut tick = last.as_micros() / g.as_micros();
        while released_at.is_none() {
            tick += 1;
            let now = SimTime::from_micros(tick * g.as_micros());
            for () in list.drain_due(now) {
                match quant.on_reuse_due(now) {
                    ReuseCheck::Released => released_at = Some(now),
                    ReuseCheck::StillSuppressed { retry_at } => list.schedule((), retry_at),
                }
            }
            prop_assert!(
                tick < (last.as_micros() / g.as_micros()) + 4_000_000,
                "release never happened"
            );
        }
        let released_at = released_at.unwrap();
        prop_assert!(
            released_at >= exact_release,
            "released early: {released_at} < {exact_release}"
        );
        let delay = released_at - exact_release;
        prop_assert!(
            delay <= g,
            "released more than one tick late: {delay} (granularity {g})"
        );
    }
}
