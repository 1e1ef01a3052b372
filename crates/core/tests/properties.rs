//! Property-based tests for the damping core.

use proptest::prelude::*;
use rfd_core::{
    penalty_after_charges, Damper, DampingParams, LinkStatus, Penalty, RcnChargePolicy, RcnFilter,
    ReuseCheck, ReuseList, RootCause, RootCauseHistory, UpdateKind,
};
use rfd_sim::{SimDuration, SimTime};

fn kind_strategy() -> impl Strategy<Value = UpdateKind> {
    prop_oneof![
        Just(UpdateKind::Withdrawal),
        Just(UpdateKind::ReAnnouncement),
        Just(UpdateKind::AttributeChange),
        Just(UpdateKind::Duplicate),
    ]
}

proptest! {
    /// Decay never increases the penalty and never makes it negative.
    #[test]
    fn decay_is_monotone_nonincreasing(
        initial in 0.0f64..12_000.0,
        dts in proptest::collection::vec(0u64..100_000, 1..20),
    ) {
        let params = DampingParams::cisco();
        let mut p = Penalty::new();
        p.charge(SimTime::ZERO, initial, &params);
        let mut now = SimTime::ZERO;
        let mut prev = p.value_at(now, &params);
        for dt in dts {
            now += SimDuration::from_micros(dt);
            let v = p.value_at(now, &params);
            prop_assert!(v <= prev + 1e-9);
            prop_assert!(v >= 0.0);
            prev = v;
        }
    }

    /// Decay composes: advancing in two steps equals advancing in one.
    #[test]
    fn decay_composes(
        initial in 0.0f64..12_000.0,
        dt1 in 0u64..1_000_000_000,
        dt2 in 0u64..1_000_000_000,
    ) {
        let params = DampingParams::cisco();
        let mut one_step = Penalty::new();
        one_step.charge(SimTime::ZERO, initial, &params);
        let mut two_step = one_step;
        let mid = SimTime::from_micros(dt1);
        let end = SimTime::from_micros(dt1 + dt2);
        two_step.advance_to(mid, &params);
        let direct = one_step.value_at(end, &params);
        let composed = two_step.value_at(end, &params);
        prop_assert!((direct - composed).abs() <= 1e-9 * direct.max(1.0));
    }

    /// `time_until_below` really is the inverse of decay: after waiting
    /// that long the value is below the threshold, and one millisecond
    /// earlier it is not (unless it already started below).
    #[test]
    fn reuse_time_is_inverse_of_decay(
        initial in 751.0f64..12_000.0,
        threshold in 100.0f64..750.0,
    ) {
        let params = DampingParams::cisco();
        let mut p = Penalty::new();
        p.charge(SimTime::ZERO, initial, &params);
        let wait = p.time_until_below(SimTime::ZERO, threshold, &params);
        prop_assert!(p.value_at(SimTime::ZERO + wait, &params) < threshold);
        if wait > SimDuration::from_millis(1) {
            let earlier = SimTime::ZERO + (wait - SimDuration::from_millis(1));
            prop_assert!(p.value_at(earlier, &params) >= threshold * 0.999);
        }
    }

    /// The penalty never exceeds the ceiling whatever the charge
    /// sequence, and the damper's suppressed flag is consistent with the
    /// cutoff crossing.
    #[test]
    fn damper_invariants(
        steps in proptest::collection::vec((0u64..600, kind_strategy()), 1..60),
    ) {
        let params = DampingParams::cisco();
        let mut d = Damper::new(params);
        let mut now = SimTime::ZERO;
        for (gap, kind) in steps {
            now += SimDuration::from_secs(gap);
            let out = d.record_update(now, kind);
            prop_assert!(out.penalty <= params.penalty_ceiling() + 1e-9);
            prop_assert!(out.penalty >= 0.0);
            if out.newly_suppressed {
                prop_assert!(out.penalty > params.cutoff_threshold());
            }
            if d.is_suppressed() {
                // A suppressed entry always reports a reuse deadline in
                // the future or now.
                let reuse = out.reuse_at.expect("suppressed ⇒ reuse deadline");
                prop_assert!(reuse >= now);
            } else {
                prop_assert!(out.reuse_at.is_none());
            }
        }
    }

    /// Once a reuse check releases, the penalty is below the reuse
    /// threshold; if it reschedules, the retry time is in the future and
    /// eventually releases.
    #[test]
    fn reuse_check_terminates(
        charges in proptest::collection::vec(0u64..300, 3..30),
    ) {
        let params = DampingParams::cisco();
        let mut d = Damper::new(params);
        let mut now = SimTime::ZERO;
        for gap in charges {
            now += SimDuration::from_secs(gap);
            d.record_update(now, UpdateKind::Withdrawal);
        }
        if d.is_suppressed() {
            let mut due = d.reuse_at(now).unwrap();
            let mut hops = 0;
            loop {
                match d.on_reuse_due(due) {
                    ReuseCheck::Released => {
                        prop_assert!(d.penalty_at(due) < params.reuse_threshold());
                        break;
                    }
                    ReuseCheck::StillSuppressed { retry_at } => {
                        prop_assert!(retry_at > due);
                        due = retry_at;
                        hops += 1;
                        prop_assert!(hops < 4, "no recharge ⇒ at most rounding re-checks");
                    }
                }
            }
        }
    }

    /// The RCN filter charges at most once per distinct root cause
    /// (within history capacity), regardless of update kinds.
    #[test]
    fn rcn_charges_once_per_cause(
        seqs in proptest::collection::vec(0u64..20, 1..100),
    ) {
        let params = DampingParams::cisco();
        let mut filter = RcnFilter::new(64, RcnChargePolicy::ByRootCause);
        let mut charged = std::collections::HashSet::new();
        for seq in seqs {
            let rc = RootCause::new((1, 2), LinkStatus::Down, seq);
            let amount = filter.charge_for(UpdateKind::AttributeChange, Some(rc), &params);
            if amount > 0.0 {
                prop_assert!(charged.insert(seq), "double charge for seq {seq}");
            }
        }
    }

    /// History never exceeds capacity and `observe` is exact while under
    /// capacity.
    #[test]
    fn history_bounded(
        cap in 1usize..32,
        seqs in proptest::collection::vec(0u64..100, 1..200),
    ) {
        let mut h = RootCauseHistory::new(cap);
        for seq in seqs {
            h.observe(RootCause::new((0, 1), LinkStatus::Up, seq));
            prop_assert!(h.len() <= cap);
        }
    }

    /// Reuse lists release every entry, never early, and at most one
    /// granularity late.
    #[test]
    fn reuse_list_bounds(
        granularity_s in 1u64..60,
        deadlines in proptest::collection::vec(0u64..10_000, 1..100),
    ) {
        let g = SimDuration::from_secs(granularity_s);
        let mut list: ReuseList<usize> = ReuseList::new(g);
        for (i, &d) in deadlines.iter().enumerate() {
            list.schedule(i, SimTime::from_secs(d));
        }
        let mut released = vec![None; deadlines.len()];
        let mut now = SimTime::ZERO;
        let horizon = SimTime::from_secs(10_000 + granularity_s * 2);
        while now <= horizon {
            for k in list.drain_due(now) {
                released[k] = Some(now);
            }
            now += g;
        }
        for (i, r) in released.iter().enumerate() {
            let at = r.expect("every entry released");
            let want = SimTime::from_secs(deadlines[i]);
            prop_assert!(at >= want, "released early");
            prop_assert!(at.saturating_since(want) <= g, "released more than one tick late");
        }
    }

    /// `charge_raw` saturates at the RFC 2439 ceiling (the BIRD-style
    /// clamp): no sequence of raw charge amounts pushes the penalty
    /// past it, and a single overweight charge pins the value exactly
    /// *at* the ceiling rather than merely below it.
    #[test]
    fn charge_raw_saturates_at_ceiling(
        steps in proptest::collection::vec((0u64..600, 0.0f64..30_000.0), 1..40),
    ) {
        let params = DampingParams::cisco();
        let mut d = Damper::new(params);
        let mut now = SimTime::ZERO;
        for (gap, amount) in steps {
            now += SimDuration::from_secs(gap);
            let out = d.charge_raw(now, amount);
            prop_assert!(out.penalty <= params.penalty_ceiling() + 1e-9);
            if amount >= params.penalty_ceiling() {
                prop_assert!(
                    (out.penalty - params.penalty_ceiling()).abs() < 1e-9,
                    "overweight charge must clamp exactly to the ceiling, got {}",
                    out.penalty
                );
            }
        }
    }

    /// A released entry can be suppressed again *immediately*: right at
    /// the reuse instant the penalty sits just below the reuse
    /// threshold, so fresh withdrawals re-cross the cutoff and must
    /// re-arm suppression and a new reuse deadline (no latch, no
    /// cooldown).
    #[test]
    fn suppression_reenters_immediately_after_reuse(
        gaps in proptest::collection::vec(0u64..180, 3..12),
    ) {
        let params = DampingParams::cisco();
        let mut d = Damper::new(params);
        let mut now = SimTime::ZERO;
        // Gaps ≤ 180 s between ≥ 3 withdrawals always cross the Cisco
        // cutoff, so the entry is suppressed when the storm ends.
        for gap in gaps {
            now += SimDuration::from_secs(gap);
            d.record_update(now, UpdateKind::Withdrawal);
        }
        prop_assert!(d.is_suppressed());
        let mut due = d.reuse_at(now).expect("suppressed ⇒ deadline");
        loop {
            match d.on_reuse_due(due) {
                ReuseCheck::Released => break,
                ReuseCheck::StillSuppressed { retry_at } => due = retry_at,
            }
        }
        prop_assert!(!d.is_suppressed());
        // At release the penalty is within rounding of the reuse
        // threshold (750): one withdrawal stays below the cutoff…
        let first = d.record_update(due, UpdateKind::Withdrawal);
        prop_assert!(!first.newly_suppressed);
        // …and the second re-crosses it at the very same instant.
        let second = d.record_update(due, UpdateKind::Withdrawal);
        prop_assert!(second.newly_suppressed, "re-entry blocked after reuse");
        prop_assert!(second.penalty > params.cutoff_threshold());
        prop_assert!(second.reuse_at.expect("re-armed deadline") > due);
    }

    /// Closed-form penalty equals the damper's sequential computation
    /// for arbitrary schedules.
    #[test]
    fn closed_form_equals_damper(
        steps in proptest::collection::vec((0u64..600, kind_strategy()), 1..50),
    ) {
        let params = DampingParams::juniper();
        let mut damper = Damper::new(params);
        let mut charges = Vec::new();
        let mut now = SimTime::ZERO;
        let mut last = 0.0;
        for (gap, kind) in steps {
            now += SimDuration::from_secs(gap);
            charges.push((now, kind.penalty(&params)));
            last = damper.record_update(now, kind).penalty;
        }
        let closed = penalty_after_charges(&params, &charges);
        prop_assert!((closed - last).abs() < 1e-6);
    }
}
