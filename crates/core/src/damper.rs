//! The per-(peer, prefix) damping state machine.
//!
//! A [`Damper`] tracks one RIB-IN entry's penalty and suppression flag.
//! The router charges it on every update received for the entry and asks
//! it, when a reuse timer fires, whether the route may be released. Reuse
//! timers are *lazy*: the damper hands back the instant the penalty will
//! cross the reuse threshold, and if further charges arrive in the
//! meantime the check at expiry simply reschedules — exactly the
//! recharge/reschedule mechanism whose network-wide interaction
//! (secondary charging) the paper analyses.
//!
//! `Damper` is the **reference model** and the analytic engine, not the
//! routers' hot path: the routers and the firehose keep their entries
//! in a [`DamperStore`](crate::DamperStore), whose exact mode is
//! pinned to this state machine bit for bit (`tests/store_model.rs`,
//! `exact_store_matches_damper_bit_for_bit`, the firehose shard
//! tests), and `analytic.rs`, `schedule.rs` and the Figure 3
//! reproduction compute their curves by driving one `Damper`.

use rfd_sim::{SimDuration, SimTime};

use crate::params::DampingParams;
use crate::penalty::Penalty;
use crate::update::UpdateKind;

/// Result of charging a damper with one update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargeOutcome {
    /// Penalty value right after the charge.
    pub penalty: f64,
    /// True if this charge pushed the entry over the cut-off threshold
    /// (it was not suppressed before, it is now).
    pub newly_suppressed: bool,
    /// When suppressed (newly or already): the instant the penalty will
    /// decay below the reuse threshold given no further charges.
    pub reuse_at: Option<SimTime>,
}

/// Result of checking a suppressed entry when its reuse timer fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReuseCheck {
    /// The penalty is below the reuse threshold; the route is released.
    Released,
    /// Charges since the timer was set keep the penalty above the reuse
    /// threshold; re-check at `retry_at`.
    StillSuppressed {
        /// New expiry instant for the reuse timer.
        retry_at: SimTime,
    },
}

/// Damping state for a single (peer, prefix) RIB-IN entry.
///
/// # Examples
///
/// Three withdrawals at 120-second spacing trip the Cisco cut-off:
///
/// ```
/// use rfd_core::{Damper, DampingParams, UpdateKind};
/// use rfd_sim::SimTime;
///
/// let params = DampingParams::cisco();
/// let mut damper = Damper::new(params);
/// let t = |s| SimTime::from_secs(s);
///
/// assert!(!damper.record_update(t(0), UpdateKind::Withdrawal).newly_suppressed);
/// assert!(!damper.record_update(t(120), UpdateKind::Withdrawal).newly_suppressed);
/// let third = damper.record_update(t(240), UpdateKind::Withdrawal);
/// assert!(third.newly_suppressed);
/// assert!(damper.is_suppressed());
/// ```
#[derive(Debug, Clone)]
pub struct Damper {
    params: DampingParams,
    penalty: Penalty,
    suppressed: bool,
    /// Whether the route is currently reachable (announced); selects
    /// between the reachable/unreachable decay rates (RFC 2439 §4.2).
    /// Decay segments between charges are homogeneous because
    /// reachability only changes at update instants.
    reachable: bool,
}

impl Damper {
    /// Creates an undamped entry.
    pub fn new(params: DampingParams) -> Self {
        Damper {
            params,
            penalty: Penalty::new(),
            suppressed: false,
            reachable: true,
        }
    }

    /// The decay parameters in effect right now (reachable vs
    /// unreachable half-life).
    fn effective_params(&self) -> DampingParams {
        if self.reachable {
            self.params
        } else {
            self.params.as_unreachable()
        }
    }

    /// The parameters this damper runs with.
    pub fn params(&self) -> &DampingParams {
        &self.params
    }

    /// Whether the entry is currently suppressed.
    pub fn is_suppressed(&self) -> bool {
        self.suppressed
    }

    /// The decayed penalty value at `now`.
    pub fn penalty_at(&self, now: SimTime) -> f64 {
        self.penalty.value_at(now, &self.effective_params())
    }

    /// The raw stored penalty and the instant it is exact at (the lazy
    /// decay anchor). Decay is recomputed from here on demand; the
    /// ledger's decay events report this anchor against the recomputed
    /// value.
    pub fn stored_penalty(&self) -> (SimTime, f64) {
        (self.penalty.updated_at(), self.penalty.raw_value())
    }

    /// Charges the entry for one received update and applies the
    /// suppression rule.
    ///
    /// Note RFC 2439 semantics preserved here: updates received **while
    /// suppressed** still increase the penalty (the paper's secondary
    /// charging depends on this), and suppression only begins when the
    /// penalty *exceeds* the cut-off.
    pub fn record_update(&mut self, now: SimTime, kind: UpdateKind) -> ChargeOutcome {
        let outcome = self.charge_raw(now, kind.penalty(&self.params));
        // Reachability flips exactly at update instants; the penalty is
        // already anchored at `now`, so switching the decay rate here
        // keeps every decay segment homogeneous.
        self.reachable = kind != UpdateKind::Withdrawal;
        outcome
    }

    /// Charges an explicit penalty amount (used by the RCN/selective
    /// filters which may substitute the increment).
    pub fn charge_raw(&mut self, now: SimTime, amount: f64) -> ChargeOutcome {
        let mut obs_span = rfd_obs::is_enabled().then(|| rfd_obs::span("damper.charge"));
        let value = self.penalty.charge(now, amount, &self.effective_params());
        let was_suppressed = self.suppressed;
        if value > self.params.cutoff_threshold() {
            self.suppressed = true;
        }
        let newly_suppressed = self.suppressed && !was_suppressed;
        if let Some(span) = &mut obs_span {
            span.sim_time_us(now.as_micros());
            rfd_obs::inc("damper.charges");
            if newly_suppressed {
                rfd_obs::inc("damper.suppressions");
                rfd_obs::mark("damper.suppressed");
            }
        }
        ChargeOutcome {
            penalty: value,
            newly_suppressed,
            reuse_at: self.reuse_at(now),
        }
    }

    /// Decays the penalty without charging (bookkeeping helper).
    pub fn advance_to(&mut self, now: SimTime) {
        self.penalty.advance_to(now, &self.effective_params());
    }

    /// If suppressed, the instant the penalty will cross the reuse
    /// threshold absent further charges.
    pub fn reuse_at(&self, now: SimTime) -> Option<SimTime> {
        if !self.suppressed {
            return None;
        }
        Some(now + self.time_until_reusable(now))
    }

    /// Time until the penalty decays below the reuse threshold
    /// (zero if already below).
    pub fn time_until_reusable(&self, now: SimTime) -> SimDuration {
        let params = self.effective_params();
        self.penalty
            .time_until_below(now, self.params.reuse_threshold(), &params)
    }

    /// Called when a reuse timer for this entry fires. Releases the
    /// route if the penalty has decayed below the reuse threshold,
    /// otherwise reports when to retry.
    ///
    /// # Panics
    ///
    /// Panics if the entry is not suppressed — reuse timers only exist
    /// for suppressed entries; a stray timer indicates a router bug.
    pub fn on_reuse_due(&mut self, now: SimTime) -> ReuseCheck {
        assert!(
            self.suppressed,
            "reuse timer fired for an unsuppressed entry"
        );
        let wait = self.time_until_reusable(now);
        if wait.is_zero() {
            self.suppressed = false;
            rfd_obs::inc("damper.reuses");
            ReuseCheck::Released
        } else {
            rfd_obs::inc("damper.reuse_deferrals");
            ReuseCheck::StillSuppressed {
                retry_at: now + wait,
            }
        }
    }

    /// True when the penalty has decayed far enough (below half the reuse
    /// threshold) that the damping state can be dropped entirely.
    pub fn is_forgettable(&self, now: SimTime) -> bool {
        !self.suppressed && self.penalty.is_negligible(now, &self.effective_params())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn cisco_damper() -> Damper {
        Damper::new(DampingParams::cisco())
    }

    #[test]
    fn fresh_damper_unsuppressed() {
        let d = cisco_damper();
        assert!(!d.is_suppressed());
        assert_eq!(d.penalty_at(t(0)), 0.0);
        assert_eq!(d.reuse_at(t(0)), None);
    }

    #[test]
    fn single_flap_does_not_suppress() {
        let mut d = cisco_damper();
        let w = d.record_update(t(0), UpdateKind::Withdrawal);
        assert!(!w.newly_suppressed);
        let a = d.record_update(t(60), UpdateKind::ReAnnouncement);
        assert!(!a.newly_suppressed);
        assert!(!d.is_suppressed());
    }

    #[test]
    fn two_pulses_do_not_suppress_three_do() {
        // Paper §5.2: with Cisco defaults and 60 s flapping interval,
        // "when n = 1 or 2, route suppression is not triggered; when
        // n ≥ 3, route suppression is triggered".
        let mut d = cisco_damper();
        let mut newly = Vec::new();
        for pulse in 0..3u64 {
            let w = d.record_update(t(pulse * 120), UpdateKind::Withdrawal);
            let a = d.record_update(t(pulse * 120 + 60), UpdateKind::ReAnnouncement);
            newly.push(w.newly_suppressed || a.newly_suppressed);
        }
        assert_eq!(newly, vec![false, false, true]);
    }

    #[test]
    fn path_exploration_can_suppress_after_single_flap() {
        // A withdrawal plus three alternate-path announcements in quick
        // succession (path exploration) crosses the Cisco cutoff — the
        // false-suppression effect of Mao et al. that §4.1 recaps.
        let mut d = cisco_damper();
        d.record_update(t(0), UpdateKind::Withdrawal); // 1000
        d.record_update(t(5), UpdateKind::ReAnnouncement); // +0
        d.record_update(t(35), UpdateKind::AttributeChange); // +500
        let out = d.record_update(t(65), UpdateKind::AttributeChange); // +500
        assert!(!out.newly_suppressed);
        let out = d.record_update(t(95), UpdateKind::AttributeChange); // +500 → >2000
        assert!(out.newly_suppressed);
    }

    #[test]
    fn suppressed_entry_keeps_charging() {
        let mut d = cisco_damper();
        for i in 0..3u64 {
            d.record_update(t(i * 120), UpdateKind::Withdrawal);
        }
        assert!(d.is_suppressed());
        let before = d.penalty_at(t(360));
        let out = d.record_update(t(360), UpdateKind::Withdrawal);
        assert!(!out.newly_suppressed, "already suppressed");
        assert!(out.penalty > before);
        // reuse deadline moved later
        assert!(out.reuse_at.unwrap() > t(360));
    }

    #[test]
    fn reuse_check_releases_after_decay() {
        let mut d = cisco_damper();
        for i in 0..3u64 {
            d.record_update(t(i * 120), UpdateKind::Withdrawal);
        }
        let reuse_at = d.reuse_at(t(240)).unwrap();
        // At the deadline the penalty is below the threshold.
        assert_eq!(d.on_reuse_due(reuse_at), ReuseCheck::Released);
        assert!(!d.is_suppressed());
    }

    #[test]
    fn reuse_check_reschedules_after_recharge() {
        let mut d = cisco_damper();
        for i in 0..3u64 {
            d.record_update(t(i * 120), UpdateKind::Withdrawal);
        }
        let first_deadline = d.reuse_at(t(240)).unwrap();
        // Secondary charging: a reuse announcement from elsewhere charges
        // the entry before the timer fires.
        d.record_update(t(600), UpdateKind::AttributeChange);
        match d.on_reuse_due(first_deadline) {
            ReuseCheck::StillSuppressed { retry_at } => {
                assert!(retry_at > first_deadline);
                // The retry then succeeds absent further charges.
                assert_eq!(d.on_reuse_due(retry_at), ReuseCheck::Released);
            }
            ReuseCheck::Released => panic!("should still be suppressed"),
        }
    }

    #[test]
    #[should_panic(expected = "unsuppressed")]
    fn reuse_on_unsuppressed_panics() {
        let mut d = cisco_damper();
        d.on_reuse_due(t(0));
    }

    #[test]
    fn juniper_needs_higher_penalty() {
        // Juniper cutoff 3000 but announcements also charge 1000: a pulse
        // charges 2000 total, so pulse 2's withdrawal crosses.
        let mut d = Damper::new(DampingParams::juniper());
        d.record_update(t(0), UpdateKind::Withdrawal); // 1000
        let a = d.record_update(t(60), UpdateKind::ReAnnouncement); // ~1996
        assert!(!a.newly_suppressed);
        let w = d.record_update(t(120), UpdateKind::Withdrawal); // ~2955... below 3000
        let a2 = d.record_update(t(180), UpdateKind::ReAnnouncement); // crosses
        assert!(w.newly_suppressed || a2.newly_suppressed);
    }

    #[test]
    fn reuse_duration_matches_closed_form() {
        // Suppress with a known penalty and compare to (1/λ)·ln(p/750).
        let params = DampingParams::cisco();
        let mut d = Damper::new(params);
        d.charge_raw(t(0), 3000.0);
        assert!(d.is_suppressed());
        let wait = d.time_until_reusable(t(0)).as_secs_f64();
        let expect = (3000.0f64 / 750.0).ln() / params.lambda();
        assert!((wait - expect).abs() < 0.01, "wait {wait} vs {expect}");
    }

    #[test]
    fn forgettable_after_long_decay() {
        let mut d = cisco_damper();
        d.record_update(t(0), UpdateKind::Withdrawal);
        assert!(!d.is_forgettable(t(60)));
        // 1000 → below 375 needs ~1.4 half-lives ≈ 21.3 min.
        assert!(d.is_forgettable(t(1400)));
    }

    #[test]
    fn unreachable_half_life_slows_decay_while_withdrawn() {
        // RFC 2439 §4.2: separate decay rate while the route is down.
        let params = DampingParams::builder()
            .half_life_unreachable(SimDuration::from_mins(30))
            .build()
            .unwrap();
        let mut slow = Damper::new(params);
        let mut normal = Damper::new(DampingParams::cisco());
        for d in [&mut slow, &mut normal] {
            d.record_update(t(0), UpdateKind::Withdrawal); // now unreachable
        }
        // After one (reachable) half-life the normal damper halved; the
        // dual-rate one is at 2^(-0.5).
        let probe = t(900);
        assert!((normal.penalty_at(probe) - 500.0).abs() < 1e-9);
        let expect_slow = 1000.0 * 2f64.powf(-0.5);
        assert!(
            (slow.penalty_at(probe) - expect_slow).abs() < 1e-9,
            "got {}",
            slow.penalty_at(probe)
        );
    }

    #[test]
    fn reachability_switches_rate_at_update_instants() {
        let params = DampingParams::builder()
            .half_life_unreachable(SimDuration::from_mins(30))
            .build()
            .unwrap();
        let mut d = Damper::new(params);
        d.record_update(t(0), UpdateKind::Withdrawal); // 1000, unreachable
                                                       // Re-announce after 900 s: value decayed at the slow rate, and
                                                       // from here on the fast (reachable) rate applies.
        let at_flip = 1000.0 * 2f64.powf(-0.5);
        d.record_update(t(900), UpdateKind::ReAnnouncement); // +0
        assert!((d.penalty_at(t(900)) - at_flip).abs() < 1e-9);
        // One reachable half-life later it has halved.
        assert!((d.penalty_at(t(1800)) - at_flip / 2.0).abs() < 1e-9);
    }

    #[test]
    fn dual_rate_extends_reuse_time() {
        let params = DampingParams::builder()
            .half_life_unreachable(SimDuration::from_mins(30))
            .build()
            .unwrap();
        let mut dual = Damper::new(params);
        let mut single = Damper::new(DampingParams::cisco());
        for d in [&mut dual, &mut single] {
            for i in 0..3u64 {
                d.record_update(t(i * 120), UpdateKind::Withdrawal);
            }
            assert!(d.is_suppressed());
        }
        // Both end unreachable; the dual-rate damper decayed less
        // between flaps (higher penalty) *and* decays slower from here,
        // so it stays suppressed roughly twice as long.
        let w_single = single.time_until_reusable(t(240)).as_secs_f64();
        let w_dual = dual.time_until_reusable(t(240)).as_secs_f64();
        let ratio = w_dual / w_single;
        assert!(
            (1.9..2.3).contains(&ratio),
            "{w_dual} vs {w_single} (ratio {ratio})"
        );
    }

    #[test]
    fn suppression_requires_exceeding_cutoff() {
        // Exactly at the cutoff is not suppression ("exceeds").
        let mut d = cisco_damper();
        let out = d.charge_raw(t(0), 2000.0);
        assert!(!out.newly_suppressed);
        let out = d.charge_raw(t(0), 0.1);
        assert!(out.newly_suppressed);
    }
}
