//! The *intended behaviour* model of damping (paper §3).
//!
//! Section 3 of the paper derives, from the single-router damping rules
//! alone, what convergence after `n` flaps *should* look like:
//!
//! * penalty after the k-th flap:
//!   `p(k) = Σᵢ f(i) · e^(−λ·Σⱼ w(j))` (all flaps decayed to the last);
//! * reuse delay once flapping stops: `r = (1/λ) · ln(p / P_reuse)`;
//! * total convergence time: `t = r + t_up` where `t_up` is the normal
//!   (damping-free) convergence time of an announcement.
//!
//! These closed forms produce the "Full Damping (calculation)" lines of
//! Figures 8, 13 and 15. The deviation of the *simulated* network from
//! this model at small `n` — and the convergence back onto it past the
//! critical point `N_h` — is the paper's central result.

use rfd_sim::{SimDuration, SimTime};

use crate::damper::Damper;
use crate::params::DampingParams;
use crate::update::UpdateKind;

/// The origin's flapping workload — the only description of a flap
/// train: `n` *pulses*, each a withdrawal followed by a
/// re-announcement, consecutive events one interval apart. The final
/// event is always an announcement (the link fully recovers), matching
/// §5.1.
///
/// # Examples
///
/// ```
/// use rfd_core::FlapPattern;
/// use rfd_sim::SimDuration;
///
/// let pattern = FlapPattern::new(3, SimDuration::from_secs(60));
/// let events: Vec<_> = pattern.events().collect();
/// assert_eq!(events.len(), 6); // 3 withdrawals + 3 announcements
/// assert_eq!(pattern.final_announcement_at(), Some(events[5].0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapPattern {
    pulses: usize,
    interval: SimDuration,
}

/// The flap train's former name, kept only for the perf ledger
/// (`perfledger/src/workloads.rs`), which still spells its workload
/// `FlapSchedule::from(FlapPattern::paper_default(n))`.
pub type FlapSchedule = FlapPattern;

impl FlapPattern {
    /// The paper's default flapping interval (60 seconds).
    pub const DEFAULT_INTERVAL: SimDuration = SimDuration::from_secs(60);

    /// Creates a pattern of `pulses` pulses with the given event gap.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero and `pulses > 0`: the events of a
    /// pattern strictly increase in time.
    pub fn new(pulses: usize, interval: SimDuration) -> Self {
        assert!(
            pulses == 0 || !interval.is_zero(),
            "flap events must strictly increase in time: the interval must be positive"
        );
        FlapPattern { pulses, interval }
    }

    /// The paper's workload: `pulses` pulses at 60-second intervals.
    pub fn paper_default(pulses: usize) -> Self {
        FlapPattern::new(pulses, Self::DEFAULT_INTERVAL)
    }

    /// Number of pulses `n`.
    pub fn pulses(&self) -> usize {
        self.pulses
    }

    /// Gap between consecutive events.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Pulse `k` (from 0) as offsets from the pattern's start: the link
    /// goes down at `2k·interval` and comes back up one interval later.
    pub fn pulse(&self, k: usize) -> (SimDuration, SimDuration) {
        let down = self.interval * (2 * k as u64);
        (down, down + self.interval)
    }

    /// The event sequence as seen by the adjacent router (ispAS),
    /// yielded lazily in time order: withdrawal at `0`, re-announcement
    /// at `interval`, withdrawal at `2·interval`, …
    pub fn events(self) -> impl Iterator<Item = (SimTime, UpdateKind)> {
        (0..self.pulses).flat_map(move |k| {
            let (down, up) = self.pulse(k);
            [
                (SimTime::ZERO + down, UpdateKind::Withdrawal),
                (SimTime::ZERO + up, UpdateKind::ReAnnouncement),
            ]
        })
    }

    /// Instant of the final announcement (convergence time is measured
    /// from here), or `None` for an empty pattern.
    pub fn final_announcement_at(&self) -> Option<SimTime> {
        let last = self.pulses.checked_sub(1)?;
        Some(SimTime::ZERO + self.pulse(last).1)
    }
}

/// Closed-form penalty after a sequence of charges.
///
/// `charges` is a list of `(time, amount)` pairs in non-decreasing time
/// order; the result is the penalty at the time of the last charge,
/// clamped at the ceiling after every charge exactly as a router would.
///
/// # Panics
///
/// Panics if times decrease.
pub fn penalty_after_charges(params: &DampingParams, charges: &[(SimTime, f64)]) -> f64 {
    let mut value = 0.0f64;
    let mut at = SimTime::ZERO;
    for &(t, amount) in charges {
        assert!(t >= at, "charges must be time-ordered");
        value = value * params.decay_factor(t - at) + amount;
        value = value.min(params.penalty_ceiling());
        at = t;
    }
    value
}

/// What the single-router model predicts for a flap pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntendedBehavior {
    /// Pulse number (1-based) whose events first pushed the penalty over
    /// the cut-off, if suppression is triggered at all.
    pub suppression_pulse: Option<usize>,
    /// Penalty at the instant of the final announcement.
    pub final_penalty: f64,
    /// `r`: how long after the final announcement the penalty stays
    /// above the reuse threshold (zero if never suppressed or already
    /// below).
    pub reuse_delay: SimDuration,
    /// `r + t_up`, or just `t_up` when suppression never triggered.
    pub convergence_time: SimDuration,
}

/// Evaluates the intended-behaviour model for one flap pattern.
///
/// `t_up` is the normal BGP convergence time for an announcement (a
/// property of the topology and MRAI, not of damping); the paper treats
/// it as a small constant relative to `r`.
///
/// # Examples
///
/// With Cisco defaults and the paper's 60-second interval, suppression
/// is first triggered by the third pulse:
///
/// ```
/// use rfd_core::{intended_behavior, DampingParams, FlapPattern};
/// use rfd_sim::SimDuration;
///
/// let params = DampingParams::cisco();
/// let t_up = SimDuration::from_secs(30);
/// let two = intended_behavior(&params, FlapPattern::paper_default(2), t_up);
/// assert_eq!(two.suppression_pulse, None);
/// let three = intended_behavior(&params, FlapPattern::paper_default(3), t_up);
/// assert_eq!(three.suppression_pulse, Some(3));
/// assert!(three.convergence_time > SimDuration::from_secs(1200));
/// ```
pub fn intended_behavior(
    params: &DampingParams,
    pattern: FlapPattern,
    t_up: SimDuration,
) -> IntendedBehavior {
    let mut damper = Damper::new(*params);
    let mut suppression_pulse = None;
    let mut final_penalty = 0.0;
    for (idx, (at, kind)) in pattern.events().enumerate() {
        let outcome = damper.record_update(at, kind);
        if outcome.newly_suppressed && suppression_pulse.is_none() {
            suppression_pulse = Some(idx / 2 + 1);
        }
        final_penalty = outcome.penalty;
    }
    let reuse_delay = match pattern.final_announcement_at() {
        Some(end) if damper.is_suppressed() => damper.time_until_reusable(end),
        _ => SimDuration::ZERO,
    };
    let convergence_time = if pattern.pulses() == 0 {
        SimDuration::ZERO
    } else {
        reuse_delay + t_up
    };
    IntendedBehavior {
        suppression_pulse,
        final_penalty,
        reuse_delay,
        convergence_time,
    }
}

/// The intended convergence-time curve over pulse counts `0..=max_pulses`
/// (the "Full Damping (calculation)" series of Figure 8).
pub fn intended_curve(
    params: &DampingParams,
    interval: SimDuration,
    max_pulses: usize,
    t_up: SimDuration,
) -> Vec<(usize, SimDuration)> {
    (0..=max_pulses)
        .map(|n| {
            let b = intended_behavior(params, FlapPattern::new(n, interval), t_up);
            (n, b.convergence_time)
        })
        .collect()
}

/// First pulse count at which the pattern triggers suppression, if any
/// count up to `limit` does (`N_h` determination helper).
pub fn suppression_trigger_pulse(
    params: &DampingParams,
    interval: SimDuration,
    limit: usize,
) -> Option<usize> {
    (1..=limit).find(|&n| {
        intended_behavior(params, FlapPattern::new(n, interval), SimDuration::ZERO)
            .suppression_pulse
            .is_some()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cisco() -> DampingParams {
        DampingParams::cisco()
    }

    #[test]
    fn pattern_event_layout() {
        let p = FlapPattern::paper_default(2);
        let ev: Vec<_> = p.events().collect();
        assert_eq!(ev.len(), 4);
        assert_eq!(ev[0], (SimTime::from_secs(0), UpdateKind::Withdrawal));
        assert_eq!(ev[1], (SimTime::from_secs(60), UpdateKind::ReAnnouncement));
        assert_eq!(ev[2], (SimTime::from_secs(120), UpdateKind::Withdrawal));
        assert_eq!(ev[3], (SimTime::from_secs(180), UpdateKind::ReAnnouncement));
        assert_eq!(p.final_announcement_at(), Some(SimTime::from_secs(180)));
        assert_eq!(FlapPattern::paper_default(0).final_announcement_at(), None);
    }

    #[test]
    fn closed_form_matches_damper() {
        let params = cisco();
        let pattern = FlapPattern::paper_default(5);
        let charges: Vec<(SimTime, f64)> = pattern
            .events()
            .map(|(t, k)| (t, k.penalty(&params)))
            .collect();
        let closed = penalty_after_charges(&params, &charges);
        let mut damper = Damper::new(params);
        let mut last = 0.0;
        for (t, k) in pattern.events() {
            last = damper.record_update(t, k).penalty;
        }
        assert!((closed - last).abs() < 1e-9);
    }

    #[test]
    fn paper_trigger_point_is_three_pulses() {
        // §5.2: "when the number of pulses n = 1 or 2, route suppression
        // is not triggered … when n ≥ 3, route suppression is triggered".
        assert_eq!(
            suppression_trigger_pulse(&cisco(), FlapPattern::DEFAULT_INTERVAL, 10),
            Some(3)
        );
    }

    #[test]
    fn no_flaps_no_convergence_delay() {
        let b = intended_behavior(
            &cisco(),
            FlapPattern::paper_default(0),
            SimDuration::from_secs(30),
        );
        assert_eq!(b.convergence_time, SimDuration::ZERO);
        assert_eq!(b.final_penalty, 0.0);
    }

    #[test]
    fn small_n_convergence_is_just_t_up() {
        let t_up = SimDuration::from_secs(45);
        for n in 1..=2 {
            let b = intended_behavior(&cisco(), FlapPattern::paper_default(n), t_up);
            assert_eq!(b.suppression_pulse, None, "n={n}");
            assert_eq!(b.convergence_time, t_up, "n={n}");
        }
    }

    #[test]
    fn reuse_delay_exceeds_twenty_minutes_once_suppressed() {
        // §3: "with Cisco default setting, r is at least 20 minutes".
        let b = intended_behavior(&cisco(), FlapPattern::paper_default(3), SimDuration::ZERO);
        assert!(
            b.reuse_delay >= SimDuration::from_mins(20),
            "r = {}",
            b.reuse_delay
        );
    }

    #[test]
    fn curve_is_monotone_after_trigger_and_saturates() {
        let t_up = SimDuration::from_secs(30);
        let curve = intended_curve(&cisco(), FlapPattern::DEFAULT_INTERVAL, 20, t_up);
        // Flat (= t_up) before the trigger…
        assert_eq!(curve[1].1, t_up);
        assert_eq!(curve[2].1, t_up);
        // …jumps at n = 3 and is non-decreasing afterwards…
        assert!(curve[3].1 > curve[2].1);
        for w in curve[3..].windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        // …and never exceeds max hold-down + t_up (penalty ceiling).
        let cap = SimDuration::from_mins(60) + t_up;
        for (n, c) in &curve {
            assert!(c <= &cap, "n={n}: {c}");
        }
        // Saturation: the last steps grow by well under a minute.
        let tail_growth = curve[20].1 - curve[19].1;
        assert!(tail_growth < SimDuration::from_secs(60));
    }

    #[test]
    fn juniper_trigger_point() {
        // Juniper's higher cutoff (3000) is offset by its PA=1000: each
        // pulse charges 2000 total, so the crossing comes at pulse 2 —
        // earlier than Cisco's pulse 3 despite the higher threshold.
        let j =
            suppression_trigger_pulse(&DampingParams::juniper(), FlapPattern::DEFAULT_INTERVAL, 10);
        assert_eq!(j, Some(2));
    }

    #[test]
    fn longer_intervals_delay_suppression() {
        // With 10-minute gaps between events, decay keeps the penalty
        // low; suppression needs more pulses than at 60 s.
        let slow = suppression_trigger_pulse(&cisco(), SimDuration::from_mins(10), 50);
        assert!(slow.is_none_or(|n| n > 3));
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn a_zero_interval_is_refused() {
        FlapPattern::new(1, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn unordered_charges_panic() {
        penalty_after_charges(
            &cisco(),
            &[
                (SimTime::from_secs(10), 100.0),
                (SimTime::from_secs(5), 100.0),
            ],
        );
    }
}
