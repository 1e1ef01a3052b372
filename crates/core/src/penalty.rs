//! The figure-of-merit ("penalty") value and its exponential decay.

use rfd_sim::{SimDuration, SimTime};

use crate::params::DampingParams;

/// A penalty value anchored at the instant it was last updated.
///
/// The stored value is exact at `updated_at`; queries at later times decay
/// it by `e^(−λ·Δt)`. Charging first decays to the charge instant, then
/// adds the increment, then clamps to the RFC 2439 ceiling.
///
/// # Examples
///
/// ```
/// use rfd_core::{DampingParams, Penalty};
/// use rfd_sim::{SimDuration, SimTime};
///
/// let params = DampingParams::cisco();
/// let mut p = Penalty::new();
/// p.charge(SimTime::ZERO, params.withdrawal_penalty(), &params);
/// // One half-life later the penalty has halved.
/// let later = SimTime::ZERO + SimDuration::from_mins(15);
/// assert!((p.value_at(later, &params) - 500.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Penalty {
    value: f64,
    updated_at: SimTime,
}

impl Default for Penalty {
    fn default() -> Self {
        Self::new()
    }
}

impl Penalty {
    /// A zero penalty anchored at simulation start.
    pub fn new() -> Self {
        Penalty {
            value: 0.0,
            updated_at: SimTime::ZERO,
        }
    }

    /// Rehydrates a penalty from its stored parts (a damper store row).
    pub(crate) fn from_parts(value: f64, updated_at: SimTime) -> Self {
        Penalty { value, updated_at }
    }

    /// The instant the stored value is exact at.
    pub fn updated_at(&self) -> SimTime {
        self.updated_at
    }

    /// The raw stored value (exact at [`Penalty::updated_at`]).
    pub fn raw_value(&self) -> f64 {
        self.value
    }

    /// The decayed value at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last update (time cannot flow
    /// backwards in the simulation).
    pub fn value_at(&self, now: SimTime, params: &DampingParams) -> f64 {
        assert!(
            now >= self.updated_at,
            "penalty queried in the past: {now} < {at}",
            at = self.updated_at
        );
        self.value * params.decay_factor(now - self.updated_at)
    }

    /// Decays the stored value forward to `now` (no-op if `now` equals the
    /// anchor).
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last update.
    pub fn advance_to(&mut self, now: SimTime, params: &DampingParams) {
        self.value = self.value_at(now, params);
        self.updated_at = now;
    }

    /// Adds `amount` at `now`, clamping to the penalty ceiling. Returns
    /// the post-charge value.
    ///
    /// # Panics
    ///
    /// Panics if `amount` is negative or non-finite, or if `now` precedes
    /// the last update.
    pub fn charge(&mut self, now: SimTime, amount: f64, params: &DampingParams) -> f64 {
        assert!(
            amount.is_finite() && amount >= 0.0,
            "penalty increment must be finite and non-negative, got {amount}"
        );
        self.advance_to(now, params);
        self.value = (self.value + amount).min(params.penalty_ceiling());
        self.value
    }

    /// How long (from `now`) until the penalty decays strictly below
    /// `threshold`. Returns [`SimDuration::ZERO`] if it is already below.
    ///
    /// This is the reuse-timer computation: `t = (1/λ)·ln(p/threshold)`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not positive or `now` precedes the last
    /// update.
    pub fn time_until_below(
        &self,
        now: SimTime,
        threshold: f64,
        params: &DampingParams,
    ) -> SimDuration {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "threshold must be positive, got {threshold}"
        );
        let current = self.value_at(now, params);
        if current < threshold {
            return SimDuration::ZERO;
        }
        let secs = (current / threshold).ln() / params.lambda();
        // Nudge past the boundary so that after the wait the value is
        // strictly below the threshold despite rounding to microseconds.
        SimDuration::from_secs_f64(secs) + SimDuration::from_micros(1)
    }

    /// True once the penalty has decayed below the forgive threshold
    /// (half the reuse threshold), at which point RFC 2439 lets the router
    /// discard the damping state.
    pub fn is_negligible(&self, now: SimTime, params: &DampingParams) -> bool {
        self.value_at(now, params) < params.forgive_threshold()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cisco() -> DampingParams {
        DampingParams::cisco()
    }

    #[test]
    fn new_penalty_is_zero() {
        let p = Penalty::new();
        assert_eq!(p.value_at(SimTime::from_secs(100), &cisco()), 0.0);
    }

    #[test]
    fn charge_then_decay_halves_per_half_life() {
        let params = cisco();
        let mut p = Penalty::new();
        p.charge(SimTime::ZERO, 1000.0, &params);
        for halvings in 1..=4u32 {
            let t = SimTime::ZERO + SimDuration::from_mins(15) * u64::from(halvings);
            let expect = 1000.0 / f64::from(2u32.pow(halvings));
            assert!(
                (p.value_at(t, &params) - expect).abs() < 1e-9,
                "at {halvings} half-lives"
            );
        }
    }

    #[test]
    fn charges_accumulate_with_decay() {
        // Paper §3: p(k) = p(k−1)·e^(−λ·w(k)) + f(k).
        let params = cisco();
        let mut p = Penalty::new();
        p.charge(SimTime::ZERO, 1000.0, &params);
        let t1 = SimTime::from_secs(120);
        let v = p.charge(t1, 1000.0, &params);
        let expect = 1000.0 * params.decay_factor(SimDuration::from_secs(120)) + 1000.0;
        assert!((v - expect).abs() < 1e-9);
        // With Cisco half-life the 2-withdrawal penalty stays below the
        // 2000 cutoff — suppression needs a third flap (paper §5.2).
        assert!(v < 2000.0);
    }

    #[test]
    fn third_withdrawal_crosses_cisco_cutoff() {
        let params = cisco();
        let mut p = Penalty::new();
        // Withdrawals every 120 s (pulse = withdrawal + announcement at
        // 60 s gaps; announcements charge 0 under Cisco defaults).
        let mut last = 0.0;
        for i in 0..3u64 {
            last = p.charge(
                SimTime::from_secs(i * 120),
                params.withdrawal_penalty(),
                &params,
            );
        }
        assert!(
            last > params.cutoff_threshold(),
            "penalty {last} should cross 2000"
        );
    }

    #[test]
    fn ceiling_clamps() {
        let params = cisco();
        let mut p = Penalty::new();
        let t = SimTime::ZERO;
        for _ in 0..100 {
            p.charge(t, 1000.0, &params);
        }
        assert_eq!(p.raw_value(), params.penalty_ceiling());
    }

    #[test]
    fn time_until_below_is_exact_inverse() {
        let params = cisco();
        let mut p = Penalty::new();
        p.charge(SimTime::ZERO, 3000.0, &params);
        let wait = p.time_until_below(SimTime::ZERO, 750.0, &params);
        // Analytically: ln(4)/λ = 2 half-lives = 30 min.
        assert!((wait.as_secs_f64() - 1800.0).abs() < 0.01, "wait {wait}");
        let after = p.value_at(SimTime::ZERO + wait, &params);
        assert!(after < 750.0);
        // A microsecond before the deadline it is still at or above.
        let before = p.value_at(
            SimTime::ZERO + (wait - SimDuration::from_micros(2)),
            &params,
        );
        assert!(before >= 749.99);
    }

    #[test]
    fn time_until_below_zero_when_already_below() {
        let params = cisco();
        let mut p = Penalty::new();
        p.charge(SimTime::ZERO, 100.0, &params);
        assert_eq!(
            p.time_until_below(SimTime::ZERO, 750.0, &params),
            SimDuration::ZERO
        );
    }

    #[test]
    fn max_suppression_bounded_by_hold_down() {
        // From the ceiling, the time to decay to the reuse threshold is
        // exactly the max hold-down (that is what the ceiling encodes).
        let params = cisco();
        let mut p = Penalty::new();
        for _ in 0..100 {
            p.charge(SimTime::ZERO, 10_000.0, &params);
        }
        let wait = p.time_until_below(SimTime::ZERO, params.reuse_threshold(), &params);
        assert!((wait.as_secs_f64() - 3600.0).abs() < 0.01);
    }

    #[test]
    fn advance_to_preserves_value() {
        let params = cisco();
        let mut p = Penalty::new();
        p.charge(SimTime::ZERO, 2000.0, &params);
        let probe = SimTime::from_secs(500);
        let expected = p.value_at(probe, &params);
        p.advance_to(SimTime::from_secs(200), &params);
        p.advance_to(SimTime::from_secs(350), &params);
        assert!((p.value_at(probe, &params) - expected).abs() < 1e-9);
    }

    #[test]
    fn negligible_below_half_reuse() {
        let params = cisco();
        let mut p = Penalty::new();
        p.charge(SimTime::ZERO, 370.0, &params);
        assert!(p.is_negligible(SimTime::ZERO, &params));
        p.charge(SimTime::ZERO, 100.0, &params);
        assert!(!p.is_negligible(SimTime::ZERO, &params));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn querying_past_panics() {
        let params = cisco();
        let mut p = Penalty::new();
        p.charge(SimTime::from_secs(10), 100.0, &params);
        let _ = p.value_at(SimTime::from_secs(5), &params);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_charge_panics() {
        let mut p = Penalty::new();
        p.charge(SimTime::ZERO, -5.0, &cisco());
    }
}
