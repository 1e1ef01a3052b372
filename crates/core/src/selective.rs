//! Simplified *selective route flap damping* (Mao et al., SIGCOMM 2002),
//! implemented as a comparison baseline (paper §6 recaps it).
//!
//! Selective damping attaches to each announcement a preference value
//! relative to the sender's previous announcement. The receiver treats a
//! run of successively *degrading* announcements as path exploration and
//! skips the penalty for them. Unlike RCN it has no notion of root cause:
//! it drops every degrading attribute change, whatever caused it. So it
//! also blocks secondary charging when the secondary updates degrade —
//! on the Fig. 8 mesh at 5 and 8 pulses (seed 2) the re-suppressing
//! charges after a noisy reuse were degrading attribute changes, and
//! selective damping removes that excess as RCN does. It does not filter
//! improving announcements, reuse announcements included: those still
//! charge, as do withdrawals.

use crate::params::DampingParams;
use crate::update::UpdateKind;

/// Preference of an announced route relative to the sender's previous
/// announcement for the same prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelativePreference {
    /// The new route is better than the previously announced one.
    Improved,
    /// The new route is worse — characteristic of path exploration.
    Degraded,
    /// No previous announcement to compare against, or the attribute is
    /// absent (non-participating sender).
    Unknown,
}

/// The selective-damping penalty filter.
///
/// # Examples
///
/// ```
/// use rfd_core::{DampingParams, RelativePreference, SelectiveFilter, UpdateKind};
///
/// let params = DampingParams::cisco();
/// let mut filter = SelectiveFilter::new();
/// // Exploration announcements (degrading) are free…
/// let c = filter.charge_for(
///     UpdateKind::AttributeChange,
///     RelativePreference::Degraded,
///     &params,
/// );
/// assert_eq!(c, 0.0);
/// // …withdrawals always charge.
/// let c = filter.charge_for(
///     UpdateKind::Withdrawal,
///     RelativePreference::Unknown,
///     &params,
/// );
/// assert_eq!(c, 1000.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SelectiveFilter {
    /// Count of exploration updates skipped (for reporting).
    skipped: u64,
}

impl SelectiveFilter {
    /// Creates a filter.
    pub fn new() -> Self {
        SelectiveFilter::default()
    }

    /// Number of updates whose penalty was skipped so far.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Rebuilds a filter from a checkpointed skip count.
    pub fn from_skipped(skipped: u64) -> Self {
        SelectiveFilter { skipped }
    }

    /// Decides the penalty increment for one incoming update.
    pub fn charge_for(
        &mut self,
        kind: UpdateKind,
        preference: RelativePreference,
        params: &DampingParams,
    ) -> f64 {
        match kind {
            // Withdrawals are real (or at least indistinguishable from
            // real flaps) — always charge.
            UpdateKind::Withdrawal => kind.penalty(params),
            // Degrading announcements are classified as exploration.
            UpdateKind::AttributeChange | UpdateKind::ReAnnouncement | UpdateKind::Duplicate => {
                if preference == RelativePreference::Degraded {
                    self.skipped += 1;
                    0.0
                } else {
                    kind.penalty(params)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exploration_run_is_free_final_improvement_charges() {
        let params = DampingParams::cisco();
        let mut f = SelectiveFilter::new();
        // Withdrawal charges.
        assert_eq!(
            f.charge_for(UpdateKind::Withdrawal, RelativePreference::Unknown, &params),
            1000.0
        );
        // Exploration: worse and worse paths, all free.
        for _ in 0..3 {
            assert_eq!(
                f.charge_for(
                    UpdateKind::AttributeChange,
                    RelativePreference::Degraded,
                    &params
                ),
                0.0
            );
        }
        assert_eq!(f.skipped(), 3);
        // Recovery announcement improves — charges (this is the gap vs
        // RCN: reuse announcements still charge, so secondary charging
        // persists under selective damping).
        assert_eq!(
            f.charge_for(
                UpdateKind::AttributeChange,
                RelativePreference::Improved,
                &params
            ),
            500.0
        );
    }

    #[test]
    fn unknown_preference_charges_conservatively() {
        let params = DampingParams::cisco();
        let mut f = SelectiveFilter::new();
        assert_eq!(
            f.charge_for(
                UpdateKind::AttributeChange,
                RelativePreference::Unknown,
                &params
            ),
            500.0
        );
        assert_eq!(f.skipped(), 0);
    }

    #[test]
    fn reannouncement_after_withdrawal() {
        let params = DampingParams::juniper();
        let mut f = SelectiveFilter::new();
        // Juniper charges re-announcements 1000 unless degraded.
        assert_eq!(
            f.charge_for(
                UpdateKind::ReAnnouncement,
                RelativePreference::Improved,
                &params
            ),
            1000.0
        );
        assert_eq!(
            f.charge_for(
                UpdateKind::ReAnnouncement,
                RelativePreference::Degraded,
                &params
            ),
            0.0
        );
    }
}
