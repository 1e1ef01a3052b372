//! Root Cause Notification (RCN) and the damping filter built on it
//! (paper §6).
//!
//! RCN attaches to every routing update the *root cause* that triggered
//! it: the link whose status changed, the new status, and a sequence
//! number. All updates triggered by the same link event — including the
//! whole path-exploration burst and later reuse announcements — carry the
//! same root cause. The RCN-enhanced damper keeps a per-peer history of
//! root causes already seen and charges the penalty only for first
//! occurrences, so a single flap charges the penalty exactly once no
//! matter how many updates it fans out into.

use std::collections::VecDeque;

use crate::params::DampingParams;
use crate::update::UpdateKind;

/// Status of the root-cause link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkStatus {
    /// The link came up (triggers announcements).
    Up,
    /// The link went down (triggers withdrawals).
    Down,
}

/// A root cause: `{[u v], status, seq}` (paper §6.1).
///
/// `link` endpoints are raw node indices — the protocol layer maps its
/// node identifiers onto them. The sequence number orders root causes
/// generated for the same link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RootCause {
    /// The link whose status changed, as (detecting node, neighbour).
    pub link: (u32, u32),
    /// The new link status.
    pub status: LinkStatus,
    /// Sequence number maintained by the detecting node for this link.
    pub seq: u64,
}

impl RootCause {
    /// Convenience constructor.
    pub fn new(link: (u32, u32), status: LinkStatus, seq: u64) -> Self {
        RootCause { link, status, seq }
    }
}

/// Bounded per-peer history of root causes already charged.
///
/// The bound models a real router's finite memory; when full, the oldest
/// entry is evicted FIFO. Re-seeing an evicted root cause would charge
/// again, which is safe (it only makes damping more conservative).
///
/// Every RCN RIB-IN entry owns one, and most hold a few root causes (a
/// flap pulse adds two), so the history is one queue that lookups scan,
/// allocated with room for sixteen rather than at the bound. Its `Clone`
/// keeps that room, so a forked network's entries never regrow it.
///
/// # Examples
///
/// ```
/// use rfd_core::{LinkStatus, RootCause, RootCauseHistory};
///
/// let mut history = RootCauseHistory::new(4);
/// let rc = RootCause::new((1, 2), LinkStatus::Down, 1);
/// assert!(history.observe(rc), "first sighting is new");
/// assert!(!history.observe(rc), "repeat sighting is not");
/// ```
#[derive(Debug)]
pub struct RootCauseHistory {
    capacity: usize,
    order: VecDeque<RootCause>,
}

impl Clone for RootCauseHistory {
    fn clone(&self) -> Self {
        let mut order = VecDeque::with_capacity(self.order.capacity());
        order.extend(&self.order);
        RootCauseHistory {
            capacity: self.capacity,
            order,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.capacity = source.capacity;
        self.order.clear();
        self.order.reserve(source.order.capacity());
        self.order.extend(&source.order);
    }
}

impl RootCauseHistory {
    /// Default capacity used by the protocol layer.
    pub const DEFAULT_CAPACITY: usize = 128;

    /// Room reserved up front: eight flap pulses' root causes.
    const FIRST_RESERVE: usize = 16;

    /// Creates a history holding at most `capacity` root causes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "history capacity must be positive");
        RootCauseHistory {
            capacity,
            order: VecDeque::with_capacity(Self::FIRST_RESERVE.min(capacity)),
        }
    }

    /// Records a sighting. Returns `true` iff this root cause was not in
    /// the history (i.e. the update should charge the penalty).
    pub fn observe(&mut self, rc: RootCause) -> bool {
        if self.contains(&rc) {
            return false;
        }
        if self.order.len() == self.capacity {
            self.order.pop_front();
        }
        self.order.push_back(rc);
        true
    }

    /// Whether `rc` is currently remembered.
    pub fn contains(&self, rc: &RootCause) -> bool {
        self.order.contains(rc)
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Remembered root causes, oldest first — the order re-`observe`-ing
    /// them into a fresh history reproduces this one exactly.
    pub fn entries(&self) -> impl Iterator<Item = &RootCause> {
        self.order.iter()
    }

    /// Number of remembered root causes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

impl Default for RootCauseHistory {
    fn default() -> Self {
        RootCauseHistory::new(Self::DEFAULT_CAPACITY)
    }
}

/// How the RCN filter charges a first-seen root cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RcnChargePolicy {
    /// Charge by the root cause itself: a `Down` cause charges the
    /// withdrawal penalty, an `Up` cause the re-announcement penalty.
    /// This realises the paper's "the damping penalty should apply only
    /// to updates caused by route flapping": the *flap* is penalised, not
    /// the update's surface form.
    #[default]
    ByRootCause,
    /// Charge by the update's own kind (withdrawal / attribute change /
    /// re-announcement), still at most once per root cause.
    ByUpdateKind,
}

/// The RCN damping filter (paper Figure 12): sits in front of the
/// damping algorithm and decides, per update, how much penalty to charge.
///
/// Updates without a root cause (e.g. from a non-RCN-speaking peer in a
/// partial deployment) fall back to plain per-update charging.
#[derive(Debug)]
pub struct RcnFilter {
    history: RootCauseHistory,
    policy: RcnChargePolicy,
}

rfd_sim::clone_fields!(impl Clone for RcnFilter { history, policy });

impl RcnFilter {
    /// Creates a filter with the given history capacity and charge
    /// policy.
    pub fn new(capacity: usize, policy: RcnChargePolicy) -> Self {
        RcnFilter {
            history: RootCauseHistory::new(capacity),
            policy,
        }
    }

    /// Rebuilds a filter from checkpointed state: `entries` are
    /// re-observed oldest-first, reproducing the history (contents,
    /// order, and eviction position) exactly.
    pub fn restore(
        capacity: usize,
        policy: RcnChargePolicy,
        entries: impl IntoIterator<Item = RootCause>,
    ) -> Self {
        let mut filter = RcnFilter::new(capacity, policy);
        for rc in entries {
            filter.history.observe(rc);
        }
        filter
    }

    /// The charge policy in use.
    pub fn policy(&self) -> RcnChargePolicy {
        self.policy
    }

    /// Read access to the underlying history.
    pub fn history(&self) -> &RootCauseHistory {
        &self.history
    }

    /// Decides the penalty increment for one incoming update.
    ///
    /// Returns the amount to charge (possibly `0.0`). The update itself
    /// is *always* passed on to route selection — the filter only guards
    /// the penalty.
    pub fn charge_for(
        &mut self,
        kind: UpdateKind,
        root_cause: Option<RootCause>,
        params: &DampingParams,
    ) -> f64 {
        match root_cause {
            None => kind.penalty(params),
            Some(rc) => {
                if !self.history.observe(rc) {
                    return 0.0;
                }
                match self.policy {
                    RcnChargePolicy::ByUpdateKind => kind.penalty(params),
                    RcnChargePolicy::ByRootCause => match rc.status {
                        LinkStatus::Down => params.withdrawal_penalty(),
                        LinkStatus::Up => params.reannouncement_penalty(),
                    },
                }
            }
        }
    }
}

impl Default for RcnFilter {
    fn default() -> Self {
        RcnFilter::new(
            RootCauseHistory::DEFAULT_CAPACITY,
            RcnChargePolicy::default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rc(seq: u64, status: LinkStatus) -> RootCause {
        RootCause::new((10, 11), status, seq)
    }

    #[test]
    fn history_dedupes() {
        let mut h = RootCauseHistory::new(8);
        assert!(h.observe(rc(1, LinkStatus::Down)));
        assert!(!h.observe(rc(1, LinkStatus::Down)));
        assert!(h.observe(rc(2, LinkStatus::Up)));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn distinct_links_are_distinct_causes() {
        let mut h = RootCauseHistory::new(8);
        assert!(h.observe(RootCause::new((1, 2), LinkStatus::Down, 1)));
        assert!(h.observe(RootCause::new((3, 4), LinkStatus::Down, 1)));
    }

    #[test]
    fn history_evicts_fifo() {
        let mut h = RootCauseHistory::new(2);
        h.observe(rc(1, LinkStatus::Down));
        h.observe(rc(2, LinkStatus::Up));
        h.observe(rc(3, LinkStatus::Down)); // evicts seq 1
        assert!(!h.contains(&rc(1, LinkStatus::Down)));
        assert!(h.contains(&rc(2, LinkStatus::Up)));
        assert_eq!(h.len(), 2);
        // Re-observing the evicted cause charges again (returns true).
        assert!(h.observe(rc(1, LinkStatus::Down)));
    }

    #[test]
    fn filter_charges_once_per_root_cause() {
        // Paper Figure 12: a flap's whole path-exploration burst charges
        // exactly once.
        let params = DampingParams::cisco();
        let mut f = RcnFilter::default();
        let cause = rc(7, LinkStatus::Down);
        let first = f.charge_for(UpdateKind::Withdrawal, Some(cause), &params);
        assert_eq!(first, 1000.0);
        // Three exploration announcements with the same cause: free.
        for _ in 0..3 {
            let c = f.charge_for(UpdateKind::AttributeChange, Some(cause), &params);
            assert_eq!(c, 0.0);
        }
    }

    #[test]
    fn reuse_announcement_carries_old_cause_and_is_free() {
        // "When a suppressed route is reused, the RCN is attached to the
        // route announcement, which will not cause penalty increase at
        // receiving routers since the root cause has been seen before."
        let params = DampingParams::cisco();
        let mut f = RcnFilter::default();
        let cause = rc(9, LinkStatus::Up);
        let _ = f.charge_for(UpdateKind::ReAnnouncement, Some(cause), &params);
        let again = f.charge_for(UpdateKind::AttributeChange, Some(cause), &params);
        assert_eq!(again, 0.0, "secondary charging is eliminated");
    }

    #[test]
    fn by_root_cause_policy_charges_flap_kind() {
        let params = DampingParams::cisco();
        let mut f = RcnFilter::new(16, RcnChargePolicy::ByRootCause);
        // A Down cause first seen via an exploration *announcement* still
        // charges the withdrawal penalty — the flap is a withdrawal.
        let c = f.charge_for(
            UpdateKind::AttributeChange,
            Some(rc(1, LinkStatus::Down)),
            &params,
        );
        assert_eq!(c, 1000.0);
        // An Up cause charges the re-announcement penalty (0 for Cisco).
        let c = f.charge_for(
            UpdateKind::ReAnnouncement,
            Some(rc(2, LinkStatus::Up)),
            &params,
        );
        assert_eq!(c, 0.0);
    }

    #[test]
    fn by_update_kind_policy_charges_surface_form() {
        let params = DampingParams::cisco();
        let mut f = RcnFilter::new(16, RcnChargePolicy::ByUpdateKind);
        let c = f.charge_for(
            UpdateKind::AttributeChange,
            Some(rc(1, LinkStatus::Down)),
            &params,
        );
        assert_eq!(c, 500.0);
    }

    #[test]
    fn missing_root_cause_falls_back_to_plain_damping() {
        let params = DampingParams::cisco();
        let mut f = RcnFilter::default();
        assert_eq!(f.charge_for(UpdateKind::Withdrawal, None, &params), 1000.0);
        assert_eq!(f.charge_for(UpdateKind::Withdrawal, None, &params), 1000.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        RootCauseHistory::new(0);
    }
}
