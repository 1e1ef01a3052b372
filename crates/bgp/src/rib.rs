//! Routing information bases (paper Figure 2).
//!
//! Each router keeps, per peer, a RIB-IN entry holding the latest route
//! received from that peer together with its damping state; a Local-RIB
//! holding the selected best route; and a RIB-OUT per peer recording
//! what was last advertised. Routes are interned [`Route`] handles
//! (`Copy`), so RIB reads and writes move 16 bytes, not path vectors.
//!
//! Damping state itself lives in the router's central
//! [`DamperStore`](rfd_core::DamperStore) (one row array per router,
//! sized once for every (peer, prefix) entry, instead of per-entry
//! state); the entry holds the store slot plus a mirror of
//! the suppression flag so the decision process reads one local bool.

use std::num::NonZeroU32;

use rfd_core::{RcnFilter, RootCause, SelectiveFilter};
use rfd_topology::NodeId;

use crate::config::PenaltyFilter;
use crate::intern::Route;

/// One (peer, prefix) entry of the RIB-IN: 40 bytes of hot state.
#[derive(Debug)]
pub struct RibInEntry {
    /// Latest route received from the peer (`None` after a withdrawal).
    pub route: Option<Route>,
    /// Slot in the router's [`DamperStore`](rfd_core::DamperStore) plus
    /// one (absent when this router does not damp).
    pub(crate) slot: Option<NonZeroU32>,
    /// Mirror of the store's suppression flag, maintained after every
    /// charge and reuse check.
    pub suppressed: bool,
    /// How many times the damper has been charged, saturating (the
    /// ledger's 1-based flap index; stays 0 without damping).
    pub charges: u32,
    /// State only the RCN and selective filters read, boxed on first
    /// use: plain damping never allocates it.
    pub(crate) filters: Option<Box<FilterState>>,
}

rfd_sim::clone_fields!(impl Clone for RibInEntry { route, slot, suppressed, charges, filters });

/// The part of a RIB-IN entry plain damping never reads.
#[derive(Debug, Default)]
pub(crate) struct FilterState {
    /// RCN history/filter for this peer (RCN deployments).
    pub(crate) rcn: Option<RcnFilter>,
    /// Selective-damping filter for this peer.
    pub(crate) selective: Option<SelectiveFilter>,
    /// Root cause of the most recent update from this peer (only RCN
    /// stamps one); re-attached when a reuse triggers announcements.
    pub(crate) last_rc: Option<RootCause>,
}

rfd_sim::clone_fields!(impl Clone for FilterState { rcn, selective, last_rc });

impl FilterState {
    /// The state boxed, or `None` when every part is absent.
    pub(crate) fn boxed(self) -> Option<Box<FilterState>> {
        let any = self.rcn.is_some() || self.selective.is_some() || self.last_rc.is_some();
        any.then(|| Box::new(self))
    }
}

impl RibInEntry {
    /// Creates an empty entry configured for this router's damping
    /// deployment and filter choice. `damper_slot` is the slot the
    /// router allocated in its damper store (`None` disables damping
    /// for the entry, and with it the filters; `u32::MAX` panics).
    pub fn new(damper_slot: Option<u32>, filter: PenaltyFilter) -> Self {
        let slot = damper_slot.map(|s| Self::pack_slot(s).expect("damper slot below u32::MAX"));
        let mut filters = FilterState::default();
        match (slot, filter) {
            (Some(_), PenaltyFilter::Rcn) => filters.rcn = Some(RcnFilter::default()),
            (Some(_), PenaltyFilter::Selective) => filters.selective = Some(SelectiveFilter::new()),
            _ => {}
        }
        RibInEntry {
            route: None,
            slot,
            suppressed: false,
            charges: 0,
            filters: filters.boxed(),
        }
    }

    /// The stored form of damper slot `slot` (`None` for `u32::MAX`).
    pub(crate) fn pack_slot(slot: u32) -> Option<NonZeroU32> {
        NonZeroU32::new(slot.wrapping_add(1))
    }

    /// The entry's slot in the router's damper store (`None` when this
    /// router does not damp).
    pub fn damper_slot(&self) -> Option<u32> {
        self.slot.map(|s| s.get() - 1)
    }

    /// Whether the entry is currently suppressed.
    pub fn is_suppressed(&self) -> bool {
        self.suppressed
    }

    /// The route if it may be used in best-path selection (present and
    /// not suppressed).
    pub fn usable_route(&self) -> Option<Route> {
        self.route.filter(|_| !self.suppressed)
    }
}

/// The selected best route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BestRoute {
    /// The peer the route was learned from; `None` for a self-originated
    /// route.
    pub learned_from: Option<NodeId>,
    /// The route as received (not yet prepended with this router's AS).
    pub route: Route,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::PathTable;
    use rfd_core::{DamperStore, DampingParams};
    use rfd_sim::SimTime;

    #[test]
    fn entry_without_damping_never_suppressed() {
        let e = RibInEntry::new(None, PenaltyFilter::Plain);
        assert!(!e.is_suppressed());
        assert!(e.damper_slot().is_none() && e.filters.is_none());
    }

    #[test]
    fn filter_wiring_matches_config() {
        let wiring = |slot, filter| {
            let f = RibInEntry::new(slot, filter).filters;
            f.map(|f| (f.rcn.is_some(), f.selective.is_some()))
        };
        assert_eq!(wiring(Some(0), PenaltyFilter::Rcn), Some((true, false)));
        assert_eq!(
            wiring(Some(0), PenaltyFilter::Selective),
            Some((false, true))
        );
        // Plain damping allocates no filter state, and filters require
        // a damper.
        assert_eq!(wiring(Some(0), PenaltyFilter::Plain), None);
        assert_eq!(wiring(None, PenaltyFilter::Rcn), None);
    }

    #[test]
    fn usable_route_hides_suppressed() {
        let mut store = DamperStore::exact(DampingParams::cisco());
        let mut table = PathTable::new();
        let slot = store.insert(0);
        let mut e = RibInEntry::new(Some(slot), PenaltyFilter::Plain);
        e.route = Some(table.originate(NodeId::new(1)));
        assert!(e.usable_route().is_some());
        store.charge_raw(slot, SimTime::ZERO, 5000.0);
        e.suppressed = store.is_suppressed(slot);
        assert!(e.is_suppressed());
        assert!(e.usable_route().is_none());
        assert!(e.route.is_some(), "the route itself is retained");
    }
}
