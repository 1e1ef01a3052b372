//! Routing information bases (paper Figure 2).
//!
//! Each router keeps, per peer, a RIB-IN entry holding the latest route
//! received from that peer together with its damping state; a Local-RIB
//! holding the selected best route; and a RIB-OUT per peer recording
//! what was last advertised. Routes are interned [`Route`] handles
//! (`Copy`), so RIB reads and writes move 16 bytes, not path vectors.
//!
//! Damping state itself lives in the router's central
//! [`DamperStore`](rfd_core::DamperStore) (one SoA store per router, so
//! decay sweeps and reuse checks touch dense arrays instead of chasing
//! per-entry state); the entry holds the store slot plus a mirror of
//! the suppression flag so the decision process reads one local bool.

use rfd_core::{RcnFilter, RootCause, SelectiveFilter};
use rfd_topology::NodeId;

use crate::config::PenaltyFilter;
use crate::intern::Route;

/// One (peer, prefix) entry of the RIB-IN.
#[derive(Debug, Clone)]
pub struct RibInEntry {
    /// Latest route received from the peer (`None` after a withdrawal).
    pub route: Option<Route>,
    /// Slot in the router's [`DamperStore`](rfd_core::DamperStore)
    /// (absent when this router does not damp).
    pub damper_slot: Option<u32>,
    /// Mirror of the store's suppression flag, maintained after every
    /// charge and reuse check.
    pub suppressed: bool,
    /// RCN history/filter for this peer (RCN deployments); boxed, so
    /// entries of other deployments stay 88 bytes.
    pub rcn: Option<Box<RcnFilter>>,
    /// Selective-damping filter for this peer.
    pub selective: Option<SelectiveFilter>,
    /// Root cause attached to the most recent update from this peer;
    /// re-attached when a reuse of this entry triggers announcements.
    pub last_rc: Option<RootCause>,
    /// How many times the damper has been charged (the ledger's 1-based
    /// flap index; stays 0 without damping).
    pub charges: u64,
}

impl RibInEntry {
    /// Creates an empty entry configured for this router's damping
    /// deployment and filter choice. `damper_slot` is the slot the
    /// router allocated in its damper store (`None` disables damping
    /// for the entry, and with it the filters).
    pub fn new(damper_slot: Option<u32>, filter: PenaltyFilter) -> Self {
        let (rcn, selective) = match (damper_slot.is_some(), filter) {
            (true, PenaltyFilter::Rcn) => (Some(Box::default()), None),
            (true, PenaltyFilter::Selective) => (None, Some(SelectiveFilter::new())),
            _ => (None, None),
        };
        RibInEntry {
            route: None,
            damper_slot,
            suppressed: false,
            rcn,
            selective,
            last_rc: None,
            charges: 0,
        }
    }

    /// Whether the entry is currently suppressed.
    pub fn is_suppressed(&self) -> bool {
        self.suppressed
    }

    /// The route if it may be used in best-path selection (present and
    /// not suppressed).
    pub fn usable_route(&self) -> Option<Route> {
        if self.suppressed {
            None
        } else {
            self.route
        }
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
        assert!(e.damper_slot.is_none() && e.rcn.is_none() && e.selective.is_none());
    }

    #[test]
    fn filter_wiring_matches_config() {
        let e = RibInEntry::new(Some(0), PenaltyFilter::Rcn);
        assert!(e.rcn.is_some() && e.selective.is_none());
        let e = RibInEntry::new(Some(0), PenaltyFilter::Selective);
        assert!(e.rcn.is_none() && e.selective.is_some());
        let e = RibInEntry::new(Some(0), PenaltyFilter::Plain);
        assert!(e.rcn.is_none() && e.selective.is_none());
        // filters require a damper
        let e = RibInEntry::new(None, PenaltyFilter::Rcn);
        assert!(e.rcn.is_none());
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
