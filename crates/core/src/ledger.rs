//! The damping lifecycle ledger: a per-(peer, prefix) audit stream of
//! timer interactions.
//!
//! Aggregate metrics say *how many* routes ended up suppressed; they
//! cannot say *which* timer deferred *which* update and why. The ledger
//! answers that: an opt-in, key-filtered list of [`LedgerRecord`]s —
//! penalty charges with before/after values, cut-off threshold
//! crossings, suppress/reuse timer arm/fire/cancel, MRAI deferrals and
//! decay recomputations — emitted by the router at the exact decision
//! points the paper's timer-interaction analysis is about.
//!
//! The network buffers matching records in a plain `Vec` during the
//! measured phase (`Network::set_ledger` / `Network::take_ledger`);
//! `rfd explain` is the one reader. The hot path pays exactly one
//! branch when the ledger is off: emission sites check a preselected
//! key set ([`LedgerFilter::matches`]) before building any event.

use rfd_sim::{SimDuration, SimTime};

use crate::update::UpdateKind;

/// One lifecycle event on a single (peer, prefix) damping entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LedgerEvent {
    /// The lazily-stored penalty was decayed forward to the current
    /// instant before being used (every charge and reuse check does
    /// this — RFC 2439 decay is recomputed, never ticked).
    Decay {
        /// The stored value, exact at the previous anchor instant.
        from: f64,
        /// The recomputed value at this record's instant.
        to: f64,
        /// How long the value had been left un-recomputed.
        idle: SimDuration,
    },
    /// The entry was charged for one received update.
    Charge {
        /// What kind of update caused the charge.
        kind: UpdateKind,
        /// Decayed penalty just before the charge.
        before: f64,
        /// Penalty just after the charge (post-ceiling).
        after: f64,
        /// How many charges this entry has taken so far (1-based).
        flap: u64,
        /// True when this charge pushed the penalty over the cut-off
        /// threshold: the suppression boundary was crossed.
        crossed_cutoff: bool,
    },
    /// The entry became suppressed (always follows a `Charge` with
    /// `crossed_cutoff`).
    Suppressed {
        /// Penalty at suppression time.
        penalty: f64,
        /// Projected release instant absent further charges.
        reuse_at: SimTime,
    },
    /// A reuse timer was armed (possibly quantised up by the reuse-list
    /// granularity).
    ReuseArmed {
        /// Expiry instant of the timer.
        due: SimTime,
    },
    /// A reuse timer fired and found the penalty still above the reuse
    /// threshold — the paper's secondary-charging signature — so the
    /// check rescheduled itself.
    ReuseDeferred {
        /// Decayed penalty at the check.
        penalty: f64,
        /// When the rescheduled timer will fire.
        retry_at: SimTime,
    },
    /// A reuse timer fired and released the route.
    Released {
        /// Decayed penalty at release (below the reuse threshold).
        penalty: f64,
        /// True when the release re-announced a route that was still
        /// viable ("noisy" release propagating an update).
        noisy: bool,
    },
    /// A reuse timer fired for an entry that is no longer suppressed —
    /// a stale timer, cancelled by doing nothing.
    ReuseStale,
    /// The MRAI timer held back an outbound update for this prefix.
    MraiDeferred {
        /// The instant the peer's rate limiter will allow sending.
        ready_at: SimTime,
        /// How long the update will have been held (`ready_at - now`).
        held_for: SimDuration,
        /// True when the deferred change is a withdrawal (only paced
        /// under WRATE).
        withdrawal: bool,
    },
    /// A previously deferred change was flushed when the MRAI timer
    /// fired.
    MraiFlushed {
        /// True when the flushed change is a withdrawal.
        withdrawal: bool,
    },
}

/// One timestamped, keyed ledger entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerRecord {
    /// Simulated instant of the event.
    pub at: SimTime,
    /// The router (node) whose damping entry this is.
    pub node: u32,
    /// The peer the damped route was learned from.
    pub peer: u32,
    /// The damped prefix.
    pub prefix: u32,
    /// What happened.
    pub event: LedgerEvent,
}

fn pack_key(peer: u32, prefix: u32) -> u64 {
    (u64::from(peer) << 32) | u64::from(prefix)
}

/// The preselected (peer, prefix) key set the ledger samples.
///
/// Emission sites call [`LedgerFilter::matches`] before building any
/// event, so an empty filter costs one branch per decision and nothing
/// else — the non-perturbation contract's mechanical basis.
#[derive(Debug, Clone, Default)]
pub struct LedgerFilter {
    /// Sorted packed `(peer, prefix)` keys; `None` watches every key.
    keys: Option<Vec<u64>>,
}

impl LedgerFilter {
    /// Watches every (peer, prefix) key. Replay-scale runs only — this
    /// emits on every damping decision.
    pub fn all() -> Self {
        LedgerFilter { keys: None }
    }

    /// Watches exactly the given keys.
    pub fn keys(keys: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut packed: Vec<u64> = keys
            .into_iter()
            .map(|(peer, prefix)| pack_key(peer, prefix))
            .collect();
        packed.sort_unstable();
        packed.dedup();
        LedgerFilter { keys: Some(packed) }
    }

    /// Whether the key is in the watched set.
    #[inline]
    pub fn matches(&self, peer: u32, prefix: u32) -> bool {
        match &self.keys {
            None => true,
            Some(keys) => keys.binary_search(&pack_key(peer, prefix)).is_ok(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_matches_exact_keys_only() {
        let f = LedgerFilter::keys([(7, 0), (3, 9)]);
        assert!(f.matches(7, 0));
        assert!(f.matches(3, 9));
        assert!(!f.matches(7, 9));
        assert!(!f.matches(3, 0));
        assert!(!f.matches(0, 7), "peer/prefix must not be conflated");
        let all = LedgerFilter::all();
        assert!(all.matches(123, 456));
        let empty = LedgerFilter::keys([]);
        assert!(!empty.matches(0, 0));
    }
}
