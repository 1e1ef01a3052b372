//! # rfd-core — RFC 2439 route flap damping
//!
//! The damping algorithm studied by *Timer Interaction in Route Flap
//! Damping* (ICDCS 2005), as a standalone, protocol-agnostic library:
//!
//! * [`DampingParams`] — vendor parameter presets (paper Table 1) and
//!   derived quantities (decay constant λ, RFC 2439 penalty ceiling);
//! * [`Penalty`] — the figure-of-merit with exact exponential decay;
//! * [`Damper`] — the per-(peer, prefix) suppression state machine with
//!   lazy, recharge-aware reuse timers: the reference model and the
//!   analytic engine;
//! * [`DamperStore`] — the same state machine for whole populations in
//!   dense arrays, which the routers and the firehose run on;
//! * [`RcnFilter`] / [`RootCauseHistory`] — the paper's §6 fix: charge
//!   the penalty once per *root cause* instead of once per update;
//! * [`SelectiveFilter`] — the simplified Mao et al. baseline;
//! * [`ReuseList`] — RFC 2439's quantised reuse lists, the firehose's
//!   reuse scheduler;
//! * [`FlapPattern`] — the paper's workload: `n` pulses, events one
//!   interval apart, yielded lazily; every simulated run and the §3
//!   model flap from it;
//! * [`intended_behavior`] / [`intended_curve`] — the §3 closed-form
//!   model producing the paper's "calculation" lines.
//!
//! # Examples
//!
//! Reproduce the core of Figure 3 — a penalty sawtooth crossing the
//! cut-off after enough flaps:
//!
//! ```
//! use rfd_core::{Damper, DampingParams, UpdateKind};
//! use rfd_sim::SimTime;
//!
//! let params = DampingParams::cisco();
//! let mut damper = Damper::new(params);
//! let mut suppressed_at = None;
//! for pulse in 0..4u64 {
//!     let w = damper.record_update(SimTime::from_secs(pulse * 120), UpdateKind::Withdrawal);
//!     if w.newly_suppressed {
//!         suppressed_at = Some(pulse + 1);
//!         break;
//!     }
//!     damper.record_update(SimTime::from_secs(pulse * 120 + 60), UpdateKind::ReAnnouncement);
//! }
//! assert_eq!(suppressed_at, Some(3), "Cisco defaults suppress at the 3rd pulse");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analytic;
mod damper;
mod decay_table;
mod ledger;
mod params;
mod penalty;
mod rcn;
mod reuse_list;
mod selective;
mod store;
mod update;

pub use analytic::{
    intended_behavior, intended_curve, penalty_after_charges, suppression_trigger_pulse,
    FlapPattern, FlapSchedule, IntendedBehavior,
};
pub use damper::{ChargeOutcome, Damper, ReuseCheck};
pub use decay_table::DecayTable;
pub use ledger::{LedgerEvent, LedgerFilter, LedgerRecord};
pub use params::{DampingParams, DampingParamsBuilder, ValidateParamsError};
pub use penalty::Penalty;
pub use rcn::{LinkStatus, RcnChargePolicy, RcnFilter, RootCause, RootCauseHistory};
pub use reuse_list::ReuseList;
pub use selective::{RelativePreference, SelectiveFilter};
pub use store::{DamperStore, DamperStoreState, DecayMode};
pub use update::UpdateKind;
