//! # rfd-experiments — the paper's evaluation, regenerated
//!
//! One entry point per table and figure of *Timer Interaction in Route
//! Flap Damping* (ICDCS 2005), plus the §6/§7 extension studies:
//!
//! | Artefact | Entry point | Command |
//! |---|---|---|
//! | Table 1 | [`figures::table1::table1`] | `rfd figure table1` |
//! | Figure 3 | [`figures::fig3::figure3`] | `rfd figure fig3` |
//! | Figure 7 | [`figures::fig7::figure7`] | `rfd figure fig7` |
//! | Figures 8 & 9 | [`figures::fig8_9::figure8_9`] | `rfd sweep --figure fig8-9` |
//! | Figure 10 (a–f) | [`figures::fig10::figure10`] | `rfd figure fig10` |
//! | Figures 13 & 14 | [`figures::fig13_14::figure13_14`] | `rfd sweep --figure fig13-14` |
//! | Figure 15 | [`figures::fig15::figure15`] | `rfd sweep --figure fig15` |
//! | §6 heterogeneous params, \[15\] partial deployment | [`figures::extensions`] | `rfd figure extensions` |
//!
//! The entry points only measure. The `rfd` binary picks each
//! artefact's sizes, prints its series and writes its CSV files under
//! `results/`; `rfd figure all` regenerates everything.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;
pub mod figures;
pub mod output;
pub mod scenarios;
pub mod sweep;

pub use scenarios::{pick_isp, run_workload, TopologyKind};
pub use sweep::{
    calculation_series, estimate_t_up, measure_sweep, study_table, Column, PulseSweep, SeriesSpec,
    SweepOptions, SweepPoint, SweepSeries,
};
