//! # rfd-metrics — traces, time series and state classification
//!
//! Instrumentation layer for the route-flap-damping reproduction. The
//! protocol simulation records a [`Trace`] of everything that happens;
//! this crate turns it into the paper's measurements:
//!
//! * [`Trace::convergence_time`] / [`Trace::message_count`] — the two
//!   headline metrics of §3 (Figures 8, 9, 13, 14, 15);
//! * [`bin_events`] — 5-second update bins (Figure 10, top row);
//! * [`Trace::damped_link_series`] — suppressed-entry counts over time
//!   (Figure 10, bottom row);
//! * [`StateClassifier`] — the charging / suppression / releasing /
//!   converged reconstruction of §4.1 (Figure 4);
//! * [`TraceSink`] and the streaming aggregators ([`ConvergenceTracker`],
//!   [`MessageCounter`], [`UpdateBins`], [`SuppressionStats`]) — the
//!   same metrics computed online in O(1) space, for sweeps that must
//!   not buffer whole event histories;
//! * [`export_trace`] / [`parse_trace`] — the `--trace` line format,
//!   also the trace section of a checkpoint;
//! * [`RunningStats`] — the Welford accumulator sweeps fold seeds with;
//! * [`Table`] — plain-text and CSV reporting for the experiment
//!   commands.
//!
//! Nodes are raw `u32` indices here so the crate stays independent of
//! the protocol and topology layers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod events;
mod export;
mod plot;
mod report;
mod series;
mod sink;
mod states;
mod stats;
mod trace;

pub use events::{TraceEvent, TraceEventKind};
pub use export::{export_trace, parse_trace, ParseTraceError};
pub use plot::AsciiChart;
pub use report::{fmt_f64, Table};
pub use series::{bin_events, StepSeries};
pub use sink::{
    ConvergenceTracker, MessageCounter, NullSink, SuppressionStats, TraceSink, UpdateBins, VecSink,
};
pub use states::{DampingState, StateClassifier, StateSpan};
pub use stats::RunningStats;
pub use trace::{PenaltyPoint, Trace, TraceIter};
