//! Deterministic fault injection for the runner.
//!
//! A [`ChaosPlan`] names grid cells (by journal key) and the fault to
//! inject when they execute: a panic, an artificial hang, or a journal
//! short-write. Faults are *deterministic* — the same plan against the
//! same grid injects the same faults into the same cells on every run —
//! which is what lets the end-to-end tests and the CI chaos job prove
//! the supervisor's behaviour instead of hoping for it.
//!
//! Plans parse from a compact spec (CLI `--chaos`, or the `RFD_CHAOS`
//! environment variable):
//!
//! ```text
//! panic@damped|n=1|seed=2                 always panic that cell
//! panic*2@damped|n=1|seed=2               panic its first two attempts
//! hang=0.25@undamped|n=3|seed=1           sleep 0.25 s before running
//! shortwrite@damped|n=0|seed=1            truncate its journal record
//! ```
//!
//! Several faults join with `;`. An attempt bound (`*N`) combined with
//! `--retries` lets a test exercise the retry path: `panic*1` fails the
//! first attempt and succeeds on the retry.

use std::fmt;
use std::time::Duration;

/// The fault to inject into a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosKind {
    /// Panic instead of executing the cell.
    Panic,
    /// Sleep this long before executing the cell (trips the watchdog
    /// and, past the cell budget, the timeout classification).
    Hang(Duration),
    /// Execute normally but truncate the cell's journal record to half
    /// its bytes (a torn write; resume must skip it and re-run the
    /// cell).
    ShortWrite,
}

impl fmt::Display for ChaosKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosKind::Panic => write!(f, "panic"),
            ChaosKind::Hang(d) => write!(f, "hang={}", d.as_secs_f64()),
            ChaosKind::ShortWrite => write!(f, "shortwrite"),
        }
    }
}

/// One injected fault: which cell, what fault, and for how many
/// attempts (1-based; `u32::MAX` means every attempt).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosFault {
    /// Journal key of the target cell (see `Cell::key`).
    pub key: String,
    /// What to inject.
    pub kind: ChaosKind,
    /// Inject on attempts `1..=attempts`; later attempts run clean.
    pub attempts: u32,
}

/// A deterministic fault-injection plan (empty by default: no faults).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    faults: Vec<ChaosFault>,
}

/// A malformed chaos spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosParseError(pub String);

impl fmt::Display for ChaosParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad chaos spec: {}", self.0)
    }
}

impl std::error::Error for ChaosParseError {}

impl ChaosPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults in the plan.
    pub fn faults(&self) -> &[ChaosFault] {
        &self.faults
    }

    /// Adds a fault programmatically (tests build plans this way).
    pub fn with(mut self, key: impl Into<String>, kind: ChaosKind, attempts: u32) -> Self {
        self.faults.push(ChaosFault {
            key: key.into(),
            kind,
            attempts,
        });
        self
    }

    /// The fault to inject into `key` on its `attempt`-th execution
    /// (1-based), if any.
    pub fn fault_for(&self, key: &str, attempt: u32) -> Option<ChaosKind> {
        self.faults
            .iter()
            .find(|f| f.key == key && attempt <= f.attempts)
            .map(|f| f.kind)
    }

    /// Parses a `;`-separated fault list (see the module docs for the
    /// grammar).
    ///
    /// # Errors
    ///
    /// Returns [`ChaosParseError`] on unknown fault kinds, malformed
    /// durations or attempt counts, or missing `@key` separators.
    pub fn parse(spec: &str) -> Result<ChaosPlan, ChaosParseError> {
        let mut plan = ChaosPlan::default();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (kind_spec, key) = part
                .split_once('@')
                .ok_or_else(|| ChaosParseError(format!("`{part}` needs kind@cell-key")))?;
            if key.is_empty() {
                return Err(ChaosParseError(format!("`{part}` names no cell key")));
            }
            let (kind_spec, attempts) = match kind_spec.split_once('*') {
                Some((k, n)) => (
                    k,
                    n.parse::<u32>().map_err(|_| {
                        ChaosParseError(format!("`{n}` is not an attempt count in `{part}`"))
                    })?,
                ),
                None => (kind_spec, u32::MAX),
            };
            if attempts == 0 {
                return Err(ChaosParseError(format!(
                    "attempt count must be at least 1 in `{part}`"
                )));
            }
            let kind = if kind_spec == "panic" {
                ChaosKind::Panic
            } else if kind_spec == "shortwrite" {
                ChaosKind::ShortWrite
            } else if let Some(secs) = kind_spec.strip_prefix("hang=") {
                let secs: f64 = secs.parse().map_err(|_| {
                    ChaosParseError(format!("`{secs}` is not a duration in `{part}`"))
                })?;
                // Refuses negative, NaN, infinite and too-large-to-hold values.
                ChaosKind::Hang(Duration::try_from_secs_f64(secs).map_err(|_| {
                    ChaosParseError(format!("hang duration must be non-negative in `{part}`"))
                })?)
            } else {
                return Err(ChaosParseError(format!(
                    "unknown fault `{kind_spec}` in `{part}` \
                     (panic|hang=SECS|shortwrite)"
                )));
            };
            plan.faults.push(ChaosFault {
                key: key.to_owned(),
                kind,
                attempts,
            });
        }
        Ok(plan)
    }

    /// The plan requested by the `RFD_CHAOS` environment variable
    /// (`None` when unset or empty).
    ///
    /// # Errors
    ///
    /// Returns [`ChaosParseError`] when the variable is set but
    /// malformed — chaos specs fail loudly, never silently no-op.
    pub fn from_env() -> Result<Option<ChaosPlan>, ChaosParseError> {
        match std::env::var("RFD_CHAOS") {
            Ok(spec) if !spec.trim().is_empty() => ChaosPlan::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_fault_kind() {
        let plan = ChaosPlan::parse("panic@a|n=1|seed=2; hang=0.5@b|n=0|seed=1;shortwrite@c")
            .expect("valid spec");
        assert_eq!(plan.faults().len(), 3);
        assert_eq!(plan.fault_for("a|n=1|seed=2", 1), Some(ChaosKind::Panic));
        assert_eq!(
            plan.fault_for("b|n=0|seed=1", 7),
            Some(ChaosKind::Hang(Duration::from_millis(500)))
        );
        assert_eq!(plan.fault_for("c", 1), Some(ChaosKind::ShortWrite));
        assert_eq!(plan.fault_for("unlisted", 1), None);
    }

    #[test]
    fn attempt_bounds_expire() {
        let plan = ChaosPlan::parse("panic*2@cell").unwrap();
        assert_eq!(plan.fault_for("cell", 1), Some(ChaosKind::Panic));
        assert_eq!(plan.fault_for("cell", 2), Some(ChaosKind::Panic));
        assert_eq!(plan.fault_for("cell", 3), None);
    }

    #[test]
    fn unbounded_faults_apply_to_every_attempt() {
        let plan = ChaosPlan::parse("panic@cell").unwrap();
        assert_eq!(plan.fault_for("cell", u32::MAX), Some(ChaosKind::Panic));
    }

    #[test]
    fn keys_may_contain_pipes_and_spaces() {
        let key = "Full Damping (simulation, mesh)|n=2|seed=1";
        let plan = ChaosPlan::parse(&format!("panic@{key}")).unwrap();
        assert_eq!(plan.fault_for(key, 1), Some(ChaosKind::Panic));
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "panic",           // no key
            "panic@",          // empty key
            "explode@cell",    // unknown kind
            "hang=abc@cell",   // bad duration
            "hang=-1@cell",    // negative duration
            "hang=1e300@cell", // unrepresentable duration (panicked before ISSUE 14)
            "panic*zero@cell", // bad attempt count
            "panic*0@cell",    // zero attempts
        ] {
            assert!(ChaosPlan::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn empty_spec_is_no_faults() {
        assert!(ChaosPlan::parse("").unwrap().is_empty());
        assert!(ChaosPlan::parse(" ; ;").unwrap().is_empty());
        assert!(ChaosPlan::none().fault_for("x", 1).is_none());
    }

    #[test]
    fn display_round_trips_through_parse() {
        let plan = ChaosPlan::parse("hang=0.25@k").unwrap();
        let shown = format!("{}", plan.faults()[0].kind);
        let again = ChaosPlan::parse(&format!("{shown}@k")).unwrap();
        assert_eq!(plan.faults()[0].kind, again.faults()[0].kind);
    }
}
