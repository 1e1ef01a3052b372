//! Supervised cell execution: panic containment.
//!
//! Every grid cell runs inside [`supervise`], which wraps the executor
//! in [`std::panic::catch_unwind`] behind a panic-quietening hook
//! boundary, so a panicking cell is *recorded* (kind and message)
//! instead of tearing down the sweep. A cell is a pure function of its
//! grid position, so a panic is not retried here: run again, it would
//! panic again. The outcome is a [`CellFailure`] that `run_chains`
//! returns — the sweep finishes every other cell, the journal records
//! the failure, `--resume` re-runs exactly the failed cells once the
//! cause is fixed, and the caller decides how loudly to exit.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;
use std::time::{Duration, Instant};

use crate::chaos::ChaosPlan;

/// Why a cell was declared failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// The cell panicked.
    Panic,
    /// The cell executed but its journal record could not be written.
    JournalIo,
}

impl fmt::Display for FailKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailKind::Panic => "panic",
            FailKind::JournalIo => "journal-io",
        })
    }
}

/// One failed cell: everything the failure report, the journal and the
/// CSV marking need.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFailure {
    /// Index of the cell in grid order.
    pub index: usize,
    /// Journal key of the cell.
    pub key: String,
    /// Failure classification.
    pub kind: FailKind,
    /// Human-readable detail (panic message or I/O error).
    pub message: String,
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}: {}", self.key, self.kind, self.message)
    }
}

/// Renders the end-of-sweep failure report printed to stderr when a
/// grid finishes with failed cells.
pub fn render_failure_report(failures: &[CellFailure]) -> String {
    let mut out = format!(
        "rfd-runner: FAILURE REPORT — {} cell(s) failed\n",
        failures.len()
    );
    for failure in failures {
        out.push_str(&format!("  {failure}\n"));
    }
    out.push_str("rfd-runner: re-run with --resume to execute only the failed cells\n");
    out
}

/// A successfully supervised cell.
#[derive(Debug)]
pub struct Supervised<T> {
    /// The executor's result.
    pub value: T,
    /// Wall-clock duration of the cell.
    pub duration: Duration,
}

thread_local! {
    /// While set, the process panic hook stays silent for this thread:
    /// supervised cells report panics through the failure path, not as
    /// raw hook spew.
    static QUIET_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic-hook wrapper that suppresses
/// the default backtrace printing for panics the supervisor is about to
/// catch. Panics on unsupervised threads keep the previous behaviour —
/// the wrapper delegates to whatever hook was installed before it.
fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                previous(info);
            }
        }));
    });
}

/// Extracts a readable message from a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one cell under supervision: chaos injection and panic
/// containment.
///
/// # Errors
///
/// Returns the [`CellFailure`] describing the panic.
pub fn supervise<T>(
    index: usize,
    key: &str,
    chaos: &ChaosPlan,
    exec: impl FnOnce() -> T,
) -> Result<Supervised<T>, CellFailure> {
    install_quiet_hook();
    let started = Instant::now();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        QUIET_PANICS.with(|q| q.set(true));
        if chaos.panics(key) {
            panic!("chaos: injected panic in cell {key}");
        }
        exec()
    }));
    QUIET_PANICS.with(|q| q.set(false));
    match outcome {
        Ok(value) => Ok(Supervised {
            value,
            duration: started.elapsed(),
        }),
        Err(payload) => {
            rfd_obs::inc("runner.cell.panics");
            Err(fail_cell(CellFailure {
                index,
                key: key.to_owned(),
                kind: FailKind::Panic,
                message: panic_message(payload.as_ref()),
            }))
        }
    }
}

/// Marks a cell as definitively failed: bumps the failure counter and
/// reports on stderr. Also used for journal-I/O failures.
pub fn fail_cell(failure: CellFailure) -> CellFailure {
    rfd_obs::inc("runner.cell.failures");
    eprintln!("rfd-runner: cell failed — {failure}");
    failure
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_cells_pass_through() {
        let out = supervise(3, "k", &ChaosPlan::none(), || 42).unwrap();
        assert_eq!(out.value, 42);
    }

    #[test]
    fn panics_are_contained_and_described() {
        let err = supervise(0, "k", &ChaosPlan::none(), || -> u32 {
            panic!("boom {}", 7)
        })
        .unwrap_err();
        assert_eq!(err.kind, FailKind::Panic);
        assert!(err.message.contains("boom 7"), "{}", err.message);
    }

    #[test]
    fn chaos_panics_the_named_cell_without_running_it() {
        let plan = ChaosPlan::parse("panic@k").unwrap();
        let err = supervise(0, "k", &plan, || -> u32 {
            unreachable!("a chaos cell never runs")
        })
        .unwrap_err();
        assert_eq!(err.kind, FailKind::Panic);
        assert!(err.message.starts_with("chaos:"), "{}", err.message);
        let other = supervise(1, "other", &plan, || 9).unwrap();
        assert_eq!(other.value, 9);
    }

    #[test]
    fn failure_report_lists_every_cell() {
        let failures = vec![
            CellFailure {
                index: 0,
                key: "a|n=1|seed=1".into(),
                kind: FailKind::Panic,
                message: "boom".into(),
            },
            CellFailure {
                index: 4,
                key: "b|n=2|seed=1".into(),
                kind: FailKind::JournalIo,
                message: "disk full".into(),
            },
        ];
        let report = render_failure_report(&failures);
        assert!(report.contains("2 cell(s) failed"));
        assert!(report.contains("a|n=1|seed=1: panic: boom"));
        assert!(report.contains("b|n=2|seed=1: journal-io: disk full"));
        assert!(report.contains("--resume"));
    }
}
